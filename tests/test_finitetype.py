from fractions import Fraction

import pytest

from linkinv.diagram import BraidWord, DiagramError, SingularLink, braid_closure
from linkinv.finitetype import (
    InvariantFunction,
    alpha_two,
    clasp_family,
    conway_coefficient,
    ck_coefficient,
    extend,
    homfly_exp_coefficient,
    kauffman_exp_coefficient,
    leibniz_restrict,
    linking_parity,
    threaded_circle_jump,
    threaded_circle_witness,
    self_point_family,
    type_falsify,
)


def linking_number():
    return InvariantFunction("lk", lambda d: d.linking_matrix()[0][1])


def test_extend_no_points_is_plain_evaluation():
    base = braid_closure(BraidWord(2, [1, 1]), colors=(1, 1))
    s = SingularLink(base, [])
    assert extend(linking_number(), s) == 1


def test_extend_single_point_linking():
    s = clasp_family(1)
    assert extend(linking_number(), s) == 1


def test_extend_multilinearity():
    # marking one more point is the difference of the two fixings
    chi = conway_coefficient(3)
    s2 = clasp_family(2, twists=2)
    base = s2.base
    fixed_plus = SingularLink(base if base.sign(1) == 1 else base.switch(1), [0])
    fixed_minus = SingularLink(base.switch(1) if base.sign(1) == 1 else base, [0])
    assert extend(chi, s2) == extend(chi, fixed_plus) - extend(chi, fixed_minus)


def test_parity_invariant_values_grow():
    for k in (1, 2, 3, 4):
        s = clasp_family(k)
        v = extend(linking_parity(), s)
        assert abs(v) == 2 ** k, k


def test_type_falsify_linking_number():
    # the linking number extension dies on two or more marked points
    fam = [clasp_family(2), clasp_family(2, twists=2), clasp_family(2, twists=3)]
    assert type_falsify(linking_number(), fam) == []
    # but the sign of the linking number is falsified on every member
    fam1 = [clasp_family(k, twists=k) for k in (2, 2)]
    witnesses = type_falsify(linking_parity(), fam1)
    assert len(witnesses) == 2


def test_type_falsify_rejects_uneven_families():
    with pytest.raises(DiagramError):
        type_falsify(linking_number(), [clasp_family(1), clasp_family(2)])


def test_leibniz_product_rule():
    s = clasp_family(1)
    lk = linking_number()
    assert leibniz_restrict(lk, lk, s)
    const = InvariantFunction("three", lambda d: Fraction(3))
    assert leibniz_restrict(lk, const, s)
    assert leibniz_restrict(const, lk, s)
    a3 = conway_coefficient(3)
    assert leibniz_restrict(lk, a3, s)


def test_threaded_circle_jump_values():
    assert threaded_circle_jump(1, 2, -3, 0) == 14
    assert threaded_circle_jump(0, 0, 0, 0) == 0
    assert threaded_circle_jump(2, 1, -3, 0) == threaded_circle_jump(1, 2, -3, 0)
    assert threaded_circle_jump(-1, -2, 3, 0) == threaded_circle_jump(1, 2, -3, 0)


def test_threaded_circle_witness_geometry():
    w, expected = threaded_circle_witness(1, 1, 0, -1)
    assert w.points == 3
    resolved = w.resolve([1, 1, 1])
    assert resolved.m == 2
    assert resolved.linking_matrix() == [[0, 0], [0, 0]]
    smoothed = resolved.smooth_oriented(0).smooth_oriented(0).smooth_oriented(0)
    assert smoothed.m == 3
    lm = smoothed.linking_matrix()
    assert lm[0][1] == 0
    # outer circle sees all pierces, inner circle only the center ones
    assert {abs(lm[0][2]), abs(lm[1][2])} == {abs(1 + 1 + 0 - 1), abs(-1)}


def test_threaded_circle_witness_value():
    w, expected = threaded_circle_witness(1, 2, -3, 0)
    assert expected == 14
    assert extend(alpha_two(), w) == 14


def test_threaded_circle_witness_symmetry_in_regions():
    w1, _ = threaded_circle_witness(1, -1, 0, 0)
    w2, _ = threaded_circle_witness(-1, 1, 0, 0)
    assert extend(alpha_two(), w1) == threaded_circle_jump(1, -1, 0, 0)
    assert extend(alpha_two(), w2) == threaded_circle_jump(-1, 1, 0, 0)


def test_threaded_circle_requires_zero_linking():
    with pytest.raises(DiagramError):
        threaded_circle_witness(1, 1, 1, 1)


def test_evidence_ck_vanishes_on_kl_families():
    # c_k has bounded type 2k in the self-intersection setting:
    # its extension dies on 2k+1 self points
    assert extend(ck_coefficient(0), self_point_family(1)) == 0
    assert extend(ck_coefficient(0), self_point_family(1, extra_twists=1)) == 0
    assert extend(ck_coefficient(1), self_point_family(3)) == 0
    assert extend(ck_coefficient(1), self_point_family(3, extra_twists=1)) == 0
    assert extend(ck_coefficient(2), self_point_family(5)) == 0
    # the three-self-point witness family is also a c_1 evidence family
    w, _ = threaded_circle_witness(1, 2, -3, 0)
    assert extend(ck_coefficient(1), w) == 0


def test_evidence_conway_coefficients_monochromatic():
    # the coefficient at z^(n+1) dies on n+2 marked points of any colors
    assert extend(conway_coefficient(1), clasp_family(2)) == 0
    assert extend(conway_coefficient(2), clasp_family(3, twists=2)) == 0
    assert extend(conway_coefficient(3), clasp_family(4, twists=2)) == 0
    w, _ = threaded_circle_witness(1, 2, -3, 0)
    assert extend(conway_coefficient(2), w) == 0  # 3 points kill a_2 too


def test_evidence_exp_coefficients():
    # p_k* and q_k* have type k: two marked points kill the k=1 row
    for i in (0, 1, 2):
        assert extend(homfly_exp_coefficient(1, i), clasp_family(2)) == 0
        assert extend(kauffman_exp_coefficient(1, i), clasp_family(2)) == 0
    for i in (0, 1, 2):
        assert extend(homfly_exp_coefficient(2, i), clasp_family(3, twists=2)) == 0
        assert extend(kauffman_exp_coefficient(2, i), clasp_family(3, twists=2)) == 0


def test_witness_p_and_q_rows_are_sharp():
    # one marked point does not kill the k=1 row: the type bound is sharp
    fam = clasp_family(1)
    nonzero = [i for i in (0, 1, 2)
               if extend(homfly_exp_coefficient(1, i), fam) != 0]
    assert nonzero


def test_threaded_circle_all_zero_multiplicities():
    w, expected = threaded_circle_witness(0, 0, 0, 0)
    assert expected == 0
    assert extend(alpha_two(), w) == 0
