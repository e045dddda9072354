"""Acceptance criteria, one test per criterion.

Everything is exact arithmetic, so "tolerance" is exact equality
throughout.  Each test prints one pass line when its criterion holds; a
failure surfaces as an ordinary assertion error naming the criterion.
"""

from fractions import Fraction

import pytest

from linkinv.algebra import LaurentPolynomial, rewrite_in_difference
from linkinv.alexander import potential_function
from linkinv.corpus import load_corpus
from linkinv.diagram import BraidWord, braid_closure
from linkinv.finitetype import alpha_two, extend, linking_parity
from linkinv.invariants import alpha_coeffs, two_color_tables, unoriented_sl
from linkinv.skein import conway, homfly
from linkinv.suites import (
    suite_congruences,
    suite_decomposition,
    suite_finite_type_evidence,
    suite_finite_type_witnesses,
    suite_lemma41,
    suite_skein_relations,
    suite_starred_pl_isotopy,
)
from linkinv.transforms import decompose, reduced_polynomial

from helpers import mono_numerator

CAP = 12


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


def _report(n, label):
    print(f"ACCEPTANCE {n}: PASS - {label}")


def _assert_suite(checks, crit, label):
    failed = [c for c in checks if not c.passed]
    assert not failed, f"criterion {crit}: " + "; ".join(c.line() for c in failed[:5])
    _report(crit, f"{label} ({len(checks)} checks)")


def by_name(corpus, name):
    return next(e for e in corpus if e.name == name)


def test_criterion_1_potential_values(corpus):
    for name in ("unlink2", "unlink3"):
        assert potential_function(by_name(corpus, name).link).is_zero
    hopf = by_name(corpus, "hopf-plus").link
    om = potential_function(hopf)
    assert om.numerator == LaurentPolynomial.one(("x1", "x2"))
    borr = by_name(corpus, "borromean").link
    omb = potential_function(borr)
    xs = ("x1", "x2", "x3")
    expected = LaurentPolynomial.one(xs)
    for v in xs:
        g = LaurentPolynomial.gen(xs, v)
        expected = expected * (g - g ** -1)
    assert omb.numerator == expected
    _report(1, "unlink potential 0, positive clasp potential 1, "
               "borromean potential is the brace product")


def test_criterion_2_skein_suites(corpus):
    _assert_suite(suite_skein_relations(corpus, CAP), 2,
                  "all four skein relations at every eligible corpus crossing")


def test_criterion_3_bridge_identity(corpus):
    for e in corpus:
        if e.singular:
            continue
        d = e.link
        om = potential_function(d)
        bridge = rewrite_in_difference(mono_numerator(om), "z")
        skein_route = homfly(d).set_variable_to_one("x").rename_variables({"y": "z"})
        assert bridge == skein_route == conway(d), e.name
    _report(3, "(x - x^-1) * potential at equal variables matches the "
               "skein Conway polynomial (HOMFLY at x = 1, y = z) and the "
               "state-determinant Conway polynomial on every corpus link")


def test_criterion_4_decomposition_round_trip(corpus):
    _assert_suite(suite_decomposition(corpus, CAP), 4,
                  "decomposition round trips, half-integrality, "
                  "full-part integrality, reduced-polynomial two-way determination")


def test_criterion_5_diagonal_identity(corpus):
    z = LaurentPolynomial.gen(("z",), "z")
    for e in corpus:
        if e.singular:
            continue
        d = e.link
        if d.m < 2:
            continue
        nbl = reduced_polynomial(decompose(potential_function(d)))
        assert z * nbl.collapse_variables("z") == conway(d), e.name
    _report(5, "conway(z) equals z times the reduced polynomial on the diagonal")


def test_criterion_6_parity_suites(corpus):
    checks = suite_lemma41(corpus, CAP)
    _assert_suite(checks, 6, "bar-invariance and both degree-parity patterns")


def test_criterion_7_coefficient_identities(corpus):
    for e in corpus:
        if e.singular or e.link.n_colors != 2:
            continue
        d = e.link
        c_t, a_t, d_t = two_color_tables(d, CAP)  # validators run inside
        for (i, j), v in list(a_t.entries.items()) + list(d_t.entries.items()):
            if (i + j) % 2 != d.m % 2:
                assert v == 0
    for n in (1, 2, 3, 4):
        d = braid_closure(BraidWord(2, [1] * (2 * n)), colors=(1, 2))
        alphas = alpha_coeffs(d.monochrome(), 9)
        a1 = alphas[1] if len(alphas) > 1 else Fraction(0)
        assert unoriented_sl(d, 8) == a1 - Fraction(n ** 3 - n, 12), n
    checks = suite_congruences(corpus, CAP)
    _assert_suite(checks, 7, "c00 = lk, delta00 = lk, the cubic-in-lk "
                             "correction, the reversal identity, and the "
                             "zero/evenness patterns at cap 12")


def test_criterion_8_pl_isotopy_probe(corpus):
    checks = suite_starred_pl_isotopy(corpus, CAP)
    bases = {c.name.split()[-1].split("+")[0] for c in checks}
    assert len(bases) >= 6
    _assert_suite(checks, 8, "tying trefoil/figure-eight locally leaves all "
                             "five quotient invariants unchanged at cap 12")


def test_criterion_9_exponential_base_rows(corpus):
    from linkinv.transforms import exp_expand_homfly, exp_expand_kauffman
    from linkinv.skein import kauffman_f
    for name, m in (("unknot", 1), ("trefoil-right", 1), ("hopf-plus", 2),
                    ("whitehead", 2), ("unlink2", 2), ("unlink3", 3),
                    ("borromean", 3)):
        d = by_name(corpus, name).link
        pt = exp_expand_homfly(homfly(d), cap=3)
        qt = exp_expand_kauffman(kauffman_f(d), cap=3)
        for i in range(m + 3):
            want = 1 if i == m - 1 else 0
            assert pt.get(0, i) == want, (name, i)
            assert qt.get(0, i) == want, (name, i)
    for e in corpus:
        if e.singular:
            continue
        d = e.link
        h = homfly(d)
        assert h.set_variable_to_one("x").rename_variables({"y": "z"}) == conway(d)
    _report(9, "h-degree-0 exponential rows hit exactly the component count "
               "and the HOMFLY polynomial specializes to Conway at x = 1")


def test_criterion_10_finite_type(corpus):
    _assert_suite(suite_finite_type_witnesses(corpus, CAP), 10,
                  "witness values +-2^k (k <= 4) and the 3-self-point jump 14")
    checks = suite_finite_type_evidence(corpus, CAP)
    failed = [c for c in checks if not c.passed]
    assert not failed
    w = by_name(corpus, "threaded-doubled-circle").diagram
    assert extend(alpha_two(), w) == 14
    for k in (1, 2, 3, 4):
        s = by_name(corpus, f"clasp-singular-{k}").diagram
        assert abs(extend(linking_parity(), s)) == 2 ** k


def test_criterion_11_frozen_oracle_values(corpus):
    expectations = {
        "trefoil-right": "1 + z^2",
        "trefoil-left": "1 + z^2",
        "figure-eight": "1 - z^2",
        "borromean": "z^4",
    }
    for name, want in expectations.items():
        d = by_name(corpus, name).link
        nabla = conway(d)
        bridge = rewrite_in_difference(mono_numerator(potential_function(d)), "z")
        skein_route = homfly(d).set_variable_to_one("x").rename_variables({"y": "z"})
        assert nabla.render() == want
        assert bridge == skein_route == nabla
    w = by_name(corpus, "whitehead")
    d = w.link
    _, a_t, d_t = two_color_tables(d, 8)
    alphas = alpha_coeffs(d.monochrome(), 9)
    assert str(d_t.get(1, 1)) == w.expected["delta11"]["value"]
    assert str(alphas[1]) == w.expected["alpha1"]["value"]
    assert d_t.get(1, 1) == alphas[1]
    assert conway(d).render() == w.expected["conway"]["value"]
    _report(11, "frozen derived values match both independent routes")
