import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkinv import suites, transforms
from helpers import dict_exp_quotient, dict_substitute_exponential, exp_read_off, \
    monomial_substitute_series, rewriting_decompose
from linkinv.algebra import LaurentPolynomial, TruncatedSeries, brace, x_of_z
from linkinv.alexander import potential_function
from linkinv.corpus import load_corpus
from linkinv.diagram import BraidWord, braid_closure, parse_pd
from linkinv.skein import conway, homfly, kauffman_f
from linkinv.transforms import (
    _CH,
    Decomposition,
    _exp_table,
    _lucas,
    _link_quotients,
    _sigma,
    _sinh_unit,
    component_conways,
    conway_quotient,
    decompose,
    exp_expand_homfly,
    exp_expand_kauffman,
    homfly_exp_quotient,
    kauffman_exp_quotient,
    omega_from_reduced,
    parity_vector,
    potential_series,
    potential_series_quotient,
    reconstruct,
    reduced_polynomial,
    reduced_quotient,
    traldi_expand,
    zvars,
)


X = LaurentPolynomial.gen(("x", "y"), "x")
Y = LaurentPolynomial.gen(("x", "y"), "y")


def unknot():
    return parse_pd("O[1]\ncomponents: [[1]]\ncolors: [1]")


def unlink(m, colors=None):
    toks = " ".join(f"O[{i}]" for i in range(1, m + 1))
    comps = "[" + ",".join(f"[{i}]" for i in range(1, m + 1)) + "]"
    cols = list(colors) if colors else [1] * m
    return parse_pd(f"{toks}\ncomponents: {comps}\ncolors: {cols}")


def hopf(colors=(1, 2)):
    return braid_closure(BraidWord(2, [1, 1]), colors=colors)


def trefoil():
    return braid_closure(BraidWord(2, [1, 1, 1]))


def whitehead(colors=(1, 2)):
    return braid_closure(BraidWord(3, [1, -2, 1, -2, 1]), colors=colors)


def borromean(colors=(1, 2, 3)):
    return braid_closure(BraidWord(3, [1, -2, 1, -2, 1, -2]), colors=colors)


def solomon(colors=(1, 2)):
    return braid_closure(BraidWord(2, [1, 1, 1, 1]), colors=colors)


LINKS_2PLUS = [hopf, solomon, whitehead, borromean,
               lambda: hopf((1, 1)), lambda: borromean((1, 1, 1)),
               lambda: braid_closure(BraidWord(3, [1, 1, 2, 2]), colors=(1, 2, 1))]


def test_potential_series_hopf_is_one():
    om = potential_function(hopf())
    assert om.pole == 0
    assert potential_series(om, cap=8) == TruncatedSeries.one(("z1", "z2"), 8)


def test_potential_series_borromean():
    series = potential_series(potential_function(borromean()), cap=8)
    assert series == TruncatedSeries(("z1", "z2", "z3"), 8, {(1, 1, 1): 1})


def test_potential_series_trefoil_pole():
    om = potential_function(trefoil())
    assert om.pole == 1
    assert potential_series(om, cap=8) == TruncatedSeries(("z1",), 8, {(0,): 1, (2,): 1})


def test_potential_series_root_independence():
    for make in (hopf, solomon, whitehead, borromean):
        om = potential_function(make())
        # the other root of x - x^-1 = z is z - x(z), with reciprocal -x(z)
        images = {}
        for i, v in enumerate(om.variables):
            zi = f"z{i + 1}"
            x, _ = x_of_z(9, var=zi)
            images[v] = (TruncatedSeries.gen((zi,), zi, 9) - x, -x)
        other = monomial_substitute_series(om.numerator, images, 9).embed(zvars(len(om.variables)))
        assert potential_series(om, cap=9) == other, make


def one_color_closures(seed, count, letters=14):
    """`count` closures of seeded random 2-5-strand braids of 1 to
    `letters` letters, with one color per component."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(1, letters))]
        d = braid_closure(BraidWord(n, word))
        yield d.recolor(tuple(range(1, d.m + 1)))


def monomial_potential_series(d, om, cap):
    """The per-monomial route for a link: x_of_z's rational root substituted
    term by term.  A knot's numerator series is its Conway polynomial, since
    the potential is nabla(z) / z."""
    if om.pole:
        nabla = conway(d).rename_variables({"z": "z1"})
        return TruncatedSeries.from_laurent(nabla, cap)
    images = {v: x_of_z(cap, var=z) for v, z in zip(om.variables, zvars(len(om.variables)))}
    series = monomial_substitute_series(om.numerator, images, cap)
    return series.embed(zvars(len(om.variables)))


@pytest.mark.parametrize("cap", [0, 5, 12])
def test_potential_series_matches_monomial_oracle(cap):
    corpus = [e.link for e in load_corpus() if not e.singular]
    assert len(corpus) == 17
    diagrams = corpus + list(one_color_closures(20261019, 120))
    assert any(d.m == 1 for d in diagrams)
    assert any(potential_function(d).is_zero for d in diagrams)
    for d in diagrams:
        om = potential_function(d)
        got, want = potential_series(om, cap), monomial_potential_series(d, om, cap)
        assert got.variables == want.variables, d.name
        assert got.cap == want.cap, d.name
        assert got.terms == want.terms, d.name


def test_reversing_a_component_negates_the_potential_and_inverts_its_variable():
    # one color per component: reversing component i gives -Omega with
    # x_c -> x_c^-1 for its color c, so the series is -series with z_c -> -z_c
    pairs = 0
    for d in one_color_closures(20261020, 80):
        if d.m < 2:
            continue
        om = potential_function(d)
        series = potential_series(om, 8)
        for i in range(d.m):
            k = d.colors[i] - 1
            reversed_om = potential_function(d.reverse_component(i))
            flip = lambda e: e[:k] + (-e[k],) + e[k + 1:]
            assert reversed_om.numerator == LaurentPolynomial(
                om.variables, {flip(e): -c for e, c in om.numerator.terms.items()}), (d.name, i)
            assert potential_series(reversed_om, 8) == TruncatedSeries(
                series.variables, 8,
                {e: c if e[k] % 2 else -c for e, c in series.terms.items()}), (d.name, i)
            pairs += 1
    assert pairs >= 100


def test_potential_series_degree_parity():
    for make in LINKS_2PLUS:
        d = make()
        for exps in potential_series(potential_function(d), cap=9).terms:
            assert (sum(exps) - d.m) % 2 == 0


def test_potential_series_four_y_integrality():
    for make in LINKS_2PLUS:
        d = make()
        for exps, coeff in potential_series(potential_function(d), cap=10).terms.items():
            scaled = coeff * Fraction(4) ** sum(exps)
            assert scaled.denominator == 1, (d.name, exps, coeff)


def test_potential_series_matches_conway_diagonal():
    # z * series(z,...,z) equals the Conway polynomial, up to the cap
    for make in LINKS_2PLUS:
        d = make()
        nabla = conway(d)
        diag = {}
        for exps, coeff in potential_series(potential_function(d), cap=10).terms.items():
            k = sum(exps) + 1
            diag[k] = diag.get(k, Fraction(0)) + coeff
        for k, coeff in diag.items():
            assert coeff == nabla.coefficient((k,))
        for (k,), coeff in nabla.terms.items():
            if k <= 10:
                assert diag.get(k, Fraction(0)) == coeff


# -- identities of brace monomials --------------------------------------------

def _gens(n):
    xs = tuple(f"x{i}" for i in range(1, n + 1))
    return xs, [LaurentPolynomial.gen(xs, v) for v in xs]


def _brace_mono(xs, exps):
    return brace(LaurentPolynomial.monomial(xs, exps, 1))


def test_brace_shift_identity():
    # {x_i M} - {x_i^-1 M} = {x_i} {M} for random monomials M
    rng = random.Random(5)
    xs, gens = _gens(3)
    for _ in range(60):
        mexp = tuple(rng.randrange(-3, 4) for _ in range(3))
        for i in range(3):
            up = tuple(e + (1 if k == i else 0) for k, e in enumerate(mexp))
            dn = tuple(e - (1 if k == i else 0) for k, e in enumerate(mexp))
            lhs = _brace_mono(xs, up) - _brace_mono(xs, dn)
            ei = tuple(1 if k == i else 0 for k in range(3))
            rhs = _brace_mono(xs, ei) * _brace_mono(xs, mexp)
            assert lhs == rhs


def test_brace_double_shift_identity():
    # 2{x_i x_j^-1 M} = {x_i}{x_j^-1 M} + {x_j^-1}{x_i M} + {x_i x_j}{M}
    rng = random.Random(6)
    xs, gens = _gens(3)
    for _ in range(40):
        mexp = tuple(rng.randrange(-2, 3) for _ in range(3))
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                ei = tuple(1 if k == i else 0 for k in range(3))
                ejneg = tuple(-1 if k == j else 0 for k in range(3))
                eij = tuple((1 if k == i else 0) + (1 if k == j else 0) for k in range(3))
                both = tuple(a + b for a, b in zip(ei, ejneg))
                lhs = 2 * _brace_mono(xs, tuple(a + b for a, b in zip(both, mexp)))
                rhs = (_brace_mono(xs, ei) * _brace_mono(xs, tuple(a + b for a, b in zip(ejneg, mexp)))
                       + _brace_mono(xs, ejneg) * _brace_mono(xs, tuple(a + b for a, b in zip(ei, mexp)))
                       + _brace_mono(xs, eij) * _brace_mono(xs, mexp))
                assert lhs == rhs


def test_brace_odd_elimination_identity():
    # 2{alt(S)} = sum_j (-1)^(j+1) {x_(i_j)} {alt(S - i_j)} for odd S
    from linkinv.transforms import _alt_vector
    for n, subsets in ((3, [(1, 2, 3)]), (5, [(1, 2, 3), (1, 3, 5), (1, 2, 3, 4, 5)])):
        xs, _ = _gens(n)
        for S in subsets:
            lhs = 2 * _brace_mono(xs, _alt_vector(S, n))
            rhs = LaurentPolynomial.zero(xs)
            for j, idx in enumerate(sorted(S)):
                rest = tuple(s for s in S if s != idx)
                e = tuple(1 if k == idx - 1 else 0 for k in range(n))
                term = _brace_mono(xs, e) * _brace_mono(xs, _alt_vector(rest, n))
                rhs = rhs + ((-1) ** j) * term
            assert lhs == rhs, (n, S)


# -- decomposition -------------------------------------------------------------


def test_decompose_hopf():
    dec = decompose(potential_function(hopf()))
    assert dec.n == 2
    assert set(dec.parts) == {frozenset()}
    assert dec.parts[frozenset()] == LaurentPolynomial.constant(zvars(2), Fraction(1, 2))


def test_decompose_borromean():
    dec = decompose(potential_function(borromean()))
    assert set(dec.parts) == {frozenset()}
    expected = LaurentPolynomial(zvars(3), {(1, 1, 1): Fraction(1, 2)})
    assert dec.parts[frozenset()] == expected


def test_decompose_zero():
    dec = decompose(LaurentPolynomial.zero(("x1", "x2")))
    assert dec.parts == {}
    assert reconstruct(dec).is_zero


def test_decompose_rejects_non_bar_invariant():
    xs = ("x1", "x2")
    f = LaurentPolynomial.gen(xs, "x1")
    with pytest.raises(ValueError):
        decompose(f)


def test_reconstruct_round_trip_on_links():
    for make in LINKS_2PLUS:
        om = potential_function(make())
        dec = decompose(om)
        assert reconstruct(dec) == om.numerator
        for poly in dec.parts.values():
            for c in poly.terms.values():
                assert c.denominator in (1, 2)


def _random_decomposition(rng, n, deg):
    subsets = [frozenset()]
    idx = list(range(1, n + 1))
    import itertools
    for size in range(2, n + 1, 2):
        subsets += [frozenset(c) for c in itertools.combinations(idx, size)]
    parts = {}
    for S in subsets:
        if rng.random() < 0.4:
            continue
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            exps = tuple(rng.randrange(0, deg + 1) for _ in range(n))
            if sum(exps) > deg:
                continue
            terms[exps] = Fraction(rng.randrange(-6, 7), rng.choice([1, 2]))
        poly = LaurentPolynomial(zvars(n), terms)
        if poly:
            parts[S] = poly
    return Decomposition(n, parts)


def test_decompose_left_inverse_of_reconstruct_random():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.choice([1, 2, 3, 4])
        dec = _random_decomposition(rng, n, 6)
        om = reconstruct(dec)
        back = decompose(om)
        assert back.n == dec.n
        assert back.parts == dec.parts


def test_lucas_sequences_rewrite_powers_of_x():
    # x^e = (V_e + w*U_e)/2 and x^-e = (-1)^e * (V_e - w*U_e)/2 with
    # z = x - x^-1 and w = x + x^-1
    x = LaurentPolynomial.gen(("x",), "x")
    z, w = x - x ** -1, x + x ** -1

    def at_z(coefficients):
        return sum((c * z ** k for k, c in enumerate(coefficients)), LaurentPolynomial.zero(("x",)))

    seq = _lucas(12)
    assert len(seq) == 13 and _lucas(0) == [([2], [])]
    for e, (v, u) in enumerate(seq):
        assert 2 * x ** e == at_z(v) + w * at_z(u), e
        assert 2 * x ** -e == (-1) ** e * (at_z(v) - w * at_z(u)), e


def test_decompose_matches_the_rewriting_oracle():
    # seeded bar-invariant polynomials in 1-4 variables, |exponent| <= 4
    rng = random.Random(32)
    for _ in range(300):
        n = rng.choice([1, 2, 3, 4])
        xs = tuple(f"x{i}" for i in range(1, n + 1))
        f = LaurentPolynomial.constant(xs, rng.randrange(-3, 4))
        for _ in range(rng.randrange(0, 6)):
            exps = tuple(rng.randrange(-4, 5) for _ in range(n))
            f = f + rng.randrange(-5, 6) * brace(LaurentPolynomial.monomial(xs, exps))
        dec = decompose(f)
        assert dec == rewriting_decompose(f), f
        assert reconstruct(dec) == f, f


def test_decompose_round_trips_a_long_torus_link():
    # T(2,40) coloured (1,2): exponents up to 19, far past the rewriting stack
    om = potential_function(braid_closure(BraidWord(2, [1] * 40), colors=(1, 2)))
    assert max(max(map(abs, e)) for e in om.numerator.terms) == 19
    assert reconstruct(decompose(om)) == om.numerator


def test_reduced_polynomial_values():
    assert reduced_polynomial(decompose(potential_function(hopf()))) == \
        LaurentPolynomial.one(zvars(2))
    nbl = reduced_polynomial(decompose(potential_function(borromean())))
    assert nbl == LaurentPolynomial(zvars(3), {(1, 1, 1): 1})


def test_reduced_polynomial_diagonal_is_conway():
    # z * reduced(z,...,z) = conway(z)
    for make in LINKS_2PLUS:
        d = make()
        nbl = reduced_polynomial(decompose(potential_function(d)))
        z = LaurentPolynomial.gen(("z",), "z")
        diag = nbl.collapse_variables("z")
        assert z * diag == conway(d), d.name


def test_omega_round_trip_through_reduced():
    for make in LINKS_2PLUS:
        d = make()
        om = potential_function(d)
        dec = decompose(om)
        nbl = reduced_polynomial(dec)
        rebuilt = omega_from_reduced(nbl, parity_vector(d))
        assert rebuilt == om.numerator, d.name


def test_omega_from_reduced_rejects_bad_parity():
    nbl = LaurentPolynomial(zvars(2), {(1, 0): 1})
    with pytest.raises(ValueError):
        omega_from_reduced(nbl, (0, 0))


def test_reduced_skein_relation():
    # reduced(L+) - reduced(L-) = z_i * reduced(L0) at same-color crossings
    diagrams = [hopf((1, 1)), whitehead((1, 1)), borromean((1, 1, 1)),
                braid_closure(BraidWord(3, [1, 1, 2, 2]), colors=(1, 2, 1)),
                braid_closure(BraidWord(3, [1, 1, 2, 2]), colors=(1, 1, 2))]
    for d in diagrams:
        for ci in range(len(d.crossings)):
            cu, co = d.strands_at(ci)
            if d.colors[cu] != d.colors[co]:
                continue
            color = d.colors[cu]
            pos = d if d.sign(ci) == 1 else d.switch(ci)
            neg = d.switch(ci) if d.sign(ci) == 1 else d
            mid = d.smooth_oriented(ci)

            def reduced_of(x):
                om = potential_function(x)
                if om.pole:
                    nabla = conway(x)
                    return LaurentPolynomial(
                        ("z1",), {(k - 1,): c for (k,), c in nabla.terms.items()})
                nbl = reduced_polynomial(decompose(om))
                # embed into the palette of d (colors can collapse on smoothing)
                return nbl
            rp, rn, r0 = reduced_of(pos), reduced_of(neg), reduced_of(mid)
            zi = LaurentPolynomial.gen((f"z{color}",), f"z{color}")
            lhs = rp - rn
            rhs = zi * r0
            assert lhs == rhs, (d.name, ci)


def test_starred_trivial_components():
    # unknotted components: quotient equals the numerator
    d = hopf()
    assert conway_quotient(d, cap=8) == TruncatedSeries.from_laurent(conway(d), 8)


def test_conway_quotient_pl_invariance():
    base = hopf()
    knotted = base.connected_sum(trefoil(), 0, 0)
    assert conway_quotient(base, 10) == conway_quotient(knotted, 10)
    z = TruncatedSeries.gen(("z",), "z", 10)
    assert conway_quotient(base, 10) == z


def test_reduced_quotient_hopf():
    s = reduced_quotient(hopf(), cap=8)
    assert s == TruncatedSeries.one(("z1", "z2"), 8)
    assert s.coefficient((0, 0)) == 1  # linking number


def test_potential_series_quotient_integrality_of_reduced():
    for make in (hopf, solomon, whitehead):
        d = make()
        s = reduced_quotient(d, cap=10)
        for c in s.terms.values():
            assert c.denominator == 1


def test_traldi_hopf():
    table = traldi_expand(potential_function(hopf()), cap=6)
    assert table.get(0, 0) == 1
    assert all(v == 0 for k, v in table.entries.items() if k != (0, 0))


def test_traldi_split_vanishes():
    table = traldi_expand(potential_function(unlink(2, (1, 2))), cap=6)
    assert table.entries == {}


@pytest.mark.parametrize("cap", [0, 5, 12])
def test_traldi_matches_monomial_oracle(monkeypatch, cap):
    links = [e.link for e in load_corpus() if not e.singular and e.link.n_colors == 2]
    assert len(links) == 9
    oms = [potential_function(d) for d in links]
    got = [traldi_expand(om, cap) for om in oms]
    monkeypatch.setattr(transforms, "substitute_series", monomial_substitute_series)
    assert got == [traldi_expand(om, cap) for om in oms]


def test_traldi_integer_entries():
    for make in (hopf, solomon, whitehead):
        table = traldi_expand(potential_function(make()), cap=8)
        for v in table.entries.values():
            assert v.denominator == 1


# -- exponential expansions ----------------------------------------------------


def test_substitute_exponential_unknot():
    assert _exp_table(homfly(unknot()), (), 0, 6).entries == {(0, 0): Fraction(1)}
    assert exp_expand_homfly(homfly(unknot()), 6).entries == {(0, 0): Fraction(1)}


def test_exp_unlink2_closed_form():
    # (x - x^-1)/y -> sinh(ch/2)/sinh(h/2): the pole in y cancels
    assert homfly(unlink(2)) == (X - X ** -1) * Y ** -1
    table = exp_expand_homfly(homfly(unlink(2)), 4)
    assert table.entries == {
        (0, 1): 1, (2, 1): Fraction(-1, 24), (2, 3): Fraction(1, 24),
        (4, 1): Fraction(7, 5760), (4, 3): Fraction(-1, 576), (4, 5): Fraction(1, 1920)}


def test_exp_uncancelled_pole_raises():
    with pytest.raises(ArithmeticError, match="did not cancel"):
        exp_expand_homfly(Y ** -1, 4)


def test_exp_base_rows_match_component_count():
    # h-degree-0 row: p_{0i} = q_{0i} = 1 exactly at i = m-1
    cases = [(unknot(), 1), (unlink(2), 2), (unlink(3), 3),
             (hopf(), 2), (borromean(), 3), (trefoil(), 1)]
    for d, m in cases:
        pt = exp_expand_homfly(homfly(d), cap=4)
        qt = exp_expand_kauffman(kauffman_f(d), cap=4)
        for i in range(0, m + 3):
            want = 1 if i == m - 1 else 0
            assert pt.get(0, i) == want, (d.name, i)
            assert qt.get(0, i) == want, (d.name, i)


def test_exp_hopf_first_rows():
    pt = exp_expand_homfly(homfly(hopf()), cap=4)
    assert pt.get(0, 1) == 1
    row1 = {k: v for k, v in pt.entries.items() if k[0] == 1}
    assert row1  # the h-degree-1 row is nontrivial


def test_exp_quotient_separates_hopf_from_unlink():
    hq = homfly_exp_quotient(hopf(), 6)
    uq = homfly_exp_quotient(unlink(2), 6)
    assert hq.get(0, 1) == uq.get(0, 1) == 1
    assert hq != uq
    # a knot over itself: the component series times its inverse is 1
    assert homfly_exp_quotient(trefoil(), 8).entries == {(0, 0): 1}


def test_exp_quotients_pl_invariance():
    base = hopf()
    knotted = base.connected_sum(trefoil(), 1, 0)
    cap = 6
    a = homfly_exp_quotient(base, cap)
    assert a == homfly_exp_quotient(knotted, cap)
    assert a.entries == exp_expand_homfly(homfly(base), cap).entries  # unknotted components
    fa = kauffman_exp_quotient(base, cap)
    assert fa == kauffman_exp_quotient(knotted, cap)


def test_starred_quotients_share_one_component_pass_and_one_potential(monkeypatch):
    # the starred-pl-isotopy suite on the Hopf link: per diagram, the link
    # and its four sums with a trefoil or a figure eight, one component pass,
    # one potential function and two starred inverses, in z and in z1, z2
    entries = [e for e in load_corpus() if e.name == "hopf-plus"]
    calls = {"component_conways": 0, "potential_function": 0, "_starred_inverse": 0}
    for name in calls:
        real = getattr(transforms, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        for module in (transforms, suites):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    checks = suites.suite_starred_pl_isotopy(entries, 8)
    assert len(checks) == 4 * 5 and all(c.passed for c in checks)
    assert calls == {"component_conways": 5, "potential_function": 5, "_starred_inverse": 10}


def test_potential_series_quotient_is_refused_on_a_knot():
    with pytest.raises(ValueError, match="defined for links, not knots"):
        potential_series_quotient(trefoil(), 6)


def test_a_reduced_quotient_off_the_integers_is_refused():
    d = hopf()
    half = LaurentPolynomial(zvars(2), {(0, 0): Fraction(1, 2)})
    with pytest.raises(ArithmeticError, match="reduced quotient is not integral"):
        _link_quotients(potential_function(d), half, component_conways(d), 6)


def test_component_conways():
    d = hopf().connected_sum(trefoil(), 0, 0)
    polys = component_conways(d)
    assert len(polys) == 2
    values = sorted(p.render() for p, _ in polys)
    assert values == ["1", "1 + z^2"]


def test_traldi_congruence_against_decomposition():
    # e_ij = 2*(d'_ij + d''_ij) modulo the gcd of all earlier e_kl, for
    # i+j even; d', d'' are the two decomposition parts of a 2-color link
    from math import gcd
    for make in (hopf, solomon, whitehead, lambda: braid_closure(BraidWord(2, [-1] * 4), colors=(1, 2))):
        d = make()
        om = potential_function(d)
        table = traldi_expand(om, cap=8)
        dec = decompose(om)
        d_empty = dec.parts.get(frozenset(), LaurentPolynomial.zero(zvars(2)))
        d_full = dec.parts.get(frozenset({1, 2}), LaurentPolynomial.zero(zvars(2)))
        for i in range(6):
            for j in range(6):
                if (i + j) % 2:
                    continue
                e_ij = table.get(i, j)
                rhs = 2 * (d_empty.coefficient((i, j)) + d_full.coefficient((i, j)))
                modulus = 0
                for k in range(i + 1):
                    for l in range(j + 1):
                        if (k, l) != (i, j):
                            modulus = gcd(modulus, int(table.get(k, l)))
                diff = e_ij - rhs
                assert diff.denominator == 1
                if modulus:
                    assert int(diff) % modulus == 0, (d.name, i, j)
                else:
                    assert diff == 0, (d.name, i, j)


def test_traldi_lambda_matches_linking_parity():
    # the monomial shift is 0 for odd linking number and 1 for even
    for make, lk in ((hopf, 1), (solomon, 2), (whitehead, 0)):
        om = potential_function(make())
        exps = next(iter(om.numerator.terms))
        lam = abs(exps[0]) % 2
        assert lam == (lk + 1) % 2, make


# -- the exponential layer against its Fraction oracle -------------------------
#
# The oracle is the former expansion: the bivariate series of each power of y,
# times s^ky * h^(ky + pad), summed, and the quotient taken with
# TruncatedSeries.invert().


def _exp_sum(row, shift, cap):
    """The sum of coeff * e^(kx*(a + shift*h)/2) over the (kx, coeff) pairs
    in row, through total degree cap."""
    terms = {}
    fact = Fraction(1)
    for j in range(cap + 1):
        if j:
            fact /= j
        moment = fact * sum(coeff * Fraction(kx, 2) ** j for kx, coeff in row)
        if moment:
            for i in range(j + 1):
                terms[(i, j - i)] = moment * comb(j, i) * Fraction(shift) ** (j - i)
    return TruncatedSeries(_CH, cap, terms)


def oracle_substitute_exponential(f, shift, cap):
    """(G, pad): the value is G / h^pad, G through total degree cap + pad."""
    if f.is_zero:
        return TruncatedSeries.zero(_CH, cap), 0
    xi = f.variables.index("x")
    yi = f.variables.index("y")
    pad = max(0, -min(e[yi] for e in f.terms))
    prec = cap + pad
    by_y = {}
    for exps, coeff in f.terms.items():
        by_y.setdefault(exps[yi], []).append((exps[xi], coeff))
    s = _sinh_unit(prec)
    h = TruncatedSeries.gen(_CH, "h", prec)
    out = TruncatedSeries.zero(_CH, prec)
    for ky, row in by_y.items():
        out = out + _exp_sum(row, shift, prec) * s ** ky * h ** (ky + pad)
    return out, pad


def oracle_exp_quotient(d, poly, shift, cap, expand=oracle_substitute_exponential):
    out, pad = expand(poly(d), shift, cap)
    for j in range(d.m):
        comp, _ = expand(poly(d.component(j)), shift, cap + pad)
        out = out * comp.invert()
    return exp_read_off(out, pad)


def exp_quotient(d, poly, shift, cap):
    """`_exp_table` of poly(d) over the poly of each component of d."""
    return _exp_table(poly(d), [poly(d.component(j)) for j in range(d.m)], shift, cap)


def _memo(fn, key=lambda *args: args):
    memo = {}

    def call(*args):
        k = key(*args)
        if k not in memo:
            memo[k] = fn(*args)
        return memo[k]
    return call


@pytest.fixture(scope="module")
def exp_oracle_cases():
    """The non-singular corpus links, 60 seeded 2-4-strand braid closures and
    their connected sums with the trefoil; one memoized HOMFLY, F and oracle
    expansion for all."""
    diagrams = [e.link for e in load_corpus() if not e.singular]
    assert len(diagrams) == 17
    rng = random.Random(14)
    closures = []
    for _ in range(60):
        n = rng.randrange(2, 5)
        word = [rng.choice((1, -1)) * rng.randrange(1, n) for _ in range(rng.randrange(1, 8))]
        closures.append(braid_closure(BraidWord(n, word)))
    diagrams += closures + [d.connected_sum(trefoil(), 0, 0) for d in closures]
    by_diagram = lambda d: (d.crossings, d.components, d.colors)
    return (diagrams, _memo(homfly, by_diagram), _memo(kauffman_f, by_diagram),
            _memo(oracle_substitute_exponential))


@pytest.mark.parametrize("cap", [0, 5, 12])
def test_exponential_layer_matches_fraction_oracle(exp_oracle_cases, cap):
    diagrams, h_poly, f_poly, expand = exp_oracle_cases
    for d in diagrams:
        for poly, shift, label in ((h_poly, 0, "homfly"), (f_poly, -1, "kauffman")):
            got = _exp_table(poly(d), (), shift, cap)
            for series, pad in (expand(poly(d), shift, cap),
                                dict_substitute_exponential(poly(d), shift, cap)):
                assert series.cap == cap + pad, (d.name, label)
                assert got == exp_read_off(series, pad), (d.name, label)
            got = exp_quotient(d, poly, shift, cap)
            assert got == oracle_exp_quotient(d, poly, shift, cap, expand), (d.name, label)
            assert got == dict_exp_quotient(d, poly, shift, cap), (d.name, label)


def test_exp_quotient_skips_unknot_components(monkeypatch):
    """A component whose polynomial is 1 costs no moments: the Hopf link
    plus a trefoil builds them for the link and the trefoil only, and the
    quotient equals the one that divides by every component."""
    d = hopf().connected_sum(trefoil(), 0, 0)
    want = dict_exp_quotient(d, homfly, 0, 6)
    calls = []
    real = transforms._moments

    def counting(f, shift, cap):
        calls.append(f)
        return real(f, shift, cap)

    monkeypatch.setattr(transforms, "_moments", counting)
    assert homfly_exp_quotient(d, 6) == want
    assert calls == [homfly(d), homfly(trefoil())]


def test_exp_quotient_refuses_a_component_pole():
    with pytest.raises(ArithmeticError, match="pole"):
        exp_quotient(hopf(), lambda _: Y ** -1, 0, 4)


@pytest.mark.parametrize("cap", [0, 5])
@pytest.mark.parametrize("shift", [0, -1])
def test_exp_quotient_by_a_component_with_a_non_unit_constant(cap, shift):
    # a knot's value at a = h = 0 is f(1, 0); here 2 for the components, so
    # the division leaves the integers
    def poly(d):
        return (X - X ** -1) * Y ** -1 + X * Y if d.m > 1 else 2 * X ** 2 + X * Y - Y ** 2
    got = exp_quotient(hopf(), poly, shift, cap)
    assert got == oracle_exp_quotient(hopf(), poly, shift, cap)


def test_exp_quotient_by_a_component_with_zero_constant_refuses():
    def poly(d):
        return (X - X ** -1) * Y ** -1 if d.m > 1 else X - X ** -1
    with pytest.raises(ZeroDivisionError, match="zero constant term"):
        exp_quotient(hopf(), poly, 0, 4)


@pytest.mark.parametrize("fn", [
    lambda: homfly_exp_quotient(hopf(), -1),
    lambda: kauffman_exp_quotient(hopf(), -1),
    lambda: exp_expand_homfly(homfly(hopf()), -1),
    lambda: exp_expand_kauffman(kauffman_f(hopf()), -1),
])
def test_exponential_layer_refuses_a_negative_cap(fn):
    with pytest.raises(ValueError, match="cap must be >= 0"):
        fn()


def test_exp_quotients_agree_across_threads():
    # the s^-pad table is the layer's only state: a bounded lru_cache
    d = borromean()
    jobs = [(fn, cap) for fn in (homfly_exp_quotient, kauffman_exp_quotient) for cap in (4, 12)]
    want = [fn(d, cap) for fn, cap in jobs]
    orders = [range(len(jobs)), range(len(jobs) - 1, -1, -1), (1, 3, 0, 2)]
    _sigma.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(orders)) as pool:
            runs = [pool.submit(lambda order: [(k, jobs[k][0](d, jobs[k][1])) for k in order], order)
                    for order in orders]
            for run in runs:
                for k, got in run.result(timeout=120):
                    assert got == want[k], jobs[k]
    finally:
        sys.setswitchinterval(interval)
    assert _sigma.cache_info().maxsize is not None


short_braid_words = st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(1, n - 1).flatmap(lambda g: st.sampled_from((g, -g))),
             max_size=6)))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(short_braid_words)
def test_exponential_tables_of_the_mirror_flip_odd_h_degrees(sw):
    # H_{L*}(x, y) = H_L(x^-1, -y), and the same for F: the mirror is h -> -h
    n, word = sw
    d = braid_closure(BraidWord(n, word))
    mirror = braid_closure(BraidWord(n, [-g for g in word]))
    cap = 6
    for fn in (lambda x: exp_expand_homfly(homfly(x), cap),
               lambda x: exp_expand_kauffman(kauffman_f(x), cap),
               lambda x: homfly_exp_quotient(x, cap),
               lambda x: kauffman_exp_quotient(x, cap)):
        table, flipped = fn(d), fn(mirror)
        for k, i in set(table.entries) | set(flipped.entries):
            assert flipped.get(k, i) == (-1) ** k * table.get(k, i), (word, k, i)
