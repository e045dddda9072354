import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import monomial_substitute_series, polynomial_rewrite_in_difference, truncate
from linkinv.alexander import potential_function
from linkinv.algebra import (
    LaurentPolynomial,
    TruncatedSeries,
    bar_substitute,
    brace,
    bracket,
    rewrite_in_difference,
    substitute_series,
    x_of_z,
)
from linkinv.diagram import BraidWord, braid_closure
from linkinv.skein import state_sum
from linkinv.transforms import (
    _CH,
    _pascal,
    _scaled_divide,
    decompose,
    omega_from_reduced,
    parity_vector,
    reconstruct,
    reduced_polynomial,
)

X = ("x",)


def lp(terms, variables=X):
    return LaurentPolynomial(variables, terms)


def test_difference_of_squares():
    x = LaurentPolynomial.gen(X, "x")
    assert (x - x ** -1) * (x + x ** -1) == lp({(2,): 1, (-2,): -1})


def test_additive_identity():
    f = lp({(3,): 2, (-1,): Fraction(1, 2)})
    assert f + LaurentPolynomial.zero(X) == f


def test_series_truncation_discards_high_degree():
    one_plus_z = TruncatedSeries(("z",), 1, {(0,): 1, (1,): 1})
    assert one_plus_z * one_plus_z == TruncatedSeries(("z",), 1, {(0,): 1, (1,): 2})


def test_variable_alignment_in_products():
    f = LaurentPolynomial.gen(("x1",), "x1")
    g = LaurentPolynomial.gen(("x2",), "x2")
    h = f * g
    assert h.variables == ("x1", "x2")
    assert h == LaurentPolynomial(("x1", "x2"), {(1, 1): 1})


def test_bar_substitute_single_monomial():
    x = LaurentPolynomial.gen(X, "x")
    assert bar_substitute(x) == lp({(-1,): -1})


def test_bar_substitute_fixes_difference():
    f = lp({(1,): 1, (-1,): -1})
    assert bar_substitute(f) == f


def test_bar_substitute_two_variables():
    f = LaurentPolynomial(("x", "y"), {(1, -1): 1})
    assert bar_substitute(f) == LaurentPolynomial(("x", "y"), {(-1, 1): 1})


def test_bar_is_involution():
    rng = random.Random(7)
    for _ in range(50):
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            exps = (rng.randrange(-4, 5), rng.randrange(-4, 5))
            terms[exps] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        f = LaurentPolynomial(("x", "y"), terms)
        assert bar_substitute(bar_substitute(f)) == f


def test_brace_and_bracket_basics():
    x = LaurentPolynomial.gen(X, "x")
    assert brace(x) == lp({(1,): 1, (-1,): -1})
    assert brace(LaurentPolynomial.one(X)) == lp({(0,): 2})
    assert bracket(lp({(1,): 1, (-1,): -1})) == LaurentPolynomial.zero(X)


def test_brace_bracket_symmetry_properties():
    rng = random.Random(11)
    for _ in range(50):
        terms = {(rng.randrange(-3, 4), rng.randrange(-3, 4)): rng.randrange(-5, 6)
                 for _ in range(4)}
        f = LaurentPolynomial(("x", "y"), terms)
        assert bar_substitute(brace(f)) == brace(f)
        assert bar_substitute(bracket(f)) == -bracket(f)


def test_series_invert_geometric():
    z = TruncatedSeries.gen(("z",), "z", 6)
    s = 1 + z * z
    inv = s.invert()
    assert inv == TruncatedSeries(("z",), 6, {(0,): 1, (2,): -1, (4,): 1, (6,): -1})
    assert s * inv == TruncatedSeries.one(("z",), 6)
    assert TruncatedSeries.one(("z",), 6).invert() == TruncatedSeries.one(("z",), 6)


def neumann_inverse(s):
    """The inverse as the alternating sum of powers of s/c0 - 1: the slower
    predecessor of TruncatedSeries.invert, kept as its oracle."""
    c0 = s.constant_term()
    u = (s * (Fraction(1) / c0)) - 1  # valuation >= 1
    out = TruncatedSeries.one(s.variables, s.cap)
    power = TruncatedSeries.one(s.variables, s.cap)
    for k in range(s.cap):
        power = power * u
        if power.is_zero:
            break
        out = out + (power if k % 2 == 1 else -power)
    return out * (Fraction(1) / c0)


def test_series_invert_random_round_trip():
    rng = random.Random(2024)
    for _ in range(1000):
        nvars = rng.randrange(1, 4)
        names = tuple(f"z{i+1}" for i in range(nvars))
        cap = rng.randrange(0, 13)
        terms = {(0,) * nvars: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))}
        for _ in range(rng.randrange(0, 5)):
            exps = tuple(rng.randrange(0, cap + 1) for _ in range(nvars))
            if sum(exps) == 0 or sum(exps) > cap:
                continue
            terms[exps] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        s = TruncatedSeries(names, cap, terms)
        inv = s.invert()
        assert inv == neumann_inverse(s)
        assert s * inv == TruncatedSeries.one(names, cap)
        assert inv * s == TruncatedSeries.one(names, cap)


def test_series_invert_rejects_zero_constant():
    z = TruncatedSeries.gen(("z",), "z", 3)
    with pytest.raises(ZeroDivisionError):
        z.invert()


def test_x_of_z_low_order_coefficients():
    x, xinv = x_of_z(2)
    assert x == TruncatedSeries(("z",), 2, {(0,): 1, (1,): Fraction(1, 2), (2,): Fraction(1, 8)})
    assert xinv == x - TruncatedSeries.gen(("z",), "z", 2)


def test_x_of_z_defining_equation():
    for cap in (0, 1, 5, 12):
        x, xinv = x_of_z(cap)
        z = TruncatedSeries.gen(("z",), "z", cap)
        assert x * xinv == TruncatedSeries.one(("z",), cap)
        assert x - xinv == z


def test_x_of_z_degree_four_term():
    # sqrt(1 + z^2/4) = 1 + z^2/8 - z^4/128 + ...
    x, _ = x_of_z(4)
    assert x.coefficient((4,)) == Fraction(-1, 128)
    assert x.coefficient((3,)) == 0


def test_x_of_four_y_is_odd_constant_plus_even_terms():
    x, _ = x_of_z(20)
    scaled = {}
    for (k,), c in x.terms.items():
        scaled[(k,)] = c * Fraction(4) ** k
    for (k,), c in scaled.items():
        assert c.denominator == 1
        if k == 0:
            assert c % 2 == 1
        else:
            assert c % 2 == 0


def test_substitute_series_with_inverses():
    # substitute x -> x(z) in x - x^-1 and get z back
    x, xinv = x_of_z(9)
    f = LaurentPolynomial(X, {(1,): 1, (-1,): -1})
    s = substitute_series(f, {"x": (x, xinv)}, 9)
    assert s == TruncatedSeries.gen(("z",), "z", 9)


def test_substitute_series_input_contract():
    z1, z2 = (TruncatedSeries.gen((v,), v, 4) for v in ("z1", "z2"))
    both = TruncatedSeries.gen(("z1", "z2"), "z1", 4)
    f = LaurentPolynomial(("a", "b"), {(1, 0): 1, (0, -1): 1})
    with pytest.raises(ValueError, match="exactly one variable"):
        substitute_series(f, {"a": (both, None), "b": (z2, z2)}, 4)
    with pytest.raises(ValueError, match="exactly one variable"):
        substitute_series(f, {"a": (z1, z2), "b": (z2, z2)}, 4)
    with pytest.raises(ValueError, match="share a variable"):
        substitute_series(f, {"a": (z1, None), "b": (z1, z1)}, 4)
    with pytest.raises(ValueError, match="negative power of b but no inverse image given"):
        substitute_series(f, {"a": (z1, None), "b": (z2, None)}, 4)
    with pytest.raises(ValueError, match="cap must be >= 0"):
        substitute_series(f, {"a": (z1, None), "b": (z2, z2)}, -1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.dictionaries(st.tuples(*[st.integers(-2, 2)] * 3), st.integers(-5, 5), max_size=6),
       st.integers(0, 6), st.lists(st.integers(0, 6), min_size=6, max_size=6),
       st.lists(st.fractions(-2, 2, max_denominator=3), min_size=8, max_size=8))
def test_substitute_series_matches_monomial_oracle(terms, cap, caps, coeffs):
    # images of any caps, rational coefficients and any constant term
    f = LaurentPolynomial(("a", "b", "c"), terms)
    images = {}
    for i, (v, z) in enumerate(zip(f.variables, ("z3", "z1", "z2"))):
        value = TruncatedSeries((z,), caps[2 * i], {(0,): 1, (1,): coeffs[i], (2,): coeffs[3 + i]})
        images[v] = (value, (value * TruncatedSeries((z,), caps[2 * i + 1], {(1,): coeffs[6]})
                             + coeffs[7]))
    got = substitute_series(f, images, cap)
    want = monomial_substitute_series(f, images, cap)
    assert (got.variables, got.cap) == (want.variables, want.cap)
    assert got.terms == want.terms


def test_rewrite_in_difference():
    x = LaurentPolynomial.gen(X, "x")
    f = (x - x ** -1) ** 3 + 2 * (x - x ** -1)
    assert rewrite_in_difference(f) == LaurentPolynomial(("z",), {(3,): 1, (1,): 2})
    with pytest.raises(ArithmeticError):
        rewrite_in_difference(x + x ** -1)
    with pytest.raises(ArithmeticError):
        rewrite_in_difference(x + 2 * x ** -1)
    assert rewrite_in_difference(LaurentPolynomial.zero(X)) == LaurentPolynomial.zero(("z",))
    rng = random.Random(7)
    for _ in range(50):
        coeffs = {(k,): rng.choice([-3, -1, 0, 2, Fraction(1, 2)]) for k in range(rng.randint(0, 8))}
        f = sum((c * (x - x ** -1) ** k for (k,), c in coeffs.items()), LaurentPolynomial.zero(X))
        assert rewrite_in_difference(f) == LaurentPolynomial(("z",), coeffs)


def test_rewrite_in_difference_matches_polynomial_oracle():
    # the one-color state sums of T(2,n), whose rewrites are the Conway
    # polynomials, one input with Fraction coefficients, and two inputs
    # with no rewrite
    x = LaurentPolynomial.gen(X, "x")
    tori = [braid_closure(BraidWord(2, [1] * n)) for n in (20, 150, 300)]
    inputs = [state_sum(d, (1,) * d.m) for d in tori]
    inputs.append(Fraction(3, 4) * (x - x ** -1) ** 7 - Fraction(5, 3) * (x - x ** -1) ** 2 + 2)
    for f in inputs:
        assert rewrite_in_difference(f, "w") == polynomial_rewrite_in_difference(f, "w")
    for f in (x + x ** -1, x + 2 * x ** -1):
        for rewrite in (rewrite_in_difference, polynomial_rewrite_in_difference):
            with pytest.raises(ArithmeticError):
                rewrite(f)


def test_render_canonical_order():
    f = lp({(2,): 1, (-2,): -1, (0,): Fraction(1, 2)})
    assert f.render() == "-x^-2 + 1/2 + x^2"
    assert LaurentPolynomial.zero(X).render() == "0"


def test_pow_negative_monomial():
    xy = LaurentPolynomial(("x", "y"), {(1, -2): Fraction(2, 3)})
    assert xy ** -2 == LaurentPolynomial(("x", "y"), {(-2, 4): Fraction(9, 4)})


@pytest.mark.parametrize("make, const", [
    (LaurentPolynomial, LaurentPolynomial.constant),
    (lambda v, terms: TruncatedSeries(v, 4, terms), lambda v, c: TruncatedSeries.constant(v, 4, c)),
], ids=["laurent", "series"])
def test_constructor_and_operator_errors_are_pinned(make, const):
    name = type(make(X, {})).__name__
    with pytest.raises(ValueError, match=r"^exponent vector length mismatch$"):
        make(X, {(1, 2): 1})
    with pytest.raises(TypeError, match=r"^exact rational coefficient expected, got float$"):
        make(X, {(1,): 1.5})
    # the checks run in order: the coefficient's type, then a zero, then the length
    with pytest.raises(TypeError, match="got float"):
        make(X, {(1, 2): 0.0})
    assert make(X, {(1, 2): 0}).is_zero
    x = make(X, {(1,): 1})
    with pytest.raises(AttributeError, match=rf"^{name} is immutable$"):
        x.terms = {}
    with pytest.raises(ValueError, match=r"^cannot embed: target misses some variables$"):
        x.embed(("y",))
    for diff, expected in ((x - 1, x + const(X, -1)), (1 - x, const(X, 1) + (-x)),
                           (x - Fraction(1, 2), x + const(X, Fraction(-1, 2)))):
        assert type(diff) is type(x) and diff == expected and diff.terms == expected.terms


def test_equal_polynomials_hash_equal():
    # __eq__ aligns variable lists and lifts numbers, so hashing must too
    x = LaurentPolynomial.gen(("x",), "x")
    xy = LaurentPolynomial.gen(("x", "y"), "x")
    yx = LaurentPolynomial(("y", "x"), {(0, 1): 1, (1, -1): Fraction(1, 2)})
    pairs = [
        (x, xy),
        (LaurentPolynomial(("x", "y"), {(1, 0): 1, (-1, 1): Fraction(1, 2)}), yx),
        (LaurentPolynomial.constant(("x",), 3), 3),
        (LaurentPolynomial.constant(("x", "y"), Fraction(3, 2)), Fraction(3, 2)),
        (LaurentPolynomial.zero(("x",)), 0),
        (LaurentPolynomial.zero(("x",)), LaurentPolynomial.zero(("y", "z"))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b), (a, b)
    assert len({x, xy, x * LaurentPolynomial.one(("y", "x"))}) == 1
    assert x != LaurentPolynomial.gen(("y",), "y")


def test_series_only_errors_are_pinned():
    with pytest.raises(ValueError, match=r"^cap must be >= 0$"):
        TruncatedSeries(X, -1)
    with pytest.raises(ValueError, match=r"^negative exponent in a power series$"):
        TruncatedSeries(("x", "y"), 1, {(3, -1): 1})  # above the cap, still refused
    with pytest.raises(ValueError, match=r"^exponent vector length mismatch$"):
        TruncatedSeries(X, 1, {(-1, 0): 1})  # the length is checked before the sign
    assert TruncatedSeries(X, 1, {(-1,): 0}).is_zero


def test_negative_power_of_a_laurent_non_monomial_is_refused():
    with pytest.raises(ValueError, match=r"^negative power of a non-monomial Laurent polynomial$"):
        lp({(1,): 1, (0,): 1}) ** -1


# -- exactness oracle: naive dict-of-Fraction arithmetic ----------------------
#
# A reference value maps a sorted tuple of (variable, nonzero exponent) pairs
# to a nonzero Fraction, so operands over different variables need no
# alignment.

def ref_terms(p):
    return {tuple((v, e) for v, e in zip(p.variables, exps) if e): Fraction(c)
            for exps, c in p.terms.items()}


def ref_add(a, b, cap=None):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, Fraction(0)) + c
    return {k: c for k, c in out.items() if c and (cap is None or sum(e for _, e in k) <= cap)}


def ref_mul(a, b, cap=None):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            exps = dict(ka)
            for v, e in kb:
                exps[v] = exps.get(v, 0) + e
            k = tuple(sorted((v, e) for v, e in exps.items() if e))
            out[k] = out.get(k, Fraction(0)) + ca * cb
    return ref_add(out, {}, cap)


def ref_pow(a, n, cap=None):
    out = {(): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a, cap)
    return out


def assert_matches(got, want):
    """`got` equals the reference value, hashes and renders like it, and
    stores every integral coefficient as int and no float."""
    for c in got.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)
    assert ref_terms(got) == want
    dense = {tuple(dict(k).get(v, 0) for v in got.variables): c for k, c in want.items()}
    if isinstance(got, TruncatedSeries):
        twin = TruncatedSeries(got.variables, got.cap, dense)
    else:
        twin = LaurentPolynomial(got.variables, dense)
        assert hash(got) == hash(twin)
    assert got == twin
    assert got.render() == twin.render()


coeffs = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4))
variable_lists = st.sampled_from((("x",), ("y",), ("x", "y")))


@st.composite
def laurents(draw):
    variables = draw(variable_lists)
    exps = st.tuples(*[st.integers(-3, 3)] * len(variables))
    return LaurentPolynomial(variables, draw(st.dictionaries(exps, coeffs, max_size=4)))


@st.composite
def series(draw):
    variables = draw(variable_lists)
    exps = st.tuples(*[st.integers(0, 3)] * len(variables))
    return TruncatedSeries(variables, draw(st.integers(0, 5)),
                           draw(st.dictionaries(exps, coeffs, max_size=4)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(laurents(), laurents(), coeffs, st.integers(0, 3))
def test_laurent_arithmetic_matches_fraction_oracle(f, g, c, n):
    a, b = ref_terms(f), ref_terms(g)
    assert_matches(f, a)
    assert_matches(f + g, ref_add(a, b))
    assert_matches(f - g, ref_add(a, ref_mul(b, {(): Fraction(-1)})))
    assert_matches(-f, ref_mul(a, {(): Fraction(-1)}))
    assert_matches(f * g, ref_mul(a, b))
    assert_matches(f * c, ref_mul(a, {(): Fraction(c)} if c else {}))
    assert_matches(f + c, ref_add(a, {(): Fraction(c)} if c else {}))
    assert_matches(f ** n, ref_pow(a, n))
    if len(f.terms) == 1 and n:
        (k, v), = a.items()
        assert_matches(f ** -n, {tuple((x, -n * e) for x, e in k): v ** -n})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(series(), series(), coeffs, st.integers(0, 3))
def test_series_arithmetic_matches_fraction_oracle(f, g, c, n):
    a, b = ref_terms(f), ref_terms(g)
    cap = min(f.cap, g.cap)
    assert_matches(f, a)
    assert_matches(f + g, ref_add(a, b, cap))
    assert_matches(f - g, ref_add(a, ref_mul(b, {(): Fraction(-1)}), cap))
    assert_matches(-f, ref_mul(a, {(): Fraction(-1)}))
    assert_matches(f * g, ref_mul(a, b, cap))
    assert_matches(f * c, ref_mul(a, {(): Fraction(c)} if c else {}))
    assert_matches(f ** n, ref_pow(a, n, f.cap))
    if f.constant_term():
        inv = f.invert()
        assert_matches(inv, ref_terms(inv))
        assert_matches(f * inv, {(): Fraction(1)})


def _over_ch(f):
    """f as a series over (a, h), reading x as a and y as h."""
    return TruncatedSeries(_CH, f.cap, f.embed(("x", "y")).terms)


def _to_rows(f):
    """The dense scaled form: coefficient * 2^(i+n) * i! * n! at rows[i][n]."""
    return [[f.terms.get((i, n), 0) * (factorial(i) * factorial(n) << (i + n))
             for n in range(f.cap + 1 - i)] for i in range(f.cap + 1)]


def _from_rows(rows, cap):
    """The series of the dense scaled form."""
    return TruncatedSeries(_CH, cap, {(i, n): Fraction(c, factorial(i) * factorial(n) << (i + n))
                                      for i, row in enumerate(rows) for n, c in enumerate(row)})


def _divide(f, g):
    cap = min(f.cap, g.cap)
    return _scaled_divide(_to_rows(truncate(f, cap)), _to_rows(truncate(g, cap)), cap, _pascal(cap))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(series(), series())
def test_scaled_product_and_inverse_match_the_series_kernel(f, g):
    f, g = _over_ch(f), _over_ch(g)
    assert _from_rows(_to_rows(f), f.cap) == f
    if g.constant_term():
        fg = f * g
        assert _from_rows(_divide(fg, g), fg.cap) == truncate(f, fg.cap)
    if f.constant_term():
        assert _from_rows(_divide(TruncatedSeries.one(_CH, f.cap), f), f.cap) == f.invert()


@pytest.mark.parametrize("c0", [1, -1, 2, -3, Fraction(2, 3)])
def test_scaled_inverse_of_a_non_unit_constant_is_exact(c0):
    f = TruncatedSeries(_CH, 5, {(0, 0): c0, (1, 0): 1, (0, 1): -2, (1, 1): 3,
                                  (0, 3): 5})
    inv = _divide(TruncatedSeries.one(_CH, 5), f)
    assert _from_rows(inv, 5) == f.invert()
    assert all(type(c) is int for row in inv for c in row) == (c0 in (1, -1))


def test_scaled_division_by_one_returns_the_numerator():
    f = TruncatedSeries(_CH, 4, {(0, 0): 3, (1, 2): -1, (2, 0): 7})
    rows = _to_rows(f)
    assert _scaled_divide(rows, _to_rows(TruncatedSeries.one(_CH, 4)), 4, _pascal(4)) == rows


def test_negative_power_of_an_integral_monomial_is_exact():
    x = LaurentPolynomial.gen(X, "x")
    inv = (2 * x) ** -1
    assert inv.coefficient((-1,)) == Fraction(1, 2)
    assert type(inv.coefficient((-1,))) is Fraction


def test_monomial_products_and_powers_by_exponent_shifts():
    """A one-term operand shifts the other's exponents; coefficients come
    out as the double loop leaves them, an integral `Fraction` as int."""
    x = LaurentPolynomial.gen(X, "x")
    f = lp({(2,): 3, (0,): Fraction(1, 6), (-1,): -4})
    half = LaurentPolynomial.monomial(X, (-1,), Fraction(1, 2))
    for got in (half * f, f * half):
        assert got.terms == {(1,): Fraction(3, 2), (-1,): Fraction(1, 12), (-2,): -2}
        assert type(got.terms[(-2,)]) is int
    assert (Fraction(2, 3) * x) * lp({(0,): Fraction(3, 2)}) == x
    assert type(((Fraction(2, 3) * x) * lp({(0,): Fraction(3, 2)})).terms[(1,)]) is int
    assert (-x) ** -3 == lp({(-3,): -1}) and type(((-x) ** -3).terms[(-3,)]) is int
    assert ((-x) ** -2).terms == {(-2,): 1}
    assert ((2 * x) ** -1).terms == {(-1,): Fraction(1, 2)}
    assert ((Fraction(1, 2) * x) ** -2).terms == {(-2,): 4}
    assert type(((Fraction(1, 2) * x) ** 0).terms[(0,)]) is int
    assert (x * LaurentPolynomial.zero(X)).is_zero and (LaurentPolynomial.zero(X) * x).is_zero
    y = LaurentPolynomial.gen(("y",), "y")
    got = (2 * y ** -1) * lp({(1,): 1, (0,): -1})
    assert got.variables == ("x", "y")
    assert got.terms == {(1, -1): 2, (0, -1): -2}
    assert got == (lp({(1,): 1, (0,): -1}) * (2 * y ** -1))


def test_invert_with_constant_term_two_is_exact():
    s = TruncatedSeries(("z",), 4, {(0,): 2, (1,): 1})
    inv = s.invert()
    assert inv == TruncatedSeries(("z",), 4, {(k,): Fraction((-1) ** k, 2 ** (k + 1))
                                                for k in range(5)})
    assert all(type(c) is Fraction for c in inv.terms.values())
    assert s * inv == TruncatedSeries.one(("z",), 4)


def test_decompose_halves_exactly():
    xs = ("x1", "x2", "x3")
    odd_constant = LaurentPolynomial(xs[:2], {(0, 0): 3})
    dec = decompose(odd_constant)
    assert dec.parts == {frozenset(): LaurentPolynomial(("z1", "z2"), {(0, 0): Fraction(3, 2)})}
    # an odd index set: its parts come from the halved brace monomials
    f = brace(LaurentPolynomial.monomial(xs, (1, -1, 1), 3))
    dec = decompose(f)
    assert reconstruct(dec) == f
    coefficients = [c for poly in dec.parts.values() for c in poly.terms.values()]
    assert any(type(c) is Fraction for c in coefficients)
    assert all(type(c) is int or c.denominator == 2 for c in coefficients)


def test_omega_from_reduced_round_trips_exactly():
    for word, colors in (([1, 1], (1, 2)), ([1, -2] * 3, (1, 2, 3)),
                         ([1, 1, 1, 1], (1, 2))):
        d = braid_closure(BraidWord(max(map(abs, word)) + 1, word), colors=colors)
        om = potential_function(d).numerator
        back = omega_from_reduced(reduced_polynomial(decompose(om)), parity_vector(d))
        assert back == om
        assert all(type(c) is int for c in back.terms.values())
