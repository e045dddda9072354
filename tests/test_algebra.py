import random
from fractions import Fraction

import pytest

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


def test_rewrite_in_difference():
    x = LaurentPolynomial.gen(X, "x")
    f = (x - x ** -1) ** 3 + 2 * (x - x ** -1)
    assert rewrite_in_difference(f) == LaurentPolynomial(("z",), {(3,): 1, (1,): 2})
    with pytest.raises(ArithmeticError):
        rewrite_in_difference(x + x ** -1)


def test_render_canonical_order():
    f = lp({(2,): 1, (-2,): -1, (0,): Fraction(1, 2)})
    assert f.render() == "-x^-2 + 1/2 + x^2"
    assert LaurentPolynomial.zero(X).render() == "0"


def test_pow_negative_monomial():
    xy = LaurentPolynomial(("x", "y"), {(1, -2): Fraction(2, 3)})
    assert xy ** -2 == LaurentPolynomial(("x", "y"), {(-2, 4): Fraction(9, 4)})
