"""Series and decomposition layer for the potential function.

Contains the substitution turning the potential function into a power
series in z_i = x_i - x_i^-1, the unique decomposition of a bar-invariant
Laurent polynomial over brace monomials, the reduced polynomial obtained
by doubling the sum of the decomposition parts, the starred quotients by
the component Conway polynomials, the two-variable expansion in
y_i = x_i^2 - 1, and the exponential expansions of the HOMFLY and
Dubrovnik/Kauffman polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .algebra import (
    LaurentPolynomial,
    TruncatedSeries,
    bar_substitute,
    brace,
    rewrite_in_difference,
    substitute_series,
    x_of_z,
)
from .alexander import PotentialFunction, potential_function
from .diagram import LinkDiagram
from .skein import conway, homfly, kauffman_f

DEFAULT_CAP = 12


def zvars(n: int) -> tuple[str, ...]:
    return tuple(f"z{i}" for i in range(1, n + 1))


def parity_vector(d: LinkDiagram) -> tuple[int, ...]:
    """Per color: (number of components of that color + total linking with
    other colors) mod 2; the degree parity of the potential function."""
    lm = d.linking_matrix()
    out = []
    for color in range(1, d.n_colors + 1):
        k = sum(1 for c in d.colors if c == color)
        l = sum(lm[a][b] for a in range(d.m) for b in range(d.m)
                if d.colors[a] == color and d.colors[b] != color)
        out.append((k + l) % 2)
    return tuple(out)


@dataclass(frozen=True)
class SeriesWithPole:
    """A truncated series together with a pole order in its variable;
    the value is series / z^pole_order."""

    series: TruncatedSeries
    pole_order: int = 0


def component_conways(d: LinkDiagram):
    """Conway polynomials of the individual components, with their colors."""
    return [(conway(d.component(j)), d.colors[j]) for j in range(d.m)]


def potential_series(om: PotentialFunction, cap: int = DEFAULT_CAP,
                     root: str = "plus") -> SeriesWithPole:
    """Expand the potential function as a series in z_i = x_i - x_i^-1.

    For knots the value has a simple pole in z; it is returned as the
    numerator series with pole_order 1.  The result does not depend on
    which root of x - x^-1 = z is substituted (`root` selects one for the
    property test).
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if om.pole:
        nabla = rewrite_in_difference(om.numerator.rename_variables({"x1": "x"}))
        series = TruncatedSeries.from_laurent(
            nabla.rename_variables({"z": "z1"}), cap)
        return SeriesWithPole(series, 1)
    n = len(om.variables)
    images = {}
    for i, v in enumerate(om.variables):
        zi = f"z{i + 1}"
        x, xinv = x_of_z(cap, var=zi)
        if root == "plus":
            images[v] = (x, xinv)
        else:
            z = TruncatedSeries.gen((zi,), zi, cap)
            images[v] = (z - x, -x)
    series = substitute_series(om.numerator, images, cap)
    return SeriesWithPole(series.embed(zvars(n)), 0)


# -- decomposition over brace monomials --------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """Parts of the unique expansion of a bar-invariant Laurent polynomial
    over brace monomials of even alternating index sets; coefficients lie
    in (1/2)Z."""

    n: int
    parts: dict  # frozenset -> LaurentPolynomial in z1..zn


def _alt_vector(subset, n):
    vec = [0] * n
    for pos, idx in enumerate(sorted(subset)):
        vec[idx - 1] = 1 if pos % 2 == 0 else -1
    return tuple(vec)


def decompose(om) -> Decomposition:
    """Decompose a bar-invariant Laurent polynomial (or the numerator of a
    link potential function) over brace monomials.

    Deterministic reduction: exponents are pushed into {-1,0,1}, sign
    patterns normalized to alternation along increasing index, and odd
    index sets eliminated into half-integer contributions.
    """
    f = om.numerator if isinstance(om, PotentialFunction) else om
    if isinstance(om, PotentialFunction) and om.pole:
        raise ValueError("decomposition needs a link potential (no pole)")
    if bar_substitute(f) != f:
        raise ValueError("input is not bar-invariant")
    n = len(f.variables)
    zv = zvars(n)
    zero = (0,) * n

    items = []
    remaining = dict(f.terms)
    while remaining:
        p = max(remaining)
        coeff = remaining.pop(p)
        if coeff == 0:
            continue
        if p == zero:
            items.append((coeff / 2, zero, zero))
            continue
        items.append((coeff, p, zero))
        q = tuple(-e for e in p)
        mirror = coeff if sum(p) % 2 == 0 else -coeff
        left = remaining.get(q, Fraction(0)) - mirror
        if left:
            remaining[q] = left
        else:
            remaining.pop(q, None)

    parts: dict = {}

    def deposit(subset, zm, coeff):
        key = frozenset(subset)
        bucket = parts.setdefault(key, {})
        bucket[zm] = bucket.get(zm, Fraction(0)) + coeff

    stack = list(items)
    while stack:
        coeff, p, zm = stack.pop()
        if coeff == 0:
            continue
        big = next((i for i, e in enumerate(p) if abs(e) >= 2), None)
        if big is not None:
            e = p[big]
            bump = tuple(zm[k] + (1 if k == big else 0) for k in range(n))
            if e >= 2:
                stack.append((coeff, tuple(p[k] - (2 if k == big else 0) for k in range(n)), zm))
                stack.append((coeff, tuple(p[k] - (1 if k == big else 0) for k in range(n)), bump))
            else:
                stack.append((coeff, tuple(p[k] + (2 if k == big else 0) for k in range(n)), zm))
                stack.append((-coeff, tuple(p[k] + (1 if k == big else 0) for k in range(n)), bump))
            continue
        support = [i + 1 for i, e in enumerate(p) if e != 0]
        desired = _alt_vector(support, n)
        mismatch = next((i for i in support if p[i - 1] != desired[i - 1]), None)
        if mismatch is not None:
            i = mismatch - 1
            bump = tuple(zm[k] + (1 if k == i else 0) for k in range(n))
            if p[i] == -1:
                stack.append((coeff, tuple(p[k] + (2 if k == i else 0) for k in range(n)), zm))
                stack.append((-coeff, tuple(p[k] + (1 if k == i else 0) for k in range(n)), bump))
            else:
                stack.append((coeff, tuple(p[k] - (2 if k == i else 0) for k in range(n)), zm))
                stack.append((coeff, tuple(p[k] - (1 if k == i else 0) for k in range(n)), bump))
            continue
        if len(support) % 2 == 0:
            deposit(support, zm, coeff)
        else:
            for j, idx in enumerate(sorted(support)):
                rest = [s for s in support if s != idx]
                sign = 1 if j % 2 == 0 else -1
                bump = tuple(zm[k] + (1 if k == idx - 1 else 0) for k in range(n))
                stack.append((sign * coeff / 2, _alt_vector(rest, n), bump))

    out = {}
    for subset, bucket in parts.items():
        poly = LaurentPolynomial(zv, bucket)
        for c in poly.terms.values():
            if c.denominator not in (1, 2):
                raise ArithmeticError("decomposition part outside (1/2)Z")
        if poly:
            out[subset] = poly
    return Decomposition(n, out)


def reconstruct(dec: Decomposition) -> LaurentPolynomial:
    """Sum over parts of brace(alternating monomial) times the part with
    z_i replaced by x_i - x_i^-1."""
    n = dec.n
    xs = tuple(f"x{i}" for i in range(1, n + 1))
    diffs = []
    for i in range(n):
        g = LaurentPolynomial.gen(xs, xs[i])
        diffs.append(g - g ** -1)
    total = LaurentPolynomial.zero(xs)
    for subset, poly in dec.parts.items():
        u = LaurentPolynomial.monomial(xs, _alt_vector(subset, n), 1)
        front = brace(u)
        body = LaurentPolynomial.zero(xs)
        for exps, coeff in poly.terms.items():
            term = LaurentPolynomial.constant(xs, coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * diffs[i] ** e
            body = body + term
        total = total + front * body
    return total


def reduced_polynomial(dec: Decomposition) -> LaurentPolynomial:
    """Twice the sum of all decomposition parts; integer coefficients."""
    total = LaurentPolynomial.zero(zvars(dec.n))
    for poly in dec.parts.values():
        total = total + poly
    total = 2 * total
    for c in total.terms.values():
        if c.denominator != 1:
            raise ArithmeticError("reduced polynomial is not integral")
    return total


def omega_from_reduced(nbl: LaurentPolynomial, parities) -> LaurentPolynomial:
    """Rebuild the potential function from the reduced polynomial.

    Each term is routed to its unique part by the parity signature of its
    exponent vector: coordinate i disagrees with the declared parity
    exactly when i belongs to the part's index set.
    """
    n = len(parities)
    parts: dict = {}
    for exps, coeff in nbl.terms.items():
        subset = frozenset(i + 1 for i in range(n) if exps[i] % 2 != parities[i] % 2)
        if len(subset) % 2:
            raise ValueError("term parity signature matches no even index set")
        bucket = parts.setdefault(subset, {})
        bucket[exps] = coeff / 2
    dec = Decomposition(n, {s: LaurentPolynomial(zvars(n), b) for s, b in parts.items()})
    return reconstruct(dec)


# -- starred quotients --------------------------------------------------------


def starred(numerator, d: LinkDiagram, cap: int = DEFAULT_CAP) -> TruncatedSeries:
    """Divide by the product of the component Conway polynomials.

    With a one-variable numerator in z the denominators stay in z; with a
    multivariate numerator each component's polynomial lands in the z
    variable of its color.
    """
    if isinstance(numerator, LaurentPolynomial):
        numerator = TruncatedSeries.from_laurent(numerator, cap)
    numerator = numerator.truncate(cap)
    multivariate = numerator.variables != ("z",)
    denom = TruncatedSeries.one(numerator.variables, cap)
    for nabla, color in component_conways(d):
        if multivariate:
            nabla = nabla.rename_variables({"z": f"z{color}"})
        series = TruncatedSeries.from_laurent(nabla, cap)
        denom = denom * series.embed(denom.variables)
    return numerator * denom.invert()


def conway_quotient(d: LinkDiagram, cap: int = DEFAULT_CAP) -> TruncatedSeries:
    return starred(conway(d), d, cap)


def potential_series_quotient(d: LinkDiagram, cap: int = DEFAULT_CAP) -> TruncatedSeries:
    om = potential_function(d)
    sp = potential_series(om, cap)
    if sp.pole_order:
        raise ValueError("quotient series is defined for links, not knots")
    return starred(sp.series, d, cap)


def reduced_quotient(d: LinkDiagram, cap: int = DEFAULT_CAP) -> TruncatedSeries:
    om = potential_function(d)
    nbl = reduced_polynomial(decompose(om))
    out = starred(nbl, d, cap)
    for c in out.terms.values():
        if c.denominator != 1:
            raise ArithmeticError("reduced quotient is not integral")
    return out


# -- coefficient tables -------------------------------------------------------


@dataclass(frozen=True)
class CoefficientTable:
    """Exact coefficients read off one of the series, tagged with which
    series they came from so downstream consumers can refuse misuse."""

    entries: dict
    provenance: str
    cap: int

    def get(self, *idx) -> Fraction:
        return self.entries.get(tuple(idx), Fraction(0))


def table_from_series(series: TruncatedSeries, provenance: str) -> CoefficientTable:
    return CoefficientTable(dict(series.terms), provenance, series.cap)


def traldi_expand(om: PotentialFunction, cap: int = DEFAULT_CAP) -> CoefficientTable:
    """Expand (x1*x2)^(-lam) * potential in y_i = x_i^2 - 1 for a 2-color
    potential; lam in {0,1} is forced by the degree parity and the entries
    are integers."""
    if len(om.variables) != 2 or om.pole:
        raise ValueError("two-variable link potential required")
    if om.is_zero:
        return CoefficientTable({}, "traldi", cap)
    exps = next(iter(om.numerator.terms))
    lam = abs(exps[0]) % 2
    shift = LaurentPolynomial.monomial(om.variables, (-lam, -lam), 1)
    f = shift * om.numerator
    tpoly = {}
    for e, c in f.terms.items():
        if e[0] % 2 or e[1] % 2:
            raise ArithmeticError("degree parity violated in two-variable expansion")
        tpoly[(e[0] // 2, e[1] // 2)] = c
    f2 = LaurentPolynomial(("t1", "t2"), tpoly)
    images = {}
    for i, t in enumerate(("t1", "t2")):
        yi = f"y{i + 1}"
        one_plus = TruncatedSeries(
            (yi,), cap, {(0,): 1, (1,): 1})
        images[t] = (one_plus, one_plus.invert())
    series = substitute_series(f2, images, cap)
    for c in series.terms.values():
        if c.denominator != 1:
            raise ArithmeticError("two-variable expansion is not integral")
    return CoefficientTable(dict(series.terms), "traldi", cap)


# -- exponential expansions ---------------------------------------------------

_BIG = 10 ** 9


class CHSeries:
    """Laurent series in h whose coefficients are polynomials in c, exact
    through orders below `prec`."""

    __slots__ = ("terms", "prec")

    def __init__(self, terms, prec):
        clean: dict = {}
        for (he, ce), co in terms.items():
            if co and he < prec:
                clean[(he, ce)] = co
        self.terms = clean
        self.prec = prec

    @classmethod
    def constant(cls, value, prec):
        return cls({(0, 0): Fraction(value)}, prec)

    @property
    def val(self):
        if not self.terms:
            return _BIG
        return min(h for h, _ in self.terms)

    def __add__(self, other):
        prec = min(self.prec, other.prec)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return CHSeries(out, prec)

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CHSeries({k: v * other for k, v in self.terms.items()}, self.prec)
        prec = min(self.prec + other.val, other.prec + self.val, _BIG)
        out: dict = {}
        for (h1, c1), v1 in self.terms.items():
            for (h2, c2), v2 in other.terms.items():
                if h1 + h2 >= prec:
                    continue
                key = (h1 + h2, c1 + c2)
                out[key] = out.get(key, Fraction(0)) + v1 * v2
        return CHSeries(out, prec)

    __rmul__ = __mul__

    def shift(self, k):
        return CHSeries({(h + k, c): v for (h, c), v in self.terms.items()},
                        min(self.prec + k, _BIG))

    def power(self, n):
        out = CHSeries.constant(1, _BIG)
        base = self
        if n < 0:
            base = base.invert()
            n = -n
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def invert(self):
        if self.val != 0:
            raise ZeroDivisionError("inverse needs valuation 0")
        head = {c: v for (h, c), v in self.terms.items() if h == 0}
        if set(head) != {0}:
            raise ZeroDivisionError("leading coefficient must be a rational constant")
        q = head[0]
        by_h: dict = {}
        for (h, c), v in self.terms.items():
            by_h.setdefault(h, {})[c] = v
        inv_by_h = {0: {0: Fraction(1) / q}}
        prec = self.prec if self.prec < _BIG else 1
        for k in range(1, prec):
            acc: dict = {}
            for j in range(1, k + 1):
                a = by_h.get(j)
                if not a:
                    continue
                b = inv_by_h.get(k - j)
                if not b:
                    continue
                for ca, va in a.items():
                    for cb, vb in b.items():
                        acc[ca + cb] = acc.get(ca + cb, Fraction(0)) + va * vb
            inv_by_h[k] = {c: -v / q for c, v in acc.items() if v}
        out = {}
        for h, bucket in inv_by_h.items():
            for c, v in bucket.items():
                if v:
                    out[(h, c)] = v
        return CHSeries(out, self.prec)

    def coefficient(self, h, c) -> Fraction:
        return self.terms.get((h, c), Fraction(0))

    def equal_to_order(self, other, order) -> bool:
        if self.prec <= order or other.prec <= order:
            raise ValueError("series not computed to the requested order")
        a = {k: v for k, v in self.terms.items() if k[0] <= order}
        b = {k: v for k, v in other.terms.items() if k[0] <= order}
        return a == b


def _exp_linear(k: int, shift: int, prec: int) -> CHSeries:
    """exp(k*(c + shift)*h/2) as a CHSeries exact through orders < prec."""
    terms = {}
    fact = Fraction(1)
    for j in range(prec):
        if j:
            fact /= j
        scale = Fraction(k, 2) ** j * fact
        if scale == 0 and j > 0:
            continue
        for i in range(j + 1):
            c = scale * comb(j, i) * Fraction(shift) ** (j - i)
            if c:
                terms[(j, i)] = terms.get((j, i), Fraction(0)) + c
    return CHSeries(terms, prec)


def _sinh_double(prec: int) -> CHSeries:
    """e^(h/2) - e^(-h/2) exact through orders < prec."""
    terms = {}
    fact = Fraction(1)
    for j in range(prec):
        if j:
            fact /= j
        if j % 2 == 1:
            terms[(j, 0)] = 2 * Fraction(1, 2) ** j * fact
    return CHSeries(terms, prec)


def substitute_exponential(f: LaurentPolynomial, shift: int, cap: int) -> CHSeries:
    """Substitute x -> e^((c+shift)h/2), y -> e^(h/2) - e^(-h/2) into a
    Laurent polynomial in (x, y); the result must be a genuine power
    series in h (the poles contributed by negative powers of y cancel)."""
    if f.is_zero:
        return CHSeries({}, cap + 1)
    xi = f.variables.index("x")
    yi = f.variables.index("y")
    ymin = min(e[yi] for e in f.terms)
    pad = max(0, -ymin)
    prec = cap + 1 + pad
    u = _sinh_double(prec + 1)
    s_unit = u.shift(-1)  # u / h, a unit
    s_inv = s_unit.invert()
    out = CHSeries({}, prec)
    xcache: dict = {}
    ycache: dict = {}
    for exps, coeff in f.terms.items():
        kx, ky = exps[xi], exps[yi]
        if kx not in xcache:
            xcache[kx] = _exp_linear(kx, shift, prec)
        if ky not in ycache:
            if ky >= 0:
                ycache[ky] = u.power(ky)
            else:
                ycache[ky] = s_inv.power(-ky).shift(ky)
        out = out + (xcache[kx] * ycache[ky]) * coeff
    if out.val < 0:
        raise ArithmeticError("negative powers of h did not cancel")
    if out.prec <= cap:
        raise ArithmeticError("internal precision bookkeeping failed")
    return CHSeries(out.terms, cap + 1)


def exp_expand_homfly(h_poly: LaurentPolynomial, cap: int = DEFAULT_CAP) -> CoefficientTable:
    s = substitute_exponential(h_poly, 0, cap)
    return CoefficientTable(dict(s.terms), "homfly-exp", cap)


def exp_expand_kauffman(f_poly: LaurentPolynomial, cap: int = DEFAULT_CAP) -> CoefficientTable:
    s = substitute_exponential(f_poly, -1, cap)
    return CoefficientTable(dict(s.terms), "kauffman-exp", cap)


def _exp_quotient(d: LinkDiagram, poly, shift: int, cap: int) -> CHSeries:
    out = substitute_exponential(poly(d), shift, cap)
    for j in range(d.m):
        out = out * substitute_exponential(poly(d.component(j)), shift, cap).invert()
    return out


def homfly_exp_quotient(d: LinkDiagram, cap: int = DEFAULT_CAP) -> CHSeries:
    """H of the link over the product of the component H's, after the
    exponential substitution (the division happens in the h-adic ring)."""
    return _exp_quotient(d, homfly, 0, cap)


def kauffman_exp_quotient(d: LinkDiagram, cap: int = DEFAULT_CAP) -> CHSeries:
    """The same quotient for the Dubrovnik version F of the Kauffman polynomial."""
    return _exp_quotient(d, kauffman_f, -1, cap)
