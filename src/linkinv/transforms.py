"""Series and decomposition layer for the potential function.

Contains the substitution turning the potential function into a power
series in z_i = x_i - x_i^-1, the unique decomposition of a bar-invariant
Laurent polynomial over brace monomials, the reduced polynomial obtained
by doubling the sum of the decomposition parts, the starred quotients by
the component Conway polynomials, the two-variable expansion in
y_i = x_i^2 - 1, and the exponential expansions of the HOMFLY and
Dubrovnik/Kauffman polynomials.  Every series returned here is a
TruncatedSeries; Q[c][[h]] is held over (a, h) with a = c*h.  Every
starred quotient is computed in `_conway_quotient` or `_link_quotients`,
whose two quotients share one starred inverse, and every exponential
table in `_exp_table`.

The z-expansion computes on integers.  With z = 4w the root x(4w) =
2w + sqrt(1 + 4w^2) of x - x^-1 = 4w and its inverse x(-4w) have integer
coefficients, so `substitute_series` contracts the potential function over
Z one variable at a time, and the w^alpha coefficient is divided by
4^|alpha| once.

The decomposition is one change of basis, to z_i and w_i = x_i + x_i^-1,
and one triangular solve; its cost is polynomial in the exponents.

The exponential expansions compute on integers.  After the substitution,
y^pad times the polynomial is a finite sum of w * e^((alpha*a + gamma*h)/2)
over integer points (alpha, gamma) with integer weights w, so its a^i h^n
coefficient is the integer moment M[i, n] = sum w*alpha^i*gamma^n over
2^(i+n) * i! * n!.  Series are kept in that scaled form as dense rows
M[i][n], i + n <= prec, where a product is a binomial convolution.  A
quotient divides the link's rows by each component's rows in turn, one
triangular solve per component, which stays on integers when the
component's constant term is +-1; an expansion divides by nothing.  The
factor s^-pad is one integer table over a common denominator, kept in a
bounded cache per (prec, pad), and a result is turned into ordinary
coefficients once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod

from .algebra import (
    LaurentPolynomial,
    TruncatedSeries,
    bar_substitute,
    brace,
    substitute_series,
    x_of_z,
)
from .alexander import PotentialFunction, potential_function, xvars
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


def component_conways(d: LinkDiagram):
    """Conway polynomials of the individual components, with their colors."""
    return [(conway(d.component(j)), d.colors[j]) for j in range(d.m)]


def potential_series(om: PotentialFunction, cap: int = DEFAULT_CAP) -> TruncatedSeries:
    """Expand the numerator of the potential function as a series in
    z_i = x_i - x_i^-1; the value is that series over z^om.pole.

    x_i is the root x(z_i) of x - x^-1 = z_i with constant term 1; the
    result does not depend on which root is substituted.  The images are x(4w) and x(-4w), whose w^m
    coefficients are the z^m coefficients of `x_of_z` times (+-4)^m.
    """
    x, _ = x_of_z(cap)
    value = {e: c * 4 ** e[0] for e, c in x.terms.items()}
    inverse = {e: -c if e[0] % 2 else c for e, c in value.items()}
    zs = zvars(len(om.variables))
    images = {v: (TruncatedSeries((z,), cap, value), TruncatedSeries((z,), cap, inverse))
              for v, z in zip(om.variables, zs)}
    series = substitute_series(om.numerator, images, cap)
    terms = {e: Fraction(c, 4 ** sum(e)) for e, c in series.terms.items()}
    return TruncatedSeries(series.variables, cap, terms).embed(zs)


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


def _lucas(top: int) -> list:
    """[(V_e, U_e) for e = 0..top] as coefficient lists in z: the Lucas
    sequences of t^2 = z*t + 1, V_0 = 2, V_1 = z, U_0 = 0, U_1 = 1 and
    S_(e+1) = z*S_e + S_(e-1).  Its roots are x and -x^-1 for z = x - x^-1,
    so x^e = (V_e + w*U_e)/2 with w = x + x^-1."""
    seq = [([2], []), ([0, 1], [1])]
    while len(seq) <= top:  # S_(e-1) is two entries shorter than z*S_e
        seq.append(tuple([a + b for a, b in zip([0, *s1], [*s0, 0, 0])]
                         for s1, s0 in zip(seq[-1], seq[-2])))
    return seq[:top + 1]


def decompose(om) -> Decomposition:
    """Decompose a bar-invariant Laurent polynomial (or the numerator of a
    link potential function) over brace monomials.

    By `_lucas`, x_i^e = (V_e + w_i*U_e)/2 and x_i^-e = (-1)^e * (V_e -
    w_i*U_e)/2, so f = sum of Q_T(z) * w_T over index sets T, and Q_T = 0
    for odd T as bar fixes z_i and negates w_i.  As {alt(S)} = 2^(1-|S|) *
    sum over even T <= S of w_T * eps_(S-T) * z_(S-T), eps_k the signs of
    `_alt_vector(S)`, each part is P_T = 2^(|T|-1) * (Q_T - sum over even
    S > T of 2^(1-|S|) * eps_(S-T) * z_(S-T) * P_S).
    """
    f = om.numerator if isinstance(om, PotentialFunction) else om
    if isinstance(om, PotentialFunction) and om.pole:
        raise ValueError("decomposition needs a link potential (no pole)")
    if bar_substitute(f) != f:
        raise ValueError("input is not bar-invariant")
    n = len(f.variables)
    lucas = _lucas(max((abs(e) for p in f.terms for e in p), default=0))

    # x_i -> z_i one variable at a time: T as a bitmask -> {exponents with
    # those of z in front: 2^n * the coefficient of Q_T}
    pending = {0: f.terms}
    for i in range(n):
        out: dict = {}
        for mask, bucket in pending.items():
            for p, c in bucket.items():
                v, u = lucas[abs(p[i])]
                if p[i] < 0:  # x^-e = (-1)^e * (V_e - w*U_e)/2
                    c, u = -c if p[i] % 2 else c, [-a for a in u]
                for key, seq in ((mask, v), (mask | 1 << i, u)):
                    target = out.setdefault(key, {})
                    for k, a in enumerate(seq):
                        if a:
                            q = p[:i] + (k,) + p[i + 1:]
                            target[q] = target.get(q, 0) + c * a
        pending = out

    # D_T = 2^(n+1-|T|) * P_T is 2^n * Q_T less eps * z_(S-T) * D_S for each
    # even S > T, pushed on once D_S is done; Q_T = 0 for odd T
    out = {}
    while pending:
        mask = max(pending, key=int.bit_count)
        bucket = {zm: c for zm, c in pending.pop(mask).items() if c}
        subset = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        eps = _alt_vector(subset, n)
        sub = mask
        while sub:
            sub = (sub - 1) & mask
            rest = mask & ~sub
            if rest.bit_count() % 2:
                continue
            sign = prod(eps[i] for i in range(n) if rest >> i & 1)
            target = pending.setdefault(sub, {})
            for zm, c in bucket.items():
                key = tuple(e + (rest >> i & 1) for i, e in enumerate(zm))
                target[key] = target.get(key, 0) - sign * c
        poly = LaurentPolynomial(zvars(n), {zm: Fraction(c, 1 << (n + 1 - len(subset)))
                                            for zm, c in bucket.items()})
        if any(c.denominator not in (1, 2) for c in poly.terms.values()):
            raise ArithmeticError("decomposition part outside (1/2)Z")
        if poly:
            out[subset] = poly
    return Decomposition(n, out)


def reconstruct(dec: Decomposition) -> LaurentPolynomial:
    """Sum over parts of brace(alternating monomial) times the part with
    z_i replaced by x_i - x_i^-1."""
    n = dec.n
    xs = xvars(n)
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
        bucket[exps] = Fraction(coeff, 2)
    dec = Decomposition(n, {s: LaurentPolynomial(zvars(n), b) for s, b in parts.items()})
    return reconstruct(dec)


# -- starred quotients --------------------------------------------------------


def _starred_inverse(comps, variables, cap: int) -> TruncatedSeries:
    """1 over the product of the Conway polynomials in comps, in z alone
    or, over z1..zn, each in the z of its component's color."""
    multivariate = variables != ("z",)
    denom = TruncatedSeries.one(variables, cap)
    for nabla, color in comps:
        if multivariate:
            nabla = nabla.rename_variables({"z": f"z{color}"})
        series = TruncatedSeries.from_laurent(nabla, cap)
        denom = denom * series.embed(denom.variables)
    return denom.invert()


def _conway_quotient(nabla, comps, cap: int) -> TruncatedSeries:
    """A link's Conway polynomial nabla over those of its components comps."""
    return TruncatedSeries.from_laurent(nabla, cap) * _starred_inverse(comps, ("z",), cap)


def _link_quotients(om: PotentialFunction, reduced, comps, cap: int) -> tuple:
    """(potential series, its quotient, reduced quotient) of a link with
    potential function om, reduced polynomial reduced (None derives it from
    om) and component Conways comps: both quotients divide by one
    `_starred_inverse` in z1..zn."""
    if om.pole:
        raise ValueError("quotient series is defined for links, not knots")
    if reduced is None:
        reduced = reduced_polynomial(decompose(om))
    series = potential_series(om, cap)
    inverse = _starred_inverse(comps, series.variables, cap)
    delta = TruncatedSeries.from_laurent(reduced, cap) * inverse
    if any(c.denominator != 1 for c in delta.terms.values()):
        raise ArithmeticError("reduced quotient is not integral")
    return series, series * inverse, delta


def conway_quotient(d: LinkDiagram, cap: int = DEFAULT_CAP) -> TruncatedSeries:
    return _conway_quotient(conway(d), component_conways(d), cap)


def potential_series_quotient(d: LinkDiagram, cap: int = DEFAULT_CAP) -> TruncatedSeries:
    return _link_quotients(potential_function(d), None, component_conways(d), cap)[1]


def reduced_quotient(d: LinkDiagram, cap: int = DEFAULT_CAP) -> TruncatedSeries:
    return _link_quotients(potential_function(d), None, component_conways(d), cap)[2]


# -- coefficient tables -------------------------------------------------------


@dataclass(frozen=True)
class CoefficientTable:
    """Exact coefficients read off one of the series, keyed by exponent tuple."""

    entries: dict

    def get(self, *idx) -> Fraction:
        return self.entries.get(tuple(idx), Fraction(0))


def traldi_expand(om: PotentialFunction, cap: int = DEFAULT_CAP) -> CoefficientTable:
    """Expand (x1*x2)^(-lam) * potential in y_i = x_i^2 - 1 for a 2-color
    potential; lam in {0,1} is forced by the degree parity and the entries
    are integers."""
    if len(om.variables) != 2 or om.pole:
        raise ValueError("two-variable link potential required")
    if om.is_zero:
        return CoefficientTable({})
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
    one_plus = [TruncatedSeries((y,), cap, {(0,): 1, (1,): 1}) for y in ("y1", "y2")]
    images = {t: (s, s.invert()) for t, s in zip(f2.variables, one_plus)}
    series = substitute_series(f2, images, cap)
    for c in series.terms.values():
        if c.denominator != 1:
            raise ArithmeticError("two-variable expansion is not integral")
    return CoefficientTable(dict(series.terms))


# -- exponential expansions ---------------------------------------------------

_CH = ("a", "h")  # Q[c][[h]] over a = c*h: the total degree is the h-degree


def _sinh_unit(cap: int) -> TruncatedSeries:
    """s = (e^(h/2) - e^(-h/2)) / h, a unit, through h-degree cap."""
    terms = {}
    fact = Fraction(1)
    for j in range(1, cap + 2):
        fact /= j
        if j % 2:
            terms[(0, j - 1)] = 2 * Fraction(1, 2) ** j * fact
    return TruncatedSeries(_CH, cap, terms)


def _pascal(n: int) -> list:
    """Rows 0..n of Pascal's triangle."""
    rows = [[1]]
    for _ in range(n):
        row = rows[-1]
        rows.append([1] + [x + y for x, y in zip(row, row[1:])] + [1])
    return rows


def _moments(f: LaurentPolynomial, shift: int, cap: int):
    """(rows, pad): y^pad * f after the substitution, in scaled form through
    total degree prec = cap + pad, with pad = -(least power of y) or 0.

    The value is the sum of w * e^((alpha*a + gamma*h)/2) over the points
    of the terms coeff * x^kx * y^ky: with m = ky + pad and k = 0..m,
    alpha = kx, gamma = kx*shift + m - 2k and w = coeff * C(m, k) * (-1)^k.
    Its a^i h^n coefficient is rows[i][n] / (2^(i+n) * i! * n!) for the
    moment rows[i][n] = sum of w * alpha^i * gamma^n, i + n <= prec.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    xi = f.variables.index("x")
    yi = f.variables.index("y")
    pad = max(0, -min((e[yi] for e in f.terms), default=0))
    prec = cap + pad
    points: dict = {}  # alpha -> {gamma: w}
    for exps, coeff in f.terms.items():
        kx, m = exps[xi], exps[yi] + pad
        row = points.setdefault(kx, {})
        for k in range(m + 1):
            gamma = kx * shift + m - 2 * k
            w = coeff * comb(m, k)
            row[gamma] = row.get(gamma, 0) + (-w if k % 2 else w)
    rows = [[0] * (prec + 1 - i) for i in range(prec + 1)]
    for alpha, row in points.items():
        h_moments = [0] * (prec + 1)
        for gamma, w in row.items():
            for n in range(prec + 1):
                h_moments[n] += w
                w *= gamma
        power = 1
        for i in range(prec + 1):
            rows[i] = [r + power * h for r, h in zip(rows[i], h_moments)]
            power *= alpha
            if not power:
                break
    return rows, pad


def _scaled_divide(num: list, den: list, prec: int, binom: list) -> list:
    """num / den in scaled form through total degree prec, solved degree by
    degree: out[i][n] is num[i][n] less the sum of
    C(i, i1)*C(n, n1)*den[i1][n1]*out[i - i1][n - n1] over (i1, n1) != (0, 0),
    over the constant term c0 of den.  It stays on ints when c0 is +-1 and
    otherwise divides by the exact `Fraction` c0."""
    c0 = den[0][0]
    if c0 == 0:
        raise ZeroDivisionError("series with zero constant term has no inverse")
    unit = c0 in (1, -1)
    if not unit:
        c0 = Fraction(c0)
    nonzero = [[(n1, c) for n1, c in enumerate(row) if c] for row in den]
    del nonzero[0][0]
    out = [[0] * (prec + 1 - i) for i in range(prec + 1)]
    for i in range(prec + 1):
        row, bi = out[i], binom[i]
        for n in range(prec + 1 - i):
            bn = binom[n]
            acc = num[i][n]
            for i1 in range(i + 1):
                prior = out[i - i1]
                part = 0
                for n1, c in nonzero[i1]:
                    if n1 > n:
                        break
                    part += bn[n1] * c * prior[n - n1]
                if part:
                    acc -= bi[i1] * part
            row[n] = acc * c0 if unit else acc / c0
    return out


@lru_cache(maxsize=16)
def _sigma(prec: int, pad: int) -> tuple:
    """(den, sig): s^-pad in scaled form through h-degree prec over one
    common denominator den, so sig[n] = den * 2^n * n! * [h^n] s^-pad is an
    integer; s is even in h alone, so s^-pad has no a."""
    terms = (_sinh_unit(prec) ** -pad).terms
    scaled = [Fraction(terms.get((0, n), 0)) * (factorial(n) << n) for n in range(prec + 1)]
    den = lcm(*(c.denominator for c in scaled))
    return den, tuple(int(c * den) for c in scaled)


def _exp_table(f: LaurentPolynomial, divisors, shift: int, cap: int) -> CoefficientTable:
    """f over each of divisors but those equal to 1, after the substitution
    x -> e^((c+shift)h/2), y -> e^(h/2) - e^(-h/2) = h*s, as the table
    (h-degree, c-degree) -> coefficient through h-degree cap.

    A divisor is a knot's polynomial, without a pole.  With pad from
    `_moments`, the value is G / h^pad for G = s^-pad * (the quotient of
    the moment rows) through total degree cap + pad, so a^i h^n lands at
    (i + n - pad, i).  The product with s^-pad is a binomial convolution
    in h alone against the integer table of `_sigma`, so the ordinary
    coefficients rows[i][n] / (den * 2^(i+n) * i! * n!) are the only
    fractions."""
    rows, pad = _moments(f, shift, cap)
    prec = cap + pad
    binom = _pascal(prec)
    for g in divisors:
        if g != 1:
            den_rows, den_pad = _moments(g, shift, prec)
            if den_pad:
                raise ArithmeticError("a component's exponential expansion has a pole")
            rows = _scaled_divide(rows, den_rows, prec, binom)
    den = 1
    if pad:
        den, sig = _sigma(prec, pad)
        rows = [[sum(binom[n][n1] * sig[n1] * row[n - n1] for n1 in range(0, n + 1, 2))
                 for n in range(len(row))] for row in rows]
    fact = [factorial(k) for k in range(prec + 1)]
    entries = {}
    for i, row in enumerate(rows):
        for n, c in enumerate(row):
            if c:
                if i + n < pad:
                    raise ArithmeticError("negative powers of h did not cancel")
                q = Fraction(c, den * fact[i] * fact[n] << (i + n))
                entries[(i + n - pad, i)] = q.numerator if q.denominator == 1 else q
    return CoefficientTable(entries)


def exp_expand_homfly(h_poly: LaurentPolynomial, cap: int = DEFAULT_CAP) -> CoefficientTable:
    return _exp_table(h_poly, (), 0, cap)


def exp_expand_kauffman(f_poly: LaurentPolynomial, cap: int = DEFAULT_CAP) -> CoefficientTable:
    return _exp_table(f_poly, (), -1, cap)


def homfly_exp_quotient(d: LinkDiagram, cap: int = DEFAULT_CAP) -> CoefficientTable:
    """H of the link over the product of the component H's, after the
    exponential substitution (the division happens in the h-adic ring)."""
    return _exp_table(homfly(d), (homfly(d.component(j)) for j in range(d.m)), 0, cap)


def kauffman_exp_quotient(d: LinkDiagram, cap: int = DEFAULT_CAP) -> CoefficientTable:
    """The same quotient for the Dubrovnik version F of the Kauffman polynomial."""
    return _exp_table(kauffman_f(d), (kauffman_f(d.component(j)) for j in range(d.m)), -1, cap)
