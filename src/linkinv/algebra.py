"""Exact sparse Laurent polynomials and truncated multivariate power series.

All coefficients are arbitrary-precision rationals (`fractions.Fraction`);
there is no floating-point mode anywhere in the package.  Values are
immutable after construction and can be shared freely between threads;
every operation returns a new value.

Operands over different variable lists are aligned automatically by
embedding both into the union of the variable lists, ordered
lexicographically.

`TruncatedSeries` is the package's one power-series type; the exponential
expansions in Q[c][[h]] use it too, over (a, h) with a = c*h.

`fox_determinant` is the package's one determinant routine (fraction-free
Bareiss elimination over Z[t^+-1]), used for Kauffman's state sum behind
the Conway polynomial and the potential function.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping


def _coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact rational coefficient expected, got {type(value).__name__}")


def binom_frac(r: Fraction, k: int) -> Fraction:
    """Generalized binomial coefficient C(r, k) for rational r."""
    out = Fraction(1)
    for j in range(k):
        out = out * (r - j) / (j + 1)
    return out


def _sort_key(item):
    exps, _ = item
    return (sum(exps), exps)


def _render(terms: Mapping[tuple, Fraction], variables: tuple[str, ...]) -> str:
    if not terms:
        return "0"
    parts = []
    for exps, coeff in sorted(terms.items(), key=_sort_key):
        mono = "*".join(
            v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e != 0
        )
        if not mono:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = mono
        else:
            body = f"{abs(coeff)}*{mono}"
        parts.append((coeff < 0, body))
    first_neg, first = parts[0]
    out = ("-" + first) if first_neg else first
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out


def _merge_vars(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    if a == b:
        return a
    return tuple(sorted(set(a) | set(b)))


def _embed_terms(terms, oldvars, newvars):
    if oldvars == newvars:
        return dict(terms)
    pos = [newvars.index(v) for v in oldvars]
    zero = [0] * len(newvars)
    out = {}
    for exps, coeff in terms.items():
        vec = zero[:]
        for p, e in zip(pos, exps):
            vec[p] = e
        out[tuple(vec)] = coeff
    return out


class LaurentPolynomial:
    """Sparse Laurent polynomial, exponents in Z, coefficients in Q.

    `terms` maps dense exponent tuples (one entry per variable, possibly
    negative) to nonzero rational coefficients.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping | None = None):
        variables = tuple(variables)
        clean = {}
        if terms:
            nv = len(variables)
            for exps, coeff in terms.items():
                coeff = _coeff(coeff)
                if coeff == 0:
                    continue
                exps = tuple(int(e) for e in exps)
                if len(exps) != nv:
                    raise ValueError("exponent vector length mismatch")
                clean[exps] = clean.get(exps, Fraction(0)) + coeff
            clean = {e: c for e, c in clean.items() if c != 0}
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("LaurentPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "LaurentPolynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, value) -> "LaurentPolynomial":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): _coeff(value)})

    @classmethod
    def one(cls, variables) -> "LaurentPolynomial":
        return cls.constant(variables, 1)

    @classmethod
    def monomial(cls, variables, exps, coeff=1) -> "LaurentPolynomial":
        return cls(variables, {tuple(exps): _coeff(coeff)})

    @classmethod
    def gen(cls, variables, name: str, power: int = 1) -> "LaurentPolynomial":
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = power
        return cls(variables, {tuple(exps): Fraction(1)})

    # -- basics ------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * len(self.variables))

    def embed(self, variables) -> "LaurentPolynomial":
        variables = tuple(variables)
        if not set(self.variables) <= set(variables):
            raise ValueError("cannot embed: target misses some variables")
        return LaurentPolynomial(variables, _embed_terms(self.terms, self.variables, variables))

    def _aligned(self, other):
        if self.variables == other.variables:
            return self.variables, self.terms, other.terms
        nv = _merge_vars(self.variables, other.variables)
        return (nv, _embed_terms(self.terms, self.variables, nv),
                _embed_terms(other.terms, other.variables, nv))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(self.variables, other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        if self.variables == other.variables:
            return self.terms == other.terms
        _, a, b = self._aligned(other)
        return a == b

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __add__(self, other) -> "LaurentPolynomial":
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(self.variables, other)
        nv, a, b = self._aligned(other)
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, Fraction(0)) + c
        return LaurentPolynomial(nv, out)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPolynomial":
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(self.variables, other)
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPolynomial":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPolynomial":
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            return LaurentPolynomial(self.variables, {e: c * v for e, v in self.terms.items()})
        nv, a, b = self._aligned(other)
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return LaurentPolynomial(nv, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            if len(self.terms) != 1:
                raise ValueError("negative power of a non-monomial Laurent polynomial")
            (exps, coeff), = self.terms.items()
            return LaurentPolynomial(self.variables,
                                     {tuple(n * e for e in exps): coeff ** n})
        out = LaurentPolynomial.one(self.variables)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- substitutions -----------------------------------------------------

    def monomial_substitute(self, newvars, images) -> "LaurentPolynomial":
        """Substitute each variable by a (coefficient, exponent-vector) monomial.

        `images[i]` gives the image of `self.variables[i]` over `newvars`.
        Monomials are invertible, so negative exponents are fine.
        """
        newvars = tuple(newvars)
        out: dict = {}
        for exps, coeff in self.terms.items():
            c = coeff
            vec = [0] * len(newvars)
            for e, (ic, iv) in zip(exps, images):
                if e == 0:
                    continue
                c *= _coeff(ic) ** e
                for k, x in enumerate(iv):
                    vec[k] += e * x
            key = tuple(vec)
            out[key] = out.get(key, Fraction(0)) + c
        return LaurentPolynomial(newvars, out)

    def invert_variables(self) -> "LaurentPolynomial":
        """x_i -> x_i^-1 for every variable."""
        n = len(self.variables)
        images = [(1, tuple(-1 if k == i else 0 for k in range(n))) for i in range(n)]
        return self.monomial_substitute(self.variables, images)

    def set_variable_to_one(self, name: str) -> "LaurentPolynomial":
        """Substitute 1 for one variable and drop it from the variable list."""
        idx = self.variables.index(name)
        newvars = self.variables[:idx] + self.variables[idx + 1:]
        out: dict = {}
        for exps, coeff in self.terms.items():
            key = exps[:idx] + exps[idx + 1:]
            out[key] = out.get(key, Fraction(0)) + coeff
        return LaurentPolynomial(newvars, out)

    def collapse_variables(self, name: str) -> "LaurentPolynomial":
        """Substitute a single fresh variable for every variable."""
        out: dict = {}
        for exps, coeff in self.terms.items():
            key = (sum(exps),)
            out[key] = out.get(key, Fraction(0)) + coeff
        return LaurentPolynomial((name,), out)

    def rename_variables(self, mapping: Mapping[str, str]) -> "LaurentPolynomial":
        newvars = tuple(mapping.get(v, v) for v in self.variables)
        if len(set(newvars)) != len(newvars):
            raise ValueError("variable renaming collides")
        return LaurentPolynomial(newvars, self.terms)

    # -- degree data -------------------------------------------------------

    def exponent_range(self, name: str) -> tuple[int, int]:
        """(min, max) exponent of one variable across the support; (0, 0) if zero."""
        if not self.terms:
            return (0, 0)
        idx = self.variables.index(name)
        exps = [e[idx] for e in self.terms]
        return (min(exps), max(exps))

    def render(self) -> str:
        return _render(self.terms, self.variables)

    __str__ = render

    def __repr__(self):
        return f"LaurentPolynomial({self.render()!r})"


def bar_substitute(f: LaurentPolynomial) -> LaurentPolynomial:
    """The involution x_i -> -x_i^-1 on every variable.

    Term-wise: A*x^p maps to (-1)^(sum p) * A * x^(-p).
    """
    out = {}
    for exps, coeff in f.terms.items():
        sign = -1 if sum(exps) % 2 else 1
        out[tuple(-e for e in exps)] = sign * coeff
    return LaurentPolynomial(f.variables, out)


def brace(f: LaurentPolynomial) -> LaurentPolynomial:
    """f + bar(f); always bar-invariant."""
    return f + bar_substitute(f)


def bracket(f: LaurentPolynomial) -> LaurentPolynomial:
    """f - bar(f); always bar-antiinvariant."""
    return f - bar_substitute(f)


def rewrite_in_difference(f: LaurentPolynomial, zname: str = "z") -> LaurentPolynomial:
    """Rewrite a one-variable Laurent polynomial as a polynomial in z = x - x^-1.

    Only defined when such a rewriting exists exactly (bar-invariant input
    with uniform degree parity); raises ArithmeticError otherwise.
    """
    if len(f.variables) != 1:
        raise ValueError("one-variable input required")
    x = LaurentPolynomial.gen(f.variables, f.variables[0])
    diff = x - x ** (-1)
    rem = f
    out: dict = {}
    guard = 0
    while rem:
        guard += 1
        if guard > 10000:
            raise ArithmeticError("rewriting in x - x^-1 does not terminate")
        top = max(e[0] for e in rem.terms)
        if top < 0:
            raise ArithmeticError("not expressible in x - x^-1")
        coeff = rem.terms.get((top,), Fraction(0))
        if coeff == 0:
            raise ArithmeticError("not expressible in x - x^-1")
        out[(top,)] = out.get((top,), Fraction(0)) + coeff
        rem = rem - coeff * diff ** top
        if rem and max(e[0] for e in rem.terms) >= top and top > 0:
            raise ArithmeticError("not expressible in x - x^-1")
    return LaurentPolynomial((zname,), out)


# -- exact determinants over Z[t^+-1] ------------------------------------------

def _int_terms(entry: LaurentPolynomial) -> dict:
    out = {}
    for exps, coeff in entry.terms.items():
        if coeff.denominator != 1:
            raise ValueError("matrix entries must have integer coefficients")
        out[exps] = int(coeff)
    return out


def _add_product(out: dict, a: dict, b: dict, sign: int = 1) -> dict:
    """out += sign * a * b on {exponent tuple: int} dicts."""
    for ea, ca in a.items():
        ca *= sign
        for eb, cb in b.items():
            e = tuple([x + y for x, y in zip(ea, eb)])
            out[e] = out.get(e, 0) + ca * cb
    return out


def _exact_quotient(num: dict, den: dict) -> dict:
    """num / den over Z[t^+-1], cancelling num's lex-leading term each step
    (lex order on Z^n is a group order); raises ArithmeticError on a
    remainder.  An exact quotient's exponents lie in the per-variable
    degree box checked below, which also bounds the loop."""
    num = {e: c for e, c in num.items() if c}
    if not num:
        return num
    lo = [a - b for a, b in zip(map(min, zip(*num)), map(min, zip(*den)))]
    hi = [a - b for a, b in zip(map(max, zip(*num)), map(max, zip(*den)))]
    lead = max(den)
    lc = den[lead]
    out = {}
    while num:
        top = max(num)
        qe = tuple([x - y for x, y in zip(top, lead)])
        q, r = divmod(num[top], lc)
        if r or not all(a <= x <= b for a, x, b in zip(lo, qe, hi)):
            raise ArithmeticError("inexact division over Z[t^+-1]")
        out[qe] = q
        for e, c in den.items():
            k = tuple([x + y for x, y in zip(qe, e)])
            v = num.get(k, 0) - q * c
            if v:
                num[k] = v
            else:
                del num[k]
    return out


def fox_determinant(rows, ncols: int, variables) -> LaurentPolynomial:
    """Determinant of a square matrix over Z[t^+-1] by fraction-free Bareiss
    elimination: step k replaces each entry below and right of the pivot by
    (pivot * entry - column entry * pivot-row entry) / previous pivot, a
    division that is exact.  The pivot is the entry of the column with the
    fewest terms; each row swap flips the sign."""
    if len(rows) != ncols or any(len(row) != ncols for row in rows):
        raise ValueError("square matrix expected")
    mat = [[_int_terms(e) for e in row] for row in rows]
    sign = 1
    prev = {(0,) * len(variables): 1}
    for k in range(ncols):
        nonzero = [i for i in range(k, ncols) if mat[i][k]]
        if not nonzero:
            return LaurentPolynomial.zero(variables)
        p = min(nonzero, key=lambda i: len(mat[i][k]))
        if p != k:
            mat[k], mat[p] = mat[p], mat[k]
            sign = -sign
        pivot_row = mat[k]
        pivot = pivot_row[k]
        for row in mat[k + 1:]:
            lead = row[k]
            for j in range(k + 1, ncols):
                num = _add_product({}, pivot, row[j])
                if lead and pivot_row[j]:
                    _add_product(num, lead, pivot_row[j], -1)
                row[j] = _exact_quotient(num, prev)
        prev = pivot
    return LaurentPolynomial(variables, {e: sign * c for e, c in prev.items()})


class TruncatedSeries:
    """Multivariate power series truncated at a total-degree bound (inclusive).

    Arithmetic results carry cap = min of the operand caps.  Equality
    compares variables and coefficients of two series with equal caps.
    """

    __slots__ = ("variables", "cap", "terms")

    def __init__(self, variables, cap: int, terms: Mapping | None = None):
        variables = tuple(variables)
        if cap < 0:
            raise ValueError("cap must be >= 0")
        clean = {}
        if terms:
            nv = len(variables)
            for exps, coeff in terms.items():
                coeff = _coeff(coeff)
                if coeff == 0:
                    continue
                exps = tuple(map(int, exps))
                if len(exps) != nv:
                    raise ValueError("exponent vector length mismatch")
                if exps and min(exps) < 0:
                    raise ValueError("negative exponent in a power series")
                if sum(exps) > cap:
                    continue
                prev = clean.get(exps)
                clean[exps] = coeff if prev is None else prev + coeff
            clean = {e: c for e, c in clean.items() if c != 0}
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "cap", int(cap))
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables, cap) -> "TruncatedSeries":
        return cls(variables, cap, {})

    @classmethod
    def constant(cls, variables, cap, value) -> "TruncatedSeries":
        variables = tuple(variables)
        return cls(variables, cap, {(0,) * len(variables): _coeff(value)})

    @classmethod
    def one(cls, variables, cap) -> "TruncatedSeries":
        return cls.constant(variables, cap, 1)

    @classmethod
    def gen(cls, variables, name, cap) -> "TruncatedSeries":
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls(variables, cap, {tuple(exps): Fraction(1)})

    @classmethod
    def from_laurent(cls, f: LaurentPolynomial, cap: int) -> "TruncatedSeries":
        if any(e < 0 for exps in f.terms for e in exps):
            raise ValueError("Laurent polynomial with negative exponents is not a power series")
        return cls(f.variables, cap, f.terms)

    # -- basics ------------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * len(self.variables))

    def truncate(self, cap: int) -> "TruncatedSeries":
        return TruncatedSeries(self.variables, min(self.cap, cap), self.terms)

    def embed(self, variables) -> "TruncatedSeries":
        variables = tuple(variables)
        if not set(self.variables) <= set(variables):
            raise ValueError("cannot embed: target misses some variables")
        return TruncatedSeries(variables, self.cap,
                               _embed_terms(self.terms, self.variables, variables))

    def _aligned(self, other):
        cap = min(self.cap, other.cap)
        if self.variables == other.variables:
            return self.variables, cap, self.terms, other.terms
        nv = _merge_vars(self.variables, other.variables)
        return (nv, cap, _embed_terms(self.terms, self.variables, nv),
                _embed_terms(other.terms, other.variables, nv))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(self.variables, self.cap, other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        nv, cap, a, b = self._aligned(other)
        trim = lambda t: {e: c for e, c in t.items() if sum(e) <= cap}
        return trim(a) == trim(b)

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return TruncatedSeries(self.variables, self.cap, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(self.variables, self.cap, other)
        nv, cap, a, b = self._aligned(other)
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, Fraction(0)) + c
        return TruncatedSeries(nv, cap, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(self.variables, self.cap, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            return TruncatedSeries(self.variables, self.cap,
                                   {e: c * v for e, v in self.terms.items()})
        nv, cap, a, b = self._aligned(other)
        right = sorted((sum(eb), eb, cb) for eb, cb in b.items())
        out: dict = {}
        for ea, ca in a.items():
            room = cap - sum(ea)
            for db, eb, cb in right:
                if db > room:
                    break
                key = tuple(x + y for x, y in zip(ea, eb))
                prev = out.get(key)
                out[key] = ca * cb if prev is None else prev + ca * cb
        return TruncatedSeries(nv, cap, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TruncatedSeries":
        if n < 0:
            return self.invert() ** (-n)
        out = TruncatedSeries.one(self.variables, self.cap)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse up to the cap; the constant term c0 must be
        nonzero.  Degree by degree: inv_k = -(1/c0) * sum_j self_j * inv_(k-j)."""
        c0 = self.constant_term()
        if c0 == 0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        q = 1 / c0
        by_deg: dict = {}
        for e, c in self.terms.items():
            if any(e):
                by_deg.setdefault(sum(e), []).append((e, c))
        levels = [{(0,) * len(self.variables): q}]
        for k in range(1, self.cap + 1):
            acc: dict = {}
            for j, part in by_deg.items():
                if j > k:
                    continue
                for eb, cb in levels[k - j].items():
                    for ea, ca in part:
                        key = tuple(x + y for x, y in zip(ea, eb))
                        prev = acc.get(key)
                        acc[key] = ca * cb if prev is None else prev + ca * cb
            levels.append({e: -v * q for e, v in acc.items() if v})
        return TruncatedSeries(self.variables, self.cap,
                               {e: c for level in levels for e, c in level.items()})

    def render(self) -> str:
        return _render(self.terms, self.variables)

    __str__ = render

    def __repr__(self):
        return f"TruncatedSeries({self.render()!r}, cap={self.cap})"


def substitute_series(f: LaurentPolynomial, images: Mapping[str, tuple], cap: int) -> TruncatedSeries:
    """Substitute series for the variables of a Laurent polynomial.

    `images[v]` is a pair (value, inverse) of TruncatedSeries; the inverse
    may be None when no negative powers of v occur in f.
    """
    varset: set = set()
    for v in f.variables:
        pos, inv = images[v]
        varset |= set(pos.variables)
        if inv is not None:
            varset |= set(inv.variables)
    nv = tuple(sorted(varset))
    out = TruncatedSeries.zero(nv, cap)
    pos_cache: dict = {}
    for exps, coeff in f.terms.items():
        term = TruncatedSeries.constant(nv, cap, coeff)
        for v, e in zip(f.variables, exps):
            if e == 0:
                continue
            key = (v, e)
            if key not in pos_cache:
                pos, inv = images[v]
                if e > 0:
                    pos_cache[key] = pos.embed(nv).truncate(cap) ** e
                else:
                    if inv is None:
                        raise ValueError(f"negative power of {v} but no inverse image given")
                    pos_cache[key] = inv.embed(nv).truncate(cap) ** (-e)
            term = term * pos_cache[key]
        out = out + term
    return out


# -- special series ---------------------------------------------------------

def x_of_z(cap: int, var: str = "z") -> tuple[TruncatedSeries, TruncatedSeries]:
    """The unit root x(z) of x - x^-1 = z with leading term +1, and its reciprocal.

    x(z) = sqrt(1 + z^2/4) + z/2 expanded binomially; the reciprocal is
    x(z) - z, since x - x^-1 = z forces x^-1 = x - z.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    terms = {}
    if cap >= 1:
        terms[(1,)] = Fraction(1, 2)
    for k in range(0, cap // 2 + 1):
        c = binom_frac(Fraction(1, 2), k) * Fraction(1, 4) ** k
        if c:
            terms[(2 * k,)] = terms.get((2 * k,), Fraction(0)) + c
    x = TruncatedSeries((var,), cap, terms)
    xinv = x - TruncatedSeries.gen((var,), var, cap)
    return x, xinv
