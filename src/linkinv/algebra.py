"""Exact sparse Laurent polynomials and truncated multivariate power series.

Coefficients are exact rationals: an integral coefficient is stored as an
`int`, any other as a `fractions.Fraction`; there is no floating point
anywhere in the package.  Values are immutable after construction and can
be shared freely between threads; every operation returns a new value.
Results of +, - and * skip the public constructors' checks.
`LaurentPolynomial` and `TruncatedSeries` share one base (`_Terms`: the
immutability, term access, alignment, subtraction and rendering), one
validating loop (`_checked`) and one power loop (`_power`).

Operands over different variable lists are aligned automatically by
embedding both into the union of the variable lists, ordered
lexicographically.

`TruncatedSeries` is the package's one power-series type.  The exponential
expansions in Q[c][[h]] return it, over (a, h) with a = c*h, but compute
their products and quotients on integer moments (see `transforms`).

`fox_determinant` is the package's one determinant routine, used for
Kauffman's state sum behind the Conway polynomial and the potential
function: sparse fraction-free Bareiss elimination over Z[t^+-1] with
Markowitz pivoting, from sparse rows of terms whose exponent vectors are
packed into one int each (`skein` builds the state matrix so) to the
determinant packed alike.  `_exact_quotient` divides on packed terms too.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping


def _coeff(value) -> int | Fraction:
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"exact rational coefficient expected, got {type(value).__name__}")


def _clean(terms: dict) -> dict:
    """Drop zero coefficients and store integral ones as int."""
    return {e: c if type(c) is int else _coeff(c) for e, c in terms.items() if c}


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


def _checked(terms, nv: int, cap: int | None = None) -> dict:
    """The public constructors' check of `terms` in nv variables, or in a
    series truncated at `cap`: equal exponent vectors add up."""
    if not terms:
        return {}
    clean = {}
    for exps, coeff in terms.items():
        coeff = _coeff(coeff)
        if coeff == 0:
            continue
        exps = tuple(map(int, exps))
        if len(exps) != nv:
            raise ValueError("exponent vector length mismatch")
        if cap is not None:
            if exps and min(exps) < 0:
                raise ValueError("negative exponent in a power series")
            if sum(exps) > cap:
                continue
        clean[exps] = clean.get(exps, 0) + coeff
    return _clean(clean)


def _power(x, n: int, one):
    """x ** n for n >= 0 by square-and-multiply, starting from `one`."""
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


class _Terms:
    """What LaurentPolynomial and TruncatedSeries share: an immutable
    `variables` tuple and a `terms` dict from exponent tuples to nonzero
    exact coefficients.  The two types stay unrelated to each other."""

    __slots__ = ()

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps) -> int | Fraction:
        return self.terms.get(tuple(exps), 0)

    def constant_term(self) -> int | Fraction:
        return self.coefficient((0,) * len(self.variables))

    def _embedded(self, variables) -> tuple:
        """(variables, terms) of self over a superset of its variables."""
        variables = tuple(variables)
        if not set(self.variables) <= set(variables):
            raise ValueError("cannot embed: target misses some variables")
        return variables, _embed_terms(self.terms, self.variables, variables)

    def _aligned(self, other):
        """(variables, self's terms, other's terms) over the union of both
        variable lists."""
        if self.variables == other.variables:
            return self.variables, self.terms, other.terms
        nv = _merge_vars(self.variables, other.variables)
        return (nv, _embed_terms(self.terms, self.variables, nv),
                _embed_terms(other.terms, other.variables, nv))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def render(self) -> str:
        return _render(self.terms, self.variables)

    __str__ = render


class LaurentPolynomial(_Terms):
    """Sparse Laurent polynomial, exponents in Z, coefficients in Q.

    `terms` maps dense exponent tuples (one entry per variable, possibly
    negative) to nonzero rational coefficients.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping | None = None):
        variables = tuple(variables)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", _checked(terms, len(variables)))

    @classmethod
    def _make(cls, variables: tuple, terms: dict) -> "LaurentPolynomial":
        """Trusted constructor for results of arithmetic on validated
        operands: `terms` has no zero and stores integral values as int."""
        self = object.__new__(cls)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", terms)
        return self

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
        return cls(variables, {tuple(exps): 1})

    # -- basics ------------------------------------------------------------

    def embed(self, variables) -> "LaurentPolynomial":
        return LaurentPolynomial(*self._embedded(variables))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(self.variables, other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        _, a, b = self._aligned(other)
        return a == b

    def __hash__(self):
        # as loose as __eq__, which aligns variable lists in any order and
        # lifts numbers: a constant hashes as its number, any other
        # polynomial as its terms with each exponent named by its variable
        if not any(map(any, self.terms)):
            return hash(self.constant_term())
        return hash(frozenset((c, frozenset((v, e) for v, e in zip(self.variables, exps) if e))
                              for exps, c in self.terms.items()))

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._make(self.variables, {e: -c for e, c in self.terms.items()})

    def __add__(self, other) -> "LaurentPolynomial":
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(self.variables, other)
        nv, a, b = self._aligned(other)
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial._make(nv, _clean(out))

    __radd__ = __add__

    def __mul__(self, other) -> "LaurentPolynomial":
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            return LaurentPolynomial._make(self.variables,
                                           _clean({e: c * v for e, v in self.terms.items()}))
        nv, a, b = self._aligned(other)
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:  # a monomial times b: shift b's exponents
            (ea, ca), = a.items()
            return LaurentPolynomial._make(nv, _clean(
                {tuple([x + y for x, y in zip(ea, eb)]): ca * cb for eb, cb in b.items()}))
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return LaurentPolynomial._make(nv, _clean(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if len(self.terms) == 1:  # a monomial: scale its exponents
            (exps, coeff), = self.terms.items()
            coeff = coeff ** abs(n) if coeff in (1, -1) else _coeff(Fraction(coeff) ** n)
            return LaurentPolynomial._make(self.variables, {tuple([n * e for e in exps]): coeff})
        if n < 0:
            raise ValueError("negative power of a non-monomial Laurent polynomial")
        return _power(self, n, LaurentPolynomial.one(self.variables))

    # -- substitutions -----------------------------------------------------

    def set_variable_to_one(self, name: str) -> "LaurentPolynomial":
        """Substitute 1 for one variable and drop it from the variable list."""
        idx = self.variables.index(name)
        newvars = self.variables[:idx] + self.variables[idx + 1:]
        out: dict = {}
        for exps, coeff in self.terms.items():
            key = exps[:idx] + exps[idx + 1:]
            out[key] = out.get(key, 0) + coeff
        return LaurentPolynomial(newvars, out)

    def collapse_variables(self, name: str) -> "LaurentPolynomial":
        """Substitute a single fresh variable for every variable."""
        out: dict = {}
        for exps, coeff in self.terms.items():
            key = (sum(exps),)
            out[key] = out.get(key, 0) + coeff
        return LaurentPolynomial((name,), out)

    def rename_variables(self, mapping: Mapping[str, str]) -> "LaurentPolynomial":
        newvars = tuple(mapping.get(v, v) for v in self.variables)
        if len(set(newvars)) != len(newvars):
            raise ValueError("variable renaming collides")
        return LaurentPolynomial(newvars, self.terms)

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

    Only defined when such a rewriting exists exactly (bar-invariant
    input); raises ArithmeticError otherwise.
    """
    if len(f.variables) != 1:
        raise ValueError("one-variable input required")
    rem = {e: c for (e,), c in f.terms.items()}
    out: dict = {}
    while any(rem.values()):  # subtracting coeff * (x - x^-1)^top cancels x^top
        top = max(e for e, c in rem.items() if c)
        if top < 0:
            raise ArithmeticError("not expressible in x - x^-1")
        coeff = out[(top,)] = rem[top]
        binomial = 1  # (-1)^j C(top, j), the coefficient of x^(top - 2j) in (x - x^-1)^top
        for j in range(top + 1):
            rem[top - 2 * j] = rem.get(top - 2 * j, 0) - coeff * binomial
            binomial = -binomial * (top - j) // (j + 1)
    return LaurentPolynomial((zname,), out)


# -- exact determinants over Z[t^+-1] ------------------------------------------
#
# The determinant kernel packs each exponent vector (e_1, ..., e_k) into
# the one int e_1*R^(k-1) + ... + e_k, a balanced mixed radix with the
# first variable most significant and R = 2^bits.  Packing is a ring map
# from Z[t_1^+-1, ..., t_k^+-1] to Z[T^+-1], one-to-one on polynomials
# whose exponents all lie in -R/2 <= e < R/2.  On those, key order is lex
# order, so max() over the keys is the lex-leading term, and a product of
# terms adds keys.

def _pack(exps, bits: int) -> int:
    key = 0
    for e in exps:
        key = (key << bits) + e
    return key


def _unpack(key: int, bits: int, nvars: int) -> tuple:
    """The exponent vector that packs to key: balanced digits in every
    variable but the first, which takes whatever is left."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    exps = [0] * nvars
    for i in range(nvars - 1, 0, -1):
        e = exps[i] = ((key + half) & mask) - half
        key = (key - e) >> bits
    if exps:
        exps[0] = key
    return tuple(exps)


def _divide(num: dict, den: dict, bits: int, nvars: int) -> dict:
    """num / den on packed terms, cancelling num's leading term each step
    (lex order on Z^k is a group order); consumes num.  Raises
    ArithmeticError on a remainder.

    Both operands must pack exponents below R/2 in size.  Every quotient
    exponent is kept below R/2 - d, d the largest |exponent| of den, so
    quotient times den packs one-to-one and the packed identity num =
    quotient * den holds over Z[t^+-1] too.  That box also bounds the
    loop, since the quotient's keys strictly fall."""
    if len(den) == 1:  # a unit times an integer: one pass
        (lead, lc), = den.items()
        out = {}
        for k, c in num.items():
            if c:
                q, r = divmod(c, lc)
                if r:
                    raise ArithmeticError("inexact division over Z[t^+-1]")
                out[k - lead] = q
        return out
    for k in [k for k, c in num.items() if not c]:
        del num[k]
    limit = (1 << (bits - 1)) - 1 - max(abs(e) for k in den for e in _unpack(k, bits, nvars))
    lead = max(den)
    lc = den[lead]
    out = {}
    while num:
        top = max(num)
        qe = top - lead
        q, r = divmod(num[top], lc)
        if r or max(map(abs, _unpack(qe, bits, nvars))) > limit:
            raise ArithmeticError("inexact division over Z[t^+-1]")
        out[qe] = q
        for e, c in den.items():
            k = qe + e
            v = num.get(k, 0) - q * c
            if v:
                num[k] = v
            else:
                del num[k]
    return out


def _exact_quotient(num: dict, den: dict) -> dict:
    """num / den over Z[t^+-1] on {exponent tuple: int} dicts, by the
    packed division; raises ArithmeticError on a remainder.  R exceeds
    four times every |exponent| given, so a quotient term of an exact
    division, at most twice that, unpacks faithfully."""
    nvars = len(next(iter(den)))
    big = max((abs(e) for terms in (num, den) for exps in terms for e in exps), default=0)
    bits = max(1, (4 * big).bit_length())
    out = _divide({_pack(e, bits): c for e, c in num.items()},
                  {_pack(e, bits): c for e, c in den.items()}, bits, nvars)
    return {_unpack(k, bits, nvars): c for k, c in out.items()}


def _add_product(out: dict, a: dict, b: dict, sign: int = 1) -> dict:
    """out += sign * a * b on packed terms."""
    for ea, ca in a.items():
        ca *= sign
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return out


def permutation_sign(perm) -> int:
    """Sign of a permutation of range(len(perm)), from its cycles: a cycle
    of length L is L - 1 transpositions."""
    seen = bytearray(len(perm))
    sign = 1
    for start in range(len(perm)):
        seen[start] = 1
        j = perm[start]
        while not seen[j]:
            seen[j] = 1
            sign = -sign
            j = perm[j]
    return sign


def fox_determinant(rows, ncols: int, bits: int, nvars: int) -> dict:
    """Determinant of a square matrix over Z[t^+-1] by sparse fraction-free
    Bareiss elimination (Bareiss, Math. Comp. 22, 1968) with Markowitz
    pivoting (Management Science 3, 1957), on packed exponents.

    Each row, consumed, is a {column: {key: int}} dict of its nonzero
    entries, a key packing an exponent vector in nvars variables by `_pack`
    at radix R = 2^bits; the determinant comes back packed alike.  Each
    step takes the pivot that minimises (row count - 1) * (column count - 1)
    over the rows and columns left, ties broken by its number of terms.  A
    row the pivot column misses is left as it is: it falls behind by
    pivot_now / pivot_then, and the step that next touches it catches up
    in the same exact division, (pivot * entry - lead * pivot-row entry) /
    pivot_then.  The last pivot is the determinant up to the sign of the
    permutation taking each pivot's row to its column.

    R must exceed 4*n*E, E the largest |exponent| of any entry: every
    entry and pivot met is a minor, of |exponents| at most n*E, and every
    numerator a sum of products of two minors, at most 2*n*E < R/2, so
    all of them pack one-to-one."""
    count = Counter(j for row in rows for j in row)  # column -> rows left that hold it
    one = {0: 1}
    since = [one] * ncols  # the pivot each row's entries are current for
    active = list(range(ncols))
    perm = [0] * ncols
    prev = one
    for _ in range(ncols):
        best = None
        for i in active:
            row = rows[i]
            if not row:
                return {}
            others = len(row) - 1
            for j, terms in row.items():
                cost = (others * (count[j] - 1), len(terms))
                if best is None or cost < best[0]:
                    best = (cost, i, j)
        _, r, c = best
        active.remove(r)
        perm[r] = c
        pivot_row = rows[r]
        if since[r] is not prev:
            pivot_row = {j: _divide(_add_product({}, prev, a), since[r], bits, nvars)
                         for j, a in pivot_row.items()}
        pivot = pivot_row.pop(c)
        del count[c]
        for j in pivot_row:
            count[j] -= 1
        for i in active:
            row = rows[i]
            lead = row.pop(c, None)
            if lead is None:
                continue
            then, since[i] = since[i], pivot
            nums = {}
            for j, a in row.items():
                num = nums[j] = _add_product({}, pivot, a)
                if j in pivot_row:
                    _add_product(num, lead, pivot_row[j], -1)
            for j, b in pivot_row.items():
                if j not in row:
                    nums[j] = _add_product({}, lead, b, -1)
                    count[j] += 1
            rows[i] = row = {}
            for j, num in nums.items():
                q = _divide(num, then, bits, nvars)
                if q:
                    row[j] = q
                else:
                    count[j] -= 1
        prev = pivot
    sign = permutation_sign(perm)
    return {k: sign * c for k, c in prev.items()}


class TruncatedSeries(_Terms):
    """Multivariate power series truncated at a total-degree bound (inclusive).

    Arithmetic results carry cap = min of the operand caps.  Equality
    compares variables and coefficients of two series with equal caps.
    """

    __slots__ = ("variables", "cap", "terms")

    def __init__(self, variables, cap: int, terms: Mapping | None = None):
        variables = tuple(variables)
        if cap < 0:
            raise ValueError("cap must be >= 0")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "cap", int(cap))
        object.__setattr__(self, "terms", _checked(terms, len(variables), cap))

    @classmethod
    def _make(cls, variables: tuple, cap: int, terms: dict) -> "TruncatedSeries":
        """Trusted constructor for results of arithmetic on validated
        operands: `terms` has no zero, no term above the cap, and stores
        integral values as int."""
        self = object.__new__(cls)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "terms", terms)
        return self

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
        return cls(variables, cap, {tuple(exps): 1})

    @classmethod
    def from_laurent(cls, f: LaurentPolynomial, cap: int) -> "TruncatedSeries":
        if any(e < 0 for exps in f.terms for e in exps):
            raise ValueError("Laurent polynomial with negative exponents is not a power series")
        return cls(f.variables, cap, f.terms)

    # -- basics ------------------------------------------------------------

    def embed(self, variables) -> "TruncatedSeries":
        variables, terms = self._embedded(variables)
        return TruncatedSeries(variables, self.cap, terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(self.variables, self.cap, other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        _, a, b = self._aligned(other)
        cap = min(self.cap, other.cap)
        trim = lambda t: {e: c for e, c in t.items() if sum(e) <= cap}
        return trim(a) == trim(b)

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return TruncatedSeries._make(self.variables, self.cap,
                                     {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(self.variables, self.cap, other)
        nv, a, b = self._aligned(other)
        cap = min(self.cap, other.cap)
        out = {e: c for e, c in a.items() if sum(e) <= cap}
        for e, c in b.items():
            if sum(e) <= cap:
                out[e] = out.get(e, 0) + c
        return TruncatedSeries._make(nv, cap, _clean(out))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            return TruncatedSeries._make(self.variables, self.cap,
                                         _clean({e: c * v for e, v in self.terms.items()}))
        nv, a, b = self._aligned(other)
        cap = min(self.cap, other.cap)
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
        return TruncatedSeries._make(nv, cap, _clean(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TruncatedSeries":
        if n < 0:
            return self.invert() ** (-n)
        return _power(self, n, TruncatedSeries.one(self.variables, self.cap))

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse up to the cap; the constant term c0 must be
        nonzero.  Degree by degree: inv_k = -(1/c0) * sum_j self_j * inv_(k-j),
        with 1/c0 the exact `Fraction` (an int when c0 is +-1)."""
        c0 = self.constant_term()
        if c0 == 0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        q = _coeff(Fraction(1, c0))
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

    def __repr__(self):
        return f"TruncatedSeries({self.render()!r}, cap={self.cap})"


def substitute_series(f: LaurentPolynomial, images: Mapping[str, tuple], cap: int) -> TruncatedSeries:
    """Substitute series for the variables of a Laurent polynomial.

    `images[v]` is a pair (value, inverse) of TruncatedSeries in one
    variable of v's own; the inverse may be None when no negative powers of
    v occur in f.  The result lies in the image variables, sorted, with cap
    the least of cap and the caps of the images that f raises to a power.
    f is contracted one variable at a time: the k-th exponent e becomes a
    degree a_k <= cap - (a_1 + ... + a_(k-1)), weighted by the degree-a_k
    coefficient of value^e (inverse^-e when e < 0), so integer images keep
    the whole substitution on integers.
    """
    names: list = []
    table, final = dict(f.terms), cap
    for k, v in enumerate(f.variables):
        value, inverse = images[v]
        shapes = {s.variables for s in (value, inverse) if s is not None}
        if len(shapes) != 1 or len(min(shapes)) != 1:
            raise ValueError(f"image of {v} must lie in exactly one variable")
        ((name,),) = shapes
        if name in names:
            raise ValueError(f"images of {f.variables[names.index(name)]} and {v} share a variable")
        names.append(name)
        low = min([0] + [e[k] for e in f.terms])
        high = max([0] + [e[k] for e in f.terms])
        if low < 0 and inverse is None:
            raise ValueError(f"negative power of {v} but no inverse image given")
        final = min([final] + [s.cap for s, top in ((value, high), (inverse, -low)) if top])
        # rows[e] is value^e for e >= 0 and, counted from the end, inverse^-e;
        # an image's terms above the final cap never reach the result
        rows = _powers(value, high, cap) + _powers(inverse, -low, cap)[:0:-1]
        sums: dict = {}
        for exps, coeff in table.items():
            acc = sums.setdefault(exps[:k] + exps[k + 1:], [0] * (cap + 1 - sum(exps[:k])))
            for a, c in enumerate(rows[exps[k]][:len(acc)]):
                acc[a] += coeff * c
        table = {rest[:k] + (a,) + rest[k:]: c
                 for rest, acc in sums.items() for a, c in enumerate(acc) if c}
    order = sorted(range(len(names)), key=names.__getitem__)
    return TruncatedSeries(tuple(sorted(names)), final,
                           {tuple(exps[i] for i in order): c for exps, c in table.items()})


def _powers(series, top: int, cap: int) -> list:
    """Degree 0..cap coefficients of series^0..series^top (series may be None if top is 0)."""
    rows = [[1] + [0] * cap]
    base = sorted((d, c) for (d,), c in series.terms.items()) if top else []
    for _ in range(top):
        row = [0] * (cap + 1)
        for j, r in enumerate(rows[-1]):
            for d, c in base if r else ():
                if j + d > cap:
                    break
                row[j + d] += r * c
        rows.append(row)
    return rows


# -- special series ---------------------------------------------------------

def x_of_z(cap: int, var: str = "z") -> tuple[TruncatedSeries, TruncatedSeries]:
    """The unit root x(z) of x - x^-1 = z with leading term +1, and its reciprocal.

    x(z) = sqrt(1 + z^2/4) + z/2 expanded binomially, the z^2k coefficient
    C(1/2, k) / 4^k being (-1)^(k+1) * C(2k, k) / ((2k - 1) * 16^k); the
    reciprocal is x(z) - z, since x - x^-1 = z forces x^-1 = x - z.
    """
    terms = {(2 * k,): Fraction((-1) ** (k + 1) * comb(2 * k, k), (2 * k - 1) * 16 ** k)
             for k in range(cap // 2 + 1)}
    terms[(1,)] = Fraction(1, 2)
    x = TruncatedSeries((var,), cap, terms)
    return x, x - TruncatedSeries.gen((var,), var, cap)
