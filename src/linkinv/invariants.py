"""Named numeric invariants read off the polynomial and series layer,
with the cross-identities between them enforced as built-in validators.

`build_report` returns the `linkinv-report-1` dict that `linkinv
invariants --json` prints."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .algebra import LaurentPolynomial
from .alexander import potential_function
from .diagram import LinkDiagram
from .skein import conway
from .transforms import (
    DEFAULT_CAP,
    CoefficientTable,
    _conway_quotient,
    _link_quotients,
    component_conways,
    decompose,
    reduced_polynomial,
)


class UndefinedInvariantError(ValueError):
    """The requested invariant is not defined for this link."""


class InvariantValidationError(AssertionError):
    """A built-in identity between invariants failed; indicates a bug."""


def total_lk(d: LinkDiagram) -> int:
    """Linking number of a 2-component link."""
    if d.m != 2:
        raise UndefinedInvariantError("linking number field needs 2 components")
    return d.linking_matrix()[0][1]


def conway_coeffs(d: LinkDiagram):
    """Coefficients c_k with conway = z^(m-1) * (c0 + c1 z^2 + ...)."""
    return _c_coeffs(conway(d), d.m)


def _c_coeffs(nabla, m: int):
    """`conway_coeffs` of an m-component link with Conway polynomial nabla."""
    cs = {}
    top = 0
    for (k,), coeff in nabla.terms.items():
        if k < m - 1 or (k - (m - 1)) % 2:
            raise InvariantValidationError(
                f"conway polynomial violates the z^(m-1) form at z^{k}")
        idx = (k - (m - 1)) // 2
        cs[idx] = coeff
        top = max(top, idx)
    if not cs:
        return ()
    return tuple(cs.get(i, Fraction(0)) for i in range(top + 1))


def alpha_coeffs(d: LinkDiagram, cap: int = DEFAULT_CAP):
    """Coefficients of the quotient by the component Conway polynomials.

    Read off the quotient series and recomputed through the recursion
    alpha_i = c_i - (alpha_(i-1) b_1 + ... + alpha_0 b_i); the two routes
    must agree exactly.
    """
    return _alphas(conway(d), component_conways(d), d.m, cap)


def _alphas(nabla, comps, m: int, cap: int):
    """`alpha_coeffs` of an m-component link from its nabla and comps."""
    out = {}
    for (k,), coeff in _conway_quotient(nabla, comps, cap).terms.items():
        if k < m - 1 or (k - (m - 1)) % 2:
            raise InvariantValidationError("quotient series violates the z^(m-1) form")
        out[(k - (m - 1)) // 2] = coeff
    count = (cap - (m - 1)) // 2 + 1
    alphas = tuple(out.get(i, Fraction(0)) for i in range(max(count, 0)))

    # independent recursion through the product of the component polynomials
    cs = _c_coeffs(nabla, m)
    prod = LaurentPolynomial.one(("z",))
    for nabla_k, _ in comps:
        prod = prod * nabla_k
    bs = {}
    for (k,), coeff in prod.terms.items():
        if k % 2:
            raise InvariantValidationError("component product has odd powers")
        bs[k // 2] = coeff
    if bs.get(0, Fraction(0)) != 1:
        raise InvariantValidationError("component product does not start at 1")
    for i in range(len(alphas)):
        ci = cs[i] if i < len(cs) else Fraction(0)
        acc = ci
        for j in range(1, i + 1):
            acc -= alphas[i - j] * bs.get(j, Fraction(0))
        if acc != alphas[i]:
            raise InvariantValidationError(
                f"alpha recursion mismatch at index {i}: {acc} != {alphas[i]}")
    return alphas


def two_color_tables(d: LinkDiagram, cap: int = DEFAULT_CAP):
    """Coefficient tables (c_ij, alpha_ij, delta_ij) of a 2-colored link.

    Validators: the constant terms match the linking number for 2-component
    links, entries vanish unless i+j is congruent to the component count
    mod 2, the delta table is integral, and the parity/evenness pattern of
    the delta table holds.
    """
    if d.n_colors != 2:
        raise UndefinedInvariantError("two-color tables need exactly 2 colors")
    om = potential_function(d)
    return _tables(d, om, reduced_polynomial(decompose(om)), component_conways(d), cap)


def _tables(d: LinkDiagram, om, reduced, comps, cap: int):
    """The tables of `two_color_tables` from d's potential function om, its
    reduced polynomial and its component Conways comps: `_link_quotients`."""
    c_table, a_table, d_table = (CoefficientTable(dict(series.terms))
                                 for series in _link_quotients(om, reduced, comps, cap))

    m = d.m
    for label, table in (("c", c_table), ("alpha", a_table), ("delta", d_table)):
        for (i, j), v in table.entries.items():
            if (i + j - m) % 2 != 0 and v != 0:
                raise InvariantValidationError(
                    f"{label}[{i},{j}] nonzero violates degree parity")
    if m == 2:
        lk = total_lk(d)
        if c_table.get(0, 0) != lk:
            raise InvariantValidationError("c[0,0] does not equal the linking number")
        if d_table.get(0, 0) != lk:
            raise InvariantValidationError("delta[0,0] does not equal the linking number")
        for (i, j), v in d_table.entries.items():
            # entries routed through the integral full-index part are even;
            # that part holds the exponents agreeing with lk mod 2
            if i % 2 == j % 2 == lk % 2 and int(v) % 2:
                raise InvariantValidationError(
                    f"delta[{i},{j}] should be even for this linking number")
    return c_table, a_table, d_table


def _signed_row_one(table, k: int) -> Fraction:
    """(-1)^(k+1) * table[1, 2k-1], the reading behind beta^k and beta-hat."""
    return (-1) ** (k + 1) * table.get(1, 2 * k - 1)


def _surrogate(c_table, lk: int) -> Fraction:
    return 2 * c_table.get(1, 1) / Fraction(lk * lk)


def cochran_beta(d: LinkDiagram, k: int, cap: int = DEFAULT_CAP) -> Fraction:
    """Derived invariant beta^k of a 2-component link with linking number 0,
    read off the reduced quotient as (-1)^(k+1) * delta[1, 2k-1]."""
    if d.m != 2:
        raise UndefinedInvariantError("beta^k needs a 2-component link")
    if total_lk(d) != 0:
        raise UndefinedInvariantError("beta^k is undefined when lk != 0")
    if k < 1 or 2 * k > cap:
        raise UndefinedInvariantError(f"beta^{k} is out of range for cap {cap}")
    return _signed_row_one(two_color_tables(d, cap)[2], k)


def beta_hat(d: LinkDiagram, k: int, cap: int = DEFAULT_CAP) -> Fraction:
    """Extension of beta^k to arbitrary linking numbers, read off the
    quotient of the potential series as (-1)^(k+1) * alpha[1, 2k-1]."""
    if d.m != 2:
        raise UndefinedInvariantError("beta-hat needs a 2-component link")
    if k < 1 or 2 * k > cap:
        raise UndefinedInvariantError(f"beta-hat {k} is out of range for cap {cap}")
    return _signed_row_one(two_color_tables(d, cap)[1], k)


def unoriented_sl(d: LinkDiagram, cap: int = DEFAULT_CAP) -> Fraction:
    """The half-integer c[1,1], an orientation-insensitive companion of the
    generalized Sato-Levine invariant."""
    return two_color_tables(d, cap)[0].get(1, 1)


def casson_walker_surrogate(d: LinkDiagram, cap: int = DEFAULT_CAP) -> Fraction:
    """2*c[1,1]/lk^2 for a 2-component link with lk != 0."""
    lk = total_lk(d)
    if lk == 0:
        raise UndefinedInvariantError("surrogate needs lk != 0")
    return _surrogate(two_color_tables(d, cap)[0], lk)


GAMMA_CAP = 9


def gamma3(d: LinkDiagram, cap: int = GAMMA_CAP) -> Fraction:
    """alpha_1 of a 3-component link minus the sum over ordered pairs of
    distinct 2-component sublinks of alpha_0 * alpha_1."""
    if d.m != 3:
        raise UndefinedInvariantError("gamma needs a 3-component link")
    return _gamma(d, conway(d), component_conways(d), cap)


def _gamma(d: LinkDiagram, nabla, comps, cap: int) -> Fraction:
    """`gamma3` from d's Conway polynomial nabla and component Conways comps;
    a sublink's components are d's, less the deleted one."""

    def first_two(nabla, comps, m):
        return (_alphas(nabla, comps, m, cap) + (Fraction(0),) * 2)[:2]

    a1 = first_two(nabla, comps, 3)[1]
    subs = [first_two(conway(d.monochrome().delete_component(i)), comps[:i] + comps[i + 1:], 2)
            for i in range(3)]
    return a1 - sum(subs[i][0] * subs[j][1] for i in range(3) for j in range(3) if i != j)


def congruence_report(d: LinkDiagram, cap: int = DEFAULT_CAP):
    """Residues of delta[i,j] modulo the gcd of all earlier entries.

    For each pair within the cap reports (i, j, delta, modulus, flagged);
    flagged means delta[i,j] is nonzero modulo the gcd of the delta[k,l]
    with k <= i, l <= j, k+l < i+j (modulus 0 compares against zero).
    When the components are unknotted, pairs with a nonzero entry are
    additionally marked, since the congruence sharpens to equality there.
    """
    return congruence_rows(component_conways(d), two_color_tables(d, cap)[2], cap)


def congruence_rows(comps, d_table, cap: int):
    """The rows of `congruence_report` for i + j <= cap, read off a link's
    component Conways comps and its delta table computed at any cap >= this
    one: truncated-series coefficients below the cap do not depend on it."""
    unknotted = all(nabla == LaurentPolynomial.one(("z",)) for nabla, _ in comps)
    rows = []
    # prefix[i, j]: the gcd of delta[k, l] over k <= i, l <= j
    prefix: dict = {}
    for i in range(cap + 1):
        for j in range(cap + 1 - i):
            entry = d_table.get(i, j)
            modulus = gcd(prefix.get((i - 1, j), 0), prefix.get((i, j - 1), 0))
            prefix[i, j] = gcd(modulus, int(entry))
            if modulus:
                flagged = int(entry) % modulus != 0
            else:
                flagged = entry != 0
            row = {
                "i": i,
                "j": j,
                "delta": str(entry),
                "modulus": modulus,
                "flagged": bool(flagged),
            }
            if unknotted:
                row["equality_flagged"] = bool(entry != 0)
            rows.append(row)
    return rows


MU_BAR_NOTE = (
    "delta[i,j] entries (i+j even) are integer liftings of Milnor mu-bar "
    "invariants of the shape (1..1 2..2); this tool does not compute mu-bar "
    "directly, so the correspondence is reported as metadata, not asserted."
)


def _keyed(entries: dict) -> dict:
    """entries as a report writes them: each index tuple joined as "k,i",
    each exact value as text, in index order."""
    return {",".join(map(str, idx)): str(v) for idx, v in sorted(entries.items())}


def build_report(d: LinkDiagram, cap: int = DEFAULT_CAP) -> dict:
    """Everything the pipeline can say about d, exact throughout: the
    `linkinv-report-1` object that `invariants --json` prints, keys in
    schema order.  A field that does not apply to d stays None."""
    om = potential_function(d)
    nabla = conway(d)
    comps = component_conways(d)
    report = {
        "schema": "linkinv-report-1",
        "name": d.name or "link",
        "components": d.m,
        "colors": list(d.colors),
        "linking_matrix": d.linking_matrix(),
        "conway": nabla.render(),
        "c": [str(c) for c in _c_coeffs(nabla, d.m)],
        "alpha": [str(a) for a in _alphas(nabla, comps, d.m, cap)],
        "omega": om.render(),
        "omega_sign_provenance": om.sign_provenance,
        "reduced": None,
        "cap": cap,
        **dict.fromkeys(("c_table", "alpha_table", "delta_table", "beta", "beta_hat",
                         "sato_levine_unoriented", "casson_walker_surrogate", "gamma",
                         "congruences")),
        "notes": [],
    }
    if d.m >= 2:
        reduced = reduced_polynomial(decompose(om))
        report["reduced"] = reduced.render()
    if d.n_colors == 2:
        c_t, a_t, d_t = _tables(d, om, reduced, comps, cap)
        report.update(c_table=_keyed(c_t.entries), alpha_table=_keyed(a_t.entries),
                      delta_table=_keyed(d_t.entries), notes=[MU_BAR_NOTE])
        if d.m == 2:
            lk = total_lk(d)
            report["sato_levine_unoriented"] = str(c_t.get(1, 1))
            if lk != 0:
                report["casson_walker_surrogate"] = str(_surrogate(c_t, lk))
            ks = range(1, cap // 2 + 1)
            report["beta_hat"] = _keyed({(k,): _signed_row_one(a_t, k) for k in ks}) or None
            if lk == 0:
                report["beta"] = _keyed({(k,): _signed_row_one(d_t, k) for k in ks}) or None
            report["congruences"] = [row for row in congruence_rows(comps, d_t, min(cap, 8))
                                     if row["flagged"]]
    if d.m == 3:
        report["gamma"] = str(_gamma(d, nabla, comps, GAMMA_CAP))
    return report
