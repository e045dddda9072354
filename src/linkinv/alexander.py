"""Multivariable Alexander polynomial via Wirtinger presentation and Fox
calculus, and its normalization into the Conway potential function.

The Alexander polynomial is computed up to units (+-monomials), from a
Fox minor whose determinant is taken by fraction-free Bareiss elimination
over Z[t^+-1] (polynomial time; every division is exact and checked).  The
potential function pins the monomial shift by the symmetry requirement
under inverting all variables, and the residual sign through the Conway
bridge (x - x^-1) * Omega(x, ..., x) = conway(x - x^-1).  The sign pin
has three tiers, tried in order:

1. the lowest Conway coefficient a_(m-1), a cofactor of the linking
   matrix, against the bridge's z^(m-1) coefficient (`via-nabla`);
2. when that cofactor is 0, the whole Conway polynomial from the state
   determinant, also polynomial time (`via-nabla`);
3. when that vanishes too, the component-deletion formula against a
   sublink (`via-sublink`), and, when none applies, an explicit ambiguity
   flag (`ambiguous`) rather than a silent choice.

No tier runs a skein recursion, so the potential function spends no node
budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    LaurentPolynomial,
    divexact_var_minus_one,
    fox_determinant,
    rewrite_in_difference,
)
from .diagram import DiagramError, LinkDiagram, uf_find, uf_union
from .skein import conway

VIA_NABLA = "via-nabla"
VIA_SUBLINK = "via-sublink"
AMBIGUOUS = "ambiguous"


def xvars(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1))


def tvars(n: int) -> tuple[str, ...]:
    return tuple(f"t{i}" for i in range(1, n + 1))


@dataclass(frozen=True)
class WirtingerPresentation:
    """One generator per strand (arc between underpasses), one relation per
    crossing; generator colors follow the diagram coloring."""

    generators: tuple
    gen_colors: tuple
    relations: tuple  # words: tuples of (generator index, +-1)

    @property
    def n_colors(self) -> int:
        return max(self.gen_colors) if self.gen_colors else 0


def wirtinger(d: LinkDiagram) -> WirtingerPresentation:
    uf: dict = {}
    for ci, rec in enumerate(d.crossings):
        o = d.over_in[ci]
        uf_union(uf, rec[o], rec[(o + 2) % 4])

    reps = sorted({uf_find(uf, a) for cyc in d.components for a in cyc})
    index = {r: i for i, r in enumerate(reps)}
    colors = tuple(d.colors[d.comp_of_arc[r]] for r in reps)
    relations = []
    for ci, rec in enumerate(d.crossings):
        a = index[uf_find(uf, rec[0])]
        c = index[uf_find(uf, rec[2])]
        b = index[uf_find(uf, rec[d.over_in[ci]])]
        if d.sign(ci) == 1:
            word = ((c, 1), (b, 1), (a, -1), (b, -1))
        else:
            word = ((c, 1), (b, -1), (a, -1), (b, 1))
        relations.append(word)
    return WirtingerPresentation(tuple(reps), colors, tuple(relations))


def _fox_derivative(word, g, gen_colors, n) -> LaurentPolynomial:
    variables = tvars(n)
    prefix = [0] * n
    terms: dict = {}
    for u, e in word:
        cu = gen_colors[u] - 1
        if e == 1:
            if u == g:
                key = tuple(prefix)
                terms[key] = terms.get(key, Fraction(0)) + 1
            prefix[cu] += 1
        else:
            prefix[cu] -= 1
            if u == g:
                key = tuple(prefix)
                terms[key] = terms.get(key, Fraction(0)) - 1
    return LaurentPolynomial(variables, terms)


def fox_matrix(p: WirtingerPresentation):
    """Matrix of abelianized Fox derivatives, one row per relation."""
    n = p.n_colors
    return [
        [_fox_derivative(word, g, p.gen_colors, n) for g in range(len(p.generators))]
        for word in p.relations
    ]


def alexander_poly(d: LinkDiagram) -> LaurentPolynomial:
    """Sign-refined Alexander polynomial up to units +-t^a.

    Deletes the last generator's column and the last relation from the Fox
    matrix, takes the determinant, and for links divides exactly by
    (t_c - 1) where c is the deleted generator's color.
    """
    n = d.n_colors
    variables = tvars(n)
    if not d.crossings:
        if d.m == 1:
            return LaurentPolynomial.one(variables)
        return LaurentPolynomial.zero(variables)
    p = wirtinger(d)
    if len(p.generators) != len(p.relations):
        # some component never passes under anything: it lifts off, the
        # link is split and the polynomial vanishes
        return LaurentPolynomial.zero(variables)
    rows = fox_matrix(p)
    minor = [row[:-1] for row in rows[:-1]]
    det = fox_determinant(minor, len(p.generators) - 1, variables)
    if d.m == 1:
        return det
    if det.is_zero:
        return det
    return divexact_var_minus_one(det, f"t{p.gen_colors[-1]}")


@dataclass(frozen=True)
class PotentialFunction:
    """Conway potential function with its normalization metadata.

    For links (m >= 2) the value is `numerator`; for knots the value is
    numerator / (x1 - x1^-1), recorded by the `pole` marker.
    """

    variables: tuple
    numerator: LaurentPolynomial
    pole: bool
    lam: tuple
    sign_provenance: str

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    def mono_numerator(self) -> LaurentPolynomial:
        """(x - x^-1) * value with every variable set to x; a polynomial in
        the single variable x for links and the bare numerator for knots."""
        return _mono_numerator(self.numerator, self.pole)

    def render(self) -> str:
        body = self.numerator.render()
        if self.pole:
            return f"({body})/({self.variables[0]} - {self.variables[0]}^-1)"
        return body


def _symmetrize(f: LaurentPolynomial, m: int):
    """Monomial shift x^lam making x^lam*f symmetric under inverting all
    variables, with sign (-1)^m for links and +1 for the knot numerator."""
    lam = []
    for v in f.variables:
        lo, hi = f.exponent_range(v)
        if (lo + hi) % 2:
            raise ArithmeticError("no integral symmetrizing shift exists")
        lam.append(-(lo + hi) // 2)
    shift = LaurentPolynomial.monomial(f.variables, tuple(lam), 1)
    h = shift * f
    want = 1 if m == 1 else (-1) ** m
    if h.invert_variables() != want * h:
        raise ArithmeticError(
            "shifted polynomial is not (-1)^m symmetric; normalization bug")
    return h, tuple(lam)


def _mono_numerator(h: LaurentPolynomial, pole: bool) -> LaurentPolynomial:
    collapsed = h.collapse_variables("x")
    if pole:
        return collapsed
    x = LaurentPolynomial.gen(("x",), "x")
    return (x - x ** -1) * collapsed


def linking_cofactor(d: LinkDiagram) -> Fraction:
    """The lowest Conway coefficient a_(m-1) from linking numbers alone
    (Hoste, Proc. AMS 95, 1985): 1 for a knot; for a link, an (m-1)-cofactor
    of L with L_ij = -lk(i, j) and L_ii = sum over j != i of lk(i, j)."""
    lk = d.linking_matrix()
    rows = [[LaurentPolynomial.constant((), sum(lk[i]) if i == j else -lk[i][j])
             for j in range(1, d.m)] for i in range(1, d.m)]
    return fox_determinant(rows, d.m - 1, ()).constant_term()


def _sign(got, want) -> int:
    """+1 when got == want, -1 when got == -want; the one comparison behind
    every tier of the sign pin."""
    if got == want:
        return 1
    if got == -want:
        return -1
    raise ArithmeticError("potential function differs from its reference by more than a sign")


def _pin_sign(h: LaurentPolynomial, d: LinkDiagram):
    """Fix the residual +-1 of the symmetrized candidate h by the Conway
    bridge, rewritten in z: its z^(m-1) coefficient against the linking
    cofactor, else (cofactor 0) the whole bridge against the Conway
    polynomial; when that vanishes too, fall back to component deletion."""
    m = d.m
    bridge = rewrite_in_difference(_mono_numerator(h, m == 1))
    a = linking_cofactor(d)
    if a:
        return _sign(bridge.coefficient((m - 1,)), a), VIA_NABLA
    nabla = conway(d)
    if not nabla.is_zero:
        return _sign(bridge, nabla), VIA_NABLA
    return _pin_by_deletion(h, d)


def _pin_by_deletion(h: LaurentPolynomial, d: LinkDiagram):
    """Fix the sign by the component-deletion formula against a sublink
    with known sign, else flag the value ambiguous."""
    for i in range(d.m):
        if d.colors.count(d.colors[i]) != 1:
            continue
        om2 = potential_function(d.delete_component(i))
        if om2.sign_provenance == AMBIGUOUS or om2.is_zero:
            continue
        lhs, rhs = _deletion_sides(h, d, i, om2)
        if not (lhs.is_zero and rhs.is_zero):
            return _sign(lhs, rhs), VIA_SUBLINK

    # deterministic but flagged: make the least exponent's coefficient positive
    least = min(h.terms)
    eps = 1 if h.terms[least] > 0 else -1
    return eps, AMBIGUOUS


def potential_function(d: LinkDiagram) -> PotentialFunction:
    n = d.n_colors
    m = d.m
    variables = xvars(n)
    delta = alexander_poly(d)
    if delta.is_zero:
        return PotentialFunction(variables, LaurentPolynomial.zero(variables),
                                 m == 1, (0,) * n, VIA_NABLA)
    images = []
    for i in range(n):
        images.append((1, tuple(2 if k == i else 0 for k in range(n))))
    f = delta.monomial_substitute(variables, images)
    h, lam = _symmetrize(f, m)
    eps, provenance = _pin_sign(h, d)
    return PotentialFunction(variables, eps * h, m == 1, lam, provenance)


def deletion_check(omega: PotentialFunction, d: LinkDiagram, i: int) -> bool:
    """Verify the component-deletion formula for component i of d.

    Requires component i to be alone in its color; compares the potential
    function with that color's variable set to 1 against the linking-number
    monomial times the potential function of the deleted sublink.
    """
    if d.m < 2:
        raise DiagramError("deletion check needs a link, not a knot")
    color = d.colors[i]
    if d.colors.count(color) != 1:
        raise DiagramError("component is not alone in its color")
    lhs, rhs = _deletion_sides(omega.numerator, d, i,
                               potential_function(d.delete_component(i)))
    return lhs == rhs


def _deletion_sides(numerator: LaurentPolynomial, d: LinkDiagram, i: int,
                    om2: PotentialFunction):
    """Both sides of the component-deletion formula for component i of d,
    alone in its color, given om2 = the potential function of d without it:
    the numerator with that color's variable set to 1, and the linking
    monomial difference times om2 on the remaining colors.  When om2 is a
    knot's, its pole is cleared by multiplying the left side instead."""
    color = d.colors[i]
    remaining = sorted(set(d.colors) - {color})
    # the sublink's x1..x(n-1) are the remaining colors, renamed in two steps
    rename = {f"x{k + 1}": f"y{k + 1}" for k in range(len(remaining))}
    back = {f"y{k + 1}": f"x{remaining[k]}" for k in range(len(remaining))}
    sub_num = om2.numerator.rename_variables(rename).rename_variables(back)
    lvec = d.total_linking(i)
    monvars = tuple(f"x{c}" for c in remaining)
    mon = LaurentPolynomial.monomial(monvars, tuple(lvec.get(c, 0) for c in remaining), 1)
    lhs = numerator.set_variable_to_one(f"x{color}")
    rhs = (mon - mon ** -1) * sub_num
    if om2.pole:
        v = f"x{remaining[0]}"
        xv = LaurentPolynomial.gen((v,), v)
        lhs = lhs * (xv - xv ** -1)
    return lhs, rhs


def connected_sum_check(da: LinkDiagram, db: LinkDiagram, color: int) -> bool:
    """Verify multiplicativity of the potential function under a band sum
    along the given color (first components of that color on both sides)."""
    ia = next(k for k in range(da.m) if da.colors[k] == color)
    jb = next((k for k in range(db.m) if db.colors[k] == color), None)
    if jb is None and db.n_colors == 1:
        jb = 0
    s = da.connected_sum(db, ia, jb)
    om_s = potential_function(s)
    om_a = potential_function(da)
    om_b = potential_function(db)

    def lift(om, src: LinkDiagram):
        if src.n_colors == 1 and om.pole:
            # knot numerator, variable renamed to the band color
            return om.numerator.rename_variables({"x1": f"x{color}"}), 1
        return om.numerator, 0

    na, pa = lift(om_a, da)
    nb, pb = lift(om_b, db)
    xc = LaurentPolynomial.gen((f"x{color}",), f"x{color}")
    diff = xc - xc ** -1
    lhs = om_s.numerator
    lhs_pole = 1 if om_s.pole else 0
    if lhs_pole:
        lhs = lhs.rename_variables({"x1": f"x{color}"})
    # omega_sum / diff^lhs_pole == diff * (na / diff^pa) * (nb / diff^pb)
    lhs_cleared = lhs * diff ** (pa + pb)
    rhs_cleared = diff * na * nb * diff ** lhs_pole
    return lhs_cleared == rhs_cleared
