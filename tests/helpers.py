"""Diagram and polynomial helpers shared by the tests; not part of the
library's interface."""

from linkinv.alexander import PotentialFunction
from linkinv.algebra import LaurentPolynomial
from linkinv.diagram import LinkDiagram


def disjoint_union(a: LinkDiagram, b: LinkDiagram) -> LinkDiagram:
    """Place two diagrams side by side; the second palette is appended."""
    shift = max(a.arcs(), default=0)
    crossings = tuple(tuple(x + shift for x in rec) for rec in b.crossings)
    components = tuple(tuple(x + shift for x in cyc) for cyc in b.components)
    colors = a.colors + tuple(c + a.n_colors for c in b.colors)
    return LinkDiagram(a.crossings + crossings, a.components + components, colors,
                       over_in=a.over_in + b.over_in)


def mono_numerator(om: PotentialFunction) -> LaurentPolynomial:
    """(x - x^-1) * value with every variable set to x; a polynomial in the
    single variable x for links and the bare numerator for knots."""
    collapsed = om.numerator.collapse_variables("x")
    if om.pole:
        return collapsed
    x = LaurentPolynomial.gen(("x",), "x")
    return (x - x ** -1) * collapsed
