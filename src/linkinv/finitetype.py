"""Colored finite-type machinery: evaluate invariants on singular links by
the iterated difference over resolutions, falsify bounded-type claims, and
build the bundled singular families used as evidence and witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .diagram import BraidWord, DiagramError, LinkDiagram, SingularLink, braid_closure
from .invariants import conway_coeffs
from .skein import conway, homfly, kauffman_f
from .transforms import component_conways, exp_expand_homfly, exp_expand_kauffman


@dataclass(frozen=True)
class InvariantFunction:
    """An ambient-isotopy invariant and its name.  The color rule for
    double points lives in `SingularLink`, which refuses a marked crossing
    between strands of two colors."""

    name: str
    fn: object

    def __call__(self, d: LinkDiagram) -> Fraction:
        return Fraction(self.fn(d))

    def __mul__(self, other: "InvariantFunction") -> "InvariantFunction":
        return InvariantFunction(f"{self.name}*{other.name}", lambda d: self.fn(d) * other.fn(d))


def linking_parity() -> InvariantFunction:
    return InvariantFunction("(-1)^lk", lambda d: (-1) ** d.linking_matrix()[0][1])


def conway_coefficient(k: int) -> InvariantFunction:
    """Coefficient of the Conway polynomial at z^k (a_k, not c_k)."""

    def fn(d):
        return conway(d).coefficient((k,))

    return InvariantFunction(f"a{k}", fn)


def ck_coefficient(k: int) -> InvariantFunction:
    """c_k, the coefficient at z^(m-1+2k); only for fixed component count
    families, where it is an honest invariant of each resolution."""

    def fn(d):
        cs = conway_coeffs(d)
        return cs[k] if k < len(cs) else Fraction(0)

    return InvariantFunction(f"c{k}", fn)


def alpha_two() -> InvariantFunction:
    """c_2 - c_1*(c_1(K_1) + c_1(K_2)) for 2-component links; restricted to
    lk = 0 this is the degree-2 coefficient of the quotient series."""

    def fn(d):
        if d.m != 2:
            raise DiagramError("alpha_two needs 2 components")
        cs = conway_coeffs(d)
        c1 = cs[1] if len(cs) > 1 else Fraction(0)
        c2 = cs[2] if len(cs) > 2 else Fraction(0)
        comp = Fraction(0)
        for nabla, _ in component_conways(d):
            comp += nabla.coefficient((2,))
        return c2 - c1 * comp

    return InvariantFunction("alpha2", fn)


def homfly_exp_coefficient(k: int, i: int) -> InvariantFunction:
    def fn(d):
        return exp_expand_homfly(homfly(d), cap=k).get(k, i)

    return InvariantFunction(f"p{k}{i}", fn)


def kauffman_exp_coefficient(k: int, i: int) -> InvariantFunction:
    def fn(d):
        return exp_expand_kauffman(kauffman_f(d), cap=k).get(k, i)

    return InvariantFunction(f"q{k}{i}", fn)


def extend(chi: InvariantFunction, s: SingularLink) -> Fraction:
    """Iterated difference over the 2^k resolutions of the marked points:
    the sum of (-1)^(number of negative resolutions) * chi(resolved)."""
    total = Fraction(0)
    k = s.points
    if k == 0:
        return chi(s.base)
    for signs in itertools.product((1, -1), repeat=k):
        value = chi(s.resolve(signs))
        if sum(1 for e in signs if e < 0) % 2:
            total -= value
        else:
            total += value
    return total


def type_falsify(chi: InvariantFunction, family) -> list:
    """Members of the family on which the extension of chi does not vanish.

    Every member must carry the same number r+1 of marked points; a
    nonempty result falsifies 'type <= r', an empty one is evidence only.
    """
    family = list(family)
    if not family:
        return []
    points = family[0].points
    for s in family:
        if s.points != points:
            raise DiagramError("family members must have equal point counts")
    return [s for s in family if extend(chi, s) != 0]


def leibniz_restrict(chi: InvariantFunction, psi: InvariantFunction,
                     s: SingularLink) -> bool:
    """Check the product rule for one singular point:
    extend(chi*psi, s) = chi(L+) * extend(psi, s) + extend(chi, s) * psi(L-)."""
    if s.points != 1:
        raise DiagramError("the product rule check needs exactly one marked point")
    plus = s.resolve([1])
    minus = s.resolve([-1])
    lhs = extend(chi * psi, s)
    rhs = chi(plus) * extend(psi, s) + extend(chi, s) * psi(minus)
    return lhs == rhs


# -- bundled singular families -------------------------------------------------


def clasp_family(points: int, twists: int | None = None) -> SingularLink:
    """2-component closure of a 2-strand braid with `points` marked
    crossings between the components (constant coloring)."""
    if twists is None:
        twists = max(points, 1)
    word = [1] * (2 * twists)
    if points > len(word):
        raise DiagramError("not enough crossings to mark")
    base = braid_closure(BraidWord(2, word), colors=(1, 1),
                         name=f"clasp{twists}")
    return SingularLink(base, list(range(points)))


def self_point_family(points: int, extra_twists: int = 0) -> SingularLink:
    """2-component link with `points` marked self-intersections on one
    component (identity coloring): the first component is a closed
    2-braid inside a bigger braid, clasped by a second component."""
    if points % 2 == 0:
        raise DiagramError("self-crossing marks on one component need an odd word")
    word = [1] * (points + 2 * extra_twists) + [2, 2]
    base = braid_closure(BraidWord(3, word), colors=(1, 2),
                         name=f"selfsing{points}")
    cu, co = base.strands_at(0)
    if cu != co:
        raise DiagramError("expected a self-crossing to mark")
    return SingularLink(base, list(range(points)))


# -- the three-self-point witness construction ---------------------------------

_PATTERNS = {
    # (k_over, direction): record builder and over-in slot; the base strand
    # is normalized to point "south" through the crossing
    (True, "E"): (lambda bi, bo, ki, ko: (bi, ki, bo, ko), 1),
    (True, "W"): (lambda bi, bo, ki, ko: (bi, ko, bo, ki), 3),
    (False, "E"): (lambda bi, bo, ki, ko: (ki, bo, ko, bi), 3),
    (False, "W"): (lambda bi, bo, ki, ko: (ki, bi, ko, bo), 1),
}


def _threaded_doubled_circle(a: int, b: int, c: int, d: int) -> SingularLink:
    """The doubled-circle immersion with 3 marked double points, threaded by
    a second component piercing the bounded regions with multiplicities
    a, b, c (the three lens regions) and d (the doubly-covered center).
    """
    base = braid_closure(BraidWord(2, [1, 1, 1]))
    (r1, r2, r3) = base.crossings
    a1, b1 = r1[1], r1[2]
    a2 = r2[1]
    a0 = r3[1]

    route = []  # (base arc, relative direction, K passes over)

    def hook(sign, arcs):
        over_going_in = sign > 0
        for e in arcs:
            route.append((e, "E", over_going_in))
        for e in reversed(arcs):
            route.append((e, "W", not over_going_in))

    for _ in range(abs(a)):
        hook(1 if a > 0 else -1, [a1])
    for _ in range(abs(b)):
        hook(1 if b > 0 else -1, [a2])
    for _ in range(abs(c)):
        hook(1 if c > 0 else -1, [a0])
    for _ in range(abs(d)):
        hook(1 if d > 0 else -1, [a1, b1])

    if not route:
        # split threading component: a plain circle next to the base
        loop_arc = 100
        comps = base.components + ((loop_arc,),)
        link = LinkDiagram(base.crossings, comps, (1, 2),
                           over_in=base.over_in)
        return SingularLink(link, [0, 1, 2])

    n_events = len(route)
    next_id = 7
    ksegs = list(range(next_id, next_id + n_events))
    next_id += n_events
    current = {}
    crossings = list(base.crossings)
    over_in = list(base.over_in)
    chains = {}
    for i, (e, direction, k_over) in enumerate(route):
        b_in = current.get(e, e)
        b_out = next_id
        next_id += 1
        current[e] = b_out
        chains.setdefault(e, [e]).append(b_out)
        k_in = ksegs[i]
        k_out = ksegs[(i + 1) % n_events]
        builder, o_slot = _PATTERNS[(k_over, direction)]
        crossings.append(builder(b_in, b_out, k_in, k_out))
        over_in.append(o_slot)

    # the subdivided base arcs: retarget each original head slot
    for e, last in current.items():
        ci, s = base.heads[e]
        rec = list(crossings[ci])
        rec[s] = last
        crossings[ci] = tuple(rec)

    base_cycle = []
    for arc in base.components[0]:
        base_cycle.extend(chains.get(arc, [arc]))
    comps = (tuple(base_cycle), tuple(ksegs))
    link = LinkDiagram(crossings, comps, (1, 2), over_in=over_in)
    return SingularLink(link, [0, 1, 2])


def threaded_circle_jump(a: int, b: int, c: int, d: int) -> Fraction:
    """The predicted jump of the extended alpha_two on the witness family."""
    return Fraction((a + b + c + d) * d - (a + c + d) * (b + d)
                    - (a + b + d) * (c + d) - (b + c + d) * (a + d))


def threaded_circle_witness(a: int, b: int, c: int, d: int):
    """Build the 3-self-point singular link over region multiplicities
    (a, b, c, d) with a+b+c+2d = 0, together with the predicted jump of
    the extended alpha_two."""
    if a + b + c + 2 * d != 0:
        raise DiagramError("region multiplicities must satisfy a+b+c+2d = 0")
    return _threaded_doubled_circle(a, b, c, d), threaded_circle_jump(a, b, c, d)
