"""Link diagram data model: PD codes, braid words, orientations, surgery.

A crossing record X[a,b,c,d] lists the four incident arcs counterclockwise
starting from the incoming under-strand, so the under-strand runs from
slot 0 to slot 2 and the over-strand occupies slots 1 and 3.  Orientation
is explicit: every component is an ordered cycle of arcs, and the crossing
sign is recomputed from orientation plus over/under data (positive exactly
when the over-strand enters at slot 3).

Diagrams are immutable; all surgery operations return new values.  Only
outside input is validated (`LinkDiagram(...)`, the parsers, the braid
closure, `recolor`); surgery on a validated diagram builds its result with
the trusted `LinkDiagram._make`.
"""

from __future__ import annotations

import ast
import re

UNDER_IN, UNDER_OUT = 0, 2


class DiagramError(ValueError):
    """Invalid diagram structure or unusable operation input."""


class ParseError(DiagramError):
    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


# -- arc ends and tracing -----------------------------------------------------

def far_ends(crossings):
    """The one table of arc ends: the arc at every slot, slot s of crossing
    c at 4c + s, and the slot at that arc's other end.  A strand entering
    a crossing at slot i leaves it at i ^ 2, and other[i ^ 2] is the slot
    it enters next."""
    flat = [arc for rec in crossings for arc in rec]
    first: dict = {}
    other = [0] * len(flat)
    for i, arc in enumerate(flat):
        j = first.setdefault(arc, i)
        other[i], other[j] = j, i
    return flat, other


def relink(flat, other, a, b) -> bool:
    """The one way arcs are joined: join the arcs at slots a and b of the
    tables of `far_ends`, both slots at a crossing that is going.  The
    joined arc runs from other[a] to other[b], and both its ends take the
    smaller label, so every label is the least one its arc absorbed.
    False when a and b are the two ends of one arc, which closes off a
    crossing-free circle."""
    far_a, far_b = other[a], other[b]
    if far_a == b:
        return False
    other[far_a], other[far_b] = far_b, far_a
    flat[far_a] = flat[far_b] = min(flat[a], flat[b])
    return True


def disconnected(d: "LinkDiagram", other) -> bool:
    """`LinkDiagram.is_split` from the far ends `other` of d's crossings,
    for a caller that has built them."""
    if d.m <= 1:
        return False
    if d._free_loops(()):
        return True  # a crossing-free circle next to anything else is split
    # the crossings reached from crossing 0 along the far ends
    found = bytearray(len(other) >> 2)
    found[0] = 1
    reached = [0]
    for x in reached:
        for i in range(4 * x, 4 * x + 4):
            y = other[i] >> 2
            if not found[y]:
                found[y] = 1
                reached.append(y)
    return len(reached) < len(found)


def _walk(flat, other, entry):
    """The circles that touch a crossing, as the slots each one enters, in
    order of their minimal arc and walked from that arc's slot in `entry`,
    which holds one slot per arc."""
    seen = bytearray(len(flat))
    for start in sorted(entry, key=flat.__getitem__):
        if seen[start]:
            continue
        circle = []
        i = start
        while not seen[i]:
            seen[i] = seen[other[i]] = 1
            circle.append(i)
            i = other[i ^ 2]
        yield circle


def walk_oriented(flat, other, over_in):
    """Circles along the stored directions, given the tables of
    `far_ends`: each from the head slot of its minimal arc, slot 0 or
    over_in."""
    heads = [4 * k + s for k, o in enumerate(over_in) for s in (UNDER_IN, o)]
    return list(_walk(flat, other, heads))


def walk_unoriented(flat, other):
    """Circles with stored directions ignored, given the tables of
    `far_ends`: each from the first slot of its minimal arc."""
    return list(_walk(flat, other, [i for i, j in enumerate(other) if i < j]))


def walk_tangle(flat, other, ends):
    """The walk of a tangle whose boundary points are the last `ends`
    slots of the tables of `far_ends`: each strand from its earlier
    boundary point, in boundary order, then the closed circles as
    `walk_unoriented` walks them.  Returns the circles and the Brauer
    diagram, the boundary point each boundary point is joined to."""
    body = len(flat) - ends
    seen = bytearray(len(flat))
    circles, partner = [], [0] * ends
    for p in range(body, len(flat)):
        if seen[p]:
            continue
        circle = []
        i = other[p]
        while i < body:
            seen[i] = seen[i ^ 2] = 1
            circle.append(i)
            i = other[i ^ 2]
        seen[i] = 1
        partner[p - body], partner[i - body] = i - body, p - body
        circles.append(circle)
    circles += _walk(flat, other, [i for i in range(body) if i < other[i] and not seen[i]])
    return circles, tuple(partner)


def _trace_oriented(crossings, over_in):
    """Arc cycles of `walk_oriented`."""
    flat, other = far_ends(crossings)
    return [tuple(flat[i] for i in circle) for circle in walk_oriented(flat, other, over_in)]


def _trace_unoriented(flat, other, kept):
    """Arc cycles of `walk_unoriented` through the crossings `kept` of the
    tables of `far_ends`, whose slots reach only each other, with their
    records rotated so slot 0 is again the incoming under-strand: returns
    (crossings, over_in, cycles)."""
    circles = list(_walk(flat, other, [i for k in kept for i in range(4 * k, 4 * k + 4)
                                       if i < other[i]]))
    entered = {i for circle in circles for i in circle}
    new_crossings, over_in = [], []
    for k in kept:
        rec = tuple(flat[4 * k:4 * k + 4])
        o = 1 if 4 * k + 1 in entered else 3
        if 4 * k + UNDER_OUT in entered:
            rec, o = rec[2:] + rec[:2], o ^ 2
        new_crossings.append(rec)
        over_in.append(o)
    return new_crossings, over_in, [tuple(flat[i] for i in circle) for circle in circles]


class LinkDiagram:
    """Oriented, colored PD-coded link diagram.

    crossings: tuple of 4-tuples of arc ids (slot convention above).
    components: tuple of arc cycles in traversal order; a crossing-free
        unknot component is a 1-cycle whose arc appears in no crossing.
    colors: one color per component, onto {1..n}.
    braid: the `BraidWord` a diagram of `braid_closure` closes, kept by
        `recolor`, `monochrome` and `with_name`; None on every other
        diagram, surgery results included.  Equality, hashing and
        `render_pd` ignore it.

    The constructor validates its arguments and derives the over-strand
    directions; surgery results come from `_make`, which derives only.
    """

    __slots__ = ("crossings", "components", "colors", "name", "braid",
                 "heads", "tails", "over_in", "signs", "comp_of_arc")

    def __init__(self, crossings, components, colors, name=None, over_in=None):
        crossings = tuple(tuple(int(a) for a in rec) for rec in crossings)
        components = tuple(tuple(int(a) for a in cyc) for cyc in components)
        colors = tuple(int(c) for c in colors)
        for attr, value in (("crossings", crossings), ("components", components),
                            ("colors", colors), ("name", name), ("braid", None)):
            object.__setattr__(self, attr, value)
        self._derive(self._validate(tuple(over_in) if over_in is not None else None))

    @classmethod
    def _make(cls, crossings, components, colors, over_in, name=None) -> "LinkDiagram":
        """Trusted constructor for surgery on a validated diagram: the
        arguments are tuples of ints that `_validate` would accept, so only
        the derived fields are computed."""
        self = object.__new__(cls)
        for attr, value in (("crossings", crossings), ("components", components),
                            ("colors", colors), ("name", name), ("braid", None)):
            object.__setattr__(self, attr, value)
        self._derive(over_in)
        return self

    def _closing(self, braid) -> "LinkDiagram":
        """This diagram, just built, recorded as the closure of `braid`."""
        object.__setattr__(self, "braid", braid)
        return self

    def __setattr__(self, *args):
        raise AttributeError("LinkDiagram is immutable")

    # -- validation ----------------------------------------------------------

    def _validate(self, hint):
        """Check outside input and return its over-strand directions.

        The directions live on the slots of the `far_ends` table: +1 where
        the strand enters, -1 where it leaves, 0 while unknown.  The
        under-strand enters at slot 0; the over-strand's entry comes from
        the hint or is inferred from the component order."""
        crossings = self.crossings
        for ci, rec in enumerate(crossings):
            if len(rec) != 4:
                raise DiagramError(f"crossing {ci} does not have 4 slots")
        flat, other = far_ends(crossings)

        comp_of_arc, succ = {}, {}
        for k, cyc in enumerate(self.components):
            if not cyc:
                raise DiagramError(f"component {k} is empty")
            for i, arc in enumerate(cyc):
                if arc in comp_of_arc:
                    raise DiagramError(f"arc {arc} listed in two components")
                comp_of_arc[arc] = k
                succ[arc] = cyc[i + 1 - len(cyc)]
        for i, arc in enumerate(flat):
            if arc not in comp_of_arc:
                raise DiagramError(f"arc {arc} appears in a crossing but in no component")
            if other[i] == i or other[other[i]] != i:
                raise DiagramError(
                    f"arc {arc} used {flat.count(arc)} times in crossings, expected 2")
        used = set(flat)
        for k, cyc in enumerate(self.components):
            loose = [arc for arc in cyc if arc not in used]
            if loose and len(cyc) > 1:  # a one-arc component may be crossing-free
                raise DiagramError(f"arc {loose[0]} of component {k} touches no crossing")

        way = [0] * len(flat)

        def enter(ci, s):
            # the strand enters crossing ci at slot s and leaves at s ^ 2
            for i, d, end in ((4 * ci + s, 1, "incoming"), (4 * ci + (s ^ 2), -1, "outgoing")):
                if way[other[i]] == d:
                    raise DiagramError(f"arc {flat[i]} has two {end} ends")
                way[i] = d

        for ci, rec in enumerate(crossings):
            if succ[rec[UNDER_IN]] != rec[UNDER_OUT]:
                raise DiagramError(
                    f"crossing {ci}: under-strand {rec[UNDER_IN]}->{rec[UNDER_OUT]} "
                    "contradicts component orientation")
            enter(ci, UNDER_IN)

        if hint is not None:
            if len(hint) != len(crossings):
                raise DiagramError("over_in hint length mismatch")
            for ci, (rec, s) in enumerate(zip(crossings, hint)):
                if s not in (1, 3):
                    raise DiagramError("over_in entries must be 1 or 3")
                if succ[rec[s]] != rec[s ^ 2]:
                    raise DiagramError(
                        f"crossing {ci}: declared over-strand direction "
                        "contradicts component orientation")
                enter(ci, s)
        else:
            # a direction is possible when it matches the component
            # successor and neither far end is already claimed the same way
            progress = True
            while progress:
                progress = False
                for ci, rec in enumerate(crossings):
                    if way[4 * ci + 1]:
                        continue
                    far1, far3 = way[other[4 * ci + 1]], way[other[4 * ci + 3]]
                    can1 = succ[rec[1]] == rec[3] and far1 != 1 and far3 != -1
                    can3 = succ[rec[3]] == rec[1] and far3 != 1 and far1 != -1
                    if not can1 and not can3:
                        raise DiagramError(
                            f"crossing {ci}: over-strand direction inconsistent "
                            "with component orientation")
                    if can1 != can3:
                        enter(ci, 1 if can1 else 3)
                        progress = True
            undecided = [ci for ci in range(len(crossings)) if not way[4 * ci + 1]]
            if undecided:
                raise DiagramError(
                    f"over-strand direction ambiguous at crossings {undecided}; "
                    "construct the diagram with over_in")

        if len(self.colors) != len(self.components):
            raise DiagramError("coloring arity mismatch: one color per component required")
        palette = sorted(set(self.colors))
        if palette != list(range(1, len(palette) + 1)):
            raise DiagramError("coloring must be onto {1..n}")
        return tuple(1 if way[4 * ci + 1] == 1 else 3 for ci in range(len(crossings)))

    def _derive(self, over_in):
        """Set the fields that follow from the crossings, the components
        and the over-strand directions."""
        heads, tails = {}, {}
        for ci, rec in enumerate(self.crossings):
            o = over_in[ci]
            heads[rec[UNDER_IN]], heads[rec[o]] = (ci, UNDER_IN), (ci, o)
            tails[rec[UNDER_OUT]], tails[rec[o ^ 2]] = (ci, UNDER_OUT), (ci, o ^ 2)
        signs = tuple(1 if o == 3 else -1 for o in over_in)
        comp_of_arc = {arc: k for k, cyc in enumerate(self.components) for arc in cyc}
        for attr, value in (("over_in", over_in), ("signs", signs), ("heads", heads),
                            ("tails", tails), ("comp_of_arc", comp_of_arc)):
            object.__setattr__(self, attr, value)

    # -- basics ----------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.components)

    @property
    def n_colors(self) -> int:
        return max(self.colors) if self.colors else 0

    def arcs(self):
        return sorted(a for cyc in self.components for a in cyc)

    def sign(self, ci: int) -> int:
        return self.signs[ci]

    def writhe(self) -> int:
        return sum(self.signs)

    def strands_at(self, ci: int):
        """(under component, over component) at a crossing."""
        rec = self.crossings[ci]
        return self.comp_of_arc[rec[UNDER_IN]], self.comp_of_arc[rec[1]]

    def linking_matrix(self):
        m = self.m
        mat = [[0] * m for _ in range(m)]
        for ci, rec in enumerate(self.crossings):
            cu = self.comp_of_arc[rec[UNDER_IN]]
            co = self.comp_of_arc[rec[1]]
            if cu != co:
                mat[cu][co] += self.signs[ci]
                mat[co][cu] += self.signs[ci]
        for i in range(m):
            for j in range(m):
                if i != j:
                    q, r = divmod(mat[i][j], 2)
                    if r:
                        raise DiagramError("odd inter-component crossing sum")
                    mat[i][j] = q
        return mat

    def total_linking(self, i: int) -> dict:
        """Sum of linking numbers of component i with each color class."""
        lm = self.linking_matrix()
        out: dict = {}
        for j in range(self.m):
            if j == i:
                continue
            out[self.colors[j]] = out.get(self.colors[j], 0) + lm[i][j]
        return out

    def is_split(self) -> bool:
        """True iff the underlying 4-valent graph is disconnected."""
        return disconnected(self, far_ends(self.crossings)[1])

    def __eq__(self, other):
        if not isinstance(other, LinkDiagram):
            return NotImplemented
        return (self.crossings == other.crossings
                and self.components == other.components
                and self.colors == other.colors
                and self.over_in == other.over_in)

    def __hash__(self):
        return hash((self.crossings, self.components, self.colors, self.over_in))

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<LinkDiagram{tag}: {len(self.crossings)} crossings, {self.m} components>"

    # -- recoloring and reassembly helpers ---------------------------------

    def recolor(self, colors) -> "LinkDiagram":
        return LinkDiagram(self.crossings, self.components, colors, self.name,
                           over_in=self.over_in)._closing(self.braid)

    def monochrome(self) -> "LinkDiagram":
        if all(c == 1 for c in self.colors):
            return self
        return LinkDiagram._make(self.crossings, self.components, (1,) * self.m,
                                 self.over_in, self.name)._closing(self.braid)

    def with_name(self, name) -> "LinkDiagram":
        return LinkDiagram._make(self.crossings, self.components, self.colors,
                                 self.over_in, name)._closing(self.braid)

    # -- surgery -------------------------------------------------------------

    def _check_crossing(self, ci):
        if not 0 <= ci < len(self.crossings):
            raise DiagramError(f"unknown crossing id {ci}")

    def switch(self, ci: int) -> "LinkDiagram":
        """Swap over/under at one crossing; the sign negates."""
        self._check_crossing(ci)
        rec = self.crossings[ci]
        if self.over_in[ci] == 3:
            new = (rec[3], rec[0], rec[1], rec[2])
            new_over = 1
        else:
            new = (rec[1], rec[2], rec[3], rec[0])
            new_over = 3
        crossings = self.crossings[:ci] + (new,) + self.crossings[ci + 1:]
        over_in = self.over_in[:ci] + (new_over,) + self.over_in[ci + 1:]
        return LinkDiagram._make(crossings, self.components, self.colors, over_in)

    def smooth_oriented(self, ci: int) -> "LinkDiagram":
        """Oriented smoothing; the component count changes by exactly one."""
        self._check_crossing(ci)
        o_in = 4 * ci + self.over_in[ci]
        return self._resolve({ci}, ((4 * ci, o_in ^ 2), (o_in, 4 * ci + UNDER_OUT)), (), False)

    def smooth_infinity(self, ci: int) -> "LinkDiagram":
        """The other planar smoothing; orientations are re-derived, so the
        result should be treated as unoriented downstream."""
        self._check_crossing(ci)
        o_in = 4 * ci + self.over_in[ci]
        return self._resolve({ci}, ((4 * ci, o_in), (4 * ci + UNDER_OUT, o_in ^ 2)), (), True)

    def _resolve(self, dropped, joins, gone, reorient: bool):
        """The one rebuild after arcs join, shared by every surgery: drop
        the crossings in `dropped`, join the arcs at each pair of slots in
        `joins` (slot s of crossing c at 4c + s, every slot at a dropped
        crossing) by `relink`, and forget the arcs in `gone` (those of
        deleted components).

        The labels are canonical, so the output is deterministic (the
        union-find oracle of the tests pins it): a joined arc keeps the
        least label it absorbed, a pair that is already one arc closes off
        a crossing-free circle, each component starts at its minimal arc
        and components are ordered by it, a component takes the least color
        of the arcs it absorbed, and colors are renumbered onto 1..n in
        their old order.  With `reorient` the directions are re-derived by
        walking each cycle from its minimal arc (the unoriented smoothing).
        The result is built by `_make`, unchecked.
        """
        flat, other = far_ends(self.crossings)
        hue = {arc: self.colors[k] for arc, k in self.comp_of_arc.items()}  # arc -> least color
        loops = self._free_loops(gone)
        for a, b in joins:
            la, lb = flat[a], flat[b]
            if relink(flat, other, a, b):
                hue[min(la, lb)] = min(hue[la], hue[lb])
            else:
                loops.append(la)
        # the relinked tables are the far ends of the kept crossings: their
        # slots reach only each other, so the walks start from them alone
        kept = [k for k in range(len(self.crossings)) if k not in dropped]
        if reorient:
            crossings, over_in, comps = _trace_unoriented(flat, other, kept)
        else:
            crossings = [tuple(flat[4 * k:4 * k + 4]) for k in kept]
            over_in = [self.over_in[k] for k in kept]
            heads = [4 * k + s for k in kept for s in (UNDER_IN, self.over_in[k])]
            comps = [tuple(flat[i] for i in circle) for circle in _walk(flat, other, heads)]
        comps += [(arc,) for arc in loops]
        colors = [min(hue[a] for a in cyc) for cyc in comps]
        comps, colors = self._canon_components(comps, colors)
        return LinkDiagram._make(tuple(crossings), comps, colors, tuple(over_in))

    def _free_loops(self, skip_arcs):
        return [cyc[0] for cyc in self.components
                if len(cyc) == 1 and cyc[0] not in self.heads and cyc[0] not in skip_arcs]

    @staticmethod
    def _canon_components(comps, colors):
        def rotated(cyc):
            i = cyc.index(min(cyc))
            return cyc[i:] + cyc[:i]

        comps = [rotated(tuple(c)) for c in comps]
        order = sorted(range(len(comps)), key=lambda k: comps[k][0])
        comps = tuple(comps[k] for k in order)
        colors = [colors[k] for k in order]
        palette = sorted(set(colors))
        remap = {c: i + 1 for i, c in enumerate(palette)}
        return comps, tuple(remap[c] for c in colors)

    def reverse_component(self, i: int) -> "LinkDiagram":
        if not 0 <= i < self.m:
            raise DiagramError(f"component index {i} out of range")
        cyc = self.components[i]
        arcs = set(cyc)
        new_crossings = []
        over_in = []
        for ci, rec in enumerate(self.crossings):
            under_rev = rec[UNDER_IN] in arcs
            over_rev = rec[1] in arcs
            o = self.over_in[ci]
            if under_rev:
                new_crossings.append((rec[2], rec[3], rec[0], rec[1]))
                # slots shift by 2; a reversed over-strand shifts back
                over_in.append(o if over_rev else (o + 2) % 4)
            else:
                new_crossings.append(rec)
                over_in.append((o + 2) % 4 if over_rev else o)
        comps = list(self.components)
        comps[i] = tuple(reversed(cyc))
        comps, colors = self._canon_components(comps, self.colors)
        return LinkDiagram._make(tuple(new_crossings), comps, colors, tuple(over_in))

    def delete_component(self, i: int) -> "LinkDiagram":
        """Remove one component, healing the crossings it participated in."""
        if not 0 <= i < self.m:
            raise DiagramError(f"component index {i} out of range")
        return self._delete(set(self.components[i]))

    def component(self, j: int) -> "LinkDiagram":
        """Component j alone: every other component deleted in one pass,
        labelled as deleting them one at a time would label it."""
        if not 0 <= j < self.m:
            raise DiagramError(f"component index {j} out of range")
        if self.m == 1:
            return self
        return self._delete({a for k, cyc in enumerate(self.components) if k != j
                             for a in cyc})

    def _delete(self, gone):
        """Drop every crossing that touches the arcs in `gone`; where only
        one strand goes, the other one heals across the crossing."""
        dropped = set()
        joins = []
        for ci, rec in enumerate(self.crossings):
            under_gone = rec[UNDER_IN] in gone
            over_gone = rec[1] in gone
            if under_gone or over_gone:
                dropped.add(ci)
            if under_gone and not over_gone:
                o_in = 4 * ci + self.over_in[ci]
                joins.append((o_in, o_in ^ 2))
            elif over_gone and not under_gone:
                joins.append((4 * ci + UNDER_IN, 4 * ci + UNDER_OUT))
        return self._resolve(dropped, joins, gone, False)

    def connected_sum(self, other: "LinkDiagram", i: int, j: int) -> "LinkDiagram":
        """Band the i-th component of self to the j-th component of other.

        Both diagrams must use the same color palette semantics and the two
        banded components must carry the same color.  The band is attached
        at the first arc of each chosen component.
        """
        if not 0 <= i < self.m:
            raise DiagramError(f"component index {i} out of range")
        if not 0 <= j < other.m:
            raise DiagramError(f"component index {j} out of range")
        ocolors = other.colors
        if other.n_colors == 1 and self.colors[i] != 1:
            # a monochromatic summand adopts the color it is tied onto
            ocolors = (self.colors[i],) * other.m
        if self.colors[i] != ocolors[j]:
            raise DiagramError("connected sum requires equal colors on the banded components")
        shift = max(self.arcs(), default=0)
        b_cross = [tuple(a + shift for a in rec) for rec in other.crossings]
        b_comps = [tuple(a + shift for a in cyc) for cyc in other.components]

        cyc_a = list(self.components[i])
        cyc_b = list(b_comps[j])
        a_free = cyc_a[0] not in self.heads
        b_free = other.components[j][0] not in other.heads

        crossings = self.crossings + tuple(b_cross)
        rest_comps = [c for k, c in enumerate(self.components) if k != i] + \
                     [c for k, c in enumerate(b_comps) if k != j]
        rest_colors = [self.colors[k] for k in range(self.m) if k != i] + \
                      [ocolors[k] for k in range(other.m) if k != j]

        if a_free and b_free:
            # band of two crossing-free circles is one crossing-free circle
            merged = (cyc_a[0],)
        elif a_free:
            merged = tuple(cyc_b)
        elif b_free:
            merged = tuple(cyc_a)
        else:
            u = max([shift] + [x for cyc in b_comps for x in cyc]) + 1
            v = u + 1
            new_a = [list(rec) for rec in self.crossings]
            arc_a, arc_b = cyc_a[0], cyc_b[0]
            ta, ha = self.tails[arc_a], self.heads[arc_a]
            new_a[ta[0]][ta[1]] = u
            new_a[ha[0]][ha[1]] = v
            new_b = [list(rec) for rec in b_cross]
            hb = other.heads[arc_b - shift]
            tb = other.tails[arc_b - shift]
            new_b[hb[0]][hb[1]] = u
            new_b[tb[0]][tb[1]] = v
            crossings = tuple(tuple(rec) for rec in new_a + new_b)
            merged = (u,) + tuple(cyc_b[1:]) + (v,) + tuple(cyc_a[1:])

        comps = [merged] + rest_comps
        colors = [self.colors[i]] + rest_colors
        comps2, colors2 = self._canon_components(comps, colors)
        return LinkDiagram._make(crossings, comps2, colors2, self.over_in + other.over_in)

    # -- rendering -----------------------------------------------------------

    def render_pd(self) -> str:
        toks = [f"X[{a},{b},{c},{d}]" for (a, b, c, d) in self.crossings]
        toks += [f"O[{a}]" for a in self._free_loops(())]
        comp_str = "[" + ",".join("[" + ",".join(map(str, cyc)) + "]"
                                  for cyc in self.components) + "]"
        col_str = "[" + ",".join(map(str, self.colors)) + "]"
        lines = [" ".join(toks), f"components: {comp_str}", f"colors: {col_str}"]
        try:
            LinkDiagram(self.crossings, self.components, self.colors)
        except DiagramError:
            # over-strand directions not inferable from the cycles alone
            lines.append("overin: [" + ",".join(map(str, self.over_in)) + "]")
        if self.name:
            lines.append(f"name: {self.name}")
        return "\n".join(lines)


# -- parsing ------------------------------------------------------------------

_TOKEN = re.compile(r"([XOS])\[([^\]]*)\]")
_SECTION = re.compile(r"(components|colors|overin|name)\s*:\s*(.*)")
_ECHO_LIMIT = 40  # characters of bad input quoted in an error message


def _excerpt(raw: str) -> str:
    if len(raw) <= _ECHO_LIMIT:
        return repr(raw)
    return repr(raw[:_ECHO_LIMIT]) + "..."


def _excerpt_int(value: int) -> str:
    """An integer as it is written, or `_excerpt` of it past _ECHO_LIMIT
    characters."""
    text = str(value)
    return text if len(text) <= _ECHO_LIMIT else _excerpt(text)


def _is_int_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(type(v) is int for v in value)


def _parse_sections(text: str):
    crossings = []
    marks = []
    free = []  # (arc, offset) of each O token
    components = None
    colors = None
    over_in = None
    name = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        sec = _SECTION.match(line)
        if sec:
            key, raw = sec.group(1), sec.group(2).strip()
            if key == "name":
                name = raw
                continue
            where = text.index(raw) if raw else None
            try:
                value = ast.literal_eval(raw)
            except (SyntaxError, ValueError, RecursionError, MemoryError):
                # the last two: nesting too deep for the Python parser
                raise ParseError(f"cannot parse {key} block: {_excerpt(raw)}", where)
            if key == "components":
                if not (isinstance(value, (list, tuple)) and all(map(_is_int_list, value))):
                    raise ParseError("components block must be a list of lists of integers",
                                     where)
            elif not _is_int_list(value):
                raise ParseError(f"{key} block must be a list of integers", where)
            if key == "components":
                components = value
            elif key == "overin":
                over_in = value
            else:
                colors = value
            continue
        pos = 0
        while pos < len(line):
            chunk = line[pos:].lstrip()
            if not chunk:
                break
            lead = len(line) - pos - len(chunk)
            offset = text.index(line) + pos + lead
            mo = _TOKEN.match(chunk)
            if not mo:
                raise ParseError(f"unrecognized token {_excerpt(chunk.split()[0])}", offset)
            kind, body = mo.group(1), mo.group(2)
            try:
                nums = [int(s) for s in body.split(",")] if body.strip() else []
            except ValueError:
                raise ParseError(f"non-integer arc label in {_excerpt(mo.group(0))}", offset)
            if kind == "O":
                if len(nums) != 1:
                    raise ParseError("O token takes exactly one arc", offset)
                free.append((nums[0], offset))
            else:
                if len(nums) != 4:
                    raise ParseError(f"{kind} token takes exactly four arcs", offset)
                if kind == "S":
                    marks.append(len(crossings))
                crossings.append(tuple(nums))
            pos = pos + lead + mo.end()
    if components is None:
        raise ParseError("missing components block")
    crossing_arcs = {a for rec in crossings for a in rec}
    loops = {cyc[0] for cyc in components if len(cyc) == 1} - crossing_arcs
    seen = set()
    for arc, offset in free:
        if arc in seen:
            raise ParseError(f"repeated O[{arc}]", offset)
        if arc not in loops:
            raise ParseError(f"O[{arc}] is not a crossing-free one-arc component", offset)
        seen.add(arc)
    if colors is None:
        colors = [1] * len(components)
    return crossings, marks, components, colors, over_in, name


def parse_pd(text: str) -> LinkDiagram:
    crossings, marks, components, colors, over_in, name = _parse_sections(text)
    if marks:
        raise ParseError("S tokens present: use parse_singular for singular links")
    return LinkDiagram(crossings, components, colors, name, over_in=over_in)


class SingularLink:
    """Diagram with a set of crossings marked as colored double points.

    The stored over/under data at marked crossings is a placeholder; a
    resolution assigns each marked crossing a definite sign.
    """

    __slots__ = ("base", "marked")

    def __init__(self, base: LinkDiagram, marked):
        marked = tuple(sorted(set(int(k) for k in marked)))
        for ci in marked:
            if not 0 <= ci < len(base.crossings):
                raise DiagramError(f"marked crossing {ci} out of range")
            cu, co = base.strands_at(ci)
            if base.colors[cu] != base.colors[co]:
                raise DiagramError(
                    f"marked crossing {ci} joins strands of different colors")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "marked", marked)

    def __setattr__(self, *args):
        raise AttributeError("SingularLink is immutable")

    @property
    def points(self) -> int:
        return len(self.marked)

    def resolve(self, signs) -> LinkDiagram:
        """Resolve every marked point to the requested crossing sign (+1/-1)."""
        if len(signs) != len(self.marked):
            raise DiagramError("one sign per marked point required")
        d = self.base
        for ci, eps in zip(self.marked, signs):
            if eps not in (1, -1):
                raise DiagramError("resolution signs must be +1 or -1")
            if d.sign(ci) != eps:
                d = d.switch(ci)
        return d

    def render_pd(self) -> str:
        """The base diagram's rendering with S tokens at the marked crossings."""
        first, _, rest = self.base.render_pd().partition("\n")
        toks = first.split(" ")
        for ci in self.marked:
            toks[ci] = "S" + toks[ci][1:]
        return " ".join(toks) + "\n" + rest


def parse_singular(text: str) -> SingularLink:
    crossings, marks, components, colors, over_in, name = _parse_sections(text)
    base = LinkDiagram(crossings, components, colors, name, over_in=over_in)
    return SingularLink(base, marks)


# -- braids -------------------------------------------------------------------

MAX_STRANDS = 1000  # the closure allocates per strand, so bound it first


class BraidWord:
    """A braid group word: signed generator indices on a fixed strand count."""

    __slots__ = ("strands", "word")

    def __init__(self, strands: int, word):
        word = tuple(int(w) for w in word)
        if strands < 1:
            raise DiagramError("braid needs at least one strand")
        if strands > MAX_STRANDS:
            raise DiagramError(f"braid has more than {MAX_STRANDS} strands")
        for w in word:
            if w == 0 or abs(w) >= strands:
                raise DiagramError(
                    f"generator index {_excerpt_int(w)} out of range for {strands} strands")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "word", word)

    def __setattr__(self, *args):
        raise AttributeError("BraidWord is immutable")


# ASCII digits, as \d and int() take any script's (int() "_" too); the word may wrap
_BRAID = re.compile(r"braid\(([0-9]+)\)\s*:(.*)", re.DOTALL)
_LETTER = re.compile(r"([+-]?)s?([0-9]+)")


def parse_braid(text: str) -> BraidWord:
    mo = _BRAID.match(text.strip())
    if not mo:
        raise ParseError("expected 'braid(n): s1 s1 -s2 ...'")
    try:
        strands = int(mo.group(1))
    except ValueError:  # more digits than int() reads
        raise DiagramError(f"braid has more than {MAX_STRANDS} strands")
    word = []
    for tok in mo.group(2).split():
        letter = _LETTER.fullmatch(tok)
        try:
            word.append(int(letter[1] + letter[2]))
        except (TypeError, ValueError):  # no letter, or more digits than int() reads
            raise ParseError(f"bad braid letter {_excerpt(tok)}", text.index(tok))
    return BraidWord(strands, word)


def braid_closure(b: BraidWord, colors=None, name=None) -> LinkDiagram:
    """Trace closure of a braid word.

    Generator +i passes the strand at position i+1 over the strand at
    position i (so the closure of 'braid(2): 1 1' is the positive Hopf
    link and 'braid(2): 1 1 1' the positive trefoil).
    """
    n = b.strands
    start = list(range(1, n + 1))
    current = start[:]
    next_arc = n + 1
    crossings = []
    for w in b.word:
        i = abs(w) - 1
        a_left, a_right = current[i], current[i + 1]
        out_left, out_right = next_arc, next_arc + 1
        next_arc += 2
        if w > 0:
            # right strand over: under runs left-in -> right-out
            crossings.append((a_left, out_left, out_right, a_right))
        else:
            crossings.append((a_right, a_left, out_left, out_right))
        current[i], current[i + 1] = out_left, out_right
    # close up: the final arc at each position is the start arc there
    rename = dict(zip(current, start))
    crossings = [tuple(rename.get(a, a) for a in rec) for rec in crossings]
    # over-in slot per record construction: positive -> slot 3, negative -> slot 1
    over_in = [3 if w > 0 else 1 for w in b.word]
    # strands that never cross become free loops
    comps = _trace_oriented(crossings, over_in) + [(a,) for a, b in zip(start, current) if a == b]
    comps, _ = LinkDiagram._canon_components(comps, [1] * len(comps))
    if colors is None:
        colors = (1,) * len(comps)
    return LinkDiagram(crossings, comps, colors, name, over_in=over_in)._closing(b)
