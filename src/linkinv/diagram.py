"""Link diagram data model: PD codes, braid words, orientations, surgery.

A crossing record X[a,b,c,d] lists the four incident arcs counterclockwise
starting from the incoming under-strand, so the under-strand runs from
slot 0 to slot 2 and the over-strand occupies slots 1 and 3.  Orientation
is explicit: every component is an ordered cycle of arcs, and the crossing
sign is recomputed from orientation plus over/under data (positive exactly
when the over-strand enters at slot 3).

Diagrams are immutable; all surgery operations return new values.
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


def parts(other):
    """The crossings of each connected part of the diagram graph, found by
    following the far ends `other`: each part in index order, parts by
    first crossing."""
    found = [False] * (len(other) >> 2)
    groups = []
    for c in range(len(found)):
        if not found[c]:
            found[c] = True
            group = [c]
            for x in group:
                for i in range(4 * x, 4 * x + 4):
                    y = other[i] >> 2
                    if not found[y]:
                        found[y] = True
                        group.append(y)
            groups.append(sorted(group))
    return groups


def disconnected(d: "LinkDiagram", other) -> bool:
    """`LinkDiagram.is_split` from the far ends `other` of d's crossings,
    for a caller that has built them."""
    if d.m <= 1:
        return False
    # a crossing-free circle next to anything else is split
    return bool(d._free_loops(())) or len(parts(other)) > 1


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
    """

    __slots__ = ("crossings", "components", "colors", "name",
                 "heads", "tails", "over_in", "signs", "comp_of_arc")

    def __init__(self, crossings, components, colors, name=None, over_in=None):
        crossings = tuple(tuple(int(a) for a in rec) for rec in crossings)
        components = tuple(tuple(int(a) for a in cyc) for cyc in components)
        colors = tuple(int(c) for c in colors)
        for attr, value in (("crossings", crossings), ("components", components),
                            ("colors", colors), ("name", name)):
            object.__setattr__(self, attr, value)
        self._validate(tuple(over_in) if over_in is not None else None)

    def __setattr__(self, *args):
        raise AttributeError("LinkDiagram is immutable")

    # -- validation ----------------------------------------------------------

    def _validate(self, over_in_hint):
        occurrences: dict = {}
        for ci, rec in enumerate(self.crossings):
            if len(rec) != 4:
                raise DiagramError(f"crossing {ci} does not have 4 slots")
            for s, arc in enumerate(rec):
                occurrences.setdefault(arc, []).append((ci, s))

        comp_of_arc = {}
        succ = {}
        for k, cyc in enumerate(self.components):
            if not cyc:
                raise DiagramError(f"component {k} is empty")
            for i, arc in enumerate(cyc):
                if arc in comp_of_arc:
                    raise DiagramError(f"arc {arc} listed in two components")
                comp_of_arc[arc] = k
                succ[arc] = cyc[(i + 1) % len(cyc)]
        for arc, occ in occurrences.items():
            if arc not in comp_of_arc:
                raise DiagramError(f"arc {arc} appears in a crossing but in no component")
            if len(occ) != 2:
                raise DiagramError(f"arc {arc} used {len(occ)} times in crossings, expected 2")
        for k, cyc in enumerate(self.components):
            if len(cyc) == 1 and cyc[0] not in occurrences:
                continue  # crossing-free unknot component
            for arc in cyc:
                if arc not in occurrences:
                    raise DiagramError(f"arc {arc} of component {k} touches no crossing")

        heads: dict = {}
        tails: dict = {}

        def set_head(arc, pos):
            if arc in heads:
                raise DiagramError(f"arc {arc} has two incoming ends")
            heads[arc] = pos

        def set_tail(arc, pos):
            if arc in tails:
                raise DiagramError(f"arc {arc} has two outgoing ends")
            tails[arc] = pos

        # Under transits are forced by the record convention.
        for ci, rec in enumerate(self.crossings):
            if succ.get(rec[UNDER_IN]) != rec[UNDER_OUT]:
                raise DiagramError(
                    f"crossing {ci}: under-strand {rec[UNDER_IN]}->{rec[UNDER_OUT]} "
                    "contradicts component orientation")
            set_head(rec[UNDER_IN], (ci, UNDER_IN))
            set_tail(rec[UNDER_OUT], (ci, UNDER_OUT))

        over_in = [None] * len(self.crossings)
        if over_in_hint is not None:
            if len(over_in_hint) != len(self.crossings):
                raise DiagramError("over_in hint length mismatch")
            for ci, s in enumerate(over_in_hint):
                if s not in (1, 3):
                    raise DiagramError("over_in entries must be 1 or 3")
                rec = self.crossings[ci]
                if succ.get(rec[s]) != rec[(s + 2) % 4]:
                    raise DiagramError(
                        f"crossing {ci}: declared over-strand direction "
                        "contradicts component orientation")
                set_head(rec[s], (ci, s))
                set_tail(rec[(s + 2) % 4], (ci, (s + 2) % 4))
                over_in[ci] = s
        else:
            # Infer over-strand directions by constraint propagation; a
            # direction is possible when it matches the component successor
            # and neither end is already claimed.
            undecided = set(range(len(self.crossings)))
            progress = True
            while undecided and progress:
                progress = False
                for ci in sorted(undecided):
                    rec = self.crossings[ci]
                    p, q = rec[1], rec[3]
                    can1 = succ.get(p) == q and p not in heads and q not in tails
                    can3 = succ.get(q) == p and q not in heads and p not in tails
                    if not can1 and not can3:
                        raise DiagramError(
                            f"crossing {ci}: over-strand direction inconsistent "
                            "with component orientation")
                    if can1 != can3:
                        s = 1 if can1 else 3
                        set_head(rec[s], (ci, s))
                        set_tail(rec[(s + 2) % 4], (ci, (s + 2) % 4))
                        over_in[ci] = s
                        undecided.discard(ci)
                        progress = True
            if undecided:
                raise DiagramError(
                    "over-strand direction ambiguous at crossings "
                    f"{sorted(undecided)}; construct the diagram with over_in")

        for arc in occurrences:
            if arc not in heads or arc not in tails:
                raise DiagramError(f"arc {arc} is missing an endpoint assignment")

        m = len(self.components)
        if len(self.colors) != m:
            raise DiagramError("coloring arity mismatch: one color per component required")
        palette = sorted(set(self.colors))
        if palette != list(range(1, len(palette) + 1)):
            raise DiagramError("coloring must be onto {1..n}")

        signs = tuple(1 if o == 3 else -1 for o in over_in)
        object.__setattr__(self, "heads", heads)
        object.__setattr__(self, "tails", tails)
        object.__setattr__(self, "over_in", tuple(over_in))
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "comp_of_arc", comp_of_arc)

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
                           over_in=self.over_in)

    def monochrome(self) -> "LinkDiagram":
        if all(c == 1 for c in self.colors):
            return self
        return self.recolor((1,) * self.m)

    def with_name(self, name) -> "LinkDiagram":
        return LinkDiagram(self.crossings, self.components, self.colors, name,
                           over_in=self.over_in)

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
        return LinkDiagram(crossings, self.components, self.colors, over_in=over_in)

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

        The labels are canonical, so the output is deterministic and one
        diagram reached by different surgeries gets one `conway` memo key
        (`skein._key`): a joined arc keeps the least label it absorbed, a
        pair that is already one arc closes off a crossing-free circle,
        each component starts at its minimal arc and components are ordered
        by it, a component takes the least color of the arcs it absorbed,
        and colors are renumbered onto 1..n in their old order.
        With `reorient` the directions are re-derived by walking each
        cycle from its minimal arc (the unoriented smoothing).
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
        return LinkDiagram(crossings, comps, colors, over_in=over_in)

    def _free_loops(self, skip_arcs):
        return [cyc[0] for cyc in self.components
                if len(cyc) == 1 and cyc[0] not in self.heads and cyc[0] not in skip_arcs]

    @staticmethod
    def _canon_components(comps, colors):
        def rotated(cyc):
            if len(cyc) <= 1:
                return tuple(cyc)
            i = cyc.index(min(cyc))
            return tuple(cyc[i:] + cyc[:i])

        comps = [rotated(list(c)) for c in comps]
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
        return LinkDiagram(new_crossings, comps, colors, over_in=over_in)

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
        b_free = b_comps[j][0] not in {x + shift for x in other.heads}

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
        return LinkDiagram(crossings, comps2, colors2,
                           over_in=self.over_in + other.over_in)

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
                raise DiagramError(f"generator index {w} out of range for {strands} strands")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "word", word)

    def __setattr__(self, *args):
        raise AttributeError("BraidWord is immutable")


_BRAID = re.compile(r"braid\((\d+)\)\s*:\s*(.*)")


def parse_braid(text: str) -> BraidWord:
    mo = _BRAID.match(text.strip())
    if not mo:
        raise ParseError("expected 'braid(n): s1 s1 -s2 ...'")
    strands = int(mo.group(1))
    word = []
    for tok in mo.group(2).split():
        t = tok.replace("s", "")
        try:
            word.append(int(t))
        except ValueError:
            raise ParseError(f"bad braid letter {_excerpt(tok)}", text.index(tok))
    return BraidWord(strands, word)


def braid_closure(b: BraidWord, colors=None, name=None) -> LinkDiagram:
    """Trace closure of a braid word.

    Generator +i passes the strand at position i+1 over the strand at
    position i (so the closure of 'braid(2): 1 1' is the positive Hopf
    link and 'braid(2): 1 1 1' the positive trefoil).
    """
    n = b.strands
    next_arc = 1
    current = []
    start = []
    for _ in range(n):
        current.append(next_arc)
        start.append(next_arc)
        next_arc += 1
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
    comps = _trace_oriented(crossings, over_in)
    # strands that never cross become free loops
    crossing_arcs = {a for rec in crossings for a in rec}
    for p in range(n):
        if start[p] not in crossing_arcs and start[p] == current[p]:
            comps.append((start[p],))
    comps, _ = LinkDiagram._canon_components(comps, [1] * len(comps))
    if colors is None:
        colors = (1,) * len(comps)
    if len(colors) != len(comps):
        raise DiagramError("coloring arity mismatch for braid closure")
    return LinkDiagram(crossings, comps, colors, name, over_in=over_in)
