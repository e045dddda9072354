"""Diagram and polynomial helpers shared by the tests; not part of the
library's interface."""

import argparse
from fractions import Fraction
from math import comb, factorial, lcm

from linkinv.alexander import PotentialFunction
from linkinv.algebra import LaurentPolynomial, TruncatedSeries, _pack, _unpack, fox_determinant
from linkinv.cli import cmd_decompose, cmd_invariants, cmd_polys, cmd_verify
from linkinv.diagram import UNDER_IN, UNDER_OUT, DiagramError, LinkDiagram, _trace_oriented, \
    _trace_unoriented, far_ends, parse_pd
from linkinv.skein import _CORNERS, _DELTA_D, _DELTA_H, _FLIPPED, _HOMFLY_FACTORS, _X, _Y, \
    _descend, _faces, _key
from linkinv.suites import SUITES
from linkinv.transforms import DEFAULT_CAP, _CH, CoefficientTable, _pascal, _sinh_unit


def dict_validate(self, over_in_hint):
    """The oracle for `LinkDiagram._validate`, as it was before it moved
    onto the far-end table: per-arc dicts of occurrences, successors,
    heads and tails.  `self` is any object with crossings, components and
    colors; the derived fields are set on it."""
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


def mutated_inputs(diagrams, rng, count):
    """`count` (crossings, components, colors, over_in) inputs, each one
    of `diagrams` with one or two random faults: an arc rewritten, a record
    rotated, permuted or cut short, a component reversed, shortened or
    given a new arc, the over_in hint corrupted or dropped, or a color
    changed or dropped.  Some stay valid."""
    out = []
    for _ in range(count):
        d = rng.choice(diagrams)
        crossings = [list(rec) for rec in d.crossings]
        components = [list(cyc) for cyc in d.components]
        colors = list(d.colors)
        over_in = list(d.over_in)
        arcs = d.arcs() or [1]
        for _ in range(rng.randint(1, 2)):
            fault = rng.randrange(10)
            if fault == 0 and crossings:
                rec = rng.choice(crossings)
                rec[rng.randrange(len(rec))] = rng.choice(arcs + [max(arcs) + 1])
            elif fault == 1 and crossings:
                rec = rng.choice(crossings)
                k = rng.randrange(1, len(rec))
                rec[:] = rec[k:] + rec[:k]
            elif fault == 2 and crossings:
                rng.shuffle(rng.choice(crossings))
            elif fault == 3:
                cyc = rng.choice(components)
                cyc.reverse()
                if over_in and rng.random() < 0.5:  # and its over-strands' hints
                    over_in = [4 - o if rec[1] in cyc else o for o, rec in zip(over_in, crossings)]
            elif fault == 4:
                cyc = rng.choice(components)
                del cyc[rng.randrange(len(cyc) or 1):]
            elif fault == 5 and over_in:
                over_in[rng.randrange(len(over_in))] = rng.choice((0, 1, 2, 3))
            elif fault == 6 and over_in is not None:
                over_in = None if rng.random() < 0.8 else over_in[:-1]
            elif fault == 7 and colors:
                colors[rng.randrange(len(colors))] = rng.randint(1, len(colors) + 1)
            elif fault == 8 and colors:
                (rng.choice(crossings) if crossings and rng.random() < 0.5 else colors).pop()
            elif fault == 9:
                cyc = rng.choice(components)
                cyc.insert(rng.randint(0, len(cyc)), max(arcs) + 1)
        out.append((crossings, components, colors, over_in))
    return out


def uf_find(parent: dict, a):
    """Root of a's class in a dict-backed union-find, compressing the path."""
    root = a
    while parent.get(root, root) != root:
        root = parent[root]
    while parent.get(a, a) != a:
        parent[a], a = root, parent[a]
    return root


def uf_union(parent: dict, a, b) -> bool:
    """Merge the classes of a and b under the smaller root, so every root
    is the minimum of its class; False when they were already one class."""
    a, b = uf_find(parent, a), uf_find(parent, b)
    if a == b:
        return False
    if a < b:
        parent[b] = a
    else:
        parent[a] = b
    return True


def uf_resolve(d: LinkDiagram, dropped, merges, gone, reorient: bool) -> LinkDiagram:
    """The oracle for `LinkDiagram._resolve`: drop the crossings in
    `dropped`, merge each pair of arc labels in `merges` in a union-find
    whose roots are class minima, and forget the arcs in `gone`; a pair
    already one class closes off a crossing-free circle, and each class
    takes the least color of its arcs."""
    parent: dict = {}
    loops = d._free_loops(gone)
    for a, b in merges:
        if not uf_union(parent, a, b):
            loops.append(uf_find(parent, a))
    crossings, over_in = [], []
    for k, rec in enumerate(d.crossings):
        if k not in dropped:
            crossings.append(tuple(uf_find(parent, a) for a in rec))
            over_in.append(d.over_in[k])
    color_of_root: dict = {}
    for arc, comp in d.comp_of_arc.items():
        if arc not in gone:
            root = uf_find(parent, arc)
            c = d.colors[comp]
            color_of_root[root] = min(color_of_root.get(root, c), c)
    if reorient:
        crossings, over_in, comps = _trace_unoriented(*far_ends(crossings), range(len(crossings)))
    else:
        comps = _trace_oriented(crossings, over_in)
    comps += [(arc,) for arc in loops]
    colors = [min(color_of_root[a] for a in cyc) for cyc in comps]
    comps, colors = d._canon_components(comps, colors)
    return LinkDiagram(crossings, comps, colors, over_in=over_in)


def uf_smooth(d: LinkDiagram, ci: int, oriented: bool) -> LinkDiagram:
    """The oracle for `smooth_oriented` (or, not `oriented`,
    `smooth_infinity`) by arc merges in `uf_resolve`."""
    rec, o = d.crossings[ci], d.over_in[ci]
    if oriented:
        merges = ((rec[UNDER_IN], rec[(o + 2) % 4]), (rec[o], rec[UNDER_OUT]))
    else:
        merges = ((rec[UNDER_IN], rec[o]), (rec[UNDER_OUT], rec[(o + 2) % 4]))
    return uf_resolve(d, {ci}, merges, (), not oriented)


def uf_delete(d: LinkDiagram, keep) -> LinkDiagram:
    """The oracle for `delete_component` and `component`: every component
    not in `keep` deleted by arc merges in `uf_resolve`."""
    gone = {a for k, cyc in enumerate(d.components) if k not in keep for a in cyc}
    dropped, merges = set(), []
    for ci, rec in enumerate(d.crossings):
        under_gone, over_gone = rec[UNDER_IN] in gone, rec[1] in gone
        if under_gone or over_gone:
            dropped.add(ci)
        if under_gone and not over_gone:
            o = d.over_in[ci]
            merges.append((rec[o], rec[(o + 2) % 4]))
        elif over_gone and not under_gone:
            merges.append((rec[UNDER_IN], rec[UNDER_OUT]))
    return uf_resolve(d, dropped, merges, gone, False)


def record_switch(d: LinkDiagram, ci: int) -> LinkDiagram:
    """The oracle for `switch`: the record turned so that the over-strand's
    entry becomes slot 0, the incoming under-strand."""
    o = d.over_in[ci]
    rec = d.crossings[ci][o:] + d.crossings[ci][:o]
    return LinkDiagram(d.crossings[:ci] + (rec,) + d.crossings[ci + 1:], d.components,
                       d.colors, over_in=d.over_in[:ci] + (4 - o,) + d.over_in[ci + 1:])


def disjoint_union(a: LinkDiagram, b: LinkDiagram) -> LinkDiagram:
    """Place two diagrams side by side; the second palette is appended."""
    shift = max(a.arcs(), default=0)
    crossings = tuple(tuple(x + shift for x in rec) for rec in b.crossings)
    components = tuple(tuple(x + shift for x in cyc) for cyc in b.components)
    colors = a.colors + tuple(c + a.n_colors for c in b.colors)
    return LinkDiagram(a.crossings + crossings, a.components + components, colors,
                       over_in=a.over_in + b.over_in)


def as_pd(d: LinkDiagram) -> LinkDiagram:
    """d read back from its PD text: an equal diagram that records no
    braid, so that `skein.homfly` takes the skein descent on it."""
    return parse_pd(d.render_pd())


def mono_numerator(om: PotentialFunction) -> LaurentPolynomial:
    """(x - x^-1) * value with every variable set to x; a polynomial in the
    single variable x for links and the bare numerator for knots."""
    collapsed = om.numerator.collapse_variables("x")
    if om.pole:
        return collapsed
    x = LaurentPolynomial.gen(("x",), "x")
    return (x - x ** -1) * collapsed


def truncate(f: TruncatedSeries, cap: int) -> TruncatedSeries:
    """f truncated at the smaller of its cap and `cap`."""
    return TruncatedSeries(f.variables, min(f.cap, cap), f.terms)


def monomial_substitute_series(f: LaurentPolynomial, images, cap: int) -> TruncatedSeries:
    """The oracle for `algebra.substitute_series`: one multivariate series
    product per monomial of f, summed.  `images[v]` is a pair (value,
    inverse) of TruncatedSeries, in any variables; the inverse may be None
    when no negative powers of v occur in f."""
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
                    pos_cache[key] = truncate(pos.embed(nv), cap) ** e
                else:
                    if inv is None:
                        raise ValueError(f"negative power of {v} but no inverse image given")
                    pos_cache[key] = truncate(inv.embed(nv), cap) ** (-e)
            term = term * pos_cache[key]
        out = out + term
    return out


def dict_trace_oriented(crossings, over_in):
    """The oracle for `diagram._trace_oriented`, on a dict of arc heads:
    arc cycles of the components that touch a crossing, each followed
    along the stored directions from its minimal arc, ordered by that arc."""
    heads = {}
    for k, rec in enumerate(crossings):
        heads[rec[0]] = (k, 0)
        heads[rec[over_in[k]]] = (k, over_in[k])
    comps = []
    seen = set()
    for arc in sorted(heads):
        if arc in seen:
            continue
        cyc = []
        cur = arc
        while cur not in seen:
            seen.add(cur)
            cyc.append(cur)
            k, s = heads[cur]
            cur = crossings[k][(s + 2) % 4]
        comps.append(tuple(cyc))
    return comps


def dict_walk_unoriented(crossings):
    """The oracle for `diagram.walk_unoriented`, on a dict of arc ends:
    circles in order of their minimal arc, each walked from that arc
    towards its first (crossing, slot) endpoint.  Yields (circle, arc,
    crossing, slot) for every arc, with the endpoint the arc enters."""
    endpoints: dict = {}
    for k, rec in enumerate(crossings):
        for s, arc in enumerate(rec):
            endpoints.setdefault(arc, []).append((k, s))
    seen = set()
    cid = 0
    for arc in sorted(endpoints):
        if arc in seen:
            continue
        behind = endpoints[arc][1]
        while arc not in seen:
            seen.add(arc)
            ends = endpoints[arc]
            k, s = ends[1] if ends[0] == behind else ends[0]
            yield cid, arc, k, s
            behind = (k, (s + 2) % 4)
            arc = crossings[k][behind[1]]
        cid += 1


def split_by_component_groups(d: LinkDiagram) -> bool:
    """The oracle for `LinkDiagram.is_split`: a free loop beside anything
    else, or more than one group of components by union-find over the
    components that meet at each crossing."""
    if d.m <= 1:
        return False
    if any(len(cyc) == 1 and cyc[0] not in d.heads for cyc in d.components):
        return True
    parent: dict = {}
    for rec in d.crossings:
        uf_union(parent, d.comp_of_arc[rec[0]], d.comp_of_arc[rec[1]])
    return len({uf_find(parent, k) for k in range(d.m)}) > 1


def smooth(crossings, loops, ci, pairs):
    """Smooth crossing ci of a (crossings, loops) node by joining its slots
    in pairs, relabeling every record through a union-find; a pair
    already joined closes off a crossing-free circle."""
    uf: dict = {}
    rec = crossings[ci]
    for s1, s2 in pairs:
        if not uf_union(uf, rec[s1], rec[s2]):
            loops += 1
    kept = tuple(tuple(uf_find(uf, a) for a in crossings[j])
                 for j in range(len(crossings)) if j != ci)
    return kept, loops


def pairing_key(node):
    """The labelled form of the skein memo key: a node (crossings, ...)
    with its crossing records replaced by their slot pairing from
    `diagram.far_ends`, which forgets the arc labels and nothing else."""
    return (tuple(far_ends(node[0])[1]),) + node[1:]


def two_pass_reduce(crossings, loops, ci=None, pairs=()):
    """The oracle for `skein._reduce`: smooth crossing ci by `smooth`
    (none when ci is None), then erase every curl and reducible bigon of
    the smoothed node by a second pass over its rebuilt far ends.  Returns
    (e, gone, crossings, loops), `gone` indexing the smoothed node."""
    if ci is not None:
        crossings, loops = smooth(crossings, loops, ci, pairs)
    flat, other = far_ends(crossings)
    todo = list(range(len(crossings)))
    gone = set()
    uf: dict = {}
    exponent = 0
    while todo:
        c = todo.pop()
        if c in gone:
            continue
        base = 4 * c
        for i in range(4):
            k = other[base | ((i + 1) & 3)]
            if k == base | i:
                exponent += -1 if i & 1 else 1
                erased = (c,)
                break
            if k >> 2 != c and (k - i) & 1 and other[(k & ~3) | ((k + 1) & 3)] == base | i:
                erased = (c, k >> 2)
                break
        else:
            continue
        gone.update(erased)
        for e in erased:
            for a in (4 * e, 4 * e + 1):
                b = a + 2
                far_a, far_b = other[a], other[b]
                if far_a == b:
                    loops += 1
                else:
                    other[far_a], other[far_b] = far_b, far_a
                    uf_union(uf, flat[a], flat[b])
                    todo += (far_a >> 2, far_b >> 2)
    if gone:
        crossings = tuple(tuple(uf_find(uf, arc) for arc in rec)
                          for c, rec in enumerate(crossings) if c not in gone)
    return exponent, gone, crossings, loops


def curl_keeping_step(node):
    """The oracle for `skein._unoriented_step`: the same Dubrovnik step on
    (crossings, loops) nodes, but its children keep their curls and
    bigons, so every curl costs a node and is resolved by the skein
    rule."""
    crossings, loops = node
    if not crossings:
        return _DELTA_D ** (loops - 1)
    entries: dict = {}  # crossing -> [(circle, entry slot)] in visit order
    bads = []
    ncircles = 0
    for cid, _, ci, s in dict_walk_unoriented(crossings):
        ncircles = cid + 1
        seen = entries.setdefault(ci, [])
        if not seen and s in (0, 2):
            bads.append(ci)
        seen.append((cid, s))
    if not bads:
        selfw = 0
        for (c1, s1), (c2, s2) in entries.values():
            if c1 == c2:
                u, o = (s1, s2) if s1 in (0, 2) else (s2, s1)
                selfw += 1 if o == (u + 3) % 4 else -1
        return (_X ** selfw) * _DELTA_D ** (ncircles + loops - 1)
    ci = bads[0]
    (_, s1), (_, s2) = entries[ci]
    u, o = (s1, s2) if s1 in (0, 2) else (s2, s1)
    sgn = 1 if o == (u + 3) % 4 else -1
    rec = crossings[ci]
    switched = crossings[:ci] + ((rec[1], rec[2], rec[3], rec[0]),) + crossings[ci + 1:]
    sm0 = smooth(crossings, loops, ci, ((u, (o + 2) % 4), (o, (u + 2) % 4)))
    sm_inf = smooth(crossings, loops, ci, ((u, o), ((u + 2) % 4, (o + 2) % 4)))
    at_switch = yield (switched, loops)
    at_sm0 = yield sm0
    return at_switch + sgn * (_Y * at_sm0) - sgn * (_Y * (yield sm_inf))


def bad_crossings(d: LinkDiagram):
    """Crossings of a `LinkDiagram` whose first visit along
    `dict_trace_oriented` passes under."""
    visited = set()
    bads = []
    for cyc in dict_trace_oriented(d.crossings, d.over_in):
        for arc in cyc:
            ci, s = d.heads[arc]
            if ci not in visited:
                visited.add(ci)
                if s == 0:
                    bads.append(ci)
    return bads


def labelled_homfly(d: LinkDiagram, memo=None):
    """The oracle for `skein.homfly`: the same skein rule on `LinkDiagram`
    nodes, keyed on the labelled diagram, with no curl or bigon reduced."""
    unlinks: dict = {}

    def step(d):
        bads = bad_crossings(d)
        if not bads:
            if d.m not in unlinks:
                unlinks[d.m] = _DELTA_H ** (d.m - 1)
            return unlinks[d.m]
        ci = bads[0]
        at_switch, at_smooth = _HOMFLY_FACTORS[d.sign(ci)]
        switched = at_switch * (yield d.switch(ci))
        return switched + at_smooth * (yield d.smooth_oriented(ci))

    table = {} if memo is None else memo
    return _descend(d.monochrome(), _key, step, table, "homfly")


def strip_kinks(crossings, loops):
    """The oracle for `skein._reduce` on curls: remove every curl of a
    (crossings, loops) node by Reidemeister I, and no bigon; returns
    (e, node) with D(the given node) = x^e * D(node).  A curl is a
    crossing with one arc at two adjacent slots s, s + 1; it goes by
    joining the arcs at its other two slots (a free loop when they are one
    arc), and contributes x for even s, x^-1 for odd s."""
    todo = [c for c, rec in enumerate(crossings)
            if rec[0] == rec[1] or rec[1] == rec[2] or rec[2] == rec[3] or rec[3] == rec[0]]
    if not todo:
        return 0, (crossings, loops)
    flat, other = far_ends(crossings)
    gone = set()
    uf: dict = {}
    exponent = 0
    while todo:
        c = todo.pop()
        base = 4 * c
        s = next((s for s in range(4) if other[base + s] == base + (s + 1) % 4), None)
        if c in gone or s is None:
            continue
        gone.add(c)
        exponent += -1 if s & 1 else 1
        a, b = base + (s + 2) % 4, base + (s + 3) % 4
        far_a, far_b = other[a], other[b]
        if far_a == b:
            loops += 1
        else:
            other[far_a], other[far_b] = far_b, far_a
            uf_union(uf, flat[a], flat[b])
            todo += (far_a >> 2, far_b >> 2)
    kept = tuple(tuple(uf_find(uf, arc) for arc in rec)
                 for c, rec in enumerate(crossings) if c not in gone)
    return exponent, (kept, loops)


def polynomial_rewrite_in_difference(f: LaurentPolynomial, zname: str = "z") -> LaurentPolynomial:
    """The oracle for `algebra.rewrite_in_difference`: each pass subtracts
    coeff * (x - x^-1)^top, the power built as a `LaurentPolynomial`."""
    if len(f.variables) != 1:
        raise ValueError("one-variable input required")
    x = LaurentPolynomial.gen(f.variables, f.variables[0])
    diff = x - x ** (-1)
    rem = f
    out: dict = {}
    while rem:
        top = max(e[0] for e in rem.terms)
        if top < 0:
            raise ArithmeticError("not expressible in x - x^-1")
        coeff = out[(top,)] = rem.terms[(top,)]
        rem = rem - coeff * diff ** top
    return LaurentPolynomial((zname,), out)


def _tuple_add_product(out: dict, a: dict, b: dict, sign: int = 1) -> dict:
    """out += sign * a * b on {exponent tuple: int} dicts."""
    for ea, ca in a.items():
        ca *= sign
        for eb, cb in b.items():
            e = tuple([x + y for x, y in zip(ea, eb)])
            out[e] = out.get(e, 0) + ca * cb
    return out


def tuple_exact_quotient(num: dict, den: dict) -> dict:
    """The oracle for `algebra._exact_quotient`: num / den over Z[t^+-1] on
    exponent tuples, cancelling num's lex-leading term each step; raises
    ArithmeticError on a remainder.  An exact quotient's exponents lie in
    the per-variable degree box checked below, which also bounds the loop."""
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


def packed_fox_determinant(rows, ncols: int, variables) -> LaurentPolynomial:
    """`algebra.fox_determinant` on a matrix given as lists of
    `LaurentPolynomial` entries with integer coefficients: each entry is
    packed at the radix R = 2^bits > 4*n*E the kernel needs, E the largest
    |exponent| of any entry, and the packed determinant is unpacked."""
    if len(rows) != ncols or any(len(row) != ncols for row in rows):
        raise ValueError("square matrix expected")
    if any(type(c) is not int for row in rows for entry in row for c in entry.terms.values()):
        raise ValueError("matrix entries must have integer coefficients")
    big = max((abs(e) for row in rows for entry in row for exps in entry.terms for e in exps),
              default=0)
    bits = max(1, (4 * ncols * big).bit_length())
    packed = [{j: {_pack(e, bits): c for e, c in entry.terms.items()}
               for j, entry in enumerate(row) if entry.terms} for row in rows]
    det = fox_determinant(packed, ncols, bits, len(variables))
    return LaurentPolynomial(variables, {_unpack(k, bits, len(variables)): c
                                         for k, c in det.items()})


def laurent_state_matrix(d: LinkDiagram, colors, variables, cut: int, other):
    """The oracle for `skein._state_matrix`: the same state matrix as dense
    rows of `LaurentPolynomial` entries, each corner weight built as a
    monomial and added to its face's entry, with the same (column, flip)
    corner options per row."""
    face = _faces(other)
    dropped = {face[cut], face[(cut & ~3) | ((cut - 1) & 3)]}
    kept = sorted(set(face) - dropped)
    column = dict(zip(kept, range(len(kept))))
    zero = LaurentPolynomial.zero(variables)
    rows, options = [], []
    for x, sign in enumerate(d.signs):
        cu, co = d.strands_at(x)
        u, o = colors[cu] - 1, colors[co] - 1
        row = [zero] * len(kept)
        corners = []
        for i, (a, b) in enumerate(_CORNERS[sign]):
            col = column.get(face[4 * x + i])
            if col is not None:
                exps = [0] * len(variables)
                exps[o] += a
                exps[u] += b
                row[col] = row[col] + LaurentPolynomial.monomial(variables, exps)
                corners.append((col, -1 if i == _FLIPPED[sign] else 1))
        rows.append(row)
        options.append(corners)
    return rows, options


def dense_fox_determinant(rows, ncols: int, variables) -> LaurentPolynomial:
    """The oracle for the sparse `algebra.fox_determinant`: dense
    fraction-free Bareiss elimination on exponent tuples.  Step k replaces
    each entry below and right of the pivot by (pivot * entry - column
    entry * pivot-row entry) / previous pivot; the pivot is the entry of
    the column with the fewest terms, and each row swap flips the sign."""
    if len(rows) != ncols or any(len(row) != ncols for row in rows):
        raise ValueError("square matrix expected")
    mat = [[dict(e.terms) for e in row] for row in rows]
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
                num = _tuple_add_product({}, pivot, row[j])
                if lead and pivot_row[j]:
                    _tuple_add_product(num, lead, pivot_row[j], -1)
                row[j] = tuple_exact_quotient(num, prev)
        prev = pivot
    return LaurentPolynomial(variables, {e: sign * c for e, c in prev.items()})


# -- the exponential layer on {(i, n): moment} dicts ---------------------------
#
# The oracle for the dense kernel of `transforms`: the same scaled moments
# held in a dict, the quotient by the product of the component series taken
# as numerator times inverse, and s^-pad raised as a `TruncatedSeries` on
# every call.


def dict_moments(f: LaurentPolynomial, shift: int, cap: int):
    """(M, pad): the scaled form of y^pad * f through total degree
    cap + pad as {(i, n): M[i, n]}, zeros dropped; see `transforms._moments`."""
    if f.is_zero:
        return {}, 0
    xi = f.variables.index("x")
    yi = f.variables.index("y")
    pad = max(0, -min(e[yi] for e in f.terms))
    prec = cap + pad
    points: dict = {}  # alpha -> {gamma: w}
    for exps, coeff in f.terms.items():
        kx, m = exps[xi], exps[yi] + pad
        row = points.setdefault(kx, {})
        for k in range(m + 1):
            gamma = kx * shift + m - 2 * k
            w = coeff * comb(m, k)
            row[gamma] = row.get(gamma, 0) + (-w if k % 2 else w)
    out: dict = {}
    for alpha, row in points.items():
        h_moments = [0] * (prec + 1)
        for gamma, w in row.items():
            for n in range(prec + 1):
                h_moments[n] += w
                w *= gamma
        power = 1
        for i in range(prec + 1):
            for n in range(prec + 1 - i):
                out[(i, n)] = out.get((i, n), 0) + power * h_moments[n]
            power *= alpha
    return {e: c for e, c in out.items() if c}, pad


def dict_scaled_mul(left: dict, right: dict, cap: int) -> dict:
    """(AB)[i, n] = sum of C(i, i')*C(n, n')*A[i', n']*B[i - i', n - n']."""
    binom = _pascal(cap)
    ordered = sorted((i + n, i, n, c) for (i, n), c in right.items())
    out: dict = {}
    for (i1, n1), c1 in left.items():
        room = cap - i1 - n1
        for deg, i2, n2, c2 in ordered:
            if deg > room:
                break
            i, n = i1 + i2, n1 + n2
            out[(i, n)] = out.get((i, n), 0) + binom[i][i1] * binom[n][n1] * c1 * c2
    return {e: c for e, c in out.items() if c}


def dict_scaled_inverse(series: dict, cap: int) -> dict:
    """The inverse in scaled form, degree by degree, by the exact 1/c0."""
    c0 = series.get((0, 0), 0)
    if c0 == 0:
        raise ZeroDivisionError("series with zero constant term has no inverse")
    q = c0 if c0 in (1, -1) else Fraction(1, c0)
    binom = _pascal(cap)
    rest = [(i, n, c) for (i, n), c in series.items() if i or n]
    out = {(0, 0): q}
    for deg in range(1, cap + 1):
        for i in range(deg + 1):
            n = deg - i
            acc = 0
            for i1, n1, c in rest:
                if i1 <= i and n1 <= n:
                    b = out.get((i - i1, n - n1))
                    if b:
                        acc += binom[i][i1] * binom[n][n1] * c * b
            if acc:
                out[(i, n)] = -q * acc
    return out


def dict_unscaled(series: dict, pad: int, cap: int) -> TruncatedSeries:
    """G = s^-pad * (y^pad * f), s^-pad built from `_sinh_unit` and
    multiplied in scaled form over one common denominator."""
    den = 1
    if pad:
        sigma = {e: c * (factorial(e[1]) << e[1])
                 for e, c in (_sinh_unit(cap) ** -pad).terms.items()}
        den = lcm(*(Fraction(c).denominator for c in sigma.values()))
        series = dict_scaled_mul(series, {e: int(c * den) for e, c in sigma.items()}, cap)
    terms = {(i, n): Fraction(c, den * factorial(i) * factorial(n) << (i + n))
             for (i, n), c in series.items()}
    return TruncatedSeries(_CH, cap, terms)


def dict_substitute_exponential(f: LaurentPolynomial, shift: int, cap: int):
    """(G, pad) with G / h^pad the exponential substitution into f, G
    through total degree cap + pad: the oracle for `transforms._exp_table`
    with no divisor."""
    moments, pad = dict_moments(f, shift, cap)
    return dict_unscaled(moments, pad, cap + pad), pad


def exp_read_off(series: TruncatedSeries, pad: int) -> CoefficientTable:
    """The table (h-degree, c-degree) -> coefficient of series / h^pad:
    a^i h^j lands at (i + j - pad, i)."""
    entries = {}
    for (i, j), coeff in series.terms.items():
        if i + j < pad:
            raise ArithmeticError("negative powers of h did not cancel")
        entries[(i + j - pad, i)] = coeff
    return CoefficientTable(entries)


def dict_exp_quotient(d: LinkDiagram, poly, shift: int, cap: int) -> CoefficientTable:
    """The oracle for `transforms._exp_table` dividing poly(d) by the poly
    of each component: the numerator's moments times the inverse of the
    product of the components' moments."""
    num, pad = dict_moments(poly(d), shift, cap)
    prec = cap + pad
    den = {(0, 0): 1}
    for j in range(d.m):
        comp, comp_pad = dict_moments(poly(d.component(j)), shift, prec)
        if comp_pad:
            raise ArithmeticError("a component's exponential expansion has a pole")
        den = dict_scaled_mul(den, comp, prec)
    out = dict_scaled_mul(num, dict_scaled_inverse(den, prec), prec)
    return exp_read_off(dict_unscaled(out, pad, prec), pad)


# -- the argparse parser that `cli.parse_args` replaced ---------------------

def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"cap and budget must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkinv",
        description="Exact link invariants from PD codes and braid words.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True, with_cap=True):
        if with_input:
            p.add_argument("input", help="diagram file (PD or braid grammar), or - for stdin")
            p.add_argument("--colors", help="comma-separated colors per component")
        if with_cap:
            p.add_argument("--cap", type=nonnegative_int, default=DEFAULT_CAP,
                           help="total-degree bound for series (default 12)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--budget", type=nonnegative_int, default=None,
                       help="skein node budget of HOMFLY and Dubrovnik/Kauffman "
                            "(default 10^6); nothing else spends it")

    p = sub.add_parser("invariants", help="full invariant report")
    add_common(p)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("polys", help="print one polynomial")
    add_common(p, with_cap=False)
    p.add_argument("--which", required=True,
                   choices=["conway", "homfly", "kauffman", "omega", "nbl"])
    p.set_defaults(fn=cmd_polys)

    p = sub.add_parser("decompose", help="brace-monomial decomposition parts")
    add_common(p, with_cap=False)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("verify", help="run the verification suites")
    add_common(p, with_input=False)
    p.add_argument("--corpus", default=None, help="corpus directory (default: bundled)")
    p.add_argument("--suite", default=None, choices=sorted(SUITES),
                   help="run a single suite (default: all)")
    p.set_defaults(fn=cmd_verify)
    return parser
