"""Diagram and polynomial helpers shared by the tests; not part of the
library's interface."""

from linkinv.alexander import PotentialFunction
from linkinv.algebra import LaurentPolynomial, TruncatedSeries
from linkinv.diagram import LinkDiagram, uf_find, uf_union, walk_unoriented
from linkinv.skein import (
    _DELTA_D,
    _DELTA_H,
    _HOMFLY_FACTORS,
    _X,
    _Y,
    _descend,
    _far_ends,
    _key,
    _smooth,
)


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
                    pos_cache[key] = pos.embed(nv).truncate(cap) ** e
                else:
                    if inv is None:
                        raise ValueError(f"negative power of {v} but no inverse image given")
                    pos_cache[key] = inv.embed(nv).truncate(cap) ** (-e)
            term = term * pos_cache[key]
        out = out + term
    return out


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
    for cid, _, ci, s in walk_unoriented(crossings):
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
    sm0 = _smooth(crossings, loops, ci, ((u, (o + 2) % 4), (o, (u + 2) % 4)))
    sm_inf = _smooth(crossings, loops, ci, ((u, o), ((u + 2) % 4, (o + 2) % 4)))
    at_switch = yield (switched, loops)
    at_sm0 = yield sm0
    return at_switch + sgn * (_Y * at_sm0) - sgn * (_Y * (yield sm_inf))


def bad_crossings(d: LinkDiagram):
    """Crossings of a `LinkDiagram` whose first visit (components in
    order, each from its stored basepoint) passes under."""
    visited = set()
    bads = []
    for cyc in d.components:
        for arc in cyc:
            pos = d.heads.get(arc)
            if pos is None:
                continue
            ci, s = pos
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
    return _descend(d.monochrome(), _key, step, table, None, "homfly")


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
    flat, other = _far_ends(crossings)
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


def every_start_dubrovnik_key(node):
    """The oracle for `skein._dubrovnik_key`: the same code, the least over
    every even start of each connected part, with no start skipped."""
    crossings, loops = node
    flat, other = _far_ends(crossings)
    uf: dict = {}  # crossings joined by an arc
    for i, j in enumerate(other):
        if i < j:
            uf_union(uf, i >> 2, j >> 2)
    parts: dict = {}
    for c in range(len(crossings)):
        parts.setdefault(uf_find(uf, c), []).append(c)
    codes = []
    for part in parts.values():
        best = None
        for start in (4 * c + s for c in part for s in (0, 2)):
            code = []
            number: dict = {}
            queue = [start]
            entered = {start >> 2}
            for i in queue:
                base, e = i & ~3, i & 3
                rec = [e & 1]
                for t in range(e, e + 4):
                    j = base | (t & 3)
                    rec.append(number.setdefault(flat[j], len(number)))
                    far = other[j] >> 2
                    if far not in entered:
                        entered.add(far)
                        queue.append(other[j])
                code.append(tuple(rec))
            if best is None or code < best:
                best = code
        codes.append(tuple(best))
    return tuple(sorted(codes)), loops
