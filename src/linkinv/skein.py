"""The HOMFLY and Dubrovnik/Kauffman polynomials by skein recursion, both
run by one memoized descent, `_descend`, and the Conway polynomial and the
potential function's numerator from Kauffman's state sum.

Conway is not a skein engine.  `state_sum` builds Alexander's state matrix
(one row per crossing, one column per face but two adjacent ones, corner
weights in the variables of the two strands' colors), takes its
determinant with the sparse Bareiss kernel `algebra.fox_determinant`
and fixes the sign from one state.  `conway` is its one-color case
rewritten in z = x - x^-1, and `alexander.potential_function` its colored
case: polynomial time, no node budget and no memo.

The descent strategy is the standard guaranteed-terminating one: fix a
traversal (each circle from its minimal arc) and locate crossings whose
first visit passes under.  Both steps walk a node through the one far-end
table of `diagram.far_ends`, by `diagram.walk_oriented` along its stored
directions or by `diagram.walk_unoriented`, and resolve the first such
crossing in walk order (`_first_under`).  Switching it strictly reduces the
number of violations, smoothing reduces the crossing count, and a diagram
without violations is descending, hence an unlink (split) after isotopy.
Both descents reduce their root and every child by `_reduce` before it is
keyed: it erases each curl (Reidemeister I) and each bigon that one strand
passes over at both corners (Reidemeister II).  D is a regular-isotopy
invariant with D(curl) = x^(+-1) * D(curl removed) (Kauffman, Trans. AMS
318, 1990), and H an ambient-isotopy invariant, so no such move costs a
node, a key or a skein step.  A reduction only lowers the crossing count
and the violations are recomputed on the reduced node, so the descent
still terminates.

`_descend` runs the descent as one loop over an explicit stack, so a deep
diagram stops at its node budget, never at the interpreter's frame limit.
It looks a node up in a memo table, spends one unit of the node budget on
each miss and stores what the engine's step returns.  A step is a
generator: it yields each child node, is sent that child's value and
returns the node's value.  There are two steps:

- the oriented HOMFLY rule x*H(L+) - x^-1*H(L-) = y*H(L0) on (crossings,
  over_in, loops) nodes, split unknot worth (x - x^-1)/y;
- the unoriented Dubrovnik rule on (crossings, loops) nodes.

Each skein call memoizes values in a table: its `memo=`, else its scope's,
else a fresh one.  HOMFLY keys a node on the labeled node itself; different
descent paths reaching the same sub-diagram produce identical keys because
arc merges keep minimal ids.  Dubrovnik keys a node on `_dubrovnik_key`, a
code that forgets arc labels, crossing order and the 180-degree turn of a
record, so every relabeling of one unoriented diagram on S^2 shares one
entry.  `with scope(budget):` gives its block, in the current context only
(a `contextvars.ContextVar`), the node budget and one table per engine,
freed when the block exits; a `scope()` with no budget inside another
keeps the enclosing one.  Outside a scope a call spends DEFAULT_BUDGET at
most and its value depends on its arguments alone.  `conway` keeps no
table.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import NamedTuple

from .algebra import LaurentPolynomial, fox_determinant, permutation_sign, rewrite_in_difference
from .diagram import LinkDiagram, disconnected, far_ends, parts, uf_find, uf_union, \
    walk_oriented, walk_unoriented

XYVARS = ("x", "y")

_X = LaurentPolynomial.gen(XYVARS, "x")
_Y = LaurentPolynomial.gen(XYVARS, "y")
# the value a split unknot contributes to H, (x - x^-1)/y, and to D, 1 more
_DELTA_H = (_X - _X ** -1) * _Y ** -1
_DELTA_D = LaurentPolynomial.one(XYVARS) + _DELTA_H


class SkeinBudgetError(RuntimeError):
    """Raised when the resolution tree of `engine` exceeds the node budget."""

    def __init__(self, engine, budget):
        super().__init__(f"{engine} skein node budget of {budget} exceeded")
        self.engine = engine
        self.budget = budget


DEFAULT_BUDGET = 10 ** 6


class _Scope(NamedTuple):
    budget: int
    tables: dict | None  # engine -> memo table; outside a scope None, a fresh one per call


_SCOPE: ContextVar = ContextVar("linkinv.skein.scope", default=_Scope(DEFAULT_BUDGET, None))


@contextlib.contextmanager
def scope(budget: int | None = None):
    """In the block, every call spends `budget` nodes at most (default
    DEFAULT_BUDGET), and calls that pass no `memo=` share one table per
    engine.  A scope() with no budget inside another keeps the enclosing
    budget and tables."""
    here = _SCOPE.get()
    if budget is not None or here.tables is None:
        here = _Scope(DEFAULT_BUDGET if budget is None else budget,
                      {"homfly": {}, "dubrovnik": {}})
    token = _SCOPE.set(here)
    try:
        yield
    finally:
        _SCOPE.reset(token)


def _require_component(d: LinkDiagram):
    # the empty diagram parses, but no invariant here is defined on it
    if not d.m:
        raise ValueError("the diagram has no component")


def _first_under(circles):
    """The bad crossing a skein step resolves: the first one, in walk
    order, whose first entry is on the under-strand (an even slot), or
    None on a descending diagram."""
    over = set()  # crossings first entered on the over-strand
    for circle in circles:
        for i in circle:
            if i & 1:
                over.add(i >> 2)
            elif i >> 2 not in over:
                return i >> 2
    return None


def _descend(root, key, step, table, engine):
    """The one memoized skein descent: the value of a node is table[key],
    and a miss spends one unit of the scope's budget (`_Scope`) and stores
    what the generator step(node) returns once it has been sent the value
    of every child it yields.  Pending steps wait on a stack, not in
    frames.  A None `table` is the scope's."""
    here = _SCOPE.get()
    limit = here.budget
    if table is None:
        table = {} if here.tables is None else here.tables[engine]
    used = 0
    stack = []  # (key, step) of every node waiting on a child
    node = root
    while True:
        k = key(node)
        value = table.get(k)
        if value is None:
            used += 1
            if used > limit:
                raise SkeinBudgetError(engine, limit)
            stack.append((k, step(node)))
        while stack:
            k, gen = stack[-1]
            try:
                node = gen.send(value)
                break
            except StopIteration as done:
                value = table[k] = done.value
                stack.pop()
        else:
            return value


# -- oriented rule: HOMFLY ------------------------------------------------------

# x*H(L+) - x^-1*H(L-) = y*H(L0) solved for the diagram at hand: the
# (switch, smoothing) factors by crossing sign
_HOMFLY_FACTORS = {1: (_X ** -2, _X ** -1 * _Y), -1: (_X ** 2, -(_X * _Y))}


def _reduced_oriented(crossings, over_in, loops):
    """The HOMFLY node (crossings, over_in, loops) with its curls and
    reducible bigons gone; H is an ambient-isotopy invariant, so both moves
    leave its value alone."""
    _, gone, crossings, loops = _reduce(crossings, loops)
    if gone:
        over_in = tuple(o for c, o in enumerate(over_in) if c not in gone)
    return crossings, over_in, loops


def homfly(d: LinkDiagram, memo=None) -> LaurentPolynomial:
    """HOMFLY polynomial in x, y with x*H(L+) - x^-1*H(L-) = y*H(L0)."""
    _require_component(d)
    unlinks: dict = {}  # m -> the m-component unlink, delta^(m - 1)

    def step(node):
        # one HOMFLY node: oriented records, slot 0 the incoming under-strand
        # and over_in the slot the over-strand enters by, plus free loops
        crossings, over_in, loops = node
        circles = walk_oriented(crossings, over_in)[1]
        ci = _first_under(circles)
        if ci is None:
            m = len(circles) + loops
            if m not in unlinks:
                unlinks[m] = _DELTA_H ** (m - 1)
            return unlinks[m]
        rec, o = crossings[ci], over_in[ci]
        at_switch, at_smooth = _HOMFLY_FACTORS[1 if o == 3 else -1]
        turned = (rec[3], rec[0], rec[1], rec[2]) if o == 3 else (rec[1], rec[2], rec[3], rec[0])
        switched = (crossings[:ci] + (turned,) + crossings[ci + 1:],
                    over_in[:ci] + (4 - o,) + over_in[ci + 1:], loops)
        value = at_switch * (yield _reduced_oriented(*switched))
        smoothed, loops = _smooth(crossings, loops, ci, ((0, (o + 2) % 4), (o, 2)))
        over_in = over_in[:ci] + over_in[ci + 1:]
        return value + at_smooth * (yield _reduced_oriented(smoothed, over_in, loops))

    root = _reduced_oriented(d.crossings, d.over_in, len(d._free_loops(())))
    return _descend(root, lambda node: node, step, memo, "homfly")


# -- Kauffman's state sum: Conway and the potential function ------------------

# corner weights, corners 0..3, by crossing sign, as (exponent of x_o,
# exponent of x_u): x_o and x_u are the variables of the over-strand color
# (the arc at slot 1) and the under-strand color (slot 0); with one color,
# s = x_o = x_u = t^(1/2), they read (1, s, 1, s^-1) and (s, 1, s^-1, 1).
# The flipped corner is the one whose weight is negative in Kauffman's
# state sum.
_CORNERS = {1: ((0, 0), (1, 0), (1, -1), (0, -1)), -1: ((0, 1), (-1, 1), (-1, 0), (0, 0))}
_FLIPPED = {1: 3, -1: 0}


def _faces(other):
    """Face of every corner, corner i of crossing X at 4X + i, between its
    slots i and i + 1, from the far ends `other` of `diagram.far_ends`:
    following the arc at slot i + 1 to its other end (Y, j) reaches the
    next corner of the same face, (Y, j)."""
    face = [-1] * len(other)
    count = 0
    for start in range(len(other)):
        if face[start] >= 0:
            continue
        k = start
        while face[k] < 0:
            face[k] = count
            k = other[(k & ~3) | ((k + 1) & 3)]
        count += 1
    return face


def _state_matrix(d: LinkDiagram, colors, variables, cut: int, other):
    """Alexander's c x c state matrix of a connected diagram with c >= 1
    crossings and far ends `other`: one row per crossing, one column per
    face except the two on either side of the arc at slot `cut` (crossing
    cut // 4, slot cut % 4), each entry the sum of the crossing's corner
    weights in that face, the strands of component k weighted by
    x_colors[k].  Returns the rows and, per row, (column, flip) for every
    corner that has a column.

    A connected diagram has c + 2 faces, and the two sides of any arc are
    different faces: a 4-valent graph has no bridge, since cutting one
    would leave a part of odd total degree."""
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


def _state_sign(options) -> int:
    """The sign e of the state sum e * det: for one state, a perfect
    matching of rows to columns through their corners (Kuhn's augmenting
    paths), the sign of its permutation times the flips of its corners.
    By Kauffman's Clock Theorem every state gives the same e."""
    owner: dict = {}  # column -> (row, flip)
    for start in range(len(options)):  # det != 0, so a perfect matching exists
        seen = set()
        path = [(start, iter(options[start]), None)]  # (row, corners left, corner in)
        while path:
            corner = next((c for c in path[-1][1] if c[0] not in seen), None)
            if corner is None:
                path.pop()
                continue
            col = corner[0]
            seen.add(col)
            if col in owner:
                row = owner[col][0]
                path.append((row, iter(options[row]), corner))
                continue
            while path:  # a free column: every row on the path moves one corner on
                r, _, entered = path.pop()
                owner[corner[0]] = (r, corner[1])
                corner = entered
    perm = [0] * len(options)
    sign = 1
    for col, (r, flip) in owner.items():
        perm[r] = col
        sign *= flip
    return sign * permutation_sign(perm)


def state_sum(d: LinkDiagram, colors, cut: int = 0) -> LaurentPolynomial:
    """Kauffman's state sum e * det in x1..xn, n = max(colors), det the
    determinant of the state matrix cut at slot `cut` with the strands of
    component k weighted by x_colors[k] (Alexander, Trans. AMS 30, 1928;
    Kauffman, Formal Knot Theory, 1983).  It is the potential function's
    numerator for a knot and (x_c - x_c^-1) times the potential function
    for a link, c the color of the cut arc; with one color it is
    conway(x - x^-1).  A split diagram gives 0, a crossing-free knot 1."""
    _require_component(d)
    variables = tuple(f"x{c}" for c in range(1, max(colors) + 1))
    _, other = far_ends(d.crossings)
    if disconnected(d, other):
        return LaurentPolynomial.zero(variables)
    if not d.crossings:
        return LaurentPolynomial.one(variables)
    rows, options = _state_matrix(d, colors, variables, cut, other)
    det = fox_determinant(rows, len(rows), variables)
    if det.is_zero:
        return det
    return _state_sign(options) * det


def _key(d: LinkDiagram):
    return (d.crossings, d.components, d.over_in)


def conway(d: LinkDiagram, memo=None) -> LaurentPolynomial:
    """Conway polynomial in z, normalized to 1 on the unknot (0 on split
    links): the one-color state sum rewritten in z = x - x^-1, in
    polynomial time.  Nothing is cached; a caller-owned `memo` table
    receives one entry per diagram and answers repeat calls."""
    table = {} if memo is None else memo
    key = _key(d)
    if key not in table:
        table[key] = rewrite_in_difference(state_sum(d, (1,) * d.m))
    return table[key]


# -- unoriented rule: Dubrovnik ------------------------------------------------

def _dubrovnik_key(node):
    """A code of the (crossings, loops) node that is the same for every arc
    labeling, crossing order and 180-degree turn of a record, and tells
    any two other nodes apart.

    Each connected part is coded from every start (crossing, slot): visit
    crossings breadth first, read each record from the slot the walk
    entered by, store that slot's parity (the under-strand sits at {0, 2})
    and number arcs by first visit.  A part's code is the least of these,
    compared one record at a time so a start stops once it is behind.
    Starts at odd slots are skipped: their codes open with parity 1, and
    every part has an even start.  Two starts whose codes tie to the end
    give an automorphism of the part, the map of one walk onto the other;
    it maps each start to one with the same code, so the starts it joins
    to a smaller one are skipped.  A symmetric part such as T(2,n) then
    codes a few starts, not all 2n."""
    crossings, loops = node
    flat, other = far_ends(crossings)
    codes = []
    for part in parts(other):
        best = best_walk = None
        orbit: dict = {}  # starts joined by the automorphisms found
        for start in (4 * c + s for c in part for s in (0, 2)):
            if uf_find(orbit, start) != start:
                continue
            code = []
            number: dict = {}
            queue = [start]
            entered = {start >> 2}
            tied = best is not None
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
                rec = tuple(rec)
                if tied:
                    ahead = best[len(code)]
                    if rec > ahead:
                        break
                    tied = rec == ahead
                code.append(rec)
            else:
                if not tied:
                    best, best_walk = code, queue
                    continue
                for i, j in zip(best_walk, queue):  # i's crossing goes to j's, slot i to j
                    for s in (0, 2):
                        uf_union(orbit, (i & ~3) | s, (j & ~3) | ((j + s - i) & 3))
        codes.append(tuple(best))
    return tuple(sorted(codes)), loops


def _smooth(crossings, loops, ci, pairs):
    """Smooth crossing ci by joining its slots in pairs; a pair already
    joined closes off a crossing-free circle."""
    uf: dict = {}
    rec = crossings[ci]
    for s1, s2 in pairs:
        if not uf_union(uf, rec[s1], rec[s2]):
            loops += 1
    kept = tuple(tuple(uf_find(uf, a) for a in crossings[j])
                 for j in range(len(crossings)) if j != ci)
    return kept, loops


def _reduce(crossings, loops):
    """Remove every curl and every reducible bigon of a node by Reidemeister
    I and II moves: returns (e, gone, crossings, loops), D(the given node)
    = x^e * D(the node left) and `gone` the indices of the crossings erased.

    The moves are read off the faces of `_faces`.  A curl is a one-corner
    face, one arc at two adjacent slots s, s + 1, and contributes x for
    even s, x^-1 for odd s.  A reducible bigon is a two-corner face with
    its corners at different crossings whose two arcs each keep their slot
    parity from end to end, so one strand passes over at both crossings;
    it contributes 1.  Either move erases its crossings by joining the
    arcs at slots 0, 2 and at slots 1, 3 through the far-end pointers, and
    a strand that closes inside the erased crossings becomes a free loop.
    The crossings at the relinked far ends are checked again, so each move
    costs O(1), and the kept records are relabeled once, every joined arc
    by the least label it absorbed."""
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
            k = other[base | ((i + 1) & 3)]  # the corner after (c, i) on its face
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


def _reduced(node):
    """Yield the Dubrovnik `node` reduced by `_reduce` and return the
    node's value."""
    exponent, _, crossings, loops = _reduce(*node)
    value = yield crossings, loops
    return _X ** exponent * value if exponent else value


def _unoriented_step(node):
    """One Dubrovnik node: (crossings, loops), crossing records with the
    under-strand at slots {0, 2} plus a count of crossing-free circles.
    Every child it yields is reduced."""
    crossings, loops = node
    if not crossings:
        return _DELTA_D ** (loops - 1)
    circles = walk_unoriented(crossings)[1]
    into = [-1] * (4 * len(crossings))  # the circle entering at each slot
    for cid, circle in enumerate(circles):
        for i in circle:
            into[i] = cid

    def entries(c):
        # the slots the walk enters crossing c by, under and over, and
        # the crossing's sign in the walk's directions
        u = 0 if into[4 * c] >= 0 else 2
        o = 1 if into[4 * c + 1] >= 0 else 3
        return u, o, 1 if o == (u + 3) % 4 else -1

    ci = _first_under(circles)
    if ci is None:
        selfw = 0
        for c in range(len(crossings)):
            u, o, sgn = entries(c)
            if into[4 * c + u] == into[4 * c + o]:
                selfw += sgn
        return (_X ** selfw) * _DELTA_D ** (len(circles) + loops - 1)
    u, o, sgn = entries(ci)
    rec = crossings[ci]
    switched = crossings[:ci] + ((rec[1], rec[2], rec[3], rec[0]),) + crossings[ci + 1:]
    sm0 = _smooth(crossings, loops, ci, ((u, (o + 2) % 4), (o, (u + 2) % 4)))
    sm_inf = _smooth(crossings, loops, ci, ((u, o), ((u + 2) % 4, (o + 2) % 4)))
    at_switch = yield from _reduced((switched, loops))
    at_sm0 = yield from _reduced(sm0)
    return at_switch + sgn * (_Y * at_sm0) - sgn * (_Y * (yield from _reduced(sm_inf)))


def dubrovnik(d: LinkDiagram, memo=None) -> LaurentPolynomial:
    """Regular-isotopy Dubrovnik polynomial of the underlying unoriented
    diagram: D+ - D- = y(D0 - Dinf), positive kink multiplies by x, and a
    split unknot contributes 1 + (x - x^-1)/y."""
    _require_component(d)
    exponent, _, crossings, loops = _reduce(d.crossings, len(d._free_loops(())))
    value = _descend((crossings, loops), _dubrovnik_key, _unoriented_step, memo, "dubrovnik")
    return _X ** exponent * value


def kauffman_f(d: LinkDiagram, memo=None) -> LaurentPolynomial:
    """Dubrovnik version of the Kauffman polynomial, F = x^-w(D) * D(D)."""
    return (_X ** (-d.writhe())) * dubrovnik(d, memo=memo)
