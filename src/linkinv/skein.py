"""The HOMFLY and Dubrovnik/Kauffman polynomials by skein recursion, both
run by one memoized descent, `_descend`, and the Conway polynomial and the
potential function's numerator from Kauffman's state sum.

Conway is not a skein engine.  `state_sum` builds Alexander's state matrix
(a row per crossing, a column per face but two adjacent ones, corner
weights in the two strands' color variables) as packed sparse rows, at
radix 2^bits > 4c as every exponent is 0 or +-1, takes its determinant by
`algebra.fox_determinant`, signs it by one state and unpacks it once.
`conway` is its one-color case in z = x - x^-1, and the potential function
its colored case: polynomial time, no node budget and no memo.

The descent strategy is the standard guaranteed-terminating one: fix a
traversal (each circle from its minimal arc) and locate crossings whose
first visit passes under.  Both steps walk a node through the far-end
table it carries, by `diagram.walk_oriented` along its stored directions
or by `diagram.walk_unoriented`, and resolve the first such crossing in
walk order (`_first_under`).  Switching it strictly reduces the number of
violations, smoothing reduces the crossing count, and a diagram without
violations is descending, hence an unlink (split) after isotopy.  A node
carries the two tables of `diagram.far_ends`, the arc at every slot and
the slot at its other end, and only the root builds them.  A switch turns
its crossing's four slots in place (`_turn`).  Both descents build their
root and every child by `_reduce` before it is keyed.  It joins a
smoothed crossing's slots in pairs, erases each curl (Reidemeister I) and
each bigon that one strand passes over at both corners (Reidemeister II),
every join by `diagram.relink`, which writes the smaller label onto both
ends of the joined arc.  D is a regular-isotopy invariant
with D(curl) = x^(+-1) * D(curl removed) (Kauffman, Trans. AMS 318,
1990), and H an ambient-isotopy invariant, so no such move costs a node,
a key or a skein step.  A reduction only lowers the crossing count
and the violations are recomputed on the reduced node, so the descent
still terminates.

`_descend` runs the descent as one loop over an explicit stack, so a deep
diagram stops at its node budget, never at the interpreter's frame limit.
It looks a node up in a memo table, spends one unit of the node budget on
each miss and stores what the engine's step returns.  A step is a
generator: it yields each child node, is sent that child's value and
returns the node's value.  There are two steps:

- the oriented HOMFLY rule x*H(L+) - x^-1*H(L-) = y*H(L0) on (flat,
  other, over_in, loops) nodes, split unknot worth (x - x^-1)/y;
- the unoriented Dubrovnik rule on (flat, other, loops) nodes.

Each skein call memoizes values in a table: its `memo=`, else its scope's,
else a fresh one.  Both engines key a node on `_unlabelled`, the node
without its labels `flat`: its far ends `other` are its slot pairing, so
every relabeling of one diagram shares one entry.  The labels stay in the
node, because the walk that picks the crossing to resolve reads them.  A
switch keeps the labels, so along a run of switches the walk is fixed and
the violations fall: a relabeling of a pending node never turns up below
it, and every node spent is one table entry.
`with scope(budget):` gives its block, in the current context only (a
`contextvars.ContextVar`), the node budget and one table per engine, freed
when the block exits; a `scope()` with no budget inside another keeps the
enclosing one.  Outside a scope a call spends DEFAULT_BUDGET at most and
its value depends on its arguments alone.  `conway` keeps no table.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from operator import itemgetter
from typing import NamedTuple

from .algebra import LaurentPolynomial, _unpack, fox_determinant, permutation_sign, \
    rewrite_in_difference
from .diagram import LinkDiagram, disconnected, far_ends, relink, walk_oriented, walk_unoriented

XYVARS = ("x", "y")

_X = LaurentPolynomial.gen(XYVARS, "x")
_Y = LaurentPolynomial.gen(XYVARS, "y")
# the value a split unknot contributes to H, (x - x^-1)/y, and to D, 1 more
_DELTA_H = (_X - _X ** -1) * _Y ** -1
_DELTA_D = LaurentPolynomial.one(XYVARS) + _DELTA_H


class ResourceError(RuntimeError):
    """A computation stopped at a resource limit; the CLI exits 3 on it."""


class SkeinBudgetError(ResourceError):
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


# the memo key of a skein node (flat, other, ...): `other` onwards
_unlabelled = itemgetter(slice(1, None))


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


def _reduced_oriented(flat, other, over_in, loops, joins=()):
    """The HOMFLY node (flat, other, over_in, loops) of `_reduce`: the
    given one smoothed by `joins`, its curls and reducible bigons gone; H
    is an ambient-isotopy invariant, so neither move changes its value."""
    _, gone, flat, other, loops = _reduce(flat, other, loops, joins)
    if gone:
        over_in = tuple(o for c, o in enumerate(over_in) if c not in gone)
    return flat, other, over_in, loops


def homfly(d: LinkDiagram, memo=None) -> LaurentPolynomial:
    """HOMFLY polynomial in x, y with x*H(L+) - x^-1*H(L-) = y*H(L0)."""
    _require_component(d)
    unlinks: dict = {}  # m -> the m-component unlink, delta^(m - 1)

    def step(node):
        # one HOMFLY node: the arc at every slot, slot 0 the incoming
        # under-strand and over_in the slot the over-strand enters by, their
        # far ends, plus free loops
        flat, other, over_in, loops = node
        circles = walk_oriented(flat, other, over_in)
        ci = _first_under(circles)
        if ci is None:
            m = len(circles) + loops
            if m not in unlinks:
                unlinks[m] = _DELTA_H ** (m - 1)
            return unlinks[m]
        o = over_in[ci]
        at_switch, at_smooth = _HOMFLY_FACTORS[1 if o == 3 else -1]
        # the switch turns the record so the over-strand's entry is slot 0
        switched = _turn(flat, other, ci, o) + (over_in[:ci] + (4 - o,) + over_in[ci + 1:], loops)
        value = at_switch * (yield _reduced_oriented(*switched))
        joins = ((4 * ci, 4 * ci + (o ^ 2)), (4 * ci + o, 4 * ci + 2))
        return value + at_smooth * (yield _reduced_oriented(flat, other, over_in, loops, joins))

    root = _reduced_oriented(*far_ends(d.crossings), d.over_in, len(d._free_loops(())))
    return _descend(root, _unlabelled, step, memo, "homfly")


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
    crossings and far ends `other`, as packed rows for `fox_determinant`:
    one row per crossing, one column per face except the two on either
    side of the arc at slot `cut` (crossing cut // 4, slot cut % 4), each
    entry the sum of the crossing's corner weights in that face, the
    strands of component k weighted by x_colors[k].  Returns the rows and,
    per row, (column, flip) for every corner that has a column.  A weight
    x_o^a * x_u^b packs to a*R^(n-o) + b*R^(n-u), n = len(variables), as
    `algebra._pack` orders them; as a, b and all entry exponents are 0 or
    +-1 (E = 1), bits = (4c).bit_length() meets the kernel's R > 4*c*E.

    A connected diagram has c + 2 faces, and the two sides of any arc are
    different faces: a 4-valent graph has no bridge, since cutting one
    would leave a part of odd total degree."""
    face = _faces(other)
    dropped = {face[cut], face[(cut & ~3) | ((cut - 1) & 3)]}
    kept = sorted(set(face) - dropped)
    column = dict(zip(kept, range(len(kept))))
    bits = (4 * len(d.signs)).bit_length()
    place = [1 << bits * k for k in range(len(variables) - 1, -1, -1)]  # color k at R^(n-k)
    rows, options = [], []
    for x, sign in enumerate(d.signs):
        cu, co = d.strands_at(x)
        u, o = place[colors[cu] - 1], place[colors[co] - 1]
        row = {}
        corners = []
        for i, (a, b) in enumerate(_CORNERS[sign]):
            col = column.get(face[4 * x + i])
            if col is not None:
                entry = row.setdefault(col, {})
                key = a * o + b * u
                entry[key] = entry.get(key, 0) + 1
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
    Kauffman, Formal Knot Theory, 1983), taken on the packed rows of
    `_state_matrix` and unpacked once.  It is the potential function's
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
    bits = (4 * len(rows)).bit_length()  # the radix `_state_matrix` packs at
    det = fox_determinant(rows, len(rows), bits, len(variables))
    sign = _state_sign(options) if det else 1
    return LaurentPolynomial._make(variables, {
        _unpack(k, bits, len(variables)): sign * c for k, c in det.items()})


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

def _turn(flat, other, c, r):
    """The tables with crossing c turned by r quarters, in O(1) beyond the
    copy: its slot s takes the arc slot s + r held, and the far ends
    follow."""
    base = 4 * c
    flat, other = list(flat), list(other)
    arcs, ends = flat[base:base + 4], other[base:base + 4]

    def moved(k):
        return base | ((k - r) & 3) if k >> 2 == c else k

    for t in range(4):
        s, far = moved(base | t), moved(ends[t])
        flat[s] = arcs[t]
        other[s], other[far] = far, s
    return flat, other


def _reduce(flat, other, loops, joins=()):
    """Join the arcs at each pair of slots in `joins`, all at one crossing
    (a smoothing), then remove every curl and every reducible bigon by
    Reidemeister I and II moves: given the tables of `diagram.far_ends`,
    returns (e, gone, flat, other, loops), D(the given node) = x^e * D(the
    node left), `gone` the indices of the crossings erased and flat and
    other the tables of the crossings kept.

    The moves are read off the faces of `_faces`.  A curl is a one-corner
    face, one arc at two adjacent slots s, s + 1, and contributes x for
    even s, x^-1 for odd s.  A reducible bigon is a two-corner face with
    its corners at different crossings whose two arcs each keep their slot
    parity from end to end, so one strand passes over at both crossings;
    it contributes 1.  Either move erases its crossings by joining the
    arcs at slots 0, 2 and at slots 1, 3.  Every join, a smoothing's too,
    is a `diagram.relink`, which writes the least label onto both ends of
    the joined arc, and a strand that closes inside the erased crossings
    becomes a free loop.  The crossings at the relinked far ends are
    checked again, so each move costs O(1)."""
    flat, other = list(flat), list(other)
    gone = {a >> 2 for a, _ in joins}
    todo: list = []

    def join(pairs):
        nonlocal loops
        for a, b in pairs:
            if relink(flat, other, a, b):
                todo.extend((other[a] >> 2, other[b] >> 2))
            else:
                loops += 1

    join(joins)
    todo = list(range(len(flat) >> 2))  # every crossing, the last first
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
        join([(4 * e + s, 4 * e + s + 2) for e in erased for s in (0, 1)])
    if gone:
        kept = [c for c in range(len(flat) >> 2) if c not in gone]
        moved = {c: 4 * j for j, c in enumerate(kept)}  # each kept crossing's first slot
        other = [moved[k >> 2] | (k & 3) for c in kept for k in other[4 * c:4 * c + 4]]
        flat = [a for c in kept for a in flat[4 * c:4 * c + 4]]
    return exponent, gone, tuple(flat), tuple(other), loops


def _reduced(flat, other, loops, joins=()):
    """Yield the Dubrovnik node (flat, other, loops) of `_reduce` and
    return the value of the node it was reduced from."""
    exponent, _, *node = _reduce(flat, other, loops, joins)
    value = yield tuple(node)
    return _X ** exponent * value if exponent else value


def _unoriented_step(node):
    """One Dubrovnik node: (flat, other, loops), the arc at every slot with
    the under-strand at slots {0, 2}, their far ends and a count of
    crossing-free circles.  Every child it yields is reduced."""
    flat, other, loops = node
    if not flat:
        return _DELTA_D ** (loops - 1)
    circles = walk_unoriented(flat, other)
    into = [-1] * len(flat)  # the circle entering at each slot
    for cid, circle in enumerate(circles):
        for i in circle:
            into[i] = cid

    def entries(c):
        # the slots the walk enters crossing c by, under and over, and
        # the crossing's sign in the walk's directions
        u = 4 * c if into[4 * c] >= 0 else 4 * c + 2
        o = 4 * c + 1 if into[4 * c + 1] >= 0 else 4 * c + 3
        return u, o, 1 if (o - u) & 3 == 3 else -1

    ci = _first_under(circles)
    if ci is None:
        selfw = 0
        for c in range(len(flat) >> 2):
            u, o, sgn = entries(c)
            if into[u] == into[o]:
                selfw += sgn
        return (_X ** selfw) * _DELTA_D ** (len(circles) + loops - 1)
    u, o, sgn = entries(ci)
    at_switch = yield from _reduced(*_turn(flat, other, ci, 1), loops)
    at_sm0 = yield from _reduced(flat, other, loops, ((u, o ^ 2), (o, u ^ 2)))
    at_sm_inf = yield from _reduced(flat, other, loops, ((u, o), (u ^ 2, o ^ 2)))
    return at_switch + sgn * (_Y * at_sm0) - sgn * (_Y * at_sm_inf)


def dubrovnik(d: LinkDiagram, memo=None) -> LaurentPolynomial:
    """Regular-isotopy Dubrovnik polynomial of the underlying unoriented
    diagram: D+ - D- = y(D0 - Dinf), positive kink multiplies by x, and a
    split unknot contributes 1 + (x - x^-1)/y."""
    _require_component(d)
    exponent, _, *root = _reduce(*far_ends(d.crossings), len(d._free_loops(())))
    value = _descend(tuple(root), _unlabelled, _unoriented_step, memo, "dubrovnik")
    return _X ** exponent * value


def kauffman_f(d: LinkDiagram, memo=None) -> LaurentPolynomial:
    """Dubrovnik version of the Kauffman polynomial, F = x^-w(D) * D(D)."""
    return (_X ** (-d.writhe())) * dubrovnik(d, memo=memo)
