"""The HOMFLY and Dubrovnik/Kauffman polynomials by skein recursion, both
run by one memoized descent, `_descend`, and the Conway polynomial and the
potential function's numerator from Kauffman's state sum.

Conway is not a skein engine.  `state_sum` builds Alexander's state matrix
(one row per crossing, one column per face but two adjacent ones, corner
weights in the variables of the two strands' colors), takes its
determinant with the Bareiss kernel `algebra.fox_determinant` and fixes
the sign from one state.  `conway` is its one-color case rewritten in
z = x - x^-1, and `alexander.potential_function` its colored case:
polynomial time, and no node budget.

The descent strategy is the standard guaranteed-terminating one: fix a
traversal (components in order, each cycle from its stored basepoint) and
locate crossings whose first visit passes under.  Switching such a crossing
strictly reduces the number of violations, smoothing reduces the crossing
count, and a diagram without violations is descending, hence an unlink
(split) after isotopy.

`_descend` looks a node up in a memo table, spends one unit of the node
budget on each miss and stores what the engine's step returns.  There are
two steps:

- the oriented HOMFLY rule x*H(L+) - x^-1*H(L-) = y*H(L0) on `LinkDiagram`
  nodes, split unknot worth (x - x^-1)/y;
- the unoriented Dubrovnik rule on (crossings, loops) nodes, walked by
  `diagram.walk_unoriented`.

Values are memoized in shared write-once tables.  Conway keeps one entry
per whole diagram and HOMFLY one per node, both keyed on the exact labeled
structure; different descent paths reaching the same sub-diagram produce
identical keys because arc merges keep minimal ids.  Dubrovnik keys a node
on `_dubrovnik_key`, a code that forgets arc labels, crossing order and the
180-degree turn of a record, so every relabeling of one unoriented diagram
on S^2 shares one entry.  The tables only ever receive immutable values, so
concurrent insert-if-absent is safe and the results are deterministic
regardless of schedule.
"""

from __future__ import annotations

from .algebra import LaurentPolynomial, fox_determinant, rewrite_in_difference
from .diagram import LinkDiagram, uf_find, uf_union, walk_unoriented

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
_default_budget = DEFAULT_BUDGET


def set_default_budget(limit: int | None):
    """Set the node budget used when calls do not pass one explicitly."""
    global _default_budget
    _default_budget = DEFAULT_BUDGET if limit is None else int(limit)


class _Budget:
    __slots__ = ("engine", "limit", "used")

    def __init__(self, engine, limit):
        self.engine = engine
        self.limit = limit if limit is not None else _default_budget
        self.used = 0

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise SkeinBudgetError(self.engine, self.limit)


_CONWAY_MEMO: dict = {}
_HOMFLY_MEMO: dict = {}
_DUBROVNIK_MEMO: dict = {}


def clear_memo():
    _CONWAY_MEMO.clear()
    _HOMFLY_MEMO.clear()
    _DUBROVNIK_MEMO.clear()


def _descend(root, key, step, table, budget, engine):
    """The one memoized skein recursion: the value of a node is table[key],
    and a miss spends one unit of `engine`'s budget and stores
    step(node, val), where val evaluates the node's children the same way."""
    book = _Budget(engine, budget)

    def val(node):
        k = key(node)
        hit = table.get(k)
        if hit is not None:
            return hit
        book.spend()
        out = table[k] = step(node, val)
        return out

    return val(root)


# -- oriented rule: HOMFLY ------------------------------------------------------

# x*H(L+) - x^-1*H(L-) = y*H(L0) solved for the diagram at hand: the
# (switch, smoothing) factors by crossing sign
_HOMFLY_FACTORS = {1: (_X ** -2, _X ** -1 * _Y), -1: (_X ** 2, -(_X * _Y))}


def _key(d: LinkDiagram):
    return (d.crossings, d.components, d.over_in)


def _bad_crossings(d: LinkDiagram):
    """Crossings whose first visit (in traversal order) passes under."""
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


def homfly(d: LinkDiagram, budget=None, memo=None, rng=None) -> LaurentPolynomial:
    """HOMFLY polynomial in x, y with x*H(L+) - x^-1*H(L-) = y*H(L0)."""
    table = _HOMFLY_MEMO if memo is None else memo
    unlinks: dict = {}  # m -> the m-component unlink, delta^(m - 1)

    def step(d, val):
        bads = _bad_crossings(d)
        if not bads:
            if d.m not in unlinks:
                unlinks[d.m] = _DELTA_H ** (d.m - 1)
            return unlinks[d.m]
        ci = bads[0] if rng is None else rng.choice(bads)
        at_switch, at_smooth = _HOMFLY_FACTORS[d.sign(ci)]
        return at_switch * val(d.switch(ci)) + at_smooth * val(d.smooth_oriented(ci))

    return _descend(d.monochrome(), _key, step, table, budget, "homfly")


# -- Kauffman's state sum: Conway and the potential function ------------------

# corner weights, corners 0..3, by crossing sign, as (exponent of x_o,
# exponent of x_u): x_o and x_u are the variables of the over-strand color
# (the arc at slot 1) and the under-strand color (slot 0); with one color,
# s = x_o = x_u = t^(1/2), they read (1, s, 1, s^-1) and (s, 1, s^-1, 1).
# The flipped corner is the one whose weight is negative in Kauffman's
# state sum.
_CORNERS = {1: ((0, 0), (1, 0), (1, -1), (0, -1)), -1: ((0, 1), (-1, 1), (-1, 0), (0, 0))}
_FLIPPED = {1: 3, -1: 0}


def _far_ends(crossings):
    """The arc at every slot, slot s of crossing c at 4c + s, and the slot
    at that arc's other end."""
    flat = [arc for rec in crossings for arc in rec]
    ends: dict = {}
    for i, arc in enumerate(flat):
        ends.setdefault(arc, []).append(i)
    other = [0] * len(flat)
    for i, j in ends.values():
        other[i], other[j] = j, i
    return flat, other


def _faces(crossings):
    """Face of every corner, corner i of crossing X at 4X + i, between its
    slots i and i + 1: following the arc at slot i + 1 to its other end
    (Y, j) reaches the next corner of the same face, (Y, j)."""
    _, other = _far_ends(crossings)
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


def _state_matrix(d: LinkDiagram, colors, variables, cut: int):
    """Alexander's c x c state matrix of a connected diagram with c >= 1
    crossings: one row per crossing, one column per face except the two on
    either side of the arc at slot `cut` (crossing cut // 4, slot cut % 4),
    each entry the sum of the crossing's corner weights in that face, the
    strands of component k weighted by x_colors[k].  Returns the rows and,
    per row, (column, flip) for every corner that has a column.

    A connected diagram has c + 2 faces, and the two sides of any arc are
    different faces: a 4-valent graph has no bridge, since cutting one
    would leave a part of odd total degree."""
    face = _faces(d.crossings)
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

    def place(r, seen):
        for col, flip in options[r]:
            if col not in seen:
                seen.add(col)
                if col not in owner or place(owner[col][0], seen):
                    owner[col] = (r, flip)
                    return True
        return False

    for r in range(len(options)):
        place(r, set())  # det != 0, so a perfect matching exists
    perm = [0] * len(options)
    sign = 1
    for col, (r, flip) in owner.items():
        perm[r] = col
        sign *= flip
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -sign if inversions % 2 else sign


def state_sum(d: LinkDiagram, colors, cut: int = 0) -> LaurentPolynomial:
    """Kauffman's state sum e * det in x1..xn, n = max(colors), det the
    determinant of the state matrix cut at slot `cut` with the strands of
    component k weighted by x_colors[k] (Alexander, Trans. AMS 30, 1928;
    Kauffman, Formal Knot Theory, 1983).  It is the potential function's
    numerator for a knot and (x_c - x_c^-1) times the potential function
    for a link, c the color of the cut arc; with one color it is
    conway(x - x^-1).  A split diagram gives 0, a crossing-free knot 1."""
    variables = tuple(f"x{c}" for c in range(1, max(colors) + 1))
    if d.is_split():
        return LaurentPolynomial.zero(variables)
    if not d.crossings:
        return LaurentPolynomial.one(variables)
    rows, options = _state_matrix(d, colors, variables, cut)
    det = fox_determinant(rows, len(rows), variables)
    if det.is_zero:
        return det
    return _state_sign(options) * det


def conway(d: LinkDiagram, memo=None) -> LaurentPolynomial:
    """Conway polynomial in z, normalized to 1 on the unknot (0 on split
    links): the one-color state sum rewritten in z = x - x^-1, in
    polynomial time.  The memo holds one value per diagram."""
    table = _CONWAY_MEMO if memo is None else memo
    key = _key(d)
    value = table.get(key)
    if value is None:
        value = table[key] = rewrite_in_difference(state_sum(d, (1,) * d.m))
    return value


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
    every part has an even start."""
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
                    best = code
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


def _unoriented_step(node, val):
    """One Dubrovnik node: (crossings, loops), crossing records with the
    under-strand at slots {0, 2} plus a count of crossing-free circles."""
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
    return val((switched, loops)) + sgn * (_Y * val(sm0)) - sgn * (_Y * val(sm_inf))


def dubrovnik(d: LinkDiagram, budget=None, memo=None) -> LaurentPolynomial:
    """Regular-isotopy Dubrovnik polynomial of the underlying unoriented
    diagram: D+ - D- = y(D0 - Dinf), positive kink multiplies by x, and a
    split unknot contributes 1 + (x - x^-1)/y."""
    loops = sum(1 for cyc in d.components if len(cyc) == 1 and cyc[0] not in d.heads)
    table = _DUBROVNIK_MEMO if memo is None else memo
    return _descend((d.crossings, loops), _dubrovnik_key, _unoriented_step, table, budget,
                    "dubrovnik")


def kauffman_f(d: LinkDiagram, budget=None, memo=None) -> LaurentPolynomial:
    """Dubrovnik version of the Kauffman polynomial, F = x^-w(D) * D(D)."""
    w = d.writhe()
    return (_X ** (-w)) * dubrovnik(d, budget=budget, memo=memo)
