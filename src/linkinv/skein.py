"""Skein-recursion engines for the Conway, HOMFLY and Dubrovnik/Kauffman
polynomials, all run by one memoized descent, `_descend`.

The descent strategy is the standard guaranteed-terminating one: fix a
traversal (components in order, each cycle from its stored basepoint) and
locate crossings whose first visit passes under.  Switching such a crossing
strictly reduces the number of violations, smoothing reduces the crossing
count, and a diagram without violations is descending, hence an unlink
(split) after isotopy.

`_descend` looks a node up in a memo table, spends one unit of the node
budget on each miss and stores what the engine's step returns.  There are
two steps:

- the oriented rule x*P(L+) - x^-1*P(L-) = y*P(L0) on `LinkDiagram` nodes,
  split unknot worth (x - x^-1)/y.  It is HOMFLY as written and Conway at
  x = 1, y = z, where a split unknot is worth 0; with that value a split
  diagram is 0 before its memo lookup and costs no node;
- the unoriented Dubrovnik rule on (crossings, loops) nodes, walked by
  `diagram.walk_unoriented`.

Values are memoized in shared write-once tables.  Conway and HOMFLY key a
node on its exact labeled structure; different descent paths reaching the
same sub-diagram produce identical keys because arc merges keep minimal
ids.  Dubrovnik keys a node on `_dubrovnik_key`, a code that forgets arc
labels, crossing order and the 180-degree turn of a record, so every
relabeling of one unoriented diagram on S^2 shares one entry.  The tables
only ever receive immutable values, so concurrent insert-if-absent is safe
and the results are deterministic regardless of schedule.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import LaurentPolynomial
from .diagram import LinkDiagram, uf_find, uf_union, walk_unoriented

ZVARS = ("z",)
XYVARS = ("x", "y")

_Z = LaurentPolynomial.gen(ZVARS, "z")
_X = LaurentPolynomial.gen(XYVARS, "x")
_Y = LaurentPolynomial.gen(XYVARS, "y")
# 1 + (x - x^-1)/y, the value a split unknot contributes to D
_DELTA_D = LaurentPolynomial.one(XYVARS) + (_X - _X ** -1) * _Y ** -1


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


# -- oriented rule: Conway and HOMFLY -----------------------------------------

def _oriented_rule(x, y):
    """x*P(L+) - x^-1*P(L-) = y*P(L0) solved for the diagram at hand: the
    (switch, smoothing) factors by crossing sign, and the value of a split
    unknot."""
    factors = {1: (x ** -2, x ** -1 * y), -1: (x ** 2, -(x * y))}
    return factors, (x - x ** -1) * y ** -1


# x = 1 as a number, so Conway's factors multiply as scalars
_CONWAY_RULE = _oriented_rule(Fraction(1), _Z)
_HOMFLY_RULE = _oriented_rule(_X, _Y)


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


def _oriented(d: LinkDiagram, rule, table, budget, rng, engine) -> LaurentPolynomial:
    factors, delta = rule
    prune = delta.is_zero
    unlinks: dict = {}  # m -> delta^(m - 1), the m-component unlink

    def value(d, val):
        # a split diagram's value is a multiple of delta, so with delta = 0
        # it is known without a lookup and costs no node
        if prune and d.m > 1 and d.is_split():
            return delta
        return val(d)

    def step(d, val):
        bads = _bad_crossings(d)
        if not bads:
            if d.m not in unlinks:
                unlinks[d.m] = delta ** (d.m - 1)
            return unlinks[d.m]
        ci = bads[0] if rng is None else rng.choice(bads)
        at_switch, at_smooth = factors[d.sign(ci)]
        return at_switch * value(d.switch(ci), val) \
            + at_smooth * value(d.smooth_oriented(ci), val)

    return value(d.monochrome(), lambda root: _descend(root, _key, step, table, budget, engine))


def conway(d: LinkDiagram, budget=None, memo=None, rng=None) -> LaurentPolynomial:
    """Conway polynomial in z, normalized to 1 on the unknot (0 on split links)."""
    table = _CONWAY_MEMO if memo is None else memo
    return _oriented(d, _CONWAY_RULE, table, budget, rng, "conway")


def homfly(d: LinkDiagram, budget=None, memo=None, rng=None) -> LaurentPolynomial:
    """HOMFLY polynomial in x, y with x*H(L+) - x^-1*H(L-) = y*H(L0)."""
    table = _HOMFLY_MEMO if memo is None else memo
    return _oriented(d, _HOMFLY_RULE, table, budget, rng, "homfly")


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
    flat = [arc for rec in crossings for arc in rec]  # slot s of crossing c at 4c + s
    ends: dict = {}
    for i, arc in enumerate(flat):
        ends.setdefault(arc, []).append(i)
    other = [0] * len(flat)  # the far end of the arc at each slot
    uf: dict = {}  # crossings joined by an arc
    for i, j in ends.values():
        other[i], other[j] = j, i
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
