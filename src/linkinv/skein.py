"""Skein-recursion engines for the Conway, HOMFLY and Dubrovnik/Kauffman
polynomials.

The descent strategy is the standard guaranteed-terminating one: fix a
traversal (components in order, each cycle from its stored basepoint) and
locate crossings whose first visit passes under.  Switching such a crossing
strictly reduces the number of violations, smoothing reduces the crossing
count, and a diagram without violations is descending, hence an unlink
(split) after isotopy.

Values are memoized in shared write-once tables keyed by the exact labeled
structure; different descent paths reaching the same sub-diagram produce
identical keys because arc merges keep minimal ids.  The tables only ever
receive immutable values, so concurrent insert-if-absent is safe and the
results are deterministic regardless of schedule.
"""

from __future__ import annotations

from .algebra import LaurentPolynomial
from .diagram import LinkDiagram, uf_find, uf_union

ZVARS = ("z",)
XYVARS = ("x", "y")

_Z = LaurentPolynomial.gen(ZVARS, "z")
_ONE_Z = LaurentPolynomial.one(ZVARS)
_ZERO_Z = LaurentPolynomial.zero(ZVARS)
_X = LaurentPolynomial.gen(XYVARS, "x")
_Y = LaurentPolynomial.gen(XYVARS, "y")
# (x - x^-1)/y, the value a split unknot contributes to H
_DELTA_H = (_X - _X ** -1) * _Y ** -1
# 1 + (x - x^-1)/y, the same for the Dubrovnik polynomial
_DELTA_D = LaurentPolynomial.one(XYVARS) + _DELTA_H


class SkeinBudgetError(RuntimeError):
    """Raised when the resolution tree exceeds the node budget."""

    def __init__(self, budget):
        super().__init__(f"skein node budget of {budget} exceeded")
        self.budget = budget


DEFAULT_BUDGET = 10 ** 6
_default_budget = DEFAULT_BUDGET


def set_default_budget(limit: int | None):
    """Set the node budget used when calls do not pass one explicitly."""
    global _default_budget
    _default_budget = DEFAULT_BUDGET if limit is None else int(limit)


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit):
        self.limit = limit if limit is not None else _default_budget
        self.used = 0

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise SkeinBudgetError(self.limit)


_CONWAY_MEMO: dict = {}
_HOMFLY_MEMO: dict = {}
_DUBROVNIK_MEMO: dict = {}


def clear_memo():
    _CONWAY_MEMO.clear()
    _HOMFLY_MEMO.clear()
    _DUBROVNIK_MEMO.clear()


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


def conway(d: LinkDiagram, budget=None, memo=None, rng=None) -> LaurentPolynomial:
    """Conway polynomial in z, normalized to 1 on the unknot (0 on split links)."""
    d = d.monochrome()
    table = _CONWAY_MEMO if memo is None else memo
    book = _Budget(budget)

    def val(d):
        if d.m > 1 and d.is_split():
            return _ZERO_Z
        key = _key(d)
        hit = table.get(key)
        if hit is not None:
            return hit
        book.spend()
        bads = _bad_crossings(d)
        if not bads:
            out = _ONE_Z if d.m == 1 else _ZERO_Z
        else:
            ci = bads[0] if rng is None else rng.choice(bads)
            branch = val(d.switch(ci)) + d.sign(ci) * (_Z * val(d.smooth_oriented(ci)))
            out = branch
        table[key] = out
        return out

    return val(d)


def homfly(d: LinkDiagram, budget=None, memo=None, rng=None) -> LaurentPolynomial:
    """HOMFLY polynomial in x, y with x*H(L+) - x^-1*H(L-) = y*H(L0)."""
    d = d.monochrome()
    table = _HOMFLY_MEMO if memo is None else memo
    book = _Budget(budget)

    def val(d):
        key = _key(d)
        hit = table.get(key)
        if hit is not None:
            return hit
        book.spend()
        bads = _bad_crossings(d)
        if not bads:
            out = _DELTA_H ** (d.m - 1)
        else:
            ci = bads[0] if rng is None else rng.choice(bads)
            if d.sign(ci) == 1:
                out = (_X ** -2) * val(d.switch(ci)) \
                    + (_X ** -1) * _Y * val(d.smooth_oriented(ci))
            else:
                out = (_X ** 2) * val(d.switch(ci)) \
                    - _X * _Y * val(d.smooth_oriented(ci))
        table[key] = out
        return out

    return val(d)


# -- Dubrovnik engine on unoriented diagrams ----------------------------------

class _UD:
    """Unoriented diagram: crossing records with under-strand at slots {0,2},
    plus a count of crossing-free circles."""

    __slots__ = ("crossings", "loops")

    def __init__(self, crossings, loops):
        self.crossings = tuple(tuple(rec) for rec in crossings)
        self.loops = int(loops)

    def key(self):
        return (self.crossings, self.loops)

    @classmethod
    def from_diagram(cls, d: LinkDiagram) -> "_UD":
        loops = sum(1 for cyc in d.components
                    if len(cyc) == 1 and cyc[0] not in d.heads)
        return cls(d.crossings, loops)


def _ud_traverse(ud: _UD):
    """Canonical traversal: circles ordered by minimal arc, walked from it.

    Returns (ncircles, bads, selfwrithe, entries) where entries[ci] is a
    dict slot->circle for the two entry slots of each crossing.
    """
    endpoints: dict = {}
    for ci, rec in enumerate(ud.crossings):
        for s, arc in enumerate(rec):
            endpoints.setdefault(arc, []).append((ci, s))
    seen_arcs = set()
    entries: dict = {}
    first_entry: dict = {}
    visit_bad = []
    ncircles = 0
    for start in sorted(endpoints):
        if start in seen_arcs:
            continue
        cid = ncircles
        ncircles += 1
        cur = start
        behind = endpoints[start][1]
        while cur not in seen_arcs:
            seen_arcs.add(cur)
            ends = endpoints[cur]
            ahead = ends[1] if ends[0] == behind else ends[0]
            ci, s = ahead
            entries.setdefault(ci, []).append((cid, s))
            if ci not in first_entry:
                first_entry[ci] = s
                if s in (0, 2):
                    visit_bad.append(ci)
            exit_slot = (s + 2) % 4
            behind = (ci, exit_slot)
            cur = ud.crossings[ci][exit_slot]
    selfw = 0
    for ci, pair in entries.items():
        (c1, s1), (c2, s2) = pair
        u = s1 if s1 in (0, 2) else s2
        o = s1 if s1 in (1, 3) else s2
        if c1 == c2:
            selfw += 1 if o == (u + 3) % 4 else -1
    return ncircles, visit_bad, selfw, entries


def _ud_switch(ud: _UD, ci: int) -> _UD:
    rec = ud.crossings[ci]
    new = (rec[1], rec[2], rec[3], rec[0])
    return _UD(ud.crossings[:ci] + (new,) + ud.crossings[ci + 1:], ud.loops)


def _ud_smooth(ud: _UD, ci: int, pairs) -> _UD:
    uf: dict = {}
    rec = ud.crossings[ci]
    loops = ud.loops
    for s1, s2 in pairs:
        if not uf_union(uf, rec[s1], rec[s2]):
            loops += 1
    kept = [tuple(uf_find(uf, a) for a in ud.crossings[j])
            for j in range(len(ud.crossings)) if j != ci]
    return _UD(kept, loops)


def dubrovnik(d_or_ud, budget=None, memo=None) -> LaurentPolynomial:
    """Regular-isotopy Dubrovnik polynomial of the underlying unoriented
    diagram: D+ - D- = y(D0 - Dinf), positive kink multiplies by x, and a
    split unknot contributes 1 + (x - x^-1)/y."""
    ud = d_or_ud if isinstance(d_or_ud, _UD) else _UD.from_diagram(d_or_ud)
    table = _DUBROVNIK_MEMO if memo is None else memo
    book = _Budget(budget)

    def val(ud):
        key = ud.key()
        hit = table.get(key)
        if hit is not None:
            return hit
        book.spend()
        if not ud.crossings:
            out = _DELTA_D ** (ud.loops - 1)
        else:
            ncircles, bads, selfw, entries = _ud_traverse(ud)
            if not bads:
                out = (_X ** selfw) * _DELTA_D ** (ncircles + ud.loops - 1)
            else:
                ci = bads[0]
                (c1, s1), (c2, s2) = entries[ci]
                u = s1 if s1 in (0, 2) else s2
                o = s1 if s1 in (1, 3) else s2
                sgn = 1 if o == (u + 3) % 4 else -1
                sm0 = _ud_smooth(ud, ci, ((u, (o + 2) % 4), (o, (u + 2) % 4)))
                sm_inf = _ud_smooth(ud, ci, ((u, o), ((u + 2) % 4, (o + 2) % 4)))
                out = val(_ud_switch(ud, ci)) \
                    + sgn * (_Y * val(sm0)) - sgn * (_Y * val(sm_inf))
        table[key] = out
        return out

    return val(ud)


def kauffman_f(d: LinkDiagram, budget=None, memo=None) -> LaurentPolynomial:
    """Dubrovnik version of the Kauffman polynomial, F = x^-w(D) * D(D)."""
    w = d.writhe()
    return (_X ** (-w)) * dubrovnik(d, budget=budget, memo=memo)
