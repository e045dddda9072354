import contextvars
import json
import math
import os
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkinv import diagram, skein
from linkinv.algebra import LaurentPolynomial, _unpack, rewrite_in_difference
from linkinv.alexander import potential_function
from linkinv.corpus import load_corpus
from linkinv.diagram import (
    BraidWord,
    LinkDiagram,
    _trace_oriented,
    braid_closure,
    far_ends,
    parse_pd,
    walk_unoriented,
)
from linkinv.skein import (
    DEFAULT_BUDGET,
    ResourceError,
    SkeinBudgetError,
    _descend,
    _faces,
    _key,
    _reduce,
    _state_matrix,
    _state_sign,
    conway,
    dubrovnik,
    homfly,
    kauffman_f,
    scope,
    state_sum,
)

from helpers import (
    as_pd,
    bad_crossings,
    curl_keeping_step,
    dense_fox_determinant,
    dict_trace_oriented,
    dict_walk_unoriented,
    disjoint_union,
    labelled_homfly,
    laurent_state_matrix,
    pairing_key,
    split_by_component_groups,
    strip_kinks,
    two_pass_reduce,
)

Z = ("z",)
XY = ("x", "y")
X = LaurentPolynomial.gen(XY, "x")
Y = LaurentPolynomial.gen(XY, "y")
DELTA_H = (X - X ** -1) * Y ** -1
DELTA_D = LaurentPolynomial.one(XY) + DELTA_H


def zpoly(terms):
    return LaurentPolynomial(Z, terms)


def unknot():
    return parse_pd("O[1]\ncomponents: [[1]]\ncolors: [1]")


def unlink(m):
    toks = " ".join(f"O[{i}]" for i in range(1, m + 1))
    comps = "[" + ",".join(f"[{i}]" for i in range(1, m + 1)) + "]"
    cols = "[" + ",".join("1" for _ in range(m)) + "]"
    return parse_pd(f"{toks}\ncomponents: {comps}\ncolors: {cols}")


def hopf():
    return braid_closure(BraidWord(2, [1, 1]), name="hopf+")


def trefoil():
    return braid_closure(BraidWord(2, [1, 1, 1]), name="trefoil")


def fig8():
    return braid_closure(BraidWord(3, [1, -2, 1, -2]), name="fig8")


def borromean():
    return braid_closure(BraidWord(3, [1, -2, 1, -2, 1, -2]), name="borromean")


def whitehead():
    return braid_closure(BraidWord(3, [1, -2, 1, -2, 1]), name="whitehead")


def solomon():
    return braid_closure(BraidWord(2, [1, 1, 1, 1]), name="solomon")


SMALL = [unknot, hopf, trefoil, fig8, solomon, whitehead, borromean]

Z_GEN = LaurentPolynomial.gen(Z, "z")


def recursive_descend(root, key, step, table, engine):
    """The oracle for `_descend`: the same memo lookups, budget and
    generator steps, each child evaluated by a recursive call."""
    limit = skein._SCOPE.get().budget
    used = 0

    def val(node):
        nonlocal used
        k = key(node)
        hit = table.get(k)
        if hit is not None:
            return hit
        used += 1
        if used > limit:
            raise SkeinBudgetError(engine, limit)
        gen = step(node)
        child = None
        while True:
            try:
                child = val(gen.send(child))
            except StopIteration as done:
                out = table[k] = done.value
                return out

    return val(root)


def skein_conway(d, memo=None, descend=_descend):
    """The oracle: the oriented skein rule at x = 1, y = z,
    C(L+) - C(L-) = z*C(L0), descending through `descend` with the
    labelled key; a split diagram is 0 before its memo lookup and costs no
    node, and a descending diagram is an unlink, 1 or 0."""
    def value(d):
        if d.m > 1 and d.is_split():
            return LaurentPolynomial.zero(Z)
        return (yield d)

    def step(d):
        bads = bad_crossings(d)
        if not bads:
            return LaurentPolynomial.one(Z) if d.m == 1 else LaurentPolynomial.zero(Z)
        ci = bads[0]
        switched = yield from value(d.switch(ci))
        return switched + d.sign(ci) * Z_GEN * (yield from value(d.smooth_oriented(ci)))

    table = {} if memo is None else memo
    if d.m > 1 and d.is_split():
        return LaurentPolynomial.zero(Z)
    return descend(d, _key, step, table, "conway")


def test_conway_unknot():
    assert conway(unknot()) == LaurentPolynomial.one(Z)


def test_conway_split_links_vanish():
    assert conway(unlink(2)).is_zero
    assert conway(unlink(3)).is_zero
    assert conway(disjoint_union(hopf(), unknot())).is_zero
    for d in (disjoint_union(trefoil(), fig8()), disjoint_union(whitehead(), unknot()),
              disjoint_union(hopf(), unlink(2)),
              # connected diagrams of unlinks: the determinant itself is 0
              braid_closure(BraidWord(2, [1, -1])), braid_closure(BraidWord(3, [1, -1, 2, -2]))):
        assert conway(d, memo={}).is_zero, d


def test_conway_hopf():
    assert conway(hopf()) == zpoly({(1,): 1})
    assert conway(hopf().switch(0).switch(1)) == zpoly({(1,): -1})


def test_conway_trefoils():
    expected = zpoly({(0,): 1, (2,): 1})
    assert conway(trefoil()) == expected
    assert conway(braid_closure(BraidWord(2, [-1, -1, -1]))) == expected


def test_conway_figure_eight():
    assert conway(fig8()) == zpoly({(0,): 1, (2,): -1})


def test_conway_borromean():
    assert conway(borromean()) == zpoly({(4,): 1})


def test_conway_whitehead_form():
    # lk = 0, Sato-Levine +-1: the polynomial is +-z^3
    p = conway(whitehead())
    assert p in (zpoly({(3,): 1}), zpoly({(3,): -1}))


def test_conway_chain_links():
    # hand recursion on closures of 2-braids sigma_1^k
    assert conway(solomon()) == zpoly({(1,): 2, (3,): 1})
    h3 = braid_closure(BraidWord(2, [1] * 6))
    assert conway(h3) == zpoly({(1,): 3, (3,): 4, (5,): 1})
    h4 = braid_closure(BraidWord(2, [1] * 8))
    assert conway(h4) == zpoly({(1,): 4, (3,): 10, (5,): 6, (7,): 1})


def test_conway_multiplicative_under_connected_sum():
    t = trefoil()
    for base, comp in ((hopf(), 0), (hopf(), 1), (whitehead(), 1), (borromean(), 2)):
        s = base.connected_sum(t, comp, 0)
        assert conway(s) == conway(base) * conway(t)


def relabelled(d, rng):
    """d with its arcs renamed by a seeded permutation, each component
    rotated to start at its new minimal arc and the components ordered by
    it, so the walk of each engine meets the crossings in another order."""
    arcs = d.arcs()
    rename = dict(zip(arcs, rng.sample(arcs, len(arcs))))
    crossings = [tuple(rename[a] for a in rec) for rec in d.crossings]
    comps = [tuple(rename[a] for a in cyc) for cyc in d.components]
    comps, colors = LinkDiagram._canon_components(comps, d.colors)
    return LinkDiagram(crossings, comps, colors, over_in=d.over_in)


@pytest.mark.parametrize("engine", [skein_conway, homfly], ids=["conway", "homfly"])
def test_conway_descent_independence(engine):
    for make in (trefoil, whitehead, borromean):
        d = make()
        base = engine(d, memo={})
        firsts = set()
        for seed in range(10):
            r = relabelled(d, random.Random(seed))
            firsts.add(bad_crossings(r)[0])
            assert engine(r, memo={}) == base
        assert len(firsts) > 1, make.__name__  # the first bad crossing moved


def test_conway_skein_relation_everywhere():
    z = LaurentPolynomial.gen(Z, "z")
    for make in SMALL:
        d = make()
        for ci in range(len(d.crossings)):
            pos = d if d.sign(ci) == 1 else d.switch(ci)
            neg = d.switch(ci) if d.sign(ci) == 1 else d
            smooth = d.smooth_oriented(ci)
            assert conway(pos) - conway(neg) == z * conway(smooth), (make.__name__, ci)


def test_budget_error():
    for engine, name in ((skein_conway, "conway"), (homfly, "homfly"),
                         (kauffman_f, "dubrovnik")):
        with pytest.raises(SkeinBudgetError) as info, scope(2):
            engine(as_pd(borromean()), memo={})
        assert info.value.engine == name
        assert info.value.budget == 2
        assert str(info.value) == f"{name} skein node budget of 2 exceeded"


@pytest.mark.parametrize("name,engine", [("homfly", homfly), ("dubrovnik", kauffman_f)])
def test_budget_error_is_a_resource_error(name, engine):
    # the CLI's exit 3 catches the one ResourceError
    with pytest.raises(ResourceError) as info, scope(2):
        engine(as_pd(borromean()))
    assert type(info.value) is SkeinBudgetError
    assert (info.value.engine, info.value.budget) == (name, 2)


ENGINES = [("homfly", homfly), ("dubrovnik", dubrovnik), ("dubrovnik", kauffman_f)]


@pytest.mark.parametrize("name,engine", ENGINES)
def test_no_call_outside_a_scope_answers_for_another(name, engine):
    # outside a scope every call starts from an empty table, so a warm call
    # does not let a later one pass a budget it cannot meet
    d = as_pd(borromean())
    engine(d)

    def outside_a_scope_with_budget_1():
        skein._SCOPE.set(skein._Scope(1, None))
        return engine(d)

    with pytest.raises(SkeinBudgetError) as info:
        contextvars.copy_context().run(outside_a_scope_with_budget_1)
    assert (info.value.engine, info.value.budget) == (name, 1)


@pytest.mark.parametrize("name,engine", ENGINES)
def test_a_scope_shares_its_tables_until_it_exits(name, engine):
    # inside a scope, calls that pass no memo share its table and spend its
    # budget; an explicit memo still wins
    d = as_pd(borromean())
    with scope():
        want = engine(d)
        table = skein._SCOPE.get().tables[name]
        size = len(table)
        assert size and engine(d) == want and len(table) == size
        memo = {}
        assert engine(d, memo=memo) == want and memo and len(table) == size
    assert skein._SCOPE.get().tables is None
    with scope(1):
        with pytest.raises(SkeinBudgetError) as info:
            engine(d)
    assert (info.value.engine, info.value.budget) == (name, 1)


def test_a_nested_scope_keeps_the_enclosing_one():
    # scope() with no budget inside a scope keeps its budget and tables;
    # scope(n) opens fresh tables with budget n
    with scope(5):
        outer = skein._SCOPE.get()
        with scope():
            assert skein._SCOPE.get() is outer
        with scope(7):
            inner = skein._SCOPE.get()
            assert inner.budget == 7 and inner.tables is not outer.tables
            with pytest.raises(SkeinBudgetError) as info:
                homfly(as_pd(borromean()))
            assert info.value.budget == 7
        assert skein._SCOPE.get() is outer
    with scope():
        assert skein._SCOPE.get().budget == DEFAULT_BUDGET


def test_library_run_suites_shares_one_table(monkeypatch):
    # outside any scope, run_suites opens one for all its engine calls
    from linkinv.suites import run_suites

    tables = []
    real = skein._descend

    def recording(root, key, step, table, engine):
        tables.append(skein._SCOPE.get().tables)
        return real(root, key, step, table, engine)

    monkeypatch.setattr(skein, "_descend", recording)
    assert all(c.passed for c in run_suites(["skein-relations"]))
    assert len(tables) > 100 and tables[0] is not None
    assert all(t is tables[0] for t in tables)
    assert skein._SCOPE.get().tables is None


def test_two_threads_keep_their_own_scopes():
    d = as_pd(borromean())
    want = homfly(d)
    barrier = threading.Barrier(2)
    results = {}

    def compute(budget):
        with scope(budget):
            barrier.wait(timeout=60)
            try:
                results[budget] = homfly(d)
            except SkeinBudgetError as exc:
                results[budget] = exc

    threads = [threading.Thread(target=compute, args=(b,)) for b in (1, None)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert isinstance(results[1], SkeinBudgetError) and results[1].budget == 1
    assert results[None] == want


def labelled_dubrovnik(d, memo, descend=_descend):
    """The oracle: the Dubrovnik descent keyed on the labelled node itself,
    every curl resolved by the skein rule."""
    return descend(_node(d), lambda n: n, curl_keeping_step, memo, "dubrovnik")


def keyed_curl_keeping_dubrovnik(d, memo):
    """The oracle for the reduction alone: the library's key, every curl
    and bigon resolved by the skein rule."""
    return _descend(_node(d), pairing_key, curl_keeping_step, memo, "dubrovnik")


# Nodes each skein engine stores on a cold table: the descent order, the
# Conway oracle's split pruning (split nodes never reach the table), the
# reduction of curls and bigons and the memo keys all show in these
# counts.  The first count is the skein Conway oracle, the second the
# library's HOMFLY, the third the labelled Dubrovnik oracle and the fourth
# the labelled HOMFLY oracle, which reduces nothing.
NODE_COUNTS = [
    (lambda: braid_closure(BraidWord(2, [1] * 6)), (40, 7, 541, 41)),
    (borromean, (30, 12, 335, 35)),
    (whitehead, (18, 5, 157, 21)),
]


@pytest.mark.parametrize("make,counts", NODE_COUNTS, ids=["T(2,6)", "borromean", "whitehead"])
def test_cold_memo_node_counts(make, counts):
    sizes = []
    for engine in (skein_conway, homfly, lambda d, memo: labelled_dubrovnik(d, memo),
                   labelled_homfly):
        memo = {}
        engine(as_pd(make()), memo=memo)
        sizes.append(len(memo))
    assert tuple(sizes) == counts


def _with_descend(descend, engine, d, memo):
    """engine(d) on `memo` with the skein descent `descend`; the library
    engines reach it through `skein._descend`."""
    if engine in (homfly, dubrovnik):
        saved = skein._descend
        skein._descend = descend
        try:
            return engine(d, memo=memo)
        finally:
            skein._descend = saved
    return engine(d, memo=memo, descend=descend)


def _run(descend, engine, d, budget=None):
    """engine's value of d, or the (engine, budget) of its budget error,
    then its memo table in insertion order and the nodes it spent, in
    order."""
    memo, spent = {}, []

    def counting(root, key, step, table, name):
        def spend(node):
            spent.append(node)
            return step(node)
        return descend(root, key, spend, table, name)

    try:
        with scope(budget):
            value = _with_descend(counting, engine, d, memo)
    except SkeinBudgetError as exc:
        value = (exc.engine, exc.budget)
    return value, list(memo.items()), spent


def seeded_closures(seed, count, letters=12):
    """`count` closures of seeded random 2-4-strand braids of 1 to
    `letters` letters."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(1, letters))]
        yield braid_closure(BraidWord(n, word))


def _oracle_diagrams():
    # as PD, so that HOMFLY takes the descent
    return [as_pd(make()) for make, _ in NODE_COUNTS] + [
        as_pd(d) for d in seeded_closures(20261018, 40, letters=8)]


@pytest.mark.parametrize("engine,name", [(homfly, "homfly"), (dubrovnik, "dubrovnik"),
                                         (labelled_dubrovnik, "dubrovnik"),
                                         (skein_conway, "conway")],
                         ids=["homfly", "dubrovnik", "labelled_dubrovnik", "skein_conway"])
def test_descent_loop_matches_recursive_oracle(engine, name):
    # equal values, memo tables in insertion order and nodes spent, and
    # the budget error first fires at the same budget, with equal tables
    for d in _oracle_diagrams():
        want = _run(recursive_descend, engine, d)
        assert _run(_descend, engine, d) == want
        spent = len(want[2])
        if not spent:  # skein_conway answers a split root before any lookup
            assert engine is skein_conway and d.is_split(), (name, d.render_pd())
            continue
        assert _run(_descend, engine, d, spent)[0] == want[0]
        failed = _run(_descend, engine, d, spent - 1)
        assert failed[0] == (name, spent - 1)
        assert failed == _run(recursive_descend, engine, d, spent - 1)


def _frame_depth():
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def _near_the_frame_limit(fn, *args, **kwargs):
    """fn(*args, **kwargs) with only 30 frames to spare below the caller."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 30)
    try:
        return fn(*args, **kwargs)
    finally:
        sys.setrecursionlimit(saved)


def torus(n):
    # T(2,n) as PD, so that HOMFLY takes the descent
    return as_pd(braid_closure(BraidWord(2, [1] * n)))


def deep_braid(strands, length):
    """A seeded random braid closure whose descent stays deep after every
    curl and bigon is reduced: 60-150 pending nodes at 300-400 letters."""
    rng = random.Random(1)
    word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
    return as_pd(braid_closure(BraidWord(strands, word)))


def test_skein_depth_is_not_bounded_by_frames():
    # a switch of T(2,n) leaves a bigon that goes at once, so the descent
    # is a chain about n nodes deep for HOMFLY and n/2 for Dubrovnik: the
    # recursive oracle runs out of frames where the loop does not
    for engine, n in ((homfly, 60), (dubrovnik, 120)):
        want = engine(torus(n), memo={})
        assert _near_the_frame_limit(engine, torus(n), memo={}) == want, engine.__name__
        with pytest.raises(RecursionError):
            _near_the_frame_limit(_with_descend, recursive_descend, engine, torus(n), {})


def test_deep_descent_stops_at_the_node_budget():
    for d in (deep_braid(3, 300), deep_braid(4, 400)):
        for engine, name in ((homfly, "homfly"), (kauffman_f, "dubrovnik")):
            with pytest.raises(SkeinBudgetError) as info, scope(200):
                _near_the_frame_limit(engine, d, memo={})
            assert (info.value.engine, info.value.budget) == (name, 200)


def test_state_sign_follows_an_augmenting_path_through_every_row():
    # row i < N - 1 offers column i + 1 first, then column i; the last row
    # offers only column N - 1, so placing it shifts every row back onto
    # its own column, the only perfect matching
    n = 3000
    rng = random.Random(7)
    flips = [rng.choice((1, -1)) for _ in range(n)]
    options = [[(i + 1, rng.choice((1, -1))), (i, flips[i])] for i in range(n - 1)]
    options.append([(n - 1, flips[n - 1])])
    assert _state_sign(options) == math.prod(flips)


# The same diagrams under `pairing_key`, which merges relabelings, with
# the curl-keeping step of the oracle and then with the library's step,
# whose children hold no curl and no reducible bigon.
KEYED_NODE_COUNTS = [
    (lambda: braid_closure(BraidWord(2, [1] * 6)), 110, 7),
    (borromean, 186, 21),
    (whitehead, 88, 8),
]


@pytest.mark.parametrize("make,count,stripped", KEYED_NODE_COUNTS,
                         ids=["T(2,6)", "borromean", "whitehead"])
def test_cold_memo_node_counts_relabel_key(make, count, stripped):
    memo = {}
    keyed_curl_keeping_dubrovnik(make(), memo)
    assert len(memo) == count
    memo = {}
    dubrovnik(make(), memo=memo)
    assert len(memo) == stripped


def test_cold_memo_node_count_on_a_pool_word():
    # the b3-12 word of perfbench/pool.json: 2714 nodes with every curl kept
    (word,) = [w for n, w in pool_words() if n == 3 and len(w) == 12]
    memo = {}
    dubrovnik(braid_closure(BraidWord(3, word)), memo=memo)
    assert len(memo) == 28


def test_engines_fill_a_caller_owned_memo(monkeypatch):
    # perfbench/child.py reads len(memo) after a cold call; conway stores
    # exactly one entry, and without a memo it caches nothing
    for engine in (conway, homfly, kauffman_f):
        memo = {}
        engine(as_pd(whitehead()), memo=memo)
        assert memo, engine.__name__
    sums = []
    real = skein.state_sum

    def counting(*args, **kwargs):
        sums.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(skein, "state_sum", counting)
    memo = {}
    d = whitehead()
    assert conway(d, memo=memo) == conway(d, memo=memo)
    assert len(memo) == 1 and len(sums) == 1
    assert conway(d) == conway(d)
    assert len(sums) == 3


@pytest.fixture(scope="module")
def shared_memos():
    # one labelled and one keyed table for all oracle cases, so keyed
    # entries stored by one diagram answer for the relabelings of another
    return {}, {}


def _assert_matches_oracle(d, memos):
    labelled, keyed = memos
    want = labelled_dubrovnik(d, labelled)
    assert dubrovnik(d, memo=keyed) == want
    assert dubrovnik(d, memo={}) == want
    assert kauffman_f(d, memo={}) == X ** (-d.writhe()) * want


CORPUS_LINKS = [e for e in load_corpus() if not e.singular]


@pytest.mark.parametrize("entry", CORPUS_LINKS, ids=lambda e: e.name)
def test_dubrovnik_key_matches_labelled_oracle_on_corpus(entry, shared_memos):
    _assert_matches_oracle(entry.link, shared_memos)


def test_dubrovnik_key_matches_labelled_oracle_on_loops_and_kinks(shared_memos):
    for d in (unlink(2), unlink(3), braid_closure(BraidWord(2, [1])),
              braid_closure(BraidWord(2, [-1]))):
        _assert_matches_oracle(d, shared_memos)


@pytest.mark.parametrize("entry", [e for e in CORPUS_LINKS if len(e.link.crossings) <= 12],
                         ids=lambda e: e.name)
def test_dubrovnik_key_matches_labelled_oracle_on_smoothings(entry, shared_memos):
    # the smooth_infinity diagrams the skein-relations suite evaluates
    labelled, keyed = shared_memos
    d = entry.link
    for ci in range(len(d.crossings)):
        inf = d.smooth_infinity(ci)
        assert dubrovnik(inf, memo=keyed) == labelled_dubrovnik(inf, labelled)


def test_dubrovnik_key_matches_labelled_oracle_on_braids(shared_memos):
    # at most 8 letters: 10-12-letter closures take seconds to minutes on
    # the labelled oracle
    for d in seeded_closures(20261018, 20, letters=8):
        _assert_matches_oracle(d, shared_memos)


def _assert_matches_keyed_oracle(d, memo):
    want = keyed_curl_keeping_dubrovnik(d, memo)
    assert dubrovnik(d, memo={}) == want
    assert kauffman_f(d, memo={}) == X ** (-d.writhe()) * want


def test_curl_stripping_matches_curl_keeping_oracle_on_braids():
    # up to 12 letters, beyond the labelled oracle's reach; the keyed
    # oracle shares one table, so relabelings answer for each other
    memo = {}
    for d in seeded_closures(20261019, 100):
        _assert_matches_keyed_oracle(d, memo)


def curl_diagrams():
    """Diagrams whose curls cover every case of `strip_kinks`: one-crossing
    figure-8 curls, which leave a free loop; a curl at each slot position
    s = 0..3 beside a knot; curls of both signs side by side; and curls
    nested on a curl's own loop, which become curls only once the inner
    one is gone."""
    diagrams = [braid_closure(BraidWord(2, [1])), braid_closure(BraidWord(2, [-1])),
                braid_closure(BraidWord(3, [1, 2])), braid_closure(BraidWord(3, [1, -2]))]
    for make in (hopf, trefoil, fig8):
        d = make()
        for sign in (1, -1):
            for side in (0, 1):
                k = add_kink(d, d.arcs()[0], sign, side)
                diagrams.append(k)
                diagrams.append(add_kink(k, d.arcs()[0], -sign, 1 - side))
                nested = k
                for depth in range(3):  # the next curl on the last one's loop
                    nested = add_kink(nested, max(nested.arcs()) - 1, sign if depth % 2 else -sign,
                                      (side + depth) % 2)
                    diagrams.append(nested)
    return diagrams


def test_curl_stripping_matches_curl_keeping_oracle_on_curls(shared_memos):
    slots = set()
    for d in curl_diagrams():
        _assert_matches_oracle(d, shared_memos)
        for rec in d.crossings:
            slots.update(s for s in range(4) if rec[s] == rec[(s + 1) % 4])
    assert slots == {0, 1, 2, 3}
    # every curl goes: the figure-8 curls leave one free loop
    assert _reduce(*_tables(braid_closure(BraidWord(2, [1])))) == (1, {0}, (), (), 1)
    assert _reduce(*_tables(braid_closure(BraidWord(2, [-1])))) == (-1, {0}, (), (), 1)
    for d in curl_diagrams():
        # these hold no reducible bigon, so the reducer is the curl stripper
        e, _, flat, other, loops = _reduce(*_tables(d))
        assert (e, (_records(flat), loops)) == strip_kinks(*_node(d))
        assert not reducible(other)


def _node(d):
    return d.crossings, len(d._free_loops(()))


def _tables(d):
    """The (flat, other, loops) input `_reduce` takes for d."""
    return (*far_ends(d.crossings), len(d._free_loops(())))


def _records(flat):
    """The crossing records of a node's per-slot arc labels."""
    return tuple(tuple(flat[i:i + 4]) for i in range(0, len(flat), 4))


def _turn(rec, quarter):
    return rec[quarter:] + rec[:quarter]


braid_words = st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(1, n - 1).flatmap(lambda g: st.sampled_from((g, -g))),
             max_size=12)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(braid_words, braid_words, st.randoms(use_true_random=False))
def test_pairing_key_forgets_labels(sw1, sw2, rng):
    # two closures side by side, so arcs of both parts are renamed
    d = disjoint_union(braid_closure(BraidWord(*sw1)), braid_closure(BraidWord(*sw2)))
    crossings, loops = _node(d)
    arcs = sorted({a for rec in crossings for a in rec})
    images = rng.sample(range(10 * len(arcs) + 10), len(arcs))
    relabel = dict(zip(arcs, images))
    relabelled = tuple(tuple(relabel[a] for a in rec) for rec in crossings)
    assert pairing_key((relabelled, loops)) == pairing_key((crossings, loops))


def test_pairing_key_tells_mirrors_and_quarter_turns_apart():
    left = braid_closure(BraidWord(2, [-1, -1, -1]))
    assert pairing_key(_node(trefoil())) != pairing_key(_node(left))
    for make in (trefoil, fig8, whitehead, borromean):
        crossings, loops = _node(make())
        key = pairing_key((crossings, loops))
        for ci, rec in enumerate(crossings):
            turned = crossings[:ci] + (_turn(rec, 1),) + crossings[ci + 1:]
            assert pairing_key((turned, loops)) != key, (make.__name__, ci)


def test_nodes_spent_equal_table_entries():
    # a switch keeps the labels and so the walk, so a relabeling of a
    # pending node never turns up below it and no key misses twice
    diagrams = _oracle_diagrams() + [as_pd(braid_closure(BraidWord(n, w)))
                                     for n, w in pool_words()]
    for d in diagrams:
        for engine in (homfly, dubrovnik):
            _, table, spent = _run(_descend, engine, d)
            assert len(spent) == len(table), (engine.__name__, d.crossings)


@pytest.mark.parametrize("n", [6, 40, 60])
def test_homfly_stores_n_plus_1_entries_on_torus_links(n):
    # every node of T(2,n)'s descent is some T(2,k) up to its labels; the
    # value from the skein rule at one crossing, x*H(T(2,k)) - x^-1*H(T(2,k-2))
    # = y*H(T(2,k-1)), with H(T(2,0)) the 2-component unlink
    values = [DELTA_H, LaurentPolynomial.one(XY)]
    for _ in range(n - 1):
        values.append(X ** -1 * (Y * values[-1] + X ** -1 * values[-2]))
    memo = {}
    assert homfly(torus(n), memo=memo) == values[n]
    assert len(memo) == n + 1


# -- the Reidemeister I/II reducer and HOMFLY on tuple nodes -------------------

def reducible(other):
    """Whether a node with far ends `other` holds a curl, a one-corner face
    of `_faces`, or a reducible bigon, a two-corner face whose corners sit
    at different crossings and differ in slot parity, so that each of its
    arcs keeps its parity from end to end."""
    corners: dict = {}
    for k, f in enumerate(_faces(other)):
        corners.setdefault(f, []).append(k)
    return any(len(ks) == 1 or (len(ks) == 2 and ks[0] >> 2 != ks[1] >> 2 and (ks[1] - ks[0]) & 1)
               for ks in corners.values())


def test_no_reducible_node_reaches_either_table():
    diagrams = [e.link for e in CORPUS_LINKS] + [as_pd(d) for d in seeded_closures(20261020, 40)]
    diagrams += [d.smooth_infinity(0) for d in diagrams if d.crossings]
    for d in diagrams:
        for engine in (homfly, dubrovnik):
            for node in _run(_descend, engine, d)[2]:
                assert not reducible(node[1]), (engine.__name__, node)


@pytest.mark.parametrize("entry", CORPUS_LINKS, ids=lambda e: e.name)
def test_homfly_matches_labelled_oracle_on_corpus(entry):
    assert homfly(entry.link, memo={}) == labelled_homfly(entry.link)


def test_homfly_matches_labelled_oracle_on_braids():
    memo = {}
    for d in seeded_closures(20261021, 120):
        want = labelled_homfly(d)
        assert homfly(as_pd(d), memo=memo) == want, d.crossings
        assert homfly(d) == want, d.crossings


def test_homfly_matches_labelled_oracle_on_pool_words():
    for n, word in pool_words():
        d = braid_closure(BraidWord(n, word))
        want = labelled_homfly(d)
        assert homfly(as_pd(d), memo={}) == want, (n, word)
        assert homfly(d) == want, (n, word)


# -- HOMFLY of a closed braid: the Hecke trace against the descent -------------

hecke_braid_words = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(1, max(n - 1, 1)).flatmap(lambda g: st.sampled_from((g, -g))),
             max_size=20 if n > 1 else 0)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(hecke_braid_words)
def test_hecke_trace_matches_the_descent(sw):
    d = braid_closure(BraidWord(*sw))
    assert homfly(d) == homfly(as_pd(d), memo={}), sw


def test_hecke_trace_matches_the_benchmark_golden_values():
    # every HOMFLY value the benchmark checks, as the CLI renders it
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "golden.json")) as fh:
        values = json.load(fh)["values"]
    checked = 0
    for key, want in values.items():
        which, strands, word, _ = key.split("|")
        if which == "homfly":
            d = braid_closure(BraidWord(int(strands), map(int, word.split())))
            assert homfly(d).render() == want, key
            checked += 1
    assert checked >= 6


def test_hecke_trace_spends_no_node():
    # d_40 = (s1 s2)^40: the descent would spend its budget long before
    # it ends; the trace spends none, and fills no memo table
    d = braid_closure(BraidWord(3, [1, 2] * 40))
    memo = {}
    with scope(budget=0):
        value = homfly(d, memo=memo)
    assert memo == {}
    assert value.set_variable_to_one("x").rename_variables({"y": "z"}) == conway(d)


def test_closures_past_the_strand_bound_take_the_descent():
    # the same link on 5 strands and, stabilized, on 6
    word = [1, -2, 3, -4, 1, -2]
    five, six = (braid_closure(BraidWord(n, word + [n - 1] * (n - 5))) for n in (5, 6))
    for engine in (homfly, kauffman_f):
        with scope(budget=0):
            want = engine(five)
            with pytest.raises(SkeinBudgetError):
                engine(six)
        assert engine(six) == want, engine.__name__


# -- Dubrovnik of a closed braid: the BMW route against the descent -----------

# the braid words of scripts/build_corpus.py
CORPUS_BRAIDS = [(2, [1, 1]), (2, [-1, -1]), (2, [1, 1, 1]), (2, [-1, -1, -1]),
                 (3, [1, -2, 1, -2]), (3, [1, -2, 1, -2, 1]), (3, [1, -2, 1, -2, 1, -2]),
                 (2, [1] * 4), (2, [1] * 6), (2, [1] * 8), (3, [1, 1, 2, 2]), (3, [1, 2] * 3)]


def test_bmw_route_matches_the_descent_on_corpus_pool_and_torus_braids():
    words = CORPUS_BRAIDS + pool_words() + [(2, [1] * k) for k in range(1, 61)]
    for n, word in words:
        d = braid_closure(BraidWord(n, word))
        assert kauffman_f(d) == kauffman_f(as_pd(d), memo={}), (n, word)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(hecke_braid_words)
def test_bmw_route_matches_the_descent(sw):
    d = braid_closure(BraidWord(*sw))
    assert kauffman_f(d) == kauffman_f(as_pd(d), memo={}), sw


bmw_words = st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(1, n - 1).flatmap(lambda g: st.sampled_from((g, -g))), max_size=20)))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(bmw_words, st.integers(0, 20), st.integers(1, 4), st.sampled_from((1, -1)))
def test_bmw_route_braid_relations_and_markov_moves(sw, turn, i, sign):
    # a rotation of the word, s_i s_(i+1) s_i = s_(i+1) s_i s_(i+1) and
    # s_i s_j = s_j s_i for |i - j| > 1 at its end, and a stabilization
    # that stays on the route
    n, word = sw
    base = kauffman_f(braid_closure(BraidWord(n, word)))
    turn %= max(len(word), 1)
    assert kauffman_f(braid_closure(BraidWord(n, word[turn:] + word[:turn]))) == base
    if n > 2:
        i = min(i, n - 2)
        a, b = sign * i, sign * (i + 1)
        assert kauffman_f(braid_closure(BraidWord(n, word + [a, b, a]))) == \
            kauffman_f(braid_closure(BraidWord(n, word + [b, a, b])))
    if n > 3:
        a, b = sign * 1, -sign * (n - 1)
        assert kauffman_f(braid_closure(BraidWord(n, word + [a, b]))) == \
            kauffman_f(braid_closure(BraidWord(n, word + [b, a])))
    if n < skein.HECKE_STRANDS:
        assert kauffman_f(braid_closure(BraidWord(n + 1, word + [sign * n]))) == base


def test_bmw_route_spends_no_node():
    # d_20 = (s1 s2)^20: the descent expands 41 506 nodes on it; the route
    # spends none and fills no memo table, and the mirror image's value is
    # F(x^-1, -y)
    word = [1, 2] * 20
    memo = {}
    with scope(budget=0):
        value = kauffman_f(braid_closure(BraidWord(3, word)), memo=memo)
        mirror = kauffman_f(braid_closure(BraidWord(3, [-w for w in word])))
    assert memo == {}
    assert mirror == _at_mirror(value)


def test_tangle_tables_keep_their_boundary():
    # the identity on 3 strands with s2, then s2^-1, put below it: the bigon
    # goes, and the boundary points end where they began, joined straight
    flat, other = (1, 2, 3) * 2, (3, 4, 5, 0, 1, 2)
    once = skein._below(flat, other, 3, 2)
    assert skein._reduce(*once, 0, (), 6)[:2] == (0, set())
    e, gone, flat2, other2, loops = skein._reduce(*skein._below(*once, 3, -2), 0, (), 6)
    assert (e, gone, other2, loops) == (0, {0, 1}, other, 0)
    assert diagram.walk_tangle(flat2, other2, 6) == ([[], [], []], other)
    # a cup and a cap: s1 below its own cap closes a curl, not a bigon
    _, cupcap = diagram.walk_tangle((1, 1, 2, 2), (1, 0, 3, 2), 4)
    assert cupcap == (1, 0, 3, 2)
    assert skein._reduce(*skein._below((1, 1, 2, 2), (1, 0, 3, 2), 2, 1), 0, (), 4)[:2] == (-1, {0})
    # a letter meets its inverse across at most two letters that commute with it
    assert skein._cancelled([2, 1, -1, 3, -2]) == [3] and skein._cancelled([1, -1]) == []
    assert skein._cancelled([1, 3, 4, -1, 2]) == [3, 4, 2]
    assert skein._cancelled([1, 2, -1, 2]) == [1, 2, -1, 2]
    assert skein._cancelled([1, 3, 4, 3, -1, 2]) == [1, 3, 4, 3, -1, 2]


@pytest.mark.parametrize("loops", [1, 2])
def test_tangle_terminal_counts_its_free_loops(loops):
    # a cup and a cap beside `loops` crossing-free circles: each circle is
    # a factor delta of the diagram's coefficient
    node = ((1, 1, 2, 2), (1, 0, 3, 2), loops)
    value = skein._descend(node, skein._unlabelled, lambda x: skein._unoriented_step(x, 4, {}),
                           {}, "dubrovnik", math.inf)
    assert value == skein._Tangles({(1, 0, 3, 2): skein._DELTA_D ** loops})


def _mirror(d):
    for ci in range(len(d.crossings)):
        d = d.switch(ci)
    return d


def _at_mirror(p):
    """p(x^-1, -y): the mirror image's H and D."""
    return LaurentPolynomial(XY, {(-ex, ey): -c if ey & 1 else c
                                  for (ex, ey), c in p.terms.items()})


def test_homfly_and_dubrovnik_of_the_mirror():
    diagrams = [e.link for e in CORPUS_LINKS] + list(seeded_closures(20261022, 30, letters=10))
    for d in diagrams:
        mirror = _mirror(d)
        assert homfly(mirror, memo={}) == _at_mirror(homfly(d, memo={})), d.crossings
        assert dubrovnik(mirror, memo={}) == _at_mirror(dubrovnik(d, memo={})), d.crossings


def test_reducer_keeps_clasps():
    # every bigon of a reduced alternating diagram is a clasp, one strand
    # over at one corner and under at the other
    for make in (hopf, trefoil, fig8, solomon, whitehead, borromean):
        flat, other, loops = _tables(make())
        assert _reduce(flat, other, loops) == (0, set(), tuple(flat), tuple(other), loops), \
            make.__name__


# (strands, word, the curls' exponent of x in D, crossings and free loops
# left): hand-made curls and bigons for `_reduce`
REDUCIBLE = [
    (2, [1, -1], 0, 0, 2),  # the two-crossing unlink, an R2 move between two components
    (3, [1, 1, 2, -2], 0, 2, 1),  # an R2 move between the Hopf link and a third component
    (2, [1, 1, -1, -1], 0, 0, 2),  # nested bigons: the outer one is a face once the inner goes
    (3, [1, 2, -2, -1], 0, 0, 3),
    (3, [1, -2, 1, -2, 1, -2, 2, 2, -2, -2], 0, 6, 0),  # nested bigons on the Borromean rings
    (3, [1, -1, 2], 1, 0, 2),  # a bigon next to a curl
    (3, [-2, 1, -1], -1, 0, 2),
    (3, [1, 2, -1, -2], 0, 0, 1),  # an unknot that each move makes smaller
]


@pytest.mark.parametrize("strands,word,exponent,left,loops", REDUCIBLE,
                         ids=[" ".join(map(str, case[1])) for case in REDUCIBLE])
def test_reducer_hand_cases(strands, word, exponent, left, loops):
    d = braid_closure(BraidWord(strands, word))
    e, gone, flat, other, free = _reduce(*_tables(d))
    assert (e, len(flat) // 4, free) == (exponent, left, loops)
    assert len(gone) + len(flat) // 4 == len(d.crossings) and not reducible(other)
    assert homfly(as_pd(d), memo={}) == labelled_homfly(d)
    assert dubrovnik(d, memo={}) == labelled_dubrovnik(d, {})


def _reduce_calls(monkeypatch, diagrams):
    """Every (flat, other, loops, joins) the HOMFLY and Dubrovnik descents
    of `diagrams` pass to `_reduce`, with what it returned."""
    calls = []
    real = skein._reduce

    def recording(flat, other, loops, joins=(), ends=0):
        out = real(flat, other, loops, joins, ends)
        assert ends == 0  # a closed diagram's descent has no tangle boundary
        calls.append(((tuple(flat), tuple(other), loops, joins), out))
        return out

    monkeypatch.setattr(skein, "_reduce", recording)
    for d in diagrams:
        homfly(d, memo={})
        dubrovnik(d, memo={})
    monkeypatch.undo()
    return calls


def test_one_pass_reducer_matches_two_pass_oracle(monkeypatch):
    # every switch and smoothing the descents reduce, against smoothing by
    # a union-find relabel and then reducing on rebuilt far ends; every
    # input table, a switch's turned one too, is the far ends of its labels
    diagrams = [make() for make, _ in NODE_COUNTS] + list(seeded_closures(20261024, 40))
    diagrams += [braid_closure(BraidWord(n, w)) for n, w in pool_words()]
    diagrams = [as_pd(d) for d in diagrams]
    smoothings = 0
    for (flat, given, loops, joins), out in _reduce_calls(monkeypatch, diagrams):
        crossings = _records(flat)
        assert given == tuple(far_ends(crossings)[1]), (crossings, given)
        exponent, gone, kept, other, free = out
        kept = _records(kept)
        if joins:
            ci = joins[0][0] >> 2
            want = two_pass_reduce(crossings, loops, ci, [(a & 3, b & 3) for a, b in joins])
            want_gone = {ci} | {j + (j >= ci) for j in want[1]}
            smoothings += 1
        else:
            want = two_pass_reduce(crossings, loops)
            want_gone = want[1]
        assert (exponent, kept, free) == (want[0], want[2], want[3]), (crossings, joins)
        assert gone == want_gone
        assert other == tuple(far_ends(kept)[1])
    assert smoothings > 5000


def test_far_ends_runs_once_per_engine_call(monkeypatch):
    # only the root builds the tables: every child carries the ones its
    # parent's switch or `_reduce` left, so neither a child, the memo key
    # nor the walk rebuilds them
    diagrams = [as_pd(d) for d in seeded_closures(20261025, 100)]
    counts = {"far_ends": 0, "_reduce": 0}

    def counting(name, real):
        def spy(*args):
            counts[name] += 1
            return real(*args)
        return spy

    far = counting("far_ends", diagram.far_ends)
    monkeypatch.setattr(diagram, "far_ends", far)
    monkeypatch.setattr(skein, "far_ends", far)
    monkeypatch.setattr(skein, "_reduce", counting("_reduce", skein._reduce))
    for d in diagrams:
        homfly(d, memo={})
        kauffman_f(d, memo={})
    assert counts["_reduce"] > 1500
    assert counts["far_ends"] == 2 * len(diagrams)


def test_homfly_unknot_and_unlinks():
    assert homfly(unknot()) == LaurentPolynomial.one(XY)
    assert homfly(unlink(2)) == DELTA_H
    assert homfly(unlink(3)) == DELTA_H * DELTA_H


def test_homfly_skein_relation_everywhere():
    for make in SMALL:
        d = make()
        for ci in range(len(d.crossings)):
            pos = d if d.sign(ci) == 1 else d.switch(ci)
            neg = d.switch(ci) if d.sign(ci) == 1 else d
            smooth = d.smooth_oriented(ci)
            assert X * homfly(pos) - X ** -1 * homfly(neg) == Y * homfly(smooth)


def test_homfly_specializes_to_conway():
    for make in SMALL:
        d = make()
        h = homfly(d)
        at_x1 = h.set_variable_to_one("x").rename_variables({"y": "z"})
        assert at_x1 == conway(d), make.__name__


def test_kauffman_unknot_and_kinks():
    assert kauffman_f(unknot()) == LaurentPolynomial.one(XY)
    kink_plus = braid_closure(BraidWord(2, [1]))
    kink_minus = braid_closure(BraidWord(2, [-1]))
    assert dubrovnik(kink_plus) == X
    assert dubrovnik(kink_minus) == X ** -1
    assert kauffman_f(kink_plus) == LaurentPolynomial.one(XY)
    assert kauffman_f(kink_minus) == LaurentPolynomial.one(XY)


def test_kauffman_unlink():
    assert kauffman_f(unlink(2)) == DELTA_D


def test_kauffman_writhe_bookkeeping():
    for make in SMALL:
        d = make()
        for ci in range(len(d.crossings)):
            pos = d if d.sign(ci) == 1 else d.switch(ci)
            neg = d.switch(ci) if d.sign(ci) == 1 else d
            smooth = d.smooth_oriented(ci)
            assert pos.writhe() - 1 == neg.writhe() + 1 == smooth.writhe()


def test_kauffman_skein_relation_everywhere():
    for make in SMALL:
        d = make()
        for ci in range(len(d.crossings)):
            pos = d if d.sign(ci) == 1 else d.switch(ci)
            neg = d.switch(ci) if d.sign(ci) == 1 else d
            smooth = d.smooth_oriented(ci)
            inf = d.smooth_infinity(ci)
            w0 = smooth.writhe()
            lhs = X * kauffman_f(pos) - X ** -1 * kauffman_f(neg)
            rhs = Y * (kauffman_f(smooth) - (X ** (-w0)) * dubrovnik(inf))
            assert lhs == rhs, (make.__name__, ci)


def test_kauffman_ambient_isotopy_on_reidemeister_one():
    # adding a kink to the trefoil braid leaves F unchanged
    t = braid_closure(BraidWord(2, [1, 1, 1]))
    t_kinked = braid_closure(BraidWord(3, [1, 1, 1, 2]))
    assert t_kinked.m == 1
    assert kauffman_f(t) == kauffman_f(t_kinked)
    assert homfly(t) == homfly(t_kinked)
    assert conway(t) == conway(t_kinked)


# -- the state-determinant Conway against the skein oracle ---------------------

POOL = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "pool.json")


def pool_words():
    with open(POOL) as fh:
        pool = json.load(fh)["pool"]
    return [(entry["strands"], tuple(w["word"])) for entry in pool.values()
            for w in entry["words"]]


@pytest.mark.parametrize("entry", CORPUS_LINKS, ids=lambda e: e.name)
def test_conway_determinant_matches_skein_oracle_on_corpus(entry):
    d = entry.link
    want = skein_conway(d)
    assert conway(d, memo={}) == want
    if d.crossings and not d.is_split():
        # every arc may be the cut whose two sides lose their columns
        for cut in range(4 * len(d.crossings)):
            assert rewrite_in_difference(state_sum(d, (1,) * d.m, cut)) == want, cut


def test_conway_determinant_matches_skein_oracle_on_pool_words():
    words = pool_words()
    assert len(words) == 9
    for n, word in words:
        d = braid_closure(BraidWord(n, word))
        assert conway(d, memo={}) == skein_conway(d), (n, word)


def test_packed_state_matrix_matches_laurent_oracle():
    """The packed rows of `_state_matrix`, unpacked, hold the entries and
    corner options of the `LaurentPolynomial` oracle, and `state_sum` is
    the oracle rows' dense determinant signed by one state: the 17 corpus
    links and 60 seeded connected 2-5-strand closures with 1..m colors,
    each cut at 3 random slots."""
    diagrams = [e.link for e in CORPUS_LINKS]
    assert len(diagrams) == 17
    diagrams = [d for d in diagrams if d.crossings and not d.is_split()]
    rng = random.Random(20261020)
    seeded = 0
    while seeded < 60:
        n = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 14))]
        d = braid_closure(BraidWord(n, word))
        k = rng.randint(1, d.m)
        d = d.recolor(tuple(range(1, k + 1)) + tuple(rng.randint(1, k) for _ in range(d.m - k)))
        if not d.is_split():
            diagrams.append(d)
            seeded += 1
    assert max(max(d.colors) for d in diagrams) > 2
    for d in diagrams:
        _, other = far_ends(d.crossings)
        variables = tuple(f"x{c}" for c in range(1, max(d.colors) + 1))
        bits = (4 * len(d.crossings)).bit_length()
        for cut in rng.sample(range(4 * len(d.crossings)), 3):
            rows, options = _state_matrix(d, d.colors, variables, cut, other)
            want_rows, want_options = laurent_state_matrix(d, d.colors, variables, cut, other)
            assert options == want_options
            assert [{j: LaurentPolynomial(variables, {_unpack(k, bits, len(variables)): c
                                                      for k, c in terms.items()})
                     for j, terms in row.items()} for row in rows] == \
                [{j: e for j, e in enumerate(row) if e} for row in want_rows]
            want = dense_fox_determinant(want_rows, len(want_rows), variables)
            if want:
                want = _state_sign(want_options) * want
            assert state_sum(d, d.colors, cut) == want, (d.name, cut)


@pytest.mark.parametrize("seed", [20261018, 20031])
def test_conway_determinant_matches_skein_oracle_on_braids(seed):
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(2, 14))]
        d = braid_closure(BraidWord(n, word))
        assert conway(d, memo={}) == skein_conway(d), (n, word)


def add_kink(d, arc, sign, side):
    """d with a Reidemeister I kink of the given sign on `arc`: the strand
    runs through one new crossing twice, under first (side 0) or over first
    (side 1), so the kink's loop lies on one side of the strand or the
    other, and the face outside the loop holds two corners of the new
    crossing."""
    loop, out = max(d.arcs()) + 1, max(d.arcs()) + 2
    rec = {(1, 0): (arc, out, loop, loop), (1, 1): (loop, loop, out, arc),
           (-1, 0): (arc, loop, loop, out), (-1, 1): (loop, arc, out, loop)}[sign, side]
    crossings = [list(r) for r in d.crossings]
    ci, s = d.heads[arc]
    crossings[ci][s] = out
    comps = [list(cyc) for cyc in d.components]
    cyc = comps[d.comp_of_arc[arc]]
    i = cyc.index(arc)
    cyc[i + 1:i + 1] = [loop, out]
    return LinkDiagram(crossings + [rec], comps, d.colors,
                       over_in=d.over_in + (3 if sign == 1 else 1,))


def test_conway_determinant_ignores_kinks():
    for make in (hopf, trefoil, fig8, whitehead, borromean):
        d = make()
        want = conway(d, memo={})
        for arc in d.arcs()[:3]:
            for sign in (1, -1):
                for side in (0, 1):
                    k = add_kink(d, arc, sign, side)
                    assert k.writhe() == d.writhe() + sign
                    assert conway(k, memo={}) == want, (make.__name__, arc, sign, side)
                    # a second kink beside the first, of the other sign and side
                    kk = add_kink(k, arc, -sign, 1 - side)
                    assert conway(kk, memo={}) == want, (make.__name__, arc, sign, side)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(braid_words, st.integers(1, 3), st.sampled_from((1, -1)), st.integers(0, 12))
def test_conway_determinant_markov_invariance(sw, g, stab, turn):
    n, word = sw
    word = list(word)
    base = conway(braid_closure(BraidWord(n, word)), memo={})
    g = min(g, n - 1) * stab
    conjugated = [g] + word + [-g]
    assert conway(braid_closure(BraidWord(n, conjugated)), memo={}) == base
    turn %= max(len(word), 1)
    rotated = word[turn:] + word[:turn]
    assert conway(braid_closure(BraidWord(n, rotated)), memo={}) == base
    stabilized = word + [stab * n]
    assert conway(braid_closure(BraidWord(n + 1, stabilized)), memo={}) == base


short_braid_words = st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(1, n - 1).flatmap(lambda g: st.sampled_from((g, -g))),
             max_size=7)))


@pytest.mark.parametrize("engine", (homfly, kauffman_f))
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(short_braid_words, st.integers(1, 3), st.sampled_from((1, -1)), st.integers(0, 12))
def test_skein_markov_invariance(engine, sw, g, stab, turn):
    # each closure takes the Hecke trace or the BMW sum, and read back as
    # PD it takes the descent; both must agree
    def value(strands, word):
        d = braid_closure(BraidWord(strands, word))
        got = engine(d, memo={})
        assert engine(as_pd(d), memo={}) == got, (strands, word)
        return got

    n, word = sw
    word = list(word)
    base = value(n, word)
    g = min(g, n - 1) * stab
    conjugated = [g] + word + [-g]
    assert value(n, conjugated) == base
    turn %= max(len(word), 1)
    rotated = word[turn:] + word[:turn]
    assert value(n, rotated) == base
    stabilized = word + [stab * n]
    assert value(n + 1, stabilized) == base


@pytest.mark.parametrize("engine", (conway, potential_function, homfly, dubrovnik, kauffman_f))
def test_engines_reject_the_empty_diagram(engine):
    empty = parse_pd("components: []")
    with pytest.raises(ValueError, match="^the diagram has no component$"):
        engine(empty)


# -- the one walk against its dict-based oracles ------------------------------

def walk_diagrams():
    """The corpus links, 100 seeded closures as PD and the curl diagrams."""
    return ([e.link for e in CORPUS_LINKS] + [as_pd(d) for d in seeded_closures(20261023, 100)]
            + curl_diagrams())


def _unoriented_visits(crossings):
    flat, other = far_ends(crossings)
    circles = walk_unoriented(flat, other)
    return [(cid, flat[i], i >> 2, i & 3) for cid, circle in enumerate(circles) for i in circle]


def test_walks_match_dict_oracles():
    # each diagram, every switch and oriented smoothing of it, and the
    # nodes of its HOMFLY and Dubrovnik descents, at most 100 of each:
    # the library's reduced ones and the curl-keeping oracle's, which hold
    # curls and free loops
    oriented = unoriented = 0
    for d in walk_diagrams():
        diagrams = [d] + [f(ci) for ci in range(len(d.crossings))
                          for f in (d.switch, d.smooth_oriented)]
        nodes = [(e.crossings, e.over_in) for e in diagrams]
        nodes += [(_records(node[0]), node[2]) for node in _run(_descend, homfly, d, 100)[2]]
        for crossings, over_in in nodes:
            assert _trace_oriented(crossings, over_in) == dict_trace_oriented(crossings, over_in)
        oriented += len(nodes)
        nodes = [e.crossings for e in diagrams]
        nodes += [_records(node[0]) for node in _run(_descend, dubrovnik, d, 100)[2]]
        nodes += [node[0] for node in _run(_descend, labelled_dubrovnik, d, 100)[2]]
        for crossings in nodes:
            assert _unoriented_visits(crossings) == list(dict_walk_unoriented(crossings))
        unoriented += len(nodes)
    assert oriented > 2500 and unoriented > 10000


def test_is_split_matches_component_groups():
    diagrams = walk_diagrams()
    diagrams += [braid_closure(BraidWord(n, w)) for n, w in
                 ((2, [1, -1]), (3, [1, 1]), (3, [2, 2]), (4, [1, 1, 3, 3]), (4, [1, 2, -1, 3]))]
    diagrams += [disjoint_union(a, b) for a, b in ((hopf(), trefoil()), (unknot(), fig8()))]
    diagrams += [f(ci) for d in list(diagrams) for ci in range(len(d.crossings))
                 for f in (d.smooth_oriented, d.smooth_infinity)]
    diagrams += [d.delete_component(i) for d in list(diagrams) if d.m > 2 for i in range(d.m)]
    splits = [d.is_split() for d in diagrams]
    assert splits == [split_by_component_groups(d) for d in diagrams]
    assert splits.count(True) > 500 and splits.count(False) > 2000
