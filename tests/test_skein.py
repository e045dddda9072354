import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkinv.algebra import LaurentPolynomial, rewrite_in_difference
from linkinv.corpus import load_corpus
from linkinv.diagram import BraidWord, LinkDiagram, braid_closure, parse_pd
from linkinv.skein import (
    SkeinBudgetError,
    _bad_crossings,
    _descend,
    _dubrovnik_key,
    _key,
    _unoriented_step,
    conway,
    dubrovnik,
    homfly,
    kauffman_f,
    state_sum,
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


def skein_conway(d, budget=None, memo=None, rng=None):
    """The oracle: the oriented skein rule at x = 1, y = z,
    C(L+) - C(L-) = z*C(L0), descending through `_descend` with the
    labelled key; a split diagram is 0 before its memo lookup and costs no
    node, and a descending diagram is an unlink, 1 or 0."""
    def value(d, val):
        if d.m > 1 and d.is_split():
            return LaurentPolynomial.zero(Z)
        return val(d)

    def step(d, val):
        bads = _bad_crossings(d)
        if not bads:
            return LaurentPolynomial.one(Z) if d.m == 1 else LaurentPolynomial.zero(Z)
        ci = bads[0] if rng is None else rng.choice(bads)
        return value(d.switch(ci), val) + d.sign(ci) * Z_GEN * value(d.smooth_oriented(ci), val)

    table = {} if memo is None else memo
    return value(d, lambda root: _descend(root, _key, step, table, budget, "conway"))


def test_conway_unknot():
    assert conway(unknot()) == LaurentPolynomial.one(Z)


def test_conway_split_links_vanish():
    assert conway(unlink(2)).is_zero
    assert conway(unlink(3)).is_zero
    assert conway(hopf().disjoint_union(unknot())).is_zero
    for d in (trefoil().disjoint_union(fig8()), whitehead().disjoint_union(unknot()),
              hopf().disjoint_union(unlink(2)),
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


@pytest.mark.parametrize("engine", [skein_conway, homfly], ids=["conway", "homfly"])
def test_conway_descent_independence(engine):
    for make in (trefoil, whitehead, borromean):
        d = make()
        base = engine(d, memo={})
        for seed in range(10):
            assert engine(d, memo={}, rng=random.Random(seed)) == base


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
        with pytest.raises(SkeinBudgetError) as info:
            engine(borromean(), budget=2, memo={})
        assert info.value.engine == name
        assert info.value.budget == 2
        assert str(info.value) == f"{name} skein node budget of 2 exceeded"


def free_loops(d):
    return sum(1 for cyc in d.components if len(cyc) == 1 and cyc[0] not in d.heads)


def labelled_dubrovnik(d, memo):
    """The oracle: the Dubrovnik descent keyed on the labelled node itself."""
    root = (d.crossings, free_loops(d))
    return _descend(root, lambda n: n, _unoriented_step, memo, None, "dubrovnik")


# Nodes each skein engine stores on a cold table: the descent order, the
# Conway oracle's split pruning (split nodes never reach the table) and the
# memo keys all show in these counts.  The first count is the skein Conway
# oracle, the third the labelled Dubrovnik oracle.
NODE_COUNTS = [
    (lambda: braid_closure(BraidWord(2, [1] * 6)), (40, 41, 541)),
    (borromean, (30, 35, 335)),
    (whitehead, (18, 21, 157)),
]


@pytest.mark.parametrize("make,counts", NODE_COUNTS, ids=["T(2,6)", "borromean", "whitehead"])
def test_cold_memo_node_counts(make, counts):
    sizes = []
    for engine in (skein_conway, homfly, lambda d, memo: labelled_dubrovnik(d, memo)):
        memo = {}
        engine(make(), memo=memo)
        sizes.append(len(memo))
    assert tuple(sizes) == counts


# The same diagrams under `_dubrovnik_key`, which merges relabelings.
KEYED_NODE_COUNTS = [
    (lambda: braid_closure(BraidWord(2, [1] * 6)), 66),
    (borromean, 79),
    (whitehead, 47),
]


@pytest.mark.parametrize("make,count", KEYED_NODE_COUNTS, ids=["T(2,6)", "borromean", "whitehead"])
def test_cold_memo_node_counts_relabel_key(make, count):
    memo = {}
    kauffman_f(make(), memo=memo)
    assert len(memo) == count


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
    rng = random.Random(20261018)
    for _ in range(20):
        n = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 8))]
        _assert_matches_oracle(braid_closure(BraidWord(n, word)), shared_memos)


def _node(d):
    return d.crossings, free_loops(d)


def _turn(rec, quarter):
    return rec[quarter:] + rec[:quarter]


braid_words = st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(1, n - 1).flatmap(lambda g: st.sampled_from((g, -g))),
             max_size=12)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(braid_words, braid_words, st.randoms(use_true_random=False))
def test_dubrovnik_key_forgets_labels_order_and_half_turns(sw1, sw2, rng):
    # two closures side by side, so the parts' order is shuffled too
    d = braid_closure(BraidWord(*sw1)).disjoint_union(braid_closure(BraidWord(*sw2)))
    crossings, loops = _node(d)
    key = _dubrovnik_key((crossings, loops))
    arcs = sorted({a for rec in crossings for a in rec})
    images = rng.sample(range(10 * len(arcs) + 10), len(arcs))
    relabel = dict(zip(arcs, images))
    relabelled = tuple(tuple(relabel[a] for a in rec) for rec in crossings)
    assert _dubrovnik_key((relabelled, loops)) == key
    shuffled = list(crossings)
    rng.shuffle(shuffled)
    assert _dubrovnik_key((tuple(shuffled), loops)) == key
    turned = tuple(_turn(rec, 2) if rng.random() < 0.5 else rec for rec in crossings)
    assert _dubrovnik_key((turned, loops)) == key


def test_dubrovnik_key_tells_mirrors_and_quarter_turns_apart():
    left = braid_closure(BraidWord(2, [-1, -1, -1]))
    assert _dubrovnik_key(_node(trefoil())) != _dubrovnik_key(_node(left))
    for make in (trefoil, fig8, whitehead, borromean):
        crossings, loops = _node(make())
        key = _dubrovnik_key((crossings, loops))
        for ci, rec in enumerate(crossings):
            turned = crossings[:ci] + (_turn(rec, 1),) + crossings[ci + 1:]
            assert _dubrovnik_key((turned, loops)) != key, (make.__name__, ci)


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
