import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkinv import diagram
from linkinv.corpus import load_corpus
from linkinv.diagram import (
    MAX_STRANDS,
    BraidWord,
    DiagramError,
    LinkDiagram,
    ParseError,
    SingularLink,
    braid_closure,
    far_ends,
    parse_braid,
    parse_pd,
    parse_singular,
)

from helpers import dict_validate, disjoint_union, mutated_inputs, record_switch, uf_delete, \
    uf_smooth

HOPF_PD = """
X[1,3,2,4] X[3,1,4,2]
components: [[1,2],[3,4]]
colors: [1,2]
"""


def hopf():
    return parse_pd(HOPF_PD)


def hopf_minus():
    return hopf().switch(0).switch(1)


def trefoil():
    return braid_closure(parse_braid("braid(2): 1 1 1"), name="trefoil")


def test_parse_hopf():
    d = hopf()
    assert d.m == 2
    assert len(d.crossings) == 2
    assert d.signs == (1, 1)
    assert d.writhe() == 2
    assert d.linking_matrix() == [[0, 1], [1, 0]]


def test_parse_errors_have_positions():
    with pytest.raises(ParseError):
        parse_pd("X[1,2,3] components: [[1]]")
    with pytest.raises(ParseError):
        parse_pd("Y[1,2,3,4] components: [[1]]")
    with pytest.raises(ParseError):
        parse_pd("X[1,3,2,4] X[3,1,4,2]")  # no components block
    with pytest.raises(DiagramError):
        parse_pd("X[1,3,2,4] X[3,1,4,2]\ncomponents: [[1,2],[3,4]]\ncolors: [1,3]")
    with pytest.raises(DiagramError):
        # arc used once only
        parse_pd("X[1,3,2,4]\ncomponents: [[1,2],[3,4]]\ncolors: [1,2]")


def test_braid_strand_count_is_bounded():
    assert BraidWord(MAX_STRANDS, []).strands == MAX_STRANDS
    with pytest.raises(DiagramError, match=f"^braid has more than {MAX_STRANDS} strands$"):
        BraidWord(MAX_STRANDS + 1, [])


def test_unknot_free_loop():
    d = parse_pd("O[1]\ncomponents: [[1]]\ncolors: [1]")
    assert d.m == 1
    assert d.writhe() == 0
    assert not d.is_split()


def test_braid_trefoil_one_component():
    d = trefoil()
    assert d.m == 1
    assert len(d.crossings) == 3
    assert d.writhe() == 3


def test_braid_empty_word_closure():
    d = braid_closure(BraidWord(1, []))
    assert d.m == 1
    assert len(d.crossings) == 0


def test_braid_hopf_matches_pd_convention():
    d = braid_closure(parse_braid("braid(2): 1 1"), colors=(1, 2))
    assert d.m == 2
    assert d.linking_matrix() == [[0, 1], [1, 0]]
    assert d.writhe() == 2


def test_negative_braid_gives_negative_writhe():
    d = braid_closure(BraidWord(2, [-1, -1]), colors=(1, 2))
    assert d.writhe() == -2
    assert d.linking_matrix() == [[0, -1], [-1, 0]]


def test_switch_involution_and_writhe():
    d = hopf()
    s = d.switch(0)
    assert s.signs[0] == -1
    assert s.writhe() == d.writhe() - 2
    assert s.switch(0) == d


def test_switch_on_hopf_gives_split_linking():
    s = hopf().switch(0)
    assert s.linking_matrix() == [[0, 0], [0, 0]]


def test_smooth_oriented_merges_hopf():
    d = hopf()
    s = d.smooth_oriented(0)
    assert s.m == 1
    assert len(s.crossings) == 1


def test_smooth_component_count_changes_by_one():
    for d in (hopf(), trefoil(), braid_closure(BraidWord(3, [1, -2, 1, -2]))):
        for ci in range(len(d.crossings)):
            s = d.smooth_oriented(ci)
            assert abs(s.m - d.m) == 1


def test_smooth_kink_gives_two_circles():
    kink = braid_closure(BraidWord(2, [1]))
    assert kink.m == 1
    s = kink.smooth_oriented(0)
    assert s.m == 2
    assert len(s.crossings) == 0
    assert s.is_split()


def test_smooth_infinity_structure():
    d = hopf()
    s = d.smooth_infinity(0)
    # the other reconnection also merges the two components
    assert s.m == 1
    assert len(s.crossings) == 1


def test_writhe_invariance_under_self_switch():
    d = trefoil()
    lm = d.linking_matrix()
    for ci in range(3):
        assert d.switch(ci).linking_matrix() == lm


def test_reverse_component_negates_linking():
    d = hopf()
    r = d.reverse_component(1)
    assert r.linking_matrix() == [[0, -1], [-1, 0]]
    assert r.writhe() == -2


def test_delete_component_hopf():
    d = hopf()
    s = d.delete_component(0)
    assert s.m == 1
    assert len(s.crossings) == 0


def test_delete_component_renumbers_colors():
    d = braid_closure(BraidWord(3, [1, 1, 2, 2]), colors=(1, 2, 3))
    s = d.delete_component(1)
    assert s.m == 2
    assert s.colors == (1, 2)


def test_disjoint_union_and_split():
    a, b = hopf(), trefoil()
    u = disjoint_union(a, b)
    assert u.m == 3
    assert u.is_split()
    assert not a.is_split()
    assert u.colors == (1, 2, 3)


def test_connected_sum_merges_components():
    a = hopf().recolor((1, 2))
    t = trefoil().recolor((1,))
    s = a.connected_sum(t, 0, 0)
    assert s.m == 2
    assert len(s.crossings) == 5
    # local knotting does not change linking numbers
    assert s.linking_matrix() == [[0, 1], [1, 0]]


def test_connected_sum_with_unknot_circle():
    a = hopf()
    o = parse_pd("O[1]\ncomponents: [[1]]\ncolors: [1]")
    s = a.connected_sum(o, 0, 0)
    assert s.m == 2
    assert len(s.crossings) == 2
    assert s.linking_matrix() == [[0, 1], [1, 0]]


def test_connected_sum_color_handling():
    a = hopf()
    # a monochromatic summand adopts the color of the component it ties onto
    s = a.connected_sum(trefoil(), 1, 0)
    assert s.colors == (1, 2)
    # but mismatched multi-color palettes are rejected
    with pytest.raises(DiagramError):
        a.connected_sum(hopf(), 0, 1)


def test_render_round_trip():
    for d in (hopf(), trefoil(), braid_closure(BraidWord(3, [1, -2, 1, -2]))):
        assert parse_pd(d.render_pd()) == d


def test_singular_parse_and_resolve():
    s = parse_singular("""
S[1,3,2,4] X[3,1,4,2]
components: [[1,2],[3,4]]
colors: [1,1]
""")
    assert s.points == 1
    plus = s.resolve([1])
    minus = s.resolve([-1])
    assert plus.sign(0) == 1
    assert minus.sign(0) == -1
    assert plus.switch(0) == minus


def test_singular_rejects_bicolored_marks():
    with pytest.raises(DiagramError):
        parse_singular("""
S[1,3,2,4] X[3,1,4,2]
components: [[1,2],[3,4]]
colors: [1,2]
""")


def test_braid_permutation():
    b = parse_braid("braid(3): s1 -s2 s1 -s2")
    assert b.strands == 3
    assert b.word == (1, -2, 1, -2)
    d = braid_closure(b)
    assert d.m == 1  # figure-eight knot
    assert d.writhe() == 0


def test_random_surgery_fuzz():
    # surgery builds without a check, so the parse of each rendering is what
    # revalidates: a long random walk over switch/smooth/reverse/delete must
    # never produce an invalid diagram
    import random
    rng = random.Random(20240810)
    for trial in range(60):
        strands = rng.randrange(2, 4)
        word = [rng.choice([1, -1]) * rng.randrange(1, strands)
                for _ in range(rng.randrange(1, 8))]
        d = braid_closure(BraidWord(strands, word))
        for _ in range(6):
            ops = []
            if d.crossings:
                ops += ["switch", "smooth", "smooth_inf"]
            if d.m > 1:
                ops += ["delete"]
            ops += ["reverse"]
            op = rng.choice(ops)
            if op == "switch":
                ci = rng.randrange(len(d.crossings))
                before = d.writhe()
                d = d.switch(ci)
                assert abs(d.writhe() - before) == 2
            elif op == "smooth":
                before = d.m
                d = d.smooth_oriented(rng.randrange(len(d.crossings)))
                assert abs(d.m - before) == 1
            elif op == "smooth_inf":
                d = d.smooth_infinity(rng.randrange(len(d.crossings)))
            elif op == "delete":
                d = d.delete_component(rng.randrange(d.m))
            else:
                d = d.reverse_component(rng.randrange(d.m))
            assert parse_pd(d.render_pd()) == d or d.crossings == ()


def _singular_round_trips(s):
    back = parse_singular(s.render_pd())
    return back.base == s.base and back.marked == s.marked and back.base.name == s.base.name


def test_singular_render_round_trip():
    # over-strand directions that the cycles alone leave open need the
    # overin block, and the name line survives too
    s = SingularLink(braid_closure(parse_braid("braid(2): -1 1"), name="ribbon"), [])
    assert _singular_round_trips(s)
    import random
    rng = random.Random(20261018)
    for _ in range(300):
        strands = rng.randrange(2, 6)
        word = [rng.choice([1, -1]) * rng.randrange(1, strands)
                for _ in range(rng.randrange(0, 15))]
        base = braid_closure(BraidWord(strands, word))
        marks = [ci for ci in range(len(word)) if rng.random() < 0.3]
        assert _singular_round_trips(SingularLink(base, marks))


braid_words = st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(1, n - 1).flatmap(lambda g: st.sampled_from((g, -g))),
             max_size=14)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(braid_words)
def test_component_matches_iterated_deletion(sw):
    d = braid_closure(BraidWord(*sw))
    for j in range(d.m):
        sub = d
        for k in sorted(set(range(d.m)) - {j}, reverse=True):
            sub = sub.delete_component(k)
        assert d.component(j) == sub


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(braid_words)
def test_delete_component_round_trip_and_invariants(sw):
    d = braid_closure(BraidWord(*sw))
    d = d.recolor(tuple(range(1, d.m + 1)))
    lm = d.linking_matrix()
    for i in range(d.m):
        s = d.delete_component(i)
        assert s.m == d.m - 1
        assert s.colors == tuple(range(1, s.m + 1))
        assert parse_pd(s.render_pd()) == s
        # the survivors keep their order, self-crossings and linking
        keep = [k for k in range(d.m) if k != i]
        assert s.linking_matrix() == [[lm[a][b] for b in keep] for a in keep]
        touching = sum(d.signs[ci] for ci in range(len(d.crossings))
                       if i in d.strands_at(ci))
        assert s.writhe() == d.writhe() - touching


def onto(colors):
    """The colouring with the same pattern, relabelled onto {1..k}."""
    order = {c: i + 1 for i, c in enumerate(sorted(set(colors)))}
    return tuple(order[c] for c in colors)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(braid_words, st.lists(st.integers(1, 3), min_size=5, max_size=5), st.booleans())
def test_render_pd_round_trips_coloured_closures(sw, palette, named):
    # idle strands render as O tokens, and the colours and name survive
    d = braid_closure(BraidWord(*sw), name="closure" if named else None)
    d = d.recolor(onto(palette[:d.m]))
    back = parse_pd(d.render_pd())
    assert back == d
    assert (back.colors, back.name) == (d.colors, d.name)


def surgery_diagrams():
    """The corpus links and 300 seeded closures of 2-5-strand words with
    random colourings onto {1..k}, about two in three of them
    multi-coloured."""
    diagrams = [e.link for e in load_corpus()]
    rng = random.Random(20261026)
    for _ in range(300):
        n = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 12))]
        d = braid_closure(BraidWord(n, word))
        d = d.recolor(onto([rng.randint(1, d.m) for _ in range(d.m)]))
        diagrams.append(d)
    return diagrams


def test_surgery_matches_union_find_oracle():
    # the far-end relinks give what merging arc labels in a union-find
    # gave: labels, components, colours and directions alike
    diagrams = surgery_diagrams()
    assert sum(max(d.colors, default=1) > 1 for d in diagrams) > 150
    checked = 0
    for d in diagrams:
        for ci in range(len(d.crossings)):
            assert d.switch(ci) == record_switch(d, ci)
            assert d.smooth_oriented(ci) == uf_smooth(d, ci, True), (d, ci)
            assert d.smooth_infinity(ci) == uf_smooth(d, ci, False), (d, ci)
            checked += 3
        if d.m > 1:
            for i in range(d.m):
                assert d.delete_component(i) == uf_delete(d, set(range(d.m)) - {i}), (d, i)
                assert d.component(i) == uf_delete(d, {i}), (d, i)
                checked += 2
    assert checked > 5000


def test_surgery_builds_one_far_end_table(monkeypatch):
    # each surgery relinks one table of far ends and walks it from the kept
    # crossings, instead of building a second one for the walk; a switch
    # builds none
    calls = []

    def counting(crossings):
        calls.append(len(crossings))
        return far_ends(crossings)

    monkeypatch.setattr(diagram, "far_ends", counting)
    for d in surgery_diagrams()[:60]:
        for ci in range(len(d.crossings)):
            for surgery, want in ((d.switch, 0), (d.smooth_oriented, 1), (d.smooth_infinity, 1)):
                calls.clear()
                surgery(ci)
                assert calls == [len(d.crossings)] * want, (d, ci, surgery.__name__)
        for i in range(d.m if d.m > 1 else 0):
            calls.clear()
            d.delete_component(i)
            assert calls == [len(d.crossings)], (d, i)


def test_validate_matches_dict_oracle_on_mutated_inputs():
    # the far-end validator accepts and rejects what the per-arc dict
    # validator did, and derives the same fields from what it accepts
    inputs = mutated_inputs(surgery_diagrams(), random.Random(20261101), 4000)
    # the second component is over at all its crossings, so only the hint's
    # successor check sees it reversed
    d = braid_closure(BraidWord(2, [1, -1, 1, -1]))
    inputs.append((d.crossings, [d.components[0], d.components[1][::-1]], d.colors, d.over_in))
    accepted = 0
    for crossings, components, colors, over_in in inputs:
        old = SimpleNamespace(crossings=tuple(map(tuple, crossings)),
                              components=tuple(map(tuple, components)), colors=tuple(colors))
        hint = tuple(over_in) if over_in is not None else None
        try:
            dict_validate(old, hint)
        except DiagramError:
            with pytest.raises(DiagramError):
                LinkDiagram(crossings, components, colors, over_in=over_in)
            continue
        new = LinkDiagram(crossings, components, colors, over_in=over_in)
        derived = ("over_in", "signs", "heads", "tails", "comp_of_arc")
        assert [getattr(old, f) for f in derived] == [getattr(new, f) for f in derived], \
            (crossings, components, colors, over_in)
        accepted += 1
    assert 400 < accepted < 3600


def _fields(d):
    return [getattr(d, f) for f in LinkDiagram.__slots__]


def _same_as_validated(d, colors=None, name=None):
    # d against the full check of its own fields, or of d's records with
    # the given colors or name
    full = LinkDiagram(d.crossings, d.components, colors or d.colors, name or d.name,
                       over_in=d.over_in)
    return _fields(d) == _fields(full)


def test_make_results_match_the_validating_constructor():
    # every surgery result built by _make is what the full check derives
    # from its crossings, components, colors and directions, field by field
    checked = 0
    for d in surgery_diagrams():
        results = [f(ci) for ci in range(len(d.crossings))
                   for f in (d.switch, d.smooth_oriented, d.smooth_infinity)]
        results += [f(i) for i in range(d.m) for f in (d.reverse_component, d.component)]
        results += [d.delete_component(i) for i in range(d.m)]
        for r in results:
            assert _same_as_validated(r), (d, r)
        assert _same_as_validated(d.with_name("renamed"), name="renamed")
        assert _same_as_validated(d.with_name("renamed").monochrome(), colors=(1,) * d.m,
                                  name="renamed")
        checked += len(results) + 2
    trefoil = braid_closure(BraidWord(2, [1, 1, 1]))
    fig8 = braid_closure(BraidWord(3, [1, -2, 1, -2]))
    for e in load_corpus():
        for knot in (trefoil, fig8):
            for comp in range(e.link.m):
                assert _same_as_validated(e.link.connected_sum(knot, comp, 0)), (e.name, comp)
                checked += 1
    assert checked > 8000
