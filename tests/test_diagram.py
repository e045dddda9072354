import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkinv.diagram import (
    BraidWord,
    DiagramError,
    ParseError,
    SingularLink,
    braid_closure,
    parse_braid,
    parse_pd,
    parse_singular,
)

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
    u = a.disjoint_union(b)
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


def test_canonical_code_relabeling_invariance():
    d1 = parse_pd(HOPF_PD)
    d2 = parse_pd("""
X[10,30,20,40] X[30,10,40,20]
components: [[10,20],[30,40]]
colors: [1,2]
""")
    assert d1.canonical_code() == d2.canonical_code()


def test_canonical_code_separates_diagrams():
    d = hopf()
    unlink = parse_pd("O[1] O[2]\ncomponents: [[1],[2]]\ncolors: [1,2]")
    assert d.canonical_code() != unlink.canonical_code()
    assert d.canonical_code() != d.switch(0).canonical_code()


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
    # every surgery revalidates the full structure; a long random walk over
    # switch/smooth/reverse/delete must never produce an invalid diagram
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
        assert d.component(j).structural_key() == sub.structural_key()


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
