import random
from fractions import Fraction

import pytest

from linkinv import invariants, transforms
from linkinv.algebra import LaurentPolynomial
from linkinv.corpus import load_corpus
from linkinv.diagram import BraidWord, braid_closure, parse_pd
from linkinv.invariants import (
    UndefinedInvariantError,
    alpha_coeffs,
    beta_hat,
    build_report,
    casson_walker_surrogate,
    cochran_beta,
    congruence_report,
    congruence_rows,
    conway_coeffs,
    gamma3,
    two_color_tables,
    unoriented_sl,
)
from linkinv.transforms import CoefficientTable, component_conways

from helpers import disjoint_union, rescan_congruence_rows


def hopf(colors=(1, 2)):
    return braid_closure(BraidWord(2, [1, 1]), colors=colors, name="hopf+")


def trefoil():
    return braid_closure(BraidWord(2, [1, 1, 1]), name="trefoil")


def whitehead(colors=(1, 2)):
    return braid_closure(BraidWord(3, [1, -2, 1, -2, 1]), colors=colors, name="whitehead")


def borromean(colors=(1, 2, 3)):
    return braid_closure(BraidWord(3, [1, -2, 1, -2, 1, -2]), colors=colors, name="borromean")


def chain(n, colors=(1, 2)):
    return braid_closure(BraidWord(2, [1] * (2 * n)), colors=colors, name=f"chain{n}")


def unlink(m, colors=None):
    toks = " ".join(f"O[{i}]" for i in range(1, m + 1))
    comps = "[" + ",".join(f"[{i}]" for i in range(1, m + 1)) + "]"
    cols = list(colors) if colors else [1] * m
    return parse_pd(f"{toks}\ncomponents: {comps}\ncolors: {cols}")


def test_conway_coeffs_basics():
    assert conway_coeffs(hopf()) == (1,)
    assert conway_coeffs(unlink(2, (1, 2))) == ()
    assert conway_coeffs(trefoil()) == (1, 1)
    assert conway_coeffs(borromean()) == (0, 1)


def test_conway_coeffs_three_component_formula():
    # c0 = ab + bc + ca over the pairwise linking numbers
    d = braid_closure(BraidWord(3, [1, 1, 2, 2]), colors=(1, 2, 3))
    lm = d.linking_matrix()
    a, b, c = lm[0][1], lm[1][2], lm[0][2]
    assert conway_coeffs(d)[0] == a * b + b * c + c * a
    t = braid_closure(BraidWord(3, [1, 2] * 3), colors=(1, 2, 3))
    lm = t.linking_matrix()
    a, b, c = lm[0][1], lm[1][2], lm[0][2]
    assert conway_coeffs(t)[0] == a * b + b * c + c * a


def test_alpha_coeffs_hopf():
    alphas = alpha_coeffs(hopf(), 9)
    assert alphas[0] == 1
    assert all(a == 0 for a in alphas[1:])


def test_alpha_unlink_zero():
    assert all(a == 0 for a in alpha_coeffs(unlink(2), 9))


def test_alpha_pl_isotopy_invariance():
    base = hopf()
    knotted = base.connected_sum(trefoil(), 0, 0)
    assert alpha_coeffs(base.monochrome(), 11) == alpha_coeffs(knotted.monochrome(), 11)


def test_alpha1_formula_two_components():
    # alpha_1 = c_1 - c_0*(c_1(K_1) + c_1(K_2))
    for d in (hopf(), chain(2), whitehead(),
              hopf().connected_sum(trefoil(), 0, 0)):
        cs = conway_coeffs(d)
        c0 = cs[0] if cs else Fraction(0)
        c1 = cs[1] if len(cs) > 1 else Fraction(0)
        from linkinv.transforms import component_conways
        comp_c1 = Fraction(0)
        for nabla, _ in component_conways(d):
            comp_c1 += nabla.coefficient((2,))
        alphas = alpha_coeffs(d.monochrome(), 11)
        a1 = alphas[1] if len(alphas) > 1 else Fraction(0)
        assert a1 == c1 - c0 * comp_c1, d.name


def test_two_color_tables_hopf():
    c_t, a_t, d_t = two_color_tables(hopf(), 8)
    assert c_t.get(0, 0) == 1
    assert d_t.get(0, 0) == 1
    assert c_t.get(1, 1) == a_t.get(1, 1)  # lk = 1 kills the cubic correction


def test_two_color_tables_chain_identity():
    # c_11 = alpha_1 - (lk^3 - lk)/12 on the chain family
    for n in (1, 2, 3, 4):
        d = chain(n)
        c_t, _, _ = two_color_tables(d, 8)
        alphas = alpha_coeffs(d.monochrome(), 9)
        a1 = alphas[1] if len(alphas) > 1 else Fraction(0)
        lk = Fraction(n)
        assert c_t.get(1, 1) == a1 - (lk ** 3 - lk) / 12, n


def test_two_color_tables_three_components():
    # 2-colored 3-component chain: c_10 and c_01 against linking data
    d = braid_closure(BraidWord(3, [1, 1, 2, 2]), colors=(1, 1, 2))
    lm = d.linking_matrix()
    # color 1 components are 0 and 1; color 2 component is 2
    c_t, _, _ = two_color_tables(d, 8)
    lk11 = lm[0][1]
    expected_c10 = lk11 * (lm[0][2] + lm[1][2])
    expected_c01 = lm[0][2] * lm[1][2]
    assert c_t.get(1, 0) == expected_c10
    assert c_t.get(0, 1) == expected_c01


def test_whitehead_tables():
    d = whitehead()
    c_t, a_t, d_t = two_color_tables(d, 8)
    assert c_t.get(0, 0) == 0
    assert d_t.get(0, 0) == 0
    # delta_11 is the Sato-Levine invariant; cross-check against alpha_1
    alphas = alpha_coeffs(d.monochrome(), 9)
    assert d_t.get(1, 1) == alphas[1]
    assert abs(alphas[1]) == 1
    assert a_t.get(1, 1) == d_t.get(1, 1)  # unknotted components


def test_cochran_beta_whitehead():
    d = whitehead()
    alphas = alpha_coeffs(d.monochrome(), 9)
    assert cochran_beta(d, 1, 10) == alphas[1]
    # lk = 0 makes beta and beta-hat agree
    for k in (1, 2, 3):
        assert cochran_beta(d, k, 10) == beta_hat(d, k, 10)


def test_cochran_beta_unlink_zero():
    d = unlink(2, (1, 2))
    for k in (1, 2, 3):
        assert cochran_beta(d, k, 10) == 0


def test_cochran_beta_requires_lk_zero():
    with pytest.raises(UndefinedInvariantError):
        cochran_beta(hopf(), 1)
    assert beta_hat(hopf(), 1, 10) is not None


def test_casson_walker_surrogate():
    d = hopf()
    assert unoriented_sl(d, 8) == 0
    with pytest.raises(UndefinedInvariantError):
        casson_walker_surrogate(whitehead())
    c2 = chain(2)
    assert casson_walker_surrogate(c2, 8) == 2 * unoriented_sl(c2, 8) / Fraction(4)


def test_c11_reversal_identity():
    # c_11(L) = (alpha_1(L) + alpha_1(L reversed)) / 2
    for make in (hopf, lambda: chain(2), lambda: chain(3), whitehead,
                 lambda: hopf().connected_sum(trefoil(), 0, 0),
                 lambda: braid_closure(BraidWord(2, [-1] * 4), colors=(1, 2)),
                 lambda: braid_closure(BraidWord(2, [1, 1, -1, -1, 1, 1]), colors=(1, 2)),
                 lambda: whitehead().connected_sum(trefoil(), 1, 0),
                 lambda: chain(2).connected_sum(fig8(), 0, 0),
                 lambda: braid_closure(BraidWord(2, [1] * 6), colors=(1, 2))):
        d = make()
        rev = d.reverse_component(1)
        a1 = alpha_coeffs(d.monochrome(), 9)
        a1r = alpha_coeffs(rev.monochrome(), 9)
        v1 = a1[1] if len(a1) > 1 else Fraction(0)
        v2 = a1r[1] if len(a1r) > 1 else Fraction(0)
        assert unoriented_sl(d, 8) == (v1 + v2) / 2


def fig8():
    return braid_closure(BraidWord(3, [1, -2, 1, -2]), name="fig8")


def test_gamma3():
    assert gamma3(unlink(3)) == 0
    b = borromean()
    alphas = alpha_coeffs(b.monochrome(), 9)
    assert gamma3(b) == alphas[1]
    assert gamma3(b) == 1
    split = disjoint_union(hopf((1, 1)), unlink(1))
    assert gamma3(split) == 0
    with pytest.raises(UndefinedInvariantError):
        gamma3(hopf())


def test_congruence_report_hopf():
    rows = congruence_report(hopf(), 6)
    flagged = [r for r in rows if r["flagged"]]
    assert flagged == [{"i": 0, "j": 0, "delta": "1", "modulus": 0,
                        "flagged": True, "equality_flagged": True}]


def test_congruence_report_whitehead_finite():
    rows = congruence_report(whitehead(), 8)
    flagged = [r for r in rows if r["flagged"]]
    assert flagged  # nonzero set
    assert len(flagged) < 8


def test_congruence_report_unlink():
    rows = congruence_report(unlink(2, (1, 2)), 6)
    assert not any(r["flagged"] for r in rows)


def test_congruence_rows_match_the_rescan_oracle():
    # prefix gcds give the rows of the per-entry rescan, in the same order,
    # on seeded tables with zeros, units and shared factors, and on links
    rng = random.Random(12)
    one, knotted = LaurentPolynomial.one(("z",)), LaurentPolynomial.gen(("z",), "z")
    for _ in range(60):
        cap = rng.randrange(0, 10)
        table = CoefficientTable({(i, j): rng.choice([0, 0, 1, -1, 2, 3, 4, 6, -12, 35])
                                  for i in range(cap + 1) for j in range(cap + 1 - i)})
        comps = [(rng.choice([one, knotted]), 1), (one, 2)]
        assert congruence_rows(comps, table, cap) == rescan_congruence_rows(comps, table, cap)
    for d in (hopf(), whitehead(), unlink(2, (1, 2))):
        comps, table = component_conways(d), two_color_tables(d, 8)[2]
        assert congruence_rows(comps, table, 8) == rescan_congruence_rows(comps, table, 8)


def test_build_report_hopf():
    data = build_report(hopf(), 8)
    assert data["schema"] == "linkinv-report-1"
    assert data["conway"] == "z"
    assert data["omega"] == "1"
    assert data["reduced"] == "1"
    assert data["c"][0] == "1"
    assert data["delta_table"]["0,0"] == "1"
    assert data["beta"] is None
    assert data["notes"]


def test_build_report_whitehead_and_borromean():
    data = build_report(whitehead(), 8)
    assert data["beta"] is not None
    assert data["casson_walker_surrogate"] is None
    data = build_report(borromean(), 8)
    assert data["gamma"] == "1"
    assert data["c_table"] is None


def _two_color_links():
    links = [pytest.param(e.link, id=e.name) for e in load_corpus()
             if not e.singular and e.link.n_colors == 2]
    rng = random.Random(20261018)
    closures = []
    while len(closures) < 20:
        n = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                for _ in range(rng.randint(2, 10))]
        d = braid_closure(BraidWord(n, word))
        if d.m == 2:
            closures.append(pytest.param(d.recolor((1, 2)), id=f"braid{len(closures)}"))
    return links + closures


@pytest.mark.parametrize("cap", [8, 12])
@pytest.mark.parametrize("d", _two_color_links())
def test_report_reads_one_table_pass(monkeypatch, d, cap):
    # the report derives one potential function, expands it at most once,
    # decomposes it once, takes one Conway polynomial of the link and one of
    # each component, and must read every field exactly as the public
    # functions, each of which derives its own
    calls = {"potential_function": 0, "potential_series": 0, "decompose": 0,
             "component_conways": 0, "conway": 0}
    for name in calls:
        real = getattr(transforms, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            if _name != "conway" or args[0].m == d.m:  # components are knots
                calls[_name] += 1
            return _real(*args, **kwargs)

        for module in (invariants, transforms):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    rep = build_report(d, cap)
    assert calls["potential_function"] == 1
    assert calls["potential_series"] <= 1
    assert calls["decompose"] == 1
    assert calls["component_conways"] == 1
    assert calls["conway"] == 1
    lk = d.linking_matrix()[0][1]
    ks = range(1, cap // 2 + 1)
    assert rep["beta_hat"] == {str(k): str(beta_hat(d, k, cap)) for k in ks}
    assert rep["beta"] == ({str(k): str(cochran_beta(d, k, cap)) for k in ks}
                           if lk == 0 else None)
    assert rep["sato_levine_unoriented"] == str(unoriented_sl(d, cap))
    assert rep["casson_walker_surrogate"] == (str(casson_walker_surrogate(d, cap)) if lk else None)
    assert rep["congruences"] == [row for row in congruence_report(d, min(cap, 8))
                                  if row["flagged"]]
