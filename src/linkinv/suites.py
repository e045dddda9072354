"""Verification suites: the cross-identities between the computed
invariants, run over the bundled corpus.  Each suite returns a list of
named checks with pass/fail state, and the CLI aggregates them into a
machine-readable summary."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import LaurentPolynomial, bar_substitute
from .alexander import potential_function
from .corpus import load_corpus
from .diagram import BraidWord, braid_closure
from .finitetype import (
    alpha_two,
    ck_coefficient,
    conway_coefficient,
    extend,
    homfly_exp_coefficient,
    kauffman_exp_coefficient,
    linking_parity,
)
from .invariants import alpha_coeffs, congruence_rows, gamma3, \
    two_color_tables, unoriented_sl
from .skein import conway, dubrovnik, homfly, kauffman_f, scope
from .transforms import (
    DEFAULT_CAP,
    _conway_quotient,
    _link_quotients,
    component_conways,
    decompose,
    homfly_exp_quotient,
    kauffman_exp_quotient,
    omega_from_reduced,
    parity_vector,
    reconstruct,
    reduced_polynomial,
)

X = LaurentPolynomial.gen(("x", "y"), "x")
Y = LaurentPolynomial.gen(("x", "y"), "y")
Z = LaurentPolynomial.gen(("z",), "z")


class Check(NamedTuple):
    """One named check of a suite and its outcome."""

    suite: str
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail and not self.passed else ""
        return f"[{status}] {self.suite}: {self.name}{tail}"


def _links(entries):
    return [e for e in entries if not e.singular]


def suite_skein_relations(entries, cap=DEFAULT_CAP):
    out = []
    for e in _links(entries):
        d = e.link
        if len(d.crossings) > 12:
            continue
        nabla = conway(d)
        for ci in range(len(d.crossings)):
            switched = d.switch(ci)
            pos, neg = (d, switched) if d.sign(ci) == 1 else (switched, d)
            mid = d.smooth_oriented(ci)
            ok = d.sign(ci) * (nabla - conway(switched)) == Z * conway(mid)
            out.append(Check("skein-relations", f"conway @ {e.name}#{ci}", ok))
            ok = X * homfly(pos) - X ** -1 * homfly(neg) == Y * homfly(mid)
            out.append(Check("skein-relations", f"homfly @ {e.name}#{ci}", ok))
            inf = d.smooth_infinity(ci)
            w0 = mid.writhe()
            lhs = X * kauffman_f(pos) - X ** -1 * kauffman_f(neg)
            rhs = Y * (kauffman_f(mid) - (X ** (-w0)) * dubrovnik(inf))
            ok = (lhs == rhs and pos.writhe() - 1 == neg.writhe() + 1 == w0)
            out.append(Check("skein-relations", f"kauffman @ {e.name}#{ci}", ok))
            cu, co = d.strands_at(ci)
            if d.colors[cu] == d.colors[co]:
                color = d.colors[cu]
                omp, omn, om0 = (potential_function(x) for x in (pos, neg, mid))
                xc = LaurentPolynomial.gen((f"x{color}",), f"x{color}")
                diff = xc - xc ** -1
                budget = 1 if (omp.pole or omn.pole or om0.pole) else 0

                def value(om):
                    nm = om.numerator
                    if om.pole:
                        nm = nm.rename_variables({"x1": f"x{color}"})
                        return nm * diff ** (budget - 1)
                    return nm * diff ** budget

                ok = value(omp) - value(omn) == diff * value(om0)
                out.append(Check("skein-relations", f"omega @ {e.name}#{ci}", ok))
    return out


def suite_lemma41(entries, cap=DEFAULT_CAP):
    out = []
    for e in _links(entries):
        d = e.link
        om = potential_function(d)
        ok = bar_substitute(om.numerator) == om.numerator
        out.append(Check("lemma41", f"bar-invariance @ {e.name}", ok))
        if d.m > 1 and not om.is_zero:
            ok = all((sum(exps) - d.m) % 2 == 0 for exps in om.numerator.terms)
            out.append(Check("lemma41", f"total-degree parity @ {e.name}", ok))
            parities = parity_vector(d)
            ok = True
            for i, p in enumerate(parities):
                vi = om.variables.index(f"x{i + 1}")
                for exps in om.numerator.terms:
                    if (exps[vi] - p) % 2:
                        ok = False
            out.append(Check("lemma41", f"variable-degree parity @ {e.name}", ok))
    return out


def suite_decomposition(entries, cap=DEFAULT_CAP):
    out = []
    zero = decompose(LaurentPolynomial.zero(("x1", "x2")))
    out.append(Check("decomposition-roundtrip", "decompose(0) = 0",
                     not zero.parts and reconstruct(zero).is_zero))
    for e in _links(entries):
        d = e.link
        if d.m < 2:
            continue
        om = potential_function(d)
        dec = decompose(om)
        ok = reconstruct(dec) == om.numerator
        out.append(Check("decomposition-roundtrip", f"reconstruct @ {e.name}", ok))
        half = all(c.denominator in (1, 2)
                   for poly in dec.parts.values() for c in poly.terms.values())
        out.append(Check("decomposition-roundtrip", f"half-integrality @ {e.name}", half))
        if d.n_colors == 2:
            full = dec.parts.get(frozenset({1, 2}))
            ok = full is None or all(c.denominator == 1 for c in full.terms.values())
            out.append(Check("decomposition-roundtrip", f"full-part integrality @ {e.name}", ok))
        nbl = reduced_polynomial(dec)
        back = omega_from_reduced(nbl, parity_vector(d))
        out.append(Check("decomposition-roundtrip", f"reduced two-way @ {e.name}",
                         back == om.numerator))
        diag = nbl.collapse_variables("z")
        out.append(Check("decomposition-roundtrip", f"diagonal equals conway @ {e.name}",
                         Z * diag == conway(d)))
        # parity of the parts
        parities = parity_vector(d)
        ok = True
        for subset, poly in dec.parts.items():
            for exps in poly.terms:
                if (sum(exps) - d.m) % 2:
                    ok = False
                for i in range(dec.n):
                    agrees = (exps[i] - parities[i]) % 2 == 0
                    if agrees == ((i + 1) in subset):
                        ok = False
        out.append(Check("decomposition-roundtrip", f"part parities @ {e.name}", ok))
    return out


PROBE_BASES = ("hopf-plus", "hopf-minus", "chain2", "whitehead", "borromean",
               "trefoil-right", "unlink2")


def suite_starred_pl_isotopy(entries, cap=DEFAULT_CAP):
    out = []
    trefoil = braid_closure(BraidWord(2, [1, 1, 1]))
    fig8 = braid_closure(BraidWord(3, [1, -2, 1, -2]))
    by_name = {e.name: e for e in entries}

    def quotients(d):
        # one component_conways and, for a link, one potential function
        comps = component_conways(d)
        out = [("conway", _conway_quotient(conway(d), comps, cap))]
        if d.m >= 2:
            out += zip(("series", "reduced"),
                       _link_quotients(potential_function(d), None, comps, cap)[1:])
        return out + [("homfly", homfly_exp_quotient(d, cap)),
                      ("kauffman", kauffman_exp_quotient(d, cap))]

    for name in PROBE_BASES:
        if name not in by_name:
            continue
        base = by_name[name].link
        expected = quotients(base)
        for knot, kname in ((trefoil, "trefoil"), (fig8, "fig8")):
            for comp in range(base.m):
                knotted = base.connected_sum(knot, comp, 0)
                tag = f"{name}+{kname}@{comp}"
                for (label, want), (_, got) in zip(expected, quotients(knotted)):
                    out.append(Check("starred-pl-isotopy", f"{label} quotient {tag}",
                                     got == want))
    return out


def suite_congruences(entries, cap=DEFAULT_CAP):
    out = []
    for e in _links(entries):
        d = e.link
        if d.n_colors != 2:
            continue
        try:
            c_t, a_t, d_t = two_color_tables(d, cap)
        except Exception as exc:  # validators inside raise on violation
            out.append(Check("congruences", f"tables @ {e.name}", False, str(exc)))
            continue
        out.append(Check("congruences", f"table validators @ {e.name}", True))
        if d.m == 2:
            lk = d.linking_matrix()[0][1]
            alphas = alpha_coeffs(d.monochrome(), cap)
            a1 = alphas[1] if len(alphas) > 1 else Fraction(0)
            ok = c_t.get(1, 1) == a1 - Fraction(lk ** 3 - lk, 12)
            out.append(Check("congruences", f"c11 cubic correction @ {e.name}", ok))
            rev = d.reverse_component(1)
            ar = alpha_coeffs(rev.monochrome(), cap)
            a1r = ar[1] if len(ar) > 1 else Fraction(0)
            ok = c_t.get(1, 1) == Fraction(a1 + a1r, 2)
            out.append(Check("congruences", f"c11 reversal identity @ {e.name}", ok))
            rows = congruence_rows(component_conways(d), d_t, min(cap, 8))
            flagged = [r for r in rows if r["flagged"]]
            out.append(Check("congruences", f"finite flag set @ {e.name}",
                             len(flagged) <= 12, f"{len(flagged)} flags"))
    return out


def suite_finite_type_evidence(entries, cap=DEFAULT_CAP):
    out = []
    by_name = {e.name: e for e in entries}

    def marked(name):
        return by_name[name].diagram

    ev = [
        ("c0 on 1 self point", ck_coefficient(0), "self-singular-1"),
        ("c1 on 3 self points", ck_coefficient(1), "self-singular-3"),
        ("c1 on 3 self points (threaded)", ck_coefficient(1), "threaded-doubled-circle"),
        ("a2 on 3 points", conway_coefficient(2), "clasp-singular-3"),
        ("a1 on 2 points", conway_coefficient(1), "clasp-singular-2"),
        ("a3 on 4 points", conway_coefficient(3), "clasp-singular-4"),
    ]
    for label, chi, name in ev:
        if name not in by_name:
            continue
        ok = extend(chi, marked(name)) == 0
        out.append(Check("finite-type-evidence", label, ok))
    for i in (0, 1, 2):
        ok = extend(homfly_exp_coefficient(1, i), marked("clasp-singular-2")) == 0
        out.append(Check("finite-type-evidence", f"p1{i} on 2 points", ok))
        ok = extend(kauffman_exp_coefficient(1, i), marked("clasp-singular-2")) == 0
        out.append(Check("finite-type-evidence", f"q1{i} on 2 points", ok))
    return out


def suite_finite_type_witnesses(entries, cap=DEFAULT_CAP):
    out = []
    by_name = {e.name: e for e in entries}
    for k in (1, 2, 3, 4):
        name = f"clasp-singular-{k}"
        if name not in by_name:
            continue
        e = by_name[name]
        value = extend(linking_parity(), e.diagram)
        ok = abs(value) == 2 ** k
        if "extend_linking_parity" in e.expected:
            ok = ok and str(value) == e.expected["extend_linking_parity"]["value"]
        out.append(Check("finite-type-witnesses", f"(-1)^lk on {k} points = {value}", ok))
    name = "threaded-doubled-circle"
    if name in by_name:
        e = by_name[name]
        value = extend(alpha_two(), e.diagram)
        want = Fraction(e.expected["extend_alpha2"]["value"])
        out.append(Check("finite-type-witnesses",
                         f"alpha2 jump on 3 self points = {value}", value == want))
    return out


def _compute_expected(e, key, cap):
    d = e.link
    if key == "conway":
        return conway(d).render()
    if key == "omega":
        return potential_function(d).render()
    if key == "reduced":
        return reduced_polynomial(decompose(potential_function(d))).render()
    if key == "alpha1":
        alphas = alpha_coeffs(d.monochrome(), cap)
        return str(alphas[1] if len(alphas) > 1 else Fraction(0))
    if key == "c11":
        return str(unoriented_sl(d, min(cap, 8)))
    if key == "delta00":
        return str(two_color_tables(d, min(cap, 8))[2].get(0, 0))
    if key == "delta11":
        return str(two_color_tables(d, min(cap, 8))[2].get(1, 1))
    if key == "gamma":
        return str(gamma3(d))
    if key == "points":
        return str(e.diagram.points)
    if key == "extend_linking_parity":
        return str(extend(linking_parity(), e.diagram))
    if key == "extend_alpha2":
        return str(extend(alpha_two(), e.diagram))
    raise KeyError(f"unknown expected-value key {key!r}")


def suite_corpus_values(entries, cap=DEFAULT_CAP):
    out = []
    for e in entries:
        for key, item in e.expected.items():
            try:
                got = _compute_expected(e, key, cap)
                ok = got == item["value"]
                detail = "" if ok else f"got {got}, expected {item['value']}"
            except Exception as exc:
                ok = False
                detail = f"error: {exc}"
            out.append(Check("corpus-values", f"{e.name}.{key}", ok, detail))
    return out


SUITES = {
    "skein-relations": suite_skein_relations,
    "lemma41": suite_lemma41,
    "decomposition-roundtrip": suite_decomposition,
    "starred-pl-isotopy": suite_starred_pl_isotopy,
    "congruences": suite_congruences,
    "finite-type-evidence": suite_finite_type_evidence,
    "finite-type-witnesses": suite_finite_type_witnesses,
    "corpus-values": suite_corpus_values,
}


def run_suites(names=None, corpus_path=None, cap=DEFAULT_CAP):
    entries = load_corpus(corpus_path)
    names = list(names) if names else list(SUITES)
    for n in names:
        if n not in SUITES:
            raise KeyError(f"unknown suite {n!r}; choices: {', '.join(SUITES)}")
    checks = []
    with scope():  # one HOMFLY and one Dubrovnik table for every suite
        for n in names:
            checks.extend(SUITES[n](entries, cap))
    return checks
