"""Build `pool.json`, the committed pool of random braid words the ladder
workloads draw from.

Usage: python3 perfbench/pool.py [--out perfbench/pool.json] [--refine]

A random braid word of a given length can cost ten times more than
another (the skein node count of random 16-crossing 3-braids has an
interquartile range of 85% of its median), so a ladder that drew fresh
words from every seed would measure the seed, not the program.  This
script draws CANDIDATES freely reduced words per size from a fixed pool
seed and runs each word's ladder commands (`conway` and `homfly` for a
3-braid, `omega` with one color per component for a 4-braid) RUNS times
through the benchmark's own child.  4-braid words whose potential function
is 0 (a component that never passes under, so there is no Fox matrix to
reduce) are drawn again.

The FINALISTS candidates nearest the lowest decile in both command time
(the smallest over the runs) and peak RSS (the larger of the two relative
distances is smallest) are measured REFINE_RUNS more times.  With those
figures the fastest finalist whose peak RSS is within RSS_BAND of the RSS
decile is the size's anchor word (a much smaller RSS marks a word whose
skein recursion is unusually shallow), and up to KEEP - 1 other finalists
join it when both their time and their RSS are within TOLERANCE of the
anchor's.  A size whose finalists all differ more keeps the anchor alone:
on the 24-crossing 4-braids, time and RSS vary so much between words that
no two candidates agree, and a seed that chose between words 20% apart
would move the pass time by that much.  The cheap end of the distribution keeps a 24-crossing
4-braid near 5 s, so that a run has time for two to three passes of each
ladder, and every item has more than one time to take the median of.

Every measurement is stored with the pool.  The benchmark's `--seed` picks
one kept word per size.  `--refine` repeats only the second stage, on the
candidates already stored in `--out`.  Rebuild the pool only when the
ladders change, and re-record `golden.json` after it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time

from run import OUT, run_item
from workloads import FOUR_BRAID_LENGTHS, THREE_BRAID_LENGTHS, braid_text, components, \
    random_braid

POOL_SEED = 20031
CANDIDATES = 24
KEEP = 3
RUNS = 2
FINALISTS = 6
REFINE_RUNS = 3
TOLERANCE = 0.04
RSS_BAND = 0.25


def ladder_items(strands: int, word, path: str):
    if strands == 3:
        return [{"id": which, "argv": ["polys", path, "--which", which]}
                for which in ("conway", "homfly")]
    colors = ",".join(str(c) for c in range(1, components(strands, word)[1] + 1))
    return [{"id": "omega", "argv": ["polys", path, "--which", "omega", "--colors", colors]}]


def measure(strands: int, word, path: str, runs: int = RUNS):
    """(smallest total command time over `runs` runs, largest peak RSS in
    MiB, outputs of the last run)."""
    with open(path, "w") as fh:
        fh.write(braid_text(strands, word))
    best = None
    rss = 0.0
    for _ in range(runs):
        results = [run_item(item, time.perf_counter() + 170)
                   for item in ladder_items(strands, word, path)]
        for r in results:
            if "error" in r or r["exit"] != 0:
                raise SystemExit(f"{word}: {r.get('error') or r['exit']}")
        total = sum(r["cmd_s"] for r in results)
        best = total if best is None else min(best, total)
        rss = max([rss] + [r["peak_rss_kib"] / 1024 for r in results])
    return best, rss, [r["stdout"].strip() for r in results]


def targets(rows):
    """Lowest decile of command time and of peak RSS over `rows`."""
    return (statistics.quantiles([r["seconds"] for r in rows], n=10)[0],
            statistics.quantiles([r["rss_mib"] for r in rows], n=10)[0])


def distance(seconds: float, rss: float, target) -> float:
    return max(abs(seconds / target[0] - 1), abs(rss / target[1] - 1))


def refine(strands: int, key: str, rows, path: str) -> dict:
    """The pool entry of one size: the anchor word and the finalists that
    agree with it within TOLERANCE (see the module docstring)."""
    target = targets(rows)
    ranked = sorted(rows, key=lambda r: (distance(r["seconds"], r["rss_mib"], target),
                                         r["word"]))
    finalists = []
    for row in ranked[:FINALISTS]:
        cost, rss, _ = measure(strands, row["word"], path, REFINE_RUNS)
        finalists.append({**row, "refined_seconds": round(min(cost, row["seconds"]), 3),
                          "refined_rss_mib": round(max(rss, row["rss_mib"]), 1)})
        print(f"{key} refine: {finalists[-1]['refined_seconds']:.3f} s "
              f"{finalists[-1]['refined_rss_mib']:.1f} MiB {row['word']}",
              file=sys.stderr, flush=True)

    def refined(r, to):
        return (distance(r["refined_seconds"], r["refined_rss_mib"], to), r["word"])

    typical = [r for r in finalists
               if abs(r["refined_rss_mib"] / target[1] - 1) <= RSS_BAND] or finalists
    anchor = min(typical, key=lambda r: (r["refined_seconds"], r["word"]))
    own = (anchor["refined_seconds"], anchor["refined_rss_mib"])
    mates = sorted((r for r in finalists
                    if r is not anchor and refined(r, own)[0] <= TOLERANCE),
                   key=lambda r: refined(r, own))
    return {"strands": strands, "target_seconds": target[0], "target_rss_mib": target[1],
            "words": [anchor] + mates[:KEEP - 1], "finalists": finalists,
            "candidates": rows}


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(here, "pool.json"))
    ap.add_argument("--refine", action="store_true",
                    help="re-run only the second stage on the candidates stored in --out")
    args = ap.parse_args()
    scratch = os.path.join(OUT, "pool-inputs")
    os.makedirs(scratch, exist_ok=True)
    stored = {}
    if args.refine:
        with open(args.out) as fh:
            stored = json.load(fh)["pool"]

    pool = {}
    for strands, lengths in ((3, THREE_BRAID_LENGTHS), (4, FOUR_BRAID_LENGTHS)):
        for length in lengths:
            key = f"b{strands}-{length}"
            path = os.path.join(scratch, f"{key}.braid")
            rows = stored[key]["candidates"] if args.refine else []
            rng = random.Random(f"pool:{POOL_SEED}:{strands}:{length}")
            while len(rows) < CANDIDATES:
                word = random_braid(rng, strands, length)
                cost, rss, outputs = measure(strands, word, path)
                if strands == 4 and outputs == ["0"]:
                    continue
                rows.append({"word": word, "components": components(strands, word)[1],
                             "seconds": round(cost, 3), "rss_mib": round(rss, 1)})
                print(f"{key}: {cost:.3f} s {rss:.1f} MiB {word}", file=sys.stderr, flush=True)
            pool[key] = refine(strands, key, rows, path)
    with open(args.out, "w") as fh:
        json.dump({"pool_seed": POOL_SEED, "candidates": CANDIDATES, "runs": RUNS,
                   "finalists": FINALISTS, "refine_runs": REFINE_RUNS,
                   "tolerance": TOLERANCE, "rss_band": RSS_BAND, "pool": pool}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
