"""Self-test of the benchmark on a one-item slice of each workload.

Usage: python3 perfbench/selftest.py

For each workload it runs one cheap item untraced and traced and requires
it to pass the correctness gate, then corrupts the golden value the item
is checked against and requires the same output to count as failed.  It
also checks the seed-independent identities on corrupted outputs and that
`BENCHMARK.json` names exactly the metrics `run.py` prints.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import time

from checks import Gate, conway_matches_homfly, corpus_expected, omega_identities, value_key
from run import CORPUS, END_TO_END, OUT, PER_LAYER, ROOT, load_json, run_pass
from workloads import WORKLOADS, build_items

SLICE = {
    "corpus-invariants": "invariants:hopf-plus",
    "verify-suites": "verify:lemma41",
    "skein-ladder": "kauffman:T(2,4)",
    "potential-ladder": "omega:b4-16",
}


def corrupt(golden: dict, item) -> dict:
    bad = copy.deepcopy(golden)
    check = item["check"]
    if check["kind"] == "report":
        bad["reports"][check["name"]]["alpha"] = ["12345"]
    elif check["kind"] == "verify":
        bad["verify_totals"][check["suite"]] += 1
    else:
        bad["values"][value_key(item)] = "12345"
    return bad


def main() -> int:
    golden = load_json("golden.json")
    pool = load_json("pool.json")["pool"]
    expected = corpus_expected(CORPUS)
    gate = Gate(golden, expected)
    problems = []
    deadline = time.perf_counter() + 600
    inputs = os.path.join(OUT, "selftest-inputs")
    for workload in WORKLOADS:
        items = [i for i in build_items(workload, 0, CORPUS, inputs, pool)
                 if i["id"] == SLICE[workload]]
        results, reasons = run_pass(items, gate, deadline)
        if any(reasons):
            problems.append(f"{workload}: right output failed: {reasons}")
        traced, traced_reasons = run_pass(items, gate, deadline, trace=True)
        if any(traced_reasons) or not traced[0].get("layers", {}).get("cli.main.calls"):
            problems.append(f"{workload}: traced item failed or recorded no spans")
        bad_reasons = Gate(corrupt(golden, items[0]), expected).check_pass(items, results)
        if not all(bad_reasons):
            problems.append(f"{workload}: a wrong golden value was not detected")
        print(f"{workload}: {items[0]['id']} ok={not any(reasons)} "
              f"wrong-golden-detected={all(bad_reasons)}", flush=True)

    values = golden["values"]
    pairs = [(v, values["homfly" + k[len("conway"):]]) for k, v in values.items()
             if k.startswith("conway|")]
    if not all(conway_matches_homfly(c, h) for c, h in pairs):
        problems.append("conway/homfly pairing rejects a golden pair")
    if any(conway_matches_homfly(c, h) for (c, _), (other, h) in zip(pairs, pairs[1:])
           if c != other):
        problems.append("conway/homfly pairing accepts a wrong pair")
    hopf = {"strands": 2, "word": [1, 1]}
    if omega_identities("1", hopf):
        problems.append("omega identities reject the Hopf link")
    if not omega_identities("x1 + 1", hopf):
        problems.append("omega identities accept a non-symmetric value")

    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench):
        with open(bench) as fh:
            spec = json.load(fh)
        if {m["name"] for m in spec["end_to_end"]} != set(END_TO_END):
            problems.append("BENCHMARK.json end_to_end differs from run.py")
        if {m["name"] for m in spec["per_layer"]} != set(PER_LAYER):
            problems.append("BENCHMARK.json per_layer differs from run.py")
        if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
            problems.append("BENCHMARK.json workloads differ from workloads.py")

    for p in problems:
        print("FAIL:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
