"""Record `golden.json`: the program's outputs on every benchmark input.

Usage: python3 perfbench/golden.py

Runs each input once through the same child as the benchmark and stores
the corpus reports, the verify check counts, and the polynomial of every
T(2,n) word and every pool word (so every seed has golden values).  Run it
only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import os
import sys
import time

from checks import value_key
from run import CORPUS, HERE, OUT, load_json, run_item
from workloads import braid_text, build_items, components


def must(item, deadline):
    result = run_item(item, deadline)
    if "error" in result:
        sys.exit(f"{item['id']}: {result['error']}")
    return result


def main() -> int:
    deadline = time.perf_counter() + 3600
    pool = load_json("pool.json")["pool"]
    inputs = os.path.join(OUT, "golden-inputs")
    golden = {"reports": {}, "verify_totals": {}, "values": {}}
    for item in build_items("corpus-invariants", 0, CORPUS, inputs, pool):
        result = must(item, deadline)
        golden["reports"][item["check"]["name"]] = json.loads(result["stdout"])
    for item in build_items("verify-suites", 0, CORPUS, inputs, pool):
        data = json.loads(must(item, deadline)["stdout"])
        if data["failed"]:
            sys.exit(f"{item['id']}: {data['failed']} checks fail; not recording")
        golden["verify_totals"][item["check"]["suite"]] = data["total"]
    items = [i for i in build_items("skein-ladder", 0, CORPUS, inputs, pool)
             if i["check"]["kind"] == "golden"]
    for key, entry in sorted(pool.items()):
        strands = entry["strands"]
        for k, row in enumerate(entry["words"]):
            path = os.path.join(inputs, f"{key}-{k}.braid")
            os.makedirs(inputs, exist_ok=True)
            with open(path, "w") as fh:
                fh.write(braid_text(strands, row["word"]))
            braid = {"strands": strands, "word": row["word"]}
            if strands == 3:
                for which in ("conway", "homfly"):
                    items.append({"id": f"{which}:{key}-{k}", "braid": braid,
                                  "argv": ["polys", path, "--which", which]})
            else:
                m = components(strands, row["word"])[1]
                colors = ",".join(str(c) for c in range(1, m + 1))
                items.append({"id": f"omega:{key}-{k}", "braid": braid,
                              "argv": ["polys", path, "--which", "omega", "--colors", colors]})
    for item in items:
        result = must(item, deadline)
        golden["values"][value_key(item)] = result["stdout"].strip()
        print(f"{item['id']} {result['cmd_s']:.3f} s", file=sys.stderr, flush=True)
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
