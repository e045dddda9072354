"""linkinv benchmark: run the CLI the way users run it and check its output.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/` and
`perfbench/`).  Every item is one `linkinv` command in a fresh child
process, one child at a time, so each starts with cold caches.  A run
repeats whole passes over the workload's items while the next pass still
fits in S seconds (always at least one pass).  Times are reported in
reference seconds: a command's wall time times CAL_REF_S over the mean
time of a fixed probe job the same child ran before, during and after
the command, which takes out the shared host's swings in speed (see
README.md).

With `--trace 0` the last line of standard output is one JSON object with
the end-to-end metrics; with `--trace 1` the run makes one untraced pass
and one traced pass and reports the per-layer metrics instead.  Exit
status is 0 when the run completed (failed items are counted in the
result); without the program's sources the run prints no result and
exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import Gate, corpus_expected  # noqa: E402
from workloads import WORKLOADS, build_items  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(SRC, "linkinv", "corpus_data")
OUT = os.path.join(ROOT, ".perfbench-out")
CAL_REF_S = 0.0025  # a probe's time (child.probe) on a 2-core x86-64 host at full speed
RUN_LIMIT_S = 170  # every child is stopped by then, so a run ends within 180 s

END_TO_END = {
    "pass_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

_LAYER_TIMES = (
    "diagram.parse.s", "diagram.surgery.s", "algebra.laurent_mul.s",
    "algebra.series_mul.s", "algebra.substitute_series.s", "skein.conway.s",
    "skein.homfly.s", "skein.dubrovnik.s", "alexander.alexander_poly.s",
    "alexander.fox_determinant.s", "alexander.potential_function.self_s",
    "transforms.potential_series.s", "transforms.decompose.s",
    "transforms.quotients.s", "transforms.exp_expand.s",
    "invariants.two_color_tables.s", "invariants.build_report.self_s",
    "finitetype.extend.s", "cli.main.self_s",
)
_LAYER_COUNTS = (
    "diagram.surgery.calls", "algebra.laurent_mul.calls", "algebra.series_mul.calls",
    "algebra.substitute_series.calls", "skein.conway.calls", "skein.homfly.calls",
    "skein.dubrovnik.calls", "skein.conway.nodes", "skein.homfly.nodes",
    "skein.dubrovnik.nodes", "alexander.alexander_poly.calls",
    "alexander.fox_determinant.max_dim", "alexander.potential_function.calls",
    "alexander.sign_pin.via-nabla", "alexander.sign_pin.via-sublink",
    "alexander.sign_pin.ambiguous", "transforms.potential_series.calls",
    "invariants.two_color_tables.calls", "finitetype.extend.calls",
)
PER_LAYER = {**{name: "s" for name in _LAYER_TIMES},
             **{name: "count" for name in _LAYER_COUNTS},
             "trace.overhead_ratio": "ratio"}


def load_json(name: str):
    with open(os.path.join(HERE, name)) as fh:
        return json.load(fh)


def environment() -> dict:
    env = {"python": platform.python_version(), "nproc": os.cpu_count()}
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        try:
            env["git_sha"] = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    env.setdefault("git_sha", "unknown")
    return env


def run_item(item, deadline: float, trace: bool = False, spans_dir: str | None = None) -> dict:
    """Run one item in a fresh child; the child's own report plus `error`."""
    job = {"src": SRC, "argv": item["argv"], "item": item["id"]}
    if trace:
        job["trace"] = True
        if spans_dir:
            safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in item["id"])
            job["spans"] = os.path.join(spans_dir, f"{safe}.jsonl")
        if "braid" in item:
            which = item["argv"][item["argv"].index("--which") + 1]
            job["nodes"] = {"strands": item["braid"]["strands"], "word": item["braid"]["word"],
                            "which": "conway" if which == "omega" else which}
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)],
                              capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"child exited {proc.returncode}: {tail[0][:200]}"}
    return json.loads(lines[-1])


def run_pass(items, gate: Gate, deadline: float, trace=False, spans_dir=None):
    results = [run_item(item, deadline, trace, spans_dir) for item in items]
    return results, gate.check_pass(items, results)


def reference_seconds(r: dict, key: str) -> float:
    """`r[key]` scaled to a host on which the probe job, timed around and
    during the command in the same child, takes CAL_REF_S."""
    return r[key] * CAL_REF_S / r["cal_s"]


def timed_run(items, gate, seconds: float, deadline: float):
    """Whole passes while the next one still fits in `seconds`.  The shared
    host's speed swings by up to a factor of two over seconds to minutes,
    so every time is taken in reference seconds, and each item counts with
    the median of its times over the run's passes."""
    start = time.perf_counter()
    passes = []
    while True:
        began = time.perf_counter()
        passes.append(run_pass(items, gate, deadline))
        took = time.perf_counter() - began
        if time.perf_counter() + took > min(start + seconds, deadline):
            break
    scaled: dict = {}
    raw: dict = {}
    for results, _ in passes:
        for item, r in zip(items, results):
            if "cmd_s" in r:
                scaled.setdefault(item["id"], []).append(reference_seconds(r, "cmd_s"))
                raw.setdefault(item["id"], []).append(r["cmd_s"])
    times = [statistics.median(v) for v in scaled.values()] or [0.0]
    samples = [r for results, _ in passes for r in results if "cmd_s" in r]
    metrics = {
        "pass_s": sum(times),
        "setup_s": (statistics.median(reference_seconds(r, "setup_s") for r in samples)
                    if samples else 0.0),
        "peak_rss_mib": max((r["peak_rss_kib"] / 1024 for r in samples), default=0.0),
    }
    # Item percentiles rest on one timed repeat of 3 to 17 items: printed
    # for reading, too unsteady between runs to gate (see README.md).
    info = {"passes": len(passes), "items_timed": len(times), "setup_samples": len(samples),
            "item_p50_s": statistics.median(times),
            "item_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[-1]
                           if len(times) > 1 else times[0]),
            "wall_pass_s": sum(statistics.median(v) for v in raw.values()),
            "wall_setup_s": statistics.median(r["setup_s"] for r in samples) if samples else 0.0,
            "item_s": [[r.get("cmd_s") for r in results] for results, _ in passes],
            "cal_s": [[r.get("cal_s") for r in results] for results, _ in passes]}
    return passes, metrics, info


def traced_run(items, gate, deadline: float, spans_dir: str):
    """One untraced pass for the base time, then one traced pass."""
    base = run_pass(items, gate, deadline)
    traced = run_pass(items, gate, deadline, trace=True, spans_dir=spans_dir)
    base_s = sum(reference_seconds(r, "cmd_s") for r in base[0] if "cmd_s" in r)
    traced_s = sum(reference_seconds(r, "cmd_s") for r in traced[0] if "cmd_s" in r)
    metrics = dict.fromkeys(PER_LAYER, 0)
    for r in traced[0]:
        for name, value in r.get("layers", {}).items():
            if name == "alexander.fox_determinant.max_dim":
                metrics[name] = max(metrics[name], value)
            elif name in metrics:
                metrics[name] += value
    metrics["trace.overhead_ratio"] = traced_s / base_s if base_s else 0.0
    spans = sum(r.get("layers", {}).get("trace.spans", 0) for r in traced[0])
    return [base, traced], metrics, {"passes": 2, "spans": spans, "spans_dir": spans_dir}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="linkinv benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not os.path.exists(os.path.join(SRC, "linkinv", "cli.py")):
        print(f"error: no linkinv sources under {SRC}", file=sys.stderr)
        return 2
    gate = Gate(load_json("golden.json"), corpus_expected(CORPUS))
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    items = build_items(args.workload, args.seed, CORPUS, os.path.join(run_dir, "inputs"),
                        load_json("pool.json")["pool"])

    if args.trace:
        spans_dir = os.path.join(run_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        passes, values, info = traced_run(items, gate, deadline, spans_dir)
        units = PER_LAYER
    else:
        passes, values, info = timed_run(items, gate, args.seconds, deadline)
        units = END_TO_END

    attempted = sum(len(results) for results, _ in passes)
    failures = [(item["id"], why) for _, reasons in passes
                for item, why in zip(items, reasons) if why]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "environment": environment(),
        "inputs": [{"id": item["id"], **item.get("braid", {})} for item in items],
        "failures": failures, **info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
