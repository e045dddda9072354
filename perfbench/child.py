"""Run one benchmark item in a fresh interpreter.

Usage: python3 child.py JOB_JSON

JOB_JSON holds `src` (the directory that contains the `linkinv` package),
`argv` (the CLI arguments), and optionally `trace` (record layer spans) and
`nodes` (a braid and engine to count skein nodes on after the command),
with `item` and `spans` naming the item and the file its spans go to.
The child times its set-up (import + `load_corpus()`) apart from the
command, times a fixed probe job (`probe`) in a batch just before and
just after the command and every PROBE_EVERY_S during it, captures the
command's standard output, and prints one JSON object as its last line.
`cal_s` is the mean probe time over the two batches and the samples.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

PROBE_EVERY_S = 0.25
CALIBRATION_PROBES = 40
# fixed operands of the probe job: a 40-term and a 150-term polynomial in two variables
_PROBE_A = {(i, j): (i * 5 - j) % 7 - 3 for i in range(-4, 4) for j in range(5)}
_PROBE_B = {(i, j): (i * 7 + j * 3) % 11 - 5 for i in range(-12, 13) for j in range(6)}


def main() -> int:
    job = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    sys.path.insert(0, job["src"])
    import linkinv
    import linkinv.cli

    linkinv.load_corpus()
    setup_s = time.perf_counter() - t0

    recorder = None
    if job.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from layers import Recorder

        recorder = Recorder(job["item"])
        recorder.install()

    cal_before = calibrate()
    out = io.StringIO()
    probes = Probes()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(out), probes:
        code = linkinv.cli.main(job["argv"])
    cmd_s = time.perf_counter() - t1 - probes.spent
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cal_s = statistics.fmean([cal_before, *probes.samples, calibrate()])

    result = {"setup_s": setup_s, "cmd_s": cmd_s, "cal_s": cal_s, "exit": code,
              "stdout": out.getvalue(), "peak_rss_kib": peak_rss_kib}
    if recorder is not None:
        recorder.uninstall()
        result["layers"] = recorder.summary()
        if job.get("spans"):
            recorder.write_spans(job["spans"])
        if job.get("nodes"):
            result["layers"].update(skein_nodes(linkinv, job["nodes"]))
    print(json.dumps(result))
    return 0


def probe() -> float:
    """Seconds one run of a fixed pure-Python job takes right now (about
    3 ms at full speed).

    The job multiplies two polynomials held as dicts keyed by exponent
    tuples, the kind of work the program spends its time on, and uses no
    code of `linkinv`, so no change to the program moves it; only the
    speed the shared host gives this process does."""
    t0 = time.perf_counter()
    prod: dict = {}
    for (i1, j1), c1 in _PROBE_A.items():
        for (i2, j2), c2 in _PROBE_B.items():
            key = (i1 + i2, j1 + j2)
            prod[key] = prod.get(key, 0) + c1 * c2
    if not sorted((k, v) for k, v in prod.items() if v):
        raise AssertionError("probe job went wrong")
    return time.perf_counter() - t0


def calibrate() -> float:
    """Mean probe time over CALIBRATION_PROBES probes in a row."""
    return statistics.fmean(probe() for _ in range(CALIBRATION_PROBES))


class Probes:
    """Runs `probe` from a timer signal every PROBE_EVERY_S while a command
    runs, so the host's speed is sampled over the whole command and not
    only at its ends.  `spent` is the time the probes took, which the
    caller takes off the command's time.  Garbage collection is held off
    during a probe, so that no collection of the command's objects is
    counted as probe time."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(probe())
        finally:
            if collecting:
                gc.enable()
            self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def skein_nodes(linkinv, spec) -> dict:
    """Nodes the engine expands on a cold, caller-owned memo table."""
    text = f"braid({spec['strands']}): " + " ".join(map(str, spec["word"]))
    d = linkinv.braid_closure(linkinv.parse_braid(text))
    engine = {"conway": linkinv.conway, "homfly": linkinv.homfly,
              "kauffman": linkinv.kauffman_f}[spec["which"]]
    memo: dict = {}
    engine(d, memo=memo)
    name = "dubrovnik" if spec["which"] == "kauffman" else spec["which"]
    return {f"skein.{name}.nodes": len(memo)}


if __name__ == "__main__":
    sys.exit(main())
