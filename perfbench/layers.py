"""Layer spans for the traced run.

`Recorder.install()` wraps the public functions and operators listed in
LAYERS: it rebinds each name in every loaded `linkinv.*` module that holds
it, and each operator on its class.  Every call then records a span
(layer, start, end, parent span, item id) in memory.  The algebra kernel
is called millions of times per pass, so its calls are counted and timed
at the same boundary without keeping a span each.

For every layer the recorder keeps the number of calls, the inclusive time
(outermost calls only, so recursion is not counted twice) and the self
time (duration minus the time of the traced calls made inside it).
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# layer -> functions: (module, name) for functions, (module, class, attribute)
# for methods and operators
LAYERS = {
    "cli.main": [("linkinv.cli", "main")],
    "diagram.parse": [("linkinv.diagram", "parse_pd"), ("linkinv.diagram", "parse_braid"),
                      ("linkinv.diagram", "parse_singular")],
    "diagram.surgery": [("linkinv.diagram", "LinkDiagram", name) for name in (
        "switch", "smooth_oriented", "smooth_infinity", "delete_component",
        "connected_sum", "monochrome")],
    "algebra.laurent_mul": [("linkinv.algebra", "LaurentPolynomial", "__mul__"),
                            ("linkinv.algebra", "LaurentPolynomial", "__rmul__")],
    "algebra.series_mul": [("linkinv.algebra", "TruncatedSeries", "__mul__"),
                           ("linkinv.algebra", "TruncatedSeries", "__rmul__")],
    "algebra.substitute_series": [("linkinv.algebra", "substitute_series")],
    "skein.conway": [("linkinv.skein", "conway")],
    "skein.homfly": [("linkinv.skein", "homfly")],
    "skein.dubrovnik": [("linkinv.skein", "dubrovnik")],
    "alexander.alexander_poly": [("linkinv.alexander", "alexander_poly")],
    "alexander.fox_determinant": [("linkinv.alexander", "fox_determinant")],
    "alexander.potential_function": [("linkinv.alexander", "potential_function")],
    "transforms.potential_series": [("linkinv.transforms", "potential_series")],
    "transforms.decompose": [("linkinv.transforms", "decompose")],
    "transforms.quotients": [("linkinv.transforms", name) for name in (
        "conway_quotient", "potential_series_quotient", "reduced_quotient")],
    "transforms.exp_expand": [("linkinv.transforms", name) for name in (
        "exp_expand_homfly", "exp_expand_kauffman", "homfly_exp_quotient",
        "kauffman_exp_quotient")],
    "invariants.two_color_tables": [("linkinv.invariants", "two_color_tables")],
    "invariants.build_report": [("linkinv.invariants", "build_report")],
    "finitetype.extend": [("linkinv.finitetype", "extend")],
}

# counted at the boundary, no span kept per call
KERNEL = {"algebra.laurent_mul", "algebra.series_mul"}

SIGN_PINS = ("via-nabla", "via-sublink", "ambiguous")


class Recorder:
    def __init__(self, item: str = ""):
        self.item = item
        self.spans: list = []       # (layer, start, end, parent span index or -1, item)
        self.stats = {layer: [0, 0.0, 0.0] for layer in LAYERS}  # calls, inclusive, self
        self.depth = dict.fromkeys(LAYERS, 0)
        self.stack: list = []       # [child time, span index or -1] per active call
        self.open_span = -1         # index of the innermost kept span
        self.sign_pins = dict.fromkeys(SIGN_PINS, 0)
        self.fox_max_dim = 0
        self.saved: list = []       # (owner, attribute, original)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, layer: str, fn):
        stats = self.stats[layer]
        depth = self.depth
        stack = self.stack
        spans = self.spans
        keep = layer not in KERNEL
        on_return = {"alexander.potential_function": self._pin,
                     "alexander.fox_determinant": self._fox}.get(layer)

        def traced(*args, **kwargs):
            level = depth[layer]
            depth[layer] = level + 1
            frame = [0.0, -1]
            parent = self.open_span
            if keep:
                frame[1] = len(spans)
                spans.append(None)
                self.open_span = frame[1]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[layer] = level
                took = end - start
                stats[0] += 1
                if level == 0:
                    stats[1] += took
                stats[2] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if keep:
                    spans[frame[1]] = (layer, start, end, parent, self.item)
                    self.open_span = parent
            if on_return is not None:
                on_return(level, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _pin(self, level, args, result):
        if level == 0:
            self.sign_pins[result.sign_provenance] += 1

    def _fox(self, level, args, result):
        self.fox_max_dim = max(self.fox_max_dim, args[1])

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "linkinv" or name.startswith("linkinv.")]
        for layer, targets in LAYERS.items():
            for target in targets:
                owner = importlib.import_module(target[0])
                if len(target) == 3:
                    cls = getattr(owner, target[1])
                    original = cls.__dict__[target[2]]
                    self._rebind(cls, target[2], original, self.wrap(layer, original))
                    continue
                original = getattr(owner, target[1])
                wrapped = self.wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, attr, original, wrapped)

    def _rebind(self, owner, attr, original, wrapped):
        self.saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        out = {}
        for layer, (calls, inclusive, own) in self.stats.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.s"] = inclusive
            out[f"{layer}.self_s"] = own
        for pin, count in self.sign_pins.items():
            out[f"alexander.sign_pin.{pin}"] = count
        out["alexander.fox_determinant.max_dim"] = self.fox_max_dim
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for layer, start, end, parent, item in self.spans:
                fh.write(json.dumps([layer, start, end, parent, item]) + "\n")
