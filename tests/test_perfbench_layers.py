"""The benchmark's traced run rebinds the functions named in
`perfbench/layers.py` and reads `sign_provenance` off every potential
function; a rename in the package would break it silently.  The module is
compiled from its source text, so nothing is written next to it."""

import importlib
import os
import types

import pytest

from linkinv.alexander import potential_function
from linkinv.diagram import BraidWord, braid_closure

LAYERS_PY = os.path.join(os.path.dirname(__file__), "..", "perfbench", "layers.py")


@pytest.fixture(scope="module")
def layers():
    module = types.ModuleType("perfbench_layers")
    with open(LAYERS_PY) as fh:
        exec(compile(fh.read(), LAYERS_PY, "exec"), vars(module))
    return module


def test_every_layer_target_resolves(layers):
    targets = [(layer, t) for layer, ts in layers.LAYERS.items() for t in ts]
    assert targets
    for layer, target in targets:
        owner = importlib.import_module(target[0])
        if len(target) == 3:
            assert target[2] in vars(getattr(owner, target[1])), (layer, target)
        else:
            assert callable(getattr(owner, target[1], None)), (layer, target)


def test_sign_provenance_is_a_counted_pin(layers):
    for word, colors in (([1, 1], (1, 2)), ([1, 1, 1], None),
                         ([1, -2, 1, -2, 1, -2], (1, 2, 3)),
                         ([1, -1, 3, 3, -1, 2, -1, 3, 1, -1, 3, -2, -1, -2], (1, 1, 1, 2))):
        d = braid_closure(BraidWord(max(map(abs, word)) + 1, word), colors=colors)
        assert potential_function(d).sign_provenance in layers.SIGN_PINS
