"""The benchmark's traced run rebinds the functions named in
`perfbench/layers.py`, reads `sign_provenance` off every potential
function and counts skein nodes through `perfbench/child.py`; a rename or
a signature change in the package would break it silently.  The modules
are compiled from their source text, so nothing is written next to them."""

import importlib
import os
import types

import pytest

import linkinv
from linkinv import cli, skein
from linkinv.alexander import potential_function
from linkinv.diagram import BraidWord, braid_closure, far_ends

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def compiled(name):
    path = os.path.join(PERFBENCH, f"{name}.py")
    module = types.ModuleType(f"perfbench_{name}")
    with open(path) as fh:
        exec(compile(fh.read(), path, "exec"), vars(module))
    return module


@pytest.fixture(scope="module")
def layers():
    return compiled("layers")


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


def test_recorder_times_the_state_sum_determinant(layers):
    """The traced run wraps `alexander.fox_determinant` by rebinding that
    name in every module holding it, so the state sum must call the kernel
    through a module-level name, with the matrix dimension second."""
    d = braid_closure(BraidWord(4, [1, -2, 3, 1, -2, 3]), colors=(1, 2))
    rows, _ = skein._state_matrix(d, d.colors, ("x1", "x2"), 0, far_ends(d.crossings)[1])
    recorder = layers.Recorder()
    recorder.install()
    try:
        skein.state_sum(d, d.colors)
    finally:
        recorder.uninstall()
    assert recorder.stats["alexander.fox_determinant"][0] == 1
    assert recorder.fox_max_dim == len(rows) == len(d.crossings)


@pytest.mark.parametrize("which,nodes", [("conway", {"skein.conway.nodes": 1}),
                                         ("homfly", {"skein.homfly.nodes": 0}),
                                         ("kauffman", {"skein.dubrovnik.nodes": 0})])
def test_child_counts_skein_nodes(which, nodes):
    # HOMFLY of a 3-strand closure is a Hecke trace and its Kauffman
    # polynomial a sum in the BMW algebra, and neither fills a memo
    spec = {"strands": 3, "word": [1, -2, 1, -2], "which": which}
    assert compiled("child").skein_nodes(linkinv, spec) == nodes


@pytest.mark.parametrize("which,nodes", [("homfly", {"skein.homfly.nodes": 4}),
                                         ("kauffman", {"skein.dubrovnik.nodes": 5})])
def test_child_counts_descent_nodes(which, nodes):
    # a 6-strand closure is past HECKE_STRANDS and takes the descent, which
    # fills the memo
    spec = {"strands": 6, "word": [1, -2, 1, -2, 5], "which": which}
    assert compiled("child").skein_nodes(linkinv, spec) == nodes


@pytest.mark.parametrize("which,layer", [("conway", "skein.conway"), ("homfly", "skein.homfly"),
                                         ("omega", "alexander.potential_function")])
def test_traced_polys_records_its_engine(layers, which, layer, tmp_path, capsys):
    # `cli.POLYS` looks its engines up when called, so the rebinding sees them
    path = tmp_path / "b3.braid"
    path.write_text("braid(3): 1 -2 1 -2 1\n")
    recorder = layers.Recorder()
    recorder.install()
    try:
        assert cli.main(["polys", str(path), "--which", which]) == 0
    finally:
        recorder.uninstall()
    assert recorder.stats[layer][0] >= 1
    assert capsys.readouterr().out
