import contextlib
import io
import json
import os
import random
import shutil
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkinv.cli import main
from linkinv.corpus import DATA_DIR, load_corpus
from linkinv.diagram import BraidWord, braid_closure, parse_pd
from linkinv.skein import homfly

HOPF = os.path.join(DATA_DIR, "hopf-plus.pd")
BORROMEAN = os.path.join(DATA_DIR, "borromean.pd")
TREFOIL = os.path.join(DATA_DIR, "trefoil-right.pd")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariants_hopf(capsys):
    code, out, _ = run(capsys, "invariants", HOPF, "--cap", "8", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["conway"] == "z"
    assert data["omega"] == "1"
    assert data["reduced"] == "1"
    assert data["delta_table"]["0,0"] == "1"


def test_invariants_unlink_all_zero(capsys):
    path = os.path.join(DATA_DIR, "unlink2.pd")
    code, out, _ = run(capsys, "invariants", path, "--cap", "6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["conway"] == "0"
    assert data["omega"] == "0"
    assert all(v == "0" for v in data["c"])


def test_invariants_borromean(capsys):
    code, out, _ = run(capsys, "invariants", BORROMEAN, "--cap", "6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["gamma"] == "1"
    omega = data["omega"]
    assert "x1*x2*x3" in omega


def test_polys_conway(capsys):
    code, out, _ = run(capsys, "polys", HOPF, "--which", "conway")
    assert code == 0
    assert out.strip() == "z"


def test_polys_homfly_matches_library(capsys):
    from linkinv.skein import homfly
    from linkinv.diagram import parse_pd
    code, out, _ = run(capsys, "polys", TREFOIL, "--which", "homfly")
    assert code == 0
    d = parse_pd(open(TREFOIL).read())
    assert out.strip() == homfly(d).render()


def test_polys_nbl(capsys):
    code, out, _ = run(capsys, "polys", BORROMEAN, "--which", "nbl")
    assert code == 0
    assert out.strip() == "z1*z2*z3"


def test_decompose_borromean(capsys):
    code, out, _ = run(capsys, "decompose", BORROMEAN, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["parts"]["{}"] == "1/2*z1*z2*z3"


def test_braid_input(tmp_path, capsys):
    path = tmp_path / "braid.txt"
    path.write_text("braid(2): 1 1 1\n")
    code, out, _ = run(capsys, "polys", str(path), "--which", "conway")
    assert code == 0
    assert out.strip() == "1 + z^2"


def run_stdin(text, *argv):
    """main(argv) with `text` on stdin, for properties, which cannot take
    the function-scoped capsys and tmp_path fixtures."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.pd"
    path.write_text("X[1,2,3]\ncomponents: [[1]]\n")
    code, _, err = run(capsys, "invariants", str(path))
    assert code == 2
    assert "error" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "invariants", "/nonexistent.pd")
    assert code == 2


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "polys", BORROMEAN, "--which", "homfly", "--budget", "1")
    assert code == 3
    assert "budget" in err


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemma41", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0
    assert data["total"] > 0


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nonsense"])


def test_verify_corrupted_corpus(tmp_path, capsys):
    shutil.copytree(DATA_DIR, tmp_path / "corpus", dirs_exist_ok=True)
    manifest = json.load(open(tmp_path / "corpus" / "expected.json"))
    entry = next(e for e in manifest["entries"] if e["name"] == "hopf-plus")
    entry["expected"]["conway"]["value"] = "2*z"
    json.dump(manifest, open(tmp_path / "corpus" / "expected.json", "w"))
    code, out, _ = run(capsys, "verify", "--suite", "corpus-values",
                       "--corpus", str(tmp_path / "corpus"))
    assert code == 1
    assert "hopf-plus.conway" in out
    assert "FAIL" in out


def test_corpus_loads_and_round_trips():
    entries = load_corpus()
    assert len(entries) >= 20
    names = {e.name for e in entries}
    assert {"unknot", "hopf-plus", "whitehead", "borromean", "chain4",
            "threaded-doubled-circle"} <= names
    for e in entries:
        assert e.expected is not None
        link = e.link
        assert link.m >= 1
        assert len(link.crossings) <= 16


@pytest.mark.parametrize("budget", ["1", "0"])
def test_budget_applies_to_invariants_too(capsys, budget):
    # the report runs no skein engine, so the budget leaves it alone, while
    # the skein engines still stop at it
    want = run(capsys, "invariants", BORROMEAN)
    assert run(capsys, "invariants", BORROMEAN, "--budget", budget) == want
    code, _, err = run(capsys, "polys", BORROMEAN, "--which", "kauffman", "--budget", budget)
    assert code == 3
    assert "dubrovnik skein node budget" in err


@pytest.mark.parametrize("text", [
    "braid(3): 1 1 2 -1 2 2 2\n",  # linking numbers pin the sign
    None,  # Whitehead: linking numbers vanish, the state-determinant Conway pins it
])
def test_omega_spends_no_skein_budget(tmp_path, capsys, text):
    path = os.path.join(DATA_DIR, "whitehead.pd")
    if text:
        path = tmp_path / "link.braid"
        path.write_text(text)
    command = ["polys", str(path), "--which", "omega"]
    want = run(capsys, *command)
    assert want[0] == 0
    assert run(capsys, *command, "--budget", "0") == want


@pytest.mark.parametrize("order", [("plain", "budget"), ("budget", "plain")])
def test_budget_holds_for_one_command(capsys, order):
    # each command opens its own skein scope: no call before it answers for
    # it, and its budget ends with it
    with open(BORROMEAN) as fh:
        value = homfly(parse_pd(fh.read())).render()
    want = {"plain": ((), (0, value + "\n", "")),
            "budget": (("--budget", "1"),
                       (3, "", "error: homfly skein node budget of 1 exceeded\n"))}
    for name in order:
        extra, result = want[name]
        assert run(capsys, "polys", BORROMEAN, "--which", "homfly", *extra) == result, name


def test_budget_reaches_the_suites(capsys):
    # the suites' own scope keeps the command's budget
    assert run(capsys, "verify", "--suite", "skein-relations", "--json", "--budget", "1") == \
        (3, "", "error: homfly skein node budget of 1 exceeded\n")


EVERY_COMMAND = [
    ["invariants", HOPF], ["polys", HOPF, "--which", "conway"],
    ["decompose", HOPF], ["verify", "--suite", "lemma41"]]


@pytest.mark.parametrize("command", EVERY_COMMAND)
def test_negative_budget_is_input_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--budget", "-5"])
    assert exc.value.code == 2
    assert "budget must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", EVERY_COMMAND)
def test_negative_cap_is_input_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--cap", "-1"])
    assert exc.value.code == 2
    assert "argument --cap" in capsys.readouterr().err


HOPF_CROSSINGS = "X[1,3,2,4] X[3,1,4,2]\n"
LONG = "q" * 300


MALFORMED = {
    "components-int": HOPF_CROSSINGS + "components: 5\n",
    "components-flat": HOPF_CROSSINGS + "components: [1]\n",
    "components-float": HOPF_CROSSINGS + "components: [[1,2],[3,4.0]]\n",
    "colors-int": HOPF_CROSSINGS + "components: [[1,2],[3,4]]\ncolors: 5\n",
    "colors-nested": HOPF_CROSSINGS + "components: [[1,2],[3,4]]\ncolors: [[1]]\n",
    "colors-float": HOPF_CROSSINGS + "components: [[1,2],[3,4]]\ncolors: [1.5,2]\n",
    "overin-int": HOPF_CROSSINGS + "components: [[1,2],[3,4]]\noverin: 5\n",
    "long-block": HOPF_CROSSINGS + "components: [[1,2],[3,4]]\ncolors: [" + LONG + "]\n",
    "long-token": HOPF_CROSSINGS + LONG + "\ncomponents: [[1,2],[3,4]]\n",
    "long-arc": "X[1,3,2," + LONG + "]\ncomponents: [[1,2],[3,4]]\n",
    "long-braid-letter": "braid(2): 1 " + LONG + "\n",
    "deep-nesting": HOPF_CROSSINGS + "components: [[1,2],[3,4]]\ncolors: " + "-" * 5000 + "1\n",
    "parser-overflow": HOPF_CROSSINGS + "components: " + "-" * 100000 + "1\n",
    "stray-free-loop": "X[1,3,2,4] X[3,1,4,2] O[9] O[9]\ncomponents: [[1,2],[3,4]]\n",
    "repeated-free-loop": "O[1] O[1]\ncomponents: [[1]]\n",
    "components-empty": "components: []\n",
    "components-empty-crossings": HOPF_CROSSINGS + "components: []\n",
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_exits_2_with_short_message(tmp_path, capsys, text):
    path = tmp_path / "bad.pd"
    path.write_text(text)
    code, out, err = run(capsys, "invariants", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err) < 160


def test_empty_components_block_is_named_as_the_input_error(tmp_path, capsys):
    path = tmp_path / "empty.pd"
    path.write_text("components: []\n")
    code, _, err = run(capsys, "invariants", str(path))
    assert (code, err) == (2, "error: the diagram has no component\n")


def test_recursion_deeper_than_the_interpreter_exits_3(tmp_path, capsys):
    # the README's seeded 400-crossing 4-braid: with every curl and bigon
    # reduced its Dubrovnik descent still has about 150 nodes pending when
    # it stops at its node budget of 500, on an explicit stack
    rng = random.Random(1)
    word = [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(400)]
    path = tmp_path / "b4-400.braid"
    path.write_text("braid(4): " + " ".join(map(str, word)) + "\n")
    code, out, err = run(capsys, "polys", str(path), "--which", "kauffman", "--budget", "500")
    assert (code, out) == (3, "")
    assert err == "error: dubrovnik skein node budget of 500 exceeded\n"


MUTATIONS = ("drop-arc", "arc-thrice", "non-integer", "unbalanced")


def malformed(text, mutation, rng):
    """A valid PD file made invalid at one random crossing record: one arc
    dropped, an arc that two other slots hold put in a third, a label that
    is no integer, or one closing bracket (of the record or of the
    components block) left out."""
    first, components, rest = text.split("\n", 2)
    tokens = first.split(" ")
    i = rng.choice([k for k, tok in enumerate(tokens) if tok.startswith("X[")])
    arcs = tokens[i][2:-1].split(",")
    s = rng.randrange(4)
    close = "]"
    if mutation == "drop-arc":
        del arcs[s]
    elif mutation == "arc-thrice":
        labels = {a for tok in tokens if tok.startswith("X[") for a in tok[2:-1].split(",")}
        arcs[s] = rng.choice(sorted(labels - {arcs[s]}))
    elif mutation == "non-integer":
        arcs[s] = rng.choice(("a", "1.5", "", "0x", "2e"))
    elif rng.random() < 0.5:
        components = components[:-1]
    else:
        close = ""
    tokens[i] = "X[" + ",".join(arcs) + close
    return "\n".join((" ".join(tokens), components, rest))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
           st.just(n), st.lists(st.integers(1, n - 1).flatmap(lambda g: st.sampled_from((g, -g))),
                                min_size=1, max_size=10))),
       st.sampled_from(MUTATIONS), st.randoms(use_true_random=False))
def test_generated_malformed_pd_exits_2_with_short_message(sw, mutation, rng):
    text = braid_closure(BraidWord(*sw)).render_pd()
    assert run_stdin(text, "polys", "-", "--which", "conway")[0] == 0
    code, out, err = run_stdin(malformed(text, mutation, rng), "polys", "-", "--which", "conway")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 160


@pytest.mark.parametrize("which,engine", [("kauffman", "dubrovnik"), ("homfly", "homfly")])
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 4), st.integers(200, 400), st.randoms(use_true_random=False))
def test_deep_braids_under_a_small_budget_exit_0_or_3(which, engine, n, length, rng):
    word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]
    text = f"braid({n}): " + " ".join(map(str, word)) + "\n"
    code, out, err = run_stdin(text, "polys", "-", "--which", which, "--budget", "50")
    assert code in (0, 3)
    if code == 3:
        assert (out, err) == ("", f"error: {engine} skein node budget of 50 exceeded\n")
    else:
        assert err == ""
