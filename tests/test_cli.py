import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkinv.cli import MAX_CAP, main, parse_args
from linkinv.corpus import DATA_DIR, load_corpus
from linkinv.diagram import BraidWord, braid_closure, parse_pd
from linkinv.skein import homfly
from linkinv.suites import SUITES

from helpers import build_parser

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


def test_braid_word_wrapped_over_lines_reads_whole(tmp_path, capsys):
    path = tmp_path / "braid.txt"
    runs = []
    for text in ("braid(2): 1 1\n1\n", "braid(2): 1 1 1\n"):
        path.write_text(text)
        runs.append(run(capsys, "polys", str(path), "--which", "homfly"))
    assert runs[0] == runs[1] and runs[0][0] == 0


def run_stdin(text, *argv):
    """main(argv) with `text` on stdin, for properties, which cannot take
    the function-scoped capsys and tmp_path fixtures; a usage error's exit
    code is returned as main's."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
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


def test_corpus_files_match_their_build_script():
    # the script rebuilds every corpus file in memory and writes nothing
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "build_corpus.py")
    done = subprocess.run([sys.executable, script, "--check"], capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


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
READS_CAP = ("invariants", "verify")  # polys and decompose take no --cap


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
    err = capsys.readouterr().err
    if command[0] in READS_CAP:
        assert "argument --cap: cap and budget must be >= 0, got -1" in err
    else:
        assert err.endswith(": error: unrecognized arguments: --cap -1\n")


@pytest.mark.parametrize("cap", [str(MAX_CAP + 1), "1" + "0" * 29])
@pytest.mark.parametrize("command", EVERY_COMMAND)
def test_cap_above_the_limit_is_input_error(capsys, command, cap):
    # the series work grows without limit in the cap, so a cap past the
    # limit is refused before any of it starts
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(command + ["--cap", cap])
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if command[0] in READS_CAP:
        assert f"argument --cap: cap must be <= {MAX_CAP}, got {cap}" in err
    else:
        assert err.endswith(f": error: unrecognized arguments: --cap {cap}\n")


@pytest.mark.parametrize("command", [c for c in EVERY_COMMAND if c[0] not in READS_CAP],
                         ids=lambda command: command[0])
def test_commands_that_read_no_cap_refuse_it(capsys, command):
    # polys and decompose compute no series, so a cap they would ignore is
    # a usage error, and neither usage line offers one
    with pytest.raises(SystemExit) as exc:
        main(command + ["--cap", "3"])
    assert exc.value.code == 2
    usage, line = capsys.readouterr().err.splitlines()
    assert "--cap" not in usage
    assert line == f"linkinv {command[0]}: error: unrecognized arguments: --cap 3"


GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "golden.json")


@pytest.mark.parametrize("name", [e.name for e in load_corpus() if not e.singular])
def test_invariants_prints_the_golden_report(capsys, name):
    # both forms of the report on every corpus link: --json is the recorded
    # object, and the plain form is its non-null fields but `schema`, in order
    with open(GOLDEN) as fh:
        want = json.load(fh)["reports"][name]
    path = os.path.join(DATA_DIR, f"{name}.pd")
    code, out, err = run(capsys, "invariants", path, "--json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report == want
    assert run(capsys, "invariants", path) == (0, "".join(
        f"{key}: {value}\n" for key, value in report.items()
        if value is not None and key != "schema"), "")


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
    "braid-letters-run-together": "braid(12): s1s1\n",
    "braid-letter-underscore": "braid(12): 1_0\n",
    "braid-non-ascii-digits": "braid(\u0663): \u0661 -\u0662\n",
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


def test_absurd_strand_count_exits_2_before_allocating(tmp_path, capsys):
    path = tmp_path / "wide.braid"
    path.write_text("braid(99999999999999999999): 1\n")
    code, out, err = run(capsys, "invariants", str(path))
    assert (code, out, err) == (2, "", "error: braid has more than 1000 strands\n")


@pytest.mark.parametrize("name,text,flags", [
    ("hopf.braid", "braid(2): 1 1\n", ["--colors", "1,99999999999"]),
    ("hopf.pd", "X[1,3,2,4] X[3,1,4,2]\ncomponents: [[1,2],[3,4]]\ncolors: [1,99999999999]\n",
     []),
], ids=["braid", "pd"])
def test_huge_colour_exits_2_without_counting_up_to_it(tmp_path, capsys, name, text, flags):
    # the onto check compares the distinct colours with 1..k, k their
    # count, so it costs nothing that grows with the colour itself
    path = tmp_path / name
    path.write_text(text)
    start = time.perf_counter()
    code, out, err = run(capsys, "polys", str(path), "--which", "omega", *flags)
    assert time.perf_counter() - start < 5
    assert (code, out, err) == (2, "", "error: coloring must be onto {1..n}\n")


@pytest.mark.parametrize("value", ["a,b", "2,1,", "1,,2"])
def test_colors_that_are_not_integers_exit_2_naming_the_option(tmp_path, capsys, value):
    path = tmp_path / "hopf.braid"
    path.write_text("braid(2): 1 1\n")
    code, out, err = run(capsys, "polys", str(path), "--which", "omega", "--colors", value)
    assert (code, out, err) == (
        2, "", f"error: --colors takes comma-separated integers, not {value!r}\n")


@pytest.mark.parametrize("name,text,flags", [
    ("hopf.braid", "braid(2): 1 1\n", ["--colors", "1,2,3"]),
    ("hopf.pd", HOPF_CROSSINGS + "components: [[1,2],[3,4]]\ncolors: [1,2,3]\n", []),
    ("hopf-flag.pd", HOPF_CROSSINGS + "components: [[1,2],[3,4]]\n", ["--colors", "1"]),
], ids=["braid", "pd", "pd-flag"])
def test_wrong_colour_count_is_one_message(tmp_path, capsys, name, text, flags):
    # a braid closure and a PD input are checked by the same validator
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "polys", str(path), "--which", "omega", *flags)
    assert (code, out, err) == (
        2, "", "error: coloring arity mismatch: one color per component required\n")


@pytest.mark.parametrize("command", [
    ["invariants"], ["invariants", "--json"], ["decompose"],
    *[["polys", "--which", which] for which in ("conway", "homfly", "kauffman", "omega", "nbl")],
], ids=lambda command: "-".join(a.lstrip("-") for a in command))
def test_empty_components_block_is_named_as_the_input_error(tmp_path, capsys, command):
    path = tmp_path / "empty.pd"
    path.write_text("components: []\n")
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert (code, out, err) == (2, "", "error: the diagram has no component\n")


def test_recursion_deeper_than_the_interpreter_exits_3(tmp_path, capsys):
    # the README's seeded 400-crossing 4-braid, given as PD so that it takes
    # the descent: with every curl and bigon reduced its Dubrovnik descent
    # still has about 150 nodes pending when it stops at its node budget of
    # 500, on an explicit stack
    rng = random.Random(1)
    word = [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(400)]
    path = tmp_path / "b4-400.pd"
    path.write_text(braid_closure(BraidWord(4, word)).render_pd())
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


def huge(low):
    """Integers from low up to 10^30 as text, integers of 41 to 4300 digits,
    longer than a message quotes but within what int() reads, and one of
    5000 digits, more than int() reads."""
    long = st.integers(41, 4300).flatmap(lambda k: st.integers(10 ** (k - 1), 10 ** k - 1))
    return st.one_of(st.integers(low, 10 ** 30).map(str), long.map(str), st.just("7" * 5000))


HOPF_PD = HOPF_CROSSINGS + "components: [[1,2],[3,4]]\n"
# (stdin, flags) of `invariants -`, each refused for one huge value
HOSTILE = st.one_of(
    huge(0).map(lambda v: (f"braid({v}): {v}\n", [])),
    st.tuples(st.sampled_from(("", "-")), huge(3)).map(
        lambda sv: (f"braid(3): 1 {''.join(sv)}\n", [])),
    huge(3).map(lambda v: ("braid(2): 1 1\n", ["--colors", f"1,{v}"])),
    huge(3).map(lambda v: (HOPF_PD + f"colors: [1,{v}]\n", [])),
    huge(3).map(lambda v: (HOPF_PD, ["--colors", f"{v},1"])),
    huge(MAX_CAP + 1).map(lambda v: ("braid(2): 1 1\n", ["--cap", v])),
    huge(1).map(lambda v: ("braid(2): 1 1\n", ["--budget", f"-{v}"])),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(HOSTILE)
def test_huge_values_exit_2_quickly_with_a_short_message(case):
    # strand counts, generator indices, colours and caps: none starts work
    # that grows with the value, and no message echoes much of it
    text, flags = case
    start = time.perf_counter()
    code, out, err = run_stdin(text, "invariants", "-", *flags)
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert all(len(line) < 160 for line in err.splitlines())


@pytest.mark.parametrize("which,engine", [("kauffman", "dubrovnik"), ("homfly", "homfly")])
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 4), st.integers(200, 400), st.randoms(use_true_random=False))
def test_deep_braids_under_a_small_budget_exit_0_or_3(which, engine, n, length, rng):
    word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]
    text = f"braid({n}): " + " ".join(map(str, word)) + "\n"
    # a closed braid's HOMFLY is a Hecke trace and its Dubrovnik polynomial
    # a sum in the BMW algebra, and neither spends a node; its PD text takes
    # the descent, which the budget stops
    code, out, err = run_stdin(text, "polys", "-", "--which", which, "--budget", "50")
    assert (code, err) == (0, "") and out
    text = braid_closure(BraidWord(n, word)).render_pd()
    code, out, err = run_stdin(text, "polys", "-", "--which", which, "--budget", "50")
    assert code in (0, 3)
    if code == 3:
        assert (out, err) == ("", f"error: {engine} skein node budget of 50 exceeded\n")
    else:
        assert err == ""


# -- the option table against the argparse parser it replaced ----------------

VALUES = {
    "--colors": ["1,2", "1", "-1,2", "-", ""],
    "--cap": ["0", "5", "12", "-1", "-5", "x", "", "1.5", " 7", "+3"],
    "--budget": ["0", "1", "1000000", "-5", "ten", ""],
    "--which": ["conway", "homfly", "kauffman", "omega", "nbl", "bogus", "Conway", ""],
    "--corpus": ["dir", "-", ""],
    "--suite": [*sorted(SUITES), "nonsense", ""],
}
# full names and prefixes, some of them ambiguous in one command or another
SPELLINGS = {"--colors": ["--colors", "--col", "--co"], "--cap": ["--cap", "--ca", "--c"],
             "--budget": ["--budget", "--b"], "--which": ["--which", "--w"],
             "--corpus": ["--corpus", "--cor"], "--suite": ["--suite", "--s"]}
FLAGS = ["--json", "--js", "--j", "--json=", "--json=yes"]
STRAYS = ["-", "-5", "extra", "--bogus", "--bogus=1", "-x", "-1,2", "-x y", "-h", "--he", "-h=x"]
COMMAND = st.sampled_from(["invariants", "polys", "decompose", "verify"] * 4
                          + ["bogus", "-", "--json", "-h", None])


def _option_tokens(option):
    spelled, value = st.sampled_from(SPELLINGS[option]), st.sampled_from(VALUES[option])
    return st.one_of(st.tuples(spelled, value).map(list),
                     st.tuples(spelled, value).map(lambda sv: ["=".join(sv)]),
                     spelled.map(lambda s: [s]))


PIECE = st.one_of(*map(_option_tokens, SPELLINGS),
                  *(st.sampled_from(tokens).map(lambda s: [s])
                    for tokens in (FLAGS, STRAYS, ["-", "hopf.pd"])))


def _argv(command, pieces, at, source):
    if source:  # an input among the pieces, so more commands parse
        pieces.insert(at, [source])
    return [command] * bool(command) + [token for piece in pieces for token in piece]


ARGV = st.builds(_argv, COMMAND, st.lists(PIECE, max_size=6), st.integers(0, 6),
                 st.sampled_from([None, "-", "hopf.pd"]))


def parsed(parse, argv):
    """("ok", the parsed fields), or (exit code, stdout, the error line)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return "ok", vars(parse(argv))
        except SystemExit as exc:
            lines = err.getvalue().splitlines()
            return exc.code, out.getvalue(), lines[-1] if lines else ""


def named(line):
    """The argument an argparse error line names, or its whole message."""
    message = line.split(": error: ", 1)[1]
    return message.split(": ")[0] if message.startswith("argument ") else message


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(ARGV)
def test_parser_matches_argparse_oracle(argv):
    want = parsed(lambda a: build_parser().parse_args(a), argv)
    got = parsed(parse_args, argv)
    if want[0] == "ok":
        assert got == want
    elif want[0] == 0:  # help
        assert got[0] == 0 and got[1].startswith("usage: linkinv")
    else:
        assert got[0] == want[0] == 2
        assert named(got[2]) == named(want[2])
        # the messages are argparse's, save the name of its type function
        assert got[2].split(": error: ")[1] == \
            want[2].split(": error: ")[1].replace("nonnegative_int", "int")


@pytest.mark.parametrize("argv,fields", [
    (["polys", "--which=omega", "-", "--which", "nbl", "--budget", "3", "--budget=4"],
     {"which": "nbl", "input": "-", "budget": 4}),
    (["decompose", "--js", "--bud", "7", "x.pd"], {"json": True, "budget": 7, "input": "x.pd"}),
    (["verify", "--suite", "lemma41", "--suite=congruences"], {"suite": "congruences"}),
    (["invariants", "--colors", "-1", "f"], {"colors": "-1", "input": "f"}),
])
def test_option_spellings(argv, fields):
    args = vars(parse_args(argv))
    assert {key: args[key] for key in fields} == fields


@pytest.mark.parametrize("argv,error", [
    ([], "linkinv: error: the following arguments are required: command"),
    (["polys", HOPF], "linkinv polys: error: the following arguments are required: --which"),
    (["invariants", HOPF, "extra"], "linkinv invariants: error: unrecognized arguments: extra"),
    (["verify", "--c", "1"],
     "linkinv verify: error: ambiguous option: --c could match --cap, --corpus"),
    (["invariants", HOPF, "--cap", "x"],
     "linkinv invariants: error: argument --cap: invalid int value: 'x'"),
])
def test_usage_errors_exit_2_after_a_usage_line(capsys, argv, error):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    usage, line = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: linkinv") and line == error


@pytest.mark.parametrize("argv,usage", [
    (["-h"], "usage: linkinv [-h] {invariants,polys,decompose,verify} ..."),
    (["polys", "--help"], "usage: linkinv polys [-h] [--colors COLORS] [--json] "
                          "[--budget BUDGET] --which {conway,homfly,kauffman,omega,nbl} input"),
    (["verify", "-h", "--bogus"], "usage: linkinv verify [-h] [--cap CAP]"),
])
def test_help_prints_usage_and_exits_0(capsys, argv, usage):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 0 and out.err == ""
    assert out.out.startswith(usage)


SRC_ENV = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                                     "..", "src")}


def test_importing_the_cli_loads_no_argument_parser():
    code = "import sys, linkinv.cli; print(sorted({'argparse', 'locale'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=SRC_ENV)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_start_up_loads_no_introspection_module():
    # dataclasses would bring in inspect, dis and tokenize; the probe leaves
    # out what the interpreter held before the import
    code = ("import sys; bare = set(sys.modules); import linkinv.cli; linkinv.load_corpus(); "
            "print(sorted({'dataclasses', 'inspect', 'dis', 'tokenize'} & (set(sys.modules) - bare)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=SRC_ENV)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_module_entry_point_reads_sys_argv():
    with open(HOPF) as fh:
        text = fh.read()
    done = subprocess.run([sys.executable, "-m", "linkinv.cli", "polys", "-", "--which", "conway"],
                          input=text, capture_output=True, text=True, timeout=60, env=SRC_ENV)
    assert (done.returncode, done.stdout, done.stderr) == (0, "z\n", "")
