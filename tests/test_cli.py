import json
import os
import shutil

import pytest

from linkinv.cli import main
from linkinv.corpus import DATA_DIR, load_corpus

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
    from linkinv.skein import clear_memo
    clear_memo()  # the shared table would otherwise answer for free
    code, _, err = run(capsys, "polys", BORROMEAN, "--which", "conway", "--budget", "1")
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


def test_budget_applies_to_invariants_too(capsys):
    from linkinv.skein import clear_memo, set_default_budget
    clear_memo()
    try:
        code, _, err = run(capsys, "invariants", BORROMEAN, "--budget", "1")
        assert code == 3
    finally:
        set_default_budget(None)


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
