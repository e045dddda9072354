"""Correctness gate: every item's output is checked against golden values
recorded from this program, and against identities that hold on any seed.

- `report`: schema `linkinv-report-1`, the corpus's frozen `conway`,
  `omega` and `reduced` values, and the whole golden report;
- `verify`: exit 0, no failed check, and the golden check count;
- `golden` (T(2,n) Kauffman), `skein`, `omega`: the golden value of the
  braid word when one is recorded (every pool word has one);
- `skein` pairs: `conway(d)` equals `homfly(d)` at x = 1, y = z;
- `omega`: bar-invariance and the degree parities of Lemma 4.1.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from workloads import linking_matrix

REPORT_SCHEMA = "linkinv-report-1"
VERIFY_SCHEMA = "linkinv-verify-1"
FROZEN_FIELDS = ("conway", "omega", "reduced")


def value_key(item) -> str:
    """Golden-value key of a braid item: engine, strand count, word, colors."""
    argv = item["argv"]
    which = argv[argv.index("--which") + 1]
    colors = argv[argv.index("--colors") + 1] if "--colors" in argv else ""
    b = item["braid"]
    return f"{which}|{b['strands']}|{' '.join(map(str, b['word']))}|{colors}"


def parse_poly(text: str) -> dict:
    """Parse a rendered Laurent polynomial into {monomial: coefficient}, a
    monomial being a sorted tuple of (variable, exponent)."""
    text = text.strip()
    if text == "0":
        return {}
    if not text.startswith("-"):
        text = "+ " + text
    else:
        text = "- " + text[1:]
    out = {}
    for sign, body in re.findall(r"([+-]) (\S+)", text):
        coeff = Fraction(1)
        mono = []
        for factor in body.split("*"):
            if re.fullmatch(r"\d+(/\d+)?", factor):
                coeff = Fraction(factor)
                continue
            var, _, exp = factor.partition("^")
            mono.append((var, int(exp) if exp else 1))
        key = tuple(sorted(mono))
        if key in out:
            raise ValueError(f"repeated monomial in {text!r}")
        out[key] = -coeff if sign == "-" else coeff
    return out


def split_omega(text: str):
    """(numerator, has_pole) of a rendered potential function."""
    m = re.fullmatch(r"\((.*)\)/\((x\d+) - \2\^-1\)", text.strip())
    if m:
        return parse_poly(m.group(1)), True
    return parse_poly(text), False


def conway_matches_homfly(conway_text: str, homfly_text: str) -> bool:
    want = parse_poly(conway_text)
    got: dict = {}
    for mono, coeff in parse_poly(homfly_text).items():
        y = dict(mono).get("y", 0)
        key = (("z", y),) if y else ()
        got[key] = got.get(key, 0) + coeff
    return {k: c for k, c in got.items() if c} == want


def omega_identities(text: str, braid) -> str:
    """Empty when the potential function of the braid closure (one color per
    component) is bar-invariant and has the Lemma 4.1 degree parities;
    otherwise the first violation."""
    num, pole = split_omega(text)
    bar = {}
    for mono, coeff in num.items():
        total = sum(e for _, e in mono)
        bar[tuple(sorted((v, -e) for v, e in mono))] = -coeff if total % 2 else coeff
    if bar != num:
        return "not bar-invariant"
    lk = linking_matrix(braid["strands"], braid["word"])
    m = len(lk)
    if pole or m < 2:
        return ""
    for mono in num:
        exps = dict(mono)
        if (sum(exps.values()) - m) % 2:
            return f"total degree parity fails at {mono}"
        for i in range(m):
            want = (1 + sum(lk[i])) % 2
            if (exps.get(f"x{i + 1}", 0) - want) % 2:
                return f"degree parity of x{i + 1} fails at {mono}"
    return ""


class Gate:
    def __init__(self, golden: dict, expected: dict):
        self.golden = golden
        self.expected = expected  # corpus name -> {field: value}

    def check(self, item, result) -> str:
        """Empty when the item's result is right, else why it is not."""
        if result.get("error"):
            return result["error"]
        kind = item["check"]["kind"]
        out = result["stdout"]
        if kind == "verify":
            data = json.loads(out)
            want = self.golden["verify_totals"].get(item["check"]["suite"])
            if data.get("schema") != VERIFY_SCHEMA:
                return "wrong schema"
            if result["exit"] != 0 or data["failed"] != 0:
                return f"{data['failed']} checks failed"
            if data["total"] != want:
                return f"{data['total']} checks, golden {want}"
            return ""
        if result["exit"] != 0:
            return f"exit {result['exit']}"
        if kind == "report":
            name = item["check"]["name"]
            data = json.loads(out)
            if data.get("schema") != REPORT_SCHEMA:
                return "wrong schema"
            for key, value in self.expected.get(name, {}).items():
                if key in FROZEN_FIELDS and data.get(key) != value:
                    return f"{key} is {data.get(key)}, corpus has {value}"
            if data != self.golden["reports"].get(name):
                return "report differs from golden"
            return ""
        value = out.strip()
        want = self.golden["values"].get(value_key(item))
        if want is not None and value != want:
            return f"value differs from golden: {value}"
        if want is None and kind == "golden":
            return "no golden value"
        if kind == "omega":
            return omega_identities(value, item["braid"])
        return ""

    def check_pass(self, items, results) -> list:
        """Failure reasons per item, with the conway/homfly pairing."""
        reasons = []
        for item, r in zip(items, results):
            try:
                reasons.append(self.check(item, r))
            except (ValueError, KeyError, TypeError) as exc:
                reasons.append(f"unreadable output: {exc!r:.200}")
        pairs: dict = {}
        for k, item in enumerate(items):
            check = item["check"]
            if check["kind"] == "skein":
                pairs.setdefault(check["pair"], {})[check["which"]] = k
        for ks in pairs.values():
            c, h = ks.get("conway"), ks.get("homfly")
            if c is None or h is None or reasons[c] or reasons[h]:
                continue
            if not conway_matches_homfly(results[c]["stdout"], results[h]["stdout"]):
                reasons[c] = reasons[h] = "conway differs from homfly at x=1, y=z"
        return reasons


def corpus_expected(corpus_dir: str) -> dict:
    with open(f"{corpus_dir}/expected.json") as fh:
        manifest = json.load(fh)
    return {e["name"]: {k: v["value"] for k, v in e.get("expected", {}).items()}
            for e in manifest["entries"]}
