"""Workload items: one `linkinv` command line each, built from the seed.

Every item runs in its own child process.  The corpus and verify workloads
have fixed inputs (the seed only shuffles their order); the two ladders
let the seed pick random braid words from the cost-matched pool in
`pool.json` and write them as braid files, so the program only ever sees
the generated inputs.  The T(2,n) words are fixed.
"""

from __future__ import annotations

import os
import random

CORPUS_LINKS = (
    "unknot", "unlink2", "unlink3", "hopf-plus", "hopf-minus", "trefoil-right",
    "trefoil-left", "figure-eight", "whitehead", "borromean", "chain2",
    "chain3", "chain4", "chain-3comp", "triangle", "hopf-sum-trefoil",
    "whitehead-sum-fig8",
)

SUITES = (
    "skein-relations", "lemma41", "decomposition-roundtrip",
    "starred-pl-isotopy", "congruences", "finite-type-evidence",
    "finite-type-witnesses", "corpus-values",
)

TORUS_N = (4, 5, 6, 7, 8)
THREE_BRAID_LENGTHS = (8, 12, 16, 20)
FOUR_BRAID_LENGTHS = (16, 20, 24)

WORKLOADS = ("corpus-invariants", "verify-suites", "skein-ladder", "potential-ladder")


def random_braid(rng: random.Random, strands: int, length: int):
    """A freely reduced word using every generator, so no letter cancels
    its neighbour and the closure never falls apart at an unused gap."""
    while True:
        word = []
        while len(word) < length:
            g = rng.randint(1, strands - 1) * rng.choice((1, -1))
            if word and word[-1] == -g:
                continue
            word.append(g)
        if {abs(g) for g in word} == set(range(1, strands)):
            return word


def components(strands: int, word):
    """Component index (in `linkinv`'s order) of each strand position.

    The closure lists components by their smallest arc, and the arcs of
    position p start at p + 1, so components are ordered by their smallest
    position."""
    perm = list(range(strands))
    for g in word:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    # perm[p] = strand that ends at position p; follow cycles of the closure
    where = {s: p for p, s in enumerate(perm)}
    comp = [-1] * strands
    m = 0
    for p in range(strands):
        if comp[p] >= 0:
            continue
        q = p
        while comp[q] < 0:
            comp[q] = m
            q = where[q]
        m += 1
    return comp, m


def linking_matrix(strands: int, word):
    """Linking numbers of the closure, components in `linkinv`'s order."""
    comp, m = components(strands, word)
    owner = list(range(strands))  # strand id at each position, ids are start positions
    twice = [[0] * m for _ in range(m)]
    for g in word:
        i = abs(g) - 1
        a, b = comp[owner[i]], comp[owner[i + 1]]
        if a != b:
            sign = 1 if g > 0 else -1
            twice[a][b] += sign
            twice[b][a] += sign
        owner[i], owner[i + 1] = owner[i + 1], owner[i]
    return [[v // 2 for v in row] for row in twice]


def braid_text(strands: int, word) -> str:
    return f"braid({strands}): " + " ".join(str(g) for g in word) + "\n"


def build_items(workload: str, seed: int, corpus_dir: str, input_dir: str, pool: dict):
    """Items of one pass: dicts with `id`, `argv` (CLI arguments) and
    `check` (what the correctness gate compares against).  Ladder words
    are drawn by the seed from `pool` (see pool.py)."""
    rng = random.Random(f"{workload}:{seed}")
    items = []
    if workload == "corpus-invariants":
        for name in CORPUS_LINKS:
            path = os.path.join(corpus_dir, f"{name}.pd")
            items.append({"id": f"invariants:{name}",
                          "argv": ["invariants", path, "--json"],
                          "check": {"kind": "report", "name": name}})
        rng.shuffle(items)
    elif workload == "verify-suites":
        for suite in SUITES:
            items.append({"id": f"verify:{suite}",
                          "argv": ["verify", "--suite", suite, "--json"],
                          "check": {"kind": "verify", "suite": suite}})
        rng.shuffle(items)
    elif workload == "skein-ladder":
        for n in TORUS_N:
            word = [1] * n
            path = _write(input_dir, f"torus-2-{n}.braid", braid_text(2, word))
            items.append({"id": f"kauffman:T(2,{n})",
                          "argv": ["polys", path, "--which", "kauffman"],
                          "check": {"kind": "golden"},
                          "braid": {"strands": 2, "word": word}})
        for length in THREE_BRAID_LENGTHS:
            word = rng.choice(pool[f"b3-{length}"]["words"])["word"]
            path = _write(input_dir, f"b3-{length}.braid", braid_text(3, word))
            for which in ("conway", "homfly"):
                items.append({"id": f"{which}:b3-{length}",
                              "argv": ["polys", path, "--which", which],
                              "check": {"kind": "skein", "which": which,
                                        "pair": f"b3-{length}"},
                              "braid": {"strands": 3, "word": word}})
    elif workload == "potential-ladder":
        for length in FOUR_BRAID_LENGTHS:
            word = rng.choice(pool[f"b4-{length}"]["words"])["word"]
            _, m = components(4, word)
            path = _write(input_dir, f"b4-{length}.braid", braid_text(4, word))
            colors = ",".join(str(c) for c in range(1, m + 1))
            items.append({"id": f"omega:b4-{length}",
                          "argv": ["polys", path, "--which", "omega", "--colors", colors],
                          "check": {"kind": "omega"},
                          "braid": {"strands": 4, "word": word, "components": m}})
    else:
        raise ValueError(f"unknown workload {workload!r}; choices: {', '.join(WORKLOADS)}")
    return items


def _write(directory: str, name: str, text: str) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path
