"""Bundled corpus of small links and singular fixtures with frozen
expected values; every value carries a provenance note and is re-derivable
by the pipeline."""

from __future__ import annotations

import json
import os
from typing import NamedTuple

from .diagram import LinkDiagram, parse_pd, parse_singular

DATA_DIR = os.path.join(os.path.dirname(__file__), "corpus_data")


class CorpusEntry(NamedTuple):
    name: str
    path: str
    singular: bool
    diagram: object  # LinkDiagram or SingularLink
    expected: dict  # key -> {"value": str, "provenance": str}

    @property
    def link(self) -> LinkDiagram:
        return self.diagram.base if self.singular else self.diagram


def load_corpus(path: str | None = None):
    """Load corpus entries from a directory containing expected.json."""
    root = path or DATA_DIR
    manifest_path = os.path.join(root, "expected.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if manifest.get("schema") != "linkinv-corpus-1":
        raise ValueError(f"unsupported corpus schema in {manifest_path}")
    entries = []
    for item in manifest["entries"]:
        file_path = os.path.join(root, item["file"])
        with open(file_path) as fh:
            text = fh.read()
        if item.get("singular"):
            diagram: object = parse_singular(text)
        else:
            diagram = parse_pd(text)
        entries.append(CorpusEntry(
            name=item["name"],
            path=file_path,
            singular=bool(item.get("singular")),
            diagram=diagram,
            expected=item.get("expected", {}),
        ))
    return entries

