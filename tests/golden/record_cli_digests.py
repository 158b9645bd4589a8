"""Write the edge-case contexts and cli_digests.json: exit code and stdout sha256 per argv.

requirement.json and cost-model.json, which the fit and delta argvs read,
are committed beside this script.

Run from anywhere, only when outputs are meant to change:

    PYTHONPATH=src python tests/golden/record_cli_digests.py

tests/test_golden.py replays every argv of cli_digests.json through cli.main
and compares. Context paths in the argvs are relative to this directory.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONTEXTS = HERE / "contexts"
DIMENSIONS = ["semantic-property", "pragmatic-property", "semantic-affordance", "pragmatic-affordance", "combined"]
RENDERINGS = [
    ["lattice"],
    ["legend", "--format", "md"],
    ["legend", "--format", "csv"],
    ["dot", "--labels", "id-only"],
    ["dot", "--labels", "id+intent"],
    ["implications", "--format", "json"],
    ["implications", "--format", "text"],
]
KGS = [
    "Europeana", "Google Data Commons", "Bio2RDF", "British Museum ResearchSpace", "UniProt",
    "Wikidata", "EU ODP", "DBpedia", "LOV", "Nanopublications",
]


def _doc(objects, attributes, incidence, dimension="combined"):
    return {"dimension": dimension, "objects": objects, "attributes": attributes, "incidence": incidence}


def edge_contexts() -> dict[str, dict]:
    """File name -> JSON context document, each built without the package."""
    rng = random.Random(1)
    seeded_objects = [f"g{i:02d}" for i in range(40)]
    rng.shuffle(seeded_objects)  # declared out of sorted order
    seeded = [[int(rng.random() < 0.3) for _ in range(12)] for _ in range(40)]
    escapes_objects = ['say "hi"', "back\\slash", "pipe|bar", "bell\x07ring", "nul\x00byte", "café", "日本語", "😀", "---"]
    escapes_attributes = ['"', "\\", "|", "a, b", "c; d", "del\x7f", "ß", "→", "\x1b[31m"]
    escapes = [[int(rng.random() < 0.4) for _ in escapes_attributes] for _ in escapes_objects]
    return {
        "empty.json": _doc([], [], []),
        "no-objects.json": _doc([], ["m0", "m1", "m2"], []),
        "no-attributes.json": _doc(["g0", "g1", "g2"], [], [[], [], []]),
        "contranominal-8.json": _doc(
            [f"g{i}" for i in range(8)], [f"m{j}" for j in range(8)], [[int(i != j) for j in range(8)] for i in range(8)]
        ),
        "seeded-40x12.json": _doc(seeded_objects, [f"m{j}" for j in range(12)], seeded),
        "escapes.json": _doc(escapes_objects, escapes_attributes, escapes, "semantic-property"),
        # same-a and same-b hold the same column, g1 and g2 the same row
        "duplicates.json": _doc(
            ["g0", "g1", "g2", "g3", "g4"],
            ["same-a", "same-b", "none", "all", "m"],
            [[1, 1, 0, 1, 0], [0, 0, 0, 1, 1], [0, 0, 0, 1, 1], [1, 1, 0, 1, 1], [0, 0, 0, 1, 0]],
        ),
    }


def argvs() -> list[list[str]]:
    inputs = [["--corpus", "builtin", "--dimension", d] for d in DIMENSIONS]
    inputs += [["--context", f"contexts/{name}"] for name in edge_contexts()]
    out = [command + source for source in inputs for command in RENDERINGS]
    corpus = ["--corpus", "builtin"]
    require = ["--require", "requirement.json"]
    for i, kg in enumerate(KGS):
        out.append(["fit", *corpus, "--kg", kg, *require])
        out.append(["fit", *corpus, "--kg", kg, *require, "--cost-model", "cost-model.json"])
        out.append(["delta", *corpus, "--kg", kg, "--to-kg", KGS[(i + 1) % len(KGS)]])
        out.append(["delta", *corpus, "--kg", kg, *require])
    out += [["validate", *source] for source in inputs]
    out += [["corpus", "export", "--format", f, "--dimension", d] for d in DIMENSIONS for f in ("json", "cxt")]
    return out


def replay(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout sha256 of one in-process CLI call, run from this directory."""
    from kgcontinuum.cli import main

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def main() -> None:
    CONTEXTS.mkdir(exist_ok=True)
    for name, doc in edge_contexts().items():
        (CONTEXTS / name).write_text(json.dumps(doc, ensure_ascii=False) + "\n", encoding="utf-8")
    records = []
    for argv in argvs():
        code, digest = replay(argv)
        records.append({"argv": argv, "exit": code, "sha256": digest})
    (HERE / "cli_digests.json").write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(records)} argvs", file=sys.stderr)


if __name__ == "__main__":
    main()
