"""Seeded inputs, operations and output checks of the four benchmark workloads.

Each workload is a fixed list of cases built from the seed before timing.
``run`` is the timed operation on one case; ``fingerprint`` hashes its output
so repeats and the recorded default-seed digests can be compared; ``check``
runs the seed-independent gate and returns the case's counts.

The operations reach kgcontinuum only through attribute lookups on the
package and its modules at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import kgcontinuum as kg
import kgcontinuum.cli

from gate import (
    GateError,
    NonZeroExit,
    Oracle,
    check_basis,
    check_delta_doc,
    check_fitness_doc,
    check_lattice_doc,
    digest,
    fitness_oracle,
    require,
)

from run import ROOT, child_env

CLI_SNIPPET = "from kgcontinuum.cli import entrypoint; entrypoint()"
TAGS = [d.value for d in kg.Dimension]
PER_DIM_TAGS = [d.value for d in kg.PER_DIMENSION]


@dataclass
class Case:
    id: str
    data: dict = field(default_factory=dict)


def exact_rows(rng: random.Random, n: int, m: int, density: float) -> list[list[bool]]:
    """n rows of m cells, each row with exactly round(density * m) crosses.

    A fixed row weight keeps the concept and implication counts of one shape
    within a few percent across seeds, so run-to-run spread reflects the
    program and not the draw.
    """
    k = round(density * m)
    rows = []
    for _ in range(n):
        on = set(rng.sample(range(m), k))
        rows.append([j in on for j in range(m)])
    return rows


# --- lattice -----------------------------------------------------------------

# (objects, attributes, density, draws). Draw counts are uneven on purpose:
# shapes sorted by build time put the median and the 75th percentile of the
# op latencies in the middle of a group of like-sized cases, not on the edge
# between two groups.
LATTICE_SHAPES = [
    (60, 20, 0.4, 3),
    (40, 32, 0.35, 3),
    (100, 28, 0.25, 3),
    (150, 32, 0.2, 5),
    (120, 24, 0.3, 2),
    (60, 24, 0.4, 5),
    (120, 30, 0.3, 2),
    (150, 20, 0.45, 1),
]
LATTICE_QUERIES = 8  # of each kind: object_concept, meet, join


def lattice_cases(seed: int, workdir: Path) -> list[Case]:
    cases = []
    for n, m, p, draws in LATTICE_SHAPES:
        for d in range(draws):
            rng = random.Random(f"lattice:{seed}:{n}x{m}@{p}:{d}")
            objects = [f"o{i:03d}" for i in range(n)]
            attributes = [f"a{j:02d}" for j in range(m)]
            matrix = exact_rows(rng, n, m, p)
            text = json.dumps({
                "dimension": PER_DIM_TAGS[d % 4],
                "objects": objects,
                "attributes": attributes,
                "incidence": [[int(v) for v in row] for row in matrix],
            })
            queries = [("object", rng.randrange(n)) for _ in range(LATTICE_QUERIES)]
            for kind in ("meet", "join"):
                queries += [(kind, rng.getrandbits(32), rng.getrandbits(32)) for _ in range(LATTICE_QUERIES)]
            cases.append(Case(f"{n}x{m}@{p}#{d}", {
                "text": text,
                "labels": ("id-only", "id+intent")[d % 2],
                "queries": queries,
                "oracle": Oracle(objects, attributes, matrix),
            }))
    return cases


def lattice_run(case: Case):
    ctx = kg.parse_json_context(case.data["text"])
    lattice = kg.build_lattice(ctx)
    js = json.dumps(kg.lattice_json(lattice), indent=2, ensure_ascii=False) + "\n"
    md = kg.legend(lattice).to_markdown()
    dot = kg.to_dot(lattice, labels=case.data["labels"])
    n = len(lattice.concepts)
    answers = []
    for q in case.data["queries"]:
        if q[0] == "object":
            answers.append(kg.object_concept(lattice, ctx.objects[q[1]]))
        elif q[0] == "meet":
            answers.append(kg.meet(lattice, q[1] % n, q[2] % n))
        else:
            answers.append(kg.join(lattice, q[1] % n, q[2] % n))
    return js, md, dot, answers


def lattice_fingerprint(case: Case, result) -> str:
    js, md, dot, answers = result
    return digest(js, md, dot, json.dumps(answers))


def lattice_check(case: Case, result) -> dict:
    js, md, dot, answers = result
    oracle: Oracle = case.data["oracle"]
    doc = json.loads(js)
    counts = check_lattice_doc(oracle, doc)
    require(md.count("\n") == counts["concepts"] + 2, "legend row count differs from the concept count")
    require(dot.count('" -> "') == counts["covers"], "DOT edge count differs from the cover count")
    extents = [oracle.obj_mask(c["extent"]) for c in doc["concepts"]]
    intents = [oracle.attr_mask(c["intent"]) for c in doc["concepts"]]
    n = len(extents)
    for q, got in zip(case.data["queries"], answers):
        if q[0] == "object":
            want = oracle.extent(oracle.rows[q[1]])
        elif q[0] == "meet":
            want = oracle.extent(oracle.intent(extents[q[1] % n] & extents[q[2] % n]))
        else:
            want = oracle.extent(intents[q[1] % n] & intents[q[2] % n])
        require(extents[got] == want, f"{q[0]} query answered c{got}")
    return counts


# --- basis -------------------------------------------------------------------

# (objects, attributes, density, draws), ordered and weighted like LATTICE_SHAPES.
# 200x40 at p=.3 is left out: it takes minutes per input with the current basis.
BASIS_SHAPES = [
    (50, 18, 0.3, 2),
    (60, 20, 0.3, 2),
    (120, 32, 0.1, 5),
    (70, 22, 0.3, 1),
    (80, 24, 0.3, 5),
    (160, 36, 0.1, 1),
    (90, 26, 0.3, 1),
    (200, 40, 0.1, 1),
    (100, 28, 0.3, 1),
]


def basis_cases(seed: int, workdir: Path) -> list[Case]:
    corpus = kg.load_corpus()
    contexts = [("corpus-" + d.value, c) for d, c in corpus.contexts.items()]
    contexts.append(("corpus-combined", corpus.combined))
    for n, m, p, draws in BASIS_SHAPES:
        for d in range(draws):
            rng = random.Random(f"basis:{seed}:{n}x{m}@{p}:{d}")
            matrix = exact_rows(rng, n, m, p)
            ctx = kg.FormalContext(
                kg.Dimension.COMBINED,
                tuple(f"o{i:03d}" for i in range(n)),
                tuple(f"a{j:02d}" for j in range(m)),
                tuple(tuple(row) for row in matrix),
            )
            contexts.append((f"{n}x{m}@{p}#{d}", ctx))
    return [
        Case(name, {"ctx": ctx, "oracle": Oracle(ctx.objects, ctx.attributes, ctx.incidence)})
        for name, ctx in contexts
    ]


def basis_run(case: Case):
    return kg.implication_basis(case.data["ctx"])


def basis_text(attributes, basis) -> str:
    """The basis in the CLI's text format."""
    lines = []
    for imp in basis:
        premise = ", ".join(a for a in attributes if a in imp.premise) or "---"
        conclusion = ", ".join(a for a in attributes if a in imp.conclusion) or "---"
        lines.append(f"{premise} -> {conclusion}\n")
    return "".join(lines)


def basis_fingerprint(case: Case, result) -> str:
    return digest(basis_text(case.data["ctx"].attributes, result))


def basis_check(case: Case, result) -> dict:
    return check_basis(case.data["oracle"], [(imp.premise, imp.conclusion) for imp in result])


# --- ingest-fit --------------------------------------------------------------

INGEST_KGS = 2000
INGEST_CASES = 4
# (attributes, density) per dimension, in PER_DIMENSION order; CXT for the
# first and third documents, JSON for the others
INGEST_DIMS = [(20, 0.3), (16, 0.25), (12, 0.35), (18, 0.2)]


def _cxt_text(objects, attributes, matrix) -> str:
    lines = ["B", "", str(len(objects)), str(len(attributes)), "", *objects, *attributes]
    lines += ["".join("X" if v else "." for v in row) for row in matrix]
    return "\n".join(lines) + "\n"


def _quarter(rng: random.Random, lo: int, hi: int) -> float:
    # weights on a 0.25 grid add up exactly, so ranking ties break the same
    # way in the program and in the oracle
    return rng.randint(lo, hi) / 4


def ingest_cases(seed: int, workdir: Path) -> list[Case]:
    cases = []
    for c in range(INGEST_CASES):
        rng = random.Random(f"ingest-fit:{seed}:{c}")
        kgs = [f"KG {i:04d}" for i in range(INGEST_KGS)]
        docs, features, have = [], {}, {name: {} for name in kgs}
        for d, (tag, (m, p)) in enumerate(zip(PER_DIM_TAGS, INGEST_DIMS)):
            attributes = [f"{tag} feature {j:02d}" for j in range(m)]
            matrix = exact_rows(rng, INGEST_KGS, m, p)
            if d % 2 == 0:
                docs.append((tag, "cxt", _cxt_text(kgs, attributes, matrix)))
            else:
                docs.append((tag, "json", json.dumps({
                    "dimension": tag,
                    "objects": kgs,
                    "attributes": attributes,
                    "incidence": [[int(v) for v in row] for row in matrix],
                })))
            features[tag] = attributes
            for name, row in zip(kgs, matrix):
                have[name][tag] = {a for a, v in zip(attributes, row) if v}
        required = {tag: sorted(rng.sample(features[tag], rng.randint(1, 4))) for tag in PER_DIM_TAGS}
        overrides = {rng.choice(features[tag]): _quarter(rng, 0, 12) for tag in PER_DIM_TAGS}
        cost = {"add_weight": _quarter(rng, 1, 8), "remove_weight": _quarter(rng, 0, 4), "overrides": overrides}
        cases.append(Case(f"set{c}", {
            "docs": docs,
            "require": json.dumps({"community": "bench", "task": f"set{c}", "required": required}),
            "cost": json.dumps(cost),
            "have": have,
            "required": {t: set(f) for t, f in required.items()},
            "weights": cost,
        }))
    return cases


def ingest_run(case: Case):
    contexts, warnings = [], []
    for tag, fmt, text in case.data["docs"]:
        if fmt == "cxt":
            ctx = kg.parse_cxt(text, kg.Dimension.from_tag(tag))
        else:
            ctx = kg.parse_json_context(text)
        warnings.extend(f.code for f in kg.validate_context(ctx).warnings)
        contexts.append(ctx)
    registry = kg.registry_from_contexts(contexts)
    requirement = kg.requirement_from_json(case.data["require"])
    model = kg.cost_model_from_json(case.data["cost"])
    ranked = []
    for name in contexts[0].objects:
        profile = kg.profile_of(contexts, name)
        report = kg.evaluate_fitness(profile, requirement, registry)
        cost = kg.gap_cost(report, model)
        ranked.append((cost, name, kg.fitness_json(report, kg=name, requirement=requirement, cost=cost)))
    ranked.sort(key=lambda r: (r[0], r[1]))
    top = kg.profile_of(contexts, ranked[0][1])
    deltas = [
        kg.delta_json(kg.transformation_delta(top, kg.profile_of(contexts, name), registry), source=top.kg, target=name)
        for _, name, _ in ranked[1:]
    ]
    return [r[2] for r in ranked], deltas, warnings, len(registry)


def ingest_fingerprint(case: Case, result) -> str:
    return digest(json.dumps(result, sort_keys=True, ensure_ascii=False))


def ingest_check(case: Case, result) -> dict:
    fits, deltas, warnings, registered = result
    have, required, w = case.data["have"], case.data["required"], case.data["weights"]
    require(warnings == [], f"unexpected validation warnings {warnings[:3]}")
    require(registered == sum(m for m, _ in INGEST_DIMS), "registry size is wrong")
    expected = {
        name: fitness_oracle(h, required, w["add_weight"], w["remove_weight"], w["overrides"])
        for name, h in have.items()
    }
    order = sorted(expected, key=lambda name: (expected[name]["cost"], name))
    require([doc["kg"] for doc in fits] == order, "ranking order is wrong")
    for doc in fits:
        check_fitness_doc(doc, expected[doc["kg"]], priced=True)
    require(len(deltas) == len(order) - 1, "a delta is missing")
    for doc, name in zip(deltas, order[1:]):
        require(doc["source"] == order[0] and doc["target"] == name, "delta pairs are out of order")
        check_delta_doc(doc, have[order[0]], have[name], removing=True)
    return {"kgs": len(fits), "deltas": len(deltas)}


# --- corpus-cli --------------------------------------------------------------


def cli_cases(seed: int, workdir: Path) -> list[Case]:
    rng = random.Random(f"corpus-cli:{seed}")
    corpus = kg.load_corpus()
    contexts = {d.value: c for d, c in corpus.contexts.items()}
    contexts["combined"] = corpus.combined
    oracles = {t: Oracle(c.objects, c.attributes, c.incidence) for t, c in contexts.items()}
    have = {
        name: {t: set(c.features_of(name)) for t, c in contexts.items() if t != "combined"}
        for name in kg.KG_NAMES
    }
    required = {t: set(rng.sample(contexts[t].attributes, 2)) for t in rng.sample(PER_DIM_TAGS, 3)}
    overrides = {rng.choice(contexts[t].attributes): _quarter(rng, 0, 12) for t in PER_DIM_TAGS}
    weights = {"add_weight": _quarter(rng, 1, 8), "remove_weight": _quarter(rng, 0, 4), "overrides": overrides}
    req_path, cost_path = workdir / "require.json", workdir / "cost.json"
    req_path.write_text(json.dumps({
        "community": "bench", "task": f"seed {seed}",
        "required": {t: sorted(f) for t, f in required.items()},
    }), encoding="utf-8")
    cost_path.write_text(json.dumps(weights), encoding="utf-8")
    src = ["--corpus", "builtin"]

    def dim(tag=None):
        return src + ["--dimension", tag or rng.choice(TAGS)]

    argvs = [["lattice", *dim(t)] for t in TAGS]
    # renderings build a lattice, so their dimensions are fixed to keep the
    # cost of a pass the same for every seed
    argvs += [["legend", *dim(t), "--format", f] for t, f in (("combined", "md"), ("semantic-affordance", "csv"))]
    argvs += [["dot", *dim(t), "--labels", lab] for t, lab in (("combined", "id-only"), ("pragmatic-affordance", "id+intent"))]
    argvs += [["implications", *dim(t), "--format", f] for t in TAGS for f in ("json", "text")]
    a, b = rng.sample(kg.KG_NAMES, 2)
    argvs += [
        ["fit", *src, "--kg", a, "--require", str(req_path)],
        ["fit", *src, "--kg", b, "--require", str(req_path), "--cost-model", str(cost_path)],
        ["delta", *src, "--kg", a, "--to-kg", b],
        ["delta", *src, "--kg", b, "--require", str(req_path)],
        ["validate", *dim()],
        ["corpus", "export", "--dimension", rng.choice(TAGS), "--format", "json"],
        ["corpus", "export", "--dimension", rng.choice(TAGS), "--format", "cxt"],
        ["corpus", "verify"],
    ]
    rng.shuffle(argvs)
    shared = {"oracles": oracles, "contexts": contexts, "have": have, "required": required, "weights": weights}
    return [Case(" ".join(argv).replace(str(workdir) + "/", ""), {"argv": argv, **shared}) for argv in argvs]


def cli_run_subprocess(case: Case):
    # an exception here, such as the worker's budget alarm, kills and reaps the child
    proc = subprocess.run(
        [sys.executable, "-c", CLI_SNIPPET, *case.data["argv"]],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    return proc.returncode, proc.stdout


def cli_run_inprocess(case: Case):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = kgcontinuum.cli.main(case.data["argv"])
    return code, out.getvalue().encode("utf-8")


def cli_fingerprint(case: Case, result) -> str:
    if result[0] != 0:
        raise NonZeroExit(f"exit code {result[0]}")
    return digest(result[1])


def _dimension_of(argv) -> str:
    return argv[argv.index("--dimension") + 1]


def _lattice_counts(oracle: Oracle) -> dict:
    """Concept and cover counts of a small context, from scratch."""
    intents = {oracle.intent(s) for s in range(1 << len(oracle.objects))}
    extents = {oracle.extent(b) for b in intents}
    covers = 0
    for e in extents:
        b = oracle.intent(e)
        refined = {e & oracle.cols[j] for j in range(len(oracle.attributes)) if not b >> j & 1}
        covers += sum(1 for r in refined if not any(r & s == r and r != s for s in refined))
    return {"concepts": len(extents), "covers": covers}


def cli_check(case: Case, result) -> dict:
    text = result[1].decode("utf-8")
    argv, d = case.data["argv"], case.data
    cmd = argv[0]
    if cmd == "lattice":
        return check_lattice_doc(d["oracles"][_dimension_of(argv)], json.loads(text))
    if cmd == "implications":
        if "json" in argv:
            pairs = [(i["premise"], i["conclusion"]) for i in json.loads(text)]
        else:
            pairs = []
            for line in text.splitlines():
                lhs, rhs = line.split(" -> ")
                pairs.append(([] if lhs == "---" else lhs.split(", "), [] if rhs == "---" else rhs.split(", ")))
        return check_basis(d["oracles"][_dimension_of(argv)], pairs)
    if cmd in ("legend", "dot"):
        counts = _lattice_counts(d["oracles"][_dimension_of(argv)])
        if cmd == "dot":
            require(text.count('" -> "') == counts["covers"], "DOT edge count is wrong")
            require(text.count(" [label=") == counts["concepts"], "DOT node count is wrong")
        else:
            header = 2 if "md" in argv else 1
            require(text.count("\n") == counts["concepts"] + header, "legend row count is wrong")
        return counts
    if cmd == "fit":
        doc = json.loads(text)
        w = d["weights"]
        want = fitness_oracle(d["have"][doc["kg"]], d["required"], w["add_weight"], w["remove_weight"], w["overrides"])
        check_fitness_doc(doc, want, priced="--cost-model" in argv)
        return {}
    if cmd == "delta":
        doc = json.loads(text)
        source = d["have"][doc["source"]]
        if "--to-kg" in argv:
            check_delta_doc(doc, source, d["have"][doc["target"]], removing=True)
        else:
            check_delta_doc(doc, source, d["required"], removing=False)
        return {}
    if cmd == "validate":
        oracle = d["oracles"][_dimension_of(argv)]
        want = [
            ("vacuous-attribute" if c == 0 else "universal-attribute", a)
            for a, c in zip(oracle.attributes, oracle.cols)
            if c in (0, oracle.all_objects)
        ]
        doc = json.loads(text)
        require(doc["errors"] == [], "validate reported errors")
        require([(w["code"], w["location"]) for w in doc["warnings"]] == want, "validate warnings are wrong")
        return {}
    if argv[1] == "verify":
        require(json.loads(text) == {"errors": [], "warnings": []}, "corpus verify is not clean")
        return {}
    ctx = d["contexts"][_dimension_of(argv)]
    if "json" in argv:
        doc = json.loads(text)
        require(doc["objects"] == list(ctx.objects) and doc["attributes"] == list(ctx.attributes), "export names differ")
        require(doc["incidence"] == [[int(v) for v in row] for row in ctx.incidence], "export incidence differs")
    else:
        require(text == _cxt_text(ctx.objects, ctx.attributes, ctx.incidence), "CXT export differs")
    return {}


@dataclass(frozen=True)
class Workload:
    name: str
    cases: Callable[[int, Path], list[Case]]  # (seed, scratch directory) -> cases
    run: Callable  # the timed op on one case
    fingerprint: Callable[[Case, object], str]
    check: Callable[[Case, object], dict]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus-cli", cli_cases, cli_run_subprocess, cli_fingerprint, cli_check),
        Workload("lattice", lattice_cases, lattice_run, lattice_fingerprint, lattice_check),
        Workload("basis", basis_cases, basis_run, basis_fingerprint, basis_check),
        Workload("ingest-fit", ingest_cases, ingest_run, ingest_fingerprint, ingest_check),
    )
}


def check_against(expected: dict | None, case: Case, fingerprint: str, counts: dict) -> None:
    """Compare one case's digest and counts with the recorded default-seed values."""
    if expected is None:
        return
    want = expected.get(case.id)
    if want is None:
        raise GateError(f"no recorded digest for case {case.id!r}")
    require(want["counts"] == counts, f"counts {counts} differ from recorded {want['counts']}")
    require(want["sha256"] == fingerprint, "output differs from the recorded digest")
