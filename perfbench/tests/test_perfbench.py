"""Tests of the benchmark itself: input generation, the gate, the tail rule, tracing.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kgcontinuum as kg
import run
import worker
import workloads
from gate import GateError, Oracle, check_basis, check_lattice_doc
from run import DEFAULT_SEED
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS


def _inputs(name, seed, tmp_path):
    """The generated inputs of every case, as comparable plain data."""
    out = []
    for case in WORKLOADS[name].cases(seed, tmp_path):
        d = case.data
        if name == "lattice":
            out.append((case.id, d["text"], d["queries"], d["labels"]))
        elif name == "basis":
            out.append((case.id, d["ctx"].incidence))
        elif name == "ingest-fit":
            out.append((case.id, d["docs"], d["require"], d["cost"]))
        else:
            out.append((case.id, d["argv"]))
    if name == "corpus-cli":
        out.append(((tmp_path / "require.json").read_text(), (tmp_path / "cost.json").read_text()))
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generation_is_deterministic_per_seed(name, tmp_path):
    first = _inputs(name, 5, tmp_path)
    assert _inputs(name, 5, tmp_path) == first
    assert _inputs(name, 6, tmp_path) != first


def _expected(name):
    return json.loads(worker.EXPECTED.read_text(encoding="utf-8"))[name]


def _case(name, case_id, tmp_path):
    return next(c for c in WORKLOADS[name].cases(DEFAULT_SEED, tmp_path) if c.id == case_id)


def test_gate_rejects_a_lattice_with_one_cover_dropped(tmp_path):
    case = _case("lattice", "60x20@0.4#0", tmp_path)
    js, md, dot, answers = workloads.lattice_run(case)
    verifier = worker.Verifier(WORKLOADS["lattice"], _expected("lattice"))
    verifier.verify(case, (js, md, dot, answers))

    doc = json.loads(js)
    doc["covers"].pop(len(doc["covers"]) // 2)
    with pytest.raises(GateError, match="lower covers"):
        check_lattice_doc(case.data["oracle"], doc)
    damaged = json.dumps(doc, indent=2) + "\n"
    with pytest.raises(GateError):
        worker.Verifier(WORKLOADS["lattice"], _expected("lattice")).verify(case, (damaged, md, dot, answers))


def test_gate_rejects_a_basis_with_one_implication_dropped(tmp_path):
    case = _case("basis", "corpus-combined", tmp_path)
    basis = workloads.basis_run(case)
    worker.Verifier(WORKLOADS["basis"], _expected("basis")).verify(case, basis)
    for i in (0, len(basis) // 2, len(basis) - 1):
        dropped = basis[:i] + basis[i + 1:]
        with pytest.raises(GateError, match="counts"):
            worker.Verifier(WORKLOADS["basis"], _expected("basis")).verify(case, dropped)


def test_gate_rejects_an_implication_that_does_not_hold():
    ctx = kg.load_corpus().combined
    oracle = Oracle(ctx.objects, ctx.attributes, ctx.incidence)
    pairs = [(imp.premise, imp.conclusion) for imp in kg.implication_basis(ctx)]
    check_basis(oracle, pairs)
    premise, conclusion = pairs[0]
    closure = kg.close_attributes(ctx, premise)
    outside = next(a for a in ctx.attributes if a not in closure)
    with pytest.raises(GateError, match="does not hold"):
        check_basis(oracle, [(premise, conclusion | {outside})] + pairs[1:])


def test_repeated_case_must_repeat_its_output(tmp_path):
    case = _case("basis", "corpus-semantic-property", tmp_path)
    verifier = worker.Verifier(WORKLOADS["basis"], None)
    basis = workloads.basis_run(case)
    verifier.verify(case, basis)
    with pytest.raises(GateError, match="earlier output"):
        verifier.verify(case, basis[1:])


@pytest.mark.parametrize("n, q", [(19, 100.0), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90), (200, 95), (1000, 99)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, q):
    got_q, value = run.tail([float(i) for i in range(n)])
    assert got_q == q
    assert sum(1 for i in range(n) if i > value) >= 10 or q == 100.0


def test_tracer_nests_enumeration_under_build_lattice_and_restores():
    ctx = kg.load_corpus().contexts[kg.Dimension.SEMANTIC_AFFORDANCE]
    original = kg.fca.enumerate_concepts
    tracer = Tracer()
    with tracer.installed():
        kg.build_lattice(ctx)
    assert kg.fca.enumerate_concepts is original
    names = [s[0] for s in tracer.spans]
    assert names == ["fca.build_lattice", "fca.enumerate_concepts"]
    assert tracer.spans[1][3] == 0
    metrics = layer_metrics(tracer.spans, 1, 1.0)
    assert metrics["fca.concepts"] == 25
    assert metrics["fca.covers_s"] + metrics["fca.enumerate_s"] == pytest.approx(
        (tracer.spans[0][2] - tracer.spans[0][1]) / 1e9
    )


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(Path(run.HERE), tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}
    traced = set(layer_metrics([], 1, 1.0)) | {"cli.interp_ms", "cli.import_ms", "corpus.load_ms", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit(m["name"])


def test_an_op_over_the_budget_is_a_timeout_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "BUDGET_S", 0.01)
    cases = [c for c in WORKLOADS["basis"].cases(DEFAULT_SEED, tmp_path) if c.id == "100x28@0.3#0"]
    out = worker.Outcome()
    worker.measure(cases, workloads.basis_run, worker.Verifier(WORKLOADS["basis"], None), 0.0, 1, out)
    assert out.failures == {"timeout": 1}
    assert out.correct and out.latencies == []
