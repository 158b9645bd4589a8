"""Benchmark of kgcontinuum's context -> lattice -> basis -> profile pipeline.

    python3 perfbench/run.py                                  # every workload, default seed
    python3 perfbench/run.py --workload basis --seed 7 --seconds 20 --trace 0

For each workload: set-up is timed in fresh interpreters, then one worker
process runs the workload's op list (see worker.py) and reports back. Every
op's output is checked; the run exits 1 when any check fails. The last
line of stdout is one JSON object with the end-to-end metrics (--trace 0) or
the per-layer metrics (--trace 1). A full run record, with the environment,
is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("corpus-cli", "lattice", "basis", "ingest-fit")
DEFAULT_SEED = 1
SETUP_ROUNDS = 10
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
WORKER_TIMEOUT_S = 165

SETUP_SNIPPET = """import time
t0 = time.perf_counter()
import kgcontinuum
t1 = time.perf_counter()
kgcontinuum.load_corpus()
t2 = time.perf_counter()
print(t2 - t0, t2 - t1)"""
IMPORT_SNIPPET = """import time
t0 = time.perf_counter()
import kgcontinuum.cli
print(time.perf_counter() - t0)"""

UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB",
    "cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.main_ms": "ms", "cli.main_self_ms": "ms",
    "corpus.load_ms": "ms", "corpus.verify_ms": "ms",
    "context.cells_per_s": "1/s", "fca.implications_per_s": "1/s", "fca.concepts_per_s": "1/s",
    "fca.concepts": "count", "fca.covers": "count", "fca.implications": "count",
    "fca.op_share": "ratio", "trace.overhead_ratio": "ratio",
}


def unit(name: str) -> str:
    return UNITS.get(name, "s")


def child_env() -> dict:
    """Environment of every interpreter the benchmark starts.

    Bytecode caching is on whatever the caller's environment says, as it is
    for an installed package, so start-up is measured loading .pyc files
    (written under src/ by the first, discarded, set-up round).
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    return env


def _python(code: str) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return time.perf_counter() - t0, proc.stdout


def setup_rounds(rounds: int) -> list[tuple[float, float, float, float]]:
    """(setup, load, interpreter, cli import) seconds, each from a fresh interpreter."""
    samples = []
    for _ in range(rounds):
        interp, _ = _python("pass")
        _, out_import = _python(IMPORT_SNIPPET)
        _, out_setup = _python(SETUP_SNIPPET)
        setup, load = map(float, out_setup.split())
        samples.append((setup, load, interp, float(out_import)))
    return samples


def summarise_setup(samples) -> dict:
    setup, load, interp, imports = zip(*samples)
    return {
        "setup_s": statistics.median(setup),
        "corpus.load_ms": statistics.median(load) * 1000,
        "cli.interp_ms": statistics.median(interp) * 1000,
        "cli.import_ms": statistics.median(imports) * 1000,
        "samples": len(samples),
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of PERCENTILES with at least 10 samples beyond it.

    Nearest-rank percentiles. With fewer than 20 samples no percentile
    qualifies and the maximum is reported as the 100th.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = (100.0, ordered[-1])
    for q in PERCENTILES:
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            best = (q, ordered[rank - 1])
    return best


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout's own .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    # the first round fills the bytecode caches and is discarded; the rest are
    # split around the worker so the median spans the whole run, not only
    # the machine's state at its start
    setup_rounds(1)
    samples = setup_rounds(SETUP_ROUNDS // 2)
    report = run_worker(workload, seed, seconds, trace)
    setup = summarise_setup(samples + setup_rounds(SETUP_ROUNDS - SETUP_ROUNDS // 2))
    latencies = report.pop("latencies_s")
    q, tail_s = tail(latencies)
    failed = sum(report["failures"].values())
    metrics = {
        "setup_s": setup["setup_s"],
        "wall_s": statistics.median(report["passes_s"]),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_tail_ms": tail_s * 1000,
        "peak_rss_mb": report["peak_rss_mb"],
    }
    if trace:
        metrics = {k: setup[k] for k in ("cli.interp_ms", "cli.import_ms", "corpus.load_ms")}
        metrics.update(report.pop("layers"))
    record = {
        "environment": environment(seed),
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": failed,
        "fail_ratio": failed / report["attempted"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
        "samples": {
            "setup_rounds": setup["samples"],
            "passes": len(report["passes_s"]),
            "op_latencies": len(latencies),
            "op_tail_percentile": q,
        },
        "worker": report,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"record-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    return record


def summary_line(record: dict) -> str:
    s = record["samples"]
    parts = [f"{k}={m['value']:.6g} {m['unit']}" for k, m in record["metrics"].items()]
    parts.append(f"fail_ratio={record['fail_ratio']:.4g} ({record['failed']}/{record['attempted']})")
    if not record["trace"]:
        parts.append(f"[tail=p{s['op_tail_percentile']:g} of {s['op_latencies']} ops, {s['passes']} passes]")
    return f"{record['workload']:<11} " + "  ".join(parts)


def result_line(records: list[dict]) -> str:
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kgcontinuum benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kgcontinuum" / "__init__.py").is_file():
        print(f"error: no kgcontinuum package under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.SubprocessError, ValueError, OSError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        for err in record["worker"]["errors"]:
            print(f"FAIL {name}: {err}", file=sys.stderr)
        print(summary_line(record), flush=True)
        records.append(record)
    print(result_line(records))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
