"""Run one workload's op list in this process and print the outcome as JSON.

One closed-loop client: one op in flight at a time. The op list is run in
whole passes. After the minimum number of passes, a new pass starts only if
a pass of median length still fits in the measuring time, so every latency
sample belongs to a complete pass and the percentiles do not depend on
where a run was cut.

With --trace 1 the first half of the time runs untraced and the second half
under the tracer; the ratio of their median pass times is the tracing
overhead. corpus-cli then calls ``cli.main`` in-process instead of starting
a process per op, so that the spans can see inside it.

    PYTHONPATH=src python3 perfbench/worker.py --workload lattice --seed 1 --seconds 20 --trace 0
    PYTHONPATH=src python3 perfbench/worker.py --record   # rewrite expected.json at the default seed
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from gate import GateError, NonZeroExit
from run import DEFAULT_SEED
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Case, check_against, cli_run_inprocess, cli_run_subprocess

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
# per-op time budget; over 3x the slowest op at the default seed (a 100x28
# basis, about 2 s on a 2-vCPU AMD EPYC VM), so a budget overrun cannot come
# and go with machine noise
BUDGET_S = 15.0
# stop starting ops after this much op time, whatever happens, so a run that
# keeps hitting the budget still ends within three minutes
HARD_CAP_S = 120.0
MAX_ERRORS = 20


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout


class Verifier:
    """Checks every op's output and remembers each case's first result."""

    def __init__(self, workload, expected: dict | None):
        self.workload = workload
        self.expected = expected
        self.seen: dict[str, tuple[str, dict]] = {}

    def verify(self, case: Case, result) -> None:
        fingerprint = self.workload.fingerprint(case, result)
        if case.id in self.seen:
            if self.seen[case.id][0] != fingerprint:
                raise GateError("output differs from this case's earlier output in the run")
            return
        counts = self.workload.check(case, result)
        check_against(self.expected, case, fingerprint, counts)
        self.seen[case.id] = (fingerprint, counts)


class Outcome:
    def __init__(self):
        self.latencies: list[float] = []
        self.by_case: dict[str, list[float]] = {}
        self.passes: list[float] = []
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.errors: list[str] = []
        self.correct = True

    def fail(self, kind: str, case: Case, message: str, incorrect: bool) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1
        self.correct = self.correct and not incorrect
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(f"{kind}: {case.id}: {message}")


def measure(cases, run, verifier: Verifier, seconds: float, min_passes: int, out: Outcome, tracer=None) -> int:
    """Run whole passes for about ``seconds`` of op time; return the pass count."""
    signal.signal(signal.SIGALRM, _alarm)
    spent = 0.0
    done = 0
    while True:
        pass_s = 0.0
        for case in cases:
            if tracer is not None:
                tracer.op = out.attempted
            out.attempted += 1
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
            try:
                result = run(case)
            except OpTimeout:
                pass_s += time.perf_counter() - t0
                out.fail("timeout", case, f"over the {BUDGET_S:g} s budget", incorrect=False)
                continue
            except Exception as exc:  # any error from the program fails the op
                pass_s += time.perf_counter() - t0
                out.fail("error", case, f"{type(exc).__name__}: {exc}", incorrect=True)
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            dt = time.perf_counter() - t0
            pass_s += dt
            try:
                verifier.verify(case, result)
                out.latencies.append(dt)
                out.by_case.setdefault(case.id, []).append(dt)
            except NonZeroExit as exc:
                out.fail("exit", case, str(exc), incorrect=True)
            except GateError as exc:
                out.fail("check", case, str(exc), incorrect=True)
            except (KeyError, ValueError, TypeError) as exc:  # malformed output
                out.fail("check", case, f"{type(exc).__name__}: {exc}", incorrect=True)
            if spent + pass_s > HARD_CAP_S:
                out.fail("cut", case, "hard time cap reached", incorrect=False)
                return done
        spent += pass_s
        out.passes.append(pass_s)
        done += 1
        if done >= min_passes and spent + statistics.median(out.passes[-done:]) > seconds:
            return done


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    workdir = OUT / f"work-{name}-{seed}-{id(workload)}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cases = workload.cases(seed, workdir)
        expected = None
        if seed == DEFAULT_SEED:
            expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[name]
        verifier = Verifier(workload, expected)
        out = Outcome()
        run = cli_run_inprocess if trace and name == "corpus-cli" else workload.run
        report = {"workload": name, "seed": seed, "cases": len(cases)}
        if not trace:
            measure(cases, run, verifier, seconds, 2, out)
        else:
            plain = measure(cases, run, verifier, seconds / 2, 1, out)
            tracer = Tracer()
            with tracer.installed():
                traced = measure(cases, run, verifier, seconds / 2, 1, out, tracer)
            traced_passes = out.passes[plain:]
            report["layers"] = layer_metrics(tracer.spans, traced, sum(traced_passes))
            report["layers"]["trace.overhead_ratio"] = statistics.median(traced_passes) / statistics.median(out.passes[:plain])
            report["spans"] = len(tracer.spans)
            spans_file = OUT / f"spans-{name}-seed{seed}.json"
            tracer.write(spans_file)
            report["spans_file"] = str(spans_file.relative_to(HERE.parent))
            report["untraced_passes_s"] = out.passes[:plain]
            out.passes = traced_passes
        report.update(
            latencies_s=out.latencies,
            case_latencies_s=out.by_case,
            passes_s=out.passes,
            attempted=out.attempted,
            failures=out.failures,
            errors=out.errors,
            correct=out.correct,
            counts={cid: counts for cid, (_, counts) in verifier.seen.items()},
            peak_rss_mb=peak_rss_mb(children=run is cli_run_subprocess),
        )
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def record() -> int:
    """Write the default seed's digest and counts for every case of every workload."""
    doc = {}
    for name, workload in WORKLOADS.items():
        workdir = OUT / f"record-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            entries = {}
            for case in workload.cases(DEFAULT_SEED, workdir):
                result = workload.run(case)
                counts = workload.check(case, result)
                entries[case.id] = {"sha256": workload.fingerprint(case, result), "counts": counts}
            doc[name] = entries
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite expected.json at the default seed")
    args = parser.parse_args(argv)
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
