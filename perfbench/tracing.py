"""Spans around kgcontinuum's public functions, recorded from outside the package.

``Tracer.installed()`` replaces every public function of the package's
modules with a timing wrapper in each namespace that holds it: the package,
the defining module, and every module that imported the name (``cli.py``
imports most of them; ``fca.build_lattice`` finds ``enumerate_concepts`` in
its own module globals). A call made through any of those names becomes a
span whose parent is the span open at the time. Spans are kept in memory
and written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import kgcontinuum
import kgcontinuum.cli
import kgcontinuum.context
import kgcontinuum.corpus
import kgcontinuum.fca
import kgcontinuum.profiles
import kgcontinuum.render

MODULES = (
    kgcontinuum,
    kgcontinuum.cli,
    kgcontinuum.context,
    kgcontinuum.corpus,
    kgcontinuum.fca,
    kgcontinuum.profiles,
    kgcontinuum.render,
)
# called once per name inside every constructor; a span each would measure
# the tracer, not the program
UNTRACED = {"normalize_name"}
METHODS = ((kgcontinuum.render.Legend, ("to_markdown", "to_csv")),)

# counts recorded at the span boundary, from the function's result
COUNTERS = {
    "fca.build_lattice": lambda r: {"concepts": len(r.concepts), "covers": len(r.covers)},
    "fca.implication_basis": lambda r: {"implications": len(r)},
    "context.parse_cxt": lambda r: {"cells": len(r.objects) * len(r.attributes)},
    "context.parse_json_context": lambda r: {"cells": len(r.objects) * len(r.attributes)},
}


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index or -1, op id, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def _wrap(self, fn):
        name = _span_name(fn)
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                span[5] = counter(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        wrappers: dict = {}
        saved = []
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if (
                    inspect.isfunction(value)
                    and value.__module__.startswith("kgcontinuum.")
                    and not attr.startswith("_")
                    and attr not in UNTRACED
                ):
                    if value not in wrappers:
                        wrappers[value] = self._wrap(value)
                    saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        for cls, names in METHODS:
            for attr in names:
                value = vars(cls)[attr]
                saved.append((cls, attr, value))
                setattr(cls, attr, self._wrap(value))
        try:
            yield self
        finally:
            for owner, attr, value in saved:
                setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start_ns", "end_ns", "parent", "op", "counts"], "spans": [\n')
            for i, span in enumerate(self.spans):
                fh.write(("," if i else "") + json.dumps(span) + "\n")
            fh.write("]}\n")


def layer_metrics(spans: list[list], passes: int, op_seconds: float) -> dict[str, float]:
    """Per-layer figures from the spans of ``passes`` complete passes.

    ``*_s`` metrics are seconds per pass of the op list, so they add up
    against ``wall_s``; ``*_ms`` metrics are medians per call; counts are per
    pass. A layer the workload never calls reads 0.
    """
    dur = [(s[2] - s[1]) / 1e9 for s in spans]
    child = [0.0] * len(spans)
    under_fca = [False] * len(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
        p = s[3]
        if p >= 0:
            child[p] += dur[i]
            under_fca[i] = under_fca[p] or spans[p][0].startswith("fca.")

    def total(*names):
        return sum(dur[i] for n in names for i in by_name[n])

    def per_pass(*names):
        return total(*names) / passes

    def count(name, key):
        return sum(spans[i][5][key] for i in by_name[name])

    def median_ms(values):
        return statistics.median(values) * 1000 if values else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    lattice_s = total("fca.build_lattice")
    basis_s = total("fca.implication_basis")
    parse_names = ("context.parse_cxt", "context.parse_json_context")
    fca_s = sum(dur[i] for i, s in enumerate(spans) if s[0].startswith("fca.") and not under_fca[i])
    return {
        "cli.main_ms": median_ms([dur[i] for i in by_name["cli.main"]]),
        "cli.main_self_ms": median_ms([dur[i] - child[i] for i in by_name["cli.main"]]),
        "corpus.verify_ms": median_ms([dur[i] for i in by_name["corpus.verify_corpus"]]),
        "context.parse_cxt_s": per_pass("context.parse_cxt"),
        "context.parse_json_s": per_pass("context.parse_json_context"),
        "context.cells_per_s": ratio(sum(count(n, "cells") for n in parse_names), total(*parse_names)),
        "context.registry_s": per_pass("context.registry_from_contexts"),
        "context.validate_s": per_pass("context.validate_context"),
        "fca.enumerate_s": per_pass("fca.enumerate_concepts"),
        "fca.covers_s": sum(dur[i] - child[i] for i in by_name["fca.build_lattice"]) / passes,
        "fca.query_s": per_pass("fca.meet", "fca.join", "profiles.object_concept"),
        "fca.basis_s": basis_s / passes,
        "fca.implications_per_s": ratio(count("fca.implication_basis", "implications"), basis_s),
        "fca.lattice_json_s": per_pass("fca.lattice_json"),
        "fca.concepts_per_s": ratio(count("fca.build_lattice", "concepts"), lattice_s),
        "fca.concepts": count("fca.build_lattice", "concepts") / passes,
        "fca.covers": count("fca.build_lattice", "covers") / passes,
        "fca.implications": count("fca.implication_basis", "implications") / passes,
        "fca.op_share": ratio(fca_s, op_seconds),
        "render.legend_s": per_pass("render.legend", "render.Legend.to_markdown", "render.Legend.to_csv"),
        "render.dot_s": per_pass("render.to_dot"),
        "profiles.profile_s": per_pass("profiles.profile_of"),
        "profiles.fit_s": per_pass("profiles.evaluate_fitness", "profiles.gap_cost"),
        "profiles.delta_s": per_pass("profiles.transformation_delta"),
        "profiles.codec_s": per_pass(
            "profiles.fitness_json", "profiles.delta_json", "profiles.requirement_from_json", "profiles.cost_model_from_json"
        ),
    }
