"""Batch command-line interface over contexts and the embedded corpus.

Exit codes: 0 success, 1 input error, 2 internal or golden-data failure or
running out of memory. Results go to stdout (or --out); diagnostics go to
stderr. Setting the CONTINUUM_NO_COLOR environment variable disables stderr styling.
"""

from __future__ import annotations

import argparse
import gc
import os
import stat
import sys
from collections.abc import Sequence
from pathlib import Path

from .context import (
    PER_DIMENSION,
    Dimension,
    Finding,
    FormalContext,
    ValidationReport,
    _json_text,
    parse_cxt,
    parse_json_context,
    registry_from_contexts,
    serialize_cxt,
    serialize_json_context,
    validate_context,
    validation_json,
)
from .errors import InputError, IntegrityError
from .fca import build_lattice, implication_basis, lattice_json

# corpus, profiles and render are imported by the commands that use them, so
# a process pays only for the modules its command needs

_DIMENSION_TAGS = [d.value for d in Dimension]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them through the
    # normal input-error path (exit 1) instead
    def error(self, message):
        raise InputError("usage", message)


def _fail(message: str) -> None:
    if sys.stderr is None:  # the process started with stderr closed
        return
    prefix = "error:"
    if sys.stderr.isatty() and not os.environ.get("CONTINUUM_NO_COLOR"):
        prefix = "\x1b[31merror:\x1b[0m"
    print(f"{prefix} {message}", file=sys.stderr)


def _emit(args, text: str) -> None:
    if args.out is not None:  # an empty path is a path, which fails as one
        data = text.encode("utf-8")  # encode before opening: no partial file
        try:
            _write(Path(args.out), data)
        except OSError as exc:  # a failed write names no file; name the one given
            raise OSError(exc.errno, exc.strerror, args.out) from None
    elif sys.stdout is None:  # the process started with stdout closed
        raise InputError("closed-stdout", "standard output is closed; use --out")
    else:
        sys.stdout.write(text)


def _write(path: Path, data: bytes) -> None:
    """Write data to path; a write or close that fails unlinks the regular file it opened, through a symlink."""
    opened = None
    out = path.open("wb")  # an open that fails leaves the path as it was
    try:
        with out:
            opened = os.fstat(out.fileno())
            out.write(data)
    except BaseException:
        real = os.path.realpath(path)
        try:  # only the regular file opened above: not a device such as /dev/full, nor a file put there since
            if opened is not None and stat.S_ISREG(opened.st_mode) and os.path.samestat(opened, os.stat(real)):
                os.unlink(real)
        except OSError:
            pass  # the write's own error is the one to report
        raise


# --- input resolution ---------------------------------------------------------


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputError("invalid-encoding", f"{path!r} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _load_context_file(path: str, dimension_tag: str | None) -> FormalContext:
    text = _read_text(path)
    if text.lstrip()[:1] == "{":
        if dimension_tag is not None:
            raise InputError("dimension-flag-forbidden", "JSON contexts carry their own dimension; drop --dimension")
        return parse_json_context(text)
    if dimension_tag is None:
        raise InputError("dimension-flag-required", "CXT contexts carry no dimension; pass --dimension")
    return parse_cxt(text, Dimension.from_tag(dimension_tag))


def _corpus_context(tag: str) -> FormalContext:
    from .corpus import load_corpus

    corpus = load_corpus()
    dim = Dimension.from_tag(tag)
    return corpus.combined if dim is Dimension.COMBINED else corpus.contexts[dim]


def _single_context(args) -> FormalContext:
    if args.corpus is not None and args.context is not None:
        raise InputError("conflicting-input", "use either --corpus or --context, not both")
    if args.corpus is not None:
        if args.dimension is None:
            raise InputError("dimension-flag-required", "--corpus builtin needs --dimension")
        return _corpus_context(args.dimension)
    if args.context is None:
        raise InputError("missing-input", "provide --context PATH or --corpus builtin")
    return _load_context_file(args.context, args.dimension)


def _profile_contexts(args) -> list[FormalContext]:
    if args.corpus is not None and args.context:
        raise InputError("conflicting-input", "use either --corpus or --context, not both")
    if args.corpus is not None:
        if args.dimension is not None:
            raise InputError("dimension-flag-forbidden", "--corpus builtin loads all four dimensions; drop --dimension")
        from .corpus import load_corpus

        corpus = load_corpus()
        return [corpus.contexts[d] for d in PER_DIMENSION]
    if not args.context:
        raise InputError("missing-input", "provide --context PATH (repeatable) or --corpus builtin")
    if args.dimension is not None and len(args.context) > 1:
        raise InputError("dimension-flag-forbidden", "--dimension only applies to a single CXT context")
    contexts = [
        _load_context_file(p, args.dimension if len(args.context) == 1 else None)
        for p in args.context
    ]
    for ctx in contexts:
        if ctx.dimension is Dimension.COMBINED:
            raise InputError("combined-dimension", "fitness and delta analysis need per-dimension contexts")
    return contexts


def _add_context_arguments(parser: argparse.ArgumentParser, repeatable: bool = False) -> None:
    if repeatable:
        parser.add_argument("--context", action="append", metavar="PATH", help="context file (.cxt or .json); repeatable")
    else:
        parser.add_argument("--context", metavar="PATH", help="context file (.cxt or .json)")
    parser.add_argument("--corpus", choices=["builtin"], help="use the embedded case-study corpus")
    parser.add_argument("--dimension", choices=_DIMENSION_TAGS, help="dimension tag for CXT or corpus input")


def _add_out_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="PATH", help="write the result here instead of stdout")


# --- subcommands ---------------------------------------------------------------


def _cmd_lattice(args) -> int:
    lattice = build_lattice(_single_context(args))
    _emit(args, _json_text(lattice_json(lattice)))
    return 0


def _cmd_legend(args) -> int:
    from .render import legend

    table = legend(build_lattice(_single_context(args)))
    _emit(args, table.to_csv() if args.format == "csv" else table.to_markdown())
    return 0


def _cmd_dot(args) -> int:
    from .render import to_dot

    _emit(args, to_dot(build_lattice(_single_context(args)), labels=args.labels))
    return 0


def _cmd_implications(args) -> int:
    ctx = _single_context(args)
    order = ctx.attribute_index.__getitem__
    rules = [(sorted(imp.premise, key=order), sorted(imp.conclusion, key=order)) for imp in implication_basis(ctx)]
    if args.format == "json":
        _emit(args, _json_text([{"premise": p, "conclusion": c} for p, c in rules]))
    else:
        from .render import EMPTY_MARK

        _emit(args, "".join(f"{', '.join(p) or EMPTY_MARK} -> {', '.join(c) or EMPTY_MARK}\n" for p, c in rules))
    return 0


def _cmd_fit(args) -> int:
    from .profiles import (
        cost_model_from_json,
        evaluate_fitness,
        fitness_json,
        gap_cost,
        profile_of,
        requirement_from_json,
    )

    contexts = _profile_contexts(args)
    registry = registry_from_contexts(contexts)
    profile = profile_of(contexts, args.kg)
    requirement = requirement_from_json(_read_text(args.require))
    report = evaluate_fitness(profile, requirement, registry)
    cost = None
    if args.cost_model:
        model = cost_model_from_json(_read_text(args.cost_model))
        cost = gap_cost(report, model)
    _emit(args, _json_text(fitness_json(report, kg=profile.kg, requirement=requirement, cost=cost)))
    return 0


def _cmd_delta(args) -> int:
    from .profiles import delta_json, profile_of, requirement_from_json, transformation_delta

    contexts = _profile_contexts(args)
    registry = registry_from_contexts(contexts)
    source = profile_of(contexts, args.kg)
    if args.to_kg is not None:
        target = profile_of(contexts, args.to_kg)
        target_label = target.kg
    else:
        target = requirement_from_json(_read_text(args.require))
        target_label = f"{target.community}/{target.task}"
    delta = transformation_delta(source, target, registry)
    _emit(args, _json_text(delta_json(delta, source=source.kg, target=target_label)))
    return 0


def _cmd_validate(args) -> int:
    try:
        report = validate_context(_single_context(args))
    except InputError as exc:
        # a flaw in a --context file is a finding; usage errors propagate as usual
        if args.corpus is not None or args.context is None or exc.code in ("dimension-flag-required", "dimension-flag-forbidden"):
            raise
        report = ValidationReport._of((Finding._of(exc.code, exc.message, exc.location),), ())
    _emit(args, _json_text(validation_json(report)))
    return 0 if report.ok else 1


def _cmd_corpus_export(args) -> int:
    ctx = _corpus_context(args.dimension)
    _emit(args, serialize_cxt(ctx) if args.format == "cxt" else serialize_json_context(ctx))
    return 0


def _cmd_corpus_verify(args) -> int:
    from .corpus import load_corpus, verify_corpus

    report = verify_corpus(load_corpus())
    _emit(args, _json_text(validation_json(report)))
    return 0 if report.ok else 2


# --- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kgcontinuum", description="Characterise knowledge graphs with concept lattices.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("lattice", help="compute a concept lattice as JSON")
    _add_context_arguments(p)
    _add_out_argument(p)
    p.set_defaults(handler=_cmd_lattice)

    p = sub.add_parser("legend", help="tabulate concepts as Markdown or CSV")
    _add_context_arguments(p)
    p.add_argument("--format", choices=["md", "csv"], default="md")
    _add_out_argument(p)
    p.set_defaults(handler=_cmd_legend)

    p = sub.add_parser("dot", help="emit a DOT Hasse diagram")
    _add_context_arguments(p)
    p.add_argument("--labels", choices=["id-only", "id+intent"], default="id-only")
    _add_out_argument(p)
    p.set_defaults(handler=_cmd_dot)

    p = sub.add_parser("implications", help="compute the minimal implication basis")
    _add_context_arguments(p)
    p.add_argument("--format", choices=["json", "text"], default="json")
    _add_out_argument(p)
    p.set_defaults(handler=_cmd_implications)

    p = sub.add_parser("fit", help="evaluate a KG against a requirement set")
    _add_context_arguments(p, repeatable=True)
    p.add_argument("--kg", required=True, help="knowledge graph name")
    p.add_argument("--require", required=True, metavar="PATH", help="requirement set JSON")
    p.add_argument("--cost-model", metavar="PATH", help="cost model JSON")
    _add_out_argument(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("delta", help="feature changes from one KG to another or to a requirement")
    _add_context_arguments(p, repeatable=True)
    p.add_argument("--kg", required=True, help="source knowledge graph")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--to-kg", help="target knowledge graph")
    group.add_argument("--require", metavar="PATH", help="target requirement set JSON")
    _add_out_argument(p)
    p.set_defaults(handler=_cmd_delta)

    p = sub.add_parser("validate", help="check a context and report findings")
    _add_context_arguments(p)
    _add_out_argument(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("corpus", help="embedded corpus operations")
    csub = p.add_subparsers(dest="corpus_command", required=True, metavar="SUBCOMMAND")

    pe = csub.add_parser("export", help="write one corpus context")
    pe.add_argument("--dimension", choices=_DIMENSION_TAGS, required=True)
    pe.add_argument("--format", choices=["cxt", "json"], default="json")
    _add_out_argument(pe)
    pe.set_defaults(handler=_cmd_corpus_export)

    pv = csub.add_parser("verify", help="recompute lattices and compare against golden data")
    _add_out_argument(pv)
    pv.set_defaults(handler=_cmd_corpus_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except OSError as exc:  # a file that cannot be read or written: its path is quoted as the readers quote paths
        where = "" if exc.filename is None else f": {exc.filename!r}"
        _fail(str(InputError("io-error", f"{exc.strerror or exc}{where}")))
        return 1
    except InputError as exc:
        _fail(str(exc))
        return 1
    except IntegrityError as exc:
        _fail(str(exc))
        return 2
    except MemoryError:  # reported below, once the frames its traceback holds are freed
        pass
    _fail("resource-exhausted: out of memory; try a smaller context")
    return 2


def entrypoint() -> None:
    if sys.stdout is not None:
        sys.stdout.reconfigure(encoding="utf-8")  # the same bytes as --out, whatever the locale
    code = main()
    gc.freeze()  # the process ends next: shutdown's collections then skip every object the command built
    raise SystemExit(code)
