"""CLI behaviour: subcommands, exit codes, determinism, diagnostics."""

import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kgcontinuum.cli as cli
import kgcontinuum.corpus as corpus_module
from kgcontinuum import KG_NAMES, Dimension, IntegrityError, ValidationReport, Finding, parse_cxt, parse_json_context

from helpers import corpus

ALL_DIMS = [d.value for d in Dimension]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def req_file(tmp_path):
    path = tmp_path / "req.json"
    path.write_text(json.dumps({
        "community": "cultural heritage",
        "task": "portal validation",
        "required": {"pragmatic-affordance": ["OWL DL reasoning", "SHACL"]},
    }))
    return str(path)


@pytest.fixture()
def cxt_file(tmp_path):
    path = tmp_path / "toy.cxt"
    path.write_text("B\n\n2\n2\n\ng1\ng2\nm1\nm2\nX.\n.X\n")
    return str(path)


# --- happy paths -----------------------------------------------------------------


def test_lattice_json_output(capsys):
    code, out, err = run(capsys, "lattice", "--corpus", "builtin", "--dimension", "pragmatic-property")
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert len(doc["concepts"]) == 10
    assert len(doc["covers"]) == 15
    assert doc["top"] == "c9"


def test_lattice_from_cxt_file(capsys, cxt_file):
    code, out, _ = run(capsys, "lattice", "--context", cxt_file, "--dimension", "combined")
    assert code == 0
    assert len(json.loads(out)["concepts"]) == 4


def test_lattice_from_json_file(capsys, tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps({
        "dimension": "semantic-property",
        "objects": ["g1"],
        "attributes": ["m1"],
        "incidence": [[1]],
    }))
    code, out, _ = run(capsys, "lattice", "--context", str(path))
    assert code == 0
    assert json.loads(out)["concepts"][0]["intent"] == ["m1"]


def test_legend_markdown_and_csv(capsys):
    code, out, _ = run(capsys, "legend", "--corpus", "builtin", "--dimension", "pragmatic-property")
    assert code == 0
    assert out.splitlines()[0] == "| ID | Objects | Attributes |"
    code, out, _ = run(capsys, "legend", "--corpus", "builtin", "--dimension", "pragmatic-property", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "id,objects,attributes"


def test_dot_labels(capsys):
    code, out, _ = run(capsys, "dot", "--corpus", "builtin", "--dimension", "pragmatic-property", "--labels", "id+intent")
    assert code == 0
    assert out.startswith("digraph lattice {")
    assert "\\n" in out


def test_implications_json_and_text(capsys):
    code, out, _ = run(capsys, "implications", "--corpus", "builtin", "--dimension", "semantic-affordance")
    assert code == 0
    doc = json.loads(out)
    assert all(set(imp) == {"premise", "conclusion"} for imp in doc)
    code, out, _ = run(capsys, "implications", "--corpus", "builtin", "--dimension", "semantic-affordance", "--format", "text")
    assert code == 0
    assert " -> " in out.splitlines()[0]


def test_fit_subcommand(capsys, req_file):
    code, out, _ = run(capsys, "fit", "--corpus", "builtin", "--kg", "Wikidata", "--require", req_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["fit"] is False
    assert doc["gap"]["pragmatic-affordance"] == ["OWL DL reasoning"]
    assert "cost" not in doc


def test_fit_with_cost_model(capsys, req_file, tmp_path):
    model = tmp_path / "cost.json"
    model.write_text('{"add_weight": 2.5}')
    code, out, _ = run(capsys, "fit", "--corpus", "builtin", "--kg", "Wikidata", "--require", req_file, "--cost-model", str(model))
    assert code == 0
    assert json.loads(out)["cost"] == 2.5


def test_delta_between_kgs(capsys):
    code, out, _ = run(capsys, "delta", "--corpus", "builtin", "--kg", "Europeana", "--to-kg", "LOV")
    assert code == 0
    doc = json.loads(out)
    assert doc["delta"]["pragmatic-property"] == {"add": ["PROV-O"], "remove": ["OAI-ORE aggregation"]}


def test_delta_to_requirement(capsys, req_file):
    code, out, _ = run(capsys, "delta", "--corpus", "builtin", "--kg", "Wikidata", "--require", req_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["target"] == "cultural heritage/portal validation"
    assert doc["delta"]["pragmatic-affordance"]["remove"] == []


def test_validate_reports_warnings(capsys):
    code, out, _ = run(capsys, "validate", "--corpus", "builtin", "--dimension", "semantic-affordance")
    assert code == 0
    doc = json.loads(out)
    assert doc["errors"] == []
    assert doc["warnings"][0]["code"] == "universal-attribute"
    assert doc["warnings"][0]["location"] == "attribution"


def test_validate_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.cxt"
    path.write_text("B\n\n2\n1\n\ng1\ng1\nm\nX\nX\n")
    code, out, _ = run(capsys, "validate", "--context", str(path), "--dimension", "combined")
    assert code == 1
    doc = json.loads(out)
    assert doc["errors"][0]["code"] == "duplicate-object"
    assert doc["errors"][0]["location"] == "line 7"


def test_validate_reports_a_repeated_key_as_invalid_json(capsys, tmp_path):
    path = tmp_path / "repeated.json"
    path.write_text('{"dimension": "combined", "objects": ["g"], "objects": ["h"], "attributes": ["m"], "incidence": [[1]]}')
    code, out, _ = run(capsys, "validate", "--context", str(path))
    assert code == 1
    assert json.loads(out)["errors"] == [{"code": "invalid-json", "message": "duplicate key 'objects'", "location": None}]


def test_corpus_export_json_round_trip(capsys):
    code, out, _ = run(capsys, "corpus", "export", "--dimension", "semantic-property", "--format", "json")
    assert code == 0
    assert parse_json_context(out) == corpus().contexts[Dimension.SEMANTIC_PROPERTY]


def test_corpus_export_cxt_round_trip(capsys):
    code, out, _ = run(capsys, "corpus", "export", "--dimension", "pragmatic-affordance", "--format", "cxt")
    assert code == 0
    assert parse_cxt(out, Dimension.PRAGMATIC_AFFORDANCE) == corpus().contexts[Dimension.PRAGMATIC_AFFORDANCE]


def test_corpus_export_combined(capsys):
    code, out, _ = run(capsys, "corpus", "export", "--dimension", "combined")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == "combined"
    assert len(doc["attributes"]) == 42


def test_corpus_verify_clean(capsys):
    code, out, _ = run(capsys, "corpus", "verify")
    assert code == 0
    assert json.loads(out) == {"errors": [], "warnings": []}


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "lattice.json"
    code, out, _ = run(capsys, "lattice", "--corpus", "builtin", "--dimension", "combined", "--out", str(target))
    assert code == 0
    assert out == ""
    code, out, _ = run(capsys, "lattice", "--corpus", "builtin", "--dimension", "combined")
    assert target.read_text(encoding="utf-8") == out


def test_python_m_runs_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "kgcontinuum", "corpus", "verify"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == {"errors": [], "warnings": []}


def cli_process(*argv, encoding="utf-8"):
    """`python -m kgcontinuum ARGV` in a new process whose stdout encoding is the given one."""
    return subprocess.run(
        [sys.executable, "-m", "kgcontinuum", *argv],
        capture_output=True,
        env={"PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]), "PYTHONIOENCODING": encoding},
        timeout=60,
    )


def _json_context(tmp_path, objects):
    path = tmp_path / "ctx.json"
    # a name written as "\ud800" reaches the parser as a JSON escape
    text = '{"dimension": "semantic-property", "objects": [%s], "attributes": ["m"], "incidence": [[1]]}' % objects
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
def test_lone_surrogate_escape_exits_one(tmp_path, out):
    context = _json_context(tmp_path, '"\\ud800"')
    target = tmp_path / "result.json"
    argv = ["--context", context] + (["--out", str(target)] if out else [])
    proc = cli_process("lattice", *argv)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr == b"error: invalid-json: lone surrogate '\\ud800' is not text\n"
    assert not target.exists()
    # validate reports the file that does not parse as its one error finding
    proc = cli_process("validate", *argv)
    assert proc.returncode == 1
    assert proc.stderr == b""
    report = json.loads(target.read_bytes() if out else proc.stdout)
    assert [f["code"] for f in report["errors"]] == ["invalid-json"]


def test_paired_surrogate_escapes_are_one_character(tmp_path):
    proc = cli_process("lattice", "--context", _json_context(tmp_path, '"\\ud83d\\ude00"'))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["concepts"][0]["extent"] == ["\U0001f600"]


def test_stdout_is_utf8_whatever_the_locale(tmp_path):
    context = _json_context(tmp_path, '"café"')
    target = tmp_path / "lattice.json"
    assert cli_process("lattice", "--context", context, "--out", str(target)).returncode == 0
    for encoding in ("utf-8", "ascii", "cp1252"):
        proc = cli_process("lattice", "--context", context, encoding=encoding)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == target.read_bytes()
    assert "café".encode() in proc.stdout


def closed_stream_process(fd, *argv):
    """`python ARGV` in a new process started with file descriptor fd closed, as a shell's `fd>&-` starts it."""
    return subprocess.run(
        ["sh", "-c", f'exec "$0" "$@" {fd}>&-', sys.executable, *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        timeout=60,
    )


def test_closed_stdout_is_an_input_error_unless_out_is_given(tmp_path):
    argv = ("lattice", "--corpus", "builtin", "--dimension", "combined")
    proc = closed_stream_process(1, "-m", "kgcontinuum", *argv)
    assert proc.returncode == 1
    assert proc.stderr == "error: closed-stdout: standard output is closed; use --out\n"  # one line, no Traceback
    target = tmp_path / "lattice.json"
    proc = closed_stream_process(1, "-m", "kgcontinuum", *argv, "--out", str(target))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert target.read_bytes() == cli_process(*argv).stdout


# runs cli.entrypoint on argv[1:] and reports on stdout the code it exits with
ENTRYPOINT = """from kgcontinuum.cli import entrypoint
try:
    entrypoint()
except SystemExit as exit:
    print(f"--- exit {exit.code}", flush=True)
"""


def test_closed_stderr_keeps_the_exit_code():
    # without --dimension the command is an input error, whose message has nowhere to go
    proc = closed_stream_process(2, "-c", ENTRYPOINT, "lattice", "--corpus", "builtin")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "--- exit 1\n", "")


# runs each argv of the JSON list in argv[1] through main and ends its output with the exit code
RUN_ALL = """import json, sys
from kgcontinuum.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    print(f"--- exit {code}", flush=True)
"""


def test_output_is_byte_identical_across_hash_seeds(req_file, tmp_path):
    # string hashes follow PYTHONHASHSEED and Dimension hashes follow object
    # addresses, so set and dict iteration may differ between the two processes
    cost = tmp_path / "cost.json"
    cost.write_text('{"add_weight": 2.0, "remove_weight": 0.25, "overrides": {"SHACL": 0.5}}')
    src = ["--corpus", "builtin"]
    argvs = []
    for kg, other in zip(KG_NAMES, KG_NAMES[1:] + KG_NAMES[:1]):
        argvs += [
            ["fit", *src, "--kg", kg, "--require", req_file],
            ["fit", *src, "--kg", kg, "--require", req_file, "--cost-model", str(cost)],
            ["delta", *src, "--kg", kg, "--to-kg", other],
            ["delta", *src, "--kg", kg, "--require", req_file],
        ]
    for tag in ALL_DIMS:
        argvs += [
            ["lattice", *src, "--dimension", tag],
            ["implications", *src, "--dimension", tag, "--format", "text"],
            ["validate", *src, "--dimension", tag],
        ]
    outputs = []
    for seed in ("0", "4242"):
        proc = subprocess.run(
            [sys.executable, "-c", RUN_ALL, json.dumps(argvs)],
            capture_output=True,
            env={"PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]), "PYTHONHASHSEED": seed},
            timeout=120,
        )
        assert proc.stderr == b""
        assert proc.stdout.count(b"--- exit 0\n") == len(argvs)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_fit_output_is_strict_json(capsys, req_file, tmp_path):
    model = tmp_path / "cost.json"
    model.write_text('{"add_weight": 1e300, "overrides": {"SHACL": 0.25}}')
    code, out, _ = run(capsys, "fit", "--corpus", "builtin", "--kg", "Wikidata", "--require", req_file, "--cost-model", str(model))
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    assert math.isfinite(doc["cost"])


STRICT_JSON_COMMANDS = [
    *(["lattice", "--corpus", "builtin", "--dimension", tag] for tag in ALL_DIMS),
    *(["implications", "--corpus", "builtin", "--dimension", tag, "--format", "json"] for tag in ALL_DIMS),
    *(["validate", "--corpus", "builtin", "--dimension", tag] for tag in ALL_DIMS),
    *(["corpus", "export", "--dimension", tag, "--format", "json"] for tag in ALL_DIMS),
    ["corpus", "verify"],
    ["fit", "--corpus", "builtin", "--kg", "Wikidata", "--require", "{req}"],
    ["fit", "--corpus", "builtin", "--kg", "Wikidata", "--require", "{req}", "--cost-model", "{cost}"],
    ["delta", "--corpus", "builtin", "--kg", "Europeana", "--to-kg", "LOV"],
    ["delta", "--corpus", "builtin", "--kg", "Wikidata", "--require", "{req}"],
]


@pytest.mark.parametrize("argv", STRICT_JSON_COMMANDS, ids=" ".join)
def test_json_output_is_strict(capsys, req_file, tmp_path, argv):
    model = tmp_path / "cost.json"
    model.write_text('{"add_weight": 1e300, "remove_weight": 1e300, "overrides": {"SHACL": 0.25}}')
    code, out, err = run(capsys, *(a.format(req=req_file, cost=model) for a in argv))
    assert code == 0, err
    json.loads(out, parse_constant=_reject_constant)


def test_gap_cost_overflow_exits_one(capsys, req_file, tmp_path):
    model = tmp_path / "cost.json"
    model.write_text('{"add_weight": 1e308, "remove_weight": 1e308}')
    code, out, err = run(capsys, "fit", "--corpus", "builtin", "--kg", "Wikidata", "--require", req_file, "--cost-model", str(model))
    assert code == 1
    assert out == ""
    assert "cost-overflow" in err


# --- exit codes and diagnostics -----------------------------------------------------


def test_unknown_subcommand_exits_one(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_missing_required_flag_exits_one(capsys):
    code, _, err = run(capsys, "fit", "--corpus", "builtin", "--kg", "Wikidata")
    assert code == 1
    assert "error:" in err


def test_cxt_without_dimension_flag(capsys, cxt_file):
    code, _, err = run(capsys, "lattice", "--context", cxt_file)
    assert code == 1
    assert "dimension-flag-required" in err


def test_json_with_dimension_flag(capsys, tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps({"dimension": "combined", "objects": [], "attributes": [], "incidence": []}))
    code, _, err = run(capsys, "lattice", "--context", str(path), "--dimension", "combined")
    assert code == 1
    assert "dimension-flag-forbidden" in err


def test_context_and_corpus_conflict(capsys, cxt_file):
    code, _, err = run(capsys, "lattice", "--context", cxt_file, "--corpus", "builtin", "--dimension", "combined")
    assert code == 1
    assert "conflicting-input" in err


@pytest.mark.parametrize("argv", [["lattice"], ["fit", "--kg", "LOV", "--require", "req.json"]], ids=["single", "fit"])
def test_no_context_source_exits_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: missing-input: provide --context PATH")


# a file that cannot be read or written is one coded line naming its path, as every other failure is
@pytest.mark.parametrize("command", ["lattice", "validate"])
def test_a_missing_file_is_one_coded_error_line(capsys, tmp_path, command):
    path = str(tmp_path / "missing.json")
    code, out, err = run(capsys, command, "--context", path)
    assert (code, out) == (1, "")
    assert err == f"error: io-error: {os.strerror(errno.ENOENT)}: {path!r}\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device whose every write fails with ENOSPC")
def test_a_failed_write_is_one_coded_error_line(capsys):
    code, out, err = run(capsys, "lattice", "--corpus", "builtin", "--dimension", "combined", "--out", "/dev/full")
    assert (code, out) == (1, "")
    assert err == f"error: io-error: {os.strerror(errno.ENOSPC)}: '/dev/full'\n"


# an empty --out is a path naming no file, not a request for stdout
@pytest.mark.parametrize("argv", [
    ["lattice", "--corpus", "builtin", "--dimension", "combined"],
    ["validate", "--corpus", "builtin", "--dimension", "combined"],
    ["corpus", "verify"],
], ids=["lattice", "validate", "corpus-verify"])
def test_an_empty_out_path_is_one_coded_error_line(capsys, argv):
    code, out, err = run(capsys, *argv, "--out", "")
    assert (code, out) == (1, "")
    assert err == f"error: io-error: {os.strerror(errno.EISDIR)}: ''\n"


@pytest.mark.parametrize("command", ["fit", "delta"])
def test_corpus_with_dimension_flag_rejected_for_profiles(capsys, req_file, command):
    # --corpus builtin loads all four dimensions for fit and delta, so a --dimension would be ignored
    code, out, err = run(capsys, command, "--corpus", "builtin", "--dimension", "combined", "--kg", "LOV", "--require", req_file)
    assert (code, out) == (1, "")
    assert "dimension-flag-forbidden" in err


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "lattice", "--context", "/no/such/file.cxt", "--dimension", "combined")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "count",
    ["\u00b2", "1" * 5000, "\u0661"],
    ids=["superscript-two", "5000-digits", "arabic-indic-one"],
)
def test_cxt_count_outside_ascii_digits_exits_one(capsys, tmp_path, count):
    path = tmp_path / "bad.cxt"
    path.write_text(f"B\n\n{count}\n1\n\ng\nm\nX\n", encoding="utf-8")
    code, out, err = run(capsys, "lattice", "--context", str(path), "--dimension", "combined")
    assert code == 1
    assert out == ""
    assert err.startswith("error: malformed-header: object count must be a decimal count")
    assert err.count("\n") == 1


def test_unknown_kg_exits_one(capsys, req_file):
    code, _, err = run(capsys, "fit", "--corpus", "builtin", "--kg", "Freebase", "--require", req_file)
    assert code == 1
    assert "unknown-object" in err


def test_bad_requirement_json_exits_one(capsys, tmp_path):
    path = tmp_path / "req.json"
    path.write_text("{broken")
    code, _, err = run(capsys, "fit", "--corpus", "builtin", "--kg", "Wikidata", "--require", str(path))
    assert code == 1
    assert "invalid-json" in err


@pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity", "1e400", "true"])
def test_bad_cost_weight_exits_one(capsys, req_file, tmp_path, weight):
    for text in (f'{{"add_weight": {weight}}}', f'{{"overrides": {{"SHACL": {weight}}}}}'):
        model = tmp_path / "cost.json"
        model.write_text(text)
        code, out, err = run(capsys, "fit", "--corpus", "builtin", "--kg", "Wikidata", "--require", req_file, "--cost-model", str(model))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


@pytest.mark.parametrize("flag", ["--context", "--require", "--cost-model"])
def test_non_utf8_input_file_exits_one(capsys, req_file, tmp_path, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b'{"dimension": "combined", "objects": ["g\xff"], "attributes": [], "incidence": [[]]}')
    if flag == "--context":
        argv = ["lattice", "--context", str(bad)]
    elif flag == "--require":
        argv = ["fit", "--corpus", "builtin", "--kg", "Wikidata", "--require", str(bad)]
    else:
        argv = ["fit", "--corpus", "builtin", "--kg", "Wikidata", "--require", req_file, "--cost-model", str(bad)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: invalid-encoding")


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space only on Linux")
def test_running_out_of_memory_is_one_error_line_with_exit_two(tmp_path):
    import resource

    n = 22  # contranominal: 2**22 concepts, gigabytes of lattice
    context = tmp_path / "contranominal.json"
    context.write_text(json.dumps({
        "dimension": "combined",
        "objects": [f"g{i}" for i in range(n)],
        "attributes": [f"m{j}" for j in range(n)],
        "incidence": [[int(i != j) for j in range(n)] for i in range(n)],
    }))
    target = tmp_path / "lattice.json"
    cap = 96 * 2**20  # about four times the address space of the interpreter with the package loaded
    proc = subprocess.run(
        [sys.executable, "-m", "kgcontinuum", "lattice", "--context", str(context), "--out", str(target)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: resource-exhausted: ") and len(proc.stderr.splitlines()) == 1, proc.stderr
    assert not target.exists()


BOM = "\ufeff".encode()


def test_bom_prefixed_contexts_give_the_same_lattice(capsys, cxt_file, tmp_path):
    json_file = tmp_path / "toy.json"
    json_file.write_text(json.dumps({
        "dimension": "semantic-property",
        "objects": ["g1", "g2"],
        "attributes": ["m1", "m2"],
        "incidence": [[1, 0], [1, 1]],
    }))
    for path, flags in [(Path(cxt_file), ["--dimension", "combined"]), (json_file, [])]:
        code, plain, _ = run(capsys, "lattice", "--context", str(path), *flags)
        assert code == 0
        bom = tmp_path / f"bom-{path.name}"
        bom.write_bytes(BOM + path.read_bytes())
        code, out, err = run(capsys, "lattice", "--context", str(bom), *flags)
        assert (code, err) == (0, "")
        assert out == plain


def test_bom_prefixed_requirement_file(capsys, req_file, tmp_path):
    code, plain, _ = run(capsys, "fit", "--corpus", "builtin", "--kg", "Wikidata", "--require", req_file)
    assert code == 0
    bom = tmp_path / "bom-req.json"
    bom.write_bytes(BOM + Path(req_file).read_bytes())
    code, out, err = run(capsys, "fit", "--corpus", "builtin", "--kg", "Wikidata", "--require", str(bom))
    assert (code, err) == (0, "")
    assert out == plain


def test_combined_context_rejected_for_fit(capsys, req_file, tmp_path):
    path = tmp_path / "combined.json"
    path.write_text(json.dumps({
        "dimension": "combined",
        "objects": ["g"],
        "attributes": ["m"],
        "incidence": [[1]],
    }))
    code, _, err = run(capsys, "fit", "--context", str(path), "--kg", "g", "--require", req_file)
    assert code == 1
    assert "combined-dimension" in err


def test_integrity_failure_exits_two(capsys, monkeypatch):
    def boom():
        raise IntegrityError("corpus-corrupt", "synthetic failure")

    monkeypatch.setattr(corpus_module, "load_corpus", boom)  # cli imports it when the command runs
    code, _, err = run(capsys, "corpus", "verify")
    assert code == 2
    assert "corpus-corrupt" in err


def test_golden_mismatch_exits_two(capsys, monkeypatch):
    report = ValidationReport(errors=(Finding("missing-golden-concept", "synthetic", "pragmatic-property"),))
    monkeypatch.setattr(corpus_module, "verify_corpus", lambda _: report)
    code, out, _ = run(capsys, "corpus", "verify")
    assert code == 2
    assert json.loads(out)["errors"][0]["code"] == "missing-golden-concept"


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--help"])
    assert exit_info.value.code == 0


# --- process exit ------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,want",
    [
        (["lattice", "--corpus", "builtin", "--dimension", "pragmatic-property"], 0),
        (["lattice", "--corpus", "builtin"], 1),
        (["corpus", "verify"], 2),
    ],
    ids=["ok", "input-error", "golden-mismatch"],
)
def test_entrypoint_freezes_the_heap_once_after_writing(capsys, monkeypatch, argv, want):
    report = ValidationReport(errors=(Finding("missing-golden-concept", "synthetic", "pragmatic-property"),))
    monkeypatch.setattr(corpus_module, "verify_corpus", lambda _: report)
    expected = run(capsys, *argv)
    # the recorder stands in for gc.freeze, so the test process keeps a normal collector
    seen = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: seen.append(capsys.readouterr()))
    monkeypatch.setattr(sys, "argv", ["kgcontinuum", *argv])
    with pytest.raises(SystemExit) as exit_info:
        cli.entrypoint()
    assert exit_info.value.code == expected[0] == want
    assert [(c.out, c.err) for c in seen] == [expected[1:]]  # once, with everything already written
    assert capsys.readouterr() == ("", "")


def test_console_exit_runs_with_a_frozen_heap():
    probe = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "sys.argv = ['kgcontinuum', 'lattice', '--corpus', 'builtin', '--dimension', 'combined']\n"
        "from kgcontinuum.cli import entrypoint\n"
        "entrypoint()\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == "True\n"
    assert json.loads(proc.stdout)["top"].startswith("c")


# --- diagnostics styling ---------------------------------------------------------


class _TtyStderr:
    def __init__(self, wrapped):
        self._wrapped = wrapped

    def isatty(self):
        return True

    def __getattr__(self, name):
        return getattr(self._wrapped, name)


def test_stderr_color_on_tty(capsys, monkeypatch):
    import sys

    monkeypatch.delenv("CONTINUUM_NO_COLOR", raising=False)
    monkeypatch.setattr(sys, "stderr", _TtyStderr(sys.stderr))
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "\x1b[31m" in err


def test_no_color_env_disables_styling(capsys, monkeypatch):
    import sys

    monkeypatch.setenv("CONTINUUM_NO_COLOR", "1")
    monkeypatch.setattr(sys, "stderr", _TtyStderr(sys.stderr))
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "\x1b[" not in err


# --- determinism -------------------------------------------------------------------


def test_repeated_runs_are_byte_identical(capsys, req_file):
    variants = [
        ["lattice", "--corpus", "builtin", "--dimension", "combined"],
        ["legend", "--corpus", "builtin", "--dimension", "semantic-property", "--format", "csv"],
        ["dot", "--corpus", "builtin", "--dimension", "pragmatic-affordance", "--labels", "id+intent"],
        ["implications", "--corpus", "builtin", "--dimension", "semantic-affordance"],
        ["fit", "--corpus", "builtin", "--kg", "Wikidata", "--require", req_file],
        ["corpus", "export", "--dimension", "combined"],
    ]
    for argv in variants:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[1].encode("utf-8") == second[1].encode("utf-8")
