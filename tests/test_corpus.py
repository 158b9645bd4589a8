"""Embedded corpus integrity, golden reproduction, and tamper detection."""

import json
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import kgcontinuum.corpus as corpus_module
from kgcontinuum import (
    KG_NAMES,
    PER_DIMENSION,
    Dimension,
    FormalConcept,
    FormalContext,
    InputError,
    IntegrityError,
    ProvenanceCorpus,
    ValidationReport,
    load_corpus,
    merge_contexts,
    verify_corpus,
)
from kgcontinuum.cli import main

from helpers import corpus

EXPECTED_CHECKSUM = "78421ba0e7ddb52f2d31a699ee176fe7cfaf97322c1f07f1474380007d661e27"

GOLDEN_COUNTS = {
    Dimension.SEMANTIC_PROPERTY: 30,
    Dimension.SEMANTIC_AFFORDANCE: 25,
    Dimension.PRAGMATIC_PROPERTY: 10,
    Dimension.PRAGMATIC_AFFORDANCE: 24,
}

ATTRIBUTE_COUNTS = {
    Dimension.SEMANTIC_PROPERTY: 14,
    Dimension.SEMANTIC_AFFORDANCE: 10,
    Dimension.PRAGMATIC_PROPERTY: 7,
    Dimension.PRAGMATIC_AFFORDANCE: 11,
}


def _shipped_doc():
    return json.loads(corpus_module._read_payload().decode("utf-8"))


def test_corpus_shape():
    c = corpus()
    assert set(c.contexts) == set(ATTRIBUTE_COUNTS)
    for dim, ctx in c.contexts.items():
        assert ctx.objects == KG_NAMES
        assert len(ctx.attributes) == ATTRIBUTE_COUNTS[dim]
        assert len(c.golden[dim]) == GOLDEN_COUNTS[dim]
    assert len(c.combined.attributes) == 42
    assert c.combined.objects == KG_NAMES


def test_combined_is_the_merge_of_the_four_contexts_derived_on_first_use():
    c = load_corpus()
    assert "combined" not in vars(c)  # loading merges nothing
    assert c.combined == merge_contexts([c.contexts[d] for d in PER_DIMENSION])
    assert vars(c)["combined"] is c.combined
    assert ProvenanceCorpus._fields == ("contexts", "golden")


def test_transcription_checksum_frozen():
    doc = _shipped_doc()
    assert doc["checksum"] == EXPECTED_CHECKSUM
    assert corpus_module.payload_checksum({"contexts": doc["contexts"], "golden": doc["golden"]}) == EXPECTED_CHECKSUM


def test_verify_clean_corpus():
    report = verify_corpus(corpus())
    assert report.ok
    assert report.warnings == ()


def _with_flipped_cell(c, dim):
    ctx = c.contexts[dim]
    rows = [list(r) for r in ctx.incidence]
    rows[0][0] = not rows[0][0]
    tampered = FormalContext(dim, ctx.objects, ctx.attributes, tuple(tuple(r) for r in rows))
    contexts = dict(c.contexts)
    contexts[dim] = tampered
    return ProvenanceCorpus(contexts, c.golden)


def test_verify_detects_flipped_incidence():
    report = verify_corpus(_with_flipped_cell(corpus(), Dimension.PRAGMATIC_PROPERTY))
    assert not report.ok
    codes = {f.code for f in report.errors}
    assert "missing-golden-concept" in codes or "stale-golden-concept" in codes
    assert all(f.location == "pragmatic-property" for f in report.errors)


def test_verify_detects_deleted_golden_row():
    c = corpus()
    golden = dict(c.golden)
    golden[Dimension.PRAGMATIC_PROPERTY] = golden[Dimension.PRAGMATIC_PROPERTY][1:]
    report = verify_corpus(ProvenanceCorpus(c.contexts, golden))
    assert [f.code for f in report.errors] == ["missing-golden-concept"]


def test_verify_detects_fabricated_golden_row():
    c = corpus()
    fake = FormalConcept(frozenset(["Europeana", "UniProt"]), frozenset(["PROV-O"]))
    golden = dict(c.golden)
    golden[Dimension.PRAGMATIC_PROPERTY] = golden[Dimension.PRAGMATIC_PROPERTY] + (fake,)
    report = verify_corpus(ProvenanceCorpus(c.contexts, golden))
    assert [f.code for f in report.errors] == ["stale-golden-concept"]


# a golden concept's names, rewritten: whitespace around a name normalizes away, and a name that is not a string is no name
GOLDEN_REWRITES = [
    ("padded", lambda names: [f" {name}\t" for name in names], None),
    ("list", lambda names: [list(names)], "schema-violation"),
    ("int", lambda names: [1], "schema-violation"),
    ("mixed", lambda names: [*names, 1], "schema-violation"),
]


@pytest.mark.parametrize("rewrite,code", [row[1:] for row in GOLDEN_REWRITES], ids=[row[0] for row in GOLDEN_REWRITES])
def test_verify_reads_golden_names_as_the_concept_normalizes_them(rewrite, code):
    c = corpus()

    def golden():
        return {d: [FormalConcept(rewrite(sorted(g.extent)), rewrite(sorted(g.intent))) for g in c.golden[d]] for d in PER_DIMENSION}

    if code is None:
        assert verify_corpus(ProvenanceCorpus(c.contexts, golden())) == ValidationReport((), ())
    else:
        with pytest.raises(InputError) as err:
            golden()
        assert err.value.code == code


def _serve(monkeypatch, payload):
    """Make load_corpus read payload, text or bytes, in place of the shipped file."""
    data = payload if isinstance(payload, bytes) else payload.encode("utf-8")
    monkeypatch.setattr(corpus_module, "_read_payload", lambda: data)


def test_load_corpus_detects_tampered_payload(monkeypatch):
    doc = _shipped_doc()
    doc["contexts"][0]["incidence"][0][0] ^= 1  # checksum now stale
    _serve(monkeypatch, json.dumps(doc))
    with pytest.raises(IntegrityError) as err:
        load_corpus()
    assert err.value.code == "corpus-corrupt"


def test_load_corpus_detects_unreadable_payload(monkeypatch):
    _serve(monkeypatch, "{nope")
    with pytest.raises(IntegrityError) as err:
        load_corpus()
    assert err.value.code == "corpus-corrupt"


def test_golden_concepts_are_actual_concepts():
    c = corpus()
    for dim, pairs in c.golden.items():
        ctx = c.contexts[dim]
        for concept in pairs:
            # each golden pair is a Galois fixpoint of its context
            holders = [set(ctx.features_of(o)) for o in concept.extent]
            if holders:
                assert frozenset(set.intersection(*holders)) == concept.intent
            assert concept.extent == frozenset(
                o for o in ctx.objects if concept.intent <= ctx.features_of(o)
            )


def _resealed(edit):
    """The shipped payload after edit, with its checksum regenerated so that only the edit is wrong."""
    doc = _shipped_doc()
    edit(doc)
    doc["checksum"] = corpus_module.payload_checksum({"contexts": doc["contexts"], "golden": doc["golden"]})
    return json.dumps(doc)


def _duplicate_object(doc):
    doc["contexts"][0]["objects"][1] = doc["contexts"][0]["objects"][0]


def _unknown_golden_tag(doc):
    doc["golden"]["no-such-dimension"] = doc["golden"].pop("pragmatic-property")


def _reversed_roster(doc):
    for raw in doc["contexts"]:
        raw["objects"].reverse()
        raw["incidence"].reverse()


def _dropped_attribute(doc):
    raw = next(c for c in doc["contexts"] if c["dimension"] == "semantic-affordance")
    raw["attributes"].pop()
    for row in raw["incidence"]:
        row.pop()


def _context_as_list(doc):
    doc["contexts"][0] = list(doc["contexts"][0].values())


def _golden_pair_as_list(doc):
    pairs = doc["golden"]["semantic-property"]
    pairs[0] = [pairs[0]["extent"], pairs[0]["intent"]]


# every flaw in the embedded payload is corpus-corrupt, never a traceback or an InputError
CORRUPT_PAYLOADS = [
    ("non-utf8", lambda: b"\xff" + json.dumps(_shipped_doc()).encode(), "unreadable: 'utf-8' codec can't decode"),
    ("not-an-object", lambda: "[1]", "unreadable: schema-violation: top level must be an object"),
    ("missing-section", lambda: json.dumps({"contexts": [], "golden": {}}), "unreadable: schema-violation: missing keys: 'checksum'"),
    ("duplicate-object", lambda: _resealed(_duplicate_object), "unreadable: duplicate-object:"),
    # the last copy of the key is the right checksum, which json.loads alone would accept
    ("duplicate-key", lambda: _resealed(lambda d: None).replace('"checksum": ', '"checksum": "stale", "checksum": ', 1),
     "unreadable: invalid-json: duplicate key 'checksum'"),
    ("unknown-golden-tag", lambda: _resealed(_unknown_golden_tag), "unreadable: unknown-dimension:"),
    ("missing-context", lambda: _resealed(lambda d: d["contexts"].pop()), "unreadable: schema-violation: corpus contexts must be keyed by exactly the four per-dimension axes"),
    ("wrong-roster", lambda: _resealed(_reversed_roster), "object roster of semantic-property does not match"),
    ("wrong-attribute-count", lambda: _resealed(_dropped_attribute), "semantic-affordance should have 10 attributes, found 9"),
    ("missing-golden", lambda: _resealed(lambda d: d["golden"].pop("pragmatic-affordance")), "unreadable: schema-violation: corpus golden concept sets must be keyed by exactly the four per-dimension axes"),
    ("context-without-objects", lambda: _resealed(lambda d: d["contexts"][0].pop("objects")), "wrong shape: KeyError: 'objects'"),
    ("context-as-list", lambda: _resealed(_context_as_list), "wrong shape: TypeError:"),
    ("contexts-as-object", lambda: _resealed(lambda d: d.update(contexts={c["dimension"]: c for c in d["contexts"]})), "wrong shape: TypeError:"),
    ("golden-as-list", lambda: _resealed(lambda d: d.update(golden=list(d["golden"].values()))), "wrong shape: AttributeError:"),
    ("golden-pair-as-list", lambda: _resealed(_golden_pair_as_list), "wrong shape: TypeError:"),
    ("golden-pair-without-intent", lambda: _resealed(lambda d: d["golden"]["semantic-property"][0].pop("intent")), "wrong shape: KeyError: 'intent'"),
    ("extent-holding-a-list", lambda: _resealed(lambda d: d["golden"]["semantic-property"][0]["extent"].append(["Europeana"])), "unreadable: schema-violation: a name must be a string, not list"),
]


@pytest.mark.parametrize("payload,message", [row[1:] for row in CORRUPT_PAYLOADS], ids=[row[0] for row in CORRUPT_PAYLOADS])
def test_load_corpus_reports_every_flaw_as_corpus_corrupt(monkeypatch, payload, message):
    _serve(monkeypatch, payload())
    with pytest.raises(IntegrityError) as err:
        load_corpus()
    assert err.value.code == "corpus-corrupt"
    assert message in err.value.message


def test_cli_exits_two_on_a_corrupt_payload(monkeypatch, capsys):
    text = _resealed(_duplicate_object)
    _serve(monkeypatch, text)
    assert main(["lattice", "--corpus", "builtin", "--dimension", "combined"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: corpus-corrupt: embedded corpus unreadable: duplicate-object:")


def test_cli_exits_two_on_a_payload_of_the_wrong_shape(monkeypatch, capsys):
    text = _resealed(lambda d: d["contexts"][0].pop("objects"))
    _serve(monkeypatch, text)
    assert main(["corpus", "verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: corpus-corrupt: embedded corpus has the wrong shape: KeyError: 'objects'\n"


def test_zip_import_reads_the_payload_through_the_zip(tmp_path):
    package = Path(corpus_module.__file__).parent
    archive = tmp_path / "kgcontinuum.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(package.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(package.parent).as_posix())
    # prints where the CLI was imported from, then runs the command in sys.argv[1:]
    script = "import sys, kgcontinuum.cli as cli; print(cli.__file__, file=sys.stderr); cli.entrypoint()"
    proc = subprocess.run(
        [sys.executable, "-c", script, "corpus", "verify"],
        capture_output=True, text=True, cwd=tmp_path, env={"PYTHONPATH": str(archive)}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"{archive / 'kgcontinuum' / 'cli.py'}\n"
    assert json.loads(proc.stdout) == {"errors": [], "warnings": []}


# hides both builtin SHA-256 modules, so corpus falls back to hashlib
FALLBACK = """
import hashlib, json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import kgcontinuum.corpus as corpus
corpus.load_corpus()
doc = json.loads(corpus._read_payload().decode("utf-8"))
checksum = corpus.payload_checksum({"contexts": doc["contexts"], "golden": doc["golden"]})
print(json.dumps({"hashlib": corpus._sha256 is hashlib.sha256, "checksum": checksum}))
"""


def test_checksum_falls_back_to_hashlib_without_the_builtin_hashes():
    src = str(Path(corpus_module.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", FALLBACK], capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"hashlib": True, "checksum": EXPECTED_CHECKSUM}
