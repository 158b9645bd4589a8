"""Embedded provenance case-study data and its golden self-check.

Ten public knowledge graphs characterised along four dimensions. The data
ships inside the package together with the expected concept sets of each
per-dimension lattice, so an installation can verify that analysis results
reproduce the published tables bit for bit.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from types import MappingProxyType

from .context import (
    PER_DIMENSION,
    Dimension,
    Finding,
    FormalContext,
    ValidationReport,
    _Frozen,
    _set_field,
    _typed,
    json_object,
    merge_contexts,
)
from .errors import InputError, IntegrityError
from .fca import FormalConcept, enumerate_concepts

# the interpreter's builtin SHA-256, which binds no OpenSSL; hashlib, which does, only for a
# build configured without the builtin hashes. All three give the same digest
try:
    from _sha2 import sha256 as _sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

#: The ten case-study knowledge graphs, in declaration order.
KG_NAMES = (
    "Europeana",
    "Google Data Commons",
    "Bio2RDF",
    "British Museum ResearchSpace",
    "UniProt",
    "Wikidata",
    "EU ODP",
    "DBpedia",
    "LOV",
    "Nanopublications",
)

_ATTRIBUTE_COUNTS = {
    Dimension.SEMANTIC_PROPERTY: 14,
    Dimension.SEMANTIC_AFFORDANCE: 10,
    Dimension.PRAGMATIC_PROPERTY: 7,
    Dimension.PRAGMATIC_AFFORDANCE: 11,
}

_PAYLOAD = os.path.join(os.path.dirname(__file__), "data", "provenance_corpus.json")


class ProvenanceCorpus(_Frozen):
    """The four per-dimension contexts, their merge, and golden concept sets."""

    contexts: Mapping[Dimension, FormalContext]
    combined: FormalContext
    golden: Mapping[Dimension, tuple[FormalConcept, ...]]

    def __init__(
        self,
        contexts: Mapping[Dimension, FormalContext],
        combined: FormalContext,
        golden: Mapping[Dimension, tuple[FormalConcept, ...]],
    ) -> None:
        _set_field(self, "contexts", contexts)
        _set_field(self, "combined", combined)
        _set_field(self, "golden", golden)


def payload_checksum(payload: dict) -> str:
    """SHA-256 over the canonical JSON form of {"contexts", "golden"}."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return _sha256(canonical.encode("utf-8")).hexdigest()


def _read_payload() -> bytes:
    """The embedded payload's bytes, read by the loader that imported this module.

    The loader reads from a directory, an installed wheel or a zip archive alike.
    """
    return __loader__.get_data(_PAYLOAD)


def _corrupt(detail: str) -> IntegrityError:
    return IntegrityError("corpus-corrupt", detail)


def load_corpus() -> ProvenanceCorpus:
    """Load and checksum the embedded corpus; every flaw in it raises IntegrityError("corpus-corrupt")."""
    try:
        doc = json_object(_read_payload().decode("utf-8"), ("contexts", "golden", "checksum"))
        if doc["checksum"] != payload_checksum({"contexts": doc["contexts"], "golden": doc["golden"]}):
            raise _corrupt("embedded corpus failed its transcription checksum")
        contexts: dict[Dimension, FormalContext] = {}
        for raw in doc["contexts"]:
            ctx = FormalContext(Dimension.from_tag(raw["dimension"]), raw["objects"], raw["attributes"], raw["incidence"])
            contexts[ctx.dimension] = ctx
        golden = {
            Dimension.from_tag(tag): tuple(
                FormalConcept(frozenset(pair["extent"]), frozenset(pair["intent"])) for pair in pairs
            )
            for tag, pairs in doc["golden"].items()
        }
    except (OSError, UnicodeDecodeError, InputError) as exc:
        raise _corrupt(f"embedded corpus unreadable: {exc}") from None
    # the block reads sealed package data only, so a lookup or a conversion that fails on
    # a wrong shape under a regenerated checksum marks the payload corrupt, not a caller's error
    except (KeyError, TypeError, AttributeError) as exc:
        raise _corrupt(f"embedded corpus has the wrong shape: {type(exc).__name__}: {exc}") from None

    for dim, expected in _ATTRIBUTE_COUNTS.items():
        ctx = contexts.get(dim)
        if ctx is None:
            raise _corrupt(f"missing context for {dim.value}")
        if ctx.objects != KG_NAMES:
            raise _corrupt(f"object roster of {dim.value} does not match the case study")
        if len(ctx.attributes) != expected:
            raise _corrupt(f"{dim.value} should have {expected} attributes, found {len(ctx.attributes)}")
        if dim not in golden:
            raise _corrupt(f"missing golden concepts for {dim.value}")

    combined = merge_contexts([contexts[d] for d in PER_DIMENSION])
    return ProvenanceCorpus(MappingProxyType(contexts), combined, MappingProxyType(golden))


def _describe(concept: FormalConcept) -> str:
    extent = ", ".join(sorted(concept.extent)) or "(empty)"
    intent = ", ".join(sorted(concept.intent)) or "(empty)"
    return f"extent [{extent}] / intent [{intent}]"


def verify_corpus(corpus: ProvenanceCorpus) -> ValidationReport:
    """Recompute every per-dimension lattice and compare against the golden sets.

    A concept the golden set lacks is reported as missing-golden-concept; a
    golden concept the recomputation no longer produces is stale-golden-concept.
    """
    _typed(corpus, ProvenanceCorpus, "a corpus must be a ProvenanceCorpus")
    findings: list[Finding] = []
    for dim in PER_DIMENSION:
        ctx = corpus.contexts[dim]
        computed = set(enumerate_concepts(ctx))
        expected = set(corpus.golden.get(dim, ()))
        key = lambda c: (len(c.extent), tuple(sorted(c.extent)), tuple(sorted(c.intent)))
        for concept in sorted(computed - expected, key=key):
            findings.append(Finding("missing-golden-concept", _describe(concept), dim.value))
        for concept in sorted(expected - computed, key=key):
            findings.append(Finding("stale-golden-concept", _describe(concept), dim.value))
    return ValidationReport(errors=tuple(findings), warnings=())
