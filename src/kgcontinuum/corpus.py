"""Embedded provenance case-study data and its golden self-check.

Ten public knowledge graphs characterised along four dimensions. The data
ships inside the package together with the expected concept sets of each
per-dimension lattice, so an installation can verify that analysis results
reproduce the published tables bit for bit.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Mapping
from functools import cached_property
from types import MappingProxyType

from .context import (
    PER_DIMENSION,
    Dimension,
    Finding,
    FormalContext,
    ValidationReport,
    _Frozen,
    _instances,
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
    """The four per-dimension contexts and their golden concept sets; combined, their merge, derives on first use.

    The constructor checks that contexts maps exactly the PER_DIMENSION
    axes, each to a FormalContext of that dimension, and that golden maps
    the same four, each to a collection of FormalConcept values, which it
    stores as a tuple.
    """

    contexts: Mapping[Dimension, FormalContext]
    golden: Mapping[Dimension, tuple[FormalConcept, ...]]

    def __init__(
        self,
        contexts: Mapping[Dimension, FormalContext],
        golden: Mapping[Dimension, Iterable[FormalConcept]],
    ) -> None:
        _per_dimension(contexts, "contexts")
        _per_dimension(golden, "golden concept sets")
        for d in PER_DIMENSION:
            ctx = _typed(contexts[d], FormalContext, "corpus contexts must be FormalContext values")
            if ctx.dimension is not d:
                raise InputError("schema-violation", f"the {d.value} context is tagged {ctx.dimension.value}", location=d.value)
        _set_field(self, "contexts", MappingProxyType({d: contexts[d] for d in PER_DIMENSION}))
        _set_field(self, "golden", MappingProxyType({
            d: _instances(golden[d], FormalConcept, f"{d.value} golden concepts") for d in PER_DIMENSION
        }))

    @cached_property
    def combined(self) -> FormalContext:
        """The merge of the four contexts; an InputError for hand-built contexts whose objects disagree."""
        return merge_contexts([self.contexts[d] for d in PER_DIMENSION])


def _per_dimension(mapping: Mapping[Dimension, object], what: str) -> None:
    """Anything but a mapping keyed by exactly the PER_DIMENSION axes raises InputError("schema-violation")."""
    if _typed(mapping, Mapping, f"corpus {what} must be a mapping").keys() != set(PER_DIMENSION):
        raise InputError("schema-violation", f"corpus {what} must be keyed by exactly the four per-dimension axes")


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
            Dimension.from_tag(tag): [FormalConcept(pair["extent"], pair["intent"]) for pair in pairs]
            for tag, pairs in doc["golden"].items()
        }
        corpus = ProvenanceCorpus(contexts, golden)
    except (OSError, UnicodeDecodeError, InputError) as exc:
        raise _corrupt(f"embedded corpus unreadable: {exc}") from None
    # the block reads sealed package data only, so a lookup or a conversion that fails on
    # a wrong shape under a regenerated checksum marks the payload corrupt, not a caller's error
    except (KeyError, TypeError, AttributeError) as exc:
        raise _corrupt(f"embedded corpus has the wrong shape: {type(exc).__name__}: {exc}") from None

    for dim, expected in _ATTRIBUTE_COUNTS.items():
        ctx = corpus.contexts[dim]
        if ctx.objects != KG_NAMES:
            raise _corrupt(f"object roster of {dim.value} does not match the case study")
        if len(ctx.attributes) != expected:
            raise _corrupt(f"{dim.value} should have {expected} attributes, found {len(ctx.attributes)}")
    return corpus


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
        computed = set(enumerate_concepts(corpus.contexts[dim]))
        expected = set(corpus.golden[dim])
        key = lambda c: (len(c.extent), tuple(sorted(c.extent)), tuple(sorted(c.intent)))
        for concept in sorted(computed - expected, key=key):
            findings.append(Finding._of("missing-golden-concept", _describe(concept), dim.value))
        for concept in sorted(expected - computed, key=key):
            findings.append(Finding._of("stale-golden-concept", _describe(concept), dim.value))
    return ValidationReport._of(tuple(findings), ())
