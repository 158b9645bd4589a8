"""Characterise knowledge graphs as formal contexts and concept lattices.

The package models what a knowledge graph says (properties) and what it lets
users do (affordances) as binary incidence tables, derives the complete
concept lattice and implication basis of each table, and answers fitness,
gap, and migration questions against community requirements. A case-study
corpus of ten public knowledge graphs ships embedded, together with golden
results for self-verification.

Submodules load on first use (PEP 562): ``import kgcontinuum`` imports none
of them, and ``kgcontinuum.build_lattice`` imports ``fca`` the first time it
is read.
"""

import importlib

# exported name -> defining submodule, in __all__ order
_EXPORTS = {
    name: module
    for module, names in (
        ("context", (
            "PER_DIMENSION",
            "Dimension",
            "FeatureRegistry",
            "Finding",
            "FormalContext",
            "RegistryEntry",
            "ValidationReport",
            "attribute_frequency",
            "merge_contexts",
            "normalize_name",
            "parse_cxt",
            "parse_json_context",
            "register_feature",
            "registry_from_contexts",
            "serialize_cxt",
            "serialize_json_context",
            "singleton_features",
            "universal_features",
            "validate_context",
            "validation_json",
        )),
        ("corpus", ("KG_NAMES", "ProvenanceCorpus", "load_corpus", "verify_corpus")),
        ("errors", ("ContinuumError", "InputError", "IntegrityError")),
        ("fca", (
            "ConceptLattice",
            "FormalConcept",
            "Implication",
            "build_lattice",
            "close_attributes",
            "close_under_implications",
            "derive_attributes",
            "derive_objects",
            "enumerate_concepts",
            "follows_from",
            "implication_basis",
            "implication_holds",
            "join",
            "lattice_json",
            "meet",
            "next_closure",
        )),
        ("profiles", (
            "CostModel",
            "FeatureDelta",
            "FitnessReport",
            "KgProfile",
            "RequirementSet",
            "common_position",
            "cost_model_from_json",
            "delta_json",
            "evaluate_fitness",
            "fitness_json",
            "gap_cost",
            "object_concept",
            "profile_of",
            "requirement_from_json",
            "transformation_delta",
        )),
        ("render", ("EMPTY_MARK", "Legend", "assign_layers", "legend", "to_dot")),
    )
    for name in names
}
_SUBMODULES = tuple(dict.fromkeys(_EXPORTS.values()))

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it in this namespace
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups are plain dict hits and skip this function
    return value


def __dir__():
    return [*__all__, *_SUBMODULES]
