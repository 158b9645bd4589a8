"""KG feature profiles, requirement fitness, gap costs, and transformation deltas."""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping
from itertools import compress
from types import MappingProxyType

from .context import (
    Dimension,
    FeatureRegistry,
    FormalContext,
    _collection,
    _contexts,
    _Frozen,
    _set_field,
    _typed,
    json_object,
    normalize_name,
)
from .errors import InputError
from .fca import ConceptLattice, _extent_mask, _intent_mask, _obj_mask

_DIMENSION_ORDER = {d: i for i, d in enumerate(Dimension)}
_TAG = {d: d.value for d in Dimension}  # Enum.value is a Python-level descriptor; read each tag once
_NO_OVERRIDES: Mapping[str, float] = MappingProxyType({})  # CostModel's default, shared because no one can change it


def _dimensions(*maps: Mapping[Dimension, object]) -> list[Dimension]:
    """Every key of the maps once, in Dimension declaration order; every key must be a Dimension, as _freeze checks."""
    return sorted(set().union(*maps), key=_DIMENSION_ORDER.__getitem__)


def _sides(
    have: Mapping[Dimension, frozenset[str]], want: Mapping[Dimension, frozenset[str]]
) -> Iterator[tuple[Dimension, frozenset[str], frozenset[str]]]:
    """(dimension, have, want) for every dimension either side names; a side that lacks it is empty."""
    for d in _dimensions(have, want):
        yield d, have.get(d, frozenset()), want.get(d, frozenset())


def _freeze(features: Mapping[Dimension, Iterable[str]]) -> Mapping[Dimension, frozenset[str]]:
    for d in _typed(features, Mapping, "feature sets must be a mapping keyed by Dimension members"):
        _typed(d, Dimension, "feature sets must be a mapping keyed by Dimension members")
    return MappingProxyType({
        d: frozenset(map(normalize_name, _collection(features[d], f"{d.value} features"))) for d in _dimensions(features)
    })


class KgProfile(_Frozen):
    """Feature sets one knowledge graph exhibits, keyed by dimension.

    The constructor normalizes the KG name and every feature name, so a
    hand-built profile compares with context and registry names; profile_of
    builds with _of.
    """

    kg: str
    features: Mapping[Dimension, frozenset[str]]

    def __init__(self, kg: str, features: Mapping[Dimension, Iterable[str]]) -> None:
        _set_field(self, "kg", normalize_name(kg))
        _set_field(self, "features", _freeze(features))


class RequirementSet(_Frozen):
    """Features a community needs for a task, keyed by dimension."""

    community: str
    task: str
    required: Mapping[Dimension, frozenset[str]]

    def __init__(self, community: str, task: str, required: Mapping[Dimension, Iterable[str]]) -> None:
        _set_field(self, "community", _typed(community, str, "community must be a string"))
        _set_field(self, "task", _typed(task, str, "task must be a string"))
        _set_field(self, "required", _freeze(required))


class FitnessReport(_Frozen):
    """Per-dimension split of a requirement's features against a profile's.

    The constructor computes the three maps from a profile and a requirement,
    keyed by every dimension either names, in Dimension order. fit is true
    exactly when every gap set is empty; an empty requirement is trivially fit.
    """

    satisfied: Mapping[Dimension, frozenset[str]]
    gap: Mapping[Dimension, frozenset[str]]
    surplus: Mapping[Dimension, frozenset[str]]

    def __init__(self, profile: KgProfile, requirement: RequirementSet) -> None:
        _typed(profile, KgProfile, "a profile must be a KgProfile")
        _typed(requirement, RequirementSet, "a requirement must be a RequirementSet")
        satisfied: dict[Dimension, frozenset[str]] = {}
        gap: dict[Dimension, frozenset[str]] = {}
        surplus: dict[Dimension, frozenset[str]] = {}
        for dim, exhibited, required in _sides(profile.features, requirement.required):
            satisfied[dim] = required & exhibited
            gap[dim] = required - exhibited
            surplus[dim] = exhibited - required
        _set_field(self, "satisfied", MappingProxyType(satisfied))
        _set_field(self, "gap", MappingProxyType(gap))
        _set_field(self, "surplus", MappingProxyType(surplus))

    @property
    def fit(self) -> bool:
        return not any(self.gap.values())


class FeatureDelta(_Frozen):
    """Features to add and to remove in one dimension.

    The constructor normalizes every feature name, as KgProfile's does;
    transformation_delta builds with _of.
    """

    add: frozenset[str]
    remove: frozenset[str]

    def __init__(self, add: Iterable[str], remove: Iterable[str]) -> None:
        _set_field(self, "add", frozenset(map(normalize_name, _collection(add, "added features"))))
        _set_field(self, "remove", frozenset(map(normalize_name, _collection(remove, "removed features"))))


def _weight(value: float) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InputError("schema-violation", "cost weights must be numbers")
    try:
        weight = float(value)
    except OverflowError:  # an int beyond the float range
        weight = math.inf
    if not 0 <= weight < math.inf:  # NaN fails every comparison
        raise InputError("invalid-weight", "cost weights must be finite, non-negative numbers")
    return weight


class CostModel(_Frozen):
    """Weights for feature additions and removals; overrides are per feature name."""

    add_weight: float
    remove_weight: float
    overrides: Mapping[str, float]

    def __init__(
        self, add_weight: float = 1.0, remove_weight: float = 0.0, overrides: Mapping[str, float] = _NO_OVERRIDES
    ) -> None:
        weights: dict[str, float] = {}
        for key, value in _typed(overrides, Mapping, "overrides must map feature names to numbers").items():
            name = normalize_name(key)
            if name in weights:
                raise InputError("duplicate-feature", f"feature {name!r} has two overrides", location=name)
            weights[name] = _weight(value)
        _set_field(self, "add_weight", _weight(add_weight))
        _set_field(self, "remove_weight", _weight(remove_weight))
        _set_field(self, "overrides", MappingProxyType(weights))

    def add_cost(self, feature: str) -> float:
        return self.overrides.get(feature, self.add_weight)

    def remove_cost(self, feature: str) -> float:
        return self.overrides.get(feature, self.remove_weight)


def profile_of(contexts: Iterable[FormalContext], kg: str) -> KgProfile:
    """Collect one KG's features from per-dimension contexts.

    Only the KG name is normalized here. The features are read from the
    KG's incidence row in each context, whose names FormalContext has
    already normalized, so the profile is built without normalizing them
    again. Contexts of one dimension contribute the union of their rows.
    """
    name = normalize_name(kg)
    features: dict[Dimension, frozenset[str]] = {}
    for ctx in _contexts(contexts):
        row = ctx.object_index.get(name)
        if row is None:
            raise InputError("unknown-object", f"unknown object {name!r}")
        exhibited = frozenset(compress(ctx.attributes, ctx.incidence[row]))
        dim = ctx.dimension
        features[dim] = features[dim] | exhibited if dim in features else exhibited
    if not features:
        raise InputError("missing-input", "no contexts supplied")
    return KgProfile._of(name, MappingProxyType({d: features[d] for d in _dimensions(features)}))


def _check_registered(role: str, features: Mapping[Dimension, frozenset[str]], registry: FeatureRegistry) -> None:
    # features are normalized on construction, so they compare directly with registered names
    known = _typed(registry, FeatureRegistry, "a registry must be a FeatureRegistry")._names_by_dimension
    for dim, feats in features.items():
        unknown = feats - known.get(dim, frozenset())
        if unknown:
            f = min(unknown)
            raise InputError(
                "unknown-feature",
                f"{role} feature {f!r} is not registered under {dim.value}",
                location=f,
            )


def evaluate_fitness(
    profile: KgProfile,
    requirement: RequirementSet,
    registry: FeatureRegistry | None = None,
) -> FitnessReport:
    """FitnessReport(profile, requirement): each dimension's required features split into satisfied and gap sets.

    A module function, which a tracer can wrap. When a registry is supplied, every profile and requirement feature must
    be registered under the dimension it is used in.
    """
    report = FitnessReport(profile, requirement)
    if registry is not None:
        _check_registered("profile", profile.features, registry)
        _check_registered("requirement", requirement.required, registry)
    return report


def gap_cost(report: FitnessReport, model: CostModel | None = None) -> float:
    """Weighted size of the gap plus weighted size of the surplus.

    The default model charges 1 per missing feature and nothing for surplus,
    so the cost of a fit KG is 0.
    """
    _typed(report, FitnessReport, "a report must be a FitnessReport")
    model = CostModel() if model is None else _typed(model, CostModel, "a cost model must be a CostModel")
    total = 0.0
    for feats in report.gap.values():
        total += sum(model.add_cost(f) for f in feats)
    for feats in report.surplus.values():
        total += sum(model.remove_cost(f) for f in feats)
    if not math.isfinite(total):
        raise InputError("cost-overflow", "the gap cost overflows a float; use smaller weights")
    return total


def object_concept(lattice: ConceptLattice, kg: str) -> int:
    """Index of the most specific concept whose extent contains the KG."""
    return common_position(lattice, [kg])


def common_position(lattice: ConceptLattice, kgs: Iterable[str]) -> int:
    """Index of the most specific concept whose extent contains all given KGs.

    Its intent is exactly the feature set the KGs share.
    """
    ctx = _typed(lattice, ConceptLattice, "a lattice must be a ConceptLattice").context
    intent = _intent_mask(ctx, _obj_mask(ctx, map(normalize_name, _collection(kgs, "KG names"))))
    return lattice._index_by_extent[_extent_mask(ctx, intent)]


def transformation_delta(
    source: KgProfile,
    target: KgProfile | RequirementSet,
    registry: FeatureRegistry | None = None,
) -> Mapping[Dimension, FeatureDelta]:
    """Per-dimension feature additions and removals taking source to target.

    Against a RequirementSet only missing features count; nothing is removed.
    Against another profile the delta is an exact set difference both ways.
    """
    _typed(source, KgProfile, "a profile must be a KgProfile")
    _typed(target, (KgProfile, RequirementSet), "a target must be a KgProfile or a RequirementSet")
    removing = isinstance(target, KgProfile)
    wanted = target.features if removing else target.required
    if registry is not None:
        _check_registered("source", source.features, registry)
        _check_registered("target", wanted, registry)
    return MappingProxyType({
        dim: FeatureDelta._of(want - have, have - want if removing else frozenset())
        for dim, have, want in _sides(source.features, wanted)
    })


# --- JSON codecs --------------------------------------------------------------


def requirement_from_json(text: str) -> RequirementSet:
    """Parse {"community", "task", "required": {"<dimension>": [...]}}."""
    doc = json_object(text, ("community", "task", "required"))
    required = _typed(doc["required"], dict, "required must map dimension tags to feature lists")
    return RequirementSet(doc["community"], doc["task"], {Dimension.from_tag(tag): feats for tag, feats in required.items()})


def cost_model_from_json(text: str) -> CostModel:
    """Parse {"add_weight"?, "remove_weight"?, "overrides"?}; CostModel checks the fields."""
    doc = json_object(text, allowed=("add_weight", "remove_weight", "overrides"))
    return CostModel(doc.get("add_weight", 1.0), doc.get("remove_weight", 0.0), doc.get("overrides", {}))


def _features_json(features: Mapping[Dimension, frozenset[str]]) -> dict[str, list[str]]:
    return {_TAG[d]: sorted(feats) for d, feats in features.items()}  # every report's maps are in Dimension order


def _cost(value: float) -> float:
    """value; a bool or another non-number is a schema-violation, and NaN or an infinity, which JSON lacks, is invalid-weight."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError("schema-violation", f"a cost must be a number, not {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise InputError("invalid-weight", "a cost must be a finite number")
    return value


def fitness_json(report: FitnessReport, *, kg: str, requirement: RequirementSet, cost: float | None = None) -> dict:
    """JSON-ready dict mirroring the report fields, plus cost when priced."""
    _typed(report, FitnessReport, "a report must be a FitnessReport")
    _typed(requirement, RequirementSet, "a requirement must be a RequirementSet")
    doc = {
        "kg": _typed(kg, str, "a KG name must be a string"),
        "community": requirement.community,
        "task": requirement.task,
        "fit": report.fit,
        "satisfied": _features_json(report.satisfied),
        "gap": _features_json(report.gap),
        "surplus": _features_json(report.surplus),
    }
    if cost is not None:
        doc["cost"] = _cost(cost)
    return doc


def delta_json(delta: Mapping[Dimension, FeatureDelta], *, source: str, target: str) -> dict:
    """JSON-ready dict of a transformation delta."""
    for d, change in _typed(delta, Mapping, "a delta must be a mapping").items():
        _typed(d, Dimension, "delta keys must be Dimension members")
        _typed(change, FeatureDelta, "delta values must be FeatureDelta values")
    return {
        "source": _typed(source, str, "a source KG name must be a string"),
        "target": _typed(target, str, "a target KG name must be a string"),
        "delta": {
            _TAG[d]: {"add": sorted(delta[d].add), "remove": sorted(delta[d].remove)}
            for d in _dimensions(delta)
        },
    }
