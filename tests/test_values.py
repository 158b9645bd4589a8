"""The value classes: immutable, equal and hashed by their fields, printed as Name(field=value, ...), and picklable."""

import inspect
import pickle
from functools import cached_property
from types import MappingProxyType

import pytest
from hypothesis import given, strategies as st

from kgcontinuum import (
    PER_DIMENSION,
    ConceptLattice,
    CostModel,
    Dimension,
    FeatureDelta,
    FeatureRegistry,
    Finding,
    FitnessReport,
    FormalConcept,
    FormalContext,
    Implication,
    InputError,
    KgProfile,
    Legend,
    ProvenanceCorpus,
    RegistryEntry,
    RequirementSet,
    ValidationReport,
    build_lattice,
    enumerate_concepts,
    evaluate_fitness,
    join,
    meet,
    object_concept,
    profile_of,
)

from helpers import contexts_strategy

SP, PA = Dimension.SEMANTIC_PROPERTY, Dimension.PRAGMATIC_AFFORDANCE
# few distinct values per field, so two draws are often equal and often differ in one field only
names = st.sampled_from(["a", "b", " a "])
name_sets = st.frozensets(st.sampled_from(["a", "b"]))
feature_maps = st.dictionaries(st.sampled_from([SP, PA]), st.lists(names, max_size=2), max_size=2)
findings = st.builds(Finding, code=names, message=names, location=st.none() | names)
contexts = contexts_strategy(max_objects=2, max_attributes=2)
lattices = contexts.map(build_lattice)


def _fields(value, names):
    return {name: getattr(value, name) for name in names}


def _corpus_fields(c):
    """A copy of the context under each per-dimension axis, with its concepts as the golden sets."""
    contexts = {d: FormalContext(d, c.objects, c.attributes, c.incidence) for d in PER_DIMENSION}
    return {"contexts": MappingProxyType(contexts), "golden": MappingProxyType({d: enumerate_concepts(x) for d, x in contexts.items()})}


# each value class, its fields in declaration order, and a strategy for its constructor's keyword arguments:
# its fields, or what determines them for ConceptLattice, Legend and FitnessReport, which compute their fields
VALUES = [
    (FormalContext, ("dimension", "objects", "attributes", "incidence"), contexts.map(
        lambda c: _fields(c, ("objects", "attributes", "incidence")) | {"dimension": c.dimension}
    )),
    (Finding, ("code", "message", "location"), st.fixed_dictionaries({"code": names, "message": names, "location": st.none() | names})),
    (ValidationReport, ("errors", "warnings"), st.fixed_dictionaries({
        "errors": st.lists(findings, max_size=2).map(tuple),
        "warnings": st.lists(findings, max_size=2).map(tuple),
    })),
    (RegistryEntry, ("name", "dimension", "introduced_by"), st.fixed_dictionaries({
        "name": names, "dimension": st.sampled_from([SP, PA]), "introduced_by": st.none() | names,
    })),
    # "a" is only ever a semantic property, so no draw conflicts
    (FeatureRegistry, ("entries",), st.fixed_dictionaries({
        "entries": st.lists(st.sampled_from([RegistryEntry("a", SP), RegistryEntry("b", PA), RegistryEntry("a", SP, "g")]), max_size=3),
    })),
    (FormalConcept, ("extent", "intent"), st.fixed_dictionaries({"extent": name_sets, "intent": name_sets})),
    (Implication, ("premise", "conclusion"), st.fixed_dictionaries({"premise": name_sets, "conclusion": name_sets})),
    (ConceptLattice, ("context",), contexts.map(lambda c: {"context": c})),
    (ProvenanceCorpus, ("contexts", "golden"), contexts.map(_corpus_fields)),
    (Legend, ("rows",), lattices.map(lambda l: {"lattice": l})),
    (KgProfile, ("kg", "features"), st.fixed_dictionaries({"kg": names, "features": feature_maps})),
    (RequirementSet, ("community", "task", "required"), st.fixed_dictionaries({"community": names, "task": names, "required": feature_maps})),
    (FitnessReport, ("satisfied", "gap", "surplus"), st.fixed_dictionaries({
        "profile": st.builds(KgProfile, names, feature_maps), "requirement": st.builds(RequirementSet, names, names, feature_maps),
    })),
    (FeatureDelta, ("add", "remove"), st.fixed_dictionaries({"add": name_sets, "remove": name_sets})),
    (CostModel, ("add_weight", "remove_weight", "overrides"), st.fixed_dictionaries({
        "add_weight": st.sampled_from([0.0, 1.0]), "remove_weight": st.sampled_from([0.0, 2]),
        "overrides": st.dictionaries(names, st.sampled_from([0.5, 3]), max_size=1),
    })),
]


def test_every_value_class_is_listed_once():
    classes = [cls for cls, _, _ in VALUES]
    assert len(set(classes)) == len(classes) == 15


@pytest.mark.parametrize("cls,fields,kwargs", VALUES, ids=[cls.__name__ for cls, _, _ in VALUES])
@given(data=st.data())
def test_value_classes_compare_hash_and_print_by_their_fields(cls, fields, kwargs, data):
    a, b = data.draw(kwargs), data.draw(kwargs)
    x, y = cls(**a), cls(**b)
    # keyword and positional construction agree
    assert x == cls(*(a[name] for name in inspect.signature(cls).parameters if name in a))
    values = tuple(getattr(x, name) for name in fields)
    assert cls._of(*values) == x  # the builders' way past the checks gives the same value
    assert (x == y) == (values == tuple(getattr(y, name) for name in fields))
    # a value of another class, even one holding the same field values, and the bare field tuple are never equal
    other_cls, _, other_kwargs = data.draw(st.sampled_from([row for row in VALUES if row[0] is not cls]))
    assert x != other_cls(**data.draw(other_kwargs)) and x != values and x.__eq__(values) is NotImplemented
    if cls in (FormalConcept, FeatureDelta):  # the two classes of two frozenset fields
        assert FormalConcept(*values) != FeatureDelta(*values)
    try:
        want = hash(values)
    except TypeError:  # a mapping field: the value is unhashable too
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == want
    assert repr(x) == f"{cls.__qualname__}({', '.join(f'{name}={value!r}' for name, value in zip(fields, values))})"
    for name in (*fields, "stray"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        if name in fields:
            with pytest.raises(AttributeError):
                delattr(x, name)
    assert tuple(getattr(x, name) for name in fields) == values


def test_defaults_and_keyword_construction():
    assert CostModel() == CostModel(1.0, 0.0, {}) == CostModel(overrides={}, remove_weight=0.0, add_weight=1.0)
    assert ValidationReport() == ValidationReport((), ()) and ValidationReport().ok
    assert Finding("code", "message") == Finding("code", "message", None)
    assert RegistryEntry("a", SP) == RegistryEntry(name="a", dimension=SP, introduced_by=None)
    assert FeatureRegistry() == FeatureRegistry(entries=())
    with pytest.raises(InputError) as err:
        CostModel(overrides=None)
    assert err.value.code == "schema-violation"


def test_cached_properties_are_computed_once_into_the_instance():
    ctx = FormalContext(SP, ["g", "h"], ["a", "b"], [[True, False], [True, True]])
    lattice = build_lattice(ctx)
    registry = FeatureRegistry([RegistryEntry("a", SP)])
    for value, name in ((ctx, "column_masks"), (ctx, "object_index"), (lattice, "concepts"), (registry, "_names_by_dimension")):
        first = getattr(value, name)
        assert vars(value)[name] is first and getattr(value, name) is first
    # equality and hashing read the fields only, never what the cached properties stored
    assert ctx == FormalContext(SP, ["g", "h"], ["a", "b"], [[True, False], [True, True]])
    assert hash(lattice) == hash(build_lattice(ctx))


@given(ctx=contexts_strategy(max_objects=4, max_attributes=4), required=st.frozensets(st.sampled_from(["m0", "m1", "m2", "x"])))
def test_values_derive_what_their_fields_determine(ctx, required):
    # a lattice is computed from its context alone, and a copy pickled after its queries have run answers them alike
    lattice = ConceptLattice(ctx)
    assert lattice == build_lattice(ctx) and ConceptLattice._fields == ("context",)
    kgs = [object_concept(lattice, kg) for kg in ctx.objects]
    copy = pickle.loads(pickle.dumps(lattice))
    pairs = [(i, j) for i in range(len(lattice.masks)) for j in range(len(lattice.masks))]
    assert [(meet(copy, i, j), join(copy, i, j)) for i, j in pairs] == [(meet(lattice, i, j), join(lattice, i, j)) for i, j in pairs]
    assert [object_concept(copy, kg) for kg in ctx.objects] == kgs
    # a report's fit is read from its gap, which no constructor argument can contradict
    assert FitnessReport._fields == ("satisfied", "gap", "surplus")
    if ctx.objects:
        profile = profile_of([FormalContext(SP, ctx.objects, ctx.attributes, ctx.incidence)], ctx.objects[-1])
        report = evaluate_fitness(profile, RequirementSet("c", "t", {SP: required}))
        assert report.fit == (not any(report.gap.values())) == (required <= profile.features[SP])


@given(ctx=contexts_strategy(max_objects=4, max_attributes=4))
def test_a_lattice_holds_its_context_and_derives_the_rest_on_first_read(ctx):
    built = ConceptLattice(ctx)
    assert "upper_covers" in vars(built)  # the constructor builds inside its call
    assert len(pickle.dumps(built)) <= len(pickle.dumps(ctx)) + 100  # only the context travels
    n = len(built.masks)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    for lattice in (ConceptLattice._of(ctx), pickle.loads(pickle.dumps(built))):
        assert list(vars(lattice)) == ["context"]
        assert (lattice.masks, lattice.upper_covers) == (built.masks, built.upper_covers)
        assert [(meet(lattice, i, j), join(lattice, i, j)) for i, j in pairs] == [(meet(built, i, j), join(built, i, j)) for i, j in pairs]
        assert [object_concept(lattice, kg) for kg in ctx.objects] == [object_concept(built, kg) for kg in ctx.objects]


def _cached_names(cls):
    return [name for klass in cls.__mro__ for name, attr in vars(klass).items() if isinstance(attr, cached_property)]


@pytest.mark.parametrize("cls,fields,kwargs", VALUES, ids=[cls.__name__ for cls, _, _ in VALUES])
@given(data=st.data())
def test_values_pickle_by_their_fields_after_their_cached_queries(cls, fields, kwargs, data):
    x = cls(**data.draw(kwargs))
    cached = {name: getattr(x, name) for name in _cached_names(cls)}
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(x, protocol))
        assert type(copy) is cls and copy == x
        # only the fields travel; each mapping field is a proxy again, and the queries are computed anew
        assert not any(name in vars(copy) for name in cached)
        assert [type(getattr(copy, name)) for name in fields] == [type(getattr(x, name)) for name in fields]
        assert {name: getattr(copy, name) for name in cached} == cached
    if cls is FeatureRegistry:  # whose get reads the name index that the copy builds again
        assert [copy.get(e.name) for e in x.entries] == list(x.entries)

