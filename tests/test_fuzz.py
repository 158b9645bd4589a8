"""Parsers of outside input, the value constructors and the queries raise InputError and nothing else; the CLI maps it to exit codes."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
    RequirementSet,
    ValidationReport,
    assign_layers,
    attribute_frequency,
    build_lattice,
    close_attributes,
    close_under_implications,
    common_position,
    cost_model_from_json,
    delta_json,
    derive_attributes,
    derive_objects,
    enumerate_concepts,
    evaluate_fitness,
    fitness_json,
    follows_from,
    gap_cost,
    implication_basis,
    implication_holds,
    join,
    lattice_json,
    legend,
    meet,
    merge_contexts,
    next_closure,
    normalize_name,
    object_concept,
    parse_cxt,
    parse_json_context,
    profile_of,
    RegistryEntry,
    register_feature,
    registry_from_contexts,
    requirement_from_json,
    serialize_cxt,
    serialize_json_context,
    singleton_features,
    to_dot,
    transformation_delta,
    universal_features,
    validate_context,
    validation_json,
    verify_corpus,
)
from kgcontinuum.cli import main

from helpers import contexts_strategy, corpus, oracle_parse_cxt

TAGS = ["combined", "semantic-property", "pragmatic-affordance", "no-such-dimension"]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 2)
    | st.integers()
    | st.floats()
    | st.sampled_from(TAGS)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def fuzz_settings(max_examples):
    """A test's own example budget under the suite profile; under any other profile, such as explore, that profile's."""
    if settings.get_current_profile_name() != "suite":
        max_examples = settings.default.max_examples
    return settings(max_examples=max_examples, deadline=None)


def test_fuzz_budgets_follow_the_loaded_profile(request):
    name = request.config.getoption("hypothesis_profile") or "suite"
    profile = settings.get_profile(name)
    assert settings.get_current_profile_name() == name
    assert settings.default.derandomize == profile.derandomize
    assert fuzz_settings(80).max_examples == (80 if name == "suite" else profile.max_examples)


names = st.sampled_from(["g", "m", " g ", "", "a  b", "X"]) | st.text(max_size=4)
numbers = st.integers() | st.floats() | st.booleans() | st.sampled_from([0, 1, 10**400])


@st.composite
def documents(draw, fields, optional=()):
    """JSON object text with well-typed fields, one of which may be dropped or made arbitrary, plus maybe a stray key."""
    doc = {key: draw(value) for key, value in fields.items() if key not in optional or draw(st.booleans())}
    broken = draw(st.sampled_from([None] * len(fields) + list(fields)))
    if broken is not None:
        if draw(st.booleans()):
            doc[broken] = draw(json_values)
        else:
            doc.pop(broken, None)
    if draw(st.integers(0, 3)) == 0:
        doc[draw(st.text(max_size=4))] = draw(json_values)
    return json.dumps(doc)


context_docs = documents({
    "dimension": st.sampled_from(TAGS),
    "objects": st.lists(names, max_size=4),
    "attributes": st.lists(names, max_size=4),
    "incidence": st.lists(st.lists(st.sampled_from([0, 1, True]), max_size=4), max_size=4),
})

requirement_docs = documents({
    "community": names,
    "task": names,
    "required": st.dictionaries(st.sampled_from(TAGS) | st.text(max_size=4), st.lists(names, max_size=3), max_size=3),
})

cost_model_docs = documents(
    {
        "add_weight": numbers,
        "remove_weight": numbers,
        "overrides": st.dictionaries(names, numbers, max_size=3),
    },
    optional=("add_weight", "remove_weight", "overrides"),
)


# str.isdigit() holds for every Nd digit and for some No ones such as '²', which
# int() rejects; runs past 4,300 digits hit int()'s string length limit
bad_counts = st.text(st.characters(categories=("Nd", "No")), min_size=1, max_size=3) | st.tuples(
    st.sampled_from("0123456789"), st.sampled_from([10, 4300, 4301, 6000])
).map(lambda d: d[0] * d[1])


@st.composite
def cxt_texts(draw):
    """A CXT document in which one header line may be wrong and the names and rows may not fit the counts."""
    n_obj, n_att = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    lines = ["B", "", str(n_obj), str(n_att), ""]
    broken = draw(st.sampled_from([None] * len(lines) + list(range(len(lines)))))
    if broken is not None:
        lines[broken] = draw(st.sampled_from(["\ufeffB", "B ", "A", " ", "x", "-1", "4", "2 "]) | bad_counts)
    lines += draw(st.lists(names, min_size=n_obj + n_att, max_size=n_obj + n_att + 1))
    row = st.text(alphabet="X.", min_size=n_att, max_size=n_att)
    lines += draw(st.lists(row | row | st.text(alphabet="X. x", max_size=4), min_size=n_obj, max_size=n_obj + 1))
    lines += draw(st.lists(st.sampled_from(["", " ", "X"]), max_size=2))
    return "\n".join(lines)


SHAPED = [
    (parse_cxt, cxt_texts()),
    (parse_json_context, context_docs),
    (requirement_from_json, requirement_docs),
    (cost_model_from_json, cost_model_docs),
]


@pytest.mark.parametrize("parse,shaped", SHAPED, ids=[parse.__name__ for parse, _ in SHAPED])
@fuzz_settings(80)
@given(data=st.data())
def test_parsers_raise_only_input_errors(parse, shaped, data):
    text = data.draw(st.text(max_size=40) | json_values.map(json.dumps) | shaped)
    try:
        parse(text)
    except InputError:
        pass


@fuzz_settings(80)
@given(text=cxt_texts(), line=st.sampled_from([2, 3]), count=bad_counts)
def test_cxt_count_lines_raise_only_input_errors(text, line, count):
    lines = text.split("\n")
    lines[line] = count
    try:
        parse_cxt("\n".join(lines))
    except InputError:
        pass


def parsed(parse, text):
    """The context's fields, or the (code, message, location) of the InputError."""
    try:
        ctx = parse(text)
    except InputError as err:
        return err.code, err.message, err.location
    return ctx.objects, ctx.attributes, ctx.incidence


@fuzz_settings(300)
@given(text=cxt_texts())
def test_parse_cxt_matches_the_character_loop_parser(text):
    assert parsed(parse_cxt, text) == parsed(oracle_parse_cxt, text)


# --- the value constructors over fields of any type ------------------------------

# library callers build the value types directly, with no parser in front
feature_maps = st.dictionaries(st.sampled_from(Dimension), st.lists(names, max_size=3), max_size=3)
registry_entries = st.builds(RegistryEntry, st.sampled_from(["a", "b", " a "]), st.sampled_from(Dimension), st.none() | st.just("g"))


def delta_of_one_dimension(add, remove):
    """A FeatureDelta, as delta_json writes it."""
    return delta_json({Dimension.SEMANTIC_PROPERTY: FeatureDelta(add, remove)}, source="s", target="t")


def rendered_legend(rows):
    """A Legend, in both of its formats."""
    table = Legend(rows)
    return table.to_markdown(), table.to_csv()


def rendered_lattice(context):
    """A ConceptLattice, as lattice_json and to_dot write it."""
    lattice = ConceptLattice(context)
    return lattice_json(lattice), to_dot(lattice, "id+intent")


def priced_report(satisfied, gap, surplus):
    """A FitnessReport, priced by gap_cost and written by fitness_json."""
    report = FitnessReport(satisfied, gap, surplus)
    return gap_cost(report), fitness_json(report, kg="kg", requirement=RequirementSet("c", "t", {}))


def written_finding(code, message, location):
    """A Finding, as validation_json writes it."""
    return validation_json(ValidationReport([Finding(code, message, location)]))


def written_report(errors, warnings):
    """A ValidationReport, as validation_json writes it."""
    return validation_json(ValidationReport(errors, warnings))


def verified_corpus(contexts, golden):
    """A ProvenanceCorpus, checked by verify_corpus, and its merged context."""
    corpus = ProvenanceCorpus(contexts, golden)
    return verify_corpus(corpus), corpus.combined


findings = st.builds(Finding, names, names, st.none() | names)
# a context under each per-dimension axis, drawn one by one, so their objects may disagree
corpus_contexts = st.fixed_dictionaries({
    d: contexts_strategy(max_objects=3, max_attributes=3).map(lambda c, d=d: FormalContext(d, c.objects, c.attributes, c.incidence))
    for d in PER_DIMENSION
})
golden_sets = st.fixed_dictionaries({
    d: st.lists(st.builds(FormalConcept, st.frozensets(names, max_size=2), st.frozensets(names, max_size=2)), max_size=2)
    for d in PER_DIMENSION
})


# each constructor with a well-typed strategy per field
CONSTRUCTORS = [
    (FormalContext, [
        st.sampled_from(Dimension),
        st.lists(names, max_size=3),
        st.lists(names, max_size=3),
        st.lists(st.lists(st.booleans(), max_size=3), max_size=3),
    ]),
    (KgProfile, [names, feature_maps]),
    (RequirementSet, [names, names, feature_maps]),
    (CostModel, [numbers, numbers, st.dictionaries(names, numbers, max_size=3)]),
    (RegistryEntry, [names, st.sampled_from(Dimension), st.none() | names]),
    (FeatureRegistry, [st.lists(registry_entries, max_size=4)]),
    (FormalContext.from_feature_sets, [
        st.sampled_from(Dimension),
        st.lists(names, max_size=3),
        st.dictionaries(names, st.lists(names, max_size=3), max_size=3),
        st.none() | st.lists(names, max_size=3),
    ]),
    (Implication, [st.frozensets(names, max_size=3) | st.lists(names, max_size=3)] * 2),
    (delta_of_one_dimension, [st.frozensets(names, max_size=3) | st.lists(names, max_size=3)] * 2),
    (rendered_legend, [st.lists(st.tuples(st.lists(names, max_size=3), st.lists(names, max_size=3)), max_size=3)]),
    (rendered_lattice, [contexts_strategy(max_objects=2, max_attributes=2)]),
    (priced_report, [feature_maps, feature_maps, feature_maps]),
    (written_finding, [names, names, st.none() | names]),
    (written_report, [st.lists(findings, max_size=2)] * 2),
    (verified_corpus, [corpus_contexts, golden_sets]),
]


@pytest.mark.parametrize("build,typed", CONSTRUCTORS, ids=[build.__name__ for build, _ in CONSTRUCTORS])
@fuzz_settings(150)
@given(data=st.data())
def test_value_constructors_raise_only_input_errors(build, typed, data):
    fields = [data.draw(field | json_values) for field in typed]
    try:
        build(*fields)
    except InputError:
        pass


# --- the queries over fields of any type ------------------------------------------

CONTEXTS = corpus().contexts
CTX = CONTEXTS[Dimension.SEMANTIC_AFFORDANCE]
LATTICE = build_lattice(CTX)
BASIS = implication_basis(CTX)
REGISTRY = registry_from_contexts(CONTEXTS[d] for d in PER_DIMENSION)
# the corpus names, more often than not, or any name
kg_or_any = st.sampled_from(CTX.objects) | names
attribute_or_any = st.sampled_from(CTX.attributes) | names
indices = st.integers(-1, len(LATTICE.masks))
context_lists = st.lists(st.sampled_from(list(CONTEXTS.values())), max_size=3)
# each query against the corpus context, its lattice, basis or registry, with a well-typed strategy per remaining field
QUERIES = [
    ("features_of", CTX.features_of, [kg_or_any]),
    ("holders_of", CTX.holders_of, [attribute_or_any]),
    ("derive_attributes", partial(derive_attributes, CTX), [st.lists(kg_or_any, max_size=3)]),
    ("derive_objects", partial(derive_objects, CTX), [st.lists(attribute_or_any, max_size=3)]),
    ("close_attributes", partial(close_attributes, CTX), [st.lists(attribute_or_any, max_size=3)]),
    ("next_closure", partial(next_closure, CTX), [st.none() | st.sampled_from([intent for _, intent in LATTICE.names])]),
    ("index_of_extent", LATTICE.index_of_extent, [st.frozensets(kg_or_any, max_size=3)]),
    ("meet", partial(meet, LATTICE), [indices, indices]),
    ("join", partial(join, LATTICE), [indices, indices]),
    ("close_under_implications", partial(close_under_implications, BASIS), [st.lists(attribute_or_any, max_size=3)]),
    ("implication_holds", partial(implication_holds, CTX), [st.sampled_from(BASIS)]),
    ("follows_from", partial(follows_from, basis=BASIS), [st.sampled_from(BASIS)]),
    ("merge_contexts", merge_contexts, [context_lists]),
    ("registry_from_contexts", registry_from_contexts, [context_lists]),
    ("universal_features", universal_features, [context_lists]),
    ("singleton_features", singleton_features, [context_lists]),
    ("profile_of", partial(profile_of, CONTEXTS.values()), [kg_or_any]),
    ("object_concept", partial(object_concept, LATTICE), [kg_or_any]),
    ("common_position", partial(common_position, LATTICE), [st.lists(kg_or_any, max_size=3)]),
    ("register_feature", partial(register_feature, REGISTRY, contexts=CONTEXTS.values()), [attribute_or_any, st.sampled_from(Dimension)]),
    ("FeatureRegistry.get", REGISTRY.get, [attribute_or_any]),
    ("FeatureRegistry.__contains__", REGISTRY.__contains__, [attribute_or_any]),
]


@pytest.mark.parametrize("query,typed", [row[1:] for row in QUERIES], ids=[row[0] for row in QUERIES])
@fuzz_settings(150)
@given(data=st.data())
def test_queries_raise_only_input_errors(query, typed, data):
    fields = [data.draw(field | json_values) for field in typed]
    try:
        query(*fields)
    except InputError:
        pass


# each query that takes a collection of names, given a bare string, which would read as its characters;
# register_feature given a dimension tag instead of a Dimension; from_feature_sets given two keys
# that normalize to one object; the registry types given what the registry rules forbid; and the
# queries over contexts and implications given something else; Implication given sides that are not collections;
# and the validation and corpus values given fields of the right type but the wrong contents
SP = Dimension.SEMANTIC_PROPERTY
REJECTED = [
    ("derive_attributes", lambda: derive_attributes(CTX, "LOV"), "schema-violation"),
    ("derive_objects", lambda: derive_objects(CTX, "scholarly citation"), "schema-violation"),
    ("close_attributes", lambda: close_attributes(CTX, "scholarly citation"), "schema-violation"),
    ("next_closure", lambda: next_closure(CTX, "scholarly citation"), "schema-violation"),
    ("index_of_extent", lambda: LATTICE.index_of_extent("LOV"), "schema-violation"),
    ("common_position", lambda: common_position(LATTICE, "LOV"), "schema-violation"),
    ("close_under_implications", lambda: close_under_implications(BASIS, "ab"), "schema-violation"),
    ("from_feature_sets-features", lambda: FormalContext.from_feature_sets(Dimension.COMBINED, ["g"], "g"), "schema-violation"),
    ("from_feature_sets-feature-set", lambda: FormalContext.from_feature_sets(Dimension.COMBINED, ["g"], {"g": "ab"}), "schema-violation"),
    ("register_feature-dimension", lambda: register_feature(REGISTRY, "brand new", "semantic-property", CONTEXTS.values()), "schema-violation"),
    ("from_feature_sets-keys", lambda: FormalContext.from_feature_sets(Dimension.COMBINED, ["g"], {"g": ["a"], "g ": ["b"]}), "duplicate-object"),
    ("RegistryEntry-dimension", lambda: RegistryEntry("x", "semantic-property"), "schema-violation"),
    ("RegistryEntry-empty-name", lambda: RegistryEntry(" ", Dimension.SEMANTIC_PROPERTY), "empty-name"),
    ("RegistryEntry-introduced-by", lambda: RegistryEntry("x", Dimension.SEMANTIC_PROPERTY, 5), "schema-violation"),
    ("FeatureRegistry-number", lambda: FeatureRegistry(5), "schema-violation"),
    ("FeatureRegistry-string", lambda: FeatureRegistry("ab"), "schema-violation"),
    ("FeatureRegistry-item", lambda: FeatureRegistry([1]), "schema-violation"),
    ("FeatureRegistry-combined", lambda: FeatureRegistry([RegistryEntry("x", Dimension.COMBINED)]), "combined-dimension"),
    (
        "FeatureRegistry-conflict",
        lambda: FeatureRegistry([RegistryEntry("a", Dimension.SEMANTIC_PROPERTY), RegistryEntry("a", Dimension.PRAGMATIC_PROPERTY)]),
        "dimension-conflict",
    ),
    ("merge_contexts-string", lambda: merge_contexts("ab"), "schema-violation"),
    ("merge_contexts-item", lambda: merge_contexts([1]), "schema-violation"),
    ("implication_holds", lambda: implication_holds(CTX, "x"), "schema-violation"),
    ("follows_from", lambda: follows_from("x", BASIS), "schema-violation"),
    ("close_under_implications-item", lambda: close_under_implications(["ab"], []), "schema-violation"),
    ("registry_from_contexts-item", lambda: registry_from_contexts([1]), "schema-violation"),
    ("registry_from_contexts-number", lambda: registry_from_contexts(5), "schema-violation"),
    ("register_feature-contexts", lambda: register_feature(FeatureRegistry(), "x", SP, [1]), "schema-violation"),
    ("register_feature-registered-contexts", lambda: register_feature(REGISTRY, CTX.attributes[0], CTX.dimension, [1]), "schema-violation"),
    ("profile_of-item", lambda: profile_of([1], "x"), "schema-violation"),
    ("universal_features-item", lambda: universal_features([1]), "schema-violation"),
    ("singleton_features-number", lambda: singleton_features(5), "schema-violation"),
    ("Implication-string", lambda: Implication("ab", "c"), "schema-violation"),
    ("Implication-number", lambda: Implication(1, 2), "schema-violation"),
    ("FeatureDelta-string", lambda: FeatureDelta("ab", ()), "schema-violation"),
    ("Legend-row-of-three", lambda: Legend([((), (), ())]), "schema-violation"),
    ("Legend-string-side", lambda: Legend([("ab", ())]), "schema-violation"),
    ("FitnessReport-string-features", lambda: gap_cost(FitnessReport({}, {SP: "ab"}, {})), "schema-violation"),
    ("Finding-numbers", lambda: Finding(1, 2), "schema-violation"),
    ("ValidationReport-numbers", lambda: validation_json(ValidationReport(5, 6)), "schema-violation"),
    ("ValidationReport-string", lambda: ValidationReport("ab"), "schema-violation"),
    ("ProvenanceCorpus-no-contexts", lambda: verify_corpus(ProvenanceCorpus({}, corpus().golden)), "schema-violation"),
    ("ProvenanceCorpus-combined-context", lambda: ProvenanceCorpus({**CONTEXTS, SP: corpus().combined}, corpus().golden), "schema-violation"),
    ("ProvenanceCorpus-tag-keys", lambda: ProvenanceCorpus({d.value: c for d, c in CONTEXTS.items()}, corpus().golden), "schema-violation"),
    ("ProvenanceCorpus-string-golden", lambda: ProvenanceCorpus(CONTEXTS, {d: "ab" for d in PER_DIMENSION}), "schema-violation"),
    ("RegistryEntry-empty-introduced-by", lambda: RegistryEntry("x", SP, "  "), "empty-name"),
    ("register_feature-empty-introduced-by", lambda: register_feature(FeatureRegistry(), "x", SP, introduced_by="  "), "empty-name"),
]


@pytest.mark.parametrize("call,code", [row[1:] for row in REJECTED], ids=[row[0] for row in REJECTED])
def test_queries_reject_bare_strings_and_duplicate_keys(call, code):
    with pytest.raises(InputError) as err:
        call()
    assert err.value.code == code


# every argument of the wrong type, at each place that checks one, and the type the message names
WRONG_TYPES = [
    ("normalize_name", lambda: normalize_name(5), "int"),
    ("FormalContext-dimension", lambda: FormalContext("combined", [], [], []), "str"),
    ("from_feature_sets-features", lambda: FormalContext.from_feature_sets(SP, ["g"], ["g"]), "list"),
    ("json-top-level", lambda: parse_json_context("[1]"), "list"),
    ("json-dimension", lambda: parse_json_context('{"dimension": 1, "objects": [], "attributes": [], "incidence": []}'), "int"),
    ("RegistryEntry-dimension", lambda: RegistryEntry("x", "semantic-property"), "str"),
    ("FeatureRegistry-item", lambda: FeatureRegistry([1]), "int"),
    ("merge_contexts-item", lambda: merge_contexts([1]), "int"),
    ("registry_from_contexts-item", lambda: registry_from_contexts([None]), "NoneType"),
    ("implication_holds", lambda: implication_holds(CTX, "x"), "str"),
    ("follows_from", lambda: follows_from(("a", "b"), BASIS), "tuple"),
    ("close_under_implications-item", lambda: close_under_implications([1], []), "int"),
    ("KgProfile-features", lambda: KgProfile("x", [1]), "list"),
    ("KgProfile-key", lambda: KgProfile("x", {"semantic-property": []}), "str"),
    ("RequirementSet-community", lambda: RequirementSet(1, "t", {}), "int"),
    ("RequirementSet-task", lambda: RequirementSet("c", None, {}), "NoneType"),
    ("CostModel-overrides", lambda: CostModel(overrides=[1]), "list"),
    ("requirement-required", lambda: requirement_from_json('{"community": "c", "task": "t", "required": []}'), "list"),
    ("delta_json-key", lambda: delta_json({1: 2}, source="a", target="b"), "int"),
    ("delta_json-value", lambda: delta_json({SP: 2}, source="a", target="b"), "int"),
    ("FeatureDelta-sides", lambda: delta_json({SP: FeatureDelta(5, 6)}, source="a", target="b"), "int"),
    ("FeatureDelta-name", lambda: FeatureDelta([], [None]), "NoneType"),
    ("Legend-row", lambda: Legend([5]).to_markdown(), "int"),
    ("Legend-side", lambda: Legend([(1, 2)]).to_csv(), "int"),
    ("Legend-name", lambda: Legend([(["g"], [b"m"])]), "bytes"),
    ("ConceptLattice-context", lambda: ConceptLattice(5), "int"),
    ("FitnessReport-maps", lambda: FitnessReport(5, 6, 7), "int"),
    ("Finding-code", lambda: Finding(1, "m"), "int"),
    ("Finding-message", lambda: Finding("c", None), "NoneType"),
    ("Finding-location", lambda: Finding("c", "m", 5), "int"),
    ("ValidationReport-item", lambda: ValidationReport([1]), "int"),
    ("ValidationReport-warning", lambda: ValidationReport((), ["w"]), "str"),
    ("ProvenanceCorpus-contexts", lambda: ProvenanceCorpus(5, corpus().golden), "int"),
    ("ProvenanceCorpus-context", lambda: ProvenanceCorpus({d: 5 for d in PER_DIMENSION}, corpus().golden), "int"),
    ("ProvenanceCorpus-golden", lambda: ProvenanceCorpus(CONTEXTS, [1]), "list"),
    ("ProvenanceCorpus-golden-item", lambda: ProvenanceCorpus(CONTEXTS, {d: [5] for d in PER_DIMENSION}), "int"),
    # the text readers take str; bytes, which json.loads would decode, are no exception
    ("parse_cxt-text", lambda: parse_cxt(5), "int"),
    ("parse_json_context-text", lambda: parse_json_context(None), "NoneType"),
    ("requirement_from_json-text", lambda: requirement_from_json(5), "int"),
    ("cost_model_from_json-text", lambda: cost_model_from_json(b"{}"), "bytes"),
]


@pytest.mark.parametrize("call,kind", [row[1:] for row in WRONG_TYPES], ids=[row[0] for row in WRONG_TYPES])
def test_wrong_types_name_the_type_given(call, kind):
    with pytest.raises(InputError) as err:
        call()
    assert err.value.code == "schema-violation"
    assert err.value.message.endswith(f", not {kind}")


PROFILE = profile_of(CONTEXTS.values(), CTX.objects[0])
REQUIREMENT = RequirementSet("c", "t", {})
REPORT = evaluate_fitness(PROFILE, REQUIREMENT)
# each public function's context, lattice, corpus, registry, profile, requirement or report argument,
# the one the call leaves open; an optional registry or cost model takes None for "none given"
VALUE_ARGUMENTS = [
    ("serialize_cxt", serialize_cxt),
    ("serialize_json_context", serialize_json_context),
    ("validate_context", validate_context),
    ("attribute_frequency", attribute_frequency),
    ("validation_json", validation_json),
    ("register_feature", lambda v: register_feature(v, "x", SP)),
    ("derive_attributes", lambda v: derive_attributes(v, [])),
    ("derive_objects", lambda v: derive_objects(v, [])),
    ("close_attributes", lambda v: close_attributes(v, [])),
    ("next_closure", next_closure),
    ("enumerate_concepts", enumerate_concepts),
    ("build_lattice", build_lattice),
    ("implication_holds", lambda v: implication_holds(v, BASIS[0])),
    ("implication_basis", implication_basis),
    ("meet", lambda v: meet(v, 0, 0)),
    ("join", lambda v: join(v, 0, 0)),
    ("lattice_json", lattice_json),
    ("legend", legend),
    ("assign_layers", assign_layers),
    ("to_dot", to_dot),
    ("verify_corpus", verify_corpus),
    ("object_concept", lambda v: object_concept(v, CTX.objects[0])),
    ("common_position", lambda v: common_position(v, CTX.objects[:1])),
    ("evaluate_fitness-profile", lambda v: evaluate_fitness(v, REQUIREMENT)),
    ("evaluate_fitness-requirement", lambda v: evaluate_fitness(PROFILE, v)),
    ("gap_cost", gap_cost),
    ("fitness_json-report", lambda v: fitness_json(v, kg="x", requirement=REQUIREMENT)),
    ("fitness_json-requirement", lambda v: fitness_json(REPORT, kg="x", requirement=v)),
    ("transformation_delta-source", lambda v: transformation_delta(v, PROFILE)),
    ("transformation_delta-target", lambda v: transformation_delta(PROFILE, v)),
    ("delta_json", lambda v: delta_json(v, source="a", target="b")),
    ("Legend", Legend),
]
OPTIONAL_VALUE_ARGUMENTS = [
    ("evaluate_fitness-registry", lambda v: evaluate_fitness(PROFILE, REQUIREMENT, v)),
    ("gap_cost-model", lambda v: gap_cost(REPORT, v)),
    ("transformation_delta-registry", lambda v: transformation_delta(PROFILE, PROFILE, v)),
]
WRONG_VALUES = [
    *((f"{name}-{type(wrong).__name__}", call, wrong) for name, call in VALUE_ARGUMENTS for wrong in (5, "x", None)),
    *((f"{name}-{type(wrong).__name__}", call, wrong) for name, call in OPTIONAL_VALUE_ARGUMENTS for wrong in (5, "x")),
]


@pytest.mark.parametrize("call,wrong", [row[1:] for row in WRONG_VALUES], ids=[row[0] for row in WRONG_VALUES])
def test_value_arguments_of_another_type_are_schema_violations(call, wrong):
    with pytest.raises(InputError) as err:
        call(wrong)
    assert err.value.code == "schema-violation"
    assert err.value.message.endswith(f", not {type(wrong).__name__}")


# --- the CLI over generated files ------------------------------------------------


@st.composite
def context_files(draw):
    """Context file text, well-formed or not, with the context whose names a --kg or requirement may use."""
    ctx = draw(contexts_strategy(max_objects=5, max_attributes=5))
    ctx = FormalContext(draw(st.sampled_from(PER_DIMENSION)), ctx.objects, ctx.attributes, ctx.incidence)
    well_formed = st.sampled_from([serialize_cxt(ctx), serialize_json_context(ctx)])
    return draw(well_formed | well_formed | cxt_texts() | context_docs), ctx


@st.composite
def requirement_texts(draw, ctx):
    """A requirement on the context's own attributes, or any requirement document."""
    required = {ctx.dimension.value: draw(st.lists(st.sampled_from(ctx.attributes), max_size=3))} if ctx.attributes else {}
    return draw(st.just(json.dumps({"community": "c", "task": "t", "required": required})) | requirement_docs)


@st.composite
def kg_names(draw, ctx):
    """A KG the context declares, more often than not, or any name."""
    return draw(st.sampled_from(ctx.objects) | st.sampled_from(ctx.objects) | names if ctx.objects else names)


cost_model_texts = st.sampled_from(['{"add_weight": 2, "remove_weight": 0.5}', '{"overrides": {"m0": 3}}']) | cost_model_docs


def _reject_non_json(name):
    raise ValueError(f"{name} is not JSON")


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exits(runs, out_path=None):
    """Each (argv, writes_json) run exits 0, 1 or 2, with strict JSON on success and one error line on failure.

    A run that succeeds with --out writes its result to out_path instead of stdout.
    """
    for argv, writes_json in runs:
        code, out, err = run_main(argv)
        assert code in (0, 1, 2), argv
        if code == 0:
            assert err == ""
            if "--out" in argv:
                assert out == ""
                out = out_path.read_text(encoding="utf-8")
            out.encode("utf-8")  # strict, as a real stdout or --out file writes it: a lone surrogate fails here
            if writes_json:
                json.loads(out, parse_constant=_reject_non_json)
        elif argv[0] == "validate" and err == "":
            # a file that does not parse is a finding of its own, reported on stdout
            assert code == 1
            out.encode("utf-8")
            assert len(json.loads(out, parse_constant=_reject_non_json)["errors"]) == 1
        else:
            assert out == ""
            assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, (argv, err)


@fuzz_settings(120)
@given(data=st.data())
def test_cli_main_exits_cleanly_on_generated_files(data):
    text, ctx = data.draw(context_files())
    fitting = None if text.lstrip().startswith("{") else ctx.dimension.value  # JSON carries its own dimension
    dimension = data.draw(st.sampled_from([fitting, fitting, None, ctx.dimension.value, "combined"]))
    kg = data.draw(kg_names(ctx))
    with tempfile.TemporaryDirectory() as tmp:
        context, require, cost = (Path(tmp, name) for name in ("context", "require", "cost"))
        context.write_text(text, encoding="utf-8")
        require.write_text(data.draw(requirement_texts(ctx)), encoding="utf-8")
        cost.write_text(data.draw(cost_model_texts), encoding="utf-8")
        source = ["--context", str(context)] + (["--dimension", dimension] if dimension else [])
        fit = ["fit", *source, "--kg", kg, "--require", str(require)]
        runs = [
            (["lattice", *source], True),
            (["legend", *source, "--format", "md"], False),
            (["legend", *source, "--format", "csv"], False),
            (["dot", *source, "--labels", "id+intent"], False),
            (["implications", *source, "--format", "json"], True),
            (["implications", *source, "--format", "text"], False),
            (["validate", *source], True),
            (fit, True),
            ([*fit, "--cost-model", str(cost)], True),
        ]
        assert_clean_exits(runs)


@fuzz_settings(120)
@given(data=st.data())
def test_cli_delta_and_corpus_export_exit_cleanly_on_generated_files(data):
    text, ctx = data.draw(context_files())
    if data.draw(st.booleans()):
        text = serialize_json_context(ctx)  # well-formed JSON half the time, so that a second file can join it
    is_json = text.lstrip().startswith("{")
    fitting = None if is_json else ctx.dimension.value  # JSON carries its own dimension
    dimension = data.draw(st.sampled_from([fitting, fitting, None, ctx.dimension.value, "combined"]))
    tag = data.draw(st.sampled_from(TAGS))
    with tempfile.TemporaryDirectory() as tmp:
        context, second, require, out = (Path(tmp, name) for name in ("context", "second", "require", "out"))
        context.write_text(text, encoding="utf-8")
        require.write_text(data.draw(requirement_texts(ctx)), encoding="utf-8")
        source = ["--context", str(context)] + (["--dimension", dimension] if dimension else [])
        # --dimension covers a single file, so a second one is added only beside JSON: the
        # same KGs under attributes of their own, which register under any dimension
        if is_json and data.draw(st.booleans()):
            other = FormalContext(
                data.draw(st.sampled_from(PER_DIMENSION)), ctx.objects, [f"n{j}" for j in range(len(ctx.attributes))], ctx.incidence
            )
            well_formed = st.just(serialize_json_context(other))
            second.write_text(data.draw(well_formed | well_formed | st.just(serialize_cxt(other)) | context_docs), encoding="utf-8")
            source += ["--context", str(second)]
        # --out to a new file, or to the directory, which the write fails on
        target = data.draw(st.sampled_from([[], [], ["--out", str(out)], ["--out", tmp]]))
        delta = ["delta", *source, "--kg", data.draw(kg_names(ctx))]
        export = data.draw(st.sampled_from(["json", "cxt", "xml"]))
        runs = [
            ([*delta, "--to-kg", data.draw(kg_names(ctx)), *target], True),
            ([*delta, "--require", str(require), *target], True),
            (["corpus", "export", "--dimension", tag, "--format", export, *target], export == "json"),
        ]
        assert_clean_exits(runs, out)


# json.dumps writes a surrogate code point as a \ud800-style escape; json.loads turns a
# lone one back into a surrogate no UTF-8 output can hold, and a high one followed by a
# low one into the single astral character they encode
lone_surrogates = st.integers(0xD800, 0xDFFF).map(chr)
paired_surrogates = st.tuples(st.integers(0xD800, 0xDBFF), st.integers(0xDC00, 0xDFFF)).map(lambda p: chr(p[0]) + chr(p[1]))
surrogates = st.lists(lone_surrogates | paired_surrogates, max_size=2).map("".join)


@st.composite
def surrogate_files(draw):
    """Context, requirement and cost-model JSON whose names, tags and keys may end in surrogate escapes; and the KG names."""
    ctx = draw(contexts_strategy(max_objects=4, max_attributes=4))
    # the index prefix keeps names distinct, as surrogates are neither digits nor whitespace
    objects = [f"g{i}{draw(surrogates)}" for i in range(len(ctx.objects))]
    attributes = [f"m{j}{draw(surrogates)}" for j in range(len(ctx.attributes))]
    tag = draw(st.sampled_from(PER_DIMENSION)).value
    context = {
        "dimension": tag + draw(st.just("") | surrogates),
        "objects": objects,
        "attributes": attributes,
        "incidence": [list(map(int, row)) for row in ctx.incidence],
    }
    if draw(st.integers(0, 3)) == 0:
        context["k" + draw(surrogates)] = 0  # a stray key, named in the schema-violation message
    features = draw(st.lists(st.sampled_from(attributes), max_size=2)) if attributes else []
    requirement = {"community": "c" + draw(surrogates), "task": "t", "required": {tag + draw(st.just("") | surrogates): features}}
    cost = {"overrides": {name: 2 for name in features + [draw(surrogates)]}}
    return [json.dumps(doc) for doc in (context, requirement, cost)], objects or ["g0"]


@fuzz_settings(120)
@given(data=st.data())
def test_cli_exits_cleanly_on_surrogate_escapes(data):
    texts, kgs = data.draw(surrogate_files())
    with tempfile.TemporaryDirectory() as tmp:
        context, require, cost, out = (Path(tmp, name) for name in ("context", "require", "cost", "out"))
        for path, text in zip((context, require, cost), texts):
            path.write_text(text, encoding="utf-8")
        source = ["--context", str(context)]
        target = data.draw(st.sampled_from([[], ["--out", str(out)]]))
        kg, other = data.draw(st.sampled_from(kgs)), data.draw(st.sampled_from(kgs))
        runs = [
            (["lattice", *source, *target], True),
            (["legend", *source, "--format", "csv", *target], False),
            (["dot", *source, "--labels", "id+intent", *target], False),
            (["implications", *source, "--format", "text", *target], False),
            (["validate", *source], True),
            (["fit", *source, "--kg", kg, "--require", str(require), "--cost-model", str(cost), *target], True),
            (["delta", *source, "--kg", kg, "--to-kg", other, *target], True),
            (["delta", *source, "--kg", kg, "--require", str(require), *target], True),
        ]
        assert_clean_exits(runs, out)


# --- one error line, whatever user text a message quotes ---------------------------

# control characters and the Unicode line and paragraph separators: each ends a
# line of stderr if a message passes it through raw
line_breakers = st.text(st.characters(categories=("Cc", "Zl", "Zp")) | st.sampled_from("k "), min_size=1, max_size=4)


def assert_one_error_line(argv):
    code, out, err = run_main(argv)
    assert (code, out) == (1, ""), (argv, err)
    assert err.startswith("error: ") and err.endswith("\n") and len(err.splitlines()) == 1, (argv, err)


@fuzz_settings(100)
@given(key=line_breakers)
def test_stray_json_keys_give_one_error_line(key):
    context = {"dimension": "combined", "objects": ["g"], "attributes": ["m"], "incidence": [[1]], key: 0}
    requirement = {"community": "c", "task": "t", "required": {}}
    cost = {"add_weight": 1, key: 0}
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, name) for name in ("context", "require", "cost")]
        for path, doc in zip(paths, (context, requirement, cost)):
            path.write_text(json.dumps(doc), encoding="utf-8")
        assert_one_error_line(["lattice", "--context", str(paths[0])])
        assert_one_error_line(["fit", "--corpus", "builtin", "--kg", "Wikidata", "--require", str(paths[1]), "--cost-model", str(paths[2])])


@fuzz_settings(100)
@given(name=line_breakers.filter(lambda s: "\x00" not in s))
def test_non_utf8_files_give_one_error_line_whatever_their_path(name):
    with tempfile.TemporaryDirectory() as tmp:
        bad, require = Path(tmp, name), Path(tmp, "require")
        bad.write_bytes(b'{"objects": ["g\xff"]}')
        require.write_text('{"community": "c", "task": "t", "required": {}}', encoding="utf-8")
        fit = ["fit", "--corpus", "builtin", "--kg", "Wikidata"]
        assert_one_error_line(["lattice", "--context", str(bad)])
        assert_one_error_line([*fit, "--require", str(bad)])
        assert_one_error_line([*fit, "--require", str(require), "--cost-model", str(bad)])


@fuzz_settings(100)
@given(text=line_breakers)
def test_argv_values_give_one_error_line(text):
    with tempfile.TemporaryDirectory() as tmp:
        require = Path(tmp, "require")
        require.write_text('{"community": "c", "task": "t", "required": {}}', encoding="utf-8")
        corpus = ["--corpus", "builtin"]
        single = [*corpus, "--dimension", "combined"]
        fit = ["fit", *corpus, "--kg", "Wikidata", "--require", str(require)]
        delta = ["delta", *corpus, "--kg", "Wikidata", "--to-kg", "Wikidata"]
        # argparse names an extra positional in its usage error without quoting it
        for argv in (
            ["lattice", *single],
            ["legend", *single],
            ["dot", *single],
            ["implications", *single],
            ["validate", *single],
            fit,
            delta,
            ["corpus", "export", "--dimension", "combined"],
            ["corpus", "verify"],
        ):
            assert_one_error_line([*argv, text])
        # a KG name no context declares, quoted in the unknown-KG message
        assert_one_error_line(["fit", *corpus, "--kg", text, "--require", str(require)])
        assert_one_error_line(["delta", *corpus, "--kg", text, "--to-kg", "Wikidata"])
        assert_one_error_line(["delta", *corpus, "--kg", "Wikidata", "--to-kg", text])
