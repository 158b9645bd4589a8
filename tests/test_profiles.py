"""Profiles, fitness evaluation, cost models, positions, and deltas."""

import json
import math
from types import MappingProxyType

import pytest
from hypothesis import given, strategies as st

from kgcontinuum import (
    PER_DIMENSION,
    CostModel,
    Dimension,
    FeatureDelta,
    FeatureRegistry,
    FitnessReport,
    FormalContext,
    InputError,
    KgProfile,
    RequirementSet,
    build_lattice,
    common_position,
    cost_model_from_json,
    delta_json,
    evaluate_fitness,
    fitness_json,
    gap_cost,
    object_concept,
    parse_json_context,
    profile_of,
    register_feature,
    registry_from_contexts,
    requirement_from_json,
    transformation_delta,
)

from helpers import (
    contexts_strategy,
    corpus,
    dimension_maps,
    feature_maps,
    feature_sets,
    features_map,
    oracle_delta_json,
    oracle_evaluate_fitness,
    oracle_fitness_json,
    oracle_profile_of,
    oracle_transformation_delta,
)

SP = Dimension.SEMANTIC_PROPERTY
SA = Dimension.SEMANTIC_AFFORDANCE
PP = Dimension.PRAGMATIC_PROPERTY
PA = Dimension.PRAGMATIC_AFFORDANCE


def corpus_profile(kg):
    return profile_of(corpus().contexts.values(), kg)


def reasoning_requirement():
    return RequirementSet(
        "cultural heritage",
        "portal validation",
        {PA: frozenset(["OWL DL reasoning", "SHACL"])},
    )


# --- profiles ---------------------------------------------------------------


def test_profile_matches_incidence_rows():
    profile = corpus_profile("Wikidata")
    for dim, ctx in corpus().contexts.items():
        assert profile.features[dim] == features_map(ctx)["Wikidata"]
    assert len(profile.features[SP]) == 6
    assert corpus_profile("UniProt").features[PP] == {"RDF-Star"}


def test_profile_unknown_kg():
    with pytest.raises(InputError) as err:
        corpus_profile("Freebase")
    assert err.value.code == "unknown-object"


def test_profile_no_contexts():
    with pytest.raises(InputError) as err:
        profile_of([], "Wikidata")
    assert err.value.code == "missing-input"


# whitespace the normalizer trims and collapses, around and inside generated names
PADDING = st.sampled_from(["", " ", "  ", "\t", "　", " \n "])


@st.composite
def padded(draw, name):
    head, _, tail = name.partition(" ")
    return f"{draw(PADDING)}{head}{draw(PADDING) or ' '}{tail}{draw(PADDING)}"


@st.composite
def profile_inputs(draw):
    """Up to four per-dimension contexts with padded names, the first two often of one dimension, and a KG name to look up."""
    contexts = []
    dims = draw(st.lists(st.sampled_from(PER_DIMENSION), max_size=4))
    if len(dims) > 1 and draw(st.booleans()):
        dims[1] = dims[0]
    for dim in dims:
        ctx = draw(contexts_strategy(max_objects=4, max_attributes=5))
        contexts.append(FormalContext(
            dim,
            [draw(padded(f"g {i}")) for i in range(len(ctx.objects))],
            [draw(padded(f"m {j}")) for j in range(len(ctx.attributes))],
            ctx.incidence,
        ))
    return contexts, draw(padded(f"g {draw(st.integers(0, 4))}"))


def profile_or_error(build, contexts, kg):
    try:
        profile = build(contexts, kg)
    except InputError as err:
        return err.code, err.message, err.location
    assert type(profile.features) is MappingProxyType
    assert all(type(feats) is frozenset for feats in profile.features.values())
    return profile, list(profile.features)


@given(profile_inputs())
def test_profile_of_matches_the_features_of_oracle(drawn):
    contexts, kg = drawn
    assert profile_or_error(profile_of, contexts, kg) == profile_or_error(oracle_profile_of, contexts, kg)


def test_profile_of_unions_contexts_of_one_dimension():
    first = FormalContext(SP, [" a  b "], ["x", "y  z"], [[True, False]])
    second = FormalContext(SP, ["a b"], ["y z", "w"], [[True, True]])
    profile = profile_of([first, second, FormalContext(PA, ["a\tb"], ["v"], [[False]])], "a   b")
    assert profile == KgProfile("a b", {SP: {"x", "y z", "w"}, PA: set()})
    assert list(profile.features) == [SP, PA]


def test_hand_built_profile_and_requirement_still_normalize():
    profile = KgProfile(" a  b ", {SP: ["x  y "]})
    assert profile.kg == "a b"
    assert profile.features == {SP: frozenset(["x y"])}
    requirement = RequirementSet("c", "t", {PA: ["\tOWL  DL reasoning", "SHACL "]})
    assert requirement.required == {PA: frozenset(["OWL DL reasoning", "SHACL"])}


# --- fitness ------------------------------------------------------------------


def test_eu_odp_fits_reasoning_requirement():
    report = evaluate_fitness(corpus_profile("EU ODP"), reasoning_requirement())
    assert report.fit
    assert report.satisfied[PA] == {"OWL DL reasoning", "SHACL"}
    assert report.gap[PA] == frozenset()


def test_wikidata_gap_is_owl_dl_reasoning():
    report = evaluate_fitness(corpus_profile("Wikidata"), reasoning_requirement())
    assert not report.fit
    assert report.gap[PA] == {"OWL DL reasoning"}
    assert report.satisfied[PA] == {"SHACL"}


def test_empty_requirement_is_trivially_fit():
    profile = corpus_profile("Bio2RDF")
    report = evaluate_fitness(profile, RequirementSet("any", "any", {}))
    assert report.fit
    for dim, feats in profile.features.items():
        assert report.surplus[dim] == feats
        assert report.satisfied[dim] == frozenset()
        assert report.gap[dim] == frozenset()


@given(data=st.data())
def test_fitness_partition_properties(data):
    pool = [f"f{i}" for i in range(8)]
    exhibited = data.draw(st.frozensets(st.sampled_from(pool)))
    required = data.draw(st.frozensets(st.sampled_from(pool)))
    profile = KgProfile("kg", {PA: exhibited})
    report = evaluate_fitness(profile, RequirementSet("c", "t", {PA: required}))
    assert report.satisfied[PA] | report.gap[PA] == required
    assert not report.satisfied[PA] & report.gap[PA]
    assert report.surplus[PA] == exhibited - required
    assert report.fit == (report.gap[PA] == frozenset())


def test_fitness_registry_enforcement():
    contexts = list(corpus().contexts.values())
    registry = registry_from_contexts(contexts)
    profile = corpus_profile("EU ODP")
    ok = evaluate_fitness(profile, reasoning_requirement(), registry)
    assert ok.fit
    with pytest.raises(InputError) as err:
        evaluate_fitness(profile, RequirementSet("c", "t", {PA: frozenset(["telepathy"])}), registry)
    assert err.value.code == "unknown-feature"
    # right name, wrong dimension
    with pytest.raises(InputError) as err:
        evaluate_fitness(profile, RequirementSet("c", "t", {SP: frozenset(["SPARQL"])}), registry)
    assert err.value.code == "unknown-feature"
    # without a registry the same requirement is just an unmet gap
    unchecked = evaluate_fitness(profile, RequirementSet("c", "t", {PA: frozenset(["telepathy"])}))
    assert unchecked.gap[PA] == {"telepathy"}


def test_unknown_feature_error_names_the_first_feature_in_order():
    registry = registry_from_contexts(corpus().contexts.values())
    profile = corpus_profile("EU ODP")
    # code-point order: "Mid" sorts before "alpha"; semantic-property comes before pragmatic-affordance
    unknown = [f"zeta {i}" for i in range(40)] + ["alpha", "Mid"]
    with pytest.raises(InputError) as err:
        evaluate_fitness(profile, RequirementSet("c", "t", {PA: frozenset(["SHACL", *unknown])}), registry)
    assert str(err.value) == (
        "unknown-feature: requirement feature 'Mid' is not registered under pragmatic-affordance (Mid)"
    )
    with pytest.raises(InputError) as err:
        evaluate_fitness(profile, RequirementSet("c", "t", {PA: frozenset(["alpha"]), SP: frozenset(["zeta"])}), registry)
    assert err.value.location == "zeta"
    assert "under semantic-property" in err.value.message


def test_feature_registered_under_another_dimension_is_unknown():
    registry, _ = register_feature(FeatureRegistry(), "f", SP)
    for dim in (SA, PP, PA):
        for profile, requirement, role in [
            (KgProfile("kg", {dim: frozenset(["f"])}), RequirementSet("c", "t", {}), "profile"),
            (KgProfile("kg", {}), RequirementSet("c", "t", {dim: frozenset(["f"])}), "requirement"),
        ]:
            with pytest.raises(InputError) as err:
                evaluate_fitness(profile, requirement, registry)
            assert err.value.code == "unknown-feature"
            assert err.value.message == f"{role} feature 'f' is not registered under {dim.value}"
    assert evaluate_fitness(KgProfile("kg", {SP: frozenset([" f "])}), RequirementSet("c", "t", {SP: frozenset(["f"])}), registry).fit


# --- cost ----------------------------------------------------------------------


def test_gap_cost_defaults():
    wikidata = evaluate_fitness(corpus_profile("Wikidata"), reasoning_requirement())
    assert gap_cost(wikidata) == 1.0
    eu_odp = evaluate_fitness(corpus_profile("EU ODP"), reasoning_requirement())
    assert gap_cost(eu_odp) == 0.0


def test_gap_cost_weights_and_overrides():
    report = evaluate_fitness(
        KgProfile("kg", {PA: frozenset(["a", "b"])}),
        RequirementSet("c", "t", {PA: frozenset(["a", "x", "y"])}),
    )
    # gap {x, y}, surplus {b}
    assert gap_cost(report, CostModel(add_weight=2.0)) == 4.0
    assert gap_cost(report, CostModel(add_weight=2.0, remove_weight=0.5)) == 4.5
    assert gap_cost(report, CostModel(overrides={"x": 10.0})) == 11.0
    # overrides apply to whichever role the feature plays
    assert gap_cost(report, CostModel(remove_weight=1.0, overrides={"b": 3.0})) == 5.0


def test_gap_cost_that_overflows_is_an_input_error():
    report = evaluate_fitness(
        KgProfile("kg", {PA: frozenset(["a", "b"])}),
        RequirementSet("c", "t", {PA: frozenset(["a", "x", "y"])}),
    )
    assert gap_cost(report, CostModel(add_weight=8e307)) == 1.6e308
    with pytest.raises(InputError) as err:
        gap_cost(report, CostModel(add_weight=1e308))
    assert err.value.code == "cost-overflow"


def test_cost_model_rejects_negative_weights():
    with pytest.raises(InputError) as err:
        CostModel(add_weight=-1.0)
    assert err.value.code == "invalid-weight"
    with pytest.raises(InputError) as err:
        CostModel(overrides={"f": -0.5})
    assert err.value.code == "invalid-weight"


# --- positions -------------------------------------------------------------------


def test_object_concept_spots():
    pa = corpus().contexts[PA]
    lattice = build_lattice(pa)
    uniprot = lattice.concepts[object_concept(lattice, "UniProt")]
    assert uniprot.extent == {"UniProt"}
    assert "SPARQL-Star" in uniprot.intent

    pp = corpus().contexts[PP]
    lat_pp = build_lattice(pp)
    dbpedia = lat_pp.concepts[object_concept(lat_pp, "DBpedia")]
    assert dbpedia.extent == {"DBpedia", "Nanopublications"}
    assert dbpedia.intent == {"named graphs", "PROV-O"}


def test_object_concept_is_smallest_containing_extent():
    lattice = build_lattice(corpus().contexts[SA])
    for kg in corpus().contexts[SA].objects:
        chosen = lattice.concepts[object_concept(lattice, kg)]
        containing = [c for c in lattice.concepts if kg in c.extent]
        assert all(chosen.extent <= c.extent for c in containing)


def test_object_concept_unknown_kg():
    lattice = build_lattice(corpus().contexts[SA])
    with pytest.raises(InputError) as err:
        object_concept(lattice, "Freebase")
    assert err.value.code == "unknown-object"


def test_common_position_spots():
    sp = corpus().contexts[SP]
    lattice = build_lattice(sp)
    shared = lattice.concepts[
        common_position(lattice, ["British Museum ResearchSpace", "Nanopublications"])
    ]
    assert shared.intent == {
        "authorship",
        "temporal information",
        "scholarly assertion",
        "epistemic status",
    }

    sa = corpus().contexts[SA]
    lat_sa = build_lattice(sa)
    everyone = common_position(lat_sa, sa.objects)
    assert everyone == lat_sa.top_index
    assert lat_sa.concepts[everyone].intent == {"attribution"}


def test_common_position_of_single_kg_is_object_concept():
    lattice = build_lattice(corpus().contexts[PP])
    for kg in corpus().contexts[PP].objects:
        assert common_position(lattice, [kg]) == object_concept(lattice, kg)


# --- delta ------------------------------------------------------------------------


def test_delta_between_profiles():
    delta = transformation_delta(corpus_profile("Europeana"), corpus_profile("LOV"))
    assert delta[PP].add == {"PROV-O"}
    assert delta[PP].remove == {"OAI-ORE aggregation"}


def test_delta_to_requirement_never_removes():
    profile = corpus_profile("Wikidata")
    delta = transformation_delta(profile, reasoning_requirement())
    assert delta[PA].add == {"OWL DL reasoning"}
    for fd in delta.values():
        assert fd.remove == frozenset()


def test_delta_agrees_with_fitness_gap():
    profile = corpus_profile("Google Data Commons")
    req = reasoning_requirement()
    delta = transformation_delta(profile, req)
    report = evaluate_fitness(profile, req)
    for dim, fd in delta.items():
        assert fd.add == report.gap[dim]


def test_delta_to_self_is_empty():
    profile = corpus_profile("DBpedia")
    for fd in transformation_delta(profile, profile).values():
        assert fd.add == frozenset()
        assert fd.remove == frozenset()


def test_delta_registry_enforcement():
    registry = registry_from_contexts(corpus().contexts.values())
    with pytest.raises(InputError) as err:
        transformation_delta(
            corpus_profile("DBpedia"),
            RequirementSet("c", "t", {PP: frozenset(["quantum entanglement"])}),
            registry,
        )
    assert err.value.code == "unknown-feature"


def test_delta_registry_error_names_the_first_unknown_feature():
    registry = registry_from_contexts(corpus().contexts.values())
    source = corpus_profile("DBpedia")
    with pytest.raises(InputError) as err:
        transformation_delta(
            source, RequirementSet("c", "t", {PP: frozenset(["PROV-O", "alchemy", *(f"quantum {i}" for i in range(40))])}), registry
        )
    assert str(err.value) == "unknown-feature: target feature 'alchemy' is not registered under pragmatic-property (alchemy)"
    with pytest.raises(InputError) as err:
        transformation_delta(KgProfile("kg", {PA: frozenset(["SHACL", "a", *(f"b {i}" for i in range(40))])}), source, registry)
    assert str(err.value) == "unknown-feature: source feature 'a' is not registered under pragmatic-affordance (a)"


# --- JSON codecs -------------------------------------------------------------------


def test_requirement_from_json():
    req = requirement_from_json(json.dumps({
        "community": "life sciences",
        "task": "evidence audit",
        "required": {"semantic-property": ["evidence type", "epistemic status"]},
    }))
    assert req.community == "life sciences"
    assert req.required[SP] == {"evidence type", "epistemic status"}


@pytest.mark.parametrize(
    "payload,code",
    [
        ("{oops", "invalid-json"),
        (json.dumps({"community": "c", "task": "t"}), "schema-violation"),
        (json.dumps({"community": "c", "task": "t", "required": []}), "schema-violation"),
        (json.dumps({"community": "c", "task": "t", "required": {"nope": []}}), "unknown-dimension"),
        (json.dumps({"community": "c", "task": "t", "required": {"combined": "x"}}), "schema-violation"),
    ],
)
def test_requirement_from_json_errors(payload, code):
    with pytest.raises(InputError) as err:
        requirement_from_json(payload)
    assert err.value.code == code


def test_cost_model_from_json():
    model = cost_model_from_json('{"add_weight": 2, "overrides": {"SHACL": 0.5}}')
    assert model.add_cost("SHACL") == 0.5
    assert model.add_cost("other") == 2.0
    assert model.remove_cost("other") == 0.0
    with pytest.raises(InputError) as err:
        cost_model_from_json('{"subtract_weight": 1}')
    assert err.value.code == "schema-violation"
    with pytest.raises(InputError) as err:
        cost_model_from_json('{"add_weight": -3}')
    assert err.value.code == "invalid-weight"


@pytest.mark.parametrize("parse", [parse_json_context, requirement_from_json, cost_model_from_json])
@pytest.mark.parametrize("payload", ["[" * 100000, '{"add_weight": NaN}', '{"x": [Infinity]}', '{"x": -Infinity}'])
def test_json_parsers_reject_deep_nesting_and_constants(parse, payload):
    with pytest.raises(InputError) as err:
        parse(payload)
    assert err.value.code == "invalid-json"


# each weight as a cost-model document writes it (None where JSON cannot) and as CostModel gets it
@pytest.mark.parametrize("text,fields,code", [
    ('{"add_weight": true}', {"add_weight": True}, "schema-violation"),
    ('{"overrides": {"x": false}}', {"overrides": {"x": False}}, "schema-violation"),
    ('{"add_weight": "1"}', {"add_weight": "1"}, "schema-violation"),
    ('{"remove_weight": 1e400}', {"remove_weight": math.inf}, "invalid-weight"),
    ('{"overrides": {"x": -1e999}}', {"overrides": {"x": -math.inf}}, "invalid-weight"),
    ('{"add_weight": 1' + "0" * 400 + '}', {"add_weight": 10**400}, "invalid-weight"),
    (None, {"add_weight": math.nan}, "invalid-weight"),
    (None, {"overrides": {"x": math.nan}}, "invalid-weight"),
])
def test_cost_model_rejects_bool_and_non_finite_weights(text, fields, code):
    with pytest.raises(InputError) as err:
        CostModel(**fields)
    assert err.value.code == code
    if text is not None:
        with pytest.raises(InputError) as err:
            cost_model_from_json(text)
        assert err.value.code == code


@pytest.mark.parametrize("build", [
    lambda: cost_model_from_json('{"overrides": {"SHACL": 5, "SHACL ": 0}}'),
    lambda: CostModel(overrides={"SHACL": 5, "SHACL ": 0}),
], ids=["json", "CostModel"])
def test_cost_model_rejects_overrides_that_normalize_to_one_name(build):
    with pytest.raises(InputError) as err:
        build()
    assert (err.value.code, err.value.location) == ("duplicate-feature", "SHACL")


# the value types check their own fields, so library callers get the errors the JSON readers give
@pytest.mark.parametrize("build", [
    pytest.param(lambda: RequirementSet("c", "t", {SP: "x"}), id="requirement-string-features"),
    pytest.param(lambda: KgProfile("kg", {SP: "x"}), id="profile-string-features"),
    pytest.param(lambda: KgProfile("kg", {SP: ["x", 1]}), id="profile-int-feature"),
    pytest.param(lambda: RequirementSet("c", "t", {SP: None}), id="requirement-null-features"),
    pytest.param(lambda: RequirementSet("c", "t", {SP: {"x": 1}}), id="requirement-mapping-features"),
    pytest.param(lambda: RequirementSet(1, "t", {}), id="requirement-int-community"),
    pytest.param(lambda: RequirementSet("c", None, {}), id="requirement-null-task"),
    pytest.param(lambda: CostModel(overrides={1: 2.0}), id="cost-model-int-override-name"),
    pytest.param(lambda: KgProfile(1, {}), id="profile-int-kg"),
    pytest.param(lambda: KgProfile("kg", [1]), id="profile-list-features"),
    pytest.param(lambda: RequirementSet("c", "t", [(SP, ["x"])]), id="requirement-list-required"),
    pytest.param(lambda: KgProfile("kg", STRAY), id="profile-tag-key"),
    pytest.param(lambda: RequirementSet("c", "t", STRAY), id="requirement-tag-key"),
    pytest.param(lambda: FitnessReport(STRAY, {}, {}), id="fitness-report-tag-key"),
    pytest.param(lambda: CostModel(overrides=[("a", 1)]), id="cost-model-list-overrides"),
])
def test_value_types_reject_fields_of_the_wrong_type(build):
    with pytest.raises(InputError) as err:
        build()
    assert err.value.code == "schema-violation"


def test_hand_built_delta_normalizes_like_transformation_delta():
    delta = FeatureDelta([" SHACL ", "OWL  DL reasoning"], ("x",))
    assert delta == FeatureDelta(frozenset({"SHACL", "OWL DL reasoning"}), frozenset({"x"}))
    assert type(delta.add) is frozenset and type(delta.remove) is frozenset
    source = KgProfile("kg", {SP: ["x"]})
    assert transformation_delta(source, KgProfile("other", {SP: ["SHACL", " OWL DL  reasoning"]}))[SP] == delta


def test_fitness_json_shape():
    req = reasoning_requirement()
    report = evaluate_fitness(corpus_profile("Wikidata"), req)
    doc = fitness_json(report, kg="Wikidata", requirement=req)
    assert list(doc) == ["kg", "community", "task", "fit", "satisfied", "gap", "surplus"]
    assert doc["gap"]["pragmatic-affordance"] == ["OWL DL reasoning"]
    priced = fitness_json(report, kg="Wikidata", requirement=req, cost=1.0)
    assert priced["cost"] == 1.0


def test_delta_json_shape():
    delta = transformation_delta(corpus_profile("Europeana"), corpus_profile("LOV"))
    doc = delta_json(delta, source="Europeana", target="LOV")
    assert doc["source"] == "Europeana"
    assert doc["delta"]["pragmatic-property"] == {"add": ["PROV-O"], "remove": ["OAI-ORE aggregation"]}
    dims = list(doc["delta"])
    assert dims == sorted(dims, key=[d.value for d in Dimension].index)


# --- one per-dimension comparison ---------------------------------------------------


def dumped(doc):
    return json.dumps(doc, ensure_ascii=False)


@given(have=feature_maps, want=feature_maps, other=feature_maps, cost=st.none() | st.floats(0, 10))
def test_fitness_and_delta_match_the_per_function_loops(have, want, other, cost):
    profile = KgProfile("kg", have)
    requirement = RequirementSet("c", "t", want)
    assert list(profile.features) == [d for d in Dimension if d in have]
    assert list(requirement.required) == [d for d in Dimension if d in want]
    report = evaluate_fitness(profile, requirement)
    *maps, fit = oracle_evaluate_fitness(profile, requirement)
    assert [list(m.items()) for m in (report.satisfied, report.gap, report.surplus)] == [list(m.items()) for m in maps]
    assert report.fit == fit
    assert dumped(fitness_json(report, kg="kg", requirement=requirement, cost=cost)) == dumped(
        oracle_fitness_json(report, kg="kg", requirement=requirement, cost=cost)
    )
    for target in (requirement, KgProfile("other", other)):
        delta = transformation_delta(profile, target)
        assert list(delta.items()) == list(oracle_transformation_delta(profile, target).items())
        assert dumped(delta_json(delta, source="kg", target="other")) == dumped(
            oracle_delta_json(delta, source="kg", target="other")
        )


@given(
    satisfied=feature_maps,
    gap=feature_maps,
    surplus=feature_maps,
    delta=dimension_maps(st.builds(FeatureDelta, feature_sets, feature_sets)),
)
def test_json_writers_order_hand_built_maps_like_the_sorted_writers(satisfied, gap, surplus, delta):
    report = FitnessReport(satisfied, gap, surplus)
    requirement = RequirementSet("c", "t", {})
    assert dumped(fitness_json(report, kg="kg", requirement=requirement)) == dumped(
        oracle_fitness_json(report, kg="kg", requirement=requirement)
    )
    assert dumped(delta_json(delta, source="s", target="t")) == dumped(oracle_delta_json(delta, source="s", target="t"))


# a dimension tag where a Dimension belongs, beside a real key
STRAY = {SP: frozenset(["a"]), "semantic-property": frozenset(["b"])}


def stray_profile():
    """A profile whose features map skips the constructor, as a hand-built or mutated one can."""
    profile = KgProfile("kg", {})
    object.__setattr__(profile, "features", STRAY)
    return profile


# the constructors reject such a key (test_value_types_reject_fields_of_the_wrong_type);
# the functions over values that skipped them raise KeyError
@pytest.mark.parametrize(
    "call",
    [
        lambda: evaluate_fitness(stray_profile(), RequirementSet("c", "t", {})),
        lambda: transformation_delta(stray_profile(), RequirementSet("c", "t", {})),
        lambda: transformation_delta(KgProfile("kg", {}), stray_profile()),
    ],
    ids=["evaluate_fitness", "delta-to-requirement", "delta-to-profile"],
)
def test_non_dimension_key_raises(call):
    with pytest.raises(KeyError):
        call()


def test_delta_json_checks_its_keys():
    # a delta is a plain mapping, which no constructor checked, so delta_json checks it itself
    with pytest.raises(InputError) as err:
        delta_json({d: FeatureDelta(fs, frozenset()) for d, fs in STRAY.items()}, source="s", target="t")
    assert (err.value.code, err.value.message) == ("schema-violation", "delta keys must be Dimension members, not str")
