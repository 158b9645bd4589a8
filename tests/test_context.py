"""Context data model, CXT/JSON carriers, validation, registry, and merging."""

import copy
import dataclasses
import json
import pickle
import sys

import pytest
from hypothesis import example, given, strategies as st

from kgcontinuum import (
    Dimension,
    FeatureRegistry,
    FormalContext,
    InputError,
    RegistryEntry,
    attribute_frequency,
    merge_contexts,
    normalize_name,
    parse_cxt,
    parse_json_context,
    register_feature,
    registry_from_contexts,
    serialize_cxt,
    serialize_json_context,
    singleton_features,
    universal_features,
    validate_context,
)

from helpers import (
    contexts_strategy,
    corpus,
    oracle_attribute_frequency,
    oracle_column_masks,
    oracle_holders_of,
    oracle_json_row_ok,
    oracle_normalize_name,
    oracle_registry_from_contexts,
    oracle_row_masks,
    oracle_validate_context,
)
from kgcontinuum.context import _bits, _mask

WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


def tiny():
    return FormalContext(
        Dimension.COMBINED,
        ("g1", "g2", "g3"),
        ("m1", "m2"),
        ((True, False), (True, True), (False, False)),
    )


# --- names -------------------------------------------------------------------


@given(st.text())
def test_normalize_idempotent(s):
    once = normalize_name(s)
    assert normalize_name(once) == once
    assert once == once.strip()
    assert "  " not in once


def test_normalize_collapses_runs():
    assert normalize_name("  a \t\t b\nc ") == "a b c"
    assert normalize_name("Name") == "Name"  # case preserved


def test_normalize_matches_regex_oracle_on_every_code_point():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    for glue in ("", "a"):
        text = glue.join(every)
        assert normalize_name(text) == oracle_normalize_name(text)
    for ws in WHITESPACE:
        for name in (ws, f"{ws}a", f"a{ws}", f"a{ws}b", f"a {ws} b", f"{ws}{ws}a{ws}\u3000{ws}b{ws}"):
            assert normalize_name(name) == oracle_normalize_name(name), repr(ws)


@given(st.text(alphabet=st.sampled_from(WHITESPACE) | st.characters()))
def test_normalize_matches_regex_oracle(s):
    assert normalize_name(s) == oracle_normalize_name(s)


# --- constructor -------------------------------------------------------------


def test_constructor_normalizes_names():
    ctx = FormalContext(Dimension.COMBINED, (" g  1 ",), ("m\t1",), ((True,),))
    assert ctx.objects == ("g 1",)
    assert ctx.attributes == ("m 1",)


def test_constructor_rejects_duplicate_object():
    with pytest.raises(InputError) as err:
        FormalContext(Dimension.COMBINED, ("g", "g "), ("m",), ((True,), (False,)))
    assert err.value.code == "duplicate-object"


def test_constructor_rejects_duplicate_attribute():
    with pytest.raises(InputError) as err:
        FormalContext(Dimension.COMBINED, ("g",), ("m", " m"), ((True, False),))
    assert err.value.code == "duplicate-attribute"


def test_constructor_rejects_empty_name():
    with pytest.raises(InputError) as err:
        FormalContext(Dimension.COMBINED, ("   ",), ("m",), ((True,),))
    assert err.value.code == "empty-name"


# a string or a mapping would iterate as characters or keys, so it is rejected like a non-iterable
@pytest.mark.parametrize("fields", [
    pytest.param({"objects": (1,)}, id="object"),
    pytest.param({"attributes": (None,)}, id="attribute"),
    pytest.param({"dimension": "combined"}, id="tag-dimension"),
    pytest.param({"objects": "g"}, id="string-objects"),
    pytest.param({"attributes": {"m": 1}}, id="mapping-attributes"),
    pytest.param({"objects": 5}, id="int-objects"),
    pytest.param({"incidence": "X"}, id="string-incidence"),
    pytest.param({"incidence": 5}, id="int-incidence"),
    pytest.param({"incidence": ("X",)}, id="string-row"),
    pytest.param({"incidence": ({"m": 1},)}, id="mapping-row"),
    pytest.param({"incidence": (1,)}, id="int-row"),
])
def test_constructor_rejects_non_string_names(fields):
    fields = {"dimension": Dimension.COMBINED, "objects": ("g",), "attributes": ("m",), "incidence": ((True,),), **fields}
    with pytest.raises(InputError) as err:
        FormalContext(**fields)
    assert err.value.code == "schema-violation"


def test_constructor_rejects_row_count_mismatch():
    with pytest.raises(InputError) as err:
        FormalContext(Dimension.COMBINED, ("g1", "g2"), ("m",), ((True,),))
    assert err.value.code == "count-mismatch"


def test_constructor_rejects_row_length_mismatch():
    with pytest.raises(InputError) as err:
        FormalContext(Dimension.COMBINED, ("g",), ("m1", "m2"), ((True,),))
    assert err.value.code == "count-mismatch"


def test_features_and_holders():
    ctx = tiny()
    assert ctx.features_of("g2") == {"m1", "m2"}
    assert ctx.features_of("g3") == frozenset()
    assert ctx.holders_of("m1") == {"g1", "g2"}
    with pytest.raises(InputError) as err:
        ctx.features_of("nope")
    assert err.value.code == "unknown-object"
    with pytest.raises(InputError) as err:
        ctx.holders_of("nope")
    assert err.value.code == "unknown-attribute"


def test_from_feature_sets_first_appearance_order():
    ctx = FormalContext.from_feature_sets(
        Dimension.COMBINED,
        ["b", "a"],
        {"b": ["y", "x"], "a": ["z", "x"]},
    )
    # columns: sorted within an object, objects in declaration order
    assert ctx.attributes == ("x", "y", "z")
    assert ctx.features_of("a") == {"z", "x"}


def test_from_feature_sets_explicit_attributes():
    ctx = FormalContext.from_feature_sets(
        Dimension.COMBINED, ["a"], {"a": ["x"]}, attributes=["z", "x"]
    )
    assert ctx.attributes == ("z", "x")
    with pytest.raises(InputError) as err:
        FormalContext.from_feature_sets(Dimension.COMBINED, ["a"], {"a": ["q"]}, attributes=["x"])
    assert err.value.code == "unknown-attribute"


def test_dimension_from_tag():
    assert Dimension.from_tag("pragmatic-property") is Dimension.PRAGMATIC_PROPERTY
    with pytest.raises(InputError) as err:
        Dimension.from_tag("syntactic")
    assert err.value.code == "unknown-dimension"


@pytest.mark.parametrize("dim", list(Dimension), ids=lambda d: d.value)
def test_dimension_hash_agrees_with_equality(dim):
    assert len(Dimension) == 5
    table = {d: d.value for d in Dimension}
    copies = [
        Dimension(dim.value),
        Dimension[dim.name],
        Dimension.from_tag(dim.value),
        copy.copy(dim),
        copy.deepcopy(dim),
        *(pickle.loads(pickle.dumps(dim, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ]
    for other in copies:
        assert other == dim and hash(other) == hash(dim)
        assert table[other] == dim.value
        assert other in {dim} and other in frozenset(Dimension)
    assert {dim, *copies} == {dim}
    assert all(other != dim for other in Dimension if other is not dim)
    with pytest.raises(KeyError):
        table[dim.value]


# --- CXT carrier ----------------------------------------------------------------


def test_serialize_minimal_cxt_exact_bytes():
    ctx = FormalContext(Dimension.COMBINED, ("g",), ("m",), ((True,),))
    assert serialize_cxt(ctx) == "B\n\n1\n1\n\ng\nm\nX\n"


@given(contexts_strategy())
def test_cxt_round_trip(ctx):
    assert parse_cxt(serialize_cxt(ctx), ctx.dimension) == ctx


def test_parse_cxt_dimension_defaults_to_combined():
    ctx = parse_cxt("B\n\n1\n1\n\ng\nm\nX\n")
    assert ctx.dimension is Dimension.COMBINED
    tagged = parse_cxt("B\n\n1\n1\n\ng\nm\nX\n", Dimension.PRAGMATIC_PROPERTY)
    assert tagged.dimension is Dimension.PRAGMATIC_PROPERTY


def test_parse_cxt_tolerates_trailing_blank_lines():
    ctx = parse_cxt("B\n\n1\n1\n\ng\nm\nX\n\n  \n")
    assert ctx.objects == ("g",)


def cxt_lines(*lines):
    return "\n".join(lines) + "\n"


def test_parse_cxt_bad_marker():
    with pytest.raises(InputError) as err:
        parse_cxt(cxt_lines("A", "", "1", "1", "", "g", "m", "X"))
    assert err.value.code == "malformed-header"
    assert err.value.location == "line 1"


def test_parse_cxt_nonblank_separator():
    with pytest.raises(InputError) as err:
        parse_cxt(cxt_lines("B", "oops", "1", "1", "", "g", "m", "X"))
    assert err.value.code == "malformed-header"
    assert err.value.location == "line 2"


def test_parse_cxt_bad_count():
    with pytest.raises(InputError) as err:
        parse_cxt(cxt_lines("B", "", "one", "1", "", "g", "m", "X"))
    assert err.value.code == "malformed-header"
    assert err.value.location == "line 3"


@pytest.mark.parametrize("count", ["\u00b2", "\u0661", "\uff11", "1" * 10, "1" * 5000, "+1", "1_0"])
def test_parse_cxt_accepts_only_short_ascii_counts(count):
    with pytest.raises(InputError) as err:
        parse_cxt(cxt_lines("B", "", "1", count, "", "g", "m", "X"))
    assert err.value.code == "malformed-header"
    assert err.value.location == "line 4"
    assert len(str(err.value)) < 200


def test_parse_cxt_accepts_nine_digit_counts():
    assert parse_cxt(cxt_lines("B", "", "000000001", "01", "", "g", "m", "X")).incidence == ((True,),)


def test_parse_cxt_missing_object_name_reports_missing_line():
    # header promises 3 objects but the document ends after two names
    with pytest.raises(InputError) as err:
        parse_cxt(cxt_lines("B", "", "3", "2", "", "g1", "g2"))
    assert err.value.code == "count-mismatch"
    assert err.value.location == "line 8"


def test_parse_cxt_duplicate_object_with_line():
    with pytest.raises(InputError) as err:
        parse_cxt(cxt_lines("B", "", "2", "1", "", "g", "g ", "m", "X", "X"))
    assert err.value.code == "duplicate-object"
    assert err.value.location == "line 7"


def test_parse_cxt_duplicate_attribute_with_line():
    with pytest.raises(InputError) as err:
        parse_cxt(cxt_lines("B", "", "1", "2", "", "g", "m", "m", "XX"))
    assert err.value.code == "duplicate-attribute"
    assert err.value.location == "line 8"


def test_parse_cxt_invalid_row_character():
    with pytest.raises(InputError) as err:
        parse_cxt(cxt_lines("B", "", "1", "1", "", "g", "m", "x"))
    assert err.value.code == "invalid-row"
    assert err.value.location == "line 8"


def test_parse_cxt_wrong_row_length():
    with pytest.raises(InputError) as err:
        parse_cxt(cxt_lines("B", "", "1", "2", "", "g", "m1", "m2", "X"))
    assert err.value.code == "count-mismatch"
    assert err.value.location == "line 9"


def test_parse_cxt_trailing_content():
    with pytest.raises(InputError) as err:
        parse_cxt(cxt_lines("B", "", "1", "1", "", "g", "m", "X", "junk"))
    assert err.value.code == "trailing-content"
    assert err.value.location == "line 9"


def test_parse_cxt_normalizes_names():
    ctx = parse_cxt(cxt_lines("B", "", "1", "1", "", "  g   1 ", "m", "X"))
    assert ctx.objects == ("g 1",)


# --- JSON carrier ---------------------------------------------------------------


@given(contexts_strategy())
def test_json_round_trip(ctx):
    assert parse_json_context(serialize_json_context(ctx)) == ctx


def test_json_carries_dimension():
    doc = serialize_json_context(tiny())
    assert json.loads(doc)["dimension"] == "combined"


def test_parse_json_rejects_invalid_json():
    with pytest.raises(InputError) as err:
        parse_json_context("{nope")
    assert err.value.code == "invalid-json"


def test_parse_json_rejects_missing_key():
    with pytest.raises(InputError) as err:
        parse_json_context('{"dimension": "combined", "objects": [], "attributes": []}')
    assert err.value.code == "schema-violation"


def test_parse_json_rejects_extra_key():
    doc = {"dimension": "combined", "objects": [], "attributes": [], "incidence": [], "bonus": 1}
    with pytest.raises(InputError) as err:
        parse_json_context(json.dumps(doc))
    assert err.value.code == "schema-violation"


def test_parse_json_rejects_unknown_dimension():
    doc = {"dimension": "nope", "objects": [], "attributes": [], "incidence": []}
    with pytest.raises(InputError) as err:
        parse_json_context(json.dumps(doc))
    assert err.value.code == "unknown-dimension"


def test_parse_json_rejects_non_string_dimension():
    doc = {"dimension": 1, "objects": [], "attributes": [], "incidence": []}
    with pytest.raises(InputError) as err:
        parse_json_context(json.dumps(doc))
    assert (err.value.code, err.value.message) == ("schema-violation", "dimension must be a string, not int")


@pytest.mark.parametrize("incidence,kind", [({}, "dict"), ("", "str"), (5, "int"), (None, "NoneType")])
def test_parse_json_rejects_non_collection_incidence(incidence, kind):
    # FormalContext's collection check owns the message, as for objects and attributes
    doc = {"dimension": "combined", "objects": [], "attributes": [], "incidence": incidence}
    with pytest.raises(InputError) as err:
        parse_json_context(json.dumps(doc))
    assert (err.value.code, err.value.message) == ("schema-violation", f"incidence must be a collection, not {kind}")


def test_parse_json_rejects_duplicate_object():
    doc = {"dimension": "combined", "objects": ["g", "g"], "attributes": [], "incidence": [[], []]}
    with pytest.raises(InputError) as err:
        parse_json_context(json.dumps(doc))
    assert err.value.code == "duplicate-object"


def assert_bool_rows(ctx):
    assert type(ctx.incidence) is tuple
    for row in ctx.incidence:
        assert type(row) is tuple
        assert all(type(v) is bool for v in row)


def test_parse_json_cells_become_bool_tuples():
    doc = {"dimension": "combined", "objects": ["g", "h"], "attributes": ["m", "n"], "incidence": [[1, 0], [True, 1]]}
    ctx = parse_json_context(json.dumps(doc))
    assert_bool_rows(ctx)
    assert ctx.incidence == ((True, False), (True, True))
    assert (ctx.objects, ctx.attributes) == (("g", "h"), ("m", "n"))


def test_corpus_cells_are_bool_tuples():
    loaded = corpus()
    for ctx in (*loaded.contexts.values(), loaded.combined):
        assert_bool_rows(ctx)
        assert type(ctx.objects) is tuple and type(ctx.attributes) is tuple


def test_parse_json_rejects_nonbinary_incidence():
    doc = {"dimension": "combined", "objects": ["g"], "attributes": ["m"], "incidence": [[2]]}
    with pytest.raises(InputError) as err:
        parse_json_context(json.dumps(doc))
    assert err.value.code == "schema-violation"


# JSON values a cell may hold: 0/1 ints and bools pass, every other number, type
# and container fails, as does an integer past the float range
CELLS = [0, 1, True, False, 2, -1, 1.0, 0.0, -0.0, "1", None, [], {}, 10**400]


def incidence_or_error(build):
    """The incidence of the context build() returns, or the (code, location) of its InputError."""
    try:
        return build().incidence
    except InputError as err:
        return err.code, err.location


def parsed_rows(rows):
    doc = {"dimension": "combined", "objects": [f"g{i}" for i in range(len(rows))], "attributes": ["m", "n"], "incidence": rows}
    return incidence_or_error(lambda: parse_json_context(json.dumps(doc)))


def oracle_rows(rows):
    """The generator check on the rows as the parser sees them (-0.0 stays a float, 10**400 an int), then the constructor."""
    decoded = json.loads(json.dumps(rows))
    bad = next((i for i, row in enumerate(decoded) if not oracle_json_row_ok(row)), None)
    if bad is not None:
        return "schema-violation", f"row {bad}"
    objects = [f"g{i}" for i in range(len(rows))]
    return incidence_or_error(lambda: FormalContext(Dimension.COMBINED, objects, ["m", "n"], decoded))


@pytest.mark.parametrize("cell", CELLS, ids=repr)
def test_json_cell_check_matches_the_generator_oracle_on_each_cell(cell):
    assert parsed_rows([[0, cell]]) == oracle_rows([[0, cell]])


@given(st.lists(st.lists(st.sampled_from(CELLS), min_size=2, max_size=2) | st.sampled_from(CELLS), max_size=4))
def test_json_cell_check_matches_the_generator_oracle(rows):
    assert parsed_rows(rows) == oracle_rows(rows)


# --- validation ----------------------------------------------------------------


def test_validate_flags_universal_and_vacuous():
    ctx = FormalContext(
        Dimension.COMBINED,
        ("g1", "g2"),
        ("everywhere", "nowhere", "mixed"),
        ((True, False, True), (True, False, False)),
    )
    report = validate_context(ctx)
    assert report.ok
    codes = {(f.code, f.location) for f in report.warnings}
    assert codes == {("universal-attribute", "everywhere"), ("vacuous-attribute", "nowhere")}


def test_validate_corpus_semantic_affordances_flags_attribution():
    ctx = corpus().contexts[Dimension.SEMANTIC_AFFORDANCE]
    report = validate_context(ctx)
    assert [(f.code, f.location) for f in report.warnings] == [("universal-attribute", "attribution")]


NO_OBJECTS = FormalContext(Dimension.COMBINED, (), ("m1", "m2"), ())
NO_ATTRIBUTES = FormalContext(Dimension.COMBINED, ("g1", "g2"), (), ((), ()))
EMPTY = FormalContext(Dimension.COMBINED, (), (), ())


@example(NO_OBJECTS)
@example(NO_ATTRIBUTES)
@example(EMPTY)
@given(
    contexts_strategy()
    | contexts_strategy(max_objects=3, min_attributes=200, max_attributes=260)
    | contexts_strategy(min_objects=200, max_objects=260, max_attributes=3)
)
def test_masks_and_holders_match_the_cell_loops(ctx):
    assert ctx.row_masks == oracle_row_masks(ctx)
    assert ctx.column_masks == oracle_column_masks(ctx)
    assert [ctx.holders_of(a) for a in ctx.attributes] == [oracle_holders_of(ctx, a) for a in ctx.attributes]


@example(0)
@example(1)
@given(st.integers(0, 300).map(lambda k: 1 << k) | st.integers(0, (1 << 300) - 1))
def test_mask_inverts_bits(m):
    assert _mask(_bits(m)) == m


@example(NO_OBJECTS)
@example(NO_ATTRIBUTES)
@example(EMPTY)
@given(contexts_strategy())
def test_validate_and_frequency_match_the_cell_scans(ctx):
    assert dict(attribute_frequency(ctx)) == oracle_attribute_frequency(ctx)
    report = validate_context(ctx)
    assert report.errors == ()
    assert [(f.code, f.message, f.location) for f in report.warnings] == oracle_validate_context(ctx)


def test_context_without_objects_reports_every_attribute_vacuous():
    assert dict(attribute_frequency(NO_OBJECTS)) == {"m1": 0, "m2": 0}
    assert [(f.code, f.location) for f in validate_context(NO_OBJECTS).warnings] == [
        ("vacuous-attribute", "m1"),
        ("vacuous-attribute", "m2"),
    ]


def test_frequency_counts():
    freq = attribute_frequency(tiny())
    assert dict(freq) == {"m1": 2, "m2": 1}


def test_universal_and_singleton_helpers():
    ctxs = corpus().contexts.values()
    assert set(universal_features(ctxs)) == {
        (Dimension.SEMANTIC_AFFORDANCE, "attribution"),
        (Dimension.PRAGMATIC_AFFORDANCE, "SPARQL"),
    }
    assert len(singleton_features(ctxs)) == 10


# --- registry -------------------------------------------------------------------


def test_register_feature_reports_pending_objects():
    ctx = tiny()
    registry, pending = register_feature(FeatureRegistry(), "m3", Dimension.SEMANTIC_PROPERTY, [])
    assert pending == ()
    # a same-dimension context lacking the feature marks all its objects
    sem = FormalContext(Dimension.SEMANTIC_PROPERTY, ctx.objects, ctx.attributes, ctx.incidence)
    registry2, pending2 = register_feature(FeatureRegistry(), "m3", Dimension.SEMANTIC_PROPERTY, [sem])
    assert pending2 == ("g1", "g2", "g3")
    assert registry2.get("m3").dimension is Dimension.SEMANTIC_PROPERTY


def test_register_feature_lists_shared_objects_once_in_first_seen_order():
    first = FormalContext(Dimension.SEMANTIC_PROPERTY, ("g2", "g1"), ("m",), ((True,), (False,)))
    other = FormalContext(Dimension.PRAGMATIC_PROPERTY, ("g0",), ("m",), ((True,),))
    second = FormalContext(Dimension.SEMANTIC_PROPERTY, ("g3", "g1", "g2"), ("n",), ((True,), (True,), (False,)))
    _, pending = register_feature(FeatureRegistry(), "new", Dimension.SEMANTIC_PROPERTY, [first, other, second, first])
    assert pending == ("g2", "g1", "g3")


def test_register_feature_ignores_other_dimensions():
    sem = FormalContext(Dimension.SEMANTIC_PROPERTY, ("g",), ("m",), ((True,),))
    _, pending = register_feature(FeatureRegistry(), "new", Dimension.PRAGMATIC_PROPERTY, [sem])
    assert pending == ()


def test_register_feature_skips_contexts_already_carrying_it():
    sem = FormalContext(Dimension.SEMANTIC_PROPERTY, ("g",), ("m",), ((True,),))
    _, pending = register_feature(FeatureRegistry(), "m", Dimension.SEMANTIC_PROPERTY, [sem])
    assert pending == ()


def test_register_feature_same_dimension_is_noop():
    registry, _ = register_feature(FeatureRegistry(), "f", Dimension.SEMANTIC_PROPERTY)
    registry2, pending = register_feature(registry, "f", Dimension.SEMANTIC_PROPERTY, [tiny()])
    assert registry2 == registry
    assert pending == ()


def test_register_feature_dimension_conflict():
    registry, _ = register_feature(FeatureRegistry(), "attribution", Dimension.SEMANTIC_AFFORDANCE)
    with pytest.raises(InputError) as err:
        register_feature(registry, "attribution", Dimension.PRAGMATIC_PROPERTY)
    assert err.value.code == "dimension-conflict"


def test_register_feature_rejects_combined():
    with pytest.raises(InputError) as err:
        register_feature(FeatureRegistry(), "f", Dimension.COMBINED)
    assert err.value.code == "combined-dimension"


def test_registry_from_contexts_tracks_first_holder():
    registry = registry_from_contexts(corpus().contexts.values())
    assert len(registry) == 42
    entry = registry.get("SHACL")
    assert entry.dimension is Dimension.PRAGMATIC_AFFORDANCE
    assert entry.introduced_by == "Wikidata"
    assert "PROV-O" in registry
    assert registry.get("unheard-of") is None


def test_registry_from_contexts_dimension_conflict_on_shared_name():
    a = FormalContext(Dimension.SEMANTIC_PROPERTY, ("g1", "g2"), ("shared", "own"), ((False, True), (True, False)))
    b = FormalContext(Dimension.PRAGMATIC_AFFORDANCE, ("g1",), ("other", "shared"), ((True, True),))
    with pytest.raises(InputError) as err:
        registry_from_contexts([a, b])
    assert err.value.code == "dimension-conflict"
    assert err.value.location == "shared"
    assert str(err.value) == "dimension-conflict: 'shared' is already registered under semantic-property (shared)"
    same = registry_from_contexts([a, dataclasses.replace(b, dimension=Dimension.SEMANTIC_PROPERTY)])
    assert [(e.name, e.dimension, e.introduced_by) for e in same.entries] == [
        ("shared", Dimension.SEMANTIC_PROPERTY, "g2"),
        ("own", Dimension.SEMANTIC_PROPERTY, "g1"),
        ("other", Dimension.SEMANTIC_PROPERTY, "g1"),
    ]


@given(st.lists(st.tuples(contexts_strategy(max_objects=4, max_attributes=5), st.sampled_from(list(Dimension))), max_size=4))
def test_registry_from_contexts_matches_one_registration_at_a_time(drawn):
    contexts = [dataclasses.replace(ctx, dimension=d) for ctx, d in drawn]
    try:
        want = oracle_registry_from_contexts(contexts)
    except InputError as exc:
        with pytest.raises(InputError) as err:
            registry_from_contexts(contexts)
        assert str(err.value) == str(exc)
    else:
        assert registry_from_contexts(contexts) == want


def test_registry_lookup_normalizes():
    registry, _ = register_feature(FeatureRegistry(), "a b", Dimension.SEMANTIC_PROPERTY)
    assert registry.get("  a   b ") is not None


def test_hand_built_registry_normalizes_and_keeps_each_name_once():
    sp = Dimension.SEMANTIC_PROPERTY
    registry = FeatureRegistry((
        RegistryEntry(" b ", sp, " g1 "),
        RegistryEntry("a", sp, "g2"),
        RegistryEntry("b", sp, "g3"),
    ))
    assert registry.get("b") == RegistryEntry("b", sp, "g1")
    assert " b " in registry
    assert len(registry) == 2
    assert [e.name for e in registry.entries] == ["b", "a"]


def test_shacl_retro_worklist_replay():
    """Register a late-arriving feature against the contexts analysed so far."""
    full = corpus().contexts[Dimension.PRAGMATIC_AFFORDANCE]
    first_five = full.objects[:5]
    seen_attrs = [a for a in full.attributes if any(a in full.features_of(o) for o in first_five)]
    partial = FormalContext.from_feature_sets(
        Dimension.PRAGMATIC_AFFORDANCE,
        first_five,
        {o: full.features_of(o) for o in first_five},
        attributes=seen_attrs,
    )
    assert "SHACL" not in partial.attribute_index
    _, pending = register_feature(
        registry_from_contexts([partial]), "SHACL", Dimension.PRAGMATIC_AFFORDANCE, [partial]
    )
    assert pending == (
        "Europeana",
        "Google Data Commons",
        "Bio2RDF",
        "British Museum ResearchSpace",
        "UniProt",
    )


# --- merge ----------------------------------------------------------------------


def test_merge_qualifies_and_preserves_incidence(corpus):
    combined = corpus.combined
    assert combined.dimension is Dimension.COMBINED
    assert len(combined.attributes) == 42
    for dim, ctx in corpus.contexts.items():
        for obj in ctx.objects:
            for attr in ctx.attributes:
                qualified = f"{dim.value}:{attr}"
                assert (qualified in combined.features_of(obj)) == (attr in ctx.features_of(obj))


def test_merge_keeps_block_order(corpus):
    combined = corpus.combined
    sem = corpus.contexts[Dimension.SEMANTIC_PROPERTY]
    assert combined.attributes[: len(sem.attributes)] == tuple(
        f"semantic-property:{a}" for a in sem.attributes
    )


def test_merge_object_mismatch():
    a = FormalContext(Dimension.SEMANTIC_PROPERTY, ("g1", "g2"), ("m",), ((True,), (False,)))
    b = FormalContext(Dimension.PRAGMATIC_PROPERTY, ("g2", "g1"), ("m",), ((True,), (False,)))
    with pytest.raises(InputError) as err:
        merge_contexts([a, b])
    assert err.value.code == "object-mismatch"


def test_merge_attribute_collision():
    a = FormalContext(Dimension.SEMANTIC_PROPERTY, ("g",), ("m",), ((True,),))
    b = FormalContext(Dimension.SEMANTIC_PROPERTY, ("g",), ("m",), ((False,),))
    with pytest.raises(InputError) as err:
        merge_contexts([a, b])
    assert err.value.code == "attribute-collision"


def test_merge_empty():
    with pytest.raises(InputError) as err:
        merge_contexts([])
    assert err.value.code == "empty-merge"
