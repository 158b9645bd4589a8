"""Legend tables, layer assignment, and DOT output."""

import pytest
from hypothesis import given, strategies as st

from kgcontinuum import (
    Dimension,
    FormalContext,
    InputError,
    Legend,
    assign_layers,
    build_lattice,
    join,
    lattice_json,
    legend,
    meet,
    to_dot,
)

from helpers import (
    contexts_strategy,
    corpus,
    escape_names,
    escaped_contexts_strategy,
    oracle_index_of_extent,
    oracle_join,
    oracle_lattice_json,
    oracle_legend_rows,
    oracle_meet,
    oracle_to_dot,
    oracle_upper_covers,
    seeded_context,
    subset_strategy,
)


def prag_prop_lattice():
    return build_lattice(corpus().contexts[Dimension.PRAGMATIC_PROPERTY])


# --- legend -------------------------------------------------------------------


def test_legend_rows_align_with_lattice():
    lattice = prag_prop_lattice()
    table = legend(lattice)
    # row i is concept c{i}: the ids the writers print come from the row positions
    assert len(table.rows) == len(lattice.concepts)
    ids = [line.split(",", 1)[0] for line in table.to_csv().splitlines()[1:]]
    assert ids == [f"c{i}" for i in range(len(lattice.concepts))]
    for (objects, attributes), concept in zip(table.rows, lattice.concepts):
        assert frozenset(objects) == concept.extent
        assert frozenset(attributes) == concept.intent


@given(contexts_strategy())
def test_legend_bijection(ctx):
    lattice = build_lattice(ctx)
    table = legend(lattice)
    assert len(table.rows) == len(lattice.concepts)
    # names are listed in declaration order
    for objects, attributes in table.rows:
        assert list(objects) == [o for o in ctx.objects if o in set(objects)]
        assert list(attributes) == [a for a in ctx.attributes if a in set(attributes)]


def test_names_follow_declaration_order_when_it_is_not_alphabetical():
    # g10 sorts before g2 and m10 before m2, so only the declaration order fits
    ctx = seeded_context(5, 12, 12, 0.5)
    lattice = build_lattice(ctx)
    doc = lattice_json(lattice)
    rows = legend(lattice).rows
    dot = to_dot(lattice, labels="id+intent")
    unsorted = 0
    for i, (concept, entry, (row_objects, row_attributes)) in enumerate(zip(lattice.concepts, doc["concepts"], rows)):
        objects = [o for o in ctx.objects if o in concept.extent]
        attributes = [a for a in ctx.attributes if a in concept.intent]
        assert entry["extent"] == list(row_objects) == objects
        assert entry["intent"] == list(row_attributes) == attributes
        assert f'"c{i}" [label="c{i}\\n{", ".join(attributes) or "---"}"];' in dot
        unsorted += objects != sorted(objects) or attributes != sorted(attributes)
    assert doc["concepts"][-1]["extent"] == list(ctx.objects)
    assert unsorted > 0


def test_legend_markdown_format():
    text = legend(prag_prop_lattice()).to_markdown()
    lines = text.splitlines()
    assert lines[0] == "| ID | Objects | Attributes |"
    assert lines[1] == "| --- | --- | --- |"
    assert lines[2].startswith("| c0 | --- | ")  # bottom extent is empty
    assert len(lines) == 2 + 10
    assert text.endswith("\n")


def test_legend_csv_format():
    text = legend(prag_prop_lattice()).to_csv()
    lines = text.splitlines()
    assert lines[0] == "id,objects,attributes"
    assert lines[1].startswith("c0,---,")
    assert "; " in lines[1]  # multi-name cells joined with semicolon-space
    assert len(lines) == 1 + 10


def test_legend_empty_intent_sentinel():
    ctx = FormalContext(Dimension.COMBINED, ("g1", "g2"), (), ((), ()))
    table = legend(build_lattice(ctx))
    assert table.to_csv().splitlines()[1] == "c0,g1; g2,---"
    assert "| --- |" in table.to_markdown().splitlines()[2]


def test_legend_csv_quotes_commas():
    ctx = FormalContext(Dimension.COMBINED, ("g, one",), ("m",), ((False,),))
    lines = legend(build_lattice(ctx)).to_csv().splitlines()
    # concepts: (empty, {m}) then ({g, one}, empty)
    assert lines[2] == 'c1,"g, one",---'


def test_hand_built_legend_equals_the_lattice_legend_and_escapes_only_names():
    lattice = prag_prop_lattice()
    assert Legend(lattice) == legend(lattice) and legend(lattice).rows is lattice.names
    # one object named a|b with no attributes: its lattice is the single concept (a|b, ---)
    table = Legend(build_lattice(FormalContext(Dimension.COMBINED, ("a|b",), (), ((),))))
    assert table.to_markdown().splitlines()[2] == "| c0 | a\\|b | --- |"


# --- layers -------------------------------------------------------------------


def test_layers_top_is_zero_and_edges_descend():
    lattice = prag_prop_lattice()
    layer = assign_layers(lattice)
    assert layer[lattice.top_index] == 0
    for lo, up in lattice.covers:
        assert layer[lo] > layer[up]


@given(contexts_strategy())
def test_layers_monotone_along_covers(ctx):
    lattice = build_lattice(ctx)
    layer = assign_layers(lattice)
    assert layer[lattice.top_index] == 0
    for lo, up in lattice.covers:
        assert layer[lo] >= layer[up] + 1
    # every non-top concept sits one below some upper cover on a longest path
    for i, ups in enumerate(lattice.upper_covers):
        if ups:
            assert layer[i] == max(layer[u] for u in ups) + 1


def test_layers_single_concept():
    ctx = FormalContext(Dimension.COMBINED, ("g",), (), ((),))
    assert assign_layers(build_lattice(ctx)) == (0,)


# --- DOT ----------------------------------------------------------------------


def test_dot_counts_for_pragmatic_properties():
    text = to_dot(prag_prop_lattice())
    lines = text.splitlines()
    assert lines[0] == "digraph lattice {"
    assert lines[-1] == "}"
    node_lines = [l for l in lines if "[label=" in l]
    edge_lines = [l for l in lines if "->" in l]
    assert len(node_lines) == 10
    assert len(edge_lines) == 15


def test_dot_is_deterministic():
    a = to_dot(prag_prop_lattice(), labels="id+intent")
    b = to_dot(prag_prop_lattice(), labels="id+intent")
    assert a == b


def test_dot_edges_point_upper_to_lower():
    lattice = prag_prop_lattice()
    layer = assign_layers(lattice)
    for line in to_dot(lattice).splitlines():
        if "->" in line:
            src, dst = (s.strip().strip('";') for s in line.split("->"))
            i, j = int(src.strip('"')[1:]), int(dst.strip('"')[1:])
            assert layer[i] < layer[j]


def test_dot_rank_groups_cover_all_layers():
    lattice = prag_prop_lattice()
    layer = assign_layers(lattice)
    text = to_dot(lattice)
    rank_lines = [l for l in text.splitlines() if "rank=same" in l]
    assert len(rank_lines) == max(layer) + 1


def test_dot_intent_labels():
    text = to_dot(prag_prop_lattice(), labels="id+intent")
    assert '"c2" [label="c2\\nOAI-ORE aggregation"];' in text
    # top concept of this lattice has an empty intent
    assert '"c9" [label="c9\\n---"];' in text


def test_dot_id_only_labels():
    text = to_dot(prag_prop_lattice(), labels="id-only")
    assert '"c2" [label="c2"];' in text


def test_dot_rejects_unknown_label_mode():
    with pytest.raises(InputError) as err:
        to_dot(prag_prop_lattice(), labels="fancy")
    assert err.value.code == "unknown-label-mode"


def test_dot_escapes_quotes():
    ctx = FormalContext(Dimension.COMBINED, ("g",), ('say "hi"',), ((True,),))
    text = to_dot(build_lattice(ctx), labels="id+intent")
    assert 'say \\"hi\\"' in text


def test_dot_single_node_no_edges():
    ctx = FormalContext(Dimension.COMBINED, ("g1", "g2", "g3"), (), ((), (), ()))
    text = to_dot(build_lattice(ctx))
    assert len([l for l in text.splitlines() if "[label=" in l]) == 1
    assert not [l for l in text.splitlines() if "->" in l]


# --- every view against the sort-based oracles -----------------------------------


def outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return exc.code, exc.message


@given(data=st.data())
def test_lattice_views_match_sort_based_oracles(data):
    ctx = data.draw(escaped_contexts_strategy())
    lattice = build_lattice(ctx)
    assert lattice.upper_covers == oracle_upper_covers(lattice)
    assert lattice_json(lattice) == oracle_lattice_json(lattice)
    assert [(f"c{i}", *row) for i, row in enumerate(legend(lattice).rows)] == oracle_legend_rows(lattice)
    for labels in ("id-only", "id+intent"):
        assert to_dot(lattice, labels) == oracle_to_dot(lattice, labels)
    n = len(lattice.concepts)
    # n and -1 fall outside the index range
    i, j = data.draw(st.integers(-1, n)), data.draw(st.integers(-1, n))
    assert outcome(meet, lattice, i, j) == outcome(oracle_meet, lattice, i, j)
    assert outcome(join, lattice, i, j) == outcome(oracle_join, lattice, i, j)
    extent = data.draw(subset_strategy(ctx.objects))
    assert outcome(lattice.index_of_extent, extent) == outcome(oracle_index_of_extent, lattice, extent)
    # a normalized name never ends in a newline, so this one is outside the context
    stray = extent | {data.draw(escape_names) + "\n"}
    assert outcome(lattice.index_of_extent, stray)[0] == "unknown-extent"
    assert outcome(lattice.index_of_extent, stray) == outcome(oracle_index_of_extent, lattice, stray)
