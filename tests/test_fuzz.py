"""Parsers of outside input raise InputError and nothing else, whatever the text."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from kgcontinuum import (
    InputError,
    cost_model_from_json,
    parse_cxt,
    parse_json_context,
    requirement_from_json,
)

from helpers import oracle_parse_cxt

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
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_parsers_raise_only_input_errors(parse, shaped, data):
    text = data.draw(st.text(max_size=40) | json_values.map(json.dumps) | shaped)
    try:
        parse(text)
    except InputError:
        pass


@settings(max_examples=80, deadline=None)
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


@settings(max_examples=300, deadline=None)
@given(text=cxt_texts())
def test_parse_cxt_matches_the_character_loop_parser(text):
    assert parsed(parse_cxt, text) == parsed(oracle_parse_cxt, text)
