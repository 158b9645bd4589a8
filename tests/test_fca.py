"""Derivation laws, closed-set enumeration, lattice structure, implications."""

import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from kgcontinuum import (
    ConceptLattice,
    Dimension,
    FormalConcept,
    FormalContext,
    Implication,
    InputError,
    build_lattice,
    close_attributes,
    close_under_implications,
    derive_attributes,
    derive_objects,
    enumerate_concepts,
    follows_from,
    implication_basis,
    implication_holds,
    join,
    lattice_json,
    meet,
    next_closure,
    parse_json_context,
)

from kgcontinuum.fca import _ImplicationIndex, _concept_masks, _extent_mask, _intent_mask

from helpers import (
    _l_close,
    canonical_sort,
    contexts_strategy,
    corpus,
    escaped_contexts_strategy,
    lectic_less,
    oracle_basis_l_close,
    oracle_close,
    oracle_concepts,
    oracle_covers,
    oracle_derive_attributes,
    oracle_derive_objects,
    oracle_extent_mask,
    oracle_fcbo_concept_masks,
    oracle_implication_closure,
    oracle_implication_valid,
    oracle_intent_mask,
    oracle_next_closure_concepts,
    oracle_pseudo_intents,
    random_context,
    seeded_context,
    subset_strategy,
)

GOLDEN_CONTEXTS = Path(__file__).resolve().parent / "golden" / "contexts"


# --- derivation laws -----------------------------------------------------------


@given(data=st.data())
def test_derivation_matches_oracle(data):
    ctx = data.draw(contexts_strategy())
    objs = data.draw(subset_strategy(ctx.objects))
    attrs = data.draw(subset_strategy(ctx.attributes))
    assert derive_attributes(ctx, objs) == oracle_derive_attributes(ctx, objs)
    assert derive_objects(ctx, attrs) == oracle_derive_objects(ctx, attrs)
    assert close_attributes(ctx, attrs) == oracle_close(ctx, attrs)


def masks_strategy(n):
    full = (1 << n) - 1
    return st.one_of(st.just(0), st.just(full), st.integers(0, full))


@given(data=st.data())
def test_mask_operators_match_row_scanning_oracles(data):
    ctx = data.draw(contexts_strategy())
    amask = data.draw(masks_strategy(len(ctx.attributes)))
    omask = data.draw(masks_strategy(len(ctx.objects)))
    assert _extent_mask(ctx, amask) == oracle_extent_mask(ctx, amask)
    assert _intent_mask(ctx, omask) == oracle_intent_mask(ctx, omask)
    # column j holds bit i exactly when row i holds bit j
    assert len(ctx.column_masks) == len(ctx.attributes)
    for i, row in enumerate(ctx.row_masks):
        for j, column in enumerate(ctx.column_masks):
            assert column >> i & 1 == row >> j & 1 == ctx.incidence[i][j]


@given(data=st.data())
def test_galois_adjunction(data):
    ctx = data.draw(contexts_strategy())
    a = data.draw(subset_strategy(ctx.objects))
    b = data.draw(subset_strategy(ctx.attributes))
    # A subset of B' exactly when B subset of A'
    assert (a <= derive_objects(ctx, b)) == (b <= derive_attributes(ctx, a))


@given(data=st.data())
def test_derivation_antitone(data):
    ctx = data.draw(contexts_strategy())
    a2 = data.draw(subset_strategy(ctx.attributes))
    a1 = data.draw(subset_strategy(a2))
    assert derive_objects(ctx, a2) <= derive_objects(ctx, a1)


@given(data=st.data())
def test_closure_laws(data):
    ctx = data.draw(contexts_strategy())
    b2 = data.draw(subset_strategy(ctx.attributes))
    b1 = data.draw(subset_strategy(b2))
    c1, c2 = close_attributes(ctx, b1), close_attributes(ctx, b2)
    assert b1 <= c1  # extensive
    assert c1 <= c2  # monotone
    assert close_attributes(ctx, c1) == c1  # idempotent


@given(data=st.data())
def test_triple_derivation_collapses(data):
    ctx = data.draw(contexts_strategy())
    attrs = data.draw(subset_strategy(ctx.attributes))
    once = derive_objects(ctx, attrs)
    assert derive_objects(ctx, derive_attributes(ctx, once)) == once


def test_empty_set_derives_everything():
    ctx = corpus().contexts[Dimension.PRAGMATIC_PROPERTY]
    assert derive_attributes(ctx, []) == frozenset(ctx.attributes)
    assert derive_objects(ctx, []) == frozenset(ctx.objects)


def test_derivation_unknown_names():
    ctx = corpus().contexts[Dimension.PRAGMATIC_PROPERTY]
    with pytest.raises(InputError) as err:
        derive_objects(ctx, ["no such feature"])
    assert err.value.code == "unknown-attribute"
    with pytest.raises(InputError) as err:
        derive_attributes(ctx, ["no such graph"])
    assert err.value.code == "unknown-object"


# --- next_closure ----------------------------------------------------------------


def walk(ctx):
    out = []
    current = next_closure(ctx)
    while current is not None:
        out.append(current)
        current = next_closure(ctx, current)
    return out


def test_walk_on_pragmatic_properties():
    ctx = corpus().contexts[Dimension.PRAGMATIC_PROPERTY]
    sets = walk(ctx)
    assert sets[0] == frozenset()  # no universal pragmatic property
    assert sets[-1] == frozenset(ctx.attributes)
    assert len(sets) == 10


def test_walk_starts_at_closure_of_empty():
    ctx = corpus().contexts[Dimension.SEMANTIC_AFFORDANCE]
    assert next_closure(ctx) == {"attribution"}


@given(contexts_strategy())
def test_walk_is_lectic_and_complete(ctx):
    sets = walk(ctx)
    assert len(set(sets)) == len(sets)
    for a, b in zip(sets, sets[1:]):
        assert lectic_less(ctx, a, b)
    for s in sets:
        assert close_attributes(ctx, s) == s
    assert {frozenset(i) for _, i in oracle_concepts(ctx)} == set(sets)


def test_next_closure_rejects_non_closed():
    ctx = corpus().contexts[Dimension.SEMANTIC_AFFORDANCE]
    with pytest.raises(InputError) as err:
        next_closure(ctx, frozenset(["scholarly citation"]))  # closure adds three more
    assert err.value.code == "not-closed"


def test_next_closure_exhausts_at_full_set():
    ctx = corpus().contexts[Dimension.PRAGMATIC_PROPERTY]
    assert next_closure(ctx, frozenset(ctx.attributes)) is None


# --- concept enumeration ----------------------------------------------------------


@given(contexts_strategy())
def test_concepts_match_oracle(ctx):
    computed = {(c.extent, c.intent) for c in enumerate_concepts(ctx)}
    assert computed == oracle_concepts(ctx)


@given(contexts_strategy())
def test_concepts_canonical_order(ctx):
    concepts = enumerate_concepts(ctx)
    keys = [(len(c.extent), tuple(sorted(c.extent))) for c in concepts]
    assert keys == sorted(keys)
    assert len({c.extent for c in concepts}) == len(concepts)
    assert enumerate_concepts(ctx) == concepts  # deterministic re-run


@given(data=st.data())
def test_concept_set_invariant_under_column_permutation(data):
    ctx = data.draw(contexts_strategy(max_objects=6, max_attributes=6))
    perm = data.draw(st.permutations(range(len(ctx.attributes))))
    shuffled = FormalContext(
        ctx.dimension,
        ctx.objects,
        tuple(ctx.attributes[j] for j in perm),
        tuple(tuple(row[j] for j in perm) for row in ctx.incidence),
    )
    a = {(c.extent, c.intent) for c in enumerate_concepts(ctx)}
    b = {(c.extent, c.intent) for c in enumerate_concepts(shuffled)}
    assert a == b


def test_concepts_match_row_scanning_next_closure_on_a_seeded_context():
    ctx = seeded_context(4, 100, 30, 0.3)
    concepts = enumerate_concepts(ctx)
    assert len(concepts) > 3000
    expected = canonical_sort(oracle_next_closure_concepts(ctx))
    assert concepts == tuple(FormalConcept(e, i) for e, i in expected)


@given(data=st.data())
def test_canonical_order_with_names_out_of_declaration_order(data):
    ctx = data.draw(contexts_strategy(max_objects=9, max_attributes=6))
    names = data.draw(
        st.lists(
            st.text(alphabet="abzAZ019_éß", min_size=1, max_size=4),
            min_size=len(ctx.objects),
            max_size=len(ctx.objects),
            unique=True,
        )
    )
    ctx = FormalContext(ctx.dimension, tuple(names), ctx.attributes, ctx.incidence)
    expected = canonical_sort(oracle_next_closure_concepts(ctx))
    assert enumerate_concepts(ctx) == tuple(FormalConcept(e, i) for e, i in expected)
    assert set(build_lattice(ctx).covers) == oracle_covers(expected)


def test_staircase_deeper_than_the_recursion_limit():
    # object i holds attributes 0..i: the concepts form one chain as long as
    # there are objects, deeper than the recursion limit
    n = sys.getrecursionlimit() + 100
    objects = tuple(f"g{i}" for i in range(n))
    attributes = tuple(f"m{j}" for j in range(n))
    ctx = FormalContext(Dimension.COMBINED, objects, attributes, tuple(tuple(j <= i for j in range(n)) for i in range(n)))
    chain = tuple(FormalConcept(frozenset(objects[k:]), frozenset(attributes[: k + 1])) for k in reversed(range(n)))
    assert enumerate_concepts(ctx) == chain
    lattice = build_lattice(ctx)
    assert lattice.concepts == chain
    assert lattice.covers == frozenset((i, i + 1) for i in range(n - 1))


def test_degenerate_contexts():
    no_attrs = FormalContext(Dimension.COMBINED, ("g1", "g2", "g3"), (), ((), (), ()))
    concepts = enumerate_concepts(no_attrs)
    assert len(concepts) == 1
    assert concepts[0] == FormalConcept(frozenset(["g1", "g2", "g3"]), frozenset())
    empty = FormalContext(Dimension.COMBINED, (), (), ())
    assert len(enumerate_concepts(empty)) == 1


def _context(objects, attributes, rows):
    return FormalContext(Dimension.COMBINED, objects, attributes, rows)


@pytest.mark.parametrize("strategy", [contexts_strategy(), escaped_contexts_strategy()], ids=["plain", "escaped"])
@given(data=st.data())
def test_concept_masks_match_the_fcbo_oracle(strategy, data):
    ctx = data.draw(strategy)
    assert _concept_masks(ctx) == oracle_fcbo_concept_masks(ctx)


@pytest.mark.parametrize(
    "ctx, count",
    [
        (_context([], [], []), 1),
        (_context([], ["m0", "m1", "m2"], []), 1),
        (_context(["g0", "g1", "g2"], [], [[], [], []]), 1),
        (_context([f"g{i}" for i in range(10)], [f"m{j}" for j in range(10)], [[i != j for j in range(10)] for i in range(10)]), 1024),
        # same-a and same-b hold the same column, g1 and g2 the same row; none is
        # an all-zero column and all an all-one column
        (
            _context(
                ["g0", "g1", "g2", "g3", "g4"],
                ["same-a", "same-b", "none", "all", "m"],
                [[1, 1, 0, 1, 0], [0, 0, 0, 1, 1], [0, 0, 0, 1, 1], [1, 1, 0, 1, 1], [0, 0, 0, 1, 0]],
            ),
            5,
        ),
    ],
    ids=["empty", "no-objects", "no-attributes", "contranominal-10", "duplicates"],
)
def test_concept_masks_match_the_fcbo_oracle_on_edge_contexts(ctx, count):
    pairs = _concept_masks(ctx)
    assert len(pairs) == count
    assert pairs == oracle_fcbo_concept_masks(ctx)


# --- lattice ---------------------------------------------------------------------


@given(contexts_strategy())
def test_lattice_covers_match_oracle(ctx):
    lattice = build_lattice(ctx)
    # the Lindig loop's extent lookup is handed over, so no query builds it again
    assert lattice.__dict__["_index_by_extent"] == {extent: i for i, (extent, _) in enumerate(lattice.masks)}
    expected = oracle_covers(oracle_concepts(ctx))
    assert set(lattice.covers) == expected
    assert lattice.top_index == len(lattice.concepts) - 1
    assert lattice.bottom_index == 0
    assert lattice.concepts[lattice.top_index].extent == frozenset(ctx.objects)
    assert lattice.concepts[lattice.bottom_index].intent == frozenset(ctx.attributes)


def test_lattice_covers_match_oracle_on_a_seeded_context():
    lattice = build_lattice(seeded_context(3, 50, 16, 0.4))
    assert len(lattice.concepts) > 300
    pairs = [(c.extent, c.intent) for c in lattice.concepts]
    assert set(lattice.covers) == oracle_covers(pairs)


@given(contexts_strategy(max_objects=6, max_attributes=6))
def test_meet_and_join_against_definition(ctx):
    lattice = build_lattice(ctx)
    n = len(lattice.concepts)
    for i in range(n):
        for j in range(n):
            m = lattice.concepts[meet(lattice, i, j)]
            assert m.extent == close_extent(ctx, lattice.concepts[i].extent & lattice.concepts[j].extent)
            v = lattice.concepts[join(lattice, i, j)]
            assert v.intent == close_attributes(ctx, lattice.concepts[i].intent & lattice.concepts[j].intent)


def close_extent(ctx, objs):
    return derive_objects(ctx, derive_attributes(ctx, objs))


def test_lattice_top_bottom_on_corpus():
    for dim, ctx in corpus().contexts.items():
        lattice = build_lattice(ctx)
        assert lattice.concepts[lattice.top_index].extent == frozenset(ctx.objects)
        assert lattice.concepts[lattice.bottom_index].intent == frozenset(ctx.attributes)
        assert lattice.bottom_index == 0
        assert lattice.top_index == len(lattice.concepts) - 1


def test_meet_join_identities():
    lattice = build_lattice(corpus().contexts[Dimension.SEMANTIC_AFFORDANCE])
    top, bottom = lattice.top_index, lattice.bottom_index
    for i in range(0, len(lattice.concepts), 5):
        assert meet(lattice, i, top) == i
        assert join(lattice, i, bottom) == i
        assert meet(lattice, i, i) == i
        assert join(lattice, i, i) == i
        assert meet(lattice, i, bottom) == bottom
        assert join(lattice, i, top) == top


def test_hand_built_lattice_answers_meet_and_join():
    # the constructor pre-fills the extent index; a lattice built from its fields past it builds the index on first use
    built = build_lattice(corpus().contexts[Dimension.PRAGMATIC_PROPERTY])
    lattice = ConceptLattice._of(built.context, built.masks, built.upper_covers)
    assert "_index_by_extent" not in lattice.__dict__
    n = len(lattice.masks)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    assert [meet(lattice, i, j) for i, j in pairs] == [meet(built, i, j) for i, j in pairs]
    assert [join(lattice, i, j) for i, j in pairs] == [join(built, i, j) for i, j in pairs]
    assert lattice.index_of_extent(built.concepts[3].extent) == 3


def test_join_of_wikidata_and_nanopublications_object_concepts():
    ctx = corpus().contexts[Dimension.SEMANTIC_AFFORDANCE]
    lattice = build_lattice(ctx)
    wiki = lattice.index_of_extent(derive_objects(ctx, derive_attributes(ctx, ["Wikidata"])))
    nano = lattice.index_of_extent(derive_objects(ctx, derive_attributes(ctx, ["Nanopublications"])))
    joined = lattice.concepts[join(lattice, wiki, nano)]
    assert joined.intent == {
        "attribution",
        "source tracking",
        "scholarly citation",
        "knowledge curation",
        "data quality evaluation",
    }


def test_index_out_of_range():
    lattice = build_lattice(corpus().contexts[Dimension.PRAGMATIC_PROPERTY])
    with pytest.raises(InputError) as err:
        meet(lattice, 0, len(lattice.concepts))
    assert err.value.code == "index-out-of-range"
    with pytest.raises(InputError) as err:
        join(lattice, -1, 0)
    assert err.value.code == "index-out-of-range"


def test_lattice_json_shape():
    lattice = build_lattice(corpus().contexts[Dimension.PRAGMATIC_PROPERTY])
    doc = lattice_json(lattice)
    ids = [c["id"] for c in doc["concepts"]]
    assert ids == [f"c{i}" for i in range(10)]
    assert doc["bottom"] == "c0"
    assert doc["top"] == "c9"
    assert len(doc["covers"]) == 15
    assert all(lo in ids and up in ids for lo, up in doc["covers"])
    # name lists follow declaration order
    ctx = lattice.context
    for c in doc["concepts"]:
        assert c["extent"] == [o for o in ctx.objects if o in set(c["extent"])]
        assert c["intent"] == [a for a in ctx.attributes if a in set(c["intent"])]


@pytest.mark.parametrize(
    "ctx",
    [*corpus().contexts.values(), seeded_context(1, 40, 12, 0.45), seeded_context(3, 60, 15, 0.3)],
    ids=[*(d.value for d in corpus().contexts), "seeded-40x12", "seeded-60x15"],
)
def test_lattice_json_shares_one_id_string_per_concept(ctx):
    # the bytes are guarded by the oracle test and the golden digests; this pins the sharing
    lattice = build_lattice(ctx)
    doc = lattice_json(lattice)
    concepts = doc["concepts"]
    pairs = [(lo, up) for lo, ups in enumerate(lattice.upper_covers) for up in ups]
    assert pairs and len(doc["covers"]) == len(pairs)
    for (lo, up), cover in zip(pairs, doc["covers"]):
        assert cover[0] is concepts[lo]["id"] and cover[1] is concepts[up]["id"]
    assert doc["top"] is concepts[-1]["id"] and doc["bottom"] is concepts[0]["id"]
    assert len({id(c["id"]) for c in concepts}) == len(concepts)


# --- implications ----------------------------------------------------------------


def test_implication_holds_on_corpus():
    sa = corpus().contexts[Dimension.SEMANTIC_AFFORDANCE]
    assert implication_holds(sa, Implication(frozenset(["reproducibility"]), frozenset(["attribution"])))
    pp = corpus().contexts[Dimension.PRAGMATIC_PROPERTY]
    # Bio2RDF has named graphs without PROV-O
    assert not implication_holds(pp, Implication(frozenset(["named graphs"]), frozenset(["PROV-O"])))


def test_implication_stored_disjoint():
    imp = Implication(frozenset(["a", "b"]), frozenset(["b", "c"]))
    assert imp.conclusion == {"c"}


@given(contexts_strategy(max_objects=6, max_attributes=6))
def test_basis_sound_and_minimal(ctx):
    basis = implication_basis(ctx)
    for imp in basis:
        assert implication_holds(ctx, imp)
        assert oracle_implication_valid(ctx, imp.premise, imp.conclusion)
        assert not imp.premise & imp.conclusion
        rest = [other for other in basis if other is not imp]
        assert not follows_from(imp, rest)  # no member is redundant
    assert {imp.premise for imp in basis} == oracle_pseudo_intents(ctx)


@given(contexts_strategy(max_objects=6, max_attributes=6))
def test_basis_complete(ctx):
    basis = implication_basis(ctx)
    # closing under the basis reproduces context closure for every subset
    for r in range(len(ctx.attributes) + 1):
        for comb in itertools.combinations(ctx.attributes, r):
            s = frozenset(comb)
            assert close_under_implications(basis, s) == close_attributes(ctx, s)


def test_basis_on_corpus_dimensions():
    for ctx in corpus().contexts.values():
        for imp in implication_basis(ctx):
            assert implication_holds(ctx, imp)
    assert follows_from(
        Implication(frozenset(["reproducibility"]), frozenset(["attribution"])),
        implication_basis(corpus().contexts[Dimension.SEMANTIC_AFFORDANCE]),
    )
    assert not follows_from(
        Implication(frozenset(["named graphs"]), frozenset(["PROV-O"])),
        implication_basis(corpus().contexts[Dimension.PRAGMATIC_PROPERTY]),
    )


@given(contexts_strategy(max_objects=7, max_attributes=7))
def test_basis_matches_l_close_oracle(ctx):
    assert implication_basis(ctx) == oracle_basis_l_close(ctx)


def test_basis_matches_l_close_oracle_on_corpus():
    for ctx in [*corpus().contexts.values(), corpus().combined]:
        assert implication_basis(ctx) == oracle_basis_l_close(ctx)


@pytest.mark.parametrize("seed,n_obj,n_att,density", [(1, 50, 18, 0.3), (2, 120, 32, 0.1)])
def test_basis_matches_l_close_oracle_on_seeded_contexts(seed, n_obj, n_att, density):
    ctx = seeded_context(seed, n_obj, n_att, density)
    basis = implication_basis(ctx)
    assert len(basis) > 100
    assert basis == oracle_basis_l_close(ctx)


EDGE_CONTEXTS = ["empty", "no-objects", "no-attributes", "contranominal-8", "seeded-40x12", "escapes", "duplicates"]


@pytest.mark.parametrize("name", EDGE_CONTEXTS)
def test_basis_matches_l_close_oracle_on_edge_contexts(name):
    ctx = parse_json_context((GOLDEN_CONTEXTS / f"{name}.json").read_text(encoding="utf-8"))
    assert implication_basis(ctx) == oracle_basis_l_close(ctx)


@pytest.mark.parametrize("name", EDGE_CONTEXTS)
def test_lattice_concepts_from_names_equal_enumerated_concepts(name):
    ctx = parse_json_context((GOLDEN_CONTEXTS / f"{name}.json").read_text(encoding="utf-8"))
    assert build_lattice(ctx).concepts == enumerate_concepts(ctx)


def test_l_closure_gives_up_below_the_top_bit():
    index = _ImplicationIndex(4)
    index.add(0b0100, 0b0101)  # {m2} -> {m0}
    index.add(0b0001, 0b0011)  # {m0} -> {m1}
    candidate, low = 0b0100, 0b0011  # NextClosure step at m2 from the empty set
    partial = index.close(candidate, low, index.fireable(candidate))
    assert _l_close(candidate, index.found) == 0b0111
    assert partial == 0b0101  # stopped once m0, below m2, came in
    assert partial & low != candidate & low  # so the lectic check rejects it
    # low = 0 forbids nothing: the same candidate runs to the fixpoint
    assert index.close(candidate, 0, index.fireable(candidate)) == 0b0111
    # a closure that adds only attributes above the top bit runs to the fixpoint
    index.add(0b0010, 0b1010)  # {m1} -> {m3}
    assert index.close(0b0010, 0b0001, index.fireable(0b0010)) == _l_close(0b0010, index.found) == 0b1010


def test_successor_rejects_a_candidate_by_one_and_exactly_when_its_closure_would_fail():
    calls = []

    class Recording(_ImplicationIndex):
        def close(self, mask, low, fireable):
            calls.append((mask, low, fireable))
            return super().close(mask, low, fireable)

    index = Recording(3)
    index.add(0b100, 0b101)  # {m2} -> {m0}
    mask = 0  # L-closed: no premise is empty; m0, m1 and m2 lie outside
    # candidate {m2}, at the outside attribute t = 2: its first round fires
    # below[2] & upto[2], which meets gains[2] since the closure holds m0
    below, gains = index.without[0] & index.without[1], index.holding[0] | index.holding[1]
    assert below & index.upto[2] == index.fireable(0b100) == 0b1
    assert below & index.upto[2] & gains
    # candidate {m1}, at t = 1: below[1] & upto[1] is empty, so it meets nothing
    below, gains = index.without[0], index.holding[0]
    assert below & index.upto[1] == index.fireable(0b010) == 0
    assert not below & index.upto[1] & gains
    assert index.successor(mask) == 0b010
    assert calls == [(0b010, 0b001, 0)]  # {m2} was rejected without a closure, {m1} was closed
    # closing the rejected candidate anyway gives a set the lectic check rejects
    low = 0b011
    assert index.close(0b100, low, index.fireable(0b100)) & low != mask & low
    # after the full set there is no successor
    assert index.successor(0b111) is None


# a few plain names beside escape-heavy ones, so that sets overlap often
closure_names = st.sampled_from(["a", "b", "c", "", " a ", 'q"', "x\\y", "\n", "\x00", "\u2028", "é日😀"])
closure_name_sets = st.frozensets(closure_names, max_size=4)
# Implication drops the premise from a drawn conclusion, so sides may be drawn overlapping
closure_implications = st.builds(Implication, closure_name_sets, closure_name_sets)


@given(imps=st.lists(closure_implications, max_size=8), start=st.lists(closure_names, max_size=5), claim=closure_implications)
@example(imps=[Implication(frozenset(), frozenset(["a"]))], start=[], claim=Implication(frozenset(), frozenset(["a"])))
@example(
    imps=[Implication(frozenset(["a"]), frozenset(["a", "\n"])), Implication(frozenset(["\n", "c"]), frozenset(["é日😀"]))],
    start=["a", "c", "a", "c"],
    claim=Implication(frozenset(["c", "a"]), frozenset(["é日😀", "b"])),
)
def test_close_under_implications_matches_the_fixpoint_oracle(imps, start, claim):
    pairs = [(imp.premise, imp.conclusion) for imp in imps]
    closed = oracle_implication_closure(pairs, start)
    assert close_under_implications(imps, start) == closed
    # each argument is read once, so one-shot iterators give the same set
    assert close_under_implications((imp for imp in imps), iter(start)) == closed
    entailed = claim.conclusion <= oracle_implication_closure(pairs, claim.premise)
    assert follows_from(claim, imps) == follows_from(claim, iter(imps)) == entailed


def test_close_under_implications_fixpoint():
    imps = [
        Implication(frozenset(["a"]), frozenset(["b"])),
        Implication(frozenset(["b"]), frozenset(["c"])),
    ]
    assert close_under_implications(imps, ["a"]) == {"a", "b", "c"}
    assert close_under_implications([], ["x"]) == {"x"}


def test_seeded_sweep_medium_contexts():
    """Spot-check mid-size random contexts beyond the hypothesis size range."""
    rng = random.Random(20260816)
    for _ in range(25):
        ctx = random_context(rng, max_objects=10, max_attributes=10)
        assert {(c.extent, c.intent) for c in enumerate_concepts(ctx)} == oracle_concepts(ctx)
        lattice = build_lattice(ctx)
        assert set(lattice.covers) == oracle_covers(oracle_concepts(ctx))
