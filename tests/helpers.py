"""Independent reference implementations used as oracles, plus test data generators.

Nothing here calls into the package's derivation or lattice code; oracles work
directly off the incidence table with plain set operations.
"""

from __future__ import annotations

import itertools
import random
import re
from functools import lru_cache

from hypothesis import strategies as st

from kgcontinuum import Dimension, FeatureRegistry, FormalContext, Implication, load_corpus, register_feature


# verdict lines collected by the acceptance suite; the conftest summary hook
# replays them at the end of the run
acceptance_lines: list[str] = []


@lru_cache(maxsize=1)
def corpus():
    return load_corpus()


_WS_RUN = re.compile(r"\s+")


def oracle_normalize_name(name):
    """Trim, then collapse each run the regex class \\s matches (the package's normalizer before str.split)."""
    return _WS_RUN.sub(" ", name.strip())


def oracle_registry_from_contexts(contexts):
    """Register every attribute one register_feature call at a time (the package's bulk registration before one pass)."""
    registry = FeatureRegistry()
    for ctx in contexts:
        for j, attr in enumerate(ctx.attributes):
            first = next((o for o, row in zip(ctx.objects, ctx.incidence) if row[j]), None)
            registry, _ = register_feature(registry, attr, ctx.dimension, introduced_by=first)
    return registry


def features_map(ctx):
    return {
        o: frozenset(a for a, v in zip(ctx.attributes, row) if v)
        for o, row in zip(ctx.objects, ctx.incidence)
    }


def oracle_derive_objects(ctx, attrs):
    feats = features_map(ctx)
    want = frozenset(attrs)
    return frozenset(o for o in ctx.objects if want <= feats[o])


def oracle_derive_attributes(ctx, objs):
    feats = features_map(ctx)
    rows = [feats[o] for o in objs]
    if not rows:
        return frozenset(ctx.attributes)
    return frozenset.intersection(*rows)


def oracle_close(ctx, attrs):
    return oracle_derive_attributes(ctx, oracle_derive_objects(ctx, attrs))


def oracle_extent_mask(ctx, amask):
    """Objects whose row holds amask, by scanning every row (the package's operator before column masks)."""
    out = 0
    for i, row in enumerate(ctx.row_masks):
        if row & amask == amask:
            out |= 1 << i
    return out


def oracle_intent_mask(ctx, omask):
    """AND of the rows of the objects in omask, one object at a time; all attributes for omask == 0."""
    mask = (1 << len(ctx.attributes)) - 1
    rows = ctx.row_masks
    i = 0
    while omask:
        if omask & 1:
            mask &= rows[i]
        omask >>= 1
        i += 1
    return mask


def oracle_next_closure_concepts(ctx):
    """Every (extent, intent) pair of names, by NextClosure over the row-scanning operators.

    The package enumerated concepts this way before FCbO; it is kept as the
    reference that enumeration is checked against.
    """
    n = len(ctx.attributes)
    full = (1 << n) - 1

    def close(m):
        return oracle_intent_mask(ctx, oracle_extent_mask(ctx, m))

    def names(m, pool):
        return frozenset(x for k, x in enumerate(pool) if m >> k & 1)

    mask = close(0)
    found = []
    while True:
        found.append((names(oracle_extent_mask(ctx, mask), ctx.objects), names(mask, ctx.attributes)))
        if mask == full:
            return found
        for i in range(n - 1, -1, -1):
            bit = 1 << i
            if mask & bit:
                continue
            low = bit - 1
            candidate = close((mask & low) | bit)
            if candidate & low == mask & low:
                mask = candidate
                break


def oracle_concepts(ctx):
    """Every (extent, intent) pair, found by closing every attribute subset."""
    feats = features_map(ctx)
    all_attrs = frozenset(ctx.attributes)
    found = set()
    for r in range(len(ctx.attributes) + 1):
        for comb in itertools.combinations(ctx.attributes, r):
            b = frozenset(comb)
            ext = frozenset(o for o in ctx.objects if b <= feats[o])
            if ext:
                intent = frozenset.intersection(*(feats[o] for o in ext))
            else:
                intent = all_attrs
            found.add((ext, intent))
    return found


def canonical_sort(pairs):
    return sorted(pairs, key=lambda p: (len(p[0]), tuple(sorted(p[0]))))


def oracle_covers(pairs):
    """Transitive reduction of strict extent inclusion, over canonical indices."""
    cs = canonical_sort(pairs)
    n = len(cs)
    up = [0] * n
    down = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and cs[i][0] < cs[j][0]:
                up[i] |= 1 << j
                down[j] |= 1 << i
    edges = set()
    for i in range(n):
        rest = up[i]
        while rest:
            jbit = rest & -rest
            rest ^= jbit
            j = jbit.bit_length() - 1
            if not up[i] & down[j]:
                edges.add((i, j))
    return edges


def oracle_implication_valid(ctx, premise, conclusion):
    feats = features_map(ctx)
    premise, conclusion = frozenset(premise), frozenset(conclusion)
    return all(conclusion <= feats[o] for o in ctx.objects if premise <= feats[o])


def oracle_implication_closure(imps, attrs):
    """Fixpoint closure of attrs under (premise, conclusion) pairs."""
    out = set(attrs)
    grew = True
    while grew:
        grew = False
        for p, c in imps:
            if p <= out and not c <= out:
                out |= c
                grew = True
    return frozenset(out)


def oracle_pseudo_intents(ctx):
    """Size-ordered evaluation of the recursive definition; keep attributes few."""
    pseudo = []  # (set, closure) in discovery order
    for r in range(len(ctx.attributes) + 1):
        for comb in itertools.combinations(ctx.attributes, r):
            p = frozenset(comb)
            clo = oracle_close(ctx, p)
            if clo == p:
                continue
            if all(q_clo <= p for q, q_clo in pseudo if q < p):
                pseudo.append((p, clo))
    return {p for p, _ in pseudo}


def _l_close(mask, imps):
    """Fixpoint of firing (premise, closure) pairs whose premise is contained."""
    changed = True
    while changed:
        changed = False
        for p, c in imps:
            if p & mask == p and c & ~mask:
                mask |= c
                changed = True
    return mask


def oracle_basis_l_close(ctx):
    """The Duquenne-Guigues basis by NextClosure over rescanning L-closures.

    The package's basis before its implication index, kept as the reference:
    every candidate is closed to a fixpoint by rescanning all implications
    found so far, with bitmask context closure computed here from the rows.
    """
    n = len(ctx.attributes)
    full = (1 << n) - 1
    rows = [sum(1 << j for j, v in enumerate(row) if v) for row in ctx.incidence]

    def close(mask):
        out = full
        for row in rows:
            if row & mask == mask:
                out &= row
        return out

    found = []  # (premise mask, context closure of premise)
    mask = 0
    while True:
        closed = close(mask)
        if closed != mask:
            found.append((mask, closed))
        if mask == full:
            break
        for i in range(n - 1, -1, -1):
            bit = 1 << i
            if mask & bit:
                continue
            low = bit - 1
            candidate = _l_close((mask & low) | bit, found)
            if candidate & low == mask & low:
                mask = candidate
                break

    def names(m):
        return frozenset(a for j, a in enumerate(ctx.attributes) if m >> j & 1)

    return tuple(Implication(names(p), names(c & ~p)) for p, c in found)


def lectic_less(ctx, a, b):
    """a comes before b when the earliest attribute they disagree on is in b."""
    if a == b:
        return False
    index = ctx.attribute_index
    first = min(index[x] for x in a ^ b)
    return first in {index[x] for x in b}


def subset_of(rng, pool):
    items = list(pool)
    return frozenset(x for x in items if rng.random() < 0.5)


def random_context(rng, max_objects=12, max_attributes=12, dimension=Dimension.COMBINED):
    n_obj = rng.randint(0, max_objects)
    n_att = rng.randint(0, max_attributes)
    density = rng.uniform(0.15, 0.85)
    objects = tuple(f"g{i}" for i in range(n_obj))
    attributes = tuple(f"m{j}" for j in range(n_att))
    rows = tuple(tuple(rng.random() < density for _ in range(n_att)) for _ in range(n_obj))
    return FormalContext(dimension, objects, attributes, rows)


def seeded_context(seed, n_obj, n_att, density):
    rng = random.Random(seed)
    return FormalContext(
        Dimension.COMBINED,
        tuple(f"g{i}" for i in range(n_obj)),
        tuple(f"m{j}" for j in range(n_att)),
        tuple(tuple(rng.random() < density for _ in range(n_att)) for _ in range(n_obj)),
    )


@st.composite
def contexts_strategy(draw, max_objects=7, max_attributes=7):
    n_obj = draw(st.integers(0, max_objects))
    n_att = draw(st.integers(0, max_attributes))
    rows = draw(
        st.lists(
            st.lists(st.booleans(), min_size=n_att, max_size=n_att),
            min_size=n_obj,
            max_size=n_obj,
        )
    )
    return FormalContext(
        Dimension.COMBINED,
        tuple(f"g{i}" for i in range(n_obj)),
        tuple(f"m{j}" for j in range(n_att)),
        tuple(tuple(r) for r in rows),
    )


def subset_strategy(pool):
    items = list(pool)
    if not items:
        return st.just(frozenset())
    return st.frozensets(st.sampled_from(items))
