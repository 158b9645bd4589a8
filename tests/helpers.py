"""Independent reference implementations used as oracles, plus test data generators.

Nothing here calls into the package's derivation or lattice code; oracles work
directly off the incidence table with plain set operations.
"""

from __future__ import annotations

import itertools
import random
import re
import reprlib
from functools import lru_cache

from hypothesis import strategies as st

from kgcontinuum import (
    Dimension,
    FeatureDelta,
    FeatureRegistry,
    FormalContext,
    Implication,
    InputError,
    KgProfile,
    RequirementSet,
    load_corpus,
    normalize_name,
    register_feature,
)
from kgcontinuum.context import _bits


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


def oracle_row_masks(ctx):
    """Each object's attribute mask, set one cell at a time (the package's row masks before they were built in C)."""
    masks = []
    for row in ctx.incidence:
        m = 0
        for j, v in enumerate(row):
            if v:
                m |= 1 << j
        masks.append(m)
    return tuple(masks)


def oracle_column_masks(ctx):
    """Each attribute's object mask, set one cell at a time (the package's column masks before they were built in C)."""
    masks = [0] * len(ctx.attributes)
    for i, row in enumerate(ctx.incidence):
        for j, v in enumerate(row):
            if v:
                masks[j] |= 1 << i
    return tuple(masks)


def oracle_holders_of(ctx, attr):
    """Objects holding one attribute, by scanning every row (the package's holders_of before column masks)."""
    j = ctx.attribute_index[normalize_name(attr)]
    return frozenset(o for o, row in zip(ctx.objects, ctx.incidence) if row[j])


def oracle_attribute_frequency(ctx):
    """Count each attribute's objects one cell at a time (the package's count before the column sums)."""
    freq = {a: 0 for a in ctx.attributes}
    for row in ctx.incidence:
        for a, v in zip(ctx.attributes, row):
            if v:
                freq[a] += 1
    return freq


def oracle_validate_context(ctx):
    """(code, message, location) of each warning, from an any/all scan per column (the package's check before it read the counts)."""
    warnings = []
    for j, attr in enumerate(ctx.attributes):
        column = [row[j] for row in ctx.incidence]
        if not any(column):
            warnings.append(("vacuous-attribute", f"no object exhibits {attr!r}", attr))
        elif all(column):
            warnings.append(("universal-attribute", f"every object exhibits {attr!r}", attr))
    return warnings


def oracle_parse_cxt(text, dimension=Dimension.COMBINED):
    """The package's CXT parser before its ordered-set name check and translate row check.

    Names go in lists scanned for duplicates and rows are read one character
    at a time; errors carry the same code, message and location.
    """
    lines = text.split("\n")
    if len(lines) > 1 and lines[-1] == "":
        lines.pop()

    def take(idx, what):
        if idx >= len(lines):
            raise InputError("count-mismatch", f"missing {what}", location=f"line {idx + 1}")
        return lines[idx]

    if take(0, "format marker").rstrip() != "B":
        raise InputError("malformed-header", "first line must be 'B'", location="line 1")
    if take(1, "separator").strip():
        raise InputError("malformed-header", "second line must be blank", location="line 2")

    def count(idx, what):
        raw = take(idx, what).strip()
        if not (raw.isascii() and raw.isdigit() and len(raw) <= 9):
            raise InputError(
                "malformed-header",
                f"{what} must be a decimal count of at most 9 ASCII digits, got {reprlib.repr(raw)}",
                location=f"line {idx + 1}",
            )
        return int(raw)

    n_objects = count(2, "object count")
    n_attributes = count(3, "attribute count")
    if take(4, "separator").strip():
        raise InputError("malformed-header", "fifth line must be blank", location="line 5")

    pos = 5
    object_names = []
    attribute_names = []
    for k in range(n_objects + n_attributes):
        kind = "object" if k < n_objects else "attribute"
        name = normalize_name(take(pos, f"{kind} name"))
        bucket = object_names if kind == "object" else attribute_names
        if not name:
            raise InputError("empty-name", f"{kind} name is empty", location=f"line {pos + 1}")
        if name in bucket:
            raise InputError(f"duplicate-{kind}", f"{kind} {name!r} already declared", location=f"line {pos + 1}")
        bucket.append(name)
        pos += 1

    rows = []
    for _ in range(n_objects):
        raw = take(pos, "incidence row").rstrip()
        cells = []
        for ch in raw:
            if ch == "X":
                cells.append(True)
            elif ch == ".":
                cells.append(False)
            else:
                raise InputError("invalid-row", f"rows may contain only 'X' and '.', got {ch!r}", location=f"line {pos + 1}")
        if len(cells) != n_attributes:
            raise InputError("count-mismatch", f"row has {len(cells)} cells, expected {n_attributes}", location=f"line {pos + 1}")
        rows.append(tuple(cells))
        pos += 1

    for idx in range(pos, len(lines)):
        if lines[idx].strip():
            raise InputError("trailing-content", "unexpected content after incidence rows", location=f"line {idx + 1}")

    return FormalContext(dimension, tuple(object_names), tuple(attribute_names), tuple(rows))


def oracle_json_row_ok(row):
    """The JSON context parser's cell check before its two set checks: one isinstance test and one comparison per cell."""
    return isinstance(row, list) and all(isinstance(v, (bool, int)) and v in (0, 1) for v in row)


def oracle_profile_of(contexts, kg):
    """profile_of before it read context rows: features_of per context, then the KgProfile constructor normalizes them again."""
    kg = normalize_name(kg)
    features = {}
    for ctx in contexts:
        features.setdefault(ctx.dimension, set()).update(ctx.features_of(kg))
    if not features:
        raise InputError("missing-input", "no contexts supplied")
    return KgProfile(kg, features)


# fitness and delta as the package computed them before one shared per-dimension
# comparison: each sorts the union of both sides' keys and loops on its own
_DIMENSION_ORDER = {d: i for i, d in enumerate(Dimension)}


def oracle_evaluate_fitness(profile, requirement):
    """(satisfied, gap, surplus, fit) with each map a dict in report order."""
    dims = set(profile.features) | set(requirement.required)
    satisfied, gap, surplus = {}, {}, {}
    for dim in sorted(dims, key=_DIMENSION_ORDER.get):
        required = requirement.required.get(dim, frozenset())
        exhibited = profile.features.get(dim, frozenset())
        satisfied[dim] = required & exhibited
        gap[dim] = required - exhibited
        surplus[dim] = exhibited - required
    return satisfied, gap, surplus, all(not g for g in gap.values())


def oracle_transformation_delta(source, target):
    """Per-dimension FeatureDelta dict in report order."""
    if isinstance(target, RequirementSet):
        wanted, removing = target.required, False
    else:
        wanted, removing = target.features, True
    out = {}
    for dim in sorted(set(source.features) | set(wanted), key=_DIMENSION_ORDER.get):
        have = source.features.get(dim, frozenset())
        want = wanted.get(dim, frozenset())
        out[dim] = FeatureDelta(want - have, have - want if removing else frozenset())
    return out


def _oracle_features_json(features):
    return {d.value: sorted(feats) for d, feats in sorted(features.items(), key=lambda kv: _DIMENSION_ORDER[kv[0]])}


def oracle_fitness_json(report, *, kg, requirement, cost=None):
    doc = {
        "kg": kg,
        "community": requirement.community,
        "task": requirement.task,
        "fit": report.fit,
        "satisfied": _oracle_features_json(report.satisfied),
        "gap": _oracle_features_json(report.gap),
        "surplus": _oracle_features_json(report.surplus),
    }
    if cost is not None:
        doc["cost"] = cost
    return doc


def oracle_delta_json(delta, *, source, target):
    return {
        "source": source,
        "target": target,
        "delta": {
            d.value: {"add": sorted(fd.add), "remove": sorted(fd.remove)}
            for d, fd in sorted(delta.items(), key=lambda kv: _DIMENSION_ORDER[kv[0]])
        },
    }


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

    The package's first enumeration, before FCbO and then the intersections
    of attribute columns; it is kept as the reference that enumeration is
    checked against.
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


def oracle_fcbo_concept_masks(ctx):
    """Every (extent mask, intent mask) pair in canonical order, by FCbO.

    The package's enumeration before it intersected attribute columns, with
    the row-scanning oracle_intent_mask in place of its own intent operator.
    FCbO (Outrata & Vychodil, Inf. Sci. 2012) over an explicit stack. A
    concept (A, B) reached by adding attribute y - 1 tries each attribute
    j >= y outside B: the child extent is A & j' and its intent the AND of
    the child's rows. The child is kept when that intent agrees with B
    below j. Otherwise the intent is remembered as failed[j] and handed to
    the children of (A, B), which skip j without closing whenever failed[j]
    holds an attribute below j outside their own intent.
    """
    n = len(ctx.attributes)
    full = (1 << n) - 1
    attrs = [(j, (1 << j) - 1, column) for j, column in enumerate(ctx.column_masks)]
    extent = (1 << len(ctx.objects)) - 1
    found = []
    stack = [(extent, oracle_intent_mask(ctx, extent), 0, [0] * n)]
    while stack:
        extent, intent, start, failed = stack.pop()
        found.append((extent, intent))
        failed = failed.copy()  # the parent's list is shared by all its children
        outside = ~intent
        for j, low, column in itertools.compress(attrs, _bits(full >> start << start & outside)):
            if failed[j] & low & outside:
                continue
            child = extent & column
            closed = oracle_intent_mask(ctx, child)
            if closed & low & outside:
                failed[j] = closed
            else:
                stack.append((child, closed, j + 1, failed))
    # canonical order: extent size, then the sorted extent names. The object
    # whose name sorts first weighs the most, so among extents of one size
    # the larger weight sum comes first.
    size = len(ctx.objects)
    rank = {name: r for r, name in enumerate(sorted(ctx.objects))}
    weight = [1 << (size - 1 - rank[name]) for name in ctx.objects]
    found.sort(key=lambda pair: (pair[0].bit_count() << size) - sum(itertools.compress(weight, _bits(pair[0]))))
    return found


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


# --- lattice views as they were over frozenset concepts -------------------------
# The package listed each concept's names by sorting its frozensets on the
# declaration index and sorted the cover frozenset for every view; it now
# lists names from the concept bitmasks and covers from ordered lists. These
# read only lattice.context, .concepts and .covers.


def oracle_upper_covers(lattice):
    ups = [[] for _ in lattice.concepts]
    for lo, up in sorted(lattice.covers):
        ups[lo].append(up)
    return tuple(tuple(u) for u in ups)


def _oracle_names(lattice, concept):
    ctx = lattice.context
    return (
        sorted(concept.extent, key=ctx.object_index.__getitem__),
        sorted(concept.intent, key=ctx.attribute_index.__getitem__),
    )


def oracle_lattice_json(lattice):
    concepts = []
    for i, c in enumerate(lattice.concepts):
        extent, intent = _oracle_names(lattice, c)
        concepts.append({"id": f"c{i}", "extent": extent, "intent": intent})
    return {
        "concepts": concepts,
        "covers": [[f"c{lo}", f"c{up}"] for lo, up in sorted(lattice.covers)],
        "top": f"c{len(lattice.concepts) - 1}",
        "bottom": "c0",
    }


def oracle_legend_rows(lattice):
    """(id, objects, attributes) per concept."""
    rows = []
    for i, c in enumerate(lattice.concepts):
        extent, intent = _oracle_names(lattice, c)
        rows.append((f"c{i}", tuple(extent), tuple(intent)))
    return rows


def oracle_to_dot(lattice, labels):
    def quote(text):
        return text.replace("\\", "\\\\").replace('"', '\\"')

    ups = oracle_upper_covers(lattice)
    layers = [0] * len(lattice.concepts)
    for i in reversed(range(len(lattice.concepts))):
        if ups[i]:
            layers[i] = max(layers[u] for u in ups[i]) + 1
    lines = ["digraph lattice {", "  rankdir=TB;", "  node [shape=box];"]
    for i, c in enumerate(lattice.concepts):
        label = f"c{i}"
        if labels == "id+intent":
            label += "\\n" + quote(", ".join(_oracle_names(lattice, c)[1]) or "---")
        lines.append(f'  "c{i}" [label="{label}"];')
    for depth in range(max(layers, default=0) + 1):
        members = [i for i, d in enumerate(layers) if d == depth]
        lines.append("  { rank=same; " + " ".join(f'"c{i}";' for i in members) + " }")
    for lo, up in sorted(lattice.covers, key=lambda e: (e[1], e[0])):
        lines.append(f'  "c{up}" -> "c{lo}";')
    return "\n".join(lines + ["}"]) + "\n"


def oracle_index_of_extent(lattice, extent):
    """The concept whose extent is the normalized names; a non-string name places no concept."""
    by_extent = {c.extent: i for i, c in enumerate(lattice.concepts)}
    if all(isinstance(name, str) for name in extent):
        names = frozenset(map(normalize_name, extent))
        if names in by_extent:
            return by_extent[names]
    raise InputError("unknown-extent", f"no concept has extent {sorted(extent, key=str)}")


def _oracle_concept_at(lattice, index):
    if not 0 <= index < len(lattice.concepts):
        raise InputError("index-out-of-range", f"concept index {index} out of range 0..{len(lattice.concepts) - 1}")
    return lattice.concepts[index]


def oracle_meet(lattice, i, j):
    return oracle_index_of_extent(lattice, _oracle_concept_at(lattice, i).extent & _oracle_concept_at(lattice, j).extent)


def oracle_join(lattice, i, j):
    intent = _oracle_concept_at(lattice, i).intent & _oracle_concept_at(lattice, j).intent
    return oracle_index_of_extent(lattice, oracle_derive_objects(lattice.context, intent))


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
def contexts_strategy(draw, max_objects=7, max_attributes=7, min_objects=0, min_attributes=0):
    n_obj = draw(st.integers(min_objects, max_objects))
    n_att = draw(st.integers(min_attributes, max_attributes))
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


# whitespace the normalizer trims and collapses, around and inside generated names
PADDING = st.sampled_from(["", " ", "  ", "\t", "　", " \n "])


@st.composite
def padded(draw, name):
    """name, which holds one space, with drawn whitespace around it and in place of that space."""
    head, _, tail = name.partition(" ")
    return f"{draw(PADDING)}{head}{draw(PADDING) or ' '}{tail}{draw(PADDING)}"


# quotes, backslashes, pipes, separators, control characters and non-ASCII text;
# every name holds a non-space character, so none is empty once normalized
escape_names = st.text(st.sampled_from('ab"\\|,; -\x00\x07\n\x1b\x7féß日😀'), max_size=4).filter(normalize_name)


@st.composite
def escaped_contexts_strategy(draw, max_objects=7, max_attributes=7):
    """Contexts over escape-heavy names, declared in the order drawn rather than sorted."""
    objects = draw(st.lists(escape_names, max_size=max_objects, unique_by=normalize_name))
    attributes = draw(st.lists(escape_names, max_size=max_attributes, unique_by=normalize_name))
    row = st.lists(st.booleans(), min_size=len(attributes), max_size=len(attributes))
    rows = draw(st.lists(row, min_size=len(objects), max_size=len(objects)))
    return FormalContext(Dimension.COMBINED, objects, attributes, rows)


# names that differ only in whitespace collapse to one feature on construction
FEATURE_NAMES = ["a", " a ", "b", "c  d", "c d", "Mid", "alpha", "z"]


def dimension_maps(values, dimensions=tuple(Dimension)):
    """Dicts keyed by a random subset of the dimensions, inserted in random order."""
    return st.lists(st.sampled_from(dimensions), unique=True).flatmap(
        lambda dims: st.tuples(*(values for _ in dims)).map(lambda vs: dict(zip(dims, vs)))
    )


feature_sets = st.frozensets(st.sampled_from(FEATURE_NAMES))
feature_maps = dimension_maps(feature_sets)


def subset_strategy(pool):
    items = list(pool)
    if not items:
        return st.just(frozenset())
    return st.frozensets(st.sampled_from(items))
