"""Derivation operators, closed-set enumeration, lattices, and implications.

Everything here is a pure function over immutable contexts. Attribute and
object sets are handled internally as integer bitmasks in declaration order;
the public surface speaks frozensets of names.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import cached_property, reduce
from itertools import accumulate, compress
from operator import and_, or_

from .context import FormalContext, _bits, _collection, _Frozen, _instances, _lookup, _set_field, _typed, normalize_name
from .errors import InputError


class FormalConcept(_Frozen):
    """A Galois fixpoint: the extent derives the intent and vice versa.

    The constructor normalizes every name, as FeatureDelta's does;
    ConceptLattice.concepts builds with _of.
    """

    extent: frozenset[str]
    intent: frozenset[str]

    def __init__(self, extent: Iterable[str], intent: Iterable[str]) -> None:
        _set_field(self, "extent", frozenset(map(normalize_name, _collection(extent, "an extent"))))
        _set_field(self, "intent", frozenset(map(normalize_name, _collection(intent, "an intent"))))


class Implication(_Frozen):
    """Attribute rule ``premise -> conclusion``, stored with disjoint sides."""

    premise: frozenset[str]
    conclusion: frozenset[str]

    def __init__(self, premise: Iterable[str], conclusion: Iterable[str]) -> None:
        premise = _name_set(premise, "premise")
        _set_field(self, "premise", premise)
        _set_field(self, "conclusion", _name_set(conclusion, "conclusion") - premise)


def _name_set(names: Iterable[str], what: str) -> frozenset[str]:
    """names as a frozenset; anything but a collection of hashable names raises InputError("schema-violation")."""
    try:
        return frozenset(_collection(names, what))
    except TypeError:  # an unhashable name
        raise InputError("schema-violation", "attribute names must be hashable") from None


# --- bitmask plumbing ---------------------------------------------------------


def _names_mask(index: Mapping[str, int], names: Iterable[str], kind: str) -> int:
    mask = 0
    for name in _collection(names, f"{kind} names"):
        mask |= 1 << _lookup(index, name, kind)
    return mask


def _attr_mask(ctx: FormalContext, attrs: Iterable[str]) -> int:
    return _names_mask(ctx.attribute_index, attrs, "attribute")


def _obj_mask(ctx: FormalContext, objs: Iterable[str]) -> int:
    return _names_mask(ctx.object_index, objs, "object")


def _attr_names(ctx: FormalContext, mask: int) -> frozenset[str]:
    return frozenset(compress(ctx.attributes, _bits(mask)))


def _obj_names(ctx: FormalContext, mask: int) -> frozenset[str]:
    return frozenset(compress(ctx.objects, _bits(mask)))


def _extent_mask(ctx: FormalContext, amask: int) -> int:
    """Objects incident to every attribute in amask; all objects for amask == 0.

    The AND of the attribute columns in amask, run in C by reduce/compress.
    """
    return reduce(and_, compress(ctx.column_masks, _bits(amask)), (1 << len(ctx.objects)) - 1)


def _intent_mask(ctx: FormalContext, omask: int) -> int:
    """Attributes shared by every object in omask; all attributes for omask == 0."""
    return reduce(and_, compress(ctx.row_masks, _bits(omask)), (1 << len(ctx.attributes)) - 1)


def _close_attr_mask(ctx: FormalContext, amask: int) -> int:
    return _intent_mask(ctx, _extent_mask(ctx, amask))


# --- derivation and closure ---------------------------------------------------


def derive_attributes(ctx: FormalContext, objects: Iterable[str]) -> frozenset[str]:
    """Attributes common to all named objects; the empty set derives every attribute."""
    _typed(ctx, FormalContext, "a context must be a FormalContext")
    return _attr_names(ctx, _intent_mask(ctx, _obj_mask(ctx, objects)))


def derive_objects(ctx: FormalContext, attributes: Iterable[str]) -> frozenset[str]:
    """Objects carrying all named attributes; the empty set derives every object."""
    _typed(ctx, FormalContext, "a context must be a FormalContext")
    return _obj_names(ctx, _extent_mask(ctx, _attr_mask(ctx, attributes)))


def close_attributes(ctx: FormalContext, attributes: Iterable[str]) -> frozenset[str]:
    """Double derivation of an attribute set: extensive, monotone, idempotent."""
    _typed(ctx, FormalContext, "a context must be a FormalContext")
    return _attr_names(ctx, _close_attr_mask(ctx, _attr_mask(ctx, attributes)))


# --- closed-set enumeration ---------------------------------------------------


def _next_closed_mask(ctx: FormalContext, mask: int) -> int | None:
    """Smallest closed set lectically greater than mask, or None at the end.

    Walks candidate positions from the highest bit down: drop everything
    above position i, switch i on, close and accept the first that agrees
    with mask below i.
    """
    for i in range(len(ctx.attributes) - 1, -1, -1):
        bit = 1 << i
        if mask & bit:
            continue
        low = bit - 1
        candidate = _close_attr_mask(ctx, (mask & low) | bit)
        if candidate & low == mask & low:
            return candidate
    return None


def next_closure(ctx: FormalContext, current: Iterable[str] | None = None) -> frozenset[str] | None:
    """Step the lectic enumeration of closed attribute sets.

    None starts the walk at close({}). Each later call takes the previously
    returned set and yields its lectic successor, or None once the full
    attribute set (always closed) has been emitted. The enumeration visits
    every closed set exactly once, so its length equals the concept count.
    """
    _typed(ctx, FormalContext, "a context must be a FormalContext")
    if current is None:
        return _attr_names(ctx, _close_attr_mask(ctx, 0))
    mask = _attr_mask(ctx, current)
    if _close_attr_mask(ctx, mask) != mask:
        raise InputError("not-closed", "current set is not closed in this context")
    nxt = _next_closed_mask(ctx, mask)
    return None if nxt is None else _attr_names(ctx, nxt)


def _concept_masks(ctx: FormalContext) -> list[tuple[int, int]]:
    """Every concept as an (extent mask, intent mask) pair, in canonical order.

    The extents of a context are exactly the intersections of its attribute
    extents, the empty intersection being all objects (Ganter & Wille,
    Formal Concept Analysis, 1999, ch. 1): every extent A is A'' = (A')',
    the intersection of the columns of A', and the intersection of the
    columns of any attribute set B is B', an extent. Intersecting each
    column into the set of extents found so far therefore lists every
    extent once; each intent is then one AND of the extent's rows.
    """
    extents = {(1 << len(ctx.objects)) - 1}
    for column in ctx.column_masks:
        extents |= {extent & column for extent in extents}
    # canonical order: extent size, then the sorted extent names. The object
    # whose name sorts first weighs the most, so among extents of one size
    # the larger weight sum comes first.
    size = len(ctx.objects)
    rank = {name: r for r, name in enumerate(sorted(ctx.objects))}
    weight = [1 << (size - 1 - rank[name]) for name in ctx.objects]
    ordered = sorted(extents, key=lambda extent: (extent.bit_count() << size) - sum(compress(weight, _bits(extent))))
    return [(extent, _intent_mask(ctx, extent)) for extent in ordered]


def enumerate_concepts(ctx: FormalContext) -> tuple[FormalConcept, ...]:
    """All formal concepts, in canonical order.

    Canonical order: extent cardinality ascending, ties broken by comparing
    the sorted extent name tuples. Distinct concepts have distinct extents,
    so the order is total.
    """
    _typed(ctx, FormalContext, "a context must be a FormalContext")
    return ConceptLattice._of(ctx).concepts


# --- lattice --------------------------------------------------------------


class ConceptLattice(_Frozen):
    """The concept lattice of a context: its concepts in canonical order, as (extent, intent) bitmask pairs, and their upper covers.

    Its one field is the context: masks and upper_covers derive from it, so
    no value holds a lattice that is not its context's. upper_covers[i] lists
    concept i's upper covers in increasing order. concepts, covers ((lower,
    upper) pairs) and names (in declaration order) derive from these on
    first use. By extent size, the bottom comes first and the top last.
    """

    context: FormalContext
    bottom_index = 0

    def __init__(self, context: FormalContext) -> None:
        _set_field(self, "context", _typed(context, FormalContext, "a context must be a FormalContext"))
        self.upper_covers  # read now, so a build does its work inside its call; _of and unpickling defer it

    @cached_property
    def masks(self) -> tuple[tuple[int, int], ...]:
        return tuple(_concept_masks(self.context))

    @cached_property
    def upper_covers(self) -> tuple[tuple[int, ...], ...]:
        """The cover relation, by Lindig's neighbour rule ("Fast Concept Analysis", 2000).

        For a concept (A, B) and an attribute m outside B, A & m' is the extent
        of a concept, found by one dict lookup. It is a lower cover unless its
        intent holds an attribute, other than m, that is still in the running
        set `minimal`; m leaves `minimal` whenever its candidate is rejected.
        That is about |C|·|M| ANDs and lookups, with no comparison between
        pairs of concepts. Uppers are visited in increasing index, so every
        list of upper covers comes out in order.
        """
        pairs, index_of = self.masks, self._index_by_extent
        intents = [intent for _, intent in pairs]
        attrs = [(1 << m, column) for m, column in enumerate(self.context.column_masks)]
        full = (1 << len(attrs)) - 1
        ups: list[list[int]] = [[] for _ in pairs]
        for up, (extent, intent) in enumerate(pairs):
            minimal = ~intent
            for bit, column in compress(attrs, _bits(full & ~intent)):
                lo = index_of[extent & column]
                if intents[lo] & minimal == bit:
                    ups[lo].append(up)
                else:
                    minimal ^= bit
        return tuple(map(tuple, ups))

    @property
    def top_index(self) -> int:
        return len(self.masks) - 1

    @cached_property
    def concepts(self) -> tuple[FormalConcept, ...]:
        return tuple(FormalConcept._of(frozenset(e), frozenset(i)) for e, i in self.names)

    @cached_property
    def covers(self) -> frozenset[tuple[int, int]]:
        return frozenset((lo, up) for lo, ups in enumerate(self.upper_covers) for up in ups)

    @cached_property
    def names(self) -> tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]:
        """Each concept's (extent, intent) names, listed in declaration order."""
        objects, attributes = self.context.objects, self.context.attributes
        return tuple((tuple(compress(objects, _bits(e))), tuple(compress(attributes, _bits(i)))) for e, i in self.masks)

    @cached_property
    def _index_by_extent(self) -> dict[int, int]:
        return {extent: i for i, (extent, _) in enumerate(self.masks)}

    def index_of_extent(self, extent: frozenset[str]) -> int:
        names = _collection(extent, "an extent")
        try:
            return self._index_by_extent[_obj_mask(self.context, names)]
        except (InputError, KeyError):  # a name outside the context, or no such concept; key=str sorts any names
            raise InputError("unknown-extent", f"no concept has extent {sorted(names, key=str)}") from None

    def _concept_at(self, index: int) -> tuple[int, int]:
        if not (isinstance(index, int) and not isinstance(index, bool) and 0 <= index < len(self.masks)):
            raise InputError("index-out-of-range", f"concept index {index!r} out of range 0..{len(self.masks) - 1}")
        return self.masks[index]


def build_lattice(ctx: FormalContext) -> ConceptLattice:
    """The concept lattice of ctx, ConceptLattice(ctx); a module function, which a tracer can wrap."""
    return ConceptLattice(ctx)


def meet(lattice: ConceptLattice, i: int, j: int) -> int:
    """Index of the greatest lower bound of two concepts: extents are closed under intersection."""
    _typed(lattice, ConceptLattice, "a lattice must be a ConceptLattice")
    return lattice._index_by_extent[lattice._concept_at(i)[0] & lattice._concept_at(j)[0]]


def join(lattice: ConceptLattice, i: int, j: int) -> int:
    """Index of the least upper bound of two concepts: the extent of their shared intent."""
    _typed(lattice, ConceptLattice, "a lattice must be a ConceptLattice")
    intent = lattice._concept_at(i)[1] & lattice._concept_at(j)[1]
    return lattice._index_by_extent[_extent_mask(lattice.context, intent)]


def lattice_json(lattice: ConceptLattice) -> dict:
    """JSON-ready dict: concepts with canonical ids, cover pairs, top and bottom.

    Ids are canonical-order labels c0, c1, ... and extent/intent lists follow
    declaration order, so the output is deterministic. Each id is one string
    object, shared by its concept, every cover pair it ends and top or bottom.
    """
    _typed(lattice, ConceptLattice, "a lattice must be a ConceptLattice")
    ids = [f"c{i}" for i in range(len(lattice.masks))]
    return {
        "concepts": [{"id": i, "extent": list(objs), "intent": list(attrs)} for i, (objs, attrs) in zip(ids, lattice.names)],
        "covers": [[lo, ids[up]] for lo, ups in zip(ids, lattice.upper_covers) for up in ups],
        "top": ids[lattice.top_index],
        "bottom": ids[lattice.bottom_index],
    }


# --- implications -----------------------------------------------------------


def implication_holds(ctx: FormalContext, implication: Implication) -> bool:
    """True iff every object carrying the premise also carries the conclusion."""
    _typed(ctx, FormalContext, "a context must be a FormalContext")
    implication = _typed(implication, Implication, "an implication must be an Implication")
    pmask = _attr_mask(ctx, implication.premise)
    cmask = _attr_mask(ctx, implication.conclusion)
    return cmask & _close_attr_mask(ctx, pmask) == cmask


def close_under_implications(implications: Iterable[Implication], attributes: Iterable[str]) -> frozenset[str]:
    """Least superset of the given attributes respecting every implication, by _ImplicationIndex.close."""
    number: dict[str, int] = {}  # every name met, the attributes first

    def mask(names: Iterable[str]) -> int:
        return sum({1 << number.setdefault(name, len(number)) for name in names})  # distinct bits: sum is OR

    start = mask(_name_set(attributes, "attributes"))
    pairs = [(mask(imp.premise), mask(imp.conclusion)) for imp in _instances(implications, Implication, "implications")]
    index = _ImplicationIndex(len(number))
    for premise, conclusion in pairs:
        index.add(premise, premise | conclusion)
    return frozenset(compress(number, _bits(index.close(start, 0, index.fireable(start)))))


def follows_from(implication: Implication, basis: Iterable[Implication]) -> bool:
    """Whether an implication is entailed by a set of implications."""
    implication = _typed(implication, Implication, "an implication must be an Implication")
    return implication.conclusion <= close_under_implications(basis, implication.premise)


class _ImplicationIndex:
    """Implications as bitsets over their ids, three per attribute.

    without[j] holds every implication whose premise lacks attribute j. The
    implications whose premise lies inside a set X are then the AND of
    without[j] over the attributes j outside X: at most |M| big-int ANDs,
    with no scan over the implications. upto[i] holds every implication
    whose premise lies within attributes 0..i, and holding[k] every one
    whose closure contains attribute k; successor reads these two to reject
    most lectic candidates with two ANDs instead of a closure.
    """

    __slots__ = ("full", "found", "without", "upto", "holding")

    def __init__(self, n: int):
        self.full = (1 << n) - 1
        self.found: list[tuple[int, int]] = []  # (premise mask, premise mask | conclusion mask)
        self.without = [0] * n
        self.upto = [0] * n
        self.holding = [0] * n

    def add(self, premise: int, closure: int) -> None:
        bit = 1 << len(self.found)
        self.found.append((premise, closure))
        without, upto, holding = self.without, self.upto, self.holding
        attrs = range(len(without))
        for j in compress(attrs, _bits(self.full & ~premise)):
            without[j] |= bit
        for i in attrs[max(premise.bit_length() - 1, 0) :]:
            upto[i] |= bit
        for k in compress(attrs, _bits(closure)):
            holding[k] |= bit

    def fireable(self, mask: int) -> int:
        """The implications whose premise lies inside mask: the AND of without outside it, run in C."""
        return reduce(and_, compress(self.without, _bits(self.full & ~mask)), -1)

    def close(self, mask: int, low: int, fireable: int) -> int:
        """L-closure of mask, or a partial set once an attribute in low comes in; low = 0 runs to the fixpoint.

        fireable is self.fireable(mask), which the caller may know cheaper.
        Fires only the implications that became fireable since the last
        round, ORing their conclusions into the set, until none is new.
        """
        found, full = self.found, self.full
        keep = mask & low
        fired = 0  # always a subset of fireable, which only grows with mask
        while mask != full:
            new = fireable ^ fired
            if not new:
                break
            fired = fireable
            while new:
                k = new.bit_length() - 1
                new ^= 1 << k
                mask |= found[k][1]
                if mask & low != keep:
                    return mask
            fireable = self.fireable(mask)
        return mask

    def successor(self, mask: int) -> int | None:
        """Smallest L-closed set lectically greater than the L-closed mask, or None after the full set.

        NextClosure over the attributes outside mask, from the highest down.
        Let i be the t-th of them counting from 0 at the bottom, and below[t]
        the AND of without over the t under i. The candidate at i, mask's
        part below i plus i, first fires below[t] & upto[i]. close gives up
        in that round, so the lectic check rejects the candidate, exactly
        when one of those implications brings in one of the t attributes:
        when the set meets gains[t], the OR of their holding sets. One AND
        then rejects the candidate; a survivor is closed from that round on.
        """
        bits = _bits(self.full & ~mask)
        outside = list(compress(range(len(self.without)), bits))
        below = list(accumulate(compress(self.without, bits), and_, initial=-1))
        gains = list(accumulate(compress(self.holding, bits), or_, initial=0))
        upto = self.upto
        for t in range(len(outside) - 1, -1, -1):
            i = outside[t]
            fireable = below[t] & upto[i]
            if fireable & gains[t]:
                continue
            bit = 1 << i
            low = bit - 1
            candidate = self.close((mask & low) | bit, low, fireable)
            if candidate & low == mask & low:
                return candidate
        return None


def implication_basis(ctx: FormalContext) -> tuple[Implication, ...]:
    """Minimum implication set that is sound and complete for the context.

    Walks, in lectic order, the sets closed under the implications found so
    far; each such set that is not closed in the context is a pseudo-closed
    premise and contributes the implication premise -> closure \\ premise.
    No equally complete set of implications is smaller.

    Each step to the next such set builds two prefix lists over the
    attributes outside the current one, at most 2|M| big-int ANDs and ORs
    over L-bit sets for the L implications found so far. Most candidates
    are then rejected by two ANDs; each survivor is closed at a cost of at
    most |M| ANDs per round of firing plus one OR per implication fired.
    No step scans all L implications.
    """
    _typed(ctx, FormalContext, "a context must be a FormalContext")
    index = _ImplicationIndex(len(ctx.attributes))
    mask: int | None = 0
    while mask is not None:
        closed = _close_attr_mask(ctx, mask)
        if closed != mask:
            index.add(mask, closed)
        mask = index.successor(mask)
    return tuple(Implication._of(_attr_names(ctx, p), _attr_names(ctx, c & ~p)) for p, c in index.found)
