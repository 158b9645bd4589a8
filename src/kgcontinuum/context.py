"""Formal contexts, their file carriers, and the feature registry.

A formal context is a binary objects-by-attributes incidence table. Contexts
are immutable; operations that look like mutation (registering a feature,
merging) return new values.
"""

from __future__ import annotations

import json
import reprlib
from collections.abc import Iterable, Mapping, Sequence
from enum import Enum
from functools import cached_property
from itertools import compress
from types import MappingProxyType

from .errors import InputError

#: Longest count line parse_cxt accepts; far more objects than any document holds.
_MAX_COUNT_DIGITS = 9
# str.translate table deleting the two incidence cells; what is left of a row is invalid
_ROW_CELLS = str.maketrans("", "", "X.")
# a mask's bit k stands for the k-th declared name. _bits turns a mask into a
# compress selector of 0/1 bytes, lowest bit first; _mask turns cells back into a mask
_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")
_CELL_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _bits(mask: int) -> bytes:
    return bin(mask)[:1:-1].encode().translate(_BINARY_DIGITS)


def _mask(cells: Sequence[bool]) -> int:
    return int(b"0" + bytes(cells[::-1]).translate(_CELL_DIGITS), 2)


def _typed(value, kind: type | tuple[type, ...], what: str):
    """value; one that is not an instance of kind raises InputError("schema-violation", "<what>, not <type>")."""
    if not isinstance(value, kind):
        raise InputError("schema-violation", f"{what}, not {type(value).__name__}")
    return value


# object.__setattr__ bound once: each __init__ writes its fields past _Frozen.__setattr__ with it,
# and a module global is looked up faster than an attribute of a builtin
_set_field = object.__setattr__


class _Frozen:
    """Immutable value: the fields are the names annotated in the class body, in that order.

    A field holds only what the value's other fields do not determine; what
    they do determine is a property or a cached_property. __init__ checks
    and sets each field once through _set_field; a builder whose fields are
    checked already uses _of.

    Two values are equal when they are of the same class and their field
    tuples are equal; the hash is that tuple's, and the repr lists the fields.
    Instances keep a __dict__, so cached_property works as usual. A value
    pickles as its class and its fields, each mapping proxy as a dict, and
    unpickles through _of; what the cached properties stored is not sent.
    """

    _fields = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    @classmethod
    def _of(cls, *values):
        """A cls value with these fields in declaration order, built past __init__: the caller has already checked them."""
        value = object.__new__(cls)
        for name, field in zip(cls._fields, values, strict=True):
            _set_field(value, name, field)  # not __dict__.update, which gives each value its own dict: 64 bytes more on 3.11
        return value

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __reduce__(self):
        # a mappingproxy does not pickle; no field holds a plain dict, so _unpickled knows which to wrap again
        return _unpickled, (self.__class__, tuple(dict(v) if isinstance(v, MappingProxyType) else v for v in self._values()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _unpickled(cls: type[_Frozen], values: tuple) -> _Frozen:
    """The value _Frozen.__reduce__ sent: its fields, each dict wrapped back in a mapping proxy."""
    return cls._of(*(MappingProxyType(v) if isinstance(v, dict) else v for v in values))


def normalize_name(name: str) -> str:
    """Trim and collapse internal whitespace runs to a single space.

    Whitespace is every character for which ``str.isspace()`` holds.
    Comparison of names stays case-sensitive. A non-string raises InputError("schema-violation").
    """
    return " ".join(_typed(name, str, "a name must be a string").split())


def _name(raw: str, kind: str) -> str:
    """raw normalized; a name empty after normalization raises InputError("empty-name")."""
    name = normalize_name(raw)
    if not name:
        raise InputError("empty-name", f"{kind} name is empty after normalization")
    return name


class Dimension(Enum):
    """Characterisation axis an attribute set belongs to.

    Members hash by identity, so a hash differs between processes; nothing
    that is written out depends on it, because every report lists
    dimensions in declaration order.
    """

    # Enum.__hash__ is Python code run on every dict and set lookup; members are
    # singletons that compare by identity, so the identity hash agrees with ==
    __hash__ = object.__hash__

    SEMANTIC_PROPERTY = "semantic-property"
    SEMANTIC_AFFORDANCE = "semantic-affordance"
    PRAGMATIC_PROPERTY = "pragmatic-property"
    PRAGMATIC_AFFORDANCE = "pragmatic-affordance"
    COMBINED = "combined"

    @classmethod
    def from_tag(cls, tag: str) -> "Dimension":
        try:
            return cls(tag)
        except ValueError:
            raise InputError("unknown-dimension", f"unknown dimension tag {tag!r}") from None


#: The four per-dimension axes in report order. COMBINED is produced only by merging.
PER_DIMENSION = (
    Dimension.SEMANTIC_PROPERTY,
    Dimension.SEMANTIC_AFFORDANCE,
    Dimension.PRAGMATIC_PROPERTY,
    Dimension.PRAGMATIC_AFFORDANCE,
)


def _collection(items: Iterable, what: str) -> tuple:
    """items as a tuple; a string, a mapping or a non-iterable raises InputError("schema-violation").

    A string or a mapping iterates as characters or keys, not as the items meant.
    """
    if isinstance(items, (str, Mapping)) or not isinstance(items, Iterable):
        raise InputError("schema-violation", f"{what} must be a collection, not {type(items).__name__}")
    return tuple(items)


def _instances(items: Iterable, kind: type, what: str) -> tuple:
    """items as a tuple; anything but a collection of kind values raises InputError("schema-violation")."""
    items = _collection(items, what)
    for item in items:
        if not isinstance(item, kind):  # the message is formatted only for the item that fails
            _typed(item, kind, f"{what} must be {kind.__name__} values")
    return items


def _unique_names(names: Iterable[str], kind: str) -> tuple[str, ...]:
    out: dict[str, None] = {}  # a dict as an ordered set
    for raw in _collection(names, f"{kind} names"):
        name = _name(raw, kind)
        if name in out:
            raise InputError(f"duplicate-{kind}", f"{kind} {name!r} declared twice", location=name)
        out[name] = None
    return tuple(out)


class FormalContext(_Frozen):
    """Objects-by-attributes incidence table tagged with a dimension.

    Declaration order of objects and attributes is part of the value: it fixes
    the lectic order used when enumerating closed attribute sets, and the
    display order of names in tables and diagrams.
    """

    dimension: Dimension
    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    incidence: tuple[tuple[bool, ...], ...]

    def __init__(
        self,
        dimension: Dimension,
        objects: Iterable[str],
        attributes: Iterable[str],
        incidence: Iterable[Iterable[bool]],
    ) -> None:
        _typed(dimension, Dimension, "dimension must be a Dimension")
        objects = _unique_names(objects, "object")
        attributes = _unique_names(attributes, "attribute")
        rows = tuple(tuple(map(bool, _collection(row, "incidence rows"))) for row in _collection(incidence, "incidence"))
        if len(rows) != len(objects):
            raise InputError(
                "count-mismatch",
                f"{len(objects)} objects but {len(rows)} incidence rows",
            )
        for obj, row in zip(objects, rows):
            if len(row) != len(attributes):
                raise InputError(
                    "count-mismatch",
                    f"row for {obj!r} has {len(row)} cells, expected {len(attributes)}",
                    location=obj,
                )
        _set_field(self, "dimension", dimension)
        _set_field(self, "objects", objects)
        _set_field(self, "attributes", attributes)
        _set_field(self, "incidence", rows)

    @cached_property
    def object_index(self) -> Mapping[str, int]:
        return MappingProxyType({name: i for i, name in enumerate(self.objects)})

    @cached_property
    def attribute_index(self) -> Mapping[str, int]:
        return MappingProxyType({name: j for j, name in enumerate(self.attributes)})

    @cached_property
    def row_masks(self) -> tuple[int, ...]:
        """Per-object attribute bitmask, built from incidence in C; bit j corresponds to attributes[j]."""
        return tuple(map(_mask, self.incidence))

    @cached_property
    def column_masks(self) -> tuple[int, ...]:
        """Per-attribute object bitmask, the transpose of row_masks; bit i corresponds to objects[i].

        Built from the columns of incidence in C on first use; every reader of a column goes through it.
        """
        if not self.objects:
            return (0,) * len(self.attributes)  # zip(*()) yields no columns
        return tuple(map(_mask, zip(*self.incidence)))

    def features_of(self, obj: str) -> frozenset[str]:
        """Attributes incident to one object."""
        name = normalize_name(obj)
        if name not in self.object_index:
            raise InputError("unknown-object", f"unknown object {obj!r}")
        return frozenset(compress(self.attributes, self.incidence[self.object_index[name]]))

    def holders_of(self, attr: str) -> frozenset[str]:
        """Objects incident to one attribute, read from its column mask."""
        name = normalize_name(attr)
        if name not in self.attribute_index:
            raise InputError("unknown-attribute", f"unknown attribute {attr!r}")
        return frozenset(compress(self.objects, _bits(self.column_masks[self.attribute_index[name]])))

    @classmethod
    def from_feature_sets(
        cls,
        dimension: Dimension,
        objects: Sequence[str],
        features: Mapping[str, Iterable[str]],
        attributes: Sequence[str] | None = None,
    ) -> "FormalContext":
        """Build a context from per-object feature sets.

        When ``attributes`` is omitted the column order is first appearance
        while reading objects in the given order.
        """
        objs = _unique_names(objects, "object")
        keys = _unique_names(_typed(features, Mapping, "features must be a mapping").keys(), "object")
        unknown = set(keys) - set(objs)
        if unknown:
            raise InputError("unknown-object", f"feature sets for undeclared objects: {sorted(unknown)}")
        feats = {o: frozenset(map(normalize_name, _collection(fs, f"features of {o!r}"))) for o, fs in zip(keys, features.values())}
        # dicts as ordered sets: the first insertion fixes a name's column
        if attributes is None:
            cols = dict.fromkeys(f for o in objs for f in sorted(feats.get(o, frozenset())))
        else:
            cols = dict.fromkeys(_unique_names(attributes, "attribute"))
            for o, fs in feats.items():
                stray = fs.difference(cols)
                if stray:
                    raise InputError("unknown-attribute", f"features of {o!r} not declared: {sorted(stray)}")
        rows = tuple(tuple(c in feats.get(o, frozenset()) for c in cols) for o in objs)
        return cls(dimension, objs, tuple(cols), rows)


# --- Burmeister CXT carrier -------------------------------------------------


def parse_cxt(text: str, dimension: Dimension = Dimension.COMBINED) -> FormalContext:
    """Parse a Burmeister CXT document.

    Layout: ``B``, blank line, object count, attribute count, blank line,
    object names, attribute names, then one row of ``X``/``.`` per object.
    The format carries no dimension; it is supplied out of band.
    """
    lines = _typed(text, str, "a CXT document must be a string").split("\n")
    if len(lines) > 1 and lines[-1] == "":
        lines.pop()  # a final newline ends the last line, it does not open a new one

    def take(idx: int, what: str) -> str:
        if idx >= len(lines):
            raise InputError("count-mismatch", f"missing {what}", location=f"line {idx + 1}")
        return lines[idx]

    if take(0, "format marker").rstrip() != "B":
        raise InputError("malformed-header", "first line must be 'B'", location="line 1")
    if take(1, "separator").strip():
        raise InputError("malformed-header", "second line must be blank", location="line 2")

    def count(idx: int, what: str) -> int:
        raw = take(idx, what).strip()
        # str.isdigit() alone also holds for digits int() rejects, like '²', and
        # for non-ASCII decimals like '١'; the length bound keeps int() far from
        # its string-length limit
        if not (raw.isascii() and raw.isdigit() and len(raw) <= _MAX_COUNT_DIGITS):
            raise InputError(
                "malformed-header",
                f"{what} must be a decimal count of at most {_MAX_COUNT_DIGITS} ASCII digits, got {reprlib.repr(raw)}",
                location=f"line {idx + 1}",
            )
        return int(raw)

    n_objects = count(2, "object count")
    n_attributes = count(3, "attribute count")
    if take(4, "separator").strip():
        raise InputError("malformed-header", "fifth line must be blank", location="line 5")

    pos = 5
    # dicts as ordered sets, so the duplicate check is one lookup
    object_names: dict[str, None] = {}
    attribute_names: dict[str, None] = {}
    for k in range(n_objects + n_attributes):
        kind = "object" if k < n_objects else "attribute"
        name = normalize_name(take(pos, f"{kind} name"))
        bucket = object_names if kind == "object" else attribute_names
        if not name:
            raise InputError("empty-name", f"{kind} name is empty", location=f"line {pos + 1}")
        if name in bucket:
            raise InputError(f"duplicate-{kind}", f"{kind} {name!r} already declared", location=f"line {pos + 1}")
        bucket[name] = None
        pos += 1

    rows: list[tuple[bool, ...]] = []
    for _ in range(n_objects):
        raw = take(pos, "incidence row").rstrip()
        invalid = raw.translate(_ROW_CELLS)
        if invalid:
            raise InputError("invalid-row", f"rows may contain only 'X' and '.', got {invalid[0]!r}", location=f"line {pos + 1}")
        if len(raw) != n_attributes:
            raise InputError("count-mismatch", f"row has {len(raw)} cells, expected {n_attributes}", location=f"line {pos + 1}")
        rows.append(tuple(map("X".__eq__, raw)))
        pos += 1

    for idx in range(pos, len(lines)):
        if lines[idx].strip():
            raise InputError("trailing-content", "unexpected content after incidence rows", location=f"line {idx + 1}")

    _typed(dimension, Dimension, "dimension must be a Dimension")
    return FormalContext._of(dimension, tuple(object_names), tuple(attribute_names), tuple(rows))


def serialize_cxt(ctx: FormalContext) -> str:
    """Emit a Burmeister CXT document; inverse of parse_cxt modulo the dimension tag."""
    _typed(ctx, FormalContext, "a context must be a FormalContext")
    lines = ["B", "", str(len(ctx.objects)), str(len(ctx.attributes)), ""]
    lines.extend(ctx.objects)
    lines.extend(ctx.attributes)
    for row in ctx.incidence:
        lines.append("".join("X" if v else "." for v in row))
    return "\n".join(lines) + "\n"


# --- JSON carrier -----------------------------------------------------------


def _reject_constant(name: str):
    # NaN and Infinity are not JSON; json.loads accepts them by default
    raise InputError("invalid-json", f"{name} is not a JSON number")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # a key repeated in one object is an error; json.loads alone keeps its last copy
    doc = dict(pairs)
    if len(doc) < len(pairs):  # name the first key met twice
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise InputError("invalid-json", f"duplicate key {key!r}")
            seen.add(key)
    return doc


def json_object(text: str, required: Iterable[str] = (), allowed: Iterable[str] | None = None) -> dict:
    """Parse text as one JSON object that holds every required key.

    When allowed is given, keys outside it are rejected too. Malformed
    JSON, a key repeated in one object, NaN and Infinity literals, nesting
    too deep to decode and strings holding a lone surrogate raise
    InputError("invalid-json"); a wrong shape raises "schema-violation".
    """
    _typed(text, str, "a JSON document must be a string")
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys, parse_constant=_reject_constant)
        if "\\u" in text:  # only a \u escape puts a lone surrogate, which no output can encode, into a string
            json.dumps(doc, ensure_ascii=False).encode()
    except UnicodeEncodeError as exc:  # a ValueError too, so it is caught first
        raise InputError("invalid-json", f"lone surrogate {exc.object[exc.start]!r} is not text") from None
    except (ValueError, RecursionError) as exc:
        raise InputError("invalid-json", str(exc)) from None
    _typed(doc, dict, "top level must be an object")
    missing = set(required) - doc.keys()
    if missing:
        raise InputError("schema-violation", f"missing keys: {', '.join(map(repr, sorted(missing)))}")
    if allowed is not None:
        extra = doc.keys() - set(allowed)
        if extra:
            raise InputError("schema-violation", f"unexpected keys: {', '.join(map(repr, sorted(extra)))}")
    return doc


_JSON_KEYS = ("dimension", "objects", "attributes", "incidence")
# a JSON incidence cell is an int or a bool equal to 0 or 1
_CELL_TYPES = frozenset((bool, int))
_CELL_VALUES = frozenset((0, 1))


def parse_json_context(text: str) -> FormalContext:
    """Parse the JSON context document; unlike CXT it carries its dimension."""
    doc = json_object(text, _JSON_KEYS, _JSON_KEYS)
    dimension = Dimension.from_tag(_typed(doc["dimension"], str, "dimension must be a string"))
    inc = _collection(doc["incidence"], "incidence")
    for i, row in enumerate(inc):
        # json.loads yields exact types, so the type check rejects every float, string,
        # null and container, the last unhashable, before the value check hashes the cells
        if not (isinstance(row, list) and _CELL_TYPES.issuperset(map(type, row)) and _CELL_VALUES.issuperset(row)):
            raise InputError("schema-violation", "incidence rows must contain only 0 and 1", location=f"row {i}")
    return FormalContext(dimension, doc["objects"], doc["attributes"], inc)


def _json_text(doc) -> str:
    """The one JSON text format every writer uses: two-space indent, raw UTF-8, a final newline."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def serialize_json_context(ctx: FormalContext) -> str:
    """Emit the JSON context document; inverse of parse_json_context."""
    _typed(ctx, FormalContext, "a context must be a FormalContext")
    doc = {
        "dimension": ctx.dimension.value,
        "objects": list(ctx.objects),
        "attributes": list(ctx.attributes),
        "incidence": [[1 if v else 0 for v in row] for row in ctx.incidence],
    }
    return _json_text(doc)


# --- Validation -------------------------------------------------------------


class Finding(_Frozen):
    """One validation finding: a code, a message and, if known, where."""

    code: str
    message: str
    location: str | None

    def __init__(self, code: str, message: str, location: str | None = None) -> None:
        _set_field(self, "code", _typed(code, str, "a finding's code must be a string"))
        _set_field(self, "message", _typed(message, str, "a finding's message must be a string"))
        _set_field(self, "location", None if location is None else _typed(location, str, "a finding's location must be a string"))


class ValidationReport(_Frozen):
    """Error and warning findings; the constructor stores each collection as a tuple of Finding values."""

    errors: tuple[Finding, ...]
    warnings: tuple[Finding, ...]

    def __init__(self, errors: Iterable[Finding] = (), warnings: Iterable[Finding] = ()) -> None:
        _set_field(self, "errors", _instances(errors, Finding, "a report's errors"))
        _set_field(self, "warnings", _instances(warnings, Finding, "a report's warnings"))

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_context(ctx: FormalContext) -> ValidationReport:
    """Report structural warnings.

    A successfully constructed context has no structural errors, so the
    report's error list is empty; parse failures surface as exceptions
    before a context exists. Warnings flag degenerate columns: attributes
    exhibited by every object or by none.
    """
    warnings = []
    for attr, count in attribute_frequency(ctx).items():
        if count == 0:
            warnings.append(Finding._of("vacuous-attribute", f"no object exhibits {attr!r}", attr))
        elif count == len(ctx.objects):
            warnings.append(Finding._of("universal-attribute", f"every object exhibits {attr!r}", attr))
    return ValidationReport._of((), tuple(warnings))


def validation_json(report: ValidationReport) -> dict:
    """JSON-ready dict of a validation report: its errors and warnings, each finding's keys in field order."""

    def findings(items: tuple[Finding, ...]) -> list[dict]:
        return [{"code": f.code, "message": f.message, "location": f.location} for f in items]

    _typed(report, ValidationReport, "a report must be a ValidationReport")
    return {"errors": findings(report.errors), "warnings": findings(report.warnings)}


def attribute_frequency(ctx: FormalContext) -> Mapping[str, int]:
    """Number of objects exhibiting each attribute, keyed by attribute name: the bit count of its column mask."""
    _typed(ctx, FormalContext, "a context must be a FormalContext")
    return MappingProxyType(dict(zip(ctx.attributes, map(int.bit_count, ctx.column_masks))))


def _contexts(contexts: Iterable[FormalContext]) -> tuple[FormalContext, ...]:
    return _instances(contexts, FormalContext, "contexts")


def universal_features(contexts: Iterable[FormalContext]) -> tuple[tuple[Dimension, str], ...]:
    """(dimension, attribute) pairs exhibited by every object of their context."""
    out = []
    for ctx in _contexts(contexts):
        if not ctx.objects:
            continue
        freq = attribute_frequency(ctx)
        out.extend((ctx.dimension, a) for a in ctx.attributes if freq[a] == len(ctx.objects))
    return tuple(out)


def singleton_features(contexts: Iterable[FormalContext]) -> tuple[tuple[Dimension, str], ...]:
    """(dimension, attribute) pairs exhibited by exactly one object."""
    out = []
    for ctx in _contexts(contexts):
        freq = attribute_frequency(ctx)
        out.extend((ctx.dimension, a) for a in ctx.attributes if freq[a] == 1)
    return tuple(out)


# --- Feature registry -------------------------------------------------------


class RegistryEntry(_Frozen):
    """One feature: its normalized name, its axis and the first object seen with it, if any."""

    name: str
    dimension: Dimension
    introduced_by: str | None

    def __init__(self, name: str, dimension: Dimension, introduced_by: str | None = None) -> None:
        _set_field(self, "name", _name(name, "feature"))
        _set_field(self, "dimension", _typed(dimension, Dimension, "dimension must be a Dimension"))
        _set_field(self, "introduced_by", None if introduced_by is None else _name(introduced_by, "object"))


class FeatureRegistry(_Frozen):
    """Append-only catalogue of known features; each belongs to one per-dimension axis.

    Entries are read in order: a name repeated under its own dimension keeps
    its first entry, so len counts names; a combined entry or a name already
    held under another dimension raises InputError.
    """

    entries: tuple[RegistryEntry, ...]

    def __init__(self, entries: Iterable[RegistryEntry] = ()) -> None:
        by_name: dict[str, RegistryEntry] = {}
        for entry in _instances(entries, RegistryEntry, "registry entries"):
            if entry.dimension is Dimension.COMBINED:
                raise InputError("combined-dimension", "features register under a per-dimension axis, not combined")
            first = by_name.setdefault(entry.name, entry)
            if first.dimension is not entry.dimension:
                raise InputError(
                    "dimension-conflict",
                    f"{entry.name!r} is already registered under {first.dimension.value}",
                    location=entry.name,
                )
        _set_field(self, "entries", tuple(by_name.values()))

    @cached_property
    def _by_name(self) -> dict[str, RegistryEntry]:
        return {e.name: e for e in self.entries}

    @cached_property
    def _names_by_dimension(self) -> Mapping[Dimension, frozenset[str]]:
        return {d: frozenset(e.name for e in self.entries if e.dimension is d) for d in PER_DIMENSION}

    def get(self, name: str) -> RegistryEntry | None:
        return self._by_name.get(normalize_name(name))

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def __len__(self) -> int:
        return len(self.entries)


def register_feature(
    registry: FeatureRegistry,
    name: str,
    dimension: Dimension,
    contexts: Iterable[FormalContext] = (),
    *,
    introduced_by: str | None = None,
) -> tuple[FeatureRegistry, tuple[str, ...]]:
    """Add a feature to the registry; return the new registry and the objects pending a re-check.

    The pending objects are those of the given contexts under dimension
    that lack the feature, once each in first-seen order. Their rows were
    recorded before the feature existed, so each needs its row re-examined
    by hand; the toolkit only tracks the debt, it cannot settle it.
    Registering a name that already exists under the same dimension is a
    no-op with nothing pending; under a different dimension it is an error.
    """
    _typed(registry, FeatureRegistry, "a registry must be a FeatureRegistry")
    entry = RegistryEntry(name, dimension, introduced_by)
    contexts = _contexts(contexts)
    grown = FeatureRegistry(registry.entries + (entry,))
    if len(grown) == len(registry):
        return registry, ()
    # a dict as an ordered set keeps each object once, where it was first seen
    pending = dict.fromkeys(
        obj
        for ctx in contexts
        if ctx.dimension is dimension and entry.name not in ctx.attribute_index
        for obj in ctx.objects
    )
    return grown, tuple(pending)


def registry_from_contexts(contexts: Iterable[FormalContext]) -> FeatureRegistry:
    """Bulk-register every attribute of the given per-dimension contexts.

    introduced_by is the first object exhibiting the attribute, if any.
    """
    return FeatureRegistry(
        RegistryEntry(attr, ctx.dimension, next(compress(ctx.objects, _bits(column)), None))
        for ctx in _contexts(contexts)
        for attr, column in zip(ctx.attributes, ctx.column_masks)
    )


# --- Merging ----------------------------------------------------------------


def merge_contexts(contexts: Sequence[FormalContext]) -> FormalContext:
    """Merge per-dimension contexts over one object set into a combined context.

    Attributes are qualified as ``<dimension>:<name>`` so the merged columns
    stay pairwise distinct, and FormalContext rejects a name two contexts of
    one dimension share (duplicate-attribute); incidence is concatenated horizontally.
    """
    contexts = _contexts(contexts)
    if not contexts:
        raise InputError("empty-merge", "nothing to merge")
    base = contexts[0].objects
    for ctx in contexts[1:]:
        if ctx.objects != base:
            raise InputError("object-mismatch", "contexts disagree on the object set or its order")
    attrs = [f"{ctx.dimension.value}:{a}" for ctx in contexts for a in ctx.attributes]
    rows = tuple(
        tuple(v for ctx in contexts for v in ctx.incidence[i])
        for i in range(len(base))
    )
    return FormalContext(Dimension.COMBINED, base, attrs, rows)
