"""Correctness gate: independent checks of every benchmark output.

Nothing here calls into kgcontinuum. Each check rebuilds what it needs from
the incidence matrix the benchmark generated, with plain integer bitmasks,
and raises GateError on the first disagreement.
"""

from __future__ import annotations

import hashlib


class GateError(Exception):
    """An output failed a correctness check."""


class NonZeroExit(GateError):
    """A CLI process exited with a non-zero status."""


def digest(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8") if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


def require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


class Oracle:
    """Derivation operators over one incidence matrix."""

    def __init__(self, objects, attributes, matrix):
        self.objects = list(objects)
        self.attributes = list(attributes)
        self.obj_index = {o: i for i, o in enumerate(self.objects)}
        self.attr_index = {a: j for j, a in enumerate(self.attributes)}
        self.rows = [sum(1 << j for j, v in enumerate(row) if v) for row in matrix]
        self.cols = [
            sum(1 << i for i, row in enumerate(matrix) if row[j]) for j in range(len(self.attributes))
        ]
        self.all_objects = (1 << len(self.objects)) - 1
        self.all_attributes = (1 << len(self.attributes)) - 1

    def extent(self, amask: int) -> int:
        out = self.all_objects
        j = 0
        while amask:
            if amask & 1:
                out &= self.cols[j]
            amask >>= 1
            j += 1
        return out

    def intent(self, omask: int) -> int:
        out = self.all_attributes
        i = 0
        while omask:
            if omask & 1:
                out &= self.rows[i]
            omask >>= 1
            i += 1
        return out

    def close(self, amask: int) -> int:
        return self.intent(self.extent(amask))

    def attr_mask(self, names) -> int:
        try:
            return sum(1 << self.attr_index[a] for a in set(names))
        except KeyError as exc:
            raise GateError(f"unknown attribute {exc.args[0]!r}") from None

    def obj_mask(self, names) -> int:
        try:
            return sum(1 << self.obj_index[o] for o in set(names))
        except KeyError as exc:
            raise GateError(f"unknown object {exc.args[0]!r}") from None


def _maximal(masks) -> set[int]:
    out: list[int] = []
    for m in sorted(set(masks), key=lambda x: -x.bit_count()):
        if not any(m & a == m for a in out):
            out.append(m)
    return set(out)


def check_lattice_doc(oracle: Oracle, doc) -> dict:
    """Check a lattice JSON document; return its concept and cover counts.

    Every concept must be a Galois fixpoint, listed once, in canonical order.
    The lower covers of each concept must be exactly the maximal extents among
    its one-attribute refinements (Lindig's neighbour condition), which means
    every cover pair is a strict inclusion with nothing between and no cover
    or concept is missing.
    """
    require(isinstance(doc, dict) and set(doc) == {"concepts", "covers", "top", "bottom"}, "lattice keys")
    concepts = doc["concepts"]
    ids = {}
    extents, intents = [], []
    for i, c in enumerate(concepts):
        require(c["id"] == f"c{i}", f"concept {i} has id {c['id']!r}")
        ids[c["id"]] = i
        e, b = oracle.obj_mask(c["extent"]), oracle.attr_mask(c["intent"])
        require(oracle.intent(e) == b and oracle.extent(b) == e, f"{c['id']} is not a Galois fixpoint")
        extents.append(e)
        intents.append(b)
    by_extent = {e: i for i, e in enumerate(extents)}
    require(len(by_extent) == len(extents), "a concept is listed twice")
    keys = [(len(c["extent"]), tuple(sorted(c["extent"]))) for c in concepts]
    require(keys == sorted(keys), "concepts are not in canonical order")
    require(extents[ids[doc["top"]]] == oracle.all_objects, "top does not hold every object")
    require(intents[ids[doc["bottom"]]] == oracle.all_attributes, "bottom does not hold every attribute")

    lower: list[set[int]] = [set() for _ in concepts]
    for lo, up in doc["covers"]:
        require(lo in ids and up in ids, f"cover ({lo}, {up}) names an unknown concept")
        lower[ids[up]].add(ids[lo])
    n_covers = sum(len(s) for s in lower)
    require(n_covers == len(doc["covers"]), "a cover is listed twice")
    for i, (e, b) in enumerate(zip(extents, intents)):
        refined = [e & oracle.cols[j] for j in range(len(oracle.attributes)) if not b >> j & 1]
        want = set()
        for m in _maximal(refined):
            require(m in by_extent, f"concept with extent below c{i} is missing")
            want.add(by_extent[m])
        require(lower[i] == want, f"lower covers of c{i} are wrong")
    return {"concepts": len(concepts), "covers": n_covers}


def check_basis(oracle: Oracle, implications) -> dict:
    """Check (premise, conclusion) name pairs of an implication basis.

    Each implication must hold in the context, its premise must not be closed,
    and its conclusion must be the closure of the premise minus the premise.
    """
    premises = set()
    for premise, conclusion in implications:
        p, c = oracle.attr_mask(premise), oracle.attr_mask(conclusion)
        closed = oracle.close(p)
        require(closed != p, f"premise {sorted(premise)} is closed")
        require(c & closed == c, f"implication {sorted(premise)} -> {sorted(conclusion)} does not hold")
        require(c == closed & ~p, f"conclusion of {sorted(premise)} is not its closure")
        require(p not in premises, f"premise {sorted(premise)} is listed twice")
        premises.add(p)
    return {"implications": len(premises)}


def fitness_oracle(have: dict, required: dict, add_weight, remove_weight, overrides) -> dict:
    """Expected fitness document fields for one KG; dims are dimension tags."""
    dims = [d for d in have.keys() | required.keys()]
    satisfied, gap, surplus = {}, {}, {}
    cost = 0.0
    for d in dims:
        h, r = have.get(d, set()), required.get(d, set())
        satisfied[d], gap[d], surplus[d] = sorted(r & h), sorted(r - h), sorted(h - r)
        cost += sum(overrides.get(f, add_weight) for f in r - h)
        cost += sum(overrides.get(f, remove_weight) for f in h - r)
    return {
        "fit": all(not g for g in gap.values()),
        "satisfied": satisfied,
        "gap": gap,
        "surplus": surplus,
        "cost": cost,
    }


def check_fitness_doc(doc, expected: dict, priced: bool) -> None:
    for key in ("fit", "satisfied", "gap", "surplus"):
        require(doc[key] == expected[key], f"fitness {key} of {doc.get('kg')!r} is wrong")
    if priced:
        require(abs(doc["cost"] - expected["cost"]) <= 1e-9 * max(1.0, expected["cost"]), f"cost of {doc['kg']!r} is wrong")
    else:
        require("cost" not in doc, "unpriced fitness carries a cost")


def check_delta_doc(doc, source: dict, target: dict, removing: bool) -> None:
    for d in source.keys() | target.keys():
        h, w = source.get(d, set()), target.get(d, set())
        want = {"add": sorted(w - h), "remove": sorted(h - w) if removing else []}
        require(doc["delta"].get(d) == want, f"delta {doc['source']!r} -> {doc['target']!r} is wrong on {d}")
    require(set(doc["delta"]) == source.keys() | target.keys(), "delta covers the wrong dimensions")
