"""Human-auditable views of lattices: legend tables and DOT diagrams."""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain

from .context import _collection, _Frozen, _set_field, _typed
from .errors import InputError
from .fca import ConceptLattice

#: Placeholder for an empty extent or intent cell.
EMPTY_MARK = "---"


def _legend_names(names: Iterable[str]) -> tuple[str, ...]:
    return tuple(_typed(name, str, "legend names must be strings") for name in _collection(names, "legend names"))


def _legend_row(row: Iterable[Iterable[str]]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    sides = _collection(row, "a legend row")
    if len(sides) != 2:
        raise InputError("schema-violation", f"a legend row must be an (objects, attributes) pair, not {len(sides)} items")
    return _legend_names(sides[0]), _legend_names(sides[1])


class Legend(_Frozen):
    """One (objects, attributes) row per concept, in canonical order: row i is concept c{i}.

    The constructor checks that every row is a pair of collections of string
    names; legend() builds with _of.
    """

    rows: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]

    def __init__(self, rows: Iterable[tuple[Iterable[str], Iterable[str]]]) -> None:
        _set_field(self, "rows", tuple(map(_legend_row, _collection(rows, "legend rows"))))

    def to_markdown(self) -> str:
        lines = ["| ID | Objects | Attributes |", "| --- | --- | --- |"]
        for i, (objects, attributes) in enumerate(self.rows):
            # a c<digits> id holds no "|", so only the name cells are escaped
            cells = (", ".join(objects) or EMPTY_MARK, ", ".join(attributes) or EMPTY_MARK)
            lines.append(f"| c{i} | " + " | ".join(c.replace("|", "\\|") for c in cells) + " |")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "objects", "attributes"])
        for i, (objects, attributes) in enumerate(self.rows):
            writer.writerow([f"c{i}", "; ".join(objects) or EMPTY_MARK, "; ".join(attributes) or EMPTY_MARK])
        return buf.getvalue()


def legend(lattice: ConceptLattice) -> Legend:
    """Tabulate every concept; names are listed in declaration order."""
    return Legend._of(_typed(lattice, ConceptLattice, "a lattice must be a ConceptLattice").names)


def assign_layers(lattice: ConceptLattice) -> tuple[int, ...]:
    """Each concept's drawing depth: its longest cover-path distance from the top, which sits at 0.

    Layers strictly increase downward along every cover edge, so edges never
    run within a rank.
    """
    _typed(lattice, ConceptLattice, "a lattice must be a ConceptLattice")
    # canonical order puts every upper cover after its lower concept, so a
    # backward walk meets all upper covers of a concept before the concept
    layers = [0] * len(lattice.masks)
    for i in reversed(range(len(lattice.masks))):
        ups = lattice.upper_covers[i]
        if ups:
            layers[i] = max(layers[u] for u in ups) + 1
    return tuple(layers)


def _quote(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(lattice: ConceptLattice, labels: str = "id-only") -> str:
    """Deterministic DOT digraph of the Hasse diagram.

    Cover edges point from the upper concept to the lower one; concepts of
    equal layer share a rank. labels is "id-only" or "id+intent".
    """
    if labels not in ("id-only", "id+intent"):
        raise InputError("unknown-label-mode", f"labels must be 'id-only' or 'id+intent', got {labels!r}")
    layers = assign_layers(lattice)
    lines = ["digraph lattice {", "  rankdir=TB;", "  node [shape=box];"]
    # a c<digits> id holds no quote or backslash, so only intents go through _quote
    for i in range(len(lattice.masks)):
        label = f"c{i}"
        if labels == "id+intent":
            intent = ", ".join(lattice.names[i][1]) or EMPTY_MARK
            label = f"{label}\\n{_quote(intent)}"
        lines.append(f'  "c{i}" [label="{label}"];')
    ranks: list[list[int]] = [[] for _ in range(max(layers, default=0) + 1)]
    for i, depth in enumerate(layers):
        ranks[depth].append(i)
    for members in ranks:
        lines.append("  { rank=same; " + " ".join(f'"c{i}";' for i in members) + " }")
    # edges by upper concept, then lower: the lower concepts are walked in order
    edges: list[list[str]] = [[] for _ in lattice.masks]
    for lo, ups in enumerate(lattice.upper_covers):
        for up in ups:
            edges[up].append(f'  "c{up}" -> "c{lo}";')
    lines.extend(chain.from_iterable(edges))
    lines.append("}")
    return "\n".join(lines) + "\n"
