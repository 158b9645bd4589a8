"""Human-auditable views of lattices: legend tables and DOT diagrams."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import InputError
from .fca import ConceptLattice

#: Placeholder for an empty extent or intent cell.
EMPTY_MARK = "---"


@dataclass(frozen=True)
class LegendRow:
    concept_id: str
    objects: tuple[str, ...]
    attributes: tuple[str, ...]


@dataclass(frozen=True)
class Legend:
    """One row per concept, in canonical order."""

    rows: tuple[LegendRow, ...]

    def to_markdown(self) -> str:
        lines = ["| ID | Objects | Attributes |", "| --- | --- | --- |"]
        for row in self.rows:
            objs = ", ".join(row.objects) or EMPTY_MARK
            attrs = ", ".join(row.attributes) or EMPTY_MARK
            cells = [row.concept_id, objs, attrs]
            lines.append("| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "objects", "attributes"])
        for row in self.rows:
            writer.writerow([
                row.concept_id,
                "; ".join(row.objects) or EMPTY_MARK,
                "; ".join(row.attributes) or EMPTY_MARK,
            ])
        return buf.getvalue()


def legend(lattice: ConceptLattice) -> Legend:
    """Tabulate every concept; names are listed in declaration order."""
    return Legend(tuple(LegendRow(f"c{i}", extent, intent) for i, (extent, intent) in enumerate(lattice.names)))


@dataclass(frozen=True)
class LayerAssignment:
    """Concept index -> drawing depth; the top concept sits at layer 0."""

    layers: tuple[int, ...]

    def __getitem__(self, index: int) -> int:
        return self.layers[index]

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def depth(self) -> int:
        return max(self.layers, default=0)


def assign_layers(lattice: ConceptLattice) -> LayerAssignment:
    """Longest cover-path distance from the top.

    Layers strictly increase downward along every cover edge, so edges never
    run within a rank.
    """
    # canonical order puts every upper cover after its lower concept, so a
    # backward walk meets all upper covers of a concept before the concept
    layers = [0] * len(lattice.masks)
    for i in reversed(range(len(lattice.masks))):
        ups = lattice.upper_covers[i]
        if ups:
            layers[i] = max(layers[u] for u in ups) + 1
    return LayerAssignment(tuple(layers))


def _quote(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(lattice: ConceptLattice, labels: str = "id-only") -> str:
    """Deterministic DOT digraph of the Hasse diagram.

    Cover edges point from the upper concept to the lower one; concepts of
    equal layer share a rank. labels is "id-only" or "id+intent".
    """
    if labels not in ("id-only", "id+intent"):
        raise InputError("unknown-label-mode", f"labels must be 'id-only' or 'id+intent', got {labels!r}")
    layer = assign_layers(lattice)
    lines = ["digraph lattice {", "  rankdir=TB;", "  node [shape=box];"]
    for i in range(len(lattice.masks)):
        label = _quote(f"c{i}")
        if labels == "id+intent":
            intent = ", ".join(lattice.names[i][1]) or EMPTY_MARK
            label = f"{label}\\n{_quote(intent)}"
        lines.append(f'  "c{i}" [label="{label}"];')
    ranks: list[list[int]] = [[] for _ in range(layer.depth + 1)]
    for i, depth in enumerate(layer.layers):
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
