"""Critical chains: what limits the chip dimensions.

After compaction (the section-2.5 LP), some relations are *binding* — the
two modules touch (plus any required gap).  The binding relations form a
DAG per axis; the heaviest path through it is the **critical chain**: the
stack of modules whose summed extents equal the chip dimension.  Shrinking
any module off the chain cannot shrink the chip; the chain is where a
designer (or a soft-block resize) must act.

This is the floorplan analogue of static timing's critical path, derived
purely from geometry — no solver duals needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import TopologicalSorter
from typing import Sequence

from repro.core.placement import Placement
from repro.core.topology import Relation, derive_relations

#: Slack below which a relation counts as binding.
BINDING_EPS = 1e-6


@dataclass(frozen=True)
class CriticalChain:
    """One axis's critical chain.

    Attributes:
        axis: ``"x"`` (chip width) or ``"y"`` (chip height).
        modules: the chain members, in stacking order.
        extent: summed module extents along the axis (+ binding gaps) —
            equals the chip dimension when the floorplan is compacted.
        chip_extent: the chip's dimension on this axis.
    """

    axis: str
    modules: tuple[str, ...]
    extent: float
    chip_extent: float

    @property
    def is_tight(self) -> bool:
        """True when the chain's extent reaches the chip dimension (the
        floorplan is compacted along this axis)."""
        return self.extent >= self.chip_extent - 1e-4 * max(1.0, self.chip_extent)


def binding_relations(placements: Sequence[Placement],
                      relations: Sequence[Relation] | None = None,
                      eps: float = BINDING_EPS) -> list[Relation]:
    """Relations whose separation constraint is tight (modules touch, up to
    the relation's gap)."""
    if relations is None:
        relations = derive_relations(placements)
    by_name = {p.name: p for p in placements}
    tight: list[Relation] = []
    for rel in relations:
        a = by_name[rel.first].envelope
        b = by_name[rel.second].envelope
        slack = (b.x - a.x2 if rel.axis == "x" else b.y - a.y2) - rel.gap
        if slack <= eps:  # touching (or overlapping by solver noise)
            tight.append(rel)
    return tight


def critical_chain(placements: Sequence[Placement], axis: str = "y", *,
                   relations: Sequence[Relation] | None = None,
                   eps: float = BINDING_EPS) -> CriticalChain:
    """The heaviest binding chain along ``axis``.

    Builds a DAG of binding relations (edges point in the growth direction),
    adds a virtual source/sink for chip boundaries, and takes the
    longest path weighted by module extents and binding gaps.

    Raises:
        ValueError: for an unknown axis or empty placement set.
    """
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    placement_list = list(placements)
    if not placement_list:
        raise ValueError("critical_chain needs at least one placement")
    by_name = {p.name: p for p in placement_list}

    def extent(p: Placement) -> float:
        return p.envelope.w if axis == "x" else p.envelope.h

    def low_edge(p: Placement) -> float:
        return p.envelope.x if axis == "x" else p.envelope.y

    nodes = ["source", "sink"] + [p.name for p in placement_list]
    weights: dict[tuple[str, str], float] = {}
    for p in placement_list:
        weights[(p.name, "sink")] = 0.0
        if low_edge(p) <= eps:
            # resting on the chip boundary: the chain can start here
            weights[("source", p.name)] = extent(p)
    for rel in binding_relations(placement_list, relations, eps=eps):
        if rel.axis != axis:
            continue
        first = by_name[rel.first]
        second = by_name[rel.second]
        # Guard against cycles from overlap noise: binding edges must make
        # forward progress along the axis.
        if low_edge(second) < low_edge(first) - eps:
            continue
        weights[(rel.first, rel.second)] = extent(second) + rel.gap
    path = _longest_path(nodes, weights)
    total = 0
    for u, v in zip(path, path[1:]):
        total += weights[(u, v)]
    modules = tuple(n for n in path if n not in ("source", "sink"))
    chip_extent = max((p.envelope.x2 if axis == "x" else p.envelope.y2)
                      for p in placement_list)
    return CriticalChain(axis=axis, modules=modules, extent=total,
                         chip_extent=chip_extent)


def _longest_path(nodes: list[str],
                  weights: dict[tuple[str, str], float]) -> list[str]:
    """The heaviest path of a DAG: a DP over a topological order.

    Nodes and edges are fed to the sorter in insertion order, so the order
    (and with it every tie-break) is deterministic: the first of several
    equally heavy predecessors wins, and the path ends at the first node,
    in topological order, of greatest weight.
    """
    sorter: TopologicalSorter = TopologicalSorter()
    preds: dict[str, list[str]] = {n: [] for n in nodes}
    for node in nodes:
        sorter.add(node)
    for u, v in weights:
        sorter.add(v, u)
        preds[v].append(u)
    best: dict[str, tuple[float, str]] = {}
    for v in sorter.static_order():
        options = [(best[u][0] + weights[(u, v)], u) for u in preds[v]]
        top = max(options, key=lambda o: o[0]) if options else (0, v)
        best[v] = top if top[0] >= 0 else (0, v)
    node = max(best, key=lambda n: best[n][0])
    path = [node]
    while best[node][1] != node:
        node = best[node][1]
        path.append(node)
    path.reverse()
    return path


def chain_report(placements: Sequence[Placement]) -> str:
    """Two-line report of the width and height critical chains."""
    lines = []
    for axis, label in (("x", "width"), ("y", "height")):
        chain = critical_chain(placements, axis)
        marker = "tight" if chain.is_tight else \
            f"slack {chain.chip_extent - chain.extent:.2f}"
        lines.append(f"{label} chain ({marker}): "
                     + " -> ".join(chain.modules)
                     + f"  [{chain.extent:.2f} / {chain.chip_extent:.2f}]")
    return "\n".join(lines)
