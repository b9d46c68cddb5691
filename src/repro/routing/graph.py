"""The channel-position graph.

"Our global router is graph based.  It uses the channel position graph
obtained from the floorplan produced by the integer programming step and
assigns a preliminary capacity to each edge."

The graph is built over the floorplan's *channel grid*: the distinct module
edge coordinates cut the chip into cells; free cells (not covered by a
module) become nodes, and adjacent free cells are joined by edges whose
capacity is the number of routing tracks that fit through their shared
boundary.  For over-the-cell technologies every cell is free.  A ring of
routing space is added around the chip so nets can always detour around the
module block (around-the-cell routing).

The graph is stored as arrays.  Node ids are the free cells' ``(i, j)``
grid indices in lexicographic order, so comparing ids compares cells; edge
``e`` joins ``eu[e] < ev[e]`` and edges are numbered node by node, the
right neighbor before the top one.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import coo_matrix

from repro.core.placement import Placement
from repro.geometry.rect import GEOM_EPS, Rect
from repro.routing.pins import GeneralizedPin
from repro.routing.technology import Technology

Node = tuple[int, int]


@dataclass(eq=False)
class ChannelGraph:
    """The routing graph plus its grid geometry.

    Attributes:
        xs: sorted x cut coordinates.
        ys: sorted y cut coordinates.
        region: the routed region (chip plus routing ring).
        nodes: node id -> ``(i, j)`` cell index, in lexicographic order.
        x0, y0, x1, y1: per-node cell bounds.
        eu, ev: per-edge endpoint ids (``eu < ev``).
        length: per-edge center-to-center Manhattan distance.
        capacity: per-edge tracks through the shared boundary.
        usage: per-edge routed wires so far.
        orientation: per-edge ``"h"`` for a horizontal boundary crossed by
            vertical wires, ``"v"`` for a vertical boundary crossed by
            horizontal wires.
        grid: ``(columns, rows)`` array of node ids, -1 for blocked cells.
    """

    xs: list[float]
    ys: list[float]
    region: Rect
    nodes: list[Node]
    x0: np.ndarray
    y0: np.ndarray
    x1: np.ndarray
    y1: np.ndarray
    eu: np.ndarray
    ev: np.ndarray
    length: np.ndarray
    capacity: np.ndarray
    usage: np.ndarray
    orientation: np.ndarray
    grid: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.eu)

    # -- lookups (built on first use) ----------------------------------------

    @cached_property
    def grid_ids(self) -> list[list[int]]:
        """``grid`` as nested lists (fast scalar access)."""
        return self.grid.tolist()

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """``(eu, ev)`` id pair -> edge id."""
        return {pair: e for e, pair in enumerate(zip(self.eu.tolist(),
                                                     self.ev.tolist()))}

    @cached_property
    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per node, its ``(neighbor id, edge id)`` pairs."""
        adj: list[list[tuple[int, int]]] = [[] for _ in self.nodes]
        for e, (u, v) in enumerate(zip(self.eu.tolist(), self.ev.tolist())):
            adj[u].append((v, e))
            adj[v].append((u, e))
        return adj

    def node_id(self, node: Node) -> int | None:
        """The id of a cell, or None when it is blocked or off the grid."""
        i, j = node
        if 0 <= i < self.grid.shape[0] and 0 <= j < self.grid.shape[1]:
            nid = self.grid_ids[i][j]
            return nid if nid >= 0 else None
        return None

    def edge_id(self, u: Node, v: Node) -> int | None:
        """The id of the edge joining two cells, or None."""
        a, b = self.node_id(u), self.node_id(v)
        if a is None or b is None:
            return None
        return self.edge_index.get((a, b) if a < b else (b, a))

    def has_edge(self, u: Node, v: Node) -> bool:
        return self.edge_id(u, v) is not None

    def cell_rect(self, node: Node) -> Rect:
        """Geometry of a cell node."""
        i, j = node
        return Rect(self.xs[i], self.ys[j], self.xs[i + 1] - self.xs[i],
                    self.ys[j + 1] - self.ys[j])

    def node_at(self, x: float, y: float) -> Node | None:
        """The cell containing point ``(x, y)``, or None when outside the
        region or blocked."""
        i, j = self._grid_index(x, y)
        return (i, j) if self.grid_ids[i][j] >= 0 else None

    def _grid_index(self, x: float, y: float) -> tuple[int, int]:
        i = bisect.bisect_right(self.xs, x) - 1
        j = bisect.bisect_right(self.ys, y) - 1
        return (min(max(i, 0), len(self.xs) - 2),
                min(max(j, 0), len(self.ys) - 2))

    # -- connectivity --------------------------------------------------------

    @cached_property
    def main_mask(self) -> list[bool]:
        """Per node, membership in the largest connected component (ties go
        to the component whose smallest node sorts first)."""
        # Imported on first use: csgraph pulls in scipy.linalg and
        # scipy.sparse.linalg (~0.15 s), which runs that never route skip.
        from scipy.sparse.csgraph import connected_components

        n = self.n_nodes
        if n == 0:
            return []
        matrix = coo_matrix((np.ones(self.n_edges), (self.eu, self.ev)),
                            shape=(n, n))
        n_comp, labels = connected_components(matrix, directed=False)
        sizes = np.bincount(labels, minlength=n_comp)
        first = np.full(n_comp, n)
        np.minimum.at(first, labels, np.arange(n))
        best = min(range(n_comp), key=lambda c: (-sizes[c], first[c]))
        return (labels == best).tolist()

    def main_component(self) -> frozenset[Node]:
        """The largest connected component of free cells.

        Compacted floorplans can enclose isolated free pockets; pins snap to
        the main component so every terminal is mutually reachable.
        """
        return frozenset(node for node, inside in zip(self.nodes,
                                                      self.main_mask)
                         if inside)

    def nearest_node(self, x: float, y: float, *,
                     connected_only: bool = True) -> Node:
        """The free cell nearest to ``(x, y)``: the containing cell when
        acceptable, otherwise a breadth-first search over grid neighbors.

        Args:
            connected_only: restrict the answer to the main connected
                component (so routing between returned nodes always exists).

        Raises:
            ValueError: when the graph has no nodes at all.
        """
        if self.n_nodes == 0:
            raise ValueError("channel graph has no free cells")
        ids = self.grid_ids
        main = self.main_mask if connected_only else None

        def acceptable(i: int, j: int) -> bool:
            nid = ids[i][j]
            return nid >= 0 and (main is None or main[nid])

        i, j = self._grid_index(x, y)
        n_cols, n_rows = len(self.xs) - 1, len(self.ys) - 1
        seen = {(i, j)}
        queue: deque[Node] = deque([(i, j)])
        while queue:
            ci, cj = queue.popleft()
            if acceptable(ci, cj):
                return (ci, cj)
            for ni, nj in ((ci + 1, cj), (ci - 1, cj), (ci, cj + 1), (ci, cj - 1)):
                if 0 <= ni < n_cols and 0 <= nj < n_rows \
                        and (ni, nj) not in seen:
                    seen.add((ni, nj))
                    queue.append((ni, nj))
        # Unreachable by construction (some free cell always exists), but
        # fall back to any node rather than crash.
        return self.nodes[0]

    def pin_node(self, pin: GeneralizedPin) -> Node:
        """The routing node serving a generalized pin: the free cell just
        outside the pin's module side (nearest reachable free cell when the
        channel there is fully blocked)."""
        nudge = GEOM_EPS * 10
        offsets = {"left": (-nudge, 0.0), "right": (nudge, 0.0),
                   "bottom": (0.0, -nudge), "top": (0.0, nudge)}
        dx, dy = offsets[pin.side.value]
        return self.nearest_node(pin.x + dx, pin.y + dy)

    # -- usage ---------------------------------------------------------------

    def reset_usage(self) -> None:
        """Clear routed usage on every edge."""
        self.usage[:] = 0.0

    def total_overflow(self) -> float:
        """Summed usage beyond capacity over all edges (in edge order)."""
        return sum(np.maximum(0.0, self.usage - self.capacity).tolist())

    def crossing_lines(self, edge_usage: Mapping[tuple[Node, Node], float]
                       ) -> "CrossingLines":
        """The routed wires of ``edge_usage`` per crossed boundary line."""
        return CrossingLines.build(self, edge_usage)


@dataclass
class CrossingLines:
    """Routed usage on the grid's boundary lines, for corridor demand.

    Every used edge crosses one boundary segment: an ``"h"`` edge (vertical
    wires) crosses the horizontal line ``y = line`` over
    ``[seg_lo, seg_hi]`` in x, a ``"v"`` edge a vertical line over a y
    range.  Arrays hold the used edges in ``edge_usage`` order; ``group``
    numbers the distinct lines (rounded to 1e-6).
    """

    orientation: np.ndarray
    line: np.ndarray
    seg_lo: np.ndarray
    seg_hi: np.ndarray
    usage: np.ndarray
    group: np.ndarray

    @classmethod
    def build(cls, graph: ChannelGraph,
              edge_usage: Mapping[tuple[Node, Node], float]) -> "CrossingLines":
        ids: list[int] = []
        wires: list[float] = []
        for (u, v), count in edge_usage.items():
            e = graph.edge_id(u, v)
            if count > 0 and e is not None:
                ids.append(e)
                wires.append(count)
        edges = np.asarray(ids, dtype=np.int64)
        u, v = graph.eu[edges], graph.ev[edges]
        orientation = graph.orientation[edges]
        h = orientation == "h"  # vertical wires cross a horizontal line

        def bounds(k: np.ndarray) -> tuple[np.ndarray, ...]:
            """Cell bounds across the crossed line, then along it."""
            return (np.where(h, graph.y0[k], graph.x0[k]),
                    np.where(h, graph.y1[k], graph.x1[k]),
                    np.where(h, graph.x0[k], graph.y0[k]),
                    np.where(h, graph.x1[k], graph.y1[k]))

        u_lo, u_hi, u_start, u_end = bounds(u)
        v_lo, v_hi, v_start, v_end = bounds(v)
        # the line is the far side of the lower/left cell
        line = np.where(u_lo < v_lo, u_hi, v_hi)
        seg_lo = np.maximum(u_start, v_start)
        seg_hi = np.minimum(u_end, v_end)
        keys: dict[float, int] = {}
        group = [keys.setdefault(round(x, 6), len(keys)) for x in line.tolist()]
        return cls(orientation=orientation, line=line, seg_lo=seg_lo,
                   seg_hi=seg_hi, usage=np.asarray(wires, dtype=float),
                   group=np.asarray(group, dtype=np.int64))

    def peak(self, crossing: str, line_lo: float, line_hi: float,
             lo: float, hi: float, eps: float = GEOM_EPS) -> float:
        """Peak summed usage over the ``crossing`` lines in
        ``[line_lo, line_hi]`` whose segment overlaps ``(lo, hi)``."""
        inside = ((self.orientation == crossing)
                  & (line_lo - eps <= self.line) & (self.line <= line_hi + eps)
                  & (self.seg_lo < hi - eps) & (self.seg_hi > lo + eps))
        if not inside.any():
            return 0.0
        return float(np.bincount(self.group[inside],
                                 weights=self.usage[inside]).max())


def build_channel_graph(placements: Sequence[Placement], chip: Rect,
                        technology: Technology, *,
                        ring_width: float | None = None,
                        max_cell_size: float | None = None) -> ChannelGraph:
    """Build the channel-position graph for a floorplan.

    Args:
        placements: placed modules (module rects block cells for
            around-the-cell technologies; envelope margins remain routable).
        chip: the chip rectangle from the floorplanner.
        technology: pitches and routing style.
        ring_width: width of the open routing ring around the chip; defaults
            to 8 tracks of the larger pitch (0 disables the ring).
        max_cell_size: subdivide grid intervals larger than this so channels
            have internal routing resolution (a net between two facing module
            sides then crosses at least one edge and registers channel
            usage).  Defaults to 1/24 of the larger region dimension.

    Returns:
        The :class:`ChannelGraph`.
    """
    if ring_width is None:
        ring_width = 8.0 * max(technology.pitch_h, technology.pitch_v)
    region = chip.inflated(ring_width, ring_width, ring_width, ring_width) \
        if ring_width > 0 else chip
    if max_cell_size is None:
        max_cell_size = max(region.w, region.h) / 24.0

    xs = grid_cuts([region.x, region.x2]
                   + [c for p in placements for c in (p.rect.x, p.rect.x2)],
                   region.x, region.x2)
    ys = grid_cuts([region.y, region.y2]
                   + [c for p in placements for c in (p.rect.y, p.rect.y2)],
                   region.y, region.y2)
    xs = _subdivide(xs, max_cell_size)
    ys = _subdivide(ys, max_cell_size)

    blockers = [] if not technology.needs_channel_area \
        else [p.rect for p in placements]
    free = free_cells(xs, ys, blockers)
    grid = np.full(free.shape, -1, dtype=np.int64)
    ci, cj = np.nonzero(free)  # C order: lexicographic (i, j)
    grid[ci, cj] = np.arange(len(ci))
    nodes = list(zip(ci.tolist(), cj.tolist()))

    # Cell bounds and centers exactly as Rect computes them.
    xa, ya = np.asarray(xs), np.asarray(ys)
    w, h = np.diff(xa)[ci], np.diff(ya)[cj]
    x0, y0 = xa[:-1][ci], ya[:-1][cj]
    cx, cy = x0 + w / 2.0, y0 + h / 2.0

    # right neighbors: vertical boundary, crossed by horizontal wires
    ri, rj = np.nonzero(free[:-1, :] & free[1:, :])
    right_u, right_v = grid[ri, rj], grid[ri + 1, rj]
    # top neighbors: horizontal boundary, crossed by vertical wires
    ti, tj = np.nonzero(free[:, :-1] & free[:, 1:])
    top_u, top_v = grid[ti, tj], grid[ti, tj + 1]
    eu = np.concatenate([right_u, top_u])
    ev = np.concatenate([right_v, top_v])
    kind = np.concatenate([np.zeros(len(right_u), np.int64),
                           np.ones(len(top_u), np.int64)])
    order = np.argsort(2 * eu + kind, kind="stable")
    eu, ev, kind = eu[order], ev[order], kind[order]
    capacity = np.where(kind == 0, h[eu] / technology.pitch_h,
                        w[eu] / technology.pitch_v)
    length = np.abs(cx[eu] - cx[ev]) + np.abs(cy[eu] - cy[ev])

    return ChannelGraph(
        xs=xs, ys=ys, region=region, nodes=nodes,
        x0=x0, y0=y0, x1=x0 + w, y1=y0 + h,
        eu=eu, ev=ev, length=length, capacity=capacity,
        usage=np.zeros(len(eu)), orientation=np.where(kind == 0, "v", "h"),
        grid=grid)


def free_cells(xs: Sequence[float], ys: Sequence[float],
               blockers: Sequence[Rect]) -> np.ndarray:
    """``(columns, rows)`` mask of grid cells no blocker overlaps (the
    ``Rect.overlaps`` test, broadcast over all cells and blockers)."""
    xa, ya = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    n_cols, n_rows = len(xa) - 1, len(ya) - 1
    if not blockers:
        return np.ones((n_cols, n_rows), dtype=bool)
    cell_x0, cell_y0 = xa[:-1], ya[:-1]
    cell_x2 = cell_x0 + np.diff(xa)
    cell_y2 = cell_y0 + np.diff(ya)
    bx0 = np.array([[b.x] for b in blockers])
    bx2 = np.array([[b.x2] for b in blockers])
    by0 = np.array([[b.y] for b in blockers])
    by2 = np.array([[b.y2] for b in blockers])
    eps = GEOM_EPS
    in_cols = (bx0 < cell_x2 - eps) & (cell_x0 < bx2 - eps)  # (B, cols)
    in_rows = (by0 < cell_y2 - eps) & (cell_y0 < by2 - eps)  # (B, rows)
    blocked = in_cols.T.astype(np.int32) @ in_rows.astype(np.int32)
    return blocked == 0


def grid_cuts(values: Iterable[float], lo: float, hi: float,
          eps: float = GEOM_EPS) -> list[float]:
    """Sorted, deduplicated cut coordinates clipped to ``[lo, hi]``."""
    clipped = sorted(min(max(v, lo), hi) for v in values)
    cuts: list[float] = []
    for v in clipped:
        if not cuts or v - cuts[-1] > eps:
            cuts.append(v)
    if len(cuts) < 2:
        cuts = [lo, hi]
    return cuts


def _subdivide(cuts: list[float], max_size: float) -> list[float]:
    """Insert evenly spaced cuts so no interval exceeds ``max_size``."""
    if max_size <= 0:
        return cuts
    refined: list[float] = [cuts[0]]
    for a, b in zip(cuts, cuts[1:]):
        gap = b - a
        if gap > max_size:
            pieces = math.ceil(gap / max_size)
            refined.extend(a + gap * k / pieces for k in range(1, pieces))
        refined.append(b)
    return refined
