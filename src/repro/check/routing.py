"""Independent validation of global-routing results.

A :class:`~repro.routing.result.RoutingResult` is what Table 3's wirelength
and the channel-width adjustment are computed from, so its claims are
re-derived here from the routes and the channel graph's arrays alone:

* every edge of every route is an edge of the channel graph;
* each route's edges form a forest, with no edge twice, and joined through
  its terminal modules' pin nodes (a module's four generalized pins are
  electrically common) they connect every terminal; every leaf of the
  forest is a terminal's pin node, so no branch dangles;
* ``NetRoute.length`` is the sum of its edge lengths and
  ``NetRoute.n_terminals`` the number of placed terminals;
* every net with two or more placed terminals is routed or failed, once;
* ``edge_usage``, the graph's per-edge ``usage``, ``total_wirelength`` and
  ``total_overflow`` equal the values recomputed from the routes.

Every finding is a :class:`~repro.check.certificate.Violation` of kind
``"routing"`` whose ``name`` is the check that failed; the checker never
raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.check.certificate import Violation
from repro.routing.pins import generalized_pins

if TYPE_CHECKING:
    from repro.core.placement import Placement
    from repro.netlist.net import Net
    from repro.routing.graph import ChannelGraph
    from repro.routing.result import RoutingResult

#: Relative tolerance on recomputed lengths.
LENGTH_RTOL = 1e-9


@dataclass
class RoutingReport:
    """Outcome of :func:`check_routing`."""

    n_routes: int = 0
    n_edges: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no violations were found."""
        return not self.violations

    def add(self, check: str, magnitude: float, detail: str) -> None:
        self.violations.append(Violation("routing", check, magnitude, detail))


def connected_groups(links: Iterable[tuple[Hashable, Hashable]]
                     ) -> dict[Hashable, Hashable]:
    """Union-find over ``links``: each endpoint -> its group's root."""
    parent: dict[Hashable, Hashable] = {}

    def find(x: Hashable) -> Hashable:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    return {x: find(x) for x in list(parent)}


def check_routing(channel_graph: "ChannelGraph", routing: "RoutingResult",
                  nets: Sequence["Net"],
                  placements: Mapping[str, "Placement"]) -> RoutingReport:
    """Re-derive every claim a routing result makes.

    Args:
        channel_graph: the graph the routes were found on, holding the
            usage of this routing pass.
        routing: the result under audit.
        nets: the routed netlist's nets.
        placements: the placements the router saw.
    """
    graph = channel_graph
    report = RoutingReport(n_routes=len(routing.routes))
    pins = {name: {graph.pin_node(pin) for pin in generalized_pins(p)}
            for name, p in placements.items()}
    lengths = graph.length.tolist()
    counts = np.zeros(graph.n_edges)
    edge_usage: dict = {}
    nets_by_name = {n.name: n for n in nets}
    seen: set[str] = set()

    for route in routing.routes:
        name = route.net
        if name in seen:
            report.add("duplicate-net", 1.0, f"net {name} is routed twice")
        seen.add(name)
        net = nets_by_name.get(name)
        if net is None:
            report.add("unknown-net", 1.0, f"route for unknown net {name}")
            continue
        terminals = [m for m in net.modules if m in pins]
        if route.n_terminals != len(terminals):
            report.add("terminals", abs(route.n_terminals - len(terminals)),
                       f"net {name} claims {route.n_terminals} terminals, "
                       f"has {len(terminals)}")

        ids: list[int] = []
        for u, v in route.edges:
            e = graph.edge_id(u, v)
            if e is None:
                report.add("phantom-edge", 1.0,
                           f"net {name}: {u}-{v} is not a channel-graph edge")
                continue
            ids.append(e)
            edge_usage[(u, v)] = edge_usage.get((u, v), 0.0) + 1.0
        report.n_edges += len(ids)
        if len(set(ids)) != len(ids):
            report.add("repeated-edge", len(ids) - len(set(ids)),
                       f"net {name} lists an edge more than once")
        counts[ids] += 1.0
        _check_tree(report, name, route.edges, terminals, pins)

        length = sum(lengths[e] for e in ids)
        if not math.isclose(route.length, length, rel_tol=LENGTH_RTOL,
                            abs_tol=LENGTH_RTOL):
            report.add("length", abs(route.length - length),
                       f"net {name} claims length {route.length}, its edges "
                       f"sum to {length}")

    failed = list(routing.failed_nets)
    for name in sorted(set(failed) & seen):
        report.add("duplicate-net", 1.0, f"net {name} is routed and failed")
    for net in nets:
        placed = sum(m in pins for m in net.modules)
        if placed >= 2 and net.name not in seen and net.name not in failed:
            report.add("missing-net", 1.0,
                       f"net {net.name} is neither routed nor failed")

    _check_usage(report, graph, routing, counts, edge_usage)
    wirelength = sum(r.length for r in routing.routes)
    if not math.isclose(routing.total_wirelength, wirelength,
                        rel_tol=LENGTH_RTOL, abs_tol=LENGTH_RTOL):
        report.add("wirelength", abs(routing.total_wirelength - wirelength),
                   f"total_wirelength {routing.total_wirelength} != summed "
                   f"route lengths {wirelength}")
    return report


def _check_tree(report: RoutingReport, name: str, edges, terminals: list[str],
                pins: Mapping[str, set]) -> None:
    """Forest, connected through the terminals' pin nodes, no dangling
    branch."""
    degree: dict = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    groups = connected_groups(edges)
    if len(edges) != len(groups) - len(set(groups.values())):
        report.add("cycle", 1.0, f"net {name}: route edges contain a cycle")

    links = list(edges) + [(("module", m), node) for m in terminals
                           for node in pins[m]]
    groups = connected_groups(links)
    roots = {groups[("module", m)] for m in terminals}
    if len(roots) > 1:
        report.add("disconnected", len(roots) - 1,
                   f"net {name}: route leaves {len(roots)} separate parts")

    pin_nodes = set().union(*(pins[m] for m in terminals)) if terminals \
        else set()
    dangling = [n for n, d in degree.items() if d == 1 and n not in pin_nodes]
    if dangling:
        report.add("dangling", len(dangling),
                   f"net {name}: branch ends {sorted(dangling)[:3]} are not "
                   "terminal pin nodes")


def _check_usage(report: RoutingReport, graph: "ChannelGraph",
                 routing: "RoutingResult", counts: np.ndarray,
                 edge_usage: dict) -> None:
    """Reported usage, graph usage and overflow against the routes."""
    if routing.edge_usage != edge_usage:
        keys = set(routing.edge_usage) | set(edge_usage)
        diff = max(abs(routing.edge_usage.get(k, 0.0) - edge_usage.get(k, 0.0))
                   for k in keys)
        report.add("edge-usage", diff,
                   "edge_usage differs from the wires the routes lay")
    if graph.usage.shape != counts.shape or not np.array_equal(graph.usage,
                                                                counts):
        diff = float(np.max(np.abs(graph.usage - counts))) \
            if graph.usage.shape == counts.shape else math.inf
        report.add("graph-usage", diff,
                   "channel-graph usage differs from the routed wires")
    overflow = sum(np.maximum(0.0, counts - graph.capacity).tolist())
    if not math.isclose(routing.total_overflow, overflow,
                        rel_tol=LENGTH_RTOL, abs_tol=LENGTH_RTOL):
        report.add("overflow", abs(routing.total_overflow - overflow),
                   f"total_overflow {routing.total_overflow} != recomputed "
                   f"{overflow}")
