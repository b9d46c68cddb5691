"""The global router (section 3.2).

"It uses the shortest path algorithm to find a route between two generalized
pins.  It also uses a penalty function for utilization of a channel beyond
its preliminary capacity.  Nets with the tight timing requirements are routed
first."

Two modes, matching Series 3:

* **SHORTEST** — plain shortest paths by geometric length;
* **WEIGHTED** — length scaled by a congestion penalty that grows once a
  channel's usage approaches/exceeds its preliminary capacity, spreading
  wires away from saturated channels.

Multi-pin nets are routed as approximate Steiner trees by iterative nearest-
terminal growth: the tree starts at one module's generalized pins and
repeatedly absorbs the cheapest path to a not-yet-connected module (any of
its four pins), updating channel usage as it goes.
"""

from __future__ import annotations

import heapq
import math
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from repro.core.placement import Placement
from repro.netlist.net import Net
from repro.routing.graph import ChannelGraph
from repro.routing.pins import generalized_pins
from repro.routing.result import NetRoute, RoutingResult


class RouterMode(str, Enum):
    """Routing cost modes of Series 3."""

    SHORTEST = "shortest"
    WEIGHTED = "weighted"


class GlobalRouter:
    """Graph-based global router over a :class:`ChannelGraph`.

    Each connection is a multi-source Dijkstra over integer node ids, whose
    order is the cells' lexicographic ``(i, j)`` order.  Tie-break rule: the
    heap pops in ``(distance, node)`` order and a node is relaxed only on a
    strictly shorter distance.  So of equally near targets the smallest cell
    is connected first, and on equal-cost paths every node keeps the
    predecessor that was popped first.  Edge costs are fixed while a net
    routes (usage is committed once the net is done), so WEIGHTED mode
    computes each net's cost vector once.
    """

    def __init__(self, channel_graph: ChannelGraph,
                 mode: RouterMode = RouterMode.WEIGHTED,
                 congestion_penalty: float = 4.0) -> None:
        """
        Args:
            channel_graph: the routing graph (usage is reset on each
                :meth:`route` call).
            mode: shortest-path or congestion-weighted costs.
            congestion_penalty: weight of the over-utilization penalty in
                WEIGHTED mode.
        """
        self.channel_graph = channel_graph
        self.mode = RouterMode(mode)
        self.congestion_penalty = congestion_penalty

    # -- public API -----------------------------------------------------------------

    def route(self, nets: Sequence[Net],
              placements: Mapping[str, Placement],
              rip_up_rounds: int = 0) -> RoutingResult:
        """Route all nets; timing-critical nets first.

        Args:
            nets: the nets to route.
            placements: placements of every module the nets reference.
            rip_up_rounds: after the initial pass, repeat up to this many
                rip-up-and-reroute rounds: nets crossing over-capacity
                channels are torn out (least-critical first) and re-routed
                against the remaining usage, with a growing congestion
                penalty.  0 keeps the paper's single-pass behaviour.

        Returns:
            The :class:`~repro.routing.result.RoutingResult`.
        """
        graph = self.channel_graph
        graph.reset_usage()

        pin_ids: dict[str, list[int]] = {}
        for name, placement in placements.items():
            ids = {graph.node_id(graph.pin_node(pin))
                   for pin in generalized_pins(placement)}
            pin_ids[name] = sorted(ids)

        # "Nets with the tight timing requirements are routed first"; among
        # equals, short (low-degree) nets first for stable behaviour.
        order = sorted(nets, key=lambda n: (-n.criticality, n.degree, n.name))
        routed: dict[str, list[int]] = {}
        failed: list[str] = []
        for net in order:
            edges = self._route_net(net, pin_ids)
            if edges is None:
                failed.append(net.name)
                continue
            routed[net.name] = edges
            graph.usage[edges] += 1.0

        nets_by_name = {n.name: n for n in order}
        base_penalty = self.congestion_penalty
        try:
            for round_index in range(rip_up_rounds):
                offenders = self._overflowing_nets(routed, nets_by_name)
                if not offenders:
                    break
                # pressure congestion harder each round
                self.congestion_penalty = base_penalty * (2.0 ** (round_index + 1))
                for net in offenders:
                    old = routed.pop(net.name)
                    graph.usage[old] -= 1.0
                    new = self._route_net(net, pin_ids)
                    if new is None:
                        graph.usage[old] += 1.0
                        routed[net.name] = old
                        continue
                    graph.usage[new] += 1.0
                    routed[net.name] = new
        finally:
            self.congestion_penalty = base_penalty

        length = graph.length.tolist()
        nodes, eu, ev = graph.nodes, graph.eu.tolist(), graph.ev.tolist()
        result = RoutingResult(failed_nets=failed)
        for net in order:
            edges = routed.get(net.name)
            if edges is None:
                continue
            pairs = tuple((nodes[eu[e]], nodes[ev[e]]) for e in edges)
            route = NetRoute(net=net.name, edges=pairs,
                             length=sum(length[e] for e in edges),
                             n_terminals=sum(name in pin_ids
                                             for name in net.modules))
            result.routes.append(route)
            result.total_wirelength += route.length
            for key in pairs:
                result.edge_usage[key] = result.edge_usage.get(key, 0.0) + 1.0
        result.total_overflow = graph.total_overflow()
        positive = graph.capacity > 0
        result.max_edge_utilization = float(np.max(
            graph.usage[positive] / graph.capacity[positive])) \
            if positive.any() else 0.0
        return result

    # -- internals ---------------------------------------------------------------------

    def _overflowing_nets(self, routed: Mapping[str, list[int]],
                          nets_by_name: Mapping[str, Net]) -> list[Net]:
        """Nets using at least one over-capacity edge, least critical (and
        longest) first so timing-critical routes keep their paths."""
        graph = self.channel_graph
        hot = graph.usage > graph.capacity + 1e-9
        if not hot.any():
            return []
        length = graph.length.tolist()
        offenders = [nets_by_name[name] for name, edges in routed.items()
                     if hot[edges].any()]
        offenders.sort(key=lambda n: (n.criticality,
                                      -sum(length[e] for e in routed[n.name]),
                                      n.name))
        return offenders

    def _edge_costs(self) -> list[float]:
        """Per-edge cost under the current mode and usage."""
        graph = self.channel_graph
        if self.mode is RouterMode.SHORTEST:
            return graph.length.tolist()
        utilization = (graph.usage + 1.0) / np.maximum(graph.capacity, 1e-9)
        penalty = self.congestion_penalty * np.maximum(0.0, utilization - 1.0)
        return (graph.length * (1.0 + penalty)).tolist()

    def _route_net(self, net: Net,
                   pin_ids: Mapping[str, list[int]]) -> list[int] | None:
        """Grow a Steiner-ish tree over the net's terminals; returns its edge
        ids in the order they were added, or None when unroutable."""
        terminals = [pin_ids[name] for name in net.modules
                     if name in pin_ids]
        if len(terminals) < 2:
            return None

        cost = self._edge_costs()
        tree_nodes: set[int] = set(terminals[0])
        remaining = list(range(1, len(terminals)))
        edges: list[int] = []

        while remaining:
            target_of: dict[int, int] = {}
            for idx in remaining:
                for node in terminals[idx]:
                    target_of.setdefault(node, idx)
            found = self._multi_source_shortest(tree_nodes, target_of, cost)
            if found is None:
                return None
            path, path_edges = found
            connected = target_of[path[-1]]
            remaining.remove(connected)
            edges.extend(path_edges)
            tree_nodes.update(path)
            tree_nodes.update(terminals[connected])

        # Deduplicate edges shared by several branch paths.
        return list(dict.fromkeys(edges))

    def _multi_source_shortest(self, sources: set[int],
                               targets: Mapping[int, int],
                               cost: list[float]
                               ) -> tuple[list[int], list[int]] | None:
        """Dijkstra from all of ``sources`` to the nearest of ``targets``.

        Returns the node path (source ... target) and its edge ids, or None
        when no target is reachable.
        """
        overlap = sources.intersection(targets)
        if overlap:
            return [min(overlap)], []
        adjacency = self.channel_graph.adjacency
        dist = [math.inf] * len(adjacency)
        prev = [-1] * len(adjacency)
        via = [-1] * len(adjacency)
        heap: list[tuple[float, int]] = []
        for s in sources:
            dist[s] = 0.0
            heap.append((0.0, s))
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            d, u = pop(heap)
            if d > dist[u]:
                continue
            if u in targets:
                path, path_edges = [u], []
                while prev[u] >= 0:
                    path_edges.append(via[u])
                    u = prev[u]
                    path.append(u)
                path.reverse()
                path_edges.reverse()
                return path, path_edges
            for v, e in adjacency[u]:
                nd = d + cost[e]
                if nd < dist[v]:
                    dist[v] = nd
                    prev[v] = u
                    via[v] = e
                    push(heap, (nd, v))
        return None
