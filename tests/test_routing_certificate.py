"""Mutation tests for the routing certificate (``repro.check.routing``).

A baseline routing certifies; each mutant class — a dropped edge, a
phantom edge, stale usage, a wrong length or total — must be rejected by
the check that names it.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.check.routing import check_routing, connected_groups
from repro.core.placement import Placement
from repro.geometry.rect import Rect
from repro.netlist.module import Module
from repro.netlist.net import Net
from repro.routing.graph import build_channel_graph
from repro.routing.router import GlobalRouter, RouterMode
from repro.routing.technology import Technology


@pytest.fixture
def routed():
    """Four modules, five nets (one three-terminal), routed WEIGHTED."""
    placements = {
        name: Placement(Module.rigid(name, w, h), Rect(x, y, w, h))
        for name, (x, y, w, h) in {
            "a": (0, 0, 4, 3), "b": (7, 0, 3, 5),
            "c": (0, 6, 5, 3), "d": (8, 7, 2, 3)}.items()}
    nets = [Net("n1", ("a", "b")), Net("n2", ("a", "d")),
            Net("n3", ("b", "c", "d")), Net("n4", ("c", "b")),
            Net("n5", ("a", "c"), criticality=0.5)]
    graph = build_channel_graph(list(placements.values()), Rect(0, 0, 10, 10),
                                Technology.around_the_cell(pitch_h=0.5,
                                                           pitch_v=0.5))
    result = GlobalRouter(graph, mode=RouterMode.WEIGHTED).route(
        nets, placements)
    return graph, result, nets, placements


def _names(report) -> set[str]:
    return {v.name for v in report.violations}


def _longest(result):
    return max(range(len(result.routes)),
               key=lambda k: len(result.routes[k].edges))


def test_connected_groups_union_find():
    groups = connected_groups([(1, 2), (2, 3), (4, 5)])
    assert groups[1] == groups[2] == groups[3]
    assert groups[4] == groups[5] != groups[1]


def test_baseline_certifies(routed):
    graph, result, nets, placements = routed
    report = check_routing(graph, result, nets, placements)
    assert report.ok, [v.detail for v in report.violations]
    assert report.n_routes == len(nets)
    assert report.n_edges == sum(len(r.edges) for r in result.routes)


def test_dropped_edge_is_rejected(routed):
    graph, result, nets, placements = routed
    mutant = copy.deepcopy(result)
    k = _longest(mutant)
    route = mutant.routes[k]
    assert len(route.edges) >= 3
    mutant.routes[k] = dataclasses.replace(
        route, edges=route.edges[:1] + route.edges[2:])
    assert {"graph-usage", "edge-usage", "length"} <= _names(
        check_routing(graph, mutant, nets, placements))


def test_dropped_edge_with_consistent_bookkeeping_is_rejected(routed):
    """The tree checks alone catch a gap even when every count and length
    was patched to match the mutated route."""
    graph, result, nets, placements = routed
    mutant = copy.deepcopy(result)
    k = _longest(mutant)
    route = mutant.routes[k]
    (u, v) = route.edges[len(route.edges) // 2]
    e = graph.edge_id(u, v)
    mutant.routes[k] = dataclasses.replace(
        route, edges=tuple(x for x in route.edges if x != (u, v)),
        length=route.length - float(graph.length[e]))
    mutant.total_wirelength -= float(graph.length[e])
    mutant.edge_usage[(u, v)] -= 1.0
    if mutant.edge_usage[(u, v)] == 0.0:
        del mutant.edge_usage[(u, v)]
    graph.usage[e] -= 1.0
    names = _names(check_routing(graph, mutant, nets, placements))
    assert names & {"disconnected", "dangling"}
    assert not names & {"graph-usage", "edge-usage", "length", "wirelength"}


def test_phantom_edge_is_rejected(routed):
    graph, result, nets, placements = routed
    mutant = copy.deepcopy(result)
    route = mutant.routes[0]
    # two free cells that are not grid neighbors
    phantom = (graph.nodes[0], graph.nodes[-1])
    assert not graph.has_edge(*phantom)
    mutant.routes[0] = dataclasses.replace(
        route, edges=route.edges + (phantom,))
    assert "phantom-edge" in _names(
        check_routing(graph, mutant, nets, placements))


def test_stale_graph_usage_is_rejected(routed):
    graph, result, nets, placements = routed
    graph.usage[0] += 1.0
    assert "graph-usage" in _names(
        check_routing(graph, result, nets, placements))


def test_stale_edge_usage_is_rejected(routed):
    graph, result, nets, placements = routed
    mutant = copy.deepcopy(result)
    key = next(iter(mutant.edge_usage))
    mutant.edge_usage[key] += 1.0
    assert _names(check_routing(graph, mutant, nets, placements)) \
        == {"edge-usage"}


def test_wrong_length_is_rejected(routed):
    graph, result, nets, placements = routed
    mutant = copy.deepcopy(result)
    mutant.routes[0] = dataclasses.replace(
        mutant.routes[0], length=mutant.routes[0].length + 1.0)
    assert "length" in _names(check_routing(graph, mutant, nets, placements))


def test_wrong_totals_are_rejected(routed):
    graph, result, nets, placements = routed
    mutant = copy.deepcopy(result)
    mutant.total_wirelength += 0.5
    mutant.total_overflow += 1.0
    assert {"wirelength", "overflow"} <= _names(
        check_routing(graph, mutant, nets, placements))


def test_missing_net_is_rejected(routed):
    graph, result, nets, placements = routed
    mutant = copy.deepcopy(result)
    mutant.routes.pop()
    assert "missing-net" in _names(
        check_routing(graph, mutant, nets, placements))
