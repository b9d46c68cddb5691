"""Routing parity golden: the paper's Table 3 on ami33, routed and adjusted.

Each of the four Table-3 cells ({no envelopes, envelopes} x {SHORTEST,
WEIGHTED}, around-the-cell, ``highs``) runs the cold floorplan and then
``route_and_adjust``.  The golden pins, for the preliminary and the final
routing pass, every net's routed edges, the total wirelength and overflow,
and the adjusted chip area, so any change to the channel graph, the router's
tie-breaking or the corridor demand shows up as a diff.  One small
rip-up-and-reroute case pins the ``rip_up_rounds`` path.

Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python -m pytest tests/test_routing_golden.py --update-goldens
"""

from __future__ import annotations

import difflib
import functools
import json
from pathlib import Path
from typing import Any

import pytest

from repro.check.routing import check_routing
from repro.core.config import FloorplanConfig
from repro.core.floorplanner import Floorplanner
from repro.core.placement import Placement
from repro.geometry.rect import Rect
from repro.netlist.mcnc import ami33_like
from repro.netlist.module import Module
from repro.netlist.net import Net
from repro.routing.flow import RoutedFloorplan, route_and_adjust
from repro.routing.graph import build_channel_graph
from repro.routing.result import RoutingResult
from repro.routing.router import GlobalRouter, RouterMode
from repro.routing.technology import Technology

GOLDEN_PATH = Path(__file__).parent / "goldens" / "routing_ami33.json"

#: The Table-3 grid: (envelopes, router mode).
CELLS = tuple((envelopes, mode) for envelopes in (False, True)
              for mode in (RouterMode.SHORTEST, RouterMode.WEIGHTED))


def cell_name(envelopes: bool, mode: RouterMode) -> str:
    return f"{'envelopes' if envelopes else 'no_envelopes'}-{mode.value}"


@functools.lru_cache(maxsize=None)
def routed_cell(envelopes: bool, mode: RouterMode) -> RoutedFloorplan:
    """One Table-3 cell: cold floorplan, then route and adjust (memoized so
    the golden and the certificate tests share the runs)."""
    netlist = ami33_like()
    technology = Technology.around_the_cell()
    config = FloorplanConfig(seed_size=6, group_size=4,
                             subproblem_time_limit=20.0, solve_cache=False,
                             use_envelopes=envelopes, technology=technology)
    plan = Floorplanner(netlist, config).run()
    return route_and_adjust(plan.placements, plan.chip, netlist, technology,
                            mode=mode)


def congested_rip_up() -> tuple[RoutingResult, Any, dict, list[Net]]:
    """Twenty nets through one bottleneck, two rip-up rounds."""
    placements = {
        "a": Placement(Module.rigid("a", 4, 8), Rect(0, 0, 4, 8)),
        "b": Placement(Module.rigid("b", 4, 8), Rect(6, 0, 4, 8)),
    }
    tech = Technology.around_the_cell(pitch_h=1.0, pitch_v=1.0)
    nets = [Net(f"n{i}", ("a", "b")) for i in range(20)]
    graph = build_channel_graph(list(placements.values()), Rect(0, 0, 10, 8),
                                tech, ring_width=2.0)
    result = GlobalRouter(graph, mode=RouterMode.WEIGHTED).route(
        nets, placements, rip_up_rounds=2)
    return result, graph, placements, nets


def _num(value: float) -> float:
    rounded = round(value, 9)
    return 0.0 if rounded == 0.0 else rounded


def _routing_doc(routing: RoutingResult) -> dict[str, Any]:
    return {
        "total_wirelength": _num(routing.total_wirelength),
        "total_overflow": _num(routing.total_overflow),
        "max_edge_utilization": _num(routing.max_edge_utilization),
        "failed_nets": list(routing.failed_nets),
        # routing order, one compact line per net
        "routes": [f"{r.net} {_num(r.length)} "
                   + " ".join(f"{u[0]},{u[1]}-{v[0]},{v[1]}"
                              for u, v in r.edges)
                   for r in routing.routes],
    }


def golden_document() -> str:
    cells = {}
    for envelopes, mode in CELLS:
        routed = routed_cell(envelopes, mode)
        adjustment = routed.adjustment
        cells[cell_name(envelopes, mode)] = {
            "preliminary": _routing_doc(routed.preliminary_routing),
            "final": _routing_doc(routed.routing),
            "adjusted_chip_area": _num(adjustment.chip_area),
            "channel_demands": [f"{a} {b} {axis} {_num(d)}" for (a, b, axis), d
                                in sorted(adjustment.channel_demands.items())],
            "chip_area": _num(routed.chip_area),
            "wirelength": _num(routed.wirelength),
        }
    rip_up, *_ = congested_rip_up()
    doc = {"table3_ami33": cells, "rip_up_rounds_2": _routing_doc(rip_up)}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_routing_golden(update_goldens: bool) -> None:
    text = golden_document()
    if update_goldens:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(text)
        pytest.skip(f"rewrote {GOLDEN_PATH}")
    if not GOLDEN_PATH.exists():
        pytest.fail(f"golden file {GOLDEN_PATH} is missing; run pytest with "
                    "--update-goldens and commit the result")
    expected = GOLDEN_PATH.read_text()
    if text != expected:
        diff = "\n".join(difflib.unified_diff(
            expected.splitlines(), text.splitlines(),
            fromfile="goldens/routing_ami33.json (committed)",
            tofile="goldens/routing_ami33.json (this run)", lineterm="", n=2))
        pytest.fail("routing drifted from the committed golden.\n" + diff[:20000])


@pytest.mark.parametrize("envelopes,mode", CELLS,
                         ids=[cell_name(*cell) for cell in CELLS])
def test_table3_cell_routing_certifies(envelopes: bool,
                                       mode: RouterMode) -> None:
    """The final routing of every Table-3 cell passes the independent
    routing certificate."""
    routed = routed_cell(envelopes, mode)
    report = check_routing(routed.graph, routed.routing, ami33_like().nets,
                           routed.placements)
    assert report.ok, [v.detail for v in report.violations[:5]]
    assert report.n_routes == len(ami33_like().nets)


def test_rip_up_routing_certifies() -> None:
    result, graph, placements, nets = congested_rip_up()
    assert check_routing(graph, result, nets, placements).ok
