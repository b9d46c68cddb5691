"""Independent correctness tooling: certificate checking, geometric
validation, and cross-backend differential fuzzing.

Nothing in this package shares arithmetic with the solver backends or the
MILP formulation — that independence is the point.  See
``docs/algorithms.md`` for what is checked and at which tolerances.
"""

from repro.check.certificate import (
    CertificateReport,
    Violation,
    check_certificate,
)
from repro.check.certify import (
    StepCertification,
    certify_floorplan,
    certify_subproblem,
)
from repro.check.eco import check_eco
from repro.check.fuzz import (
    Disagreement,
    FuzzCase,
    FuzzReport,
    compare_encodings,
    compare_results,
    fuzz,
    generate_case,
    generate_model,
    replay_reproducer,
    run_differential,
    shrink_model,
)
from repro.check.geometry import (
    GeometryReport,
    check_cover,
    check_floorplan,
    check_outline,
    check_placements,
    uncovered_area,
)
from repro.check.routing import RoutingReport, check_routing

__all__ = [
    "CertificateReport",
    "Disagreement",
    "FuzzCase",
    "FuzzReport",
    "GeometryReport",
    "StepCertification",
    "RoutingReport",
    "Violation",
    "certify_floorplan",
    "certify_subproblem",
    "check_certificate",
    "check_cover",
    "check_eco",
    "check_floorplan",
    "check_outline",
    "check_placements",
    "check_routing",
    "compare_encodings",
    "compare_results",
    "fuzz",
    "generate_case",
    "generate_model",
    "replay_reproducer",
    "run_differential",
    "shrink_model",
    "uncovered_area",
]
