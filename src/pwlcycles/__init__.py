"""Limit cycles of planar two-zone piecewise linear systems.

Analytic construction (closed-form flows, crossing times, displacement
function), non-sliding certification, cycle finding and classification,
an independent event-detecting integrator for cross-validation, and SVG
phase portraits.
"""

from .core import (
    Boundary,
    DomainError,
    EvaluationError,
    HypothesisError,
    IntegrationError,
    ParameterError,
    Point,
    PWLError,
    PWLSystem,
    SystemParams,
    TangencyError,
    Zone,
    manifold_value,
    system_descriptor,
    vector_field,
)
from .analytic import (
    crossing_time_left,
    crossing_time_right,
    delta,
    displacement,
    displacement_f3_at_root,
    flow,
    left_exit_y,
    right_entry_y,
)
from .hypotheses import (
    HypothesisReport,
    check_boundary_hypotheses,
    check_matrix_hypotheses,
    check_transversality,
    geometric_grid,
)
from .families import (
    boundary_from_descriptor,
    make_cosine,
    make_oscillatory,
    make_sine,
    make_table,
    make_zero,
    oscillatory_root,
    system_from_descriptor,
)
from .cycles import (
    CycleReport,
    CycleSearchResult,
    RootScan,
    StabilityClass,
    classify,
    find_limit_cycles,
    find_roots,
    reports_for_roots,
)
from .oracle import (
    ReturnMapResult,
    TerminalEvent,
    TrajectorySegment,
    integrate_in_zone,
    numeric_displacement,
    resolve_stability,
    return_map,
)
from .portrait import render, sample_orbit

__version__ = "0.1.0"
