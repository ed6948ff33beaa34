"""Affine hybrid automata: modeling, format translation, flowpipe
reachability, and event-driven simulation, with four built-in benchmarks."""

from .config import ParsedConfig, emit_config, parse_config
from .corpus import (
    BenchmarkId,
    build,
    build_bouncing_ball,
    build_linswitch,
    build_platoon,
    build_tank,
)
from .errors import HyraError
from .expressions import parse_condition, parse_expression
from .flowstar import emit_flowstar
from .interchange import read_json, write_json
from .ir import (
    AffineDynamics,
    Condition,
    HybridAutomaton,
    InitialCondition,
    LinearConstraint,
    Location,
    ModelBundle,
    ReachSettings,
    ResetMap,
    Transition,
    VariableTable,
    bind_constant,
    validate,
)
from .reach import ReachResult, Termination, Verdict, check_safety, reach
from .sets import Box, Zonotope, matrix_exponential
from .simulate import Integrator, SimOptions, Trajectory, sample_initial, simulate
from .spaceex import emit_spaceex, parse_assignment, parse_flow, parse_spaceex

__version__ = "0.1.0"

__all__ = [
    "AffineDynamics",
    "BenchmarkId",
    "Box",
    "Condition",
    "HybridAutomaton",
    "HyraError",
    "InitialCondition",
    "Integrator",
    "LinearConstraint",
    "Location",
    "ModelBundle",
    "ParsedConfig",
    "ReachResult",
    "ReachSettings",
    "ResetMap",
    "SimOptions",
    "Termination",
    "Trajectory",
    "Transition",
    "VariableTable",
    "Verdict",
    "Zonotope",
    "bind_constant",
    "build",
    "build_bouncing_ball",
    "build_linswitch",
    "build_platoon",
    "build_tank",
    "check_safety",
    "emit_config",
    "emit_flowstar",
    "emit_spaceex",
    "matrix_exponential",
    "parse_assignment",
    "parse_condition",
    "parse_config",
    "parse_expression",
    "parse_flow",
    "parse_spaceex",
    "reach",
    "read_json",
    "sample_initial",
    "simulate",
    "validate",
    "write_json",
]
