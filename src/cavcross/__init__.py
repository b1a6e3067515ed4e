"""Time- and energy-optimal coordination of automated vehicles at a
signal-free intersection: closed-form trajectory solves, queue ordering,
and independent verification."""

from .bounds import TerminalWindow, composite_window, lower_speed_control, upper_speed_control
from .coordinator import Coordinator, GuaranteeReport, QueueView, check_guarantees
from .fixtures import FIXTURES, fixture
from .model import (Arc, ConfigError, ConflictMap, CostBreakdown, DomainError,
                    PiecewiseTrajectory, ScenarioConfig, VehicleArrival)
from .sim import (Scenario, SimResult, apply_overrides, load_scenario,
                  run_simulation, write_outputs)
from .solver import (InfeasibleProblem, SolveReport, SolverError, StructureError,
                     plan, scan_violations, solve_lateral, solve_limits,
                     solve_p0_free, solve_p1_fixed, solve_p1_follower, solve_safety)
from .verifier import AuditReport, OracleResult, audit, transcription_oracle

__version__ = "0.1.0"

__all__ = [
    "Arc", "ConfigError", "ConflictMap", "CostBreakdown", "DomainError",
    "PiecewiseTrajectory", "ScenarioConfig", "VehicleArrival", "TerminalWindow",
    "composite_window", "lower_speed_control", "upper_speed_control", "Coordinator",
    "GuaranteeReport", "QueueView", "check_guarantees", "FIXTURES", "fixture",
    "Scenario", "SimResult", "apply_overrides", "load_scenario",
    "run_simulation", "write_outputs", "InfeasibleProblem",
    "SolveReport", "SolverError", "StructureError", "plan",
    "scan_violations", "solve_lateral", "solve_limits", "solve_p0_free",
    "solve_p1_fixed", "solve_p1_follower", "solve_safety", "AuditReport",
    "OracleResult", "audit", "transcription_oracle",
    "__version__",
]
