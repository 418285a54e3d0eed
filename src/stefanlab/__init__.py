"""Simulation and verification lab for boundary control of a one-phase
melting problem with interface-measurement-only output feedback."""

from .diagnostics import (
    ConstraintReport,
    RunSummary,
    h1_norm_sq,
    lyapunov_constants,
    monitor_constraints,
)
from .errors import BlowUpError, ConfigurationError, NumericalError
from .params import (
    PhysicalParams,
    ScenarioConfig,
    ValidationReport,
    lambda_upper_bound,
    setpoint_lower_bound,
    validate_scenario,
)
from .runner import SimulationResult, Trace, simulate, simulate_batch
from .transforms import (
    apply_direct,
    apply_inverse,
    controller_inverse,
    controller_transform,
    psi_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "ConfigurationError",
    "ConstraintReport",
    "NumericalError",
    "PhysicalParams",
    "RunSummary",
    "ScenarioConfig",
    "SimulationResult",
    "Trace",
    "ValidationReport",
    "apply_direct",
    "apply_inverse",
    "controller_inverse",
    "controller_transform",
    "h1_norm_sq",
    "lambda_upper_bound",
    "lyapunov_constants",
    "monitor_constraints",
    "psi_kernel",
    "setpoint_lower_bound",
    "simulate",
    "simulate_batch",
    "validate_scenario",
]
