"""Simulation and verification lab for boundary control of a one-phase
melting problem with interface-measurement-only output feedback."""

from .control import qc_ode_residual
from .diagnostics import (
    ConstraintReport,
    LyapunovSample,
    RunSummary,
    fit_decay_rate,
    h1_norm_sq,
    lyapunov_constants,
    lyapunov_sample,
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
    "LyapunovSample",
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
    "fit_decay_rate",
    "h1_norm_sq",
    "lambda_upper_bound",
    "lyapunov_constants",
    "lyapunov_sample",
    "monitor_constraints",
    "psi_kernel",
    "qc_ode_residual",
    "setpoint_lower_bound",
    "simulate",
    "simulate_batch",
    "validate_scenario",
]
