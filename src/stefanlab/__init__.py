"""Simulation and verification lab for boundary control of a one-phase
melting problem with interface-measurement-only output feedback."""

from .control import output_feedback, qc_ode_residual, state_feedback
from .diagnostics import (
    ConstraintReport,
    LyapunovSample,
    fit_decay_rate,
    h1_norm_sq,
    lyapunov_constants,
    lyapunov_sample,
    monitor_constraints,
)
from .errors import BlowUpError, ConfigurationError, NumericalError
from .observer import (
    ObserverState,
    estimate_interface_velocity,
    init_observer,
    observer_gain,
    step_observer,
)
from .params import (
    PhysicalParams,
    ScenarioConfig,
    ValidationReport,
    lambda_upper_bound,
    setpoint_lower_bound,
    validate_scenario,
)
from .plant import PlantState, init_plant, interface_flux, step_plant
from .runner import SimulationResult, Trace, simulate, simulate_batch
from .specfun import bessel_i1_ratio, bessel_j1_ratio
from .transforms import (
    apply_direct,
    apply_inverse,
    controller_inverse,
    controller_transform,
    kernel_P,
    kernel_Q,
    psi_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "ConfigurationError",
    "ConstraintReport",
    "LyapunovSample",
    "NumericalError",
    "ObserverState",
    "PhysicalParams",
    "PlantState",
    "ScenarioConfig",
    "SimulationResult",
    "Trace",
    "ValidationReport",
    "apply_direct",
    "apply_inverse",
    "bessel_i1_ratio",
    "bessel_j1_ratio",
    "controller_inverse",
    "controller_transform",
    "estimate_interface_velocity",
    "fit_decay_rate",
    "h1_norm_sq",
    "init_observer",
    "init_plant",
    "interface_flux",
    "kernel_P",
    "kernel_Q",
    "lambda_upper_bound",
    "lyapunov_constants",
    "lyapunov_sample",
    "monitor_constraints",
    "observer_gain",
    "output_feedback",
    "psi_kernel",
    "qc_ode_residual",
    "setpoint_lower_bound",
    "simulate",
    "simulate_batch",
    "state_feedback",
    "step_observer",
    "step_plant",
    "validate_scenario",
]
