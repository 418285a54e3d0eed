"""Material parameters, scenario configuration, and the pre-run restriction checks.

The observer and output-feedback stability guarantees only hold when the
scenario satisfies three restrictions: the initial temperature estimate is the linear profile with slope
``Hhat > H``, the observer gain ``lam`` stays strictly below
``(4*alpha/s0**2) * (1 - H/Hhat)``, and the setpoint exceeds
``s0 + beta*s0**2*Hhat/(2*alpha)``.  ``validate_scenario`` evaluates all of
them and reports the computed bounds; it never raises.
"""

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import ConfigurationError

MODES = ("output_feedback", "state_feedback")


def _require_finite(obj) -> None:
    """Reject an infinite or NaN float field of obj, named by its config key."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            key = "lambda" if f.name == "lam" else f.name
            raise ConfigurationError(f"{key} must be finite")


@dataclass(frozen=True)
class PhysicalParams:
    """Material constants of the liquid phase.

    rho: density (kg/m^3)
    cp:  heat capacity (J/(kg K))
    k:   thermal conductivity (W/(m K))
    dh:  latent heat of fusion
    tm:  melting temperature (K)
    """

    rho: float
    cp: float
    k: float
    dh: float
    tm: float

    def __post_init__(self):
        _require_finite(self)
        for name in ("rho", "cp", "k", "dh"):
            if not getattr(self, name) > 0.0:
                raise ConfigurationError(f"{name} must be strictly positive")
        # alpha and beta divide by rho*cp and rho*dh, which may underflow to 0
        divisors = self.rho * self.cp > 0.0 and self.rho * self.dh > 0.0
        if not (divisors and 0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf):
            raise ConfigurationError("derived alpha and beta must be finite and positive")

    # computed once per instance: the engine reads both on every step
    @cached_property
    def alpha(self) -> float:
        """Thermal diffusivity k/(rho*cp), m^2/s."""
        return self.k / (self.rho * self.cp)

    @cached_property
    def beta(self) -> float:
        """Stefan-condition coefficient k/(rho*dh)."""
        return self.k / (self.rho * self.dh)


@dataclass(frozen=True)
class ScenarioConfig:
    """One closed-loop scenario.

    Structural sanity (finite numbers, positivity, grid size, time step) is
    enforced at construction.  The stability restrictions are deliberately
    *not* enforced here so that degenerate scenarios (e.g. ``Hhat == H`` with
    ``lam == 0``, used to cross-check the two feedback laws) remain
    constructible; the CLI gates runs on :func:`validate_scenario` instead.

    s0:    initial interface position (m)
    H:     bound on the initial temperature slope (K/m)
    Hhat:  slope of the initial temperature estimate (K/m)
    c:     controller gain (1/s)
    lam:   observer gain (1/s); config-file key is ``lambda``
    sr:    interface setpoint (m)
    grid_n: number of grid intervals in the normalized coordinate
    dt:    time step (s)
    t_end: simulation horizon (s)
    """

    s0: float
    H: float
    Hhat: float
    c: float
    lam: float
    sr: float
    grid_n: int
    dt: float
    t_end: float
    mode: str = "output_feedback"
    checkpoint_every: int = 50
    domain_cap: float | None = None

    def __post_init__(self):
        _require_finite(self)
        if not self.s0 > 0.0:
            raise ConfigurationError("s0 must be strictly positive")
        if self.grid_n < 8:
            raise ConfigurationError("grid_n must be at least 8")
        if not self.dt > 0.0:
            raise ConfigurationError("dt must be strictly positive")
        if not self.t_end > self.dt:
            raise ConfigurationError("t_end must exceed dt")
        # each column of the trace is its own array of 8 bytes a row
        steps = self.t_end / self.dt
        if math.isinf(steps) or self.rows * 8 > np.iinfo(np.intp).max:
            raise ConfigurationError("t_end/dt is too large: the trace cannot be addressed")
        # t_end, dt and their quotient are each rounded once, which moves a
        # whole number of steps by under 3 units in its last place
        if abs(steps - round(steps)) > 4.0 * math.ulp(steps):
            raise ConfigurationError(
                f"t_end must be a whole number of steps dt: t_end/dt = {steps:.17g}"
            )
        if self.H < 0.0 or self.Hhat < 0.0:
            raise ConfigurationError("H and Hhat must be nonnegative")
        if not self.c > 0.0:
            raise ConfigurationError("controller gain c must be strictly positive")
        if self.lam < 0.0:
            raise ConfigurationError("observer gain lambda must be nonnegative")
        if not self.sr > 0.0:
            raise ConfigurationError("setpoint sr must be strictly positive")
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}")
        if self.checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be at least 1")
        if self.domain_cap is not None and not self.domain_cap > self.s0:
            raise ConfigurationError("domain_cap must exceed s0")

    @property
    def rows(self) -> int:
        """Rows of the run's trace, one per time level 0, dt, ..., t_end
        (t_end/dt is a whole number up to rounding)."""
        return int(round(self.t_end / self.dt)) + 1


def lambda_upper_bound(cfg: ScenarioConfig, alpha: float) -> float:
    """Strict upper bound on the observer gain, (4*alpha/s0^2)*(1 - H/Hhat).

    ``Hhat == H`` yields 0 (every positive gain rejected); ``Hhat < H`` is a
    configuration error.
    """
    if cfg.Hhat < cfg.H:
        raise ConfigurationError("Hhat must not be below H")
    # H == Hhat == 0 by the check above degenerates the shape factor to 1
    shape = 1.0 if cfg.Hhat == 0.0 else 1.0 - cfg.H / cfg.Hhat
    # s0*s0, not s0**2, which raises past the float range
    s0_sq = cfg.s0 * cfg.s0
    if not (shape and s0_sq):
        return math.inf if shape else 0.0
    return (4.0 * alpha / s0_sq) * shape


def setpoint_lower_bound(cfg: ScenarioConfig, alpha: float, beta: float) -> float:
    """Strict lower bound on the setpoint, s0 + beta*s0^2*Hhat/(2*alpha)."""
    return cfg.s0 + beta * (cfg.s0 * cfg.s0) * cfg.Hhat / (2.0 * alpha)


@dataclass(frozen=True)
class RestrictionCheck:
    name: str
    passed: bool
    value: float | None = None
    bound: float | None = None
    detail: str = ""

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = [f"{self.name}: {status}"]
        if self.value is not None:
            parts.append(f"value={self.value:.6g}")
        if self.bound is not None:
            parts.append(f"bound={self.bound:.6g}")
        if self.detail:
            parts.append(self.detail)
        return "  ".join(parts)


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[RestrictionCheck, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[RestrictionCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def format(self) -> str:
        lines = [c.format() for c in self.checks]
        lines.append("validation: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def validate_scenario(cfg: ScenarioConfig, p: PhysicalParams) -> ValidationReport:
    """Check every restriction the feedback design imposes; pure, never raises.

    All bounds are strict, with no tolerance slack: users who want margin add
    it in the config.
    """
    checks = []
    alpha, beta = p.alpha, p.beta

    shape_ok = cfg.Hhat > 0.0
    checks.append(
        RestrictionCheck(
            name="initial_estimate_shape",
            passed=shape_ok,
            value=cfg.Hhat,
            detail="initial estimate is the linear profile Hhat*(s0 - x)",
        )
    )

    margin_ok = cfg.Hhat > cfg.H
    checks.append(
        RestrictionCheck(
            name="gain_margin",
            passed=margin_ok,
            value=cfg.Hhat,
            bound=cfg.H,
            detail="requires Hhat > H",
        )
    )

    try:
        lam_bound = lambda_upper_bound(cfg, alpha)
        lam_ok = cfg.lam < lam_bound
        lam_detail = "requires lambda < (4*alpha/s0^2)*(1 - H/Hhat)"
    except ConfigurationError as exc:
        lam_bound = None
        lam_ok = False
        lam_detail = str(exc)
    checks.append(
        RestrictionCheck(
            name="lambda_bound",
            passed=lam_ok,
            value=cfg.lam,
            bound=lam_bound,
            detail=lam_detail,
        )
    )

    sr_bound = setpoint_lower_bound(cfg, alpha, beta)
    checks.append(
        RestrictionCheck(
            name="setpoint_bound",
            passed=cfg.sr > sr_bound,
            value=cfg.sr,
            bound=sr_bound,
            detail="requires sr > s0 + beta*s0^2*Hhat/(2*alpha)",
        )
    )

    return ValidationReport(checks=tuple(checks))
