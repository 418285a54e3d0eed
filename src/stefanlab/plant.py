"""The true one-phase Stefan system on the moving domain [0, s(t)].

State is the temperature excess u = T - Tm sampled on a uniform normalized
grid xi_i = i/N over [0, s(t)], plus the interface position s(t).  The
interface obeys the local energy balance s' = -beta * u_x(s, t); the heat
flux qc enters at x = 0.
"""

from dataclasses import dataclass

import numpy as np

from ._scheme import advance_field, one_sided_edge_flux
from .errors import BlowUpError, NumericalError
from .params import PhysicalParams, ScenarioConfig


@dataclass(frozen=True)
class PlantState:
    """t: time (s); s: interface position (m); theta: u samples on the xi-grid.

    s_prev holds the interface position one step earlier, so the next step's
    explicit convection term can use the backward-difference rate
    (s - s_prev)/dt -- the same expression the observer forms from its
    measurements.  None marks the initial state, where the rate comes from
    the initial profile's interface flux instead.
    """

    t: float
    s: float
    theta: np.ndarray
    s_prev: float | None = None


def init_plant(cfg: ScenarioConfig) -> PlantState:
    """Initial state: s = s0 and the linear profile u = H*(s0 - x)."""
    xi = np.linspace(0.0, 1.0, cfg.grid_n + 1)
    theta = cfg.H * cfg.s0 * (1.0 - xi)
    theta[-1] = 0.0
    return PlantState(t=0.0, s=cfg.s0, theta=theta)


def interface_flux(st: PlantState) -> float:
    """u_x at x = s(t), one-sided second-order difference scaled by 1/s."""
    dxi = 1.0 / (st.theta.size - 1)
    return one_sided_edge_flux(st.theta, dxi) / st.s


def convection_rate(
    s: float, s_prev: float | None, edge_flux: float, dt: float, beta: float
) -> float:
    """The interface rate entering the plant's convection term: the
    backward difference (s - s_prev)/dt, or on the first step -beta*u_x(s)
    from the current field's edge flux d(theta)/d(xi) at xi = 1."""
    if s_prev is None:
        return -beta * (edge_flux / s)
    return (s - s_prev) / dt


def advance_interface(
    s: float,
    edge_flux: float,
    t_new: float,
    dt: float,
    beta: float,
    domain_cap: float | None = None,
) -> float:
    """Stefan update s+ = s + dt * (-beta) * u_x(s), where u_x(s) is the new
    field's edge flux d(theta)/d(xi) at xi = 1 divided by the old extent s.

    Raises BlowUpError if the interface collapses or reaches 95% of the
    domain cap; t_new only labels the message.
    """
    s_new = s + dt * (-beta * (edge_flux / s))
    if s_new <= 0.0:
        raise BlowUpError(f"interface collapsed: s = {s_new:.6g} at t = {t_new:.6g}")
    if domain_cap is not None and s_new >= 0.95 * domain_cap:
        raise BlowUpError(
            f"interface reached the domain cap: s = {s_new:.6g} at t = {t_new:.6g}"
        )
    return s_new


def step_plant(
    st: PlantState,
    qc: float,
    dt: float,
    p: PhysicalParams,
    domain_cap: float | None = None,
) -> PlantState:
    """Advance one step: implicit diffusion, explicit convection with the
    previous step's interface rate, then the Stefan update
    s+ = s + dt * (-beta) * u_x(s) with the flux evaluated on the new field.

    Assumes a fixed dt across steps (the backward-difference rate divides by
    the current dt).  Raises BlowUpError if the interface collapses or
    reaches 95% of the domain cap, NumericalError if the solve fails.
    """
    dxi = 1.0 / (st.theta.size - 1)
    rate = convection_rate(st.s, st.s_prev, one_sided_edge_flux(st.theta, dxi), dt, p.beta)
    stack, failed = advance_field(
        st.theta[np.newaxis, np.newaxis], (st.s,), ((rate,),), (qc,), dt, (p.alpha,), (p.k,)
    )
    if failed:
        raise NumericalError(failed[0])
    theta_new = stack[0, 0]
    t_new = st.t + dt
    s_new = advance_interface(
        st.s, one_sided_edge_flux(theta_new, dxi), t_new, dt, p.beta, domain_cap
    )
    return PlantState(t=t_new, s=s_new, theta=theta_new, s_prev=st.s)
