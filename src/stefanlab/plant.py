"""The true one-phase Stefan system on the moving domain [0, s(t)].

State is the temperature excess u = T - Tm sampled on a uniform normalized
grid xi_i = i/N over [0, s(t)], plus the interface position s(t).  The
interface obeys the local energy balance s' = -beta * u_x(s, t); the heat
flux qc enters at x = 0.
"""

from .errors import BlowUpError


def convection_rate(
    s: float, s_prev: float | None, edge_flux: float, dt: float, beta: float
) -> float:
    """The interface rate entering the convection term of plant and observer:
    the backward difference (s - s_prev)/dt, or on the first step
    -beta*u_x(s) from the plant field's edge flux d(theta)/d(xi) at xi = 1."""
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
