"""Front-fixed Stefan solver: boundary handling, conservation, convergence."""

import math

import numpy as np
import pytest

from stefanlab.control import field_energy
from stefanlab.errors import BlowUpError
from stefanlab.params import PhysicalParams, ScenarioConfig
from stefanlab.runner import initial_fields

from oracles import PlantState, interface_flux, step_plant

P = PhysicalParams(rho=6570.0, cp=389.5687, k=116.0, dh=111.961, tm=692.68)


def cfg_for(n=200, dt=0.05, H=100.0, s0=0.01, t_end=10.0):
    return ScenarioConfig(
        s0=s0, H=H, Hhat=H, c=1.0, lam=0.0, sr=0.35, grid_n=n, dt=dt, t_end=t_end,
        mode="state_feedback",
    )


def _initial_plant(cfg):
    return PlantState(t=0.0, s=cfg.s0, theta=initial_fields(cfg)[0])


def test_init_linear_profile():
    # the initial extent, s0, is checked on the engine's trace in test_runner
    theta = initial_fields(cfg_for(n=8))[0]
    expected = [1.0, 0.875, 0.75, 0.625, 0.5, 0.375, 0.25, 0.125, 0.0]
    assert np.allclose(theta, expected, rtol=0, atol=1e-15)
    assert theta[-1] == 0.0


def test_init_zero_slope():
    assert np.all(initial_fields(cfg_for(n=16, H=0.0))[0] == 0.0)


def test_equilibrium_is_fixed_point():
    st = _initial_plant(cfg_for(n=32, H=0.0))
    nxt = step_plant(st, 0.0, 0.1, P)
    assert np.all(nxt.theta == 0.0)
    assert nxt.s == st.s


def test_interface_flux_linear_profile():
    st = _initial_plant(cfg_for(n=64, H=123.0))
    assert interface_flux(st) == pytest.approx(-123.0, rel=1e-12)


def test_interface_flux_zero_profile():
    st = _initial_plant(cfg_for(n=64, H=0.0))
    assert interface_flux(st) == 0.0


def test_interface_flux_quadratic_exact():
    # u = (s - x)^2 has u_x(s) = 0; the 3-point stencil is exact on quadratics
    n, s = 32, 0.02
    xi = np.linspace(0.0, 1.0, n + 1)
    theta = (s - xi * s) ** 2
    st = PlantState(t=0.0, s=s, theta=theta)
    assert interface_flux(st) == pytest.approx(0.0, abs=1e-18)


def test_flux_matched_step_melts_at_beta_a():
    """With qc = k*A the linear profile A*(s-x) satisfies the flux condition
    exactly and the interface advances at rate beta*A; the deviation comes
    from the profile deforming over one step and vanishes with dt."""
    A = 100.0
    cfg = cfg_for(n=200, dt=1e-5)
    st = _initial_plant(cfg)
    nxt = step_plant(st, P.k * A, cfg.dt, P)
    sdot = (nxt.s - st.s) / cfg.dt
    assert sdot == pytest.approx(P.beta * A, rel=0.01)


def test_dirichlet_node_pinned_every_step():
    cfg = cfg_for(n=64, dt=0.05)
    st = _initial_plant(cfg)
    for _ in range(50):
        st = step_plant(st, 80.0, cfg.dt, P)
        assert st.theta[-1] == 0.0


def test_positive_heat_gives_monotone_interface_and_nonnegative_field():
    cfg = cfg_for(n=128, dt=0.05)
    st = _initial_plant(cfg)
    eps = (1.0 / cfg.grid_n) ** 2 + cfg.dt
    s_prev = st.s
    for _ in range(200):
        st = step_plant(st, 50.0, cfg.dt, P)
        assert st.s > s_prev
        assert st.theta.min() >= -eps
        s_prev = st.s


def test_single_step_energy_balance():
    """One-step defect of the energy identity shrinks superlinearly in dt
    (dt^2 plus a dt*dxi^2 component); run-level order tests pin the rates."""
    qc = P.k * 100.0  # flux-matched, smooth start

    def defect(dt):
        cfg = cfg_for(n=200, dt=dt)
        st = _initial_plant(cfg)
        e0 = field_energy(st.theta, st.s, P)
        nxt = step_plant(st, qc, cfg.dt, P)
        return abs((field_energy(nxt.theta, nxt.s, P) - e0) - cfg.dt * qc / P.k)

    d_coarse, d_fine = defect(1e-4), defect(1e-5)
    assert d_fine < 0.25 * d_coarse
    assert d_fine < 5e-3 * (1e-5 * qc / P.k)


def test_blow_up_on_interface_collapse():
    # strong cooling shrinks the melt; the solver must refuse s <= 0
    cfg = cfg_for(n=32, dt=0.5, H=1.0, s0=1e-3, t_end=1e3)
    st = _initial_plant(cfg)
    with pytest.raises(BlowUpError):
        for _ in range(2000):
            st = step_plant(st, -5e4, cfg.dt, P)


def test_blow_up_on_domain_cap():
    cfg = cfg_for(n=32, dt=0.5, t_end=1e3)
    st = _initial_plant(cfg)
    with pytest.raises(BlowUpError):
        for _ in range(2000):
            st = step_plant(st, 1e7, cfg.dt, P, domain_cap=0.02)


def _conservation_residual(n, dt, t_total, signed=False):
    cfg = cfg_for(n=n, dt=dt, t_end=max(t_total, 2 * dt))
    st = _initial_plant(cfg)
    qc = P.k * cfg.H
    e0 = field_energy(st.theta, st.s, P)
    steps = int(round(t_total / dt))
    for _ in range(steps):
        st = step_plant(st, qc, dt, P)
    r = (field_energy(st.theta, st.s, P) - e0) - qc * steps * dt / P.k
    return r if signed else abs(r)


def test_conservation_first_order_in_dt():
    vals = {dt: _conservation_residual(400, dt, 8.0) for dt in (0.2, 0.1, 0.05)}
    orders = [
        math.log2(vals[a] / vals[b]) for a, b in ((0.2, 0.1), (0.1, 0.05))
    ]
    assert min(orders) >= 0.9


def test_conservation_second_order_in_grid():
    # Richardson-extrapolate the dt error away, then fit the grid order
    xi_part = {}
    for n in (8, 16, 32):
        r1 = _conservation_residual(n, 2e-4, 0.5, signed=True)
        r2 = _conservation_residual(n, 1e-4, 0.5, signed=True)
        xi_part[n] = abs(2 * r2 - r1)
    orders = [
        math.log2(xi_part[8] / xi_part[16]),
        math.log2(xi_part[16] / xi_part[32]),
    ]
    assert min(orders) >= 1.9
