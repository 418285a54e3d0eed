"""Parameter derivations and the pre-run restriction checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stefanlab.errors import ConfigurationError
from stefanlab.params import (
    PhysicalParams,
    ScenarioConfig,
    lambda_upper_bound,
    setpoint_lower_bound,
    validate_scenario,
)

ZINC = dict(rho=6570.0, cp=389.5687, k=116.0, dh=111.961, tm=692.68)
SCENARIO = dict(
    s0=0.01, H=100.0, Hhat=1000.0, c=0.001, lam=0.001, sr=0.35,
    grid_n=200, dt=0.05, t_end=4500.0,
)

# frozen direct arithmetic: alpha = k/(rho*cp), beta = k/(rho*dh)
ALPHA = 4.5321947519295374e-05
BETA = 1.5769787851627014e-04
LAMBDA_BOUND = 1.6315901106946333
SETPOINT_BOUND = 0.1839751788569234


def zinc_params(**over):
    return PhysicalParams(**{**ZINC, **over})


def scenario(**over):
    return ScenarioConfig(**{**SCENARIO, **over})


def test_zinc_diffusivities_frozen():
    p = zinc_params()
    alpha, beta = p.alpha, p.beta
    assert alpha == pytest.approx(ALPHA, rel=1e-12)
    assert beta == pytest.approx(BETA, rel=1e-12)


def test_unit_parameters_give_unit_diffusivities():
    p = PhysicalParams(rho=1, cp=1, k=1, dh=1, tm=0)
    alpha, beta = p.alpha, p.beta
    assert alpha == 1.0
    assert beta == 1.0


def test_doubling_conductivity_doubles_both():
    p1, p2 = zinc_params(), zinc_params(k=2 * ZINC["k"])
    a1, b1 = p1.alpha, p1.beta
    a2, b2 = p2.alpha, p2.beta
    assert a2 == pytest.approx(2 * a1, rel=1e-14)
    assert b2 == pytest.approx(2 * b1, rel=1e-14)


@pytest.mark.parametrize("field", ["rho", "cp", "k", "dh"])
def test_nonpositive_parameters_rejected(field):
    # 1e-320 is positive and finite, but alpha or beta underflows to 0 or overflows to inf
    for value in (0.0, -1.0, np.inf, np.nan, 1e-320):
        with pytest.raises(ConfigurationError):
            zinc_params(**{field: value})


def test_lambda_bound_frozen():
    assert lambda_upper_bound(scenario(), ALPHA) == pytest.approx(LAMBDA_BOUND, rel=1e-12)


def test_lambda_bound_degenerate_cases():
    assert lambda_upper_bound(scenario(Hhat=SCENARIO["H"]), ALPHA) == 0.0
    full = lambda_upper_bound(scenario(H=0.0), ALPHA)
    assert full == pytest.approx(4 * ALPHA / 0.01**2, rel=1e-14)
    with pytest.raises(ConfigurationError):
        lambda_upper_bound(scenario(Hhat=50.0), ALPHA)


def test_setpoint_bound_frozen():
    assert setpoint_lower_bound(scenario(), ALPHA, BETA) == pytest.approx(
        SETPOINT_BOUND, rel=1e-12
    )


def test_setpoint_bound_approaches_s0_for_flat_estimate():
    assert setpoint_lower_bound(scenario(Hhat=1e-12), ALPHA, BETA) == pytest.approx(
        0.01, rel=1e-9
    )


def test_energy_admissibility_is_below_setpoint_bound():
    """For the linear initial profile, the minimum admissible setpoint from
    the energy balance, s0 + (beta/alpha) * integral of H*(s0-x), equals
    s0 + beta*H*s0^2/(2*alpha) and sits below the estimate-based bound."""
    cfg = scenario()
    xs = np.linspace(0.0, cfg.s0, 20001)
    integral = np.trapezoid(cfg.H * (cfg.s0 - xs), xs)
    energy_bound = cfg.s0 + BETA / ALPHA * integral
    assert energy_bound == pytest.approx(
        cfg.s0 + BETA * cfg.H * cfg.s0**2 / (2 * ALPHA), rel=1e-8
    )
    assert energy_bound < setpoint_lower_bound(cfg, ALPHA, BETA)


def test_validate_zinc_scenario_passes():
    report = validate_scenario(scenario(), zinc_params())
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == ["initial_estimate_shape", "gain_margin", "lambda_bound", "setpoint_bound"]


def test_validate_rejects_large_lambda():
    report = validate_scenario(scenario(lam=2.0), zinc_params())
    assert not report.passed
    assert [c.name for c in report.failures] == ["lambda_bound"]


def test_validate_rejects_small_setpoint():
    report = validate_scenario(scenario(sr=0.05), zinc_params())
    assert not report.passed
    assert [c.name for c in report.failures] == ["setpoint_bound"]


def test_validate_rejects_inverted_slopes():
    report = validate_scenario(scenario(Hhat=50.0), zinc_params())
    failed = {c.name for c in report.failures}
    assert "gain_margin" in failed and "lambda_bound" in failed


def test_validate_is_pure():
    a = validate_scenario(scenario(), zinc_params())
    b = validate_scenario(scenario(), zinc_params())
    assert a == b


def test_lambda_at_bound_rejected_strictly():
    cfg = scenario(lam=LAMBDA_BOUND)
    report = validate_scenario(cfg, zinc_params())
    assert "lambda_bound" in {c.name for c in report.failures}


def test_structural_config_errors():
    for bad in (
        dict(s0=0.0),
        dict(grid_n=4),
        dict(dt=0.0),
        dict(t_end=0.01),
        dict(c=0.0),
        dict(lam=-1e-3),
        dict(mode="bang_bang"),
        dict(checkpoint_every=0),
        dict(domain_cap=0.005),
        dict(t_end=np.inf),
        dict(H=np.nan),
        dict(lam=np.nan),
        dict(domain_cap=np.inf),
    ):
        with pytest.raises(ConfigurationError):
            scenario(**bad)


@given(
    s0=st.floats(min_value=1e-3, max_value=1.0),
    H=st.floats(min_value=0.0, max_value=1e3),
    ratio=st.floats(min_value=1.001, max_value=100.0),
    alpha=st.floats(min_value=1e-7, max_value=1e-3),
    beta=st.floats(min_value=1e-7, max_value=1e-2),
)
@settings(max_examples=100, deadline=None)
def test_bounds_well_ordered_for_valid_configs(s0, H, ratio, alpha, beta):
    cfg = scenario(s0=s0, H=H, Hhat=max(H * ratio, 1e-6), sr=10 * s0)
    assert lambda_upper_bound(cfg, alpha) > 0.0
    assert setpoint_lower_bound(cfg, alpha, beta) > s0
