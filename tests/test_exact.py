"""The one-row plant oracle against an exact solution of the one-phase
Stefan problem: the travelling wave

    u(x, t) = (alpha/beta) * (exp((v/alpha) * (s(t) - x)) - 1),  s(t) = s0 + v*t,

driven by the flux qc(t) = k*(v/beta)*exp((v/alpha)*s(t)) that it imposes at
x = 0.  The scheme is first order in dt, and at these grids its space error
is far below its time error, so halving 1/N and dt together halves both
errors."""

import math

import numpy as np
import pytest

from oracles import PlantState, step_plant

S0, V, T_END = 0.01, 1e-4, 200.0  # m, m/s, s

# (N, dt) -> (|s - s_exact|, max|theta - u|) at T_END on zinc, in m and K
MEASURED = {
    (50, 0.2): (6.242e-7, 1.302e-5),
    (100, 0.1): (3.142e-7, 6.508e-6),
    (200, 0.05): (1.576e-7, 3.253e-6),
}


def _wave_errors(p, n: int, dt: float) -> tuple[float, float]:
    alpha, beta = p.alpha, p.beta

    def wave(x, t):
        return (alpha / beta) * np.expm1((V / alpha) * (S0 + V * t - x))

    xi = np.arange(n + 1) / n
    theta = wave(xi * S0, 0.0)
    theta[-1] = 0.0
    st = PlantState(t=0.0, s=S0, theta=theta)
    for i in range(round(T_END / dt)):
        qc = p.k * (V / beta) * math.exp((V / alpha) * (S0 + V * i * dt))
        st = step_plant(st, qc, dt, p)
    return abs(st.s - (S0 + V * T_END)), float(np.max(np.abs(st.theta - wave(xi * st.s, T_END))))


@pytest.fixture(scope="module")
def wave_errors(zinc):
    p, _ = zinc
    return {level: _wave_errors(p, *level) for level in MEASURED}


def test_travelling_wave_errors_as_measured(wave_errors):
    for level, want in MEASURED.items():
        assert wave_errors[level] == pytest.approx(want, rel=0.02), level


def test_travelling_wave_errors_halve_with_grid_and_step(wave_errors):
    levels = list(MEASURED)
    for coarse, fine in zip(levels, levels[1:]):
        for c, f in zip(wave_errors[coarse], wave_errors[fine]):
            assert 1.95 <= c / f <= 2.05, (coarse, fine)
