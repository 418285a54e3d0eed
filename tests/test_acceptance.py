"""Acceptance gate: one test per published criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

The zinc scenario is the bundled config (grid_n=200, dt=0.05, t_end=4500 s);
the conservation refinement pair runs the same scenario over the
transient-dominated first 1000 s at (grid_n, dt) and (2*grid_n, dt/2).
"""

import math
from dataclasses import replace

import numpy as np

from stefanlab import transforms
from stefanlab.cli import bundled_config, main
from stefanlab.diagnostics import lyapunov_constants
from stefanlab.params import (
    lambda_upper_bound,
    setpoint_lower_bound,
    validate_scenario,
)
from stefanlab.specfun import gain_sources, gain_term_count, i1_ratio_terms

from oracles import fit_decay_rate, oracle_ratio


def _report(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_parameter_validation(zinc):
    p, cfg = zinc
    alpha, beta = p.alpha, p.beta
    # independent arithmetic from the material table and scenario values
    alpha_ref = 116.0 / (6570.0 * 389.5687)
    beta_ref = 116.0 / (6570.0 * 111.961)
    lam_ref = (4.0 * alpha_ref / cfg.s0**2) * (1.0 - cfg.H / cfg.Hhat)
    sr_ref = cfg.s0 + beta_ref * cfg.s0**2 * cfg.Hhat / (2.0 * alpha_ref)
    lam_bound = lambda_upper_bound(cfg, alpha)
    sr_bound = setpoint_lower_bound(cfg, alpha, beta)
    ok = (
        math.isclose(lam_bound, lam_ref, rel_tol=1e-6)
        and math.isclose(sr_bound, sr_ref, rel_tol=1e-6)
        and validate_scenario(cfg, p).passed
        and {c.name for c in validate_scenario(replace(cfg, lam=2.0), p).failures}
        == {"lambda_bound"}
        and {c.name for c in validate_scenario(replace(cfg, sr=0.05), p).failures}
        == {"setpoint_bound"}
    )
    _report(
        1,
        ok,
        f"gain bound {lam_bound:.6g} /s and setpoint bound {sr_bound:.6g} m match "
        "direct arithmetic at 1e-6; valid scenario passes, perturbed configs fail "
        "their named restriction",
    )


def test_criterion_2_interface_approach(zinc, zinc_run):
    p, cfg = zinc
    tr = zinc_run.trace
    target = 0.9 * (cfg.sr - cfg.s0) + cfg.s0
    ok = (
        bool(np.all(np.diff(tr.s) > 0.0))
        and bool(np.all(tr.s < cfg.sr))
        and tr.s[-1] >= target
    )
    _report(
        2,
        ok,
        f"interface strictly increasing, below setpoint, s(t_end)={tr.s[-1]:.4f} m "
        f">= {target:.4f} m",
    )


def test_criterion_3_heat_flux_positivity(zinc, zinc_run):
    p, cfg = zinc
    tr = zinc_run.trace
    qdot_plus = np.diff(tr.qc) / np.diff(tr.t) + cfg.c * tr.qc[:-1]
    tol = ((1.0 / cfg.grid_n) ** 2 + cfg.dt) * cfg.c * np.max(tr.qc)
    ok = bool(np.all(tr.qc > 0.0)) and np.min(qdot_plus) >= -tol
    _report(
        3,
        ok,
        f"qc > 0 at every step (min {np.min(tr.qc):.4g}); discrete qc' >= -c*qc "
        f"holds within grid tolerance (min excess {np.min(qdot_plus):.3g} >= {-tol:.3g})",
    )


def test_criterion_4_estimation_error(zinc_run):
    tr = zinc_run.trace
    rate = fit_decay_rate(tr.t, tr.h1_err)
    ok = (
        bool(np.all(tr.Ttilde0[1:] < 0.0))
        and abs(tr.Ttilde0[-1]) < 0.01 * abs(tr.Ttilde0[0])
        and rate > 0.0
    )
    _report(
        4,
        ok,
        f"boundary estimation error negative for all t > 0, final |error| "
        f"{abs(tr.Ttilde0[-1]):.3g} K < 1% of initial {abs(tr.Ttilde0[0]):.3g} K, "
        f"fitted H1 decay rate {rate:.4g} /s > 0",
    )


def test_criterion_5_conservation(zinc, conservation_pair):
    p, _ = zinc
    base, fine, base_cfg, fine_cfg = conservation_pair

    def resid(run):
        tr = run.trace
        delta = tr.energy[-1] - tr.energy[0]
        return abs(delta - np.trapezoid(tr.qc, tr.t) / p.k) / abs(delta)

    r_base, r_fine = resid(base), resid(fine)
    ok = r_base < 1e-2 and r_base / r_fine >= 2.0
    _report(
        5,
        ok,
        f"energy residual {r_base:.4g} < 1e-2 at grid_n={base_cfg.grid_n}, "
        f"dt={base_cfg.dt}; refinement to ({fine_cfg.grid_n}, {fine_cfg.dt}) "
        f"shrinks it {r_base / r_fine:.4f}x >= 2x",
    )


def test_criterion_6_series_oracle_equivalence():
    """The engine's float paths: the checkpoint kernel rows, at their
    largest gap (exactly 1, so z2 itself), and the sum of their I1 terms;
    and the observer gain row of ``gain_sources`` at unit scale,
    I1r(z2*(1 - xi^2)), at every node of the grid."""
    points = [0.0, 0.25, 1.0, 4.0, 25.0, 100.0]
    n = 200
    last_gap = transforms._bessel_grid(n)[1].base.size - 2
    xi = np.arange(n + 1) / n
    w = np.maximum(1.0 - xi * xi, 0.0)
    gain = np.empty((1, n + 1))
    worst = 0.0
    for z2 in points:
        i1_ref, j1_ref = oracle_ratio(z2, +1), oracle_ratio(z2, -1)
        values = [(sum(i1_ratio_terms(z2)), i1_ref)]
        if z2 > 0.0:
            i1_row, j1_row = transforms._ratio_rows(n, z2)[:, last_gap]
            values += [(i1_row, i1_ref), (j1_row, j1_ref)]
        gain_sources([z2], [1.0], [gain_term_count(z2)], n, gain)
        values += zip(gain[0], [oracle_ratio(z2 * x, +1) for x in w])
        for value, ref in values:
            worst = max(worst, abs(value - ref) / abs(ref))
    ok = worst < 1e-12
    _report(
        6,
        ok,
        f"checkpoint kernel rows, their I1 terms and the observer gain row match "
        f"the 50-digit I1/J1 series oracle on {points}; worst relative error "
        f"{worst:.3g} < 1e-12",
    )


def test_criterion_7_transform_roundtrips():
    alpha = 116.0 / (6570.0 * 389.5687)
    beta = 116.0 / (6570.0 * 111.961)
    lam, c, s, X = 0.001, 0.001, 0.35, -0.1

    def errors(n):
        xi = np.linspace(0.0, 1.0, n + 1)
        f = np.cos(3.0 * xi) + xi * xi - 0.3
        w = transforms.apply_inverse(f, s, lam, alpha)
        e1 = np.max(np.abs(transforms.apply_direct(w, s, lam, alpha) - f))
        wc = transforms.controller_transform(f, X, s, c, alpha, beta)
        e2 = np.max(np.abs(transforms.controller_inverse(wc, X, s, c, alpha, beta) - f))
        scale = np.max(np.abs(f))
        return e1 / scale, e2 / scale

    e = {n: errors(n) for n in (100, 200, 400)}
    orders = [
        min(math.log2(e[100][k] / e[200][k]), math.log2(e[200][k] / e[400][k]))
        for k in (0, 1)
    ]
    ok = max(e[200]) < 1e-3 and min(orders) >= 1.9
    _report(
        7,
        ok,
        f"round-trip errors at n=200: gain pair {e[200][0]:.3g}, controller pair "
        f"{e[200][1]:.3g} (< 1e-3); observed orders {orders[0]:.2f}, {orders[1]:.2f} >= 1.9",
    )


def test_criterion_8_lyapunov_monitoring(zinc, zinc_run):
    p, cfg = zinc
    ck = zinc_run.checkpoints
    V, Vtot, t = ck["V"], ck["Vtot"], ck["t"]
    _, a, b, _ = lyapunov_constants(cfg, p)
    dV = np.diff(V) / np.diff(t)
    eps_v = 1e-9 * V[0]  # measured slack: V decreases strictly on this run
    envelope = np.exp(a * cfg.sr) * Vtot[0] * np.exp(-b * t)
    eps_tot = 1e-9 * Vtot[0]
    ok = bool(np.all(dV <= eps_v)) and bool(np.all(Vtot <= envelope + eps_tot))
    _report(
        8,
        ok,
        f"V = Vtot*exp(-a*s) non-increasing (max dV/dt {np.max(dV):.3g}); "
        f"Vtot within exp(a*sr)*Vtot(0)*exp(-b*t) at all {t.size} checkpoints",
    )


def test_criterion_9_feedback_equivalence(equivalence_runs):
    out_run, state_run = equivalence_runs
    diff = np.max(np.abs(out_run.trace.qc - state_run.trace.qc))
    ok = diff < 1e-9
    _report(
        9,
        ok,
        f"with matching initial estimate and zero gain, output- and state-feedback "
        f"qc traces differ by {diff:.3g} < 1e-9",
    )


def test_criterion_10_deterministic_csv(tmp_path):
    cfg = bundled_config("zinc_smoke")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main(["run", str(cfg), "--out-dir", str(out)])
        assert code == 0
        outs.append(out)
    same = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("trace.csv", "transforms.csv")
    )
    _report(10, same, "repeated runs of one config produce byte-identical CSV artifacts")
