"""Series evaluators for I1(z)/z and J1(z)/z against an independent oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stefanlab import specfun
from stefanlab.specfun import (
    Z2_CAP,
    bessel_i1_ratio,
    bessel_j1_ratio,
    i1_ratio_array,
    j1_ratio_array,
)


def oracle_ratio(z2, sign, dps=50, min_terms=50):
    """High-precision ascending series, summed in mpmath arithmetic."""
    import mpmath as mp

    with mp.workdps(dps):
        z2 = mp.mpf(z2)
        term = mp.mpf(1) / 2
        total = term
        m = 0
        while m < min_terms or abs(term) > abs(total) * mp.mpf(10) ** (-dps):
            m += 1
            term = term * sign * z2 / (4 * m * (m + 1))
            total += term
            if m > 5000:
                raise RuntimeError("oracle did not converge")
        return float(total)


# expected values computed with oracle_ratio (and cross-checked against
# mpmath.besseli / mpmath.besselj at 40 digits)
I1_CASES = {
    0.0: 0.5,
    0.25: 0.5157886107817926,
    1.0: 0.565159103992485,
    4.0: 0.7953184273186645,
    25.0: 4.867128428490106,
    100.0: 267.0988303701255,
}
J1_CASES = {
    0.0: 0.5,
    0.25: 0.4845369153497478,
    1.0: 0.4400505857449335,
    4.0: 0.2883624038784367,
    25.0: -0.06551582751829305,
    100.0: 0.004347274616886144,
}


@pytest.mark.parametrize("z2,expected", sorted(I1_CASES.items()))
def test_i1_ratio_frozen(z2, expected):
    assert bessel_i1_ratio(z2) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("z2,expected", sorted(J1_CASES.items()))
def test_j1_ratio_frozen(z2, expected):
    assert bessel_j1_ratio(z2) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("z2", sorted(I1_CASES))
def test_matches_live_oracle(z2):
    assert bessel_i1_ratio(z2) == pytest.approx(oracle_ratio(z2, +1), rel=1e-12)
    assert bessel_j1_ratio(z2) == pytest.approx(oracle_ratio(z2, -1), rel=1e-12)


def test_zero_argument_is_exactly_half():
    assert bessel_i1_ratio(0.0) == 0.5
    assert bessel_j1_ratio(0.0) == 0.5


def test_j1_first_zero():
    # J1 vanishes at z ~ 3.8317; root squared
    z_root = 3.831705970207512
    assert abs(bessel_j1_ratio(z_root**2)) < 1e-13


@pytest.mark.parametrize("fn", [bessel_i1_ratio, bessel_j1_ratio])
def test_domain_errors(fn):
    with pytest.raises(ValueError):
        fn(-1e-9)
    with pytest.raises(ValueError):
        fn(Z2_CAP * 1.001)


def test_array_domain_errors():
    with pytest.raises(ValueError):
        i1_ratio_array(np.array([0.1, -0.2]))


@given(st.floats(min_value=0.0, max_value=400.0))
@settings(max_examples=60, deadline=None)
def test_array_matches_scalar(z2):
    # the float64 fast path keeps ~8 digits for the alternating J1 series at
    # the cap (cancellation); I1 has positive terms and stays near full
    # precision
    assert i1_ratio_array(np.array([z2]))[0] == pytest.approx(
        bessel_i1_ratio(z2), rel=1e-12, abs=1e-15
    )
    assert j1_ratio_array(np.array([z2]))[0] == pytest.approx(
        bessel_j1_ratio(z2), rel=5e-8, abs=1e-9
    )


@given(st.floats(min_value=0.0, max_value=30.0))
@settings(max_examples=60, deadline=None)
def test_array_near_full_precision_on_kernel_range(z2):
    # the alternating J1 sum loses about eps * I1(z)/z to cancellation,
    # which stays below 1e-14 for z2 <= 30
    assert j1_ratio_array(np.array([z2]))[0] == pytest.approx(
        bessel_j1_ratio(z2), rel=1e-12, abs=1e-14
    )


def test_array_falls_back_to_exact_above_float_cap():
    z2 = np.array([0.5, 500.0, 4000.0])
    out = i1_ratio_array(z2)
    for zi, oi in zip(z2, out):
        assert oi == pytest.approx(bessel_i1_ratio(zi), rel=1e-12)


def test_array_takes_exact_path_only_above_float_cap(monkeypatch):
    # a kernel grid of N = 32 intervals with max z2 = 1000
    xi = np.arange(33) / 32
    z2 = 1000.0 * np.maximum(xi[np.newaxis, :] ** 2 - xi[:, np.newaxis] ** 2, 0.0)
    above = int(np.count_nonzero(z2 > 400.0))
    assert 0 < above < z2.size
    exact = specfun._ratio_series_exact
    calls = []

    def counted(v, sign):
        calls.append(v)
        return exact(v, sign)

    monkeypatch.setattr(specfun, "_ratio_series_exact", counted)
    i1 = i1_ratio_array(z2)
    j1 = j1_ratio_array(z2)
    assert calls == []
    monkeypatch.undo()
    flat = z2.reshape(-1).tolist()
    i1_ref = np.array([bessel_i1_ratio(v) for v in flat]).reshape(z2.shape)
    j1_ref = np.array([bessel_j1_ratio(v) for v in flat]).reshape(z2.shape)
    assert np.max(np.abs(i1 / i1_ref - 1.0)) <= 1e-13
    # above the float cap the whole J1 grid comes from scipy's j1(z)/z,
    # which holds 1e-12 relative except next to a zero of J1: at z2 = 843.75
    # (J1r = -2.8e-6) it is 3.4e-18 off, so the bound has a 1e-17 floor
    assert np.all(np.abs(j1 - j1_ref) <= 1e-12 * np.abs(j1_ref) + 1e-17)


@given(st.floats(min_value=0.0, max_value=9999.0), st.floats(min_value=1e-12, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_i1_ratio_monotone_increasing(z2, step):
    assert bessel_i1_ratio(z2 + step) > bessel_i1_ratio(z2)


@given(st.floats(min_value=0.0, max_value=1e4))
@settings(max_examples=80, deadline=None)
def test_j1_ratio_bounded_by_half(z2):
    assert bessel_j1_ratio(z2) <= 0.5


@pytest.mark.parametrize("z", [0.1, 0.2, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0])
def test_reconstructed_bessel_satisfies_defining_ode(z):
    """z^2 I1'' + z I1' - (z^2+1) I1 = 0 (and the J1 analogue), checked by
    fourth-order central differences."""
    h = 0.02
    for ratio, sign in ((bessel_i1_ratio, 1.0), (bessel_j1_ratio, -1.0)):

        def f(x):
            return x * ratio(x * x)

        f2 = (-f(z + 2 * h) + 16 * f(z + h) - 30 * f(z) + 16 * f(z - h) - f(z - 2 * h)) / (
            12 * h * h
        )
        f1 = (f(z - 2 * h) - 8 * f(z - h) + 8 * f(z + h) - f(z + 2 * h)) / (12 * h)
        resid = z * z * f2 + z * f1 - sign * (z * z + sign) * f(z)
        assert abs(resid) <= 1e-8 * (z * z + 1) * max(abs(f(z)), 1e-3)
