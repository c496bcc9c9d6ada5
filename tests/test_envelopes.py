import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from mrtfit import envelopes as env
from mrtfit.errors import DomainError, ModelValidityWarning, ValidationError
from mrtfit.units import flux_to_energy, kelvin_to_ghz

from oracles import o_balance, o_g_low, o_g_relax, o_g_relax_half_width, o_theta

T_REF = kelvin_to_ghz(7.3e-3)
W_REF = flux_to_energy(37.2, 1.37e-6)       # 318 MHz
G_REF = flux_to_energy(0.54, 1.37e-6)
Z_REF = flux_to_energy(4.53, 1.37e-6)
NU31_REF = flux_to_energy(2153.6, 1.37e-6)


def lf(w=W_REF, t=T_REF):
    return env.LowFreqBroadening(width_ghz=w, temperature_ghz=t)


def hf(g=G_REF, t=T_REF):
    return env.HighFreqBroadening(gamma_ghz=g, temperature_ghz=t)


def rx(z=Z_REF, nu31=NU31_REF, t=T_REF):
    return env.IntrawellBroadening(zeta_ghz=z, omega31_ghz=nu31,
                                   temperature_ghz=t)


# ---------------------------------------------------------------------------
# thermal helper functions

@given(st.floats(-600, 600))
def test_thermal_enhancement_matches_scalar_oracle(x):
    assert env.thermal_enhancement(x) == pytest.approx(o_theta(x), rel=1e-10)


@given(st.floats(-600, 600))
def test_balance_factor_matches_scalar_oracle(x):
    assert env.balance_factor(x) == pytest.approx(o_balance(x), rel=1e-10)


def test_thermal_helpers_at_zero():
    assert env.thermal_enhancement(0.0) == 1.0
    assert env.balance_factor(0.0) == 1.0


@pytest.mark.parametrize("fn, slope", [
    (env.balance_factor, env.balance_factor_slope),
])
def test_thermal_helper_slopes_match_central_differences(fn, slope):
    # away from the +-30 branch seams; across the series cut-offs included
    x = np.concatenate([np.linspace(-29.0, 29.0, 5801),
                        [-1e-2, -5e-3, 0.0, 5e-3, 1e-2, 35.0, -35.0]])
    h = 1e-5
    fd = (fn(x + h) - fn(x - h)) / (2.0 * h)
    np.testing.assert_allclose(slope(x), fd, rtol=1e-6, atol=1e-9)


def test_thermal_excess_and_slope_across_the_series_cut():
    # theta(y) = 1 + y/2 + e(y); the slope against central differences of
    # e, on both sides of the series cut at |y| = 0.1 and far out
    y = np.concatenate([np.linspace(-40.0, 40.0, 8001),
                        [-0.1 - 1e-9, -0.1, -0.1 + 1e-9, 0.0,
                         0.1 - 1e-9, 0.1, 0.1 + 1e-9, -700.0, 700.0]])
    e, de = env.thermal_excess(y)
    # inside theta's exact branch, |y| < 30; deep on the negative side the
    # three terms cancel, so the gap is scaled by |y|
    inner = np.abs(y) < 29.0
    gap = np.abs(1.0 + y / 2.0 + e - env.thermal_enhancement(y))[inner]
    assert np.all(gap <= 1e-14 * (1.0 + np.abs(y[inner])))
    h = 1e-5
    fd = (env.thermal_excess(y + h)[0] - env.thermal_excess(y - h)[0]) / (2.0 * h)
    np.testing.assert_allclose(de, fd, rtol=1e-6, atol=1e-9)
    # the two branches meet at the cut, in value and in slope (e'' = 1/6
    # there to 1e-3)
    d = 1e-12
    (e_in, e_out), (de_in, de_out) = env.thermal_excess(np.array([0.1 - d, 0.1]))
    assert abs(e_out - e_in - de_out * d) < 1e-15
    assert abs(de_out - de_in - d / 6.0) < 1e-15
    assert np.all(np.isfinite(e)) and np.all(np.isfinite(de))


# ---------------------------------------------------------------------------
# construction invariants

@given(st.floats(1e-4, 10.0), st.floats(1e-3, 10.0))
def test_fdt_tie_enforced_at_construction(w, t):
    p = env.LowFreqBroadening(width_ghz=w, temperature_ghz=t)
    assert p.shift_ghz * 2.0 * t == pytest.approx(w * w, rel=1e-12)


def test_invalid_broadening_parameters_rejected():
    with pytest.raises(ValidationError):
        env.LowFreqBroadening(width_ghz=0.0, temperature_ghz=T_REF)
    with pytest.raises(ValidationError):
        env.HighFreqBroadening(gamma_ghz=-1e-3, temperature_ghz=T_REF)
    with pytest.raises(ValidationError):
        env.IntrawellBroadening(zeta_ghz=0.1, omega31_ghz=0.0,
                                temperature_ghz=T_REF)


def test_strong_ohmic_coupling_warns():
    with pytest.warns(ModelValidityWarning):
        env.HighFreqBroadening(gamma_ghz=T_REF, temperature_ghz=T_REF)


# ---------------------------------------------------------------------------
# low-frequency Gaussian

def test_g_low_peak_value_and_one_sigma():
    p = lf()
    peak = env.g_low(p.shift_ghz, p)
    assert peak == pytest.approx(1.0 / (math.sqrt(2 * math.pi) * p.width_ghz),
                                 rel=1e-12)
    one_sigma = env.g_low(p.shift_ghz + p.width_ghz, p)
    assert one_sigma == pytest.approx(peak * math.exp(-0.5), rel=1e-12)


def test_g_low_normalization_by_quadrature():
    p = lf()
    lo, hi = env.normalization_domain(p)
    val, _ = quad(lambda x: float(env.g_low(x, p)), lo, hi, limit=200)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_g_low_matches_oracle_shape():
    p = lf()
    for nu in (-0.5, 0.0, 0.3, 0.9):
        assert env.g_low(nu, p) == pytest.approx(
            o_g_low(nu, W_REF, T_REF), rel=1e-12)


# ---------------------------------------------------------------------------
# high-frequency (ohmic) envelope

def test_g_high_zero_frequency_limit():
    p = hf()
    # removable singularity: thermal factor evaluates to 1
    assert env.g_high(0.0, p) == pytest.approx(1.0 / (math.pi * p.gamma_ghz),
                                               rel=1e-9)


def test_g_high_rejects_zero_gamma():
    with pytest.raises(DomainError):
        env.g_high(0.1, hf(g=0.0))


def test_g_high_detailed_balance():
    p = hf()
    nus = np.linspace(1e-4, 20.0, 211) * p.temperature_ghz
    lhs = env.g_high(nus, p) * np.exp(-nus / p.temperature_ghz)
    rhs = env.g_high(-nus, p)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_g_high_positivity_and_asymmetry():
    p = hf()
    nus = np.linspace(0.01, 30, 500) * p.temperature_ghz
    assert np.all(env.g_high(nus, p) > 0)
    assert np.all(env.g_high(-nus, p) > 0)
    assert np.all(env.g_high(nus, p) > env.g_high(-nus, p))


def test_g_high_approximate_normalization():
    # the ohmic wing grows logarithmically, so normalization holds only
    # over the documented window; deviation stays within the 3% budget
    p = hf(g=0.1 * T_REF)
    lo, hi = env.normalization_domain(p)
    val, _ = quad(lambda x: float(env.g_high(x, p)), lo, hi,
                  points=[0.0], limit=400)
    assert abs(val - 1.0) < 0.03
    p2 = hf()      # reference-qubit width
    lo, hi = env.normalization_domain(p2)
    val2, _ = quad(lambda x: float(env.g_high(x, p2)), lo, hi,
                   points=[0.0], limit=400)
    assert abs(val2 - 1.0) < 0.03


# ---------------------------------------------------------------------------
# intrawell relaxation rate and envelope

def test_intrawell_rate_limits():
    p = rx()
    inf_rate = 2 * math.pi * 1e3 * p.zeta_ghz          # zeta/hbar in 1/us
    assert env.intrawell_rate(1e4 * p.temperature_ghz, p) == pytest.approx(
        inf_rate, rel=1e-12)
    assert env.intrawell_rate(0.0, p) == pytest.approx(inf_rate, rel=1e-6)


def test_intrawell_rate_detailed_balance():
    p = rx()
    nus = np.linspace(1e-3, 20.0, 173) * p.temperature_ghz
    lhs = env.intrawell_rate(nus, p) * np.exp(-nus / p.temperature_ghz)
    rhs = env.intrawell_rate(-nus, p)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_g_relax_center_value_cold_well():
    # omega31 >> k_B T: the width at the peak is zeta itself
    p = rx(nu31=50 * T_REF)
    assert env.g_relax(0.0, p) == pytest.approx(1.0 / (math.pi * p.zeta_ghz),
                                                rel=1e-8)


def test_g_relax_rejects_zero_zeta():
    with pytest.raises(DomainError):
        env.g_relax(0.0, rx(z=0.0))


def test_g_relax_normalization():
    # parameters with a narrow relaxation core relative to the spacing
    nu31 = 50 * T_REF
    p = rx(z=1e-3 * nu31, nu31=nu31)
    lo, hi = env.normalization_domain(p)
    val, _ = quad(lambda x: float(env.g_relax(x, p)), lo, hi,
                  points=[0.0, -nu31], limit=600)
    assert abs(val - 1.0) < 0.03


def test_g_relax_weak_delta_limit():
    # as zeta -> 0 the envelope acts like a delta on smooth test functions
    nu31 = 50 * T_REF
    sigma = 5 * T_REF

    def test_fn(x):
        return math.exp(-x * x / (2 * sigma**2))

    vals = []
    for z_frac in (1e-3, 1e-4):
        p = rx(z=z_frac * nu31, nu31=nu31)
        lo, hi = -30 * sigma, 30 * sigma
        val, _ = quad(lambda x: float(env.g_relax(x, p)) * test_fn(x), lo, hi,
                      points=[0.0], limit=600)
        vals.append(val)
    assert abs(vals[0] - 1.0) < 5e-2
    assert abs(vals[1] - 1.0) < abs(vals[0] - 1.0) + 1e-3


def test_g_relax_matches_oracle():
    p = rx()
    for nu in (-18.0, -5.0, -0.1, 0.0, 0.2, 3.0):
        assert env.g_relax(nu, p) == pytest.approx(
            o_g_relax(nu, Z_REF, T_REF, NU31_REF), rel=1e-10)


def test_half_width_convention_is_g_relax_at_half_zeta():
    # a half-width result is the standard model at zeta / 2, so its zeta
    # and tan_delta_c are twice the reported values
    nu = np.linspace(-3.0 * NU31_REF, 3.0 * NU31_REF, 2001)
    for z in (0.01, Z_REF, 0.3, 2.0):
        expect = [o_g_relax_half_width(x, z, T_REF, NU31_REF) for x in nu]
        np.testing.assert_allclose(env.g_relax(nu, rx(z=z / 2.0)), expect,
                                   rtol=1e-12, atol=0.0, err_msg=f"zeta = {z}")
