import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from mrtfit import envelopes as env
from mrtfit.errors import DomainError, ModelValidityWarning
from mrtfit.rate_model import LineShapes, MrtParams
from mrtfit.units import energy_to_flux, flux_to_energy, kelvin_to_ghz

from conftest import REF
from oracles import (intrawell_rate, normalization_domain, o_balance, o_g_low,
                     o_g_relax, o_g_relax_half_width, o_theta)

T_REF = kelvin_to_ghz(7.3e-3)
W_REF = flux_to_energy(37.2, 1.37e-6)       # 318 MHz
SHIFT_REF = W_REF**2 / (2.0 * T_REF)
G_REF = flux_to_energy(0.54, 1.37e-6)
Z_REF = flux_to_energy(4.53, 1.37e-6)
NU31_REF = flux_to_energy(2153.6, 1.37e-6)


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

@given(st.floats(0.5, 5e3), st.floats(5e-4, 0.2))
def test_fdt_tie_enforced_at_construction(w_phi, t_k):
    # the Gaussian's shift is a view of (W, T), never a free value
    p = MrtParams(**dict(REF, w_phi_uphi0=w_phi, temperature_k=t_k,
                         delta01_ghz=1e-9))
    w, t = p.w_ghz(), p.temperature_ghz()
    assert p.shift_ghz() * 2.0 * t == pytest.approx(w * w, rel=1e-12)


def test_strong_ohmic_coupling_warns():
    # 2 gamma / k_B T = 2, far past the 0.3 limit of the weak-coupling shape
    p = MrtParams(**dict(REF, gamma_phi_uphi0=energy_to_flux(T_REF, REF["ip_a"])))
    with pytest.warns(ModelValidityWarning, match="ohmic coupling eta"):
        LineShapes(p, -500.0, 3000.0)


# ---------------------------------------------------------------------------
# low-frequency Gaussian

def test_g_low_peak_value_and_one_sigma():
    peak = env.g_low(SHIFT_REF, W_REF, SHIFT_REF)
    assert peak == pytest.approx(1.0 / (math.sqrt(2 * math.pi) * W_REF),
                                 rel=1e-12)
    one_sigma = env.g_low(SHIFT_REF + W_REF, W_REF, SHIFT_REF)
    assert one_sigma == pytest.approx(peak * math.exp(-0.5), rel=1e-12)


def test_g_low_normalization_by_quadrature():
    lo, hi = normalization_domain(env.g_low, W_REF, SHIFT_REF)
    val, _ = quad(lambda x: float(env.g_low(x, W_REF, SHIFT_REF)), lo, hi, limit=200)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_g_low_matches_oracle_shape():
    for nu in (-0.5, 0.0, 0.3, 0.9):
        assert env.g_low(nu, W_REF, SHIFT_REF) == pytest.approx(
            o_g_low(nu, W_REF, T_REF), rel=1e-12)


# ---------------------------------------------------------------------------
# high-frequency (ohmic) envelope

def test_g_high_zero_frequency_limit():
    # removable singularity: thermal factor evaluates to 1
    assert env.g_high(0.0, G_REF, T_REF) == pytest.approx(1.0 / (math.pi * G_REF),
                                                          rel=1e-9)


def test_g_high_rejects_zero_gamma():
    with pytest.raises(DomainError):
        env.g_high(0.1, 0.0, T_REF)


def test_g_high_detailed_balance():
    nus = np.linspace(1e-4, 20.0, 211) * T_REF
    lhs = env.g_high(nus, G_REF, T_REF) * np.exp(-nus / T_REF)
    rhs = env.g_high(-nus, G_REF, T_REF)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_g_high_positivity_and_asymmetry():
    nus = np.linspace(0.01, 30, 500) * T_REF
    assert np.all(env.g_high(nus, G_REF, T_REF) > 0)
    assert np.all(env.g_high(-nus, G_REF, T_REF) > 0)
    assert np.all(env.g_high(nus, G_REF, T_REF) > env.g_high(-nus, G_REF, T_REF))


def test_g_high_approximate_normalization():
    # the ohmic wing grows logarithmically, so normalization holds only
    # over the documented window; deviation stays within the 3% budget;
    # the second width is the reference qubit's
    for g in (0.1 * T_REF, G_REF):
        lo, hi = normalization_domain(env.g_high, g, T_REF)
        val, _ = quad(lambda x: float(env.g_high(x, g, T_REF)), lo, hi,
                      points=[0.0], limit=400)
        assert abs(val - 1.0) < 0.03


# ---------------------------------------------------------------------------
# intrawell relaxation rate and envelope

def test_intrawell_rate_limits():
    inf_rate = 2 * math.pi * 1e3 * Z_REF          # zeta/hbar in 1/us
    assert intrawell_rate(1e4 * T_REF, Z_REF, T_REF) == pytest.approx(
        inf_rate, rel=1e-12)
    assert intrawell_rate(0.0, Z_REF, T_REF) == pytest.approx(inf_rate, rel=1e-6)


def test_intrawell_rate_detailed_balance():
    nus = np.linspace(1e-3, 20.0, 173) * T_REF
    lhs = intrawell_rate(nus, Z_REF, T_REF) * np.exp(-nus / T_REF)
    rhs = intrawell_rate(-nus, Z_REF, T_REF)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_g_relax_center_value_cold_well():
    # omega31 >> k_B T: the width at the peak is zeta itself
    assert env.g_relax(0.0, Z_REF, 50 * T_REF, T_REF) == pytest.approx(
        1.0 / (math.pi * Z_REF), rel=1e-8)


def test_g_relax_rejects_zero_zeta():
    with pytest.raises(DomainError):
        env.g_relax(0.0, 0.0, NU31_REF, T_REF)


def test_g_relax_normalization():
    # parameters with a narrow relaxation core relative to the spacing
    nu31 = 50 * T_REF
    args = (1e-3 * nu31, nu31, T_REF)
    lo, hi = normalization_domain(env.g_relax, *args)
    val, _ = quad(lambda x: float(env.g_relax(x, *args)), lo, hi,
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
        z = z_frac * nu31
        lo, hi = -30 * sigma, 30 * sigma
        val, _ = quad(lambda x: float(env.g_relax(x, z, nu31, T_REF)) * test_fn(x), lo, hi,
                      points=[0.0], limit=600)
        vals.append(val)
    assert abs(vals[0] - 1.0) < 5e-2
    assert abs(vals[1] - 1.0) < abs(vals[0] - 1.0) + 1e-3


def test_g_relax_matches_oracle():
    for nu in (-18.0, -5.0, -0.1, 0.0, 0.2, 3.0):
        assert env.g_relax(nu, Z_REF, NU31_REF, T_REF) == pytest.approx(
            o_g_relax(nu, Z_REF, T_REF, NU31_REF), rel=1e-10)


def test_half_width_convention_is_g_relax_at_half_zeta():
    # a half-width result is the standard model at zeta / 2, so its zeta
    # and tan_delta_c are twice the reported values
    nu = np.linspace(-3.0 * NU31_REF, 3.0 * NU31_REF, 2001)
    for z in (0.01, Z_REF, 0.3, 2.0):
        expect = [o_g_relax_half_width(x, z, T_REF, NU31_REF) for x in nu]
        np.testing.assert_allclose(env.g_relax(nu, z / 2.0, NU31_REF, T_REF), expect,
                                   rtol=1e-12, atol=0.0, err_msg=f"zeta = {z}")
