import contextlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrtfit import (
    LineShapes,
    MrtParams,
    RateDataset,
    peak_rates,
    simulate_curve,
)
import mrtfit
import mrtfit.rate_model as rate_model
from mrtfit.rate_model import FrequencyGrid
from mrtfit.envelopes import g_high
from mrtfit.errors import DomainError, ModelValidityWarning, ValidationError
from mrtfit.units import energy_to_flux, flux_to_energy, kelvin_to_ghz

import oracles
from conftest import NARROW_CORE, REF
from oracles import convolve


def make_params(**overrides):
    return MrtParams(**{**REF, **overrides})


def total(shapes, phi):
    r01, r03 = shapes.rates(phi)
    return r01 + r03


# ---------------------------------------------------------------------------
# raw convolution operator (the zero-padded reference in oracles.py)

def test_convolve_identity_with_discrete_delta():
    grid = FrequencyGrid.build(-4.0, 4.0, 1e-3)
    nu = grid.values
    f = np.exp(-((nu - 0.4) ** 2) / (2 * 0.09))
    delta = np.zeros_like(nu)
    delta[grid.index_of_zero] = 1.0 / grid.step
    out = convolve(f, delta, grid)
    np.testing.assert_allclose(out, f, rtol=0, atol=1e-12 * f.max())


def test_convolve_gaussian_closure():
    grid = FrequencyGrid.build(-6.0, 6.0, 5e-4)
    nu = grid.values
    s1, s2, m1, m2 = 0.21, 0.34, 0.3, -0.11

    def gauss(x, mu, s):
        return np.exp(-((x - mu) ** 2) / (2 * s * s)) / (math.sqrt(2 * math.pi) * s)

    out = convolve(gauss(nu, m1, s1), gauss(nu, m2, s2), grid)
    s12 = math.hypot(s1, s2)
    expect = gauss(nu, m1 + m2, s12)
    i_peak = np.argmax(expect)
    assert out[i_peak] == pytest.approx(expect[i_peak], rel=1e-6)
    core = expect > expect.max() * 1e-6
    np.testing.assert_allclose(out[core], expect[core], rtol=1e-5)


def test_convolve_against_direct_quadrature():
    # tabulated envelope pair versus adaptive quadrature at sample points
    ip, t_k = REF["ip_a"], REF["temperature_k"]
    w = flux_to_energy(37.2, ip)
    g = flux_to_energy(5.0, ip)        # wide enough to resolve on this grid
    t = kelvin_to_ghz(t_k)
    grid = FrequencyGrid.build(-8 * w - 40 * t, 8 * w + 40 * t + 40 * g, g / 6)
    nu = grid.values
    ep = w * w / (2 * t)
    g_l = np.array([oracles.o_g_low(x, w, t) for x in nu])
    g_h = np.array([oracles.o_g_high(x, g, t) for x in nu])
    out = convolve(g_h, g_l, grid)
    samples = np.linspace(-1.2, 2.2, 20)
    for nu_s in samples:
        k = int(round((nu_s - grid.lo) / grid.step))
        expect = oracles.quad_g01(nu[k], w, g, t)
        assert out[k] == pytest.approx(expect, rel=1e-4)


@pytest.mark.parametrize("n_min", [33, 4097])
def test_convolve_equals_scipy_fftconvolve(n_min):
    from scipy.signal import fftconvolve

    grid = FrequencyGrid.build(-1.0, 2.0, 1.0, n_min=n_min)
    rng = np.random.default_rng(n_min)
    f, g = rng.random(len(grid)), rng.random(len(grid))
    iz = grid.index_of_zero
    expect = fftconvolve(f, g)[iz: iz + len(grid)] * grid.step
    np.testing.assert_array_equal(convolve(f, g, grid), expect)


# ---------------------------------------------------------------------------
# zeroth peak

def test_short_tilted_convolution_matches_full_padding():
    # an off-centre zero index makes the short cyclic length asymmetric
    grid = FrequencyGrid.build(-3.0, 9.0, 2e-3)
    f = 1.0 / (1.0 + (grid.values - 0.5) ** 2)
    g = np.exp(-((grid.values - 1.0) ** 2) / 0.08)
    expect = convolve(f, g, grid)
    for tilt in (0.0, 0.8):
        conv = rate_model._Convolution(grid, tilt=tilt)
        assert conv.n_fft < 2 * len(grid) - 1
        got = conv.back(conv.spectrum(f) * conv.spectrum(g))
        # the tilt amplifies the rounding by up to exp(tilt * hi)
        atol = 1e-13 * expect.max() * math.exp(tilt * grid.hi)
        np.testing.assert_allclose(got, expect, rtol=0, atol=atol)


@pytest.mark.parametrize("ratio", [1e-3, 0.03, 0.14])
def test_ohmic_split_reproduces_g_high(ratio):
    # A L_gamma + B D_gamma + s equals the ohmic envelope; scaled by its
    # maximum, because deep on the negative side the terms cancel to e^-50
    t = kelvin_to_ghz(REF["temperature_k"])
    g = ratio * t
    x = np.linspace(-50.0, 50.0, 20001) * t
    a, b, _ = rate_model._ohmic_core_weights(g, t)
    split = ((a * g + b * x) / (math.pi * (x * x + g * g))
             + rate_model._ohmic_remainder(x, g, t))
    full = g_high(x, g, t)
    assert np.abs(split - full).max() <= 1e-14 * full.max()


def test_split_faddeeva_matches_wofz_across_the_switch():
    # rings just inside and just outside |z| = R, where the asymptotic
    # series takes over, in the upper half plane down to Im z = 1e-6
    from scipy.special import wofz

    r = rate_model._FADDEEVA_R
    theta = np.linspace(0.0, math.pi, 2000)
    for radius in (r * (1.0 - 1e-9), r * (1.0 + 1e-9), 1.5 * r):
        z = radius * np.exp(1j * theta)
        z = z.real + 1j * np.maximum(z.imag, 1e-6)
        y = np.array([1e-6, 1e-4, 1e-2, 1.0])
        x = np.sqrt(radius**2 - y**2)
        z = np.concatenate([z, x + 1j * y, -x + 1j * y])
        got, expect = rate_model._faddeeva(z), wofz(z)
        for part in (np.real, np.imag):
            assert np.all(np.abs(part(got) - part(expect)) <= 1e-14 * np.abs(part(expect)))
        # the Voigt core's combination A Re w + B Im w, at ohmic couplings
        # up to the validity limit 2 gamma / k_B T = 0.3
        for ratio in (1e-3, 0.03, 0.15):
            a, b, _ = rate_model._ohmic_core_weights(ratio, 1.0)
            scale = np.abs(a * expect.real) + np.abs(b * expect.imag)
            diff = a * (got.real - expect.real) + b * (got.imag - expect.imag)
            assert np.all(np.abs(diff) <= 1e-14 * scale)


def test_trapezoid_faddeeva_matches_wofz_inside_the_switch():
    # 10^5 seeded points with |z| < R, Im z log-uniform on 1e-9..10, in
    # chunks that keep the (points, nodes) work arrays small
    from scipy.special import wofz

    r = rate_model._FADDEEVA_R
    rng = np.random.default_rng(25)
    for _ in range(10):
        y = 10.0 ** rng.uniform(-9.0, 1.0, 10**4)
        z = rng.uniform(-1.0, 1.0, y.size) * np.sqrt(r * r - y * y) + 1j * y
        z = z[np.abs(z) < r]
        got, expect = rate_model._faddeeva(z), wofz(z)
        assert np.all(np.abs(got - expect) <= 1e-13 * np.abs(expect))
        for ratio in (1e-3, 0.03, 0.15):
            a, b, _ = rate_model._ohmic_core_weights(ratio, 1.0)
            scale = np.abs(a * expect.real) + np.abs(b * expect.imag)
            diff = a * (got.real - expect.real) + b * (got.imag - expect.imag)
            assert np.all(np.abs(diff) <= 5e-13 * scale)


def test_series_faddeeva_matches_wofz_far_out():
    # 2 x 10^4 seeded points with |z| log-uniform on R..1000 R and Im z / |z|
    # log-uniform on 1e-6..1, on both sides of the imaginary axis; beyond
    # |z| = 40 wofz's own rounding sets the spread
    from scipy.special import wofz

    rng = np.random.default_rng(28)
    r = rate_model._FADDEEVA_R * 1e3 ** rng.uniform(0.0, 1.0, 20000)
    y = r * 10.0 ** rng.uniform(-6.0, 0.0, r.size)
    z = np.sqrt(r * r - y * y) * rng.choice([-1.0, 1.0], r.size) + 1j * y
    got, expect = rate_model._faddeeva(z), wofz(z)
    for part in (np.real, np.imag):
        assert np.all(np.abs(part(got) - part(expect)) <= 3e-14 * np.abs(part(expect)))
    for ratio in (1e-3, 0.03, 0.15):
        a, b, _ = rate_model._ohmic_core_weights(ratio, 1.0)
        scale = np.abs(a * expect.real) + np.abs(b * expect.imag)
        diff = a * (got.real - expect.real) + b * (got.imag - expect.imag)
        assert np.all(np.abs(diff) <= 3e-14 * scale)


def test_next_fast_len_matches_scipy():
    # every length up to the grid clamp, and beyond it, up to the longest
    # cyclic length a build can ask for, each 5-smooth length and its
    # neighbours, where the result steps
    from scipy.fft import next_fast_len

    top = 2 * rate_model.GRID_MAX_POINTS
    smooth = {2**a * 3**b * 5**c for a in range(20) for b in range(13) for c in range(9)}
    lengths = [*range(1, rate_model.GRID_MAX_POINTS + 1),
               *(m + d for m in smooth if m <= top for d in (-1, 0, 1) if m + d >= 1)]
    for n in lengths:
        assert rate_model._next_fast_len(n) == next_fast_len(n, real=True), n


def test_zeroth_peak_far_tail_matches_quadrature_oracle(ref_params):
    # G_01 below zero is mirrored from its positive side by detailed
    # balance, so its far tail carries relative, not absolute, rounding
    p = ref_params
    phis = np.array([-500.0, -450.0, -400.0])
    r01, _ = LineShapes(p, -500.0, 3000.0).rates(phis)
    w, g, t = p.w_ghz(), p.gamma_ghz(), p.temperature_ghz()
    for phi, got in zip(phis, r01):
        expect = oracles.rate_coef(p.delta01_ghz) * oracles.quad_g01(
            flux_to_energy(phi, p.ip_a), w, g, t)
        assert got == pytest.approx(expect, rel=1e-9, abs=0.0), phi


def _valid_params(t_k, w_phi, coupling, zeta_rel):
    # ohmic coupling 2 gamma / k_B T = coupling, kept inside its validity
    # limit 0.3 through the unit round trip, and delta01 (REF) below 0.3 W
    # for every W drawn
    gamma = energy_to_flux(0.5 * coupling * kelvin_to_ghz(t_k), REF["ip_a"])
    return make_params(temperature_k=t_k, w_phi_uphi0=w_phi, gamma_phi_uphi0=gamma,
                       zeta_phi_uphi0=zeta_rel * w_phi)


valid_region = st.builds(_valid_params, st.floats(5e-3, 15e-3), st.floats(15.0, 60.0),
                         st.floats(1e-3, 0.29), st.floats(0.02, 0.5))


@settings(max_examples=25, deadline=None)
@given(valid_region, st.lists(st.floats(0.0, 500.0), min_size=1, max_size=8).map(np.array))
def test_zeroth_peak_detailed_balance_property(p, phis):
    # G_01(-x) = exp(-x/T) G_01(x) holds exactly; the local cubic through
    # the mirrored log table reproduces the linear term, so it holds to
    # rounding at any bias, on a node or between nodes
    shapes = LineShapes(p, -500.0, 3000.0)
    x = flux_to_energy(phis, p.ip_a)
    np.testing.assert_allclose(shapes.shape01(-x) / shapes.shape01(x),
                               np.exp(-x / p.temperature_ghz()), rtol=1e-12, atol=0.0)


def test_rate01_gaussian_closed_form_at_peak():
    # no ohmic noise: the peak value has a closed form
    p = make_params(gamma_phi_uphi0=0.0, zeta_phi_uphi0=0.0)
    w = p.w_ghz()
    ep = w * w / (2 * p.temperature_ghz())
    phi_peak = energy_to_flux(ep, p.ip_a)
    expect = oracles.rate_coef(p.delta01_ghz) / (math.sqrt(2 * math.pi) * w)
    assert peak_rates(phi_peak, p)[0][0] == pytest.approx(expect, rel=1e-12)
    assert phi_peak == pytest.approx(38.9, abs=0.1)
    assert expect == pytest.approx(9.16e-2, rel=1e-2)   # about 9.2e4 1/s


def test_rate01_matches_quadrature_oracle(ref_params):
    p = ref_params
    shapes = LineShapes(p, -500.0, 3000.0)
    w, g, t = p.w_ghz(), p.gamma_ghz(), p.temperature_ghz()
    coef = oracles.rate_coef(p.delta01_ghz)
    for phi in (-150.0, 0.0, 38.9, 120.0, 400.0, 1200.0, 2500.0):
        eps = flux_to_energy(phi, p.ip_a)
        expect = coef * oracles.quad_g01(eps, w, g, t)
        got = shapes.rates(phi)[0][0]
        assert got == pytest.approx(expect, rel=1e-3), phi


def test_rate01_bloch_redfield_limit():
    # vanishing Gaussian width, bias far above the ohmic width
    p = make_params(w_phi_uphi0=0.01, zeta_phi_uphi0=0.0)
    t = p.temperature_ghz()
    eta = 2 * p.gamma_ghz() / t
    for eps in (1.0, 2.0, 3.0):
        phi = energy_to_flux(eps, p.ip_a)
        got = peak_rates(phi, p)[0][0]
        expect = (p.delta01_ghz**2 / (4 * eps)) * eta * 2 * math.pi * 1e3 \
            / (-math.expm1(-eps / t))
        assert got == pytest.approx(expect, rel=1e-2), eps


def test_rate01_white_noise_lorentzian_peak():
    p = make_params(w_phi_uphi0=0.01, zeta_phi_uphi0=0.0)
    g = p.gamma_ghz()
    got = peak_rates(0.0, p)[0][0]
    expect = oracles.rate_coef(p.delta01_ghz) / (math.pi * g)
    assert got == pytest.approx(expect, rel=1e-2)


def test_rate01_scale_invariance_in_delta(ref_params):
    p = ref_params
    p2 = replace(p, delta01_ghz=3.0 * p.delta01_ghz)
    phis = np.array([-100.0, 40.0, 500.0, 2000.0])
    r1 = peak_rates(phis, p)[0]
    r2 = peak_rates(phis, p2)[0]
    np.testing.assert_allclose(r2, 9.0 * r1, rtol=1e-12)


# ---------------------------------------------------------------------------
# first peak

def test_rate03_delta_limit_is_translated_zeroth_peak(ref_params):
    p = replace(ref_params, zeta_phi_uphi0=0.0)
    shapes = LineShapes(p, -500.0, 2500.0)
    phis = np.linspace(1800.0, 2500.0, 41)
    r3 = shapes.rates(phis)[1]
    r1 = shapes.rates(phis - p.phi31_uphi0)[0]
    ratio = (p.delta03_ghz / p.delta01_ghz) ** 2
    np.testing.assert_allclose(r3, ratio * r1, rtol=1e-9)


def test_rate03_matches_2d_quadrature_oracle(ref_params):
    p = ref_params
    shapes = LineShapes(p, -500.0, 3000.0)
    w, g, z, t = p.w_ghz(), p.gamma_ghz(), p.zeta_ghz(), p.temperature_ghz()
    nu31 = p.nu31_ghz()
    coef = oracles.rate_coef(p.delta03_ghz)
    peak = coef * oracles.quad_g03(nu31 + w * w / (2 * t), w, g, z, t, nu31)
    cases = (100.0, 600.0, 1100.0, 1500.0, 1900.0, 2100.0, 2153.6, 2192.0,
             2500.0, 2950.0)
    for phi in cases:
        eps = flux_to_energy(phi, p.ip_a)
        expect = coef * oracles.quad_g03(eps, w, g, z, t, nu31)
        if expect < 1e-6 * peak:
            continue
        got = shapes.rates(phi)[1][0]
        assert got == pytest.approx(expect, rel=1e-3), phi


def test_rate03_peak_location_near_resonance(ref_params):
    p = ref_params
    ep_phi = energy_to_flux(p.w_ghz() ** 2 / (2 * p.temperature_ghz()), p.ip_a)
    phis = np.linspace(p.phi31_uphi0 - 200, p.phi31_uphi0 + 250, 1801)
    r3 = peak_rates(phis, p)[1]
    drift = phis[np.argmax(r3)] - (p.phi31_uphi0 + ep_phi)
    assert abs(drift) < p.w_phi_uphi0 / 2


# ---------------------------------------------------------------------------
# total rate and curves

def test_mirror_symmetry_exact(ref_params):
    phis = np.linspace(-3000.0, 3000.0, 101)
    left = sum(peak_rates(phis, ref_params, init_well="L"))
    right = sum(peak_rates(-phis, ref_params, init_well="R"))
    np.testing.assert_array_equal(left, right)


# parameter sets near REF, inside the incoherent, weak-coupling region
near_ref = st.builds(
    MrtParams, delta01_ghz=st.floats(1e-3, 4e-3), delta03_ghz=st.floats(1e-2, 5e-2),
    phi31_uphi0=st.floats(1800.0, 2500.0), w_phi_uphi0=st.floats(25.0, 50.0),
    gamma_phi_uphi0=st.floats(0.2, 1.5), zeta_phi_uphi0=st.floats(1.0, 10.0),
    temperature_k=st.floats(5e-3, 12e-3), ip_a=st.just(REF["ip_a"]))
biases = st.lists(st.floats(-600.0, 3000.0), min_size=1, max_size=8).map(np.array)


@settings(max_examples=25, deadline=None)
@given(near_ref, biases)
def test_mirror_symmetry_property(p, phis):
    np.testing.assert_array_equal(sum(peak_rates(phis, p, init_well="R")),
                                  sum(peak_rates(-phis, p, init_well="L")))


@settings(max_examples=25, deadline=None)
@given(near_ref, biases, st.floats(0.2, 5.0), st.sampled_from(["delta01", "delta03"]))
def test_amplitude_rescaling_property(p, phis, k, amplitude):
    # an amplitude scales its own peak by k^2 and leaves the other bit for bit
    field = f"{amplitude}_ghz"
    scaled = replace(p, **{field: k * getattr(p, field)})
    moved = 0 if amplitude == "delta01" else 1
    before, after = peak_rates(phis, p), peak_rates(phis, scaled)
    np.testing.assert_allclose(after[moved], k * k * before[moved], rtol=1e-12)
    np.testing.assert_array_equal(after[1 - moved], before[1 - moved])


def test_total_rate_spans_four_decades(ref_params):
    curve = simulate_curve(np.linspace(-500.0, 3000.0, 701), ref_params)
    assert curve.rate.max() / curve.rate.min() > 1e4


def test_valley_fill_monotone_in_zeta(ref_params):
    phi_valley = 1100.0
    rates = [sum(peak_rates(phi_valley, replace(ref_params, zeta_phi_uphi0=z)))[0]
             for z in (1.0, 2.0, 4.0, 8.0)]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert rates[0] > peak_rates(phi_valley, replace(ref_params, zeta_phi_uphi0=1.0))[0][0]


def test_tail_asymmetry_beyond_three_widths(ref_params):
    p = ref_params
    ep_phi = energy_to_flux(p.w_ghz() ** 2 / (2 * p.temperature_ghz()), p.ip_a)
    for x in (4.0, 5.0, 6.0):
        up = peak_rates(ep_phi + x * p.w_phi_uphi0, p)[0][0]
        down = peak_rates(ep_phi - x * p.w_phi_uphi0, p)[0][0]
        assert up > down


def _fwhm(phis, rates):
    i = int(np.argmax(rates))
    half = rates[i] / 2.0
    left = np.interp(half, rates[: i + 1], phis[: i + 1])
    right = np.interp(half, rates[i:][::-1], phis[i:][::-1])
    return right - left


def test_fwhm_monotone_in_widths():
    base = dict(REF, zeta_phi_uphi0=0.0, temperature_k=5e-3,
                delta01_ghz=2e-3)
    phis = np.linspace(-250.0, 350.0, 1201)
    widths = []
    for w in (10.0, 20.0, 30.0, 40.0):
        p = make_params(**{**base, "w_phi_uphi0": w, "gamma_phi_uphi0": 1.0})
        widths.append(_fwhm(phis, peak_rates(phis, p)[0]))
    assert all(b > a for a, b in zip(widths, widths[1:]))
    widths_g = []
    for g in (0.5, 2.0, 8.0, 20.0):
        p = make_params(**{**base, "w_phi_uphi0": 20.0, "gamma_phi_uphi0": g})
        widths_g.append(_fwhm(phis, peak_rates(phis, p)[0]))
    assert all(b >= a for a, b in zip(widths_g, widths_g[1:]))


def test_simulate_single_point(ref_params):
    curve = simulate_curve(np.array([123.4]), ref_params)
    assert len(curve) == 1
    assert curve.rate[0] == pytest.approx(
        sum(peak_rates(123.4, ref_params))[0], rel=1e-12)


def test_simulate_grid_self_convergence(ref_params):
    phis = np.linspace(-500.0, 3000.0, 120)
    coarse = LineShapes(ref_params, -500.0, 3000.0)
    fine = LineShapes(ref_params, -500.0, 3000.0,
                      n_min=2 * (len(coarse.grid) - 1) + 1)
    r_coarse = total(coarse, phis)
    r_fine = total(fine, phis)
    mask = r_fine > r_fine.max() * 1e-6
    np.testing.assert_allclose(r_coarse[mask], r_fine[mask], rtol=1e-4)


def test_ref_grid_is_set_by_the_physics(ref_params):
    # no floor: REF needs about 3300 nodes and matches a 2^17 + 1 build at
    # the biases of a REF dataset wherever the rate is above 1e-10 of its peak
    phis = np.linspace(-500.0, 3000.0, 200)
    shapes = LineShapes(ref_params, -500.0, 3000.0)
    assert len(shapes.grid) <= 3400
    fine = total(LineShapes(ref_params, -500.0, 3000.0, n_min=2**17 + 1), phis)
    live = fine > 1e-10 * fine.max()
    np.testing.assert_allclose(total(shapes, phis)[live], fine[live], rtol=1e-6)


# the grid rule's error budget: the total rate of a default build within
# 1.5e-6 of a 2^17 + 1 build at 200 biases of each case's window, on the
# rows above 1e-10 of the peak rate.  The W/16 cubic reached 1.12e-6 here
# and the W/8 quintic 1.13e-6; a coarser step or a lower order fails it
BUDGET_CASES = {
    "ref": ({}, (-500.0, 3000.0)),
    "narrow core": (NARROW_CORE, (-720.09, 3480.42)),
    "W=60 T=5mK": ({"w_phi_uphi0": 60.0, "temperature_k": 5e-3}, (-500.0, 3000.0)),
    "zeta=0.3": ({"zeta_phi_uphi0": 0.3}, (-500.0, 3000.0)),
    "W=15 gamma=3 T=15mK": ({"w_phi_uphi0": 15.0, "gamma_phi_uphi0": 3.0,
                             "temperature_k": 15e-3}, (-500.0, 3000.0)),
    "zeta=20": ({"zeta_phi_uphi0": 20.0}, (-500.0, 3000.0)),
}


@pytest.mark.parametrize("case", BUDGET_CASES)
def test_total_rate_within_the_grid_error_budget(case):
    overrides, window = BUDGET_CASES[case]
    p = make_params(**overrides)
    phis = np.linspace(*window, 200)
    got = total(LineShapes(p, *window), phis)
    fine = total(LineShapes(p, *window, n_min=2**17 + 1), phis)
    live = fine > 1e-10 * fine.max()
    assert np.abs(got[live] / fine[live] - 1.0).max() < 1.5e-6


def test_diagnostics_report_grid_and_short_cuts(ref_params):
    # at REF the W/8 step is halved for the relaxation core, whose width0 of
    # about two steps of W/16 is then pinned
    d = LineShapes(ref_params, -500.0, 3000.0).diagnostics
    assert d["step"] <= d["step_wanted"]
    assert d["step_term"] == "W/8/2"
    assert not d["clamped"] and d["relax_renorm"] and not d["gaussian_as_delta"]
    # a narrow relaxation core is pinned, not resolved: it costs at most
    # halving the step its zeta = 0 build takes
    d = LineShapes(make_params(**NARROW_CORE), -720.09, 3480.42).diagnostics
    bare = LineShapes(make_params(**dict(NARROW_CORE, zeta_phi_uphi0=0.0)),
                      -720.09, 3480.42).diagnostics
    assert not d["clamped"] and d["relax_renorm"]
    assert d["n"] <= 2 * bare["n"]


def test_grid_clamp_warns():
    with pytest.warns(ModelValidityWarning,
                      match=rf"clamped to {rate_model.GRID_MAX_POINTS} nodes: "
                      r"the step W/8 = .* wants \d+ nodes"):
        shapes = LineShapes(make_params(w_phi_uphi0=0.03, delta01_ghz=1e-5), -500.0, 3000.0)
    assert shapes.diagnostics["clamped"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", ModelValidityWarning)
        LineShapes(make_params(), -500.0, 3000.0)
        LineShapes(make_params(**NARROW_CORE), -720.09, 3480.42)


def test_simulated_curve_is_a_dataset(ref_params):
    phis = np.linspace(-500.0, 3000.0, 40)
    curve = simulate_curve(phis, ref_params, init_well="R")
    assert type(curve) is RateDataset
    assert curve.ip_a == ref_params.ip_a and curve.well == "R"
    assert curve.sigma_rel is None and curve.qubit_id is None
    np.testing.assert_array_equal(curve.rate, sum(peak_rates(phis, ref_params, "R")))
    mirrored = curve.mirrored()
    np.testing.assert_array_equal(mirrored.folded_phi(), curve.folded_phi())


def test_rate_curve_is_gone():
    with pytest.raises(AttributeError):
        mrtfit.RateCurve
    assert not hasattr(rate_model, "RateCurve")


def test_simulate_curve_validation(ref_params):
    with pytest.raises(ValidationError):
        simulate_curve(np.array([2.0, 1.0]), ref_params)
    with pytest.raises(ValidationError):
        peak_rates(0.0, ref_params, init_well="X")


@pytest.mark.parametrize("func", [peak_rates])
def test_non_finite_or_empty_biases_rejected(ref_params, func):
    for bad in (math.nan, [0.0, math.inf], [-math.inf]):
        with pytest.raises(DomainError, match="finite"):
            func(bad, ref_params)
    with pytest.raises(ValidationError, match="no flux biases"):
        func(np.array([]), ref_params)


@pytest.mark.parametrize("func", [peak_rates, simulate_curve])
def test_zeroth_peak_centre_far_above_the_grid_rejected(ref_params, func):
    # W^2 / 2T sits so far above the grid that every zeroth-peak node is
    # clipped; the rates would be NaN
    p = replace(ref_params, w_phi_uphi0=600.0, temperature_k=5e-3)
    with pytest.raises(DomainError, match=r"W\^2/2T = 14773.6 uPhi0 \(W = 600 uPhi0"):
        func(np.linspace(-500.0, 3000.0, 5), p)


def test_eval_outside_tabulated_span_raises(ref_params):
    shapes = LineShapes(ref_params, -100.0, 100.0)
    with pytest.raises(DomainError):
        shapes.rates(np.array([50000.0]))


def test_local_quintic_reproduces_nodes_and_tracks_spline(ref_params):
    from scipy.interpolate import CubicSpline

    # the quintic and the spline through the same nodes part as the
    # spline's step^4 error; the grid is pinned to the 2^14 + 1 nodes this
    # tolerance was set on
    shapes = LineShapes(ref_params, -500.0, 3000.0, n_min=2**14 + 1)
    nodes = shapes.grid.values
    eps = flux_to_energy(np.linspace(-500.0, 3000.0, 2001), ref_params.ip_a)
    for log_table, at in ((shapes._log01, eps),
                          (shapes._log03, eps - ref_params.nu31_ghz())):
        np.testing.assert_array_equal(shapes._local_quintic(log_table, nodes),
                                      log_table)
        got = np.exp(shapes._local_quintic(log_table, at))
        spline = np.exp(CubicSpline(nodes, log_table)(at))
        mask = spline > spline.max() * 1e-6
        np.testing.assert_allclose(got[mask], spline[mask], rtol=1e-7)


def test_narrow_relaxation_core_gives_finite_positive_rates():
    p = make_params(**NARROW_CORE)
    curve = simulate_curve(np.linspace(-720.09, 3480.42, 200), p)
    assert np.all(np.isfinite(curve.rate))
    assert np.all(curve.rate > 0)


def test_nonpositive_pinned_core_node_raises(monkeypatch):
    # a zero node that takes twice the sampled core node away
    monkeypatch.setattr(rate_model, "_core_pin", lambda grid, h: (
        np.array([0.0, -2.0 / (math.pi * h), 0.0]), np.zeros(3)))
    with pytest.raises(DomainError, match="zeta"):
        LineShapes(make_params(**NARROW_CORE), -720.09, 3480.42)


@pytest.mark.parametrize("zeta", [0.001, 0.01, 0.1])
def test_pinned_core_mass_and_second_moment_match_closed_form(zeta):
    from mrtfit.envelopes import g_relax

    p = make_params(zeta_phi_uphi0=zeta)
    shapes = LineShapes(p, -500.0, 3000.0)
    assert shapes.diagnostics["relax_renorm"]
    nu, iz, step = shapes.grid.values, shapes.grid.index_of_zero, shapes.grid.step
    h = shapes._width0
    lorentz = (h / math.pi) / (nu * nu + h * h)
    # the pinned table less its sampled remainder g_relax - L_h
    relax = g_relax(nu, p.zeta_ghz(), p.nu31_ghz(), p.temperature_ghz())
    core = shapes._relax_table() - relax + lorentz
    mass = (math.atan(nu[-1] / h) - math.atan(nu[0] / h)) / math.pi
    assert float(np.sum(core)) * step == pytest.approx(mass, rel=1e-12, abs=0.0)
    # second moment over the +-K nodes about zero, on the trapezoid rule
    k = rate_model._CORE_MOMENT_NODES
    x2 = (nu * nu * core)[iz - k: iz + k + 1]
    moment = (float(np.sum(x2)) - 0.5 * (x2[0] + x2[-1])) * step
    a = k * step
    expect = (h / math.pi) * (2.0 * a - 2.0 * h * math.atan(a / h))
    assert moment == pytest.approx(expect, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("overrides, window", [
    (NARROW_CORE, (-720.09, 3480.42)),
    ({"zeta_phi_uphi0": 0.001}, (-500.0, 3000.0)),
    ({"zeta_phi_uphi0": 0.01}, (-500.0, 3000.0)),
    ({"zeta_phi_uphi0": 0.05}, (-500.0, 3000.0)),
    ({"zeta_phi_uphi0": 0.2}, (-500.0, 3000.0)),
], ids=["narrow core", "zeta 0.001", "zeta 0.01", "zeta 0.05", "zeta 0.2"])
def test_narrow_core_total_rate_matches_quadrature_oracle(overrides, window):
    # the sampled wing carries no aliasing error of the core, so pinning the
    # core must leave the rate below and at the first peak at quadrature
    p = make_params(**overrides)
    shapes = LineShapes(p, *window)
    phi31 = p.phi31_uphi0
    first_peak = phi31 + energy_to_flux(p.shift_ghz(), p.ip_a)
    for phi in (0.3 * phi31, 0.55 * phi31, 0.9 * phi31, first_peak):
        expect = oracles.quad_total_rate(
            phi, delta01=p.delta01_ghz, delta03=p.delta03_ghz,
            phi31=phi31, w_phi=p.w_phi_uphi0, gamma_phi=p.gamma_phi_uphi0,
            zeta_phi=p.zeta_phi_uphi0, t_k=p.temperature_k, ip_a=p.ip_a)
        assert total(shapes, phi)[0] == pytest.approx(expect, rel=1e-6, abs=0.0), phi


def test_incoherent_validity_warning():
    with pytest.warns(Warning):
        make_params(delta01_ghz=0.2, w_phi_uphi0=37.2)


def test_zero_delta03_gives_pure_zeroth_curve(ref_params):
    p = replace(ref_params, delta03_ghz=0.0, zeta_phi_uphi0=0.0)
    phis = np.linspace(-200.0, 400.0, 31)
    r01, r03 = peak_rates(phis, p)
    np.testing.assert_array_equal(r03, 0.0)
    np.testing.assert_allclose(simulate_curve(phis, p).rate, r01, rtol=1e-12)


@pytest.mark.parametrize("name", ["delta03_ghz", "gamma_phi_uphi0",
                                  "zeta_phi_uphi0"])
def test_nan_non_negative_parameter_rejected(name):
    with pytest.raises(ValidationError, match=name):
        make_params(**{name: math.nan})


@pytest.mark.parametrize("name", list(REF))
def test_infinite_parameter_rejected(name):
    # an infinite width or temperature once overflowed the grid size, and an
    # infinite delta03 wrote inf rates
    with pytest.raises(ValidationError, match=f"{name} must be .*finite, got inf"):
        make_params(**{name: math.inf})


# ---------------------------------------------------------------------------
# lower grid edge

def test_lower_tail_matches_quadrature_oracle(ref_params):
    # the zeroth peak is mirrored from its positive side, where the ohmic
    # remainder reaches the Gaussian's whole width below zero, so the Voigt
    # core's Lorentzian tail is cancelled down to the grid's lower edge
    p = ref_params
    shapes = LineShapes(p, -500.0, 3000.0)
    # the lowest biases of the criterion-2 grid above the G_03 table floor
    c2_tail = np.linspace(-500.0, 3000.0, 200)[7:11]
    cases = [(phi, 1e-5) for phi in (-300.0, -250.0, -200.0)]
    cases += [(phi, 2e-6) for phi in c2_tail]
    for phi, rel in cases:
        expect = oracles.quad_total_rate(
            phi, delta01=p.delta01_ghz, delta03=p.delta03_ghz,
            phi31=p.phi31_uphi0, w_phi=p.w_phi_uphi0,
            gamma_phi=p.gamma_phi_uphi0, zeta_phi=p.zeta_phi_uphi0,
            t_k=p.temperature_k, ip_a=p.ip_a)
        assert total(shapes, phi)[0] == pytest.approx(expect, rel=rel, abs=0.0), phi


def test_rates_independent_of_window_lower_edge(ref_params):
    phis = np.linspace(-500.0, 3000.0, 3501)
    near = total(LineShapes(ref_params, -500.0, 3000.0), phis)
    wide = total(LineShapes(ref_params, -1000.0, 3000.0), phis)
    live = near > 1e-10 * near.max()
    np.testing.assert_allclose(near[live], wide[live], rtol=1e-6)


def test_mirrored_tail_stays_positive_on_a_wide_window():
    # far below zero exp(nu/T) G_01(-nu) leaves the doubles; the log table
    # stops at the smallest normal double, so a curve without a first peak
    # keeps positive rates and finite sensitivities
    phis = np.linspace(-20000.0, 20000.0, 401)
    for overrides in ({"delta03_ghz": 0.0}, {"zeta_phi_uphi0": 0.0}):
        p = make_params(**overrides)
        assert np.all(simulate_curve(phis, p).rate > 0)
        grads = LineShapes(p, -20000.0, 20000.0).log_shape_grads(flux_to_energy(phis, p.ip_a))
        assert all(np.all(np.isfinite(g)) for g in grads)


def test_gaussian_tail_stays_positive_without_ohmic_noise():
    # with gamma = 0 the zeroth peak is the closed-form Gaussian, clamped at
    # the smallest normal double as the mirrored table is; where the clamp
    # binds, log G_01 is constant and so are its sensitivities
    phis = np.linspace(-3000.0, 3000.0, 61)
    for overrides in ({"delta03_ghz": 0.0}, {"zeta_phi_uphi0": 0.0}):
        p = make_params(gamma_phi_uphi0=0.0, **overrides)
        assert np.all(simulate_curve(phis, p).rate > 0)
        shapes = LineShapes(p, -3000.0, 3000.0)
        eps = flux_to_energy(phis, p.ip_a)
        grads, slope = shapes._zeroth_log_grads(eps)
        clamped = shapes.shape01(eps) == math.exp(rate_model._LOG_TINY)
        assert clamped.any() and not clamped.all()
        assert np.all(grads[:, clamped] == 0.0) and np.all(slope[clamped] == 0.0)


def test_window_above_zero_keeps_the_relaxation_wing():
    # G_03 in the valley draws on the relaxation wing down to -nu31, below
    # the grid a window starting above zero flux would otherwise span
    p = make_params(delta01_ghz=2e-3, delta03_ghz=20e-3, w_phi_uphi0=35.0,
                    gamma_phi_uphi0=1.0, zeta_phi_uphi0=1.0, temperature_k=5e-3)
    phis = np.linspace(900.0, 1300.0, 41)
    near = LineShapes(p, 900.0, 1300.0).rates(phis)
    wide = LineShapes(p, -500.0, 3000.0).rates(phis)
    for got, expect in zip(near, wide):
        np.testing.assert_allclose(got, expect, rtol=1e-9)


# ---------------------------------------------------------------------------
# sensitivities

SLOPE_CASES = {
    "ref": {},
    "gamma=0": {"gamma_phi_uphi0": 0.0},
    "zeta=0": {"zeta_phi_uphi0": 0.0},
    "small gamma": {"gamma_phi_uphi0": 0.05},
    "narrow relaxation core": NARROW_CORE,
    "gaussian near the grid step": {"w_phi_uphi0": 0.03, "delta01_ghz": 1e-5},
}


@pytest.mark.parametrize("case", SLOPE_CASES)
def test_table_slopes_match_central_differences_on_a_fixed_grid(case, monkeypatch):
    p = make_params(**SLOPE_CASES[case])
    # a Gaussian this narrow asks for more nodes than the clamp allows
    clamped = case == "gaussian near the grid step"
    with (pytest.warns(ModelValidityWarning, match="clamped") if clamped
          else contextlib.nullcontext()):
        base = LineShapes(p, -500.0, 3000.0)
    if case == "gaussian near the grid step":
        assert base.diagnostics["gaussian_as_delta"]
    d01, d03 = base._table_slopes()
    monkeypatch.setattr(FrequencyGrid, "build",
                        classmethod(lambda cls, *args, **kwargs: base.grid))
    per_unit = [flux_to_energy(1.0, p.ip_a)] * 4 + [kelvin_to_ghz(1.0)]
    # G_03 is evaluated up to om = eps_hi - nu31; above that, in the padding,
    # the tilted convolution's rounding swamps these tiny differences
    in_window = base.grid.values <= flux_to_energy(3000.0, p.ip_a) - p.nu31_ghz()
    for k, name in enumerate(rate_model.SHAPE_FIELDS):
        value = getattr(p, name)
        if value == 0.0:
            continue
        h = 1e-5 * value
        up = LineShapes(replace(p, **{name: value + h}), -500.0, 3000.0)
        down = LineShapes(replace(p, **{name: value - h}), -500.0, 3000.0)
        for slopes, attr, rows in ((d01, "_table01", slice(None)),
                                   (d03, "_table03", in_window)):
            if slopes is None:
                continue
            fd = (getattr(up, attr) - getattr(down, attr))[rows] / (2.0 * h * per_unit[k])
            scale = max(np.abs(fd).max(), 1e-300)
            assert np.abs(slopes[k][rows] - fd).max() < 1e-4 * scale, (name, attr)


def test_jacobian_reuses_the_build_spectra(ref_params, monkeypatch):
    # a REF build makes 4 forward and 2 inverse FFTs and its log-gradients 8
    # and 8: the Gaussian's slope spectra follow from its own spectrum
    calls = {"rfft": 0, "irfft": 0}
    for name in calls:
        def counted(*args, _fft=getattr(rate_model, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fft(*args, **kwargs)
        monkeypatch.setattr(rate_model, name, counted)
    shapes = LineShapes(ref_params, -500.0, 3000.0)
    assert calls == {"rfft": 4, "irfft": 2}
    shapes.log_shape_grads(flux_to_energy(np.linspace(-500.0, 3000.0, 200),
                                          ref_params.ip_a))
    assert calls == {"rfft": 12, "irfft": 10}


def test_log_shape_grads_match_central_differences_on_a_fixed_grid(
        ref_params, monkeypatch):
    phis = np.linspace(-500.0, 3000.0, 200)
    eps = flux_to_energy(phis, ref_params.ip_a)
    base = LineShapes(ref_params, -500.0, 3000.0)
    grads = base.log_shape_grads(eps)
    shapes = (base.shape01(eps), base.shape03(eps))
    monkeypatch.setattr(FrequencyGrid, "build",
                        classmethod(lambda cls, *args, **kwargs: base.grid))
    for k, name in enumerate(rate_model.SHAPE_FIELDS):
        value = getattr(ref_params, name)
        h = 1e-4 * value
        up = LineShapes(replace(ref_params, **{name: value + h}), -500.0, 3000.0)
        down = LineShapes(replace(ref_params, **{name: value - h}), -500.0, 3000.0)
        pairs = ((up.shape01(eps), down.shape01(eps)),
                 (up.shape03(eps), down.shape03(eps)))
        for grad, shape, (g_up, g_down) in zip(grads, shapes, pairs):
            fd = (np.log(g_up) - np.log(g_down)) / (2.0 * h)
            live = shape > 1e-10 * shape.max()
            norm = np.linalg.norm(fd[live])
            if norm == 0.0:
                assert np.all(grad[:, k] == 0.0), name
                continue
            err = np.linalg.norm((grad[:, k] - fd)[live])
            assert err < 1e-3 * norm, name


def test_kept_stencils_give_the_bits_of_a_fresh_build(ref_params):
    # a build keeps the stencils of its last two bias arrays; whatever
    # order the biases come in, every result equals a fresh build's
    ip = ref_params.ip_a
    grids = [np.linspace(-500.0, 3000.0, n) for n in (200, 37, 200)]
    grids[2][5] += 1e-9
    shapes = LineShapes(ref_params, -500.0, 3000.0)
    for phi in grids + grids[::-1]:
        fresh = LineShapes(ref_params, -500.0, 3000.0)
        for got, want in zip((*shapes.rates(phi),
                              *shapes.log_shape_grads(flux_to_energy(phi, ip))),
                             (*fresh.rates(phi),
                              *fresh.log_shape_grads(flux_to_energy(phi, ip)))):
            np.testing.assert_array_equal(got, want)
