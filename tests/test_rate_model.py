import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrtfit import (
    FrequencyGrid,
    LineShapes,
    MrtParams,
    peak_rates,
    rate_01,
    rate_03,
    simulate_curve,
    total_rate,
)
import mrtfit.rate_model as rate_model
from mrtfit.envelopes import HighFreqBroadening, g_high
from mrtfit.errors import DomainError, ValidationError
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

def test_short_tilted_extended_convolution_matches_full_padding():
    # an off-centre zero index makes the short cyclic length asymmetric
    grid = FrequencyGrid.build(-3.0, 9.0, 2e-3)
    ext = 300
    ext_grid = FrequencyGrid(
        values=(np.arange(-ext, len(grid)) - grid.index_of_zero) * grid.step,
        step=grid.step, index_of_zero=grid.index_of_zero + ext)
    f = 1.0 / (1.0 + (ext_grid.values - 0.5) ** 2)
    g = np.exp(-((grid.values - 1.0) ** 2) / 0.08)
    expect = convolve(f, np.concatenate([np.zeros(ext), g]), ext_grid)[ext:]
    for tilt in (0.0, 0.8):
        conv = rate_model._Convolution(grid, ext, tilt=tilt)
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
    full = g_high(x, HighFreqBroadening(gamma_ghz=g, temperature_ghz=t))
    assert np.abs(split - full).max() <= 1e-14 * full.max()


def test_rate01_gaussian_closed_form_at_peak():
    # no ohmic noise: the peak value has a closed form
    p = make_params(gamma_phi_uphi0=0.0, zeta_phi_uphi0=0.0)
    w = p.w_ghz()
    ep = w * w / (2 * p.temperature_ghz())
    phi_peak = energy_to_flux(ep, p.ip_a)
    expect = oracles.rate_coef(p.delta01_ghz) / (math.sqrt(2 * math.pi) * w)
    assert rate_01(phi_peak, p) == pytest.approx(expect, rel=1e-12)
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
        got = rate_01(phi, p)
        expect = (p.delta01_ghz**2 / (4 * eps)) * eta * 2 * math.pi * 1e3 \
            / (-math.expm1(-eps / t))
        assert got == pytest.approx(expect, rel=1e-2), eps


def test_rate01_white_noise_lorentzian_peak():
    p = make_params(w_phi_uphi0=0.01, zeta_phi_uphi0=0.0)
    g = p.gamma_ghz()
    got = rate_01(0.0, p)
    expect = oracles.rate_coef(p.delta01_ghz) / (math.pi * g)
    assert got == pytest.approx(expect, rel=1e-2)


def test_rate01_scale_invariance_in_delta(ref_params):
    p = ref_params
    p2 = replace(p, delta01_ghz=3.0 * p.delta01_ghz)
    phis = np.array([-100.0, 40.0, 500.0, 2000.0])
    r1 = rate_01(phis, p)
    r2 = rate_01(phis, p2)
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
    r3 = rate_03(phis, p)
    drift = phis[np.argmax(r3)] - (p.phi31_uphi0 + ep_phi)
    assert abs(drift) < p.w_phi_uphi0 / 2


# ---------------------------------------------------------------------------
# total rate and curves

def test_mirror_symmetry_exact(ref_params):
    phis = np.linspace(-3000.0, 3000.0, 101)
    left = total_rate(phis, ref_params, init_well="L")
    right = total_rate(-phis, ref_params, init_well="R")
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
    np.testing.assert_array_equal(total_rate(phis, p, init_well="R"),
                                  total_rate(-phis, p, init_well="L"))


@settings(max_examples=25, deadline=None)
@given(near_ref, biases, st.floats(0.2, 5.0), st.sampled_from(["delta01", "delta03"]))
def test_amplitude_rescaling_property(p, phis, k, amplitude):
    # an amplitude scales its own peak by k^2 and leaves the other bit for bit
    field = f"{amplitude}_ghz"
    scaled = replace(p, **{field: k * getattr(p, field)})
    moved, kept = (rate_01, rate_03) if amplitude == "delta01" else (rate_03, rate_01)
    np.testing.assert_allclose(moved(phis, scaled), k * k * moved(phis, p), rtol=1e-12)
    np.testing.assert_array_equal(kept(phis, scaled), kept(phis, p))


def test_total_rate_spans_four_decades(ref_params):
    curve = simulate_curve(np.linspace(-500.0, 3000.0, 701), ref_params)
    assert curve.rate.max() / curve.rate.min() > 1e4


def test_valley_fill_monotone_in_zeta(ref_params):
    phi_valley = 1100.0
    rates = [total_rate(phi_valley, replace(ref_params, zeta_phi_uphi0=z))
             for z in (1.0, 2.0, 4.0, 8.0)]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert rates[0] > rate_01(phi_valley, replace(ref_params, zeta_phi_uphi0=1.0))


def test_tail_asymmetry_beyond_three_widths(ref_params):
    p = ref_params
    ep_phi = energy_to_flux(p.w_ghz() ** 2 / (2 * p.temperature_ghz()), p.ip_a)
    for x in (4.0, 5.0, 6.0):
        up = rate_01(ep_phi + x * p.w_phi_uphi0, p)
        down = rate_01(ep_phi - x * p.w_phi_uphi0, p)
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
        widths.append(_fwhm(phis, rate_01(phis, p)))
    assert all(b > a for a, b in zip(widths, widths[1:]))
    widths_g = []
    for g in (0.5, 2.0, 8.0, 20.0):
        p = make_params(**{**base, "w_phi_uphi0": 20.0, "gamma_phi_uphi0": g})
        widths_g.append(_fwhm(phis, rate_01(phis, p)))
    assert all(b >= a for a, b in zip(widths_g, widths_g[1:]))


def test_simulate_single_point(ref_params):
    curve = simulate_curve(np.array([123.4]), ref_params)
    assert len(curve) == 1
    assert curve.rate[0] == pytest.approx(
        float(total_rate(123.4, ref_params)), rel=1e-12)


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
    # no floor: REF needs about 5100 nodes and matches a 2^17 + 1 build at
    # the biases of a REF dataset wherever the rate is above 1e-10 of its peak
    phis = np.linspace(-500.0, 3000.0, 200)
    shapes = LineShapes(ref_params, -500.0, 3000.0)
    assert len(shapes.grid) <= 5200
    fine = total(LineShapes(ref_params, -500.0, 3000.0, n_min=2**17 + 1), phis)
    live = fine > 1e-10 * fine.max()
    np.testing.assert_allclose(total(shapes, phis)[live], fine[live], rtol=1e-6)


def test_diagnostics_report_grid_and_short_cuts(ref_params):
    d = LineShapes(ref_params, -500.0, 3000.0).diagnostics
    assert d["step"] <= d["step_wanted"]
    assert not d["clamped"] and not d["relax_renorm"] and not d["gaussian_as_delta"]
    d = LineShapes(make_params(**NARROW_CORE), -720.09, 3480.42).diagnostics
    assert d["n"] == rate_model.GRID_MAX_POINTS and d["step"] > d["step_wanted"]
    assert d["clamped"] and d["relax_renorm"]


def test_simulate_curve_validation(ref_params):
    with pytest.raises(ValidationError):
        simulate_curve(np.array([2.0, 1.0]), ref_params)
    with pytest.raises(ValidationError):
        total_rate(0.0, ref_params, init_well="X")


@pytest.mark.parametrize("func", [peak_rates, total_rate, rate_01, rate_03])
def test_non_finite_or_empty_biases_rejected(ref_params, func):
    for bad in (math.nan, [0.0, math.inf], [-math.inf]):
        with pytest.raises(DomainError, match="finite"):
            func(bad, ref_params)
    with pytest.raises(ValidationError, match="no flux biases"):
        func(np.array([]), ref_params)


@pytest.mark.parametrize("func", [peak_rates, total_rate, rate_01, rate_03,
                                  simulate_curve])
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


def test_local_cubic_reproduces_nodes_and_tracks_spline(ref_params):
    from scipy.interpolate import CubicSpline

    # two interpolants through the same nodes part as step^4; the grid is
    # pinned to the 2^14 + 1 nodes this tolerance was set on
    shapes = LineShapes(ref_params, -500.0, 3000.0, n_min=2**14 + 1)
    nodes = shapes.grid.values
    eps = flux_to_energy(np.linspace(-500.0, 3000.0, 2001), ref_params.ip_a)
    for log_table, at in ((shapes._log01, eps),
                          (shapes._log03, eps - ref_params.nu31_ghz())):
        np.testing.assert_array_equal(shapes._local_cubic(log_table, nodes),
                                      log_table)
        got = np.exp(shapes._local_cubic(log_table, at))
        spline = np.exp(CubicSpline(nodes, log_table)(at))
        mask = spline > spline.max() * 1e-6
        np.testing.assert_allclose(got[mask], spline[mask], rtol=1e-7)


def test_narrow_relaxation_core_gives_finite_positive_rates():
    p = make_params(**NARROW_CORE)
    curve = simulate_curve(np.linspace(-720.09, 3480.42, 200), p)
    assert np.all(np.isfinite(curve.rate))
    assert np.all(curve.rate > 0)


def test_nonpositive_relaxation_core_mass_raises(monkeypatch):
    monkeypatch.setattr(rate_model, "_relax_mass", lambda *args: (-1e-6, 0.0))
    with pytest.raises(DomainError, match="zeta"):
        LineShapes(make_params(**NARROW_CORE), -720.09, 3480.42)


@pytest.mark.parametrize("overrides, window", [
    (NARROW_CORE, (-720.09, 3480.42)),
    ({"zeta_phi_uphi0": 0.001}, (-500.0, 3000.0)),
    ({"zeta_phi_uphi0": 0.01}, (-500.0, 3000.0)),
    ({"zeta_phi_uphi0": 0.1}, (-500.0, 3000.0)),
], ids=["narrow core", "zeta 0.001", "zeta 0.01", "zeta 0.1"])
def test_closed_form_relaxation_mass_matches_quadrature(overrides, window):
    from scipy.integrate import quad

    from mrtfit.envelopes import g_relax, relax_width

    shapes = LineShapes(make_params(**overrides), *window)
    rx, nu = shapes._rx, shapes.grid.values
    width0 = float(relax_width(rx.omega31_ghz, rx))
    points = [x for x in (0.0, -rx.omega31_ghz, -width0, width0,
                          -50.0 * width0, 50.0 * width0) if nu[0] < x < nu[-1]]
    for form, c in (("standard", 1.0), ("half_width", 0.5)):
        mass, _ = rate_model._relax_mass(g_relax(nu, rx, form=form), nu, c * width0)
        expect, _ = quad(lambda x: float(g_relax(x, rx, form=form)), nu[0], nu[-1],
                         points=points, limit=400, epsabs=1e-13, epsrel=1e-13)
        assert abs(mass - expect) < 1e-9, form


def test_incoherent_validity_warning():
    with pytest.warns(Warning):
        make_params(delta01_ghz=0.2, w_phi_uphi0=37.2)


def test_zero_delta03_gives_pure_zeroth_curve(ref_params):
    p = replace(ref_params, delta03_ghz=0.0, zeta_phi_uphi0=0.0)
    phis = np.linspace(-200.0, 400.0, 31)
    np.testing.assert_allclose(total_rate(phis, p), rate_01(phis, p) + 0.0,
                               rtol=1e-12)


def test_relaxation_variant_switch_changes_first_peak_only(ref_params):
    phis = np.linspace(800.0, 2400.0, 25)
    std = rate_03(phis, ref_params, gr_form="standard")
    alt = rate_03(phis, ref_params, gr_form="half_width")
    assert np.all(alt > 0)
    # the narrower variant concentrates weight near resonance: lower valley
    i_val = np.argmin(np.abs(phis - 1100.0))
    assert alt[i_val] < std[i_val]
    np.testing.assert_allclose(rate_01(phis, ref_params, gr_form="half_width"),
                               rate_01(phis, ref_params), rtol=1e-12)


@pytest.mark.parametrize("name", ["delta03_ghz", "gamma_phi_uphi0",
                                  "zeta_phi_uphi0"])
def test_nan_non_negative_parameter_rejected(name):
    with pytest.raises(ValidationError, match=name):
        make_params(**{name: math.nan})


# ---------------------------------------------------------------------------
# lower grid edge

def test_lower_tail_matches_quadrature_oracle(ref_params):
    # the ohmic remainder is tabulated below the grid's lower edge, so the
    # Voigt core's Lorentzian tail is cancelled there as well
    p = ref_params
    shapes = LineShapes(p, -500.0, 3000.0)
    # the lowest biases of the criterion-2 grid above the G_03 table floor,
    # where the core and the remainder cancel to about 1e-9 of the peak
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
    "half_width": {"gr_form": "half_width"},
    "gamma=0": {"gamma_phi_uphi0": 0.0},
    "zeta=0": {"zeta_phi_uphi0": 0.0},
    "small gamma": {"gamma_phi_uphi0": 0.05},
    "narrow relaxation core": NARROW_CORE,
    "gaussian near the grid step": {"w_phi_uphi0": 0.03, "delta01_ghz": 1e-5},
}


@pytest.mark.parametrize("case", SLOPE_CASES)
def test_table_slopes_match_central_differences_on_a_fixed_grid(case, monkeypatch):
    overrides = dict(SLOPE_CASES[case])
    form = overrides.pop("gr_form", "standard")
    p = make_params(**overrides)
    base = LineShapes(p, -500.0, 3000.0, gr_form=form)
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
        up = LineShapes(replace(p, **{name: value + h}), -500.0, 3000.0, gr_form=form)
        down = LineShapes(replace(p, **{name: value - h}), -500.0, 3000.0, gr_form=form)
        for slopes, attr, rows in ((d01, "_table01", slice(None)),
                                   (d03, "_table03", in_window)):
            if slopes is None:
                continue
            fd = (getattr(up, attr) - getattr(down, attr))[rows] / (2.0 * h * per_unit[k])
            scale = max(np.abs(fd).max(), 1e-300)
            assert np.abs(slopes[k][rows] - fd).max() < 1e-4 * scale, (name, attr)


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
