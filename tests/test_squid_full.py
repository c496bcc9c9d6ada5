import math
from dataclasses import replace

import numpy as np
import pytest

from mrtfit import (
    FullModelNoise,
    RateDataset,
    RfSquidParams,
    effective_potential,
    full_model_rate,
    ground_pair_splitting,
    harmonic_v31,
    persistent_current,
    simulate_curve,
    solve_wells,
)
from mrtfit.errors import (ConvergenceError, DomainError, SingleWellError,
                           ValidationError)
from mrtfit.rate_model import LineShapes
import mrtfit.squid_full as squid_full
from mrtfit.squid_full import excited_crossing_gap, full_spectrum
from mrtfit.units import Phi0, energy_to_flux, flux_to_energy

import oracles

from conftest import REF, REF_CIRCUIT


@pytest.fixture(scope="module")
def circuit():
    return RfSquidParams(**REF_CIRCUIT)


@pytest.fixture(scope="module")
def basis(circuit):
    pot = effective_potential(circuit)
    return solve_wells(pot, circuit.c_f)


# ---------------------------------------------------------------------------
# potential construction

def test_beta_eff_reference_circuit(circuit):
    assert circuit.beta_eff == pytest.approx(1.19601, abs=1e-4)
    assert circuit.beta_eff > 1.0


def test_potential_symmetric_at_degeneracy(circuit):
    pot = effective_potential(circuit)
    u = pot.u_ghz
    np.testing.assert_allclose(u, u[::-1], rtol=1e-12)
    lo, hi = pot.minima_indices
    assert lo < pot.partition_index <= hi


def test_rf_squid_params_validation():
    for field, value in [("ic_a", -1e-6), ("ic_a", math.nan), ("l_h", math.inf),
                         ("c_f", math.inf), ("c_f", math.nan), ("phi_cjj_x", -1.5),
                         ("phi_cjj_x", math.nan), ("phi_x_uphi0", math.inf),
                         ("phi_x_uphi0", math.nan)]:
        with pytest.raises(ValidationError, match=field):
            replace(RfSquidParams(**REF_CIRCUIT), **{field: value})


def test_single_well_regimes_rejected():
    # cos(pi/2) = 0 kills the barrier entirely
    with pytest.raises(SingleWellError):
        effective_potential(replace(RfSquidParams(**REF_CIRCUIT),
                                    phi_cjj_x=0.5))
    # small critical current: beta_eff < 1
    with pytest.raises(SingleWellError):
        effective_potential(replace(RfSquidParams(**REF_CIRCUIT),
                                    ic_a=1.0e-6))
    # a per-bias window so wide that the tilt removes one well at its ends
    noise = FullModelNoise(w_phi_uphi0=37.2, gamma_phi_uphi0=0.54,
                           tan_delta_c=2.07e-3, temperature_k=7.3e-3)
    with pytest.raises(SingleWellError, match="exactly two potential minima.*found 1"):
        full_model_rate(RfSquidParams(**REF_CIRCUIT), noise, [-20000.0, 20000.0],
                        bias_mode="per_bias")


def test_persistent_current_unreachable_below_threshold():
    weak = replace(RfSquidParams(**REF_CIRCUIT), ic_a=1.0e-6)
    assert weak.beta_eff < 1.0
    with pytest.raises(SingleWellError):
        effective_potential(weak)


# ---------------------------------------------------------------------------
# well basis

def test_degeneracy_of_ground_pair(basis):
    delta01 = basis.delta_ghz[(0, 1)]
    assert abs(basis.energies_ghz[0] - basis.energies_ghz[1]) < delta01 / 100.0


def test_wavefunctions_orthonormal_within_each_well(basis):
    psi = basis.wavefunctions
    for pair_base in (0, 1):                     # left then right well
        for m in (0, 1):
            for n in (0, 1):
                overlap = float(np.sum(psi[2 * m + pair_base]
                                       * psi[2 * n + pair_base]))
                assert overlap == pytest.approx(1.0 if m == n else 0.0,
                                                abs=1e-10)


def test_current_matrix_structure(basis):
    ip = persistent_current(basis)
    cur = basis.current_a
    # opposite-well elements vanish by construction
    for m in range(4):
        for n in range(4):
            if (m - n) % 2 == 1:
                assert cur[m, n] == 0.0
    np.testing.assert_allclose(cur, cur.T, rtol=0, atol=1e-10 * abs(ip))
    # symmetric double well: the two ground-state currents mirror
    assert cur[1, 1] == pytest.approx(-cur[0, 0], rel=1e-9)
    assert ip == pytest.approx(cur[1, 1], rel=1e-9)


def test_voltage_matrix_structure(basis):
    v = basis.voltage_v
    v31 = v[1, 3]
    assert v31 > 0
    # diagonal elements vanish (states are real): well below the 31 element
    assert abs(v[1, 1]) < 1e-3 * v31
    assert abs(v[3, 3]) < 1e-3 * v31
    np.testing.assert_allclose(v, v.T, rtol=0, atol=1e-12 * v31)


def sine_basis_kinetic(n, length):
    """-d^2/dy^2 at the n sine-DVR points of an interval: the sine basis'
    (k pi / length)^2 carried onto the points by the orthogonal sine
    transform, not the closed form the package uses."""
    k = np.arange(1, n + 1)
    s = np.sin(np.pi * np.outer(k, k) / (n + 1))
    return 2.0 / (n + 1) * (s * (np.pi * k / length) ** 2) @ s


def test_matrix_elements_equal_the_loop_reference(basis, circuit):
    # element by element as sums over the DVR points.  The voltage comes
    # from the commutator itself, q/C = (i / hbar) [H, Phi], with H built from
    # the sine transform, so it also checks the closed-form kinetic matrix
    psi, pot = basis.wavefunctions, basis.potential
    m, y = pot.partition_index, pot.y
    i_diag = Phi0 * (y - circuit.phi_x_uphi0 * 1e-6 + 0.5) / circuit.l_h
    n = len(psi)
    cur, volt = np.zeros((n, n)), np.zeros((n, n))
    for p in range(n):
        block = slice(m, None) if p % 2 else slice(None, m)
        yb = y[block]
        ham = (squid_full._kinetic_coef_ghz(circuit.c_f)
               * sine_basis_kinetic(len(yb), squid_full.HALF_SPAN)
               + np.diag(pot.u_ghz[block]))
        commutator = ham * np.subtract.outer(yb, yb)      # [H, y] in GHz
        for q in range(p % 2, n, 2):
            cur[p, q] = np.sum(psi[p] * i_diag * psi[q])
            volt[p, q] = (2.0 * math.pi * 1e9 * Phi0
                          * abs(psi[p][block] @ commutator @ psi[q][block]))
    np.testing.assert_allclose(basis.current_a, cur, rtol=0,
                               atol=1e-13 * np.abs(cur).max())
    np.testing.assert_allclose(basis.voltage_v, volt, rtol=0, atol=1e-13 * volt.max())


def test_same_well_tunneling_amplitudes_are_zero_by_construction(basis):
    # the basis construction defines tunneling only between opposite wells;
    # within a well the block diagonalization leaves no off-diagonal part
    psi = basis.wavefunctions
    assert float(np.sum(np.abs(psi[0] * psi[2]))) == pytest.approx(
        float(np.sum(np.abs(psi[0] * psi[2]))))
    assert set(basis.delta_ghz) == {(0, 1), (0, 3)}


# ---------------------------------------------------------------------------
# reference-circuit quantities (frozen from converged runs)

def test_persistent_current_reference(basis):
    ip = persistent_current(basis)
    assert ip * 1e6 == pytest.approx(1.2624, abs=2e-3)
    # within ten percent of the measured 1.37 uA
    assert abs(ip - 1.37e-6) / 1.37e-6 < 0.10


def test_level_spacing_reference(basis):
    omega31 = basis.omega31_ghz
    assert omega31 == pytest.approx(16.354, abs=0.02)
    # consistency with the linear flux-to-energy map at the measured
    # peak separation (2 I_p Phi31 / h = 18.42 GHz at the measured values)
    anchor = flux_to_energy(2153.6, 1.37e-6)
    assert abs(omega31 - anchor) / anchor < 0.15
    # and with the solver's own persistent current and resonance bias
    ip = persistent_current(basis)
    d03, phi31 = excited_crossing_gap(RfSquidParams(**REF_CIRCUIT),
                                      REF_CIRCUIT["c_f"], omega31, ip)
    self_anchor = flux_to_energy(phi31, ip)
    assert abs(omega31 - self_anchor) / self_anchor < 0.10
    assert phi31 == pytest.approx(2212.0, abs=2.0)
    assert abs(phi31 - 2153.6) / 2153.6 < 0.05


def test_tunneling_amplitudes_reference(basis):
    d01 = basis.delta_ghz[(0, 1)]
    d03 = basis.delta_ghz[(0, 3)]
    assert d01 * 1e3 == pytest.approx(13.386, abs=0.02)
    assert d03 * 1e3 == pytest.approx(109.81, abs=0.2)
    # within one order of magnitude of the fitted 2.72 MHz (exponentially
    # sensitive to the circuit parameters)
    ratio = d01 / 2.72e-3
    assert 0.1 < ratio < 10.0


@pytest.mark.parametrize("phi_cjj_x", [-0.735, -0.74, -0.745, -0.75, -0.755, -0.76])
def test_crossing_vertex_matches_a_tight_bounded_search(phi_cjj_x, monkeypatch):
    from scipy.optimize import minimize_scalar

    circuit = RfSquidParams(**dict(REF_CIRCUIT, phi_cjj_x=phi_cjj_x))
    basis0 = solve_wells(effective_potential(circuit), circuit.c_f,
                         compute_amplitudes=False)

    def gap(phi):
        ev = full_spectrum(replace(circuit, phi_x_uphi0=float(phi)), circuit.c_f, 3)
        return float(ev[2] - ev[1])

    guess = energy_to_flux(basis0.omega31_ghz, basis0.ip_a)
    ref = minimize_scalar(gap, bounds=(0.7 * guess, 1.3 * guess), method="bounded",
                          options={"xatol": 1e-7})
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return full_spectrum(*args, **kwargs)

    monkeypatch.setattr(squid_full, "full_spectrum", counted)
    d03, phi31 = excited_crossing_gap(circuit, circuit.c_f, basis0.omega31_ghz,
                                      basis0.ip_a)
    assert abs(phi31 - ref.x) <= 1e-3
    assert abs(d03 / ref.fun - 1.0) <= 1e-7
    assert len(calls) <= 7


@pytest.mark.parametrize("factor", [0.5, 10.0])
def test_crossing_search_outside_its_bracket_raises(circuit, basis, factor):
    # at half the spacing the vertex lies above 1.3 times the guess; at ten
    # times it, far from any crossing, gap^2 curves downward
    with pytest.raises(ConvergenceError, match="avoided-crossing"):
        excited_crossing_gap(circuit, circuit.c_f, factor * basis.omega31_ghz,
                             basis.ip_a)


def counted(monkeypatch, name):
    """Record the calls of the ``squid_full`` global ``name``."""
    calls = []
    original = getattr(squid_full, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(squid_full, name, wrapper)
    return calls


def counted_solves(monkeypatch):
    return counted(monkeypatch, "_lowest_levels")


# (first bias, last bias, number of biases) in uPhi0
PER_BIAS_WINDOWS = {"per_bias_60": (-500.0, 3000.0, 60),
                    "per_bias_1000": (-500.0, 3000.0, 1000),
                    "per_bias_narrow": (-100.0, 300.0, 7)}


@pytest.mark.parametrize("path, solves", [("fixed", 12), ("squid", 10),
                                          ("per_bias_60", 46),
                                          ("per_bias_1000", 46),
                                          ("per_bias_narrow", 46)])
def test_degeneracy_wells_are_solved_once(circuit, monkeypatch, path, solves):
    # wells at zero bias 2, ground pair 1, crossing 7, and for the rate
    # curve the wells at the resonance bias 2; per bias, both wells at 17
    # interpolation nodes, whatever the number of biases and the window
    calls = counted_solves(monkeypatch)
    noise = FullModelNoise(w_phi_uphi0=37.2, gamma_phi_uphi0=0.54,
                           tan_delta_c=2.07e-3, temperature_k=7.3e-3)
    if path == "fixed":
        full_model_rate(circuit, noise, np.linspace(0.0, 100.0, 5))
    elif path == "squid":
        solve_wells(effective_potential(circuit), circuit.c_f)
    else:
        res = full_model_rate(circuit, noise, np.linspace(*PER_BIAS_WINDOWS[path]),
                              bias_mode="per_bias")
        assert res.solver["bias_nodes"] == 17
    assert len(calls) == solves


# ---------------------------------------------------------------------------
# the sine DVR against an independent finite-difference reference

def fd_quantities(circuit, n_points):
    """Block levels, omega31, I_p and the three lowest levels of the full
    interval, by finite differences and bisection (``oracles.well_levels``)."""
    out, ground_current = {}, {}
    for part in ("left", "right"):
        e, v, y = oracles.well_levels(circuit, n_points, 2, part, vectors=True)
        out[f"{part}_0"], out[f"{part}_1"] = e
        ground_current[part] = np.sum(
            v[:, 0] ** 2 * Phi0 * (y - circuit.phi_x_uphi0 * 1e-6 + 0.5) / circuit.l_h)
    out["omega31"] = out["right_1"] - out["right_0"]
    out["ip"] = (ground_current["right"] - ground_current["left"]) / 2.0
    for j, e in enumerate(oracles.well_levels(circuit, n_points, 3, "full")):
        out[f"full_{j}"] = e
    return out


@pytest.mark.parametrize("phi_x", [0.0, 1500.0, -1500.0])
def test_dvr_matches_the_extrapolated_finite_difference_limit(circuit, phi_x):
    # The staggered finite-difference blocks are first-order off: their
    # walls sit half a step beyond the partition, where the well states
    # still have weight (1.2e-4 relative in omega31 at 4096 points).
    # 2 f(32768) - f(16384) removes that term.  Delta01, a full-interval
    # quantity, is second-order there, so the formula leaves half its
    # 32768-point error, 6e-8; bisection rounding at 32768 points is about
    # 1e-7 of it.
    biased = replace(circuit, phi_x_uphi0=phi_x)
    coarse, fine = fd_quantities(biased, 16384), fd_quantities(biased, 32768)
    limit = {key: 2.0 * fine[key] - coarse[key] for key in fine}
    b = solve_wells(effective_potential(biased), circuit.c_f, compute_amplitudes=False)
    full = full_spectrum(biased, circuit.c_f, 3)
    dvr = {"left_0": b.energies_ghz[0], "right_0": b.energies_ghz[1],
           "left_1": b.energies_ghz[2], "right_1": b.energies_ghz[3],
           "omega31": b.omega31_ghz, "ip": b.ip_a,
           "full_0": full[0], "full_1": full[1], "full_2": full[2]}
    if phi_x == 0.0:
        limit["delta01"] = limit["full_1"] - limit["full_0"]
        dvr["delta01"] = ground_pair_splitting(circuit, circuit.c_f)
    for key, value in dvr.items():
        assert value == pytest.approx(limit[key], rel=1e-6), key


def test_grid_convergence_energies_and_splitting(circuit):
    # energies: doubling the grid changes E_n below 1e-8 relative once the
    # DVR has converged, from 512 points up
    e_coarse = full_spectrum(circuit, circuit.c_f, 2, n_points=512)
    e_fine = full_spectrum(circuit, circuit.c_f, 2, n_points=1024)
    for a, b in zip(e_coarse, e_fine):
        assert abs(a - b) / abs(b) < 1e-8
    # splitting: doubling from the default grid moves it below one percent
    d_coarse = ground_pair_splitting(circuit, circuit.c_f, n_points=128)
    d_fine = ground_pair_splitting(circuit, circuit.c_f, n_points=256)
    assert abs(d_coarse - d_fine) / d_fine < 0.01


def test_harmonic_v31_arithmetic():
    # direct arithmetic example at an externally supplied level spacing
    v = harmonic_v31(2 * math.pi * 9.17e9, 110e-15)
    assert v * 1e6 == pytest.approx(5.255, abs=0.01)
    # square-root capacitance scaling
    assert harmonic_v31(2 * math.pi * 9.17e9, 4 * 110e-15) == pytest.approx(
        v / 2.0, rel=1e-12)
    with pytest.raises(ValidationError):
        harmonic_v31(-1.0, 110e-15)


def test_harmonic_v31_matches_numerical_matrix_element(circuit, basis):
    d03, phi31 = excited_crossing_gap(circuit, circuit.c_f, 16.354, basis.ip_a)
    pot = effective_potential(replace(circuit, phi_x_uphi0=phi31))
    b = solve_wells(pot, circuit.c_f, compute_amplitudes=False)
    v_num = b.voltage_v[1, 3]
    v_harm = harmonic_v31(2 * math.pi * b.omega31_ghz * 1e9, circuit.c_f)
    assert abs(v_harm - v_num) / v_num < 0.20


# ---------------------------------------------------------------------------
# full-model rate curve

def test_full_model_delegation_identity(circuit):
    noise = FullModelNoise(w_phi_uphi0=REF["w_phi_uphi0"],
                           gamma_phi_uphi0=REF["gamma_phi_uphi0"],
                           tan_delta_c=2.07e-3,
                           temperature_k=REF["temperature_k"])
    phis = np.linspace(-400.0, 2900.0, 61)
    res = full_model_rate(circuit, noise, phis)
    # the noise inputs pass through; the fixed-bias curve is the rate model's
    assert (res.params.w_phi_uphi0, res.params.gamma_phi_uphi0,
            res.params.temperature_k) == (noise.w_phi_uphi0, noise.gamma_phi_uphi0,
                                          noise.temperature_k)
    assert np.array_equal(res.curve.rate, simulate_curve(phis, res.params).rate)


@pytest.mark.parametrize("bias_mode", ["fixed", "per_bias"])
def test_full_model_curve_is_a_dataset(circuit, bias_mode):
    noise = FullModelNoise(w_phi_uphi0=REF["w_phi_uphi0"],
                           gamma_phi_uphi0=REF["gamma_phi_uphi0"],
                           tan_delta_c=2.07e-3,
                           temperature_k=REF["temperature_k"])
    res = full_model_rate(circuit, noise, np.linspace(-400.0, 2900.0, 9),
                          bias_mode=bias_mode)
    assert type(res.curve) is RateDataset
    assert res.curve.ip_a == res.params.ip_a and res.curve.well == "L"


def test_full_model_zeta_mapping_close_to_fitted_value(circuit):
    # the loss-tangent route to the relaxation strength lands near the
    # directly fitted charge broadening
    noise = FullModelNoise(w_phi_uphi0=37.2, gamma_phi_uphi0=0.54,
                           tan_delta_c=2.07e-3, temperature_k=7.3e-3)
    res = full_model_rate(circuit, noise, np.linspace(0.0, 100.0, 5))
    assert res.params.zeta_phi_uphi0 == pytest.approx(4.53, rel=0.10)
    assert res.solver["v31_volt"] * 1e6 == pytest.approx(7.13, abs=0.05)


def test_per_bias_mode_equals_the_solve_wells_reference(circuit):
    # each bias from a full solve_wells basis, each peak's line shape at its
    # exact energy, as the per-bias mode computes from energies alone
    noise = FullModelNoise(w_phi_uphi0=37.2, gamma_phi_uphi0=0.54,
                           tan_delta_c=2.07e-3, temperature_k=7.3e-3)
    # the window ends and its centre are nodes of every interpolant, where
    # the interpolated energies are the solved ones
    phis = np.array([-100.0, 100.0, 300.0])
    res = full_model_rate(circuit, noise, phis, bias_mode="per_bias", n_points=1024)
    p = res.params
    shapes = LineShapes(p, phis.min(), phis.max())
    expect = []
    for phi in phis:
        pot = effective_potential(replace(circuit, phi_x_uphi0=float(phi)), 1024)
        b = solve_wells(pot, circuit.c_f, compute_amplitudes=False)
        eps = b.energies_ghz[0] - b.energies_ghz[1]
        expect.append(
            oracles.rate_coef(p.delta01_ghz) * shapes.shape01(eps)[0]
            + oracles.rate_coef(p.delta03_ghz)
            * shapes.shape03(eps - b.omega31_ghz + p.nu31_ghz())[0])
    np.testing.assert_allclose(res.curve.rate, expect, rtol=1e-12)


@pytest.mark.parametrize("phi_cjj_x", [-0.76, -0.755, -0.75, -0.745, -0.74, -0.735])
def test_per_bias_interpolant_matches_the_exact_loop(phi_cjj_x):
    # the interpolated level energies differ from the same discretization
    # solved at every bias by the solver's rounding noise, about 1e-12 GHz
    # at 128 points
    circuit = RfSquidParams(**dict(REF_CIRCUIT, phi_cjj_x=phi_cjj_x))
    noise = FullModelNoise(w_phi_uphi0=37.2, gamma_phi_uphi0=0.54,
                           tan_delta_c=2.07e-3, temperature_k=7.3e-3)
    phis = np.linspace(-500.0, 3000.0, 60)
    res = full_model_rate(circuit, noise, phis, bias_mode="per_bias")
    assert res.solver["bias_tail_ghz"] < 1e-10
    energies = np.array([
        solve_wells(effective_potential(replace(circuit, phi_x_uphi0=float(phi))),
                    circuit.c_f, compute_amplitudes=False).energies_ghz
        for phi in phis])
    eps, om31 = energies[:, 0] - energies[:, 1], energies[:, 3] - energies[:, 1]
    np.testing.assert_allclose(res.curve.rate,
                               oracles.per_bias_rate(res.params, phis, eps, om31),
                               rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("phis, error", [
    ([], ValidationError),
    ([[0.0, 100.0], [200.0, 300.0]], ValidationError),
    ([0.0, math.nan, 200.0], DomainError),
    ([0.0, math.inf], DomainError),
    ([300.0, 100.0], ValidationError),
    ([100.0, 100.0], ValidationError),
    ([150.0], None),
], ids=["empty", "2d", "nan", "inf", "decreasing", "repeated", "one_bias"])
def test_per_bias_biases_checked_before_any_solve(circuit, monkeypatch, phis, error):
    noise = FullModelNoise(w_phi_uphi0=37.2, gamma_phi_uphi0=0.54,
                           tan_delta_c=2.07e-3, temperature_k=7.3e-3)
    if error is not None:
        calls = counted_solves(monkeypatch)
        with pytest.raises(error):
            full_model_rate(circuit, noise, phis, bias_mode="per_bias")
        assert calls == []
        return
    # a single bias is a zero-width window, solved directly
    res = full_model_rate(circuit, noise, phis, bias_mode="per_bias")
    fixed = full_model_rate(circuit, noise, phis)
    assert res.solver["bias_nodes"] == 1
    assert np.all(np.isfinite(res.curve.rate))
    np.testing.assert_allclose(res.curve.rate, fixed.curve.rate, rtol=0.1)


def test_full_model_per_bias_mode_close_to_fixed(circuit):
    noise = FullModelNoise(w_phi_uphi0=37.2, gamma_phi_uphi0=0.54,
                           tan_delta_c=2.07e-3, temperature_k=7.3e-3)
    phis = np.linspace(-100.0, 300.0, 7)
    fixed = full_model_rate(circuit, noise, phis, bias_mode="fixed")
    per_bias = full_model_rate(circuit, noise, phis, bias_mode="per_bias",
                               n_points=256)
    # the linearized map is accurate near the zeroth peak; deviations grow
    # in the far wings where the level-spacing bias dependence enters,
    # which is exactly what this mode exists to quantify
    core = fixed.curve.rate > fixed.curve.rate.max() / 100.0
    np.testing.assert_allclose(per_bias.curve.rate[core],
                               fixed.curve.rate[core], rtol=0.1)
    assert np.all(per_bias.curve.rate > 0)
    with pytest.raises(ValidationError):
        full_model_rate(circuit, noise, phis, bias_mode="bogus")
