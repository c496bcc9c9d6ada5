import math

import pytest
from hypothesis import given, strategies as st

from mrtfit import units
from mrtfit.errors import DomainError

from oracles import E_CH, H, HBAR, K_B, PHI0


def test_constants_exact_relations():
    assert units.hbar == units.h / (2 * math.pi)
    assert units.Phi0 == units.h / (2 * units.e)
    assert units.h == 6.62607015e-34
    assert units.e == 1.602176634e-19
    assert units.k_B == 1.380649e-23


def test_flux_to_energy_zero_bias():
    assert units.flux_to_energy(0.0, 1.37e-6) == 0.0


def test_flux_to_energy_unit_values():
    # 2 ip Phi0 / h reduces exactly to ip / e; 1 uA and 1 uPhi0 give 6.2415 MHz
    got = units.flux_to_energy(1.0, 1.0e-6)
    expect = 1.0e-6 / E_CH * 1e-6 / 1e9
    assert got == pytest.approx(expect, rel=1e-12)
    assert got == pytest.approx(6.241509074e-3, rel=1e-9)


def test_flux_to_energy_reference_peak_separation():
    # the measured peak separation converts to 18.42 GHz with the stated
    # persistent current (2 I_p Phi31 / h); the companion 9.17 GHz figure in
    # the source material is inconsistent with its own formula by a factor
    # of two and is not asserted here
    got = units.flux_to_energy(2153.6, 1.37e-6)
    assert got == pytest.approx(2 * 1.37e-6 * 2153.6e-6 * PHI0 / H / 1e9, rel=1e-12)
    assert got == pytest.approx(18.4151, rel=1e-4)


def test_flux_to_energy_linearity():
    one = units.flux_to_energy(7.7, 2.0e-6)
    assert units.flux_to_energy(15.4, 2.0e-6) == pytest.approx(2 * one, rel=1e-12)
    assert units.flux_to_energy(7.7, 4.0e-6) == pytest.approx(2 * one, rel=1e-12)


def test_flux_to_energy_rejects_bad_current():
    with pytest.raises(DomainError):
        units.flux_to_energy(1.0, 0.0)
    with pytest.raises(DomainError):
        units.energy_to_flux(1.0, -1e-6)


@given(st.floats(-1e4, 1e4), st.floats(1e-8, 1e-4))
def test_flux_energy_round_trip(phi, ip):
    back = units.energy_to_flux(units.flux_to_energy(phi, ip), ip)
    assert back == pytest.approx(phi, rel=1e-12, abs=1e-12)


def test_kelvin_ghz_round_trip():
    t = 7.3e-3
    assert units.ghz_to_kelvin(units.kelvin_to_ghz(t)) == pytest.approx(t, rel=1e-14)
    assert units.kelvin_to_ghz(t) == pytest.approx(K_B * t / H / 1e9, rel=1e-14)


def test_derive_eta_reference_value():
    # direct SI arithmetic; agrees with the quoted 5.9 +- 0.5 e-2
    eta = units.derive_eta(0.54, 1.37e-6, 7.3e-3)
    expect = 4 * 1.37e-6 * 0.54e-6 * PHI0 / (K_B * 7.3e-3)
    assert eta == pytest.approx(expect, rel=1e-12)
    assert abs(eta - 5.9e-2) < 0.5e-2


def test_derive_eta_trivial_and_linear():
    assert units.derive_eta(0.0, 1.37e-6, 7.3e-3) == 0.0
    one = units.derive_eta(0.54, 1.37e-6, 7.3e-3)
    two = units.derive_eta(1.08, 1.37e-6, 7.3e-3)
    assert two == pytest.approx(2 * one, rel=1e-12)
    with pytest.raises(DomainError):
        units.derive_eta(0.54, 1.37e-6, 0.0)


def test_shunt_resistance_reference_value():
    r_s, tan_l = units.derive_shunt_and_inductive_loss(
        0.54, 1.37e-6, 250e-12, 7.3e-3, omegas=(2 * math.pi * 1e9,))
    expect = 2 * 1.37e-6 * (250e-12) ** 2 * K_B * 7.3e-3 / (HBAR * 0.54e-6 * PHI0)
    assert r_s == pytest.approx(expect, rel=1e-12)
    assert abs(r_s - 147e3) < 13e3
    assert abs(tan_l[0][1] - 10.6e-6) < 0.9e-6


def test_inductive_loss_linear_in_omega():
    _, tan_l = units.derive_shunt_and_inductive_loss(
        0.54, 1.37e-6, 250e-12, 7.3e-3,
        omegas=(2 * math.pi * 1e9, 4 * math.pi * 1e9))
    assert tan_l[1][1] == pytest.approx(2 * tan_l[0][1], rel=1e-12)


def test_no_ohmic_noise_gives_infinite_shunt():
    r_s, tan_l = units.derive_shunt_and_inductive_loss(
        0.0, 1.37e-6, 250e-12, 7.3e-3, omegas=(2 * math.pi * 1e9,))
    assert math.isinf(r_s)
    assert tan_l[0][1] == 0.0


def test_tan_delta_c_reference_value():
    val = units.derive_tan_delta_c(4.53, 2153.6)
    assert val == pytest.approx(4.53 / 2153.6, rel=1e-14)
    assert abs(val - 2.07e-3) < 0.04e-3
    assert units.derive_tan_delta_c(0.0, 2153.6) == 0.0
    assert units.derive_tan_delta_c(2.1536, 2153.6) == pytest.approx(1e-3, rel=1e-12)
    with pytest.raises(DomainError):
        units.derive_tan_delta_c(4.53, 0.0)


@given(st.floats(1e-3, 1e2), st.floats(1e-7, 1e-5), st.floats(1e-11, 1e-9),
       st.floats(1e-3, 5e-2))
def test_shunt_eta_product_identity(gamma_phi, ip, inductance, t_k):
    # eliminating the ohmic width between the two conversions:
    # R_S * eta = 8 ip^2 L^2 / hbar
    eta = units.derive_eta(gamma_phi, ip, t_k)
    r_s, _ = units.derive_shunt_and_inductive_loss(gamma_phi, ip, inductance, t_k)
    assert r_s * eta == pytest.approx(8 * ip**2 * inductance**2 / HBAR, rel=1e-12)


def test_unit_system_invariance_of_eta():
    # the same metric through SI arithmetic and through the internal
    # GHz-frequency route must coincide
    gamma_phi, ip, t_k = 0.54, 1.37e-6, 7.3e-3
    si = units.derive_eta(gamma_phi, ip, t_k)
    internal = 2 * units.flux_to_energy(gamma_phi, ip) / units.kelvin_to_ghz(t_k)
    assert si == pytest.approx(internal, rel=1e-12)


def test_noise_summary_bundles_consistently():
    s = units.noise_summary(0.54, 4.53, 2153.6, 1.37e-6, 250e-12, 7.3e-3)
    assert s.eta == units.derive_eta(0.54, 1.37e-6, 7.3e-3)
    assert s.tan_delta_c == units.derive_tan_delta_c(4.53, 2153.6)
    r_s, tan_l = units.derive_shunt_and_inductive_loss(
        0.54, 1.37e-6, 250e-12, 7.3e-3, units.DEFAULT_LOSS_OMEGAS)
    assert s.r_shunt_ohm == r_s
    assert s.tan_delta_l_at == tan_l
