"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured numbers.

Criterion 6 is split: the solver-quantity checks pass; the pointwise
factor-3 comparison between the nominal-circuit full model and the
reference-fit simplified model fails honestly and is documented, because
the tunneling amplitudes are exponentially sensitive to the circuit
parameters (the computed ground-pair amplitude is 4.9 times the fitted
one, so the zeroth-peak rates differ by a factor of about 24).
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
from scipy.integrate import quad

from mrtfit import (
    FullModelNoise,
    LineShapes,
    MrtParams,
    RateDataset,
    RfSquidParams,
    dataio,
    effective_potential,
    envelopes,
    fit,
    full_model_rate,
    harmonic_v31,
    initial_guess,
    peak_rates,
    simulate_curve,
    solve_wells,
)
from mrtfit.cli import main as cli_main
from mrtfit.units import energy_to_flux, flux_to_energy, kelvin_to_ghz

import oracles
from conftest import REF, REF_CIRCUIT


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def ref_params(**overrides) -> MrtParams:
    return MrtParams(**{**REF, **overrides})


# ---------------------------------------------------------------------------
# 1. derived-metric reproduction through the CLI

def test_criterion_1_derived_metrics(capsys):
    t0 = time.perf_counter()
    code = cli_main(["derive", "--gamma-phi", "0.54", "--zeta-phi", "4.53",
                     "--phi31", "2153.6", "--ip-ua", "1.37", "--l-ph", "250",
                     "--t-mk", "7.3", "--format", "json"])
    elapsed = time.perf_counter() - t0
    out = json.loads(capsys.readouterr().out)
    eta = float(out["eta"])
    r_s = float(out["r_shunt_kohm"]) * 1e3
    tdc = float(out["tan_delta_c"])
    tdl = float(out["tan_delta_l_1ghz"])
    checks = [
        abs(eta - 5.9e-2) <= 0.5e-2,
        abs(r_s - 147e3) <= 13e3,
        abs(tdc - 2.07e-3) <= 0.04e-3,
        abs(tdl - 10.6e-6) <= 0.9e-6,
        code == 0,
        elapsed < 1.0,
    ]
    with capsys.disabled():
        report("criterion 1 (derived metrics)", all(checks),
               f"eta={eta:.3e} R_S={r_s/1e3:.1f}kOhm tan_dC={tdc:.3e} "
               f"tan_dL={tdl:.3e} runtime={elapsed*1e3:.0f}ms")
    assert all(checks)


# ---------------------------------------------------------------------------
# 2. round-trip fit, 50-seed Monte Carlo

TOL_C2 = {"delta01_ghz": 0.03, "w_phi_uphi0": 0.03, "phi31_uphi0": 1e-3,
          "zeta_phi_uphi0": 0.10, "gamma_phi_uphi0": 0.25,
          "temperature_k": 0.15}


def test_criterion_2_monte_carlo_round_trip(capsys):
    truth = ref_params()
    phi = np.linspace(-500.0, 3000.0, 200)
    clean = simulate_curve(phi, truth).rate
    fields = list(TOL_C2)
    samples = {f: [] for f in fields}
    sigma_w = []
    slowest = 0.0
    for seed in range(50):
        rng = np.random.default_rng(42_000 + seed)
        noisy = clean * np.exp(0.05 * rng.standard_normal(len(phi)))
        ds = RateDataset(phi_x=phi, rate=noisy, ip_a=truth.ip_a,
                         sigma_rel=np.full(len(phi), 0.05))
        t0 = time.perf_counter()
        result = fit(ds, guess=initial_guess(ds))
        slowest = max(slowest, time.perf_counter() - t0)
        for f in fields:
            samples[f].append(getattr(result.params, f))
        sigma_w.append(result.uncertainties["w_phi"])
    med_err = {f: abs(np.median(samples[f]) / getattr(truth, f) - 1.0)
               for f in fields}
    ok_params = all(med_err[f] <= TOL_C2[f] for f in fields)
    spread_ratio = np.std(samples["w_phi_uphi0"], ddof=1) / np.median(sigma_w)
    ok_spread = 0.5 <= spread_ratio <= 2.0
    ok_time = slowest < 60.0
    detail = (" ".join(f"{f.split('_')[0]}={med_err[f]:.2%}" for f in fields)
              + f" | W spread/sigma={spread_ratio:.2f}"
              + f" | slowest fit={slowest:.1f}s")
    with capsys.disabled():
        report("criterion 2 (Monte Carlo round trip)",
               ok_params and ok_spread and ok_time, detail)
    assert ok_params and ok_spread and ok_time


# ---------------------------------------------------------------------------
# 3. limiting-regime equivalence

def test_criterion_3_limiting_regimes(capsys):
    # pure-Gaussian limit: no ohmic broadening anywhere on the curve
    p_gauss = ref_params(gamma_phi_uphi0=0.0, zeta_phi_uphi0=0.0)
    phis = np.linspace(-400.0, 2900.0, 401)
    got = peak_rates(phis, p_gauss)[0]
    w = p_gauss.w_ghz()
    ep = w * w / (2.0 * p_gauss.temperature_ghz())
    eps = flux_to_energy(phis, p_gauss.ip_a)
    expect = (oracles.rate_coef(p_gauss.delta01_ghz)
              * np.exp(-((eps - ep) ** 2) / (2 * w * w))
              / math.sqrt(2 * math.pi) / w)
    # beyond about 37 widths the values leave the normal float range
    live = expect > 1e-300
    gauss_err = float(np.max(np.abs(got[live] / expect[live] - 1.0)))
    ok_gauss = gauss_err < 1e-6 and np.all(got[~live] < 1e-300)

    # vanishing Gaussian width: ohmic-dominated regime at large bias
    p_br = ref_params(w_phi_uphi0=0.01, zeta_phi_uphi0=0.0)
    t = p_br.temperature_ghz()
    eta = 2.0 * p_br.gamma_ghz() / t
    br_errs = []
    for eps_b in (1.0, 2.0, 3.0):
        got_b = peak_rates(energy_to_flux(eps_b, p_br.ip_a), p_br)[0][0]
        bloch = (p_br.delta01_ghz**2 / (4 * eps_b)) * eta * 2e3 * math.pi \
            / (-math.expm1(-eps_b / t))
        br_errs.append(abs(got_b / bloch - 1.0))
    ok_br = max(br_errs) < 0.01

    # white-noise peak at zero bias
    got_w = peak_rates(0.0, p_br)[0][0]
    white = oracles.rate_coef(p_br.delta01_ghz) / (math.pi * p_br.gamma_ghz())
    white_err = abs(got_w / white - 1.0)
    ok_white = white_err < 0.01

    with capsys.disabled():
        report("criterion 3 (limiting regimes)", ok_gauss and ok_br and ok_white,
               f"gauss={gauss_err:.1e} bloch-redfield={max(br_errs):.1e} "
               f"white-noise={white_err:.1e}")
    assert ok_gauss and ok_br and ok_white


# ---------------------------------------------------------------------------
# 4. oracle equivalence of the FFT pipeline

def test_criterion_4_oracle_equivalence(capsys):
    rng = np.random.default_rng(777)
    worst = 0.0
    n_checked = 0
    for k in range(10):
        w_phi = rng.uniform(15.0, 60.0)
        gamma_phi = w_phi * 10 ** rng.uniform(-2.0, 0.0)
        zeta_phi = 0.0 if k == 0 else w_phi * rng.uniform(0.02, 0.5)
        t_k = rng.uniform(5e-3, 15e-3)
        phi31 = rng.uniform(1500.0, 2500.0)
        p = ref_params(w_phi_uphi0=w_phi, gamma_phi_uphi0=gamma_phi,
                       zeta_phi_uphi0=zeta_phi, temperature_k=t_k,
                       phi31_uphi0=phi31)
        shapes = LineShapes(p, -0.3 * phi31, 1.45 * phi31)
        wf, gf, zf = p.w_ghz(), p.gamma_ghz(), p.zeta_ghz()
        tf, nu31 = p.temperature_ghz(), p.nu31_ghz()
        c1 = oracles.rate_coef(p.delta01_ghz)
        c3 = oracles.rate_coef(p.delta03_ghz)

        def oracle_total(phi_u):
            eps = oracles.flux_ghz(phi_u, p.ip_a)
            val = c1 * oracles.quad_g01(eps, wf, gf, tf)
            if zf > 0:
                val += c3 * oracles.quad_g03(eps, wf, gf, zf, tf, nu31)
            else:
                val += c3 * oracles.quad_g01(eps - nu31, wf, gf, tf)
            return val

        ep_phi = energy_to_flux(wf * wf / (2 * tf), p.ip_a)
        peak = oracle_total(phi31 + ep_phi)
        accepted = 0
        attempts = 0
        while accepted < 30 and attempts < 120:
            attempts += 1
            phi_u = rng.uniform(-0.3 * phi31, 1.45 * phi31)
            expect = oracle_total(phi_u)
            if expect < 1e-6 * peak:     # accuracy is unconstrained below
                continue                 # one millionth of the peak
            r01, r03 = shapes.rates(np.array([phi_u]))
            got = float(r01[0] + r03[0])
            worst = max(worst, abs(got / expect - 1.0))
            accepted += 1
            n_checked += 1
        assert accepted == 30, "bias sampler starved"
    ok = worst < 1e-3
    with capsys.disabled():
        report("criterion 4 (oracle equivalence)", ok,
               f"worst |fft/quad - 1| = {worst:.2e} over {n_checked} biases "
               "in 10 parameter sets")
    assert ok


# ---------------------------------------------------------------------------
# 5. property suites

def test_criterion_5_property_suites(capsys):
    t = kelvin_to_ghz(REF["temperature_k"])
    details = []

    hf = (flux_to_energy(0.54, REF["ip_a"]), t)
    nus = np.linspace(1e-4, 20.0, 401) * t
    db_h = np.max(np.abs(envelopes.g_high(nus, *hf) * np.exp(-nus / t)
                         / envelopes.g_high(-nus, *hf) - 1.0))
    zeta = flux_to_energy(4.53, REF["ip_a"])
    nu31 = flux_to_energy(2153.6, REF["ip_a"])
    db_r = np.max(np.abs(oracles.intrawell_rate(nus, zeta, t) * np.exp(-nus / t)
                         / oracles.intrawell_rate(-nus, zeta, t) - 1.0))
    ok_db = db_h < 1e-12 and db_r < 1e-12
    details.append(f"detailed balance {max(db_h, db_r):.1e}")

    p = ref_params()
    w, shift = p.w_ghz(), p.shift_ghz()
    fdt = abs(w**2 - 2.0 * t * shift) / w**2
    ok_fdt = fdt < 1e-12
    details.append(f"FDT {fdt:.1e}")

    lf, rx = (w, shift), (zeta, nu31, t)
    lo, hi = oracles.normalization_domain(envelopes.g_low, *lf)
    n_low = quad(lambda x: float(envelopes.g_low(x, *lf)), lo, hi, limit=200)[0]
    lo, hi = oracles.normalization_domain(envelopes.g_high, *hf)
    n_high = quad(lambda x: float(envelopes.g_high(x, *hf)), lo, hi,
                  points=[0.0], limit=400)[0]
    lo, hi = oracles.normalization_domain(envelopes.g_relax, *rx)
    n_rel = quad(lambda x: float(envelopes.g_relax(x, *rx)), lo, hi,
                 points=[0.0, -nu31], limit=600)[0]
    ok_norm = (abs(n_low - 1) < 1e-9 and abs(n_high - 1) <= 0.03
               and abs(n_rel - 1) <= 0.03)
    details.append(f"norms gauss={n_low - 1:.1e} ohmic={n_high - 1:+.3f} "
                   f"relax={n_rel - 1:+.4f}")

    phis = np.linspace(-2500.0, 2500.0, 101)
    mirror = np.max(np.abs(sum(peak_rates(phis, p, "R"))
                           / sum(peak_rates(-phis, p, "L")) - 1.0))
    ok_mirror = mirror < 1e-12
    details.append(f"mirror {mirror:.1e}")

    valley = [sum(peak_rates(1100.0, replace(p, zeta_phi_uphi0=z)))[0]
              for z in (1.0, 2.0, 4.0, 8.0)]
    ok_valley = all(b > a for a, b in zip(valley, valley[1:]))
    tail_phi = 400.0
    tails = [peak_rates(tail_phi, replace(p, gamma_phi_uphi0=g,
                                          zeta_phi_uphi0=0.0))[0][0]
             for g in (0.25, 0.5, 1.0, 2.0)]
    ok_tail = all(b > a for a, b in zip(tails, tails[1:]))
    details.append(f"valley ladder {'up' if ok_valley else 'BROKEN'}, "
                   f"tail ladder {'up' if ok_tail else 'BROKEN'}")

    ok = ok_db and ok_fdt and ok_norm and ok_mirror and ok_valley and ok_tail
    with capsys.disabled():
        report("criterion 5 (property suites)", ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 6. full-model cross-validation

def test_criterion_6_solver_quantities(capsys):
    t0 = time.perf_counter()
    circuit = RfSquidParams(**REF_CIRCUIT)
    pot = effective_potential(circuit)
    basis = solve_wells(pot, circuit.c_f)
    ip = basis.ip_a
    omega31 = float(basis.omega31_ghz)
    d01 = basis.delta_ghz[(0, 1)]
    pot_res = effective_potential(replace(circuit, phi_x_uphi0=2153.6))
    basis_res = solve_wells(pot_res, circuit.c_f, compute_amplitudes=False)
    v_num = basis_res.voltage_v[1, 3]
    v_harm = harmonic_v31(2 * math.pi * basis_res.omega31_ghz * 1e9,
                          circuit.c_f)
    elapsed = time.perf_counter() - t0

    ok_ip = abs(ip - 1.37e-6) / 1.37e-6 < 0.10
    # the published peak separation and persistent current imply a level
    # spacing of 2 I_p Phi31 / h = 18.42 GHz; the companion printed value of
    # 9.17 GHz contradicts that formula by a factor of two, so the verified
    # formula value anchors this check (see the decisions ledger)
    anchor = flux_to_energy(2153.6, 1.37e-6)
    ok_omega = abs(omega31 - anchor) / anchor < 0.15
    ok_v31 = abs(v_harm - v_num) / v_num < 0.20
    ok_d01 = 0.1 < d01 / 2.72e-3 < 10.0
    ok_time = elapsed < 30.0
    ok = ok_ip and ok_omega and ok_v31 and ok_d01 and ok_time
    with capsys.disabled():
        report("criterion 6a (solver quantities)", ok,
               f"I_P={ip*1e6:.3f}uA ({(ip - 1.37e-6)/1.37e-6:+.1%}); "
               f"omega31={omega31:.2f}GHz vs formula anchor {anchor:.2f}GHz "
               f"({(omega31-anchor)/anchor:+.1%}; printed 9.17GHz value fails "
               f"its own defining formula); V31 harm/num={v_harm/v_num:.3f}; "
               f"delta01={d01*1e3:.2f}MHz ({d01/2.72e-3:.1f}x fitted); "
               f"runtime={elapsed:.1f}s")
    assert ok


def test_criterion_6_full_vs_simplified_factor3(capsys):
    """Stated criterion: nominal-circuit full-model curve within a factor of
    3 of the simplified reference-fit curve wherever the rate exceeds
    1e-4 per us.

    This is expected to fail and is kept failing deliberately: the
    ground-pair amplitude computed from the nominal circuit values is 4.9
    times the fitted amplitude (tunneling amplitudes are exponentially
    sensitive to critical current and junction bias, and the fitted device
    was calibrated far beyond the three printed digits), which puts the
    zeroth-peak rates a factor of about 24 apart, and the computed
    resonance bias sits 2.7 percent from the measured one, which alone
    breaks a pointwise ratio on the steep peak flanks.  The shape-level
    agreement with amplitudes overridden is reported alongside.
    """
    circuit = RfSquidParams(**REF_CIRCUIT)
    noise = FullModelNoise(w_phi_uphi0=REF["w_phi_uphi0"],
                           gamma_phi_uphi0=REF["gamma_phi_uphi0"],
                           tan_delta_c=2.07e-3,
                           temperature_k=REF["temperature_k"])
    phis = np.linspace(-500.0, 3000.0, 301)
    full = full_model_rate(circuit, noise, phis)
    simple = simulate_curve(phis, ref_params())
    mask = (full.curve.rate > 1e-4) | (simple.rate > 1e-4)
    ratio = full.curve.rate[mask] / simple.rate[mask]
    worst = float(np.max(np.maximum(ratio, 1.0 / ratio)))
    chi2 = float(np.sum((np.log(full.curve.rate[mask])
                         - np.log(simple.rate[mask])) ** 2))

    # informational shape comparison: amplitudes pinned to the fitted values
    normalized = simulate_curve(phis, replace(full.params,
                                              delta01_ghz=REF["delta01_ghz"],
                                              delta03_ghz=REF["delta03_ghz"]))
    ratio_n = normalized.rate[mask] / simple.rate[mask]
    worst_n = float(np.max(np.maximum(ratio_n, 1.0 / ratio_n)))

    ok = worst <= 3.0
    with capsys.disabled():
        report("criterion 6b (full vs simplified, factor 3 pointwise)", ok,
               f"worst pointwise ratio {worst:.1f} (log-space chi2 {chi2:.0f}; "
               f"amplitude ratios d01 {full.solver['delta01_ghz']/REF['delta01_ghz']:.2f}x, "
               f"d03 {full.solver['delta03_ghz']/REF['delta03_ghz']:.2f}x; "
               f"resonance offset {full.solver['phi31_uphi0'] - 2153.6:+.0f} uPhi0; "
               f"with fitted amplitudes the worst ratio is {worst_n:.1f})")
    assert ok, (
        f"full-vs-simplified pointwise ratio reaches {worst:.1f} (> 3). "
        "Expected red: the solver amplitude ratios are "
        f"{full.solver['delta01_ghz']/REF['delta01_ghz']:.2f}x and "
        f"{full.solver['delta03_ghz']/REF['delta03_ghz']:.2f}x because the "
        "amplitudes depend exponentially on circuit parameters known only "
        "to three digits, and the computed resonance bias "
        f"({full.solver['phi31_uphi0']:.0f} uPhi0) sits 2.7% from the "
        "measured 2153.6 uPhi0, which alone exceeds a factor 3 on the "
        "peak flanks. See the decisions ledger for the full analysis.")


# ---------------------------------------------------------------------------
# 7. qualitative regeneration of the simulated families

def _fwhm_from_table(path, column):
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = rows[0].split(",")
    idx = header.index(column)
    phi = np.array([float(r.split(",")[0]) for r in rows[1:]])
    rate = np.array([float(r.split(",")[idx]) for r in rows[1:]])
    i = int(np.argmax(rate))
    half = rate[i] / 2.0
    left = np.interp(half, rate[: i + 1], phi[: i + 1])
    right = np.interp(half, rate[i:][::-1], phi[i:][::-1])
    return right - left


def test_criterion_7_family_tables(tmp_path, capsys):
    base = dict(delta01_ghz=2e-3, delta03_ghz=20e-3, temperature_k=5e-3,
                ip_a=REF["ip_a"], phi31_uphi0=REF["phi31_uphi0"])

    # (a) zeroth-peak width ordering in the low-frequency noise amplitude
    fwhm = {}
    for w in (10.0, 30.0):
        p = MrtParams(**base, w_phi_uphi0=w, gamma_phi_uphi0=10.0,
                      zeta_phi_uphi0=1.0)
        phis = np.linspace(-200.0, 250.0, 901)
        shapes = LineShapes(p, -200.0, 250.0)
        curve0 = RateDataset(phi_x=phis, rate=shapes.rates(phis)[0], ip_a=p.ip_a)
        path = tmp_path / f"fig_a_w{w:.0f}.csv"
        dataio.write_curve_table(path, {"peak0": curve0})
        fwhm[w] = _fwhm_from_table(path, "rate_peak0_per_us")
    ok_a = fwhm[30.0] > fwhm[10.0]

    # (b) tail asymmetry grows with the ohmic broadening
    asym = []
    for g in (1.0, 3.0, 10.0):
        p = MrtParams(**base, w_phi_uphi0=35.0, gamma_phi_uphi0=g,
                      zeta_phi_uphi0=1.0)
        w_ghz = p.w_ghz()
        ep_phi = energy_to_flux(w_ghz**2 / (2 * p.temperature_ghz()), p.ip_a)
        x = 4.0 * 35.0
        up = peak_rates(ep_phi + x, p)[0][0]
        down = peak_rates(ep_phi - x, p)[0][0]
        asym.append(up / down)
    ok_b = all(b > a for a, b in zip(asym, asym[1:]))

    # (c) valley level strictly increasing in the charge broadening
    valley = []
    for z in (1.0, 2.0, 4.0, 8.0):
        p = MrtParams(**base, w_phi_uphi0=35.0, gamma_phi_uphi0=3.0,
                      zeta_phi_uphi0=z)
        phis = np.linspace(900.0, 1300.0, 41)
        curve = simulate_curve(phis, p)
        path = tmp_path / f"fig_c_z{z:.0f}.csv"
        dataio.write_curve_table(path, {"total": curve})
        rows = [l for l in path.read_text().splitlines()
                if not l.startswith("#")][1:]
        valley.append(min(float(r.split(",")[1]) for r in rows))
    ok_c = all(b > a for a, b in zip(valley, valley[1:]))

    ok = ok_a and ok_b and ok_c
    with capsys.disabled():
        report("criterion 7 (family tables)", ok,
               f"FWHM(W=10)={fwhm[10.0]:.0f} < FWHM(W=30)={fwhm[30.0]:.0f} uPhi0; "
               f"asymmetry ladder {asym[0]:.1f} -> {asym[-1]:.1f}; "
               f"valley ladder {valley[0]:.2e} -> {valley[-1]:.2e}")
    assert ok
