import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mrtfit
from mrtfit import (
    FitConfig,
    MrtParams,
    RateDataset,
    batch_fit,
    dataio,
    fit,
    initial_guess,
    simulate_curve,
)
from mrtfit.errors import ConvergenceError, ValidationError
import mrtfit.fitter as fitter
from mrtfit.fitter import PARAM_NAMES, _Objective, _x_of
from mrtfit.rate_model import FIT_PARAMS, SHAPE_FIELDS
from mrtfit.units import noise_summary

from conftest import NARROW_CORE, REF

IP = REF["ip_a"]
FIELD = {q.name: q.field for q in FIT_PARAMS}
ALL_FREE = np.arange(len(PARAM_NAMES))


def vector(params: MrtParams) -> np.ndarray:
    """The fit-parameter vector of ``params`` in FIT_PARAMS order."""
    return np.array([getattr(params, q.field) for q in FIT_PARAMS])


def synth_dataset(params: MrtParams, seed=None, noise_rel=0.05, n=200,
                  lo=-500.0, hi=3000.0, well="L") -> RateDataset:
    phi = np.linspace(lo, hi, n)
    curve = simulate_curve(phi, params, init_well=well)
    rate = curve.rate
    sigma = None
    if seed is not None:
        rng = np.random.default_rng(seed)
        rate = rate * np.exp(noise_rel * rng.standard_normal(n))
        sigma = np.full(n, noise_rel)
    return RateDataset(phi_x=phi, rate=rate, ip_a=params.ip_a,
                       sigma_rel=sigma, well=well)


def rel_errs(fitted: MrtParams, truth: MrtParams) -> dict:
    out = {}
    for name in PARAM_NAMES:
        field = FIELD[name]
        t = getattr(truth, field)
        out[name] = (getattr(fitted, field) - t) / t if t else math.nan
    return out


# ---------------------------------------------------------------------------
# dataset type

def test_dataset_validation():
    with pytest.raises(ValidationError):
        RateDataset(phi_x=np.array([1.0]), rate=np.array([0.0]), ip_a=IP)
    with pytest.raises(ValidationError):
        RateDataset(phi_x=np.array([1.0]), rate=np.array([1.0]), ip_a=IP,
                    well="X")
    with pytest.raises(ValidationError):
        RateDataset(phi_x=np.array([1.0, 2.0]), rate=np.array([1.0, 1.0]),
                    ip_a=IP, sigma_rel=np.array([0.05, -0.01]))


@pytest.mark.parametrize("field", ["phi_x", "rate", "sigma_rel"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_dataset_rejects_non_finite_values(field, bad):
    columns = {"phi_x": np.array([1.0, 2.0, 3.0]),
               "rate": np.array([1.0, 2.0, 3.0]),
               "sigma_rel": np.array([0.05, 0.05, 0.05])}
    columns[field][1] = bad
    with pytest.raises(ValidationError, match=field.split("_")[0]):
        RateDataset(ip_a=IP, **columns)


def test_dataset_folding_and_mirroring(ref_params):
    ds = synth_dataset(ref_params, n=40)
    mirrored = ds.mirrored()
    assert np.all(mirrored.well_labels() == "R")
    np.testing.assert_array_equal(np.sort(mirrored.folded_phi()),
                                  np.sort(ds.folded_phi()))


# ---------------------------------------------------------------------------
# initial guess

def test_initial_guess_noiseless_within_30_percent(ref_params):
    ds = synth_dataset(ref_params)
    guess = initial_guess(ds)
    assert guess.params.delta03_ghz > 0
    for name, err in rel_errs(guess.params, ref_params).items():
        assert abs(err) < 0.30, (name, err)


def test_initial_guess_mirror_invariant(ref_params):
    ds = synth_dataset(ref_params)
    g_l = initial_guess(ds)
    g_r = initial_guess(ds.mirrored())
    for name in PARAM_NAMES:
        field = FIELD[name]
        assert getattr(g_l.params, field) == getattr(g_r.params, field)


def test_simulated_curve_fits_as_it_is(ref_params):
    # a simulated curve with noisy rates fits bit for bit as the dataset
    # built from its columns
    phi = np.linspace(-500.0, 3000.0, 120)
    curve = simulate_curve(phi, ref_params, init_well="R")
    rng = np.random.default_rng(11)
    noisy = curve.rate * np.exp(0.05 * rng.standard_normal(len(phi)))
    sigma = np.full(len(phi), 0.05)
    direct = fit(replace(curve, rate=noisy, sigma_rel=sigma))
    built = fit(RateDataset(phi_x=phi, rate=noisy, ip_a=ref_params.ip_a,
                            sigma_rel=sigma, well="R"))
    assert direct.params == built.params
    assert direct.chi2 == built.chi2 and direct.n_eval == built.n_eval


def test_initial_guess_truncated_dataset_flags_single_peak(ref_params):
    phi = np.linspace(-200.0, 1200.0, 90)      # stops before the first peak
    curve = simulate_curve(phi, ref_params)
    ds = RateDataset(phi_x=phi, rate=curve.rate, ip_a=IP)
    guess = initial_guess(ds)
    assert guess.params.delta03_ghz == 0.0
    assert guess.params.zeta_phi_uphi0 == 0.0


def test_single_peak_start_with_only_first_peak_parameters_free_is_rejected(ref_params):
    # the single-peak start fixes delta03 and zeta_phi, leaving nothing to fit
    phi = np.linspace(-200.0, 1200.0, 90)
    ds = RateDataset(phi_x=phi, rate=simulate_curve(phi, ref_params).rate, ip_a=IP)
    with pytest.raises(ValidationError, match="single-peak"):
        fit(ds, FitConfig(free=("delta03", "zeta_phi")))


# ---------------------------------------------------------------------------
# fitting

def test_fit_noiseless_recovers_parameters(ref_params):
    ds = synth_dataset(ref_params)          # exact model data
    start = replace(ref_params,
                    delta01_ghz=1.3 * ref_params.delta01_ghz,
                    w_phi_uphi0=0.8 * ref_params.w_phi_uphi0,
                    gamma_phi_uphi0=2.0 * ref_params.gamma_phi_uphi0,
                    zeta_phi_uphi0=0.6 * ref_params.zeta_phi_uphi0,
                    temperature_k=0.010)
    result = fit(ds, FitConfig(), start)
    for name, err in rel_errs(result.params, ref_params).items():
        assert abs(err) < 1e-3, (name, err)
    assert result.chi2 < 1e-10
    assert result.converged


def test_fit_from_automatic_guess_with_noise(ref_params):
    ds = synth_dataset(ref_params, seed=5)
    result = fit(ds)
    errs = rel_errs(result.params, ref_params)
    assert abs(errs["delta01"]) < 0.03
    assert abs(errs["w_phi"]) < 0.03
    assert abs(errs["phi31"]) < 1e-3
    assert abs(errs["zeta_phi"]) < 0.10
    assert abs(errs["gamma_phi"]) < 0.25
    assert abs(errs["temperature"]) < 0.15


def test_noisy_fits_take_few_evaluations(ref_params):
    # the solve stops once the Gauss-Newton decrement is below ftol * cost,
    # before it rejects trials whose cost changes are the objective's
    # rounding noise; on these 24 criterion-2 datasets the mean is 5.79,
    # against 8.96 when those trials ran on until xtol, and the bound
    # leaves 1.2 evaluations of margin
    n_eval = [fit(synth_dataset(ref_params, seed=42_000 + k)).n_eval for k in range(24)]
    assert np.mean(n_eval) < 7


def test_refit_from_a_decrement_stop_evaluates_only_the_start(ref_params):
    # where the first fit stopped on the decrement, no step can lower the
    # cost by ftol * cost: a refit from its end point stops at the start
    for seed in (42_000, 42_001, 42_002):
        ds = synth_dataset(ref_params, seed=seed)
        first = fit(ds)
        assert first.status == "the Gauss-Newton decrement is below ftol", seed
        again = fit(ds, guess=first.params)
        assert again.n_eval == 1 and again.chi2 == first.chi2, seed


def test_objective_amplitude_only_step_matches_fresh_build(ref_params):
    ds = synth_dataset(ref_params, seed=9)
    x = _x_of(vector(ref_params), ALL_FREE)
    moved = x.copy()
    moved[[PARAM_NAMES.index("delta01"), PARAM_NAMES.index("delta03")]] += (1e-4, -3e-4)
    objective = _Objective(ds, ALL_FREE, vector(ref_params))
    objective(x)
    fresh = _Objective(ds, ALL_FREE, vector(ref_params))
    np.testing.assert_array_equal(objective(moved), fresh(moved))
    assert objective.n_eval == 2


def test_fit_builds_line_shapes_once_per_distinct_shape_key(ref_params, monkeypatch):
    built = []
    evaluated = set()

    class CountingLineShapes(fitter.LineShapes):
        def __init__(self, params, *args, **kwargs):
            built.append(tuple(getattr(params, f) for f in SHAPE_FIELDS))
            super().__init__(params, *args, **kwargs)

    call = _Objective.__call__

    def recording_call(self, x):
        evaluated.add(tuple(self.values_at(x)[2:].tolist()))
        return call(self, x)

    monkeypatch.setattr(fitter, "LineShapes", CountingLineShapes)
    monkeypatch.setattr(_Objective, "__call__", recording_call)
    ds = synth_dataset(ref_params, seed=5)
    fit(ds, guess=initial_guess(ds))
    # every shape key the fit evaluated is built exactly once: neither the
    # amplitude-only steps nor the Jacobians rebuild anything
    assert len(built) == len(set(built))
    assert set(built) == evaluated


def _criterion4_draw() -> MrtParams:
    # the third parameter set of the criterion-4 draws
    rng = np.random.default_rng(777)
    for k in range(3):
        w_phi = rng.uniform(15.0, 60.0)
        gamma_phi = w_phi * 10 ** rng.uniform(-2.0, 0.0)
        zeta_phi = 0.0 if k == 0 else w_phi * rng.uniform(0.02, 0.5)
        t_k = rng.uniform(5e-3, 15e-3)
        phi31 = rng.uniform(1500.0, 2500.0)
    return MrtParams(**{**REF, "w_phi_uphi0": w_phi, "gamma_phi_uphi0": gamma_phi,
                        "zeta_phi_uphi0": zeta_phi, "temperature_k": t_k,
                        "phi31_uphi0": phi31})


@pytest.mark.parametrize("case", ["ref", "criterion 4 draw", "mirrored"])
def test_jacobian_matches_central_differences(ref_params, case):
    if case == "criterion 4 draw":
        params = _criterion4_draw()
        phi31 = params.phi31_uphi0
        ds = synth_dataset(params, seed=4, lo=-0.3 * phi31, hi=1.45 * phi31)
    else:
        params = ref_params
        ds = synth_dataset(params, seed=3)
        if case == "mirrored":
            ds = ds.mirrored()
    objective = _Objective(ds, ALL_FREE, vector(params))
    x = _x_of(vector(params), ALL_FREE)
    objective(x)
    jac = objective.jac(x)
    model = sum(objective._peak_rates(vector(params)))
    live = model > 1e-10 * model.max()
    for k, name in enumerate(PARAM_NAMES):
        h = 1e-3 if fitter._LOG[k] else 1e-3 * abs(x[k])
        up, down = x.copy(), x.copy()
        up[k] += h
        down[k] -= h
        fd = (objective(up) - objective(down)) / (2.0 * h)
        err = np.linalg.norm((jac[:, k] - fd)[live])
        assert err < 2e-3 * np.linalg.norm(fd[live]), name


def test_jacobian_at_the_evaluated_point_builds_nothing(ref_params, monkeypatch):
    ds = synth_dataset(ref_params, seed=9)
    objective = _Objective(ds, ALL_FREE, vector(ref_params))
    x = _x_of(vector(ref_params), ALL_FREE)
    objective(x)
    builds, rates = [], []
    monkeypatch.setattr(fitter, "LineShapes",
                        lambda *args, **kwargs: builds.append(1))
    # the rates at x are the ones the evaluation just computed
    monkeypatch.setattr(objective._shapes, "rates",
                        lambda *args, **kwargs: rates.append(1))
    jac = objective.jac(x)
    assert builds == [] and rates == []
    assert jac.shape == (len(ds), len(PARAM_NAMES))
    assert objective.n_eval == 1


FIXED = ("gamma_phi", "temperature")


def test_jacobian_with_fixed_parameters_is_the_matching_all_free_columns(ref_params):
    ds = synth_dataset(ref_params, seed=3)
    free = np.array([k for k, name in enumerate(PARAM_NAMES) if name not in FIXED])
    values = vector(ref_params)
    part = _Objective(ds, free, values)
    full = _Objective(ds, ALL_FREE, values)
    np.testing.assert_array_equal(part.jac(_x_of(values, free)),
                                  full.jac(_x_of(values, ALL_FREE))[:, free])


def test_noiseless_fit_with_fixed_parameters_recovers_the_truth(ref_params):
    config = FitConfig(free=tuple(n for n in PARAM_NAMES if n not in FIXED))
    guess = replace(ref_params, delta01_ghz=1.2 * ref_params.delta01_ghz,
                    delta03_ghz=0.8 * ref_params.delta03_ghz,
                    phi31_uphi0=ref_params.phi31_uphi0 + 15.0,
                    w_phi_uphi0=1.1 * ref_params.w_phi_uphi0,
                    zeta_phi_uphi0=1.5 * ref_params.zeta_phi_uphi0)
    result = fit(synth_dataset(ref_params), config, guess)
    assert result.chi2 < 1e-10
    best = dataio.report_from_fit(result, config)["best_fit"]
    for q in FIT_PARAMS:
        fixed = q.name in FIXED
        assert best[q.label]["fitted"] is not fixed, q.name
        assert (best[q.label]["sigma_1"] is None) is fixed, q.name
        if fixed:
            assert getattr(result.params, q.field) == getattr(ref_params, q.field)


def test_fit_passes_the_exact_jacobian(ref_params, monkeypatch):
    seen = []
    least_squares = fitter.least_squares

    def spy(fun, x0, **kwargs):
        seen.append(kwargs["jac"])
        return least_squares(fun, x0, **kwargs)

    monkeypatch.setattr(fitter, "least_squares", spy)
    fit(synth_dataset(ref_params, seed=5))
    assert seen and all(callable(jac) for jac in seen)
    assert not hasattr(FitConfig(), "diff_step")


def test_fit_that_does_not_converge_raises_after_one_solve(ref_params, monkeypatch):
    calls = []
    least_squares = fitter.least_squares

    def capped(fun, x0, **kwargs):
        calls.append(x0)
        return least_squares(fun, x0, **dict(kwargs, max_nfev=2))

    monkeypatch.setattr(fitter, "least_squares", capped)
    with pytest.raises(ConvergenceError) as info:
        fit(synth_dataset(ref_params, seed=5))
    assert len(calls) == 1
    assert "did not converge within 2000 evaluations" in str(info.value)
    assert isinstance(info.value.best, fitter.FitResult)
    assert not info.value.best.converged


# families of hard curves, each fitted from its automatic guess: cut off
# before the first peak, 20 % noise, 12 points, a narrow relaxation core,
# a wide Gaussian at a low temperature, and a single-peak truth
HARD_CURVES = {
    "cut_off": (REF, {"n": 90, "lo": -200.0, "hi": 1200.0}),
    "noise_20pct": (REF, {"noise_rel": 0.2}),
    "12_points": (REF, {"n": 12}),
    "narrow_core": ({**REF, **NARROW_CORE}, {}),
    "w60_at_5mk": ({**REF, "w_phi_uphi0": 60.0, "temperature_k": 5e-3}, {}),
    "single_peak": ({**REF, "delta03_ghz": 0.0}, {}),
}


@pytest.mark.filterwarnings("ignore::mrtfit.errors.ModelValidityWarning")
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("family", HARD_CURVES)
def test_hard_curves_converge_on_their_one_solve(family, seed):
    # convergence only: the 12-point and single-peak fits stop at a poor
    # chi2 from their automatic guess, which no restart would mend
    truth, options = HARD_CURVES[family]
    assert fit(synth_dataset(MrtParams(**truth), seed=seed, **options)).converged


def _scipy_trf(fun, x0, *, f0, **kwargs):
    from scipy.optimize import least_squares

    return least_squares(fun, x0, method="trf", **kwargs)


def _record_objective_calls(monkeypatch) -> list:
    """Patch ``_Objective.__call__`` to log (x, free) of every evaluation."""
    seen = []
    call = _Objective.__call__

    def recording_call(self, x):
        seen.append((x.copy(), self.free))
        return call(self, x)

    monkeypatch.setattr(_Objective, "__call__", recording_call)
    return seen


@pytest.mark.filterwarnings("ignore::mrtfit.errors.ModelValidityWarning")
@pytest.mark.parametrize("truth, options", [
    *[(REF, {"seed": 42_000 + k}) for k in range(8)],
    *[(HARD_CURVES[f][0], {"seed": 0, **HARD_CURVES[f][1]})
      for f in ("12_points", "single_peak")],
], ids=[*(f"c2_{42_000 + k}" for k in range(8)), "12_points", "single_peak"])
def test_solve_matches_scipy_trf_inside_the_box(truth, options, monkeypatch):
    ds = synth_dataset(MrtParams(**truth), **options)
    seen = _record_objective_calls(monkeypatch)
    ours = fit(ds)
    for x, free in seen:
        assert np.all(_x_of(fitter._LO, free) <= x) and np.all(x <= _x_of(fitter._HI, free))
    monkeypatch.setattr(fitter, "least_squares", _scipy_trf)
    trf = fit(ds)
    assert ours.converged and trf.converged
    assert ours.chi2 <= trf.chi2 * (1.0 + 1e-7)
    # a direction the data do not determine (infinite uncertainty, as the
    # second peak of a single-peak fit) has no optimum to agree on
    for name, sigma in trf.uncertainties.items():
        if math.isfinite(sigma):
            a, b = getattr(ours.params, FIELD[name]), getattr(trf.params, FIELD[name])
            assert abs(a - b) <= 1e-4 * abs(b), name


def test_fit_evaluates_the_start_once(ref_params, monkeypatch):
    # the solve takes the residuals at x0 from fit instead of evaluating again
    seen = _record_objective_calls(monkeypatch)
    fit(synth_dataset(ref_params, seed=5))
    x0 = seen[0][0]
    assert sum(np.array_equal(x, x0) for x, _ in seen) == 1


def test_trust_region_step_solves_its_subproblem():
    # against the root of ||p(alpha)|| = delta found by bisection, on
    # singular values that spread over many decades
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        s = np.sort(np.exp(4.0 * rng.standard_normal(n)))[::-1]
        uf = rng.standard_normal(n) * np.exp(2.0 * rng.standard_normal(n))
        vt = np.linalg.qr(rng.standard_normal((n, n)))[0]
        delta = math.exp(3.0 * rng.standard_normal())
        p = fitter._tr_step(uf, s, vt, delta)

        def step(alpha):
            return -vt.T @ (s * uf / (s**2 + alpha))

        lo, hi = 0.0, 1.0
        if np.linalg.norm(step(0.0)) > delta:
            while np.linalg.norm(step(hi)) > delta:
                hi *= 10.0
            for _ in range(200):
                mid = (lo + hi) / 2
                if np.linalg.norm(step(mid)) > delta:
                    lo = mid
                else:
                    hi = mid
            exact = step(hi)
        else:
            exact = step(0.0)
        assert np.linalg.norm(p) <= delta * (1.0 + 1e-12)
        np.testing.assert_allclose(p, exact, rtol=0, atol=0.02 * np.linalg.norm(exact))


def test_median5_equals_scipy_medfilt():
    from scipy.signal import medfilt

    rng = np.random.default_rng(11)
    for n in (5, 6, 7, 8, 9, 200):
        x = rng.standard_normal(n)
        np.testing.assert_array_equal(fitter._median5(x), medfilt(x, 5))


def test_fit_cost_never_increases_from_start(ref_params):
    ds = synth_dataset(ref_params, seed=6)
    result = fit(ds)
    assert result.chi2 <= result.cost_initial * (1.0 + 1e-12)


def test_fit_mirror_equivariance(ref_params):
    ds = synth_dataset(ref_params, seed=7)
    result_l = fit(ds)
    result_r = fit(ds.mirrored())
    for name in PARAM_NAMES:
        field = FIELD[name]
        assert getattr(result_l.params, field) == pytest.approx(
            getattr(result_r.params, field), rel=1e-9)


def test_fit_rate_rescaling_moves_only_amplitudes(ref_params):
    ds = synth_dataset(ref_params, seed=8)
    scale = 4.0
    ds_scaled = RateDataset(phi_x=ds.phi_x, rate=ds.rate * scale, ip_a=ds.ip_a,
                            sigma_rel=ds.sigma_rel, well="L")
    r1 = fit(ds)
    start2 = replace(r1.params,
                     delta01_ghz=math.sqrt(scale) * r1.params.delta01_ghz,
                     delta03_ghz=math.sqrt(scale) * r1.params.delta03_ghz)
    r2 = fit(ds_scaled, guess=start2)
    # minima agree to a small fraction of the parameter uncertainty
    for name in ("delta01", "delta03"):
        field = FIELD[name]
        shift = abs(getattr(r2.params, field) / math.sqrt(scale)
                    - getattr(r1.params, field))
        assert shift < r1.uncertainties[name] / 50.0, name
    for name in ("phi31", "w_phi", "gamma_phi", "zeta_phi", "temperature"):
        field = FIELD[name]
        sigma = r1.uncertainties[name]
        shift = abs(getattr(r2.params, field) - getattr(r1.params, field))
        assert shift < sigma / 10.0, name


def test_fit_requires_enough_points(ref_params):
    ds = synth_dataset(ref_params, n=8)
    with pytest.raises(ValidationError):
        fit(ds)


@pytest.mark.parametrize("overrides", [
    {"free": ()},
    {"free": ("w_phi", "w_phi")},
    {"inductance_h": math.nan},
    {"inductance_h": math.inf},
    {"inductance_h": -250e-12},
], ids=["no free parameters", "repeated free parameter", "nan inductance",
        "infinite inductance", "negative inductance"])
def test_fit_config_rejects_bad_values(overrides):
    with pytest.raises(ValidationError):
        FitConfig(**overrides)


def test_fit_config_holds_no_solver_policy():
    # tolerances, evaluation cap and the bounds of FIT_PARAMS are constants
    # of the fitter, which solves once from its guess
    assert [f.name for f in fields(FitConfig)] == ["free", "inductance_h"]


def test_narrow_core_curve_loads_no_integrator_or_optimizer():
    # the narrow relaxation core is pinned in closed form, so its curve
    # needs neither scipy.integrate nor scipy.optimize
    code = (
        "import sys, numpy as np\n"
        "from mrtfit import MrtParams, simulate_curve\n"
        f"p = MrtParams(**{dict(REF, **NARROW_CORE)!r})\n"
        "simulate_curve(np.linspace(-720.09, 3480.42, 200), p)\n"
        "print(' '.join(m for m in ('scipy.integrate', 'scipy.optimize') "
        "if m in sys.modules))")
    src = str(Path(mrtfit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == ""


def test_fit_rejects_guess_outside_bounds(ref_params):
    # w_phi is bounded below by 0.5 uPhi0; gamma_phi and zeta_phi move in log
    # space and are bounded below by 1e-4 uPhi0, so 0 is outside too
    ds = synth_dataset(ref_params, seed=1)
    for outside in ({"w_phi_uphi0": 0.4}, {"gamma_phi_uphi0": 0.0},
                    {"zeta_phi_uphi0": 0.0}):
        with pytest.raises(ValidationError, match="outside the fit-parameter bounds"):
            fit(ds, guess=replace(ref_params, **outside))


def test_fit_clips_automatic_guess_into_bounds(ref_params):
    # cut off before the first peak: the automatic guess takes a noise bump
    # for it and puts zeta_phi above its upper bound
    ds = synth_dataset(ref_params, seed=1, n=90, lo=-200.0, hi=1200.0)
    guess = initial_guess(ds)
    k = PARAM_NAMES.index("zeta_phi")
    lo, hi = fitter._LO[k], fitter._HI[k]
    assert guess.params.zeta_phi_uphi0 > hi
    for automatic in (None, guess):
        result = fit(ds, guess=automatic)
        assert lo <= result.params.zeta_phi_uphi0 <= hi


def test_derived_metrics_equal_units_conversions(ref_params):
    ds = synth_dataset(ref_params, seed=9)
    cfg = FitConfig()
    result = fit(ds, cfg)
    p = result.params
    expect = noise_summary(p.gamma_phi_uphi0, p.zeta_phi_uphi0, p.phi31_uphi0,
                           p.ip_a, cfg.inductance_h, p.temperature_k)
    assert result.derived == expect


# ---------------------------------------------------------------------------
# uncertainties

def test_covariance_invariant_under_duplication_with_halved_weights(ref_params):
    ds = synth_dataset(ref_params, seed=10)
    result = fit(ds)
    # duplicate every point and halve each weight (sigma * sqrt(2)):
    # J^T W J and chi2 are unchanged, so after the chi2/dof rescale the
    # covariance comes back identical
    ds2 = RateDataset(phi_x=np.repeat(ds.phi_x, 2),
                      rate=np.repeat(ds.rate, 2), ip_a=ds.ip_a,
                      sigma_rel=np.repeat(ds.sigma_rel, 2) * math.sqrt(2.0),
                      well="L")
    result2 = fit(ds2, FitConfig(), result.params)
    dof_ratio = (result.chi2 / result.dof) / (result2.chi2 / result2.dof)
    for name in result.param_order:
        s1 = result.uncertainties[name]
        s2 = result2.uncertainties[name] * math.sqrt(dof_ratio)
        assert s2 == pytest.approx(s1, rel=2e-2), name


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_duplicated_rows_with_halved_weights_fit_the_same_property(seed):
    # every row twice at sigma * sqrt(2) leaves chi2 as a function of the
    # parameters unchanged, so a fit from the same start lands on the same
    # chi2 and parameters.  The two solves round differently and stop within
    # the objective's noise: over 31 seeded draws their chi2 differ by up to
    # 4e-8 relative and their parameters by up to 6e-5 sigma
    ref = MrtParams(**REF)
    ds = synth_dataset(ref, seed=seed)
    doubled = RateDataset(phi_x=np.repeat(ds.phi_x, 2), rate=np.repeat(ds.rate, 2),
                          ip_a=ds.ip_a, well="L",
                          sigma_rel=np.repeat(ds.sigma_rel, 2) * math.sqrt(2.0))
    once, twice = fit(ds, guess=ref), fit(doubled, guess=ref)
    assert twice.chi2 == pytest.approx(once.chi2, rel=1e-6)
    for q in FIT_PARAMS:
        shift = abs(getattr(twice.params, q.field) - getattr(once.params, q.field))
        assert shift < 1e-2 * once.uncertainties[q.name], q.name


def test_zero_noise_fit_has_vanishing_uncertainties(ref_params):
    ds = synth_dataset(ref_params)
    result = fit(ds, FitConfig(), ref_params)
    assert result.chi2 < 1e-10
    for name, sigma in result.uncertainties.items():
        assert sigma < 1e-4, name


# ---------------------------------------------------------------------------
# batch fitting

def _jittered(base: MrtParams, rng) -> MrtParams:
    factors = dict(
        delta01_ghz=rng.uniform(0.9, 1.1),
        delta03_ghz=rng.uniform(0.9, 1.1),
        phi31_uphi0=rng.uniform(0.97, 1.03),
        w_phi_uphi0=rng.uniform(0.9, 1.1),
        gamma_phi_uphi0=rng.uniform(0.8, 1.2),
        zeta_phi_uphi0=rng.uniform(0.8, 1.2),
        temperature_k=1.0,
    )
    return replace(base, **{k: getattr(base, k) * v for k, v in factors.items()})


def test_batch_single_dataset_matches_fit(ref_params):
    ds = synth_dataset(ref_params, seed=11)
    single = fit(ds)
    batch = batch_fit([ds])
    assert batch.n_ok == 1
    assert batch.entries[0].result.params == single.params


def test_batch_isolates_failures(ref_params):
    good = synth_dataset(ref_params, seed=12)
    bad = synth_dataset(ref_params, seed=13, n=10)     # too few points
    batch = batch_fit([good, bad, good])
    assert batch.n_ok == 2
    assert batch.entries[1].result is None
    assert "12 points" in batch.entries[1].error


def test_batch_fits_from_the_given_start(ref_params):
    # each fit starts from start(dataset); a start that fails fails only
    # its own entry
    ds = synth_dataset(ref_params, seed=12)

    def start(dataset):
        if dataset.qubit_id == "broken":
            raise ValueError("no start")
        return ref_params

    batch = batch_fit([replace(ds, qubit_id="q0"), replace(ds, qubit_id="broken")],
                      start=start)
    assert batch.entries[0].result.params == fit(ds, guess=ref_params).params
    assert batch.entries[1].error == "ValueError: no start"


def test_batch_records_unconverged_fits(ref_params, monkeypatch):
    # two evaluations cannot converge: the entry keeps the fit's message, and
    # a batch in which nothing converges summarizes no metric
    monkeypatch.setattr(fitter, "MAX_NFEV", 2)
    batch = batch_fit([synth_dataset(ref_params, seed=12)], threads=1)
    assert batch.n_ok == 0
    assert "did not converge within 2 evaluations" in batch.entries[0].error
    for name in fitter.DERIVED_METRICS:
        stats = batch.summary[name]
        assert stats["n"] == 0 and math.isnan(stats["mean"]) and math.isnan(stats["std"])
        assert batch.histograms[name] == []


def test_batch_ensemble_summary_tracks_generator(ref_params, rng):
    # an ensemble of jittered qubits; the summary means must sit within the
    # jitter band of the generator values
    datasets, truths = [], []
    for k in range(27):
        p = _jittered(ref_params, rng)
        truths.append(p)
        ds = synth_dataset(p, seed=100 + k, n=140)
        datasets.append(RateDataset(phi_x=ds.phi_x, rate=ds.rate, ip_a=p.ip_a,
                                    sigma_rel=ds.sigma_rel,
                                    qubit_id=f"q{k:02d}"))
    batch = batch_fit(datasets)
    assert batch.n_ok == 27
    gen_eta = np.mean([noise_summary(
        t.gamma_phi_uphi0, t.zeta_phi_uphi0, t.phi31_uphi0, t.ip_a,
        250e-12, t.temperature_k).eta for t in truths])
    got_eta = batch.summary["eta"]["mean"]
    assert got_eta == pytest.approx(gen_eta, rel=0.2)
    gen_tdc = np.mean([t.zeta_phi_uphi0 / t.phi31_uphi0 for t in truths])
    assert batch.summary["tan_delta_c"]["mean"] == pytest.approx(gen_tdc, rel=0.2)
    assert batch.summary["eta"]["n"] == 27
    assert len(batch.histograms["eta"]) >= 1
    assert sum(c for _, _, c in batch.histograms["eta"]) == 27


def test_batch_worker_count_is_bounded(monkeypatch):
    monkeypatch.setattr(fitter.os, "cpu_count", lambda: 2)
    assert fitter._worker_count(5000, 2) == 2
    assert fitter._worker_count(5000, 40) == 2
    assert fitter._worker_count(2, 1) == 1
    assert fitter._worker_count(1, 40) == 1
    monkeypatch.setattr(fitter.os, "cpu_count", lambda: None)
    assert fitter._worker_count(8, 40) == 1


@pytest.mark.parametrize("threads", [0, -3])
def test_batch_rejects_worker_count_below_one(ref_params, threads):
    with pytest.raises(ValidationError, match="threads"):
        batch_fit([synth_dataset(ref_params, n=40)], threads=threads)
