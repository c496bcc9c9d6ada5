"""Weighted nonlinear least-squares estimation of the rate-model parameters.

Residuals are taken in log-rate space because measured curves span
several decades; weights are inverse squared relative errors when the
dataset carries them.  The minimizer is a damped (trust-region) least
squares with an exact Jacobian, solved once from the initial guess under
one fixed policy: ftol, xtol and gtol of 1e-10 and at most 2000
evaluations.  Positive scale-spanning parameters
(tunneling amplitudes, ohmic and charge broadenings) are optimized in log
space; the peak separation, Gaussian width and temperature stay linear.
The fluctuation-dissipation tie between the Gaussian width and its shift
holds at every iterate because the shift is recomputed from (W, T)
inside the model.  Names, log flags, bounds and step-scale floors all
come from ``units.FIT_PARAMS``.  The data is a
``rate_model.RateDataset``, measured or simulated alike.

The line shapes do not depend on the tunneling amplitudes, which only
scale the two peaks.  The objective keeps the line shapes of its last
build and reuses them whenever only delta01 and delta03 moved: it takes
its rates from ``LineShapes.rates`` with the current amplitudes, so such
an evaluation rebuilds nothing.  The Jacobian at an evaluated point takes
the shape columns from that build's sensitivity tables
(``LineShapes.log_shape_grads``: the exact derivatives of the tabulated
model on its grid) and the amplitude columns in closed form,
d log r / d log delta01 = 2 r01 / (r01 + r03); no finite differences are
taken.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import units
from .errors import ConvergenceError, ValidationError
from .rate_model import (FIT_PARAMS, SHAPE_FIELDS, LineShapes, MrtParams,
                         RateDataset, _rate_coef)
from .units import NoiseSummary, flux_to_energy, ghz_to_kelvin, kelvin_to_ghz

PARAM_NAMES = tuple(q.name for q in FIT_PARAMS)
_PARAM = {q.name: q for q in FIT_PARAMS}

TOL = 1e-10
MAX_NFEV = 2000


@dataclass(frozen=True)
class FitConfig:
    """Free-parameter mask and the main-loop inductance."""

    free: tuple = PARAM_NAMES
    inductance_h: float = 250e-12    # used only for derived noise metrics

    def __post_init__(self):
        unknown = set(self.free) - set(PARAM_NAMES)
        if unknown:
            raise ValidationError(f"unknown free parameters: {sorted(unknown)}")
        if not self.free or len(set(self.free)) < len(self.free):
            raise ValidationError(f"free must list distinct parameters: {list(self.free)}")
        if not 0 < self.inductance_h < math.inf:
            raise ValidationError(
                f"inductance_h must be positive and finite, got {self.inductance_h}")


@dataclass(frozen=True)
class InitialGuess:
    """An automatic start, clipped into the bounds by ``fit``; one peak if delta03 = 0."""

    params: MrtParams


@dataclass(frozen=True, eq=False)
class FitResult:
    """Converged (or stopped) fit with linearized uncertainties."""

    params: MrtParams
    chi2: float
    dof: int
    param_order: tuple
    covariance: np.ndarray
    uncertainties: dict
    derived: NoiseSummary
    status: str
    converged: bool
    n_eval: int
    cost_initial: float


# ---------------------------------------------------------------------------
# initial guess

_GAUSS_PEAK = 1.0 / math.sqrt(2.0 * math.pi)
_PROVISIONAL_T_K = 0.010


def _delta_from_peak(rate_peak: float, w_ghz: float) -> float:
    """Invert the closed-form Gaussian peak rate for the tunneling
    amplitude: rate = 1e3 (2 pi d)^2 / 4 * 1/(sqrt(2 pi) W)."""
    g_peak = _GAUSS_PEAK / w_ghz
    return math.sqrt(4.0 * rate_peak / (1e3 * g_peak)) / (2.0 * math.pi)


def _median5(x: np.ndarray) -> np.ndarray:
    """Five-point running median, zero-padded at the ends."""
    return np.median(sliding_window_view(np.pad(x, 2), 5), axis=1)


def initial_guess(dataset: RateDataset) -> InitialGuess:
    """Heuristic starting point from peak locations, heights, valley level
    and tail excess.

    The zeroth-peak position is read as the reorganization shift, which
    the fluctuation-dissipation relation converts to a width guess at a
    provisional 10 mK.  Right-well points are folded onto the left
    orientation first, so mirrored datasets give identical guesses.
    """
    order = np.argsort(dataset.folded_phi())
    phi = dataset.folded_phi()[order]
    rate = dataset.rate[order]
    ip = dataset.ip_a
    conv = flux_to_energy(1.0, ip)           # GHz per uPhi0
    t_ghz = kelvin_to_ghz(_PROVISIONAL_T_K)

    log_rate = np.log(rate)
    smooth = _median5(log_rate) if len(rate) >= 5 else log_rate

    def width_guess_at(phi_peak: float) -> float:
        # FDT: the zeroth-peak shift and width are tied through temperature
        eps_p = max(phi_peak, 1.0) * conv
        return math.sqrt(2.0 * t_ghz * eps_p) / conv

    # plateau-aware strict local maxima of the smoothed curve (the median
    # filter flattens peak tops and valley floors into runs of equal values;
    # a run counts as one maximum only if both sides fall away)
    idx = []
    i = 1
    n_pts = len(smooth)
    while i < n_pts - 1:
        j = i
        while j + 1 < n_pts and smooth[j + 1] == smooth[i]:
            j += 1
        if smooth[i - 1] < smooth[i] and j + 1 < n_pts and smooth[j + 1] < smooth[i]:
            idx.append((i + j) // 2)
        i = j + 1
    # cluster maxima closer than five width guesses; the tallest of each
    # cluster represents one physical peak
    peaks = []
    for i in sorted(idx, key=lambda i: smooth[i], reverse=True):
        if all(abs(phi[i] - phi[j]) >= 5.0 * width_guess_at(min(phi[i], phi[j]))
               for j in peaks):
            peaks.append(i)
    top = sorted(peaks[:2], key=lambda i: phi[i])

    def refine_peak(i_peak: int):
        """Sub-grid peak position, Gaussian width and height from a local
        parabola through the raw log rate (exact for a Gaussian peak).
        Returns (position, sigma_or_0, peak_rate)."""
        j0, j1 = max(i_peak - 2, 0), min(i_peak + 3, len(phi))
        if j1 - j0 < 3:
            return phi[i_peak], 0.0, rate[i_peak]
        coeffs = np.polyfit(phi[j0:j1] - phi[i_peak], log_rate[j0:j1], 2)
        a, b, c0 = coeffs
        if a >= 0:
            return phi[i_peak], 0.0, rate[i_peak]
        pos = phi[i_peak] - b / (2.0 * a)
        height = math.exp(c0 - b * b / (4.0 * a))
        sigma = math.sqrt(-1.0 / (2.0 * a))
        return pos, sigma, height

    two = len(top) == 2
    if two:
        i0, i1 = top
        w_phi = width_guess_at(phi[i0])
        # two maxima closer than five width guesses are merged into one
        two = phi[i1] - phi[i0] >= 5.0 * w_phi
    if not two:
        if not top:
            top = [int(np.argmax(smooth))]
        i0 = max(top, key=lambda i: smooth[i])
        w_phi = width_guess_at(phi[i0])
        w_ghz = w_phi * conv
        delta01 = _delta_from_peak(rate[i0], w_ghz)
        params = MrtParams.from_names({
            "delta01": delta01, "delta03": 0.0, "phi31": max(10.0 * w_phi, 100.0),
            "w_phi": w_phi, "gamma_phi": 1e-2 * w_phi, "zeta_phi": 0.0,
            "temperature": _PROVISIONAL_T_K}, ip)
        return InitialGuess(params=params)

    i0, i1 = top
    pos0, sigma0, height0 = refine_peak(i0)
    pos1, sigma1, height1 = refine_peak(i1)
    # prefer the measured zeroth-peak width; the shift-to-width ratio then
    # fixes the temperature through the fluctuation-dissipation tie
    t_k = _PROVISIONAL_T_K
    if sigma0 > 0 and pos0 > 0:
        w_phi = sigma0
        t_ghz_est = conv * sigma0**2 / (2.0 * pos0)
        t_k = min(max(ghz_to_kelvin(t_ghz_est), 1e-3), 0.05)
        t_ghz = kelvin_to_ghz(t_k)
    w_ghz = w_phi * conv

    phi31 = pos1 - pos0
    delta01 = _delta_from_peak(height0, w_ghz)
    delta03 = _delta_from_peak(height1, w_ghz)

    # charge broadening from the valley level between the peaks, sampled past
    # the midpoint where the relaxation wing dominates the ohmic tail
    mid = (phi > pos0 + 3.0 * w_phi) & (phi < pos1 - 3.0 * w_phi)
    if np.any(mid):
        j = int(np.argmin(np.abs(phi - (pos0 + 0.55 * phi31))))
        if not mid[j]:
            j = np.nonzero(mid)[0][np.argmin(smooth[mid])]
        om_v = (phi[j] - pos1) * conv
        zeta_ghz = rate[j] * math.pi * om_v**2 / _rate_coef(delta03)
        zeta_phi = zeta_ghz / conv
    else:
        zeta_phi = 0.0

    # ohmic broadening from the tail beyond the Gaussian, short of the valley
    phi_t = pos0 + max(5.0 * w_phi, 0.08 * phi31)
    j = int(np.argmin(np.abs(phi - phi_t)))
    eps_t = (phi[j] - pos0) * conv
    gamma_phi = 1e-2 * w_phi
    if eps_t > 3.0 * t_ghz:
        om_t = (phi[j] - pos1) * conv
        relax_tail = _rate_coef(delta03) * (zeta_phi * conv) / (math.pi * om_t**2)
        excess = rate[j] - relax_tail
        if excess > 0:
            gamma_phi = excess * math.pi * eps_t * t_ghz / _rate_coef(delta01) / conv
    params = MrtParams.from_names({
        "delta01": delta01, "delta03": delta03, "phi31": phi31,
        "w_phi": w_phi, "gamma_phi": max(gamma_phi, 1e-4),
        "zeta_phi": max(zeta_phi, 1e-4), "temperature": t_k}, ip)
    return InitialGuess(params=params)


# ---------------------------------------------------------------------------
# fitting

def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported on first call so that
    importing the package does not load ``scipy.optimize``."""
    from scipy.optimize import least_squares as _least_squares
    return _least_squares(*args, **kwargs)


def _to_x(values: dict, free: Sequence[str]) -> np.ndarray:
    return np.array([math.log(values[n]) if _PARAM[n].log else values[n]
                     for n in free])


def _from_x(x: np.ndarray, free: Sequence[str], fixed: dict) -> dict:
    values = dict(fixed)
    for xi, name in zip(x, free):
        values[name] = math.exp(xi) if _PARAM[name].log else float(xi)
    return values


def _x_bounds(free: Sequence[str]) -> tuple:
    lo, hi = [], []
    for name in free:
        q = _PARAM[name]
        b_lo, b_hi = q.bounds
        if q.log:
            b_lo, b_hi = math.log(b_lo), math.log(b_hi)
        lo.append(b_lo)
        hi.append(b_hi)
    return np.array(lo), np.array(hi)


def _x_scale(free: Sequence[str], x0: np.ndarray) -> np.ndarray:
    return np.array([1.0 if _PARAM[n].log else max(abs(xi), _PARAM[n].x_floor)
                     for n, xi in zip(free, x0)])


class _Objective:
    """Weighted log-rate residuals for one dataset, and their exact Jacobian.

    Keeps the line shapes of its last build, keyed by the shape
    parameters, so that an evaluation moving only delta01 and delta03
    rebuilds nothing, and ``jac`` at the point just evaluated takes its
    sensitivities from that build.
    """

    def __init__(self, dataset: RateDataset, free, fixed):
        order = np.argsort(dataset.folded_phi())
        self.phi = dataset.folded_phi()[order]
        self.log_rate = np.log(dataset.rate[order])
        if dataset.sigma_rel is None:
            self.inv_sigma = np.ones_like(self.phi)
        else:
            self.inv_sigma = 1.0 / dataset.sigma_rel[order]
        self.ip = dataset.ip_a
        self.free = tuple(free)
        self.fixed = dict(fixed)
        self.n_eval = 0
        self.eps = flux_to_energy(self.phi, self.ip)
        self._shape_key = self._shapes = None

    def _peak_rates(self, values: dict) -> tuple:
        """(r01, r03) at the data biases, from the last build if only the
        amplitudes moved."""
        params = MrtParams.from_names(values, self.ip)
        key = tuple(getattr(params, f) for f in SHAPE_FIELDS)
        if key != self._shape_key:
            self._shapes = LineShapes(params, float(self.phi.min()), float(self.phi.max()))
            self._shape_key = key
        return self._shapes.rates(self.phi, params)

    def model_log_rate(self, values: dict) -> np.ndarray:
        r01, r03 = self._peak_rates(values)
        return np.log(r01 + r03)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.n_eval += 1
        values = _from_x(x, self.free, self.fixed)
        return (self.model_log_rate(values) - self.log_rate) * self.inv_sigma

    def jac(self, x: np.ndarray) -> np.ndarray:
        """d residual / dx, from the line-shape sensitivities of the build
        at x (the amplitude columns are closed-form: d log r / d log
        delta01 = 2 r01 / (r01 + r03))."""
        values = _from_x(x, self.free, self.fixed)
        r01, r03 = self._peak_rates(values)
        d01, d03 = self._shapes.log_shape_grads(self.eps)
        w01 = r01 / (r01 + r03)
        w03 = r03 / (r01 + r03)
        cols = []
        for name in self.free:
            if name == "delta01":
                col = 2.0 * w01
            elif name == "delta03":
                col = 2.0 * w03
            else:
                k = SHAPE_FIELDS.index(_PARAM[name].field)
                col = w01 * d01[:, k] + w03 * d03[:, k]
                if _PARAM[name].log:
                    col = col * values[name]
            cols.append(col)
        return np.column_stack(cols) * self.inv_sigma[:, None]


def _linearized_uncertainties(jac: np.ndarray, chi2: float, n_pts: int,
                              free, x_best) -> tuple:
    """Covariance s^2 (J^T J)^-1 in natural parameter units via SVD, with
    infinite uncertainty flagged along any numerically null direction."""
    n_free = len(free)
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-12)) if len(s) else 0
    dof = max(n_pts - n_free, 1)
    s2 = chi2 / dof
    inv_s2 = np.zeros_like(s)
    inv_s2[:rank] = 1.0 / s[:rank] ** 2
    cov_x = (vt.T * inv_s2) @ vt * s2
    # chain rule to natural units: d(exp x)/dx = value for log parameters
    deriv = np.array([math.exp(xi) if _PARAM[name].log else 1.0
                      for name, xi in zip(free, x_best)])
    cov = cov_x * np.outer(deriv, deriv)
    sigma = np.sqrt(np.maximum(np.diag(cov), 0.0))
    if rank < n_free:
        null_mix = np.abs(vt[rank:]).max(axis=0)
        sigma = np.where(null_mix > 1e-8, math.inf, sigma)
    return cov, sigma, rank, dof


def fit(dataset: RateDataset, config: FitConfig | None = None,
        guess: MrtParams | InitialGuess | None = None) -> FitResult:
    """Estimate the model parameters for one dataset.

    Runs one trust-region solve from the supplied (or automatic) guess.
    An automatic guess (``None`` or an ``InitialGuess``) is clipped into
    the bounds; an explicit ``MrtParams`` guess outside them raises
    ValidationError.  Raises ConvergenceError, carrying the result where
    the solve stopped, if it does not converge within MAX_NFEV evaluations.
    """
    config = config or FitConfig()
    automatic = not isinstance(guess, MrtParams)
    if guess is None:
        guess = initial_guess(dataset)
    if isinstance(guess, InitialGuess):
        guess = guess.params
    if guess.ip_a != dataset.ip_a:
        raise ValidationError("guess and dataset disagree on the persistent current")
    if len(dataset) < 12:
        raise ValidationError("a two-peak fit needs at least 12 points spanning "
                              f"both peaks, got {len(dataset)}")

    free = list(config.free)
    values0 = guess.by_name()
    if guess.delta03_ghz == 0.0:
        # degenerate single-peak start: the first peak carries no signal
        free = [n for n in free if n not in ("delta03", "zeta_phi")]
        values0["zeta_phi"] = 0.0
        if not free:
            raise ValidationError("a single-peak start leaves none of the free parameters")
    fixed = {n: v for n, v in values0.items() if n not in free}

    lo, hi = _x_bounds(free)
    x0 = _to_x(values0, free)
    if automatic:
        x0 = np.clip(x0, lo, hi)
    elif np.any(x0 < lo) or np.any(x0 > hi):
        raise ValidationError("initial guess lies outside the fit-parameter bounds")

    objective = _Objective(dataset, free, fixed)
    r0 = objective(x0)
    cost_initial = float(r0 @ r0)

    res = least_squares(
        objective, x0, method="trf", jac=objective.jac, bounds=(lo, hi),
        x_scale=_x_scale(free, x0), ftol=TOL, xtol=TOL, gtol=TOL,
        max_nfev=MAX_NFEV)

    chi2 = float(2.0 * res.cost)
    cov, sigma, rank, dof = _linearized_uncertainties(
        res.jac, chi2, len(dataset), free, res.x)
    values = _from_x(res.x, free, fixed)
    params = MrtParams.from_names(values, dataset.ip_a)
    uncertainties = {name: float(s) for name, s in zip(free, sigma)}
    derived = units.noise_summary(
        params.gamma_phi_uphi0, params.zeta_phi_uphi0, params.phi31_uphi0,
        params.ip_a, config.inductance_h, params.temperature_k)
    status = res.message if rank == len(free) else (
        res.message + f"; Jacobian rank {rank} < {len(free)}: "
        "unidentifiable parameter directions flagged with infinite uncertainty")
    result = FitResult(
        params=params, chi2=chi2, dof=dof, param_order=tuple(free),
        covariance=cov, uncertainties=uncertainties, derived=derived,
        status=status, converged=res.status > 0, n_eval=objective.n_eval,
        cost_initial=cost_initial)
    if not result.converged:
        raise ConvergenceError(
            f"the fit did not converge within {MAX_NFEV} evaluations: "
            f"{res.message}", best=result)
    return result


# ---------------------------------------------------------------------------
# batch fitting

DERIVED_METRICS = ("eta", "r_shunt_ohm", "tan_delta_c", "tan_delta_l_1ghz")


def _metric_value(summary: NoiseSummary, name: str) -> float:
    if name == "tan_delta_l_1ghz":
        return summary.tan_delta_l_at[0][1]
    return getattr(summary, name)


@dataclass(frozen=True)
class BatchEntry:
    qubit_id: str
    result: Optional[FitResult]
    error: Optional[str]


@dataclass(frozen=True)
class BatchResult:
    entries: tuple
    summary: dict
    histograms: dict

    @property
    def n_ok(self) -> int:
        return sum(1 for e in self.entries if e.result is not None)


def _fit_one(args):
    dataset, config = args
    try:
        return fit(dataset, config)
    except Exception as exc:   # noqa: BLE001  - isolate any per-qubit failure
        return exc


def _worker_count(threads: int, n_jobs: int) -> int:
    """Processes a batch of ``n_jobs`` fits runs on: ``threads``, bounded by
    the job count and the CPU count."""
    if not threads >= 1:
        raise ValidationError(f"threads must be at least 1, got {threads}")
    return max(1, min(threads, n_jobs, os.cpu_count() or 1))


def batch_fit(datasets: Sequence[RateDataset], config: FitConfig | None = None,
              threads: int = 1) -> BatchResult:
    """Fit every dataset independently and summarize the derived metrics.

    Per-dataset failures are isolated into their entries and never abort
    the batch.  With ``threads`` > 1 the fits fan out over at most
    ``threads`` processes, no more than there are datasets or CPUs;
    results are collected in input order either way.
    """
    config = config or FitConfig()
    jobs = [(d, config) for d in datasets]
    workers = _worker_count(threads, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_fit_one, jobs))
    else:
        outcomes = [_fit_one(j) for j in jobs]

    entries = []
    for i, (dataset, outcome) in enumerate(zip(datasets, outcomes)):
        qubit_id = dataset.qubit_id or f"dataset-{i}"
        if isinstance(outcome, FitResult):
            entries.append(BatchEntry(qubit_id, outcome, None))
        elif isinstance(outcome, ConvergenceError):
            entries.append(BatchEntry(qubit_id, None, str(outcome)))
        else:
            entries.append(BatchEntry(qubit_id, None, f"{type(outcome).__name__}: {outcome}"))

    summary = {}
    histograms = {}
    ok = [e.result for e in entries if e.result is not None]
    for name in DERIVED_METRICS:
        vals = np.array([_metric_value(r.derived, name) for r in ok])
        vals = vals[np.isfinite(vals)]
        if len(vals) == 0:
            summary[name] = {"mean": math.nan, "std": math.nan, "n": 0}
            histograms[name] = []
            continue
        std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        summary[name] = {"mean": float(np.mean(vals)), "std": std, "n": len(vals)}
        counts, edges = np.histogram(vals, bins=min(8, max(len(vals) // 2, 1)))
        histograms[name] = [(float(edges[i]), float(edges[i + 1]), int(c))
                            for i, c in enumerate(counts)]
    return BatchResult(entries=tuple(entries), summary=summary,
                       histograms=histograms)
