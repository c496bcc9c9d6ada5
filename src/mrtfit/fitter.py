"""Weighted nonlinear least-squares estimation of the rate-model parameters.

Residuals are taken in log-rate space because measured curves span
several decades; weights are inverse squared relative errors when the
dataset carries them.  The minimizer, ``least_squares``, is Moré's bounded
trust-region Levenberg-Marquardt method (Lecture Notes in Math. 630, 105,
1978) in numpy alone, run once from the initial guess: ftol, xtol and gtol
of 1e-10 and at most 2000 evaluations, and a stop where the Gauss-Newton
decrement falls below ftol times the cost.  It works on one parameter vector
in natural units and ``units.FIT_PARAMS`` order, whose table gives the
names, log flags, bounds and step-scale floors; an index array picks the
free entries, and bounds are checked in natural units.  Positive
scale-spanning parameters (amplitudes, ohmic and charge broadenings) are
optimized in log space, the rest linearly.  The fluctuation-dissipation
tie between the Gaussian width and its shift holds at every iterate
because the shift is recomputed from (W, T) inside the model.  The data
is a ``rate_model.RateDataset``, measured or simulated alike.

The line shapes do not depend on the tunneling amplitudes, which only
scale the two peaks.  The objective keeps the line shapes of its last
build and reuses them whenever only delta01 and delta03 moved: it takes
its rates from ``LineShapes.rates`` with the current amplitudes, so such
an evaluation rebuilds nothing.  The Jacobian at the point just evaluated
reuses its rates and takes the shape columns from that build's
sensitivity tables (``LineShapes.log_shape_grads``: the exact derivatives
of the tabulated model on its grid) and the amplitude columns in closed form,
d log r / d log delta01 = 2 r01 / (r01 + r03); no finite differences are
taken.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import units
from .errors import ConvergenceError, ValidationError
from .rate_model import FIT_PARAMS, LineShapes, MrtParams, RateDataset, _rate_coef
from .units import NoiseSummary, flux_to_energy, ghz_to_kelvin, kelvin_to_ghz

PARAM_NAMES = tuple(q.name for q in FIT_PARAMS)
# log flags, bounds and step-scale floors of the parameter vector (FIT_PARAMS order)
_LOG = np.array([q.log for q in FIT_PARAMS])
_LO, _HI = np.array([q.bounds for q in FIT_PARAMS]).T
_X_FLOOR = np.array([q.x_floor for q in FIT_PARAMS])

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

# where ``least_squares`` stopped; status > 0 means converged
LsqResult = namedtuple("LsqResult", "x cost jac status message nfev")
_STOPS = ("the evaluation budget is spent", "gtol is satisfied", "ftol is satisfied",
          "xtol is satisfied", "both ftol and xtol are satisfied",
          "the Gauss-Newton decrement is below ftol")


def _tr_step(uf: np.ndarray, s: np.ndarray, vt: np.ndarray, delta: float) -> np.ndarray:
    """Moré's step p for J = U diag(s) Vt, s > 0: Gauss-Newton if it fits in
    the radius, else (J^T J + alpha) p = -J^T f with ||p|| = delta; Newton on
    1/||p|| = 1/delta, concave and rising in alpha, climbs there from 0."""
    alpha = 0.0
    for _ in range(10):
        q = s * uf / (s**2 + alpha)
        p_norm = np.linalg.norm(q)
        if p_norm <= 1.01 * delta:
            break
        alpha += (p_norm - delta) / delta * p_norm**2 / np.sum(q**2 / (s**2 + alpha))
    return -vt.T @ q * min(1.0, delta / p_norm)


def least_squares(fun, x0, *, jac, bounds, x_scale, ftol, xtol, gtol, max_nfev,
                  f0) -> LsqResult:
    """Minimize ||fun(x)||^2 / 2 on the box ``bounds`` in x / x_scale, from the
    radius ||x0 / x_scale||.  Every trial tests gtol (the largest free scaled
    gradient entry), ftol (a reduction below ftol * cost at a ratio above
    1/4) and xtol (an unscaled step below xtol (xtol + ||x||)).  Each
    accepted point also stops the solve if its Gauss-Newton decrement
    ||U^T f||^2 / 2, the most any step on the free directions can lower the
    cost in the linear model, is at most ftol * cost.  The caller supplies
    ``f0 = fun(x0)``, the first of ``max_nfev`` evaluations."""
    lb, ub = bounds
    x, f = x0, f0
    nfev, cost, J = 1, 0.5 * float(f @ f), jac(x)
    delta, status = np.linalg.norm(x / x_scale) or 1.0, None
    while True:
        g = J.T @ f
        # a variable at a bound whose descent direction leaves the box sits out
        free = ~(((x <= lb) & (g > 0)) | ((x >= ub) & (g < 0)))
        if np.max(np.abs(x_scale * g)[free], initial=0.0) < gtol:
            status = 1
        if status is not None or nfev >= max_nfev:
            break
        u, s, vt = np.linalg.svd(J * (x_scale * free), full_matrices=False)
        keep = s > np.finfo(float).eps * len(f) * s[0]    # steps stay in J's range
        uf, s, vt = u[:, keep].T @ f, s[keep], vt[keep] * free
        # no step on the free directions can lower the cost by ftol * cost
        if 0.5 * float(uf @ uf) <= ftol * cost:
            status = 5
            break
        reduction = -1.0
        while reduction <= 0 and nfev < max_nfev:
            trial = np.clip(x + x_scale * _tr_step(uf, s, vt, delta), lb, ub)
            step = trial - x
            step_norm = np.linalg.norm(step / x_scale)
            predicted = -(g @ step + 0.5 * np.sum((J @ step) ** 2))
            f_new = fun(trial)
            nfev += 1
            with np.errstate(over="ignore"):
                cost_new = 0.5 * float(f_new @ f_new)
            # a non-finite trial is rejected like one that raises the cost
            reduction = cost - cost_new if math.isfinite(cost_new) else -math.inf
            ratio = reduction / predicted if predicted > 0 else 0.0
            ftol_met = reduction < ftol * cost and ratio > 0.25
            xtol_met = np.linalg.norm(step) < xtol * (xtol + np.linalg.norm(x))
            if ftol_met or xtol_met:
                status = 4 if ftol_met and xtol_met else 2 if ftol_met else 3
                break
            delta = (0.25 * step_norm if ratio < 0.25 else 2.0 * delta
                     if ratio > 0.75 and step_norm > 0.95 * delta else delta)
        if reduction > 0:
            x, f, cost, J = trial, f_new, cost_new, jac(trial)
    return LsqResult(x, cost, J, status or 0, _STOPS[status or 0], nfev)


def _x_of(values: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Solver coordinates of the free entries, logs for log-space parameters."""
    return np.array([math.log(v) if log else v
                     for v, log in zip(values[free].tolist(), _LOG[free])])


class _Objective:
    """Weighted log-rate residuals for one dataset, and their exact Jacobian.

    The solver moves the entries ``free`` of the parameter vector
    ``values``.  Keeps the line shapes of its last build, keyed by
    ``values[2:]``, so that an evaluation moving only delta01 and delta03
    rebuilds nothing, and ``jac`` at the point just evaluated takes its
    sensitivities from that build and the rates kept with that point.
    """

    def __init__(self, dataset: RateDataset, free, values):
        order = np.argsort(dataset.folded_phi())
        self.phi = dataset.folded_phi()[order]
        self.log_rate = np.log(dataset.rate[order])
        if dataset.sigma_rel is None:
            self.inv_sigma = np.ones_like(self.phi)
        else:
            self.inv_sigma = 1.0 / dataset.sigma_rel[order]
        self.ip = dataset.ip_a
        self.free = np.asarray(free)
        self.values = np.array(values, dtype=float)
        self.n_eval = 0
        self.eps = flux_to_energy(self.phi, self.ip)
        self._shape_key = self._shapes = None
        self._last = (None, None, None)     # the last x evaluated and its (r01, r03)

    def values_at(self, x: np.ndarray) -> np.ndarray:
        """The parameter vector with its free entries at solver coordinates x."""
        values = self.values.copy()
        values[self.free] = [math.exp(xi) if log else xi
                             for xi, log in zip(x.tolist(), _LOG[self.free])]
        return values

    def _peak_rates(self, values: np.ndarray) -> tuple:
        """(r01, r03) at the data biases, from the last build if only the
        amplitudes moved."""
        params = MrtParams.from_names(dict(zip(PARAM_NAMES, values.tolist())), self.ip)
        key = values[2:].tolist()
        if key != self._shape_key:
            self._shapes = LineShapes(params, float(self.phi.min()), float(self.phi.max()))
            self._shape_key = key
        return self._shapes.rates(self.phi, params)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.n_eval += 1
        r01, r03 = self._peak_rates(self.values_at(x))
        self._last = (x.copy(), r01, r03)
        return (np.log(r01 + r03) - self.log_rate) * self.inv_sigma

    def jac(self, x: np.ndarray) -> np.ndarray:
        """d residual / dx, from the line-shape sensitivities of the build
        at x and the rates there, kept from the evaluation if x is the last
        point evaluated (the amplitude columns are closed-form: d log r /
        d log delta01 = 2 r01 / (r01 + r03))."""
        values = self.values_at(x)
        last_x, r01, r03 = self._last
        if not np.array_equal(x, last_x):
            r01, r03 = self._peak_rates(values)
        d01, d03 = self._shapes.log_shape_grads(self.eps)
        w01 = (r01 / (r01 + r03))[:, None]
        w03 = (r03 / (r01 + r03))[:, None]
        # d / d log v = v d / dv for the log-space shape parameters
        shapes = (w01 * d01 + w03 * d03) * np.where(_LOG[2:], values[2:], 1.0)
        full = np.hstack([2.0 * w01, 2.0 * w03, shapes])
        return full[:, self.free] * self.inv_sigma[:, None]


def _linearized_uncertainties(jac: np.ndarray, chi2: float, n_pts: int,
                              deriv: np.ndarray) -> tuple:
    """Covariance s^2 (J^T J)^-1 in natural parameter units via SVD, with
    infinite uncertainty flagged along any numerically null direction;
    ``deriv`` is d value / dx, the chain-rule factor of each column."""
    n_free = jac.shape[1]
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-12)) if len(s) else 0
    dof = max(n_pts - n_free, 1)
    s2 = chi2 / dof
    inv_s2 = np.zeros_like(s)
    inv_s2[:rank] = 1.0 / s[:rank] ** 2
    cov_x = (vt.T * inv_s2) @ vt * s2
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
    the bounds; an explicit ``MrtParams`` guess outside them (a log-space
    parameter at 0 is) or weighted residuals not finite at the start raise
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

    names = list(config.free)
    values0 = np.array([getattr(guess, q.field) for q in FIT_PARAMS])
    if guess.delta03_ghz == 0.0:
        # degenerate single-peak start: the first peak carries no signal
        names = [n for n in names if n not in ("delta03", "zeta_phi")]
        values0[PARAM_NAMES.index("zeta_phi")] = 0.0
        if not names:
            raise ValidationError("a single-peak start leaves none of the free parameters")
    free = np.array([PARAM_NAMES.index(n) for n in names])

    if automatic:
        values0[free] = np.clip(values0[free], _LO[free], _HI[free])
    elif np.any(values0[free] < _LO[free]) or np.any(values0[free] > _HI[free]):
        raise ValidationError("initial guess lies outside the fit-parameter bounds")
    x0 = _x_of(values0, free)

    objective = _Objective(dataset, free, values0)
    r0 = objective(x0)
    with np.errstate(over="ignore"):
        cost_initial = float(r0 @ r0)
    if not math.isfinite(cost_initial):
        raise ValidationError("the weighted residuals at the initial guess are not "
                              "finite; is a rate_rel_err too small to invert?")

    res = least_squares(
        objective, x0, jac=objective.jac,
        bounds=(_x_of(_LO, free), _x_of(_HI, free)),
        x_scale=np.where(_LOG[free], 1.0, np.maximum(np.abs(x0), _X_FLOOR[free])),
        ftol=TOL, xtol=TOL, gtol=TOL, max_nfev=MAX_NFEV, f0=r0)

    chi2 = float(2.0 * res.cost)
    values = objective.values_at(res.x)
    cov, sigma, rank, dof = _linearized_uncertainties(
        res.jac, chi2, len(dataset), np.where(_LOG, values, 1.0)[free])
    params = MrtParams.from_names(dict(zip(PARAM_NAMES, values.tolist())), dataset.ip_a)
    uncertainties = {name: float(s) for name, s in zip(names, sigma)}
    derived = units.noise_summary(
        params.gamma_phi_uphi0, params.zeta_phi_uphi0, params.phi31_uphi0,
        params.ip_a, config.inductance_h, params.temperature_k)
    status = res.message if rank == len(free) else (
        res.message + f"; Jacobian rank {rank} < {len(free)}: "
        "unidentifiable parameter directions flagged with infinite uncertainty")
    result = FitResult(
        params=params, chi2=chi2, dof=dof, param_order=tuple(names),
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


def metric_value(summary: NoiseSummary, name: str) -> float:
    """The value of ``name``, one of DERIVED_METRICS, in ``summary``."""
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
    dataset, config, start = args
    try:
        return fit(dataset, config, start(dataset) if start else None)
    except Exception as exc:   # noqa: BLE001  - isolate any per-qubit failure
        return exc


def _worker_count(threads: int, n_jobs: int) -> int:
    """Processes a batch of ``n_jobs`` fits runs on: ``threads``, bounded by
    the job count and the CPU count."""
    if not threads >= 1:
        raise ValidationError(f"threads must be at least 1, got {threads}")
    return max(1, min(threads, n_jobs, os.cpu_count() or 1))


def batch_fit(datasets: Sequence[RateDataset], config: FitConfig | None = None,
              threads: int = 1, start=None) -> BatchResult:
    """Fit every dataset independently and summarize the derived metrics.

    Each fit starts from ``start(dataset)``, a picklable callable, or from
    the automatic guess if ``start`` is None.  Per-dataset failures, in
    ``start`` too, are isolated into their entries and never abort the
    batch.  With ``threads`` > 1 the fits fan out over at most ``threads``
    processes, no more than there are datasets or CPUs; results are
    collected in input order either way.
    """
    config = config or FitConfig()
    jobs = [(d, config, start) for d in datasets]
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
        vals = np.array([metric_value(r.derived, name) for r in ok])
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
