"""Two-peak tunneling rate curves from convolved noise envelopes.

The rate out of the initialized well at energy bias eps is

    rate_0n(eps) = (Delta_0n / 2 hbar)^2 * G_0n(eps),   n = 1, 3

where G_01 is the low-frequency Gaussian convolved with the ohmic
envelope and G_03 additionally convolves the intrawell relaxation
envelope, shifted to the excited-state resonance.  The line shapes are
tabulated once per parameter set on a uniform frequency grid with FFT
convolutions and then evaluated only at the requested biases, by a local
four-point cubic through the log line shape at the nearest grid nodes.

Two exact analytic short cuts replace the convolution in the
delta-function limits: gamma = 0 turns the ohmic envelope into a delta
(zeroth peak becomes the bare Gaussian), zeta = 0 turns the relaxation
envelope into a delta (first peak becomes a translated copy of the
zeroth).  The narrow Lorentzian core of the ohmic envelope is handled
analytically as a Voigt profile at any grid resolution; only the smooth
thermal correction is convolved numerically, which keeps the default
grid small and the far tails accurate.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.integrate import quad
from scipy.special import erf, voigt_profile

from .envelopes import (
    HighFreqBroadening,
    IntrawellBroadening,
    LowFreqBroadening,
    g_low,
    g_relax,
    relax_width,
    thermal_enhancement,
)
from .errors import DomainError, ModelValidityWarning, ValidationError
from .units import FluxUPhi0, FreqGHz, TempK, flux_to_energy, kelvin_to_ghz

GRID_MIN_POINTS = 2**14 + 1
GRID_MAX_POINTS = 2**18 + 1
TABLE_FLOOR = 1e-14
_INCOHERENT_WARN_RATIO = 0.3

InitWell = str  # "L" or "R"


def _check_well(init_well: str) -> str:
    if init_well not in ("L", "R"):
        raise ValidationError(f"init_well must be 'L' or 'R', got {init_well!r}")
    return init_well


@dataclass(frozen=True)
class MrtParams:
    """The fit parameters of the two-peak rate model plus the fixed
    persistent current.

    Tunneling amplitudes are energies as equivalent frequencies in GHz,
    noise broadenings and the peak separation are in micro flux quanta,
    the temperature in kelvin, the persistent current in ampere.
    """

    delta01_ghz: FreqGHz
    delta03_ghz: FreqGHz
    phi31_uphi0: FluxUPhi0
    w_phi_uphi0: FluxUPhi0
    gamma_phi_uphi0: FluxUPhi0
    zeta_phi_uphi0: FluxUPhi0
    temperature_k: TempK
    ip_a: float

    def __post_init__(self):
        positive = {
            "delta01_ghz": self.delta01_ghz,
            "phi31_uphi0": self.phi31_uphi0,
            "w_phi_uphi0": self.w_phi_uphi0,
            "temperature_k": self.temperature_k,
            "ip_a": self.ip_a,
        }
        for name, value in positive.items():
            if not value > 0:
                raise ValidationError(f"{name} must be positive, got {value}")
        # delta03 = 0 is the degenerate single-peak model (first peak absent)
        for name, value in (("delta03_ghz", self.delta03_ghz),
                            ("gamma_phi_uphi0", self.gamma_phi_uphi0),
                            ("zeta_phi_uphi0", self.zeta_phi_uphi0)):
            if value < 0:
                raise ValidationError(f"{name} must be non-negative, got {value}")
        w_ghz = flux_to_energy(self.w_phi_uphi0, self.ip_a)
        if self.delta01_ghz > _INCOHERENT_WARN_RATIO * w_ghz:
            warnings.warn(
                f"delta01 = {self.delta01_ghz:.3g} GHz is not small against the "
                f"low-frequency width {w_ghz:.3g} GHz; the incoherent-tunneling "
                "rate picture is strained",
                ModelValidityWarning, stacklevel=3)

    # internal-unit views
    def w_ghz(self) -> FreqGHz:
        return flux_to_energy(self.w_phi_uphi0, self.ip_a)

    def gamma_ghz(self) -> FreqGHz:
        return flux_to_energy(self.gamma_phi_uphi0, self.ip_a)

    def zeta_ghz(self) -> FreqGHz:
        return flux_to_energy(self.zeta_phi_uphi0, self.ip_a)

    def nu31_ghz(self) -> FreqGHz:
        return flux_to_energy(self.phi31_uphi0, self.ip_a)

    def temperature_ghz(self) -> FreqGHz:
        return kelvin_to_ghz(self.temperature_k)


@dataclass(frozen=True, eq=False)
class RateCurve:
    """Sampled rate-versus-flux curve for one initialization well."""

    phi_x: np.ndarray
    rate: np.ndarray
    init_well: InitWell = "L"

    def __post_init__(self):
        phi = np.asarray(self.phi_x, dtype=float)
        rate = np.asarray(self.rate, dtype=float)
        object.__setattr__(self, "phi_x", phi)
        object.__setattr__(self, "rate", rate)
        _check_well(self.init_well)
        if phi.ndim != 1 or phi.shape != rate.shape:
            raise ValidationError("phi_x and rate must be 1-d arrays of equal length")
        if len(phi) > 1 and not np.all(np.diff(phi) > 0):
            raise ValidationError("phi_x must be strictly increasing")
        if not np.all(rate > 0):
            raise ValidationError("rates must be positive everywhere")

    def __len__(self):
        return len(self.phi_x)


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Uniform frequency grid (GHz) containing zero."""

    values: np.ndarray
    step: float
    index_of_zero: int

    @classmethod
    def build(cls, lo: float, hi: float, step_want: float,
              n_min: int = GRID_MIN_POINTS, n_max: int = GRID_MAX_POINTS):
        if not lo < 0 < hi:
            lo = min(lo, -abs(step_want))
            hi = max(hi, abs(step_want))
        n = int(math.ceil((hi - lo) / step_want)) + 1
        n = max(n_min, min(n_max, n))
        step = (hi - lo) / (n - 1)
        iz = int(round(-lo / step))
        values = (np.arange(n) - iz) * step
        return cls(values=values, step=step, index_of_zero=iz)

    @property
    def lo(self) -> float:
        return self.values[0]

    @property
    def hi(self) -> float:
        return self.values[-1]

    def __len__(self):
        return len(self.values)


def convolve(f: np.ndarray, g: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """Convolution h(nu) = integral f(nu - nu') g(nu') d nu' on ``grid``.

    Both inputs must be tabulated on the same grid.  Implemented as a
    real FFT convolution zero-padded to a fast length of at least 2n - 1
    (non-cyclic); the slice aligns the result with the input grid through
    the grid's zero index.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    n = len(grid)
    if f.shape != (n,) or g.shape != (n,):
        raise ValidationError("convolve requires both tabulations on the given grid")
    n_fft = next_fast_len(2 * n - 1, real=True)
    full = irfft(rfft(f, n_fft) * rfft(g, n_fft), n_fft)
    iz = grid.index_of_zero
    return full[iz: iz + n] * grid.step


def _rate_coef(delta_ghz: float) -> float:
    """(Delta / 2 hbar)^2 expressed so that coef * g[1/GHz] is in 1/us."""
    return 1e3 * (2.0 * math.pi * delta_ghz) ** 2 / 4.0


class LineShapes:
    """Tabulated line shapes of both peaks for one parameter set.

    Build once per parameter set and bias range; evaluation at arbitrary
    biases is then cheap.  The tabulated span covers the requested bias
    window for both peaks plus padding wide enough that truncated
    envelope tails are negligible.
    """

    def __init__(self, params: MrtParams, phi_lo: float, phi_hi: float,
                 gr_form: str = "standard",
                 n_min: int = GRID_MIN_POINTS, n_max: int = GRID_MAX_POINTS):
        if phi_lo > phi_hi:
            phi_lo, phi_hi = phi_hi, phi_lo
        self.params = params
        self.gr_form = gr_form
        w = params.w_ghz()
        gam = params.gamma_ghz()
        zet = params.zeta_ghz()
        t = params.temperature_ghz()
        nu31 = params.nu31_ghz()
        self._lf = LowFreqBroadening(width_ghz=w, temperature_ghz=t)
        self._hf = HighFreqBroadening(gamma_ghz=gam, temperature_ghz=t) if gam > 0 else None
        self._rx = (IntrawellBroadening(zeta_ghz=zet, omega31_ghz=nu31,
                                        temperature_ghz=t) if zet > 0 else None)
        self._nu31 = nu31

        eps_lo = flux_to_energy(phi_lo, params.ip_a)
        eps_hi = flux_to_energy(phi_hi, params.ip_a)
        pad = 8.0 * w + 40.0 * t + 40.0 * gam + 4.0 * zet
        lo = min(eps_lo, eps_lo - nu31) - pad
        hi = max(eps_hi, eps_hi - nu31) + pad
        lo = min(lo, -pad)
        hi = max(hi, pad)
        step_want = min(w / 2.0, 2.0 * t / 3.0)
        if self._rx is not None:
            width0 = float(relax_width(nu31, self._rx))
            step_want = min(step_want, width0 / 2.0)
        self.grid = FrequencyGrid.build(lo, hi, step_want, n_min, n_max)

        self._table01 = self._build_zeroth()
        self._table03 = self._build_first()
        self._log01 = self._log_table(self._table01)
        self._log03 = self._log_table(self._table03)

    # ---- table assembly -------------------------------------------------

    def _gaussian_table(self) -> np.ndarray:
        """Low-frequency Gaussian, renormalized so its discrete mass equals
        the analytic mass over the grid window (matters only when the
        width is near the grid step)."""
        nu = self.grid.values
        lf = self._lf
        tab = g_low(nu, lf)
        rt2w = math.sqrt(2.0) * lf.width_ghz
        mass = 0.5 * (erf((self.grid.hi - lf.shift_ghz) / rt2w)
                      - erf((self.grid.lo - lf.shift_ghz) / rt2w))
        discrete = float(np.sum(tab)) * self.grid.step
        if discrete > 0:
            tab = tab * (mass / discrete)
        return tab

    def _build_zeroth(self) -> np.ndarray:
        """G_01 on the grid: Voigt core plus convolved thermal correction."""
        nu = self.grid.values
        lf, hf = self._lf, self._hf
        if hf is None:
            return g_low(nu, lf)
        g = hf.gamma_ghz
        t = hf.temperature_ghz
        core = voigt_profile(nu - lf.shift_ghz, lf.width_ghz, g)
        # remainder of the ohmic envelope beyond its bare Lorentzian core
        rem = (g / math.pi) / (nu * nu + g * g) * (thermal_enhancement(nu / t) - 1.0)
        if lf.width_ghz >= 1.5 * self.grid.step:
            corr = convolve(rem, self._gaussian_table(), self.grid)
        else:
            # Gaussian narrower than the grid: treat it as a delta at the
            # reorganization shift (its width already lives in the Voigt term)
            sh = nu - lf.shift_ghz
            corr = (g / math.pi) / (sh * sh + g * g) * (thermal_enhancement(sh / t) - 1.0)
        return np.maximum(core + corr, 0.0)

    def _relax_table(self) -> np.ndarray:
        nu = self.grid.values
        rx = self._rx
        tab = g_relax(nu, rx, form=self.gr_form)
        width0 = float(relax_width(rx.omega31_ghz, rx))
        if width0 < 3.0 * self.grid.step:
            # narrow core: pin the discrete mass to the analytic mass; break
            # points at the core's flanks keep quad from stepping over it
            lo, hi = self.grid.lo, self.grid.hi
            core = 50.0 * width0
            points = [x for x in (0.0, -rx.omega31_ghz, -core, core) if lo < x < hi]
            mass = quad(lambda x: float(g_relax(x, rx, form=self.gr_form)),
                        lo, hi, points=points, limit=400)[0]
            if not mass > 0:
                raise DomainError(
                    f"narrow relaxation core: quadrature mass {mass:.3g} is not "
                    f"positive at zeta = {self.params.zeta_phi_uphi0:.6g} uPhi0 "
                    f"over the frequency window {lo:.6g}..{hi:.6g} GHz")
            discrete = float(np.sum(tab)) * self.grid.step
            if discrete > 0:
                tab = tab * (mass / discrete)
        return tab

    def _build_first(self) -> np.ndarray | None:
        if self._rx is None:
            return None
        return convolve(self._table01, self._relax_table(), self.grid)

    @staticmethod
    def _log_table(table):
        if table is None:
            return None
        floor = table.max() * TABLE_FLOOR
        return np.log(np.maximum(table, floor))

    # ---- evaluation ------------------------------------------------------

    def _local_cubic(self, log_table: np.ndarray, eps: np.ndarray) -> np.ndarray:
        """Four-point Lagrange cubic through ``log_table`` at ``eps`` (GHz).

        The stencil is the nodes i-1..i+2 around each bias, clamped at the
        grid ends.  The offset s from node i is taken from the nearest
        stored node, so a bias on a node returns that node's value exactly.
        """
        grid = self.grid
        near = np.rint(eps / grid.step + grid.index_of_zero).astype(np.intp)
        s = (eps - grid.values[near]) / grid.step
        i = np.clip(near - (s < 0), 1, len(grid) - 3)
        s = s + (near - i)
        a, b, c, d = s + 1.0, s, s - 1.0, s - 2.0
        return (-(b * c * d) / 6.0 * log_table[i - 1]
                + (a * c * d) / 2.0 * log_table[i]
                - (a * b * d) / 2.0 * log_table[i + 1]
                + (a * b * c) / 6.0 * log_table[i + 2])

    def _check_span(self, eps: np.ndarray):
        # written so that a NaN bias fails the check too
        if eps.size and not (self.grid.lo <= eps.min() and eps.max() <= self.grid.hi):
            raise DomainError(
                "bias outside the tabulated span; rebuild the line shapes "
                "with a wider flux range")

    def shape01(self, eps_ghz) -> np.ndarray:
        """G_01 (per GHz) at energy bias eps (GHz)."""
        eps = np.atleast_1d(np.asarray(eps_ghz, dtype=float))
        if self._hf is None:
            return g_low(eps, self._lf)
        self._check_span(eps)
        return np.exp(self._local_cubic(self._log01, eps))

    def shape03(self, eps_ghz) -> np.ndarray:
        """G_03 (per GHz) at energy bias eps (GHz); the excited-state
        resonance shift is applied internally."""
        eps = np.atleast_1d(np.asarray(eps_ghz, dtype=float))
        om = eps - self._nu31
        if self._rx is None:
            return self.shape01(om)
        self._check_span(om)
        return np.exp(self._local_cubic(self._log03, om))

    def rate01(self, phi_x) -> np.ndarray:
        eps = flux_to_energy(np.atleast_1d(np.asarray(phi_x, dtype=float)),
                             self.params.ip_a)
        return _rate_coef(self.params.delta01_ghz) * self.shape01(eps)

    def rate03(self, phi_x) -> np.ndarray:
        eps = flux_to_energy(np.atleast_1d(np.asarray(phi_x, dtype=float)),
                             self.params.ip_a)
        return _rate_coef(self.params.delta03_ghz) * self.shape03(eps)

    def total(self, phi_x, init_well: InitWell = "L") -> np.ndarray:
        """Total escape rate; right-well initialization is the mirror image
        of the left-well curve."""
        _check_well(init_well)
        phi = np.atleast_1d(np.asarray(phi_x, dtype=float))
        if init_well == "R":
            phi = -phi
        return self.rate01(phi) + self.rate03(phi)


@functools.lru_cache(maxsize=32)
def _cached_shapes(params: MrtParams, phi_lo_q: float, phi_hi_q: float,
                   gr_form: str) -> LineShapes:
    return LineShapes(params, phi_lo_q, phi_hi_q, gr_form=gr_form)


_QUANTUM_UPHI0 = 500.0


def line_shapes_for(params: MrtParams, phi_lo: float, phi_hi: float,
                    gr_form: str = "standard") -> LineShapes:
    """Cached line shapes covering at least [phi_lo, phi_hi] (uPhi0).

    The range is quantized outward so that repeated point-wise calls with
    nearby biases share one tabulation.
    """
    lo_q = _QUANTUM_UPHI0 * math.floor(min(phi_lo, 0.0) / _QUANTUM_UPHI0)
    hi_q = _QUANTUM_UPHI0 * math.ceil(max(phi_hi, 0.0) / _QUANTUM_UPHI0)
    return _cached_shapes(params, lo_q, hi_q, gr_form)


def _as_folded(phi_x, init_well: InitWell):
    _check_well(init_well)
    phi = np.atleast_1d(np.asarray(phi_x, dtype=float))
    return (-phi if init_well == "R" else phi)


def rate_01(phi_x, params: MrtParams, gr_form: str = "standard"):
    """Zeroth-peak rate (1/us) at flux bias ``phi_x`` (uPhi0), left init."""
    phi = np.atleast_1d(np.asarray(phi_x, dtype=float))
    shapes = line_shapes_for(params, phi.min(), phi.max(), gr_form)
    out = shapes.rate01(phi)
    return out[0] if np.isscalar(phi_x) else out


def rate_03(phi_x, params: MrtParams, gr_form: str = "standard"):
    """First-peak rate (1/us) at flux bias ``phi_x`` (uPhi0), left init."""
    phi = np.atleast_1d(np.asarray(phi_x, dtype=float))
    shapes = line_shapes_for(params, phi.min(), phi.max(), gr_form)
    out = shapes.rate03(phi)
    return out[0] if np.isscalar(phi_x) else out


def total_rate(phi_x, params: MrtParams, init_well: InitWell = "L",
               gr_form: str = "standard"):
    """Total escape rate (1/us) for either initialization well."""
    folded = _as_folded(phi_x, init_well)
    shapes = line_shapes_for(params, folded.min(), folded.max(), gr_form)
    out = shapes.rate01(folded) + shapes.rate03(folded)
    return out[0] if np.isscalar(phi_x) else out


def simulate_curve(phi_grid, params: MrtParams, init_well: InitWell = "L",
                   gr_form: str = "standard") -> RateCurve:
    """Tabulate the total rate over a sorted flux grid.

    One line-shape tabulation is shared by all points; the model is a
    fixed shape evaluated at shifted arguments.
    """
    phi = np.asarray(phi_grid, dtype=float)
    if phi.ndim != 1 or len(phi) == 0:
        raise ValidationError("phi_grid must be a non-empty 1-d sequence")
    if len(phi) > 1 and not np.all(np.diff(phi) > 0):
        raise ValidationError("phi_grid must be strictly increasing")
    folded = _as_folded(phi, init_well)
    shapes = line_shapes_for(params, float(folded.min()), float(folded.max()),
                             gr_form)
    rate = shapes.rate01(folded) + shapes.rate03(folded)
    return RateCurve(phi_x=phi, rate=rate, init_well=init_well)
