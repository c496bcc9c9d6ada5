"""Two-peak tunneling rate curves from convolved noise envelopes.

The rate out of the initialized well at energy bias eps is

    rate_0n(eps) = (Delta_0n / 2 hbar)^2 * G_0n(eps),   n = 1, 3

where G_01 is the low-frequency Gaussian convolved with the ohmic
envelope and G_03 additionally convolves the intrawell relaxation
envelope, shifted to the excited-state resonance.  The line shapes are
tabulated once per parameter set on a uniform frequency grid with FFT
convolutions and then evaluated only at the requested biases, by a local
six-point quintic through the log line shape at the nearest grid nodes.

Two exact analytic short cuts replace the convolution in the
delta-function limits: gamma = 0 turns the ohmic envelope into a delta
(zeroth peak becomes the bare Gaussian), zeta = 0 turns the relaxation
envelope into a delta (first peak becomes a translated copy of the
zeroth).

The ohmic envelope is split exactly: with theta(y) = 1 + y/2 + e(y) and
e(y) = (y/2) coth(y/2) - 1,

    g_high(x) = A L_gamma(x) + B D_gamma(x) + s(x),

where L_gamma is the Lorentzian, D_gamma = x / pi (x^2 + gamma^2),
A = (gamma/2T) cot(gamma/2T), B = gamma/2T, and
s = (gamma/pi) (e(x/T) - e(i gamma/T)) / (x^2 + gamma^2).  The Gaussian
convolved with the first two terms is (A Re w(z) + B Im w(z)) /
(W sqrt(2 pi)) from the Faddeeva function w (a trapezoid rule near the
peak, its asymptotic series beyond).  The numerator of s vanishes at the poles
+-i gamma, so s is smooth on the thermal scale and only s is convolved
numerically.  G_01 obeys detailed balance, G_01(-nu) = exp(-nu/T) G_01(nu)
(Amin & Averin, PRL 100, 197001, 2008), and is computed on nu >= 0 only.

No grid step therefore has to resolve gamma: with s = min(W/8, 2T/3),
from the local quintic's (step/W)^6 log error and the thermal scale, the
step is min(s, max(width0/3, s/2)) for the relaxation width width0 at
resonance.  A relaxation core narrower than three steps is pinned, not
resolved: g_relax is a Lorentzian L_h of half-width h = width0 plus a
remainder smooth on the grid, and three nodes at zero give the sampled
L_h its closed-form mass and second moment.  Only a tiny W or a wide
window reaches the GRID_MAX_POINTS clamp, which warns.
``LineShapes.diagnostics`` records what applied, the term of the rule
that set the step included.

A build also keeps what the parameter derivatives need, so the fitter
gets exact sensitivities of the tabulated line shapes from a few more
FFTs instead of finite differences over further builds; the Gaussian's
slope spectra follow from its own spectrum in closed form.

Every rate comes from ``LineShapes.rates``, which applies the two
amplitudes to the line shapes at folded biases.  The two public entry
points build on the folded window of their own biases: ``peak_rates``
returns (r01, r03), and ``simulate_curve`` returns their sum as a
``RateDataset``, the one rate-versus-flux record, so a simulated curve
can be saved, mirrored and fitted as measured data is.  ``MrtParams``
holds the values of the fit parameters of ``units.FIT_PARAMS`` and checks
their ranges; its internal-unit views, the shift W^2/2T included, are the
plain GHz scalars a build hands to the envelopes, and a build warns when
the ohmic coupling 2 gamma / k_B T is not small.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.fft import irfft, rfft, rfftfreq

from .envelopes import (balance_factor, balance_factor_slope, g_low, g_relax,
                        relax_width, thermal_excess)
from .errors import DomainError, ModelValidityWarning, ValidationError
from .units import (FIT_PARAMS, FluxUPhi0, FreqGHz, TempK, energy_to_flux,
                    flux_to_energy, kelvin_to_ghz)

GRID_MAX_POINTS = 2**18 + 1
TABLE_FLOOR = 1e-14
_LOG_TINY = math.log(np.finfo(float).tiny)   # below it exp leaves the normal doubles
_INCOHERENT_WARN_RATIO = 0.3
_OHMIC_COUPLING_WARN = 0.3
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)

# reach of the Gaussian below its centre, in widths, that the ohmic
# remainder is tabulated for below zero
_GAUSS_REACH = 10.0
# w(z): inside |z| < R the trapezoid rule of step h on the node pairs +-t,
# t = 0..18h (t = 0 one node, of half weight), or shifted by h/2 where Re z is
# within h/4 of a node: 2.7e-14 from wofz in |w|, 1e-13 in Re w down to Im z =
# 1e-9.  Beyond R, the asymptotic series to this many terms (2.3e-15 in each part)
_FADDEEVA_R, _FADDEEVA_H, _FADDEEVA_TERMS = 10.0, 0.4, 12
_FADDEEVA_T2 = (np.arange(19) * _FADDEEVA_H + np.array([[0.0], [0.5 * _FADDEEVA_H]])) ** 2
_FADDEEVA_WEIGHTS = _FADDEEVA_H / math.pi * np.exp(-_FADDEEVA_T2)
_FADDEEVA_WEIGHTS[0, 0] /= 2.0
# largest exp(a |nu|) the first-peak tilt may reach over the grid, as a log
_TILT_REACH = 14.0
# nodes either side of zero over which a pinned core keeps its second moment
_CORE_MOMENT_NODES = 64
# the interpolation stencil, nodes i-2..i+3 about the node i at or below a
# bias; the quintic's weight denominators prod_{j != k} (k - j), and the
# coefficients in s of its weights' slopes, highest power first
_STENCIL = np.arange(-2, 4)
_QUINTIC_DENOM = np.array([[-120.0], [24.0], [-12.0], [12.0], [-24.0], [120.0]])
_QUINTIC_SLOPE = np.array([np.polyder(np.poly(np.delete(_STENCIL, k)))
                           for k in range(len(_STENCIL))]) / _QUINTIC_DENOM


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
            if not 0 < value < math.inf:
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        # delta03 = 0 is the degenerate single-peak model (first peak absent)
        for name, value in (("delta03_ghz", self.delta03_ghz),
                            ("gamma_phi_uphi0", self.gamma_phi_uphi0),
                            ("zeta_phi_uphi0", self.zeta_phi_uphi0)):
            if not 0 <= value < math.inf:
                raise ValidationError(
                    f"{name} must be non-negative and finite, got {value}")
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

    def shift_ghz(self) -> FreqGHz:
        """The Gaussian's reorganization shift eps_p, tied to its width by
        the fluctuation-dissipation relation W^2 = 2 k_B T eps_p."""
        return self.w_ghz() ** 2 / (2.0 * self.temperature_ghz())

    @classmethod
    def from_names(cls, values: dict, ip_a: float) -> MrtParams:
        """The parameters from values keyed by fit-parameter name (see FIT_PARAMS)."""
        return cls(ip_a=ip_a, **{q.field: values[q.name] for q in FIT_PARAMS})


# the fields the line shapes depend on (all but the two tunneling
# amplitudes), in the column order of LineShapes.log_shape_grads;
# _NU31.._T index them
SHAPE_FIELDS = tuple(q.field for q in FIT_PARAMS[2:])
_NU31, _W, _GAM, _ZET, _T = range(len(SHAPE_FIELDS))


@dataclass(frozen=True, eq=False)
class RateDataset:
    """Measured (or synthetic) rate-versus-flux data for one qubit.

    ``well`` is either a single 'L'/'R' for the whole dataset or an array
    of per-point labels.  The persistent current is an independently
    measured input, never fitted.
    """

    phi_x: np.ndarray
    rate: np.ndarray
    ip_a: float
    sigma_rel: Optional[np.ndarray] = None
    well: object = "L"
    qubit_id: Optional[str] = None

    def __post_init__(self):
        phi = np.asarray(self.phi_x, dtype=float)
        rate = np.asarray(self.rate, dtype=float)
        object.__setattr__(self, "phi_x", phi)
        object.__setattr__(self, "rate", rate)
        if phi.ndim != 1 or phi.shape != rate.shape or len(phi) == 0:
            raise ValidationError("phi_x and rate must be non-empty 1-d arrays "
                                  "of equal length")
        if not np.all(np.isfinite(phi)):
            raise ValidationError("phi_x must be finite")
        if not np.all(np.isfinite(rate) & (rate > 0)):
            raise ValidationError("all rates must be positive and finite")
        if not 0 < self.ip_a < math.inf:
            raise ValidationError(f"ip_a must be positive and finite, got {self.ip_a}")
        # the id names output files and a batch-summary column
        qid = self.qubit_id
        if qid is not None and (qid in ("", ".", "..") or not qid.isprintable()
                                or any(c in qid for c in "/\\,")):
            raise ValidationError("qubit_id must be a non-empty file name without "
                                  f"'/', '\\' or ',', got {qid!r}")
        if self.sigma_rel is not None:
            sig = np.asarray(self.sigma_rel, dtype=float)
            object.__setattr__(self, "sigma_rel", sig)
            if sig.shape != phi.shape or not np.all(np.isfinite(sig) & (sig > 0)):
                raise ValidationError("sigma_rel must be positive, finite and "
                                      "match phi_x")
        wells = self.well_labels()
        if not np.all(np.isin(wells, ("L", "R"))):
            raise ValidationError("well labels must be 'L' or 'R'")

    def __len__(self):
        return len(self.phi_x)

    def well_labels(self) -> np.ndarray:
        if isinstance(self.well, str):
            return np.full(len(self.phi_x), self.well)
        return np.asarray(self.well)

    def folded_phi(self) -> np.ndarray:
        """Flux biases mapped to the left-initialization orientation."""
        phi = self.phi_x.copy()
        phi[self.well_labels() == "R"] *= -1.0
        return phi

    def mirrored(self) -> "RateDataset":
        """The same data relabeled as seen from the opposite well."""
        wells = self.well_labels()
        flipped = np.where(wells == "L", "R", "L")
        return RateDataset(phi_x=-self.phi_x, rate=self.rate.copy(),
                           ip_a=self.ip_a, sigma_rel=None if self.sigma_rel is None
                           else self.sigma_rel.copy(), well=flipped,
                           qubit_id=self.qubit_id)


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Uniform frequency grid (GHz) on a window lo < 0 < hi."""

    values: np.ndarray
    step: float
    index_of_zero: int

    @classmethod
    def build(cls, lo: float, hi: float, step_want: float, n_min: int = 0):
        n = int(math.ceil((hi - lo) / step_want)) + 1
        n = max(n_min, min(GRID_MAX_POINTS, n))
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


def _next_fast_len(n: int) -> int:
    """The least 2^a 3^b 5^c >= n >= 1, as ``scipy.fft.next_fast_len(n, real=True)``."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            fit = p35 << (-(-n // p35) - 1).bit_length()
            best = fit if fit < best else best
            p35 *= 3
        p5 *= 5
    return best


class _Convolution:
    """Linear FFT convolution of two operands on a grid of n nodes onto it.

    Only the n output nodes are kept, so the cyclic length need only keep
    wrap-around off them: max(2n - 1 - iz, n + iz) for a zero index iz,
    about 3n/2 rather than the 2n - 1 of full zero padding.  Operand
    spectra can be kept and recombined: ``back`` of a sum of spectrum
    products is the sum of the convolutions.

    A ``tilt`` a > 0 multiplies both operands by exp(-a nu) and the result
    by exp(a nu).  The exact convolution is unchanged, but the FFT's
    rounding, which is about eps * max in absolute terms, then falls off
    as exp(a nu) on the negative side, where it would otherwise swamp a
    steeply falling tail.
    """

    def __init__(self, grid: FrequencyGrid, tilt: float = 0.0):
        n = len(grid)
        iz = grid.index_of_zero
        self.n_fft = _next_fast_len(max(2 * n - 1 - iz, n + iz))
        self._kept = slice(iz, iz + n)
        self.step = grid.step
        self._weights = self._unweights = None
        if tilt > 0:
            self._weights = np.exp(-tilt * (np.arange(n) - iz) * grid.step)
            self._unweights = 1.0 / self._weights

    def spectrum(self, f: np.ndarray) -> np.ndarray:
        if self._weights is not None:
            f = f * self._weights
        return rfft(f, self.n_fft)

    def back(self, spectrum: np.ndarray) -> np.ndarray:
        full = irfft(spectrum, self.n_fft)
        out = full[self._kept] * self.step
        if self._unweights is not None:
            out = out * self._unweights
        return out


def _ohmic_core_weights(g: float, t: float) -> tuple:
    """Weights A = (y/2) cot(y/2) and B = y/2 of the Lorentzian and of the
    dispersion term in the split of the ohmic envelope, y = gamma / T, and
    dA/dy.  A = 1 + e(i y) for the even thermal excess e of
    :func:`~mrtfit.envelopes.thermal_excess`; a series below y < 0.1."""
    y = g / t
    if y < 0.1:
        y2 = y * y
        a = 1.0 - y2 * (1 / 12 + y2 * (1 / 720 + y2 * (1 / 30240 + y2 / 1209600)))
        da = -y * (1 / 6 + y2 * (1 / 180 + y2 * (1 / 5040 + y2 / 151200)))
    else:
        h = 0.5 * y
        cot = 1.0 / math.tan(h)
        a = h * cot
        da = 0.5 * (cot - h / math.sin(h) ** 2)
    return a, 0.5 * y, da


def _ohmic_remainder(x: np.ndarray, g: float, t: float,
                     excess: tuple | None = None) -> np.ndarray:
    """s(x), the ohmic envelope beyond its core A L_gamma + B D_gamma, from
    the thermal excess (e, e') at x/T if it is given.

    s = (gamma / pi) (e(x/T) - e(i gamma/T)) / (x^2 + gamma^2): the zeros
    of the numerator cancel the poles at +-i gamma, so s is smooth on the
    thermal scale."""
    e = (thermal_excess(x / t) if excess is None else excess)[0]
    c = _ohmic_core_weights(g, t)[0] - 1.0
    return (g / math.pi) * (e - c) / (x * x + g * g)


def _ohmic_remainder_slopes(x: np.ndarray, g: float, t: float, excess: tuple) -> tuple:
    """Derivatives of :func:`_ohmic_remainder` in x, gamma and T, from the
    thermal excess (e, e') at x/T."""
    a, _, da = _ohmic_core_weights(g, t)
    e, de = excess
    x2g2 = x * x + g * g
    lor = (g / math.pi) / x2g2
    rem = lor * (e - (a - 1.0))
    d_x = lor * de / t - 2.0 * x * rem / x2g2
    d_g = rem * (x * x - g * g) / (g * x2g2) - lor * da / t
    d_t = lor * (g * da - x * de) / (t * t)
    return d_x, d_g, d_t


def _faddeeva(z: np.ndarray) -> np.ndarray:
    """The Faddeeva function w(z), Im z >= 0.  Inside |z| < R, the trapezoid
    rule for w(x + iy) = (1/pi) int e^{-t^2} (y + i(x-t)) / ((x-t)^2 + y^2) dt
    plus 2 e^{-z^2} / (1 -+ e^{-2 pi i z/h}) for its pole at t = z (Matta &
    Reichel, Math. Comp. 25, 339, 1971), - on the nodes k h, + on those shifted
    by h/2.  The nodes +-t sum to 2 (y (|z|^2 + t^2) + i x (|z|^2 - t^2)) /
    |z^2 - t^2|^2: Re w keeps its accuracy near the real axis, Im w its factor
    x.  Beyond R, the series i / (sqrt(pi) z) sum_k (2k-1)!! / (2z^2)^k."""
    out = np.empty_like(z)
    near = np.abs(z) < _FADDEEVA_R
    zn, h = z[near], _FADDEEVA_H
    x, y = zn.real, zn.imag
    half = (np.abs(x / h - np.rint(x / h)) < 0.25).astype(np.intp)
    t2 = _FADDEEVA_T2[half]
    d = (x * x - y * y)[:, None] - t2
    q = _FADDEEVA_WEIGHTS[half] / (d * d + ((2.0 * x * y) ** 2)[:, None])
    q0, q2 = (x * x + y * y) * q.sum(1), np.einsum("mk,mk->m", q, t2)
    out[near] = 2.0 * np.exp(-zn * zn) / (1.0 + (2 * half - 1) * np.exp((-2j * math.pi / h) * zn))
    out.real[near] += 2.0 * y * (q0 + q2)
    out.imag[near] += 2.0 * x * (q0 - q2)
    far = z[~near]
    v, acc = 0.5 / (far * far), 1.0
    for k in range(2 * _FADDEEVA_TERMS - 3, 0, -2):
        acc = 1.0 + k * v * acc
    out[~near] = 1j * acc / (_SQRT_PI * far)
    return out


def _rate_coef(delta_ghz: float) -> float:
    """(Delta / 2 hbar)^2 expressed so that coef * g[1/GHz] is in 1/us."""
    return 1e3 * (2.0 * math.pi * delta_ghz) ** 2 / 4.0


def _core_pin(grid: FrequencyGrid, h: float) -> tuple:
    """Values at the nodes -1, 0, 1 about zero, and their slopes in h, that
    give L_h = h / pi (nu^2 + h^2) sampled on ``grid`` its closed-form mass
    over the window, (atan(hi/h) - atan(lo/h)) / pi, and second moment over
    +-a, a = K steps.  As nu^2 L_h = h / pi - h^2 L_h, the trapezoid rule's
    error in that moment is -h^2 times its error in the mass over +-a."""
    nu, iz, step = grid.values, grid.index_of_zero, grid.step
    lo, hi, h2 = nu[0], nu[-1], h * h
    x2h2 = nu * nu + h2
    lor = (h / math.pi) / x2h2
    lor_h = (nu * nu - h2) / (math.pi * x2h2**2)
    d0 = (math.atan(hi / h) - math.atan(lo / h)) / math.pi - float(np.sum(lor)) * step
    d0_h = ((lo / (lo * lo + h2) - hi / (hi * hi + h2)) / math.pi
            - float(np.sum(lor_h)) * step)
    # the grid is symmetric about zero, so the two trapezoid ends are equal
    k = min(_CORE_MOMENT_NODES, iz, len(nu) - 1 - iz)
    near, a = slice(iz - k, iz + k + 1), k * step
    local = (float(np.sum(lor[near])) - lor[iz + k]) * step - 2.0 * math.atan(a / h) / math.pi
    local_h = ((float(np.sum(lor_h[near])) - lor_h[iz + k]) * step
               + 2.0 * a / (math.pi * (a * a + h2)))
    # d2 / 2 step^3 on each side node, the rest of the mass d0 at zero
    d2, d2_h = h2 * local, h2 * local_h + 2.0 * h * local
    return tuple(np.array([b, 2.0 * m * step**2 - 2.0 * b, b]) / (2.0 * step**3)
                 for m, b in ((d0, d2), (d0_h, d2_h)))


def _quintic(s: np.ndarray) -> np.ndarray:
    """Weights (6, len(s)) of the six-point Lagrange quintic on the nodes
    -2..3 at s.  Each is a product of the factors s - j over the other
    nodes, so an integer s gives exactly one unit weight."""
    a, b, c, d, e, f = s - _STENCIL[:, None]
    ab, ef = a * b, e * f
    abc, def_ = ab * c, d * ef
    abcd, cdef = abc * d, c * def_
    weights = (b * cdef, a * cdef, ab * def_, abc * ef, abcd * f, abcd * e)
    return np.array(weights) / _QUINTIC_DENOM


class LineShapes:
    """Tabulated line shapes of both peaks for one parameter set.

    Build once per parameter set and bias range; evaluation at arbitrary
    biases is then cheap.  The tabulated span covers the requested bias
    window for both peaks plus padding wide enough that truncated
    envelope tails are negligible.

    A build keeps the parts its tables are made of (the Faddeeva values
    behind the Voigt core and the spectra of the convolution operands), so
    :meth:`log_shape_grads` gets the parameter sensitivities from a few
    more FFTs rather than from further builds.

    ``diagnostics`` is a plain dict filled during the build: the node count
    ``n``, the ``step`` used, the ``step_wanted`` by the physics and the
    ``step_term`` of the rule that set it (for example "W/8/2", the W/8
    term halved for a pinned relaxation core), whether the GRID_MAX_POINTS
    clamp made the step coarser (``clamped``; it also warns), whether the
    Gaussian was narrower than the grid and taken as a delta
    (``gaussian_as_delta``), and whether the relaxation core was narrower
    than three steps and pinned at zero (``relax_renorm``).
    """

    def __init__(self, params: MrtParams, phi_lo: float, phi_hi: float,
                 n_min: int = 0):
        if phi_lo > phi_hi:
            phi_lo, phi_hi = phi_hi, phi_lo
        self.params = params
        w = self._w = params.w_ghz()
        gam = self._gam = params.gamma_ghz()
        zet = self._zet = params.zeta_ghz()
        t = self._t = params.temperature_ghz()
        nu31 = self._nu31 = params.nu31_ghz()
        self._shift = params.shift_ghz()
        eta = 2.0 * gam / t
        if eta > _OHMIC_COUPLING_WARN:
            warnings.warn(
                f"ohmic coupling eta = 2*gamma/k_BT = {eta:.3g} is not small; "
                "the weak-coupling line shape is unreliable here",
                ModelValidityWarning, stacklevel=2)

        eps_lo = flux_to_energy(phi_lo, params.ip_a)
        eps_hi = flux_to_energy(phi_hi, params.ip_a)
        pad = 8.0 * w + 40.0 * t + 40.0 * gam + 4.0 * zet
        # both peaks' windows and zero: whatever the window, G_03 draws on
        # the relaxation wing down to -nu31
        lo = min(eps_lo, 0.0) - nu31 - pad
        hi = max(eps_hi, 0.0) + pad
        # the local quintic's log-space error falls as (step / W)^6; the
        # aliasing of the sampled relaxation core is exp(-2 pi width0 / step)
        step_want, term = min((w / 8.0, "W/8"), (2.0 * t / 3.0, "2T/3"))
        if zet > 0:
            self._width0 = float(relax_width(nu31, zet, t))
            # a core below three half-steps is pinned, not resolved
            step_want, term = min((step_want, term), max(
                (self._width0 / 3.0, "width0/3"), (step_want / 2.0, term + "/2")))
        self.grid = FrequencyGrid.build(lo, hi, step_want, n_min)
        self.diagnostics = {"n": len(self.grid), "step": self.grid.step,
                            "step_wanted": step_want, "step_term": term,
                            "clamped": self.grid.step > step_want,
                            "gaussian_as_delta": False, "relax_renorm": False}
        if self.diagnostics["clamped"]:
            n_want = int(math.ceil((hi - lo) / step_want)) + 1
            warnings.warn(f"line-shape grid clamped to {len(self.grid)} nodes: the step "
                          f"{term} = {step_want:.3g} GHz wants {n_want} nodes",
                          ModelValidityWarning, stacklevel=2)

        self._conv01 = self._core_slopes = None
        self._table01 = self._build_zeroth()
        self._table03 = self._build_first()
        # the mirrored tail keeps its relative rounding down to _LOG_TINY
        self._log01 = np.maximum(self._mirror(self._log_table(self._pos01), log=True), _LOG_TINY)
        self._log03 = self._log_table(self._table03)
        self._slope_tables = None
        self._stencils = {}

    # ---- table assembly -------------------------------------------------

    def _build_zeroth(self) -> np.ndarray:
        """G_01 on the grid.  On the nodes nu >= 0, up to the grid's larger
        half-width, it is the Gaussian if gamma = 0, else the Voigt core plus
        the convolved thermal correction (the sampled Gaussian's mass is exact
        to 1e-19 at W >= 1.5 steps); below zero, exp(nu/T) times the image."""
        w, g, t, sh = self._w, self._gam, self._t, self._shift
        iz, step = self.grid.index_of_zero, self.grid.step
        pos = np.arange(max(iz, len(self.grid) - 1 - iz) + 1) * step
        self._balance = np.exp(self.grid.values[:iz] / t)
        if g == 0:
            raw = self._gauss = g_low(pos, w, sh)
        else:
            # Voigt core (A Re w(z) + B Im w(z)) / (W sqrt(2 pi)) from the
            # Faddeeva function: the Gaussian convolved with A L_gamma + B D_gamma
            a, b, _ = _ohmic_core_weights(g, t)
            self._faddeeva = _faddeeva((pos - sh + 1j * g) / (math.sqrt(2.0) * w))
            core = (a * self._faddeeva.real + b * self._faddeeva.imag) / (_SQRT_2PI * w)
            self.diagnostics["gaussian_as_delta"] = w < 1.5 * step
            if not self.diagnostics["gaussian_as_delta"]:
                # the operands start the Gaussian's reach below zero
                reach = int(math.ceil((sh + _GAUSS_REACH * w) / step))
                self._half = FrequencyGrid(values=np.arange(-reach, len(pos)) * step,
                                           step=step, index_of_zero=reach)
                conv = self._conv01 = _Convolution(self._half)
                x = self._half.values
                self._excess = thermal_excess(x / t)
                self._gauss_spec = conv.spectrum(g_low(x, w, sh))
                self._corr_spec = (conv.spectrum(_ohmic_remainder(x, g, t, self._excess))
                                   * self._gauss_spec)
                corr = conv.back(self._corr_spec)[reach:]
            else:
                # Gaussian narrower than the grid: treat it as a delta at the
                # reorganization shift (its width already lives in the Voigt term)
                self._excess = thermal_excess((pos - sh) / t)
                corr = _ohmic_remainder(pos - sh, g, t, self._excess)
            raw = core + corr
        self._clipped01 = raw < 0.0
        self._pos01 = np.maximum(raw, 0.0)
        return self._mirror(self._pos01)

    def _mirror(self, rows: np.ndarray, log: bool = False) -> np.ndarray:
        """Rows on the grid from ``rows`` on the nodes nu >= 0 (last axis): below
        zero exp(nu/T) times the image at -nu, or nu/T plus it if ``log``."""
        iz = self.grid.index_of_zero
        image = rows[..., iz:0:-1]
        below = image + self.grid.values[:iz] / self._t if log else image * self._balance
        return np.concatenate((below, rows[..., :len(self.grid) - iz]), axis=-1)

    def _relax_table(self) -> np.ndarray:
        nu = self.grid.values
        tab = g_relax(nu, self._zet, self._nu31, self._t)
        if self._width0 < 3.0 * self.grid.step:
            # narrow core: the table keeps its samples, and three nodes at
            # zero restore the core's closed-form mass and second moment
            iz = self.grid.index_of_zero
            pin, self._core_slopes = _core_pin(self.grid, self._width0)
            self.diagnostics["relax_renorm"] = True
            tab[iz - 1: iz + 2] += pin
            if not tab[iz - 1: iz + 2].min() > 0:
                raise DomainError("narrow relaxation core: a pinned node is not positive "
                                  f"at zeta = {self.params.zeta_phi_uphi0:.6g} uPhi0")
        return tab

    def _build_first(self) -> np.ndarray | None:
        if self._zet == 0:
            return None
        conv = self._conv03 = _Convolution(self.grid, tilt=self._first_tilt())
        self._spec01 = conv.spectrum(self._table01)
        self._relax_spec = conv.spectrum(self._relax_table())
        return conv.back(self._spec01 * self._relax_spec)

    def _first_tilt(self) -> float:
        """Tilt a of the first-peak convolution (see ``_Convolution``).

        The operands' negative tails fall at least as exp(nu / T), so a
        stays below 1 / 2T.  The relaxation envelope's algebraic wing,
        zeta / pi nu^2 down to nu = -nu31, may grow under the tilt only up
        to its core height.  exp(a |nu|) stays below e^14 over the grid,
        where on the positive side it amplifies the rounding.
        """
        nu31 = self._nu31
        reach = max(-self.grid.lo, self.grid.hi)
        return min(0.5 / self._t,
                   2.0 * math.log(max(nu31 / self._width0, 1.0)) / nu31,
                   _TILT_REACH / reach)

    @staticmethod
    def _log_table(table):
        if table is None:
            return None
        floor = table.max() * TABLE_FLOOR
        # an all-zero table (peak_rates rejects it) logs to -inf silently
        with np.errstate(divide="ignore"):
            return np.log(np.maximum(table, floor))

    # ---- sensitivity tables ---------------------------------------------
    # Derivatives in the internal parameters (nu31, W, gamma, zeta, T), all
    # in GHz, one row per parameter, on the fixed grid of this build.  The
    # FDT shift eps_p = W^2 / 2T enters through W and T.

    def _zeroth_slopes(self) -> np.ndarray:
        """d G_01 / d(nu31, W, gamma, zeta, T) on the nodes nu >= 0."""
        w, g, t, sh = self._w, self._gam, self._t, self._shift
        sh_w, sh_t = w / t, -sh / t
        pos = np.arange(len(self._pos01)) * self.grid.step
        out = np.zeros((len(SHAPE_FIELDS), len(pos)))
        if g == 0:
            u = pos - sh
            d_sh = self._gauss * u / (w * w)
            out[_W] = self._gauss * (u * u / (w * w) - 1.0) / w + sh_w * d_sh
            out[_T] = sh_t * d_sh
            return out
        # Voigt core Re(k w(z)) / (W sqrt(2 pi)) with k = A - iB, through
        # w'(z) = -2 z w(z) + 2i / sqrt(pi): slopes in the bias, in gamma
        # and in W at fixed bias; A and B move with gamma / T
        a, b, da = _ohmic_core_weights(g, t)
        k = a - 1j * b
        dk_dy = da - 0.5j
        z = (pos - sh + 1j * g) / (math.sqrt(2.0) * w)
        fw = self._faddeeva
        fp = -2.0 * z * fw + 2j / _SQRT_PI
        v_x = (k * fp).real / (2.0 * _SQRT_PI * w * w)
        out[_GAM] = ((1j * k * fp).real / (2.0 * _SQRT_PI * w * w)
                     + (dk_dy * fw).real / (t * _SQRT_2PI * w))
        out[_W] = -(k * (fw + z * fp)).real / (_SQRT_2PI * w * w) - sh_w * v_x
        out[_T] = -sh_t * v_x - (g / t) * (dk_dy * fw).real / (t * _SQRT_2PI * w)
        if self._conv01 is not None:
            conv, x, reach = self._conv01, self._half.values, self._half.index_of_zero
            _, rem_g, rem_t = _ohmic_remainder_slopes(x, g, t, self._excess)
            # the sampled Gaussian's spectrum is exp(-i om sh - om^2 W^2 / 2)
            # times a factor fixed by the grid, to within its aliasing of
            # exp(-pi^2 W^2 / 2 step^2) at the top frequency, so its slopes in
            # the centre and in the width are -i om and -om^2 W times it
            om = 2.0 * math.pi * rfftfreq(conv.n_fft, conv.step)
            corr_sh = -1j * om * self._corr_spec
            out[_W] += conv.back(corr_sh * sh_w - om * om * w * self._corr_spec)[reach:]
            out[_GAM] += conv.back(conv.spectrum(rem_g) * self._gauss_spec)[reach:]
            out[_T] += conv.back(conv.spectrum(rem_t) * self._gauss_spec
                                 + sh_t * corr_sh)[reach:]
        else:
            rem_x, rem_g, rem_t = _ohmic_remainder_slopes(pos - sh, g, t, self._excess)
            out[_W] -= sh_w * rem_x
            out[_GAM] += rem_g
            out[_T] += rem_t - sh_t * rem_x
        out[:, self._clipped01] = 0.0
        return out

    def _relax_table_slopes(self) -> tuple:
        """Derivatives of :meth:`_relax_table` in (nu31, zeta, T).

        g_relax is the Lorentzian gw / pi (nu^2 + gw^2) of half-width
        gw = zeta b((nu + nu31) / T).  Pinned core nodes add their slope in
        gw at zero."""
        nu = self.grid.values
        z, t = self._zet, self._t
        y = (nu + self._nu31) / t
        gw = z * balance_factor(y)
        d_gw = (nu * nu - gw ** 2) / (math.pi * (nu * nu + gw ** 2) ** 2)
        gw_nu31 = z * balance_factor_slope(y) / t
        slopes = (d_gw * gw_nu31, d_gw * gw / z, -d_gw * gw_nu31 * y)
        if self._core_slopes is not None:
            # the pinned core nodes move with its half-width gw(0)
            y0 = self._nu31 / t
            h_nu31 = z * float(balance_factor_slope(y0)) / t
            iz = self.grid.index_of_zero
            for d, dh in zip(slopes, (h_nu31, float(balance_factor(y0)), -h_nu31 * y0)):
                d[iz - 1: iz + 2] += self._core_slopes * dh
        return slopes

    def _first_slopes(self, d01: np.ndarray) -> np.ndarray:
        """d G_03 / d(nu31, W, gamma, zeta, T) on the grid, from the slopes
        of G_01 and of the relaxation table."""
        conv = self._conv03
        rx_nu31, rx_zeta, rx_t = (conv.spectrum(d) for d in self._relax_table_slopes())
        out = np.empty_like(d01)
        out[_NU31] = conv.back(self._spec01 * rx_nu31)
        out[_ZET] = conv.back(self._spec01 * rx_zeta)
        out[_W] = conv.back(conv.spectrum(d01[_W]) * self._relax_spec)
        out[_GAM] = conv.back(conv.spectrum(d01[_GAM]) * self._relax_spec)
        out[_T] = conv.back(conv.spectrum(d01[_T]) * self._relax_spec
                            + self._spec01 * rx_t)
        return out

    def _table_slopes(self) -> tuple:
        """Derivative rows of the G_01 and G_03 tables (None where a table
        is not built), computed on first use; the G_01 rows are mirrored like
        its table, the T row plus d exp(nu/T) / dT G_01(-nu)."""
        if self._slope_tables is None:
            d01 = d03 = None
            if self._gam > 0 or self._zet > 0:
                self._pos_slopes = self._zeroth_slopes()
                d01 = self._mirror(self._pos_slopes)
                d01[_T] -= np.minimum(self.grid.values, 0.0) / self._t**2 * self._table01
            if self._zet > 0:
                d03 = self._first_slopes(d01)
            self._slope_tables = (d01, d03)
        return self._slope_tables

    # ---- evaluation ------------------------------------------------------

    def _stencil(self, eps: np.ndarray) -> tuple:
        """Stencil nodes (6, len(eps)) of the local quintic at ``eps``, the
        offset s, in steps, from the third of them, and the quintic weights.

        The stencil is the nodes i-2..i+3 around each bias, clamped at the
        grid ends.  The offset s from node i is taken from the nearest
        stored node, so a bias on a node returns that node's value exactly.
        Kept for the last two bias arrays, a fit's eps and eps - nu31.
        """
        key = eps.tobytes()
        if key not in self._stencils:
            grid = self.grid
            near = np.rint(eps / grid.step + grid.index_of_zero).astype(np.intp)
            s = (eps - grid.values[near]) / grid.step
            i = np.minimum(np.maximum(near - (s < 0), 2), len(grid) - 4)
            s = s + (near - i)
            if len(self._stencils) == 2:
                del self._stencils[next(iter(self._stencils))]
            self._stencils[key] = (i + _STENCIL[:, None], s, _quintic(s))
        return self._stencils[key]

    def _local_quintic(self, log_table: np.ndarray, eps: np.ndarray) -> np.ndarray:
        """Six-point Lagrange quintic through ``log_table`` at ``eps`` (GHz)."""
        nodes, _, weights = self._stencil(eps)
        return np.einsum("km,km->m", log_table[nodes], weights)

    def _check_span(self, eps: np.ndarray):
        # written so that a NaN bias fails the check too
        if eps.size and not (self.grid.lo <= eps.min() and eps.max() <= self.grid.hi):
            raise DomainError(
                "bias outside the tabulated span; rebuild the line shapes "
                "with a wider flux range")

    def shape01(self, eps_ghz) -> np.ndarray:
        """G_01 (per GHz) at energy bias eps (GHz)."""
        eps = np.atleast_1d(np.asarray(eps_ghz, dtype=float))
        if self._gam == 0:
            # clamped, as the mirrored table is, at the smallest normal double
            return np.maximum(g_low(eps, self._w, self._shift), math.exp(_LOG_TINY))
        self._check_span(eps)
        return np.exp(self._local_quintic(self._log01, eps))

    def shape03(self, eps_ghz) -> np.ndarray:
        """G_03 (per GHz) at energy bias eps (GHz); the excited-state
        resonance shift is applied internally."""
        eps = np.atleast_1d(np.asarray(eps_ghz, dtype=float))
        om = eps - self._nu31
        if self._zet == 0:
            return self.shape01(om)
        self._check_span(om)
        return np.exp(self._local_quintic(self._log03, om))

    def _log_grads(self, table: np.ndarray, log_table: np.ndarray,
                   slopes: np.ndarray, x: np.ndarray, mirrored: bool = False) -> tuple:
        """Rows d log_table / d(nu31, W, gamma, zeta, T) through the local
        quintic at x, and the quintic's slope in x.

        Only the stencil nodes are converted to log derivatives; a floored
        node follows the floor, max(table) * TABLE_FLOOR.  A ``mirrored`` table
        (G_01) holds nu >= 0; a node below zero takes its image's, plus d(nu/T)/dT.
        """
        self._check_span(x)
        nodes, s, weights = self._stencil(x)
        at_nodes = np.abs(nodes - self.grid.index_of_zero) if mirrored else nodes
        top = int(np.argmax(table))
        at = table[at_nodes]
        live = at >= table[top] * TABLE_FLOOR
        node_slopes = np.where(live, slopes[:, at_nodes] / np.where(live, at, 1.0),
                               (slopes[:, top] / table[top])[:, None, None])
        if mirrored:
            node_slopes[_T] -= np.minimum(self.grid.values[nodes], 0.0) / (self._t * self._t)
            node_slopes[:, log_table[nodes] <= _LOG_TINY] = 0.0
        slope_weights = _QUINTIC_SLOPE @ s ** np.arange(4, -1, -1)[:, None]
        return (np.einsum("pkm,km->pm", node_slopes, weights),
                np.einsum("km,km->m", log_table[nodes], slope_weights) / self.grid.step)

    def _zeroth_log_grads(self, x: np.ndarray) -> tuple:
        """Rows d log G_01(x) / d(nu31, W, gamma, zeta, T) and the slope
        d log G_01 / dx."""
        if self._gam == 0:
            # log g_low = -u^2 / 2W^2 - log W + const with u = x - W^2 / 2T
            w, t = self._w, self._t
            u = x - self._shift
            grads = np.zeros((len(SHAPE_FIELDS), len(x)))
            grads[_W] = (u * u / (w * w) - 1.0) / w + u / (w * t)
            grads[_T] = -u / (2.0 * t * t)
            slope = -u / (w * w)
            # where shape01 is clamped, log G_01 is a constant
            clamped = g_low(x, w, self._shift) < math.exp(_LOG_TINY)
            grads[:, clamped] = slope[clamped] = 0.0
            return grads, slope
        self._table_slopes()
        return self._log_grads(self._pos01, self._log01, self._pos_slopes, x, mirrored=True)

    def log_shape_grads(self, eps_ghz) -> tuple:
        """Sensitivities of log G_01(eps) and log G_03(eps) to the shape
        parameters ``SHAPE_FIELDS``.

        Returns two (len(eps), 5) arrays, per uPhi0 for the flux fields and
        per kelvin for the temperature.  They are the exact derivatives of
        the tabulated model with this build's grid held fixed: the local
        quintic is linear in its node values, so it carries the derivative
        tables, and the resonance shift om = eps - nu31 adds the quintic's
        own slope to the phi31 column of G_03.
        """
        eps = np.atleast_1d(np.asarray(eps_ghz, dtype=float))
        om = eps - self._nu31
        d01, _ = self._zeroth_log_grads(eps)
        if self._zet == 0:
            d03, slope = self._zeroth_log_grads(om)
        else:
            d03, slope = self._log_grads(self._table03, self._log03,
                                         self._table_slopes()[1], om)
        d03[_NU31] -= slope
        per_uphi0 = flux_to_energy(1.0, self.params.ip_a)
        scale = np.array([per_uphi0] * 4 + [kelvin_to_ghz(1.0)])[:, None]
        return (d01 * scale).T, (d03 * scale).T

    def rates(self, folded_phi, params: MrtParams | None = None) -> tuple:
        """Peak rates (r01, r03) in 1/us at flux biases ``folded_phi``
        (uPhi0), taken in the left-initialization orientation.

        The tunneling amplitudes come from ``params`` (by default the
        build's own); the line shapes do not depend on them, so one build
        serves every amplitude, provided the other fields are the build's.
        r03 is zero where there is no first peak (delta03 = 0).
        """
        p = self.params if params is None else params
        eps = flux_to_energy(np.atleast_1d(np.asarray(folded_phi, dtype=float)),
                             self.params.ip_a)
        r01 = _rate_coef(p.delta01_ghz) * self.shape01(eps)
        if not p.delta03_ghz > 0:
            return r01, np.zeros_like(r01)
        return r01, _rate_coef(p.delta03_ghz) * self.shape03(eps)


def peak_rates(phi_x, params: MrtParams, init_well: str = "L") -> tuple:
    """Peak rates (r01, r03) in 1/us at flux biases ``phi_x`` (uPhi0), from
    one build over their folded window; right-well initialization is the
    mirror image of the left."""
    phi = np.atleast_1d(np.asarray(phi_x, dtype=float))
    if phi.size == 0:
        raise ValidationError("no flux biases given")
    if not np.all(np.isfinite(phi)):
        raise DomainError("flux biases must be finite")
    if init_well not in ("L", "R"):
        raise ValidationError(f"init_well must be 'L' or 'R', got {init_well!r}")
    folded = -phi if init_well == "R" else phi
    shapes = LineShapes(params, float(folded.min()), float(folded.max()))
    if not shapes._table01.max() > 0:
        centre = energy_to_flux(params.shift_ghz(), params.ip_a)
        raise DomainError(
            f"every zeroth-peak node is clipped: its centre W^2/2T = {centre:.6g} uPhi0 "
            f"(W = {params.w_phi_uphi0:.6g} uPhi0, T = {params.temperature_k:.6g} K) lies "
            f"far above the folded bias window {folded.min():.6g}..{folded.max():.6g} uPhi0")
    return shapes.rates(folded)


def bias_grid(phi_grid) -> np.ndarray:
    """``phi_grid`` as a float array, checked to be a non-empty, 1-d,
    finite and strictly increasing sequence of flux biases."""
    phi = np.asarray(phi_grid, dtype=float)
    if phi.ndim != 1 or len(phi) == 0:
        raise ValidationError("phi_grid must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(phi)):
        raise DomainError("flux biases must be finite")
    if not np.all(np.diff(phi) > 0):
        raise ValidationError("phi_grid must be strictly increasing")
    return phi


def simulate_curve(phi_grid, params: MrtParams, init_well: str = "L") -> RateDataset:
    """Tabulate the total rate over a sorted flux grid, as a dataset with
    the params' persistent current and ``init_well`` as its well.

    One line-shape tabulation is shared by all points; the model is a
    fixed shape evaluated at shifted arguments.
    """
    phi = bias_grid(phi_grid)
    r01, r03 = peak_rates(phi, params, init_well)
    return RateDataset(phi_x=phi, rate=r01 + r03, ip_a=params.ip_a, well=init_well)
