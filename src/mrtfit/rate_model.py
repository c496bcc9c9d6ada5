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
zeroth).

The ohmic envelope is split exactly: with theta(y) = 1 + y/2 + e(y) and
e(y) = (y/2) coth(y/2) - 1,

    g_high(x) = A L_gamma(x) + B D_gamma(x) + s(x),

where L_gamma is the Lorentzian, D_gamma = x / pi (x^2 + gamma^2),
A = (gamma/2T) cot(gamma/2T), B = gamma/2T, and
s = (gamma/pi) (e(x/T) - e(i gamma/T)) / (x^2 + gamma^2).  The Gaussian
convolved with the first two terms is (A Re w(z) + B Im w(z)) /
(W sqrt(2 pi)) from one Faddeeva call at any grid resolution.  The
numerator of s vanishes at the poles +-i gamma, so s is smooth on the
thermal scale and only s is convolved numerically.

No grid step therefore has to resolve gamma: the step is
min(W/16, 2T/3, width0/3), from the local cubic's (step/W)^4 log error,
the thermal scale and the relaxation width at resonance, with no floor
beyond a stencil's worth of nodes.  A relaxation core narrower than three
steps is reached only at the GRID_MAX_POINTS clamp.  Its mass is then
pinned in closed form: the relaxation envelope is a Lorentzian L_h of
half-width h = c width0 (c = 1 "standard", 1/2 "half_width") plus a
remainder that is smooth on the grid, because the width is flat across
the core to exp(-nu31/T).  L_h integrates to an arctangent over the
window and the remainder sums on the nodes.  ``LineShapes.diagnostics``
records which of these applied.

A build also keeps what the parameter derivatives need, so the fitter
gets exact sensitivities of the tabulated line shapes from a few more
FFTs instead of finite differences over further builds.

Every rate comes from ``LineShapes.rates``, which applies the two
amplitudes to the line shapes at folded biases.  ``peak_rates``, and
through it ``rate_01``, ``rate_03``, ``total_rate`` and ``simulate_curve``,
builds on the folded window of its own biases.  ``FIT_PARAMS`` is the one
table of the seven fit parameters: names, fields, labels, units, log
flags and bounds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import wofz

from .envelopes import (
    HighFreqBroadening,
    IntrawellBroadening,
    LowFreqBroadening,
    balance_factor,
    balance_factor_slope,
    g_low,
    g_relax,
    relax_width,
    thermal_excess,
)
from .errors import DomainError, ModelValidityWarning, ValidationError
from .units import (FluxUPhi0, FreqGHz, TempK, energy_to_flux, flux_to_energy,
                    kelvin_to_ghz)

GRID_MIN_POINTS = 2**8 + 1
GRID_MAX_POINTS = 2**18 + 1
TABLE_FLOOR = 1e-14
_INCOHERENT_WARN_RATIO = 0.3
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)

# reach of the Gaussian below its centre, in widths, that the ohmic
# remainder is tabulated for beneath the grid's lower edge
_GAUSS_REACH = 10.0
# largest exp(a |nu|) the first-peak tilt may reach over the grid, as a log
_TILT_REACH = 14.0

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
            if not value >= 0:
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

    # views by fit-parameter name (see FIT_PARAMS)
    def by_name(self) -> dict:
        return {q.name: getattr(self, q.field) for q in FIT_PARAMS}

    @classmethod
    def from_names(cls, values: dict, ip_a: float) -> MrtParams:
        return cls(ip_a=ip_a, **{q.field: values[q.name] for q in FIT_PARAMS})


class FitParam(NamedTuple):
    """One fit parameter: its name (as in ``[fit] free``), its MrtParams
    field, its report label (also its ``[model]`` config key), the factor
    from field to label units, whether the fitter moves it in log space,
    its default bounds (field units) and, for a linear parameter, the
    floor of its step scale."""

    name: str
    field: str
    label: str
    scale: float
    log: bool
    bounds: tuple
    x_floor: float = 1.0


FIT_PARAMS = (
    FitParam("delta01", "delta01_ghz", "delta01_mhz", 1e3, True, (1e-9, 1.0)),
    FitParam("delta03", "delta03_ghz", "delta03_mhz", 1e3, True, (1e-9, 5.0)),
    FitParam("phi31", "phi31_uphi0", "phi31_uphi0", 1.0, False, (10.0, 2e4), 10.0),
    FitParam("w_phi", "w_phi_uphi0", "w_phi_uphi0", 1.0, False, (0.5, 5e3), 1.0),
    FitParam("gamma_phi", "gamma_phi_uphi0", "gamma_phi_uphi0", 1.0, True, (1e-4, 1e3)),
    FitParam("zeta_phi", "zeta_phi_uphi0", "zeta_phi_uphi0", 1.0, True, (1e-4, 1e3)),
    FitParam("temperature", "temperature_k", "temperature_mk", 1e3, False,
             (5e-4, 0.2), 1e-3),
)

# the fields the line shapes depend on (all but the two tunneling
# amplitudes), in the column order of LineShapes.log_shape_grads;
# _NU31.._T index them
SHAPE_FIELDS = tuple(q.field for q in FIT_PARAMS[2:])
_NU31, _W, _GAM, _ZET, _T = range(len(SHAPE_FIELDS))


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


class _Convolution:
    """Linear FFT convolution onto a grid of n nodes.

    The left operand may be tabulated on the grid extended by ``ext``
    nodes below its lower edge; the right operand lives on the grid.  Only
    the n output nodes are kept, so the cyclic length need only keep
    wrap-around off them: max(2n - 1 - iz, n + ext + iz) for a zero index
    iz, about 3n/2 rather than the 2n - 1 of full zero padding.  Operand
    spectra can be kept and recombined: ``back`` of a sum of spectrum
    products is the sum of the convolutions.

    A ``tilt`` a > 0 multiplies both operands by exp(-a nu) and the result
    by exp(a nu).  The exact convolution is unchanged, but the FFT's
    rounding, which is about eps * max in absolute terms, then falls off
    as exp(a nu) on the negative side, where it would otherwise swamp a
    steeply falling tail.
    """

    def __init__(self, grid: FrequencyGrid, ext: int = 0, tilt: float = 0.0):
        n = len(grid)
        iz = grid.index_of_zero
        self.n_fft = next_fast_len(max(2 * n - 1 - iz, n + ext + iz), real=True)
        self.start = iz + ext
        self.n = n
        self.step = grid.step
        self._weights = self._unweights = None
        if tilt > 0:
            self._weights = np.exp(-tilt * (np.arange(-ext, n) - iz) * grid.step)
            self._unweights = 1.0 / self._weights[ext:]

    def spectrum(self, f: np.ndarray) -> np.ndarray:
        if self._weights is not None:
            # a right operand sits on the last n of the left operand's nodes
            f = f * self._weights[len(self._weights) - len(f):]
        return rfft(f, self.n_fft)

    def back(self, spectrum: np.ndarray) -> np.ndarray:
        full = irfft(spectrum, self.n_fft)
        out = full[self.start: self.start + self.n] * self.step
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


def _ohmic_remainder(x: np.ndarray, g: float, t: float) -> np.ndarray:
    """s(x), the ohmic envelope beyond its core A L_gamma + B D_gamma.

    s = (gamma / pi) (e(x/T) - e(i gamma/T)) / (x^2 + gamma^2): the zeros
    of the numerator cancel the poles at +-i gamma, so s is smooth on the
    thermal scale."""
    e, _ = thermal_excess(x / t)
    c = _ohmic_core_weights(g, t)[0] - 1.0
    return (g / math.pi) * (e - c) / (x * x + g * g)


def _ohmic_remainder_slopes(x: np.ndarray, g: float, t: float) -> tuple:
    """Derivatives of :func:`_ohmic_remainder` in x, gamma and T."""
    a, _, da = _ohmic_core_weights(g, t)
    e, de = thermal_excess(x / t)
    x2g2 = x * x + g * g
    lor = (g / math.pi) / x2g2
    rem = lor * (e - (a - 1.0))
    d_x = lor * de / t - 2.0 * x * rem / x2g2
    d_g = rem * (x * x - g * g) / (g * x2g2) - lor * da / t
    d_t = lor * (g * da - x * de) / (t * t)
    return d_x, d_g, d_t


def _rate_coef(delta_ghz: float) -> float:
    """(Delta / 2 hbar)^2 expressed so that coef * g[1/GHz] is in 1/us."""
    return 1e3 * (2.0 * math.pi * delta_ghz) ** 2 / 4.0


def _gauss_slopes(tab: np.ndarray, u: np.ndarray, w: float) -> tuple:
    """Derivatives of a Gaussian table ``tab`` of width ``w``, at offsets
    ``u`` from its centre, in the centre and in the width."""
    return tab * u / (w * w), tab * (u * u / (w * w) - 1.0) / w


def _renormalized_slope(tab, d, mass, d_mass, discrete, step) -> np.ndarray:
    """Derivative of tab * mass / discrete, where discrete = sum(tab) * step,
    given the derivatives ``d`` of the table and ``d_mass`` of the mass."""
    d_discrete = float(np.sum(d)) * step
    return d * (mass / discrete) + tab * (d_mass - mass * d_discrete / discrete) / discrete


def _relax_mass(tab: np.ndarray, nu: np.ndarray, h: float) -> tuple:
    """Mass of the relaxation table ``tab`` over the window of the uniform
    grid ``nu``, and its slope in the core half-width h at a fixed table.

    The core L_h = h / pi (nu^2 + h^2) integrates in closed form,
    (atan(hi / h) - atan(lo / h)) / pi; the remainder tab - L_h is smooth
    on the grid and sums on the nodes."""
    step = nu[1] - nu[0]
    lo, hi, h2 = nu[0], nu[-1], h * h
    x2h2 = nu * nu + h2
    mass = ((math.atan(hi / h) - math.atan(lo / h)) / math.pi
            + float(np.sum(tab - (h / math.pi) / x2h2)) * step)
    d_mass = ((lo / (lo * lo + h2) - hi / (hi * hi + h2)) / math.pi
              - float(np.sum((nu * nu - h2) / x2h2**2)) * step / math.pi)
    return mass, d_mass


def _lagrange(s: np.ndarray) -> tuple:
    """Weights of the four-point Lagrange cubic on nodes -1, 0, 1, 2 at s."""
    a, b, c, d = s + 1.0, s, s - 1.0, s - 2.0
    return (-(b * c * d) / 6.0, (a * c * d) / 2.0,
            -(a * b * d) / 2.0, (a * b * c) / 6.0)


def _lagrange_slope(s: np.ndarray) -> tuple:
    """Derivatives in s of the :func:`_lagrange` weights."""
    s2 = 3.0 * s * s
    return (-(s2 - 6.0 * s + 2.0) / 6.0, (s2 - 4.0 * s - 1.0) / 2.0,
            -(s2 - 2.0 * s - 2.0) / 2.0, (s2 - 1.0) / 6.0)


def _combine(values: np.ndarray, weights: tuple) -> np.ndarray:
    """Weighted sum over the stencil axis (second to last, length 4) of
    ``values``."""
    w0, w1, w2, w3 = weights
    return (w0 * values[..., 0, :] + w1 * values[..., 1, :]
            + w2 * values[..., 2, :] + w3 * values[..., 3, :])


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
    ``n``, the ``step`` used and the ``step_wanted`` by the physics,
    whether the GRID_MAX_POINTS clamp made the step coarser (``clamped``),
    whether the Gaussian was narrower than the grid and taken as a delta
    (``gaussian_as_delta``), and whether the narrow relaxation core had its
    mass pinned in closed form (``relax_renorm``).
    """

    def __init__(self, params: MrtParams, phi_lo: float, phi_hi: float,
                 gr_form: str = "standard", n_min: int = GRID_MIN_POINTS):
        if phi_lo > phi_hi:
            phi_lo, phi_hi = phi_hi, phi_lo
        self.params = params
        self.gr_form = gr_form
        # half-width of the relaxation Lorentzian in units of its width gw
        self._relax_c = 1.0 if gr_form == "standard" else 0.5
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
        # both peaks' windows and zero: whatever the window, G_03 draws on
        # the relaxation wing down to -nu31
        lo = min(eps_lo, 0.0) - nu31 - pad
        hi = max(eps_hi, 0.0) + pad
        # the local cubic's log-space error falls as (step / W)^4; the
        # aliasing of the sampled relaxation core is exp(-2 pi width0 / step)
        step_want = min(w / 16.0, 2.0 * t / 3.0)
        if self._rx is not None:
            self._width0 = float(relax_width(nu31, self._rx))
            step_want = min(step_want, self._width0 / 3.0)
        self.grid = FrequencyGrid.build(lo, hi, step_want, n_min)
        self.diagnostics = {"n": len(self.grid), "step": self.grid.step,
                            "step_wanted": step_want,
                            "clamped": self.grid.step > step_want,
                            "gaussian_as_delta": False, "relax_renorm": False}

        self._conv01 = self._relax_norm = None
        self._table01 = self._build_zeroth()
        self._table03 = self._build_first()
        self._log01 = self._log_table(self._table01)
        self._log03 = self._log_table(self._table03)
        self._slope_tables = None

    # ---- table assembly -------------------------------------------------

    def _build_zeroth(self) -> np.ndarray:
        """G_01 on the grid: Voigt core plus convolved thermal correction.
        The sampled Gaussian's mass is exact to 1e-19 at W >= 1.5 steps."""
        grid = self.grid
        nu = grid.values
        lf, hf = self._lf, self._hf
        self._gauss = g_low(nu, lf)
        if hf is None:
            return self._gauss
        g = hf.gamma_ghz
        t = hf.temperature_ghz
        w = lf.width_ghz
        # Voigt core (A Re w(z) + B Im w(z)) / (W sqrt(2 pi)) from the
        # Faddeeva function: the Gaussian convolved with A L_gamma + B D_gamma
        a, b, _ = _ohmic_core_weights(g, t)
        self._faddeeva = wofz((nu - lf.shift_ghz + 1j * g) / (math.sqrt(2.0) * w))
        core = (a * self._faddeeva.real + b * self._faddeeva.imag) / (_SQRT_2PI * w)
        self.diagnostics["gaussian_as_delta"] = w < 1.5 * grid.step
        if not self.diagnostics["gaussian_as_delta"]:
            # every node draws on the remainder over the Gaussian's whole
            # reach, so the remainder is tabulated that far below the grid
            ext = int(math.ceil((lf.shift_ghz + _GAUSS_REACH * w) / grid.step))
            self._conv01 = _Convolution(grid, ext)
            self._nu_ext = (np.arange(-ext, len(grid)) - grid.index_of_zero) * grid.step
            self._rem_spec = self._conv01.spectrum(_ohmic_remainder(self._nu_ext, g, t))
            self._gauss_spec = self._conv01.spectrum(self._gauss)
            corr = self._conv01.back(self._rem_spec * self._gauss_spec)
        else:
            # Gaussian narrower than the grid: treat it as a delta at the
            # reorganization shift (its width already lives in the Voigt term)
            corr = _ohmic_remainder(nu - lf.shift_ghz, g, t)
        raw = core + corr
        self._clipped01 = raw < 0.0
        return np.maximum(raw, 0.0)

    def _relax_table(self) -> np.ndarray:
        nu = self.grid.values
        rx = self._rx
        tab = g_relax(nu, rx, form=self.gr_form)
        if self._width0 < 3.0 * self.grid.step:
            # narrow core, reached only at the grid clamp: pin the discrete
            # mass to the analytic mass
            mass, d_mass_h = _relax_mass(tab, nu, self._relax_c * self._width0)
            self.diagnostics["relax_renorm"] = True
            if not mass > 0:
                raise DomainError(
                    f"narrow relaxation core: mass {mass:.3g} is not positive "
                    f"at zeta = {self.params.zeta_phi_uphi0:.6g} uPhi0 over the "
                    f"frequency window {nu[0]:.6g}..{nu[-1]:.6g} GHz")
            discrete = float(np.sum(tab)) * self.grid.step
            self._relax_norm = (tab, mass, discrete, d_mass_h)
            tab = tab * (mass / discrete)
        return tab

    def _build_first(self) -> np.ndarray | None:
        if self._rx is None:
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
        to its core height.  exp(a |nu|) stays below e^14 over the grid:
        on the positive side it amplifies the rounding, on the negative
        side the rounding residue of G_01's far tail.
        """
        rx = self._rx
        reach = max(-self.grid.lo, self.grid.hi)
        return min(0.5 / rx.temperature_ghz,
                   2.0 * math.log(max(rx.omega31_ghz / self._width0, 1.0)) / rx.omega31_ghz,
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
        """d G_01 / d(nu31, W, gamma, zeta, T) on the grid."""
        nu = self.grid.values
        lf, hf = self._lf, self._hf
        w, t, sh = lf.width_ghz, lf.temperature_ghz, lf.shift_ghz
        sh_w, sh_t = w / t, -sh / t
        out = np.zeros((len(SHAPE_FIELDS), len(nu)))
        d_sh, d_w = _gauss_slopes(self._gauss, nu - sh, w)
        if hf is None:
            out[_W] = d_w + sh_w * d_sh
            out[_T] = sh_t * d_sh
            return out
        g = hf.gamma_ghz
        # Voigt core Re(k w(z)) / (W sqrt(2 pi)) with k = A - iB, through
        # w'(z) = -2 z w(z) + 2i / sqrt(pi): slopes in the bias, in gamma
        # and in W at fixed bias; A and B move with gamma / T
        a, b, da = _ohmic_core_weights(g, t)
        k = a - 1j * b
        dk_dy = da - 0.5j
        z = (nu - sh + 1j * g) / (math.sqrt(2.0) * w)
        fw = self._faddeeva
        fp = -2.0 * z * fw + 2j / _SQRT_PI
        v_x = (k * fp).real / (2.0 * _SQRT_PI * w * w)
        out[_GAM] = ((1j * k * fp).real / (2.0 * _SQRT_PI * w * w)
                     + (dk_dy * fw).real / (t * _SQRT_2PI * w))
        out[_W] = -(k * (fw + z * fp)).real / (_SQRT_2PI * w * w) - sh_w * v_x
        out[_T] = -sh_t * v_x - (g / t) * (dk_dy * fw).real / (t * _SQRT_2PI * w)
        if self._conv01 is not None:
            conv = self._conv01
            _, rem_g, rem_t = _ohmic_remainder_slopes(self._nu_ext, g, t)
            gauss_sh, gauss_w = conv.spectrum(d_sh), conv.spectrum(d_w)
            out[_W] += conv.back(self._rem_spec * (gauss_w + sh_w * gauss_sh))
            out[_GAM] += conv.back(conv.spectrum(rem_g) * self._gauss_spec)
            out[_T] += conv.back(conv.spectrum(rem_t) * self._gauss_spec
                                 + sh_t * self._rem_spec * gauss_sh)
        else:
            rem_x, rem_g, rem_t = _ohmic_remainder_slopes(nu - sh, g, t)
            out[_W] -= sh_w * rem_x
            out[_GAM] += rem_g
            out[_T] += rem_t - sh_t * rem_x
        out[:, self._clipped01] = 0.0
        return out

    def _relax_table_slopes(self) -> tuple:
        """Derivatives of :meth:`_relax_table` in (nu31, zeta, T).

        g_relax is the Lorentzian h / pi (nu^2 + h^2) of half-width h = c gw,
        with gw = zeta b((nu + nu31) / T) and c = 1 ("standard") or 1/2
        ("half_width")."""
        nu = self.grid.values
        rx, c = self._rx, self._relax_c
        z, t = rx.zeta_ghz, rx.temperature_ghz
        y = (nu + rx.omega31_ghz) / t
        gw = z * balance_factor(y)
        h2 = (c * gw) ** 2
        d_gw = c * (nu * nu - h2) / (math.pi * (nu * nu + h2) ** 2)
        gw_nu31 = z * balance_factor_slope(y) / t
        slopes = (d_gw * gw_nu31, d_gw * gw / z, -d_gw * gw_nu31 * y)
        if self._relax_norm is None:
            return slopes
        # the mass moves with the parameters too: through the table and
        # through the core half-width c gw(0)
        tab, mass, discrete, d_mass_h = self._relax_norm
        y0 = rx.omega31_ghz / t
        h_nu31 = c * z * float(balance_factor_slope(y0)) / t
        h_slopes = (h_nu31, c * float(balance_factor(y0)), -h_nu31 * y0)
        step = self.grid.step
        return tuple(
            _renormalized_slope(tab, d, mass, float(np.sum(d)) * step + d_mass_h * dh,
                                discrete, step)
            for d, dh in zip(slopes, h_slopes))

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
        is not built), computed on first use."""
        if self._slope_tables is None:
            d01 = d03 = None
            if self._hf is not None or self._rx is not None:
                d01 = self._zeroth_slopes()
            if self._rx is not None:
                d03 = self._first_slopes(d01)
            self._slope_tables = (d01, d03)
        return self._slope_tables

    # ---- evaluation ------------------------------------------------------

    def _stencil(self, eps: np.ndarray) -> tuple:
        """Stencil nodes (4, len(eps)) of the local cubic at ``eps`` and
        the offset s, in steps, from the second of them.

        The stencil is the nodes i-1..i+2 around each bias, clamped at the
        grid ends.  The offset s from node i is taken from the nearest
        stored node, so a bias on a node returns that node's value exactly.
        """
        grid = self.grid
        near = np.rint(eps / grid.step + grid.index_of_zero).astype(np.intp)
        s = (eps - grid.values[near]) / grid.step
        i = np.clip(near - (s < 0), 1, len(grid) - 3)
        return i + np.arange(-1, 3)[:, None], s + (near - i)

    def _local_cubic(self, log_table: np.ndarray, eps: np.ndarray) -> np.ndarray:
        """Four-point Lagrange cubic through ``log_table`` at ``eps`` (GHz)."""
        nodes, s = self._stencil(eps)
        return _combine(log_table[nodes], _lagrange(s))

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

    def _log_grads(self, table: np.ndarray, log_table: np.ndarray,
                   slopes: np.ndarray, x: np.ndarray) -> tuple:
        """Rows d log_table / d(nu31, W, gamma, zeta, T) through the local
        cubic at x, and the cubic's slope in x.

        Only the stencil nodes are converted to log derivatives; a floored
        node follows the floor, max(table) * TABLE_FLOOR.
        """
        self._check_span(x)
        nodes, s = self._stencil(x)
        top = int(np.argmax(table))
        at = table[nodes]
        live = at >= table[top] * TABLE_FLOOR
        node_slopes = np.where(live, slopes[:, nodes] / np.where(live, at, 1.0),
                               (slopes[:, top] / table[top])[:, None, None])
        return (_combine(node_slopes, _lagrange(s)),
                _combine(log_table[nodes], _lagrange_slope(s)) / self.grid.step)

    def _zeroth_log_grads(self, x: np.ndarray) -> tuple:
        """Rows d log G_01(x) / d(nu31, W, gamma, zeta, T) and the slope
        d log G_01 / dx."""
        lf = self._lf
        if self._hf is None:
            # log g_low = -u^2 / 2W^2 - log W + const with u = x - W^2 / 2T
            w, t = lf.width_ghz, lf.temperature_ghz
            u = x - lf.shift_ghz
            grads = np.zeros((len(SHAPE_FIELDS), len(x)))
            grads[_W] = (u * u / (w * w) - 1.0) / w + u / (w * t)
            grads[_T] = -u / (2.0 * t * t)
            return grads, -u / (w * w)
        return self._log_grads(self._table01, self._log01, self._table_slopes()[0], x)

    def log_shape_grads(self, eps_ghz) -> tuple:
        """Sensitivities of log G_01(eps) and log G_03(eps) to the shape
        parameters ``SHAPE_FIELDS``.

        Returns two (len(eps), 5) arrays, per uPhi0 for the flux fields and
        per kelvin for the temperature.  They are the exact derivatives of
        the tabulated model with this build's grid held fixed: the local
        cubic is linear in its node values, so it carries the derivative
        tables, and the resonance shift om = eps - nu31 adds the cubic's
        own slope to the phi31 column of G_03.
        """
        eps = np.atleast_1d(np.asarray(eps_ghz, dtype=float))
        om = eps - self._nu31
        d01, _ = self._zeroth_log_grads(eps)
        if self._rx is None:
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


def peak_rates(phi_x, params: MrtParams, init_well: InitWell = "L",
               gr_form: str = "standard") -> tuple:
    """Peak rates (r01, r03) in 1/us at flux biases ``phi_x`` (uPhi0), from
    one build over their folded window; right-well initialization is the
    mirror image of the left."""
    phi = np.atleast_1d(np.asarray(phi_x, dtype=float))
    if phi.size == 0:
        raise ValidationError("no flux biases given")
    if not np.all(np.isfinite(phi)):
        raise DomainError("flux biases must be finite")
    folded = -phi if _check_well(init_well) == "R" else phi
    shapes = LineShapes(params, float(folded.min()), float(folded.max()),
                        gr_form=gr_form)
    if not shapes._table01.max() > 0:
        centre = energy_to_flux(shapes._lf.shift_ghz, params.ip_a)
        raise DomainError(
            f"every zeroth-peak node is clipped: its centre W^2/2T = {centre:.6g} uPhi0 "
            f"(W = {params.w_phi_uphi0:.6g} uPhi0, T = {params.temperature_k:.6g} K) lies "
            f"far above the folded bias window {folded.min():.6g}..{folded.max():.6g} uPhi0")
    return shapes.rates(folded)


def rate_01(phi_x, params: MrtParams, gr_form: str = "standard"):
    """Zeroth-peak rate (1/us) at flux bias ``phi_x`` (uPhi0), left init."""
    out = peak_rates(phi_x, params, "L", gr_form)[0]
    return out[0] if np.isscalar(phi_x) else out


def rate_03(phi_x, params: MrtParams, gr_form: str = "standard"):
    """First-peak rate (1/us) at flux bias ``phi_x`` (uPhi0), left init."""
    out = peak_rates(phi_x, params, "L", gr_form)[1]
    return out[0] if np.isscalar(phi_x) else out


def total_rate(phi_x, params: MrtParams, init_well: InitWell = "L",
               gr_form: str = "standard"):
    """Total escape rate (1/us) for either initialization well."""
    r01, r03 = peak_rates(phi_x, params, init_well, gr_form)
    out = r01 + r03
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
    r01, r03 = peak_rates(phi, params, init_well, gr_form)
    return RateCurve(phi_x=phi, rate=r01 + r03, init_well=init_well)
