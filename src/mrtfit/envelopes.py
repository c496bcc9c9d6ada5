"""Broadening envelope functions for the two-peak tunneling line shape.

Three normalized, single-peaked functions of frequency encode the three
noise channels:

* ``g_low``:  Gaussian, low-frequency flux noise, width W and a shift
  eps_p tied to W by the fluctuation-dissipation relation W^2 = 2 k_B T eps_p.
* ``g_high``: Lorentzian core with a thermal detailed-balance factor,
  high-frequency (ohmic) flux noise of width gamma.
* ``g_relax``: Lorentzian with a frequency-dependent width given by the
  intrawell relaxation rate, charge noise acting on the excited target
  state.

All functions work in the package's internal units: arguments and width
parameters are energies as equivalent frequencies in GHz, temperatures
enter as k_B T / h in GHz, and the returned spectral weights are per GHz,
normalized as integral over d(nu) = 1 (exactly for the Gaussian,
approximately for the other two; the residual is absorbed into the
tunneling amplitude when fitting).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ModelValidityWarning, ValidationError
from .units import FreqGHz

_OHMIC_COUPLING_WARN = 0.3
_SERIES_CUTOFF = 1e-6
_EXCESS_SERIES_CUTOFF = 0.1
_EXP_CUTOFF = 30.0


def _piecewise(x, small, pos, neg, mid):
    """Evaluate a function of x by pieces: ``small`` below |x| < 1e-6,
    ``pos`` above x > 30, ``neg`` below x < -30 and ``mid`` elsewhere, each
    a function of the masked x."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    is_small = np.abs(x) < _SERIES_CUTOFF
    is_neg = x < -_EXP_CUTOFF
    is_pos = x > _EXP_CUTOFF
    is_mid = ~(is_small | is_neg | is_pos)
    for mask, piece in ((is_small, small), (is_pos, pos), (is_neg, neg), (is_mid, mid)):
        out[mask] = piece(x[mask])
    return out


def thermal_enhancement(x):
    """x / (1 - exp(-x)) with the removable singularity at x = 0.

    Stable for any real x: series below |x| < 1e-6, asymptotics beyond
    |x| > 30 where the naive expression overflows or cancels.
    """
    return _piecewise(x, lambda s: 1.0 + s / 2.0 + s * s / 12.0,
                      lambda p: p,
                      lambda n: -n * np.exp(n),
                      lambda m: m / (-np.expm1(-m)))


def balance_factor(x):
    """tanh(x) / (1 - exp(-x)), the detailed-balance weight of the
    intrawell relaxation rate, with the x = 0 singularity removed."""
    return _piecewise(x, lambda s: 1.0 + s / 2.0 - s * s / 4.0,
                      lambda p: 1.0,
                      np.exp,
                      lambda m: np.tanh(m) / (-np.expm1(-m)))


def thermal_excess(y) -> tuple:
    """The even part of :func:`thermal_enhancement` beyond 1 and its slope.

    e(y) = (y/2) coth(y/2) - 1, so that theta(y) = 1 + y/2 + e(y); e(y) is
    about y^2 / 12 near zero.  Returns (e(y), e'(y)): a series below
    |y| < 0.1, beyond it coth written with u = exp(-|y|), which cannot
    overflow.
    """
    y = np.asarray(y, dtype=float)
    e = np.empty_like(y)
    de = np.empty_like(y)
    small = np.abs(y) < _EXCESS_SERIES_CUTOFF
    ys = y[small]
    y2 = ys * ys
    e[small] = y2 * (1 / 12 - y2 * (1 / 720 - y2 * (1 / 30240 - y2 / 1209600)))
    de[small] = ys * (1 / 6 - y2 * (1 / 180 - y2 * (1 / 5040 - y2 / 151200)))
    a = np.abs(y[~small])
    one_minus_u = -np.expm1(-a)
    u = 1.0 - one_minus_u
    coth = (1.0 + u) / one_minus_u
    e[~small] = 0.5 * a * coth - 1.0
    # e'(y) = coth(y/2) / 2 - (y/4) csch^2(y/2), odd in y
    de[~small] = np.copysign(0.5 * coth - a * u / (one_minus_u * one_minus_u),
                             y[~small])
    return e, de


def balance_factor_slope(x):
    """Derivative of :func:`balance_factor`.

    The factor equals (1 + e^-x) / (1 + e^-2x); with u = e^-|x| the
    derivative is written without overflow on either side of zero."""
    x = np.asarray(x, dtype=float)
    u = np.exp(-np.abs(x))
    u2 = u * u
    return u * (2.0 * u + np.copysign(1.0 - u2, -x)) / ((1.0 + u2) * (1.0 + u2))


@dataclass(frozen=True)
class LowFreqBroadening:
    """Gaussian broadening from low-frequency flux noise.

    The shift is not a free field: it is computed from (width,
    temperature) at construction, which keeps the fluctuation-dissipation
    tie exact for every instance.
    """

    width_ghz: FreqGHz
    temperature_ghz: FreqGHz
    shift_ghz: FreqGHz = field(init=False)

    def __post_init__(self):
        if self.width_ghz <= 0:
            raise ValidationError(f"width must be positive, got {self.width_ghz}")
        if self.temperature_ghz <= 0:
            raise ValidationError(
                f"temperature must be positive, got {self.temperature_ghz}")
        object.__setattr__(
            self, "shift_ghz",
            self.width_ghz**2 / (2.0 * self.temperature_ghz))


@dataclass(frozen=True)
class HighFreqBroadening:
    """Ohmic (high-frequency flux noise) broadening of half-width gamma."""

    gamma_ghz: FreqGHz
    temperature_ghz: FreqGHz

    def __post_init__(self):
        if self.gamma_ghz < 0:
            raise ValidationError(f"gamma must be non-negative, got {self.gamma_ghz}")
        if self.temperature_ghz <= 0:
            raise ValidationError(
                f"temperature must be positive, got {self.temperature_ghz}")
        eta = 2.0 * self.gamma_ghz / self.temperature_ghz
        if eta > _OHMIC_COUPLING_WARN:
            warnings.warn(
                f"ohmic coupling eta = 2*gamma/k_BT = {eta:.3g} is not small; "
                "the weak-coupling line shape is unreliable here",
                ModelValidityWarning, stacklevel=3)


@dataclass(frozen=True)
class IntrawellBroadening:
    """Charge-noise broadening of the excited target state.

    zeta is the relaxation strength in energy units, omega31 the level
    spacing between the target well's first excited and ground states.
    """

    zeta_ghz: FreqGHz
    omega31_ghz: FreqGHz
    temperature_ghz: FreqGHz

    def __post_init__(self):
        if self.zeta_ghz < 0:
            raise ValidationError(f"zeta must be non-negative, got {self.zeta_ghz}")
        if self.omega31_ghz <= 0:
            raise ValidationError(
                f"omega31 must be positive, got {self.omega31_ghz}")
        if self.temperature_ghz <= 0:
            raise ValidationError(
                f"temperature must be positive, got {self.temperature_ghz}")


def g_low(nu, p: LowFreqBroadening):
    """Gaussian envelope, unit normalized, peaked at the reorganization
    shift eps_p with standard deviation W."""
    nu = np.asarray(nu, dtype=float)
    w = p.width_ghz
    return np.exp(-((nu - p.shift_ghz) ** 2) / (2.0 * w * w)) / (math.sqrt(2.0 * math.pi) * w)


def g_high(nu, p: HighFreqBroadening):
    """Ohmic envelope: Lorentzian of half-width gamma times the thermal
    enhancement factor, which skews weight to positive frequencies.

    Rejects gamma = 0; that limit is a delta function and is handled by
    the analytic pass-through in the rate model.
    """
    if p.gamma_ghz == 0:
        raise DomainError("g_high requires gamma > 0; use the delta-function "
                          "path for gamma = 0")
    nu = np.asarray(nu, dtype=float)
    g = p.gamma_ghz
    lorentz = (g / math.pi) / (nu * nu + g * g)
    return lorentz * thermal_enhancement(nu / p.temperature_ghz)


def relax_width(nu, p: IntrawellBroadening):
    """Intrawell relaxation rate expressed as a frequency width in GHz.

    This is Gamma31(nu) / 2pi, the quantity that enters the relaxation
    envelope denominator on the ordinary-frequency axis.
    """
    return p.zeta_ghz * balance_factor(np.asarray(nu, dtype=float) / p.temperature_ghz)


def intrawell_rate(nu, p: IntrawellBroadening):
    """Intrawell relaxation rate Gamma31(nu) in inverse microseconds.

    Satisfies detailed balance Gamma31(-nu) = exp(-nu/T) Gamma31(nu)
    exactly and tends to zeta/hbar (converted to 1/us) for nu >> T.
    """
    return 2.0 * math.pi * 1e3 * relax_width(nu, p)


def g_relax(nu, p: IntrawellBroadening):
    """Relaxation envelope for tunneling into the excited target state.

    Peaked near nu = 0 (resonance with the excited state); the width is
    the relaxation rate evaluated at nu + omega31, which is what makes
    the envelope obey detailed balance instead of being symmetric.  It is
    the normalized Lorentzian Gamma / pi (nu^2 + Gamma^2) of half-width
    Gamma = relax_width(nu + omega31).
    """
    if p.zeta_ghz == 0:
        raise DomainError("g_relax requires zeta > 0; use the delta-function "
                          "path for zeta = 0")
    nu = np.asarray(nu, dtype=float)
    gw = relax_width(nu + p.omega31_ghz, p)
    return gw / (math.pi * (nu * nu + gw * gw))


def normalization_domain(p) -> tuple[float, float]:
    """Documented frequency window over which the envelope normalization
    checks are evaluated.

    The ohmic envelope has a logarithmically growing positive wing (the
    physical cutoff frequency is far above every scale kept in the
    model), so its normalization is only meaningful over a stated window.
    """
    if isinstance(p, LowFreqBroadening):
        return (p.shift_ghz - 12.0 * p.width_ghz, p.shift_ghz + 12.0 * p.width_ghz)
    if isinstance(p, HighFreqBroadening):
        half = 10.0 * p.gamma_ghz + 6.0 * p.temperature_ghz
        return (-half, half)
    if isinstance(p, IntrawellBroadening):
        half = 10.0 * p.zeta_ghz + 3.0 * p.omega31_ghz + 6.0 * p.temperature_ghz
        return (-half, half)
    raise TypeError(f"no normalization domain for {type(p).__name__}")
