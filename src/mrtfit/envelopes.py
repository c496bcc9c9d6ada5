"""Broadening envelope functions for the two-peak tunneling line shape.

Three normalized, single-peaked functions of frequency encode the three
noise channels:

* ``g_low``:  Gaussian, low-frequency flux noise, width W and a shift
  eps_p tied to W by the fluctuation-dissipation relation W^2 = 2 k_B T eps_p.
* ``g_high``: Lorentzian core with a thermal detailed-balance factor,
  high-frequency (ohmic) flux noise of width gamma.  The rate model
  convolves an exact split of it instead; it stays as the reference that
  split is tested against.
* ``g_relax``: Lorentzian with a frequency-dependent width given by the
  intrawell relaxation rate, charge noise acting on the excited target
  state.

All functions work in the package's internal units: arguments and width
parameters are plain scalars, energies as equivalent frequencies in GHz,
temperatures as k_B T / h in GHz, and the returned spectral weights are
per GHz, normalized as integral over d(nu) = 1 (exactly for the Gaussian,
approximately for the other two; the residual is absorbed into the
tunneling amplitude when fitting).  The widths are the internal-unit
views of ``rate_model.MrtParams``, which checks their ranges; the shift
is its ``shift_ghz()``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

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


def g_low(nu, w, shift):
    """Gaussian envelope, unit normalized, peaked at the reorganization
    shift eps_p = W^2 / 2T with standard deviation W."""
    nu = np.asarray(nu, dtype=float)
    return np.exp(-((nu - shift) ** 2) / (2.0 * w * w)) / (math.sqrt(2.0 * math.pi) * w)


def g_high(nu, gamma, t):
    """Ohmic envelope: Lorentzian of half-width gamma times the thermal
    enhancement factor, which skews weight to positive frequencies.

    Rejects gamma = 0; that limit is a delta function and is handled by
    the analytic pass-through in the rate model.
    """
    if gamma == 0:
        raise DomainError("g_high requires gamma > 0; use the delta-function "
                          "path for gamma = 0")
    nu = np.asarray(nu, dtype=float)
    lorentz = (gamma / math.pi) / (nu * nu + gamma * gamma)
    return lorentz * thermal_enhancement(nu / t)


def relax_width(nu, zeta, t):
    """Intrawell relaxation rate expressed as a frequency width in GHz.

    This is Gamma31(nu) / 2pi, the quantity that enters the relaxation
    envelope denominator on the ordinary-frequency axis.
    """
    return zeta * balance_factor(np.asarray(nu, dtype=float) / t)


def g_relax(nu, zeta, nu31, t):
    """Relaxation envelope for tunneling into the excited target state.

    Peaked near nu = 0 (resonance with the excited state); the width is
    the relaxation rate evaluated at nu + nu31, which is what makes the
    envelope obey detailed balance instead of being symmetric.  It is the
    normalized Lorentzian Gamma / pi (nu^2 + Gamma^2) of half-width
    Gamma = relax_width(nu + nu31).
    """
    if zeta == 0:
        raise DomainError("g_relax requires zeta > 0; use the delta-function "
                          "path for zeta = 0")
    nu = np.asarray(nu, dtype=float)
    gw = relax_width(nu + nu31, zeta, t)
    return gw / (math.pi * (nu * nu + gw * gw))
