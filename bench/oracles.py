"""Scalar quadrature references for the line-shape accuracy guards.

The formulas are the ones in ``tests/oracles.py``: the defining integrals
evaluated by adaptive quadrature with plain math and hardcoded CODATA
2018 constants.  They share no code with the package's FFT pipeline, so
a change to the pipeline (grid, splines, convolution back end) cannot
move the reference.  The copy keeps the benchmark's reference fixed even
if the test helpers change.
"""

import math

from scipy.integrate import quad

H = 6.62607015e-34
E_CH = 1.602176634e-19
K_B = 1.380649e-23
PHI0 = H / (2 * E_CH)


def flux_ghz(uphi0, ip_a):
    """2 I_p Phi^x as E/h in GHz."""
    return 2.0 * ip_a * uphi0 * PHI0 * 1e-6 / H / 1e9


def kelvin_ghz(t_k):
    return K_B * t_k / H / 1e9


def _theta(x):
    if abs(x) < 1e-6:
        return 1 + x / 2 + x * x / 12
    if x > 30:
        return x
    if x < -30:
        return -x * math.exp(x)
    return x / (-math.expm1(-x))


def _balance(x):
    if abs(x) < 1e-6:
        return 1 + x / 2 - x * x / 4
    if x > 30:
        return 1.0
    if x < -30:
        return math.exp(x)
    return math.tanh(x) / (-math.expm1(-x))


def _g_low(nu, w, t):
    ep = w * w / (2.0 * t)
    return math.exp(-((nu - ep) ** 2) / (2 * w * w)) / (math.sqrt(2 * math.pi) * w)


def _g_high(nu, g, t):
    return (g / math.pi) / (nu * nu + g * g) * _theta(nu / t)


def _g_relax(nu, z, t, nu31):
    gw = z * _balance((nu + nu31) / t)
    return gw / (math.pi * (nu * nu + gw * gw))


def _g01(eps, w, g, t):
    """Gaussian convolved with the ohmic envelope, at energy bias eps."""
    ep = w * w / (2.0 * t)
    a = min(-40 * t, eps - ep - 10 * w)
    b = max(40 * t, eps - ep + 10 * w, 10 * g)
    pts = sorted({p for p in (0.0, -10 * g, 10 * g, eps - ep,
                              eps - ep - 5 * w, eps - ep + 5 * w) if a < p < b})
    val, _ = quad(lambda u: _g_low(eps - u, w, t) * _g_high(u, g, t), a, b,
                  points=pts, limit=500, epsabs=1e-300, epsrel=1e-9)
    return val


def _g03(eps, w, g, z, t, nu31):
    """Triple convolution (relaxation envelope added) by nested quadrature."""
    om = eps - nu31
    g0 = z * _balance(nu31 / t)

    def integrand(u2):
        return _g01(om - u2, w, g, t) * _g_relax(u2, z, t, nu31)

    a = min(-40 * t - 10 * g0, om - 10 * w - 40 * t, -nu31 - 40 * t)
    b = max(40 * t + 10 * g0, om + 10 * w + 40 * t)
    pts = sorted({p for p in (0.0, -10 * g0, 10 * g0, om, -nu31) if a < p < b})
    val, _ = quad(integrand, a, b, points=pts, limit=400,
                  epsabs=1e-300, epsrel=1e-7)
    return val


def _rate_coef(delta_ghz):
    return 1e3 * (2.0 * math.pi * delta_ghz) ** 2 / 4.0


def total_rate(phi_uphi0, p):
    """Total two-peak rate (1/us) at flux bias phi (uPhi0), left-well
    initialization, for an ``MrtParams``-like object ``p`` with gamma > 0."""
    w = flux_ghz(p.w_phi_uphi0, p.ip_a)
    g = flux_ghz(p.gamma_phi_uphi0, p.ip_a)
    z = flux_ghz(p.zeta_phi_uphi0, p.ip_a)
    nu31 = flux_ghz(p.phi31_uphi0, p.ip_a)
    t = kelvin_ghz(p.temperature_k)
    eps = flux_ghz(phi_uphi0, p.ip_a)
    total = _rate_coef(p.delta01_ghz) * _g01(eps, w, g, t)
    if p.delta03_ghz > 0 and z > 0:
        total += _rate_coef(p.delta03_ghz) * _g03(eps, w, g, z, t, nu31)
    elif p.delta03_ghz > 0:
        total += _rate_coef(p.delta03_ghz) * _g01(eps - nu31, w, g, t)
    return total
