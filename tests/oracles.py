"""Independent scalar oracles used by the tests.

Everything here is built from the defining formulas with plain math and
adaptive quadrature, deliberately sharing no code with the package's
vectorized FFT pipeline.  Constants are hardcoded (CODATA 2018).
``well_levels`` solves the rf-SQUID by finite differences and bisection,
an independent discretization of the package's sine DVR.  The exceptions
are ``per_bias_rate``, which checks how the full model interpolates the
level energies in the bias: it takes the line shapes from the package and
the per-bias energies from its caller; and ``intrawell_rate``, the
package's relaxation width in 1/us, whose detailed balance the envelope
tests check.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

H = 6.62607015e-34
E_CH = 1.602176634e-19
K_B = 1.380649e-23
PHI0 = H / (2 * E_CH)
HBAR = H / (2 * math.pi)


def flux_ghz(uphi0, ip_a):
    """2 I_p Phi^x as E/h in GHz."""
    return 2.0 * ip_a * uphi0 * PHI0 * 1e-6 / H / 1e9


def kelvin_ghz(t_k):
    return K_B * t_k / H / 1e9


def o_theta(x):
    if abs(x) < 1e-6:
        return 1 + x / 2 + x * x / 12
    if x > 30:
        return x
    if x < -30:
        return -x * math.exp(x)
    return x / (-math.expm1(-x))


def o_balance(x):
    if abs(x) < 1e-6:
        return 1 + x / 2 - x * x / 4
    if x > 30:
        return 1.0
    if x < -30:
        return math.exp(x)
    return math.tanh(x) / (-math.expm1(-x))


def o_g_low(nu, w, t):
    ep = w * w / (2.0 * t)
    return math.exp(-((nu - ep) ** 2) / (2 * w * w)) / (math.sqrt(2 * math.pi) * w)


def o_g_high(nu, g, t):
    return (g / math.pi) / (nu * nu + g * g) * o_theta(nu / t)


def o_g_relax(nu, z, t, nu31):
    gw = z * o_balance((nu + nu31) / t)
    return gw / (math.pi * (nu * nu + gw * gw))


def o_g_relax_half_width(nu, z, t, nu31):
    """The half-width convention Gamma / 2 pi (nu^2 + (Gamma/2)^2) of the
    relaxation envelope, with Gamma = zeta b((nu + nu31) / T)."""
    gw = z * o_balance((nu + nu31) / t)
    return gw / (2.0 * math.pi * (nu * nu + (gw / 2.0) ** 2))


def normalization_domain(envelope, *args) -> tuple:
    """Documented frequency window over which the normalization check of
    ``envelope`` (``g_low``, ``g_high`` or ``g_relax``, called with
    ``args`` after the frequency) is evaluated.

    The ohmic envelope has a logarithmically growing positive wing (the
    physical cutoff frequency is far above every scale kept in the
    model), so its normalization is only meaningful over a stated window.
    """
    if envelope.__name__ == "g_low":
        w, shift = args
        return (shift - 12.0 * w, shift + 12.0 * w)
    if envelope.__name__ == "g_high":
        g, t = args
        half = 10.0 * g + 6.0 * t
        return (-half, half)
    if envelope.__name__ == "g_relax":
        z, nu31, t = args
        half = 10.0 * z + 3.0 * nu31 + 6.0 * t
        return (-half, half)
    raise TypeError(f"no normalization domain for {envelope.__name__}")


def intrawell_rate(nu, z, t):
    """Intrawell relaxation rate Gamma31(nu) in inverse microseconds.

    Satisfies detailed balance Gamma31(-nu) = exp(-nu/T) Gamma31(nu)
    exactly and tends to zeta/hbar (converted to 1/us) for nu >> T.
    """
    from mrtfit.envelopes import relax_width

    return 2.0 * math.pi * 1e3 * relax_width(nu, z, t)


def quad_g01(eps, w, g, t):
    """Single convolution of the Gaussian and ohmic envelopes by adaptive
    quadrature, evaluated at energy bias eps (all in GHz)."""
    ep = w * w / (2.0 * t)
    a = min(-40 * t, eps - ep - 10 * w)
    b = max(40 * t, eps - ep + 10 * w, 10 * g)
    pts = sorted({p for p in (0.0, -10 * g, 10 * g, eps - ep,
                              eps - ep - 5 * w, eps - ep + 5 * w) if a < p < b})
    val, _ = quad(lambda u: o_g_low(eps - u, w, t) * o_g_high(u, g, t), a, b,
                  points=pts, limit=500, epsabs=1e-300, epsrel=1e-9)
    return val


def quad_g03(eps, w, g, z, t, nu31):
    """Triple convolution by nested adaptive quadrature at energy bias eps."""
    om = eps - nu31
    g0 = z * o_balance(nu31 / t)

    def integrand(u2):
        return quad_g01(om - u2, w, g, t) * o_g_relax(u2, z, t, nu31)

    a = min(-40 * t - 10 * g0, om - 10 * w - 40 * t, -nu31 - 40 * t)
    b = max(40 * t + 10 * g0, om + 10 * w + 40 * t)
    pts = sorted({p for p in (0.0, -10 * g0, 10 * g0, om, -nu31) if a < p < b})
    val, _ = quad(integrand, a, b, points=pts, limit=400,
                  epsabs=1e-300, epsrel=1e-7)
    return val


def rate_coef(delta_ghz):
    """(Delta/2 hbar)^2 such that coef * g[1/GHz] is in 1/us."""
    return 1e3 * (2.0 * math.pi * delta_ghz) ** 2 / 4.0


def quad_total_rate(phi_uphi0, *, delta01, delta03, phi31, w_phi, gamma_phi,
                    zeta_phi, t_k, ip_a):
    """Total two-peak rate (1/us) by quadrature, from flux-unit parameters."""
    w = flux_ghz(w_phi, ip_a)
    g = flux_ghz(gamma_phi, ip_a)
    z = flux_ghz(zeta_phi, ip_a)
    nu31 = flux_ghz(phi31, ip_a)
    t = kelvin_ghz(t_k)
    eps = flux_ghz(phi_uphi0, ip_a)
    total = rate_coef(delta01) * quad_g01(eps, w, g, t)
    if delta03 > 0 and z > 0:
        total += rate_coef(delta03) * quad_g03(eps, w, g, z, t, nu31)
    elif delta03 > 0:
        total += rate_coef(delta03) * quad_g01(eps - nu31, w, g, t)
    return total


def convolve(f, g, grid):
    """Reference linear convolution h(nu) = integral f(nu - nu') g(nu') d nu'
    of two tabulations on ``grid`` (a ``FrequencyGrid``): a real FFT
    zero-padded to a fast length of at least 2n - 1, sliced back onto the
    grid through its zero index."""
    from scipy.fft import irfft, next_fast_len, rfft

    n = len(grid)
    n_fft = next_fast_len(2 * n - 1, real=True)
    full = irfft(rfft(f, n_fft) * rfft(g, n_fft), n_fft)
    iz = grid.index_of_zero
    return full[iz: iz + n] * grid.step


def well_levels(circuit, n_points, k, part, vectors=False, half_span=0.5):
    """Lowest k levels (GHz) of the second-order finite-difference
    Hamiltonian of the rf-SQUID, by bisection, on a uniform grid of n_points
    staggered about the partition point and spanning ``half_span`` flux
    quanta on each side: its ``part`` "left" or "right" well block (hard
    walls half a step beyond the partition) or the "full" interval.  With
    ``vectors`` also the eigenvectors as columns and the grid of y = Phi/Phi0."""
    dy = 2.0 * half_span / n_points
    yx = circuit.phi_x_uphi0 * 1e-6
    y = yx - 0.5 + (np.arange(n_points) + 0.5 - n_points / 2) * dy
    y = {"left": y[:n_points // 2], "right": y[n_points // 2:], "full": y}[part]
    ej = (circuit.ic_a * PHI0 / (2 * math.pi)
          * abs(math.cos(math.pi * circuit.phi_cjj_x)))
    u = (PHI0**2 / (2 * circuit.l_h) * (y - yx + 0.5) ** 2
         - ej * np.cos(2 * math.pi * y)) / H / 1e9
    t = HBAR**2 / (2.0 * circuit.c_f * PHI0**2) / H / 1e9 / dy**2
    out = eigh_tridiagonal(u + 2.0 * t, np.full(len(u) - 1, -t),
                           eigvals_only=not vectors, select="i",
                           select_range=(0, k - 1))
    return (*out, y) if vectors else out


def per_bias_rate(mrt, phi, eps, om31):
    """Total rate (1/us) of the per-bias full model from the level
    differences eps = E_L0 - E_R0 and omega31 = E_R1 - E_R0 (GHz) solved at
    every bias in ``phi``: each peak's line shape at its exact energy,
    ``mrt`` supplying the amplitudes, widths and the linear map."""
    from mrtfit.rate_model import LineShapes
    from mrtfit.units import energy_to_flux

    shapes = LineShapes(mrt, float(phi[0]), float(phi[-1]))
    r01, _ = shapes.rates(energy_to_flux(eps, mrt.ip_a))
    _, r03 = shapes.rates(energy_to_flux(eps - om31, mrt.ip_a) + mrt.phi31_uphi0)
    return r01 + r03
