"""Full-circuit cross-check: 1D rf-SQUID double-well eigenproblem.

The compound-junction rf-SQUID is reduced to one flux degree of freedom
by pinning the fast compound-junction coordinate at its applied bias
(the small-inductance limit of the secondary loop), leaving

    H = q^2 / 2C + (Phi - Phi^x + Phi0/2)^2 / 2L
        - E_J |cos(pi Phi_CJJ^x / Phi0)| cos(2 pi Phi / Phi0)

on a uniform flux grid with a second-order finite-difference kinetic
term.  The sign of the junction cosine only relocates the degeneracy
point by half a flux quantum in raw applied flux, which the measured
flux axis absorbs, so the magnitude is used and the barrier sits at the
parabola minimum.

Metastable well states come from diagonalizing the Hamiltonian blocks on
either side of the partition point Phi - Phi^x + Phi0/2 = 0 (hard
truncation).  Energies, current and voltage matrix elements, and the
persistent current converge cleanly in that construction.  Tunneling
amplitudes do not: the cross-block coupling of hard-truncated states
vanishes linearly with the grid step, so the amplitudes are extracted
instead from avoided-crossing gaps of the untruncated spectrum, which is
the grid-converged equivalent (splitting at degeneracy for the ground
pair, minimal gap at the excited-state resonance for the first peak).
The minimal gap is the vertex of gap^2, a parabola in the bias near the
crossing, found from seven solves without an iterative search.

Every eigen-solve goes through ``_lowest_levels``: inverse iteration from
the levels of a coarse copy of the block, Rayleigh-Ritz, and a
certificate from the residuals and two Sturm-type counts, with LAPACK
bisection for anything the certificate rejects.  The grid has 64 to
MAX_GRID_POINTS points, checked before any solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv, dpttrf, dstebz, dstein

from .errors import ConvergenceError, SingleWellError, ValidationError
from .units import (
    FluxUPhi0,
    FreqGHz,
    Phi0,
    TempK,
    energy_to_flux,
    h,
    hbar,
    wb_to_uphi0,
)

if TYPE_CHECKING:
    from .rate_model import MrtParams, RateDataset

_GHZ = 1e9
DEFAULT_GRID_POINTS = 4096
DEFAULT_HALF_SPAN = 0.5      # in flux quanta, each side of the partition
MAX_GRID_POINTS = 65536


@dataclass(frozen=True)
class RfSquidParams:
    """Circuit parameters of the compound-junction rf-SQUID.

    ic_a is the total critical current of both junctions, phi_cjj_x the
    compound-junction bias in flux quanta, phi_x_uphi0 the main-loop bias
    measured from the degeneracy point.
    """

    ic_a: float
    l_h: float
    c_f: float
    phi_cjj_x: float
    phi_x_uphi0: FluxUPhi0 = 0.0

    def __post_init__(self):
        for name in ("ic_a", "l_h", "c_f"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        if not abs(self.phi_cjj_x) <= 1.0:
            raise ValidationError("|phi_cjj_x| must not exceed 1 flux quantum, "
                                  f"got {self.phi_cjj_x}")
        if not math.isfinite(self.phi_x_uphi0):
            raise ValidationError(f"phi_x_uphi0 must be finite, got {self.phi_x_uphi0}")

    @property
    def ej_joule(self) -> float:
        return self.ic_a * Phi0 / (2.0 * math.pi)

    @property
    def ej_eff_joule(self) -> float:
        return self.ej_joule * abs(math.cos(math.pi * self.phi_cjj_x))

    @property
    def beta_eff(self) -> float:
        """Screening parameter; a double well requires beta_eff > 1."""
        return (2.0 * math.pi * self.l_h * self.ic_a
                * abs(math.cos(math.pi * self.phi_cjj_x)) / Phi0)


@dataclass(frozen=True, eq=False)
class EffectivePotential:
    """1D potential on a uniform grid of y = Phi/Phi0, energies in GHz."""

    y: np.ndarray
    u_ghz: np.ndarray
    partition_index: int
    params: RfSquidParams
    minima_indices: tuple

    @property
    def step(self) -> float:
        return self.y[1] - self.y[0]


def _potential_ghz(params: RfSquidParams, y: np.ndarray) -> np.ndarray:
    yx = params.phi_x_uphi0 * 1e-6
    quad_term = (Phi0**2 / (2.0 * params.l_h) / h / _GHZ
                 * (y - yx + 0.5) ** 2)
    jj_term = params.ej_eff_joule / h / _GHZ * np.cos(2.0 * math.pi * y)
    return quad_term - jj_term


def _flux_axis(params: RfSquidParams, n_points: int, half_span: float) -> np.ndarray:
    """Uniform grid of y = Phi/Phi0, staggered about the partition point."""
    if not 64 <= n_points <= MAX_GRID_POINTS or n_points % 2:
        raise ValidationError(
            f"n_points must be even and within 64..{MAX_GRID_POINTS}, got {n_points}")
    if not 0 < half_span < math.inf:
        raise ValidationError(f"half_span must be positive and finite, got {half_span}")
    dy = 2.0 * half_span / n_points
    y_part = params.phi_x_uphi0 * 1e-6 - 0.5
    return y_part + (np.arange(n_points) + 0.5 - n_points / 2) * dy


def effective_potential(params: RfSquidParams,
                        n_points: int = DEFAULT_GRID_POINTS,
                        half_span: float = DEFAULT_HALF_SPAN) -> EffectivePotential:
    """Build the effective 1D double-well potential.

    The grid is staggered symmetrically about the partition point (the
    partition falls between two grid points), which keeps the two wells
    exactly mirror-symmetric at zero bias.
    """
    if params.beta_eff <= 1.0:
        raise SingleWellError(
            f"beta_eff = {params.beta_eff:.4f} <= 1: the junction term cannot "
            "form a barrier; no double well exists at this compound-junction "
            "bias")
    y = _flux_axis(params, n_points, half_span)
    u = _potential_ghz(params, y)
    interior = (u[1:-1] < u[:-2]) & (u[1:-1] <= u[2:])
    minima = tuple(int(i) + 1 for i in np.nonzero(interior)[0])
    if len(minima) != 2:
        raise SingleWellError(
            f"expected exactly two potential minima in the window, found "
            f"{len(minima)} (beta_eff = {params.beta_eff:.4f})")
    part_idx = n_points // 2
    if not minima[0] < part_idx <= minima[1]:
        raise ValidationError("partition point does not separate the two wells")
    return EffectivePotential(y=y, u_ghz=u, partition_index=part_idx,
                              params=params, minima_indices=minima)


def _kinetic_coef_ghz(c_f: float) -> float:
    """hbar^2 / (2 C Phi0^2), as GHz per d^2/dy^2."""
    return hbar**2 / (2.0 * c_f * Phi0**2) / h / _GHZ


# The certified solver behind _lowest_levels.  Shifts and start vectors come
# from the block averaged onto about _COARSE_NODES cells, bisected to
# _COARSE_TOL of the coarse kinetic norm.  Residuals must fall within
# _RESIDUAL_UNITS rounding units eps 4a/dy^2 of the kinetic norm: measured
# residuals grow about as the square root of the grid size, to 1.5 units at
# 1024 points, 2.6 at 4096 and 6.3 at 16384.  The Sturm counts get
# _COUNT_UNITS of slack beyond the residual norm.
_COARSE_NODES = 256
_COARSE_TOL = 1e-6
_RESIDUAL_UNITS = 16.0
_COUNT_UNITS = 4.0
_MAX_SWEEPS = 8


def _coarse_levels(u: np.ndarray, a: float, dy: float, k: int):
    """Lowest ``k`` eigenvalues and eigenvectors of the block ``u`` averaged
    over cells of s = len(u) // _COARSE_NODES nodes, the vectors repeated
    back onto the nodes (zero past the last whole cell), or None when LAPACK
    reports a failure."""
    s = max(1, len(u) // _COARSE_NODES)
    m = len(u) // s
    if k > m:
        return None
    c = a / (s * dy) ** 2
    d = u[:m * s].reshape(m, s).mean(axis=1) + 2.0 * c
    e = np.full(m - 1, -c)
    # the raw wrapper's range code 2 selects il..iu by index (LAPACK's 'I')
    found, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 0.0, 1, k,
                                            _COARSE_TOL * 4.0 * c, "B")
    if info or found != k:
        return None
    z, info = dstein(d, e, w[:k], iblock, isplit)
    if info:
        return None
    x = np.zeros((k, len(u)))
    x[:, :m * s] = np.repeat(z.T, s, axis=1)
    return w[:k], x


def _inverse_sweep(d: np.ndarray, e: np.ndarray, shifts: np.ndarray,
                   x: np.ndarray):
    """One inverse-iteration step for each row of ``x`` at its own shift, or
    None if a factorization meets an exact zero pivot."""
    out = np.empty_like(x)
    for j, shift in enumerate(shifts):
        *_, sol, info = dgtsv(e, d - shift, e, x[j][:, None], overwrite_d=True)
        if info:
            return None
        out[j] = sol[:, 0]
    return out


def _gram(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # einsum, because BLAS takes about twice as long for k x n times n x k
    # with k = 2 or 3
    return np.einsum("in,jn->ij", p, q)


def _rayleigh_ritz(x: np.ndarray, u: np.ndarray, c: float) -> tuple:
    """Ritz values and orthonormal Ritz vectors of the rows of ``x``, with
    the vectors' differences including the zero ends.  The energy is
    sum u x^2 + c sum (dx)^2: the kinetic term as squared differences,
    so that nothing cancels against the 2c on the diagonal."""
    f = np.empty((len(x), x.shape[1] + 1))
    f[:, 0], f[:, -1] = x[:, 0], -x[:, -1]
    np.subtract(x[:, 1:], x[:, :-1], out=f[:, 1:-1])
    h = _gram(x * u, x) + c * _gram(f, f)
    li = np.linalg.inv(np.linalg.cholesky(_gram(x, x)))
    theta, w = np.linalg.eigh(li @ h @ li.T)
    coef = w.T @ li
    return theta, coef @ x, coef @ f


def _certified_levels(u: np.ndarray, a: float, dy: float, k: int):
    """The lowest ``k`` levels and their vectors (rows), or None when they
    cannot be certified.  See ``_lowest_levels``."""
    c = a / dy**2
    d = u + 2.0 * c
    e = np.full(len(u) - 1, -c)
    start = _coarse_levels(u, a, dy, k)
    if start is None:
        return None
    theta, x = start
    unit = np.finfo(float).eps * 4.0 * c
    for _ in range(_MAX_SWEEPS):
        x = _inverse_sweep(d, e, theta, x)
        if x is None:
            return None
        try:
            theta, x, f = _rayleigh_ritz(x, u, c)
        except np.linalg.LinAlgError:
            return None
        r = (u - theta[:, None]) * x + c * (f[:, :-1] - f[:, 1:])
        res = np.sqrt(np.einsum("in,in->i", r, r))
        if res.max() <= _RESIDUAL_UNITS * unit:
            break
    else:
        return None
    # each Ritz value lies within the residual norm of its own eigenvalue
    # (Kahan); none below lo and exactly k in (lo, hi] makes them the lowest
    delta = math.sqrt(res @ res) + _COUNT_UNITS * unit
    lo, hi = theta[0] - delta, theta[-1] + delta
    if dpttrf(d - lo, e)[2]:
        return None
    # range code 1 selects (lo, hi] (LAPACK's 'V'); a tolerance of the whole
    # window stops the bisection at the count
    found, *_, info = dstebz(d, e, 1, lo, hi, 0, 0, hi - lo, "B")
    if info or found != k:
        return None
    return theta, x


def _lowest_levels(u: np.ndarray, dy: float, c_f: float, n_levels: int,
                   where: str, vectors: bool = False):
    """Lowest ``n_levels`` of the finite-difference Hamiltonian (GHz) for the
    potential ``u`` on a grid of step ``dy``: the energies, and with
    ``vectors`` also the orthonormal eigenvectors as columns.

    The levels of the block averaged onto about 256 cells give shifts and
    start vectors.  Inverse iteration on the full block (one LAPACK
    ``dgtsv`` solve per level), each sweep followed by Rayleigh-Ritz with
    the kinetic energy written as squared differences, refines them until
    every residual |T x - theta x| is within 16 rounding units
    eps 4a/dy^2 of the kinetic norm; two sweeps suffice except next to an
    avoided crossing, and after eight the solve gives up.  The levels are
    then certified: each Ritz value lies within the residual norm of its
    own eigenvalue, T - (theta_0 - delta) is positive definite (``dpttrf``),
    and a Sturm count (``dstebz``) finds exactly ``n_levels`` eigenvalues in
    (theta_0 - delta, theta_last + delta], delta being the residual norm
    plus 4 units (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998,
    ch. 4 and 11).  Whatever is not certified is solved by bisection and
    inverse iteration (``eigh_tridiagonal``) instead.  No state is kept
    between calls, so the result depends on the arguments alone.
    """
    a = _kinetic_coef_ghz(c_f)
    certified = _certified_levels(u, a, dy, n_levels)
    if certified is not None:
        theta, x = certified
        return (theta, x.T) if vectors else theta
    try:
        return eigh_tridiagonal(u + 2.0 * a / dy**2, np.full(len(u) - 1, -a / dy**2),
                                eigvals_only=not vectors, select="i",
                                select_range=(0, n_levels - 1))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigenvalue solve failed in {where} (n = {len(u)}, "
            f"dy = {dy:.3e} Phi0): {exc}") from exc


@dataclass(frozen=True, eq=False)
class WellBasis:
    """Per-well metastable states and their matrix elements.

    The two lowest states of each well are numbered in energy order, 0
    and 2 in the left well, 1 and 3 in the right.  ``wavefunctions[n]``
    lives on the full grid (zero outside its well).  ``current_a`` is the
    loop-current matrix in ampere (zero between opposite wells by
    construction), ``voltage_v`` the magnitude of the junction-voltage
    matrix element in volt (the operator is antihermitian in the real
    position basis, so only the magnitude is physical here), ``delta_ghz``
    the tunneling amplitudes for the pairs used by the two-peak model.
    """

    potential: EffectivePotential
    energies_ghz: np.ndarray          # index = state number, interleaved
    wavefunctions: np.ndarray         # shape (4, n_grid)
    current_a: np.ndarray             # (4, 4)
    voltage_v: np.ndarray             # (4, 4), magnitudes
    delta_ghz: dict                   # {(0,1): ..., (0,3): ...}

    @property
    def omega31_ghz(self) -> FreqGHz:
        """Level spacing E_3 - E_1 of the target (right) well, as E/h."""
        return FreqGHz(self.energies_ghz[3] - self.energies_ghz[1])

    @property
    def ip_a(self) -> float:
        return persistent_current(self)


def solve_wells(pot: EffectivePotential, c_f: float,
                compute_amplitudes: bool = True) -> WellBasis:
    """Diagonalize the Hamiltonian blocks on each side of the partition.

    Returns the lowest two states per well with energies, current and
    voltage matrix elements, and (optionally) the tunneling amplitudes for
    the (0,1) and (0,3) pairs from avoided-crossing gaps of the
    untruncated spectrum.  The (0,3) crossing is sought from this
    basis's level spacing and persistent current, the degeneracy values
    when ``pot`` is at zero bias.
    """
    y, u, dy = pot.y, pot.u_ghz, pot.step
    n = len(y)
    m = pot.partition_index
    e_left, v_left = _lowest_levels(u[:m], dy, c_f, 2,
                                    "the left well block", vectors=True)
    e_right, v_right = _lowest_levels(u[m:], dy, c_f, 2,
                                      "the right well block", vectors=True)

    # interleave by well, each wavefunction positive next to the partition
    energies = np.column_stack([e_left, e_right]).ravel()
    psi = np.zeros((4, n))
    psi[0::2, :m] = (v_left * np.where(v_left[-1] > 0, 1.0, -1.0)).T
    psi[1::2, m:] = (v_right * np.where(v_right[0] > 0, 1.0, -1.0)).T
    parity = np.arange(4) % 2
    same_well = parity[:, None] == parity[None, :]

    # current operator is diagonal in flux: I = (Phi - Phi^x + Phi0/2)/L;
    # opposite wells vanish exactly
    yx = pot.params.phi_x_uphi0 * 1e-6
    i_diag = Phi0 * (y - yx + 0.5) / pot.params.l_h
    current = np.where(same_well, (psi * i_diag) @ psi.T, 0.0)

    # voltage operator q/C = -i hbar/C d/dPhi; central differences give an
    # exactly antisymmetric derivative matrix on each block.  dpsi crosses
    # the partition, so opposite wells are masked rather than zero.
    dpsi = np.zeros_like(psi)
    dpsi[:, 1:-1] = (psi[:, 2:] - psi[:, :-2]) / (2.0 * dy)
    voltage = np.where(same_well & ~np.eye(4, dtype=bool),
                       hbar / (c_f * Phi0) * np.abs(psi @ dpsi.T),
                       0.0)

    basis = WellBasis(potential=pot, energies_ghz=energies,
                      wavefunctions=psi, current_a=current, voltage_v=voltage,
                      delta_ghz={})
    if compute_amplitudes:
        half_span = (y[-1] - y[0] + dy) / 2.0
        basis.delta_ghz[(0, 1)] = ground_pair_splitting(pot.params, c_f, n, half_span)
        basis.delta_ghz[(0, 3)], _ = excited_crossing_gap(
            pot.params, c_f, basis.omega31_ghz, basis.ip_a, n, half_span)
    return basis


def full_spectrum(params: RfSquidParams, c_f: float, n_levels: int,
                  n_points: int = DEFAULT_GRID_POINTS,
                  half_span: float = DEFAULT_HALF_SPAN) -> np.ndarray:
    """Lowest levels of the untruncated 1D Hamiltonian, in GHz."""
    u = _potential_ghz(params, _flux_axis(params, n_points, half_span))
    return _lowest_levels(u, 2.0 * half_span / n_points, c_f, n_levels,
                          "the full spectrum")


def ground_pair_splitting(params: RfSquidParams, c_f: float,
                          n_points: int = DEFAULT_GRID_POINTS,
                          half_span: float = DEFAULT_HALF_SPAN) -> FreqGHz:
    """Tunneling amplitude of the ground pair: the symmetric-antisymmetric
    splitting of the untruncated spectrum at the degeneracy bias."""
    at_zero = dc_replace(params, phi_x_uphi0=0.0)
    ev = full_spectrum(at_zero, c_f, 2, n_points, half_span)
    return FreqGHz(ev[1] - ev[0])


def excited_crossing_gap(params: RfSquidParams, c_f: float,
                         omega31_ghz: float, ip_a: float,
                         n_points: int = DEFAULT_GRID_POINTS,
                         half_span: float = DEFAULT_HALF_SPAN) -> tuple:
    """Tunneling amplitude into the excited target state and the resonance
    bias: minimal avoided-crossing gap of levels 1 and 2 near the bias
    where the initial ground state aligns with the excited state.

    Near the crossing the gap is a hyperbola in the bias, so gap^2 is a
    parabola.  Its vertex through three solves at the linear guess
    omega31 / 2 I_p and at +-5 % of it is refined once through three solves
    at 1/20 of that spacing, and the gap is solved at the final vertex:
    seven solves.  ``ip_a`` is the persistent current of the caller's well
    basis.

    Returns (delta03_ghz, phi31_uphi0).
    """
    phi_guess = energy_to_flux(omega31_ghz, ip_a)
    lo, hi = 0.7 * phi_guess, 1.3 * phi_guess

    def gap(phi):
        ev = full_spectrum(dc_replace(params, phi_x_uphi0=float(phi)), c_f, 3,
                           n_points, half_span)
        return float(ev[2] - ev[1])

    phi31, spacing = phi_guess, 0.05 * phi_guess
    for _ in range(2):
        below, at, above = (gap(phi31 + k * spacing) ** 2 for k in (-1, 0, 1))
        curvature = below - 2.0 * at + above
        vertex = (phi31 - 0.5 * spacing * (above - below) / curvature
                  if curvature > 0 else math.nan)
        if not lo < vertex < hi:
            raise ConvergenceError(
                f"avoided-crossing search failed: gap^2 about {phi31:.1f} uPhi0 "
                f"has curvature {curvature:.3g} GHz^2 and vertex {vertex:.1f} "
                f"uPhi0, outside [{lo:.1f}, {hi:.1f}]")
        phi31, spacing = vertex, spacing / 20.0
    return FreqGHz(gap(phi31)), FluxUPhi0(phi31)


def persistent_current(basis: WellBasis) -> float:
    """I_p = (I_11 - I_00) / 2 from the lowest state of each well."""
    return float((basis.current_a[1, 1] - basis.current_a[0, 0]) / 2.0)


def harmonic_v31(omega31_rad_s: float, c_f: float) -> float:
    """Voltage matrix element in the harmonic-well approximation,
    sqrt(hbar omega31 / 2 C), in volt."""
    if omega31_rad_s <= 0 or c_f <= 0:
        raise ValidationError("omega31 and capacitance must be positive")
    return math.sqrt(hbar * omega31_rad_s / (2.0 * c_f))


# interval counts of the nested Chebyshev-Lobatto node sets of the per-bias
# interpolant: 9, 17 and 33 nodes
_FIRST_INTERVALS = 8
_LAST_INTERVALS = 32


def _well_energies(params: RfSquidParams, phi: float, n_points: int,
                   half_span: float) -> tuple:
    """(E_L0 - E_R0, E_R1 - E_R0) in GHz at the main-loop bias ``phi``."""
    pot = effective_potential(dc_replace(params, phi_x_uphi0=float(phi)),
                              n_points, half_span)
    u, m, dy = pot.u_ghz, pot.partition_index, pot.step
    e_left = _lowest_levels(u[:m], dy, params.c_f, 1, "the left well block")
    e_right = _lowest_levels(u[m:], dy, params.c_f, 2, "the right well block")
    return e_left[0] - e_right[0], e_right[1] - e_right[0]


def _lobatto(n: int, k: np.ndarray) -> np.ndarray:
    """cos(k pi / n), written as a sine so that 0 and +-1 come out exact."""
    return np.sin(np.pi * (n - 2 * k) / (2 * n))


def _chebyshev_tail(values: np.ndarray) -> float:
    """Largest of the last three Chebyshev coefficients of the interpolant
    through ``values`` at the points cos(j pi / n), j = 0..n."""
    n = len(values) - 1
    j = np.arange(n + 1)
    ends_halved = np.where((j == 0) | (j == n), 0.5, 1.0) * values
    coef = 2.0 / n * np.cos(np.pi * np.outer(j[-3:], j) / n) @ ends_halved
    coef[-1] /= 2.0
    return float(np.max(np.abs(coef)))


def bias_energies(params: RfSquidParams, phi: np.ndarray,
                  n_points: int = DEFAULT_GRID_POINTS,
                  half_span: float = DEFAULT_HALF_SPAN) -> tuple:
    """eps = E_L0 - E_R0 and omega31 = E_R1 - E_R0 (GHz) at the strictly
    increasing biases ``phi`` (uPhi0), from a Chebyshev interpolant over
    the window phi[0]..phi[-1].

    The wells are solved at 9 Chebyshev-Lobatto nodes of the window, then
    at 17 and at 33, each set reusing the solves of the one before, until
    the last three Chebyshev coefficients of both functions fall below one
    rounding unit of the kinetic term's matrix norm,
    eps 4 hbar^2 / (2 C Phi0^2 dy^2): 2.6e-10 GHz at 4096 grid points,
    growing as the square of the grid size.  That is how closely the
    certified levels agree with bisection (see ``_lowest_levels``); their
    own noise, the trailing coefficients at 33 nodes, stays below 0.02 of
    a unit from 1024 to 8192 points.  The barycentric formula evaluates the interpolant, and returns
    the solved values exactly at biases that are nodes, the window ends
    among them.  A single bias is solved directly.

    Returns (eps, omega31, number of nodes, largest trailing coefficient
    in GHz).
    """
    lo, hi = float(phi[0]), float(phi[-1])

    def solve(biases):
        return np.array([_well_energies(params, p, n_points, half_span)
                         for p in biases])

    if lo == hi:
        eps, om31 = solve([lo]).T
        return eps, om31, 1, 0.0
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    dy = 2.0 * half_span / n_points
    tol = np.finfo(float).eps * 4.0 * _kinetic_coef_ghz(params.c_f) / dy**2
    n = _FIRST_INTERVALS
    nodes = mid + half * _lobatto(n, np.arange(n + 1))
    nodes[0], nodes[-1] = hi, lo
    values = solve(nodes)
    while True:
        tail = max(_chebyshev_tail(values[:, 0]), _chebyshev_tail(values[:, 1]))
        if tail <= tol or n == _LAST_INTERVALS:
            break
        n *= 2
        added = mid + half * _lobatto(n, np.arange(1, n, 2))
        nodes = np.insert(nodes, np.arange(1, len(nodes)), added)
        values = np.insert(values, np.arange(1, len(values)), solve(added), axis=0)

    weights = (-1.0) ** np.arange(n + 1)
    weights[[0, -1]] /= 2.0
    diff = phi[:, None] - nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = weights / diff
        out = terms @ values / terms.sum(axis=1)[:, None]
    at_node, node = np.nonzero(diff == 0)
    out[at_node] = values[node]
    return out[:, 0], out[:, 1], n + 1, tail


@dataclass(frozen=True)
class FullModelNoise:
    """Noise inputs of the full model: flux-noise widths stay in flux
    units; charge noise enters as a loss tangent."""

    w_phi_uphi0: FluxUPhi0
    gamma_phi_uphi0: FluxUPhi0
    tan_delta_c: float
    temperature_k: TempK


@dataclass(frozen=True, eq=False)
class FullModelResult:
    curve: RateDataset
    params: MrtParams
    solver: dict


def full_model_rate(params: RfSquidParams, noise: FullModelNoise, phi_grid,
                    bias_mode: str = "fixed",
                    n_points: int = DEFAULT_GRID_POINTS,
                    half_span: float = DEFAULT_HALF_SPAN) -> FullModelResult:
    """Rate curve with circuit quantities taken from the Hamiltonian.

    Solves the circuit at the degeneracy bias (ground-pair amplitude,
    persistent current) and at the excited-state resonance (first-peak
    amplitude, resonance bias, level spacing, voltage matrix element),
    maps the charge-noise loss tangent to the relaxation strength through
    zeta = 2 C V31^2 tan(delta_C), and delegates to the rate model.

    ``bias_mode`` "fixed" evaluates circuit quantities at representative
    biases only, and its curve is ``simulate_curve(phi_grid, result.params)``;
    "per_bias" additionally replaces the linear flux-to-energy map by the
    level differences eps = E_L0 - E_R0 and omega31 = E_R1 - E_R0 at every
    requested bias, interpolated from wells solved at 9, 17 or 33
    Chebyshev-Lobatto nodes of the bias window (see ``bias_energies``).
    At 4096 grid points the interpolant agrees with a certified solve at
    every bias to 1.1e-11 GHz, and with bisection to 3e-10 GHz, the
    rounding of bisection itself (six circuits, 60 biases each); its cost
    does not depend on the number of biases.
    """
    # the eigensolver alone (the ``squid`` subcommand) needs no rate model
    from .rate_model import (LineShapes, MrtParams, RateDataset, bias_grid,
                             simulate_curve)

    if bias_mode not in ("fixed", "per_bias"):
        raise ValidationError(f"unknown bias_mode {bias_mode!r}")
    phi = bias_grid(phi_grid)
    pot0 = effective_potential(dc_replace(params, phi_x_uphi0=0.0),
                               n_points, half_span)
    basis0 = solve_wells(pot0, params.c_f, compute_amplitudes=False)
    ip = persistent_current(basis0)
    delta01 = ground_pair_splitting(params, params.c_f, n_points, half_span)
    omega31_0 = basis0.omega31_ghz
    delta03, phi31 = excited_crossing_gap(params, params.c_f, omega31_0, ip,
                                          n_points, half_span)

    # resonance-bias basis for the intrawell quantities
    pot_res = effective_potential(dc_replace(params, phi_x_uphi0=phi31),
                                  n_points, half_span)
    basis_res = solve_wells(pot_res, params.c_f, compute_amplitudes=False)
    v31 = float(basis_res.voltage_v[1, 3])
    omega31_res = basis_res.omega31_ghz

    zeta_joule = 2.0 * params.c_f * v31**2 * noise.tan_delta_c
    zeta_phi = wb_to_uphi0(zeta_joule / (2.0 * ip))

    mrt = MrtParams(
        delta01_ghz=delta01, delta03_ghz=delta03, phi31_uphi0=phi31,
        w_phi_uphi0=noise.w_phi_uphi0, gamma_phi_uphi0=noise.gamma_phi_uphi0,
        zeta_phi_uphi0=zeta_phi, temperature_k=noise.temperature_k, ip_a=ip)

    solver_info = {
        "ip_a": ip, "delta01_ghz": float(delta01), "delta03_ghz": float(delta03),
        "phi31_uphi0": float(phi31), "omega31_ghz": float(omega31_res),
        "omega31_degeneracy_ghz": float(omega31_0), "v31_volt": v31,
        "beta_eff": params.beta_eff,
    }

    if bias_mode == "fixed":
        curve = simulate_curve(phi, mrt)
        return FullModelResult(curve=curve, params=mrt, solver=solver_info)

    eps, om31, nodes, tail = bias_energies(params, phi, n_points, half_span)
    shapes = LineShapes(mrt, float(phi[0]), float(phi[-1]))
    # each peak at its interpolated energy, passed as the bias of equal
    # linear energy
    r01, _ = shapes.rates(energy_to_flux(eps, mrt.ip_a))
    _, r03 = shapes.rates(energy_to_flux(eps - om31, mrt.ip_a) + mrt.phi31_uphi0)
    curve = RateDataset(phi_x=phi, rate=r01 + r03, ip_a=mrt.ip_a)
    solver_info.update(bias_mode="per_bias", bias_nodes=nodes, bias_tail_ghz=tail)
    return FullModelResult(curve=curve, params=mrt, solver=solver_info)
