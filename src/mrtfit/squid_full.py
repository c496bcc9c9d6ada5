"""Full-circuit cross-check: 1D rf-SQUID double-well eigenproblem.

The compound-junction rf-SQUID is reduced to one flux degree of freedom
by pinning the fast compound-junction coordinate at its applied bias
(the small-inductance limit of the secondary loop), leaving

    H = q^2 / 2C + (Phi - Phi^x + Phi0/2)^2 / 2L
        - E_J |cos(pi Phi_CJJ^x / Phi0)| cos(2 pi Phi / Phi0)

in the sine discrete variable representation (DVR) of Colbert & Miller
(J. Chem. Phys. 96, 1982, 1992).  The sign of the junction cosine only
relocates the degeneracy point by half a flux quantum in raw applied
flux, which the measured flux axis absorbs, so the magnitude is used and
the barrier sits at the parabola minimum.

Metastable well states come from diagonalizing the Hamiltonian blocks on
either side of the partition point Phi - Phi^x + Phi0/2 = 0 (hard
truncation).  Energies, current and voltage matrix elements, and the
persistent current converge cleanly in that construction.  Tunneling
amplitudes do not: the cross-block coupling of hard-truncated states has
no continuum limit, so the amplitudes are extracted instead from
avoided-crossing gaps of the untruncated spectrum, which is the
grid-converged equivalent (splitting at degeneracy for the ground
pair, minimal gap at the excited-state resonance for the first peak).
The minimal gap is the vertex of gap^2, a parabola in the bias near the
crossing, found from seven solves without an iterative search.

Every eigen-solve goes through ``_lowest_levels``, one dense symmetric
solve of the DVR Hamiltonian.  Each well block is an interval with
Dirichlet walls on the partition and HALF_SPAN flux quanta beyond it,
which is the sine DVR's own boundary condition, and holds half the n
points; the untruncated spectrum has its own n points across both
blocks.  n is even and 64 to MAX_GRID_POINTS, checked before any solve.
The per-bias level energies come from the wells solved at 17
Chebyshev-Lobatto nodes of the bias window (``bias_energies``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace as dc_replace
from typing import TYPE_CHECKING

import numpy as np

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
DEFAULT_GRID_POINTS = 128
HALF_SPAN = 0.5      # the DVR box, in flux quanta each side of the partition
MAX_GRID_POINTS = 1024
# intervals of the Chebyshev-Lobatto node set of the per-bias interpolant
_BIAS_INTERVALS = 16


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
    """1D potential at the sine-DVR points of the two well blocks, y =
    Phi/Phi0, energies in GHz.  Each block spans HALF_SPAN flux quanta
    from the partition; the right block starts at ``partition_index``."""

    y: np.ndarray
    u_ghz: np.ndarray
    partition_index: int
    params: RfSquidParams
    minima_indices: tuple


def _potential_ghz(params: RfSquidParams, y: np.ndarray) -> np.ndarray:
    yx = params.phi_x_uphi0 * 1e-6
    quad_term = (Phi0**2 / (2.0 * params.l_h) / h / _GHZ
                 * (y - yx + 0.5) ** 2)
    jj_term = params.ej_eff_joule / h / _GHZ * np.cos(2.0 * math.pi * y)
    return quad_term - jj_term


def _partition_point(params: RfSquidParams, n_points: int) -> float:
    """y = Phi/Phi0 of the partition point, once the grid is checked."""
    if not 64 <= n_points <= MAX_GRID_POINTS or n_points % 2:
        raise ValidationError(
            f"n_points must be even and within 64..{MAX_GRID_POINTS}, got {n_points}")
    return params.phi_x_uphi0 * 1e-6 - 0.5


def effective_potential(params: RfSquidParams,
                        n_points: int = DEFAULT_GRID_POINTS) -> EffectivePotential:
    """Build the effective 1D double-well potential.

    Each block holds n_points / 2 sine-DVR points y_part -+ i h, i = 1 ..
    n_points / 2, with h = HALF_SPAN / (n_points / 2 + 1): its Dirichlet
    walls sit on the partition y_part and HALF_SPAN beyond it, and the two
    blocks are exactly mirror-symmetric at zero bias.
    """
    if params.beta_eff <= 1.0:
        raise SingleWellError(
            f"beta_eff = {params.beta_eff:.4f} <= 1: the junction term cannot "
            "form a barrier; no double well exists at this compound-junction "
            "bias")
    y_part = _partition_point(params, n_points)
    part_idx = n_points // 2
    offsets = HALF_SPAN / (part_idx + 1) * np.arange(1, part_idx + 1)
    y = np.concatenate([y_part - offsets[::-1], y_part + offsets])
    u = _potential_ghz(params, y)
    interior = (u[1:-1] < u[:-2]) & (u[1:-1] <= u[2:])
    minima = tuple(int(i) + 1 for i in np.nonzero(interior)[0])
    if len(minima) != 2:
        raise SingleWellError(
            f"expected exactly two potential minima in the window, found "
            f"{len(minima)} (beta_eff = {params.beta_eff:.4f})")
    if not minima[0] < part_idx <= minima[1]:
        raise ValidationError("partition point does not separate the two wells")
    return EffectivePotential(y=y, u_ghz=u, partition_index=part_idx,
                              params=params, minima_indices=minima)


def _kinetic_coef_ghz(c_f: float) -> float:
    """hbar^2 / (2 C Phi0^2), as GHz per d^2/dy^2."""
    return hbar**2 / (2.0 * c_f * Phi0**2) / h / _GHZ


@functools.lru_cache(maxsize=8)
def _sine_dvr_kinetic(n: int, length: float) -> np.ndarray:
    """-d^2/dy^2 at the n sine-DVR points of an interval of ``length`` flux
    quanta with Dirichlet ends, in closed form (Colbert & Miller, J. Chem.
    Phys. 96, 1982, 1992, appendix A, with N = n + 1 intervals)."""
    big_n = n + 1
    i = np.arange(1, n + 1)
    with np.errstate(divide="ignore"):
        t = (-1.0) ** np.subtract.outer(i, i) * (
            1.0 / np.sin(np.pi * np.subtract.outer(i, i) / (2 * big_n)) ** 2
            - 1.0 / np.sin(np.pi * np.add.outer(i, i) / (2 * big_n)) ** 2)
    t[i - 1, i - 1] = (2 * big_n**2 + 1) / 3.0 - 1.0 / np.sin(np.pi * i / big_n) ** 2
    t *= np.pi**2 / (2.0 * length**2)
    t.flags.writeable = False
    return t


def _lowest_levels(u: np.ndarray, length: float, c_f: float, n_levels: int,
                   vectors: bool = False):
    """Lowest ``n_levels`` of the Hamiltonian (GHz) for the potential ``u``
    at the sine-DVR points of an interval of ``length`` flux quanta: the
    energies, and with ``vectors`` also the orthonormal eigenvectors as
    columns.  Dense symmetric LAPACK solves of a T(n, length) + diag(u), the
    kinetic matrix cached per (n, length).  The energies always come from
    the values-only solve, so that they do not depend on whether the
    vectors were asked for."""
    ham = _kinetic_coef_ghz(c_f) * _sine_dvr_kinetic(len(u), length)
    ham.flat[::len(u) + 1] += u
    energies = np.linalg.eigvalsh(ham)[:n_levels]
    if vectors:
        return energies, np.linalg.eigh(ham)[1][:, :n_levels]
    return energies


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
    the tunneling amplitudes for the pairs used by the two-peak model, and
    ``ip_a`` the persistent current (I_11 - I_00) / 2 of the lowest states.
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
        return float((self.current_a[1, 1] - self.current_a[0, 0]) / 2.0)


def solve_wells(pot: EffectivePotential, c_f: float,
                compute_amplitudes: bool = True) -> WellBasis:
    """Diagonalize the Hamiltonian blocks on each side of the partition.

    Returns the lowest two states per well with energies, current and
    voltage matrix elements, and (optionally) the tunneling amplitudes for
    the (0,1) and (0,3) pairs from avoided-crossing gaps of the
    untruncated spectrum, all at the capacitance ``c_f``.  The (0,3)
    crossing is sought from this basis's level spacing and persistent
    current, the degeneracy values when ``pot`` is at zero bias.
    """
    y, u, m = pot.y, pot.u_ghz, pot.partition_index
    n = len(y)
    e_left, v_left = _lowest_levels(u[:m], HALF_SPAN, c_f, 2, vectors=True)
    e_right, v_right = _lowest_levels(u[m:], HALF_SPAN, c_f, 2, vectors=True)

    # interleave by well, each wavefunction positive next to the partition
    energies = np.column_stack([e_left, e_right]).ravel()
    psi = np.zeros((4, n))
    psi[0::2, :m] = (v_left * np.where(v_left[-1] > 0, 1.0, -1.0)).T
    psi[1::2, m:] = (v_right * np.where(v_right[0] > 0, 1.0, -1.0)).T
    parity = np.arange(4) % 2
    same_well = parity[:, None] == parity[None, :]

    # current operator is diagonal in flux, and so on the DVR points:
    # I = (Phi - Phi^x + Phi0/2)/L; opposite wells vanish exactly
    l_h = pot.params.l_h
    i_diag = Phi0 * (y - pot.params.phi_x_uphi0 * 1e-6 + 0.5) / l_h
    current = np.where(same_well, (psi * i_diag) @ psi.T, 0.0)

    # voltage operator q/C from [H, Phi] = -i hbar q/C: between eigenstates
    # |<i|q/C|j>| = 2 pi |f_i - f_j| |<i|Phi|j>|, and <i|Phi|j> = L <i|I|j>
    # off the diagonal, so opposite wells and the diagonal vanish with it
    voltage = (2.0 * math.pi * _GHZ * l_h
               * np.abs(np.subtract.outer(energies, energies)) * np.abs(current))

    basis = WellBasis(potential=pot, energies_ghz=energies,
                      wavefunctions=psi, current_a=current, voltage_v=voltage,
                      delta_ghz={})
    if compute_amplitudes:
        circuit = dc_replace(pot.params, c_f=c_f)
        basis.delta_ghz[(0, 1)] = ground_pair_splitting(circuit, n)
        basis.delta_ghz[(0, 3)], _ = excited_crossing_gap(circuit, basis.omega31_ghz,
                                                          basis.ip_a, n)
    return basis


def full_spectrum(params: RfSquidParams, n_levels: int,
                  n_points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Lowest levels (GHz) of the untruncated 1D Hamiltonian of ``params``,
    at its own ``n_points`` sine-DVR points across both blocks."""
    y_part = _partition_point(params, n_points)
    y = y_part + 2.0 * HALF_SPAN / (n_points + 1) * (np.arange(n_points) + 0.5
                                                     - n_points / 2)
    return _lowest_levels(_potential_ghz(params, y), 2.0 * HALF_SPAN, params.c_f, n_levels)


def ground_pair_splitting(params: RfSquidParams,
                          n_points: int = DEFAULT_GRID_POINTS) -> FreqGHz:
    """Tunneling amplitude of the ground pair: the symmetric-antisymmetric
    splitting of the untruncated spectrum at the degeneracy bias."""
    at_zero = dc_replace(params, phi_x_uphi0=0.0)
    ev = full_spectrum(at_zero, 2, n_points)
    return FreqGHz(ev[1] - ev[0])


def excited_crossing_gap(params: RfSquidParams, omega31_ghz: float, ip_a: float,
                         n_points: int = DEFAULT_GRID_POINTS) -> tuple:
    """Tunneling amplitude into the excited target state and the resonance
    bias: minimal avoided-crossing gap of levels 1 and 2 near the bias
    where the initial ground state aligns with the excited state.

    Near the crossing the gap is a hyperbola in the bias, so gap^2 is a
    parabola.  Its vertex through three solves at the linear guess
    omega31 / 2 I_p and at +-5 % of it is refined once through three solves
    at 1/20 of that spacing, and the gap is solved at the final vertex:
    seven solves.  ``ip_a`` is the persistent current of the caller's well
    basis (``WellBasis.ip_a``).

    Returns (delta03_ghz, phi31_uphi0).
    """
    phi_guess = energy_to_flux(omega31_ghz, ip_a)
    lo, hi = 0.7 * phi_guess, 1.3 * phi_guess

    def gap(phi):
        ev = full_spectrum(dc_replace(params, phi_x_uphi0=float(phi)), 3, n_points)
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


def harmonic_v31(omega31_rad_s: float, c_f: float) -> float:
    """Voltage matrix element in the harmonic-well approximation,
    sqrt(hbar omega31 / 2 C), in volt."""
    if omega31_rad_s <= 0 or c_f <= 0:
        raise ValidationError("omega31 and capacitance must be positive")
    return math.sqrt(hbar * omega31_rad_s / (2.0 * c_f))


def _well_energies(params: RfSquidParams, phi: float, n_points: int) -> tuple:
    """(E_L0 - E_R0, E_R1 - E_R0) in GHz at the main-loop bias ``phi``."""
    pot = effective_potential(dc_replace(params, phi_x_uphi0=float(phi)), n_points)
    u, m = pot.u_ghz, pot.partition_index
    e_left = _lowest_levels(u[:m], HALF_SPAN, params.c_f, 1)
    e_right = _lowest_levels(u[m:], HALF_SPAN, params.c_f, 2)
    return e_left[0] - e_right[0], e_right[1] - e_right[0]


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
                  n_points: int = DEFAULT_GRID_POINTS) -> tuple:
    """eps = E_L0 - E_R0 and omega31 = E_R1 - E_R0 (GHz) at the strictly
    increasing biases ``phi`` (uPhi0), from a Chebyshev interpolant over
    the window phi[0]..phi[-1].

    The wells are solved once at the 17 Chebyshev-Lobatto nodes of the
    window, 34 block solves whatever the number of biases.  The
    barycentric formula (Berrut & Trefethen, SIAM Rev. 46, 501, 2004)
    evaluates the interpolant, and returns the solved values exactly at
    biases that are nodes, the window ends among them.  A single bias is
    solved directly.  On 191 random double-well circuits, windows and grids
    (phi_cjj_x -0.80..-0.70, I_c x0.9-1.6, windows within -6000..8000
    uPhi0, 64 to 1024 points) 33 nodes moved the 17-node energies by
    1.6e-12 to 6.8e-11 GHz, and doubling the DVR grid by up to 4.0e-5 GHz.

    Returns (eps, omega31, number of nodes, largest of the last three
    Chebyshev coefficients of either function in GHz).
    """
    lo, hi = float(phi[0]), float(phi[-1])

    def solve(biases):
        return np.array([_well_energies(params, p, n_points) for p in biases])

    if lo == hi:
        eps, om31 = solve([lo]).T
        return eps, om31, 1, 0.0
    # cos(k pi / n), written as a sine so that 0 and +-1 come out exact
    n, k = _BIAS_INTERVALS, np.arange(_BIAS_INTERVALS + 1)
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.sin(np.pi * (n - 2 * k) / (2 * n))
    nodes[0], nodes[-1] = hi, lo
    values = solve(nodes)
    tail = max(_chebyshev_tail(values[:, 0]), _chebyshev_tail(values[:, 1]))

    weights = (-1.0) ** k
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
                    n_points: int = DEFAULT_GRID_POINTS) -> FullModelResult:
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
    requested bias, interpolated from wells solved at the 17
    Chebyshev-Lobatto nodes of the bias window (see ``bias_energies``);
    its cost does not depend on the number of biases.
    """
    # the eigensolver alone (the ``squid`` subcommand) needs no rate model
    from .rate_model import (LineShapes, MrtParams, RateDataset, bias_grid,
                             simulate_curve)

    if bias_mode not in ("fixed", "per_bias"):
        raise ValidationError(f"unknown bias_mode {bias_mode!r}")
    phi = bias_grid(phi_grid)
    pot0 = effective_potential(dc_replace(params, phi_x_uphi0=0.0), n_points)
    basis0 = solve_wells(pot0, params.c_f, compute_amplitudes=False)
    ip = basis0.ip_a
    delta01 = ground_pair_splitting(params, n_points)
    omega31_0 = basis0.omega31_ghz
    delta03, phi31 = excited_crossing_gap(params, omega31_0, ip, n_points)

    # resonance-bias basis for the intrawell quantities
    pot_res = effective_potential(dc_replace(params, phi_x_uphi0=phi31), n_points)
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

    eps, om31, nodes, tail = bias_energies(params, phi, n_points)
    shapes = LineShapes(mrt, float(phi[0]), float(phi[-1]))
    # each peak at its interpolated energy, passed as the bias of equal
    # linear energy
    r01, _ = shapes.rates(energy_to_flux(eps, mrt.ip_a))
    _, r03 = shapes.rates(energy_to_flux(eps - om31, mrt.ip_a) + mrt.phi31_uphi0)
    curve = RateDataset(phi_x=phi, rate=r01 + r03, ip_a=mrt.ip_a)
    solver_info.update(bias_mode="per_bias", bias_nodes=nodes, bias_tail_ghz=tail)
    return FullModelResult(curve=curve, params=mrt, solver=solver_info)
