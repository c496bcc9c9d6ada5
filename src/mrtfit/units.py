"""Physical constants, unit conversions, the fit-parameter table, and
derived noise metrics.

Internal convention used throughout the package: energies are carried as
equivalent ordinary frequencies E/h in GHz, magnetic flux in micro flux
quanta, temperatures in kelvin at API boundaries, tunneling rates in
inverse microseconds.  Conversions to and from SI happen here and only
here, with CODATA 2018 constants (h, e, k_B are exact in the 2019 SI),
which are the module constants ``h``, ``e``, ``k_B``, ``hbar`` and
``Phi0``.

``FIT_PARAMS`` is the one table of the seven fit parameters: names,
fields, labels, units, log flags, bounds and defaults.

The scalar quantity kinds that are easy to mix up carry distinct static
types (``NewType``), so a flux cannot silently be passed where an energy
is expected in type-checked code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, NewType, Sequence

from .errors import DomainError

FluxUPhi0 = NewType("FluxUPhi0", float)
"""Magnetic flux in units of 1e-6 flux quanta."""

FreqGHz = NewType("FreqGHz", float)
"""Energy expressed as an equivalent ordinary frequency E/h, in GHz."""

TempK = NewType("TempK", float)
"""Thermodynamic temperature in kelvin."""


# CODATA 2018 constants; hbar and Phi0 are derived exactly
h = 6.62607015e-34          # J s, exact
e = 1.602176634e-19         # C, exact
k_B = 1.380649e-23          # J/K, exact
hbar = h / (2.0 * math.pi)
Phi0 = h / (2.0 * e)

_UPHI0_WB = Phi0 * 1e-6          # one micro flux quantum in weber
_GHZ = 1e9


def uphi0_to_wb(phi_x: FluxUPhi0) -> float:
    """Convert flux from micro flux quanta to weber."""
    return phi_x * _UPHI0_WB


def wb_to_uphi0(phi_wb: float) -> FluxUPhi0:
    """Convert flux from weber to micro flux quanta."""
    return FluxUPhi0(phi_wb / _UPHI0_WB)


def kelvin_to_ghz(temperature: TempK) -> FreqGHz:
    """Thermal energy k_B*T as an equivalent frequency in GHz."""
    if temperature <= 0:
        raise DomainError(f"temperature must be positive, got {temperature}")
    return FreqGHz(k_B * temperature / h / _GHZ)


def ghz_to_kelvin(nu: FreqGHz) -> TempK:
    """Inverse of :func:`kelvin_to_ghz`."""
    return TempK(nu * _GHZ * h / k_B)


def flux_to_energy(phi_x: FluxUPhi0, ip: float) -> FreqGHz:
    """Energy bias of the double well at flux bias ``phi_x``.

    The two wells tilt in opposite directions, so the bias between the
    lowest states is eps = 2 * I_p * Phi^x.  Returned as eps/h in GHz.

    Parameters
    ----------
    phi_x:
        Flux bias from the degeneracy point, in micro flux quanta.
    ip:
        Persistent current in ampere; must be positive.
    """
    if ip <= 0:
        raise DomainError(f"persistent current must be positive, got {ip}")
    return FreqGHz(2.0 * ip * uphi0_to_wb(phi_x) / h / _GHZ)


def energy_to_flux(nu: FreqGHz, ip: float) -> FluxUPhi0:
    """Flux bias that produces energy bias ``nu`` (GHz); inverse of
    :func:`flux_to_energy`."""
    if ip <= 0:
        raise DomainError(f"persistent current must be positive, got {ip}")
    return wb_to_uphi0(nu * _GHZ * h / (2.0 * ip))


class FitParam(NamedTuple):
    """One fit parameter: its name (as in ``[fit] free``), its MrtParams
    field, its report label (also its ``[model]`` config key), the factor
    from field to label units, whether the fitter moves it in log space,
    its bounds (field units), its default (label units, the ``[model]``
    default) and, for a linear parameter, the floor of its step scale."""

    name: str
    field: str
    label: str
    scale: float
    log: bool
    bounds: tuple
    default: float
    x_floor: float = 1.0


FIT_PARAMS = (
    FitParam("delta01", "delta01_ghz", "delta01_mhz", 1e3, True, (1e-9, 1.0), 2.72),
    FitParam("delta03", "delta03_ghz", "delta03_mhz", 1e3, True, (1e-9, 5.0), 29.8),
    FitParam("phi31", "phi31_uphi0", "phi31_uphi0", 1.0, False, (10.0, 2e4), 2153.6, 10.0),
    FitParam("w_phi", "w_phi_uphi0", "w_phi_uphi0", 1.0, False, (0.5, 5e3), 37.2, 1.0),
    FitParam("gamma_phi", "gamma_phi_uphi0", "gamma_phi_uphi0", 1.0, True, (1e-4, 1e3), 0.54),
    FitParam("zeta_phi", "zeta_phi_uphi0", "zeta_phi_uphi0", 1.0, True, (1e-4, 1e3), 4.53),
    FitParam("temperature", "temperature_k", "temperature_mk", 1e3, False,
             (5e-4, 0.2), 7.3, 1e-3),
)


def derive_eta(gamma_phi: FluxUPhi0, ip: float, temperature: TempK) -> float:
    """Dimensionless ohmic coupling eta = 4 I_p gamma_Phi / k_B T."""
    if not 0 < temperature < math.inf:
        raise DomainError(f"temperature must be positive and finite, got {temperature}")
    return 4.0 * ip * uphi0_to_wb(gamma_phi) / (k_B * temperature)


def derive_shunt_and_inductive_loss(
    gamma_phi: FluxUPhi0,
    ip: float,
    inductance: float,
    temperature: TempK,
    omegas: Sequence[float] = (),
) -> tuple[float, tuple[tuple[float, float], ...]]:
    """Shunt resistance and inductive loss tangent from ohmic flux noise.

    R_S = 2 I_p L^2 k_B T / (hbar gamma_Phi) and tan delta_L(omega) =
    omega L / R_S.  A vanishing ``gamma_phi`` means no ohmic noise at
    all; that limit is reported as an infinite shunt resistance with all
    loss tangents zero rather than raising.

    Parameters
    ----------
    gamma_phi:
        Ohmic broadening parameter in micro flux quanta (finite, >= 0).
    ip, inductance, temperature:
        Persistent current (A), main-loop inductance (H), temperature (K);
        each positive and finite.
    omegas:
        Positive, finite angular frequencies (rad/s) at which to evaluate
        tan delta_L.

    Returns
    -------
    (r_shunt, tan_delta_l_at):
        Shunt resistance in ohm and a tuple of (omega, tan delta_L) pairs.
    """
    if not all(0 < x < math.inf for x in (ip, inductance, temperature)):
        raise DomainError("ip, inductance and temperature must be positive and "
                          f"finite, got {ip}, {inductance}, {temperature}")
    if not 0 <= gamma_phi < math.inf:
        raise DomainError(f"gamma_phi must be non-negative and finite, got {gamma_phi}")
    if not all(0 < w < math.inf for w in omegas):
        raise DomainError(f"loss frequencies must be positive and finite, got {omegas}")
    if gamma_phi == 0:
        return math.inf, tuple((w, 0.0) for w in omegas)
    r_shunt = (2.0 * ip * inductance**2 * k_B * temperature
               / (hbar * uphi0_to_wb(gamma_phi)))
    tan_l = tuple((w, w * inductance / r_shunt) for w in omegas)
    return r_shunt, tan_l


def derive_tan_delta_c(zeta_phi: FluxUPhi0, phi31: FluxUPhi0) -> float:
    """Capacitive loss tangent tan delta_C = zeta_Phi / Phi^x_31."""
    if not 0 < phi31 < math.inf:
        raise DomainError(f"phi31 must be positive and finite, got {phi31}")
    if not 0 <= zeta_phi < math.inf:
        raise DomainError(f"zeta_phi must be non-negative and finite, got {zeta_phi}")
    return zeta_phi / phi31


@dataclass(frozen=True)
class NoiseSummary:
    """Derived noise metrics for one qubit.

    tan_delta_l_at holds (angular frequency rad/s, value) pairs; the loss
    tangent is linear in frequency so any probe frequency set works.
    """

    eta: float
    r_shunt_ohm: float
    tan_delta_c: float
    tan_delta_l_at: tuple[tuple[float, float], ...]


DEFAULT_LOSS_OMEGAS = (2.0 * math.pi * 1e9,)


def noise_summary(
    gamma_phi: FluxUPhi0,
    zeta_phi: FluxUPhi0,
    phi31: FluxUPhi0,
    ip: float,
    inductance: float,
    temperature: TempK,
    omegas: Sequence[float] = DEFAULT_LOSS_OMEGAS,
) -> NoiseSummary:
    """Bundle all four derived metrics for reporting."""
    r_shunt, tan_l = derive_shunt_and_inductive_loss(
        gamma_phi, ip, inductance, temperature, omegas)
    return NoiseSummary(
        eta=derive_eta(gamma_phi, ip, temperature),
        r_shunt_ohm=r_shunt,
        tan_delta_c=derive_tan_delta_c(zeta_phi, phi31),
        tan_delta_l_at=tan_l,
    )
