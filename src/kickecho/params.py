"""Physical constants and derived beam/atom parameters.

Everything is SI.  The geometry is a retro-reflected standing wave: a laser
with wavevector k_L produces a potential with spatial period lambda/2, so the
grating vector seen by the atoms is kappa = 2*k_L.  The natural clock of the
problem is the Talbot time T_T = 2*pi/(4*omega_r) at which free evolution
phases of the momentum ladder are all multiples of 2*pi.

Defaults target rubidium-85 addressed at 780 nm, but the mass and wavelength
are plain arguments everywhere so other species drop in without edits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

HBAR = 1.054571817e-34  # J s (CODATA 2018)
ATOMIC_MASS_KG = 1.66053906660e-27  # kg per unified atomic mass unit
RB85_MASS_U = 84.911789738  # Rb-85 relative atomic mass, in u
DEFAULT_WAVELENGTH = 780.0e-9  # m, Rb D2 line

# Tolerance for the internal consistency identity hbar*kappa^2*T_T/(2m) = 2*pi.
_IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class PhysicalParams:
    """Derived single-atom parameters for one beam/species combination.

    Attributes
    ----------
    mass : float
        Atomic mass in kg.
    wavelength : float
        Laser wavelength in m.
    k_laser : float
        Laser wavevector 2*pi/wavelength, 1/m.
    kappa : float
        Grating wavevector 2*k_laser, 1/m.  One ladder rung is hbar*kappa.
    omega_r : float
        Recoil angular frequency hbar*k_laser**2/(2*mass), rad/s.
    talbot_time : float
        T_T = 2*pi/(4*omega_r), s.
    """

    mass: float
    wavelength: float
    k_laser: float
    kappa: float
    omega_r: float
    talbot_time: float

    @property
    def recoil_momentum(self) -> float:
        """One ladder spacing hbar*kappa, kg m/s."""
        return HBAR * self.kappa

    @property
    def ladder_phase_rate(self) -> float:
        """hbar*kappa^2/(2*mass) in rad/s: free phase per unit (q+beta)^2.

        Equals 2*pi/talbot_time by construction.
        """
        return HBAR * self.kappa**2 / (2.0 * self.mass)


def derive_params(mass: float, wavelength: float) -> PhysicalParams:
    """Build PhysicalParams from an atomic mass (kg) and wavelength (m).

    Raises ValueError for non-positive inputs, for inputs whose k_laser,
    kappa, omega_r or talbot_time leaves the positive double range, and
    for inputs whose hbar*kappa^2*talbot_time/(2*mass) is not 2*pi to
    1e-12 relative, which the returned object satisfies.
    """
    if not (mass > 0.0) or not math.isfinite(mass):
        raise ValueError(f"mass must be positive and finite, got {mass!r}")
    if not (wavelength > 0.0) or not math.isfinite(wavelength):
        raise ValueError(f"wavelength must be positive and finite, got {wavelength!r}")
    k_laser = 2.0 * math.pi / wavelength
    kappa = 2.0 * k_laser
    # kappa**2 raises OverflowError past 1.3e154; such a recoil rate is
    # rejected below as infinite.
    omega_r = HBAR * k_laser**2 / (2.0 * mass) if kappa < 1e154 else math.inf
    _check_derived(mass, wavelength, k_laser=k_laser, kappa=kappa, omega_r=omega_r)
    talbot_time = 2.0 * math.pi / (4.0 * omega_r)
    _check_derived(mass, wavelength, talbot_time=talbot_time)
    p = PhysicalParams(mass, wavelength, k_laser, kappa, omega_r, talbot_time)
    ident = HBAR * kappa**2 * talbot_time / (2.0 * mass) / (2.0 * math.pi)
    if not abs(ident - 1.0) <= _IDENTITY_TOL:
        # Finite, positive values can still lose the identity to a product
        # that leaves the normal range: hbar kappa^2 is subnormal at mass
        # 1e-300 kg and wavelength 1.3e144 m.
        raise ValueError(
            f"hbar kappa^2 T_T / (2 m) = 2 pi * {ident!r} of mass {mass!r} kg and "
            f"wavelength {wavelength!r} m is not 2 pi"
        )
    return p


def _check_derived(mass: float, wavelength: float, **derived: float) -> None:
    """ValueError unless every derived value is finite and positive."""
    for name, value in derived.items():
        if not 0.0 < value < math.inf:
            raise ValueError(
                f"{name} = {value!r} of mass {mass!r} kg and wavelength {wavelength!r} m "
                "is not finite and positive"
            )


def rb85_params(
    wavelength: float = DEFAULT_WAVELENGTH, mass_u: float = RB85_MASS_U
) -> PhysicalParams:
    """Parameters for Rb-85 (or an override mass in u) at the given wavelength."""
    return derive_params(mass_u * ATOMIC_MASS_KG, wavelength)


def gamma_from_v0(v0: float, params: PhysicalParams) -> float:
    """Dimensionless depth gamma = mass*V0/(hbar*kappa)^2."""
    return params.mass * v0 / (HBAR * params.kappa) ** 2


def v0_from_gamma(gamma: float, params: PhysicalParams) -> float:
    """Potential depth (J) for a given dimensionless depth gamma."""
    if gamma < 0.0 or not math.isfinite(gamma):
        raise ValueError(f"gamma must be >= 0 and finite, got {gamma!r}")
    return gamma * (HBAR * params.kappa) ** 2 / params.mass

