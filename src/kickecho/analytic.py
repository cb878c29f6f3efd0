"""Closed-form and first-order models of the echo-sequence output.

Near resonance the final-state amplitudes factorize into Bessel magnitudes
J_q(N*phi_d) and phases that are linear in each small control parameter
(period detuning eps, initial momentum p0, acceleration a).  This module
evaluates those phase slopes, assembles the first-order output

    I = |sum_q J_q(N*phi_d)^2 * exp(i*(theta_q - chi_q))|^2,

and provides the closed-form limits obtained by resumming the q-series
(Bessel addition theorem for the momentum and acceleration responses, a
continuum estimate for the detuning response), together with their FWHM.

Conventions: theta_q is the phase of the forward-train amplitude c_q
relative to its resonant value, chi_q the corresponding phase of the
reversed-train coefficient d_q; the output depends on theta_q - chi_q.
"""

from __future__ import annotations

import math

import numpy as np

from . import _bessel
from .errors import SingularCoefficientError
from .params import HBAR, PhysicalParams

# Half-maximum point of the squared central Bessel lobe: J_0(X_HALF)^2 = 1/2.
# Frozen from a bracketing root-find on J_0^2 (verified in the test suite).
X_HALF = 1.1263642393772588

# Terms with squared magnitude below this are dropped from the q-sum.
TERM_TOL = 1e-16

# |J_q(N*phi_d)| below this makes the Bessel-ratio term of the detuning
# slope genuinely undefined.
SINGULAR_TOL = 1e-300


def ladder_weights(n_kicks: int, phi_d: float, q) -> np.ndarray:
    """Magnitudes J_q(n_kicks*phi_d) shared by both trains' coefficients."""
    return _bessel.jn(np.asarray(q), n_kicks * phi_d)


def eps_phase_slopes(
    n_kicks: int, phi_d: float, q, params: PhysicalParams
) -> tuple[np.ndarray, np.ndarray]:
    """Phase slopes d(theta_q)/d(eps) and d(chi_q)/d(eps) at resonance, rad/s.

    theta' = +(kappa^2*hbar/2m) * [ (N - 1/N)q/6 - phi_d(N^2-1)R_q/6
                                    - (N/3 + 1/2 + 1/(6N)) q^2 ]
    chi'   = -(kappa^2*hbar/2m) * [ (N - 1/N)q/6 - phi_d(N^2-1)R_q/6
                                    - (N/3 - 1/2 + 1/(6N)) q^2 ]

    with R_q = J_{q-1}(N*phi_d)/J_q(N*phi_d).  The two differ only in the
    sign of the q^2/2 term, so theta' + chi' = -(kappa^2*hbar/2m) q^2
    exactly, while the large q-linear and Bessel-ratio parts add in the
    observable combination theta' - chi'.

    Raises SingularCoefficientError where J_q(N*phi_d) vanishes: the
    Bessel-ratio term is undefined there (the corresponding output term
    carries zero weight, so callers assembling the q-sum skip such q).
    """
    q = np.asarray(q)
    n = n_kicks
    z = n * phi_d
    jq = _bessel.jn(q, z)
    if np.any(np.abs(jq) < SINGULAR_TOL):
        bad = np.asarray(q)[np.abs(jq) < SINGULAR_TOL]
        raise SingularCoefficientError(
            f"J_q({z!r}) vanishes at q = {bad.tolist()}; detuning phase slope undefined"
        )
    ratio = _bessel.jn(q - 1, z) / jq
    pref = params.kappa**2 * HBAR / (2.0 * params.mass)
    common = (n - 1.0 / n) * q / 6.0 - phi_d * (n**2 - 1.0) * ratio / 6.0
    theta = pref * (common - (n / 3.0 + 0.5 + 1.0 / (6.0 * n)) * q**2)
    chi = -pref * (common - (n / 3.0 - 0.5 + 1.0 / (6.0 * n)) * q**2)
    return theta, chi


def p0_phase_slopes(
    n_kicks: int, q, params: PhysicalParams
) -> tuple[np.ndarray, np.ndarray]:
    """Phase slopes w.r.t. initial momentum p0 (rad per kg*m/s), exact.

    theta' = -T_T*(kappa/2m) * q * (N+1)
    chi'   = +T_T*(kappa/2m) * q * (N-1)

    Both are odd in q; the observable difference is -T_T*kappa*N*q/m.
    """
    q = np.asarray(q)
    pref = params.talbot_time * params.kappa / (2.0 * params.mass)
    return -pref * q * (n_kicks + 1.0), pref * q * (n_kicks - 1.0)


def accel_phase_slopes(
    n_kicks: int, q, params: PhysicalParams
) -> tuple[np.ndarray, np.ndarray]:
    """Phase slopes w.r.t. acceleration (rad per m/s^2) at resonance, exact.

    theta' = +(kappa*T_T^2/12) * q * (N+1)(4N-1)
    chi'   = -(kappa*T_T^2/12) * q * (N-1)(8N-1)

    The difference is (kappa*T_T^2/2) * q * N(2N-1), the sequence's
    acceleration sensitivity.
    """
    q = np.asarray(q)
    n = n_kicks
    pref = params.kappa * params.talbot_time**2 / 12.0
    return pref * q * (n + 1.0) * (4.0 * n - 1.0), -pref * q * (n - 1.0) * (8.0 * n - 1.0)


def _sum_q_range(n_kicks: int, phi_d: float) -> np.ndarray:
    z = n_kicks * phi_d
    qm = int(math.ceil(z + 14.0 + 8.0 * z ** (1.0 / 3.0)))
    return np.arange(-qm, qm + 1)


def output_first_order(
    n_kicks: int,
    phi_d: float,
    params: PhysicalParams,
    eps: float = 0.0,
    p0: float = 0.0,
    accel: float = 0.0,
) -> float:
    """First-order output for one small control offset.

    Assembles c_q = J_q e^{i(-q*pi/2 + theta_q)} and
    d_q* = J_q e^{i(+q*pi/2 - chi_q)} with phases linear in the single
    nonzero control, and returns |sum_q d_q* c_q|^2.  Terms with squared
    magnitude below TERM_TOL are dropped.  At most one of eps, p0, accel
    may be nonzero (the model is first order in a single control).
    """
    if sum(x != 0.0 for x in (eps, p0, accel)) > 1:
        raise ValueError("at most one of eps, p0, accel may be nonzero")
    qs = _sum_q_range(n_kicks, phi_d)
    w = _bessel.jn(qs, n_kicks * phi_d)
    keep = w**2 >= TERM_TOL
    qs, w = qs[keep], w[keep]
    if eps != 0.0:
        ts, cs = eps_phase_slopes(n_kicks, phi_d, qs, params)
        theta, chi = ts * eps, cs * eps
    elif p0 != 0.0:
        ts, cs = p0_phase_slopes(n_kicks, qs, params)
        theta, chi = ts * p0, cs * p0
    elif accel != 0.0:
        ts, cs = accel_phase_slopes(n_kicks, qs, params)
        theta, chi = ts * accel, cs * accel
    else:
        theta = chi = np.zeros_like(w)
    half = 0.5 * math.pi * qs
    c = w * np.exp(1j * (-half + theta))
    d_conj = w * np.exp(1j * (half - chi))
    return float(np.abs(np.sum(d_conj * c)) ** 2)


def i_eps_asymptotic(n_kicks: int, phi_d: float, eps, params: PhysicalParams):
    """Large-N continuum estimate of the detuning response.

    I = J_0^2( N^3 phi_d^2 hbar kappa^2 eps / (6 m) ).  Valid for large N;
    documented, not enforced.
    """
    arg = (
        n_kicks**3
        * phi_d**2
        * HBAR
        * params.kappa**2
        * np.asarray(eps)
        / (6.0 * params.mass)
    )
    return _bessel.j0(arg) ** 2


def i_p0_closed(n_kicks: int, phi_d: float, p0, params: PhysicalParams):
    """Closed-form momentum response from resumming the linear q-phases.

    I = J_0^2( N phi_d sqrt(2 - 2 cos(N kappa T_T p0 / m)) ).
    """
    alpha = n_kicks * params.kappa * params.talbot_time * np.asarray(p0) / params.mass
    arg = 2.0 * n_kicks * phi_d * np.abs(np.sin(0.5 * alpha))
    return _bessel.j0(arg) ** 2


def i_p0_linearized(n_kicks: int, phi_d: float, p0, params: PhysicalParams):
    """Small-argument limit of i_p0_closed:
    I = J_0^2( N^2 phi_d kappa T_T p0 / m )."""
    arg = (
        n_kicks**2 * phi_d * params.kappa * params.talbot_time * np.asarray(p0) / params.mass
    )
    return _bessel.j0(arg) ** 2


def i_accel_closed(n_kicks: int, phi_d: float, accel, params: PhysicalParams):
    """Closed-form acceleration response from resumming the linear q-phases.

    I = J_0^2( N phi_d sqrt(2 - 2 cos(N (2N-1) kappa T_T^2 a / 2)) ).
    """
    alpha = (
        n_kicks * (2.0 * n_kicks - 1.0) * params.kappa * params.talbot_time**2
        * np.asarray(accel) / 2.0
    )
    arg = 2.0 * n_kicks * phi_d * np.abs(np.sin(0.5 * alpha))
    return _bessel.j0(arg) ** 2


def i_accel_linearized(n_kicks: int, phi_d: float, accel, params: PhysicalParams):
    """Small-argument limit of i_accel_closed:
    I = J_0^2( N^2 (2N-1) phi_d a T_T^2 kappa / 2 )."""
    arg = (
        n_kicks**2 * (2.0 * n_kicks - 1.0) * phi_d * np.asarray(accel)
        * params.talbot_time**2 * params.kappa / 2.0
    )
    return _bessel.j0(arg) ** 2


def fwhm_eps(n_kicks: int, phi_d: float, params: PhysicalParams) -> float:
    """FWHM of i_eps_asymptotic: 2 * X_HALF * 6m / (N^3 phi_d^2 hbar kappa^2).

    Scales as 1/(N^3 phi_d^2).
    """
    denominator = n_kicks**3 * phi_d**2 * HBAR * params.kappa**2
    if not denominator > 0.0:
        raise ValueError(f"phi_d = {phi_d!r} gives no finite timing width")
    return 2.0 * X_HALF * 6.0 * params.mass / denominator


def _half_crossing_angle(n_kicks: int, phi_d: float) -> float:
    s = X_HALF / (2.0 * n_kicks * phi_d) if n_kicks * phi_d > 0.0 else math.inf
    if s > 1.0:
        raise ValueError(
            f"N*phi_d = {n_kicks * phi_d!r} too small: the closed-form response "
            "never falls to half maximum"
        )
    return 2.0 * math.asin(s)


def fwhm_p0(n_kicks: int, phi_d: float, params: PhysicalParams) -> float:
    """FWHM of i_p0_closed in kg*m/s.  Scales as 1/(N^2 phi_d) for large N."""
    alpha = _half_crossing_angle(n_kicks, phi_d)
    return 2.0 * alpha * params.mass / (n_kicks * params.kappa * params.talbot_time)


def fwhm_accel(n_kicks: int, phi_d: float, params: PhysicalParams) -> float:
    """FWHM of i_accel_closed in m/s^2.  Scales as 1/(N^3 phi_d) for large N."""
    alpha = _half_crossing_angle(n_kicks, phi_d)
    return (
        4.0 * alpha
        / (n_kicks * (2.0 * n_kicks - 1.0) * params.kappa * params.talbot_time**2)
    )
