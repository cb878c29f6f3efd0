"""Output checks for the benchmark's kickecho runs.

Every check compares the files one CLI run wrote with a computation made
apart from the engine that produced them, or with a property the method
must have:

* closed-form widths and constants are computed here from scipy.constants,
  not taken from ``kickecho.analytic`` or ``kickecho.params``;
* resonant populations come from ``scipy.special.jv`` directly;
* batched scan curves are re-evaluated on the scalar propagators
  (``run_sequence``, ``run_finite_sequence``), which share no loop with
  the batched engines;
* wavepacket curves are re-evaluated by a dense-matrix ladder oracle
  written here.

A check returns a list of problems; an empty list means the output passed.
The functions take parsed outputs, so the self-test can feed them
deliberately wrong ones.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy import constants, linalg, optimize, special

# Reference medium of every workload, 85Rb in a 780 nm standing wave, in SI
# units from scipy.constants (kickecho's defaults are not read).
RB85_MASS_U = 84.911789738
LAMBDA_NM = 780.0
HBAR = constants.hbar
MASS = RB85_MASS_U * constants.atomic_mass
KAPPA = 2.0 * (2.0 * math.pi / (LAMBDA_NM * 1e-9))
# Resonance: hbar kappa^2 T_T / (2 m) = 2 pi.
TALBOT = 4.0 * math.pi * MASS / (HBAR * KAPPA**2)

# Half-maximum argument of the squared central Bessel lobe, J_0(x)^2 = 1/2.
X_HALF = optimize.brentq(lambda x: special.j0(x) ** 2 - 0.5, 0.5, 2.0, xtol=1e-15)

# Tolerances.  Widths follow acceptance criteria 2-4 (5 %); the relations
# of criterion 5 hold to 20 %; peak shifts at two multiples agree to 5 %.
# HALF_LEVEL_TOL allows for the scans' linear interpolation between
# samples: as a share of the center value at center -+ fwhm/2, and as a
# share of the width for located crossings.  The worst seen over seeds 1-6
# and 21-40 of every workload is 5.2e-4; a width 2 % off moves either by
# about 0.014.
WIDTH_TOL = 0.05
HALF_LEVEL_TOL = 0.005
ECHO_TOL = 1e-10
POPULATION_TOL = 1e-10
SCALAR_ROW_TOL = 1e-9
ENSEMBLE_ROW_TOL = 2e-3
ENSEMBLE_ECHO_RTOL = 1e-3
# Gauss-Hermite nodes of the benchmark's own wavepacket echo average.
GH_NODES = 129
TAU_PRODUCT_US = 22.0
W_PRODUCT_US = 33.0
PRODUCT_TOL = 0.20
FIT_EXPONENT = -2.0
FIT_TOL = 0.15
PEAK_SHIFT_TOL = 0.05
WAVEPACKET_NEAR_TOL = 0.10
WAVEPACKET_EXCESS = 0.25


def _half_angle(n: int, phi_d: float) -> float:
    return 2.0 * math.asin(X_HALF / (2.0 * n * phi_d))


def width_eps(n: int, phi_d: float) -> float:
    """FWHM in s of J_0^2(N^3 phi^2 hbar kappa^2 eps / 6m)."""
    return 12.0 * X_HALF * MASS / (n**3 * phi_d**2 * HBAR * KAPPA**2)


def width_p0(n: int, phi_d: float) -> float:
    """FWHM in units of hbar kappa of J_0^2(2 N phi |sin(N kappa T_T p0 / 2m)|)."""
    return _half_angle(n, phi_d) / (2.0 * math.pi * n)


def width_accel(n: int, phi_d: float) -> float:
    """FWHM in m/s^2 of J_0^2(2 N phi |sin(N (2N-1) kappa T_T^2 a / 4)|)."""
    return 4.0 * _half_angle(n, phi_d) / (n * (2.0 * n - 1.0) * KAPPA * TALBOT**2)


# --------------------------------------------------------------- parsing


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a kickecho CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    data = np.array([[float(cell) for cell in row] for row in rows[1:]], dtype=float)
    return header, data.reshape(len(rows) - 1, len(header))


# ------------------------------------------------------ scalar re-evaluation


def half_level_problems(label: str, at_center: float, at_lo: float, at_hi: float) -> list[str]:
    """The response at center -+ fwhm/2 must be half the response at center."""
    problems = []
    if not at_center > 0.0:
        return [f"{label}: no positive response at the reported center"]
    for side, value in (("left", at_lo), ("right", at_hi)):
        ratio = value / at_center
        if abs(ratio - 0.5) > HALF_LEVEL_TOL:
            problems.append(
                f"{label}: response at the {side} half-width point is "
                f"{ratio:.4f} of the center value, expected 0.5"
            )
    return problems


def half_crossings(response, center: float, fwhm: float) -> tuple[float, float]:
    """Half-level crossings of a response nearest its center, found by
    walking outward in fwhm/20 steps and bisecting the first bracket."""
    half = 0.5 * response(center)

    def crossing(direction: int) -> float:
        inner = center
        for k in range(1, 41):
            outer = center + direction * k * fwhm / 20.0
            if response(outer) < half:
                lo, hi = sorted((inner, outer))
                return optimize.brentq(lambda x: response(x) - half, lo, hi, xtol=1e-6 * fwhm)
            inner = outer
        return math.nan

    return crossing(-1), crossing(+1)


def crossing_problems(label: str, fwhm: float, left: float, right: float) -> list[str]:
    """The reported width must match the distance between the crossings."""
    dev = (right - left) / fwhm - 1.0
    if not abs(dev) < HALF_LEVEL_TOL:
        return [f"{label}: half-level crossings are {right - left:.6g} apart, reported width {fwhm:.6g}"]
    return []


def width_problems(label: str, width: float, predicted: float) -> list[str]:
    dev = width / predicted - 1.0
    if not abs(dev) < WIDTH_TOL:
        return [f"{label}: width {width:.6g} deviates {dev:+.2%} from closed form {predicted:.6g}"]
    return []


def row_problems(label: str, reported, recomputed, tol: float) -> list[str]:
    reported = np.asarray(reported, dtype=float)
    recomputed = np.asarray(recomputed, dtype=float)
    worst = float(np.max(np.abs(reported - recomputed)))
    if not worst <= tol:
        return [f"{label}: sampled outputs differ from the re-evaluation by {worst:.3e} (tol {tol:.0e})"]
    return []


def spot_indices(control: np.ndarray, center: float, fwhm: float) -> list[int]:
    """Rows nearest the center and the two half-width points."""
    return sorted(
        {int(np.argmin(np.abs(control - x))) for x in (center - 0.5 * fwhm, center, center + 0.5 * fwhm)}
    )


# ------------------------------------------------------------- populations


def resonant_populations(n_kicks: int, phi_d: float, q_values: np.ndarray) -> np.ndarray:
    """Rows of J_q(k phi)^2 for k <= N and J_q((2N - k) phi)^2 after."""
    ks = np.arange(1, 2 * n_kicks + 1)
    net = np.where(ks <= n_kicks, ks, 2 * n_kicks - ks)
    return special.jv(q_values[None, :], (net * phi_d)[:, None]) ** 2


def history_problems(label: str, header: list[str], data: np.ndarray, n_kicks: int, phi_d: float) -> list[str]:
    q_values = np.array([int(h[len("pop_q_"):]) for h in header[1:]])
    if data.shape[0] != 2 * n_kicks or not np.array_equal(data[:, 0], np.arange(1, 2 * n_kicks + 1)):
        return [f"{label}: expected kick rows 1..{2 * n_kicks}"]
    expected = resonant_populations(n_kicks, phi_d, q_values)
    worst = float(np.max(np.abs(data[:, 1:] - expected)))
    if not worst < POPULATION_TOL:
        return [f"{label}: populations differ from J_q(k phi)^2 by {worst:.3e}"]
    return []


# ------------------------------------------------------ dense ladder oracle


def _kick_matrix(phi_d: float, sign: int, sites: int) -> np.ndarray:
    """<q + d| exp(-i sign phi cos kappa x) |q> = (-i sign)^|d| J_|d|(phi)."""
    d = np.arange(sites)
    w = (sign * -1j) ** d * special.jv(d, phi_d)
    return linalg.toeplitz(w, w)


def oracle_return_amplitudes(n_kicks: int, phi_d: float, betas: np.ndarray, accel: float) -> np.ndarray:
    """c_0(beta) after the echo sequence at the resonance period.

    Dense kick matrices exp(-+ i phi cos kappa x) on a ladder wider than the
    engine's, and the exact free-flight action under acceleration with its
    q-independent a^2 term dropped (it cancels in |<c_0>|^2).
    """
    q_max = int(math.ceil(2.0 * n_kicks * phi_d + 30.0))
    qs = np.arange(-q_max, q_max + 1)
    sites = qs.size
    p = (qs[:, None] + np.asarray(betas)[None, :]) * HBAR * KAPPA
    t = TALBOT
    amps = np.zeros((sites, p.shape[1]), dtype=complex)
    amps[q_max, :] = 1.0
    kicks = {+1: _kick_matrix(phi_d, +1, sites), -1: _kick_matrix(phi_d, -1, sites)}
    flight = np.exp(-1j * p**2 * t / (2.0 * MASS * HBAR))
    for k in range(2 * n_kicks):
        amps = kicks[+1 if k < n_kicks else -1] @ amps
        t0, t1 = k * t, (k + 1) * t
        amps *= flight * np.exp(1j * 0.5 * p * accel * (t1**2 - t0**2) / HBAR)
    return amps[q_max, :]


def ensemble_grid(n_kicks: int, phi_d: float, sigma_x: float) -> tuple[np.ndarray, np.ndarray]:
    """Uniform quasimomentum grid fine enough for every scale of the integrand."""
    sigma_beta = 1.0 / (2.0 * sigma_x * KAPPA)
    step = min(sigma_beta, 1.0 / (4.0 * n_kicks**2 * phi_d), width_p0(n_kicks, phi_d)) / 12.0
    m = int(math.ceil(7.0 * sigma_beta / step))
    betas = np.arange(-m, m + 1) * step
    weights = np.exp(-0.5 * (betas / sigma_beta) ** 2)
    return betas, weights / weights.sum()


def oracle_ensemble_output(n_kicks: int, phi_d: float, sigma_x: float, accel: float) -> float:
    """Wavepacket return probability |sum_beta w(beta) c_0(beta)|^2."""
    betas, weights = ensemble_grid(n_kicks, phi_d, sigma_x)
    return float(abs(np.dot(weights, oracle_return_amplitudes(n_kicks, phi_d, betas, accel))) ** 2)


# ------------------------------------------------------------- fit check


def refit_exponent(x: np.ndarray, value: np.ndarray) -> float:
    return float(np.polyfit(np.log(x), np.log(value), 1)[0])


def fit_problems(label: str, reported: float, x: np.ndarray, value: np.ndarray) -> list[str]:
    problems = []
    refit = refit_exponent(x, value)
    if not abs(reported - refit) < 1e-9:
        problems.append(f"{label}: exponent {reported!r} differs from the refit {refit!r}")
    if not abs(reported - FIT_EXPONENT) < FIT_TOL:
        problems.append(f"{label}: exponent {reported:.4f} is not {FIT_EXPONENT} +- {FIT_TOL}")
    return problems


def tau_min_problems(label: str, header: list[str], data: np.ndarray) -> list[str]:
    col = {name: i for i, name in enumerate(header)}
    problems = []
    for row in data:
        n, gamma = row[col["n_pulses"]], row[col["gamma"]]
        tau_product = row[col["tau_min_s"]] * math.sqrt(gamma * n) * 1e6
        w_product = row[col["w_min_s"]] * gamma * n**2 * 1e6
        for name, got, want in (("tau_min*sqrt(gamma N)", tau_product, TAU_PRODUCT_US),
                                ("w_min*gamma N^2", w_product, W_PRODUCT_US)):
            if not abs(got / want - 1.0) < PRODUCT_TOL:
                problems.append(
                    f"{label}: gamma={gamma:g} N={n:g}: {name} = {got:.3f} us, "
                    f"expected {want} us within {PRODUCT_TOL:.0%}"
                )
    return problems


def peak_shift_problems(label: str, shifts: list[float]) -> list[str]:
    d1, d2 = shifts[0], shifts[1]
    if d1 == 0.0 or not abs(d2 - d1) / abs(d1) < PEAK_SHIFT_TOL:
        return [f"{label}: shifts {d1:.6g} s and {d2:.6g} s differ by more than {PEAK_SHIFT_TOL:.0%}"]
    return []


def bytes_problems(label: str, got: bytes, want: bytes) -> list[str]:
    if got != want:
        return [f"{label}: CSV re-run from the sidecar differs from the original"]
    return []


def wavepacket_problems(
    near: dict, n_far: int, w_far: float, w_wide_far: float, w_plane_far: float, w_closed_far: float
) -> list[str]:
    """Width ordering of the acceleration response (acceptance criterion 4).

    ``near`` maps a small kick number to (narrow-packet width, plane-wave
    width); the far kick number compares narrow, wide and plane-wave widths.
    """
    problems = []
    for n, (w_near, w_plane_near) in near.items():
        dev = w_near / w_plane_near - 1.0
        if not abs(dev) < WAVEPACKET_NEAR_TOL:
            problems.append(f"wavepacket N={n}: width deviates {dev:+.2%} from the plane wave")
    excess = w_far / w_closed_far - 1.0
    if not excess > WAVEPACKET_EXCESS:
        problems.append(f"wavepacket N={n_far}: excess {excess:+.2%} over the plane wave is not above {WAVEPACKET_EXCESS:.0%}")
    if not w_plane_far < w_wide_far < w_far:
        problems.append(
            f"wavepacket N={n_far}: wide-packet width {w_wide_far:.6g} not between the "
            f"plane-wave width {w_plane_far:.6g} and the narrow-packet width {w_far:.6g}"
        )
    return problems
