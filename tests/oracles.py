"""Independent references that check the finite-pulse engine.

No program path runs these; the tests compare the engine against them.

- apply_finite_pulse: one square pulse by adaptive symmetric (Strang)
  splitting on the momentum ladder, the sub-step count doubled until the
  state stops changing.  It cross-checks the exact tridiagonal
  eigendecomposition of kickecho.finite_pulse.pulse_propagator.
- splitstep_fiber / splitstep_output: the whole sequence of one fiber on
  a position grid, an independent discretization.
- delta_wavepacket_grid_output: a Gaussian wavepacket on a wide position
  grid, the cross-check of the fiber-quadrature Gaussian output at
  reduced sigma.
"""

from __future__ import annotations

import math

import numpy as np

from kickecho.errors import ConvergenceError, EngineError
from kickecho.finite_pulse import FinitePulseSpec, auto_q_max_finite
from kickecho.ladder import (
    LadderState,
    WavepacketSpec,
    _check_edges,
    _convolve_kick,
    auto_q_max,
    kick_kernel,
)
from kickecho.params import HBAR, PhysicalParams

# Adaptive-splitting contract: stop when the state changes by less than this
# under sub-step doubling; give up past MAX_SUBSTEPS.
SPLIT_TOL = 1e-9
MAX_SUBSTEPS = 2**16

# Position-grid oracle: time-step doubling tolerance (on the Richardson
# extrapolant of consecutive refinements), cap, and the norm/energy
# conservation gate.
ORACLE_STEP_TOL = 1e-9
ORACLE_MAX_STEPS = 2**18
ORACLE_DRIFT_TOL = 1e-8


class GridResolutionError(EngineError):
    """Position-grid propagation showed norm/energy drift above tolerance."""


def _strang_pulse(
    amps: np.ndarray,
    spec: FinitePulseSpec,
    beta: float,
    q_max: int,
    sign: int,
    params: PhysicalParams,
    n_sub: int,
) -> np.ndarray:
    """Symmetric splitting with n_sub sub-steps: (K/2) V (K V)^(n-1) (K/2),
    kinetic half-steps merged between consecutive sub-steps."""
    dt = spec.tau_p / n_sub
    qs = np.arange(-q_max, q_max + 1)
    rate = (qs + beta) ** 2 * (2.0 * math.pi / params.talbot_time)
    half_k = np.exp(-1j * rate * dt / 2.0)
    full_k = half_k * half_k
    kernel = kick_kernel(spec.v0 * dt / (2.0 * HBAR), sign)
    out = amps * half_k
    for step in range(n_sub):
        out = _convolve_kick(out, kernel)
        out = out * (half_k if step == n_sub - 1 else full_k)
    return out


def apply_finite_pulse(
    state: LadderState,
    spec: FinitePulseSpec,
    sign: int,
    params: PhysicalParams,
) -> LadderState:
    """One square pulse exp(-(i/hbar)(p^2/2m + sign*(V0/2)cos kappa x)*tau_p).

    Symmetric operator splitting, the sub-step count doubled until the
    output changes by less than SPLIT_TOL in norm-distance
    (ConvergenceError past MAX_SUBSTEPS); it agrees with the exact
    pulse_propagator to oracle accuracy.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if spec.tau_p == 0.0:
        return LadderState(state.beta, state.q_max, state.amps.copy())
    n_sub = 1
    out = _strang_pulse(state.amps, spec, state.beta, state.q_max, sign, params, n_sub)
    while True:
        if 2 * n_sub > MAX_SUBSTEPS:
            raise ConvergenceError(
                f"pulse splitting not converged to {SPLIT_TOL:g} within "
                f"{MAX_SUBSTEPS} sub-steps",
                achieved=dist,
            )
        finer = _strang_pulse(
            state.amps, spec, state.beta, state.q_max, sign, params, 2 * n_sub
        )
        dist = float(np.linalg.norm(finer - out))
        out = finer
        if dist < SPLIT_TOL:
            break
        n_sub *= 2
    _check_edges(out, state.q_max)
    return LadderState(state.beta, state.q_max, out)


# ---------------------------------------------------------------------------
# Position-grid split-step oracle (independent discretization).
# ---------------------------------------------------------------------------


def _pow2_at_least(need: float) -> int:
    n = 1
    while n < need:
        n *= 2
    return n


def _grid_energy(
    u: np.ndarray, cosg: np.ndarray, k_rate: np.ndarray, v0: float, sign: int
) -> float:
    """Mean energy/hbar of a grid state during a pulse (any normalization)."""
    w = float(np.sum(np.abs(u) ** 2))
    c2 = np.abs(np.fft.fft(u)) ** 2 / (u.size * w)
    kinetic = float(np.sum(c2 * k_rate))
    potential = sign * (v0 / (2.0 * HBAR)) * float(np.sum(np.abs(u) ** 2 * cosg)) / w
    return kinetic + potential


def _fft_pulse(
    u: np.ndarray, cosg: np.ndarray, k_rate: np.ndarray,
    v0: float, sign: int, tau_p: float, n_t: int,
) -> np.ndarray:
    """n_t symmetric split steps (V/2, K, V/2) of one pulse on a grid state."""
    dt = tau_p / n_t
    v_half = np.exp(-1j * sign * (v0 / (2.0 * HBAR)) * cosg * dt / 2.0)
    v_full = v_half * v_half
    k_full = np.exp(-1j * k_rate * dt)
    w = u * v_half
    for step in range(n_t):
        w = np.fft.ifft(np.fft.fft(w) * k_full)
        w = w * (v_half if step == n_t - 1 else v_full)
    return w


def _fft_pulse_converged(
    u: np.ndarray, cosg: np.ndarray, k_rate: np.ndarray,
    v0: float, sign: int, tau_p: float,
) -> np.ndarray:
    """One pulse with the split-step count doubled until the Richardson
    extrapolant of consecutive refinements is stationary to ORACLE_STEP_TOL,
    then checked for norm/energy drift.

    The symmetric splitting error is quadratic in the step size, so
    (4*u_{2n} - u_n)/3 cancels the leading term and the doubling loop
    terminates at far coarser stepping for the same accuracy.
    """
    if tau_p == 0.0:
        return u
    norm0 = float(np.sum(np.abs(u) ** 2))
    e0 = _grid_energy(u, cosg, k_rate, v0, sign)
    n_t = 8
    coarse = _fft_pulse(u, cosg, k_rate, v0, sign, tau_p, n_t)
    extrap = None
    while True:
        if 2 * n_t > ORACLE_MAX_STEPS:
            raise ConvergenceError(
                f"oracle time stepping not converged to {ORACLE_STEP_TOL:g} "
                f"within {ORACLE_MAX_STEPS} steps",
                achieved=dist,
            )
        fine = _fft_pulse(u, cosg, k_rate, v0, sign, tau_p, 2 * n_t)
        prev_extrap, extrap = extrap, (4.0 * fine - coarse) / 3.0
        if prev_extrap is None:
            dist = math.inf
        else:
            dist = float(np.linalg.norm(extrap - prev_extrap)) / math.sqrt(norm0)
            if dist < ORACLE_STEP_TOL:
                break
        coarse = fine
        n_t *= 2
    norm1 = float(np.sum(np.abs(extrap) ** 2))
    e1 = _grid_energy(extrap, cosg, k_rate, v0, sign)
    scale = max(abs(e0), v0 / HBAR)
    if (
        abs(norm1 - norm0) / norm0 > ORACLE_DRIFT_TOL
        or abs(e1 - e0) > ORACLE_DRIFT_TOL * scale
    ):
        raise GridResolutionError(
            f"norm/energy drift over one pulse exceeded {ORACLE_DRIFT_TOL:g} "
            f"(norm {abs(norm1 - norm0) / norm0:.3e}, "
            f"energy {abs(e1 - e0) / scale:.3e} relative)"
        )
    return extrap


def splitstep_fiber(
    spec: FinitePulseSpec,
    beta: float,
    params: PhysicalParams,
    n_x: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Position-grid split-step run of the full sequence on one fiber.

    One lattice period with Bloch phase beta: u(x) holds the periodic part,
    ladder amplitudes are its discrete Fourier coefficients, kinetic phases
    use k = (q+beta)*kappa.  Pulses are integrated by symmetric
    potential-kinetic-potential splitting with the step count doubled until
    the state stops changing; norm and energy conservation per pulse are
    enforced to ORACLE_DRIFT_TOL.

    Returns (q_values, final amplitudes); the output I is the squared
    magnitude at q = 0.
    """
    q_bound = auto_q_max_finite(spec, params, trains=2)
    if n_x is None:
        n_x = _pow2_at_least(4 * (q_bound + 8))
    if n_x < 2 * q_bound:
        raise GridResolutionError(
            f"{n_x} grid points cannot resolve momenta out to q = {q_bound}"
        )
    qs = np.fft.fftfreq(n_x, d=1.0 / n_x)  # integer ladder indices, FFT order
    cosx = np.cos(2.0 * math.pi * np.arange(n_x) / n_x)  # cos(kappa x_j)
    k_rate = (qs + beta) ** 2 * (2.0 * math.pi / params.talbot_time)

    # c_q = delta_{q,0}: position values u_j = 1, so sum|u|^2 = n_x.
    u = np.ones(n_x, dtype=np.complex128)
    free_phase = np.exp(-1j * k_rate * (spec.period - spec.tau_p))

    for sign in (+1, -1):
        for _ in range(spec.n_pulses):
            u = _fft_pulse_converged(u, cosx, k_rate, spec.v0, sign, spec.tau_p)
            u = np.fft.ifft(np.fft.fft(u) * free_phase)

    c = np.fft.fft(u) / n_x
    c = c / math.sqrt(float(np.sum(np.abs(c) ** 2)))
    order = np.argsort(qs)
    return qs[order].astype(int), c[order]


def splitstep_output(
    spec: FinitePulseSpec, params: PhysicalParams, beta: float = 0.0,
    n_x: int | None = None,
) -> float:
    """Oracle output I = |c_{q=0}|^2 from splitstep_fiber."""
    qs, c = splitstep_fiber(spec, beta, params, n_x)
    return float(np.abs(c[np.nonzero(qs == 0)[0][0]]) ** 2)


# ---------------------------------------------------------------------------
# Wide-grid wavepacket runs (secondary cross-check at reduced sigma).
# ---------------------------------------------------------------------------


def _wavepacket_grid(
    wavepacket: WavepacketSpec,
    params: PhysicalParams,
    q_bound: int,
    n_periods: int | None,
    points_per_period: int | None,
):
    """Common setup for wide-grid runs: a periodic box of whole lattice
    periods holding the Gaussian, the grating cosine on it, and the free
    kinetic phase rate of its momentum lattice.

    The box must both contain the Gaussian in position (12 sigma) and
    sample its momentum density finely (several k-points per sigma_beta);
    that makes wide grids impractical for large sigma, which is why the
    fiber-quadrature path is the primary Gaussian evaluator.
    """
    sb = wavepacket.sigma_beta(params)
    lattice_period = 2.0 * math.pi / params.kappa
    if n_periods is None:
        n_periods = _pow2_at_least(
            max(16.0, 6.0 / sb, 12.0 * wavepacket.sigma_x / lattice_period)
        )
    if points_per_period is None:
        points_per_period = _pow2_at_least(4 * (q_bound + 8))
    n = n_periods * points_per_period
    x = np.arange(n) * (lattice_period / points_per_period)
    psi = np.exp(-((x - x[n // 2]) ** 2) / (4.0 * wavepacket.sigma_x**2)).astype(
        np.complex128
    )
    psi /= np.linalg.norm(psi)
    kfrac = np.fft.fftfreq(n) * (n / n_periods)  # k/kappa, FFT order
    cosg = np.cos(params.kappa * x)
    k_rate = kfrac**2 * (2.0 * math.pi / params.talbot_time)
    return psi, cosg, k_rate


def delta_wavepacket_grid_output(
    n_kicks: int,
    phi_d: float,
    period: float,
    wavepacket: WavepacketSpec,
    params: PhysicalParams,
    n_periods: int | None = None,
    points_per_period: int | None = None,
) -> float:
    """Delta-kick sequence on a wide position grid, returning the overlap
    probability |<psi_0|psi_final>|^2 with the initial packet.

    When the packet momentum density fits inside |k| < kappa/2, each
    k-point of the box is the q = 0 rung of its own fiber and the overlap
    equals the squared coherent fiber average computed by
    gaussian_output.  Kicks and free flights are exact on the grid (no
    splitting error), making this an independent oracle at small sigma.
    """
    psi, cosg, k_rate = _wavepacket_grid(
        wavepacket, params, auto_q_max(n_kicks, phi_d), n_periods, points_per_period
    )
    psi0 = psi.copy()
    free = np.exp(-1j * k_rate * period)
    for sign in (+1, -1):
        kick = np.exp(-1j * sign * phi_d * cosg)
        for _ in range(n_kicks):
            psi = np.fft.ifft(np.fft.fft(psi * kick) * free)
    return float(np.abs(np.vdot(psi0, psi)) ** 2)
