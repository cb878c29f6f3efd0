"""Exact momentum-ladder evolution for standing-wave kick sequences.

A standing-wave pulse with grating vector kappa only couples plane waves that
differ by integer multiples of hbar*kappa, so an atom with initial momentum
p0 = beta*hbar*kappa stays on the discrete ladder p = (q + beta)*hbar*kappa.
Quasimomentum beta is conserved and each value evolves independently.

The two operations are:

* instantaneous kick exp(-i*sign*phi_d*cos(kappa x)), a convolution of the
  ladder amplitudes with Bessel-function weights (Jacobi-Anger expansion);
* free flight for time T, a diagonal phase exp(-i*2*pi*(T/T_T)*(q+beta)^2),
  generalized under constant acceleration to the exact action integral of
  the gauge-transformed kinetic energy (p - m*a*t)^2/(2m).

The interferometer sequence is N kicks of one sign followed by N kicks of the
opposite sign (a phase-reversed train), each kick followed by one free
flight.  Its figure of merit is the probability of returning to the initial
ladder site, output = |c_{q=0}|^2.

Echo folding.  At zero acceleration the reversed train follows from the
forward one.  The truncated kick matrix K+ is complex-symmetric Toeplitz
(w[d] = w[-d]), and the reversed kick is K- = P K+ P with
P = diag((-1)^q); the free flight F = diag(F_q) commutes with P.  With
c = (F K+)^n e_0 the forward state, transposing (F K+)^n = F (K+ F)^n F^-1
gives

    c_0(final) = e_0^T P (F K+)^n P c = F_0 * sum_q (-1)^q c_q^2 / F_q,

exactly on the truncated ladder, for any beta and period: the
time-reversal structure of the Loschmidt echo (Peres, Phys. Rev. A 30,
1610 (1984)), as in the finite-pulse engine.  At beta = 0 the state stays
even in q, so folded_return_amplitudes runs those columns on the even
sector q = 0 .. q_max.  Mirrored rows c_D .. c_1 ahead of c_0, D the
kernel half-width (at most q_max), keep the kick a plain convolution;
there the norm is |c_0|^2 + 2 sum_{q>=1} |c_q|^2.  scan-eps (beta = 0)
runs on the even sector and scan-p0 on the folded full ladder.
Accelerated columns, the Gaussian fiber averages (gaussian_output and the
acceleration curves), run_sequence and momentum_history keep both
trains: run_sequence is the independent reference, and the folded run
gates only the forward train, so it can pass where the reversed train
fails the edge gate.  That happens to the N = 40, phi_d = 0.5,
sigma_x = 100 um Gaussian echo, which exits 3 on two trains; its folded
65-node rule returns I = 0.0751.  The benchmark keeps that echo as an
operation that must exit 3, so the Gaussian path stays on two trains
until the fiber quadrature and that operation change together.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ConvergenceError, TruncationError
from .params import HBAR, PhysicalParams

# Edge monitoring: the outermost EDGE_BAND sites on each side of the ladder
# must stay below EDGE_TOL in population, otherwise the truncation is
# untrustworthy and a TruncationError is raised.
EDGE_BAND = 5
EDGE_TOL = 1e-12

# Kick kernel truncation: Bessel orders with |J_n(phi_d)| below this never
# enter the convolution.
KERNEL_TOL = 1e-16

NORM_TOL = 1e-10

# The batched engine runs its columns in blocks whose work arrays hold about
# this many entries (sites x columns): 368 columns at q_max = 44.  Each block
# goes through every kick before the next starts, so its arrays stay in
# cache.  On a 2-core Xeon with 2 MiB of L2 per core the benchmark's
# wavepacket operations took 2.9-3.0 s with 16k or 32k entries, 4.2-4.9 s
# with 64k and 6.1 s unblocked; 32k splits wide ladders into fewer blocks.
BLOCK_ENTRIES = 32768


@dataclass
class LadderState:
    """Amplitudes on the symmetric momentum ladder q = -q_max .. q_max.

    amps[i] is the amplitude on rung q = i - q_max; the physical momentum of
    that rung is (q + beta)*hbar*kappa.  States are treated as immutable:
    operations return new instances.
    """

    beta: float
    q_max: int
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        if self.amps.shape != (2 * self.q_max + 1,):
            raise ValueError(
                f"amps must have shape ({2 * self.q_max + 1},), got {self.amps.shape}"
            )

    @property
    def q_values(self) -> np.ndarray:
        return np.arange(-self.q_max, self.q_max + 1)

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def populations(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def amplitude(self, q: int) -> complex:
        return complex(self.amps[q + self.q_max])

    def population(self, q: int) -> float:
        return float(np.abs(self.amps[q + self.q_max]) ** 2)


def ground_state(beta: float, q_max: int) -> LadderState:
    """State fully on rung q = 0 of the beta fiber."""
    if q_max < EDGE_BAND + 1:
        raise ValueError(f"q_max must be at least {EDGE_BAND + 1}, got {q_max}")
    return basis_state(beta, q_max, 0)


def basis_state(beta: float, q_max: int, q: int) -> LadderState:
    """State fully on rung q."""
    if abs(q) > q_max:
        raise ValueError(f"|q| = {abs(q)} exceeds q_max = {q_max}")
    amps = np.zeros(2 * q_max + 1, dtype=np.complex128)
    amps[q + q_max] = 1.0
    return LadderState(beta=beta, q_max=q_max, amps=amps)


def auto_q_max(n_kicks: int, phi_d: float) -> int:
    """Ladder half-width for a train of n_kicks kicks of strength phi_d.

    At resonance the kicks compound ballistically, so the mid-sequence spread
    is that of a single kick of strength n_kicks*phi_d: support ~ n*phi_d
    plus a sub-exponential Airy-like tail.  The constant and cube-root
    margins keep the monitored edge band empty for all tested parameters,
    including slightly detuned periods where the spread exceeds the resonant
    estimate.
    """
    s = n_kicks * phi_d
    return int(math.ceil(s + 12.0 + 6.0 * s ** (1.0 / 3.0)))


def kick_kernel(phi_d: float, sign: int = +1) -> np.ndarray:
    """Convolution weights w[d] = (sign*(-i))**d * J_d(phi_d), d = -D .. D.

    Implements exp(-i*sign*phi_d*cos(kappa x)) on the ladder.  The returned
    array has odd length 2D+1 with the d = 0 term in the middle; orders with
    |J_d| < KERNEL_TOL are dropped.
    """
    if phi_d < 0.0:
        raise ValueError(f"phi_d must be >= 0, got {phi_d!r}")
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    d_max = max(4, int(math.ceil(phi_d + 12.0 + 8.0 * phi_d ** (1.0 / 3.0))))
    orders = np.arange(0, d_max + 1)
    j = special.jv(orders, phi_d)
    keep = np.nonzero(np.abs(j) >= KERNEL_TOL)[0]
    d_max = int(keep[-1]) if keep.size else 0
    d = np.arange(-d_max, d_max + 1)
    jd = special.jv(np.abs(d), phi_d) * np.where((d < 0) & (d % 2 != 0), -1.0, 1.0)
    return (sign * -1j) ** d * jd


def _convolve_kick(
    amps: np.ndarray,
    kernel: np.ndarray,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> np.ndarray:
    """Apply a kick kernel along axis 0 of a (sites,) or (sites, m) array.

    Amplitude pushed past the ladder ends is lost; the edge monitor is
    responsible for rejecting runs where that loss matters.  out receives
    the result and tmp is scratch; both must have the shape of amps and
    are allocated when not given, so no array is allocated per kernel
    order.
    """
    half = (len(kernel) - 1) // 2
    n = amps.shape[0]
    if out is None:
        out = np.zeros_like(amps)
    else:
        out.fill(0.0)
    if tmp is None:
        tmp = np.empty_like(amps)
    for d in range(-half, half + 1):
        lo, hi = max(0, d), min(n, n + d)
        if lo >= hi:  # kernel order shifts everything off this ladder
            continue
        out[lo:hi] += np.multiply(kernel[d + half], amps[lo - d : hi - d], out=tmp[lo:hi])
    return out


def _check_edges(amps: np.ndarray, q_max: int) -> None:
    """Edge gate on the outer EDGE_BAND rungs at both ends of the ladder."""
    lo = np.abs(amps[:EDGE_BAND]).max() ** 2
    hi = np.abs(amps[-EDGE_BAND:]).max() ** 2
    if not (lo <= EDGE_TOL and hi <= EDGE_TOL):
        _check_edge_population(float(np.maximum(lo, hi)), q_max)


def _check_edge_population(worst: float, q_max: int) -> None:
    """Raise TruncationError unless the worst edge-band rung population is
    within EDGE_TOL; written so that NaN fails the gate."""
    if not (worst <= EDGE_TOL):
        raise TruncationError(
            f"edge-band population {worst:.3e} exceeds {EDGE_TOL:.0e} on ladder "
            f"with q_max = {q_max}; rerun with a wider ladder"
        )


def _check_norm(state: LadderState, what: str) -> None:
    """Norm gate on a final state; written so that NaN fails it."""
    norm = state.norm()
    if not (abs(norm - 1.0) <= NORM_TOL):
        raise TruncationError(f"norm drifted to {norm!r} over the {what}; ladder too narrow")


def _check_norms(amps: np.ndarray, where: str) -> None:
    """Norm gate on every column of amps; written so that NaN fails it."""
    worst = float(np.max(np.abs(np.sum(np.abs(amps) ** 2, axis=0) - 1.0)))
    if not (worst <= NORM_TOL):
        raise TruncationError(f"norm drifted by {worst:.3e} {where}; ladder too narrow")


def apply_kick(state: LadderState, phi_d: float, sign: int = +1) -> LadderState:
    """One instantaneous kick exp(-i*sign*phi_d*cos(kappa x))."""
    out = _convolve_kick(state.amps, kick_kernel(phi_d, sign))
    _check_edges(out, state.q_max)
    return LadderState(beta=state.beta, q_max=state.q_max, amps=out)


def apply_free_evolution(state: LadderState, t: float, params: PhysicalParams) -> LadderState:
    """Free flight for time t: phase -2*pi*(t/T_T)*(q+beta)^2 per rung."""
    qb = state.q_values + state.beta
    phase = -2.0 * math.pi * (t / params.talbot_time) * qb**2
    return LadderState(state.beta, state.q_max, state.amps * np.exp(1j * phase))


def apply_free_evolution_accelerated(
    state: LadderState,
    t: float,
    params: PhysicalParams,
    accel: float,
    t_start: float,
) -> LadderState:
    """Free flight under constant acceleration, gauge-transformed frame.

    Multiplies each rung by exp(-(i/hbar) * integral of
    ((q+beta)*hbar*kappa - m*a*t')^2 / (2m) over t' in [t_start, t_start+t]).
    The q-independent a^2 term is kept so amplitude phases are exact.
    """
    phase = _accelerated_phase(state.q_values, state.beta, t, params, accel, t_start)
    return LadderState(state.beta, state.q_max, state.amps * phase)


def _accelerated_phase(
    qs: np.ndarray,
    beta: float,
    t: float,
    params: PhysicalParams,
    accel: float,
    t_start: float,
) -> np.ndarray:
    """exp(-(i/hbar) * action) per rung for free flight over [t_start, t_start+t]."""
    m = params.mass
    p = (qs + beta) * HBAR * params.kappa
    t0, t1 = t_start, t_start + t
    action = (
        p**2 * t / (2.0 * m)
        - 0.5 * p * accel * (t1**2 - t0**2)
        + (m * accel**2 / 6.0) * (t1**3 - t0**3)
    )
    return np.exp(-1j * action / HBAR)


@dataclass(frozen=True)
class SequenceSpec:
    """One interferometer sequence: n_kicks kicks of strength phi_d and sign
    +1, then n_kicks kicks of sign -1, each followed by a free flight of one
    period.  accel is a constant acceleration along the grating."""

    n_kicks: int
    phi_d: float
    period: float
    accel: float = 0.0

    def __post_init__(self):
        if self.n_kicks < 1 or int(self.n_kicks) != self.n_kicks:
            raise ValueError(f"n_kicks must be a positive integer, got {self.n_kicks!r}")
        if not (0.0 <= self.phi_d < math.inf):
            raise ValueError(f"phi_d must be finite and >= 0, got {self.phi_d!r}")
        if not (0.0 < self.period < math.inf):
            raise ValueError(f"period must be finite and positive, got {self.period!r}")
        if not math.isfinite(self.accel):
            raise ValueError(f"accel must be finite, got {self.accel!r}")

    def detuning(self, params: PhysicalParams) -> float:
        return self.period - params.talbot_time


def at_resonance(
    n_kicks: int,
    phi_d: float,
    params: PhysicalParams,
    detuning: float = 0.0,
    accel: float = 0.0,
) -> SequenceSpec:
    """SequenceSpec with period = talbot_time + detuning."""
    return SequenceSpec(n_kicks, phi_d, params.talbot_time + detuning, accel)


def run_train(
    state: LadderState,
    n_kicks: int,
    phi_d: float,
    sign: int,
    period: float,
    params: PhysicalParams,
    accel: float = 0.0,
    t_offset: float = 0.0,
    record: list | None = None,
) -> LadderState:
    """Apply n_kicks periods of (kick, free flight) with the given kick sign.

    t_offset is the absolute time at which this train starts (relevant only
    under acceleration).  If record is a list, the population array after
    every kick is appended to it.
    """
    kernel = kick_kernel(phi_d, sign)
    for n in range(n_kicks):
        out = _convolve_kick(state.amps, kernel)
        _check_edges(out, state.q_max)
        state = LadderState(state.beta, state.q_max, out)
        if record is not None:
            record.append(state.populations())
        if accel == 0.0:
            state = apply_free_evolution(state, period, params)
        else:
            state = apply_free_evolution_accelerated(
                state, period, params, accel, t_offset + n * period
            )
    return state


def run_sequence(
    seq: SequenceSpec,
    beta: float,
    params: PhysicalParams,
    q_max: int | None = None,
) -> tuple[LadderState, float]:
    """Run a full sequence from the q = 0 rung of the beta fiber.

    Returns (final state, output) where output = |c_{q=0}|^2 is the
    probability of having returned to the initial momentum.
    """
    state = _run_both_trains(seq, beta, params, q_max)
    _check_norm(state, "sequence")
    return state, state.population(0)


def momentum_history(
    seq: SequenceSpec,
    beta: float,
    params: PhysicalParams,
    q_max: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Populations |c_q|^2 after each of the 2*n_kicks kicks.

    Returns (q_values, history) with history.shape = (2*n_kicks, sites).
    """
    record: list[np.ndarray] = []
    state = _run_both_trains(seq, beta, params, q_max, record)
    return state.q_values, np.array(record)


def _run_both_trains(
    seq: SequenceSpec,
    beta: float,
    params: PhysicalParams,
    q_max: int | None,
    record: list | None = None,
) -> LadderState:
    """The kick train of sign +1, then of sign -1, from the q = 0 rung."""
    if q_max is None:
        q_max = auto_q_max(seq.n_kicks, seq.phi_d)
    state = ground_state(beta, q_max)
    for sign, t_offset in ((+1, 0.0), (-1, seq.n_kicks * seq.period)):
        state = run_train(
            state, seq.n_kicks, seq.phi_d, sign, seq.period, params,
            seq.accel, t_offset, record,
        )
    return state


def train_matrix(
    n_kicks: int,
    phi_d: float,
    period: float,
    beta: float,
    params: PhysicalParams,
    sign: int = +1,
    accel: float = 0.0,
    t_offset: float = 0.0,
    q_max: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Full matrix of one train on the truncated ladder.

    Returns (q_values, U) where U[:, j] is the train applied to the basis
    state on rung q_values[j].  Used to read transition amplitudes
    <q'|train|q> without re-running per column.
    """
    if q_max is None:
        q_max = auto_q_max(n_kicks, phi_d) + EDGE_BAND
    qs = np.arange(-q_max, q_max + 1)
    u = np.eye(2 * q_max + 1, dtype=np.complex128)
    kernel = kick_kernel(phi_d, sign)
    for n in range(n_kicks):
        u = _convolve_kick(u, kernel)
        u *= _accelerated_phase(qs, beta, period, params, accel, t_offset + n * period)[:, None]
    return qs, u


def _flat_columns(what: str, periods, *rest) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """Broadcast the per-column inputs of a delta-kick engine and flatten
    them; returns (broadcast shape, flat arrays).  Non-finite values and
    non-positive periods raise ValueError."""
    arrays = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(a, dtype=float)) for a in (periods, *rest))
    )
    flat = [a.ravel() for a in arrays]
    if not all(np.isfinite(a).all() for a in flat):
        raise ValueError(f"{what} must all be finite")
    if np.any(flat[0] <= 0.0):
        raise ValueError("all periods must be positive")
    return arrays[0].shape, flat


def batched_return_amplitudes(
    n_kicks: int,
    phi_d: float,
    periods,
    betas,
    accels,
    params: PhysicalParams,
    q_max: int | None = None,
) -> np.ndarray:
    """Vectorized return amplitudes over broadcast (periods, betas, accels).

    Returns c_{q=0} of the final state with the broadcast shape of the
    inputs.  Physics is identical to run_sequence except that the
    (q, beta)-independent global phase from the a^2 term of the
    accelerated action is omitted; it is common to every fiber of a case
    with the same (period, accel), so populations and coherent
    fiber averages at fixed acceleration are unaffected.

    The columns run in blocks of about BLOCK_ENTRIES / sites columns, each
    block through all 2*n_kicks kicks before the next.  Every column goes
    through the same floating-point operations in the same order whatever
    block it lands in, so a column's amplitude is bit-identical however
    the columns are batched, ordered or split across workers.  The edge
    gate runs after every kick and the norm gate at the end of every
    block; a column failing either raises TruncationError, which reports
    the worst value within the failing block.  Non-finite inputs raise
    ValueError.
    """
    shape, (t, bet, acc) = _flat_columns(
        "periods, betas and accels", periods, betas, accels
    )
    if q_max is None:
        q_max = auto_q_max(n_kicks, phi_d)
    qs = np.arange(-q_max, q_max + 1)
    kernels = (kick_kernel(phi_d, +1), kick_kernel(phi_d, -1))
    width = max(1, BLOCK_ENTRIES // qs.size)
    out = np.empty(t.size, dtype=np.complex128)
    for lo in range(0, t.size, width):
        block = slice(lo, lo + width)
        out[block] = _run_block(n_kicks, kernels, t[block], bet[block], acc[block], qs, params)
    return out.reshape(shape)


def _run_block(
    n_kicks: int,
    kernels: tuple[np.ndarray, np.ndarray],
    t: np.ndarray,
    bet: np.ndarray,
    acc: np.ndarray,
    qs: np.ndarray,
    params: PhysicalParams,
) -> np.ndarray:
    """Return amplitudes of one block of columns of batched_return_amplitudes."""
    q_max = (qs.size - 1) // 2
    qb = qs[:, None] + bet[None, :]

    amps = np.zeros((qs.size, t.size), dtype=np.complex128)
    amps[q_max, :] = 1.0
    out = np.empty_like(amps)
    tmp = np.empty_like(amps)

    # Per-period quadratic phase, fixed per case; linear-in-(q+beta) phase
    # advances by a constant factor each interval (arithmetic progression in
    # the interval index), so it is carried as a running multiplier.
    quad = np.exp(-2j * math.pi * (t / params.talbot_time)[None, :] * qb**2)
    b_lin = 0.5 * params.kappa * acc * t**2
    step = np.exp(1j * b_lin[None, :] * qb)
    interval_phase = quad * step  # interval n = 1 uses coefficient (2n-1) = 1
    step_sq = step * step

    for k in range(2 * n_kicks):
        _convolve_kick(amps, kernels[k >= n_kicks], out, tmp)
        amps, out = out, amps
        _check_edges(amps, q_max)
        amps *= interval_phase
        interval_phase *= step_sq

    _check_norms(amps, "over the batched sequence")
    return amps[q_max, :]


def folded_return_amplitudes(
    n_kicks: int,
    phi_d: float,
    periods,
    betas,
    params: PhysicalParams,
    q_max: int | None = None,
) -> np.ndarray:
    """Zero-acceleration return amplitudes from the forward train alone.

    Returns c_{q=0} of the full echo with the broadcast shape of (periods,
    betas), folded from the state c after the n_kicks forward periods:
    c_0 = F_0 * sum_q (-1)^q c_q^2 / F_q, F the free-flight phases of the
    column (module docstring).  Columns with beta = 0 run on the even
    sector q = 0 .. q_max.  The amplitudes agree with
    batched_return_amplitudes and run_sequence to rounding.

    As in batched_return_amplitudes, columns run in blocks of about
    BLOCK_ENTRIES sites x columns, and a column's amplitude is
    bit-identical however the columns are batched, ordered or split: the
    sum over sites is a fixed-order loop over rows.  The edge gate runs
    after every kick and the norm gate on the forward state of every
    block.  Non-finite inputs raise ValueError.
    """
    shape, (t, bet) = _flat_columns("periods and betas", periods, betas)
    if q_max is None:
        q_max = auto_q_max(n_kicks, phi_d)
    kernel = kick_kernel(phi_d, +1)
    # The even sector holds min(D, q_max) mirrored rows c_D .. c_1 ahead of
    # c_0 .. c_q_max, D the kernel half-width: every row below q = 0 that
    # the kick reads.
    lead = min((len(kernel) - 1) // 2, q_max)
    out = np.empty(t.size, dtype=np.complex128)
    for even in (True, False):
        cols = np.nonzero((bet == 0.0) == even)[0]
        qs = np.arange(-lead if even else -q_max, q_max + 1)
        width = max(1, BLOCK_ENTRIES // qs.size)
        for lo in range(0, cols.size, width):
            block = cols[lo : lo + width]
            out[block] = _fold_block(n_kicks, kernel, t[block], bet[block], qs, even, params)
    return out.reshape(shape)


def _fold_block(
    n_kicks: int,
    kernel: np.ndarray,
    t: np.ndarray,
    bet: np.ndarray,
    qs: np.ndarray,
    even: bool,
    params: PhysicalParams,
) -> np.ndarray:
    """Folded return amplitudes of one block of columns of
    folded_return_amplitudes; rows qs, from -lead on the even sector."""
    q_max = int(qs[-1])
    i0 = -int(qs[0])
    free = np.exp(
        -2j * math.pi * (t / params.talbot_time)[None, :] * (qs[:, None] + bet[None, :]) ** 2
    )
    amps = np.zeros((qs.size, t.size), dtype=np.complex128)
    amps[i0, :] = 1.0
    out = np.empty_like(amps)
    tmp = np.empty_like(amps)
    for _ in range(n_kicks):
        _convolve_kick(amps, kernel, out, tmp)
        amps, out = out, amps
        if even:
            amps[:i0] = amps[2 * i0 : i0 : -1]
            _check_edge_population(float(np.abs(amps[-EDGE_BAND:]).max() ** 2), q_max)
        else:
            _check_edges(amps, q_max)
        amps *= free

    # Row weights of the fold: the parity (-1)^q, doubled on an even-sector
    # row q >= 1, which stands for the rungs +q and -q.
    first = i0 if even else 0
    weight = np.where(qs[first:] % 2 == 0, 1.0, -1.0)
    if even:
        weight[1:] *= 2.0
    _check_norms(amps[first:] * np.sqrt(np.abs(weight))[:, None], "over the forward train")
    terms = amps[first:] ** 2
    terms /= free[first:]
    terms *= weight[:, None]
    # A fixed-order sum: np.sum switches to pairwise summation on a
    # one-column block, which would make the bits depend on the batching.
    total = terms[0].copy()
    for row in terms[1:]:
        total += row
    return free[i0] * total


@dataclass(frozen=True)
class WavepacketSpec:
    """Gaussian initial wavepacket with rms position width sigma_x (m).

    Minimum-uncertainty: the momentum density is Gaussian with rms width
    sigma_p = hbar/(2*sigma_x), i.e. sigma_beta = 1/(2*sigma_x*kappa) in
    ladder units.
    """

    sigma_x: float

    def __post_init__(self):
        if not (self.sigma_x > 0.0):
            raise ValueError(f"sigma_x must be positive, got {self.sigma_x!r}")

    def sigma_beta(self, params: PhysicalParams) -> float:
        return 1.0 / (2.0 * self.sigma_x * params.kappa)


def gaussian_beta_nodes(
    wavepacket: WavepacketSpec, params: PhysicalParams, n_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite quadrature rule for averaging over the beta fibers.

    Returns (betas, weights) such that sum(weights * f(betas)) approximates
    the Gaussian-weighted average of f; weights sum to 1.
    """
    x, w = special.roots_hermite(n_nodes)
    sb = wavepacket.sigma_beta(params)
    return math.sqrt(2.0) * sb * x, w / math.sqrt(math.pi)


def gaussian_output(
    seq: SequenceSpec,
    wavepacket: WavepacketSpec,
    params: PhysicalParams,
    tol: float = 1e-4,
    max_nodes: int = 4097,
    q_max: int | None = None,
) -> float:
    """Return probability of a Gaussian wavepacket through the sequence.

    The wavepacket is decomposed into quasimomentum fibers; each fiber
    starts on its q = 0 rung and is run through the sequence
    independently (Bloch decomposition).  The output is the squared
    coherent average of the fiber return amplitudes,
    I = |integral dbeta w(beta) c_0(beta)|^2, the overlap probability
    between the final and initial wavepackets.  Gauss-Hermite quadrature
    over the momentum density; the node count is doubled until the
    result changes by less than tol (relative), starting from 33 nodes.
    """
    return _fiber_average(
        lambda betas: batched_return_amplitudes(
            seq.n_kicks, seq.phi_d, seq.period, betas, seq.accel, params, q_max
        ),
        wavepacket,
        params,
        tol,
        max_nodes,
    )


def _fiber_average(
    amplitudes: Callable[[np.ndarray], np.ndarray],
    wavepacket: WavepacketSpec,
    params: PhysicalParams,
    tol: float,
    max_nodes: int,
) -> float:
    """|sum_j w_j c_0(beta_j)|^2 over Gauss-Hermite nodes of the wavepacket.

    amplitudes maps the node betas to the fiber return amplitudes.  The
    node count starts at 33 and is doubled (2n - 1, so the count stays
    odd) until the result changes by less than tol (relative), so a cap
    below 65 nodes could never converge and raises ValueError.
    """
    if max_nodes < 65:
        raise ValueError(f"max_nodes must be at least 65, got {max_nodes!r}")
    prev = None
    n = 33
    while n <= max_nodes:
        betas, weights = gaussian_beta_nodes(wavepacket, params, n)
        val = float(np.abs(np.dot(weights, amplitudes(betas))) ** 2)
        if prev is not None and abs(val - prev) <= tol * max(abs(val), 1e-12):
            return val
        prev = val
        n = 2 * n - 1
    raise ConvergenceError(
        f"fiber quadrature did not converge to {tol:g} within {max_nodes} nodes",
        achieved=abs(val - prev) / max(abs(val), 1e-12),
    )
