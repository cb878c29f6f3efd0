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
runs on the even sector, and a p0 scan away from the resonance period
on the folded full ladder.  Accelerated columns away from the resonance
period, the detuned plane-wave echo and gaussian_output run both
trains, and momentum_history records every kick of both.  Plane-wave columns at exactly the resonance period need no
ladder (below).  The folded run gates only the forward train, so it can
pass where the reversed train fails the edge gate.  That happens to the
N = 40, phi_d = 0.5, sigma_x = 100 um Gaussian echo, which exits 3 on
two trains; its folded 65-node rule returns I = 0.0751.  The benchmark
keeps that echo as an operation that must exit 3, so the Gaussian path
stays on two trains until the fiber quadrature and that operation
change together.

Resonant fibers.  At the period T = T_T the flight of period n is
linear in the rung, F_n(q) = F_n(0) r_n^q with |r_n| = 1, a translation
in position.  The 2N kicks exp(-i s_n phi_d cos theta) then commute into
one of strength phi_d |S|, S = sum_n s_n r_1 ... r_{n-1}, so

    c_0 = (prod_n F_n(0)) * J_0(phi_d |S|),

exact on the infinite ladder for any beta and acceleration (Fishman,
Guarneri and Rebuzzini, Phys. Rev. Lett. 89, 084101 (2002)).
resonant_return_amplitudes evaluates it for every plane-wave column at
exactly T_T: p0 and accel scans at any acceleration (scans._outputs, so
CLI scan-p0 and plane-wave scan-accel), the plane-wave echo with
eps_ns = 0 and period_multiple = 1 (cli._run_echo), and the fibers of
the Gaussian acceleration curves (scans.gaussian_accel_curve).  It is
also the more accurate: on the 161 samples of the default p0 window at
N = 150, phi_d = 0.6, its outputs are off a 40-digit evaluation by at
most 1.1e-11, the folded ladder's by 2.4e-10.  Two resonant paths keep
the ladder.  momentum_history records every rung after every kick; the
same populations as a table of J_q(phi_d |S_k|)^2 took 0.42 s against
the ladder's 0.045 s at N = 100, phi_d = 2.04.  gaussian_output stays on
two trains for the benchmark echo named above.

Engine and reference.  batched_return_amplitudes, folded_return_amplitudes,
momentum_history and train_matrix all run one loop, _kick_columns: each
period kicks a block of columns into preallocated buffers, calls a
per-kick hook (the edge gate, the even-sector mirror, a population
record, or nothing), then applies the free-flight phase, carried under
acceleration as a running multiplier without the global a^2 phase.
run_sequence is the independent reference: apply_kick and one free
flight per period, with the exact accelerated action.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

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
    return basis_state(beta, _check_q_max(q_max), 0)


def _check_q_max(q_max: int) -> int:
    """q_max if it is an integer of at least EDGE_BAND + 1, else ValueError:
    a narrower ladder has no room for an edge band beside q = 0."""
    if not (isinstance(q_max, numbers.Integral) and q_max >= EDGE_BAND + 1):
        raise ValueError(f"q_max must be an integer >= {EDGE_BAND + 1}, got {q_max!r}")
    return q_max


def _check_n_kicks(n_kicks: int) -> int:
    """n_kicks if it is a positive integer (not a bool), else ValueError:
    an empty train would return c_0 = 1 without running anything."""
    if isinstance(n_kicks, bool) or not (
        isinstance(n_kicks, numbers.Integral) and n_kicks >= 1
    ):
        raise ValueError(f"n_kicks must be a positive integer, got {n_kicks!r}")
    return n_kicks


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
    if not (0.0 <= phi_d < math.inf):
        raise ValueError(f"phi_d must be finite and >= 0, got {phi_d!r}")
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


def run_sequence(
    seq: SequenceSpec,
    beta: float,
    params: PhysicalParams,
    q_max: int | None = None,
) -> tuple[LadderState, float]:
    """Run a full sequence from the q = 0 rung of the beta fiber.

    Returns (final state, output) where output = |c_{q=0}|^2 is the
    probability of having returned to the initial momentum.  This is the
    plain reference for the engine below: one apply_kick and one free
    flight per period, with the exact accelerated action.  Unless q_max
    is given, the ladder is sized for all 2*n_kicks kicks: the reference
    does not assume that the reversed train walks the state back, which
    fails off beta = 0, off resonance and under acceleration (at
    resonance |S_k| of the closed form can exceed n_kicks).
    """
    state = ground_state(beta, auto_q_max(2 * seq.n_kicks, seq.phi_d) if q_max is None else q_max)
    for sign, t_offset in ((+1, 0.0), (-1, seq.n_kicks * seq.period)):
        for n in range(seq.n_kicks):
            state = apply_kick(state, seq.phi_d, sign)
            if seq.accel == 0.0:
                state = apply_free_evolution(state, seq.period, params)
            else:
                state = apply_free_evolution_accelerated(
                    state, seq.period, params, seq.accel, t_offset + n * seq.period
                )
    _check_norms(state.amps, "over the sequence")
    return state, state.population(0)


def _kick_columns(amps: np.ndarray, kernels, phase: np.ndarray, step=None, hook=None) -> np.ndarray:
    """The delta-kick engine's loop: one period per kernel on a block of
    columns amps (sites, m), which it overwrites.

    Each period kicks the block, calls hook on the kicked block (a gate, a
    mirror or a record), then multiplies it by the free-flight phase.
    With step given, phase is multiplied by step after every period (a
    running multiplier, overwritten); otherwise it is the same in every
    period.  Returns the final amplitudes.
    """
    out = np.empty_like(amps)
    tmp = np.empty_like(amps)
    for kernel in kernels:
        _convolve_kick(amps, kernel, out, tmp)
        amps, out = out, amps
        if hook is not None:
            hook(amps)
        amps *= phase
        if step is not None:
            phase *= step
    return amps


def _free_phase(qs, t, bet, params: PhysicalParams) -> np.ndarray:
    """Zero-acceleration free-flight phase exp(-2 pi i (t/T_T) (q + beta)^2)
    of rungs qs (rows) for periods t and quasimomenta bet (columns)."""
    return np.exp(
        -2j * math.pi * (t / params.talbot_time)[None, :] * (qs[:, None] + bet[None, :]) ** 2
    )


def _accelerated_flight(qs, t, bet, acc, params: PhysicalParams, t_start: float = 0.0):
    """(phase, step) of _kick_columns for columns (t, bet, acc) of a train
    that starts at time t_start.

    Period n = 1, 2, ... multiplies by quad * half^(2n - 1 + 2 t_start/t),
    quad the zero-acceleration phase and
    half = exp(i kappa a t^2 (q + beta) / 2): the linear-in-(q+beta) term
    of the accelerated action grows arithmetically in n, so the engine
    carries it as a running multiplier with step = half^2.  The
    (q, beta)-independent a^2 term is dropped: it is common to every fiber
    with the same (period, accel).
    """
    t, bet, acc = np.atleast_1d(t, bet, acc)
    qb = qs[:, None] + bet[None, :]
    half = np.exp(1j * (0.5 * params.kappa * acc * t**2)[None, :] * qb)
    phase = _free_phase(qs, t, bet, params) * half
    if t_start:
        phase *= np.exp(1j * (params.kappa * acc * t * t_start)[None, :] * qb)
    return phase, half * half


def _column_blocks(cols: np.ndarray, sites: int):
    """cols in runs of about BLOCK_ENTRIES / sites columns."""
    width = max(1, BLOCK_ENTRIES // sites)
    return (cols[lo : lo + width] for lo in range(0, cols.size, width))


def momentum_history(
    seq: SequenceSpec,
    beta: float,
    params: PhysicalParams,
    q_max: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Populations |c_q|^2 after each of the 2*n_kicks kicks.

    Returns (q_values, history) with history.shape = (2*n_kicks, sites).
    One column of the engine, gated as in batched_return_amplitudes.
    """
    start = ground_state(beta, auto_q_max(seq.n_kicks, seq.phi_d) if q_max is None else q_max)
    q_max, qs = start.q_max, start.q_values
    history = []

    def record(amps):
        _check_edges(amps, q_max)
        history.append(np.abs(amps[:, 0]) ** 2)

    kernels = (kick_kernel(seq.phi_d, +1),) * seq.n_kicks
    kernels += (kick_kernel(seq.phi_d, -1),) * seq.n_kicks
    flight = _accelerated_flight(qs, seq.period, beta, seq.accel, params)
    amps = _kick_columns(start.amps[:, None], kernels, *flight, record)
    _check_norms(amps, "over the sequence")
    return qs, np.array(history)


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
    state on rung q_values[j], without the a^2 action phase (as in
    batched_return_amplitudes).  Used to read transition amplitudes
    <q'|train|q> without re-running per column.  No gate runs.
    """
    q_max = auto_q_max(n_kicks, phi_d) + EDGE_BAND if q_max is None else _check_q_max(q_max)
    qs = np.arange(-q_max, q_max + 1)
    flight = _accelerated_flight(qs, period, beta, accel, params, t_offset)
    u = np.eye(qs.size, dtype=np.complex128)
    return qs, _kick_columns(u, (kick_kernel(phi_d, sign),) * n_kicks, *flight)


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
    the worst value within the failing block.  Non-finite inputs, and an
    n_kicks that is not a positive integer, raise ValueError.
    """
    shape, (t, bet, acc) = _flat_columns(
        "periods, betas and accels", periods, betas, accels
    )
    n_kicks = _check_n_kicks(n_kicks)
    q_max = auto_q_max(n_kicks, phi_d) if q_max is None else _check_q_max(q_max)
    qs = np.arange(-q_max, q_max + 1)
    kernels = (kick_kernel(phi_d, +1),) * n_kicks + (kick_kernel(phi_d, -1),) * n_kicks
    gate = partial(_check_edges, q_max=q_max)
    out = np.empty(t.size, dtype=np.complex128)
    for block in _column_blocks(np.arange(t.size), qs.size):
        amps = np.zeros((qs.size, block.size), dtype=np.complex128)
        amps[q_max] = 1.0
        flight = _accelerated_flight(qs, t[block], bet[block], acc[block], params)
        amps = _kick_columns(amps, kernels, *flight, gate)
        _check_norms(amps, "over the batched sequence")
        out[block] = amps[q_max]
    return out.reshape(shape)


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
    block.  Non-finite inputs, and an n_kicks that is not a positive
    integer, raise ValueError.
    """
    shape, (t, bet) = _flat_columns("periods and betas", periods, betas)
    n_kicks = _check_n_kicks(n_kicks)
    q_max = auto_q_max(n_kicks, phi_d) if q_max is None else _check_q_max(q_max)
    kernel = kick_kernel(phi_d, +1)
    # The even sector holds min(D, q_max) mirrored rows c_D .. c_1 ahead of
    # c_0 .. c_q_max, D the kernel half-width: every row below q = 0 that
    # the kick reads.
    lead = min((len(kernel) - 1) // 2, q_max)
    out = np.empty(t.size, dtype=np.complex128)
    for even in (True, False):
        cols = np.nonzero((bet == 0.0) == even)[0]
        qs = np.arange(-lead if even else -q_max, q_max + 1)
        for block in _column_blocks(cols, qs.size):
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
    free = _free_phase(qs, t, bet, params)

    def mirror_and_gate(amps):  # even sector: refill rows c_D .. c_1, gate the top band
        amps[:i0] = amps[2 * i0 : i0 : -1]
        _check_edge_population(float(np.abs(amps[-EDGE_BAND:]).max() ** 2), q_max)

    amps = np.zeros((qs.size, t.size), dtype=np.complex128)
    amps[i0, :] = 1.0
    hook = mirror_and_gate if even else partial(_check_edges, q_max=q_max)
    amps = _kick_columns(amps, (kernel,) * n_kicks, free, hook=hook)

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


def resonant_return_amplitudes(
    n_kicks: int,
    phi_d: float,
    betas,
    accels,
    params: PhysicalParams,
) -> np.ndarray:
    """Echo return amplitudes c_{q=0} at the resonance period T_T, in
    closed form (module docstring), with the broadcast shape of (betas,
    accels) and the phase convention of batched_return_amplitudes (the
    a^2 action term dropped).  Exact on the infinite ladder, so no ladder
    or gate is involved.  Non-finite inputs, and an n_kicks that is not
    a positive integer, raise ValueError.
    """
    shape, (t, bet, acc) = _flat_columns(
        "betas and accels", params.talbot_time, betas, accels
    )
    n_kicks = _check_n_kicks(n_kicks)
    if not (0.0 <= phi_d < math.inf):
        raise ValueError(f"phi_d must be finite and >= 0, got {phi_d!r}")
    # The engine's own flight on rungs q = 0, 1: their ratio is r_n.
    phase, step = _accelerated_flight(np.arange(2), t, bet, acc, params)
    total = np.zeros(t.size, dtype=np.complex128)
    shift = np.ones(t.size, dtype=np.complex128)
    common = np.ones(t.size, dtype=np.complex128)
    for sign in (+1.0,) * n_kicks + (-1.0,) * n_kicks:
        total += sign * shift
        shift *= phase[1] / phase[0]
        common *= phase[0]
        phase *= step
    return (common * special.j0(phi_d * np.abs(total))).reshape(shape)


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
