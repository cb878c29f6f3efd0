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
forward one.  The basis c'_q = i^q c_q leaves c_0, the populations and
the free flight F = diag(F_q) unchanged, and makes the kick real: the
weight (sign*(-i))^d J_d(phi_d) of order d becomes J_{sign*d}(phi_d), so
the truncated kick matrix K+ is the real Toeplitz matrix J_{q-q'}(phi_d)
and the reversed kick is its transpose.  With c' = (F K+)^n e_0 the
forward state, (F K+^T)^n is the transpose of (K+ F)^n = F^-1 (F K+)^n F,
which gives

    c_0(final) = e_0^T (F K+^T)^n c' = F_0 * sum_q c'_q^2 / F_q,

exactly on the truncated ladder, for any beta and period: the
time-reversal structure of the Loschmidt echo (Peres, Phys. Rev. A 30,
1610 (1984)), as in the finite-pulse engine.  At beta = 0 the state stays
even in q, c'_-q = (-1)^q c'_q, so folded_return_amplitudes runs those
columns on the even sector q = 0 .. q_max.  Mirrored rows c'_-D .. c'_-1
ahead of c'_0, D the kernel half-width (at most q_max), keep the kick a
plain banded product; there every row q >= 1 counts twice, in the fold
and in the norm |c_0|^2 + 2 sum_{q>=1} |c_q|^2.

Engine choice.  return_amplitudes picks the engine for every plane-wave
column of the scans and the echo: the closed form (below) when every
period is exactly T_T, else the fold when every acceleration is zero,
else both trains.  momentum_history records every kick of both trains.
The fold gates only the forward train, so it can pass where the
reversed train fails the edge gate, as the detuned echo at N = 100,
phi_d = 0.5, eps = 2 ns did on two trains (1.019e-12).  So does the
N = 40, phi_d = 0.5, sigma_x = 100 um Gaussian echo, which exits 3 on
two trains; its folded 65-node rule returns I = 0.0751.  The benchmark
keeps that echo as an operation that must exit 3, so gaussian_output
stays on two trains until the fiber quadrature and that operation
change together.  It uses parity across fibers instead: at zero
acceleration c_0(beta) = c_0(-beta) on the truncated ladder, so
_fiber_average, the one convergence loop of every wavepacket average,
runs only the Gauss-Hermite nodes with beta >= 0 and mirrors them.

Resonant fibers.  At the period T = T_T the flight of period n is
linear in the rung, F_n(q) = F_n(0) r_n^q with |r_n| = 1, a translation
in position.  The 2N kicks exp(-i s_n phi_d cos theta) then commute into
one of strength phi_d |S|, S = sum_n s_n r_1 ... r_{n-1}, so

    c_0 = (prod_n F_n(0)) * J_0(phi_d |S|),

exact on the infinite ladder for any beta and acceleration (Fishman,
Guarneri and Rebuzzini, Phys. Rev. Lett. 89, 084101 (2002)).
resonant_return_amplitudes evaluates it for every plane-wave column at
exactly T_T and the fibers of the Gaussian acceleration curves
(scans.gaussian_accel_curve).  The partial products are separable,
r_1 ... r_k = exp(-4 pi i beta k) exp(i theta_a k^2) with
theta_a = kappa a T_T^2 / 2, so S over a grid of betas x accels is one
matrix product of a (betas x 2N) and a (2N x accels) phase factor
(_resonant_grid), with no running product to gather rounding error.
On the 161 samples of the default p0 window at N = 150, phi_d = 0.6,
its outputs are off a 40-digit evaluation by at most 8.9e-16, the
folded ladder's by 2.4e-10.  Two resonant paths keep
the ladder.  momentum_history records every rung after every kick; the
same populations as a table of J_q(phi_d |S_k|)^2 took 0.42 s against
the ladder's 0.045 s at N = 100, phi_d = 2.04.  gaussian_output stays on
two trains for the benchmark echo named above.

Engine and reference.  batched_return_amplitudes, folded_return_amplitudes
and momentum_history all run one loop, _kick_columns, in the basis c'_q.
Each period kicks a block of columns, calls a per-kick hook (the edge
gate, the even-sector mirror or a population record), then applies the
free-flight phase, carried under acceleration as a running multiplier
without the global a^2 phase.  A kick is a real banded product over the
complex amplitudes viewed as float64: each row block of KICK_ROWS rows
is one real Toeplitz slab, KICK_ROWS + 2D columns wide, times the
block's input rows, in tiles of KICK_TILE columns.  No sites x sites
matrix is built.
run_sequence is the independent reference: apply_kick (the complex
convolution _convolve_kick) and one free flight per period, with the
exact accelerated action.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import _bessel
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

# The engine's kick (_kick_columns) is a real banded product: row blocks of
# KICK_ROWS rows, one BLAS call per row block and tile of KICK_TILE complex
# columns.  Calls of one shape keep a column's bits independent of batching.
# With OpenBLAS 0.3.31 a column's bits changed with its place in 6-column
# tiles, not in 1-, 2- or 8-column ones.  8-column tiles ran the 161-column
# N = 200 scan-eps 1.3-1.8x faster than 1-column ones, and a lone column on
# a 5189-site ladder 3-4x slower.  16- to 64-row blocks ran that scan within
# the noise of each other.
KICK_ROWS = 32
KICK_TILE = 8

# momentum_history runs its one column in tiles of HISTORY_TILE columns.
# On 8 histories (resonant N = 20 to 200 with phi_d up to 12.5, one
# accelerated, one detuned) 4-column tiles gave the bits of 8-column ones
# in 0.118 s against 0.172 s; 2- and 1-column tiles changed the bits.
HISTORY_TILE = 4

# Every TAIL_FLUSH kicks the engine sets amplitude parts below TAIL_TOL to
# zero.  On a ladder much wider than the state the tails otherwise sink
# below the smallest normal double, where every product takes a slow
# subnormal path: the detuned echo at N = 2000, phi_d = 1.25 held 6700
# subnormal reals of 10378 and ran 23 s instead of 1.5 s.  New tail values
# are old ones times Bessel weights of at least KERNEL_TOL, so between
# flushes they stay near or above 1e-150 * 1e-16^8 = 1e-278.  Parts this
# small have populations below 1e-300 and move outputs at rounding level.
TAIL_TOL = 1e-150
TAIL_FLUSH = 8

# The batched engine runs its columns in blocks whose work arrays hold about
# this many entries (sites x columns): 368 columns at q_max = 44.  Each block
# goes through every kick before the next starts, so its arrays stay in
# cache.  On a 2-core Xeon with 2 MiB of L2 per core, 2049 x 5 (beta, accel)
# columns at N = 32, phi_d = 0.5 took 0.71-0.78 s with 16k or 32k entries,
# 0.89 s with 64k and 1.7 s unblocked; 32k splits wide ladders into fewer
# blocks.
BLOCK_ENTRIES = 32768

# momentum_history hands a sink its rows in blocks of at most this many
# cells (sites x rows), so a caller that writes them out never holds the
# whole (2N x sites) history.  The CLI renders each block in bulk
# (kickecho._floatfmt), whose per-call cost is amortised over blocks this
# large.
HISTORY_BLOCK_CELLS = 4096

# Node cap of the Gauss-Hermite fiber rules (_hermite_rules): the rule
# doubles from 33 nodes (2n - 1) up to this count, at least 65 so that two
# rules are compared.
MAX_FIBER_NODES = 4097


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

    def populations(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def amplitude(self, q: int) -> complex:
        return complex(self.amps[q + self.q_max])

    def population(self, q: int) -> float:
        return float(np.abs(self.amps[q + self.q_max]) ** 2)


def ground_state(beta: float, q_max: int) -> LadderState:
    """State fully on rung q = 0 of the beta fiber."""
    amps = np.zeros(2 * _check_q_max(q_max) + 1, dtype=np.complex128)
    amps[q_max] = 1.0
    return LadderState(beta=beta, q_max=q_max, amps=amps)


def _check_q_max(q_max: int) -> int:
    """q_max if it is an integer of at least EDGE_BAND + 1, else ValueError:
    a narrower ladder has no room for an edge band beside q = 0."""
    if not (isinstance(q_max, numbers.Integral) and q_max >= EDGE_BAND + 1):
        raise ValueError(f"q_max must be an integer >= {EDGE_BAND + 1}, got {q_max!r}")
    return q_max


def _check_n_kicks(n_kicks: int, name: str = "n_kicks") -> int:
    """n_kicks if it is a positive integer (not a bool), else ValueError
    naming it as name: an empty train would return c_0 = 1 without running
    anything, and a float count would fail inside an engine's loop."""
    if isinstance(n_kicks, bool) or not (
        isinstance(n_kicks, numbers.Integral) and n_kicks >= 1
    ):
        raise ValueError(f"{name} must be a positive integer, got {n_kicks!r}")
    return n_kicks


def auto_q_max(n_kicks: int, phi_d: float) -> int:
    """Ladder half-width for a train of n_kicks kicks of strength phi_d:
    the uncapped reach estimate (_reach with gamma = inf)."""
    return int(_reach(n_kicks, phi_d))


def _reach(k, phi_d: float, gamma: float = math.inf) -> np.ndarray:
    """Ladder half-widths that k kicks (or square pulses) of strength phi_d
    need, for every k of an array at once.

    - Raman-Nath spread: at resonance the kicks compound ballistically, so
      the mid-sequence spread is that of a single kick of strength
      s = k*phi_d, support ~ s plus a sub-exponential Airy-like tail.  The
      margin ceil(s + 12 + 6 s**(1/3)) keeps the monitored edge band empty
      for all tested parameters, including slightly detuned periods where
      the spread exceeds the resonant estimate.
    - Energy bound, for square pulses of depth gamma (finite gamma only):
      kinetic motion during a long pulse suppresses momentum transfer.
      Each pulse changes the energy by at most V0, so k pulses reach
      q_E = sqrt(2*k*gamma), and the ladder is
      ceil(q_E + 9 + 3*(2*gamma)**(1/6)); the tail term is the cube root of
      the single-pulse reach sqrt(2*gamma).  Stated margin: both finite
      engines keep their edge band <= 1e-15, EDGE_TOL / 1000, across the
      config caps; the thinnest draw found, a half-Talbot pulse at
      gamma = 1, N = 29, reads 7.8e-18 (1.65e-15 with 8 in place of 9).

    The smaller of the two wins; gamma = inf leaves the spread uncapped.
    """
    k = np.asarray(k, dtype=np.float64)
    s = k * phi_d
    return np.minimum(
        np.ceil(s + 12.0 + 6.0 * s ** (1.0 / 3.0)),
        np.ceil(np.sqrt(2.0 * k * gamma) + 9.0 + 3.0 * (2.0 * gamma) ** (1.0 / 6.0)),
    )


def kick_kernel(phi_d: float, sign: int = +1) -> np.ndarray:
    """Convolution weights w[d] = (sign*(-i))**d * J_d(phi_d), d = -D .. D.

    Implements exp(-i*sign*phi_d*cos(kappa x)) on the ladder.  The returned
    array has odd length 2D+1 with the d = 0 term in the middle; orders with
    |J_d| < KERNEL_TOL are dropped.
    """
    _check_sign(sign)
    jd = _bessel_orders(phi_d)
    d = np.arange(jd.size) - (jd.size - 1) // 2
    return (sign * -1j) ** d * jd


def _check_sign(sign: int) -> None:
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")


def _bessel_orders(phi_d: float) -> np.ndarray:
    """J_d(phi_d) for d = -D .. D, the orders of the kick kernel: D is the
    highest order with |J_D| >= KERNEL_TOL."""
    if not (0.0 <= phi_d < math.inf):
        raise ValueError(f"phi_d must be finite and >= 0, got {phi_d!r}")
    d_max = max(4, int(math.ceil(phi_d + 12.0 + 8.0 * phi_d ** (1.0 / 3.0))))
    j = _bessel.jn_upto(d_max, phi_d)
    keep = np.nonzero(np.abs(j) >= KERNEL_TOL)[0]
    d_max = int(keep[-1]) if keep.size else 0
    d = np.arange(-d_max, d_max + 1)
    return j[np.abs(d)] * np.where((d < 0) & (d % 2 != 0), -1.0, 1.0)


def _kick_slab(phi_d: float, sign: int = +1) -> np.ndarray:
    """One row block of the kick exp(-i*sign*phi_d*cos(kappa x)) in the
    basis c'_q = i^q c_q, where it is real (module docstring).

    Returns the KICK_ROWS x (KICK_ROWS + 2D) Toeplitz slab
    S[r, r + D - d] = J_{sign*d}(phi_d), D the kick kernel's half-width:
    rows r0 .. r0 + KICK_ROWS - 1 of the kicked ladder are S times rows
    r0 - D .. r0 + KICK_ROWS - 1 + D of the ladder before the kick.
    """
    _check_sign(sign)
    jd = _bessel_orders(phi_d)
    weights = jd if sign < 0 else jd[::-1]
    slab = np.zeros((KICK_ROWS, KICK_ROWS + jd.size - 1))
    for r in range(KICK_ROWS):
        slab[r, r : r + jd.size] = weights
    return slab


def _convolve_kick(amps: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Apply a kick kernel along axis 0 of a (sites,) or (sites, m) array.

    Amplitude pushed past the ladder ends is lost; the edge monitor is
    responsible for rejecting runs where that loss matters.  Each kernel
    order is multiplied into one scratch array, so no array is allocated
    per order.
    """
    half = (len(kernel) - 1) // 2
    n = amps.shape[0]
    out = np.zeros_like(amps)
    tmp = np.empty_like(amps)
    for d in range(-half, half + 1):
        lo, hi = max(0, d), min(n, n + d)
        if lo >= hi:  # kernel order shifts everything off this ladder
            continue
        out[lo:hi] += np.multiply(kernel[d + half], amps[lo - d : hi - d], out=tmp[lo:hi])
    return out


def _check_edges(amps: np.ndarray, q_max: int, even: bool = False, weight: float = 1.0) -> None:
    """Edge gate of every engine: raise TruncationError unless the worst
    rung population of the outer EDGE_BAND rows of amps (rows, columns...)
    is within EDGE_TOL; written so that NaN fails it.

    The top rows are read, and the bottom ones too unless even (an
    even-sector block, whose bottom rows are q = 0 or its mirror).  A
    row's amplitude a stands for a rung population weight * |a|^2.
    Rounding is monotone, so weight * (max |a|)^2 is exactly the largest.
    """
    worst = np.abs(amps[-EDGE_BAND:]).max()
    if not even:
        worst = np.maximum(worst, np.abs(amps[:EDGE_BAND]).max())
    worst = weight * float(worst * worst)
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
        _check_n_kicks(self.n_kicks)
        if not (0.0 <= self.phi_d < math.inf):
            raise ValueError(f"phi_d must be finite and >= 0, got {self.phi_d!r}")
        if not (0.0 < self.period < math.inf):
            raise ValueError(f"period must be finite and positive, got {self.period!r}")
        if not math.isfinite(self.accel):
            raise ValueError(f"accel must be finite, got {self.accel!r}")


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


def _kick_columns(
    amps: np.ndarray, slabs, phase: np.ndarray, step=None, hook=None, tile: int = KICK_TILE
) -> np.ndarray:
    """The delta-kick engine's loop: one period per kick slab (_kick_slab,
    all of one kernel width) on a block of columns amps (sites, m) in the
    basis c'_q = i^q c_q.

    Each period kicks the block, calls hook on the kicked block (a gate, a
    mirror or a record), then multiplies it by the free-flight phase.
    With step given, the phase is multiplied by step after every period (a
    running multiplier); otherwise it is the same in every period.  Both
    are copied to the buffer width, so the flight multiplies whole rows.
    Returns the final amplitudes, a view into a work buffer.

    The block lives in two buffers with D zero rows above and below the
    ladder, D the kernel half-width, and its columns zero-padded to whole
    tiles of tile columns (KICK_TILE for the scan engines).  A kick
    multiplies the slab into every row block of KICK_ROWS rows and every
    tile (_row_block_products).  Each BLAS call has the same shape
    whatever the number of columns, so a column's bits do not depend on
    the block it runs in.  Every TAIL_FLUSH kicks, real and imaginary
    parts below TAIL_TOL are set to zero.
    """
    sites, m = amps.shape
    half = (slabs[0].shape[1] - KICK_ROWS) // 2
    pad = -m % tile
    bufs = [np.zeros((sites + 2 * half, m + pad), dtype=np.complex128) for _ in range(2)]
    bufs[0][half : half + sites, :m] = amps
    # The products of a kick from bufs[0] into bufs[1], and of one back.
    products = [_row_block_products(*pair, half, sites, tile) for pair in (bufs, bufs[::-1])]
    views = [b[half : half + sites, :m] for b in bufs]
    rows = [b[half : half + sites] for b in bufs]
    reals = [r.view(np.float64) for r in rows]
    # A zero phase and a unit step keep the padding columns zero.
    widen = ((0, 0), (0, pad))
    phase = np.pad(np.broadcast_to(phase, (sites, m)), widen)
    if step is not None:
        step = np.pad(np.broadcast_to(step, (sites, m)), widen, constant_values=1.0)
    magnitude = np.empty(reals[0].shape)
    tail = np.empty(reals[0].shape, dtype=bool)
    cur = 0
    for kick, slab in enumerate(slabs, 1):
        for h, src, dst in products[cur]:
            np.matmul(slab[:h, : h + 2 * half], src, out=dst)
        cur ^= 1
        if kick % TAIL_FLUSH == 0:
            np.less(np.abs(reals[cur], out=magnitude), TAIL_TOL, out=tail)
            np.copyto(reals[cur], 0.0, where=tail)
        if hook is not None:
            hook(views[cur])
        rows[cur] *= phase
        if step is not None:
            phase *= step
    return views[cur]


def _row_block_products(src: np.ndarray, dst: np.ndarray, half: int, sites: int, tile: int):
    """(slab rows h, input, output) of the np.matmul calls that kick the
    block in src into dst (buffers of _kick_columns).

    input and output are real (row blocks, tiles, rows, 2 tile)
    views: row block b reads the h + 2 half rows from b KICK_ROWS on,
    which overlap, and writes ladder rows b KICK_ROWS .. + h - 1.  The
    full row blocks make one call; a last, shorter block another.
    """
    src, dst = src.view(np.float64), dst.view(np.float64)
    row = src.strides[0]
    tiles = src.shape[1] // (2 * tile)
    strides = (KICK_ROWS * row, 2 * tile * src.itemsize, row, src.itemsize)
    full, last = divmod(sites, KICK_ROWS)
    calls = []
    for r0, h, blocks in ((0, KICK_ROWS, full), (full * KICK_ROWS, last, 1)):
        if h and blocks:
            shape = (blocks, tiles, h + 2 * half, 2 * tile)
            calls.append((
                h,
                as_strided(src[r0:], shape, strides, writeable=False),
                as_strided(dst[half + r0 :], (blocks, tiles, h, 2 * tile), strides),
            ))
    return calls


def _free_phase(qs, t, bet, params: PhysicalParams) -> np.ndarray:
    """Zero-acceleration free-flight phase exp(-2 pi i (t/T_T) (q + beta)^2)
    of rungs qs (rows) for periods t and quasimomenta bet (columns)."""
    return np.exp(
        -2j * math.pi * (t / params.talbot_time)[None, :] * (qs[:, None] + bet[None, :]) ** 2
    )


def _accelerated_flight(qs, t, bet, acc, params: PhysicalParams):
    """(phase, step) of _kick_columns for columns (t, bet, acc) of a train
    that starts at time 0.

    Period n = 1, 2, ... multiplies by quad * half^(2n - 1), quad the
    zero-acceleration phase and half = exp(i kappa a t^2 (q + beta) / 2):
    the linear-in-(q+beta) term of the accelerated action grows
    arithmetically in n, so the engine carries it as a running multiplier
    with step = half^2.  The (q, beta)-independent a^2 term is dropped: it
    is common to every fiber with the same (period, accel).
    """
    t, bet, acc = np.atleast_1d(t, bet, acc)
    qb = qs[:, None] + bet[None, :]
    half = np.exp(1j * (0.5 * params.kappa * acc * t**2)[None, :] * qb)
    return _free_phase(qs, t, bet, params) * half, (half * half if acc.any() else None)


def _train_slabs(n_kicks: int, phi_d: float) -> tuple[np.ndarray, ...]:
    """Kick slabs of the echo: n_kicks of sign +1, then n_kicks of sign -1."""
    return (_kick_slab(phi_d, +1),) * n_kicks + (_kick_slab(phi_d, -1),) * n_kicks


def _column_blocks(cols: np.ndarray, sites: int):
    """cols in runs of about BLOCK_ENTRIES / sites columns, whole tiles of
    KICK_TILE columns once there is room for one."""
    width = max(1, BLOCK_ENTRIES // sites)
    if width > KICK_TILE:
        width -= width % KICK_TILE
    return (cols[lo : lo + width] for lo in range(0, cols.size, width))


def momentum_history(
    seq: SequenceSpec,
    beta: float,
    params: PhysicalParams,
    sink=None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Populations |c_q|^2 after each of the 2*n_kicks kicks.

    Returns (q_values, history) with history.shape = (2*n_kicks, sites).
    One column of the engine, gated as in batched_return_amplitudes.

    With sink given, the history is handed over instead of kept, and
    history is None: sink(q_values, block) receives the rows in order, in
    blocks of at most HISTORY_BLOCK_CELLS cells (one row at least).  block
    is a buffer that is overwritten after the call.  When a gate raises,
    the blocks before the failing kick may have been handed over already.
    """
    q_max = auto_q_max(seq.n_kicks, seq.phi_d)
    qs = np.arange(-q_max, q_max + 1)
    rows = 2 * seq.n_kicks
    if sink is not None:
        rows = min(rows, max(1, HISTORY_BLOCK_CELLS // qs.size))
    block = np.empty((rows, qs.size))
    filled = 0

    def record(amps):
        nonlocal filled
        _check_edges(amps, q_max)
        row = block[filled]
        np.abs(amps[:, 0], out=row)
        np.square(row, out=row)
        filled += 1
        if filled == rows and sink is not None:
            sink(qs, block)
            filled = 0

    flight = _accelerated_flight(qs, seq.period, beta, seq.accel, params)
    slabs = _train_slabs(seq.n_kicks, seq.phi_d)
    start = (qs == 0).astype(np.complex128)[:, None]  # e_0, the q = 0 rung
    amps = _kick_columns(start, slabs, *flight, record, HISTORY_TILE)
    _check_norms(amps, "over the sequence")
    if sink is None:
        return qs, block
    if filled:
        sink(qs, block[:filled])
    return qs, None


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
    block it lands in (BLAS calls of one shape, _kick_columns), so a
    column's amplitude is bit-identical however the columns are batched,
    ordered or split across workers.  The edge gate runs after every kick
    and the norm gate at the end of every block; a column failing either
    raises TruncationError, which reports the worst value within the
    failing block.  Non-finite inputs, and an
    n_kicks that is not a positive integer, raise ValueError.
    """
    shape, (t, bet, acc) = _flat_columns(
        "periods, betas and accels", periods, betas, accels
    )
    n_kicks = _check_n_kicks(n_kicks)
    q_max = auto_q_max(n_kicks, phi_d) if q_max is None else _check_q_max(q_max)
    qs = np.arange(-q_max, q_max + 1)
    slabs = _train_slabs(n_kicks, phi_d)
    gate = partial(_check_edges, q_max=q_max)
    out = np.empty(t.size, dtype=np.complex128)
    for block in _column_blocks(np.arange(t.size), qs.size):
        amps = np.zeros((qs.size, block.size), dtype=np.complex128)
        amps[q_max] = 1.0
        flight = _accelerated_flight(qs, t[block], bet[block], acc[block], params)
        amps = _kick_columns(amps, slabs, *flight, gate)
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
    betas), folded from the state c' after the n_kicks forward periods in
    the basis c'_q = i^q c_q: c_0 = F_0 * sum_q c'_q^2 / F_q, F the
    free-flight phases of the column (module docstring).  Columns with
    beta = 0 run on the even sector q = 0 .. q_max.  The amplitudes agree
    with batched_return_amplitudes and run_sequence to rounding.

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
    slab = _kick_slab(phi_d, +1)
    # The even sector holds min(D, q_max) mirrored rows c_-D .. c_-1 ahead
    # of c_0 .. c_q_max, D the kernel half-width: every row below q = 0
    # that the kick reads.
    lead = min((slab.shape[1] - KICK_ROWS) // 2, q_max)
    out = np.empty(t.size, dtype=np.complex128)
    for even in (True, False):
        cols = np.nonzero((bet == 0.0) == even)[0]
        qs = np.arange(-lead if even else -q_max, q_max + 1)
        for block in _column_blocks(cols, qs.size):
            out[block] = _fold_block(n_kicks, slab, t[block], bet[block], qs, even, params)
    return out.reshape(shape)


def _fold_block(
    n_kicks: int,
    slab: np.ndarray,
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
    mirror = _mirror_even(i0)

    def mirror_and_gate(amps):  # even sector: refill rows c_-D .. c_-1, gate the top band
        mirror(amps)
        _check_edges(amps, q_max, even=True)

    amps = np.zeros((qs.size, t.size), dtype=np.complex128)
    amps[i0, :] = 1.0
    hook = mirror_and_gate if even else partial(_check_edges, q_max=q_max)
    amps = _kick_columns(amps, (slab,) * n_kicks, free, hook=hook)

    # Row weights of the fold: 2 on an even-sector row q >= 1, which stands
    # for the rungs +q and -q (c'_-q^2 = c'_q^2), else 1.
    first = i0 if even else 0
    weight = np.ones(qs.size - first)
    if even:
        weight[1:] = 2.0
    _check_norms(amps[first:] * np.sqrt(weight)[:, None], "over the forward train")
    return _fold_sum(amps[first:], free[first:], weight, i0 - first)


def _fold_sum(amps: np.ndarray, free: np.ndarray, weight: np.ndarray, i0: int) -> np.ndarray:
    """The fold of both fold engines, free[i0] * sum_q w_q c_q^2 / F_q over
    the rows of the forward state amps, F = free and i0 the row of q = 0.
    The running sum of np.add.accumulate adds the rows one after another
    for any number of columns; np.sum switches to pairwise summation on a
    one-column block, which would make the bits depend on batching."""
    terms = amps**2
    terms /= free
    terms *= weight[:, None]
    np.add.accumulate(terms, axis=0, out=terms)
    return free[i0] * terms[-1]


def _mirror_even(i0: int) -> Callable[[np.ndarray], None]:
    """The mirror that refills rows q = -i0 .. -1 of an even-sector block
    (rows from -i0), in the basis c'_q = i^q c_q, from rows i0 .. 1: an
    even state has c'_-q = (-1)^q c'_q."""
    parity = np.where(np.arange(-i0, 0) % 2 == 0, 1.0, -1.0)[:, None]
    return lambda amps: np.multiply(amps[2 * i0 : i0 : -1], parity, out=amps[:i0])


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
    or gate is involved.  Non-finite inputs, betas and accels whose
    flight phases overflow, and an n_kicks that is not a positive
    integer, raise ValueError.

    The amplitudes are evaluated on the grid of distinct betas x distinct
    accels (_resonant_grid) and gathered into the broadcast shape, so an
    amplitude's bits do not depend on the other columns of the call.  The
    cost is that of the grid: pass an outer grid or a vector against a
    scalar.  n paired columns (betas and accels of one shape) cost an
    n x n grid.
    """
    bet, acc = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (betas, accels))
    np.broadcast_shapes(bet.shape, acc.shape)  # ValueError unless they broadcast
    if not (np.isfinite(bet).all() and np.isfinite(acc).all()):
        raise ValueError("betas and accels must all be finite")
    n_kicks = _check_n_kicks(n_kicks)
    if not (0.0 <= phi_d < math.inf):
        raise ValueError(f"phi_d must be finite and >= 0, got {phi_d!r}")
    if bet.size == 0 or acc.size == 0:
        return np.empty(np.broadcast_shapes(bet.shape, acc.shape), dtype=np.complex128)
    # Adding 0.0 makes -0.0 and 0.0 one fiber with one set of bits.
    (ub, ib), (ua, ia) = (np.unique(v + 0.0, return_inverse=True) for v in (bet, acc))
    # The phases of _resonant_grid, 4 pi beta k, theta k^2, theta beta k^2
    # and 4 pi N beta^2 for k < 2N, are at most reach in magnitude.
    b = max(1.0, float(np.max(np.abs(ub))))
    theta = 0.5 * params.kappa * float(np.max(np.abs(ua))) * params.talbot_time**2
    reach = (4.0 * math.pi + theta) * b * b * (2.0 * n_kicks) * (2.0 * n_kicks)
    if not math.isfinite(reach):
        raise ValueError("flight phases of these betas and accels overflow")
    grid = _resonant_grid(n_kicks, phi_d, ub, 0.5 * params.kappa * ua * params.talbot_time**2)
    return grid[ib.reshape(bet.shape), ia.reshape(acc.shape)]


def _resonant_grid(
    n_kicks: int, phi_d: float, betas: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """Closed-form return amplitudes on the grid betas x theta, theta_a =
    kappa a T_T^2 / 2 the flight's linear phase per rung and period.

    At T_T the flight of period n = 1 .. 2N on rung q is
    F_n(q) = F_n(0) r_n^q, r_n = exp(-4 pi i beta) exp(i theta (2n - 1)),
    so r_1 ... r_k = exp(-4 pi i beta k) exp(i theta k^2), and

        S = sum_{k < 2N} s_k exp(-4 pi i beta k) exp(i theta k^2),
        prod_n F_n(0) = exp(-4 pi i N beta^2 + i theta beta (2N)^2),

    s_k = +1 for k < N and -1 after.  S is the product of a (betas x 2N)
    and a (2N x theta) phase factor, taken in KICK_TILE x KICK_TILE tiles,
    zero-padded: every np.matmul call has one shape whatever the grid, so
    an entry's bits do not depend on the grid it is computed in (as in
    _kick_columns).  The factors and products are built in blocks, of at
    most 8 BLOCK_ENTRIES entries for the theta factor and BLOCK_ENTRIES
    for the others.
    """
    k = np.arange(2 * n_kicks, dtype=np.float64)
    sign = np.where(k < n_kicks, 1.0, -1.0)
    tile = KICK_TILE
    # Block widths in whole tiles, at least one, at most the padded grid.
    a_width = min(-(-theta.size // tile), max(1, 8 * BLOCK_ENTRIES // k.size // tile)) * tile
    b_width = BLOCK_ENTRIES // max(k.size, a_width) // tile
    b_width = min(-(-betas.size // tile), max(1, b_width)) * tile
    out = np.empty((betas.size, theta.size), dtype=np.complex128)
    for a0 in range(0, theta.size, a_width):
        th = theta[a0 : a0 + a_width]
        cols = np.zeros((a_width, k.size), dtype=np.complex128)
        np.multiply(np.exp(1j * np.outer(th, k * k)), sign, out=cols[: th.size])
        # (tiles, 2N, tile), contiguous: the right operands of the products.
        cols = np.ascontiguousarray(cols.reshape(-1, tile, k.size).transpose(0, 2, 1))
        for b0 in range(0, betas.size, b_width):
            bet = betas[b0 : b0 + b_width]
            rows = np.zeros((b_width, k.size), dtype=np.complex128)
            rows[: bet.size] = np.exp(1j * np.outer(-4.0 * math.pi * bet, k))
            # (row tiles, column tiles, tile, tile), back to a block of the grid.
            total = np.matmul(rows.reshape(-1, 1, tile, k.size), cols[None])
            total = total.transpose(0, 2, 1, 3).reshape(b_width, a_width)
            total = total[: bet.size, : th.size]
            common = np.exp(1j * (
                th * (4.0 * n_kicks**2) * bet[:, None]
                - (4.0 * math.pi * n_kicks) * (bet * bet)[:, None]
            ))
            out[b0 : b0 + bet.size, a0 : a0 + th.size] = common * _bessel.j0(
                phi_d * np.abs(total)
            )
    return out


def return_amplitudes(
    n_kicks: int, phi_d: float, periods, betas, accels, params: PhysicalParams
) -> np.ndarray:
    """Plane-wave echo return amplitudes c_{q=0} over broadcast (periods,
    betas, accels), from the cheapest exact engine: the closed form
    resonant_return_amplitudes when every period is exactly T_T, else
    folded_return_amplitudes when every acceleration is zero, else
    batched_return_amplitudes.  All drop the a^2 action phase, and each
    engine's bits do not depend on batching, so a column has the bits of
    a direct call of the engine chosen.  Invalid inputs raise ValueError.
    """
    shape, (t, bet, acc) = _flat_columns(
        "periods, betas and accels", periods, betas, accels
    )
    if np.all(t == params.talbot_time):
        amps = resonant_return_amplitudes(n_kicks, phi_d, bet, acc, params)
    elif np.all(acc == 0.0):
        amps = folded_return_amplitudes(n_kicks, phi_d, t, bet, params)
    else:
        amps = batched_return_amplitudes(n_kicks, phi_d, t, bet, acc, params)
    return amps.reshape(shape)


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
    the Gaussian-weighted average of f; weights sum to 1.  The rule comes
    from scipy.special.roots_hermite, imported here so that only the
    Gaussian echoes load scipy: numpy's hermgauss returns NaN weights from
    513 nodes on, and the node count doubles up to 4097.
    """
    from scipy.special import roots_hermite

    x, w = roots_hermite(n_nodes)
    sb = wavepacket.sigma_beta(params)
    return math.sqrt(2.0) * sb * x, w / math.sqrt(math.pi)


def gaussian_output(
    seq: SequenceSpec,
    wavepacket: WavepacketSpec,
    params: PhysicalParams,
    tol: float = 1e-4,
) -> float:
    """Return probability of a Gaussian wavepacket through the sequence.

    The wavepacket is decomposed into quasimomentum fibers; each fiber
    starts on its q = 0 rung and is run through the sequence
    independently (Bloch decomposition).  The output is the squared
    coherent average of the fiber return amplitudes,
    I = |integral dbeta w(beta) c_0(beta)|^2, the overlap probability
    between the final and initial wavepackets, over the Gauss-Hermite
    rules of _hermite_rules (_fiber_average).  Without acceleration parity
    gives c_0(beta) = c_0(-beta), so only the nodes with beta >= 0 are run.
    """
    return float(_fiber_average(
        lambda betas: batched_return_amplitudes(
            seq.n_kicks, seq.phi_d, seq.period, betas, seq.accel, params
        ),
        _hermite_rules(wavepacket, params),
        tol,
        even=seq.accel == 0.0,
    ))


def _hermite_rules(wavepacket: WavepacketSpec, params: PhysicalParams):
    """Gauss-Hermite rules of 33, 65, ... (2n - 1) up to MAX_FIBER_NODES nodes."""
    n = 33
    while n <= MAX_FIBER_NODES:
        yield gaussian_beta_nodes(wavepacket, params, n)
        n = 2 * n - 1


def _fiber_average(
    amplitudes: Callable[[np.ndarray], np.ndarray],
    rules: Iterable[tuple[np.ndarray, np.ndarray]],
    tol: float,
    even: bool = False,
) -> np.ndarray:
    """|amplitudes(betas) @ weights|^2 on the first of successive rules that
    agrees with the one before.

    rules yields (betas, weights) quadrature rules of a wavepacket, each
    finer than the last; amplitudes maps betas to fiber return amplitudes,
    fibers on the last axis.  The result is returned once two successive
    ones differ by at most tol times the later one's maximum (or 1e-12);
    when the rules run out first it raises ConvergenceError.

    With even set, the caller asserts c_0(beta) = c_0(-beta) (parity, at
    zero acceleration) and rules of odd size with mirror-symmetric nodes.
    amplitudes then gets only the nodes with beta >= 0, from the middle
    node beta = 0 on, and their amplitudes are mirrored onto the rest.
    """
    prev, achieved = None, math.inf
    for betas, weights in rules:
        if even:
            half = amplitudes(betas[betas.size // 2 :])
            amps = np.concatenate([half[..., :0:-1], half], axis=-1)
        else:
            amps = amplitudes(betas)
        val = np.abs(amps @ weights) ** 2
        if prev is not None:
            drift = float(np.max(np.abs(val - prev)))
            scale = max(float(np.max(val)), 1e-12)
            if drift <= tol * scale:
                return val
            achieved = drift / scale
        prev = val
    raise ConvergenceError(
        f"wavepacket average not stable to {tol:g} on its finest rule of "
        f"{betas.size} nodes",
        achieved=achieved,
    )
