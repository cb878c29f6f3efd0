"""Finite-duration standing-wave pulses on the momentum ladder.

A square pulse of depth V0 and duration tau_p evolves the fiber under
H = p^2/2m + sign*(V0/2)cos(kappa x), which is tridiagonal in the ladder
basis: diagonal kinetic rates (q+beta)^2 * 2*pi/T_T (angular frequency),
off-diagonal couplings sign*V0/(4*hbar).  Each sequence period is the pulse
followed by a free flight of period - tau_p.

There is one fiber propagator, the exact tridiagonal eigendecomposition
of pulse_propagator.  The tests check it against an adaptive Strang
splitting on the ladder and an independent position-grid split-step
oracle; both live in tests/oracles.py, because no program runs them.

In the short-pulse (Raman-Nath) limit the pulse acts as a delta kick of
strength phi_d = V0*tau_p/(2*hbar); the dimensionless depth
gamma = m*V0/(hbar*kappa)^2 controls how quickly kinetic motion during the
pulse destroys that picture.

Echo folding.  The batched return amplitudes run only the forward half of
the echo.  The truncated pulse propagator U+ = V exp(-i w tau_p) V^T is
complex symmetric, and the reversed pulse is U- = P U+ P with
P = diag((-1)^q), because P flips the sign of the couplings and keeps the
diagonal.  The free flight F = diag(F_q) commutes with P.  With
c = (F U+)^n e_0 the forward state, transposing (F U+)^n = F (U+ F)^n F^-1
gives

    c_0(final) = e_0^T (F U-)^n c = e_0^T P (F U+)^n P c
               = F_0 * sum_q (-1)^q c_q^2 / F_q.

This holds on the truncated ladder for any beta and any period, with no
approximation; it is the time-reversal structure of the Loschmidt echo
(Peres, Phys. Rev. A 30, 1610 (1984)).  At beta = 0 the kinetic diagonal
is even in q and the state stays even, so the run is restricted to the
even sector q = 0 .. q_max with amplitudes a_0 = c_0, a_q = sqrt(2) c_q;
there the 0-1 coupling is sqrt(2) times the others and the same sum over
q >= 0 gives c_0.  Folding halves the pulse products, builds one
propagator per beta instead of two, and at beta = 0 shrinks each product
about four times.  The folded c_0 depends on the forward state only, so
the edge and norm gates on that state bound its truncation error.
run_finite_sequence keeps the full two-train run as the reference.

Pulse windows.  The state after k pulses is the state of a k-pulse
train, so the fold runs pulse k on a window of half-width w_k around
q = 0, the ladder scaled by the reach estimate for k pulses against N
(_pulse_windows); rows above it stay zero.  On the fold's own estimate
w_k is the estimate for k pulses.  The edge gate reads the edge band of
each pulse's window, where that pulse truncates, so it still fails
closed.  The retry on twice the estimate doubles every window, and an
explicit q_max is the last window, as the estimate is.

Eigenbasis cache.  The pulse Hamiltonian depends on v0, beta, q_max,
the sign, T_T and the sector, not on tau_p.  _pulse_eigenbasis, an
lru_cache of size one on those arguments and the module's only state,
holds the eigenbasis of the most recent one; pulse_propagator builds
each duration's propagator from it, bit-identical to a fresh build, so
the width search's durations on one ladder share one solve.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import TruncationError
from .ladder import (
    EDGE_BAND,
    LadderState,
    _check_edges,
    _check_n_kicks,
    _check_norms,
    _check_q_max,
    _check_sign,
    _flat_columns,
    _fold_sum,
    _free_phase,
    _reach,
    ground_state,
)
from .params import HBAR, PhysicalParams, gamma_from_v0

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FinitePulseSpec:
    """One echo sequence built from square pulses.

    n_pulses pulses of depth v0 (J) and duration tau_p with standing-wave
    sign +1, then n_pulses with sign -1; every pulse is followed by a free
    flight of period - tau_p.  Acceleration is out of scope for finite
    pulses.
    """

    n_pulses: int
    v0: float
    tau_p: float
    period: float

    def __post_init__(self):
        _check_n_kicks(self.n_pulses, "n_pulses")
        if self.v0 < 0.0 or not math.isfinite(self.v0):
            raise ValueError(f"v0 must be >= 0 and finite, got {self.v0!r}")
        if not (0.0 < self.period < math.inf):
            raise ValueError(f"period must be positive and finite, got {self.period!r}")
        if not (0.0 <= self.tau_p <= self.period):
            raise ValueError(
                f"tau_p must satisfy 0 <= tau_p <= period, got {self.tau_p!r}"
            )

    @property
    def phi_d(self) -> float:
        """Equivalent delta-kick strength V0*tau_p/(2*hbar)."""
        return self.v0 * self.tau_p / (2.0 * HBAR)

    def gamma(self, params: PhysicalParams) -> float:
        return gamma_from_v0(self.v0, params)


def auto_q_max_finite(
    spec: FinitePulseSpec, params: PhysicalParams, trains: int = 1
) -> int:
    """Ladder half-width for an engine that runs k = trains * n_pulses pulses:
    the reach estimate ladder._reach(k, phi_d, gamma), the Raman-Nath
    spread of short pulses capped by the energy bound of long ones.

    k is n_pulses for the folded engine (finite_return_amplitudes, the
    default trains=1), which runs the forward train only.  The two-train
    reference run_finite_sequence and the position-grid oracles of the
    tests pass trains=2: by the fold identity their reversed train's
    states are (F U-)^k c = P (F U+)^k P c, so they keep spreading for
    2*n_pulses pulses.  Off resonance the reversed train does not undo the forward
    one, and short pulses carry them out to 2*n_pulses*phi_d too.

    The edge and norm gates still guard the result at runtime.  When an
    engine picks its own ladder and a gate fails on it, the engine reruns
    once on twice this estimate (_on_ladder).  For gamma >= 1e-3 that is
    at least the ladder of the wider margin q_E + 16 + 3*q_E**(1/3) used
    before.
    """
    return int(_reach(trains * spec.n_pulses, spec.phi_d, spec.gamma(params)))


def _pulse_windows(spec: FinitePulseSpec, params: PhysicalParams, q_max: int) -> list[int]:
    """Window half-widths w_1 .. w_N of the folded engine on a ladder of
    half-width q_max.

    The state after k pulses is that of a k-pulse train, so pulse k runs
    on w_k = min(q_max, ceil(q_max * q(k) / q(N))), q(k) the reach
    estimate for k pulses (ladder._reach, the estimate of
    auto_q_max_finite), and never on fewer than EDGE_BAND + 1 rungs.  The
    last window is q_max.  On the engine's own estimate q_max = q(N) that
    is w_k = q(k); its retry on twice the estimate doubles every window,
    and an explicit q_max scales the windows in the same way.  The
    windows never shrink.
    """
    reach = _reach(np.arange(1, spec.n_pulses + 1), spec.phi_d, spec.gamma(params))
    windows = np.ceil(q_max * reach / reach[-1])
    return np.clip(windows, EDGE_BAND + 1, q_max).astype(int).tolist()


def _on_ladder(run, q_max: int | None, estimate) -> np.ndarray:
    """run(q_max) on an explicit ladder, which never retries.  With q_max
    None, run(estimate()); if a gate raises TruncationError there, run
    once more on a ladder twice as wide and log the retry at DEBUG."""
    if q_max is not None:
        return run(q_max)
    q_auto = estimate()
    try:
        return run(q_auto)
    except TruncationError as exc:
        logger.debug(
            "estimated ladder q_max = %d too narrow (%s); retrying on q_max = %d",
            q_auto, exc, 2 * q_auto,
        )
        return run(2 * q_auto)


def pulse_propagator(
    spec: FinitePulseSpec,
    beta: float,
    q_max: int,
    sign: int,
    params: PhysicalParams,
    even: bool = False,
) -> np.ndarray:
    """Dense unitary exp(-i*H*tau_p/hbar) = V exp(-i*w*tau_p) V^T from the
    tridiagonal eigendecomposition H = V diag(w) V^T (on the even sector
    q = 0 .. q_max when even=True, beta = 0 only), with V and w from
    the cache of _pulse_eigenbasis (module docstring).
    """
    _check_sign(sign)
    if even and beta != 0.0:
        raise ValueError(f"the even sector exists only at beta = 0, got {beta!r}")
    # float() keeps a 0-d array beta a hashable cache key.
    w, v = _pulse_eigenbasis(spec.v0, float(beta), q_max, sign, params.talbot_time, even)
    return (v * np.exp(-1j * w * spec.tau_p)) @ v.T


@lru_cache(maxsize=1)
def _pulse_eigenbasis(
    v0: float, beta: float, q_max: int, sign: int, talbot_time: float, even: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and (read-only) eigenvectors of the tridiagonal pulse
    Hamiltonian H/hbar in angular-frequency units: kinetic rates
    (q+beta)^2 * 2*pi/T_T on the diagonal, uniform couplings
    sign*v0/(4*hbar) off it.  With even=True the Hamiltonian is
    restricted to the even sector q = 0 .. q_max in the basis |0>,
    (|q> + |-q>)/sqrt(2); there the 0-1 coupling is sqrt(2) times the
    others.

    scipy is imported here, so that only the finite-pulse kinds load it:
    dense np.linalg.eigh took 4.7x as long at 321 sites."""
    from scipy.linalg import eigh_tridiagonal

    qs = np.arange(0 if even else -q_max, q_max + 1)
    diag = (qs + beta) ** 2 * (2.0 * math.pi / talbot_time)
    off = np.full(qs.size - 1, sign * v0 / (4.0 * HBAR))
    if even:
        off[:1] *= math.sqrt(2.0)
    w, v = eigh_tridiagonal(diag, off)
    w.flags.writeable = v.flags.writeable = False
    return w, v


def run_finite_sequence(
    spec: FinitePulseSpec,
    beta: float,
    params: PhysicalParams,
    q_max: int | None = None,
) -> tuple[LadderState, float]:
    """Full finite-pulse sequence from the q = 0 rung; returns (state, I).

    n_pulses periods of (pulse sign +1, free flight period - tau_p), then
    the same with sign -1, each pulse the dense pulse_propagator.
    I = |c_{q=0}|^2.  With q_max None the ladder is
    auto_q_max_finite(spec, params, trains=2), retried once on twice that
    width if a gate fails.
    """
    return _on_ladder(
        partial(_two_train_run, spec, beta, params),
        q_max,
        partial(auto_q_max_finite, spec, params, trains=2),
    )


def _two_train_run(
    spec: FinitePulseSpec,
    beta: float,
    params: PhysicalParams,
    q_max: int,
) -> tuple[LadderState, float]:
    state = ground_state(beta, q_max)
    qs = state.q_values
    flight = np.array([spec.period - spec.tau_p])
    free_phase = _free_phase(qs, flight, np.array([beta]), params)[:, 0]
    amps = state.amps
    for sign in (+1, -1):
        # A pulse of zero duration is the identity.
        u = pulse_propagator(spec, beta, q_max, sign, params) if spec.tau_p > 0.0 else None
        for _ in range(spec.n_pulses):
            if u is not None:
                amps = u @ amps
            _check_edges(amps, q_max)
            amps = amps * free_phase
    _check_norms(amps, "over the finite-pulse sequence")
    state = LadderState(beta, q_max, amps)
    return state, state.population(0)


def finite_return_amplitudes(
    n_pulses: int,
    v0: float,
    tau_p: float,
    periods,
    betas,
    params: PhysicalParams,
    q_max: int | None = None,
) -> np.ndarray:
    """Vectorized return amplitudes c_{q=0} over broadcast (periods, betas).

    Only the forward train is run; the reversed train is folded onto it
    (module docstring): with c the state after the n_pulses forward
    periods, c_0 = F_0 * sum_q (-1)^q c_q^2 / F_q, F the free-flight phases
    of the column.  Columns with beta = 0 run on the even sector
    q = 0 .. q_max.  For each distinct beta the pulse is one dense matrix
    applied to all period columns at once; free-flight phases vary per
    column.  Amplitudes carry the complete fiber phase (nothing is gauged
    away), so they can be averaged coherently across fibers.

    The edge gate (every period, on per-rung populations) and the norm
    gate act on the forward state only.  The folded c_0 is a function of
    that state alone, so they bound its truncation error as they bound the
    error of the full two-train run.  With q_max None each beta group runs
    on auto_q_max_finite(spec, params), and once more on twice that width
    if a gate fails there; an explicit q_max never retries.  Either way
    q_max is the window of the last pulse, and earlier pulses run on the
    narrower windows of _pulse_windows.
    """
    n_pulses = _check_n_kicks(n_pulses, "n_pulses")
    shape, (t, bet) = _flat_columns("periods and betas", periods, betas)
    if not (math.isfinite(v0) and math.isfinite(tau_p)):
        raise ValueError("v0 and tau_p must be finite")
    if tau_p < 0.0 or np.any(t < tau_p):
        raise ValueError("tau_p must be >= 0 and periods no smaller than tau_p")
    if q_max is not None:
        _check_q_max(q_max)
    out = np.empty(t.size, dtype=np.complex128)
    for beta in np.unique(bet):
        cols = np.nonzero(bet == beta)[0]
        spec = FinitePulseSpec(n_pulses, v0, tau_p, float(np.min(t[cols])))
        out[cols] = _on_ladder(
            partial(_folded_echo, spec, float(beta), t[cols], params=params),
            q_max,
            partial(auto_q_max_finite, spec, params),
        )
    return out.reshape(shape)


def _folded_echo(
    spec: FinitePulseSpec,
    beta: float,
    periods: np.ndarray,
    q_max: int,
    params: PhysicalParams,
) -> np.ndarray:
    """Return amplitudes of one beta fiber from its forward train alone.

    Pulse k runs on the window of half-width w_k around q = 0 that
    _pulse_windows gives for the ladder q_max.  It multiplies
    u[window k, window k-1] (w_0 = 0, the initial rung) into the spare
    buffer; rows outside the window stay zero.  The edge gate
    reads the edge band of each pulse's window, where the window
    truncates: both ends off the even sector, and the top end on it,
    where an amplitude a_q = sqrt(2) c_q stands for the rungs +q and -q,
    so it gates |a_q|^2 / 2 (q = 0 is never in the band, as every window
    is wider than EDGE_BAND).  A gate failure names the ladder q_max,
    which the caller sets and the retry doubles, not the window.
    """
    even = beta == 0.0
    i0 = 0 if even else q_max
    qs = np.arange(-i0, q_max + 1)
    free = _free_phase(qs, periods - spec.tau_p, np.array([beta]), params)
    u = pulse_propagator(spec, beta, q_max, +1, params, even) if spec.tau_p > 0.0 else None
    amps = np.zeros((qs.size, periods.size), dtype=np.complex128)
    amps[i0, :] = 1.0
    spare = np.zeros_like(amps)
    filled = slice(i0, i0 + 1)
    for w in _pulse_windows(spec, params, q_max):
        rows = slice(i0 - (0 if even else w), i0 + w + 1)
        if u is not None:
            np.matmul(u[rows, filled], amps[filled], out=spare[rows])
            amps, spare = spare, amps
        _check_edges(amps[rows], q_max, even, weight=0.5 if even else 1.0)
        amps[rows] *= free[rows]
        filled = rows
    _check_norms(amps, "in the batched finite-pulse run")
    return _fold_sum(amps, free, np.where(qs % 2 == 0, 1.0, -1.0), i0)
