"""Delta-kick ladder engine vs position-space oracles and exact symmetries.

The kick operator has an exact position representation (multiply by
exp(-i*phi_d*cos(kappa x))), so a DFT on a fine angle grid is an
independent oracle for the Bessel convolution.  Free evolution phases
are pinned by the Talbot identity tested in test_params.  Everything
else here is symmetry: unitarity, parity, time reversal, revival.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import delta_wavepacket_grid_output

from kickecho import ladder, scans
from kickecho.errors import ConvergenceError, TruncationError
from kickecho.ladder import (
    EDGE_BAND,
    LadderState,
    SequenceSpec,
    WavepacketSpec,
    apply_free_evolution,
    apply_free_evolution_accelerated,
    apply_kick,
    auto_q_max,
    batched_return_amplitudes,
    folded_return_amplitudes,
    gaussian_beta_nodes,
    gaussian_output,
    ground_state,
    kick_kernel,
    momentum_history,
    resonant_return_amplitudes,
    run_sequence,
)
from kickecho.params import HBAR

J0_HALF = 0.938469807240813  # J_0(1/2), standard table value
# Frozen regression value: N = 50, phi_d = 0.5, period = T_T + 3 ns, beta = 0.
I_N50_EPS3NS = 0.05515863024982816


def _grid_kick(state: LadderState, phi_d: float, sign: int, n_grid: int = 2048):
    """Kick via direct DFT on an angle grid; independent of Bessel sums."""
    theta = 2.0 * np.pi * np.arange(n_grid) / n_grid
    qs = state.q_values
    psi = np.exp(1j * np.outer(theta, qs)) @ state.amps
    psi = psi * np.exp(-1j * sign * phi_d * np.cos(theta))
    return np.exp(-1j * np.outer(qs, theta)) @ psi / n_grid


def _random_state(rng, q_max: int, spread: int, beta: float) -> LadderState:
    amps = np.zeros(2 * q_max + 1, dtype=np.complex128)
    inner = slice(q_max - spread, q_max + spread + 1)
    amps[inner] = rng.standard_normal(2 * spread + 1) + 1j * rng.standard_normal(
        2 * spread + 1
    )
    amps /= np.linalg.norm(amps)
    return LadderState(beta=beta, q_max=q_max, amps=amps)


def _reference_train(
    state, n_kicks, phi_d, sign, period, params, accel=0.0, t_offset=0.0, record=None
):
    """Per-kick reference for one train: apply_kick, then the free flight
    with the exact accelerated action; appends the populations after every
    kick to record when given."""
    for n in range(n_kicks):
        state = apply_kick(state, phi_d, sign)
        if record is not None:
            record.append(state.populations())
        state = apply_free_evolution_accelerated(
            state, period, params, accel, t_offset + n * period
        )
    return state


def test_kick_matches_position_grid_ground_state():
    state = ground_state(beta=0.0, q_max=30)
    for phi_d in (0.1, 0.5, 1.0, 2.5):
        for sign in (+1, -1):
            kicked = apply_kick(state, phi_d, sign)
            oracle = _grid_kick(state, phi_d, sign)
            assert np.max(np.abs(kicked.amps - oracle)) < 1e-8


def test_kick_matches_position_grid_random_states():
    rng = np.random.default_rng(20260816)
    for _ in range(5):
        state = _random_state(rng, q_max=40, spread=10, beta=rng.uniform(-0.5, 0.5))
        phi_d = rng.uniform(0.05, 3.0)
        kicked = apply_kick(state, phi_d, +1)
        oracle = _grid_kick(state, phi_d, +1)
        assert np.max(np.abs(kicked.amps - oracle)) < 1e-8


def test_single_kick_populations_are_bessel_squares():
    state = apply_kick(ground_state(0.0, 25), 0.5)
    assert state.population(0) == pytest.approx(J0_HALF**2, rel=1e-12)
    pops = state.populations()
    q = state.q_values
    np.testing.assert_allclose(pops, pops[::-1], atol=1e-15)  # J_{-q} symmetry
    # Sum rule and exact second moment of the Bessel distribution.
    assert np.sum(pops) == pytest.approx(1.0, abs=1e-13)
    assert np.sum(q**2 * pops) == pytest.approx(0.5**2 / 2.0, rel=1e-10)


def test_kick_then_inverse_kick_is_identity():
    rng = np.random.default_rng(7)
    state = _random_state(rng, q_max=35, spread=8, beta=0.21)
    back = apply_kick(apply_kick(state, 1.3, +1), 1.3, -1)
    assert np.max(np.abs(back.amps - state.amps)) < 1e-12


def _i_power(q: np.ndarray) -> np.ndarray:
    """i^q on rungs q, exact."""
    return np.array([1.0, 1j, -1.0, -1j])[q % 4][:, None]


@settings(max_examples=40, deadline=None)
@given(
    phi_d=st.floats(min_value=0.0, max_value=100.0),
    q_max=st.one_of(st.integers(min_value=EDGE_BAND + 1, max_value=80), st.just(2600)),
    sign=st.sampled_from([+1, -1]),
    even=st.booleans(),
    columns=st.integers(min_value=1, max_value=17),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(phi_d=5.0, q_max=6, sign=-1, even=True, columns=3, seed=1)
@example(phi_d=100.0, q_max=2600, sign=+1, even=False, columns=9, seed=2)
@example(phi_d=1.25, q_max=2600, sign=-1, even=True, columns=1, seed=3)
def test_banded_kick_matches_convolution(phi_d, q_max, sign, even, columns, seed):
    """The engine's kick, a real banded product in the basis c'_q = i^q c_q,
    rotated back, is the Bessel convolution of apply_kick: on the full
    ladder, and on the even sector, whose rows -D .. -1 the mirror fills
    with c'_-q = (-1)^q c'_q.  Covers ladders narrower than the kernel
    half-width D and the cap-sized q_max = 2600.  On the small ladders its
    first column also matches the kick on a position grid (_grid_kick),
    which uses no Bessel sums."""
    rng = np.random.default_rng(seed)
    qs = np.arange(-q_max, q_max + 1)
    amps = rng.standard_normal((qs.size, columns)) + 1j * rng.standard_normal((qs.size, columns))
    if even:
        amps += amps[::-1]
    amps /= np.linalg.norm(amps, axis=0)
    expected = ladder._convolve_kick(amps, kick_kernel(phi_d, sign))
    slab = ladder._kick_slab(phi_d, sign)
    rotated = _i_power(qs) * amps
    if even:
        lead = min((slab.shape[1] - ladder.KICK_ROWS) // 2, q_max)
        rotated = rotated[q_max - lead :]
        mirror = rotated[:lead].copy()
        rotated[:lead] = np.nan
        ladder._mirror_even(lead)(rotated)
        assert np.array_equal(rotated[:lead], mirror)
        qs, expected = qs[q_max - lead :], expected[q_max - lead :]
    kicked = ladder._kick_columns(rotated, (slab,), np.ones(rotated.shape))
    kicked = kicked * _i_power(-qs)
    rows = qs >= 0 if even else slice(None)
    assert np.max(np.abs(kicked[rows] - expected[rows])) <= 1e-14
    if q_max <= 80:
        grid = _grid_kick(LadderState(0.0, q_max, amps[:, 0]), phi_d, sign)
        assert np.max(np.abs(kicked[rows, 0] - grid[qs + q_max][rows])) <= 1e-13


@pytest.mark.parametrize("phi_d", [1.25, 100.0])
def test_kick_operator_stays_banded_at_the_cap(phi_d):
    """Building and applying one kick on a cap-sized ladder (q_max = 2600,
    5201 sites) takes a slab and two column buffers, not a sites x sites
    matrix (216 MB in float64)."""
    q_max = 2600
    amps = np.zeros((2 * q_max + 1, 1), dtype=np.complex128)
    amps[q_max] = 1.0
    tracemalloc.start()
    try:
        slab = ladder._kick_slab(phi_d, +1)
        ladder._kick_columns(amps, (slab,), np.ones(amps.shape))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_free_evolution_talbot_revival(params):
    rng = np.random.default_rng(11)
    state = _random_state(rng, q_max=20, spread=6, beta=0.0)
    evolved = apply_free_evolution(state, params.talbot_time, params)
    assert np.max(np.abs(evolved.amps - state.amps)) < 1e-10


def test_free_evolution_half_talbot_parity(params):
    state = apply_kick(ground_state(0.0, 25), 1.0)
    evolved = apply_free_evolution(state, params.talbot_time / 2.0, params)
    expected = state.amps * np.where(state.q_values % 2 == 0, 1.0, -1.0)
    assert np.max(np.abs(evolved.amps - expected)) < 1e-10


def test_perfect_echo_and_time_reversal(params):
    seq = SequenceSpec(10, 0.8, params.talbot_time)
    final, output = run_sequence(seq, beta=0.0, params=params)
    assert output == pytest.approx(1.0, abs=1e-10)
    target = np.zeros_like(final.amps)
    target[final.q_max] = 1.0
    assert np.max(np.abs(final.amps - target)) < 1e-10


def test_detuned_output_frozen_value(params):
    seq = SequenceSpec(50, 0.5, params.talbot_time + 3e-9)
    _, output = run_sequence(seq, beta=0.0, params=params)
    assert output == pytest.approx(I_N50_EPS3NS, rel=1e-10)


def test_output_even_in_beta(params):
    seq = SequenceSpec(12, 0.6, params.talbot_time + 5e-9)
    _, plus = run_sequence(seq, beta=0.17, params=params)
    _, minus = run_sequence(seq, beta=-0.17, params=params)
    assert plus == pytest.approx(minus, rel=1e-12)


def test_batched_matches_scalar_runs(params):
    n_kicks, phi_d = 9, 0.7
    periods = params.talbot_time + np.array([-2e-9, 0.0, 1.5e-9])
    betas = np.array([0.0, 0.05, -0.3])
    for beta in betas:
        batched = np.abs(
            batched_return_amplitudes(n_kicks, phi_d, periods, beta, 0.0, params)
        ) ** 2
        for i, period in enumerate(periods):
            _, single = run_sequence(
                SequenceSpec(n_kicks, phi_d, period), beta, params
            )
            assert batched[i] == pytest.approx(single, rel=1e-12, abs=1e-15)


@settings(max_examples=25, deadline=None)
@given(
    n_kicks=st.integers(min_value=1, max_value=6),
    phi_d=st.floats(min_value=0.0, max_value=1.5),
    columns=st.lists(
        st.tuples(
            st.floats(min_value=-3e-9, max_value=3e-9),
            st.floats(min_value=-0.5, max_value=0.5),
            st.floats(min_value=-0.05, max_value=0.05),
        ),
        min_size=2,
        max_size=12,
    ),
    block_columns=st.integers(min_value=1, max_value=5),
)
def test_blocked_batch_is_bit_identical_to_single_columns(
    n_kicks, phi_d, columns, block_columns
):
    """Blocks of 1 to 5 columns, one column at a time and reversed order
    all give the same bits: every column goes through the same operations
    whatever block it lands in."""
    from kickecho.params import rb85_params

    params = rb85_params()
    detunings, betas, accels = (np.array(c) for c in zip(*columns))
    periods = params.talbot_time + detunings
    sites = 2 * auto_q_max(n_kicks, phi_d) + 1
    with mock.patch.object(ladder, "BLOCK_ENTRIES", block_columns * sites):
        blocked = batched_return_amplitudes(
            n_kicks, phi_d, periods, betas, accels, params
        )
    single = np.array([
        batched_return_amplitudes(n_kicks, phi_d, t, b, a, params)[0]
        for t, b, a in zip(periods, betas, accels)
    ])
    reversed_ = batched_return_amplitudes(
        n_kicks, phi_d, periods[::-1], betas[::-1], accels[::-1], params
    )[::-1]
    assert np.array_equal(blocked, single)
    assert np.array_equal(blocked, reversed_)


def test_edge_violation_in_the_last_block_raises(params):
    """Columns at beta = 0.25 stay near the origin (the free flights undo
    the kicks pairwise), while the resonant beta = 0 column outgrows the
    ladder; alone in the last block, it still fails the whole call."""
    n_kicks, phi_d, q_max = 10, 1.5, 16
    betas = np.array([0.25, 0.25, 0.25, 0.25, 0.0])
    with mock.patch.object(ladder, "BLOCK_ENTRIES", 2 * (2 * q_max + 1)):
        batched_return_amplitudes(
            n_kicks, phi_d, params.talbot_time, betas[:-1], 0.0, params, q_max
        )
        with pytest.raises(TruncationError, match="edge-band population"):
            batched_return_amplitudes(
                n_kicks, phi_d, params.talbot_time, betas, 0.0, params, q_max
            )


def _edge_block(q_max: int = 10) -> np.ndarray:
    """Three columns on rung q = 0 of a ladder of half-width q_max."""
    amps = np.zeros((2 * q_max + 1, 3), dtype=np.complex128)
    amps[q_max] = 1.0
    return amps


def test_edge_gate_fails_on_nan_anywhere_in_the_band():
    for row in (*range(EDGE_BAND), *range(-EDGE_BAND, 0)):
        for value in (complex(math.nan, 0.0), complex(0.0, math.nan)):
            amps = _edge_block()
            amps[row, 1] = value
            with pytest.raises(TruncationError, match="edge-band population nan"):
                ladder._check_edges(amps, 10)


def test_edge_gate_passes_exactly_its_tolerance():
    """A rung population of exactly EDGE_TOL passes at either end; the next
    float up fails."""
    assert 1e-6 * 1e-6 == ladder.EDGE_TOL
    for row in (0, -1):
        amps = _edge_block()
        amps[row, 2] = 1e-6
        ladder._check_edges(amps, 10)
        amps[row, 2] = 1.0
        ladder._check_edges(amps, 10, weight=ladder.EDGE_TOL)
        with pytest.raises(TruncationError):
            ladder._check_edges(amps, 10, weight=np.nextafter(ladder.EDGE_TOL, 1.0))


def test_edge_gate_weight_scales_the_reported_population():
    amps = _edge_block()
    amps[-2, 0] = 1e-5
    for weight, worst in ((1.0, "1.000e-10"), (0.5, "5.000e-11")):
        with pytest.raises(TruncationError) as err:
            ladder._check_edges(amps, 10, weight=weight)
        assert str(err.value) == (
            f"edge-band population {worst} exceeds 1e-12 on ladder with q_max = 10; "
            "rerun with a wider ladder"
        )


def test_even_sector_edge_gate_reads_the_top_band_only():
    """An even-sector block's bottom rows are q = 0 or its mirror, not an
    edge: the even gate ignores them, the full-ladder gate does not."""
    amps = _edge_block()
    amps[EDGE_BAND - 1, 0] = 1.0
    ladder._check_edges(amps, 10, even=True)
    with pytest.raises(TruncationError, match="edge-band population 1.000e[+]00"):
        ladder._check_edges(amps, 10)
    amps[-EDGE_BAND, 0] = 1.0
    with pytest.raises(TruncationError):
        ladder._check_edges(amps, 10, even=True)


def test_batched_rejects_non_finite_inputs(params):
    t = params.talbot_time
    for periods, betas, accels in (
        ([t, math.inf], 0.0, 0.0),
        (t, [0.0, math.nan], 0.0),
        (t, 0.0, [0.0, -math.inf]),
    ):
        with pytest.raises(ValueError, match="finite"):
            batched_return_amplitudes(4, 0.5, periods, betas, accels, params)
    for periods, betas in (([t, math.inf], 0.0), (t, [0.0, math.nan])):
        with pytest.raises(ValueError, match="finite"):
            folded_return_amplitudes(4, 0.5, periods, betas, params)
    for phi_d, betas, accels in (
        (0.5, [0.0, math.nan], 0.0),
        (0.5, 0.0, [0.0, -math.inf]),
        (math.inf, 0.0, 0.0),
        (math.nan, 0.0, 0.0),
    ):
        with pytest.raises(ValueError, match="finite"):
            resonant_return_amplitudes(4, phi_d, betas, accels, params)
    # An empty or negative train would return c_0 = 1 without a kick.
    for n_kicks in (0, -3, 2.5, 4.0, True):
        with pytest.raises(ValueError, match="n_kicks"):
            batched_return_amplitudes(n_kicks, 0.5, t, 0.0, 0.0, params)
        with pytest.raises(ValueError, match="n_kicks"):
            folded_return_amplitudes(n_kicks, 0.5, t, 0.0, params)
        with pytest.raises(ValueError, match="n_kicks"):
            resonant_return_amplitudes(n_kicks, 0.5, 0.0, 0.0, params)
    for q_max in (-1, 2.5, EDGE_BAND, 7.0):
        with pytest.raises(ValueError, match="q_max"):
            batched_return_amplitudes(4, 0.5, t, 0.0, 0.0, params, q_max)
        with pytest.raises(ValueError, match="q_max"):
            folded_return_amplitudes(4, 0.5, t, 0.0, params, q_max)


def test_resonant_amplitudes_reject_overflowing_phases(params):
    """Finite betas and accels whose flight phases overflow raise instead
    of returning nan, whatever the other columns of the call."""
    for betas, accels in ((0.0, 1e308), (1e200, 0.0), ([0.1, 1e160], [0.0, 0.2])):
        with pytest.raises(ValueError, match="overflow"):
            resonant_return_amplitudes(5, 0.5, betas, accels, params)


@settings(max_examples=30, deadline=None)
@given(
    n_kicks=st.integers(min_value=1, max_value=24),
    phi_d=st.floats(min_value=0.0, max_value=1.5),
    detunings=st.lists(
        st.floats(min_value=-3e-9, max_value=3e-9), min_size=1, max_size=3
    ),
    beta=st.one_of(st.just(0.0), st.floats(min_value=-0.5, max_value=0.5)),
)
def test_folded_echo_matches_two_train_run(params, n_kicks, phi_d, detunings, beta):
    """Time reversal (any beta) and parity (beta = 0, even sector) fold the
    echo onto its forward kicks; the folded return amplitudes equal those
    of the full two-train run, phases included."""
    periods = params.talbot_time + np.array(detunings)
    folded = folded_return_amplitudes(n_kicks, phi_d, periods, beta, params)
    for period, amp in zip(periods, folded):
        state, _ = run_sequence(SequenceSpec(n_kicks, phi_d, float(period)), beta, params)
        assert abs(amp - state.amplitude(0)) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(
    n_kicks=st.integers(min_value=1, max_value=6),
    phi_d=st.floats(min_value=0.0, max_value=1.5),
    columns=st.lists(
        st.tuples(
            st.floats(min_value=-3e-9, max_value=3e-9),
            st.one_of(st.just(0.0), st.floats(min_value=-0.5, max_value=0.5)),
        ),
        min_size=2,
        max_size=12,
    ),
    block_columns=st.integers(min_value=1, max_value=5),
)
def test_folded_batch_is_bit_identical_to_single_columns(
    params, n_kicks, phi_d, columns, block_columns
):
    """Both sectors of the folded engine give the same bits in blocks of
    1 to 5 columns, one column at a time and in reversed order."""
    detunings, betas = (np.array(c) for c in zip(*columns))
    periods = params.talbot_time + detunings
    q_max = auto_q_max(n_kicks, phi_d)
    even_sites = min((len(kick_kernel(phi_d)) - 1) // 2, q_max) + q_max + 1
    with mock.patch.object(ladder, "BLOCK_ENTRIES", block_columns * even_sites):
        blocked = folded_return_amplitudes(n_kicks, phi_d, periods, betas, params)
    single = np.array([
        folded_return_amplitudes(n_kicks, phi_d, t, b, params)[0]
        for t, b in zip(periods, betas)
    ])
    reversed_ = folded_return_amplitudes(
        n_kicks, phi_d, periods[::-1], betas[::-1], params
    )[::-1]
    assert np.array_equal(blocked, single)
    assert np.array_equal(blocked, reversed_)


@pytest.mark.parametrize("beta", [0.0, 0.2])
def test_folded_echo_on_narrow_ladders(params, beta):
    """A ladder narrower than the kick kernel (q_max = 11, half-width 12)
    still folds exactly while its edge band stays empty: near half the
    Talbot time each kick pair nearly cancels.  A ladder too narrow for
    the train fails the edge gate in both sectors."""
    period = params.talbot_time / 2 + 1e-9
    assert (len(kick_kernel(0.5)) - 1) // 2 == 12
    state, _ = run_sequence(SequenceSpec(4, 0.5, period), beta, params, q_max=11)
    folded = folded_return_amplitudes(4, 0.5, period, beta, params, q_max=11)
    assert abs(folded[0] - state.amplitude(0)) <= 1e-10
    with pytest.raises(TruncationError, match="edge-band population"):
        folded_return_amplitudes(10, 1.5, params.talbot_time, beta, params, q_max=12)


@settings(max_examples=30, deadline=None)
@given(
    n_kicks=st.integers(min_value=1, max_value=40),
    phi_d=st.floats(min_value=0.0, max_value=1.5),
    beta=st.one_of(st.just(0.0), st.floats(min_value=-0.5, max_value=0.5)),
    accel=st.one_of(st.just(0.0), st.floats(min_value=-1.0, max_value=1.0)),
)
# Both spread past a one-train ladder: |S_k| exceeds n_kicks.
@example(n_kicks=30, phi_d=1.0, beta=0.0, accel=0.03125)
@example(n_kicks=21, phi_d=1.0, beta=0.0078125, accel=0.0)
def test_resonant_closed_form_matches_the_engines(params, n_kicks, phi_d, beta, accel):
    """At the resonance period the echo is one kick of strength
    phi_d |S|: the closed form equals the two-train engine on a ladder
    twice the default width (complex, same dropped a^2 phase) and the
    reference run_sequence (in magnitude; it keeps the a^2 phase)."""
    closed = resonant_return_amplitudes(n_kicks, phi_d, beta, accel, params)
    engine = batched_return_amplitudes(
        n_kicks, phi_d, params.talbot_time, beta, accel, params,
        2 * auto_q_max(n_kicks, phi_d),
    )
    assert abs(closed[0] - engine[0]) <= 1e-10
    state, _ = run_sequence(
        SequenceSpec(n_kicks, phi_d, params.talbot_time, accel), beta, params
    )
    assert abs(abs(closed[0]) - abs(state.amplitude(0))) <= 1e-10


def _resonant_reference(n_kicks, phi_d, beta, accel, params):
    """The closed form in 40-digit arithmetic from the same float inputs:
    S = sum_k s_k exp(-4 pi i beta k + i theta k^2) and
    c_0 = exp(-4 pi i N beta^2 + i theta beta (2N)^2) J_0(phi_d |S|)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        b = mp.mpf(float(beta))
        theta = mp.mpf(params.kappa) * mp.mpf(float(accel)) * mp.mpf(params.talbot_time) ** 2 / 2
        s = mp.fsum(
            (1 if k < n_kicks else -1) * mp.expj(-4 * mp.pi * b * k + theta * k * k)
            for k in range(2 * n_kicks)
        )
        common = mp.expj(-4 * mp.pi * n_kicks * b * b + theta * b * (2 * n_kicks) ** 2)
        return complex(common * mp.besselj(0, mp.mpf(phi_d) * abs(s)))


@pytest.mark.parametrize(
    "n_kicks, bound", [(1, 1e-12), (7, 1e-12), (32, 1e-12), (150, 1e-12), (2000, 1e-10)]
)
def test_resonant_closed_form_matches_a_40_digit_evaluation(params, n_kicks, bound):
    """The closed form stays within rounding of its 40-digit evaluation on
    a (beta, accel) grid, where the phases theta_a k^2 reach 4e5 rad at
    N = 2000."""
    betas = np.array([-0.03, 0.0071, 0.03])
    accels = np.array([-0.7, 0.13, 0.7])
    got = resonant_return_amplitudes(n_kicks, 0.6, betas[:, None], accels[None, :], params)
    want = np.array(
        [[_resonant_reference(n_kicks, 0.6, b, a, params) for a in accels] for b in betas]
    )
    assert np.max(np.abs(got - want)) <= bound


@settings(max_examples=30, deadline=None)
@given(
    n_kicks=st.integers(min_value=1, max_value=60),
    betas=st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=1, max_size=20),
    accels=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=12),
    data=st.data(),
)
def test_resonant_amplitudes_do_not_depend_on_batching(params, n_kicks, betas, accels, data):
    """A (beta, accel) column has the same bits alone, at any place in an
    outer grid (any position in its tiles), and in the worker chunks of
    scans._evaluate for W = 2 and 3, on both resonant scan axes."""
    phi_d = 0.7
    bet, acc = np.array(betas), np.array(accels)
    grid = resonant_return_amplitudes(n_kicks, phi_d, bet[:, None], acc[None, :], params)
    i = data.draw(st.integers(min_value=0, max_value=bet.size - 1))
    j = data.draw(st.integers(min_value=0, max_value=acc.size - 1))
    alone = resonant_return_amplitudes(n_kicks, phi_d, bet[i], acc[j], params)
    assert np.array_equal(alone, grid[i, j : j + 1])
    recoil = params.recoil_momentum
    p0_alone = resonant_return_amplitudes(n_kicks, phi_d, bet[i] * recoil / recoil, acc[j], params)
    accel_alone = resonant_return_amplitudes(n_kicks, phi_d, 0.0, acc[j], params)
    p0_spec = SequenceSpec(n_kicks, phi_d, params.talbot_time, acc[j])
    accel_spec = SequenceSpec(n_kicks, phi_d, params.talbot_time)
    # Square as arrays, as scans._outputs does: a numpy scalar's ** 2 goes
    # through pow(), which was 1 ulp off the exact square at 0.2469119595947736.
    for workers in (2, 3):
        p0 = scans._evaluate(p0_spec, params, "p0", bet * recoil, workers)
        assert p0[i] == (np.abs(p0_alone) ** 2)[0]
        outputs = scans._evaluate(accel_spec, params, "accel", acc, workers)
        assert outputs[j] == (np.abs(accel_alone) ** 2)[0]


def test_resonant_amplitudes_of_no_columns_are_empty(params):
    """Empty betas or accels give an empty array in the broadcast shape."""
    none = resonant_return_amplitudes(5, 0.7, np.empty(0), 0.1, params)
    assert none.shape == (0,) and none.dtype == np.complex128
    grid = resonant_return_amplitudes(5, 0.7, np.zeros((3, 1)), np.empty(0), params)
    assert grid.shape == (3, 0)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=80),
    columns=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fold_sum_adds_the_rows_in_order(rows, columns, seed):
    """The fold sum of both fold engines has the bits of a plain loop over
    the rows, for any number of columns, one included."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((rows, columns)) + 1j * rng.standard_normal((rows, columns))
    free = np.exp(1j * rng.uniform(-math.pi, math.pi, (rows, columns)))
    weight = rng.choice([-1.0, 1.0, 2.0], rows)
    i0 = int(rng.integers(rows))
    total = np.zeros(columns, dtype=np.complex128)
    for q in range(rows):
        total += amps[q] ** 2 / free[q] * weight[q]
    assert np.array_equal(ladder._fold_sum(amps, free, weight, i0), free[i0] * total)


_ENGINES = {
    "resonant": "resonant_return_amplitudes",
    "folded": "folded_return_amplitudes",
    "batched": "batched_return_amplitudes",
}


@settings(max_examples=30, deadline=None)
@given(
    axis=st.sampled_from(["eps", "p0", "accel"]),
    detuned=st.booleans(),
    accel=st.sampled_from([0.0, 0.02]),
    n_kicks=st.integers(min_value=1, max_value=20),
    n_points=st.integers(min_value=2, max_value=9),
    lo=st.floats(min_value=-1.0, max_value=0.5),
    width=st.floats(min_value=0.1, max_value=1.0),
)
def test_return_amplitudes_equal_the_engine_they_choose(
    params, axis, detuned, accel, n_kicks, n_points, lo, width
):
    """On the columns of a scan window, return_amplitudes calls one engine
    and returns its amplitudes bit for bit: the closed form for p0 and
    accel scans at T_T, else the fold at zero acceleration (eps scans, and
    p0 scans off T_T), else both trains."""
    phi_d = 0.5
    period = params.talbot_time + (3e-9 if detuned else 0.0)
    values = np.linspace(lo, lo + width, n_points)
    periods, betas, accels = period, 0.0, accel
    if axis == "eps":
        periods = period + 2e-8 * values
    elif axis == "p0":
        betas = 0.05 * values
    else:
        accels = 0.05 * values
    if axis != "eps" and not detuned:
        engine = "resonant"
        want = resonant_return_amplitudes(n_kicks, phi_d, betas, accels, params)
    elif axis != "accel" and accel == 0.0:
        engine = "folded"
        want = folded_return_amplitudes(n_kicks, phi_d, periods, betas, params)
    else:
        engine = "batched"
        want = batched_return_amplitudes(n_kicks, phi_d, periods, betas, accels, params)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name, attr in _ENGINES.items():
            real = getattr(ladder, attr)
            mp.setattr(ladder, attr, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
        got = ladder.return_amplitudes(n_kicks, phi_d, periods, betas, accels, params)
    assert calls == [engine]
    assert got.shape == want.shape == (n_points,)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("engine", sorted(_ENGINES))
def test_engines_meet_the_perfect_echo_bound(params, engine):
    """Criterion 1's grid and bound on each engine that return_amplitudes
    chooses: at T_T, beta = 0 and zero acceleration every echo returns,
    |I - 1| < 1e-10 for N in (1, 10, 50, 200) and phi_d in (0.1, 0.5, 1)."""
    t_t = params.talbot_time
    columns = {"resonant": (0.0, 0.0), "folded": (t_t, 0.0), "batched": (t_t, 0.0, 0.0)}
    run = getattr(ladder, _ENGINES[engine])
    worst = 0.0
    for n_kicks in (1, 10, 50, 200):
        for phi_d in (0.1, 0.5, 1.0):
            amp = run(n_kicks, phi_d, *columns[engine], params).item()
            worst = max(worst, abs(abs(amp) ** 2 - 1.0))
    assert worst < 1e-10


def test_resonant_grid_stays_blocked(params):
    """20001 betas x 33 accels at N = 300, the size of a Gaussian
    acceleration curve's grid: the (betas x 2N) phase factor (183 MiB) is
    built in blocks, so the call holds little more than the 10 MiB
    output grid and its gathered copy (20.5 MiB measured; a per-column
    running product over the same grid held 137 MiB)."""
    betas = np.linspace(-0.004, 0.004, 20001)
    accels = np.linspace(0.0, 0.002, 33)
    tracemalloc.start()
    try:
        amps = resonant_return_amplitudes(300, 1.0, betas[None, :], accels[:, None], params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert amps.shape == (33, 20001)
    assert peak < 32 * 2**20


def test_batched_accelerated_matches_scalar_up_to_global_phase(params):
    """The batched runner drops the q-independent a^2 t^3 action term; the
    scalar path keeps it.  Their return amplitudes must differ by exactly
    exp(-i*m*a^2*(2NT)^3/(6*hbar)) and nothing else."""
    n_kicks, phi_d, accel = 6, 0.8, 0.02
    period = params.talbot_time
    seq = SequenceSpec(n_kicks, phi_d, period, accel=accel)
    final, output = run_sequence(seq, beta=0.0, params=params)
    scalar_amp = final.amplitude(0)
    batched_amp = batched_return_amplitudes(
        n_kicks, phi_d, period, 0.0, accel, params
    )[0]
    total_t = 2.0 * n_kicks * period
    global_phase = np.exp(
        -1j * params.mass * accel**2 * total_t**3 / (6.0 * HBAR)
    )
    assert abs(batched_amp * global_phase - scalar_amp) < 1e-10
    assert abs(abs(batched_amp) ** 2 - output) < 1e-12


def test_accelerated_interval_phase(params):
    """Phase added by one accelerated interval: -(1/hbar) * action with
    action = p^2 T/2m - (p a/2)(t1^2 - t0^2) + (m a^2/6)(t1^3 - t0^3)."""
    beta, accel, interval = 0.23, 0.5, 3
    period = params.talbot_time / 7.0
    t0 = (interval - 1) * period
    state = apply_kick(ground_state(beta, 20), 1.0)
    evolved = apply_free_evolution_accelerated(state, period, params, accel, t0)
    p = (state.q_values + beta) * HBAR * params.kappa
    t1 = t0 + period
    action = (
        p**2 * period / (2.0 * params.mass)
        - 0.5 * p * accel * (t1**2 - t0**2)
        + (params.mass * accel**2 / 6.0) * (t1**3 - t0**3)
    )
    expected = state.amps * np.exp(-1j * action / HBAR)
    assert np.max(np.abs(evolved.amps - expected)) < 1e-12


def test_momentum_history_structure(params):
    n_kicks, phi_d = 8, 0.5
    seq = SequenceSpec(n_kicks, phi_d, params.talbot_time)
    q_values, history = momentum_history(seq, beta=0.0, params=params)
    assert history.shape == (2 * n_kicks, q_values.size)
    q0 = int(np.nonzero(q_values == 0)[0][0])
    # After kick 1 the populations are J_q(phi_d)^2.
    assert history[0, q0] == pytest.approx(J0_HALF**2, rel=1e-12)
    # At resonance kicks compound ballistically during the first train:
    # the state after kick n is a single kick of strength n*phi_d, whose
    # momentum variance is (n*phi_d)^2/2 exactly.
    for n in (2, 5, 8):
        var = float(np.sum(q_values**2 * history[n - 1]))
        assert var == pytest.approx((n * phi_d) ** 2 / 2.0, rel=1e-10)
    # The second train walks back; the last record is the echo.
    assert history[-1, q0] == pytest.approx(1.0, abs=1e-10)


def test_momentum_history_sink_gets_the_history_in_bounded_blocks(params):
    """With a sink, the same rows arrive in order, in blocks of at most
    HISTORY_BLOCK_CELLS cells, and no history is returned."""
    seq = SequenceSpec(40, 2.0, params.talbot_time + 1e-9)
    q_values, history = momentum_history(seq, 0.1, params)
    blocks = []
    qs, none = momentum_history(
        seq, 0.1, params, sink=lambda q, block: blocks.append((q, block.copy()))
    )
    assert none is None and np.array_equal(qs, q_values)
    assert len(blocks) > 1
    assert all(b.size <= ladder.HISTORY_BLOCK_CELLS and q is qs for q, b in blocks)
    assert np.array_equal(np.concatenate([b for _, b in blocks]), history)


@pytest.mark.parametrize(
    "n_kicks, phi_d, detuning, beta, accel",
    [(20, 0.5, 0.0, 0.0, 0.0), (100, 12.5, 0.0, 0.0, 0.0), (30, 1.0, 2e-9, 0.1, 0.0),
     (40, 1.0, 0.0, 0.0, 0.01)],
)
def test_momentum_history_tile_width_keeps_the_bits(
    params, monkeypatch, n_kicks, phi_d, detuning, beta, accel
):
    """The history's lone column runs in HISTORY_TILE = 4 columns, half the
    scan engines' KICK_TILE, with the same bits (1- and 2-column tiles
    changed them)."""
    seq = SequenceSpec(n_kicks, phi_d, params.talbot_time + detuning, accel)
    assert ladder.HISTORY_TILE == 4
    _, narrow = momentum_history(seq, beta, params)
    monkeypatch.setattr(ladder, "HISTORY_TILE", ladder.KICK_TILE)
    _, wide = momentum_history(seq, beta, params)
    assert np.array_equal(narrow, wide)


@settings(max_examples=25, deadline=None)
@given(
    n_kicks=st.integers(min_value=1, max_value=8),
    phi_d=st.floats(min_value=0.0, max_value=1.5),
    detuning=st.floats(min_value=-3e-9, max_value=3e-9),
    beta=st.floats(min_value=-0.5, max_value=0.5),
    accel=st.floats(min_value=-0.5, max_value=0.5),
)
def test_momentum_history_matches_per_kick_reference(
    params, n_kicks, phi_d, detuning, beta, accel
):
    """Off resonance, off beta = 0 and under acceleration, the engine's
    recorded populations equal those of the per-kick reference, whose
    exact action keeps the global a^2 phase the engine drops."""
    seq = SequenceSpec(n_kicks, phi_d, params.talbot_time + detuning, accel)
    q_values, history = momentum_history(seq, beta, params)
    state = ground_state(beta, (q_values.size - 1) // 2)
    record = []
    for sign, t_offset in ((+1, 0.0), (-1, n_kicks * seq.period)):
        state = _reference_train(
            state, n_kicks, phi_d, sign, seq.period, params, accel, t_offset, record
        )
    assert history.shape == (2 * n_kicks, q_values.size)
    assert np.max(np.abs(history - np.array(record))) <= 1e-12


def test_gaussian_output_plane_wave_limit(params):
    """A very wide packet has a delta-like momentum density, so the
    coherent average must collapse onto the beta = 0 fiber output."""
    seq = SequenceSpec(10, 0.5, params.talbot_time + 2e-9)
    wide = gaussian_output(seq, WavepacketSpec(sigma_x=0.1), params)
    _, fiber = run_sequence(seq, beta=0.0, params=params)
    assert wide == pytest.approx(fiber, abs=1e-5)


def test_gaussian_output_frozen_resonance_deficit(params):
    """sigma_x = 100 um at exact resonance: the finite momentum spread
    suppresses the echo below 1 (frozen regression value)."""
    seq = SequenceSpec(20, 0.5, params.talbot_time)
    value = gaussian_output(seq, WavepacketSpec(sigma_x=100e-6), params)
    assert value == pytest.approx(0.7468264378765547, rel=1e-8)


def test_gaussian_output_against_grid_oracle(params):
    """Independent check of the whole coherent-average machinery: evolve
    an actual Gaussian on a wide position grid and take the overlap."""
    seq = SequenceSpec(6, 0.8, params.talbot_time + 2e-8)
    wavepacket = WavepacketSpec(sigma_x=2e-6)
    fiber = gaussian_output(seq, wavepacket, params, tol=1e-7)
    grid = delta_wavepacket_grid_output(
        seq.n_kicks, seq.phi_d, seq.period, wavepacket, params
    )
    assert fiber == pytest.approx(grid, abs=5e-7)


def test_gaussian_output_mirrors_the_nonnegative_nodes(params, monkeypatch):
    """Without acceleration only the beta >= 0 Gauss-Hermite nodes are run,
    and mirroring their amplitudes matches running every node to 1e-15;
    under acceleration every node runs."""
    wp = WavepacketSpec(sigma_x=5e-6)
    seen = []

    def spy(*args):
        seen.append(np.asarray(args[3]))
        return batched_return_amplitudes(*args)

    monkeypatch.setattr(ladder, "batched_return_amplitudes", spy)
    seq = SequenceSpec(8, 0.5, params.talbot_time + 2e-9)
    folded = gaussian_output(seq, wp, params)
    assert len(seen) >= 2
    assert all(b[0] == 0.0 and np.all(b[1:] > 0.0) for b in seen)
    betas, weights = gaussian_beta_nodes(wp, params, 2 * seen[-1].size - 1)
    amps = batched_return_amplitudes(seq.n_kicks, seq.phi_d, seq.period, betas, 0.0, params)
    assert abs(folded - abs(np.dot(weights, amps)) ** 2) <= 1e-15

    seen.clear()
    gaussian_output(SequenceSpec(8, 0.5, params.talbot_time + 2e-9, 0.01), wp, params)
    assert seen and all(b.size % 2 == 1 and b[0] < 0.0 for b in seen)


def test_gaussian_echo_keeps_its_edge_failure_on_half_the_nodes(params, monkeypatch):
    """The N = 40, phi_d = 0.5, sigma_x = 100 um echo still fails the edge
    gate in the reversed train of its outer nodes when only the beta >= 0
    half runs, with the same message."""
    seen = []

    def spy(*args):
        seen.append(np.asarray(args[3]))
        return batched_return_amplitudes(*args)

    monkeypatch.setattr(ladder, "batched_return_amplitudes", spy)
    with pytest.raises(TruncationError) as err:
        gaussian_output(
            SequenceSpec(40, 0.5, params.talbot_time), WavepacketSpec(sigma_x=100e-6), params
        )
    assert str(err.value) == (
        "edge-band population 1.452e-12 exceeds 1e-12 on ladder with q_max = 49; "
        "rerun with a wider ladder"
    )
    assert seen and all(np.all(b >= 0.0) for b in seen)


def _scaled_rules(totals, taken):
    """Five-node rules whose weights sum to each of totals in turn; taken
    records the rules the loop draws."""
    for total in totals:
        taken.append(total)
        yield np.linspace(-1.0, 1.0, 5), np.full(5, total / 5.0)


def _unit_phase(betas):
    return np.full(betas.size, np.exp(0.3j))


def test_fiber_average_stops_at_the_first_agreeing_pair():
    """The loop returns the result of the first rule that agrees with the
    one before to tol (relative), and draws no further rule."""
    taken = []
    totals = [1.0, 0.9, 0.9 + 1e-5, 0.5, 0.5]
    val = ladder._fiber_average(_unit_phase, _scaled_rules(totals, taken), 1e-3)
    assert taken == totals[:3]
    assert val == pytest.approx((0.9 + 1e-5) ** 2, rel=1e-12)


def test_fiber_average_even_mirrors_a_symmetric_rule():
    """With even set, amplitudes sees only the nodes from beta = 0 on, and
    the mirrored average equals running every node."""
    betas = np.linspace(-2.0, 2.0, 9)
    weights = np.exp(-0.5 * betas**2)
    weights /= weights.sum()
    seen = []

    def amplitudes(b):
        seen.append(b)
        return np.exp(1j * b**2) * np.cos(b)

    full = ladder._fiber_average(amplitudes, [(betas, weights)] * 2, 1e-12)
    seen.clear()
    half = ladder._fiber_average(amplitudes, [(betas, weights)] * 2, 1e-12, even=True)
    assert all(np.array_equal(b, betas[4:]) for b in seen) and len(seen) == 2
    assert half == full


def test_fiber_average_reduces_along_the_last_axis():
    """Amplitudes of shape (curve points, nodes), as the acceleration curve
    passes, give one average per curve point."""
    betas = np.linspace(-1.0, 1.0, 7)
    weights = np.full(7, 1.0 / 7.0)
    scale = np.array([1.0, 0.5, 0.25])

    def amplitudes(b):
        return scale[:, None] * np.exp(1j * b)[None, :]

    val = ladder._fiber_average(amplitudes, [(betas, weights)] * 2, 1e-12)
    assert val.shape == (3,)
    np.testing.assert_allclose(val, np.abs(amplitudes(betas) @ weights) ** 2, rtol=1e-15)


def test_fiber_average_raises_when_the_rules_run_out():
    """No two successive results agree: ConvergenceError names the tolerance
    and the finest rule, with a finite achieved tolerance."""
    rules = _scaled_rules([1.0, 0.9, 0.8], [])
    with pytest.raises(ConvergenceError) as err:
        ladder._fiber_average(_unit_phase, rules, 1e-6)
    assert str(err.value) == (
        "wavepacket average not stable to 1e-06 on its finest rule of 5 nodes"
    )
    assert err.value.achieved == pytest.approx((0.81 - 0.64) / 0.64)


MAX_NODES = ladder.MAX_FIBER_NODES


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=MAX_NODES))
@example(33)
@example(65)
@example(129)
@example(257)
@example(513)
@example(1025)
@example(2049)
@example(MAX_NODES)
def test_gaussian_beta_nodes_finite_and_normalised(params, n_nodes):
    """Every rule the doubling loop can ask for has finite nodes and
    weights summing to 1 (numpy's hermgauss gives NaN weights from 513)."""
    betas, weights = gaussian_beta_nodes(WavepacketSpec(sigma_x=100e-6), params, n_nodes)
    assert betas.shape == weights.shape == (n_nodes,)
    assert np.isfinite(betas).all() and np.isfinite(weights).all()
    assert (weights >= 0.0).all()
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_kick_kernel_validation():
    with pytest.raises(ValueError):
        kick_kernel(-0.5)
    with pytest.raises(ValueError):
        kick_kernel(0.5, sign=2)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            kick_kernel(bad)


def test_sequence_spec_validation(params):
    with pytest.raises(ValueError):
        SequenceSpec(0, 0.5, params.talbot_time)
    with pytest.raises(ValueError):
        SequenceSpec(5, -0.1, params.talbot_time)
    with pytest.raises(ValueError):
        SequenceSpec(5, 0.5, 0.0)
    for bad in (
        dict(phi_d=math.nan),
        dict(phi_d=math.inf),
        dict(period=math.inf),
        dict(period=math.nan),
        dict(accel=math.inf),
        dict(accel=math.nan),
    ):
        kwargs = {"n_kicks": 5, "phi_d": 0.5, "period": params.talbot_time, **bad}
        with pytest.raises(ValueError, match="finite"):
            SequenceSpec(**kwargs)


def test_truncation_error_on_narrow_ladder(params):
    with pytest.raises(TruncationError):
        apply_kick(ground_state(0.0, 8), 20.0)


def test_ground_state():
    g = ground_state(0.1, 12)
    assert g.population(0) == 1.0
    assert float(np.sum(g.populations())) == pytest.approx(1.0)
    for q_max in (5, 7.5):
        with pytest.raises(ValueError, match="q_max"):
            ground_state(0.0, q_max)


def test_auto_q_max_monotone():
    values = [auto_q_max(n, 0.5) for n in (1, 10, 50, 200)]
    assert values == sorted(values)
    assert auto_q_max(10, 2.0) > auto_q_max(10, 0.5)


@settings(max_examples=25, deadline=None)
@given(
    phi_d=st.floats(min_value=0.0, max_value=3.0),
    beta=st.floats(min_value=-0.5, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kick_preserves_norm(phi_d, beta, seed):
    rng = np.random.default_rng(seed)
    state = _random_state(rng, q_max=45, spread=6, beta=beta)
    kicked = apply_kick(state, phi_d)
    assert float(np.sum(kicked.populations())) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    t_frac=st.floats(min_value=0.0, max_value=2.0),
    beta=st.floats(min_value=-0.5, max_value=0.5),
)
def test_free_evolution_preserves_populations(t_frac, beta):
    from kickecho.params import rb85_params

    params = rb85_params()
    rng = np.random.default_rng(3)
    state = _random_state(rng, q_max=15, spread=5, beta=beta)
    evolved = apply_free_evolution(state, t_frac * params.talbot_time, params)
    np.testing.assert_allclose(
        evolved.populations(), state.populations(), atol=1e-14
    )
