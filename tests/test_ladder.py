"""Delta-kick ladder engine vs position-space oracles and exact symmetries.

The kick operator has an exact position representation (multiply by
exp(-i*phi_d*cos(kappa x))), so a DFT on a fine angle grid is an
independent oracle for the Bessel convolution.  Free evolution phases
are pinned by the Talbot identity tested in test_params.  Everything
else here is symmetry: unitarity, parity, time reversal, revival.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kickecho import ladder
from kickecho.errors import TruncationError
from kickecho.finite_pulse import delta_wavepacket_grid_output
from kickecho.ladder import (
    EDGE_BAND,
    LadderState,
    SequenceSpec,
    WavepacketSpec,
    apply_free_evolution,
    apply_free_evolution_accelerated,
    apply_kick,
    at_resonance,
    auto_q_max,
    basis_state,
    batched_return_amplitudes,
    folded_return_amplitudes,
    gaussian_output,
    ground_state,
    kick_kernel,
    momentum_history,
    resonant_return_amplitudes,
    run_sequence,
    train_matrix,
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
    seq = at_resonance(10, 0.8, params)
    final, output = run_sequence(seq, beta=0.0, params=params)
    assert output == pytest.approx(1.0, abs=1e-10)
    target = np.zeros_like(final.amps)
    target[final.q_max] = 1.0
    assert np.max(np.abs(final.amps - target)) < 1e-10


def test_detuned_output_frozen_value(params):
    seq = at_resonance(50, 0.5, params, detuning=3e-9)
    _, output = run_sequence(seq, beta=0.0, params=params)
    assert output == pytest.approx(I_N50_EPS3NS, rel=1e-10)


def test_output_even_in_beta(params):
    seq = at_resonance(12, 0.6, params, detuning=5e-9)
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
        with pytest.raises(ValueError, match="q_max"):
            train_matrix(4, 0.5, t, 0.0, params, q_max=q_max)


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
    seq = at_resonance(n_kicks, phi_d, params)
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


def test_train_matrix_matches_state_evolution(params):
    n_kicks, phi_d, beta = 5, 0.9, 0.13
    period = params.talbot_time + 1e-9
    qs, u = train_matrix(n_kicks, phi_d, period, beta, params)
    q_max = (qs.size - 1) // 2
    state = ground_state(beta, q_max)
    evolved = _reference_train(state, n_kicks, phi_d, +1, period, params)
    np.testing.assert_allclose(u[:, q_max], evolved.amps, atol=1e-12)
    # Unitarity of the truncated train matrix away from the edges.
    inner = slice(q_max - 10, q_max + 11)
    gram = (u.conj().T @ u)[inner, inner]
    np.testing.assert_allclose(gram, np.eye(21), atol=1e-9)


def test_gaussian_output_plane_wave_limit(params):
    """A very wide packet has a delta-like momentum density, so the
    coherent average must collapse onto the beta = 0 fiber output."""
    seq = at_resonance(10, 0.5, params, detuning=2e-9)
    wide = gaussian_output(seq, WavepacketSpec(sigma_x=0.1), params)
    _, fiber = run_sequence(seq, beta=0.0, params=params)
    assert wide == pytest.approx(fiber, abs=1e-5)


def test_gaussian_output_frozen_resonance_deficit(params):
    """sigma_x = 100 um at exact resonance: the finite momentum spread
    suppresses the echo below 1 (frozen regression value)."""
    seq = at_resonance(20, 0.5, params)
    value = gaussian_output(seq, WavepacketSpec(sigma_x=100e-6), params)
    assert value == pytest.approx(0.7468264378765547, rel=1e-8)


def test_gaussian_output_against_grid_oracle(params):
    """Independent check of the whole coherent-average machinery: evolve
    an actual Gaussian on a wide position grid and take the overlap."""
    seq = at_resonance(6, 0.8, params, detuning=2e-8)
    wavepacket = WavepacketSpec(sigma_x=2e-6)
    fiber = gaussian_output(seq, wavepacket, params, tol=1e-7)
    grid = delta_wavepacket_grid_output(
        seq.n_kicks, seq.phi_d, seq.period, wavepacket, params
    )
    assert fiber == pytest.approx(grid, abs=5e-7)


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


def test_basis_state_and_ground_state():
    g = ground_state(0.1, 12)
    b = basis_state(0.1, 12, 3)
    assert g.population(0) == 1.0
    assert b.population(3) == 1.0
    assert g.norm() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        basis_state(0.0, 5, 9)
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
    assert kicked.norm() == pytest.approx(1.0, abs=1e-10)


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
