"""Finite-pulse propagation: limits, cross-validated propagators, and the
independent position-grid oracle."""

import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    GridResolutionError,
    apply_finite_pulse,
    splitstep_fiber,
    splitstep_output,
)

from kickecho import finite_pulse
from kickecho.analytic import fwhm_eps
from kickecho.errors import TruncationError
from kickecho.finite_pulse import (
    FinitePulseSpec,
    auto_q_max_finite,
    finite_return_amplitudes,
    pulse_propagator,
    run_finite_sequence,
)
from kickecho.ladder import (
    EDGE_BAND,
    SequenceSpec,
    _check_edges,
    auto_q_max,
    ground_state,
    run_sequence,
)
from kickecho.params import HBAR, v0_from_gamma

# Mid-fringe output of a moderately deep, moderately long sequence, frozen
# from an adaptive-splitting run cross-checked against the position-grid
# oracle (gamma = 10, tau_p = 5 us, 4 + 4 pulses at the resonant period).
I_GAMMA10_TAU5US_N4 = 0.5940461833971995


def test_zero_depth_pulse_is_free_flight(params):
    spec = FinitePulseSpec(3, 0.0, 1e-6, params.talbot_time)
    state, val = run_finite_sequence(spec, 0.0, params)
    assert val == pytest.approx(1.0, abs=1e-12)
    assert state.population(0) == pytest.approx(1.0, abs=1e-12)


def test_zero_duration_pulse_is_identity(params):
    spec = FinitePulseSpec(3, v0_from_gamma(5.0, params), 0.0, params.talbot_time)
    assert spec.phi_d == 0.0
    st = ground_state(0.2, 12)
    out = apply_finite_pulse(st, spec, +1, params)
    np.testing.assert_array_equal(out.amps, st.amps)
    _, val = run_finite_sequence(spec, 0.3, params)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_pulse_propagator_is_unitary(params):
    spec = FinitePulseSpec(2, v0_from_gamma(10.0, params), 2e-6, params.talbot_time)
    u = pulse_propagator(spec, 0.13, 18, -1, params)
    np.testing.assert_allclose(
        u @ u.conj().T, np.eye(u.shape[0]), atol=1e-12
    )


def test_adaptive_splitting_matches_eigendecomposition(params):
    spec = FinitePulseSpec(2, v0_from_gamma(8.0, params), 2e-6, params.talbot_time)
    st = ground_state(0.17, auto_q_max_finite(spec, params))
    a = apply_finite_pulse(st, spec, +1, params)
    exact = pulse_propagator(spec, st.beta, st.q_max, +1, params) @ st.amps
    np.testing.assert_allclose(a.amps, exact, atol=1e-8)


def test_frozen_midfringe_output(params):
    spec = FinitePulseSpec(4, v0_from_gamma(10.0, params), 5e-6, params.talbot_time)
    _, val = run_finite_sequence(spec, 0.0, params)
    assert val == pytest.approx(I_GAMMA10_TAU5US_N4, rel=1e-10)


def test_short_pulses_approach_delta_kicks(params):
    """At fixed kick strength the finite-pulse output converges to the
    delta-kick output as tau_p shrinks, with the leading error linear in
    tau_p (kinetic motion during the pulse)."""
    n_kicks, phi_d = 8, 0.7
    eps = 0.5 * fwhm_eps(n_kicks, phi_d, params)
    period = params.talbot_time + eps
    _, i_delta = run_sequence(SequenceSpec(n_kicks, phi_d, period), 0.0, params)
    errs = []
    for tau in (50e-9, 100e-9, 200e-9):
        spec = FinitePulseSpec(n_kicks, 2.0 * HBAR * phi_d / tau, tau, period)
        _, i_fin = run_finite_sequence(spec, 0.0, params)
        errs.append(abs(i_fin - i_delta))
    assert errs[0] < 2e-3
    assert 1.6 < errs[1] / errs[0] < 2.5
    assert 1.6 < errs[2] / errs[1] < 2.5


def test_splitstep_oracle_agrees_with_ladder_evolution(params):
    """Randomized sequences: the position-grid split-step oracle and the
    ladder eigendecomposition path agree amplitude by amplitude, absolute
    phases included (no gauge freedom between them)."""
    rng = np.random.default_rng(20260816)
    for _ in range(5):
        gamma = float(rng.uniform(0.5, 15.0))
        tau = float(rng.uniform(0.5e-6, 3e-6))
        n = int(rng.integers(1, 5))
        beta = float(rng.uniform(-0.5, 0.5))
        period = params.talbot_time * (1.0 + float(rng.uniform(-0.05, 0.05)))
        spec = FinitePulseSpec(n, v0_from_gamma(gamma, params), tau, period)
        state, val = run_finite_sequence(spec, beta, params)
        qs_g, c_g = splitstep_fiber(spec, beta, params)
        sel = (qs_g >= -state.q_max) & (qs_g <= state.q_max)
        np.testing.assert_allclose(state.amps, c_g[sel], atol=1e-9)
        assert splitstep_output(spec, params, beta) == pytest.approx(val, abs=1e-9)


def test_fold_meets_the_oracle_bound(params):
    """Criterion 6's ten draws and bound on the engine the finite-pulse
    kinds run: the folded c_0 of finite_return_amplitudes is within 1e-6
    of the position-grid split-step oracle's, phase included."""
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(10):
        gamma = float(rng.uniform(0.5, 15.0))
        tau = float(rng.uniform(0.3e-6, 3e-6))
        n = int(rng.integers(1, 9))
        beta = float(rng.uniform(-0.5, 0.5))
        period = params.talbot_time * (1.0 + float(rng.uniform(-0.05, 0.05)))
        spec = FinitePulseSpec(n, v0_from_gamma(gamma, params), tau, period)
        c0 = finite_return_amplitudes(n, spec.v0, tau, period, beta, params).item()
        qs_g, c_g = splitstep_fiber(spec, beta, params)
        worst = max(worst, abs(c0 - c_g[qs_g == 0].item()))
    assert worst < 1e-6


def test_energy_bound_narrows_ladder_for_long_deep_pulses(params):
    """Long deep pulses cannot ballistically reach the Raman-Nath momentum:
    the energy estimate takes over, and the narrowed ladder still conserves
    norm through a full run."""
    spec = FinitePulseSpec(4, v0_from_gamma(100.0, params), 10e-6, params.talbot_time)
    assert auto_q_max_finite(spec, params) < auto_q_max(spec.n_pulses, spec.phi_d)
    _, val = run_finite_sequence(spec, 0.0, params)
    assert 0.0 <= val <= 1.0 + 1e-12


def test_batched_outputs_match_scalar_runs(params):
    periods = params.talbot_time + np.array([-2e-9, 0.0, 3e-9])
    spec_args = (3, v0_from_gamma(4.0, params), 1.5e-6)
    batched = np.abs(finite_return_amplitudes(*spec_args, periods, 0.1, params)) ** 2
    for period, want in zip(periods, batched):
        spec = FinitePulseSpec(*spec_args, float(period))
        _, val = run_finite_sequence(spec, 0.1, params)
        assert val == pytest.approx(float(want), rel=1e-10)


@settings(max_examples=25, deadline=None)
@example(gamma=12.0, n_pulses=21, tau_us=1.5, offsets=[0.0], beta=0.0)
@given(
    gamma=st.floats(min_value=0.5, max_value=60.0),
    n_pulses=st.integers(min_value=1, max_value=24),
    tau_us=st.floats(min_value=0.1, max_value=4.0),
    offsets=st.lists(
        st.floats(min_value=-0.04, max_value=0.04), min_size=1, max_size=3
    ),
    beta=st.one_of(st.just(0.0), st.floats(min_value=-0.5, max_value=0.5)),
)
def test_folded_echo_matches_two_train_run(
    params, gamma, n_pulses, tau_us, offsets, beta
):
    """Time reversal (any beta) and parity (beta = 0) fold the echo onto its
    forward train; the folded return amplitudes equal those of the full
    two-train run, phases included.  The explicit example is where a
    two-train ladder sized for n_pulses pulses fills its edge band."""
    v0 = v0_from_gamma(gamma, params)
    periods = params.talbot_time * (1.0 + np.array(offsets))
    folded = finite_return_amplitudes(
        n_pulses, v0, tau_us * 1e-6, periods, beta, params
    )
    for period, amp in zip(periods, folded):
        spec = FinitePulseSpec(n_pulses, v0, tau_us * 1e-6, float(period))
        state, _ = run_finite_sequence(spec, beta, params)
        assert abs(amp - state.amplitude(0)) <= 1e-10


@pytest.mark.parametrize("beta", [0.0, 0.2])
def test_folded_echo_rejects_a_narrow_ladder(params, beta):
    spec = FinitePulseSpec(16, v0_from_gamma(20.0, params), 1e-6, params.talbot_time)
    narrow = 12  # auto_q_max_finite picks 39; at 12 both fibers fill the edge band
    with pytest.raises(TruncationError):
        run_finite_sequence(spec, beta, params, q_max=narrow)
    with pytest.raises(TruncationError):
        finite_return_amplitudes(
            spec.n_pulses, spec.v0, spec.tau_p, spec.period, beta, params, q_max=narrow
        )


def test_auto_ladder_retries_once_on_twice_the_estimate(params, monkeypatch, caplog):
    """An estimate too narrow for the run costs one rerun on twice its
    width, logged at DEBUG with both widths; the result equals a run on
    the wider ladder that the energy bound used to give (23 here)."""
    n_pulses, v0, tau = 6, v0_from_gamma(3.0, params), 1.5e-6
    periods = params.talbot_time * (1.0 + np.array([[-0.01], [0.0], [0.02]]))
    betas = np.array([[0.0, 0.2]])
    want = finite_return_amplitudes(n_pulses, v0, tau, periods, betas, params, q_max=23)
    with pytest.raises(TruncationError):
        finite_return_amplitudes(n_pulses, v0, tau, periods, betas, params, q_max=8)
    monkeypatch.setattr(finite_pulse, "auto_q_max_finite", lambda *args, **kw: 8)
    caplog.set_level(logging.DEBUG, logger="kickecho.finite_pulse")
    got = finite_return_amplitudes(n_pulses, v0, tau, periods, betas, params)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    state, _ = run_finite_sequence(
        FinitePulseSpec(n_pulses, v0, tau, params.talbot_time), 0.2, params
    )
    assert state.q_max == 16
    assert abs(state.amplitude(0) - want[1, 1]) <= 1e-12
    assert len(caplog.records) == 3  # one per beta group, one for the two-train run
    for record in caplog.records:
        assert record.levelno == logging.DEBUG
        assert "q_max = 8 " in record.getMessage()
        assert record.getMessage().endswith("retrying on q_max = 16")


def _edge_spy(mp, seen):
    """Record every edge-band population that either engine gates."""
    gate = finite_pulse._check_edges

    def edges(amps, q_max, even=False, weight=1.0):
        band = amps[-EDGE_BAND:] if even else np.concatenate([amps[:EDGE_BAND], amps[-EDGE_BAND:]])
        seen.append(weight * float(np.abs(band).max()) ** 2)
        gate(amps, q_max, even, weight)

    mp.setattr(finite_pulse, "_check_edges", edges)


@settings(max_examples=12, deadline=None)
@given(
    log_gamma=st.floats(min_value=math.log(0.5), max_value=math.log(1000.0)),
    n_pulses=st.integers(min_value=1, max_value=160),
    log_tau=st.floats(min_value=math.log(0.03), max_value=math.log(10.0)),
    multiple=st.sampled_from([1, 2]),
    widths=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=3),
    beta=st.one_of(st.just(0.0), st.floats(min_value=-0.5, max_value=0.5)),
)
# A half-Talbot pulse at gamma = 1, the least margin of the energy bound.
@example(log_gamma=0.0, n_pulses=29, log_tau=2.25, multiple=1, widths=[0.0], beta=0.0)
def test_auto_ladders_keep_a_margin_below_the_edge_gate(
    params, log_gamma, n_pulses, log_tau, multiple, widths, beta
):
    """Across the config caps (gamma in 0.5-1000, N <= 160, pulse area
    <= 100, tau_p within 0.03-10 times 22 us / sqrt(gamma N) and at most
    T_T/2), within two predicted widths of T_T and 2 T_T, both engines'
    automatic ladders keep the edge band at or below 1e-15, three decades
    under EDGE_TOL: the estimates never lean on the retry."""
    gamma = math.exp(log_gamma)
    area_cap = 100.0 / (gamma * params.ladder_phase_rate)
    tau = min(math.exp(log_tau) * 22e-6 / math.sqrt(gamma * n_pulses),
              0.5 * params.talbot_time, area_cap)
    v0 = v0_from_gamma(gamma, params)
    spec = FinitePulseSpec(n_pulses, v0, tau, multiple * params.talbot_time)
    # At most T_T/4 per width, so that every period stays above T_T/2 >= tau.
    width = min(fwhm_eps(n_pulses, spec.phi_d, params), 0.25 * params.talbot_time)
    periods = spec.period + width * np.array(widths)
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        _edge_spy(mp, seen)
        finite_return_amplitudes(n_pulses, v0, tau, periods, beta, params)
        run_finite_sequence(
            FinitePulseSpec(n_pulses, v0, tau, float(periods[0])), beta, params
        )
    assert max(seen) <= 1e-15


def _full_ladder_windows(mp):
    """Run every pulse of the fold on the whole ladder q_max."""
    mp.setattr(finite_pulse, "_pulse_windows", lambda spec, params, q_max: [q_max] * spec.n_pulses)


@settings(max_examples=25, deadline=None)
@given(
    log_gamma=st.floats(min_value=math.log(0.5), max_value=math.log(300.0)),
    n_pulses=st.integers(min_value=1, max_value=64),
    log_tau=st.floats(min_value=math.log(0.03), max_value=math.log(10.0)),
    eps=st.floats(min_value=-0.02, max_value=0.02),
    beta=st.one_of(st.just(0.0), st.floats(min_value=-0.5, max_value=0.5)),
)
def test_grown_ladder_matches_the_full_ladder(params, log_gamma, n_pulses, log_tau, eps, beta):
    """On its own estimate the fold runs pulse k on the window that k
    pulses need; c_0 equals the run with every pulse on the full ladder of
    the same width to 1e-13."""
    gamma = math.exp(log_gamma)
    area_cap = 100.0 / (gamma * params.ladder_phase_rate)
    tau = min(math.exp(log_tau) * 22e-6 / math.sqrt(gamma * n_pulses),
              0.5 * params.talbot_time, area_cap)
    v0 = v0_from_gamma(gamma, params)
    period = params.talbot_time * (1.0 + eps)
    q_max = auto_q_max_finite(FinitePulseSpec(n_pulses, v0, tau, period), params)
    grown = finite_return_amplitudes(n_pulses, v0, tau, period, beta, params)
    with pytest.MonkeyPatch.context() as mp:
        _full_ladder_windows(mp)
        full = finite_return_amplitudes(n_pulses, v0, tau, period, beta, params, q_max)
    assert abs(complex(grown[0]) - complex(full[0])) <= 1e-13


def test_pulse_windows_are_the_estimates_of_each_pulse_count(params):
    """The windows on the engine's estimate are auto_q_max_finite for 1 .. N
    pulses, end on the ladder, and double with it."""
    for gamma, n, tau in ((1.0, 128, 1.9e-6), (10.0, 64, 0.9e-6), (100.0, 32, 0.4e-6),
                          (0.5, 3, 40e-6)):
        spec = FinitePulseSpec(n, v0_from_gamma(gamma, params), tau, params.talbot_time)
        q_max = auto_q_max_finite(spec, params)
        windows = finite_pulse._pulse_windows(spec, params, q_max)
        want = [auto_q_max_finite(dataclasses.replace(spec, n_pulses=k), params)
                for k in range(1, n + 1)]
        assert windows == want and windows[-1] == q_max
        assert finite_pulse._pulse_windows(spec, params, 2 * q_max) == [2 * w for w in want]


def test_pulse_eigenbasis_is_kept_for_one_ladder(params, monkeypatch):
    """Durations on one ladder share one eigensolve, and the propagator is
    bit-identical to a fresh build; a different v0, beta, q_max, sign or
    sector solves again.  A 0-d array beta keys the cache as its float."""
    import scipy.linalg

    solve = scipy.linalg.eigh_tridiagonal
    calls = []

    def spy(*args, **kw):
        calls.append(args)
        return solve(*args, **kw)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spy)
    finite_pulse._pulse_eigenbasis.cache_clear()
    v0 = v0_from_gamma(10.0, params)
    short, long = (FinitePulseSpec(4, v0, tau, params.talbot_time) for tau in (1e-6, 2.5e-6))
    u_short = pulse_propagator(short, 0.0, 20, +1, params, even=True)
    u_long = pulse_propagator(long, 0.0, 20, +1, params, even=True)
    assert len(calls) == 1
    finite_pulse._pulse_eigenbasis.cache_clear()
    assert np.array_equal(pulse_propagator(long, 0.0, 20, +1, params, even=True), u_long)
    assert len(calls) == 2
    assert np.array_equal(pulse_propagator(short, 0.0, 20, +1, params, even=True), u_short)
    assert len(calls) == 2
    other = FinitePulseSpec(4, 2.0 * v0, 1e-6, params.talbot_time)
    for args in ((other, 0.0, 20, +1), (short, 0.1, 20, +1), (short, 0.0, 21, +1),
                 (short, 0.0, 20, -1)):
        pulse_propagator(*args, params, even=args[1] == 0.0)
        pulse_propagator(short, 0.0, 20, +1, params, even=True)
    pulse_propagator(short, 0.0, 20, +1, params)
    assert len(calls) == 2 + 2 * 4 + 1
    u = pulse_propagator(short, np.array(0.1), 20, +1, params)
    assert np.array_equal(u, pulse_propagator(short, 0.1, 20, +1, params))
    assert len(calls) == 2 + 2 * 4 + 2


@pytest.mark.parametrize("q_max", [8, 12])
def test_even_sector_gate_reports_rung_populations(params, q_max, monkeypatch):
    """At beta = 0 the fold runs the even sector, whose amplitudes are
    sqrt(2) c_q, and gates half their square: the rung population |c_q|^2
    that the two-train run gates on the full ladder, at the same pulse,
    when every pulse of the fold runs on the full ladder too."""
    _full_ladder_windows(monkeypatch)
    spec = FinitePulseSpec(8, v0_from_gamma(10.0, params), 2e-6, 1.01 * params.talbot_time)
    with pytest.raises(TruncationError) as folded:
        finite_return_amplitudes(8, spec.v0, spec.tau_p, spec.period, 0.0, params, q_max)
    with pytest.raises(TruncationError) as full:
        run_finite_sequence(spec, 0.0, params, q_max)
    assert str(folded.value) == str(full.value)


@pytest.mark.parametrize("q_max", [8, 12])
def test_fold_gate_names_the_ladder_the_caller_set(params, q_max):
    """A gate failure of the fold names the explicit ladder q_max, the
    width a caller can widen, not the narrower window of the pulse that
    failed."""
    v0 = v0_from_gamma(10.0, params)
    with pytest.raises(TruncationError, match=rf"on ladder with q_max = {q_max};"):
        finite_return_amplitudes(8, v0, 2e-6, 1.01 * params.talbot_time, 0.0, params, q_max)


def test_non_finite_inputs_fail_closed(params):
    t_t = params.talbot_time
    with pytest.raises(ValueError, match="finite"):
        finite_return_amplitudes(4, 1e-29, 1e-6, [math.inf, t_t], 0.0, params)
    with pytest.raises(ValueError, match="finite"):
        finite_return_amplitudes(4, 1e-29, 1e-6, t_t, [0.0, math.nan], params)
    with pytest.raises(ValueError, match="finite"):
        finite_return_amplitudes(4, math.nan, 1e-6, t_t, 0.0, params)
    with pytest.raises(ValueError, match="finite"):
        finite_return_amplitudes(4, 1e-29, math.inf, t_t, 0.0, params)
    for q_max in (-1, 2.5):
        with pytest.raises(ValueError, match="q_max"):
            finite_return_amplitudes(4, 1e-29, 1e-6, t_t, 0.0, params, q_max)
    amps = np.zeros(21, dtype=np.complex128)
    amps[10] = 1.0
    amps[0] = math.nan
    with pytest.raises(TruncationError):
        _check_edges(amps, 10)


def test_spec_validation():
    with pytest.raises(ValueError):
        FinitePulseSpec(0, 1e-29, 1e-6, 1e-4)
    with pytest.raises(ValueError):
        FinitePulseSpec(2, -1e-29, 1e-6, 1e-4)
    with pytest.raises(ValueError):
        FinitePulseSpec(2, 1e-29, 2e-4, 1e-4)  # tau_p > period
    with pytest.raises(ValueError):
        FinitePulseSpec(2, 1e-29, 1e-6, 0.0)
    with pytest.raises(ValueError):
        FinitePulseSpec(2, 1e-29, 1e-6, math.inf)
    with pytest.raises(TypeError):
        FinitePulseSpec(2, 1e-29, 1e-6, 1e-4, accel=0.5)


def test_sign_and_method_validation(params):
    spec = FinitePulseSpec(2, v0_from_gamma(2.0, params), 1e-6, params.talbot_time)
    st = ground_state(0.0, 10)
    with pytest.raises(ValueError):
        apply_finite_pulse(st, spec, 2, params)
    with pytest.raises(ValueError):
        finite_return_amplitudes(2, 1e-29, 2e-6, 1e-6, 0.0, params)  # period < tau_p


def test_grid_too_coarse_is_rejected(params):
    spec = FinitePulseSpec(4, v0_from_gamma(20.0, params), 2e-6, params.talbot_time)
    with pytest.raises(GridResolutionError):
        splitstep_fiber(spec, 0.0, params, n_x=16)
