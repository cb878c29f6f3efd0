"""First-order phase model against finite-difference phases of the
reference dynamics.

The phase-slope formulas are verified by differentiating train matrices
built from the steps of run_sequence: theta_q from the forward-train
amplitude <q|U+|0>, chi_q from the reversed-train coefficient <0|U-|q>,
whose phase carries -chi_q by the output-assembly convention.  Central
differences under a small symmetric step of one control cancel the
static q*pi/2 phases, the even-order quadratic terms, and (for
acceleration) the q-independent a^2 action, so the comparison isolates
exactly the linear slopes.  Closed forms are checked against the q-sum
they resum and against independent root finds of their half-maximum
points.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special

from kickecho.analytic import (
    X_HALF,
    accel_phase_slopes,
    eps_phase_slopes,
    fwhm_accel,
    fwhm_eps,
    fwhm_p0,
    i_accel_closed,
    i_accel_linearized,
    i_eps_asymptotic,
    i_p0_closed,
    i_p0_linearized,
    ladder_weights,
    output_first_order,
    p0_phase_slopes,
)
from kickecho.errors import SingularCoefficientError
from kickecho.ladder import (
    EDGE_BAND,
    LadderState,
    SequenceSpec,
    _accelerated_phase,
    _convolve_kick,
    apply_free_evolution,
    auto_q_max,
    kick_kernel,
    run_sequence,
)
from kickecho.params import HBAR


def test_x_half_against_root_find():
    """J_0(X_HALF)^2 = 1/2, with X_HALF re-derived by bracketing."""
    assert special.j0(X_HALF) ** 2 == pytest.approx(0.5, rel=1e-12)
    root = optimize.brentq(
        lambda x: special.j0(x) ** 2 - 0.5, 1.0, 1.3, xtol=1e-15, rtol=1e-15
    )
    assert X_HALF == pytest.approx(root, rel=1e-12)


def test_theta_plus_chi_identity(params):
    """The q^2 parts differ by exactly q^2: theta' + chi' = -pref * q^2."""
    q = np.arange(-12, 13)
    for n, phi in ((2, 0.4), (10, 0.5), (50, 1.1)):
        theta, chi = eps_phase_slopes(n, phi, q, params)
        pref = params.kappa**2 * HBAR / (2.0 * params.mass)
        np.testing.assert_allclose(
            theta + chi, -pref * q.astype(float) ** 2, rtol=1e-12, atol=1e-20
        )


def test_chi_slopes_vanish_for_single_kick_pair(params):
    """N = 1: the reversed kick is followed by no further sensitive
    evolution, so every chi slope vanishes (up to roundoff in the
    cancelling coefficient sums) while theta stays finite."""
    q = np.arange(-4, 5)
    theta_eps, chi_eps = eps_phase_slopes(1, 0.8, q, params)
    theta_p0, chi_p0 = p0_phase_slopes(1, q, params)
    theta_a, chi_a = accel_phase_slopes(1, q, params)
    assert np.max(np.abs(chi_eps)) < 1e-12 * np.max(np.abs(theta_eps))
    assert np.max(np.abs(chi_p0)) < 1e-12 * np.max(np.abs(theta_p0))
    assert np.max(np.abs(chi_a)) < 1e-12 * np.max(np.abs(theta_a))


def test_singular_bessel_ratio_raises(params):
    z0 = 2.404825557695773  # first zero of J_0
    with pytest.raises(SingularCoefficientError):
        eps_phase_slopes(1, z0, 0, params)


def _train_matrix(n_kicks, phi_d, period, beta, params, sign, accel, t_offset):
    """One train on the ladder of auto_q_max + EDGE_BAND, from the steps of
    run_sequence: each kick convolves the identity, each flight multiplies
    by the zero-acceleration phase, or by the exact action of the period
    that starts at t_offset + n * period.  Returns (q_values, U)."""
    q_max = auto_q_max(n_kicks, phi_d) + EDGE_BAND
    qs = np.arange(-q_max, q_max + 1)
    unit = LadderState(beta, q_max, np.ones(qs.size, dtype=complex))
    kernel, u = kick_kernel(phi_d, sign), np.eye(qs.size, dtype=complex)
    for n in range(n_kicks):
        u = _convolve_kick(u, kernel)
        if accel == 0.0:
            flight = apply_free_evolution(unit, period, params).amps
        else:
            flight = _accelerated_phase(qs, beta, period, params, accel, t_offset + n * period)
        u *= flight[:, None]
    return qs, u


def _fd_phase_slopes(n_kicks, phi_d, params, axis, h):
    """Central-difference phase slopes of both trains' coefficients, on
    train matrices built from the reference steps, which share no code
    with the engine."""

    def coefficients(x):
        if axis == "eps":
            period, beta, accel = params.talbot_time + x, 0.0, 0.0
        elif axis == "p0":
            period, beta, accel = (
                params.talbot_time,
                x / params.recoil_momentum,
                0.0,
            )
        else:
            period, beta, accel = params.talbot_time, 0.0, x
        qs, forward = _train_matrix(n_kicks, phi_d, period, beta, params, +1, accel, 0.0)
        _, reversed_ = _train_matrix(
            n_kicks, phi_d, period, beta, params, -1, accel, n_kicks * period
        )
        # The center row of the reversed train is the coefficient that
        # multiplies c_q in the echo sum; its phase carries -chi_q.
        center = (qs.size - 1) // 2
        return qs, forward[:, center], reversed_[center, :]

    qs, c_plus, d_plus = coefficients(+h)
    _, c_minus, d_minus = coefficients(-h)
    theta_fd = np.angle(c_plus * np.conj(c_minus)) / (2.0 * h)
    chi_fd = -np.angle(d_plus * np.conj(d_minus)) / (2.0 * h)
    return qs, theta_fd, chi_fd


def _significant_q(n_kicks, phi_d, qs):
    """Rungs inside the Bessel support with non-negligible weight."""
    w = np.abs(ladder_weights(n_kicks, phi_d, qs))
    return (np.abs(qs) <= n_kicks * phi_d + 1e-9) & (w > 1e-3)


@pytest.mark.parametrize("n_kicks,phi_d", [(8, 0.7), (20, 0.5)])
def test_eps_slopes_match_finite_difference(params, n_kicks, phi_d):
    qs, theta_fd, chi_fd = _fd_phase_slopes(n_kicks, phi_d, params, "eps", 1e-12)
    keep = _significant_q(n_kicks, phi_d, qs)
    theta, chi = eps_phase_slopes(n_kicks, phi_d, qs[keep], params)
    scale = np.max(np.abs(theta))
    np.testing.assert_allclose(theta_fd[keep], theta, rtol=1e-4, atol=1e-4 * scale)
    np.testing.assert_allclose(chi_fd[keep], chi, rtol=1e-4, atol=1e-4 * scale)


@pytest.mark.parametrize("n_kicks,phi_d", [(8, 0.7), (20, 0.5)])
def test_p0_slopes_match_finite_difference(params, n_kicks, phi_d):
    h = 1e-7 * params.recoil_momentum
    qs, theta_fd, chi_fd = _fd_phase_slopes(n_kicks, phi_d, params, "p0", h)
    keep = _significant_q(n_kicks, phi_d, qs)
    theta, chi = p0_phase_slopes(n_kicks, qs[keep], params)
    scale = np.max(np.abs(theta))
    np.testing.assert_allclose(theta_fd[keep], theta, rtol=1e-4, atol=1e-4 * scale)
    np.testing.assert_allclose(chi_fd[keep], chi, rtol=1e-4, atol=1e-4 * scale)


@pytest.mark.parametrize("n_kicks,phi_d", [(8, 0.7), (20, 0.5)])
def test_accel_slopes_match_finite_difference(params, n_kicks, phi_d):
    qs, theta_fd, chi_fd = _fd_phase_slopes(n_kicks, phi_d, params, "accel", 1e-6)
    keep = _significant_q(n_kicks, phi_d, qs)
    theta, chi = accel_phase_slopes(n_kicks, qs[keep], params)
    scale = np.max(np.abs(theta))
    np.testing.assert_allclose(theta_fd[keep], theta, rtol=1e-4, atol=1e-4 * scale)
    np.testing.assert_allclose(chi_fd[keep], chi, rtol=1e-4, atol=1e-4 * scale)


def test_output_first_order_rejects_two_controls(params):
    with pytest.raises(ValueError):
        output_first_order(10, 0.5, params, eps=1e-9, p0=1e-30)


def test_q_sum_resums_to_closed_forms(params):
    """Bessel addition theorem: the assembled q-sum must equal the closed
    forms essentially exactly for the momentum and acceleration axes."""
    n_kicks, phi_d = 20, 0.5
    for frac in (0.05, 0.3, 0.8):
        p0 = frac * fwhm_p0(n_kicks, phi_d, params)
        assembled = output_first_order(n_kicks, phi_d, params, p0=p0)
        closed = i_p0_closed(n_kicks, phi_d, p0, params)
        assert assembled == pytest.approx(float(closed), abs=1e-10)
        accel = frac * fwhm_accel(n_kicks, phi_d, params)
        assembled = output_first_order(n_kicks, phi_d, params, accel=accel)
        closed = i_accel_closed(n_kicks, phi_d, accel, params)
        assert assembled == pytest.approx(float(closed), abs=1e-10)


def test_closed_forms_normalized_and_even(params):
    n_kicks, phi_d = 25, 0.5
    assert float(i_eps_asymptotic(n_kicks, phi_d, 0.0, params)) == 1.0
    assert float(i_p0_closed(n_kicks, phi_d, 0.0, params)) == 1.0
    assert float(i_accel_closed(n_kicks, phi_d, 0.0, params)) == 1.0
    for x in (1e-10, 3.7e-9):
        assert float(i_eps_asymptotic(n_kicks, phi_d, x, params)) == pytest.approx(
            float(i_eps_asymptotic(n_kicks, phi_d, -x, params)), rel=1e-14
        )
    p = 0.3 * fwhm_p0(n_kicks, phi_d, params)
    assert float(i_p0_closed(n_kicks, phi_d, p, params)) == pytest.approx(
        float(i_p0_closed(n_kicks, phi_d, -p, params)), rel=1e-14
    )


def test_linearized_forms_match_closed_at_small_argument(params):
    n_kicks, phi_d = 30, 0.5
    p0 = 0.01 * fwhm_p0(n_kicks, phi_d, params)
    a = 0.01 * fwhm_accel(n_kicks, phi_d, params)
    assert float(i_p0_linearized(n_kicks, phi_d, p0, params)) == pytest.approx(
        float(i_p0_closed(n_kicks, phi_d, p0, params)), abs=1e-7
    )
    assert float(i_accel_linearized(n_kicks, phi_d, a, params)) == pytest.approx(
        float(i_accel_closed(n_kicks, phi_d, a, params)), abs=1e-7
    )


@pytest.mark.parametrize(
    "formula,width",
    [
        (i_eps_asymptotic, fwhm_eps),
        (i_p0_closed, fwhm_p0),
        (i_accel_closed, fwhm_accel),
    ],
)
def test_fwhm_helpers_against_root_find(params, formula, width):
    """Each width helper must equal twice the actual half-max crossing of
    its own closed form, found independently by bracketing."""
    n_kicks, phi_d = 40, 0.5
    w = width(n_kicks, phi_d, params)

    def half_deficit(x):
        return float(formula(n_kicks, phi_d, x, params)) - 0.5

    crossing = optimize.brentq(
        half_deficit, 0.25 * w, 0.75 * w, xtol=1e-30, rtol=1e-14
    )
    assert w == pytest.approx(2.0 * crossing, rel=1e-10)


def test_fwhm_p0_rejects_weak_sequences(params):
    # N*phi_d too small: the sine argument cannot reach the half point.
    with pytest.raises(ValueError):
        fwhm_p0(1, 0.25, params)
    # No kicks at all, or kicks so weak that the timing width overflows,
    # raise ValueError rather than ZeroDivisionError.
    for formula in (fwhm_p0, fwhm_accel, fwhm_eps):
        with pytest.raises(ValueError):
            formula(4, 0.0, params)
    with pytest.raises(ValueError):
        fwhm_eps(4, 1e-170, params)


def test_first_order_eps_matches_ladder_in_validity_tiers(params):
    """Detuning response: the first-order model tracks the exact engine to
    1% while the output is high (>= 0.3) and to 3% down to 0.1."""
    n_kicks, phi_d = 30, 0.5
    w = fwhm_eps(n_kicks, phi_d, params)
    for frac in (0.1, 0.25, 0.4, 0.55, 0.7):
        eps = frac * w
        model = output_first_order(n_kicks, phi_d, params, eps=eps)
        _, exact = run_sequence(
            SequenceSpec(n_kicks, phi_d, params.talbot_time + eps), 0.0, params
        )
        if exact >= 0.3:
            assert model == pytest.approx(exact, rel=1e-2)
        elif exact >= 0.1:
            assert model == pytest.approx(exact, rel=3e-2)


def test_p0_closed_form_is_first_order_accurate(params):
    """The closed form resums the first-order phases with unperturbed
    ladder weights, so it is not exact at finite momentum.  Its error
    against the engine must be small at the half-width point and shrink
    as 1/N^2 when the sequence is lengthened at fixed width fraction."""
    phi_d = 0.5
    err = {}
    for n_kicks in (20, 50):
        p0 = 0.5 * fwhm_p0(n_kicks, phi_d, params)
        beta = p0 / params.recoil_momentum
        _, exact = run_sequence(
            SequenceSpec(n_kicks, phi_d, params.talbot_time), beta, params
        )
        closed = float(i_p0_closed(n_kicks, phi_d, p0, params))
        err[n_kicks] = abs(exact - closed)
    assert err[20] < 1e-3
    assert err[50] < 1.2 * err[20] * (20 / 50) ** 2


@settings(max_examples=40, deadline=None)
@given(
    # n_kicks * phi_d must stay above the half-crossing bound or the
    # width helpers legitimately refuse the sequence.
    n_kicks=st.integers(min_value=4, max_value=60),
    phi_d=st.floats(min_value=0.3, max_value=1.5),
    frac=st.floats(min_value=0.0, max_value=3.0),
)
def test_closed_forms_bounded(n_kicks, phi_d, frac):
    from kickecho.params import rb85_params

    params = rb85_params()
    p0 = frac * fwhm_p0(n_kicks, phi_d, params)
    val = float(i_p0_closed(n_kicks, phi_d, p0, params))
    assert 0.0 <= val <= 1.0
    a = frac * fwhm_accel(n_kicks, phi_d, params)
    val = float(i_accel_closed(n_kicks, phi_d, a, params))
    assert 0.0 <= val <= 1.0
