"""End-to-end acceptance gate: nine behavioral criteria, one test each.

Every test appends a single PASS/FAIL line to the shared report (printed
after the pytest tally by the conftest hook) before asserting, so the
run always ends with one line per criterion:

    criterion N (name): PASS (detail)

The criteria cover the exact resonance echo, the three sensitivity
widths and their scalings with kick number, the wavepacket acceleration
response, the finite-pulse duration optimum and its scaling collapse,
independent-oracle equivalence, the first-order phase theory, the
short-pulse order property, and the resonance-multiple invariance of
the finite-pulse peak shift.
"""

import numpy as np
import pytest
from scipy import optimize
from oracles import apply_finite_pulse, splitstep_fiber
from test_analytic import _fd_phase_slopes, _significant_q
from test_ladder import _grid_kick, _random_state

from kickecho.analytic import (
    accel_phase_slopes,
    eps_phase_slopes,
    fwhm_accel,
    fwhm_eps,
    fwhm_p0,
    i_accel_closed,
    i_p0_closed,
    output_first_order,
    p0_phase_slopes,
)
from kickecho import scans
from kickecho.finite_pulse import (
    FinitePulseSpec,
    finite_return_amplitudes,
    run_finite_sequence,
)
from kickecho.ladder import (
    SequenceSpec,
    WavepacketSpec,
    apply_free_evolution,
    apply_kick,
    auto_q_max,
    ground_state,
    run_sequence,
)
from kickecho.params import HBAR, v0_from_gamma
from kickecho.scans import (
    find_tau_min,
    fit_scaling,
    gaussian_accel_scan,
    measure_peak_shift,
    scan,
)

GAMMA_GRID = (1.0, 10.0, 100.0)
N_GRID = (16, 32, 64, 128)

# Width-minimum targets in microseconds: tau_min * sqrt(gamma N) and
# w_min * gamma N^2 collapse onto these constants across the whole grid.
TAU_PRODUCT_US = 22.0
W_PRODUCT_US = 33.0


def _report(report, index, name, ok, detail):
    line = f"criterion {index} ({name}): {'PASS' if ok else 'FAIL'} ({detail})"
    report.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def pulse_search(params):
    """Width-minimizing pulse durations over the full (gamma, N) grid, and
    the fold columns that the searches evaluated."""
    columns = []
    engine = scans.finite_return_amplitudes

    def counted(n_pulses, v0, tau_p, periods, betas, params):
        columns.append(np.size(periods))
        return engine(n_pulses, v0, tau_p, periods, betas, params)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scans, "finite_return_amplitudes", counted)
        grid = {
            (gamma, n): find_tau_min(n, gamma, params)
            for gamma in GAMMA_GRID
            for n in N_GRID
            if gamma * n > 1.0
        }
    return grid, sum(columns)


@pytest.fixture(scope="module")
def pulse_grid(pulse_search):
    """Width-minimizing pulse durations over the full (gamma, N) grid.

    Shared between the scaling criterion and the peak-shift criterion,
    which reuses tau_min at gamma = 10, N = 32.
    """
    return pulse_search[0]


def test_criterion_1_perfect_echo(params, acceptance_report):
    worst = 0.0
    for n_kicks in (1, 10, 50, 200):
        for phi_d in (0.1, 0.5, 1.0):
            _, val = run_sequence(
                SequenceSpec(n_kicks, phi_d, params.talbot_time), 0.0, params
            )
            worst = max(worst, abs(val - 1.0))
    _report(
        acceptance_report, 1, "perfect echo",
        worst < 1e-10, f"worst |I - 1| = {worst:.3e}",
    )


def test_criterion_2_timing_width_asymptotics(params, acceptance_report):
    phi_d = 0.5
    ns = (30, 50, 80)
    widths = []
    worst_dev = 0.0
    for n in ns:
        curve = scan(
            "eps", SequenceSpec(n, phi_d, params.talbot_time), params, n_points=97
        )
        widths.append(curve.fwhm)
        worst_dev = max(worst_dev, abs(curve.fwhm / fwhm_eps(n, phi_d, params) - 1.0))
    # Three kick numbers span well under a decade, so the slope comes from
    # a direct log-log fit rather than the span-gated power-law helper.
    slope = float(np.polyfit(np.log(ns), np.log(widths), 1)[0])
    ok = worst_dev < 0.05 and abs(slope + 3.0) < 0.1
    _report(
        acceptance_report, 2, "timing width",
        ok, f"worst dev {worst_dev * 100:.2f}%, slope {slope:+.4f}",
    )


def test_criterion_3_momentum_filter(params, acceptance_report):
    phi_d = 0.5
    ns = (20, 50)
    widths = []
    worst_dev = 0.0
    for n in ns:
        curve = scan(
            "p0", SequenceSpec(n, phi_d, params.talbot_time), params, n_points=97
        )
        widths.append(curve.fwhm)
        worst_dev = max(worst_dev, abs(curve.fwhm / fwhm_p0(n, phi_d, params) - 1.0))
    slope = float(np.log(widths[1] / widths[0]) / np.log(ns[1] / ns[0]))
    ok = worst_dev < 0.05 and abs(slope + 2.0) < 0.1
    _report(
        acceptance_report, 3, "momentum filter",
        ok, f"worst dev {worst_dev * 100:.2f}%, slope {slope:+.4f}",
    )


def test_criterion_4_acceleration_response(params, acceptance_report):
    phi_d = 0.5
    point_ns = (10, 16, 25, 40, 63, 100)
    point = {}
    worst_dev = 0.0
    for n in point_ns:
        point[n] = scan(
            "accel", SequenceSpec(n, phi_d, params.talbot_time), params, n_points=65
        ).fwhm
        worst_dev = max(worst_dev, abs(point[n] / fwhm_accel(n, phi_d, params) - 1.0))
    fit = fit_scaling([(float(n), point[n]) for n in point_ns])

    # A 100 um wavepacket tracks the plane-wave response at small kick
    # number and breaks away from the 1/N^3 law well before N = 100.
    wp = WavepacketSpec(sigma_x=100e-6)
    worst_near = 0.0
    for n in (10, 15, 20):
        pt = point.get(n) or scan(
            "accel", SequenceSpec(n, phi_d, params.talbot_time), params, n_points=65
        ).fwhm
        g = gaussian_accel_scan(n, phi_d, wp, params, n_points=65).fwhm
        worst_near = max(worst_near, abs(g / pt - 1.0))
    g32 = gaussian_accel_scan(32, phi_d, wp, params, n_points=65).fwhm
    excess = g32 / fwhm_accel(32, phi_d, params) - 1.0

    ok = (
        worst_dev < 0.05
        and abs(fit.exponent + 3.0) < 0.1
        and worst_near < 0.10
        and excess > 0.25
    )
    _report(
        acceptance_report, 4, "acceleration response",
        ok,
        f"point dev {worst_dev * 100:.2f}%, slope {fit.exponent:+.4f}, "
        f"wavepacket dev(N<=20) {worst_near * 100:.2f}%, "
        f"excess(N=32) {excess * 100:.1f}%",
    )


def test_criterion_5_finite_pulse_scaling(params, acceptance_report, pulse_grid):
    tau_products = {}
    w_products = {}
    for (gamma, n), (tau, w) in pulse_grid.items():
        tau_products[(gamma, n)] = tau * 1e6 * (gamma * n) ** 0.5
        w_products[(gamma, n)] = w * 1e6 * gamma * n**2
    tau_ok = all(
        abs(v / TAU_PRODUCT_US - 1.0) < 0.20 for v in tau_products.values()
    )
    w_ok = all(abs(v / W_PRODUCT_US - 1.0) < 0.20 for v in w_products.values())

    tau_fit = fit_scaling(
        [(gamma * n, tau) for (gamma, n), (tau, _) in pulse_grid.items()]
    )
    w_fit = fit_scaling(
        [(gamma**0.5 * n, w) for (gamma, n), (_, w) in pulse_grid.items()]
    )
    ok = (
        tau_ok
        and w_ok
        and abs(tau_fit.exponent + 0.5) < 0.1
        and abs(w_fit.exponent + 2.0) < 0.15
    )
    _report(
        acceptance_report, 5, "finite-pulse scaling",
        ok,
        f"tau product {min(tau_products.values()):.2f}-"
        f"{max(tau_products.values()):.2f} us, "
        f"w product {min(w_products.values()):.2f}-"
        f"{max(w_products.values()):.2f} us, "
        f"slopes {tau_fit.exponent:+.3f}/{w_fit.exponent:+.3f}",
    )


def test_width_search_columns_on_the_criterion_5_grid(pulse_search):
    """The criterion-5 searches evaluate at most 10 500 fold columns; with
    65-point default windows for every width they evaluated 20 995."""
    assert pulse_search[1] <= 10_500


def _engine_width(n_pulses, gamma, tau, w, params):
    """Width of the timing peak whose maximum and half crossings come from
    root-finding on the engine, in offsets u = eps / w."""
    v0 = v0_from_gamma(gamma, params)
    t_t = params.talbot_time

    def output(u):
        periods = t_t + np.atleast_1d(u) * w
        return np.abs(finite_return_amplitudes(n_pulses, v0, tau, periods, 0.0, params)) ** 2

    grid = np.linspace(-1.5, 1.5, 61)
    values = output(grid)
    i = int(np.argmax(values))
    best = optimize.minimize_scalar(
        lambda u: -float(output(u)[0]),
        bracket=(grid[i - 1], grid[i], grid[i + 1]), method="brent", tol=1e-12,
    )
    half = -0.5 * best.fun
    crossings = []
    for direction in (-1, +1):
        j = i
        while values[j + direction] >= half:
            j += direction
        lo, hi = sorted((grid[j], grid[j + direction]))
        crossings.append(
            optimize.brentq(lambda u: float(output(u)[0]) - half, lo, hi, xtol=1e-12)
        )
    return (crossings[1] - crossings[0]) * w


@pytest.mark.parametrize("cell", [(10.0, 32), (1.0, 128)])
def test_width_search_reads_the_engine_width(params, pulse_grid, cell):
    """At two criterion-5 cells w_min lies within 3e-5 relative of the
    engine's own width at tau_min.  Lines through 65 samples of default
    windows read them 3.9e-5 and 4.6e-5 too wide."""
    gamma, n_pulses = cell
    tau, w = pulse_grid[cell]
    reference = _engine_width(n_pulses, gamma, tau, w, params)
    assert w == pytest.approx(reference, rel=3e-5, abs=0.0)


def test_criterion_6_oracle_equivalence(params, acceptance_report):
    rng = np.random.default_rng(20260816)
    worst_pulse = 0.0
    for _ in range(10):
        gamma = float(rng.uniform(0.5, 15.0))
        tau = float(rng.uniform(0.3e-6, 3e-6))
        n = int(rng.integers(1, 9))
        beta = float(rng.uniform(-0.5, 0.5))
        period = params.talbot_time * (1.0 + float(rng.uniform(-0.05, 0.05)))
        spec = FinitePulseSpec(n, v0_from_gamma(gamma, params), tau, period)
        state, _ = run_finite_sequence(spec, beta, params)
        qs_g, c_g = splitstep_fiber(spec, beta, params)
        sel = (qs_g >= -state.q_max) & (qs_g <= state.q_max)
        worst_pulse = max(worst_pulse, float(np.max(np.abs(state.amps - c_g[sel]))))

    worst_kick = 0.0
    for _ in range(5):
        state = _random_state(rng, q_max=40, spread=10, beta=0.0)
        phi_d = float(rng.uniform(0.2, 2.0))
        sign = int(rng.choice([-1, 1]))
        kicked = apply_kick(state, phi_d, sign)
        oracle = _grid_kick(state, phi_d, sign)
        worst_kick = max(worst_kick, float(np.max(np.abs(kicked.amps - oracle))))

    ok = worst_pulse < 1e-6 and worst_kick < 1e-8
    _report(
        acceptance_report, 6, "oracle equivalence",
        ok,
        f"finite-pulse max amp diff {worst_pulse:.2e}, "
        f"kick max amp diff {worst_kick:.2e}",
    )


def test_criterion_7_first_order_phase_theory(params, acceptance_report):
    slope_funcs = {
        "eps": eps_phase_slopes,
        "p0": p0_phase_slopes,
        "accel": accel_phase_slopes,
    }
    steps = {"eps": 1e-12, "p0": 1e-7 * params.recoil_momentum, "accel": 1e-6}
    worst_rel = 0.0
    for n_kicks, phi_d in ((8, 0.7), (20, 0.5)):
        for axis, func in slope_funcs.items():
            qs, theta_fd, chi_fd = _fd_phase_slopes(
                n_kicks, phi_d, params, axis, steps[axis]
            )
            keep = _significant_q(n_kicks, phi_d, qs)
            if axis == "eps":
                theta, chi = func(n_kicks, phi_d, qs[keep], params)
            else:
                theta, chi = func(n_kicks, qs[keep], params)
            scale = float(np.max(np.abs(theta)))
            for fd, formula in ((theta_fd[keep], theta), (chi_fd[keep], chi)):
                rel = np.abs(fd - formula) / np.maximum(
                    np.abs(formula), 1e-3 * scale
                )
                worst_rel = max(worst_rel, float(np.max(rel)))

    # Resummation consistency: the q-sum assembly must reproduce the
    # closed-form curves essentially exactly.
    worst_sum = 0.0
    n_kicks, phi_d = 20, 0.5
    for frac in (0.05, 0.3, 0.8):
        p0 = frac * fwhm_p0(n_kicks, phi_d, params)
        worst_sum = max(
            worst_sum,
            abs(
                output_first_order(n_kicks, phi_d, params, p0=p0)
                - float(i_p0_closed(n_kicks, phi_d, p0, params))
            ),
        )
        accel = frac * fwhm_accel(n_kicks, phi_d, params)
        worst_sum = max(
            worst_sum,
            abs(
                output_first_order(n_kicks, phi_d, params, accel=accel)
                - float(i_accel_closed(n_kicks, phi_d, accel, params))
            ),
        )

    ok = worst_rel < 1e-3 and worst_sum < 1e-10
    _report(
        acceptance_report, 7, "first-order phases",
        ok,
        f"worst slope rel err {worst_rel:.2e}, "
        f"worst resummation diff {worst_sum:.2e}",
    )


def test_criterion_8_short_pulse_order(params, acceptance_report):
    """At resonance the train output leaves 1 quadratically in tau_p, so
    its tau-derivative vanishes at tau -> 0+ while a single pulse differs
    from the ideal kick at linear order."""
    n_kicks, phi_d = 16, 0.5
    taus = (10e-9, 20e-9, 40e-9)
    vals = []
    for tau in taus:
        spec = FinitePulseSpec(
            n_kicks, 2.0 * HBAR * phi_d / tau, tau, params.talbot_time
        )
        _, val = run_finite_sequence(spec, 0.0, params)
        vals.append(val)
    r1 = (1.0 - vals[1]) / (1.0 - vals[0])
    r2 = (1.0 - vals[2]) / (1.0 - vals[1])
    quadratic = 3.6 < r1 < 4.4 and 3.6 < r2 < 4.4
    train_slope = abs(vals[1] - vals[0]) / (taus[1] - taus[0])

    # Single-pulse linear coefficient on the state mid-sequence, where the
    # ladder is fully spread: ||(pulse(tau) - kick) psi|| / tau.
    state = ground_state(0.0, auto_q_max(n_kicks, phi_d))
    for _ in range(n_kicks):
        state = apply_kick(state, phi_d, +1)
        state = apply_free_evolution(state, params.talbot_time, params)
    tau_ref = taus[0]
    spec = FinitePulseSpec(
        n_kicks, 2.0 * HBAR * phi_d / tau_ref, tau_ref, params.talbot_time
    )
    pulsed = apply_finite_pulse(state, spec, -1, params)
    kicked = apply_kick(state, phi_d, -1)
    coef = float(np.linalg.norm(pulsed.amps - kicked.amps)) / tau_ref

    ratio = train_slope / coef
    ok = quadratic and ratio < 1e-3
    _report(
        acceptance_report, 8, "short-pulse order",
        ok,
        f"1-I doubling ratios {r1:.3f}/{r2:.3f}, "
        f"|dI/dtau| / linear coef = {ratio:.2e}",
    )


def test_criterion_9_peak_shift_cancellation(params, acceptance_report, pulse_grid):
    gamma, n_pulses = 10.0, 32
    tau_min, _ = pulse_grid[(gamma, n_pulses)]
    d1, d2 = measure_peak_shift(n_pulses, gamma, tau_min, (1, 2), params)
    rel = abs(d1 - d2) / abs(d1)
    ok = rel < 0.05
    _report(
        acceptance_report, 9, "peak-shift cancellation",
        ok,
        f"delta_eps(l=1) = {d1 * 1e9:.3f} ns, "
        f"delta_eps(l=2) = {d2 * 1e9:.3f} ns, rel diff {rel:.2e}",
    )
