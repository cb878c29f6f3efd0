"""Scan curves, width extraction, duration optimization, and power-law fits."""

import logging
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize, special

from kickecho.analytic import X_HALF, fwhm_accel, fwhm_eps, fwhm_p0
from kickecho.errors import (
    ConvergenceError,
    InsufficientSpanError,
    MultimodalPeakError,
    NoInteriorMinimumError,
    PeakNotBracketedError,
)
from kickecho import ladder, scans
from kickecho.finite_pulse import (
    FinitePulseSpec,
    finite_return_amplitudes,
    run_finite_sequence,
)
from kickecho.ladder import (
    SequenceSpec,
    WavepacketSpec,
    auto_q_max,
    batched_return_amplitudes,
    gaussian_output,
    momentum_history,
    resonant_return_amplitudes,
    run_sequence,
)
from kickecho.params import v0_from_gamma
from kickecho.scans import (
    ScanCurve,
    extract_fwhm,
    find_tau_min,
    fit_scaling,
    gaussian_accel_curve,
    gaussian_accel_scan,
    measure_peak_shift,
    scan,
)


def test_extract_fwhm_on_synthetic_bessel_peak():
    """J_0(x)^2 has a known half-width 2 * X_HALF; the extractor must
    recover it from plain samples to well under a tenth of a percent."""
    x = np.linspace(-2.2, 2.2, 161)
    curve = ScanCurve(x, special.j0(x) ** 2).measured()
    assert curve.fwhm == pytest.approx(2.0 * X_HALF, rel=1e-4)
    assert curve.peak_center == pytest.approx(0.0, abs=1e-12)


def test_extract_fwhm_triangle_is_exact():
    """Linear interpolation is exact on a piecewise-linear peak."""
    x = np.linspace(-3.0, 3.0, 121)
    y = np.clip(1.0 - np.abs(x) / 2.0, 0.0, None)
    fwhm, center = extract_fwhm(ScanCurve(x, y))
    assert fwhm == pytest.approx(2.0, abs=1e-12)
    assert center == pytest.approx(0.0, abs=1e-12)


def test_rival_maximum_above_half_is_rejected():
    x = np.linspace(-2.0, 8.0, 201)
    y = np.exp(-(x**2)) + 0.8 * np.exp(-((x - 5.0) ** 2))
    with pytest.raises(MultimodalPeakError):
        extract_fwhm(ScanCurve(x, y))


def test_edge_maximum_is_rejected():
    x = np.linspace(0.0, 1.0, 33)
    with pytest.raises(PeakNotBracketedError):
        extract_fwhm(ScanCurve(x, x))


def test_scan_curve_validation():
    x = np.linspace(0.0, 1.0, 33)
    with pytest.raises(ValueError):
        ScanCurve(np.arange(4.0), np.zeros(4))
    with pytest.raises(ValueError):
        ScanCurve(x, np.zeros(5))
    with pytest.raises(ValueError):
        ScanCurve(x[::-1], np.zeros(33))
    with pytest.raises(ValueError):
        ScanCurve(x, np.full(33, 1.5))
    # Non-finite samples fail closed; NaN passes the range and order checks.
    peak = np.exp(-((x - 0.5) ** 2) / 0.01)
    for bad in (math.nan, math.inf, -math.inf):
        y = peak.copy()
        y[5] = bad
        with pytest.raises(ValueError, match="finite"):
            ScanCurve(x, y)
        xs = x.copy()
        xs[5] = bad
        with pytest.raises(ValueError, match="finite"):
            ScanCurve(xs, peak)
    xs = x.copy()
    xs[-1] = math.inf
    with pytest.raises(ValueError, match="finite"):
        ScanCurve(xs, peak)
    # A rounding-level excursion past 1 is clipped, not rejected.
    y = np.full(33, 0.5)
    y[3] = 1.0 + 1e-12
    assert float(ScanCurve(x, y).output.max()) == 1.0


def test_scan_widths_match_predictions(params):
    spec = SequenceSpec(20, 0.5, params.talbot_time)
    # The timing-width prediction is asymptotic in the kick number and
    # sits about a percent high at N = 20; the other two are sharper.
    c = scan("eps", spec, params, n_points=65)
    assert c.fwhm == pytest.approx(fwhm_eps(20, 0.5, params), rel=2e-2)
    c = scan("p0", spec, params, n_points=65)
    assert c.fwhm == pytest.approx(fwhm_p0(20, 0.5, params), rel=5e-3)
    c = scan("accel", spec, params, n_points=65)
    assert c.fwhm == pytest.approx(fwhm_accel(20, 0.5, params), rel=5e-3)
    assert c.peak_center == pytest.approx(0.0, abs=1e-4 * c.fwhm)


def test_scan_grid_refinement_is_invariant(params):
    spec = SequenceSpec(20, 0.5, params.talbot_time)
    coarse = scan("eps", spec, params, n_points=65)
    fine = scan("eps", spec, params, n_points=161)
    assert coarse.fwhm == pytest.approx(fine.fwhm, rel=2e-3)


def test_scan_is_bit_identical_across_workers(params):
    spec = SequenceSpec(12, 0.6, params.talbot_time)
    a = scan("eps", spec, params, n_points=65, workers=1)
    b = scan("eps", spec, params, n_points=65, workers=3)
    assert np.array_equal(a.output, b.output)
    assert a.fwhm == b.fwhm


def test_p0_scan_is_bit_identical_across_workers(params):
    spec = SequenceSpec(12, 0.6, params.talbot_time)
    a, b, c = (scan("p0", spec, params, n_points=65, workers=w) for w in (1, 2, 3))
    assert np.array_equal(a.output, b.output)
    assert np.array_equal(a.output, c.output)
    assert a.fwhm == b.fwhm == c.fwhm


def test_accel_scan_is_bit_identical_across_workers(params):
    spec = SequenceSpec(12, 0.6, params.talbot_time)
    a, b, c = (scan("accel", spec, params, n_points=65, workers=w) for w in (1, 2, 3))
    assert np.array_equal(a.output, b.output)
    assert np.array_equal(a.output, c.output)
    assert a.fwhm == b.fwhm == c.fwhm


@settings(max_examples=20, deadline=None)
@given(
    n_kicks=st.integers(min_value=4, max_value=40),
    phi_d=st.floats(min_value=0.3, max_value=1.5),
    axis=st.sampled_from(["p0", "accel"]),
    frac=st.one_of(st.just(0.0), st.floats(min_value=-0.25, max_value=0.25)),
)
@example(n_kicks=150, phi_d=0.6, axis="p0", frac=0.0)  # the benchmark's longest p0 scan
def test_resonant_scans_take_the_closed_form(params, n_kicks, phi_d, axis, frac):
    """p0 scans (at any spec.accel, here up to a quarter of the
    acceleration width) and accel scans at the resonance period run no
    ladder: their outputs are |resonant_return_amplitudes|^2 on the same
    samples, bit for bit, and agree with run_sequence on every eighth
    sample within 1e-9."""
    accel = frac * fwhm_accel(n_kicks, phi_d, params) if axis == "p0" else 0.0
    spec = SequenceSpec(n_kicks, phi_d, params.talbot_time, accel)
    curve = scan(axis, spec, params, n_points=33)
    if axis == "p0":
        columns = [(beta, accel) for beta in curve.control / params.recoil_momentum]
    else:
        columns = [(0.0, a) for a in curve.control]
    betas, accels = np.array(columns).T
    closed = resonant_return_amplitudes(n_kicks, phi_d, betas, accels, params)
    # ScanCurve clips rounding excess above 1, which the clip here mirrors.
    assert np.array_equal(curve.output, np.clip(np.abs(closed) ** 2, 0.0, 1.0))
    for (beta, a), output in list(zip(columns, curve.output))[::8]:
        seq = SequenceSpec(n_kicks, phi_d, params.talbot_time, a)
        assert abs(run_sequence(seq, beta, params)[1] - output) <= 1e-9


def test_scan_threads_are_capped_at_the_core_count(params, monkeypatch):
    """A huge worker count starts no more threads than there are cores and
    leaves the curve unchanged.  The fake pool runs its chunks in order on
    the calling thread, so no thread is started."""
    pools = []

    class FakePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    monkeypatch.setattr(scans, "ThreadPoolExecutor", FakePool)
    monkeypatch.setattr(scans.os, "cpu_count", lambda: 2)
    spec = SequenceSpec(12, 0.6, params.talbot_time)
    serial = scan("eps", spec, params, n_points=65, workers=1)
    many = scan("eps", spec, params, n_points=65, workers=16)
    assert pools == [2]
    assert np.array_equal(serial.output, many.output)


def test_accel_curve_matches_the_two_train_engine(params, monkeypatch):
    """The closed-form curve runs every node of each grid (density 8, then
    16) and equals |amps @ weights|^2 of the two-train engine on the final
    grid, run on a ladder twice the default width, to 1e-11."""
    n_kicks, phi_d, wp = 10, 0.5, WavepacketSpec(sigma_x=1e-4)
    accels = np.linspace(0.0, 2.0 * fwhm_accel(n_kicks, phi_d, params), 3)
    seen = []

    def spy(*args, **kwargs):
        seen.append(np.asarray(args[2]))
        return resonant_return_amplitudes(*args, **kwargs)

    monkeypatch.setattr(scans, "resonant_return_amplitudes", spy)
    vals = gaussian_accel_curve(n_kicks, phi_d, accels, wp, params)
    assert [b.shape for b in seen] == [(1, 81), (1, 161)]
    betas, weights = scans._beta_average_nodes(n_kicks, phi_d, wp, params, 16.0)
    assert np.array_equal(seen[1][0], betas)
    amps = batched_return_amplitudes(
        n_kicks, phi_d, params.talbot_time, betas[None, :], accels[:, None], params,
        2 * auto_q_max(n_kicks, phi_d),
    )
    assert np.max(np.abs(vals - np.abs(amps @ weights) ** 2)) <= 1e-11


def test_scan_widens_a_too_narrow_window_until_bracketed(params):
    """Both scans widen an unbracketing window threefold about its center
    until the peak is bracketed: the result equals a scan of the final
    window bit for bit.  An eps window that already spans the cap,
    min(period, T_T), fails."""
    spec = SequenceSpec(20, 0.5, params.talbot_time)
    w = fwhm_eps(20, 0.5, params)
    c = scan("eps", spec, params, window=(-w / 4.0, w / 4.0), n_points=65)
    assert c.fwhm == pytest.approx(w, rel=2e-2)
    direct = scan("eps", spec, params, window=(-0.75 * w, 0.75 * w), n_points=65)
    assert np.array_equal(c.control, direct.control)
    assert np.array_equal(c.output, direct.output)
    assert c.fwhm == direct.fwhm
    # An off-center window widens about its own center.
    c = scan("eps", spec, params, window=(-w / 8.0, w / 4.0), n_points=65)
    assert c.control[0] == pytest.approx(w / 16.0 - 9.0 * w / 16.0, rel=1e-12)
    assert c.control[-1] == pytest.approx(w / 16.0 + 9.0 * w / 16.0, rel=1e-12)
    # w/100 wide, then 3, 9, 27, 81 and 243 times that.
    c = scan("eps", spec, params, window=(-w / 200.0, w / 200.0), n_points=65)
    assert c.control[-1] == pytest.approx(243.0 * w / 200.0, rel=1e-12)
    assert c.fwhm == pytest.approx(w, rel=2e-2)
    # Two weak kicks make a timing peak wider than one resonance period.
    weak = SequenceSpec(2, 0.5, params.talbot_time)
    half = 0.5 * params.talbot_time
    for window in ((-half, half), None):
        with pytest.raises(PeakNotBracketedError, match="widest scan window"):
            scan("eps", weak, params, window=window, n_points=65)

    wp = WavepacketSpec(sigma_x=1e-4)
    a = fwhm_accel(10, 0.5, params)
    g = gaussian_accel_scan(10, 0.5, wp, params, window=(-a / 4.0, a / 4.0), n_points=33)
    assert g.fwhm == pytest.approx(a, rel=2e-2)
    direct = gaussian_accel_scan(10, 0.5, wp, params, window=(-0.75 * a, 0.75 * a), n_points=33)
    assert np.array_equal(g.control, direct.control)
    assert np.array_equal(g.output, direct.output)
    assert g.fwhm == direct.fwhm
    g = gaussian_accel_scan(10, 0.5, wp, params, window=(-a / 200.0, a / 200.0), n_points=33)
    assert g.control[-1] == pytest.approx(243.0 * a / 200.0, rel=1e-12)
    assert g.fwhm == pytest.approx(a, rel=2e-2)


def test_scan_validates_once_per_sampled_window(params, monkeypatch):
    """Each sampled window builds one validated ScanCurve; the measured
    copy shares its checked arrays and is not validated again.  Covers a
    widening window, a default window and a finite-pulse scan."""
    windows, checked = [], []
    evaluate, post_init = scans._evaluate, ScanCurve.__post_init__

    def spy_evaluate(*args):
        windows.append(args[3])
        return evaluate(*args)

    def spy_post_init(curve):
        post_init(curve)
        checked.append(curve)

    monkeypatch.setattr(scans, "_evaluate", spy_evaluate)
    monkeypatch.setattr(ScanCurve, "__post_init__", spy_post_init)
    spec = SequenceSpec(20, 0.5, params.talbot_time)
    w = fwhm_eps(20, 0.5, params)
    finite = FinitePulseSpec(8, v0_from_gamma(10.0, params), 1e-6, params.talbot_time)
    counts = []
    for run in (
        lambda: scan("eps", spec, params, window=(-w / 200.0, w / 200.0), n_points=65),
        lambda: scan("eps", spec, params, n_points=65),
        lambda: scan("eps", finite, params, n_points=33),
    ):
        windows.clear()
        checked.clear()
        curve = run()
        counts.append(len(windows))
        assert len(checked) == len(windows)
        assert curve.control is checked[-1].control and curve.output is checked[-1].output
        assert math.isfinite(curve.fwhm) and math.isfinite(curve.peak_center)
    assert counts[0] == 6  # w/100 wide, then 3, 9, 27, 81 and 243 times that


def test_finite_scan_below_the_floor_fails_at_once(params, monkeypatch):
    """A finite-pulse window whose output stays below NO_PEAK_FLOOR raises
    on the first window instead of widening.  The stand-in engine returns
    a flat output of 0.01, which would otherwise count as unbracketed."""
    calls = []

    def faint(n_pulses, v0, tau_p, periods, betas, params):
        calls.append(periods)
        return np.full(np.shape(periods), 0.1 + 0.0j)

    monkeypatch.setattr(scans, "finite_return_amplitudes", faint)
    spec = FinitePulseSpec(16, v0_from_gamma(100.0, params), 0.5e-6, params.talbot_time)
    with pytest.raises(PeakNotBracketedError, match="washed out"):
        scan("eps", spec, params, n_points=33)
    assert len(calls) == 1


def test_scan_argument_validation(params):
    spec = SequenceSpec(10, 0.5, params.talbot_time)
    with pytest.raises(ValueError):
        scan("eps", spec, params, n_points=8)
    with pytest.raises(ValueError):
        scan("eps", spec, params, window=(1.0, 1.0))
    with pytest.raises(ValueError):
        scan("sideways", spec, params)


# Every entry point that takes a kick or pulse count, as a function of it.
_COUNTED = {
    "SequenceSpec": lambda n, p: SequenceSpec(n, 0.5, p.talbot_time),
    "run_sequence": lambda n, p: run_sequence(SequenceSpec(n, 0.5, p.talbot_time), 0.0, p),
    "momentum_history": lambda n, p: momentum_history(
        SequenceSpec(n, 0.5, p.talbot_time), 0.0, p
    ),
    "FinitePulseSpec": lambda n, p: FinitePulseSpec(n, 1e-29, 1e-6, p.talbot_time),
    "run_finite_sequence": lambda n, p: run_finite_sequence(
        FinitePulseSpec(n, 1e-29, 1e-6, p.talbot_time), 0.0, p
    ),
    "finite_return_amplitudes": lambda n, p: finite_return_amplitudes(
        n, 1e-29, 1e-6, p.talbot_time, 0.0, p
    ),
    "finite scan": lambda n, p: scan(
        "eps", FinitePulseSpec(n, v0_from_gamma(10.0, p), 1e-6, p.talbot_time), p
    ),
}


@pytest.mark.parametrize("count", [2.0, True, 0, -1], ids=repr)
@pytest.mark.parametrize("entry", sorted(_COUNTED))
def test_counts_fail_closed(params, entry, count):
    """A count that is not a positive integer is a ValueError where it
    enters, never a TypeError deep in a loop, and True is not one kick."""
    with pytest.raises(ValueError, match="n_kicks|n_pulses"):
        _COUNTED[entry](count, params)


def test_quadrature_caps_raise_convergence_error(params, monkeypatch):
    """With the caps at their least (two rules or grids to compare) and a
    tolerance no rule meets, each adaptive average raises ConvergenceError
    with a finite achieved tolerance."""
    monkeypatch.setattr(ladder, "MAX_FIBER_NODES", 65)
    monkeypatch.setattr(scans, "ACCEL_MAX_DENSITY", 16.0)
    monkeypatch.setattr(scans, "ACCEL_CURVE_TOL", 0.0)
    wp = WavepacketSpec(sigma_x=1e-4)
    seq = SequenceSpec(10, 0.5, params.talbot_time)
    accels = np.linspace(0.0, 2.0 * fwhm_accel(10, 0.5, params), 3)
    for run in (
        lambda: gaussian_output(seq, wp, params, tol=0.0),
        lambda: gaussian_accel_curve(10, 0.5, accels, wp, params),
    ):
        with pytest.raises(ConvergenceError) as err:
            run()
        assert math.isfinite(err.value.achieved)


def test_fit_scaling_recovers_exact_power_law():
    n = np.array([8.0, 16.0, 32.0, 64.0, 128.0])
    pts = np.column_stack([n, 7.3 * n**-2.5])
    fit = fit_scaling(pts)
    assert fit.exponent == pytest.approx(-2.5, abs=1e-12)
    assert fit.prefactor == pytest.approx(7.3, rel=1e-12)
    assert fit.residual < 1e-12
    scaled = fit_scaling(pts, scale_factor=10.0)
    assert scaled.prefactor == pytest.approx(73.0, rel=1e-12)
    assert scaled.exponent == pytest.approx(-2.5, abs=1e-12)


def test_fit_scaling_span_requirements():
    with pytest.raises(InsufficientSpanError):
        fit_scaling([(8.0, 1.0), (16.0, 0.5), (32.0, 0.25)])
    n = np.array([8.0, 12.0, 16.0, 24.0])
    with pytest.raises(InsufficientSpanError):
        fit_scaling(np.column_stack([n, 1.0 / n]))
    with pytest.raises(ValueError):
        fit_scaling([(8.0, 1.0), (16.0, -0.5), (32.0, 0.25), (80.0, 0.1)])
    with pytest.raises(ValueError):
        fit_scaling(np.ones((4, 3)))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            fit_scaling([(8.0, 1.0), (16.0, bad), (32.0, 0.25), (80.0, 0.1)])
        with pytest.raises(ValueError, match="finite"):
            fit_scaling([(8.0, 1.0), (16.0, 0.5), (32.0, 0.25), (bad, 0.1)])


def test_fit_scaling_rejects_scaled_values_outside_the_normal_range():
    """value * scale_factor past the double range gave a nan exponent,
    prefactor and residual; below the normal range the logs lose digits."""
    pts = [(1.0, 5.0), (2.0, 6.0), (5.0, 7.0), (10.0, 8.0), (20.0, 9.0)]
    for scale_factor in (1e308, 1e-320, math.nan):
        with pytest.raises(ValueError, match="scale_factor"):
            fit_scaling(pts, scale_factor=scale_factor)


def test_find_tau_min_is_coarse_grid_independent(params, monkeypatch):
    monkeypatch.setattr(scans, "TAU_COARSE_POINTS", 16)
    a_tau, a_w = find_tau_min(4, 10.0, params)
    monkeypatch.setattr(scans, "TAU_COARSE_POINTS", 24)
    b_tau, b_w = find_tau_min(4, 10.0, params)
    assert a_tau == pytest.approx(b_tau, rel=2e-3)
    assert a_w == pytest.approx(b_w, rel=1e-5)
    assert 0.0 < a_tau < 0.5 * params.talbot_time
    assert 0.0 < a_w


def test_find_tau_min_validation(params):
    with pytest.raises(ValueError):
        find_tau_min(2, 0.4, params)  # gamma * n_pulses <= 1
    for bad in (True, 4.0, 0, -3):
        with pytest.raises(ValueError, match="n_pulses"):
            find_tau_min(bad, 10.0, params)


F = math.inf  # a duration whose width measurement fails


def _coarse_taus(params, points=18):
    center = params.talbot_time
    return np.geomspace(
        scans.TAU_DOMAIN_LO_FRACTION * center,
        scans.TAU_DOMAIN_HI_FRACTION * center,
        points,
    )


class _ReplayedWidths:
    """Stand-in for scans._finite_width that replays one width per coarse
    duration and records which durations were measured.

    Off the grid (refinement steps) the width is shape(log tau), by default
    a parabola in log tau around the replayed width at index i_min (default:
    the smallest), so the refinement converges onto that grid point.
    """

    def __init__(self, params, widths, i_min=None, shape=None):
        self.taus = _coarse_taus(params, len(widths))
        self.widths = {float(t): w for t, w in zip(self.taus, widths)}
        if i_min is None:
            i_min = int(np.argmin(widths))
        if shape is None:
            s_best, w_best = math.log(self.taus[i_min]), widths[i_min]
            shape = lambda s: w_best * (1.0 + (s - s_best) ** 2)  # noqa: E731
        self.shape = shape
        self.walked: list[int] = []
        self.refined: list[float] = []

    def __call__(self, n_pulses, v0, tau_p, params, center):
        if tau_p in self.widths:
            self.walked.append(int(np.flatnonzero(self.taus == tau_p)[0]))
            w = self.widths[tau_p]
        else:
            self.refined.append(tau_p)
            w = self.shape(math.log(tau_p))
        if not math.isfinite(w):
            raise PeakNotBracketedError("replayed failure")
        return w, center


def _replay(monkeypatch, params, widths, i_min=None, shape=None):
    fake = _ReplayedWidths(params, widths, i_min, shape)
    monkeypatch.setattr(scans, "_finite_width", fake)
    return fake


def _replay_shape(monkeypatch, params, shape):
    """Replay shape(log tau) on the coarse grid and off it."""
    widths = [shape(math.log(t)) for t in _coarse_taus(params)]
    return _replay(monkeypatch, params, widths, shape=shape)


def test_tau_min_walk_stops_two_points_after_settled_minimum(monkeypatch, params):
    # The bump 16 counts once against the best 15; the new best 12 resets
    # the count.  Best 9 at index 6 follows the descent 16 > 12 > 10 > 9, so
    # it is settled: the failure at 7 counts and the wider 11 at 8 stops
    # the walk.  The narrower 1.0 from index 9 on is never measured.
    widths = [F, 20, 15, 16, 12, 10, 9, F, 11] + [1.0] * 9
    fake = _replay(monkeypatch, params, widths, i_min=6)
    tau, w = find_tau_min(4, 10.0, params)
    assert fake.walked == list(range(9))
    assert tau == float(fake.taus[6]) and w == 9


def test_tau_min_walk_raises_on_first_point_minimum(monkeypatch, params):
    fake = _replay(monkeypatch, params, [1.0 + i for i in range(18)])
    with pytest.raises(NoInteriorMinimumError, match=r"short-pulse edge.* 3 of 18"):
        find_tau_min(4, 10.0, params)
    assert fake.walked == [0, 1, 2]


def test_tau_min_walk_raises_on_falling_curve(monkeypatch, params):
    fake = _replay(monkeypatch, params, [100.0 - i for i in range(18)])
    with pytest.raises(NoInteriorMinimumError, match=r"long-pulse edge.* 18 of 18"):
        find_tau_min(4, 10.0, params)
    assert fake.walked == list(range(18))


def test_tau_min_walk_raises_when_every_point_fails(monkeypatch, params):
    fake = _replay(monkeypatch, params, [F] * 18)
    with pytest.raises(NoInteriorMinimumError, match="18 durations"):
        find_tau_min(4, 10.0, params)
    assert fake.walked == list(range(18))


def test_tau_min_walk_passes_unsettled_best(monkeypatch, params):
    # Single-pulse shape: an early basin reached by a two-point descent is
    # not settled, so the failures after it do not stop the walk.
    widths = [F] * 11 + [46.3, 33.5, F, F, 8.15, F, F]
    fake = _replay(monkeypatch, params, widths)
    tau, w = find_tau_min(4, 10.0, params)
    assert fake.walked == list(range(18))
    assert tau == float(fake.taus[15]) and w == 8.15


def test_tau_min_logs_one_debug_record_per_call(monkeypatch, params, caplog):
    _replay(monkeypatch, params, [F, 20, 15, 16, 12, 10, 9, F, 11] + [1.0] * 9, 6)
    caplog.set_level(logging.DEBUG, logger="kickecho.scans")
    find_tau_min(4, 10.0, params)
    (record,) = caplog.records
    assert record.levelno == logging.DEBUG
    message = record.getMessage()
    assert "walked 9 of 18 durations" in message
    assert "coarse argmin 6" in message
    assert "4 refinement evaluations (2 parabolic, 2 golden)" in message
    caplog.clear()
    _replay(monkeypatch, params, [1.0 + i for i in range(18)])
    with pytest.raises(NoInteriorMinimumError):
        find_tau_min(4, 10.0, params)
    (record,) = caplog.records
    assert "walked 3 of 18" in record.getMessage()
    assert "0 refinement evaluations (0 parabolic, 0 golden)" in record.getMessage()


def _refinement_counts(caplog) -> tuple[int, int]:
    """(parabolic, golden) from the one DEBUG record of find_tau_min."""
    (record,) = caplog.records
    match = re.search(r"\((\d+) parabolic, (\d+) golden\)", record.getMessage())
    return int(match.group(1)), int(match.group(2))


def test_tau_min_refines_a_parabola_in_few_steps(monkeypatch, params, caplog):
    # Minimum 0.37 grid steps above the coarse argmin: golden section took
    # 17 widths to pin it; the parabola through the three coarse widths
    # lands on it at once.
    grid = np.log(_coarse_taus(params))
    s_star = grid[9] + 0.37 * (grid[10] - grid[9])
    fake = _replay_shape(
        monkeypatch, params, lambda s: 2e-8 * (1.0 + 3.0 * (s - s_star) ** 2)
    )
    caplog.set_level(logging.DEBUG, logger="kickecho.scans")
    tau, w = find_tau_min(4, 10.0, params)
    assert len(fake.refined) <= 8
    assert _refinement_counts(caplog)[0] >= 1
    assert abs(tau / math.exp(s_star) - 1.0) <= scans.TAU_RESOLUTION
    assert w == min(fake.shape(math.log(t)) for t in fake.refined)


def test_tau_min_failed_neighbour_forces_golden_steps(monkeypatch, params, caplog):
    # The best 10 at index 5 is settled; its upper neighbour fails.  The
    # parabola through an inf width is not finite, so the first step is
    # golden.  Off the grid everything is wider than the grid minimum.
    widths = [30, 25, 20, 15, 12, 10, F, 14] + [40.0] * 10
    fake = _replay(monkeypatch, params, widths)
    caplog.set_level(logging.DEBUG, logger="kickecho.scans")
    tau, w = find_tau_min(4, 10.0, params)
    assert fake.walked == list(range(8))
    assert _refinement_counts(caplog)[1] >= 1
    assert fake.refined
    assert all(fake.taus[4] < t < fake.taus[6] for t in fake.refined)
    assert tau == float(fake.taus[5]) and w == 10


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1.5, max_value=15.5),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=1.0, max_value=3.0),
    st.floats(min_value=1.0, max_value=3.0),
)
def test_tau_min_lands_on_asymmetric_minimum(params, at, left, right, p_left, p_right):
    """Brent's method pins any unimodal, asymmetric width curve within two
    resolutions and never measures outside the coarse bracket."""
    grid = np.log(_coarse_taus(params))
    s_star = float(np.interp(at, np.arange(18), grid))

    def shape(s):
        d = s - s_star
        scale, power = (left, p_left) if d < 0.0 else (right, p_right)
        return 1e-8 * (1.0 + scale * abs(d) ** power)

    with pytest.MonkeyPatch.context() as mp:
        fake = _replay_shape(mp, params, shape)
        tau, w = find_tau_min(4, 10.0, params)
    i_min = int(np.argmin([shape(s) for s in grid]))
    assert all(fake.taus[i_min - 1] < t < fake.taus[i_min + 1] for t in fake.refined)
    assert abs(tau / math.exp(s_star) - 1.0) <= 2.0 * scans.TAU_RESOLUTION
    assert w == shape(math.log(tau))


@pytest.mark.parametrize("gamma,n", [(3.0, 6), (3.0, 8), (5.0, 4), (5.0, 6)])
def test_find_tau_min_small_gamma_n_cells(params, gamma, n):
    """A spurious narrow width at tau = T_T / 2 once took the argmin in
    these cells; the walk stops at the real minimum before reaching it."""
    tau, w = find_tau_min(n, gamma, params)
    assert tau < 0.25 * params.talbot_time
    assert tau * math.sqrt(gamma * n) == pytest.approx(22e-6, rel=0.05)
    assert 0.0 < w


def test_gaussian_accel_scan_reaches_point_source_limit(params):
    """A very wide packet has negligible momentum spread, so its ensemble
    acceleration curve must reproduce the single-fiber scan width."""
    g = gaussian_accel_scan(10, 0.5, WavepacketSpec(sigma_x=1e-3), params, n_points=65)
    pt = scan("accel", SequenceSpec(10, 0.5, params.talbot_time), params, n_points=65)
    assert g.fwhm == pytest.approx(pt.fwhm, rel=1e-3)


def test_gaussian_accel_scan_requires_symmetric_window(params):
    wp = WavepacketSpec(sigma_x=1e-4)
    with pytest.raises(ValueError):
        gaussian_accel_scan(10, 0.5, wp, params, window=(-1.0, 2.0))
    with pytest.raises(ValueError):
        gaussian_accel_scan(10, 0.5, wp, params, n_points=8)


def test_peak_shift_is_stable_across_resonance_multiples(params):
    d1, d2 = measure_peak_shift(4, 10.0, 2e-6, (1, 2), params)
    assert d1 != 0.0
    assert abs(d1 - d2) < 1e-10 * abs(d1)


def test_peak_shift_samples_identical_offsets_at_every_multiple(params, monkeypatch):
    """One call measures the l = 1 width once; every multiple is then a
    PEAK_SHIFT_POINTS-sample timing scan of the same offsets, so the shifts
    difference without grid bias."""
    sampled = []
    evaluate = scans._evaluate

    def spy(spec, params, axis, values, workers):
        sampled.append((spec.period, values.copy()))
        return evaluate(spec, params, axis, values, workers)

    monkeypatch.setattr(scans, "_evaluate", spy)
    measure_peak_shift(4, 10.0, 2e-6, (1, 2, 3), params)
    t_t = params.talbot_time
    dense = [(period, values) for period, values in sampled
             if values.size == scans.PEAK_SHIFT_POINTS]
    assert [period for period, _ in dense] == [l * t_t for l in (1, 2, 3)]
    assert all(np.array_equal(values, dense[0][1]) for _, values in dense)
    # The width is measured only at the first multiple.
    assert all(period == t_t for period, values in sampled
               if values.size != scans.PEAK_SHIFT_POINTS)


@pytest.mark.parametrize("gamma", [10.0, 100.0])
def test_peak_shift_reads_the_engine_maximum(params, gamma):
    """At (gamma, N) = (10, 16) and (100, 16), tau = 22 us / sqrt(gamma N),
    the shift lies within 1e-5 relative of the maximum of the engine output,
    found by Brent's method in the offset u = eps / w in l = 1 widths.  In
    seconds the search would stop at scipy's absolute floor of 1e-11 on x,
    a few percent of these shifts (1.75e-9 and 5.6e-10 s).  A least-squares
    parabola through 121 of 301 samples read 0.55-0.70 % below the
    maximum; the three-sample vertex reads 2.6e-6 and 3.1e-6 below it."""
    n_pulses = 16
    tau = 22e-6 / math.sqrt(gamma * n_pulses)
    v0 = v0_from_gamma(gamma, params)
    t_t = params.talbot_time
    (shift,) = measure_peak_shift(n_pulses, gamma, tau, (1,), params)
    w, _ = scans._finite_width(n_pulses, v0, tau, params, t_t)

    def minus_output(u):
        amps = finite_return_amplitudes(n_pulses, v0, tau, t_t + u * w, 0.0, params)
        return -float(np.abs(amps[0]) ** 2)

    u0 = shift / w
    best = optimize.minimize_scalar(
        minus_output, bracket=(u0 - 0.25, u0, u0 + 0.25), method="brent", tol=1e-12
    )
    assert best.success
    # approx adds an absolute 1e-12 unless told otherwise; these shifts are
    # about 1e-9 s.
    assert shift == pytest.approx(best.x * w, rel=1e-5, abs=0.0)


def test_peak_shift_validation(params):
    for multiples in ((0,), (1, -2), ()):
        with pytest.raises(ValueError):
            measure_peak_shift(4, 10.0, 2e-6, multiples, params)
    # A bare int is not a count of multiples.
    with pytest.raises((TypeError, ValueError)):
        measure_peak_shift(4, 10.0, 2e-6, 2, params)
