"""Scan curves, width extraction, duration optimization, and power-law fits."""

import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from kickecho.analytic import X_HALF, fwhm_accel, fwhm_eps, fwhm_p0
from kickecho.errors import (
    InsufficientSpanError,
    MultimodalPeakError,
    NoInteriorMinimumError,
    PeakNotBracketedError,
)
from kickecho import scans
from kickecho.ladder import (
    SequenceSpec,
    WavepacketSpec,
    auto_q_max,
    batched_return_amplitudes,
    gaussian_output,
    resonant_return_amplitudes,
    run_sequence,
)
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


def test_scan_widens_a_too_narrow_window_once(params):
    """Both scans widen an unbracketing window fourfold about its center,
    once: the result equals a scan of the widened window bit for bit, and
    a window that is still too narrow after that fails."""
    spec = SequenceSpec(20, 0.5, params.talbot_time)
    w = fwhm_eps(20, 0.5, params)
    c = scan("eps", spec, params, window=(-w / 4.0, w / 4.0), n_points=65)
    assert c.fwhm == pytest.approx(w, rel=2e-2)
    direct = scan("eps", spec, params, window=(-w, w), n_points=65)
    assert np.array_equal(c.control, direct.control)
    assert np.array_equal(c.output, direct.output)
    # An off-center window widens about its own center.
    c = scan("eps", spec, params, window=(-w / 8.0, w / 4.0), n_points=65)
    assert c.control[0] == pytest.approx(w / 16.0 - 0.75 * w, rel=1e-12)
    assert c.control[-1] == pytest.approx(w / 16.0 + 0.75 * w, rel=1e-12)
    with pytest.raises(PeakNotBracketedError):
        scan("eps", spec, params, window=(-w / 200.0, w / 200.0), n_points=65)

    wp = WavepacketSpec(sigma_x=1e-4)
    a = fwhm_accel(10, 0.5, params)
    g = gaussian_accel_scan(10, 0.5, wp, params, window=(-a / 4.0, a / 4.0), n_points=33)
    assert g.fwhm == pytest.approx(a, rel=2e-2)
    direct = gaussian_accel_scan(10, 0.5, wp, params, window=(-a, a), n_points=33)
    assert np.array_equal(g.control, direct.control)
    assert np.array_equal(g.output, direct.output)
    assert g.fwhm == direct.fwhm
    with pytest.raises(PeakNotBracketedError):
        gaussian_accel_scan(10, 0.5, wp, params, window=(-a / 200.0, a / 200.0), n_points=33)


def test_scan_argument_validation(params):
    spec = SequenceSpec(10, 0.5, params.talbot_time)
    with pytest.raises(ValueError):
        scan("eps", spec, params, n_points=8)
    with pytest.raises(ValueError):
        scan("eps", spec, params, window=(1.0, 1.0))
    with pytest.raises(ValueError):
        scan("sideways", spec, params)
    # Caps that stop before a second quadrature rule could never converge.
    wp = WavepacketSpec(sigma_x=1e-4)
    for max_nodes in (10, 33, 64):
        with pytest.raises(ValueError, match="max_nodes"):
            gaussian_output(spec, wp, params, max_nodes=max_nodes)
    for max_density in (4.0, 8.0, 15.9):
        with pytest.raises(ValueError, match="max_density"):
            gaussian_accel_curve(10, 0.5, [0.0], wp, params, max_density=max_density)


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


def test_find_tau_min_is_coarse_grid_independent(params):
    a_tau, a_w = find_tau_min(4, 10.0, params, coarse_points=16)
    b_tau, b_w = find_tau_min(4, 10.0, params, coarse_points=24)
    assert a_tau == pytest.approx(b_tau, rel=2e-3)
    assert a_w == pytest.approx(b_w, rel=1e-5)
    assert 0.0 < a_tau < 0.5 * params.talbot_time
    assert 0.0 < a_w


def test_find_tau_min_validation(params):
    with pytest.raises(ValueError):
        find_tau_min(2, 0.4, params)  # gamma * n_pulses <= 1
    with pytest.raises(ValueError):
        find_tau_min(4, 10.0, params, coarse_points=8)
    for bad in (16.5, 18.0, True, "18"):
        with pytest.raises(ValueError, match="coarse_points"):
            find_tau_min(4, 10.0, params, coarse_points=bad)
    for bad in (True, 4.0, 0, -3):
        with pytest.raises(ValueError, match="n_pulses"):
            find_tau_min(bad, 10.0, params)


F = math.inf  # a duration whose width measurement fails


class _ReplayedWidths:
    """Stand-in for scans._finite_width that replays one width per coarse
    duration and records which coarse durations were measured.

    Off the grid (golden-section steps) the width is a parabola in log tau
    around the replayed width at index i_min (default: the smallest), so
    the refinement converges onto that grid point.
    """

    def __init__(self, params, widths, i_min=None):
        center = params.talbot_time
        self.taus = np.geomspace(
            scans.TAU_DOMAIN_LO_FRACTION * center,
            scans.TAU_DOMAIN_HI_FRACTION * center,
            len(widths),
        )
        self.widths = {float(t): w for t, w in zip(self.taus, widths)}
        if i_min is None:
            i_min = int(np.argmin(widths))
        self.tau_best, self.w_best = float(self.taus[i_min]), widths[i_min]
        self.walked: list[int] = []

    def __call__(self, n_pulses, v0, tau_p, params, center):
        if tau_p in self.widths:
            self.walked.append(int(np.flatnonzero(self.taus == tau_p)[0]))
            w = self.widths[tau_p]
        else:
            w = self.w_best * (1.0 + math.log(tau_p / self.tau_best) ** 2)
        if not math.isfinite(w):
            raise PeakNotBracketedError("replayed failure")
        return w, center


def _replay(monkeypatch, params, widths, i_min=None):
    fake = _ReplayedWidths(params, widths, i_min)
    monkeypatch.setattr(scans, "_finite_width", fake)
    return fake


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
    assert "golden-section evaluations" in message
    caplog.clear()
    _replay(monkeypatch, params, [1.0 + i for i in range(18)])
    with pytest.raises(NoInteriorMinimumError):
        find_tau_min(4, 10.0, params)
    (record,) = caplog.records
    assert "walked 3 of 18" in record.getMessage()
    assert "0 golden-section" in record.getMessage()


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
    d1 = measure_peak_shift(4, 10.0, 2e-6, 1, params)
    d2 = measure_peak_shift(4, 10.0, 2e-6, 2, params)
    assert d1 != 0.0
    assert abs(d1 - d2) < 1e-10 * abs(d1)


def test_peak_shift_fits_a_symmetric_index_window(params, monkeypatch):
    """The parabola through the timing peak takes round(0.2 * 300) = 60
    samples on each side of the maximum of the 301-point scan, so rounding
    of the reference width cannot add or drop an edge sample."""
    fitted = []
    polyfit = np.polyfit

    def spy(x, y, deg):
        fitted.append(np.asarray(x))
        return polyfit(x, y, deg)

    monkeypatch.setattr(np, "polyfit", spy)
    measure_peak_shift(4, 10.0, 2e-6, 1, params)
    x = fitted[-1]
    assert x.size == 2 * 60 + 1
    assert x[60] == 0.0
    np.testing.assert_allclose(x + x[::-1], 0.0, atol=1e-12 * np.max(np.abs(x)))


def test_peak_shift_validation(params):
    with pytest.raises(ValueError):
        measure_peak_shift(4, 10.0, 2e-6, 0, params)
