"""Parameter sweeps and curve analysis for echo-sequence outputs.

Scans drive the ladder or finite-pulse engines across a control axis
(timing offset, launch momentum, or acceleration), measure the central
peak of the output curve, search for the pulse duration that minimizes
the timing-scan width, and fit power laws to the resulting data.

All searches and fits use relative tolerances; the physical scales of
the control axes span thirty orders of magnitude and absolute
tolerances are meaningless across them.  Every routine here is
deterministic: identical inputs produce bit-identical curves, whatever
the worker count.
"""

from __future__ import annotations

import copy
import functools
import logging
import math
import os
import sys
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import fwhm_accel, fwhm_eps, fwhm_p0
from .errors import (
    InsufficientSpanError,
    MultimodalPeakError,
    NoInteriorMinimumError,
    PeakNotBracketedError,
)
from .finite_pulse import FinitePulseSpec, finite_return_amplitudes
from .ladder import (
    SequenceSpec,
    WavepacketSpec,
    _check_n_kicks,
    _fiber_average,
    resonant_return_amplitudes,
    return_amplitudes,
)
from .params import PhysicalParams, v0_from_gamma

logger = logging.getLogger(__name__)

# Fractional slack allowed on the output range before validation fails;
# engine outputs are squared magnitudes so only rounding can exceed [0, 1].
OUTPUT_RANGE_TOL = 1e-9

# Relative tau resolution of the width minimization (Brent's method in
# log tau): it stops once both ends of its bracket lie within this
# relative distance of the best duration.
TAU_RESOLUTION = 1e-3

# Domain of the pulse-duration search: the pulse must fit inside the
# period with free flight remaining.  Its geometric coarse grid has
# TAU_COARSE_POINTS durations.
TAU_DOMAIN_LO_FRACTION = 1.0 / 4096.0
TAU_DOMAIN_HI_FRACTION = 0.5
TAU_COARSE_POINTS = 18

# Golden-section step of Brent's method, as a fraction of the larger side
# of the bracket: 1 - 1/phi.
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0

# Stop rule of the coarse pulse-duration walk (see _walk_until_turned).
TAU_TURN_POINTS = 2
TAU_SETTLED_DESCENT = 3

# Stability of the Gaussian acceleration curve: gaussian_accel_curve
# doubles its grid density from 8 until the curve moves by at most
# ACCEL_CURVE_TOL of its maximum, up to ACCEL_MAX_DENSITY (at least 16, so
# that two grids are compared).
ACCEL_CURVE_TOL = 1e-3
ACCEL_MAX_DENSITY = 64.0

# Timing samples of each scan of measure_peak_shift.
PEAK_SHIFT_POINTS = 301

# Timing samples of each window of find_tau_min's width measurements.
TAU_WIDTH_POINTS = 33


@dataclass(frozen=True)
class ScanCurve:
    """Sampled output curve over one control axis.

    Attributes
    ----------
    control : ndarray
        Ordered sample points.  Units depend on the axis: seconds for
        timing offsets, kg m/s for launch momentum, m/s^2 for
        acceleration.
    output : ndarray
        Return probability at each sample, in [0, 1].
    peak_center : float
        Interpolated location of the central maximum (nan until
        measured).
    fwhm : float
        Full width at half maximum of the central peak (nan until
        measured).
    """

    control: np.ndarray
    output: np.ndarray
    peak_center: float = math.nan
    fwhm: float = math.nan

    def __post_init__(self) -> None:
        control = np.asarray(self.control, dtype=np.float64)
        output = np.asarray(self.output, dtype=np.float64)
        if control.ndim != 1 or control.shape != output.shape:
            raise ValueError("control and output must be 1-D arrays of equal length")
        if control.size < 5:
            raise ValueError(f"need at least 5 samples, got {control.size}")
        # NaN passes every comparison below, so it is rejected first.
        if not (np.all(np.isfinite(control)) and np.all(np.isfinite(output))):
            raise ValueError("control and output samples must be finite")
        if np.any(np.diff(control) <= 0.0):
            raise ValueError("control samples must be strictly increasing")
        if np.any(output < -OUTPUT_RANGE_TOL) or np.any(output > 1.0 + OUTPUT_RANGE_TOL):
            raise ValueError(
                f"output must lie in [0, 1]; range is "
                f"[{output.min():.6g}, {output.max():.6g}]"
            )
        object.__setattr__(self, "control", control)
        object.__setattr__(self, "output", np.clip(output, 0.0, 1.0))

    def measured(self) -> "ScanCurve":
        """Return a copy with peak_center and fwhm filled in.  The copy
        shares the arrays that this curve has already validated, so it is
        not validated again."""
        fwhm, center = extract_fwhm(self)
        curve = copy.copy(self)
        curve.__dict__.update(peak_center=center, fwhm=fwhm)
        return curve


@dataclass(frozen=True)
class ScalingFit:
    """Power-law fit value = prefactor * n**exponent (after scaling).

    residual is the maximum relative deviation of the scaled data from
    the fitted law.
    """

    exponent: float
    prefactor: float
    residual: float


def _parabolic_peak(x: np.ndarray, y: np.ndarray, i_max: int) -> tuple[float, float]:
    """Vertex of the parabola through the three samples centered on i_max.

    The parabola y1 + b u + a u^2 in the offset u from the middle sample
    comes in closed form from the divided differences of the samples, in
    Python floats, so huge controls overflow quietly instead of warning.
    Falls back to the raw sample unless the curvature a is finite and
    negative and the vertex lies between the outer samples.
    """
    x1, y1 = float(x[i_max]), float(y[i_max])
    h0, h2 = float(x[i_max - 1]) - x1, float(x[i_max + 1]) - x1
    if not (-math.inf < h0 < 0.0 < h2 < math.inf):
        return x1, y1
    d0 = (y1 - float(y[i_max - 1])) / -h0
    d2 = (float(y[i_max + 1]) - y1) / h2
    a = (d2 - d0) / (h2 - h0)
    if not (-math.inf < a < 0.0):
        return x1, y1
    b = d0 - a * h0
    xv = -b / (2.0 * a)
    # The vertex is only trusted between the neighboring samples.
    if not (h0 <= xv <= h2):
        return x1, y1
    return x1 + xv, y1 + 0.5 * b * xv


def _cubic_root(t0: float, t3: float, g: tuple[float, float, float, float]) -> float:
    """First root in [0, 1] of the cubic through (t0, g0), (0, g1), (1, g2)
    and (t3, g3), with t0 < 0 < 1 < t3 and g1 >= 0 > g2; nan if the cubic
    is not finite or rounding leaves no sign change in [0, 1].

    The cubic is split at its critical points, so the first piece that
    changes sign is monotone; its root comes from Newton steps kept
    inside the piece by bisection.
    """
    g0, g1, g2, g3 = g
    if g1 == 0.0:
        return 0.0
    # Divided differences, then the power form c0 + c1 t + c2 t^2 + c3 t^3.
    d01, d12, d23 = (g1 - g0) / -t0, g2 - g1, (g3 - g2) / (t3 - 1.0)
    d012, d123 = (d12 - d01) / (1.0 - t0), (d23 - d12) / t3
    c3 = (d123 - d012) / (t3 - t0)
    c2 = d012 - c3 * (1.0 + t0)
    c1 = d12 - d012 + c3 * t0
    c0 = g1
    if not math.isfinite(c1 + c2 + c3):
        return math.nan

    def p(t: float) -> float:
        return c0 + t * (c1 + t * (c2 + t * c3))

    # Critical points inside (0, 1): roots of c1 + 2 c2 t + 3 c3 t^2.
    a, b = 3.0 * c3, 2.0 * c2
    if a == 0.0:
        crit = [-c1 / b] if b != 0.0 else []
    else:
        disc = b * b - 4.0 * a * c1
        if disc > 0.0:
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            crit = sorted([q / a, c1 / q] if q != 0.0 else [q / a])
        else:
            crit = []
    lo, p_lo = 0.0, c0
    for hi in [t for t in crit if 0.0 < t < 1.0] + [1.0]:
        p_hi = p(hi)
        if p_hi <= 0.0:
            break
        lo, p_lo = hi, p_hi
    else:
        return math.nan
    if p_hi == 0.0:
        return hi
    # p falls monotonically from p_lo > 0 to p_hi < 0 on [lo, hi].
    t = lo + p_lo / (p_lo - p_hi) * (hi - lo)
    for _ in range(64):
        pt = p(t)
        if pt == 0.0:
            return t
        if pt > 0.0:
            lo = t
        else:
            hi = t
        slope = c1 + t * (2.0 * c2 + t * 3.0 * c3)
        step = t - pt / slope if slope != 0.0 else math.nan
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - t) <= 1e-15:
            return step
        t = step
    return t


def _half_crossing(
    x: np.ndarray, y: np.ndarray, i_max: int, half: float, direction: int
) -> float:
    """Nearest half-level crossing walking away from i_max.

    direction is -1 (left) or +1 (right).  The crossing lies between the
    first sample j below the half level and its inward neighbor i.  It is
    the first root, walking outward from i, of the cubic through i, j and
    their outer neighbors.  Where a neighbor is missing or the cubic gives
    no root there, it is read from the line through i and j.  The reading
    runs on Python floats.
    """
    i = i_max
    while True:
        j = i + direction
        if j < 0 or j >= x.size:
            side = "left" if direction < 0 else "right"
            raise PeakNotBracketedError(
                f"output stays above half maximum out to the {side} edge "
                f"of the scan range"
            )
        if y[j] < half:
            break
        i = j
    # Crossing between samples i and j.
    xi, xj = float(x[i]), float(x[j])
    yi, yj = float(y[i]), float(y[j])
    k, m = i - direction, j + direction
    if 0 <= k < x.size and 0 <= m < x.size:
        h = xj - xi
        t0, t3 = (float(x[k]) - xi) / h, (float(x[m]) - xi) / h
        if -math.inf < t0 < 0.0 and 1.0 < t3 < math.inf:
            t = _cubic_root(
                t0, t3, (float(y[k]) - half, yi - half, yj - half, float(y[m]) - half)
            )
            if not math.isnan(t):
                return xi + t * h
    frac = (half - yi) / (yj - yi)
    return xi + frac * (xj - xi)


def extract_fwhm(curve: ScanCurve) -> tuple[float, float]:
    """Width and center of the central peak of a scan curve.

    The peak center and height come from parabolic interpolation through
    the three highest contiguous samples; the half level is half of the
    interpolated peak height (not an assumed unit height).  Crossings of
    the half level are read on the nearest flanks of the peak from the
    cubic through the four samples around each (_half_crossing).

    Returns
    -------
    (fwhm, peak_center)

    Raises
    ------
    PeakNotBracketedError
        If the maximum sits on the first or last sample, or either flank
        never drops below half maximum inside the range.
    MultimodalPeakError
        If any local maximum away from the central peak exceeds half of
        the global maximum; the width of such a curve is ambiguous.
    """
    x, y = curve.control, curve.output
    i_max = int(np.argmax(y))
    if i_max == 0 or i_max == y.size - 1:
        raise PeakNotBracketedError("maximum lies on the edge of the scan range")
    center, peak = _parabolic_peak(x, y, i_max)
    if peak <= 0.0:
        raise PeakNotBracketedError("curve has no positive peak")
    half = 0.5 * peak

    left = _half_crossing(x, y, i_max, half, -1)
    right = _half_crossing(x, y, i_max, half, +1)

    # Any rival local maximum above the half level makes the width
    # ambiguous.  The central peak itself (and a one-sample plateau
    # around it) is exempt.
    interior = np.arange(1, y.size - 1)
    is_local_max = (
        (y[interior] >= y[interior - 1])
        & (y[interior] >= y[interior + 1])
        & ((y[interior] > y[interior - 1]) | (y[interior] > y[interior + 1]))
    )
    for i in interior[is_local_max]:
        if abs(int(i) - i_max) <= 1:
            continue
        if y[i] > half:
            raise MultimodalPeakError(
                f"secondary maximum {y[i]:.4g} at control {x[i]:.6g} exceeds "
                f"half of the global maximum {peak:.4g}"
            )
    return right - left, center


def _outputs(
    spec: SequenceSpec | FinitePulseSpec,
    params: PhysicalParams,
    axis: str,
    values: np.ndarray,
) -> np.ndarray:
    """Outputs |c_{q=0}|^2 along one control axis: a FinitePulseSpec runs
    the finite-pulse engine, and a SequenceSpec the delta-kick engine that
    ladder.return_amplitudes chooses for the columns."""
    periods, betas = spec.period, 0.0
    accels = spec.accel if isinstance(spec, SequenceSpec) else 0.0
    if axis == "eps":
        periods = spec.period + values
    elif axis == "p0":
        betas = values / params.recoil_momentum
    elif axis == "accel":
        accels = values
    else:
        raise ValueError(f"unknown control axis {axis!r}")
    if isinstance(spec, SequenceSpec):
        amps = return_amplitudes(spec.n_kicks, spec.phi_d, periods, betas, accels, params)
    elif axis == "accel":
        raise ValueError("finite-pulse sequences support zero acceleration only")
    else:
        amps = finite_return_amplitudes(
            spec.n_pulses, spec.v0, spec.tau_p, periods, betas, params
        )
    return np.abs(amps) ** 2


# Predicted FWHM of each control axis, a function of (n_kicks, phi_d, params).
PREDICTED_FWHM = {"eps": fwhm_eps, "p0": fwhm_p0, "accel": fwhm_accel}


def _auto_half_span(n_kicks: int, phi_d: float, params: PhysicalParams, axis: str) -> float:
    """Half-width of the default scan window: twice the predicted FWHM."""
    if phi_d <= 0.0:
        raise ValueError("cannot auto-range a scan with zero kick strength")
    if axis not in PREDICTED_FWHM:
        raise ValueError(f"unknown control axis {axis!r}")
    return 2.0 * PREDICTED_FWHM[axis](n_kicks, phi_d, params)


def _evaluate(
    spec: SequenceSpec | FinitePulseSpec,
    params: PhysicalParams,
    axis: str,
    values: np.ndarray,
    workers: int,
) -> np.ndarray:
    run = functools.partial(_outputs, spec, params, axis)
    # A finite-pulse scan runs as one chunk: its engine multiplies each
    # chunk by one BLAS product, which rounds by the chunk width, and two
    # chunks ran slower than one.
    if isinstance(spec, FinitePulseSpec) or workers <= 1 or values.size < 2 * workers:
        return run(values)
    # The chunks follow the worker count, so the curve does not depend on
    # the core count; threads beyond it would only contend.
    chunks = np.array_split(values, workers)
    with ThreadPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        parts = list(pool.map(run, chunks))
    return np.concatenate(parts)


# A finite-pulse curve whose largest sample falls below this has no echo
# peak left to measure.  Healthy peaks near the width minimum reach 0.3-1.0;
# past it the echo collapses by orders of magnitude, so the cutoff only
# short-circuits hopeless windows (a real peak that is merely wider than
# the window keeps its near-peak samples high and takes the widen path).
NO_PEAK_FLOOR = 0.02


@dataclass
class WindowTally:
    """Windows sampled, and windows discarded (widened or zoomed away
    from), by the scans given this tally.  find_tau_min sums them over
    its search."""

    windows: int = 0
    discarded: int = 0


def scan(
    control_axis: str,
    spec: SequenceSpec | FinitePulseSpec,
    params: PhysicalParams,
    window: tuple[float, float] | None = None,
    n_points: int = 161,
    workers: int = 1,
    tally: WindowTally | None = None,
) -> ScanCurve:
    """Sweep one control axis and measure the central peak.

    The window moves as _measure_peak says: it widens threefold while the
    peak is unbracketed, and a default window zooms onto a narrow peak.

    Parameters
    ----------
    control_axis : {"eps", "p0", "accel"}
        "eps" varies the pulse period around spec.period (the control
        value is the offset in seconds), "p0" varies the launch momentum
        in kg m/s at fixed period, "accel" varies the acceleration in
        m/s^2 (ideal-kick sequences only).
    spec : SequenceSpec or FinitePulseSpec
        Sequence to drive.  A FinitePulseSpec selects the finite-pulse
        engine.
    window : (lo, hi), optional
        First control range, sampled as given.  Defaults to two predicted
        widths on each side of zero offset, which on the "eps" axis spans
        at most min(spec.period, T_T).
    n_points : int
        Samples across the window; at least 32.
    workers : int
        Contiguous chunks of a delta-kick scan, evaluated on at most
        os.cpu_count() threads; a finite-pulse scan runs as one chunk.
        The curve is bit-identical for every worker count and core count.
    tally : WindowTally, optional
        Adds this call's windows and discarded windows.

    Returns
    -------
    ScanCurve of the final window, with peak_center and fwhm filled in.

    Raises
    ------
    PeakNotBracketedError
        If the peak is not bracketed by a window of the largest span
        ("eps" axis) or within 16 windows, or a finite-pulse window stays
        below NO_PEAK_FLOOR.
    """
    if n_points < 32:
        raise ValueError(f"n_points must be at least 32, got {n_points}")
    finite = isinstance(spec, FinitePulseSpec)
    # Periods must stay positive and the neighboring resonance peaks out
    # of the scan, so an eps window spans at most one resonance period.
    cap = min(spec.period, params.talbot_time) if control_axis == "eps" else math.inf
    if window is None:
        n = spec.n_pulses if finite else spec.n_kicks
        half = min(_auto_half_span(n, spec.phi_d, params, control_axis), 0.5 * cap)
        window = (-half, half)
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError(f"empty scan window ({lo!r}, {hi!r})")

    def sample(lo: float, hi: float) -> ScanCurve:
        values = np.linspace(lo, hi, n_points)
        if tally is not None:
            tally.windows += 1
        output = _evaluate(spec, params, control_axis, values, workers)
        if finite and float(np.max(output)) < NO_PEAK_FLOOR:
            raise PeakNotBracketedError(
                f"output stays below {NO_PEAK_FLOOR} across the window for "
                f"tau_p = {spec.tau_p:.6g} s; the echo peak has washed out"
            )
        return ScanCurve(values, output)

    return _measure_peak(sample, lo, hi, zoom=window is None, cap=cap, tally=tally)


def _measure_peak(
    sample: Callable[[float, float], ScanCurve],
    lo: float,
    hi: float,
    zoom: bool,
    cap: float = math.inf,
    tally: WindowTally | None = None,
) -> ScanCurve:
    """Measure sample(lo, hi), moving the window until the peak is measured.

    While the peak is unbracketed the window widens threefold about its
    center, its span clipped to cap; a window that already spans cap
    raises.  With zoom set, a width under a tenth of the span narrows the
    window to four widths about its center, at most twice, so that the
    interpolation error stays in the 1e-3 range.  At most 16 windows are
    sampled.  Each widened or zoomed window counts in tally.discarded.
    """
    zooms = 0
    for _ in range(16):
        # sample raises at once on a window it rejects; only an unbracketed
        # peak moves the window.
        curve = sample(lo, hi)
        try:
            curve = curve.measured()
        except PeakNotBracketedError:
            if hi - lo >= cap:
                raise PeakNotBracketedError(
                    f"peak is wider than the widest scan window, "
                    f"min(period, T_T) = {cap:.6g} s"
                ) from None
            mid, half = 0.5 * (lo + hi), min(1.5 * (hi - lo), 0.5 * cap)
            lo, hi = mid - half, mid + half
        else:
            if not (zoom and zooms < 2 and curve.fwhm < (hi - lo) / 10.0):
                return curve
            mid = 0.5 * (lo + hi)
            lo, hi = mid - 2.0 * curve.fwhm, mid + 2.0 * curve.fwhm
            zooms += 1
        if tally is not None:
            tally.discarded += 1
    raise PeakNotBracketedError("peak not measured within 16 scan windows")


def _beta_average_nodes(
    n_kicks: int,
    phi_d: float,
    wavepacket: WavepacketSpec,
    params: PhysicalParams,
    density: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform quasimomentum grid with normalized Gaussian weights.

    The ensemble output against quasimomentum is structured on three
    scales: the momentum filter width of the sequence, the fringe scale
    1/(4 N^2 phi_d) of the output oscillations, and the Gaussian envelope
    itself.  The grid step resolves the finest of the three with
    `density` points; Gauss-Hermite nodes cluster far too coarsely near
    zero for integrands this much narrower than the envelope.
    """
    sb = wavepacket.sigma_beta(params)
    try:
        filt = fwhm_p0(n_kicks, phi_d, params) / params.recoil_momentum
    except ValueError:
        # Kicks too weak for a half-maximum crossing: no filter scale.
        filt = math.inf
    osc = 1.0 / (4.0 * n_kicks**2 * phi_d) if phi_d > 0.0 else math.inf
    step = min(filt, osc, sb) / density
    m = int(math.ceil(5.0 * sb / step))
    betas = np.arange(-m, m + 1) * step
    weights = np.exp(-0.5 * (betas / sb) ** 2)
    return betas, weights / weights.sum()


def gaussian_accel_curve(
    n_kicks: int,
    phi_d: float,
    accels: np.ndarray,
    wavepacket: WavepacketSpec,
    params: PhysicalParams,
) -> np.ndarray:
    """Gaussian-wavepacket output at each acceleration, at resonance period.

    Every quasimomentum fiber starts on its q = 0 rung and runs through
    the sequence independently; the output is the squared coherent
    average of the fiber return amplitudes (the wavepacket return
    probability, as in gaussian_output), by ladder._fiber_average over
    spike-resolving grids (_beta_average_nodes) of density 8 up to
    ACCEL_MAX_DENSITY, stable to ACCEL_CURVE_TOL of the curve's maximum
    (else ConvergenceError).  At the resonance period every
    fiber's return amplitude has the closed form of
    resonant_return_amplitudes, so a whole grid costs O(N) operations per
    (beta, accel) node and no ladder is run.
    """
    accels = np.atleast_1d(np.asarray(accels, dtype=np.float64))
    def rules():
        density = 8.0
        while density <= ACCEL_MAX_DENSITY:
            yield _beta_average_nodes(n_kicks, phi_d, wavepacket, params, density)
            density *= 2.0

    return _fiber_average(
        lambda betas: resonant_return_amplitudes(
            n_kicks, phi_d, betas[None, :], accels[:, None], params
        ),
        rules(),
        ACCEL_CURVE_TOL,
    )


def gaussian_accel_scan(
    n_kicks: int,
    phi_d: float,
    wavepacket: WavepacketSpec,
    params: PhysicalParams,
    window: tuple[float, float] | None = None,
    n_points: int = 65,
) -> ScanCurve:
    """Acceleration scan of the Gaussian-wavepacket output.

    The curve is even in acceleration: parity maps the fiber return
    amplitudes as c(a, beta) = c(-a, -beta) and the Gaussian weights are
    even in beta, so only nonnegative accelerations are evaluated and
    the curve is mirrored (the closed form of resonant_return_amplitudes
    keeps this symmetry).  An explicit window must therefore be
    symmetric about zero.  The peak is measured by the window loop of
    `scan` (_measure_peak), which keeps the window symmetric: it widens
    threefold while the peak is unbracketed, and the default window of
    two plane-wave widths on each side zooms onto a narrow peak.

    The n_points // 2 + 1 nonnegative samples are mirrored about the one
    at zero, so the curve has an odd count of 2 * (n_points // 2) + 1
    samples: n_points when it is odd, n_points + 1 when it is even.
    """
    if n_points < 32:
        raise ValueError(f"n_points must be at least 32, got {n_points}")
    if window is None:
        half = _auto_half_span(n_kicks, phi_d, params, "accel")
    else:
        lo, hi = float(window[0]), float(window[1])
        if not (hi > 0.0 and lo == -hi):
            raise ValueError(
                f"ensemble acceleration window must be symmetric about "
                f"zero, got ({lo!r}, {hi!r})"
            )
        half = hi

    def sample(lo: float, hi: float) -> ScanCurve:
        # The window loop keeps the window symmetric, so lo == -hi.
        pos = np.linspace(0.0, hi, n_points // 2 + 1)
        vals = gaussian_accel_curve(n_kicks, phi_d, pos, wavepacket, params)
        return ScanCurve(
            np.concatenate([-pos[:0:-1], pos]), np.concatenate([vals[:0:-1], vals])
        )

    return _measure_peak(sample, -half, half, zoom=window is None)


def _finite_width(
    n_pulses: int,
    v0: float,
    tau_p: float,
    params: PhysicalParams,
    center: float,
    n_points: int = 65,
    window: tuple[float, float] | None = None,
    tally: WindowTally | None = None,
) -> tuple[float, float]:
    """Width and offset from center of the timing peak of a finite-pulse
    sequence with period center, measured by `scan` on n_points samples of
    window (offsets from center; default: scan's default window)."""
    spec = FinitePulseSpec(n_pulses=n_pulses, v0=v0, tau_p=tau_p, period=center)
    curve = scan("eps", spec, params, window=window, n_points=n_points, tally=tally)
    return curve.fwhm, curve.peak_center


def _walk_until_turned(
    width: Callable[[float], float], taus: np.ndarray
) -> list[float]:
    """Widths along the coarse duration grid, short to long, up to the turn.

    The walk stops at the TAU_TURN_POINTS-th point after the running best
    that is not narrower than it.  A finite width always counts; a failed
    one (inf) counts only when the best is settled, i.e. reached by a
    descent of at least TAU_SETTLED_DESCENT strictly decreasing finite
    widths.  A new best resets the count.  Durations after the stop are
    never evaluated.
    """
    widths: list[float] = []
    best = math.inf
    settled = False
    descent = 0  # strictly decreasing finite widths ending at this point
    turned = 0
    for tau in taus:
        w = width(float(tau))
        if not math.isfinite(w):
            descent = 0
        elif widths and w < widths[-1]:
            descent += 1
        else:
            descent = 1
        widths.append(w)
        if w < best:
            best, settled, turned = w, descent >= TAU_SETTLED_DESCENT, 0
        elif math.isfinite(w) or settled:
            turned += 1
            if turned == TAU_TURN_POINTS:
                break
    return widths


def _brent_log_min(
    width: Callable[[float], float],
    lo: tuple[float, float],
    mid: tuple[float, float],
    hi: tuple[float, float],
) -> tuple[int, int]:
    """Refine a bracketed width minimum by Brent's method in log tau.

    lo, mid and hi are (log tau, width) points with lo < mid < hi and the
    width at mid the smallest of the three (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 5).  The first parabola
    goes through all three.  A step is golden instead of parabolic when
    the parabola is not finite (a failed width is inf), its vertex leaves
    the bracket, or it is not shorter than half the step before last.
    Steps are at least half of log1p(TAU_RESOLUTION) long, and the search
    stops once both bracket ends lie within log1p(TAU_RESOLUTION) of the
    best point.  Widths are read through width(tau); returns the numbers
    of (parabolic, golden) evaluations.
    """
    (v, fv), (x, fx), (w, fw) = lo, mid, hi
    a, b = v, w
    # Both earlier steps count as the bracket width, so the first two
    # parabolic steps may go anywhere inside it.
    d = e = b - a
    tol = 0.5 * math.log1p(TAU_RESOLUTION)
    parabolic = golden = 0
    while max(x - a, b - x) > 2.0 * tol:
        m = 0.5 * (a + b)
        # Vertex of the parabola through v, w and x: x + p/q.
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        if q > 0.0:
            p = -p
        q = abs(q)
        e_prev, e = e, d
        if (
            abs(e_prev) > tol
            and math.isfinite(p)
            and math.isfinite(q)
            and abs(p) < abs(0.5 * q * e_prev)
            and q * (a - x) < p < q * (b - x)
        ):
            d = p / q
            if min(x + d - a, b - x - d) < 2.0 * tol:
                d = math.copysign(tol, m - x)
            parabolic += 1
        else:
            e = (a - x) if x >= m else (b - x)
            d = _GOLDEN_STEP * e
            golden += 1
        u = x + d if abs(d) >= tol else x + math.copysign(tol, d)
        fu = width(math.exp(u))
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return parabolic, golden


def find_tau_min(
    n_pulses: int,
    gamma: float,
    params: PhysicalParams,
) -> tuple[float, float]:
    """Pulse duration minimizing the timing-scan width at fixed area rate.

    The potential depth is set so the dimensionless depth is gamma;
    the pulse area then grows linearly with tau_p, so short pulses give
    weak kicks (wide timing peaks) and long pulses accumulate motion
    during the pulse (also widening the peak).  The interior minimum of
    width against duration is located on a geometric coarse grid of
    TAU_COARSE_POINTS durations over (T_T/4096, T_T/2] and refined by Brent's method (parabolic
    interpolation with golden-section fallback) in log tau to a relative
    resolution of TAU_RESOLUTION = 1e-3.

    The coarse grid is walked from short to long durations and the walk
    stops once the width has turned: at the second point after the
    running best that is not narrower than it.  A duration without a
    measurable central peak counts as wide, but toward the stop only
    after the best was reached by a descent of at least three strictly
    decreasing finite widths; short single pulses can show a spurious
    early basin before the real dip.  The coarse minimum is the argmin
    over the walked durations.  Brent's method brackets it by its two
    coarse neighbors and starts from the three widths already measured
    there; tau_min is the narrowest of all measured durations.

    Each width is measured by _finite_width on TAU_WIDTH_POINTS samples a
    window.  A duration's first window is c -+ 2w, from the width w and
    offset c of the nearest duration in log tau whose width was measured;
    the first measurable duration starts on scan's default window.  One
    DEBUG record per call reports the walk, the refinement steps, and the
    windows sampled, discarded (widened or zoomed) and their fold columns.

    Requires gamma * n_pulses > 1; far below that the kicks are too weak
    for the width to turn over inside the domain.

    Returns
    -------
    (tau_min, w_min) : pulse duration in s, width at the minimum in s.

    Raises
    ------
    ValueError
        If n_pulses is not a positive integer (bools excluded), or
        gamma * n_pulses <= 1.
    NoInteriorMinimumError
        If no walked duration has a measurable peak, or the smallest
        walked width sits on the domain edge: on the first duration, or
        on the last one of a walk that never turned.
    """
    _check_n_kicks(n_pulses, "n_pulses")
    if gamma * n_pulses <= 1.0:
        raise ValueError(
            f"width minimum requires gamma * n_pulses > 1, got "
            f"{gamma * n_pulses:.3g}"
        )
    v0 = v0_from_gamma(gamma, params)
    center = params.talbot_time

    # (width, offset) per measured duration; a failed one is (inf, nan).
    cache: dict[float, tuple[float, float]] = {}
    tally = WindowTally()

    def seeded_window(tau: float) -> tuple[float, float] | None:
        """(c - 2w, c + 2w) from the nearest measured duration in log tau
        with a finite width, its half-span at most T_T/2 like the default
        window's; None (the default window) if there is none."""
        measured = [t for t, (w, _) in cache.items() if math.isfinite(w)]
        if not measured:
            return None
        s = math.log(tau)
        w, c = cache[min(measured, key=lambda t: abs(math.log(t) - s))]
        half = min(2.0 * w, 0.5 * center)
        return c - half, c + half

    def width(tau: float) -> float:
        if tau not in cache:
            try:
                cache[tau] = _finite_width(
                    n_pulses, v0, tau, params, center, n_points=TAU_WIDTH_POINTS,
                    window=seeded_window(tau), tally=tally,
                )
            except (PeakNotBracketedError, MultimodalPeakError):
                # No measurable central peak: treat as unboundedly wide so
                # the search stays away.  Expected deep in the long-pulse
                # regime where the echo washes out.
                cache[tau] = (math.inf, math.nan)
        return cache[tau][0]

    taus = np.geomspace(
        TAU_DOMAIN_LO_FRACTION * center,
        TAU_DOMAIN_HI_FRACTION * center,
        TAU_COARSE_POINTS,
    )
    widths = _walk_until_turned(width, taus)
    walked = len(widths)
    i_min = int(np.argmin(widths))

    def log_search(parabolic: int = 0, golden: int = 0) -> None:
        logger.debug(
            "find_tau_min(n_pulses=%d, gamma=%g): walked %d of %d durations, "
            "coarse argmin %d (tau = %.6g s), %d refinement evaluations "
            "(%d parabolic, %d golden), %d windows sampled, %d discarded "
            "(widened or zoomed), %d fold columns",
            n_pulses, gamma, walked, taus.size, i_min, taus[i_min],
            parabolic + golden, parabolic, golden,
            tally.windows, tally.discarded, tally.windows * TAU_WIDTH_POINTS,
        )

    if not math.isfinite(widths[i_min]):
        log_search()
        raise NoInteriorMinimumError(
            f"no measurable timing peak on any of the {walked} durations "
            f"walked on the coarse grid"
        )
    if i_min == 0 or i_min == taus.size - 1:
        log_search()
        edge = "short" if i_min == 0 else "long"
        raise NoInteriorMinimumError(
            f"smallest width at the {edge}-pulse edge of the duration domain "
            f"(tau = {taus[i_min]:.6g} s) after walking {walked} of "
            f"{taus.size} durations"
        )

    steps = _brent_log_min(
        width,
        (math.log(taus[i_min - 1]), widths[i_min - 1]),
        (math.log(taus[i_min]), widths[i_min]),
        (math.log(taus[i_min + 1]), widths[i_min + 1]),
    )
    log_search(*steps)
    tau_min = min(cache, key=width)
    return tau_min, width(tau_min)


def fit_scaling(
    points: "list[tuple[float, float]] | np.ndarray", scale_factor: float = 1.0
) -> ScalingFit:
    """Least-squares power law through (n, value) pairs.

    Fits log(value * scale_factor) against log n.  The prefactor is
    reported in the scaled units, so passing scale_factor = gamma for
    width data at fixed gamma yields the constant of a
    prefactor * n**exponent law directly comparable across gamma.

    Raises
    ------
    ValueError
        Non-finite or non-positive n or value, or a value * scale_factor
        outside the normal double range.
    InsufficientSpanError
        Fewer than 4 distinct n values, or the n values span less than
        one decade.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (n, value) pairs")
    n, value = pts[:, 0], pts[:, 1]
    if not np.all(np.isfinite(pts)):
        raise ValueError("power-law fit needs finite n and value")
    if np.any(n <= 0.0) or np.any(value <= 0.0):
        raise ValueError("power-law fit needs positive n and value")
    if np.unique(n).size < 4:
        raise InsufficientSpanError(
            f"need at least 4 distinct n values, got {np.unique(n).size}"
        )
    span = n.max() / n.min()
    if span < 10.0 * (1.0 - 1e-12):
        raise InsufficientSpanError(
            f"n values span a factor of {span:.3g}, need at least one decade"
        )
    # Outside the normal double range the logarithms lose their digits.
    least, most = (float(v) * scale_factor for v in (value.min(), value.max()))
    if not (sys.float_info.min <= least and most < math.inf):
        raise ValueError(
            f"scale_factor must keep value * scale_factor finite and normal, got {scale_factor!r}"
        )
    scaled = value * scale_factor
    slope, intercept = np.polyfit(np.log(n), np.log(scaled), 1)
    fitted = np.exp(intercept + slope * np.log(n))
    residual = float(np.max(np.abs(fitted - scaled) / scaled))
    return ScalingFit(
        exponent=float(slope), prefactor=float(np.exp(intercept)), residual=residual
    )


def measure_peak_shift(
    n_pulses: int,
    gamma: float,
    tau_p: float,
    multiples: Iterable[int],
    params: PhysicalParams,
) -> list[float]:
    """Offsets of the timing peak from the resonance multiples l * T_T.

    Finite pulses shift the echo peak slightly off the exact resonance
    period.  The l = 1 peak is measured once, by _finite_width: its width w
    and its offset c.  Each multiple l is then a timing `scan` of
    c +- 0.75 w around l * T_T on PEAK_SHIFT_POINTS samples, read by
    extract_fwhm like every scan.  Every multiple thus samples the same
    offsets, so the shifts can be differenced without grid bias.  The
    window is centred on c because the shift reaches 0.44 w at
    (gamma, N) = (100, 16), tau_p = 22 us / sqrt(gamma N): about zero
    offset, the right half crossing would leave the window, which would
    widen threefold and coarsen the peak's three-sample vertex.

    Parameters
    ----------
    multiples : iterable of int
        Positive resonance multiples l; a bare int raises TypeError.

    Returns
    -------
    One shift per multiple, in order: peak period minus l * T_T, in seconds.
    """
    multiples = [_check_n_kicks(l, "multiple") for l in multiples]
    if not multiples:
        raise ValueError("need at least one resonance multiple")
    v0 = v0_from_gamma(gamma, params)
    t_t = params.talbot_time
    w, c = _finite_width(n_pulses, v0, tau_p, params, center=t_t)
    return [
        scan(
            "eps",
            FinitePulseSpec(n_pulses, v0, tau_p, l * t_t),
            params,
            window=(c - 0.75 * w, c + 0.75 * w),
            n_points=PEAK_SHIFT_POINTS,
        ).peak_center
        for l in multiples
    ]
