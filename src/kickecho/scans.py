"""Parameter sweeps and curve analysis for echo-sequence outputs.

Scans drive the ladder or finite-pulse engines across a control axis
(timing offset, launch momentum, or acceleration), measure the central
peak of the output curve, search for the pulse duration that minimizes
the timing-scan width, and fit power laws to the resulting data.

All searches and fits use relative tolerances; the physical scales of
the control axes span thirty orders of magnitude and absolute
tolerances are meaningless across them.  Every routine here is
deterministic: identical inputs (including the worker count) produce
bit-identical curves.
"""

from __future__ import annotations

import functools
import logging
import math
import numbers
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import fwhm_accel, fwhm_eps, fwhm_p0
from .errors import (
    ConvergenceError,
    InsufficientSpanError,
    MultimodalPeakError,
    NoInteriorMinimumError,
    PeakNotBracketedError,
)
from .finite_pulse import FinitePulseSpec, finite_return_amplitudes
from .ladder import (
    SequenceSpec,
    WavepacketSpec,
    batched_return_amplitudes,
    folded_return_amplitudes,
    resonant_return_amplitudes,
)
from .params import PhysicalParams, v0_from_gamma

logger = logging.getLogger(__name__)

# Fractional slack allowed on the output range before validation fails;
# engine outputs are squared magnitudes so only rounding can exceed [0, 1].
OUTPUT_RANGE_TOL = 1e-9

# Relative tau resolution of the golden-section width minimization.
TAU_RESOLUTION = 1e-3

# Golden-section domain for the pulse-duration search: the pulse must fit
# inside the period with free flight remaining.
TAU_DOMAIN_LO_FRACTION = 1.0 / 4096.0
TAU_DOMAIN_HI_FRACTION = 0.5

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Stop rule of the coarse pulse-duration walk (see _walk_until_turned).
TAU_TURN_POINTS = 2
TAU_SETTLED_DESCENT = 3


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
        """Return a copy with peak_center and fwhm filled in."""
        fwhm, center = extract_fwhm(self)
        return ScanCurve(self.control, self.output, peak_center=center, fwhm=fwhm)


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

    Falls back to the raw sample when the fit has no downward curvature
    (flat or degenerate triple).
    """
    xs = x[i_max - 1 : i_max + 2] - x[i_max]
    ys = y[i_max - 1 : i_max + 2]
    a, b, c = np.polyfit(xs, ys, 2)
    if a >= 0.0:
        return float(x[i_max]), float(y[i_max])
    xv = -b / (2.0 * a)
    yv = c - b * b / (4.0 * a)
    # The vertex is only trusted between the neighboring samples.
    if not (xs[0] <= xv <= xs[2]):
        return float(x[i_max]), float(y[i_max])
    return float(x[i_max] + xv), float(yv)


def _half_crossing(
    x: np.ndarray, y: np.ndarray, i_max: int, half: float, direction: int
) -> float:
    """Nearest half-level crossing walking away from i_max.

    direction is -1 (left) or +1 (right).  Linear interpolation between
    the first sample below the half level and its inward neighbor.
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
            # Crossing between samples i and j.
            frac = (half - y[i]) / (y[j] - y[i])
            return float(x[i] + frac * (x[j] - x[i]))
        i = j


def extract_fwhm(curve: ScanCurve) -> tuple[float, float]:
    """Width and center of the central peak of a scan curve.

    The peak center and height come from parabolic interpolation through
    the three highest contiguous samples; the half level is half of the
    interpolated peak height (not an assumed unit height).  Crossings of
    the half level are located by linear interpolation on the nearest
    flanks of the peak.

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
    """Outputs |c_{q=0}|^2 along one control axis, from the engine that spec
    selects.

    Delta-kick scans of p0 or accel at exactly the resonance period take
    the closed form of resonant_return_amplitudes, whatever spec.accel;
    no ladder runs.  The other zero-acceleration delta-kick scans (eps at
    any period, p0 off resonance) fold the echo onto its forward train,
    and the rest run both trains.
    """
    periods, betas, accels = spec.period, 0.0, spec.accel
    if axis == "eps":
        periods = spec.period + values
    elif axis == "p0":
        betas = values / params.recoil_momentum
    elif axis == "accel":
        accels = values
    else:
        raise ValueError(f"unknown control axis {axis!r}")
    if isinstance(spec, SequenceSpec) and axis != "eps" and spec.period == params.talbot_time:
        amps = resonant_return_amplitudes(spec.n_kicks, spec.phi_d, betas, accels, params)
    elif isinstance(spec, SequenceSpec) and axis != "accel" and spec.accel == 0.0:
        amps = folded_return_amplitudes(spec.n_kicks, spec.phi_d, periods, betas, params)
    elif isinstance(spec, SequenceSpec):
        amps = batched_return_amplitudes(
            spec.n_kicks, spec.phi_d, periods, betas, accels, params
        )
    elif axis == "accel":
        raise ValueError("finite-pulse sequences support zero acceleration only")
    else:
        amps = finite_return_amplitudes(
            spec.n_pulses, spec.v0, spec.tau_p, periods, betas, params
        )
    return np.abs(amps) ** 2


def _auto_half_span(
    spec: SequenceSpec | FinitePulseSpec, params: PhysicalParams, axis: str
) -> float:
    """Half-width of the default scan window: twice the predicted FWHM."""
    if isinstance(spec, FinitePulseSpec):
        n, phi_d = spec.n_pulses, spec.phi_d
    else:
        n, phi_d = spec.n_kicks, spec.phi_d
    if phi_d <= 0.0:
        raise ValueError("cannot auto-range a scan with zero kick strength")
    if axis == "eps":
        return 2.0 * fwhm_eps(n, phi_d, params)
    if axis == "p0":
        return 2.0 * fwhm_p0(n, phi_d, params)
    if axis == "accel":
        return 2.0 * fwhm_accel(n, phi_d, params)
    raise ValueError(f"unknown control axis {axis!r}")


def _evaluate(
    spec: SequenceSpec | FinitePulseSpec,
    params: PhysicalParams,
    axis: str,
    values: np.ndarray,
    workers: int,
) -> np.ndarray:
    run = functools.partial(_outputs, spec, params, axis)
    if workers <= 1 or values.size < 2 * workers:
        return run(values)
    # The chunks follow the worker count, so the curve does not depend on
    # the core count; threads beyond it would only contend.
    chunks = np.array_split(values, workers)
    with ThreadPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        parts = list(pool.map(run, chunks))
    return np.concatenate(parts)


def scan(
    control_axis: str,
    spec: SequenceSpec | FinitePulseSpec,
    params: PhysicalParams,
    window: tuple[float, float] | None = None,
    n_points: int = 161,
    workers: int = 1,
) -> ScanCurve:
    """Sweep one control axis and measure the central peak.

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
        Control range.  Defaults to four predicted widths centered on
        zero offset.
    n_points : int
        Samples across the window; at least 32.
    workers : int
        Contiguous chunks, evaluated on at most os.cpu_count() threads.
        The curve for a given worker count is bit-identical between runs,
        whatever the core count; delta-kick curves are bit-identical for
        every worker count.

    Returns
    -------
    ScanCurve with peak_center and fwhm filled in.

    Raises
    ------
    PeakNotBracketedError
        If the peak is not bracketed even after widening the window once
        (by a factor of four).
    """
    if n_points < 32:
        raise ValueError(f"n_points must be at least 32, got {n_points}")
    if window is None:
        half_span = _auto_half_span(spec, params, control_axis)
        window = (-half_span, half_span)
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError(f"empty scan window ({lo!r}, {hi!r})")

    def sample(lo: float, hi: float) -> ScanCurve:
        values = np.linspace(lo, hi, n_points)
        return ScanCurve(values, _evaluate(spec, params, control_axis, values, workers))

    return _measure_widening_once(sample, lo, hi)


def _measure_widening_once(
    sample: Callable[[float, float], ScanCurve], lo: float, hi: float
) -> ScanCurve:
    """Measure sample(lo, hi); if its peak is not bracketed, widen the
    window fourfold about its center once and measure again."""
    try:
        return sample(lo, hi).measured()
    except PeakNotBracketedError:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return sample(mid - 4.0 * half, mid + 4.0 * half).measured()


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
    tol: float = 1e-3,
    max_density: float = 64.0,
) -> np.ndarray:
    """Gaussian-wavepacket output at each acceleration, at resonance period.

    Every quasimomentum fiber starts on its q = 0 rung and runs through
    the sequence independently; the output is the squared coherent
    average of the fiber return amplitudes (the wavepacket return
    probability, as in gaussian_output), evaluated on a spike-resolving
    quadrature grid whose density is doubled until the curve is stable
    to tol (relative to its maximum).  At the resonance period every
    fiber's return amplitude has the closed form of
    resonant_return_amplitudes, so a whole grid costs O(N) operations per
    (beta, accel) node and no ladder is run.
    """
    if max_density < 16.0:
        raise ValueError(
            f"max_density must be at least 16 (two grids to compare), got {max_density!r}"
        )
    accels = np.atleast_1d(np.asarray(accels, dtype=np.float64))
    density = 8.0
    prev = None
    while density <= max_density:
        betas, weights = _beta_average_nodes(
            n_kicks, phi_d, wavepacket, params, density
        )
        amps = resonant_return_amplitudes(
            n_kicks, phi_d, betas[None, :], accels[:, None], params
        )
        vals = np.abs(amps @ weights) ** 2
        if prev is not None:
            drift = float(np.max(np.abs(vals - prev)))
            if drift <= tol * max(float(vals.max()), 1e-12):
                return vals
        prev = vals
        density *= 2.0
    raise ConvergenceError(
        f"ensemble average not stable to {tol:g} at grid density {max_density:g}",
        achieved=drift / max(float(vals.max()), 1e-12),
    )


def gaussian_accel_scan(
    n_kicks: int,
    phi_d: float,
    wavepacket: WavepacketSpec,
    params: PhysicalParams,
    window: tuple[float, float] | None = None,
    n_points: int = 65,
    tol: float = 1e-3,
) -> ScanCurve:
    """Acceleration scan of the Gaussian-wavepacket output.

    The curve is even in acceleration: parity maps the fiber return
    amplitudes as c(a, beta) = c(-a, -beta) and the Gaussian weights are
    even in beta, so only nonnegative accelerations are evaluated and
    the curve is mirrored (the closed form of resonant_return_amplitudes
    keeps this symmetry).  An explicit window must therefore be
    symmetric about zero.  The peak is measured exactly as in `scan`,
    including the widen-once fallback.
    """
    if n_points < 32:
        raise ValueError(f"n_points must be at least 32, got {n_points}")
    if window is None:
        half = 2.0 * fwhm_accel(n_kicks, phi_d, params)
    else:
        lo, hi = float(window[0]), float(window[1])
        if not (hi > 0.0 and lo == -hi):
            raise ValueError(
                f"ensemble acceleration window must be symmetric about "
                f"zero, got ({lo!r}, {hi!r})"
            )
        half = hi

    def sample(lo: float, hi: float) -> ScanCurve:
        # The window stays symmetric through the widening, so lo == -hi.
        pos = np.linspace(0.0, hi, n_points // 2 + 1)
        vals = gaussian_accel_curve(n_kicks, phi_d, pos, wavepacket, params, tol)
        return ScanCurve(
            np.concatenate([-pos[:0:-1], pos]), np.concatenate([vals[:0:-1], vals])
        )

    return _measure_widening_once(sample, -half, half)


# A timing curve whose largest sample falls below this has no echo peak
# left to measure.  Healthy peaks near the width minimum reach 0.3-1.0;
# past it the echo collapses by orders of magnitude, so the cutoff only
# short-circuits hopeless windows (a real peak that is merely wider than
# the window keeps its near-peak samples high and takes the widen path).
NO_PEAK_FLOOR = 0.02


def _finite_width(
    n_pulses: int,
    v0: float,
    tau_p: float,
    params: PhysicalParams,
    center: float,
    n_points: int = 65,
) -> tuple[float, float]:
    """Width and center of the timing peak of a finite-pulse sequence.

    Self-contained deterministic measurement: the window is seeded from
    the ideal-kick width prediction at the pulse area of this duration,
    widened threefold while the peak is unbracketed, and zoomed (at most
    twice) when the measured width is a small fraction of the span so
    the interpolation error stays in the 1e-3 range.  The window never
    exceeds one resonance period: periods must stay positive and the
    neighboring resonance peaks must stay out of the scan, so a peak
    wider than that is reported as unbracketed.

    Returns (fwhm, absolute peak period).
    """
    spec = FinitePulseSpec(
        n_pulses=n_pulses, v0=v0, tau_p=tau_p, period=center
    )
    cap = min(float(center), params.talbot_time)
    span = min(2.0 * _auto_half_span(spec, params, "eps"), cap)
    zooms = 0
    for _ in range(16):
        values = np.linspace(-0.5 * span, 0.5 * span, n_points)
        output = _outputs(spec, params, "eps", values)
        if float(np.max(output)) < NO_PEAK_FLOOR:
            raise PeakNotBracketedError(
                f"output stays below {NO_PEAK_FLOOR} across the window for "
                f"tau_p = {tau_p:.6g} s; the echo peak has washed out"
            )
        try:
            fwhm, peak = extract_fwhm(ScanCurve(values, output))
        except PeakNotBracketedError:
            if span >= cap:
                raise PeakNotBracketedError(
                    f"timing peak for tau_p = {tau_p:.6g} s is wider than "
                    f"one resonance period"
                ) from None
            span = min(3.0 * span, cap)
            continue
        if fwhm < span / 10.0 and zooms < 2:
            span = 4.0 * fwhm
            zooms += 1
            continue
        return fwhm, center + peak
    raise PeakNotBracketedError(
        f"no measurable timing peak for tau_p = {tau_p:.6g} s"
    )


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


def find_tau_min(
    n_pulses: int,
    gamma: float,
    params: PhysicalParams,
    coarse_points: int = 18,
) -> tuple[float, float]:
    """Pulse duration minimizing the timing-scan width at fixed area rate.

    The potential depth is set so the dimensionless depth is gamma;
    the pulse area then grows linearly with tau_p, so short pulses give
    weak kicks (wide timing peaks) and long pulses accumulate motion
    during the pulse (also widening the peak).  The interior minimum of
    width against duration is located on a geometric coarse grid over
    (T_T/4096, T_T/2] and refined by golden-section search in log tau to
    a relative resolution of 1e-3.

    The coarse grid is walked from short to long durations and the walk
    stops once the width has turned: at the second point after the
    running best that is not narrower than it.  A duration without a
    measurable central peak counts as wide, but toward the stop only
    after the best was reached by a descent of at least three strictly
    decreasing finite widths; short single pulses can show a spurious
    early basin before the real dip.  The coarse minimum is the argmin
    over the walked durations, and the golden-section search brackets it
    by its two coarse neighbors.

    Requires gamma * n_pulses > 1; far below that the kicks are too weak
    for the width to turn over inside the domain.

    Returns
    -------
    (tau_min, w_min) : pulse duration in s, width at the minimum in s.

    Raises
    ------
    ValueError
        If n_pulses or coarse_points is not an integer (bools included),
        coarse_points < 16, or gamma * n_pulses <= 1.
    NoInteriorMinimumError
        If no walked duration has a measurable peak, or the smallest
        walked width sits on the domain edge: on the first duration, or
        on the last one of a walk that never turned.
    """
    for name, value in (("n_pulses", n_pulses), ("coarse_points", coarse_points)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be a positive integer, got {n_pulses!r}")
    if coarse_points < 16:
        raise ValueError(f"need at least 16 coarse points, got {coarse_points}")
    if gamma * n_pulses <= 1.0:
        raise ValueError(
            f"width minimum requires gamma * n_pulses > 1, got "
            f"{gamma * n_pulses:.3g}"
        )
    v0 = v0_from_gamma(gamma, params)
    center = params.talbot_time

    cache: dict[float, float] = {}

    def width(tau: float) -> float:
        if tau not in cache:
            try:
                cache[tau] = _finite_width(n_pulses, v0, tau, params, center)[0]
            except (PeakNotBracketedError, MultimodalPeakError):
                # No measurable central peak: treat as unboundedly wide so
                # the search stays away.  Expected deep in the long-pulse
                # regime where the echo washes out.
                cache[tau] = math.inf
        return cache[tau]

    taus = np.geomspace(
        TAU_DOMAIN_LO_FRACTION * center,
        TAU_DOMAIN_HI_FRACTION * center,
        coarse_points,
    )
    widths = _walk_until_turned(width, taus)
    walked = len(widths)
    i_min = int(np.argmin(widths))

    def log_search(golden: int) -> None:
        logger.debug(
            "find_tau_min(n_pulses=%d, gamma=%g): walked %d of %d durations, "
            "coarse argmin %d (tau = %.6g s), %d golden-section evaluations",
            n_pulses, gamma, walked, coarse_points, i_min, taus[i_min], golden,
        )

    if not math.isfinite(widths[i_min]):
        log_search(0)
        raise NoInteriorMinimumError(
            f"no measurable timing peak on any of the {walked} durations "
            f"walked on the coarse grid"
        )
    if i_min == 0 or i_min == taus.size - 1:
        log_search(0)
        edge = "short" if i_min == 0 else "long"
        raise NoInteriorMinimumError(
            f"smallest width at the {edge}-pulse edge of the duration domain "
            f"(tau = {taus[i_min]:.6g} s) after walking {walked} of "
            f"{coarse_points} durations"
        )

    # Golden-section in log tau between the coarse neighbors.
    lo, hi = math.log(taus[i_min - 1]), math.log(taus[i_min + 1])
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1 = width(math.exp(x1))
    f2 = width(math.exp(x2))
    golden = 2
    while math.expm1(hi - lo) > TAU_RESOLUTION:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = width(math.exp(x1))
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = width(math.exp(x2))
        golden += 1
    log_search(golden)
    tau_min = min(cache, key=cache.__getitem__)
    return tau_min, cache[tau_min]


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
    multiple_l: int,
    params: PhysicalParams,
    n_points: int = 301,
) -> float:
    """Offset of the timing peak from the l-th resonance multiple.

    Finite pulses shift the echo peak slightly off the exact resonance
    period.  The shift is measured by a dense timing scan of +-0.75
    widths around l * T_T with a least-squares parabola through the
    samples within +-0.3 widths of the maximum.  The fit window is chosen
    by index, round(0.2 * (n_points - 1)) samples on each side clipped to
    the grid, so rounding of the width cannot add or drop an edge sample.

    The scan grid of offsets is always derived from the measured width
    at l = 1, so calls with different l sample identical offsets around
    their respective centers and the extracted shifts can be differenced
    without grid bias.

    Returns
    -------
    delta_eps : peak period minus l * T_T, in seconds.
    """
    if multiple_l < 1 or multiple_l != int(multiple_l):
        raise ValueError(f"multiple_l must be a positive integer, got {multiple_l!r}")
    v0 = v0_from_gamma(gamma, params)
    t_t = params.talbot_time

    # Reference width from the first multiple regardless of requested l.
    w_ref, _ = _finite_width(n_pulses, v0, tau_p, params, center=t_t)

    center = multiple_l * t_t
    spec = FinitePulseSpec(n_pulses=n_pulses, v0=v0, tau_p=tau_p, period=center)
    offsets = np.linspace(-0.75 * w_ref, 0.75 * w_ref, n_points)
    output = _outputs(spec, params, "eps", offsets)

    i_max = int(np.argmax(output))
    if i_max == 0 or i_max == output.size - 1:
        raise PeakNotBracketedError(
            f"timing peak near {multiple_l} * T_T lies outside the scan window"
        )
    half = round(0.2 * (n_points - 1))
    sel = slice(max(i_max - half, 0), min(i_max + half + 1, n_points))
    a, b, _ = np.polyfit(offsets[sel] - offsets[i_max], output[sel], 2)
    if a >= 0.0:
        raise PeakNotBracketedError(
            f"no concave timing peak near {multiple_l} * T_T"
        )
    return float(offsets[i_max] - b / (2.0 * a))
