"""Momentum-ladder simulator for kicked-rotor echo interferometry.

An echo sequence applies N standing-wave kicks at the matter-wave
revival period, then N kicks with the standing wave phase-shifted by pi.
At exact resonance the second train undoes the first and the atom
returns to its initial momentum with unit probability; small timing
offsets, launch momenta, or accelerations suppress the return, and the
width of the revival peak shrinks super-Fourier fast with N.

Modules
-------
params
    Physical constants and laser/atom derived quantities.
ladder
    Exact delta-kick evolution on the momentum ladder of one
    quasimomentum fiber, the closed-form echo of resonant fibers, plus
    Gaussian-wavepacket averages.
analytic
    First-order phase slopes, closed-form output curves, and peak
    widths for the three control axes.
finite_pulse
    Square-pulse propagation (tridiagonal eigensolve and split-operator
    oracle) replacing the instantaneous kicks.
scans
    Parameter sweeps, peak-width extraction, the width-minimizing pulse
    duration, and power-law fits.
cli, config
    Command-line front end with flat key-value configs, CSV output,
    and JSON sidecars.
"""

from .analytic import (
    FirstOrderCoeffs,
    X_HALF,
    accel_phase_slopes,
    eps_phase_slopes,
    first_order_coeffs,
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
from .errors import (
    ConvergenceError,
    EngineError,
    GridResolutionError,
    InsufficientSpanError,
    MultimodalPeakError,
    NoInteriorMinimumError,
    PeakNotBracketedError,
    SingularCoefficientError,
    TruncationError,
)
from .finite_pulse import (
    FinitePulseSpec,
    apply_finite_pulse,
    auto_q_max_finite,
    finite_gaussian_output,
    finite_return_amplitudes,
    pulse_propagator,
    run_finite_sequence,
    splitstep_fiber,
    splitstep_output,
)
from .ladder import (
    LadderState,
    SequenceSpec,
    WavepacketSpec,
    apply_free_evolution,
    apply_free_evolution_accelerated,
    apply_kick,
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
)
from .params import (
    HBAR,
    KickStrength,
    PhysicalParams,
    derive_params,
    gamma_from_v0,
    kick_strength_from_gamma,
    kick_strength_from_pulse,
    rb85_params,
    v0_from_gamma,
)
from .scans import (
    ScalingFit,
    ScanCurve,
    extract_fwhm,
    find_tau_min,
    fit_scaling,
    gaussian_accel_curve,
    gaussian_accel_scan,
    measure_peak_shift,
    scan,
)

__version__ = "0.1.0"

__all__ = [
    "FirstOrderCoeffs",
    "X_HALF",
    "accel_phase_slopes",
    "eps_phase_slopes",
    "first_order_coeffs",
    "fwhm_accel",
    "fwhm_eps",
    "fwhm_p0",
    "i_accel_closed",
    "i_accel_linearized",
    "i_eps_asymptotic",
    "i_p0_closed",
    "i_p0_linearized",
    "ladder_weights",
    "output_first_order",
    "p0_phase_slopes",
    "ConvergenceError",
    "EngineError",
    "GridResolutionError",
    "InsufficientSpanError",
    "MultimodalPeakError",
    "NoInteriorMinimumError",
    "PeakNotBracketedError",
    "SingularCoefficientError",
    "TruncationError",
    "FinitePulseSpec",
    "apply_finite_pulse",
    "auto_q_max_finite",
    "finite_gaussian_output",
    "finite_return_amplitudes",
    "pulse_propagator",
    "run_finite_sequence",
    "splitstep_fiber",
    "splitstep_output",
    "LadderState",
    "SequenceSpec",
    "WavepacketSpec",
    "apply_free_evolution",
    "apply_free_evolution_accelerated",
    "apply_kick",
    "auto_q_max",
    "basis_state",
    "batched_return_amplitudes",
    "folded_return_amplitudes",
    "gaussian_output",
    "ground_state",
    "kick_kernel",
    "momentum_history",
    "resonant_return_amplitudes",
    "run_sequence",
    "HBAR",
    "KickStrength",
    "PhysicalParams",
    "derive_params",
    "gamma_from_v0",
    "kick_strength_from_gamma",
    "kick_strength_from_pulse",
    "rb85_params",
    "v0_from_gamma",
    "ScalingFit",
    "ScanCurve",
    "extract_fwhm",
    "find_tau_min",
    "fit_scaling",
    "gaussian_accel_curve",
    "gaussian_accel_scan",
    "measure_peak_shift",
    "scan",
    "__version__",
]
