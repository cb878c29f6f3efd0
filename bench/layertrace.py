"""Per-layer tracing of kickecho from outside the package.

``Tracer.install`` replaces each traced function by a timing wrapper in
every loaded ``kickecho`` module namespace that binds it, so calls made
through any import path are seen; ``uninstall`` puts the originals back.
A span's self time is its duration minus the durations of the traced
spans it directly contains.  Work counts are derived from the call
arguments and the ladder size the engine picks for them; the pulse
products' floating-point work is computed as 8 * sites^2 * columns per
complex matrix product, not measured.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter

import numpy as np

# Spans whose engine calls and engine columns are counted.
_ENGINE_CALLERS = ("scans.find_tau_min", "scans.scan", "scans.gaussian_accel_curve")

# (module, function) pairs traced one by one; every public function of
# kickecho.analytic is traced too, as the one span "analytic".
_TARGETS = (
    ("finite_pulse", "pulse_propagator"),
    ("finite_pulse", "finite_return_amplitudes"),
    ("ladder", "batched_return_amplitudes"),
    ("ladder", "kick_kernel"),
    ("ladder", "run_sequence"),
    ("ladder", "momentum_history"),
    ("ladder", "gaussian_output"),
    ("ladder", "gaussian_beta_nodes"),
    ("scans", "find_tau_min"),
    ("scans", "measure_peak_shift"),
    ("scans", "scan"),
    ("scans", "extract_fwhm"),
    ("scans", "gaussian_accel_curve"),
    ("config", "resolve"),
    ("config", "load_config_file"),
    ("params", "derive_params"),
    ("cli", "main"),
)
SPANS = tuple(f"{module}.{name}" for module, name in _TARGETS) + ("analytic",)

# Work counts kept per span besides its calls.
_WORK = {
    "finite_pulse.finite_return_amplitudes": ("columns", "pulse_products"),
    "ladder.batched_return_amplitudes": ("columns", "site_kicks"),
    "ladder.gaussian_beta_nodes": ("nodes",),
    **{span: ("engine_calls", "engine_columns") for span in _ENGINE_CALLERS},
}


class Tracer:
    """Self times, call counts and work counts of the traced layers."""

    def __init__(self):
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.max_columns = 0
        self._stack: list[list] = []
        self._installed: list[tuple] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        import kickecho.analytic

        originals = {}
        for module, name in _TARGETS:
            fn = getattr(sys.modules[f"kickecho.{module}"], name)
            originals[id(fn)] = (fn, f"{module}.{name}")
        for name, fn in vars(kickecho.analytic).items():
            if inspect.isfunction(fn) and fn.__module__ == "kickecho.analytic" and not name.startswith("_"):
                originals[id(fn)] = (fn, "analytic")
        wrappers = {key: self._wrap(fn, span) for key, (fn, span) in originals.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "kickecho" and not mod_name.startswith("kickecho."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)])
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    # -------------------------------------------------------------- spans

    def _wrap(self, fn, span: str):
        signature = inspect.signature(fn)
        count = getattr(self, "_count_" + span.replace(".", "_"), None)
        stack, self_s, calls = self._stack, self.self_s, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            stack.append([span, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                _, children = stack.pop()
                self_s[span] += elapsed - children
                if stack:
                    stack[-1][1] += elapsed
                calls[span + ".calls"] += 1
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(bound.arguments)
            return result

        return wrapper

    def _engine_call(self, columns: int) -> None:
        for span in {frame[0] for frame in self._stack} & set(_ENGINE_CALLERS):
            self.counts[span + ".engine_calls"] += 1
            self.counts[span + ".engine_columns"] += columns

    # ----------------------------------------------------- work counters

    def _count_finite_pulse_finite_return_amplitudes(self, a: dict) -> None:
        from kickecho.finite_pulse import FinitePulseSpec, auto_q_max_finite

        periods, betas = np.broadcast_arrays(
            np.atleast_1d(np.asarray(a["periods"], dtype=float)),
            np.atleast_1d(np.asarray(a["betas"], dtype=float)),
        )
        q_max = a["q_max"]
        if q_max is None:
            spec = FinitePulseSpec(a["n_pulses"], a["v0"], a["tau_p"], float(np.min(periods)))
            q_max = auto_q_max_finite(spec, a["params"])
        # One dense product per pulse and distinct beta, over that beta's columns.
        per_beta = 2 * a["n_pulses"] if a["tau_p"] > 0.0 else 0
        key = "finite_pulse.finite_return_amplitudes"
        self.counts[key + ".columns"] += periods.size
        self.counts[key + ".pulse_products"] += per_beta * np.unique(betas).size
        self.counts[key + ".flop"] += 8 * (2 * q_max + 1) ** 2 * periods.size * per_beta
        self._engine_call(periods.size)

    def _count_ladder_batched_return_amplitudes(self, a: dict) -> None:
        from kickecho.ladder import auto_q_max

        columns = int(np.broadcast(*(np.atleast_1d(np.asarray(a[k], dtype=float))
                                     for k in ("periods", "betas", "accels"))).size)
        q_max = a["q_max"] if a["q_max"] is not None else auto_q_max(a["n_kicks"], a["phi_d"])
        key = "ladder.batched_return_amplitudes"
        self.counts[key + ".columns"] += columns
        self.counts[key + ".site_kicks"] += 2 * a["n_kicks"] * (2 * q_max + 1) * columns
        self.max_columns = max(self.max_columns, columns)
        self._engine_call(columns)

    def _count_ladder_gaussian_beta_nodes(self, a: dict) -> None:
        self.counts["ladder.gaussian_beta_nodes.nodes"] += a["n_nodes"]

    # ------------------------------------------------------------ report

    def per_round(self, traced_walls: list, untraced_walls: list, output_bytes: int) -> dict:
        """Every per-layer metric, per traced round; every traced round did the same work."""
        rounds = len(traced_walls)
        values = {}
        for span in SPANS:
            values[span + ".self_s"] = self.self_s[span] / rounds
            values[span + ".calls"] = self.counts[span + ".calls"] // rounds
            for field in _WORK.get(span, ()):
                values[f"{span}.{field}"] = self.counts[f"{span}.{field}"] // rounds
        finite = "finite_pulse.finite_return_amplitudes"
        gflop = self.counts[finite + ".flop"] / 1e9
        values[finite + ".gflop"] = gflop / rounds
        values[finite + ".gflop_per_s"] = gflop / self.self_s[finite] if self.self_s[finite] else 0.0
        values["ladder.batched_return_amplitudes.max_columns"] = self.max_columns
        values["cli.output_bytes"] = output_bytes
        traced = statistics.median(traced_walls)
        values["trace.solve_s"] = traced
        values["trace.overhead_s"] = traced - statistics.median(untraced_walls)
        values["trace.unaccounted_s"] = (sum(traced_walls) - sum(self.self_s.values())) / rounds
        return values
