"""Fuzz of the command line over random configurations of every kind.

Whatever the configuration, `main` returns one of the documented exit
codes without raising, writes exactly the CSV and its sidecar on success,
with no non-finite number in either, and writes nothing on failure.  The
drawn values stay small (few kicks, few points, short sweeps), so each
run is cheap, and the worker count never exceeds the core count.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import event, given, settings
from hypothesis import strategies as st

from kickecho.cli import _SCAN_TABLE, main, sidecar_path
from kickecho.config import _COMMON_DEFAULTS, _KIND_SCHEMAS, KINDS

_CORES = os.cpu_count() or 1

# Values of each key inside the bounds the config accepts; _JUNK stands in
# for one of them now and then.
_VALUES = {
    "mass_u": st.floats(40.0, 200.0),
    "lambda_nm": st.floats(500.0, 1100.0),
    "n_kicks": st.integers(1, 10),
    "phi_d": st.floats(0.0, 2.0),
    "gamma": st.floats(0.0, 20.0, exclude_min=True),
    "tau_p_us": st.floats(0.0, 8.0),
    "eps_ns": st.floats(-5.0, 5.0),
    "beta": st.floats(-0.5, 0.5),
    "accel": st.floats(-0.2, 0.2),
    "period_multiple": st.integers(1, 2),
    "sigma_x_um": st.floats(20.0, 500.0),
    "points": st.integers(32, 40),
    "workers": st.integers(1, _CORES),
    "multiples": st.integers(1, 3),
    "n_list": st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
        lambda ns: ",".join(map(str, ns))
    ),
    "scale_factor": st.floats(0.0, 10.0, exclude_min=True),
    "x_column": st.sampled_from(["n", "w", "missing"]),
    "value_column": st.sampled_from(["n", "w", "missing"]),
    "data_csv": st.just("data.csv"),
}
_JUNK = st.sampled_from(
    [
        "nan", "inf", "-inf", "1e400", "1e-320", "abc", "0", "-1", "2.5", "100000",
        "1e120", "1e200", "1e300", "1e308", "1000000000000",
    ]
)
# Cells of the fit-scaling data file.
_N_CELLS = st.sampled_from(["1", "2", "5", "10", "20", "50", "100"])
_W_CELLS = st.floats(1e-3, 10.0).map(repr)
_JUNK_CELLS = st.sampled_from(["nan", "inf", "-1", "0", "x", ""])

# Scale of a scan window on each control axis, in the axis units.
_AXIS_SCALE = {"eps": 1e-7, "p0": 0.05, "accel": 0.5}


def _mostly(draw, strategy, junk, one_in):
    """A draw from strategy, or from junk once in one_in draws."""
    return draw(junk) if draw(st.integers(1, one_in)) == 1 else draw(strategy)


@st.composite
def _runs(draw):
    kind = draw(st.sampled_from(KINDS))
    required, optional = _KIND_SCHEMAS[kind]
    values = {}
    keys = [*required, *optional, *_COMMON_DEFAULTS]
    for key in (k for k in keys if k not in ("range_lo", "range_hi")):
        # Required keys are nearly always present, optional ones half of the
        # time.  n_list always is: its default sweep takes seconds per run.
        if draw(st.integers(0, 19)) < (19 if key in (*required, "n_list") else 10):
            values[key] = _mostly(draw, _VALUES[key].map(str), _JUNK, 40)
    if draw(st.integers(0, 19)) == 0:
        values[draw(st.sampled_from(sorted(_VALUES) + ["nonsense"]))] = "1"
    flags = []
    if kind in _SCAN_TABLE:
        scale = _AXIS_SCALE[_SCAN_TABLE[kind].axis]
        if draw(st.booleans()):
            lo = -scale * _mostly(draw, st.floats(0.1, 3.0), st.floats(-3.0, 3.0), 10)
            hi = scale * _mostly(draw, st.floats(0.1, 3.0), st.floats(-3.0, 3.0), 10)
            if draw(st.booleans()):
                lo = -hi  # symmetric, as Gaussian acceleration scans need
            how = _mostly(draw, st.sampled_from(["flag", "keys"]), st.just("lo only"), 10)
            if how == "flag":
                flags.append(f"--range={lo!r}:{hi!r}")
            else:
                values["range_lo"] = repr(lo)
                if how == "keys":
                    values["range_hi"] = repr(hi)
        if draw(st.booleans()):
            flags += ["--points", str(_mostly(draw, _VALUES["points"], st.integers(0, 31), 10))]
        if draw(st.booleans()):
            flags += ["--parallel", str(_mostly(draw, _VALUES["workers"], st.integers(-1, 0), 10))]
    rows = [
        (_mostly(draw, _N_CELLS, _JUNK_CELLS, 20), _mostly(draw, _W_CELLS, _JUNK_CELLS, 20))
        for _ in range(draw(st.integers(0, 6)))
    ]
    out = _mostly(
        draw, st.just("out.csv"), st.sampled_from(["out.json", "missing/out.csv", "clash.csv"]), 5
    )
    return kind, values, flags, rows, out


def _assert_finite_csv(path):
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines and "," in lines[0]
    for line in lines[1:]:
        for cell in line.split(","):
            assert math.isfinite(float(cell)), line


def _reject_constant(name):
    raise AssertionError(f"sidecar holds {name}")


@settings(max_examples=100, deadline=None)
@given(run=_runs())
def test_cli_never_escapes_and_writes_only_on_success(run):
    kind, values, flags, rows, out = run
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "data.csv"), "w", encoding="utf-8") as fh:
            fh.write("n,w\n" + "".join(f"{n},{w}\n" for n, w in rows))
        # A directory where clash.csv's sidecar would go.
        os.mkdir(os.path.join(tmp, "clash.json"))
        before = set(os.listdir(tmp))
        argv = [kind, "--out", os.path.join(tmp, out)] + flags
        for key, value in values.items():
            if key == "data_csv":
                value = os.path.join(tmp, value)
            argv += ["--set", f"{key}={value}"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        written = set(os.listdir(tmp)) - before
        event(f"{kind} exit {code}")
        assert code in (0, 2, 3, 4), (argv, stderr.getvalue())
        if code != 0:
            assert written == set(), (argv, stderr.getvalue())
            assert stderr.getvalue().startswith("error: "), argv
            return
        csv_path = os.path.join(tmp, out)
        assert written == {out, os.path.basename(sidecar_path(csv_path))}, argv
        _assert_finite_csv(csv_path)
        with open(sidecar_path(csv_path), encoding="utf-8") as fh:
            json.load(fh, parse_constant=_reject_constant)
