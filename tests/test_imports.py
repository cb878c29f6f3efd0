"""Which kinds load scipy: each CLI run in a fresh interpreter.

The delta-kick kinds evaluate their Bessel functions with the package's
own numpy code, so a fresh process that runs one loads no scipy module at
all.  The finite-pulse kinds load scipy.linalg for the tridiagonal
eigensolver, and the Gaussian echo loads scipy.special for its
Gauss-Hermite rule; those imports happen inside the functions that use
them, so they cost nothing to the other kinds.  Likewise the bulk float
writer of the momentum history loads with that kind and builds its tables
on first use.
"""

import json
import os
import subprocess
import sys

import pytest

import kickecho

SRC = os.path.dirname(os.path.dirname(os.path.abspath(kickecho.__file__)))

# Runs main(argv) and prints the scipy modules that are loaded afterwards.
_PROBE = """
import json, sys
from kickecho.cli import main
code = main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "scipy": sorted(m for m in sys.modules
                                                if m.split(".")[0] == "scipy")}))
"""

_SMALL = ("--set", "n_kicks=5", "--set", "phi_d=0.5", "--points", "33")


def _scipy_modules(tmp_path, kind, *args):
    argv = [kind, "--out", str(tmp_path / "out.csv"), *args]
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["code"] == 0, done.stderr
    return set(report["scipy"])


@pytest.mark.parametrize(
    "kind, args",
    [
        ("echo", ("--set", "n_kicks=5", "--set", "phi_d=0.5")),
        ("echo", ("--set", "n_kicks=5", "--set", "phi_d=0.5", "--set", "eps_ns=1")),
        ("scan-eps", _SMALL),
        ("scan-p0", _SMALL),
        ("scan-accel", _SMALL),
        ("scan-accel", _SMALL + ("--set", "sigma_x_um=100")),
        ("momentum-history", ("--set", "n_kicks=5", "--set", "phi_d=0.5")),
    ],
    ids=[
        "echo-resonant",
        "echo-detuned",
        "scan-eps",
        "scan-p0",
        "scan-accel",
        "scan-accel-gaussian",
        "momentum-history",
    ],
)
def test_delta_kick_kinds_load_no_scipy(tmp_path, kind, args):
    assert _scipy_modules(tmp_path, kind, *args) == set()


def test_finite_scan_loads_only_scipy_linalg(tmp_path):
    loaded = _scipy_modules(
        tmp_path, "finite-scan",
        "--set", "n_kicks=4", "--set", "gamma=10", "--set", "tau_p_us=2", "--points", "33",
    )
    assert "scipy.linalg" in loaded
    assert not any(m.startswith("scipy.special") for m in loaded)


def test_gaussian_echo_is_the_one_delta_kick_kind_that_loads_scipy(tmp_path):
    loaded = _scipy_modules(
        tmp_path, "echo", "--set", "n_kicks=5", "--set", "phi_d=0.5", "--set", "sigma_x_um=100"
    )
    assert "scipy.special" in loaded


def test_importing_the_cli_builds_no_float_tables(tmp_path):
    """Importing the CLI does not load the bulk float writer, let alone
    build its power-of-ten table; a history run does both."""
    probe = (
        "import sys\n"
        "from kickecho import cli\n"
        "print('kickecho._floatfmt' in sys.modules)\n"
        "cli.main(['momentum-history', '--out', 'h.csv', '--set', 'n_kicks=2',"
        " '--set', 'phi_d=0.5'])\n"
        "from kickecho import _floatfmt\n"
        "print(_floatfmt._tables.cache_info().currsize)\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "1")


def test_importing_the_cli_loads_only_numpy_and_the_standard_library(tmp_path):
    """A fresh `import kickecho.cli`, the start-up cost of every CLI run,
    loads kickecho, numpy and standard-library modules only: scipy and any
    other third-party module load inside the functions that need them."""
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import kickecho.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300, check=True,
    )
    loaded = {m.split(".")[0] for m in json.loads(done.stdout.splitlines()[-1])}
    assert {"kickecho", "numpy"} <= loaded
    assert loaded - {"kickecho", "numpy"} - sys.stdlib_module_names == set()
