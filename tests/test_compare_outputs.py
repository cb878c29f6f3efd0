"""The output comparison of scripts/compare_outputs.py on hand-made files."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "compare_outputs.py")
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def _outputs(path, shift=0.0, note="ok"):
    path.mkdir()
    (path / "scan.csv").write_text(f"eps_s,output_I\n-1e-9,0.25\n0.0,{1.0 + shift!r}\n")
    (path / "scan.json").write_text(json.dumps(
        {"metrics": {"fwhm_s": 2e-9 * (1.0 + shift), "fits": [1.0, 2.0]}, "note": note}
    ))
    return str(path)


def test_identical_files_are_reported_byte_identical(tmp_path, capsys):
    a, b = _outputs(tmp_path / "a"), _outputs(tmp_path / "b")
    assert compare_outputs.compare_dirs("w", a, b, 0.0, 0.0) == (2, False)
    assert capsys.readouterr().out.splitlines() == [
        "w scan.csv: byte-identical", "w scan.json: byte-identical"
    ]


@pytest.mark.parametrize("atol, failed", [(1e-9, True), (1e-7, False)])
def test_a_shifted_cell_fails_past_the_tolerance(tmp_path, capsys, atol, failed):
    a, b = _outputs(tmp_path / "a"), _outputs(tmp_path / "b", shift=1e-8)
    assert compare_outputs.compare_dirs("w", a, b, atol, 0.0) == (2, failed)
    out = capsys.readouterr().out
    assert "column output_I: max abs 1e-08, max rel 1e-08" in out
    assert "metrics.fwhm_s: max abs 2e-17" in out
    assert "column eps_s" not in out and "fits" not in out


def test_text_and_missing_files_always_fail(tmp_path, capsys):
    a, b = _outputs(tmp_path / "a"), _outputs(tmp_path / "b", note="other")
    (tmp_path / "b" / "extra.csv").write_text("x\n1\n")
    assert compare_outputs.compare_dirs("w", a, b, 1.0, 1.0) == (3, True)
    out = capsys.readouterr().out
    assert "w extra.csv: missing from the parent" in out
    assert "note: 'ok' != 'other'" in out
