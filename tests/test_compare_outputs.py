"""Tests for scripts/compare_outputs.py."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "compare_outputs", ROOT / "scripts" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_a_checkout_compared_with_itself_differs_nowhere(capsys):
    assert compare_outputs.main([str(ROOT), str(ROOT), "--seeds", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].endswith("compared: 0 differ")
    assert int(out[0].split()[0]) > 100  # every job of the three workloads


def test_a_changed_or_missing_output_differs():
    parent = {"a": "1", "b": "2", "c": "3"}
    change = {"a": "1", "b": "2.0", "d": "4"}
    assert compare_outputs.differing(parent, change) == ["b", "c", "d"]
