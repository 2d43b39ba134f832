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


def test_outputs_that_differ_only_in_floats_give_their_largest_relative_gap():
    parent = "[Cycle(period=2, points=(0.25, -3.0), multipliers=(1e-05, inf))]"
    change = "[Cycle(period=2, points=(0.25000000000000006, -3.0000000004), multipliers=(1e-05, inf))]"
    assert compare_outputs.float_gap(parent, change) == abs(-3.0 + 3.0000000004) / 4.0
    assert compare_outputs.float_gap(parent, parent) == 0.0
    # A float in CLI text, after the escape of a line break, is a float too.
    assert compare_outputs.float_gap(repr("mu,N\n0.5,2\n"), repr("mu,N\n0.75,2\n")) == 0.25 / 1.5
    assert compare_outputs.float_gap("(1.0, nan)", "(1.0, 2.0)") == float("inf")


def test_differences_in_structure_are_not_measured():
    float_gap = compare_outputs.float_gap
    assert float_gap("Cycle(period=2, points=(0.5,))", "Cycle(period=3, points=(0.5,))") is None
    assert float_gap("(0.5, 0.25)", "(0.5,)") is None
    assert float_gap("raised ValueError: bad", "(0.5,)") is None
    assert float_gap("x1e5", "x1e6") is None  # digits of a name are no float
    assert float_gap(None, "(0.5,)") is None and float_gap("(0.5,)", None) is None


def test_each_differing_job_is_reported_by_kind(monkeypatch, capsys):
    sides = {
        "parent": {"a": "(0.5, 1)", "b": "(0.5, 1)", "c": "(0.5, 1)", "d": "2.0"},
        "change": {"a": "(0.5, 1)", "b": "(0.5000001, 1)", "c": "(0.5, 2)"},
    }
    monkeypatch.setattr(compare_outputs, "outputs", lambda checkout, *_: sides[checkout.name])
    assert compare_outputs.main(["parent", "change", "--seeds", "0"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "differs in floats, by at most 6.7e-08 relative: b",
        "differs in structure: c",
        "differs in structure: d",
        "4 jobs (boundary, dynamics, pipeline; seeds 0) compared: 3 differ",
    ]
