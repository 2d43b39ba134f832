"""Tests for scripts/reach_table.py and the table it writes, src/dfclab/reach_table.py."""

import importlib.util
import math
from pathlib import Path

import pytest

import dfclab.reach_table
from dfclab.reach_table import ROWS
from dfclab.spectrum import char_poly_closed
from dfclab.stability import (
    MU_FLOOR, SCHUR_MARGIN, jury_stable, make_gains, merged_contacts, stable_mu_interval)

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("reach_table_script", ROOT / "scripts" / "reach_table.py")
reach_table = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach_table)


@pytest.fixture(scope="module")
def rebuilt():
    return reach_table.rows()


def test_rows_cover_the_named_schemes_up_to_T_4_and_N_32(rebuilt):
    keys = {(s, T, N) for s in ("uniform", "dk2013") for T in range(1, 5) for N in range(1, 33)}
    assert set(rebuilt) == keys == set(ROWS)


def test_check_rebuilds_the_committed_table_bit_for_bit(rebuilt, monkeypatch, capsys):
    monkeypatch.setattr(reach_table, "rows", lambda: rebuilt)
    assert reach_table.main(["--check"]) == 0
    assert "up to date" in capsys.readouterr().out
    assert reach_table.render(rebuilt) == reach_table.TABLE.read_text()


def test_check_fails_on_a_stale_table(rebuilt, monkeypatch, tmp_path, capsys):
    text = reach_table.TABLE.read_text()
    lo = rebuilt[("dk2013", 2, 7)][0]
    stale = text.replace(repr(lo), repr(math.nextafter(lo, 0.0)), 1)
    assert stale != text
    path = tmp_path / "reach_table.py"
    path.write_text(stale)
    monkeypatch.setattr(reach_table, "TABLE", path)
    monkeypatch.setattr(reach_table, "rows", lambda: rebuilt)
    assert reach_table.main(["--check"]) == 1
    assert "stale" in capsys.readouterr().out
    assert path.read_text() == stale  # --check writes nothing


def test_the_build_never_reads_the_table(monkeypatch):
    # stable_mu_interval reads the rows it is handed, wrong ones too; the
    # script's rows() still rebuilds the committed module, so --check
    # compares the table with a fresh computation, not with itself.
    wrong = {key: (-0.5, 0.5, False) for key in ROWS}
    monkeypatch.setattr(dfclab.reach_table, "ROWS", wrong)
    iv = stable_mu_interval(4, 1, make_gains("uniform", 4))
    assert (iv.lo, iv.hi) == (-0.5, 0.5)
    assert reach_table.render(reach_table.rows()) == reach_table.TABLE.read_text()


def interior(scheme, T, N):
    """The merged contacts strictly inside the row's interval."""
    lo, hi, _ = ROWS[(scheme, T, N)]
    return [c for c in merged_contacts(make_gains(scheme, N), T) if lo < c < hi]


def test_a_stale_table_reports_how_far_the_rebuild_moved(rebuilt, monkeypatch, tmp_path, capsys):
    old = dict(rebuilt)
    lo, hi, clear = old[("dk2013", 1, 9)]
    assert not clear and interior("dk2013", 1, 9)
    old[("dk2013", 1, 9)] = (lo * (1.0 + 3e-12), hi, True)
    lo, hi, clear = old[("uniform", 2, 12)]
    assert clear and not interior("uniform", 2, 12)
    old[("uniform", 2, 12)] = (lo, hi, False)
    path = tmp_path / "reach_table.py"
    path.write_text(reach_table.render(old))
    monkeypatch.setattr(reach_table, "TABLE", path)
    monkeypatch.setattr(reach_table, "rows", lambda: rebuilt)
    assert reach_table.main(["--check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("largest relative move of lo: 3e-12 at ('dk2013', 1, 9)")
    assert out[1] == "largest relative move of hi: 0"
    assert out[2:4] == ["('uniform', 2, 12): clear False -> True",
                        "('dk2013', 1, 9): clear True -> False"]
    assert reach_table.parse(path.read_text()) == old


def test_uniform_lower_end_at_T_1_is_minus_N():
    # p = lambda^N - (mu / N)(lambda^(N-1) + ... + 1) meets the circle at mu = -N.
    for N in range(1, 33):
        assert ROWS[("uniform", 1, N)][0] == pytest.approx(-N, rel=1e-13, abs=0.0), N


def test_each_stable_set_is_one_interval():
    # Every gap between merged contacts outside (lo, hi), and the ray below
    # the lowest one, is unstable, as far down as MU_FLOOR.
    probed = 0
    for (scheme, T, N), (lo, hi, _) in ROWS.items():
        a = make_gains(scheme, N)
        contacts = [c for c in merged_contacts(a, T) if c > MU_FLOOR]
        probes = [0.5 * (x + y) for x, y in zip(contacts, contacts[1:]) if y <= lo or x >= hi]
        if contacts[0] < 0.0:
            probes.append(2.0 * contacts[0])
        for mu in probes:
            assert not jury_stable(char_poly_closed(N, T, a, mu), SCHUR_MARGIN), (scheme, T, N, mu)
        probed += len(probes)
    assert probed > 1000


def test_dk2013_lower_end_at_T_1_is_the_closed_form():
    # Dmitrishin and Khamitova (2013): -cot^2(pi / (2 (N + 1))).
    for N in range(1, 33):
        expected = -1.0 / math.tan(math.pi / (2 * (N + 1))) ** 2
        assert ROWS[("dk2013", 1, N)][0] == pytest.approx(expected, rel=1e-12, abs=0.0), N


def test_no_row_lists_a_rounding_copy_of_one_as_an_interior_contact():
    # mu = 1 is the contact where p(1) = 1 - mu vanishes; it is each row's hi.
    assert all(hi == 1.0 for _, hi, _ in ROWS.values())
    assert not [key for key in ROWS if any(abs(c - 1.0) <= 2e-6 for c in interior(*key))]


def test_a_row_is_clear_exactly_when_no_contact_lies_inside_it():
    assert {key for key, (_, _, clear) in ROWS.items() if not clear} == {
        ("dk2013", 1, N) for N in range(3, 33)}
    assert all(clear == (not interior(*key)) for key, (_, _, clear) in ROWS.items())
