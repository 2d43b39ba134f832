"""End-to-end tests of the command-line interface."""

import argparse
import contextlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dfclab.cli
import dfclab.simulation
import dfclab.stability
from dfclab.cli import build_parser, main
from dfclab.maps import MapSyntaxError, parse_map
from dfclab.spectrum import char_poly_closed


SRC = Path(__file__).resolve().parents[1] / "src"
LOGISTIC = ["--map", "logistic:r=4"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def env_with_src():
    """The environment of a child interpreter that imports dfclab from this tree."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_fresh_process(*argv):
    """Exit code, stdout and stderr of one command in a new interpreter."""
    proc = subprocess.run([sys.executable, "-m", "dfclab.cli", *argv], capture_output=True,
                          text=True, env=env_with_src(), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestStability:
    def test_stable_configuration(self, capsys):
        code, out, _ = run_cli(
            capsys, "stability", "--N", "3", "--T", "1", "--scheme", "uniform", "--mu", "-2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["spectral_radius"] < 1
        assert doc["stable"] is True
        assert doc["jury_verdict"] is True

    def test_unstable_configuration(self, capsys):
        code, out, _ = run_cli(
            capsys, "stability", "--N", "2", "--T", "1", "--scheme", "uniform", "--mu", "3"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["stable"] is False

    def test_custom_scheme_requires_gains(self, capsys):
        code, _, err = run_cli(
            capsys, "stability", "--N", "2", "--T", "1", "--scheme", "custom", "--mu", "0.5"
        )
        assert code == 2
        assert "usage error" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "stability", "--N", "3", "--T", "1", "--scheme", "uniform",
            "--mu", "-2", "--format", "csv",
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header == "mu,spectral_radius,stable,jury_verdict,marginal"


class TestGains:
    def test_dk2013_pair(self, capsys):
        code, out, _ = run_cli(capsys, "gains", "--scheme", "dk2013", "--N", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["gains"][0] == pytest.approx(2 / 3, abs=1e-12)
        assert doc["gains"][1] == pytest.approx(1 / 3, abs=1e-12)

    def test_uniform(self, capsys):
        code, out, _ = run_cli(capsys, "gains", "--scheme", "uniform", "--N", "4")
        doc = json.loads(out)
        assert doc["gains"] == [0.25] * 4

    @pytest.mark.parametrize("n", ["1", "3"])
    def test_custom_count_must_match_N(self, capsys, n):
        code, out, err = run_cli(
            capsys, "gains", "--scheme", "custom", "--N", n, "--gains", "0.5,0.5"
        )
        assert code == 2
        assert out == ""
        assert f"expected {n} gains, got 2" in err

    # Subcommands that take --scheme and --gains, without either flag.
    SCHEME_ARGVS = [
        ["gains", "--N", "2"],
        ["stability", "--N", "2", "--T", "1", "--mu", "-1"],
        ["simulate", "--map", "logistic:r=4", "--period", "1", "--N", "2",
         "--init", "0.3", "--steps", "100"],
        ["sweep", "--N", "2", "--T", "1", "--mu-range=-1,0", "--mu-step", "0.5"],
    ]

    @pytest.mark.parametrize("argv", SCHEME_ARGVS, ids=lambda argv: argv[0])
    def test_gains_with_a_named_scheme_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--scheme", "uniform", "--gains", "0.9,0.1")
        assert code == 2
        assert out == ""
        assert "custom scheme" in err

    @pytest.mark.parametrize("values", ["nan,nan", "inf,-inf"])
    @pytest.mark.parametrize(
        "argv",
        [*(argv + ["--scheme", "custom"] for argv in SCHEME_ARGVS),
         ["charpoly", "--N", "2", "--T", "1", "--multipliers", "-2"]],
        ids=lambda argv: argv[0],
    )
    def test_non_finite_gains_are_usage_errors(self, capsys, argv, values):
        code, out, err = run_cli(capsys, *argv, "--gains", values)
        assert code == 2
        assert out == ""
        assert "gains must be finite" in err

    @pytest.mark.parametrize("values", ["", " , "])
    @pytest.mark.parametrize(
        "argv",
        [*(pytest.param(argv + ["--scheme", scheme], id=f"{argv[0]}-{scheme}")
           for argv in SCHEME_ARGVS for scheme in ("uniform", "custom")),
         pytest.param(["charpoly", "--N", "2", "--T", "1", "--multipliers", "0.5"],
                      id="charpoly")],
    )
    def test_empty_gains_are_usage_errors(self, capsys, argv, values):
        code, out, err = run_cli(capsys, *argv, "--gains", values)
        assert code == 2
        assert out == ""
        assert "--gains expects at least one number" in err


class TestCharpoly:
    def test_coeffs_and_roots(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "charpoly", "--N", "2", "--T", "1",
            "--gains", "0.5,0.5", "--multipliers", "-2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["coeffs"] == [1.0, 1.0, 1.0]
        assert len(doc["roots"]) == 2
        for r in doc["roots"]:
            assert r["modulus"] == pytest.approx(1.0, abs=1e-12)

    def test_gain_count_validated(self, capsys):
        code, _, err = run_cli(
            capsys,
            "charpoly", "--N", "3", "--T", "1",
            "--gains", "0.5,0.5", "--multipliers", "-2",
        )
        assert code == 2
        assert "expected 3 gains, got 2" in err

    def test_csv_solves_no_roots(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(dfclab.cli, "poly_roots", lambda p: calls.append(p))
        code, out, _ = run_cli(
            capsys,
            "charpoly", "--N", "2", "--T", "1",
            "--gains", "0.5,0.5", "--multipliers", "-2", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "degree,coefficient"
        assert calls == []

    def test_csv_cells_are_plain_floats(self, capsys):
        argv = ["charpoly", "--N", "3", "--T", "2", "--gains", "0.5,0.3,0.2",
                "--multipliers=-1.1,0.5"]
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        cells = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert cells == json.loads(out)["coeffs"]

    def test_negative_list_joined_to_its_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "charpoly", "--N", "2", "--T", "2", "--gains", "0.5,0.5", "--multipliers=-2,1.1",
        )
        assert code == 0
        assert json.loads(out)["mu"] == pytest.approx(-2.2)


class TestCycles:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "cycles", "--map", "logistic:r=4", "--period", "1", "--grid", "500"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["subcommand"] == "cycles"
        products = [c["product"] for c in doc["cycles"]]
        assert products == pytest.approx([4.0, -2.0], abs=1e-8)

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "cycles", "--map", "logistic:r=4", "--period", "1", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "cycle,point_index,x,multiplier,product"

    def test_expression_map_with_params(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "cycles", "--map", "r*x*(1-x)", "--param", "r=4",
            "--domain", "0,1", "--period", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["cycles"]) == 2

    def test_midpoint_on_a_pole_is_skipped(self, capsys):
        # 0.5 is the midpoint of two nodes of the default grid and a pole of f.
        code, out, err = run_cli(
            capsys, "cycles", "--map", "2/(x - 0.5) + 0.5*x", "--domain", "0,1", "--period", "1"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["cycles"] == []

    @pytest.mark.parametrize("argv", [
        ["cycles", "--map", "logistic:r=nan", "--period", "1"],
        ["stabilize", "--map", "logistic:r=inf", "--period", "1"],
        ["simulate", "--map", "cubic:b=-inf", "--period", "1", "--N", "2", "--init", "0.3",
         "--steps", "100"],
    ])
    def test_non_finite_map_parameter_is_an_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: parameter value") and "not finite" in err

    def test_grid_floor_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "cycles", "--map", "logistic:r=4", "--period", "1", "--grid", "10"
        )
        assert code == 2
        assert "--grid" in err


DEEP_MAPS = {"1000-term sum": "+".join(["x"] * 1000), "300 parentheses": "(" * 300 + "x" + ")" * 300}


class TestMapErrors:
    """A malformed --map exits 1 with one error line and, for a syntax
    error, the position parse_map reports in the source as passed."""

    @pytest.mark.parametrize("source, position", [
        ("x $ 2", 2),
        ("x^", 2),
        ("sinh(x)", 0),
        ("logistic:r=l", 11),
        ("logistic:r=4,i", 13),
        ("   x^", 5),
        ("  sinh(x)", 2),
        ("cubic: b=1e999", 9),
    ])
    def test_syntax_error(self, capsys, source, position):
        with pytest.raises(MapSyntaxError) as exc:
            parse_map(source)
        assert exc.value.position == position
        code, out, err = run_cli(capsys, "cycles", "--map", source, "--period", "1")
        assert (code, out, err) == (1, "", f"error: {exc.value}\n")
        assert err.endswith(f" at position {position}\n")

    @pytest.mark.parametrize("source, message", [
        ("a*x", "unknown identifier"),
        ("logistic", "missing parameter"),
        *((source, "nested too deeply") for source in DEEP_MAPS.values()),
    ], ids=["unknown identifier", "missing parameter", *DEEP_MAPS])
    def test_map_error(self, capsys, source, message):
        code, out, err = run_cli(capsys, "cycles", "--map", source, "--period", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("source", DEEP_MAPS.values(), ids=list(DEEP_MAPS))
    def test_too_deep_a_map_prints_no_traceback(self, source):
        code, out, err = run_fresh_process("cycles", "--map", source, "--period", "1")
        assert (code, out) == (1, "")
        assert err == "error: map source is nested too deeply to parse and compile\n"


class TestSweep:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--N", "3", "--T", "1", "--scheme", "uniform",
            "--mu-range=-3.5,-2.5", "--mu-step", "0.5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "mu,spectral_radius,stable"
        assert len(lines) == 4  # -3.5, -3.0, -2.5
        assert lines[1].endswith("false")
        assert lines[3].endswith("true")

    def test_rows_on_exact_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--N", "3", "--T", "2", "--mu-range=-3,0", "--mu-step", "0.1"
        )
        assert code == 0
        mus = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert len(mus) == 31
        assert "-2.3" in mus
        assert mus[-1] == "0.0"

    def test_csv_equals_the_per_row_loop(self, capsys):
        # 300 rows, N = 5, T = 2, dk2013: the stacked solve prints the bytes
        # of one char_poly_closed and one np.roots per row.
        code, out, _ = run_cli(
            capsys, "sweep", "--N", "5", "--T", "2", "--scheme", "dk2013",
            "--mu-range=-3.2,0.5375", "--mu-step", "0.0125",
        )
        assert code == 0
        gains = dfclab.stability.gains_dk2013(5)
        lines = ["mu,spectral_radius,stable"]
        for i in range(300):
            mu = float(Fraction("-3.2") + i * Fraction("0.0125"))
            p = char_poly_closed(5, 2, gains, mu)
            radius = float(np.max(np.abs(np.roots(p.coeffs[::-1]).astype(complex))))
            stable = "true" if radius < 1.0 - dfclab.stability.SCHUR_MARGIN else "false"
            lines.append(f"{mu!r},{radius!r},{stable}")
        assert out == "\n".join(lines) + "\n"

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        lo=st.tuples(st.integers(-10**6, 10**6), st.integers(-8, 2)),
        step=st.tuples(st.integers(1, 10**6), st.integers(-8, 2)),
        k=st.integers(0, 30),
    )
    def test_rows_are_the_exact_sums_rounded_once(self, lo, step, k):
        # lo and step are written with exponents, and hi = lo + k*step exactly.
        (m1, e1), (m2, e2) = lo, step
        e = min(e1, e2)
        lo_text, step_text = f"{m1}e{e1}", f"{m2}e{e2}"
        hi_text = f"{m1 * 10 ** (e1 - e) + k * m2 * 10 ** (e2 - e)}e{e}"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["sweep", "--N", "1", "--T", "1", f"--mu-range={lo_text},{hi_text}",
                         "--mu-step", step_text, "--format", "json"])
        assert code == 0
        want = [float(Fraction(lo_text) + i * Fraction(step_text)) for i in range(k + 1)]
        got = [row["mu"] for row in json.loads(buf.getvalue())["rows"]]
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_solves_all_rows_in_one_stack(self, capsys, monkeypatch):
        calls = []
        real = dfclab.stability.poly_roots_stack

        def counted(rows):
            calls.append(len(rows))
            return real(rows)

        monkeypatch.setattr(dfclab.stability, "poly_roots_stack", counted)
        monkeypatch.setattr(dfclab.stability, "poly_roots", None)
        code, _, _ = run_cli(
            capsys, "sweep", "--N", "3", "--T", "2", "--mu-range=-3,0", "--mu-step", "0.1"
        )
        assert code == 0
        assert calls == [31]

    def test_row_count_over_the_limit_exits_two_at_once(self):
        # 10**300 rows: the count is checked before a single row is built.
        # The command runs in a child process, timed there; a command that
        # builds its rows first fails by the child's timeout, never hangs.
        script = """
import time, dfclab.cli
start = time.perf_counter()
code = dfclab.cli.main(["sweep", "--N", "2", "--T", "1", "--mu-range=0,1", "--mu-step", "1e-300"])
print(code, time.perf_counter() - start)
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env_with_src(), timeout=10)
        code, seconds = proc.stdout.split()
        assert code == "2"
        assert float(seconds) < 1.0
        assert proc.stderr == "usage error: --mu-range and --mu-step give more than 10000000 rows\n"

    def test_row_count_at_the_limit_is_accepted(self, monkeypatch, capsys):
        # Three rows, -1, -0.5 and 0, with the limit lowered to three.
        monkeypatch.setattr(dfclab.cli, "MAX_ARRAY_LENGTH", 3)
        argv = ["sweep", "--N", "2", "--T", "1", "--mu-range=-1,0", "--mu-step"]
        code, out, _ = run_cli(capsys, *argv, "0.5")
        assert code == 0
        assert len(out.splitlines()) == 4
        assert run_cli(capsys, *argv, "0.3")[0] == 2  # four rows

    @pytest.mark.parametrize(
        "bounds, step", [("-inf,0", "0.1"), ("-3,nan", "0.1"), ("-3,0", "inf")]
    )
    def test_non_finite_grid_is_usage_error(self, capsys, bounds, step):
        code, out, err = run_cli(
            capsys, "sweep", "--N", "3", "--T", "2", f"--mu-range={bounds}", "--mu-step", step
        )
        assert code == 2
        assert out == ""
        assert "finite" in err


class TestSimulate:
    def test_json_document(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--map", "logistic:r=4", "--period", "1",
            "--scheme", "uniform", "--N", "3", "--init", "0.3",
            "--steps", "2000", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        assert doc["target_points"] == pytest.approx([0.75], abs=1e-9)
        assert doc["trajectory"][0]["u"] is None
        assert doc["trajectory"][-1]["x"] == pytest.approx(0.75, abs=1e-5)

    def test_csv_plus_summary(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, out, _ = run_cli(
            capsys,
            "simulate", "--map", "logistic:r=4", "--period", "1",
            "--scheme", "uniform", "--N", "3", "--init", "0.3",
            "--steps", "2000", "--out", str(out_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["converged"] is True
        lines = out_path.read_text().splitlines()
        assert lines[0] == "k,x,u"
        assert len(lines) == 2004  # header + M + steps

    def test_no_cycle_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--map", "logistic:r=2.5", "--period", "2",
            "--N", "2", "--init", "0.3", "--steps", "100",
        )
        assert code == 1
        assert "no period-2 cycle" in err

    def test_one_run_serves_every_candidate_cycle(self, capsys, monkeypatch, tmp_path):
        # logistic r=4 has three period-4 cycles; the trajectory does not
        # depend on the target, so it is iterated once. f is evaluated once
        # per state: the (N-1)T+1 = 5 history states and all but the last of
        # the 400 states the steps add.
        calls = []
        real = dfclab.simulation.eval_map
        monkeypatch.setattr(
            dfclab.simulation, "eval_map", lambda m, x: calls.append(x) or real(m, x)
        )
        code, _, _ = run_cli(
            capsys,
            "simulate", "--map", "logistic:r=4", "--period", "4",
            "--N", "2", "--init", "0.3", "--steps", "400",
            "--out", str(tmp_path / "traj.csv"),
        )
        assert code == 0
        assert len(calls) == 5 + 399

    def test_custom_gains_set_N_without_mutating_args(self, capsys):
        args = build_parser().parse_args([
            "simulate", "--map", "logistic:r=4", "--period", "1", "--scheme", "custom",
            "--gains", "0.6,0.4", "--init", "0.3", "--steps", "100", "--format", "json",
        ])
        assert args.handler(args) == 0
        assert json.loads(capsys.readouterr().out)["N"] == 2
        assert args.N is None

    def test_history_length_validated(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--map", "logistic:r=4", "--period", "1",
            "--N", "3", "--history", "0.3,0.3", "--steps", "100",
        )
        assert code == 2
        assert "--history" in err

    def test_init_with_history_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            "simulate", "--map", "logistic:r=4", "--period", "1",
            "--N", "2", "--init", "0.3", "--history", "0.3,0.3", "--steps", "100",
        )
        assert (code, out) == (2, "")
        assert err == "usage error: give one of --init or --history, not both\n"


class TestVerify:
    def test_named_suite(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "lemma1", "--trials", "100", "--seed", "7"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert doc["results"][0]["trials"] == 100
        assert "PASS" in err

    def test_all_suites(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--trials", "25")
        assert code == 0
        doc = json.loads(out)
        assert [r["name"] for r in doc["results"]] == [
            "lemma1", "chain", "rotation", "morgul",
        ]

    def test_max_errors_are_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--trials", "50", "--seed", "3")
        assert code == 0
        assert {r["name"]: r["max_err"] for r in json.loads(out)["results"]} == {
            "lemma1": 7.493031664896834e-16,
            "chain": 4.440892098500626e-16,
            "rotation": 5.216415618680742e-16,
            "morgul": 2.754406852133276e-14,
        }


class TestStabilize:
    def test_pipeline_logistic_r4(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "stabilize", "--map", "logistic:r=4", "--period", "1",
            "--N-max", "10", "--steps", "3000",
        )
        assert code == 0
        doc = json.loads(out)
        by_mu = {round(e["mu"]): e for e in doc["entries"]}
        assert by_mu[4]["stabilizable"] is False
        good = by_mu[-2]
        assert good["min_N"] == 3
        assert good["converged"] is True
        assert good["agreement"] is True

    def test_pipeline_already_stable_cycle(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "stabilize", "--map", "logistic:r=3.2", "--period", "2", "--steps", "2000",
        )
        assert code == 0
        doc = json.loads(out)
        entry = doc["entries"][0]
        assert entry["mu"] == pytest.approx(0.16, abs=1e-6)
        assert entry["min_N"] == 1
        assert entry["converged"] is True

    def test_search_radius_is_reused(self, capsys, monkeypatch):
        # mu = -1.9: N=1 is unstable, N=2 stable. The Jury table decides both
        # N, so the only root solve is the one for the reported radius at N=2.
        calls = []
        real = dfclab.stability.poly_roots

        def counted(p, *args, **kwargs):
            calls.append(p.degree)
            return real(p, *args, **kwargs)

        monkeypatch.setattr(dfclab.stability, "poly_roots", counted)
        monkeypatch.setattr(dfclab.cli, "poly_roots", counted)
        code, out, _ = run_cli(
            capsys, "stabilize", "--map", "logistic:r=3.9", "--period", "1"
        )
        assert code == 0
        entry = next(e for e in json.loads(out)["entries"] if e["stabilizable"])
        assert entry["min_N"] == 2
        assert entry["spectral_radius"] < 1.0
        assert calls == [2]

    def test_library_pipeline_gives_the_cli_entries(self, capsys):
        code, out, _ = run_cli(
            capsys, "stabilize", "--map", "logistic:r=4", "--period", "1", "--steps", "2000"
        )
        assert code == 0
        entries = dfclab.stability.pipeline_stabilize(
            parse_map("logistic:r=4"), 1, "uniform", 32, 2000, 1e-6, 1000
        )
        assert json.loads(json.dumps(entries)) == json.loads(out)["entries"]
        assert any(e["stabilizable"] for e in entries)

    def test_empty_report_when_no_cycles(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "stabilize", "--map", "logistic:r=2.5", "--period", "2",
        )
        assert code == 0
        assert json.loads(out)["entries"] == []

    def test_readme_example_is_the_cli_stdout(self, capsys):
        lines = (SRC.parent / "README.md").read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("    $ "))
        argv = shlex.split(lines[start].partition(" -m dfclab ")[2])
        assert argv == ["stabilize", "--map", "logistic:r=4", "--period", "1"]
        block = itertools.takewhile(lambda line: line.startswith("    "), lines[start + 1:])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == "".join(line[4:] + "\n" for line in block)


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        argv = [
            "stabilize", "--map", "logistic:r=4", "--period", "1",
            "--N-max", "5", "--steps", "1000",
        ]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    @pytest.mark.parametrize("argv", [
        ["cycles", "--map", "logistic:r=4", "--period", "1"],
        ["charpoly", "--N", "1", "--T", "1", "--gains", "1", "--multipliers", "0.5"],
        ["stability", "--N", "2", "--T", "1", "--mu", "-1"],
        ["gains", "--scheme", "uniform", "--N", "2"],
        ["simulate", "--map", "logistic:r=4", "--period", "1", "--N", "2",
         "--init", "0.3", "--steps", "20", "--format", "json"],
        # CSV trajectory to --out, JSON summary to stdout
        ["simulate", "--map", "logistic:r=4", "--period", "1", "--N", "2",
         "--init", "0.3", "--steps", "20", "--out", os.devnull],
        ["sweep", "--N", "2", "--T", "1", "--mu-range=-1,0", "--mu-step", "1",
         "--format", "json"],
        ["verify", "--suite", "chain", "--trials", "2"],
        ["stabilize", "--map", "logistic:r=3.2", "--period", "1", "--steps", "100"],
    ])
    def test_json_header_comes_first(self, capsys, argv):
        _, out, _ = run_cli(capsys, *argv)
        doc = json.loads(out)
        assert list(doc)[:2] == ["schema_version", "subcommand"]
        assert doc["subcommand"] == argv[0]

    def test_json_round_trips(self, capsys):
        for argv in (
            ["gains", "--scheme", "dk2013", "--N", "5"],
            ["stability", "--N", "2", "--T", "2", "--scheme", "uniform", "--mu", "0.5"],
            ["verify", "--suite", "chain", "--trials", "10"],
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert code in (0, 1)
            json.loads(out)  # must parse


class TestUsageErrors:
    MAP = ["--map", "logistic:r=4"]

    @pytest.mark.parametrize(
        "argv, flag, least",
        [
            (["cycles", *MAP, "--period", "0"], "--period", 1),
            (["cycles", *MAP, "--period", "1", "--grid", "99"], "--grid", 100),
            (["charpoly", "--N", "0", "--T", "1", "--gains", "1", "--multipliers", "2"], "--N", 1),
            (["charpoly", "--N", "1", "--T", "0", "--gains", "1", "--multipliers", "2"], "--T", 1),
            (["stability", "--N", "0", "--T", "1", "--mu", "-1"], "--N", 1),
            (["stability", "--N", "2", "--T", "0", "--mu", "-1"], "--T", 1),
            (["gains", "--scheme", "uniform", "--N", "0"], "--N", 1),
            (["simulate", *MAP, "--period", "0", "--N", "2", "--init", "0.3",
              "--steps", "100"], "--period", 1),
            (["simulate", *MAP, "--period", "1", "--N", "0", "--init", "0.3",
              "--steps", "100"], "--N", 1),
            (["simulate", *MAP, "--period", "1", "--N", "2", "--init", "0.3",
              "--steps", "100", "--grid", "50"], "--grid", 100),
            (["sweep", "--N", "0", "--T", "1", "--mu-range=-1,0", "--mu-step", "0.5"], "--N", 1),
            (["sweep", "--N", "2", "--T", "0", "--mu-range=-1,0", "--mu-step", "0.5"], "--T", 1),
            (["verify", "--suite", "chain", "--trials", "0"], "--trials", 1),
            (["stabilize", *MAP, "--period", "0"], "--period", 1),
            (["stabilize", *MAP, "--period", "1", "--N-max", "0"], "--N-max", 1),
            (["stabilize", *MAP, "--period", "1", "--grid", "50"], "--grid", 100),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else str(v).lstrip("-"),
    )
    def test_integer_flag_below_its_floor_exits_two(self, capsys, argv, flag, least):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"usage error: {flag} must be >= {least}\n"

    # "V" stands for the value under test.
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["stability", "--N", "2", "--T", "1", "--mu=V"], "--mu"),
            (["charpoly", "--N", "2", "--T", "1", "--gains", "0.5,0.5", "--multipliers=V"],
             "--multipliers"),
            (["charpoly", "--N", "2", "--T", "2", "--gains", "0.5,0.5", "--multipliers=-2,V"],
             "--multipliers"),
            (["simulate", *MAP, "--period", "1", "--N", "2", "--init=V", "--steps", "100",
              "--format", "json"], "--init"),
            (["simulate", *MAP, "--period", "1", "--N", "2", "--history=0.3,V", "--steps", "100"],
             "--history"),
            (["simulate", *MAP, "--period", "1", "--N", "2", "--init", "0.3", "--steps", "100",
              "--tol=V"], "--tol"),
            (["stabilize", *MAP, "--period", "1", "--tol=V"], "--tol"),
            (["cycles", "--map", "r*x*(1-x)", "--param=r=V", "--period", "1"], "--param r"),
            (["cycles", *MAP, "--period", "1", "--domain=0,V"], "--domain"),
        ],
        ids=lambda v: "-".join(v[:1] + [a for a in v if "V" in a]) if isinstance(v, list) else v,
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_flag_exits_two(self, capsys, argv, flag, value):
        code, out, err = run_cli(capsys, *(a.replace("V", value) for a in argv))
        assert code == 2
        assert out == ""
        assert err == f"usage error: {flag} expects a finite number, got {value!r}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", *MAP, "--period", "1", "--N", "2", "--init", "0.3"],
            ["stabilize", *MAP, "--period", "1"],
        ],
        ids=lambda v: v[0],
    )
    @pytest.mark.parametrize("steps", ["9", "3", "-5"])
    def test_steps_below_ten_periods_exits_two(self, capsys, argv, steps):
        code, out, err = run_cli(capsys, *argv, "--steps", steps)
        assert (code, out) == (2, "")
        assert err == "usage error: --steps must be at least 10*T = 10\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", *MAP, "--period", "1", "--N", "2", "--init", "0.3", "--steps", "100"],
            ["stabilize", *MAP, "--period", "1"],
        ],
        ids=lambda v: v[0],
    )
    @pytest.mark.parametrize("tol", ["0", "-1", "-0.0"])
    def test_tolerance_that_is_not_positive_exits_two(self, capsys, argv, tol):
        # No distance is below a zero tolerance, so no run could converge.
        code, out, err = run_cli(capsys, *argv, f"--tol={tol}")
        assert (code, out) == (2, "")
        assert err == "usage error: --tol must be > 0\n"

    def test_float_flag_that_is_no_number_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "stability", "--N", "2", "--T", "1", "--mu", "abc")
        assert (code, out) == (2, "")
        assert err == "usage error: --mu expects a number, got 'abc'\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "chain", "--trials", "2"],
            ["stabilize", *MAP, "--period", "1", "--steps", "100"],
        ],
        ids=lambda v: v[0],
    )
    def test_csv_format_on_a_json_only_subcommand_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "csv"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["subcommand"] == argv[0]

    @pytest.mark.parametrize("argv", [
        ["cycles", *MAP, "--period", "1"],
        ["charpoly", "--N", "1", "--T", "1", "--gains", "1", "--multipliers", "0.5"],
        ["stability", "--N", "2", "--T", "1", "--mu", "-1"],
        ["gains", "--scheme", "uniform", "--N", "2"],
        ["simulate", *MAP, "--period", "1", "--N", "2", "--init", "0.3", "--steps", "20"],
        ["sweep", "--N", "2", "--T", "1", "--mu-range=-1,0", "--mu-step", "1"],
        ["stabilize", *MAP, "--period", "1", "--steps", "100"],
    ], ids=lambda v: v[0])
    def test_seed_outside_verify_exits_two(self, capsys, argv):
        # Only verify draws random numbers, so only it takes --seed.
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    # Each flag sets the length of an array; the library call is a recording
    # stub, so a value over the limit that got through would allocate nothing.
    @pytest.mark.parametrize(
        "argv, flag, stub",
        [
            (["cycles", *MAP, "--period", "1"], "--grid", "find_cycles"),
            (["simulate", *MAP, "--period", "1", "--N", "2", "--init", "0.3", "--steps", "100"],
             "--grid", "find_cycles"),
            (["simulate", *MAP, "--period", "1", "--N", "2", "--init", "0.3"],
             "--steps", "find_cycles"),
            (["stabilize", *MAP, "--period", "1"], "--grid", "pipeline_stabilize"),
            (["stabilize", *MAP, "--period", "1"], "--steps", "pipeline_stabilize"),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else str(v).lstrip("-"),
    )
    def test_array_length_flag_above_the_limit_exits_two(
        self, monkeypatch, capsys, argv, flag, stub
    ):
        calls = []
        monkeypatch.setattr(dfclab.cli, stub, lambda *args: calls.append(args) or [])
        limit = 10**7
        code, out, err = run_cli(capsys, *argv, flag, str(limit + 1))
        assert (code, out, calls) == (2, "", [])
        assert err == f"usage error: {flag} must be <= {limit}\n"
        run_cli(capsys, *argv, flag, str(limit))  # at the limit: the library is called
        assert len(calls) == 1

    # Each command builds a polynomial, or a history, of length (N-1)T+1 = d;
    # the library call is a stub that records and fails, so a degree over the
    # limit that got through would solve nothing.
    @pytest.mark.parametrize(
        "argv, stub",
        [
            (lambda d: ["charpoly", "--N", "2", "--T", str(d - 1), "--gains", "0.5,0.5",
                        "--multipliers", ",".join(["1"] * (d - 1))], "char_poly_closed"),
            (lambda d: ["stability", "--N", str(d), "--T", "1", "--mu=-1"], "char_poly_closed"),
            (lambda d: ["sweep", "--N", "2", "--T", str(d - 1), "--mu-range=-1,0",
                        "--mu-step", "1"], "spectral_radii"),
            (lambda d: ["gains", "--scheme", "uniform", "--N", str(d)], "make_gains"),
            (lambda d: ["simulate", *LOGISTIC, "--period", "1", "--N", str(d),
                        "--init", "0.3", "--steps", "100"], "find_cycles"),
            (lambda d: ["simulate", *LOGISTIC, "--period", "1", "--scheme", "custom",
                        "--gains=" + ",".join(["1"] + ["0"] * (d - 1)),
                        "--init", "0.3", "--steps", "100"], "find_cycles"),
            (lambda d: ["simulate", *LOGISTIC, "--period", str(d - 1), "--N", "2",
                        "--init", "0.3", "--steps", str(10 * d)], "find_cycles"),
            (lambda d: ["stabilize", *LOGISTIC, "--period", "1", "--N-max", str(d)],
             "pipeline_stabilize"),
        ],
        ids=["charpoly", "stability", "sweep", "gains", "simulate", "simulate-custom",
             "simulate-period", "stabilize"],
    )
    def test_degree_above_the_limit_exits_two(self, monkeypatch, capsys, argv, stub):
        calls = []

        def record(*args, **kwargs):
            calls.append(args)
            raise dfclab.cli.DomainError("stub")

        monkeypatch.setattr(dfclab.cli, stub, record)
        limit = 1000
        code, out, err = run_cli(capsys, *argv(limit + 1))
        assert (code, out, calls) == (2, "", [])
        assert err == f"usage error: degree (N-1)*T+1 must be <= {limit}, got {limit + 1}\n"
        assert run_cli(capsys, *argv(limit)) == (1, "", "error: stub\n")  # the library is called
        assert len(calls) == 1

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gains", "--scheme", "uniform", "--N", "2", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_out_file_written(self, capsys, tmp_path):
        path = tmp_path / "gains.json"
        code, out, _ = run_cli(
            capsys, "gains", "--scheme", "uniform", "--N", "3", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["gains"] == pytest.approx([1 / 3] * 3)


def per_cell_csv(header, rows):
    """The CSV writer that formatted every cell by its own call, kept as
    the reference for the column-wise one."""

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(float(v))
        return str(v)

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell(v) for v in row))
    return "\n".join(lines) + "\n"


def column_csv(header, columns):
    """What the CLI's CSV writer prints for these columns."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        dfclab.cli._emit_csv(argparse.Namespace(out=None), header, columns)
    return buf.getvalue()


FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300]))
CELLS = {
    "float": FLOATS,
    "int": st.integers(),
    "bool": st.booleans(),
    "float or blank": st.one_of(st.none(), FLOATS),
    "bool or blank": st.one_of(st.none(), st.booleans()),
    "numpy": st.one_of(st.builds(np.float64, FLOATS), st.builds(np.int64, st.integers(-2**63, 2**63 - 1)),
                       st.builds(np.bool_, st.booleans())),
    "any": st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, st.text(max_size=3)),
}


class TestCsvWriter:
    @settings(deadline=None, max_examples=150)
    @given(data=st.data(), n_rows=st.integers(0, 40),
           kinds=st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=5))
    def test_columns_print_the_bytes_of_the_per_cell_writer(self, data, n_rows, kinds):
        columns = [data.draw(st.lists(CELLS[k], min_size=n_rows, max_size=n_rows)) for k in kinds]
        header = [f"c{j}" for j in range(len(kinds))]
        rows = [[col[i] for col in columns] for i in range(n_rows)]
        assert column_csv(header, columns) == per_cell_csv(header, rows)

    def test_zero_rows_print_the_header_only(self):
        assert column_csv(["a", "b"], [[], []]) == "a,b\n" == per_cell_csv(["a", "b"], [])

    def test_repeated_floats_and_signed_zeros(self):
        # A simulated run repeats its cycle, so each distinct float is
        # formatted once; 0.0 == -0.0 and 1 == 1.0 must still print apart.
        window = [0.1, -0.0, 0.75, 0.0, None, float("nan"), 1e-300, -0.0]
        columns = [window * 50, [1, 1.0, 0, -0.0, 0.0, None, 2, 2.0] * 50]
        rows = [list(row) for row in zip(*columns)]
        assert column_csv(["x", "y"], columns) == per_cell_csv(["x", "y"], rows)
        assert dfclab.cli._csv_column(window) == [
            "0.1", "-0.0", "0.75", "0.0", "", "nan", "1e-300", "-0.0"]


class TestOneParserPerProcess:
    def test_main_builds_the_parser_once_and_import_builds_none(self):
        # Counts every ArgumentParser made (the parser and its subparsers)
        # after the import and after each of several commands.
        script = """
import argparse, contextlib, io
made = [0]
init = argparse.ArgumentParser.__init__
def counted(self, *a, **k):
    made[0] += 1
    init(self, *a, **k)
argparse.ArgumentParser.__init__ = counted
import dfclab.cli
counts = [made[0]]
for argv in (["gains", "--scheme", "uniform", "--N", "2"],
             ["stability", "--N", "2", "--T", "1", "--mu", "-1"],
             ["gains", "--scheme", "uniform", "--N", "0"]) * 4:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        dfclab.cli.main(argv)
    counts.append(made[0])
print(counts)
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env_with_src(), timeout=120, check=True)
        counts = json.loads(proc.stdout)
        assert counts[0] == 0
        assert counts[1] > 0
        assert counts[1:] == [counts[1]] * 12

    def test_package_runs_as_a_module(self, capsys):
        # python -m dfclab is the dfclab command, as python -m dfclab.cli is.
        argv = ["stability", "--N", "2", "--T", "1", "--mu", "-1"]
        proc = subprocess.run([sys.executable, "-m", "dfclab", *argv], capture_output=True,
                              text=True, env=env_with_src(), timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv)

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_param_lists_do_not_carry_over(self, capsys):
        argv = ["cycles", "--map", "r*x*(1-x)", "--period", "1", "--format", "csv"]
        run_cli(capsys, *argv, "--param", "r=4")
        for extra in (["--param", "r=3.2"], []):
            assert run_cli(capsys, *argv, *extra) == run_fresh_process(*argv, *extra)

    # Each subcommand that takes both formats, with its --format default.
    DEFAULTS = [
        (["cycles", "--map", "logistic:r=4", "--period", "2"], "json"),
        (["charpoly", "--N", "2", "--T", "1", "--gains", "0.5,0.5", "--multipliers", "-2"], "json"),
        (["stability", "--N", "2", "--T", "1", "--mu", "-1"], "json"),
        (["gains", "--scheme", "dk2013", "--N", "3"], "json"),
        (["simulate", "--map", "logistic:r=4", "--period", "1", "--N", "2", "--init", "0.3",
          "--steps", "20"], "csv"),
        (["sweep", "--N", "2", "--T", "1", "--mu-range=-1,0", "--mu-step", "0.5"], "csv"),
    ]

    @pytest.mark.parametrize("argv, default", DEFAULTS, ids=lambda v: v[0] if isinstance(v, list) else v)
    def test_format_default_survives_a_call_that_sets_it(self, capsys, argv, default):
        other = {"json": "csv", "csv": "json"}[default]
        run_cli(capsys, *argv, "--format", other)
        code, out, err = run_cli(capsys, *argv)
        args = build_parser().parse_args(argv)
        assert args.format == default
        assert args.handler(args) == code
        assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize("bad", [
        ["sweep", "--N", "0", "--T", "1", "--mu-range=-1,0", "--mu-step", "0.5"],
        ["sweep", "--N", "2", "--T", "1", "--mu-range=0,1", "--mu-step", "0"],
        ["sweep", "--N", "2", "--T", "1", "--frobnicate"],
    ], ids=["flag-type", "handler", "argparse"])
    def test_valid_call_after_a_usage_error_prints_fresh_process_bytes(self, capsys, bad):
        try:
            assert run_cli(capsys, *bad)[0] == 2
        except SystemExit as exc:  # argparse's own usage errors exit
            assert exc.code == 2
        capsys.readouterr()
        good = ["sweep", "--N", "2", "--T", "1", "--mu-range=-1,0", "--mu-step", "0.5",
                "--scheme", "dk2013"]
        assert run_cli(capsys, *good) == run_fresh_process(*good)


def subcommand_actions():
    """Each subcommand's name, help and argparse actions, in parser order."""
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    helps = {c.dest: c.help for c in subs._choices_actions}
    return [(name, helps[name], [a for a in sub._actions if a.option_strings != ["-h", "--help"]])
            for name, sub in subs.choices.items()]


class TestFlagSurface:
    """The flags of every subcommand as a user sees them: option string,
    default, choices, whether required, and help text."""

    MAP_HELP = 'builtin designator ("logistic:r=4") or expression in x'
    GAINS_HELP = "comma-separated gains for --scheme custom (--gains=-0.5,1.5 if the first is < 0)"
    OUT_HELP = "write the report to this path instead of stdout"
    SCHEMES = ["uniform", "dk2013", "custom"]
    MAP = {
        "--map": (None, None, True, MAP_HELP),
        "--param": (None, None, False, "bind an expression parameter"),
        "--domain": (None, None, False, "override the scan domain as lo,hi"),
    }
    SURFACE = {
        "cycles": ("detect period-T orbits of a map", {
            **MAP,
            "--period": (None, None, True, None),
            "--grid": (1000, None, False, None),
            "--format": ("json", ["json", "csv"], False, None),
            "--out": (None, None, False, OUT_HELP),
        }),
        "charpoly": ("closed-form characteristic polynomial and roots", {
            "--N": (None, None, True, None),
            "--T": (None, None, True, None),
            "--gains": (None, None, True,
                        "comma-separated a_1..a_N (--gains=-0.5,1.5 if the first is < 0)"),
            "--multipliers": (None, None, True, "comma-separated mu_1..mu_T"
                              " (--multipliers=-2,1.1 if the first is < 0)"),
            "--format": ("json", ["json", "csv"], False, None),
            "--out": (None, None, False, OUT_HELP),
        }),
        "stability": ("Schur stability report for one mu", {
            "--N": (None, None, True, None),
            "--T": (None, None, True, None),
            "--scheme": ("uniform", SCHEMES, False, None),
            "--gains": (None, None, False, GAINS_HELP),
            "--mu": (None, None, True, None),
            "--format": ("json", ["json", "csv"], False, None),
            "--out": (None, None, False, OUT_HELP),
        }),
        "gains": ("emit a gain scheme", {
            "--scheme": (None, SCHEMES, True, None),
            "--N": (None, None, True, None),
            "--gains": (None, None, False, GAINS_HELP),
            "--format": ("json", ["json", "csv"], False, None),
            "--out": (None, None, False, OUT_HELP),
        }),
        "simulate": ("run the controlled dynamics", {
            **MAP,
            "--period": (None, None, True, None),
            "--scheme": ("uniform", SCHEMES, False, None),
            "--N": (None, None, False, None),
            "--gains": (None, None, False, GAINS_HELP),
            "--init": (None, None, False, "constant initial history value"),
            "--history": (None, None, False, "explicit initial history, (N-1)T+1 values"
                          " (--history=-0.2,0.5 if the first is < 0)"),
            "--steps": (None, None, True, None),
            "--tol": (1e-6, None, False, None),
            "--grid": (1000, None, False, None),
            "--cycle-index": (None, None, False, "target cycle index (anchor order)"),
            "--format": ("csv", ["json", "csv"], False, None),
            "--out": (None, None, False, OUT_HELP),
        }),
        "sweep": ("spectral radius over a mu range, all rows from one stacked root solve", {
            "--N": (None, None, True, None),
            "--T": (None, None, True, None),
            "--scheme": ("uniform", SCHEMES, False, None),
            "--gains": (None, None, False, GAINS_HELP),
            "--mu-range": (None, None, True, "lo,hi (use --mu-range=-3,-1 when lo is negative)"),
            "--mu-step": (None, None, True,
                          "grid spacing; rows are lo + i*step, at most 10000000 of them"),
            "--format": ("csv", ["json", "csv"], False, None),
            "--out": (None, None, False, OUT_HELP),
        }),
        "verify": ("run seeded self-check suites", {
            "--suite": ("all", ["lemma1", "chain", "rotation", "morgul", "all"], False, None),
            "--trials": (100, None, False, None),
            "--seed": (0, None, False, "random seed of the trials"),
            "--format": ("json", ["json"], False, None),
            "--out": (None, None, False, OUT_HELP),
        }),
        "stabilize": ("cycle -> gains -> simulation pipeline", {
            **MAP,
            "--period": (None, None, True, None),
            "--scheme": ("uniform", ["uniform", "dk2013"], False, None),
            "--N-max": (32, None, False, None),
            "--steps": (5000, None, False, None),
            "--tol": (1e-6, None, False, None),
            "--grid": (1000, None, False, None),
            "--format": ("json", ["json"], False, None),
            "--out": (None, None, False, OUT_HELP),
        }),
    }

    def test_every_flag_of_every_subcommand(self):
        surface = {
            name: (help_, {
                opt: (a.default, None if a.choices is None else list(a.choices), a.required, a.help)
                for a in actions for opt in a.option_strings
            })
            for name, help_, actions in subcommand_actions()
        }
        assert surface == self.SURFACE
        assert list(surface) == list(self.SURFACE)  # subcommands keep their order

    def test_dest_metavar_and_action_where_not_the_plain_store(self):
        # Every other flag stores one value under its own name, without a metavar.
        odd = {
            (name, a.option_strings[0]): (a.dest, a.metavar, type(a).__name__)
            for name, _, actions in subcommand_actions() for a in actions
            if (a.dest, a.metavar, type(a)) != (a.option_strings[0].lstrip("-").replace("-", "_"),
                                                None, argparse._StoreAction)
        }
        param = ("param", "KEY=VAL", "_AppendAction")
        assert odd == {
            ("cycles", "--param"): param,
            ("simulate", "--param"): param,
            ("stabilize", "--param"): param,
            ("stabilize", "--N-max"): ("n_max", None, "_StoreAction"),
        }


class TestOverflowingInputs:
    @pytest.mark.parametrize("domain", ["--domain=-1e308,1e308", "--domain=-1.7e308,1.7e308"])
    def test_a_domain_whose_width_overflows_is_a_usage_error(self, capsys, domain):
        code, out, err = run_cli(capsys, "cycles", "--map", "x^2 - 1", domain, "--period", "1")
        assert (code, out) == (2, "")
        assert err == "usage error: --domain expects lo,hi with lo < hi and a finite width hi - lo\n"

    @pytest.mark.parametrize("mults, bad", [("1e200,1e200", "inf"), ("-1e200,1e200", "-inf"),
                                            ("1e200,1e200,0", "nan")])
    def test_an_overflowing_product_of_multipliers_names_mu(self, capsys, mults, bad):
        argv = ["charpoly", "--N", "2", "--T", str(mults.count(",") + 1), "--gains", "0.5,0.5",
                f"--multipliers={mults}"]
        want = f"error: mu must be finite, got {bad}: p would have non-finite coefficients\n"
        assert run_cli(capsys, *argv) == (1, "", want)
        assert run_fresh_process(*argv) == (1, "", want)
