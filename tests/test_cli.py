"""End-to-end tests of the command-line interface."""

import json
import os

import pytest

import dfclab.cli
import dfclab.simulation
import dfclab.stability
from dfclab.cli import build_parser, main
from dfclab.maps import parse_map


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    @pytest.mark.parametrize("n", ["0", "3"])
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

    def test_grid_floor_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "cycles", "--map", "logistic:r=4", "--period", "1", "--grid", "10"
        )
        assert code == 2
        assert "--grid" in err


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
        # depend on the target, so it is iterated once: steps * N evaluations.
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
        assert len(calls) == 400 * 2

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


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        argv = [
            "stabilize", "--map", "logistic:r=4", "--period", "1",
            "--N-max", "5", "--steps", "1000", "--seed", "0",
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
