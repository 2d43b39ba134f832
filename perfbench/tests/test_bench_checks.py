"""Each check accepts dfclab's answer and rejects a deliberately wrong one.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import math

import pytest

import dfclab
import jobs as J
import oracles as O


def test_interval_rejects_shifted_endpoints():
    a = dfclab.make_gains("uniform", 4)
    out = dfclab.stable_mu_interval(4, 2, a, scheme="uniform")
    assert J.check_interval("uniform", 4, 2, out) == []
    shift = 1e-3 * (1 + abs(out.lo))
    for lo in (out.lo + shift, out.lo - shift):
        assert J.check_interval("uniform", 4, 2, dataclasses.replace(out, lo=lo))
    assert J.check_interval("uniform", 4, 2, dataclasses.replace(out, hi=out.hi - 1e-3))


def test_dk2013_lower_endpoint_is_the_closed_form():
    out = dfclab.stable_mu_interval(8, 1, dfclab.make_gains("dk2013", 8), scheme="dk2013")
    assert J.check_interval("dk2013", 8, 1, out) == []
    assert abs(out.lo - O.dk2013_lower_endpoint(8)) < 1e-5
    wrong = dataclasses.replace(out, lo=out.lo * (1 + 1e-6))
    assert any("cot" in p for p in J.check_interval("dk2013", 8, 1, wrong))


def test_report_and_jury_reject_a_flipped_verdict():
    p = dfclab.char_poly_closed(6, 3, dfclab.make_gains("dk2013", 6), -1.2)
    report = dfclab.analyze(p)
    assert J.check_report("dk2013", 6, 3, -1.2, report) == []
    flipped = dataclasses.replace(report, jury_verdict=not report.jury_verdict)
    assert J.check_report("dk2013", 6, 3, -1.2, flipped)
    assert J.check_report(
        "dk2013", 6, 3, -1.2, dataclasses.replace(report, spectral_radius=report.spectral_radius + 1e-6)
    )
    assert J.check_jury("dk2013", 6, 3, -1.2, report.jury_verdict) == []
    assert J.check_jury("dk2013", 6, 3, -1.2, not report.jury_verdict)


def test_min_n_rejects_a_neighbour_of_the_answer():
    n = dfclab.min_N_to_stabilize(2, -2.3, "uniform", 32)
    assert n is not None and n > 1
    assert J.check_min_n("uniform", 2, -2.3, 32, n) == []
    assert J.check_min_n("uniform", 2, -2.3, 32, n - 1)
    assert J.check_min_n("uniform", 2, -2.3, 32, n + 1)
    assert J.check_min_n("uniform", 2, -2.3, 32, None)
    assert J.check_min_n("uniform", 2, -4.5, 32, None) == []


def test_gamma_rejects_a_moved_tangency():
    gamma = dfclab.gamma_t1(dfclab.make_gains("dk2013", 8))
    assert J.check_gamma(8, gamma) == []
    assert J.check_gamma(8, gamma * 1.01)
    assert J.check_gamma(8, gamma * 0.99)


def test_orbits_reject_a_missing_or_moved_orbit():
    cycles = dfclab.find_cycles(dfclab.parse_map("logistic:r=4"), 5)
    assert len(cycles) == O.necklace_count(5) == 6
    assert J.check_cycles("logistic", 4.0, 5, cycles) == []
    assert J.check_cycles("logistic", 4.0, 5, cycles[1:])
    c = cycles[2]
    moved = dataclasses.replace(c, points=(c.points[0] + 1e-7,) + c.points[1:])
    assert J.check_cycles("logistic", 4.0, 5, cycles[:2] + [moved] + cycles[3:])


def test_necklace_counts():
    assert [O.necklace_count(T) for T in range(1, 10)] == [2, 1, 2, 3, 6, 9, 18, 30, 56]


def test_grid_count_finds_the_tangent_orbits_that_find_cycles_misses():
    m = dfclab.parse_map(J.designator("logistic", J.TANGENT_R))
    assert O.orbit_count("logistic", J.TANGENT_R, 3) == 2
    assert J.check_cycles("logistic", J.TANGENT_R, 3, dfclab.find_cycles(m, 3))
    assert J.check_cycles("logistic", J.TANGENT_R, 3, dfclab.find_cycles(m, 3, 20000)) == []


def test_basin_rejects_a_changed_fraction():
    m = dfclab.parse_map("cubic:b=2.8")
    a = dfclab.make_gains("uniform", 3)
    x = math.sqrt(1.8)
    target = dfclab.Cycle(1, (x,), (-2.6,), -2.6)
    frac = dfclab.basin_fraction(m, a, 1, target, J.BASIN_SAMPLES, J.BASIN_STEPS, seed=7)
    assert 0.0 < frac < 1.0
    assert J.check_basin("cubic", 2.8, a.coeffs, (x,), 7, frac) == []
    assert J.check_basin("cubic", 2.8, a.coeffs, (x,), 7, frac + 1 / J.BASIN_SAMPLES)


def test_simulate_rejects_a_perturbed_trajectory():
    argv = ["simulate", "--map", "cubic:b=2.8", "--period", "1", "--N", "3",
            "--init", "0.41", "--steps", str(J.SIMULATE_STEPS)]
    out = J.cli(argv)
    assert out.code == 0
    assert J.check_simulate("cubic", 2.8, 3, 0.41, out.stdout) == []
    lines = out.stdout.splitlines()
    k, x, u = lines[500].split(",")
    lines[500] = ",".join([k, repr(float(x) + 1e-6), u])
    assert J.check_simulate("cubic", 2.8, 3, 0.41, "\n".join(lines))


def test_stabilize_rejects_a_wrong_min_n():
    out = J.cli(["stabilize", "--map", "logistic:r=3.9", "--period", "1", "--scheme", "dk2013"])
    assert J.check_stabilize("logistic", 3.9, 1, "dk2013", out.stdout) == []
    doc = json.loads(out.stdout)
    entry = next(e for e in doc["entries"] if e["stabilizable"])
    entry["min_N"] += 1
    assert J.check_stabilize("logistic", 3.9, 1, "dk2013", json.dumps(doc))


def test_sweep_grid_check_fails_today_and_accepts_the_exact_grid():
    N, T, lo, hi, step = J.GRID_SWEEP
    out = J.cli(["sweep", "--N", N, "--T", T, f"--mu-range={lo},{hi}", "--mu-step", step])
    problems = J.check_sweep("uniform", int(N), int(T), out.stdout, grid=(lo, hi, step))
    assert any("off the grid" in p for p in problems)
    a = O.gains("uniform", int(N))
    rows = ["mu,spectral_radius,stable"] + [
        f"{mu!r},{O.radius(a, int(T), mu)!r},{str(O.schur_stable(a, int(T), mu)).lower()}"
        for mu in O.grid_values(lo, hi, step)
    ]
    text = "\n".join(rows) + "\n"
    assert J.check_sweep("uniform", int(N), int(T), text, grid=(lo, hi, step)) == []
    flipped = text.replace("true", "false", 1)
    assert J.check_sweep("uniform", int(N), int(T), flipped, grid=(lo, hi, step))


@pytest.mark.parametrize("index", [0, 3])
def test_charpoly_and_stability_reject_a_changed_coefficient(index):
    gains, mults = [0.5, 0.3, 0.2], [-1.5, 0.9]
    out = J.cli(["charpoly", "--N", "3", "--T", "2", "--gains=0.5,0.3,0.2",
                 "--multipliers=-1.5,0.9"])
    assert J.check_charpoly(gains, mults, out.stdout) == []
    doc = json.loads(out.stdout)
    doc["coeffs"][index] += 1e-6
    assert J.check_charpoly(gains, mults, json.dumps(doc))

    out = J.cli(["stability", "--N", "3", "--T", "2", "--scheme", "uniform", "--mu=-1.35"])
    assert J.check_cli_stability("uniform", 3, 2, -1.35, out.stdout) == []
    doc = json.loads(out.stdout)
    doc["coeffs"][index] += 1e-6
    assert J.check_cli_stability("uniform", 3, 2, -1.35, json.dumps(doc))


def test_controlled_run_matches_dfclab_bit_for_bit():
    m = dfclab.parse_map("quadratic:c=-1.3")
    a = dfclab.make_gains("uniform", 2)
    target = dfclab.Cycle(1, (0.0,), (0.0,), 0.0)
    traj = dfclab.simulate(m, a, 1, [0.3, 0.3], 400, target)
    states, controls, diverged = O.controlled_run("quadratic", -1.3, a.coeffs, 1, [[0.3, 0.3]], 400)
    assert not diverged[0]
    assert list(states[0]) == list(traj.states)
    assert list(controls[0]) == list(traj.controls)


def test_every_workload_builds_and_its_warmup_is_correct():
    for workload in J.WORKLOADS:
        jobs, warmup = J.build(workload, 3)
        assert len(jobs) >= 40
        assert J.build(workload, 3)[0][0].name == jobs[0].name
        assert warmup.check(warmup.run()) == []
        faults = [j for j in jobs if j.known_fault]
        assert len(faults) == (0 if workload == "boundary" else 1)
