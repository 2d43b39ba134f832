"""Acceptance suite: binding end-to-end checks with pinned tolerances.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success; failures always show the line). Tolerances are fixed here, not
calibrated at runtime.
"""

import time

import numpy as np

from dfclab.cycles import find_cycles
from dfclab.maps import eval_map, parse_map
from dfclab.polynomials import Polynomial, has_repeated_roots, poly_roots, resultant
from dfclab.simulation import simulate
from dfclab.spectrum import (
    GainVector,
    build_jacobian,
    char_poly_closed,
    char_poly_faddeev,
    jacobian_via_chain,
    morgul_char_poly,
    morgul_jacobian_product,
)
from dfclab.stability import (
    gains_dk2013,
    gains_uniform,
    spectral_radius,
    stable_mu_interval,
)
from dfclab.verify import random_simplex_gains


def report(name: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def rel_err(found: np.ndarray, expected: np.ndarray) -> float:
    # Kept apart from verify._rel_err: a fault in a shared helper would pass
    # both the verify suites and these acceptance checks.
    n = max(found.size, expected.size)
    f = np.zeros(n)
    e = np.zeros(n)
    f[: found.size] = found
    e[: expected.size] = expected
    return float(np.max(np.abs(f - e)) / max(1.0, np.max(np.abs(e))))


def test_criterion_1_closed_form_equals_matrix_route():
    # 500 seeded tuples (N <= 4, T <= 4, simplex gains, multipliers in [-3,3]):
    # trace-recursion coefficients of the explicit Jacobian match the closed
    # form with max relative error <= 1e-8, inside a 10 s budget.
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst = 0.0
    for _ in range(500):
        N = int(rng.integers(1, 5))
        T = int(rng.integers(1, 5))
        a = random_simplex_gains(rng, N)
        mus = rng.uniform(-3.0, 3.0, T)
        via_matrix = char_poly_faddeev(build_jacobian(N, T, a, mus))
        closed = char_poly_closed(N, T, a, float(np.prod(mus)))
        worst = max(worst, rel_err(via_matrix.coeffs, closed.coeffs))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed <= 10.0
    report(
        "C1 closed-form equivalence",
        ok,
        f"max rel err {worst:.3e} (tol 1e-08), {elapsed:.2f}s over 500 tuples",
    )


def test_criterion_2_seven_state_golden_pattern():
    # N=3, T=3 at 20 random draws: explicit Jacobian equals the known 7x7
    # layout elementwise <= 1e-12 and equals the chain product <= 1e-12.
    rng = np.random.default_rng(7)
    worst_pattern = worst_chain = 0.0
    for _ in range(20):
        a = random_simplex_gains(rng, 3)
        mus = rng.uniform(-3.0, 3.0, 3)
        a1, a2, a3 = a.coeffs
        m1, m2, m3 = mus
        pattern = np.array(
            [
                [0, 0, 0, 1, 0, 0, 0],
                [0, 0, 0, 0, 1, 0, 0],
                [0, 0, 0, 0, 0, 1, 0],
                [0, 0, 0, 0, 0, 0, 1],
                [a3 * m1, 0, 0, a2 * m1, 0, 0, a1 * m1],
                [a1 * a3 * m1 * m2, a3 * m2, 0, a1 * a2 * m1 * m2, a2 * m2, 0,
                 a1**2 * m1 * m2],
                [a1**2 * a3 * m1 * m2 * m3, a1 * a3 * m2 * m3, a3 * m3,
                 a1**2 * a2 * m1 * m2 * m3, a1 * a2 * m2 * m3, a2 * m3,
                 a1**3 * m1 * m2 * m3],
            ]
        )
        built = build_jacobian(3, 3, a, mus)
        chained = jacobian_via_chain(3, 3, a, mus)
        worst_pattern = max(worst_pattern, float(np.max(np.abs(built - pattern))))
        worst_chain = max(worst_chain, float(np.max(np.abs(built - chained))))
    ok = worst_pattern <= 1e-12 and worst_chain <= 1e-12
    report(
        "C2 7x7 golden pattern",
        ok,
        f"pattern dev {worst_pattern:.2e}, chain dev {worst_chain:.2e} (tol 1e-12)",
    )


def test_criterion_3_uniform_interval_minus_n_to_one():
    # N in 1..8, T=1, uniform gains: stable interval is (-N, 1) with endpoint
    # error <= 1e-4; the spectral radius at mu = -N equals 1 within 1e-9
    # (roots on the unit circle in the (N+1)-st roots-of-unity pattern).
    worst_lo = worst_hi = worst_boundary = 0.0
    for N in range(1, 9):
        g = gains_uniform(N)
        iv = stable_mu_interval(N, 1, g, scheme="uniform")
        worst_lo = max(worst_lo, abs(iv.lo - (-N)))
        worst_hi = max(worst_hi, abs(iv.hi - 1.0))
        radius = spectral_radius(char_poly_closed(N, 1, g, float(-N)))
        worst_boundary = max(worst_boundary, abs(radius - 1.0))
    ok = worst_lo <= 1e-4 and worst_hi <= 1e-4 and worst_boundary <= 1e-9
    report(
        "C3 uniform stable interval",
        ok,
        f"endpoint errs lo {worst_lo:.2e} hi {worst_hi:.2e} (tol 1e-04), "
        f"boundary radius err {worst_boundary:.2e} (tol 1e-09)",
    )


def test_criterion_4_mu_at_least_one_unstable():
    # 100 random gain vectors x mu in {1, 1.5, 3}: never Schur stable, and
    # p(1) = 1 - mu holds to 1e-12.
    rng = np.random.default_rng(4)
    worst_identity = 0.0
    all_unstable = True
    for _ in range(100):
        N = int(rng.integers(1, 7))
        T = int(rng.integers(1, 4))
        a = random_simplex_gains(rng, N)
        for mu in (1.0, 1.5, 3.0):
            p = char_poly_closed(N, T, a, mu)
            radius = spectral_radius(p)
            if radius < 1.0 - 1e-9:
                all_unstable = False
            value = complex(p(1.0)).real
            worst_identity = max(worst_identity, abs(value - (1.0 - mu)))
            if value > 1e-12:  # 1 - mu <= 0 up to evaluation noise
                all_unstable = False
    ok = all_unstable and worst_identity <= 1e-12
    report(
        "C4 mu >= 1 never stabilizable",
        ok,
        f"all unstable {all_unstable}, p(1) identity err {worst_identity:.2e} (tol 1e-12)",
    )


def test_criterion_5_single_gain_baseline():
    # T in {1,2,3}, 100 random (multipliers, K): explicit coefficients match
    # the chain-product characteristic polynomial <= 1e-10; the T=1 form is
    # exactly lambda^2 - (mu+K) lambda + K at 10 random draws.
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        T = int(rng.integers(1, 4))
        mus = rng.uniform(-3.0, 3.0, T)
        K = float(rng.uniform(-2.0, 2.0))
        explicit = morgul_char_poly(T, mus, K)
        via_matrix = char_poly_faddeev(morgul_jacobian_product(T, mus, K))
        worst = max(worst, rel_err(via_matrix.coeffs, explicit.coeffs))
    worst_t1 = 0.0
    for _ in range(10):
        mu = float(rng.uniform(-3.0, 3.0))
        K = float(rng.uniform(-2.0, 2.0))
        p = morgul_char_poly(1, [mu], K)
        expected = np.array([K, -(mu + K), 1.0])
        worst_t1 = max(worst_t1, float(np.max(np.abs(p.coeffs - expected))))
    ok = worst <= 1e-10 and worst_t1 <= 1e-12
    report(
        "C5 single-gain baseline",
        ok,
        f"matrix-route err {worst:.2e} (tol 1e-10), T=1 form err {worst_t1:.2e}",
    )


def test_criterion_6_dk2013_scheme():
    # sums to 1 within 1e-9 up to N=50; N=2 gains are (2/3, 1/3) to 1e-12;
    # for N in 2..10 the stable lower endpoint lies strictly below -N.
    worst_sum = max(
        abs(sum(gains_dk2013(N).coeffs) - 1.0) for N in range(1, 51)
    )
    pair = gains_dk2013(2).coeffs
    pair_err = max(abs(pair[0] - 2 / 3), abs(pair[1] - 1 / 3))
    margins = []
    for N in range(2, 11):
        iv = stable_mu_interval(N, 1, gains_dk2013(N), scheme="dk2013")
        margins.append(iv.lo - (-N))  # negative means strictly wider
    dominance = all(m < 0 for m in margins)
    ok = worst_sum <= 1e-9 and pair_err <= 1e-12 and dominance
    report(
        "C6 dk2013 gains",
        ok,
        f"sum err {worst_sum:.2e} (tol 1e-09), N=2 err {pair_err:.2e} (tol 1e-12), "
        f"endpoint margin below -N: min {min(margins):.3f} max {max(margins):.3f}",
    )


def test_criterion_7_end_to_end_stabilization():
    # logistic r=4 fixed point 0.75 (mu=-2, finite-difference cross-check):
    # uniform N=3 from constant history 0.3 converges to within 1e-6 in
    # <= 5000 steps with final-window max|u| <= 1e-5; N=1 does not converge.
    m = parse_map("logistic:r=4")
    target = find_cycles(m, 1, 1000)[1]
    h = 1e-6
    fd_mu = (eval_map(m, 0.75 + h) - eval_map(m, 0.75 - h)) / (2 * h)
    mu_err = abs(fd_mu - target.multiplier_product)

    traj = simulate(m, gains_uniform(3), 1, [0.3] * 3, 5000, target, tol=1e-6)
    final_err = abs(traj.states[-1] - 0.75)
    final_u = float(np.max(np.abs(traj.controls[-10:])))

    uncontrolled = simulate(m, GainVector([1.0]), 1, [0.3], 5000, target, tol=1e-6)

    ok = (
        mu_err <= 1e-6
        and traj.converged
        and final_err <= 1e-6
        and final_u <= 1e-5
        and not uncontrolled.converged
    )
    report(
        "C7 end-to-end stabilization",
        ok,
        f"mu fd-check {mu_err:.2e} (tol 1e-06), converged={traj.converged} "
        f"|x-0.75|={final_err:.2e}, final max|u|={final_u:.2e} (tol 1e-05), "
        f"uncontrolled converged={uncontrolled.converged}",
    )


def test_criterion_8_rotation_invariance():
    # 100 random multiplier triples: all three cyclic rotations give chain
    # Jacobians with identical characteristic polynomials <= 1e-8.
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        N = int(rng.integers(2, 5))
        a = random_simplex_gains(rng, N)
        mus = rng.uniform(-3.0, 3.0, 3)
        ref = char_poly_faddeev(jacobian_via_chain(N, 3, a, mus))
        for shift in (1, 2):
            rot = char_poly_faddeev(jacobian_via_chain(N, 3, a, np.roll(mus, shift)))
            worst = max(worst, rel_err(rot.coeffs, ref.coeffs))
    ok = worst <= 1e-8
    report("C8 rotation invariance", ok, f"max coeff err {worst:.3e} (tol 1e-08)")


def test_criterion_9_repeated_root_detection():
    # has_repeated_roots agrees with the root-clustering oracle (min pairwise
    # distance < 1e-5) on 500 random degree-<=10 draws; draws whose computed
    # distance falls in the ambiguous margin band around the threshold are
    # excluded. Plus the exact layout value R(x^2-1, 2x) = -4.
    rng = np.random.default_rng(9)
    scored = 0
    agreed = True
    while scored < 500:
        if rng.random() < 0.5:
            # random coefficients: generically distinct roots
            p = Polynomial(rng.normal(0, 1, int(rng.integers(3, 11)) + 1))
        else:
            # exact double root at r, kept well away from the cofactor's zeros
            while True:
                s = Polynomial(rng.normal(0, 1, int(rng.integers(1, 9)) + 1))
                r = float(rng.uniform(-1.5, 1.5))
                if abs(s(r)) >= 0.3 * np.linalg.norm(s.coeffs):
                    break
            lin = Polynomial([-r, 1.0])
            p = s * lin * lin
        if p.degree < 2:
            continue
        roots = poly_roots(p)
        dmin = min(abs(x - y) for i, x in enumerate(roots) for y in roots[i + 1 :])
        if 1e-6 < dmin < 1e-3:
            continue  # margin band around the 1e-5 threshold
        oracle = dmin < 1e-5
        if has_repeated_roots(p, tol=3e-16) != oracle:
            agreed = False
            break
        scored += 1

    exact = resultant(Polynomial([-1.0, 0.0, 1.0]), Polynomial([0.0, 2.0]))
    exact_ok = exact == -4.0
    ok = agreed and exact_ok
    report(
        "C9 repeated-root detection",
        ok,
        f"oracle agreement on {scored} draws: {agreed}, R(x^2-1, 2x) = {exact}",
    )
