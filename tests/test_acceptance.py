"""Acceptance checks: one test per headline criterion.

Each test exercises the stated sizes and tolerances and prints a single
summary line; run with -s (or read captured output) to see the values.
"""

import itertools
from fractions import Fraction
from math import gcd

import numpy as np

from quadsums import (
    MollifierFamily,
    SmoothWeight,
    TorusGrid,
    diagonal_extremizer,
    diagonalize_rational,
    evaluate,
    gauss_sum_table,
    iter_field_chunks,
    major_arc_approx,
    moments,
    ones_sequence,
    parse_form_spec,
    partition_identity_check,
    QuadraticForm,
    ramanujan_sum,
    random_unit_sequence,
    scaling,
    signature,
    signature_by_charpoly,
    smoothed_sum_direct,
)

HYPER = parse_form_spec("diag:1,-1")
LINE = parse_form_spec("diag:1")


def test_criterion_01_parseval_on_grids():
    worst = 0.0
    for d in (1, 2):
        form = LINE if d == 1 else HYPER
        for N in (2, 4, 8):
            grid = moments.nyquist_grid(form, N, d, 2)
            for j in range(50):
                seq = random_unit_sequence(d, N, seed=1000 * d + 10 * N + j)
                scan = moments.scan_field(form, seq, grid, p_values=(2.0,))
                rel = abs(scan.moments[2.0] - seq.l2_norm**2) / seq.l2_norm**2
                worst = max(worst, rel)
    assert worst <= 1e-8
    print(f"criterion-01: PASS (300 sequences, worst relative defect {worst:.3e})")


def test_criterion_02_exact_oracle_matches_grid():
    worst = 0.0
    combos = ((1, 8, 4), (1, 8, 6), (2, 8, 4), (2, 4, 6))
    for d, N, p in combos:
        form = LINE if d == 1 else HYPER
        grid = moments.nyquist_grid(form, N, d, p)
        for j in range(10):
            seq = random_unit_sequence(d, N, seed=77 + 13 * j + p)
            want = moments.even_moment_exact(form, seq, p)
            scan = moments.scan_field(form, seq, grid, p_values=(float(p),))
            rel = abs(scan.moments[float(p)] - want) / want
            worst = max(worst, rel)
    assert worst <= 1e-6
    print(f"criterion-02: PASS (40 sequences, worst relative gap {worst:.3e})")


def _brute_even_moment(form, seq, p):
    h = p // 2
    r = seq.radius
    pts = []
    for idx in itertools.product(range(2 * r + 1), repeat=seq.dim):
        n = tuple(i - r for i in idx)
        a = seq.values[idx]
        if a != 0:
            pts.append((n, evaluate(form, n), a))
    buckets = {}
    for combo in itertools.product(pts, repeat=h):
        key = (
            sum(c[1] for c in combo),
            tuple(sum(c[0][i] for c in combo) for i in range(seq.dim)),
        )
        amp = 1.0 + 0.0j
        for c in combo:
            amp *= c[2]
        buckets[key] = buckets.get(key, 0.0 + 0.0j) + amp
    return sum(abs(z) ** 2 for z in buckets.values())


def test_criterion_03_extremizer_counts():
    assert moments.even_moment_exact(HYPER, diagonal_extremizer(2, 3, 1), 4) == 19.0
    for N in range(2, 33):
        got = moments.even_moment_exact(HYPER, diagonal_extremizer(2, N, 1), 4)
        assert got == (2 * N**3 + N) / 3
    for N in (2, 4, 6):
        seq = diagonal_extremizer(2, N, 1)
        assert _brute_even_moment(HYPER, seq, 4) == (2 * N**3 + N) / 3
    print("criterion-03: PASS (count 19 at N=3; formula to N=32; brute force to N=6)")


def test_criterion_04_partition_and_ramanujan():
    worst = 0.0
    for N in (16, 64, 256):
        fam = MollifierFamily(N)
        for Q in fam.dyadic_Q:
            worst = max(worst, partition_identity_check(fam, Q, samples=10**4, seed=0))
        rng = np.random.default_rng(N)
        for alpha in rng.random(200):
            lam, rho = fam.lambda_rho(float(alpha))
            worst = max(worst, abs(lam + rho - 1.0))
    assert worst <= 1e-12
    for N in (16, 32, 48, 64):
        fam = MollifierFamily(N)
        for _, a, q, Q in fam._fractions:
            for t in (-0.99, -0.5, 0.0, 0.5, 0.99):
                _, rho = fam.lambda_rho(a / q + t / (Q * N))
                assert abs(rho) <= 1e-12
    for q in range(1, 51):
        roots = np.exp(2j * np.pi * np.arange(q) / q)
        units = [a for a in range(q) if gcd(a, q) == 1]
        for n in range(-50, 51):
            direct = sum(roots[(a * n) % q] for a in units)
            assert abs(direct - ramanujan_sum(q, n)) <= 1e-9
    print(f"criterion-04: PASS (partition defect {worst:.3e}; cores exact; c_q dual)")


def test_criterion_05_gauss_square_root_bound():
    worst = 0.0
    for q in range(1, 65):
        for a in range(1, q + 1):
            if gcd(a, q) != 1:
                continue
            excess = float(np.abs(gauss_sum_table(LINE, a, q)).max()) - np.sqrt(2.0 * q)
            worst = max(worst, excess)
    assert worst <= 1e-9
    gap = abs(abs(gauss_sum_table(LINE, 1, 5)[0]) - np.sqrt(5.0))
    assert gap <= 1e-10
    print(f"criterion-05: PASS (all q<=64; worst excess {worst:.3e}; |S(1,0;5)|=sqrt 5)")


def test_criterion_06_major_arc_poisson():
    N = 32
    w = SmoothWeight(2, N)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        q = int(rng.integers(1, 5))
        a = int(rng.integers(1, q + 1))
        while gcd(a, q) != 1:
            a = int(rng.integers(1, q + 1))
        beta = float(rng.uniform(-0.9, 0.9)) / (16 * q * N)
        table = np.abs(gauss_sum_table(HYPER, a, q))
        b_star = np.unravel_index(int(np.argmax(table)), table.shape)
        theta = np.array(b_star, float) / q + rng.uniform(-1, 1, 2) / (8 * N)
        approx = major_arc_approx(HYPER, w, a, q, beta, theta, m_cut=3)
        exact = smoothed_sum_direct(HYPER, w, a / q + beta, theta)
        worst = max(worst, abs(approx.value - exact) / abs(exact))
    assert worst <= 0.05
    print(f"criterion-06: PASS (20 points, worst relative error {worst:.3e})")


def test_criterion_07_minor_arc_doubling():
    values = {}
    for N in (8, 16, 32, 64):
        w = SmoothWeight(2, N)
        fam = MollifierFamily(N)
        grid = TorusGrid(2, 2 * N * N, 4 * N + 1, (0.0, 0.0, 0.0))
        keep = fam.rho_values(grid.alphas()) > 0.0
        best = 0.0
        for start, vals in iter_field_chunks(HYPER, w, grid):
            rows = keep[start : start + vals.shape[0]]
            if np.any(rows):
                best = max(best, float(np.abs(vals[rows]).max()))
        values[N] = best / N
    for N in (16, 32, 64):
        assert values[N] <= 2.0 * values[N // 2] + 1e-9
    line = ", ".join(f"{N}:{values[N]:.3f}" for N in sorted(values))
    print(f"criterion-07: PASS (max |F|/N over rho>0: {line})")


def test_criterion_08_truncated_moment_slope():
    exp = scaling.ScalingExperiment(
        HYPER, "ones", (8, 16, 32, 64), p=6.0, C=1.0,
        grid_policy="budgeted", offsets=3, seed=0,
    )
    res = scaling.run_experiment(exp)
    assert res.failures == []
    fit = scaling.fit_experiment(res, measure="truncated", tolerance=0.75)
    assert fit.theory_slope == 2.0
    assert abs(fit.slope - 2.0) <= 0.75
    assert fit.verdict == "within-tolerance"
    print(f"criterion-08: PASS (truncated slope {fit.slope:.4f} vs theory 2.0)")


def test_criterion_09_extremizer_truncation_kills_peak():
    for N in (3, 4, 8):
        seq = diagonal_extremizer(2, N, 1)
        grid = moments.nyquist_grid(HYPER, N, 2, 4)
        threshold = 2.0 * N ** (2 / 4.0) * seq.l2_norm
        scan = moments.scan_field(
            HYPER, seq, grid, p_values=(4.0,), thresholds=((4.0, threshold),)
        )
        assert scan.truncated[(4.0, threshold)] == 0.0
        assert abs(scan.sup - N ** (2 / 4.0) * seq.l2_norm) <= 1e-9
    print("criterion-09: PASS (C=2 truncated moment is 0; sup = N^{d/4} l2 norm)")


def test_criterion_10_diagonalization_exact():
    rng = np.random.default_rng(90)
    checked = 0
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        while True:
            m = rng.integers(-5, 6, size=(dim, dim))
            m = m + m.T
            if round(float(np.linalg.det(m))) != 0:
                break
        form = QuadraticForm(m)
        diag = diagonalize_rational(form)
        pos = sum(1 for c in diag.coeffs if c > 0)
        neg = sum(1 for c in diag.coeffs if c < 0)
        sig = signature(form)
        assert (pos, neg, min(pos, neg)) == sig == signature_by_charpoly(form)
        for _ in range(10):
            v = [int(x) for x in rng.integers(-50, 51, size=dim)]
            assert diag.evaluate(v) == Fraction(evaluate(form, v))
            checked += 1
    assert checked == 1000
    print("criterion-10: PASS (100 forms, 1000 vectors, exact rational identity)")


def test_criterion_11_layer_cake():
    for seed in (0, 1):
        if seed == 0:
            seq = ones_sequence(1, 8)
        else:
            seq = random_unit_sequence(1, 8, seed=5)
        grid = moments.nyquist_grid(LINE, 8, 1, 4)
        direct = moments.scan_field(LINE, seq, grid, p_values=(4,)).moments[4]
        layered = moments.layer_cake_moment(LINE, seq, grid, 4)
        assert abs(layered - direct) <= 0.02 * direct
    print("criterion-11: PASS (layer cake within 2% of the direct moment)")
