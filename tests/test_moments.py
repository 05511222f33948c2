"""Moment computations: exact key-folding route vs brute force and grids."""

import functools
import itertools
import json
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from quadsums import (
    CoefficientSequence,
    QuadraticForm,
    SmoothWeight,
    TorusGrid,
    delta_sequence,
    diagonal_extremizer,
    evaluate,
    iter_field_chunks,
    ones_sequence,
    parse_form_spec,
    random_unit_sequence,
)
from quadsums import expsum, moments

HYPER = parse_form_spec("diag:1,-1")
LINE = parse_form_spec("diag:1")


def _field(form, seq, grid):
    return np.concatenate([vals for _, vals in iter_field_chunks(form, seq, grid)])


def _brute_even_moment(form, seq, p):
    # direct pairing count: bucket h-tuples of lattice points by the exact
    # integer key (sum of form values, sum of coordinates)
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
        key_r = sum(c[1] for c in combo)
        key_n = tuple(sum(c[0][i] for c in combo) for i in range(seq.dim))
        amp = 1.0 + 0.0j
        for c in combo:
            amp *= c[2]
        key = (key_r, key_n)
        buckets[key] = buckets.get(key, 0.0 + 0.0j) + amp
    return sum(abs(z) ** 2 for z in buckets.values())


def _dense_slab_moment(form, seq, p):
    # the dense fold the sparse oracle replaced: one complex slab of the whole
    # key table added per support point and level
    k = p // 2
    a_nz, coords, r_nz = moments._support(form, seq)
    if a_nz.size == 0:
        return 0.0
    span_r = int(r_nz.max()) - int(r_nz.min())
    width = 2 * seq.radius
    dr = (r_nz - int(r_nz.min())).astype(np.int64)
    w = np.ones((1,) * (seq.dim + 1), dtype=np.complex128)
    for level in range(k):
        out_shape = ((level + 1) * span_r + 1,) + ((level + 1) * width + 1,) * seq.dim
        out = np.zeros(out_shape, dtype=np.complex128)
        for t in range(a_nz.size):
            sl = (slice(dr[t], dr[t] + w.shape[0]),) + tuple(
                slice(int(coords[i][t]), int(coords[i][t]) + w.shape[1 + i])
                for i in range(seq.dim)
            )
            out[sl] += a_nz[t] * w
        w = out
    return float(np.sum(np.abs(w) ** 2))


def _random_form(rng, d):
    # a non-diagonal, nondegenerate symmetric integer matrix, entries in [-2, 2]
    while True:
        m = np.triu(rng.integers(-2, 3, size=(d, d)))
        m = m + np.triu(m, 1).T
        if not np.any(np.triu(m, 1)):
            continue
        try:
            return QuadraticForm(m.tolist())
        except ValueError:
            continue


def _random_coefficients(rng, kind, d, radius):
    shape = (2 * radius + 1,) * d
    if kind == "0/1":
        vals = (rng.random(shape) < 0.6).astype(float)
    elif kind == "uniform":
        return ones_sequence(d, radius).normalized()
    elif kind == "real":
        vals = rng.standard_normal(shape)
    else:
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return CoefficientSequence(d, radius, vals)


def test_sparse_fold_matches_dense_reference_and_brute_force():
    rng = np.random.default_rng(2024)
    forms = [parse_form_spec("mat:2:0,1,1,0"), parse_form_spec("diag:1,1,-1")]
    forms += [_random_form(rng, 2) for _ in range(2)] + [_random_form(rng, 3)]
    for form in forms:
        for radius in (1, 2) if form.dim == 2 else (1,):
            for kind in ("0/1", "uniform", "real", "complex"):
                seq = _random_coefficients(rng, kind, form.dim, radius)
                for p in (2, 4, 6):
                    got = moments.even_moment_exact(form, seq, p)
                    want = _dense_slab_moment(form, seq, p)
                    case = (form.matrix, radius, kind, p, got, want)
                    if kind == "0/1":
                        assert got == want, case
                    else:
                        assert abs(got - want) <= 1e-12 * abs(want), case
                    if radius == 1:
                        brute = _brute_even_moment(form, seq, p)
                        if kind == "0/1":
                            assert got == brute, case
                        else:
                            assert abs(got - brute) <= 1e-12 * abs(brute), case


def test_sparse_fold_drops_a_bucket_cancelled_to_zero():
    # on R = x^2 - y^2 the points (0,0), (1,1), (2,2) all have R = 0, and the
    # pairs (0,0)+(2,2) and (1,1)+(1,1) share a key: its weight
    # 2 * 1 * 0.5 + (1j)^2 is exactly 0
    vals = np.zeros((5, 5), dtype=complex)
    vals[2, 2], vals[3, 3], vals[4, 4] = 1.0, 1j, 0.5
    seq = CoefficientSequence(2, 2, vals)
    a, coords, _ = moments._support(HYPER, seq)
    keys = coords[0] * 9 + coords[1]  # R digit 0; coordinate radix 2*2*2+1
    level1 = moments._fold(np.zeros(1, np.int64), np.ones(1, complex), keys, a)
    level2 = moments._fold(*level1, keys, a)
    # five pair sums, the shared one cancelled and dropped
    assert level2[0].tolist() == [40, 50, 70, 80]
    assert np.all(level2[1] != 0)
    for p in (4, 6):
        got = moments.even_moment_exact(HYPER, seq, p)
        assert abs(got - _brute_even_moment(HYPER, seq, p)) <= 1e-12 * got
        assert abs(got - _dense_slab_moment(HYPER, seq, p)) <= 1e-12 * got


def test_extremizer_moment_small():
    seq = diagonal_extremizer(2, 3, 1)
    assert _brute_even_moment(HYPER, seq, 4) == 19.0
    assert moments.even_moment_exact(HYPER, seq, 4) == 19.0


def test_extremizer_moment_formula():
    # brute force validates the closed form at small N, the fast route at all N
    for N in (2, 4, 6):
        seq = diagonal_extremizer(2, N, 1)
        want = (2 * N**3 + N) / 3
        assert _brute_even_moment(HYPER, seq, 4) == want
        assert moments.even_moment_exact(HYPER, seq, 4) == want
    for N in (8, 12, 16, 24, 32):
        seq = diagonal_extremizer(2, N, 1)
        assert moments.even_moment_exact(HYPER, seq, 4) == (2 * N**3 + N) / 3


def test_even_moment_against_brute_force():
    assert moments.even_moment_exact(LINE, ones_sequence(1, 1), 4) == 15.0
    cases = [
        (LINE, 1, 4, 4),
        (LINE, 1, 3, 6),
        (HYPER, 2, 2, 4),
        (parse_form_spec("mat:2:0,1,1,0"), 2, 2, 4),
    ]
    for form, d, N, p in cases:
        seq = random_unit_sequence(d, N, seed=100 + N + p)
        want = _brute_even_moment(form, seq, p)
        got = moments.even_moment_exact(form, seq, p)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_even_moment_parseval():
    for d, N in ((1, 4), (2, 3)):
        form = LINE if d == 1 else HYPER
        seq = random_unit_sequence(d, N, seed=d)
        assert abs(moments.even_moment_exact(form, seq, 2) - seq.l2_norm**2) <= 1e-12


def test_delta_moment_is_one():
    seq = delta_sequence(2, 4)
    for p in (2, 4, 6, 8):
        assert moments.even_moment_exact(HYPER, seq, p) == 1.0


def test_even_moment_budget():
    # ones on [-2, 2] under R = n^2 at p = 4: a (2*4+1) x (2*4+1) key table
    seq = ones_sequence(1, 2)
    want = _brute_even_moment(LINE, seq, 4)
    assert moments.even_moment_exact(LINE, seq, 4, max_entries=81) == want
    with pytest.raises(ValueError, match="use the grid method"):
        moments.even_moment_exact(LINE, seq, 4, max_entries=80)
    # coefficients without product structure fold the whole d-dim key table
    with pytest.raises(ValueError, match="use the grid method"):
        moments.even_moment_exact(HYPER, random_unit_sequence(2, 64, seed=3), 8)
    # the factorized path caps each axis table: ones on [-3, 3] at p = 4 has
    # (2 * 6 + 1) sums of n(n-1)/2 by (2 * 6 + 1) sums of n
    seq = ones_sequence(2, 3)
    want = _brute_even_moment(HYPER, seq, 4)
    assert moments.even_moment_exact(HYPER, seq, 4, max_entries=169) == want
    with pytest.raises(ValueError, match="use the grid method"):
        moments.even_moment_exact(HYPER, seq, 4, max_entries=168)


def test_counting_path_overflow_guards(monkeypatch):
    keys = np.array([0, 1], dtype=np.int64)
    below = moments._fold(keys, np.array([2.0**52, 2.0**52 - 1]), keys, None)
    assert below[1].tolist() == [2.0**52, 2.0**53 - 1, 2.0**52 - 1]
    with pytest.raises(ArithmeticError, match="float64"):
        moments._fold(keys, np.array([2.0**52, 2.0**52]), keys, None)
    # counts each below 2^53 whose squares sum past int64
    monkeypatch.setattr(
        moments, "_fold", lambda *args: (np.arange(4), np.full(4, 2.0**31))
    )
    with pytest.raises(ArithmeticError, match="int64"):
        moments.even_moment_exact(LINE, ones_sequence(1, 1), 4)


def test_even_moment_rejects_odd_p():
    with pytest.raises(ValueError):
        moments.even_moment_exact(LINE, ones_sequence(1, 2), 3)


def test_representation_count():
    seq = diagonal_extremizer(2, 3, 1)
    rep = moments.representation_count(HYPER, seq, 4)
    assert rep.p_half == 2
    assert rep.count == 19
    assert rep.weighted is False
    rnd = moments.representation_count(HYPER, random_unit_sequence(2, 2, seed=1), 2)
    assert rnd.weighted is True
    rnd4 = moments.representation_count(HYPER, random_unit_sequence(2, 2, seed=1), 4)
    assert rnd4.count == _brute_even_moment(HYPER, ones_sequence(2, 2), 4)


def test_representation_count_refuses_past_exact_floats(monkeypatch):
    # the count is read off a float64 moment: exact below 2^53, refused at it
    seq = ones_sequence(2, 2)
    monkeypatch.setattr(moments, "even_moment_exact", lambda form, seq, p: 2.0**53 - 1)
    rep = moments.representation_count(HYPER, seq, 4)
    assert type(rep.count) is int and rep.count == 2**53 - 1
    monkeypatch.setattr(moments, "even_moment_exact", lambda form, seq, p: 2.0**53)
    with pytest.raises(ArithmeticError, match="past the exact float64 range"):
        moments.representation_count(HYPER, seq, 4)


def test_representation_count_keeps_the_product_structure(monkeypatch):
    seen = []
    exact = moments.even_moment_exact

    def spy(form, seq, p):
        seen.append(seq.factors is not None)
        return exact(form, seq, p)

    monkeypatch.setattr(moments, "even_moment_exact", spy)
    cases = [
        (HYPER, ones_sequence(2, 8), 4),
        (parse_form_spec("diag:1,1,-1"), ones_sequence(3, 3), 4),
        (HYPER, SmoothWeight(2, 3), 4),
        (HYPER, delta_sequence(2, 3).normalized(), 6),
    ]
    for form, seq, p in cases:
        rep = moments.representation_count(form, seq, p)
        flat = _without_factors((seq.values != 0).astype(float))
        assert rep.count == exact(form, flat, p)
    assert seen == [True] * len(cases)
    # factors whose product underflows: the indicator of the stored values
    tiny = np.full(5, 1e-200)
    seq = CoefficientSequence(2, 2, np.multiply.outer(tiny, tiny), factors=(tiny, tiny))
    assert moments.representation_count(HYPER, seq, 4).count == 0
    assert moments.even_moment_exact(HYPER, seq, 4) == 0.0


# R = 2 x0 x1 + x2^2: blocks {0, 1} and {2}
BLOCK3 = parse_form_spec("mat:3:0,1,0,1,0,0,0,0,1")
# a block with diagonal entries (x0^2 + 2 x0 x1 - x1^2 + 2 x2^2), and two
# 2-axis blocks with h = 1 and h = 3
BLOCK_FORMS = (
    BLOCK3,
    parse_form_spec("mat:3:1,1,0,1,-1,0,0,0,2"),
    parse_form_spec("mat:4:0,1,0,0,1,0,0,0,0,0,0,3,0,0,3,0"),
)


def _without_factors(values):
    values = np.asarray(values)
    return CoefficientSequence(values.ndim, (values.shape[0] - 1) // 2, values)


def _product(*factors):
    return CoefficientSequence(
        len(factors), (len(factors[0]) - 1) // 2,
        functools.reduce(np.multiply.outer, factors), factors=factors,
    )


def test_factorized_count_matches_sparse_fold():
    forms = [parse_form_spec(s) for s in ("diag:1,-1", "diag:2,-3", "diag:1,1,-1")]
    forms += BLOCK_FORMS[:2]
    for form in forms:
        d = form.dim
        for N in (1, 2, 3) if d == 2 else (1, 2):
            seqs = (ones_sequence(d, N), ones_sequence(d, N).normalized(),
                    delta_sequence(d, N))
            for seq in seqs:
                assert moments._product_supports(form, seq) is not None
                flat = _without_factors(seq.values)
                assert moments._product_supports(form, flat) is None
                for p in (2, 4, 6):
                    got = moments.even_moment_exact(form, seq, p)
                    assert got == moments.even_moment_exact(form, flat, p)
                    if seq is seqs[0] and (d == 2 or N == 1 or p < 6):
                        assert got == _brute_even_moment(form, seq, p)


def test_factorized_count_on_gapped_asymmetric_factors():
    # supports {-2, 0, 1}, {-1, 2} and {2}, with dyadic constants, so the
    # brute-force bucket sums are exact too
    f1 = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    f2 = np.array([0.0, 0.5, 0.0, 0.0, 0.5])
    f3 = np.array([0.0, 0.0, 0.0, 0.0, -0.25j])
    cases = [
        ("diag:1,-1", (f1, f2)),
        ("diag:2,-3", (f2, f1)),
        ("diag:1,1", (f1, f1)),
        ("diag:1,1,-1", (f1, f2, f3)),
        ("diag:1,-2,1,-1", (f1, f2, f1, f2)),
        ("mat:3:0,1,0,1,0,0,0,0,1", (f1, f2, f3)),
        ("mat:3:1,1,0,1,-1,0,0,0,2", (f2, f1, f1)),
        ("mat:4:0,1,0,0,1,0,0,0,0,0,0,3,0,0,3,0", (f1, f2, f2, f1)),
    ]
    for spec, factors in cases:
        form = parse_form_spec(spec)
        seq = _product(*factors)
        assert moments._product_supports(form, seq) is not None
        for p in (2, 4, 6):
            if form.dim == 4 and p == 6:
                continue
            got = moments.even_moment_exact(form, seq, p)
            assert got == moments.even_moment_exact(form, _without_factors(seq.values), p)
            assert got == _brute_even_moment(form, seq, p)


def test_block_count_past_the_sparse_fold():
    # equal to the sparse fold at p = 4; at p = 6 the d-dim key table has
    # 1.1e8 entries, over the default budget, while the block tables have
    # 385 x 2401 and 193 x 49, and the count matches the Nyquist grid
    seq = ones_sequence(3, 8)
    want = moments.even_moment_exact(BLOCK3, _without_factors(seq.values), 4)
    assert moments.even_moment_exact(BLOCK3, seq, 4) == want
    with pytest.raises(ValueError, match="use the grid method"):
        moments.even_moment_exact(BLOCK3, _without_factors(seq.values), 6)
    start = time.perf_counter()
    got = moments.even_moment_exact(BLOCK3, seq, 6)
    assert time.perf_counter() - start < 1.0
    assert got == 3_429_885_351_737_825
    grid = moments.nyquist_grid(BLOCK3, 8, 3, 6)
    scanned = moments.scan_field(BLOCK3, seq, grid, p_values=(6,)).moments[6]
    assert abs(scanned - got) <= 1e-12 * got


def test_one_table_per_distinct_block(monkeypatch):
    built = []
    pair_counts = moments._pair_counts

    def counted(points, u, k, max_entries):
        built.append(len(points))
        return pair_counts(points, u, k, max_entries)

    monkeypatch.setattr(moments, "_pair_counts", counted)
    # diag:2,-3 has u = n(n-1)/2 on both axes, and the 4-dim form u = x0 x1
    # on both blocks
    cases = [(HYPER, [1]), (parse_form_spec("diag:1,1,-1"), [1]),
             (parse_form_spec("diag:2,-3"), [1]), (BLOCK3, [2, 1]),
             (BLOCK_FORMS[1], [2, 1]), (BLOCK_FORMS[2], [2])]
    for form, want in cases:
        built.clear()
        moments.even_moment_exact(form, ones_sequence(form.dim, 3), 4)
        assert built == want


def test_programming_errors_in_the_block_count_propagate(monkeypatch):
    def broken(*args):
        raise TypeError("broken pair counts")

    monkeypatch.setattr(moments, "_pair_counts", broken)
    seq = ones_sequence(3, 1)
    grid = moments.nyquist_grid(BLOCK3, 1, 3, 4)
    with pytest.raises(TypeError, match="broken pair counts"):
        moments.build_report(BLOCK3, seq, [grid], 4.0)


def test_factorized_path_leaves_other_inputs_on_the_sparse_fold():
    assert moments._product_supports(LINE, ones_sequence(1, 3)) is None
    assert moments._product_supports(HYPER, SmoothWeight(2, 2)) is None
    assert moments._product_supports(HYPER, random_unit_sequence(2, 2, seed=0)) is None
    assert moments._product_supports(HYPER, diagonal_extremizer(2, 3, 1)) is None
    twisted = parse_form_spec("mat:2:0,1,1,0")
    assert moments._product_supports(twisted, ones_sequence(2, 2)) is None


def test_factorized_count_pinned_values():
    # diag:1,-1, ones, p = 6; the N = 64 count is past 2^53, so the moment
    # (a float) is count rounded once
    for N, want in ((32, 349_902_832_774_801), (64, 84_054_828_864_123_729)):
        seq = ones_sequence(2, N)
        supports, c = moments._product_supports(HYPER, seq)
        assert moments._product_count(HYPER, supports, 3, 2**26) == want
        assert moments.even_moment_exact(HYPER, seq, 6) == float(want)
    seq = ones_sequence(2, 32).normalized()
    c = seq.values[0, 0]
    abs_c2 = Fraction(float(c.real)) ** 2 + Fraction(float(c.imag)) ** 2
    want = float(349_902_832_774_801 * abs_c2**3)
    assert moments.even_moment_exact(HYPER, seq, 6) == want


def test_factorized_count_float_bound(monkeypatch):
    seq = ones_sequence(2, 2)
    grid = moments.nyquist_grid(HYPER, 2, 2, 4)
    good = moments.build_report(HYPER, seq, [grid], 4.0)
    assert good.oracle_full == _brute_even_moment(HYPER, seq, 4)
    monkeypatch.setattr(moments, "_FFT_ERROR", 2.0**60)
    with pytest.raises(ArithmeticError, match="exact FFT range"):
        moments.even_moment_exact(HYPER, seq, 4)
    # build_report keeps the grid mean when the oracle cannot be exact
    rep = moments.build_report(HYPER, seq, [grid], 4.0)
    assert rep.oracle_full is None and rep.full_moment == rep.grid_full


def test_factorized_refusal_skips_the_last_fold(monkeypatch):
    # diag:1,-1 ones at p = 8, N = 128: the axis table is 33,025 x 1,025
    # (a 258 MiB dense accumulator at the last fold), and the float error
    # model at |S|^2 sum W_3^2 is past 1/4, so the call refuses after three
    # of the four folds
    seq = ones_sequence(2, 128)
    folds = []
    fold = moments._fold

    def counted(*args):
        folds.append(args[0].size)
        return fold(*args)

    monkeypatch.setattr(moments, "_fold", counted)
    tracemalloc.start()
    try:
        with pytest.raises(ArithmeticError, match="exact FFT range"):
            moments.even_moment_exact(HYPER, seq, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(folds) == 3
    assert peak < 8 * 33_025 * 1_025
    start = time.perf_counter()
    with pytest.raises(ArithmeticError, match="exact FFT range"):
        moments.even_moment_exact(HYPER, seq, 8)
    assert time.perf_counter() - start < 2.5


def test_factorized_count_checksum(monkeypatch):
    # a pair count off by one integer leaves no residual; the exact sum of C
    # over all lags catches it
    seq = ones_sequence(2, 3)
    irfft = np.fft.irfft

    def off_by_one(power, n_fft):
        corr = irfft(power, n_fft)
        corr[1] += 1.0
        return corr

    monkeypatch.setattr(np.fft, "irfft", off_by_one)
    with pytest.raises(ArithmeticError, match="checksum"):
        moments.even_moment_exact(HYPER, seq, 4)


def test_factorized_count_residual_guard(monkeypatch):
    # a pair count a third off at every lag still rounds to the right
    # integers and passes the checksum; only the residual guard sees it
    seq = ones_sequence(2, 3)
    irfft = np.fft.irfft

    def off_by_a_third(power, n_fft):
        return irfft(power, n_fft) + 0.3

    monkeypatch.setattr(np.fft, "irfft", off_by_a_third)
    with pytest.raises(ArithmeticError, match="residual"):
        moments.even_moment_exact(HYPER, seq, 4)


def test_exact_convolve_int64_and_python_ints():
    rng = np.random.default_rng(5)
    for hi in (2**20, 2**40, 2**62):
        x = rng.integers(0, hi, size=37, dtype=np.int64)
        y = rng.integers(0, hi, size=23, dtype=np.int64)
        want = [
            sum(int(x[i]) * int(y[n - i]) for i in range(x.size) if 0 <= n - i < y.size)
            for n in range(x.size + y.size - 1)
        ]
        got = moments._exact_convolve(x, y)
        assert got.dtype == (np.int64 if hi == 2**20 else object)
        assert got.tolist() == want
        # Python-int operands past int64 are convolved as Python ints too
        big = x.astype(object) << 70
        assert moments._exact_convolve(big, y).tolist() == [w << 70 for w in want]


def test_factorized_oracle_memory():
    # the axis table at N = 64, p = 6 has 6241 x 385 entries; its dense fold
    # level and the FFT blocks stay well below the d-dim table's 2.2e8
    seq = ones_sequence(2, 64).normalized()
    tracemalloc.start()
    try:
        got = moments.even_moment_exact(HYPER, seq, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got > 0.0
    assert peak < 64 * 2**20


def test_nyquist_sizes_and_sufficiency():
    assert moments.nyquist_sizes(LINE, 4, 4) == (33, 17)
    assert moments.nyquist_sizes(HYPER, 2, 4) == (17, 9)
    sizes = moments.nyquist_sizes(HYPER, 4, 4.0)
    assert sizes == (65, 17) and all(type(v) is int for v in sizes)
    grid = moments.nyquist_grid(LINE, 4, 1, 4)
    assert grid.offset == (0.0, 0.0)
    assert moments.nyquist_sufficient(grid, LINE, 4, 4)
    assert not moments.nyquist_sufficient(grid, LINE, 4, 6)
    assert not moments.nyquist_sufficient(grid, LINE, 4, 3)
    # one point below the bounds (p/2) * 16 + 1 and p * 4 + 1
    assert not moments.nyquist_sufficient(TorusGrid(1, 32, 17, (0.0, 0.0)), LINE, 4, 4)
    assert not moments.nyquist_sufficient(TorusGrid(1, 33, 16, (0.0, 0.0)), LINE, 4, 4)


def test_nyquist_sizes_are_tight():
    # exact at the sizes, and inexact one alpha point or one theta point below
    for spec, r in (("diag:1,-1", 3), ("mat:2:0,1,1,0", 3), ("diag:1,1,-1", 2)):
        form = parse_form_spec(spec)
        d = form.dim
        seq = random_unit_sequence(d, r, seed=11)
        for p in (4, 6):
            m_alpha, m_theta = moments.nyquist_sizes(form, r, p)
            assert m_theta == p * r + 1
            want = moments.even_moment_exact(form, seq, p)

            def gap(m_a, m_t):
                grid = TorusGrid(d, m_a, m_t, (0.0,) * (d + 1))
                got = moments.scan_field(form, seq, grid, p_values=(p,)).moments[p]
                return abs(got - want) / want

            assert gap(m_alpha, m_theta) <= 1e-12
            assert gap(m_alpha, m_theta - 1) > 1e-9
            # for odd p/2 the alpha frequency (p/2) span(R) pairs only with
            # nonzero theta frequencies (an odd count of extreme coordinates
            # cannot sum to zero), so one alpha point fewer is still exact
            # at p = 6 and the alpha check runs at p = 4 only
            if p == 4:
                assert gap(m_alpha - 1, m_theta) > 1e-9


def test_smooth_weight_report_sizes_by_radius():
    # a SmoothWeight's N is not its radius 2N-1: sizes from N are not exact
    form = HYPER
    weight = SmoothWeight(2, 2)
    for p in (4, 6):
        rep = moments.build_report(
            form, weight, [moments.nyquist_grid(form, weight.radius, 2, p)], p
        )
        assert rep.exact is True and rep.N == 2
        assert abs(rep.grid_full - rep.oracle_full) <= 1e-12 * rep.oracle_full
        short = moments.nyquist_grid(form, weight.N, 2, p)
        assert moments.build_report(form, weight, [short], p).exact is False


def test_grid_moment_matches_exact():
    for form, d, N, p in ((LINE, 1, 4, 4), (HYPER, 2, 2, 4), (LINE, 1, 3, 6)):
        seq = random_unit_sequence(d, N, seed=7 * N + p)
        grid = moments.nyquist_grid(form, N, d, p)
        got = moments.scan_field(form, seq, grid, p_values=(p,)).moments[p]
        want = moments.even_moment_exact(form, seq, p)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


def _random_cross_forms(d, count, rng):
    """Nondegenerate symmetric integer forms, entries in [-2, 2], each with a
    nonzero off-diagonal entry."""
    forms = []
    while len(forms) < count:
        m = np.triu(rng.integers(-2, 3, size=(d, d)))
        m = m + np.triu(m, 1).T
        if not np.any(np.triu(m, 1)):
            continue
        try:
            forms.append(QuadraticForm(m.tolist()))
        except ValueError:  # determinant zero
            continue
    return forms


def test_grid_moment_matches_exact_on_cross_forms():
    # non-diagonal forms in d = 2 and d = 3: the grid's p = 4 moment against
    # the exact count, and p = 2 against Parseval
    rng = np.random.default_rng(1901)
    for d, r in ((2, 2), (3, 1)):
        for k, form in enumerate(_random_cross_forms(d, 3, rng)):
            seq = random_unit_sequence(d, r, seed=100 * d + k)
            scan = moments.scan_field(
                form, seq, moments.nyquist_grid(form, r, d, 4), p_values=(2.0, 4.0)
            )
            want = moments.even_moment_exact(form, seq, 4)
            assert abs(scan.moments[4.0] - want) <= 1e-9 * want, form.matrix
            norm2 = seq.l2_norm**2
            assert abs(scan.moments[2.0] - norm2) <= 1e-9 * norm2, form.matrix


def test_truncated_moment_monotone_in_C():
    seq = ones_sequence(1, 4)
    grid = moments.nyquist_grid(LINE, 4, 1, 4)
    # threshold C * N^{d/4} * ||a||_2 at N = 4, d = 1
    thr = {C: C * 4.0 ** 0.25 * seq.l2_norm for C in (0.5, 1.0, 2.0, 1e-12, 100.0)}
    scan = moments.scan_field(
        LINE, seq, grid, p_values=(4,), thresholds=[(4, t) for t in thr.values()]
    )
    full = scan.moments[4]
    trunc = {C: scan.truncated[(4.0, t)] for C, t in thr.items()}
    prev = None
    for C in (0.5, 1.0, 2.0):
        t = trunc[C]
        assert 0.0 <= t <= full + 1e-9
        if prev is not None:
            assert t <= prev + 1e-12
        prev = t
    # tiny C keeps everything, huge C removes everything
    assert abs(trunc[1e-12] - full) <= 1e-6
    assert trunc[100.0] == 0.0
    with pytest.raises(ValueError):
        moments.build_report(LINE, seq, [grid], 4, C=0.0)
    with pytest.raises(ValueError):
        moments.build_report(LINE, seq, [grid], 4, C=-1.0)
    for C in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="C must be finite"):
            moments.build_report(LINE, seq, [grid], 4, C=C)
    with pytest.raises(ValueError, match="threshold must be finite"):
        moments.scan_field(LINE, seq, grid, thresholds=[(4, float("nan"))])


def test_level_set_measures():
    seq = ones_sequence(1, 4)
    grid = moments.nyquist_grid(LINE, 4, 1, 4)
    mags = np.abs(_field(LINE, seq, grid)).ravel()
    sup = float(mags.max())
    ends = moments.scan_field(LINE, seq, grid, p_values=(), lambdas=(0.0, sup + 1e-9))
    assert [m for _, m in ends.levels] == [1.0, 0.0]
    lams = list(np.linspace(0.0, sup * 1.05, 12))
    prof = moments.scan_field(LINE, seq, grid, p_values=(), lambdas=lams).levels
    meas = [m for _, m in prof]
    assert meas[0] == 1.0 and meas[-1] == 0.0
    assert all(b <= a + 1e-15 for a, b in zip(meas, meas[1:]))
    for lam, m in prof:
        assert m == np.count_nonzero(mags >= lam) / mags.size
    with pytest.raises(ValueError):
        moments.scan_field(LINE, seq, grid, p_values=(), lambdas=(0.5, -0.2))
    # a NaN rung would leave the ladder unsorted and miscount every level
    for bad in ((81.0, float("nan"), 27.0, 0.0), (0.5, float("inf"))):
        with pytest.raises(ValueError, match="lambda must be finite"):
            moments.scan_field(LINE, seq, grid, p_values=(), lambdas=bad)


def test_level_set_flat_field():
    grid = TorusGrid(2, 4, 7, (0.1,) * 3)
    scan = moments.scan_field(
        HYPER, delta_sequence(2, 3), grid, p_values=(), lambdas=(0.5, 1.5)
    )
    assert scan.levels == [(0.5, 1.0), (1.5, 0.0)]


def test_layer_cake_agrees_with_direct_moment():
    seq = random_unit_sequence(1, 4, seed=3)
    grid = moments.nyquist_grid(LINE, 4, 1, 4)
    direct = moments.scan_field(LINE, seq, grid, p_values=(4,)).moments[4]
    layered = moments.layer_cake_moment(LINE, seq, grid, 4)
    assert abs(layered - direct) <= 0.02 * direct
    # the left Riemann sum needs lam^(p-1) finite at lam = 0
    grid = TorusGrid(1, 40, 17, (0, 0))
    for bad in (0.5, 0, -1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="p must"):
            moments.layer_cake_moment(LINE, ones_sequence(1, 4), grid, bad)


def test_scan_field_matches_materialized_field():
    rng = np.random.default_rng(71)
    seq = random_unit_sequence(2, 3, seed=9)
    grid = TorusGrid.random_offset(2, 11, 13, rng)
    mags = np.abs(_field(HYPER, seq, grid))
    sup = float(mags.max())
    thr = 0.5 * sup
    lams = (0.0, 0.3 * sup, 0.9 * sup)
    scan = moments.scan_field(
        HYPER, seq, grid, p_values=(2.0, 4.0), thresholds=((4.0, thr),), lambdas=lams
    )
    assert abs(scan.sup - sup) <= 1e-12
    for p in (2.0, 4.0):
        want = float(np.sum(moments._pow(mags.ravel(), p))) * grid.cell_measure
        assert abs(scan.moments[p] - want) <= 1e-12
    want_t = float((mags[mags >= thr] ** 4).sum()) * grid.cell_measure
    assert abs(scan.truncated[(4.0, thr)] - want_t) <= 1e-12
    for lam, m in scan.levels:
        assert m == np.count_nonzero(mags >= lam) / mags.size


def test_scan_field_keeps_cells_at_the_threshold():
    # levels and truncated moments count cells with |F| equal to lambda
    rng = np.random.default_rng(71)
    seq = random_unit_sequence(2, 3, seed=9)
    grid = TorusGrid.random_offset(2, 11, 13, rng)
    mags = np.abs(_field(HYPER, seq, grid)).ravel()
    picks = np.sort(mags)[[0, 500, -1]]  # attained values, the sup included
    scan = moments.scan_field(
        HYPER, seq, grid, p_values=(), thresholds=[(2, t) for t in picks],
        lambdas=picks,
    )
    for lam, m in scan.levels:
        assert m == np.count_nonzero(mags >= lam) / mags.size
    assert scan.levels[-1][1] > 0.0
    for t in picks:
        want = float(np.sum(mags[mags >= t] ** 2)) * grid.cell_measure
        assert scan.truncated[(2.0, float(t))] == pytest.approx(want, rel=1e-12)


def test_scan_field_blocked_at_scale():
    # grids of two engine chunks and many scan blocks, on both engine
    # branches: sup and level counts equal those of np.abs over the field
    rng = np.random.default_rng(8)
    cases = (
        (HYPER, ones_sequence(2, 4), TorusGrid(2, 2000, 33, (0.0,) * 3)),
        (
            parse_form_spec("mat:2:0,1,1,0"),
            random_unit_sequence(2, 4, seed=5),
            TorusGrid.random_offset(2, 2000, 33, rng),
        ),
    )
    for form, seq, grid in cases:
        chunks = [np.abs(v).ravel() for _, v in iter_field_chunks(form, seq, grid)]
        assert len(chunks) >= 2
        mags = np.concatenate(chunks)
        assert mags.size >= 3 * moments._SCAN_BLOCK
        srt = np.sort(mags)
        t_att = float(srt[9 * mags.size // 10])
        lams = (0.0, 0.5 * t_att, float(srt[mags.size // 2]), t_att, float(srt[-1]))
        # a threshold <= 0 keeps every cell; without it only the tail is read
        for thrs in (((6.0, 0.0), (2.0, t_att)), ((6.0, t_att),)):
            scan = moments.scan_field(
                form, seq, grid, p_values=(2.0, 3.0, 6.0), thresholds=thrs,
                lambdas=lams,
            )
            assert scan.sup == srt[-1]
            for lam, m in scan.levels:
                assert m == np.count_nonzero(mags >= lam) / mags.size
            for p in (2.0, 3.0, 6.0):
                want = float(np.sum(mags**p)) * grid.cell_measure
                assert scan.moments[p] == pytest.approx(want, rel=1e-13)
            for p, t in thrs:
                want = float(np.sum(mags[mags >= t] ** p)) * grid.cell_measure
                assert scan.truncated[(p, t)] == pytest.approx(want, rel=1e-13)
    # |F| attains 27 at 18 cells of this grid (alpha = 1/3), where the
    # computed values straddle 27 by an ulp; the blocked scan counts exactly
    # those of np.abs
    grid = TorusGrid(2, 513, 33, (0.0, 0.0, 0.0))
    mags = np.abs(_field(HYPER, ones_sequence(2, 4), grid))
    scan = moments.scan_field(
        HYPER, ones_sequence(2, 4), grid, p_values=(), lambdas=(27.0,)
    )
    assert scan.levels == [(27.0, np.count_nonzero(mags >= 27.0) / mags.size)]


def test_level_set_scaling_proxy():
    # |{|F| > lambda}| * lambda^q * N^{-1/2} at lambda = 1.5 sqrt(N), q = 4.5
    # stays within a factor 4 across doublings; frozen regression check
    vals = []
    for N in (8, 16, 32):
        seq = ones_sequence(2, N).normalized()
        grid = TorusGrid(2, 2 * N * N, 4 * N + 2, (0.0, 0.0, 0.0))
        lam = 1.5 * N**0.5
        scan = moments.scan_field(HYPER, seq, grid, p_values=(), lambdas=(lam,))
        vals.append(scan.levels[0][1] * lam**4.5 * N**-0.5)
    assert max(vals) <= 4.0 * min(vals)


def test_moment_report_round_trip():
    seq = ones_sequence(1, 4)
    grid = moments.nyquist_grid(LINE, 4, 1, 4)
    rep = moments.build_report(LINE, seq, [grid], 4.0, C=1.0)
    d = rep.json_dict()
    assert sorted(d.keys()) == [
        "C", "N", "exact", "form", "full", "grid", "levels", "p", "truncated",
    ]
    assert d["N"] == 4 and d["exact"] is True
    assert d["grid"]["m_alpha"] == 33 and d["grid"]["cells"] == 561
    assert rep.oracle_full == 153.0
    assert abs(d["full"] - 153.0) <= 1e-6
    parsed = json.loads(rep.to_json())
    assert parsed["N"] == 4
    header = moments.report_csv_header()
    row = moments.report_csv_row(rep)
    assert header.split(",") == moments._CSV_FIELDS
    assert len(row.split(",")) == len(moments._CSV_FIELDS)
    assert rep.to_json() == moments.build_report(
        LINE, seq, [grid], 4.0, C=1.0
    ).to_json()


def test_report_over_two_grids_averages_single_grid_reports():
    rng = np.random.default_rng(5)
    seq = random_unit_sequence(2, 3, seed=4)
    grids = [TorusGrid.random_offset(2, 23, 9, rng) for _ in range(2)]
    lams = (0.5, 1.0, 2.0)
    one = [moments.build_report(HYPER, seq, [g], 6.0, lambdas=lams) for g in grids]
    both = moments.build_report(HYPER, seq, grids, 6.0, lambdas=lams)
    assert all(r.spread == 0.0 for r in one)
    fulls = [r.grid_full for r in one]
    truncs = [r.truncated_moment for r in one]
    assert both.grid_full == float(np.mean(fulls))
    assert both.truncated_moment == float(np.mean(truncs))
    assert both.sup == max(r.sup for r in one)
    for k, (lam, meas) in enumerate(both.levels):
        assert lam == lams[k]
        assert meas == (one[0].levels[k][1] + one[1].levels[k][1]) / 2
    assert both.spread == max(
        (max(v) - min(v)) / max(abs(x) for x in v) for v in (fulls, truncs)
    )
    assert both.spread > 0.0
    assert both.oracle_full == one[0].oracle_full
    assert both.full_moment == both.oracle_full
    assert both.grid_info == one[0].grid_info


def _every_cell_report(monkeypatch, *args, **kwargs):
    # build_report with every grid scanned cell by cell, as scan_field does
    # for a source without factors
    with monkeypatch.context() as m:
        m.setattr(moments, "_scan_rows", moments._scan_cells)
        return moments.build_report(*args, **kwargs)


def _assert_same_report(got, want):
    assert got.sup == want.sup
    assert got.levels == want.levels
    assert got.exact == want.exact
    assert got.oracle_full == want.oracle_full
    assert got.grid_info == want.grid_info
    assert got.grid_full == pytest.approx(want.grid_full, rel=1e-13)
    assert got.truncated_moment == pytest.approx(want.truncated_moment, rel=1e-13)
    assert got.spread == pytest.approx(want.spread, abs=1e-13)


# factored sources on forms of two or more blocks: each takes the row path
_FACTORED_CASES = [
    (HYPER, ones_sequence(2, 3).normalized()),
    (HYPER, SmoothWeight(2, 3)),
    (HYPER, delta_sequence(2, 2)),
    (parse_form_spec("diag:2,-3"), ones_sequence(2, 3).normalized()),
] + [
    (parse_form_spec(spec), ones_sequence(3, 2).normalized())
    for spec in (
        "diag:1,1,-1",
        "mat:3:0,1,0,1,0,0,0,0,1",
        # blocks {0, 2} and {1}: the last block is not the trailing axis
        "mat:3:0,0,1,0,1,0,1,0,0",
    )
]


def test_report_from_block_rows_matches_the_field(monkeypatch):
    # a factored source takes the block-row path; its report equals the one
    # read cell by cell from the same field, and its sup and moments equal,
    # to rounding, those of the same values without factors (d-dim engine)
    rng = np.random.default_rng(24)
    for form, seq in _FACTORED_CASES:
        d, r = seq.dim, seq.radius
        grids = [TorusGrid.random_offset(d, 97, 2 * r + 3, rng) for _ in range(3)]
        ladder = moments.default_levels(seq, 9)
        # a rung at 0, the Cauchy-Schwarz bound on sup, and one above it
        lams = tuple(ladder) + (2 * ladder[-1],)
        for C in (1.0, 1e6):
            got = moments.build_report(form, seq, grids, 4.0, C=C, lambdas=lams)
            want = _every_cell_report(
                monkeypatch, form, seq, grids, 4.0, C=C, lambdas=lams
            )
            _assert_same_report(got, want)
            assert got.levels[0][1] == 1.0 and got.levels[-1][1] == 0.0
            plain = moments.build_report(
                form, _without_factors(seq.values), grids, 4.0, C=C, lambdas=lams
            )
            # levels at a tie flip with the engine's rounding (ROADMAP item 2),
            # and a plain copy of a SmoothWeight takes its N, and so its
            # threshold, from the radius
            assert got.sup == pytest.approx(plain.sup, rel=1e-13)
            assert got.grid_full == pytest.approx(plain.grid_full, rel=1e-13)
            assert got.oracle_full == plain.oracle_full
            if plain.threshold == got.threshold:
                assert got.truncated_moment == pytest.approx(
                    plain.truncated_moment, rel=1e-13
                )
        # at C = 1e6 the cut is above sup: no cell reaches it
        assert got.threshold > got.sup > 0.0
        assert got.truncated_moment == 0.0
    with pytest.raises(ValueError, match="grid dim"):
        grid = TorusGrid(3, 9, 7, (0,) * 4)
        moments.build_report(HYPER, ones_sequence(2, 2), [grid], 4.0)


def test_scans_with_no_cut_from_block_rows_match_the_field(monkeypatch):
    # with no cut only the rows that can reach the sup form cells: the sup,
    # the levels and the layer-cake value are the every-cell scan's bit for
    # bit, and the moments equal it to rounding
    rng = np.random.default_rng(26)
    for form, seq in _FACTORED_CASES:
        grid = TorusGrid.random_offset(seq.dim, 97, 2 * seq.radius + 3, rng)
        calls = (
            lambda: moments.scan_field(form, seq, grid, p_values=(2.0, 6.0)),
            lambda: moments.scan_field(form, seq, grid, p_values=(), lambdas=(0.0,)),
            lambda: moments.layer_cake_moment(form, seq, grid, 6.0),
        )
        got = [call() for call in calls]
        with monkeypatch.context() as m:
            m.setattr(moments, "_scan_rows", moments._scan_cells)
            want = [call() for call in calls]
        for scan, cells in zip(got[:2], want[:2]):
            assert scan.sup == cells.sup > 0.0
            assert scan.levels == cells.levels
            assert scan.moments == pytest.approx(cells.moments, rel=1e-13)
        assert got[1].levels == [(0.0, 1.0)]
        assert got[2] == want[2]


def test_report_from_block_rows_over_many_chunks(monkeypatch):
    # small row chunks: the largest bound so far grows across chunks; the
    # report stays that of the every-cell scan and is the same at 1 and 2
    # workers
    rng = np.random.default_rng(25)
    monkeypatch.setattr(expsum, "_CHUNK_BYTES", 16 * 2 * 13 * 5)
    for form, seq in (
        (HYPER, ones_sequence(2, 4).normalized()),
        (parse_form_spec("mat:3:0,0,1,0,1,0,1,0,0"), SmoothWeight(3, 1)),
    ):
        grids = [TorusGrid.random_offset(seq.dim, 200, 13, rng) for _ in range(2)]
        reports = []
        for workers in (1, 2):
            monkeypatch.setattr(expsum, "_WORKERS", workers)
            reports.append(moments.build_report(form, seq, grids, 6.0))
        assert repr(reports[0]) == repr(reports[1])
        want = _every_cell_report(monkeypatch, form, seq, grids, 6.0)
        _assert_same_report(reports[0], want)


def test_block_rows_start_no_worker(monkeypatch):
    # the row scan reads one field generator per block side by side, all on
    # the consumer's thread, even where each would take many chunks
    monkeypatch.setattr(expsum, "_WORKERS", 2)
    monkeypatch.setattr(expsum, "_CHUNK_BYTES", 16 * 2 * 13 * 5)
    form = parse_form_spec("diag:1,1,-1")
    seq, grid = SmoothWeight(3, 1), TorusGrid(3, 200, 13, (0.3, 0.1, 0.2, 0.7))
    baseline, seen = threading.active_count(), []
    real = moments._reduce_rows

    def counting(*args):
        seen.append(threading.active_count() - baseline)
        return real(*args)

    monkeypatch.setattr(moments, "_reduce_rows", counting)
    rep = moments.build_report(form, seq, [grid], 6.0)
    assert len(seen) > 2 and max(seen) == 0
    # the worker slot is free again for the next generator
    gen = expsum.iter_field_chunks(form, seq, grid)
    next(gen)
    assert threading.active_count() == baseline + 1
    gen.close()
    assert rep.sup > 0.0


def test_report_from_block_rows_memory():
    # the rows of 1000 alpha slices and the live cells stay a few field
    # chunks, far below the 9.4M cells of the grid
    seq = ones_sequence(2, 16).normalized()
    grid = TorusGrid(2, 1000, 97, (0.0, 0.0, 0.0))
    tracemalloc.start()
    try:
        rep = moments.build_report(HYPER, seq, [grid], 6.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.sup > 0.0
    assert peak < 4 * expsum._CHUNK_BYTES


def _budget_outputs():
    """Everything the scratch budget must not move, as bytes or exact
    values: fields, row and cell scans, pair-count tables, counting folds."""
    out = []
    rng = np.random.default_rng(27)
    fields = [
        (HYPER, ones_sequence(2, 3), TorusGrid(2, 40, 9, (0.1, 0.2, 0.3))),
        (parse_form_spec("mat:2:0,1,1,0"), random_unit_sequence(2, 2, seed=3),
         TorusGrid(2, 30, 7, (0.3, 0.1, 0.7))),
        # a one-point box: the last twist sub-block is one alpha, one point
        (LINE, random_unit_sequence(1, 0, seed=2), TorusGrid(1, 17, 3, (0.4, 0.6))),
    ]
    for form, seq, grid in fields:
        out.append(_field(form, seq, grid).tobytes())
    for form, seq in _FACTORED_CASES + [(HYPER, random_unit_sequence(2, 3, seed=7))]:
        grid = TorusGrid.random_offset(seq.dim, 97, 2 * seq.radius + 3, rng)
        sup = moments.scan_field(form, seq, grid, p_values=()).sup
        ladder = tuple(moments.default_levels(seq, 9))
        # every cell, a low cut, and cuts near the sup that the first rows
        # of a chunk do not reach
        for thr in (0.0, 0.5 * ladder[2], 0.6 * sup, 0.95 * sup):
            scan = moments.scan_field(
                form, seq, grid, p_values=(2.0, 6.0),
                thresholds=((2.0, thr), (6.0, max(thr, ladder[2]))),
                lambdas=(thr,) if thr else ladder,
            )
            out.append(repr(scan))
    tables = []
    real = moments._pair_counts

    def recorded(*args):
        tables.append(real(*args))
        return tables[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(moments, "_pair_counts", recorded)
        for form, seq, p in (
            (HYPER, ones_sequence(2, 6), 6),
            (BLOCK3, ones_sequence(3, 3), 4),
            (parse_form_spec("diag:1,1,-1"), delta_sequence(3, 2), 6),
        ):
            out.append(moments.even_moment_exact(form, seq, p))
    out += [t.tobytes() for t in tables]
    # the sparse fold: its counting path (one value on the support) and, as
    # it adds every bucket in one order, complex weights too
    for form, seq, p in (
        (HYPER, diagonal_extremizer(2, 8, 1), 6),
        (parse_form_spec("mat:2:0,1,1,0"), _without_factors(np.ones((9, 9))), 6),
        (parse_form_spec("diag:1,1,-1"), _without_factors(np.ones((5, 5, 5))), 4),
        (HYPER, random_unit_sequence(2, 4, seed=3), 6),
        (parse_form_spec("mat:2:0,1,1,0"), random_unit_sequence(2, 5, seed=4), 4),
    ):
        out.append(moments.even_moment_exact(form, seq, p))
    return out


def test_scratch_budget_moves_no_output(monkeypatch):
    # a budget of a few hundred bytes splits every twist, fold, FFT row block
    # and row-scan chunk into many pieces; nothing it sizes moves a bit. Scan
    # blocks of 64 cells put the live rows of a chunk in many batches
    monkeypatch.setattr(moments, "_SCAN_BLOCK", 64)
    default = _budget_outputs()
    monkeypatch.setattr(expsum, "_SCRATCH_BYTES", 300)
    assert _budget_outputs() == default


def _row_scans():
    """The row scan over `_FACTORED_CASES`: the sup alone, moments with no
    cut, the level ladder under a low cut, and cuts near the sup that the
    first rows of a chunk do not reach."""
    out = []
    rng = np.random.default_rng(28)
    for form, seq in _FACTORED_CASES:
        grid = TorusGrid.random_offset(seq.dim, 97, 2 * seq.radius + 3, rng)
        alone = moments.scan_field(form, seq, grid, p_values=())
        sup, ladder = alone.sup, tuple(moments.default_levels(seq, 9))
        out.append(repr(alone))
        out.append(repr(moments.scan_field(form, seq, grid, p_values=(2.0, 6.0))))
        for thr, lams in (
            (0.5 * ladder[2], ladder), (0.6 * sup, (0.6 * sup,)), (0.95 * sup, (sup,))
        ):
            scan = moments.scan_field(
                form, seq, grid, p_values=(2.0, 6.0),
                thresholds=((2.0, thr), (6.0, max(thr, ladder[2]))), lambdas=lams,
            )
            out.append(repr(scan))
    return out


def test_row_scan_depends_on_the_field_alone(monkeypatch):
    # chunk, scratch and batch sizes and the worker count change which rows
    # are read together and which are picked against a smaller bound so far,
    # and a short list folds the row partials often; no output of the row
    # scan moves a bit
    default = _row_scans()
    sizes = (expsum._CHUNK_BYTES, expsum._SCRATCH_BYTES, moments._SCAN_BLOCK)
    for chunk, scratch, block, workers, partials in (
        (2080, 300, 64, 1, 5),
        (2080, sizes[1], 7, 2, moments._PARTIALS),
        (sizes[0], 300, 7, 1, 1),
        (sizes[0], sizes[1], 64, 2, moments._PARTIALS),
    ):
        monkeypatch.setattr(expsum, "_CHUNK_BYTES", chunk)
        monkeypatch.setattr(expsum, "_SCRATCH_BYTES", scratch)
        monkeypatch.setattr(moments, "_SCAN_BLOCK", block)
        monkeypatch.setattr(expsum, "_WORKERS", workers)
        monkeypatch.setattr(moments, "_PARTIALS", partials)
        assert _row_scans() == default, (chunk, scratch, block, workers, partials)


def test_pair_counts_memory():
    # ones on diag:1,-1, N = 24, p = 6: the 145 rows of the 1,801-column u
    # table are transformed a few at a time through one row and one spectrum
    # buffer, so the peak is the tables themselves and a few budgets
    n = np.arange(-24, 25)
    u = n * (n - 1) // 2
    tracemalloc.start()
    try:
        counts = moments._pair_counts([n], u, 3, 2**26)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[0] == 1025977
    assert peak < 6 * expsum._SCRATCH_BYTES
