"""Exponential sums: grids vs direct summation, complete sums, integrals."""

import contextlib
import functools
import io
import itertools
import threading
import tracemalloc
from math import gcd

import numpy as np
import pytest

from quadsums import (
    CoefficientSequence,
    SmoothWeight,
    TorusGrid,
    cli,
    delta_sequence,
    expsum,
    extension_direct,
    gauss_sum,
    gauss_sum_table,
    iter_field_chunks,
    major_arc_approx,
    moments,
    ones_sequence,
    oscillatory_integral,
    parse_form_spec,
    random_unit_sequence,
    smoothed_sum_direct,
)
from quadsums.bump import bump
from quadsums.expsum import _axis_orders, _composite_rule, _integral_batch

HYPER = parse_form_spec("diag:1,-1")
LINE = parse_form_spec("diag:1")


def _field(form, seq, grid, chunk=None):
    return np.concatenate(
        [vals for _, vals in iter_field_chunks(form, seq, grid, chunk=chunk)]
    )


def test_torus_grid_layout():
    grid = TorusGrid(1, 4, 5, (0.5, 0.25))
    assert np.allclose(grid.alphas(), np.arange(4) / 4 + 0.5)
    assert np.allclose(grid.theta_values(0), np.arange(5) / 5 + 0.25)
    assert grid.total_cells == 20
    assert abs(grid.cell_measure - 1 / 20) <= 1e-18
    cent = TorusGrid.centered(2, 3, 7)
    assert cent.offset == (1 / 6, 1 / 14, 1 / 14)
    with pytest.raises(ValueError):
        TorusGrid(2, 4, 5, (0.0, 0.0))
    with pytest.raises(ValueError):
        TorusGrid(1, 4, 5, (0.0, 1.5))
    # sizes are integers: numpy integers are stored as int, floats and bools fail
    sized = TorusGrid(np.int64(2), np.int32(513), np.int64(33), (0.0, 0.0, 0.0))
    assert (sized.dim, sized.m_alpha, sized.m_theta) == (2, 513, 33)
    assert all(type(v) is int for v in (sized.dim, sized.m_alpha, sized.m_theta))
    bad_sizes = ((2, 513.0, 33), (2, 513, 33.0), (2.0, 4, 5), (True, 4, 5))
    for dim, m_alpha, m_theta in bad_sizes:
        with pytest.raises(ValueError, match="must be an integer"):
            TorusGrid(dim, m_alpha, m_theta, (0.0, 0.0, 0.0))


def test_grid_matches_direct():
    rng = np.random.default_rng(101)
    for d in (1, 2):
        for N in (2, 4, 8):
            seq = random_unit_sequence(d, N, seed=int(rng.integers(2**31)))
            grid = TorusGrid.random_offset(d, 7, 2 * N + 3, rng)
            field = _field(HYPER if d == 2 else LINE, seq, grid)
            form = HYPER if d == 2 else LINE
            alphas = grid.alphas()
            thetas = [grid.theta_values(i) for i in range(d)]
            for _ in range(100):
                ia = int(rng.integers(grid.m_alpha))
                it = tuple(int(rng.integers(grid.m_theta)) for _ in range(d))
                want = extension_direct(
                    form, seq, alphas[ia], [thetas[i][it[i]] for i in range(d)]
                )
                got = field[(ia,) + it]
                assert abs(got - want) <= 1e-10


def test_iter_field_chunks_agrees_with_grid_evaluate():
    seq = random_unit_sequence(2, 3, seed=4)
    grid = TorusGrid(2, 5, 9, (0.25, 0.0, 0.5))
    field = _field(HYPER, seq, grid)
    rows = np.concatenate(
        [vals for _, vals in iter_field_chunks(HYPER, seq, grid, chunk=2)]
    )
    assert np.abs(rows - field).max() <= 1e-12


def _assert_chunks_match_direct(form, seq, grid, chunk, tol):
    alphas = grid.alphas()
    thetas = [grid.theta_values(i) for i in range(seq.dim)]
    for start, vals in iter_field_chunks(form, seq, grid, chunk=chunk):
        for idx in np.ndindex(*vals.shape):
            theta = [thetas[i][t] for i, t in enumerate(idx[1:])]
            want = extension_direct(form, seq, alphas[start + idx[0]], theta)
            assert abs(vals[idx] - want) <= tol


def test_field_chunks_match_direct_nondiagonal_and_d3():
    rng = np.random.default_rng(2024)
    cases = (
        (parse_form_spec("mat:2:0,1,1,0"), 2, 3, 7, 9),
        (parse_form_spec("diag:1,1,-1"), 3, 2, 5, 6),
    )
    for form, d, r, m_alpha, m_theta in cases:
        seq = random_unit_sequence(d, r, seed=int(rng.integers(2**31)))
        grid = TorusGrid.random_offset(d, m_alpha, m_theta, rng)
        for chunk in (1, None):
            _assert_chunks_match_direct(form, seq, grid, chunk, 1e-12 * seq.l1_norm)


def test_field_chunks_edge_sizes():
    # one alpha point, and a theta axis exactly as wide as the support
    rng = np.random.default_rng(5)
    cross = parse_form_spec("mat:2:0,1,1,0")
    seq = random_unit_sequence(2, 3, seed=8)
    for m_alpha, m_theta in ((1, 11), (6, 7), (1, 7)):
        grid = TorusGrid.random_offset(2, m_alpha, m_theta, rng)
        _assert_chunks_match_direct(cross, seq, grid, None, 1e-12 * seq.l1_norm)
    # radius 0: the single coefficient sits at the torus origin
    delta = delta_sequence(2, 0)
    grid = TorusGrid.random_offset(2, 3, 1, rng)
    _assert_chunks_match_direct(HYPER, delta, grid, None, 1e-14)


# diagonal forms with declared product coefficients take the separable branch;
# the same values without factors take the general engine
SEPARABLE_FORMS = ("diag:1", "diag:1,-1", "diag:2,-3", "diag:1,1,-1")


def _factored_sources(d):
    r = 3 if d < 3 else 2
    return (
        ones_sequence(d, r),
        ones_sequence(d, r).normalized(),
        delta_sequence(d, r),
        SmoothWeight(d, 2 if d < 3 else 1),
    )


def _general(seq):
    return CoefficientSequence(seq.dim, seq.radius, seq.values)


def test_separable_field_matches_general_engine_and_direct():
    rng = np.random.default_rng(606)
    for spec in SEPARABLE_FORMS:
        form = parse_form_spec(spec)
        d = form.dim
        for source in _factored_sources(d):
            seq = source.as_sequence() if isinstance(source, SmoothWeight) else source
            assert seq.factors is not None
            grid = TorusGrid.random_offset(d, 7, 2 * seq.radius + 3, rng)
            for chunk in (1, None):
                got = _field(form, source, grid, chunk)
                want = _field(form, _general(seq), grid, chunk)
                assert got.shape == want.shape
                scale = np.abs(want).max()
                assert np.abs(got - want).max() <= 1e-13 * scale, (spec, seq.label)
            alphas = grid.alphas()
            thetas = [grid.theta_values(i) for i in range(d)]
            for _ in range(12):
                ia = int(rng.integers(grid.m_alpha))
                it = [int(rng.integers(grid.m_theta)) for _ in range(d)]
                direct = extension_direct(
                    form, seq, alphas[ia], [thetas[i][t] for i, t in enumerate(it)]
                )
                assert abs(got[(ia, *it)] - direct) <= 1e-13 * scale, (spec, seq.label)


def test_separable_field_edge_sizes():
    rng = np.random.default_rng(608)
    form = parse_form_spec("diag:2,-3")
    seq = ones_sequence(2, 3).normalized()
    # one alpha point, and a theta axis exactly as wide as the support
    for m_alpha, m_theta in ((1, 11), (6, 7), (1, 7)):
        grid = TorusGrid.random_offset(2, m_alpha, m_theta, rng)
        _assert_chunks_match_direct(form, seq, grid, None, 1e-13 * seq.l1_norm)
        for chunk in (1, None):
            got = _field(form, seq, grid, chunk)
            want = _field(form, _general(seq), grid, chunk)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # radius 0: one coefficient, F = a(0) everywhere
    for seq in (ones_sequence(2, 0), delta_sequence(3, 0)):
        grid = TorusGrid.random_offset(seq.dim, 3, 1, rng)
        form = HYPER if seq.dim == 2 else parse_form_spec("diag:1,1,-1")
        assert np.array_equal(_field(form, seq, grid), np.ones((3,) + (1,) * seq.dim))


def test_nondiagonal_form_ignores_factors():
    rng = np.random.default_rng(609)
    form = parse_form_spec("mat:2:0,1,1,0")
    seq = ones_sequence(2, 3)
    grid = TorusGrid.random_offset(2, 7, 9, rng)
    for chunk in (1, None):
        got = _field(form, seq, grid, chunk)
        assert np.array_equal(got, _field(form, _general(seq), grid, chunk))
    _assert_chunks_match_direct(form, seq, grid, None, 1e-13 * seq.l1_norm)


# 2 x0 x1 + x2^2 (blocks {0, 1}, {2}) and its copy with the coupled axes at
# {0, 2} (blocks {0, 2}, {1})
BLOCK_FORMS = ("mat:3:0,1,0,1,0,0,0,0,1", "mat:3:0,0,1,0,1,0,1,0,0")


def test_block_field_matches_general_engine():
    # with factors each block is its own box on its own axes, adjacent or not
    rng = np.random.default_rng(610)
    for spec in BLOCK_FORMS:
        form = parse_form_spec(spec)
        assert len(form.blocks) == 2
        for source in (ones_sequence(3, 3), SmoothWeight(3, 2)):
            grid = TorusGrid.random_offset(3, 5, 2 * source.radius + 2, rng)
            for chunk in (1, None):
                got = _field(form, source, grid, chunk)
                want = _field(form, _general(source), grid, chunk)
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), spec
        seq = ones_sequence(3, 1)
        grid = TorusGrid.random_offset(3, 3, 4, rng)
        _assert_chunks_match_direct(form, seq, grid, None, 1e-13 * seq.l1_norm)


def test_block_nyquist_sizes_match_the_full_table():
    # the span of R is the sum of the block spans, since blocks share no axes
    for spec in BLOCK_FORMS:
        form = parse_form_spec(spec)
        for radius, p in ((3, 6), (2, 4), (0, 2)):
            R = form.values_on_grid(radius)
            span = int(R.max()) - int(R.min())
            want = (p * span // 2 + 1, p * radius + 1)
            assert moments.nyquist_sizes(form, radius, p) == want, (spec, radius)
        assert moments.nyquist_sizes(form, 3, 6) == (136, 19)


def test_field_chunks_tile_alpha_axis():
    seq = ones_sequence(1, 2)
    budget_cells = expsum._CHUNK_BYTES // 16
    for grid, chunk in (
        (TorusGrid(1, 10, 5, (0.0, 0.0)), 4),
        (TorusGrid(1, 1500, 3000, (0.0, 0.0)), None),
    ):
        nxt, sizes = 0, []
        for start, vals in iter_field_chunks(LINE, seq, grid, chunk=chunk):
            assert start == nxt
            assert vals.shape[1:] == (grid.m_theta,)
            assert vals.nbytes <= expsum._CHUNK_BYTES
            nxt += vals.shape[0]
            sizes.append(vals.shape[0])
        assert nxt == grid.m_alpha
        if chunk is not None:
            assert sizes == [4, 4, 2]
        else:
            # as many whole slices per chunk as fit the budget (35 chunks at 2 MiB)
            assert len(sizes) == -(-grid.m_alpha // (budget_cells // grid.m_theta))
    # the tiling changes no bit of the field, down to one-alpha chunks at radius 1
    rng = np.random.default_rng(17)
    cross = parse_form_spec("mat:2:0,1,1,0")
    for form, seq in (
        (HYPER, ones_sequence(2, 1)),
        (HYPER, random_unit_sequence(2, 1, seed=3)),
        (cross, random_unit_sequence(2, 1, seed=4)),
        (HYPER, delta_sequence(2, 0)),
    ):
        grid = TorusGrid.random_offset(2, 7, 6, rng)
        whole = _field(form, seq, grid)
        for chunk in (1, 3):
            assert _field(form, seq, grid, chunk).tobytes() == whole.tobytes()


def test_field_chunks_stay_within_byte_budget():
    # a 9.4M-cell separable grid: streaming it, bare or through scan_field,
    # holds about one chunk at a time, not a slab of the field
    seq = ones_sequence(2, 16).normalized()
    grid = TorusGrid(2, 1000, 97, (0.0, 0.0, 0.0))
    assert grid.total_cells >= 8 * 2**20

    def bare_loop():
        for _, vals in iter_field_chunks(HYPER, seq, grid):
            vals.sum()

    def scan():
        moments.scan_field(
            HYPER, seq, grid, p_values=(6.0,), thresholds=((6.0, 2.0),),
            lambdas=(1.0, 2.0),
        )

    for run in (bare_loop, scan):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * expsum._CHUNK_BYTES, (run.__name__, peak)


@pytest.mark.parametrize(
    "spec, seq, grid",
    [
        ("diag:1,-1", ones_sequence(2, 4), TorusGrid(2, 300, 33, (0.0,) * 3)),
        (
            "mat:2:0,1,1,0",
            random_unit_sequence(2, 4, seed=5),
            TorusGrid(2, 300, 33, (0.3, 0.1, 0.7)),
        ),
        ("diag:1,1,-1", ones_sequence(3, 2), TorusGrid(3, 150, 13, (0.0,) * 4)),
    ],
    ids=["separable", "general", "d3"],
)
def test_results_do_not_depend_on_chunk_budget(monkeypatch, spec, seq, grid):
    # the old 32 MiB slabs and 4 MiB chunks, the 2 MiB budget, and one alpha
    # slice per chunk
    form = parse_form_spec(spec)
    assert grid.total_cells > 2**18
    slice_bytes = 16 * grid.m_theta**grid.dim
    fields, scans = [], []
    for budget in (32 * 2**20, 4 * 2**20, 2 * 2**20, slice_bytes):
        monkeypatch.setattr(expsum, "_CHUNK_BYTES", budget)
        chunks = [v for _, v in iter_field_chunks(form, seq, grid)]
        assert len(chunks) == -(-grid.m_alpha // max(1, budget // slice_bytes))
        field = np.concatenate(chunks)
        mags = np.sort(np.abs(field).ravel())
        cut = float(mags[9 * mags.size // 10])
        fields.append(field)
        scans.append(
            moments.scan_field(
                form, seq, grid, p_values=(2.0, 4.0, 6.0),
                thresholds=((4.0, cut), (6.0, cut)),
                lambdas=(0.0, float(mags[mags.size // 2]), cut, float(mags[-1])),
            )
        )
    first, scan0 = fields[0], scans[0]
    for field, scan in zip(fields[1:], scans[1:]):
        assert field.tobytes() == first.tobytes()
        assert scan.sup == scan0.sup
        assert scan.levels == scan0.levels
        for key in scan0.moments:
            assert scan.moments[key] == pytest.approx(scan0.moments[key], rel=1e-14)
        for key in scan0.truncated:
            assert scan.truncated[key] == pytest.approx(scan0.truncated[key], rel=1e-14)


# multi-chunk grids on both engine branches: the separable boxes (the CLI's
# diag:1,-1 ones N=8 Nyquist grid), the general d-dim box, and d = 3
WORKER_CASES = [
    ("diag:1,-1", ones_sequence(2, 8), TorusGrid(2, 385, 49, (0.0,) * 3)),
    (
        "mat:2:0,1,1,0",
        random_unit_sequence(2, 6, seed=3),
        TorusGrid(2, 600, 41, (0.3, 0.1, 0.7)),
    ),
    ("diag:1,1,-1", ones_sequence(3, 3), TorusGrid(3, 200, 19, (0.2, 0.4, 0.6, 0.8))),
]


def test_results_do_not_depend_on_worker_count(monkeypatch):
    # computing the next chunk on a worker thread changes no bit of the
    # field, of a scan or of the CLI's output
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(expsum, "_WORKERS", workers)
        fields, scans = [], []
        for spec, seq, grid in WORKER_CASES:
            form = parse_form_spec(spec)
            chunks = [v for _, v in iter_field_chunks(form, seq, grid)]
            assert len(chunks) >= 7
            field = np.concatenate(chunks)
            mags = np.sort(np.abs(field).ravel())
            cut = float(mags[9 * mags.size // 10])
            fields.append(field.tobytes())
            scans.append(
                moments.scan_field(
                    form, seq, grid, p_values=(2.0, 4.0, 6.0),
                    thresholds=((4.0, cut), (6.0, cut)),
                    lambdas=(0.0, float(mags[mags.size // 2]), cut, float(mags[-1])),
                )
            )
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(
                ["moment", "--form", "diag:1,-1", "--family", "ones",
                 "--N", "8", "--p", "6", "--grid", "nyquist"]
            )
        assert code == 0 and "grid=385x49^2" in out.getvalue()
        runs.append((fields, scans, out.getvalue()))
    (fields1, scans1, out1), (fields2, scans2, out2) = runs
    assert fields1 == fields2
    for one, two in zip(scans1, scans2):
        assert one.sup == two.sup
        assert one.moments == two.moments
        assert one.truncated == two.truncated
        assert one.levels == two.levels
    assert out1 == out2


def test_bad_chunk_rejected():
    # range(0, m, -1) is empty: a negative chunk would yield no field at all
    seq, grid = ones_sequence(1, 2), TorusGrid(1, 10, 5, (0.0, 0.0))
    for chunk in (0, -1, True, 2.0, "3"):
        with pytest.raises(ValueError, match="chunk must be a positive integer"):
            next(iter_field_chunks(LINE, seq, grid, chunk=chunk))
    # a numpy integer is a size, as for TorusGrid
    sizes = [v.shape[0] for _, v in iter_field_chunks(LINE, seq, grid, chunk=np.int64(3))]
    assert sizes == [3, 3, 3, 1]


def test_field_worker_lifecycle(monkeypatch):
    # the worker thread lives exactly as long as its generator: it ends when
    # the generator is closed early, runs out, or raises
    monkeypatch.setattr(expsum, "_WORKERS", 2)
    seq, grid = WORKER_CASES[0][1:]
    baseline = threading.active_count()
    gen = iter_field_chunks(HYPER, seq, grid)
    next(gen)
    assert threading.active_count() == baseline + 1
    gen.close()
    assert threading.active_count() == baseline
    assert sum(v.shape[0] for _, v in iter_field_chunks(HYPER, seq, grid)) == grid.m_alpha
    assert threading.active_count() == baseline
    # a one-chunk grid starts no thread
    small = TorusGrid(2, 20, 17, (0.0,) * 3)
    gen = iter_field_chunks(HYPER, ones_sequence(2, 4), small)
    next(gen)
    assert threading.active_count() == baseline
    gen.close()

    # two boxes per chunk: the third call computes chunk 1, on the worker
    calls, real = [], expsum._chunk_fft

    def failing(*args, **kwargs):
        calls.append(threading.current_thread())
        if len(calls) == 3:
            raise FloatingPointError("third chunk_fft call")
        return real(*args, **kwargs)

    monkeypatch.setattr(expsum, "_chunk_fft", failing)
    gen = iter_field_chunks(HYPER, seq, grid)
    start, vals = next(gen)
    assert start == 0
    with pytest.raises(FloatingPointError, match="third chunk_fft call"):
        next(gen)
    assert threading.active_count() == baseline
    assert threading.current_thread() not in calls
    with pytest.raises(StopIteration):
        next(gen)


def test_field_generators_share_one_worker(monkeypatch):
    # generators read side by side run one worker between them: the first
    # to start takes it, the others compute on the consumer's thread and
    # yield the same chunks
    monkeypatch.setattr(expsum, "_WORKERS", 2)
    seq, grid = WORKER_CASES[0][1:]
    baseline = threading.active_count()
    gens = [iter_field_chunks(HYPER, seq, grid) for _ in range(3)]
    for (s0, v0), (s1, v1), (s2, v2) in zip(*gens, strict=True):
        assert threading.active_count() == baseline + 1
        assert s0 == s1 == s2
        assert np.array_equal(v0, v1) and np.array_equal(v0, v2)
    assert threading.active_count() == baseline
    assert not expsum._PREFETCH.locked()


def test_field_phases_exact_at_large_k_times_R():
    # SmoothWeight N=64 has |R(n)| up to 127^2, so alpha_k R(n) reaches 1.6e4
    # turns; the engine reduces k R(n) mod m_alpha in integers and must agree
    # with a direct sum whose phases are reduced the same way
    w = SmoothWeight(2, 64)
    seq = w.as_sequence()
    m_alpha, m_theta = 64, 2 * seq.radius + 1
    grid = TorusGrid(2, m_alpha, m_theta, (0.0, 0.0, 0.0))
    R = HYPER.values_on_grid(seq.radius)
    coords = np.arange(-seq.radius, seq.radius + 1)
    rng = np.random.default_rng(11)
    checked = 0
    for start, vals in iter_field_chunks(HYPER, w, grid):
        for i in range(vals.shape[0]):
            k = start + i
            if k < m_alpha - 4:
                continue
            twist = seq.values * np.exp(2j * np.pi * ((k * R) % m_alpha) / m_alpha)
            for _ in range(3):
                t = rng.integers(m_theta, size=2)
                # theta . n mod m_theta, also in integers
                lin = (t[0] * coords[:, None] + t[1] * coords[None, :]) % m_theta
                want = np.sum(twist * np.exp(2j * np.pi * lin / m_theta))
                assert abs(vals[i, t[0], t[1]] - want) <= 1e-12 * seq.l1_norm
                checked += 1
    assert checked == 12


def test_grid_too_coarse_rejected():
    seq = ones_sequence(1, 4)
    grid = TorusGrid(1, 3, 7, (0.0, 0.0))
    with pytest.raises(ValueError, match="grid too coarse"):
        list(iter_field_chunks(LINE, seq, grid))


def test_sup_bound_and_attainment():
    # |F| <= (2r+1)^{d/2} ||a||_2, with equality for constant coefficients
    rng = np.random.default_rng(7)
    for d, N in ((1, 4), (2, 3)):
        form = LINE if d == 1 else HYPER
        seq = random_unit_sequence(d, N, seed=13 + d)
        grid = TorusGrid.random_offset(d, 9, 2 * N + 5, rng)
        bound = (2 * N + 1) ** (d / 2.0) * seq.l2_norm
        assert moments.scan_field(form, seq, grid, p_values=()).sup <= bound + 1e-12
        ones = ones_sequence(d, N)
        zero_grid = TorusGrid(d, 5, 2 * N + 3, (0.0,) * (d + 1))
        sup = moments.scan_field(form, ones, zero_grid, p_values=()).sup
        assert abs(sup - (2 * N + 1) ** (d / 2.0) * ones.l2_norm) <= 1e-9


def test_delta_field_is_flat():
    seq = delta_sequence(2, 3)
    grid = TorusGrid(2, 4, 7, (0.3, 0.1, 0.9))
    field = _field(HYPER, seq, grid)
    assert np.abs(field - 1.0).max() <= 1e-12


def test_smoothed_sum_small_cases():
    w = SmoothWeight(1, 1)
    assert abs(smoothed_sum_direct(LINE, w, 0.0, [0.5]) - (-1.0)) <= 1e-12
    assert abs(smoothed_sum_direct(LINE, w, 0.0, [0.0]) - 3.0) <= 1e-12
    # N = 2: omega = kappa(n/2) over |n| <= 3
    w2 = SmoothWeight(1, 2)
    expect = sum(bump(n / 2) for n in range(-3, 4))
    assert abs(smoothed_sum_direct(LINE, w2, 0.0, [0.0]) - expect) <= 1e-12


def test_conjugate_symmetry():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(5, 5))
    seq = CoefficientSequence(2, 2, vals)
    for _ in range(10):
        alpha = float(rng.random())
        theta = rng.random(2)
        lhs = extension_direct(HYPER, seq, -alpha, -theta)
        rhs = np.conj(extension_direct(HYPER, seq, alpha, theta))
        assert abs(lhs - rhs) <= 1e-12


def test_theta_length_validation():
    with pytest.raises(ValueError):
        extension_direct(HYPER, ones_sequence(2, 2), 0.0, [0.1])


def test_gauss_sum_values():
    assert abs(abs(gauss_sum(LINE, 1, [0], 5)) - np.sqrt(5.0)) <= 1e-10
    assert abs(gauss_sum(LINE, 1, [0], 2)) <= 1e-12
    assert abs(gauss_sum(LINE, 1, [1], 2) - 2.0) <= 1e-12
    assert gauss_sum(LINE, 1, [0], 1) == 1.0
    assert abs(gauss_sum(HYPER, 1, [0, 0], 1) - 1.0) <= 1e-15


def test_gauss_sum_validation():
    with pytest.raises(ValueError, match="gcd"):
        gauss_sum(LINE, 2, [0], 4)
    with pytest.raises(ValueError):
        gauss_sum(LINE, 1, [0], 0)
    with pytest.raises(ValueError):
        gauss_sum(HYPER, 1, [0], 5)
    with pytest.raises(ValueError, match="max_terms"):
        gauss_sum(HYPER, 1, [0, 0], 3000)
    with pytest.raises(ValueError, match="gcd"):
        gauss_sum_table(LINE, 2, 4)


def test_gauss_sum_table_matches_direct():
    for spec in ("diag:1", "diag:2,3", "mat:2:0,1,1,0"):
        form = parse_form_spec(spec)
        for q in (1, 2, 3, 4, 5, 6):
            for a in range(1, q + 1):
                if gcd(a, q) != 1:
                    continue
                table = gauss_sum_table(form, a, q)
                for b in np.ndindex(*table.shape):
                    want = gauss_sum(form, a, list(b), q)
                    assert abs(table[b] - want) <= 1e-9


def test_square_root_cancellation_d1():
    # d = 1, R = x^2: |S(a, b; q)| <= sqrt(2q) for every coprime a and all b
    for q in range(1, 65):
        for a in range(1, q + 1):
            if gcd(a, q) != 1:
                continue
            table = np.abs(gauss_sum_table(LINE, a, q))
            assert table.max() <= np.sqrt(2.0 * q) + 1e-9


def test_gauss_ratio_saturates_early():
    # max_b |S(a,b;q)| / q^{d/2} over q <= 64 should not exceed twice the
    # maximum already attained by q <= 16
    for spec in ("diag:1", "diag:1,-1", "mat:2:0,1,1,0", "diag:2,3"):
        form = parse_form_spec(spec)
        d = form.dim
        best64 = best16 = 0.0
        for q in range(1, 65):
            for a in range(1, q + 1):
                if gcd(a, q) != 1:
                    continue
                ratio = float(np.abs(gauss_sum_table(form, a, q)).max()) / q ** (d / 2)
                best64 = max(best64, ratio)
                if q <= 16:
                    best16 = max(best16, ratio)
        assert best64 <= 2.0 * best16


def _osc_trapezoid(form, beta, gamma, N, n=1201):
    # trapezoid rule; the integrand vanishes to all orders at the boundary,
    # so this converges faster than any power of 1/n
    x = np.linspace(-2.0, 2.0, n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    M = form.matrix
    R = M[0][0] * X * X + 2 * M[0][1] * X * Y + M[1][1] * Y * Y
    b = bump(x)
    f = (
        b[:, None]
        * b[None, :]
        * np.exp(2j * np.pi * (beta * N * N * R + N * (gamma[0] * X + gamma[1] * Y)))
    )
    h = x[1] - x[0]
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return complex(h * h * np.einsum("i,j,ij->", w, w, f))


def test_oscillatory_integral_normalization():
    assert abs(oscillatory_integral(LINE, 0.0, [0.0], 4).value - 3.0) <= 1e-12
    assert abs(oscillatory_integral(HYPER, 0.0, [0.0, 0.0], 4).value - 9.0) <= 1e-12
    cross = parse_form_spec("mat:2:0,1,1,0")
    assert abs(oscillatory_integral(cross, 0.0, [0.0, 0.0], 4).value - 9.0) <= 1e-10


def test_oscillatory_integral_against_trapezoid():
    cross = parse_form_spec("mat:2:0,1,1,0")
    for beta, gamma in ((0.075, (0.2, -0.4)), (-0.03, (0.9, 0.15))):
        got = oscillatory_integral(cross, beta, gamma, 2)
        want = _osc_trapezoid(cross, beta, gamma, 2)
        assert abs(got.value - want) <= 1e-8
        assert got.error_estimate <= 1e-6
        assert len(got.orders) == 2


def test_oscillatory_integral_conjugation():
    for beta, gamma in ((0.01, (0.3, 0.7)), (0.002, (1.2, -0.4))):
        plus = oscillatory_integral(HYPER, beta, gamma, 8).value
        minus = oscillatory_integral(HYPER, -beta, [-g for g in gamma], 8).value
        assert abs(minus - np.conj(plus)) <= 1e-12


def test_oscillatory_integral_decay():
    # I(0, m/N; N) = kappa-hat(m): zero at nonzero integers, and bounded by
    # (1+m)^{-3} * mass off the integers
    for m in (2, 4, 8, 16):
        r = oscillatory_integral(LINE, 0.0, [m / 8], 8)
        assert abs(r.value) <= 1e-12
    for m in (2.5, 4.5, 8.5, 16.5):
        r = oscillatory_integral(LINE, 0.0, [m / 8], 8)
        assert abs(r.value) <= (1 + m) ** (-3.0) * 3.0


def test_oscillatory_integral_error_estimate_bounds_error():
    # I(0, gamma; N) on diag:1 is kappa-hat(N gamma), which bump.fourier
    # computes by another route (closed form on [0, 1])
    for N in (2, 8, 32):
        for gamma in (0.0, 0.1, 0.3, 1.7, 5.25):
            r = oscillatory_integral(LINE, 0.0, [gamma], N)
            err = abs(r.value - bump.fourier(N * gamma))
            assert err <= 2.0 * r.error_estimate + 1e-13, (N, gamma, err)


def _integral_dense(form, beta, values, N, orders):
    # the full tensor sum: every node, one exponential per (gamma, node), for
    # every gamma of the product set
    rules = [_composite_rule(o) for o in orders]
    nodes = np.meshgrid(*[x for x, _ in rules], indexing="ij")
    wgt = np.prod(np.meshgrid(*[w * bump(x) for x, w in rules], indexing="ij"), axis=0)
    R = sum(
        form.matrix[i][j] * nodes[i] * nodes[j]
        for i in range(form.dim) for j in range(form.dim)
    )
    out = []
    for gamma in itertools.product(*values):
        lin = sum(g * x for g, x in zip(gamma, nodes))
        out.append(np.sum(wgt * np.exp(2j * np.pi * (beta * N * N * R + N * lin))))
    return np.array(out).reshape([len(v) for v in values])


def test_integral_batch_axis_contraction_matches_dense_sum():
    rng = np.random.default_rng(31)
    cases = (
        (parse_form_spec("mat:2:0,1,1,0"), 3, (8, 11)),
        (parse_form_spec("mat:3:1,1,0,1,2,1,0,1,-1"), 2, (8, 9, 10)),
    )
    for form, N, orders in cases:
        values = [rng.uniform(-2.0, 2.0, n) for n in (3, 2, 4)[: form.dim]]
        beta = 0.05
        got = _integral_batch(form, beta, values, N, orders)
        want = _integral_dense(form, beta, values, N, orders)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13
        with pytest.raises(ValueError, match="tensor quadrature"):
            _integral_batch(form, beta, values, N, orders, max_nodes=100)


def _major_arc_values(theta, q, m_cut):
    # the layout major_arc_approx builds: theta_i - b/q - m over b in [0,q)
    # and |m| <= m_cut, q (2 m_cut + 1) values per axis
    m = np.arange(-m_cut, m_cut + 1)
    return [(t - np.arange(q)[:, None] / q - m).ravel() for t in theta]


def test_integral_batch_table_matches_one_point_calls():
    rng = np.random.default_rng(43)
    cases = (
        (parse_form_spec("diag:1,-1"), 4, (40, 40), None),
        (parse_form_spec("mat:2:0,1,1,0"), 3, (8, 11), None),
        # 3375 entries: compare a sample, since each one-point call is a 96^3 rule
        (parse_form_spec("mat:3:1,1,0,1,2,1,0,1,-1"), 2, (8, 9, 10), 24),
    )
    for form, N, orders, sample in cases:
        values = _major_arc_values(rng.random(form.dim), q=3, m_cut=2)
        beta = 0.03
        got = _integral_batch(form, beta, values, N, orders)
        assert got.shape == (15,) * form.dim
        entries = list(np.ndindex(got.shape))
        if sample is not None:
            entries = [entries[k] for k in rng.choice(len(entries), sample, replace=False)]
        for idx in entries:
            point = [v[k : k + 1] for v, k in zip(values, idx)]
            one = _integral_batch(form, beta, point, N, orders)
            assert one.shape == (1,) * form.dim
            assert abs(got[idx] - one.item()) <= 1e-13, (form, idx)


def _per_axis_integral(form, beta, values, N, orders):
    # _integral_batch in one slab, with the rule and the eta-weights built
    # afresh for every axis
    rules = [_composite_rule(o) for o in orders]
    weights = [w * bump(x) for x, w in rules]
    tables, order = [], []
    for ax, block in form.blocks:
        acc = (2j * np.pi * beta * N * N) * block.values_on([rules[i][0] for i in ax])
        acc = np.exp(acc) * functools.reduce(np.multiply.outer, [weights[i] for i in ax])
        for i in ax:
            row = np.exp(2j * np.pi * N * np.outer(values[i], rules[i][0]))
            acc = np.tensordot(acc, row, axes=([0], [1]))
        tables.append(0.0 + acc)
        order += ax
    return functools.reduce(np.multiply.outer, tables).transpose(np.argsort(order))


def test_integral_batch_weights_once_per_distinct_order(monkeypatch):
    calls = []

    def counted(x):
        calls.append(len(x))
        return bump(x)

    monkeypatch.setattr(expsum, "bump", counted)
    rng = np.random.default_rng(28)
    cases = (
        (HYPER, (64, 64), 1),
        (parse_form_spec("mat:2:0,1,1,0"), (32, 32), 1),
        (HYPER, (32, 64), 2),
    )
    for form, orders, distinct in cases:
        values = _major_arc_values(rng.random(2), q=3, m_cut=2)
        calls.clear()
        got = _integral_batch(form, 0.02, values, 4, orders)
        assert len(calls) == distinct, (form, orders, calls)
        assert np.array_equal(got, _per_axis_integral(form, 0.02, values, 4, orders))


def test_integral_batch_refuses_an_oversized_value_table():
    # 96^2 = 9216 nodes pass max_nodes, but 100 values per axis would make a
    # 100^2 table
    form = parse_form_spec("mat:2:0,1,1,0")
    values = list(np.random.default_rng(5).uniform(-2.0, 2.0, (2, 100)))
    with pytest.raises(ValueError, match="tensor quadrature"):
        _integral_batch(form, 0.0, values, 3, (8, 8), max_nodes=9216)
    fits = _integral_batch(form, 0.0, [v[:96] for v in values], 3, (8, 8), max_nodes=9216)
    assert fits.shape == (96, 96)


def test_major_arc_approx_matches_explicit_poisson_loop():
    # sum_b q^{-d} S(a,b;q) sum_{|m|_inf <= m_cut} N^d I(beta, theta - b/q - m; N)
    # term by term, with the approximant's own quadrature orders
    rng = np.random.default_rng(61)
    cases = (("diag:1,-1", 6, 3, 2), ("mat:2:0,1,1,0", 3, 2, 1), ("diag:1,1,-1", 2, 2, 1))
    for spec, N, q, m_cut in cases:
        form = parse_form_spec(spec)
        d = form.dim
        beta = float(rng.uniform(-1, 1)) / (8 * q * N)
        theta = rng.random(d)
        approx = major_arc_approx(form, SmoothWeight(d, N), 1, q, beta, theta, m_cut)
        orders = _axis_orders(form, beta, np.abs(theta) + 1.0 + m_cut, N)
        value, shell, terms = 0.0, 0.0, 0
        for b in itertools.product(range(q), repeat=d):
            s = gauss_sum(form, 1, b, q) / q**d
            for m in itertools.product(range(-m_cut, m_cut + 1), repeat=d):
                gamma = [[t - b_i / q - m_i] for t, b_i, m_i in zip(theta, b, m)]
                term = s * N**d * _integral_batch(form, beta, gamma, N, orders).item()
                value += term
                if max(abs(m_i) for m_i in m) == m_cut:
                    shell += term
                terms += 1
        assert abs(approx.value - value) <= 1e-13 * N**d, spec
        assert abs(approx.outer_shell - abs(shell)) <= 1e-13 * N**d, spec
        assert approx.terms == terms


def test_major_arc_approx_d3_nondiagonal_stays_small():
    # the 192^3 tensor rule of this input once took 5 s and 300 MB in one piece
    form = parse_form_spec("mat:3:0,1,0,1,0,0,0,0,1")
    tracemalloc.start()
    try:
        approx = major_arc_approx(form, SmoothWeight(3, 2), 1, 2, 0.0, [0.1, 0.2, 0.3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(approx.value - 1.9154513555130697) <= 1e-12 * 1.9154513555130697
    assert peak < 128 * 2**20


def test_integral_batch_on_blocks_matches_dense_sum_and_axis_order():
    rng = np.random.default_rng(47)
    form, permuted = (parse_form_spec(spec) for spec in BLOCK_FORMS)
    beta, N, orders = 0.04, 2, (8, 9, 10)
    values = [rng.uniform(-2.0, 2.0, n) for n in (3, 2, 4)]
    got = _integral_batch(form, beta, values, N, orders)
    want = _integral_dense(form, beta, values, N, orders)
    assert got.shape == (3, 2, 4)
    assert np.abs(got - want).max() <= 1e-13
    # swapping axes 1 and 2 of the inputs swaps them in the table, exactly
    swapped = _integral_batch(permuted, beta, [values[0], values[2], values[1]], N,
                              [orders[0], orders[2], orders[1]])
    assert np.array_equal(swapped, got.transpose(0, 2, 1))


def test_major_arc_approx_d3_blocks_past_the_full_rule():
    # 288^3 nodes for the full d = 3 rule, over max_nodes; the blocks need
    # 288^2 and 288
    form = parse_form_spec(BLOCK_FORMS[0])
    theta, N, q, m_cut = (0.1, 0.2, 0.3), 3, 2, 3
    values = _major_arc_values(theta, q, m_cut)
    orders = _axis_orders(form, 0.0, np.abs(theta) + 1.0 + m_cut, N)
    assert orders == [96, 96, 96]
    table = _integral_batch(form, 0.0, values, N, orders)
    finer = _integral_batch(form, 0.0, values, N, [2 * o for o in orders])
    assert np.abs(table - finer).max() <= 1e-12 * np.abs(table).max()
    approx = major_arc_approx(form, SmoothWeight(3, N), 1, q, 0.0, theta)
    assert np.isfinite(approx.value) and approx.terms == q**3 * (2 * m_cut + 1) ** 3


def test_oscillatory_integral_validation():
    with pytest.raises(ValueError):
        oscillatory_integral(HYPER, 0.0, [0.0], 4)


def test_major_arc_approx_at_rational_points():
    # alpha = a/q + beta with small beta and theta near a peak of |S(a,.;q)|
    rng = np.random.default_rng(19)
    N = 16
    w = SmoothWeight(1, N)
    for q in (1, 2, 3, 4):
        a = next(x for x in range(1, q + 1) if gcd(x, q) == 1)
        peak = np.abs(gauss_sum_table(LINE, a, q))
        b_star = int(np.argmax(peak))
        beta = float(rng.uniform(-1, 1)) / (16 * q * N)
        theta = [b_star / q + float(rng.uniform(-1, 1)) / (8 * N)]
        approx = major_arc_approx(LINE, w, a, q, beta, theta, m_cut=3)
        exact = smoothed_sum_direct(LINE, w, a / q + beta, theta)
        assert abs(approx.value - exact) <= 0.05 * abs(exact)
        assert approx.m_cut == 3
        assert approx.outer_shell <= 0.05 * abs(exact)


def test_major_arc_dominant_term():
    # q = 1 center: F(beta, 0) is close to the single integral N^d I(beta, 0)
    N = 16
    w = SmoothWeight(1, N)
    beta = 0.1 / N**2
    approx = major_arc_approx(LINE, w, 0, 1, beta, [0.0])
    lead = N * oscillatory_integral(LINE, beta, [0.0], N).value
    exact = smoothed_sum_direct(LINE, w, beta, [0.0])
    assert abs(approx.value - exact) <= 1e-6 * abs(exact)
    assert abs(lead - exact) <= 0.02 * abs(exact)


def test_major_arc_validation():
    w = SmoothWeight(1, 4)
    with pytest.raises(ValueError):
        major_arc_approx(LINE, w, 1, 2, 0.0, [0.0], m_cut=0)
    with pytest.raises(ValueError):
        major_arc_approx(LINE, w, 1, 2, 0.0, [0.0, 0.0])
    with pytest.raises(ValueError, match="gcd"):
        major_arc_approx(LINE, w, 2, 4, 0.0, [0.0])


def test_major_arc_majorant_constant():
    # record C = sup |F| * q^{0.9} * max(1/N^2, |beta|) over sampled points;
    # measured 3.1215 for this seed, frozen here as a regression cap
    N = 32
    w = SmoothWeight(2, N)
    rng = np.random.default_rng(7)
    C = 0.0
    for _ in range(50):
        q = int(rng.integers(1, 9))
        a = int(rng.integers(1, q + 1))
        while gcd(a, q) != 1:
            a = int(rng.integers(1, q + 1))
        beta = float(rng.uniform(-1, 1)) / (q * N)
        if rng.random() < 0.5:
            tb = np.abs(gauss_sum_table(HYPER, a, q))
            b_star = np.unravel_index(int(np.argmax(tb)), tb.shape)
            theta = np.array(b_star, float) / q + rng.uniform(-1, 1, 2) / (8 * N)
        else:
            theta = rng.random(2)
        val = abs(smoothed_sum_direct(HYPER, w, a / q + beta, theta))
        majorant = q**-0.9 * min(float(N) ** 2, np.inf if beta == 0 else 1 / abs(beta))
        C = max(C, val / majorant)
    assert 1.0 <= C <= 5.0
