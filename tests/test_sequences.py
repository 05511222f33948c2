"""Coefficient sequences, the smooth weight, and file round trips."""

import functools
import io
import tracemalloc

import numpy as np
import pytest

from quadsums import (
    CoefficientSequence,
    SmoothWeight,
    delta_sequence,
    diagonal_extremizer,
    load_sequence,
    make_sequence,
    ones_sequence,
    random_unit_sequence,
    save_sequence,
)
from quadsums.bump import bump
from quadsums.expsum import TorusGrid
from quadsums.moments import build_report, representation_count
from quadsums.quadform import parse_form_spec
from quadsums.sequences import _product_sequence


def test_shape_validation():
    with pytest.raises(ValueError):
        CoefficientSequence(2, 3, np.zeros((7, 5)))
    with pytest.raises(ValueError):
        CoefficientSequence(1, 3, np.zeros((6,)))


def test_norms_and_normalized():
    seq = ones_sequence(2, 2)
    assert seq.l2_norm == 5.0
    assert seq.l1_norm == 25.0
    unit = seq.normalized()
    assert abs(unit.l2_norm - 1.0) <= 1e-15
    with pytest.raises(ValueError):
        CoefficientSequence(1, 1, np.zeros(3)).normalized()


def test_delta_sequence():
    seq = delta_sequence(2, 3)
    assert seq.l2_norm == 1.0
    assert seq[(0, 0)] == 1.0
    assert seq[(1, -2)] == 0.0


def test_getitem_indexing():
    vals = np.arange(25, dtype=float).reshape(5, 5)
    seq = CoefficientSequence(2, 2, vals)
    assert seq[(-2, -2)] == 0.0
    assert seq[(0, 0)] == 12.0
    assert seq[(2, 2)] == 24.0
    assert seq[(1, -1)] == vals[3, 1]


def test_diagonal_extremizer():
    seq = diagonal_extremizer(2, 4, 1)
    assert seq.l2_norm == 2.0
    assert seq[(1, 1)] == 1.0 and seq[(4, 4)] == 1.0
    assert seq[(1, 2)] == 0.0 and seq[(0, 0)] == 0.0
    with pytest.raises(ValueError):
        diagonal_extremizer(2, 4, 2)
    with pytest.raises(ValueError):
        diagonal_extremizer(3, 4, 0)
    # one shared parameter n across all pairs: support is (n, n, ..., n)
    d4 = diagonal_extremizer(4, 3, 2)
    assert d4[(2, 2, 2, 2)] == 1.0
    assert d4[(1, 3, 1, 3)] == 0.0
    assert abs(d4.l2_norm - 3**0.5) <= 1e-12


def test_random_unit_sequence():
    seq = random_unit_sequence(2, 3, seed=9)
    assert abs(seq.l2_norm - 1.0) <= 1e-12
    again = random_unit_sequence(2, 3, seed=9)
    assert np.array_equal(seq.values, again.values)
    other = random_unit_sequence(2, 3, seed=10)
    assert not np.array_equal(seq.values, other.values)


def test_make_sequence_families():
    assert make_sequence("ones", 1, 3).l1_norm == 7.0
    assert make_sequence("delta", 2, 2).l2_norm == 1.0
    assert make_sequence("extremizer", 2, 5, s=1).l2_norm == np.sqrt(5.0)
    assert abs(make_sequence("random-unit", 1, 4, seed=3).l2_norm - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        make_sequence("unknown", 1, 3)


def test_smooth_weight_profile():
    N = 8
    w = SmoothWeight(2, N)
    assert w.radius == 2 * N - 1
    seq = w.as_sequence()
    assert seq[(0, 0)] == 1.0
    assert seq[(N, 0)] == 1.0
    assert seq[(2 * N - 1, 2 * N - 1)] == bump((2 * N - 1) / N) ** 2
    prof = w.profile()
    assert prof.shape == (2 * w.radius + 1,)
    n = np.arange(-w.radius, w.radius + 1)
    assert np.abs(prof - bump(n / N)).max() == 0.0


def test_smooth_weight_is_product_sequence():
    w = SmoothWeight(2, 3)
    assert isinstance(w, CoefficientSequence) and w.as_sequence() is w
    assert (w.dim, w.N, w.radius, w.label) == (2, 3, 5, "weight")
    # the bits the separate adapter built: the profile's outer product
    row = bump(np.arange(-5, 6) / 3)
    old = _product_sequence((row, row), "weight")
    assert w.values.tobytes() == old.values.tobytes()
    assert [f.tobytes() for f in w.factors] == [f.tobytes() for f in old.factors]
    assert w.profile().dtype == np.float64 and w.profile().tobytes() == row.tobytes()
    # a report on the weight uses its N, not its radius
    grid = TorusGrid(2, 40, 11, (0.0, 0.0, 0.0))
    report = build_report(parse_form_spec("diag:1,-1"), w, [grid], 4)
    assert report.N == 3 and report.json_dict()["N"] == 3
    assert report.threshold == 3 ** 0.5 * w.l2_norm
    with pytest.raises(ValueError, match="dim and N must be positive"):
        SmoothWeight(2, 0)


def test_save_load_round_trip():
    rng = np.random.default_rng(17)
    vals = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    seq = CoefficientSequence(2, 2, vals)
    buf = io.StringIO()
    save_sequence(seq, buf)
    buf.seek(0)
    back = load_sequence(buf)
    assert back.dim == 2 and back.radius == 2
    assert np.array_equal(back.values, seq.values)


def test_values_read_only():
    seq = ones_sequence(1, 2)
    with pytest.raises(ValueError):
        seq.values[0] = 5.0
    # the sequence holds its own copies; the caller's arrays stay writable
    vals, one = np.ones((3, 3), dtype=np.complex128), np.ones(3, dtype=np.complex128)
    CoefficientSequence(2, 1, vals, factors=(one, one))
    assert vals.flags.writeable and one.flags.writeable


def test_factors_must_match_values():
    one = np.ones(5)
    vals = np.ones((5, 5))
    seq = CoefficientSequence(2, 2, vals, factors=(one, one))
    assert len(seq.factors) == 2
    bumped = vals.copy()
    bumped[1, 3] = 1.0 + 2.0**-40
    with pytest.raises(ValueError, match="outer product"):
        CoefficientSequence(2, 2, bumped, factors=(one, one))
    with pytest.raises(ValueError, match="outer product"):
        CoefficientSequence(2, 2, vals, factors=(one, 2 * one))


def test_factors_shape_validation():
    one = np.ones(5)
    vals = np.ones((5, 5))
    for facs in ((one,), (one, one, one), (one, np.ones(4)), (one, np.ones((5, 1)))):
        with pytest.raises(ValueError, match="factors must be"):
            CoefficientSequence(2, 2, vals, factors=facs)


def test_factors_read_only():
    for seq in (ones_sequence(2, 2), delta_sequence(2, 2), SmoothWeight(2, 2).as_sequence()):
        assert seq.factors is not None and len(seq.factors) == 2
        for f in seq.factors:
            assert f.shape == (2 * seq.radius + 1,)
            with pytest.raises(ValueError):
                f[0] = 5.0


def test_normalized_keeps_factors():
    for seq in (ones_sequence(2, 3), delta_sequence(2, 3), ones_sequence(3, 2)):
        unit = seq.normalized()
        assert unit.factors is not None and unit.label == seq.label
        assert np.array_equal(unit.values, seq.values / seq.l2_norm)
        assert unit.values.tobytes() == (seq.values / seq.l2_norm).tobytes()
    w = SmoothWeight(2, 3).as_sequence().normalized()
    assert np.array_equal(w.factors[1], SmoothWeight(2, 3).as_sequence().factors[1])
    assert abs(w.l2_norm - 1.0) <= 1e-14


def test_only_product_families_declare_factors():
    assert make_sequence("ones", 2, 3).factors is not None
    assert make_sequence("delta", 2, 3).factors is not None
    assert make_sequence("random-unit", 2, 3, seed=1).factors is None
    assert make_sequence("extremizer", 2, 3, s=1).factors is None
    buf = io.StringIO()
    save_sequence(ones_sequence(2, 1), buf)
    buf.seek(0)
    assert load_sequence(buf).factors is None


def test_sequences_compare_by_identity():
    seq, copy = ones_sequence(1, 1), ones_sequence(1, 1)
    assert seq == seq and seq != copy and not seq == copy
    w = SmoothWeight(1, 2)
    assert w == w and w != SmoothWeight(1, 2)
    assert len({seq, copy, w, seq}) == 3
    assert {seq: 1, copy: 2}[seq] == 1


def test_getitem_off_the_box_reads_zero():
    seq = random_unit_sequence(1, 3, seed=1)
    assert seq[(3,)] == seq.values[6] and seq[(-3,)] == seq.values[0]
    for n in ((-5,), (-4,), (4,), (100,)):
        assert seq[n] == 0 and isinstance(seq[n], complex)
    assert ones_sequence(2, 1)[(2, 0)] == 0 and ones_sequence(2, 1)[(0, -2)] == 0
    for n in ((), (0, 0), (9, 9)):
        with pytest.raises(ValueError, match="index must have length 1"):
            seq[n]


def test_factors_alone_build_values():
    rng = np.random.default_rng(5)
    cases = [
        (rng.standard_normal(7),),
        (rng.standard_normal(5), rng.standard_normal(5)),
        (rng.standard_normal(3), -np.ones(3), rng.integers(-4, 5, 3)),
        (rng.standard_normal(5), rng.standard_normal(5) + 1j * rng.standard_normal(5)),
        (np.array([True, False, True]), np.array([1.0, -2.0, 3.0])),
    ]
    for fs in cases:
        seq = CoefficientSequence(len(fs), len(fs[0]) // 2, None, factors=fs)
        as_complex = [np.asarray(f, dtype=np.complex128) for f in fs]
        want = functools.reduce(np.multiply.outer, as_complex)
        assert seq.values.dtype == np.complex128 and seq.values.shape == want.shape
        assert seq.values.tobytes() == want.tobytes()
        assert not seq.values.flags.writeable
        assert all(not f.flags.writeable for f in seq.factors)
        assert all(f.flags.writeable for f in fs)
    # nonnegative real factors, as the library's products have: the bits of
    # the real outer product cast to complex128
    for fs in ((np.ones(9),) * 3, (bump(np.arange(-5, 6) / 3), np.arange(11.0))):
        seq = CoefficientSequence(len(fs), len(fs[0]) // 2, None, factors=fs)
        want = np.asarray(functools.reduce(np.multiply.outer, fs), dtype=np.complex128)
        assert seq.values.tobytes() == want.tobytes()


def test_values_or_factors_must_be_given():
    with pytest.raises(ValueError, match="values may be None only when factors are given"):
        CoefficientSequence(2, 1, None)
    one = np.ones(3)
    for facs in ((), (one,), (one, one, one), (one, np.ones(4))):
        with pytest.raises(ValueError, match="factors must be"):
            CoefficientSequence(2, 1, None, factors=facs)


def _peak(build):
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_product_sequences_are_built_once():
    # peak traced bytes over the bytes of `values`: the d-dim array is
    # allocated once, with no second outer product, copy or re-check
    seq, peak = _peak(lambda: ones_sequence(3, 24))
    assert peak <= 1.5 * seq.values.nbytes
    unit, peak = _peak(seq.normalized)
    assert peak <= 1.5 * unit.values.nbytes
    w, peak = _peak(lambda: SmoothWeight(2, 128))
    assert peak <= 1.5 * w.values.nbytes
    seq = ones_sequence(4, 16)
    form = parse_form_spec("diag:1,1,-1,-1")
    _, peak = _peak(lambda: representation_count(form, seq, 4))
    assert peak <= 3.0 * seq.values.nbytes


def test_other_sequences_are_built_once():
    # the fresh array a builder makes is the sequence's own, with no copy;
    # random-unit draws its real parts, then its imaginary parts, in place
    seq, peak = _peak(lambda: random_unit_sequence(3, 24, seed=1))
    assert peak <= 1.6 * seq.values.nbytes
    for d, r, s in ((1, 5, 0), (2, 7, 1), (3, 24, 1)):
        rng = np.random.default_rng(s)
        shape = (2 * r + 1,) * d
        want = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want /= np.linalg.norm(want.ravel())
        assert random_unit_sequence(d, r, seed=s).values.tobytes() == want.tobytes()
    unit, peak = _peak(seq.normalized)
    assert peak <= 1.1 * unit.values.nbytes
    ext, peak = _peak(lambda: diagonal_extremizer(4, 8, 2))
    assert peak <= 1.1 * ext.values.nbytes
    for s in (seq, unit, ext):
        assert not s.values.flags.writeable
        with pytest.raises(ValueError):
            s.values.flat[0] = 5.0
