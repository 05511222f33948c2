"""Integer quadratic form arithmetic, diagonalization, and signatures."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from quadsums import (
    QuadraticForm,
    diagonalize_rational,
    evaluate,
    frequency_bound,
    parse_form_spec,
    signature,
    signature_by_charpoly,
)


def test_evaluate_examples():
    q = QuadraticForm(np.diag([1, 1]))
    assert evaluate(q, (1, 2)) == 5
    q2 = QuadraticForm(np.diag([3]))
    assert evaluate(q2, (2,)) == 12
    hyper = QuadraticForm(np.diag([1, -1]))
    assert evaluate(hyper, (7, 7)) == 0
    # off-diagonal entries count twice: x^2 + 2xy with M = [[1,1],[1,0]]
    mixed = QuadraticForm(np.array([[1, 1], [1, 0]]))
    assert evaluate(mixed, (2, 3)) == 4 + 12


def test_call_matches_evaluate():
    rng = np.random.default_rng(5)
    q = QuadraticForm(np.array([[2, 1], [1, -3]]))
    for p in rng.integers(-9, 10, size=(50, 2)):
        assert q(p) == evaluate(q, p)


def test_validation_errors():
    with pytest.raises(ValueError, match="not symmetric"):
        QuadraticForm(np.array([[1, 2], [0, 1]]))
    with pytest.raises(ValueError, match="must be integers"):
        QuadraticForm(np.array([[1.5]]))
    with pytest.raises(ValueError, match="degenerate"):
        QuadraticForm(np.array([[1, 1], [1, 1]]))
    with pytest.raises(ValueError, match="degenerate"):
        QuadraticForm(np.zeros((2, 2), dtype=int))


def _leibniz_det(rows):
    # sum over permutations of sign(perm) * prod_i M[i][perm(i)]
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(
            1 for i in range(len(perm)) for j in range(i + 1, len(perm))
            if perm[i] > perm[j]
        )
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_degenerate_exactly_when_determinant_zero():
    rng = np.random.default_rng(53)
    seen_singular = 0
    for trial in range(600):
        dim = 1 + trial % 4
        upper = rng.integers(-3, 4, size=(dim, dim))
        m = np.triu(upper) + np.triu(upper, 1).T
        if dim >= 2 and trial % 3 == 1:
            # a repeated row (and column, to stay symmetric)
            i, j = rng.choice(dim, size=2, replace=False)
            m[j, :] = m[i, :]
            m[:, j] = m[:, i]
        elif dim >= 3 and trial % 3 == 2:
            # a row that is the sum of two others, by congruence so M stays
            # symmetric: M <- E M E^T with E adding rows i and j into row k
            i, j, k = rng.choice(dim, size=3, replace=False)
            e = np.eye(dim, dtype=np.int64)
            e[k, :] = e[i, :] + e[j, :]
            m = e @ m @ e.T
        rows = [[int(v) for v in row] for row in m]
        det = _leibniz_det(rows)
        if det == 0:
            seen_singular += 1
            with pytest.raises(ValueError, match="degenerate"):
                QuadraticForm(rows)
        else:
            assert QuadraticForm(rows).matrix == tuple(map(tuple, rows))
    assert seen_singular >= 150


def test_signature_examples():
    assert signature(QuadraticForm(np.diag([1, -1]))) == (1, 1, 1)
    assert signature(QuadraticForm(np.diag([1, 1, 1]))) == (3, 0, 0)
    assert signature(QuadraticForm(np.array([[0, 1], [1, 0]]))) == (1, 1, 1)
    assert signature(QuadraticForm(np.diag([-2, -5]))) == (0, 2, 0)


def _random_form(rng, dim):
    while True:
        m = rng.integers(-4, 5, size=(dim, dim))
        m = m + m.T
        if round(float(np.linalg.det(m))) != 0:
            return QuadraticForm(m)


def test_signature_dual_route():
    # eigenvalue-sign counting vs characteristic-polynomial route
    rng = np.random.default_rng(11)
    for _ in range(1000):
        dim = int(rng.integers(1, 5))
        form = _random_form(rng, dim)
        assert signature(form) == signature_by_charpoly(form)


def test_diagonalize_hyperbolic_plane():
    form = QuadraticForm(np.array([[0, 1], [1, 0]]))
    diag = diagonalize_rational(form)
    assert [list(row) for row in diag.transform] == [[1, 1], [1, -1]]
    assert list(diag.coeffs) == [Fraction(1, 2), Fraction(-1, 2)]


def test_diagonalize_round_trip_exact():
    rng = np.random.default_rng(23)
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        form = _random_form(rng, dim)
        diag = diagonalize_rational(form)
        for _ in range(10):
            v = [int(x) for x in rng.integers(-20, 21, size=dim)]
            lhs = Fraction(evaluate(form, v))
            assert diag.evaluate(v) == lhs


def test_diagonalize_signature_consistent():
    rng = np.random.default_rng(31)
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        form = _random_form(rng, dim)
        diag = diagonalize_rational(form)
        pos = sum(1 for c in diag.coeffs if c > 0)
        neg = sum(1 for c in diag.coeffs if c < 0)
        assert (pos, neg, min(pos, neg)) == signature(form)


def test_frequency_bound_values():
    # 4 N^2 times the total absolute entry sum
    assert frequency_bound(QuadraticForm(np.diag([1])), 1) == 4
    assert frequency_bound(QuadraticForm(np.diag([1, -1])), 4) == 128
    assert frequency_bound(QuadraticForm(np.array([[0, 1], [1, 0]])), 2) == 32


def test_frequency_bound_dominates_range():
    # every value R(n) with |n|_inf < 2N stays inside the bound
    rng = np.random.default_rng(43)
    for _ in range(25):
        dim = int(rng.integers(1, 3))
        form = _random_form(rng, dim)
        for N in (1, 2, 4, 8):
            vals = form.values_on_grid(2 * N - 1)
            assert np.abs(vals).max() <= frequency_bound(form, N)


def test_frequency_bound_rejects_bad_N():
    with pytest.raises(ValueError):
        frequency_bound(QuadraticForm(np.diag([1])), 0)


def test_values_on_grid_matches_evaluate():
    form = QuadraticForm(np.array([[1, 2], [2, -1]]))
    r = 3
    vals = form.values_on_grid(r)
    assert vals.dtype == np.int64
    axis = np.arange(-r, r + 1)
    for i, x in enumerate(axis):
        for j, y in enumerate(axis):
            assert vals[i, j] == evaluate(form, (x, y))
    # values_on: float axes give float R, residue axes [0, q) per axis
    xs, ys = np.array([-1.5, 0.25, 2.0]), np.array([0.5, -3.0])
    fvals = form.values_on([xs, ys])
    assert fvals.dtype == np.float64 and fvals.shape == (3, 2)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert fvals[i, j] == x * x + 4 * x * y - y * y
    q = 5
    res = form.values_on([np.arange(q)] * 2)
    for u in range(q):
        for v in range(q):
            assert res[u, v] == evaluate(form, (u, v))


def test_parse_form_spec():
    assert parse_form_spec("diag:1,-1").matrix == ((1, 0), (0, -1))
    assert parse_form_spec("mat:2:0,1,1,0").matrix == ((0, 1), (1, 0))
    assert parse_form_spec("diag:5").matrix == ((5,),)
    with pytest.raises(ValueError, match="bad form spec"):
        parse_form_spec("diag:")
    with pytest.raises(ValueError, match="bad form spec"):
        parse_form_spec("mat:2:1,2,3")
    with pytest.raises(ValueError, match="bad form spec"):
        parse_form_spec("banana")


def test_row_abs_sum_and_is_diagonal():
    form = QuadraticForm(np.array([[1, -2], [-2, 3]]))
    assert form.row_abs_sum() == 8
    assert not form.is_diagonal()
    assert QuadraticForm(np.diag([4, 4])).is_diagonal()


def test_blocks_of_named_forms():
    cases = (
        ("diag:1,-1", [((0,), ((1,),)), ((1,), ((-1,),))]),
        ("mat:2:0,1,1,0", [((0, 1), ((0, 1), (1, 0)))]),
        ("mat:3:1,1,0,1,2,1,0,1,-1", [((0, 1, 2), ((1, 1, 0), (1, 2, 1), (0, 1, -1)))]),
        # 2 x0 x1 + x2^2, and the same with the coupled axes at {0, 2}
        ("mat:3:0,1,0,1,0,0,0,0,1", [((0, 1), ((0, 1), (1, 0))), ((2,), ((1,),))]),
        ("mat:3:0,0,1,0,1,0,1,0,0", [((0, 2), ((0, 1), (1, 0))), ((1,), ((1,),))]),
    )
    for spec, want in cases:
        form = parse_form_spec(spec)
        assert [(ax, block.matrix) for ax, block in form.blocks] == want, spec
        assert form.is_diagonal() == (len(want) == form.dim)
        if len(want) == 1:
            assert form.blocks[0][1] is form


def _connected_block(rng, size):
    # a path of nonzero couplings keeps the block's graph connected
    while True:
        m = rng.integers(-3, 4, (size, size))
        m = np.triu(m) + np.triu(m, 1).T
        for i in range(size - 1):
            if m[i, i + 1] == 0:
                m[i, i + 1] = m[i + 1, i] = rng.choice([-2, -1, 1, 2])
        try:
            return QuadraticForm(m)
        except ValueError:
            continue  # degenerate


def test_blocks_recover_permuted_block_diagonal_forms():
    rng = np.random.default_rng(909)
    for _ in range(60):
        sizes = [int(s) for s in rng.integers(1, 4, rng.integers(1, 4))]
        d = sum(sizes)
        parts = [_connected_block(rng, s) for s in sizes]
        # axis k of the block-diagonal matrix becomes axis perm[k]
        perm = rng.permutation(d)
        m = np.zeros((d, d), dtype=np.int64)
        want, k = [], 0
        for part, s in zip(parts, sizes):
            axes = perm[k : k + s]
            m[np.ix_(axes, axes)] = part.matrix
            want.append(tuple(sorted(int(a) for a in axes)))
            k += s
        form = QuadraticForm(m)
        assert [ax for ax, _ in form.blocks] == sorted(want)
        for ax, block in form.blocks:
            assert block.matrix == tuple(tuple(int(m[i, j]) for j in ax) for i in ax)
        for _ in range(5):
            n = [int(x) for x in rng.integers(-9, 10, d)]
            assert form(n) == sum(block([n[i] for i in ax]) for ax, block in form.blocks)
