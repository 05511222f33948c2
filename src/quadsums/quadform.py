"""Integer quadratic forms: exact evaluation, signature, rational diagonalization.

A form is a symmetric d x d integer matrix M acting as R(n) = n^T M n.
Diagonalization is Lagrange's completing-the-square over exact rationals, one
rank-one step per coefficient in the form's own coordinates, returning
R(v) = sum_i D_i (T v)_i^2 with T rational (rows normalized to primitive
integer vectors) and D_i nonzero rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "QuadraticForm",
    "RationalDiagonalization",
    "evaluate",
    "signature",
    "signature_by_charpoly",
    "diagonalize_rational",
    "frequency_bound",
    "parse_form_spec",
]


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric integer matrix; rejects asymmetric or degenerate input.

    `blocks` pairs each connected component of the graph with an edge i-j
    where M_ij != 0 (ascending axes, ordered by the first) with the form M
    restricted to it, so R(n) is the sum of the blocks' forms on their own
    axes. A diagonal form is d blocks of one axis; an irreducible form is one
    block, paired with itself.
    """

    matrix: tuple[tuple[int, ...], ...]
    dim: int

    def __init__(self, matrix):
        rows = [list(r) for r in matrix]
        d = len(rows)
        if d == 0 or any(len(r) != d for r in rows):
            raise ValueError("form matrix must be square and non-empty")
        for i in range(d):
            for j in range(d):
                v = rows[i][j]
                if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                    raise ValueError(
                        f"form matrix entries must be integers, got M[{i},{j}]={v!r}"
                    )
                rows[i][j] = int(v)
        bad = [
            (i, j, rows[i][j], rows[j][i])
            for i in range(d)
            for j in range(i + 1, d)
            if rows[i][j] != rows[j][i]
        ]
        if bad:
            i, j, a, b = bad[0]
            raise ValueError(
                f"form matrix not symmetric: M[{i},{j}]={a} but M[{j},{i}]={b}"
            )
        if _charpoly_int(rows)[-1] == 0:  # (-1)^d det M
            raise ValueError("form matrix is degenerate (determinant zero)")
        object.__setattr__(self, "matrix", tuple(tuple(r) for r in rows))
        object.__setattr__(self, "dim", d)
        parts: list[set[int]] = []
        for i in range(d):
            linked = [c for c in parts if any(rows[i][j] for j in c)]
            parts = [c for c in parts if c not in linked] + [{i}.union(*linked)]
        blocks = []
        for ax in sorted(tuple(sorted(c)) for c in parts):
            sub = [[rows[i][j] for j in ax] for i in ax]
            blocks.append((ax, self if len(ax) == d else QuadraticForm(sub)))
        object.__setattr__(self, "blocks", tuple(blocks))

    def __call__(self, n: Sequence[int]) -> int:
        return evaluate(self, n)

    def row_abs_sum(self) -> int:
        return sum(abs(v) for row in self.matrix for v in row)

    def is_diagonal(self) -> bool:
        return len(self.blocks) == self.dim

    def values_on(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """R on the product of the coordinate axes, in their dtype; entry
        [i_1, ..., i_d] is R(axes[0][i_1], ..., axes[d-1][i_d])."""
        grids = np.meshgrid(*axes, indexing="ij", sparse=True)
        out = np.zeros([len(a) for a in axes], dtype=np.result_type(*axes))
        for i in range(self.dim):
            for j in range(self.dim):
                m = self.matrix[i][j]
                if m:
                    out += m * grids[i] * grids[j]
        return out

    def values_on_grid(self, radius: int) -> np.ndarray:
        """R(n) for n in [-radius, radius]^d as an int64 array, index n+radius."""
        axis = np.arange(-radius, radius + 1, dtype=np.int64)
        return self.values_on([axis] * self.dim)


@dataclass(frozen=True)
class RationalDiagonalization:
    """R(v) = sum_i coeffs[i] * (transform @ v)[i]^2, exactly.

    Rows of `transform` are primitive integer vectors (squares absorbed into
    `coeffs`), so transform maps Z^d into Z^d.
    """

    transform: tuple[tuple[int, ...], ...]
    coeffs: tuple[Fraction, ...]

    def evaluate(self, v: Sequence[int]) -> Fraction:
        w = [sum(r * int(x) for r, x in zip(row, v)) for row in self.transform]
        return sum(
            (c * wi * wi for c, wi in zip(self.coeffs, w)),
            start=Fraction(0),
        )


def evaluate(form: QuadraticForm, n: Sequence[int]) -> int:
    """n^T M n with exact integer arithmetic."""
    v = [int(x) for x in n]
    if len(v) != form.dim:
        raise ValueError(f"expected a length-{form.dim} vector, got {len(v)}")
    M = form.matrix
    return sum(M[i][j] * v[i] * v[j] for i in range(form.dim) for j in range(form.dim))


def _mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)] for i in range(n)
    ]


def diagonalize_rational(form: QuadraticForm) -> RationalDiagonalization:
    """Lagrange diagonalization over Q, in the form's own coordinates.

    One rank-one step, repeated on the remaining matrix A (at first M): take
    w = e_i at the first nonzero diagonal entry of A, or else w = e_i + e_j at
    the first nonzero off-diagonal entry (i < j), so c = w^T A w != 0 (it is
    2 A_ij on a zero diagonal). Record the functional (A w) / c with
    coefficient c, and set A <- A - (A w)(A w)^T / c: then
    v^T A v = c ((A w) / c . v)^2 + v^T A' v, and A' w = 0 lowers the rank.
    """
    d = form.dim
    A = [[Fraction(v) for v in row] for row in form.matrix]
    raw_rows: list[list[Fraction]] = []
    raw_coeffs: list[Fraction] = []
    # each w by its support: every e_i first, then every e_i + e_j
    supports = [(i,) for i in range(d)]
    supports += [(i, j) for i in range(d) for j in range(i + 1, d)]
    while w := next((s for s in supports if A[s[0]][s[-1]]), None):
        Aw = [sum(row[k] for k in w) for row in A]
        c = sum(Aw[k] for k in w)
        func = [a / c for a in Aw]
        raw_rows.append(func)
        raw_coeffs.append(c)
        for r in range(d):
            if Aw[r]:
                A[r] = [a - Aw[r] * f for a, f in zip(A[r], func)]

    if len(raw_rows) != d:
        raise ValueError("degenerate form slipped through construction checks")

    # normalize rows to primitive integer vectors, pushing squares into coeffs
    rows_int: list[tuple[int, ...]] = []
    coeffs: list[Fraction] = []
    for func, c in zip(raw_rows, raw_coeffs):
        den = lcm(*(f.denominator for f in func))
        ints = [int(f * den) for f in func]
        g = 0
        for v in ints:
            g = gcd(g, v)
        scale = Fraction(den, g)  # func * scale = primitive integer vector
        ints = [v // g for v in ints]
        if next(v for v in ints if v != 0) < 0:
            ints = [-v for v in ints]
        coeffs.append(c / (scale * scale))
        rows_int.append(tuple(ints))

    result = RationalDiagonalization(tuple(rows_int), tuple(coeffs))

    # exact matrix identity M = T^T D T guards the whole construction
    T = [[Fraction(v) for v in row] for row in result.transform]
    DT = [[result.coeffs[i] * T[i][j] for j in range(d)] for i in range(d)]
    Tt = [[T[i][j] for i in range(d)] for j in range(d)]
    M_back = _mat_mul(Tt, DT)
    if any(
        M_back[i][j] != form.matrix[i][j] for i in range(d) for j in range(d)
    ):
        raise AssertionError("diagonalization round-trip failed")
    return result


def signature(form: QuadraticForm) -> tuple[int, int, int]:
    """(positives, negatives, s = min of the two) by Sylvester's law."""
    diag = diagonalize_rational(form)
    pos = sum(1 for c in diag.coeffs if c > 0)
    neg = sum(1 for c in diag.coeffs if c < 0)
    return pos, neg, min(pos, neg)


def _charpoly_int(matrix) -> list[int]:
    """Coefficients of det(x I - M), highest degree first, by Faddeev-LeVerrier
    in integers (each trace is divisible by its k); the last coefficient is
    (-1)^d det M."""
    d = len(matrix)
    coeffs = [1]
    Mk = [[int(i == j) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        Mk = _mat_mul(matrix, Mk)
        trace = sum(Mk[i][i] for i in range(d))
        assert trace % k == 0
        c = -(trace // k)
        coeffs.append(c)
        for i in range(d):
            Mk[i][i] += c
    return coeffs


def signature_by_charpoly(form: QuadraticForm) -> tuple[int, int, int]:
    """Independent signature route: Descartes' rule on the characteristic
    polynomial, exact because symmetric matrices have all-real spectra."""

    def variations(seq: Iterable[int]) -> int:
        signs = [1 if c > 0 else -1 for c in seq if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    coeffs = _charpoly_int(form.matrix)
    pos = variations(coeffs)
    neg_coeffs = [c if k % 2 == 0 else -c for k, c in enumerate(coeffs)]
    neg = variations(neg_coeffs)
    return pos, neg, min(pos, neg)


def frequency_bound(form: QuadraticForm, N: int) -> int:
    """Upper bound 4 N^2 sum_ij |M_ij| for |R(n)| over |n|_inf <= 2N."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    return 4 * N * N * form.row_abs_sum()


def parse_form_spec(text: str) -> QuadraticForm:
    """Parse 'diag:c1,...,cd' or 'mat:d:m11,...,mdd' (row-major flat list)."""
    text = text.strip()
    try:
        if text.startswith("diag:"):
            entries = [int(v) for v in text[5:].split(",") if v.strip() != ""]
            if not entries:
                raise ValueError("empty diagonal")
            d = len(entries)
            return QuadraticForm(
                [[entries[i] if i == j else 0 for j in range(d)] for i in range(d)]
            )
        if text.startswith("mat:"):
            head, _, rest = text[4:].partition(":")
            d = int(head)
            flat = [int(v) for v in rest.split(",") if v.strip() != ""]
            if d < 1 or len(flat) != d * d:
                raise ValueError(
                    f"mat spec wants {d}*{d}={d*d} entries, got {len(flat)}"
                )
            return QuadraticForm([flat[i * d : (i + 1) * d] for i in range(d)])
    except ValueError as exc:
        raise ValueError(f"bad form spec {text!r}: {exc}") from None
    raise ValueError(f"bad form spec {text!r}: expected 'diag:...' or 'mat:d:...'")
