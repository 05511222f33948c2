"""Moments, truncated moments and level sets of |F| over the torus.

Two routes to the p-th moment: an exact counting oracle for even p (the
p/2-fold self-convolution of the coefficients, bucketed by the frequency key
(sum R(n_i), sum n_i)), and equal-weight quadrature over a TorusGrid, which is
itself exact once the grid outruns the trigonometric degree of |F|^p.

The oracle folds sparse buckets: mixed-radix int64 keys added up with
`np.add.at`, keeping only nonzero buckets, at S x nnz work per level. Inputs
whose nonzero coefficients share one value take a counting path in integers
(exact for 0/1 coefficients); others fold real and imaginary parts in
float64. Its `max_entries` budget caps the key table, which bounds memory but
not work. A form of two or more blocks with a product sequence whose factors
are constant on their supports (ones, delta) is counted per block instead:
one fold and one FFT correlation per distinct block table, combined in exact
integers.
"""

from __future__ import annotations

import json
import math
import operator
from functools import reduce
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import expsum
from .quadform import QuadraticForm
from .expsum import TorusGrid, _block_fields, _r_grid, iter_field_chunks
from .sequences import CoefficientSequence, SmoothWeight

__all__ = [
    "RepresentationCount",
    "MomentReport",
    "even_moment_exact",
    "representation_count",
    "nyquist_sizes",
    "nyquist_grid",
    "nyquist_sufficient",
    "FieldScan",
    "scan_field",
    "layer_cake_moment",
    "build_report",
    "default_levels",
    "report_csv_header",
    "report_csv_row",
]


# ---------------------------------------------------------------------------
# exact even moments

def _support(form: QuadraticForm, seq: CoefficientSequence):
    """Nonzero coefficients with their 0-based box coordinates and R values."""
    vals = seq.values.ravel()
    nz = np.flatnonzero(vals)
    coords = np.unravel_index(nz, seq.values.shape)
    r_vals = form.values_on_grid(seq.radius).ravel()[nz]
    return vals[nz], coords, r_vals


def _even_p(p) -> int:
    if p < 2 or p % 2 != 0:
        raise ValueError(f"p must be an even integer >= 2, got {p}")
    return int(p)


def even_moment_exact(
    form: QuadraticForm, source, p: int, max_entries: int = 2**26
) -> float:
    """int |F|^p for even p by exact key counting.

    Folding the support p/2 times against itself builds the bucket weights
    W(sum R(n_i), sum n_i) = sum over p/2-tuples of prod a(n_i); the moment is
    sum |W|^2. Each support point is encoded once as a mixed-radix int64 key
    (R(n) - R_min, then each coordinate) with the radices of the final key
    table, so a sum of p/2 keys has no carries. A fold adds the outer sum of
    the nonzero bucket keys and the point keys into its key range with
    `np.add.at`, in blocks, and keeps only the nonzero buckets: S x nnz work
    per level for S support points and nnz buckets.

    When every nonzero coefficient has one value c, the weights are tuple
    counts, kept in float64 below 2^53 and squared and summed in int64 below
    2^63 (either check failing raises ArithmeticError); the moment is then
    count * |c|^p, formed in exact rationals and rounded once, so it is exact
    for 0/1 coefficients. Other coefficients fold their real and imaginary
    parts in float64, each bucket in row-major order of (bucket, point)
    whatever the block size, so the result is reproducible.

    A form of two or more blocks with a sequence that declares `factors`,
    each constant on its support, takes the factorized count of
    `_product_count` instead, with the same count * |c|^p finish; there
    `max_entries` caps each block's table rather than the d-dimensional one.

    `max_entries` caps the final key table, so it bounds memory, not work;
    over it the call raises ValueError.
    """
    k = _even_p(p) // 2
    product = _product_supports(form, source)
    if product is not None:
        supports, c = product
        return _scaled_count(_product_count(form, supports, k, max_entries), c, k)
    a_nz, coords, r_nz = _support(form, source)
    if a_nz.size == 0:
        return 0.0
    rmin, rmax = int(r_nz.min()), int(r_nz.max())
    span_r = rmax - rmin
    width = 2 * source.radius  # per-axis coordinate range of one point
    final_shape = (k * span_r + 1,) + (k * width + 1,) * source.dim
    total = int(np.prod([np.int64(s) for s in final_shape]))
    if total > max_entries:
        raise ValueError(_over_budget(total, max_entries))
    point_keys = (r_nz - rmin).astype(np.int64)
    for axis in range(source.dim):
        point_keys = point_keys * final_shape[1 + axis] + coords[axis]
    order = np.argsort(point_keys)
    point_keys, a_nz = point_keys[order], a_nz[order]
    counting = bool(np.all(a_nz == a_nz[0]))
    point_w = None if counting else a_nz
    keys = np.zeros(1, dtype=np.int64)
    w = np.ones(1, dtype=np.float64 if counting else np.complex128)
    for _ in range(k):
        keys, w = _fold(keys, w, point_keys, point_w)
    if not counting:
        return float(np.sum(w.real**2 + w.imag**2))
    # a float64 estimate below 2^62 keeps the exact int64 sum below 2^63;
    # np.einsum, not np.dot, whose BLAS ddot starts threads on long tables
    if float(np.einsum("i,i->", w, w)) >= 2.0**62:
        raise ArithmeticError("sum of squared tuple counts leaves int64")
    counts = w.astype(np.int64)
    return _scaled_count(int(np.dot(counts, counts)), a_nz[0], k)


def _over_budget(total: int, max_entries: int) -> str:
    return (
        f"even-moment key table needs {total} entries, over the budget "
        f"{max_entries}; use the grid method (scan_field)"
    )


def _scaled_count(count: int, c: complex, k: int) -> float:
    """count * |c|^(2k) in exact rationals, rounded once."""
    abs_c2 = Fraction(float(c.real)) ** 2 + Fraction(float(c.imag)) ** 2
    return float(count * abs_c2**k)


def _product_supports(form: QuadraticForm, source):
    """(per-axis support coordinates as ascending int64 arrays, the common
    nonzero value c) when the factorized count applies: a form of two or
    more blocks and declared factors each constant on a nonempty support; c
    is the product of those constants by `np.multiply`, in the order of the
    outer product that builds `values`. None otherwise, and when c
    underflows to 0."""
    if len(form.blocks) < 2 or source.factors is None:
        return None
    supports, constants = [], []
    for f in source.factors:
        nz = np.flatnonzero(f)
        if nz.size == 0 or np.any(f[nz] != f[nz[0]]):
            return None
        supports.append(nz - source.radius)
        constants.append(f[nz[0]])
    c = reduce(np.multiply, constants)
    return None if c == 0 else (supports, c)


# c in the pair counts' empirical float error model (c log2(n_fft) + n_s) 2^-53 C(0).
_FFT_ERROR = 8.0


def _pair_counts(points, u: np.ndarray, k: int, max_entries: int) -> np.ndarray:
    """C(t), t = 0, 1, ...: pairs of k-tuples from a block's support points
    (`points`, one coordinate array per axis) with equal coordinate sums
    whose sums of the integer key `u` differ by t; C is even.

    `_fold` builds the j-fold tables W_j(u, s) of tuple counts by sum of u
    and the mixed-radix key s of the coordinate sums, on s-major keys over
    each level's own u range; then C(t) = sum over s of the autocorrelation
    of W_k(., s) at lag t, from one real FFT per row, zero-padded to
    n_fft >= 2 n_u - 1 so that nothing wraps, with the power spectra summed
    over s in blocks of rows whose spectrum fits in `expsum._SCRATCH_BYTES`,
    through one row buffer and one spectrum buffer.

    Every |C(t)| is at most C(0) = sum W_k^2. The float error of each C(t)
    is modelled as (_FFT_ERROR log2(n_fft) + n_s) 2^-53 C(0): the FFTs add
    the log term, the sum of n_s nonnegative spectra the other. The model is
    empirical, not a proved bound: measured residuals stayed below
    1.02 log2(n_fft) 2^-53 C(0). Rounding to int64 is trusted while it is
    below 1/4. Before the last fold the model is evaluated at the upper
    estimate C(0) <= |S|^2 sum W_{k-1}^2 (Young's inequality), and an input
    at or over 1/4 raises ArithmeticError without paying that fold. After
    the FFT, a residual over the model at the true C(0), or a rounded C
    whose sum over all lags misses the exact sum over s of (sum_u W_k)^2,
    raises ArithmeticError too. A table of n_u x n_s entries over
    `max_entries` raises ValueError.
    """
    s, n_s = 0, 1
    for x in points:  # mixed radix over the k-fold sums, last axis fastest
        x = x - x.min()
        radix = k * int(x.max()) + 1
        s, n_s = s * radix + x, n_s * radix
    order = np.lexsort((u, s))  # ascending point keys at every level
    u_lo = int(u.min())
    span_u = int(u.max()) - u_lo
    n_u = k * span_u + 1
    if n_u * n_s > max_entries:
        raise ValueError(_over_budget(n_u * n_s, max_entries))
    n_fft = 1 << (2 * n_u - 2).bit_length()
    model = (_FFT_ERROR * math.log2(n_fft) + n_s) * 2.0**-53
    keys, w, stride = np.zeros(1, dtype=np.int64), np.ones(1), 1
    for j in range(1, k + 1):
        # sum W_j^2 <= |S|^2 sum W_{j-1}^2 (Young), so refuse before the last fold
        estimate = model * u.size**2 * float(np.einsum("i,i->", w, w))
        if j == k and estimate >= 0.25:
            raise ArithmeticError(
                f"pair counts past the exact FFT range (estimate {estimate})"
            )
        # re-key on the j-fold u range; u - u_lo <= span_u keeps s and u apart
        row, col = np.divmod(keys, stride)
        stride = j * span_u + 1
        point_keys = (s * stride + (u - u_lo))[order]
        keys, w = _fold(row * stride + col, w, point_keys, None)
    bound = model * float(np.einsum("i,i->", w, w))
    n_h = n_fft // 2 + 1
    rows = max(1, min(n_s, expsum._SCRATCH_BYTES // (16 * n_h)))
    row_of, col_of = np.divmod(keys, n_u)
    cuts = np.searchsorted(row_of, np.arange(0, n_s + rows, rows))
    power = np.zeros(n_h)
    # one zero-padded row block and one spectrum, reused by every block
    block, spec = np.empty((rows, n_fft)), np.empty((rows, n_h), dtype=np.complex128)
    for b in range(cuts.size - 1):
        lo, hi = cuts[b], cuts[b + 1]
        n = min(rows, n_s - b * rows)
        block[:n].fill(0.0)
        block[row_of[lo:hi] - b * rows, col_of[lo:hi]] = w[lo:hi]
        np.fft.rfft(block[:n], axis=1, out=spec[:n])
        sq = spec[:n].view(np.float64)  # re, im interleaved
        np.square(sq, out=sq)
        np.add(sq[:, 0::2], sq[:, 1::2], out=sq[:, 0::2])
        power += sq[:, 0::2].sum(axis=0)
    corr = np.fft.irfft(power, n_fft)[:n_u]
    counts = np.rint(corr)
    if np.max(np.abs(corr - counts)) > bound:
        raise ArithmeticError("pair-count residual over its float error model")
    counts = counts.astype(np.int64)
    row_sums = np.bincount(row_of, w, n_s).astype(np.int64).tolist()
    if 2 * sum(counts.tolist()) - int(counts[0]) != sum(x * x for x in row_sums):
        raise ArithmeticError("rounded pair counts miss their exact checksum")
    return counts


def _product_count(form: QuadraticForm, supports, k: int, max_entries: int) -> int:
    """Pairs of k-tuples from the product of the per-axis `supports` with
    equal keys (sum R(n), sum n), for a form of two or more blocks.

    Per block B, R_B = 2 h_B u_B + L_B with L_B(n) = sum_i M_ii n_i, h_B the
    gcd of the block's entries, signed as its first nonzero one, and the
    integer u_B = (sum_i M_ii n_i(n_i-1)/2 + sum_{i<j} M_ij n_i n_j) / h_B;
    for a 1-axis block c n^2, h = c and u = n(n-1)/2. L_B cancels between
    tuples with equal coordinate sums, so the count is the sum over lags t
    with sum h_B t_B = 0 of prod C_B(t_B), C_B from `_pair_counts`. Each C_B
    is even, so the signs of the h_B drop out: dilating C_B by |h_B| gives
    D_B(|h_B| t) = C_B(t), and the count is the full convolution of the D_B
    at 0, all but the last convolved exactly (`_exact_convolve`), the last
    by one dot product of Python ints. One table per distinct (points, u).
    """
    tables = {}
    dilated = []
    for axes, block in form.blocks:
        grid = np.indices([supports[i].size for i in axes]).reshape(len(axes), -1)
        points = [supports[i][g] for i, g in zip(axes, grid)]
        mat = block.matrix
        terms = [(i, j, v) for i, r in enumerate(mat) for j, v in enumerate(r) if v]
        h = math.gcd(*[v for *_, v in terms]) * (1 if terms[0][2] > 0 else -1)
        # 2 h u = R_B - L_B = sum_ij M_ij n_i (n_j - [i = j])
        u = sum(v * points[i] * (points[j] - (i == j)) for i, j, v in terms) // (2 * h)
        key = (b"".join(x.tobytes() for x in points), u.tobytes())
        if key not in tables:
            tables[key] = _pair_counts(points, u, k, max_entries)
        full = np.concatenate([tables[key][:0:-1], tables[key]])
        d = np.zeros(abs(h) * (full.size - 1) + 1, dtype=np.int64)
        d[:: abs(h)] = full
        dilated.append(d)
    g = dilated[0]
    for d in dilated[1:-1]:
        g = _exact_convolve(g, d)
    last = dilated[-1]
    # both even about their centres: the convolution at 0 is a plain dot
    m = min(g.size, last.size) // 2
    gc, lc = g.size // 2, last.size // 2
    x, y = g[gc - m : gc + m + 1].tolist(), last[lc - m : lc + m + 1].tolist()
    return sum(map(operator.mul, x, y))


def _exact_convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full convolution of two arrays of nonnegative integers (int64 or
    Python ints), exact: in int64 when max(x) sum(y) or sum(x) max(y), which
    bounds every entry and every partial sum, is below 2^63, in Python ints
    otherwise.
    """
    if min(int(x.max()) * sum(y.tolist()), sum(x.tolist()) * int(y.max())) < 2**63:
        return np.convolve(x.astype(np.int64), y.astype(np.int64))
    return np.convolve(x.astype(object), y.astype(object))


def _fold(keys, w, point_keys, point_w):
    """Convolve the buckets (ascending `keys`, weights `w`) with the points
    (ascending `point_keys`, weights `point_w`); return the nonzero buckets.

    `point_w` None means unit point weights: `w` then holds tuple counts in
    float64, exact below 2^53; a count reaching 2^53 raises ArithmeticError.
    """
    n_pts = point_keys.size
    pmin, pmax = int(point_keys[0]), int(point_keys[-1])
    lo = int(keys[0]) + pmin
    acc = np.zeros((1 if point_w is None else 2, int(keys[-1]) + pmax + 1 - lo))
    # Entries of the (bucket keys x point keys) outer sum added at once, so
    # that their keys (8 bytes an entry) and weights (8, or 16 if complex)
    # each fit the budget. Whole rows while one fits, else pieces of one row:
    # the entries reach each bucket in row-major order whatever the size.
    entries = max(1, expsum._SCRATCH_BYTES // (8 if point_w is None else 16))
    cols = min(n_pts, entries)
    rows = max(1, entries // cols)
    for r0 in range(0, keys.size, rows):
        for c0 in range(0, n_pts, cols):
            pk = point_keys[c0 : c0 + cols] - lo
            kk = (keys[r0 : r0 + rows, None] + pk).ravel()
            if point_w is None:
                np.add.at(acc[0], kk, np.repeat(w[r0 : r0 + rows], pk.size))
            else:
                ww = (w[r0 : r0 + rows, None] * point_w[c0 : c0 + cols]).ravel()
                np.add.at(acc[0], kk, ww.real)
                np.add.at(acc[1], kk, ww.imag)
    hit = np.flatnonzero(acc.any(axis=0))
    if point_w is not None:
        return hit + lo, acc[0, hit] + 1j * acc[1, hit]
    out = acc[0, hit]
    if out.max() >= 2.0**53:
        raise ArithmeticError("tuple counts left the exact float64 range")
    return hit + lo, out


@dataclass(frozen=True)
class RepresentationCount:
    """Number of solution pairs of p/2-fold frequency collisions on supp(a)."""

    p_half: int
    count: int
    weighted: bool


def representation_count(form: QuadraticForm, source, p: int) -> RepresentationCount:
    """Exact count of pairs of p/2-tuples from supp(a) with equal keys.

    For 0/1 coefficients this is the even moment itself; otherwise the count
    refers to the support indicator and `weighted` is set. The indicator takes
    the oracle's counting path, so the count is summed in integers; for a
    product source it is built from the indicators of its factors, so a form
    of two or more blocks takes the factorized count.
    """
    support = source.values != 0
    weighted = bool(np.any(support & (source.values != 1.0)))
    if source.factors is None:
        indicator = CoefficientSequence(source.dim, source.radius, support)
    else:
        indicator = CoefficientSequence(
            source.dim, source.radius, None, factors=[f != 0 for f in source.factors]
        )
        # a product of nonzero factor values can underflow to 0 in `values`
        if not np.array_equal(indicator.values != 0, support):
            indicator = CoefficientSequence(source.dim, source.radius, support)
    # a module-global lookup, so a replaced moments.even_moment_exact is used
    moment = even_moment_exact(form, indicator, p)
    if moment >= 2.0**53:
        raise ArithmeticError(f"count {moment!r} is past the exact float64 range")
    return RepresentationCount(p // 2, int(moment), weighted)


# ---------------------------------------------------------------------------
# grid quadrature

def _nyquist_targets(form: QuadraticForm, radius: int, p: int) -> tuple[int, int]:
    """(m_alpha, m_theta) one past the largest |k| among the alpha and theta
    frequencies of |F|^p, for a sequence on [-radius, radius]^d and an
    integer p.

    Alpha frequencies are differences of sums of p/2 values of R, so at most
    (p/2)(max R - min R) over the box; theta frequencies are differences of
    sums of p/2 points, so at most p * radius per axis, and p * radius + 1 >=
    2 * radius + 1 keeps the field engine's anti-alias guard for p >= 2.
    max R - min R is the sum over the form's blocks of their spans, exactly,
    since the blocks share no variables; each is read off the cached table of
    the block's form on its own box, which the field engine builds anyway.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    span = 0
    for _, block in form.blocks:
        R = _r_grid(block, radius)
        span += int(R.max()) - int(R.min())
    return (p * span) // 2 + 1, p * radius + 1


def nyquist_sizes(form: QuadraticForm, radius: int, p: int) -> tuple[int, int]:
    """(m_alpha, m_theta) that integrate |F|^p exactly for even p and a
    sequence on [-radius, radius]^d."""
    return _nyquist_targets(form, radius, _even_p(p))


def nyquist_grid(form: QuadraticForm, radius: int, dim: int, p: int) -> TorusGrid:
    m_alpha, m_theta = nyquist_sizes(form, radius, p)
    return TorusGrid(dim, m_alpha, m_theta, (0.0,) * (dim + 1))


def nyquist_sufficient(grid: TorusGrid, form: QuadraticForm, radius: int, p) -> bool:
    """Whether equal-weight quadrature on `grid` is provably exact for |F|^p,
    a sequence on [-radius, radius]^d, at any offset."""
    try:
        p = _even_p(p)
    except ValueError:
        return False
    m_alpha, m_theta = nyquist_sizes(form, radius, p)
    return grid.m_alpha >= m_alpha and grid.m_theta >= m_theta


def _pow(mag: np.ndarray, p) -> np.ndarray:
    if p == int(p) and int(p) % 2 == 0 and p > 0:
        # repeated products of mag^2: a float power costs twice as much
        sq = mag * mag
        out = sq
        for _ in range(int(p) // 2 - 1):
            out = out * sq
        return out
    return mag**p


# ---------------------------------------------------------------------------
# streaming scan

# Cells of a field chunk reduced at once, 2^15: their complex values fill the
# scratch budget, and each pass's temporaries stay in cache. Fixed at import,
# since it sets which cells are summed together.
_SCAN_BLOCK = expsum._SCRATCH_BYTES // 16


@dataclass
class FieldScan:
    """Accumulated statistics from one pass over a grid field."""

    sup: float
    moments: dict
    truncated: dict
    levels: list[tuple[float, float]] = field(default_factory=list)


# Partials a truncated sum keeps before they are folded into a few floats.
_PARTIALS = 2**16


class _Cuts:
    """The statistics of a scan that read only cells at or above a cut: the
    sup, truncated moments ((p, absolute threshold) pairs) and level counts.

    `add` takes a block of |F|: 1-D cells or 2-D rows of cells. Cells below
    `lo`, the smallest threshold or positive rung (+inf when there is none),
    reach no truncated moment and no positive rung; a rung at 0 counts every
    cell without reading one. A truncated sum keeps one partial per 1-D
    block and per row of a 2-D block, however the rows are grouped, and
    `scan` adds them exactly (`math.fsum`), as a running float sum would
    drift by several ulp. Past `_PARTIALS` partials, so that a cut below
    most cells keeps a short list, they are folded into a few floats with
    the same exact sum, each `math.fsum` of the partials less those before.
    """

    def __init__(self, thresholds, lambdas):
        self.thresholds = tuple((float(p), float(t)) for p, t in thresholds)
        self.lams = np.asarray(sorted(float(l) for l in lambdas), dtype=float)
        if not np.all(np.isfinite(self.lams)):
            raise ValueError("lambda must be finite")
        if self.lams.size and self.lams[0] < 0:
            raise ValueError("lambda must be >= 0")
        if not all(np.isfinite(t) for _, t in self.thresholds):
            raise ValueError("threshold must be finite")
        self.rungs = self.lams[self.lams > 0]
        self.lo = min([t for _, t in self.thresholds] + list(self.rungs), default=math.inf)
        self.trunc = {key: [] for key in self.thresholds}
        self.hist = np.zeros(self.rungs.size + 1, dtype=np.int64)
        self.sup = 0.0

    def add(self, mag: np.ndarray) -> None:
        self.sup = max(self.sup, float(mag.max()))
        if self.lo == math.inf:
            return  # nothing to cut
        at = np.flatnonzero(mag >= self.lo)  # a take is faster than a mask
        tail = mag.reshape(-1)[at]  # row by row for a 2-D block
        for p, thr in self.thresholds:
            keep = tail >= thr
            kept = _pow(tail[keep], p)
            parts = self.trunc[(p, thr)]
            if mag.ndim == 2:  # one partial per row, its cells added in order
                parts += np.bincount(at[keep] // mag.shape[1], kept).tolist()
            elif kept.size:
                parts.append(float(np.sum(kept)))
            if len(parts) > _PARTIALS:
                rest = [math.fsum(parts)]
                while rest[-1] != 0.0 and math.isfinite(rest[-1]):
                    rest.append(math.fsum(parts + [-t for t in rest]))
                parts[:] = rest
        if self.rungs.size:
            bins = np.searchsorted(self.rungs, tail, side="right")
            self.hist += np.bincount(bins, minlength=self.rungs.size + 1)

    def scan(self, grid: TorusGrid, sums: dict) -> FieldScan:
        """The FieldScan of `grid`, given the exact sum of |F|^p over its
        cells for each p."""
        above = self.hist[::-1].cumsum()[::-1][1:]
        n_zero = self.lams.size - self.rungs.size
        counts = np.concatenate([np.full(n_zero, grid.total_cells), above])
        meas = counts / grid.total_cells
        return FieldScan(
            sup=self.sup,
            moments={p: s * grid.cell_measure for p, s in sums.items()},
            truncated={
                k: math.fsum(v) * grid.cell_measure for k, v in self.trunc.items()
            },
            levels=[(float(l), float(m)) for l, m in zip(self.lams, meas)],
        )


def scan_field(
    form: QuadraticForm,
    source,
    grid: TorusGrid,
    p_values: Sequence[float] = (2.0,),
    thresholds: Sequence[tuple[float, float]] = (),
    lambdas: Sequence[float] = (),
) -> FieldScan:
    """Single streaming pass accumulating moments, threshold-restricted moments
    ((p, absolute threshold) pairs), level-set counts and the sup norm.

    Levels are reported in ascending lambda order, each as the fraction of
    cells with |F| >= lambda; a negative lambda, and a non-finite lambda or
    threshold, raise ValueError. Each chunk is reduced in `_SCAN_BLOCK`-cell
    blocks, and truncated moments and positive rungs read only the cells at
    or above the smallest cut. Chunking and blocking are deterministic, so
    accumulation order and results are reproducible run to run.

    A source that declares `factors` on a form of two or more blocks is read
    from the blocks' rows (`_scan_rows`), any other cell by cell
    (`_scan_cells`). The rows form only the cells a cut or the sup can
    reach: `sup` and the levels are the every-cell scan's bit for bit, and
    the moments may move in the last ulp. Every output of the rows depends
    on the field alone, not on chunk, scratch or batch sizes.
    """
    cuts = _Cuts(thresholds, lambdas)
    if source.factors is not None and len(form.blocks) >= 2:
        return _scan_rows(form, source, grid, p_values, cuts)
    return _scan_cells(form, source, grid, p_values, cuts)


def _scan_cells(
    form: QuadraticForm, source, grid: TorusGrid, p_values, cuts: _Cuts
) -> FieldScan:
    """`scan_field` from every cell of the field."""
    sums = {p: [] for p in p_values}  # per-block partial sums, as for the cuts
    for _, vals in iter_field_chunks(form, source, grid):
        flat = vals.reshape(-1)
        for b0 in range(0, flat.size, _SCAN_BLOCK):
            mag = np.abs(flat[b0 : b0 + _SCAN_BLOCK])
            for p in sums:
                sums[p].append(float(np.sum(_pow(mag, p))))
            cuts.add(mag)
    return cuts.scan(grid, {p: math.fsum(v) for p, v in sums.items()})


def _scan_rows(
    form: QuadraticForm, source, grid: TorusGrid, p_values, cuts: _Cuts
) -> FieldScan:
    """`scan_field` of a sequence that declares `factors` on a form of two
    or more blocks, from the blocks' fields (`expsum._block_fields`).

    A slice's p-th moment is the product over blocks of sum |F_B|^p; the
    slices add with `math.fsum`. A, the product of every block but the last
    B as the field engine forms it, bounds the cells of its row j (one
    alpha, one point of A's theta axes) by |A_j| max|B|. Only rows whose
    bound reaches (1 - 2^-40) min(smallest cut, largest bound so far) form
    their cells A_j B, in the engine's operand order, for `_Cuts`: every
    cell at or above a cut, or that can be the sup, is in such a row. A row
    picked against a smaller bound so far adds only cells below every cut,
    and `_Cuts` keeps one partial per row: every output is the field's alone.
    """
    slices = {p: [] for p in p_values}
    top = 0.0  # the largest row bound so far
    for parts in _block_fields(form, source, grid):
        top = _reduce_rows(parts, slices, cuts, top)
    return cuts.scan(grid, {p: math.fsum(v) for p, v in slices.items()})


def _reduce_rows(parts, slices, cuts: _Cuts, top: float) -> float:
    """One alpha chunk of `_scan_rows`: the blocks' rows `parts`, laid onto
    the field's axes. Appends each slice's moments to `slices`, feeds the
    live rows' cells to `cuts`, returns the new largest row bound.

    The chunk is read in sub-blocks of slices whose |F_B|, powers, A and
    bounds each fit in `expsum._SCRATCH_BYTES`; each sub-block's live rows
    are picked from its own A and bounds, and their cells formed from that A
    in batches of about `_SCAN_BLOCK` cells."""
    k = len(parts[0])
    b = parts[-1].reshape(k, -1)
    n_a = math.prod(np.broadcast_shapes(*(v.shape for v in parts[:-1]))[1:])
    step = max(1, expsum._SCRATCH_BYTES // (16 * max(n_a, b.shape[1])))
    per = max(1, _SCAN_BLOCK // b.shape[1])  # rows whose cells are formed at once
    for s0 in range(0, k, step):
        sub = [v[s0 : s0 + step] for v in parts]
        n = len(sub[0])
        sums = {p: [] for p in slices}
        for v in sub:  # one block's |F_B| at a time
            mag = np.abs(v).reshape(n, -1)
            for p in sums:
                sums[p].append(_pow(mag, p).sum(axis=1))
        for p in sums:
            slices[p] += reduce(np.multiply, sums[p]).tolist()
        a = reduce(np.multiply, sub[:-1]).reshape(-1)  # row i is in slice i // n_a
        bound = np.abs(a).reshape(n, -1)
        bound *= mag.max(axis=1)[:, None]  # max |B| per slice
        top = max(top, float(bound.max()))
        # the margin is far above the few ulp between a bound and its cells
        live = np.flatnonzero(bound >= (1 - 2.0**-40) * min(cuts.lo, top))
        del mag, bound  # only A's live rows from here on
        for i in range(0, live.size, per):
            rows = live[i : i + per]
            cuts.add(np.abs(np.multiply(a[rows, None], b[s0 + rows // n_a])))
    return top


# Levels of the layer-cake Riemann sum, evenly spaced on [0, sup|F|).
_LAYER_CAKE_LEVELS = 2048


def layer_cake_moment(form: QuadraticForm, source, grid: TorusGrid, p) -> float:
    """Riemann sum p * sum lam^{p-1} |E_lam| dlam over [0, sup|F|] on `grid`.

    Discretizes the layer-cake identity int |F|^p = p int lam^{p-1}|E_lam| dlam
    in two scans: one for sup|F|, one for the level measures. Agreement with
    the scanned moment is a consistency check, not an exact identity. A p
    below 1 or not finite raises ValueError: the sum needs lam^{p-1} at 0.
    """
    if not (np.isfinite(p) and p >= 1):
        raise ValueError(f"p must be finite and >= 1, got {p}")
    sup = scan_field(form, source, grid, p_values=()).sup
    if sup == 0.0:
        return 0.0
    lams = np.linspace(0.0, sup, _LAYER_CAKE_LEVELS + 1)[:-1]
    dlam = sup / _LAYER_CAKE_LEVELS
    scan = scan_field(form, source, grid, p_values=(), lambdas=lams)
    meas = np.array([m for _, m in scan.levels])
    return float(np.sum(p * lams ** (p - 1) * meas) * dlam)


# ---------------------------------------------------------------------------
# reports

@dataclass
class MomentReport:
    """One (form, sequence, grids, p, C) measurement with provenance."""

    form_matrix: tuple
    N: int
    p: float
    C: float
    threshold: float
    norm_a: float
    full_moment: float
    truncated_moment: float
    sup: float
    levels: list[tuple[float, float]]
    grid_info: dict
    exact: bool
    spread: float
    oracle_full: float | None
    grid_full: float

    def json_dict(self) -> dict:
        return {
            "form": [list(r) for r in self.form_matrix],
            "N": self.N,
            "p": self.p,
            "C": self.C,
            "grid": self.grid_info,
            "full": self.full_moment,
            "truncated": self.truncated_moment,
            "levels": [[l, m] for l, m in self.levels],
            "exact": self.exact,
        }

    def to_json(self) -> str:
        return json.dumps(self.json_dict(), sort_keys=True)


def _rel_spread(vals: Sequence[float]) -> float:
    lo, hi = min(vals), max(vals)
    mid = max(abs(hi), abs(lo))
    return 0.0 if mid == 0.0 else (hi - lo) / mid


def build_report(
    form: QuadraticForm,
    source,
    grids: Sequence[TorusGrid],
    p: float,
    C: float = 1.0,
    lambdas: Sequence[float] | None = None,
) -> MomentReport:
    """Scan the field once per grid and assemble a MomentReport.

    Full and truncated moments and level measures are means over the grids,
    `sup` is their max, and `spread` is the larger relative spread of the full
    and truncated moments (0.0 for one grid). A sequence that declares
    `factors` on a form of two or more blocks is scanned from the blocks'
    rows (see `scan_field`). Even p also runs the exact counting oracle; the
    full moment then reports the exact value, unless the oracle refuses
    (ValueError, over its key-table budget) or leaves its exact arithmetic
    range (ArithmeticError), and the grid mean stands. `exact` says whether
    the first grid is Nyquist-exact for the sequence's radius. N is the
    weight's N for a SmoothWeight and the radius otherwise. A p or C that is
    not positive and finite raises ValueError.
    """
    if not np.isfinite(C):
        raise ValueError("C must be finite")
    if C <= 0:
        raise ValueError("C must be positive")
    if not (np.isfinite(p) and p > 0):
        raise ValueError(f"p must be positive and finite, got {p}")
    N = source.N if isinstance(source, SmoothWeight) else source.radius
    norm_a = source.l2_norm
    threshold = C * float(N) ** (source.dim / 4.0) * norm_a
    if lambdas is None:
        lambdas = default_levels(source, 17)
    fulls, truncs, sups = [], [], []
    level_acc = np.zeros(len(lambdas))
    for grid in grids:
        scan = scan_field(
            form, source, grid,
            p_values=(p,),
            thresholds=((p, threshold),),
            lambdas=lambdas,
        )
        fulls.append(scan.moments[p])
        truncs.append(scan.truncated[(p, threshold)])
        sups.append(scan.sup)
        level_acc += [m for _, m in scan.levels]
    grid_full = float(np.mean(fulls))
    full = grid_full
    oracle_val = None
    if p == int(p) and int(p) % 2 == 0:
        try:
            oracle_val = even_moment_exact(form, source, int(p))
            full = oracle_val
        except (ValueError, ArithmeticError):
            pass  # over the key-table budget or the exact range: the grid mean stands
    first = grids[0]
    return MomentReport(
        form_matrix=form.matrix,
        N=N,
        p=p,
        C=C,
        threshold=threshold,
        norm_a=norm_a,
        full_moment=full,
        truncated_moment=float(np.mean(truncs)),
        sup=max(sups),
        # every scan lists the same sorted lambdas
        levels=[
            (l, float(m)) for (l, _), m in zip(scan.levels, level_acc / len(grids))
        ],
        grid_info={
            "m_alpha": first.m_alpha,
            "m_theta": first.m_theta,
            "offset": list(first.offset),
            "cells": first.total_cells,
        },
        exact=nyquist_sufficient(first, form, source.radius, p),
        spread=max(_rel_spread(fulls), _rel_spread(truncs)),
        oracle_full=oracle_val,
        grid_full=grid_full,
    )


def default_levels(source: CoefficientSequence, count: int) -> np.ndarray:
    """`count` rungs evenly spaced on [0, (2r+1)^{d/2} ||a||_2]: the top is the
    Cauchy-Schwarz bound on sup|F|, with (2r+1)^d terms."""
    bound = (2 * source.radius + 1) ** (source.dim / 2.0) * source.l2_norm
    return np.linspace(0.0, bound, count)


_CSV_FIELDS = [
    "N", "p", "C", "threshold", "full", "truncated", "sup",
    "norm_a", "exact", "m_alpha", "m_theta", "spread", "oracle",
]


def report_csv_header() -> str:
    return ",".join(_CSV_FIELDS)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def report_csv_row(report: MomentReport) -> str:
    vals = [
        report.N, report.p, report.C, report.threshold,
        report.full_moment, report.truncated_moment, report.sup,
        report.norm_a, report.exact,
        report.grid_info.get("m_alpha"), report.grid_info.get("m_theta"),
        report.spread, report.oracle_full,
    ]
    return ",".join(_fmt(v) for v in vals)
