"""Moments, truncated moments and level sets of |F| over the torus.

Two routes to the p-th moment: an exact counting oracle for even p (the
p/2-fold self-convolution of the coefficients, bucketed by the frequency key
(sum R(n_i), sum n_i)), and equal-weight quadrature over a TorusGrid, which is
itself exact once the grid outruns the trigonometric degree of |F|^p.

The oracle folds sparse buckets: mixed-radix int64 keys binned with
`np.bincount`, keeping only nonzero buckets, at S x nnz work per level. Inputs
whose nonzero coefficients share one value take a counting path in integers
(exact for 0/1 coefficients); others fold real and imaginary parts in
float64. Its `max_entries` budget caps the key table, which bounds memory but
not work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .quadform import QuadraticForm, frequency_bound
from .expsum import TorusGrid, iter_field_chunks, _as_sequence
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


# Entries of the (bucket keys x point keys) outer sum binned at once.
_FOLD_CHUNK = 2**20


def even_moment_exact(
    form: QuadraticForm, source, p: int, max_entries: int = 2**26
) -> float:
    """int |F|^p for even p by exact key counting.

    Folding the support p/2 times against itself builds the bucket weights
    W(sum R(n_i), sum n_i) = sum over p/2-tuples of prod a(n_i); the moment is
    sum |W|^2. Each support point is encoded once as a mixed-radix int64 key
    (R(n) - R_min, then each coordinate) with the radices of the final key
    table, so a sum of p/2 keys has no carries. A fold bins the outer sum of
    the nonzero bucket keys and the point keys with `np.bincount`, in chunks,
    and keeps only the nonzero buckets: S x nnz work per level for S support
    points and nnz buckets.

    When every nonzero coefficient has one value c, the weights are tuple
    counts, kept in float64 below 2^53 and squared and summed in int64 below
    2^63 (either check failing raises ArithmeticError); the moment is then
    count * |c|^p, formed in exact rationals and rounded once, so it is exact
    for 0/1 coefficients. Other coefficients fold their real and imaginary
    parts in float64, in a fixed order, so the result is reproducible.

    `max_entries` caps the final key table, so it bounds memory, not work;
    over it the call raises ValueError.
    """
    if p < 2 or p % 2 != 0:
        raise ValueError(f"p must be an even integer >= 2, got {p}")
    seq = _as_sequence(source)
    k = p // 2
    a_nz, coords, r_nz = _support(form, seq)
    if a_nz.size == 0:
        return 0.0
    rmin, rmax = int(r_nz.min()), int(r_nz.max())
    span_r = rmax - rmin
    width = 2 * seq.radius  # per-axis coordinate range of one point
    final_shape = (k * span_r + 1,) + (k * width + 1,) * seq.dim
    total = int(np.prod([np.int64(s) for s in final_shape]))
    if total > max_entries:
        raise ValueError(
            f"even-moment key table needs {total} entries, over the budget "
            f"{max_entries}; use the grid method (scan_field)"
        )
    point_keys = (r_nz - rmin).astype(np.int64)
    for axis in range(seq.dim):
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
    # a float64 estimate below 2^62 keeps the exact int64 sum below 2^63
    if float(np.dot(w, w)) >= 2.0**62:
        raise ArithmeticError("sum of squared tuple counts leaves int64")
    counts = w.astype(np.int64)
    c = a_nz[0]
    # count * |c|^p in exact rationals, rounded once
    abs_c2 = Fraction(float(c.real)) ** 2 + Fraction(float(c.imag)) ** 2
    return float(int(np.dot(counts, counts)) * abs_c2**k)


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
    # A block of rows x points reaches a key slice about rows * row_step +
    # points * point_step long; split the chunk to keep that slice short.
    row_step = (int(keys[-1]) - int(keys[0]) + 1) / keys.size
    point_step = (pmax - pmin + 1) / n_pts
    balanced = round((_FOLD_CHUNK * row_step / point_step) ** 0.5)
    cols = min(n_pts, _FOLD_CHUNK, max(1, balanced, _FOLD_CHUNK // keys.size))
    rows = max(1, _FOLD_CHUNK // cols)
    for c0 in range(0, n_pts, cols):
        pk = point_keys[c0 : c0 + cols]
        for r0 in range(0, keys.size, rows):
            ks = keys[r0 : r0 + rows]
            c_lo = int(ks[0]) + int(pk[0])
            n = int(ks[-1]) + int(pk[-1]) + 1 - c_lo
            kk = (ks[:, None] + (pk - c_lo)).ravel()
            sl = acc[:, c_lo - lo : c_lo - lo + n]
            if point_w is None:
                sl[0] += np.bincount(kk, np.repeat(w[r0 : r0 + rows], pk.size), n)
            else:
                ww = (w[r0 : r0 + rows, None] * point_w[c0 : c0 + cols]).ravel()
                sl[0] += np.bincount(kk, ww.real, n)
                sl[1] += np.bincount(kk, ww.imag, n)
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
    the oracle's counting path, so the count is summed in integers.
    """
    seq = _as_sequence(source)
    vals = seq.values.ravel()
    nz = vals[vals != 0]
    weighted = bool(np.any(nz != 1.0))
    indicator = CoefficientSequence(
        seq.dim, seq.radius, (seq.values != 0).astype(np.complex128)
    )
    # a module-global lookup, so a replaced moments.even_moment_exact is used
    moment = even_moment_exact(form, indicator, p)
    if moment >= 2.0**53:
        raise ArithmeticError(f"count {moment!r} is past the exact float64 range")
    return RepresentationCount(p // 2, int(moment), weighted)


# ---------------------------------------------------------------------------
# grid quadrature

def _nyquist_targets(form: QuadraticForm, N: int, p: int) -> tuple[int, int]:
    """(m_alpha, m_theta) strictly outrunning the degrees p*R_max and 2pN of
    |F|^p, for an integer p."""
    return p * frequency_bound(form, N) + 1, 2 * p * N + 1


def nyquist_sizes(form: QuadraticForm, N: int, p: int) -> tuple[int, int]:
    """Smallest (m_alpha, m_theta) that integrate |F|^p exactly for even p."""
    if p < 2 or p % 2 != 0:
        raise ValueError(f"p must be an even integer >= 2, got {p}")
    return _nyquist_targets(form, N, int(p))


def nyquist_grid(form: QuadraticForm, N: int, dim: int, p: int) -> TorusGrid:
    m_alpha, m_theta = nyquist_sizes(form, N, p)
    return TorusGrid(dim, m_alpha, m_theta, (0.0,) * (dim + 1))


def nyquist_sufficient(grid: TorusGrid, form: QuadraticForm, N: int, p) -> bool:
    """Whether equal-weight quadrature on `grid` is provably exact for |F|^p."""
    if p != int(p) or int(p) % 2 != 0:
        return False
    m_alpha, m_theta = nyquist_sizes(form, N, int(p))
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

# Cells of a field chunk reduced at once, so that each pass's temporaries
# stay in cache instead of streaming chunk-sized arrays through memory.
_SCAN_BLOCK = 2**15


@dataclass
class FieldScan:
    """Accumulated statistics from one pass over a grid field."""

    sup: float
    moments: dict
    truncated: dict
    levels: list[tuple[float, float]] = field(default_factory=list)


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
    """
    p_values = tuple(p_values)
    thresholds = tuple((float(p), float(t)) for p, t in thresholds)
    lams = np.asarray(sorted(float(l) for l in lambdas), dtype=float)
    if not np.all(np.isfinite(lams)):
        raise ValueError("lambda must be finite")
    if lams.size and lams[0] < 0:
        raise ValueError("lambda must be >= 0")
    if not all(np.isfinite(t) for _, t in thresholds):
        raise ValueError("threshold must be finite")
    rungs = lams[lams > 0]
    n_zero = lams.size - rungs.size  # rungs at 0, each counting every cell
    # cells below every cut reach no truncated moment and no positive rung
    lo = min([t for _, t in thresholds] + list(rungs), default=0.0)
    # per-block partial sums, added exactly at the end: a running float sum
    # over hundreds of blocks would drift by several ulp
    sums = {p: [] for p in p_values}
    trunc = {key: [] for key in thresholds}
    n_nonneg = 0
    hist = np.zeros(rungs.size + 1, dtype=np.int64)
    sup = 0.0
    for _, vals in iter_field_chunks(form, source, grid):
        flat = vals.reshape(-1)
        for b0 in range(0, flat.size, _SCAN_BLOCK):
            mag = np.abs(flat[b0 : b0 + _SCAN_BLOCK])
            sup = max(sup, float(mag.max()))
            for p in p_values:
                sums[p].append(float(np.sum(_pow(mag, p))))
            tail = mag if lo <= 0 else mag[mag >= lo]
            for p, thr in thresholds:
                kept = tail[tail >= thr]
                if kept.size:
                    trunc[(p, thr)].append(float(np.sum(_pow(kept, p))))
            if n_zero:
                n_nonneg += int(np.count_nonzero(mag >= 0))
            if rungs.size:
                bins = np.searchsorted(rungs, tail, side="right")
                hist += np.bincount(bins, minlength=rungs.size + 1)
    above = hist[::-1].cumsum()[::-1][1:]
    counts = np.concatenate([np.full(n_zero, n_nonneg), above])
    meas = counts / grid.total_cells
    return FieldScan(
        sup=sup,
        moments={p: math.fsum(sums[p]) * grid.cell_measure for p in p_values},
        truncated={k: math.fsum(trunc[k]) * grid.cell_measure for k in thresholds},
        levels=[(float(l), float(m)) for l, m in zip(lams, meas)],
    )


def layer_cake_moment(
    form: QuadraticForm, source, grid: TorusGrid, p, n_levels: int = 2048
) -> float:
    """Riemann sum p * sum lam^{p-1} |E_lam| dlam over [0, sup|F|] on `grid`.

    Discretizes the layer-cake identity int |F|^p = p int lam^{p-1}|E_lam| dlam
    in two scans: one for sup|F|, one for the level measures. Agreement with
    the scanned moment is a consistency check, not an exact identity.
    """
    if n_levels < 2:
        raise ValueError("n_levels must be >= 2")
    sup = scan_field(form, source, grid, p_values=()).sup
    if sup == 0.0:
        return 0.0
    lams = np.linspace(0.0, sup, n_levels + 1)[:-1]
    dlam = sup / n_levels
    scan = scan_field(form, source, grid, p_values=(), lambdas=lams)
    meas = np.array([m for _, m in scan.levels])
    return float(np.sum(p * lams ** (p - 1) * meas) * dlam)


# ---------------------------------------------------------------------------
# reports

@dataclass
class MomentReport:
    """One (form, sequence, grids, p, C) measurement with provenance."""

    form_matrix: tuple
    dim: int
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
    and truncated moments (0.0 for one grid). Even p also runs the exact
    counting oracle, budget permitting; the full moment then reports the
    exact value. `exact` says whether the first grid is Nyquist-exact.
    N is the weight's N for a SmoothWeight and the radius otherwise.
    """
    if not np.isfinite(C):
        raise ValueError("C must be finite")
    if C <= 0:
        raise ValueError("C must be positive")
    seq = _as_sequence(source)
    N = source.N if isinstance(source, SmoothWeight) else seq.radius
    norm_a = seq.l2_norm
    threshold = C * float(N) ** (seq.dim / 4.0) * norm_a
    if lambdas is None:
        bound = (2 * seq.radius + 1) ** (seq.dim / 2.0) * norm_a
        lambdas = np.linspace(0.0, bound, 17)
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
        except ValueError:
            pass  # key table over budget: the grid mean stands
    first = grids[0]
    return MomentReport(
        form_matrix=form.matrix,
        dim=seq.dim,
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
        exact=nyquist_sufficient(first, form, N, p),
        spread=max(_rel_spread(fulls), _rel_spread(truncs)),
        oracle_full=oracle_val,
        grid_full=grid_full,
    )


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
