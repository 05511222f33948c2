"""Extension-operator evaluation on the torus, Gauss sums, oscillatory integrals.

F_a(alpha, theta) = sum_n a(n) e(alpha R(n) + theta . n),   e(x) = exp(2 pi i x),

evaluated either directly (fixed lexicographic order, pairwise summation) or
on equispaced product grids by theta FFTs over chunks of alpha slices, with
exact root-table phases since R(n) is an integer. The complete-sum machinery
(Gauss sums S(a,b;q), the scaled oscillatory integral I(beta, gamma; N), and
the Poisson major-arc approximant) lives here as well.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from dataclasses import dataclass
from math import ceil, gcd, prod
from typing import Iterator, Sequence

import numpy as np

from .bump import bump, gauss_panels
from .quadform import QuadraticForm
from .sequences import CoefficientSequence, SmoothWeight

__all__ = [
    "TorusGrid",
    "extension_direct",
    "smoothed_sum_direct",
    "iter_field_chunks",
    "gauss_sum",
    "gauss_sum_table",
    "OscillatoryIntegral",
    "oscillatory_integral",
    "MajorArcApprox",
    "major_arc_approx",
]

# Bytes of one field chunk by default: 2^17 complex128 cells, small enough
# that a chunk is still in cache when its consumer reads it back.
_CHUNK_BYTES = 2 * 2**20

# Bytes of each temporary that the hot path makes per block of its work: the
# twist of a field chunk here, and in `moments` the fold's key and weight
# blocks, the pair counts' FFT rows and the row scan's per-slice arrays.
# Arrays this small are served from memory the allocator has already mapped,
# so they cost no page faults; fresh arrays of several MiB each cost a page
# fault per 4 KiB. Nothing is kept between calls, and no result depends on it.
_SCRATCH_BYTES = 2**19

# Threads that compute field chunks: with 2, the next chunk is computed on a
# worker thread while the consumer reads the current one. The chunks do not
# depend on it, so neither does any value.
_WORKERS = min(
    2,
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
)

# The worker slot: held by the one field generator whose chunks are computed
# on a worker, so at most `_WORKERS - 1` = 1 worker runs at a time. A
# generator that starts while it is held computes its chunks on the
# consumer's thread, as all of `_block_fields`' do: it holds the slot.
_PREFETCH = threading.Lock()


@functools.lru_cache(maxsize=64)
def _r_grid(form: QuadraticForm, radius: int) -> np.ndarray:
    out = form.values_on_grid(radius)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TorusGrid:
    """Equispaced product grid on T^{dim+1}: alpha then dim theta axes."""

    dim: int
    m_alpha: int
    m_theta: int
    offset: tuple[float, ...]

    def __post_init__(self):
        for name in ("dim", "m_alpha", "m_theta"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.dim < 1 or self.m_alpha < 1 or self.m_theta < 1:
            raise ValueError("grid dimensions must be positive")
        off = tuple(float(x) for x in self.offset)
        if len(off) != self.dim + 1:
            raise ValueError(
                f"offset needs {self.dim + 1} entries, got {len(off)}"
            )
        if any(not 0.0 <= x < 1.0 for x in off):
            raise ValueError("offsets must lie in [0, 1)")
        object.__setattr__(self, "offset", off)

    @classmethod
    def centered(cls, dim: int, m_alpha: int, m_theta: int) -> "TorusGrid":
        off = (0.5 / m_alpha,) + (0.5 / m_theta,) * dim
        return cls(dim, m_alpha, m_theta, off)

    @classmethod
    def random_offset(
        cls, dim: int, m_alpha: int, m_theta: int, rng: np.random.Generator
    ) -> "TorusGrid":
        off = tuple(float(x) for x in rng.random(dim + 1))
        return cls(dim, m_alpha, m_theta, off)

    def alphas(self) -> np.ndarray:
        return self.offset[0] + np.arange(self.m_alpha) / self.m_alpha

    def theta_values(self, axis: int) -> np.ndarray:
        if axis not in range(self.dim):
            raise ValueError(f"theta axis must lie in range({self.dim}), got {axis!r}")
        return self.offset[1 + axis] + np.arange(self.m_theta) / self.m_theta

    @property
    def cell_measure(self) -> float:
        return 1.0 / (self.m_alpha * self.m_theta**self.dim)

    @property
    def total_cells(self) -> int:
        return self.m_alpha * self.m_theta**self.dim


def extension_direct(
    form: QuadraticForm,
    source: CoefficientSequence,
    alpha: float,
    theta: Sequence[float],
) -> complex:
    """Direct summation of F(alpha, theta).

    Terms are laid out in lexicographic n order and reduced by numpy's
    pairwise summation, so results are bit-reproducible across runs.
    """
    th = np.asarray(theta, dtype=float)
    if th.shape != (source.dim,):
        raise ValueError(f"theta must have length {source.dim}")
    terms = _twist(_r_grid(form, source.radius), source.values, float(alpha), th)
    return complex(np.sum(terms))


def smoothed_sum_direct(
    form: QuadraticForm, weight: SmoothWeight, alpha: float, theta: Sequence[float]
) -> complex:
    """F(alpha, theta) with the smooth weight omega(n) = eta(n/N) as coefficients."""
    return extension_direct(form, weight, alpha, theta)


def iter_field_chunks(
    form: QuadraticForm,
    source: CoefficientSequence,
    grid: TorusGrid,
    chunk: int | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (alpha start index, values[start:start+k]) over all alpha slices.

    The sum is carried by boxes [-r, r]^e, each twisted once per call at the
    grid offset by `_twist`, paired with R(n) mod m_alpha and transformed per
    chunk of alpha indices by `_chunk_fft`;
    a chunk is the broadcast product of the boxes' chunks. A sequence that
    declares `factors` a_i has one box per block B of the form, (R_B(n_B),
    prod_{i in B} a_i(n_i)) on B's own theta axes, since then F = prod_B F_B;
    any other has one d-dim box (R(n), a(n)). So a diagonal form has d 1-D
    boxes and an irreducible form one box.

    `chunk` defaults to as many alpha slices as fit in `_CHUNK_BYTES`; a
    slice larger than that is still yielded whole, one per chunk. With
    `_WORKERS` = 2 the chunk after the one yielded is computed meanwhile on
    a worker thread; each chunk is allocated here and filled there. Only one
    generator at a time has a worker (`_PREFETCH`); any other open meanwhile
    computes its chunks when they are asked for.
    """
    d, r, m, m_alpha = source.dim, source.radius, grid.m_theta, grid.m_alpha
    if grid.dim != d:
        raise ValueError("grid dim does not match the sequence dim")
    if m < 2 * r + 1:
        raise ValueError(
            f"grid too coarse: m_theta={m} is below the support width "
            f"{2 * r + 1} of the sequence (frequencies would alias)"
        )
    if chunk is None:
        chunk = max(1, _CHUNK_BYTES // (16 * m**d))
    elif isinstance(chunk, bool) or not isinstance(chunk, (int, np.integer)) or chunk < 1:
        raise ValueError(f"chunk must be a positive integer, got {chunk!r}")
    roots = np.exp(2j * np.pi * np.arange(m_alpha) / m_alpha)
    o = grid.offset
    blocks = form.blocks if source.factors is not None else ((tuple(range(d)), form),)
    boxes, shapes = [], []
    for ax, block in blocks:
        R = _r_grid(block, r)
        if len(ax) == d:
            a = source.values
        else:
            a = functools.reduce(np.multiply.outer, [source.factors[i] for i in ax])
        boxes.append((_twist(R, a, o[0], [o[1 + i] for i in ax]), R % m_alpha))
        shapes.append(_on_axes(ax, d, m))

    def compute(start: int, out: np.ndarray) -> None:
        # the only place a chunk is computed. It may run on the worker thread,
        # so it calls no public name: a tracer that patches those keeps one
        # single-threaded span stack
        k = np.arange(start, start + len(out), dtype=np.int64)
        if len(boxes) == 1:
            _chunk_fft(boxes[0], k, roots, m, out)
            return
        parts = [_chunk_fft(b, k, roots, m).reshape(s) for b, s in zip(boxes, shapes)]
        np.multiply(functools.reduce(np.multiply, parts[:-1]), parts[-1], out=out)

    jobs = (
        (start, np.empty((min(chunk, m_alpha - start),) + (m,) * d, dtype=np.complex128))
        for start in range(0, m_alpha, chunk)
    )
    if _WORKERS < 2 or m_alpha <= chunk or not _PREFETCH.acquire(blocking=False):
        for start, out in jobs:
            compute(start, out)
            yield start, out
        return
    from concurrent.futures import ThreadPoolExecutor

    # leaving the block, also by close() or an error, waits for the worker
    # and then lets the next generator have one
    try:
        with ThreadPoolExecutor(1) as pool:
            ahead = None
            for start, out in jobs:
                job = (pool.submit(compute, start, out), start, out)
                if ahead is not None:
                    ahead[0].result()
                    yield ahead[1:]
                ahead = job
            ahead[0].result()
            yield ahead[1:]
    finally:
        _PREFETCH.release()


def _on_axes(ax: Sequence[int], d: int, m: int) -> tuple[int, ...]:
    """The shape that lays a block's chunk, on ascending axes `ax`, onto d."""
    return (-1,) + tuple(m if i in ax else 1 for i in range(d))


def _block_fields(
    form: QuadraticForm, source: CoefficientSequence, grid: TorusGrid
) -> Iterator[list[np.ndarray]]:
    """Yield, per alpha chunk, the field of each block of `form` for a
    sequence that declares `factors`, laid onto the grid's axes by
    `_on_axes`, so that their broadcast product is the field (F = prod_B F_B).
    Each comes from `iter_field_chunks` on the block's form, factors and
    theta offsets, in chunks that line up across blocks and hold at most
    `_CHUNK_BYTES` for any block, or for the product of all but the last.
    All are computed on the consumer's thread: this holds the worker slot
    `_PREFETCH` while it runs, when it is free."""
    d, m, o = source.dim, grid.m_theta, grid.offset
    if grid.dim != d:
        raise ValueError("grid dim does not match the sequence dim")
    e = len(form.blocks[-1][0])  # the last block's axes; the others have d - e
    chunk = max(1, _CHUNK_BYTES // (16 * m ** max(d - e, e)))
    fields, shapes = [], []
    for ax, block in form.blocks:
        a = [source.factors[i] for i in ax]
        seq = CoefficientSequence(len(ax), source.radius, None, factors=a)
        sub = TorusGrid(len(ax), grid.m_alpha, m, (o[0],) + tuple(o[1 + i] for i in ax))
        fields.append(iter_field_chunks(block, seq, sub, chunk))
        shapes.append(_on_axes(ax, d, m))
    held = _PREFETCH.acquire(blocking=False)
    try:
        for chunks in zip(*fields, strict=True):
            yield [v.reshape(s) for (_, v), s in zip(chunks, shapes)]
    finally:
        if held:
            _PREFETCH.release()


def _twist(
    R: np.ndarray, values: np.ndarray, alpha: float, theta: Sequence[float]
) -> np.ndarray:
    """a(n) e(alpha R(n) + theta . n) on [-r, r]^e, from R(n) and a(n) there."""
    r = (R.shape[0] - 1) // 2
    coords = np.meshgrid(*[np.arange(-r, r + 1)] * R.ndim, indexing="ij", sparse=True)
    phase = alpha * R
    for t_i, n_i in zip(theta, coords):
        phase = phase + t_i * n_i
    return values * np.exp(2j * np.pi * phase)


def _chunk_fft(
    box: tuple[np.ndarray, np.ndarray],
    k: np.ndarray,
    roots: np.ndarray,
    m: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The box's sum at alpha indices k on the m^e theta grid, in `out` if
    given (shape (len(k),) + (m,)*e, complex128).

    base(n) is twisted by the root-table entry e(j/m_alpha), j = k R(n) mod
    m_alpha (exact in int64, so no phase error grows with k R(n)), placed at
    n mod m of a zeroed array and transformed there by an unnormalized
    inverse FFT (sign convention e(+theta . n)). The indices and the twist
    are built per sub-block of alphas whose twist fits in `_SCRATCH_BYTES`.
    """
    base, r_mod = box
    e, r = base.ndim, (base.shape[0] - 1) // 2
    vals = np.empty((len(k),) + (m,) * e, dtype=np.complex128) if out is None else out
    vals.fill(0)
    # n in [-r, r] sits at n mod m: box[r:] goes to [0, r], box[:r] to [m-r, m)
    halves = ((slice(r, None), slice(0, r + 1)), (slice(None, r), slice(m - r, m)))
    step = max(1, _SCRATCH_BYTES // (16 * base.size))
    for j in range(0, len(k), step):
        idx = np.multiply.outer(k[j : j + step], r_mod)
        twist = roots[np.remainder(idx, len(roots), out=idx)]
        # one product over the whole box: numpy rounds a one-element product
        # by another loop, so per-corner products would make values depend on
        # chunk
        twist *= base
        for corner in itertools.product(halves, repeat=e):
            at, to = zip(*corner)
            vals[(slice(j, j + step), *to)] = twist[(..., *at)]
    return np.fft.ifftn(vals, axes=tuple(range(1, e + 1)), norm="forward", out=vals)


# ---------------------------------------------------------------------------
# complete sums and the continuous factor


def _residue_r_mod(form: QuadraticForm, q: int) -> np.ndarray:
    """R(u) mod q on u in [0,q)^d as int64."""
    return form.values_on([np.arange(q, dtype=np.int64)] * form.dim) % q


def _check_complete_sum(form: QuadraticForm, a: int, q: int, max_terms: int) -> None:
    if q < 1:
        raise ValueError("q must be >= 1")
    if gcd(a, q) != 1:
        raise ValueError(f"need gcd(a, q) = 1, got a={a}, q={q}")
    if q**form.dim > max_terms:
        raise ValueError(f"q^d = {q**form.dim} exceeds max_terms={max_terms}")


def gauss_sum(
    form: QuadraticForm, a: int, b: Sequence[int], q: int, max_terms: int = 2**22
) -> complex:
    """Complete sum S(a,b;q) = sum_{u in (Z/q)^d} e((a R(u) + b . u)/q).

    Phases are reduced mod q exactly and looked up in a length-q root table,
    so the only rounding is in the final pairwise summation.
    """
    d = form.dim
    bv = [int(x) for x in b]
    if len(bv) != d:
        raise ValueError(f"b must have length {d}")
    _check_complete_sum(form, a, q, max_terms)
    phases = (int(a) % q) * _residue_r_mod(form, q)
    coords = np.arange(q, dtype=np.int64)
    grids = np.meshgrid(*([coords] * d), indexing="ij")
    for i in range(d):
        if bv[i] % q:
            phases = phases + (bv[i] % q) * grids[i]
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    return complex(np.sum(roots[phases % q]))


def gauss_sum_table(
    form: QuadraticForm, a: int, q: int, max_terms: int = 2**22
) -> np.ndarray:
    """S(a, b; q) for every residue b, shape (q,)*d, via a length-q DFT.

    The table is the inverse FFT of e_q(a R(u)) scaled by q^d, exploiting
    S(a, b; q) = sum_u e_q(a R(u)) e_q(b . u).
    """
    _check_complete_sum(form, a, q, max_terms)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    x = roots[(int(a) % q) * _residue_r_mod(form, q) % q]
    return np.fft.ifftn(x) * float(q**form.dim)


def _composite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre panels with `order` nodes on each of [-2,-1], [-1,1] and
    [1,2], the pieces on which eta has one formula."""
    pieces = ((-2, -1), (-1, 1), (1, 2))
    xs, ws = zip(*(gauss_panels(lo, hi, order) for lo, hi in pieces))
    return np.concatenate(xs), np.concatenate(ws)


def _axis_orders(
    form: QuadraticForm,
    beta: float,
    gamma_bound: Sequence[float],
    N: int,
) -> list[int]:
    """Per-axis node counts per piece from the phase bandwidth, in whole
    32-node panels.

    On [-2,2]^d the phase beta N^2 R(x) + N gamma . x has per-axis frequency
    at most nu_i = |beta| N^2 * 4 sum_j |M_ij| + N |gamma_i| cycles per unit.
    """
    orders = []
    for i in range(form.dim):
        row = sum(abs(v) for v in form.matrix[i])
        nu = abs(beta) * N * N * 4.0 * row + N * abs(gamma_bound[i])
        orders.append(int(32 * ceil((4.5 * nu + 24.0) / 32)))
    return orders


def _integral_batch(
    form: QuadraticForm,
    beta: float,
    values: Sequence[np.ndarray],
    N: int,
    orders: Sequence[int],
    max_nodes: int = 2**24,
) -> np.ndarray:
    """I(beta, gamma; N) = int eta(x) e(beta N^2 R(x) + N gamma . x) dx on the
    product set gamma in values[0] x ... x values[d-1], one 1-D array of
    gamma_i per axis; the result has shape (len(values[0]), ...).

    The integrand is a product over the blocks of the form, so the table is
    the outer product of one table per block, transposed back to axis order.
    e(N gamma . x) is a product over the axes, so each axis builds one phase
    row e(N u x_i) per value u. A block's weighted core e(beta N^2 R_B)
    prod_i w_i eta(x_i) is built in slabs of its first node axis and each
    slab is contracted against the block's phase rows, leading node axis
    first. A block whose rule has more than `max_nodes` nodes, or whose table
    has more than `max_nodes` entries, raises ValueError.
    """
    # the rule and its eta-weights once per distinct order, for this call only
    rules = {o: _composite_rule(o) for o in set(orders)}
    eta_w = {o: w * bump(x) for o, (x, w) in rules.items()}
    nodes = [rules[o][0] for o in orders]
    rows = [np.exp(2j * np.pi * N * np.outer(u, x)) for u, x in zip(values, nodes)]
    tables, order = [], []
    for ax, block in form.blocks:
        axes = [nodes[i] for i in ax]
        weights = [eta_w[orders[i]] for i in ax]
        total = prod(len(x) for x in axes)
        entries = prod(len(rows[i]) for i in ax)
        if max(total, entries) > max_nodes:
            raise ValueError(
                f"tensor quadrature grid of {total} nodes (table of {entries} "
                f"entries) exceeds {max_nodes}"
            )
        step = max(1, 2**20 // (total // len(axes[0])))
        table = 0.0
        for j in range(0, len(axes[0]), step):
            cut = slice(j, j + step)
            acc = (2j * np.pi * beta * N * N) * block.values_on([axes[0][cut]] + axes[1:])
            np.exp(acc, out=acc)
            acc *= functools.reduce(np.multiply.outer, [weights[0][cut]] + weights[1:])
            # each contraction appends its value axis after the remaining node axes
            for row in [rows[ax[0]][:, cut]] + [rows[i] for i in ax[1:]]:
                acc = np.tensordot(acc, row, axes=([0], [1]))
            table = table + acc
        tables.append(table)
        order += ax
    return functools.reduce(np.multiply.outer, tables).transpose(np.argsort(order))


@dataclass(frozen=True)
class OscillatoryIntegral:
    value: complex
    error_estimate: float
    orders: tuple[int, ...]


def oscillatory_integral(
    form: QuadraticForm,
    beta: float,
    gamma: Sequence[float],
    N: int,
) -> OscillatoryIntegral:
    """Tensor Gauss-Legendre value of I(beta, gamma; N) with an a-posteriori
    error estimate (difference against the rule of twice the order)."""
    g = np.asarray(gamma, dtype=float)
    if g.shape != (form.dim,):
        raise ValueError(f"gamma must have length {form.dim}")
    orders = _axis_orders(form, beta, np.abs(g), N)
    values = g[:, None]
    full = _integral_batch(form, beta, values, N, orders).item()
    finer = _integral_batch(form, beta, values, N, [2 * o for o in orders]).item()
    return OscillatoryIntegral(full, abs(full - finer), tuple(orders))


@dataclass(frozen=True)
class MajorArcApprox:
    value: complex
    outer_shell: float
    m_cut: int
    terms: int


def major_arc_approx(
    form: QuadraticForm,
    weight: SmoothWeight,
    a: int,
    q: int,
    beta: float,
    theta: Sequence[float],
    m_cut: int = 3,
) -> MajorArcApprox:
    """Poisson-summation approximant to the smoothed sum at alpha = a/q + beta:

        F ~ sum_b q^{-d} S(a,b;q) sum_{|m|_inf <= m_cut} N^d I(beta, theta - b/q - m; N).

    Returns the truncated value together with the total magnitude of the
    outermost shell |m|_inf = m_cut, a heuristic for the truncation error.
    """
    d, N = weight.dim, weight.N
    th = np.asarray(theta, dtype=float)
    if th.shape != (d,):
        raise ValueError(f"theta must have length {d}")
    if m_cut < 1:
        raise ValueError("m_cut must be >= 1")
    gauss = gauss_sum_table(form, a, q) / float(q**d)
    m = np.arange(-m_cut, m_cut + 1)
    # gamma_i(b_i, m_i) = theta_i - b_i/q - m_i, laid out as (b_i, m_i)
    values = [(t - np.arange(q)[:, None] / q - m).ravel() for t in th]
    orders = _axis_orders(form, beta, np.abs(th) + 1.0 + m_cut, N)
    ivals = _integral_batch(form, beta, values, N, orders)
    # S(a,b;q)/q^d over the b axes, leaving one sum per m
    b_axes, m_axes = list(range(d)), list(range(d, 2 * d))
    bm_axes = [k for pair in zip(b_axes, m_axes) for k in pair]
    per_m = np.einsum(gauss, b_axes, ivals.reshape((q, len(m)) * d), bm_axes, m_axes)
    per_m *= float(N) ** d
    outer = functools.reduce(np.maximum, np.ix_(*[np.abs(m)] * d)) == m_cut
    shell = float(np.abs(per_m[outer].sum()))
    return MajorArcApprox(complex(per_m.sum()), shell, m_cut, q**d * per_m.size)
