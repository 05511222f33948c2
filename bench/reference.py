"""Computations the benchmark makes apart from quadsums, to check its outputs.

Nothing here imports quadsums: forms arrive as integer matrices and
coefficients as plain arrays over the box [-radius, radius]^d.
"""

from __future__ import annotations

import numpy as np

# Rows of the (keys x support) outer sum formed at once.
_CHUNK_ENTRIES = 2**22


def form_values(matrix, radius: int) -> np.ndarray:
    """R(n) = n^T M n in int64 for n in [-radius, radius]^d, index n + radius."""
    m = np.asarray(matrix, dtype=np.int64)
    d = m.shape[0]
    coords = np.arange(-radius, radius + 1, dtype=np.int64)
    pts = np.stack(np.meshgrid(*([coords] * d), indexing="ij"), axis=-1)
    return np.einsum("...i,ij,...j->...", pts, m, pts)


def paper_exponent(d: int, p: float) -> float:
    """Exponent of N in the truncated moment for unit-norm coefficients:
    |F| > N^{d/4} on a set of measure about N^{-(d+2)} with |F|^p about
    N^{dp/2}, so the truncated moment grows like N^{dp/2 - (d+2)}."""
    return d * p / 2.0 - (d + 2)


def key_moment(matrix, values: np.ndarray, p: int) -> float:
    """int |F|^p for even p, by folding the support into p/2-tuple keys.

    A point n has the mixed-radix key ((R(n) - R_min), n_1 + r, ..., n_d + r)
    with radix 2hr + 1 (h = p/2) per coordinate digit, so the sum of h keys
    encodes the digit sums without carries and equal keys are exactly the
    frequency collisions (sum R(n_i), sum n_i). The moment is the sum of
    |W|^2 over the h-fold bucket weights W. For 0/1 coefficients the weights
    are tuple counts, kept integral (float64 below 2^53, checked) and squared
    in int64 (below 2^62, checked). The key table is dense, with
    (h * span + 1) * (2hr + 1)^d entries: sized for the benchmark's inputs.
    """
    if p < 2 or p % 2:
        raise ValueError(f"p must be even and >= 2, got {p}")
    vals = np.asarray(values)
    d = vals.ndim
    r = (vals.shape[0] - 1) // 2
    h = p // 2
    nz = np.flatnonzero(vals)
    if nz.size == 0:
        return 0.0
    a = vals.ravel()[nz]
    r_vals = form_values(matrix, r).ravel()[nz]
    idx = np.unravel_index(nz, vals.shape)
    radix = 2 * h * r + 1
    key1 = r_vals - r_vals.min()
    for axis in range(d):
        key1 = key1 * radix + idx[axis].astype(np.int64)
    span = int(r_vals.max() - r_vals.min())
    n_keys = (h * span + 1) * radix**d
    counting = bool(np.all(a == 1))
    keys = np.zeros(1, dtype=np.int64)
    weights = np.ones(1) if counting else np.ones(1, dtype=np.complex128)
    for _ in range(h):
        keys, weights = _fold(keys, weights, key1, None if counting else a, n_keys)
    if counting:
        if weights.max() >= 2.0**53 or np.any(weights != np.round(weights)):
            raise ArithmeticError("tuple counts left the exact float64 range")
        if float(weights.max()) ** 2 * weights.size >= 2.0**62:
            raise ArithmeticError("sum of squared tuple counts leaves int64")
        w = weights.astype(np.int64)
        return float(np.sum(w * w))
    return float(np.sum(weights.real**2 + weights.imag**2))


def _fold(keys, weights, key1, a, n_keys):
    """Convolve the bucket weights (keys, weights) with one more point."""
    step = max(1, _CHUNK_ENTRIES // key1.size)
    acc = np.zeros(n_keys, dtype=weights.dtype)
    for k0 in range(0, keys.size, step):
        kk = (keys[k0 : k0 + step, None] + key1[None, :]).ravel()
        ww = weights[k0 : k0 + step, None] if a is None else (
            weights[k0 : k0 + step, None] * a[None, :]
        )
        ww = np.broadcast_to(ww, (ww.shape[0], key1.size)).ravel()
        acc += _bincount(kk, ww, n_keys)
    hit = np.flatnonzero(acc)
    return hit.astype(np.int64), acc[hit]


def _bincount(idx, w, size):
    if np.iscomplexobj(w):
        return np.bincount(idx, w.real, size) + 1j * np.bincount(idx, w.imag, size)
    return np.bincount(idx, w, size)


def brute_moment(matrix, values: np.ndarray, p: int) -> float:
    """The same moment by listing every p/2-tuple in a dict; tiny inputs only."""
    import itertools

    vals = np.asarray(values)
    r = (vals.shape[0] - 1) // 2
    rv = form_values(matrix, r)
    pts = [
        (rv[idx], tuple(i - r for i in idx), vals[idx])
        for idx in np.ndindex(vals.shape)
        if vals[idx] != 0
    ]
    buckets: dict = {}
    for combo in itertools.product(pts, repeat=p // 2):
        key = (
            int(sum(c[0] for c in combo)),
            tuple(sum(c[1][i] for c in combo) for i in range(vals.ndim)),
        )
        amp = complex(np.prod([c[2] for c in combo]))
        buckets[key] = buckets.get(key, 0j) + amp
    return float(sum(abs(z) ** 2 for z in buckets.values()))


def direct_sum(matrix, values: np.ndarray, alpha: float, theta) -> complex:
    """F(alpha, theta) = sum_n a(n) e(alpha R(n) + theta . n), with each phase
    reduced mod 1 before the exponential."""
    vals = np.asarray(values)
    d = vals.ndim
    r = (vals.shape[0] - 1) // 2
    rv = form_values(matrix, r)
    coords = np.arange(-r, r + 1)
    grids = np.meshgrid(*([coords] * d), indexing="ij")
    phase = float(alpha) * rv.astype(float)
    for i in range(d):
        phase = phase + float(theta[i]) * grids[i]
    phase = phase - np.floor(phase)
    return complex(np.sum(vals * np.exp(2j * np.pi * phase)))
