"""Smooth compactly supported cutoff shared by the weight and the mollifiers.

One fixed profile: kappa(x) = 1 for |x| <= 1, kappa(x) = 0 for |x| >= 2, and
on 1 < |x| < 2 the monotone C-infinity transition S(3 - 2|x|), where S is the
normalized integral of the standard mollifier t -> exp(-1/(1-t^2)).
"""

from __future__ import annotations

from math import ceil

import numpy as np

# int_{-1}^{1} exp(-1/(1-t^2)) dt, the smoothstep normalizer
# (verified against high-precision quadrature in the tests).
_MOLLIFIER_MASS = 0.443993816168079437823048921171

_GL_ORDER = 96
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)
_GL_SHIFTED = _GL_NODES + 1.0  # the nodes mapped from [-1, 1] to [0, 2]

_PANEL = 32
_PANEL_NODES, _PANEL_WEIGHTS = np.polynomial.legendre.leggauss(_PANEL)


def gauss_panels(lo: float, hi: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ceil(nodes/32) equal 32-node Gauss-Legendre panels
    on [lo, hi], in increasing order: the one rule of variable size."""
    k = max(1, ceil(nodes / _PANEL))
    half = 0.5 * (hi - lo) / k
    mids = lo + half * (2 * np.arange(k) + 1)
    x = (mids[:, None] + half * _PANEL_NODES).ravel()
    return x, np.tile(half * _PANEL_WEIGHTS, k)


def _mollifier(t: np.ndarray) -> np.ndarray:
    """exp(-1/(1-t^2)) for t in [-1, 1), where `_transition` puts its nodes:
    0 at t = -1, where the exponent is -inf, so no mask is needed."""
    with np.errstate(divide="ignore"):
        return np.exp(-1.0 / (1.0 - t * t))


def _transition(u: np.ndarray) -> np.ndarray:
    """S on 1-d u, every entry in (-1, 1) or NaN: one 96-node row per point,
    each reduced on its own, so a value never depends on the other points."""
    # map [-1, u] onto the fixed rule; integrand vanishes to all orders
    # at the endpoints so the fixed order is ample (checked vs mpmath)
    half = 0.5 * (u + 1.0)
    t = -1.0 + half[:, None] * _GL_SHIFTED[None, :]
    vals = np.einsum("ij,j->i", _mollifier(t), _GL_WEIGHTS)
    return np.clip(vals * half / _MOLLIFIER_MASS, 0.0, 1.0)


def smoothstep(u):
    """S(u) = int_{-1}^{u} exp(-1/(1-t^2)) dt / int_{-1}^{1}, clipped to [0,1].

    S is C-infinity, increasing, S(-1) = 0, S(0) = 1/2, S(1) = 1.
    """
    if isinstance(u, float) or np.ndim(u) == 0:
        u = float(u)
        if u <= -1.0:
            return 0.0
        if u >= 1.0:
            return 1.0
        # `_transition`'s operations on the one row, without its 1-element
        # arrays: the same bits as an array call
        half = 0.5 * (u + 1.0)
        row = _mollifier(-1.0 + half * _GL_SHIFTED)[None, :]
        val = float(np.einsum("ij,j->i", row, _GL_WEIGHTS)[0]) * half / _MOLLIFIER_MASS
        return min(max(val, 0.0), 1.0)
    u_arr = np.asarray(u, dtype=float)
    out = np.empty_like(u_arr)
    lo = u_arr <= -1.0
    hi = u_arr >= 1.0
    out[lo] = 0.0
    out[hi] = 1.0
    mid = ~(lo | hi)
    if np.any(mid):
        out[mid] = _transition(u_arr[mid])
    return out


class SmoothBump:
    """Even cutoff with 1 on [-1,1], support in [-2,2], C-infinity transition.

    Instances are stateless apart from a Fourier-value cache, so one module
    level instance is shared by the weight (eta) and the mollifier (kappa).
    """

    def __init__(self):
        self._ft_cache: dict[float, float] = {}

    def __call__(self, x):
        """kappa(x) for a number (returned as a float) or a numpy array.

        S(u) is 1 for u >= 1 (|x| <= 1) and 0 for u <= -1 (|x| >= 2). The
        builtin abs keeps a scalar call off numpy's ufunc path."""
        return smoothstep(3.0 - 2.0 * abs(x))

    @property
    def mass(self) -> float:
        # int kappa = 2*1 + 2*(1/2) by the symmetry S(u) + S(-u) = 1
        return 3.0

    def fourier(self, xi: float) -> float:
        """Real-line Fourier transform kappa-hat(xi) = int kappa(x) e(-xi x) dx.

        kappa is real and even, so kappa-hat is real and even: it equals
        2*(int_0^1 cos(2 pi xi x) dx + int_1^2 kappa(x) cos(2 pi xi x) dx),
        the first term in closed form, the second by Gauss-Legendre panels,
        their number scaled to the |xi| cycles crossing the transition.
        """
        xi = float(abs(xi))
        got = self._ft_cache.get(xi)
        if got is not None:
            return got
        if xi == 0.0:
            val = self.mass
        else:
            core = np.sin(2.0 * np.pi * xi) / (np.pi * xi)  # 2*int_0^1 cos(2 pi xi x)
            # transition piece on [1,2]: |xi| cycles, at least 3 panels
            x, w = gauss_panels(1.0, 2.0, 80 + ceil(3.5 * xi))
            f = self(x) * np.cos(2.0 * np.pi * xi * x)
            val = core + 2.0 * float(w @ f)
        self._ft_cache[xi] = val
        return val


#: shared profile; eta_1 for the weight and kappa for the mollifiers
bump = SmoothBump()
