"""Checks for the shared smooth cutoff against high-precision quadrature."""

from math import ceil

import mpmath as mp
import numpy as np

from quadsums.bump import _MOLLIFIER_MASS, SmoothBump, bump, gauss_panels, smoothstep

mp.mp.dps = 25


def _mp_mollifier(t):
    if abs(t) >= 1:
        return mp.mpf(0)
    return mp.e ** (-1 / (1 - t * t))


_MP_MASS = mp.quad(_mp_mollifier, [-1, 1])


def _mp_smoothstep(u):
    if u <= -1:
        return mp.mpf(0)
    if u >= 1:
        return mp.mpf(1)
    return mp.quad(_mp_mollifier, [-1, u]) / _MP_MASS


def _mp_kappa(x):
    ax = abs(x)
    if ax <= 1:
        return mp.mpf(1)
    if ax >= 2:
        return mp.mpf(0)
    return _mp_smoothstep(3 - 2 * ax)


def _mp_kappa_hat(xi):
    def f(x):
        return _mp_kappa(x) * mp.cos(2 * mp.pi * xi * x)

    return 2 * (mp.quad(f, [0, 1]) + mp.quad(f, [1, 2]))


def test_mollifier_mass_constant():
    assert abs(float(_MP_MASS) - _MOLLIFIER_MASS) <= 1e-15


def test_smoothstep_against_quadrature():
    for u in (-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75):
        assert abs(smoothstep(u) - float(_mp_smoothstep(u))) <= 1e-13


def test_smoothstep_range_and_symmetry():
    u = np.linspace(-1.5, 1.5, 301)
    s = smoothstep(u)
    assert np.all(s >= 0.0) and np.all(s <= 1.0)
    assert np.all(np.diff(s) >= 0.0)
    # S(u) + S(-u) = 1 by the even symmetry of the mollifier
    assert np.abs(s + smoothstep(-u) - 1.0).max() <= 1e-14
    assert abs(smoothstep(0.0) - 0.5) <= 1e-14
    assert smoothstep(-1.0) == 0.0 and smoothstep(1.0) == 1.0


def test_bump_profile():
    assert bump(0.0) == 1.0
    assert bump(1.0) == 1.0 and bump(-1.0) == 1.0
    assert bump(2.0) == 0.0 and bump(-2.5) == 0.0
    x = np.linspace(-2.2, 2.2, 441)
    vals = bump(x)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.abs(vals - bump(-x)).max() == 0.0
    for t in (1.25, 1.5, 1.75):
        assert abs(bump(t) - float(_mp_kappa(t))) <= 1e-13


def test_values_do_not_depend_on_the_batch():
    # one row per point, reduced on its own: an array call gives each point
    # the value of its scalar call, bit for bit, whatever shares the batch
    rng = np.random.default_rng(19)
    edge_u = [np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0), -1.0, 1.0, 0.0]
    u = np.concatenate([edge_u, rng.uniform(-1.0, 1.0, 120)])
    edge_x = [s * e for s in (1.0, -1.0) for e in (
        1.0, np.nextafter(1.0, 2.0), 2.0, np.nextafter(2.0, 1.0), 1.5)]
    x = np.concatenate([edge_x, rng.uniform(-2.5, 2.5, 120)])
    for fn, pts in ((smoothstep, u), (bump, x)):
        single = np.array([fn(float(v)) for v in pts])
        assert np.array_equal(single, [fn(np.float64(v)) for v in pts])
        assert np.array_equal(single, [fn(np.array(v)) for v in pts])
        for k in (1, 2, 3, 7, 16, 33, 64, 100):
            for off in (0, 1, 5, 17):
                got = fn(pts[off : off + k])
                assert got.tobytes() == single[off : off + k].tobytes(), (fn, k, off)
        assert fn(pts.reshape(5, -1)).tobytes() == single.tobytes()


def test_nan_stays_nan():
    for fn in (smoothstep, bump):
        assert np.isnan(fn(float("nan")))
        got = fn(np.array([0.5, np.nan, 1.5]))
        assert np.isnan(got[1]) and not np.isnan(got[[0, 2]]).any()


def test_bump_mass():
    # int kappa = 3 exactly from S(u) + S(-u) = 1; cross-check by quadrature
    assert bump.mass == 3.0
    nodes, weights = np.polynomial.legendre.leggauss(96)
    total = 0.0
    for lo, hi in ((-2.0, -1.0), (-1.0, 1.0), (1.0, 2.0)):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * float(weights @ bump(mid + half * nodes))
    assert abs(total - 3.0) <= 1e-13


def test_gauss_panels_node_count_and_exactness():
    # each 32-node panel is exact to degree 63; the error in x^k is measured
    # against the scale int |x|^k of the integrand's size
    for lo, hi in ((1.0, 2.0), (-1.0, 1.0), (0.0, 3.0)):
        for n in (1, 33, 65, 128):
            x, w = gauss_panels(lo, hi, n)
            assert x.shape == w.shape == (32 * ceil(n / 32),)
            assert np.all((lo <= x) & (x <= hi)) and np.all(np.diff(x) > 0)
            for k in range(64):
                exact = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
                scale = (abs(lo) ** (k + 1) + abs(hi) ** (k + 1)) / (k + 1)
                assert abs(w @ x**k - exact) <= 1e-13 * scale, (lo, hi, n, k)


def test_fourier_against_quadrature():
    for xi in (0.3, 1.25, 2.5, 7.5):
        assert abs(bump.fourier(xi) - float(_mp_kappa_hat(xi))) <= 5e-12


def test_fourier_zero_and_even():
    assert bump.fourier(0.0) == 3.0
    for xi in (0.7, 3.3):
        assert bump.fourier(xi) == bump.fourier(-xi)


def test_fourier_vanishes_at_nonzero_integers():
    # 2 int_0^1 cos(2 pi m x) dx = 0, and on the transition the substitution
    # x = 3/2 + t/2 leaves int (S(-t) - 1/2) cos(pi m t) dt, odd integrand: 0.
    for m in range(1, 13):
        assert abs(bump.fourier(float(m))) <= 1e-12


def test_fourier_cache_is_per_instance():
    fresh = SmoothBump()
    assert fresh.fourier(1.3) == bump.fourier(1.3)
    assert fresh._ft_cache is not bump._ft_cache
