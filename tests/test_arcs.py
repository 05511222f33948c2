"""Arithmetic helpers, the arc mollifier family, and its Fourier data."""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from quadsums import (
    ArcLabel,
    DisjointnessError,
    MollifierFamily,
    SmoothWeight,
    divisor_moment,
    dvp_window,
    extension_direct,
    frequency_bound,
    parse_form_spec,
    partition_identity_check,
    ramanujan_sum,
    random_unit_sequence,
    truncated_divisor,
)
from quadsums.bump import bump

HYPER = parse_form_spec("diag:1,-1")
LINE = parse_form_spec("diag:1")


def test_ramanujan_examples():
    assert ramanujan_sum(1, 7) == 1
    assert ramanujan_sum(6, 0) == 2
    assert ramanujan_sum(5, 10) == 4
    assert ramanujan_sum(5, 3) == -1


def test_ramanujan_dual_route():
    # exponential-sum definition vs the Moebius evaluation
    for q in range(1, 51):
        roots = np.exp(2j * np.pi * np.arange(q) / q)
        units = [a for a in range(q) if gcd(a, q) == 1]
        for n in range(-50, 51):
            direct = sum(roots[(a * n) % q] for a in units)
            assert abs(direct - ramanujan_sum(q, n)) <= 1e-9
            assert abs(direct.imag) <= 1e-9


def test_truncated_divisor():
    assert truncated_divisor(0, 7) == 7
    assert truncated_divisor(12, 4) == 4
    assert truncated_divisor(-12, 4) == 4
    assert truncated_divisor(7, 4) == 1
    for n in range(-60, 61):
        for Q in (1, 3, 8):
            want = Q if n == 0 else sum(1 for q in range(1, Q + 1) if n % q == 0)
            assert truncated_divisor(n, Q) == want


def test_divisor_moment_matches_brute_force():
    for X, Q, B in ((50, 7, 1), (100, 9, 3)):
        want = sum(truncated_divisor(n, Q) ** B for n in range(-X, X + 1))
        assert divisor_moment(X, Q, B) == want


def test_divisor_moment_growth():
    # normalized third moment with Q ~ X^{1/3}; frozen regression caps
    caps = {100: 32.0, 1000: 70.0, 10000: 145.0}
    for X, cap in caps.items():
        Q = int(2 * X ** (1 / 3))
        v = divisor_moment(X, Q, 3) / (2 * X + 1) / Q**0.2
        assert v <= cap


def test_dvp_window_profile():
    assert dvp_window(0.0, 4.0) == 1.0
    assert dvp_window(4.0, 4.0) == 1.0
    assert abs(dvp_window(6.0, 4.0) - 0.5) <= 1e-15
    assert dvp_window(8.0, 4.0) == 0.0
    assert dvp_window(-6.0, 4.0) == dvp_window(6.0, 4.0)
    assert dvp_window(9.0, 4.0) == 0.0


def test_family_structure():
    fam = MollifierFamily(64)
    assert fam.N1 == 4 and fam.s_max == 6 and fam.N_tilde == 64
    assert fam.dyadic_Q == (1, 2, 4)
    # block Q covers moduli q in [Q, 2Q)
    qs = sorted({(Q, q) for _, _, q, Q in fam._fractions})
    for Q, q in qs:
        assert Q <= q < 2 * Q
    assert len(fam._fractions) == 18
    assert list(fam.s_range(4)) == [2, 3, 4, 5, 6]
    assert fam.index_pairs()[0] == (1, 0)
    assert len(fam.index_pairs()) == 18


def test_family_custom_c1():
    fam = MollifierFamily(64, c1=Fraction(1, 32))
    assert fam.N1 == 2
    assert fam.dyadic_Q == (1, 2)


def test_family_without_arcs():
    fam = MollifierFamily(8)
    assert fam.N1 == 0
    assert fam.index_pairs() == []
    assert fam.rho_integral == 1.0
    x = np.linspace(0, 1, 101)
    assert np.all(fam.rho_values(x) == 1.0)


def test_family_block_validation():
    fam = MollifierFamily(64)
    with pytest.raises(ValueError, match="power of two"):
        fam.s_range(3)
    with pytest.raises(ValueError, match="top dyadic scale"):
        fam.s_range(128)
    with pytest.raises(ValueError, match="exceeds N1"):
        fam.Phi_integral(8, 3)
    with pytest.raises(ValueError, match="must lie in"):
        fam.phi_s_integral(99)
    with pytest.raises(ValueError, match="outside"):
        fam.Phi_Qs(4, 1, 0.5)


def test_split_blocks():
    fam = MollifierFamily(64)
    head, tail = fam.split_blocks(1)
    assert head == [(1, s) for s in range(7)]
    assert all(Q > 1 for Q, _ in tail)
    head, tail = fam.split_blocks(4)
    assert tail == [] and len(head) == 18


def test_disjointness_failure():
    with pytest.raises(DisjointnessError) as info:
        MollifierFamily(32, c1=Fraction(1, 8))
    err = info.value
    assert "choose a smaller c1" in str(err)
    assert err.first != err.second
    # the default c1 keeps every family up to N = 256 disjoint
    for N in (16, 32, 48, 64, 128, 256):
        MollifierFamily(N)


def test_fold():
    fam = MollifierFamily(64)
    lo = 1 / (2 * fam.N1)
    for x in (-3.7, -0.2, 0.0, 0.1249, 0.125, 0.4, 1.0, 2.6):
        f = fam.fold(x)
        assert lo < f <= 1 + lo
        assert abs((f - x) - round(f - x)) <= 1e-12
    assert fam.fold(0.0) == 1.0


def test_phi_s_profile():
    fam = MollifierFamily(64)
    # difference of cutoffs vanishes at the center except at the top scale
    for s in range(fam.s_max):
        assert fam.phi_s(s, 0.0) == 0.0
    assert fam.phi_s(fam.s_max, 0.0) == 1.0
    # support of phi_s sits inside |x| <= 2 / (2^s N)
    s = 2
    w = 2.0 / (2**s * 64)
    assert fam.phi_s(s, 1.01 * w) == 0.0
    assert fam.phi_s(s, 0.6 * w) > 0.0


def test_phi_integrals_telescope():
    fam = MollifierFamily(64)
    for s in range(fam.s_max):
        assert fam.phi_s_integral(s) == 3.0 / (2 ** (s + 1) * 64)
    assert fam.phi_s_integral(fam.s_max) == 3.0 / (2**fam.s_max * 64)
    total = sum(fam.Phi_integral(Q, s) for Q, s in fam.index_pairs())
    assert abs(total + fam.rho_integral - 1.0) <= 1e-15
    # per fraction the scales telescope to 3/(Q N)
    by_Q = {}
    for _, _, q, Q in fam._fractions:
        by_Q[Q] = by_Q.get(Q, 0) + 1
    for Q in fam.dyadic_Q:
        got = sum(fam.Phi_integral(Q, s) for s in fam.s_range(Q))
        assert abs(got - by_Q[Q] * 3.0 / (Q * 64)) <= 1e-15


def test_Phi_Qs_matches_literal_sum():
    # N = 48 gives a block with two distinct moduli (q = 2, 3)
    fam = MollifierFamily(48)
    rng = np.random.default_rng(37)
    for Q, s in fam.index_pairs():
        for _ in range(40):
            alpha = float(rng.random() * 1.5 - 0.2)
            x = fam.fold(alpha)
            literal = sum(
                fam.phi_s(s, x - a / q)
                for _, a, q, QQ in fam._fractions
                if QQ == Q
            )
            assert abs(fam.Phi_Qs(Q, s, alpha) - literal) <= 1e-14
    # every support edge (just inside and on it), the transition band where
    # kappa is small but nonzero, every centre and both ends of the fold
    # window, against the literal sums over all fractions and their copies
    # a/q +- 1, and classify_arc against brute force
    families = [MollifierFamily(N) for N in (16, 48, 256)]
    families.append(MollifierFamily(64, c1=Fraction(1, 32)))
    for fam in families:
        N, N1, c1 = fam.N, fam.N1, float(fam.c1)
        centres = np.array([a / q for _, a, q, _ in fam._fractions])
        Qs = np.array([Q for *_, Q in fam._fractions])
        alphas = [np.nextafter(1 / (2 * N1), 1.0), 1 + 1 / (2 * N1)]
        for c, Q in zip(centres, Qs):
            alphas.append(c)
            for t in (1.5, 1.99, 2 - 2.0**-40, 2.0):
                alphas += [c - t / (Q * N), c + t / (Q * N)]
        x = np.array([fam.fold(float(alpha)) for alpha in alphas])
        assert np.all((1 / (2 * N1) < x) & (x <= 1 + 1 / (2 * N1)))
        literal = sum(
            bump(Qs * N * (x[:, None] - centres - k)).sum(axis=1) for k in (-1, 0, 1)
        )
        for alpha, lam_lit in zip(alphas, literal):
            lam, rho = fam.lambda_rho(float(alpha))
            assert abs(lam - lam_lit) <= 1e-15 and lam + rho == 1.0
        for Q, s in fam.index_pairs():
            on_q = Qs == Q
            block = fam.phi_s(s, x[:, None] - centres[on_q]).sum(axis=1)
            got = [fam.Phi_Qs(Q, s, float(alpha)) for alpha in alphas]
            assert np.abs(np.array(got) - block).max() <= 1e-15
        for alpha, xx in zip(alphas, x):
            lab = fam.classify_arc(float(alpha))
            near = [
                Fraction(round(xx * q), q)
                for q in range(1, N1 + 1)
                if abs(xx - round(xx * q) / q) <= c1 / (q * N)
            ]
            assert lab.is_major == bool(near)
            if near:
                assert Fraction(lab.a, lab.q) == near[0] and lab.q <= N1
                assert lab.beta == xx - lab.a / lab.q
                assert lab.Q <= lab.q < 2 * lab.Q
    bare = MollifierFamily(8)
    assert bare.N1 == 0
    for alpha in (0.0, 0.5, 1.0, 1 / 3, -0.25, 1e-9, 0.999):
        assert bare.classify_arc(alpha) == ArcLabel("minor")
        assert bare.lambda_rho(alpha) == (0.0, 1.0)
    for fam in (families[0], bare):
        for alpha in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha must be finite"):
                fam.classify_arc(alpha)
            with pytest.raises(ValueError, match="alpha must be finite"):
                fam.lambda_rho(alpha)


def test_partition_of_unity():
    for N in (16, 64, 256):
        fam = MollifierFamily(N)
        for Q in fam.dyadic_Q:
            defect = partition_identity_check(fam, Q, samples=10**4, seed=0)
            assert defect <= 1e-12
        rng = np.random.default_rng(N)
        alphas = rng.random(2000)
        total = fam.rho_values(alphas).astype(float)
        for Q, s in fam.index_pairs():
            total = total + np.array([fam.Phi_Qs(Q, s, a) for a in alphas])
        assert np.abs(total - 1.0).max() <= 1e-12


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def test_rho_values_match_lambda_rho():
    # the one vectorized pass against the pointwise route, bit for bit: the
    # support edges and centres of test_Phi_Qs_matches_literal_sum, both ends
    # of the fold window, and shifted copies below 0 and above 1
    rng = np.random.default_rng(1902)
    families = [MollifierFamily(N) for N in (16, 48, 256)]
    families.append(MollifierFamily(64, c1=Fraction(1, 32)))
    for fam in families:
        N, N1 = fam.N, fam.N1
        alphas = [np.nextafter(1 / (2 * N1), 1.0), 1 / (2 * N1), 1 + 1 / (2 * N1)]
        alphas += [0.0, -0.0, 1.0, -1.0, 2.0, 1e-300, -1e-300]
        for _, a, q, Q in fam._fractions:
            c = a / q
            alphas.append(c)
            for t in (1.5, 1.99, 2 - 2.0**-40, 2.0):
                alphas += [c - t / (Q * N), c + t / (Q * N)]
        alphas = np.array(alphas + list(rng.random(500)))
        alphas = np.concatenate([alphas, alphas - 1.0, alphas + 1.0, alphas - 3.0])
        want = [fam.lambda_rho(float(alpha))[1] for alpha in alphas]
        got = fam.rho_values(alphas)
        assert got.shape == alphas.shape and _bits(got) == _bits(want), N
        assert _bits(fam.rho_values(list(alphas[:50]))) == _bits(want[:50])
        # the held points in the transition band are there, not just 0 and 1
        assert np.sum((got > 0.0) & (got < 1.0)) > len(fam._fractions)
    bare = MollifierFamily(8)
    assert _bits(bare.rho_values([0.0, 0.3, -2.5])) == _bits([1.0, 1.0, 1.0])
    for fam in (families[0], bare):
        assert fam.rho_values([]).shape == (0,)
        assert fam.rho_values(np.array([])).shape == (0,)
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="alpha must be finite"):
                fam.rho_values([0.25, bad])


def test_partition_check_is_the_literal_shell_sum():
    # shared shells: the check's defect is that of sum_s phi_s(x) against
    # kappa(Q N x) on the same seeded points, bit for bit
    for N in (16, 64, 256):
        fam = MollifierFamily(N)
        for Q in fam.dyadic_Q:
            rng = np.random.default_rng(3)
            span = 2.5 / (Q * N)
            x = rng.uniform(-span, span, size=700)
            literal = sum(fam.phi_s(s, x) for s in fam.s_range(Q))
            want = float(np.abs(literal - bump(Q * N * x)).max())
            assert partition_identity_check(fam, Q, samples=700, seed=3) == want


def test_lambda_in_unit_interval():
    fam = MollifierFamily(64)
    rng = np.random.default_rng(5)
    alphas = rng.random(10**5)
    rho = fam.rho_values(alphas)
    assert rho.min() >= -1e-12 and rho.max() <= 1.0 + 1e-12
    for alpha in alphas[:200]:
        lam, r = fam.lambda_rho(float(alpha))
        assert -1e-12 <= lam <= 1 + 1e-12
        assert abs(lam + r - 1.0) <= 1e-12


def test_rho_vanishes_on_cores():
    # exhaustive over every arc center, five points inside each core
    for N in (16, 32, 48, 64):
        fam = MollifierFamily(N)
        for _, a, q, Q in fam._fractions:
            core = 1.0 / (Q * N)
            for t in (-0.99, -0.5, 0.0, 0.5, 0.99):
                _, rho = fam.lambda_rho(a / q + t * core)
                assert abs(rho) <= 1e-12


def test_classify_arc():
    fam = MollifierFamily(64)
    lab = fam.classify_arc(0.5 + 1e-4)
    assert lab.kind == "major" and (lab.a, lab.q, lab.Q) == (1, 2, 2)
    assert abs(lab.beta - 1e-4) <= 1e-15
    assert lab.is_major
    lab = fam.classify_arc(0.41)
    assert lab.kind == "minor" and not lab.is_major
    assert lab.a is None and lab.q is None and lab.beta is None
    # major iff some a/q with q <= N1 approximates to within c1/(qN);
    # every major point then sits inside the core of its arc
    rng = np.random.default_rng(13)
    c1 = float(fam.c1)
    for alpha in rng.random(500):
        lab = fam.classify_arc(float(alpha))
        x = fam.fold(float(alpha))
        brute_major = any(
            abs(x - round(x * q) / q) <= c1 / (q * 64) for q in range(1, fam.N1 + 1)
        )
        assert (lab.kind == "major") == brute_major
        if lab.kind == "major":
            assert 1 <= lab.q <= fam.N1 and gcd(lab.a, lab.q) == 1
            assert abs(lab.beta) <= c1 / (lab.q * 64) + 1e-15
            _, rho = fam.lambda_rho(float(alpha))
            assert rho <= 1e-12


def test_gamma_fourier_normalization():
    fam = MollifierFamily(64)
    assert abs(fam.gamma_fourier(0, 0.0) - 1.5) <= 1e-15
    assert abs(fam.gamma_fourier(fam.s_max, 0.0) - 3.0) <= 1e-15


def test_ramanujan_block():
    fam = MollifierFamily(64)
    for n in (-7, 0, 1, 12):
        assert abs(fam.ramanujan_block(1, n) - 1.0) <= 1e-15
        want = sum(ramanujan_sum(q, n) for q in (2, 3))
        assert abs(fam.ramanujan_block(2, n) - want) <= 1e-12


def _phi_fourier_quad(fam, Q, s, n):
    # composite Gauss-Legendre transform of the block profile, used as an
    # independent oracle for the closed-form route
    nodes, weights = np.polynomial.legendre.leggauss(96)
    scale = (1 << s) * fam.N
    half = 2.0 / scale
    panels = max(16, int(np.ceil(8 * abs(n) * half)))
    edges = np.linspace(-half, half, panels + 1)
    total = 0.0
    for _, a, q, QQ in fam._fractions:
        if QQ != Q:
            continue
        c = a / q
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, rad = c + 0.5 * (lo + hi), 0.5 * (hi - lo)
            x = mid + rad * nodes
            vals = fam.phi_s(s, x - c) * np.cos(2 * np.pi * n * x)
            total += rad * float(weights @ vals)
    return total


def test_Phi_fourier_against_quadrature():
    fam = MollifierFamily(16)
    for Q, s in fam.index_pairs():
        for n in (0, 1, 5, 17, 256):
            got = fam.Phi_fourier(Q, s, n)
            assert abs(got - _phi_fourier_quad(fam, Q, s, n)) <= 1e-12
    fam64 = MollifierFamily(64)
    rng = np.random.default_rng(41)
    for Q in fam64.dyadic_Q:
        ss = fam64.s_range(Q)
        for s in (ss[0], ss[-1]):
            for n in (0, 3, int(rng.integers(20, 120))):
                got = fam64.Phi_fourier(Q, s, n)
                assert abs(got - _phi_fourier_quad(fam64, Q, s, n)) <= 1e-12


def test_Phi_fourier_zero_mode_and_rho():
    fam = MollifierFamily(64)
    for Q, s in fam.index_pairs():
        assert abs(fam.Phi_fourier(Q, s, 0) - fam.Phi_integral(Q, s)) <= 1e-15
    assert abs(fam.rho_fourier(0) - fam.rho_integral) <= 1e-15
    for n in (1, 9, 40):
        total = sum(fam.Phi_fourier(Q, s, n) for Q, s in fam.index_pairs())
        assert abs(fam.rho_fourier(n) + total) <= 1e-15


def test_Phi_fourier_divisor_bound():
    # |Phi-hat(n)| <= C (Q / 2^s N) d(n, 2Q); frozen regression cap
    C = 0.0
    for N in (16, 32):
        fam = MollifierFamily(N)
        for Q, s in fam.index_pairs():
            scale = (1 << s) * N
            for n in range(-200, 201):
                val = abs(fam.Phi_fourier(Q, s, n))
                rhs = (Q / scale) * truncated_divisor(n, 2 * Q)
                C = max(C, val / rhs)
    assert C <= 3.2


def test_pieces_have_mean_zero():
    fam = MollifierFamily(32)
    for Q, s in fam.index_pairs():
        assert abs(fam.Psi_fourier(Q, s, 0)) <= 1e-8
    # time-side Riemann check for one block
    x = np.linspace(0, 1, 200_001)[:-1]
    vals = np.array([fam.Psi_Qs(1, 2, float(t)) for t in x[::100]])
    assert abs(vals.mean()) <= 1e-6


def test_piece_sum_identity():
    # the weighted pieces and the minor remainder reassemble F exactly
    rng = np.random.default_rng(53)
    for d, form in ((1, LINE), (2, HYPER)):
        N = 16
        fam = MollifierFamily(N)
        seq = random_unit_sequence(d, N, seed=61 + d)
        for _ in range(10):
            alpha = float(rng.random())
            theta = rng.random(d)
            total = fam.minor_piece(form, seq, alpha, theta)
            for Q, s in fam.index_pairs():
                total += fam.piece_F_Qs(form, seq, Q, s, alpha, theta)
            direct = extension_direct(form, seq, alpha, theta)
            assert abs(total - direct) <= 1e-8


def test_piece_fourier_coeff_support():
    N = 16
    fam = MollifierFamily(N)
    w = SmoothWeight(2, N)
    B = frequency_bound(HYPER, N)
    # outside the alpha window or the theta box the coefficient vanishes
    assert fam.piece_fourier_coeff(HYPER, w, 1, 2, 2 * B + 1, (0, 0)) == 0.0
    assert fam.piece_fourier_coeff(HYPER, w, 1, 2, 0, (2 * N, 0)) == 0.0
    with pytest.raises(ValueError):
        fam.piece_fourier_coeff(HYPER, SmoothWeight(2, 8), 1, 2, 0, (0, 0))


def _psi_fourier_quad(fam, Q, s, n):
    rho_hat = (1.0 if n == 0 else 0.0) - sum(
        _phi_fourier_quad(fam, Qp, sp, n) for Qp, sp in fam.index_pairs()
    )
    ratio = fam.Phi_integral(Q, s) / fam.rho_integral
    return _phi_fourier_quad(fam, Q, s, n) - ratio * rho_hat


def test_piece_fourier_coeff_against_quadrature():
    N = 32
    fam = MollifierFamily(N)
    w = SmoothWeight(2, N)
    B = frequency_bound(HYPER, N)
    rng = np.random.default_rng(67)
    pairs = fam.index_pairs()
    for _ in range(5):
        Q, s = pairs[int(rng.integers(len(pairs)))]
        l = [int(x) for x in rng.integers(-8, 9, size=2)]
        m = int(rng.integers(-500, 501))
        got = fam.piece_fourier_coeff(HYPER, w, Q, s, m, l)
        omega = w.as_sequence()[tuple(l)].real
        win = dvp_window(float(m), float(B))
        for li in l:
            win *= dvp_window(float(li), 2.0 * N)
        want = win * omega * _psi_fourier_quad(fam, Q, s, m - int(HYPER(l)))
        assert abs(got - want) <= 1e-6


def test_piece_fourier_coeff_divisor_bound():
    # |coefficient| <= C [(Q/2^s N) d(m - R(l), 2Q) + Q^2 / (2^s N^{1.9})];
    # frozen regression cap for the recorded constant
    N = 32
    fam = MollifierFamily(N)
    w = SmoothWeight(2, N)
    B = frequency_bound(HYPER, N)
    pairs = fam.index_pairs()
    rng = np.random.default_rng(11)
    C = 0.0
    for _ in range(200):
        Q, s = pairs[int(rng.integers(len(pairs)))]
        l = rng.integers(-2 * N, 2 * N + 1, size=2)
        m = int(rng.integers(-B, B + 1))
        val = abs(fam.piece_fourier_coeff(HYPER, w, Q, s, m, l))
        n = m - int(HYPER(list(l)))
        scale = (1 << s) * N
        rhs = (Q / scale) * truncated_divisor(n, 2 * Q) + Q * Q / ((1 << s) * N**1.9)
        C = max(C, val / rhs)
    assert 0.0 < C <= 5.0


def test_arc_label_fields():
    lab = ArcLabel("major", 1, 2, 2, 0.001)
    assert lab.is_major
    assert ArcLabel("minor", None, None, None, None).is_major is False
