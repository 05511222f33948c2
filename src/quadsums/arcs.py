"""Arc mollifiers on the circle: dyadic bumps at rationals, their Fourier data,
and the induced major/minor decomposition of smoothed exponential sums.

The family places the scaled cutoff kappa(2^s N (alpha - a/q)), kappa being
the shared profile `bump.bump`, at every reduced fraction a/q with q ~ Q
(dyadic, Q <= N1 = floor(c1 N)), telescoped over dyadic resolutions 2^s in
[Q, N]:

    phi_s      = kappa(2^s N .) - kappa(2^{s+1} N .),  top scale undifferenced
    Phi_{Q,s}  = sum_{q ~ Q} sum_{gcd(a,q)=1} phi_s(. - a/q)
    lambda     = sum_{Q <= N1} sum_{Q <= 2^s <= N} Phi_{Q,s},   rho = 1 - lambda.

All bump supports a/q +- 2/(QN) must be pairwise disjoint; the constructor
checks this exactly and refuses families that violate it (hence the default
c1 = 1/16, which is safe for every N: widths are <= 4/(qN), gaps >= 1/(qq'),
and q, q' < 2 N1 <= N/8).
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, isfinite, log2
from typing import Iterable, Sequence

import numpy as np

from .bump import bump
from .quadform import QuadraticForm, frequency_bound
from .sequences import SmoothWeight
from . import expsum

__all__ = [
    "MollifierFamily",
    "ArcLabel",
    "DisjointnessError",
    "ramanujan_sum",
    "truncated_divisor",
    "divisor_moment",
    "partition_identity_check",
    "dvp_window",
]


class DisjointnessError(ValueError):
    """Bump supports around two listed fractions overlap."""

    def __init__(self, first, second, message):
        super().__init__(message)
        self.first = first
        self.second = second


# ---------------------------------------------------------------------------
# elementary number theory

@functools.lru_cache(maxsize=None)
def _factorize(q: int) -> tuple[tuple[int, int], ...]:
    q = abs(int(q))
    out = []
    p = 2
    while p * p <= q:
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if q > 1:
        out.append((q, 1))
    return tuple(out)


def _mobius(q: int) -> int:
    fac = _factorize(q)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def _totient(q: int) -> int:
    out = q
    for p, _ in _factorize(q):
        out -= out // p
    return out


def ramanujan_sum(q: int, n: int) -> int:
    """c_q(n) = sum_{gcd(a,q)=1} e(an/q) = sum_{d | gcd(n,q)} d mu(q/d), exact."""
    if q < 1:
        raise ValueError("q must be >= 1")
    g = gcd(abs(n), q)  # gcd(0, q) = q handles n = 0 (giving the totient)
    total = 0
    for d in range(1, g + 1):
        if g % d == 0:
            total += d * _mobius(q // d)
    return total


def truncated_divisor(n: int, Q: int) -> int:
    """d(n, Q) = #{1 <= t <= Q : t | n}; every t divides 0, so d(0, Q) = Q."""
    if Q < 1:
        raise ValueError("Q must be >= 1")
    n = abs(int(n))
    if n == 0:
        return Q
    return sum(1 for t in range(1, Q + 1) if n % t == 0)


def divisor_moment(X: int, Q: int, B: int) -> int:
    """sum_{|l| <= X} d(l, Q)^B as an exact integer (sieved counts, then
    arbitrary-precision powers)."""
    if X < 0 or Q < 1 or B < 0:
        raise ValueError("need X >= 0, Q >= 1, B >= 0")
    counts = np.zeros(X + 1, dtype=np.int64)
    for t in range(1, Q + 1):
        counts[0::t] += 1  # index 0 collects all t: d(0, Q) = Q
    total = int(counts[0]) ** B
    for c in counts[1:]:
        total += 2 * int(c) ** B
    return total


# ---------------------------------------------------------------------------
# the mollifier family

def dvp_window(t: float, B: float) -> float:
    """Trapezoid 1 on [-B, B], linear to 0 at +-2B (de la Vallee Poussin)."""
    at = abs(float(t))
    if at <= B:
        return 1.0
    if at >= 2.0 * B:
        return 0.0
    return (2.0 * B - at) / B


@dataclass(frozen=True)
class ArcLabel:
    kind: str  # "major" | "minor"
    a: int | None = None
    q: int | None = None
    Q: int | None = None
    beta: float | None = None

    @property
    def is_major(self) -> bool:
        return self.kind == "major"


class MollifierFamily:
    """Dyadic rational-bump partition at scale N with cutoff c1 (N1 = floor(c1 N)).

    N1 = 0 is the degenerate family: no arcs, lambda = 0, rho = 1.
    """

    def __init__(self, N: int, c1: Fraction | None = None):
        if N < 1:
            raise ValueError("N must be a positive integer")
        if c1 is None:
            c1 = Fraction(1, 16)
        c1 = Fraction(c1)
        if not 0 < c1 <= 1:
            raise ValueError(f"c1 must lie in (0, 1], got {c1}")
        self.N = int(N)
        self.c1 = c1
        self.N1 = int(floor(c1 * N))
        self.s_max = int(floor(log2(N))) if N > 1 else 0
        self.N_tilde = 2**self.s_max
        self.dyadic_Q = tuple(1 << k for k in range(self.N1.bit_length()))
        self._fractions = self._enumerate_fractions()
        self._assert_disjoint()
        # per-fraction tables of the pointwise evaluation, in centre order
        self._centres = np.array([a / q for _, a, q, _ in self._fractions])
        self._scales = np.array([float(Q * self.N) for *_, Q in self._fractions])
        # the same tables as floats, for the pointwise lookups: bisect and
        # arithmetic on Python floats skip numpy's per-scalar overhead
        self._centre_list = self._centres.tolist()
        self._scale_list = self._scales.tolist()
        self._totients = {
            Q: sum(_totient(q) for q in range(Q, 2 * Q)) for Q in self.dyadic_Q
        }
        self._rho_integral = 1.0 - sum(
            self._totients[Q] * (bump.mass / (Q * self.N))
            for Q in self.dyadic_Q
        )

    # -- construction helpers

    def _enumerate_fractions(self) -> list[tuple[Fraction, int, int, int]]:
        """(value, a, q, Q) for all reduced a/q, q ~ Q <= N1, a in [1, q]."""
        out = []
        for Q in self.dyadic_Q:
            for q in range(Q, 2 * Q):
                for a in range(1, q + 1):
                    if gcd(a, q) == 1:
                        out.append((Fraction(a, q), a, q, Q))
        out.sort()
        return out

    def _assert_disjoint(self) -> None:
        """Exact pairwise-disjointness of the supports a/q +- 2/(QN), including
        the wrap pair across 1; colliding fractions are reported."""
        fr = self._fractions
        if len(fr) < 2:
            return
        pairs = list(zip(fr, fr[1:]))
        first = fr[0]
        last = fr[-1]
        pairs.append((last, (first[0] + 1, first[1], first[2], first[3])))
        for (v1, a1, q1, Q1), (v2, a2, q2, Q2) in pairs:
            w1 = Fraction(2, Q1 * self.N)
            w2 = Fraction(2, Q2 * self.N)
            if v1 + w1 > v2 - w2:
                raise DisjointnessError(
                    (a1, q1),
                    (a2, q2),
                    f"mollifier supports overlap: {a1}/{q1} +- 2/({Q1}*{self.N}) "
                    f"meets {a2}/{q2} +- 2/({Q2}*{self.N}) "
                    f"(N={self.N}, c1={self.c1}); choose a smaller c1",
                )

    # -- index bookkeeping

    def s_range(self, Q: int) -> range:
        """s with Q <= 2^s <= N for dyadic Q."""
        self._check_dyadic(Q)
        return range(int(log2(Q)), self.s_max + 1)

    def index_pairs(self) -> list[tuple[int, int]]:
        """All (Q, s) blocks of the decomposition, lexicographic."""
        return [(Q, s) for Q in self.dyadic_Q for s in self.s_range(Q)]

    def split_blocks(self, Q1: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Blocks with Q <= Q1 versus Q1 < Q <= N1 (an exact partition)."""
        if Q1 < 1:
            raise ValueError("Q1 must be >= 1")
        pairs = self.index_pairs()
        return (
            [(Q, s) for Q, s in pairs if Q <= Q1],
            [(Q, s) for Q, s in pairs if Q > Q1],
        )

    def _check_dyadic(self, Q: int) -> None:
        if Q < 1 or Q & (Q - 1):
            raise ValueError(f"Q must be a power of two, got {Q}")
        if Q > self.N_tilde:
            raise ValueError(f"Q={Q} exceeds the top dyadic scale {self.N_tilde}")

    def _check_block(self, Q: int, s: int) -> None:
        self._check_dyadic(Q)
        if Q > self.N1:
            raise ValueError(f"Q={Q} exceeds N1={self.N1}")
        if s not in self.s_range(Q):
            raise ValueError(
                f"s={s} outside [log2(Q), s_max] = "
                f"[{int(log2(Q))}, {self.s_max}]"
            )

    # -- pointwise evaluation

    def fold(self, alpha: float) -> float:
        """Reduce mod 1 into the fundamental window (1/(2 N1), 1 + 1/(2 N1)]."""
        x = float(alpha) % 1.0
        if self.N1 >= 1 and x <= 1.0 / (2 * self.N1):
            x += 1.0
        return x

    def _holder(self, x: float) -> int | None:
        """Index of the fraction whose support a/q +- 2/(QN) holds folded x,
        or None.

        The supports are disjoint, so a support that reached x past a nearer
        centre would hold that centre too: only the two centres around x can
        hold it, and one does when |t| < 2 for t = QN(x - a/q).
        """
        if not isfinite(x):
            raise ValueError("alpha must be finite")
        centres, scales = self._centre_list, self._scale_list
        i = bisect.bisect(centres, x)
        for j in range(max(i - 1, 0), min(i + 1, len(centres))):
            if abs(scales[j] * (x - centres[j])) < 2:
                return j
        return None

    def phi_s(self, s: int, x):
        """Dyadic shell phi_s(x): kappa(2^s N x) - kappa(2^{s+1} N x), with the
        top scale s = s_max left undifferenced."""
        if not 0 <= s <= self.s_max:
            raise ValueError(f"s must lie in [0, {self.s_max}]")
        scale = float((1 << s) * self.N)
        if s == self.s_max:
            return bump(np.asarray(x, dtype=float) * scale)
        x_arr = np.asarray(x, dtype=float)
        return bump(x_arr * scale) - bump(x_arr * 2.0 * scale)

    def Phi_Qs(self, Q: int, s: int, alpha: float) -> float:
        """Phi_{Q,s}(alpha) = sum over fractions q ~ Q of phi_s(alpha - a/q)."""
        self._check_block(Q, s)
        x = self.fold(alpha)
        j = self._holder(x)
        if j is None or self._fractions[j][3] != Q:
            return 0.0
        return float(self.phi_s(s, x - self._centre_list[j]))

    def lambda_rho(self, alpha: float) -> tuple[float, float]:
        """(lambda, rho) at alpha via the collapsed telescoped form
        lambda = kappa(Q N (alpha - a/q)) at the one fraction holding alpha."""
        x = self.fold(alpha)
        j = self._holder(x)
        if j is None:
            return 0.0, 1.0
        lam = bump(self._scale_list[j] * (x - self._centre_list[j]))
        return lam, 1.0 - lam

    def rho_values(self, alphas: Iterable[float]) -> np.ndarray:
        """rho at every alpha in one pass, equal to lambda_rho(alpha)[1] bit
        for bit: 1 - `_lambda_values`."""
        return 1.0 - self._lambda_values(alphas)

    def _lambda_values(self, alphas: Iterable[float]) -> np.ndarray:
        """lambda at every alpha in one pass, equal to lambda_rho(alpha)[0]
        bit for bit: the same fold, holder search and one bump call."""
        j, dx = self._nearest(alphas)
        lam = np.zeros(dx.shape)
        if self._fractions:
            t = self._scales[j] * dx
            held = np.abs(t) < 2
            lam[held] = bump(t[held])
        return lam

    def _pieces_sum(self, alphas: Iterable[float]) -> np.ndarray:
        """The sum of every Phi_{Q,s} at every alpha, shell by shell: phi_s
        at the fraction that can hold alpha, over s_range(Q). It telescopes
        to lambda only if every shell does."""
        j, dx = self._nearest(alphas)
        out = np.zeros(dx.shape)
        for Q, s in self.index_pairs():
            at = self._scales[j] == Q * self.N  # the fractions with q ~ Q
            out[at] += self.phi_s(s, dx[at])
        return out

    def _nearest(self, alphas: Iterable[float]) -> tuple[np.ndarray, np.ndarray]:
        """(j, x - a_j/q_j) for every alpha, folded to x: j is the fraction
        whose support holds x when one does, as `_holder` finds it, and
        otherwise one with QN |x - a_j/q_j| >= 2. With no fractions, (0, x):
        there is nothing to index."""
        alpha = np.asarray(
            alphas if isinstance(alphas, np.ndarray) else list(alphas), dtype=float
        )
        if not np.isfinite(alpha).all():
            raise ValueError("alpha must be finite")
        x = alpha % 1.0
        if not self._fractions:
            return np.zeros(x.shape, dtype=int), x
        x[x <= 1.0 / (2 * self.N1)] += 1.0
        i = np.searchsorted(self._centres, x, side="right")
        # the two centres around x, the left one first as in _holder (at
        # either end both are the one end centre)
        left, right = np.maximum(i - 1, 0), np.minimum(i, len(self._centres) - 1)
        first = np.abs(self._scales[left] * (x - self._centres[left])) < 2
        j = np.where(first, left, right)
        return j, x - self._centres[j]

    # -- integrals and Fourier data

    def phi_s_integral(self, s: int) -> float:
        if not 0 <= s <= self.s_max:
            raise ValueError(f"s must lie in [0, {self.s_max}]")
        scale = (1 << s) * self.N
        if s == self.s_max:
            return bump.mass / scale
        return bump.mass / (2 * scale)

    def Phi_integral(self, Q: int, s: int) -> float:
        """int Phi_{Q,s} = (# fractions with q ~ Q) * int phi_s, exactly."""
        self._check_block(Q, s)
        return self._totients[Q] * self.phi_s_integral(s)

    @property
    def rho_integral(self) -> float:
        return self._rho_integral

    def gamma_fourier(self, s: int, xi: float) -> float:
        """Fourier transform of the unit-scale shell: kappa-hat(xi) minus half
        of kappa-hat(xi/2), undifferenced at the top scale."""
        if s == self.s_max:
            return bump.fourier(xi)
        return bump.fourier(xi) - 0.5 * bump.fourier(xi / 2.0)

    def ramanujan_block(self, Q: int, n: int) -> int:
        return sum(ramanujan_sum(q, n) for q in range(Q, 2 * Q))

    def Phi_fourier(self, Q: int, s: int, n: int) -> float:
        """Torus Fourier coefficient of Phi_{Q,s} at integer frequency n:

            Phi-hat(n) = (sum_{q~Q} c_q(-n)) * (2^s N)^{-1} gamma-hat_s(n / 2^s N).
        """
        self._check_block(Q, s)
        scale = (1 << s) * self.N
        return (
            self.ramanujan_block(Q, -n)
            * self.gamma_fourier(s, n / scale)
            / scale
        )

    def rho_fourier(self, n: int) -> float:
        """rho-hat(n) = [n = 0] - sum over all blocks of Phi-hat_{Q,s}(n)."""
        total = 1.0 if n == 0 else 0.0
        for Q, s in self.index_pairs():
            total -= self.Phi_fourier(Q, s, n)
        return total

    def Psi_Qs(self, Q: int, s: int, alpha: float) -> float:
        """Mean-zero piece Psi = Phi_{Q,s} - (int Phi_{Q,s} / int rho) rho."""
        rho = self.lambda_rho(alpha)[1]
        ratio = self.Phi_integral(Q, s) / self.rho_integral
        return self.Phi_Qs(Q, s, alpha) - ratio * rho

    def Psi_fourier(self, Q: int, s: int, n: int) -> float:
        ratio = self.Phi_integral(Q, s) / self.rho_integral
        return self.Phi_fourier(Q, s, n) - ratio * self.rho_fourier(n)

    # -- arc classification

    def classify_arc(self, alpha: float) -> ArcLabel:
        """Major iff some a/q with q <= N1 has |alpha - a/q| <= c1/(qN).

        c1/(qN) < 2/(QN), so such an alpha lies in the support of a/q: the
        fraction holding alpha is the only one to test.
        """
        x = self.fold(alpha)
        j = self._holder(x)
        if j is not None:
            _, a, q, Q = self._fractions[j]
            if q <= self.N1 and abs(x - a / q) <= float(self.c1) / (q * self.N):
                return ArcLabel("major", a=a, q=q, Q=Q, beta=x - a / q)
        return ArcLabel("minor")

    # -- arc pieces of a field

    def piece_F_Qs(
        self,
        form: QuadraticForm,
        source,
        Q: int,
        s: int,
        alpha: float,
        theta: Sequence[float],
    ) -> complex:
        """F_{Q,s}(alpha, theta) = F(alpha, theta) Psi_{Q,s}(alpha)."""
        f_val = expsum.extension_direct(form, source, alpha, theta)
        return f_val * self.Psi_Qs(Q, s, alpha)

    def minor_piece(
        self, form: QuadraticForm, source, alpha: float, theta: Sequence[float]
    ) -> complex:
        """F_minor = F - sum of pieces; collapses to F rho / int rho."""
        f_val = expsum.extension_direct(form, source, alpha, theta)
        _, rho = self.lambda_rho(alpha)
        return f_val * rho / self.rho_integral

    def piece_fourier_coeff(
        self,
        form: QuadraticForm,
        weight: SmoothWeight,
        Q: int,
        s: int,
        m: int,
        l: Sequence[int],
    ) -> float:
        """Fourier coefficient of the windowed piece at (m, l):

            omega(l) Psi-hat_{Q,s}(m - R(l)) w(m, l),

        where w is the trapezoid window, 1 on the core box |m| <= R_max,
        |l_i| <= 2N and vanishing beyond the doubled box.
        """
        if weight.N != self.N:
            raise ValueError(f"weight N={weight.N} does not match family N={self.N}")
        lv = [int(x) for x in l]
        omega_l = weight[lv].real
        b_alpha = float(frequency_bound(form, self.N))
        win = dvp_window(m, b_alpha)
        for x in lv:
            win *= dvp_window(x, 2.0 * self.N)
        if win == 0.0 or omega_l == 0.0:
            return 0.0
        n_freq = int(m) - int(form(lv))
        return win * omega_l * self.Psi_fourier(Q, s, n_freq)


def partition_identity_check(
    fam: MollifierFamily, Q: int, samples: int = 10**4, seed: int = 0
) -> float:
    """Max defect of sum_{Q <= 2^s <= N} phi_s(x) = kappa(Q N x) over `samples`
    points spanning the support and a margin beyond it."""
    fam._check_dyadic(Q)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    span = 2.5 / (Q * fam.N)
    x = rng.uniform(-span, span, size=samples)
    # kappa(2^s N x) once per shell, phi_s = kappa_s - kappa_{s+1} as phi_s
    # forms it (x * 2 * 2^s N is x * 2^{s+1} N exactly); kappa_Q is the target
    kappa = [bump(x * float((1 << s) * fam.N)) for s in fam.s_range(Q)]
    total = np.zeros_like(x)
    for inner, outer in zip(kappa, kappa[1:]):
        total = total + (inner - outer)
    total = total + kappa[-1]
    return float(np.abs(total - kappa[0]).max())
