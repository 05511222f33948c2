"""Scaling experiments: sweep N, measure moments on budgeted grids, fit
log-log slopes and compare against the reference exponents.

All experiment sequences are unit-normalized, so the reference slope for the
full moment is s*p/2 - s and for the truncated moment d*p/2 - (d+2). Sub-degree
(budgeted) grids are sampled at several random offsets and the spread across
offsets is carried into the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Sequence

import numpy as np

from .quadform import QuadraticForm, signature
from .sequences import make_sequence
from .expsum import TorusGrid
from . import moments

__all__ = [
    "TheoryExponents",
    "theory_exponents",
    "ScalingExperiment",
    "ExperimentResult",
    "ScalingFit",
    "run_experiment",
    "fit_loglog",
    "fit_experiment",
    "pairwise_slopes",
    "budgeted_grid_sizes",
    "grid_sizes",
]

FAMILIES = ("ones", "delta", "extremizer", "random-unit")
GRID_POLICIES = ("nyquist", "budgeted")
MEASURES = ("full", "truncated")
# level-set thresholds of each report, in units of N^{d/4}
LEVEL_MULTIPLIERS = (1.0, 1.5, 2.0)


@dataclass(frozen=True)
class TheoryExponents:
    """Reference power-law exponents in N for unit-normalized sequences."""

    full_sub: float  # s p/2 - s, the indefinite-direction lower regime
    full_super: float  # d p/2 - (d+2), constant-sequence regime
    truncated: float  # d p/2 - (d+2)
    critical_p: float  # 2(d+2)/d
    critical_p_ds: float | None  # 2(d-s+2)/(d-s), undefined when s = d


def theory_exponents(form: QuadraticForm, p: float) -> TheoryExponents:
    if not np.isfinite(p):
        raise ValueError(f"p must be finite, got {p}")
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    d = form.dim
    s = signature(form)[2]
    full_super = d * p / 2.0 - (d + 2)
    return TheoryExponents(
        full_sub=s * p / 2.0 - s,
        full_super=full_super,
        truncated=full_super,
        critical_p=2.0 * (d + 2) / d,
        critical_p_ds=(2.0 * (d - s + 2) / (d - s)) if s < d else None,
    )


@dataclass(frozen=True)
class ScalingExperiment:
    form: QuadraticForm
    family: str
    N_list: tuple[int, ...]
    p: float = 4.0
    C: float = 1.0
    grid_policy: str = "budgeted"
    max_cells: int = 50_000_000
    offsets: int = 3
    seed: int = 0
    s: int = 1

    def __post_init__(self):
        ns = tuple(int(n) for n in self.N_list)
        object.__setattr__(self, "N_list", ns)
        if len(ns) < 3:
            raise ValueError(f"N_list needs at least 3 entries, got {len(ns)}")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError(f"N_list must be strictly increasing: {ns}")
        if ns[0] < 1:
            raise ValueError("N values must be positive")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected {FAMILIES}")
        if self.grid_policy not in GRID_POLICIES:
            raise ValueError(
                f"unknown grid policy {self.grid_policy!r}, expected {GRID_POLICIES}"
            )
        if not np.isfinite(self.p):
            raise ValueError("p must be finite")
        if self.p < 2:
            raise ValueError("p must be >= 2")
        if not np.isfinite(self.C):
            raise ValueError("C must be finite")
        if self.C <= 0:
            raise ValueError("C must be positive")
        if self.offsets < 1:
            raise ValueError("offsets must be >= 1")


@dataclass
class ExperimentResult:
    experiment: ScalingExperiment
    reports: list
    failures: list[tuple[int, str]] = field(default_factory=list)


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    residual_rms: float
    per_N: tuple[tuple[int, float], ...]
    theory_slope: float | None
    tolerance: float | None
    verdict: str


def _min_theta(radius: int, dim: int, max_cells: int) -> int:
    """2 * radius + 1, the fewest theta points a grid for a sequence on
    [-radius, radius]^dim may take, once one alpha slice of them fits the
    budget. Checked before any Nyquist target is asked for: the target reads
    a table of each block's form on its own box, which for an irreducible
    form is as large as that slice."""
    m_min = 2 * radius + 1
    if m_min**dim > max_cells:
        raise ValueError(
            f"budget {max_cells} cannot fit one alpha slice of {m_min}^{dim} cells"
        )
    return m_min


def budgeted_grid_sizes(
    form: QuadraticForm,
    N: int | None,
    dim: int,
    p: float,
    radius: int,
    max_cells: int,
) -> tuple[int, int]:
    """Grid sizes under a cell budget: start the theta axes at the minimum the
    support allows, spend the budget on the alpha axis up to its Nyquist
    target, then grow theta toward its own target with whatever is left.

    The targets are those of `moments.nyquist_sizes` at ceil(p) for a
    sequence on [-radius, radius]^dim. N is unused; it keeps its place so
    that dim stays the third positional argument."""
    if not (np.isfinite(p) and p > 0):
        raise ValueError(f"p must be positive and finite, got {p}")
    m_min = _min_theta(radius, dim, max_cells)
    want_alpha, want_theta = moments._nyquist_targets(form, radius, int(ceil(p)))
    m_alpha = min(want_alpha, max(1, max_cells // m_min**dim))
    m_theta = m_min
    if m_alpha >= want_alpha:
        m_alpha = want_alpha
        grown = int((max_cells / m_alpha) ** (1.0 / dim))
        m_theta = max(m_min, min(want_theta, grown))
    return m_alpha, m_theta


def grid_sizes(
    policy: str,
    form: QuadraticForm,
    p: float,
    radius: int,
    max_cells: int,
) -> tuple[int, int]:
    """(m_alpha, m_theta) for a grid policy: `budgeted` spends `max_cells` as
    budgeted_grid_sizes does; `nyquist` takes the exact sizes for an even
    integer p and refuses a grid of more than `max_cells` cells."""
    d = form.dim
    if policy == "budgeted":
        return budgeted_grid_sizes(form, None, d, p, radius, max_cells)
    if policy != "nyquist":
        raise ValueError(f"unknown grid policy {policy!r}, expected {GRID_POLICIES}")
    _min_theta(radius, d, max_cells)
    m_alpha, m_theta = moments.nyquist_sizes(form, radius, p)
    if m_alpha * m_theta**d > max_cells:
        raise ValueError(
            f"nyquist grid {m_alpha}x{m_theta}^{d} exceeds max_cells={max_cells}"
        )
    return m_alpha, m_theta


def _family_seed(seed: int, N: int) -> int:
    return int(np.random.SeedSequence((seed, N)).generate_state(1)[0])


def _offset_rng(seed: int, N: int, j: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, N, j)))


def run_experiment(exp: ScalingExperiment) -> ExperimentResult:
    """One MomentReport per N; failures are recorded and the sweep continues.

    The full moment prefers the exact counting oracle when the key-table
    budget allows; the truncated moment and level sets always come from the
    grid, averaged over the experiment's random offsets. Only the errors the
    per-N path raises on purpose (ValueError, ArithmeticError) count as
    per-N failures; any other exception propagates.
    """
    d = exp.form.dim
    reports: list[moments.MomentReport] = []
    failures: list[tuple[int, str]] = []
    for N in exp.N_list:
        try:
            reports.append(_run_single(exp, d, N))
        except (ValueError, ArithmeticError) as exc:
            failures.append((N, f"{type(exc).__name__}: {exc}"))
    return ExperimentResult(exp, reports, failures)


def _run_single(exp: ScalingExperiment, d: int, N: int) -> moments.MomentReport:
    # every family has radius N: size the grid before building the sequence
    m_alpha, m_theta = grid_sizes(exp.grid_policy, exp.form, exp.p, N, exp.max_cells)
    seq = make_sequence(
        exp.family, d, N, s=exp.s, seed=_family_seed(exp.seed, N)
    ).normalized()
    grids = [
        TorusGrid.random_offset(d, m_alpha, m_theta, _offset_rng(exp.seed, N, j))
        for j in range(exp.offsets)
    ]
    lambdas = tuple(m * float(N) ** (d / 4.0) for m in LEVEL_MULTIPLIERS)
    return moments.build_report(exp.form, seq, grids, exp.p, exp.C, lambdas)


def fit_loglog(
    points: Sequence[tuple[int, float]],
    theory_slope: float | None = None,
    tolerance: float | None = 0.75,
) -> ScalingFit:
    """Least squares on (log N, log value).

    All-zero values short-circuit to the verdict "degenerate: identically
    zero"; any other nonpositive value is an error naming the offending N.
    """
    pts = tuple((int(n), float(v)) for n, v in points)
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points to fit, got {len(pts)}")
    if all(v == 0.0 for _, v in pts):
        return ScalingFit(
            float("nan"), float("nan"), 0.0, pts, theory_slope, tolerance,
            "degenerate: identically zero",
        )
    bad = [n for n, v in pts if v <= 0.0]
    if bad:
        raise ValueError(f"nonpositive values at N = {bad}; cannot fit log-log")
    x = np.log([n for n, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    if theory_slope is None:
        verdict = "unchecked"
    elif tolerance is not None and abs(slope - theory_slope) <= tolerance:
        verdict = "within-tolerance"
    else:
        verdict = "out-of-tolerance"
    return ScalingFit(
        float(slope), float(intercept), rms, pts, theory_slope, tolerance, verdict
    )


def fit_experiment(
    result: ExperimentResult,
    measure: str = "truncated",
    tolerance: float = 0.75,
) -> ScalingFit:
    """Fit the chosen measure of the experiment's reports against its theory
    exponent (full -> s p/2 - s for unit-norm sequences; truncated ->
    d p/2 - (d+2))."""
    exp = result.experiment
    theo = theory_exponents(exp.form, exp.p)
    if measure == "full":
        pts = [(r.N, r.full_moment) for r in result.reports]
        target = theo.full_sub
    elif measure == "truncated":
        pts = [(r.N, r.truncated_moment) for r in result.reports]
        target = theo.truncated
    else:
        expected = "|".join(MEASURES)
        raise ValueError(f"unknown measure {measure!r}, expected {expected}")
    return fit_loglog(pts, theory_slope=target, tolerance=tolerance)


def pairwise_slopes(points: Sequence[tuple[int, float]]) -> list[float]:
    """Successive two-point slopes, a convergence-trend diagnostic."""
    pts = [(int(n), float(v)) for n, v in points]
    out = []
    for (n1, v1), (n2, v2) in zip(pts, pts[1:]):
        if v1 <= 0 or v2 <= 0:
            out.append(float("nan"))
        else:
            out.append(float(np.log(v2 / v1) / np.log(n2 / n1)))
    return out
