"""Scaling experiments over N and log-log slope fits."""

import numpy as np
import pytest

from quadsums import moments, parse_form_spec, scaling
from quadsums.scaling import (
    ScalingExperiment,
    budgeted_grid_sizes,
    fit_experiment,
    fit_loglog,
    pairwise_slopes,
    run_experiment,
    theory_exponents,
)

HYPER = parse_form_spec("diag:1,-1")
LINE = parse_form_spec("diag:1")


def test_theory_exponent_goldens():
    t = theory_exponents(HYPER, 6)
    assert (t.full_sub, t.full_super, t.truncated) == (2.0, 2.0, 2.0)
    assert (t.critical_p, t.critical_p_ds) == (4.0, 6.0)
    t = theory_exponents(HYPER, 8)
    assert (t.full_sub, t.full_super, t.truncated) == (3.0, 4.0, 4.0)
    t = theory_exponents(LINE, 8)
    assert (t.full_sub, t.full_super, t.truncated) == (0.0, 1.0, 1.0)
    assert (t.critical_p, t.critical_p_ds) == (6.0, 6.0)
    with pytest.raises(ValueError):
        theory_exponents(HYPER, 1.5)


def test_experiment_validation():
    good = dict(form=HYPER, family="ones", N_list=(2, 4, 8))
    ScalingExperiment(**good)
    with pytest.raises(ValueError):
        ScalingExperiment(HYPER, "ones", (2, 4))
    with pytest.raises(ValueError):
        ScalingExperiment(HYPER, "ones", (2, 8, 4))
    with pytest.raises(ValueError):
        ScalingExperiment(HYPER, "sevens", (2, 4, 8))
    with pytest.raises(ValueError):
        ScalingExperiment(HYPER, "ones", (2, 4, 8), grid_policy="dense")
    with pytest.raises(ValueError):
        ScalingExperiment(HYPER, "ones", (2, 4, 8), p=1.0)
    with pytest.raises(ValueError):
        ScalingExperiment(HYPER, "ones", (2, 4, 8), C=0.0)
    with pytest.raises(ValueError):
        ScalingExperiment(HYPER, "ones", (2, 4, 8), offsets=0)


def test_budgeted_grid_sizes():
    m_alpha, m_theta = budgeted_grid_sizes(HYPER, 8, 2, 6.0, 8, 50_000_000)
    assert m_theta >= 2 * 8 + 1
    assert m_alpha * m_theta**2 <= 50_000_000
    ny_alpha, ny_theta = moments.nyquist_sizes(HYPER, 8, 6)
    assert m_alpha <= ny_alpha and m_theta <= ny_theta
    # a generous budget reproduces the full Nyquist grid
    assert budgeted_grid_sizes(LINE, 2, 1, 4.0, 2, 10**9) == moments.nyquist_sizes(
        LINE, 2, 4
    )
    assert budgeted_grid_sizes(LINE, 8, 1, 4.0, 8, 50) == (2, 17)
    with pytest.raises(ValueError, match="cannot fit"):
        budgeted_grid_sizes(LINE, 8, 1, 4.0, 8, 16)
    for p in (-2.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="p must be positive and finite"):
            budgeted_grid_sizes(LINE, 8, 1, p, 8, 10**6)


def test_extremizer_experiment_exact_counts():
    exp = ScalingExperiment(
        HYPER, "extremizer", (2, 3, 4), p=4.0, grid_policy="nyquist", offsets=1
    )
    res = run_experiment(exp)
    assert res.failures == []
    for rep in res.reports:
        want = (2 * rep.N**3 + rep.N) / (3 * rep.N**2)
        assert rep.exact is True
        assert abs(rep.full_moment - want) <= 1e-9
        assert abs(rep.oracle_full - want) <= 1e-9
        assert abs(rep.grid_full - want) <= 1e-6
        assert rep.spread == 0.0


def test_extremizer_slope_raw_and_normalized():
    raw = [(N, (2 * N**3 + N) / 3) for N in (4, 8, 16, 32)]
    fit = fit_loglog(raw, theory_slope=3.0, tolerance=0.25)
    assert 2.75 <= fit.slope <= 3.25
    assert fit.verdict == "within-tolerance"
    norm = [(N, v / N**2) for N, v in raw]
    fit_n = fit_loglog(norm, theory_slope=1.0, tolerance=0.25)
    assert 0.75 <= fit_n.slope <= 1.25


def test_fit_recovers_exact_power_laws():
    fit = fit_loglog([(2, 8.0), (4, 64.0), (8, 512.0), (16, 4096.0)])
    assert abs(fit.slope - 3.0) <= 1e-10
    assert fit.residual_rms <= 1e-10
    assert fit.verdict == "unchecked"
    pts = [(N, 3.0 * N**2.5) for N in (2, 4, 8)]
    fit = fit_loglog(pts, theory_slope=2.5, tolerance=0.1)
    assert abs(fit.slope - 2.5) <= 1e-10
    assert abs(fit.intercept - np.log(3.0)) <= 1e-10
    assert fit.verdict == "within-tolerance"
    fit = fit_loglog(pts, theory_slope=1.0, tolerance=0.2)
    assert fit.verdict == "out-of-tolerance"


def test_fit_degenerate_and_invalid():
    fit = fit_loglog([(2, 0.0), (4, 0.0), (8, 0.0)])
    assert fit.verdict == "degenerate: identically zero"
    with pytest.raises(ValueError, match="nonpositive values at N"):
        fit_loglog([(2, 1.0), (4, 0.0), (8, 2.0)])
    with pytest.raises(ValueError, match="at least 3"):
        fit_loglog([(2, 1.0), (4, 2.0)])


def test_pairwise_slopes():
    got = pairwise_slopes([(2, 4.0), (4, 16.0), (8, 64.0)])
    assert np.allclose(got, [2.0, 2.0])


def test_per_N_failure_isolation():
    # the largest N cannot fit one theta slice in the budget; the others run
    exp = ScalingExperiment(
        HYPER, "extremizer", (2, 3, 16), p=4.0, grid_policy="budgeted",
        max_cells=600, offsets=1,
    )
    res = run_experiment(exp)
    assert [r.N for r in res.reports] == [2, 3]
    assert len(res.failures) == 1
    assert res.failures[0][0] == 16
    assert "600" in res.failures[0][1]
    assert res.failures[0][1].startswith("ValueError: ")


def test_budgeted_report_exact_means_grid_exactness():
    # the oracle fixes the full moment, but a sub-Nyquist grid is not exact
    exp = ScalingExperiment(
        HYPER, "ones", (2, 3, 4), p=4.0, grid_policy="budgeted",
        max_cells=20_000, offsets=1,
    )
    res = run_experiment(exp)
    assert res.failures == []
    for rep in res.reports:
        assert rep.oracle_full is not None
        assert rep.exact is False
        assert rep.full_moment == rep.oracle_full


def test_programming_errors_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("broken scan")

    monkeypatch.setattr(moments, "scan_field", broken)
    exp = ScalingExperiment(
        HYPER, "ones", (2, 3, 4), p=4.0, grid_policy="budgeted",
        max_cells=20_000, offsets=1,
    )
    with pytest.raises(TypeError, match="broken scan"):
        run_experiment(exp)


def test_experiment_determinism():
    exp = ScalingExperiment(
        HYPER, "random-unit", (2, 3, 4), p=4.0, grid_policy="budgeted",
        max_cells=100_000, offsets=2, seed=5,
    )
    a = run_experiment(exp)
    b = run_experiment(exp)
    assert [r.to_json() for r in a.reports] == [r.to_json() for r in b.reports]
    other = ScalingExperiment(
        HYPER, "random-unit", (2, 3, 4), p=4.0, grid_policy="budgeted",
        max_cells=100_000, offsets=2, seed=6,
    )
    c = run_experiment(other)
    assert [r.to_json() for r in a.reports] != [r.to_json() for r in c.reports]


def test_fit_experiment_targets():
    exp = ScalingExperiment(
        HYPER, "extremizer", (2, 3, 4), p=4.0, grid_policy="nyquist", offsets=1
    )
    res = run_experiment(exp)
    full_fit = fit_experiment(res, measure="full")
    assert full_fit.theory_slope == theory_exponents(HYPER, 4.0).full_sub
    trunc_fit = fit_experiment(res, measure="truncated")
    assert trunc_fit.theory_slope == theory_exponents(HYPER, 4.0).truncated
    with pytest.raises(ValueError):
        fit_experiment(res, measure="sup")
