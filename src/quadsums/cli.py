"""Command-line front end: moments, level sets, scaling sweeps, mollifier and
arc diagnostics, Gauss-sum tables, diagonalization.

Exit codes: 0 success, 1 tolerance failure, 2 validation error. All floats
print with 17 significant digits and every run is deterministic given its
flags and seed, so reruns reproduce output files byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from fractions import Fraction
from math import gcd

import numpy as np

from .config import RunConfig, parse_config_file, _to_float_list, _to_int_list
from .quadform import parse_form_spec, diagonalize_rational, signature
from .sequences import make_sequence, SmoothWeight
from .expsum import (
    TorusGrid,
    gauss_sum_table,
    smoothed_sum_direct,
    major_arc_approx,
)
from .arcs import MollifierFamily, partition_identity_check, truncated_divisor
from . import moments, scaling

OK, TOLERANCE_FAILURE, VALIDATION_ERROR = 0, 1, 2

DEFAULT_FORM = "diag:1,-1"


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _require(cfg: RunConfig, attr: str, flag: str):
    val = getattr(cfg, attr)
    if val is None:
        raise ValueError(f"{cfg.subcommand} needs {flag}")
    return val


def _resolve_grid(cfg: RunConfig, form, radius: int, p) -> TorusGrid:
    """The grid for a sequence on [-radius, radius]^d; every family has radius
    N, so this runs, and refuses, before the sequence is built."""
    if radius < 0:
        raise ValueError(f"--N must be >= 0, got {radius}")
    d = form.dim
    if cfg.m_alpha is not None or cfg.m_theta is not None:
        if cfg.m_alpha is None or cfg.m_theta is None:
            raise ValueError("explicit grids need both --m-alpha and --m-theta")
        m_alpha, m_theta = cfg.m_alpha, cfg.m_theta
    else:
        m_alpha, m_theta = scaling.grid_sizes(
            cfg.grid_policy, form, p, radius, cfg.max_cells
        )
    return TorusGrid(d, m_alpha, m_theta, (0.0,) * (d + 1))


# ---------------------------------------------------------------------------
# subcommands

def cmd_moment(cfg: RunConfig, headline: str = "full") -> int:
    N = _require(cfg, "N", "--N")
    form = parse_form_spec(cfg.form or DEFAULT_FORM)
    grid = _resolve_grid(cfg, form, N, cfg.p)
    seq = make_sequence(cfg.family, form.dim, N, s=cfg.s, seed=cfg.seed)
    report = moments.build_report(form, seq, [grid], cfg.p, cfg.C, lambdas=cfg.lambdas)
    order = ("truncated", "full") if headline == "truncated" else ("full", "truncated")
    print(
        f"form={cfg.form or DEFAULT_FORM} family={cfg.family} N={N} "
        f"p={_fmt(cfg.p)} C={_fmt(cfg.C)} grid={grid.m_alpha}x{grid.m_theta}^{seq.dim}"
    )
    vals = {
        "full": report.full_moment,
        "truncated": report.truncated_moment,
    }
    for key in order:
        print(f"{key}={_fmt(vals[key])}")
    print(
        f"threshold={_fmt(report.threshold)} sup={_fmt(report.sup)} "
        f"exact={'yes' if report.exact else 'no'}"
    )
    _write(cfg.out_json, report.to_json())
    _write(
        cfg.out_csv,
        moments.report_csv_header() + "\n" + moments.report_csv_row(report),
    )
    if report.oracle_full is not None and report.exact:
        scale = max(abs(report.oracle_full), 1e-30)
        rel = abs(report.oracle_full - report.grid_full) / scale
        if rel > 1e-6:
            print(
                f"DISAGREEMENT: exact oracle {_fmt(report.oracle_full)} vs "
                f"grid {_fmt(report.grid_full)} (relative {_fmt(rel)})"
            )
            return TOLERANCE_FAILURE
    return OK


def cmd_truncated(cfg: RunConfig) -> int:
    return cmd_moment(cfg, headline="truncated")


def cmd_levelset(cfg: RunConfig) -> int:
    N = _require(cfg, "N", "--N")
    form = parse_form_spec(cfg.form or DEFAULT_FORM)
    grid = _resolve_grid(cfg, form, N, cfg.p)
    seq = make_sequence(cfg.family, form.dim, N, s=cfg.s, seed=cfg.seed)
    if cfg.lambdas is not None:
        lams = tuple(cfg.lambdas)
    else:
        lams = tuple(moments.default_levels(seq, cfg.levels))
    scan = moments.scan_field(form, seq, grid, p_values=(), lambdas=lams)
    lines = ["lambda,measure"]
    for lam, meas in scan.levels:
        lines.append(f"{_fmt(lam)},{_fmt(meas)}")
    text = "\n".join(lines)
    print(text)
    _write(cfg.out_csv, text)
    return OK


def cmd_scaling(cfg: RunConfig) -> int:
    n_list = _require(cfg, "N_list", "--N-list")
    form = parse_form_spec(cfg.form or DEFAULT_FORM)
    exp = scaling.ScalingExperiment(
        form=form,
        family=cfg.family,
        N_list=tuple(n_list),
        p=cfg.p,
        C=cfg.C,
        grid_policy=cfg.grid_policy,
        max_cells=cfg.max_cells,
        offsets=cfg.offsets,
        seed=cfg.seed,
        s=cfg.s,
    )
    result = scaling.run_experiment(exp)
    for N, msg in result.failures:
        print(f"N={N} failed: {msg}", file=sys.stderr)
    if len(result.reports) < 3:
        print("too few successful N values to fit", file=sys.stderr)
        return TOLERANCE_FAILURE

    csv_text = "\n".join(
        [moments.report_csv_header()]
        + [moments.report_csv_row(r) for r in result.reports]
    )
    _write(cfg.out_csv, csv_text)
    try:
        fit = scaling.fit_experiment(result, cfg.measure, cfg.slope_tol)
    except ValueError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return TOLERANCE_FAILURE

    pts = [(n, v) for n, v in fit.per_N]
    summary = {
        "measure": cfg.measure,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "residual_rms": fit.residual_rms,
        "theory_slope": fit.theory_slope,
        "tolerance": fit.tolerance,
        "verdict": fit.verdict,
        "per_N": [[n, v] for n, v in pts],
        "pairwise_slopes": scaling.pairwise_slopes(pts),
        "failures": [[n, msg] for n, msg in result.failures],
    }
    _write(cfg.out_json, json.dumps(summary, sort_keys=True))
    for rep in result.reports:
        print(
            f"N={rep.N} full={_fmt(rep.full_moment)} "
            f"truncated={_fmt(rep.truncated_moment)} "
            f"spread={_fmt(rep.spread)}"
        )
    theory = "none" if fit.theory_slope is None else _fmt(fit.theory_slope)
    slope = "nan" if np.isnan(fit.slope) else _fmt(fit.slope)
    print(f"slope={slope} theory={theory} verdict={fit.verdict}")
    if result.failures:
        return TOLERANCE_FAILURE
    if fit.verdict in ("within-tolerance", "degenerate: identically zero"):
        return OK
    return TOLERANCE_FAILURE


def cmd_mollifier_check(cfg: RunConfig) -> int:
    N = _require(cfg, "N", "--N")
    fam = MollifierFamily(N, cfg.c1)
    if not fam.dyadic_Q:
        print(f"N={N} c1={fam.c1}: no arcs (N1=0); nothing to check")
        return OK
    q_values = [cfg.Q] if cfg.Q is not None else list(fam.dyadic_Q)
    checks: list[tuple[str, float, float]] = []  # name, defect, tolerance

    defect = max(
        partition_identity_check(fam, Q, cfg.samples, cfg.seed) for Q in q_values
    )
    checks.append(("partition-telescoping", defect, 1e-12))

    rng = np.random.default_rng(cfg.seed)
    alphas = rng.random(cfg.samples)
    lam_defect = 0.0
    sum_defect = 0.0
    for alpha in alphas:
        lam, rho = fam.lambda_rho(float(alpha))
        lam_defect = max(lam_defect, -lam, lam - 1.0)
        sum_defect = max(sum_defect, abs(lam + rho - 1.0))
    checks.append(("lambda-in-unit-interval", max(lam_defect, 0.0), 1e-12))
    checks.append(("lambda-plus-rho-is-one", sum_defect, 1e-12))

    core_defect = 0.0
    for _, a, q, Q in fam._fractions:
        center = a / q
        for t in np.linspace(-1.0, 1.0, 5):
            x = center + t / (Q * fam.N)
            core_defect = max(core_defect, abs(fam.lambda_rho(x)[1]))
    checks.append(("rho-vanishes-on-cores", core_defect, 1e-12))

    mean_defect = max(
        abs(fam.Psi_fourier(Q, s, 0)) for Q, s in fam.index_pairs()
    )
    checks.append(("pieces-mean-zero", mean_defect, 1e-8))

    failures = 0
    for name, value, tol in checks:
        status = "pass" if value <= tol else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{name}: defect={_fmt(value)} tol={_fmt(tol)} {status}")

    if cfg.out_csv:
        n_max = 64
        lines = ["Q,s,n,re,im,bound_rhs"]
        for Q, s in fam.index_pairs():
            scale = (1 << s) * fam.N
            for n in range(-n_max, n_max + 1):
                val = fam.Phi_fourier(Q, s, n)
                rhs = (Q / scale) * truncated_divisor(n, 2 * Q) + Q * Q / (
                    (1 << s) * fam.N**1.9
                )
                lines.append(f"{Q},{s},{n},{_fmt(val)},0,{_fmt(rhs)}")
        _write(cfg.out_csv, "\n".join(lines))

    return OK if failures == 0 else TOLERANCE_FAILURE


def cmd_arc_check(cfg: RunConfig) -> int:
    N = _require(cfg, "N", "--N")
    form = parse_form_spec(cfg.form or DEFAULT_FORM)
    d = form.dim
    fam = MollifierFamily(N, cfg.c1)
    weight = SmoothWeight(d, N)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, N)))
    rows = ["kind,q,a,beta,rel_err,ratio"]

    worst_rel = 0.0
    for _ in range(cfg.count):
        q = int(rng.integers(1, cfg.q_max + 1))
        a = int(rng.integers(1, q + 1))
        while gcd(a, q) != 1:
            a = int(rng.integers(1, q + 1))
        beta = float(rng.uniform(-0.9, 0.9)) * float(fam.c1) / (q * N)
        table = np.abs(gauss_sum_table(form, a, q))
        b_star = np.unravel_index(int(np.argmax(table)), table.shape)
        theta = np.array(b_star, dtype=float) / q + rng.uniform(-1, 1, d) / (8.0 * N)
        direct = smoothed_sum_direct(form, weight, a / q + beta, theta)
        approx = major_arc_approx(form, weight, a, q, beta, theta, m_cut=cfg.m_cut)
        rel = abs(approx.value - direct) / max(abs(direct), 1e-30)
        worst_rel = max(worst_rel, rel)
        majorant = q ** (-d / 2.0) * min(
            float(N) ** d, abs(beta) ** (-d / 2.0) if beta != 0 else float("inf")
        )
        rows.append(
            f"major,{q},{a},{_fmt(beta)},{_fmt(rel)},{_fmt(abs(direct) / majorant)}"
        )

    minor_ratio = 0.0
    drawn = 0
    while drawn < cfg.count:
        alpha = float(rng.random())
        if fam.classify_arc(alpha).is_major:
            continue
        theta = rng.random(d)
        val = abs(smoothed_sum_direct(form, weight, alpha, theta))
        ratio = val / float(N) ** (d / 2.0)
        minor_ratio = max(minor_ratio, ratio)
        rows.append(f"minor,0,0,0,0,{_fmt(ratio)}")
        drawn += 1

    text = "\n".join(rows)
    _write(cfg.out_csv, text)
    print(f"major points: worst relative error {_fmt(worst_rel)}")
    print(f"minor points: max |F|/N^(d/2) = {_fmt(minor_ratio)}")
    return OK


def cmd_gauss_table(cfg: RunConfig) -> int:
    form = parse_form_spec(cfg.form or DEFAULT_FORM)
    table = gauss_sum_table(form, cfg.a, cfg.q)
    lines = ["b,re,im,abs"]
    for idx in np.ndindex(table.shape):
        v = table[idx]
        b_txt = " ".join(str(i) for i in idx)
        lines.append(f"{b_txt},{_fmt(v.real)},{_fmt(v.imag)},{_fmt(abs(v))}")
    text = "\n".join(lines)
    print(text)
    _write(cfg.out_csv, text)
    return OK


def cmd_diagonalize(cfg: RunConfig) -> int:
    form = parse_form_spec(_require(cfg, "form", "--form"))
    diag = diagonalize_rational(form)
    sig = signature(form)
    print(f"transform rows: {[list(r) for r in diag.transform]}")
    print(f"diagonal: {[str(c) for c in diag.coeffs]}")
    print(f"signature: p={sig[0]} q={sig[1]} s={sig[2]}")
    if cfg.out_json:
        payload = {
            "transform": [list(r) for r in diag.transform],
            "diagonal": [str(c) for c in diag.coeffs],
            "signature": list(sig),
        }
        _write(cfg.out_json, json.dumps(payload, sort_keys=True))
    return OK


# ---------------------------------------------------------------------------
# argument plumbing

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value config file (flags override)")
    sub.add_argument("--form", help="form spec: diag:1,-1 or mat:2:0,1,1,0")
    sub.add_argument("--seed", type=int, dest="seed")
    sub.add_argument("--out-csv", dest="out_csv")
    sub.add_argument("--out-json", dest="out_json")


def _add_sequence(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--family", choices=("ones", "delta", "extremizer", "random-unit")
    )
    sub.add_argument("--N", type=int, dest="N")
    sub.add_argument("--s", type=int, dest="s")


def _add_grid(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--grid", dest="grid_policy", choices=("nyquist", "budgeted"))
    sub.add_argument("--max-cells", type=int, dest="max_cells")
    sub.add_argument("--m-alpha", type=int, dest="m_alpha")
    sub.add_argument("--m-theta", type=int, dest="m_theta")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadsums",
        description="Moments and arc diagnostics of quadratic exponential sums",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("moment", "truncated"):
        sp = subs.add_parser(name, help=f"{name} moment of |F|^p on a grid")
        _add_common(sp)
        _add_sequence(sp)
        _add_grid(sp)
        sp.add_argument("--p", type=float, dest="p")
        sp.add_argument("--C", type=float, dest="C")
        sp.add_argument("--lambdas", type=_to_float_list, dest="lambdas")

    sp = subs.add_parser("levelset", help="level-set measure profile")
    _add_common(sp)
    _add_sequence(sp)
    _add_grid(sp)
    sp.add_argument("--p", type=float, dest="p")
    sp.add_argument("--levels", type=int, dest="levels")
    sp.add_argument("--lambdas", type=_to_float_list, dest="lambdas")

    sp = subs.add_parser("scaling", help="N-sweep with log-log slope fit")
    _add_common(sp)
    _add_sequence(sp)
    _add_grid(sp)
    sp.add_argument("--N-list", type=_to_int_list, dest="N_list")
    sp.add_argument("--p", type=float, dest="p")
    sp.add_argument("--C", type=float, dest="C")
    sp.add_argument("--offsets", type=int, dest="offsets")
    sp.add_argument("--measure", choices=("full", "truncated"), dest="measure")
    sp.add_argument("--slope-tol", type=float, dest="slope_tol")

    sp = subs.add_parser("mollifier-check", help="partition and vanishing checks")
    _add_common(sp)
    sp.add_argument("--N", type=int, dest="N")
    sp.add_argument("--c1", type=Fraction, dest="c1")
    sp.add_argument("--Q", type=int, dest="Q")
    sp.add_argument("--samples", type=int, dest="samples")

    sp = subs.add_parser("arc-check", help="major/minor arc diagnostics")
    _add_common(sp)
    sp.add_argument("--N", type=int, dest="N")
    sp.add_argument("--c1", type=Fraction, dest="c1")
    sp.add_argument("--q-max", type=int, dest="q_max")
    sp.add_argument("--count", type=int, dest="count")
    sp.add_argument("--m-cut", type=int, dest="m_cut")

    sp = subs.add_parser("gauss-table", help="complete sum table S(a,b;q)")
    _add_common(sp)
    sp.add_argument("--a", type=int, dest="a")
    sp.add_argument("--q", type=int, dest="q")

    sp = subs.add_parser("diagonalize", help="rational diagonalization of a form")
    _add_common(sp)

    return parser


DISPATCH = {
    "moment": cmd_moment,
    "truncated": cmd_truncated,
    "levelset": cmd_levelset,
    "scaling": cmd_scaling,
    "mollifier-check": cmd_mollifier_check,
    "arc-check": cmd_arc_check,
    "gauss-table": cmd_gauss_table,
    "diagonalize": cmd_diagonalize,
}


def merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.command)
    if getattr(args, "config", None):
        cfg.apply(parse_config_file(args.config))
    updates = {}
    for f in dataclasses.fields(RunConfig):
        if hasattr(args, f.name) and getattr(args, f.name) is not None:
            updates[f.name] = getattr(args, f.name)
    cfg.apply(updates)
    return cfg


# argparse reads a value that starts with "-" as an option unless it looks
# like -2 or -.5; joined to its flag, -inf, -nan or -1e5 reaches the checks
_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _join_negative_values(argv: list[str]) -> list[str]:
    """`--flag -inf` as `--flag=-inf`, for every flag given without `=`."""
    out: list[str] = []
    for tok in argv:
        if (
            out and out[-1].startswith("--") and "=" not in out[-1]
            and _NEGATIVE_VALUE.match(tok)
        ):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _join_negative_values(sys.argv[1:] if argv is None else list(argv))
    )
    try:
        cfg = merge_config(args)
        return DISPATCH[args.command](cfg)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
