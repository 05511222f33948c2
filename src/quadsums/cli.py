"""Command-line front end: moments, level sets, scaling sweeps, mollifier and
arc diagnostics, Gauss-sum tables, diagonalization.

Exit codes: 0 success, 1 tolerance failure, 2 validation error. All floats
print with 17 significant digits and every run is deterministic given its
flags and seed, so reruns reproduce output files byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from .config import OPTIONS, RunConfig, option_flag, parse_config_file
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
    if cfg.lambdas == ():
        raise ValueError("--lambdas must list at least one level")
    if cfg.lambdas is None and cfg.levels < 1:
        raise ValueError(f"--levels must be >= 1, got {cfg.levels}")
    form = parse_form_spec(cfg.form or DEFAULT_FORM)
    grid = _resolve_grid(cfg, form, N, cfg.p)
    seq = make_sequence(cfg.family, form.dim, N, s=cfg.s, seed=cfg.seed)
    lams = cfg.lambdas or tuple(moments.default_levels(seq, cfg.levels))
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
    if not (math.isfinite(cfg.slope_tol) and cfg.slope_tol >= 0):
        raise ValueError(f"--slope-tol must be finite and >= 0, got {cfg.slope_tol}")
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


def _worst(defects: np.ndarray) -> float:
    """The largest defect, 0.0 (not -0.0) if none is above it; NaN if any is."""
    return float(np.max(defects, initial=0.0)) + 0.0


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

    # lambda summed from the pieces Phi_{Q,s} shell by shell, so a wrong shell
    # shows, and rho in its own batched pass, at the samples and on the cores
    rng = np.random.default_rng(cfg.seed)
    alphas = rng.random(cfg.samples)
    lam = fam._pieces_sum(alphas)
    outside = np.maximum(-lam, lam - 1.0)
    checks.append(("lambda-in-unit-interval", _worst(outside), 1e-12))
    defect = np.abs(lam + fam.rho_values(alphas) - 1.0)
    checks.append(("lambda-plus-rho-is-one", _worst(defect), 1e-12))

    # five points across each core a/q +- 1/(QN)
    cores = fam._centres[:, None] + np.linspace(-1.0, 1.0, 5) / fam._scales[:, None]
    core_rho = np.abs(fam.rho_values(cores.ravel()))
    checks.append(("rho-vanishes-on-cores", _worst(core_rho), 1e-12))

    mean_defect = max(abs(fam.Psi_fourier(Q, s, 0)) for Q, s in fam.index_pairs())
    checks.append(("pieces-mean-zero", mean_defect, 1e-8))

    for name, value, tol in checks:
        status = "pass" if value <= tol else "FAIL"
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

    return OK if all(value <= tol for _, value, tol in checks) else TOLERANCE_FAILURE


def cmd_arc_check(cfg: RunConfig) -> int:
    N = _require(cfg, "N", "--N")
    for attr, flag in (("q_max", "--q-max"), ("count", "--count")):
        if getattr(cfg, attr) < 1:
            raise ValueError(f"{flag} must be >= 1, got {getattr(cfg, attr)}")
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
        while math.gcd(a, q) != 1:
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
    payload = {
        "transform": [list(r) for r in diag.transform],
        "diagonal": [str(c) for c in diag.coeffs],
        "signature": list(sig),
    }
    print(f"transform rows: {payload['transform']}")
    print(f"diagonal: {payload['diagonal']}")
    print(f"signature: p={sig[0]} q={sig[1]} s={sig[2]}")
    _write(cfg.out_json, json.dumps(payload, sort_keys=True))
    return OK


# ---------------------------------------------------------------------------
# argument plumbing

COMMON = ("form", "seed", "out_csv", "out_json")
SEQUENCE = ("family", "N", "s")
GRID = ("grid_policy", "max_cells", "m_alpha", "m_theta")

# subcommand -> (handler, help, its run options as RunConfig fields); the
# flags follow --config in this order
COMMANDS = {
    "moment": (cmd_moment, "moment moment of |F|^p on a grid",
               (*COMMON, *SEQUENCE, *GRID, "p", "C", "lambdas")),
    "truncated": (cmd_truncated, "truncated moment of |F|^p on a grid",
                  (*COMMON, *SEQUENCE, *GRID, "p", "C", "lambdas")),
    "levelset": (cmd_levelset, "level-set measure profile",
                 (*COMMON, *SEQUENCE, *GRID, "p", "levels", "lambdas")),
    "scaling": (cmd_scaling, "N-sweep with log-log slope fit",
                (*COMMON, *SEQUENCE, *GRID, "N_list", "p", "C", "offsets",
                 "measure", "slope_tol")),
    "mollifier-check": (cmd_mollifier_check, "partition and vanishing checks",
                        (*COMMON, "N", "c1", "Q", "samples")),
    "arc-check": (cmd_arc_check, "major/minor arc diagnostics",
                  (*COMMON, "N", "c1", "q_max", "count", "m_cut")),
    "gauss-table": (cmd_gauss_table, "complete sum table S(a,b;q)",
                    (*COMMON, "a", "q")),
    "diagonalize": (cmd_diagonalize, "rational diagonalization of a form", COMMON),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadsums",
        description="Moments and arc diagnostics of quadratic exponential sums",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in COMMANDS.items():
        sp = subs.add_parser(name, help=help_text)
        sp.add_argument("--config", help="key=value config file (flags override)")
        for opt in options:
            meta = OPTIONS[opt]
            sp.add_argument(option_flag(opt), dest=opt, type=meta["convert"],
                            choices=meta["choices"], help=meta["help"])
    return parser


def merge_config(args: argparse.Namespace) -> RunConfig:
    values = parse_config_file(args.config) if args.config else {}
    values.update(
        (name, value) for name, value in vars(args).items()
        if name in OPTIONS and value is not None
    )
    return RunConfig(subcommand=args.command, **values)


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
        return COMMANDS[args.command][0](cfg)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
