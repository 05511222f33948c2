"""End-to-end command line checks, run in process."""

import argparse
import contextlib
import io
import json
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quadsums import MollifierFamily, diagonalize_rational, parse_form_spec, signature
from quadsums.bump import bump
from quadsums.cli import COMMANDS, build_parser, main, merge_config
from quadsums.config import KNOWN_KEYS, OPTIONS, RunConfig, option_flag


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_moment_extremizer_exact():
    code, out, err = _run(
        ["moment", "--form", "diag:1,-1", "--family", "extremizer",
         "--N", "3", "--p", "4", "--grid", "nyquist"]
    )
    assert code == 0 and err == ""
    assert "full=19\n" in out
    assert "exact=yes" in out
    assert "grid=37x13^2" in out


def test_moment_delta_flat():
    code, out, _ = _run(
        ["moment", "--form", "diag:1,-1", "--family", "delta",
         "--N", "2", "--p", "6", "--grid", "nyquist"]
    )
    assert code == 0
    assert "full=1\n" in out


def test_moment_block_form_exact():
    # R = 2 x0 x1 + x2^2: the oracle counts per block and agrees with the
    # Nyquist grid, or the run would exit 1
    code, out, err = _run(
        ["moment", "--form", "mat:3:0,1,0,1,0,0,0,0,1", "--family", "ones",
         "--N", "3", "--p", "6", "--grid", "nyquist"]
    )
    assert code == 0 and err == ""
    assert "full=35383080115\n" in out
    assert "exact=yes" in out


def test_moment_oracle_disagreement_exits_1(monkeypatch):
    # an oracle that is off by 1e-3 against an exact grid: the run prints
    # both values and exits 1
    from quadsums import moments

    exact = moments.even_moment_exact
    monkeypatch.setattr(
        moments, "even_moment_exact", lambda *args: exact(*args) * (1 + 1e-3)
    )
    code, out, _ = _run(
        ["moment", "--form", "diag:1,-1", "--family", "extremizer",
         "--N", "3", "--p", "4", "--grid", "nyquist"]
    )
    assert code == 1
    assert "exact=yes" in out
    assert "full=19.018999999999998\n" in out
    assert "DISAGREEMENT: exact oracle 19.018999999999998 vs grid 18.99999" in out


def test_truncated_extremizer_degenerate():
    code, out, _ = _run(
        ["truncated", "--form", "diag:1,-1", "--family", "extremizer",
         "--N", "4", "--p", "4", "--C", "2", "--grid", "nyquist"]
    )
    assert code == 0
    assert out.splitlines()[1] == "truncated=0"
    assert "full=44" in out


def test_bad_form_exits_2():
    code, out, err = _run(["moment", "--form", "mat:2:1,2,3,4", "--N", "2"])
    assert code == 2 and out == ""
    assert "error:" in err and "not symmetric" in err
    assert "M[0,1]=2" in err and "M[1,0]=3" in err


def test_missing_N_exits_2():
    code, _, err = _run(["moment", "--form", "diag:1"])
    assert code == 2
    assert "needs --N" in err


def test_partial_explicit_grid_exits_2():
    code, _, err = _run(["moment", "--form", "diag:1", "--N", "2", "--m-alpha", "40"])
    assert code == 2
    assert "both --m-alpha and --m-theta" in err


def test_nyquist_grid_over_max_cells_exits_2():
    code, out, err = _run(
        ["moment", "--form", "diag:1,-1", "--N", "2", "--p", "4",
         "--grid", "nyquist", "--max-cells", "1000"]
    )
    assert code == 2 and out == ""
    assert "exceeds max_cells" in err


def test_over_budget_grid_refused_before_sequence_is_built():
    # the (2N+1)^2 = 2001^2 sequence alone would take 64 MB
    args = ["--form", "diag:1,-1", "--family", "ones", "--N", "1000",
            "--grid", "nyquist", "--max-cells", "1000"]
    for cmd in ("moment", "truncated", "levelset"):
        tracemalloc.start()
        try:
            code, out, err = _run([cmd] + args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert "cannot fit one alpha slice" in err
        assert peak < 8 * 2**20, (cmd, peak)
    # a negative N is refused as such, not as a slice of -1999^2 cells
    code, _, err = _run(["moment", "--N", "-1000", "--grid", "nyquist"])
    assert code == 2 and "--N must be >= 0" in err


def test_nonpositive_C_exits_2():
    code, out, err = _run(
        ["truncated", "--form", "diag:1,-1", "--family", "ones", "--N", "4",
         "--grid", "nyquist", "--p", "4", "--C=-1"]
    )
    assert code == 2 and out == ""
    assert "C must be positive" in err


def test_negative_lambda_exits_2():
    code, out, err = _run(
        ["levelset", "--form", "diag:1,-1", "--family", "ones", "--N", "4",
         "--grid", "nyquist", "--p", "4", "--lambdas=-1,0.5"]
    )
    assert code == 2 and out == ""
    assert "lambda must be >= 0" in err


def test_nonfinite_rung_and_C_exit_2():
    base = ["--form", "diag:1,-1", "--family", "ones", "--N", "4",
            "--grid", "nyquist", "--p", "4"]
    code, out, err = _run(["levelset", *base, "--lambdas", "81,nan,27,0"])
    assert code == 2 and out == ""
    assert "lambda must be finite" in err
    code, out, err = _run(["truncated", *base, "--C", "nan"])
    assert code == 2 and out == ""
    assert "C must be finite" in err


def test_nonpositive_p_budgeted_exits_2():
    code, out, err = _run(
        ["moment", "--form", "diag:1,-1", "--N", "4", "--p", "-2",
         "--grid", "budgeted"]
    )
    assert code == 2 and out == ""
    assert "p must be positive and finite" in err


def test_bad_p_on_explicit_grid_exits_2():
    # an explicit grid skips the sizing checks; the report checks p itself
    base = ["moment", "--form", "diag:1,-1", "--N", "2",
            "--m-alpha", "10", "--m-theta", "10"]
    for value in ("-2", "0", "inf", "nan"):
        code, out, err = _run([*base, "--p", value])
        assert code == 2 and out == "", value
        assert "p must be positive and finite" in err


def test_scaling_nonfinite_p_or_C_exits_2():
    base = ["scaling", "--form", "diag:1,-1", "--family", "ones",
            "--N-list", "2,3,4"]
    # "-inf" after a flag reaches the check as "--C=-inf" does
    for flag, value in (("--C", "nan"), ("--C", "inf"), ("--C", "-inf"),
                        ("--p", "nan"), ("--p", "inf"), ("--p", "-inf")):
        code, out, err = _run([*base, flag, value])
        assert code == 2 and out == ""
        assert f"{flag[2:]} must be finite" in err
        assert "failed:" not in err


def test_short_N_list_exits_2():
    code, _, err = _run(["scaling", "--form", "diag:1,-1", "--N-list", "2,4"])
    assert code == 2
    assert "at least 3" in err


def test_unknown_config_key(tmp_path):
    for key, value in (("colour", "blue"), ("beta", "0.5")):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        code, _, err = _run(["moment", "--config", str(cfg), "--N", "2"])
        assert code == 2
        assert f"{cfg}:1: unknown config key '{key}'" in err


def test_config_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("form = diag:1\nN = 2\np = 4\ngrid.policy = nyquist\n")
    code, out, _ = _run(["moment", "--config", str(cfg)])
    assert code == 0 and "N=2" in out
    code, out, _ = _run(["moment", "--config", str(cfg), "--N", "3"])
    assert code == 0 and "N=3" in out


def test_mollifier_check_passes():
    code, out, _ = _run(["mollifier-check", "--N", "64"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    names = [ln.split(":")[0] for ln in lines]
    assert names == [
        "partition-telescoping",
        "lambda-in-unit-interval",
        "lambda-plus-rho-is-one",
        "rho-vanishes-on-cores",
        "pieces-mean-zero",
    ]
    assert all(ln.endswith("pass") for ln in lines)


def test_mollifier_check_catches_a_wrong_shell(monkeypatch):
    # lambda + rho = 1 is checked with lambda summed from the shells phi_s:
    # shells that drop their differencing no longer telescope
    def undifferenced(self, s, x):
        return bump(np.asarray(x, dtype=float) * float((1 << s) * self.N))

    def undefined(self, s, x):
        return np.full(np.shape(x), np.nan)

    for shell in (undifferenced, undefined):  # a NaN defect fails too
        monkeypatch.setattr(MollifierFamily, "phi_s", shell)
        code, out, _ = _run(["mollifier-check", "--N", "64"])
        assert code == 1
        line = r"^lambda-plus-rho-is-one: defect=\S+ tol=\S+ FAIL$"
        assert re.search(line, out, re.M), shell


def test_mollifier_check_fourier_table(tmp_path):
    path = tmp_path / "phi.csv"
    code, _, _ = _run(["mollifier-check", "--N", "64", "--out-csv", str(path)])
    assert code == 0
    header, *rows = path.read_text().splitlines()
    assert header == "Q,s,n,re,im,bound_rhs"
    fam = MollifierFamily(64)
    want = [(Q, s, n) for Q, s in fam.index_pairs() for n in range(-64, 65)]
    assert len(rows) == len(want) == 129 * len(fam.index_pairs())
    for row, (Q, s, n) in zip(rows, want):
        q, s_, n_, re_, im, _ = row.split(",")
        assert (int(q), int(s_), int(n_)) == (Q, s, n)
        assert float(re_) == fam.Phi_fourier(Q, s, n) and im == "0"


def test_mollifier_check_overlap_exits_2():
    code, _, err = _run(["mollifier-check", "--N", "32", "--c1", "1/8"])
    assert code == 2
    assert "mollifier supports overlap" in err
    assert "choose a smaller c1" in err


def test_mollifier_check_no_arcs():
    code, out, _ = _run(["mollifier-check", "--N", "8"])
    assert code == 0
    assert "no arcs (N1=0)" in out


def test_levelset_monotone(tmp_path):
    out_csv = tmp_path / "levels.csv"
    code, out, _ = _run(
        ["levelset", "--form", "diag:1", "--N", "2", "--grid", "nyquist",
         "--p", "2", "--levels", "6", "--out-csv", str(out_csv)]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,measure"
    meas = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert len(meas) == 6
    assert meas[0] == 1.0 and meas[-1] == 0.0
    assert all(b <= a for a, b in zip(meas, meas[1:]))
    assert out_csv.read_text().strip().splitlines() == lines


def test_arc_check_reports_errors():
    code, out, _ = _run(["arc-check", "--N", "16", "--count", "6", "--seed", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("major points: worst relative error")
    assert float(lines[0].rsplit(" ", 1)[1]) <= 0.05
    assert lines[1].startswith("minor points: max |F|/N^(d/2)")


def test_scaling_command_full_measure():
    code, out, _ = _run(
        ["scaling", "--form", "diag:1,-1", "--family", "extremizer",
         "--N-list", "2,3,4", "--p", "4", "--grid", "nyquist",
         "--offsets", "1", "--measure", "full"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("N=2 full=1.4999999999")
    assert lines[-1].startswith("slope=")
    assert "verdict=within-tolerance" in lines[-1]


def test_scaling_json_summary(tmp_path):
    out_json = tmp_path / "fit.json"
    out_csv = tmp_path / "fit.csv"
    code, _, _ = _run(
        ["scaling", "--form", "diag:1,-1", "--family", "extremizer",
         "--N-list", "2,3,4", "--p", "4", "--grid", "nyquist", "--offsets", "1",
         "--measure", "full", "--out-json", str(out_json), "--out-csv", str(out_csv)]
    )
    assert code == 0
    summary = json.loads(out_json.read_text())
    for key in ("measure", "slope", "theory_slope", "verdict", "per_N",
                "pairwise_slopes", "failures"):
        assert key in summary
    assert summary["measure"] == "full"
    assert summary["verdict"] == "within-tolerance"
    assert summary["failures"] == []
    rows = out_csv.read_text().strip().splitlines()
    assert rows[0].startswith("N,")
    assert len(rows) == 4


def test_gauss_table_output():
    code, out, _ = _run(["gauss-table", "--form", "diag:1", "--a", "1", "--q", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "b,re,im,abs"
    b0 = lines[1].split(",")
    b1 = lines[2].split(",")
    assert abs(float(b0[3])) <= 1e-12
    assert abs(float(b1[1]) - 2.0) <= 1e-12


def test_diagonalize_output():
    code, out, _ = _run(["diagonalize", "--form", "mat:2:0,1,1,0"])
    assert code == 0
    assert "transform rows: [[1, 1], [1, -1]]" in out
    assert "diagonal: ['1/2', '-1/2']" in out
    assert "q_lat" not in out
    assert "signature: p=1 q=1 s=1" in out


def test_diagonalize_json(tmp_path):
    form = parse_form_spec("mat:3:0,1,0,1,0,0,0,0,-2")
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = _run(["diagonalize", "--form", "mat:3:0,1,0,1,0,0,0,0,-2",
                           "--out-json", str(path)])
        assert code == 0
    diag = diagonalize_rational(form)
    assert json.loads(paths[0].read_text()) == {
        "transform": [list(r) for r in diag.transform],
        "diagonal": [str(c) for c in diag.coeffs],
        "signature": list(signature(form)),
    }
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_scaling_failures_exit_1():
    # N = 64 cannot fit one alpha slice in 1000 cells: with two other N the
    # sweep cannot fit; with three it fits and reports them, and still exits 1
    base = ["scaling", "--max-cells", "1000", "--p", "4", "--N-list"]
    code, out, err = _run(base + ["2,4,64"])
    assert code == 1 and out == ""
    assert "N=64 failed:" in err
    assert "too few successful N values to fit" in err
    code, out, err = _run(base + ["2,3,4,64"])
    assert code == 1
    assert "N=64 failed:" in err
    lines = out.splitlines()
    assert [ln.split()[0] for ln in lines[:3]] == ["N=2", "N=3", "N=4"]
    assert len(lines) == 4 and lines[3].startswith("slope=")


def test_outputs_are_byte_reproducible(tmp_path):
    args = ["moment", "--form", "diag:1,-1", "--family", "random-unit",
            "--seed", "9", "--N", "3", "--p", "4", "--grid", "nyquist"]
    first_json = tmp_path / "a.json"
    first_csv = tmp_path / "a.csv"
    second_json = tmp_path / "b.json"
    second_csv = tmp_path / "b.csv"
    code, out1, _ = _run(args + ["--out-json", str(first_json), "--out-csv", str(first_csv)])
    assert code == 0
    code, out2, _ = _run(args + ["--out-json", str(second_json), "--out-csv", str(second_csv)])
    assert code == 0
    assert out1 == out2
    assert first_json.read_bytes() == second_json.read_bytes()
    assert first_csv.read_bytes() == second_csv.read_bytes()


def test_zero_denominator_c1_exits_2(tmp_path, capsys):
    # a flag and a config value go through the same converter
    with pytest.raises(SystemExit) as exc:
        main(["mollifier-check", "--N", "16", "--c1", "1/0"])
    assert exc.value.code == 2
    assert "argument --c1" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c1 = 1/0\n")
    code, out, err = _run(["mollifier-check", "--config", str(cfg), "--N", "16"])
    assert code == 2 and out == ""
    assert f"{cfg}:1: bad value for 'c1'" in err


def test_config_values_checked_against_choices(tmp_path):
    base = ["scaling", "--form", "diag:1", "--N-list", "2,4,8", "--grid", "nyquist"]
    cfg = tmp_path / "run.cfg"
    for key, flag, good in (("family", "--family", "ones"),
                            ("grid.policy", "--grid", "nyquist"),
                            ("measure", "--measure", "full")):
        cfg.write_text(f"{key} = bogus\n")
        # refused before any N runs, also when a flag overrides the file
        for extra in ([], [flag, good]):
            code, out, err = _run([*base, "--config", str(cfg), *extra])
            assert code == 2 and out == "", (key, extra)
            assert f"{cfg}:1: bad value for '{key}': invalid choice" in err
            assert "failed:" not in err


def test_bad_slope_tol_exits_2():
    base = ["scaling", "--form", "diag:1", "--N-list", "2,4,8", "--grid", "nyquist"]
    for value in ("nan", "-1", "inf", "-inf"):
        code, out, err = _run([*base, "--slope-tol", value])
        assert code == 2 and out == "", value
        assert "--slope-tol must be finite and >= 0" in err
        assert "failed:" not in err


def test_counts_below_one_exit_2():
    mollifier = ["mollifier-check", "--N", "64"]
    arcs = ["arc-check", "--N", "16"]
    for argv, message in (
        ([*mollifier, "--samples", "0"], "samples must be >= 1"),
        ([*mollifier, "--samples", "-1"], "samples must be >= 1"),
        ([*arcs, "--q-max", "0"], "--q-max must be >= 1"),
        ([*arcs, "--count", "0"], "--count must be >= 1"),
        ([*arcs, "--count", "-1"], "--count must be >= 1"),
    ):
        code, out, err = _run(argv)
        assert code == 2 and out == "", argv
        assert message in err, argv


def test_empty_level_ladder_exits_2():
    levelset = ["levelset", "--form", "diag:1", "--N", "2", "--grid", "nyquist"]
    for argv, message in (
        ([*levelset, "--levels", "0"], "--levels must be >= 1"),
        ([*levelset, "--levels", "-2"], "--levels must be >= 1"),
        ([*levelset, "--lambdas=,"], "--lambdas must list at least one level"),
    ):
        code, out, err = _run(argv)
        assert code == 2 and out == "", argv
        assert message in err, argv


def test_flag_errors_name_what_the_converter_reads(capsys):
    for argv, flag in (
        (["scaling", "--N-list", "2,x"], "--N-list"),
        (["levelset", "--N", "2", "--lambdas", "a"], "--lambdas"),
        (["mollifier-check", "--N", "16", "--c1", "x"], "--c1"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid" in err and "_to_" not in err, argv


# one valid and one invalid spelling per run option (None: any text converts);
# an option missing here fails its case below
OPTION_VALUES = {
    "form": ("diag:1,1", None),
    "family": ("extremizer", "bogus"),
    "seed": ("7", "7.5"),
    "s": ("2", "two"),
    "N": ("010", "0x10"),
    "N_list": ("2,4,8", "2,x"),
    "p": ("6", "six"),
    "C": ("0.5", "half"),
    "c1": ("1/32", "1/0"),
    "grid_policy": ("nyquist", "exact"),
    "max_cells": ("1000", "1e3"),
    "m_alpha": ("40", "4.0"),
    "m_theta": ("12", "x"),
    "offsets": ("1", "x"),
    "levels": ("6", "x"),
    "lambdas": ("0.5,1", "a,b"),
    "measure": ("full", "bogus"),
    "slope_tol": ("0.5", "x"),
    "samples": ("100", "x"),
    "Q": ("4", "x"),
    "q_max": ("3", "x"),
    "m_cut": ("2", "x"),
    "count": ("5", "x"),
    "a": ("2", "x"),
    "q": ("5", "x"),
    "out_csv": ("run.csv", None),
    "out_json": ("run.json", None),
}


@pytest.mark.parametrize("name", sorted(OPTIONS))
def test_flag_and_config_key_read_alike(name, tmp_path, capsys):
    good, bad = OPTION_VALUES[name]
    command = next(c for c, (_, _, opts) in COMMANDS.items() if name in opts)
    key = next(k for k, field in KNOWN_KEYS.items() if field == name)
    flag = option_flag(name)
    cfg = tmp_path / "run.cfg"

    def merged(argv):
        return merge_config(build_parser().parse_args([command, *argv]))

    cfg.write_text(f"{key} = {good}\n")
    from_flag = getattr(merged([f"{flag}={good}"]), name)
    from_file = getattr(merged(["--config", str(cfg)]), name)
    assert from_flag == from_file
    assert type(from_flag) is type(from_file)
    assert from_flag != getattr(RunConfig(), name)
    if bad is None:
        return
    with pytest.raises(SystemExit) as exc:
        merged([f"{flag}={bad}"])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    cfg.write_text(f"{key} = {bad}\n")
    with pytest.raises(ValueError, match=re.escape(f"{cfg}:1: bad value for '{key}'")):
        merged(["--config", str(cfg)])


def test_every_flag_has_help():
    parser = build_parser()
    assert build_parser() is parser  # built once per process
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(subs.choices) == sorted(COMMANDS)
    for name, sub in subs.choices.items():
        for action in sub._actions:
            assert action.help, (name, action.option_strings)


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_examples():
    """(argv, expected stdout, whether it is a prefix) for each `$ quadsums`
    block; a last `...` line stands for the rest of the output."""
    examples = []
    for block in re.findall(r"```text\n(.*?)```", README, re.S):
        cmd, *lines = block.splitlines()
        if cmd.startswith("$ quadsums "):
            prefix = lines[-1:] == ["..."]
            text = "".join(ln + "\n" for ln in (lines[:-1] if prefix else lines))
            examples.append((shlex.split(cmd)[2:], text, prefix))
    return examples


def test_readme_examples_reproduce():
    examples = _readme_examples()
    assert len(examples) == 6
    for argv, text, prefix in examples:
        code, out, err = _run(argv)
        assert code == 0 and err == "", argv
        assert (out[: len(text)] if prefix else out) == text, argv


def test_readme_config_keys_are_the_known_keys():
    section = README.split("## Config files", 1)[1].split("\n## ", 1)[0]
    cells = re.findall(r"^\| (`.*?) \|", section, re.M)
    listed = [key for cell in cells for key in re.findall(r"`([^`]+)`", cell)]
    assert sorted(listed) == sorted(KNOWN_KEYS)
