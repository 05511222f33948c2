"""End-to-end command line checks, run in process."""

import contextlib
import io
import json

from quadsums.cli import main


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
    assert "grid=289x25^2" in out


def test_moment_delta_flat():
    code, out, _ = _run(
        ["moment", "--form", "diag:1,-1", "--family", "delta",
         "--N", "2", "--p", "6", "--grid", "nyquist"]
    )
    assert code == 0
    assert "full=1\n" in out


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
