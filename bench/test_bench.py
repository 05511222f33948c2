"""Tests of the benchmark itself: its own key counter, traced against untraced
rounds, and the names the command prints against BENCHMARK.json.

    python3 -m pytest bench
"""

import contextlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

FORMS = {
    "diag:1": [[1]],
    "diag:1,-1": [[1, 0], [0, -1]],
    "mat:2:0,1,1,0": [[0, 1], [1, 0]],
    "mat:2:2,1,1,-3": [[2, 1], [1, -3]],
    "diag:1,1,-1": [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
}


def _coefficients(rng, d, r, kind):
    shape = (2 * r + 1,) * d
    if kind == "complex":
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (rng.random(shape) < 0.6).astype(float)


@pytest.mark.parametrize("spec", sorted(FORMS))
@pytest.mark.parametrize("kind", ["complex", "zero-one"])
def test_key_counter_matches_brute_force(spec, kind):
    m = FORMS[spec]
    d = len(m)
    rng = np.random.default_rng(len(spec) + d)
    for p, r in ((2, 2), (4, 2 if d < 3 else 1), (6, 1)):
        vals = _coefficients(rng, d, r, kind)
        want = reference.brute_moment(m, vals, p)
        got = reference.key_moment(m, vals, p)
        assert abs(got - want) <= 1e-12 * max(want, 1.0), (p, r)


def test_key_counter_extremizer_closed_form():
    for N in range(2, 25):
        vals = np.zeros((2 * N + 1,) * 2)
        for n in range(1, N + 1):
            vals[N + n, N + n] = 1.0
        assert reference.key_moment(FORMS["diag:1,-1"], vals, 4) == (2 * N**3 + N) / 3


@pytest.mark.parametrize("name", ["exact-moments", "truncated-sweep"])
def test_traced_and_untraced_rounds_agree(name):
    build, run_round, _ = workloads.WORKLOADS[name]
    inputs = build(7)
    plain = run.canonical(run_round(inputs, lambda n: contextlib.nullcontext()))
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        traced = run.canonical(run_round(inputs, tracer.span))
    finally:
        tracer.uninstall()
    assert traced == plain
    layers = spans.layer_metrics(tracer.take())
    assert layers["moments.oracle.calls"] > 0
    assert layers["expsum.field.cells"] > 0
    # every patched name is back to the original
    from quadsums import arcs, expsum, moments

    for fn in (expsum.iter_field_chunks, moments.iter_field_chunks,
               moments.even_moment_exact, arcs.MollifierFamily.lambda_rho):
        assert not hasattr(fn, "__wrapped__")


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_printed_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert spec["command"][1:] == ["bench/run.py"]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = _run("exact-moments", trace)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        assert got == want


def test_bare_directory_exits_nonzero(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-moments",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
