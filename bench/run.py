"""Run one quadsums benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a quadsums checkout; the package is imported from its
`src/` directory, never from an installed copy. The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end ones (`wall_s`,
`setup_s`, `peak_rss_mb`); with `--trace 1` they are the per-layer ones, and
the spans of the last traced round are written under `bench/out/`.
The exit code is 0 when every check passed, 1 when one failed, 2 on a usage
error or when the package is not there.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("truncated-sweep", "minor-arc-scan", "exact-moments", "arc-diagnostics")
SETUP_REPEATS = 5
IMPORT_REPEATS = 7

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_threads() -> None:
    """One BLAS thread (the only BLAS calls are small matrix products in the
    oscillatory integrals), set before numpy loads its backend."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


def import_program():
    """Import quadsums from this checkout's src/ and the benchmark modules."""
    if not (SRC / "quadsums" / "__init__.py").is_file():
        print(f"bench: no quadsums package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import quadsums
    from quadsums import arcs, bump, cli, config, expsum, moments, quadform, scaling, sequences

    if Path(quadsums.__file__).resolve().parent != SRC / "quadsums":
        print(f"bench: quadsums came from {quadsums.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    import spans
    import workloads

    modules = (arcs, bump, cli, config, expsum, moments, quadform, scaling, sequences)
    return modules, spans, workloads


def import_seconds() -> float:
    """Time to import numpy and every quadsums module in a fresh interpreter.
    The run's own import happens once, which is too short a sample to time
    steadily, so set-up is sampled IMPORT_REPEATS times this way; the first
    interpreter also writes the bytecode caches."""
    probe = (
        "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
        "import numpy; from quadsums import arcs, bump, cli, config, expsum, "
        "moments, quadform, scaling, sequences; print(time.perf_counter() - t)"
    ).format(src=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, timeout=60,
    )
    return float(proc.stdout)


def lazy_caches(modules) -> list:
    """The program's functools caches (R(n) grids, smooth-weight sequences,
    quadrature rules, factorizations). They are emptied before every round,
    so each round pays to fill them, as each CLI invocation does."""
    return [
        obj for mod in modules for obj in vars(mod).values()
        if callable(getattr(obj, "cache_clear", None))
    ]


def canonical(results: list) -> list[tuple[str, str]]:
    return [(name, json.dumps(r, sort_keys=True)) for name, r in results]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    pin_threads()
    modules, spans, workloads = import_program()
    build, run_round, check = workloads.WORKLOADS[args.workload]
    caches = lazy_caches(modules)
    tracer = spans.Tracer() if args.trace else None

    # set-up, several times; the last inputs are the ones used
    build_s, family_s = [], []
    for _ in range(SETUP_REPEATS):
        if tracer:
            spans.install(tracer)
        t = time.perf_counter()
        inputs = build(args.seed)
        build_s.append(time.perf_counter() - t)
        if tracer:
            tracer.uninstall()
            family_s.append(sum(s.duration for s in tracer.take() if s.name == spans.FAMILY))

    def one_round(traced: bool):
        for c in caches:
            c.cache_clear()
        if traced:
            spans.install(tracer)
            span = tracer.span
        else:
            span = lambda name: contextlib.nullcontext()  # noqa: E731
        t = time.perf_counter()
        try:
            results = run_round(inputs, span)
        finally:
            dt = time.perf_counter() - t
            if traced:
                tracer.uninstall()
        return dt, canonical(results)

    # warm-up round: its outputs are the ones checked; later rounds must
    # reproduce them exactly
    _, reference_out = one_round(False)
    n_ops = len(reference_out)
    rounds = {False: [], True: []}
    layer_rounds, last_spans, mismatched = [], [], 0
    import_s = []
    deadline = time.perf_counter() + args.seconds
    while True:
        for traced in ((False, True) if tracer else (False,)):
            dt, out = one_round(traced)
            rounds[traced].append(dt)
            mismatched += sum(a != b for a, b in zip(out, reference_out))
            if traced:
                last_spans = tracer.take()
                layer_rounds.append(spans.layer_metrics(last_spans))
        # import samples between rounds spread over the run, so that one
        # burst of load on the host does not set all of them
        if not tracer and len(import_s) < IMPORT_REPEATS:
            import_s.append(import_seconds())
        if time.perf_counter() >= deadline:
            break
    while not tracer and len(import_s) < IMPORT_REPEATS:
        import_s.append(import_seconds())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    bad = check(inputs, [(name, json.loads(r)) for name, r in reference_out])
    failing = sorted(name for name, errs in bad.items() if errs)
    for name in failing:
        for err in bad[name]:
            print(f"bench: {args.workload}: {name}: {err}", file=sys.stderr)
    total_rounds = 1 + len(rounds[False]) + len(rounds[True])
    attempted = n_ops * total_rounds
    failed = len(failing) * total_rounds + mismatched
    if mismatched:
        print(f"bench: {mismatched} operation results differed from the first "
              "round", file=sys.stderr)

    if tracer:
        metrics = {
            name: statistics.median(r[name] for r in layer_rounds)
            for name, _ in spans.PER_LAYER
            if name not in ("arcs.family.s", "trace.overhead_s")
        }
        metrics["arcs.family.s"] = statistics.median(family_s)
        metrics["trace.overhead_s"] = (
            statistics.median(rounds[True]) - statistics.median(rounds[False])
        )
        units = dict(spans.PER_LAYER)
        write_trace(args, layer_rounds, family_s, rounds, spans.spans_json(last_spans, _T0))
    else:
        metrics = {
            "wall_s": statistics.median(rounds[False]),
            "setup_s": statistics.median(import_s) + statistics.median(build_s),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    print(
        f"bench: {args.workload} seed={args.seed} ops/round={n_ops} failed={failed} "
        f"round_s={[round(t, 3) for t in rounds[False]]}",
        file=sys.stderr,
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def write_trace(args, layer_rounds, family_s, rounds, span_records) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "untraced_round_s": rounds[False],
            "traced_round_s": rounds[True],
            "family_build_s": family_s,
            "layers_per_round": layer_rounds,
            "last_round_spans": span_records,
        }, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
