"""Spans recorded around calls into quadsums, from outside the package.

`install` replaces public names where their callers look them up (module
attributes and MollifierFamily methods), so the program's own internal calls
pass through the wrappers without any edit to `src/`. `uninstall` puts the
originals back. Spans stay in memory; `layer_metrics` turns one round's spans
into the per-layer figures.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

# Each layer of the program is one span name; a call that arrives while a span
# of the same name is open (smoothed_sum_direct -> extension_direct,
# rho_values -> lambda_rho, partition checks inside the benchmark's own
# identity sampling) joins that span instead of opening a new one.
FIELD = "expsum.field"
GAUSS = "expsum.gauss"
MAJOR = "expsum.major_arc"
DIRECT = "expsum.direct"
SCAN = "moments.scan"
ORACLE = "moments.oracle"
SIZES = "moments.grid"
CHECK_SIZES = "moments.grid.check"
REPORT = "moments.report"
SCALING = "scaling"
FAMILY = "arcs.family"
RHO = "arcs.rho"
CHECKS = "arcs.checks"
CLI = "cli"

PER_LAYER = (
    ("expsum.field.s", "s"),
    ("expsum.field.cells", "count"),
    ("expsum.field.ns_per_cell", "ns"),
    ("expsum.field.chunk_mb_max", "MiB"),
    ("moments.scan.self_s", "s"),
    ("moments.scan.ns_per_cell", "ns"),
    ("moments.oracle.s", "s"),
    ("moments.oracle.calls", "count"),
    ("moments.oracle.refused", "count"),
    ("moments.grid.cells_requested", "count"),
    ("scaling.self_s", "s"),
    ("arcs.family.s", "s"),
    ("arcs.rho.s", "s"),
    ("arcs.rho.ns_per_alpha", "ns"),
    ("arcs.checks.s", "s"),
    ("expsum.major_arc.s", "s"),
    ("expsum.gauss.s", "s"),
    ("expsum.direct.s", "s"),
    ("expsum.direct.ns_per_term", "ns"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 at top level
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Single-threaded span stack; spans are appended in start order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, sid: int, **counts) -> None:
        span = self.spans[sid]
        span.end = time.perf_counter()
        span.counts.update(counts)
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def open_name(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around its own loops."""
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    def take(self) -> list[Span]:
        """Hand over the finished spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("take() with spans still open")
        out, self.spans = self.spans, []
        return out

    # -- patching

    def wrap(self, name: str, fn, counts=None):
        """`fn` timed as a span called `name`; `counts(args, kwargs, result)`
        returns the counters recorded on it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.open_name() == name:
                return fn(*args, **kwargs)
            sid = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(sid, error=type(exc).__name__)
                raise
            self.end(sid, **(counts(args, kwargs, out) if counts else {}))
            return out

        return wrapper

    def wrap_field(self, fn):
        """iter_field_chunks with a span around each next(), which is where
        the generator does its work."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                sid = self.begin(FIELD)
                try:
                    start, vals = next(gen)
                except StopIteration:
                    self.end(sid)
                    return
                except BaseException as exc:
                    self.end(sid, error=type(exc).__name__)
                    raise
                self.end(sid, cells=int(vals.size), bytes=int(vals.nbytes))
                yield start, vals

        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _terms(args, kwargs, out):
    source = args[1]
    return {"terms": (2 * source.radius + 1) ** source.dim}


def _alphas(args, kwargs, out):
    return {"alphas": len(out)}


def _one_alpha(args, kwargs, out):
    return {"alphas": 1}


def _requested_nyquist(args, kwargs, out):
    form = args[0]
    m_alpha, m_theta = out
    return {"cells": m_alpha * m_theta**form.dim}


def _requested_budgeted(args, kwargs, out):
    dim = args[2]
    m_alpha, m_theta = out
    return {"cells": m_alpha * m_theta**dim}


def install(tracer: Tracer) -> None:
    """Route every public entry point of each measured layer through `tracer`.

    A name is patched in every module that looks it up at call time: the
    defining module and each module that imported the name into its own
    namespace (moments and expsum for iter_field_chunks, cli for the
    complete sums and the partition check).
    """
    from quadsums import arcs, cli, expsum, moments, scaling

    field_fn = tracer.wrap_field(expsum.iter_field_chunks)
    for mod in (expsum, moments):
        tracer.patch(mod, "iter_field_chunks", field_fn)

    def wrap_all(name, attr, mods, counts=None):
        fn = tracer.wrap(name, getattr(mods[0], attr), counts)
        for mod in mods:
            tracer.patch(mod, attr, fn)

    wrap_all(GAUSS, "gauss_sum_table", (expsum, cli))
    wrap_all(MAJOR, "major_arc_approx", (expsum, cli))
    wrap_all(DIRECT, "extension_direct", (expsum,), _terms)
    wrap_all(DIRECT, "smoothed_sum_direct", (expsum, cli), _terms)
    wrap_all(SCAN, "scan_field", (moments,))
    wrap_all(ORACLE, "even_moment_exact", (moments,))
    wrap_all(ORACLE, "representation_count", (moments,))
    wrap_all(SIZES, "nyquist_sizes", (moments,), _requested_nyquist)
    # nyquist_sufficient asks for the sizes only to compare against a grid
    # already chosen; its span keeps those calls out of cells_requested.
    wrap_all(CHECK_SIZES, "nyquist_sufficient", (moments,))
    wrap_all(REPORT, "build_report", (moments,))
    wrap_all(SIZES, "budgeted_grid_sizes", (scaling,), _requested_budgeted)
    wrap_all(SCALING, "run_experiment", (scaling,))
    wrap_all(CHECKS, "partition_identity_check", (arcs, cli))
    wrap_all(CLI, "main", (cli,))

    fam = arcs.MollifierFamily
    tracer.patch(fam, "__init__", tracer.wrap(FAMILY, fam.__init__))
    tracer.patch(fam, "rho_values", tracer.wrap(RHO, fam.rho_values, _alphas))
    tracer.patch(fam, "lambda_rho", tracer.wrap(RHO, fam.lambda_rho, _one_alpha))


def _completed(span: Span) -> bool:
    return "error" not in span.counts


def _refused(span: Span) -> bool:
    # even_moment_exact refuses a key table over its budget with a ValueError
    return span.counts.get("error") == "ValueError"


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one round (all except arcs.family.s and
    trace.overhead_s, which come from set-up and from untraced rounds)."""
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def total(name, pick=lambda s: s.duration):
        return sum(pick(s) for s in by.get(name, ()))

    def parent_name(s):
        return spans[s.parent].name if s.parent >= 0 else None

    field_spans = by.get(FIELD, ())
    field_s = total(FIELD)
    cells = total(FIELD, lambda s: s.counts.get("cells", 0))
    scan_cells = sum(
        s.counts.get("cells", 0) for s in field_spans if parent_name(s) == SCAN
    )
    chunk_mb = max((s.counts.get("bytes", 0) for s in field_spans), default=0) / 2**20
    oracle = by.get(ORACLE, ())
    scan_self = total(SCAN, lambda s: s.self_s)
    requested = sum(
        s.counts.get("cells", 0)
        for s in by.get(SIZES, ())
        if parent_name(s) != CHECK_SIZES
    )
    rho_s = total(RHO)
    alphas = total(RHO, lambda s: s.counts.get("alphas", 0))
    direct_s = total(DIRECT)
    terms = total(DIRECT, lambda s: s.counts.get("terms", 0))
    return {
        "expsum.field.s": field_s,
        "expsum.field.cells": cells,
        "expsum.field.ns_per_cell": 1e9 * field_s / cells if cells else 0.0,
        "expsum.field.chunk_mb_max": chunk_mb,
        "moments.scan.self_s": scan_self,
        "moments.scan.ns_per_cell": 1e9 * scan_self / scan_cells if scan_cells else 0.0,
        "moments.oracle.s": sum(s.duration for s in oracle if _completed(s)),
        "moments.oracle.calls": sum(1 for s in oracle if _completed(s)),
        "moments.oracle.refused": sum(1 for s in oracle if _refused(s)),
        "moments.grid.cells_requested": requested,
        "scaling.self_s": total(SCALING, lambda s: s.self_s),
        "arcs.rho.s": rho_s,
        "arcs.rho.ns_per_alpha": 1e9 * rho_s / alphas if alphas else 0.0,
        "arcs.checks.s": total(CHECKS),
        "expsum.major_arc.s": total(MAJOR),
        "expsum.gauss.s": total(GAUSS),
        "expsum.direct.s": direct_s,
        "expsum.direct.ns_per_term": 1e9 * direct_s / terms if terms else 0.0,
        "cli.self_s": total(CLI, lambda s: s.self_s),
    }


def spans_json(spans: list[Span], origin: float) -> list[dict]:
    """Spans as plain records, times in seconds from `origin`."""
    return [
        {
            "id": i,
            "name": s.name,
            "parent": s.parent,
            "start": s.start - origin,
            "end": s.end - origin,
            "self_s": s.self_s,
            **s.counts,
        }
        for i, s in enumerate(spans)
    ]
