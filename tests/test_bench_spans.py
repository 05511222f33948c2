"""The benchmark's tracer patches quadsums names from outside the package;
installing and removing it must work on the current names."""

import importlib.util
import sys
from pathlib import Path

from quadsums import (
    SmoothWeight,
    TorusGrid,
    expsum,
    moments,
    ones_sequence,
    parse_form_spec,
    random_unit_sequence,
)

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _block_rows(form, grid):
    # the cells of each block's rows, m_alpha * m_theta^e for a block of e axes
    return sum(grid.m_alpha * grid.m_theta ** len(ax) for ax, _ in form.blocks)


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_install_and_uninstall_restore_originals(monkeypatch):
    spans = _load_spans(monkeypatch)
    tracer = spans.Tracer()
    original_report = moments.build_report
    patched = []
    try:
        spans.install(tracer)
        patched = list(tracer._undo)
        assert patched
        assert moments.build_report is not original_report
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
    assert moments.build_report is original_report


def test_field_spans_count_every_cell(monkeypatch):
    # every scan reads through iter_field_chunks, so the benchmark's
    # expsum.field spans cover each block's rows of a factored source on two
    # or more blocks, or every cell of any other, exactly once
    spans = _load_spans(monkeypatch)
    hyper, cross = parse_form_spec("diag:1,-1"), parse_form_spec("mat:2:0,1,1,0")
    cases = (
        (hyper, ones_sequence(2, 4).normalized(), TorusGrid(2, 40, 11, (0.1, 0.2, 0.3))),
        (hyper, SmoothWeight(2, 3), TorusGrid(2, 18, 13, (0.0, 0.0, 0.0))),
        # random-unit declares no factors: the general engine's single box
        (cross, random_unit_sequence(2, 3, seed=2), TorusGrid(2, 30, 9, (0.4, 0.1, 0.7))),
    )
    for form, source, grid in cases:
        tracer = spans.Tracer()
        try:
            spans.install(tracer)
            moments.scan_field(form, source, grid, p_values=(2.0,))
        finally:
            tracer.uninstall()
        field = [s for s in tracer.take() if s.name == spans.FIELD]
        assert field
        want = grid.total_cells if source.factors is None else _block_rows(form, grid)
        assert sum(s.counts.get("cells", 0) for s in field) == want


def test_field_spans_close_in_order_with_a_worker(monkeypatch):
    # with the next chunk computed on a worker thread, every field span still
    # opens and closes on the consumer's thread, one per chunk, in order; the
    # scan's spans cover each block's rows of case 1, or every cell of case 2,
    # exactly once, and the direct read every cell
    spans = _load_spans(monkeypatch)
    monkeypatch.setattr(expsum, "_WORKERS", 2)
    cases = (
        (parse_form_spec("diag:1,-1"), ones_sequence(2, 8), TorusGrid(2, 385, 49, (0.0,) * 3)),
        (
            parse_form_spec("mat:2:0,1,1,0"),
            random_unit_sequence(2, 6, seed=3),
            TorusGrid(2, 600, 41, (0.3, 0.1, 0.7)),
        ),
    )
    for form, source, grid in cases:
        tracer = spans.Tracer()
        try:
            spans.install(tracer)
            moments.scan_field(form, source, grid, p_values=(2.0,))
            # criterion 07 reads the chunks itself, outside any scan
            for _ in expsum.iter_field_chunks(form, source, grid):
                pass
        finally:
            tracer.uninstall()
        recorded = tracer.take()  # raises if a span is still open
        field = [s for s in recorded if s.name == spans.FIELD]
        direct = [s for s in field if s.parent < 0]
        rows = source.factors is not None
        assert (len(direct) >= 7) if rows else (len(field) >= 2 * 7)
        for s in recorded:
            assert s.start <= s.end
            if s.parent >= 0:
                outer = recorded[s.parent]
                assert outer.start <= s.start and s.end <= outer.end
        for a, b in zip(field, field[1:]):
            assert a.end <= b.start
        in_scan = [s for s in field if s.parent >= 0]
        assert all(recorded[s.parent].name == spans.SCAN for s in in_scan)
        scanned = _block_rows(form, grid) if rows else grid.total_cells
        for group, want in ((in_scan, scanned), (direct, grid.total_cells)):
            assert sum(s.counts.get("cells", 0) for s in group) == want


def test_block_row_spans_count_the_rows(monkeypatch):
    # build_report scans a factored source on a form of two or more blocks
    # from the blocks' rows: each grid's scan span holds field spans that
    # count m_alpha * m_theta^e cells per block of e axes
    spans = _load_spans(monkeypatch)
    cases = (
        (parse_form_spec("diag:1,-1"), ones_sequence(2, 4).normalized(), 40, 11),
        (parse_form_spec("diag:1,1,-1"), SmoothWeight(3, 1), 30, 5),
        (parse_form_spec("mat:3:0,0,1,0,1,0,1,0,0"), ones_sequence(3, 2), 25, 7),
    )
    for form, source, m_alpha, m_theta in cases:
        grids = [
            TorusGrid(source.dim, m_alpha, m_theta, (0.1 * j,) * (source.dim + 1))
            for j in range(2)
        ]
        tracer = spans.Tracer()
        try:
            spans.install(tracer)
            moments.build_report(form, source, grids, 4.0)
        finally:
            tracer.uninstall()
        recorded = tracer.take()
        scans = [i for i, s in enumerate(recorded) if s.name == spans.SCAN]
        assert len(scans) == len(grids)
        want = sum(m_alpha * m_theta ** len(ax) for ax, _ in form.blocks)
        for i in scans:
            field = [s for s in recorded if s.name == spans.FIELD and s.parent == i]
            assert sum(s.counts.get("cells", 0) for s in field) == want
        field = [s for s in recorded if s.name == spans.FIELD]
        assert all(s.parent in scans for s in field)
