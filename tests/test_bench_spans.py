"""The benchmark's tracer patches quadsums names from outside the package;
installing and removing it must work on the current names."""

import importlib.util
import sys
from pathlib import Path

from quadsums import moments

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
