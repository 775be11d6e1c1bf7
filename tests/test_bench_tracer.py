"""The names bench/tracer.py patches still exist in the library.

The gated benchmark runs untraced, so a dropped patch point would only
fail a traced run; this test fails first.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from tp53scan import mutcall, refstore

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_point_resolves_to_a_callable():
    tracer = _tracer()
    assert tracer.POINTS
    for module, attr, span, _ in tracer.POINTS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


def test_alignment_peak_wraps_both_align_global_lookups():
    # AlignmentPeak patches align_global where ranking and calling look
    # it up, and puts the originals back
    originals = [(module, getattr(module, "align_global", None)) for module in (refstore, mutcall)]
    for module, fn in originals:
        assert callable(fn), f"{module.__name__}.align_global"
    with _tracer().AlignmentPeak().installed():
        for module, fn in originals:
            assert module.align_global is not fn
            assert callable(module.align_global)
    for module, fn in originals:
        assert module.align_global is fn
