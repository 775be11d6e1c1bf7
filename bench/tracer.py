"""Span recorder that wraps tp53scan's layer boundaries from outside.

While installed, each patched name records a span (name, start, end,
parent, request) plus a few counts taken from the call's arguments and
result. Names are patched where they are looked up: the pipeline calls
``best_homolog`` through ``tp53scan.pipeline``, ranking calls
``align_global`` through ``tp53scan.refstore`` and calling through
``tp53scan.mutcall``. Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import json
import statistics
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from tp53scan import mutcall, mutdb, pipeline, refstore, seqio
from tp53scan.composition import GateDecision

NAME, START, END, PARENT, REQUEST, NOTE = range(6)


def _cells(args, kwargs, result):
    a, b = args[0], args[1]
    return {"cells": (len(a) + 1) * (len(b) + 1)}


def _query_note(args, kwargs, result):
    clauses = args[1].clauses
    return {"rows": len(result.matches), "indexed": any(n == "codon" for n, _ in clauses)}


# (module, attribute, span name, counts taken at the boundary)
POINTS = (
    (pipeline, "predict", "pipeline.predict", None),
    (pipeline, "best_homolog", "refstore.best_homolog",
     lambda a, k, r: {"candidates": len(r)}),
    (pipeline, "composition", "composition.composition", None),
    (pipeline, "reference_gate", "composition.reference_gate",
     lambda a, k, r: {"accept": r is GateDecision.ACCEPT}),
    (pipeline, "call_mutations", "mutcall.call_mutations",
     lambda a, k, r: {"mutations": len(r.mutations)}),
    (pipeline, "classify", "mutdb.classify", lambda a, k, r: {"hit": r is not None}),
    (pipeline, "report_to_dict", "pipeline.report_to_dict", None),
    (refstore, "align_global", "alignment.align_global", _cells),
    (mutcall, "align_global", "alignment.align_global", _cells),
    (seqio, "parse_fasta", "seqio.parse_fasta", None),
    (mutdb, "query", "mutdb.query", _query_note),
    (refstore, "load_store", "refstore.load_store", None),
    (mutdb, "load_db", "mutdb.load_db", None),
)


class Tracer:
    """Spans as lists [name, start, end, parent index, request id, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = 0

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._request, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, request: int):
        """Patch every boundary; spans recorded inside belong to ``request``.

        Set-ups use negative request ids, timed requests their index.
        """
        self._request = request
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in POINTS]
        try:
            for (module, attr, name, note), (_, _, fn) in zip(POINTS, originals):
                setattr(module, attr, self._wrap(name, fn, note))
            yield
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_metrics(self, requests: int, first_pass: int) -> dict[str, float]:
        """Per-layer figures over traced requests 0..requests-1.

        Times are mean milliseconds per request; counts and ratios come
        from requests 0..first_pass-1, one pass over the distinct inputs,
        so they repeat exactly for a seed. Set-up spans give the median
        load time per set-up.
        """
        spans = self.spans
        own = self.self_times()
        ms: dict[str, float] = {}
        self_ms: dict[str, float] = {}
        counts: dict[str, float] = {}
        totals = {"cells_all": 0, "align_s": 0.0, "rank_s": 0.0, "call_s": 0.0}
        setup: dict[tuple[str, int], float] = {}
        for k, s in enumerate(spans):
            name, dur, req = s[NAME], s[END] - s[START], s[REQUEST]
            if req < 0:
                setup[name, req] = setup.get((name, req), 0.0) + dur
                continue
            ms[name] = ms.get(name, 0.0) + dur
            self_ms[name] = self_ms.get(name, 0.0) + own[k]
            if name == "alignment.align_global":
                parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
                totals["align_s"] += dur
                totals["cells_all"] += (s[NOTE] or {}).get("cells", 0)
                if parent == "refstore.best_homolog":
                    totals["rank_s"] += dur
                elif parent == "mutcall.call_mutations":
                    totals["call_s"] += dur
            if req >= first_pass:
                continue
            counts[name + ".calls"] = counts.get(name + ".calls", 0) + 1
            for key, value in (s[NOTE] or {}).items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value

        def per_request_ms(value: float) -> float:
            return 1000.0 * value / requests

        def count(key: str) -> float:
            return counts.get(key, 0) / first_pass

        def ratio(num: str, den: str) -> float:
            return counts[num] / counts[den] if counts.get(den) else 0.0

        def load_ms(name: str) -> float:
            values = [v for (n, _), v in setup.items() if n == name]
            return 1000.0 * statistics.median(values) if values else 0.0

        return {
            "alignment.rank.ms": per_request_ms(totals["rank_s"]),
            "alignment.call.ms": per_request_ms(totals["call_s"]),
            "alignment.align_global.calls_per_request": count("alignment.align_global.calls"),
            "alignment.cells_per_request": count("alignment.align_global.cells"),
            "alignment.ns_per_cell": (
                1e9 * totals["align_s"] / totals["cells_all"] if totals["cells_all"] else 0.0
            ),
            "refstore.best_homolog.ms": per_request_ms(ms.get("refstore.best_homolog", 0.0)),
            "refstore.best_homolog.self_ms": per_request_ms(
                self_ms.get("refstore.best_homolog", 0.0)
            ),
            "refstore.candidates_per_request": count("refstore.best_homolog.candidates"),
            "refstore.load_store.ms": load_ms("refstore.load_store"),
            "composition.composition.ms": per_request_ms(
                ms.get("composition.composition", 0.0)
            ),
            "composition.gate_attempts_per_request": count("composition.reference_gate.calls"),
            "composition.gate_accept_ratio": ratio(
                "composition.reference_gate.accept", "composition.reference_gate.calls"
            ),
            "mutcall.call_mutations.self_ms": per_request_ms(
                self_ms.get("mutcall.call_mutations", 0.0)
            ),
            "mutcall.mutations_per_request": count("mutcall.call_mutations.mutations"),
            "mutdb.classify.ms": per_request_ms(ms.get("mutdb.classify", 0.0)),
            "mutdb.classify.calls_per_request": count("mutdb.classify.calls"),
            "mutdb.classify.hit_ratio": ratio("mutdb.classify.hit", "mutdb.classify.calls"),
            "mutdb.query.ms": per_request_ms(ms.get("mutdb.query", 0.0)),
            "mutdb.query.rows_per_request": count("mutdb.query.rows"),
            "mutdb.query.indexed_share": ratio("mutdb.query.indexed", "mutdb.query.calls"),
            "mutdb.load_db.ms": load_ms("mutdb.load_db"),
            "seqio.parse_fasta.ms": per_request_ms(ms.get("seqio.parse_fasta", 0.0)),
            "pipeline.predict.self_ms": per_request_ms(self_ms.get("pipeline.predict", 0.0)),
            "pipeline.report_to_dict.ms": per_request_ms(
                ms.get("pipeline.report_to_dict", 0.0)
            ),
        }


class AlignmentPeak:
    """Under tracemalloc, the largest allocation growth inside one alignment.

    Resetting the peak at each alignment would lose the run's overall
    peak, so the overall peak is carried across the resets.
    """

    def __init__(self) -> None:
        self.align_bytes = 0
        self.overall_bytes = 0

    def _wrap(self, fn):
        def probed(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            self.overall_bytes = max(self.overall_bytes, peak)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                self.align_bytes = max(self.align_bytes, peak - current)
                self.overall_bytes = max(self.overall_bytes, peak)

        return probed

    @contextmanager
    def installed(self):
        originals = [(m, m.align_global) for m in (refstore, mutcall)]
        try:
            for module, fn in originals:
                module.align_global = self._wrap(fn)
            yield
        finally:
            for module, fn in originals:
                module.align_global = fn

    def finish(self) -> None:
        self.overall_bytes = max(self.overall_bytes, tracemalloc.get_traced_memory()[1])
