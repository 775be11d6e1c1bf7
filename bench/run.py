#!/usr/bin/env python3
"""tp53scan benchmark: one seeded workload, one client, closed loop.

    python3 bench/run.py --workload cds_snv --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The workload's generator writes its inputs from the seed into
a scratch directory under the checkout. Then one client sends
requests back to back on one thread for ``--seconds``. Set-up
(``load_store`` plus ``load_db``) is timed several times from fresh:
once before the first request and then at even steps through the loop,
so its median sees the same host load as the requests. A request is
input text in, JSON text out: ``parse_fasta`` -> ``predict`` ->
``report_to_dict`` -> ``json.dumps``, the ``predict --output json`` path
without process start, or ``FilterQuery.from_strings`` -> ``query`` ->
JSON, the ``query --output json`` path. A separate tracemalloc pass
measures peak memory, and the oracles in ``oracles.py`` check every
output after the clock stops.

With ``--trace 0`` the result carries the end-to-end metrics. With
``--trace 1`` each input runs once untraced and once traced, in turn,
the result carries the per-layer metrics, and the spans are written to
``.bench_out/``. The other stdout lines are a readable summary; the last
line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

WARMUP_REQUESTS = 2


@dataclass(frozen=True)
class Plan:
    """Fixed per-workload repeat counts, so runs stay comparable."""

    setups: int  # fresh set-ups, spread over the run, whose median is setup_s
    memory_requests: int  # longest inputs sent in the tracemalloc pass


PLANS = {
    "cds_snv": Plan(setups=200, memory_requests=1),
    "divergent_indel": Plan(setups=20, memory_requests=1),
    "db_query": Plan(setups=15, memory_requests=8),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def query_payload(result) -> dict:
    """The document ``tp53scan query --output json`` prints.

    Built here because the library has no public serializer for query
    results; the CLI uses a private helper.
    """
    return {
        "matches": [
            {
                "record_id": r.record_id,
                "codon": r.codon_number,
                "wt_codon": r.wt_codon,
                "mut_codon": r.mut_codon,
                "wt_aa": r.wt_aa,
                "mut_aa": r.mut_aa,
                "mutation_event": r.mutation_event,
                "tumor_type": r.tumor_type,
                "extra": dict(r.extra),
            }
            for r in result.matches
        ],
        "distinct_tumor_types": list(result.distinct_tumor_types),
    }


@dataclass(frozen=True)
class Attempt:
    item: int  # index into the input pool
    seconds: float
    traced: bool
    json_bytes: int  # 0 when the request raised


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "tp53scan" / "__init__.py").is_file():
        print(f"error: no tp53scan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy

    import oracles
    import workloads
    from tp53scan import mutdb, pipeline, refstore, seqio
    from tp53scan.mutdb import WtCodonMismatchWarning
    from tracer import AlignmentPeak, Tracer

    # the warning text would otherwise be written to stderr inside requests
    warnings.simplefilter("ignore", WtCodonMismatchWarning)
    plan = PLANS[args.workload]
    phases: dict[str, float] = {}
    clock = perf_counter()

    def phase(name: str) -> None:
        nonlocal clock
        now = perf_counter()
        phases[name] = now - clock
        clock = now

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        inputs = workloads.GENERATORS[args.workload](
            args.seed, SRC / "tp53scan" / "data", work
        )
        text = inputs.requests.read_text(encoding="utf-8")
        if inputs.store_dir is None:
            pool = [line.split("\t") for line in text.split("\n") if line]
        else:
            pool = workloads.split_fasta(text)
        phase("generate")

        def setup():
            store = refstore.load_store(inputs.store_dir) if inputs.store_dir else None
            return store, mutdb.load_db(inputs.db_path)

        def predict_request(state, fasta: str) -> str:
            subject = seqio.parse_fasta(fasta, seqio.Alphabet.DNA)[0]
            report = pipeline.predict(state[0], state[1], subject, workloads.GENE)
            return json.dumps(pipeline.report_to_dict(report), indent=2)

        def query_request(state, where: list[str]) -> str:
            result = mutdb.query(state[1], mutdb.FilterQuery.from_strings(where))
            return json.dumps(query_payload(result), indent=2)

        request = query_request if inputs.store_dir is None else predict_request
        tracer = Tracer() if args.trace else None

        setup_times: list[float] = []

        def timed_setup():
            started = perf_counter()
            if tracer is None:
                fresh = setup()
            else:
                with tracer.installed(-1 - len(setup_times)):
                    fresh = setup()
            setup_times.append(perf_counter() - started)
            return fresh

        def extra_setup() -> float:
            """A set-up whose state is dropped; returns the seconds it paused the loop."""
            started = perf_counter()
            timed_setup()
            gc.collect()  # its garbage is not left for a timed request
            return perf_counter() - started

        state = timed_setup()
        for k in range(WARMUP_REQUESTS):
            request(state, pool[k % len(pool)])
        phase("setup")

        attempts: list[Attempt] = []
        # each distinct (input, output) pair is kept once, for the oracle
        outputs: dict[tuple[int, str], int] = {}

        def timed(item: int) -> tuple[str, float]:
            started = perf_counter()
            output = request(state, pool[item])
            return output, perf_counter() - started

        def attempt(item: int, request_id: int | None) -> None:
            try:
                if request_id is None:
                    output, seconds = timed(item)
                else:
                    with tracer.installed(request_id):
                        output, seconds = timed(item)
            except Exception as exc:  # counted as failed; the run goes on
                print(f"input {item}: {type(exc).__name__}: {exc}", file=sys.stderr)
                attempts.append(Attempt(item, 0.0, request_id is not None, 0))
                return
            outputs[item, output] = outputs.get((item, output), 0) + 1
            # json.dumps escapes to ASCII, so characters are bytes
            attempts.append(Attempt(item, seconds, request_id is not None, len(output)))

        setup_step = args.seconds / plan.setups
        paused = 0.0  # loop time spent in set-ups, not counted as request time
        loop_start = perf_counter()
        sent = 0
        while True:
            attempt(sent % len(pool), None)
            if tracer is not None:
                attempt(sent % len(pool), sent)
            sent += 1
            elapsed = perf_counter() - loop_start - paused
            if len(setup_times) < plan.setups and elapsed >= setup_step * len(setup_times):
                paused += extra_setup()
            # a traced run covers every distinct input at least once
            if elapsed >= args.seconds and (tracer is None or sent >= len(pool)):
                break
        while len(setup_times) < plan.setups:
            paused += extra_setup()
        loop_wall = perf_counter() - loop_start - paused
        phase("loop")

        state = None
        gc.collect()
        probe = AlignmentPeak()
        tracemalloc.start()
        try:
            with probe.installed():
                mem_state = setup()
                # the longest inputs need the largest alignment matrices
                longest = sorted(pool, key=lambda item: len(str(item)), reverse=True)
                for item in longest[: plan.memory_requests]:
                    request(mem_state, item)
                probe.finish()
        finally:
            tracemalloc.stop()
        del mem_state
        phase("memory")

        problems = check_outputs(oracles, args.workload, inputs, pool, outputs)
        failed = sum(not a.json_bytes for a in attempts) + sum(n for _, _, n in problems)
        for item, problem, _ in problems[:20]:
            print(f"oracle: input {item}: {problem}", file=sys.stderr)
        phase("oracle")

        untraced = [a.seconds for a in attempts if a.json_bytes and not a.traced]
        if len(untraced) < 2:
            print(f"error: {len(untraced)} requests succeeded, too few to measure",
                  file=sys.stderr)
            return 1
        if tracer is None:
            metrics = {
                "latency_p95_ms": (
                    1000 * statistics.quantiles(untraced, n=20, method="inclusive")[18],
                    "ms",
                ),
                "throughput_rps": (len(untraced) / loop_wall, "1/s"),
                "peak_mem_mb": (probe.overall_bytes / 2**20, "MB"),
                "setup_s": (statistics.median(setup_times), "s"),
            }
        else:
            traced = [a for a in attempts if a.json_bytes and a.traced]
            first_pass = [a for a in attempts if a.traced][: len(pool)]
            metrics = {
                name: (value, layer_unit(name))
                for name, value in tracer.layer_metrics(sent, len(pool)).items()
            }
            metrics["alignment.peak_mb"] = (probe.align_bytes / 2**20, "MB")
            metrics["pipeline.json_bytes"] = (
                statistics.fmean(a.json_bytes for a in first_pass), "B"
            )
            metrics["trace.overhead_ratio"] = (
                statistics.median(a.seconds for a in traced) / statistics.median(untraced),
                "ratio",
            )
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

        print(
            f"# {args.workload} seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
            f"nproc {os.cpu_count()}, python {platform.python_version()}, "
            f"numpy {numpy.__version__}, {platform.machine()}"
        )
        for name, (value, unit) in metrics.items():
            print(f"{name:42s} {value:14.6g} {unit}")
        # Printed, not gated: under a host that switches between a fast and
        # a slow speed, the median request takes one speed or the other.
        print(f"{'latency_p50_ms':42s} {1000 * statistics.median(untraced):14.6g} ms")
        print(f"{'failed_ratio':42s} {failed / len(attempts):14.6g} ratio")
        print(
            f"{'samples':42s} {len(untraced):14d} untraced requests timed; "
            f"{failed} of {len(attempts)} attempts failed"
        )
        print("# phases (s): " + ", ".join(f"{k} {v:.2f}" for k, v in phases.items()))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(attempts),
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith(("ratio", "share")):
        return "ratio"
    if name.endswith("ns_per_cell"):
        return "ns"
    return "count"


def check_outputs(oracles, workload: str, inputs, pool: list, outputs: dict):
    """(input index, first problem, attempts) per output the oracle rejects."""
    db = oracles.read_db(inputs.db_path)
    if workload == "db_query":
        def check(item: int, output: str) -> list[str]:
            return oracles.check_query(output, oracles.naive_query(pool[item], db))
    else:
        store = oracles.read_store(inputs.store_dir)
        subjects = [oracles.read_fasta_text(t)[0][1] for t in pool]
        judge = oracles.check_cds_snv if workload == "cds_snv" else oracles.check_divergent

        def check(item: int, output: str) -> list[str]:
            return judge(output, subjects[item], store, db)

    problems = []
    for (item, output), count in outputs.items():
        found = check(item, output)
        if found:
            problems.append((item, found[0], count))
    return problems


if __name__ == "__main__":
    sys.exit(main())
