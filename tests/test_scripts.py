"""The scripts under scripts/ still run against the library's public API."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_build_fixtures_check_passes():
    done = run_script("build_fixtures.py", "--check")
    assert done.returncode == 0, done.stderr
    assert "up to date" in done.stdout


def test_report_digest_matches_the_committed_one():
    done = run_script("report_digest.py", "--check")
    assert done.returncode == 0, done.stderr
    assert "match the committed digest" in done.stdout


def test_report_digest_check_names_the_parts_that_differ(monkeypatch, capsys):
    # one (workload, seed) part's reports changed, and with them the
    # overall digest: the check fails and names those two parts alone
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends to it
    spec = importlib.util.spec_from_file_location(
        "report_digest", ROOT / "scripts" / "report_digest.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    lines = script.DIGEST_PATH.read_text(encoding="ascii").splitlines()
    found = {part: hexdigest for hexdigest, part in map(str.split, lines)}
    assert list(found)[0] == "all"
    assert len(found) == 1 + len(script.WORKLOADS) * len(script.SEEDS)
    changed = list(found)[-1]
    found.update({"all": "0" * 64, changed: "1" * 64})
    monkeypatch.setattr(script, "digests", lambda: found)
    assert script.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert f"in: all, {changed}\n" in err


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_record_matches_the_benchmark(path: Path):
    # a record may name only workloads and end-to-end metrics the
    # benchmark declares, and judges each by the benchmark's own bound
    benchmark = _benchmark()
    workloads = {w["name"] for w in benchmark["workloads"]}
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["results"]
    for row in record["results"]:
        assert row["workload"] in workloads
        declared = metrics[row["metric"]]
        assert (row["unit"], row["better"], row["bound"]) == (
            declared["unit"], declared["better"], declared["bound"]
        )
        assert 0 <= row["better_in"] <= row["pairs"]
        for side in ("parent", "change"):
            stats = row[side]
            assert len(stats["runs"]) == row["pairs"]
            assert min(stats["runs"]) <= stats["q1"] <= stats["median"] <= stats["q3"]
            assert stats["q3"] <= max(stats["runs"])


def _stub_tree(root: Path, throughput: float, order: Path) -> Path:
    """A tree whose bench/run.py appends the tree's name to ``order`` and
    prints fixed metrics, but for throughput_rps: ``throughput`` plus the
    number of runs the tree made before."""
    bench = root / "bench"
    bench.mkdir(parents=True)
    (bench / "run.py").write_text(textwrap.dedent(f"""
        import json, pathlib
        order = pathlib.Path({str(order)!r})
        before = order.read_text().split() if order.exists() else []
        order.write_text(" ".join(before + [{root.name!r}]))
        metrics = {{"latency_p95_ms": 2.0, "peak_mem_mb": 0.1, "setup_s": 0.5,
                    "throughput_rps": {throughput} + before.count({root.name!r})}}
        print(json.dumps({{"correct": True, "metrics": {{
            k: {{"value": v, "unit": "-"}} for k, v in metrics.items()}}}}))
    """), encoding="utf-8")
    return root


def test_bench_pairs_alternates_and_counts_the_pairs_won(tmp_path: Path):
    order = tmp_path / "order"
    parent = _stub_tree(tmp_path / "parent", 100.0, order)
    change = _stub_tree(tmp_path / "change", 101.5, order)
    out = tmp_path / "BENCH_test.json"
    done = run_script(
        "bench_pairs.py", str(parent), str(change), str(out),
        "--seeds", "1", "--pairs", "4", "--seconds", "0",
    )
    assert done.returncode == 0, done.stderr
    workloads = [w["name"] for w in _benchmark()["workloads"]]
    one_seed = ["parent", "change", "change", "parent"] * 2
    assert order.read_text().split() == one_seed * len(workloads)
    record = json.loads(out.read_text(encoding="utf-8"))
    rows = {(r["workload"], r["metric"]): r for r in record["results"]}
    assert len(rows) == len(record["results"]) == 4 * len(workloads)
    row = rows[workloads[0], "throughput_rps"]
    # the change reads 1.5 more in every pair; the other metrics tie in
    # every pair, and a tie counts for neither side
    assert row["parent"]["runs"] == [100.0, 101.0, 102.0, 103.0]
    assert row["change"]["runs"] == [101.5, 102.5, 103.5, 104.5]
    assert (row["better_in"], row["pairs"], row["bound"]) == (4, 4, 0.25)
    assert row["parent"]["median"] == 101.5
    assert rows[workloads[0], "latency_p95_ms"]["better_in"] == 0


@pytest.mark.parametrize(
    "output",
    ["", "done\n", '{"metrics": {}}\n', "[1, 2]\n", '{"correct": true}\n'],
    ids=["nothing", "not JSON", "no correct", "not an object", "no metrics"],
)
def test_bench_pairs_names_the_run_whose_output_is_not_a_result(tmp_path: Path, output: str):
    # a run that exits 0 without a JSON result on its last line stops the
    # script with the tree, workload and seed, not a traceback
    order = tmp_path / "order"
    parent = _stub_tree(tmp_path / "parent", 100.0, order)
    change = tmp_path / "change"
    (change / "bench").mkdir(parents=True)
    (change / "bench" / "run.py").write_text(
        f"import sys\nsys.stdout.write({output!r})\n", encoding="utf-8"
    )
    done = run_script(
        "bench_pairs.py", str(parent), str(change), str(tmp_path / "BENCH_test.json"),
        "--seeds", "3", "--pairs", "2", "--seconds", "0",
    )
    workload = _benchmark()["workloads"][0]["name"]
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert f"{change}: {workload} seed 3: the last line printed is not a JSON result" in done.stderr
