"""Self-tests for the benchmark: seeded generators and oracles that bite.

Run from the checkout root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "tp53scan" / "data"
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from run import query_payload  # noqa: E402
from tp53scan import load_db, load_store, parse_fasta, predict, report_to_dict  # noqa: E402
from tp53scan.mutdb import FilterQuery, query  # noqa: E402
from tp53scan.seqio import Alphabet  # noqa: E402


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    generate = workloads.GENERATORS[name]
    first, again, other = (tmp_path / d for d in ("a", "b", "c"))
    for directory, seed in ((first, 7), (again, 7), (other, 8)):
        directory.mkdir()
        generate(seed, DATA, directory)
    assert _snapshot(first) == _snapshot(again)
    assert _snapshot(first).keys() == _snapshot(other).keys()
    assert _snapshot(first) != _snapshot(other)


def test_divergent_inputs_have_the_promised_shape(tmp_path):
    inputs = workloads.divergent_indel(3, DATA, tmp_path)
    store = oracles.read_store(inputs.store_dir)
    assert len(store) == 4
    assert round(oracles.gc_percent(store["low-gc-synonymous"].residues)) == 31
    ref = store["ncbi-export"].residues
    divergent = store["divergent-variant"].residues
    assert 0.10 <= sum(a != b for a, b in zip(ref, divergent)) / len(ref) <= 0.15
    subjects = oracles.read_fasta_text(inputs.requests.read_text())
    assert len(subjects) == workloads.DIVERGENT_SUBJECTS
    for _, residues in subjects:
        assert len(residues) % 3 == 0 and len(residues) != len(ref)
        assert "N" in residues
    assert len(oracles.read_db(inputs.db_path)) == workloads.DB_ROWS


def _predict_payload(inputs, index: int) -> tuple[dict, str]:
    text = workloads.split_fasta(inputs.requests.read_text())[index]
    subject = parse_fasta(text, Alphabet.DNA)[0]
    report = predict(
        load_store(inputs.store_dir), load_db(inputs.db_path), subject, workloads.GENE
    )
    return report_to_dict(report), subject.residues


def _flip_kind(payload: dict) -> None:
    v = payload["verdict"]
    v["kind"] = "UnknownCancer" if v["kind"] == "PreCancerMatch" else "PreCancerMatch"


def _drop_call(payload: dict) -> None:
    payload["verdict"]["mutations"]["calls"].pop()


def _bump_gc(payload: dict) -> None:
    payload["verdict"]["gate_trace"][0]["gc_percent"] += 0.5


def _drop_match(payload: dict) -> None:
    payload["verdict"]["annotations"]["matches"].pop()


def _assert_oracle_bites(check, payload: dict, corruptions) -> None:
    assert check(json.dumps(payload)) == []
    for corrupt in corruptions:
        broken = copy.deepcopy(payload)
        corrupt(broken)
        assert check(json.dumps(broken)), corrupt.__name__


def test_cds_snv_oracle_flags_corrupted_reports(tmp_path):
    inputs = workloads.cds_snv(5, DATA, tmp_path)
    texts = workloads.split_fasta(inputs.requests.read_text())
    # the first subject whose report carries at least one call
    store = oracles.read_store(inputs.store_dir)
    db = oracles.read_db(inputs.db_path)
    for index in range(len(texts)):
        payload, subject = _predict_payload(inputs, index)
        if payload["verdict"]["mutations"]["calls"]:
            break
    _assert_oracle_bites(
        lambda out: oracles.check_cds_snv(out, subject, store, db),
        payload,
        [_flip_kind, _drop_call, _bump_gc],
    )


def test_divergent_oracle_flags_corrupted_reports(tmp_path):
    inputs = workloads.divergent_indel(5, DATA, tmp_path)
    store = oracles.read_store(inputs.store_dir)
    db = oracles.read_db(inputs.db_path)
    payload, subject = _predict_payload(inputs, 0)
    assert payload["verdict"]["kind"] == "PreCancerMatch"

    def call_to_silent(p: dict) -> None:
        call = next(c for c in p["verdict"]["mutations"]["calls"] if c["kind"] != "Silent")
        call["kind"] = "Silent"

    def drop_indel(p: dict) -> None:
        p["verdict"]["mutations"]["has_indel"] = False

    _assert_oracle_bites(
        lambda out: oracles.check_divergent(out, subject, store, db),
        payload,
        [_flip_kind, _drop_match, _bump_gc, call_to_silent, drop_indel],
    )


def test_query_oracle_flags_a_missing_row(tmp_path):
    inputs = workloads.db_query(5, DATA, tmp_path)
    db = oracles.read_db(inputs.db_path)
    program_db = load_db(inputs.db_path)
    queries = [line.split("\t") for line in inputs.requests.read_text().split("\n") if line]
    assert sum(any(c.startswith("codon=") for c in q) for q in queries) == (
        workloads.CODON_KEYED_QUERIES
    )
    where = next(q for q in queries if len(oracles.naive_query(q, db)) > 1)
    payload = query_payload(query(program_db, FilterQuery.from_strings(where)))
    expected = oracles.naive_query(where, db)

    def drop_row(p: dict) -> None:
        p["matches"].pop()

    def add_type(p: dict) -> None:
        p["distinct_tumor_types"].append("Unlisted carcinoma")

    _assert_oracle_bites(
        lambda out: oracles.check_query(out, expected), payload, [drop_row, add_type]
    )
