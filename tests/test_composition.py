from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tp53scan.composition import (
    CompositionReport,
    GateDecision,
    composition,
    reference_gate,
)
from tp53scan.codec import from_dict, to_dict
from tp53scan.errors import AllAmbiguousError
from tp53scan.seqio import Alphabet, Sequence

from support import dna


def test_all_gc():
    report = composition(dna("GCGC"))
    assert report.gc_percent == 100.0
    assert report.at_percent == 0.0


def test_all_at():
    report = composition(dna("ATAT"))
    assert report.gc_percent == 0.0
    assert report.at_percent == 100.0


def test_even_split():
    assert composition(dna("ACGT")).gc_percent == 50.0


def test_counts_cover_full_length():
    report = composition(dna("ACGTNNA"))
    assert sum(report.counts.values()) == report.length == 7
    assert report.counts == {"A": 2, "C": 1, "G": 1, "T": 1, "N": 2}


def test_n_excluded_from_denominator():
    # 1 GC of 3 determined bases; the N does not dilute the fraction
    report = composition(dna("ACTN"))
    assert report.gc_percent == pytest.approx(100.0 / 3.0)
    assert report.gc_percent + report.at_percent == pytest.approx(100.0)


def test_all_ambiguous_rejected():
    with pytest.raises(AllAmbiguousError):
        composition(dna("NNNN"))


def test_all_ambiguous_names_the_record():
    with pytest.raises(AllAmbiguousError, match="^record 'allN': counts hold no determined bases$"):
        composition(dna("NNN", "allN"))


def test_report_is_derived_from_counts():
    report = CompositionReport({"A": 1, "C": 2, "G": 3, "T": 4, "N": 5})
    assert (report.gc_percent, report.at_percent, report.length) == (50.0, 50.0, 15)
    base = {"A": 1, "C": 1, "G": 1, "T": 1, "N": 0}
    for counts in (
        {"A": 1, "C": 1, "G": 1, "T": 1},  # N missing
        {**base, "X": 1},
        {**base, "A": -1},
        {**base, "A": 0, "C": 0, "G": 0, "T": 0, "N": 3},  # nothing determined
    ):
        with pytest.raises(ValueError):
            CompositionReport(counts)


def test_counts_are_read_only():
    given_counts = {"A": 1, "C": 1, "G": 1, "T": 1, "N": 0}
    report = CompositionReport(given_counts)
    with pytest.raises(TypeError):
        report.counts["G"] = 7  # type: ignore[index]
    # the report keeps its own copy: the caller's dict cannot reach it
    given_counts["G"] = 7
    assert report.counts["G"] == 1
    assert (report.gc_percent, report.length) == (50.0, 4)


def test_read_only_counts_encode_as_before():
    report = composition(dna("ACGTNNA"))
    text = json.dumps(to_dict(report))
    assert text == (
        '{"counts": {"A": 2, "C": 1, "G": 1, "T": 1, "N": 2}, '
        '"gc_percent": 40.0, "at_percent": 60.0, "length": 7}'
    )
    assert json.dumps(to_dict(from_dict(CompositionReport, json.loads(text)))) == text


def test_protein_input_rejected():
    seq = Sequence(id="p", description="", residues="MKV", alphabet=Alphabet.PROTEIN)
    with pytest.raises(ValueError):
        composition(seq)


def test_homolog_fixture_matches_counting_oracle(homolog):
    # independent single-pass tally, no library calls
    gc = sum(1 for ch in homolog.residues if ch in "GC")
    determined = sum(1 for ch in homolog.residues if ch in "ACGT")
    assert determined == len(homolog)
    report = composition(homolog)
    assert report.gc_percent == pytest.approx(100.0 * gc / determined)
    assert abs(report.gc_percent - 54.85) <= 0.01


def test_gate_boundary_inclusive():
    report = composition(dna("GC" * 19 + "AT" * 31))  # 38 GC of 100
    assert report.gc_percent == 38.0
    assert reference_gate(report, 38.0) is GateDecision.ACCEPT


def test_gate_just_below_boundary():
    report = composition(dna("G" * 37999 + "A" * 62001))
    assert report.gc_percent == pytest.approx(37.999)
    assert reference_gate(report, 38.0) is GateDecision.REJECT


def test_gate_accepts_typical_coding_gc():
    report = composition(dna("G" * 5485 + "T" * 4515))
    assert reference_gate(report, 38.0) is GateDecision.ACCEPT


def test_gate_threshold_validated():
    report = composition(dna("ACGT"))
    with pytest.raises(ValueError):
        reference_gate(report, 100.5)
    with pytest.raises(ValueError):
        reference_gate(report, -0.1)


def test_counts_are_tallied_once_per_sequence():
    seq = dna("ACGTN" * 10)
    assert composition(seq) == composition(seq)
    assert seq.residue_counts is seq.residue_counts


_DNA_TEXT = st.text(alphabet="ACGT", min_size=1, max_size=300)


@given(residues=_DNA_TEXT)
def test_gc_plus_at_is_total_without_n(residues: str):
    report = composition(dna(residues))
    assert report.gc_percent + report.at_percent == pytest.approx(100.0, abs=1e-9)


@given(residues=_DNA_TEXT, seed=st.integers(0, 2**16))
def test_permutation_invariance(residues: str, seed: int):
    import random

    shuffled = list(residues)
    random.Random(seed).shuffle(shuffled)
    a = composition(dna(residues))
    b = composition(dna("".join(shuffled)))
    assert a.counts == b.counts
    assert a.gc_percent == b.gc_percent


@given(residues=_DNA_TEXT, low=st.floats(0, 100), high=st.floats(0, 100))
def test_gate_monotone_in_threshold(residues: str, low: float, high: float):
    if low > high:
        low, high = high, low
    report = composition(dna(residues))
    if reference_gate(report, low) is GateDecision.REJECT:
        assert reference_gate(report, high) is GateDecision.REJECT
