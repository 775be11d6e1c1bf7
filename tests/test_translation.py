from __future__ import annotations

import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tp53scan.errors import OutOfRangeError, TooShortError
from tp53scan.seqio import Alphabet, Sequence
from tp53scan.translation import (
    STANDARD_TABLE,
    TrailingResiduesWarning,
    aa_for,
    codon_at,
    translate,
)

from support import dna

# Independent reference listing: codons enumerated with first, second,
# then third base cycling through T, C, A, G (the classic table layout).
AUDIT_BASES = "TCAG"
AUDIT_AAS = "FFLLSSSSYY**CC*WLLLLPPPPHHQQRRRRIIIMTTTTNNKKSSRRVVVVAAAADDEEGGGG"


def test_table_matches_reference_listing():
    idx = 0
    for first in AUDIT_BASES:
        for second in AUDIT_BASES:
            for third in AUDIT_BASES:
                codon = first + second + third
                assert aa_for(codon) == AUDIT_AAS[idx], codon
                idx += 1
    assert idx == 64


def test_exactly_three_stops():
    stops = {c for c, aa in STANDARD_TABLE.items() if aa == "*"}
    assert stops == {"TAA", "TAG", "TGA"}


def test_worked_example_anchors():
    assert aa_for("CGG") == "R"
    assert aa_for("TGG") == "W"
    assert aa_for("ATG") == "M"


def test_arginine_degeneracy():
    assert {aa_for(c) for c in ("CGG", "CGA", "CGC", "CGT")} == {"R"}


def test_n_codon_is_ambiguous():
    assert aa_for("ANT") == "X"
    assert aa_for("NNN") == "X"


def test_standard_table_is_read_only():
    with pytest.raises(TypeError):
        STANDARD_TABLE["TGG"] = "*"
    assert len(STANDARD_TABLE) == 64 and STANDARD_TABLE["TGG"] == "W"


def test_translate_start_codon():
    assert translate(dna("ATG")).residues == "M"


def test_translate_emits_stops():
    assert translate(dna("ATGTAA")).residues == "M*"
    assert translate(dna("ATGTAAATG")).residues == "M*M"


def test_translate_ambiguous_codon():
    assert translate(dna("ANT")).residues == "X"


def test_translate_keeps_identity():
    seq = dna("ATGCGG", seq_id="sample", description="notes here")
    protein = translate(seq)
    assert protein.id == "sample"
    assert protein.description == "notes here"
    assert protein.alphabet is Alphabet.PROTEIN


def test_translate_frame_offsets():
    assert translate(dna("AATGTAA"), frame=1).residues == "M*"
    assert translate(dna("CCATGTAA"), frame=2).residues == "M*"


def test_trailing_residues_warn_and_drop():
    with pytest.warns(TrailingResiduesWarning):
        protein = translate(dna("ATGCG"))
    assert protein.residues == "M"


def test_too_short_rejected():
    with pytest.raises(TooShortError):
        translate(dna("AT"))
    with pytest.raises(TooShortError):
        translate(dna("ATGC"), frame=2)


def test_bad_frame_rejected():
    with pytest.raises(ValueError):
        translate(dna("ATGATG"), frame=3)


def test_protein_input_rejected():
    protein = Sequence(id="p", description="", residues="MK", alphabet=Alphabet.PROTEIN)
    with pytest.raises(ValueError):
        translate(protein)


def test_codon_at_examples():
    assert codon_at(dna("ATGCGG"), 2) == "CGG"
    assert codon_at(dna("ATGCGG"), 1) == "ATG"


def test_codon_at_range_errors():
    with pytest.raises(OutOfRangeError):
        codon_at(dna("ATGCGG"), 3)
    with pytest.raises(OutOfRangeError):
        codon_at(dna("ATGCGG"), 0)


def test_fixture_codon_248_by_direct_slicing(reference_cds):
    assert reference_cds.residues[741:744] == "CGG"
    assert codon_at(reference_cds, 248) == "CGG"


@given(
    residues=st.text(alphabet="ACGTN", min_size=3, max_size=200),
    frame=st.integers(0, 2),
)
def test_totality_and_length_law(residues: str, frame: int):
    if len(residues) - frame < 3:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TrailingResiduesWarning)
        protein = translate(dna(residues), frame=frame)
    assert len(protein) == (len(residues) - frame) // 3


@given(n=st.integers(1, 60), residues=st.text(alphabet="ACGT", min_size=180, max_size=180))
def test_codon_at_matches_slicing(n: int, residues: str):
    assert codon_at(dna(residues), n) == residues[3 * (n - 1) : 3 * n]
