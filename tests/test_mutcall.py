from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tp53scan.alignment import DNA_SCHEME, AlignmentResult, align_global
from tp53scan.mutcall import (
    CodonMutation,
    MutationCallSet,
    MutationKind,
    call_mutations,
    classify_kind,
    protein_differs,
)
from tp53scan.translation import translate

from support import dna, gapped_rows, oracle_call_mutations


def test_worked_example_r248w(reference_cds, subject_r248w):
    calls = call_mutations(align_global(reference_cds, subject_r248w, DNA_SCHEME))
    assert not calls.has_indel
    assert not calls.dna_identical
    assert len(calls.mutations) == 1
    m = calls.mutations[0]
    assert m.codon_number == 248
    assert (m.ref_codon, m.alt_codon) == ("CGG", "TGG")
    assert (m.ref_aa, m.alt_aa) == ("R", "W")
    assert m.kind is MutationKind.MISSENSE


def test_identity_fast_path(reference_cds):
    calls = call_mutations(align_global(reference_cds, reference_cds, DNA_SCHEME))
    assert calls.dna_identical
    assert not calls.has_indel
    assert calls.mutations == ()


def test_silent_substitution():
    ref = dna("ATGAAATTTGGGCGG", "ref")
    subj = dna("ATGAAATTTGGGCGA", "subj")
    calls = call_mutations(align_global(ref, subj, DNA_SCHEME))
    assert len(calls.mutations) == 1
    m = calls.mutations[0]
    assert m.codon_number == 5
    assert (m.ref_codon, m.alt_codon) == ("CGG", "CGA")
    assert m.ref_aa == m.alt_aa == "R"
    assert m.kind is MutationKind.SILENT


def test_nonsense_substitution():
    ref = dna("ATGAAACAG", "ref")
    subj = dna("ATGAAATAG", "subj")
    m = call_mutations(align_global(ref, subj, DNA_SCHEME)).mutations[0]
    assert m.codon_number == 3
    assert (m.ref_aa, m.alt_aa) == ("Q", "*")
    assert m.kind is MutationKind.NONSENSE


def test_two_base_changes_one_codon_one_call():
    ref = dna("ATGCGGAAA", "ref")
    subj = dna("ATGTAGAAA", "subj")  # codon 2 CGG>TAG, two bases changed
    calls = call_mutations(align_global(ref, subj, DNA_SCHEME))
    assert len(calls.mutations) == 1
    m = calls.mutations[0]
    assert (m.codon_number, m.ref_codon, m.alt_codon) == (2, "CGG", "TAG")
    assert m.kind is MutationKind.NONSENSE


def test_whole_codon_deletion_flagged_not_called():
    ref = dna("ATGCATGCATCACGTACT", "ref")
    subj = dna("ATGCATTCACGTACT", "subj")  # codon 3 GCA removed
    calls = call_mutations(align_global(ref, subj, DNA_SCHEME))
    assert calls.has_indel
    assert not calls.dna_identical
    assert calls.mutations == ()


def test_insertion_inside_codon_suppresses_that_codon():
    ref = dna("ATGCATGCATCACGTACT", "ref")
    # codon 2 CAT>CGT (substitution) plus GGG inserted after ref base 10,
    # which lands between bases 1 and 2 of codon 4
    subj = dna("ATGCGTGCATGGGCACGTACT", "subj")
    calls = call_mutations(align_global(ref, subj, DNA_SCHEME))
    assert calls.has_indel
    numbers = [m.codon_number for m in calls.mutations]
    assert 2 in numbers
    assert 4 not in numbers


def test_insertion_at_codon_boundary_keeps_neighbors_callable():
    ref = dna("ATGCATGCA", "ref")
    subj = dna("ATGCATTTTGCA", "subj")  # TTT inserted between codons 2 and 3
    calls = call_mutations(align_global(ref, subj, DNA_SCHEME))
    assert calls.has_indel
    assert calls.mutations == ()  # no substitutions anywhere


def test_trailing_partial_codon_substitution_dropped():
    ref = dna("ATGCATGC", "ref")  # 8 bases: codon 3 is incomplete
    subj = dna("ATGCATGA", "subj")
    calls = call_mutations(align_global(ref, subj, DNA_SCHEME))
    assert not calls.dna_identical
    assert calls.mutations == ()
    assert not protein_differs(calls)


def test_callset_validation():
    silent = CodonMutation(2, "CGG", "CGA")
    with pytest.raises(ValueError):
        MutationCallSet(mutations=(silent, silent), has_indel=False, dna_identical=False)
    with pytest.raises(ValueError):
        MutationCallSet(mutations=(silent,), has_indel=False, dna_identical=True)
    with pytest.raises(ValueError):
        MutationCallSet(mutations=(), has_indel=True, dna_identical=True)


def test_codon_mutation_validation():
    with pytest.raises(ValueError):
        CodonMutation(1, "CGG", "CGG")
    for ref, alt in [("XYZ", "TGG"), ("CGG", "TG"), ("CGG", "tgg")]:
        with pytest.raises(ValueError, match="3-letter DNA codon"):
            CodonMutation(codon_number=1, ref_codon=ref, alt_codon=alt)


def test_codon_mutation_derives_amino_acids_and_kind():
    for ref, alt, ref_aa, alt_aa, kind in [
        ("CGG", "TGG", "R", "W", MutationKind.MISSENSE),
        ("CGG", "CGA", "R", "R", MutationKind.SILENT),
        ("CGA", "TGA", "R", "*", MutationKind.NONSENSE),
        ("CGG", "NGG", "R", "X", MutationKind.MISSENSE),
    ]:
        m = CodonMutation(248, ref, alt)
        assert (m.ref_aa, m.alt_aa, m.kind) == (ref_aa, alt_aa, kind)
    with pytest.raises(TypeError):
        CodonMutation(248, "CGG", "TGG", "R", "W", MutationKind.MISSENSE)


def test_classify_kind_pure_function():
    assert classify_kind("R", "R") is MutationKind.SILENT
    assert classify_kind("R", "W") is MutationKind.MISSENSE
    assert classify_kind("Q", "*") is MutationKind.NONSENSE
    assert classify_kind("*", "*") is MutationKind.SILENT


def test_protein_differs_cases():
    ref = dna("ATGAAATTTGGGCGG", "ref")
    silent = call_mutations(align_global(ref, dna("ATGAAATTTGGGCGA", "s1"), DNA_SCHEME))
    assert not protein_differs(silent)
    missense = call_mutations(align_global(ref, dna("ATGAAATTTGGGTGG", "s2"), DNA_SCHEME))
    assert protein_differs(missense)
    empty = call_mutations(align_global(ref, ref, DNA_SCHEME))
    assert not protein_differs(empty)
    indel_ref = dna("ATGCATGCATCACGTACT", "r")
    indel_only = call_mutations(
        align_global(indel_ref, dna("ATGCATTCACGTACT", "s3"), DNA_SCHEME)
    )
    assert protein_differs(indel_only)


_BASE_CODONS = (
    "ATG", "CAT", "GCA", "TCA", "CGT", "ACT", "GGA", "TTC", "AGC", "CTG",
    "GAC", "TGT", "AAG", "CCA", "GTT", "TAC", "CGG", "ATT", "GAG", "TCC",
)
_REF = dna("".join(_BASE_CODONS), "property-ref")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_completeness_and_translation_consistency(data):
    # single-base substitutions in distinct codons: the regime where the
    # optimal alignment is provably gap-free under the default scheme
    n_codons = len(_BASE_CODONS)
    k = data.draw(st.integers(0, 5))
    positions = sorted(
        data.draw(
            st.lists(
                st.integers(1, n_codons), unique=True, min_size=k, max_size=k
            )
        )
    )
    codons = list(_BASE_CODONS)
    for pos in positions:
        offset = data.draw(st.integers(0, 2))
        old = codons[pos - 1]
        base = data.draw(st.sampled_from([b for b in "ACGT" if b != old[offset]]))
        codons[pos - 1] = old[:offset] + base + old[offset + 1 :]
    subj = dna("".join(codons), "property-subj")

    calls = call_mutations(align_global(_REF, subj, DNA_SCHEME))
    assert not calls.has_indel
    assert calls.dna_identical == (not positions)
    assert [m.codon_number for m in calls.mutations] == positions

    ref_protein = translate(_REF).residues
    subj_protein = translate(subj).residues
    for m in calls.mutations:
        assert ref_protein[m.codon_number - 1] == m.ref_aa
        assert subj_protein[m.codon_number - 1] == m.alt_aa
        assert classify_kind(m.ref_aa, m.alt_aa) is m.kind


@settings(max_examples=300, deadline=None)
@given(rows=gapped_rows())
# an Insert run off a codon boundary next to a substitution; Delete
# runs starting at phases 0 and 2 and crossing a boundary, on a
# 13-base reference; an Insert run on a boundary
@example(rows=("AC--GTACGTAC", "ACTTGTACCTAC"))
@example(rows=("ACGTACGTACGTA", "ACG----TAC-TA"))
@example(rows=("ACG---TACGTAA", "ACGCCCTACGTTA"))
def test_calls_match_the_column_walk(rows: tuple[str, str]):
    # calling reads runs of ops; the oracle reads the rows column by column
    alignment = AlignmentResult(*rows, score=0)
    assert call_mutations(alignment) == oracle_call_mutations(alignment)
