from __future__ import annotations

import random

import pytest

from tp53scan.errors import GeneNotFoundError, ManifestError
from tp53scan.refstore import (
    ReferenceEntry,
    ReferenceStore,
    best_homolog,
    load_store,
)
from tp53scan.seqio import Alphabet

from support import dna, write_store


def test_bundled_store_shape(store):
    assert store.genes() == ("TP53",)
    entries = store.entries_for("TP53")
    assert [(e.source, e.priority) for e in entries] == [
        ("ncbi-export", 1),
        ("ebi-export", 2),
    ]
    assert all(e.sequence.alphabet is Alphabet.DNA for e in entries)


def test_write_and_load_round_trip(tmp_path):
    store = write_store(
        tmp_path / "store",
        [("TP53", "a", 1, dna("ATGAAA", "x")), ("BRCA1", "b", 2, dna("ATGCCC", "y"))],
    )
    assert store.genes() == ("TP53", "BRCA1")
    assert store.entries_for("BRCA1")[0].sequence.residues == "ATGCCC"


def test_missing_manifest(tmp_path):
    with pytest.raises(ManifestError, match="manifest not found"):
        load_store(tmp_path)


def test_bad_manifest_header(tmp_path):
    (tmp_path / "manifest.tsv").write_text("file\tgene\tsource\n", encoding="utf-8")
    with pytest.raises(ManifestError, match="header"):
        load_store(tmp_path)


def test_empty_manifest(tmp_path):
    (tmp_path / "manifest.tsv").write_text("", encoding="utf-8")
    with pytest.raises(ManifestError, match="empty"):
        load_store(tmp_path)


def test_header_only_manifest(tmp_path):
    (tmp_path / "manifest.tsv").write_text(
        "file\tgene\tsource\tpriority\n", encoding="utf-8"
    )
    with pytest.raises(ManifestError, match="no entries"):
        load_store(tmp_path)


def test_non_integer_priority(tmp_path):
    (tmp_path / "a.fasta").write_text(">a\nACGT\n", encoding="utf-8")
    (tmp_path / "manifest.tsv").write_text(
        "file\tgene\tsource\tpriority\na.fasta\tTP53\tsrc\tfirst\n", encoding="utf-8"
    )
    with pytest.raises(ManifestError, match="not an integer"):
        load_store(tmp_path)


def test_duplicate_gene_source_pair(tmp_path):
    (tmp_path / "a.fasta").write_text(">a\nACGT\n", encoding="utf-8")
    (tmp_path / "b.fasta").write_text(">b\nACGT\n", encoding="utf-8")
    (tmp_path / "manifest.tsv").write_text(
        "file\tgene\tsource\tpriority\n"
        "a.fasta\tTP53\tsrc\t1\n"
        "b.fasta\tTP53\tsrc\t2\n",
        encoding="utf-8",
    )
    with pytest.raises(ManifestError, match="duplicate"):
        load_store(tmp_path)


def test_listed_file_missing(tmp_path):
    (tmp_path / "manifest.tsv").write_text(
        "file\tgene\tsource\tpriority\nghost.fasta\tTP53\tsrc\t1\n", encoding="utf-8"
    )
    with pytest.raises(ManifestError, match="not found"):
        load_store(tmp_path)


def test_multi_record_fasta_rejected(tmp_path):
    (tmp_path / "a.fasta").write_text(">a\nACGT\n>b\nACGT\n", encoding="utf-8")
    (tmp_path / "manifest.tsv").write_text(
        "file\tgene\tsource\tpriority\na.fasta\tTP53\tsrc\t1\n", encoding="utf-8"
    )
    with pytest.raises(ManifestError, match="exactly one"):
        load_store(tmp_path)


def test_entry_validation():
    seq = dna("ACGT")
    with pytest.raises(ValueError):
        ReferenceEntry(source=" ", gene="TP53", sequence=seq, priority=1)
    with pytest.raises(ValueError):
        ReferenceEntry(source="src", gene="", sequence=seq, priority=1)


def test_unknown_gene(tmp_path):
    store = write_store(tmp_path / "store", [("TP53", "a", 1, dna("ATGAAA"))])
    with pytest.raises(GeneNotFoundError):
        best_homolog(store, dna("ATGAAA", "q"), "BRCA1")


def test_best_match_ranks_first(tmp_path):
    near = "ATGCGGACCTTT"
    far = "ATGTTTTTTTTT"
    store = write_store(
        tmp_path / "store",
        [("TP53", "far", 1, dna(far, "far")), ("TP53", "near", 2, dna(near, "near"))],
    )
    ranked = best_homolog(store, dna(near, "q"), "TP53")
    assert [c.entry.source for c in ranked] == ["near", "far"]


def test_priority_breaks_score_ties(tmp_path):
    seq = "ATGCGGACC"
    store = write_store(
        tmp_path / "store",
        [
            ("TP53", "backup", 2, dna(seq, "copy_b")),
            ("TP53", "primary", 1, dna(seq, "copy_a")),
        ],
    )
    ranked = best_homolog(store, dna(seq, "q"), "TP53")
    assert [c.entry.source for c in ranked] == ["primary", "backup"]


def test_manifest_order_breaks_remaining_ties(tmp_path):
    seq = "ATGCGGACC"
    store = write_store(
        tmp_path / "store",
        [("TP53", "first", 1, dna(seq, "a")), ("TP53", "second", 1, dna(seq, "b"))],
    )
    ranked = best_homolog(store, dna(seq, "q"), "TP53")
    assert [c.entry.source for c in ranked] == ["first", "second"]


def test_ranking_is_deterministic(store, subject_r248w):
    once = best_homolog(store, subject_r248w, "TP53")
    again = best_homolog(store, subject_r248w, "TP53")
    assert once == again
    assert [c.entry.source for c in once] == ["ncbi-export", "ebi-export"]


def test_ranking_compares_whole_sequences(tmp_path):
    # Entries identical to the query over a head longer than 5000 nt, the
    # length ranking once compared, and different only after it: the
    # tail decides, against priority.
    rng = random.Random(53)
    head = "".join(rng.choice("ACGT") for _ in range(5004))
    store = write_store(
        tmp_path / "store",
        [
            ("TP53", "tail-mismatch", 1, dna(head + "TTTTTT", "a")),
            ("TP53", "tail-match", 2, dna(head + "ACGACG", "b")),
        ],
    )
    ranked = best_homolog(store, dna(head + "ACGACG", "q"), "TP53")
    assert [c.entry.source for c in ranked] == ["tail-match", "tail-mismatch"]
    assert ranked[0].alignment.degapped_a() == head + "ACGACG"


def test_rank_scores_are_monotone(store, homolog):
    # Recomputing scores for the returned order must give a non-increasing
    # sequence; checked against the pipeline's own aligner on purpose since
    # ordering, not scoring, is under test here.
    from tp53scan.alignment import DNA_SCHEME, align_global

    ranked = best_homolog(store, homolog, "TP53")
    scores = [
        align_global(homolog, c.entry.sequence, DNA_SCHEME).score for c in ranked
    ]
    assert scores == sorted(scores, reverse=True)


def test_store_container_protocol(store):
    assert len(store) == 2
    assert isinstance(store, ReferenceStore)
    assert store.entries_for("NOPE") == ()
