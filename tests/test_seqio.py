from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tp53scan.errors import (
    DuplicateIdError,
    EmptyHeaderError,
    EmptyRecordError,
    IllegalResidueError,
    InputEncodingError,
    MissingHeaderError,
)
from tp53scan.seqio import (
    Alphabet,
    FastaDocument,
    Sequence,
    parse_fasta,
    read_fasta,
    read_text,
    write_fasta,
)


def test_case_and_linefold_normalization():
    doc = parse_fasta(">s1\nacgt\nACGT\n", Alphabet.DNA)
    assert len(doc) == 1
    assert doc[0].id == "s1"
    assert doc[0].residues == "ACGTACGT"


def test_multi_record_split_with_description():
    doc = parse_fasta(">a x\nAC\n>b\nGT\n", Alphabet.DNA)
    assert [(r.id, r.description, r.residues) for r in doc] == [
        ("a", "x", "AC"),
        ("b", "", "GT"),
    ]


def test_description_keeps_internal_whitespace():
    doc = parse_fasta(">a one  two\tthree\nACGT\n", Alphabet.DNA)
    assert doc[0].description == "one  two\tthree"


def test_crlf_and_blank_lines_accepted():
    doc = parse_fasta(">a\r\nAC\r\n\r\n>b\r\nGT\r\n", Alphabet.DNA)
    assert [r.residues for r in doc] == ["AC", "GT"]


def test_whitespace_inside_sequence_lines_dropped():
    doc = parse_fasta(">a\nAC GT\tAC\n", Alphabet.DNA)
    assert doc[0].residues == "ACGTAC"


def test_bytes_input_accepted():
    doc = parse_fasta(b">a\nACGT\n", Alphabet.DNA)
    assert doc[0].residues == "ACGT"


def test_bom_prefixed_fasta_parses(tmp_path):
    path = tmp_path / "bom.fasta"
    path.write_bytes(b"\xef\xbb\xbf>a first\r\nACGT\r\n")
    for doc in (read_fasta(path, Alphabet.DNA), parse_fasta(path.read_bytes(), Alphabet.DNA)):
        assert [(r.id, r.description, r.residues) for r in doc] == [("a", "first", "ACGT")]


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_non_utf8_file_names_its_path_and_line(tmp_path, bom):
    path = tmp_path / "bad.tsv"
    path.write_bytes(bom + b"a\n\nb\xff\n")
    with pytest.raises(InputEncodingError, match=f"{re.escape(str(path))}:3: byte 0xff"):
        read_text(path)


def test_non_utf8_bytes_raise_a_named_error():
    with pytest.raises(InputEncodingError, match="^<bytes>:2: byte 0xe9 is not UTF-8$"):
        parse_fasta(b">a\n>caf\xe9\nACGT\n", Alphabet.DNA)


def test_illegal_residue_position_is_concatenated_and_one_based():
    with pytest.raises(IllegalResidueError) as exc:
        parse_fasta(">s1\nACQT\n", Alphabet.DNA)
    assert exc.value.record_id == "s1"
    assert exc.value.position == 3
    assert exc.value.residue == "Q"


def test_illegal_residue_at_last_position():
    residues = "ACGT" * 300 + "U"
    with pytest.raises(IllegalResidueError) as exc:
        Sequence("s", "", residues, Alphabet.DNA)
    assert exc.value.position == len(residues)
    assert exc.value.residue == "U"
    assert str(exc.value) == f"record 's': illegal DNA residue 'U' at position {len(residues)}"


def test_illegal_residue_position_spans_folded_lines():
    # 4 residues on the first line, offender is 2nd char of the second
    with pytest.raises(IllegalResidueError) as exc:
        parse_fasta(">s\nACGT\nAUGT\n", Alphabet.DNA)
    assert exc.value.position == 6


def test_data_before_header_rejected():
    with pytest.raises(MissingHeaderError):
        parse_fasta("ACGT\n>a\nACGT\n", Alphabet.DNA)


def test_empty_input_rejected():
    with pytest.raises(MissingHeaderError):
        parse_fasta("", Alphabet.DNA)
    with pytest.raises(MissingHeaderError):
        parse_fasta("\n\n", Alphabet.DNA)


def test_bare_header_rejected():
    with pytest.raises(EmptyHeaderError):
        parse_fasta(">\nACGT\n", Alphabet.DNA)


def test_record_without_residues_rejected():
    with pytest.raises(EmptyRecordError):
        parse_fasta(">a\n>b\nACGT\n", Alphabet.DNA)
    with pytest.raises(EmptyRecordError):
        parse_fasta(">a\nACGT\n>b\n", Alphabet.DNA)


def test_duplicate_ids_rejected():
    with pytest.raises(DuplicateIdError):
        parse_fasta(">a\nAC\n>a\nGT\n", Alphabet.DNA)


def test_protein_alphabet_admits_stop_and_x():
    doc = parse_fasta(">p\nMKV*X\n", Alphabet.PROTEIN)
    assert doc[0].residues == "MKV*X"


def test_dna_n_admitted():
    doc = parse_fasta(">a\nACGTN\n", Alphabet.DNA)
    assert doc[0].residues == "ACGTN"


def test_sequence_rejects_whitespace_id():
    with pytest.raises(ValueError):
        Sequence(id="a b", description="", residues="ACGT", alphabet=Alphabet.DNA)
    with pytest.raises(ValueError):
        Sequence(id="", description="", residues="ACGT", alphabet=Alphabet.DNA)


def test_write_wraps_at_width():
    doc = FastaDocument(
        records=(
            Sequence(id="s", description="", residues="ACGTA", alphabet=Alphabet.DNA),
        )
    )
    assert write_fasta(doc, width=4) == ">s\nACGT\nA\n"


def test_write_rejects_nonpositive_width():
    doc = parse_fasta(">s\nACGT\n", Alphabet.DNA)
    with pytest.raises(ValueError):
        write_fasta(doc, width=0)


def test_write_header_includes_description():
    doc = parse_fasta(">s some words\nACGT\n", Alphabet.DNA)
    assert write_fasta(doc).startswith(">s some words\n")


_DNA_IDS = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-",
    min_size=1,
    max_size=16,
)
_DESCRIPTIONS = st.text(
    alphabet=st.characters(
        codec="ascii", min_codepoint=32, max_codepoint=126
    ),
    max_size=30,
).map(str.strip)


def _document_strategy(alphabet: Alphabet) -> st.SearchStrategy[FastaDocument]:
    residues = st.text(
        alphabet=sorted(alphabet.residues), min_size=1, max_size=120
    )
    bodies = st.lists(st.tuples(_DESCRIPTIONS, residues), min_size=1, max_size=6)
    ids = st.lists(_DNA_IDS, unique=True, min_size=6, max_size=6)
    return st.builds(
        lambda names, parts: FastaDocument(
            records=tuple(
                Sequence(
                    id=names[k],
                    description=desc,
                    residues=res,
                    alphabet=alphabet,
                )
                for k, (desc, res) in enumerate(parts)
            )
        ),
        ids,
        bodies,
    )


@given(doc=_document_strategy(Alphabet.DNA), width=st.integers(1, 100))
def test_roundtrip_dna(doc: FastaDocument, width: int):
    assert parse_fasta(write_fasta(doc, width=width), Alphabet.DNA) == doc


@given(doc=_document_strategy(Alphabet.PROTEIN), width=st.integers(1, 100))
def test_roundtrip_protein(doc: FastaDocument, width: int):
    assert parse_fasta(write_fasta(doc, width=width), Alphabet.PROTEIN) == doc
