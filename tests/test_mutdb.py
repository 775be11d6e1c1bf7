from __future__ import annotations

import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tp53scan.codec import from_dict, to_dict
from tp53scan.errors import (
    BadRowError,
    EmptyDatabaseError,
    MissingColumnError,
    UnknownFieldError,
)
from tp53scan.mutcall import CodonMutation, MutationCallSet
from tp53scan.mutdb import (
    AnnotationResult,
    Database,
    FilterQuery,
    MutationRecord,
    WtCodonMismatchWarning,
    classify,
    load_db,
    query,
)
from tp53scan.translation import STANDARD_TABLE, aa_for

from support import scan_query_oracle

HEADER = "record_id\tcodon\twt_codon\tmut_codon\twt_aa\tmut_aa\ttumor_type"


def write_tsv(path: Path, *rows: str, header: str = HEADER) -> Path:
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


def r248w() -> CodonMutation:
    return CodonMutation(248, "CGG", "TGG")


def test_bundled_db_loads(db):
    assert len(db) == 50
    assert db.records[0].record_id == "R001"
    assert db.extra_columns == ("cell_line", "origin")
    assert db.records[0].extra["origin"] == "somatic"


def test_small_fixture_happy_path(tmp_path):
    path = write_tsv(
        tmp_path / "db.tsv",
        "a\t10\tCGG\tTGG\tR\tW\tBreast carcinoma",
        "b\t11\tCAT\tCGT\tH\tR\tLung carcinoma",
        "c\t10\tCGG\tCAG\tR\tQ\tSarcoma",
    )
    db = load_db(path)
    assert len(db) == 3
    assert db.records[1].codon_number == 11


def test_missing_required_column(tmp_path):
    path = write_tsv(
        tmp_path / "db.tsv",
        "a\t10\tCGG\tTGG\tR\tW",
        header="record_id\tcodon\twt_codon\tmut_codon\twt_aa\tmut_aa",
    )
    with pytest.raises(MissingColumnError) as exc:
        load_db(path)
    assert exc.value.name == "tumor_type"


def test_bad_row_codon_zero(tmp_path):
    path = write_tsv(tmp_path / "db.tsv", "a\t0\tCGG\tTGG\tR\tW\tBreast carcinoma")
    with pytest.raises(BadRowError) as exc:
        load_db(path)
    assert exc.value.line == 2
    assert "codon_number >= 1" in str(exc.value)


def test_bad_row_non_integer_codon(tmp_path):
    path = write_tsv(tmp_path / "db.tsv", "a\tx\tCGG\tTGG\tR\tW\tBreast carcinoma")
    with pytest.raises(BadRowError):
        load_db(path)


def test_bad_row_field_count(tmp_path):
    path = write_tsv(tmp_path / "db.tsv", "a\t10\tCGG\tTGG\tR\tW")
    with pytest.raises(BadRowError) as exc:
        load_db(path)
    assert exc.value.line == 2


def test_bad_row_equal_codons(tmp_path):
    path = write_tsv(tmp_path / "db.tsv", "a\t10\tCGG\tCGG\tR\tR\tBreast carcinoma")
    with pytest.raises(BadRowError):
        load_db(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("a\t10\tCGX\tTGG\tR\tW\tBreast carcinoma", "wt_codon must be a 3-letter DNA codon"),
        ("a\t10\tCGG\tTG\tR\tW\tBreast carcinoma", "mut_codon must be a 3-letter DNA codon"),
        ("a\t10\tCGG\tTGG\tArg\tW\tBreast carcinoma", "wt_aa must be one amino-acid letter"),
        ("a\t10\tCGG\tTGG\tR\t \tBreast carcinoma", "mut_aa must be one amino-acid letter"),
        (" \t10\tCGG\tTGG\tR\tW\tBreast carcinoma", "^line 3: empty record_id$"),
        ("a\t10\tCGG\tTGG\t1\tW\tBreast carcinoma", "^line 3: wt_aa must be one .* got '1'$"),
    ],
)
def test_bad_row_codon_and_aa_rules(tmp_path, row, message):
    path = write_tsv(tmp_path / "db.tsv", "z\t11\tCAT\tCGT\tH\tR\tLung carcinoma", row)
    with pytest.raises(BadRowError, match=message) as exc:
        load_db(path)
    assert exc.value.line == 3


def test_record_checks_its_own_codons_and_aas():
    good = dict(
        record_id="a", codon_number=248, wt_codon="CGG", mut_codon="TGG",
        wt_aa="R", mut_aa="W", mutation_event="", tumor_type="Breast carcinoma",
    )
    assert MutationRecord(**good).wt_codon == "CGG"
    for name, bad in [
        ("wt_codon", "xyz"), ("wt_codon", "cgg"), ("mut_codon", "TGGA"),
        ("wt_aa", "hello"), ("wt_aa", "1"), ("mut_aa", ""), ("mut_aa", "B"),
        ("record_id", ""),
    ]:
        with pytest.raises(ValueError, match=name):
            MutationRecord(**{**good, name: bad})


def test_extra_is_a_read_only_copy(db):
    with pytest.raises(TypeError):
        db.records[0].extra["origin"] = "germline"
    assert db.records[0].extra["origin"] == "somatic"
    source = {"origin": "somatic"}
    rec = MutationRecord("a", 248, "CGG", "TGG", "R", "W", "", "t", extra=source)
    source["origin"] = "germline"
    assert rec.extra == {"origin": "somatic"}


def test_extra_encodes_as_a_plain_object():
    rec = MutationRecord(
        "a", 248, "CGG", "TGG", "R", "W", "", "t", extra={"origin": "somatic", "cell_line": "CL-1"}
    )
    encoded = to_dict(rec)
    assert type(encoded["extra"]) is dict
    assert json.dumps(encoded) == (
        '{"record_id": "a", "codon": 248, "wt_codon": "CGG", "mut_codon": "TGG", '
        '"wt_aa": "R", "mut_aa": "W", "mutation_event": "", "tumor_type": "t", '
        '"extra": {"origin": "somatic", "cell_line": "CL-1"}}'
    )
    assert from_dict(MutationRecord, encoded) == rec


def test_bad_row_duplicate_record_id(tmp_path):
    path = write_tsv(
        tmp_path / "db.tsv",
        "a\t10\tCGG\tTGG\tR\tW\tBreast carcinoma",
        "a\t11\tCAT\tCGT\tH\tR\tLung carcinoma",
    )
    with pytest.raises(BadRowError) as exc:
        load_db(path)
    assert exc.value.line == 3


def test_load_is_atomic_on_late_error(tmp_path):
    path = write_tsv(
        tmp_path / "db.tsv",
        "a\t10\tCGG\tTGG\tR\tW\tBreast carcinoma",
        "b\t0\tCAT\tCGT\tH\tR\tLung carcinoma",
    )
    with pytest.raises(BadRowError):
        load_db(path)


def test_empty_database_rejected(tmp_path):
    path = write_tsv(tmp_path / "db.tsv")
    with pytest.raises(EmptyDatabaseError):
        load_db(path)


def test_record_id_synthesized_when_absent(tmp_path):
    path = write_tsv(
        tmp_path / "db.tsv",
        "10\tCGG\tTGG\tR\tW\tBreast carcinoma",
        header="codon\twt_codon\tmut_codon\twt_aa\tmut_aa\ttumor_type",
    )
    db = load_db(path)
    assert db.records[0].record_id == "row2"


def test_codons_normalized_to_uppercase(tmp_path):
    path = write_tsv(tmp_path / "db.tsv", "a\t10\tcgg\ttgg\tr\tw\tBreast carcinoma")
    rec = load_db(path).records[0]
    assert (rec.wt_codon, rec.mut_codon, rec.wt_aa, rec.mut_aa) == ("CGG", "TGG", "R", "W")


def test_match_all_query(db):
    result = query(db, FilterQuery())
    assert [r.record_id for r in result.matches] == [r.record_id for r in db.records]


def test_codon_query_matches_linear_oracle(db):
    result = query(db, FilterQuery(clauses=(("codon", 248),)))
    assert [r.record_id for r in result.matches] == scan_query_oracle(
        db, [("codon", 248)]
    )
    assert len({r.tumor_type for r in result.matches}) >= 3


def test_narrowing_filter_chain(db):
    broad = query(db, FilterQuery(clauses=(("codon", 248),)))
    narrow = query(
        db,
        FilterQuery(
            clauses=(
                ("codon", 248),
                ("mut_codon", "TGG"),
                ("tumor_type", "colorectal CARCINOMA"),
            )
        ),
    )
    broad_ids = {r.record_id for r in broad.matches}
    narrow_ids = {r.record_id for r in narrow.matches}
    assert narrow_ids <= broad_ids
    assert len(narrow.matches) == 1


def test_text_matching_trims_and_ignores_case(db):
    result = query(db, FilterQuery(clauses=(("mut_codon", "  tgg "),)))
    assert result.matches
    assert all(r.mut_codon == "TGG" for r in result.matches)


def test_clause_order_irrelevant(db):
    a = query(db, FilterQuery(clauses=(("codon", 248), ("origin", "somatic"))))
    b = query(db, FilterQuery(clauses=(("origin", "somatic"), ("codon", 248))))
    assert a == b


def test_extra_columns_queryable(db):
    result = query(db, FilterQuery(clauses=(("origin", "germline"),)))
    assert {r.tumor_type for r in result.matches} == {"Li-Fraumeni syndrome"}


def test_unknown_field_rejected(db):
    with pytest.raises(UnknownFieldError):
        query(db, FilterQuery(clauses=(("chromosome", "17"),)))


def test_filter_query_validation():
    with pytest.raises(ValueError):
        FilterQuery(clauses=(("codon", 1), ("codon", 2)))
    with pytest.raises(ValueError):
        FilterQuery(clauses=(("codon", "248"),))


def test_from_strings_parses_clauses():
    q = FilterQuery.from_strings(["codon=248", "tumor_type=Breast carcinoma"])
    assert q.clauses == (("codon", 248), ("tumor_type", "Breast carcinoma"))
    with pytest.raises(ValueError):
        FilterQuery.from_strings(["codon=abc"])
    with pytest.raises(ValueError):
        FilterQuery.from_strings(["no-equals-here"])


def test_annotation_result_validation(db):
    matches = tuple(db.records[:2])
    # the tumor types are derived, so the constructor takes none
    with pytest.raises(TypeError):
        AnnotationResult(matches=matches, distinct_tumor_types=("Zebra",))
    types = AnnotationResult(matches).distinct_tumor_types
    assert types == tuple(sorted({r.tumor_type for r in matches}))


def calls_of(*mutations: CodonMutation) -> MutationCallSet:
    return MutationCallSet(mutations, has_indel=False, dna_identical=False)


def test_classify_hit(db):
    result = classify(db, calls_of(r248w()))
    assert result is not None
    assert len(result.matches) == 5
    assert "Colorectal carcinoma" in result.distinct_tumor_types


def test_classify_miss(db):
    assert classify(db, calls_of(CodonMutation(2, "CAT", "CGT"))) is None


def test_classify_never_looks_up_a_silent_call(tmp_path):
    # the row lists the very change the silent call makes
    path = write_tsv(tmp_path / "db.tsv", "s\t248\tCGG\tCGA\tR\tR\tBreast carcinoma")
    assert classify(load_db(path), calls_of(CodonMutation(248, "CGG", "CGA"))) is None


def test_classify_on_empty_schema_db():
    empty = Database(records=(), extra_columns=())
    assert classify(empty, calls_of(r248w())) is None


def test_classify_warns_on_wt_codon_disagreement(tmp_path):
    path = write_tsv(tmp_path / "db.tsv", "a\t248\tCGT\tTGG\tR\tW\tBreast carcinoma")
    db = load_db(path)
    with pytest.warns(WtCodonMismatchWarning):
        result = classify(db, calls_of(r248w()))
    assert result is not None and len(result.matches) == 1


# Rows for the differential test: hits are called at codons 1-4,
# wt-codon mismatches at 5-8, misses at 9-12 (no row lists them), and
# codon 20 lists the change the one silent call makes.
SILENT_ROW = (20, "CGG", "CGA")
CODONS = st.sampled_from(sorted(STANDARD_TABLE))


def changed_rows(low: int, high: int):
    return st.lists(
        st.tuples(st.integers(low, high), CODONS, CODONS).filter(
            lambda row: aa_for(row[1]) != aa_for(row[2])
        ),
        min_size=1,
        max_size=8,
    )


@st.composite
def lookups(draw):
    """(TSV rows in file order, a call set against them)."""
    hit_rows, mismatch_rows = draw(changed_rows(1, 4)), draw(changed_rows(5, 8))
    rows = draw(st.permutations([*hit_rows, *mismatch_rows, SILENT_ROW]))
    calls = {SILENT_ROW[0]: SILENT_ROW[1:]}
    calls[draw(st.integers(9, 12))] = draw(
        st.tuples(CODONS, CODONS).filter(lambda pair: pair[0] != pair[1])
    )
    if draw(st.booleans()):
        codon, wt, mut = draw(st.sampled_from(hit_rows))
        calls[codon] = (wt, mut)
    if draw(st.booleans()):
        codon, wt, mut = draw(st.sampled_from(mismatch_rows))
        calls[codon] = (
            draw(CODONS.filter(lambda c: c != wt and aa_for(c) != aa_for(mut))),
            mut,
        )
    return rows, calls_of(
        *(CodonMutation(no, ref, alt) for no, (ref, alt) in sorted(calls.items()))
    )


@settings(max_examples=60, deadline=None)
@given(lookups())
def test_classify_matches_a_naive_scan(case):
    rows, calls = case
    with tempfile.TemporaryDirectory() as tmp:
        db = load_db(write_tsv(
            Path(tmp) / "db.tsv",
            *(f"r{k}\t{no}\t{wt}\t{mut}\t{aa_for(wt)}\t{aa_for(mut)}\tSarcoma"
              for k, (no, wt, mut) in enumerate(rows)),
        ))
    want: set[str] = set()
    warned: list[str] = []  # one text per mismatching row: calls in order, rows in file order
    for m in calls.mutations:
        if aa_for(m.ref_codon) == aa_for(m.alt_codon):
            continue
        for record_id in scan_query_oracle(
            db, [("codon", m.codon_number), ("mut_codon", m.alt_codon)]
        ):
            want.add(record_id)
            wt = rows[int(record_id[1:])][1]
            if wt != m.ref_codon:
                warned.append(
                    f"record {record_id!r} lists wt codon {wt} at codon "
                    f"{m.codon_number}, caller saw {m.ref_codon}"
                )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = classify(db, calls)
    assert (result is None) == (not want)
    if result is not None:
        in_file_order = [f"r{k}" for k in range(len(rows)) if f"r{k}" in want]
        assert [r.record_id for r in result.matches] == in_file_order
    assert all(w.category is WtCodonMismatchWarning for w in caught)
    assert [str(w.message) for w in caught] == warned
