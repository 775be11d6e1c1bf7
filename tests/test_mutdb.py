from __future__ import annotations

from pathlib import Path

import pytest

from tp53scan.errors import (
    BadRowError,
    EmptyDatabaseError,
    MissingColumnError,
    UnknownFieldError,
)
from tp53scan.mutcall import CodonMutation
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

from support import scan_query_oracle

HEADER = "record_id\tcodon\twt_codon\tmut_codon\twt_aa\tmut_aa\ttumor_type"


def write_tsv(path: Path, *rows: str, header: str = HEADER) -> Path:
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


def r248w() -> CodonMutation:
    return CodonMutation.from_codons(248, "CGG", "TGG")


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
    assert db.source_path == str(path)


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
        ("wt_aa", "hello"), ("mut_aa", ""),
    ]:
        with pytest.raises(ValueError, match=name):
            MutationRecord(**{**good, name: bad})


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


def test_column_mapping_renames_headers(tmp_path):
    path = write_tsv(
        tmp_path / "db.tsv",
        "10\tCGG\tTGG\tR\tW\tBreast carcinoma",
        header="Codon\tWT_Codon\tMutant_Codon\tWT_AA\tMutant_AA\tCancer",
    )
    db = load_db(
        path,
        column_map={
            "codon": "Codon",
            "wt_codon": "WT_Codon",
            "mut_codon": "Mutant_Codon",
            "wt_aa": "WT_AA",
            "mut_aa": "Mutant_AA",
            "tumor_type": "Cancer",
        },
    )
    assert db.records[0].codon_number == 10
    assert db.records[0].tumor_type == "Breast carcinoma"


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
    with pytest.raises(ValueError):
        AnnotationResult(matches=matches, distinct_tumor_types=("Zebra",))


def test_classify_hit(db):
    result = classify(db, r248w())
    assert result is not None
    assert len(result.matches) == 5
    assert "Colorectal carcinoma" in result.distinct_tumor_types


def test_classify_miss(db):
    m = CodonMutation.from_codons(2, "CAT", "CGT")
    assert classify(db, m) is None


def test_classify_rejects_silent(db):
    silent = CodonMutation.from_codons(248, "CGG", "CGA")
    with pytest.raises(ValueError):
        classify(db, silent)


def test_classify_on_empty_schema_db():
    empty = Database(records=(), extra_columns=(), source_path=None)
    assert classify(empty, r248w()) is None


def test_classify_warns_on_wt_codon_disagreement(tmp_path):
    path = write_tsv(tmp_path / "db.tsv", "a\t248\tCGT\tTGG\tR\tW\tBreast carcinoma")
    db = load_db(path)
    with pytest.warns(WtCodonMismatchWarning):
        result = classify(db, r248w())
    assert result is not None and len(result.matches) == 1
