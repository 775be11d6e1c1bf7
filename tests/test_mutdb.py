from __future__ import annotations

import gc
import json
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tp53scan import mutdb
from tp53scan.codec import from_dict, to_dict
from tp53scan.errors import (
    BadRowError,
    EmptyDatabaseError,
    MissingColumnError,
    UnknownFieldError,
)
from tp53scan.mutcall import CodonMutation, MutationCallSet
from tp53scan.mutdb import (
    COLUMNS,
    REQUIRED_COLUMNS,
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

from support import oracle_load_db, scan_query_oracle

ROOT = Path(__file__).resolve().parent.parent

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
    for codon in ("0", "-3"):
        path = write_tsv(tmp_path / "db.tsv", f"a\t{codon}\tCGG\tTGG\tR\tW\tBreast carcinoma")
        with pytest.raises(BadRowError) as exc:
            load_db(path)
        assert str(exc.value) == f"line 2: codon_number >= 1 violated: {int(codon)}"


def test_bad_row_non_integer_codon(tmp_path):
    # int() alone reads the last three as 248, 175 and 273
    for codon in ("x", "", "2_48", "+175", "\u0662\u0667\u0663"):
        path = write_tsv(tmp_path / "db.tsv", f"a\t{codon}\tCGG\tTGG\tR\tW\tBreast carcinoma")
        with pytest.raises(BadRowError) as exc:
            load_db(path)
        assert str(exc.value) == f"line 2: codon {codon!r} is not an integer in ASCII digits"


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
        db.records, [("codon", 248)]
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


@pytest.mark.parametrize("flag", [True, False])
def test_bool_codon_clause_rejected(flag: bool):
    # True hashes as 1: taken as a codon it would return codon 1's rows
    with pytest.raises(ValueError, match="codon clause needs an integer"):
        FilterQuery(clauses=(("codon", flag),))


@pytest.mark.parametrize("value", [5, 1.5, None, b"Sarcoma"])
def test_text_clause_needs_a_str(db, value):
    # a number never equals a text cell, so it would silently match nothing
    with pytest.raises(ValueError, match="tumor_type clause needs text"):
        FilterQuery(clauses=(("tumor_type", value),))
    assert query(db, FilterQuery(clauses=(("tumor_type", "Sarcoma"),))).matches


def test_from_strings_parses_clauses():
    q = FilterQuery.from_strings(["codon=248", "tumor_type=Breast carcinoma"])
    assert q.clauses == (("codon", 248), ("tumor_type", "Breast carcinoma"))
    assert FilterQuery.from_strings(["codon= 0248 "]).clauses == (("codon", 248),)
    for codon in ("abc", "2_48", "+175", "\u0662\u0667\u0663"):
        with pytest.raises(ValueError, match="is not an integer in ASCII digits"):
            FilterQuery.from_strings([f"codon={codon}"])
    # a negative codon is a well-formed clause that matches nothing
    assert FilterQuery.from_strings(["codon=-3"]).clauses == (("codon", -3),)
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


def test_extra_columns_follow_the_columns_mapping(tmp_path):
    # the names beyond COLUMNS, in the header's order; not an argument
    path = write_tsv(
        tmp_path / "db.tsv",
        "somatic\ta\t248\tCGG\tTGG\tR\tW\tBreast carcinoma\tCL-1",
        header=f"origin\t{HEADER}\tcell_line",
    )
    db = load_db(path)
    assert db.extra_columns == ("origin", "cell_line")
    with pytest.raises(TypeError):
        Database(columns=db.columns, extra_columns=("origin", "cell_line"))


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


def check_classify(db, records, calls) -> None:
    """``classify`` gives the naive scan's hits in file order, and one
    warning per hit whose wt codon is not the call's reference codon."""
    by_id = {rec.record_id: rec for rec in records}
    want: set[str] = set()
    warned: list[str] = []  # one text per mismatching row: calls in order, rows in file order
    for m in calls.mutations:
        if aa_for(m.ref_codon) == aa_for(m.alt_codon):
            continue
        for record_id in scan_query_oracle(
            records, [("codon", m.codon_number), ("mut_codon", m.alt_codon)]
        ):
            want.add(record_id)
            if by_id[record_id].wt_codon != m.ref_codon:
                warned.append(
                    f"record {record_id!r} lists wt codon {by_id[record_id].wt_codon} "
                    f"at codon {m.codon_number}, caller saw {m.ref_codon}"
                )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = classify(db, calls)
    assert (result is None) == (not want)
    if result is not None:
        in_file_order = [rec.record_id for rec in records if rec.record_id in want]
        assert [r.record_id for r in result.matches] == in_file_order
    assert all(w.category is WtCodonMismatchWarning for w in caught)
    assert [str(w.message) for w in caught] == warned


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
    check_classify(db, db.records, calls)


# Small random databases for the loader, query and classify properties.
# Values come from small pools, so keys, cell texts and tumor types
# repeat; CGG, CGA and AGG all code R, so a listed change can be silent.
RANDOM_CODONS = ("CGG", "CGA", "AGG", "TGG", "CAG", "CAT", "TAG")
CHANGES = (("CGG", "TGG"), ("CGG", "CGA"), ("CAT", "CGT"), ("AGG", "TAG"))
CODON_CELLS = ("1", "2", "248", "0248")
EXTRA_POOLS = {"origin": ("somatic", "germline"), "cell_line": ("CL-1", "CL-2", "")}
ROW_POOLS = {
    "mutation_event": ("missense", "nonsense", ""),
    "tumor_type": ("Sarcoma", "Breast carcinoma", "Lung CARCINOMA"),
    **EXTRA_POOLS,
}
BAD_CELLS = {
    "codon": ("x", "", "0", "00", "2_48", "+17", "\u0662\u0667", "1.0", "-3"),
    "wt_codon": ("CGX", "TG", "ACGT"),
    "mut_codon": ("N", "cg g"),
    "wt_aa": ("Arg", "1", ""),
    "mut_aa": ("B", "RW"),
}
# "fields" comes last: it changes the row's length
FAULTS = ("bad_cell", "equal", "empty_id", "duplicate_id", "fields")
BLANK_LINES = ("", " ", "\t", " \t ")


def noisy(draw, text: str) -> str:
    """``text`` in a random case with random padding."""
    styled = draw(st.sampled_from([text, text.upper(), text.lower()]))
    return draw(st.sampled_from(["", " "])) + styled + draw(st.sampled_from(["", "  "]))


@st.composite
def mutation_tsvs(draw, max_faults: int):
    """TSV text: a random header (optional columns absent or present,
    extra columns, any order), 1-8 rows with case and whitespace noise,
    blank lines, and up to ``max_faults`` faults of different kinds."""
    optional = [n for n in ("record_id", "mutation_event", *EXTRA_POOLS) if draw(st.booleans())]
    header = draw(st.permutations([*REQUIRED_COLUMNS, *optional]))
    rows, keys = [], []
    for k in range(draw(st.integers(1, 8))):
        # half the rows repeat an earlier row's key, so they share its checks
        if keys and draw(st.booleans()):
            codon, wt, mut = draw(st.sampled_from(keys))
        else:
            codon, (wt, mut) = draw(st.sampled_from(CODON_CELLS)), draw(st.sampled_from(CHANGES))
        keys.append((codon, wt, mut))
        clean = {"record_id": f"r{k}", "codon": codon, "wt_codon": wt, "mut_codon": mut,
                 "wt_aa": aa_for(wt), "mut_aa": aa_for(mut)}
        rows.append([
            noisy(draw, clean[name] if name in clean else draw(st.sampled_from(ROW_POOLS[name])))
            for name in header
        ])
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=max_faults, unique=True))
    for fault in sorted(faults, key=FAULTS.index):
        at = draw(st.integers(0, len(rows) - 1))
        row = rows[at]
        if fault == "bad_cell":
            name = draw(st.sampled_from(sorted(BAD_CELLS)))
            row[header.index(name)] = draw(st.sampled_from(BAD_CELLS[name]))
        elif fault == "equal":
            row[header.index("mut_codon")] = noisy(draw, row[header.index("wt_codon")].strip())
        elif fault == "fields":
            if draw(st.booleans()):
                row.pop()
            else:
                row.append("x")
        elif "record_id" in header:
            id_at = header.index("record_id")
            if fault == "empty_id":
                row[id_at] = draw(st.sampled_from(["", " "]))
            elif len(rows) > 1:
                other = draw(st.integers(0, len(rows) - 1).filter(lambda k: k != at))
                row[id_at] = rows[other][id_at]
    lines = ["\t".join(f" {name} " for name in header)]
    for row in rows:
        lines += draw(st.lists(st.sampled_from(BLANK_LINES), max_size=1))
        lines.append("\t".join(row))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


def load_both(text: str):
    """(load_db's result or error, oracle_load_db's result or error)."""
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "db.tsv"
        path.write_text(text, encoding="utf-8")
        for loader in (load_db, oracle_load_db):
            try:
                outcomes.append(loader(path))
            except BadRowError as exc:
                outcomes.append(exc)
    return outcomes


@settings(max_examples=300, deadline=None)
@given(mutation_tsvs(max_faults=2))
def test_load_db_matches_the_row_by_row_oracle(text):
    got, want = load_both(text)
    if isinstance(want, BadRowError):
        assert isinstance(got, BadRowError), f"loaded, oracle refused: {want}"
        assert (got.line, str(got)) == (want.line, str(want))
    else:
        assert not isinstance(got, BadRowError), f"refused, oracle loaded: {got}"
        assert (tuple(got.records), got.extra_columns) == want


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="ab \t\r\n\x0b\x1c\u2028", max_size=40), st.integers(1, 6))
def test_blocks_split_lines_as_splitlines_does(text, size):
    """A block ends after a ``\\n``, so it cuts no line and no ``\\r\\n``."""
    with patch.object(mutdb, "_BLOCK", size):
        blocks = list(mutdb._blocks(text))
    assert [line for block in blocks for line in block] == text.splitlines()


@settings(max_examples=100, deadline=None)
@given(mutation_tsvs(max_faults=2))
def test_load_db_numbers_lines_across_blocks(text):
    """With blocks of a few lines each, rows and faults keep their lines."""
    with patch.object(mutdb, "_BLOCK", 8):
        got, want = load_both(text)
    if isinstance(want, BadRowError):
        assert (got.line, str(got)) == (want.line, str(want))
    else:
        assert (tuple(got.records), got.extra_columns) == want


def random_db(text: str):
    """A fault-free random database and the oracle's records for it."""
    db, (records, _) = load_both(text)
    return db, records


@settings(max_examples=150, deadline=None)
@given(mutation_tsvs(max_faults=0), st.data())
def test_query_matches_a_naive_scan_on_random_dbs(text, data):
    db, records = random_db(text)
    clauses: list[tuple[str, object]] = []
    if data.draw(st.booleans()):
        listed = [r.codon_number for r in records]
        clauses.append(("codon", data.draw(st.sampled_from([*listed, 999]))))
    text_fields = sorted(db.queryable_fields - {"codon"})
    for name in data.draw(st.lists(st.sampled_from(text_fields), max_size=2, unique=True)):
        values = {getattr(r, name) if name in COLUMNS else r.extra[name] for r in records}
        value = data.draw(st.sampled_from(sorted(values | {"zzz"})))
        clauses.append((name, noisy(data.draw, value)))
    result = query(db, FilterQuery(tuple(data.draw(st.permutations(clauses)))))
    assert [r.record_id for r in result.matches] == scan_query_oracle(records, clauses)


@settings(max_examples=150, deadline=None)
@given(mutation_tsvs(max_faults=0), st.data())
def test_classify_matches_a_naive_scan_on_random_dbs(text, data):
    """Calls at up to three listed codons, each making a listed change
    from the listed wt codon or another one (silent or not), plus a miss
    at an unlisted codon."""
    db, records = random_db(text)
    changes = {999: ("CGG", "TGG")}
    for rec in data.draw(st.lists(st.sampled_from(records), max_size=3)):
        ref = data.draw(st.sampled_from([rec.wt_codon, *RANDOM_CODONS]).filter(
            lambda codon: codon != rec.mut_codon
        ))
        changes[rec.codon_number] = (ref, rec.mut_codon)
    calls = calls_of(*(CodonMutation(no, ref, alt) for no, (ref, alt) in sorted(changes.items())))
    check_classify(db, records, calls)


def write_benchmark_db(path: Path, monkeypatch) -> int:
    """Write the 29k-row database of the benchmark's divergent_indel
    workload (seed 1) to ``path``; returns its row count."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    reference = workloads.bundled_reference(ROOT / "src" / "tp53scan" / "data")
    workloads.write_mutation_db(1, reference, path)
    return workloads.DB_ROWS


def test_load_db_matches_the_oracle_on_the_29k_row_benchmark_db(tmp_path, monkeypatch):
    """At full size, columns hold more distinct values than one byte
    codes (392 codons, 600 cell lines) and rows span many blocks."""
    path = tmp_path / "mutations.tsv"
    rows = write_benchmark_db(path, monkeypatch)
    db = load_db(path)
    assert len(db) == rows
    assert len(db.columns["codon"].values) > 256
    assert len(db.columns["cell_line"].values) > 256
    assert (db.records, db.extra_columns) == oracle_load_db(path)


def test_query_matches_the_scan_oracle_on_the_29k_row_benchmark_db(tmp_path, monkeypatch):
    """Full scans of text columns coded in one byte (tumor_type), two
    bytes (cell_line) and by row position (record_id), and the same
    clauses after a codon clause narrows the rows."""
    path = tmp_path / "mutations.tsv"
    write_benchmark_db(path, monkeypatch)
    db = load_db(path)
    for where in (
        ["cell_line=CL-123"],
        ["tumor_type=Lung carcinoma"],
        ["record_id=T00123"],
        ["codon=248", "record_id=T00123"],
        ["codon=175", "cell_line=CL-123"],
    ):
        q = FilterQuery.from_strings(where)
        got = [r.record_id for r in query(db, q).matches]
        assert got == scan_query_oracle(db.records, list(q.clauses)), where


def test_a_column_of_70000_distinct_values_keeps_each_at_its_row(tmp_path):
    """Codes, record-id positions and index positions past 65,535 take
    the 4-byte array type."""
    n = 70_000
    columns = {
        "record_id": [f"r{k}" for k in range(n)],
        "codon": [k % 393 + 1 for k in range(n)],
        **{name: (value,) * n for name, value in [
            ("wt_codon", "CGG"), ("mut_codon", "TGG"), ("wt_aa", "R"), ("mut_aa", "W"),
            ("mutation_event", ""), ("tumor_type", "Sarcoma"),
        ]},
        "sample": tuple(f"S{k}" for k in range(n)),
    }
    rows = zip(*([str(value) for value in values] for values in columns.values()))
    path = write_tsv(tmp_path / "db.tsv", *map("\t".join, rows), header="\t".join(columns))
    db = load_db(path)
    assert db.extra_columns == ("sample",)
    for name, values in columns.items():
        column = db.columns[name]
        assert len(column.codes) == n
        assert all(column.values[column.codes[pos]] == value for pos, value in enumerate(values))
    assert db.columns["sample"].codes.itemsize == db.columns["record_id"].codes.itemsize == 4
    assert list(db.rows_at(393, "TGG")) == list(range(392, n, 393))
    result = query(db, FilterQuery((("sample", " s69999 "),)))
    assert [r.record_id for r in result.matches] == ["r69999"]


def test_loading_the_29k_row_benchmark_db_stays_small(tmp_path, monkeypatch):
    """The 29k-row database of the benchmark's divergent_indel workload
    (seed 1) loads under 7.5 MB at peak, keeps under 3 MB and leaves
    fewer than 1,000 objects for the garbage collector to track."""
    path = tmp_path / "mutations.tsv"
    rows = write_benchmark_db(path, monkeypatch)
    gc.collect()
    tracked = len(gc.get_objects())
    tracemalloc.start()
    try:
        db = load_db(path)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    new_tracked = len(gc.get_objects()) - tracked
    assert len(db) == rows
    assert peak < 7.5 * 2**20, f"peak {peak / 2**20:.2f} MB"
    assert retained < 3 * 2**20, f"retained {retained / 2**20:.2f} MB"
    assert new_tracked < 1_000, f"{new_tracked} new GC-tracked objects"
