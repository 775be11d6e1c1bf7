"""Tab-separated mutation database: loading, filtering, lookup.

The file needs a header row naming at least codon, wt_codon, mut_codon,
wt_aa, mut_aa and tumor_type; other columns ride along as extra fields
and stay queryable. Loading is all-or-nothing: the first bad row
aborts with its line number.

``load_db`` is the one builder of a ``Database``, which holds the file
as columns, one per field. A column is its distinct values, in
first-seen order, and one code per row in the narrowest ``array`` type
that holds the codes: row ``pos`` holds ``values[codes[pos]]``. Codon
values are ints; every other value is trimmed text, with codons and
amino acids upper-cased. Record ids are all distinct, so that column's
codes are the row positions. The (codon, mut_codon) index is one
packed array of row positions, grouped by key and in file order within
a key, with a (start, stop) span per key. So each rule runs once per
distinct value, and a row becomes a ``MutationRecord`` only when a
lookup returns it; the database keeps that record for the next request.
"""

from __future__ import annotations

import warnings
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import (
    BadRowError,
    EmptyDatabaseError,
    MissingColumnError,
    UnknownFieldError,
)
from .mutcall import MutationCallSet, MutationKind, check_codon
from .seqio import PROTEIN_RESIDUES, read_text

REQUIRED_COLUMNS = ("codon", "wt_codon", "mut_codon", "wt_aa", "mut_aa", "tumor_type")
OPTIONAL_COLUMNS = ("record_id", "mutation_event")
COLUMNS = REQUIRED_COLUMNS + OPTIONAL_COLUMNS


class WtCodonMismatchWarning(UserWarning):
    """A database hit disagrees with the caller's reference codon."""


def _norm(text: str) -> str:
    return text.strip().casefold()


@dataclass(frozen=True, slots=True)
class MutationRecord:
    """One database row. ``extra`` holds the columns beyond ``COLUMNS``,
    kept as a read-only copy so a shared database cannot be rewritten."""

    record_id: str
    codon_number: int = field(metadata={"wire": "codon"})
    wt_codon: str
    mut_codon: str
    wt_aa: str
    mut_aa: str
    mutation_event: str
    tumor_type: str
    extra: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "extra", MappingProxyType(dict(self.extra)))
        _check_record(
            self.record_id, self.codon_number, self.wt_codon, self.mut_codon,
            self.wt_aa, self.mut_aa,
        )


def _check_record(
    record_id: str, codon_number: int, wt_codon: str, mut_codon: str, wt_aa: str, mut_aa: str
) -> None:
    """A record's own checks, on the fields they read: every
    ``MutationRecord`` runs them, and ``load_db`` once per key."""
    if not record_id:
        raise ValueError("empty record_id")
    if codon_number < 1:
        raise ValueError(f"codon_number >= 1 violated: {codon_number}")
    check_codon("wt_codon", wt_codon)
    check_codon("mut_codon", mut_codon)
    if wt_codon == mut_codon:
        raise ValueError(f"record {record_id!r}: wt and mut codons are equal")
    for name, aa in (("wt_aa", wt_aa), ("mut_aa", mut_aa)):
        if aa not in PROTEIN_RESIDUES:
            raise ValueError(f"{name} must be one amino-acid letter, got {aa!r}")


# array typecodes for codes, narrowest first, each with how many codes it holds
_CODE_TYPES = tuple((code, 1 << 8 * array(code).itemsize) for code in "BHIQ")


def _code_type(count: int) -> str:
    """The narrowest array typecode that holds the codes 0 to ``count - 1``."""
    return next(code for code, limit in _CODE_TYPES if count <= limit)


class _Column:
    """One stored column: row ``pos`` holds ``values[codes[pos]]``."""

    __slots__ = ("values", "codes")

    def __init__(self, values: tuple, codes: array) -> None:
        self.values, self.codes = values, codes


@dataclass(frozen=True, eq=False)
class Database:
    """A mutation database held as columns, one per queryable field.

    ``load_db`` builds it; the module docstring says how each column and
    the (codon, mut_codon) index are stored. ``extra_columns`` names the
    fields beyond ``COLUMNS``, in the file's column order.
    """

    columns: Mapping[str, _Column]
    extra_columns: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        columns = self.columns
        extra = tuple(name for name in columns if name not in COLUMNS)
        object.__setattr__(self, "extra_columns", extra)
        codons, muts = columns["codon"], columns["mut_codon"]
        rows: dict[tuple[int, int], list[int]] = {}
        for pos, key in enumerate(zip(codons.codes, muts.codes)):
            rows.setdefault(key, []).append(pos)
        spans: dict[int, dict[str, tuple[int, int]]] = {}
        start = 0
        for (codon, mut), at in rows.items():
            spans.setdefault(codons.values[codon], {})[muts.values[mut]] = (
                start, start + len(at)
            )
            start += len(at)
        positions = array(_code_type(start), chain.from_iterable(rows.values()))
        object.__setattr__(self, "columns", MappingProxyType(columns))
        object.__setattr__(self, "_positions", positions)
        object.__setattr__(self, "_spans", spans)
        object.__setattr__(self, "_built", {})

    def __len__(self) -> int:
        return len(self.columns["codon"].codes)

    @property
    def queryable_fields(self) -> frozenset[str]:
        return frozenset(self.columns)

    @property
    def records(self) -> tuple[MutationRecord, ...]:
        """Every row as a record, in file order. For tests and oracles:
        it builds and keeps a record for every row."""
        return tuple(map(self._record, range(len(self))))

    def rows_at(self, codon: int, mut_codon: str | None = None) -> Sequence[int]:
        """Positions of the rows at a codon, in file order; given a
        ``mut_codon``, only the rows that list it."""
        by_mut = self._spans.get(codon, {})
        if mut_codon is not None:
            return self._positions[slice(*by_mut.get(mut_codon, (0, 0)))]
        return sorted(chain.from_iterable(
            self._positions[start:stop] for start, stop in by_mut.values()
        ))

    def _record(self, pos: int) -> MutationRecord:
        record = self._built.get(pos)
        if record is None:
            cell = {
                name: column.values[column.codes[pos]]
                for name, column in self.columns.items()
            }
            extra = {name: cell.pop(name) for name in self.extra_columns}
            record = self._built[pos] = MutationRecord(
                codon_number=cell.pop("codon"), **cell, extra=extra
            )
        return record


def parse_codon_number(text: str) -> int:
    """The codon-number spelling: ASCII decimal digits, after an optional
    ``-`` (a record refuses a number below one).

    ``int`` alone would also read ``2_48``, ``+175`` and non-ASCII digits.
    """
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"codon {text!r} is not an integer in ASCII digits")
    return int(text)


def _upper(cell: str) -> str:
    return cell.strip().upper()


# how a column's cell text becomes its value; other columns are trimmed
_READERS = {
    "codon": lambda cell: parse_codon_number(cell.strip()),
    **dict.fromkeys(("wt_codon", "mut_codon", "wt_aa", "mut_aa"), _upper),
}


class _ColumnReader:
    """One column as ``load_db`` reads it. ``memo`` maps each cell text
    read to its code; ``code_of`` gives each distinct value the next code,
    in first-seen order, and ``values`` lists them by code. ``pending``
    holds the codes of the rows read since the last ``pack``."""

    __slots__ = ("read", "memo", "code_of", "values", "pending", "codes")

    def __init__(self, read) -> None:
        self.read = read
        self.memo: dict[str, int] = {}
        self.code_of: dict = {}
        self.values: list = []
        self.pending: list[int] = []
        self.codes = array("B")

    def pack(self) -> None:
        """Move the pending codes into the packed ones, widening their type
        when a code has outgrown it."""
        try:
            self.codes.fromlist(self.pending)
        except OverflowError:
            self.codes = array(_code_type(len(self.values)), self.codes)
            self.codes.fromlist(self.pending)
        self.pending.clear()


# lines are split from the text, and codes packed, a block of about this
# many characters at a time
_BLOCK = 1 << 14


def _blocks(text: str) -> Iterator[list[str]]:
    """``text.splitlines()``, one block of lines at a time. A block ends
    after a ``\n``, which always ends a line, so only one block's lines
    are alive; the text is dropped once its last block is split."""
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start + _BLOCK) + 1 or end
        block = text[start:stop].splitlines()
        if stop == end:
            del text
        yield block
        start = stop


def load_db(path: str | Path) -> Database:
    """Load a TSV mutation database, rejecting any malformed row.

    Codon and amino-acid cells are stripped and upper-cased. Each
    column reads each distinct cell text once, and equal values share
    one code. A record's own checks run once for the first row of each
    distinct (codon, wt_codon, mut_codon, wt_aa, mut_aa) key; only the
    record id is checked on every row.

    Lines are split a block at a time and dropped once read, and a row
    keeps only its record id and one code per cell, packed after each
    block: the file's lines, its values and the finished columns are
    never held whole at once.

    Raises:
        MissingColumnError: a required column is absent from the header.
        BadRowError: a data row is malformed (carries the 1-based line).
        EmptyDatabaseError: the file holds a header but no data rows.
    """
    blocks = _blocks(read_text(path))
    block = next(blocks, [""])
    header_line = block.pop(0)
    if not header_line.strip():
        raise MissingColumnError(REQUIRED_COLUMNS[0])

    header = [h.strip() for h in header_line.split("\t")]
    positions: dict[str, int] = {}
    for pos, name in enumerate(header):
        if name in positions:
            raise BadRowError(1, f"duplicate column {name!r}")
        positions[name] = pos
    for name in REQUIRED_COLUMNS:
        if name not in positions:
            raise MissingColumnError(name)

    id_at = positions.get("record_id")
    stored = {name: _ColumnReader(_READERS.get(name, str.strip))
              for name in header if name != "record_id"}
    cell_readers = [(column.pending, column.memo, column) for column in stored.values()]
    # the fields a record's checks read, in MutationRecord's field order
    key_columns = [stored[name] for name in REQUIRED_COLUMNS[:5]]
    codons, wts, muts, wt_aas, mut_aas = (column.pending for column in key_columns)
    key_values = [column.values for column in key_columns]  # a key's codes -> its values
    record_ids: dict[str, None] = {}  # in file order; smaller than a list and a set
    checked: set[tuple] = set()  # keys whose record checks passed
    line_no = 1
    for block in chain([block], blocks):
        for line_no, line in enumerate(block, start=line_no + 1):
            if not line.strip():
                continue
            cells = line.split("\t")
            if len(cells) != len(header):
                raise BadRowError(
                    line_no, f"expected {len(header)} fields, got {len(cells)}"
                )
            record_id = cells.pop(id_at).strip() if id_at is not None else f"row{line_no}"
            for (pending, memo, column), cell in zip(cell_readers, cells):
                code = memo.get(cell)
                if code is None:
                    try:
                        value = column.read(cell)
                    except ValueError as exc:
                        raise BadRowError(line_no, str(exc)) from None
                    code = column.code_of.get(value)
                    if code is None:
                        code = column.code_of[value] = len(column.values)
                        column.values.append(value)
                    memo[cell] = code
                pending.append(code)

            if record_id in record_ids:
                raise BadRowError(line_no, f"duplicate record_id {record_id!r}")
            record_ids[record_id] = None
            key = (codons[-1], wts[-1], muts[-1], wt_aas[-1], mut_aas[-1])
            if key not in checked or not record_id:
                try:
                    _check_record(record_id, *map(list.__getitem__, key_values, key))
                except ValueError as exc:
                    raise BadRowError(line_no, str(exc)) from None
                checked.add(key)
        for column in stored.values():
            column.pack()
    del block  # the last block's lines, before the columns are finished
    if not record_ids:
        raise EmptyDatabaseError(f"{path}: no data rows")
    columns = {
        name: _Column(tuple(column.values), column.codes) for name, column in stored.items()
    }
    ids = tuple(record_ids)
    del record_ids  # before the index is built
    # the row positions, packed from numpy's bytes: building the array
    # from a range makes and converts one int object per row
    position_type = _code_type(len(ids))
    columns["record_id"] = _Column(
        ids, array(position_type, np.arange(len(ids), dtype=position_type).tobytes())
    )
    if "mutation_event" not in columns:
        columns["mutation_event"] = _Column(("",), array("B", bytes(len(ids))))
    return Database(columns=columns)


@dataclass(frozen=True)
class FilterQuery:
    """Conjunction of per-field equality clauses; no clauses matches all.

    The codon clause compares as an integer; every other clause compares
    as trimmed, case-insensitive text. A bool is no codon (True would
    look up codon 1), and a text clause takes only a str.
    """

    clauses: tuple[tuple[str, int | str], ...] = ()

    def __post_init__(self) -> None:
        fields = [name for name, _ in self.clauses]
        if len(fields) != len(set(fields)):
            raise ValueError("at most one clause per field")
        for name, value in self.clauses:
            if name == "codon":
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValueError(f"codon clause needs an integer, got {value!r}")
            elif not isinstance(value, str):
                raise ValueError(f"{name} clause needs text, got {value!r}")

    @classmethod
    def from_strings(cls, pairs: Iterable[str]) -> "FilterQuery":
        """Build from ``field=value`` strings (the CLI's --where form)."""
        clauses: list[tuple[str, int | str]] = []
        for pair in pairs:
            name, sep, value = pair.partition("=")
            if not sep or not name.strip():
                raise ValueError(f"expected field=value, got {pair!r}")
            name = name.strip()
            clauses.append(
                (name, parse_codon_number(value.strip()) if name == "codon" else value)
            )
        return cls(clauses=tuple(clauses))


@dataclass(frozen=True)
class AnnotationResult:
    matches: tuple[MutationRecord, ...]
    distinct_tumor_types: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "distinct_tumor_types",
            tuple(sorted({r.tumor_type for r in self.matches})),
        )


def query(db: Database, q: FilterQuery) -> AnnotationResult:
    """All records satisfying every clause, in file order.

    Raises:
        UnknownFieldError: a clause names a field absent from the schema.
    """
    for name, _ in q.clauses:
        if name not in db.queryable_fields:
            raise UnknownFieldError(name)

    codon = next((value for name, value in q.clauses if name == "codon"), None)
    rows = np.arange(len(db)) if codon is None else np.array(db.rows_at(codon), np.intp)
    for name, value in q.clauses:
        if name == "codon":
            continue
        column, want = db.columns[name], _norm(value)
        codes = np.frombuffer(column.codes, column.codes.typecode)[rows]
        # each distinct value among the rows left is normalized once
        present = np.flatnonzero(np.bincount(codes)).tolist()
        kept = [code for code in present if _norm(column.values[code]) == want]
        rows = rows[np.isin(codes, kept)]
    return AnnotationResult(tuple(map(db._record, rows.tolist())))


def classify(db: Database, calls: MutationCallSet) -> AnnotationResult | None:
    """Look up every non-silent call by (codon number, mutated codon).

    Returns the hits in file order, None when the database is silent on
    every change. A hit whose wild-type codon disagrees with the call's
    reference codon is kept but flagged with a warning, since databases
    may number against a different transcript. Call codon numbers are
    unique, so each row is visited at most once.
    """
    record_ids, wt_codons = db.columns["record_id"], db.columns["wt_codon"]
    rows: list[int] = []
    for m in calls.mutations:
        if m.kind is MutationKind.SILENT:
            continue
        for pos in db.rows_at(m.codon_number, m.alt_codon):
            wt_codon = wt_codons.values[wt_codons.codes[pos]]
            if wt_codon != m.ref_codon:
                record_id = record_ids.values[record_ids.codes[pos]]
                warnings.warn(
                    f"record {record_id!r} lists wt codon {wt_codon} at "
                    f"codon {m.codon_number}, caller saw {m.ref_codon}",
                    WtCodonMismatchWarning,
                    stacklevel=2,
                )
            rows.append(pos)
    if not rows:
        return None
    return AnnotationResult(tuple(map(db._record, sorted(rows))))
