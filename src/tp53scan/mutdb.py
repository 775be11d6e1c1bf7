"""Tab-separated mutation database: loading, filtering, lookup.

The file needs a header row naming at least codon, wt_codon, mut_codon,
wt_aa, mut_aa and tumor_type; other columns ride along as extra fields
and stay queryable. Loading is all-or-nothing: the first bad row
aborts with its line number.

A loaded database is held as columns, so each rule runs once per
distinct value and a row becomes a ``MutationRecord`` only when a
lookup returns it.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from types import MappingProxyType

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
        if not self.record_id:
            raise ValueError("empty record_id")
        if self.codon_number < 1:
            raise ValueError(f"codon_number >= 1 violated: {self.codon_number}")
        check_codon("wt_codon", self.wt_codon)
        check_codon("mut_codon", self.mut_codon)
        if self.wt_codon == self.mut_codon:
            raise ValueError(f"record {self.record_id!r}: wt and mut codons are equal")
        for name in ("wt_aa", "mut_aa"):
            aa = getattr(self, name)
            if aa not in PROTEIN_RESIDUES:
                raise ValueError(f"{name} must be one amino-acid letter, got {aa!r}")


@dataclass(frozen=True)
class Database:
    """A mutation database held as columns, one tuple per queryable field.

    ``columns`` holds each field's values in file order: ``codon`` as
    ints, every other field as trimmed text, with codons and amino acids
    upper-cased. It holds every field of ``COLUMNS``; ``extra_columns``
    names the others, in the mapping's order. Rows are indexed by
    (codon, mut_codon). A row becomes a ``MutationRecord`` only when a
    lookup or ``records`` returns it, and that record is kept for the
    next request.
    """

    columns: Mapping[str, Sequence]
    extra_columns: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        columns = {name: tuple(values) for name, values in self.columns.items()}
        lengths = {len(values) for values in columns.values()}
        if not columns.keys() >= set(COLUMNS) or len(lengths) != 1:
            raise ValueError("columns must hold the schema's fields, all of one length")
        extra = tuple(name for name in columns if name not in COLUMNS)
        object.__setattr__(self, "extra_columns", extra)
        index: dict[int, dict[str, list[int]]] = {}
        for pos, (codon, mut) in enumerate(zip(columns["codon"], columns["mut_codon"])):
            index.setdefault(codon, {}).setdefault(mut, []).append(pos)
        object.__setattr__(self, "columns", MappingProxyType(columns))
        object.__setattr__(self, "_index", {
            codon: {mut: tuple(rows) for mut, rows in by_mut.items()}
            for codon, by_mut in index.items()
        })
        object.__setattr__(self, "_built", {})

    def __len__(self) -> int:
        return len(self.columns["codon"])

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
        by_mut = self._index.get(codon, {})
        if mut_codon is not None:
            return by_mut.get(mut_codon, ())
        return sorted(chain.from_iterable(by_mut.values()))

    def _record(self, pos: int) -> MutationRecord:
        record = self._built.get(pos)
        if record is None:
            cell = {name: values[pos] for name, values in self.columns.items()}
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


def load_db(path: str | Path) -> Database:
    """Load a TSV mutation database, rejecting any malformed row.

    Codon and amino-acid cells are stripped and upper-cased. Each
    column reads each distinct cell text once, and equal cells share
    one value. A record's own checks run once for the first row of each
    distinct (codon, wt_codon, mut_codon, wt_aa, mut_aa) key; only the
    record id is checked on every row.

    Raises:
        MissingColumnError: a required column is absent from the header.
        BadRowError: a data row is malformed (carries the 1-based line).
        EmptyDatabaseError: the file holds a header but no data rows.
    """
    lines = iter(read_text(path).splitlines())
    header_line = next(lines, "")
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
    stored = [name for name in header if name != "record_id"]
    columns: dict[str, list] = {name: [] for name in stored}
    # per stored column: its values, and a memo from cell text to value
    readers = [(columns[name], {}, _READERS.get(name, str.strip)) for name in stored]
    # the fields a record's checks read, in MutationRecord's field order
    codons, wts, muts, wt_aas, mut_aas = (columns[name] for name in REQUIRED_COLUMNS[:5])
    record_ids: list[str] = []
    seen_ids: set[str] = set()
    checked: set[tuple] = set()  # keys whose record checks passed
    for line_no, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) != len(header):
            raise BadRowError(
                line_no, f"expected {len(header)} fields, got {len(cells)}"
            )
        record_id = cells.pop(id_at).strip() if id_at is not None else f"row{line_no}"
        for (values, memo, read), cell in zip(readers, cells):
            value = memo.get(cell)
            if value is None:
                try:
                    value = memo[cell] = read(cell)
                except ValueError as exc:
                    raise BadRowError(line_no, str(exc)) from None
            values.append(value)

        if record_id in seen_ids:
            raise BadRowError(line_no, f"duplicate record_id {record_id!r}")
        seen_ids.add(record_id)
        record_ids.append(record_id)
        key = (codons[-1], wts[-1], muts[-1], wt_aas[-1], mut_aas[-1])
        if key not in checked or not record_id:
            try:
                MutationRecord(record_id, *key, mutation_event="", tumor_type="")
            except ValueError as exc:
                raise BadRowError(line_no, str(exc)) from None
            checked.add(key)
    if not record_ids:
        raise EmptyDatabaseError(f"{path}: no data rows")
    columns["record_id"] = record_ids
    columns.setdefault("mutation_event", ("",) * len(record_ids))
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
    rows: Sequence[int] = range(len(db)) if codon is None else db.rows_at(codon)
    for name, value in q.clauses:
        if name == "codon":
            continue
        column, want = db.columns[name], _norm(value)
        # each distinct value among the rows left is normalized once
        kept = {text for text in {column[pos] for pos in rows} if _norm(text) == want}
        rows = [pos for pos in rows if column[pos] in kept]
    return AnnotationResult(tuple(map(db._record, rows)))


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
            if wt_codons[pos] != m.ref_codon:
                warnings.warn(
                    f"record {record_ids[pos]!r} lists wt codon {wt_codons[pos]} at "
                    f"codon {m.codon_number}, caller saw {m.ref_codon}",
                    WtCodonMismatchWarning,
                    stacklevel=2,
                )
            rows.append(pos)
    if not rows:
        return None
    return AnnotationResult(tuple(map(db._record, sorted(rows))))
