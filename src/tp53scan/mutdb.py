"""Tab-separated mutation database: loading, filtering, lookup.

The file needs a header row naming at least codon, wt_codon, mut_codon,
wt_aa, mut_aa and tumor_type; other columns ride along as extra fields
and stay queryable. Loading is all-or-nothing: the first bad row
aborts with its line number.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable

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

    def field_text(self, name: str) -> str:
        """Raw text for one queryable field (codon rendered as decimal)."""
        if name == "codon":
            return str(self.codon_number)
        if name in COLUMNS:
            return getattr(self, name)
        return self.extra[name]


@dataclass(frozen=True)
class Database:
    """Immutable record collection with a codon lookup index."""

    records: tuple[MutationRecord, ...]
    extra_columns: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        index: dict[int, list[int]] = {}
        for pos, rec in enumerate(self.records):
            index.setdefault(rec.codon_number, []).append(pos)
        object.__setattr__(
            self, "_codon_index", {k: tuple(v) for k, v in index.items()}
        )

    def __len__(self) -> int:
        return len(self.records)

    @property
    def queryable_fields(self) -> frozenset[str]:
        return frozenset(COLUMNS) | set(self.extra_columns)

    def rows_at_codon(self, codon_number: int) -> tuple[int, ...]:
        return self._codon_index.get(codon_number, ())


def load_db(path: str | Path) -> Database:
    """Load a TSV mutation database, rejecting any malformed row.

    Codon and amino-acid cells are stripped and upper-cased; the
    record's own checks then decide whether the row is well formed.

    Raises:
        MissingColumnError: a required column is absent from the header.
        BadRowError: a data row is malformed (carries the 1-based line).
        EmptyDatabaseError: the file holds a header but no data rows.
    """
    lines = read_text(path).splitlines()
    if not lines or not lines[0].strip():
        raise MissingColumnError(REQUIRED_COLUMNS[0])

    header = [h.strip() for h in lines[0].split("\t")]
    positions: dict[str, int] = {}
    for pos, name in enumerate(header):
        if name in positions:
            raise BadRowError(1, f"duplicate column {name!r}")
        positions[name] = pos
    for name in REQUIRED_COLUMNS:
        if name not in positions:
            raise MissingColumnError(name)
    extra_columns = tuple(name for name in header if name not in COLUMNS)

    records: list[MutationRecord] = []
    seen_ids: set[str] = set()
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) != len(header):
            raise BadRowError(
                line_no, f"expected {len(header)} fields, got {len(cells)}"
            )
        raw_codon = cells[positions["codon"]].strip()
        try:
            codon_number = int(raw_codon)
        except ValueError:
            raise BadRowError(line_no, f"codon {raw_codon!r} is not an integer") from None

        record_id = (
            cells[positions["record_id"]].strip()
            if "record_id" in positions
            else f"row{line_no}"
        )
        if record_id in seen_ids:
            raise BadRowError(line_no, f"duplicate record_id {record_id!r}")
        seen_ids.add(record_id)

        try:
            record = MutationRecord(
                record_id=record_id,
                codon_number=codon_number,
                wt_codon=cells[positions["wt_codon"]].strip().upper(),
                mut_codon=cells[positions["mut_codon"]].strip().upper(),
                wt_aa=cells[positions["wt_aa"]].strip().upper(),
                mut_aa=cells[positions["mut_aa"]].strip().upper(),
                mutation_event=(
                    cells[positions["mutation_event"]].strip()
                    if "mutation_event" in positions
                    else ""
                ),
                tumor_type=cells[positions["tumor_type"]].strip(),
                extra={name: cells[positions[name]].strip() for name in extra_columns},
            )
        except ValueError as exc:
            raise BadRowError(line_no, str(exc)) from None
        records.append(record)
    if not records:
        raise EmptyDatabaseError(f"{path}: no data rows")
    return Database(
        records=tuple(records),
        extra_columns=extra_columns,
    )


@dataclass(frozen=True)
class FilterQuery:
    """Conjunction of per-field equality clauses; no clauses matches all.

    The codon clause compares as an integer; every other clause compares
    as trimmed, case-insensitive text.
    """

    clauses: tuple[tuple[str, int | str], ...] = ()

    def __post_init__(self) -> None:
        fields = [name for name, _ in self.clauses]
        if len(fields) != len(set(fields)):
            raise ValueError("at most one clause per field")
        for name, value in self.clauses:
            if name == "codon" and not isinstance(value, int):
                raise ValueError(f"codon clause needs an integer, got {value!r}")

    @classmethod
    def from_strings(cls, pairs: Iterable[str]) -> "FilterQuery":
        """Build from ``field=value`` strings (the CLI's --where form)."""
        clauses: list[tuple[str, int | str]] = []
        for pair in pairs:
            name, sep, value = pair.partition("=")
            if not sep or not name.strip():
                raise ValueError(f"expected field=value, got {pair!r}")
            name = name.strip()
            if name == "codon":
                # a non-integer passes through for __post_init__ to refuse
                value = value.strip()
                with suppress(ValueError):
                    value = int(value)
            clauses.append((name, value))
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


def _matches(record: MutationRecord, q: FilterQuery) -> bool:
    for name, value in q.clauses:
        if name == "codon":
            if record.codon_number != value:
                return False
        elif _norm(record.field_text(name)) != _norm(str(value)):
            return False
    return True


def query(db: Database, q: FilterQuery) -> AnnotationResult:
    """All records satisfying every clause, in file order.

    Raises:
        UnknownFieldError: a clause names a field absent from the schema.
    """
    for name, _ in q.clauses:
        if name not in db.queryable_fields:
            raise UnknownFieldError(name)

    codon_value = next(
        (value for name, value in q.clauses if name == "codon"), None
    )
    if codon_value is not None:
        candidates = [db.records[pos] for pos in db.rows_at_codon(codon_value)]
    else:
        candidates = list(db.records)
    return AnnotationResult(tuple(rec for rec in candidates if _matches(rec, q)))


def classify(db: Database, calls: MutationCallSet) -> AnnotationResult | None:
    """Look up every non-silent call by (codon number, mutated codon).

    Returns the hits in file order, None when the database is silent on
    every change. A hit whose wild-type codon disagrees with the call's
    reference codon is kept but flagged with a warning, since databases
    may number against a different transcript. Call codon numbers are
    unique, so each row is visited at most once.
    """
    rows: list[int] = []
    for m in calls.mutations:
        if m.kind is MutationKind.SILENT:
            continue
        for pos in db.rows_at_codon(m.codon_number):
            rec = db.records[pos]
            if rec.mut_codon != m.alt_codon:
                continue
            if rec.wt_codon != m.ref_codon:
                warnings.warn(
                    f"record {rec.record_id!r} lists wt codon {rec.wt_codon} at "
                    f"codon {m.codon_number}, caller saw {m.ref_codon}",
                    WtCodonMismatchWarning,
                    stacklevel=2,
                )
            rows.append(pos)
    if not rows:
        return None
    return AnnotationResult(tuple(db.records[pos] for pos in sorted(rows)))
