"""Local store of candidate normal reference sequences.

Stands in for a remote homology search: FASTA files under one directory
plus a ``manifest.tsv`` naming each entry's file, gene, source label and
fallback priority. Candidates for a gene are ranked by alignment score
against the query, best first, with priority breaking ties. Each ranked
candidate keeps its alignment, so calling can reuse it. A caller that
passes the entries its reference gate admits gets the ranking only as
far as the first of them.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from pathlib import Path

from .alignment import DNA_SCHEME, AlignmentResult, align_global
from .errors import GeneNotFoundError, ManifestError
from .seqio import Alphabet, Sequence, read_fasta, read_text

MANIFEST_NAME = "manifest.tsv"
MANIFEST_COLUMNS = ("file", "gene", "source", "priority")


@dataclass(frozen=True)
class ReferenceEntry:
    source: str
    gene: str
    sequence: Sequence
    priority: int

    def __post_init__(self) -> None:
        if not self.gene.strip():
            raise ValueError("gene must be non-empty")
        if not self.source.strip():
            raise ValueError("source must be non-empty")


@dataclass(frozen=True)
class RankedCandidate:
    """A store entry with its ranking alignment against the query.

    The alignment pairs the whole entry (first row) with the whole
    query (second row), the orientation mutation calling uses.
    """

    entry: ReferenceEntry
    alignment: AlignmentResult


@dataclass(frozen=True)
class ReferenceStore:
    entries: tuple[ReferenceEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def entries_for(self, gene: str) -> tuple[ReferenceEntry, ...]:
        return tuple(e for e in self.entries if e.gene == gene)


def load_store(directory: str | Path) -> ReferenceStore:
    """Read manifest.tsv and every FASTA file it lists.

    Each listed FASTA must hold exactly one DNA record. Duplicate
    (gene, source) pairs are rejected; FASTA parse errors propagate.

    Raises:
        ManifestError: bad or missing manifest, missing file, dup or blank entry.
    """
    root = Path(directory)
    manifest = root / MANIFEST_NAME
    if not manifest.is_file():
        raise ManifestError(f"{manifest}: manifest not found")

    lines = read_text(manifest).splitlines()
    if not lines or not lines[0].strip():
        raise ManifestError(f"{manifest}: empty manifest")
    header = tuple(h.strip() for h in lines[0].split("\t"))
    if header != MANIFEST_COLUMNS:
        raise ManifestError(
            f"{manifest}: header must be {' '.join(MANIFEST_COLUMNS)}, "
            f"got {' '.join(header)}"
        )

    entries: list[ReferenceEntry] = []
    seen: set[tuple[str, str]] = set()
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split("\t")]
        if len(cells) != len(MANIFEST_COLUMNS):
            raise ManifestError(
                f"{manifest}:{line_no}: expected {len(MANIFEST_COLUMNS)} fields"
            )
        file_name, gene, source, raw_priority = cells
        try:
            priority = int(raw_priority)
        except ValueError:
            raise ManifestError(
                f"{manifest}:{line_no}: priority {raw_priority!r} is not an integer"
            ) from None
        if (gene, source) in seen:
            raise ManifestError(
                f"{manifest}:{line_no}: duplicate entry for ({gene}, {source})"
            )
        seen.add((gene, source))

        fasta_path = root / file_name
        if not fasta_path.is_file():
            raise ManifestError(f"{manifest}:{line_no}: file {file_name!r} not found")
        doc = read_fasta(fasta_path, Alphabet.DNA)
        if len(doc) != 1:
            raise ManifestError(
                f"{manifest}:{line_no}: {file_name!r} must hold exactly one "
                f"record, found {len(doc)}"
            )
        try:
            entries.append(ReferenceEntry(source, gene, doc[0], priority))
        except ValueError as exc:
            raise ManifestError(f"{manifest}:{line_no}: {exc}") from None
    if not entries:
        raise ManifestError(f"{manifest}: no entries")
    return ReferenceStore(entries=tuple(entries))


def best_homolog(
    store: ReferenceStore,
    query: Sequence,
    gene: str,
    admitted: Collection[ReferenceEntry] = (),
) -> tuple[RankedCandidate, ...]:
    """Rank a gene's entries by similarity to the query, best first.

    Scores come from global alignment of each whole entry against the
    whole query under ``DNA_SCHEME``, the one scheme ranking and calling
    use; the score does not depend on the order. Ties go to the
    lower priority number; remaining ties keep manifest order.

    Given the ``admitted`` entries (those the caller's reference gate
    accepts), only the ranking through the first admitted entry is
    returned, exact, or every entry if none is admitted. Entries are
    aligned in priority order, manifest order breaking ties. The
    best-ranked admitted entry so far is the leader, and each later
    entry is aligned with the leader's score as its floor: one that
    cannot reach it ranks below the leader, so it is dropped without a
    traceback.

    Raises:
        GeneNotFoundError: the store has no entry for ``gene``.
        AlignmentTooLargeError: an entry/query band exceeds the cell cap.
    """
    candidates = store.entries_for(gene)
    if not candidates:
        raise GeneNotFoundError(gene)

    def rank(c: RankedCandidate) -> tuple[int, int]:
        return -c.alignment.score, c.entry.priority

    ranked: list[RankedCandidate] = []
    leader: RankedCandidate | None = None
    for entry in sorted(candidates, key=lambda e: e.priority):
        floor = None if leader is None else leader.alignment.score
        alignment = align_global(entry.sequence, query, DNA_SCHEME, floor=floor)
        if alignment is None:
            continue
        candidate = RankedCandidate(entry, alignment)
        ranked.append(candidate)
        if entry in admitted and (leader is None or rank(candidate) < rank(leader)):
            leader = candidate
    ranked.sort(key=rank)
    if leader is not None:
        del ranked[ranked.index(leader) + 1 :]
    return tuple(ranked)

