"""Local store of candidate normal reference sequences.

Stands in for a remote homology search: FASTA files under one directory
plus a ``manifest.tsv`` naming each entry's file, gene, source label and
fallback priority. Candidates for a gene are ranked by alignment score
against the query, best first, with priority breaking ties. Each ranked
candidate keeps its alignment, so calling can reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .alignment import DNA_SCHEME, AlignmentResult, ScoringScheme, align_global
from .errors import GeneNotFoundError, ManifestError
from .seqio import Alphabet, Sequence, read_fasta

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

    def genes(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for entry in self.entries:
            seen.setdefault(entry.gene)
        return tuple(seen)

    def entries_for(self, gene: str) -> tuple[ReferenceEntry, ...]:
        return tuple(e for e in self.entries if e.gene == gene)


def load_store(directory: str | Path) -> ReferenceStore:
    """Read manifest.tsv and every FASTA file it lists.

    Each listed FASTA must hold exactly one DNA record. Duplicate
    (gene, source) pairs are rejected; FASTA parse errors propagate.

    Raises:
        ManifestError: missing/malformed manifest, missing file, dup entry.
    """
    root = Path(directory)
    manifest = root / MANIFEST_NAME
    if not manifest.is_file():
        raise ManifestError(f"{manifest}: manifest not found")

    lines = manifest.read_text(encoding="utf-8-sig").splitlines()
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
        entries.append(
            ReferenceEntry(source=source, gene=gene, sequence=doc[0], priority=priority)
        )
    if not entries:
        raise ManifestError(f"{manifest}: no entries")
    return ReferenceStore(entries=tuple(entries))


def best_homolog(
    store: ReferenceStore,
    query: Sequence,
    gene: str,
    scheme: ScoringScheme = DNA_SCHEME,
) -> tuple[RankedCandidate, ...]:
    """Rank a gene's entries by similarity to the query, best first.

    Scores come from global alignment of each whole entry against the
    whole query; the score does not depend on the order. Ties go to the
    lower priority number; remaining ties keep manifest order.

    Raises:
        GeneNotFoundError: the store has no entry for ``gene``.
        AlignmentTooLargeError: an entry/query band exceeds the cell cap.
    """
    candidates = store.entries_for(gene)
    if not candidates:
        raise GeneNotFoundError(gene)

    ranked = [
        RankedCandidate(entry, align_global(entry.sequence, query, scheme))
        for entry in candidates
    ]
    ranked.sort(key=lambda c: (-c.alignment.score, c.entry.priority))
    return tuple(ranked)
