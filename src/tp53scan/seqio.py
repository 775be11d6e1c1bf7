"""FASTA parsing, validation, and writing for DNA and protein sequences."""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AlphabetMismatchError,
    DuplicateIdError,
    EmptyHeaderError,
    EmptyRecordError,
    IllegalResidueError,
    InputEncodingError,
    MissingHeaderError,
)

DNA_RESIDUES = frozenset("ACGTN")
PROTEIN_RESIDUES = frozenset("ACDEFGHIKLMNPQRSTVWYX*")


class Alphabet(Enum):
    DNA = "dna"
    PROTEIN = "protein"

    @property
    def residues(self) -> frozenset[str]:
        return DNA_RESIDUES if self is Alphabet.DNA else PROTEIN_RESIDUES

    @property
    def word_size(self) -> int:
        """Length of the indexed words: BLASTN's default word for DNA,
        BLASTP's for protein."""
        return 11 if self is Alphabet.DNA else 3


@dataclass(frozen=True)
class Sequence:
    """One identified residue string.

    Residues must already be uppercase and drawn from the declared alphabet;
    parse_fasta performs the normalization. The id is the first
    whitespace-delimited token of the header line and may not contain
    whitespace itself.
    """

    id: str
    description: str
    residues: str
    alphabet: Alphabet

    def __post_init__(self):
        if not self.id or any(c.isspace() for c in self.id):
            raise ValueError(f"sequence id must be a non-empty token, got {self.id!r}")
        if not self.residues:
            raise EmptyRecordError(self.id)
        allowed = self.alphabet.residues
        if not allowed.issuperset(self.residues):
            for i, ch in enumerate(self.residues):
                if ch not in allowed:
                    raise IllegalResidueError(self.id, i + 1, ch, self.alphabet.name)

    def __len__(self) -> int:
        return len(self.residues)

    @cached_property
    def residue_counts(self) -> Mapping[str, int]:
        """Occurrences of each residue, tallied on first use only."""
        return MappingProxyType(Counter(self.residues))

    @cached_property
    def unique_words(self) -> tuple[np.ndarray, np.ndarray]:
        """Words of ``alphabet.word_size`` residues that occur exactly once,
        built on first use only.

        Returns (codes, starts): each word as a base-R integer over the
        sorted alphabet, in ascending order, and the 0-based position
        where it starts, as int32. Both arrays are read-only.
        """
        letters = sorted(self.alphabet.residues)
        k, radix = self.alphabet.word_size, len(letters)
        lookup = np.zeros(256, dtype=np.int64)
        lookup[[ord(c) for c in letters]] = np.arange(radix)
        digits = lookup[np.frombuffer(self.residues.encode("ascii"), dtype=np.uint8)]
        if len(digits) < k:
            codes = np.empty(0, dtype=np.int64)
        else:
            codes = sliding_window_view(digits, k) @ radix ** np.arange(k - 1, -1, -1)
        starts = np.argsort(codes, kind="stable")
        codes = codes[starts]
        # a word is unique when it equals neither sorted neighbour
        repeat = codes[1:] == codes[:-1]
        once = np.ones(len(codes), dtype=bool)
        once[1:] &= ~repeat
        once[:-1] &= ~repeat
        index = codes[once], starts[once].astype(np.int32)
        for array in index:
            array.setflags(write=False)
        return index


def require_dna(seq: Sequence, step: str) -> None:
    """Raise AlphabetMismatchError, naming ``step``, unless ``seq`` is DNA."""
    if seq.alphabet is not Alphabet.DNA:
        raise AlphabetMismatchError(
            f"{step} requires a DNA sequence, record {seq.id!r} is {seq.alphabet.value}"
        )


@dataclass(frozen=True)
class FastaDocument:
    """Ordered FASTA records with unique ids."""

    records: tuple[Sequence, ...]

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        seen: set[str] = set()
        for rec in self.records:
            if rec.id in seen:
                raise DuplicateIdError(rec.id)
            seen.add(rec.id)

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index: int) -> Sequence:
        return self.records[index]


def parse_fasta(text: str | bytes, alphabet: Alphabet) -> FastaDocument:
    """Parse FASTA text into validated records.

    Lowercase residues are uppercased, internal whitespace inside sequence
    lines is dropped, \\r\\n line endings are accepted, and blank lines are
    ignored. Bytes are decoded as read_text decodes a file. Raises
    InputEncodingError, MissingHeaderError or EmptyHeaderError; the records'
    own checks raise EmptyRecordError, IllegalResidueError (record id,
    1-based position in the joined residues) and, at the end,
    DuplicateIdError.
    """
    if isinstance(text, bytes):
        text = _decode(text, "<bytes>")

    records: list[Sequence] = []
    header: tuple[str, str] | None = None
    chunks: list[str] = []

    def flush():
        nonlocal header, chunks
        if header is None:
            return
        rec_id, desc = header
        records.append(Sequence(rec_id, desc, "".join(chunks), alphabet))
        header = None
        chunks = []

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            head = line[1:].strip()
            if not head:
                raise EmptyHeaderError("header line carries no id")
            parts = head.split(None, 1)
            rec_id = parts[0]
            desc = parts[1].strip() if len(parts) > 1 else ""
            header = (rec_id, desc)
        else:
            if header is None:
                raise MissingHeaderError("sequence data before any '>' header")
            # whitespace inside a sequence line is dropped, not an error
            chunks.append("".join(line.split()).upper())

    flush()
    if not records:
        raise MissingHeaderError("input contains no FASTA records")
    return FastaDocument(tuple(records))


def write_fasta(doc: FastaDocument, width: int = 60) -> str:
    """Render a document as FASTA text, wrapping residues at `width` columns.

    parse_fasta(write_fasta(doc)) reproduces ids, descriptions, residues,
    and record order exactly.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    parts: list[str] = []
    for rec in doc.records:
        parts.append(f">{rec.id} {rec.description}".rstrip() + "\n")
        for i in range(0, len(rec.residues), width):
            parts.append(rec.residues[i : i + width] + "\n")
    return "".join(parts)


def _decode(data: bytes, source: str) -> str:
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is the input after any mark, which holds no newline
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise InputEncodingError(
            f"{source}:{line}: byte 0x{exc.object[exc.start]:02x} is not UTF-8"
        ) from None


def read_text(path: str | Path) -> str:
    """The whole text of an input file, decoded as UTF-8; a leading
    byte-order mark is dropped. FASTA files, the store manifest and the
    mutation database are all read through here.

    Raises:
        InputEncodingError: the file is not UTF-8 (names the path and line).
    """
    return _decode(Path(path).read_bytes(), str(path))


def read_fasta(path: str | Path, alphabet: Alphabet) -> FastaDocument:
    return parse_fasta(read_text(path), alphabet)
