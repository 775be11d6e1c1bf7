"""Domain exceptions raised across the toolkit.

Every error a caller is expected to handle derives from ScanError, so the
CLI (and library users) can catch one base class and report the concrete
error by name.
"""

from __future__ import annotations


class ScanError(Exception):
    """Base class for all domain errors raised by this package."""


# --- input files


class InputEncodingError(ScanError):
    """An input file is not UTF-8 text. The message names the file and line."""


# --- FASTA parsing


class MissingHeaderError(ScanError):
    """Sequence data appeared before any '>' header line."""


class EmptyHeaderError(ScanError):
    """A '>' header line carries no id token."""


class EmptyRecordError(ScanError):
    """A header with no residue lines following it."""

    def __init__(self, record_id: str):
        self.record_id = record_id
        super().__init__(f"record {record_id!r} has no residues")


class IllegalResidueError(ScanError):
    """A residue outside the declared alphabet. Position is 1-based in the concatenated residue string."""

    def __init__(self, record_id: str, position: int, residue: str, alphabet: str):
        self.record_id = record_id
        self.position = position
        self.residue = residue
        super().__init__(
            f"record {record_id!r}: illegal {alphabet} residue {residue!r} at position {position}"
        )


class DuplicateIdError(ScanError):
    def __init__(self, record_id: str):
        self.record_id = record_id
        super().__init__(f"duplicate record id {record_id!r}")


class AlphabetMismatchError(ScanError, ValueError):
    """A sequence's alphabet does not fit the step it was given to."""


# --- composition


class AllAmbiguousError(ScanError):
    """Composition is undefined: the sequence contains no determined (non-N) base."""


# --- alignment


class AlignmentTooLargeError(ScanError):
    """The alignment band would need more cells than the fixed limit, or
    its scores could leave the range its cells hold exactly."""


# --- translation


class TooShortError(ScanError):
    """Fewer than one full codon remains after the frame offset."""


class OutOfRangeError(ScanError):
    """Requested codon number lies beyond the end of the sequence."""


# --- mutation database


class MissingColumnError(ScanError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"required column {name!r} missing from header")


class BadRowError(ScanError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class EmptyDatabaseError(ScanError):
    pass


class UnknownFieldError(ScanError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown filter field {name!r}")


# --- reference store


class ManifestError(ScanError):
    pass


class GeneNotFoundError(ScanError):
    def __init__(self, gene: str):
        self.gene = gene
        super().__init__(f"no reference entries for gene {gene!r}")


# --- pipeline


class NoReferenceAcceptedError(ScanError):
    """Every candidate reference failed the GC gate. Carries the full gate trace."""

    def __init__(self, gate_trace):
        self.gate_trace = tuple(gate_trace)
        tried = ", ".join(f"{a.source}={a.gc_percent:.2f}%" for a in self.gate_trace)
        super().__init__(f"no reference passed the GC gate (tried: {tried})")


class NotInFrameError(ScanError):
    """Subject length is not a multiple of 3 and partial codons were not allowed."""


class ReportFormatError(ScanError, ValueError):
    """A serialized report is malformed: missing key, wrong type or failed check."""


# --- CLI-level input validation


class RecordCountError(ScanError):
    """A FASTA input holds the wrong number of records for this command."""
