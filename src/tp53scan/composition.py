"""Nucleotide composition summaries and the GC-content acceptance gate.

GC percentage is computed over determined bases only: ``N`` counts toward
the sequence length but never toward the numerator or the denominator.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType

from .errors import AllAmbiguousError
from .seqio import DNA_RESIDUES, Sequence, require_dna

DEFAULT_GC_THRESHOLD = 38.0


class GateDecision(Enum):
    ACCEPT = "Accept"
    REJECT = "Reject"


@dataclass(frozen=True)
class CompositionReport:
    """Base tallies for one DNA sequence.

    Built from ``counts`` alone, which must hold a non-negative count
    for each of ``ACGTN``. ``gc_percent`` and ``at_percent`` are
    percentages of the determined (non-``N``) bases, so they always sum
    to 100 up to rounding; ``length`` counts every base. ``counts`` is
    kept as a read-only copy, so the derived values cannot go stale.
    """

    counts: Mapping[str, int]
    gc_percent: float = field(init=False)
    at_percent: float = field(init=False)
    length: int = field(init=False)

    def __post_init__(self) -> None:
        counts = MappingProxyType(dict(self.counts))
        object.__setattr__(self, "counts", counts)
        if counts.keys() != DNA_RESIDUES or min(counts.values()) < 0:
            raise ValueError(f"counts must be non-negative, for ACGTN only: {dict(counts)}")
        gc, at = counts["G"] + counts["C"], counts["A"] + counts["T"]
        if gc + at == 0:
            raise ValueError("counts hold no determined bases")
        # multiply before dividing so round fractions come out exact
        # (38 GC in 100 determined bases must equal the 38.0 threshold)
        object.__setattr__(self, "gc_percent", 100.0 * gc / (gc + at))
        object.__setattr__(self, "at_percent", 100.0 * at / (gc + at))
        object.__setattr__(self, "length", gc + at + counts["N"])


def composition(seq: Sequence) -> CompositionReport:
    """Tally bases and compute GC% over the determined positions.

    Raises:
        AlphabetMismatchError: if ``seq`` is not a DNA sequence.
        AllAmbiguousError: if every base is ``N`` (the report's own
            check, with the record named).
    """
    require_dna(seq, "composition")
    tally = seq.residue_counts
    try:
        return CompositionReport(counts={base: tally.get(base, 0) for base in "ACGTN"})
    except ValueError as exc:
        raise AllAmbiguousError(f"record {seq.id!r}: {exc}") from None


def check_threshold(threshold_percent: float) -> None:
    """Raise ValueError unless a GC threshold lies within [0, 100]."""
    if not 0.0 <= threshold_percent <= 100.0:
        raise ValueError(f"threshold must be within [0, 100], got {threshold_percent}")


def reference_gate(
    report: CompositionReport,
    threshold_percent: float = DEFAULT_GC_THRESHOLD,
) -> GateDecision:
    """Accept a candidate reference iff its GC% meets the threshold.

    The boundary is inclusive: a report at exactly ``threshold_percent``
    is accepted.
    """
    check_threshold(threshold_percent)
    if report.gc_percent >= threshold_percent:
        return GateDecision.ACCEPT
    return GateDecision.REJECT
