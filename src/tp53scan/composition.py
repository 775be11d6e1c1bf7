"""Nucleotide composition summaries and the GC-content acceptance gate.

GC percentage is computed over determined bases only: ``N`` counts toward
the sequence length but never toward the numerator or the denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import AllAmbiguousError
from .seqio import Alphabet, Sequence

DEFAULT_GC_THRESHOLD = 38.0


class GateDecision(Enum):
    ACCEPT = "Accept"
    REJECT = "Reject"


@dataclass(frozen=True)
class CompositionReport:
    """Base tallies for one DNA sequence.

    ``gc_percent`` and ``at_percent`` are percentages of the determined
    (non-``N``) bases, so they always sum to 100 up to rounding.
    """

    counts: dict[str, int]
    gc_percent: float
    at_percent: float
    length: int


def composition(seq: Sequence) -> CompositionReport:
    """Tally bases and compute GC% over the determined positions.

    Raises:
        ValueError: if ``seq`` is not a DNA sequence.
        AllAmbiguousError: if every base is ``N``.
    """
    if seq.alphabet is not Alphabet.DNA:
        raise ValueError(f"composition requires a DNA sequence, got {seq.alphabet.value}")

    tally = seq.residue_counts
    counts = {base: tally.get(base, 0) for base in "ACGTN"}
    determined = counts["A"] + counts["C"] + counts["G"] + counts["T"]
    if determined == 0:
        raise AllAmbiguousError(
            f"record {seq.id!r} contains no determined bases (all N)"
        )

    # multiply before dividing so round fractions come out exact
    # (38 GC in 100 determined bases must equal the 38.0 threshold)
    gc = 100.0 * (counts["G"] + counts["C"]) / determined
    at = 100.0 * (counts["A"] + counts["T"]) / determined
    return CompositionReport(
        counts=counts,
        gc_percent=gc,
        at_percent=at,
        length=len(seq),
    )


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
