"""End-to-end prediction: gate a reference, diff, translate, look up.

The verdict space: NoRisk (DNA identical), SilentOnly (DNA differs but
the protein does not), UnknownCancer (protein changed, database silent),
PreCancerMatch (at least one change has database support). Every
reference candidate the gate saw is logged, accepted or not, so reports
show why a fallback source was used.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from typing import Any

from .composition import (
    DEFAULT_GC_THRESHOLD,
    CompositionReport,
    GateDecision,
    check_threshold,
    composition,
    reference_gate,
)
from .codec import from_dict, to_dict
from .errors import (
    NoReferenceAcceptedError,
    NotInFrameError,
    ReportFormatError,
    ScanError,
    TooShortError,
)
from .mutcall import MutationCallSet, call_mutations, protein_differs
from .mutdb import AnnotationResult, Database, classify
from .refstore import ReferenceEntry, ReferenceStore, best_homolog
from .seqio import Alphabet, Sequence, require_dna

TOOL_VERSION = "0.1.0"

REPORT_VERSION = 1


class PartialSubjectWarning(UserWarning):
    """Subject length was not a codon multiple; the tail was dropped."""


class VerdictKind(Enum):
    NO_RISK = "NoRisk"
    SILENT_ONLY = "SilentOnly"
    UNKNOWN_CANCER = "UnknownCancer"
    PRE_CANCER_MATCH = "PreCancerMatch"


@dataclass(frozen=True)
class ReferenceDescriptor:
    """Identity of the accepted reference, without the sequence body."""

    gene: str
    source: str
    sequence_id: str
    length: int
    priority: int

    @classmethod
    def from_entry(cls, entry: ReferenceEntry) -> "ReferenceDescriptor":
        return cls(
            gene=entry.gene,
            source=entry.source,
            sequence_id=entry.sequence.id,
            length=len(entry.sequence),
            priority=entry.priority,
        )


@dataclass(frozen=True)
class GateAttempt:
    source: str
    gc_percent: float
    decision: GateDecision


@dataclass(frozen=True)
class Verdict:
    """``kind`` is derived from the calls and the annotations, by the
    rules in the module docstring."""

    kind: VerdictKind = field(init=False)
    mutations: MutationCallSet
    annotations: AnnotationResult | None
    reference_used: ReferenceDescriptor = field(metadata={"wire": "reference"})
    gc_report: CompositionReport = field(metadata={"wire": "gc"})
    gate_trace: tuple[GateAttempt, ...]

    def __post_init__(self) -> None:
        changed = protein_differs(self.mutations)
        if self.annotations is not None and not (changed and self.annotations.matches):
            raise ValueError(
                "annotations need a protein-level change and at least one match"
            )
        if not self.gate_trace:
            raise ValueError("gate trace cannot be empty")
        last = self.gate_trace[-1]
        if last.decision is not GateDecision.ACCEPT or any(
            a.decision is not GateDecision.REJECT for a in self.gate_trace[:-1]
        ):
            raise ValueError("gate trace must be zero or more Rejects then one Accept")
        if (last.source, last.gc_percent) != (
            self.reference_used.source,
            self.gc_report.gc_percent,
        ):
            raise ValueError(
                "the gate trace's Accept must name the reference used and its GC"
            )
        if self.mutations.dna_identical:
            kind = VerdictKind.NO_RISK
        elif not changed:
            kind = VerdictKind.SILENT_ONLY
        elif self.annotations is not None:
            kind = VerdictKind.PRE_CANCER_MATCH
        else:
            kind = VerdictKind.UNKNOWN_CANCER
        object.__setattr__(self, "kind", kind)


@dataclass(frozen=True)
class PredictionReport:
    verdict: Verdict
    subject_id: str
    generated_at: str
    tool_version: str = TOOL_VERSION


@dataclass(frozen=True)
class PipelineConfig:
    gc_threshold: float = DEFAULT_GC_THRESHOLD
    allow_partial: bool = False

    def __post_init__(self) -> None:
        check_threshold(self.gc_threshold)


def _frame_check(subject: Sequence, allow_partial: bool) -> Sequence:
    if len(subject) < 3:
        raise TooShortError(
            f"record {subject.id!r}: {len(subject)} residues, need >= 3"
        )
    leftover = len(subject) % 3
    if leftover == 0:
        return subject
    if not allow_partial:
        raise NotInFrameError(
            f"record {subject.id!r}: length {len(subject)} is not a codon "
            f"multiple (pass allow_partial to truncate)"
        )
    warnings.warn(
        f"record {subject.id!r}: dropping {leftover} trailing residue(s)",
        PartialSubjectWarning,
        stacklevel=3,
    )
    return Sequence(
        id=subject.id,
        description=subject.description,
        residues=subject.residues[: len(subject) - leftover],
        alphabet=Alphabet.DNA,
    )


def predict(
    store: ReferenceStore,
    db: Database,
    subject: Sequence,
    gene: str,
    config: PipelineConfig = PipelineConfig(),
) -> PredictionReport:
    """Run the whole prediction for one subject CDS.

    Every entry for ``gene`` is put through the GC gate once, before any
    alignment. Candidates are then ranked by similarity and walked in
    rank order; the first accepted entry becomes the reference, and the
    gate trace logs each entry walked, up to and including it. Ranking
    is given the accepted entries, so it only returns the ranking as far
    as that reference. Each candidate is aligned once, while ranking;
    mutations are called at DNA level from the reference's alignment,
    and ``classify`` looks the whole call set up in the database in one
    pass: every non-silent call is looked up (no early exit), and the
    hits come back once each, in file order.

    Raises:
        AlphabetMismatchError: the subject is not DNA.
        TooShortError: the subject has fewer than 3 bases.
        NotInFrameError: subject length is not a codon multiple and
            config.allow_partial is off.
        GeneNotFoundError: the store has no entry for ``gene``.
        AlignmentTooLargeError: an entry/subject band exceeds the cell cap.
        AllAmbiguousError: an all-``N`` entry, only where the walk
            reaches it (it ranks above the first accepted entry).
        NoReferenceAcceptedError: every candidate failed the GC gate.
    """
    require_dna(subject, "predict")
    subject_used = _frame_check(subject, config.allow_partial)

    gated: dict[ReferenceEntry, tuple[CompositionReport, GateDecision] | ScanError] = {}
    for entry in store.entries_for(gene):
        try:
            report = composition(entry.sequence)
            gated[entry] = report, reference_gate(report, config.gc_threshold)
        except ScanError as exc:
            gated[entry] = exc
    admitted = {
        entry
        for entry, outcome in gated.items()
        if not isinstance(outcome, ScanError) and outcome[1] is GateDecision.ACCEPT
    }

    trace: list[GateAttempt] = []
    for candidate in best_homolog(store, subject_used, gene, admitted):
        outcome = gated[candidate.entry]
        if isinstance(outcome, ScanError):
            raise outcome
        gc_report, decision = outcome
        trace.append(GateAttempt(candidate.entry.source, gc_report.gc_percent, decision))
        if decision is GateDecision.ACCEPT:
            break
    else:
        raise NoReferenceAcceptedError(tuple(trace))

    calls = call_mutations(candidate.alignment)
    verdict = Verdict(
        mutations=calls,
        annotations=classify(db, calls),
        reference_used=ReferenceDescriptor.from_entry(candidate.entry),
        gc_report=gc_report,
        gate_trace=tuple(trace),
    )
    return PredictionReport(
        verdict=verdict,
        subject_id=subject.id,
        generated_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )


def report_to_dict(report: PredictionReport) -> dict[str, Any]:
    """Serialize to the versioned tree format (JSON-compatible)."""
    return {"report_version": REPORT_VERSION, **to_dict(report)}


def report_from_dict(payload: dict[str, Any]) -> PredictionReport:
    """Rebuild a report from its serialized form, re-running validation.

    Raises:
        ReportFormatError: unknown report_version or malformed payload.
    """
    version = payload.get("report_version") if isinstance(payload, dict) else None
    if type(version) is not int or version != REPORT_VERSION:
        raise ReportFormatError(f"unsupported report_version {version!r}")
    return from_dict(PredictionReport, payload)


def render_calls(calls: MutationCallSet) -> list[str]:
    """The text form of a call set, one line per item."""
    lines = [
        f"dna_identical: {str(calls.dna_identical).lower()}",
        f"has_indel: {str(calls.has_indel).lower()}",
    ]
    if calls.mutations:
        lines.append("mutations:")
        lines.extend(f"  {m.summary()}" for m in calls.mutations)
    else:
        lines.append("mutations: none")
    return lines


def render_matches(result: AnnotationResult | None) -> list[str]:
    """The text form of database matches; ``None`` reads as no match."""
    matches = result.matches if result is not None else ()
    lines = [f"database matches: {len(matches)}"]
    lines.extend(
        f"  {r.record_id}  codon {r.codon_number}  {r.wt_codon}>{r.mut_codon}  "
        f"{r.wt_aa}>{r.mut_aa}  {r.tumor_type}"
        for r in matches
    )
    if matches:
        lines.append("tumor types: " + "; ".join(result.distinct_tumor_types))
    return lines


def render_text(report: PredictionReport) -> str:
    """Human-readable rendering of one report."""
    v = report.verdict
    ref = v.reference_used
    lines = [
        f"subject: {report.subject_id}",
        f"verdict: {v.kind.value}",
        f"reference: {ref.gene} via {ref.source} "
        f"(record {ref.sequence_id}, {ref.length} nt, priority {ref.priority})",
        f"reference GC: {v.gc_report.gc_percent:.2f}%",
        "gate trace:",
        *(f"  {a.source}: {a.gc_percent:.2f}% {a.decision.value}" for a in v.gate_trace),
        *render_calls(v.mutations),
        *render_matches(v.annotations),
        f"generated: {report.generated_at} (tool {report.tool_version})",
    ]
    return "\n".join(lines) + "\n"
