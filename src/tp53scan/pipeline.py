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

from .alignment import DNA_SCHEME, ScoringScheme
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
    TooShortError,
)
from .mutcall import MutationCallSet, MutationKind, call_mutations, protein_differs
from .mutdb import AnnotationResult, Database, classify
from .refstore import RankedCandidate, ReferenceEntry, ReferenceStore, best_homolog
from .seqio import Alphabet, Sequence

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
    kind: VerdictKind
    mutations: MutationCallSet
    annotations: AnnotationResult | None
    reference_used: ReferenceDescriptor = field(metadata={"wire": "reference"})
    gc_report: CompositionReport = field(metadata={"wire": "gc"})
    gate_trace: tuple[GateAttempt, ...]

    def __post_init__(self) -> None:
        if self.kind is VerdictKind.NO_RISK and not self.mutations.dna_identical:
            raise ValueError("NoRisk requires identical DNA")
        if self.kind is VerdictKind.SILENT_ONLY and protein_differs(self.mutations):
            raise ValueError("SilentOnly allows only silent substitutions")
        if self.kind is VerdictKind.PRE_CANCER_MATCH:
            if self.annotations is None or not self.annotations.matches:
                raise ValueError("PreCancerMatch requires non-empty annotations")
        if self.kind is VerdictKind.UNKNOWN_CANCER:
            if not protein_differs(self.mutations):
                raise ValueError("UnknownCancer requires a protein-level change")
            if self.annotations is not None:
                raise ValueError("UnknownCancer cannot carry database matches")
        if not self.gate_trace:
            raise ValueError("gate trace cannot be empty")
        if self.gate_trace[-1].decision is not GateDecision.ACCEPT or any(
            a.decision is not GateDecision.REJECT for a in self.gate_trace[:-1]
        ):
            raise ValueError("gate trace must be zero or more Rejects then one Accept")


@dataclass(frozen=True)
class PredictionReport:
    verdict: Verdict
    subject_id: str
    generated_at: str
    tool_version: str = TOOL_VERSION


@dataclass(frozen=True)
class PipelineConfig:
    gc_threshold: float = DEFAULT_GC_THRESHOLD
    dna_scheme: ScoringScheme = field(default_factory=lambda: DNA_SCHEME)
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

    Candidates for ``gene`` are ranked by similarity, then walked in rank
    order through the GC gate; the first accepted entry becomes the
    reference. Mutations are called at DNA level, silent changes are
    separated from protein-level ones, and each non-silent change is
    looked up in the database. Every non-silent change is classified
    (no early exit), so the report's annotations merge all hits.

    Each candidate is aligned once, while ranking; mutations are called
    from the accepted one's alignment.

    Raises:
        NoReferenceAcceptedError: every candidate failed the GC gate.
        NotInFrameError: subject length is not a codon multiple and
            config.allow_partial is off.
    """
    if subject.alphabet is not Alphabet.DNA:
        raise ValueError(f"subject must be DNA, got {subject.alphabet.value}")
    subject_used = _frame_check(subject, config.allow_partial)

    candidates = best_homolog(store, subject_used, gene, scheme=config.dna_scheme)
    trace: list[GateAttempt] = []
    accepted: RankedCandidate | None = None
    gc_report: CompositionReport | None = None
    for candidate in candidates:
        report = composition(candidate.entry.sequence)
        decision = reference_gate(report, config.gc_threshold)
        trace.append(
            GateAttempt(
                source=candidate.entry.source,
                gc_percent=report.gc_percent,
                decision=decision,
            )
        )
        if decision is GateDecision.ACCEPT:
            accepted, gc_report = candidate, report
            break
    if accepted is None or gc_report is None:
        raise NoReferenceAcceptedError(tuple(trace))

    calls = call_mutations(accepted.alignment)

    annotations: AnnotationResult | None = None
    if calls.dna_identical:
        kind = VerdictKind.NO_RISK
    elif not protein_differs(calls):
        kind = VerdictKind.SILENT_ONLY
    else:
        matched_ids: set[str] = set()
        for m in calls.mutations:
            if m.kind is MutationKind.SILENT:
                continue
            hit = classify(db, m)
            if hit is not None:
                matched_ids.update(r.record_id for r in hit.matches)
        if matched_ids:
            kind = VerdictKind.PRE_CANCER_MATCH
            annotations = AnnotationResult.from_matches(
                r for r in db.records if r.record_id in matched_ids
            )
        else:
            kind = VerdictKind.UNKNOWN_CANCER

    verdict = Verdict(
        kind=kind,
        mutations=calls,
        annotations=annotations,
        reference_used=ReferenceDescriptor.from_entry(accepted.entry),
        gc_report=gc_report,
        gate_trace=tuple(trace),
    )
    return PredictionReport(
        verdict=verdict,
        subject_id=subject.id,
        generated_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        tool_version=TOOL_VERSION,
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
    ]
    for attempt in v.gate_trace:
        lines.append(
            f"  {attempt.source}: {attempt.gc_percent:.2f}% {attempt.decision.value}"
        )
    if v.mutations.dna_identical:
        lines.append("mutations: none (subject DNA identical to reference)")
    elif not v.mutations.mutations:
        lines.append("mutations: none at codon resolution")
    else:
        lines.append("mutations:")
        lines.extend(f"  {m.summary()}" for m in v.mutations.mutations)
    if v.mutations.has_indel:
        lines.append("indels: present (not codon-resolved)")
    if v.annotations is None:
        lines.append("database matches: none")
    else:
        lines.append("database matches:")
        for r in v.annotations.matches:
            lines.append(
                f"  {r.record_id}: codon {r.codon_number} "
                f"{r.wt_codon}>{r.mut_codon} {r.tumor_type}"
            )
        lines.append(
            "tumor types: " + "; ".join(v.annotations.distinct_tumor_types)
        )
    lines.append(f"generated: {report.generated_at} (tool {report.tool_version})")
    return "\n".join(lines) + "\n"
