"""Offline toolkit for codon-level TP53 pre-cancer screening.

Compares a subject coding sequence against gated normal references,
calls codon-level mutations, and annotates them from a local mutation
database. Everything runs from local files; no network access.
"""

from .alignment import (
    DNA_SCHEME,
    PROTEIN_SCHEME,
    AlignmentResult,
    AlignOp,
    ScoringScheme,
    align_global,
    identity_percent,
)
from .composition import (
    DEFAULT_GC_THRESHOLD,
    CompositionReport,
    GateDecision,
    composition,
    reference_gate,
)
from .mutcall import (
    CodonMutation,
    MutationCallSet,
    MutationKind,
    call_mutations,
    classify_kind,
    protein_differs,
)
from .mutdb import (
    AnnotationResult,
    Database,
    FilterQuery,
    MutationRecord,
    classify,
    load_db,
    query,
)
from .pipeline import (
    TOOL_VERSION,
    GateAttempt,
    PipelineConfig,
    PredictionReport,
    ReferenceDescriptor,
    Verdict,
    VerdictKind,
    predict,
    render_text,
    report_from_dict,
    report_to_dict,
)
from .refstore import (
    RankedCandidate,
    ReferenceEntry,
    ReferenceStore,
    best_homolog,
    load_store,
)
from .seqio import (
    Alphabet,
    FastaDocument,
    Sequence,
    parse_fasta,
    read_fasta,
    write_fasta,
)
from .translation import (
    STANDARD_TABLE,
    aa_for,
    codon_at,
    translate,
)

__version__ = TOOL_VERSION

__all__ = [
    "Alphabet",
    "AlignOp",
    "AlignmentResult",
    "AnnotationResult",
    "CodonMutation",
    "CompositionReport",
    "Database",
    "DEFAULT_GC_THRESHOLD",
    "DNA_SCHEME",
    "FastaDocument",
    "FilterQuery",
    "GateAttempt",
    "GateDecision",
    "MutationCallSet",
    "MutationKind",
    "MutationRecord",
    "PROTEIN_SCHEME",
    "PipelineConfig",
    "PredictionReport",
    "RankedCandidate",
    "ReferenceDescriptor",
    "ReferenceEntry",
    "ReferenceStore",
    "STANDARD_TABLE",
    "ScoringScheme",
    "Sequence",
    "TOOL_VERSION",
    "Verdict",
    "VerdictKind",
    "aa_for",
    "align_global",
    "best_homolog",
    "call_mutations",
    "classify",
    "classify_kind",
    "codon_at",
    "composition",
    "identity_percent",
    "load_db",
    "load_store",
    "parse_fasta",
    "predict",
    "protein_differs",
    "query",
    "read_fasta",
    "reference_gate",
    "render_text",
    "report_from_dict",
    "report_to_dict",
    "translate",
    "write_fasta",
    "__version__",
]
