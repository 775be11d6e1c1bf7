"""Codon-level mutation calling from a reference/subject alignment.

Codon numbers are 1-based reference coordinates: gaps in the reference
row never advance the count. Indels are flagged, not codon-resolved, so
substitutions are reported only for codons whose three reference bases
came through the alignment uninterrupted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .alignment import DNA_SCHEME, GAP, AlignmentResult, ScoringScheme, align_global
from .seqio import Sequence
from .translation import STANDARD_TABLE, CodonTable, aa_for


class MutationKind(Enum):
    SILENT = "Silent"
    MISSENSE = "Missense"
    NONSENSE = "Nonsense"


def classify_kind(ref_aa: str, alt_aa: str) -> MutationKind:
    """Kind as a pure function of the amino-acid pair.

    Silent wins when both residues agree, even for '*' against '*'.
    """
    if ref_aa == alt_aa:
        return MutationKind.SILENT
    if alt_aa == "*":
        return MutationKind.NONSENSE
    return MutationKind.MISSENSE


@dataclass(frozen=True)
class CodonMutation:
    codon_number: int = field(metadata={"wire": "codon"})
    ref_codon: str
    alt_codon: str
    ref_aa: str
    alt_aa: str
    kind: MutationKind

    def __post_init__(self) -> None:
        if self.codon_number < 1:
            raise ValueError(f"codon number must be >= 1, got {self.codon_number}")
        for name in ("ref_codon", "alt_codon"):
            codon = getattr(self, name)
            if len(codon) != 3 or any(ch not in "ACGTN" for ch in codon):
                raise ValueError(f"{name} must be a 3-letter DNA codon, got {codon!r}")
        if self.ref_codon == self.alt_codon:
            raise ValueError(f"codon {self.codon_number}: ref and alt codons are equal")
        if classify_kind(self.ref_aa, self.alt_aa) is not self.kind:
            raise ValueError(
                f"kind {self.kind.value} inconsistent with "
                f"{self.ref_aa!r} -> {self.alt_aa!r}"
            )

    def summary(self) -> str:
        """One-line form used by text reports: ``248 CGG>TGG R>W Missense``."""
        return (
            f"{self.codon_number} {self.ref_codon}>{self.alt_codon} "
            f"{self.ref_aa}>{self.alt_aa} {self.kind.value}"
        )

    @classmethod
    def from_codons(
        cls,
        codon_number: int,
        ref_codon: str,
        alt_codon: str,
        table: CodonTable = STANDARD_TABLE,
    ) -> "CodonMutation":
        ref_aa = aa_for(ref_codon, table)
        alt_aa = aa_for(alt_codon, table)
        return cls(
            codon_number=codon_number,
            ref_codon=ref_codon,
            alt_codon=alt_codon,
            ref_aa=ref_aa,
            alt_aa=alt_aa,
            kind=classify_kind(ref_aa, alt_aa),
        )


@dataclass(frozen=True)
class MutationCallSet:
    mutations: tuple[CodonMutation, ...] = field(metadata={"wire": "calls"})
    has_indel: bool
    dna_identical: bool

    def __post_init__(self) -> None:
        numbers = [m.codon_number for m in self.mutations]
        if numbers != sorted(set(numbers)):
            raise ValueError("mutations must be sorted by codon number and unique")
        if self.dna_identical and (self.mutations or self.has_indel):
            raise ValueError("identical DNA cannot carry mutations or indels")


def call_mutations(
    ref_cds: Sequence,
    subj_cds: Sequence,
    scheme: ScoringScheme = DNA_SCHEME,
    table: CodonTable = STANDARD_TABLE,
    alignment: AlignmentResult | None = None,
) -> MutationCallSet:
    """Align subject against reference and report per-codon substitutions.

    A codon is reported only when its three reference bases survive the
    alignment without an interrupting gap column: a Delete inside the
    triple, or an Insert strictly between two of its bases, suppresses
    the call (the indel flag still records that something happened).
    Substitutions in a trailing partial codon are dropped, mirroring how
    translation ignores trailing residues.

    ``alignment``, when given, is used instead of aligning again: it must
    pair ``ref_cds`` (first row) with ``subj_cds`` (second row), as
    ``align_global(ref_cds, subj_cds, scheme)`` would.

    Raises:
        ValueError: ``alignment`` is not of these two sequences.
    """
    if alignment is None:
        result = align_global(ref_cds, subj_cds, scheme)
    elif (
        alignment.degapped_a() != ref_cds.residues
        or alignment.degapped_b() != subj_cds.residues
    ):
        raise ValueError("alignment does not pair this reference with this subject")
    else:
        result = alignment

    has_indel = False
    dirty: set[int] = set()  # codon numbers compromised by a gap column
    subst: dict[int, str] = {}  # 1-based ref position -> subject base
    ref_pos = 0
    for ca, cb in zip(result.aligned_a, result.aligned_b):
        if ca == GAP:
            has_indel = True
            # insertion after ref_pos; only an off-boundary one breaks a triple
            if ref_pos % 3 != 0:
                dirty.add((ref_pos + 2) // 3)
            continue
        ref_pos += 1
        codon_no = (ref_pos + 2) // 3
        if cb == GAP:
            has_indel = True
            dirty.add(codon_no)
        elif ca != cb:
            subst[ref_pos] = cb

    n_codons = len(ref_cds) // 3
    mutations: list[CodonMutation] = []
    for codon_no in sorted({(p + 2) // 3 for p in subst}):
        if codon_no in dirty or codon_no > n_codons:
            continue
        start = 3 * (codon_no - 1)
        ref_codon = ref_cds.residues[start : start + 3]
        alt_codon = "".join(
            subst.get(start + k + 1, ref_codon[k]) for k in range(3)
        )
        mutations.append(
            CodonMutation.from_codons(codon_no, ref_codon, alt_codon, table)
        )

    dna_identical = not has_indel and not subst
    return MutationCallSet(
        mutations=tuple(mutations),
        has_indel=has_indel,
        dna_identical=dna_identical,
    )


def protein_differs(calls: MutationCallSet) -> bool:
    """True when the call set implies a protein-level change."""
    if calls.has_indel:
        return True
    return any(m.kind is not MutationKind.SILENT for m in calls.mutations)
