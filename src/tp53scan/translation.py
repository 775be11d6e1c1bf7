"""DNA-to-protein translation under the standard genetic code."""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from types import MappingProxyType

from .errors import OutOfRangeError, TooShortError
from .seqio import Alphabet, Sequence, require_dna

# the standard nuclear code, read-only: the 64 DNA codons to amino-acid
# letters ('*' = stop), grouped by first then second base (T, C, A, G)
STANDARD_TABLE: Mapping[str, str] = MappingProxyType({
    "TTT": "F", "TTC": "F", "TTA": "L", "TTG": "L",
    "TCT": "S", "TCC": "S", "TCA": "S", "TCG": "S",
    "TAT": "Y", "TAC": "Y", "TAA": "*", "TAG": "*",
    "TGT": "C", "TGC": "C", "TGA": "*", "TGG": "W",
    "CTT": "L", "CTC": "L", "CTA": "L", "CTG": "L",
    "CCT": "P", "CCC": "P", "CCA": "P", "CCG": "P",
    "CAT": "H", "CAC": "H", "CAA": "Q", "CAG": "Q",
    "CGT": "R", "CGC": "R", "CGA": "R", "CGG": "R",
    "ATT": "I", "ATC": "I", "ATA": "I", "ATG": "M",
    "ACT": "T", "ACC": "T", "ACA": "T", "ACG": "T",
    "AAT": "N", "AAC": "N", "AAA": "K", "AAG": "K",
    "AGT": "S", "AGC": "S", "AGA": "R", "AGG": "R",
    "GTT": "V", "GTC": "V", "GTA": "V", "GTG": "V",
    "GCT": "A", "GCC": "A", "GCA": "A", "GCG": "A",
    "GAT": "D", "GAC": "D", "GAA": "E", "GAG": "E",
    "GGT": "G", "GGC": "G", "GGA": "G", "GGG": "G",
})


class TrailingResiduesWarning(UserWarning):
    """Translation dropped 1 or 2 residues left over after the last codon."""


def aa_for(codon: str) -> str:
    """Amino-acid letter for one codon; any N makes the call ambiguous."""
    if len(codon) != 3:
        raise ValueError(f"codon must have 3 residues, got {codon!r}")
    if "N" in codon:
        return "X"
    try:
        return STANDARD_TABLE[codon]
    except KeyError:
        raise ValueError(f"unknown codon {codon!r}") from None


def translate(cds: Sequence, frame: int = 0) -> Sequence:
    """Translate consecutive codons starting at ``frame``.

    Stops are emitted as '*' and translation continues past them, so
    downstream comparison can see nonsense substitutions. Trailing 1 or 2
    residues are dropped with a TrailingResiduesWarning.

    Raises:
        AlphabetMismatchError: if ``cds`` is not a DNA sequence.
        TooShortError: if fewer than 3 residues remain after the frame offset.
    """
    require_dna(cds, "translate")
    if frame not in (0, 1, 2):
        raise ValueError(f"frame must be 0, 1 or 2, got {frame}")
    usable = len(cds) - frame
    if usable < 3:
        raise TooShortError(
            f"record {cds.id!r}: {usable} residues after frame offset, need >= 3"
        )
    leftover = usable % 3
    if leftover:
        warnings.warn(
            f"record {cds.id!r}: ignoring {leftover} trailing residue(s)",
            TrailingResiduesWarning,
            stacklevel=2,
        )
    body = cds.residues[frame : frame + usable - leftover]
    protein = "".join(aa_for(body[k : k + 3]) for k in range(0, len(body), 3))
    return Sequence(
        id=cds.id,
        description=cds.description,
        residues=protein,
        alphabet=Alphabet.PROTEIN,
    )


def codon_at(cds: Sequence, codon_number: int) -> str:
    """Codon at a 1-based codon position counted from the sequence start.

    Raises:
        OutOfRangeError: if the codon would run past the end (or n < 1).
    """
    if codon_number < 1:
        raise OutOfRangeError(f"codon number must be >= 1, got {codon_number}")
    end = 3 * codon_number
    if end > len(cds):
        raise OutOfRangeError(
            f"codon {codon_number} needs {end} residues, record {cds.id!r} has {len(cds)}"
        )
    return cds.residues[end - 3 : end]
