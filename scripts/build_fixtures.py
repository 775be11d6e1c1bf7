#!/usr/bin/env python3
"""Regenerate the synthetic data files bundled with the package.

Everything is seeded, so reruns are byte-identical. ``--check`` rebuilds
into memory and diffs against the committed files instead of writing.

Fixture design notes:
- The coding sequence has 393 codons (ATG ... TGA) with fixed codons
  planted at the classic hotspot positions so the database rows have
  true wild-type codons to point at. Its GC count is normalized to
  exactly 647 of 1179 bases via synonymous swaps.
- The alternate-export entry differs by six synonymous codons, so both
  translate to the same protein and the primary entry always outranks
  it for subjects derived from the primary.
- The homolog export is 2000 bases with exactly 1097 G+C (54.85%).
- The database holds 50 rows spanning 14 codons, with at least three
  distinct tumor types at codon 248.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

from tp53scan.composition import composition
from tp53scan.seqio import Alphabet, FastaDocument, Sequence, write_fasta
from tp53scan.translation import STANDARD_TABLE, aa_for, codon_at, translate

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "tp53scan" / "data"

SEED = 53
N_CODONS = 393
GC_TARGET_CDS = 647  # of 1179 bases
HOMOLOG_LENGTH = 2000
GC_TARGET_HOMOLOG = 1097  # 1097/2000 = 54.85% exactly

# codon number -> wild-type codon the database rows reference
HOTSPOTS = {
    135: "TGC",
    157: "GTC",
    175: "CGC",
    196: "CGA",
    213: "CGA",
    220: "TAT",
    237: "ATG",
    245: "GGC",
    248: "CGG",
    249: "AGG",
    273: "CGT",
    282: "CGG",
    306: "CGA",
    337: "CGC",
}

SILENT_SWAP_CODONS = (20, 60, 100, 150, 300, 350)

# (codon, wt, mut, tumor_type, origin) -- file order, R001..R050
DB_ROWS = [
    (135, "TGC", "TAC", "Lung carcinoma", "somatic"),
    (135, "TGC", "TAC", "Breast carcinoma", "somatic"),
    (135, "TGC", "TTC", "Leukemia", "somatic"),
    (157, "GTC", "TTC", "Lung carcinoma", "somatic"),
    (157, "GTC", "GCC", "Breast carcinoma", "somatic"),
    (175, "CGC", "CAC", "Breast carcinoma", "somatic"),
    (175, "CGC", "CAC", "Colorectal carcinoma", "somatic"),
    (175, "CGC", "CAC", "Ovarian carcinoma", "somatic"),
    (175, "CGC", "CAC", "Pancreatic carcinoma", "somatic"),
    (175, "CGC", "CTC", "Lung carcinoma", "somatic"),
    (175, "CGC", "GGC", "Sarcoma", "somatic"),
    (175, "CGC", "TGC", "Gastric carcinoma", "somatic"),
    (196, "CGA", "TGA", "Colorectal carcinoma", "somatic"),
    (213, "CGA", "TGA", "Breast carcinoma", "somatic"),
    (213, "CGA", "CAA", "Lymphoma", "somatic"),
    (220, "TAT", "TGT", "Ovarian carcinoma", "somatic"),
    (220, "TAT", "TGT", "Colorectal carcinoma", "somatic"),
    (237, "ATG", "ATA", "Glioblastoma", "somatic"),
    (245, "GGC", "AGC", "Breast carcinoma", "somatic"),
    (245, "GGC", "GAC", "Glioblastoma", "somatic"),
    (245, "GGC", "TGC", "Colorectal carcinoma", "somatic"),
    (245, "GGC", "GTC", "Sarcoma", "somatic"),
    (248, "CGG", "TGG", "Colorectal carcinoma", "somatic"),
    (248, "CGG", "TGG", "Breast carcinoma", "somatic"),
    (248, "CGG", "TGG", "Glioblastoma", "somatic"),
    (248, "CGG", "TGG", "Li-Fraumeni syndrome", "germline"),
    (248, "CGG", "TGG", "Hematological malignancy", "somatic"),
    (248, "CGG", "CAG", "Lung carcinoma", "somatic"),
    (248, "CGG", "CAG", "Colorectal carcinoma", "somatic"),
    (248, "CGG", "CAG", "Esophageal carcinoma", "somatic"),
    (248, "CGG", "CTG", "Bladder carcinoma", "somatic"),
    (248, "CGG", "CCG", "Ovarian carcinoma", "somatic"),
    (249, "AGG", "AGT", "Hepatocellular carcinoma", "somatic"),
    (249, "AGG", "AGT", "Hepatocellular carcinoma", "somatic"),
    (249, "AGG", "GGG", "Lung carcinoma", "somatic"),
    (249, "AGG", "ATG", "Breast carcinoma", "somatic"),
    (273, "CGT", "CAT", "Glioblastoma", "somatic"),
    (273, "CGT", "CAT", "Breast carcinoma", "somatic"),
    (273, "CGT", "CAT", "Lung adenocarcinoma", "somatic"),
    (273, "CGT", "TGT", "Colorectal carcinoma", "somatic"),
    (273, "CGT", "TGT", "Bladder carcinoma", "somatic"),
    (273, "CGT", "CTT", "Head and neck carcinoma", "somatic"),
    (273, "CGT", "AGT", "Melanoma", "somatic"),
    (282, "CGG", "TGG", "Breast carcinoma", "somatic"),
    (282, "CGG", "TGG", "Colorectal carcinoma", "somatic"),
    (282, "CGG", "TGG", "Lung carcinoma", "somatic"),
    (282, "CGG", "CAG", "Ovarian carcinoma", "somatic"),
    (306, "CGA", "TGA", "Lung carcinoma", "somatic"),
    (337, "CGC", "TGC", "Adrenocortical carcinoma", "somatic"),
    (337, "CGC", "CAC", "Li-Fraumeni syndrome", "germline"),
]

CELL_LINES = (
    "CL-101", "CL-104", "CL-107", "CL-112", "CL-118", "CL-121",
    "CL-129", "CL-133", "CL-140", "CL-146", "CL-152", "CL-159",
)


def _gc_count(text: str) -> int:
    return text.count("G") + text.count("C")


def _synonyms() -> dict[str, list[str]]:
    groups: dict[str, list[str]] = {}
    for codon, aa in STANDARD_TABLE.items():
        groups.setdefault(aa, []).append(codon)
    return {aa: sorted(codons) for aa, codons in groups.items()}


def _normalize_gc(codons: list[str], locked: set[int], target: int, rng: random.Random) -> None:
    """Synonymous swaps until the base-level GC count hits the target."""
    syn = _synonyms()
    order = [i for i in range(len(codons)) if i not in locked]
    rng.shuffle(order)
    current = sum(_gc_count(c) for c in codons)
    for _ in range(3):
        for pos in order:
            if current == target:
                return
            step = 1 if target > current else -1
            cur = codons[pos]
            for cand in syn[aa_for(cur)]:
                if cand != cur and _gc_count(cand) - _gc_count(cur) == step:
                    codons[pos] = cand
                    current += step
                    break
    raise AssertionError(f"could not reach GC target {target}, stuck at {current}")


def build_cds() -> Sequence:
    rng = random.Random(SEED)
    non_stop = sorted(c for c, aa in STANDARD_TABLE.items() if aa != "*")
    codons = [rng.choice(non_stop) for _ in range(N_CODONS)]
    codons[0] = "ATG"
    codons[-1] = "TGA"
    for number, codon in HOTSPOTS.items():
        codons[number - 1] = codon
    locked = {0, N_CODONS - 1} | {number - 1 for number in HOTSPOTS}
    _normalize_gc(codons, locked, GC_TARGET_CDS, rng)

    seq = Sequence(
        id="tp53_cds_ncbi",
        description="synthetic TP53-like coding sequence, 393 codons",
        residues="".join(codons),
        alphabet=Alphabet.DNA,
    )
    assert len(seq) == 3 * N_CODONS
    assert _gc_count(seq.residues) == GC_TARGET_CDS
    for number, codon in HOTSPOTS.items():
        assert codon_at(seq, number) == codon, (number, codon)
    protein = translate(seq).residues
    assert protein[0] == "M" and protein[-1] == "*"
    assert "*" not in protein[:-1], "internal stop codon"
    return seq


def build_alternate(cds: Sequence) -> Sequence:
    syn = _synonyms()
    codons = [cds.residues[k : k + 3] for k in range(0, len(cds), 3)]
    swapped = 0
    pos = 0
    targets = list(SILENT_SWAP_CODONS)
    while swapped < len(SILENT_SWAP_CODONS):
        number = targets[swapped] + pos
        cur = codons[number - 1]
        options = [c for c in syn[aa_for(cur)] if c != cur]
        if not options or number in HOTSPOTS:
            pos += 1  # single-codon amino acid here; slide to a neighbor
            continue
        codons[number - 1] = options[0]
        swapped += 1
        pos = 0
    seq = Sequence(
        id="tp53_cds_ebi",
        description="synthetic TP53-like coding sequence, alternate export",
        residues="".join(codons),
        alphabet=Alphabet.DNA,
    )
    assert translate(seq).residues == translate(cds).residues
    diffs = sum(
        1
        for k in range(0, len(cds), 3)
        if cds.residues[k : k + 3] != seq.residues[k : k + 3]
    )
    assert diffs == len(SILENT_SWAP_CODONS)
    assert composition(seq).gc_percent >= 38.0
    assert codon_at(seq, 248) == "CGG"
    return seq


def build_subject(cds: Sequence) -> Sequence:
    start = 3 * (248 - 1)
    assert cds.residues[start : start + 3] == "CGG"
    residues = cds.residues[:start] + "TGG" + cds.residues[start + 3 :]
    return Sequence(
        id="subject_r248w",
        description="synthetic subject CDS with codon 248 CGG>TGG",
        residues=residues,
        alphabet=Alphabet.DNA,
    )


def build_homolog() -> Sequence:
    rng = random.Random(SEED + 1)
    half_gc, half_at = GC_TARGET_HOMOLOG, HOMOLOG_LENGTH - GC_TARGET_HOMOLOG
    bases = (
        ["G"] * ((half_gc + 1) // 2)
        + ["C"] * (half_gc // 2)
        + ["A"] * ((half_at + 1) // 2)
        + ["T"] * (half_at // 2)
    )
    rng.shuffle(bases)
    seq = Sequence(
        id="tp53_homolog_export",
        description="synthetic normal homolog export",
        residues="".join(bases),
        alphabet=Alphabet.DNA,
    )
    assert len(seq) == HOMOLOG_LENGTH
    assert _gc_count(seq.residues) == GC_TARGET_HOMOLOG
    return seq


def build_db_text(cds: Sequence) -> str:
    header = [
        "record_id", "codon", "wt_codon", "mut_codon", "wt_aa", "mut_aa",
        "mutation_event", "tumor_type", "cell_line", "origin",
    ]
    assert len(DB_ROWS) == 50
    codon248_types = {row[3] for row in DB_ROWS if row[0] == 248}
    assert len(codon248_types) >= 3
    lines = ["\t".join(header)]
    for idx, (codon_no, wt, mut, tumor, origin) in enumerate(DB_ROWS, start=1):
        assert codon_at(cds, codon_no) == wt, (codon_no, wt)
        assert wt != mut
        wt_aa, mut_aa = aa_for(wt), aa_for(mut)
        assert wt_aa != "*"
        event = "nonsense substitution" if mut_aa == "*" else "missense substitution"
        lines.append(
            "\t".join(
                [
                    f"R{idx:03d}", str(codon_no), wt, mut, wt_aa, mut_aa,
                    event, tumor, CELL_LINES[(idx - 1) % len(CELL_LINES)], origin,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def build_all() -> dict[str, str]:
    cds = build_cds()
    alternate = build_alternate(cds)
    subject = build_subject(cds)
    homolog = build_homolog()

    def fasta(seq: Sequence) -> str:
        return write_fasta(FastaDocument(records=(seq,)))

    manifest = (
        "file\tgene\tsource\tpriority\n"
        "tp53_ncbi_cds.fasta\tTP53\tncbi-export\t1\n"
        "tp53_ebi_cds.fasta\tTP53\tebi-export\t2\n"
    )
    return {
        "refstore/manifest.tsv": manifest,
        "refstore/tp53_ncbi_cds.fasta": fasta(cds),
        "refstore/tp53_ebi_cds.fasta": fasta(alternate),
        "subject_r248w.fasta": fasta(subject),
        "normal_homolog.fasta": fasta(homolog),
        "tp53_mutations.tsv": build_db_text(cds),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify committed files match regeneration instead of writing",
    )
    args = parser.parse_args(argv)

    files = build_all()
    stale = []
    for rel, text in sorted(files.items()):
        path = DATA_DIR / rel
        if args.check:
            if not path.is_file() or path.read_text(encoding="utf-8") != text:
                stale.append(rel)
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")
    if args.check:
        if stale:
            print("stale fixtures:", ", ".join(stale), file=sys.stderr)
            return 1
        print(f"all {len(files)} fixture files up to date")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
