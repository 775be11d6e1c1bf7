"""Seeded input generators, one per benchmark workload.

Each generator writes everything the program reads into one directory:
a reference store (FASTA files plus ``manifest.tsv``), a mutation TSV,
and either a multi-record subject FASTA or a file of query clauses. The
same seed gives byte-identical files. Sizes are fixed constants: a later
change must not shrink them to hide a regression.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from oracles import CODON_TABLE, read_fasta_text

GENE = "TP53"
BASES = "ACGT"

CDS_SNV_SUBJECTS = 48
DIVERGENT_SUBJECTS = 32
LOW_GC_SUBJECTS = DIVERGENT_SUBJECTS // 4
DB_ROWS = 29_000
QUERIES = 160
# Slightly under half the queries are codon-keyed, so the median request
# is a full scan rather than a point in the gap between the fast indexed
# cluster and the slow scan cluster.
CODON_KEYED_QUERIES = 70

HOTSPOTS = (175, 245, 248, 249, 273, 282)
TUMOR_TYPES = (
    "Breast carcinoma", "Colorectal carcinoma", "Lung carcinoma",
    "Lung adenocarcinoma", "Ovarian carcinoma", "Glioblastoma", "Sarcoma",
    "Li-Fraumeni syndrome", "Bladder carcinoma", "Hepatocellular carcinoma",
    "Leukemia", "Pancreatic carcinoma", "Gastric carcinoma", "Lymphoma",
    "Esophageal carcinoma", "Head and neck carcinoma", "Melanoma",
    "Adrenocortical carcinoma", "Prostate carcinoma", "Endometrial carcinoma",
    "Cervical carcinoma", "Thyroid carcinoma", "Renal carcinoma",
    "Osteosarcoma", "Medulloblastoma", "Astrocytoma", "Cholangiocarcinoma",
    "Nasopharyngeal carcinoma", "Skin carcinoma", "Myeloma",
    "Mesothelioma", "Neuroblastoma", "Rhabdomyosarcoma", "Choroid plexus carcinoma",
    "Vulvar carcinoma", "Anal carcinoma", "Small cell lung carcinoma",
    "Uterine sarcoma", "Thymoma", "Salivary gland carcinoma",
)
ORIGINS = (("somatic", 0.90), ("germline", 0.08), ("unknown", 0.02))
DB_HEADER = (
    "record_id", "codon", "wt_codon", "mut_codon", "wt_aa", "mut_aa",
    "mutation_event", "tumor_type", "cell_line", "origin",
)


@dataclass(frozen=True)
class Inputs:
    """Paths of one generated workload; ``requests`` names the request file."""

    store_dir: Path | None
    db_path: Path
    requests: Path


def bundled_reference(data_dir: Path) -> str:
    text = (data_dir / "refstore" / "tp53_ncbi_cds.fasta").read_text(encoding="utf-8")
    return read_fasta_text(text)[0][1]


def fasta_text(records: list[tuple[str, str]]) -> str:
    lines = []
    for rec_id, residues in records:
        lines.append(f">{rec_id}")
        lines.extend(residues[i : i + 60] for i in range(0, len(residues), 60))
    return "\n".join(lines) + "\n"


def split_fasta(text: str) -> list[str]:
    """One FASTA text per record, each the exact lines of that record."""
    return [">" + chunk for chunk in text.split(">")[1:]]


def _codons(residues: str) -> list[str]:
    return [residues[i : i + 3] for i in range(0, len(residues), 3)]


def _variants(codon: str) -> dict[str, list[str]]:
    """Single-base alternatives grouped by effect, in a fixed order."""
    ref_aa = CODON_TABLE[codon]
    groups: dict[str, list[str]] = {"silent": [], "missense": [], "nonsense": []}
    for pos in range(3):
        for base in BASES:
            if base == codon[pos]:
                continue
            alt = codon[:pos] + base + codon[pos + 1 :]
            alt_aa = CODON_TABLE[alt]
            if alt_aa == ref_aa:
                groups["silent"].append(alt)
            elif alt_aa == "*":
                groups["nonsense"].append(alt)
            else:
                groups["missense"].append(alt)
    return groups


def _substitute(residues: str, rng: random.Random, rate: float) -> list[str]:
    out = list(residues)
    for pos in rng.sample(range(len(out)), round(rate * len(out))):
        out[pos] = rng.choice([b for b in BASES if b != out[pos]])
    return out


def _low_gc_synonym(residues: str, rng: random.Random) -> str:
    """Same protein, each codon swapped for a synonym with the fewest G/C."""
    synonyms: dict[str, list[str]] = {}
    for codon, aa in CODON_TABLE.items():
        synonyms.setdefault(aa, []).append(codon)
    out = []
    for codon in _codons(residues):
        pool = synonyms[CODON_TABLE[codon]]
        fewest = min(c.count("G") + c.count("C") for c in pool)
        out.append(rng.choice([c for c in pool if c.count("G") + c.count("C") == fewest]))
    return "".join(out)


def _write_store(out: Path, entries: list[tuple[str, str, int, str, str]]) -> Path:
    """entries: (file name, source, priority, record id, residues)."""
    store = out / "store"
    store.mkdir(parents=True)
    manifest = ["file\tgene\tsource\tpriority"]
    for file_name, source, priority, rec_id, residues in entries:
        (store / file_name).write_text(fasta_text([(rec_id, residues)]), encoding="utf-8")
        manifest.append(f"{file_name}\t{GENE}\t{source}\t{priority}")
    (store / "manifest.tsv").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    return store


def write_mutation_db(seed: int, reference: str, path: Path) -> list[tuple[str, ...]]:
    """An IARC-sized TSV: hotspot-heavy codons, three recurrent alts each.

    Every row's wild-type codon is the reference codon, so calls against
    the reference never disagree with the database. Shared by the
    divergent_indel and db_query workloads, which see the same file for
    the same seed.
    """
    rng = random.Random(f"mutations:{seed}")
    codons = _codons(reference)
    n_codons = len(codons) - 1  # the stop codon is never listed
    recurrent = {}
    for no in range(1, n_codons + 1):
        groups = _variants(codons[no - 1])
        alts = groups["missense"] + groups["nonsense"]
        recurrent[no] = rng.sample(alts, min(3, len(alts)))
    weights = [1.0 + 2.0 * rng.random() for _ in TUMOR_TYPES]
    rows = []
    for k in range(DB_ROWS):
        draw = rng.random()
        if draw < 0.25:
            no = rng.choice(HOTSPOTS)
        elif draw < 0.85:
            no = rng.randint(100, 300)
        else:
            no = rng.randint(1, n_codons)
        wt = codons[no - 1]
        mut = rng.choice(recurrent[no])
        origin = rng.choices([o for o, _ in ORIGINS], [w for _, w in ORIGINS])[0]
        rows.append((
            f"T{k + 1:05d}", str(no), wt, mut, CODON_TABLE[wt], CODON_TABLE[mut],
            "nonsense substitution" if CODON_TABLE[mut] == "*" else "missense substitution",
            rng.choices(TUMOR_TYPES, weights)[0],
            f"CL-{rng.randint(1, 600):03d}",
            origin,
        ))
    lines = ["\t".join(DB_HEADER)] + ["\t".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows


def cds_snv(seed: int, data_dir: Path, out: Path) -> Inputs:
    """Bundled store and DB; subjects with 0-5 planted codon substitutions.

    The substitution plan is acceptance criterion 6's: each chosen codon
    gets a single-base change aimed at a silent, missense or nonsense
    effect, falling back when the codon has no such neighbour.
    """
    rng = random.Random(f"cds_snv:{seed}")
    store = out / "store"
    shutil.copytree(data_dir / "refstore", store)
    db_path = out / "mutations.tsv"
    shutil.copyfile(data_dir / "tp53_mutations.tsv", db_path)
    reference = bundled_reference(data_dir)
    n_codons = len(reference) // 3
    subjects = []
    for k in range(CDS_SNV_SUBJECTS):
        residues = list(reference)
        for no in rng.sample(range(1, n_codons + 1), rng.randint(0, 5)):
            start = 3 * (no - 1)
            groups = _variants(reference[start : start + 3])
            wanted = rng.choice(["silent", "missense", "nonsense"])
            pool = groups[wanted] or groups["missense"] or groups["silent"]
            residues[start : start + 3] = rng.choice(pool)
        subjects.append((f"snv_{k:03d}", "".join(residues)))
    requests = out / "subjects.fasta"
    requests.write_text(fasta_text(subjects), encoding="utf-8")
    return Inputs(store, db_path, requests)


def _plant_indels(residues: list[str], rng: random.Random, count: int) -> list[str]:
    """``count`` in-frame indels of 1-30 codons with a non-zero net length change.

    A non-zero net change means every alignment against a store entry
    (all 1179 nt) has a gap, so ``has_indel`` is a shared fact.
    """
    while True:
        events = [(rng.choice("ID"), rng.randint(1, 30)) for _ in range(count)]
        if sum(n if kind == "I" else -n for kind, n in events) != 0:
            break
    n_codons = len(residues) // 3
    slot = (n_codons - 2) // len(events)
    # one event per slot, right to left, so earlier coordinates stay valid
    for idx in reversed(range(len(events))):
        kind, length = events[idx]
        codon = 1 + idx * slot + rng.randint(0, slot - 31)
        start = 3 * codon
        if kind == "I":
            residues[start:start] = [rng.choice(BASES) for _ in range(3 * length)]
        else:
            del residues[start : start + 3 * length]
    return residues


def divergent_indel(seed: int, data_dir: Path, out: Path) -> Inputs:
    """Four-entry store, 29k-row DB, substituted and indel-bearing subjects.

    The store holds the two bundled entries, a synonymous variant of the
    reference at about 31% GC (fails the 38% gate) and a 10-15% divergent
    variant. A quarter of the subjects derive from the low-GC entry, so
    their gate trace starts with a Reject.
    """
    rng = random.Random(f"divergent_indel:{seed}")
    reference = bundled_reference(data_dir)
    ebi = (data_dir / "refstore" / "tp53_ebi_cds.fasta").read_text(encoding="utf-8")
    low_gc = _low_gc_synonym(reference, rng)
    divergent = "".join(_substitute(reference, rng, rng.uniform(0.10, 0.15)))
    store = _write_store(out, [
        ("ncbi.fasta", "ncbi-export", 1, "tp53_cds_ncbi", reference),
        ("ebi.fasta", "ebi-export", 2, "tp53_cds_ebi", read_fasta_text(ebi)[0][1]),
        ("low_gc.fasta", "low-gc-synonymous", 3, "tp53_low_gc", low_gc),
        ("divergent.fasta", "divergent-variant", 4, "tp53_divergent", divergent),
    ])
    db_path = out / "mutations.tsv"
    write_mutation_db(seed, reference, db_path)
    # Substitution rates step evenly through 3-10%, indel counts cycle
    # through 1-3, and the low-GC subjects take every fifth rate, so the
    # pool's total work barely moves with the seed; the seed draws the
    # positions, the indel lengths and the order.
    plans = [
        (low_gc if k < LOW_GC_SUBJECTS else reference,
         0.03 + 0.07 * ((5 * k) % DIVERGENT_SUBJECTS + 0.5) / DIVERGENT_SUBJECTS,
         1 + k % 3)
        for k in range(DIVERGENT_SUBJECTS)
    ]
    rng.shuffle(plans)
    subjects = []
    for k, (source, rate, indels) in enumerate(plans):
        residues = _substitute(source, rng, rate)
        for pos in rng.sample(range(len(residues)), rng.randint(1, 3)):
            residues[pos] = "N"
        residues = _plant_indels(residues, rng, indels)
        subjects.append((f"indel_{k:03d}", "".join(residues)))
    requests = out / "subjects.fasta"
    requests.write_text(fasta_text(subjects), encoding="utf-8")
    return Inputs(store, db_path, requests)


def _noisy(rng: random.Random, text: str) -> str:
    """CLI-typed text: random case and padding, which queries must ignore."""
    styled = rng.choice([text, text.upper(), text.lower()])
    return rng.choice(["", " "]) + styled + rng.choice(["", "  "])


def db_query(seed: int, data_dir: Path, out: Path) -> Inputs:
    """The 29k-row DB and a seeded mix of ``--where`` clause lists.

    Codon-keyed queries take the indexed path ``classify`` uses; the rest
    name only text fields (tumor type, extra columns, ``mut_aa=*``) and
    scan every row. One query per line, clauses separated by tabs.
    """
    reference = bundled_reference(data_dir)
    db_path = out / "mutations.tsv"
    rows = write_mutation_db(seed, reference, db_path)
    rng = random.Random(f"db_query:{seed}")
    n_codons = len(reference) // 3
    # each form takes a DB row, so most queries match something
    codon_keyed = (
        lambda row: [f"codon={row[1]}"],
        lambda row: [f"codon={row[1]}", f"mut_codon={_noisy(rng, row[3])}"],
        lambda row: [f"codon={row[1]}", f"tumor_type={_noisy(rng, row[7])}"],
        lambda row: [f"codon={rng.randint(1, n_codons)}"],
    )
    text_only = (
        lambda row: [f"tumor_type={_noisy(rng, row[7])}"],
        lambda row: [f"cell_line={_noisy(rng, row[8])}"],
        lambda row: [f"tumor_type={_noisy(rng, row[7])}", "origin=germline"],
        lambda row: [f"mut_aa={row[5]}", f"wt_aa={row[4]}"],
        lambda row: ["mut_aa=*", f"tumor_type={_noisy(rng, row[7])}"],
    )
    # forms are dealt in turn, so every seed has the same mix of forms
    forms = [codon_keyed[k % len(codon_keyed)] for k in range(CODON_KEYED_QUERIES)]
    forms += [text_only[k % len(text_only)] for k in range(QUERIES - CODON_KEYED_QUERIES)]
    queries = [form(rng.choice(rows)) for form in forms]
    rng.shuffle(queries)
    requests = out / "queries.tsv"
    requests.write_text("\n".join("\t".join(q) for q in queries) + "\n", encoding="utf-8")
    return Inputs(None, db_path, requests)


GENERATORS = {
    "cds_snv": cds_snv,
    "divergent_indel": divergent_indel,
    "db_query": db_query,
}
