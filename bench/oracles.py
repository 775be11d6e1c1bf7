"""Independent correctness oracles for the benchmark's outputs.

Nothing here calls tp53scan. FASTA, manifest and TSV files are read with
small parsers of their own, translation uses a codon table written out
independently of the library's, and database support is a naive scan
over every row. Each ``check_*`` function takes one request's JSON
output and returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

# Standard genetic code in TCAG-nested codon order.
_AAS = "FFLLSSSSYY**CC*WLLLLPPPPHHQQRRRRIIIMTTTTNNKKSSRRVVVVAAAADDEEGGGG"
CODON_TABLE = dict(
    zip(("".join(p) for p in itertools.product("TCAG", repeat=3)), _AAS)
)

GC_THRESHOLD = 38.0


def kind_of(ref_aa: str, alt_aa: str) -> str:
    if ref_aa == alt_aa:
        return "Silent"
    return "Nonsense" if alt_aa == "*" else "Missense"


def read_fasta_text(text: str) -> list[tuple[str, str]]:
    """(id, residues) per record; residues uppercased, whitespace dropped."""
    records: list[tuple[str, list[str]]] = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith(">"):
            records.append((line[1:].split()[0], []))
        elif line:
            records[-1][1].append("".join(line.split()).upper())
    return [(rec_id, "".join(parts)) for rec_id, parts in records]


def read_tsv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:] if line.strip()]


def gc_percent(residues: str) -> float:
    gc = residues.count("G") + residues.count("C")
    determined = gc + residues.count("A") + residues.count("T")
    return 100.0 * gc / determined


@dataclass(frozen=True)
class StoreEntry:
    source: str
    sequence_id: str
    residues: str
    priority: int


def read_store(directory: Path) -> dict[str, StoreEntry]:
    """Store entries by source label, read from the manifest and FASTA files."""
    entries = {}
    for row in read_tsv(directory / "manifest.tsv"):
        text = (directory / row["file"]).read_text(encoding="utf-8")
        ((seq_id, residues),) = read_fasta_text(text)
        entries[row["source"]] = StoreEntry(
            row["source"], seq_id, residues, int(row["priority"])
        )
    return entries


@dataclass(frozen=True)
class DbRow:
    record_id: str
    codon: int
    fields: dict[str, str]
    folded: dict[str, str]  # fields trimmed and lowercased, for text matching


def read_db(path: Path) -> list[DbRow]:
    return [
        DbRow(
            row["record_id"],
            int(row["codon"]),
            row,
            {k: v.strip().lower() for k, v in row.items()},
        )
        for row in read_tsv(path)
    ]


def _call_problems(calls: list[dict], ref: str, skip_n: bool) -> list[str]:
    """Each reported call must match the reference codon and the code table."""
    problems = []
    numbers = [c["codon"] for c in calls]
    if numbers != sorted(set(numbers)):
        problems.append("calls not sorted by unique codon number")
    for c in calls:
        no = c["codon"]
        if not 1 <= no <= len(ref) // 3:
            problems.append(f"codon {no} outside the reference")
            continue
        if skip_n and "N" in c["ref_codon"] + c["alt_codon"]:
            continue
        if c["ref_codon"] != ref[3 * no - 3 : 3 * no]:
            problems.append(f"codon {no}: ref_codon {c['ref_codon']} not in reference")
        ref_aa = CODON_TABLE.get(c["ref_codon"])
        alt_aa = CODON_TABLE.get(c["alt_codon"])
        if (c["ref_aa"], c["alt_aa"]) != (ref_aa, alt_aa):
            problems.append(f"codon {no}: amino acids disagree with the code table")
        elif c["kind"] != kind_of(ref_aa, alt_aa):
            problems.append(f"codon {no}: kind {c['kind']} is wrong")
    return problems


def _gate_problems(v: dict, store: dict[str, StoreEntry]) -> list[str]:
    """Gate trace against GC counted here from the store FASTA files."""
    trace = v["gate_trace"]
    if not trace:
        return ["empty gate trace"]
    problems = []
    for k, attempt in enumerate(trace):
        entry = store.get(attempt["source"])
        if entry is None:
            problems.append(f"gate trace names unknown source {attempt['source']!r}")
            continue
        gc = gc_percent(entry.residues)
        if abs(attempt["gc_percent"] - gc) > 1e-9:
            problems.append(f"{entry.source}: gc {attempt['gc_percent']} != {gc}")
        expected = "Accept" if gc >= GC_THRESHOLD else "Reject"
        if attempt["decision"] != expected:
            problems.append(f"{entry.source}: decision {attempt['decision']}")
        if (k == len(trace) - 1) != (attempt["decision"] == "Accept"):
            problems.append("gate trace is not Rejects then one Accept")
    ref = v["reference"]
    entry = store.get(ref["source"])
    if entry is None or trace[-1]["source"] != ref["source"]:
        problems.append("reference is not the accepted gate candidate")
    elif (ref["sequence_id"], ref["length"], ref["priority"]) != (
        entry.sequence_id, len(entry.residues), entry.priority
    ):
        problems.append("reference descriptor disagrees with the store")
    elif abs(v["gc"]["gc_percent"] - gc_percent(entry.residues)) > 1e-9:
        problems.append("reference gc disagrees with the store")
    return problems


def _verdict_problems(v: dict, db: list[DbRow]) -> list[str]:
    """The four verdict rules, with database support from a naive scan."""
    m = v["mutations"]
    annotations = v["annotations"]
    non_silent = [c for c in m["calls"] if c["kind"] != "Silent"]
    changed = m["has_indel"] or bool(non_silent)
    wanted = {(c["codon"], c["alt_codon"]) for c in non_silent}
    supported = [
        row for row in db if (row.codon, row.fields["mut_codon"]) in wanted
    ]
    if m["dna_identical"]:
        expected = "NoRisk"
    elif not changed:
        expected = "SilentOnly"
    else:
        expected = "PreCancerMatch" if supported else "UnknownCancer"
    problems = []
    if m["dna_identical"] and (m["calls"] or m["has_indel"]):
        problems.append("identical DNA with calls or indels")
    if v["kind"] != expected:
        problems.append(f"verdict {v['kind']}, expected {expected}")
    if expected != "PreCancerMatch":
        if annotations is not None:
            problems.append(f"{expected} carries annotations")
        return problems
    if annotations is None:
        return problems + ["PreCancerMatch without annotations"]
    if [r["record_id"] for r in annotations["matches"]] != [
        row.record_id for row in supported
    ]:
        problems.append("annotation records differ from the naive scan")
    if annotations["distinct_tumor_types"] != sorted(
        {row.fields["tumor_type"] for row in supported}
    ):
        problems.append("distinct tumor types differ from the naive scan")
    return problems


def check_cds_snv(
    output: str, subject: str, store: dict[str, StoreEntry], db: list[DbRow]
) -> list[str]:
    """Criterion-6 re-derivation for a substitution-only subject.

    The subject has the reference's length and only a few substituted
    codons, so every optimal alignment is the ungapped diagonal: calls
    are exactly the codons that differ, and the best-ranked reference
    is the one with the fewest differing bases (ties to priority).
    """
    v = json.loads(output)["verdict"]
    problems = _gate_problems(v, store)
    best = min(
        store.values(),
        key=lambda e: (sum(a != b for a, b in zip(e.residues, subject)), e.priority),
    )
    if v["reference"]["source"] != best.source:
        problems.append(f"reference {v['reference']['source']}, expected {best.source}")
        return problems
    ref = best.residues
    codons = range(0, len(ref), 3)
    dna_diff = {i // 3 + 1 for i in codons if ref[i : i + 3] != subject[i : i + 3]}
    prot_diff = {
        i // 3 + 1
        for i in codons
        if CODON_TABLE[ref[i : i + 3]] != CODON_TABLE[subject[i : i + 3]]
    }
    m = v["mutations"]
    if m["has_indel"]:
        problems.append("indel reported for a substitution-only subject")
    if {c["codon"] for c in m["calls"]} != dna_diff:
        problems.append("called codons differ from the codons that changed")
    if {c["codon"] for c in m["calls"] if c["kind"] != "Silent"} != prot_diff:
        problems.append("non-silent calls differ from the protein changes")
    if m["dna_identical"] != (not dna_diff):
        problems.append("dna_identical is wrong")
    for c in m["calls"]:
        if c["alt_codon"] != subject[3 * c["codon"] - 3 : 3 * c["codon"]]:
            problems.append(f"codon {c['codon']}: alt_codon not in subject")
    return problems + _call_problems(m["calls"], ref, False) + _verdict_problems(v, db)


def check_divergent(
    output: str, subject: str, store: dict[str, StoreEntry], db: list[DbRow]
) -> list[str]:
    """Facts every optimal alignment shares, for an indel-bearing subject.

    The call set itself depends on which optimal alignment is chosen,
    so only its consistency is checked. Codons holding an ``N`` are
    skipped: how they are called is not settled behaviour.
    """
    v = json.loads(output)["verdict"]
    problems = _gate_problems(v, store)
    entry = store.get(v["reference"]["source"])
    if entry is None:
        return problems
    m = v["mutations"]
    if len(subject) != len(entry.residues) and not m["has_indel"]:
        problems.append("lengths differ but no indel reported")
    if m["dna_identical"] != (subject == entry.residues):
        problems.append("dna_identical is wrong")
    problems += _call_problems(m["calls"], entry.residues, True)
    return problems + _verdict_problems(v, db)


def parse_where(pairs: list[str]) -> list[tuple[str, object]]:
    clauses: list[tuple[str, object]] = []
    for pair in pairs:
        name, _, value = pair.partition("=")
        name = name.strip()
        clauses.append((name, int(value) if name == "codon" else value))
    return clauses


def naive_query(where: list[str], db: list[DbRow]) -> list[DbRow]:
    """Rows satisfying every ``field=value`` clause, by full scan."""
    clauses = parse_where(where)
    kept = []
    for row in db:
        for name, value in clauses:
            if name == "codon":
                if row.codon != value:
                    break
            elif row.folded[name] != str(value).strip().lower():
                break
        else:
            kept.append(row)
    return kept


def check_query(output: str, expected: list[DbRow]) -> list[str]:
    """Result ids and tumor types against the naive scan's rows."""
    payload = json.loads(output)
    problems = []
    if [r["record_id"] for r in payload["matches"]] != [
        row.record_id for row in expected
    ]:
        problems.append("result ids differ from the naive scan")
    if payload["distinct_tumor_types"] != sorted(
        {row.fields["tumor_type"] for row in expected}
    ):
        problems.append("distinct tumor types differ from the naive scan")
    return problems
