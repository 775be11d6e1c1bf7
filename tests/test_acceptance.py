"""Acceptance gate: one test per shipping criterion.

Each test is self-contained and states its tolerance inline. These
deliberately re-check ground the unit suites also cover; a release is
blocked unless every criterion passes as its own pytest line.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tp53scan.alignment import DNA_SCHEME, align_global
from tp53scan.composition import GateDecision, composition, reference_gate
from tp53scan.errors import NoReferenceAcceptedError
from tp53scan.mutcall import MutationKind
from tp53scan.mutdb import FilterQuery, query
from tp53scan.pipeline import VerdictKind, predict
from tp53scan.seqio import Alphabet, FastaDocument, Sequence, parse_fasta, write_fasta
from tp53scan.translation import aa_for

from support import dna, low_gc_pair, scan_query_oracle, oracle_best_score, write_store

SEED = 53

# Standard-code listing in TCAG-nested codon order, audited independently
# of the translation module's own table literal.
AUDIT_AAS = "FFLLSSSSYY**CC*WLLLLPPPPHHQQRRRRIIIMTTTTNNKKSSRRVVVVAAAADDEEGGGG"
AUDIT_CODONS = tuple("".join(p) for p in itertools.product("TCAG", repeat=3))
AUDIT_TABLE = dict(zip(AUDIT_CODONS, AUDIT_AAS))


def test_criterion_1_worked_example_reproduction(store, db, subject_r248w):
    started = time.perf_counter()
    report = predict(store, db, subject_r248w, "TP53")
    elapsed = time.perf_counter() - started

    v = report.verdict
    assert v.kind is VerdictKind.PRE_CANCER_MATCH
    assert len(v.mutations.mutations) == 1
    m = v.mutations.mutations[0]
    assert m.codon_number == 248
    assert (m.ref_codon, m.alt_codon) == ("CGG", "TGG")
    assert (m.ref_aa, m.alt_aa) == ("R", "W")
    assert m.kind is MutationKind.MISSENSE
    assert not v.mutations.has_indel
    assert v.annotations is not None and v.annotations.matches
    assert elapsed < 1.0, f"pipeline took {elapsed:.3f} s, budget is 1 s"


def test_criterion_2_gc_gate(homolog):
    report = composition(homolog)
    assert report.gc_percent == pytest.approx(54.85, abs=0.01)
    assert reference_gate(report, 38.0) is GateDecision.ACCEPT

    at_boundary = composition(dna("GC" * 19 + "AT" * 31))  # 38 GC in 100
    assert at_boundary.gc_percent == 38.0
    assert reference_gate(at_boundary, 38.0) is GateDecision.ACCEPT

    just_below = composition(dna("G" * 3799 + "A" * 6201))  # 37.99% exactly
    assert just_below.gc_percent == pytest.approx(37.99, abs=1e-9)
    assert reference_gate(just_below, 38.0) is GateDecision.REJECT


def _delannoy_table(top: int) -> list[list[int]]:
    # lattice-path counts, used only to budget oracle samples by cost
    table = [[1] * (top + 1) for _ in range(top + 1)]
    for i in range(1, top + 1):
        for j in range(1, top + 1):
            table[i][j] = table[i - 1][j] + table[i][j - 1] + table[i - 1][j - 1]
    return table


def test_criterion_3_alignment_optimality_oracle():
    started = time.perf_counter()

    def check(a: str, b: str) -> None:
        got = align_global(dna(a, "a"), dna(b, "b"), DNA_SCHEME).score
        want = oracle_best_score(a, b, DNA_SCHEME)
        assert got == want, f"align({a!r}, {b!r}) = {got}, oracle says {want}"

    # every pair with both lengths <= 4: 120 x 120 strings
    short = [
        "".join(p)
        for n in range(1, 5)
        for p in itertools.product("ACG", repeat=n)
    ]
    checked = 0
    for a in short:
        for b in short:
            check(a, b)
            checked += 1
    assert checked == 14_400

    # seeded samples for every remaining length combo up to (8, 8); the
    # per-combo budget shrinks as the oracle's path count grows
    rng = random.Random(SEED)
    paths = _delannoy_table(8)
    for la in range(1, 9):
        for lb in range(1, 9):
            if la <= 4 and lb <= 4:
                continue
            budget = max(8, min(250, 400_000 // paths[la][lb]))
            for _ in range(budget):
                a = "".join(rng.choices("ACG", k=la))
                b = "".join(rng.choices("ACG", k=lb))
                check(a, b)
                checked += 1

    elapsed = time.perf_counter() - started
    assert checked >= 20_000, f"only {checked} pairs checked"
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f} s, budget is 60 s"


def test_criterion_4_codon_table_audit():
    listing = "".join(aa_for(c) for c in AUDIT_CODONS)
    assert listing == AUDIT_AAS
    stops = {c for c in AUDIT_CODONS if aa_for(c) == "*"}
    assert stops == {"TAA", "TAG", "TGA"}
    assert aa_for("CGG") == "R"
    assert aa_for("TGG") == "W"


def test_criterion_5_filter_monotonicity(db):
    rng = random.Random(SEED)
    fields = sorted(db.queryable_fields)
    codons = sorted({r.codon_number for r in db.records})

    def value_for(field: str) -> object:
        if field == "codon":
            return rng.choice(codons + [1, 999])
        if rng.random() < 0.2:
            return rng.choice(["zzz", "no-such-value", "999"])
        raw = rng.choice(db.columns[field])
        style = rng.randrange(4)
        if style == 1:
            raw = raw.upper()
        elif style == 2:
            raw = raw.lower()
        elif style == 3:
            raw = f"  {raw} "
        return raw

    for trial in range(1_000):
        base_fields = rng.sample(fields, rng.randint(0, 3))
        clauses = tuple((f, value_for(f)) for f in base_fields)
        extra_field = rng.choice([f for f in fields if f not in base_fields])
        widened = clauses + ((extra_field, value_for(extra_field)),)

        base_q = FilterQuery(clauses=clauses)
        wide_q = FilterQuery(clauses=widened)
        base_ids = [r.record_id for r in query(db, base_q).matches]
        wide_ids = [r.record_id for r in query(db, wide_q).matches]

        assert set(wide_ids) <= set(base_ids), f"trial {trial}: not a subset"
        assert base_ids == scan_query_oracle(db.records, list(clauses)), f"trial {trial}"
        assert wide_ids == scan_query_oracle(db.records, list(widened)), f"trial {trial}"


def _single_base_variants(codon: str) -> dict[str, list[str]]:
    """Alts one base away, grouped silent/missense/nonsense."""
    ref_aa = AUDIT_TABLE[codon]
    groups: dict[str, list[str]] = {"silent": [], "missense": [], "nonsense": []}
    for pos in range(3):
        for base in "ACGT":
            if base == codon[pos]:
                continue
            alt = codon[:pos] + base + codon[pos + 1 :]
            alt_aa = AUDIT_TABLE[alt]
            if alt_aa == ref_aa:
                groups["silent"].append(alt)
            elif alt_aa == "*":
                groups["nonsense"].append(alt)
            else:
                groups["missense"].append(alt)
    return groups


def test_criterion_6_verdict_soundness(tmp_path, db, reference_cds):
    store = write_store(
        tmp_path / "store", [("TP53", "ncbi-export", 1, reference_cds)]
    )
    ref = reference_cds.residues
    n_codons = len(ref) // 3
    rng = random.Random(SEED)

    seen_kinds: set[MutationKind] = set()
    seen_verdicts: set[VerdictKind] = set()
    for trial in range(500):
        chosen = rng.sample(range(1, n_codons + 1), rng.randint(0, 5))
        residues = list(ref)
        for codon_no in chosen:
            start = (codon_no - 1) * 3
            codon = ref[start : start + 3]
            groups = _single_base_variants(codon)
            wanted = rng.choice(["silent", "missense", "nonsense"])
            pool = groups[wanted] or groups["missense"] or groups["silent"]
            alt = rng.choice(pool)
            residues[start : start + 3] = alt
        subject = dna("".join(residues), f"subj_{trial}")

        report = predict(store, db, subject, "TP53")
        v = report.verdict
        calls = v.mutations
        seen_verdicts.add(v.kind)
        seen_kinds.update(m.kind for m in calls.mutations)

        # oracle side: direct codon comparison plus audited translation
        dna_diff = {
            i // 3 + 1
            for i in range(0, len(ref), 3)
            if ref[i : i + 3] != subject.residues[i : i + 3]
        }
        prot_diff = {
            i // 3 + 1
            for i in range(0, len(ref), 3)
            if AUDIT_TABLE[ref[i : i + 3]] != AUDIT_TABLE[subject.residues[i : i + 3]]
        }

        label = f"trial {trial} (codons {sorted(chosen)})"
        assert not calls.has_indel, label
        assert {m.codon_number for m in calls.mutations} == dna_diff, label
        non_silent = {
            m.codon_number
            for m in calls.mutations
            if m.kind is not MutationKind.SILENT
        }
        assert non_silent == prot_diff, label

        # the four verdict consistency rules, re-derived from raw fields
        assert calls.dna_identical == (not dna_diff), label
        if v.kind is VerdictKind.NO_RISK:
            assert calls.dna_identical and v.annotations is None, label
        elif v.kind is VerdictKind.SILENT_ONLY:
            assert dna_diff and not prot_diff and v.annotations is None, label
        elif v.kind is VerdictKind.UNKNOWN_CANCER:
            assert prot_diff and v.annotations is None, label
        else:
            assert v.kind is VerdictKind.PRE_CANCER_MATCH, label
            assert prot_diff, label
            assert v.annotations is not None and v.annotations.matches, label

        # database support must decide UnknownCancer vs PreCancerMatch
        if prot_diff:
            supported = any(
                scan_query_oracle(
                    db.records, [("codon", m.codon_number), ("mut_codon", m.alt_codon)]
                )
                for m in calls.mutations
                if m.kind is not MutationKind.SILENT
            )
            expected = (
                VerdictKind.PRE_CANCER_MATCH if supported else VerdictKind.UNKNOWN_CANCER
            )
            assert v.kind is expected, label

    assert seen_kinds == {
        MutationKind.SILENT, MutationKind.MISSENSE, MutationKind.NONSENSE,
    }
    assert seen_verdicts == set(VerdictKind)


_IDS = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-",
    min_size=1,
    max_size=12,
)
_DESCRIPTIONS = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=30,
).map(str.strip)


@st.composite
def _documents(draw):
    alphabet = draw(st.sampled_from([Alphabet.DNA, Alphabet.PROTEIN]))
    ids = draw(st.lists(_IDS, min_size=1, max_size=6, unique=True))
    records = tuple(
        Sequence(
            id=rid,
            description=draw(_DESCRIPTIONS),
            residues=draw(
                st.text(alphabet=sorted(alphabet.residues), min_size=1, max_size=180)
            ),
            alphabet=alphabet,
        )
        for rid in ids
    )
    return FastaDocument(records=records), alphabet


@settings(max_examples=250, deadline=None)
@given(doc_alphabet=_documents(), width=st.integers(min_value=1, max_value=97))
def test_criterion_7_fasta_round_trip(doc_alphabet, width):
    doc, alphabet = doc_alphabet
    assert parse_fasta(write_fasta(doc, width=width), alphabet) == doc


def test_criterion_8_reference_fallback(tmp_path, db):
    low, raised = low_gc_pair()
    store = write_store(
        tmp_path / "two", [("TP53", "low-src", 1, low), ("TP53", "raised-src", 2, raised)]
    )
    report = predict(store, db, low, "TP53")
    v = report.verdict
    assert [a.decision for a in v.gate_trace] == [
        GateDecision.REJECT,
        GateDecision.ACCEPT,
    ]
    assert v.gate_trace[0].source == "low-src"
    assert v.reference_used.source == "raised-src"

    hopeless = write_store(tmp_path / "one", [("TP53", "low-src", 1, low)])
    with pytest.raises(NoReferenceAcceptedError) as exc:
        predict(hopeless, db, low, "TP53")
    assert all(a.decision is GateDecision.REJECT for a in exc.value.gate_trace)
