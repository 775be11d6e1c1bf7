"""Shared test helpers: independent oracles and store builders.

The oracles here deliberately avoid the library's own algorithms: one
alignment oracle enumerates every monotone alignment path, the other
fills the whole Gotoh matrix (the aligner the banded one replaced), the
LCS oracle is the textbook quadratic table, the slack oracle tries
every slack in turn against the exit bound written out on its own, the
ranking oracle aligns every store entry on that full matrix, the ops
and calling oracles read gapped rows one column at a time, the loader
oracle builds one record per row, and the query oracle is a plain
linear scan with its own normalization.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from itertools import groupby
from pathlib import Path
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from tp53scan.alignment import DNA_SCHEME, GAP, AlignmentResult, AlignOp, ScoringScheme
from tp53scan.mutcall import CodonMutation, MutationCallSet
from tp53scan.errors import BadRowError, EmptyDatabaseError, MissingColumnError
from tp53scan.mutdb import COLUMNS, REQUIRED_COLUMNS, MutationRecord
from tp53scan.refstore import RankedCandidate, ReferenceEntry, ReferenceStore, load_store
from tp53scan.seqio import Alphabet, FastaDocument, Sequence, read_text, write_fasta

_NEG_INF = float("-inf")


def oracle_best_score(a: str, b: str, scheme: ScoringScheme) -> int:
    """Exhaustive affine-gap optimum via path enumeration (no DP).

    Walks every monotone alignment with an explicit stack, carrying the
    accumulated score and the previous move so gap runs pay open once
    and extend afterwards. Exponential; keep inputs short.
    """
    match, mismatch = scheme.match, scheme.mismatch
    go, ge = scheme.gap_open, scheme.gap_extend
    n, m = len(a), len(b)
    best = None
    # (i, j, last move: 0 diagonal/none, 1 gap-in-b, 2 gap-in-a, score)
    stack = [(0, 0, 0, 0)]
    push = stack.append
    pop = stack.pop
    while stack:
        i, j, last, acc = pop()
        if i == n and j == m:
            if best is None or acc > best:
                best = acc
            continue
        if i < n and j < m:
            push((i + 1, j + 1, 0, acc + (match if a[i] == b[j] else mismatch)))
        if i < n:
            push((i + 1, j, 1, acc + (ge if last == 1 else go)))
        if j < m:
            push((i, j + 1, 2, acc + (ge if last == 2 else go)))
    assert best is not None
    return best


def oracle_lcs(a: str, b: str) -> int:
    """Length of a longest common subsequence, by the textbook O(nm)
    table kept one row at a time."""
    row = [0] * (len(b) + 1)
    for x in a:
        diagonal, row[0] = 0, 0
        for j, y in enumerate(b, 1):
            diagonal, row[j] = row[j], diagonal + 1 if x == y else max(row[j], row[j - 1])
    return row[-1]


def oracle_off_band_bound(n: int, m: int, slack: int, scheme: ScoringScheme) -> int:
    """Upper bound on the score of a path that leaves the band of
    ``slack`` (diagonals min(0, m-n) - slack .. max(0, m-n) + slack),
    written out on its own: such a path makes D >= max(0, n-m) + slack
    + 1 Delete columns, D + m - n Insert columns, two opens and at most
    n - D diagonal columns, each at most a match. Linear in D, so its
    maximum over D..n is at an end."""

    def bound(deletes: int) -> int:
        return (
            scheme.match * (n - deletes)
            + 2 * scheme.gap_open
            + (2 * deletes + m - n - 2) * scheme.gap_extend
        )

    return max(bound(max(0, n - m) + slack + 1), bound(n))


def oracle_slack(n: int, m: int, score: int, scheme: ScoringScheme) -> int:
    """Smallest slack whose band covers the matrix or whose exit bound
    lies below ``score``, by trying every slack from 0 up."""
    slack = 0
    while abs(m - n) + 2 * slack < m and oracle_off_band_bound(n, m, slack, scheme) >= score:
        slack += 1
    return slack


def _fill_matrices(
    a: str, b: str, scheme: ScoringScheme
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fill the three Gotoh score matrices.

    M[i, j]: best score where the last column pairs a[i-1] with b[j-1].
    X[i, j]: last column consumes a[i-1] against a gap (Delete run).
    Y[i, j]: last column consumes b[j-1] against a gap (Insert run).

    Rows are vectorized over j. The Insert state has a within-row
    dependency, so it is resolved with a running-maximum prefix scan:
    Y[i, j] = open + (j-1-k)*extend + best entry at k for some k < j.
    """
    n, m = len(a), len(b)
    match, mismatch = float(scheme.match), float(scheme.mismatch)
    go, ge = float(scheme.gap_open), float(scheme.gap_extend)

    mat_m = np.full((n + 1, m + 1), _NEG_INF)
    mat_x = np.full((n + 1, m + 1), _NEG_INF)
    mat_y = np.full((n + 1, m + 1), _NEG_INF)
    mat_m[0, 0] = 0.0

    a_codes = np.frombuffer(a.encode("ascii"), dtype=np.uint8)
    b_codes = np.frombuffer(b.encode("ascii"), dtype=np.uint8)
    js = np.arange(m, dtype=np.float64)
    ladder = go + ge * js  # cost of an Insert run of length j+1

    def insert_row(i: int) -> None:
        # entry points are M or X at some column k, then extend to j
        entry = np.maximum(mat_m[i], mat_x[i]) - ge * np.arange(m + 1)
        best = np.maximum.accumulate(entry)
        mat_y[i, 1:] = ladder + best[:-1]

    insert_row(0)
    for i in range(1, n + 1):
        sub = np.where(b_codes == a_codes[i - 1], match, mismatch)
        prev = np.maximum(np.maximum(mat_m[i - 1], mat_x[i - 1]), mat_y[i - 1])
        mat_m[i, 1:] = prev[:-1] + sub
        mat_x[i] = np.maximum(
            np.maximum(mat_m[i - 1], mat_y[i - 1]) + go,
            mat_x[i - 1] + ge,
        )
        insert_row(i)
    return mat_m, mat_x, mat_y


def _traceback(
    a: str,
    b: str,
    scheme: ScoringScheme,
    mat_m: np.ndarray,
    mat_x: np.ndarray,
    mat_y: np.ndarray,
) -> tuple[str, str, list[AlignOp]]:
    """Walk one optimal path back to (0, 0).

    All cell values are integer-valued floats, so exact equality against
    candidate predecessors is safe. Preference order M > X > Y applies at
    the end cell and at every step.
    """
    go, ge = float(scheme.gap_open), float(scheme.gap_extend)
    i, j = len(a), len(b)

    state = "M"
    best = mat_m[i, j]
    if mat_x[i, j] > best:
        state, best = "X", mat_x[i, j]
    if mat_y[i, j] > best:
        state, best = "Y", mat_y[i, j]

    cols_a: list[str] = []
    cols_b: list[str] = []
    ops: list[AlignOp] = []
    while i > 0 or j > 0:
        here = {"M": mat_m, "X": mat_x, "Y": mat_y}[state][i, j]
        if state == "M":
            cols_a.append(a[i - 1])
            cols_b.append(b[j - 1])
            ops.append(AlignOp.MATCH if a[i - 1] == b[j - 1] else AlignOp.MISMATCH)
            sub = float(scheme.match if a[i - 1] == b[j - 1] else scheme.mismatch)
            i, j = i - 1, j - 1
            if mat_m[i, j] + sub == here:
                state = "M"
            elif mat_x[i, j] + sub == here:
                state = "X"
            else:
                state = "Y"
        elif state == "X":
            cols_a.append(a[i - 1])
            cols_b.append(GAP)
            ops.append(AlignOp.DELETE)
            i -= 1
            if mat_m[i, j] + go == here:
                state = "M"
            elif mat_x[i, j] + ge == here:
                state = "X"
            else:
                state = "Y"
        else:
            cols_a.append(GAP)
            cols_b.append(b[j - 1])
            ops.append(AlignOp.INSERT)
            j -= 1
            if mat_m[i, j] + go == here:
                state = "M"
            elif mat_x[i, j] + go == here:
                state = "X"
            else:
                state = "Y"
    cols_a.reverse()
    cols_b.reverse()
    ops.reverse()
    return "".join(cols_a), "".join(cols_b), ops


class OracleAlignment(NamedTuple):
    """The oracle's alignment. Its ops are run-length encoded from the
    traceback's own moves, not derived from the rows as the library does."""

    aligned_a: str
    aligned_b: str
    score: int
    ops: tuple[tuple[AlignOp, int], ...]


def oracle_full_alignment(a: str, b: str, scheme: ScoringScheme) -> OracleAlignment:
    """The optimal alignment the full-matrix Gotoh DP picks (M > X > Y ties)."""
    mat_m, mat_x, mat_y = _fill_matrices(a, b, scheme)
    n, m = len(a), len(b)
    score = max(mat_m[n, m], mat_x[n, m], mat_y[n, m])
    aligned_a, aligned_b, ops = _traceback(a, b, scheme, mat_m, mat_x, mat_y)
    runs: list[tuple[AlignOp, int]] = []
    for op in ops:
        if runs and runs[-1][0] is op:
            runs[-1] = (op, runs[-1][1] + 1)
        else:
            runs.append((op, 1))
    return OracleAlignment(aligned_a, aligned_b, int(score), tuple(runs))


def exhaustive_ranking(
    store: ReferenceStore, query: Sequence, gene: str, admitted: object = ()
) -> tuple[RankedCandidate, ...]:
    """Every entry for ``gene`` aligned on the full matrix and sorted as
    ranking sorts (score, then priority, then manifest order). It takes
    ``best_homolog``'s arguments but ignores ``admitted``: this is the
    ranking as it was before ranking stopped at the leader."""
    ranked = []
    for entry in store.entries_for(gene):
        want = oracle_full_alignment(entry.sequence.residues, query.residues, DNA_SCHEME)
        alignment = AlignmentResult(want.aligned_a, want.aligned_b, want.score)
        ranked.append(RankedCandidate(entry, alignment))
    ranked.sort(key=lambda c: (-c.alignment.score, c.entry.priority))
    return tuple(ranked)


@st.composite
def small_stores(draw) -> tuple[Sequence, ReferenceStore]:
    """A subject of 1-8 codons and a TP53 store of 1-5 entries for it:
    copies, point variants, duplicates of earlier entries, unrelated,
    AT-only and all-N sequences, at priorities 1-2, so scores and
    priorities tie and a GC gate rejects some leaders."""
    codons = draw(st.integers(1, 8))
    subject = draw(st.text(alphabet="ACGT", min_size=3 * codons, max_size=3 * codons))
    entries: list[ReferenceEntry] = []
    for k in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["copy", "variant", "duplicate", "unrelated", "at", "n"]))
        if kind == "copy" or (kind == "duplicate" and not entries):
            residues = subject
        elif kind == "variant":
            pos = draw(st.integers(0, len(subject) - 1))
            residues = subject[:pos] + draw(st.sampled_from("ACGT")) + subject[pos + 1 :]
        elif kind == "duplicate":
            residues = draw(st.sampled_from(entries)).sequence.residues
        elif kind == "unrelated":
            residues = draw(st.text(alphabet="ACGT", min_size=1, max_size=30))
        elif kind == "at":
            residues = draw(st.text(alphabet="AT", min_size=1, max_size=30))
        else:
            residues = "N" * draw(st.integers(1, 30))
        priority = draw(st.integers(1, 2))
        entries.append(ReferenceEntry(f"e{k}", "TP53", dna(residues, f"s{k}"), priority))
    return dna(subject, "subject"), ReferenceStore(tuple(entries))


def _op_for_column(ca: str, cb: str) -> AlignOp:
    if ca == GAP:
        if cb == GAP:
            raise ValueError("column with a gap in both rows")
        return AlignOp.INSERT
    if cb == GAP:
        return AlignOp.DELETE
    return AlignOp.MATCH if ca == cb else AlignOp.MISMATCH


def oracle_column_ops(a: str, b: str) -> tuple[tuple[AlignOp, int], ...]:
    """Run-length ops of two equal-length gapped rows, one column at a
    time: the rule ``AlignmentResult`` applied before it used numpy."""
    runs = groupby(map(_op_for_column, a, b))
    return tuple((op, len(list(r))) for op, r in runs)


def oracle_call_mutations(alignment: AlignmentResult) -> MutationCallSet:
    """``call_mutations`` read off the gapped rows one column at a time,
    without the run-length ops."""
    has_indel = False
    dirty: set[int] = set()  # codon numbers compromised by a gap column
    subst: dict[int, str] = {}  # 1-based ref position -> subject base
    ref_pos = 0
    for ca, cb in zip(alignment.aligned_a, alignment.aligned_b):
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

    ref = alignment.degapped_a()
    n_codons = len(ref) // 3
    mutations: list[CodonMutation] = []
    for codon_no in sorted({(p + 2) // 3 for p in subst}):
        if codon_no in dirty or codon_no > n_codons:
            continue
        start = 3 * (codon_no - 1)
        ref_codon = ref[start : start + 3]
        alt_codon = "".join(subst.get(start + k + 1, ref_codon[k]) for k in range(3))
        mutations.append(CodonMutation(codon_no, ref_codon, alt_codon))
    return MutationCallSet(tuple(mutations), has_indel, not has_indel and not subst)


@st.composite
def gapped_rows(draw) -> tuple[str, str]:
    """Two gapped rows of 1-8 runs, each of 1-7 columns: both rows drawn
    freely (matches and substitutions), a deletion or an insertion. Gap
    runs can start at any codon phase and cross codon boundaries, and
    the reference's length need not be a multiple of 3."""
    row_a, row_b = [], []
    for _ in range(draw(st.integers(1, 8))):
        size = draw(st.integers(1, 7))
        bases = st.text(alphabet="ACGT", min_size=size, max_size=size)
        kind = draw(st.sampled_from(["columns", "delete", "insert"]))
        row_a.append(GAP * size if kind == "insert" else draw(bases))
        row_b.append(GAP * size if kind == "delete" else draw(bases))
    return "".join(row_a), "".join(row_b)


def rescore_alignment(aligned_a: str, aligned_b: str, scheme: ScoringScheme) -> int:
    """Independent affine rescoring of a finished alignment."""
    total = 0
    last = None  # "a-gap" | "b-gap" | None
    for ca, cb in zip(aligned_a, aligned_b):
        if ca == "-":
            total += scheme.gap_extend if last == "a-gap" else scheme.gap_open
            last = "a-gap"
        elif cb == "-":
            total += scheme.gap_extend if last == "b-gap" else scheme.gap_open
            last = "b-gap"
        else:
            total += scheme.match if ca == cb else scheme.mismatch
            last = None
    return total


def oracle_load_db(path: str | Path) -> tuple[tuple[MutationRecord, ...], tuple[str, ...]]:
    """``load_db`` row by row: the records and the extra column names.

    Every row is split, checked and built as a ``MutationRecord`` in
    file order, the loader the columnar one replaced.
    """
    lines = read_text(path).splitlines()
    if not lines or not lines[0].strip():
        raise MissingColumnError(REQUIRED_COLUMNS[0])

    header = [h.strip() for h in lines[0].split("\t")]
    positions: dict[str, int] = {}
    for pos, name in enumerate(header):
        if name in positions:
            raise BadRowError(1, f"duplicate column {name!r}")
        positions[name] = pos
    for name in REQUIRED_COLUMNS:
        if name not in positions:
            raise MissingColumnError(name)
    extra_columns = tuple(name for name in header if name not in COLUMNS)

    records: list[MutationRecord] = []
    seen_ids: set[str] = set()
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) != len(header):
            raise BadRowError(
                line_no, f"expected {len(header)} fields, got {len(cells)}"
            )
        raw_codon = cells[positions["codon"]].strip()
        if not re.fullmatch("-?[0-9]+", raw_codon, flags=re.ASCII):
            raise BadRowError(
                line_no, f"codon {raw_codon!r} is not an integer in ASCII digits"
            )

        record_id = (
            cells[positions["record_id"]].strip()
            if "record_id" in positions
            else f"row{line_no}"
        )
        if record_id in seen_ids:
            raise BadRowError(line_no, f"duplicate record_id {record_id!r}")
        seen_ids.add(record_id)

        try:
            record = MutationRecord(
                record_id=record_id,
                codon_number=int(raw_codon),
                wt_codon=cells[positions["wt_codon"]].strip().upper(),
                mut_codon=cells[positions["mut_codon"]].strip().upper(),
                wt_aa=cells[positions["wt_aa"]].strip().upper(),
                mut_aa=cells[positions["mut_aa"]].strip().upper(),
                mutation_event=(
                    cells[positions["mutation_event"]].strip()
                    if "mutation_event" in positions
                    else ""
                ),
                tumor_type=cells[positions["tumor_type"]].strip(),
                extra={name: cells[positions[name]].strip() for name in extra_columns},
            )
        except ValueError as exc:
            raise BadRowError(line_no, str(exc)) from None
        records.append(record)
    if not records:
        raise EmptyDatabaseError(f"{path}: no data rows")
    return tuple(records), extra_columns


def scan_query_oracle(
    records: Iterable[MutationRecord], clauses: list[tuple[str, object]]
) -> list[str]:
    """Record ids matching all clauses, file order, by naive full scan."""

    def norm(text: str) -> str:
        return text.strip().lower()

    def text_of(rec: MutationRecord, field: str) -> str:
        builtin = {
            "record_id": rec.record_id,
            "codon": str(rec.codon_number),
            "wt_codon": rec.wt_codon,
            "mut_codon": rec.mut_codon,
            "wt_aa": rec.wt_aa,
            "mut_aa": rec.mut_aa,
            "mutation_event": rec.mutation_event,
            "tumor_type": rec.tumor_type,
        }
        if field in builtin:
            return builtin[field]
        return rec.extra[field]

    kept = []
    for rec in records:
        ok = True
        for field, value in clauses:
            if field == "codon":
                if rec.codon_number != value:
                    ok = False
                    break
            elif norm(text_of(rec, field)) != norm(str(value)):
                ok = False
                break
        if ok:
            kept.append(rec.record_id)
    return kept


def write_store(
    directory: Path, entries: list[tuple[str, str, int, Sequence]]
) -> ReferenceStore:
    """Materialize (gene, source, priority, sequence) rows as a store."""
    directory.mkdir(parents=True, exist_ok=True)
    lines = ["file\tgene\tsource\tpriority"]
    for idx, (gene, source, priority, seq) in enumerate(entries):
        name = f"entry_{idx}.fasta"
        (directory / name).write_text(
            write_fasta(FastaDocument(records=(seq,))), encoding="utf-8"
        )
        lines.append(f"{name}\t{gene}\t{source}\t{priority}")
    (directory / "manifest.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_store(directory)


def dna(residues: str, seq_id: str = "seq", description: str = "") -> Sequence:
    return Sequence(
        id=seq_id, description=description, residues=residues, alphabet=Alphabet.DNA
    )


def low_gc_pair() -> tuple[Sequence, Sequence]:
    """Two same-protein sequences: one far below 38% GC, one just above.

    The first is ATG + 65xTTA + 65xAA A (GC 1/393); the second raises GC
    with synonymous swaps only (TTA>CTG, some AAA>AAG) to 151/393.
    """
    first = "ATG" + "TTA" * 65 + "AAA" * 65
    second = "ATG" + "CTG" * 65 + "AAG" * 20 + "AAA" * 45
    assert len(first) == len(second) == 393
    assert first.count("G") + first.count("C") == 1
    assert second.count("G") + second.count("C") == 151  # 151/393 = 38.42%
    return dna(first, "low_gc_entry"), dna(second, "raised_gc_entry")
