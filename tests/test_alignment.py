from __future__ import annotations

import functools
import math
import random
import tracemalloc
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tp53scan import alignment
from tp53scan.alignment import (
    DNA_SCHEME,
    GAP,
    PROTEIN_SCHEME,
    AlignmentResult,
    AlignOp,
    ScoringScheme,
    align_global,
    identity_percent,
)
from tp53scan.codec import from_dict, to_dict
from tp53scan.datafiles import bundled_refstore_path
from tp53scan.errors import (
    AlignmentTooLargeError,
    AlphabetMismatchError,
    ReportFormatError,
)
from tp53scan.refstore import load_store
from tp53scan.seqio import Alphabet, Sequence

from support import (
    dna,
    oracle_best_score,
    oracle_column_ops,
    oracle_full_alignment,
    oracle_lcs,
    oracle_off_band_bound,
    oracle_slack,
    rescore_alignment,
)


def protein(residues: str, seq_id: str = "p") -> Sequence:
    return Sequence(
        id=seq_id, description="", residues=residues, alphabet=Alphabet.PROTEIN
    )


class TestScoringScheme:
    def test_defaults(self):
        assert (DNA_SCHEME.match, DNA_SCHEME.mismatch) == (2, -1)
        assert (DNA_SCHEME.gap_open, DNA_SCHEME.gap_extend) == (-5, -1)
        assert (PROTEIN_SCHEME.match, PROTEIN_SCHEME.mismatch) == (4, -2)
        assert (PROTEIN_SCHEME.gap_open, PROTEIN_SCHEME.gap_extend) == (-10, -1)

    def test_match_must_beat_mismatch(self):
        with pytest.raises(ValueError):
            ScoringScheme(match=1, mismatch=1, gap_open=-5, gap_extend=-1)

    def test_gap_ordering_enforced(self):
        with pytest.raises(ValueError):
            ScoringScheme(match=2, mismatch=-1, gap_open=-1, gap_extend=-5)
        with pytest.raises(ValueError):
            ScoringScheme(match=2, mismatch=-1, gap_open=-5, gap_extend=1)

    @pytest.mark.parametrize(
        "fields",
        [(2.5, -1, -5, -1), (2, -1.0, -5, -1), (2, -1, -5, -1.0), (True, False, -5, -1)],
        ids=["float match", "float mismatch", "float extend", "bools"],
    )
    def test_fields_must_be_ints(self, fields):
        # a float field gave a float score on the one-diagonal path and
        # IndexError, TypeError or AssertionError elsewhere
        with pytest.raises(ValueError, match="must be an int"):
            ScoringScheme(*fields)


def _with_ops(result: AlignmentResult, ops: list) -> dict:
    """``to_dict(result)`` with its derived ops replaced by ``ops``."""
    return {**to_dict(result), "ops": [[op.value, count] for op, count in ops]}


class TestAlignmentResultValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            AlignmentResult("AC", "A", 0)

    def test_double_gap_column(self):
        with pytest.raises(ValueError, match="column with a gap in both rows"):
            AlignmentResult("A-", "A-", 2)

    # ops are derived from the rows; a payload that disagrees is refused

    def test_ops_must_cover_columns(self):
        payload = _with_ops(AlignmentResult("AC", "AC", 4), [(AlignOp.MATCH, 1)])
        with pytest.raises(ReportFormatError, match=r"^ops: "):
            from_dict(AlignmentResult, payload)

    def test_ops_must_agree_with_columns(self):
        payload = _with_ops(AlignmentResult("AC", "AG", 1), [(AlignOp.MATCH, 2)])
        with pytest.raises(ReportFormatError, match=r"^ops: "):
            from_dict(AlignmentResult, payload)

    def test_runs_positive_and_maximal(self):
        payload = _with_ops(AlignmentResult("A", "A", 2), [(AlignOp.MATCH, 0)])
        with pytest.raises(ReportFormatError, match=r"^ops: "):
            from_dict(AlignmentResult, payload)
        payload = _with_ops(
            AlignmentResult("AA", "AA", 4), [(AlignOp.MATCH, 1), (AlignOp.MATCH, 1)]
        )
        with pytest.raises(ReportFormatError, match=r"^ops: "):
            from_dict(AlignmentResult, payload)


# gap, two residues, and a character outside ASCII
_COLUMN_CHARS = st.sampled_from("-AC\u00e9")


@settings(max_examples=300, deadline=None)
@given(columns=st.lists(st.tuples(_COLUMN_CHARS, _COLUMN_CHARS), min_size=1, max_size=60))
def test_ops_follow_the_column_rule(columns: list[tuple[str, str]]):
    a, b = ("".join(row) for row in zip(*columns))
    try:
        want = oracle_column_ops(a, b)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            AlignmentResult(a, b, 0)
    else:
        assert AlignmentResult(a, b, 0).ops == want


def test_identity_alignment():
    r = align_global(dna("ACGT", "a"), dna("ACGT", "b"), DNA_SCHEME)
    assert r.score == 8
    assert r.ops == ((AlignOp.MATCH, 4),)
    assert r.aligned_a == r.aligned_b == "ACGT"


def test_single_substitution_beats_gap_pair():
    r = align_global(dna("ACGT", "a"), dna("AGGT", "b"), DNA_SCHEME)
    assert r.score == 5
    assert r.ops == ((AlignOp.MATCH, 1), (AlignOp.MISMATCH, 1), (AlignOp.MATCH, 2))


def test_affine_gap_run_costs_open_once():
    r = align_global(dna("AAAA", "a"), dna("A", "b"), DNA_SCHEME)
    # one matched column plus a 3-long delete run: 2 + (-5 + 2*-1)
    assert r.score == -5
    assert r.aligned_b.count("-") == 3


def test_end_tiebreak_prefers_match_state():
    r = align_global(dna("AAAA", "a"), dna("A", "b"), DNA_SCHEME)
    assert r.ops == ((AlignOp.DELETE, 3), (AlignOp.MATCH, 1))
    assert r.aligned_a == "AAAA"
    assert r.aligned_b == "---A"


def test_end_tiebreak_prefers_delete_over_insert():
    # mismatch is so costly that a delete+insert pair wins; both orders
    # tie, and the rule picks Delete as the final column
    harsh = ScoringScheme(match=2, mismatch=-100, gap_open=-5, gap_extend=-1)
    r = align_global(dna("A", "a"), dna("G", "b"), harsh)
    assert r.score == -10
    assert r.ops == ((AlignOp.INSERT, 1), (AlignOp.DELETE, 1))
    assert r.aligned_a == "-A"
    assert r.aligned_b == "G-"


def test_cross_state_gap_switch_is_scored_exactly():
    harsh = ScoringScheme(match=2, mismatch=-100, gap_open=-5, gap_extend=-1)
    a, b = "AA", "GG"
    r = align_global(dna(a, "a"), dna(b, "b"), harsh)
    assert r.score == oracle_best_score(a, b, harsh)


def test_alphabet_mismatch_rejected():
    with pytest.raises(AlphabetMismatchError):
        align_global(dna("ACGT", "a"), protein("MKV"), DNA_SCHEME)


def test_protein_alignment_supported():
    r = align_global(protein("MKVL", "a"), protein("MKIL", "b"), PROTEIN_SCHEME)
    assert r.score == 4 * 3 - 2
    assert r.ops == ((AlignOp.MATCH, 2), (AlignOp.MISMATCH, 1), (AlignOp.MATCH, 1))


def test_identity_percent_examples():
    full = align_global(dna("ACGTACGTAC", "a"), dna("ACGTACGTAC", "b"), DNA_SCHEME)
    assert identity_percent(full) == 100.0
    one_off = align_global(dna("ACGT", "a"), dna("AGGT", "b"), DNA_SCHEME)
    assert identity_percent(one_off) == 75.0


_SHORT = st.text(alphabet="ACG", min_size=1, max_size=6)


def _schemes() -> st.SearchStrategy[ScoringScheme]:
    return st.builds(
        lambda match, mismatch, extend, open_minus: ScoringScheme(
            match=match,
            mismatch=mismatch,
            gap_open=extend - open_minus,
            gap_extend=extend,
        ),
        st.integers(1, 4),
        st.integers(-4, 0),
        st.integers(-3, 0),
        st.integers(0, 6),
    )


@settings(max_examples=150, deadline=None)
@given(a=_SHORT, b=_SHORT)
def test_optimality_against_path_enumeration_default_scheme(a: str, b: str):
    r = align_global(dna(a, "a"), dna(b, "b"), DNA_SCHEME)
    assert r.score == oracle_best_score(a, b, DNA_SCHEME)


@settings(max_examples=150, deadline=None)
@given(a=_SHORT, b=_SHORT, scheme=_schemes())
def test_optimality_against_path_enumeration_random_schemes(
    a: str, b: str, scheme: ScoringScheme
):
    r = align_global(dna(a, "a"), dna(b, "b"), scheme)
    assert r.score == oracle_best_score(a, b, scheme)


@settings(max_examples=200, deadline=None)
@given(a=st.text(alphabet="ACGTN", min_size=1, max_size=40),
       b=st.text(alphabet="ACGTN", min_size=1, max_size=40))
def test_degap_law_and_affine_rescoring(a: str, b: str):
    r = align_global(dna(a, "a"), dna(b, "b"), DNA_SCHEME)
    assert r.degapped_a() == a
    assert r.aligned_b.replace(GAP, "") == b
    assert rescore_alignment(r.aligned_a, r.aligned_b, DNA_SCHEME) == r.score


@settings(max_examples=150, deadline=None)
@given(a=st.text(alphabet="ACGT", min_size=1, max_size=25),
       b=st.text(alphabet="ACGT", min_size=1, max_size=25))
def test_score_symmetry(a: str, b: str):
    fwd = align_global(dna(a, "a"), dna(b, "b"), DNA_SCHEME)
    rev = align_global(dna(b, "b"), dna(a, "a"), DNA_SCHEME)
    assert fwd.score == rev.score


def test_ops_transpose_on_swap_when_optimum_unique():
    a, b = "ACGTACGT", "ACGT"
    fwd = align_global(dna(a, "a"), dna(b, "b"), DNA_SCHEME)
    rev = align_global(dna(b, "b"), dna(a, "a"), DNA_SCHEME)
    swap = {AlignOp.INSERT: AlignOp.DELETE, AlignOp.DELETE: AlignOp.INSERT}
    assert tuple((swap.get(op, op), n) for op, n in fwd.ops) == rev.ops


@settings(max_examples=150, deadline=None)
@given(
    base=st.text(alphabet="ACGT", min_size=2, max_size=30),
    pos=st.integers(0, 29),
    repl=st.sampled_from("ACGT"),
)
def test_gap_free_dominance_on_single_substitution(base: str, pos: int, repl: str):
    # mismatch (-1) costs less than any gap pair (2 * -5), so equal-length
    # inputs one substitution apart must align without gaps
    pos %= len(base)
    other = base[:pos] + repl + base[pos + 1 :]
    r = align_global(dna(base, "a"), dna(other, "b"), DNA_SCHEME)
    assert all(op in (AlignOp.MATCH, AlignOp.MISMATCH) for op, _ in r.ops)


@settings(max_examples=100, deadline=None)
@given(a=st.text(alphabet="ACGT", min_size=1, max_size=30),
       b=st.text(alphabet="ACGT", min_size=1, max_size=30))
def test_identity_percent_range(a: str, b: str):
    r = align_global(dna(a, "a"), dna(b, "b"), DNA_SCHEME)
    assert 0.0 <= identity_percent(r) <= 100.0


# --- exactness of the banded fill against the full-matrix oracle


def _spell(a: str, b: str, corners: tuple[tuple[int, int], ...]) -> tuple[str, str]:
    """The gapped rows of a path given by its corners; each leg between
    two corners must be all diagonal or all gap columns."""
    assert corners[0] == (0, 0) and corners[-1] == (len(a), len(b))
    rows_a, rows_b = [], []
    for (i0, j0), (i1, j1) in zip(corners, corners[1:]):
        down, across = i1 - i0, j1 - j0
        assert down >= 0 and across >= 0
        if down and across:
            assert down == across
            rows_a.append(a[i0:i1])
            rows_b.append(b[j0:j1])
        else:
            rows_a.append(a[i0:i1] + "-" * across)
            rows_b.append("-" * down + b[j0:j1])
    return "".join(rows_a), "".join(rows_b)


def _same_as_oracle(a: Sequence, b: Sequence, scheme: ScoringScheme) -> None:
    """align_global gives the full-matrix oracle's alignment, and the seed
    path its band is sized from is a real alignment no better than it,
    lying inside that band."""
    got = align_global(a, b, scheme)
    want = oracle_full_alignment(a.residues, b.residues, scheme)
    assert (got.aligned_a, got.aligned_b, got.ops, got.score) == (
        want.aligned_a,
        want.aligned_b,
        want.ops,
        want.score,
    )
    seed = alignment._seed(a, b, scheme)
    rows = _spell(a.residues, b.residues, seed.corners)
    assert rescore_alignment(*rows, scheme) == seed.score <= want.score
    n, m = len(a), len(b)
    # a path leaving the band scores at most its exit bound, so the band
    # sized from the seed's score holds the seed path
    slack = alignment._slack_beating(n, m, seed.score, scheme)
    lo, hi = min(0, m - n) - slack, max(0, m - n) + slack
    assert slack >= alignment._cover_slack(n, m) or all(
        lo <= j - i <= hi for i, j in seed.corners
    )


@settings(max_examples=200, deadline=None)
@given(
    a=st.text(alphabet="ACGTN", min_size=1, max_size=40),
    b=st.text(alphabet="ACGTN", min_size=1, max_size=40),
    scheme=_schemes(),
)
# an optimal path leaves a slack-1 band with a score equal to its bound:
# accepting that band would pick another of the tied alignments
@example(a="CTTCTA", b="CTTAAC", scheme=ScoringScheme(4, -4, -2, -2))
def test_band_matches_full_matrix_dna(a: str, b: str, scheme: ScoringScheme):
    _same_as_oracle(dna(a, "a"), dna(b, "b"), scheme)


@settings(max_examples=100, deadline=None)
@given(
    a=st.text(alphabet="ACDEFGHIKLMNPQRSTVWYX*", min_size=1, max_size=40),
    b=st.text(alphabet="ACDEFGHIKLMNPQRSTVWYX*", min_size=1, max_size=40),
    scheme=_schemes(),
)
def test_band_matches_full_matrix_protein(a: str, b: str, scheme: ScoringScheme):
    _same_as_oracle(protein(a, "a"), protein(b, "b"), scheme)


@st.composite
def _near_diagonal_pairs(draw) -> tuple[str, str]:
    """A 1-3 kb sequence and a copy with 0-20 substitutions and 0-3 indels."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    base = rng.choices("ACGT", k=draw(st.integers(1000, 3000)))
    other = list(base)
    for _ in range(draw(st.integers(0, 20))):
        other[rng.randrange(len(other))] = rng.choice("ACGT")
    for _ in range(draw(st.integers(0, 3))):
        pos = rng.randrange(len(other))
        size = draw(st.integers(1, 300))
        if draw(st.booleans()):
            other[pos:pos] = rng.choices("ACGT", k=size)
        else:
            del other[pos : pos + size]
    return "".join(base), "".join(other) or "A"


@settings(max_examples=8, deadline=None)
@given(pair=_near_diagonal_pairs())
def test_band_matches_full_matrix_near_diagonal(pair: tuple[str, str]):
    a, b = pair
    _same_as_oracle(dna(a, "a"), dna(b, "b"), DNA_SCHEME)


@settings(max_examples=60, deadline=None)
@given(
    unit=st.sampled_from(["A", "AC", "AAC", "ACGT"]),
    n=st.integers(1, 120),
    m=st.integers(1, 120),
    scheme=_schemes(),
)
def test_band_matches_full_matrix_low_complexity(
    unit: str, n: int, m: int, scheme: ScoringScheme
):
    # repeats admit many optimal paths; the band must pick the same one
    a, b = (unit * n)[:n], (unit * m)[:m]
    _same_as_oracle(dna(a, "a"), dna(b, "b"), scheme)


def _divergent_pair() -> tuple[Sequence, Sequence]:
    """A 1.2 kb sequence and a copy with 10-15% substitutions and three
    indels of up to 90 nt, like the benchmark's divergent entries."""
    rng = random.Random(11)
    base = rng.choices("ACGT", k=1200)
    other = list(base)
    for pos in rng.sample(range(len(other)), rng.randint(120, 180)):
        other[pos] = rng.choice("ACGT".replace(other[pos], ""))
    for size in (90, 45, 60):
        pos = rng.randrange(len(other) - size)
        if rng.random() < 0.5:
            other[pos:pos] = rng.choices("ACGT", k=size)
        else:
            del other[pos : pos + size]
    return dna("".join(base), "a"), dna("".join(other), "b")


def _one_diagonal(a: Sequence, b: Sequence, floor: int | None = None) -> bool:
    """True when align_global's band is the single diagonal 0. That needs
    n == m, and then the gapless score G alone decides: a path off
    diagonal 0 scores at most the slack-0 exit bound, so a seed never
    brings the slack to 0 where G does not."""
    n, m = len(a), len(b)
    if n != m:
        return False
    score = alignment._gapless_score(a.residues, b.residues, DNA_SCHEME)
    target = score if floor is None else max(score, floor)
    return alignment._slack_beating(n, m, target, DNA_SCHEME) == 0


@pytest.mark.parametrize("pair", ["bundled", "divergent"])
def test_one_fill_per_alignment(pair: str, reference_cds, subject_r248w):
    # the bundled pair differs by one substitution: its band is one
    # diagonal, which holds only the gapless path and needs no fill
    a, b = (reference_cds, subject_r248w) if pair == "bundled" else _divergent_pair()
    assert _one_diagonal(a, b) is (pair == "bundled")
    with mock.patch.object(
        alignment, "_fill_band", wraps=alignment._fill_band
    ) as fill, mock.patch.object(
        alignment, "_check_cells", wraps=alignment._check_cells
    ) as cells:
        _same_as_oracle(a, b, DNA_SCHEME)
    # the cell limit is checked once, on the band that is filled
    assert fill.call_count == cells.call_count == (0 if _one_diagonal(a, b) else 1)


# --- the score floor and the one-diagonal band


def _assert_floor_law(a: Sequence, b: Sequence, scheme: ScoringScheme, floor: int) -> None:
    """With a floor, align_global refuses exactly the pairs whose optimum
    lies below it, and otherwise returns the alignment it gives without."""
    got = align_global(a, b, scheme, floor=floor)
    want = oracle_full_alignment(a.residues, b.residues, scheme)
    if want.score < floor:
        assert got is None
    else:
        assert got == align_global(a, b, scheme)
        assert (got.aligned_a, got.aligned_b, got.score) == (
            want.aligned_a,
            want.aligned_b,
            want.score,
        )


@settings(max_examples=300, deadline=None)
@given(
    a=st.text(alphabet="ACGTN", min_size=1, max_size=30),
    b=st.text(alphabet="ACGTN", min_size=1, max_size=30),
    scheme=_schemes(),
    offset=st.integers(-6, 6),
)
def test_floor_refuses_exactly_the_pairs_below_it(
    a: str, b: str, scheme: ScoringScheme, offset: int
):
    # floors around the optimum, where refusing and aligning meet
    floor = oracle_full_alignment(a, b, scheme).score + offset
    _assert_floor_law(dna(a, "a"), dna(b, "b"), scheme, floor)


@pytest.mark.parametrize("above", [400])
def test_fill_stops_once_its_row_bound_is_below_the_floor(above: int):
    # a floor far above the optimum refuses the divergent pair before the
    # fill: 400 above the optimum (1628) is above the pair's LCS bound
    # (1782), the bound on every row, so align_global runs no fill, no
    # window and no row
    a, b = _divergent_pair()
    best = oracle_full_alignment(a.residues, b.residues, DNA_SCHEME).score
    with mock.patch.object(
        alignment, "_fill_band", wraps=alignment._fill_band
    ) as fill, mock.patch.object(
        alignment, "_windows", wraps=alignment._windows
    ) as windows:
        assert align_global(a, b, DNA_SCHEME, floor=best + above) is None
    assert fill.call_count == 0
    assert windows.call_count == 0


def _lcs_bound(a: str, b: str, scheme: ScoringScheme) -> int:
    return alignment._match_bound(len(a), len(b), oracle_lcs(a, b), scheme)


@settings(max_examples=300, deadline=None)
@given(
    a=st.text(alphabet="ACGTN", min_size=1, max_size=70),
    b=st.text(alphabet="ACGTN", min_size=1, max_size=70),
)
def test_lcs_length_is_the_textbook_table(a: str, b: str):
    # up to 70 bits: the additions carry across several 30-bit digits
    # of a Python int, and out of the top bit
    assert alignment._lcs_length(a, b) == oracle_lcs(a, b)


def _signed_schemes() -> st.SearchStrategy[ScoringScheme]:
    """Schemes whose match may be negative too, so that all three terms
    of the bound take turns as its maximum: D = n - L once 2 *
    gap_extend > mismatch, and D = n once match < 2 * gap_extend."""
    return st.builds(
        lambda match, below, extend, open_minus: ScoringScheme(
            match=match,
            mismatch=match - below,
            gap_open=extend - open_minus,
            gap_extend=extend,
        ),
        st.integers(-3, 4),
        st.integers(1, 6),
        st.integers(-3, 0),
        st.integers(0, 6),
    )


@settings(max_examples=300, deadline=None)
@given(
    a=st.text(alphabet="ACGTN", min_size=1, max_size=25),
    b=st.text(alphabet="ACGTN", min_size=1, max_size=25),
    scheme=_signed_schemes(),
)
# free gaps and a losing match: the all-gap alignment scores 0, the
# D = n term; the D = n - L term alone (-1) would be below it
@example(a="ACGT", b="TGCA", scheme=ScoringScheme(-1, -3, 0, 0))
def test_lcs_bound_is_an_upper_bound(a: str, b: str, scheme: ScoringScheme):
    bound = _lcs_bound(a, b, scheme)
    assert bound >= oracle_full_alignment(a, b, scheme).score
    # with every residue of the shorter sequence a match it is the
    # all-match bound, so it is never looser than that
    n, m = len(a), len(b)
    gain = max(0, scheme.match - 2 * scheme.gap_extend)
    everything = (n + m) * scheme.gap_extend + gain * min(n, m)
    assert bound <= alignment._match_bound(n, m, min(n, m), scheme) == everything


@settings(max_examples=500, deadline=None)
@given(
    n=st.integers(1, 80),
    m=st.integers(1, 80),
    scheme=_signed_schemes(),
    anchor=st.sampled_from(["slack 0", "all deletes", "slack"]),
    slack=st.integers(0, 40),
    offset=st.integers(-2, 2),
)
# the bundled pair's lengths, one substitution apart, and schemes whose
# match is not positive or whose gaps cost only extends
@example(n=1179, m=1179, scheme=DNA_SCHEME, anchor="slack 0", slack=0, offset=9)
@example(n=7, m=5, scheme=ScoringScheme(0, -2, -1, -1), anchor="slack", slack=1, offset=0)
@example(n=4, m=9, scheme=ScoringScheme(-1, -3, 0, 0), anchor="all deletes", slack=0, offset=1)
def test_slack_is_the_scan_over_every_slack(
    n: int, m: int, scheme: ScoringScheme, anchor: str, slack: int, offset: int
):
    # the closed form against a scan over every slack. Targets sit next
    # to where its branches turn: the exit bound at slack 0 (below it no
    # slack is needed), the bound of a path that deletes all of a (at or
    # below it the band must cover the matrix) and the bound at some
    # slack between, where the arithmetic must land on the scan's slack
    score = offset + {
        "slack 0": oracle_off_band_bound(n, m, 0, scheme),
        "all deletes": 2 * scheme.gap_open + (n + m - 2) * scheme.gap_extend,
        "slack": oracle_off_band_bound(n, m, slack, scheme),
    }[anchor]
    assert alignment._slack_beating(n, m, score, scheme) == oracle_slack(n, m, score, scheme)


def test_lcs_bound_refuses_before_any_row():
    # a floored row fill is refused one of two ways. The divergent pair's
    # optimum (1628) is below its LCS bound (1782): at a floor above the
    # bound align_global refuses the pair on the bound with no fill,
    # window or traceback; at the bound itself the fill runs to its last
    # row, and align_global refuses the score below the floor with no
    # traceback
    a, b = _divergent_pair()
    bound = _lcs_bound(a.residues, b.residues, DNA_SCHEME)
    assert oracle_full_alignment(a.residues, b.residues, DNA_SCHEME).score < bound
    for floor, rows in ((bound + 1, False), (bound, True)):
        with mock.patch.object(
            alignment, "_lcs_length", wraps=alignment._lcs_length
        ) as lcs, mock.patch.object(
            alignment, "_fill_band", wraps=alignment._fill_band
        ) as fill, mock.patch.object(
            alignment, "_windows", wraps=alignment._windows
        ) as windows, mock.patch.object(
            alignment, "_traceback", wraps=alignment._traceback
        ) as traceback:
            assert align_global(a, b, DNA_SCHEME, floor=floor) is None
        assert lcs.call_count == 1
        assert fill.call_count == windows.call_count == rows
        assert traceback.call_count == 0


def test_a_target_the_lower_bound_sets_computes_no_lcs():
    # the seed's score is a real alignment's, which the LCS bound never
    # refuses: with no floor, or a floor below that score, the target is
    # the seed's and the divergent pair's row fill runs with no LCS. (At
    # a floor equal to it the floor is the target, and the bound is
    # computed, as for any floored row fill.)
    a, b = _divergent_pair()
    seeded = alignment._seed(a, b, DNA_SCHEME).score
    for floor in (None, seeded - 1, seeded - 200):
        with mock.patch.object(
            alignment, "_lcs_length", wraps=alignment._lcs_length
        ) as lcs, mock.patch.object(
            alignment, "_fill_band", wraps=alignment._fill_band
        ) as fill:
            got = align_global(a, b, DNA_SCHEME, floor=floor)
        assert lcs.call_count == 0
        assert fill.call_count == 1
        _assert_oracle_alignment(got, a.residues, b.residues)


def test_seed_above_the_optimum_raises_unless_the_floor_sets_the_target():
    # the seed's score is a real path's, a lower bound on the divergent
    # pair's optimum. One scoring above the optimum sizes a band that no
    # path fills to its score. With the seed's score as the target that
    # is a fault; with a floor at or above it, a refusal.
    a, b = _divergent_pair()
    best = oracle_full_alignment(a.residues, b.residues, DNA_SCHEME).score
    seed = alignment._seed(a, b, DNA_SCHEME)._replace(score=best + 1)
    with mock.patch.object(alignment, "_seed", return_value=seed):
        for floor in (None, best - 50, best):
            with pytest.raises(AssertionError, match="below its target"):
                align_global(a, b, DNA_SCHEME, floor=floor)
        for floor in (best + 1, best + 50):
            _assert_floor_law(a, b, DNA_SCHEME, floor)


@settings(max_examples=8, deadline=None)
@given(pair=_near_diagonal_pairs(), offset=st.integers(-40, 40))
def test_floor_law_on_near_diagonal_pairs(pair: tuple[str, str], offset: int):
    a, b = pair
    floor = oracle_full_alignment(a, b, DNA_SCHEME).score + offset
    _assert_floor_law(dna(a, "a"), dna(b, "b"), DNA_SCHEME, floor)


def _substituted(base: str, count: int, rng: random.Random) -> str:
    """``base`` with ``count`` substitutions at distinct positions."""
    other = list(base)
    for pos in rng.sample(range(len(base)), count):
        other[pos] = rng.choice("ACGT".replace(other[pos], ""))
    return "".join(other)


@st.composite
def _equal_length_pairs(draw) -> tuple[str, str]:
    """A 100-400 nt sequence and a copy with 0-3 substitutions."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    base = "".join(rng.choices("ACGT", k=draw(st.integers(100, 400))))
    return base, _substituted(base, draw(st.integers(0, 3)), rng)


@functools.cache
def _bundled_reference() -> str:
    store = load_store(bundled_refstore_path())
    return next(e.sequence.residues for e in store.entries if e.source == "ncbi-export")


@st.composite
def _bundled_snv_pairs(draw) -> tuple[str, str]:
    """The bundled 1179 nt reference and a copy with 0-24 substitutions.
    From 4 of them the gapless score's band is wider than one diagonal,
    and from 15 too wide to fill by diagonals."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    base = _bundled_reference()
    return base, _substituted(base, draw(st.integers(0, 24)), rng)


@settings(max_examples=40, deadline=None)
@given(pair=_equal_length_pairs(), offset=st.none() | st.integers(-20, 20))
def test_one_diagonal_band_runs_no_fill(pair: tuple[str, str], offset: int | None):
    a, b = dna(pair[0], "a"), dna(pair[1], "b")
    want = oracle_full_alignment(a.residues, b.residues, DNA_SCHEME)
    floor = None if offset is None else want.score + offset
    with mock.patch.object(alignment, "_fill_band", wraps=alignment._fill_band) as fill:
        got = align_global(a, b, DNA_SCHEME, floor=floor)
    assert fill.call_count == (0 if _one_diagonal(a, b, floor) else 1)
    if floor is not None and want.score < floor:
        assert got is None
    else:
        assert (got.aligned_a, got.aligned_b, got.score) == (
            want.aligned_a,
            want.aligned_b,
            want.score,
        )


@settings(max_examples=40, deadline=None)
@given(
    pair=_equal_length_pairs() | _bundled_snv_pairs(),
    offset=st.none() | st.integers(-20, 20),
)
def test_equal_length_pairs_start_from_the_gapless_score(
    pair: tuple[str, str], offset: int | None
):
    # the gapless score G is the first lower bound. The seed runs only
    # where G's band is neither one diagonal nor filled by diagonals, and
    # where the optimum is G no traceback runs and the rows are the inputs
    a, b = dna(pair[0], "a"), dna(pair[1], "b")
    n = len(a)
    want = oracle_full_alignment(a.residues, b.residues, DNA_SCHEME)
    floor = None if offset is None else want.score + offset
    gapless = alignment._gapless_score(a.residues, b.residues, DNA_SCHEME)
    target = gapless if floor is None else max(gapless, floor)
    slack = alignment._slack_beating(n, n, target, DNA_SCHEME)
    cheap = slack == 0 or alignment._band_shape(n, n, slack).by_diagonals
    with mock.patch.object(
        alignment, "_seed", wraps=alignment._seed
    ) as seed, mock.patch.object(
        alignment, "_traceback", wraps=alignment._traceback
    ) as traceback:
        got = align_global(a, b, DNA_SCHEME, floor=floor)
    assert seed.call_count == (0 if cheap else 1)
    if want.score == gapless:
        assert traceback.call_count == 0
        assert got is None or (got.aligned_a, got.aligned_b) == (a.residues, b.residues)
    if floor is None:
        _assert_oracle_alignment(got, a.residues, b.residues)
    else:
        _assert_floor_law(a, b, DNA_SCHEME, floor)


@pytest.mark.parametrize("pair", ["bundled", "divergent"])
def test_only_a_seed_indexes_the_words(pair: str, reference_cds, subject_r248w):
    # the bundled pair, one substitution apart, has n == m and a gapless
    # band of one diagonal: no seed runs, and a fresh subject's words are
    # never indexed. The divergent pair differs in length and seeds once.
    if pair == "bundled":
        a, b = reference_cds, dna(subject_r248w.residues, "fresh")
    else:
        a, b = _divergent_pair()
    with mock.patch.object(alignment, "_seed", wraps=alignment._seed) as seed:
        align_global(a, b, DNA_SCHEME)
    assert seed.call_count == (pair == "divergent")
    assert ("unique_words" in b.__dict__) is (pair == "divergent")


# --- the fill by diagonals against the fill by rows


def _by(kind: str):
    """Send every band narrower than the matrix to one fill."""
    return mock.patch.object(
        alignment, "_ROWS_PER_DIAGONAL", 0 if kind == "diagonals" else math.inf
    )


# every value below this is a sentinel plus its drift (_check_exact)
_SENTINEL_REGION = alignment._UNREACHED + alignment._HEADROOM


def _assert_same_values(rows: np.ndarray, diagonals: np.ndarray) -> None:
    """Equal where an in-band path reaches the cell; where none does,
    both in the sentinel region. A sentinel drifts by what the cells
    around it add, and the two fills add in different orders."""
    reached = rows >= _SENTINEL_REGION
    assert np.array_equal(reached, diagonals >= _SENTINEL_REGION)
    assert np.array_equal(rows[reached], diagonals[reached])


def _assert_same_cells(
    a: str, b: str, first: int, rows: tuple, diagonals: tuple
) -> None:
    """Stored M and X agree at every cell with 0 <= j <= m (cells with
    j > m are read by no cell of the matrix), and Y at the end cell, for
    two fills of one band stored by diagonal from diagonal ``first``."""
    n, m = len(a), len(b)
    mat_m, mat_x, y_last = rows
    # row i, storage column c holds cell (i, i + first + c - 1)
    j = np.arange(n + 1)[:, None] + first - 1 + np.arange(mat_m.shape[1])
    inside = j <= m
    _assert_same_values(mat_m[inside], diagonals[0][inside])
    _assert_same_values(mat_x[inside], diagonals[1][inside])
    end = m - n - first + 1
    _assert_same_values(y_last[end - 1 : end], diagonals[2][end - 1 : end])


@st.composite
def _band_cases(draw) -> tuple[str, str, int]:
    """Two 5-200 residue sequences and a slack whose band is narrower
    than the matrix. The residues are ACGT, AC or a homopolymer, which
    give many equal-scoring paths; b is an edited copy of a (0-8
    substitutions and +-1 indels) or drawn on its own, and in half the
    cases trimmed or padded to n residues."""
    unit = draw(st.sampled_from(["ACGT", "AC", "A"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(5, 200))
    a = rng.choices(unit, k=n)
    if draw(st.booleans()):
        b = rng.choices(unit, k=draw(st.integers(1, 200)))
    else:
        b = list(a)
        for _ in range(draw(st.integers(0, 8))):
            pos, kind = rng.randrange(len(b)), rng.randrange(3)
            if kind == 0:
                b[pos] = rng.choice(unit)
            elif kind == 1:
                b.insert(pos, rng.choice(unit))
            elif len(b) > 1:
                del b[pos]
    if draw(st.booleans()):
        b = (b + rng.choices(unit, k=n))[:n]
    slack = draw(st.integers(0, 8))
    assume(slack < alignment._cover_slack(n, len(b)))
    return "".join(a), "".join(b), slack


@settings(max_examples=250, deadline=None)
@given(case=_band_cases(), scheme=_schemes())
def test_fill_by_diagonals_converges_to_the_fill_by_rows(case, scheme: ScoringScheme):
    # with no cap the sweeps run until one moves nothing: every reached
    # cell of the matrix then holds its in-band optimum, as the row
    # fill's does, and every other cell a sentinel in both.
    # Slacks up to 8 are wider than these lengths ever send by diagonals.
    # The cap is more sweeps than a path has gap runs, so it never stops
    # the fill; the row fill ignores it.
    a, b, slack = case
    sweeps = len(a) + len(b) + 1
    with _by("rows"):
        by_rows = alignment._band_shape(len(a), len(b), slack)
    with _by("diagonals"):
        by_diagonals = alignment._band_shape(len(a), len(b), slack)
    # one layout, stored by diagonal, and the two fill kinds
    assert by_rows._replace(by_diagonals=True) == by_diagonals and by_rows.step == 1
    assert not by_rows.by_diagonals
    rows = alignment._fill_band(a, b, scheme, by_rows, sweeps)
    fill, caps = alignment._fill_diagonals, []

    def recorded(*args):
        caps.append(args[4])
        return fill(*args)

    with mock.patch.object(alignment, "_fill_diagonals", recorded):
        diagonals = alignment._fill_band(a, b, scheme, by_diagonals, sweeps)
    assert caps == [sweeps]
    _assert_same_cells(a, b, by_rows.first, rows, diagonals)


def _outcome(a: str, b: str, scheme: ScoringScheme, floor: int | None, kind: str):
    with _by(kind):
        got = align_global(dna(a, "a"), dna(b, "b"), scheme, floor=floor)
    return None if got is None else (got.aligned_a, got.aligned_b, got.ops, got.score)


@settings(max_examples=250, deadline=None)
@given(case=_band_cases(), scheme=_schemes(), offset=st.none() | st.integers(-8, 8))
def test_align_global_is_the_same_by_diagonals_and_by_rows(
    case, scheme: ScoringScheme, offset: int | None
):
    # at its sweep cap the fill may leave a cell that no path reaching
    # the target crosses below its optimum; rows, ops, score and refusals
    # must still be the row fill's, with or without a floor
    a, b, _ = case
    want = _outcome(a, b, scheme, None, "rows")
    floor = None if offset is None else want[3] + offset
    if floor is not None:
        want = _outcome(a, b, scheme, floor, "rows")
    assert _outcome(a, b, scheme, floor, "diagonals") == want


def _alternating_indels(count: int) -> tuple[str, str]:
    """A 400 nt sequence and a copy with ``count`` single-residue indels,
    inserts and deletions in turn, at least 20 nt from either end."""
    rng = random.Random(2)
    a = rng.choices("ACGT", k=400)
    b = list(a)
    for k, pos in enumerate(sorted(rng.sample(range(20, 380), count), reverse=True)):
        if k % 2:
            del b[pos]
        else:
            b.insert(pos, rng.choice("ACGT"))
    return "".join(a), "".join(b)


@pytest.mark.parametrize("count", [2, 3, 4, 5, 6])
def test_alternating_indels_take_every_sweep_the_cap_allows(count: int):
    # each indel is a gap run turning the path's direction, so the
    # optimal path needs a sweep for each and one more: the fill runs
    # at least count + 1 sweeps and at most the cap. Up to 5 indels it
    # stops at the cap, not by finding nothing moved, and is still
    # exact. The seed's score, passed as the floor, sets the target and
    # so the cap: an even count leaves n == m, where a band filled by
    # diagonals is sized from the gapless score alone, far below the
    # seed's
    a, b = _alternating_indels(count)
    seeded = alignment._seed(dna(a, "a"), dna(b, "b"), DNA_SCHEME).score
    fill, sweeps = alignment._fill_diagonals, []

    def recorded(*args):
        sweeps.append((args[4], fill(*args)))  # (cap, sweeps run)
        return sweeps[-1][1]

    with _by("diagonals"), mock.patch.object(alignment, "_fill_diagonals", recorded):
        got = align_global(dna(a, "a"), dna(b, "b"), DNA_SCHEME, floor=seeded)
    [(cap, ran)] = sweeps
    assert count + 1 <= ran <= cap
    if count <= 5:
        assert ran == cap
    gap_runs = sum(op in (AlignOp.INSERT, AlignOp.DELETE) for op, _ in got.ops)
    assert gap_runs == count
    _assert_oracle_alignment(got, a, b)
    assert (got.aligned_a, got.aligned_b, got.ops, got.score) == _outcome(
        a, b, DNA_SCHEME, None, "rows"
    )


def _planted_snvs(reference: Sequence, count: int) -> Sequence:
    return dna(_substituted(reference.residues, count, random.Random(count)), "snv")


@pytest.mark.parametrize("pair", ["4 snvs", "5 snvs", "divergent"])
def test_long_narrow_bands_go_by_diagonals(pair: str, reference_cds):
    # 4 or 5 substitutions leave the gapless score 2n - 3k no better than
    # the slack-0 exit bound 2n - 12: a band 3 diagonals wide on 1179
    # rows, filled by diagonals. The divergent pair's band is hundreds
    # of diagonals wide and is filled by rows.
    if pair == "divergent":
        a, b = _divergent_pair()
    else:
        a, b = reference_cds, _planted_snvs(reference_cds, int(pair[0]))
    with mock.patch.object(
        alignment, "_fill_band", wraps=alignment._fill_band
    ) as fill, mock.patch.object(
        alignment, "_fill_diagonals", wraps=alignment._fill_diagonals
    ) as by_diagonal:
        got = align_global(a, b, DNA_SCHEME)
    assert fill.call_count == 1
    assert by_diagonal.call_count == (pair != "divergent")
    _assert_oracle_alignment(got, a.residues, b.residues)


@pytest.mark.parametrize("kind", ["diagonals", "rows"])
def test_fills_are_exact_up_to_the_int32_headroom(kind: str):
    # on a 40 x 40 pair _check_exact's bound is 160 * largest + 20 *
    # |gap_extend|: 536,800,020 at scores of 3,355,000, just under
    # 2**29 = 536,870,912. There every value of either fill, the running
    # sums C and the inputs V - C included, must stay exact and apart
    # from the sentinels; at scores of 3,355,444 the bound is past 2**29
    rng = random.Random(7)
    a = "".join(rng.choices("ACGT", k=40))
    for largest, admitted in ((3_355_000, True), (3_355_444, False)):
        steep = ScoringScheme(
            match=largest, mismatch=-largest, gap_open=-largest, gap_extend=-1
        )
        for b in (a[:10] + a[11:30] + "G" + a[30:], a[:8] + "T" + a[8:25] + a[26:]):
            with _by(kind), mock.patch.object(
                alignment, "_fill_diagonals", wraps=alignment._fill_diagonals
            ) as by_diagonal, mock.patch.object(
                alignment, "_fill_band", wraps=alignment._fill_band
            ) as fill:
                if admitted:
                    _same_as_oracle(dna(a, "a"), dna(b, "b"), steep)
                else:
                    with pytest.raises(AlignmentTooLargeError, match="int32"):
                        align_global(dna(a, "a"), dna(b, "b"), steep)
            assert fill.call_count == admitted
            assert by_diagonal.call_count == (admitted and kind == "diagonals")


# --- the run-wise traceback against the full-matrix oracle


def _random_dna(rng: random.Random, size: int) -> str:
    return "".join(rng.choices("ACGT", k=size))


def _align_stored(a: str, b: str, whole: bool) -> tuple[AlignmentResult, int]:
    """align_global on a band (or, with ``whole``, on the whole matrix),
    and the step the fill stored the cells with."""
    fill, steps = alignment._fill_band, []

    def recorded(*args):
        steps.append(args[3].step)
        return fill(*args)

    wide = mock.patch.object(alignment, "_slack_beating", return_value=len(a) + len(b))
    with mock.patch.object(alignment, "_fill_band", recorded), (
        wide if whole else nullcontext()
    ):
        result = align_global(dna(a, "a"), dna(b, "b"), DNA_SCHEME)
    return result, steps[0]


def _assert_oracle_alignment(got: AlignmentResult, a: str, b: str) -> None:
    want = oracle_full_alignment(a, b, DNA_SCHEME)
    assert (got.aligned_a, got.aligned_b, got.ops, got.score) == (
        want.aligned_a,
        want.aligned_b,
        want.ops,
        want.score,
    )


def test_identical_1179_nt_pair_is_one_run(reference_cds):
    # one diagonal run, checked in one pass, down to (0, 0)
    copy = dna(reference_cds.residues, "copy")
    _same_as_oracle(reference_cds, copy, DNA_SCHEME)
    assert align_global(reference_cds, copy, DNA_SCHEME).ops == ((AlignOp.MATCH, 1179),)


@pytest.mark.parametrize("whole", [False, True], ids=["band", "whole"])
@pytest.mark.parametrize("run", [63, 64, 65, 128, 129])
def test_diagonal_run_ending_at_a_chunk_edge(run: int, whole: bool):
    # a has 7 residues b lacks; from the end the walk takes `run`
    # diagonal columns, one of them a mismatch, then the Delete run.
    # Its one pass checks the diagonal on into the head, and the run
    # must end where the Delete run begins, whatever its length
    rng = random.Random(run)
    head, gap, tail = _random_dna(rng, 80), "TTTTTTT", _random_dna(rng, run)
    head, tail = head[:-1] + "G", "A" + tail[1:]
    mid = run // 2
    changed = tail[:mid] + "ACGT"[("ACGT".index(tail[mid]) + 1) % 4] + tail[mid + 1 :]
    a, b = head + gap + tail, head + changed
    got, step = _align_stored(a, b, whole)
    assert step == (0 if whole else 1)
    assert got.aligned_b.endswith(GAP + changed)
    _assert_oracle_alignment(got, a, b)


@pytest.mark.parametrize("whole", [False, True], ids=["band", "whole"])
@pytest.mark.parametrize("lead", [AlignOp.INSERT, AlignOp.DELETE])
def test_path_starting_with_a_gap_run(lead: AlignOp, whole: bool):
    # the diagonal run from the end reaches i == 0 (Insert first) or
    # j == 0 (Delete first) with no break: one pass takes it whole
    rng = random.Random(3)
    extra, core = _random_dna(rng, 9), _random_dna(rng, 100)
    a, b = (core, extra + core) if lead is AlignOp.INSERT else (extra + core, core)
    got, step = _align_stored(a, b, whole)
    assert step == (0 if whole else 1)
    assert got.ops == ((lead, 9), (AlignOp.MATCH, 100))
    _assert_oracle_alignment(got, a, b)


def test_seed_puts_the_gap_at_the_best_split():
    # substitutions every 6 nt around a 30-nt deletion leave no shared
    # word there, so the join between the flanking runs places the gap
    rng = random.Random(2)
    a = rng.choices("ACGT", k=400)
    b = a[:200] + a[230:]
    for pos in range(170, 240, 6):
        b[pos] = rng.choice("ACGT".replace(b[pos], ""))
    a, b = "".join(a), "".join(b)
    seed = alignment._seed(dna(a, "a"), dna(b, "b"), DNA_SCHEME)
    assert (200, 200) in seed.corners and (230, 200) in seed.corners
    assert seed.score == oracle_full_alignment(a, b, DNA_SCHEME).score


def test_band_cells_take_8_bytes():
    n, m, slack = 30, 40, 3
    a, b = "A" * n, "C" * m
    band = alignment._band_shape(n, m, slack)
    mat_m, mat_x, y_last = alignment._fill_band(a, b, DNA_SCHEME, band, sweeps=1)
    width = m - n + 2 * slack + 1
    assert mat_m.nbytes + mat_x.nbytes == 8 * (n + 1) * (width + 2)
    assert y_last.shape == (width,)


def test_band_memory_is_linear_in_length(reference_cds, subject_r248w):
    # a full 1179 x 1179 fill of 2 int32 matrices would take about 11 MB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        align_global(reference_cds, subject_r248w, DNA_SCHEME)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 2 * 1024 * 1024


def test_alignment_needs_under_40_kb_beyond_its_band(store, subject_r248w):
    # on cds_snv most of the gated peak memory is a ranking alignment:
    # the band itself, plus what the fill and ops allocate; the pair's
    # optimum is its gapless score, so no seed or traceback runs. The
    # ebi entry's band is 7 diagonals wide; the ncbi entry aligns on one
    # diagonal, with no band to measure against.
    ebi = next(e.sequence for e in store.entries if e.source == "ebi-export")
    assert not _one_diagonal(ebi, subject_r248w)
    align_global(ebi, subject_r248w, DNA_SCHEME)  # warm up
    fill, band = alignment._fill_band, []

    def measured(*args):
        mats = fill(*args)
        band.append(mats[0].nbytes + mats[1].nbytes)
        return mats

    with mock.patch.object(alignment, "_fill_band", measured):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            align_global(ebi, subject_r248w, DNA_SCHEME)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak - before - band[0] < 40 * 1024


def test_seed_needs_under_36_kb_on_the_bundled_pair(reference_cds, subject_r248w):
    # the seed runs on pairs of unequal length and on equal-length pairs
    # whose gapless band is wide. The bundled pair aligns on one diagonal
    # with no seed, so the seed is measured here by itself. The word runs
    # keep positions in int32 and drop each temporary once used: about
    # 29.5 KB above entry at n = 1179, where holding several int64
    # arrays at once took 59.4 KB.
    assert _one_diagonal(reference_cds, subject_r248w)
    alignment._seed(reference_cds, subject_r248w, DNA_SCHEME)  # index the words
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        alignment._seed(reference_cds, subject_r248w, DNA_SCHEME)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 36 * 1024


def test_equal_length_alignment_needs_under_32_kb_on_the_bundled_pair(
    reference_cds, subject_r248w
):
    # with no seed, fill or traceback, what is left is the gapless score,
    # the one diagonal's score and the ops pass: about 20 KB above entry
    # at n = 1179 with a fresh subject, where seeding it first, its word
    # index included, took 59.2 KB
    subject = dna(subject_r248w.residues, "fresh")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        align_global(reference_cds, subject, DNA_SCHEME)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 32 * 1024


def _fill_scratch(a: Sequence, b: Sequence) -> tuple[int, int, int, bool]:
    """The tracemalloc peak from entry to exit of the one _fill_band call
    align_global makes, less the band it returns; with n, the band's
    width and whether it went by diagonals."""
    fill, by_diagonal, seen, diagonal = alignment._fill_band, alignment._fill_diagonals, [], []

    def by_diagonal_seen(*args):
        diagonal.append(True)
        return by_diagonal(*args)

    def measured(*args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        mats = fill(*args)
        peak = tracemalloc.get_traced_memory()[1]
        band = mats[0].nbytes + mats[1].nbytes + mats[2].nbytes
        seen.append((peak - before - band, len(args[0]), mats[0].shape[1] - 2))
        return mats

    align_global(a, b, DNA_SCHEME)  # index the words
    with mock.patch.object(alignment, "_fill_band", measured), mock.patch.object(
        alignment, "_fill_diagonals", by_diagonal_seen
    ):
        tracemalloc.start()
        try:
            align_global(a, b, DNA_SCHEME)
        finally:
            tracemalloc.stop()
    ((scratch, n, width),) = seen
    return scratch, n, width, diagonal == [True]


@pytest.mark.parametrize("band", ["narrow", "wide"])
def test_fill_scratch_stays_under_its_stated_limit(band: str, reference_cds):
    # by diagonals: four int32 vectors of n + 1 (it keeps three, and
    # the residue codes); by rows: the windows, one int32 per letter
    # (4 here) and per position along a row and a column, and the two
    # top rows. Each with 8 KB for small objects and numpy's buffers.
    a, b = (reference_cds, _planted_snvs(reference_cds, 5)) if band == "narrow" else (
        _divergent_pair()
    )
    scratch, n, width, diagonal = _fill_scratch(a, b)
    assert diagonal is (band == "narrow")
    if diagonal:
        limit = 4 * 4 * (n + 1) + 8 * 1024
    else:
        limit = 4 * 4 * (n + width) + 2 * 4 * (width + 2) + 8 * 1024
    assert scratch < limit


@settings(max_examples=500, deadline=None)
@given(
    n=st.integers(1, 20_000), m=st.integers(1, 20_000), slack=st.integers(0, 12_000)
)
# a whole matrix whose width times _ROWS_PER_DIAGONAL is below n is
# still filled by rows
@example(n=1000, m=3, slack=0)
# the whole matrix at exactly the cell limit, and one column past it
@example(n=4999, m=5197, slack=2500)
@example(n=4999, m=5198, slack=2500)
def test_band_shape_gives_layout_fill_kind_and_cell_count(n: int, m: int, slack: int):
    shape = alignment._band_shape(n, m, slack)
    whole = slack >= alignment._cover_slack(n, m)
    if whole:
        assert shape[:3] == (0, 0, m + 1)
    else:
        lo, hi = min(0, m - n) - slack, max(0, m - n) + slack
        assert shape[:3] == (1, lo, abs(m - n) + 2 * slack + 1)
        assert shape.first + shape.width - 1 == hi
    assert shape.by_diagonals is (
        not whole and shape.width * alignment._ROWS_PER_DIAGONAL <= n
    )
    if (n + 1) * (shape.width + 2) > alignment.MAX_BAND_CELLS:
        with pytest.raises(AlignmentTooLargeError, match="cells"):
            alignment._check_cells(n, m, shape)
    else:
        alignment._check_cells(n, m, shape)


def test_oversized_band_raises_named_error(monkeypatch):
    monkeypatch.setattr(alignment, "MAX_BAND_CELLS", 1000)
    with pytest.raises(AlignmentTooLargeError):
        align_global(dna("ACGT" * 100, "a"), dna("TGCA" * 100, "b"), DNA_SCHEME)
    # a band that fits still aligns
    assert align_global(dna("ACGT", "a"), dna("ACGT", "b"), DNA_SCHEME).score == 8


def test_oversized_band_raises_before_the_lcs_refusal(monkeypatch):
    # the cell limit is checked before the LCS bound could refuse a pair
    # floored above it, so the pair raises and no LCS is computed
    monkeypatch.setattr(alignment, "MAX_BAND_CELLS", 1000)
    a, b = _divergent_pair()
    floor = _lcs_bound(a.residues, b.residues, DNA_SCHEME) + 1
    with mock.patch.object(
        alignment, "_lcs_length", wraps=alignment._lcs_length
    ) as lcs, pytest.raises(AlignmentTooLargeError):
        align_global(a, b, DNA_SCHEME, floor=floor)
    assert lcs.call_count == 0


def test_cell_limit_admits_full_width_5000():
    assert (5000 + 1) * (5000 + 1 + 2) <= alignment.MAX_BAND_CELLS


def test_scores_beyond_the_int32_headroom_raise_before_any_work():
    huge = ScoringScheme(match=2**27, mismatch=-1, gap_open=-5, gap_extend=-1)
    with mock.patch.object(alignment, "_seed") as seed, mock.patch.object(
        alignment, "_fill_band"
    ) as fill:
        with pytest.raises(AlignmentTooLargeError, match="int32"):
            align_global(dna("ACGT", "a"), dna("ACGT", "b"), huge)
    assert seed.call_count == fill.call_count == 0
    # every score of a fill stays below 2**29 while 2 * (n + m) * 2**25 does
    big = ScoringScheme(match=2**25, mismatch=-1, gap_open=-5, gap_extend=-1)
    assert align_global(dna("ACGT", "a"), dna("ACG", "b"), big).score == 3 * 2**25 - 5
    with pytest.raises(AlignmentTooLargeError):
        align_global(dna("ACGT", "a"), dna("ACGT", "b"), big)


def test_exactness_bound_counts_the_cell_shift():
    # with gap_open = gap_extend = -2**25 the shift term decides: every
    # pair with n + m = 7 has 2 * (n + m) * largest = 14 * 2**25, and the
    # (n + 1) // 2 extends of shift on top make 15 * 2**25 for (2, 5) and
    # (1, 6), admitted, but 2**29 for (3, 4) and more for (5, 2)
    steep = ScoringScheme(match=1, mismatch=-1, gap_open=-(2**25), gap_extend=-(2**25))
    _same_as_oracle(dna("AC", "a"), dna("GACTT", "b"), steep)
    _same_as_oracle(dna("T", "a"), dna("GACTTA", "b"), steep)
    for a, b in [("ACG", "GACT"), ("GACTT", "AC")]:
        with pytest.raises(AlignmentTooLargeError, match="int32"):
            align_global(dna(a, "a"), dna(b, "b"), steep)


def test_5000_by_5000_dna_pair_is_admitted():
    rng = random.Random(5)
    a = rng.choices("ACGT", k=5000)
    b = list(a)
    for pos in rng.sample(range(5000), 50):
        b[pos] = rng.choice("ACGT".replace(b[pos], ""))
    r = align_global(dna("".join(a), "a"), dna("".join(b), "b"), DNA_SCHEME)
    assert r.score == 2 * 4950 - 50
