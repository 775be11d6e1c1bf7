"""Global pairwise alignment with affine gap penalties.

Exact three-state dynamic program (Gotoh). A gap run of length L costs
``gap_open + (L - 1) * gap_extend``. The DP fills numpy matrices row by
row, on a band of diagonals that is widened until it provably holds
every optimal path (Fickett 1984; Ukkonen 1985), so memory is
O((n + m) * band width). Traceback is pure Python and deterministic: at
every choice point Match/Mismatch is preferred over Delete, and Delete
over Insert.

Column conventions: Delete consumes a residue of ``a`` (gap in ``b``),
Insert consumes a residue of ``b`` (gap in ``a``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import groupby

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AlignmentTooLargeError, AlphabetMismatchError, EmptyInputError
from .seqio import Sequence

GAP = "-"

_NEG_INF = float("-inf")

# Cells one band may hold, 3 float64 matrices of 8 bytes each: at most
# 624 MB. A 5000 x 5000 alignment at full width needs 5001 * 5003.
MAX_BAND_CELLS = 26_000_000

# Diagonals added on each side of the corridor by the first fill.
_START_SLACK = 16


@dataclass(frozen=True)
class ScoringScheme:
    """Match/mismatch scores plus affine gap penalties (all integers)."""

    match: int
    mismatch: int
    gap_open: int
    gap_extend: int

    def __post_init__(self) -> None:
        if self.match <= self.mismatch:
            raise ValueError(
                f"match score ({self.match}) must exceed mismatch ({self.mismatch})"
            )
        if not self.gap_open <= self.gap_extend <= 0:
            raise ValueError(
                "gap penalties must satisfy gap_open <= gap_extend <= 0, "
                f"got open={self.gap_open} extend={self.gap_extend}"
            )


DNA_SCHEME = ScoringScheme(match=2, mismatch=-1, gap_open=-5, gap_extend=-1)
PROTEIN_SCHEME = ScoringScheme(match=4, mismatch=-2, gap_open=-10, gap_extend=-1)


class AlignOp(Enum):
    MATCH = "Match"
    MISMATCH = "Mismatch"
    INSERT = "Insert"
    DELETE = "Delete"


def _op_for_column(ca: str, cb: str) -> AlignOp:
    if ca == GAP:
        if cb == GAP:
            raise ValueError("column with a gap in both rows")
        return AlignOp.INSERT
    if cb == GAP:
        return AlignOp.DELETE
    return AlignOp.MATCH if ca == cb else AlignOp.MISMATCH


@dataclass(frozen=True)
class AlignmentResult:
    """One optimal alignment: gapped rows, total score, and the run-length
    ops the rows spell out."""

    aligned_a: str
    aligned_b: str
    score: int
    ops: tuple[tuple[AlignOp, int], ...] = field(init=False)

    def __post_init__(self) -> None:
        a, b = self.aligned_a, self.aligned_b
        if len(a) != len(b):
            raise ValueError("aligned rows differ in length")
        if not a:
            raise ValueError("alignment has no columns")
        runs = groupby(map(_op_for_column, a, b))
        object.__setattr__(self, "ops", tuple((op, len(list(r))) for op, r in runs))

    def degapped_a(self) -> str:
        return self.aligned_a.replace(GAP, "")

    def degapped_b(self) -> str:
        return self.aligned_b.replace(GAP, "")


def _fill_band(
    a: str, b: str, scheme: ScoringScheme, slack: int
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], int, int]:
    """Fill the three Gotoh score matrices on a band of diagonals only.

    The band spans diagonals lo = min(0, m-n) - slack to
    hi = max(0, m-n) + slack.

    M[i, j]: best score where the last column pairs a[i-1] with b[j-1].
    X[i, j]: last column consumes a[i-1] against a gap (Delete run).
    Y[i, j]: last column consumes b[j-1] against a gap (Insert run).

    Diagonal d holds the cells with j - i = d. Values are the optimum
    over paths that stay inside the band. Returns the matrices and
    (step, first): cell (i, j) is stored at row i, column
    j - step*i - first + 1, with a -inf column at each end of a row.

    A band narrower than the matrix is stored by diagonal (step 1,
    first lo): row i holds j = i+lo .. i+hi, so (i-1, j-1) sits in the
    same column as (i, j) and (i-1, j) one column to the right. Columns
    with j < 0 read -inf; those with j > m hold values no cell of the
    matrix reads. A band at least as wide as the matrix is the whole
    matrix (step 0, first 0), where (i-1, j-1) sits one column left.

    Rows are vectorized. The Insert state has a within-row dependency,
    resolved with a running-maximum prefix scan:
    Y[i, j] = open + (j-1-k)*extend + best entry at k for some k < j.

    Raises:
        AlignmentTooLargeError: the band needs more than MAX_BAND_CELLS.
    """
    n, m = len(a), len(b)
    lo, hi = min(0, m - n) - slack, max(0, m - n) + slack
    whole = _covers_matrix(n, m, slack)
    step, first, width = (0, 0, m + 1) if whole else (1, lo, hi - lo + 1)
    cells = (n + 1) * (width + 2)
    if cells > MAX_BAND_CELLS:
        raise AlignmentTooLargeError(
            f"a {n} x {m} alignment needs {cells} cells, "
            f"more than the limit of {MAX_BAND_CELLS}"
        )
    match, mismatch = float(scheme.match), float(scheme.mismatch)
    go, ge = float(scheme.gap_open), float(scheme.gap_extend)

    mat_m = np.full((n + 1, width + 2), _NEG_INF)
    mat_x = np.full((n + 1, width + 2), _NEG_INF)
    mat_y = np.full((n + 1, width + 2), _NEG_INF)
    inner_m, inner_x, inner_y = (mat[:, 1:-1] for mat in (mat_m, mat_x, mat_y))
    # x_above[i - 1][p]: X at (i-1, j) for the cell (i, j) at position p
    x_above = mat_x[:, 1 + step : 1 + step + width]
    y_tail = mat_y[:, 2:-1]

    # windows[c][i][p]: score of pairing residue c with b[j-1], where
    # (i, j) is stored at position p. Where j is outside 1..m the value
    # is unused: M there adds it to -inf or lies past column m.
    js = np.arange(step * n + width) + first
    b_codes = np.frombuffer(b.encode("ascii"), dtype=np.uint8)
    b_at = b_codes[np.clip(js - 1, 0, m - 1)]
    windows = {
        ch: sliding_window_view(np.where(b_at == ord(ch), match, mismatch), width)
        for ch in set(a)
    }

    ramp = ge * np.arange(width)
    ladder = (go + ramp)[:-1]  # cost of an Insert run of length p+1
    # tops[i % 2]: max(M, X, Y) of row i, with the same -inf end columns
    tops = np.full((2, width + 2), _NEG_INF)
    # the same for the row maxima: top_diag at (i-1, j-1), top_above at (i-1, j)
    top_diag = [t[step : step + width] for t in tops]
    top_above = [t[1 + step : 1 + step + width] for t in tops]
    top_rows = [t[1:-1] for t in tops]
    lead = np.empty(width)
    scan = np.empty(width)
    opened = np.empty(width)

    def finish_row(i: int) -> None:
        # Insert: entry points are M or X at some position q < p
        np.maximum(inner_m[i], inner_x[i], out=lead)
        np.subtract(lead, ramp, out=scan)
        np.maximum.accumulate(scan, out=scan)
        np.add(ladder, scan[:-1], out=y_tail[i])
        np.maximum(lead, inner_y[i], out=top_rows[i & 1])

    inner_m[0, -first] = 0.0
    finish_row(0)
    for i in range(1, n + 1):
        k = (i - 1) & 1
        np.add(top_diag[k], windows[a[i - 1]][step * i], out=inner_m[i])
        # opening from Delete costs no less than extending it, so the
        # row maximum can stand in for max(M, Y)
        np.add(top_above[k], go, out=opened)
        x_row = np.add(x_above[i - 1], ge, out=inner_x[i])
        np.maximum(x_row, opened, out=x_row)
        finish_row(i)
    return (mat_m, mat_x, mat_y), step, first


def _traceback(
    a: str,
    b: str,
    scheme: ScoringScheme,
    mats: tuple[np.ndarray, np.ndarray, np.ndarray],
    step: int,
    first: int,
) -> tuple[str, str]:
    """Walk one optimal path back to (0, 0); returns the two gapped rows.

    All cell values are integer-valued floats, so exact equality against
    candidate predecessors is safe. Preference order M > X > Y applies at
    the end cell and at every step. A predecessor outside the band reads
    -inf and is never chosen.
    """
    go, ge = float(scheme.gap_open), float(scheme.gap_extend)
    mat_m, mat_x, mat_y = mats
    i, j = len(a), len(b)

    def at(mat: np.ndarray, i: int, j: int) -> float:
        return mat[i, j - step * i - first + 1]

    state = "M"
    here = at(mat_m, i, j)
    if at(mat_x, i, j) > here:
        state, here = "X", at(mat_x, i, j)
    if at(mat_y, i, j) > here:
        state, here = "Y", at(mat_y, i, j)

    cols_a: list[str] = []
    cols_b: list[str] = []
    while i > 0 or j > 0:
        if state == "M":
            cols_a.append(a[i - 1])
            cols_b.append(b[j - 1])
            here -= float(scheme.match if a[i - 1] == b[j - 1] else scheme.mismatch)
            i, j = i - 1, j - 1
            if at(mat_m, i, j) == here:
                state = "M"
            elif at(mat_x, i, j) == here:
                state = "X"
            else:
                state = "Y"
        elif state == "X":
            cols_a.append(a[i - 1])
            cols_b.append(GAP)
            i -= 1
            if at(mat_m, i, j) + go == here:
                state, here = "M", here - go
            elif at(mat_x, i, j) + ge == here:
                state, here = "X", here - ge
            else:
                state, here = "Y", here - go
        else:
            cols_a.append(GAP)
            cols_b.append(b[j - 1])
            j -= 1
            if at(mat_m, i, j) + go == here:
                state, here = "M", here - go
            elif at(mat_x, i, j) + go == here:
                state, here = "X", here - go
            else:
                state, here = "Y", here - ge
    cols_a.reverse()
    cols_b.reverse()
    return "".join(cols_a), "".join(cols_b)


def _exit_bound(n: int, m: int, slack: int, scheme: ScoringScheme) -> int:
    """Upper bound on the score of any path that leaves a band narrower
    than the matrix.

    The band spans diagonals min(0, m-n) - slack .. max(0, m-n) + slack.
    A path that leaves it on either side makes at least
    D = max(0, n-m) + slack + 1 Delete columns and D + m - n Insert
    columns, both kinds at least once, and at most n - D diagonal
    columns, each scoring at most ``match``. The bound is linear in D,
    so its maximum over D..n sits at an end.
    """

    def bound(deletes: int) -> int:
        return (
            scheme.match * (n - deletes)
            + 2 * scheme.gap_open
            + (2 * deletes + m - n - 2) * scheme.gap_extend
        )

    return max(bound(max(0, n - m) + slack + 1), bound(n))


def _covers_matrix(n: int, m: int, slack: int) -> bool:
    """True when the band is at least as wide as the matrix."""
    return abs(m - n) + 2 * slack >= m


def _slack_beating(n: int, m: int, score: int, scheme: ScoringScheme) -> int:
    """Smallest slack whose band covers the matrix or whose exit bound
    lies below ``score``; the bound never rises as the slack grows."""
    lo, hi = 0, max(0, m - abs(m - n) + 1) // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if _covers_matrix(n, m, mid) or _exit_bound(n, m, mid, scheme) < score:
            hi = mid
        else:
            lo = mid + 1
    return lo


def align_global(a: Sequence, b: Sequence, scheme: ScoringScheme) -> AlignmentResult:
    """Align two sequences end to end, maximizing the affine-gap score.

    The DP is filled on a band of diagonals around the corridor from
    diagonal 0 to diagonal len(b) - len(a). A fill is accepted only when
    its score beats every path that leaves the band (_exit_bound), or
    when the band covers the whole matrix; otherwise the slack grows at
    least twofold and the band is filled again. An accepted band holds
    every optimal path, so rows, ops and score are the ones the full
    matrix gives.

    Raises:
        AlphabetMismatchError: if the sequences use different alphabets.
        EmptyInputError: if either sequence has no residues.
        AlignmentTooLargeError: if a band needs more than MAX_BAND_CELLS.
    """
    if a.alphabet is not b.alphabet:
        raise AlphabetMismatchError(
            f"cannot align {a.alphabet.value} against {b.alphabet.value}"
        )
    if len(a) == 0 or len(b) == 0:
        raise EmptyInputError("both sequences must have at least one residue")

    n, m = len(a), len(b)
    slack = _START_SLACK
    while True:
        mats, step, first = _fill_band(a.residues, b.residues, scheme, slack)
        end = m - step * n - first + 1
        score = int(max(mat[n, end] for mat in mats))
        if _covers_matrix(n, m, slack) or score > _exit_bound(n, m, slack, scheme):
            break
        del mats  # the next band is filled without this one alive
        # A wider band never scores lower, so a slack whose bound is
        # below this score is accepted by the next fill.
        slack = max(2 * slack, _slack_beating(n, m, score, scheme))
    aligned_a, aligned_b = _traceback(a.residues, b.residues, scheme, mats, step, first)
    return AlignmentResult(aligned_a=aligned_a, aligned_b=aligned_b, score=score)


def identity_percent(r: AlignmentResult) -> float:
    """Percentage of alignment columns that are exact matches."""
    total = len(r.aligned_a)
    matches = sum(count for op, count in r.ops if op is AlignOp.MATCH)
    return 100.0 * matches / total
