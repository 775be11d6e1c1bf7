"""Global pairwise alignment with affine gap penalties.

An exact three-state dynamic program (Gotoh). A gap run of length L
costs ``gap_open + (L - 1) * gap_extend``. Delete consumes a residue of
``a`` (gap in ``b``), Insert a residue of ``b`` (gap in ``a``). Each
rule is stated once, in the docstring of the function that owns it:

- ``align_global``: the lower bound and target a band is sized from,
  the refusal below a floor, and the pairs that need no fill or no
  traceback.
- ``_match_bound``: the one upper bound on a path's score.
- ``_slack_beating``: the exit bound, which sizes the band of
  diagonals (Fickett 1984; Ukkonen 1985).
- ``_band_shape``: the band's storage layout, width and fill kind.
- ``_fill_band``: the shifted cells and the fill by rows.
- ``_fill_diagonals``: the fill by diagonals (after Farrar 2007) and
  its sweep cap.
- ``_traceback``: the walk back, with Match/Mismatch preferred over
  Delete and Delete over Insert at every choice.
- ``_check_exact``: the int32 headroom and the sentinel of cells no
  path reaches.
- ``_lcs_length`` and ``_seed``: the longest common subsequence
  (Allison & Dix 1986) and the path chained from shared words
  (BLAST-style).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import cycle
from operator import getitem
from typing import NamedTuple

import numpy as np

from .errors import AlignmentTooLargeError, AlphabetMismatchError
from .seqio import Sequence

GAP = "-"

# What a cell no path reaches holds in place of -inf; see _check_exact.
_UNREACHED = -(2**30)

# Cells one band may hold, 2 int32 matrices of 4 bytes each: at most
# 208 MB. A 5000 x 5000 alignment at full width needs 5001 * 5003.
MAX_BAND_CELLS = 26_000_000

# Scores a fill may reach: below it, score values and values grown from
# _UNREACHED stay apart and inside int32; see _check_exact.
_HEADROOM = 2**29

# Runs a word-hit run looks back over for its predecessor in a chain.
_CHAIN_REACH = 64

# A band of width w narrower than the matrix is filled by diagonals
# when w * this <= n. At n = 1179 on a 2-core Xeon VM a column solve took
# 28 us and a row of the row fill 3.0 us, so a column costs about 9 rows;
# near-identical pairs stop after 3 sweeps, about 28 rows per diagonal,
# and 64 leaves room for bands that need twice the sweeps.
_ROWS_PER_DIAGONAL = 64


@dataclass(frozen=True)
class ScoringScheme:
    """Match/mismatch scores plus affine gap penalties, all Python ints:
    a bool or a float is refused with ValueError."""

    match: int
    mismatch: int
    gap_open: int
    gap_extend: int

    def __post_init__(self) -> None:
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
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


# ops by column code: same + 2 * (gap in b) + 3 * (gap in a)
_OP_BY_CODE = (AlignOp.MISMATCH, AlignOp.MATCH, AlignOp.DELETE, AlignOp.INSERT)


def _column_runs(a: str, b: str) -> tuple[tuple[AlignOp, int], ...]:
    """Run-length ops of two equal-length gapped rows, in one numpy pass.

    A column is Insert when ``a`` has the gap, Delete when ``b`` has it,
    else Match or Mismatch; a column with a gap in both rows raises
    ValueError.
    """
    code_a = np.frombuffer(a.encode("utf-32-le"), dtype="<u4")
    code_b = np.frombuffer(b.encode("utf-32-le"), dtype="<u4")
    gap_a, gap_b = code_a == ord(GAP), code_b == ord(GAP)
    if (gap_a & gap_b).any():
        raise ValueError("column with a gap in both rows")
    code = (code_a == code_b) + 2 * gap_b.view(np.uint8) + 3 * gap_a.view(np.uint8)
    starts = [0, *(np.flatnonzero(code[1:] != code[:-1]) + 1).tolist()]
    ends = [*starts[1:], len(code)]
    return tuple(
        (_OP_BY_CODE[op], end - start)
        for op, start, end in zip(code[starts].tolist(), starts, ends)
    )


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
        object.__setattr__(self, "ops", _column_runs(a, b))

    def degapped_a(self) -> str:
        return self.aligned_a.replace(GAP, "")


def _codes(text: str) -> np.ndarray:
    """The residues of ``text`` as ASCII codes, one uint8 each."""
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


def _shifted_scores(scheme: ScoringScheme) -> tuple[int, int, int]:
    """(hit, miss, reopen): what a shifted cell (_fill_band) adds for a
    diagonal step over equal residues, for one over different residues,
    and for a gap open."""
    extend = scheme.gap_extend
    return scheme.match - 2 * extend, scheme.mismatch - 2 * extend, scheme.gap_open - extend


def _b_run(b: str, start: int, length: int) -> str:
    """b[k] for k = start .. start + length - 1, where start <= 0 <
    start + length; an end residue stands in where k leaves ``b``."""
    stop = start + length
    return b[0] * -start + b[:stop] + b[-1] * max(0, stop - len(b))


def _row0(scheme: ScoringScheme, first: int, width: int) -> list[int]:
    """Row 0 of top = max(M, X, Y), stored as _fill_band stores a row:
    M(0, 0) = 0, shifted, in storage column 1 - first, then an Insert
    run; every other column unreached."""
    origin = 1 - first
    m00 = -origin * scheme.gap_extend
    inserts = [m00 + _shifted_scores(scheme)[2]] * (width - origin)
    return [_UNREACHED] * origin + [m00, *inserts, _UNREACHED]


def _windows(
    a: str, b: str, scheme: ScoringScheme, step: int, first: int, width: int
) -> dict[str, np.ndarray]:
    """windows[c][i][p]: the window score (_shifted_scores) of pairing
    residue c with b[j-1], where (i, j) is stored at position p.

    Where j is outside 1..m the value is unused: M there adds it to an
    unreached cell or lies past column m. Built before the band is
    allocated, so its temporaries are gone by then.
    """
    n = len(a)
    hit, miss, _ = map(np.int32, _shifted_scores(scheme))
    b_at = _codes(_b_run(b, first - 1, step * n + width))
    windows = {}
    for ch in set(a):
        scores = np.where(b_at == ord(ch), hit, miss)
        strides = (step * scores.itemsize, scores.itemsize)
        windows[ch] = np.ndarray((n + 1, width), np.int32, scores, strides=strides)
    return windows


def _fill_diagonals(
    a: str,
    b: str,
    scheme: ScoringScheme,
    first: int,
    sweeps: int,
    mat_m: np.ndarray,
    mat_x: np.ndarray,
    y_row: np.ndarray,
    top0: list[int],
) -> int:
    """Fill a band stored by diagonal (step 1) one storage column at a
    time; writes M, X and the last Y row in place, as _fill_band stores
    them, and returns the sweeps it ran. ``top0`` is row 0 (_row0).

    Storage column c is diagonal d = first + c - 1, held as a vector
    over the rows i = 0..n, cell (i, i + d) at row i. With the shifted
    cells of _fill_band:

        X_c(i) = max(X_{c+1}(i-1), top_{c+1}(i-1) + o)
        Y_c(i) = max(Y_{c-1}(i), top_{c-1}(i) + o)
        top_c(i) = max(top_c(i-1) + W_c(i), other_c(i)),  other = max(X, Y)

    where W_c(i) is the window score of a[i-1] against b[i+d-1]. (Y may
    read top for max(M, X): Y_{c-1} + o never beats Y_{c-1}.) With C
    the running sum of W (C(0) = 0), the chain solves to top = C + A
    and M(i) = C(i) + A(i-1), where A is the running maximum of
    other - C: one cumsum and one maximum.accumulate per column, with
    other(0) = top(0) from row 0.

    X flows right to left and Y left to right, so sweeps alternate:
    right to left, X_c from column c+1 as just solved and Y_c from the
    last sweep, held in A as M(i+1) - C(i+1); then left to right, X_c as
    stored and Y_c from column c-1 as just solved. Every value is the
    score of a real in-band path and none falls. A right-to-left sweep
    moves no top value when X - C nowhere exceeds A as it stood: then X
    holds, and Y held after the sweep before, whose tops stand, so the
    recurrences all hold and the fill stops.

    A sweep takes in whole Delete runs (right to left, the odd sweeps)
    or whole Insert runs (left to right), any number of them between
    diagonal stretches: each sweep takes in one more change of gap
    direction. So a path whose runs fall into g groups of one direction
    each is in the values after g sweeps, or g + 1 when its first group
    is Insert runs that do not start at (0, 0); a path of r gap runs
    needs at most r + 1. One sweep already reaches the end cell, by a
    row-0 Insert run or a final Delete run.

    The fill stops after ``sweeps`` at the latest. align_global passes
    R + 1, for R the most gap runs a path reaching its target T can
    have. _match_bound with every residue of the shorter sequence a
    match, U, charges each gap column one extend, so a path of r gap
    runs scores at most U + r * reopen (_shifted_scores), and R is the
    largest r for which that reaches T (n + m when gap_open ==
    gap_extend). Every path reaching T is then in; a cell on no such
    path may still hold less than its optimum, which the score and the
    traceback never read.

    Scratch is three int32 vectors of n + 1 and the residue codes. The
    running maximum's inputs other - C stay inside int32 (_check_exact).
    """
    n, width = len(a), mat_m.shape[1] - 2
    i32 = np.int32
    hit, miss, reopen = _shifted_scores(scheme)
    # W is miss, plus lift where the residues match
    lift, miss, reopen = (np.array(v, dtype=i32) for v in (hit - miss, miss, reopen))
    codes_a = _codes(a)
    # b_cols[c-1][i-1] is b[i+d-1]; where that index leaves b an end
    # residue stands in: no cell of the matrix reads those cells, and C
    # is only ever differenced over rows past them
    b_bytes = _b_run(b, first, n + width - 1).encode("ascii")
    b_cols = np.ndarray((width, n), np.uint8, b_bytes, strides=(1, 1))
    # run is C; gain is W, then A; edge is the top (right to left) or
    # the Y (left to right) the next column reads
    run, gain, edge = (np.empty(n + 1, dtype=i32) for _ in range(3))
    run[0] = 0

    add, subtract, maximum = np.add, np.subtract, np.maximum
    running_sum, running_max = np.add.accumulate, np.maximum.accumulate

    def window_sums(b_col: np.ndarray) -> None:
        w = gain[1:]
        np.equal(codes_a, b_col, out=w)
        np.multiply(w, lift, out=w)
        add(w, miss, out=w)
        running_sum(w, out=run[1:])

    for sweep in range(1, sweeps + 1):
        edge.fill(_UNREACHED)
        if sweep % 2 == 0:  # left to right
            for c, m_col, x_col, b_col in zip(
                range(1, width + 1), mat_m.T[1:-1], mat_x.T[1:-1], b_cols
            ):
                window_sums(b_col)
                y_row[c - 1] = edge[-1]
                maximum(x_col[1:], edge[1:], out=gain[1:])
                gain[0] = top0[c]
                subtract(gain, run, out=gain)
                running_max(gain, out=gain)
                add(run[1:], gain[:-1], out=m_col[1:])
                add(gain, run, out=gain)
                add(gain, reopen, out=gain)
                maximum(edge, gain, out=edge)
            continue
        # right to left; the first sweep moves every reachable cell off
        # the sentinel, and the last needs no check
        moved = sweep in (1, sweeps)
        for c, m_col, x_col, x_right, b_col in zip(
            range(width, 0, -1),
            mat_m.T[width:0:-1],
            mat_x.T[width:0:-1],
            mat_x[:-1].T[width + 1 : 1 : -1],
            b_cols[::-1],
        ):
            window_sums(b_col)
            # A as it stands: top(0), M(i+1) - C(i+1), and top(n) - C(n)
            gain[0] = top0[c]
            subtract(m_col[2:], run[2:], out=gain[1:-1])
            gain[-1] = max(m_col.item(-1), x_col.item(-1), y_row.item(c - 1)) - run.item(-1)
            add(edge[:-1], reopen, out=x_col[1:])
            maximum(x_col[1:], x_right, out=x_col[1:])
            subtract(x_col[1:], run[1:], out=edge[1:])
            moved = moved or (edge[1:] > gain[1:]).any()
            maximum(gain[1:], edge[1:], out=gain[1:])
            running_max(gain, out=gain)
            add(run[1:], gain[:-1], out=m_col[1:])
            add(run[:-1], gain[:-1], out=edge[:-1])
        if not moved:
            break
    return sweep


def _fill_band(
    a: str, b: str, scheme: ScoringScheme, shape: _Band, sweeps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fill the Gotoh score matrices on the band of ``shape`` only.

    M[i, j]: best score where the last column pairs a[i-1] with b[j-1].
    X[i, j]: last column consumes a[i-1] against a gap (Delete run).
    Y[i, j]: last column consumes b[j-1] against a gap (Insert run).

    Values are the optimum over paths that stay inside the band, as
    int32; a cell no in-band path reaches holds a sentinel below every
    score (_check_exact). M and X are kept whole, since the traceback
    reads them; Y is kept for the last row only, since it reads Y
    nowhere else. Returns M, X and the last Y row; the Y row has no
    unreached column on the left, so its column c is column c + 1 of M
    and X.

    Cells are stored shifted: cell (i, j) holds its score minus
    (i + j + 1 - first) * gap_extend, that is ((1 + step) * i + c) *
    gap_extend for storage column c. The shift grows by gap_extend with
    each step right or down, so it pays every extend cost in advance,
    and with o = gap_open - gap_extend the recurrences lose their extend
    terms:

        M = top(i-1, j-1) + sub - 2 * gap_extend   (the window score)
        X = max(X(i-1, j), top(i-1, j) + o)
        Y = o + running maximum of max(M, X) over the row, left of j

    where top is max(M, X, Y). Opening from Delete costs no less than
    extending it, so top can stand in for max(M, Y) in X.
    _shifted_scores gives the window scores and o.

    A band filled by diagonals is filled one diagonal at a time, in at
    most ``sweeps`` sweeps (_fill_diagonals). Every other band is filled
    row by row: a row takes 7 numpy calls, none with a ramp, and the
    rows are walked with zip over row views while two top buffers take
    turns.
    """
    n = len(a)
    step, first, width, by_diagonals = shape
    if not by_diagonals:
        windows = _windows(a, b, scheme, step, first, width)
    i32 = np.int32
    mat_m = np.full((n + 1, width + 2), _UNREACHED, dtype=i32)
    mat_x = np.full((n + 1, width + 2), _UNREACHED, dtype=i32)
    y_row = np.full(width, _UNREACHED, dtype=i32)
    top0 = _row0(scheme, first, width)
    mat_m[0, 1 - first] = top0[1 - first]  # M(0, 0)
    if by_diagonals:
        _fill_diagonals(a, b, scheme, first, sweeps, mat_m, mat_x, y_row, top0)
        return mat_m, mat_x, y_row

    # a 0-d array: ufuncs take it faster than a numpy scalar
    reopen = np.array(_shifted_scores(scheme)[2], dtype=i32)
    y_tail = y_row[1:]
    inner_m, inner_x = mat_m[:, 1:-1], mat_x[:, 1:-1]
    # x_above row i-1 is X at (i-1, j) for the cell (i, j) at each position
    x_above = mat_x[:-1, 1 + step : 1 + step + width]

    # the two top buffers, row 0 first, take turns as the row above, read
    # at (i-1, j-1) and (i-1, j), and as the row being filled (whole, and
    # all but its last cell for the Insert scan); both keep their
    # unreached end columns
    tops = (np.array(top0, dtype=i32), np.full(width + 2, _UNREACHED, dtype=i32))
    above = [(t[step : step + width], t[1 + step : 1 + step + width]) for t in tops]
    filling = [(t[1:-1], t[1:-2]) for t in tops]
    turns = cycle((above[0] + filling[1], above[1] + filling[0]))
    # windows[a[i-1]][i] for i = 1..n, without a Python-level step per row
    window_rows = map(getitem, map(windows.__getitem__, a), range(1, n + 1))
    add, maximum, running_max = np.add, np.maximum, np.maximum.accumulate
    rows = zip(window_rows, inner_m[1:], inner_x[1:], x_above, turns)
    for w, m_row, x_row, x_up, (t_diag, t_up, top, head) in rows:
        add(t_diag, w, out=m_row)
        add(t_up, reopen, out=x_row)
        maximum(x_row, x_up, out=x_row)
        maximum(m_row, x_row, out=top)
        running_max(head, out=y_tail)
        add(y_tail, reopen, out=y_tail)
        maximum(top, y_row, out=top)
    return mat_m, mat_x, y_row


def _traceback(
    a: str,
    b: str,
    scheme: ScoringScheme,
    mat_m: np.ndarray,
    mat_x: np.ndarray,
    ends: tuple[int, int, int],
    step: int,
    end: int,
) -> tuple[str, str]:
    """Walk one optimal path back to (0, 0); returns the two gapped rows.

    The walk compares the values _fill_band stored, shift included: the
    predecessors of a state all sit in one cell and share its shift, so
    each step undoes one of _fill_band's recurrences. ``ends`` holds
    stored M, X and Y at the end cell (n, m), which sits in storage
    column ``end`` of the last row; Y there is the only Y value the walk
    needs: elsewhere a state is Y when it is neither M nor X. All values
    are integers, so exact equality against candidate predecessors is
    safe, and an unreached predecessor never equals a score
    (_check_exact). At the end cell and at every step Match/Mismatch is
    preferred over Delete, and Delete over Insert: M > X > Y.

    In state M the walk takes a diagonal run at once: it stays in M
    past a cell while the stored M up the diagonal equals this cell's
    stored M minus its window score. One numpy pass checks the whole
    diagonal up to row 0 or column 0, and the run is emitted as two
    string slices. Where a run ends, and in the gap states, the walk
    steps one cell at a time.
    """
    hit, miss, reopen = _shifted_scores(scheme)
    codes_a, codes_b = _codes(a), _codes(b)
    i, j = len(a), len(b)

    # cell (i, j) sits at ``at`` in M and X flattened; (i-1, j-1) sits
    # ``diag`` places before it, (i-1, j) ``up`` places and (i, j-1) one
    flat_m, cols = mat_m.reshape(-1), mat_m.shape[1]
    diag, up = cols + 1 - step, cols - step
    at = i * cols + end

    here = max(ends)
    state = "MXY"[ends.index(here)]
    cols_a: list[str] = []
    cols_b: list[str] = []
    while i > 0 or j > 0:
        if state == "M":
            # cells (i-k, j-k) .. (i, j) of the diagonal
            k = min(i, j)
            run_cells = flat_m[at - k * diag : at + 1 : diag]
            scores = np.where(codes_a[i - k : i] == codes_b[j - k : j], hit, miss)
            breaks = np.flatnonzero(run_cells[:-1] != run_cells[1:] - scores)
            run = k - int(breaks[-1]) if len(breaks) else k
            cols_a.append(a[i - run : i])
            cols_b.append(b[j - run : j])
            i, j, at = i - run, j - run, at - run * diag
            # the run ends at (0, 0) or where M does not hold the value
            here = mat_m.item(at + diag) - (hit if a[i] == b[j] else miss)
            state = "X" if mat_x.item(at) == here else "Y"
        elif state == "X":
            cols_a.append(a[i - 1])
            cols_b.append(GAP)
            i, at = i - 1, at - up
            if mat_m.item(at) + reopen == here:
                state, here = "M", here - reopen
            elif mat_x.item(at) != here:  # not an extend, so Y opened it
                state, here = "Y", here - reopen
        else:
            cols_a.append(GAP)
            cols_b.append(b[j - 1])
            j, at = j - 1, at - 1
            if mat_m.item(at) + reopen == here:
                state, here = "M", here - reopen
            elif mat_x.item(at) + reopen == here:
                state, here = "X", here - reopen
            # otherwise an extend: state and value stay
    cols_a.reverse()
    cols_b.reverse()
    return "".join(cols_a), "".join(cols_b)


class _Band(NamedTuple):
    step: int
    first: int
    width: int
    by_diagonals: bool


def _band_shape(n: int, m: int, slack: int) -> _Band:
    """How _fill_band stores and fills the band of ``slack``, which spans
    diagonals lo = min(0, m-n) - slack to hi = max(0, m-n) + slack.

    Diagonal d holds the cells with j - i = d. Cell (i, j) is stored at
    row i, column c = j - step*i - first + 1, in a row of ``width``
    columns and an unreached column at each end.

    A band narrower than the matrix is stored by diagonal (step 1, first
    lo, width hi - lo + 1): row i holds j = i+lo .. i+hi, so (i-1, j-1)
    sits in the same column as (i, j) and (i-1, j) one to the right.
    Columns with j < 0 are unreached; those with j > m hold values no
    cell of the matrix reads. It is filled by diagonals when its width
    times _ROWS_PER_DIAGONAL is at most n. A wider band is the whole
    matrix (step 0, first 0, width m + 1), where (i-1, j-1) sits one
    column left, and is filled by rows.
    """
    if slack >= _cover_slack(n, m):
        return _Band(0, 0, m + 1, False)
    width = abs(m - n) + 2 * slack + 1
    return _Band(1, min(0, m - n) - slack, width, width * _ROWS_PER_DIAGONAL <= n)


def _check_cells(n: int, m: int, shape: _Band) -> None:
    """Raise AlignmentTooLargeError past MAX_BAND_CELLS stored cells."""
    cells = (n + 1) * (shape.width + 2)
    if cells > MAX_BAND_CELLS:
        raise AlignmentTooLargeError(
            f"a {n} x {m} alignment needs {cells} cells, "
            f"more than the limit of {MAX_BAND_CELLS}"
        )


def _cover_slack(n: int, m: int) -> int:
    """The smallest slack whose band is at least as wide as the matrix:
    |m - n| + 2 * slack >= m."""
    return max(0, m - abs(m - n) + 1) // 2


def _slack_beating(n: int, m: int, score: int, scheme: ScoringScheme) -> int:
    """Smallest slack whose band covers the matrix or holds every path
    scoring at least ``score``.

    A path that leaves the band of slack s (_band_shape) on either side
    makes at least D = max(0, n-m) + s + 1 Delete columns and D + m - n
    Insert columns, both kinds at least once, so it pays two opens on
    top of _match_bound's extends and scores at most

        E(D) = 2 * reopen + _match_bound(n, m, n, deletes=D),

    which is max(F(D), F(n)) for F linear in D with slope -hit
    (_shifted_scores). So E never rises as s grows, and never falls
    below E(n). Where E(first), at s = 0, reaches ``score`` but E(n)
    does not, F falls, and the slack is the smallest s with
    F(first + s) below ``score``, solved in closed form.
    """
    hit, _, reopen = _shifted_scores(scheme)
    cover = _cover_slack(n, m)
    first = max(0, n - m) + 1

    def exit_bound(deletes: int) -> int:
        return 2 * reopen + _match_bound(n, m, n, scheme, deletes)

    if exit_bound(n) >= score:
        return cover
    widest = exit_bound(first)
    if widest < score:
        return 0
    return min(cover, (widest - score) // hit + 1)


def _lcs_length(a: str, b: str) -> int:
    """Length of a longest common subsequence of ``a`` and ``b``.

    Bit-parallel over one Python int of len(b) bits (Allison & Dix
    1986; Hyyrö 2004): after the first i residues of ``a``, bit j of v
    is clear where the LCS of those residues and b[:j + 1] is one longer
    than with b[:j], so the clear bits count the LCS. Each residue x of
    ``a`` takes v = (v + (v & hit[x])) | (v & miss[x]), hit[x] marking
    where b holds x. A carry out of the top bit lands above the len(b)
    bits that are read, and no later step reads it.
    """
    m = len(b)
    full = (1 << m) - 1
    codes_b = _codes(b)
    masks = {}
    for ch in set(a):
        bits = np.packbits(codes_b == ord(ch), bitorder="little")
        hit = int.from_bytes(bits.tobytes(), "little")
        masks[ch] = (hit, full ^ hit)
    v = full
    for hit, miss in map(masks.__getitem__, a):
        v = (v + (v & hit)) | (v & miss)
    return m - (v & full).bit_count()


def _match_bound(
    n: int, m: int, matches: int, scheme: ScoringScheme, deletes: int = 0
) -> int:
    """Upper bound on the score of any global alignment of n residues
    against m with at most ``matches`` Match columns and at least
    ``deletes`` Delete columns.

    An alignment with D Delete columns has n - D diagonal columns, of
    which at most min(matches, n - D) match, and D + m - n Insert
    columns. Every gap column costs at least gap_extend, which drops
    the open premium, so under any scheme it scores at most

        (match - mismatch) * min(matches, n - D) + mismatch * (n - D)
            + gap_extend * (2 * D + m - n),

    for D from max(deletes, n - m, 0) to n. That is linear in D on
    either side of D = n - matches, and its slope falls there, so the
    maximum sits at one of the three values tried. With matches =
    min(n, m) and no lower limit on D it is the all-match bound
    (n + m) * gap_extend + max(0, match - 2 * gap_extend) * min(n, m).
    """
    lift = scheme.match - scheme.mismatch

    def bound(dels: int) -> int:
        diagonal = n - dels
        return (
            lift * min(matches, diagonal)
            + scheme.mismatch * diagonal
            + scheme.gap_extend * (2 * dels + m - n)
        )

    fewest = max(deletes, n - m, 0)
    return max(map(bound, (fewest, max(fewest, n - matches), n)))


def _gapless_score(a: str, b: str, scheme: ScoringScheme) -> int:
    """Score of the gapless path of two equal-length sequences, the sum
    of their pair scores: a real global path's, so a lower bound on the
    optimum."""
    same = int(np.count_nonzero(_codes(a) == _codes(b)))
    return scheme.match * same + scheme.mismatch * (len(a) - same)


class _Seed(NamedTuple):
    """A global path built from exact word hits, before any DP.

    ``corners`` runs from (0, 0) to (n, m); between two consecutive
    corners the path takes only diagonal columns or only gap columns.
    ``score`` is the path's affine score, a lower bound on the optimum.
    """

    score: int
    corners: tuple[tuple[int, int], ...]


def _word_runs(a: Sequence, b: Sequence) -> list[tuple[int, int, int]]:
    """Runs of consecutive word hits on one diagonal, in order along ``a``.

    A hit is a word that occurs exactly once in each sequence. Returns
    each run's start in ``a``, start in ``b`` and length in residues;
    every residue pair of a run matches exactly. Positions are int32,
    and each temporary is dropped once it has been used.
    """
    codes_a, starts_a = a.unique_words
    codes_b, starts_b = b.unique_words
    if not len(codes_a) or not len(codes_b):
        return []
    # at[k]: where b's k-th word sits among a's words, if anywhere
    at = np.searchsorted(codes_a, codes_b)
    np.minimum(at, len(codes_a) - 1, out=at)
    hit = codes_a[at] == codes_b
    at = at[hit]
    pa = starts_a[at]
    del at
    pb = starts_b[hit]
    del hit
    # partner[p]: the start in b of the hit word starting at p in a, or -1
    partner = np.full(len(a), -1, dtype=np.int32)
    partner[pa] = pb
    del pa, pb
    hit = partner >= 0
    # a word occurs once in a, so hits at p and p+1 on one diagonal are
    # two overlapping words of one exact match
    joined = hit[:-1] & (np.diff(partner) == 1)
    heads = np.flatnonzero(hit & ~np.concatenate(([False], joined)))
    tails = np.flatnonzero(hit & ~np.concatenate((joined, [False])))
    sizes = tails - heads + a.alphabet.word_size
    return list(zip(heads.tolist(), partner[heads].tolist(), sizes.tolist()))


def _chain(runs: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """The heaviest chain of runs (by residues) whose starts and ends
    both increase in both sequences; ``runs`` are ordered along ``a``.

    A run looks back at most _CHAIN_REACH runs for its predecessor, so
    the cost stays linear in the number of runs.
    """

    def fits(before: tuple[int, int, int], after: tuple[int, int, int]) -> bool:
        (sa, sb, size), (ta, tb, tsize) = before, after
        return sb < tb and sa + size < ta + tsize and sb + size < tb + tsize

    total: list[int] = []
    back: list[int] = []
    for i, run in enumerate(runs):
        best, prev = 0, -1
        for j in range(max(0, i - _CHAIN_REACH), i):
            if total[j] > best and fits(runs[j], run):
                best, prev = total[j], j
        total.append(best + run[2])
        back.append(prev)
    chain = []
    i = max(range(len(runs)), key=total.__getitem__, default=-1)
    while i >= 0:
        chain.append(runs[i])
        i = back[i]
    return chain[::-1]


def _seed(a: Sequence, b: Sequence, scheme: ScoringScheme) -> _Seed:
    """Chain the word hits into a global path (BLAST-style seeding).

    The chained runs are trimmed where they overlap the run before, and
    consecutive runs, with (0, 0) and (n, m) at the ends, are joined by
    diagonal columns and one gap run. The gap goes at the split that
    scores best.
    """
    codes_a, codes_b = _codes(a.residues), _codes(b.residues)
    corners = [(0, 0)]
    score = 0

    def diagonal(i: int, j: int, steps: int) -> np.ndarray:
        same = codes_a[i : i + steps] == codes_b[j : j + steps]
        return np.where(same, scheme.match, scheme.mismatch)

    def join(i2: int, j2: int) -> None:
        # from the last corner to (i2, j2): t diagonal columns on the old
        # diagonal, the gap, then the rest of the steps on the new one
        nonlocal score
        i1, j1 = corners[-1]
        steps, shift = min(i2 - i1, j2 - j1), (i2 - i1) - (j2 - j1)
        if shift:
            old, new = diagonal(i1, j1, steps), diagonal(i2 - steps, j2 - steps, steps)
            gain = np.cumsum(old - new)
            t = int(np.argmax(gain)) + 1 if steps and gain.max() > 0 else 0
            score += int(new.sum()) + (int(gain[t - 1]) if t else 0)
            score += scheme.gap_open + (abs(shift) - 1) * scheme.gap_extend
            corners.append((i1 + t, j1 + t))
            corners.append((i1 + t + max(shift, 0), j1 + t + max(-shift, 0)))
        elif steps:
            score += int(diagonal(i1, j1, steps).sum())
        corners.append((i2, j2))

    for start_a, start_b, size in _chain(_word_runs(a, b)):
        i, j = corners[-1]
        trim = max(i - start_a, j - start_b, 0)
        join(start_a + trim, start_b + trim)
        corners.append((start_a + size, start_b + size))
        score += scheme.match * (size - trim)
    join(len(a), len(b))
    return _Seed(score, tuple(corners))


def _check_exact(n: int, m: int, scheme: ScoringScheme) -> None:
    """Raise unless the int32 cells have room for every value either
    fill forms, with scores and sentinels kept apart.

    Each stored cell, each running-maximum input and each sum of the
    row fill is the score V of a path into some cell (i, j) of the matrix,
    minus that cell's shift (i + j + 1 - first) * gap_extend (see
    _fill_band). A path has at most n + m columns, so
    |V| <= (n + m) * largest, where largest is the scheme's largest
    |score|. A band narrower than the matrix starts at most (n - 1) // 2
    diagonals left of diagonal 0, so the shift is at most
    (n + m + (n + 1) // 2) * |gap_extend|. With |gap_extend| <= largest,
    every value lies within

        B = 2 * (n + m) * largest + ((n + 1) // 2) * |gap_extend|.

    A cell no in-band path reaches starts at _UNREACHED = -2**30 and
    gains what a reached cell gains: a window score per diagonal step,
    an open, or nothing per extend. From row 0 or a band edge, that is
    at most 3 * largest per diagonal step and largest per gap column,
    within B by the same count, so it holds the sentinel plus a drift
    within B. With B below _HEADROOM = 2**29, a reached cell holds at
    least -B and an unreached one at most -2**30 + B < -B: every max
    keeps a score over a sentinel, and the traceback never takes one
    for a score. Cells with j > m reach no cell of the matrix; their
    paths have fewer than 2 * n + m columns (j - i <= hi < m), so they
    hold values within 2 * B of 0 or of the sentinel. So no value comes
    near the int32 limits of -2**31 and 2**31 - 1, and none wraps, which
    numpy would do without a warning.

    The diagonal fill (_fill_diagonals) adds C, the running sum of the
    window scores down a diagonal, and the running maximum's inputs V -
    C. C(i) is the gapless score of the diagonal's first i rows less
    2 * i * gap_extend, so |C| <= 3 * n * largest, within B since a band
    narrower than the matrix has n < 2 * m. At a cell in storage column
    c, V - C = S - D - c * gap_extend, where S is the unshifted score of
    a path into the cell (at most n + m columns) and D the gapless score
    above it on its diagonal (at most n columns): within (2 * n + m) *
    largest + width * |gap_extend|, and such a band has width <= m, so
    within B too; at an unreached cell it is within 2 * B of the
    sentinel. The running maximum compares inputs that all differ by
    the same C(i) from the values they stand for at row i, so it too
    keeps a score over a sentinel. The rest are sums of C and V - C
    that give stored cells, or top + o.
    """
    largest = max(
        abs(scheme.match), abs(scheme.mismatch), abs(scheme.gap_open), abs(scheme.gap_extend)
    )
    bound = 2 * (n + m) * largest + ((n + 1) // 2) * abs(scheme.gap_extend)
    if bound >= _HEADROOM:
        raise AlignmentTooLargeError(
            f"a {n} x {m} alignment with scores up to {largest} could reach "
            f"{bound}, beyond the int32 headroom of {_HEADROOM}"
        )


def align_global(
    a: Sequence, b: Sequence, scheme: ScoringScheme, floor: int | None = None
) -> AlignmentResult | None:
    """Align two sequences end to end, maximizing the affine-gap score.

    The DP is filled once, on a band of diagonals around the corridor
    from diagonal 0 to diagonal len(b) - len(a). It is sized from L, the
    score of a real global path and so a lower bound on the optimum: the
    band holds every path that reaches the target T = max(L, ``floor``)
    (_slack_beating), and the fill by diagonals runs until each such
    path is in (_fill_diagonals). So a band scoring at least T holds
    every optimal path, and rows, ops and score are the ones the full
    matrix gives, with or without a floor.

    A band scoring below T holds no path that reaches T. When T is
    ``floor``, neither does the matrix, and the result is None, found
    before any traceback, or, for a band filled by rows, before anything
    is allocated when _match_bound with as many matches as a longest
    common subsequence (_lcs_length) is below T; the cell limit
    (_check_cells) is checked first, once, on the band to fill. When T
    is L, the path L scores lies inside the band, so a band below it
    means L is wrong, and AssertionError is raised; L never exceeds the
    LCS bound, which is not computed then.

    When len(a) != len(b), L is the score of a seed path built from
    shared words (_seed). When len(a) == len(b), L starts as G, the
    gapless path's score (_gapless_score). The seed runs only when the
    band sized from max(G, ``floor``) is neither one diagonal nor filled
    by diagonals (_band_shape), which are cheap to fill as they stand;
    then L = max(G, seed score). A band of one diagonal (slack 0) holds
    only the gapless path, so no fill runs and the band scores G.

    When len(a) == len(b) and the band scores exactly G, the rows are
    the inputs, with no traceback: the traceback would walk diagonal 0
    alone. Write P(i) for the gapless score of the first i rows. Either
    fill holds at M(i, i) the score of some in-band path into it, and at
    least P(i), since the gapless path reaches T. A path into M(i, i)
    above P(i), followed by the gapless suffix, would be an in-band path
    above G, so M(i, i) = P(i) at every i. At (n, n) M holds G and is
    preferred over X and Y, and at each (i, i) the M above-left plus the
    window score is M(i, i), so the M > X > Y walk stays in M on
    diagonal 0 down to (0, 0).

    Raises:
        AlphabetMismatchError: if the sequences use different alphabets.
        AlignmentTooLargeError: if the band needs more than
            MAX_BAND_CELLS, or the scores could reach the int32
            headroom (_check_exact).
    """
    if a.alphabet is not b.alphabet:
        raise AlphabetMismatchError(
            f"cannot align {a.alphabet.value} against {b.alphabet.value}"
        )

    n, m = len(a), len(b)
    _check_exact(n, m, scheme)

    def band(lower: int) -> tuple[int, _Band | None]:
        """The target a lower bound on the optimum gives, and its band."""
        target = lower if floor is None else max(lower, floor)
        slack = _slack_beating(n, m, target, scheme)
        return target, None if n == m and slack == 0 else _band_shape(n, m, slack)

    gapless = _gapless_score(a.residues, b.residues, scheme) if n == m else None
    if gapless is not None:
        target, shape = band(gapless)
    if gapless is None or (shape is not None and not shape.by_diagonals):
        seeded = _seed(a, b, scheme).score
        target, shape = band(seeded if gapless is None else max(gapless, seeded))
    if shape is None:
        score = gapless  # the band's one path is the gapless one
    else:
        _check_cells(n, m, shape)
        if target == floor and not shape.by_diagonals:
            if _match_bound(n, m, _lcs_length(a.residues, b.residues), scheme) < target:
                return None
        # R + 1 sweeps (_fill_diagonals)
        reopen = _shifted_scores(scheme)[2]
        beyond = max(0, _match_bound(n, m, min(n, m), scheme) - target)
        sweeps = (beyond // -reopen if reopen else n + m) + 1
        mat_m, mat_x, y_last = _fill_band(a.residues, b.residues, scheme, shape, sweeps)
        end = m - shape.step * n - shape.first + 1  # cell (n, m)'s column
        ends = (mat_m.item(n, end), mat_x.item(n, end), y_last.item(end - 1))
        score = int(max(ends)) + (n + m + 1 - shape.first) * scheme.gap_extend
    if score < target:
        if target == floor:
            return None
        raise AssertionError(
            f"band below its target: {shape}, target {target}, band score {score}"
        )
    if score == gapless:  # so n == m: the traceback would stay on diagonal 0
        return AlignmentResult(aligned_a=a.residues, aligned_b=b.residues, score=score)
    aligned_a, aligned_b = _traceback(
        a.residues, b.residues, scheme, mat_m, mat_x, ends, shape.step, end
    )
    # free the band before the ops pass allocates its own arrays
    del mat_m, mat_x
    return AlignmentResult(aligned_a=aligned_a, aligned_b=aligned_b, score=score)


def identity_percent(r: AlignmentResult) -> float:
    """Percentage of alignment columns that are exact matches."""
    total = len(r.aligned_a)
    matches = sum(count for op, count in r.ops if op is AlignOp.MATCH)
    return 100.0 * matches / total
