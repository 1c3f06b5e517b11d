"""GF(2) matrices in CSR form, incremental rank tracking, null-space enumeration.

A ``GF2Matrix`` keeps its rows as two numpy arrays, every row's columns in
one flat array and the offsets where each row starts: the one form the
sampler writes and the form ``peeling`` reads in place.  ``cols`` derives a
sorted column tuple per row on access, and ``rows`` the bit-packed form: a
Python int used as a bitset, bit i being column i.  ``rows`` is the one
place a sampled row becomes such a mask.  CPython ints give word-packed
XOR, which keeps elimination at a few hundred nanoseconds per basis
operation even for thousands of columns.

``RankState`` is the elimination kernel over int rows.  ``run_Tn`` and the
classical and dense trials absorb their rows into one in drawing order.
The corank kernel lives in ``peeling`` (``eliminate_core``, behind
``corank``): it peels a matrix's 2-core down to a small dense system over
the rows it sets aside and ranks that system in packed ``uint64`` words,
by Four-Russians elimination, with no int rows and no ``RankState``.  A
``RankState`` fed every row of the matrix is the independent route the
tests check that kernel by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, ParseError, check_work


def row_from_cols(cols: Iterable[int]) -> int:
    mask = 0
    for c in cols:
        mask |= 1 << c
    return mask


def row_cols(row: int) -> List[int]:
    # Clears the top bit each step: bit_length is O(1) and the row shrinks,
    # where taking the low bit (row & -row) costs two passes over the row.
    cols = []
    while row:
        top = row.bit_length() - 1
        cols.append(top)
        row ^= 1 << top
    cols.reverse()
    return cols


class GF2Matrix:
    """Rows over n_cols columns in CSR form, immutable once built.

    ``col_index`` lists every row's columns, row after row, and row i owns
    ``col_index[row_start[i]:row_start[i + 1]]``; both are read-only
    ``np.intp`` arrays, and a zero row owns an empty slice.  Every entry
    point ends in one check: each column lies in [0, n_cols) and the columns
    strictly increase within each row, so a row is sorted and repeats no
    column.  The constructor takes rows as int bitmasks, ``from_cols`` as
    column sequences and ``from_csr`` as the two arrays.  ``cols`` (one
    sorted column tuple per row) and ``rows`` (int bitmasks) are derived on
    each access and not stored.
    """

    __slots__ = ("n_cols", "col_index", "row_start")

    def __init__(self, n_cols: int, rows: Iterable[int] = ()):
        cols = []
        for r in rows:
            if r < 0:  # row_cols never ends on a negative int
                raise DimensionMismatch(f"row {r} < 0")
            cols.append(row_cols(r))
        self._set_csr(n_cols, *_csr_of(cols))

    @classmethod
    def from_cols(cls, n_cols: int, cols: Iterable[Sequence[int]]) -> "GF2Matrix":
        """The matrix whose rows have these columns, each row a sorted,
        duplicate-free sequence; nothing sorts or dedupes them here."""
        return cls.from_csr(n_cols, *_csr_of(list(cols)))

    @classmethod
    def from_csr(cls, n_cols: int, col_index, row_start) -> "GF2Matrix":
        """The matrix of these CSR arrays, held without a copy when they are
        already ``np.intp``."""
        matrix = cls.__new__(cls)
        matrix._set_csr(n_cols, col_index, row_start)
        return matrix

    def _set_csr(self, n_cols: int, col_index, row_start) -> None:
        # the one check of every entry point
        if n_cols < 1:
            raise DimensionMismatch(f"n_cols {n_cols} < 1")
        col_index = np.asarray(col_index, dtype=np.intp)
        row_start = np.asarray(row_start, dtype=np.intp)
        if (row_start.ndim != 1 or col_index.ndim != 1 or row_start.size == 0 or row_start[0] != 0
                or row_start[-1] != col_index.size or (np.diff(row_start) < 0).any()):
            raise DimensionMismatch(f"row offsets do not split {col_index.size} columns into rows")
        if col_index.size:
            low, high = col_index.argmin(), col_index.argmax()
            if col_index[low] < 0:
                raise DimensionMismatch(f"column {col_index[low]} < 0")
            if col_index[high] >= n_cols:
                raise DimensionMismatch(f"row spans column {col_index[high]} >= n_cols {n_cols}")
            step = np.diff(col_index)
            bounds = row_start[1:-1]
            step[bounds[(bounds > 0) & (bounds < col_index.size)] - 1] = 1  # across a row boundary
            bad = (step <= 0).nonzero()[0]
            if bad.size:
                raise DimensionMismatch(f"row repeats a column or is unsorted: column "
                                        f"{col_index[bad[0] + 1]} after {col_index[bad[0]]}")
        self.n_cols = n_cols
        self.col_index, self.row_start = col_index.view(), row_start.view()
        self.col_index.flags.writeable = self.row_start.flags.writeable = False

    @property
    def cols(self) -> List[Tuple[int, ...]]:
        flat, bounds = self.col_index.tolist(), self.row_start.tolist()
        return [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]

    @property
    def rows(self) -> List[int]:
        """Each row as an int bitmask, bit i being column i; an empty row is 0.
        The one place a CSR row becomes a mask: one shifted bit per entry,
        or-ed together over each nonempty row's slice."""
        rows = np.zeros(self.m, dtype=object)
        full = np.flatnonzero(np.diff(self.row_start))
        if full.size:
            bits = np.left_shift(1, self.col_index.astype(object))
            rows[full] = np.bitwise_or.reduceat(bits, self.row_start[full])
        return rows.tolist()

    @property
    def m(self) -> int:
        return self.row_start.size - 1


def _csr_of(cols: list):
    """(col_index, row_start) of a list of column sequences."""
    size = np.fromiter(map(len, cols), dtype=np.intp, count=len(cols))
    row_start = np.zeros(len(cols) + 1, dtype=np.intp)
    np.cumsum(size, out=row_start[1:])
    return np.fromiter(chain.from_iterable(cols), dtype=np.intp, count=int(row_start[-1])), row_start


@dataclass
class RankState:
    """Incremental row basis over GF(2), kept in row-echelon form.

    Each basis row is stored under its pivot, its highest set bit, and pivots
    are unique, so reducing an incoming row strictly lowers its highest bit and
    terminates after at most one XOR per basis row.  The pivot is read off
    ``bit_length`` in O(1), and the row shrinks as it is reduced; a lowest-bit
    pivot would cost two passes over the whole row per step (``row & -row``).
    """

    n_cols: int
    # slot p holds the basis row of bit length p (pivot p - 1), 0 while empty
    basis: list = field(init=False)
    corank: int = 0

    def __post_init__(self):
        self.basis = [0] * (self.n_cols + 1)

    def absorb(self, row: int) -> bool:
        """Feed one row; return True iff it was dependent on the rows so far.

        A zero row is accepted and counted dependent.
        """
        p = row.bit_length()
        if p > self.n_cols:
            raise DimensionMismatch(f"row spans column {p - 1} >= n_cols {self.n_cols}")
        basis = self.basis
        while row:
            b = basis[p]
            if not b:
                basis[p] = row
                return False
            row ^= b
            p = row.bit_length()
        self.corank += 1
        return True


def is_one_null(matrix: GF2Matrix) -> bool:
    """True iff every column sum is even, i.e. the all-ones vector is null.

    Vacuously true for m = 0.
    """
    return not (np.bincount(matrix.col_index, minlength=matrix.n_cols) & 1).any()


def enumerate_null_vectors(matrix: GF2Matrix):
    """All a in {0,1}^m with a.M = 0 (mod 2), including a = 0.

    Walks the 2^m subsets in Gray-code order, so each step is a single XOR.
    Returns (vectors, profile): vectors are bitmasks over row indices, and
    profile[l] counts null vectors using exactly l rows.

    Its cost m is checked against the "null-space walk" work budget.
    """
    m = matrix.m
    check_work("null-space walk", m)
    rows = matrix.rows
    vectors = [0]
    profile = {0: 1}
    acc = 0
    prev_gray = 0
    for i in range(1, 1 << m):
        gray = i ^ (i >> 1)
        bit = gray ^ prev_gray
        acc ^= rows[bit.bit_length() - 1]
        prev_gray = gray
        if acc == 0:
            vectors.append(gray)
            l = gray.bit_count()
            profile[l] = profile.get(l, 0) + 1
    vectors.sort()
    return vectors, profile


# --- text import/export -------------------------------------------------
#
# sparse: one row per line, unit column indices separated by spaces
# dense:  one row per line as a 0/1 string of length n_cols

def matrix_to_text(matrix: GF2Matrix, fmt: str = "sparse") -> str:
    lines = []
    if fmt == "sparse":
        for cols in matrix.cols:
            lines.append(" ".join(map(str, cols)))
    elif fmt == "dense":  # writes every entry, zeros too
        check_work("matrix", matrix.n_cols + matrix.m * (1 + matrix.n_cols))
        for cols in matrix.cols:
            line = ["0"] * matrix.n_cols
            for c in cols:
                line[c] = "1"
            lines.append("".join(line))
    else:
        raise ParseError(f"unknown matrix format {fmt!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def matrix_from_text(text: str, n_cols: int | None = None) -> GF2Matrix:
    """Read either text format.  0/1 lines all wider than one character are
    dense.  A width-1 line reads as sparse, except at n_cols = 1 when some
    line is "1", which no sparse row of one column can be.  The columns the
    text spans, its rows and its entries are checked against the "matrix"
    work budget before the matrix is built."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    bits = lines and all(set(ln) <= {"0", "1"} for ln in lines)
    rows = []
    maxc = -1
    if bits and (all(len(ln) > 1 for ln in lines) or (n_cols == 1 and "1" in lines)):
        widths = {len(ln) for ln in lines}
        if len(widths) > 1:
            raise ParseError(f"dense rows of unequal length: {sorted(widths)}")
        width = widths.pop()
        if n_cols is None:
            n_cols = width
        elif n_cols != width:
            raise ParseError(f"dense width {width} != n_cols {n_cols}")
        for ln in lines:
            rows.append(tuple(i for i, ch in enumerate(ln) if ch == "1"))
    else:
        for ln in lines:
            try:
                cols = [int(t) for t in ln.split()]
            except ValueError as exc:
                raise ParseError(f"bad sparse row {ln!r}") from exc
            if any(c < 0 for c in cols):
                raise ParseError(f"negative column index in {ln!r}")
            maxc = max(maxc, max(cols, default=-1))
            rows.append(tuple(sorted(set(cols))))
        if n_cols is None:
            n_cols = maxc + 1 if maxc >= 0 else 1
    check_work("matrix", max(n_cols, maxc + 1) + len(rows) + sum(map(len, rows)))
    return GF2Matrix.from_cols(n_cols, rows)
