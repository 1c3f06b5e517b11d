"""GF(2) matrices as column tuples, incremental rank tracking, null-space enumeration.

A ``GF2Matrix`` keeps each row as its sorted tuple of columns, the hyperedge
that ``peeling`` indexes directly.  ``rows`` derives the bit-packed form on
access: a Python int used as a bitset, bit i being column i.  CPython ints
give word-packed XOR, which keeps elimination at a few hundred nanoseconds
per basis operation even for thousands of columns.

``RankState`` is the elimination kernel over int rows.  The kernel that peels
a matrix to its 2-core before eliminating lives in ``peeling``
(``eliminate_core``, behind ``corank``); a ``RankState`` fed every row is the
independent route the tests check it by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

from .errors import DimensionMismatch, TooLarge, ParseError

ENUM_LIMIT = 24  # 2^m null-space walks beyond this are refused


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
    """Immutable-after-build list of rows over n_cols columns.

    ``cols`` holds one sorted, duplicate-free tuple of columns per row, each
    below n_cols; a zero row is the empty tuple.  The constructor takes rows
    as int bitmasks and ``append_cols`` a row's column tuple, which it checks
    for both.  ``rows`` derives the int bitmasks on each access and does not
    store them.
    """

    __slots__ = ("n_cols", "cols")

    def __init__(self, n_cols: int, rows: Iterable[int] = ()):
        if n_cols < 1:
            raise DimensionMismatch(f"n_cols {n_cols} < 1")
        self.n_cols = n_cols
        self.cols: List[Tuple[int, ...]] = []
        for r in rows:
            if r < 0:  # row_cols never ends on a negative int
                raise DimensionMismatch(f"row {r} < 0")
            self.append_cols(tuple(row_cols(r)))

    def append_cols(self, cols: Tuple[int, ...]) -> None:
        """Append the row with these columns, a sorted, duplicate-free tuple."""
        if cols:
            if cols[-1] >= self.n_cols:
                raise DimensionMismatch(f"row spans column {cols[-1]} >= n_cols {self.n_cols}")
            if cols[0] < 0:
                raise DimensionMismatch(f"column {cols[0]} < 0")
        self.cols.append(cols)

    @property
    def rows(self) -> List[int]:
        return [row_from_cols(c) for c in self.cols]

    @property
    def m(self) -> int:
        return len(self.cols)


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
    acc = 0
    for r in matrix.rows:
        acc ^= r
    return acc == 0


def enumerate_null_vectors(matrix: GF2Matrix):
    """All a in {0,1}^m with a.M = 0 (mod 2), including a = 0.

    Walks the 2^m subsets in Gray-code order, so each step is a single XOR.
    Returns (vectors, profile): vectors are bitmasks over row indices, and
    profile[l] counts null vectors using exactly l rows.

    Raises TooLarge when m exceeds ENUM_LIMIT (24).
    """
    m = matrix.m
    if m > ENUM_LIMIT:
        raise TooLarge(f"m {m} > max_m {ENUM_LIMIT}")
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
    elif fmt == "dense":
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
    line is "1", which no sparse row of one column can be."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    bits = lines and all(set(ln) <= {"0", "1"} for ln in lines)
    rows = []
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
        maxc = -1
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
    matrix = GF2Matrix(n_cols)
    for cols in rows:
        matrix.append_cols(cols)
    return matrix
