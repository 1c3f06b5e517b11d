import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gf2rank.errors import DimensionMismatch, TooLarge
from gf2rank.gf2 import (
    GF2Matrix,
    RankState,
    enumerate_null_vectors,
    is_one_null,
    matrix_from_text,
    matrix_to_text,
    row_cols,
    row_from_cols,
)
from gf2rank.peeling import corank


def test_repeated_row_is_dependent():
    st_ = RankState(3)
    assert st_.absorb(0b001) is False
    assert st_.absorb(0b001) is True
    assert st_.corank == 1


def test_three_cycle_is_dependent():
    st_ = RankState(3)
    assert st_.absorb(0b011) is False
    assert st_.absorb(0b110) is False
    assert st_.absorb(0b101) is True


def test_full_rank_then_anything_dependent(rng):
    n = 24
    st_ = RankState(n)
    for i in range(n):
        assert st_.absorb(1 << i) is False
    for _ in range(10):
        row = int(rng.integers(1, 1 << n))
        assert st_.absorb(row) is True


def test_zero_row_is_dependent():
    st_ = RankState(4)
    assert st_.absorb(0) is True
    mat = GF2Matrix(4, [0b0011, 0])
    assert mat.cols == [(0, 1), ()]
    assert corank(mat) == 1


def test_dimension_mismatch():
    st_ = RankState(3)
    with pytest.raises(DimensionMismatch):
        st_.absorb(0b1000)
    with pytest.raises(DimensionMismatch):
        GF2Matrix(3, [0b1000])


def test_corank_identity():
    assert corank(GF2Matrix(3, [0b001, 0b010, 0b100])) == 0


def test_corank_repeats():
    assert corank(GF2Matrix(3, [0b011] * 4)) == 3


def test_corank_rank11_of_12_rows():
    # 12 rows over 19 columns with rank 11 -> corank 1
    rows = [1 << i for i in range(11)] + [(1 << 0) ^ (1 << 5)]
    mat = GF2Matrix(19, rows)
    assert corank(mat) == 1


def test_enumerate_identity():
    vecs, profile = enumerate_null_vectors(GF2Matrix(3, [1, 2, 4]))
    assert vecs == [0]
    assert profile == {0: 1}


def test_enumerate_two_equal_rows():
    vecs, profile = enumerate_null_vectors(GF2Matrix(3, [0b101, 0b101]))
    assert vecs == [0b00, 0b11]
    assert profile == {0: 1, 2: 1}


def test_enumerate_too_large():
    mat = GF2Matrix(2, [1] * 25)
    with pytest.raises(TooLarge):
        enumerate_null_vectors(mat)


def test_enumerate_count_matches_corank(rng):
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 13))
        rows = [int(rng.integers(1, 1 << n)) for _ in range(m)]
        mat = GF2Matrix(n, rows)
        vecs, profile = enumerate_null_vectors(mat)
        assert len(vecs) == 2 ** corank(mat)
        assert sum(profile.values()) == len(vecs)


def test_is_one_null():
    assert is_one_null(GF2Matrix(3, []))                # vacuous
    assert not is_one_null(GF2Matrix(3, [0b111]))
    assert is_one_null(GF2Matrix(3, [0b110, 0b110]))


def test_is_one_null_iff_enumerated(rng):
    for _ in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 9))
        mat = GF2Matrix(n, [int(rng.integers(1, 1 << n)) for _ in range(m)])
        vecs, _ = enumerate_null_vectors(mat)
        assert is_one_null(mat) == ((1 << m) - 1 in vecs)


def test_rank_is_order_invariant(rng):
    for _ in range(100):
        n = int(rng.integers(2, 20))
        m = int(rng.integers(1, 25))
        rows = [int(rng.integers(1, 1 << n)) for _ in range(m)]
        base = corank(GF2Matrix(n, rows))
        perm = list(rows)
        rng.shuffle(perm)
        assert corank(GF2Matrix(n, perm)) == base


def test_absorb_flags_rows_in_span_of_earlier_rows(rng):
    # each verdict against the span of the earlier rows, listed in full
    for _ in range(100):
        n = int(rng.integers(1, 11))
        st_ = RankState(n)
        span = {0}
        for _ in range(int(rng.integers(1, 14))):
            row = int(rng.integers(0, 1 << n))
            assert st_.absorb(row) == (row in span)
            span |= {x ^ row for x in span}
        assert len(span) == 2 ** sum(1 for b in st_.basis if b)  # filled pivot slots


def test_corank_nondecreasing_in_m(rng):
    st_ = RankState(12)
    prev = 0
    for _ in range(40):
        st_.absorb(int(rng.integers(1, 1 << 12)))
        assert st_.corank >= prev
        prev = st_.corank


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, (1 << 10) - 1), min_size=1, max_size=24))
def test_dependency_arrives_by_n_plus_one(rows):
    st_ = RankState(10)
    first_dep = None
    for i, r in enumerate(rows, start=1):
        if st_.absorb(r) and first_dep is None:
            first_dep = i
    if len(rows) >= 11:
        assert first_dep is not None and first_dep <= 11


def test_matrix_rows_are_column_tuples():
    mat = GF2Matrix(6, [0b000011, 0b101000, 0b010101])
    assert mat.cols == [(0, 1), (3, 5), (0, 2, 4)]
    assert mat.rows == [0b000011, 0b101000, 0b010101]  # derived on access
    mat = GF2Matrix.from_cols(6, mat.cols + [(5,)])
    assert mat.m == 4 and mat.rows[-1] == 0b100000
    for bad in ((6,), (-1, 2)):
        with pytest.raises(DimensionMismatch):
            GF2Matrix.from_cols(6, mat.cols + [bad])
    with pytest.raises(DimensionMismatch):
        GF2Matrix(6, [-3])
    assert mat.m == 4


# rows that are not sorted, repeat a column or leave the column range; each
# is refused whichever entry point it comes through.  A row (1, 1) once
# entered as two incidences: beside (0, 1) it left a 1-row core, where the
# same rows as bitmasks, 0b10 and 0b11, peel away
BAD_ROWS = {
    "repeated": (2, [(1, 1), (0, 1)]),
    "descending-out-of-range": (2, [(2, 0)]),
    "unsorted": (3, [(0, 2, 1)]),
    "repeated-after-empty-rows": (4, [(), (0, 1), (), (3, 3)]),
    "negative-last": (3, [(0, 1), (-1,)]),
}


@pytest.mark.parametrize("name", list(BAD_ROWS))
def test_repeated_or_unsorted_column_is_refused(name):
    n, rows = BAD_ROWS[name]
    size = [len(r) for r in rows]
    with pytest.raises(DimensionMismatch):
        GF2Matrix.from_cols(n, rows)
    with pytest.raises(DimensionMismatch):
        GF2Matrix.from_csr(n, [c for r in rows for c in r], [sum(size[:i]) for i in range(len(rows) + 1)])


def test_csr_check_reads_rows_apart():
    # a column may fall or repeat across a row boundary, and rows may be empty
    rows = [(), (1, 4), (), (0, 4), (4,), (), (0, 1, 2, 3, 4), ()]
    mat = GF2Matrix.from_cols(5, rows)
    assert mat.cols == rows and mat.m == 8
    assert mat.col_index.dtype == np.intp and mat.row_start.tolist() == [0, 0, 2, 2, 4, 5, 5, 10, 10]
    assert GF2Matrix.from_csr(5, mat.col_index, mat.row_start).cols == rows
    assert GF2Matrix.from_cols(5, []).m == 0
    for start in ([0, 2, 1, 10], [1, 10], [0, 9], []):
        with pytest.raises(DimensionMismatch):
            GF2Matrix.from_csr(5, mat.col_index, start)
    with pytest.raises(ValueError):
        mat.col_index[0] = 3  # read-only


def test_sparse_text_sets_a_repeated_column_once():
    assert matrix_from_text("3 1 3\n2\n", n_cols=4).cols == [(1, 3), (2,)]


def test_row_cols_roundtrip():
    assert row_cols(row_from_cols([5, 1, 9])) == [1, 5, 9]


def test_text_roundtrip_sparse_dense():
    mat = GF2Matrix(6, [0b000011, 0b101000, 0b010101])
    for fmt in ("sparse", "dense"):
        text = matrix_to_text(mat, fmt)
        back = matrix_from_text(text, n_cols=6)
        assert back.rows == mat.rows
    auto = matrix_from_text(matrix_to_text(mat, "dense"))
    assert auto.rows == mat.rows and auto.n_cols == 6
