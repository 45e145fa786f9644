"""Sparse storage schemes: roundtrips, SpMV correctness, accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse.formats import BSRMatrix, COOMatrix, CSRMatrix, DIAMatrix, ELLMatrix
from repro.util.errors import ValidationError


def dense_fixture(seed=0, n=12, density=0.3):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=(n, n))
    a[rng.uniform(size=(n, n)) > density] = 0.0
    np.fill_diagonal(a, 1.0)  # no empty rows/cols corner for baseline
    return a


ALL_FORMATS = [
    ("coo", lambda d: COOMatrix.from_dense(d)),
    ("csr", lambda d: CSRMatrix.from_dense(d)),
    ("ell", lambda d: ELLMatrix.from_dense(d)),
    ("bsr", lambda d: BSRMatrix.from_dense(d, 4)),
    ("dia", lambda d: DIAMatrix.from_dense(d)),
]


@pytest.mark.parametrize("name,conv", ALL_FORMATS)
def test_dense_roundtrip(name, conv):
    d = dense_fixture()
    m = conv(d)
    assert np.allclose(m.to_dense(), d)


@pytest.mark.parametrize("name,conv", ALL_FORMATS)
def test_spmv_matches_dense(name, conv):
    d = dense_fixture(seed=3)
    m = conv(d)
    x = np.random.default_rng(1).uniform(-1, 1, size=d.shape[1])
    assert np.allclose(m.spmv(x), d @ x)


@pytest.mark.parametrize("name,conv", ALL_FORMATS)
def test_spmv_range_covers_rows(name, conv):
    d = dense_fixture(seed=5)
    m = conv(d)
    x = np.random.default_rng(2).uniform(-1, 1, size=d.shape[1])
    y = np.zeros(d.shape[0])
    m.spmv_range(0, 4, x, y)
    m.spmv_range(4, 8, x, y)
    m.spmv_range(8, 12, x, y)
    assert np.allclose(y, d @ x)


@pytest.mark.parametrize("name,conv", ALL_FORMATS)
@pytest.mark.parametrize(
    "empty_rows", [[0, 5], [10, 11], [8, 9, 10, 11], [0, 1, 2, 3, 10, 11]]
)
def test_spmv_with_empty_rows(name, conv, empty_rows):
    """Empty rows (and BSR block rows) anywhere, including trailing ones
    after a non-empty row, leave every other row's sum intact."""
    d = dense_fixture(seed=9)
    d[empty_rows] = 0.0
    m = conv(d)
    x = np.random.default_rng(4).uniform(-1, 1, size=d.shape[1])
    assert np.allclose(m.spmv(x), d @ x, atol=1e-12)
    y = np.full(d.shape[0], np.nan)
    m.spmv_range(0, 8, x, y)
    m.spmv_range(8, 12, x, y)
    assert np.allclose(y, d @ x, atol=1e-12)


@pytest.mark.parametrize("name,conv", ALL_FORMATS)
def test_to_coo_roundtrip(name, conv):
    d = dense_fixture(seed=7)
    m = conv(d)
    assert np.allclose(m.to_coo().to_dense(), d)


@pytest.mark.parametrize("name,conv", ALL_FORMATS)
def test_storage_bytes_positive_and_split(name, conv):
    m = conv(dense_fixture())
    assert m.storage_bytes() == m.index_bytes() + m.value_bytes()
    assert m.value_bytes() >= m.nnz * 8


class TestCOO:
    def test_sorted_and_deduped(self):
        m = COOMatrix((3, 3), [2, 0, 1], [0, 1, 2], [3.0, 1.0, 2.0])
        assert list(m.rows) == [0, 1, 2]

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            COOMatrix((2, 2), [0, 0], [1, 1], [1.0, 2.0])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValidationError):
            COOMatrix((2, 2), [0], [5], [1.0])

    def test_empty_matrix(self):
        m = COOMatrix((4, 4), [], [], [])
        assert m.nnz == 0
        assert np.allclose(m.spmv(np.ones(4)), 0)


class TestCSR:
    def test_empty_rows_handled(self):
        # Row 1 empty: the classic reduceat trap.
        d = np.zeros((4, 4))
        d[0, 0] = 1.0
        d[2, 3] = 2.0
        d[3, 0] = 3.0
        m = CSRMatrix.from_dense(d)
        x = np.arange(4.0) + 1
        assert np.allclose(m.spmv(x), d @ x)
        assert m.spmv(x)[1] == 0.0

    def test_indptr_validation(self):
        with pytest.raises(ValidationError):
            CSRMatrix((2, 2), [0, 1], [0], [1.0])  # wrong indptr length
        with pytest.raises(ValidationError):
            CSRMatrix((2, 2), [0, 2, 1], [0, 1], [1.0, 2.0])  # decreasing

    def test_row_lengths(self):
        d = dense_fixture()
        m = CSRMatrix.from_dense(d)
        assert np.array_equal(m.row_lengths(), (d != 0).sum(axis=1))


class TestELL:
    def test_padding_accounting(self):
        d = np.zeros((4, 4))
        d[0, :] = 1.0  # row of length 4
        d[1, 0] = 1.0
        d[2, 0] = 1.0
        d[3, 0] = 1.0
        m = ELLMatrix.from_dense(d)
        assert m.width == 4
        assert m.nnz == 7
        assert m.pad_ratio == pytest.approx(1 - 7 / 16)

    def test_padded_values_cost_storage(self):
        d = np.eye(8)
        d[0, :] = 1.0
        skewed = ELLMatrix.from_dense(d)
        uniform = ELLMatrix.from_dense(np.eye(8))
        assert skewed.value_bytes() > uniform.value_bytes() * 4

    def test_empty_rows(self):
        d = np.zeros((3, 3))
        d[0, 1] = 2.0
        m = ELLMatrix.from_dense(d)
        x = np.ones(3)
        assert np.allclose(m.spmv(x), d @ x)


class TestBSR:
    def test_block_alignment_required(self):
        with pytest.raises(ValidationError):
            BSRMatrix.from_dense(np.eye(10), 4)

    def test_fill_ratio(self):
        d = np.zeros((8, 8))
        d[0, 0] = 1.0  # one element -> one 4x4 block with 15 fill zeros
        m = BSRMatrix.from_dense(d, 4)
        assert m.stored_values == 16
        assert m.fill_ratio == pytest.approx(15 / 16)

    def test_block_diagonal_is_efficient(self):
        d = np.kron(np.eye(4), np.ones((4, 4)))
        m = BSRMatrix.from_dense(d, 4)
        assert m.fill_ratio == 0.0
        assert m.index_bytes() < CSRMatrix.from_dense(d).index_bytes()

    def test_spmv_range_must_align(self):
        m = BSRMatrix.from_dense(np.eye(8), 4)
        y = np.zeros(8)
        with pytest.raises(ValidationError):
            m.spmv_range(0, 6, np.ones(8), y)

    def test_empty_block_rows(self):
        d = np.zeros((8, 8))
        d[6, 7] = 5.0
        m = BSRMatrix.from_dense(d, 4)
        x = np.ones(8)
        assert np.allclose(m.spmv(x), d @ x)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10000))
def test_property_all_formats_agree(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 17)) * 4  # BSR-alignable
    d = rng.uniform(-1, 1, size=(n, n))
    d[rng.uniform(size=(n, n)) > 0.25] = 0.0
    x = rng.uniform(-1, 1, size=n)
    ref = d @ x
    for _, conv in ALL_FORMATS:
        m = conv(d)
        assert np.allclose(m.spmv(x), ref, atol=1e-12)
        assert m.nnz == int(np.count_nonzero(d))


class TestDIA:
    def test_offsets_and_width(self):
        d = np.zeros((6, 6))
        np.fill_diagonal(d, 2.0)
        d[0, 1] = 1.0
        m = DIAMatrix.from_dense(d)
        assert set(m.offsets.tolist()) == {0, 1}
        assert m.num_diagonals == 2

    def test_index_overhead_independent_of_nnz(self):
        small = DIAMatrix.from_dense(np.eye(8))
        big = DIAMatrix.from_dense(np.eye(512))
        assert small.index_bytes() == big.index_bytes() == 8

    def test_band_beats_csr_storage(self):
        from repro.sparse.generators import banded

        pat = banded(256, 4, seed=1)
        dia = DIAMatrix.from_coo(pat)
        csr = CSRMatrix.from_coo(pat)
        assert dia.storage_bytes() < csr.storage_bytes()
        assert dia.pad_ratio < 0.05

    def test_scattered_pattern_pads_heavily(self):
        from repro.sparse.generators import uniform_random

        pat = uniform_random(128, 0.01, seed=2)
        dia = DIAMatrix.from_coo(pat)
        assert dia.pad_ratio > 0.9
        assert dia.value_bytes() > 10 * CSRMatrix.from_coo(pat).value_bytes()

    def test_validation(self):
        with pytest.raises(ValidationError):
            DIAMatrix((4, 4), [0, 0], np.zeros((2, 4)))  # duplicate offsets
        with pytest.raises(ValidationError):
            DIAMatrix((4, 4), [5], np.zeros((1, 4)))  # offset out of range
        with pytest.raises(ValidationError):
            DIAMatrix((4, 4), [0], np.zeros((1, 3)))  # wrong width

    def test_negative_offset_diagonal(self):
        d = np.zeros((5, 5))
        for i in range(1, 5):
            d[i, i - 1] = float(i)
        m = DIAMatrix.from_dense(d)
        x = np.arange(5.0)
        assert np.allclose(m.spmv(x), d @ x)
