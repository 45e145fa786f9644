"""Sparse matrix storage schemes, implemented from scratch (§VIII).

The paper's second future-work thread: "we shall also address the
energy performance scaling properties of the various sparse matrix
(vector) storage techniques".  Five classic schemes are implemented
directly on numpy arrays (not scipy.sparse — the storage layout *is*
the subject of study, so we own it):

* :class:`COOMatrix` — coordinate triples, the assembly format;
* :class:`CSRMatrix` — compressed sparse row, the general-purpose
  workhorse;
* :class:`ELLMatrix` — ELLPACK: rows padded to equal length, SIMD/GPU
  friendly, wasteful for skewed row degrees;
* :class:`BSRMatrix` — block CSR: dense ``b x b`` blocks, amortizing
  index overhead for locally dense structure;
* :class:`DIAMatrix` — stored diagonals: near-zero index overhead for
  banded operators, ruinous padding for anything scattered.

Every format supports a vectorized full SpMV, a row-range SpMV (the
work-sharing primitive the EP study's task graphs chunk over), exact
storage accounting (the index/value byte split drives the energy
model) and lossless conversion through COO.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..util.errors import ValidationError
from ..util.validation import require_positive

__all__ = [
    "SparseMatrix",
    "COOMatrix",
    "CSRMatrix",
    "ELLMatrix",
    "BSRMatrix",
    "DIAMatrix",
]

_INDEX_DTYPE = np.int32
_VALUE_DTYPE = np.float64
_IDX_BYTES = 4
_VAL_BYTES = 8


class SparseMatrix(ABC):
    """Common interface of all storage schemes."""

    #: registry name, e.g. "csr"
    format_name: str = "abstract"

    shape: tuple[int, int]

    @property
    @abstractmethod
    def nnz(self) -> int:
        """Stored non-zeros (including explicit zeros, excluding padding)."""

    @abstractmethod
    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Full ``y = A @ x``."""

    @abstractmethod
    def spmv_range(self, r0: int, r1: int, x: np.ndarray, y: np.ndarray) -> None:
        """Compute rows ``[r0, r1)`` of ``A @ x`` into ``y[r0:r1]`` —
        the primitive parallel SpMV chunks over."""

    @abstractmethod
    def index_bytes(self) -> int:
        """Bytes of index/structure storage."""

    @abstractmethod
    def value_bytes(self) -> int:
        """Bytes of value storage (including any padding values)."""

    @abstractmethod
    def to_coo(self) -> "COOMatrix":
        """Lossless conversion to coordinate form."""

    def storage_bytes(self) -> int:
        """Total resident bytes of the scheme."""
        return self.index_bytes() + self.value_bytes()

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (tests / small matrices only)."""
        coo = self.to_coo()
        out = np.zeros(self.shape, dtype=_VALUE_DTYPE)
        np.add.at(out, (coo.rows, coo.cols), coo.values)
        return out

    def _check_x(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=_VALUE_DTYPE)
        if x.shape != (self.shape[1],):
            raise ValidationError(
                f"x has shape {x.shape}, expected ({self.shape[1]},)"
            )
        return x

    def _check_range(self, r0: int, r1: int) -> None:
        if not (0 <= r0 <= r1 <= self.shape[0]):
            raise ValidationError(
                f"row range [{r0}, {r1}) invalid for {self.shape[0]} rows"
            )


@dataclass
class COOMatrix(SparseMatrix):
    """Coordinate format: parallel (row, col, value) arrays, sorted by
    (row, col) so row ranges are contiguous slices."""

    format_name = "coo"

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        m, n = self.shape
        require_positive(m, "rows")
        require_positive(n, "cols")
        self.rows = np.asarray(self.rows, dtype=_INDEX_DTYPE)
        self.cols = np.asarray(self.cols, dtype=_INDEX_DTYPE)
        self.values = np.asarray(self.values, dtype=_VALUE_DTYPE)
        if not (len(self.rows) == len(self.cols) == len(self.values)):
            raise ValidationError("rows/cols/values must have equal length")
        if len(self.rows) and (
            self.rows.min() < 0
            or self.rows.max() >= m
            or self.cols.min() < 0
            or self.cols.max() >= n
        ):
            raise ValidationError("index out of bounds")
        order = np.lexsort((self.cols, self.rows))
        self.rows = self.rows[order]
        self.cols = self.cols[order]
        self.values = self.values[order]
        dup = (np.diff(self.rows) == 0) & (np.diff(self.cols) == 0)
        if len(self.rows) > 1 and bool(dup.any()):
            raise ValidationError("duplicate (row, col) entries")

    @staticmethod
    def from_dense(a: np.ndarray) -> "COOMatrix":
        """Extract the non-zero pattern of a dense array."""
        a = np.asarray(a, dtype=_VALUE_DTYPE)
        if a.ndim != 2:
            raise ValidationError("from_dense needs a 2-D array")
        rows, cols = np.nonzero(a)
        return COOMatrix(a.shape, rows, cols, a[rows, cols])

    @property
    def nnz(self) -> int:
        return int(len(self.values))

    def spmv(self, x: np.ndarray) -> np.ndarray:
        x = self._check_x(x)
        y = np.zeros(self.shape[0], dtype=_VALUE_DTYPE)
        np.add.at(y, self.rows, self.values * x[self.cols])
        return y

    def spmv_range(self, r0: int, r1: int, x: np.ndarray, y: np.ndarray) -> None:
        self._check_range(r0, r1)
        x = self._check_x(x)
        lo = np.searchsorted(self.rows, r0, side="left")
        hi = np.searchsorted(self.rows, r1, side="left")
        y[r0:r1] = 0.0
        np.add.at(y, self.rows[lo:hi], self.values[lo:hi] * x[self.cols[lo:hi]])

    def index_bytes(self) -> int:
        return 2 * self.nnz * _IDX_BYTES

    def value_bytes(self) -> int:
        return self.nnz * _VAL_BYTES

    def to_coo(self) -> "COOMatrix":
        return self


class CSRMatrix(SparseMatrix):
    """Compressed sparse row: ``indptr`` (m+1), ``indices``/``data``."""

    format_name = "csr"

    def __init__(self, shape, indptr, indices, data):
        m, n = shape
        require_positive(m, "rows")
        require_positive(n, "cols")
        self.shape = (int(m), int(n))
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=_INDEX_DTYPE)
        self.data = np.asarray(data, dtype=_VALUE_DTYPE)
        if len(self.indptr) != m + 1:
            raise ValidationError(f"indptr must have {m + 1} entries")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.data):
            raise ValidationError("indptr endpoints inconsistent with data")
        if bool((np.diff(self.indptr) < 0).any()):
            raise ValidationError("indptr must be non-decreasing")
        if len(self.indices) != len(self.data):
            raise ValidationError("indices/data length mismatch")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= n
        ):
            raise ValidationError("column index out of bounds")

    @staticmethod
    def from_coo(coo: COOMatrix) -> "CSRMatrix":
        m = coo.shape[0]
        counts = np.bincount(coo.rows, minlength=m)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return CSRMatrix(coo.shape, indptr, coo.cols, coo.values)

    @staticmethod
    def from_dense(a: np.ndarray) -> "CSRMatrix":
        return CSRMatrix.from_coo(COOMatrix.from_dense(a))

    @property
    def nnz(self) -> int:
        return int(len(self.data))

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def spmv(self, x: np.ndarray) -> np.ndarray:
        x = self._check_x(x)
        y = np.empty(self.shape[0], dtype=_VALUE_DTYPE)
        self.spmv_range(0, self.shape[0], x, y)
        return y

    def spmv_range(self, r0: int, r1: int, x: np.ndarray, y: np.ndarray) -> None:
        self._check_range(r0, r1)
        x = self._check_x(x)
        lo, hi = self.indptr[r0], self.indptr[r1]
        products = self.data[lo:hi] * x[self.indices[lo:hi]]
        ptr = self.indptr[r0 : r1 + 1] - lo
        # reduceat cannot express an empty segment, so reduce over the
        # non-empty rows only: their starts are strictly increasing and
        # each segment runs to the next non-empty row's start.
        filled = ptr[1:] > ptr[:-1]
        y[r0:r1] = 0.0
        if filled.any():
            y[r0:r1][filled] = np.add.reduceat(products, ptr[:-1][filled])

    def index_bytes(self) -> int:
        return self.nnz * _IDX_BYTES + len(self.indptr) * _IDX_BYTES

    def value_bytes(self) -> int:
        return self.nnz * _VAL_BYTES

    def to_coo(self) -> COOMatrix:
        rows = np.repeat(
            np.arange(self.shape[0], dtype=_INDEX_DTYPE), self.row_lengths()
        )
        return COOMatrix(self.shape, rows, self.indices.copy(), self.data.copy())


class ELLMatrix(SparseMatrix):
    """ELLPACK: every row padded to the maximum row length ``k``.

    Padding slots store column 0 with value 0.0 (the classic trick that
    keeps the kernel branch-free); :attr:`pad_ratio` quantifies the
    wasted storage the EP study charges for.
    """

    format_name = "ell"

    def __init__(self, shape, indices, data, row_lengths):
        m, n = shape
        require_positive(m, "rows")
        require_positive(n, "cols")
        self.shape = (int(m), int(n))
        self.indices = np.asarray(indices, dtype=_INDEX_DTYPE)
        self.data = np.asarray(data, dtype=_VALUE_DTYPE)
        self.lengths = np.asarray(row_lengths, dtype=np.int64)
        if self.indices.shape != self.data.shape or self.indices.ndim != 2:
            raise ValidationError("indices/data must be matching 2-D arrays")
        if self.indices.shape[0] != m:
            raise ValidationError("row count mismatch")
        if len(self.lengths) != m:
            raise ValidationError("row_lengths must have one entry per row")
        k = self.indices.shape[1]
        if bool((self.lengths > k).any()):
            raise ValidationError("row length exceeds ELL width")

    @staticmethod
    def from_coo(coo: COOMatrix) -> "ELLMatrix":
        m = coo.shape[0]
        lengths = np.bincount(coo.rows, minlength=m).astype(np.int64)
        k = int(lengths.max()) if len(lengths) else 0
        k = max(k, 1)
        indices = np.zeros((m, k), dtype=_INDEX_DTYPE)
        data = np.zeros((m, k), dtype=_VALUE_DTYPE)
        # COO is row-major sorted; slot offsets within each row.
        starts = np.concatenate([[0], np.cumsum(lengths)])
        offsets = np.arange(coo.nnz) - starts[coo.rows]
        indices[coo.rows, offsets] = coo.cols
        data[coo.rows, offsets] = coo.values
        return ELLMatrix(coo.shape, indices, data, lengths)

    @staticmethod
    def from_dense(a: np.ndarray) -> "ELLMatrix":
        return ELLMatrix.from_coo(COOMatrix.from_dense(a))

    @property
    def width(self) -> int:
        return self.indices.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.lengths.sum())

    @property
    def pad_ratio(self) -> float:
        """Padded slots / total slots — ELL's storage waste."""
        total = self.shape[0] * self.width
        return 1.0 - self.nnz / total if total else 0.0

    def spmv(self, x: np.ndarray) -> np.ndarray:
        x = self._check_x(x)
        return (self.data * x[self.indices]).sum(axis=1)

    def spmv_range(self, r0: int, r1: int, x: np.ndarray, y: np.ndarray) -> None:
        self._check_range(r0, r1)
        x = self._check_x(x)
        y[r0:r1] = (self.data[r0:r1] * x[self.indices[r0:r1]]).sum(axis=1)

    def index_bytes(self) -> int:
        return self.indices.size * _IDX_BYTES

    def value_bytes(self) -> int:
        return self.data.size * _VAL_BYTES

    def to_coo(self) -> COOMatrix:
        mask = np.arange(self.width)[None, :] < self.lengths[:, None]
        rows, slots = np.nonzero(mask)
        return COOMatrix(
            self.shape,
            rows.astype(_INDEX_DTYPE),
            self.indices[rows, slots],
            self.data[rows, slots],
        )


class BSRMatrix(SparseMatrix):
    """Block CSR with square ``b x b`` blocks.

    Stores *block* rows/columns CSR-style; each stored block is dense.
    Zero elements inside stored blocks count as fill
    (:attr:`fill_ratio`), the storage/energy cost of blocking.
    """

    format_name = "bsr"

    def __init__(self, shape, block_size, indptr, indices, blocks):
        m, n = shape
        require_positive(block_size, "block_size")
        if m % block_size or n % block_size:
            raise ValidationError(
                f"shape {shape} not divisible by block size {block_size}"
            )
        self.shape = (int(m), int(n))
        self.b = int(block_size)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=_INDEX_DTYPE)
        self.blocks = np.asarray(blocks, dtype=_VALUE_DTYPE)
        mb = m // self.b
        if len(self.indptr) != mb + 1:
            raise ValidationError(f"indptr must have {mb + 1} entries")
        if self.blocks.ndim != 3 or self.blocks.shape[1:] != (self.b, self.b):
            raise ValidationError("blocks must be (nblocks, b, b)")
        if len(self.indices) != self.blocks.shape[0]:
            raise ValidationError("indices/blocks length mismatch")

    @staticmethod
    def from_coo(coo: COOMatrix, block_size: int) -> "BSRMatrix":
        m, n = coo.shape
        require_positive(block_size, "block_size")
        if m % block_size or n % block_size:
            raise ValidationError(
                f"shape {coo.shape} not divisible by block size {block_size}"
            )
        b = block_size
        brows = coo.rows // b
        bcols = coo.cols // b
        mb = m // b
        # Unique occupied blocks, sorted block-row-major.
        keys = brows.astype(np.int64) * (n // b) + bcols
        unique, inverse = np.unique(keys, return_inverse=True)
        nblocks = len(unique)
        blocks = np.zeros((max(nblocks, 1), b, b), dtype=_VALUE_DTYPE)
        if coo.nnz:
            blocks[inverse, coo.rows % b, coo.cols % b] = coo.values
        ubrows = (unique // (n // b)).astype(np.int64)
        ubcols = (unique % (n // b)).astype(_INDEX_DTYPE)
        counts = np.bincount(ubrows, minlength=mb)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        if nblocks == 0:
            blocks = np.zeros((0, b, b), dtype=_VALUE_DTYPE)
        return BSRMatrix(coo.shape, b, indptr, ubcols, blocks)

    @staticmethod
    def from_dense(a: np.ndarray, block_size: int) -> "BSRMatrix":
        return BSRMatrix.from_coo(COOMatrix.from_dense(a), block_size)

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.blocks))

    @property
    def stored_values(self) -> int:
        """All stored slots, including intra-block fill."""
        return int(self.blocks.size)

    @property
    def fill_ratio(self) -> float:
        """Zero slots inside stored blocks / stored slots."""
        if self.blocks.size == 0:
            return 0.0
        return 1.0 - self.nnz / self.blocks.size

    def spmv(self, x: np.ndarray) -> np.ndarray:
        x = self._check_x(x)
        y = np.empty(self.shape[0], dtype=_VALUE_DTYPE)
        self.spmv_range(0, self.shape[0], x, y)
        return y

    def spmv_range(self, r0: int, r1: int, x: np.ndarray, y: np.ndarray) -> None:
        self._check_range(r0, r1)
        if r0 % self.b or r1 % self.b:
            raise ValidationError(
                f"BSR row range must align to block size {self.b}"
            )
        x = self._check_x(x)
        xb = x.reshape(-1, self.b)
        br0, br1 = r0 // self.b, r1 // self.b
        lo, hi = self.indptr[br0], self.indptr[br1]
        if hi == lo:
            y[r0:r1] = 0.0
            return
        partial = np.einsum(
            "nij,nj->ni", self.blocks[lo:hi], xb[self.indices[lo:hi]]
        )
        # Non-empty block rows only, as in CSRMatrix.spmv_range.
        ptr = self.indptr[br0 : br1 + 1] - lo
        filled = ptr[1:] > ptr[:-1]
        sums = np.zeros((br1 - br0, self.b), dtype=partial.dtype)
        sums[filled] = np.add.reduceat(partial, ptr[:-1][filled], axis=0)
        y[r0:r1] = sums.reshape(-1)

    def index_bytes(self) -> int:
        return len(self.indices) * _IDX_BYTES + len(self.indptr) * _IDX_BYTES

    def value_bytes(self) -> int:
        return self.blocks.size * _VAL_BYTES

    def to_coo(self) -> COOMatrix:
        entries_r, entries_c, entries_v = [], [], []
        nb = self.shape[1] // self.b
        for brow in range(len(self.indptr) - 1):
            for slot in range(self.indptr[brow], self.indptr[brow + 1]):
                bcol = self.indices[slot]
                block = self.blocks[slot]
                r, c = np.nonzero(block)
                entries_r.append(brow * self.b + r)
                entries_c.append(bcol * self.b + c)
                entries_v.append(block[r, c])
        if not entries_r:
            return COOMatrix(self.shape, [], [], [])
        return COOMatrix(
            self.shape,
            np.concatenate(entries_r),
            np.concatenate(entries_c),
            np.concatenate(entries_v),
        )


class DIAMatrix(SparseMatrix):
    """Diagonal format: one dense array per stored diagonal.

    The natural scheme for banded operators (PDE stencils): *no column
    indices at all* — only the list of diagonal offsets — so its index
    overhead is O(diagonals) instead of O(nnz), and SpMV is pure
    strided streaming.  The flip side: every stored diagonal is dense,
    so scattered patterns explode the padding (:attr:`pad_ratio`).
    """

    format_name = "dia"

    def __init__(self, shape, offsets, diagonals):
        m, n = shape
        require_positive(m, "rows")
        require_positive(n, "cols")
        self.shape = (int(m), int(n))
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.diagonals = np.asarray(diagonals, dtype=_VALUE_DTYPE)
        if self.diagonals.ndim != 2 or self.diagonals.shape[0] != len(self.offsets):
            raise ValidationError("diagonals must be (num_offsets, n)")
        if self.diagonals.shape[1] != n:
            raise ValidationError("diagonal storage width must equal n cols")
        if len(np.unique(self.offsets)) != len(self.offsets):
            raise ValidationError("duplicate diagonal offsets")
        if len(self.offsets) and (
            self.offsets.min() <= -m or self.offsets.max() >= n
        ):
            raise ValidationError("offset out of bounds")

    @staticmethod
    def from_coo(coo: COOMatrix) -> "DIAMatrix":
        m, n = coo.shape
        offsets = np.unique(coo.cols.astype(np.int64) - coo.rows.astype(np.int64))
        if len(offsets) == 0:
            offsets = np.array([0], dtype=np.int64)
        diagonals = np.zeros((len(offsets), n), dtype=_VALUE_DTYPE)
        index = {off: i for i, off in enumerate(offsets)}
        for r, c, v in zip(coo.rows, coo.cols, coo.values):
            diagonals[index[int(c) - int(r)], c] = v
        return DIAMatrix(coo.shape, offsets, diagonals)

    @staticmethod
    def from_dense(a: np.ndarray) -> "DIAMatrix":
        return DIAMatrix.from_coo(COOMatrix.from_dense(a))

    @property
    def num_diagonals(self) -> int:
        return len(self.offsets)

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.diagonals))

    @property
    def pad_ratio(self) -> float:
        """Zero slots stored / total slots — DIA's waste on scattered
        patterns (0 for a full band)."""
        total = self.diagonals.size
        return 1.0 - self.nnz / total if total else 0.0

    def spmv(self, x: np.ndarray) -> np.ndarray:
        x = self._check_x(x)
        y = np.zeros(self.shape[0], dtype=_VALUE_DTYPE)
        self.spmv_range(0, self.shape[0], x, y)
        return y

    def spmv_range(self, r0: int, r1: int, x: np.ndarray, y: np.ndarray) -> None:
        self._check_range(r0, r1)
        x = self._check_x(x)
        m, n = self.shape
        y[r0:r1] = 0.0
        for off, diag in zip(self.offsets, self.diagonals):
            # Row i uses column i + off; storage is indexed by column.
            lo = max(r0, -off, 0)
            hi = min(r1, n - off, m)
            if hi <= lo:
                continue
            cols = np.arange(lo + off, hi + off)
            y[lo:hi] += diag[cols] * x[cols]

    def index_bytes(self) -> int:
        # Just the offsets: 8 bytes each, independent of nnz.
        return self.num_diagonals * 8

    def value_bytes(self) -> int:
        return self.diagonals.size * _VAL_BYTES

    def to_coo(self) -> COOMatrix:
        rows_list, cols_list, vals_list = [], [], []
        m, n = self.shape
        for off, diag in zip(self.offsets, self.diagonals):
            lo = max(0, -off)
            hi = min(m, n - off)
            if hi <= lo:
                continue
            cols = np.arange(lo + off, hi + off)
            vals = diag[cols]
            keep = vals != 0.0
            rows_list.append(np.arange(lo, hi)[keep])
            cols_list.append(cols[keep])
            vals_list.append(vals[keep])
        if not rows_list:
            return COOMatrix(self.shape, [], [], [])
        return COOMatrix(
            self.shape,
            np.concatenate(rows_list).astype(_INDEX_DTYPE),
            np.concatenate(cols_list).astype(_INDEX_DTYPE),
            np.concatenate(vals_list),
        )
