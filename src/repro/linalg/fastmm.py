"""Sequential reference implementations of fast matrix multiplication.

These are the *numerical* kernels of the Strassen family — pure numpy,
no simulation.  The task-graph lowerings in :mod:`repro.algorithms`
attach them (or their single-level steps :func:`winograd_pre`,
:func:`winograd_post` and :func:`peel_borders`) as kernel closures,
and the test suite uses them as independent oracles.

Both schedules follow the operation counts the cost models assume:

* :func:`winograd_product` — Strassen-Winograd, 7 multiplies + 15
  additions per level (S1..S4, T1..T4, U2..U4, and the four C blocks).
* :func:`classic_strassen_product` — classic Strassen per the paper's
  Eq. 7: 7 multiplies + 18 additions (10 pre, 8 post).  Note the paper's
  printed Eq. 7 contains two typos (Q5's first factor is ``A11+A12``,
  not ``A11+B12``; Q6's is ``A21-A11``, not ``A21-A12``); the corrected
  standard form is implemented.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..util.errors import ValidationError
from ..util.validation import is_power_of_two, require_positive
from .dense import require_square, split_quadrants

__all__ = [
    "winograd_product",
    "classic_strassen_product",
    "winograd_product_peeled",
    "recursion_depth",
    "peel_borders",
    "winograd_factors",
    "winograd_post",
    "winograd_pre",
]


def _check_inputs(
    a: np.ndarray, b: np.ndarray, cutoff: int, power_of_two: bool = True
) -> int:
    require_square(a, "a")
    require_square(b, "b")
    if a.shape != b.shape:
        raise ValidationError(f"operand shapes differ: {a.shape} vs {b.shape}")
    require_positive(cutoff, "cutoff")
    n = a.shape[0]
    if power_of_two and n > cutoff and not is_power_of_two(n):
        raise ValidationError(
            f"recursive multiply needs a power-of-two dimension above the "
            f"cutoff, got n={n} (pad with linalg.pad_to_power_of_two)"
        )
    return n


def recursion_depth(n: int, cutoff: int) -> int:
    """Levels of recursion before the ``<= cutoff`` leaf solver fires."""
    require_positive(n, "n")
    require_positive(cutoff, "cutoff")
    depth = 0
    while n > cutoff:
        if n % 2:
            raise ValidationError(f"odd dimension {n} above cutoff {cutoff}")
        n //= 2
        depth += 1
    return depth


def winograd_factors(
    a: np.ndarray, b: np.ndarray, st: Sequence[np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The seven ``(left, right)`` factor pairs of one Winograd level,
    given its S1..S4, T1..T4 buffers *st*: P1 = A11 B11, P2 = A12 B21,
    P3 = S4 B22, P4 = A22 T4, P5 = S1 T1, P6 = S2 T2, P7 = S3 T3."""
    a11, a12, _, a22 = split_quadrants(a)
    b11, _, b21, b22 = split_quadrants(b)
    s1, s2, s3, s4, t1, t2, t3, t4 = st
    return [(a11, b11), (a12, b21), (s4, b22), (a22, t4), (s1, t1), (s2, t2), (s3, t3)]


def winograd_pre(
    a: np.ndarray, b: np.ndarray, st: Sequence[np.ndarray], rows: slice = slice(None)
) -> None:
    """Fill the S1..S4, T1..T4 buffers *st* of one Winograd level (the
    8 pre-additions), restricted to *rows* of the half-size blocks."""
    a11, a12, a21, a22 = (q[rows] for q in split_quadrants(a))
    b11, b12, b21, b22 = (q[rows] for q in split_quadrants(b))
    s1, s2, s3, s4, t1, t2, t3, t4 = (x[rows] for x in st)
    np.add(a21, a22, out=s1)
    np.subtract(s1, a11, out=s2)
    np.subtract(a11, a21, out=s3)
    np.subtract(a12, s2, out=s4)
    np.subtract(b12, b11, out=t1)
    np.subtract(b22, t1, out=t2)
    np.subtract(b22, b12, out=t3)
    np.subtract(t2, b21, out=t4)


def winograd_post(
    p: Sequence[np.ndarray], c: np.ndarray, rows: slice = slice(None)
) -> None:
    """Assemble C's four blocks from the products P1..P7 (the 7
    post-additions: U2..U4 and the C blocks), restricted to *rows* of
    the half-size blocks."""
    p1, p2, p3, p4, p5, p6, p7 = (x[rows] for x in p)
    c11, c12, c21, c22 = (q[rows] for q in split_quadrants(c))
    u2 = p1 + p6
    u3 = u2 + p7
    u4 = u2 + p5
    np.add(p1, p2, out=c11)
    np.add(u4, p3, out=c12)
    np.subtract(u3, p4, out=c21)
    np.add(u3, p5, out=c22)


def _winograd_level(a: np.ndarray, b: np.ndarray, multiply) -> np.ndarray:
    """One Winograd level over even-dimension operands; the seven
    half-size products go through ``multiply(left, right)``."""
    dtype = np.result_type(a, b)
    h = a.shape[0] // 2
    st = [np.empty((h, h), dtype=dtype) for _ in range(8)]
    winograd_pre(a, b, st)
    p = [multiply(x, y) for x, y in winograd_factors(a, b, st)]
    c = np.empty(a.shape, dtype=dtype)
    winograd_post(p, c)
    return c


def winograd_product(a: np.ndarray, b: np.ndarray, cutoff: int = 64) -> np.ndarray:
    """``a @ b`` via Strassen-Winograd recursion down to *cutoff*."""
    n = _check_inputs(a, b, cutoff)
    if n <= cutoff:
        return a @ b
    return _winograd_level(a, b, lambda x, y: winograd_product(x, y, cutoff))


def winograd_product_peeled(
    a: np.ndarray, b: np.ndarray, cutoff: int = 64
) -> np.ndarray:
    """``a @ b`` via Winograd recursion with *dynamic peeling* for odd
    dimensions.

    Instead of zero-padding to a power of two (the default lowering's
    strategy), odd sizes peel the last row/column: the even-dimension
    core recurses, and the borders are restored with rank-1/GEMV
    updates.  Peeling avoids padding's memory blow-up at the cost of
    extra O(n^2) work per odd level — the classic trade (Huss-Lederman
    et al.), exposed here so the two strategies can be compared.
    """
    n = _check_inputs(a, b, cutoff, power_of_two=False)
    if n <= cutoff:
        return a @ b
    if n % 2 == 1:
        m = n - 1
        core = winograd_product_peeled(a[:m, :m], b[:m, :m], cutoff)
        c = np.empty((n, n), dtype=np.result_type(a, b))
        peel_borders(a, b, core, c)
        return c
    return _winograd_level(a, b, lambda x, y: winograd_product_peeled(x, y, cutoff))


def peel_borders(a: np.ndarray, b: np.ndarray, core: np.ndarray, c: np.ndarray) -> None:
    """Complete an odd-dimension ``c = a @ b`` from the product *core*
    of the leading even ``m x m`` blocks: the core plus the rank-1
    contribution of A's last column / B's last row, then the last
    column, last row and corner by GEMV."""
    m = core.shape[0]
    c[:m, :m] = core + np.outer(a[:m, m], b[m, :m])
    c[:m, m] = a[:m, :m] @ b[:m, m] + a[:m, m] * b[m, m]
    c[m, :m] = a[m, :m] @ b[:m, :m] + a[m, m] * b[m, :m]
    c[m, m] = a[m, :m] @ b[:m, m] + a[m, m] * b[m, m]


def classic_strassen_product(
    a: np.ndarray, b: np.ndarray, cutoff: int = 64
) -> np.ndarray:
    """``a @ b`` via classic Strassen (paper Eq. 7, corrected)."""
    n = _check_inputs(a, b, cutoff)
    if n <= cutoff:
        return a @ b
    a11, a12, a21, a22 = split_quadrants(a)
    b11, b12, b21, b22 = split_quadrants(b)

    q1 = classic_strassen_product(a11 + a22, b11 + b22, cutoff)
    q2 = classic_strassen_product(a21 + a22, b11, cutoff)
    q3 = classic_strassen_product(a11, b12 - b22, cutoff)
    q4 = classic_strassen_product(a22, b21 - b11, cutoff)
    q5 = classic_strassen_product(a11 + a12, b22, cutoff)
    q6 = classic_strassen_product(a21 - a11, b11 + b12, cutoff)
    q7 = classic_strassen_product(a12 - a22, b21 + b22, cutoff)

    h = n // 2
    c = np.empty((n, n), dtype=np.result_type(a, b))
    c[:h, :h] = q1 + q4 - q5 + q7
    c[:h, h:] = q3 + q5
    c[h:, :h] = q2 + q4
    c[h:, h:] = q1 - q2 + q3 + q6
    return c
