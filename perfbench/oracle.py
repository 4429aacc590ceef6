"""Closed forms computed independently of the cayburge package.

The benchmark's correctness gates compare program output against these
values, so none of them imports the package: each is derived from first
principles, and each takes a different route from the command it gates
(enumeration is gated by a closed form, one closed form by another).
"""

from __future__ import annotations

import math


def multichoose(m: int, n: int) -> int:
    if m == 0:
        return 1 if n == 0 else 0
    return math.comb(m + n - 1, n)


def fubini(n: int) -> int:
    """Ordered set partitions of an n-set, by the first-block recurrence."""
    fub = [1]
    for size in range(1, n + 1):
        fub.append(sum(math.comb(size, j) * fub[size - j] for j in range(1, size + 1)))
    return fub[n]


def matrices(r: int, c: int, n: int, binary: bool) -> int:
    """r x c nonnegative integer matrices with entry sum n and no zero row
    or column (entries capped at 1 when binary), by inclusion-exclusion
    over the rows and columns forced to zero."""
    coef = math.comb if binary else multichoose
    return sum(
        (-1) ** (i + j) * math.comb(r, i) * math.comb(c, j) * coef((r - i) * (c - j), n)
        for i in range(r + 1)
        for j in range(c + 1)
    )


def two_sided(n: int, binary: bool) -> dict[tuple[int, int], int]:
    """Burge matrices of size n by (row count, column count), zeros dropped."""
    if n == 0:
        return {(0, 0): 1}
    out = {}
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            value = matrices(r, c, n, binary)
            if value:
                out[(r, c)] = value
    return out


def count_mat(n: int, binary: bool = False) -> int:
    return sum(two_sided(n, binary).values())


def caylerian(n: int, strict: bool = False) -> list[int]:
    """Descent polynomial of Cayley permutations, ascending coefficients.

    With c_j the number of (binary, when strict) Burge matrices of size n
    with j columns, C_n(t) = sum_j c_j (t - 1)^(n - j).
    """
    coeffs = [0] * (n + 1)
    for (_, cols), value in two_sided(n, strict).items():
        e = n - cols
        for i in range(e + 1):
            coeffs[i] += value * math.comb(e, i) * (-1) ** (e - i)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def genmat_by_first_column(m: int, n: int, binary: bool = False) -> int:
    """m-row normalized structures of size n: a recurrence on the size of
    the first column, which holds p letters in coef(m, p) ways."""
    coef = math.comb if binary else multichoose
    g = [1] + [0] * n
    for size in range(1, n + 1):
        g[size] = sum(coef(m, p) * g[size - p] for p in range(1, size + 1))
    return g[n]


def genmat_by_empty_columns(m: int, n: int, binary: bool = False) -> int:
    """The same count by inclusion-exclusion over empty columns."""
    coef = math.comb if binary else multichoose
    return sum(
        (-1) ** i * math.comb(k, i) * coef(m * (k - i), n)
        for k in range(n + 1)
        for i in range(k + 1)
    )


def grids_with_row_sums(delta: tuple[int, ...]) -> int:
    """Nonnegative integer grids with row sums delta and no zero column,
    summed over the column count, by inclusion-exclusion over empty
    columns.  This is the count of Burge matrices with row-sum vector
    delta, and of Cayley permutations with strict ascents inside S."""
    n = sum(delta)
    total = 0
    for k in range(n + 1):
        for i in range(k + 1):
            term = (-1) ** i * math.comb(k, i)
            for g in delta:
                term *= multichoose(k - i, g)
            total += term
    return total
