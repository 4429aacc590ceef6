"""Burge words and Burge matrices.

A Burge word of size n is a pair (u, v) where u is a weakly increasing
Cayley permutation, v is any Cayley permutation, and every weak descent
of u is a weak descent of v.  Reading the biword column by column and
tallying pairs gives a matrix of nonnegative integers with no zero row
and no zero column whose entries sum to n; these are the Burge matrices.
The binary variant requires weak descents of u to be strict descents of
v, which is the same as capping the matrix entries at 1.

Since u is weakly increasing it is 1^a1 2^a2 ... r^ar for a composition
(a1..ar) of n, so u ranges over compositions, and for each u one Cayley
walk yields the words v that descend wherever u stays put.  The row sums
of the matrix are (a1..ar), so the matrices with given row sums are
generated from their one u alone.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .kernel import BiPoly, compositions
from .words import AscentSetSpec, Word, descent_mask, enumerate_cayley, is_cayley_word

Matrix = tuple[tuple[int, ...], ...]

__all__ = [
    "Matrix",
    "BurgeWord",
    "is_burge_matrix",
    "row_sums",
    "word_to_matrix",
    "matrix_to_word",
    "enumerate_weakly_increasing",
    "enumerate_burge",
    "enumerate_mat",
    "two_sided_brute",
]


class BurgeWord(NamedTuple):
    u: Word
    v: Word


def row_sums(mat: Matrix) -> tuple[int, ...]:
    return tuple(sum(row) for row in mat)


def is_burge_matrix(mat: Matrix, binary: bool = False) -> bool:
    if any(len(row) != len(mat[0]) for row in mat):
        return False
    if any(e < 0 or binary and e > 1 for row in mat for e in row):
        return False
    # with no negative entry, a line sums to 0 only when it is all zeros
    return all(map(any, mat)) and all(map(any, zip(*mat)))


def word_to_matrix(bw: BurgeWord) -> Matrix:
    """Tally matrix of the biword: entry (i, j) counts columns equal to (i, j).

    Checks the Burge conditions in the same pass: u must climb from 1 in
    steps of 0 or 1 (a weakly increasing Cayley word), and v must not
    ascend where u stays put (each weak descent of u is one of v).
    """
    u, v = bw
    if len(u) != len(v) or not is_cayley_word(v):
        raise ValueError(f"not a Burge word: {bw}")
    if not u:
        return ()
    width = max(v)
    rows: list[list[int]] = []
    top = prev = 0  # u's and v's letters in the previous column
    for a, b in zip(u, v):
        if a != top:  # u climbs: by exactly one, to open the next row
            if a != top + 1:
                raise ValueError(f"not a Burge word: {bw}")
            top = a
            row = [0] * width
            rows.append(row)
        elif b > prev:  # u stays put, so v must not ascend; refuses a first letter 0
            raise ValueError(f"not a Burge word: {bw}")
        row[b - 1] += 1
        prev = b
    return tuple(map(tuple, rows))


def matrix_to_word(mat: Matrix) -> BurgeWord:
    """Inverse tally: columns sorted by top entry, ties by decreasing bottom.

    Concretely, for each row index i in increasing order the pairs (i, j)
    appear with j decreasing, each repeated by the matrix entry.
    """
    if not is_burge_matrix(mat):
        raise ValueError("not a Burge matrix")
    us: list[int] = []
    vs: list[int] = []
    for i, row in enumerate(mat, start=1):
        for j in range(len(row), 0, -1):
            count = row[j - 1]
            us.extend([i] * count)
            vs.extend([j] * count)
    return BurgeWord(tuple(us), tuple(vs))


def enumerate_weakly_increasing(n: int) -> Iterator[Word]:
    """Weakly increasing Cayley permutations of size n, lexicographically."""
    for comp in compositions(n):
        word: list[int] = []
        for letter, mult in enumerate(comp, start=1):
            word.extend([letter] * mult)
        yield tuple(word)


def enumerate_burge(n: int, binary: bool = False) -> Iterator[BurgeWord]:
    """All (binary) Burge words of size n; u-major, then v, both lexicographic."""
    if n < 0:
        raise ValueError("enumerate_burge needs n >= 0")
    for u in enumerate_weakly_increasing(n):
        for v in enumerate_cayley(n, descent_mask(u), binary):
            yield BurgeWord(u, v)


def enumerate_mat(
    n: int, binary: bool = False, row_sums_spec: AscentSetSpec | None = None
) -> Iterator[Matrix]:
    """All (binary) Burge matrices of size n, via the biword bijection.

    With ``row_sums_spec`` only matrices whose row-sum vector equals the
    spec's delta composition are produced.  Row sums are the letter
    multiplicities of u, so those come from the one u = 1^delta1 2^delta2
    ... and the words v it admits, in the order of the unfiltered stream.
    """
    if row_sums_spec is None:
        biwords = enumerate_burge(n, binary=binary)
    elif row_sums_spec.n != n:
        raise ValueError(
            f"row-sum spec is for size {row_sums_spec.n}, matrices have size {n}"
        )
    else:
        u = tuple(i for i, d in enumerate(row_sums_spec.delta, start=1) for _ in range(d))
        biwords = (BurgeWord(u, v) for v in enumerate_cayley(n, descent_mask(u), binary))
    for bw in biwords:
        yield word_to_matrix(bw)


def two_sided_brute(n: int, binary: bool = False) -> BiPoly:
    """Joint row-count/column-count polynomial of Burge matrices, enumerated.

    The s^r t^c coefficient counts (binary) Burge matrices of size n with
    r rows and c columns.
    """
    counts: dict[tuple[int, int], int] = {}
    for mat in enumerate_mat(n, binary=binary):
        key = (len(mat), len(mat[0]) if mat else 0)
        counts[key] = counts.get(key, 0) + 1
    return BiPoly(counts)
