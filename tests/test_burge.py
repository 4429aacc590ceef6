"""Burge words, Burge matrices, and the tally bijection between them."""

import itertools
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from cayburge.burge import (
    BurgeWord,
    enumerate_burge,
    enumerate_mat,
    enumerate_weakly_increasing,
    is_burge_matrix,
    matrix_to_word,
    row_sums,
    two_sided_brute,
    word_to_matrix,
)
from cayburge.words import AscentSetSpec, descent_mask, is_cayley_word

# |Mat[n]| and |BMat[n]| anchors from shape-wise inclusion-exclusion
# (see tools/make_fixtures.py for the independent derivation)
MAT = [1, 1, 5, 33, 281, 2961]
BMAT = [1, 1, 4, 24, 196, 2016]

MAT2 = {
    ((2,),),
    ((1, 1),),
    ((1,), (1,)),
    ((1, 0), (0, 1)),
    ((0, 1), (1, 0)),
}


def test_worked_biword_roundtrip():
    u = (1, 1, 1, 2, 3, 3, 3, 3, 3)
    v = (3, 3, 1, 3, 4, 2, 2, 2, 2)
    m = ((1, 0, 2, 0), (0, 0, 1, 0), (0, 4, 0, 1))
    bw = BurgeWord(u, v)
    assert word_to_matrix(bw) == m
    assert matrix_to_word(m) == bw
    assert len(bw.u) == 9 == sum(map(sum, m))


def test_is_burge_matrix():
    assert is_burge_matrix(())
    assert is_burge_matrix(((2,),))
    assert not is_burge_matrix(((1, 0), (1, 0)))  # zero column
    assert not is_burge_matrix(((0, 0), (1, 1)))  # zero row
    assert not is_burge_matrix(((2,),), binary=True)
    assert not is_burge_matrix(((-1, 2),))
    assert not is_burge_matrix(((1, 0), (1,)))  # ragged
    assert not is_burge_matrix(((),)) and not is_burge_matrix(((), ()))  # rows with no column
    assert not is_burge_matrix(((1, -1), (0, 1)), binary=True)

    def by_definition(mat, binary):
        width, cap = len(mat[0]), 1 if binary else 2
        return (
            all(len(row) == width and all(0 <= e <= cap for e in row) for row in mat)
            and all(sum(row) > 0 for row in mat)
            and all(sum(row[j] for row in mat) > 0 for j in range(width))
        )

    for rows, cols in itertools.product(range(1, 4), repeat=2):
        for mat in itertools.product(itertools.product(range(-1, 3), repeat=cols), repeat=rows):
            for binary in (False, True):
                assert is_burge_matrix(mat, binary) == by_definition(mat, binary), (mat, binary)


def test_row_and_column_sums():
    m = ((1, 0, 2, 0), (0, 0, 1, 0), (0, 4, 0, 1))
    assert row_sums(m) == (3, 1, 5)


def test_enumerate_weakly_increasing():
    assert list(enumerate_weakly_increasing(3)) == [
        (1, 1, 1),
        (1, 1, 2),
        (1, 2, 2),
        (1, 2, 3),
    ]
    for n in range(1, 8):
        got = list(enumerate_weakly_increasing(n))
        assert got == sorted(got)
        assert len(got) == 2 ** (n - 1)


def test_enumerate_burge_size_two():
    got = set(enumerate_burge(2))
    assert got == {
        BurgeWord((1, 1), (1, 1)),
        BurgeWord((1, 1), (2, 1)),
        BurgeWord((1, 2), (1, 1)),
        BurgeWord((1, 2), (1, 2)),
        BurgeWord((1, 2), (2, 1)),
    }
    assert set(enumerate_burge(2, binary=True)) == got - {BurgeWord((1, 1), (1, 1))}


def test_enumerate_burge_counts():
    for n in range(6):
        assert sum(1 for _ in enumerate_burge(n)) == MAT[n]
        assert sum(1 for _ in enumerate_burge(n, binary=True)) == BMAT[n]


def test_enumerate_mat_size_two():
    assert set(enumerate_mat(2)) == MAT2
    assert set(enumerate_mat(2, binary=True)) == MAT2 - {((2,),)}


def test_enumerate_mat_counts_and_validity():
    for n in range(6):
        for binary in (False, True):
            got = list(enumerate_mat(n, binary=binary))
            assert len(got) == (BMAT if binary else MAT)[n]
            assert len(set(got)) == len(got)
            assert all(is_burge_matrix(m, binary=binary) for m in got)


def test_word_matrix_roundtrip_exhaustive():
    for n in range(5):
        for binary in (False, True):
            for bw in enumerate_burge(n, binary=binary):
                m = word_to_matrix(bw)
                assert is_burge_matrix(m, binary=binary)
                assert matrix_to_word(m) == bw
            for m in enumerate_mat(n, binary=binary):
                assert word_to_matrix(matrix_to_word(m)) == m


def test_descents_transfer_to_matrix_shape():
    # rows tally the top word, columns the bottom word
    for bw in enumerate_burge(4):
        m = word_to_matrix(bw)
        assert len(m) == max(bw.u)
        assert len(m[0]) == max(bw.v)
        assert descent_mask(bw.u) & ~descent_mask(bw.v) == 0


def test_is_burge_word():
    # word_to_matrix accepts exactly the Burge words
    assert word_to_matrix(BurgeWord((1, 2), (1, 1))) == ((1,), (1,))
    # u must be weakly increasing and both words Cayley
    for bw in (
        BurgeWord((2, 1), (1, 2)),
        BurgeWord((1, 3), (1, 1)),
    ):
        with pytest.raises(ValueError, match="^not a Burge word: "):
            word_to_matrix(bw)


def test_word_to_matrix_rejects_non_burge():
    # v ascends where u stays put
    with pytest.raises(ValueError, match="^not a Burge word: "):
        word_to_matrix(BurgeWord((1, 1), (1, 2)))


def _is_burge_word(bw):
    """The definition: u weakly increasing, u and v Cayley words of one
    length, and every weak descent of u a weak descent of v."""
    u, v = bw
    if len(u) != len(v):
        return False
    if not (is_cayley_word(u) and is_cayley_word(v)):
        return False
    if any(a > b for a, b in zip(u, u[1:])):
        return False
    return descent_mask(u) & ~descent_mask(v) == 0


def _tally(bw):
    grid = [[0] * max(bw.v, default=0) for _ in range(max(bw.u, default=0))]
    for a, b in zip(*bw):
        grid[a - 1][b - 1] += 1
    return tuple(map(tuple, grid))


def _biword_grid():
    """Pairs of words, each of length n <= 4 with letters in -1..n+1.

    Every pair of words of length <= 3, unequal lengths included.  Of
    the 5.8 million pairs at length 4, those in which u or v passes its
    own half of the definition: every u against each Cayley v, and each
    weakly increasing Cayley u against every other v; plus each Cayley
    word of length 4 against every shorter word, on either side.
    """

    def words(n):
        return list(itertools.product(range(-1, n + 2), repeat=n))

    short = [w for n in range(4) for w in words(n)]
    four = words(4)
    cayley = [w for w in four if is_cayley_word(w)]
    increasing = [w for w in cayley if list(w) == sorted(w)]
    others = [w for w in four if not is_cayley_word(w)]
    return itertools.chain(
        itertools.product(short, short),
        itertools.product(four, cayley),
        itertools.product(increasing, others),
        itertools.product(cayley, short),
        itertools.product(short, cayley),
    )


def test_word_to_matrix_matches_the_burge_word_definition():
    accepted = 0
    for u, v in _biword_grid():
        bw = BurgeWord(u, v)
        if _is_burge_word(bw):
            accepted += 1
            assert word_to_matrix(bw) == _tally(bw), bw
        else:
            try:
                word_to_matrix(bw)
            except ValueError:
                continue
            raise AssertionError(f"accepted {bw}")
    assert accepted == sum(MAT[:5])


def test_enumerate_mat_row_filter():
    spec = AscentSetSpec(3, (1,))
    got = list(enumerate_mat(3, row_sums_spec=spec))
    assert len(got) == 8
    assert all(row_sums(m) == (1, 2) for m in got)
    bgot = list(enumerate_mat(3, binary=True, row_sums_spec=spec))
    assert all(row_sums(m) == (1, 2) for m in bgot)
    with pytest.raises(ValueError):
        list(enumerate_mat(3, row_sums_spec=AscentSetSpec(4, (1,))))


@pytest.mark.parametrize("binary", [False, True])
def test_enumerate_mat_row_sums_equals_the_filtered_full_enumeration(binary):
    for n in range(1, 7):
        filtered = {}  # the full stream split by row sums, in stream order
        for mat in enumerate_mat(n, binary=binary):
            filtered.setdefault(row_sums(mat), []).append(mat)
        for r in range(n):
            for S in itertools.combinations(range(1, n), r):
                spec = AscentSetSpec(n, S)
                got = list(enumerate_mat(n, binary=binary, row_sums_spec=spec))
                assert got == filtered[spec.delta], (n, S)


@pytest.mark.parametrize("binary", [False, True])
def test_burge_words_and_matrices_stream_at_any_size(binary):
    # v walks under u's descent mask, so no list of Cayley words comes first;
    # the first u is constant, so the first v descends (strictly when binary)
    # at every place
    n = 3000
    v = tuple(range(n, 0, -1)) if binary else (1,) * n
    assert list(islice(enumerate_burge(n, binary=binary), 1)) == [BurgeWord((1,) * n, v)]
    assert list(islice(enumerate_mat(n, binary=binary), 1)) == [((1,) * n,) if binary else ((n,),)]


@pytest.mark.parametrize("binary, count", [(False, 2**15), (True, 1)])
def test_the_row_sum_stream_with_every_place_forced(binary, count):
    # one row: v descends at each of the 15 places, weakly (one v per
    # composition of 16) or strictly (16..1 alone)
    spec = AscentSetSpec(16, ())
    assert sum(1 for _ in enumerate_mat(16, binary=binary, row_sums_spec=spec)) == count


def _matrices_with_row_sums(delta, binary):
    """Every Burge matrix with row sums delta, built column by column:
    each column is a nonzero vector within what is left of delta."""

    def columns(left):
        if not any(left):
            yield ()
            return
        ranges = [range(min(x, 1) + 1 if binary else x + 1) for x in left]
        for col in itertools.product(*ranges):
            if any(col):
                for rest in columns(tuple(a - b for a, b in zip(left, col))):
                    yield (col,) + rest

    return [tuple(zip(*cols)) for cols in columns(delta)]


def _biword_bottom(mat):
    """The word v of the biword of mat: row by row, columns right to left."""
    return tuple(j for row in mat for j in range(len(row), 0, -1) for _ in range(row[j - 1]))


@st.composite
def ascent_specs(draw, min_n, max_n):
    n = draw(st.integers(min_n, max_n))
    return AscentSetSpec(n, tuple(p for p in range(1, n) if draw(st.booleans())))


@settings(max_examples=15, deadline=None)
@given(ascent_specs(4, 7), st.booleans())
def test_enumerate_mat_row_sums_matches_a_column_by_column_build(spec, binary):
    # n <= 6 is covered exhaustively above; one u has the row sums delta,
    # and its words v come in lexicographic order
    want = sorted(_matrices_with_row_sums(spec.delta, binary), key=_biword_bottom)
    assert list(enumerate_mat(spec.n, binary=binary, row_sums_spec=spec)) == want


def test_two_sided_brute_size_two():
    poly = two_sided_brute(2)
    assert dict(poly.items()) == {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 2}
    bpoly = two_sided_brute(2, binary=True)
    assert dict(bpoly.items()) == {(1, 2): 1, (2, 1): 1, (2, 2): 2}


def test_two_sided_brute_totals():
    for n in range(5):
        assert two_sided_brute(n).eval(1, 1) == MAT[n]
        assert two_sided_brute(n, binary=True).eval(1, 1) == BMAT[n]


def test_two_sided_brute_empty():
    assert two_sided_brute(0).eval(1, 1) == 1
    assert dict(two_sided_brute(0).items()) == {(0, 0): 1}
