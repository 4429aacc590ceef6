"""Matrices of linear orders, the permutation action, atoms, and two
sign-reversing involutions.

A structure here is an m x k matrix M whose entries are words with
pairwise disjoint letters, the letters jointly being {1..n}; every
column must contain at least one nonempty entry.  Reading the entries
column by column, top to bottom, concatenates to a permutation prod(M).
``Genmat`` matrices are the normalized ones with prod(M) = 12..n; they
are equivalent to integer matrices of entry lengths with no zero
column.  Any structure factors uniquely as act(w, A) with A normalized
and w = prod(M).  A ``LinOrderMatrix`` stores just that pair: the word
prod(M) and the grid of entry lengths, which fixes A.  What the grid
alone fixes (where each entry sits in the word, where tau swaps, whether
a row is empty) is its layout, derived once per base structure; act, tau
and factor_action pass their argument's layout in to the structure they
build on the same grid, which then checks only its word length against
it.  The nested entries are built only when something renders them.

An atom is a word whose only left-to-right minimum is its first letter.
Splitting every entry at its left-to-right minima and remembering, for
each atom, its column (block) and its row (color) gives the atom-ballot
encoding; it is inverted by sorting the atoms of a block that share a
color by decreasing first letter.

The signed variant allows empty columns (at most n columns in total),
forces sign +1 on nonempty columns, and lets empty columns carry either
sign.  ``gamma`` flips the sign of the leftmost empty column and
``tau`` swaps the first two letters of the first entry of length >= 2
in prod order; both are involutions that reverse the respective signs
off their fixed-point sets.
"""

from __future__ import annotations

import itertools
from itertools import accumulate, chain, repeat
from operator import attrgetter, itemgetter
from typing import Iterator, Sequence

from .kernel import _Frozen, _setattr, compositions, weak_compositions
from .words import Word, enumerate_ballots, enumerate_linear_orders

__all__ = [
    "LinOrderMatrix",
    "SignedLOMatrix",
    "AtomBallot",
    "prod",
    "act",
    "factor_action",
    "split_atoms",
    "atoms",
    "atom_count",
    "xi_atoms",
    "tau",
    "from_length_grid",
    "to_atom_ballot",
    "from_atom_ballot",
    "enumerate_genmat",
    "enumerate_lomat",
    "enumerate_lomat_direct",
    "leftmost_empty_column",
    "gamma",
    "enumerate_signed",
]


class LinOrderMatrix:
    """Matrix of words stored as ``word`` = prod(M) and ``grid``, where
    ``grid[i][j]`` is the length of the entry in row i, column j.

    ``LinOrderMatrix(entries)``, with no grid, builds the structure from
    its nested entries instead; ``entries[i][j]`` is row i, column j.
    ``layout``, when given, is the layout of ``grid``: the grid was then
    checked already, and only the word length is checked against it.
    Without one, the grid must be rectangular with no negative length,
    its lengths adding up to the word's; that the word is a permutation
    of 1..n is not checked.

    Immutable: ``word`` and ``grid`` are read-only, and equality and
    hashing read only them.  The slots hold them and the layout (derived
    on first use when not given); ``entries`` is cut from the word on
    each read.
    """

    __slots__ = ("_word", "_grid", "_layout")

    word = property(attrgetter("_word"))
    grid = property(attrgetter("_grid"))

    def __init__(
        self,
        word: Word,
        grid: tuple[tuple[int, ...], ...] | None = None,
        layout: _Layout | None = None,
    ):
        self._word = word
        self._grid = grid
        self._layout = layout
        self.__post_init__()

    def __post_init__(self):
        layout = self._layout
        if layout is None:  # a grid with a layout was checked when the layout was derived
            if self._grid is None:  # the one argument was the nested entries
                entries = self._word
                self._grid = tuple([tuple(map(len, row)) for row in entries])
                self._word = tuple(chain.from_iterable(chain.from_iterable(zip(*entries))))
            grid = self._grid
            width, ragged, size = len(grid[0]) if grid else 0, False, 0
            for row in grid:  # one pass; a negative length wins over a ragged row
                if row and min(row) < 0:
                    raise ValueError("negative entry length")
                if len(row) != width:
                    ragged = True
                size += sum(row)
            if ragged:
                raise ValueError("ragged matrix")
        else:
            size = layout.size
        if size != len(self._word):
            raise ValueError(f"entry lengths do not add up to the {len(self._word)} letters")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._word == other._word and self._grid == other._grid

    def __hash__(self):
        return hash((self._word, self._grid))

    def __repr__(self):
        return f"LinOrderMatrix(word={self._word!r}, grid={self._grid!r})"

    @property
    def entries(self) -> tuple[tuple[Word, ...], ...]:
        cells, rows = _cells(self, self._word), self.rows
        return tuple(tuple(cells[i::rows]) for i in range(rows))

    @property
    def rows(self) -> int:
        return len(self._grid)

    @property
    def cols(self) -> int:
        return len(self._grid[0]) if self._grid else 0

    def column_empty(self, j: int) -> bool:
        return all(not row[j] for row in self._grid)

    def has_empty_row(self) -> bool:
        return not _layout(self).full_rows


class _Layout:
    """What a grid fixes for every word on it, derived once per grid and
    passed in to the structures that act, tau and factor_action build on
    it.

    ``size`` is the number of letters; ``cells`` lists the nonempty
    entries in prod order as (start, end, column, row) offsets into the
    word; ``long`` lists the (start, end) of the entries of length >= 2,
    in prod order, the only ones whose atoms need a scan; ``swap`` is
    the offset tau swaps at, the first long entry's start (None when
    every entry has length <= 1); ``full_rows`` says that no row is
    empty.
    """

    __slots__ = ("size", "cells", "long", "swap", "full_rows")

    def __init__(self, grid: tuple[tuple[int, ...], ...]):
        height, pos, cells, long = len(grid), 0, [], []
        for k, length in enumerate(chain.from_iterable(zip(*grid))):
            if length:
                cells.append((pos, pos + length, *divmod(k, height)))
                if length >= 2:
                    long.append((pos, pos + length))
                pos += length
        self.size = pos
        self.cells = cells
        self.long = long
        self.swap = long[0][0] if long else None
        self.full_rows = all(map(any, grid))


def _layout(m: LinOrderMatrix) -> _Layout:
    """m's layout, derived from its grid on first use; hot paths read
    ``m._layout or _layout(m)`` so that a derived one costs no call."""
    if m._layout is None:
        m._layout = _Layout(m._grid)
    return m._layout


def _cells(m: LinOrderMatrix, seq: Sequence) -> list[Sequence]:
    """The entries in prod order, cut from seq: m.word, or any sequence
    holding one item per letter of it; entry (i, j) is at index
    j * m.rows + i."""
    lengths = list(chain.from_iterable(zip(*m._grid)))
    return [seq[end - k : end] for k, end in zip(lengths, accumulate(lengths))]


def prod(m: LinOrderMatrix) -> Word:
    """Concatenation of all entries, column by column, top to bottom."""
    return m.word


def act(w: Word, m: LinOrderMatrix) -> LinOrderMatrix:
    """Replace every letter c by w(c).  Needs len(w) == len(prod(m))."""
    word = m._word
    if len(w) != len(word):
        raise ValueError(f"word of length {len(w)} cannot act on size {len(word)}")
    # w(c) is ((0,) + w)[c]: one itemgetter call reads them all, and returns a tuple for two or more
    image = itemgetter(*word)((0,) + w) if len(word) > 1 else tuple([w[c - 1] for c in word])
    return LinOrderMatrix(image, m._grid, m._layout or _layout(m))


def factor_action(m: LinOrderMatrix) -> tuple[Word, LinOrderMatrix]:
    """Unique (w, A) with A normalized and act(w, A) == m; w is prod(m)."""
    word = m._word
    return word, LinOrderMatrix(tuple(range(1, len(word) + 1)), m._grid, _layout(m))


# ---------------------------------------------------------------------------
# atoms


def split_atoms(word: Word) -> list[Word]:
    """Cut a word before each left-to-right minimum after the first letter."""
    out: list[Word] = []
    start = 0
    for i in range(1, len(word)):
        if word[i] < word[start]:
            out.append(word[start:i])
            start = i
    if word:
        out.append(word[start:])
    return out


def atoms(m: LinOrderMatrix) -> list[Word]:
    """All atoms of all entries, in prod order."""
    return [a for e in _cells(m, m._word) for a in split_atoms(e)]


def atom_count(m: LinOrderMatrix) -> int:
    """Number of left-to-right minima, counted within each entry: one
    per nonempty entry, plus each new minimum after the first letter of
    an entry of length >= 2."""
    layout, word = m._layout or _layout(m), m._word
    total = len(layout.cells)
    for start, end in layout.long:
        lo = word[start]
        for c in word[start + 1 : end]:
            if c < lo:
                total += 1
                lo = c
    return total


def xi_atoms(m: LinOrderMatrix) -> int:
    """Sign (-1)^(size - number of atoms)."""
    return -1 if (len(m._word) - atom_count(m)) % 2 else 1


def tau(m: LinOrderMatrix) -> LinOrderMatrix:
    """Swap the first two letters of the first entry of length >= 2.

    Entries are scanned in prod order; matrices whose entries all have
    length <= 1 are fixed.  Off the fixed set this flips xi_atoms.
    """
    layout = _layout(m)
    pos = layout.swap
    if pos is None:
        return m
    w = m._word
    return LinOrderMatrix(w[:pos] + (w[pos + 1], w[pos]) + w[pos + 2 :], m._grid, layout)


# ---------------------------------------------------------------------------
# length grids (the bridge to integer Burge matrices)


def from_length_grid(grid: Sequence[Sequence[int]]) -> LinOrderMatrix:
    """Normalized matrix with the given entry lengths.

    Letters 1..n are dealt out column by column, top to bottom, so the
    result satisfies prod(M) = 12..n.
    """
    grid = tuple(map(tuple, grid))
    return LinOrderMatrix(tuple(range(1, sum(map(sum, grid)) + 1)), grid)


# ---------------------------------------------------------------------------
# atom ballots


class AtomBallot(_Frozen):
    """Ballot of atoms (blocks = former columns) plus a row assignment.

    Exactly one of ``colors`` (atom -> row index, kept as sorted pairs)
    and ``rows`` (a second ballot collecting the atoms of each row) is
    present.
    """

    __slots__ = ("columns", "colors", "rows")

    def __init__(self, columns: tuple[frozenset[Word], ...], colors=None, rows=None):
        if (colors is None) == (rows is None):
            raise ValueError("exactly one of colors and rows must be given")
        _setattr(self, "columns", columns)
        _setattr(self, "colors", colors)
        _setattr(self, "rows", rows)

    def color_of(self) -> dict[Word, int]:
        if self.colors is None:
            raise ValueError("this atom ballot carries a row ballot, not colors")
        return dict(self.colors)


def to_atom_ballot(m: LinOrderMatrix, row_mode: str = "color") -> AtomBallot:
    """Encode a structure as a ballot of atoms.

    Block j collects the atoms of column j.  With row_mode="color" each
    atom remembers its row number (1-based); with row_mode="ballot" the
    rows themselves form a second ballot, which requires every row to be
    nonempty.
    """
    if row_mode not in ("color", "ballot"):
        raise ValueError(f"unknown row_mode {row_mode!r}")
    word = m._word
    columns: list[list[Word]] = [[] for _ in range(m.cols)]
    pairs: list[tuple[Word, int]] = []  # (atom, 1-based row) in prod order
    for start, end, j, i in (m._layout or _layout(m)).cells:
        column, lo, i = columns[j], word[start], i + 1
        for p in range(start + 1, end):  # cut before each new left-to-right minimum
            if word[p] < lo:
                lo, atom, start = word[p], word[start:p], p
                column.append(atom)
                pairs.append((atom, i))
        atom = word[start:end]
        column.append(atom)
        pairs.append((atom, i))
    blocks = tuple(map(frozenset, columns))
    if row_mode == "color":
        pairs.sort()
        return AtomBallot(blocks, colors=tuple(pairs))
    rows: list[list[Word]] = [[] for _ in range(m.rows)]
    for atom, i in pairs:
        rows[i - 1].append(atom)
    for i, row in enumerate(rows, start=1):
        if not row:
            raise ValueError(f"row {i} is empty; ballot row mode needs nonempty rows")
    return AtomBallot(blocks, rows=tuple(map(frozenset, rows)))


def from_atom_ballot(ballot: AtomBallot, m: int | None = None) -> LinOrderMatrix:
    """Rebuild the matrix: in each cell, concatenate the matching atoms
    sorted by decreasing first letter.

    That order is forced: an atom's letters all exceed its first letter,
    so decreasing first letters is the one arrangement whose
    left-to-right minima split the entry back into the same atoms.
    Raises ValueError unless each atom of the blocks has exactly one row.
    """
    if ballot.colors is not None:
        if m is None:
            raise ValueError("row count m is required with color assignments")
        row_of = dict(ballot.colors)
        colors = row_of.values()
        if colors and not 1 <= min(colors) <= max(colors) <= m:
            raise ValueError(f"a color exceeds the row count {m}")
        given = len(ballot.colors)
    else:
        m = len(ballot.rows)
        row_of = {a: i for i, row in enumerate(ballot.rows, start=1) for a in row}
        given = sum(map(len, ballot.rows))
    keyed: list[tuple[int, Word]] = []  # (-cell, atom); cell (i, j) is j*m + i in prod order
    for j, block in enumerate(ballot.columns):
        offset = 1 - j * m  # colors count rows from 1
        for a in block:
            try:
                keyed.append((offset - row_of[a], a))
            except KeyError:
                raise ValueError(f"atom {a} has no row") from None
    if not given == len(row_of) == len(keyed):
        raise ValueError("an atom has two rows, or a row holds an atom of no block")
    keyed.sort(reverse=True)  # cells in prod order, each by decreasing first letter
    lengths = [0] * (m * len(ballot.columns))
    for cell, a in keyed:
        lengths[-cell] += len(a)
    word = tuple(chain.from_iterable([a for _, a in keyed]))
    return LinOrderMatrix(word, tuple([tuple(lengths[i::m]) for i in range(m)]))


# ---------------------------------------------------------------------------
# enumeration


def enumerate_genmat(m: int, n: int, binary: bool = False) -> Iterator[LinOrderMatrix]:
    """Normalized structures with m rows and letters 1..n, every column
    nonempty; binary restricts entries to length <= 1.

    Deterministic order: number of columns follows the composition
    stream of column sums; within a column sum, fillings are produced in
    the weak-composition order.
    """
    if m < 0 or n < 0:
        raise ValueError("enumerate_genmat needs m, n >= 0")
    pools: dict[int, list[tuple[int, ...]]] = {}  # columns by column sum, built once per call
    for colsums in compositions(n):
        for c in set(colsums) - pools.keys():
            pools[c] = [col for col in weak_compositions((c,), m) if not binary or max(col, default=0) < 2]
        if not all(pools[c] for c in colsums):
            continue
        for columns in itertools.product(*(pools[c] for c in colsums)):
            yield from_length_grid(tuple(zip(*columns)) or ((),) * m)


def enumerate_lomat(m: int, n: int) -> Iterator[LinOrderMatrix]:
    """All m-row structures on {1..n}: permutations acting on normalized ones."""
    perms = list(enumerate_linear_orders(n))
    for base in enumerate_genmat(m, n):
        yield from map(act, perms, repeat(base))


def enumerate_lomat_direct(m: int, n: int) -> Iterator[LinOrderMatrix]:
    """Same set as enumerate_lomat, built without the permutation action.

    Columns are read off a ballot of {1..n}; each block is ordered in
    every possible way and cut into m consecutive (possibly empty)
    pieces, one per row, so prod(M) is the block orders concatenated and
    the grid's columns are the cuts.  Kept as an independent route for
    the verification harness.
    """
    cuts = [list(weak_compositions((size,), m)) for size in range(n + 1)]
    for ballot in enumerate_ballots(n):
        pools = [
            [
                (order, cut)
                for order in itertools.permutations(sorted(block))
                for cut in cuts[len(block)]
            ]
            for block in ballot
        ]
        for columns in itertools.product(*pools):
            orders, pieces = zip(*columns) if columns else ((), ())
            yield LinOrderMatrix(tuple(chain.from_iterable(orders)), tuple(zip(*pieces)) or ((),) * m)


# ---------------------------------------------------------------------------
# signed structures


class SignedLOMatrix(_Frozen):
    """Normalized matrix, possibly with empty columns, plus column signs.

    Nonempty columns must carry +1; empty columns may carry either sign.
    """

    __slots__ = ("matrix", "signs")

    def __init__(self, matrix: LinOrderMatrix, signs: tuple[int, ...]):
        _setattr(self, "matrix", matrix)
        _setattr(self, "signs", signs)

    @property
    def xi(self) -> int:
        return -1 if self.signs.count(-1) % 2 else 1


def leftmost_empty_column(m: LinOrderMatrix) -> int:
    """1-based index of the first empty column, or 0 if every column is
    nonempty."""
    return next((j + 1 for j in range(m.cols) if m.column_empty(j)), 0)


def gamma(sm: SignedLOMatrix) -> SignedLOMatrix:
    """Flip the sign of the leftmost empty column; fixed when none exists."""
    lam = leftmost_empty_column(sm.matrix)
    if lam == 0:
        return sm
    j = lam - 1
    signs = sm.signs[:j] + (-sm.signs[j],) + sm.signs[j + 1 :]
    return SignedLOMatrix(sm.matrix, signs)


def enumerate_signed(
    m: int, n: int, row_sums_spec=None
) -> Iterator[SignedLOMatrix]:
    """All signed structures with m rows, letters 1..n, and at most n
    columns (empty ones allowed).

    With ``row_sums_spec`` (an AscentSetSpec) only grids whose row-sum
    vector equals ``row_sums_spec.delta`` are produced; that requires m
    to be the number of parts of delta.  For each column count k one
    ``weak_compositions`` call walks the grids, read column by column in
    decreasing order: one row of m*k places summing to n, or m rows of k
    places summing to delta.  So the filtered stream is the unfiltered
    one with the other grids left out, and neither is held in memory.
    """
    if m < 0 or n < 0:
        raise ValueError("enumerate_signed needs m, n >= 0")
    want = None
    if row_sums_spec is not None:
        if row_sums_spec.n != n:
            raise ValueError(
                f"row-sum spec is for size {row_sums_spec.n}, structures have size {n}"
            )
        want = row_sums_spec.delta
        if len(want) != m:
            raise ValueError(
                f"delta has {len(want)} parts but the structures have {m} rows"
            )
    totals, per_column = ((n,), m) if want is None else (want, 1)
    for k in range(n + 1):
        for flat in weak_compositions(totals, per_column * k):
            grid = [flat[i::m] for i in range(m)]
            base = from_length_grid(grid)
            choices = [(1,) if any(column) else (1, -1) for column in zip(*grid)]
            for signs in itertools.product(*choices):
                yield SignedLOMatrix(base, signs)
