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
a row is empty) is derived once per base structure and shared by the
structures that act, tau and factor_action build on the same grid; the
nested entries are built only when something renders them.

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
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import Iterator, Sequence

from .kernel import compositions, weak_compositions
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
    "enumerate_mat_normalized",
    "leftmost_empty_column",
    "gamma",
    "enumerate_signed",
]


@dataclass(frozen=True)
class LinOrderMatrix:
    """Matrix of words stored as ``word`` = prod(M) and ``grid``, where
    ``grid[i][j]`` is the length of the entry in row i, column j.

    ``LinOrderMatrix(entries)``, with no grid, builds the structure from
    its nested entries instead; ``entries[i][j]`` is row i, column j.
    """

    word: Word
    grid: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        entries = None
        if self.grid is None:  # the one argument was the nested entries
            entries = self.word
            object.__setattr__(self, "grid", tuple([tuple(map(len, row)) for row in entries]))
        if len(set(map(len, self.grid))) > 1:
            raise ValueError("ragged matrix")
        if entries is not None:
            letters = chain.from_iterable(chain.from_iterable(zip(*entries)))  # prod order
            object.__setattr__(self, "word", tuple(letters))
            self.__dict__["entries"] = entries
        elif sum(map(sum, self.grid)) != len(self.word):
            raise ValueError(f"entry lengths do not add up to the {len(self.word)} letters")

    @cached_property
    def entries(self) -> tuple[tuple[Word, ...], ...]:
        cells, rows = _cells(self), self.rows
        return tuple(tuple(cells[i::rows]) for i in range(rows))

    @property
    def rows(self) -> int:
        return len(self.grid)

    @property
    def cols(self) -> int:
        return len(self.grid[0]) if self.grid else 0

    @cached_property
    def _layout(self) -> _Layout:
        return _Layout(self.grid)

    def column_empty(self, j: int) -> bool:
        return all(not row[j] for row in self.grid)

    def has_empty_row(self) -> bool:
        return not self._layout.full_rows

    def is_normalized(self) -> bool:
        return self.word == tuple(range(1, len(self.word) + 1))

    def validate(self, allow_empty_columns: bool = False) -> None:
        """Raise ValueError unless the lengths are >= 0 and the letters tile {1..n}."""
        _check_lengths(self.grid)
        if sorted(self.word) != list(range(1, len(self.word) + 1)):
            raise ValueError("the letters are not 1..n, each once")
        if not allow_empty_columns:
            for j in range(self.cols):
                if self.column_empty(j):
                    raise ValueError(f"column {j + 1} is empty")


class _Layout:
    """What a grid fixes for every word on it, derived once per grid and
    shared by the structures that act, tau and factor_action build on it.

    ``cells`` lists the nonempty entries in prod order as (start, end,
    column, row) offsets into the word; ``starts`` holds their starts;
    ``swap`` is the offset tau swaps at (None when every entry has
    length <= 1); ``full_rows`` says that no row is empty.
    """

    __slots__ = ("cells", "starts", "swap", "full_rows")

    def __init__(self, grid: tuple[tuple[int, ...], ...]):
        height, pos, cells, swap = len(grid), 0, [], None
        for k, length in enumerate(chain.from_iterable(zip(*grid))):
            if length:
                cells.append((pos, pos + length, *divmod(k, height)))
                if swap is None and length >= 2:
                    swap = pos
                pos += length
        self.cells = cells
        self.starts = frozenset(cell[0] for cell in cells)
        self.swap = swap
        self.full_rows = all(map(any, grid))


def _check_lengths(grid: tuple[tuple[int, ...], ...]) -> None:
    if any(length < 0 for row in grid for length in row):
        raise ValueError("negative entry length")


def _on_grid_of(m: LinOrderMatrix, word: Word) -> LinOrderMatrix:
    """The structure with m's grid and the given word; it shares m's layout."""
    out = LinOrderMatrix(word, m.grid)
    out.__dict__["_layout"] = m._layout
    return out


def _cells(m: LinOrderMatrix) -> list[Word]:
    """The entries in prod order, cut from m.word; entry (i, j) is at
    index j * m.rows + i."""
    lengths = list(chain.from_iterable(zip(*m.grid)))
    return [m.word[end - k : end] for k, end in zip(lengths, accumulate(lengths))]


def prod(m: LinOrderMatrix) -> Word:
    """Concatenation of all entries, column by column, top to bottom."""
    return m.word


def act(w: Word, m: LinOrderMatrix) -> LinOrderMatrix:
    """Replace every letter c by w(c).  Needs len(w) == len(prod(m))."""
    if len(w) != len(m.word):
        raise ValueError(f"word of length {len(w)} cannot act on size {len(m.word)}")
    return _on_grid_of(m, tuple([w[c - 1] for c in m.word]))


def factor_action(m: LinOrderMatrix) -> tuple[Word, LinOrderMatrix]:
    """Unique (w, A) with A normalized and act(w, A) == m; w is prod(m)."""
    return m.word, _on_grid_of(m, tuple(range(1, len(m.word) + 1)))


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
    return [a for e in _cells(m) for a in split_atoms(e)]


def atom_count(m: LinOrderMatrix) -> int:
    """Number of left-to-right minima, counted within each entry."""
    starts = m._layout.starts
    total = lo = 0
    for p, c in enumerate(m.word):
        if p in starts or c < lo:  # the first letter of an entry, or a new minimum
            total += 1
            lo = c
    return total


def xi_atoms(m: LinOrderMatrix) -> int:
    """Sign (-1)^(size - number of atoms)."""
    return -1 if (len(m.word) - atom_count(m)) % 2 else 1


def tau(m: LinOrderMatrix) -> LinOrderMatrix:
    """Swap the first two letters of the first entry of length >= 2.

    Entries are scanned in prod order; matrices whose entries all have
    length <= 1 are fixed.  Off the fixed set this flips xi_atoms.
    """
    pos = m._layout.swap
    if pos is None:
        return m
    w = m.word
    return _on_grid_of(m, w[:pos] + (w[pos + 1], w[pos]) + w[pos + 2 :])


# ---------------------------------------------------------------------------
# length grids (the bridge to integer Burge matrices)


def from_length_grid(grid: Sequence[Sequence[int]]) -> LinOrderMatrix:
    """Normalized matrix with the given entry lengths.

    Letters 1..n are dealt out column by column, top to bottom, so the
    result satisfies prod(M) = 12..n.
    """
    grid = tuple(map(tuple, grid))
    _check_lengths(grid)
    return LinOrderMatrix(tuple(range(1, sum(map(sum, grid)) + 1)), grid)


# ---------------------------------------------------------------------------
# atom ballots


@dataclass(frozen=True)
class AtomBallot:
    """Ballot of atoms (blocks = former columns) plus a row assignment.

    Exactly one of ``colors`` (atom -> row index, kept as sorted pairs)
    and ``rows`` (a second ballot collecting the atoms of each row) is
    present.
    """

    columns: tuple[frozenset[Word], ...]
    colors: tuple[tuple[Word, int], ...] | None = None
    rows: tuple[frozenset[Word], ...] | None = None

    def __post_init__(self):
        if (self.colors is None) == (self.rows is None):
            raise ValueError("exactly one of colors and rows must be given")

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
    word = m.word
    columns: list[list[Word]] = [[] for _ in range(m.cols)]
    rows: list[list[Word]] = [[] for _ in range(m.rows)]
    for start, end, j, i in m._layout.cells:
        cut = split_atoms(word[start:end])
        columns[j] += cut
        rows[i] += cut
    blocks = tuple(map(frozenset, columns))
    if row_mode == "color":
        pairs = sorted((a, i) for i, row in enumerate(rows, start=1) for a in row)
        return AtomBallot(blocks, colors=tuple(pairs))
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
        if any(not 1 <= c <= m for c in row_of.values()):
            raise ValueError(f"a color exceeds the row count {m}")
        given = len(ballot.colors)
    else:
        m = len(ballot.rows)
        row_of = {a: i for i, row in enumerate(ballot.rows, start=1) for a in row}
        given = sum(map(len, ballot.rows))
    columns = [[[] for _ in range(m)] for _ in ballot.columns]  # [j][i], prod order
    for column, block in zip(columns, ballot.columns):
        for a in block:
            if a not in row_of:
                raise ValueError(f"atom {a} has no row")
            column[row_of[a] - 1].append(a)
    if not given == len(row_of) == sum(map(len, ballot.columns)):
        raise ValueError("an atom has two rows, or a row holds an atom of no block")
    word: list[int] = []
    lengths = []
    for cell in chain.from_iterable(columns):
        start = len(word)
        if cell:
            cell.sort(reverse=True)
            for a in cell:
                word += a
        lengths.append(len(word) - start)
    return LinOrderMatrix(tuple(word), tuple(tuple(lengths[i::m]) for i in range(m)))


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
    cap = 1 if binary else None
    for colsums in compositions(n):
        k = len(colsums)
        pools = [list(weak_compositions(c, m, max_part=cap)) for c in colsums]
        if any(not p for p in pools):
            continue
        for columns in itertools.product(*pools):
            grid = [[columns[j][i] for j in range(k)] for i in range(m)]
            yield from_length_grid(grid)


def enumerate_lomat(m: int, n: int) -> Iterator[LinOrderMatrix]:
    """All m-row structures on {1..n}: permutations acting on normalized ones."""
    perms = list(enumerate_linear_orders(n))
    for base in enumerate_genmat(m, n):
        for w in perms:
            yield act(w, base)


def enumerate_lomat_direct(m: int, n: int) -> Iterator[LinOrderMatrix]:
    """Same set as enumerate_lomat, built without the permutation action.

    Columns are read off a ballot of {1..n}; each block is ordered in
    every possible way and cut into m consecutive (possibly empty)
    pieces, one per row, so prod(M) is the block orders concatenated and
    the grid's columns are the cuts.  Kept as an independent route for
    the verification harness.
    """
    for ballot in enumerate_ballots(n):
        pools = [
            [
                (order, cut)
                for order in itertools.permutations(sorted(block))
                for cut in weak_compositions(len(block), m)
            ]
            for block in ballot
        ]
        for columns in itertools.product(*pools):
            word = tuple(chain.from_iterable(order for order, _ in columns))
            grid = tuple(tuple(cut[i] for _, cut in columns) for i in range(m))
            yield LinOrderMatrix(word, grid)


def enumerate_mat_normalized(n: int, binary: bool = False) -> Iterator[LinOrderMatrix]:
    """Normalized structures with no empty row (and no empty column), any
    number of rows; their length grids are exactly the Burge matrices."""
    from .burge import enumerate_mat

    for grid in enumerate_mat(n, binary=binary):
        yield from_length_grid(grid)


# ---------------------------------------------------------------------------
# signed structures


@dataclass(frozen=True)
class SignedLOMatrix:
    """Normalized matrix, possibly with empty columns, plus column signs.

    Nonempty columns must carry +1; empty columns may carry either sign.
    """

    matrix: LinOrderMatrix
    signs: tuple[int, ...]

    @property
    def xi(self) -> int:
        return -1 if self.signs.count(-1) % 2 else 1

    def validate(self) -> None:
        m = self.matrix
        m.validate(allow_empty_columns=True)
        if not m.is_normalized():
            raise ValueError("signed structure must be normalized")
        if len(self.signs) != m.cols:
            raise ValueError("one sign per column is required")
        for j, s in enumerate(self.signs):
            if s not in (1, -1):
                raise ValueError(f"sign {s} is not +-1")
            if s == -1 and not m.column_empty(j):
                raise ValueError(f"nonempty column {j + 1} carries sign -1")


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
    to be the number of parts of delta.  They are built directly, row i
    from the weak compositions of delta_i into k parts, and put in the
    order the unfiltered stream would give them.
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
    for k in range(n + 1):
        if want is None:
            grids = ([flat[i::m] for i in range(m)] for flat in weak_compositions(n, m * k))
        else:  # column-major flat tuples descending, the order of weak_compositions
            grids = sorted(
                itertools.product(*(weak_compositions(d, k) for d in want)),
                key=lambda grid: tuple(chain.from_iterable(zip(*grid))),
                reverse=True,
            )
        for grid in grids:
            base = from_length_grid(grid)
            choices = [(1,) if any(column) else (1, -1) for column in zip(*grid)]
            for signs in itertools.product(*choices):
                yield SignedLOMatrix(base, signs)
