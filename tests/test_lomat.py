"""Matrices of linear orders: action, atoms, ballots, signed structures."""

import itertools
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from cayburge.burge import enumerate_mat
from cayburge.lomat import (
    AtomBallot,
    LinOrderMatrix,
    SignedLOMatrix,
    act,
    atom_count,
    atoms,
    enumerate_genmat,
    enumerate_lomat,
    enumerate_lomat_direct,
    enumerate_signed,
    factor_action,
    from_atom_ballot,
    from_length_grid,
    gamma,
    leftmost_empty_column,
    prod,
    split_atoms,
    tau,
    to_atom_ballot,
    xi_atoms,
)
from cayburge.kernel import weak_compositions
from cayburge.words import AscentSetSpec, enumerate_ballots

# 4x3 worked example: w = 784652391 acting on the normalized A
W = (7, 8, 4, 6, 5, 2, 3, 9, 1)
W_INV = (9, 6, 7, 3, 5, 4, 1, 2, 8)
M = LinOrderMatrix(
    (
        ((), (5,), (2, 3)),
        ((7, 8, 4), (), ()),
        ((), (), ()),
        ((6,), (), (9, 1)),
    )
)
A = LinOrderMatrix(
    (
        ((), (5,), (6, 7)),
        ((1, 2, 3), (), ()),
        ((), (), ()),
        ((4,), (), (8, 9)),
    )
)


def test_prod_of_worked_example():
    assert prod(M) == W
    assert prod(A) == (1, 2, 3, 4, 5, 6, 7, 8, 9)
    assert prod(LinOrderMatrix(())) == ()


def test_act_and_factor_action():
    assert act(W, A) == M
    assert act(tuple(range(1, 10)), A) == A
    w, base = factor_action(M)
    assert w == W and base == A
    assert act(W_INV, M) == A
    with pytest.raises(ValueError):
        act((1, 2), A)


def test_act_roundtrip_exhaustive():
    perms = list(itertools.permutations((1, 2, 3)))
    for base in enumerate_genmat(2, 3):
        for w in perms:
            m = act(w, base)
            assert prod(m) == w
            got_w, got_base = factor_action(m)
            assert got_w == w and got_base == base


def test_split_atoms():
    assert split_atoms((7, 8, 4)) == [(7, 8), (4,)]
    assert split_atoms((2, 3)) == [(2, 3)]
    assert split_atoms(()) == []
    assert split_atoms((3, 1, 2)) == [(3,), (1, 2)]


def test_atoms_of_worked_example():
    assert atoms(M) == [(7, 8), (4,), (6,), (5,), (2, 3), (9,), (1,)]
    assert atom_count(M) == 7
    assert xi_atoms(M) == 1  # (-1)^(9-7)


@pytest.mark.parametrize("binary", [False, True], ids=["general", "binary"])
def test_atom_count_matches_split_atoms_over_the_burge_grids(binary):
    """Every structure on every Burge grid of size <= 4; the binary grids
    have no entry of length >= 2, so their count needs no scan."""
    for n in range(5):
        perms = list(itertools.permutations(range(1, n + 1)))
        for grid in enumerate_mat(n, binary=binary):
            base = from_length_grid(grid)
            for w in perms:
                mat = act(w, base)
                cut = sum(len(split_atoms(e)) for row in mat.entries for e in row)
                assert atom_count(mat) == cut
                assert xi_atoms(mat) == (-1) ** (n - cut)
                if binary:
                    assert cut == n and xi_atoms(mat) == 1


def test_atom_ballot_color_mode():
    ballot = to_atom_ballot(M)
    assert ballot.columns == (
        frozenset({(7, 8), (4,), (6,)}),
        frozenset({(5,)}),
        frozenset({(2, 3), (9,), (1,)}),
    )
    assert ballot.color_of() == {
        (7, 8): 2,
        (4,): 2,
        (6,): 4,
        (5,): 1,
        (2, 3): 1,
        (9,): 4,
        (1,): 4,
    }
    assert from_atom_ballot(ballot, 4) == M


def test_atom_ballot_errors():
    with pytest.raises(ValueError, match="^row 3 is empty; ballot row mode needs nonempty rows$"):
        to_atom_ballot(M, row_mode="ballot")
    with pytest.raises(ValueError, match="^unknown row_mode 'rows'$"):
        to_atom_ballot(M, row_mode="rows")
    with pytest.raises(ValueError, match="^row count m is required with color assignments$"):
        from_atom_ballot(to_atom_ballot(M))
    with pytest.raises(ValueError, match="^a color exceeds the row count 3$"):
        from_atom_ballot(to_atom_ballot(M), 3)  # color 4
    with pytest.raises(ValueError):
        AtomBallot((frozenset({(1,)}),))
    with pytest.raises(ValueError):
        AtomBallot(
            (frozenset({(1,)}),),
            colors=(((1,), 1),),
            rows=(frozenset({(1,)}),),
        )


NO_ROW = r"^atom \(2,\) has no row$"
TWO_ROWS = "^an atom has two rows, or a row holds an atom of no block$"


@pytest.mark.parametrize(
    "ballot, m, message",
    [
        # colors mode, atom (2,) has no color
        (AtomBallot((frozenset({(1,)}), frozenset({(2,)})), colors=(((1,), 1),)), 1, NO_ROW),
        # colors mode, atom (1,) has two colors
        (AtomBallot((frozenset({(1,)}),), colors=(((1,), 1), ((1,), 2))), 2, TWO_ROWS),
        # rows mode, atom (2,) lies in no row
        (AtomBallot((frozenset({(1,), (2,)}),), rows=(frozenset({(1,)}),)), None, NO_ROW),
        # rows mode, atom (2,) lies in two rows
        (
            AtomBallot(
                (frozenset({(1,)}), frozenset({(2,)})),
                rows=(frozenset({(2,)}), frozenset({(1,), (2,)})),
            ),
            None,
            TWO_ROWS,
        ),
        # rows mode, atom (2,) lies in a row but in no block
        (
            AtomBallot((frozenset({(1,)}),), rows=(frozenset({(1,)}), frozenset({(2,)}))),
            None,
            TWO_ROWS,
        ),
    ],
    ids=["ballot0-1", "ballot1-2", "ballot2-None", "ballot3-None", "ballot4-None"],
)
def test_from_atom_ballot_rejects_malformed_ballots(ballot, m, message):
    with pytest.raises(ValueError, match=message):
        from_atom_ballot(ballot, m)


def _model_atom_ballot(mat, row_mode):
    """The atom ballot read off the nested entries with split_atoms."""
    cut = [
        (a, i, j)
        for i, row in enumerate(mat.entries, start=1)
        for j, entry in enumerate(row)
        for a in split_atoms(entry)
    ]
    columns = tuple(frozenset(a for a, _, col in cut if col == j) for j in range(mat.cols))
    if row_mode == "color":
        return AtomBallot(columns, colors=tuple(sorted((a, i) for a, i, _ in cut)))
    rows = tuple(frozenset(a for a, row, _ in cut if row == i) for i in range(1, mat.rows + 1))
    return AtomBallot(columns, rows=rows)


def test_atom_ballot_matches_a_model_cut_from_the_entries():
    for m_rows in range(3):
        for n in range(5):
            for mat in enumerate_lomat(m_rows, n):
                assert to_atom_ballot(mat) == _model_atom_ballot(mat, "color")
                empty = [i for i, row in enumerate(mat.entries, start=1) if not any(row)]
                if empty:
                    with pytest.raises(ValueError, match=f"^row {empty[0]} is empty; "):
                        to_atom_ballot(mat, row_mode="ballot")
                else:
                    assert to_atom_ballot(mat, row_mode="ballot") == _model_atom_ballot(mat, "ballot")


def test_atom_ballot_roundtrip_exhaustive():
    for m_rows in range(1, 4):
        for n in range(5):
            for mat in enumerate_lomat(m_rows, n):
                assert from_atom_ballot(to_atom_ballot(mat), m_rows) == mat


def test_atom_ballot_ballot_mode_roundtrip():
    for n in range(5):
        for mat in map(from_length_grid, enumerate_mat(n)):
            b = to_atom_ballot(mat, row_mode="ballot")
            assert from_atom_ballot(b) == mat
            with pytest.raises(ValueError):
                b.color_of()


def test_tau_on_worked_example():
    t = tau(M)
    assert t.entries[1][0] == (8, 7, 4)
    assert t.entries[0] == M.entries[0] and t.entries[2:] == M.entries[2:]
    assert atoms(t)[:3] == [(8,), (7,), (4,)]
    assert xi_atoms(t) == -xi_atoms(M)
    assert tau(t) == M


def test_tau_fixed_points_are_singleton_matrices():
    for m_rows in range(1, 3):
        for n in range(5):
            for mat in enumerate_lomat(m_rows, n):
                fixed = tau(mat) == mat
                all_short = all(
                    len(e) <= 1 for row in mat.entries for e in row
                )
                assert fixed == all_short
                if not fixed:
                    assert xi_atoms(tau(mat)) == -xi_atoms(mat)


def test_length_grid_roundtrip():
    grid = ((0, 1, 2), (3, 0, 0), (0, 0, 0), (1, 0, 2))
    assert A.grid == grid
    assert from_length_grid(grid) == A
    for n in range(5):
        for mat in enumerate_genmat(2, n):
            assert from_length_grid(mat.grid) == mat


def test_structures_are_immutable():
    mat = act(W, A)
    for name, value in (("word", W), ("grid", A.grid), ("entries", M.entries), ("size", 9)):
        with pytest.raises(AttributeError):
            setattr(mat, name, value)
    assert mat.word == W and mat.grid == A.grid


def test_equality_and_hash_read_only_word_and_grid():
    base = from_length_grid(A.grid)
    image, nested = act(W, base), LinOrderMatrix(M.entries)
    assert image._layout is not None and nested._layout is None
    assert image == nested and hash(image) == hash(nested)
    assert LinOrderMatrix(image.entries) == image
    assert hash(LinOrderMatrix(image.entries)) == hash(image)
    assert image != act(W_INV, base) and image != LinOrderMatrix(W, A.grid[::-1])
    assert image != (W, A.grid)
    assert repr(image) == f"LinOrderMatrix(word={W}, grid={A.grid})"


def test_images_share_their_parents_layout():
    base = from_length_grid(A.grid)
    image = act(W, base)
    assert image._layout is base._layout is not None
    assert tau(image)._layout is base._layout
    assert factor_action(image)[1]._layout is base._layout


def test_post_init_runs_once_per_structure(monkeypatch):
    bases = list(enumerate_genmat(2, 3))
    built = []
    original = LinOrderMatrix.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(LinOrderMatrix, "__post_init__", counting)
    images = list(enumerate_lomat(2, 3))
    assert len(built) == len(bases) + len(images)
    assert len(set(map(id, built))) == len(built)
    assert {id(x) for x in images} <= {id(x) for x in built}


def test_constructor_checks_the_grid():
    with pytest.raises(ValueError, match="^ragged matrix$"):
        LinOrderMatrix((1, 2, 3), ((1, 1), (1,)))
    with pytest.raises(ValueError, match="^ragged matrix$"):
        LinOrderMatrix((((1,), (2,)), ((3,),)))
    with pytest.raises(ValueError, match="^entry lengths do not add up to the 2 letters$"):
        LinOrderMatrix((1, 2), ((1, 2),))
    base = from_length_grid(((1, 1),))
    with pytest.raises(ValueError, match="^word of length 3 cannot act on size 2$"):
        act((1, 2, 3), base)
    with pytest.raises(ValueError, match="^entry lengths do not add up to the 3 letters$"):
        LinOrderMatrix((1, 2, 3), base.grid, act((2, 1), base)._layout)
    with pytest.raises(ValueError, match="^negative entry length$"):
        from_length_grid(((2, -1),))
    with pytest.raises(ValueError, match="^negative entry length$"):
        LinOrderMatrix((1,), ((2, -1),))


def test_grid_check_reports_a_negative_length_before_a_ragged_row():
    for grid in (((1, -1), (3,)), ((3,), (1, -1)), ((-1,), (1, 2, 1))):
        with pytest.raises(ValueError, match="^negative entry length$"):
            LinOrderMatrix((1, 2, 3), grid)
    with pytest.raises(ValueError, match="^ragged matrix$"):
        LinOrderMatrix((1, 2, 3), ((1, 1), (1,), ()))


@pytest.mark.parametrize("grid", [(), ((),), ((0, 0),), ((0,), (0,))])
def test_grid_check_takes_grids_with_no_letters(grid):
    mat = LinOrderMatrix((), grid)
    assert mat.grid == grid and mat.rows == len(grid) and prod(mat) == ()
    assert atom_count(mat) == 0 and xi_atoms(mat) == 1 and tau(mat) is mat and act((), mat) == mat
    with pytest.raises(ValueError, match="^entry lengths do not add up to the 1 letters$"):
        LinOrderMatrix((1,), grid)


def test_enumerate_genmat_2_2():
    got = list(enumerate_genmat(2, 2))
    assert len(got) == 7
    assert len(set(got)) == 7
    for mat in got:
        assert mat.word == (1, 2) and mat.rows == 2
        assert leftmost_empty_column(mat) == 0
    assert sum(1 for _ in enumerate_genmat(2, 2, binary=True)) == 5
    assert got == list(enumerate_genmat(2, 2))  # deterministic


def test_binary_genmat_is_the_general_stream_with_entries_at_most_one():
    for m_rows in range(5):
        for n in range(7):
            binary = list(enumerate_genmat(m_rows, n, binary=True))
            general = [x for x in enumerate_genmat(m_rows, n) if max(itertools.chain(*x.grid), default=0) <= 1]
            assert [(x.word, x.grid) for x in binary] == [(x.word, x.grid) for x in general]


def test_enumerate_genmat_degenerate():
    assert list(enumerate_genmat(0, 0)) == [LinOrderMatrix(())]
    assert list(enumerate_genmat(0, 1)) == []
    assert list(enumerate_genmat(3, 0)) == [LinOrderMatrix(((), (), ()))]
    assert sum(1 for _ in enumerate_genmat(1, 3)) == 4  # compositions of 3


def test_enumerate_lomat_counts_and_direct_route():
    assert sum(1 for _ in enumerate_lomat(2, 2)) == 14
    for m_rows in range(1, 3):
        for n in range(4):
            via_action = set(enumerate_lomat(m_rows, n))
            direct = list(enumerate_lomat_direct(m_rows, n))
            assert len(direct) == len(set(direct))
            assert via_action == set(direct)


def _direct_by_nested_entries(m_rows, n):
    """enumerate_lomat_direct written out with nested entries: every block
    of every ballot, in every order, cut into m_rows pieces top to bottom."""
    for ballot in enumerate_ballots(n):
        pools = []
        for block in ballot:
            fillings = []
            for order in itertools.permutations(sorted(block)):
                for cut in weak_compositions((len(block),), m_rows):
                    ends = list(itertools.accumulate(cut, initial=0))
                    fillings.append(tuple(order[a:b] for a, b in zip(ends, ends[1:])))
            pools.append(fillings)
        for columns in itertools.product(*pools):
            yield LinOrderMatrix(tuple(tuple(col[i] for col in columns) for i in range(m_rows)))


def test_enumerate_lomat_direct_order_is_pinned():
    for m_rows in range(4):
        for n in range(5):
            got = list(enumerate_lomat_direct(m_rows, n))
            want = list(_direct_by_nested_entries(m_rows, n))
            assert [(x.word, x.grid) for x in got] == [(x.word, x.grid) for x in want]
            assert [x.entries for x in got] == [x.entries for x in want]
    for m_rows, n in ((1, 5), (2, 5)):  # the bounds verify runs by default
        got = enumerate_lomat_direct(m_rows, n)
        want = _direct_by_nested_entries(m_rows, n)
        assert [(x.word, x.grid) for x in got] == [(x.word, x.grid) for x in want]


def test_signed_g_1_2_is_six_structures():
    # the full family by the column rule k <= n; the involution needs
    # all six for the signed sum to localize onto the two all-plus
    # no-empty-column structures
    got = list(enumerate_signed(1, 2))
    assert len(got) == 6
    by_key = {(s.matrix.grid, s.signs) for s in got}
    assert by_key == {
        (((2,),), (1,)),
        (((2, 0),), (1, 1)),
        (((2, 0),), (1, -1)),
        (((1, 1),), (1, 1)),
        (((0, 2),), (1, 1)),
        (((0, 2),), (-1, 1)),
    }
    assert sum(s.xi for s in got) == 2  # = |Genmat_1[2]|


def test_signed_validation_and_gamma():
    for s in enumerate_signed(2, 3):
        assert s.matrix.word == (1, 2, 3) and len(s.signs) == s.matrix.cols
        assert all(sign == 1 or sign == -1 and s.matrix.column_empty(j) for j, sign in enumerate(s.signs))
        g = gamma(s)
        assert gamma(g) == s
        if leftmost_empty_column(s.matrix) == 0:
            assert g == s
        else:
            assert g.xi == -s.xi and g.matrix == s.matrix


def test_signed_structures_are_immutable_values():
    base, other = from_length_grid(((1, 0),)), from_length_grid(((0, 1),))
    sm = SignedLOMatrix(base, (1, -1))
    for name, value in (("matrix", other), ("signs", (1, 1))):
        with pytest.raises(AttributeError):
            setattr(sm, name, value)
    assert sm.matrix is base and sm.signs == (1, -1)
    twin = SignedLOMatrix(from_length_grid(((1, 0),)), (1, -1))
    assert sm == twin and hash(sm) == hash(twin) == hash((base, (1, -1)))
    assert sm != SignedLOMatrix(base, (1, 1)) and sm != SignedLOMatrix(other, (1, -1))
    assert sm != (base, (1, -1))
    assert repr(sm) == f"SignedLOMatrix(matrix={base!r}, signs=(1, -1))"
    family = list(enumerate_signed(2, 3))  # gamma(gamma(x)) == x: test_signed_validation_and_gamma
    assert len(set(family)) == len(family)


def test_leftmost_empty_column():
    assert leftmost_empty_column(A) == 0  # every column of A is hit
    with_gap = from_length_grid(((1, 0), (0, 0)))
    assert leftmost_empty_column(with_gap) == 2
    assert leftmost_empty_column(from_length_grid(((0, 1), (0, 1)))) == 1
    assert leftmost_empty_column(LinOrderMatrix(())) == 0


def test_signed_row_sums_equals_the_filtered_full_enumeration():
    for n in range(1, 6):
        for m in range(1, n + 1):
            filtered = {}  # the full stream split by row sums, in stream order
            for sm in enumerate_signed(m, n):
                filtered.setdefault(tuple(map(sum, sm.matrix.grid)), []).append(sm)
            for S in itertools.combinations(range(1, n), m - 1):
                spec = AscentSetSpec(n, S)
                got = list(enumerate_signed(m, n, row_sums_spec=spec))
                assert got == filtered[spec.delta], (n, S)


def test_the_signed_row_sum_stream_runs_in_bounded_memory():
    """The whole row-sum stream holds one grid at a time.  Listing and
    sorting each column count's grids before the first yield would peak
    near 0.75 MB on this stream."""
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_signed(2, 6, row_sums_spec=AscentSetSpec(6, (3,))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 24_192
    assert peak < 256 * 1024


def test_signed_row_filter():
    spec = AscentSetSpec(2, (1,))
    got = list(enumerate_signed(2, 2, row_sums_spec=spec))
    assert all(
        tuple(map(sum, s.matrix.grid)) == (1, 1) for s in got
    )
    assert sum(s.xi for s in got) == 3  # matrices with row sums (1,1)
    with pytest.raises(ValueError):
        list(enumerate_signed(2, 3, row_sums_spec=spec))
    with pytest.raises(ValueError):
        list(enumerate_signed(3, 2, row_sums_spec=spec))


# ---------------------------------------------------------------------------
# differential test against a nested-entries model


def _deal(grid, w):
    """Nested entries: w dealt out column by column, top to bottom."""
    cells = [[()] * (len(grid[0]) if grid else 0) for _ in grid]
    pos = 0
    for j in range(len(cells[0]) if cells else 0):
        for i, row in enumerate(grid):
            cells[i][j] = tuple(w[pos : pos + row[j]])
            pos += row[j]
    return tuple(map(tuple, cells))


def _in_prod_order(entries):
    return [row[j] for j in range(len(entries[0]) if entries else 0) for row in entries]


def _model_atoms(entries):
    out = []
    for e in _in_prod_order(entries):
        start = len(out)
        for c in e:
            if len(out) == start or c < out[-1][0]:
                out.append((c,))
            else:
                out[-1] += (c,)
    return out


def _model_tau(entries):
    for j in range(len(entries[0]) if entries else 0):
        for i, row in enumerate(entries):
            e = row[j]
            if len(e) >= 2:
                new_row = row[:j] + ((e[1], e[0]) + e[2:],) + row[j + 1 :]
                return entries[:i] + (new_row,) + entries[i + 1 :]
    return entries


@st.composite
def grid_and_word(draw):
    """A length grid with at most 3 rows and 6 letters, and a permutation."""
    m = draw(st.integers(0, 3))
    k = draw(st.integers(0, 4)) if m else 0
    n = draw(st.integers(0, 6)) if m and k else 0
    inner = max(m * k - 1, 0)  # cut 0..n into m * k consecutive pieces
    cuts = draw(st.lists(st.integers(0, n), min_size=inner, max_size=inner))
    bounds = [0, *sorted(cuts), n]
    flat = [b - a for a, b in zip(bounds, bounds[1:])]  # column-major cell lengths
    grid = tuple(tuple(flat[j * m + i] for j in range(k)) for i in range(m))
    return grid, tuple(draw(st.permutations(range(1, n + 1))))


@given(grid_and_word())
def test_word_and_grid_agree_with_nested_entries(drawn):
    grid, w = drawn
    n = len(w)
    identity = tuple(range(1, n + 1))
    base = from_length_grid(grid)
    mat = act(w, base)
    nested = _deal(grid, w)
    assert base.entries == _deal(grid, identity)
    assert mat.entries == nested
    assert tuple(c for e in _in_prod_order(nested) for c in e) == prod(mat) == w
    assert mat.grid == tuple(tuple(map(len, row)) for row in nested) == grid
    assert factor_action(mat) == (w, base)
    assert LinOrderMatrix(nested) == mat and hash(LinOrderMatrix(nested)) == hash(mat)
    assert LinOrderMatrix(mat.entries) == mat
    assert tau(mat).entries == _model_tau(nested)
    assert tau(mat) == LinOrderMatrix(_model_tau(nested))
    model_atoms = _model_atoms(nested)
    assert atoms(mat) == model_atoms and atom_count(mat) == len(model_atoms)
    assert xi_atoms(mat) == (-1) ** (n - len(model_atoms))
    acted = tuple(tuple(tuple(w[c - 1] for c in e) for e in row) for row in base.entries)
    assert acted == nested


@st.composite
def chain_of_images(draw):
    """A base structure and a few steps: a word to act by, "tau" or "factor"."""
    grid, w = draw(grid_and_word())
    steps = st.one_of(st.just("tau"), st.just("factor"), st.permutations(range(1, len(w) + 1)))
    return grid, w, draw(st.lists(steps, max_size=6))


@given(chain_of_images())
def test_shared_grid_facts_agree_with_nested_entries_along_chains(drawn):
    """Structures built by act, tau and factor_action from one base share
    what their grid fixes; every one of them still reads tau, its atoms,
    its empty rows and its atom-ballot round trip off its own word."""
    grid, w, steps = drawn
    n, m_rows = len(w), len(grid)
    mat, nested = act(w, from_length_grid(grid)), _deal(grid, w)
    for step in (None, *steps):
        if step == "tau":
            mat, nested = tau(mat), _model_tau(nested)
        elif step == "factor":
            mat, nested = factor_action(mat)[1], _deal(grid, tuple(range(1, n + 1)))
        elif step is not None:
            mat = act(tuple(step), mat)
            nested = tuple(tuple(tuple(step[c - 1] for c in e) for e in row) for row in nested)
        assert mat == LinOrderMatrix(nested) and mat.entries == nested
        assert tau(mat) == LinOrderMatrix(_model_tau(nested))
        model_atoms = _model_atoms(nested)
        assert atom_count(mat) == len(model_atoms)
        assert xi_atoms(mat) == (-1) ** (n - len(model_atoms))
        empty_row = any(not any(row) for row in nested)
        assert mat.has_empty_row() == tau(mat).has_empty_row() == empty_row
        assert from_atom_ballot(to_atom_ballot(mat), m_rows) == mat
        if empty_row:
            with pytest.raises(ValueError):
                to_atom_ballot(mat, row_mode="ballot")
        else:
            assert from_atom_ballot(to_atom_ballot(mat, row_mode="ballot")) == mat


def test_atom_ballot_round_trip_without_rows_or_letters():
    for grid in ((), ((),), ((), ()), ((0, 0),), ((0,), (0,))):
        mat = from_length_grid(grid)
        assert from_atom_ballot(to_atom_ballot(mat), len(grid)) == mat
        if grid == ():
            assert from_atom_ballot(to_atom_ballot(mat, row_mode="ballot")) == mat
        else:
            with pytest.raises(ValueError):
                to_atom_ballot(mat, row_mode="ballot")
