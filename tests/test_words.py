"""Cayley permutations, ballots, descent statistics, ascent-set counts."""

import inspect
import itertools
import math

import pytest
from hypothesis import given, strategies as st

from cayburge import words as words_module
from cayburge.kernel import IntPoly
from cayburge.words import (
    AscentSetSpec,
    alpha_count,
    ascent_set,
    ballot_to_cayley,
    beta_perm_determinant,
    caylerian_brute,
    cayley_to_ballot,
    descent_mask,
    enumerate_ballots,
    enumerate_cayley,
    enumerate_linear_orders,
    is_cayley_word,
)

FUBINI = [1, 1, 3, 13, 75, 541, 4683, 47293, 545835]

CAY3 = [
    (1, 1, 1),
    (1, 1, 2),
    (1, 2, 1),
    (1, 2, 2),
    (1, 2, 3),
    (1, 3, 2),
    (2, 1, 1),
    (2, 1, 2),
    (2, 1, 3),
    (2, 2, 1),
    (2, 3, 1),
    (3, 1, 2),
    (3, 2, 1),
]


def random_cayley(n):
    """Cayley words of length n via rank-compression of arbitrary words."""

    def compress(raw):
        ranks = {v: i + 1 for i, v in enumerate(sorted(set(raw)))}
        return tuple(ranks[v] for v in raw)

    return st.lists(st.integers(1, n), min_size=n, max_size=n).map(compress)


def test_enumerate_cayley_small_exact():
    assert list(enumerate_cayley(0)) == [()]
    assert list(enumerate_cayley(1)) == [(1,)]
    assert list(enumerate_cayley(2)) == [(1, 1), (1, 2), (2, 1)]
    assert list(enumerate_cayley(3)) == CAY3


def test_enumerate_cayley_counts_and_order():
    for n in range(9):
        got = list(enumerate_cayley(n))
        assert len(got) == FUBINI[n]
        assert got == sorted(got)
        assert len(set(got)) == len(got)
        assert all(is_cayley_word(w) for w in got)


def test_enumerate_cayley_matches_filter():
    for n in range(7):
        brute = [
            w
            for w in itertools.product(range(1, n + 1), repeat=n)
            if is_cayley_word(w)
        ]
        if n == 0:
            brute = [()]
        assert list(enumerate_cayley(n)) == sorted(brute)


def test_enumerate_cayley_rejects_negative_n_on_its_first_step():
    words = enumerate_cayley(-1)
    assert inspect.isgenerator(words)
    with pytest.raises(ValueError):
        next(words)


def test_enumerate_cayley_streams_at_any_size():
    # the walk holds an explicit stack, so a size past the recursion limit streams
    assert list(itertools.islice(enumerate_cayley(3000), 2)) == [(1,) * 3000, (1,) * 2999 + (2,)]
    assert next(enumerate_ballots(3000)) == (frozenset(range(1, 3001)),)


@pytest.mark.parametrize("strict", [False, True])
def test_enumerate_cayley_under_a_descent_mask_is_the_filtered_walk(strict):
    # the reference is the filter enumerate_burge once ran over every Cayley word
    for n in range(7):
        every = list(enumerate_cayley(n))
        for descents in range(2**n):  # bit n - 1 asks for a descent at position n, which no word has
            expected = [w for w in every if descents & ~descent_mask(w, strict) == 0]
            assert list(enumerate_cayley(n, descents, strict)) == expected


def test_a_run_of_forced_places_leads_the_walk_to_no_dead_end(monkeypatch):
    """No letter rises inside a forced run, so the room test asks the values
    above the letter before it to fit after the run, and a strict run to fit
    below it.  With every place forced at n = 16 the walk then steps fewer
    prefixes than it yields words; without that test it stepped 2.5 million
    (65,535 when strict)."""
    steps = []
    real = words_module._extensions
    monkeypatch.setattr(words_module, "_extensions", lambda *state: steps.append(state) or real(*state))
    every_place = 2**15 - 1
    assert sum(1 for _ in enumerate_cayley(16, every_place)) == 2**15  # one per composition of 16
    assert len(steps) < 2**15
    steps.clear()
    assert list(enumerate_cayley(16, every_place, strict=True)) == [tuple(range(16, 0, -1))]
    assert len(steps) == 16


def test_is_cayley_word():
    assert is_cayley_word(())
    assert is_cayley_word((1, 1, 2))
    assert not is_cayley_word((2, 2))
    assert not is_cayley_word((1, 3))
    assert not is_cayley_word((0, 1))


def test_enumerate_linear_orders():
    assert sorted(enumerate_linear_orders(3)) == sorted(
        itertools.permutations((1, 2, 3))
    )


def test_ballot_conversion_example():
    w = (3, 1, 1, 4, 1, 2, 3)
    ballot = (
        frozenset({2, 3, 5}),
        frozenset({6}),
        frozenset({1, 7}),
        frozenset({4}),
    )
    assert cayley_to_ballot(w) == ballot
    assert ballot_to_cayley(ballot) == w


def test_ballot_roundtrip_exhaustive():
    for n in range(6):
        for w in enumerate_cayley(n):
            assert ballot_to_cayley(cayley_to_ballot(w)) == w


def test_ballot_errors():
    with pytest.raises(ValueError):
        cayley_to_ballot((1, 3))
    with pytest.raises(ValueError):
        ballot_to_cayley((frozenset(), frozenset({1})))
    with pytest.raises(ValueError):
        ballot_to_cayley((frozenset({1}), frozenset({1})))


def test_enumerate_ballots():
    got = list(enumerate_ballots(2))
    assert got == [
        (frozenset({1, 2}),),
        (frozenset({1}), frozenset({2})),
        (frozenset({2}), frozenset({1})),
    ]
    for n in range(6):
        assert sum(1 for _ in enumerate_ballots(n)) == FUBINI[n]


def test_cayley_to_ballot_refuses_a_letter_below_one():
    for w in [(0,), (-1,), (1, 0), (0, 1, 2), (2, 1, -1)]:
        with pytest.raises(ValueError, match="not a Cayley permutation"):
            cayley_to_ballot(w)


def test_cayley_to_ballot_refuses_an_empty_block():
    for w in [(2,), (1, 3), (3, 1, 3), (1, 1, 4, 2)]:
        with pytest.raises(ValueError, match="empty block"):
            cayley_to_ballot(w)


def test_enumerate_ballots_matches_the_converted_cayley_words():
    for n in range(7):
        assert list(enumerate_ballots(n)) == list(map(cayley_to_ballot, enumerate_cayley(n)))


def test_enumerate_ballots_refuses_an_empty_block(monkeypatch):
    monkeypatch.setattr(words_module, "enumerate_cayley", lambda n: iter([(1, 3)]))
    with pytest.raises(ValueError, match="empty block"):
        next(enumerate_ballots(2))


def _descent_set(w, strict=False):
    mask = descent_mask(w, strict)
    return frozenset(i for i in range(1, len(w)) if mask >> (i - 1) & 1)


def test_stat_sets_worked_example():
    w = (3, 1, 1, 4, 1, 2, 3)
    assert _descent_set(w) == frozenset({1, 2, 4})
    assert _descent_set(w, strict=True) == frozenset({1, 4})
    assert ascent_set(w) == frozenset({2, 3, 5, 6})
    assert ascent_set(w, strict=True) == frozenset({3, 5, 6})


def test_descent_ascent_wrappers():
    w = (1, 1, 2)
    assert ascent_set(w) == frozenset({1, 2})
    assert ascent_set(w, strict=True) == frozenset({2})


def test_stat_complementarity_exhaustive():
    # plateaus land in both weak sets; strict sets are the complements
    # of the opposite weak sets
    for n in range(6):
        full = frozenset(range(1, n))
        for w in enumerate_cayley(n):
            wd = _descent_set(w)
            sd = _descent_set(w, strict=True)
            wa = ascent_set(w)
            sa = ascent_set(w, strict=True)
            assert wd | wa == full
            assert sd == full - wa
            assert sa == full - wd
            assert sd <= wd and sa <= wa
            plateaus = wd & wa
            assert sd == wd - plateaus and sa == wa - plateaus


@given(st.integers(2, 6).flatmap(random_cayley))
def test_reverse_swaps_strict_descents_and_ascents(w):
    n = len(w)
    rev = {n - i for i in ascent_set(w, strict=True)}
    assert _descent_set(w[::-1], strict=True) == rev


def test_caylerian_brute_small():
    assert caylerian_brute(0) == IntPoly([1])
    assert caylerian_brute(1) == IntPoly([1])
    assert caylerian_brute(2) == IntPoly([1, 2])
    assert caylerian_brute(2, strict=True) == IntPoly([2, 1])
    assert caylerian_brute(3) == IntPoly([1, 8, 4])
    assert caylerian_brute(3, strict=True) == IntPoly([4, 8, 1])
    assert caylerian_brute(4) == IntPoly([1, 24, 42, 8])


def test_caylerian_strict_is_coefficient_reverse():
    for n in range(1, 7):
        weak = caylerian_brute(n)
        assert caylerian_brute(n, strict=True) == weak.reverse_coefficients(n - 1)


def test_caylerian_row_sums_are_fubini():
    for n in range(7):
        assert caylerian_brute(n)(1) == FUBINI[n]


def test_ascent_set_spec_validation():
    spec = AscentSetSpec(4, (3, 1))
    assert spec.positions == (1, 3)
    assert spec.delta == (1, 2, 1)
    assert AscentSetSpec(1, ()).delta == (1,)
    with pytest.raises(ValueError):
        AscentSetSpec(0, ())
    with pytest.raises(ValueError):
        AscentSetSpec(3, (0,))
    with pytest.raises(ValueError):
        AscentSetSpec(3, (3,))


def test_alpha_count_examples():
    assert alpha_count(AscentSetSpec(3, (1,))) == 3
    assert alpha_count(AscentSetSpec(3, ())) == 1
    for n in range(1, 7):
        assert alpha_count(AscentSetSpec(n, tuple(range(1, n)))) == math.factorial(n)


def test_alpha_count_matches_brute_force():
    for n in range(1, 6):
        perms = list(enumerate_linear_orders(n))
        for r in range(n):
            for s in itertools.combinations(range(1, n), r):
                spec = AscentSetSpec(n, s)
                brute = sum(1 for p in perms if ascent_set(p) <= frozenset(s))
                assert alpha_count(spec) == brute


def test_determinant_counts_exact_ascent_sets():
    assert beta_perm_determinant(AscentSetSpec(3, (1,))) == 2
    assert beta_perm_determinant(AscentSetSpec(3, ())) == 1
    for n in range(1, 7):
        perms = list(enumerate_linear_orders(n))
        for r in range(n):
            for s in itertools.combinations(range(1, n), r):
                spec = AscentSetSpec(n, s)
                brute = sum(1 for p in perms if ascent_set(p) == frozenset(s))
                assert beta_perm_determinant(spec) == brute


def test_determinant_sums_to_multinomial():
    for n in range(1, 7):
        for r in range(n):
            for s in itertools.combinations(range(1, n), r):
                total = sum(
                    beta_perm_determinant(AscentSetSpec(n, sub))
                    for size in range(len(s) + 1)
                    for sub in itertools.combinations(s, size)
                )
                assert total == alpha_count(AscentSetSpec(n, s))

