"""Cayley permutations, ballots, and their descent statistics.

A Cayley permutation of size n is a word w(1)..w(n) of positive integers
whose set of values is exactly {1, ..., max(w)}.  They are in bijection
with ballots (ordered set partitions) of {1, ..., n}: position i sits in
block number w(i).

Descents here come in two flavours.  The weak descent set of w is
{i < n : w(i) >= w(i+1)} and the strict one uses >.  Ascents mirror this
with <= and <.  Plateaus (w(i) = w(i+1)) are therefore both weak
descents and weak ascents; that asymmetry drives most of the counting
in this package.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator

from .kernel import IntPoly, _Frozen, _setattr

Word = tuple[int, ...]
Ballot = tuple[frozenset[int], ...]

__all__ = [
    "Word",
    "Ballot",
    "is_cayley_word",
    "enumerate_cayley",
    "enumerate_linear_orders",
    "enumerate_ballots",
    "ballot_to_cayley",
    "cayley_to_ballot",
    "descent_mask",
    "ascent_set",
    "caylerian_brute",
    "AscentSetSpec",
    "alpha_count",
    "beta_perm_determinant",
]


def is_cayley_word(w: Word) -> bool:
    """True when the set of values of w is an initial segment {1..k}."""
    if not w:
        return True
    values = set(w)
    return min(values) == 1 and max(values) == len(values)


# The last three letters of each word come from a table: at n = 8 depth three
# runs in under half the time of two; four saves a quarter but holds 1.9 MB.
_TABLE_DEPTH = 3


def enumerate_cayley(n: int, descents: int = 0, strict: bool = False) -> Iterator[Word]:
    """Yield once, in lexicographic order, each Cayley permutation of size n
    whose weak (strict when strict) descent set holds every position i
    with bit i - 1 set in descents, as descent_mask reads it.

    A depth-first walk (Knuth, TAOCP 4B, 7.2.2, Algorithm B) on an
    explicit stack of iterators, one per letter, so it does not recurse in
    n and holds O(n) letters.  _extensions steps a prefix, summarised by its
    last letter, largest value top and the bitmask missing (bit v - 1 for
    each v < top it lacks).  The last three letters come from a table that
    tail fills one letter deep at a time, on first use.
    """
    if n < 0:
        raise ValueError("enumerate_cayley needs n >= 0")
    if descents >> max(n - 1, 0):
        return  # no word descends at position n or past it
    forced = descents << 1  # bit i: the letter at position i + 1 descends from the one before
    depth = min(n, _TABLE_DEPTH)
    tails: dict[tuple[int, int, int, int], list[Word]] = {}

    def tail(k: int, prev: int, top: int, missing: int) -> list[Word]:
        # the last k letters; they depend on prev only when the first is forced
        if not k:
            return [()]
        key = (k, top, missing, prev if forced >> n - k & 1 else 0)
        if key not in tails:
            steps = _extensions(prev, top, missing, k, forced >> n - k, strict)
            tails[key] = [(v,) + end for v, t, m in steps for end in tail(k - 1, v, t, m)]
        return tails[key]

    # stack[i] places word[i]; stack[0] yields the empty prefix once, as a letter 0
    word = [0] * (n - depth + 1)
    stack = [iter([(0, 0, 0)])]
    while stack:
        i = len(stack) - 1
        for word[i], top, missing in stack[-1]:
            if i < n - depth:
                stack.append(_extensions(word[i], top, missing, n - i, forced >> i, strict))
                break
            prefix = tuple(word[1:])
            for end in tail(depth, word[i], top, missing):
                yield prefix + end
        else:
            stack.pop()


def _extensions(
    prev: int, top: int, missing: int, left: int, forced: int, strict: bool
) -> Iterator[tuple[int, int, int]]:
    """Each letter v after prev, increasing, with the state (v, top, missing)
    it leaves.  Bit 0 of forced caps v at prev (below it when strict); the set
    bits above it mark the run of places after v where no letter rises above v
    (each falls when strict, so v must exceed the run).  The missing values
    must fit in the left - 1 places after v (a missing v always fits, another
    v <= top needs a spare place, a v > top adds v - 1 - top), and those above
    v in the places after the run."""
    room = left - missing.bit_count()
    run = ((forced >> 1) ^ ((forced >> 1) + 1)).bit_length() - 1  # trailing ones of forced >> 1
    high = min(prev - strict, top + room) if forced & 1 else top + room
    for v in range(1 + run * strict, high + 1):
        bit = 1 << (v - 1)
        if v > top:
            yield v, v, missing | (bit - (1 << top))
        elif (missing & bit or room) and (missing >> v).bit_count() < left - run:
            yield v, top, missing & ~bit


def enumerate_linear_orders(n: int) -> Iterator[Word]:
    """Permutations of [n] in lexicographic order."""
    return iter(itertools.permutations(range(1, n + 1)))


def cayley_to_ballot(w: Word) -> Ballot:
    """Block v holds the positions i with w(i) = v; a letter below 1 or a
    value of 1..max(w) that w skips (an empty block) is refused."""
    if not w:
        return ()
    if min(w) < 1:
        raise ValueError(f"not a Cayley permutation: {w}")
    blocks: list[list[int]] = [[] for _ in range(max(w))]
    for i, v in enumerate(w, start=1):
        blocks[v - 1].append(i)
    if not all(blocks):
        raise ValueError(f"not a Cayley permutation: {w} gives an empty block")
    return tuple(map(frozenset, blocks))


def ballot_to_cayley(blocks: Ballot) -> Word:
    n = sum(len(b) for b in blocks)
    seen: set[int] = set()
    word = [0] * n
    for j, block in enumerate(blocks, start=1):
        if not block:
            raise ValueError("ballot blocks must be nonempty")
        for i in block:
            if not 1 <= i <= n or i in seen:
                raise ValueError(f"ballot is not a partition of 1..{n}")
            seen.add(i)
            word[i - 1] = j
    return tuple(word)


def enumerate_ballots(n: int) -> Iterator[Ballot]:
    """Ballots of {1..n}, ordered by their Cayley permutations."""
    for w in enumerate_cayley(n):
        yield cayley_to_ballot(w)


def descent_mask(w: Word, strict: bool = False) -> int:
    """Bit i - 1 set for each weak (or strict) descent position i of w."""
    mask = 0
    for i in range(len(w) - 1):
        if w[i] > w[i + 1] or (not strict and w[i] == w[i + 1]):
            mask |= 1 << i
    return mask


def ascent_set(w: Word, strict: bool = False) -> frozenset[int]:
    """Positions i (1-based, i < len(w)) of the weak (or strict) ascents of w."""
    # a weak ascent is no strict descent, and a strict ascent no weak one
    mask = descent_mask(w, strict=not strict)
    return frozenset(i for i in range(1, len(w)) if not mask >> (i - 1) & 1)


def caylerian_brute(n: int, strict: bool = False) -> IntPoly:
    """Descent polynomial of Cay[n] by direct enumeration.

    The t^d coefficient counts Cayley permutations of size n with d weak
    (or, with strict=True, strict) descents.
    """
    counts = [0] * max(1, n)
    for w in enumerate_cayley(n):
        counts[descent_mask(w, strict).bit_count()] += 1
    return IntPoly(counts)


# ---------------------------------------------------------------------------
# ascent-set refinements


class AscentSetSpec(_Frozen):
    """A size n >= 1 together with a set of positions S inside {1..n-1}.

    ``delta`` is the induced composition of n: the gaps between the
    consecutive members of {0} | S | {n}.
    """

    __slots__ = ("n", "positions")

    def __init__(self, n: int, positions: tuple[int, ...]):
        if n < 1:
            raise ValueError(f"an ascent set needs n >= 1, got {n}")
        ps = tuple(sorted(set(positions)))
        for p in ps:
            if not 1 <= p <= n - 1:
                raise ValueError(f"position {p} outside 1..{n - 1}")
        _setattr(self, "n", n)
        _setattr(self, "positions", ps)

    @property
    def delta(self) -> tuple[int, ...]:
        fenceposts = (0,) + self.positions + (self.n,)
        return tuple(b - a for a, b in zip(fenceposts, fenceposts[1:]))


def alpha_count(spec: AscentSetSpec) -> int:
    """Number of permutations of [n] whose weak ascent set is contained in S.

    For permutations weak and strict ascents coincide, and sorting each
    delta-run decreasingly gives the multinomial n! / prod(delta!).
    """
    num = math.factorial(spec.n)
    for gap in spec.delta:
        num //= math.factorial(gap)
    return num


def beta_perm_determinant(spec: AscentSetSpec) -> int:
    """Permutations of [n] whose ascent set is exactly S, as a determinant.

    Evaluates n! times the (r+1) x (r+1) determinant with (i, j) entry
    1/(s_j - s_{i-1})!, where s_0 = 0, s_{r+1} = n and entries with a
    negative argument are zero.  Exact rational elimination, then an
    integrality check.  Summing over the subsets of S recovers the
    multinomial alpha_count(S).
    """
    s = (0,) + spec.positions + (spec.n,)
    r1 = len(s) - 1
    mat = [
        [
            Fraction(1, math.factorial(s[j] - s[i - 1])) if s[j] >= s[i - 1] else Fraction(0)
            for j in range(1, r1 + 1)
        ]
        for i in range(1, r1 + 1)
    ]
    det = Fraction(1)
    for col in range(r1):
        # no pivot is 0: leading minor k times s_k! counts the permutations of [s_k] with one ascent set
        pivot = mat[col][col]
        det *= pivot
        for row in range(col + 1, r1):
            factor = mat[row][col] / pivot
            if factor:
                mat[row] = [a - factor * b for a, b in zip(mat[row], mat[col])]
    value = det * math.factorial(spec.n)
    if value.denominator != 1:
        raise ArithmeticError(f"determinant count came out non-integral: {value}")
    return value.numerator
