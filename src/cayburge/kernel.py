"""Exact arithmetic substrate for the enumeration engine.

Everything here is exact: integers are plain Python ints, rationals are
``fractions.Fraction``, and power series carry an explicit truncation
order.  A series stores integer numerators over one common denominator,
so its arithmetic runs on ints and reduces once per operation.  No
floating point is used anywhere in the package.

Contents:

* combinatorial number tables (binomial, multichoose, both Stirling
  kinds, Fubini numbers, ballot-by-block polynomials),
* composition generators shared by the word and matrix enumerators,
* ``IntPoly``, a dense univariate integer polynomial,
* ``BiPoly``, a sparse bivariate integer polynomial in (s, t),
* ``RatSeries``, a truncated power series over Q on one common denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

__all__ = [
    "SeriesError",
    "NeedsZeroConstantTerm",
    "NeedsUnitConstantTerm",
    "binomial",
    "multichoose",
    "stirling1",
    "stirling2",
    "fubini",
    "ballot_block_poly",
    "compositions",
    "weak_compositions",
    "IntPoly",
    "BiPoly",
    "RatSeries",
    "exact_div",
]


class SeriesError(ValueError):
    """A series operation was invoked outside its domain."""


class NeedsZeroConstantTerm(SeriesError):
    """Composition F(G) needs G(0) = 0; anything else is rejected."""


class NeedsUnitConstantTerm(SeriesError):
    """Reciprocal and rational expansion need a nonzero constant term."""


# object.__setattr__ under one global name: the subclasses of _Frozen set
# their fields with it, a lookup cheaper than object.__setattr__ per field
_setattr = object.__setattr__


class _Frozen:
    """Base of the immutable values: only a class's own code sets a field,
    with ``_setattr``; any other assignment or deletion raises
    AttributeError.  repr lists the ``__slots__`` fields.

    Two values are equal when they are of one class and have equal keys,
    and a value hashes as its key.  A class's ``_key`` reads its
    ``__slots__`` fields, unless the class names its own."""

    __slots__ = ()

    def __init_subclass__(cls):
        if "_key" not in cls.__dict__:
            cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self.__class__._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self.__class__._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


# ---------------------------------------------------------------------------
# number tables
#
# The Stirling and Fubini tables hold rows 0..n for the largest n asked
# for so far.  They grow on demand by appending rows and are never
# shrunk or rewritten, so a value once read never changes.

_S1: list[list[int]] = [[1]]
_S2: list[list[int]] = [[1]]
_FUB: list[int] = [1]


def _grow_stirling(n: int) -> None:
    """Append Stirling rows until both tables hold row n."""
    while len(_S1) <= n:
        row = len(_S1)
        s1 = _S1[-1] + [0]
        s2 = _S2[-1] + [0]
        _S1.append([0] + [s1[k - 1] + (row - 1) * s1[k] for k in range(1, row + 1)])
        _S2.append([0] + [s2[k - 1] + k * s2[k] for k in range(1, row + 1)])


def _grow_fubini(n: int) -> None:
    """Append Fubini numbers until the table holds fub(n)."""
    _grow_stirling(n)
    while len(_FUB) <= n:
        row = _S2[len(_FUB)]
        _FUB.append(sum(s * math.factorial(k) for k, s in enumerate(row)))


def binomial(n: int, k: int) -> int:
    """C(n, k); zero when k > n, error when either argument is negative."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial needs nonnegative arguments, got ({n}, {k})")
    return math.comb(n, k)


def multichoose(m: int, n: int) -> int:
    """Number of multisets of size n drawn from m symbols.

    Equals C(m + n - 1, n).  The empty alphabet admits exactly the empty
    multiset, so multichoose(0, 0) = 1 and multichoose(0, n) = 0 for n > 0.
    """
    if m < 0 or n < 0:
        raise ValueError(f"multichoose needs nonnegative arguments, got ({m}, {n})")
    if m == 0:
        return 1 if n == 0 else 0
    return math.comb(m + n - 1, n)


def stirling1(n: int) -> list[int]:
    """Row n of the unsigned Stirling numbers of the first kind, as a new
    list: entry k counts the permutations of [n] with k cycles."""
    if n < 0:
        raise ValueError(f"stirling1 needs a nonnegative argument, got {n}")
    if n >= len(_S1):
        _grow_stirling(n)
    return _S1[n][:]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: partitions of [n] into k blocks."""
    if n < 0 or k < 0:
        raise ValueError(f"stirling2 needs nonnegative arguments, got ({n}, {k})")
    if n >= len(_S2):
        _grow_stirling(n)
    return _S2[n][k] if k <= n else 0


def fubini(n: int) -> int:
    """Number of ballots (ordered set partitions) of an n-set."""
    if n < 0:
        raise ValueError(f"fubini needs a nonnegative argument, got {n}")
    if n >= len(_FUB):
        _grow_fubini(n)
    return _FUB[n]


def ballot_block_poly(n: int) -> "IntPoly":
    """Polynomial whose t^i coefficient counts ballots of [n] with i blocks.

    Evaluating at t = 1 recovers ``fubini(n)``.
    """
    if n < 0:
        raise ValueError(f"ballot_block_poly needs a nonnegative argument, got {n}")
    return IntPoly(stirling2(n, i) * math.factorial(i) for i in range(n + 1))


def exact_div(num: int, den: int) -> int:
    """Integer division that refuses to round."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"non-integral division {num}/{den}")
    return q


# ---------------------------------------------------------------------------
# composition generators


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Compositions of n into positive parts, first part descending.

    The descending-first-part order makes the weakly increasing words
    1^a1 2^a2 ... read off from successive compositions come out in
    lexicographic order.  Each step pops the t trailing 1s, lowers the
    last part left by one and appends t + 1.
    """
    if n < 0:
        raise ValueError("compositions needs n >= 0")
    parts = [n] if n else []
    while True:
        yield tuple(parts)
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        parts[-1] -= 1
        parts.append(ones + 1)


def weak_compositions(totals: tuple[int, ...], parts: int) -> Iterator[tuple[int, ...]]:
    """Grids of nonnegative ints with ``len(totals)`` rows and ``parts``
    columns, row i summing to ``totals[i]``, each read column by column
    into one flat tuple; the tuples come in decreasing lexicographic order.
    With one row these are the weak compositions of ``totals[0]``.

    One odometer: each step lowers the rightmost entry that has a later
    entry in its row, and moves each row's rest, plus the one taken, to
    the row's first place after it.  Every entry in between is 0, so the
    rest is the row's entry in the last column.
    """
    rows = len(totals)
    if parts < 0 or any(t < 0 for t in totals):
        raise ValueError("weak_compositions needs nonnegative arguments")
    if not rows * parts:
        if not any(totals):
            yield ()
        return
    a = list(totals) + [0] * (rows * (parts - 1))
    last = len(a) - rows  # place of row 0 in the last column
    while True:
        yield tuple(a)
        p = last - 1
        while p >= 0 and not a[p]:
            p -= 1
        if p < 0:
            return
        a[p] -= 1
        for q in range(p + 1, p + rows + 1):
            end = last + q % rows
            a[end], a[q] = 0, a[end] + (q == p + rows)


# ---------------------------------------------------------------------------
# dense univariate polynomials over Z


class IntPoly(_Frozen):
    """Dense univariate polynomial with integer coefficients.

    Coefficients are stored ascending by degree with trailing zeros
    stripped; the zero polynomial has an empty coefficient tuple.
    Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        _setattr(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "IntPoly":
        if exponent < 0:
            raise ValueError("IntPoly exponent must be nonnegative")
        result = IntPoly((1,))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, x):
        """Evaluate by Horner; exact for int or Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def reverse_coefficients(self, deg: int) -> "IntPoly":
        """Mirror the coefficient window 0..deg, i.e. t^deg * p(1/t)."""
        if self.degree > deg:
            raise ValueError(f"degree {self.degree} exceeds reversal window {deg}")
        window = [self.coefficient(i) for i in range(deg + 1)]
        return IntPoly(reversed(window))

    def divide_exact(self, den: int) -> "IntPoly":
        return IntPoly(exact_div(c, den) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# sparse bivariate polynomials over Z


class BiPoly(_Frozen):
    """Sparse bivariate polynomial in s and t with integer coefficients.

    Terms are held in a dict keyed by (deg_s, deg_t); zero coefficients
    are dropped on construction so equality is structural.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int]):
        _setattr(self, "terms", {key: c for key, c in terms.items() if c})

    def _key(self):  # a dict is unhashable; its item set is not
        return frozenset(self.terms.items())

    def items(self) -> list[tuple[tuple[int, int], int]]:
        """Terms sorted by (deg_s, deg_t); the canonical external order."""
        return sorted(self.terms.items())

    def divide_exact(self, den: int) -> "BiPoly":
        return BiPoly({key: exact_div(c, den) for key, c in self.terms.items()})

    def eval(self, s, t):
        return sum(c * s**i * t**j for (i, j), c in self.terms.items())

    def eval_s(self, s: int) -> IntPoly:
        """Partial evaluation at a fixed s, leaving a polynomial in t."""
        out: dict[int, int] = {}
        for (i, j), c in self.terms.items():
            out[j] = out.get(j, 0) + c * s**i
        if not out:
            return IntPoly()
        return IntPoly(out.get(j, 0) for j in range(max(out) + 1))

    def __repr__(self) -> str:
        return f"BiPoly({dict(self.items())!r})"


# ---------------------------------------------------------------------------
# truncated power series over Q, on one common denominator


class RatSeries(_Frozen):
    """Power series with rational coefficients, truncated at an explicit order.

    A series of order N carries exact coefficients of x^0 .. x^N and
    nothing beyond.  Binary operations on series of different orders
    truncate to the smaller order; the result's ``order`` records that.

    The coefficients are stored as integer numerators ``_nums`` over one
    positive denominator ``_den``, in lowest terms (the gcd of ``_den``
    and every numerator is 1).  That form is unique, so equality and
    hashing compare integers, and each operation reduces once instead of
    once per coefficient.  ``coeffs`` reads them back as Fractions.
    ``compose`` keeps an inner series' powers in ``_powers``, which the key leaves out.
    """

    __slots__ = ("order", "_nums", "_den", "_powers")
    _key = attrgetter("order", "_den", "_nums")

    def __init__(self, coeffs: Iterable, order: int):
        cs = [Fraction(c) for c in coeffs]
        if order < 0:
            raise ValueError("series order must be nonnegative")
        cs = cs[: order + 1] + [Fraction(0)] * (order + 1 - len(cs))
        den = math.lcm(*(c.denominator for c in cs))
        self._store([c.numerator * (den // c.denominator) for c in cs], den, order)

    @classmethod
    def _over(cls, nums: list[int], den: int, order: int) -> "RatSeries":
        """The series nums / den, for den > 0 and order + 1 numerators."""
        out = object.__new__(cls)
        out._store(nums, den, order)
        return out

    def _store(self, nums: list[int], den: int, order: int) -> None:
        g = math.gcd(den, *nums)
        _setattr(self, "order", order)
        # from a list: tuple(generator) resizes its result, and the resized
        # tuples pile up on the interpreter's tuple free lists
        _setattr(self, "_nums", tuple(nums if g == 1 else [c // g for c in nums]))
        _setattr(self, "_den", den // g)
        _setattr(self, "_powers", None)

    # -- constructors ------------------------------------------------------

    @classmethod
    def geometric(cls, order: int) -> "RatSeries":
        """1/(1 - x)."""
        return cls([1] * (order + 1), order=order)

    @classmethod
    def from_egf(cls, weights: Iterable[int], order: int) -> "RatSeries":
        """sum_k w_k x^k / k!, as the numerators w_k order!/k! over order!."""
        top = math.factorial(order)
        nums = [w * (top // math.factorial(k)) for k, w in zip(range(order + 1), weights)]
        return cls._over(nums + [0] * (order + 1 - len(nums)), top, order)

    @classmethod
    def exp(cls, order: int) -> "RatSeries":
        return cls.from_egf([1] * (order + 1), order)

    @classmethod
    def log_one_plus_x(cls, order: int) -> "RatSeries":
        cs = [Fraction(0)] + [Fraction((-1) ** (n - 1), n) for n in range(1, order + 1)]
        return cls(cs, order=order)

    @classmethod
    def log_geometric(cls, order: int) -> "RatSeries":
        """log(1/(1 - x)); coefficient of x^n is 1/n for n >= 1."""
        cs = [Fraction(0)] + [Fraction(1, n) for n in range(1, order + 1)]
        return cls(cs, order=order)

    @classmethod
    def from_rational(cls, num: IntPoly, den: IntPoly, order: int) -> "RatSeries":
        """Expand num/den as a series; den must have nonzero constant term."""
        d0 = den.coefficient(0)
        if d0 == 0:
            raise NeedsUnitConstantTerm("denominator has zero constant term")
        scale = abs(d0) ** (order + 1)  # coefficient n times scale is an integer
        out: list[int] = []
        for n in range(order + 1):
            acc = num.coefficient(n) * scale - sum(map(int.__mul__, den.coeffs[1:], out[::-1]))
            out.append(acc // d0)
        return cls._over(out, scale, order)

    # -- accessors ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._nums)

    def coefficient(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("coefficient index must be nonnegative")
        if n > self.order:
            raise SeriesError(f"coefficient {n} beyond truncation order {self.order}")
        return Fraction(self._nums[n], self._den)

    def integer_coefficients(self) -> list[int]:
        """All coefficients, asserting each is an integer."""
        for n, c in enumerate(self._nums):
            if c % self._den:
                raise ArithmeticError(
                    f"coefficient of x^{n} is non-integral: {Fraction(c, self._den)}"
                )
        return list(self._nums)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RatSeries") -> "RatSeries":
        den = math.lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        nums = [x * a + y * b for x, y in zip(self._nums, other._nums)]
        return RatSeries._over(nums, den, min(self.order, other.order))

    def __neg__(self) -> "RatSeries":
        return RatSeries._over([-c for c in self._nums], self._den, self.order)

    def __sub__(self, other: "RatSeries") -> "RatSeries":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num, den = other.numerator, other.denominator
            return RatSeries._over([c * num for c in self._nums], self._den * den, self.order)
        order = min(self.order, other.order)
        a, b = self._nums, other._nums
        out = [sum(map(int.__mul__, a, b[k::-1])) for k in range(order + 1)]
        return RatSeries._over(out, self._den * other._den, order)

    __rmul__ = __mul__

    def invert_unit(self) -> "RatSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        return RatSeries.from_rational(IntPoly((self._den,)), IntPoly(self._nums), self.order)

    def compose(self, inner: "RatSeries") -> "RatSeries":
        """Substitute ``inner`` for x; inner must have zero constant term.

        Sums c_k inner^k for k <= order.  The powers of inner are kept on
        it, each one product with inner, for every later compose with it.
        The sum is kept as integer numerators over one running lcm of the
        powers' denominators and reduced once, at the end.
        """
        if inner._nums[0]:
            raise NeedsZeroConstantTerm("inner series has nonzero constant term")
        order = min(self.order, inner.order)
        powers = inner._powers or [inner]
        while len(powers) < order:
            powers.append(powers[-1] * inner)
        _setattr(inner, "_powers", powers)
        cs = self._nums
        acc, den = [cs[0]] + [0] * order, 1
        for k, power in zip(range(1, order + 1), powers):
            if cs[k]:
                lcm = math.lcm(den, power._den)
                up, c = lcm // den, cs[k] * (lcm // power._den)
                # zip stops at x^order when inner runs to a higher order
                acc = [a * up + c * p for a, p in zip(acc, power._nums)]
                den = lcm
        return RatSeries._over(acc, den * self._den, order)

    # -- EGF / OGF views ---------------------------------------------------

    def egf_to_ogf(self) -> "RatSeries":
        """Reinterpret exponential coefficients as ordinary ones (multiply by n!)."""
        nums = [c * math.factorial(n) for n, c in enumerate(self._nums)]
        return RatSeries._over(nums, self._den, self.order)

    def __repr__(self) -> str:
        return f"RatSeries({[str(c) for c in self.coeffs]}, order={self.order})"
