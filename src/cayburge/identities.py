"""Closed-form counts, generating function machinery, and the
cross-verification harness.

Every quantity here is computable along at least two independent routes
(closed formula, direct enumeration, series coefficient, signed sum,
truncated infinite sum with a certified tail); the check functions
compare the routes and report structured results.  All sums are exact;
truncated ones come with a proven interval that pins down at most one
integer.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from . import burge, lomat, words
from .kernel import (
    BiPoly,
    IntPoly,
    RatSeries,
    ballot_block_poly,
    binomial,
    compositions,
    exact_div,
    fubini,
    multichoose,
    stirling1,
    stirling2,
)

__all__ = [
    "GENMAT_METHODS",
    "MAT_METHODS",
    "UnconvergedError",
    "count_genmat",
    "count_mat",
    "caylerian_formula",
    "two_sided_formula",
    "caylerian_from_two_sided",
    "beta_formula",
    "beta_equal_by_subsets",
    "carlitz_series",
    "genmat_ogf",
    "halving_sum",
    "halving_sum_exact",
    "double_sum_mat",
    "CheckResult",
    "pairing_check",
    "SUITES",
    "run_suite",
]

GENMAT_METHODS = ("compositions", "stirling", "inclexcl", "ogf-coefficient", "enumerate")
MAT_METHODS = ("stirling", "enumerate", "double-sum")


class UnconvergedError(ArithmeticError):
    """A certified truncation could not reach the requested tail bound."""


# ---------------------------------------------------------------------------
# the three summations behind the closed forms


def _stirling_row(n: int, strict: bool) -> list[tuple[int, int]]:
    """The nonzero (k, s) of row n: s = c(n, k), times (-1)^(n-k) when strict.

    s = n! [x^n] L(x)^k / k! with L = log 1/(1-x), or L = log(1+x) when
    strict.  So the n-th coefficient of an exponential generating
    function sum_k f_k y^k / k! composed with L is the sum of s * f_k
    over the row, divided by n!: each closed form below is such a sum.
    """
    return [(k, -s if strict and (n - k) % 2 else s) for k, s in enumerate(stirling1(n)) if s]


def _newton_sum(values: list[int]) -> int:
    """sum_j sum_{i<=j} (-1)^(j-i) C(j, i) values[i]: the forward
    differences of values at 0, summed.

    Two readings.  If values[c] counts the c-column grids of some kind,
    the j-th difference counts the j-column ones with no empty column
    (inclusion-exclusion on the empty columns).  If values[m] = p(m) for
    a polynomial p of degree below len(values), then p(m) = sum_j C(m, j)
    (j-th difference), and sum_m C(m, j) / 2^(m+1) = 1 for every j, so
    the sum equals sum_m p(m) / 2^(m+1).
    """
    return sum(
        (-1) ** (j - i) * binomial(j, i) * values[i]
        for j in range(len(values))
        for i in range(j + 1)
    )


def _certify(
    what: str, tail_at: Callable[[int], Fraction | None], start: int, tail_bound: Fraction
) -> tuple[int, Fraction]:
    """The least truncation from start on whose tail is below tail_bound,
    with that tail.

    tail_at(trunc) bounds the mass of the terms past trunc, or is None
    while their ratio is not yet below 1; once a truncation certifies,
    every larger one does.  Truncations double from start until one
    certifies, then a bisection between the last that failed and the
    first that passed finds the least.  tail_bound must lie in
    (0, 1/2], so that at most one integer lies within the tail of a
    partial sum (ValueError otherwise); UnconvergedError once the
    truncation passes 4096.
    """
    if not 0 < tail_bound <= Fraction(1, 2):
        raise ValueError("tail_bound must be in (0, 1/2]")

    def certified(trunc: int) -> Fraction | None:
        tail = tail_at(trunc)
        return tail if tail is not None and tail < tail_bound else None

    failed, trunc = start - 1, start
    while (tail := certified(trunc)) is None:
        if trunc > 4096:
            raise UnconvergedError(f"{what} did not certify below {tail_bound}")
        failed, trunc = trunc, trunc * 2
    while trunc - failed > 1:
        mid = (failed + trunc) // 2
        mid_tail = certified(mid)
        if mid_tail is None:
            failed = mid
        else:
            trunc, tail = mid, mid_tail
    return trunc, tail


def _integer_within(partial: Fraction, tail: Fraction) -> int | None:
    """The integer in [partial, partial + tail], or None; a tail below 1/2
    leaves room for at most one."""
    value = math.ceil(partial)
    return value if value <= partial + tail else None


# ---------------------------------------------------------------------------
# counting normalized matrices of linear orders


def genmat_ogf(m: int, order: int, binary: bool = False) -> RatSeries:
    """Ordinary generating function of the m-row counts, as a series.

    General: (1-x)^m / (2(1-x)^m - 1).  Binary: 1 / (2 - (1+x)^m).
    """
    if binary:
        num = IntPoly((1,))
        den = IntPoly((2,)) - IntPoly((1, 1)) ** m
    else:
        num = IntPoly((1, -1)) ** m
        den = 2 * num - IntPoly((1,))
    return RatSeries.from_rational(num, den, order)


def count_genmat(m: int, n: int, binary: bool = False, method: str = "stirling") -> int:
    """Number of m-row normalized structures of size n (no empty column).

    Methods:
      compositions     sum over compositions of n of a product of
                       per-column fill counts, split at the part that
                       covers the unit h = ceil(n/2): the parts before
                       and after it are summed over compositions of
                       sizes at most n // 2,
      stirling         the Stirling row (strict when binary) of fub(k) m^k,
      inclexcl         inclusion-exclusion on empty columns,
      ogf-coefficient  coefficient extraction from genmat_ogf,
      enumerate        direct generation.
    """
    if m < 0 or n < 0:
        raise ValueError("count_genmat needs m, n >= 0")
    coef = binomial if binary else multichoose
    if method == "compositions":
        # the part covering unit h spans (i, k] with i < h <= k; n = 0 has
        # only the empty composition, which covers no unit
        fills = [coef(m, p) for p in range(n + 1)]
        side = [sum(math.prod(map(fills.__getitem__, c)) for c in compositions(j)) for j in range(n // 2 + 1)]
        h = (n + 1) // 2
        return sum(side[i] * fills[k - i] * side[n - k] for i in range(h) for k in range(h, n + 1)) if n else 1
    if method == "stirling":
        acc = sum(s * fubini(k) * m**k for k, s in _stirling_row(n, binary))
        return exact_div(acc, math.factorial(n))
    if method == "inclexcl":
        return _newton_sum([coef(m * c, n) for c in range(n + 1)])
    if method == "ogf-coefficient":
        c = genmat_ogf(m, n, binary=binary).coefficient(n)
        if c.denominator != 1:
            raise ArithmeticError(f"non-integral series coefficient {c}")
        return c.numerator
    if method == "enumerate":
        return sum(1 for _ in lomat.enumerate_genmat(m, n, binary=binary))
    raise ValueError(f"unknown method {method!r}; choose from {GENMAT_METHODS}")


def count_mat(n: int, binary: bool = False, method: str = "stirling") -> int:
    """Number of (binary) Burge matrices of size n.

    stirling sums fub(k)^2 over the Stirling row (strict when binary);
    enumerate generates the matrices; double-sum evaluates the
    two-index halved sum with a certified tail (for the general variant
    that identity is a conjecture-check).
    """
    if n < 0:
        raise ValueError("count_mat needs n >= 0")
    if method == "stirling":
        acc = sum(s * fubini(k) ** 2 for k, s in _stirling_row(n, binary))
        return exact_div(acc, math.factorial(n))
    if method == "enumerate":
        return sum(1 for _ in burge.enumerate_mat(n, binary=binary))
    if method == "double-sum":
        value, _, _ = double_sum_mat(n, binary=binary)
        if value is None:
            raise UnconvergedError(f"no integer inside the certified interval for n={n}")
        return value
    raise ValueError(f"unknown method {method!r}; choose from {MAT_METHODS}")


# ---------------------------------------------------------------------------
# descent polynomials


def caylerian_formula(n: int, strict: bool = False) -> IntPoly:
    """Descent polynomial of Cay[n] without enumerating words.

    fub(k) sum_i S(k,i) i! (t-1)^(n-i) summed over the Stirling row,
    strict in the strict case: the weight of each (t-1)^(n-i) is summed
    over the row first, then the powers by Horner's rule in t - 1.
    """
    if n < 0:
        raise ValueError("caylerian_formula needs n >= 0")
    weights = [0] * (n + 1)
    for k, s in _stirling_row(n, strict):
        c = s * fubini(k)
        for i in range(k + 1):
            weights[i] += c * stirling2(k, i)
    acc: list[int] = []
    for i, w in enumerate(weights):
        # acc * (t - 1) + w * i!, ascending coefficients
        acc = [a - b for a, b in zip([w * math.factorial(i)] + acc, acc + [0])]
    return IntPoly(acc).divide_exact(math.factorial(n))


def two_sided_formula(n: int, strict: bool = False) -> BiPoly:
    """Joint row/column polynomial of (binary) Burge matrices of size n.

    P_k(s) P_k(t) summed over the Stirling row, with P_k the
    ballot-by-block polynomial; strict=True gives the binary variant.
    """
    if n < 0:
        raise ValueError("two_sided_formula needs n >= 0")
    acc: dict[tuple[int, int], int] = {}
    for k, s in _stirling_row(n, strict):
        bp = ballot_block_poly(k).coeffs
        for i, a in enumerate(bp):
            if not a:
                continue
            sa = s * a
            for j, b in enumerate(bp):
                if b:
                    key = (i, j)
                    acc[key] = acc.get(key, 0) + sa * b
    return BiPoly(acc).divide_exact(math.factorial(n))


def caylerian_from_two_sided(poly: BiPoly, n: int) -> IntPoly:
    """Recover the descent polynomial: set s = 1, substitute t -> 1/(t-1),
    and clear the denominator with (t-1)^n."""
    q = poly.eval_s(1)
    acc = IntPoly()
    for j, c in enumerate(q.coeffs):
        if c:
            acc = acc + c * IntPoly((-1, 1)) ** (n - j)
    return acc


# ---------------------------------------------------------------------------
# ascent-set counts


def beta_formula(spec: words.AscentSetSpec, strict: bool = False) -> int:
    """Cayley permutations with (strict or weak) ascent set inside S.

    The Newton sum of prod_g coef(c, g) over the parts g of delta(S),
    which counts the c-column grids with those row sums; coef is
    multichoose for the strict-ascent count and binomial for the weak one.
    """
    coef = multichoose if strict else binomial
    return _newton_sum([math.prod(coef(c, g) for g in spec.delta) for c in range(spec.n + 1)])


def beta_equal_by_subsets(spec: words.AscentSetSpec, strict: bool = False) -> int:
    """Cayley permutations whose ascent set equals S exactly, by
    inclusion-exclusion over the subsets of S."""
    total = 0
    s = spec.positions
    for r in range(len(s) + 1):
        for sub in itertools.combinations(s, r):
            sign = (-1) ** (len(s) - r)
            total += sign * beta_formula(
                words.AscentSetSpec(spec.n, sub), strict=strict
            )
    return total


# ---------------------------------------------------------------------------
# series expansions


def carlitz_series(n: int, strict: bool = False, order: int = 8) -> list[int]:
    """Coefficients of t C_n(t) / (1-t)^(n+1) through t^order."""
    c = caylerian_formula(n, strict=strict)
    num = IntPoly((0,) + c.coeffs)
    den = IntPoly((1, -1)) ** (n + 1)
    return RatSeries.from_rational(num, den, order).integer_coefficients()


def halving_sum(
    n: int, binary: bool = False, tail_bound: Fraction = Fraction(1, 2)
) -> tuple[Fraction, Fraction]:
    """Partial sum of sum_m count(m, n) / 2^(m+1) plus a certified tail.

    Returns (partial, tail) with the true value inside
    [partial, partial + tail] and tail < tail_bound.  The tail uses the
    crude bound count(m, n) <= n * multichoose(mn, n), whose halved
    term ratio is eventually below 1.

    Each count(m, n) is sum_i w_i coef(m i, n) by inclusion-exclusion on
    empty columns, w_i = sum_{j>=i} (-1)^(j-i) C(j, i): no Stirling row.
    """
    coef = binomial if binary else multichoose
    w = [sum((-1) ** (j - i) * binomial(j, i) for j in range(i, n + 1)) for i in range(n + 1)]

    def crude(m: int) -> int:
        return 1 if n == 0 else n * multichoose(m * n, n)

    def tail_at(trunc: int) -> Fraction | None:
        # the halved term ratio rho = after / (2 now) is below 1 iff d = 2 now - after > 0;
        # then the tail after / 2^(trunc+2) / (1 - rho) is one fraction
        now, after = crude(trunc), crude(trunc + 1)
        d = 2 * now - after
        if d <= 0:
            return None
        return Fraction(now * after, d << (trunc + 1))

    trunc, tail = _certify(f"halving sum for n={n}", tail_at, 2 * n + 8, tail_bound)
    num = sum(sum(c * coef(m * i, n) for i, c in enumerate(w)) << (trunc - m) for m in range(trunc + 1))
    return Fraction(num, 1 << (trunc + 1)), tail


def halving_sum_exact(n: int, binary: bool = False) -> int:
    """The same sum evaluated exactly: count(m, n) is a degree-n
    polynomial in m, so the sum is the Newton sum of its first n+1 values."""
    return _newton_sum([count_genmat(m, n, binary=binary) for m in range(n + 1)])


def double_sum_mat(
    n: int, binary: bool = False, tail_bound: Fraction = Fraction(1, 2)
) -> tuple[int | None, Fraction, Fraction]:
    """Evaluate sum_{r,s>=0} coef(rs, n) / 2^(r+s+2) with a certified tail.

    coef is multichoose in the general case and binomial in the binary
    one.  Returns (value, partial, tail) where value is the unique
    integer in [partial, partial + tail], or None when none lies there.

    Tail certificate: coef(x, n) <= (x+n-1)^n / n! (x^n / n! when
    binary), and with c = ceil(sqrt(n-1)) (c = 0 when binary or n <= 1)
    (r+c)(s+c) >= rs + c^2 >= rs + n - 1, so
    coef(rs, n) <= (r+c)^n (s+c)^n / n!.  The mass outside the [0, M]^2
    square is then at most 2 * T * (S + T) / (4 n!) with
    f(r) = (r+c)^n / 2^r, S = sum_{r<=M} f(r) and T a geometric bound
    on sum_{r>M} f(r).  Each distinct product rs is evaluated once.
    """
    c = 0 if binary or n <= 1 else math.isqrt(n - 2) + 1

    def tail_at(trunc: int) -> Fraction | None:
        # with a = f(trunc+1) 2^(trunc+1), each ratio f(r+1)/f(r) for r > trunc is at most
        # rho = (trunc+c+2)^n / 2a, below 1 iff d = 2a - (trunc+c+2)^n > 0; then
        # T = a^2 / (2^trunc d) and S = head / 2^trunc, so the tail 2T(S+T) / (4 n!) is one fraction
        a = (trunc + c + 1) ** n
        d = 2 * a - (trunc + c + 2) ** n
        if d <= 0:
            return None
        head = sum((r + c) ** n << (trunc - r) for r in range(trunc + 1))
        return Fraction(a * a * (head * d + a * a), (d * d * math.factorial(n)) << (2 * trunc + 1))

    trunc, tail = _certify(f"double sum for n={n}", tail_at, 2 * n + 8, tail_bound)
    coef = binomial if binary else multichoose
    # the summand is symmetric in r and s: each r < s stands for two terms.
    # With h = sum_{s>=r} coef(rs) 2^(trunc-s), by Horner's rule over s, row r is
    # 2^(trunc-r) (coef(r^2) 2^(trunc-r) + 2 sum_{s>r} coef(rs) 2^(trunc-s))
    # = 2^(trunc-r) (2h - coef(r^2) 2^(trunc-r)).  coefs[x] holds coef(x, n) once
    # evaluated; rows past r read no product below (r+1)^2, so row r clears those
    num, coefs = 0, [None] * (trunc * trunc + 1)
    for r in range(trunc + 1):
        row = 0
        for s in range(r, trunc + 1):
            if (v := coefs[x := r * s]) is None:
                v = coefs[x] = coef(x, n)
            row = (row << 1) + v
        num += ((row << 1) - (coefs[r * r] << (trunc - r))) << (trunc - r)
        coefs[r * r : (r + 1) ** 2] = [None] * (2 * r + 1)
    partial = Fraction(num, 1 << (2 * trunc + 2))
    return _integer_within(partial, tail), partial, tail


# ---------------------------------------------------------------------------
# structured check results


class CheckResult:
    """Outcome of one named cross-check.

    status is "pass", "fail", "unconverged", or "error"; witness, when
    present, is the first failing point with the value of every route
    there, or for an error the exception the check raised.
    """

    def __init__(self, name: str, params: dict, status: str, witness: dict | None = None, detail: str = ""):
        self.name = name
        self.params = params
        self.status = status
        self.witness = witness
        self.detail = detail

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        return "CheckResult(" + ", ".join(f"{k}={v!r}" for k, v in vars(self).items()) + ")"

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def _verdict(name: str, params: dict, failures: list[dict], detail: str = "") -> CheckResult:
    if failures:
        return CheckResult(name, params, "fail", witness=failures[0], detail=detail)
    return CheckResult(name, params, "pass", detail=detail)


def _grid(**axes: Iterable) -> Iterator[dict]:
    """Every combination of the axis values as a dict, first axis outermost."""
    for values in itertools.product(*axes.values()):
        yield dict(zip(axes, values))


def _ascent_points(max_n: int) -> Iterator[dict]:
    """Every {"n": n, "S": S} with 1 <= n <= max_n and S inside {1..n-1}."""
    for n in range(1, max_n + 1):
        for r in range(n):
            for s in itertools.combinations(range(1, n), r):
                yield {"n": n, "S": s}


def _json_safe(value):
    """Polynomials and series as coefficient lists; anything else as is."""
    if isinstance(value, BiPoly):
        return [[i, j, c] for (i, j), c in value.items()]
    if isinstance(value, (IntPoly, RatSeries)):
        return [str(c) if isinstance(c, Fraction) else c for c in value.coeffs]
    return value


def _disagreements(points: Iterable[dict], routes: Callable[..., dict]) -> list[dict]:
    """The points at which independent routes to one quantity disagree.

    ``routes(**point)`` maps each route's name to its value at the point.
    Each failure holds the point and every route's value, JSON-safe.
    """
    failures = []
    for point in points:
        values = routes(**point)
        first, *rest = values.values()
        if any(v != first for v in rest):
            failures.append({**point, **{k: _json_safe(v) for k, v in values.items()}})
    return failures


# ---------------------------------------------------------------------------
# individual checks


def check_tables(max_n: int) -> list[CheckResult]:
    """Internal consistency of the number tables and series kernel."""
    sizes = list(_grid(n=range(max_n + 1)))
    failures = _disagreements(
        sizes,
        lambda n: {"row-sum": sum(stirling1(n)), "n!": math.factorial(n)},
    ) + _disagreements(
        sizes, lambda n: {"ballot-blocks-at-1": ballot_block_poly(n)(1), "fubini": fubini(n)}
    )
    out = [_verdict("table-row-sums", {"max_n": max_n}, failures)]

    order = max(max_n, 1)
    bal = (RatSeries([2], order=order) - RatSeries.exp(order)).invert_unit()
    got = bal.egf_to_ogf().integer_coefficients()
    failures = _disagreements(
        _grid(n=range(order + 1)), lambda n: {"egf": got[n], "fubini": fubini(n)}
    )
    out.append(_verdict("fubini-egf", {"max_n": order}, failures))

    lhs = RatSeries.exp(order).compose(RatSeries.log_geometric(order))
    rhs = RatSeries.geometric(order)
    failures = _disagreements([{}], lambda: {"exp(log 1/(1-x))": lhs, "1/(1-x)": rhs})
    out.append(_verdict("series-compose-roundtrip", {"order": order}, failures))
    return out


def check_cayley_ballot(max_n: int) -> list[CheckResult]:
    failures = []

    def routes(n: int) -> dict:
        total = 0
        for w in words.enumerate_cayley(n):
            total += 1
            if words.ballot_to_cayley(words.cayley_to_ballot(w)) != w:
                failures.append({"n": n, "word": w})
        return {"enumerated": total, "fubini": fubini(n)}

    count_failures = _disagreements(_grid(n=range(max_n + 1)), routes)
    return [
        _verdict("cayley-ballot-roundtrip", {"max_n": max_n}, failures),
        _verdict("cayley-count-vs-fubini", {"max_n": max_n}, count_failures),
    ]


def check_word_matrix(max_n: int) -> list[CheckResult]:
    """Burge biword <-> matrix bijection, both variants, both directions.

    The words come in strictly increasing order, so none repeats, and
    two words with one image cannot both round-trip; so the words that
    round-trip have distinct images, and the map is onto when they
    number |Mat[n]| by the closed form.  No image is held in memory.
    """
    failures = []
    for binary in (False, True):
        for n in range(max_n + 1):
            images, last = 0, None
            for bw in burge.enumerate_burge(n, binary=binary):
                mat = burge.word_to_matrix(bw)
                if last is not None and bw <= last:
                    failures.append({"n": n, "binary": binary, "word": bw, "bad": "order"})
                elif not burge.is_burge_matrix(mat, binary=binary):
                    failures.append({"n": n, "binary": binary, "word": bw, "bad": "image"})
                elif burge.matrix_to_word(mat) != bw:
                    failures.append({"n": n, "binary": binary, "word": bw, "bad": "roundtrip"})
                else:
                    images += 1
                last = bw
            if images != count_mat(n, binary):
                failures.append({"n": n, "binary": binary, "bad": "image set"})
    return [_verdict("burge-word-matrix-bijection", {"max_n": max_n}, failures)]


def check_act_bijection(max_n: int, max_m: int) -> list[CheckResult]:
    """act(w, A), over every permutation w and normalized A, against the
    direct construction, with neither route held in memory.

    The action route keeps the bases by grid (a normalized structure is
    fixed by its grid) and the permutations by rank, and checks that
    factor_action undoes each image.  The direct route is streamed:
    each structure x names its pair by x.grid and x.word, and is counted
    in both only if act rebuilds it from that pair and the pair's byte,
    one per (base, permutation), was not set before.  So a direct
    stream that repeats one structure and misses another falls short,
    and running act again on the direct side makes a wrong act fail on
    its own.  ``direct`` counts the stream.
    """
    failures = []

    def routes(m: int, n: int) -> dict:
        rank = {w: r for r, w in enumerate(words.enumerate_linear_orders(n))}
        bases, built = {}, 0
        for index, base in enumerate(lomat.enumerate_genmat(m, n)):
            bases[base.grid] = (index, base)
            for w in rank:
                got_w, got_base = lomat.factor_action(lomat.act(w, base))
                if got_w != w or got_base != base:
                    failures.append({"m": m, "n": n, "w": w})
                built += 1
        marks = bytearray(built)
        direct = in_both = 0
        for x in lomat.enumerate_lomat_direct(m, n):
            direct += 1
            index, base = bases.get(x.grid, (None, None))
            r = rank.get(x.word)
            if base is None or r is None:
                continue
            pair = index * len(rank) + r
            if not marks[pair] and lomat.act(x.word, base) == x:
                marks[pair] = 1
                in_both += 1
        return {"via_action": built, "direct": direct, "in_both": in_both}

    params = {"max_n": max_n, "max_m": max_m}
    count_failures = _disagreements(_grid(m=range(max_m + 1), n=range(max_n + 1)), routes)
    return [
        _verdict("action-factorization", params, failures),
        _verdict("action-image-vs-direct", params, count_failures),
    ]


def check_atom_ballot(max_n: int, max_m: int) -> list[CheckResult]:
    """Encode each structure as an atom ballot and decode it back; a
    decoder that refuses the encoding fails the round trip too."""
    failures = []
    for m in range(max_m + 1):
        for n in range(max_n + 1):
            for structure in lomat.enumerate_lomat(m, n):
                for mode in ("color",) if structure.has_empty_row() else ("color", "ballot"):
                    encoded = lomat.to_atom_ballot(structure, row_mode=mode)
                    # a refusal stays a fail here, not run_suite's error: its witness names m, n and the mode
                    try:
                        if lomat.from_atom_ballot(encoded, m if mode == "color" else None) != structure:
                            failures.append({"m": m, "n": n, "mode": mode})
                    except ValueError as exc:
                        failures.append({"m": m, "n": n, "mode": mode, "error": str(exc)})
    return [_verdict("atom-ballot-roundtrip", {"max_n": max_n, "max_m": max_m}, failures)]


def _involution_check(
    prefix: str, params: dict, family, member, inv, sign, fixed_when, formula
) -> list[CheckResult]:
    """The involution principle (Garsia and Milne, 1981), walked once.

    Over family(m, n), for m <= max_m and n <= max_n, sum sign(x) and
    match each member x of sign +1 with inv(x): a fixed x must satisfy
    fixed_when and is counted; a moved x must go to a member of sign -1
    that inv sends back to x.  member(y, m, n) says that y is in
    family(m, n), from the family's definition rather than its
    generator.  Members of sign -1 are summed, not mapped.  inv(inv(x))
    = x makes the matching one-to-one, into family(m, n), so signed =
    fixed - (members of sign -1 left unmatched).  formula counts the
    fixed_when set on its own, so signed == fixed == formula proves inv
    a sign-reversing involution of the family fixing exactly that set.
    A broken obligation fails <prefix>-involution, or else
    <prefix>-signed-sum.
    """
    failures = []

    def routes(m: int, n: int) -> dict:
        signed = fixed = 0
        for x in family(m, n):
            s = sign(x)
            signed += s
            if s != 1:
                continue
            image = inv(x)
            if image == x:
                if fixed_when(x):
                    fixed += 1
                else:
                    failures.append({"m": m, "n": n, "bad": "fixed-point set"})
            elif not member(image, m, n):
                failures.append({"m": m, "n": n, "bad": "image outside the family"})
            elif inv(image) != x or sign(image) != -1:
                failures.append({"m": m, "n": n, "bad": "involution"})
        return {"signed": signed, "fixed": fixed, "formula": formula(m, n)}

    points = _grid(m=range(params["max_m"] + 1), n=range(params["max_n"] + 1))
    sum_failures = _disagreements(points, routes)
    return [
        _verdict(f"{prefix}-involution", params, failures),
        _verdict(f"{prefix}-signed-sum", params, sum_failures),
    ]


def _is_signed_structure(sm, m: int, n: int) -> bool:
    """m rows, the word 1..n, at most n columns and one sign per column:
    +1 on each nonempty column, +1 or -1 on each empty one."""
    x, signs = sm.matrix, sm.signs
    return (
        x.rows == m
        and x.word == tuple(range(1, n + 1))
        and len(signs) == x.cols <= n
        and all(s == 1 or (s == -1 and not any(column)) for s, column in zip(signs, zip(*x.grid)))
    )


def _is_structure(x, m: int, n: int) -> bool:
    """m rows, no empty column, and a word that is a permutation of 1..n."""
    return (
        x.rows == m
        and all(map(any, zip(*x.grid)))
        and sorted(x.word) == list(range(1, n + 1))
    )


def check_gamma(max_n: int, max_m: int) -> list[CheckResult]:
    """Column-sign involution, fixing the all-+1 structures with no empty column."""
    return _involution_check(
        "gamma",
        {"max_n": max_n, "max_m": max_m},
        lomat.enumerate_signed,
        _is_signed_structure,
        lomat.gamma,
        lambda sm: sm.xi,
        lambda sm: lomat.leftmost_empty_column(sm.matrix) == 0 and -1 not in sm.signs,
        count_genmat,
    )


def check_gamma_row_filtered(max_n: int) -> list[CheckResult]:
    """Signed sums filtered by row-sum vector reproduce the ascent-set counts."""

    def routes(n: int, S: tuple[int, ...]) -> dict:
        spec = words.AscentSetSpec(n, S)
        m = len(spec.delta)
        return {
            "signed": sum(sm.xi for sm in lomat.enumerate_signed(m, n, row_sums_spec=spec)),
            "formula": beta_formula(spec, strict=True),
            "enum": sum(1 for _ in burge.enumerate_mat(n, row_sums_spec=spec)),
        }

    failures = _disagreements(_ascent_points(max_n), routes)
    return [_verdict("gamma-row-filtered-sum", {"max_n": max_n}, failures)]


def check_tau(max_n: int, max_m: int) -> list[CheckResult]:
    """First-swap involution on the m-row structures, fixing those whose
    entries all have length <= 1."""
    return _involution_check(
        "tau",
        {"max_n": max_n, "max_m": max_m},
        lomat.enumerate_lomat,
        _is_structure,
        lomat.tau,
        lomat.xi_atoms,
        lambda x: all(length <= 1 for row in x.grid for length in row),
        lambda m, n: math.factorial(n) * count_genmat(m, n, binary=True),
    )


def check_tau_row_complete(max_n: int) -> list[CheckResult]:
    """The signed xi sum over the structures with no empty row, any row
    count, equals n! * |BMat[n]|: the length grids of their bases are
    the Burge matrices.

    tau keeps the grid, and with it the empty rows, so this family is
    closed under tau and the sum counts its fixed points.  check_tau
    checks tau itself; this check proves only the signed sum.
    """

    def routes(n: int) -> dict:
        perms = list(words.enumerate_linear_orders(n))
        signed = sum(
            sum(map(lomat.xi_atoms, map(lomat.act, perms, itertools.repeat(base))))
            for base in map(lomat.from_length_grid, burge.enumerate_mat(n))
        )
        return {"signed": signed, "formula": math.factorial(n) * count_mat(n, binary=True)}

    failures = _disagreements(_grid(n=range(max_n + 1)), routes)
    return [_verdict("tau-row-complete-sum", {"max_n": max_n}, failures)]


def check_count_methods(max_n: int, max_m: int) -> list[CheckResult]:
    """All count_genmat methods agree; enumeration within its own bounds."""
    enum_max_n, enum_max_m = min(max_n, ENUM_MAX_N), min(max_m, ENUM_MAX_M)

    def routes(binary: bool, m: int, n: int) -> dict:
        skip = () if m <= enum_max_m and n <= enum_max_n else ("enumerate",)
        return {
            method: count_genmat(m, n, binary=binary, method=method)
            for method in GENMAT_METHODS
            if method not in skip
        }

    grid = _grid(binary=(False, True), m=range(max_m + 1), n=range(max_n + 1))
    params = {"max_n": max_n, "max_m": max_m, "enum_max_n": enum_max_n, "enum_max_m": enum_max_m}
    return [_verdict("count-genmat-method-agreement", params, _disagreements(grid, routes))]


def check_count_mat_methods(max_n: int) -> list[CheckResult]:
    failures = _disagreements(
        _grid(binary=(False, True), n=range(max_n + 1)),
        lambda binary, n: {
            meth: count_mat(n, binary=binary, method=meth) for meth in ("stirling", "enumerate")
        },
    )
    return [_verdict("count-mat-vs-enumeration", {"max_n": max_n}, failures)]


def check_caylerian(max_n: int) -> list[CheckResult]:
    brute_max_n = min(max_n, BRUTE_MAX_N)
    failures = _disagreements(
        _grid(strict=(False, True), n=range(brute_max_n + 1)),
        lambda strict, n: {
            "formula": caylerian_formula(n, strict=strict),
            "brute": words.caylerian_brute(n, strict=strict),
        },
    )
    out = [_verdict("caylerian-formula-vs-brute", {"max_n": brute_max_n}, failures)]

    failures = _disagreements(
        _grid(n=range(1, max_n + 1)),
        lambda n: {
            "strict-formula": caylerian_formula(n, strict=True),
            "reversed-weak": caylerian_formula(n).reverse_coefficients(n - 1),
        },
    )
    out.append(_verdict("caylerian-strict-is-reverse", {"max_n": max_n}, failures))

    failures = _disagreements(
        _grid(n=range(max_n + 1)), lambda n: {"C(1)": caylerian_formula(n)(1), "fubini": fubini(n)}
    )
    # C_n(2) counts the Burge matrices, the strict C_n(2) the binary ones
    failures += _disagreements(
        _grid(n=range(max_n + 1), strict=(False, True)),
        lambda n, strict: {"C(2)": caylerian_formula(n, strict)(2), "mat": count_mat(n, strict)},
    )
    out.append(_verdict("caylerian-evaluations", {"max_n": max_n}, failures))
    return out


def check_two_sided(max_n: int) -> list[CheckResult]:
    failures = _disagreements(
        _grid(strict=(False, True), n=range(max_n + 1)),
        lambda strict, n: {
            "formula": two_sided_formula(n, strict=strict),
            "brute": burge.two_sided_brute(n, binary=strict),
        },
    )
    out = [_verdict("two-sided-formula-vs-brute", {"max_n": max_n}, failures)]

    points = list(_grid(n=range(max_n + 1), strict=(False, True)))
    failures = _disagreements(
        points,
        lambda n, strict: {
            "eval(1,1)": two_sided_formula(n, strict=strict).eval(1, 1),
            "count": count_mat(n, binary=strict),
        },
    ) + _disagreements(
        points,
        lambda n, strict: {
            "substitution": caylerian_from_two_sided(two_sided_formula(n, strict=strict), n),
            "caylerian": caylerian_formula(n, strict=strict),
        },
    )
    out.append(_verdict("two-sided-consistency", {"max_n": max_n}, failures))
    return out


def check_beta(max_n: int) -> list[CheckResult]:
    """Ascent-set counting: formula vs brute force vs matrix enumeration."""
    # One enumeration per size serves every S: the row-sum vectors of the
    # (binary) Burge matrices and the ascent sets of the permutations and
    # of the Cayley words.
    sizes = range(1, max_n + 1)
    mat_rows = {
        (n, binary): Counter(burge.row_sums(a) for a in burge.enumerate_mat(n, binary=binary))
        for n in sizes
        for binary in (False, True)
    }
    perm_ascents = {
        n: Counter(map(words.ascent_set, words.enumerate_linear_orders(n))) for n in sizes
    }
    cayley = {n: list(words.enumerate_cayley(n)) for n in sizes}  # one walk serves both tallies
    word_ascents = {
        (n, strict): Counter(words.ascent_set(w, strict) for w in cayley[n])
        for n in sizes
        for strict in (False, True)
    }

    def inside(tally: Counter, S: Iterable[int]) -> int:
        """How many of the tallied ascent sets lie inside S."""
        allowed = frozenset(S)
        return sum(c for a, c in tally.items() if a <= allowed)

    specs = list(_ascent_points(max_n))
    specs_strict = [{**p, "strict": strict} for p in specs for strict in (False, True)]
    spec = words.AscentSetSpec

    formula_failures = _disagreements(
        specs_strict,
        lambda n, S, strict: {
            "formula": beta_formula(spec(n, S), strict=strict),
            "brute": inside(word_ascents[n, strict], S),
        },
    )
    # strict ascents count the general matrices, weak ones the binary
    matrix_failures = _disagreements(
        specs_strict,
        lambda n, S, strict: {
            "formula": beta_formula(spec(n, S), strict=strict),
            "matrices": mat_rows[n, not strict][spec(n, S).delta],
        },
    )
    equal_failures = _disagreements(
        specs_strict,
        lambda n, S, strict: {
            "brute": word_ascents[n, strict][frozenset(S)],
            "by-subsets": beta_equal_by_subsets(spec(n, S), strict=strict),
        },
    )
    # every Cayley permutation has exactly one weak ascent set
    equal_failures += _disagreements(
        _grid(n=sizes),
        lambda n: {
            "weak-ascent-classes": inside(word_ascents[n, False], range(1, n)),
            "fubini": fubini(n),
        },
    )

    def alpha_routes(n: int, S: tuple[int, ...]) -> dict:
        subsets = (sub for size in range(len(S) + 1) for sub in itertools.combinations(S, size))
        return {
            "multinomial": words.alpha_count(spec(n, S)),
            "enumerated": inside(perm_ascents[n], S),
            "determinants": sum(words.beta_perm_determinant(spec(n, sub)) for sub in subsets),
        }

    alpha_failures = _disagreements(specs, alpha_routes) + _disagreements(
        specs,
        lambda n, S: {
            "determinant": words.beta_perm_determinant(spec(n, S)),
            "enumerated": perm_ascents[n][frozenset(S)],
        },
    )
    params = {"max_n": max_n}
    return [
        _verdict("beta-formula-vs-brute", params, formula_failures),
        _verdict("beta-vs-matrix-row-sums", params, matrix_failures),
        _verdict("beta-equal-mode", params, equal_failures),
        _verdict("alpha-vs-determinant", params, alpha_failures),
    ]


def pairing_check(max_n: int, max_m: int) -> list[CheckResult]:
    """Match the two descent series against the two count families.

    For each n the series t C_n(t)/(1-t)^(n+1) (weak and strict) are
    expanded through t^max_m and compared cellwise against the general
    and binary m-row counts.  The check passes when at least one of the
    two possible pairings holds on every cell, so that no cell fails
    both; its one result records which, plus the as-written pairing's
    failures (the as-written text pairs weak with general).
    """
    cells = {}
    for n in range(max_n + 1):
        weak = carlitz_series(n, strict=False, order=max_m)
        strict = carlitz_series(n, strict=True, order=max_m)
        for m in range(1, max_m + 1):
            cells[n, m] = {
                "series": {"weak": weak[m], "strict": strict[m]},
                "counts": {"general": count_genmat(m, n), "binary": count_genmat(m, n, binary=True)},
            }
    # each pairing: the count it matches with each series
    pairings = {
        "weak-general/strict-binary": {"weak": "general", "strict": "binary"},
        "weak-binary/strict-general": {"weak": "binary", "strict": "general"},
    }
    holds = {
        pairing: {
            key: all(cell["series"][s] == cell["counts"][c] for s, c in match.items())
            for key, cell in cells.items()
        }
        for pairing, match in pairings.items()
    }
    as_written = holds["weak-general/strict-binary"]
    consistent = [pairing for pairing, ok in holds.items() if all(ok.values())]
    if len(consistent) == 2:
        determined = "undetermined (grid too small to separate)"
    else:
        determined = consistent[0] if consistent else "none"
    witness = next(
        ({"n": n, "m": m, **cells[n, m]} for n, m in cells if not any(ok[n, m] for ok in holds.values())),
        None,
    )
    detail = (
        f"consistent pairing: {determined}; "
        f"as-written pairing fails in {list(as_written.values()).count(False)} cells"
    )
    params = {"max_n": max_n, "max_m": max_m, "cell_2_2": cells.get((2, 2)), "consistent": consistent}
    params["as_printed_cells"] = [[n, m, ok] for (n, m), ok in as_written.items()]
    return [CheckResult("carlitz-pairing", params, "pass" if consistent else "fail", witness, detail)]


def check_ogf_coefficients(max_n: int, max_m: int) -> list[CheckResult]:
    series = {
        (binary, m): genmat_ogf(m, max_n, binary=binary).integer_coefficients()
        for binary in (False, True)
        for m in range(max_m + 1)
    }
    failures = _disagreements(
        _grid(binary=(False, True), m=range(max_m + 1), n=range(max_n + 1)),
        lambda binary, m, n: {"series": series[binary, m][n], "count": count_genmat(m, n, binary)},
    )
    return [_verdict("ogf-coefficients-vs-counts", {"max_n": max_n, "max_m": max_m}, failures)]


def check_species_series(max_n: int, max_m: int) -> list[CheckResult]:
    """Composition identities: ballots of colored atoms, against the counts.

    Checks, coefficientwise through x^max_n:
      1/(1 - ((1-x)^-m - 1))             -> general m-row counts,
      1/(1 - ((1+x)^m - 1))              -> binary m-row counts,
      Bal(m log 1/(1-x))                 -> general m-row counts,
      Bal(m log(1+x))                    -> binary m-row counts,
      sum_k fub(k)^2 y^k/k! at both logs -> matrix counts,
      the (s,t)-weighted variant         -> two-sided polynomials.

    Bal(m L) is composed as sum_k fub(k) m^k y^k/k! at y = L, so the
    powers of each log, kept on it by compose, serve every EGF of the call.
    """
    order = max_n
    inner_log = {False: RatSeries.log_geometric(order), True: RatSeries.log_one_plus_x(order)}
    fubs = [fubini(k) for k in range(order + 1)]
    one, geometric = RatSeries([1], order=order), RatSeries.geometric(order)

    def row_series(m: int, binary: bool) -> dict:
        if binary:
            inner = RatSeries((IntPoly((1, 1)) ** m).coeffs, order=order) - one
        else:
            inner = RatSeries.from_rational(IntPoly((1,)), IntPoly((1, -1)) ** m, order) - one
        bal_m = RatSeries.from_egf([f * m**k for k, f in enumerate(fubs)], order)
        return {
            "linear-orders": geometric.compose(inner).integer_coefficients(),
            "atom-ballots": bal_m.compose(inner_log[binary]).integer_coefficients(),
        }

    by_rows = {(m, b): row_series(m, b) for m in range(max_m + 1) for b in (False, True)}
    failures = _disagreements(
        _grid(m=range(max_m + 1), binary=(False, True), n=range(order + 1)),
        lambda m, binary, n: {
            **{route: coeffs[n] for route, coeffs in by_rows[m, binary].items()},
            "count": count_genmat(m, n, binary=binary),
        },
    )

    mat_egf = RatSeries.from_egf([f * f for f in fubs], order)
    by_mat = {b: mat_egf.compose(inner_log[b]).integer_coefficients() for b in (False, True)}
    failures += _disagreements(
        _grid(binary=(False, True), n=range(order + 1)),
        lambda binary, n: {"matrix-ballots": by_mat[binary][n], "count": count_mat(n, binary)},
    )

    blocks = [ballot_block_poly(k) for k in range(order + 1)]
    weighted = {
        (s, t): RatSeries.from_egf([p(s) * p(t) for p in blocks], order)
        for s, t in itertools.product(range(1, 4), repeat=2)
    }
    by_weight = {
        (b, s, t): egf.compose(inner_log[b]).integer_coefficients()
        for b in (False, True)
        for (s, t), egf in weighted.items()
    }
    weights = list(_grid(binary=(False, True), s=range(1, 4), t=range(1, 4)))
    two_sided = {(b, n): two_sided_formula(n, b) for b in (False, True) for n in range(order + 1)}
    failures += _disagreements(
        ({**w, "n": n} for w in weights for n in range(order + 1)),
        lambda binary, s, t, n: {
            "weighted": by_weight[binary, s, t][n],
            "two-sided": two_sided[binary, n].eval(s, t),
        },
    )
    return [
        _verdict("species-series-vs-counts", {"max_n": max_n, "max_m": max_m}, failures)
    ]


def _check_certified(
    prefix: str, details: tuple[str, str], routes: Callable, max_n: int, tail_bound: Fraction
) -> list[CheckResult]:
    """Certified sums against |Mat[n]|, then |BMat[n]|; a sum that cannot
    certify below tail_bound leaves its variant "unconverged" at that n."""
    out = []
    params = {"max_n": max_n, "tail_bound": str(tail_bound)}
    for binary, detail in zip((False, True), details):
        name = f"{prefix}-{'binary' if binary else 'general'}"
        failures = []
        try:
            for n in range(max_n + 1):
                failures += _disagreements(
                    [{"n": n}], lambda n: {"count": count_mat(n, binary), **routes(n, binary)}
                )
        except UnconvergedError as exc:
            out.append(CheckResult(name, params, "unconverged", witness={"n": n}, detail=str(exc)))
        else:
            out.append(_verdict(name, params, failures, detail=detail))
    return out


def check_halving(max_n: int, tail_bound: Fraction = Fraction(1, 2)) -> list[CheckResult]:
    def routes(n: int, binary: bool) -> dict:
        return {
            "certified": _integer_within(*halving_sum(n, binary=binary, tail_bound=tail_bound)),
            "newton": halving_sum_exact(n, binary=binary),
        }

    detail = "certified interval plus exact finite-difference evaluation"
    return _check_certified("halving-sum", (detail, detail), routes, max_n, tail_bound)


def check_double_sum(max_n: int, tail_bound: Fraction = Fraction(1, 2)) -> list[CheckResult]:
    def routes(n: int, binary: bool) -> dict:
        return {"double-sum": double_sum_mat(n, binary=binary, tail_bound=tail_bound)[0]}

    details = ("conjecture-check", "theorem-check")
    return _check_certified("double-sum", details, routes, max_n, tail_bound)


# ---------------------------------------------------------------------------
# suites
#
# Each suite is an ordered tuple of (check, cap on n, cap on m).  The caps
# keep the enumerative checks inside their runtime budget; NO_CAP leaves
# the requested bound as it is, and a cap of None on m marks a check
# that takes no row bound.  Checks are held by name and looked up when a
# suite runs, so a wrapper bound to the module attribute (a profiler's or
# a test's) sees the call.  ENUM_MAX_N/ENUM_MAX_M and BRUTE_MAX_N cap one
# route, not the check: the enumeration route of check_count_methods and
# the brute-force route of check_caylerian; the other routes run at the
# suite's bounds.

NO_CAP = math.inf
ENUM_MAX_N, ENUM_MAX_M = 5, 3
BRUTE_MAX_N = 7

SUITES: dict[str, tuple[tuple[str, float, float | None], ...]] = {
    "kernel": (("check_tables", NO_CAP, None),),
    "bijections": (
        ("check_cayley_ballot", 7, None),
        ("check_word_matrix", 5, None),
        ("check_act_bijection", 5, 3),
        ("check_atom_ballot", 5, 3),
    ),
    "involutions": (
        ("check_gamma", 5, 3),
        ("check_gamma_row_filtered", 5, None),
        ("check_tau", 5, 3),
        ("check_tau_row_complete", 5, None),
    ),
    "formulas": (
        ("check_count_methods", NO_CAP, NO_CAP),
        ("check_count_mat_methods", 6, None),
        ("check_caylerian", NO_CAP, None),
        ("check_two_sided", 6, None),
        ("check_beta", 6, None),
    ),
    "pairing": (("pairing_check", NO_CAP, NO_CAP),),
    "gf": (
        ("check_ogf_coefficients", NO_CAP, NO_CAP),
        ("check_species_series", 6, 4),
        ("check_halving", 6, None),
        ("check_double_sum", 6, None),
    ),
}

# The checks that evaluate a truncated sum and take a tail bound.
_TAIL_BOUNDED = ("check_halving", "check_double_sum")


def run_suite(
    name: str, max_n: int, max_m: int, tail_bound: Fraction = Fraction(1, 2)
) -> list[CheckResult]:
    """Run one suite, or all of them in a fixed order with name="all".

    Each check runs at the requested bounds clamped to its caps in
    SUITES, and its results' params report those clamped bounds.  A check
    that raises gives one result of status "error", named after the check
    function, and the checks after it still run.
    """
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    out = []
    for suite in SUITES if name == "all" else (name,):
        for check, n_cap, m_cap in SUITES[suite]:
            params = {"max_n": min(max_n, n_cap)}
            if m_cap is not None:
                params["max_m"] = min(max_m, m_cap)
            args = [*params.values(), tail_bound] if check in _TAIL_BOUNDED else params.values()
            try:
                out += globals()[check](*args)
            except Exception as exc:  # an error, not a fail: the check could not finish
                witness = {"type": type(exc).__name__, "message": str(exc)}
                out.append(CheckResult(check, params, "error", witness))
    return out
