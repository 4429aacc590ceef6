"""Exact-arithmetic kernel: tables, coefficients, polynomials, series."""

import inspect
import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from cayburge.kernel import (
    BiPoly,
    IntPoly,
    NeedsUnitConstantTerm,
    NeedsZeroConstantTerm,
    RatSeries,
    SeriesError,
    _Frozen,
    _setattr,
    ballot_block_poly,
    binomial,
    compositions,
    exact_div,
    fubini,
    multichoose,
    stirling1,
    stirling2,
    weak_compositions,
)
from cayburge.lomat import AtomBallot, SignedLOMatrix, from_length_grid
from cayburge.words import AscentSetSpec

# Anchors computed by the block recurrence f(n) = sum_j C(n,j) f(n-j),
# independently of the Stirling route used in the package.
FUBINI = [1, 1, 3, 13, 75, 541, 4683, 47293, 545835]


def brute_set_partitions(n):
    """All set partitions of [n], grown element by element."""
    parts = [[]]
    for x in range(1, n + 1):
        nxt = []
        for p in parts:
            for i in range(len(p)):
                nxt.append([blk | {x} if j == i else blk for j, blk in enumerate(p)])
            nxt.append(p + [{x}])
        parts = nxt
    return parts


def cycle_count(perm):
    seen = [False] * len(perm)
    c = 0
    for i in range(len(perm)):
        if not seen[i]:
            c += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j] - 1
    return c


def test_fubini_anchor_list():
    assert [fubini(n) for n in range(9)] == FUBINI


def test_fubini_block_recurrence():
    f = [1]
    for n in range(1, 13):
        f.append(sum(math.comb(n, j) * f[n - j] for j in range(1, n + 1)))
    for n in range(13):
        assert fubini(n) == f[n]


def test_stirling2_against_brute_partitions():
    for n in range(7):
        parts = brute_set_partitions(n)
        for k in range(n + 2):
            assert stirling2(n, k) == sum(1 for p in parts if len(p) == k)


def test_stirling1_against_cycle_counts():
    for n in range(7):
        perms = list(itertools.permutations(range(1, n + 1)))
        row = stirling1(n) + [0]
        for k in range(n + 2):
            assert row[k] == sum(1 for p in perms if cycle_count(p) == k)


def test_stirling1_without_k_reads_the_row():
    for n in range(9):
        row = stirling1(n)
        assert row == [stirling1(n)[k] for k in range(n + 1)]
        row[-1] += 1  # a copy: the table is not changed through it
        assert stirling1(n)[n] == 1
    with pytest.raises(ValueError):
        stirling1(-1)


def test_fubini_equals_stirling2_row():
    for n in range(10):
        assert fubini(n) == sum(stirling2(n, k) * math.factorial(k) for k in range(n + 1))


def test_tables_grow_on_demand():
    # rows past any earlier request are built when first asked for
    assert stirling2(70, 1) == 1
    assert stirling1(70)[70] == 1


def test_binomial_matches_comb_and_rejects_negatives():
    for m in range(8):
        for n in range(8):
            assert binomial(m, n) == math.comb(m, n)
    with pytest.raises(ValueError):
        binomial(-1, 2)
    with pytest.raises(ValueError):
        binomial(3, -1)


def test_multichoose_counts_multisets():
    for m in range(6):
        for n in range(6):
            brute = sum(1 for _ in itertools.combinations_with_replacement(range(m), n))
            assert multichoose(m, n) == brute
    assert multichoose(0, 0) == 1
    assert multichoose(0, 3) == 0


def test_ballot_block_poly():
    assert ballot_block_poly(0) == IntPoly([1])
    assert ballot_block_poly(2) == IntPoly([0, 1, 2])
    for n in range(8):
        assert ballot_block_poly(n)(1) == fubini(n)


def test_exact_div():
    assert exact_div(12, 4) == 3
    with pytest.raises(ArithmeticError):
        exact_div(7, 2)


def test_compositions_exact_small():
    assert list(compositions(0)) == [()]
    assert list(compositions(3)) == [(3,), (2, 1), (1, 2), (1, 1, 1)]
    for n in range(1, 9):
        assert sum(1 for _ in compositions(n)) == 2 ** (n - 1)


def _recursive_compositions(n):
    """Model: each first part from n down to 1, then the compositions of the rest."""
    if n == 0:
        yield ()
    for first in range(n, 0, -1):
        for rest in _recursive_compositions(n - first):
            yield (first, *rest)


def test_compositions_match_the_recursive_model():
    for n in range(13):
        assert list(compositions(n)) == list(_recursive_compositions(n))
    walk = compositions(-1)  # a generator: the error comes on the first next()
    with pytest.raises(ValueError, match="^compositions needs n >= 0$"):
        next(walk)


def test_compositions_fixed_parts():
    assert [c for c in compositions(3) if len(c) == 2] == [(2, 1), (1, 2)]
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert sum(1 for c in compositions(n) if len(c) == k) == math.comb(n - 1, k - 1)


def test_weak_compositions_counts():
    for total in range(6):
        for parts in range(5):
            got = list(weak_compositions((total,), parts))
            assert len(got) == multichoose(parts, total)
            assert len(set(got)) == len(got)
            assert all(len(c) == parts and sum(c) == total for c in got)
    for totals in [(2, 1), (0, 3, 1), (2, 2, 2)]:
        for parts in range(5):
            got = list(weak_compositions(totals, parts))
            assert len(got) == math.prod(multichoose(parts, t) for t in totals)
            rows = len(totals)
            assert all(tuple(sum(c[i::rows]) for i in range(rows)) == totals for c in got)


def _weak_compositions_recursive(total, parts):
    """Reference: choose the first part, largest first, then recurse."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in _weak_compositions_recursive(total - first, parts - 1):
            yield (first,) + rest


def _grids_by_rows_sorted(totals, parts):
    """Reference: every row's compositions combined, each grid read
    column by column, all sorted in decreasing order."""
    grids = itertools.product(*(_weak_compositions_recursive(t, parts) for t in totals))
    return sorted((tuple(itertools.chain.from_iterable(zip(*grid))) for grid in grids), reverse=True)


def test_weak_compositions_order_matches_the_recursive_definition():
    """One row gives the same tuples in the same order as the recursive
    definition, including no parts at all."""
    for total in range(7):
        for parts in range(6):
            got = weak_compositions((total,), parts)
            assert inspect.isgenerator(got)
            assert list(got) == list(_weak_compositions_recursive(total, parts)), (total, parts)
    assert list(weak_compositions((0,), 0)) == [()]
    assert list(weak_compositions((1,), 0)) == []
    assert list(weak_compositions((), 3)) == [()]
    with pytest.raises(ValueError):
        next(weak_compositions((-1,), 2))
    with pytest.raises(ValueError):
        next(weak_compositions((1,), -1))


def test_weak_compositions_of_several_rows_are_the_sorted_product_of_rows():
    """For every composition delta of n <= 6 and every k <= n the grids
    are those of each row's compositions combined, in decreasing order of
    their column-major reading, the order the signed row-sum stream needs."""
    for n in range(7):
        for delta in compositions(n):
            for parts in range(n + 1):
                got = list(weak_compositions(delta, parts))
                assert got == _grids_by_rows_sorted(delta, parts), (delta, parts)


def test_intpoly_arithmetic():
    p = IntPoly([1, 1])
    assert p * p == IntPoly([1, 2, 1])
    assert p**3 == IntPoly([1, 3, 3, 1])
    assert (p + IntPoly([0, 0, 2])) == IntPoly([1, 1, 2])
    assert p(5) == 6
    assert IntPoly([2, 0, 4])(Fraction(1, 2)) == 3


def test_intpoly_reverse_and_divide():
    p = IntPoly([1, 8, 4])
    assert p.reverse_coefficients(2) == IntPoly([4, 8, 1])
    assert p.reverse_coefficients(4) == IntPoly([0, 0, 4, 8, 1])
    with pytest.raises(ValueError):
        p.reverse_coefficients(1)
    assert IntPoly([2, 4]).divide_exact(2) == IntPoly([1, 2])
    with pytest.raises(ArithmeticError):
        IntPoly([1, 2]).divide_exact(2)


small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(IntPoly)


@given(small_polys, small_polys, st.integers(-5, 5))
def test_intpoly_evaluation_is_ring_hom(p, q, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)


def test_bipoly_product_and_eval():
    b = BiPoly({(2, 2): 4, (1, 2): 2, (2, 1): 2, (1, 1): 1})
    assert b.eval(1, 1) == 9
    row = b.eval_s(1)
    assert row == IntPoly([0, 3, 6])
    assert list(b.items()) == sorted(b.items())


def test_ratseries_geometric_and_rational():
    geo = RatSeries.geometric(6)
    assert geo.integer_coefficients() == [1] * 7
    r = RatSeries.from_rational(IntPoly([1]), IntPoly([1, -1]), 6)
    assert r.integer_coefficients() == [1] * 7
    r2 = RatSeries.from_rational(IntPoly([0, 1, 2]), IntPoly([1, -3]), 4)
    # (t + 2t^2) * sum 3^k t^k
    assert r2.integer_coefficients() == [0, 1, 5, 15, 45]


@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=4),
    st.lists(st.integers(-6, 6), min_size=1, max_size=4),
)
def test_ratseries_from_rational_inverts(num, den):
    den = [den[0] if den[0] != 0 else 1] + den[1:]
    p, q = IntPoly(num), IntPoly(den)
    order = 7
    series = RatSeries.from_rational(p, q, order)
    back = series * RatSeries(q.coeffs, order=order)
    target = RatSeries(p.coeffs, order=order)
    for k in range(order + 1):
        assert back.coefficient(k) == target.coefficient(k)


def test_ratseries_exp_log_inverse():
    order = 8
    composed = RatSeries.exp(order).compose(RatSeries.log_geometric(order))
    geo = RatSeries.geometric(order)
    for k in range(order + 1):
        assert composed.coefficient(k) == geo.coefficient(k)


def test_ratseries_fubini_egf():
    # 1/(2 - e^x), coefficients n! -> Fubini numbers
    order = 8
    two_minus_exp = RatSeries([2], order=order) - RatSeries.exp(order)
    inv = two_minus_exp.invert_unit()
    for n in range(order + 1):
        assert inv.coefficient(n) * math.factorial(n) == fubini(n)


def test_ratseries_egf_to_ogf_coefficients():
    assert RatSeries.exp(7).egf_to_ogf().integer_coefficients() == [1] * 8
    # 1/(1-x) as an EGF: the ordinary coefficients are n!
    assert RatSeries.geometric(5).egf_to_ogf().integer_coefficients() == [1, 1, 2, 6, 24, 120]


def test_ratseries_error_taxonomy():
    with pytest.raises(NeedsZeroConstantTerm):
        RatSeries.exp(4).compose(RatSeries([1], order=4))
    with pytest.raises(NeedsUnitConstantTerm):
        RatSeries([0, 1], order=4).invert_unit()
    with pytest.raises(SeriesError):
        RatSeries.geometric(3).coefficient(4)
    with pytest.raises(NeedsUnitConstantTerm):
        RatSeries.from_rational(IntPoly([1]), IntPoly([0, 1]), 3)


def test_ratseries_integer_coefficients_rejects_fractions():
    half = RatSeries.log_one_plus_x(3)
    with pytest.raises(ArithmeticError):
        half.integer_coefficients()


def test_ratseries_mixed_orders():
    mixed = RatSeries.geometric(5) + RatSeries.geometric(3)
    assert mixed.order == 3


# RatSeries against a model: a series of order N is the plain list of its
# N + 1 Fraction coefficients.

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
coeff_lists = st.lists(small_fractions, min_size=0, max_size=6)
orders = st.integers(0, 5)


def _model(cs, order):
    return (list(map(Fraction, cs)) + [Fraction(0)] * (order + 1))[: order + 1]


def _model_mul(a, b):
    order = min(len(a), len(b)) - 1
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(order + 1)]


def _model_compose(outer, inner):
    order = min(len(outer), len(inner)) - 1
    acc = [Fraction(0)] * (order + 1)
    for c in reversed(outer[: order + 1]):
        acc = _model_mul(acc, inner[: order + 1])
        acc[0] += c
    return acc


def _model_invert(a):
    inv = []
    for n in range(len(a)):
        acc = Fraction(int(n == 0)) - sum(a[k] * inv[n - k] for k in range(1, n + 1))
        inv.append(acc / a[0])
    return inv


def _agrees(series, model):
    assert series.order == len(model) - 1
    assert series.coeffs == tuple(model)
    assert [series.coefficient(n) for n in range(len(model))] == model
    # the same series built from its coefficients has the same form
    rebuilt = RatSeries(model, order=series.order)
    assert series == rebuilt and hash(series) == hash(rebuilt)
    fractional = [n for n, c in enumerate(model) if c.denominator != 1]
    if not fractional:
        assert series.integer_coefficients() == [int(c) for c in model]
        return
    n = fractional[0]
    message = f"coefficient of x^{n} is non-integral: {model[n]}"
    with pytest.raises(ArithmeticError, match=re.escape(message) + "$"):
        series.integer_coefficients()


@given(coeff_lists, orders, coeff_lists, orders, small_fractions, st.integers(-4, 4))
def test_ratseries_matches_the_list_model(a, order_a, b, order_b, q, k):
    x, y = RatSeries(a, order=order_a), RatSeries(b, order=order_b)
    ma, mb = _model(a, order_a), _model(b, order_b)
    _agrees(x, ma)
    _agrees(x + y, [u + v for u, v in zip(ma, mb)])
    _agrees(x - y, [u - v for u, v in zip(ma, mb)])
    _agrees(-x, [-u for u in ma])
    _agrees(x * y, _model_mul(ma, mb))
    for scalar in (q, k, 0):
        _agrees(x * scalar, [u * scalar for u in ma])
        _agrees(scalar * x, [scalar * u for u in ma])
    inner = RatSeries([0, *b], order=order_b)
    m_inner = _model([0, *b], order_b)
    _agrees(x.compose(inner), _model_compose(ma, m_inner))
    # the powers kept on inner serve a later compose at a lower order, and
    # grow for one at a higher order
    for order in (max(min(order_a, order_b) - 1, 0), order_b):
        _agrees(RatSeries(a[::-1], order=order).compose(inner), _model_compose(_model(a[::-1], order), m_inner))
    fresh = RatSeries([0, *b], order=order_b)
    assert inner._powers and inner == fresh and hash(inner) == hash(fresh)  # powers kept, not compared
    with pytest.raises(AttributeError):
        inner._powers = None
    if mb[0]:
        with pytest.raises(NeedsZeroConstantTerm):
            x.compose(y)
    if ma[0]:
        _agrees(x.invert_unit(), _model_invert(ma))
    else:
        with pytest.raises(NeedsUnitConstantTerm):
            x.invert_unit()


@example([], 0)
@example([0, 0, 0], 2)
@example([-3, 0, 5, -7], 6)
@given(st.lists(st.integers(-50, 50), max_size=8), orders)
def test_from_egf_divides_each_weight_by_its_factorial(weights, order):
    model = _model([Fraction(w, math.factorial(k)) for k, w in enumerate(weights)], order)
    _agrees(RatSeries.from_egf(weights, order), model)
    exp = RatSeries([Fraction(1, math.factorial(k)) for k in range(order + 1)], order=order)
    assert RatSeries.exp(order) == exp and hash(RatSeries.exp(order)) == hash(exp)


def test_ratseries_has_one_form_per_series():
    half = RatSeries([Fraction(1, 2)], order=2)
    for same in (
        RatSeries([Fraction(2, 4)], order=2),
        RatSeries([Fraction(1, 2), 0, 0], order=2),
        RatSeries([Fraction(1, 2), 0, 0, 7], order=2),
        RatSeries([1], order=2) * Fraction(1, 2),
        RatSeries([3, Fraction(1, 3)], order=2) - RatSeries([Fraction(5, 2), Fraction(2, 6)], order=2),
    ):
        assert same == half and hash(same) == hash(half)
    assert RatSeries([Fraction(1, 2)], order=3) != half
    zero = RatSeries([], order=2)
    assert zero == RatSeries([Fraction(0, 5)], order=2) == half * 0
    assert hash(zero) == hash(half * 0)
    with pytest.raises(AttributeError):
        half.coeffs = ()


def _frozen_classes(cls=_Frozen):
    for sub in cls.__subclasses__():
        yield sub
        yield from _frozen_classes(sub)


def _with(value, **fields):
    """A copy of value, past its constructor, with the given fields replaced."""
    out = object.__new__(value.__class__)
    for name in value.__slots__:
        _setattr(out, name, fields.get(name, getattr(value, name)))
    return out


# per frozen class: a sample (built afresh on each call), another value for
# each of its fields, and the fields its key leaves out
FROZEN_SAMPLES = {
    IntPoly: (lambda: IntPoly([1, 2]), {"coeffs": (1, 3)}, ()),
    BiPoly: (lambda: BiPoly({(0, 1): 2, (1, 0): 3}), {"terms": {(0, 1): 2}}, ()),
    RatSeries: (
        lambda: RatSeries([1, Fraction(1, 2)], order=2),
        {"order": 3, "_den": 4, "_nums": (2, 1, 1), "_powers": [RatSeries([0, 1], order=2)]},
        ("_powers",),
    ),
    AscentSetSpec: (lambda: AscentSetSpec(4, (1, 3)), {"n": 5, "positions": (1, 2)}, ()),
    AtomBallot: (
        lambda: AtomBallot((frozenset({(1,), (2,)}),), colors=(((1,), 0), ((2,), 1))),
        {"columns": (frozenset({(1,)}), frozenset({(2,)})), "colors": (((1,), 1), ((2,), 0)), "rows": ()},
        (),
    ),
    SignedLOMatrix: (
        lambda: SignedLOMatrix(from_length_grid(((1, 0),)), (1, -1)),
        {"matrix": from_length_grid(((0, 1),)), "signs": (1, 1)},
        (),
    ),
}


def test_every_frozen_class_compares_and_hashes_by_its_key():
    assert set(_frozen_classes()) == set(FROZEN_SAMPLES)  # a new class must join the table
    for cls, (make, others, left_out) in FROZEN_SAMPLES.items():
        value, twin = make(), make()
        assert set(others) == set(cls.__slots__)
        assert value == twin and hash(value) == hash(twin)
        for name, other in others.items():
            changed = _with(value, **{name: other})
            if name in left_out:
                assert changed == value and hash(changed) == hash(value)
            else:
                assert changed != value and value != changed
        fields = tuple(getattr(value, name) for name in cls.__slots__)
        assert value != fields and fields != value and value != cls._key(value)
        assert value.__eq__(object()) is NotImplemented
    base = from_length_grid(((1, 0),))
    assert hash(SignedLOMatrix(base, (1, -1))) == hash((base, (1, -1)))
    assert hash(IntPoly([1, 2])) == hash((1, 2))

