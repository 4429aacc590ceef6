"""Closed-form counts, polynomial formulas, certified sums, check suites."""

import itertools
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cayburge import burge, identities, lomat, words
from cayburge.burge import two_sided_brute
from cayburge.cli import main as cli_main
from cayburge.identities import (
    GENMAT_METHODS,
    MAT_METHODS,
    SUITES,
    UnconvergedError,
    beta_equal_by_subsets,
    beta_formula,
    carlitz_series,
    caylerian_formula,
    caylerian_from_two_sided,
    count_genmat,
    count_mat,
    double_sum_mat,
    genmat_ogf,
    halving_sum,
    halving_sum_exact,
    pairing_check,
    run_suite,
    two_sided_formula,
)
from cayburge.kernel import BiPoly, IntPoly, binomial, fubini, multichoose
from cayburge.words import AscentSetSpec, ascent_set, caylerian_brute, enumerate_cayley

MAT = [1, 1, 5, 33, 281, 2961, 37277]
BMAT = [1, 1, 4, 24, 196, 2016, 24976]


def test_count_genmat_anchor_values():
    for method in GENMAT_METHODS:
        assert count_genmat(2, 2, method=method) == 7
        assert count_genmat(2, 2, binary=True, method=method) == 5
    assert count_genmat(1, 2) == 2
    assert count_genmat(1, 2, binary=True) == 1
    assert count_genmat(0, 0) == 1
    assert count_genmat(0, 3) == 0


def test_count_genmat_closed_forms_small_m():
    # one row: compositions of n; binary one row: all singleton columns
    for n in range(1, 9):
        assert count_genmat(1, n) == 2 ** (n - 1)
        assert count_genmat(1, n, binary=True) == 1
    # two rows, size 2: quadratic anchors
    for m in range(7):
        assert count_genmat(m, 2) == (3 * m * m + m) // 2
        assert count_genmat(m, 2, binary=True) == (3 * m * m - m) // 2


def test_count_genmat_methods_agree():
    for m in range(5):
        for n in range(6):
            for binary in (False, True):
                vals = {
                    count_genmat(m, n, binary=binary, method=meth)
                    for meth in GENMAT_METHODS
                }
                assert len(vals) == 1, (m, n, binary, vals)


def test_count_genmat_errors():
    with pytest.raises(ValueError):
        count_genmat(2, 2, method="guess")
    with pytest.raises(ValueError):
        count_genmat(-1, 2)


def test_count_mat_anchors_and_methods():
    for n in range(7):
        for method in ("stirling", "enumerate") if n <= 5 else ("stirling",):
            assert count_mat(n, method=method) == MAT[n]
            assert count_mat(n, binary=True, method=method) == BMAT[n]
    for n in range(5):
        assert count_mat(n, method="double-sum") == MAT[n]
        assert count_mat(n, binary=True, method="double-sum") == BMAT[n]
    with pytest.raises(ValueError):
        count_mat(2, method="guess")
    assert set(MAT_METHODS) == {"stirling", "enumerate", "double-sum"}


def test_caylerian_formula_values():
    assert caylerian_formula(0) == IntPoly([1])
    assert caylerian_formula(2) == IntPoly([1, 2])
    assert caylerian_formula(2, strict=True) == IntPoly([2, 1])
    assert caylerian_formula(3) == IntPoly([1, 8, 4])
    assert caylerian_formula(4) == IntPoly([1, 24, 42, 8])
    for n in range(7):
        assert caylerian_formula(n) == caylerian_brute(n)
        assert caylerian_formula(n, strict=True) == caylerian_brute(n, strict=True)


def test_caylerian_evaluations():
    for n in range(7):
        assert caylerian_formula(n)(2) == MAT[n]
        assert caylerian_formula(n, strict=True)(2) == BMAT[n]


def test_two_sided_formula_values():
    poly = two_sided_formula(2)
    assert dict(poly.items()) == {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 2}
    for n in range(6):
        for strict in (False, True):
            assert two_sided_formula(n, strict=strict) == two_sided_brute(
                n, binary=strict
            )
            assert two_sided_formula(n, strict=strict).eval(1, 1) == (
                BMAT if strict else MAT
            )[n]


def test_caylerian_from_two_sided():
    for n in range(6):
        for strict in (False, True):
            poly = two_sided_formula(n, strict=strict)
            assert caylerian_from_two_sided(poly, n) == caylerian_formula(
                n, strict=strict
            )


def test_beta_formula_examples_and_brute():
    assert beta_formula(AscentSetSpec(2, ()), strict=True) == 2
    assert beta_formula(AscentSetSpec(2, (1,)), strict=False) == 3
    for n in range(1, 6):
        for strict in (False, True):
            tally = Counter(ascent_set(w, strict) for w in enumerate_cayley(n))
            for r in range(n):
                for s in itertools.combinations(range(1, n), r):
                    spec = AscentSetSpec(n, s)
                    inside = sum(c for a, c in tally.items() if a <= frozenset(s))
                    assert beta_formula(spec, strict=strict) == inside
                    assert beta_equal_by_subsets(spec, strict=strict) == tally[frozenset(s)]


def test_beta_sums_over_row_sum_classes_recover_totals():
    # delta is a bijection between position sets and compositions, so
    # summing the per-row-sum matrix counts recovers the full counts
    for n in range(1, 7):
        strict_total = 0
        weak_total = 0
        for r in range(n):
            for s in itertools.combinations(range(1, n), r):
                spec = AscentSetSpec(n, s)
                strict_total += beta_formula(spec, strict=True)
                weak_total += beta_formula(spec, strict=False)
        assert strict_total == MAT[n]
        assert weak_total == BMAT[n]


def test_carlitz_series_values():
    assert carlitz_series(2, strict=False, order=4) == [0, 1, 5, 12, 22]
    assert carlitz_series(2, strict=True, order=4) == [0, 2, 7, 15, 26]
    assert carlitz_series(0, order=3) == [0, 1, 1, 1]


def test_carlitz_series_matches_swapped_counts():
    for n in range(6):
        weak = carlitz_series(n, strict=False, order=6)
        strict = carlitz_series(n, strict=True, order=6)
        for m in range(1, 7):
            assert weak[m] == count_genmat(m, n, binary=True)
            assert strict[m] == count_genmat(m, n)


def test_pairing_check_result():
    [pc] = pairing_check(5, 6)
    assert pc.status == "pass"
    assert pc.params["consistent"] == ["weak-binary/strict-general"]
    assert pc.witness is None
    assert pc.params["cell_2_2"] == {
        "series": {"weak": 5, "strict": 7},
        "counts": {"general": 7, "binary": 5},
    }
    cells = pc.params["as_printed_cells"]
    assert [n_m[2] for n_m in cells if n_m[:2] == [2, 2]] == [False]
    # the as-written pairing fails somewhere but not everywhere
    flags = {c[2] for c in cells}
    assert flags == {True, False}


@pytest.mark.parametrize("max_n, max_m", [(1, 8), (8, 0)])
def test_pairing_check_grid_too_small_to_separate(max_n, max_m):
    # n <= 1 holds no cell where the pairings differ; m = 0 holds no cell
    [pc] = pairing_check(max_n, max_m)
    assert (pc.status, pc.witness) == ("pass", None)
    assert pc.params["consistent"] == ["weak-general/strict-binary", "weak-binary/strict-general"]
    assert pc.detail == (
        "consistent pairing: undetermined (grid too small to separate); "
        "as-written pairing fails in 0 cells"
    )
    assert len(pc.params["as_printed_cells"]) == (max_n + 1) * max_m


@pytest.mark.parametrize(
    "perturb, witness, as_written_failures",
    [
        (lambda real: lambda m, n, binary=False: real(m, n, binary) + ((m, n, binary) == (2, 2, False)),
         {"n": 2, "m": 2, "series": {"weak": 5, "strict": 7}, "counts": {"general": 8, "binary": 5}}, 6),
        # the two counts swapped at (2, 2): the as-written pairing holds
        # there and the other fails, while the as-written one still fails
        # at (2, 1), so no cell fails both
        (lambda real: lambda m, n, binary=False: real(m, n, binary != ((m, n) == (2, 2))), None, 5),
    ],
    ids=["general-one-more-at-2-2", "counts-swapped-at-2-2"],
)
def test_pairing_check_fails_with_no_consistent_pairing(
    monkeypatch, perturb, witness, as_written_failures
):
    monkeypatch.setattr(identities, "count_genmat", perturb(identities.count_genmat))
    [pc] = pairing_check(3, 3)
    assert (pc.status, pc.params["consistent"], pc.witness) == ("fail", [], witness)
    assert pc.detail == (
        f"consistent pairing: none; as-written pairing fails in {as_written_failures} cells"
    )


def test_genmat_ogf_coefficients():
    series = genmat_ogf(2, 5)
    got = series.integer_coefficients()
    assert got[:3] == [1, 2, 7]
    for n in range(6):
        assert got[n] == count_genmat(2, n)
    bseries = genmat_ogf(2, 5, binary=True)
    for n in range(6):
        assert bseries.integer_coefficients()[n] == count_genmat(2, n, binary=True)


def test_halving_sum_certificates():
    for n in range(21):
        for binary in (False, True):
            partial, tail = halving_sum(n, binary=binary)
            assert tail < Fraction(1, 2)
            exact = halving_sum_exact(n, binary=binary)
            assert partial <= exact <= partial + tail
            assert exact == count_mat(n, binary=binary)
    with pytest.raises(ValueError):
        halving_sum(2, tail_bound=Fraction(0))
    with pytest.raises(ValueError):
        halving_sum(2, tail_bound=Fraction(2, 3))


def test_halving_sum_unconverged():
    with pytest.raises(UnconvergedError):
        halving_sum(2, tail_bound=Fraction(1, 2**9000))


@pytest.mark.parametrize("tail_bound", [Fraction(1, 2), Fraction(1, 1000)])
def test_certified_sums_stop_at_the_least_truncation(monkeypatch, tail_bound):
    """Both certified sums, n <= 20: the truncation returned certifies,
    and the one below it does not, unless it is the first tried."""
    calls = []
    real = identities._certify

    def recording(what, tail_at, start, bound):
        trunc, tail = real(what, tail_at, start, bound)
        calls.append((tail_at, start, trunc, tail))
        return trunc, tail

    monkeypatch.setattr(identities, "_certify", recording)
    for n in range(21):
        halving_sum(n, tail_bound=tail_bound)
        double_sum_mat(n, tail_bound=tail_bound)
    assert len(calls) == 42
    for tail_at, start, trunc, tail in calls:
        assert tail_at(trunc) == tail < tail_bound
        below = tail_at(trunc - 1)
        assert trunc == start or below is None or below >= tail_bound


def test_double_sum_values():
    for n in range(21):
        for binary in (False, True):
            value, partial, tail = double_sum_mat(n, binary=binary)
            assert value == count_mat(n, binary=binary)
            assert partial <= value <= partial + tail
            assert tail < Fraction(1, 2)


def _shift(n, binary):
    """The least c with c^2 >= n - 1, or 0 when binary: then
    coef(rs, n) <= ((r+c)(s+c))^n / n!."""
    return 0 if binary else next(c for c in itertools.count() if c * c >= n - 1)


def _double_sum_by_fractions(n, binary):
    """The double sum over the full square, with a Fraction per tail term
    and 2 ** k weights: the model the shifted, halved sum must match."""
    c = _shift(n, binary)

    def tail_at(trunc):
        rho = Fraction((trunc + c + 2) ** n, 2 * (trunc + c + 1) ** n)
        if rho >= 1:
            return None
        tail_f = Fraction((trunc + 1 + c) ** n, 2 ** (trunc + 1)) / (1 - rho)
        s_all = sum(Fraction((r + c) ** n, 2**r) for r in range(trunc + 1)) + tail_f
        return 2 * tail_f * s_all / (4 * math.factorial(n))

    trunc, tail = identities._certify("model", tail_at, 2 * n + 8, Fraction(1, 2))
    coef = binomial if binary else multichoose
    num = sum(
        coef(r * s, n) * 2 ** (2 * trunc - r - s)
        for r in range(trunc + 1)
        for s in range(trunc + 1)
    )
    partial = Fraction(num, 2 ** (2 * trunc + 2))
    return math.ceil(partial), partial, tail


@pytest.mark.parametrize("binary", [False, True])
def test_double_sum_matches_the_fraction_model(binary):
    # every size formula-queries sends to `count mat --method double-sum`
    for n in range(21):
        assert double_sum_mat(n, binary=binary) == _double_sum_by_fractions(n, binary)


@pytest.mark.parametrize("binary", [False, True])
def test_the_double_sum_certificate_bounds_each_coefficient(binary):
    coef = binomial if binary else multichoose
    for n in range(21):
        c, nf = _shift(n, binary), math.factorial(n)
        for r in range(41):
            for s in range(41):
                assert coef(r * s, n) * nf <= ((r + c) * (s + c)) ** n


@pytest.mark.parametrize("binary", [False, True])
def test_the_double_sum_tail_covers_the_terms_past_the_square(binary, monkeypatch):
    """For n <= 6 the certified tail exceeds the exact mass of the terms
    in [0, 3 trunc]^2 outside [0, trunc]^2."""
    truncs = []
    real = identities._certify

    def recording(*args):
        trunc, tail = real(*args)
        truncs.append(trunc)
        return trunc, tail

    monkeypatch.setattr(identities, "_certify", recording)
    coef = binomial if binary else multichoose
    for n in range(7):
        _, _, tail = double_sum_mat(n, binary=binary)
        trunc = truncs.pop()
        wide = 3 * trunc
        outside = sum(
            coef(r * s, n) << (2 * wide - r - s)
            for r in range(wide + 1)
            for s in range(wide + 1)
            if max(r, s) > trunc
        )
        assert Fraction(outside, 1 << (2 * wide + 2)) < tail


def test_the_double_sum_evaluates_each_coefficient_once(monkeypatch):
    """No (x, n) reaches binomial or multichoose twice in one call."""
    seen = []
    for name in ("binomial", "multichoose"):
        real = getattr(identities, name)
        monkeypatch.setattr(identities, name, lambda x, n, real=real: seen.append((x, n)) or real(x, n))
    for n in range(21):
        for binary in (False, True):
            seen.clear()
            double_sum_mat(n, binary=binary)
            assert seen and len(set(seen)) == len(seen)


def test_double_sum_rejects_bad_bound():
    with pytest.raises(ValueError):
        double_sum_mat(2, tail_bound=Fraction(3, 4))


def _eight_more_at_one(real):
    return lambda k, n: real(k, n) + 8 * (k == 1)


def test_a_wrong_double_sum_fails_with_a_witness(monkeypatch, capsys):
    """Eight more in coef(1, n) moves the r = s = 1 term, and with it the
    partial sum, by exactly 1/2: no integer lies in the certified
    interval, so the check fails, as a wrong halving sum does."""
    for coef in ("binomial", "multichoose"):
        monkeypatch.setattr(identities, coef, _eight_more_at_one(getattr(identities, coef)))
    assert double_sum_mat(2)[0] is None
    results = identities.check_double_sum(3)
    assert [r.status for r in results] == ["fail", "fail"]
    assert [r.witness for r in results] == [{"n": 0, "count": 1, "double-sum": None}] * 2
    with pytest.raises(UnconvergedError, match="no integer inside the certified interval for n=2"):
        count_mat(2, method="double-sum")
    assert cli_main(["count", "mat", "--n", "2", "--method", "double-sum"]) == 3
    assert capsys.readouterr() == ("", "no integer inside the certified interval for n=2\n")


# random points past the exhaustive grids of verify, which stop at n = 8

_RANDOM_POINTS = settings(max_examples=25, deadline=None, derandomize=True)


@_RANDOM_POINTS
@given(st.integers(0, 6), st.integers(0, 30), st.booleans())
def test_count_genmat_closed_forms_agree_at_random_points(m, n, binary):
    methods = ("stirling", "inclexcl", "ogf-coefficient", "compositions")
    values = {count_genmat(m, n, binary, method) for method in methods}
    assert len(values) == 1


def test_the_compositions_count_walks_only_compositions_of_half_the_size(monkeypatch):
    """The split sum equals the sum over every composition of n, yet
    walks no composition of a size above n // 2."""
    real = identities.compositions

    def every_composition(m, n, binary):
        fills = [(binomial if binary else multichoose)(m, p) for p in range(n + 1)]
        return sum(math.prod(map(fills.__getitem__, comp)) for comp in real(n))

    sizes = []
    monkeypatch.setattr(identities, "compositions", lambda j: sizes.append(j) or real(j))
    for m, n, binary in itertools.product(range(5), range(15), (False, True)):
        sizes.clear()
        assert count_genmat(m, n, binary, "compositions") == every_composition(m, n, binary)
        assert max(sizes, default=0) <= n // 2


@pytest.mark.parametrize("binary, coef, expected", [(False, "multichoose", 101), (True, "binomial", 44)])
def test_the_compositions_fill_row_goes_through_the_coefficient_wrappers(monkeypatch, binary, coef, expected):
    """One more in the fill count of a part of size 2 changes the terms of
    (2, 2) and the three orders of (2, 1, 1) in the sum over the
    compositions of 4, and no other method."""
    real = getattr(identities, coef)
    before = count_genmat(2, 4, binary, "compositions")
    monkeypatch.setattr(identities, coef, lambda m, k: real(m, k) + (k == 2))
    assert before == count_genmat(2, 4, binary, "stirling")
    assert count_genmat(2, 4, binary, "compositions") == expected
    assert count_genmat(2, 4, binary, "stirling") == before


@_RANDOM_POINTS
@given(st.integers(0, 30), st.booleans())
def test_count_mat_matches_the_halving_sum_at_random_points(n, binary):
    assert count_mat(n, binary) == halving_sum_exact(n, binary)


@_RANDOM_POINTS
@given(st.integers(0, 30), st.booleans())
def test_caylerian_formula_evaluations_at_random_points(n, strict):
    assert caylerian_formula(n)(1) == fubini(n)
    assert caylerian_formula(n, strict)(2) == count_mat(n, strict)


@_RANDOM_POINTS
@given(st.integers(0, 30), st.booleans())
def test_two_sided_formula_specialises_at_random_points(n, strict):
    two_sided = two_sided_formula(n, strict)
    assert caylerian_from_two_sided(two_sided, n) == caylerian_formula(n, strict)
    assert two_sided.eval(1, 1) == count_mat(n, strict)


@_RANDOM_POINTS
@given(st.integers(0, 12), st.integers(0, 4))
def test_species_series_at_random_orders(max_n, max_m):
    # past the cap of 6 that verify puts on this check
    assert [r.status for r in identities.check_species_series(max_n, max_m)] == ["pass"]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 20), st.booleans())
def test_double_sum_at_random_points(n, binary):
    assert count_mat(n, binary, method="double-sum") == count_mat(n, binary)


def test_run_suite_all_passes():
    results = run_suite("all", 4, 2)
    assert results and all(r.ok for r in results)
    names = {r.name for r in results}
    assert "carlitz-pairing" in names
    assert "gamma-involution" in names or any("gamma" in n for n in names)


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("everything", 3, 2)
    assert set(SUITES) == {
        "kernel",
        "bijections",
        "involutions",
        "formulas",
        "pairing",
        "gf",
    }


def test_check_results_carry_params():
    for r in run_suite("pairing", 3, 3):
        assert r.name and r.status in ("pass", "fail", "unconverged")
        assert isinstance(r.params, dict)
        assert r.ok == (r.status == "pass")


def test_run_suite_reports_effective_bounds():
    params = {r.name: r.params for r in run_suite("formulas", 8, 2)}
    assert params["count-mat-vs-enumeration"]["max_n"] == 6
    assert params["caylerian-formula-vs-brute"]["max_n"] == 7
    assert params["caylerian-evaluations"]["max_n"] == 8
    assert params["count-genmat-method-agreement"]["enum_max_m"] == 2


def test_run_suite_clamps_every_check_to_its_caps(monkeypatch):
    """run_suite("all", 8, 8) hands each check its bounds clamped to the
    caps in SUITES, and no result reports a larger bound.  The enumerative
    suites are stubbed out so that only the table is exercised there."""
    quick = {check for suite in ("kernel", "pairing", "gf") for check, _, _ in SUITES[suite]}
    received = {}
    for entries in SUITES.values():
        for check, _, _ in entries:

            def record(*args, check=check, real=getattr(identities, check)):
                results = real(*args) if check in quick else []
                received[check] = (args, [results] if hasattr(results, "params") else results)
                return results

            monkeypatch.setattr(identities, check, record)
    tail_bound = Fraction(1, 4)
    run_suite("all", 8, 8, tail_bound)
    for entries in SUITES.values():
        for check, n_cap, m_cap in entries:
            args, results = received[check]
            expected = [min(8, n_cap)] + ([] if m_cap is None else [min(8, m_cap)])
            if check in ("check_halving", "check_double_sum"):
                expected.append(tail_bound)
            assert list(args) == expected, check
            for r in results:
                assert r.params.get("max_n", 0) <= args[0], (check, r.params)
                if m_cap is not None:
                    assert r.params.get("max_m", 0) <= args[1], (check, r.params)


def test_a_check_that_raises_becomes_an_error_result(monkeypatch, capsys):
    """A check that raises gives one error result, with its clamped bounds
    and the exception as witness, and the checks after it still run;
    verify prints every result and exits 1."""
    real = words.cayley_to_ballot

    def refusing_one_letter(w):
        if w == (1,):
            raise ValueError("refused (1,)")
        return real(w)

    # the round trip calls it, and so does check_act_bijection through enumerate_ballots
    monkeypatch.setattr(words, "cayley_to_ballot", refusing_one_letter)
    results = run_suite("bijections", 3, 8)
    witness = {"type": "ValueError", "message": "refused (1,)"}
    assert results[0] == identities.CheckResult("check_cayley_ballot", {"max_n": 3}, "error", witness)
    assert results[2] == identities.CheckResult("check_act_bijection", {"max_n": 3, "max_m": 3}, "error", witness)
    assert [(r.name, r.status) for r in results[1::2]] == [
        ("burge-word-matrix-bijection", "pass"),
        ("atom-ballot-roundtrip", "pass"),
    ]
    assert cli_main(["verify", "all", "--max-n", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "31 checks: 29 pass, 0 fail, 0 unconverged, 2 error"  # each raising check held two results
    errors = [line.split()[:3] for line in lines if line.startswith("ERROR")]
    assert errors == [["ERROR", "check_cayley_ballot", "[max_n=3]"], ["ERROR", "check_act_bijection", "[max_n=3,"]]
    assert cli_main(["verify", "bijections", "--max-n", "3", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["summary"] == {"pass": 2, "fail": 0, "unconverged": 0, "error": 2}


def test_failing_route_witness_carries_every_route(monkeypatch):
    real = identities.count_genmat

    def off_by_one(m, n, binary=False, method="stirling"):
        return real(m, n, binary=binary, method=method) + (method == "inclexcl")

    monkeypatch.setattr(identities, "count_genmat", off_by_one)
    (result,) = identities.check_count_methods(2, 1)
    assert result.status == "fail"
    assert set(GENMAT_METHODS) <= set(result.witness)
    assert result.witness["inclexcl"] == result.witness["stirling"] + 1
    json.dumps(result.witness)


def test_polynomial_witnesses_are_json_safe(monkeypatch):
    formula = identities.caylerian_formula
    monkeypatch.setattr(
        identities, "caylerian_formula", lambda n, strict=False: formula(n, strict) + IntPoly([1])
    )
    result = identities.check_caylerian(3)[0]
    assert result.status == "fail"
    assert result.witness == {"strict": False, "n": 0, "formula": [2], "brute": [1]}
    two_sided = identities.two_sided_formula
    monkeypatch.setattr(
        identities,
        "two_sided_formula",
        lambda n, strict=False: BiPoly(Counter(two_sided(n, strict).terms) + Counter({(0, 0): 1})),
    )
    result = identities.check_two_sided(2)[0]
    assert result.status == "fail"
    assert result.witness == {"strict": False, "n": 0, "formula": [[0, 0, 2]], "brute": [[0, 0, 1]]}
    json.dumps([result.witness, identities.check_caylerian(3)[0].witness])


@pytest.mark.parametrize(
    "module, generator, route",
    [(lomat, "enumerate_signed", "signed"), (burge, "enumerate_mat", "enum")],
    ids=["signed", "enum"],
)
def test_row_sum_generators_are_load_bearing(monkeypatch, module, generator, route):
    """A row-sum generator that loses one object fails its check, and the
    witness shows the route it feeds one short of the formula.  The other
    involution checks are stubbed out; they never pass row_sums_spec."""
    real = getattr(module, generator)

    def drop_first(*args, row_sums_spec=None, **kwargs):
        stream = real(*args, row_sums_spec=row_sums_spec, **kwargs)
        if row_sums_spec is not None:
            next(stream)
        return stream

    monkeypatch.setattr(module, generator, drop_first)
    for check, _, _ in SUITES["involutions"]:
        if check != "check_gamma_row_filtered":
            monkeypatch.setattr(identities, check, lambda *bounds: [])
    (result,) = run_suite("involutions", 5, 2)
    assert (result.name, result.status) == ("gamma-row-filtered-sum", "fail")
    witness = result.witness
    other = {"signed": "enum", "enum": "signed"}[route]
    assert witness[route] == witness["formula"] - 1 and witness[other] == witness["formula"]


def _act_fixing_one_word(real, w0=(2, 1)):
    return lambda w, base: base if w == w0 else real(w, base)


def _without_its_first(real):
    def drop_first(*args, **kwargs):
        stream = real(*args, **kwargs)
        next(stream, None)
        return stream

    return drop_first


def _first_in_place_of_its_second(real):
    def repeat_first(*args, **kwargs):
        stream = real(*args, **kwargs)
        first = next(stream, None)
        if first is None:
            return
        yield first
        if next(stream, None) is not None:
            yield first
        yield from stream

    return repeat_first


@pytest.mark.parametrize(
    "route, perturb, counts_agree",
    [
        ("act", _act_fixing_one_word, True),
        ("enumerate_lomat_direct", _without_its_first, False),
        ("enumerate_lomat_direct", _first_in_place_of_its_second, True),
    ],
    ids=["act-misses-one-image", "direct-loses-one", "direct-repeats-one"],
)
def test_action_image_vs_direct_is_load_bearing(monkeypatch, route, perturb, counts_agree):
    """The action image, streamed against the direct route, still tells the
    two routes apart when either one is off by a single structure.  Where
    both routes still count the same, only the one mark per (base,
    permutation) pair can tell.  The other bijection checks are stubbed
    out."""
    monkeypatch.setattr(lomat, route, perturb(getattr(lomat, route)))
    for check, _, _ in SUITES["bijections"]:
        if check != "check_act_bijection":
            monkeypatch.setattr(identities, check, lambda *bounds: [])
    results = {r.name: r for r in run_suite("bijections", 5, 2)}
    result = results["action-image-vs-direct"]
    assert result.status == "fail"
    witness = result.witness
    assert {"via_action", "direct", "in_both"} <= set(witness)
    assert witness["in_both"] < max(witness["via_action"], witness["direct"])
    assert (witness["via_action"] == witness["direct"]) == counts_agree


def test_the_action_bijection_check_runs_in_bounded_memory():
    """Neither route is held: the check keeps the bases, the permutations
    and one byte per pair.  Holding the direct route as a set peaked near
    13.1 MB here."""
    tracemalloc.start()
    try:
        results = identities.check_act_bijection(5, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.status for r in results] == ["pass", "pass"]
    assert peak < 3_000_000


def _gamma_setting_leftmost_empty_negative(real):
    def gamma(sm):
        j = lomat.leftmost_empty_column(sm.matrix)
        if not j:
            return sm
        return lomat.SignedLOMatrix(sm.matrix, sm.signs[: j - 1] + (-1,) + sm.signs[j:])

    return gamma


def _tau_fixing_descending_swaps(real):
    def tau(x):
        image = real(x)
        # the two words differ only at the swap, so the larger one descends there
        return x if image.word > x.word else image

    return tau


def _xi_atoms_flipped_on_one(real, one=lomat.LinOrderMatrix((2, 1), ((2,),))):
    return lambda x: -real(x) if x == one else real(x)


@pytest.mark.parametrize(
    "owner, route, perturb, check",
    [
        (lomat, "gamma", lambda real: lambda sm: sm, "check_gamma"),
        (lomat, "gamma", _gamma_setting_leftmost_empty_negative, "check_gamma"),
        (lomat, "tau", lambda real: lambda x: x, "check_tau"),
        (lomat, "tau", _tau_fixing_descending_swaps, "check_tau"),
        (lomat, "xi_atoms", _xi_atoms_flipped_on_one, "check_tau"),
        (lomat, "enumerate_signed", _without_its_first, "check_gamma"),
        (lomat, "enumerate_lomat", _without_its_first, "check_tau"),
        (burge, "enumerate_mat", _without_its_first, "check_tau_row_complete"),
        (lomat, "xi_atoms", _xi_atoms_flipped_on_one, "check_tau_row_complete"),
    ],
    ids=[
        "gamma-identity",
        "gamma-sets-minus",
        "tau-identity",
        "tau-fixes-descending-swaps",
        "xi-atoms-flipped-on-one",
        "signed-loses-one",
        "lomat-loses-one",
        "row-complete-loses-one",
        "row-complete-xi-atoms-flipped-on-one",
    ],
)
def test_involution_walk_is_load_bearing(monkeypatch, owner, route, perturb, check):
    """A broken involution, sign or family never lets every result of its
    check pass: the matching walk and the signed sum together carry the
    proof.  The other involution checks are stubbed out, and the check's
    unperturbed run at n, m <= 1 gives the number of results to expect."""
    for other, _, _ in SUITES["involutions"]:
        if other != check:
            monkeypatch.setattr(identities, other, lambda *bounds: [])
    expected = len(run_suite("involutions", 1, 1))
    monkeypatch.setattr(owner, route, perturb(getattr(owner, route)))
    results = run_suite("involutions", 5, 2)
    assert len(results) == expected and not all(r.ok for r in results)


def _gamma_flipping_two_nonempty_columns(real):
    """gamma, plus a sign flip of the first two nonempty columns whenever
    it moves a structure that has two: still an involution reversing xi
    with the same fixed set, but those images sign a nonempty column -1."""

    def gamma(sm):
        image = real(sm)
        nonempty = [j for j, column in enumerate(zip(*sm.matrix.grid)) if any(column)]
        if image == sm or len(nonempty) < 2:
            return image
        signs = list(image.signs)
        for j in nonempty[:2]:
            signs[j] = -signs[j]
        return lomat.SignedLOMatrix(sm.matrix, tuple(signs))

    return gamma


def _tau_toggling_an_empty_last_row(real):
    """tau, plus an empty last row added to an even number of rows or
    dropped from an odd one: still an involution reversing xi_atoms with
    the same fixed set, but its images of 2-row structures have 3 rows."""

    def tau(x):
        image = real(x)
        grid = image.grid
        if image == x or (len(grid) % 2 and any(grid[-1])):
            return image
        grid = grid[:-1] if len(grid) % 2 else grid + ((0,) * image.cols,)
        return lomat.LinOrderMatrix(image.word, grid)

    return tau


@pytest.mark.parametrize(
    "route, perturb, check, first",
    [
        ("gamma", _gamma_flipping_two_nonempty_columns, identities.check_gamma, {"m": 1, "n": 3}),
        ("tau", _tau_toggling_an_empty_last_row, identities.check_tau, {"m": 2, "n": 2}),
    ],
    ids=["gamma-flips-two-nonempty-columns", "tau-toggles-an-empty-last-row"],
)
def test_involution_images_stay_in_their_family(monkeypatch, route, perturb, check, first):
    """An involution that reverses the sign and keeps the fixed set, but
    sends members outside the family, fails <route>-involution at the
    first such image, on the membership test alone: the signed sum
    still passes."""
    monkeypatch.setattr(lomat, route, perturb(getattr(lomat, route)))
    involution, signed_sum = check(5, 2)
    assert (involution.name, involution.status) == (f"{route}-involution", "fail")
    assert involution.witness == {**first, "bad": "image outside the family"}
    assert (signed_sum.name, signed_sum.status) == (f"{route}-signed-sum", "pass")


def _dropping_an_atom_of_a_two_atom_block(real):
    def to_atom_ballot(m, row_mode="color"):
        ballot = real(m, row_mode)
        columns = ballot.columns
        for j, block in enumerate(columns):
            if len(block) == 2:
                kept = frozenset([min(block)])
                return lomat.AtomBallot(columns[:j] + (kept,) + columns[j + 1 :], ballot.colors, ballot.rows)
        return ballot

    return to_atom_ballot


def test_atom_ballot_decoder_refusal_fails_the_round_trip(monkeypatch, capsys):
    """An encoding the decoder refuses is a failed round trip, reported
    with its message, not an exception out of verify."""
    monkeypatch.setattr(
        lomat, "to_atom_ballot", _dropping_an_atom_of_a_two_atom_block(lomat.to_atom_ballot)
    )
    assert cli_main(["verify", "bijections"]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if " atom-ballot-roundtrip " in line]
    assert len(lines) == 1 and lines[0].startswith("FAIL ")
    (result,) = identities.check_atom_ballot(2, 2)
    assert result.status == "fail"
    assert result.witness == {
        "m": 1,
        "n": 2,
        "mode": "color",
        "error": "an atom has two rows, or a row holds an atom of no block",
    }


def test_atom_ballot_check_round_trips_in_both_modes(monkeypatch):
    """Every structure round-trips through its colors, and every one with
    no empty row through its row ballot too."""
    modes, real = Counter(), lomat.to_atom_ballot

    def to_atom_ballot(structure, row_mode="color"):
        modes[row_mode] += 1
        return real(structure, row_mode=row_mode)

    monkeypatch.setattr(lomat, "to_atom_ballot", to_atom_ballot)
    (result,) = identities.check_atom_ballot(4, 2)
    assert result.ok
    structures = sum(math.factorial(n) * count_genmat(m, n) for m in range(3) for n in range(5))
    no_empty_row = sum(
        math.factorial(n) * (-1) ** j * math.comb(m, j) * count_genmat(m - j, n)
        for m in range(3)
        for n in range(5)
        for j in range(m + 1)
    )
    assert modes == {"color": structures, "ballot": no_empty_row} == {"color": 2352, "ballot": 1908}


def test_word_matrix_image_is_counted_against_the_closed_form(monkeypatch):
    """Unfiltered enumerate_mat maps enumerate_burge through word_to_matrix,
    so only a count from the closed form tells a lost Burge word."""
    monkeypatch.setattr(burge, "enumerate_burge", _without_its_first(burge.enumerate_burge))
    (result,) = identities.check_word_matrix(3)
    assert result.status == "fail"
    assert result.witness["bad"] == "image set"


def test_word_matrix_check_fails_when_two_words_share_an_image(monkeypatch):
    """No image is held, yet a word_to_matrix that sends two words to one
    matrix fails: the second word does not round-trip."""
    first, second = itertools.islice(burge.enumerate_burge(3), 2)
    real = burge.word_to_matrix
    monkeypatch.setattr(burge, "word_to_matrix", lambda bw: real(first if bw == second else bw))
    (result,) = identities.check_word_matrix(3)
    assert result.status == "fail"
    assert result.witness == {"n": 3, "binary": False, "word": second, "bad": "roundtrip"}


def test_word_matrix_check_fails_on_a_repeated_word(monkeypatch):
    """A Burge stream that repeats one word in place of the next keeps the
    count and every round trip; only its strictly increasing order tells."""
    monkeypatch.setattr(burge, "enumerate_burge", _first_in_place_of_its_second(burge.enumerate_burge))
    (result,) = identities.check_word_matrix(3)
    assert result.status == "fail"
    assert result.witness["bad"] == "order"


def test_certified_checks_honour_the_tail_bound():
    for result in run_suite("gf", 2, 1, Fraction(1, 8)):
        if result.name.startswith(("halving", "double")):
            assert result.status == "pass"
            assert result.params["tail_bound"] == "1/8"
    unconverged = identities.check_halving(2, Fraction(1, 2**9000))
    assert [r.status for r in unconverged] == ["unconverged"] * 2
    assert unconverged[0].witness == {"n": 0}


def _ignoring_strict(real):
    return lambda n, strict: real(n, False)


def _without_its_last_difference(real):
    # the j-th forward difference reads values[: j + 1] only
    return lambda values: real(values[:-1])


def _cut_to_a_quarter(real):
    def certify(what, tail_at, start, tail_bound):
        trunc, tail = real(what, tail_at, start, tail_bound)
        return trunc // 4, tail

    return certify


@pytest.mark.parametrize(
    "helper, perturb, check, bounds, name, routes",
    [
        ("_stirling_row", _ignoring_strict, "check_count_methods", (5, 2),
         "count-genmat-method-agreement", GENMAT_METHODS),
        ("_stirling_row", _ignoring_strict, "check_caylerian", (5,),
         "caylerian-formula-vs-brute", ("formula", "brute")),
        ("_stirling_row", _ignoring_strict, "check_two_sided", (5,),
         "two-sided-formula-vs-brute", ("formula", "brute")),
        ("_newton_sum", _without_its_last_difference, "check_count_methods", (5, 2),
         "count-genmat-method-agreement", GENMAT_METHODS),
        ("_newton_sum", _without_its_last_difference, "check_beta", (5,),
         "beta-formula-vs-brute", ("formula", "brute")),
        ("_newton_sum", _without_its_last_difference, "check_halving", (5,),
         "halving-sum-general", ("count", "certified", "newton")),
        ("_newton_sum", _without_its_last_difference, "check_halving", (5,),
         "halving-sum-binary", ("count", "certified", "newton")),
        ("_certify", _cut_to_a_quarter, "check_halving", (5,),
         "halving-sum-general", ("count", "certified", "newton")),
    ],
    ids=[
        "stirling-unsigned-genmat",
        "stirling-unsigned-caylerian",
        "stirling-unsigned-two-sided",
        "newton-short-genmat",
        "newton-short-beta",
        "newton-short-halving-general",
        "newton-short-halving-binary",
        "certify-short-halving",
    ],
)
def test_closed_form_summations_are_load_bearing(
    monkeypatch, helper, perturb, check, bounds, name, routes
):
    """A wrong Stirling row, Newton sum or certified truncation fails a
    check whose other routes do not use it, with every route in the witness."""
    monkeypatch.setattr(identities, helper, perturb(getattr(identities, helper)))
    results = {r.name: r for r in getattr(identities, check)(*bounds)}
    assert results[name].status == "fail"
    assert set(routes) <= set(results[name].witness)


def _top_entry_plus_factorial(real):
    def row(n, strict):
        out = real(n, strict)
        if n >= 2:
            k, s = out[-1]
            out = [*out[:-1], (k, s + math.factorial(n))]
        return out

    return row


def test_halving_check_catches_a_wrong_stirling_row(monkeypatch):
    """count and newton both read the Stirling row; the certified sum reads
    none, so it keeps the true value and the check fails at the first n
    whose row is wrong."""
    monkeypatch.setattr(identities, "_stirling_row", _top_entry_plus_factorial(identities._stirling_row))
    general, binary = identities.check_halving(3)
    assert general.status == binary.status == "fail"
    assert general.witness == {"n": 2, "count": 14, "certified": 5, "newton": 14}
    assert binary.witness == {"n": 2, "count": 13, "certified": 4, "newton": 13}


def _ascent_set_changed_at_121(change, weak_only=False):
    def perturb(real):
        def ascent_set(w, strict=False):
            a = real(w, strict)
            return change(a, len(w)) if w == (1, 2, 1) and not (weak_only and strict) else a

        return ascent_set

    return perturb


def _one_more_at_3_1(real):
    return lambda spec: real(spec) + ((spec.n, spec.positions) == (3, (1,)))


@pytest.mark.parametrize(
    "module, attribute, perturb, failing",
    [
        (words, "ascent_set", _ascent_set_changed_at_121(lambda a, n: a - {1}),
         {"beta-formula-vs-brute", "beta-equal-mode"}),
        (words, "ascent_set", _ascent_set_changed_at_121(lambda a, n: a | {n}, weak_only=True),
         {"beta-formula-vs-brute", "beta-equal-mode"}),
        (words, "alpha_count", _one_more_at_3_1, {"alpha-vs-determinant"}),
        (words, "beta_perm_determinant", _one_more_at_3_1, {"alpha-vs-determinant"}),
        (identities, "beta_equal_by_subsets",
         lambda real: lambda spec, strict=False: real(spec, strict) + 1, {"beta-equal-mode"}),
        (words, "enumerate_linear_orders",
         lambda real: lambda n: itertools.islice(real(n), n == 4, None), {"alpha-vs-determinant"}),
        # the counts depend only on the multiset of a row-sum vector's parts,
        # so the perturbation changes a sum rather than the order
        (burge, "row_sums", lambda real: lambda a: (real(a)[0] + 1, *real(a)[1:]),
         {"beta-vs-matrix-row-sums"}),
    ],
    ids=[
        "ascent-set-drops-1-from-121",
        "ascent-set-adds-n-to-a-weak-set",
        "alpha-count-one-more",
        "determinant-one-more",
        "equal-by-subsets-one-more",
        "linear-orders-lose-the-first",
        "row-sums-first-sum-one-more",
    ],
)
def test_beta_routes_are_load_bearing(monkeypatch, module, attribute, perturb, failing):
    """Each of check_beta's routes feeds a comparison: a wrong ascent set,
    closed form, determinant, permutation stream or row-sum vector fails
    exactly the results that read it."""
    monkeypatch.setattr(module, attribute, perturb(getattr(module, attribute)))
    results = identities.check_beta(5)
    assert {r.name for r in results if r.status == "fail"} == failing
