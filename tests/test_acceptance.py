"""Acceptance gate: ten criteria, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
verdict lines, or add ``-s`` to see the detail lines as they print.
Bounds and runtime limits are pinned in each test body.
"""

import math
import time
from fractions import Fraction
from importlib import resources

from cayburge import burge, identities, lomat, words
from cayburge.cli import main as cli_main
from cayburge.cli import parse_bfile
from cayburge.kernel import fubini as kernel_fubini

FUBINI = [1, 1, 3, 13, 75, 541, 4683, 47293]
MAT = [1, 1, 5, 33, 281, 2961, 37277]
BMAT = [1, 1, 4, 24, 196, 2016, 24976]


def _report(criterion: str, failures: list, detail: str = ""):
    ok = not failures
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    if failures:
        line += f" failures: {failures}"
    print(line)
    assert ok, line


def _weak_compositions_count(n: int, parts: int) -> int:
    """W(n, p): weak compositions of n into p parts, W(n, 0) = [n = 0]."""
    if parts == 0:
        return int(n == 0)
    return math.comb(n + parts - 1, parts - 1)


def _signed_family_size(m: int, n: int) -> int:
    """|G_m[n]| without enumeration: a grid of k <= n columns counts once
    per sign choice on its empty columns, so choosing the t columns that
    are empty (C(k, t) ways) and filling the other m(k - t) cells gives
    sum_{k<=n} sum_{t<=k} C(k, t) W(n, m(k - t))."""
    return sum(
        math.comb(k, t) * _weak_compositions_count(n, m * (k - t))
        for k in range(n + 1)
        for t in range(k + 1)
    )


def test_criterion_01_structure_counts():
    """Cayley counts, the 7 two-row structures of size 2, and the signed
    one-row family on 2 letters: at most 2 columns, empty ones of either
    sign, so six members -- (2); (1,1); (2,0) and (0,2) with two signs
    each -- whose signed sum is |Genmat_1[2]| = 2; total runtime under
    10 s."""
    t0 = time.perf_counter()
    failures = []
    for n in range(8):
        got = sum(1 for _ in words.enumerate_cayley(n))
        if got != FUBINI[n]:
            failures.append(f"|Cay[{n}]| = {got} != {FUBINI[n]}")
    genmat22 = sum(1 for _ in lomat.enumerate_genmat(2, 2))
    if genmat22 != 7:
        failures.append(f"|Genmat_2[2]| = {genmat22} != 7")
    signed12 = list(lomat.enumerate_signed(1, 2))
    want_size = _signed_family_size(1, 2)
    signed_sum = sum(s.xi for s in signed12)
    want_sum = identities.count_genmat(1, 2)
    if len(signed12) != want_size or signed_sum != want_sum:
        failures.append(
            f"|G_1[2]| = {len(signed12)} (closed form {want_size}), "
            f"signed sum {signed_sum} (|Genmat_1[2]| = {want_sum})"
        )
    elapsed = time.perf_counter() - t0
    if elapsed >= 10:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _report("1 structure-counts", failures, f"{elapsed:.1f}s")


def test_criterion_02_formula_cross_agreement():
    """count_genmat: four closed forms agree for m <= 6, n <= 8, both
    variants; enumeration agrees for m <= 3, n <= 5; under 60 s."""
    t0 = time.perf_counter()
    failures = []
    closed = ("compositions", "stirling", "inclexcl", "ogf-coefficient")
    for m in range(7):
        for n in range(9):
            for binary in (False, True):
                vals = {
                    identities.count_genmat(m, n, binary=binary, method=meth)
                    for meth in closed
                }
                if len(vals) != 1:
                    failures.append((m, n, binary, sorted(vals)))
    for m in range(4):
        for n in range(6):
            for binary in (False, True):
                enum = identities.count_genmat(m, n, binary=binary, method="enumerate")
                ref = identities.count_genmat(m, n, binary=binary)
                if enum != ref:
                    failures.append((m, n, binary, "enumerate", enum, ref))
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report("2 formula-cross-agreement", failures, f"{elapsed:.1f}s")


def test_criterion_03_polynomial_oracles():
    """caylerian formula = brute for n <= 7, two-sided formula = brute
    for n <= 6, both variants."""
    failures = []
    for n in range(8):
        for strict in (False, True):
            if identities.caylerian_formula(n, strict=strict) != words.caylerian_brute(
                n, strict=strict
            ):
                failures.append(("caylerian", n, strict))
    for n in range(7):
        for strict in (False, True):
            if identities.two_sided_formula(n, strict=strict) != burge.two_sided_brute(
                n, binary=strict
            ):
                failures.append(("two-sided", n, strict))
    _report("3 polynomial-oracles", failures)


def test_criterion_04_evaluation_identities():
    """C_n(2) counts the matrices, C_n-strict(2) the binary ones, n <= 6,
    matrices obtained by enumeration."""
    failures = []
    for n in range(7):
        weak_at_2 = words.caylerian_brute(n)(2)
        strict_at_2 = words.caylerian_brute(n, strict=True)(2)
        n_mat = sum(1 for _ in burge.enumerate_mat(n))
        n_bmat = sum(1 for _ in burge.enumerate_mat(n, binary=True))
        if weak_at_2 != n_mat:
            failures.append((n, "weak", weak_at_2, n_mat))
        if strict_at_2 != n_bmat:
            failures.append((n, "strict", strict_at_2, n_bmat))
    _report("4 evaluation-identities", failures)


def test_criterion_05_bijections():
    """Word/matrix round trip for n <= 5; action factorization and
    atom-ballot round trips for n <= 5, m <= 3; the 9-letter worked
    example reproduced exactly."""
    failures = []
    for n in range(6):
        for binary in (False, True):
            for bw in burge.enumerate_burge(n, binary=binary):
                if burge.matrix_to_word(burge.word_to_matrix(bw)) != bw:
                    failures.append(("word-matrix", n, binary, bw))
    for m in range(1, 4):
        for n in range(6):
            for base in lomat.enumerate_genmat(m, n):
                for w in words.enumerate_linear_orders(n):
                    mat = lomat.act(w, base)
                    if lomat.factor_action(mat) != (w, base):
                        failures.append(("factor", m, n, w))
                        break
                    if lomat.from_atom_ballot(lomat.to_atom_ballot(mat), m) != mat:
                        failures.append(("atom-ballot", m, n, w))
                        break
    w9 = (7, 8, 4, 6, 5, 2, 3, 9, 1)
    m9 = lomat.LinOrderMatrix(
        (
            ((), (5,), (2, 3)),
            ((7, 8, 4), (), ()),
            ((), (), ()),
            ((6,), (), (9, 1)),
        )
    )
    if lomat.prod(m9) != w9:
        failures.append("example prod")
    got_w, got_a = lomat.factor_action(m9)
    if got_w != w9 or lomat.act(w9, got_a) != m9:
        failures.append("example factorization")
    if lomat.atoms(m9) != [(7, 8), (4,), (6,), (5,), (2, 3), (9,), (1,)]:
        failures.append("example atoms")
    b9 = lomat.to_atom_ballot(m9)
    if b9.columns != (
        frozenset({(7, 8), (4,), (6,)}),
        frozenset({(5,)}),
        frozenset({(2, 3), (9,), (1,)}),
    ) or b9.color_of() != {
        (7, 8): 2,
        (4,): 2,
        (6,): 4,
        (5,): 1,
        (2, 3): 1,
        (9,): 4,
        (1,): 4,
    }:
        failures.append("example colored ballot")
    if lomat.from_atom_ballot(b9, 4) != m9:
        failures.append("example ballot inverse")
    _report("5 bijections", failures)


def test_criterion_06_involutions():
    """gamma and tau: involutions, sign-reversing off fixed points, with
    the exact fixed-point sets, for m <= 3, n <= 5; signed sums localize
    to the unsigned counts, including n! * |BMat[n]| and the row-sum
    filtered families; under 2 min."""
    t0 = time.perf_counter()
    results = (
        identities.check_gamma(5, 3)
        + identities.check_gamma_row_filtered(5)
        + identities.check_tau(5, 3)
        + identities.check_tau_row_complete(5)
    )
    failures = [
        {"check": r.name, "witness": r.witness, "detail": r.detail}
        for r in results
        if not r.ok
    ]
    elapsed = time.perf_counter() - t0
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    names = ", ".join(r.name for r in results)
    _report("6 involutions", failures, f"{elapsed:.1f}s; {names}")


def test_criterion_07_beta_formulas():
    """beta formula = brute force for n <= 6, every S, both variants;
    alpha and the exact-set determinant match the linear-order brute
    force for n <= 6."""
    failures = [
        {"check": r.name, "witness": r.witness}
        for r in identities.check_beta(6)
        if not r.ok
    ]
    _report("7 beta-formulas", failures)


def test_criterion_08_generating_functions():
    """OGF coefficients match counts for m <= 6, n <= 8; halving sums
    certify |Mat[n]| and |BMat[n]| for n <= 6; double sums match for
    n <= 6 with the general variant labeled conjecture-check."""
    failures = []
    for binary in (False, True):
        for m in range(7):
            series = identities.genmat_ogf(m, 8, binary=binary).integer_coefficients()
            for n in range(9):
                if series[n] != identities.count_genmat(m, n, binary=binary):
                    failures.append(("ogf", m, n, binary))
    for n in range(7):
        for binary in (False, True):
            partial, tail = identities.halving_sum(n, binary=binary)
            exact = identities.halving_sum_exact(n, binary=binary)
            target = identities.count_mat(n, binary=binary)
            if not (partial <= exact <= partial + tail) or tail >= Fraction(1, 2):
                failures.append(("halving-interval", n, binary))
            if exact != target:
                failures.append(("halving-value", n, binary, exact, target))
            value, partial2, tail2 = identities.double_sum_mat(n, binary=binary)
            if value != target or not (partial2 <= value <= partial2 + tail2):
                failures.append(("double-sum", n, binary, value, target))
    flags = {
        r.name: r.detail for r in identities.check_double_sum(4)
    }
    if flags.get("double-sum-binary") != "theorem-check":
        failures.append("binary double sum not labeled theorem-check")
    if flags.get("double-sum-general") != "conjecture-check":
        failures.append("general double sum not labeled conjecture-check")
    _report("8 generating-functions", failures, "general double sum: conjecture-check")


def test_criterion_09_pairing_determination():
    """pairing_check over n <= 6, m <= 8: exactly one consistent pairing,
    no witness, per-cell record of the as-written pairing, and the (2,2)
    cell showing series values {5, 7} against counts {7, 5}."""
    failures = []
    [pc] = identities.pairing_check(6, 8)
    if pc.status != "pass":
        failures.append(("status", pc.status, pc.witness))
    if pc.params.get("consistent") != ["weak-binary/strict-general"]:
        failures.append(("consistent", pc.params.get("consistent")))
    if pc.witness is not None:
        failures.append(("witness", pc.witness))
    cells = pc.params.get("as_printed_cells") or []
    if len(cells) != 7 * 8 or not all(len(c) == 3 for c in cells):
        failures.append(("cells", len(cells)))
    cell22 = pc.params.get("cell_2_2")
    if cell22 != {
        "series": {"weak": 5, "strict": 7},
        "counts": {"general": 7, "binary": 5},
    }:
        failures.append(("cell_2_2", cell22))
    as_printed_22 = [c[2] for c in cells if c[:2] == [2, 2]]
    if as_printed_22 != [False]:
        failures.append(("cell_2_2 as-written flag", as_printed_22))
    _report(
        "9 pairing-determination",
        failures,
        f"consistent={pc.params.get('consistent')}",
    )


def _bundled_entries(digits: str):
    text = resources.files("cayburge").joinpath(f"data/b{digits}.txt").read_text()
    return dict(parse_bfile(text))


def test_criterion_10_oeis_fixtures():
    """Bundled b-files match the engine offline: A000670 for n <= 8,
    A120733 and A101370 for n <= 6 by enumeration and n <= 10 by the
    closed form, A366173 triangle rows n <= 7."""
    failures = []
    fub = _bundled_entries("000670")
    for n in range(9):
        if fub[n] != kernel_fubini(n):
            failures.append(("A000670", n))
    for n in range(8):
        if fub[n] != sum(1 for _ in words.enumerate_cayley(n)):
            failures.append(("A000670-enum", n))
    mat_file = _bundled_entries("120733")
    bmat_file = _bundled_entries("101370")
    for n in range(7):
        if mat_file[n] != sum(1 for _ in burge.enumerate_mat(n)):
            failures.append(("A120733-enum", n))
        if bmat_file[n] != sum(1 for _ in burge.enumerate_mat(n, binary=True)):
            failures.append(("A101370-enum", n))
    for n in range(11):
        if mat_file[n] != identities.count_mat(n):
            failures.append(("A120733-formula", n))
        if bmat_file[n] != identities.count_mat(n, binary=True):
            failures.append(("A101370-formula", n))
    triangle = _bundled_entries("366173")
    index = 0
    for n in range(1, 8):
        poly = identities.caylerian_formula(n)
        for j in range(n):
            index += 1
            if triangle[index] != poly.coefficient(j):
                failures.append(("A366173", n, j))
    for seq in ("A000670", "A120733", "A101370", "A366173"):
        code = cli_main(["oeis", seq])
        if code != 0:
            failures.append(("cli", seq, code))
    _report("10 oeis-fixtures", failures)
