"""The benchmark's three workloads and their correctness gates.

Each workload is a list of operations, every one a ``cayburge`` command
line run in-process through ``cayburge.cli.main``.  Operations are built
from the seed alone; the expected answer of each is computed beforehand
by a route other than the one the command takes (see ``oracle``), so a
gate never trusts the program to check itself.

A gate turns the outcomes of one pass into (attempted, failed, notes):
every check, command or query counts once in ``attempted``, and a wrong
value, a nonzero exit code or a check that does not pass counts once in
``failed``.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracle

WORKLOADS = ("verify-default", "enumerate-stream", "formula-queries")
# Workloads whose commands are each a query for the latency metrics; on
# the others a query is one whole pass.
COMMAND_IS_QUERY = ("formula-queries",)

# The checks `verify all` runs at its default bounds, by suite.
SUITE_CHECKS = {
    "kernel": ("table-row-sums", "fubini-egf", "series-compose-roundtrip"),
    "bijections": (
        "cayley-ballot-roundtrip",
        "cayley-count-vs-fubini",
        "burge-word-matrix-bijection",
        "action-factorization",
        "action-image-vs-direct",
        "atom-ballot-roundtrip",
    ),
    "involutions": (
        "gamma-involution",
        "gamma-signed-sum",
        "gamma-row-filtered-sum",
        "tau-involution",
        "tau-signed-sum",
        "tau-row-complete-sum",
    ),
    "formulas": (
        "count-genmat-method-agreement",
        "count-mat-vs-enumeration",
        "caylerian-formula-vs-brute",
        "caylerian-strict-is-reverse",
        "caylerian-evaluations",
        "two-sided-formula-vs-brute",
        "two-sided-consistency",
        "beta-formula-vs-brute",
        "beta-vs-matrix-row-sums",
        "beta-equal-mode",
        "alpha-vs-determinant",
    ),
    "pairing": ("carlitz-pairing",),
    "gf": (
        "ogf-coefficients-vs-counts",
        "species-series-vs-counts",
        "halving-sum-general",
        "halving-sum-binary",
        "double-sum-general",
        "double-sum-binary",
    ),
}
NAMED_CHECKS = tuple(name for names in SUITE_CHECKS.values() for name in names)

QUERIES_PER_KIND = 64
FORMATS = ("text", "json", "csv")


@dataclass
class Op:
    """One command line, what its output should be, and how to read it."""

    argv: list[str]
    kind: str
    expected: object = None
    capture: bool = False  # keep the whole output text for the gate
    signed: bool = False  # sum the column-sign parity of each output line
    header_lines: int = 0  # output lines that are not objects


@dataclass
class Outcome:
    rc: object
    seconds: float
    bytes_out: int
    lines: int
    text: str = ""
    xi_sum: int = 0
    error: str = ""
    scaled: float = 0.0  # seconds at reference speed (see speed.py)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


# ---------------------------------------------------------------------------
# building the operations


def spread(lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes spread evenly over lo..hi, both ends included.

    The cost of a query grows steeply with its sizes and its flags, so
    they are spread over their ranges instead of drawn: a pass's total
    work and its latency quantiles then stay nearly the same from seed to
    seed.  The seed draws each query's output format and the order of
    the queries.
    """
    return [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]


def interleave(lo: int, hi: int, count: int) -> list[int]:
    """A second size for each slot of ``spread``: every value of lo..hi
    equally often, and each stretch of equal first sizes gets values from
    across the whole range."""
    width = hi - lo + 1
    step = next(s for s in range(width // 2 + 1, width + 1) if math.gcd(s, width) == 1)
    return [lo + (i * step) % width for i in range(count)]


def build(workload: str, seed: int, root: Path) -> list[Op]:
    rng = random.Random(seed)
    if workload == "verify-default":
        ops = [
            Op(["verify", suite, "--max-n", "5", "--max-m", "2", "--format", "json"], suite, capture=True)
            for suite in SUITE_CHECKS
        ]
    elif workload == "enumerate-stream":
        ops = _enumerate_ops()
    elif workload == "formula-queries":
        ops = _formula_ops(rng, root)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng.shuffle(ops)
    return ops


def _enumerate_ops() -> list[Op]:
    fub, mat, genmat = oracle.fubini, oracle.count_mat, oracle.genmat_by_first_column
    return [
        Op(["enumerate", "cayley", "--n", "8", "--unsafe-bounds"], "cayley", fub(8)),
        Op(["enumerate", "ballot", "--n", "7"], "ballot", fub(7)),
        Op(["enumerate", "burge", "--n", "6"], "burge", mat(6)),
        Op(["enumerate", "burge", "--n", "6", "--binary"], "burge", mat(6, binary=True)),
        Op(["enumerate", "mat", "--n", "6"], "mat", mat(6)),
        Op(["enumerate", "mat", "--n", "6", "--format", "csv"], "mat", mat(6), header_lines=1),
        Op(["enumerate", "genmat", "--rows", "3", "--size", "6"], "genmat", genmat(3, 6)),
        Op(
            ["enumerate", "genmat", "--rows", "4", "--size", "5", "--format", "json"],
            "genmat-json",
            genmat(4, 5),
            capture=True,
        ),
        Op(["enumerate", "signed", "--rows", "3", "--size", "5"], "signed", genmat(3, 5), signed=True),
        Op(
            ["enumerate", "signed", "--rows", "3", "--size", "6", "--ascents", "2,4"],
            "signed",
            oracle.grids_with_row_sums((2, 2, 2)),
            signed=True,
        ),
    ]


def _bfile_entries(root: Path, sequence: str) -> list[int]:
    path = root / "src" / "cayburge" / "data" / f"b{sequence[1:]}.txt"
    out = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(int(line.split()[0]))
    return out


def balanced(rng: random.Random, values, count: int) -> list:
    """``count`` draws in which every value occurs equally often (up to one),
    in an order the seed shuffles."""
    out = (list(values) * (count // len(values) + 1))[:count]
    rng.shuffle(out)
    return out


def _formula_ops(rng: random.Random, root: Path) -> list[Op]:
    q = QUERIES_PER_KIND
    ops: list[Op] = []
    memo: dict = {}

    def once(fn, *args):
        key = (fn.__name__,) + args
        if key not in memo:
            memo[key] = fn(*args)
        return memo[key]

    def variants(flag: str, count: int) -> list[list[str]]:
        """The on/off flag of each query, alternating along the sizes, and
        its output format, balanced over the group and drawn by the seed."""
        return [[flag] * (i % 2) + ["--format", fmt] for i, fmt in enumerate(balanced(rng, FORMATS, count))]

    # count genmat: every closed-form method, a quarter of the queries each
    methods = ("compositions", "stirling", "inclexcl", "ogf-coefficient")
    for method in methods:
        sizes = spread(0, 16 if method == "compositions" else 12, q // len(methods))
        rows = interleave(1, 6, len(sizes))
        for n, m, extra in zip(sizes, rows, variants("--binary", len(sizes))):
            binary = "--binary" in extra
            # the gate takes another route than the method under test
            route = oracle.genmat_by_empty_columns if method == "compositions" else oracle.genmat_by_first_column
            argv = ["count", "genmat", "--rows", str(m), "--size", str(n), "--method", method] + extra
            if n > 12:
                argv.append("--unsafe-bounds")
            ops.append(Op(argv, "count-genmat", once(route, m, n, binary)))
    # count mat: the Stirling formula and the certified double sum
    for method, top in (("stirling", 12), ("double-sum", 20)):
        sizes = spread(0, top, q // 2)
        for n, extra in zip(sizes, variants("--binary", len(sizes))):
            argv = ["count", "mat", "--n", str(n), "--method", method] + extra
            if n > 12:
                argv.append("--unsafe-bounds")
            ops.append(Op(argv, "count-mat", once(oracle.count_mat, n, "--binary" in extra)))
    for n, extra in zip(spread(0, 12, q), variants("--strict", q)):
        ops.append(Op(["poly", "caylerian", "--n", str(n)] + extra, "poly-caylerian",
                      once(oracle.caylerian, n, "--strict" in extra)))
    for n, extra in zip(spread(0, 12, q), variants("--strict", q)):
        table = once(oracle.two_sided, n, "--strict" in extra)
        expected = sorted([r, c, v] for (r, c), v in table.items())
        ops.append(Op(["poly", "two-sided", "--n", str(n)] + extra, "poly-two-sided", expected))
    # oeis: the CLI compares against the bundled b-file; the gate checks
    # that it compared every entry up to the requested index
    sequences = (("A000670", 12), ("A120733", 12), ("A101370", 12), ("A366173", 7))
    for seq, top in sequences:
        indices = _bfile_entries(root, seq)
        sizes = spread(1, top, q // len(sequences))
        for max_n, fmt in zip(sizes, balanced(rng, FORMATS, len(sizes))):
            max_index = max_n * (max_n + 1) // 2 if seq == "A366173" else max_n
            checked = sum(1 for i in indices if i <= max_index)
            ops.append(Op(["oeis", seq, "--max-n", str(max_n), "--format", fmt], "oeis", checked))
    for suite in ("kernel", "pairing", "gf"):
        sizes = spread(0, 8, q)
        for max_n, max_m, fmt in zip(sizes, interleave(0, 8, q), balanced(rng, ("text", "json"), q)):
            argv = ["verify", suite, "--max-n", str(max_n), "--max-m", str(max_m), "--format", fmt]
            ops.append(Op(argv, f"verify-{suite}", SUITE_CHECKS[suite]))
    for op in ops:
        op.capture = True  # answers are short; the gates read them whole
    return ops


# ---------------------------------------------------------------------------
# gates


def evaluate(workload: str, ops: list[Op], outcomes: list[Outcome]) -> Tally:
    tally = Tally()
    if workload == "verify-default":
        _gate_verify_default(ops, outcomes, tally)
    else:
        for op, out in zip(ops, outcomes):
            ok, why = _gate_op(op, out)
            tally.record(ok, f"{' '.join(op.argv)}: {why}")
    return tally


def objects(op: Op, out: Outcome) -> int:
    """Objects the command produced: enumerated objects, check verdicts,
    or one answer per query."""
    if op.argv[0] == "enumerate":
        if op.capture:
            try:
                return len(json.loads(out.text)["value"])
            except (ValueError, KeyError, TypeError):
                return 0
        return max(out.lines - op.header_lines, 0)
    if op.kind in SUITE_CHECKS:
        try:
            return len(json.loads(out.text)["checks"])
        except (ValueError, KeyError, TypeError):
            return 0
    return 1


def _gate_verify_default(ops: list[Op], outcomes: list[Outcome], tally: Tally) -> None:
    """All 33 named checks must be reported and pass, each command must
    exit 0, and any check beyond the named ones must pass too."""
    status: dict[str, str] = {}
    for op, out in zip(ops, outcomes):
        try:
            checks = json.loads(out.text)["checks"]
            for check in checks:
                status[check["name"]] = check["status"]
        except (ValueError, KeyError, TypeError) as exc:
            tally.notes.append(f"{' '.join(op.argv)}: unreadable output ({exc!r}) {out.error}")
        if out.rc != 0:
            failing = [n for n in SUITE_CHECKS[op.kind] if status.get(n) != "pass"]
            if not failing:  # a nonzero exit with every named check passing
                tally.record(False, f"{' '.join(op.argv)}: exit code {out.rc}")
    for name in NAMED_CHECKS:
        tally.record(status.get(name) == "pass", f"check {name}: {status.get(name, 'missing')}")
    for name, state in status.items():
        if name not in NAMED_CHECKS:
            tally.record(state == "pass", f"extra check {name}: {state}")


def _gate_op(op: Op, out: Outcome) -> tuple[bool, str]:
    if out.rc != 0:
        return False, f"exit code {out.rc} {out.error}".strip()
    try:
        if op.argv[0] == "enumerate":
            if op.signed:
                got = out.xi_sum
            elif op.capture:
                got = len(json.loads(out.text)["value"])
            else:
                got = out.lines - op.header_lines
        elif op.argv[0] == "verify":
            return _gate_verify_query(op, out)
        elif op.argv[0] == "oeis":
            got = _read_oeis(op, out)
        else:
            got = _read_value(op, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return False, f"unreadable output ({exc!r})"
    if got != op.expected:
        return False, f"got {got!r}, expected {op.expected!r}"
    return True, ""


def output_format(op: Op) -> str:
    return op.argv[op.argv.index("--format") + 1] if "--format" in op.argv else "text"


def _read_value(op: Op, out: Outcome):
    """The value of a count or poly record in any of the three formats."""
    fmt = output_format(op)
    if fmt == "json":
        value = json.loads(out.text)["value"]
    elif fmt == "csv":
        rows = list(csv.reader(out.text.splitlines()))
        value = json.loads(rows[1][rows[0].index("value")])
    else:
        lines = out.text.split("\n")[:-1]
        if op.kind == "poly-two-sided":
            value = [[int(x) for x in line.split()] for line in lines]
        elif op.kind == "poly-caylerian":
            value = [int(x) for x in lines[0].split()]
        else:
            value = int(lines[0])
    if op.kind == "poly-two-sided":
        value = sorted(value)
    return value


def _read_oeis(op: Op, out: Outcome) -> int:
    if output_format(op) == "json":
        value = json.loads(out.text)["value"]
        if value["status"] != "ok":
            raise ValueError(f"status {value['status']!r}")
        return value["checked"]
    # "<sequence>: <checked> values agree (indices <= <max_index>)"
    head, rest = out.text.split(":", 1)
    if head != op.argv[1] or "values agree" not in rest:
        raise ValueError(out.text.strip())
    return int(rest.split()[0])


def _gate_verify_query(op: Op, out: Outcome) -> tuple[bool, str]:
    names = op.expected
    if output_format(op) == "json":
        checks = json.loads(out.text)["checks"]
        got = {c["name"]: c["status"] for c in checks}
    else:
        lines = out.text.split("\n")[:-1]
        got = {}
        for line in lines[:-1]:
            status, name = line.split()[:2]
            got[name] = status.lower()
        if lines[-1] != f"{len(got)} checks: {len(got)} pass, 0 fail, 0 unconverged":
            return False, f"summary {lines[-1]!r}"
    bad = {n: got.get(n, "missing") for n in names if got.get(n) != "pass"}
    bad.update({n: s for n, s in got.items() if n not in names and s != "pass"})
    if bad:
        return False, f"checks not passing: {bad}"
    return True, ""
