#!/usr/bin/env python3
"""One md5 over what a fixed set of `cayburge` commands print.

Runs each command in-process through `cayburge.cli.main` and hashes its
argv, exit code (or the exception it raised), stdout and stderr, in
order.  Two checkouts that print the same digest gave byte-identical
output on every command, so a change meant to keep the output as it is
can be checked against its parent:

    git archive <parent> | tar -x -C /tmp/parent
    python3 tools/cli_digest.py --src /tmp/parent/src
    python3 tools/cli_digest.py

The set covers the verify suites (one unconverged), the gf and kernel
suites in json at every --max-n and --max-m in 0..8, the pairing check on
grids too small to tell its two pairings apart, every closed-form count
method, both certified sums, both polynomial formulas past the formula
cap, both brute-force polynomials up to the enumeration cap, every count
method and both polynomial methods in json and csv, the ten enumerate
commands of the benchmark's enumerate-stream workload, two genmat
commands at size 10 (the only ones whose entries hold a letter of two
digits), every enumerable object in text, json and csv at sizes 0-2
(each --binary variant too), the Cayley words and ballots in every
format at sizes 3-7, the Burge words and matrices in text at sizes 3-7
(both variants), the row-sum matrices at size 5 for every ascent set
(both variants) and the signed structures with those row sums,
argparse's own failures (an unknown subcommand, a bad choice, a bad
integer) and --help, one refused flag,
three refused --ascents values (unparsable, out of range, and a rows
mismatch), `oeis` on each sequence against its bundled b-file (the
default bound, every --max-n up to the cap and one past it, in text,
json and csv), and the same parse errors again after valid commands, so
that a parser reused across calls shows.  Help and
usage text wrap at COLUMNS, which is fixed at 80 here; argparse's
wording can differ between Python versions, so compare digests made by
the same interpreter.  It takes under a minute on one core.  Standard
library only.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the CLI's enumeration and formula caps, fixed here so that every
# checkout runs the same argv
ENUM_BOUND, FORMULA_BOUND = 7, 12


def _sized(argv: list[str], size: int) -> list[str]:
    return argv + ["--unsafe-bounds"] if size > FORMULA_BOUND else argv


def commands() -> list[list[str]]:
    out = [
        ["verify", "all", "--format", "json", "--max-n", "5", "--max-m", "2"],
        ["verify", "all", "--format", "json", "--max-n", "5", "--max-m", "3"],
        *(["verify", suite, "--max-n", "8", "--max-m", "8"] for suite in ("formulas", "gf", "pairing")),
        ["verify", "gf", "--max-n", "3", "--tail-bound", f"1/{2**9000}"],
    ]
    # the series and certified-sum suites at every bound of the
    # formula-queries grid, order-0 series and m = 0 included
    for max_n in range(9):
        for max_m in range(9):
            for suite in ("gf", "kernel"):
                out.append(["verify", suite, "--max-n", str(max_n), "--max-m", str(max_m), "--format", "json"])
    # grids on which no cell tells the two pairings apart
    for bound in (["--max-n", "1"], ["--max-m", "0"]):
        for fmt in ("text", "json"):
            out.append(["verify", "pairing", *bound, "--format", fmt])
    for method in ("compositions", "stirling", "inclexcl", "ogf-coefficient"):
        for m in range(7):
            for n in range(16):
                for variant in ([], ["--binary"]):
                    argv = ["count", "genmat", "--rows", str(m), "--size", str(n), "--method", method]
                    out.append(_sized(argv + variant, n))
    for method in ("stirling", "double-sum"):
        for n in [*range(21), 25]:
            for variant in ([], ["--binary"]):
                out.append(_sized(["count", "mat", "--n", str(n), "--method", method] + variant, n))
    for obj in ("caylerian", "two-sided"):
        for n in range(21):
            for variant in ([], ["--strict"]):
                out.append(_sized(["poly", obj, "--n", str(n)] + variant, n))
        for n in range(ENUM_BOUND + 1):
            for variant in ([], ["--strict"]):
                out.append(["poly", obj, "--n", str(n), "--method", "brute"] + variant)
    # the count and poly records in json and csv
    for fmt in ("json", "csv"):
        for variant in ([], ["--binary"]):
            for method in ("compositions", "stirling", "inclexcl", "ogf-coefficient", "enumerate"):
                argv = ["count", "genmat", "--rows", "2", "--size", "3", "--method", method]
                out.append(argv + ["--format", fmt] + variant)
            for method in ("stirling", "enumerate", "double-sum"):
                out.append(["count", "mat", "--n", "4", "--method", method, "--format", fmt] + variant)
        for obj in ("caylerian", "two-sided"):
            for method in ("formula", "brute"):
                for variant in ([], ["--strict"]):
                    out.append(["poly", obj, "--n", "3", "--method", method, "--format", fmt] + variant)
    out += [
        ["enumerate", "cayley", "--n", "8", "--unsafe-bounds"],
        ["enumerate", "ballot", "--n", "7"],
        ["enumerate", "burge", "--n", "6"],
        ["enumerate", "burge", "--n", "6", "--binary"],
        ["enumerate", "mat", "--n", "6"],
        ["enumerate", "mat", "--n", "6", "--format", "csv"],
        ["enumerate", "genmat", "--rows", "3", "--size", "6"],
        ["enumerate", "genmat", "--rows", "4", "--size", "5", "--format", "json"],
        ["enumerate", "signed", "--rows", "3", "--size", "5"],
        ["enumerate", "signed", "--rows", "3", "--size", "6", "--ascents", "2,4"],
        # letters of two digits, which the renderers space-separate
        ["enumerate", "genmat", "--rows", "1", "--size", "10", "--unsafe-bounds"],
        ["enumerate", "genmat", "--rows", "2", "--size", "10", "--binary", "--unsafe-bounds"],
    ]
    # each enumerable object at the smallest sizes, in every format
    by_n = [["--n", str(n)] for n in range(3)]
    by_grid = [["--rows", str(m), "--size", str(n)] for m in range(3) for n in range(3)]
    binary = [[], ["--binary"]]
    small = {
        "cayley": by_n,
        "ballot": by_n,
        "burge": [s + b for s in by_n for b in binary],
        "mat": [s + b for s in by_n for b in binary],
        "genmat": [s + b for s in by_grid for b in binary],
        "signed": by_grid,
    }
    for obj, sizes in small.items():
        for flags in sizes:
            for fmt in ("text", "json", "csv"):
                out.append(["enumerate", obj, *flags, "--format", fmt])
    # the Cayley words and ballots at every size from 3 up to the cap
    for obj in ("cayley", "ballot"):
        for n in range(3, ENUM_BOUND + 1):
            for fmt in ("text", "json", "csv"):
                out.append(["enumerate", obj, "--n", str(n), "--format", fmt])
    # the Burge words and matrices at every size from 3 up to the cap,
    # in both variants, and the row-sum matrices (both variants) and
    # signed structures for every ascent set
    for obj in ("burge", "mat"):
        for n in range(3, ENUM_BOUND + 1):
            for variant in ([], ["--binary"]):
                if ["enumerate", obj, "--n", str(n), *variant] not in out:
                    out.append(["enumerate", obj, "--n", str(n), *variant])
    for r in range(5):
        for positions in itertools.combinations("1234", r):
            for variant in ([], ["--binary"]):
                out.append(["enumerate", "mat", "--n", "5", "--ascents", ",".join(positions), *variant])
            ascents = ["--ascents", ",".join(positions)]
            out.append(["enumerate", "signed", "--rows", str(r + 1), "--size", "5", *ascents])
    out += [
        ["enumerate", "mat", "--n", "3", "--ascents", "1,x"],
        ["enumerate", "mat", "--n", "3", "--ascents", "7"],
        ["enumerate", "signed", "--rows", "2", "--size", "3", "--ascents", ""],
    ]
    # each sequence against its bundled b-file: the default bound, every
    # --max-n up to the cap, and one past the cap, in every format
    caps = {"A000670": FORMULA_BOUND, "A120733": FORMULA_BOUND, "A101370": FORMULA_BOUND, "A366173": 7}
    for seq, cap in caps.items():
        past_cap = ["--max-n", str(cap + 1), "--unsafe-bounds"]
        for flags in [[], *(["--max-n", str(n)] for n in range(1, cap + 1)), past_cap]:
            for fmt in ("text", "json", "csv"):
                out.append(["oeis", seq, *flags, "--format", fmt])
    failures = [
        ["frobnicate"],
        ["enumerate", "permutation", "--n", "2"],
        ["count", "genmat", "--rows", "two", "--size", "2"],
        ["--help"],
        ["enumerate", "--help"],
        ["enumerate", "cayley", "--n", "2", "--binary"],
    ]
    return failures + out + failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding cayburge/")
    args = parser.parse_args()
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, str(args.src.resolve()))
    from cayburge import cli

    print(f"cayburge from {Path(cli.__file__).parent}", file=sys.stderr)
    argvs = commands()
    digest = hashlib.md5()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # the shell would show a traceback: hash what raised
                code = f"{type(exc).__name__}: {exc}"
        digest.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
    print(f"{digest.hexdigest()}  {len(argvs)} commands")


if __name__ == "__main__":
    main()
