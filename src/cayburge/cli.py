"""Command line interface.

Subcommands:
  enumerate   stream objects (cayley, ballot, burge, mat, genmat, signed)
  count       count objects by a chosen method
  poly        descent and two-sided polynomials
  verify      run the cross-verification suites
  oeis        compare engine values against a b-file

`enumerate` writes each object as it is generated (Cayley words in text
and csv a chunk at a time after the first), in the requested format
only.  `enumerate` and `count` refuse the flags their object does
not read.  `verify` writes text or json and refuses csv.  `oeis` takes
--max-n >= 1 and at most one of --b-file and --fetch.

Exit codes: 0 success, 1 a verification or comparison failed or a check
raised, 2 invalid parameters or malformed input, 3 a certified
truncation did not converge, 141 the reader closed standard output
early (as `| head` does).  Enumerative work is capped at n <= 7
(rows <= 8) and formula work at n <= 12 unless --unsafe-bounds is given.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain, islice
from typing import Iterator

from . import burge, identities, lomat, words
from .kernel import fubini

ENUM_BOUND = 7
FORMULA_BOUND = 12
VERIFY_BOUND_N = 8
VERIFY_BOUND_M = 8

CACHE_ENV = "CAYBURGE_CACHE_DIR"


# ---------------------------------------------------------------------------
# rendering


# letter -> its digit, for words whose letters are all below 10
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
# how many Cayley words go to one rendered chunk, after the first word
_BATCH = 1024


def _render_word(w: tuple[int, ...]) -> str:
    if not w:
        return "eps"
    if max(w) <= 9:
        return bytes(w).translate(_DIGITS).decode()
    return " ".join(map(str, w))


# The text renderers.  Each takes one stream of objects and yields its
# text lines, one or more to a chunk joined by newlines, rendering each
# part that repeats in the stream once; what they remember lives as long
# as the stream and is bounded by the number of distinct parts.  The csv
# cells are the same lines.


def _digit_words(batch: list) -> bytes | None:
    """The words of ``batch`` as bytes joined by newlines, or None unless
    each word is nonempty and every letter is below 10."""
    if not all(batch):
        return None
    try:
        joined = b"\n".join(map(bytes, batch))
    except ValueError:  # a letter outside 0-255
        return None
    # deleting the letters 0-9 leaves only the newlines between the words
    return joined if len(joined.translate(None, bytes(range(10)))) == len(batch) - 1 else None


def _word_text(words) -> Iterator[str]:
    """Cayley words: the first alone, so that it is out before the second
    is generated, then _BATCH to a chunk."""
    words, size = iter(words), 1
    while batch := list(islice(words, size)):
        joined = _digit_words(batch)
        yield "\n".join(map(_render_word, batch)) if joined is None else joined.translate(_DIGITS).decode()
        size = _BATCH


def _ballot_text(ballots) -> Iterator[str]:
    block = functools.cache(lambda b: "{" + ",".join(map(str, sorted(b))) + "}")
    for ballot in ballots:
        yield "".join(map(block, ballot))


def _burge_text(biwords) -> Iterator[str]:
    u = None
    for bw in biwords:
        if bw.u is not u:  # u repeats across its group of words
            u = bw.u
            prefix = _render_word(u) + "|"
        yield prefix + _render_word(bw.v)


def _mat_text(mats) -> Iterator[str]:
    row = functools.cache(lambda r: " ".join(map(str, r)))
    for mat in mats:
        yield "[" + "; ".join(map(row, mat)) + "]"


def _lomat_renderer():
    """A renderer of structures for one stream: their rows, "." marking
    an empty entry.  It draws each column once, keyed by its letters and
    entry lengths, so that it holds for any structure, normalized or not."""

    @functools.cache
    def column(letters, lengths):
        cells, end = [], 0
        for k in lengths:
            cells.append(_render_word(letters[end : end + k]) if k else ".")
            end += k
        return tuple(cells)

    def render(m) -> str:
        word, start, columns = m.word, 0, []
        for lengths in zip(*m.grid):
            end = start + sum(lengths)
            columns.append(column(word[start:end], lengths))
            start = end
        return "[" + "; ".join(map(" ".join, zip(*columns) if columns else [()] * m.rows)) + "]"

    return render


def _genmat_text(structures) -> Iterator[str]:
    return map(_lomat_renderer(), structures)


def _signed_text(structures) -> Iterator[str]:
    signs_text = functools.cache(lambda signs: "".join(["+" if s == 1 else "-" for s in signs]) or "()")
    render, base = _lomat_renderer(), None
    for sm in structures:
        # a base is rendered once for all its sign vectors; holding it
        # keeps its id from being reused by a later base
        if sm.matrix is not base:
            base = sm.matrix
            text = render(base)
        yield f"signs={signs_text(sm.signs)} {text}"


def _json_lomat(m) -> list:
    return [[list(e) for e in row] for row in m.entries]


def _emit_record(args, obj: str, params: dict, method: str, value) -> None:
    """count/poly output in the requested format."""
    if args.format == "json":
        record = {"object": obj, "params": params, "method": method, "value": value}
        print(json.dumps(record, sort_keys=True))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["object", "method", "value", "params"])
        writer.writerow([obj, method, json.dumps(value), json.dumps(params, sort_keys=True)])
    else:
        if isinstance(value, list) and value and isinstance(value[0], list):
            for row in value:
                print(" ".join(str(x) for x in row))
        elif isinstance(value, list):
            print(" ".join(str(x) for x in value))
        else:
            print(value)


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# argument plumbing


def _size_error(args, caps: dict[str, int]) -> str | None:
    """What is wrong with the size flags named in ``caps`` (attribute name
    -> its cap without --unsafe-bounds): missing, negative or too large."""
    flags = {f: "--" + f.replace("_", "-") for f in caps}
    if any(getattr(args, f) is None for f in caps):
        return " and ".join(flags.values()) + " required"
    for f, cap in caps.items():
        value = getattr(args, f)
        if value < 0:
            return f"{flags[f]} must be nonnegative"
        if value > cap and not args.unsafe_bounds:
            return f"{flags[f]} {value} exceeds the bound {cap}; pass --unsafe-bounds to override"
    return None


def _unread_error(args, reads: tuple[str, ...]) -> str | None:
    """The refusal of the first object flag given although the chosen
    object reads only ``reads``."""
    for flag in ("n", "rows", "size", "binary", "ascents"):
        if flag not in reads and getattr(args, flag, None) not in (None, False):
            listed = ", ".join("--" + f for f in reads)
            return f"{args.command} {args.object} does not read --{flag} (it reads {listed})"
    return None


def _ascent_positions(text: str) -> tuple[int, ...]:
    """An --ascents value: comma-separated positions, maybe none."""
    positions = []
    for field in text.split(",") if text.strip() else ():
        try:
            positions.append(int(field))
        except ValueError:
            raise ValueError(f"cannot parse {field!r} as a position") from None
    return tuple(positions)


def _tail_bound(text: str) -> Fraction:
    """A --tail-bound value: a fraction in (0, 1/2], such as 1/4."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse {text!r} as a fraction") from None
    if not 0 < value <= Fraction(1, 2):
        raise argparse.ArgumentTypeError(f"{text} is outside (0, 1/2]")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and not at import, so that
    importing the CLI stays cheap.  Parsing leaves it unchanged, so every
    later `main` call in the process reuses it."""
    parser = argparse.ArgumentParser(
        prog="cayburge",
        description="Exact enumeration and verification of Cayley permutations and Burge matrices.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument(
        "--unsafe-bounds",
        action="store_true",
        help="lift the built-in size caps (enumeration may become very slow)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common], help="stream objects one per line")
    p.add_argument("object", choices=tuple(ENUMERABLE))
    p.add_argument("--n", type=int, help="size (cayley, ballot, burge, mat)")
    p.add_argument("--rows", type=int, help="row count (genmat, signed)")
    p.add_argument("--size", type=int, help="letter count (genmat, signed)")
    p.add_argument("--binary", action="store_true", help="entries of size at most 1 (burge, mat, genmat)")
    p.add_argument("--ascents", help="comma-separated ascent positions for a row-sum filter (mat, signed)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("count", parents=[common], help="count objects")
    p.add_argument("object", choices=("genmat", "mat"))
    p.add_argument("--n", type=int, help="size (mat)")
    p.add_argument("--rows", type=int, help="row count (genmat)")
    p.add_argument("--size", type=int, help="letter count (genmat)")
    p.add_argument("--binary", action="store_true")
    p.add_argument("--method", default="stirling")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("poly", parents=[common], help="descent polynomials")
    p.add_argument("object", choices=("caylerian", "two-sided"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--method", choices=("formula", "brute"), default="formula")
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="run cross-check suites",
        description="Run cross-check suites.  --unsafe-bounds lifts the cap of 8 on --max-n and --max-m,"
        " not each check's own caps; every result prints the bounds it ran at.",
    )
    p.add_argument("suite", choices=("all",) + tuple(identities.SUITES))
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--max-m", type=int, default=2)
    p.add_argument(
        "--tail-bound", type=_tail_bound, help="certified-sum tail bound (gf, all), in (0, 1/2]; default 1/2"
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oeis", parents=[common], help="compare against a b-file")
    p.add_argument("sequence", choices=tuple(OEIS_VALUES))
    source = p.add_mutually_exclusive_group()
    source.add_argument("--b-file", help="path to a b-file (default: bundled fixture)")
    source.add_argument("--fetch", action="store_true", help="download and cache the b-file")
    p.add_argument("--max-n", type=int, help="largest index (row, for the triangle) to compare")
    p.set_defaults(func=_cmd_oeis)
    return parser


# ---------------------------------------------------------------------------
# enumerate


# object -> (the flags it reads, its generator called with those flags by
# name (--ascents as an AscentSetSpec or None), its text renderer (the
# text lines and csv cells of one stream), its JSON value).  Any other
# enumerate flag is refused.  The lambdas look the generators up at call
# time, so rebinding a module attribute (a test double, a tracer) reaches
# every enumerate command.
ENUMERABLE = {
    "cayley": (("n",), lambda n: words.enumerate_cayley(n), _word_text, list),
    "ballot": (
        ("n",),
        lambda n: words.enumerate_ballots(n),
        _ballot_text,
        lambda ballot: [sorted(b) for b in ballot],
    ),
    "burge": (
        ("n", "binary"),
        lambda n, binary: burge.enumerate_burge(n, binary=binary),
        _burge_text,
        lambda bw: {"u": list(bw.u), "v": list(bw.v)},
    ),
    "mat": (
        ("n", "binary", "ascents"),
        lambda n, binary, ascents: burge.enumerate_mat(n, binary=binary, row_sums_spec=ascents),
        _mat_text,
        lambda mat: [list(row) for row in mat],
    ),
    "genmat": (
        ("rows", "size", "binary"),
        lambda rows, size, binary: lomat.enumerate_genmat(rows, size, binary=binary),
        _genmat_text,
        _json_lomat,
    ),
    "signed": (
        ("rows", "size", "ascents"),
        lambda rows, size, ascents: lomat.enumerate_signed(rows, size, row_sums_spec=ascents),
        _signed_text,
        lambda sm: {"signs": list(sm.signs), "entries": _json_lomat(sm.matrix)},
    ),
}
ENUM_SIZE_CAPS = {"n": ENUM_BOUND, "rows": ENUM_BOUND + 1, "size": ENUM_BOUND}


def _cmd_enumerate(args) -> int:
    obj = args.object
    flags, generate, text, value = ENUMERABLE[obj]
    error = _unread_error(args, flags)
    if error:
        return _fail(error, 2)
    error = _size_error(args, {f: ENUM_SIZE_CAPS[f] for f in flags if f in ENUM_SIZE_CAPS})
    if error:
        return _fail(f"enumerate {obj}: {error}", 2)

    chosen = {f: getattr(args, f) for f in flags}
    ascents = chosen.get("ascents")
    try:
        if ascents is not None:
            positions = _ascent_positions(ascents)
            chosen["ascents"] = words.AscentSetSpec(args.n if "n" in chosen else args.size, positions)
        objects = generate(**chosen)
        # a generator checks its arguments on its first step: take it
        # before writing anything, so a bad argument leaves stdout empty
        first = list(islice(objects, 1))
    except ValueError as exc:
        # the sizes are checked above: with --ascents, the spec or its fit is at fault
        return _fail(("--ascents: " if ascents is not None else "") + str(exc), 2)
    params = {f: list(v.positions) if f == "ascents" else v for f, v in chosen.items() if v is not None}
    record = {"object": obj, "params": params, "method": "enumerate"}
    _write_stream(args.format, record, chain(first, objects), text, value)
    return 0


def _write_stream(fmt: str, record: dict, objects, text, value) -> None:
    """Write each object as soon as it is generated, or each chunk of
    lines the text renderer makes of them, in one format only."""
    out = sys.stdout
    if fmt == "json":
        # the bytes of json.dumps(record | {"value": [...]}, sort_keys=True);
        # "value" sorts after the other keys, so it closes the record
        encode = json.JSONEncoder(sort_keys=True).encode
        out.write(encode(record)[:-1] + ', "value": [')
        sep = ""
        for x in objects:
            out.write(sep + encode(value(x)))
            sep = ", "
        out.write("]}\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["value"])
        # no line holds a newline, so a chunk splits into its lines
        writer.writerows([line] for chunk in text(objects) for line in chunk.split("\n"))
    else:
        out.writelines(chunk + "\n" for chunk in text(objects))


# ---------------------------------------------------------------------------
# count / poly


def _cmd_count(args) -> int:
    methods = identities.GENMAT_METHODS if args.object == "genmat" else identities.MAT_METHODS
    if args.method not in methods:
        return _fail(f"unknown method {args.method!r}; choose from {methods}", 2)
    flags = ("rows", "size") if args.object == "genmat" else ("n",)
    # enumeration takes the caps `enumerate` itself takes
    caps = {f: ENUM_SIZE_CAPS[f] if args.method == "enumerate" else FORMULA_BOUND for f in flags}
    error = _unread_error(args, (*caps, "binary"))
    if error:
        return _fail(error, 2)
    error = _size_error(args, caps)
    if error:
        return _fail(f"count {args.object} --method {args.method}: {error}", 2)
    try:
        if args.object == "genmat":
            value = identities.count_genmat(args.rows, args.size, binary=args.binary, method=args.method)
        else:
            value = identities.count_mat(args.n, binary=args.binary, method=args.method)
    except identities.UnconvergedError as exc:
        return _fail(str(exc), 3)
    except ValueError as exc:
        return _fail(str(exc), 2)
    params = {f: getattr(args, f) for f in caps} | {"binary": args.binary}
    _emit_record(args, args.object, params, args.method, value)
    return 0


def _cmd_poly(args) -> int:
    error = _size_error(args, {"n": ENUM_BOUND if args.method == "brute" else FORMULA_BOUND})
    if error:
        return _fail(f"poly {args.object} --method {args.method}: {error}", 2)
    n = args.n
    params = {"n": n, "strict": args.strict}
    if args.object == "caylerian":
        if args.method == "brute":
            poly = words.caylerian_brute(n, strict=args.strict)
        else:
            poly = identities.caylerian_formula(n, strict=args.strict)
        value = list(poly.coeffs)
    else:
        if args.method == "brute":
            poly = burge.two_sided_brute(n, binary=args.strict)
        else:
            poly = identities.two_sided_formula(n, strict=args.strict)
        value = [[i, j, c] for (i, j), c in poly.items()]
    _emit_record(args, args.object, params, args.method, value)
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    if args.format == "csv":
        return _fail("verify writes text or json, not csv", 2)
    error = _size_error(args, {"max_n": VERIFY_BOUND_N, "max_m": VERIFY_BOUND_M})
    if error:
        return _fail(f"verify: {error}", 2)
    if args.tail_bound is None:
        results = identities.run_suite(args.suite, args.max_n, args.max_m)
    elif args.suite in ("gf", "all"):
        results = identities.run_suite(args.suite, args.max_n, args.max_m, args.tail_bound)
    else:
        return _fail(f"verify {args.suite} does not read --tail-bound (only gf and all have certified sums)", 2)
    # an "error" count appears only when a check raised
    summary = Counter(dict.fromkeys(("pass", "fail", "unconverged"), 0))
    summary.update(r.status for r in results)
    if args.format == "json":
        payload = {
            "suite": args.suite,
            "max_n": args.max_n,
            "max_m": args.max_m,
            "checks": [vars(r) for r in results],
            "summary": summary,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in results:
            # the scalar params are the bounds the check ran at
            bounds = ", ".join(f"{k}={v}" for k, v in r.params.items() if isinstance(v, (int, str)))
            line = f"{r.status.upper():<12} {r.name}  [{bounds}]"
            if r.detail:
                line += f"  ({r.detail})"
            if r.witness is not None:
                line += f"  witness={r.witness}"
            print(line)
        print(f"{len(results)} checks: " + ", ".join(f"{v} {k}" for k, v in summary.items()))
    if summary["unconverged"]:
        return 3
    return 1 if summary["fail"] or summary["error"] else 0


# ---------------------------------------------------------------------------
# oeis


def _triangle_terms(last: int) -> list[int]:
    """A366173 read by rows through index ``last``: the coefficients of
    C_1(t), C_2(t), ..."""
    terms, n = [], 0
    while len(terms) < last:
        n += 1
        row = identities.caylerian_formula(n)
        terms += [row.coefficient(k) for k in range(n)]
    return terms[:last]


# each sequence: its terms from its first index through a given index,
# its first index, its last index under a bound (the last row, for the
# triangle), and the cap on that bound
OEIS_VALUES = {
    "A000670": (lambda last: [fubini(i) for i in range(last + 1)], 0, lambda bound: bound, FORMULA_BOUND),
    "A120733": (
        lambda last: [identities.count_mat(i) for i in range(last + 1)], 0, lambda bound: bound, FORMULA_BOUND
    ),
    "A101370": (
        lambda last: [identities.count_mat(i, binary=True) for i in range(last + 1)],
        0,
        lambda bound: bound,
        FORMULA_BOUND,
    ),
    "A366173": (_triangle_terms, 1, lambda rows: rows * (rows + 1) // 2, 7),
}


def parse_bfile(text: str) -> list[tuple[int, int]]:
    """Parse 'index value' lines; '#' comments and blank lines are skipped.

    Indices must be strictly increasing; anything else raises ValueError.
    """
    entries: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'index value', got {raw!r}")
        try:
            idx, val = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field in {raw!r}") from None
        if entries and idx <= entries[-1][0]:
            raise ValueError(f"line {lineno}: index {idx} not increasing")
        entries.append((idx, val))
    return entries


def _bfile_text(args) -> str:
    from importlib import resources  # only oeis pays for these imports
    from pathlib import Path

    digits = args.sequence[1:]
    if args.b_file:
        return Path(args.b_file).read_text()
    if args.fetch:
        cache_dir = Path(os.environ.get(CACHE_ENV, Path.home() / ".cache" / "cayburge"))
        cache_dir.mkdir(parents=True, exist_ok=True)
        cached = cache_dir / f"b{digits}.txt"
        if not cached.exists():
            import urllib.request  # only --fetch pays for this import

            url = f"https://oeis.org/{args.sequence}/b{digits}.txt"
            with urllib.request.urlopen(url, timeout=30) as response:
                cached.write_bytes(response.read())
        return cached.read_text()
    bundled = resources.files("cayburge").joinpath(f"data/b{digits}.txt")
    return bundled.read_text()


def _cmd_oeis(args) -> int:
    terms_through, first, last_index, default_bound = OEIS_VALUES[args.sequence]
    bound = args.max_n if args.max_n is not None else default_bound
    if bound < 1:
        return _fail(f"--max-n must be at least 1, got {bound}", 2)
    if bound > default_bound and not args.unsafe_bounds:
        return _fail(f"--max-n {bound} exceeds the bound {default_bound}; pass --unsafe-bounds to override", 2)
    try:
        entries = parse_bfile(_bfile_text(args))
    except FileNotFoundError as exc:
        return _fail(f"b-file not found: {exc}", 2)
    except OSError as exc:
        return _fail(f"could not {'fetch' if args.fetch else 'read'} b-file: {exc}", 2)
    except ValueError as exc:  # a bad line, or a file that is not UTF-8
        return _fail(f"malformed b-file: {exc}", 2)
    max_index = last_index(bound)
    compared = [(idx, expected) for idx, expected in entries if idx <= max_index]
    if not compared:
        return _fail(f"{args.sequence}: the b-file has no index in {first}..{max_index}", 2)
    # the terms reach only as far as the b-file does
    terms = terms_through(compared[-1][0])
    for idx, expected in compared:
        if idx < first:
            return _fail(f"{args.sequence} index {idx} is below its first index {first}", 2)
        got = terms[idx - first]
        if got != expected:
            print(
                f"{args.sequence} mismatch at index {idx}: engine {got}, b-file {expected}"
            )
            return 1
    checked = len(compared)
    summary = {"checked": checked, "max_index": max_index, "status": "ok"}
    if args.format == "json":
        _emit_record(args, args.sequence, {"max_n": bound}, "fixture-compare", summary)
    else:
        print(f"{args.sequence}: {checked} values agree (indices <= {max_index})")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error, or --help
        return exc.code
    return args.func(args)


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe fails here, not at shutdown
    except BrokenPipeError:
        # the reader is gone: send what is left to devnull, so the
        # interpreter's own flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, what a shell reports for a killed writer
    raise SystemExit(code)


if __name__ == "__main__":
    run()
