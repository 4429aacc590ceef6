"""Command line interface: output formats, bounds, exit codes, fixtures."""

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import cycle, islice, product
from pathlib import Path

import pytest

import cayburge
from cayburge import burge, cli, identities, lomat, words
from cayburge.cli import _render_word, main, parse_bfile


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_env(**extra) -> dict:
    """The environment of a fresh `python -m cayburge.cli` that imports
    this checkout's package."""
    paths = [str(Path(cayburge.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), **extra)


def test_count_genmat(capsys):
    code, out, _ = run_cli(capsys, "count", "genmat", "--rows", "2", "--size", "2")
    assert code == 0 and out.strip() == "7"
    code, out, _ = run_cli(
        capsys, "count", "genmat", "--rows", "2", "--size", "2", "--binary"
    )
    assert code == 0 and out.strip() == "5"


def test_count_genmat_methods_and_json(capsys):
    for method in ("compositions", "stirling", "inclexcl", "ogf-coefficient"):
        code, out, _ = run_cli(
            capsys,
            "count",
            "genmat",
            "--rows",
            "3",
            "--size",
            "4",
            "--method",
            method,
        )
        assert code == 0 and out.strip() == "354"
    code, out, _ = run_cli(
        capsys, "count", "genmat", "--rows", "2", "--size", "2", "--format", "json"
    )
    record = json.loads(out)
    assert record["value"] == 7
    assert record["object"] == "genmat"
    assert record["params"]["rows"] == 2 and record["params"]["size"] == 2


def test_count_mat(capsys):
    code, out, _ = run_cli(capsys, "count", "mat", "--n", "3")
    assert code == 0 and out.strip() == "33"
    code, out, _ = run_cli(capsys, "count", "mat", "--n", "3", "--binary")
    assert code == 0 and out.strip() == "24"


def test_count_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "count", "mat", "--n", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "object,method,value,params"
    assert lines[1].startswith("mat,stirling,5,")


def test_poly_caylerian(capsys):
    code, out, _ = run_cli(capsys, "poly", "caylerian", "--n", "3")
    assert code == 0 and out.strip() == "1 8 4"
    code, out, _ = run_cli(capsys, "poly", "caylerian", "--n", "3", "--strict")
    assert code == 0 and out.strip() == "4 8 1"
    code, out, _ = run_cli(
        capsys, "poly", "caylerian", "--n", "3", "--format", "json"
    )
    record = json.loads(out)
    assert record["value"] == [1, 8, 4]
    assert record["params"] == {"n": 3, "strict": False}


def test_poly_methods_agree(capsys):
    _, formula, _ = run_cli(capsys, "poly", "caylerian", "--n", "5")
    _, brute, _ = run_cli(capsys, "poly", "caylerian", "--n", "5", "--method", "brute")
    assert formula == brute


def test_poly_two_sided(capsys):
    code, out, _ = run_cli(
        capsys, "poly", "two-sided", "--n", "2", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["value"] == [[1, 1, 1], [1, 2, 1], [2, 1, 1], [2, 2, 2]]


def test_enumerate_cayley(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "cayley", "--n", "2")
    assert code == 0 and out.splitlines() == ["11", "12", "21"]


def test_enumerate_ballot(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "ballot", "--n", "2")
    assert code == 0 and out.splitlines() == ["{1,2}", "{1}{2}", "{2}{1}"]


def test_enumerate_burge_and_mat(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "burge", "--n", "2")
    assert code == 0 and len(out.splitlines()) == 5
    code, out, _ = run_cli(capsys, "enumerate", "mat", "--n", "2", "--binary")
    assert code == 0 and len(out.splitlines()) == 4
    assert "[1 0; 0 1]" in out


def test_enumerate_genmat_and_signed(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "genmat", "--rows", "2", "--size", "2"
    )
    assert code == 0 and len(out.splitlines()) == 7
    code, out, _ = run_cli(
        capsys, "enumerate", "signed", "--rows", "1", "--size", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert sum(1 for ln in lines if ln.startswith("signs=")) == 6


def test_enumerate_mat_with_ascents(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "mat", "--n", "3", "--ascents", "1"
    )
    assert code == 0 and len(out.splitlines()) == 8
    code, out, _ = run_cli(
        capsys, "enumerate", "mat", "--n", "3", "--ascents", ""
    )
    # row-sum vector (3): the four one-row matrices
    assert code == 0 and sorted(out.splitlines()) == [
        "[1 1 1]",
        "[1 2]",
        "[2 1]",
        "[3]",
    ]


def test_enumerate_names_a_bad_ascents_field(capsys):
    code, out, err = run_cli(capsys, "enumerate", "mat", "--n", "3", "--ascents", "1,x")
    assert code == 2 and out == ""
    assert err.strip() == "--ascents: cannot parse 'x' as a position"


def test_enumerate_deterministic(capsys):
    _, first, _ = run_cli(capsys, "enumerate", "mat", "--n", "3")
    _, second, _ = run_cli(capsys, "enumerate", "mat", "--n", "3")
    assert first == second


def test_enumerate_json_stream(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "cayley", "--n", "2", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["value"] == [[1, 1], [1, 2], [2, 1]]


# Exact stdout of small enumerate commands: the text lines and the JSON
# record.  The csv output is a "value" header and one row per text line,
# quoted where the line holds a comma.
PINNED = {
    "cayley --n 2": (
        ["11", "12", "21"],
        '{"method": "enumerate", "object": "cayley", "params": {"n": 2}, "value": [[1, 1], [1, 2], [2, 1]]}',
    ),
    "ballot --n 2": (
        ["{1,2}", "{1}{2}", "{2}{1}"],
        '{"method": "enumerate", "object": "ballot", "params": {"n": 2}, '
        '"value": [[[1, 2]], [[1], [2]], [[2], [1]]]}',
    ),
    "burge --n 2": (
        ["11|11", "11|21", "12|11", "12|12", "12|21"],
        '{"method": "enumerate", "object": "burge", "params": {"binary": false, "n": 2}, '
        '"value": [{"u": [1, 1], "v": [1, 1]}, {"u": [1, 1], "v": [2, 1]}, {"u": [1, 2], "v": [1, 1]}, '
        '{"u": [1, 2], "v": [1, 2]}, {"u": [1, 2], "v": [2, 1]}]}',
    ),
    "mat --n 2": (
        ["[2]", "[1 1]", "[1; 1]", "[1 0; 0 1]", "[0 1; 1 0]"],
        '{"method": "enumerate", "object": "mat", "params": {"binary": false, "n": 2}, '
        '"value": [[[2]], [[1, 1]], [[1], [1]], [[1, 0], [0, 1]], [[0, 1], [1, 0]]]}',
    ),
    "mat --n 3 --ascents 1": (
        ["[1; 2]", "[1 0; 1 1]", "[1 0; 0 2]", "[1 0 0; 0 1 1]", "[0 1; 2 0]", "[0 1; 1 1]",
         "[0 1 0; 1 0 1]", "[0 0 1; 1 1 0]"],
        '{"method": "enumerate", "object": "mat", "params": {"ascents": [1], "binary": false, "n": 3}, '
        '"value": [[[1], [2]], [[1, 0], [1, 1]], [[1, 0], [0, 2]], [[1, 0, 0], [0, 1, 1]], [[0, 1], [2, 0]], '
        '[[0, 1], [1, 1]], [[0, 1, 0], [1, 0, 1]], [[0, 0, 1], [1, 1, 0]]]}',
    ),
    "genmat --rows 2 --size 2": (
        ["[12; .]", "[1; 2]", "[.; 12]", "[1 2; . .]", "[1 .; . 2]", "[. 2; 1 .]", "[. .; 1 2]"],
        '{"method": "enumerate", "object": "genmat", "params": {"binary": false, "rows": 2, "size": 2}, '
        '"value": [[[[1, 2]], [[]]], [[[1]], [[2]]], [[[]], [[1, 2]]], [[[1], [2]], [[], []]], '
        '[[[1], []], [[], [2]]], [[[], [2]], [[1], []]], [[[], []], [[1], [2]]]]}',
    ),
    "signed --rows 1 --size 2": (
        ["signs=+ [12]", "signs=++ [12 .]", "signs=+- [12 .]", "signs=++ [1 2]", "signs=++ [. 12]",
         "signs=-+ [. 12]"],
        '{"method": "enumerate", "object": "signed", "params": {"rows": 1, "size": 2}, '
        '"value": [{"entries": [[[1, 2]]], "signs": [1]}, {"entries": [[[1, 2], []]], "signs": [1, 1]}, '
        '{"entries": [[[1, 2], []]], "signs": [1, -1]}, {"entries": [[[1], [2]]], "signs": [1, 1]}, '
        '{"entries": [[[], [1, 2]]], "signs": [1, 1]}, {"entries": [[[], [1, 2]]], "signs": [-1, 1]}]}',
    ),
    "signed --rows 2 --size 2 --ascents 1": (
        ["signs=+ [1; 2]", "signs=++ [1 .; 2 .]", "signs=+- [1 .; 2 .]", "signs=++ [1 .; . 2]",
         "signs=++ [. 2; 1 .]", "signs=++ [. 1; . 2]", "signs=-+ [. 1; . 2]"],
        '{"method": "enumerate", "object": "signed", "params": {"ascents": [1], "rows": 2, "size": 2}, '
        '"value": [{"entries": [[[1]], [[2]]], "signs": [1]}, {"entries": [[[1], []], [[2], []]], "signs": [1, 1]}, '
        '{"entries": [[[1], []], [[2], []]], "signs": [1, -1]}, {"entries": [[[1], []], [[], [2]]], "signs": [1, 1]}, '
        '{"entries": [[[], [2]], [[1], []]], "signs": [1, 1]}, {"entries": [[[], [1]], [[], [2]]], "signs": [1, 1]}, '
        '{"entries": [[[], [1]], [[], [2]]], "signs": [-1, 1]}]}',
    ),
}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("command", list(PINNED))
def test_enumerate_pinned_output(capsys, command, fmt):
    lines, record = PINNED[command]
    expected = {
        "text": "".join(line + "\n" for line in lines),
        "csv": "value\r\n" + "".join((f'"{line}"' if "," in line else line) + "\r\n" for line in lines),
        "json": record + "\n",
    }[fmt]
    code, out, err = run_cli(capsys, "enumerate", *command.split(), "--format", fmt)
    assert (code, out, err) == (0, expected, "")


# Exact stdout of the row-sum (--ascents) enumerate commands, one entry
# per command and format, as the filter over the full stream printed it.
ASCENTS_PINNED = json.loads((Path(__file__).parent / "data" / "enumerate_ascents.json").read_text())


@pytest.mark.parametrize("command", list(ASCENTS_PINNED))
def test_enumerate_ascents_pinned_output(capsys, command):
    code, out, err = run_cli(capsys, "enumerate", *command.split())
    assert (code, out, err) == (0, ASCENTS_PINNED[command], "")


def test_render_edge_branches():
    assert _render_word(()) == "eps"
    assert _render_word((10, 2, 1)) == "10 2 1"  # no enumerate command reaches it below n = 10
    assert _render_word((9, 1, 2, 1)) == "9121"
    no_rows = lomat.SignedLOMatrix(lomat.from_length_grid(()), ())
    assert list(cli._signed_text([no_rows])) == ["signs=() []"]


# A model of each object's text line, rendered on its own with nothing
# remembered; the stream renderers must give exactly its bytes.
def _model_word(w):
    return "eps" if not w else ("" if max(w) <= 9 else " ").join(map(str, w))


def _model_lomat(m):
    return "[" + "; ".join(" ".join(_model_word(e) if e else "." for e in row) for row in m.entries) + "]"


MODEL_LINE = {
    "cayley": _model_word,
    "ballot": lambda ballot: "".join("{" + ",".join(map(str, sorted(b))) + "}" for b in ballot),
    "burge": lambda bw: f"{_model_word(bw.u)}|{_model_word(bw.v)}",
    "mat": lambda mat: "[" + "; ".join(" ".join(map(str, row)) for row in mat) + "]",
    "genmat": _model_lomat,
    "signed": lambda sm: f"signs={''.join('+' if s == 1 else '-' for s in sm.signs) or '()'} {_model_lomat(sm.matrix)}",
}

# object -> the generator that feeds it, and size flags its command accepts
STREAM_SOURCE = {
    "cayley": (words, "enumerate_cayley", ["--n", "1"]),
    "ballot": (words, "enumerate_ballots", ["--n", "1"]),
    "burge": (burge, "enumerate_burge", ["--n", "1"]),
    "mat": (burge, "enumerate_mat", ["--n", "1"]),
    "genmat": (lomat, "enumerate_genmat", ["--rows", "1", "--size", "1"]),
    "signed": (lomat, "enumerate_signed", ["--rows", "1", "--size", "1"]),
}


def _cayley_stream(size, last=None):
    """``size`` Cayley words of size 4, the last one replaced by ``last``."""
    stream = list(islice(cycle(words.enumerate_cayley(4)), size))
    return stream[:-1] + [last] if last else stream


def _signed_with_wide_letters():
    base = lomat.from_length_grid(((10, 0),))  # letters 1..10, an empty second column
    other = lomat.from_length_grid(((0, 3, 0), (9, 0, 0)))
    return [lomat.SignedLOMatrix(base, (1, 1)), lomat.SignedLOMatrix(base, (1, -1)),
            lomat.SignedLOMatrix(other, (1, 1, -1)), lomat.SignedLOMatrix(lomat.from_length_grid(()), ())]


def _burge_with_wide_letters():
    u = tuple(range(1, 12))  # letters up to 11
    return [burge.BurgeWord(u, u[::-1]), burge.BurgeWord(u, (1,) * 11), burge.BurgeWord((1, 1), (2, 1))]


def _act_images():
    base = lomat.from_length_grid(((2, 0, 1), (1, 1, 0)))
    return [lomat.act(w, base) for w in words.enumerate_linear_orders(5)]


EDGE_STREAMS = {
    "cayley-n0": ("cayley", lambda: list(words.enumerate_cayley(0))),
    "cayley-empty-word-in-a-batch": ("cayley", lambda: [(1,), (1, 2), (), (2, 1)]),
    "cayley-letters-9-and-10-in-one-batch": ("cayley", lambda: [(1,), (9, 1, 2), (10, 9, 1), (2, 1)]),
    "cayley-letter-300": ("cayley", lambda: [(1,), (300, 1), (2, 1)]),
    "cayley-batch": ("cayley", lambda: _cayley_stream(cli._BATCH)),
    "cayley-batch-plus-1": ("cayley", lambda: _cayley_stream(cli._BATCH + 1)),
    "cayley-batch-plus-2-ending-in-10": ("cayley", lambda: _cayley_stream(cli._BATCH + 2, (10, 1))),
    "ballot-n4": ("ballot", lambda: list(words.enumerate_ballots(4))),
    "burge-n3": ("burge", lambda: list(burge.enumerate_burge(3))),
    "burge-letters-10-and-11": ("burge", _burge_with_wide_letters),
    "mat-n4": ("mat", lambda: list(burge.enumerate_mat(4))),
    "genmat-rows2-size3": ("genmat", lambda: list(lomat.enumerate_genmat(2, 3))),
    "genmat-rows1-size10": ("genmat", lambda: list(lomat.enumerate_genmat(1, 10))),
    # equal column lengths at equal offsets, holding different letters
    "genmat-act-images": ("genmat", _act_images),
    "genmat-letters-to-11": ("genmat", lambda: [lomat.from_length_grid(((2, 3), (4, 2)))]),
    "signed-rows2-size3": ("signed", lambda: list(lomat.enumerate_signed(2, 3))),
    "signed-letters-to-10-empty-columns": ("signed", _signed_with_wide_letters),
}


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("case", list(EDGE_STREAMS))
def test_stream_renderers_give_the_bytes_of_the_per_object_model(capsys, monkeypatch, case, fmt):
    obj, make = EDGE_STREAMS[case]
    objects = make()
    module, attribute, flags = STREAM_SOURCE[obj]
    monkeypatch.setattr(module, attribute, lambda *args, **kwargs: iter(objects))
    lines = [MODEL_LINE[obj](x) for x in objects]
    if fmt == "text":
        expected = "".join(line + "\n" for line in lines)
    else:
        buffer = io.StringIO()
        csv.writer(buffer).writerows([["value"], *([line] for line in lines)])
        expected = buffer.getvalue()
    code, out, err = run_cli(capsys, "enumerate", obj, *flags, "--format", fmt)
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize(
    "fmt, first",
    [("text", "12\n"), ("csv", "value\r\n12\r\n"), ("json", '"value": [[1, 2]')],
    ids=["text", "csv", "json"],
)
def test_enumerate_writes_each_object_as_it_is_generated(monkeypatch, fmt, first):
    out = io.StringIO()
    written_before_second = []

    def two_words(n):
        yield (1, 2)
        written_before_second.append(out.getvalue())
        yield (2, 1)

    monkeypatch.setattr(words, "enumerate_cayley", two_words)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["enumerate", "cayley", "--n", "2", "--format", fmt]) == 0
    assert written_before_second[0].endswith(first)
    assert out.getvalue().startswith(written_before_second[0])


# At this size every enumerate stream gives its first object within
# STREAM_BUDGET traced bytes; one that lists every Cayley word first would
# not finish.
STREAM_SIZE, STREAM_BUDGET = 12, 64 * 1024


def _stream_cases():
    """(object, arguments) for each ENUMERABLE object under each value of
    its --binary and --ascents flags.  The ascent set splits the size
    over the rows: three for genmat and signed, and for mat one, so S is
    empty and every place of v is forced."""
    for obj, (flags, *_) in cli.ENUMERABLE.items():
        rows = 1 if "n" in flags else 3
        positions = tuple(STREAM_SIZE * i // rows for i in range(1, rows))
        values = {"binary": (False, True), "ascents": (None, words.AscentSetSpec(STREAM_SIZE, positions))}
        shared = [f for f in flags if f in values]
        for chosen in product(*(values[f] for f in shared)):
            args = {"n": STREAM_SIZE} if rows == 1 else {"rows": rows, "size": STREAM_SIZE}
            args |= dict(zip(shared, chosen))
            yield pytest.param(obj, args, id="-".join([obj, *(f for f in shared if args[f])]))


@pytest.mark.parametrize("obj, args", _stream_cases())
def test_every_enumerate_stream_gives_its_first_object_in_bounded_memory(obj, args):
    generate = cli.ENUMERABLE[obj][1]
    tracemalloc.start()
    try:
        next(generate(**args))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < STREAM_BUDGET


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_enumerate_lazy_argument_error_leaves_stdout_empty(capsys, fmt):
    # enumerate_signed checks the ascent composition against the row
    # count only when it is first advanced
    code, out, err = run_cli(
        capsys, "enumerate", "signed", "--rows", "2", "--size", "4", "--ascents", "1,2", "--format", fmt
    )
    assert code == 2 and out == "" and err


@pytest.mark.parametrize(
    "command, unread",
    [
        ("cayley --n 2", "--binary"),
        ("cayley --n 2", "--rows 3"),
        ("ballot --n 2", "--ascents 1"),
        ("burge --n 2", "--size 2"),
        ("mat --n 2", "--rows 2"),
        ("genmat --rows 2 --size 2", "--ascents 1"),
        ("genmat --rows 2 --size 2", "--n 2"),
        ("signed --rows 1 --size 2", "--binary"),
    ],
)
def test_enumerate_refuses_flags_the_object_does_not_read(capsys, command, unread):
    code, _, _ = run_cli(capsys, "enumerate", *command.split())
    assert code == 0
    code, out, err = run_cli(capsys, "enumerate", *command.split(), *unread.split())
    assert code == 2 and out == ""
    assert f"does not read {unread.split()[0]}" in err


@pytest.mark.parametrize(
    "command, unread",
    [
        ("mat --n 3", "--rows 9"),
        ("mat --n 3", "--size 4"),
        ("genmat --rows 2 --size 2", "--n 3"),
    ],
)
def test_count_refuses_flags_the_object_does_not_read(capsys, command, unread):
    code, _, _ = run_cli(capsys, "count", *command.split())
    assert code == 0
    code, out, err = run_cli(capsys, "count", *command.split(), *unread.split())
    assert code == 2 and out == ""
    assert f"count {command.split()[0]} does not read {unread.split()[0]}" in err


@pytest.mark.parametrize(
    "argv, lines_read",
    [
        # more output than a pipe holds: the writer meets the closed pipe mid-stream
        (["enumerate", "cayley", "--n", "7"], 1),
        # a few lines, printed after the reader has gone
        (["verify", "kernel", "--max-n", "2"], 0),
    ],
)
def test_closed_stdout_pipe_exits_141_without_traceback(argv, lines_read):
    proc = subprocess.Popen(
        [sys.executable, "-m", "cayburge.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=fresh_env(),
    )
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_main_answers_as_a_fresh_process_on_every_call(capsys, monkeypatch):
    # main reuses one parser per process; usage and help text wrap at COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    sequence = [
        ["count", "genmat", "--rows", "two", "--size", "5"],
        ["--help"],
        ["count", "genmat", "--rows", "2", "--size", "5"],
        ["enumerate", "cayley", "--n", "2", "--binary"],
    ]
    in_process = [run_cli(capsys, *argv) for argv in sequence * 2]
    fresh = []
    for argv in sequence:
        proc = subprocess.run(
            [sys.executable, "-m", "cayburge.cli", *argv],
            capture_output=True,
            text=True,
            env=fresh_env(COLUMNS="80"),
            timeout=60,
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in fresh] == [2, 0, 0, 2]
    assert in_process == fresh * 2


def test_main_parses_through_one_parser_per_process(capsys, monkeypatch):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    parsed = []

    def parse_args(argv):
        parsed.append(argv)
        return type(parser).parse_args(parser, argv)

    monkeypatch.setattr(parser, "parse_args", parse_args)
    calls = [["count", "genmat", "--rows", "2", "--size", "3"], ["poly", "caylerian", "--n", "3"]]
    assert [run_cli(capsys, *argv)[0] for argv in calls] == [0, 0]
    assert parsed == calls


def test_importing_the_cli_loads_no_class_generation_or_path_machinery():
    """A bare `import cayburge.cli`, with no site packages, loads none of
    the modules that generating classes or finding a b-file would need:
    only oeis imports the last two, on its first call."""
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import cayburge.cli; print(*sys.modules)"
    src = str(Path(cayburge.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", probe, src], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    unwanted = {"dataclasses", "inspect", "ast", "dis", "tokenize", "importlib.resources", "pathlib"}
    assert "cayburge.cli" in proc.stdout.split() and unwanted.isdisjoint(proc.stdout.split())


def test_bounds_rejected_then_overridden(capsys):
    code, _, err = run_cli(capsys, "enumerate", "cayley", "--n", "9")
    assert code == 2 and "unsafe-bounds" in err
    code, out, _ = run_cli(
        capsys,
        "enumerate",
        "genmat",
        "--rows",
        "1",
        "--size",
        "8",
        "--unsafe-bounds",
    )
    assert code == 0 and len(out.splitlines()) == 128
    code, _, err = run_cli(capsys, "count", "mat", "--n", "13")
    assert code == 2
    code, _, err = run_cli(capsys, "poly", "caylerian", "--n", "8", "--method", "brute")
    assert code == 2


def test_count_enumerate_takes_the_enumerate_caps(capsys):
    argv = ("count", "genmat", "--rows", "9", "--size", "2", "--method", "enumerate")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "--rows 9" in err and "bound 8" in err
    code, out, _ = run_cli(capsys, *argv, "--unsafe-bounds")
    assert code == 0 and out.strip() == "126"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("count", "genmat", "--rows", "2", "--size", "2", "--method", "bogus"),
         f"unknown method 'bogus'; choose from {identities.GENMAT_METHODS}"),
        (("verify", "all", "--format", "csv"), "verify writes text or json, not csv"),
    ],
    ids=["count-unknown-method", "verify-csv"],
)
def test_refusals_exit_2_with_empty_stdout(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", message + "\n")


def test_negative_arguments_rejected(capsys):
    code, _, err = run_cli(capsys, "count", "mat", "--n", "-1")
    assert code == 2
    code, _, err = run_cli(capsys, "enumerate", "cayley", "--n", "-2")
    assert code == 2


def test_missing_required_params(capsys):
    code, _, err = run_cli(capsys, "count", "genmat", "--rows", "2")
    assert code == 2
    code, _, err = run_cli(capsys, "enumerate", "genmat", "--size", "2")
    assert code == 2


def test_bad_ascents_spec(capsys):
    for argv, message in [
        (["mat", "--n", "3", "--ascents", "7"], "position 7 outside 1..2"),
        (["signed", "--rows", "2", "--size", "3", "--ascents", ""], "delta has 1 parts but the structures have 2 rows"),
        (["mat", "--n", "0", "--ascents", ""], "an ascent set needs n >= 1, got 0"),
    ]:
        code, out, err = run_cli(capsys, "enumerate", *argv)
        assert code == 2 and out == ""
        assert err.strip() == "--ascents: " + message


def test_signed_bases_are_rendered_once(capsys, monkeypatch):
    """Each signed base is rendered once for all its sign vectors,
    however many lines print it."""
    calls = []
    build = cli._lomat_renderer

    def counted():
        render = build()
        return lambda m: calls.append(m) or render(m)

    monkeypatch.setattr(cli, "_lomat_renderer", counted)
    code, out, _ = run_cli(capsys, "enumerate", "signed", "--rows", "2", "--size", "3")
    assert code == 0 and len(out.splitlines()) == 160
    assert len(calls) == 80 and len({(m.word, m.grid) for m in calls}) == 80


def test_genmat_columns_are_drawn_once_per_stream(capsys, monkeypatch):
    """Each distinct column (its letters and entry lengths) of a genmat
    stream has its entries drawn once, and again in the next stream."""
    columns = set()
    for m in lomat.enumerate_genmat(3, 4):
        for column in zip(*m.entries):
            columns.add((sum(column, ()), tuple(map(len, column))))
    entries = sum(k > 0 for _, lengths in columns for k in lengths)
    calls = []
    real = cli._render_word
    monkeypatch.setattr(cli, "_render_word", lambda w: calls.append(w) or real(w))
    for stream in (1, 2):
        code, _, _ = run_cli(capsys, "enumerate", "genmat", "--rows", "3", "--size", "4")
        assert code == 0 and len(calls) == stream * entries


def test_verify_pass_and_formats(capsys):
    code, out, _ = run_cli(capsys, "verify", "kernel", "--max-n", "4")
    assert code == 0
    assert out.splitlines()[-1].endswith("0 fail, 0 unconverged")
    code, out, _ = run_cli(
        capsys, "verify", "pairing", "--max-n", "4", "--max-m", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["fail"] == 0
    names = [c["name"] for c in payload["checks"]]
    assert "carlitz-pairing" in names


@pytest.mark.parametrize(
    "suite, max_n, max_m",
    [(suite, 3, 2) for suite in ("all", *identities.SUITES)] + [(suite, 8, 8) for suite in ("pairing", "gf", "kernel")],
)
def test_verify_json_is_the_dump_of_the_check_records(capsys, suite, max_n, max_m):
    """verify --format json prints the check records exactly as dicts of
    their five fields would dump."""
    argv = ("verify", suite, "--max-n", str(max_n), "--max-m", str(max_m), "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    results = identities.run_suite(suite, max_n, max_m)
    summary = Counter(dict.fromkeys(("pass", "fail", "unconverged"), 0))
    summary.update(r.status for r in results)
    checks = [
        {"name": r.name, "params": r.params, "status": r.status, "witness": r.witness, "detail": r.detail}
        for r in results
    ]
    payload = {"suite": suite, "max_n": max_n, "max_m": max_m, "checks": checks, "summary": summary}
    assert code == 0 and out == json.dumps(payload, sort_keys=True) + "\n"


def test_verify_refuses_csv_before_any_check_runs(capsys, monkeypatch):
    monkeypatch.setattr(identities, "run_suite", lambda *args: pytest.fail("a check ran"))
    code, out, err = run_cli(capsys, "verify", "kernel", "--format", "csv")
    assert code == 2 and out == "" and "csv" in err


def test_verify_bounds(capsys):
    code, _, err = run_cli(capsys, "verify", "formulas", "--max-n", "9")
    assert code == 2 and "unsafe-bounds" in err


def test_verify_bad_tail_bound(capsys):
    code, _, err = run_cli(
        capsys, "verify", "gf", "--max-n", "3", "--tail-bound", "huge"
    )
    assert code == 2


def test_verify_tail_bound_range(capsys):
    for value in ("5", "0", "-1", "2/3"):
        code, _, err = run_cli(capsys, "verify", "gf", "--max-n", "2", "--tail-bound", value)
        assert code == 2 and "(0, 1/2]" in err, value


def test_verify_tail_bound_reaches_certified_sums(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "gf", "--max-n", "2", "--tail-bound", "1/8", "--format", "json"
    )
    assert code == 0
    bounds = {c["name"]: c["params"].get("tail_bound") for c in json.loads(out)["checks"]}
    assert bounds["halving-sum-general"] == bounds["double-sum-binary"] == "1/8"
    tiny = "1/" + str(2**9000)
    code, out, _ = run_cli(
        capsys, "verify", "gf", "--max-n", "2", "--tail-bound", tiny, "--format", "json"
    )
    assert code == 3
    assert "unconverged" in {c["status"] for c in json.loads(out)["checks"]}


@pytest.mark.parametrize("suite", ["all", *identities.SUITES])
def test_verify_refuses_tail_bound_where_no_check_reads_it(capsys, suite):
    """A suite whose results carry no tail bound refuses --tail-bound with
    exit 2 and runs no check; gf and all run with it."""
    _, out, _ = run_cli(capsys, "verify", suite, "--max-n", "1", "--max-m", "1", "--format", "json")
    reads = any("tail_bound" in c["params"] for c in json.loads(out)["checks"])
    assert reads == (suite in ("gf", "all"))
    code, out, err = run_cli(
        capsys, "verify", suite, "--max-n", "1", "--max-m", "1", "--tail-bound", "1/4", "--format", "json"
    )
    if reads:
        assert code == 0
        bounds = {c["params"].get("tail_bound") for c in json.loads(out)["checks"]}
        assert bounds == {None, "1/4"}
    else:
        assert (code, out) == (2, "")
        assert err == f"verify {suite} does not read --tail-bound (only gf and all have certified sums)\n"


def test_verify_text_shows_effective_bounds(capsys):
    code, out, _ = run_cli(capsys, "verify", "gf", "--max-n", "8", "--max-m", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "6 checks: 6 pass, 0 fail, 0 unconverged"
    species = next(line for line in lines if " species-series-vs-counts " in line)
    assert species.split()[:2] == ["PASS", "species-series-vs-counts"]
    assert "[max_n=6, max_m=4]" in species


def test_tables_grow_past_64_from_the_cli(capsys):
    code, out, _ = run_cli(capsys, "poly", "caylerian", "--n", "70", "--unsafe-bounds")
    assert code == 0 and len(out.split()) == 70
    code, out, _ = run_cli(capsys, "verify", "kernel", "--max-n", "70", "--unsafe-bounds")
    assert code == 0 and out.splitlines()[-1].endswith("3 pass, 0 fail, 0 unconverged")
    code, _, err = run_cli(capsys, "count", "mat", "--n", "70", "--unsafe-bounds")
    assert code == 0 and not err


def test_oeis_bundled_fixtures(capsys):
    for seq in ("A000670", "A120733", "A101370", "A366173"):
        code, out, _ = run_cli(capsys, "oeis", seq)
        assert code == 0, seq
        assert "agree" in out
    code, out, _ = run_cli(capsys, "oeis", "A000670", "--max-n", "8")
    assert code == 0
    code, out, _ = run_cli(capsys, "oeis", "A000670", "--format", "json")
    payload = json.loads(out)
    assert payload["value"]["status"] == "ok"
    assert payload["value"]["checked"] == 13


def test_oeis_mismatch_reports_first_index(tmp_path, capsys):
    bad = tmp_path / "b000670.txt"
    bad.write_text("0 1\n1 1\n2 99\n")
    code, out, _ = run_cli(
        capsys, "oeis", "A000670", "--b-file", str(bad)
    )
    assert code == 1
    assert "mismatch at index 2" in out
    assert "engine 3" in out and "b-file 99" in out


def test_oeis_malformed_bfile(tmp_path, capsys):
    bad = tmp_path / "b.txt"
    bad.write_text("0 1\nnot a line\n")
    code, _, err = run_cli(capsys, "oeis", "A000670", "--b-file", str(bad))
    assert code == 2 and "malformed" in err


@pytest.mark.parametrize("sequence, first", [("A000670", 0), ("A120733", 0), ("A101370", 0), ("A366173", 1)])
def test_oeis_index_below_the_first_rejected(tmp_path, capsys, sequence, first):
    bfile = tmp_path / "b.txt"
    bfile.write_text(f"{first - 1} 1\n{first} 1\n")
    code, out, err = run_cli(capsys, "oeis", sequence, "--b-file", str(bfile))
    assert code == 2 and out == ""
    assert f"{sequence} index {first - 1} is below its first index {first}" in err


@pytest.mark.parametrize(
    "sequence, text, flags, span",
    [
        ("A000670", "", [], "0..12"),
        ("A000670", "# a comment and nothing else\n\n", [], "0..12"),
        ("A366173", "7 4683\n", ["--max-n", "3"], "1..6"),
    ],
)
def test_oeis_bfile_with_no_index_in_range_compares_nothing(tmp_path, capsys, sequence, text, flags, span):
    bfile = tmp_path / "b.txt"
    bfile.write_text(text)
    code, out, err = run_cli(capsys, "oeis", sequence, "--b-file", str(bfile), *flags)
    assert (code, out) == (2, "")
    assert f"{sequence}: the b-file has no index in {span}" in err


def test_oeis_bfile_not_utf8_is_malformed(tmp_path, capsys):
    bad = tmp_path / "b.txt"
    bad.write_bytes(b"\xff\xfe0 1\n")
    code, out, err = run_cli(capsys, "oeis", "A000670", "--b-file", str(bad))
    assert code == 2 and out == ""
    assert "malformed b-file" in err


def test_oeis_bfile_that_cannot_be_read(tmp_path, capsys):
    code, out, err = run_cli(capsys, "oeis", "A000670", "--b-file", str(tmp_path))
    assert (code, out) == (2, "") and err.startswith("could not read b-file: ")


def test_oeis_computes_terms_only_as_far_as_the_bfile_reaches(capsys, monkeypatch):
    calls = []
    real = identities.count_mat
    monkeypatch.setattr(identities, "count_mat", lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    code, out, _ = run_cli(capsys, "oeis", "A120733", "--max-n", "300", "--unsafe-bounds")
    assert (code, out) == (0, "A120733: 13 values agree (indices <= 300)\n")
    assert len(calls) <= 13


def test_oeis_bound(capsys):
    code, _, err = run_cli(capsys, "oeis", "A000670", "--max-n", "13")
    assert code == 2


@pytest.mark.parametrize("sequence, max_n", [("A366173", "-3"), ("A000670", "-1"), ("A120733", "0")])
def test_oeis_max_n_below_one_rejected(capsys, sequence, max_n):
    code, out, err = run_cli(capsys, "oeis", sequence, "--max-n", max_n)
    assert code == 2 and out == ""
    assert "--max-n must be at least 1" in err


def test_oeis_b_file_and_fetch_are_exclusive(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CAYBURGE_CACHE_DIR", str(tmp_path / "cache"))
    bfile = tmp_path / "b000670.txt"
    bfile.write_text("0 1\n1 1\n2 3\n")
    code, out, err = run_cli(capsys, "oeis", "A000670", "--b-file", str(bfile), "--fetch")
    assert code == 2 and out == ""
    assert "not allowed with argument" in err
    assert not (tmp_path / "cache").exists()


def test_parse_bfile():
    assert parse_bfile("# comment\n\n0 1\n1 5\n") == [(0, 1), (1, 5)]
    with pytest.raises(ValueError):
        parse_bfile("0 1\n0 2\n")
    with pytest.raises(ValueError):
        parse_bfile("0\n")
    with pytest.raises(ValueError):
        parse_bfile("zero one\n")


def test_entry_point_raises_system_exit(capsys):
    from cayburge.cli import run

    import sys

    old = sys.argv
    sys.argv = ["cayburge", "count", "mat", "--n", "2"]
    try:
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 0
    finally:
        sys.argv = old
