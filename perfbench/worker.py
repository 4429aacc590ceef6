"""Run one phase of one workload in a fresh interpreter and report it.

Started by ``run.py``, once per phase, as

    python3 perfbench/worker.py <root> <workload> <seed> <seconds> <trace>

Untraced (trace 0), it repeats whole passes over the workload's
operations while another pass still fits in ``seconds``, at least once.
Traced (trace 1), it installs the tracer and runs exactly one pass, so
that every count describes one pass and repeats exactly for a seed.  The
report is one JSON object on the real standard output.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads
from speed import MIN_SAMPLES, REFERENCE_S, SpeedSampler, reference_seconds
from tracer import LAYERS, Tracer, installed


class ByteSink(io.RawIOBase):
    """Counts the bytes the CLI writes; keeps or parses them when asked."""

    def __init__(self):
        super().__init__()
        self.start(capture=False, signed=False)

    def start(self, capture: bool, signed: bool) -> None:
        self.bytes = 0
        self.newlines = 0
        self.chunks = [] if capture else None
        self.signed = signed
        self.pending = b""
        self.xi_sum = 0

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        b = bytes(b)
        self.bytes += len(b)
        self.newlines += b.count(b"\n")
        if self.chunks is not None:
            self.chunks.append(b)
        if self.signed:
            self._signed_lines(b)
        return len(b)

    def _signed_lines(self, b: bytes) -> None:
        # each line is "signs=<+ or - per column> <matrix>"; a structure's
        # sign is -1 when an odd number of its columns carry -
        lines = (self.pending + b).split(b"\n")
        self.pending = lines.pop()
        for line in lines:
            signs = line[6 : line.index(b" ")] if line.startswith(b"signs=") else b""
            self.xi_sum += -1 if signs.count(b"-") % 2 else 1

    def text(self) -> str:
        return b"".join(self.chunks).decode() if self.chunks is not None else ""


def run_op(main, op, sink: ByteSink, stdout, clock=perf_counter) -> workloads.Outcome:
    sink.start(capture=op.capture, signed=op.signed)
    errors = io.StringIO()
    sys.stdout, sys.stderr = stdout, errors
    start = clock()
    try:
        rc = main(op.argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        rc = f"exception {exc!r}"
    finally:
        stdout.flush()
        seconds = clock() - start
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    return workloads.Outcome(
        rc=rc,
        seconds=seconds,
        bytes_out=sink.bytes,
        lines=sink.newlines,
        text=sink.text(),
        xi_sum=sink.xi_sum,
        error=errors.getvalue().strip()[:300],
    )


def run_pass(main, ops, sink, stdout, sampler: SpeedSampler | None = None):
    """Run every operation once and return the outcomes.

    With a sampler, the machine's speed is sampled while the operations
    run, each outcome's ``seconds`` excludes the sampling, and its
    ``scaled`` time is at reference speed (see speed.py): by the samples
    taken during the operation when there are enough, else by those of
    the whole pass.
    """
    if sampler is None:
        return [run_op(main, op, sink, stdout) for op in ops]
    outcomes, marks = [], []
    with sampler:
        for op in ops:
            first = len(sampler.samples)
            outcomes.append(run_op(main, op, sink, stdout, sampler.clock))
            marks.append((first, len(sampler.samples)))
    for out, (first, end) in zip(outcomes, marks):
        own = sampler.samples[first:end]
        out.scaled = out.seconds * sampler.scale(own if len(own) >= MIN_SAMPLES else None)
    return outcomes


def layer_metrics(tracer: Tracer, pass_s: float, bytes_out: int) -> dict:
    """Per-layer figures of one traced pass, by metric name."""
    calls, items = tracer.call_count, tracer.item_count

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def calls_under(prefix: str) -> int:
        return sum(v for (k, _), v in tracer.calls.items() if k.startswith(prefix))

    out = {f"{layer}.self_s": tracer.self_s[layer] for layer in LAYERS}
    out["harness.self_s"] = tracer.self_s["harness"]
    out["kernel.weak_compositions.items"] = items("kernel.weak_compositions")
    out["kernel.compositions.items"] = items("kernel.compositions")
    out["kernel.series_ops"] = calls_under("kernel.RatSeries.")
    out["kernel.poly_ops"] = calls_under("kernel.IntPoly.") + calls_under("kernel.BiPoly.")
    out["words.cayley_words"] = items("words.enumerate_cayley")
    burge_words = items("burge.enumerate_burge")
    out["burge.burge_words"] = burge_words
    out["burge.filter_yield"] = ratio(burge_words, tracer.burge_candidates)
    out["burge.row_filter_yield"] = ratio(
        items("burge.enumerate_mat+rows"),
        items("burge.enumerate_burge", "burge.enumerate_mat+rows"),
    )
    out["lomat.structures"] = calls("lomat.LinOrderMatrix.__post_init__")
    out["lomat.act_calls"] = calls("lomat.act")
    out["lomat.tau_calls"] = calls("lomat.tau")
    out["lomat.xi_atoms_calls"] = calls("lomat.xi_atoms")
    out["lomat.signed_filter_yield"] = ratio(
        calls("lomat.from_length_grid", "lomat.enumerate_signed+rows"),
        items("kernel.weak_compositions", "lomat.enumerate_signed+rows"),
    )
    out["identities.checks"] = calls("identities.CheckResult.__init__")
    for name in CHECK_FUNCTIONS:
        out[f"identities.check.{name}_s"] = tracer.span_s[f"identities.{name}"]
    out["identities.formula_s"] = sum(
        seconds
        for key, seconds in tracer.span_s.items()
        if key.startswith("identities.") and _is_formula(key.split(".", 1)[1])
    )
    out["cli.bytes_out"] = bytes_out
    out["trace.wall_s"] = pass_s
    out["trace.accounted"] = ratio(sum(tracer.self_s.values()), pass_s)
    return out


CHECK_FUNCTIONS = (
    "check_tables",
    "check_cayley_ballot",
    "check_word_matrix",
    "check_act_bijection",
    "check_atom_ballot",
    "check_gamma",
    "check_gamma_row_filtered",
    "check_tau",
    "check_tau_row_complete",
    "check_count_methods",
    "check_count_mat_methods",
    "check_caylerian",
    "check_two_sided",
    "check_beta",
    "check_ogf_coefficients",
    "check_species_series",
    "check_halving",
    "check_double_sum",
    "pairing_check",
)


def _is_formula(name: str) -> bool:
    """identities functions other than the checks and the suite runner."""
    return not (name in CHECK_FUNCTIONS or name == "run_suite" or name.startswith(("suite_", "CheckResult")))


def import_cli(root: Path):
    """Import cayburge.cli from the checkout's src/ and no other copy."""
    src = root / "src"
    sys.path.insert(0, str(src))
    from cayburge import cli

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"imported cayburge from {cli.__file__}, not from {src}")
    return cli


def main(argv: list[str]) -> int:
    root, workload, seed, seconds, trace = Path(argv[0]), argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
    cli = import_cli(root)
    ops = workloads.build(workload, seed, root)
    sink = ByteSink()
    stdout = io.TextIOWrapper(sink, encoding="utf-8", newline="\n")
    report = {"ops": len(ops)}

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    elif installed():
        raise SystemExit(f"untraced run found wrappers installed: {installed()[:5]}")

    passes, scaled, op_s = [], [], []
    tally = workloads.Tally()
    objects = bytes_out = 0
    started = perf_counter()
    while True:
        if tracer is None:
            outcomes = run_pass(cli.main, ops, sink, stdout, SpeedSampler())
        else:
            # the speed is sampled around the traced pass, never inside
            # the tracer's window
            before = reference_seconds(5)
            tracer.reset()
            outcomes = run_pass(cli.main, ops, sink, stdout)
            tracer.stop()
            scale = REFERENCE_S / statistics.fmean([before, reference_seconds(5)])
            for out in outcomes:
                out.scaled = out.seconds * scale
        passes.append(sum(o.seconds for o in outcomes))
        scaled.append(sum(o.scaled for o in outcomes))
        op_s.append([o.scaled for o in outcomes])
        result = workloads.evaluate(workload, ops, outcomes)
        tally.attempted += result.attempted
        tally.failed += result.failed
        tally.notes.extend(result.notes[: 20 - len(tally.notes)])
        objects = sum(workloads.objects(op, o) for op, o in zip(ops, outcomes))
        bytes_out = sum(o.bytes_out for o in outcomes)
        # stop unless another pass of the same length still fits
        if trace or perf_counter() - started + passes[-1] > seconds:
            break

    report.update(
        raw_pass_s=passes,
        # times at reference speed (see speed.py)
        pass_s=scaled,
        # query latencies: a formula query is one command, each taken as its
        # median over the passes, which drops a one-off stall; on the other
        # workloads a query is a whole pass, the unit a user waits for
        query_s=(
            [statistics.median(samples) for samples in zip(*op_s)]
            if workload in workloads.COMMAND_IS_QUERY
            else scaled
        ),
        queries_per_pass=len(ops) if workload in workloads.COMMAND_IS_QUERY else 1,
        objects_per_pass=objects,
        attempted=tally.attempted,
        failed=tally.failed,
        notes=tally.notes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, passes[0], bytes_out)
        tracer.uninstall()
    print(json.dumps(report), file=sys.__stdout__, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
