"""Self-test of the benchmark's gates and tracer.

    python3 perfbench/selftest.py

1. Gates: each workload's gate accepts the right answers and reports
   every single deliberately wrong answer as a failure.
2. Tracer binding: ``Tracer.install`` rebinds each public function in
   its defining module and in every module that imported it by name;
   one traced pass of each workload records calls on the functions that
   workload is meant to exercise, through those bindings, and stays
   correct; ``uninstall`` leaves no wrapper behind.
3. The metric names the benchmark prints are the ones BENCHMARK.json
   declares.

Takes about two minutes, most of it in the traced passes.  Exits 0 when
every check holds and 1 otherwise.
"""

from __future__ import annotations

import copy
import inspect
import io
import json
import sys
from pathlib import Path

import run
import workloads
from tracer import LAYERS, MARK, PACKAGE, Tracer, installed
from worker import CHECK_FUNCTIONS, ByteSink, import_cli, layer_metrics, run_op, run_pass

ROOT = Path(__file__).resolve().parent.parent
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        FAILURES.append(what)
        print(f"FAIL {what}")


def tally(workload, ops, outcomes):
    return workloads.evaluate(workload, ops, outcomes)


# ---------------------------------------------------------------------------
# 1. gates


def right_outcome(op: workloads.Op) -> workloads.Outcome:
    """What a correct program prints for an enumerate or verify-default op."""
    out = workloads.Outcome(rc=0, seconds=0.0, bytes_out=0, lines=0)
    if op.kind in workloads.SUITE_CHECKS:
        checks = [{"name": n, "status": "pass"} for n in workloads.SUITE_CHECKS[op.kind]]
        out.text = json.dumps({"checks": checks}) + "\n"
    elif op.capture:
        out.text = json.dumps({"value": [[]] * op.expected}) + "\n"
        out.lines = 1
    elif op.signed:
        out.xi_sum = op.expected
    else:
        out.lines = op.expected + op.header_lines
    return out


def test_verify_default_gate() -> None:
    ops = workloads.build("verify-default", 0, ROOT)
    right = [right_outcome(op) for op in ops]
    t = tally("verify-default", ops, right)
    expect((t.attempted, t.failed) == (33, 0), f"verify-default right answers: {t.attempted} attempted, {t.failed} failed")

    def failed_with(change) -> int:
        outcomes = copy.deepcopy(right)
        change(outcomes)
        return tally("verify-default", ops, outcomes).failed

    def fail_one_check(outs):
        outs[0].text = outs[0].text.replace('"pass"', '"fail"', 1)

    def drop_one_check(outs):
        record = json.loads(outs[0].text)
        record["checks"].pop()
        outs[0].text = json.dumps(record)

    def nonzero_exit(outs):
        outs[0].rc = 1

    def failing_extra_check(outs):
        record = json.loads(outs[0].text)
        record["checks"].append({"name": "new-check", "status": "fail"})
        outs[0].text = json.dumps(record)

    for change in (fail_one_check, drop_one_check, nonzero_exit, failing_extra_check):
        expect(failed_with(change) == 1, f"verify-default gate, {change.__name__}: not one failure")
    unreadable = failed_with(lambda outs: setattr(outs[0], "text", "Traceback"))
    expect(unreadable == len(workloads.SUITE_CHECKS[ops[0].kind]), "verify-default gate, unreadable output")


def test_enumerate_gate() -> None:
    ops = workloads.build("enumerate-stream", 0, ROOT)
    right = [right_outcome(op) for op in ops]
    t = tally("enumerate-stream", ops, right)
    expect((t.attempted, t.failed) == (len(ops), 0), f"enumerate-stream right answers: {t.failed} failed")
    for i, op in enumerate(ops):
        for what in ("value", "exit"):
            outcomes = copy.deepcopy(right)
            wrong = outcomes[i]
            if what == "exit":
                wrong.rc = 2
            elif op.capture:
                wrong.text = json.dumps({"value": [[]] * (op.expected + 1)})
            elif op.signed:
                wrong.xi_sum -= 1
            else:
                wrong.lines += 1
            failed = tally("enumerate-stream", ops, outcomes).failed
            expect(failed == 1, f"enumerate-stream gate, wrong {what} of {' '.join(op.argv)}: {failed} failures")


def run_ops(cli, ops):
    sink = ByteSink()
    stdout = io.TextIOWrapper(sink, encoding="utf-8", newline="\n")
    return [run_op(cli.main, op, sink, stdout) for op in ops]


def test_formula_gate(cli) -> None:
    ops = workloads.build("formula-queries", 0, ROOT)
    right = run_ops(cli, ops)
    t = tally("formula-queries", ops, right)
    expect((t.attempted, t.failed) == (len(ops), 0), f"formula-queries right answers: {t.failed} failed {t.notes[:3]}")
    for i, op in enumerate(ops):
        wrong = copy.deepcopy(right[i])
        if op.argv[0] == "verify":
            text = wrong.text
            wrong.text = text.replace("PASS", "FAIL", 1) if "PASS" in text else text.replace('"pass"', '"fail"', 1)
        else:
            # the answer of another query of the same kind and format whose
            # correct value differs: a wrong value in the right shape
            other = next(
                (
                    j
                    for j, o in enumerate(ops)
                    if o.kind == op.kind
                    and o.expected != op.expected
                    and workloads.output_format(o) == workloads.output_format(op)
                ),
                None,
            )
            if other is None:
                expect(False, f"no wrong answer available for {' '.join(op.argv)}")
                continue
            wrong = copy.deepcopy(right[other])
        outcomes = right[:i] + [wrong] + right[i + 1 :]
        failed = tally("formula-queries", ops, outcomes).failed
        expect(failed == 1, f"formula-queries gate, wrong answer to {' '.join(op.argv)}: {failed} failures")
    outcomes = right[:]
    outcomes[0] = copy.deepcopy(right[0])
    outcomes[0].rc = 2
    expect(tally("formula-queries", ops, outcomes).failed == 1, "formula-queries gate, nonzero exit")


# ---------------------------------------------------------------------------
# 2. tracer binding

# Functions (keys as the tracer names them) each workload must reach.
EXERCISED = {
    "verify-default": [
        "cli.main",
        "identities.run_suite",
        "identities.CheckResult.__init__",
        *(f"identities.{name}" for name in CHECK_FUNCTIONS),
        "lomat.act",
        "lomat.tau",
        "lomat.xi_atoms",
        "lomat.gamma",
        "lomat.factor_action",
        "lomat.to_atom_ballot",
        "lomat.from_atom_ballot",
        "lomat.enumerate_lomat",
        "lomat.enumerate_lomat_direct",
        "lomat.enumerate_signed",
        "lomat.enumerate_signed+rows",
        "lomat.LinOrderMatrix.__post_init__",
        "lomat.LinOrderMatrix.has_empty_row",
        "burge.enumerate_burge",
        "burge.enumerate_mat+rows",
        "words.enumerate_cayley",
        "kernel.weak_compositions",
        "kernel.compositions",
    ],
    "enumerate-stream": [
        "cli.main",
        "words.enumerate_cayley",
        "words.enumerate_ballots",
        "burge.enumerate_weakly_increasing",
        "burge.enumerate_burge",
        "burge.enumerate_mat",
        "burge.word_to_matrix",
        "lomat.enumerate_genmat",
        "lomat.from_length_grid",
        "lomat.enumerate_signed",
        "lomat.enumerate_signed+rows",
        "lomat.LinOrderMatrix.__post_init__",
        "kernel.compositions",
        "kernel.weak_compositions",
    ],
    "formula-queries": [
        "cli.main",
        "cli.parse_bfile",
        "identities.count_genmat",
        "identities.count_mat",
        "identities.caylerian_formula",
        "identities.two_sided_formula",
        "identities.double_sum_mat",
        "identities.genmat_ogf",
        "identities.pairing_check",
        "identities.check_tables",
        "identities.check_ogf_coefficients",
        "identities.check_species_series",
        "identities.check_halving",
        "identities.check_double_sum",
        "kernel.fubini",
        "kernel.stirling1",
        "kernel.binomial",
        "kernel.multichoose",
        "kernel.compositions",
        "kernel.IntPoly.__mul__",
        "kernel.BiPoly.divide_exact",
        "kernel.RatSeries.__mul__",
        "kernel.RatSeries.compose",
        "kernel.RatSeries.from_rational",
    ],
}

# (callee, caller) pairs that can only be recorded through a name one
# module imported from another: identities, lomat, burge and cli all
# bind kernel or words functions with `from ... import`.
FROM_IMPORTS = {
    "verify-default": [
        ("kernel.weak_compositions", "lomat.enumerate_signed+rows"),
        ("words.enumerate_linear_orders", "lomat.enumerate_lomat"),
        ("kernel.multichoose", "identities.count_genmat"),
    ],
    "enumerate-stream": [
        ("words.enumerate_cayley", "burge.enumerate_burge"),
        ("kernel.compositions", "burge.enumerate_weakly_increasing"),
        ("kernel.compositions", "lomat.enumerate_genmat"),
        ("words.enumerate_ballots", "cli.main"),
    ],
    "formula-queries": [
        ("kernel.stirling1", "identities.count_genmat"),
        ("kernel.fubini", "cli.main"),
    ],
}


def public_bindings() -> dict:
    """(module, name) -> function for every name, in every package module,
    bound to a public function of one of the layer modules."""
    layer_modules = {f"{PACKAGE}.{layer}" for layer in LAYERS}
    out = {}
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith(PACKAGE):
            continue
        for name, value in vars(mod).items():
            if (
                inspect.isfunction(value)
                and value.__module__ in layer_modules
                and not value.__name__.startswith("_")
            ):
                out[(mod.__name__, name)] = value
    return out


def test_tracer(cli) -> None:
    expect(installed() == [], f"wrappers present before install: {installed()[:5]}")
    before = public_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        modules = sys.modules
        for (mod_name, name), original in before.items():
            now = getattr(modules[mod_name], name)
            expect(getattr(now, MARK, None) is original, f"{mod_name}.{name} is not wrapped")
        imported = sum(1 for (m, _), f in before.items() if f.__module__ != m)
        expect(imported > 30, f"only {imported} from-import bindings found")
        print(f"tracer: {len(before)} bindings wrapped, {imported} of them from-imports")
        for workload, keys in EXERCISED.items():
            ops = workloads.build(workload, 0, ROOT)
            sink = ByteSink()
            stdout = io.TextIOWrapper(sink, encoding="utf-8", newline="\n")
            tracer.reset()
            outcomes = run_pass(cli.main, ops, sink, stdout)
            pass_s = sum(o.seconds for o in outcomes)
            tracer.stop()
            t = tally(workload, ops, outcomes)
            expect(t.failed == 0, f"{workload}: traced pass not correct: {t.notes[:3]}")
            for key in keys:
                n = tracer.call_count(key) + tracer.item_count(key)
                expect(n > 0, f"{workload}: {key} recorded no call")
            for callee, caller in FROM_IMPORTS[workload]:
                expect(tracer.call_count(callee, caller) > 0, f"{workload}: no call of {callee} from {caller}")
            metrics = layer_metrics(tracer, pass_s, sum(o.bytes_out for o in outcomes))
            accounted = metrics["trace.accounted"]
            expect(abs(accounted - 1) < 1e-3, f"{workload}: self times cover {accounted:.4f} of the wall time")
            print(f"tracer: {workload} traced pass {pass_s:.2f} s, all {len(keys)} functions reached")
    finally:
        tracer.uninstall()
    expect(installed() == [], f"wrappers left after uninstall: {installed()[:5]}")
    after = public_bindings()
    expect(after == before, "uninstall did not restore every binding")


# ---------------------------------------------------------------------------
# 3. metric names


def test_metric_names() -> None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        expect(False, "BENCHMARK.json not found")
        return
    declared = json.loads(path.read_text())
    fake = {"pass_s": [1.0], "query_s": [0.5, 1.0], "queries_per_pass": 2, "objects_per_pass": 3, "peak_rss_mb": 1.0}
    e2e = {(name, unit) for name, (_, unit) in run.end_to_end(fake, 0.1).items()}
    traced = {"layers": layer_metrics(Tracer(), 1.0, 0), "pass_s": [1.0]}
    layers = {(name, unit) for name, (_, unit) in run.per_layer(traced, fake).items()}
    for kind, printed in (("end_to_end", e2e), ("per_layer", layers)):
        listed = {(m["name"], m["unit"]) for m in declared[kind]}
        expect(printed == listed, f"{kind} names or units differ: {sorted(printed ^ listed)}")
    expect(
        set(run.WORKLOADS) == set(workloads.WORKLOADS) == {w["name"] for w in declared["workloads"]},
        "workload names differ",
    )


def main() -> int:
    test_metric_names()
    test_verify_default_gate()
    test_enumerate_gate()
    cli = import_cli(ROOT)
    test_formula_gate(cli)
    print(f"gates: {len(FAILURES)} failures so far")
    test_tracer(cli)
    print("selftest:", "FAILED" if FAILURES else "ok", f"({len(FAILURES)} failures)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
