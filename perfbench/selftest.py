"""Self-test of the benchmark harness; exits 1 if any check fails.

    python3 perfbench/selftest.py

Checks, on a small op list (census q=2 D=t, amalgam q=2 and a few queries):
two traced passes from separate set-ups give identical counts; leaving the
tracer restores every binding it replaced; the gates flag outputs checked
against deliberately wrong expected values; leaving a HostClock stops its
timer and restores the signal handler; and the stabilizer orders the
queries draw relies on (gf.stabilizer_order) equal the package's.  Takes
about twenty seconds.
"""

from __future__ import annotations

import random
import signal
import sys

import run
from clock import HostClock
from gf import frame, stabilizer_order
from tracing import TRACED, TRACED_METHODS, Tracer, layer_metrics
from workloads import AmalgamOp, CensusOp, Stages, make_fields, make_queries

SEED = 7
QUERIES = 8


def small_ops(bq, wrong=False):
    fields = make_fields(bq)
    golden = (run.ROOT / "tests" / "golden" / "amalgam_q2.txt").read_text(
        encoding="utf-8")
    queries = make_queries(fields, run.ROOT, random.Random(SEED))
    ops = [CensusOp(fields[2], "t", 10, 3 if wrong else 2, True, None),
           AmalgamOp(fields[2], golden + ("x" if wrong else "")),
           *queries[:QUERIES]]
    if wrong:
        ops[2].n += 1
    return ops


def bindings(bq):
    """Every binding the tracer may replace, keyed by owner and name."""
    out = {}
    for mod in bq.modules:
        for names in TRACED.values():
            for name in names:
                out[(mod.__name__, name)] = vars(mod).get(name)
    for home, cls_name, name in TRACED_METHODS:
        cls = getattr(getattr(bq, home), cls_name)
        out[(cls_name, name)] = vars(cls)[name]
    return out


def traced_counts():
    run.unload_program()
    bq = run.load_program()
    ops = small_ops(bq)
    before = bindings(bq)
    with Tracer(bq) as tracer:
        p = run.run_pass(bq, ops, tracer)
    restored = bindings(bq) == before
    metrics, detail = layer_metrics(tracer)
    counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    counts.update((k, v) for k, v in detail.items() if k.endswith(".calls"))
    return counts, p.failed, restored


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    results = []
    first, failed_a, restored_a = traced_counts()
    second, failed_b, restored_b = traced_counts()
    results.append(("traced counts repeat exactly", first == second,
                    "%d counts, act calls %s" % (len(first),
                                                 first["btree.act.calls"])))
    results.append(("traced passes pass their gates",
                    failed_a == failed_b == 0, "%d, %d failed"
                    % (failed_a, failed_b)))
    results.append(("tracer restores every binding",
                    restored_a and restored_b, ""))
    run.unload_program()
    bq = run.load_program()
    ops = small_ops(bq, wrong=True)
    flagged = [bool(op.check(bq, op.run(bq, Stages()))) for op in ops]
    results.append(("gates flag wrong expected values",
                    flagged[:3] == [True, True, True]
                    and not any(flagged[3:]),
                    "flagged %s" % flagged))
    before = signal.getsignal(signal.SIGALRM)
    with HostClock() as clock:
        clock.time("sum", sum, range(10 ** 6))
    (_, raw, scaled), = clock.intervals()
    results.append(("clock stops its timer and restores the handler",
                    signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
                    and signal.getsignal(signal.SIGALRM) is before
                    and raw > 0 and scaled > 0,
                    "%d speed samples" % len(clock.samples)))
    mismatches = []
    queries = make_queries(make_fields(bq), run.ROOT, random.Random(SEED))
    for op in queries[:4 * QUERIES]:
        level = bq.hecke.parse_level(op.level, op.field)
        v = bq.btree.BallVertex.from_text(op.v, op.field)
        modulus = [c.to_int() for c in level.modulus.coeffs]
        n, M = frame(op.F, op.r, op.terms)
        predicted = stabilizer_order(op.F, M, n, modulus)
        actual = bq.hecke.stabilizer(v, level).order
        if (n, predicted) != (op.n, actual):
            mismatches.append(repr(op))
    results.append(("gf stabilizer orders equal the package's",
                    not mismatches, "; ".join(mismatches)))
    ok = True
    for name, passed, note in results:
        ok &= passed
        print("%s  %s  %s" % ("PASS" if passed else "FAIL", name, note))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
