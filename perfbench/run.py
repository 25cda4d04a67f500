"""btquot benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0

Workloads are defined in workloads.py.  A run sets the program up
(`setup_s`: import, FieldSpec construction and input generation, repeated
SETUP_REPEATS times with the median reported), then runs passes over the
op list until `--seconds` would be exceeded (always at least one pass),
each op after the previous one returns, and gates every output outside the
timed region.  Every timed interval is scaled to the reference host speed
by the calibration in clock.py; the raw times are on the detail line.
With `--trace 0` the last line of stdout holds the end-to-end metrics; the
line before it gives the per-stage times and the raw times.  With
`--trace 1` the run makes one untraced and one traced pass, and the last
line holds the per-layer metrics (counts, self times, the tracing overhead
and the algebra kernel rates); the line before it lists the self times of
every traced function, including those only some workloads call.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from clock import HostClock  # noqa: E402
from kernels import kernel_metrics  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Stages, make_ops  # noqa: E402

SETUP_REPEATS = 21
MODULES = ("algebra", "btree", "hecke", "quotient", "formulas",
           "presentation")


def unload_program():
    """Drop every btquot module, so that the next import pays in full."""
    for name in [m for m in sys.modules
                 if m == "btquot" or m.startswith("btquot.")]:
        del sys.modules[name]


def load_program():
    importlib.import_module("btquot")
    mods = {m: sys.modules["btquot." + m] for m in MODULES}
    everything = [mod for name, mod in sys.modules.items()
                  if name == "btquot" or name.startswith("btquot.")]
    return types.SimpleNamespace(modules=everything, **mods)


def set_up(workload, seed):
    bq = load_program()
    return bq, make_ops(bq, workload, ROOT, seed)


def run_pass(bq, ops, tracer=None):
    """One pass over the op list.  Each op starts from a collected heap and
    is gated, outside its timed intervals, before the next one runs, so no
    op's outputs are alive while another is timed and the order the seed
    picks does not change the times.  Each stage call is timed on a
    HostClock; an op's latency is the sum of its stage calls and `wall` the
    sum of the op latencies, all scaled to the reference host speed
    (`raw_wall` is the unscaled sum)."""
    stages = Stages(HostClock(), tracer)
    failed = 0
    with stages.clock:
        for i, op in enumerate(ops):
            gc.collect()
            stages.op = i
            try:
                out = op.run(bq, stages)
            except Exception:
                traceback.print_exc()
                out = None
            if tracer is not None:
                tracer.stage, tracer.active = None, False
            failed += not passes_gates(bq, op, out)
            if tracer is not None:
                tracer.active = True
            del out
    latencies, raw = [0.0] * len(ops), [0.0] * len(ops)
    stage_times = {}
    for (i, name), dt, scaled in stages.clock.intervals():
        raw[i] += dt
        latencies[i] += scaled
        stage_times[name] = stage_times.get(name, 0.0) + scaled
    return types.SimpleNamespace(wall=sum(latencies), raw_wall=sum(raw),
                                 latencies=latencies, failed=failed,
                                 stages=stage_times,
                                 speed_sample=stages.clock.median_sample())


def passes_gates(bq, op, out):
    """Whether the op's outputs pass every gate; a failure is reported on
    stderr and never stops the run."""
    if out is None:
        problems = ["raised"]
    else:
        try:
            problems = op.check(bq, out)
        except Exception:
            traceback.print_exc()
            problems = ["check raised"]
    if problems:
        print("FAILED %r: %s" % (op, "; ".join(problems)), file=sys.stderr)
    return not problems


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(args):
    # Only the last set-up is kept: each earlier copy of the package is
    # dropped and collected, untimed, before the next set-up is timed, so
    # neither the set-up times nor the measured passes and `peak_rss_mb`
    # carry it.
    bq = ops = None
    with HostClock() as clock:
        for _ in range(SETUP_REPEATS):
            bq = ops = None
            unload_program()
            gc.collect()
            bq, ops = clock.time("setup", set_up, args.workload, args.seed)
    setups = clock.intervals()
    gc.collect()
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(bq, ops))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    failed = sum(p.failed for p in passes)
    latencies = [x for p in passes for x in p.latencies]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(s for _, _, s in setups), "s"),
        "wall_ref_s": (statistics.median(p.wall for p in passes), "s"),
        "op_p90_ref_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    stage_names = sorted({s for p in passes for s in p.stages})
    detail = {"passes": len(passes), "ops_per_pass": len(ops),
              "op_p50_ref_ms": statistics.median(latencies) * 1e3,
              "raw_setup_s": statistics.median(dt for _, dt, _ in setups),
              "raw_wall_s": statistics.median(p.raw_wall for p in passes),
              "speed_sample_s": statistics.median(
                  [clock.median_sample()] + [p.speed_sample for p in passes])}
    for s in stage_names:
        detail[s + "_ref_s"] = statistics.median(p.stages.get(s, 0.0)
                                                 for p in passes)
    return metrics, detail, len(ops) * len(passes), failed


def measure_traced(args):
    bq, ops = set_up(args.workload, args.seed)
    plain = run_pass(bq, ops)
    with Tracer(bq) as tracer:
        traced = run_pass(bq, ops, tracer)
    failed = plain.failed + traced.failed
    metrics, detail = layer_metrics(tracer)
    metrics["trace.overhead_s"] = (traced.wall - plain.wall, "s")
    metrics.update(kernel_metrics(bq, args.seed))
    detail.update(untraced_wall_ref_s=plain.wall,
                  traced_wall_ref_s=traced.wall,
                  untraced_raw_wall_s=plain.raw_wall,
                  traced_raw_wall_s=traced.raw_wall)
    return metrics, detail, 2 * len(ops), failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "btquot" / "__init__.py").is_file():
        print("btquot sources not found under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    metrics, detail, attempted, failed = (
        measure_traced(args) if args.trace else measure(args))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
