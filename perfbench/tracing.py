"""Per-layer tracing from outside the package.

`Tracer` rebinds each traced public function in every btquot module
namespace that holds it (quotient, hecke and presentation each import `act`
by name) and wraps two `StabDescriptor` methods on the class.  Each call
records a span: name, parent span, enclosing op stage, start and end.
Spans stay in memory; `layer_metrics` turns them into call counts and self
times (a span's duration minus the time its child spans cover).  Leaving the
`with` block restores every original binding.
"""

from __future__ import annotations

import functools
from time import perf_counter

# module -> public functions traced there
TRACED = {
    "btree": ("act", "canonicalize"),
    "hecke": ("parse_level", "reduce_vertex", "stabilizer", "orbit_witness",
              "solve_affine"),
    "quotient": ("build_quotient", "certify_cusps"),
    "presentation": ("build_graph_of_groups", "emit_presentation"),
    "formulas": ("formula_report",),
}
TRACED_METHODS = (("hecke", "StabDescriptor", "generators"),
                  ("hecke", "StabDescriptor", "materialize"))

# span name -> amount each call adds to that name's tally
TALLIES = {
    "hecke.orbit_witness": lambda h: h is not None,
    "hecke.generators": len,
    "hecke.materialize": len,
    "quotient.build_quotient": lambda Q: len(Q.classes),
    "quotient.certify_cusps": len,
    "presentation.emit_presentation": lambda P: len(P.relations),
}

# op stages that contain `act` calls, for the per-stage split; `emit` is
# not one: emit_presentation acts only on non-tree edges, and no workload's
# quotient has any
ACT_STAGES = ("build", "certify", "gog", "reduce", "stab", "orbit")


class Tracer:
    def __init__(self, bq):
        self.bq = bq
        self.spans = []      # [name, parent index, stage, start, end]
        self.current = -1    # index of the open span, -1 at top level
        self.stage = None
        self.active = True   # False while the harness gates an op
        self.tallies = {}
        self._restore = []

    def _wrap(self, name, fn):
        spans = self.spans
        tally = TALLIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, self.current, self.stage, perf_counter(), 0.0]
            self.current = len(spans)
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                self.current = span[1]
            if tally is not None:
                self.tallies[name] = self.tallies.get(name, 0) + tally(result)
            return result
        return traced

    def __enter__(self):
        for home, names in TRACED.items():
            for name in names:
                orig = getattr(getattr(self.bq, home), name)
                wrapper = self._wrap("%s.%s" % (home, name), orig)
                for mod in self.bq.modules:
                    if vars(mod).get(name) is orig:
                        self._restore.append((mod, name, orig))
                        setattr(mod, name, wrapper)
        for home, cls_name, name in TRACED_METHODS:
            cls = getattr(getattr(self.bq, home), cls_name)
            orig = vars(cls)[name]
            self._restore.append((cls, name, orig))
            setattr(cls, name, self._wrap("%s.%s" % (home, name), orig))
        return self

    def __exit__(self, *exc):
        while self._restore:
            obj, name, orig = self._restore.pop()
            setattr(obj, name, orig)
        self.stage = None
        return False

    def self_times(self):
        """{name: [calls, self seconds]} and {(name, stage): same}."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, stage, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        by_name, by_stage = {}, {}
        for (name, parent, stage, t0, t1), inner in zip(spans, child):
            own = t1 - t0 - inner
            for table, key in ((by_name, name), (by_stage, (name, stage))):
                entry = table.setdefault(key, [0, 0.0])
                entry[0] += 1
                entry[1] += own
        return by_name, by_stage


def layer_metrics(tracer):
    """(metrics, detail): `metrics` holds the per-layer numbers every
    workload produces, as {name: (value, unit)}; `detail` adds the self
    times of functions and stages that only some workloads reach."""
    by_name, by_stage = tracer.self_times()
    tallies = tracer.tallies

    def calls(name):
        return by_name.get(name, (0, 0.0))[0]

    def self_s(name):
        return by_name.get(name, (0, 0.0))[1]

    m = {}
    m["btree.act.calls"] = (calls("btree.act"), "count")
    for stage in ACT_STAGES:
        m["btree.act.calls.%s" % stage] = (
            by_stage.get(("btree.act", stage), (0, 0.0))[0], "count")
    m["btree.act.self_s"] = (self_s("btree.act"), "s")
    m["btree.canonicalize.calls"] = (calls("btree.canonicalize"), "count")
    m["btree.canonicalize.self_s"] = (self_s("btree.canonicalize"), "s")
    for fn in ("reduce_vertex", "stabilizer", "orbit_witness", "solve_affine"):
        m["hecke.%s.calls" % fn] = (calls("hecke." + fn), "count")
        m["hecke.%s.self_s" % fn] = (self_s("hecke." + fn), "s")
    attempts = calls("hecke.orbit_witness")
    m["hecke.orbit_witness.hit_ratio"] = (
        tallies.get("hecke.orbit_witness", 0) / attempts if attempts else 0.0,
        "ratio")
    gen_calls = calls("hecke.generators")
    m["hecke.generators.mean_len"] = (
        tallies.get("hecke.generators", 0) / gen_calls if gen_calls else 0.0,
        "count")
    m["hecke.materialize.elements"] = (tallies.get("hecke.materialize", 0),
                                       "count")
    m["hecke.parse_level.self_s"] = (self_s("hecke.parse_level"), "s")
    m["quotient.classes"] = (tallies.get("quotient.build_quotient", 0),
                             "count")
    m["quotient.cusps"] = (tallies.get("quotient.certify_cusps", 0), "count")
    m["presentation.relations"] = (
        tallies.get("presentation.emit_presentation", 0), "count")
    m["formulas.formula_report.self_s"] = (self_s("formulas.formula_report"),
                                           "s")

    detail = {"%s.%s" % (name, key): value
              for name, (n, own) in sorted(by_name.items())
              for key, value in (("calls", n), ("self_s", own))}
    for home, names in (("quotient", TRACED["quotient"]),
                        ("presentation", TRACED["presentation"])):
        for fn in names:
            detail.setdefault("%s.%s.self_s" % (home, fn), 0.0)
    for stage in ACT_STAGES:
        detail["btree.act.self_s.%s" % stage] = by_stage.get(
            ("btree.act", stage), (0, 0.0))[1]
    return m, detail
