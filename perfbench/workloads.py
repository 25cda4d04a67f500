"""The benchmark's workloads: seeded op lists, how each op drives the
package's public functions, and the output gates each op must pass.

Every op reads its inputs as the command line would see them (field size,
level text, vertex text) and calls the package's public functions through
their module attributes, so a traced run can rebind them.  `run` returns the
op's outputs; `check` returns a list of problems, empty when every gate
holds.  Gates run outside the timed region.
"""

from __future__ import annotations

import random

from gf import (Field, act, format_poly, frame, level as reduction_level,
                stabilizer_order, vertex_text)

WINDOW = 3
AMALGAM_DEPTH = 8
AMALGAM_QS = (2, 3, 4, 5, 9)
GOLDEN_QS = (2, 3, 4, 5)

# (q, level, depth, certified cusps, closed form exact, (split, non-split)).
# The exact rows are the package's CUSP_CASES without q=2 D=t^3;t+1 (it
# alone costs more than the other rows together and runs the same deep-act
# path as t;t+1); q=3 D=t^2 is the even-multiplicity row, where the closed
# form (4) only bounds the certified count.
CENSUS_CASES = (
    (2, "t", 10, 2, True, None),
    (2, "t;t+1", 12, 4, True, None),
    (2, "t^3", 12, 4, True, None),
    (2, "t^2+t+1", 12, 2, True, None),
    (3, "t^3", 12, 4, True, (2, 2)),
    (3, "t^2", 10, 3, False, None),
)
CENSUS_BOUND = {(3, "t^2"): 4}

QUERY_QS = (2, 3, 5, 9)
QUERY_DEGREES = range(1, 7)
QUERY_SPAN = 4          # centre terms drawn at exponents r-4 .. r-1
QUERY_VERTICES = 3      # per (q, level degree); each gets two partners
# (r, reduction level) of the query vertices, r over [-4, 8]; the level has
# the parity of r and equals |r| for r <= 1
QUERY_SLOTS = ((-4, 4), (-3, 3), (-2, 2), (-1, 1), (0, 0), (1, 1), (2, 0),
               (3, 1), (4, 0), (5, 1), (6, 2), (8, 0))
# A vertex whose congruence mod N_D has less than full rank has a larger
# stabilizer (at q=9, level 0 and a level of degree 2, a Borel subgroup of
# 576 elements where other vertices have 80).  About one seed in eight drew one, which made
# that seed's pass 10% slower and its peak memory 2.5 MB larger; drawing
# the smallest of a few candidates keeps such vertices to the slots where
# every vertex has them.
VERTEX_CANDIDATES = 4
BRUTE_FORCE_LIMIT = 500  # largest ambient stabilizer enumerated by a gate

FIELD_DECOMP = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 9: (3, 2)}


class Stages:
    """Runs the stages of an op.  With a clock it times each stage call,
    labelled (op index, stage name); in a traced pass it also tells the
    tracer which stage encloses the spans it records."""

    def __init__(self, clock=None, tracer=None):
        self.clock, self.tracer = clock, tracer
        self.op = None

    def __call__(self, name, fn, *args):
        if self.tracer is not None:
            self.tracer.stage = name
        if self.clock is None:
            return fn(*args)
        return self.clock.time((self.op, name), fn, *args)


# ---------------------------------------------------------------------------
# census: quotient + certified cusps + closed-form cross-check


class CensusOp:
    def __init__(self, field, level, depth, cusps, exact, split):
        self.field, self.level, self.depth = field, level, depth
        self.cusps, self.exact, self.split = cusps, exact, split

    def __repr__(self):
        return "census q=%d D=%s depth=%d" % (self.field.q, self.level,
                                             self.depth)

    def run(self, bq, stage):
        level = stage("parse", bq.hecke.parse_level, self.level, self.field)
        Q = stage("build", bq.quotient.build_quotient, level, self.depth)
        cusps = stage("certify", bq.quotient.certify_cusps, Q, WINDOW)
        report = stage("formula", bq.formulas.formula_report, level,
                       self.field.q)
        return Q, cusps, report

    def check(self, bq, out):
        Q, cusps, report = out
        problems = []
        if len(cusps) != self.cusps:
            problems.append("certified %d, expected %d"
                            % (len(cusps), self.cusps))
        if self.exact:
            if not (report.exact and report.c_HD == self.cusps):
                problems.append("closed form %s (exact=%s), expected %d"
                                % (report.c_HD, report.exact, self.cusps))
        else:
            bound = CENSUS_BOUND[(self.field.q, self.level)]
            if report.exact or report.c_HD != bound or len(cusps) > bound:
                problems.append("bound %s (exact=%s), expected inexact %d"
                                % (report.c_HD, report.exact, bound))
        if self.split is not None:
            got = (sum(c.splitness == bq.quotient.SPLIT for c in cusps),
                   sum(c.splitness == bq.quotient.NONSPLIT for c in cusps))
            if got != self.split or (report.card_D,
                                     report.card_I) != self.split:
                problems.append("split/non-split %r, closed form %r, "
                                "expected %r" % (got, (report.card_D,
                                                       report.card_I),
                                                 self.split))
        return problems


def make_census(fields, root, rng):
    ops = [CensusOp(fields[q], level, depth, cusps, exact, split)
           for q, level, depth, cusps, exact, split in CENSUS_CASES]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# amalgam: the full pipeline on D = t, down to the verified presentation


def _emit_text(bq, G, Q):
    P = bq.presentation.emit_presentation(G)
    return P, bq.presentation.presentation_text(P, Q)


class AmalgamOp:
    def __init__(self, field, golden):
        self.field, self.golden = field, golden

    def __repr__(self):
        return "amalgam q=%d D=t depth=%d" % (self.field.q, AMALGAM_DEPTH)

    def run(self, bq, stage):
        level = stage("parse", bq.hecke.parse_level, "t", self.field)
        Q = stage("build", bq.quotient.build_quotient, level, AMALGAM_DEPTH)
        cusps = stage("certify", bq.quotient.certify_cusps, Q, WINDOW)
        G = stage("gog", bq.presentation.build_graph_of_groups, Q)
        P, text = stage("emit", _emit_text, bq, G, Q)
        report = stage("formula", bq.formulas.formula_report, level,
                       self.field.q)
        return Q, cusps, G, P, text, report

    def check(self, bq, out):
        Q, cusps, G, P, text, report = out
        q = self.field.q
        problems = []
        if len(cusps) != 2 or not (report.exact and report.c_HD == 2):
            problems.append("certified %d, closed form %s (exact=%s), "
                            "expected 2" % (len(cusps), report.c_HD,
                                            report.exact))
        if self.golden is not None and text != self.golden:
            problems.append("presentation text differs from the golden file")
        if q == 9:
            if len(Q.classes) != 17:
                problems.append("%d classes, expected 17" % len(Q.classes))
            order = bq.presentation.abelianization_of_line_amalgam(G)["order"]
            if order != (q - 1) ** 2:
                problems.append("abelianization order %d, expected %d"
                                % (order, (q - 1) ** 2))
        return problems


def make_amalgam(fields, root, rng):
    golden_dir = root / "tests" / "golden"
    ops = []
    for q in AMALGAM_QS:
        golden = None
        if q in GOLDEN_QS:
            golden = (golden_dir / ("amalgam_q%d.txt" % q)).read_text(
                encoding="utf-8")
        ops.append(AmalgamOp(fields[q], golden))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# queries: independent point queries, as the formula/reduce/stab/orbit
# subcommands of the command line run them


def _stabilizer_and_generators(bq, v, level):
    sd = bq.hecke.stabilizer(v, level)
    return sd, sd.generators()


class QueryOp:
    def __init__(self, field, F, level, shape, r, terms, n, w, positive):
        self.field, self.F, self.level, self.shape = field, F, level, shape
        self.r, self.terms, self.n = r, terms, n
        self.v, self.w, self.positive = vertex_text(r, terms), w, positive

    def __repr__(self):
        return "query q=%d D=%s v=%s w=%s positive=%s" % (
            self.field.q, self.level, self.v, self.w, self.positive)

    def run(self, bq, stage):
        field = self.field
        from_text = bq.btree.BallVertex.from_text
        level = stage("parse", bq.hecke.parse_level, self.level, field)
        v = stage("parse", from_text, self.v, field)
        w = stage("parse", from_text, self.w, field)
        red = stage("reduce", bq.hecke.reduce_vertex, v)
        sd, gens = stage("stab", _stabilizer_and_generators, bq, v, level)
        h = stage("orbit", bq.hecke.orbit_equivalent, v, w, level)
        report = stage("formula", bq.formulas.formula_report, level, field.q)
        return level, v, w, red, sd, gens, h, report

    def _image(self, g):
        """Text of g.v by the benchmark's own action, or None when g is not
        a matrix over F_q[t]."""
        entries = []
        for x in g.entries():
            if not x.is_polynomial():
                return None
            entries.append([c.to_int() for c in x.num.coeffs])
        return vertex_text(*act(self.F, entries, self.r, self.terms))

    def check(self, bq, out):
        level, v, w, red, sd, gens, h, report = out
        q = self.field.q
        problems = []
        if red.level_n != self.n:
            problems.append("reduction level %d, expected %d"
                            % (red.level_n, self.n))
        if self._image(red.g) != vertex_text(-red.level_n, {}):
            problems.append("reduction does not map v to v_%d" % red.level_n)
        if any(self._image(g) != self.v for g in gens):
            problems.append("a stabilizer generator moves v")
        if h is None:
            if self.positive:
                problems.append("no witness for a pair built as w = h.v")
            elif _ambient_order(q, red.level_n) <= BRUTE_FORCE_LIMIT:
                if bq.hecke.orbit_equivalent_brute_force(v, w, level):
                    problems.append("enumeration finds a witness the "
                                    "solver missed")
        elif self._image(h) != self.w or not bq.hecke.is_member(h, level):
            problems.append("witness is not an H_D element mapping v to w")
        # closed form from the drawn factor shape, independent of the package
        r = len(self.shape)
        e = sum(deg * (mult // 2) for deg, mult in self.shape)
        total = 2 ** r * (1 + (q ** e - 1) // (q - 1))
        exact = all(mult % 2 for _, mult in self.shape)
        split = (2 ** r, total - 2 ** r) if exact else (None, None)
        if (report.c_HD, report.exact, report.card_D,
                report.card_I) != (total, exact) + split:
            problems.append("formula report %r, expected c=%d exact=%s "
                            "split=%r" % (report, total, exact, split))
        return problems


def _ambient_order(q, n):
    """Size of the GL2(F_q[t]) stabilizer of v_n that the enumeration walks."""
    if n == 0:
        return (q * q - 1) * (q * q - q)
    return (q - 1) ** 2 * q ** (n + 1)


def _draw_level(F, degree, prime, rng):
    """Effective divisor of the given degree as (coefficients, mult) pairs:
    one irreducible factor when `prime`, else distinct monic irreducible
    factors of random degrees below `degree`, with random multiplicities.
    Fixing which levels are prime fixes how many degree-4..6 irreducibility
    tests a pass pays (about 110 ms each for degree 6 over F_9)."""
    if prime or degree == 1:
        return [(F.random_irreducible(degree, rng), 1)]
    factors = []
    left = degree
    while left:
        k = rng.randint(1, min(left, degree - 1))
        m = rng.randint(1, left // k)
        f = F.random_irreducible(k, rng)
        for i, (g, mg) in enumerate(factors):
            if g == f:
                factors[i] = (g, mg + m)
                break
        else:
            factors.append((f, m))
        left -= k * m
    return factors


def _level_text(factors):
    return ";".join(format_poly(f) if m == 1 else
                    "(%s)^%d" % (format_poly(f), m) for f, m in factors)


def _draw_vertex(F, r, n, modulus, rng):
    """Centre terms {e: c} at exponents r-4 .. r-1 of a vertex B_a^{|r|}
    with reduction level n: of VERTEX_CANDIDATES such draws, the one whose
    stabilizer in H_D is smallest (the first on a tie)."""
    best = None
    for _ in range(VERTEX_CANDIDATES):
        while True:
            terms = {e: rng.randrange(F.q) for e in range(r - QUERY_SPAN, r)}
            if reduction_level(F, r, terms) == n:
                break
        order = stabilizer_order(F, frame(F, r, terms)[1], n, modulus)
        if best is None or order < best[0]:
            best = (order, terms)
    return best[1]


def _draw_move(F, modulus, positive, rng):
    """diag(a, b) tau_f [[1, 0], [c*M, 1]] tau_g with f, g, c in F_q*: in H_D when M is the modulus N_D (positive), and outside
    it when M is another monic polynomial of the same degree.  Either way
    it lies in GL2(F_q[t]), so it keeps the reduction level."""
    if not positive:
        other = modulus
        while other == modulus:
            other = [rng.randrange(F.q) for _ in modulus[:-1]] + [1]
        modulus = other

    def translation():
        return [1], [rng.randrange(1, F.q)], [], [1]

    diag = [rng.randrange(1, F.q)], [], [], [rng.randrange(1, F.q)]
    lower = [1], [], F.pmul(modulus, [rng.randrange(1, F.q)]), [1]
    move = F.matmul(diag, translation())
    return F.matmul(F.matmul(move, lower), translation())


def make_queries(fields, root, rng):
    """QUERY_VERTICES vertices per (q, level degree), at fixed (r, level)
    slots that rotate with q, every other one with a prime level; each vertex is
    asked once with a positive and once with a negative partner.  Fixing r and the level, which set the
    size of every solve and whether the level-0 GL2(F_q) residue appears,
    keeps the pass time steady across seeds; the seed draws everything
    else.  The inputs are built with the benchmark's own arithmetic
    (gf.py), not the package's."""
    ops = []
    for qi, q in enumerate(QUERY_QS):
        F = Field(q)
        for degree in QUERY_DEGREES:
            for j in range(QUERY_VERTICES):
                slot = ((QUERY_VERTICES * (degree - 1) + j + 5 * qi)
                        % len(QUERY_SLOTS))
                r, n = QUERY_SLOTS[slot]
                factors = _draw_level(F, degree, j % 2 == 0, rng)
                modulus = [1]
                for f, m in factors:
                    for _ in range(m):
                        modulus = F.pmul(modulus, f)
                shape = [(len(f) - 1, m) for f, m in factors]
                terms = _draw_vertex(F, r, n, modulus, rng)
                for positive in (True, False):
                    x = _draw_move(F, modulus, positive, rng)
                    w = vertex_text(*act(F, x, r, terms))
                    ops.append(QueryOp(fields[q], F, _level_text(factors),
                                       shape, r, terms, n, w, positive))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"census": make_census, "amalgam": make_amalgam,
             "queries": make_queries}


def make_fields(bq):
    return {q: bq.algebra.FieldSpec(*ps) for q, ps in FIELD_DECOMP.items()}


def make_ops(bq, workload, root, seed):
    return WORKLOADS[workload](make_fields(bq), root, random.Random(seed))
