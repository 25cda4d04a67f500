import json
import pathlib

import pytest

from btquot.algebra import FieldSpec
from btquot.hecke import parse_level, reduce_vertex
from btquot.quotient import (INDETERMINATE, NONSPLIT, SPLIT, BoundError,
                             QuotientError, _certified_step, build_quotient,
                             certify_cusps, classify_splitness, export,
                             frame_orbits)
from btquot.selftest import CUSP_CASES
from test_stab_columns import locate

F2 = FieldSpec(2)
F3 = FieldSpec(3)
GOLDEN = pathlib.Path(__file__).parent / "golden"

_cache = {}


def build(field, lvl_text, depth, window=3):
    key = (field.q, lvl_text, depth, window)
    if key not in _cache:
        Q = build_quotient(parse_level(lvl_text, field), depth)
        if depth >= window + 2:
            certify_cusps(Q, window)
        _cache[key] = Q
    return _cache[key]


class TestBuild:
    def test_line_shape_q2(self):
        Q = build(F2, "t", 6)
        assert len(Q.classes) == 13
        assert len(Q.edges) == 12
        adj = Q.adjacency()
        assert all(len(adj[c.id]) == 2 for c in Q.classes if c.expanded)

    def test_ray_shape_level_zero(self):
        Q = build(F2, "0", 6)
        assert len(Q.classes) == 7
        assert len(Q.edges) == 6

    def test_line_shape_q3(self):
        Q = build(F3, "t", 4)
        assert len(Q.classes) == 9

    def test_depth_validation(self):
        with pytest.raises(QuotientError):
            build_quotient(parse_level("t", F2), 0)

    def test_determinism(self):
        a = build_quotient(parse_level("t", F2), 5)
        b = build_quotient(parse_level("t", F2), 5)
        assert [c.representative.key() for c in a.classes] == \
            [c.representative.key() for c in b.classes]
        assert [(e.src, e.dst, e.multiplicity) for e in a.edges] == \
            [(e.src, e.dst, e.multiplicity) for e in b.edges]

    def test_class_levels_match_reductions(self):
        Q = build(F3, "t", 4)
        for c in Q.classes:
            assert c.level_n == c.reduction.level_n
            assert c.stab.order >= 1


class TestCertify:
    def test_two_cusps_on_the_line(self):
        Q = build(F2, "t", 10)
        assert len(Q.cusps) == 2
        for cusp in Q.cusps:
            assert cusp.certified_depth == 3
            for a, b in zip(cusp.stab_tower, cusp.stab_tower[1:]):
                assert b == 2 * a
            steps = [b - a for a, b in zip(cusp.unipotent_tower,
                                           cusp.unipotent_tower[1:])]
            assert all(s == 1 for s in steps)

    def test_single_cusp_level_zero(self):
        Q = build(F2, "0", 10)
        assert len(Q.cusps) == 1

    def test_window_validation(self):
        Q = build(F2, "t", 6)
        with pytest.raises(BoundError):
            certify_cusps(Q, 1)
        with pytest.raises(BoundError):
            certify_cusps(Q, 5)

    def test_splitness_values(self):
        assert all(c.splitness == INDETERMINATE
                   for c in build(F2, "t", 10).cusps)
        q3 = build(F3, "t", 8)
        assert all(c.splitness == SPLIT for c in q3.cusps)

    def test_split_and_nonsplit_mix(self):
        Q = build(F3, "t^3", 12)
        kinds = sorted(c.splitness for c in Q.cusps)
        assert kinds == [NONSPLIT, NONSPLIT, SPLIT, SPLIT]

    def test_classify_matches_stored(self):
        Q = build(F3, "t^3", 12)
        for cusp in Q.cusps:
            assert classify_splitness(cusp, Q) == cusp.splitness

    def test_tails_extend_to_cover_the_line(self):
        Q = build(F2, "t", 10)
        tails = [c.tail for c in Q.cusps]
        ids = set(tails[0]) | set(tails[1])
        assert not (set(tails[0]) & set(tails[1]))
        assert len(ids) == len(Q.classes)

    def test_exactness_on_a_degree_three_prime(self):
        from btquot.formulas import cusp_count
        Q = build(F2, "t^3+t+1", 12)
        formula, exact = cusp_count(Q.level, 2)
        assert exact and len(Q.cusps) == formula == 2

    def test_exactness_at_multiplicity_five(self):
        from btquot.formulas import cusp_count
        Q = build(F2, "t^5", 14)
        formula, exact = cusp_count(Q.level, 2)
        assert exact and len(Q.cusps) == formula == 8

    def test_order_ratio_rejects_a_doctored_boundary(self):
        """The first step out of a boundary class is decided by the order
        ratio alone, the boundary class having no strands: with the
        boundary stabilizer order of one cusp multiplied by q in a built
        quotient, that cusp is no longer certified, and the others are."""
        Q = build_quotient(parse_level("t^3", F2), 12)
        germs = [c.germ for c in certify_cusps(Q, 3)]
        boundary = Q.class_by_id(Q.cusps[0].chain[-1])
        assert not boundary.expanded and len(germs) == 4
        boundary.stab._order *= Q.field.q
        assert [c.germ for c in certify_cusps(Q, 3)] == germs[1:]


class TestExport:
    def test_json_schema(self):
        Q = build(F2, "t", 6)
        doc = json.loads(export(Q, "json"))
        assert doc["field"] == {"p": 2, "s": 1}
        assert doc["level"] == "t"
        assert doc["depth"] == 6
        assert {"id", "rep", "level_n", "stab_order", "valency"} \
            == set(doc["classes"][0])
        assert {"src", "dst", "mult"} == set(doc["edges"][0])
        for cusp in doc["cusps"]:
            assert set(cusp) == {"germ", "split", "tower"}

    def test_minimum_size(self):
        Q = build_quotient(parse_level("t", F2), 1)
        doc = json.loads(export(Q, "json"))
        assert len(doc["classes"]) >= 2

    def test_dot_output(self):
        Q = build(F2, "t", 6)
        dot = export(Q, "dot")
        assert dot.startswith("graph quotient {")
        assert dot.count(" -- ") == len(Q.edges)
        assert "|S|=" in dot and "n=" in dot

    def test_dot_path_node_count(self):
        Q = build(F2, "t", 6)
        dot = export(Q, "dot")
        node_lines = [ln for ln in dot.splitlines()
                      if ln.strip().startswith("c") and "[label=" in ln]
        assert len(node_lines) == 2 * 6 + 1

    def test_text_format(self):
        Q = build(F2, "t", 10)
        txt = export(Q, "text")
        assert "certified cusps: 2" in txt

    def test_deterministic_exports(self):
        Q = build(F2, "t", 6)
        assert export(Q, "json") == export(Q, "json")
        assert export(Q, "dot") == export(Q, "dot")

    def test_unknown_format(self):
        Q = build(F2, "t", 6)
        with pytest.raises(QuotientError):
            export(Q, "svg")


class TestInvariants:
    def test_neighbor_accounting(self):
        for Q in (build(F2, "t", 6), build(F3, "t", 4)):
            q = Q.field.q
            for c in Q.classes:
                if c.expanded:
                    assert sum(s.orbit_size for s in c.strands) == q + 1

    def test_bipartite_by_parity(self):
        for Q in (build(F2, "t", 6), build(F3, "t", 4), build(F2, "0", 6)):
            for e in Q.edges:
                pa = Q.class_by_id(e.src).representative.parity()
                pb = Q.class_by_id(e.dst).representative.parity()
                assert pa != pb

    def test_bfs_monotone(self):
        small = build_quotient(parse_level("t", F2), 4)
        large = build_quotient(parse_level("t", F2), 5)
        small_reps = [c.representative.key() for c in small.classes]
        large_reps = [c.representative.key() for c in large.classes]
        assert large_reps[:len(small_reps)] == small_reps
        small_edges = {(e.src, e.dst, e.multiplicity) for e in small.edges}
        large_edges = {(e.src, e.dst, e.multiplicity) for e in large.edges}
        assert small_edges <= large_edges


class TestLocate:
    def test_locate_agrees_with_enumeration(self):
        from btquot.btree import Matrix2, act
        from btquot.hecke import orbit_equivalent_brute_force
        Q = build(F2, "t^3", 8)
        small = [c for c in Q.classes if c.level_n <= 5]
        assert any(c.expanded for c in small)
        for c in small:
            assert locate(Q, c.representative) == (c.id,
                                                  Matrix2.identity(F2))
            if not c.expanded:
                continue
            for nb in c.representative.neighbors():
                cid, h = locate(Q, nb)
                assert act(h, nb) == Q.class_by_id(cid).representative
                level_n = reduce_vertex(nb).level_n
                hits = [d.id for d in Q.classes if d.level_n == level_n
                        and orbit_equivalent_brute_force(
                            nb, d.representative, Q.level) is not None]
                assert hits == [cid]


KEY_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 9: (3, 2)}
KEY_DEPTHS = {2: 8, 3: 6, 4: 5, 5: 4, 9: 4}
KEY_CASES = [(q, lvl) for q in KEY_FIELDS
             for lvl in ("0", "t", "t^3", "t;t+1", "t^2;t+1")]


class TestOrbitId:
    """The build and the tests' `locate` find the class of a vertex by its
    orbit id (`points.Point.orbit_id`), so the id must be equal on every
    vertex of a
    class, in whichever frame its reduction gives, and distinct between
    classes: the class it finds must be the one a witness scan of the whole
    reduction level finds."""

    @pytest.fixture(scope="class", params=KEY_CASES,
                    ids=["q%d-%s" % case for case in KEY_CASES])
    def quotient(self, request):
        q, lvl = request.param
        field = FieldSpec(*KEY_FIELDS[q])
        return build_quotient(parse_level(lvl, field), KEY_DEPTHS[q])

    def test_id_is_a_class_invariant(self, quotient):
        """On the representatives moved by [[1, 0], [N_D, 1]] in H_D, whose
        level-0 frames differ, and on every member of every neighbor orbit
        of an expanded representative, which lies in the class of the
        orbit's strand."""
        from btquot.btree import act
        Q = quotient
        m = mover(Q)
        for c in Q.classes:
            assert locate(Q, act(m, c.representative))[0] == c.id
            if not c.expanded:
                continue
            for orbit, st in zip(frame_orbits(c.stab), c.strands):
                assert {locate(Q, c.representative.neighbor(i))[0]
                        for i in orbit} == {st.dst}
        assert len(Q.ids) == len(Q.classes)

    def test_hand_computed_ids(self):
        """At q = 2, N = t^2 the point (X : Y) = (-c : a) of a column (a, c)
        is (e : d), e in {1, t, t^2}.  For n >= 1, e = 1 gives g0 = 1,
        M1 = t^2 and x = d, with no coefficient above t^n; e = t gives
        g0 = t, M1 = 1 and d mod t = 1; e = t^2 gives M = 1.  At n = 0 the
        t coefficient of x is read when e = 1, and the id is the least over
        the points (X + zY : Y) and (Y : X), in the orbits
        {(0 : 1), (1 : 1), (1 : 0)} and {(t : 1), (1 : 1+t), (1 : t)}."""
        from btquot.points import Point
        level = parse_level("t^2", F2)
        one, t, t2 = (1,), (0, 1), (0, 0, 1)
        zero_orbit, t_orbit = (t2, ()), (t, (1,))
        cases = [(((1,), ()), [zero_orbit] * 3),             # (0 : 1)
                 (((1,), (0, 1)), [t_orbit] * 3),            # (t : 1)
                 (((1,), (1,)), [zero_orbit] + [(one, ())] * 2),  # (1 : 1)
                 (((0, 1), (1,)), [t_orbit] + [(one, ())] * 2),   # (1 : t)
                 (((1, 1), (1,)), [t_orbit] + [(one, ())] * 2)]   # (1 : 1+t)
        for col, ids in cases:
            assert [Point(level, col).orbit_id(n) for n in range(3)] == \
                [(n, e, vec) for n, (e, vec) in enumerate(ids)], col
        Q = build(F2, "t^2", 6)
        assert sorted(k for k in Q.ids if k[0] == 0) == \
            [(0,) + zero_orbit, (0,) + t_orbit]
        assert sorted(k for k in Q.ids if k[0] == 1) == \
            [(1,) + zero_orbit, (1,) + t_orbit, (1, one, ())]

    def test_two_torus_forms_at_q2_are_one(self):
        """At q = 2 the line alpha = beta and all of (F_q*)^2 are the one
        pair set {(1, 1)}, and the torus map of the pair (col, col) takes
        both forms (mu = 1 when L(d) is nonzero): a descriptor built from
        either has the same order, pairs and generators."""
        from btquot.hecke import StabDescriptor
        from btquot.points import Point
        Q = build(FieldSpec(2), "t^2", 6)
        cols = [Point(Q.level, c.reduction.rows[::2]) for c in Q.classes]
        mus = [col.torus(col, c.level_n)[0]
               for c, col in zip(Q.classes, cols)]
        assert 1 in mus and None in mus
        for c in Q.classes:
            stab = c.stab
            line, full = (StabDescriptor(
                stab.base_vertex, stab.reduction, Q.level,
                (mu,) + stab.torus_map[1:] + (stab.m,), stab.kernel)
                for mu in (1, None))
            assert line.order == full.order == stab.order
            assert line.torus_pairs() == full.torus_pairs() == ((1, 1),)
            assert line.generator_frames() == full.generator_frames()

    def test_filtered_locate_equals_a_level_scan(self, quotient):
        from btquot.hecke import orbit_witness
        Q = quotient
        for c in Q.classes:
            if not c.expanded:
                continue
            for nb in c.representative.neighbors():
                cid, h = locate(Q, nb)
                red = reduce_vertex(nb)
                scan = [(d.id, orbit_witness(Q.level, red, d.reduction))
                        for d in Q.classes if d.level_n == red.level_n]
                assert [(i, w) for i, w in scan if w is not None] == \
                    [(cid, h)]


def cusp_census_text():
    """Every certified cusp of the `selftest.CUSP_CASES` levels, sorted by
    germ, with its chain, towers, splitness and maximal inward tail."""
    from btquot.selftest import CUSP_CASES, _build
    lines = []
    for q, lvl, depth, _ in CUSP_CASES:
        Q = _build(q, lvl, depth)
        lines.append("q=%d D=%s depth=%d cusps=%d"
                     % (q, lvl, depth, len(Q.cusps)))
        for c in sorted(Q.cusps, key=lambda c: c.germ):
            lines.append("  germ=%r chain=%r stab_tower=%r "
                         "unipotent_tower=%r split=%s tail=%r"
                         % (c.germ, c.chain, c.stab_tower,
                            c.unipotent_tower, c.splitness, c.tail))
    return "\n".join(lines) + "\n"


def test_cusp_census_golden():
    assert cusp_census_text() == (GOLDEN / "cusps_census.txt").read_text()


def orbit_partition_by_act(neighbors, generators):
    """Reference partition of a neighbor list into orbits under the group
    the generators generate: reachability under `act`, as sorted index
    lists ordered by least index.

    The group fixes the central vertex, so every generator permutes the
    neighbor set.  A partial orbit that covers every neighbor outside the
    earlier orbits is complete.
    """
    from btquot.btree import act
    keyed = {v.key(): i for i, v in enumerate(neighbors)}
    unassigned = set(range(len(neighbors)))
    orbits = []
    while unassigned:
        start = min(unassigned)
        frontier = [start]
        orbit = {start}
        while frontier and len(orbit) < len(unassigned):
            i = frontier.pop()
            for g in generators:
                j = keyed[act(g, neighbors[i]).key()]
                if j not in orbit:
                    orbit.add(j)
                    frontier.append(j)
        unassigned -= orbit
        orbits.append(sorted(orbit))
    return orbits


def mover(Q):
    """[[1, 0], [N_D, 1]] in H_D, or [[1, 0], [t, 1]] when D = 0, where
    N_D = 1 would give a constant matrix, which fixes v_0."""
    from btquot.algebra import Polynomial
    from btquot.btree import Matrix2
    one = Polynomial.one(Q.field)
    low = Polynomial.t(Q.field) if Q.level.is_zero() else Q.level.modulus
    return Matrix2(one, Polynomial.zero(Q.field), low, one)


def certify_by_lifting(Q, chain, window, start):
    """Reference certification on tree vertices: lift `chain` from `start`
    (a vertex of class chain[0]) one neighbor at a time, each the first in
    key order that `locate` puts in the next class, solve the stabilizer at
    every lift, and check on `window` steps that it grows by q, that its
    generators fix the next lift, and that its orbits on the neighbors are
    that lift and one orbit of size q.  Returns (tower, unipotent_tower,
    lifted) or None."""
    from btquot.btree import act
    from btquot.hecke import stabilizer
    q = Q.field.q
    lifted = [start]
    for cid in chain[1:]:
        nxt = next((v for v in lifted[-1].neighbors()
                    if (locate(Q, v) or (None,))[0] == cid), None)
        if nxt is None:
            return None
        lifted.append(nxt)
    stabs = [stabilizer(v, Q.level) for v in lifted]
    for k in range(window):
        if stabs[k + 1].order != q * stabs[k].order:
            return None
        gens = stabs[k].generators()
        if any(act(g, lifted[k + 1]) != lifted[k + 1] for g in gens):
            return None
        neighbors = sorted(lifted[k].neighbors(), key=lambda x: x.key())
        orbits = [[neighbors[i] for i in orbit]
                  for orbit in orbit_partition_by_act(neighbors, gens)]
        if sorted((len(orbit), lifted[k + 1] in orbit)
                  for orbit in orbits) != [(1, True), (q, False)]:
            return None
    return (tuple(s.order for s in stabs),
            tuple(s.unipotent_dim() for s in stabs), lifted)


def certify_by_steps(Q, chain, window):
    """`_certified_step` on the first `window` steps of `chain` (inner
    first): (tower, unipotent_tower) of the whole chain, or None."""
    classes = [Q.class_by_id(cid) for cid in chain]
    if not all(_certified_step(Q, inner, outer)
               for inner, outer in zip(classes[:window], classes[1:])):
        return None
    return (tuple(c.stab.order for c in classes),
            tuple(c.stab.unipotent_dim() for c in classes))


ORACLE_CASES = [(2, "t", 10), (3, "t^2", 10), (3, "t^3", 12)]


class TestCertifyOracle:
    """Class-level certification agrees with the reference that lifts each
    chain into the tree, from the class representative and from the
    representative moved by [[1, 0], [N_D, 1]] in H_D: the stabilizer
    orders and, at every level, the unipotent dimensions, which the lifts
    compute in their own frames."""

    @pytest.fixture(params=ORACLE_CASES,
                    ids=["q%d-%s-%d" % case for case in ORACLE_CASES])
    def Q(self, request):
        from btquot.selftest import _build
        return _build(*request.param)

    @staticmethod
    def start(Q, cid, moved):
        from btquot.btree import act
        rep = Q.class_by_id(cid).representative
        return act(mover(Q), rep) if moved else rep

    def check(self, Q, chain, window, moved):
        """Assert the reference agrees with `certify_by_steps` on `chain`;
        return the reference result."""
        ours = certify_by_steps(Q, chain, window)
        ref = certify_by_lifting(Q, chain, window,
                                 self.start(Q, chain[0], moved))
        assert (ours is None) == (ref is None), chain
        if ours is not None:
            assert ref[:2] == ours, chain
        return ref

    @staticmethod
    def off_representative(Q, chain, ref):
        return any(v != Q.class_by_id(cid).representative
                   for cid, v in zip(chain, ref[2]))

    @pytest.mark.parametrize("moved", [False, True])
    def test_accepts_every_certified_chain(self, Q, moved):
        assert Q.cusps
        off_rep = False
        for c in Q.cusps:
            ref = self.check(Q, c.chain, c.certified_depth, moved)
            assert ref is not None and ref[0] == c.stab_tower
            off_rep |= self.off_representative(Q, c.chain, ref)
        assert off_rep or not moved

    @pytest.mark.parametrize("moved", [False, True])
    def test_agrees_on_every_tail_window(self, Q, moved):
        off_rep = False
        for cusp in Q.cusps:
            tail = cusp.tail
            for i in range(len(tail) - 2):
                window = tail[i:i + 3]
                ref = self.check(Q, window, 1, moved)
                if ref is not None:
                    off_rep |= self.off_representative(Q, window, ref)
        assert off_rep or not moved

    @pytest.mark.parametrize("moved", [False, True])
    def test_rejects_where_tails_stop(self, Q, moved):
        adj = Q.adjacency()
        stops = 0
        for cusp in Q.cusps:
            tail = cusp.tail
            candidates = [cid for cid, _ in adj[tail[0]] if cid != tail[1]]
            if len(candidates) != 1 or candidates[0] in tail:
                continue
            trial = [candidates[0]] + list(tail[:2])
            assert certify_by_lifting(
                Q, trial, 1, self.start(Q, trial[0], moved)) is None
            stops += 1
        assert stops


def window_check(Q, chain, window):
    """The window check on the first `window` steps of `chain` (inner
    first): each next stabilizer is q times larger, and each class's
    strands are one size-1 orbit into the next class and one size-q orbit
    elsewhere.  (tower, unipotent_tower) of the whole chain, or None."""
    q = Q.field.q
    classes = [Q.class_by_id(cid) for cid in chain]
    for cls, nxt in zip(classes[:window], classes[1:]):
        if nxt.stab.order != q * cls.stab.order:
            return None
        if sorted((st.orbit_size, st.dst == nxt.id)
                  for st in cls.strands) != [(1, True), (q, False)]:
            return None
    return (tuple(c.stab.order for c in classes),
            tuple(c.stab.unipotent_dim() for c in classes))


def two_walk_cusps(Q, window=3):
    """Reference certification in two walks: a structural walk from each
    boundary class along valency-2 classes joined by edges of multiplicity
    1, the window check on its `window` + 1 classes, then a second walk
    inward while the window check on the next one step passes.  Returns
    (germ, chain, stab_tower, unipotent_tower, splitness, tail) per cusp."""
    from types import SimpleNamespace
    adj = Q.adjacency()
    out = []
    for b in Q.classes:
        inc = adj[b.id]
        if b.expanded or len(inc) != 1 or inc[0][1] != 1:
            continue
        chain = [b.id, inc[0][0]]
        while len(chain) < window + 1:
            cur, prev = chain[-1], chain[-2]
            nbrs = [(cid, m) for cid, m in adj[cur] if cid != prev]
            if len(nbrs) != 1 or nbrs[0][1] != 1 or len(adj[cur]) != 2:
                break
            chain.append(nbrs[0][0])
        if len(chain) < window + 1:
            continue
        chain.reverse()
        towers = window_check(Q, chain, window)
        if towers is None:
            continue
        tail = list(chain)
        while True:
            candidates = [cid for cid, _ in adj[tail[0]] if cid != tail[1]]
            if len(candidates) != 1 or candidates[0] in tail \
                    or window_check(Q, candidates + tail[:2], 1) is None:
                break
            tail.insert(0, candidates[0])
        split = classify_splitness(SimpleNamespace(chain=chain), Q)
        out.append((tuple(chain[:2]), tuple(chain)) + towers
                   + (split, tuple(tail)))
    return out


TWO_WALK_CASES = list(dict.fromkeys(
    [case[:3] for case in CUSP_CASES] + ORACLE_CASES
    + [(3, "t^3;(t+1)^3", 14), (2, "0", 10), (9, "t", 8)]))


@pytest.mark.parametrize("q,lvl,depth", TWO_WALK_CASES,
                         ids=["q%d-%s-%d" % case for case in TWO_WALK_CASES])
def test_one_walk_equals_two_walks(q, lvl, depth):
    """The single inward walk certifies the cusps of the two-walk
    reference, with the same germ, chain, towers, splitness and tail."""
    from btquot.selftest import _build
    Q = _build(q, lvl, depth)
    assert Q.cusps
    assert [(c.germ, c.chain, c.stab_tower, c.unipotent_tower, c.splitness,
             c.tail) for c in Q.cusps] == two_walk_cusps(Q)


def test_adjacency_built_once_per_certification(monkeypatch):
    """`certify_cusps` builds the class adjacency once, and the graph of
    groups reads the tails off the cusps without building it."""
    from btquot.presentation import build_graph_of_groups
    from btquot.quotient import QuotientGraph
    calls = []
    adjacency = QuotientGraph.adjacency

    def counted(self):
        calls.append(self)
        return adjacency(self)

    Q = build_quotient(parse_level("t^3", F2), 12)
    monkeypatch.setattr(QuotientGraph, "adjacency", counted)
    assert len(certify_cusps(Q, 3)) == 4
    assert calls == [Q]
    build_graph_of_groups(Q)
    assert calls == [Q]


FRAME_CASES = [(2, "t", 6), (3, "t^2", 6), (2, "t^3", 8), (4, "t", 4),
               (9, "t", 2), (2, "0", 5), (3, "0", 5), (4, "t^2", 4),
               (9, "t^2", 3), (4, "t^3", 4)]


def closure_order(generators, identity, bound):
    """Order of the group the matrices generate, by Dimino's coset
    enumeration: a generator outside the group H built so far extends it
    by cosets H*r, one per new representative r, until every
    representative times every generator lies in it; a generator already
    in H costs nothing.  It stops past `bound` elements, so matrices that
    generate no group of that size cannot run on."""
    group = {identity.key(): identity}
    kept = []
    for g in generators:
        if g.key() in group:
            continue
        kept.append(g)
        old = list(group.values())
        reps, pending, i = [identity], [g], 0
        while pending:
            r = pending.pop()
            reps.append(r)
            for h in old:
                e = h @ r
                group[e.key()] = e
            if len(group) > bound:
                return len(group)
            while not pending and i < len(reps):
                for s in kept:
                    e = reps[i] @ s
                    if e.key() not in group:
                        pending.append(e)
                        break
                else:
                    i += 1
    return len(group)


def frame_matrix(field, frame):
    """The frame element s = [[a, b], [c, d]] of the frame data
    (a, b, c, d): packed ints, b as its packed coefficient vector."""
    from btquot.algebra import Polynomial
    from btquot.btree import Matrix2
    a, bvec, c, d = frame
    return Matrix2(Polynomial.constant(field, a), Polynomial(field, bvec),
                   Polynomial.constant(field, c),
                   Polynomial.constant(field, d))


def moved_descriptor(Q, c):
    """The descriptor of class c at its representative moved by
    `mover(Q)`, in that vertex's own reduction frame, where a level-0
    group may have many extras."""
    from btquot.btree import act
    from btquot.hecke import stabilizer
    return stabilizer(act(mover(Q), c.representative), Q.level)


class TestFrameOrbits:
    """The frame-label partition agrees with the `act` closure of the
    conjugated generators on every class: from the representative, and
    from the representative moved by `mover`, each in its own reduction
    frame."""

    @pytest.fixture(params=FRAME_CASES,
                    ids=["q%d-%s-%d" % case for case in FRAME_CASES])
    def Q(self, request):
        from btquot.selftest import _field
        q, lvl, depth = request.param
        key = ("frame",) + request.param
        if key not in _cache:
            _cache[key] = build_quotient(parse_level(lvl, _field(q)), depth)
        return _cache[key]

    @pytest.mark.parametrize("moved", [False, True])
    def test_agrees_with_act_closure(self, Q, moved):
        from btquot.quotient import frame_orbits
        for c in Q.classes:
            stab = moved_descriptor(Q, c) if moved else c.stab
            v = stab.base_vertex
            neighbors = sorted(v.neighbors(), key=lambda u: u.key())
            assert frame_orbits(stab) == orbit_partition_by_act(
                neighbors, stab.generators()), (c.id, v)

    @pytest.mark.parametrize("moved", [False, True])
    def test_orders_and_labels_in_the_frame(self, Q, moved):
        """Frame orders equal `Matrix2` orders on every generator, and the
        residue-matrix labels equal the labels of the neighbors moved by
        `act`."""
        for c in Q.classes:
            stab = moved_descriptor(Q, c) if moved else c.stab
            assert_orders_agree(stab)
            assert_labels_agree(stab)

    def test_generators_generate_the_group(self, Q):
        """The generators close, by matrix products, to a group of order
        `stab.order`: a set that generates too little passes the closure
        comparison above on both sides.  Classes of order at most 1000."""
        from btquot.btree import Matrix2
        ident = Matrix2.identity(Q.field)
        for c in Q.classes:
            if c.stab.order <= 1000:
                assert closure_order(c.stab.generators(), ident,
                                     c.stab.order) == c.stab.order, c.id

    @pytest.mark.parametrize("moved", [False, True])
    def test_linear_conjugation_equals_product(self, Q, moved):
        """Each element formed linearly from its frame data equals
        g^-1 s g by matrix products: every generator, and every element
        of `materialize()` on classes of order at most 300, else its
        first 300 elements."""
        import itertools
        for c in Q.classes:
            stab = moved_descriptor(Q, c) if moved else c.stab
            g = stab.reduction.g
            g_inv = g.inverse()
            frames = list(itertools.islice(stab.frames(), 300))
            elements = (stab.materialize() if stab.order <= 300
                        else [stab.element(fr) for fr in frames])
            for fr, h in zip(stab.generator_frames() + frames,
                             stab.generators() + elements, strict=True):
                assert h == g_inv @ frame_matrix(Q.field, fr) @ g, \
                    (c.id, fr)

    @pytest.mark.parametrize("moved", [False, True])
    @pytest.mark.parametrize("field,lvl", [
        (F2, "t^3"), (F3, "t^2"), (F3, "0"), (F3, "t^2;t+1"),
        (FieldSpec(2, 2), "0"), (FieldSpec(5), "0"), (FieldSpec(3, 2), "t")])
    def test_fixers_agree_with_act(self, field, lvl, moved):
        """Edge groups cut from the solution spaces by the label x of w
        agree, frame for frame and in order, with the frames of `stab`
        whose Moebius map fixes x on the classes of stabilizer order at
        most 600, and with the elements that fix w under `act` on those of
        order at most 100; their generator frames generate a group of
        their order.  At D = 0 and at q=3, D=t^2(t+1) (class 13) some edge
        groups keep a level-0 kernel."""
        from btquot.btree import act
        from btquot.hecke import moebius
        from btquot.quotient import frame_label
        Q = build(field, lvl, 4)
        n_kernel = 0
        for c in [c for c in Q.classes if c.stab.order <= 600]:
            stab = moved_descriptor(Q, c) if moved else c.stab
            v, n = stab.base_vertex, stab.level_n
            frames = list(stab.frames())
            elements = stab.materialize() if stab.order <= 100 else None
            for i, w in enumerate(v.neighbors()):
                x = frame_label(stab, i)
                oracle = [fr for fr in frames if moebius(
                    field, (fr[0], fr[1][n], fr[2], fr[3]), x) == x]
                edge = stab.edge_group(x)
                assert list(edge.frames()) == oracle, (c.id, w)
                assert edge.order == len(oracle), (c.id, w)
                assert elements is None or [
                    stab.element(fr) for fr in oracle] == [
                    h for h in elements if act(h, w) == w], (c.id, w)
                assert generated_order(edge, edge.generator_frames()) \
                    == edge.order, (c.id, w)
                n_kernel += bool(edge.kernel)
        if lvl in ("0", "t^2;t+1"):
            assert n_kernel


def link_matrix(v, n, g):
    """Reference residue matrix of a frame g, a `Matrix2`, at the vertex
    v = B(a, r) with act(g, v) = v_n: packed ints (k11, k12, k21, k22).

    With the lattice bases B_v = [[a, pi^r], [1, 0]] of v and
    B_n = [[0, pi^-n], [1, 0]] of v_n, g B_v = B_n M for
    M = B_n^-1 g B_v = [[C a + D, C pi^r], [pi^n (A a + B), A pi^(n+r)]],
    g = [[A, B], [C, D]] and a = P/t^K the exact center.  g maps v to v_n
    iff M is a scalar times an element of GL2(O); then k is M scaled by its
    least valuation and reduced mod pi.  ValueError for a g outside
    GL2(F_q[t]) with determinant in F_q*, or for a singular k, which shows
    that g does not map v to v_n."""
    from btquot.algebra import packed_add, packed_mul
    if not g.is_polynomial():
        raise ValueError("%r has a non-polynomial entry" % g)
    f = v.field
    A, B, C, D = (x.num.packed_coeffs for x in g.entries())
    minus_bc = packed_mul(f, packed_mul(f, B, C), [f.neg(1)])
    if len(packed_add(f, packed_mul(f, A, D), minus_bc)) != 1:
        raise ValueError("the determinant of %r is not a nonzero constant"
                         % g)
    num, K = v.center.fraction()
    pad, r = (0,) * K, v.r
    top = packed_add(f, packed_mul(f, C, num), D and pad + D)
    low = packed_add(f, packed_mul(f, A, num), B and pad + B)
    # each entry of M as P pi^e, P packed, of valuation e - deg P
    entries = ((top, K), (C, r), (low, n + K), (A, n + r))
    least = min(e - len(P) for P, e in entries if P)
    k = tuple(P[-1] if P and e - len(P) == least else 0
              for P, e in entries)
    if f.mul(k[0], k[3]) == f.mul(k[1], k[2]):
        raise ValueError("%r does not map %s to v_%d: its residue matrix "
                         "is singular" % (g, v.to_text(), n))
    return k


def assert_link_is_the_reference(v):
    """The residue matrix the reduction of v reads off its moves equals
    `link_matrix` of its g up to a factor in F_q*."""
    f, red = v.field, reduce_vertex(v)
    ref = link_matrix(v, red.level_n, red.g)
    i = next(i for i, x in enumerate(ref) if x)
    scale = f.mul(red.link[i], f.inv(ref[i]))
    assert scale and red.link == tuple(f.mul(scale, x) for x in ref), v


def seeded_balls():
    """Seeded vertices at q = 2, 3, 4, 5, 7, 8, 9: random centers with r in
    [-6, 9] and radii up to +-40, whose reductions meet I on balls off 0
    and on balls holding 0 (with x_r zero and nonzero) and the clearing
    tau_f at r <= 0; and zero centers on both sides of r = 0."""
    import random
    from btquot.btree import BallVertex
    from btquot.algebra import LaurentFragment
    from btquot.selftest import _field
    rng = random.Random(29)
    out = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        field = _field(q)
        for r in (-40, -3, 0, 1, 2, 5, 40):
            out.append(BallVertex(field, r, LaurentFragment.zero(field, r)))
        for _ in range(60):
            r = rng.choice([rng.randint(-6, 9), rng.randint(-40, 40)])
            exps = rng.sample(range(r - 12, r), rng.randint(1, 6))
            out.append(BallVertex(field, r, LaurentFragment(
                field, {e: rng.randrange(1, q) for e in exps}, r)))
    return out


class TestOneFrame:
    """The residue matrix k that the reduction reads off its moves equals
    the reference `link_matrix`, derived from g and the lattice of the
    vertex, up to F_q*; and the reference refuses what is no frame."""

    @pytest.mark.parametrize("q,lvl,depth", [case[:3] for case in CUSP_CASES]
                             + FRAME_CASES)
    def test_link_on_representatives_ends_and_neighbors(self, q, lvl,
                                                        depth):
        from btquot.selftest import _field
        Q = build_quotient(parse_level(lvl, _field(q)), depth)
        for c in Q.classes:
            for v in [c.representative, *(st.end for st in c.strands),
                      *c.representative.neighbors()]:
                assert_link_is_the_reference(v)

    def test_link_on_seeded_balls(self):
        for v in seeded_balls():
            assert_link_is_the_reference(v)

    def test_reference_refuses_a_frame_outside_the_group(self):
        """The frame times [[t^k, 0], [0, 1]] is refused: for k = -1 it
        has an entry outside F_q[t], for k = 1 its determinant is not a
        constant."""
        from btquot.algebra import RationalFunction
        from btquot.btree import Matrix2
        Q = build(F3, "t", 4)
        F = Q.field
        for k, message in ((-1, "non-polynomial"), (1, "determinant")):
            scale = Matrix2(RationalFunction.t_power(F, k),
                            RationalFunction.zero(F),
                            RationalFunction.zero(F), RationalFunction.one(F))
            for c in Q.classes:
                red = c.reduction
                with pytest.raises(ValueError, match=message):
                    link_matrix(c.representative, red.level_n,
                                scale @ red.g)

    def test_reference_refuses_a_frame_off_the_ray(self):
        """A frame in GL2(F_q[t]) with constant determinant that maps the
        vertex to some vertex other than v_n has a singular residue
        matrix."""
        from btquot.algebra import Polynomial
        from btquot.btree import Matrix2
        Q = build(F3, "t", 4)
        for c in Q.classes:
            red = c.reduction
            shift = Matrix2.translation(
                Polynomial.t(Q.field).shift(red.level_n + 1))
            with pytest.raises(ValueError, match="singular"):
                link_matrix(c.representative, red.level_n, shift @ red.g)


BRANCH_CASES = [(2, "t^2;t+1", 4), (3, "t^2;t+1", 4), (4, "t^2;t+1", 3),
                (3, "t^2+1", 4), (3, "0", 4)]


def fixed_label_branch(stab):
    """The case of the fixed-label rule (`quotient` module docstring) that
    `stab` falls in, read off its descriptor: the type of a level-0 kernel
    V by its dimension and order, else how the torus map moves b_n."""
    q, n, (mu, _, _, kb) = stab.field.q, stab.level_n, stab.torus
    if stab.kernel:
        if len(stab.kernel) > 2:
            return {4: "M2", 3: "Borel"}[len(stab.kernel)]
        return {q * q - 1: "F_q^2", q * (q - 1): "dual numbers",
                (q - 1) ** 2: "split"}[stab.order]
    if any(vec[n] for vec in kb):
        return "translation"
    return "q = 2" if q == 2 else "scalar line" if mu == 1 else "fixed x0"


def test_closed_form_orbits_in_every_branch():
    """The closed-form orbits equal the `act` partition on every class of
    BRANCH_CASES: from the representative, and from the representative
    moved by `mover` and by the shear [[1, 1], [N, 1 + N]] (N as in
    `mover`), each in its own reduction frame.  Every case of the
    fixed-label rule occurs.  The
    Borel subalgebra occurs only in the own frame of the base vertex v_0
    moved by `mover` (the shear, `mover` times a translation that fixes
    v_0, moves it to the same vertex): Stab(v_0) is the upper Borel, with
    c = 0, but the vertex it moves to at q=2, D = t^2(t+1),
    r=6;a=1*s^3+1*s^4+1*s^5, reduced by its own g, has a Borel V with some
    c != 0."""
    from collections import Counter
    from btquot.btree import Matrix2, act
    from btquot.hecke import stabilizer
    from btquot.quotient import frame_orbits
    from btquot.selftest import _field
    seen = Counter()
    for q, lvl, depth in BRANCH_CASES:
        Q = build_quotient(parse_level(lvl, _field(q)), depth)
        m = mover(Q)
        one, low = m.a, m.c
        for c in Q.classes:
            stabs = [c.stab] + [
                stabilizer(act(g, c.representative), Q.level)
                for g in (m, Matrix2(one, one, low, one + low))]
            for stab in stabs:
                assert frame_orbits(stab) == orbit_partition_by_act(
                    stab.base_vertex.neighbors(), stab.generators()), \
                    (q, lvl, c.id, stab.base_vertex)
                seen[fixed_label_branch(stab)] += 1
    assert set(seen) == {"translation", "scalar line", "fixed x0", "q = 2",
                         "M2", "Borel", "F_q^2", "dual numbers", "split"}


class TestForgedDescriptors:
    """A descriptor whose torus map is no group's is an inconsistency."""

    def forged(self, stab, mu, na):
        from btquot.hecke import StabDescriptor
        return StabDescriptor(stab.base_vertex, stab.reduction, stab.level,
                              (mu, na, stab.torus_map[2], stab.m),
                              stab.kernel)

    def test_torus_line_off_the_identity(self):
        """The line alpha = 2*beta at q = 3 misses (1, 1)."""
        from btquot.hecke import HeckeInconsistency
        from btquot.quotient import frame_orbits
        Q = build(F3, "t^2", 6)
        for c in Q.classes:
            with pytest.raises(HeckeInconsistency, match=r"miss the pair"):
                frame_orbits(self.forged(c.stab, 2, c.stab.torus[1]))

    def test_pair_one_one_is_a_translation(self):
        """With no kernel vector moving b_n, na_n + nc_n != 0 makes the
        element of the pair (1, 1) a nontrivial translation."""
        from btquot.hecke import HeckeInconsistency
        from btquot.quotient import frame_orbits
        Q = build(F3, "t^2", 6)
        forged = 0
        for c in Q.classes:
            (mu, na, nc, kb), n = c.stab.torus, c.level_n
            if c.stab.kernel or any(vec[n] for vec in kb):
                continue
            na = na[:n] + (Q.field.add(na[n], 1),) + na[n + 1:]
            with pytest.raises(HeckeInconsistency, match="identity"):
                frame_orbits(self.forged(c.stab, mu, na))
            forged += 1
        assert forged


FRAME_OF_CASES = [(2, "t", 4), (3, "t^2", 4), (4, "t", 4), (5, "t", 3),
                  (9, "t", 2), (2, "0", 3), (3, "0", 3), (9, "0", 2)]


def random_frames(rng, stab, count):
    """Seeded frame data of Stab(v_n): triangular ones, and at level 0,
    when the descriptor has level-0 extras, ones with c != 0."""
    q, n, mul = stab.field.q, stab.level_n, stab.field.mul
    out = [(rng.randrange(1, q), tuple(rng.randrange(q) for _ in range(n + 1)),
            0, rng.randrange(1, q)) for _ in range(count)]
    while stab.kernel and len(out) < 2 * count:
        a, b, c, d = (rng.randrange(q), rng.randrange(q),
                      rng.randrange(1, q), rng.randrange(q))
        if mul(a, d) != mul(b, c):
            out.append((a, (b,), c, d))
    return out


class TestFrameOf:
    """`frame_of` reads the frame data back off the packed rows of an
    element: the inverse of `element_rows` on Stab(v_n), and None off
    it."""

    @pytest.mark.parametrize("q,lvl,depth", FRAME_OF_CASES)
    def test_inverts_element(self, q, lvl, depth):
        """frame_of(element_rows(fr)) == fr on seeded frames, from the
        representative and from the moved descriptor of every class."""
        import random
        from btquot.hecke import _level0_extras
        from btquot.selftest import _field
        Q = build(_field(q), lvl, depth)
        rng = random.Random(1000 * q + depth)
        levels, extras = set(), False
        for c in Q.classes:
            for stab in (c.stab, moved_descriptor(Q, c)):
                levels.add(min(stab.level_n, 1))
                extra = list(_level0_extras(stab.field, stab.kernel))
                extras = extras or bool(extra)
                frames = (random_frames(rng, stab, 4)
                          + rng.sample(extra, min(4, len(extra)))
                          + stab.generator_frames()[:8])
                for fr in frames:
                    assert stab.frame_of(stab.element_rows(fr)) == fr, \
                        (c.id, fr)
        assert levels == {0, 1}
        assert extras or lvl != "0"

    @pytest.mark.parametrize("field,lvl", [(F3, "t^2"), (F2, "0")])
    def test_none_off_the_stabilizer(self, field, lvl):
        """g^-1 s g for s outside Stab(v_n): [[1, 0], [t, 1]], a constant
        or polynomial lower-left entry at n >= 1, deg b = n + 1, a
        non-constant diagonal entry.  The Weyl element lies in it at n = 0
        only."""
        from btquot.algebra import Polynomial
        from btquot.btree import Matrix2
        Q = build(field, lvl, 4)
        one, zero = Polynomial.one(field), Polynomial.zero(field)
        t = Polynomial.t(field)
        weyl = Matrix2.involution(field)
        for c in Q.classes:
            for stab in (c.stab, moved_descriptor(Q, c)):
                g, n = stab.reduction.g, stab.level_n

                def frame(s):
                    return stab.frame_of((g.inverse() @ s @ g).key())

                assert frame(Matrix2(one, zero, t, one)) is None
                assert frame(Matrix2.translation(t.shift(n))) is None
                assert frame(Matrix2(t, one, -one, zero)) is None
                top = (0,) * n + (field.neg(1),)
                assert frame(Matrix2.translation(t.shift(n - 1) if n
                                                 else one)) \
                    == (1, top, 0, 1)
                if n:
                    assert frame(Matrix2(one, zero, one, one)) is None
                    assert frame(weyl) is None
                else:
                    assert frame(weyl) == (0, (1,), 1, 0)


def frame_label_by_move(stab, w):
    """Reference label of the tree neighbor w of the vertex of `stab`: w
    moved by the frame (`act`) is v_{n+1}, label None, or the child
    c t^n + t^(n-1) O of v_n, label c."""
    from btquot.btree import act
    n = stab.level_n
    u = act(stab.reduction.g, w)
    terms = u.center.packed_terms
    if u.r == -n - 1 and not terms:
        return None
    assert u.r == 1 - n and all(e == -n for e, _ in terms), (w, u)
    return terms[0][1] if terms else 0


def matrix_order(g):
    """Order of g by repeated Matrix2 products."""
    from btquot.btree import Matrix2
    ident = Matrix2.identity(g.field)
    acc, order = g, 1
    while acc != ident:
        acc = acc @ g
        order += 1
    return order


def assert_labels_agree(stab):
    from btquot.quotient import frame_label
    neighbors = stab.base_vertex.neighbors()
    assert [frame_label(stab, i) for i in range(len(neighbors))] == [
        frame_label_by_move(stab, w) for w in neighbors], stab.base_vertex


def assert_orders_agree(stab):
    for fr, g in zip(stab.generator_frames(), stab.generators(),
                     strict=True):
        assert stab.frame_order(fr) == matrix_order(g), (stab, fr)


def fp_rank(vectors, p):
    """Rank over F_p of integer vectors read mod p."""
    rows = [[x % p for x in vec] for vec in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i],
                                                           rows[rank])]
        rank += 1
    return rank


def generated_order(stab, gens):
    """Order of the group the frames `gens` generate, without the solver's
    blocks: the closure under `frame_product` when a frame has c != 0, and
    otherwise Schreier's lemma on the triangular group H.  Its torus image
    is walked with one representative r per pair; the kernel H n U is
    generated by the r s rep(r s)^-1, which for equal diagonals
    (alpha, beta) is [[1, (b - b') / beta], [0, 1]], so its order is p to
    the F_p-rank of those b, each packed int read as its s base-p digits."""
    ident = stab.identity_frame()
    if any(fr[2] for fr in gens):
        seen, frontier = {ident}, [ident]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = stab.frame_product(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen)
    f = stab.field
    reps, frontier, kernel = {(1, 1): ident}, [ident], []
    while frontier:
        r = frontier.pop()
        for g in gens:
            x = stab.frame_product(r, g)
            y = reps.setdefault((x[0], x[3]), x)
            if y is x:
                frontier.append(x)
                continue
            scale = f.inv(x[3])
            kernel.append([(f.mul(f.add(u, f.neg(w)), scale) // f.p ** k)
                           for u, w in zip(x[1], y[1]) for k in range(f.s)])
    return len(reps) * f.p ** fp_rank(kernel, f.p)


def assert_small_generating_set(stab):
    """The generator frames are distinct, none the identity, and generate
    a group of order `stab.order`, with at most two torus lifts beside the
    unipotent basis and the kept extras, each kept extra at least doubling
    the orbit of infinity."""
    gens = stab.generator_frames()
    assert len(set(gens)) == len(gens), stab
    assert stab.identity_frame() not in gens, stab
    assert generated_order(stab, gens) == stab.order, stab
    kept = sum(1 for fr in gens if fr[2])
    assert len(gens) <= 2 + len(stab._unipotent_basis()) + kept, stab
    triangular = len(stab.torus_pairs()) * stab.field.q ** len(stab.torus[3])
    assert 2 ** kept <= stab.order // triangular, stab


# the census levels and the amalgam levels of the benchmark
CENSUS_AMALGAM_CASES = ([case[:3] for case in CUSP_CASES] + [(3, "t^2", 10)]
                        + [(q, "t", 8) for q in (2, 3, 4, 5, 9)])


class TestFrameArithmetic:
    """Frame data against matrices: the residue-matrix labels against
    moving each neighbor with `act`, frame orders against `Matrix2`
    powers, and the frame product against the matrix product."""

    @pytest.fixture(params=CENSUS_AMALGAM_CASES,
                    ids=["q%d-%s-%d" % case for case in CENSUS_AMALGAM_CASES])
    def Q(self, request):
        from btquot.selftest import _build
        return _build(*request.param)

    def test_labels_on_representatives_and_lifts(self, Q):
        from btquot.presentation import build_graph_of_groups
        for c in Q.classes:
            assert_labels_agree(c.stab)
        G = build_graph_of_groups(Q)
        assert len(G.vertex_stabs) == len(Q.classes)
        for stab in G.vertex_stabs.values():
            assert_labels_agree(stab)

    def test_generator_orders(self, Q):
        for c in Q.classes:
            assert_orders_agree(c.stab)

    def test_generators_generate_every_class(self, Q):
        """Small generating sets on every class, large classes included,
        in the class frame and in the own frame of the representative
        moved by `mover`."""
        from btquot.btree import act
        from btquot.hecke import stabilizer
        for c in Q.classes:
            assert_small_generating_set(c.stab)
            assert_small_generating_set(
                stabilizer(act(mover(Q), c.representative), Q.level))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
    def test_product_is_the_matrix_product(self, q):
        """element(x y) = element(x) @ element(y) on seeded pairs of
        frames of every class of D = t, levels 0 and n >= 1."""
        import itertools
        import random
        from btquot.selftest import _build
        rng = random.Random(q)
        levels = set()
        for c in _build(q, "t", 8).classes:
            stab = c.stab
            frames = list(itertools.islice(stab.frames(), 400))
            for _ in range(12):
                x, y = rng.choice(frames), rng.choice(frames)
                assert stab.element(stab.frame_product(x, y)) == \
                    stab.element(x) @ stab.element(y), (c.id, x, y)
            levels.add(min(stab.level_n, 1))
        assert levels == {0, 1}
