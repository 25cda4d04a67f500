import itertools
import json
import pathlib

import pytest

from btquot.algebra import FieldSpec, Polynomial
from btquot.btree import Matrix2, act
from btquot.hecke import Level, orbit_witness, parse_level, reduce_vertex
from btquot.presentation import (GogEdge, GraphOfGroups, PresentationError,
                                 PresentationInconsistency,
                                 abelianization_of_line_amalgam,
                                 amalgam_example_check,
                                 build_graph_of_groups, emit_presentation,
                                 presentation_json, presentation_text,
                                 smith_normal_form)
from btquot.quotient import InconsistencyError, build_quotient, certify_cusps
from test_stab_columns import locate

GOLDEN = pathlib.Path(__file__).parent / "golden"

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 9: (3, 2)}

_cache = {}


def with_witness(G, i, g_y):
    """A copy of the graph of groups G whose edge i has the witness g_y."""
    edges = list(G.edges)
    e = edges[i]
    edges[i] = GogEdge(e.src, e.dst, e.lift_dst, e.in_tree, g_y, e.edge_group)
    return GraphOfGroups(G.base, G.spanning_tree, G.lifts, G.vertex_stabs,
                         G.finite_classes, edges, G.tails, G.y_classes)


def line_setup(q, depth=8):
    if (q, depth) not in _cache:
        field = FieldSpec(*FIELDS[q])
        Q = build_quotient(parse_level("t", field), depth)
        certify_cusps(Q, 3)
        G = build_graph_of_groups(Q)
        _cache[(q, depth)] = (Q, G)
    return _cache[(q, depth)]


class TestSmithNormalForm:
    def test_basic(self):
        assert smith_normal_form([[2, 0], [0, 2], [1, 1]], 2) == (1, 2)
        assert smith_normal_form([[6, 0], [0, 10]], 2) == (2, 30)
        assert smith_normal_form([[2, 4, 4]], 3) == (2, 0, 0)
        assert smith_normal_form([], 2) == (0, 0)

    def test_torus_quotient(self):
        rows = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2],
                [1, 0, 1, 0], [0, 1, 0, 1]]
        assert smith_normal_form(rows, 4) == (1, 1, 2, 2)

    def test_divisibility_chain(self):
        import random
        rng = random.Random(31)
        for _ in range(40):
            rows = [[rng.randint(-6, 6) for _ in range(3)]
                    for _ in range(rng.randint(1, 4))]
            fs = smith_normal_form(rows, 3)
            for a, b in zip(fs, fs[1:]):
                if a and b:
                    assert b % a == 0
                if a == 0:
                    assert b == 0


class TestGraphOfGroups:
    def test_line_structure(self):
        Q, G = line_setup(3)
        assert not G.y_classes
        assert len(G.tails) == 2
        assert len(G.spanning_tree) == len(Q.edges)
        assert all(e.in_tree for e in G.edges)
        assert all(e.g_y == Matrix2.identity(Q.field) for e in G.edges)

    def test_lift_coherence(self):
        from btquot.btree import distance
        Q, G = line_setup(3)
        for e in G.edges:
            assert distance(G.lifts[e.src], e.lift_dst) == 1
            assert G.lifts[e.dst] == e.lift_dst  # tree edges lift on the nose

    def test_edge_groups_inject(self):
        Q, G = line_setup(3)
        for e in G.edges:
            if e.edge_group is None:
                continue
            lift_src, stab = G.lifts[e.src], G.vertex_stabs[e.src]
            group = [stab.element(fr) for fr in e.edge_group.frames()]
            for h in group:
                assert act(h, lift_src) == lift_src
                assert act(h, e.lift_dst) == e.lift_dst
            assert len({h.key() for h in group}) == len(group)

    def test_requires_certified_cusps(self):
        field = FieldSpec(2)
        Q = build_quotient(parse_level("t", field), 6)
        with pytest.raises(PresentationError) as info:
            build_graph_of_groups(Q)
        assert not isinstance(info.value, InconsistencyError)  # exit 2

    def test_vertex_group_cap(self, monkeypatch):
        """A finite vertex group above VERTEX_GROUP_CAP raises SizeError,
        and no frame of any stabilizer is enumerated, in that build or in
        one under the cap.  At D = 0 over F_3 the largest finite vertex
        group is that of the base class, |GL2(F_3)| = 48."""
        import btquot.presentation as presentation
        from btquot.hecke import SizeError, StabDescriptor
        Q = build_quotient(parse_level("0", FieldSpec(3)), 8)
        certify_cusps(Q, 3)
        G = build_graph_of_groups(Q)
        assert max(G.vertex_stabs[cid].order
                   for cid in G.finite_classes) == 48
        enumerated = []
        frames = StabDescriptor.frames

        def recorded(self):
            enumerated.append(self)
            return frames(self)

        monkeypatch.setattr(StabDescriptor, "frames", recorded)
        monkeypatch.setattr(presentation, "VERTEX_GROUP_CAP", 47)
        with pytest.raises(SizeError, match="order 48 exceeds cap 47"):
            build_graph_of_groups(Q)
        assert enumerated == []
        monkeypatch.setattr(presentation, "VERTEX_GROUP_CAP", 48)
        build_graph_of_groups(Q)
        assert enumerated == []

    def test_tree_and_strand_guards(self):
        """A certified tail edge left outside the discovery tree, or an
        edge whose source strands do not number its multiplicity, is an
        internal contradiction."""
        def certified():
            Q = build_quotient(parse_level("t", FieldSpec(3)), 8)
            certify_cusps(Q, 3)
            return Q

        Q = certified()
        tail = Q.cusps[0].tail
        Q.class_by_id(tail[-1]).parent = tail[0]
        with pytest.raises(PresentationInconsistency, match="outside"):
            build_graph_of_groups(Q)
        Q = certified()
        Q.class_by_id(0).strands.pop()
        with pytest.raises(PresentationInconsistency, match="strands"):
            build_graph_of_groups(Q)

    def test_ray_graph_level_zero(self):
        field = FieldSpec(2)
        Q = build_quotient(parse_level("0", field), 8)
        certify_cusps(Q, 3)
        G = build_graph_of_groups(Q)
        assert len(G.tails) == 1
        assert G.y_classes == (0,)  # the base class stays in the finite part


class TestEmitPresentation:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_golden(self, q):
        Q, G = line_setup(q)
        P = emit_presentation(G)
        text = presentation_text(P, Q)
        golden = (GOLDEN / ("amalgam_q%d.txt" % q)).read_text()
        assert text == golden

    def test_every_relation_is_identity(self):
        Q, G = line_setup(3)
        P = emit_presentation(G)
        named = dict(P.generators)
        ident = Matrix2.identity(Q.field)
        assert P.relations
        for rel in P.relations:
            acc = ident
            for name, exp in rel:
                g = named[name]
                g = g.inverse() if exp < 0 else g
                for _ in range(abs(exp)):
                    acc = acc @ g
            assert acc == ident

    def test_json_mirror(self):
        Q, G = line_setup(3)
        P = emit_presentation(G)
        doc = json.loads(presentation_json(P, Q))
        assert doc["level"] == "t"
        assert len(doc["tails"]) == 2
        assert all(t["junction_order"] == 4 for t in doc["tails"])

    def test_single_tail_has_no_cross_relations(self):
        field = FieldSpec(2)
        Q = build_quotient(parse_level("0", field), 8)
        certify_cusps(Q, 3)
        P = emit_presentation(build_graph_of_groups(Q))
        # v0 group is GL2(F_2) (order 6), one tail; relations are orders and
        # the single junction identification set
        assert P.tail_summaries[0].splitness == "indeterminate"


class TestRelationCheck:
    """`emit_presentation` evaluates every relation by matrix arithmetic,
    powers by binary powering, so a wrong generator order or a wrong edge
    word raises."""

    def test_every_lowered_order_is_caught(self, monkeypatch):
        from btquot.hecke import StabDescriptor
        Q, G = line_setup(5)
        count = len(emit_presentation(G).generators)
        frame_order = StabDescriptor.frame_order
        for target in range(count):
            seen = []

            def lowered(self, frame):
                seen.append(frame)
                order = frame_order(self, frame)
                return order - 1 if len(seen) == target + 1 else order

            monkeypatch.setattr(StabDescriptor, "frame_order", lowered)
            with pytest.raises(PresentationInconsistency, match="identity"):
                emit_presentation(G)

    @pytest.mark.parametrize("last", [False, True])
    def test_wrong_edge_word_is_caught(self, monkeypatch, last):
        """The first edge word (a tree edge) or the last one (a non-tree
        edge, conjugated through its g_y) gets one more factor."""
        import btquot.presentation as presentation
        key = (3, "t^3", 10)
        if key not in _cache:
            Q = build_quotient(parse_level("t^3", FieldSpec(3)), 10)
            certify_cusps(Q, 3)
            _cache[key] = (Q, build_graph_of_groups(Q))
        G = _cache[key][1]
        word_search = presentation._word_search
        seen = []

        def recorded(target, gens, names):
            seen.append(target)
            return word_search(target, gens, names)

        monkeypatch.setattr(presentation, "_word_search", recorded)
        assert emit_presentation(G).relations[-1][0][0] == "h1"
        target = len(seen) - 1 if last else 0
        seen.clear()

        def tampered(target_frame, gens, names):
            word = recorded(target_frame, gens, names)
            if len(seen) == target + 1:
                name, k = word[-1]
                word = word[:-1] + ((name, k + 1),)
            return word

        monkeypatch.setattr(presentation, "_word_search", tampered)
        with pytest.raises(PresentationInconsistency, match="identity"):
            emit_presentation(G)


class TestAbelianization:
    @pytest.mark.parametrize("q,order", [(3, 4), (4, 9), (5, 16)])
    def test_orders(self, q, order):
        Q, G = line_setup(q)
        ab = abelianization_of_line_amalgam(G)
        assert ab["order"] == order
        assert ab["is_torus_squared"]
        assert ab["invariant_factors"] == (q - 1, q - 1)

    @pytest.mark.parametrize("q", [3, 4, 5, 9])
    def test_pinned(self, q):
        """The invariant factors, order and junction order at D = t, depth
        8, from the abelianization and from the example check, whose every
        check passes."""
        Q, G = line_setup(q)
        m = q - 1
        pinned = {"invariant_factors": (m, m), "order": m * m,
                  "junction_order": m * m, "is_torus_squared": True}
        assert abelianization_of_line_amalgam(G) == pinned
        rep = amalgam_example_check(Q.field, depth=8)
        assert rep["abelianization"] == pinned
        assert [c[:2] for c in rep["checks"]] == [(name, True) for name in (
            "line: class count 2*depth+1", "line: tree of max valency 2",
            "two certified cusps", "closed form agrees and is exact",
            "tails cover the line (empty finite part)", "two tails",
            "tail 0 torus is full", "tail 0 unipotent tower steps by 1",
            "tail 1 torus is full", "tail 1 unipotent tower steps by 1",
            "tail lengths differ by one (junction off center)",
            "junction lifts are the standard vertices",
            "upper junction group is [[F*, F],[0, F*]]",
            "lower junction group is [[F*, 0],[tF, F*]]",
            "tails glued along one edge", "junction group order (q-1)^2",
            "junction group is the diagonal torus",
            "abelianization order (q-1)^2", "abelianization is F* x F*")]

    def test_rejects_q2(self):
        Q, G = line_setup(2)
        with pytest.raises(PresentationError) as info:
            abelianization_of_line_amalgam(G)
        assert not isinstance(info.value, InconsistencyError)

    def test_rejects_wrong_shape(self):
        field = FieldSpec(3)
        Q = build_quotient(parse_level("0", field), 8)
        certify_cusps(Q, 3)
        G = build_graph_of_groups(Q)
        with pytest.raises(PresentationError) as info:
            abelianization_of_line_amalgam(G)
        assert not isinstance(info.value, InconsistencyError)


class TestAmalgamExample:
    @pytest.mark.parametrize("q", [2, 3])
    def test_passes(self, q):
        decomp = {2: (2, 1), 3: (3, 1)}
        rep = amalgam_example_check(FieldSpec(*decomp[q]), depth=6)
        failed = [c for c in rep["checks"] if not c[1]]
        assert rep["passed"], failed


class TestNonTreeEdges:
    """The cubed level over F_2 has a cycle in its finite part, so the
    graph of groups genuinely needs a non-tree witness g_y."""

    def test_cycle_yields_verified_h_generator(self):
        from btquot.hecke import is_member
        field = FieldSpec(2)
        Q = build_quotient(parse_level("t^3", field), 12)
        certify_cusps(Q, 3)
        assert len(Q.edges) > len(Q.classes) - 1  # a genuine cycle
        G = build_graph_of_groups(Q)
        nontree = [e for e in G.edges if not e.in_tree]
        total_strands = sum(e.multiplicity for e in Q.edges)
        assert len(nontree) == total_strands - (len(Q.classes) - 1)
        assert nontree
        for e in nontree:
            assert is_member(e.g_y, Q.level)
            assert act(e.g_y, G.lifts[e.dst]) == e.lift_dst
        P = emit_presentation(G)
        hnames = [n for n, _ in P.generators if n.startswith("h")]
        assert len(hnames) == len(nontree)
        golden = (GOLDEN / "amalgam_q2_t3.txt").read_text()
        assert presentation_text(P, Q) == golden

    def test_multi_edge_strands(self):
        # q=3, cubed level: a multiplicity-2 quotient edge; every strand
        # beyond the spanning tree carries its own verified witness
        field = FieldSpec(3)
        Q = build_quotient(parse_level("t^3", field), 10)
        certify_cusps(Q, 3)
        assert any(e.multiplicity > 1 for e in Q.edges)
        G = build_graph_of_groups(Q)
        from btquot.hecke import is_member
        nontree = [e for e in G.edges if not e.in_tree]
        assert nontree
        for e in nontree:
            assert is_member(e.g_y, Q.level)
            assert act(e.g_y, G.lifts[e.dst]) == e.lift_dst

    def test_wrong_witness_is_caught(self):
        """The identity in place of g_y on a non-tree edge maps the edge
        group outside the stabilizer of the target lift, and `frame_of`
        says so.  Here q=3, D=t^2(t+1): the non-tree edge groups have
        order 4.  At q=3, D=t^3 every non-tree edge group is the center
        {I, 2I}, which any g_y maps onto itself; the witness check catches
        a wrong g_y there (next test)."""
        Q = build_quotient(parse_level("t^2;t+1", FieldSpec(3)), 10)
        certify_cusps(Q, 3)
        G = build_graph_of_groups(Q)
        emit_presentation(G)
        tampered = [i for i, e in enumerate(G.edges) if not e.in_tree
                    and e.edge_group and e.edge_group.order > Q.field.q - 1]
        assert tampered
        for i in tampered:
            with pytest.raises(PresentationInconsistency,
                               match="injection image"):
                emit_presentation(
                    with_witness(G, i, Matrix2.identity(Q.field)))

    def test_wrong_witness_on_central_edge_groups_is_caught(self):
        """At q=3, D=t^3 both non-tree edge groups are the center {I, 2I},
        so the injections and the relations hold whatever g_y is.  The
        identity, or the other strand's g_y, in place of either g_y does
        not map the lift of the target class to the edge's end, and the
        witness check says so."""
        Q = build_quotient(parse_level("t^3", FieldSpec(3)), 10)
        certify_cusps(Q, 3)
        G = build_graph_of_groups(Q)
        emit_presentation(G)
        nontree = [i for i, e in enumerate(G.edges) if not e.in_tree]
        assert len(nontree) == 2
        assert all(G.edges[i].edge_group.order == 2 for i in nontree)
        for i, j in (nontree, nontree[::-1]):
            for g_y in (Matrix2.identity(Q.field), G.edges[j].g_y):
                with pytest.raises(PresentationInconsistency,
                                   match="witness g_y"):
                    emit_presentation(with_witness(G, i, g_y))


def _levels(q, deg):
    """Every level of degree 1..deg over F_q, as products of distinct
    monic irreducibles with multiplicities."""
    field = FieldSpec(*FIELDS[q])
    primes = [p for d in range(1, deg + 1)
              for low in itertools.product(range(q), repeat=d)
              for p in [Polynomial(field, list(low) + [1])]
              if p.is_irreducible()]
    out = []

    def extend(start, left, factors):
        if factors:
            out.append(Level(field, factors))
        for i in range(start, len(primes)):
            for m in range(1, left // primes[i].degree + 1):
                extend(i + 1, left - m * primes[i].degree,
                       factors + [(primes[i], m)])

    extend(0, deg, [])
    return out


ORACLE_LEVELS = ([level for q, deg in ((2, 4), (3, 3), (4, 2), (5, 2))
                  for level in _levels(q, deg)]
                 + [parse_level("t^2", FieldSpec(*FIELDS[9]))]
                 + [parse_level("0", FieldSpec(*FIELDS[q]))
                    for q in (2, 3, 5)])


def reference_graph(Q):
    """The spanning tree, lifts, lift stabilizers and strands of the graph
    of groups, found from the quotient's edges and `locate` alone:
    Kruskal's tree over the edges, certified tail edges first; a breadth
    first lift of it from class 0, each child onto the first tree neighbor
    of its parent's lift that lies in its class; each lift's stabilizer in
    its own reduction frame (`stabilizer`); and
    then, edge by edge, the strands off the tree from the orbits of the
    source lift's stabilizer on its neighbors, the orbit holding the
    tree's own neighbor left out, each with an `orbit_witness` g_y.
    Returns (tree, lifts, stabs, strands), a strand (src, dst, lifted dst,
    g_y) with g_y the identity on the tree."""
    from btquot.hecke import stabilizer
    from btquot.quotient import frame_orbits

    def in_class(v, cid):
        found = locate(Q, v)
        return found is not None and found[0] == cid

    tail_keys = {(min(a, b), max(a, b)) for cusp in Q.cusps
                 for a, b in zip(cusp.tail, cusp.tail[1:])}
    root = {c.id: c.id for c in Q.classes}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    tree, extra, adj = [], [], {}
    for e in sorted(Q.edges, key=lambda e: (e.src, e.dst) not in tail_keys):
        a, b = find(e.src), find(e.dst)
        if a != b:
            root[a] = b
            tree.append((e.src, e.dst))
            adj.setdefault(e.src, []).append(e.dst)
            adj.setdefault(e.dst, []).append(e.src)
        if a == b or e.multiplicity > 1:
            extra.append((e, a != b))
    lifts, parent, order = {0: Q.class_by_id(0).representative}, {}, [0]
    for cur in order:
        for cid in sorted(adj.get(cur, ())):
            if cid not in lifts:
                lifts[cid] = next(v for v in lifts[cur].neighbors()
                                  if in_class(v, cid))
                parent[cid] = cur
                order.append(cid)
    stabs = {cid: stabilizer(lifts[cid], Q.level) for cid in order}
    one = Matrix2.identity(Q.field)
    strands = [(parent[cid], cid, lifts[cid], one) for cid in order[1:]]
    for e, tree_carries_one in extra:
        side = e.src if Q.class_by_id(e.src).expanded else e.dst
        other = e.src + e.dst - side
        v, tree_index = lifts[side], None
        if tree_carries_one:
            tree_index = v.neighbors().index(lifts[other])
        for orbit in frame_orbits(stabs[side]):
            w = v.neighbor(orbit[0])
            if tree_index not in orbit and in_class(w, other):
                strands.append((side, other, w, orbit_witness(
                    Q.level, reduce_vertex(lifts[other]), reduce_vertex(w))))
    return sorted(tree), lifts, stabs, strands


class TestDiscoveryTreeOracle:
    """The build's discovery tree, lifted onto the class representatives,
    is the tree, the lift and the strands that Kruskal's algorithm and a
    neighbor scan find (`reference_graph`): on every level of degree <= 4
    at q=2, <= 3 at q=3 and <= 2 at q=4, 5, on q=9 with D=t^2 and on D=0
    at q=2, 3, 5, each at depth 2 deg N + 4 (window 2 at D=0, where the
    depth is 4)."""

    @pytest.mark.parametrize("level", ORACLE_LEVELS,
                             ids=["q%d-%s" % (lv.field.q, lv)
                                  for lv in ORACLE_LEVELS])
    def test_graph_of_groups_equals_the_reference(self, level):
        depth = 2 * level.degree + 4
        Q = build_quotient(level, depth)
        assert certify_cusps(Q, min(3, depth - 2))
        G = build_graph_of_groups(Q)
        tree, lifts, stabs, strands = reference_graph(Q)
        assert list(G.spanning_tree) == tree
        assert [(c, v.key()) for c, v in G.lifts.items()] == \
            [(c, v.key()) for c, v in lifts.items()]
        assert sorted(G.vertex_stabs) == sorted(stabs)
        for cid, stab in stabs.items():
            got = G.vertex_stabs[cid]
            assert (got.reduction, got.torus, got.kernel) == \
                (stab.reduction, stab.torus, stab.kernel)
        assert [(e.src, e.dst, e.lift_dst.key(), e.g_y) for e in G.edges] \
            == [(src, dst, w.key(), g_y) for src, dst, w, g_y in strands]


def _polynomial_entries(g):
    return all(isinstance(x, Polynomial) for x in g.entries())


class TestPolynomialEntries:
    @pytest.mark.parametrize("p,s,level,depth", [
        (2, 1, "t", 8), (3, 1, "t", 8), (3, 2, "t", 8), (2, 1, "t^3", 12)])
    def test_group_elements_hold_polynomials(self, p, s, level, depth):
        """Every element of H_D the program builds, from the Nagao
        reduction to the presentation generators, is a matrix over F_q[t]:
        no entry is a RationalFunction."""
        field = FieldSpec(p, s)
        Q = build_quotient(parse_level(level, field), depth)
        certify_cusps(Q, 3)
        G = build_graph_of_groups(Q)
        P = emit_presentation(G)
        one = Polynomial.one(field)
        low = Q.level.modulus
        mover = Matrix2(one, Polynomial.zero(field), low, one)
        for c in Q.classes:
            v = c.representative
            red = reduce_vertex(v)
            assert _polynomial_entries(red.g), v
            assert all(f is None or all(isinstance(x, int) for x in f)
                       for f in red.word), v
            assert all(_polynomial_entries(h) for h in c.stab.generators())
            if c.stab.order <= 1000:
                assert all(_polynomial_entries(h)
                           for h in c.stab.materialize())
            w = act(mover, v)
            h = orbit_witness(Q.level, red, reduce_vertex(w))
            assert h is not None and _polynomial_entries(h), v
        for cid in G.finite_classes:
            assert all(_polynomial_entries(h)
                       for h in G.vertex_stabs[cid].materialize())
        for e in G.edges:
            assert _polynomial_entries(e.g_y)
            stab = G.vertex_stabs[e.src]
            assert all(_polynomial_entries(stab.element(fr)) for fr in (
                e.edge_group.frames() if e.edge_group else ()))
        assert P.generators
        assert all(_polynomial_entries(m) for _, m in P.generators)


def _early_exit_search(target, gens, names, stab, products):
    """A fresh breadth-first search from the identity that stops at
    `target`, counting its frame products in `products`."""
    from itertools import groupby
    ident = stab.identity_frame()
    if target == ident:
        return ()
    parents = {ident: None}
    frontier = [ident]
    while frontier:
        nxt_frontier = []
        for cur in frontier:
            for gi, g in enumerate(gens):
                products.append(1)
                nxt = stab.frame_product(cur, g)
                if nxt in parents:
                    continue
                parents[nxt] = (cur, gi)
                if nxt == target:
                    word = []
                    while parents[nxt] is not None:
                        nxt, gi = parents[nxt]
                        word.append(names[gi])
                    return tuple((nm, len(list(run)))
                                 for nm, run in groupby(reversed(word)))
                nxt_frontier.append(nxt)
        frontier = nxt_frontier
    raise AssertionError("target not in the generated group")


class TestResumableWordSearch:
    @pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1),
                                     (3, 2)])
    def test_words_equal_the_early_exit_search(self, monkeypatch, p, s):
        """On the amalgam levels D = t, depth 8: every word equals the one
        a fresh search stopping at its target finds, and the resumed walks
        make no more frame products than those searches."""
        import btquot.presentation as presentation
        from btquot.hecke import StabDescriptor
        field = FieldSpec(p, s)
        Q = build_quotient(parse_level("t", field), 8)
        certify_cusps(Q, 3)
        G = build_graph_of_groups(Q)
        products = []
        product = StabDescriptor.frame_product

        def counted(self, x, y):
            products.append(1)
            return product(self, x, y)

        word_search, group_walk = (presentation._word_search,
                                   presentation._group_walk)
        searched, walked, fresh, stab_of = [], [0], [], {}

        def walk_recorded(stab, gens, parents):
            stab_of[id(parents)] = stab
            return group_walk(stab, gens, parents)

        def recorded(target, walk, names):
            before = len(products)
            word = word_search(target, walk, names)
            walked[0] += len(products) - before
            stab = stab_of[id(walk[0])]
            searched.append((word, target, stab.generator_frames(), names,
                             stab))
            return word

        monkeypatch.setattr(StabDescriptor, "frame_product", counted)
        monkeypatch.setattr(presentation, "_group_walk", walk_recorded)
        monkeypatch.setattr(presentation, "_word_search", recorded)
        emit_presentation(G)
        # at q = 2 the vertex groups of D = t have no edge words to find
        assert bool(searched) == (field.q > 2)
        for word, target, gens, names, stab in searched:
            assert word == _early_exit_search(target, gens, names, stab,
                                              fresh)
        assert walked[0] <= len(fresh)
        if field.q == 9:
            # the twelve words share four walks
            assert walked[0] < len(fresh)
