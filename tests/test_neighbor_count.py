"""Neighbor vertices built by the quotient build and the graph of groups:
`BallVertex.neighbors` is never called, and `_expand` builds one neighbor
vertex per stabilizer orbit, the orbit's representative.  The graph of
groups takes its lifts, vertex groups and strand ends from the build, the
vertex objects the build reduced, so it searches, reduces and multiplies
nothing."""

import pytest

from btquot.algebra import FieldSpec
from btquot.btree import BallVertex
from btquot.hecke import parse_level
from btquot.presentation import build_graph_of_groups
from btquot.quotient import build_quotient, certify_cusps


@pytest.fixture
def tally(monkeypatch):
    """Counts of `BallVertex.neighbors` and `BallVertex.neighbor` calls
    and of vertices constructed."""
    out = {"neighbors": 0, "neighbor": 0, "vertices": 0}
    neighbors, neighbor, init = (BallVertex.neighbors, BallVertex.neighbor,
                                 BallVertex.__init__)

    def counted_neighbors(self):
        out["neighbors"] += 1
        return neighbors(self)

    def counted_neighbor(self, i):
        out["neighbor"] += 1
        return neighbor(self, i)

    def counted_init(self, *args):
        out["vertices"] += 1
        init(self, *args)

    monkeypatch.setattr(BallVertex, "neighbors", counted_neighbors)
    monkeypatch.setattr(BallVertex, "neighbor", counted_neighbor)
    monkeypatch.setattr(BallVertex, "__init__", counted_init)
    return out


@pytest.mark.parametrize("p,s,lvl,depth", [(2, 1, "t;t+1", 12),
                                           (3, 1, "t^3", 8),
                                           (3, 2, "t", 8),
                                           (3, 1, "t^2;t+1", 8),
                                           (3, 1, "0", 6)])
def test_one_neighbor_per_orbit(tally, p, s, lvl, depth):
    """The build constructs the base vertex and one neighbor per strand
    (orbit), and neither it nor the graph of groups lists the q+1
    neighbors of a vertex."""
    Q = build_quotient(parse_level(lvl, FieldSpec(p, s)), depth)
    strands = sum(len(c.strands) for c in Q.classes)
    assert tally["neighbor"] == strands
    assert tally["vertices"] == 1 + strands
    assert certify_cusps(Q, 3)
    build_graph_of_groups(Q)
    assert tally["neighbors"] == 0


def test_graph_of_groups_reuses_the_build_reductions(monkeypatch):
    """The lifts and strand ends the graph of groups takes from the
    quotient are the vertex objects the build located, which keep their
    reductions: at q=3, D=t^3, depth 10 Nagao's kernel runs no more."""
    from btquot import hecke
    Q = build_quotient(parse_level("t^3", FieldSpec(3)), 10)
    assert certify_cusps(Q, 3)
    runs = []
    kernel = hecke._nagao_reduction

    def counted(v):
        runs.append(v)
        return kernel(v)

    monkeypatch.setattr(hecke, "_nagao_reduction", counted)
    G = build_graph_of_groups(Q)
    assert runs == []
    assert all(G.lifts[c.id] is c.representative for c in Q.classes)
    assert all(e.lift_dst is Q.classes[e.dst].representative or any(
        e.lift_dst is st.end for st in Q.classes[e.src].strands)
        for e in G.edges)


def test_graph_of_groups_searches_and_reduces_nothing(monkeypatch):
    """The graph of groups reads its tree, lifts and strands off the build:
    at q=3, D=t^3 (t+1)^3, depth 10, with strands off the tree, it makes no
    `QuotientGraph._classify` or `frame_orbits` call, runs Nagao's
    kernel on no vertex and multiplies no matrices."""
    from btquot import hecke, quotient
    from btquot.btree import Matrix2
    Q = build_quotient(parse_level("t^3;(t+1)^3", FieldSpec(3)), 10)
    assert certify_cusps(Q, 3)
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for owner, name in ((quotient.QuotientGraph, "_classify"),
                        (quotient, "frame_orbits"),
                        (hecke, "_nagao_reduction"),
                        (Matrix2, "__matmul__")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    G = build_graph_of_groups(Q)
    assert any(not e.in_tree for e in G.edges)
    assert calls == []


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_identity_witnesses_make_no_product(monkeypatch, p, s):
    """Every lift is its class representative and every vertex group its
    class's own stabilizer: on the amalgam levels D = t, depth 8, the graph
    of groups multiplies no matrices."""
    from btquot.btree import Matrix2
    Q = build_quotient(parse_level("t", FieldSpec(p, s)), 8)
    assert certify_cusps(Q, 3)
    products = []
    matmul = Matrix2.__matmul__

    def counted(x, y):
        products.append(1)
        return matmul(x, y)

    monkeypatch.setattr(Matrix2, "__matmul__", counted)
    G = build_graph_of_groups(Q)
    assert products == []
    for c in Q.classes:
        assert G.vertex_stabs[c.id] is c.stab
        assert G.lifts[c.id] is c.representative
