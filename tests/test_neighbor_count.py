"""Neighbor vertices built by the quotient build and the graph of groups:
`BallVertex.neighbors` is never called, and `_expand` builds one neighbor
vertex per stabilizer orbit, the orbit's representative."""

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
