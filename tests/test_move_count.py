"""Call counts of `BallVertex.moved`: the quotient build and the graph of
groups label every tree neighbor from one residue matrix per frame, so
neither moves a ball."""

import pytest

from btquot.btree import BallVertex, Matrix2
from btquot.hecke import parse_level
from btquot.presentation import build_graph_of_groups
from btquot.quotient import build_quotient, certify_cusps
from btquot.selftest import _field


@pytest.mark.parametrize("q,lvl,depth", [(2, "t^3", 12), (3, "t^3", 10),
                                         (9, "t", 8), (3, "0", 8)])
def test_build_and_graph_of_groups_move_no_ball(monkeypatch, q, lvl, depth):
    calls = []
    moved = BallVertex.moved

    def counted(self, g):
        calls.append(g)
        return moved(self, g)

    monkeypatch.setattr(BallVertex, "moved", counted)
    field = _field(q)
    Q = build_quotient(parse_level(lvl, field), depth)
    certify_cusps(Q, 3)
    build_graph_of_groups(Q)
    assert calls == []
    # the count is live
    BallVertex.base(field).moved(Matrix2.identity(field))
    assert len(calls) == 1
