"""Call counts of `StabDescriptor.materialize`: the graph of groups and the
presentation work on frame data, so neither forms a whole vertex group."""

import pytest

from btquot.hecke import StabDescriptor, parse_level
from btquot.presentation import build_graph_of_groups, emit_presentation
from btquot.quotient import build_quotient, certify_cusps
from btquot.selftest import _field


@pytest.mark.parametrize("q,lvl,depth", [(9, "t", 8), (2, "t^3", 12)])
def test_graph_of_groups_and_presentation_materialize_nothing(
        monkeypatch, q, lvl, depth):
    calls = []
    materialize = StabDescriptor.materialize

    def counted(self, cap=100000):
        calls.append(self)
        return materialize(self, cap)

    monkeypatch.setattr(StabDescriptor, "materialize", counted)
    Q = build_quotient(parse_level(lvl, _field(q)), depth)
    certify_cusps(Q, 3)
    emit_presentation(build_graph_of_groups(Q))
    assert calls == []
    # the count is live
    Q.classes[0].stab.materialize()
    assert len(calls) == 1
