"""Call counts of `StabDescriptor.materialize` and `StabDescriptor.frames`:
the graph of groups and the presentation work on frame data and on edge
groups cut from the solution spaces, so neither forms or lists a whole
vertex or edge group."""

import pytest

from btquot.hecke import StabDescriptor, parse_level
from btquot.presentation import build_graph_of_groups, emit_presentation
from btquot.quotient import build_quotient, certify_cusps
from btquot.selftest import _field


@pytest.mark.parametrize("q,lvl,depth", [(9, "t", 8), (2, "t^3", 12),
                                         (3, "t^2;t+1", 10), (3, "0", 8)])
def test_graph_of_groups_and_presentation_materialize_nothing(
        monkeypatch, q, lvl, depth):
    calls, listed = [], []
    materialize, frames = StabDescriptor.materialize, StabDescriptor.frames

    def counted(self, cap=100000):
        calls.append(self)
        return materialize(self, cap)

    def counted_frames(self):
        listed.append(self)
        return frames(self)

    monkeypatch.setattr(StabDescriptor, "materialize", counted)
    monkeypatch.setattr(StabDescriptor, "frames", counted_frames)
    Q = build_quotient(parse_level(lvl, _field(q)), depth)
    certify_cusps(Q, 3)
    emit_presentation(build_graph_of_groups(Q))
    assert calls == [] and listed == []
    # the counts are live
    Q.classes[0].stab.materialize()
    assert len(calls) == 1 and len(listed) == 1
