"""Call counts of `StabDescriptor.materialize`, `StabDescriptor.frames` and
`StabDescriptor.torus_pairs`: the graph of groups and the presentation work
on frame data and on edge groups cut from the solution spaces, so none
forms or lists a whole vertex or edge group, and from the quotient build
on the torus is read as its linear map, never pair by pair."""

import pytest

from btquot.hecke import StabDescriptor, parse_level
from btquot.presentation import build_graph_of_groups, emit_presentation
from btquot.quotient import build_quotient, certify_cusps
from btquot.selftest import _field


@pytest.mark.parametrize("q,lvl,depth", [(9, "t", 8), (2, "t^3", 12),
                                         (3, "t^2;t+1", 10), (3, "0", 8)])
def test_graph_of_groups_and_presentation_materialize_nothing(
        monkeypatch, q, lvl, depth):
    calls, listed, paired = [], [], []
    materialize, frames = StabDescriptor.materialize, StabDescriptor.frames
    torus_pairs = StabDescriptor.torus_pairs

    def counted(self):
        calls.append(self)
        return materialize(self)

    def counted_frames(self):
        listed.append(self)
        return frames(self)

    def counted_pairs(self):
        paired.append(self)
        return torus_pairs(self)

    monkeypatch.setattr(StabDescriptor, "materialize", counted)
    monkeypatch.setattr(StabDescriptor, "frames", counted_frames)
    monkeypatch.setattr(StabDescriptor, "torus_pairs", counted_pairs)
    Q = build_quotient(parse_level(lvl, _field(q)), depth)
    certify_cusps(Q, 3)
    emit_presentation(build_graph_of_groups(Q))
    assert calls == [] and listed == [] and paired == []
    # the counts are live
    Q.classes[0].stab.materialize()
    assert len(calls) == 1 and len(listed) == 1 and len(paired) == 1
