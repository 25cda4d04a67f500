"""Count of `Matrix2` constructions in a build and its certification, and
in a graph of groups and its presentation.  The build reads each vertex in
the frame of its reduction, whose g stays packed rows
(`hecke.ReductionResult`) and whose residue matrix labels the neighbors,
and finds the class of a vertex by its orbit id, so it forms no matrix.
The presentation checks its relations, edge images and witnesses on
packed rows, so it forms only the generators it prints, and it inverts
each distinct matrix once, but for reductions that share one g."""

import pytest

from btquot import hecke, presentation
from btquot.btree import Matrix2, _rows_inverse
from btquot.hecke import parse_level
from btquot.presentation import build_graph_of_groups, emit_presentation
from btquot.quotient import build_quotient, certify_cusps
from btquot.selftest import _field

# the census levels of the benchmark
CENSUS = [(2, "t", 10), (2, "t;t+1", 12), (2, "t^3", 12), (2, "t^2+t+1", 12),
          (3, "t^3", 12), (3, "t^2", 10)]


# the fields of the amalgam workload, each at D = t, depth 8
AMALGAM = [2, 3, 4, 5, 9]


@pytest.fixture
def made(monkeypatch):
    """The list that gets one entry per `Matrix2` constructed."""
    out = []
    init = Matrix2.__init__

    def counted_init(self, *entries):
        out.append(1)
        init(self, *entries)

    monkeypatch.setattr(Matrix2, "__init__", counted_init)
    return out


def test_census_pass_makes_no_matrix(made):
    """One census pass, build plus certification, makes no `Matrix2`."""
    for q, lvl, depth in CENSUS:
        certify_cusps(build_quotient(parse_level(lvl, _field(q)), depth), 3)
    assert made == []


def test_amalgam_pass_makes_only_the_printed_generators(made):
    """One amalgam pass, graph of groups plus presentation, makes one
    `Matrix2` per printed generator, 26 in all, and one identity per
    graph, the g_y of all its tree edges; it made 242."""
    graphs = []
    for q in AMALGAM:
        Q = build_quotient(parse_level("t", _field(q)), 8)
        certify_cusps(Q, 3)
        graphs.append(Q)
    assert made == []
    printed = sum(len(emit_presentation(build_graph_of_groups(Q)).generators)
                  for Q in graphs)
    assert printed == 26
    assert len(made) == printed + len(AMALGAM)


def test_presentation_inverts_each_matrix_once(monkeypatch):
    """One `emit_presentation` at q=3, D=t^3;(t+1)^3, depth 10 makes 343
    `_rows_inverse` calls on 289 distinct matrices; it made 1,145 on 288.
    A g_y or a generator is inverted once per distinct packed rows, and a
    reduction keeps its inverse; the repeats are reductions of distinct
    vertices that share one g, such as the identity of the standard
    ray."""
    Q = build_quotient(parse_level("t^3;(t+1)^3", _field(3)), 10)
    certify_cusps(Q, 3)
    G = build_graph_of_groups(Q)
    calls = []

    def counted(field, x):
        calls.append(tuple(map(tuple, x)))
        return _rows_inverse(field, x)

    for module in (hecke, presentation):
        monkeypatch.setattr(module, "_rows_inverse", counted)
    emit_presentation(G)
    assert (len(calls), len(set(calls))) == (343, 289)
