"""Count of `Matrix2` constructions in a build and its certification: the
build reads each vertex in the frame of its reduction, whose g stays
packed rows (`hecke.ReductionResult`) and whose residue matrix labels the
neighbors, and finds the class of a vertex by its orbit id, so it forms no
matrix."""

from btquot.btree import Matrix2
from btquot.hecke import parse_level
from btquot.quotient import build_quotient, certify_cusps
from btquot.selftest import _field

# the census levels of the benchmark
CENSUS = [(2, "t", 10), (2, "t;t+1", 12), (2, "t^3", 12), (2, "t^2+t+1", 12),
          (3, "t^3", 12), (3, "t^2", 10)]


def test_census_pass_makes_no_matrix(monkeypatch):
    """One census pass, build plus certification, makes no `Matrix2`."""
    made = []
    init = Matrix2.__init__

    def counted_init(self, *entries):
        made.append(1)
        init(self, *entries)

    monkeypatch.setattr(Matrix2, "__init__", counted_init)
    for q, lvl, depth in CENSUS:
        certify_cusps(build_quotient(parse_level(lvl, _field(q)), depth), 3)
    assert made == []
