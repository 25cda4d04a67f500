"""Count of `Matrix2` constructions in a build and its certification: the
build reads each vertex in the frame of its reduction, whose g stays
packed rows (`hecke.ReductionResult`) and whose residue matrix labels the
neighbors, so the only matrices it forms are the witnesses of the
searches that find a known class."""

from btquot import quotient
from btquot.btree import Matrix2
from btquot.hecke import parse_level
from btquot.quotient import build_quotient, certify_cusps
from btquot.selftest import _field

# the census levels of the benchmark
CENSUS = [(2, "t", 10), (2, "t;t+1", 12), (2, "t^3", 12), (2, "t^2+t+1", 12),
          (3, "t^3", 12), (3, "t^2", 10)]


def test_census_pass_makes_a_matrix_per_witness_hit(monkeypatch):
    """One census pass, build plus certification, makes 6 `Matrix2`s,
    one per witness that locates a vertex in a known class."""
    made, hits = [], []
    init, witness = Matrix2.__init__, quotient.orbit_witness

    def counted_init(self, *entries):
        made.append(1)
        init(self, *entries)

    def counted_witness(level, red_src, red_dst):
        h = witness(level, red_src, red_dst)
        hits.append(h is not None)
        return h

    monkeypatch.setattr(Matrix2, "__init__", counted_init)
    monkeypatch.setattr(quotient, "orbit_witness", counted_witness)
    for q, lvl, depth in CENSUS:
        certify_cusps(build_quotient(parse_level(lvl, _field(q)), depth), 3)
    assert len(made) == sum(hits) == 6
