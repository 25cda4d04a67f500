"""Call counts of the solves behind the build's lookup: one column
(`hecke._Column`), with its orbit-id point and its stabilizer system, per
distinct first column of the reductions, one stabilizer descriptor per
class, and no witness solve."""

import pytest

from btquot import hecke, quotient
from btquot.algebra import FieldSpec
from btquot.hecke import parse_level


@pytest.fixture
def tally(monkeypatch):
    """Counts of `reduce_vertex` calls made by the quotient module, of the
    orbit-id columns, of the stabilizer systems (`hecke._Congruence` of a
    pair (col, col)) and of the descriptors built from them, of the
    `orbit_witness` calls, and the first columns of the reductions."""
    out = {"reduce": 0, "points": 0, "systems": 0, "descriptors": 0,
           "witnesses": 0, "firsts": set()}

    def reduce_vertex(v):
        out["reduce"] += 1
        red = reduce(v)
        out["firsts"].add(red.rows[::2])
        return red

    def column(self, level, col):
        out["points"] += 1
        point(self, level, col)

    def system(self, level, dst, src):
        out["systems"] += dst is src
        solve(self, level, dst, src)

    def stabilizer(self, v, red):
        out["descriptors"] += 1
        return describe(self, v, red)

    def orbit_witness(level, red_src, red_dst):
        out["witnesses"] += 1
        return witness(level, red_src, red_dst)

    reduce, witness = quotient.reduce_vertex, quotient.orbit_witness
    point, solve, describe = (hecke._Column.__init__,
                              hecke._Congruence.__init__,
                              hecke._Congruence.stabilizer)
    monkeypatch.setattr(quotient, "reduce_vertex", reduce_vertex)
    monkeypatch.setattr(hecke._Column, "__init__", column)
    monkeypatch.setattr(hecke._Congruence, "__init__", system)
    monkeypatch.setattr(hecke._Congruence, "stabilizer", stabilizer)
    monkeypatch.setattr(quotient, "orbit_witness", orbit_witness)
    return out


@pytest.mark.parametrize("p,s,lvl,depth", [(2, 1, "t;t+1", 12),
                                           (3, 1, "t^3", 8),
                                           (3, 2, "t", 4),
                                           (3, 1, "t^3;(t+1)^3", 14)])
def test_one_descriptor_per_class_and_no_witness(tally, p, s, lvl, depth):
    """One reduction per vertex looked up: the base vertex and each strand
    end but the representative of the class whose expansion found the
    class.  One column and one stabilizer system per distinct first column
    of the reductions, one descriptor per class, and no `orbit_witness`
    call: at q=3, D=t^3 (t+1)^3, depth 14 a search by stabilizer keys made
    13,812 witness solves."""
    Q = quotient.build_quotient(parse_level(lvl, FieldSpec(p, s)), depth)
    looked_up = [st.end for c in Q.classes for st in c.strands
                 if c.parent is None
                 or st.end is not Q.classes[c.parent].representative]
    assert tally["reduce"] == 1 + len(looked_up) >= len(Q.classes)
    assert tally["points"] == tally["systems"] == len(tally["firsts"]) \
        == len(Q.columns) < tally["reduce"]
    assert tally["descriptors"] == len(Q.classes) == len(Q.ids)
    assert tally["witnesses"] == 0
