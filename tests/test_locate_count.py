"""Call counts of the solves behind `QuotientGraph.locate` during a build:
one stabilizer descriptor per reduced vertex, one stabilizer congruence
system per distinct first column of the reductions, and witness solves only
between vertices whose stabilizers have the same class key."""

import pytest

from btquot import hecke, quotient
from btquot.algebra import FieldSpec
from btquot.hecke import parse_level


@pytest.fixture
def tally(monkeypatch):
    """Counts of `reduce_vertex` calls made by the quotient module, of the
    stabilizer systems (`hecke._Congruence` of a pair (col, col)) and of
    the descriptors built from them, the first columns of the reductions,
    and the class keys of both sides of each `orbit_witness` call, looked
    up by the reductions the descriptors were built from (each vertex
    keeps its one reduction)."""
    out = {"reduce": 0, "columns": 0, "descriptors": 0, "firsts": set(),
           "witness_keys": []}
    keys = {}   # id of a reduction -> class key of its stabilizer

    def reduce_vertex(v):
        out["reduce"] += 1
        red = reduce(v)
        out["firsts"].add(red.rows[::2])
        return red

    def column(self, level, dst, src):
        out["columns"] += dst is src
        solve(self, level, dst, src)

    def stabilizer(self, v, red):
        out["descriptors"] += 1
        stab = describe(self, v, red)
        keys[id(red)] = quotient.class_key(stab)
        return stab

    def orbit_witness(level, red_src, red_dst):
        out["witness_keys"].append((keys.get(id(red_src)),
                                    keys.get(id(red_dst))))
        return witness(level, red_src, red_dst)

    reduce, witness = quotient.reduce_vertex, quotient.orbit_witness
    solve, describe = (hecke._Congruence.__init__,
                       hecke._Congruence.stabilizer)
    monkeypatch.setattr(quotient, "reduce_vertex", reduce_vertex)
    monkeypatch.setattr(hecke._Congruence, "__init__", column)
    monkeypatch.setattr(hecke._Congruence, "stabilizer", stabilizer)
    monkeypatch.setattr(quotient, "orbit_witness", orbit_witness)
    return out


@pytest.mark.parametrize("p,s,lvl,depth", [(2, 1, "t;t+1", 12),
                                           (3, 1, "t^3", 8),
                                           (3, 2, "t", 4)])
def test_one_stabilizer_per_vertex_and_keyed_witnesses(tally, p, s, lvl,
                                                       depth):
    """One descriptor per reduced vertex, read off one stabilizer system
    per distinct first column of the reductions."""
    Q = quotient.build_quotient(parse_level(lvl, FieldSpec(p, s)), depth)
    assert tally["descriptors"] == tally["reduce"] >= len(Q.classes)
    assert tally["columns"] == len(tally["firsts"]) == len(Q.columns)
    assert tally["columns"] < tally["descriptors"]
    assert all(src is not None and src == dst
               for src, dst in tally["witness_keys"])
