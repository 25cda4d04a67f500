"""Call counts of the solves behind `QuotientGraph.locate` during a build:
one stabilizer per reduced vertex, and witness solves only between
vertices whose stabilizers have the same class key."""

import pytest

from btquot import quotient
from btquot.algebra import FieldSpec
from btquot.hecke import parse_level


@pytest.fixture
def tally(monkeypatch):
    """Counts of `reduce_vertex` and `stabilizer` calls made by the
    quotient module, and the class keys of both sides of each
    `orbit_witness` call, looked up by the reductions the stabilizers were
    computed from (each vertex keeps its one reduction)."""
    out = {"reduce": 0, "stabilizer": 0, "witness_keys": []}
    keys = {}   # id of a reduction -> class key of its stabilizer

    def reduce_vertex(v):
        out["reduce"] += 1
        return reduce(v)

    def stabilizer(v, level):
        out["stabilizer"] += 1
        stab = stab_of(v, level)
        keys[id(reduce(v))] = quotient.class_key(stab)
        return stab

    def orbit_witness(level, red_src, red_dst):
        out["witness_keys"].append((keys.get(id(red_src)),
                                    keys.get(id(red_dst))))
        return witness(level, red_src, red_dst)

    reduce, stab_of, witness = (quotient.reduce_vertex, quotient.stabilizer,
                                quotient.orbit_witness)
    monkeypatch.setattr(quotient, "reduce_vertex", reduce_vertex)
    monkeypatch.setattr(quotient, "stabilizer", stabilizer)
    monkeypatch.setattr(quotient, "orbit_witness", orbit_witness)
    return out


@pytest.mark.parametrize("p,s,lvl,depth", [(2, 1, "t;t+1", 12),
                                           (3, 1, "t^3", 8),
                                           (3, 2, "t", 4)])
def test_one_stabilizer_per_vertex_and_keyed_witnesses(tally, p, s, lvl,
                                                       depth):
    Q = quotient.build_quotient(parse_level(lvl, FieldSpec(p, s)), depth)
    assert tally["stabilizer"] == tally["reduce"] >= len(Q.classes)
    assert all(src is not None and src == dst
               for src, dst in tally["witness_keys"])
