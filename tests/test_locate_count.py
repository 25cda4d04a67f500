"""Call counts of the solves behind the build's lookup: one column
(`points.Point`), which reads its orbit id and the vertex groups
off it, per distinct first column of the reductions, one stabilizer
descriptor and one torus map per class, and no witness.  The points are
the level's (`hecke.Level.point`), and the graph of groups reads the
witnesses of its strands off those the build made."""

import pytest

from btquot import hecke, points, presentation, quotient
from btquot.algebra import FieldSpec, Polynomial
from btquot.btree import BallVertex, Matrix2, act
from btquot.hecke import parse_level


@pytest.fixture
def tally(monkeypatch):
    """Counts of `reduce_vertex` calls made by the quotient module, of the
    points (`points.Point`), of the descriptors and the torus maps read
    off them (`points.Point.torus`), of the `orbit_witness` calls, and the
    first columns of the reductions."""
    out = {"reduce": 0, "columns": 0, "descriptors": 0, "witnesses": 0,
           "tori": 0, "firsts": set()}

    def reduce_vertex(v):
        out["reduce"] += 1
        red = reduce(v)
        out["firsts"].add(red.rows[::2])
        return red

    def column(self, level, col):
        out["columns"] += 1
        init(self, level, col)

    def stabilizer(point, v, red):
        out["descriptors"] += 1
        return describe(point, v, red)

    def counted(key, fn):
        def wrapper(*args):
            out[key] += 1
            return fn(*args)
        return wrapper

    reduce = quotient.reduce_vertex
    init, describe = points.Point.__init__, quotient.point_stabilizer
    monkeypatch.setattr(quotient, "reduce_vertex", reduce_vertex)
    monkeypatch.setattr(points.Point, "__init__", column)
    monkeypatch.setattr(quotient, "point_stabilizer", stabilizer)
    monkeypatch.setattr(points.Point, "torus",
                        counted("tori", points.Point.torus))
    monkeypatch.setattr(hecke, "orbit_witness",
                        counted("witnesses", hecke.orbit_witness))
    return out


@pytest.mark.parametrize("p,s,lvl,depth", [(2, 1, "t;t+1", 12),
                                           (3, 1, "t^3", 8),
                                           (3, 2, "t", 4),
                                           (3, 1, "t^3;(t+1)^3", 14)])
def test_one_descriptor_per_class_and_no_witness(tally, p, s, lvl, depth):
    """One reduction per vertex looked up: the base vertex and each strand
    end but the representative of the class whose expansion found the
    class.  One column per distinct first column of the reductions, one
    descriptor and one torus map, of its point and itself, per class, and
    no `orbit_witness`: at q=3, D=t^3 (t+1)^3, depth 14 a search by
    stabilizer keys made 13,812 witness solves."""
    Q = quotient.build_quotient(parse_level(lvl, FieldSpec(p, s)), depth)
    looked_up = [st.end for c in Q.classes for st in c.strands
                 if c.parent is None
                 or st.end is not Q.classes[c.parent].representative]
    assert tally["reduce"] == 1 + len(looked_up) >= len(Q.classes)
    assert tally["columns"] == len(tally["firsts"]) == len(Q.level.points) \
        < tally["reduce"]
    assert tally["descriptors"] == tally["tori"] == len(Q.classes) \
        == len(Q.ids)
    assert tally["witnesses"] == 0


def test_graph_of_groups_reads_the_build_columns(tally):
    """The witnesses g_y of the strands off the spanning tree read their
    points off the level, which the build filled (`Level.points`):
    `build_graph_of_groups` makes no `Point`, where at q=3,
    D=t^3 (t+1)^3, depth 10 it made two per witness, 288, every one of them
    already among the build's points.  It calls `orbit_witness` through the
    `hecke` module, where a tracer sees it, once per such strand."""
    Q = quotient.build_quotient(parse_level("t^3;(t+1)^3", FieldSpec(3)), 10)
    quotient.certify_cusps(Q, 3)
    before = tally["columns"]
    G = presentation.build_graph_of_groups(Q)
    off_tree = sum(not e.in_tree for e in G.edges)
    assert off_tree == 144
    assert tally["columns"] == before
    assert tally["witnesses"] == off_tree


def test_stabilizer_then_witness_read_one_point_per_column(tally):
    """A stabilizer of v and then a witness from v to w read v's point off
    the level (`Level.point`): two `Point`s, v's and w's, where a fresh
    point per call made three."""
    field = FieldSpec(3)
    level = parse_level("t^2;t+1", field)
    one, zero, t = (Polynomial.one(field), Polynomial.zero(field),
                    Polynomial.t(field))
    x = Matrix2(one, zero, level.modulus, one) @ Matrix2.translation(t)
    v = BallVertex.standard(field, 2)
    w = act(x, v)
    hecke.stabilizer(v, level)
    assert tally["columns"] == 1
    h = hecke.orbit_equivalent(v, w, level)
    assert act(h, v) == w
    assert tally["columns"] == len(level.points) == 2
