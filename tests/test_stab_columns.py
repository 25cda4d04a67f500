"""A build reads each vertex group off the P^1(R/N_D) point of the first
column (a, c) of its reduction (`hecke._Column`), once per column, and a
descriptor keeps the modulus M of its unipotent space until its basis is
read: each class's descriptor equals a fresh `hecke.stabilizer`, its torus
map equals the elimination of the stabilizer system and the witness
system of the pair (col, col), each located vertex has a witness to its
class representative, the columns are counted, and no kernel basis is
built by the build or by certification."""

import itertools

import pytest

import dataclasses

from btquot import hecke
from btquot.algebra import FieldSpec, Polynomial
from btquot.btree import Matrix2, act
from btquot.hecke import (Level, orbit_witness, parse_level, reduce_vertex,
                          stabilizer)
from btquot.quotient import build_quotient, certify_cusps, frame_orbits
from test_hecke import reference_system, torus_blocks


def levels(field, degree):
    """Every level of degree <= `degree` over `field`, D = 0 included."""
    primes = [p for d in range(1, degree + 1)
              for low in itertools.product(range(field.q), repeat=d)
              for p in [Polynomial(field, low + (1,))] if p.is_irreducible()]
    out = []

    def extend(start, left, factors):
        out.append(Level(field, factors))
        for i in range(start, len(primes)):
            for m in range(1, left // primes[i].degree + 1):
                extend(i + 1, left - m * primes[i].degree,
                       factors + [(primes[i], m)])

    extend(0, degree, [])
    return out


ORACLE_LEVELS = ([lv for (p, s), degree in (((2, 1), 3), ((3, 1), 3),
                                           ((2, 2), 2), ((5, 1), 2))
                  for lv in levels(FieldSpec(p, s), degree)]
                 + [parse_level("t^2", FieldSpec(3, 2))])

# the census levels of the benchmark, with their depths and column solves
CENSUS_COLUMNS = [(2, "t", 10, 2), (2, "t;t+1", 12, 5), (2, "t^3", 12, 8),
                  (2, "t^2+t+1", 12, 3), (3, "t^3", 12, 10),
                  (3, "t^2", 10, 4)]


@pytest.fixture
def solves(monkeypatch):
    """Counts of the columns (`hecke._Column`) and of the kernel bases
    built."""
    out = {"columns": 0, "kernel bases": 0}
    init, basis = hecke._Column.__init__, hecke._kernel_basis

    def column(self, level, col):
        out["columns"] += 1
        init(self, level, col)

    def kernel_basis(field, m, k, n):
        out["kernel bases"] += 1
        return basis(field, m, k, n)

    monkeypatch.setattr(hecke._Column, "__init__", column)
    monkeypatch.setattr(hecke, "_kernel_basis", kernel_basis)
    return out


@pytest.mark.parametrize("level", ORACLE_LEVELS,
                         ids=["q%d-%s" % (lv.field.q, lv)
                              for lv in ORACLE_LEVELS])
def test_class_descriptors_equal_fresh_stabilizers(level):
    """Each class's descriptor, read off the build's shared column, equals
    `stabilizer` of its representative, in its order, unipotent dimension
    and neighbor orbits, all read from M, and in its kernel basis, built
    from M."""
    Q = build_quotient(level, 2 * level.degree + 4)
    assert len(Q.columns) <= 1 + sum(len(c.strands) for c in Q.classes)
    for c in Q.classes:
        stab, fresh = c.stab, stabilizer(c.representative, level)
        summary = (stab.order, stab.unipotent_dim(), frame_orbits(stab))
        assert summary == (fresh.order, fresh.unipotent_dim(),
                           frame_orbits(fresh)), c.id
        assert (stab.reduction, stab.torus, stab.kernel) == \
            (fresh.reduction, fresh.torus, fresh.kernel), c.id
        col = c.reduction.rows[::2]
        assert stab.torus[3] == hecke._kernel_basis(
            level.field, hecke._witness_torus(level, col, col, c.level_n)[3],
            c.level_n, c.level_n), c.id


# the oracle levels at the depth of their builds, and one deep level
ORACLE_BUILDS = pytest.mark.parametrize("level,depth", [
    (lv, 2 * lv.degree + 4) for lv in ORACLE_LEVELS]
    + [(parse_level("t^3;(t+1)^3", FieldSpec(3)), 10)],
    ids=["q%d-%s" % (lv.field.q, lv) for lv in ORACLE_LEVELS] + ["deep"])


@ORACLE_BUILDS
def test_vertex_groups_equal_the_elimination(level, depth):
    """The torus map a column reads off its point
    (`hecke._Column.stabilizer`) equals the one the elimination of the
    stabilizer system gives (`torus_blocks`), on every class: mu and the
    kernel, and na and nc for all pairs, where the scalar line stores
    na = nc = 0 and the reference's sum na + nc vanishes.  On every column
    of the build it also equals, at each level n <= depth + 1, the torus
    map of the witness system of the column and an equal but distinct
    tuple (`hecke._witness_torus`), which solves the system of u = c^2 by
    its own Euclid.  At q = 2 a descriptor stores the scalar line as
    mu = None (`StabDescriptor`)."""
    Q, field = build_quotient(level, depth), level.field
    for c in Q.classes:
        red, n, stab = c.reduction, c.level_n, c.stab
        mu, na, nc, kernel = torus_blocks(*reference_system(level, red, red),
                                          field)
        assert stab.torus[3] == kernel, c.id
        assert stab.torus_map[0] == (None if field.q == 2 else mu), c.id
        if mu is None:
            assert stab.torus_map[1:] == (na, nc), c.id
        else:
            assert mu == 1 and not any(stab.torus_map[1] + stab.torus_map[2])
            assert not any(field.add(x, y) for x, y in zip(na, nc)), c.id
    # the torus map reads only the level of the reduction it is given
    base = Q.classes[0]
    for col, column in Q.columns.items():
        for n in range(depth + 2):
            stab = column.stabilizer(base.representative, dataclasses.replace(
                base.reduction, level_n=n))
            mu, na, nc, m = hecke._witness_torus(level, col, (col[0], col[1]),
                                                 n)
            assert stab.torus_map + (stab.m,) == \
                (None if field.q == 2 else mu, na, nc, m), (col, n)


def locate(Q, v):
    """(class id, h in H_D with act(h, v) = the representative) for the
    class of the orbit id of v in the build Q, or None: the identity for
    the representative, else an `orbit_witness`.  The build's own lookup
    reads the same id (`QuotientGraph._classify`)."""
    red = reduce_vertex(v)
    col = red.rows[::2]
    column = Q.columns.get(col) or hecke._Column(Q.level, col)
    cid = Q.ids.get(column.orbit_id(red.level_n))
    if cid is None:
        return None
    cls = Q.classes[cid]
    if v == cls.representative:
        return cid, Matrix2.identity(Q.field)
    return cid, orbit_witness(Q.level, red, cls.reduction)


@ORACLE_BUILDS
def test_located_vertices_have_witnesses(level, depth):
    """The orbit id puts each strand end in the class of its
    representative: `orbit_witness` finds an h in H_D that moves the end
    onto the representative.  The deep level has 234 classes at depth 10,
    and an id whose parts are not padded to fixed lengths merges two."""
    Q = build_quotient(level, depth)
    for c in Q.classes:
        for st in c.strands:
            rep = Q.classes[st.dst].representative
            h = orbit_witness(level, reduce_vertex(st.end),
                              reduce_vertex(rep))
            assert h is not None and act(h, st.end) == rep, (c.id, st.dst)


@pytest.mark.parametrize("q,lvl,depth,columns", CENSUS_COLUMNS)
def test_census_column_solves(solves, q, lvl, depth, columns):
    """One solve per distinct column, none repeated by a second build from
    the same `Level`, and no kernel basis built by the build or by
    certification."""
    level = parse_level(lvl, FieldSpec(q))
    for _ in range(2):
        solves["columns"] = 0
        Q = build_quotient(level, depth)
        certify_cusps(Q)
        assert solves["columns"] == len(Q.columns) == columns
        assert 1 + sum(len(c.strands) for c in Q.classes) > columns
    assert solves["kernel bases"] == 0
