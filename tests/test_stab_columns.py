"""A build reads each vertex group off the P^1(R/N_D) point of the first
column (a, c) of its reduction (`hecke._Column`), once per column, and a
descriptor keeps the modulus M of its unipotent space until its basis is
read: each class's descriptor equals a fresh `hecke.stabilizer`, its torus
map equals the elimination of the stabilizer system, each located vertex
has a witness to its class representative, the columns are counted, and
no kernel basis is built by the build or by certification."""

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
    from M; `test_vertex_groups_equal_the_elimination` checks that basis
    against the elimination."""
    Q = build_quotient(level, 2 * level.degree + 4)
    assert len(Q.columns) <= 1 + sum(len(c.strands) for c in Q.classes)
    for c in Q.classes:
        stab, fresh = c.stab, stabilizer(c.representative, level)
        summary = (stab.order, stab.unipotent_dim(), frame_orbits(stab))
        assert summary == (fresh.order, fresh.unipotent_dim(),
                           frame_orbits(fresh)), c.id
        assert (stab.reduction, stab.torus, stab.kernel) == \
            (fresh.reduction, fresh.torus, fresh.kernel), c.id


# the oracle levels at the depth of their builds, and one deep level
ORACLE_BUILDS = pytest.mark.parametrize("level,depth", [
    (lv, 2 * lv.degree + 4) for lv in ORACLE_LEVELS]
    + [(parse_level("t^3;(t+1)^3", FieldSpec(3)), 10)],
    ids=["q%d-%s" % (lv.field.q, lv) for lv in ORACLE_LEVELS] + ["deep"])


@ORACLE_BUILDS
def test_vertex_groups_equal_the_elimination(level, depth):
    """The torus map a column reads off its point and itself
    (`hecke._Column.stabilizer`) equals the one the elimination of the
    stabilizer system gives (`torus_blocks`), on every class: mu and the
    kernel, and na and nc for all pairs, and on the scalar line, where
    only na + nc is read, na + nc and the reference's sum vanish entry by
    entry.  The same holds on every column of the build at each level
    n <= depth + 1, as the torus map reads only the level of the reduction
    it is given.  At q = 2 a descriptor stores the scalar line as mu = None
    (`StabDescriptor`)."""
    Q, field = build_quotient(level, depth), level.field
    base = Q.classes[0]
    reductions = [(c.id, c.reduction, c.stab) for c in Q.classes] + [
        ((col, n), red, column.stabilizer(base.representative, red))
        for col, column in Q.columns.items() for n in range(depth + 2)
        for red in [dataclasses.replace(base.reduction, level_n=n,
                                        rows=(col[0], (), col[1], ()))]]
    for key, red, stab in reductions:
        mu, na, nc, kernel = torus_blocks(*reference_system(level, red, red),
                                          field)
        assert stab.torus[3] == kernel, key
        assert stab.torus_map[0] == (None if field.q == 2 else mu), key
        if mu is None:
            assert stab.torus_map[1:] == (na, nc), key
        else:
            assert mu == 1 and not any(
                field.add(x, y) for x, y in zip(*stab.torus_map[1:])), key
            assert not any(field.add(x, y) for x, y in zip(na, nc)), key


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


def p1_points(level):
    """|P^1(R/N_D)|, counted point by point, prime power by prime power
    (R/N_D is their product): the pairs (X, Y) mod P^k that P does not
    both divide, over the units X mod P^k."""
    field, out = level.field, 1
    for poly, mult in level.primes:
        size = poly.degree * mult
        residues = [Polynomial(field, cs) for cs in
                    itertools.product(range(field.q), repeat=size)]
        unit = [bool(x % poly) for x in residues]
        pairs = sum(x or y for x in unit for y in unit)
        out *= pairs // sum(unit)
    return out


def orbit_masses(Q):
    """{n: sum over the classes c over v_n of |G_n|/|Stab(c)|}, with
    G_0 = GL2(F_q) and G_n = Stab(v_n) of order (q-1)^2 q^(n+1); each
    quotient must be an integer."""
    q, mass = Q.field.q, {}
    for c in Q.classes:
        n = c.level_n
        group = (q * q - 1) * (q * q - q) if n == 0 else \
            (q - 1) ** 2 * q ** (n + 1)
        assert group % c.stab.order == 0, c.id
        mass[n] = mass.get(n, 0) + group // c.stab.order
    return mass


@ORACLE_BUILDS
def test_orbit_stabilizer_mass(level, depth):
    """The classes over v_n are the Stab(v_n)-orbits on P^1(R/N_D), so on
    each level their orbit sizes sum to at most |P^1(R/N_D)|, and to
    exactly that on the levels n <= depth - 2 deg N + 2, where every class
    is built (`quotient._check_mass` raises on the bound)."""
    mass, points = orbit_masses(build_quotient(level, depth)), \
        p1_points(level)
    assert all(m <= points for m in mass.values()), (mass, points)
    complete = [n for n in mass if n <= depth - 2 * level.degree + 2]
    assert complete and all(mass[n] == points for n in complete), \
        (mass, points)


@pytest.mark.parametrize("forge", [lambda order, q: order + 1,
                                   lambda order, q: max(1, order // q)],
                         ids=["non-integral", "above the bound"])
def test_mass_contradiction_exits_3(monkeypatch, capsys, forge):
    """A stabilizer order that leaves an orbit size non-integral, or a
    level's mass above |P^1(R/N_D)|, is an internal contradiction: the
    build raises and the command exits 3."""
    from btquot.cli import main
    stabilizer_of = hecke._Column.stabilizer

    def forged_order(column, v, red):
        stab = stabilizer_of(column, v, red)
        stab._order = forge(stab.order, stab.field.q)
        return stab

    monkeypatch.setattr(hecke._Column, "stabilizer", forged_order)
    assert main(["quotient", "--p", "3", "--level", "t", "--depth",
                 "6"]) == 3
    assert "do not fit in the 4 points of P^1(R/N_D)" in \
        capsys.readouterr().err


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
