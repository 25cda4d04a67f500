"""An oracle for the points of P^1(R/N_D), R = F_q[t], with no package
orbit code: the unimodular pairs (X, Y) mod N_D are enumerated with F_q
arithmetic alone and joined, by union-find, under the right action
(X, Y) -> (X, Y) s of generators s of Stab(v_n) and under scaling by
(R/N_D)*.  The parts are the Stab(v_n)-orbits on P^1(R/N_D).  The orbit ids
of `points.Point` must draw the same partition, the vertex groups of a
build must have the orders |Stab(v_n)|/|orbit| of those orbits, and the
count of the points must be the product formula of the mass check."""

import collections
import itertools

import pytest

from btquot.algebra import FieldSpec
from btquot.hecke import parse_level
from btquot.points import Point
from btquot.quotient import build_quotient

LEVELS = [(2, 1, "t"), (2, 1, "t^2"), (2, 1, "t;t+1"), (2, 1, "t^3"),
          (2, 1, "t^2;t+1"), (2, 1, "t^2+t+1"), (3, 1, "t"), (3, 1, "t^2"),
          (3, 1, "t;t+1"), (3, 1, "t^2+1"), (3, 1, "t^3"), (5, 1, "t"),
          (5, 1, "t^2"), (2, 2, "t^2")]


def remainder(field, x, m):
    """x mod the monic m, packed ints lowest first, as deg m entries."""
    x, dm = list(x), len(m) - 1
    for i in range(len(x) - 1, dm - 1, -1):
        c = x[i]
        for j in range(dm + 1):
            x[i - dm + j] = field.add(x[i - dm + j],
                                      field.neg(field.mul(c, m[j])))
    return tuple(x[:dm]) + (0,) * (dm - len(x))


class Residues:
    """R/N_D as the tuples of its deg N_D coefficients, with addition and
    multiplication tables on their indices."""

    def __init__(self, level):
        field, modulus = level.field, level.modulus.packed_coeffs
        self.field, self.degree = field, len(modulus) - 1
        self.elems = list(itertools.product(range(field.q),
                                            repeat=self.degree))
        index = {x: i for i, x in enumerate(self.elems)}

        def product(x, y):
            out = [0] * (len(x) + len(y))
            for i, a in enumerate(x):
                for j, b in enumerate(y):
                    out[i + j] = field.add(out[i + j], field.mul(a, b))
            return index[remainder(field, out, modulus)]

        self.add = [[index[tuple(map(field.add, x, y))] for y in self.elems]
                    for x in self.elems]
        self.mul = [[product(x, y) for y in self.elems] for x in self.elems]
        self.index = index
        primes = [p.packed_coeffs for p, _ in level.primes]
        # which primes of N_D divide each residue
        self.divisors = [frozenset(i for i, p in enumerate(primes)
                                   if not any(remainder(field, x, p)))
                         for x in self.elems]

    def element(self, coeffs):
        coeffs = tuple(coeffs)
        return self.index[coeffs + (0,) * (self.degree - len(coeffs))]

    def pairs(self):
        """The unimodular pairs: no prime of N_D divides both entries."""
        return [(x, y) for x in range(len(self.elems))
                for y in range(len(self.elems))
                if not self.divisors[x] & self.divisors[y]]

    def units(self):
        return [u for u in range(len(self.elems)) if not self.divisors[u]]


def orbits(ring, pairs, n):
    """{pair: root} for the orbits of Stab(v_n) and (R/N_D)* on the pairs.
    Generators of Stab(v_n), acting on the right: diag(a, 1) and
    diag(1, a), [[1, c t^j], [0, 1]] for j <= n (t^j = 0 once
    j >= deg N_D), and at n = 0 the swap [[0, 1], [1, 0]]."""
    add, mul, q = ring.add, ring.mul, ring.field.q
    consts = [ring.element((c,)) for c in range(1, q)]
    moves = [lambda x, y, a=a: (mul[a][x], y) for a in consts]
    moves += [lambda x, y, a=a: (x, mul[a][y]) for a in consts]
    for j in range(min(n, ring.degree - 1) + 1):
        tj = ring.element((0,) * j + (1,))
        moves += [lambda x, y, b=mul[c][tj]: (x, add[mul[b][x]][y])
                  for c in consts]
    if n == 0:
        moves.append(lambda x, y: (y, x))
    moves += [lambda x, y, u=u: (mul[u][x], mul[u][y])
              for u in ring.units()]
    parent = {pair: pair for pair in pairs}

    def find(pair):
        while parent[pair] != pair:
            parent[pair] = parent[parent[pair]]
            pair = parent[pair]
        return pair

    for pair in pairs:
        for move in moves:
            a, b = find(pair), find(move(*pair))
            if a != b:
                parent[a] = b
    return {pair: find(pair) for pair in pairs}


def stab_order(q, n):
    """|Stab(v_n)|: GL2(F_q) at n = 0, else the [[alpha, b], [0, beta]]
    with deg b <= n."""
    return (q * q - 1) * (q * q - q) if n == 0 else (q - 1) ** 2 * q ** (n + 1)


def column(ring, x, y):
    """The packed first column (a, c) = (Y, -X) of the point (X : Y),
    trailing zeros dropped."""
    def packed(coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return tuple(coeffs)
    field = ring.field
    return (packed(ring.elems[y]),
            packed(map(field.neg, ring.elems[x])))


@pytest.fixture(scope="module", params=LEVELS,
                ids=["q%d-%s" % (p ** s, lvl) for p, s, lvl in LEVELS])
def case(request):
    p, s, text = request.param
    level = parse_level(text, FieldSpec(p, s))
    ring = Residues(level)
    return level, ring, ring.pairs()


def test_orbit_ids_draw_the_oracle_partition(case):
    """Two pairs lie in one orbit iff their points have one orbit id, at
    every level n <= deg N_D + 2."""
    level, ring, pairs = case
    points = {pair: Point(level, column(ring, *pair)) for pair in pairs}
    for n in range(ring.degree + 3):
        roots = orbits(ring, pairs, n)
        joined = {(roots[pair], points[pair].orbit_id(n)) for pair in pairs}
        assert len(joined) == len(set(roots.values())) == \
            len({key for _, key in joined}), n


def test_vertex_groups_have_the_oracle_orders(case):
    """The sorted stabilizer orders of the classes over v_n are
    |Stab(v_n)|/|orbit| over the oracle's orbits on a level whose mass
    reaches |P^1(R/N_D)|, and a sub-multiset of those on the others."""
    level, ring, pairs = case
    q, units = level.field.q, len(ring.units())
    Q = build_quotient(level, 2 * level.degree + 4)
    by_level = collections.defaultdict(list)
    for c in Q.classes:
        by_level[c.level_n].append(c.stab.order)
    cached, full = {}, 0
    for n, orders in sorted(by_level.items()):
        key = 0 if n == 0 else min(n, ring.degree)
        if key not in cached:
            cached[key] = orbits(ring, pairs, n)
        sizes = collections.Counter(cached[key].values()).values()
        expected = sorted(stab_order(q, n) * units // size for size in sizes)
        mass = sum(stab_order(q, n) // order for order in orders)
        if mass == len(pairs) // units:
            assert sorted(orders) == expected, n
            full += 1
        else:
            left = collections.Counter(expected)
            left.subtract(orders)
            assert min(left.values()) >= 0, n
    assert full >= 2


def test_point_count_is_the_mass_formula(case):
    """|P^1(R/N_D)| = prod q^(d_i (n_i - 1)) (q^d_i + 1), the bound
    `quotient._check_mass` reads."""
    level, ring, pairs = case
    q, units = level.field.q, len(ring.units())
    formula = 1
    for poly, mult in level.primes:
        formula *= q ** (poly.degree * (mult - 1)) * (q ** poly.degree + 1)
    assert len(pairs) % units == 0 and len(pairs) // units == formula
