"""Quotient graph of the tree under a Hecke congruence group.

The quotient graph owns the one vertex-to-class lookup, a dict from the
orbit id of the P^1(R/N_D) point of a vertex (`points.Point`) to its class
id, which only the build reads.  Cusp certification and the graph of
groups look nothing up: they read the classes and strands the build
recorded.

The build runs a breadth-first search over orbit classes starting from the
class of the base vertex: each class representative contributes its q+1 tree
neighbors, the stabilizer partitions them into orbits (one quotient edge per
orbit), and each orbit representative, unless it is the representative of
the class whose expansion found it, is located by its orbit id or opens a
new class.  The id and the stabilizer read the reduction g only through
its first column (a, c), which Nagao's g keeps along a cusp tail: the
build keeps one `points.Point` per distinct column (`columns`), which
reads the column's point of P^1(R/N_D) once, and reads a stabilizer off
that point only for a new class.  Classes and edges found at depth d
are kept when the search is widened, so the output is a growing snapshot
of the full quotient.  A class records its `parent`, the class whose
expansion found it, and a strand its `end`, the vertex object located for
the orbit representative: the classes joined to their parents form the
discovery tree, which the graph of groups takes as its spanning tree
(`presentation`).

The orbits are taken in the frame of the standard ray.  The reduction g of
v maps it to v_n, so Stab(v) = g^-1 S g acts on the neighbors of v, the
lines of F_q^2, as S on their images under one residue matrix k, which
the reduction reads off its moves (`hecke.ReductionResult.link`),
labelled by P^1(F_q) (`frame_label`).  S fixes a set of labels and is
transitive on the rest (`hecke.StabDescriptor.fixed_labels`), so one
neighbor is built per fixed label and one for the others (`frame_orbits`).

Cusp certification walks inward once from each boundary class whose only
edge has multiplicity 1, under one step rule: the stabilizer of the inner
class fixes the neighbor in the outer class, acts transitively on the q
remaining neighbors, and has 1/q the order of the outer stabilizer.  These
are properties of a class, so they are read from the orbits and stabilizer
orders the build recorded for its representative.  A cusp is certified
after `window` passing steps; the walk goes on while the step holds, and
the classes it passed are stored on the cusp as its maximal tail.
"""

from __future__ import annotations

import json

from .btree import BallVertex
from .hecke import point_stabilizer, ray_stab_order, reduce_vertex
from .points import Point


class QuotientError(ValueError):
    pass


class BoundError(QuotientError):
    pass


class InconsistencyError(QuotientError):
    """Computed data contradict each other: an internal error, not bad
    input."""


SPLIT = "split"
NONSPLIT = "nonsplit"
INDETERMINATE = "indeterminate"


class Strand:
    """One stabilizer orbit on the tree neighbors of a class representative:
    its size, the class it lies in, its end, the orbit's representative
    neighbor as the vertex object the build located, and the index of the
    end in `BallVertex.neighbors`."""

    __slots__ = ("orbit_size", "dst", "end", "index")

    def __init__(self, orbit_size, dst, end, index):
        self.orbit_size, self.dst, self.end, self.index = \
            orbit_size, dst, end, index


class OrbitClass:
    __slots__ = ("id", "representative", "level_n", "layer", "parent",
                 "stab", "reduction", "expanded", "strands")

    def __init__(self, id, representative, level_n, layer, parent, stab,
                 reduction):
        self.id, self.representative = id, representative
        self.level_n, self.layer = level_n, layer
        # id of the class whose expansion found it, or None
        self.parent = parent
        self.stab, self.reduction = stab, reduction
        self.expanded, self.strands = False, []


class QuotientEdge:
    __slots__ = ("src", "dst", "multiplicity")

    def __init__(self, src, dst, multiplicity):
        self.src, self.dst, self.multiplicity = src, dst, multiplicity


class CuspDescriptor:
    __slots__ = ("germ", "certified_depth", "splitness", "stab_tower",
                 "chain", "unipotent_tower", "tail")

    def __init__(self, germ, certified_depth, splitness, stab_tower, chain,
                 unipotent_tower, tail):
        # (inner class id, next class id) of the certified pair
        self.germ = germ
        self.certified_depth, self.splitness = certified_depth, splitness
        # stabilizer orders along the certified ray
        self.stab_tower = stab_tower
        # class ids, innermost certified vertex first
        self.chain = chain
        self.unipotent_tower = unipotent_tower
        # class ids of the maximal tail, innermost first
        self.tail = tail


class QuotientGraph:
    __slots__ = ("field", "level", "depth", "classes", "edges", "cusps",
                 "ids", "columns")

    def __init__(self, level, depth):
        self.field, self.level, self.depth = level.field, level, depth
        self.classes, self.edges, self.cusps = [], [], []
        # orbit id (`points.Point.orbit_id`) -> class id
        self.ids = {}
        # packed first column (a, c) -> its point (`points.Point`)
        self.columns = {}

    def class_by_id(self, cid):
        return self.classes[cid]

    def adjacency(self):
        """class id -> sorted list of (neighbor id, multiplicity)."""
        adj = {c.id: {} for c in self.classes}
        for e in self.edges:
            adj[e.src][e.dst] = e.multiplicity
            adj[e.dst][e.src] = e.multiplicity
        return {cid: sorted(d.items()) for cid, d in adj.items()}

    def _classify(self, v, parent):
        """The class id of v, looked up by its orbit id: a known class, or
        else a new class represented by v, one layer out from the class
        `parent` whose expansion found it (None for the base class), its
        stabilizer read off its column."""
        red = reduce_vertex(v)
        col = red.rows[::2]
        point = self.columns.get(col)
        if point is None:
            point = self.columns[col] = Point(self.level, col)
        key = point.orbit_id(red.level_n)
        cid = self.ids.get(key)
        if cid is None:
            cid = self.ids[key] = len(self.classes)
            layer = 0 if parent is None else self.classes[parent].layer + 1
            self.classes.append(OrbitClass(
                id=cid, representative=v, level_n=red.level_n, layer=layer,
                parent=parent, stab=point_stabilizer(point, v, red),
                reduction=red))
        return cid

    def _expand(self, cls):
        back = cls.layer and self.classes[cls.parent].representative
        for orbit in frame_orbits(cls.stab):
            end = cls.representative.neighbor(orbit[0])
            end, dst = ((back, cls.parent) if end == back
                        else (end, self._classify(end, cls.id)))
            cls.strands.append(Strand(len(orbit), dst, end, orbit[0]))
        cls.expanded = True


# ---------------------------------------------------------------------------
# stabilizer action on the neighbors, in the frame of v_n


def frame_label(stab, i):
    """The label of neighbor i, in `BallVertex.neighbors` order, of the
    vertex of `stab`: for the image k (x : y) of its line, (0 : 1) for the
    parent and (1 : i - 1) for a child, None (v_{n+1}) if x = 0, else y/x."""
    k11, k12, k21, k22 = stab.reduction.link
    f = stab.field
    add, mul = f.add, f.mul
    x, y = (1, i - 1) if i else (0, 1)
    top = add(mul(k11, x), mul(k12, y))
    return mul(add(mul(k21, x), mul(k22, y)), f.inv(top)) if top else None


def frame_orbits(stab):
    """The Stab-orbits on the tree neighbors of the vertex of `stab`, as
    sorted lists of indices in `BallVertex.neighbors` order, by least index:
    the fixed labels (`hecke.StabDescriptor.fixed_labels`), each z the line
    adj(k) (1 : z), or adj(k) (0 : 1) for infinity (the parent (0 : 1) is
    index 0, the child (1 : c) 1 + c; k is nonsingular), and the rest."""
    k11, k12, k21, k22 = stab.reduction.link
    f, q = stab.field, stab.field.q
    add, mul, neg = f.add, f.mul, f.neg
    index = set()
    for z in stab.fixed_labels():
        x, y = ((neg(k12), k11) if z is None else
                (add(k22, neg(mul(k12, z))), add(mul(k11, z), neg(k21))))
        index.add(1 + mul(y, f.inv(x)) if x else 0)
    rest = [i for i in range(q + 1) if i not in index]
    return sorted([[i] for i in index] + ([rest] if rest else []))


def build_quotient(level, depth):
    """Quotient snapshot of radius `depth` around the base vertex class."""
    if depth < 1:
        raise QuotientError("depth must be >= 1")
    Q = QuotientGraph(level, depth)
    Q._classify(BallVertex.base(level.field), None)
    # a new class lies one layer out from the class whose expansion found
    # it, so the list, expanded in order as it grows, is in layer order
    for cls in Q.classes:
        if cls.layer == depth:
            break
        Q._expand(cls)
    Q.edges = _aggregate_edges(Q.classes, level.field.q)
    _check_mass(Q)
    return Q


def _check_mass(Q):
    """Raise unless, on each level n, the mass m_n = sum |G_n|/|Stab(c)|
    over the classes c over v_n is a sum of integers at most
    |P^1(R/N_D)| = prod q^(d_i (n_i - 1)) (q^d_i + 1): the classes are the
    G_n = Stab(v_n)-orbits on P^1(R/N_D) (`hecke.ray_stab_order`), with
    equality once every class is built."""
    q, points, mass = Q.field.q, 1, {}
    for poly, mult in Q.level.primes:
        points *= q ** (poly.degree * (mult - 1)) * (q ** poly.degree + 1)
    for c in Q.classes:
        n = c.level_n
        size, rest = divmod(ray_stab_order(q, n), c.stab.order)
        mass[n] = mass.get(n, 0) + size
        if rest or mass[n] > points:
            raise InconsistencyError(
                "the orbits of the classes over v_%d do not fit in the %d "
                "points of P^1(R/N_D): class %d has stabilizer order %d"
                % (n, points, c.id, c.stab.order))


def _aggregate_edges(classes, q):
    counted = {}   # (min id, max id) -> {side id: multiplicity}
    for cls in classes:
        if not cls.expanded:
            continue
        per_dst = {}
        total = 0
        for st in cls.strands:
            per_dst[st.dst] = per_dst.get(st.dst, 0) + 1
            total += st.orbit_size
        if total != q + 1:
            raise InconsistencyError(
                "neighbor orbits of class %d cover %d of %d tree neighbors"
                % (cls.id, total, q + 1))
        for dst, mult in per_dst.items():
            key = (min(cls.id, dst), max(cls.id, dst))
            counted.setdefault(key, {})[cls.id] = mult
    edges = []
    for (a, c), sides in sorted(counted.items()):
        mults = sorted(set(sides.values()))
        if len(mults) != 1:
            raise InconsistencyError(
                "edge %r has inconsistent multiplicities %r" % ((a, c), sides))
        edges.append(QuotientEdge(src=a, dst=c, multiplicity=mults[0]))
    return edges


# ---------------------------------------------------------------------------
# cusp certification


def _certified_step(Q, inner, outer):
    """Whether the step from class `inner` out to class `outer` holds:
    Stab(inner) fixes the neighbor in `outer` and is transitive on the q
    others, and |Stab(outer)| = q |Stab(inner)|.

    Stab(h u) = h Stab(u) h^-1, so all three are read off the build's
    strands of `inner`: they must be one size-1 orbit into `outer` and one
    size-q orbit elsewhere.  An unexpanded class has no strands and never
    passes.  `_aggregate_edges` gives an edge one unit of multiplicity per
    strand, so a passing step leaves `inner` with exactly two neighbor
    classes, `outer` and the class of the size-q strand, each joined by an
    edge of multiplicity 1: the step is the whole valency-2 chain test.
    """
    q = Q.field.q
    return (outer.stab.order == q * inner.stab.order
            and sorted((st.orbit_size, st.dst == outer.id)
                       for st in inner.strands) == [(1, True), (q, False)])


def check_window(depth, window):
    """Refuse a build of radius `depth` that `certify_cusps` cannot certify
    with `window`, so that a caller can check before it builds:
    QuotientError for a depth below 1, as `build_quotient` raises, then
    BoundError for a window below 2 or a depth below window + 2."""
    if depth < 1:
        raise QuotientError("depth must be >= 1")
    if window < 2:
        raise BoundError("window must be >= 2")
    if depth < window + 2:
        raise BoundError("depth %d too small for window %d (need >= %d)"
                         % (depth, window, window + 2))


def certify_cusps(Q, window=3):
    """One certified cusp descriptor per boundary class whose only edge has
    multiplicity 1 and whose inward walk passes `window` steps.

    The walk steps from the boundary class to its one neighbor and then,
    while `_certified_step` holds, on to the class of the size-q strand.
    Each step divides the stabilizer order by q, so the walk ends and never
    meets a class twice.  The descriptor's chain is the `window` + 1
    outermost classes, its towers are read off them, and its tail is every
    class the walk passed, innermost first.
    """
    check_window(Q.depth, window)
    q = Q.field.q
    adj = Q.adjacency()
    cusps = []
    for b in Q.classes:
        if b.expanded or len(adj[b.id]) != 1 or adj[b.id][0][1] != 1:
            continue
        walk = [b]
        inner = Q.class_by_id(adj[b.id][0][0])
        while _certified_step(Q, inner, walk[-1]):
            walk.append(inner)
            inner = Q.class_by_id(next(st.dst for st in inner.strands
                                       if st.orbit_size == q))
        if len(walk) <= window:
            continue
        classes = walk[window::-1]
        chain = tuple(c.id for c in classes)
        desc = CuspDescriptor(germ=chain[:2],
                              certified_depth=window,
                              splitness=INDETERMINATE,
                              stab_tower=tuple(c.stab.order for c in classes),
                              chain=chain,
                              unipotent_tower=tuple(c.stab.unipotent_dim()
                                                    for c in classes),
                              tail=tuple(c.id for c in reversed(walk)))
        desc.splitness = classify_splitness(desc, Q)
        cusps.append(desc)
    Q.cusps = cusps
    return cusps


def classify_splitness(cusp, Q):
    """Split when the outer stabilizer of the germ has a torus pair with two
    distinct eigenvalues, its pairs all of (F_q*)^2; at q = 2 the two
    structures coincide."""
    if Q.field.q == 2:
        return INDETERMINATE
    outer = Q.class_by_id(cusp.chain[-1])
    return SPLIT if outer.stab.has_distinct_torus_block() else NONSPLIT


# ---------------------------------------------------------------------------
# export


def _sorted_class_ids(Q):
    return [c.id for c in sorted(Q.classes,
                                 key=lambda c: (c.level_n, c.representative.key()))]


def export(Q, fmt="json"):
    if fmt == "json":
        return _export_json(Q)
    if fmt == "dot":
        return _export_dot(Q)
    if fmt == "text":
        return _export_text(Q)
    raise QuotientError("unknown export format %r" % fmt)


def _cusp_class_marks(Q):
    marks = {}
    for cusp in Q.cusps:
        for cid in cusp.chain:
            marks[cid] = cusp.splitness
    return marks


def _export_json(Q):
    adj = Q.adjacency()
    classes = []
    for cid in _sorted_class_ids(Q):
        c = Q.class_by_id(cid)
        classes.append({
            "id": c.id,
            "rep": c.representative.to_text(),
            "level_n": c.level_n,
            "stab_order": c.stab.order,
            "valency": len(adj[c.id]),
        })
    edges = [{"src": e.src, "dst": e.dst, "mult": e.multiplicity}
             for e in sorted(Q.edges, key=lambda e: (e.src, e.dst))]
    cusps = [{"germ": list(c.germ), "split": c.splitness,
              "tower": list(c.stab_tower)}
             for c in sorted(Q.cusps, key=lambda c: c.germ)]
    doc = {
        "field": {"p": Q.field.p, "s": Q.field.s},
        "level": str(Q.level),
        "depth": Q.depth,
        "classes": classes,
        "edges": edges,
        "cusps": cusps,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _export_dot(Q):
    marks = _cusp_class_marks(Q)
    lines = ["graph quotient {"]
    lines.append('  graph [label="H_D quotient, level %s, q=%d, depth %d"];'
                 % (Q.level, Q.field.q, Q.depth))
    for cid in _sorted_class_ids(Q):
        c = Q.class_by_id(cid)
        label = "n=%d\\n|S|=%d" % (c.level_n, c.stab.order)
        extra = ""
        if cid in marks:
            label += "\\ncusp:%s" % marks[cid]
            extra = ", peripheries=2"
        lines.append('  c%d [label="%s"%s];' % (cid, label, extra))
    for e in sorted(Q.edges, key=lambda e: (e.src, e.dst)):
        attr = ' [label="%d"]' % e.multiplicity if e.multiplicity > 1 else ""
        lines.append("  c%d -- c%d%s;" % (e.src, e.dst, attr))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _export_text(Q):
    adj = Q.adjacency()
    out = ["quotient graph: level=%s q=%d depth=%d" % (Q.level, Q.field.q,
                                                       Q.depth)]
    out.append("classes: %d, edges: %d, certified cusps: %d"
               % (len(Q.classes), len(Q.edges), len(Q.cusps)))
    for cid in _sorted_class_ids(Q):
        c = Q.class_by_id(cid)
        out.append("  class %d: rep=%s level_n=%d |stab|=%d valency=%d%s"
                   % (c.id, c.representative.to_text(), c.level_n,
                      c.stab.order, len(adj[c.id]),
                      "" if c.expanded else " (boundary)"))
    for e in sorted(Q.edges, key=lambda e: (e.src, e.dst)):
        out.append("  edge %d -- %d (mult %d)" % (e.src, e.dst,
                                                  e.multiplicity))
    for cusp in sorted(Q.cusps, key=lambda c: c.germ):
        out.append("  cusp germ=%r split=%s tower=%r"
                   % (cusp.germ, cusp.splitness, cusp.stab_tower))
    return "\n".join(out) + "\n"


__all__ = [
    "QuotientError", "BoundError", "InconsistencyError", "SPLIT", "NONSPLIT",
    "INDETERMINATE",
    "Strand", "OrbitClass", "QuotientEdge", "CuspDescriptor",
    "QuotientGraph", "build_quotient", "check_window", "certify_cusps",
    "classify_splitness", "export", "frame_label", "frame_orbits",
]
