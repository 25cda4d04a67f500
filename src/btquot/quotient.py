"""Quotient graph of the tree under a Hecke congruence group.

The quotient graph owns the one vertex-to-class lookup, the build's search,
which `locate` runs too for a vertex not yet located.  One record per
located vertex holds its class and the vertex object, which keeps its own
reduction (`hecke.reduce_vertex`); `locate` forms the witness matrix only
when asked.  Cusp certification and the graph of groups look nothing up:
they read the classes and strands the build recorded.

The build runs a breadth-first search over orbit classes starting from the
class of the base vertex: each class representative contributes its q+1 tree
neighbors, the stabilizer partitions them into orbits (one quotient edge per
orbit), and each orbit representative is located among the known classes
with its class key or opens a new class.  The key is read off the
stabilizer, which a new class keeps: the order at reduction level 0, the
level, the torus pairs (mu) and the unipotent dimension above it
(`class_key`), so the witness solves run only between classes that share
it.  The stabilizer's congruence reads the reduction g only through its
first column (a, c), which Nagao's g keeps along a cusp tail: the build
solves it once per distinct column (`hecke._Congruence` of the pair
(column, column), kept in `columns`), not once per new vertex, and reads
each vertex's torus map off that solve.  Classes and edges found at
depth d are kept when the search is widened, so the output is a growing
snapshot of the full quotient.  A class records its `parent`, the class
whose expansion found it, and a strand its `end`, the vertex object
located for the orbit representative: the classes joined to their parents
form the discovery tree, which the graph of groups takes as its spanning
tree (`presentation`).

The orbits are taken in the frame of the standard ray.  The reduction g of
v maps it to v_n, so Stab(v) = g^-1 S g acts on the neighbors of v, the
lines of F_q^2, as S on their images under one residue matrix k
(`_link_matrix`), labelled by P^1(F_q): v_{n+1} is infinity and the child
c t^n + t^(n-1) O of v_n is c.  S fixes a set F of labels, read off the
solver's data, and is transitive on the rest, so the orbits are the points
of F and one orbit of the others, and one neighbor is built per orbit
(`frame_orbits`).  Triangular S (Nagao) moves x to (alpha x + b_n) / beta.
If a kernel vector of the torus map has a t^n coordinate, S holds every
translation: F = {infinity}.  Else b_n = alpha na_n + beta nc_n, the pair
(1, 1) is the identity iff na_n + nc_n = 0, and S scales about nc_n by
alpha/beta: F = {infinity, nc_n}, or all labels on the scalar line or at
q = 2.  A level-0 kernel V has some c != 0, and F is the set of its common
eigenlines, the common roots z of c z^2 + (d - a) z - b: none for M2
(transitive) and F_{q^2} (its units mod F_q*, of order q + 1, act
freely); the line of a Borel subalgebra, or the kernel of N in the dual
numbers F_q[N], where the unipotents 1 + lambda N move the other q lines
transitively; the two eigenlines of F_q x F_q, whose units scale the others
transitively.

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
from dataclasses import dataclass, field as dc_field

from .algebra import packed_add, packed_mul
from .btree import BallVertex, Matrix2
from .hecke import (HeckeInconsistency, StabDescriptor, _Congruence, _cut,
                    _torus_restrict, _vector_ops, orbit_witness,
                    reduce_vertex)


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


@dataclass
class Strand:
    """One stabilizer orbit on the tree neighbors of a class representative:
    its size, the class it lies in, and its end, the orbit's representative
    neighbor as the vertex object the build located."""
    orbit_size: int
    dst: int
    end: BallVertex


@dataclass
class OrbitClass:
    id: int
    representative: BallVertex
    level_n: int
    layer: int
    parent: object       # id of the class whose expansion found it, or None
    stab: object
    reduction: object
    expanded: bool = False
    strands: list = dc_field(default_factory=list)


@dataclass
class QuotientEdge:
    src: int
    dst: int
    multiplicity: int


@dataclass
class CuspDescriptor:
    germ: tuple          # (inner class id, next class id) of the certified pair
    certified_depth: int
    splitness: str
    stab_tower: tuple    # stabilizer orders along the certified ray
    chain: tuple         # class ids, innermost certified vertex first
    unipotent_tower: tuple
    tail: tuple          # class ids of the maximal tail, innermost first


def class_key(stab):
    """The class key of the vertex of `stab`: equal on vertices of one
    H_D-orbit, so a vertex can lie only in a class of its own key.

    If w = h v with h in H_D, the frames g_v and g_w of the two vertices
    give x = g_w h g_v^-1, which fixes v_n, and the stabilizers in the
    frame satisfy S_w = x S_v x^-1.  For n >= 1, x is upper triangular
    (Nagao), so the conjugation keeps the diagonal (alpha, beta) of each
    element and maps the unipotent elements to unipotent ones: the torus
    pairs (their set mu, `StabDescriptor.torus`) and the unipotent dimension
    are invariants, and they fix the order.  At n = 0, x ranges over
    GL2(F_q), which moves both, so the key is the order alone.
    """
    if stab.level_n == 0:
        return 0, stab.order
    return stab.level_n, stab.torus_map[0], stab.unipotent_dim()


@dataclass
class QuotientGraph:
    field: object
    level: object
    depth: int
    classes: list = dc_field(default_factory=list)
    edges: list = dc_field(default_factory=list)
    cusps: list = dc_field(default_factory=list)
    # class key -> ids of the classes with that key, in creation order
    buckets: dict = dc_field(default_factory=dict, repr=False)
    # vertex key -> (class id, the vertex object located, which keeps its
    # reduction)
    located: dict = dc_field(default_factory=dict, repr=False)
    # packed first column (a, c) -> the `hecke._Congruence` of (col, col)
    columns: dict = dc_field(default_factory=dict, repr=False)

    def class_by_id(self, cid):
        return self.classes[cid]

    def adjacency(self):
        """class id -> sorted list of (neighbor id, multiplicity)."""
        adj = {c.id: {} for c in self.classes}
        for e in self.edges:
            adj[e.src][e.dst] = e.multiplicity
            adj[e.dst][e.src] = e.multiplicity
        return {cid: sorted(d.items()) for cid, d in adj.items()}

    def locate(self, v):
        """(class id, h in H_D with act(h, v) = the representative) for the
        known class containing v, or None when no class does.

        The class is sought only among the classes whose `class_key`
        equals the key of Stab(v).  The key is a class invariant and
        classes are distinct orbits, so at most one of them has a witness;
        that class is the first one found.  h is formed on demand: the
        identity for a representative, else the `orbit_witness` of the
        search that located v.
        """
        found = self.located.get(v.key()) or self._search(v)[0]
        if found is None:
            return None
        cid, w = found
        cls = self.classes[cid]
        if w is cls.representative:
            return cid, Matrix2.identity(self.field)
        return cid, orbit_witness(self.level, reduce_vertex(w),
                                  cls.reduction)

    def _search(self, v):
        """((class id, v) or None, the reduction of v, Stab(v)) for a vertex
        not yet located; a found class is recorded in `located`."""
        red = reduce_vertex(v)
        col = red.g.a.packed_coeffs, red.g.c.packed_coeffs
        system = self.columns.get(col)
        if system is None:
            system = self.columns[col] = _Congruence(self.level, col, col)
        stab = system.stabilizer(v, red)
        for cid in self.buckets.get(class_key(stab), ()):
            if orbit_witness(self.level, red,
                             self.classes[cid].reduction) is not None:
                found = self.located[v.key()] = (cid, v)
                return found, red, stab
        return None, red, stab

    def _classify(self, v, parent):
        """(class id of v, the vertex object located for it): a known class,
        or else a new class represented by v, one layer out from the class
        `parent` whose expansion found it (None for the base class), with
        the stabilizer the search computed."""
        found = self.located.get(v.key())
        if found is None:
            found, red, stab = self._search(v)
        if found is None:
            cid = len(self.classes)
            layer = 0 if parent is None else self.classes[parent].layer + 1
            self.classes.append(OrbitClass(
                id=cid, representative=v, level_n=red.level_n, layer=layer,
                parent=parent, stab=stab, reduction=red))
            self.buckets.setdefault(class_key(stab), []).append(cid)
            found = self.located[v.key()] = (cid, v)
        return found

    def _expand(self, cls):
        v = cls.representative
        for orbit in frame_orbits(cls.stab):
            dst, end = self._classify(v.neighbor(orbit[0]), cls.id)
            cls.strands.append(Strand(orbit_size=len(orbit), dst=dst,
                                      end=end))
        cls.expanded = True


# ---------------------------------------------------------------------------
# stabilizer action on the neighbors, in the frame of v_n


def _link_matrix(stab):
    """The residue matrix k of the frame g = stab.conjugator at the vertex
    v = B(a, r) of `stab`, packed ints (k11, k12, k21, k22).

    With the lattice bases B_v = [[a, pi^r], [1, 0]] of v and
    B_n = [[0, pi^-n], [1, 0]] of v_n, g B_v = B_n M for
    M = B_n^-1 g B_v = [[C a + D, C pi^r], [pi^n (A a + B), A pi^(n+r)]],
    g = [[A, B], [C, D]] and a = P/t^K the exact center.  g maps v to v_n
    iff M is a scalar times an element of GL2(O); then k is M scaled by its
    least valuation and reduced mod pi, and the neighbor of v on the line
    (x : y) of L_v / pi L_v goes to the neighbor of v_n on the line
    k (x, y).  A singular k shows that g does not map v to v_n, and a g
    outside GL2(F_q[t]) with det g in F_q* is no frame at all.
    """
    v, n, g = stab.base_vertex, stab.level_n, stab.conjugator
    if not g.is_polynomial():
        raise InconsistencyError(
            "the frame of vertex %s is not a reduction: %r has a "
            "non-polynomial entry" % (v.to_text(), g))
    f = stab.field
    A, B, C, D = (x.num.packed_coeffs for x in g.entries())
    minus_bc = packed_mul(f, packed_mul(f, B, C), [f.neg(1)])
    if len(packed_add(f, packed_mul(f, A, D), minus_bc)) != 1:
        raise InconsistencyError(
            "the frame of vertex %s is not a reduction: the determinant of "
            "%r is not a nonzero constant" % (v.to_text(), g))
    num, K = v.center.fraction()
    pad, r = (0,) * K, v.r
    top = packed_add(f, packed_mul(f, C, num), D and pad + D)
    low = packed_add(f, packed_mul(f, A, num), B and pad + B)
    # each entry of M as P pi^e, P packed, of valuation e - deg P
    entries = ((top, K), (C, r), (low, n + K), (A, n + r))
    least = min(e - len(P) for P, e in entries if P)
    k11, k12, k21, k22 = (P[-1] if P and e - len(P) == least else 0
                          for P, e in entries)
    if f.mul(k11, k22) == f.mul(k12, k21):
        raise InconsistencyError(
            "the frame of vertex %s does not map it to v_%d: its residue "
            "matrix is singular" % (v.to_text(), n))
    return k11, k12, k21, k22


def _neighbor_line(v, w):
    """The line (x : y) of L_v / pi L_v, packed ints, of the tree neighbor
    w of v: (0 : 1) for the parent and (1 : c) for the child whose center
    has c at pi^r."""
    terms = w.center.packed_terms
    if w.r == v.r + 1:
        c = terms[-1][1] if terms and terms[-1][0] == v.r else 0
        if (terms[:-1] if c else terms) == v.center.packed_terms:
            return 1, c
    elif w.r == v.r - 1 and w == v.parent():
        return 0, 1
    raise InconsistencyError("%s is not a tree neighbor of vertex %s"
                             % (w.to_text(), v.to_text()))


def _frame_label(stab, w):
    """The label of the tree neighbor w of the vertex of `stab`: for the
    image line k (x : y) of its line, None (v_{n+1}) if x = 0, else y/x."""
    k11, k12, k21, k22 = _link_matrix(stab)
    f = stab.field
    add, mul = f.add, f.mul
    x, y = _neighbor_line(stab.base_vertex, w)
    top = add(mul(k11, x), mul(k12, y))
    return mul(add(mul(k21, x), mul(k22, y)), f.inv(top)) if top else None


def frame_orbits(stab):
    """The Stab-orbits on the tree neighbors of the vertex of `stab`, as
    sorted lists of indices in `BallVertex.neighbors` order, by least index:
    the fixed labels F of the module docstring, each z the line adj(k)
    (1 : z), or adj(k) (0 : 1) for infinity (the parent (0 : 1) is index 0,
    the child (1 : c) 1 + c; k is nonsingular), and the rest."""
    k11, k12, k21, k22 = _link_matrix(stab)
    f, q, n = stab.field, stab.field.q, stab.level_n
    add, mul, neg = f.add, f.mul, f.neg
    mu, na, nc = stab.torus_map
    if mu not in (None, 1):
        raise HeckeInconsistency("the torus pairs alpha = %d*beta of a "
                                 "stabilizer miss the pair (1, 1)" % mu)
    if stab.kernel:
        fixed = [z for z in range(q) if all(
            add(mul(add(mul(c, z), add(d, neg(a))), z), neg(b)) == 0
            for a, b, c, d in stab.kernel)]
    elif stab.holds_translations():
        fixed = [None]
    elif add(na[n], nc[n]):
        raise InconsistencyError("the pair (1, 1) of the stabilizer of %s "
                                 "is no identity" % stab.base_vertex.to_text())
    else:
        fixed = [None, *range(q)] if mu == 1 or q == 2 else [None, nc[n]]
    index = set()
    for z in fixed:
        x, y = ((neg(k12), k11) if z is None else
                (add(k22, neg(mul(k12, z))), add(mul(k11, z), neg(k21))))
        index.add(1 + mul(y, f.inv(x)) if x else 0)
    rest = [i for i in range(q + 1) if i not in index]
    return sorted([[i] for i in index] + ([rest] if rest else []))


def frame_fixers(stab, w):
    """The edge group Stab(v) n Stab(w), v the vertex of `stab` and w a
    tree neighbor, as a `StabDescriptor` in the frame of v: the elements
    whose Moebius map fixes the label x of w, c = 0 for x = infinity and
    c x^2 + (d - a) x - b_n = 0 else.  At c = 0, b_n = x (beta - alpha):
    when the group holds translations, the one kernel vector with a t^n
    coordinate, t^n - (t^n mod M), is dropped (top degree n - 1), and na
    and nc move by multiples of it to b_n = -x and x; else the row cuts
    the torus pairs (`hecke._torus_restrict`).  A level-0 kernel is cut by its row
    (`hecke._cut`) and kept only while some c != 0 in it.  No element is
    formed or listed."""
    x = _frame_label(stab, w)
    n, f = stab.level_n, stab.field
    (mu, na, nc), top, kernel = stab.torus_map, stab.top, ()
    if x is not None:
        if stab.holds_translations():
            vadd, vscale = _vector_ops(f)
            last, top = stab.torus[3][-1], n - 1
            na = vadd(na, vscale(f.add(f.neg(x), f.neg(na[n])), last))
            nc = vadd(nc, vscale(f.add(x, f.neg(nc[n])), last))
        else:
            mu = _torus_restrict(f, mu, [(f.add(na[n], x),
                                          f.add(nc[n], f.neg(x)))])
        if stab.kernel:
            row = (f.neg(x), f.neg(1), f.mul(x, x), x)
            _, kernel = _cut(f, (0,) * 4, stab.kernel, row, 0)
            kernel = kernel if any(vec[2] for vec in kernel) else ()
    return StabDescriptor(stab.base_vertex, stab.conjugator, n, stab.level,
                          (mu, na, nc, stab.m), kernel, top)


def build_quotient(level, depth):
    """Quotient snapshot of radius `depth` around the base vertex class."""
    if depth < 1:
        raise QuotientError("depth must be >= 1")
    Q = QuotientGraph(field=level.field, level=level, depth=depth)
    Q._classify(BallVertex.base(level.field), None)
    for layer in range(depth):
        for cls in list(Q.classes):
            if cls.layer == layer and not cls.expanded:
                Q._expand(cls)
    Q.edges = _aggregate_edges(Q.classes, level.field.q)
    return Q


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
    "class_key",
    "classify_splitness", "export", "frame_orbits", "frame_fixers",
]
