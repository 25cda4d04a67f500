"""Bass-Serre data for a built quotient: a coherent lift of a spanning tree,
vertex and edge groups on the finite part, structural descriptors for the
infinite cusp tails, and a verified generators-and-relations emission.

A finite vertex group is g^-1 S g for a subgroup S of the finite group
Stab(v_n) (Nagao), kept as its `StabDescriptor` and worked on in frame
data.  An edge group is a `StabDescriptor` too, in the frame of its
source, cut from the source's solution spaces by the label of the
strand's end (`hecke.StabDescriptor.edge_group`, `quotient.frame_label`),
so both give generators by one rule (`generator_frames`).  A matrix is
read in the frame of a vertex one way, by `hecke.ray_frame` (through
`StabDescriptor.frame_of`): for the edge injections, the junction
eigenpairs of the line amalgam and the check of every witness g_y.  These
reads, the edge injections and the relation checks multiply packed rows
(`btree._rows_product`); a `Matrix2` is formed only for a printed
generator: a vertex group's, or a witness g_y.

The spanning tree is the build's discovery tree: each class but the base
one is joined to its `parent`, the class whose expansion found it, by the
strand that found it, and the tree is lifted onto the class
representatives.  It holds every certified tail edge, since a tail edge is
a bridge and every spanning tree holds the bridges.  The lift is coherent,
since a representative is the end of the strand that found it, a tree
neighbor of its parent's representative.  So each vertex group is its
class's own stabilizer, and each strand off the tree is a build strand of
the edge's lesser end.  Classes are expanded in id order, so a class's
parent is its least neighbor, and this is the tree Kruskal's algorithm
takes over the edges in id order.

The infinite tail groups are never materialized; they are reported through
their observed structure (torus type and the tower of unipotent dimensions
along the certified ray), which is exactly what separates the split shape
(F* x F*) |x I from the non-split F* x I.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import groupby

from . import hecke
from .btree import Matrix2, _rows_inverse, _rows_product
from .hecke import primitive_element, ray_frame, reduce_vertex
from .quotient import SPLIT, InconsistencyError, frame_label


class PresentationError(ValueError):
    pass


class PresentationInconsistency(PresentationError, InconsistencyError):
    """Computed Bass-Serre data contradict each other: an internal error,
    not bad input."""


# the largest finite vertex group the presentation takes: the walk that
# finds the words in its generators (`_group_walk`) visits every element
VERTEX_GROUP_CAP = 20000


# ---------------------------------------------------------------------------
# small integer Smith normal form (for the line-amalgam abelianization)


def smith_normal_form(rows, ncols):
    """Invariant factors of Z^ncols / <rows>; zero factors mean free ranks."""
    m = [list(r)[:ncols] + [0] * (ncols - len(r)) for r in rows]
    nrows = len(m)
    factors = []
    top = 0
    while top < min(nrows, ncols):
        pivot_pos = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                if m[i][j] and (pivot_pos is None
                                or abs(m[i][j]) < abs(m[pivot_pos[0]][pivot_pos[1]])):
                    pivot_pos = (i, j)
        if pivot_pos is None:
            break
        bi, bj = pivot_pos
        m[top], m[bi] = m[bi], m[top]
        for row in m:
            row[top], row[bj] = row[bj], row[top]
        while True:
            # clear the pivot column with row operations (Euclidean swaps)
            for i in range(top + 1, nrows):
                while m[i][top]:
                    q = m[i][top] // m[top][top]
                    m[i] = [a - q * b for a, b in zip(m[i], m[top])]
                    if m[i][top]:
                        m[top], m[i] = m[i], m[top]
            # clear the pivot row with column operations
            for j in range(top + 1, ncols):
                while m[top][j]:
                    q = m[top][j] // m[top][top]
                    for i in range(nrows):
                        m[i][j] -= q * m[i][top]
                    if m[top][j]:
                        for i in range(nrows):
                            m[i][top], m[i][j] = m[i][j], m[i][top]
            if all(m[i][top] == 0 for i in range(top + 1, nrows)) \
                    and all(m[top][j] == 0 for j in range(top + 1, ncols)):
                break
        factors.append(abs(m[top][top]))
        top += 1
    factors += [0] * (ncols - len(factors))
    # normalize the divisibility chain d1 | d2 | ... by gcd/lcm exchanges
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            if a == 0 and b != 0:
                factors[i], factors[i + 1] = b, 0
                changed = True
            elif a and b and b % a:
                g = math.gcd(a, b)
                factors[i], factors[i + 1] = g, a * b // g
                changed = True
    return tuple(factors)


# ---------------------------------------------------------------------------
# graph of groups


class GogEdge:
    __slots__ = ("src", "dst", "lift_dst", "in_tree", "g_y", "edge_group")

    def __init__(self, src, dst, lift_dst, in_tree, g_y, edge_group):
        # class ids of the source side (lift known) and of the target
        self.src, self.dst = src, dst
        # tree neighbor of lifts[src] lying in class dst
        self.lift_dst = lift_dst
        self.in_tree = in_tree
        # identity on tree edges; act(g_y, lifts[dst]) = lift_dst
        self.g_y = g_y
        # StabDescriptor of the edge group in the source frame if both
        # ends are finite, else None
        self.edge_group = edge_group


class CuspGroupDescriptor:
    __slots__ = ("chain", "splitness", "torus", "unipotent_tower",
                 "junction_order")

    def __init__(self, chain, splitness, torus, unipotent_tower,
                 junction_order):
        # maximal certified tail, innermost class first
        self.chain = chain
        self.splitness = splitness
        # "full", "scalar", or "trivial" (q = 2)
        self.torus = torus
        self.unipotent_tower = unipotent_tower
        # order of the junction edge group, or None
        self.junction_order = junction_order


class GraphOfGroups:
    __slots__ = ("base", "spanning_tree", "lifts", "vertex_stabs",
                 "finite_classes", "edges", "tails", "y_classes")

    def __init__(self, base, spanning_tree, lifts, vertex_stabs,
                 finite_classes, edges, tails, y_classes):
        self.base = base
        # unordered edge keys
        self.spanning_tree = spanning_tree
        # class id -> lifted vertex, coherent on the tree
        self.lifts = lifts
        # class id -> StabDescriptor at the lift
        self.vertex_stabs = vertex_stabs
        # sorted class ids of the finite part
        self.finite_classes = finite_classes
        self.edges, self.tails, self.y_classes = edges, tails, y_classes


def _maximal_tails(Q):
    tails = [cusp.tail for cusp in Q.cusps]
    seen = {}
    for idx, tail in enumerate(tails):
        for cid in tail:
            if cid in seen:
                raise PresentationInconsistency(
                    "certified tails %d and %d overlap at class %d"
                    % (seen[cid], idx, cid))
            seen[cid] = idx
    return tails


def build_graph_of_groups(Q):
    """The build's discovery tree lifted onto the class representatives
    (module docstring), their stabilizers, edge groups on the finite part,
    and witnesses g_y for the strands off the tree.  A finite vertex group
    of order above VERTEX_GROUP_CAP raises SizeError up front.

    The strands of an edge are those of its source, the lesser id: a class
    with a greater id than an unexpanded one is unexpanded too, so the
    source of every edge is expanded."""
    if not Q.cusps:
        raise PresentationError("quotient has no certified cusps; run "
                                "certify_cusps first")
    level = Q.level
    tails = _maximal_tails(Q)
    tail_classes = {cid for tail in tails for cid in tail}
    y_classes = tuple(sorted(c.id for c in Q.classes
                             if c.id not in tail_classes))

    children = Q.classes[1:]
    tree = {(c.parent, c.id) for c in children}
    missing = {(min(a, b), max(a, b)) for tail in tails
               for a, b in zip(tail, tail[1:])} - tree
    if missing:
        raise PresentationInconsistency(
            "certified tail edges %r left outside the spanning tree"
            % (sorted(missing),))
    lifts = {c.id: c.representative for c in Q.classes}
    vertex_stabs = {c.id: c.stab for c in Q.classes}
    finite_classes = tuple(sorted(set(y_classes).union(t[0] for t in tails)))
    for cid in finite_classes:
        vertex_stabs[cid].check_order(VERTEX_GROUP_CAP)

    # (src, dst, strand, g_y): the tree edges in id order, g_y None, then
    # every other strand, by edge, with its witness; a tree edge's first
    # strand is the one that found its child
    found, off_tree = {}, []
    for e in Q.edges:
        into = [st for st in Q.class_by_id(e.src).strands if st.dst == e.dst]
        if len(into) != e.multiplicity:
            raise PresentationInconsistency(
                "class %d has %d strands into class %d, an edge of "
                "multiplicity %d" % (e.src, len(into), e.dst, e.multiplicity))
        target = Q.class_by_id(e.dst).reduction
        in_tree = (e.src, e.dst) in tree
        if in_tree:
            found[e.dst] = into[0]
        for st in into[in_tree:]:
            g_y = hecke.orbit_witness(level, target, reduce_vertex(st.end),
                                      Q.columns)
            if g_y is None:
                raise PresentationInconsistency(
                    "no witness for a non-tree edge between classes %d and "
                    "%d" % (e.src, e.dst))
            off_tree.append((e.src, e.dst, st, g_y))
    strands = [(c.parent, c.id, found[c.id], None) for c in children]
    edges, one = [], Matrix2.identity(Q.field)
    for src_id, dst_id, st, g_y in strands + off_tree:
        group = None
        if src_id in finite_classes and dst_id in finite_classes:
            stab = vertex_stabs[src_id]
            group = stab.edge_group(frame_label(stab, st.index))
        edges.append(GogEdge(
            src=src_id, dst=dst_id, lift_dst=st.end, in_tree=g_y is None,
            g_y=one if g_y is None else g_y,
            edge_group=group))

    tails_out = [_tail_descriptor(Q, cusp, tail, vertex_stabs, edges)
                 for cusp, tail in zip(Q.cusps, tails)]
    return GraphOfGroups(base=Q, spanning_tree=tuple(sorted(tree)),
                         lifts=lifts, vertex_stabs=vertex_stabs,
                         finite_classes=finite_classes, edges=edges,
                         tails=tails_out, y_classes=y_classes)


def _tail_descriptor(Q, cusp, tail, vertex_stabs, edges):
    q = Q.field.q
    start = tail[0]
    stab = vertex_stabs[start]
    if q == 2:
        torus = "trivial"
    elif stab.has_distinct_torus_block():
        torus = "full"
    else:
        torus = "scalar"
    dims = tuple(vertex_stabs[cid].unipotent_dim() for cid in tail)
    junction_order = None
    for e in edges:
        if e.in_tree and start in (e.src, e.dst):
            other = e.dst if e.src == start else e.src
            if other not in tail and e.edge_group is not None:
                junction_order = e.edge_group.order
                break
    return CuspGroupDescriptor(chain=tuple(tail),
                               splitness=cusp.splitness, torus=torus,
                               unipotent_tower=dims,
                               junction_order=junction_order)


# ---------------------------------------------------------------------------
# presentation emission


class Presentation:
    __slots__ = ("generators", "relations", "tail_summaries")

    def __init__(self, generators, relations, tail_summaries):
        # (name, Matrix2)
        self.generators = generators
        # each a tuple of (name, exponent)
        self.relations = relations
        self.tail_summaries = tail_summaries


def _group_walk(stab, gens, parents):
    """Yield the frames of the group the frames `gens` generate in `stab`,
    breadth first from the identity by products of frame data, in a fixed
    order, each once its (parent, generator index) is in `parents`, which
    starts as {identity: None}; a search resumes where the last stopped."""
    frontier = list(parents)
    while frontier:
        nxt_frontier = []
        for cur in frontier:
            for gi, g in enumerate(gens):
                nxt = stab.frame_product(cur, g)
                if nxt not in parents:
                    parents[nxt] = (cur, gi)
                    nxt_frontier.append(nxt)
                    yield nxt
        frontier = nxt_frontier


def _word_search(target, walk, names):
    """Express the frame `target` as a word, with positive exponents (the
    groups are finite), in the generators named `names` of the walk
    (parents, `_group_walk`): its path in the walk's tree, walked on only
    until it reaches `target`.  The order is fixed, so this is the word a
    fresh search stopping there finds."""
    parents, frames = walk
    if target not in parents and all(fr != target for fr in frames):
        raise PresentationInconsistency("element not in the generated group")
    word = []
    while parents[target] is not None:
        target, gi = parents[target]
        word.append(names[gi])
    return tuple((nm, len(list(run))) for nm, run in groupby(reversed(word)))


def emit_presentation(G):
    """Named generators, matrix-verified relation words, and structural
    summaries for the infinite tails.

    Relations: generator orders, one identification per tree-edge-group
    generator (the same matrix written in both endpoint groups), and the
    conjugation relation through g_y for every non-tree edge.  The
    generators of a vertex group and of an edge group are their
    `generator_frames`, the edge ones in `Matrix2.key()` order; orders
    and words are found by products of frames.  The image of an edge
    generator c, c on a tree edge and g_y^-1 c g_y on a non-tree edge, is
    read as a frame of the target with `frame_of`; None means it does not
    fix the target lift.
    Every relation is then evaluated by 2x2 matrix products over F_q[t],
    on packed rows, and must be the identity, and every witness g_y must
    map the lift of its target class to the edge's lifted end
    (`_check_witness`).  Only the printed generators are `Matrix2`s.
    The inverse of a g_y or of a generator is made once per distinct
    packed rows (`inverse`).
    """
    field = G.base.field
    inverse = functools.cache(functools.partial(_rows_inverse, field))
    gen_names = []
    gen_by_class = {}
    all_named = {}
    relations = []
    for cid in G.finite_classes:
        stab = G.vertex_stabs[cid]
        frames = stab.generator_frames()
        names = ["v%d_g%d" % (cid, k) for k in range(len(frames))]
        for fr, name in zip(frames, names):
            g = stab.element(fr)
            all_named[name] = g.key()
            gen_names.append((name, g))
            relations.append(((name, stab.frame_order(fr)),))
        parents = {stab.identity_frame(): None}
        walk = parents, _group_walk(stab, frames, parents)
        gen_by_class[cid] = (walk, names)

    edge_counter = 0
    for e in G.edges:
        g_y = e.g_y.key()
        if not e.in_tree:
            hname = "h%d" % edge_counter
            edge_counter += 1
            gen_names.append((hname, e.g_y))
            all_named[hname] = g_y
        if e.edge_group is None:
            continue
        src, dst = G.vertex_stabs[e.src], G.vertex_stabs[e.dst]
        g_y_inv = None if e.in_tree else inverse(g_y)
        # packed rows sort as their `Matrix2.key()`s
        for fr, c in sorted(((fr, src.element_rows(fr))
                             for fr in e.edge_group.generator_frames()),
                            key=lambda pair: pair[1]):
            word_src = _word_search(fr, *gen_by_class[e.src])
            image = dst.frame_of(c if e.in_tree else _rows_product(
                field, _rows_product(field, g_y_inv, c), g_y))
            if image is None:
                raise PresentationInconsistency(
                    "edge injection image does not stabilize the target")
            word_dst = _word_search(image, *gen_by_class[e.dst])
            back = tuple((nm, -k) for nm, k in reversed(word_dst))
            if e.in_tree:
                relations.append(word_src + back)
            else:
                relations.append(((hname, -1),) + word_src + ((hname, 1),)
                                 + back)

    for rel in relations:
        _verify_relation(rel, all_named, field, inverse)
    for e in G.edges:
        if not e.in_tree:
            _check_witness(G, e)
    return Presentation(generators=gen_names, relations=relations,
                        tail_summaries=list(G.tails))


def _verify_relation(rel, named, field, inverse):
    """Raise PresentationInconsistency unless the word `rel`, in generators
    named by their packed rows, evaluates to the identity; each power is
    taken by binary powering, and `inverse` gives the packed rows of the
    inverse of a generator's."""
    acc = None
    for name, exp in rel:
        g = named[name]
        if exp < 0:
            g, exp = inverse(g), -exp
        while exp:
            if exp & 1:
                acc = g if acc is None else _rows_product(field, acc, g)
            exp >>= 1
            if exp:
                g = _rows_product(field, g, g)
    if acc is not None and list(map(list, acc)) != [[1], [], [], [1]]:
        raise PresentationInconsistency(
            "relation %r does not evaluate to the identity" % (rel,))


def _check_witness(G, e):
    """Raise PresentationInconsistency unless g_y maps lifts[dst] to
    lift_dst.  With g and g' the reductions of the two vertices to v_n,
    that is whether g' g_y g^-1 fixes v_n, read by `ray_frame`; no vertex
    is moved."""
    stab, field = G.vertex_stabs[e.dst], G.base.field
    s = _rows_product(field, _rows_product(
        field, reduce_vertex(e.lift_dst).rows, e.g_y.key()),
        stab.reduction.inverse)
    if ray_frame(s, stab.level_n) is None:
        raise PresentationInconsistency(
            "witness g_y of a non-tree edge from class %d does not map the "
            "lift of class %d to the edge's end" % (e.src, e.dst))


def _word_str(rel):
    return " * ".join(nm if e == 1 else "%s^%d" % (nm, e) for nm, e in rel)


def presentation_text(P, Q):
    out = ["PRESENTATION level=%s q=%d depth=%d" % (Q.level, Q.field.q,
                                                    Q.depth)]
    out.append("GENERATORS")
    for name, g in P.generators:
        out.append("  %s = %r" % (name, g))
    out.append("RELATIONS")
    if not P.relations:
        out.append("  (none)")
    for rel in P.relations:
        out.append("  %s" % _word_str(rel))
    out.append("TAILS")
    for i, tail in enumerate(P.tail_summaries):
        att = ("order %d" % tail.junction_order
               if tail.junction_order is not None else "not materialized")
        out.append("  tail %d: classes=%s split=%s torus=%s "
                   "unipotent_dims=%s junction_group=%s"
                   % (i, list(tail.chain), tail.splitness, tail.torus,
                      list(tail.unipotent_tower), att))
    return "\n".join(out) + "\n"


def presentation_json(P, Q):
    doc = {
        "level": str(Q.level),
        "field": {"p": Q.field.p, "s": Q.field.s},
        "generators": [{"name": n, "matrix": repr(g)}
                       for n, g in P.generators],
        "relations": [_word_str(rel) for rel in P.relations],
        "tails": [{
            "classes": list(t.chain),
            "split": t.splitness,
            "torus": t.torus,
            "unipotent_dims": list(t.unipotent_tower),
            "junction_order": t.junction_order,
        } for t in P.tail_summaries],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# the explicit line-amalgam example and its abelianization


def _torus_pair(stab, h):
    """Ordered eigenvalue pair (alpha, beta) of the element of packed rows
    h, packed ints, read in the frame of `stab`, whose element
    s = [[alpha, b], [0, beta]] must be upper triangular; None otherwise."""
    fr = stab.frame_of(h)
    if fr is None or fr[2]:
        return None
    return fr[0], fr[3]


def _junction(G, starts):
    """The edge group of the one tree edge joining the classes `starts` and
    its generators' packed rows; None unless exactly one tree edge joins
    them."""
    junction = [e for e in G.edges
                if e.in_tree and e.edge_group is not None
                and {e.src, e.dst} == starts]
    if len(junction) != 1:
        return None
    group = junction[0].edge_group
    return group, [group.element_rows(fr) for fr in group.generator_frames()]


def _discrete_logs(field):
    """dlog table of F_q*, on packed ints, with respect to the least
    primitive element (`primitive_element`)."""
    g, logs, acc = primitive_element(field), {}, 1
    for e in range(field.q - 1):
        logs[acc] = e
        acc = field.mul(acc, g)
    return logs


def abelianization_of_line_amalgam(G):
    """Abelianization of the fundamental group when the base is a doubly
    infinite line carrying exactly two split tails glued along one edge.

    Computed, not assumed: a split tail abelianizes onto its torus (a
    scaling ratio != 1 kills the unipotent part, which needs q >= 3), the
    junction group maps to both tail tori by ordered eigenvalue pairs, a
    homomorphism, and the cokernel is read off an integer Smith normal
    form of the images of its generators.
    """
    Q = G.base
    q = Q.field.q
    if len(G.tails) != 2:
        raise PresentationError("need exactly two tails, found %d"
                                % len(G.tails))
    if G.y_classes:
        raise PresentationError("base is not a two-tail line: leftover "
                                "classes %r" % (G.y_classes,))
    for t in G.tails:
        if t.splitness != SPLIT or t.torus != "full":
            raise PresentationError(
                "tail %r is not split with a full torus (q = 2 is always "
                "indeterminate); the line-amalgam abelianization does not "
                "apply" % (t.chain,))
    junction = _junction(G, {G.tails[0].chain[0], G.tails[1].chain[0]})
    if junction is None:
        raise PresentationError("tails do not meet along a single edge")
    stabs = [G.vertex_stabs[t.chain[0]] for t in G.tails]
    logs = _discrete_logs(Q.field)
    m = q - 1
    rows = [[m, 0, 0, 0], [0, m, 0, 0], [0, 0, m, 0], [0, 0, 0, m]]
    for h in junction[1]:
        vec = []
        for stab in stabs:
            pair = _torus_pair(stab, h)
            if pair is None:
                raise PresentationError("junction element is not "
                                        "triangularizable in a tail frame")
            vec += [logs[pair[0]], logs[pair[1]]]
        rows.append(vec)
    factors = smith_normal_form(rows, 4)
    if any(f == 0 for f in factors):
        raise PresentationError("abelianization came out infinite; the "
                                "junction group does not map onto a torus")
    nontrivial = tuple(f for f in factors if f != 1)
    order = 1
    for f in nontrivial:
        order *= f
    return {
        "invariant_factors": nontrivial,
        "order": order,
        "junction_order": junction[0].order,
        "is_torus_squared": nontrivial == (m, m) or (m == 1 and not nontrivial),
    }


def amalgam_example_check(field, depth=8):
    """End-to-end structural check of the degree-one level D = (t): the
    quotient is a line, the two certified cusps match the closed form, the
    tails carry the upper/lower triangular tower shapes, and they are glued
    along the diagonal torus.  Returns a report dict with a `passed` flag.
    """
    from .formulas import cusp_count
    from .hecke import parse_level
    from .quotient import build_quotient, certify_cusps

    level = parse_level("t", field)
    report = {"q": field.q, "level": "t", "depth": depth, "checks": [],
              "passed": True}

    def check(name, ok, detail=""):
        report["checks"].append((name, bool(ok), detail))
        if not ok:
            report["passed"] = False

    Q = build_quotient(level, depth)
    adj = Q.adjacency()
    check("line: class count 2*depth+1", len(Q.classes) == 2 * depth + 1,
          "%d classes" % len(Q.classes))
    check("line: tree of max valency 2",
          len(Q.edges) == len(Q.classes) - 1
          and all(len(v) <= 2 for v in adj.values()))
    cusps = certify_cusps(Q)
    formula, exact = cusp_count(level, field.q)
    check("two certified cusps", len(cusps) == 2, "%d" % len(cusps))
    check("closed form agrees and is exact",
          exact and formula == len(cusps),
          "formula=%s certified=%d" % (formula, len(cusps)))
    if not report["passed"]:
        return report
    G = build_graph_of_groups(Q)
    check("tails cover the line (empty finite part)", not G.y_classes,
          repr(G.y_classes))
    tails = G.tails
    check("two tails", len(tails) == 2)
    torus_expect = "trivial" if field.q == 2 else "full"
    for i, t in enumerate(tails):
        check("tail %d torus is %s" % (i, torus_expect),
              t.torus == torus_expect, t.torus)
        steps = [b - a for a, b in zip(t.unipotent_tower,
                                       t.unipotent_tower[1:])]
        check("tail %d unipotent tower steps by 1" % i,
              all(s == 1 for s in steps), repr(t.unipotent_tower))
    check("tail lengths differ by one (junction off center)",
          sorted(len(t.chain) for t in tails) == [depth, depth + 1],
          repr([len(t.chain) for t in tails]))
    # Borel shapes at the two junction vertices, as exact matrix sets
    sides = sorted(tails, key=lambda t: len(t.chain), reverse=True)
    upper_start = G.lifts[sides[0].chain[0]]
    lower_start = G.lifts[sides[1].chain[0]]
    check("junction lifts are the standard vertices",
          upper_start.to_text() == "r=0;a=0"
          and lower_start.to_text() == "r=1;a=0",
          "%s, %s" % (upper_start.to_text(), lower_start.to_text()))
    got_upper, got_lower = (
        sorted(h.key() for h in G.vertex_stabs[t.chain[0]].materialize())
        for t in sides)
    check("upper junction group is [[F*, F],[0, F*]]",
          got_upper == _borel_keys(field, True))
    check("lower junction group is [[F*, 0],[tF, F*]]",
          got_lower == _borel_keys(field, False))
    junction = _junction(G, {tails[0].chain[0], tails[1].chain[0]})
    check("tails glued along one edge", junction is not None)
    if junction is not None:
        group, gens = junction
        m = field.q - 1
        check("junction group order (q-1)^2", group.order == m * m,
              "order %d" % group.order)
        # of order (q-1)^2, the group is the diagonal torus iff its pairs
        # map onto (F_q*)^2: iff the generators' logs span (Z/(q-1))^2
        stab = G.vertex_stabs[tails[0].chain[0]]
        pairs = [_torus_pair(stab, h) for h in gens]
        logs = _discrete_logs(field)
        check("junction group is the diagonal torus",
              None not in pairs and smith_normal_form(
                  [[m, 0], [0, m]] + [[logs[a], logs[b]] for a, b in pairs],
                  2) == (1, 1), repr(pairs))
    if field.q >= 3:
        ab = abelianization_of_line_amalgam(G)
        check("abelianization order (q-1)^2",
              ab["order"] == (field.q - 1) ** 2, repr(ab))
        check("abelianization is F* x F*", ab["is_torus_squared"], repr(ab))
        report["abelianization"] = ab
    report["graph_of_groups"] = G
    report["quotient"] = Q
    return report


def _borel_keys(field, upper):
    """The sorted `Matrix2.key()`s, packed rows, of [[alpha, b],[0, beta]]
    with b constant, or of [[alpha, 0],[c*t, beta]] with c constant; the
    two junction vertex groups of the (t)-level line."""
    units = range(1, field.q)
    return sorted(((a,), (c,) if c else (), (), (b,)) if upper
                  else ((a,), (), (0, c) if c else (), (b,))
                  for a in units for b in units for c in range(field.q))


__all__ = [
    "PresentationError", "PresentationInconsistency", "smith_normal_form",
    "GogEdge", "CuspGroupDescriptor", "GraphOfGroups", "build_graph_of_groups",
    "Presentation", "emit_presentation", "presentation_text",
    "presentation_json", "abelianization_of_line_amalgam",
    "amalgam_example_check",
]
