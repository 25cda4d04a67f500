"""A walk through the exact arithmetic layer and the tree itself.

Vertices of the Bruhat-Tits tree of SL2 over K = F_q((1/t)) are closed
balls B_a^{|r|} in K; two balls are neighbors when one is a maximal proper
sub-ball of the other.  Everything below is exact, no floating point
anywhere.

Run:  python demos/01_tree_basics.py
"""

from btquot import (BallVertex, FieldSpec, LaurentFragment, Matrix2,
                    Polynomial, act, distance, distance_bfs,
                    distance_invariant_factors, expand_at_infinity,
                    parse_rational)

F3 = FieldSpec(3)

print("== the place at infinity of F_3(t) ==")
f = parse_rational("(t+1)/t^2", F3)
print("f =", f, " nu(f) =", f.valuation())
frag = expand_at_infinity(f, 5)
print("expansion of f in pi = 1/t below pi^5:", frag)
print("check: nu(f - fragment) =", (f - frag.to_rational()).valuation())

print()
print("== vertices as balls ==")
v0 = BallVertex.base(F3)                      # B_0^{|0|}, the class of O x O
v = BallVertex(F3, 2, LaurentFragment(F3, {-1: 1, 1: 2}, 2))
print("base vertex:", v0.to_text())
print("another vertex:", v.to_text(), " (ball of radius |pi^2|)")
print("its neighbors (parent first, then the q children):")
for u in v.neighbors():
    print("   ", u.to_text())

print()
print("== three ways to measure distance ==")
print("ball formula:      ", distance(v0, v))
print("invariant factors: ", distance_invariant_factors(v0, v))
print("breadth-first walk:", distance_bfs(v0, v))

print()
print("== the GL2 action ==")
tau = Matrix2.translation(Polynomial.t(F3))
inv = Matrix2.involution(F3)
print("tau_t . B_t^{|2|} =", act(tau, BallVertex(
    F3, 2, LaurentFragment(F3, {-1: 1}, 2))).to_text())
print("I . B_0^{|3|}     =", act(inv, BallVertex(
    F3, 3, LaurentFragment(F3, {}, 3))).to_text())
g = tau @ inv
w = act(g, v)
print("a composite g moves", v.to_text(), "to", w.to_text(),
      "; distances preserved:", distance(v0, v) == distance(act(g, v0), w))
