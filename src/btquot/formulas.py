"""Closed-form cusp counts and structure verdicts as pure arithmetic.

The evaluators take the Picard-group quantities as inputs so they remain
usable for general base curves; the defaults are the values for the
projective line with a degree-one place at infinity (trivial Picard data),
which is the only case the tree pipeline itself computes.  Every count is
an int or `math.inf`.
"""

from __future__ import annotations

import math


class FormulaError(ValueError):
    pass


class PreconditionError(FormulaError):
    pass


VERDICT_FG = "finitely-generated"
VERDICT_INF_FP = "infinite-Fp-part"
VERDICT_OUT = "out-of-theorem"

INFINITE = "infinite"


class PicardData:
    """Class-group quantities entering the counts.

    g2_order: order of the maximal exponent-2 subgroup of Pic(R).
    index_theorem: [2Pic(C) + <P_inf> : <P_inf>].
    index_component: [2Pic(C) + <P_a1,...,P_au, P_inf> : <P_inf>], the index
        entering the per-component count of the classifying graph.
    pic_R_order: |Pic(R)|, or the string "infinite".
    Defaults are the trivial values for P^1 with deg(P_inf) = 1.
    """

    __slots__ = ("g2_order", "index_theorem", "index_component",
                 "pic_R_order")

    def __init__(self, g2_order=1, index_theorem=1, index_component=1,
                 pic_R_order=1):
        self.g2_order, self.index_theorem = g2_order, index_theorem
        self.index_component, self.pic_R_order = index_component, pic_R_order
        for name in ("g2_order", "index_theorem", "index_component"):
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= 1):
                raise FormulaError("%s must be a positive integer" % name)
        v = self.pic_R_order
        if v != INFINITE and not (isinstance(v, int) and v >= 1):
            raise FormulaError("pic_R_order must be a positive integer or "
                               "'infinite'")


# the Picard data of P^1, taken when a caller passes none
_TRIVIAL_PICARD = PicardData()


def alpha(level, q):
    """Cusps per fiber over the level-zero classifying ray:
    1 + (q^e - 1)/(q - 1) with e = sum_i deg(P_i) * floor(n_i / 2).

    Counted by summing the semi-decomposition fibers, which factor prime by
    prime into a geometric series; 1 accounts for the totally decomposed
    class.  An int: q^e = 1 (mod q - 1), so the division is exact.
    """
    if level.is_zero():
        raise FormulaError("alpha is undefined for the zero level")
    e = sum(p.degree * (m // 2) for p, m in level.primes)
    return 1 + (q ** e - 1) // (q - 1)


def cusp_count(level, q, pic=None):
    """(c(H_D), exact) where c(H_D) = 2^r * |g(2)| * index * alpha(D).

    The count is exact when g(2) is trivial and every multiplicity is odd;
    otherwise it is an upper bound for the certified count.  The zero level
    is the full GL2(R) case, counted by |Pic(R)| and always exact.
    """
    pic = pic or _TRIVIAL_PICARD
    if level.is_zero():
        value = math.inf if pic.pic_R_order == INFINITE else pic.pic_R_order
        return value, True
    return _cusp_count(level, pic, alpha(level, q))


def _cusp_count(level, pic, a):
    """`cusp_count` at a nonzero level, given a = alpha(D)."""
    c = (2 ** level.r) * pic.g2_order * pic.index_theorem * a
    exact = (pic.g2_order == 1
             and all(m % 2 == 1 for m in level.multiplicities()))
    return c, exact


def split_counts(level, q, pic=None):
    """(number of split cusps, number of non-split cusps).

    Requires every multiplicity odd and g(2) trivial; the split count is
    2^r * index and the rest of c(H_D) is non-split.
    """
    pic = pic or _TRIVIAL_PICARD
    return _split_counts(level, pic, cusp_count(level, q, pic)[0])


def _split_counts(level, pic, c):
    """`split_counts` given c = c(H_D)."""
    if level.is_zero():
        raise PreconditionError("split counts need a nonzero level")
    if any(m % 2 == 0 for m in level.multiplicities()):
        raise PreconditionError(
            "split counts require every multiplicity odd; %s violates this"
            % level)
    if pic.g2_order != 1:
        raise PreconditionError("split counts require trivial g(2); "
                                "g2_order=%d" % pic.g2_order)
    card_d = (2 ** level.r) * pic.index_theorem
    card_i = c - card_d
    if card_i < 0:
        raise FormulaError("split count %d exceeds total %d" % (card_d, c))
    return card_d, card_i


def classifying_cusp_count(level, q, pic=None):
    """Cusps of one connected component of the level-D classifying graph:
    alpha(D) times the component index."""
    pic = pic or _TRIVIAL_PICARD
    if level.is_zero():
        raise FormulaError("classifying count is undefined for level zero")
    return alpha(level, q) * pic.index_component


def abelianization_verdict(level):
    """Shape of the abelianization of H_D under the odd-multiplicity,
    trivial-g(2) hypotheses: finitely generated iff every n_i = 1, an
    infinite F_p-elementary direct factor otherwise; even multiplicities
    fall outside the statement."""
    mults = level.multiplicities()
    if any(m % 2 == 0 for m in mults):
        return VERDICT_OUT
    if all(m == 1 for m in mults):
        return VERDICT_FG
    return VERDICT_INF_FP


class FormulaReport:
    __slots__ = ("level", "q", "alpha", "c_HD", "exact", "serre_case",
                 "card_D", "card_I", "abelianization")

    def __init__(self, level, q, alpha, c_HD, exact, serre_case, card_D,
                 card_I, abelianization):
        self.level, self.q = level, q
        self.alpha = alpha             # int (None for level zero)
        self.c_HD = c_HD               # int or math.inf
        self.exact, self.serre_case = exact, serre_case
        self.card_D = card_D           # int or None when hypotheses fail
        self.card_I = card_I
        self.abelianization = abelianization


def formula_report(level, q, pic=None):
    pic = pic or _TRIVIAL_PICARD
    serre = level.is_zero()
    a = None if serre else alpha(level, q)
    c, exact = (cusp_count(level, q, pic) if serre
                else _cusp_count(level, pic, a))
    # split counts need an exact count at a nonzero level
    card_d, card_i = ((None, None) if serre or not exact
                      else _split_counts(level, pic, c))
    return FormulaReport(level=level, q=q, alpha=a, c_HD=c, exact=exact,
                         serre_case=serre, card_D=card_d, card_I=card_i,
                         abelianization=abelianization_verdict(level))


__all__ = [
    "FormulaError", "PreconditionError", "PicardData", "alpha", "cusp_count",
    "split_counts", "classifying_cusp_count", "abelianization_verdict",
    "FormulaReport", "formula_report", "VERDICT_FG", "VERDICT_INF_FP",
    "VERDICT_OUT", "INFINITE",
]
