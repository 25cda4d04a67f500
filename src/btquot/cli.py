"""Command-line front end.

Every invocation is deterministic: the same arguments produce byte-identical
output.  Exit codes: 0 success, 2 bad input (an error class of the package
or an OSError), 3 internal consistency failures (a certified count above
the closed-form count or bound, or short of an exact count when every
boundary class ends a certified chain; a failed self-test; computed data
contradicting each other; or any other ValueError, "error: internal"), so
the tool can serve as a verification oracle in CI.  A shortfall while some
boundary class ends no certified chain, beyond which any number of cusps
may lie, prints UNCERTIFIED and exits 0.
"""

from __future__ import annotations

import argparse
import sys

from .algebra import AlgebraError, FieldSpec, Polynomial, parse_polynomial
from .btree import BallVertex, TreeError
from .formulas import FormulaError, PicardData, cusp_count, formula_report
from .hecke import (HeckeError, HeckeInconsistency, orbit_equivalent,
                    orbit_equivalent_brute_force, parse_level, reduce_vertex,
                    stabilizer, stabilizer_brute_force)
from .presentation import (PresentationError, build_graph_of_groups,
                           emit_presentation, presentation_json,
                           presentation_text)
from .quotient import (InconsistencyError, QuotientError, build_quotient,
                       certify_cusps, check_window, export)


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3


def _field_from_args(args):
    modulus = None
    if args.modulus:
        coeff_poly = parse_polynomial(args.modulus, FieldSpec(args.p),
                                      var="g")
        modulus = coeff_poly.packed_coeffs
    return FieldSpec(args.p, args.s, modulus)


def _write_output(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(sub, level=True, depth=True):
    sub.add_argument("--p", type=int, required=True,
                     help="prime characteristic")
    sub.add_argument("--s", type=int, default=1, help="extension degree")
    sub.add_argument("--modulus", default=None,
                     help="extension modulus in g, e.g. 'g^2+g+1'")
    if level:
        sub.add_argument("--level", default="0",
                         help="level factors 'poly^mult;...', e.g. 't^3'")
    if depth:
        sub.add_argument("--depth", type=int, default=10)
        sub.add_argument("--window", type=int, default=3)
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def integer_or_infinite(text):
    """The order of Pic(R) that --pic-r-order reads: an int or 'infinite'."""
    return text if text == "infinite" else int(text)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="btquot",
        description="Quotients of the Bruhat-Tits tree by Hecke congruence "
                    "subgroups over F_q[t]: graphs, cusps, closed-form "
                    "counts, and amalgam data.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("quotient", help="build and export the quotient graph")
    _add_common(sp)
    sp.add_argument("--format", dest="fmt", default="text",
                    choices=["text", "json", "dot"])

    sp = sub.add_parser("cusps", help="certify cusps and compare with the "
                                      "closed-form count")
    _add_common(sp)

    sp = sub.add_parser("formula", help="closed-form counts and verdicts")
    _add_common(sp, depth=False)
    sp.add_argument("--g2-order", type=int, default=1)
    sp.add_argument("--index-theorem", type=int, default=1)
    sp.add_argument("--index-component", type=int, default=1)
    sp.add_argument("--pic-r-order", default="1", type=integer_or_infinite)

    sp = sub.add_parser("reduce", help="reduce a vertex to the standard ray")
    _add_common(sp, level=False, depth=False)
    sp.add_argument("--vertex", required=True,
                    help="vertex text 'r=<int>;a=<c*s^e+...>'")

    sp = sub.add_parser("stab", help="stabilizer of a vertex")
    _add_common(sp, depth=False)
    sp.add_argument("--brute-force", action="store_true",
                    help="cross-check with enumeration oracles")
    sp.add_argument("--vertex", required=True)

    sp = sub.add_parser("orbit", help="decide orbit equivalence of two "
                                      "vertices")
    _add_common(sp, depth=False)
    sp.add_argument("--brute-force", action="store_true",
                    help="cross-check with enumeration oracles")
    sp.add_argument("--vertex", required=True)
    sp.add_argument("--vertex2", required=True)

    sp = sub.add_parser("amalgam", help="graph of groups and presentation")
    _add_common(sp)
    sp.add_argument("--format", dest="fmt", default="text",
                    choices=["text", "json"])

    sp = sub.add_parser("selftest", help="run the acceptance battery")
    sp.add_argument("--fast", action="store_true",
                    help="reduced depths and sample counts")
    sp.add_argument("--out", default=None)
    return ap


def _cmd_quotient(args):
    field = _field_from_args(args)
    level = parse_level(args.level, field)
    certify = args.depth >= args.window + 2
    if certify or args.window < 2:
        check_window(args.depth, args.window)
    Q = build_quotient(level, args.depth)
    if certify:
        certify_cusps(Q, args.window)
    else:
        sys.stderr.write("note: depth %d is below window + 2 = %d; cusps "
                         "were not certified\n"
                         % (args.depth, args.window + 2))
    _write_output(args, export(Q, args.fmt))
    return EXIT_OK


def _cmd_cusps(args):
    field = _field_from_args(args)
    level = parse_level(args.level, field)
    check_window(args.depth, args.window)
    Q = build_quotient(level, args.depth)
    cusps = certify_cusps(Q, args.window)
    formula, exact = cusp_count(level, field.q)
    split = sum(1 for c in cusps if c.splitness == "split")
    nonsplit = sum(1 for c in cusps if c.splitness == "nonsplit")
    lines = ["certified=%d formula=%s exact=%s" % (len(cusps), formula,
                                                   str(exact).lower())]
    lines.append("split=%d nonsplit=%d indeterminate=%d"
                 % (split, nonsplit, len(cusps) - split - nonsplit))
    for c in sorted(cusps, key=lambda c: c.germ):
        lines.append("cusp germ=%r split=%s tower=%r"
                     % (c.germ, c.splitness, c.stab_tower))
    # beyond a boundary class that ends no certified chain the quotient may
    # hold any number of cusps, which a larger depth certifies, so a
    # shortfall is a contradiction only when no such class is left
    open_ends = len({c.id for c in Q.classes if not c.expanded}
                    - {c.chain[-1] for c in cusps})
    shortfall = formula - len(cusps) if exact else 0
    mismatch = exact and (shortfall < 0 or (shortfall > 0 and not open_ends))
    overflow = (not exact) and isinstance(formula, int) \
        and len(cusps) > formula
    if shortfall > 0 and not mismatch:
        lines.append("UNCERTIFIED: depth %d certifies %d of %d cusps; "
                     "boundary classes ending no certified chain: %d"
                     % (args.depth, len(cusps), formula, open_ends))
    if mismatch:
        lines.append("MISMATCH: exact formula disagrees with certification")
    if overflow:
        lines.append("MISMATCH: certified count exceeds the upper bound")
    _write_output(args, "\n".join(lines) + "\n")
    return EXIT_INCONSISTENT if (mismatch or overflow) else EXIT_OK


def _cmd_formula(args):
    field = _field_from_args(args)
    level = parse_level(args.level, field)
    pic = PicardData(g2_order=args.g2_order,
                     index_theorem=args.index_theorem,
                     index_component=args.index_component,
                     pic_R_order=args.pic_r_order)
    rep = formula_report(level, field.q, pic)
    lines = ["level=%s q=%d" % (level, field.q)]
    if rep.serre_case:
        lines.append("serre_case=true c_HD=%s exact=true" % rep.c_HD)
    else:
        lines.append("alpha=%s" % rep.alpha)
        lines.append("c_HD=%d exact=%s" % (rep.c_HD, str(rep.exact).lower()))
        if rep.card_D is not None:
            lines.append("card_D=%d card_I=%d" % (rep.card_D, rep.card_I))
        else:
            lines.append("card_D=n/a card_I=n/a (hypotheses not met)")
    lines.append("verdict=%s" % rep.abelianization)
    _write_output(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_reduce(args):
    field = _field_from_args(args)
    v = BallVertex.from_text(args.vertex, field)
    red = reduce_vertex(v)
    names = ["I" if f is None else "tau[%s]" % Polynomial._of(field, f)
             for f in red.word]
    lines = ["vertex=%s" % v.to_text(),
             "level=%d" % red.level_n,
             "word=[%s]" % ", ".join(names),
             "g=%r" % red.g]
    _write_output(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_stab(args):
    field = _field_from_args(args)
    level = parse_level(args.level, field)
    v = BallVertex.from_text(args.vertex, field)
    sd = stabilizer(v, level)
    lines = ["vertex=%s level=%s" % (v.to_text(), level),
             "order=%d" % sd.order,
             "unipotent_dim=%d" % sd.unipotent_dim(),
             "torus_pairs=%s" % (sorted(sd.torus_pairs()),)]
    for i, g in enumerate(sd.generators()):
        lines.append("gen%d=%r" % (i, g))
    agree = True
    if args.brute_force:
        bf = stabilizer_brute_force(v, level, verify_action=True)
        agree = len(bf) == sd.order
        lines.append("brute_force_order=%d agree=%s"
                     % (len(bf), str(agree).lower()))
    _write_output(args, "\n".join(lines) + "\n")
    return EXIT_OK if agree else EXIT_INCONSISTENT


def _cmd_orbit(args):
    field = _field_from_args(args)
    level = parse_level(args.level, field)
    v = BallVertex.from_text(args.vertex, field)
    w = BallVertex.from_text(args.vertex2, field)
    h = orbit_equivalent(v, w, level)
    lines = ["equivalent=%s" % ("false" if h is None else "true")]
    if h is not None:
        lines.append("witness=%r" % h)
    agree = True
    if args.brute_force:
        slow = orbit_equivalent_brute_force(v, w, level)
        agree = (slow is None) == (h is None)
        lines.append("brute_force_agree=%s" % str(agree).lower())
    _write_output(args, "\n".join(lines) + "\n")
    return EXIT_OK if agree else EXIT_INCONSISTENT


def _cmd_amalgam(args):
    field = _field_from_args(args)
    level = parse_level(args.level, field)
    check_window(args.depth, args.window)
    Q = build_quotient(level, args.depth)
    certify_cusps(Q, args.window)
    G = build_graph_of_groups(Q)
    P = emit_presentation(G)
    text = presentation_json(P, Q) if args.fmt == "json" \
        else presentation_text(P, Q)
    _write_output(args, text)
    return EXIT_OK


def _cmd_selftest(args):
    from .selftest import run_all
    lines, passed = run_all(fast=args.fast)
    _write_output(args, "\n".join(lines) + "\n")
    return EXIT_OK if passed else EXIT_INCONSISTENT


_DISPATCH = {
    "quotient": _cmd_quotient,
    "cusps": _cmd_cusps,
    "formula": _cmd_formula,
    "reduce": _cmd_reduce,
    "stab": _cmd_stab,
    "orbit": _cmd_orbit,
    "amalgam": _cmd_amalgam,
    "selftest": _cmd_selftest,
}


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _DISPATCH[args.command](args)
    except (InconsistencyError, HeckeInconsistency) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_INCONSISTENT
    except (AlgebraError, HeckeError, TreeError, QuotientError,
            PresentationError, FormulaError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except ValueError as exc:
        # bad input raises the package's own classes: this is a fault
        sys.stderr.write("error: internal: %s\n" % exc)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
