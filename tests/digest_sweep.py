"""Byte-identity sweep of the command line: a fixed set of commands, each
run in process through `btquot.cli.main`, and one sha256 per command of
its exit code, stdout and stderr.

    python tests/digest_sweep.py          # check every command
    python tests/digest_sweep.py --write  # regenerate golden

The script puts the checkout's `src` first on `sys.path` itself.

The set covers `quotient` (json, text, dot), `cusps`, `amalgam` (text,
json), `stab` and `orbit` (some with `--brute-force`) and `reduce`: every
level of degree <= 3 at q = 2, a fixed choice of levels of degree <= 3 at
q = 3 and of degree <= 2 at q = 4, 5, 7, 8, 9, depths 5 to 8, D = 0 up to
q = 31, the cusps of two levels of degree 10 and 11 at q = 2, and three
levels of degree 6 and 7 at q = 2, 3 built to depths 12 to 16.  `formula`
runs on every level above, a few times with Picard data (`--g2-order`,
`--pic-r-order`), after all other commands, so that its lines were added
to the golden without moving any other; a few `orbit` commands on chosen
pairs (`ORBIT_PAIRS`) follow, for the same reason, and three deep
`amalgam` commands (`DEEP_AMALGAMS`) come last.  `selftest` is left
out, as it prints timings.  The golden, `golden/digests.txt`, holds one line per
command: its digest, its exit code and the command.  Regenerate it only when an output changes on purpose, in
a commit of its own that gives the reason for each changed line.
"""

import contextlib
import hashlib
import io
import pathlib
import shlex
import sys

DIGESTS_GOLDEN = pathlib.Path(__file__).parent / "golden" / "digests.txt"
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

# (p, s) -> the levels swept over that field
LEVELS = {
    (2, 1): ["0", "t", "t+1", "t^2", "t;t+1", "(t+1)^2", "t^2+t+1", "t^3",
             "(t+1)^3", "t^2;t+1", "t;(t+1)^2", "t;t^2+t+1",
             "t+1;t^2+t+1", "t^3+t+1", "t^3+t^2+1"],
    (3, 1): ["0", "t", "t+2", "t^2", "t;t+1", "(t+2)^2", "t^2+1",
             "t^2+t+2", "t^2+2*t+2", "t^3", "t^2;t+1", "t;t+1;t+2",
             "t;(t+1)^2", "t;t^2+1", "t^3+2*t+1"],
    (2, 2): ["0", "t", "t+3", "t^2", "t;t+1", "(t+2)^2", "t^2+t+2",
             "t^2+3*t+1"],
    (5, 1): ["0", "t", "t+4", "t^2", "t;t+1", "t^2+2", "t^2+t+1"],
    (7, 1): ["0", "t", "t+3", "t^2", "t;t+1", "t^2+1"],
    (2, 3): ["0", "t", "t+5", "t^2", "t;t+1"],
    (3, 2): ["0", "t", "t+7", "t^2", "t;t+1"],
}

# primes at which only D = 0 is swept, beside the fields above
ZERO_LEVEL_PRIMES = [11, 13, 17, 19, 23, 29, 31]

# levels above degree 3 whose cusps are swept at q = 2: at depth 6 a cusp
# count falls short of the exact count by more than the open boundary
# classes, as the quotient holds many cusps beyond one class
DEEP_CUSP_LEVELS = ["t^11", "t^5;(t+1)^5"]

# (p, level, depth) of deep builds whose cusps are swept: a few hundred
# classes each, most of them at the same reduction level, so a vertex is
# told apart from many classes that share its stabilizer
DEEP_BUILDS = [(3, "t^3;(t+1)^3", 14), (2, "t^4;(t+1)^3", 16),
               (3, "t^4;(t+1)^2", 14)]

# (p, s, level, Picard data) of the `formula` commands that pass options
PICARD_FORMULAS = [
    (3, 1, "t;t+1", ["--g2-order", "2"]),
    (3, 1, "t;t+1", ["--pic-r-order", "infinite"]),
    (5, 1, "t^2+2", ["--g2-order", "2", "--pic-r-order", "infinite"]),
    (2, 2, "t", ["--pic-r-order", "infinite"]),
    (2, 1, "t^3", ["--g2-order", "2"]),
    (3, 2, "t;t+1", ["--pic-r-order", "2"]),
]


# (p, level, vertex, vertex2) of `orbit` commands run last: four pairs whose
# witness lies on a torus line alpha = mu*beta with mu = 2, 4, 2 and 3, the
# second vertex the first moved by [[a, 0], [N_D, 1]], and three pairs whose
# points have distinct e = gcd(X, N_D) of equal degree, at levels 1 and 0
ORBIT_PAIRS = [
    (5, "t^2", "r=2;a=1*s^1+2*s^-1", "r=8;a=3*s^2+1*s^5+2*s^7"),
    (7, "t^2", "r=4;a=1*s^3+2*s^1", "r=6;a=4*s^2+5*s^3+1*s^4+4*s^5"),
    (5, "t;t+1", "r=2;a=1*s^1+2*s^-1",
     "r=8;a=3*s^2+2*s^3+3*s^4+3*s^5+1*s^6+2*s^7"),
    (7, "t;t+1", "r=2;a=2*s^1+6*s^-1+4*s^-2",
     "r=10;a=5*s^2+2*s^3+5*s^4+2*s^5+2*s^6+2*s^7+3*s^8+1*s^9"),
    (3, "t;t+1", "r=9;a=1*s^1+2*s^5+1*s^6+2*s^7+2*s^8", "r=5;a=1*s^1+1*s^4"),
    (2, "t;t+1", "r=3;a=1*s^1+1*s^2", "r=3;a=1*s^1"),
    (3, "t;t+1", "r=8;a=1*s^1+1*s^5+1*s^7", "r=8;a=1*s^1+2*s^4+2*s^7"),
]

# (p, s, level, depth) of `amalgam` commands run after the orbit pairs: deep
# presentations with 288, 73 and 7 witnesses g_y, whose relations and
# witnesses are each checked by matrix products
DEEP_AMALGAMS = [(3, 1, "t^3;(t+1)^3", 14), (2, 1, "t^4;(t+1)^3", 14),
                 (2, 2, "t^2;t+1", 9)]


def _vertices(q):
    """Eight vertex texts over F_q, r from -3 to 4: a center with terms at
    s^(r-1), s^(r-3) and s^(r-4), its coefficients read off a fixed
    pattern in the vertex's index (0 for some)."""
    out = []
    for i in range(8):
        r = -3 + i
        terms = ["%d*s^%d" % (c, e) for c, e in
                 [((3 * i + 1) % q, r - 1), ((5 * i + 2) % q, r - 3),
                  ((i * i) % q, r - 4)] if c]
        out.append("r=%d;a=%s" % (r, "+".join(terms) or "0"))
    return out


def _translate(vertex, q, k):
    """The vertex r=R;a=... moved by the translation by c*t^k, c in F_q*,
    which lies in every H_D, with k raised to 1 - R if it is below, so that
    the term c*s^-k lies above the ball's radius: the term is added to the
    center unless some term there has that exponent."""
    head, center = vertex.split(";a=")
    k = max(k, 1 - int(head[2:]))
    exps = {term.split("^")[1] for term in center.split("+") if "^" in term}
    if str(-k) in exps:
        return vertex
    term = "%d*s^%d" % (1 + k % (q - 1), -k)
    return "%s;a=%s" % (head, term if center == "0" else
                        center + "+" + term)


def _field_args(p, s):
    return ["--p", str(p)] + (["--s", str(s)] if s > 1 else [])


def commands():
    """The sweep's commands, in a fixed order."""
    cmds = []
    for (p, s), levels in LEVELS.items():
        q = p ** s
        field = _field_args(p, s)
        verts = _vertices(q)
        for i, vertex in enumerate(verts):
            cmds.append(["reduce"] + field + ["--vertex", vertex])
        for j, level in enumerate(levels):
            common = field + ["--level", level]
            for fmt, depth in (("json", 6), ("text", 8), ("dot", 5)):
                cmds.append(["quotient"] + common
                            + ["--depth", str(depth), "--format", fmt])
            for depth in (5, 6, 7, 8):
                cmds.append(["cusps"] + common + ["--depth", str(depth)])
            cmds.append(["amalgam"] + common + ["--depth", "6"])
            cmds.append(["amalgam"] + common
                        + ["--depth", "7", "--format", "json"])
            for i, vertex in enumerate(verts):
                # the oracles enumerate q^(n+3) elements or more, so they
                # run only on small fields and near the base vertex
                brute = q <= 5 and -1 <= int(vertex[2:].split(";")[0]) <= 1 \
                    and (i + j) % 2 == 0
                cmds.append(["stab"] + common + ["--vertex", vertex]
                            + (["--brute-force"] if brute else []))
                other = _translate(vertex, q, (i + j) % 4) if i % 2 \
                    else verts[(i + j + 1) % len(verts)]
                cmds.append(["orbit"] + common
                            + ["--vertex", vertex, "--vertex2", other]
                            + (["--brute-force"] if brute else []))
    for p in ZERO_LEVEL_PRIMES:
        common = ["--p", str(p), "--level", "0"]
        for fmt in ("json", "text", "dot"):
            cmds.append(["quotient"] + common
                        + ["--depth", "5", "--format", fmt])
        cmds.append(["cusps"] + common + ["--depth", "5"])
        cmds.append(["amalgam"] + common + ["--depth", "5"])
        for vertex in _vertices(p)[2:6]:
            cmds.append(["stab"] + common + ["--vertex", vertex])
    for level in DEEP_CUSP_LEVELS:
        for depth in (6, 8):
            cmds.append(["cusps", "--p", "2", "--level", level, "--depth",
                         str(depth)])
    for p, level, depth in DEEP_BUILDS:
        cmds.append(["cusps", "--p", str(p), "--level", level, "--depth",
                     str(depth)])
    cmds.append(["quotient", "--p", "3", "--level", "t^3;(t+1)^3", "--depth",
                 "12", "--format", "json"])
    formulas = [(p, s, level) for (p, s), levels in LEVELS.items()
                for level in levels]
    formulas += [(2, 1, level) for level in DEEP_CUSP_LEVELS]
    formulas += [(p, 1, level) for p, level, _ in DEEP_BUILDS]
    for p, s, level in formulas:
        cmds.append(["formula"] + _field_args(p, s) + ["--level", level])
    for p, s, level, picard in PICARD_FORMULAS:
        cmds.append(["formula"] + _field_args(p, s) + ["--level", level]
                    + picard)
    for p, level, vertex, other in ORBIT_PAIRS:
        cmds.append(["orbit", "--p", str(p), "--level", level, "--vertex",
                     vertex, "--vertex2", other])
    for p, s, level, depth in DEEP_AMALGAMS:
        cmds.append(["amalgam"] + _field_args(p, s) + ["--level", level,
                                                       "--depth", str(depth)])
    return cmds


def run(args):
    """(exit code, stdout, stderr) of one command, run in process."""
    from btquot.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def digest_line(args):
    """'<sha256> <exit code> <command>' for one command."""
    code, out, err = run(args)
    blob = b"%d\n%s\0%s" % (code, out.encode("utf-8"), err.encode("utf-8"))
    return "%s %d %s" % (hashlib.sha256(blob).hexdigest(), code,
                         shlex.join(args))


def read_golden():
    return DIGESTS_GOLDEN.read_text(encoding="utf-8").splitlines()


def main(argv):
    lines = [digest_line(args) for args in commands()]
    if "--write" in argv:
        DIGESTS_GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print("wrote %d digests to %s" % (len(lines), DIGESTS_GOLDEN))
        return 0
    golden = read_golden()
    changed = [(old, new) for old, new in zip(golden, lines) if old != new]
    for old, new in changed:
        print("golden: %s\n   now: %s" % (old, new))
    if len(golden) != len(lines):
        print("the golden has %d lines, the sweep %d"
              % (len(golden), len(lines)))
    print("%d commands, %d changed" % (len(lines), len(changed)))
    return 1 if changed or len(golden) != len(lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
