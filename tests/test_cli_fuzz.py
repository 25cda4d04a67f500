"""Seeded fuzzing of the command line: commands over valid and invalid
fields, levels, vertices, depths and windows, over-long digit strings
among them, each run in process through `btquot.cli.main`.

Every command must return 0, 2 or 3 without raising; 3 only where the
exact cusp count was replaced by -1, a count below every certified one.
Levels have degree <= 3 and depths are at most 7, so a seed runs in well
under a second: `t^99` at depth 6 alone takes some 15 s.  A second slice
draws exponents near 10^8 and 10^20, in vertex terms and in levels: the
degree cap refuses each before any dense list is made, so each such
command exits 2 within a second.
"""

import contextlib
import io
import random
import time

import pytest

import btquot.cli
from btquot.cli import main

LONG = "9" * 5000   # more digits than `int` reads

# (field arguments, q): valid fields, then invalid ones, whose q only
# bounds the coefficients of the vertices drawn with them
FIELDS = [
    (["--p", "2"], 2), (["--p", "3"], 3), (["--p", "5"], 5),
    (["--p", "2", "--s", "2"], 4), (["--p", "3", "--s", "2"], 9),
    (["--p", "2", "--s", "2", "--modulus", "g^2+g+1"], 4),
    (["--p", "4"], 4), (["--p", "1"], 2), (["--p", "0"], 2),
    (["--p", "-3"], 3), (["--p", "2", "--s", "0"], 2),
    (["--p", "2", "--s", "-1"], 2), (["--p", "2", "--s", "11"], 2),
    (["--p", "2", "--s", "2", "--modulus", "g^2+1"], 4),
    (["--p", "3", "--modulus", "g^2+1"], 3),
    (["--p", "2", "--s", "2", "--modulus", "x"], 4),
    (["--p", LONG], 2), (["--p", "two"], 2),
]

# valid levels (at some q), then invalid ones
LEVELS = ["0", "t", "t+1", "t^2", "t;t+1", "t^3", "(t+1)^2", "t^2+t+1",
          "t^2;t+1", "t^2+1", "2*t+1", "t;t", "t^0", "", ";", "t^", "x",
          "(t", "t^" + LONG, "t^%s+1" % LONG, "%s*t" % LONG, "t^²",
          "t+%s" % LONG]


def vertex(rng, q):
    """A vertex text: mostly valid, r in [-4, 6] with up to three terms
    below r, else one of the malformed or out-of-range forms."""
    if rng.random() < 0.75:
        r = rng.randint(-4, 6)
        exps = sorted(rng.sample(range(r - 6, r), rng.randint(0, 3)))
        terms = ["%d*s^%d" % (rng.randrange(1, q + 1), e) for e in exps]
        return "r=%d;a=%s" % (r, "+".join(terms) or "0")
    return rng.choice(["r=;a=0", "a=0", "r=1", "r=1;a=1*s^5",
                       "r=2;a=1*s^0+1*s^0", "r=1;a=%s*s^0" % LONG,
                       "r=%s;a=0" % LONG, "r=1;a=1*s^-%s" % LONG,
                       "r=-99999999;a=0", "r=x;a=0", "r=1;a=1*t^0"])


def command(rng):
    """(args, injected): one command, and whether its exact cusp count is
    replaced by -1."""
    field, q = rng.choice(FIELDS[:6] if rng.random() < 0.7 else FIELDS[6:])
    kind = rng.choice(["quotient", "cusps", "amalgam", "formula", "reduce",
                       "stab", "orbit"])
    args = [kind] + field
    if kind != "reduce":
        args += ["--level", rng.choice(LEVELS[:9] if rng.random() < 0.7
                                       else LEVELS[9:])]
    if kind in ("quotient", "cusps", "amalgam"):
        good = rng.random() < 0.8
        args += ["--depth", rng.choice(["5", "6", "7"] if good else
                                       ["1", "3", "0", "-2", "deep", LONG]),
                 "--window", rng.choice(["2", "3"] if good else
                                        ["1", "4", "0", "-1", "x"])]
    if kind == "quotient":
        args += ["--format", rng.choice(["text", "json", "dot", "xml"])]
    if kind == "amalgam":
        args += ["--format", rng.choice(["text", "json"])]
    if kind == "formula":
        args += ["--pic-r-order", rng.choice(["1", "2", "infinite", "abc",
                                              LONG, "-1"])]
    if kind in ("reduce", "stab", "orbit"):
        args += ["--vertex", vertex(rng, q)]
    if kind == "orbit":
        args += ["--vertex2", vertex(rng, q)]
    if kind in ("stab", "orbit") and q <= 3 and rng.random() < 0.3:
        # the oracles enumerate q^(n+3) elements or more: near the base
        # vertex only
        args[args.index("--vertex") + 1] = rng.choice(["r=0;a=0", "r=1;a=0",
                                                       "r=-1;a=0"])
        args.append("--brute-force")
    return args, kind == "cusps" and rng.random() < 0.5


@pytest.mark.parametrize("seed", range(5))
def test_fuzzed_commands_exit_cleanly(seed, monkeypatch):
    rng = random.Random(seed)
    injected = [False]

    def cusp_count(level, q):
        return (-1, True) if injected[0] else count(level, q)

    count = btquot.cli.cusp_count
    monkeypatch.setattr(btquot.cli, "cusp_count", cusp_count)
    codes = []
    for _ in range(150):
        args, injected[0] = command(rng)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        assert code in ((2, 3) if injected[0] else (0, 2)), (args, code,
                                                             err.getvalue())
        assert "Traceback" not in err.getvalue(), args
        if code == 2:
            assert err.getvalue().strip(), args
        codes.append(code)
    assert {0, 2, 3} <= set(codes)


# exponents far above `MAX_DEGREE`, near 10^8 and 10^20
HUGE = ["99999999", "100000000", "99999999999999999999",
        "100000000000000000000"]


def huge_vertex(rng, q):
    """A vertex text with one term s^e, |e| near 10^8 or 10^20, at a small
    or a huge radius exponent, beside a small term or alone."""
    e = rng.choice(HUGE)
    r = rng.choice(["0", "3", "-4", e, "-" + e])
    terms = ["%d*s^%s%s" % (rng.randrange(1, q), rng.choice(["", "-"]), e)]
    if rng.random() < 0.5:
        terms.insert(rng.randrange(2), "1*s^-9")
    return "r=%s;a=%s" % (r, "+".join(terms))


def huge_level(rng):
    """A level with an exponent near 10^8 or 10^20, as a multiplicity or
    inside a factor."""
    e = rng.choice(HUGE)
    return rng.choice(["t^%s", "(t+1)^%s", "t^%s+1", "t;(t+1)^%s",
                       "t+1;t^2+t+1;t^%s", "(t^%s+t)^2"]) % e


def huge_command(rng):
    """One command with a huge exponent in its vertex or in its level."""
    field, q = rng.choice(FIELDS[:6])
    kind = rng.choice(["quotient", "cusps", "amalgam", "formula", "reduce",
                       "stab", "orbit"])
    args = [kind] + field
    vertex = kind == "reduce" or (kind in ("stab", "orbit")
                                  and rng.random() < 0.5)
    if kind != "reduce":
        args += ["--level", "t" if vertex else huge_level(rng)]
    if kind in ("quotient", "cusps", "amalgam"):
        args += ["--depth", "5"]
    if kind in ("reduce", "stab", "orbit"):
        args += ["--vertex", huge_vertex(rng, q) if vertex else "r=1;a=0"]
    if kind == "orbit":
        args += ["--vertex2", "r=2;a=1*s^1"]
        if vertex and rng.random() < 0.5:
            i = args.index("--vertex")
            args[i + 1], args[-1] = args[-1], args[i + 1]
    return args


@pytest.mark.parametrize("seed", range(3))
def test_huge_exponents_exit_2_within_a_second(seed):
    rng = random.Random(100 + seed)
    for _ in range(40):
        args = huge_command(rng)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        assert time.perf_counter() - start < 1.0, args
        assert (code, out.getvalue()) == (2, ""), (args, err.getvalue())
        assert err.getvalue().startswith("error: "), args
        assert "Traceback" not in err.getvalue(), args
