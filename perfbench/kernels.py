"""Microbenchmarks of the `algebra` layer on seeded operands.

Operand sizes follow what the census and amalgam workloads feed `act`: at
q=9, D=t, depth 8 the matrix entries reach degree 7 and most products are a
polynomial times a constant; at q=2, depth 12 the entries reach degree 11
and the expansions at infinity are of degree-8/degree-9 quotients with
cutoff 10.  The irreducibility test runs on degree-6 irreducibles over F_9,
the largest level factors the queries workload parses.
"""

from __future__ import annotations

import random
import statistics

from clock import HostClock
from gf import Field

REPEATS = 5


def _per_op(fn, operands, scale):
    """Median over REPEATS of the time per operand, scaled to the reference
    host speed (clock.py), times `scale`."""
    with HostClock() as clock:
        for _ in range(REPEATS):
            clock.time(None, fn, operands)
    return statistics.median(scaled for _, _, scaled in clock.intervals()
                             ) / len(operands) * scale


def kernel_metrics(bq, seed):
    rng = random.Random(seed)
    alg = bq.algebra
    f2, f9 = alg.FieldSpec(2), alg.FieldSpec(3, 2)

    def poly(field, deg, monic=False):
        lead = 1 if monic else rng.randrange(1, field.q)
        return alg.Polynomial(field, [rng.randrange(field.q)
                                      for _ in range(deg)] + [lead])

    def rf(field, num_deg, den_deg):
        return alg.RationalFunction(poly(field, num_deg),
                                    poly(field, den_deg, monic=True))

    def elements(field, n):
        return [(field.element(rng.randrange(field.q)),
                 field.element(rng.randrange(field.q))) for _ in range(n)]

    def mul_all(pairs):
        for a, b in pairs:
            a * b

    def divmod_all(pairs):
        for a, b in pairs:
            divmod(a, b)

    def expand_all(fs):
        for f in fs:
            alg.expand_at_infinity(f, 10)

    def irreducible_all(fs):
        for f in fs:
            if not f.is_irreducible():
                raise AssertionError("%s is irreducible" % f)

    F9 = Field(9)
    irreducibles = [alg.Polynomial(f9, F9.random_irreducible(6, rng))
                    for _ in range(3)]
    units = {"ns": 1e9, "us": 1e6, "ms": 1e3}
    kernels = (
        ("algebra.q2.fq_mul_ns", mul_all, elements(f2, 4096)),
        ("algebra.q9.fq_mul_ns", mul_all, elements(f9, 4096)),
        ("algebra.q9.poly_mul_us", mul_all,
         [(poly(f9, 7), poly(f9, 7)) for _ in range(256)]),
        ("algebra.q2.poly_divmod_us", divmod_all,
         [(poly(f2, 11), poly(f2, 4)) for _ in range(256)]),
        ("algebra.q9.rf_mul_us", mul_all,
         [(rf(f9, 7, 3), rf(f9, 7, 3)) for _ in range(64)]),
        ("algebra.q2.expand_at_infinity_us", expand_all,
         [rf(f2, 8, 9) for _ in range(64)]),
        ("algebra.q9.is_irreducible_ms", irreducible_all, irreducibles),
    )
    out = {}
    for name, fn, operands in kernels:
        unit = name.rsplit("_", 1)[1]
        out[name] = (_per_op(fn, operands, units[unit]), unit)
    return out
