import itertools
import math

import pytest

from btquot.algebra import FieldSpec
from btquot.formulas import (INFINITE, VERDICT_FG, VERDICT_INF_FP,
                             VERDICT_OUT, FormulaError, PicardData,
                             PreconditionError, abelianization_verdict, alpha,
                             classifying_cusp_count, cusp_count,
                             formula_report, split_counts)
from btquot.hecke import parse_level

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = FieldSpec(2, 2)


def lvl(text, field=F2):
    return parse_level(text, field)


class TestAlpha:
    def test_degree_two_prime_cubed(self):
        # q=3, D = 3P with deg P = 2: 1 + (3^2 - 1)/2 = 5
        assert alpha(lvl("t^2+1^3", F3), 3) == 5

    def test_multiplicity_free_is_one(self):
        for text, field, q in [("t", F2, 2), ("t;t+1", F2, 2),
                               ("t;t+1;t^2+t+2", F4, 4)]:
            assert alpha(lvl(text, field), q) == 1

    def test_cubed_degree_one(self):
        assert alpha(lvl("t^3"), 2) == 2

    def test_mixed_multiplicities_factor_in_the_exponent(self):
        # floor halves add up in the exponent: for t^3;t+1 the correction is
        # (q^1 - 1)/(q - 1) = 1, so alpha = 2 (not 1)
        assert alpha(lvl("t^3;t+1"), 2) == 2
        assert alpha(lvl("t^3;t+1^3"), 2) == 1 + (2 ** 2 - 1)
        assert alpha(lvl("t^2"), 3) == 2

    def test_integral(self):
        """alpha is an int, 1 + q^0 + ... + q^(e-1) for the exponent e."""
        for q in (2, 3, 4, 5, 7, 8, 9):
            for text, e in (("t^2", 1), ("t^3", 1), ("t^5", 2),
                            ("t^3;t+1", 1)):
                a = alpha(lvl(text), q)
                assert type(a) is int and a == 1 + sum(
                    q ** i for i in range(e))

    def test_zero_level_rejected(self):
        with pytest.raises(FormulaError):
            alpha(lvl("0"), 2)


class TestCuspCount:
    def test_examples(self):
        assert cusp_count(lvl("t"), 2) == (2, True)
        assert cusp_count(lvl("t;t+1"), 2) == (4, True)
        assert cusp_count(lvl("t^3"), 2) == (4, True)
        assert cusp_count(lvl("t^3;t+1"), 2) == (8, True)

    def test_even_multiplicity_is_bound_only(self):
        c, exact = cusp_count(lvl("t^2", F3), 3)
        assert c == 4 and not exact

    def test_nontrivial_g2_is_bound_only(self):
        c, exact = cusp_count(lvl("t"), 2, PicardData(g2_order=2))
        assert c == 4 and not exact

    def test_zero_level_is_picard_count(self):
        assert cusp_count(lvl("0"), 2) == (1, True)
        assert cusp_count(lvl("0"), 2, PicardData(pic_R_order=5)) == (5, True)
        c, exact = cusp_count(lvl("0"), 2,
                              PicardData(pic_R_order=INFINITE))
        assert c == math.inf and exact

    def test_general_picard_inputs(self):
        c, exact = cusp_count(lvl("t^3"), 2,
                              PicardData(g2_order=1, index_theorem=3))
        assert c == 2 * 3 * 2 and exact


class TestSplitCounts:
    def test_examples(self):
        assert split_counts(lvl("t^3", F3), 3) == (2, 2)
        assert split_counts(lvl("t"), 2) == (2, 0)
        assert split_counts(lvl("t;t+1;t^2+t+2", F4), 4) == (8, 0)

    def test_even_multiplicity_rejected(self):
        with pytest.raises(PreconditionError) as ei:
            split_counts(lvl("t^2"), 2)
        assert "odd" in str(ei.value)

    def test_nontrivial_g2_rejected(self):
        with pytest.raises(PreconditionError) as ei:
            split_counts(lvl("t"), 2, PicardData(g2_order=2))
        assert "g(2)" in str(ei.value)

    def test_zero_level_rejected(self):
        with pytest.raises(PreconditionError):
            split_counts(lvl("0"), 2)

    def test_partition_identity(self):
        for q, text in [(2, "t"), (2, "t^3"), (3, "t^3"), (2, "t^3;t+1")]:
            c, exact = cusp_count(lvl(text), q)
            d, i = split_counts(lvl(text), q)
            assert exact and d + i == c
            assert d <= c
            if alpha(lvl(text), q) == 1:
                assert i == 0


class TestClassifyingCount:
    def test_examples(self):
        assert classifying_cusp_count(lvl("t^3", F3), 3) == 2
        assert classifying_cusp_count(lvl("t"), 2) == 1
        assert classifying_cusp_count(
            lvl("t^2+1^3", F3), 3, PicardData(index_component=2)) == 10

    def test_zero_level_rejected(self):
        with pytest.raises(FormulaError):
            classifying_cusp_count(lvl("0"), 2)


class TestVerdict:
    def test_cases(self):
        assert abelianization_verdict(lvl("t")) == VERDICT_FG
        assert abelianization_verdict(lvl("t^3")) == VERDICT_INF_FP
        assert abelianization_verdict(lvl("t^2")) == VERDICT_OUT
        assert abelianization_verdict(lvl("t;t+1")) == VERDICT_FG
        assert abelianization_verdict(lvl("0")) == VERDICT_FG


class TestReport:
    def test_full_report(self):
        rep = formula_report(lvl("t^3", F3), 3)
        assert rep.c_HD == 4 and rep.exact
        assert (rep.card_D, rep.card_I) == (2, 2)
        assert rep.abelianization == VERDICT_INF_FP
        assert rep.alpha == 2

    def test_report_without_split_counts(self):
        rep = formula_report(lvl("t^2", F3), 3)
        assert rep.card_D is None and rep.card_I is None
        assert not rep.exact

    def test_serre_report(self):
        rep = formula_report(lvl("0"), 2)
        assert rep.serre_case and rep.c_HD == 1 and rep.exact


class TestPicardData:
    def test_validation(self):
        with pytest.raises(FormulaError):
            PicardData(g2_order=0)
        with pytest.raises(FormulaError):
            PicardData(pic_R_order="sometimes")
        assert PicardData(pic_R_order=INFINITE).pic_R_order == INFINITE


def _levels_up_to_degree(field, top):
    """Every effective divisor of degree <= top over `field`, D = 0 first:
    each set of monic irreducibles with multiplicities."""
    from btquot.algebra import Polynomial
    from btquot.hecke import Level
    primes = [p for deg in range(1, top + 1)
              for low in itertools.product(range(field.q), repeat=deg)
              for p in [Polynomial(field, list(low) + [1])]
              if p.is_irreducible()]
    divisors = [()]
    for p in primes:
        divisors = [d + ((p, m),) if m else d for d in divisors
                    for m in range(top // p.degree + 1)
                    if sum(x.degree * k for x, k in d) + p.degree * m <= top]
    return [Level(field, d) for d in divisors]


class TestFormulaReport:
    @pytest.mark.parametrize("field", [F2, F3], ids=["q2", "q3"])
    def test_report_equals_the_separate_formulas(self, field):
        """On every level of degree <= 4, even multiplicities included,
        and on D = 0."""
        q = field.q
        levels = _levels_up_to_degree(field, 4)
        assert levels[0].is_zero()
        assert any(m % 2 == 0 for lv in levels for m in lv.multiplicities())
        for level in levels:
            report = formula_report(level, q)
            zero = level.is_zero()
            assert report.alpha == (None if zero else alpha(level, q))
            assert (report.c_HD, report.exact) == cusp_count(level, q)
            try:
                split = split_counts(level, q)
            except PreconditionError:
                split = (None, None)
            assert (report.card_D, report.card_I) == split
            assert report.serre_case == zero
            assert report.abelianization == abelianization_verdict(level)

    def test_alpha_and_picard_data_once(self, monkeypatch):
        """A report computes alpha once; the default Picard data was built
        once, at import, and no call builds it again."""
        from btquot import formulas
        calls = {"alpha": 0, "pic": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(formulas, "alpha", counted("alpha", alpha))
        monkeypatch.setattr(formulas, "PicardData",
                            counted("pic", PicardData))
        for text in ("t^3", "t^2", "t;t+1"):
            calls.update(alpha=0, pic=0)
            formula_report(lvl(text), 2)
            assert calls == {"alpha": 1, "pic": 0}
        calls.update(alpha=0, pic=0)
        formula_report(lvl("0"), 2)
        assert calls == {"alpha": 0, "pic": 0}
