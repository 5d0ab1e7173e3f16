import time
from fractions import Fraction

import pytest

from hahnaut.errors import (
    DescriptorMismatch,
    DivisionByZero,
    InsufficientPrecision,
    NonTerminating,
    ZeroSeries,
)
from hahnaut.groups import RATIONALS, element, embed_rational, lex_power, surreal_depth
from hahnaut.sampling import Sampler
from hahnaut.series import Series

Q = RATIONALS


def S(*terms, precision=None):
    return Series.make(Q, [(Fraction(e), Fraction(c)) for e, c in terms], precision)


ONE = Series.one(Q)
T = Series.monomial(Q, 1)


class TestConstruction:
    def test_terms_are_sorted_and_merged(self):
        s = Series.make(Q, [(1, 2), (-1, 3), (1, 5)])
        assert [(e.value, c) for e, c in s.terms] == [(-1, 3), (1, 7)]

    def test_zero_coefficients_dropped(self):
        assert Series.make(Q, [(1, 2), (1, -2)]).terms == ()

    def test_terms_at_or_above_precision_cut(self):
        s = Series.make(Q, [(0, 1), (2, 5)], precision=2)
        assert [(e.value, c) for e, c in s.terms] == [(0, 1)]
        assert s.precision.value == 2


class TestAddition:
    def test_componentwise_sum(self):
        assert (S((0, 1), (1, 1)) + S((0, -1), (2, 1))).terms == S((1, 1), (2, 1)).terms

    def test_cancellation(self):
        assert (T + (-T)).is_exact_zero()

    def test_precision_is_min(self):
        a = S((0, 1), (1, 1), precision=2)
        b = S((2, 1))
        total = a + b
        assert [(e.value, c) for e, c in total.terms] == [(0, 1), (1, 1)]
        assert total.precision.value == 2

    def test_descriptor_mismatch(self):
        with pytest.raises(DescriptorMismatch):
            T + Series.one(lex_power(2))


class TestMultiplication:
    def test_convolution(self):
        assert ((ONE + T) * (ONE - T)).terms == (ONE - T * T).terms

    def test_exponent_addition(self):
        product = Series.monomial(Q, -1) * Series.monomial(Q, Fraction(1, 2), 2)
        assert [(e.value, c) for e, c in product.terms] == [(Fraction(-1, 2), 2)]

    def test_precision_shifts_by_valuation(self):
        a = S((0, 1), (1, 1), precision=2)
        b = Series.monomial(Q, -1)
        product = a * b
        assert product.precision.value == 1
        assert [(e.value, c) for e, c in product.terms] == [(-1, 1), (0, 1)]

    def test_exact_zero_absorbs(self):
        assert (Series.zero(Q) * S((0, 1), precision=3)).is_exact_zero()


class TestInversion:
    def test_monomial_inverse_is_exact(self):
        inv = Series.monomial(Q, -1, 2).invert(embed_rational(Q, 8))
        assert inv.precision is None
        assert [(e.value, c) for e, c in inv.terms] == [(1, Fraction(1, 2))]

    def test_geometric_example(self):
        inv = (ONE + T).invert(embed_rational(Q, 4))
        assert [(e.value, c) for e, c in inv.terms] == [(0, 1), (1, -1), (2, 1), (3, -1)]

    def test_product_certifies_one_below_target(self):
        sampler = Sampler(7)
        target = embed_rational(Q, 8)
        for _ in range(40):
            s = sampler.invertible_series(Q)
            assert (s * s.invert(target)).agrees(ONE)

    def test_zero_is_rejected(self):
        with pytest.raises(DivisionByZero):
            Series.zero(Q).invert(embed_rational(Q, 4))

    def test_insufficient_precision_rejected(self):
        s = S((0, 1), (1, 1), precision=3)
        with pytest.raises(InsufficientPrecision):
            s.invert(embed_rational(Q, 5))


LEX2 = lex_power(2)
SURREAL1 = surreal_depth(1)
SURREAL2 = surreal_depth(2)
# [t^([1])]: a positive surreal2 element below every positive rational
SURREAL2_SMALL = element(SURREAL2, Series.monomial(SURREAL1, 1))


def one_plus(group, exponent):
    return Series.one(group) + Series.monomial(group, exponent)


class TestInversionTermination:
    """The expansion of 1/(1 + eps) to a target ends iff some k * v(eps)
    reaches the target; otherwise it is refused at once."""

    @pytest.mark.parametrize(
        "group, exponent, target, v_eps, target_text",
        [
            (LEX2, (0, 1), (1, 0), "(0,1)", "(1,0)"),
            (SURREAL2, SURREAL2_SMALL, 1, "[t^([1])]", "[1]"),
        ],
    )
    def test_infinitesimal_eps_is_refused_promptly(
        self, group, exponent, target, v_eps, target_text
    ):
        s = one_plus(group, exponent)
        start = time.perf_counter()
        with pytest.raises(NonTerminating) as raised:
            s.invert(element(group, target))
        assert time.perf_counter() - start < 1.0
        assert str(raised.value) == (
            "geometric expansion does not reach the target precision: the "
            f"archimedean class of v(eps) = {v_eps} is infinitesimal relative "
            f"to the class of the target {target_text}"
        )

    @pytest.mark.parametrize(
        "group, exponent, target",
        [
            (Q, Fraction(1, 50), 2),
            (Q, Fraction(3), Fraction(1, 2)),
            (LEX2, (0, 1), (0, 7)),
            (LEX2, (1, -5), (3, 0)),
            (SURREAL2, SURREAL2_SMALL, SURREAL2_SMALL.scale(4)),
        ],
    )
    def test_expansions_that_reach_the_target_terminate(self, group, exponent, target):
        s = one_plus(group, exponent)
        target = element(group, target)
        inverse = s.invert(target)
        assert inverse.precision == target
        assert (s * inverse).agrees(Series.one(group))

    def test_long_finite_expansion_is_computed(self):
        # 20 000 terms below the target, each one step of t^(1/20000).
        n = 20000
        s = one_plus(Q, Fraction(1, n))
        inverse = s.invert(embed_rational(Q, 1))
        assert len(inverse.terms) == n
        assert [(ex.value, c) for ex, c in inverse.terms] == [
            (Fraction(k, n), (-1) ** k) for k in range(n)
        ]
        assert inverse.precision == embed_rational(Q, 1)
        assert (s * inverse).agrees(Series.one(Q))


class TestLeadingTermAndOrder:
    def test_leading_term(self):
        lt = S((-2, 3), (1, 5)).leading_term()
        assert (lt.valuation.value, lt.coefficient) == (-2, 3)

    def test_constant_leading_term(self):
        lt = Series.constant(Q, 7).leading_term()
        assert (lt.valuation.value, lt.coefficient) == (0, 7)

    def test_empty_with_finite_precision_errs(self):
        with pytest.raises(InsufficientPrecision):
            Series(Q, (), embed_rational(Q, 5)).leading_term()

    def test_exact_zero_errs(self):
        with pytest.raises(ZeroSeries):
            Series.zero(Q).leading_term()

    def test_infinitesimal_comparison(self):
        assert T.compare(Series.constant(Q, Fraction(1, 2))) == -1

    def test_positive_by_leading_coefficient(self):
        assert S((-2, 3), (1, 5)).compare(Series.zero(Q)) == 1

    def test_tail_decides_between_close_series(self):
        a = Series.monomial(Q, -1)
        assert a.compare(a + Series.monomial(Q, 3)) == -1

    def test_inexact_tie_is_an_error(self):
        a = S((0, 1), precision=3)
        with pytest.raises(InsufficientPrecision):
            a.compare(S((0, 1)))


class TestCoefficientAndTruncate:
    def test_truncate_drops_and_tightens(self):
        s = S((0, 1), (1, 1), (2, 1)).truncate_to(embed_rational(Q, 2))
        assert [(e.value, c) for e, c in s.terms] == [(0, 1), (1, 1)]
        assert s.precision.value == 2

    def test_truncate_never_loosens(self):
        s = S((0, 1), precision=1).truncate_to(embed_rational(Q, 3))
        assert s.precision.value == 1


class TestOtherGroups:
    @pytest.mark.parametrize("group", [lex_power(2), surreal_depth(1)])
    def test_ring_laws_on_samples(self, group):
        sampler = Sampler(13)
        for _ in range(25):
            a = sampler.series(group)
            b = sampler.series(group)
            c = sampler.series(group)
            assert ((a + b) * c).agrees(a * c + b * c)
            assert (a * b).agrees(b * a)
            assert ((a * b) * c).agrees(a * (b * c))

    @pytest.mark.parametrize("group", [lex_power(2), surreal_depth(1)])
    def test_inversion_on_samples(self, group):
        sampler = Sampler(17)
        target = embed_rational(group, 8)
        for _ in range(20):
            s = sampler.invertible_series(group)
            assert (s * s.invert(target)).agrees(Series.one(group))


def reference_difference(a, b):
    """``compare`` and ``agrees`` by definition: the ``make``-built
    difference cut at the joint precision; its first term decides, and
    when it has none an inexact pair is refused."""
    bounds = [p for p in (a.precision, b.precision) if p is not None]
    precision = min(bounds) if bounds else None
    negated = [(ex, -c) for ex, c in b.terms]
    difference = Series.make(a.group, list(a.terms) + negated, precision)
    if difference.terms:
        return (1 if difference.terms[0][1] > 0 else -1), False
    if precision is None:
        return 0, True
    message = f"difference vanishes below {precision} but the inputs are inexact"
    return (InsufficientPrecision, message), True


def refusal_or(call):
    try:
        return call()
    except InsufficientPrecision as exc:
        return (InsufficientPrecision, str(exc))


def order_pairs(group, seed, count):
    """Truncated and exact pairs, most of them near each other: a copy with
    one more term, at or past the precision or below it, a truncation, a
    coefficient with its sign flipped, the same object, or independent."""
    smp = Sampler(seed)
    for i in range(count):
        a = smp.series(group, 4, smp.exponent(group) if i % 3 else None)
        kind = i % 5
        if kind == 0:
            b = smp.series(group, 4, smp.exponent(group) if i % 2 else None)
        elif kind == 1:
            extra = (smp.exponent(group), smp.nonzero_rational())
            b = Series.make(group, list(a.terms) + [extra])
        elif kind == 2:
            b = a.truncate_to(smp.exponent(group))
        elif kind == 3:
            b = a
        else:
            terms = list(a.terms)
            if terms:
                j = smp.rng.randrange(len(terms))
                terms[j] = (terms[j][0], -terms[j][1])
            b = Series(group, tuple(terms), a.precision)
        yield a, b


class TestOrderWalk:
    """``compare``, ``agrees`` and ``sign`` are the exponent walk
    ``first_difference`` plus the joint precision; surreal exponents are
    ordered by the walk alone."""

    @pytest.mark.parametrize("group", [Q, lex_power(2), surreal_depth(1)], ids=str)
    def test_order_matches_the_difference_series(self, group):
        hidden = 0
        zero = Series.zero(group)
        for a, b in order_pairs(group, 29, 300):
            sign, agrees = reference_difference(a, b)
            assert refusal_or(lambda: a.compare(b)) == sign
            assert a.agrees(b) == agrees == b.agrees(a)
            if type(sign) is int:
                assert b.compare(a) == -sign
            assert refusal_or(a.sign) == reference_difference(a, zero)[0]
            # the terms differ, but only at or past the joint precision
            hidden += type(sign) is tuple and a.terms != b.terms
        assert hidden >= 10

    def test_surreal_exponents_are_ordered_without_the_series_order(
        self, monkeypatch
    ):
        group = surreal_depth(2)
        smp = Sampler(31)
        exponents = [(smp.exponent(group), smp.exponent(group)) for _ in range(30)]
        series = [(smp.series(group), smp.series(group)) for _ in range(30)]

        def refuse(self, other):
            raise AssertionError("an exponent was ordered through Series order")

        monkeypatch.setattr(Series, "_difference_sign", refuse)
        monkeypatch.setattr(Series, "compare", refuse)
        for (g, h), (a, b) in zip(exponents, series):
            g.compare(h), h.compare(g), g + h, g - h
            a + b, a * b, a * a
