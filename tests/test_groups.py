from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hahnaut import groups
from hahnaut.errors import DomainError, InvalidMap, OutsideSpan, ZeroArgument
from hahnaut.groups import (
    INTEGERS,
    RATIONALS,
    AdditiveComposite,
    GroupElement,
    LinearFunctional,
    MonotoneComposite,
    PiecewiseLinear,
    PositiveScalar,
    Translation,
    TriangularMatrix,
    arch_compare,
    element,
    embed_rational,
    lex_power,
    scaling_functional,
    standard_functional,
    surreal_depth,
    zero,
)
from hahnaut.sampling import Sampler
from hahnaut.series import Series

LEX2 = lex_power(2)
SURREAL1 = surreal_depth(1)
ALL_KINDS = [INTEGERS, RATIONALS, LEX2, SURREAL1]


class TestGroupArithmetic:
    @pytest.mark.parametrize("group", ALL_KINDS)
    def test_group_axioms_on_samples(self, group):
        sampler = Sampler(7)
        for _ in range(30):
            a = sampler.exponent(group)
            b = sampler.exponent(group)
            c = sampler.exponent(group)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a + zero(group) == a
            assert (a + (-a)).is_zero()

    @pytest.mark.parametrize("group", ALL_KINDS)
    def test_order_translation_invariance(self, group):
        sampler = Sampler(11)
        for _ in range(30):
            a = sampler.exponent(group)
            b = sampler.exponent(group)
            c = sampler.exponent(group)
            if a.compare(b) < 0:
                assert (a + c).compare(b + c) < 0

    def test_lex_order_is_lexicographic(self):
        a = element(LEX2, (Fraction(1), Fraction(-50)))
        b = element(LEX2, (Fraction(0), Fraction(99)))
        assert a.compare(b) > 0

    def test_surreal_elements_are_series_one_level_down(self):
        inner = Series.make(RATIONALS, [(Fraction(-1), Fraction(2))])
        g = element(SURREAL1, inner)
        assert g.value.group == RATIONALS
        assert (g + g).value == inner + inner

    def test_surreal_elements_must_be_exact(self):
        inner = Series.make(RATIONALS, [(0, 1)], precision=Fraction(2))
        with pytest.raises(DomainError):
            element(SURREAL1, inner)

    def test_integer_group_rejects_fractions(self):
        with pytest.raises(DomainError):
            embed_rational(INTEGERS, Fraction(1, 2))


class TestArchCompare:
    def test_rank_one_groups_are_one_class(self):
        a = embed_rational(RATIONALS, Fraction(1, 100))
        b = embed_rational(RATIONALS, 1000)
        assert arch_compare(a, b) == "="

    def test_lex_dominant_coordinate_decides(self):
        g = element(LEX2, (Fraction(0), Fraction(7)))
        h = element(LEX2, (Fraction(1), Fraction(0)))
        assert arch_compare(g, h) == ">"
        assert arch_compare(h, g) == "<"
        assert arch_compare(h, h + h) == "="

    def test_surreal_compares_leading_exponents(self):
        small = element(SURREAL1, Series.make(RATIONALS, [(Fraction(1), Fraction(5))]))
        large = element(SURREAL1, Series.make(RATIONALS, [(Fraction(-1), Fraction(1))]))
        assert arch_compare(large, small) == "<"

    def test_zero_is_rejected(self):
        with pytest.raises(ZeroArgument):
            arch_compare(zero(RATIONALS), embed_rational(RATIONALS, 1))


class TestLinearFunctional:
    def test_identity_functional_on_rationals(self):
        phi = scaling_functional(RATIONALS, 1)
        assert phi(element(RATIONALS, Fraction(3, 2))) == Fraction(3, 2)

    def test_lex_functional_on_standard_generators(self):
        phi = standard_functional(LEX2, [2, 3])
        g = element(LEX2, (Fraction(1), Fraction(-1)))
        assert phi(g) == Fraction(-1)

    def test_additivity_on_samples(self):
        phi = standard_functional(LEX2, [Fraction(1, 2), 5])
        sampler = Sampler(3)
        for _ in range(25):
            a = sampler.exponent(LEX2)
            b = sampler.exponent(LEX2)
            assert phi(a + b) == phi(a) + phi(b)

    def test_outside_span_is_an_error(self):
        gen = element(SURREAL1, Series.make(RATIONALS, [(Fraction(1), Fraction(1))]))
        phi = LinearFunctional(SURREAL1, ((gen, Fraction(2)),))
        stranger = element(SURREAL1, Series.make(RATIONALS, [(Fraction(2), Fraction(1))]))
        with pytest.raises(OutsideSpan):
            phi(stranger)

    def test_dependent_generators_rejected(self):
        with pytest.raises(DomainError):
            LinearFunctional(
                RATIONALS,
                (
                    (embed_rational(RATIONALS, 1), Fraction(1)),
                    (embed_rational(RATIONALS, 2), Fraction(3)),
                ),
            )


class TestMonotoneMaps:
    def test_translation_round_trip(self):
        zeta = Translation(embed_rational(RATIONALS, Fraction(5, 3)))
        g = embed_rational(RATIONALS, -2)
        assert zeta.backward(zeta.forward(g)) == g

    def test_piecewise_doubling_on_the_right(self):
        zeta = PiecewiseLinear((Fraction(0),), (Fraction(1), Fraction(2)))
        assert zeta.forward(embed_rational(RATIONALS, -2)).value == Fraction(-2)
        assert zeta.forward(embed_rational(RATIONALS, 3)).value == Fraction(6)
        assert zeta.backward(embed_rational(RATIONALS, 6)).value == Fraction(3)

    def test_piecewise_is_strictly_monotone_on_samples(self):
        zeta = PiecewiseLinear(
            (Fraction(-1), Fraction(2)),
            (Fraction(1, 2), Fraction(3), Fraction(1)),
            anchor=Fraction(-4),
        )
        sampler = Sampler(5)
        for _ in range(40):
            a = embed_rational(RATIONALS, sampler.rational())
            b = embed_rational(RATIONALS, sampler.rational())
            if a.compare(b) < 0:
                assert zeta.forward(a).compare(zeta.forward(b)) < 0
            assert zeta.backward(zeta.forward(a)) == a

    def test_negative_slope_rejected(self):
        with pytest.raises(InvalidMap):
            PiecewiseLinear((Fraction(0),), (Fraction(1), Fraction(-1)))

    def test_composite_applies_first_listed_last(self):
        double = PositiveScalar(RATIONALS, 2)
        shift = Translation(embed_rational(RATIONALS, 1))
        zeta = MonotoneComposite((double, shift))
        # shift first, then double: (g + 1) * 2
        assert zeta.forward(embed_rational(RATIONALS, 3)).value == Fraction(8)
        assert zeta.backward(embed_rational(RATIONALS, 8)).value == Fraction(3)


class TestAdditiveAutomorphisms:
    def test_positive_scalar(self):
        tau = PositiveScalar(RATIONALS, 3)
        assert tau.forward(embed_rational(RATIONALS, Fraction(1, 2))).value == Fraction(3, 2)

    def test_scalar_must_be_positive(self):
        with pytest.raises(InvalidMap):
            PositiveScalar(RATIONALS, -1)

    def test_integers_admit_only_identity_scaling(self):
        with pytest.raises(InvalidMap):
            PositiveScalar(INTEGERS, 2)

    def test_triangular_matrix_example(self):
        # T(a, b) = (a, a + 2b)
        tau = TriangularMatrix(LEX2, ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(2))))
        image = tau.forward(element(LEX2, (Fraction(1), Fraction(1))))
        assert image.value == (Fraction(1), Fraction(3))
        assert tau.backward(image).value == (Fraction(1), Fraction(1))

    def test_triangular_matrix_rejects_dominance_violation(self):
        with pytest.raises(InvalidMap):
            TriangularMatrix(LEX2, ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))))

    def test_additivity_and_order_on_samples(self):
        tau = AdditiveComposite(
            (
                TriangularMatrix(LEX2, ((Fraction(2), Fraction(0)), (Fraction(-1), Fraction(3)))),
                PositiveScalar(LEX2, Fraction(1, 2)),
            )
        )
        sampler = Sampler(9)
        for _ in range(30):
            a = sampler.exponent(LEX2)
            b = sampler.exponent(LEX2)
            assert tau.forward(a + b) == tau.forward(a) + tau.forward(b)
            assert tau.backward(tau.forward(a)) == a
            if a.compare(b) < 0:
                assert tau.forward(a).compare(tau.forward(b)) < 0


_ENTRIES = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
)


@st.composite
def linear_systems(draw):
    """Columns and a target of a rational system of at most 4x4, with zero
    entries and targets inside the span common enough to reach dependent
    and consistent cases."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    columns = [[draw(_ENTRIES) for _ in range(m)] for _ in range(n)]
    if draw(st.booleans()):
        weights = [draw(_ENTRIES) for _ in range(n)]
        target = [sum(w * col[i] for w, col in zip(weights, columns)) for i in range(m)]
    else:
        target = [draw(_ENTRIES) for _ in range(m)]
    return columns, target


@st.composite
def lower_triangular(draw, n):
    diagonal = st.builds(Fraction, st.integers(1, 4), st.integers(1, 3))
    return tuple(
        tuple(
            draw(diagonal) if j == i else draw(_ENTRIES) if j < i else Fraction(0)
            for j in range(n)
        )
        for i in range(n)
    )


class TestElimination:
    @given(linear_systems())
    def test_solver_agrees_with_sympy_rank(self, system):
        sympy = pytest.importorskip("sympy")
        columns, target = system

        def matrix(rows):
            return sympy.Matrix(
                [[sympy.Rational(q.numerator, q.denominator) for q in r] for r in rows]
            )

        a = matrix(zip(*columns))
        augmented = matrix(zip(*columns, target))
        independent, (solution,) = groups._solve_linear(columns, [target])
        assert independent == (a.rank() == len(columns))
        assert (solution is not None) == (augmented.rank() == a.rank())
        if solution is not None:
            for i, t in enumerate(target):
                assert sum(x * col[i] for x, col in zip(solution, columns)) == t

    @pytest.mark.parametrize("n", [3, 4])
    @given(data=st.data())
    def test_triangular_inverse_round_trip(self, n, data):
        group = lex_power(n)
        tau = TriangularMatrix(group, data.draw(lower_triangular(n)))
        g = element(group, tuple(data.draw(_ENTRIES) for _ in range(n)))
        assert tau.backward(tau.forward(g)) == g
        assert tau.forward(tau.backward(g)) == g

    @pytest.mark.parametrize("argument", [Fraction(1), Series.monomial(RATIONALS, 1)])
    def test_surreal_dependence_is_reported_first(self, argument):
        # linear([1]: 1, [2]: 3): the generators are dependent on every
        # touched exponent set, whether or not the argument is in their span
        phi = LinearFunctional(
            SURREAL1,
            (
                (embed_rational(SURREAL1, 1), Fraction(1)),
                (embed_rational(SURREAL1, 2), Fraction(3)),
            ),
        )
        with pytest.raises(DomainError, match="dependent on the touched exponents"):
            phi(element(SURREAL1, argument))
