import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hahnaut import groups, parsing
from hahnaut.errors import (
    DescriptorMismatch,
    DomainError,
    HahnError,
    InvalidMap,
    OutsideSpan,
    ZeroArgument,
)
from hahnaut.groups import (
    INTEGERS,
    RATIONALS,
    Composite,
    GroupDescriptor,
    LinearFunctional,
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
import linear_reference as reference

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

    def test_keyed_kinds_and_rank_one_kinds(self):
        # the kernels run on int exponent keys over Z, Q and lexN; the exp
        # rows read a functional off its one weight over Z and Q only
        kinds = [INTEGERS, RATIONALS, lex_power(1), LEX2, surreal_depth(0), surreal_depth(1)]
        assert [g.keyed for g in kinds] == [True] * 4 + [False] * 2
        assert [g.rank_one for g in kinds] == [True] * 2 + [False] * 4


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

    @pytest.mark.parametrize("group", [LEX2, lex_power(3), SURREAL1], ids=str)
    def test_matches_a_fresh_elimination_per_call(self, group):
        # the generators span all coordinates, part of them, or (surreal1)
        # only some of the exponents the arguments use
        smp = Sampler(11)
        for size in (1, 2, 3) * 3:
            gens = [smp.nonzero_exponent(group) for _ in range(size)]
            values = [smp.rational() for _ in range(size)]
            independent, _ = reference._solve_linear(reference._coordinates(gens))
            try:
                phi = LinearFunctional(group, tuple(zip(gens, values)))
            except DomainError as exc:
                assert not independent
                assert str(exc) == "functional generators are Q-linearly dependent"
                continue
            assert independent
            for _ in range(40):
                g = smp.exponent(group)
                if smp.rng.random() < 0.5:  # a point of the span
                    g = sum((x.scale(smp.rational()) for x in gens), zero(group))
                assert outcome(phi, g) == outcome(solved_functional, phi, g)


def outcome(fn, *args):
    try:
        return fn(*args)
    except HahnError as exc:
        return (type(exc), str(exc))


def solved_functional(phi, g):
    """``phi(g)`` by a fresh elimination over the generators and ``g``."""
    if g.is_zero():
        return Fraction(0)
    vectors = reference._coordinates([gen for gen, _ in phi.generators] + [g])
    _, (coeffs,) = reference._solve_linear(vectors[:-1], vectors[-1:])
    if coeffs is None:
        raise OutsideSpan(f"{g} is not in the Q-span of the generators")
    return sum((q * v for q, (_, v) in zip(coeffs, phi.generators)), Fraction(0))


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

    @pytest.mark.parametrize(
        "x, y",
        [
            # slope 1/2 left of -1, 3 on [-1, 2), 1 from 2 on; -4 at -1
            (Fraction(-7), Fraction(-7)),
            (Fraction(-1), Fraction(-4)),
            (Fraction(1, 3), Fraction(0)),
            (Fraction(2), Fraction(5)),
            (Fraction(9, 2), Fraction(15, 2)),
        ],
    )
    def test_piecewise_at_breakpoints_and_beyond_both_ends(self, x, y):
        zeta = PiecewiseLinear((-1, 2), (Fraction(1, 2), 3, 1), anchor=-4)
        g, h = embed_rational(RATIONALS, x), embed_rational(RATIONALS, y)
        assert (zeta.forward(g), zeta.backward(h)) == (h, g)

    def test_negative_slope_rejected(self):
        with pytest.raises(InvalidMap):
            PiecewiseLinear((Fraction(0),), (Fraction(1), Fraction(-1)))

    def test_composite_applies_first_listed_last(self):
        double = PositiveScalar(RATIONALS, 2)
        shift = Translation(embed_rational(RATIONALS, 1))
        zeta = Composite((double, shift))
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

    def test_identity_scaling_of_the_integers(self):
        tau = PositiveScalar(INTEGERS, 1)
        g = element(INTEGERS, -3)
        for image in (tau.forward(g), tau.backward(g)):
            assert image == g and type(image.value) is int
        assert g.scale(Fraction(4, 6)) == element(INTEGERS, -2)
        with pytest.raises(InvalidMap, match=r"^1/2 \* -3 is not an integer$"):
            g.scale(Fraction(1, 2))

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
        tau = Composite(
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
        independent, (solution,) = reference._solve_linear(columns, [target])
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

    @pytest.mark.parametrize("n", [2, 3, 4])
    @given(data=st.data())
    def test_triangular_backward_matches_elimination(self, n, data):
        # a wrong forward/backward pair could still round-trip; elimination
        # solves A x = y on its own
        group = lex_power(n)
        rows = data.draw(lower_triangular(n))
        y = tuple(data.draw(_ENTRIES) for _ in range(n))
        _, (x,) = reference._solve_linear(list(zip(*rows)), [y])
        image = TriangularMatrix(group, rows).backward(element(group, y))
        assert image == element(group, tuple(x))

    @pytest.mark.parametrize("argument", [Fraction(1), Series.monomial(RATIONALS, 1)])
    def test_surreal_dependence_is_reported_first(self, argument):
        # linear([1]: 1, [2]: 3): the generators are dependent, and that is
        # refused when the functional is built, before any argument, in
        # their span or not, is evaluated
        with pytest.raises(
            DomainError, match="^functional generators are Q-linearly dependent$"
        ):
            phi = LinearFunctional(
                SURREAL1,
                (
                    (embed_rational(SURREAL1, 1), Fraction(1)),
                    (embed_rational(SURREAL1, 2), Fraction(3)),
                ),
            )
            phi(element(SURREAL1, argument))


# -- descriptor identity, integer compare and the rank-one functional ----------

_RATIONAL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def _series_over(inner, exponents):
    """Exact series over ``inner`` with at most three terms."""
    return st.lists(st.tuples(exponents, _RATIONAL), max_size=3).map(
        lambda terms: Series.make(inner, terms)
    )


_SURREAL1_ELEMENTS = _series_over(RATIONALS, _RATIONAL).map(
    lambda s: element(SURREAL1, s)
)

# Elements of every kind, zeros and negatives included.
ELEMENTS = {
    "Z": st.integers(-5, 5).map(lambda n: element(INTEGERS, n)),
    "Q": _RATIONAL.map(lambda q: element(RATIONALS, q)),
    "lex1": st.tuples(_RATIONAL).map(lambda v: element(lex_power(1), v)),
    "lex2": st.tuples(_RATIONAL, _RATIONAL).map(lambda v: element(LEX2, v)),
    "lex3": st.tuples(_RATIONAL, _RATIONAL, _RATIONAL).map(
        lambda v: element(lex_power(3), v)
    ),
    "surreal0": st.just(zero(surreal_depth(0))),
    "surreal1": _SURREAL1_ELEMENTS,
    "surreal2": _series_over(SURREAL1, _SURREAL1_ELEMENTS).map(
        lambda s: element(surreal_depth(2), s)
    ),
}


def reference_order(a, b) -> int:
    """The order by definition: Fraction or tuple comparison of the values,
    and for surreal elements the sign of the ``make``-built difference."""
    kind = a.descriptor.kind
    if kind == "SurrealDepth" and a.descriptor.param >= 1:
        inner = a.descriptor.exponent_group
        negated = [(ex, -c) for ex, c in b.value.terms]
        difference = Series.make(inner, list(a.value.terms) + negated)
        if not difference.terms:
            return 0
        return 1 if difference.terms[0][1] > 0 else -1
    if kind == "LexPower":
        x, y = a.value, b.value
    else:
        x, y = Fraction(a.value), Fraction(b.value)
    return (x > y) - (x < y)


def near(a, data):
    """A surreal element next to ``a``: ``a`` with its last terms dropped,
    with a term appended above its last exponent, or with one coefficient
    changed in value or in sign.  Pairs like these reach the end of a term
    list and the first term past a common prefix, which independent draws
    rarely do."""
    inner = a.descriptor.exponent_group
    terms = list(a.value.terms)
    move = data.draw(st.sampled_from(["drop", "append", "value", "sign"]))
    if not terms or move == "append":
        step = data.draw(ELEMENTS[str(inner)].filter(lambda g: not g.is_zero()))
        if reference_order(step, zero(inner)) < 0:
            step = -step
        top = terms[-1][0] + step if terms else step
        terms.append((top, data.draw(_RATIONAL.filter(bool))))
    else:
        i = data.draw(st.integers(0, len(terms) - 1))
        ex, c = terms[i]
        if move == "drop":
            del terms[i:]
        elif move == "value":
            terms[i] = (ex, data.draw(_RATIONAL.filter(bool)))
        else:
            terms[i] = (ex, -c)
    return element(a.descriptor, Series.make(inner, terms))


def positive(name):
    """Nonzero elements of ``ELEMENTS[name]``, negated where negative."""
    return ELEMENTS[name].filter(lambda g: not g.is_zero()).map(
        lambda g: -g if g.compare(zero(g.descriptor)) < 0 else g
    )


@pytest.mark.parametrize("name", ["Z", "Q", "lex2", "lex3", "surreal1", "surreal2"])
@given(data=st.data())
def test_walk_length_passes_the_gap_unless_the_step_is_infinitesimal(name, data):
    """``_steps_past(gap, step)`` is None exactly when ``step`` is
    infinitesimal against ``gap``; otherwise ``n`` steps pass the gap and
    ``n - 2`` stay below it, by the group's own scale and order."""
    gap, step = data.draw(positive(name)), data.draw(positive(name))
    n = groups._steps_past(gap, step)
    assert (n is None) == (arch_compare(gap, step) == "<")
    if n is not None:
        assert n >= 1
        assert step.scale(n).compare(gap) > 0
        assert step.scale(n - 2).compare(gap) < 0


def _any_class(name):
    """``positive(name)``, on lexN with its leading coordinates cleared at
    a drawn depth, so that elements of every class meet."""
    if not name.startswith("lex"):
        return positive(name)

    def lowered(g, depth):
        h = element(g.descriptor, (0,) * depth + g.value[depth:])
        return -h if h.compare(zero(h.descriptor)) < 0 else h

    depths = st.integers(0, int(name[3:]) - 1)
    return st.builds(lowered, positive(name), depths).filter(lambda g: not g.is_zero())


@pytest.mark.parametrize("name", ["lex2", "lex3", "surreal1", "surreal2"])
@given(data=st.data())
def test_walk_lengths_below_a_precision_end_on_a_suffix_and_shrink(name, data):
    """Along ascending exponents ``g`` below ``P``, ``_steps_past(P - g,
    shift)`` is None on a prefix and then non-increasing: the gaps descend,
    so the first walk that passes its gap is the longest."""
    precision, shift = data.draw(ELEMENTS[name]), data.draw(_any_class(name))
    gaps = data.draw(st.lists(_any_class(name), max_size=8))
    below = sorted({precision - gap for gap in gaps})
    lengths = [groups._steps_past(precision - g, shift) for g in below]
    ended = [n is not None for n in lengths]
    assert ended == sorted(ended)
    passed = [n for n in lengths if n is not None]
    assert passed == sorted(passed, reverse=True)


def _nonzero(name):
    return ELEMENTS[name].filter(lambda g: not g.is_zero())


@pytest.mark.parametrize("name", ["Z", "Q", "lex1", "lex2", "lex3"])
@given(data=st.data())
def test_functionals_on_full_and_partial_spans_match_elimination(name, data):
    """A functional whose span is the whole group, on the unit basis or on
    a drawn one, is read off its weights and equals the combination a
    dense elimination finds; on a partial span it gives the same value or
    the same ``OutsideSpan``, at the same element."""
    group = data.draw(ELEMENTS[name]).descriptor
    n = group.param or 1
    values = st.lists(_RATIONAL | st.just(Fraction(10**18, 7)), min_size=n, max_size=n)
    basis = data.draw(st.sampled_from(["unit", "drawn"] + ["partial"] * (n > 1)))
    if basis == "unit":
        phi = standard_functional(group, data.draw(values))
    else:
        size = n if basis == "drawn" else data.draw(st.integers(1, n - 1))
        gens = data.draw(st.lists(_nonzero(name), min_size=size, max_size=size))
        try:
            phi = LinearFunctional(group, tuple(zip(gens, data.draw(values))))
        except DomainError:  # a dependent draw
            assume(False)
    assert (phi._weights is None) == (basis == "partial")
    for g in data.draw(st.lists(ELEMENTS[name], min_size=1, max_size=4)):
        result = outcome(phi, g)
        assert result == outcome(solved_functional, phi, g)
        assert type(result) in (Fraction, tuple)


class TestGroupFastPaths:
    @pytest.mark.parametrize("name", sorted(ELEMENTS))
    @given(data=st.data())
    def test_compare_matches_the_reference_order(self, name, data):
        a = data.draw(ELEMENTS[name])
        # equal values, as the same object and as a fresh one, are common
        b = data.draw(
            st.one_of(
                st.just(a), st.just(element(a.descriptor, a.value)), ELEMENTS[name]
            )
        )
        expected = reference_order(a, b)
        assert a.compare(b) == expected
        assert b.compare(a) == -expected
        assert (a == b) == (expected == 0)

    @pytest.mark.parametrize("name", ["surreal1", "surreal2"])
    @given(data=st.data())
    def test_compare_matches_the_reference_order_on_near_pairs(self, name, data):
        a = data.draw(ELEMENTS[name])
        b = near(a, data)
        expected = reference_order(a, b)
        assert a.compare(b) == expected
        assert b.compare(a) == -expected

    def test_descriptors_are_interned(self):
        assert lex_power(2) is lex_power(2)
        assert surreal_depth(2) is surreal_depth(2)
        assert surreal_depth(2).exponent_group is surreal_depth(1)
        assert surreal_depth(1).exponent_group is RATIONALS

    @pytest.mark.parametrize(
        "direct, interned, low, high",
        [
            (GroupDescriptor("LexPower", 2), LEX2, (1, 2), (1, 3)),
            (GroupDescriptor("Rationals"), RATIONALS, Fraction(-1, 2), Fraction(1, 3)),
            (
                GroupDescriptor("SurrealDepth", 2),
                surreal_depth(2),
                Series.monomial(SURREAL1, 1),
                Series.one(SURREAL1),
            ),
        ],
    )
    def test_equal_descriptors_built_directly_still_combine(
        self, direct, interned, low, high
    ):
        assert direct == interned and direct is interned
        a, b = element(direct, low), element(interned, high)
        assert a.compare(b) == -1 and b.compare(a) == 1
        assert a + b == element(interned, low) + b
        assert element(interned, a) is a
        assert (Series.monomial(direct, a) + Series.monomial(interned, b)).terms == (
            (a, 1),
            (b, 1),
        )

    @pytest.mark.parametrize(
        "a, b, message",
        [
            (
                element(LEX2, (1, 0)),
                element(lex_power(3), (1, 0, 0)),
                "cannot combine lex2 with lex3",
            ),
            (
                embed_rational(RATIONALS, 1),
                embed_rational(INTEGERS, 1),
                "cannot combine Q with Z",
            ),
        ],
    )
    def test_mismatched_descriptors_are_refused(self, a, b, message):
        for operation in (a.compare, a.__add__, a.__sub__, a.__lt__):
            with pytest.raises(DescriptorMismatch) as raised:
                operation(b)
            assert str(raised.value) == message

    @pytest.mark.parametrize("group", [INTEGERS, RATIONALS])
    @given(data=st.data())
    def test_rank_one_functional_matches_elimination(self, group, data):
        values = ELEMENTS[str(group)]
        # any nonzero generator, and the non-unit 3, -2 and (on Q) 5/7
        fixed = [3, -2] + ([Fraction(5, 7)] if group is RATIONALS else [])
        gen = data.draw(
            st.sampled_from(fixed).map(lambda x: element(group, x))
            | values.filter(lambda g: not g.is_zero())
        )
        g = data.draw(values)
        v = data.draw(_RATIONAL | st.just(Fraction(10**18, 7)))
        result = LinearFunctional(group, ((gen, v),))(g)
        _, (coeffs,) = reference._solve_linear(
            [[Fraction(gen.value)]], [[Fraction(g.value)]]
        )
        # the weight v / gen.value gives the quotient formula
        assert result == coeffs[0] * v == Fraction(g.value) / gen.value * v
        assert type(result) is Fraction

    @pytest.mark.parametrize("group", [INTEGERS, RATIONALS])
    def test_rank_one_functional_without_generators_is_refused(self, group):
        phi = LinearFunctional(group, ())
        assert phi(zero(group)) == 0
        with pytest.raises(OutsideSpan, match="empty generator list"):
            phi(embed_rational(group, 1))


# -- the sparse span: reduced rows built and read by one elimination step ------


def _as_elements(group, vectors):
    """Coordinate vectors as elements: lex tuples, or surreal1 series with
    coordinate i at t^(i)."""
    if group.kind == "LexPower":
        return [element(group, tuple(v)) for v in vectors]
    return [
        element(group, Series.make(RATIONALS, list(enumerate(v)))) for v in vectors
    ]


def _coefficient_list(coeffs, n):
    return [coeffs.get(i, 0) for i in range(n)]


class TestSparseSpan:
    @given(linear_systems())
    def test_span_agrees_with_sympy(self, system):
        sympy = pytest.importorskip("sympy")
        columns, target = system

        def matrix(rows):
            return sympy.Matrix(
                [[sympy.Rational(q.numerator, q.denominator) for q in r] for r in rows]
            )

        a = matrix(zip(*columns))
        independent = a.rank() == len(columns)
        consistent = matrix(zip(*columns, target)).rank() == a.rank()
        if independent and consistent:
            solution, _ = a.gauss_jordan_solve(matrix([t] for t in target))
            expected = [Fraction(int(x.p), int(x.q)) for x in solution]
        # the same system as lex elements and as surreal1 elements
        for group in (lex_power(len(target)), SURREAL1):
            span = groups._span_of(_as_elements(group, columns))
            assert (span is not None) == independent
            if span is None:
                continue
            (g,) = _as_elements(group, [target])
            coeffs = groups._span_coefficients(span, g)
            assert (coeffs is not None) == consistent
            if coeffs is not None:
                assert _coefficient_list(coeffs, len(columns)) == expected

    def test_fill_in_over_surreal1(self):
        one, t, t2 = (element(SURREAL1, Series.monomial(RATIONALS, k)) for k in range(3))
        # reducing t against the row of 1 + t fills in the coordinate at 1
        span = groups._span_of([one + t, t])
        assert _coefficient_list(groups._span_coefficients(span, one), 2) == [1, -1]
        assert groups._span_coefficients(span, t2) is None
        phi = LinearFunctional(SURREAL1, ((one + t, Fraction(5)), (t, Fraction(2))))
        assert phi(one) == 3
        with pytest.raises(OutsideSpan):
            phi(t2)
        with pytest.raises(
            DomainError, match="^functional generators are Q-linearly dependent$"
        ):
            LinearFunctional(
                SURREAL1, ((one + t, Fraction(1)), (t, Fraction(1)), (one, Fraction(1)))
            )

    def test_evaluations_leave_the_rows_unchanged(self):
        one, t, t3 = (element(SURREAL1, Series.monomial(RATIONALS, k)) for k in (0, 1, 3))
        basis = [one + t, t - t3, t3.scale(2) + one]
        phi = LinearFunctional(SURREAL1, tuple(zip(basis, (1, 2, 3))))
        rows = copy.deepcopy(phi._span)
        smp = Sampler(5)
        for k in range(100):
            g = sum((x.scale(smp.rational()) for x in basis), zero(SURREAL1))
            if k % 2:
                g = g + smp.exponent(SURREAL1)  # mostly outside the span
            outcome(phi, g)
        assert phi._span == rows


class TestSharedZero:
    @pytest.mark.parametrize(
        "group",
        [INTEGERS, RATIONALS, LEX2] + [surreal_depth(d) for d in range(3)],
        ids=str,
    )
    def test_one_zero_per_descriptor(self, group):
        assert zero(group) is zero(group)
        assert zero(group) == embed_rational(group, 0)
        assert zero(group).is_zero()

    def test_a_directly_built_descriptor_gets_a_zero_that_combines(self):
        direct = GroupDescriptor("LexPower", 2)
        g = element(LEX2, (1, -2))
        assert zero(direct) is zero(direct)
        assert zero(direct) + g == g == g + zero(direct)
        assert zero(direct).compare(g) < 0 < g.compare(zero(direct))


class TestOneInstancePerGroup:
    """``GroupDescriptor(kind, param)`` returns the group's one instance by
    every route, and descriptors compare and hash by identity."""

    @pytest.mark.parametrize(
        "kind, param, named",
        [
            ("Integers", 0, INTEGERS),
            ("Rationals", 0, RATIONALS),
            ("LexPower", 3, lex_power(3)),
            ("SurrealDepth", 0, surreal_depth(0)),
            ("SurrealDepth", 2, surreal_depth(2)),
        ],
    )
    def test_every_route_gives_the_shared_instance(self, kind, param, named):
        routes = {
            "positional": GroupDescriptor(kind, param),
            "keyword": GroupDescriptor(kind=kind, param=param),
            "copy": copy.copy(named),
            "deepcopy": copy.deepcopy(named),
            "pickle": pickle.loads(pickle.dumps(named)),
            "element deepcopy": copy.deepcopy(zero(named)).descriptor,
        }
        assert {route: d is named for route, d in routes.items()} == dict.fromkeys(
            routes, True
        )
        if not param:
            assert GroupDescriptor(kind) is named

    def test_surreal_depth_is_bounded_by_the_nesting_the_parser_reads(self):
        # the deepest group is built; one level more is refused (its
        # refusal is in test_refusals), as its truncated series would
        # print deeper than the parser reads
        assert parsing.MAX_NESTING is groups.MAX_NESTING
        deepest = surreal_depth(groups.MAX_NESTING - 1)
        assert str(deepest) == "surreal99"
        assert deepest.exponent_group is surreal_depth(98)

    def test_descriptors_compare_and_hash_by_identity(self):
        assert GroupDescriptor.__eq__ is object.__eq__
        assert GroupDescriptor.__hash__ is object.__hash__

    @pytest.mark.parametrize("refused, equal", [(2.0, 2), (True, 1), (Fraction(3), 3)])
    def test_a_refused_parameter_leaves_the_equal_group_alone(self, refused, equal):
        shared = lex_power(equal)
        with pytest.raises(DomainError):
            GroupDescriptor("LexPower", refused)
        # read before any other construction, which an interning that
        # re-initialises the shared instance would use to repair it
        assert type(shared.param) is int and shared.param == equal
        assert str(shared) == f"lex{equal}" and lex_power(equal) is shared

    def test_a_shared_instance_is_initialised_once(self, monkeypatch):
        shared, calls = lex_power(2), []
        init = GroupDescriptor.__init__

        def counted(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GroupDescriptor, "__init__", counted)
        assert GroupDescriptor("LexPower", 2) is shared and lex_power(2) is shared
        assert copy.deepcopy(shared) is shared and calls == []

    def test_exponent_group_is_found_once(self, monkeypatch):
        group = surreal_depth(3)
        first, calls = group.exponent_group, []
        call = groups._OneInstancePerGroup.__call__

        def counted(cls, *args, **kwargs):
            calls.append(args)
            return call(cls, *args, **kwargs)

        monkeypatch.setattr(groups._OneInstancePerGroup, "__call__", counted)
        second = group.exponent_group
        monkeypatch.undo()
        assert calls == [] and second is first is surreal_depth(2)

    @pytest.mark.parametrize("direct_first", [True, False])
    def test_zero_has_the_shared_descriptor_whichever_is_asked_first(
        self, direct_first
    ):
        # one arity per order, each asked for nowhere else in the suite
        n = 5 if direct_first else 6
        asks = [lambda: zero(GroupDescriptor("LexPower", n)), lambda: zero(lex_power(n))]
        first, second = asks if direct_first else asks[::-1]
        assert first() is second()
        assert zero(GroupDescriptor("LexPower", n)).descriptor is lex_power(n)
