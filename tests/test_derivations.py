import re
import time
from fractions import Fraction

import pytest

from hahnaut.derivations import (
    MonomialDerivation,
    PhiShift,
    apply_derivation,
    check_derivation,
    exp_apply,
    exp_derivation,
    make_phi_derivation,
    make_table_derivation,
)
from hahnaut.automorphisms import apply_aut
from hahnaut.errors import (
    DomainError,
    NonContracting,
    NonTerminating,
    OutsideSpan,
    UnmappedExponent,
)
from hahnaut.groups import (
    RATIONALS,
    LinearFunctional,
    element,
    embed_rational,
    lex_power,
    scaling_functional,
    standard_functional,
    surreal_depth,
)
from hahnaut.parsing import SessionConfig, parse_derivation
from hahnaut.sampling import CheckResult, SampleSpec
from hahnaut.series import Series

Q = RATIONALS
T = Series.monomial(Q, 1)
ONE = Series.one(Q)


def phi_id_shift_one():
    return make_phi_derivation(scaling_functional(Q, 1), 1)


def S(*terms, precision=None):
    return Series.make(Q, [(Fraction(e), Fraction(c)) for e, c in terms], precision)


class TestConstruction:
    def test_phi_shift_monomial_action(self):
        d = phi_id_shift_one()
        image = apply_derivation(d, Series.monomial(Q, 3))
        assert [(e.value, c) for e, c in image.terms] == [(4, 3)]

    def test_zero_shift_rejected(self):
        with pytest.raises(NonContracting):
            make_phi_derivation(scaling_functional(Q, 1), 0)

    def test_zero_functional_gives_zero_derivation(self):
        d = make_phi_derivation(scaling_functional(Q, 0), 1)
        assert apply_derivation(d, S((0, 5), (2, 3))).is_exact_zero()
        target = embed_rational(Q, 5)
        assert exp_apply(d, T, target).agrees(T)

    def test_table_gain_validation(self):
        # a table that does not contract by its gain is built, and refused
        # where its gain would certify a result
        d = make_table_derivation(Q, [(1, Series.monomial(Q, 1))], 1)
        assert apply_derivation(d, T) == T
        with pytest.raises(NonContracting):
            apply_derivation(d, S((1, 1), precision=2))


class TestApplication:
    def test_constant_is_killed_by_phi(self):
        d = phi_id_shift_one()
        image = apply_derivation(d, S((0, 5), (2, 3)))
        assert [(e.value, c) for e, c in image.terms] == [(3, 6)]

    def test_leibniz_spot_check(self):
        d = phi_id_shift_one()
        t2 = Series.monomial(Q, 2)
        lhs = apply_derivation(d, T * t2)
        rhs = T * apply_derivation(d, t2) + t2 * apply_derivation(d, T)
        assert lhs.agrees(rhs)
        assert [(e.value, c) for e, c in lhs.terms] == [(4, 3)]

    def test_zero_maps_to_zero(self):
        assert apply_derivation(phi_id_shift_one(), Series.zero(Q)).is_exact_zero()

    def test_precision_gains_the_shift(self):
        d = phi_id_shift_one()
        image = apply_derivation(d, S((1, 1), precision=3))
        assert image.precision.value == 4

    def test_table_unmapped_exponent(self):
        d = make_table_derivation(Q, [(1, Series.monomial(Q, 2))], 1)
        with pytest.raises(UnmappedExponent):
            apply_derivation(d, Series.monomial(Q, 2))
        d0 = make_table_derivation(Q, [(1, Series.monomial(Q, 2))], 1, zero_default=True)
        assert apply_derivation(d0, Series.monomial(Q, 2)).is_exact_zero()


class TestExponential:
    def test_exp_of_t_matches_geometric_tail(self):
        aut = exp_derivation(phi_id_shift_one(), 5)
        image = apply_aut(aut, T)
        assert [(e.value, c) for e, c in image.terms] == [(1, 1), (2, 1), (3, 1), (4, 1)]
        assert image.precision.value == 5

    def test_exp_is_multiplicative_on_t_squared(self):
        aut = exp_derivation(phi_id_shift_one(), 5)
        direct = apply_aut(aut, Series.monomial(Q, 2))
        assert [(e.value, c) for e, c in direct.terms] == [(2, 1), (3, 2), (4, 3)]
        squared = apply_aut(aut, T) * apply_aut(aut, T)
        assert direct.agrees(squared)

    def test_substitution_oracle(self):
        # exp(d) is substitution t -> t/(1-t) for d = PhiShift(id, 1).
        target = embed_rational(Q, 10)
        base = T * (ONE - T).invert(target)
        d = phi_id_shift_one()
        power = ONE
        for n in range(1, 6):
            power = (power * base).truncate_to(target)
            image = exp_apply(d, Series.monomial(Q, n), target)
            assert image.agrees(power)

    def test_inverse_is_exp_of_negation(self):
        from hahnaut.derivations import negate_derivation

        d = phi_id_shift_one()
        neg = negate_derivation(d)
        target = embed_rational(Q, 7)
        s = S((-1, 2), (0, 1), (3, -4))
        forward = exp_apply(d, s, target)
        assert exp_apply(neg, forward, target).agrees(s.truncate_to(target))


LEX2 = lex_power(2)
SURREAL1 = surreal_depth(1)


def lex(*terms, precision=None):
    return Series.make(LEX2, list(terms), precision)


def timed(fn, *args):
    start = time.perf_counter()
    try:
        return fn(*args)
    finally:
        assert time.perf_counter() - start < 1.0


class TestExponentialTermination:
    """A ``PhiShift`` row ends iff it reaches the precision or meets a zero
    factor, and is refused at once otherwise; a table's rounds are bounded
    by its number of entries."""

    def test_lex2_row_below_the_target_class_is_refused(self):
        d = make_phi_derivation(standard_functional(LEX2, [1, 2]), (0, 1))
        s = lex(((0, 1), 1), ((1, 1), 1))
        with pytest.raises(NonTerminating) as raised:
            timed(exp_apply, d, s, element(LEX2, (1, 0)))
        assert str(raised.value) == (
            "exponential series does not reach the target precision: the "
            "archimedean class of the shift (0,1) is infinitesimal relative to "
            "the class of (1,-1), the gap from t^(0,1) to the precision (1,0), "
            "and no factor phi(g) + i*phi(shift) vanishes"
        )

    def test_surreal1_row_below_the_target_class_is_refused(self):
        small = element(SURREAL1, Series.monomial(Q, 1))
        one = embed_rational(SURREAL1, 1)
        phi = LinearFunctional(SURREAL1, ((one, 1), (small, 2)))
        d = make_phi_derivation(phi, small)
        s = Series.make(SURREAL1, [(small, 1), (one + small, 1)])
        with pytest.raises(NonTerminating) as raised:
            timed(exp_apply, d, s, one)
        assert str(raised.value) == (
            "exponential series does not reach the target precision: the "
            "archimedean class of the shift [t^(1)] is infinitesimal relative to "
            "the class of [1 - t^(1)], the gap from t^[t^(1)] to the precision "
            "[1], and no factor phi(g) + i*phi(shift) vanishes"
        )

    def test_lex2_row_ended_by_a_zero_factor_is_computed(self):
        # phi(0,-2) = -2 and phi(shift) = 1: the third factor is 0
        d = make_phi_derivation(standard_functional(LEX2, [1, 1]), (0, 1))
        image = timed(exp_apply, d, lex(((0, -2), 1)), element(LEX2, (1, 0)))
        assert [(e.value, c) for e, c in image.terms] == [
            ((0, -2), 1),
            ((0, -1), -2),
            ((0, 0), 1),
        ]
        assert image.precision == element(LEX2, (1, 0))

    def test_truncated_lex2_input_is_computed_below_its_precision(self):
        # every row would stay below the target (1,0), but the answer is
        # only known below the input's precision (0,3), which they reach
        d = make_phi_derivation(standard_functional(LEX2, [1, 2]), (0, 1))
        s = lex(((0, 1), 1), precision=(0, 3))
        image = timed(exp_apply, d, s, element(LEX2, (1, 0)))
        assert [(e.value, c) for e, c in image.terms] == [((0, 1), 1), ((0, 2), 2)]
        assert image.precision == element(LEX2, (0, 3))

    def test_long_finite_rows_are_computed(self):
        # D(t^g) = 20000 g t^(g + 1/20000): from t^(1/20000) every factor
        # is i, so 19 999 coefficients 1 lie below t^1
        n = 20000
        d = make_phi_derivation(scaling_functional(Q, n), Fraction(1, n))
        image = timed(exp_apply, d, Series.monomial(Q, Fraction(1, n)), embed_rational(Q, 1))
        assert [(e.value, c) for e, c in image.terms] == [
            (Fraction(k, n), 1) for k in range(1, n)
        ]
        assert image.precision == embed_rational(Q, 1)

    def test_shift_outside_the_span_fails_as_the_second_round_did(self):
        d = make_phi_derivation(LinearFunctional(LEX2, (((1, 0), 1),)), (0, 1))
        with pytest.raises(OutsideSpan, match=r"^\(1,1\) is not in the Q-span"):
            exp_apply(d, lex(((1, 0), 1)), element(LEX2, (3, 0)))

    def test_non_positive_shift_is_refused(self):
        d = MonomialDerivation(Q, PhiShift(scaling_functional(Q, 1), element(Q, -1)), element(Q, 1))
        with pytest.raises(NonContracting):
            exp_apply(d, T, embed_rational(Q, 5))

    def test_table_rounds_end_within_its_entries(self):
        # D(t) = t^2, D(t^2) = 2 t^3, D(t^3) = 0: round 3 = 2 + 1 is zero
        d = make_table_derivation(
            Q, {1: Series.monomial(Q, 2), 2: Series.monomial(Q, 3, 2)}, 1, zero_default=True
        )
        image = exp_apply(d, T, embed_rational(Q, 8))
        assert [(e.value, c) for e, c in image.terms] == [(1, 1), (2, 1), (3, 1)]

    def test_table_past_its_bound_is_refused(self):
        # t^1 -> t^1 never contracts, so the exponential is refused before
        # its first round
        d = make_table_derivation(Q, {1: T}, 1)
        with pytest.raises(NonContracting) as raised:
            timed(exp_apply, d, T, embed_rational(Q, 5))
        assert str(raised.value) == "image of t^1 starts below the certified gain"

    @pytest.mark.parametrize("target", [4, 6])
    def test_non_contracting_table_is_refused_on_exact_input(self, target):
        # t -> t^5 -> t^2 -> 0 ends, but t^5 -> t^2 falls below 5 + 1: the
        # rounds gave t (mod t^4) below t^4 and t + 1/2 t^2 + t^5 below t^6
        d = make_table_derivation(
            Q, {1: Series.monomial(Q, 5), 5: Series.monomial(Q, 2)}, 1,
            zero_default=True,
        )
        with pytest.raises(NonContracting, match=r"^image of t\^5 starts below"):
            exp_apply(d, T, embed_rational(Q, target))

    def test_non_contracting_table_is_refused_on_truncated_input(self):
        # t^3 -> t^(3/2) falls below 3 + 1/2: t + O(t^2) would map to
        # t^2 + O(t^(5/2)), but t + t^3, which agrees with it, maps to
        # t^(3/2) + t^2
        d = make_table_derivation(
            Q, {1: Series.monomial(Q, 2), 3: Series.monomial(Q, Fraction(3, 2))},
            Fraction(1, 2), zero_default=True,
        )
        assert apply_derivation(d, S((1, 1), (3, 1))) == S((Fraction(3, 2), 1), (2, 1))
        with pytest.raises(NonContracting, match=r"^image of t\^3 starts below"):
            apply_derivation(d, S((1, 1), precision=2))


class TestCheckDerivation:
    def test_phi_shift_passes_all_laws(self):
        report = check_derivation(phi_id_shift_one(), SampleSpec(7, 50))
        assert report.ok
        assert [r.status for r in (report.leibniz, report.contracting, report.additive)] == [
            "pass",
            "pass",
            "pass",
        ]

    def test_constant_table_fails_leibniz_with_witness(self):
        # t^g -> t^(g+1), "phi(g) = 1": not additive in g.
        d = make_table_derivation(
            Q, [(1, Series.monomial(Q, 2)), (2, Series.monomial(Q, 3))], 1
        )
        report = check_derivation(d, SampleSpec(7, 50))
        assert report.leibniz.status == "fail"
        a, b = report.leibniz.witness
        assert a.agrees(T) and b.agrees(T)

    def test_identity_table_fails_contracting(self):
        d = make_table_derivation(
            Q,
            [(1, Series.monomial(Q, 1)), (2, Series.monomial(Q, 2))],
            1,
        )
        report = check_derivation(d, SampleSpec(7, 50))
        assert report.contracting.status == "fail"

    def test_exp_refuses_unchecked_broken_table(self):
        d = make_table_derivation(
            Q, [(1, Series.monomial(Q, 2)), (2, Series.monomial(Q, 3))], 1
        )
        with pytest.raises(DomainError):
            exp_derivation(d, 5)

    def test_table_contraction_is_exact(self):
        # one sample evaluates no t^5, yet the entry 5 -> 5 t^5 is checked
        d = make_table_derivation(
            Q,
            {1: Series.monomial(Q, 2), 2: Series.monomial(Q, 3, 2), 5: Series.monomial(Q, 5, 5)},
            1,
            zero_default=True,
        )
        report = check_derivation(d, SampleSpec(7, 1))
        assert report.contracting.status == "fail"
        assert report.contracting.witness == (Series.monomial(Q, 5),)
        with pytest.raises(DomainError, match="fails the contracting check"):
            exp_derivation(d, 8, verify=SampleSpec(7, 1))

    def test_table_contraction_holds_the_declared_gain(self):
        # t^1 -> t^2 rises by 1, short of the declared gain 2
        d = make_table_derivation(Q, {1: Series.monomial(Q, 2)}, 2)
        assert check_derivation(d, SampleSpec(7, 5)).contracting.status == "fail"


# Each table over Q and lex2 as the CLI reads it and as the library builds
# it from the unit exponent e: t^(ke) -> k t^((k+1)e) on its keys, and the
# broken table also maps t^(5e) to 5 t^(5e), which gains nothing.
TABLE_TEXTS = {
    "contracting": "table{{map: {{{1}: t^({2}), {2}: 2*t^({3})}}, gain: {1}}}",
    "zero-default": "table{{map: {{{1}: t^({2})}}, gain: {1}, zero_default: true}}",
    "broken": (
        "table{{map: {{{1}: t^({2}), {2}: 2*t^({3}), {5}: 5*t^({5})}}, "
        "gain: {1}, zero_default: true}}"
    ),
}
TABLE_KEYS = {"contracting": (1, 2), "zero-default": (1,), "broken": (1, 2, 5)}
UNITS = {"Q": (Q, 1, "{}"), "lex2": (lex_power(2), (0, 1), "(0,{})")}


def table_from_library(group, e, kind):
    unit = element(group, e)
    entries = [
        (unit.scale(k), Series.monomial(group, unit.scale(k if k == 5 else k + 1), k))
        for k in TABLE_KEYS[kind]
    ]
    return make_table_derivation(group, entries, unit, kind != "contracting")


class TestOneTableContract:
    """The CLI and the library build a table the same way; contraction is
    judged where the gain certifies a result, and by ``check_derivation``."""

    @pytest.mark.parametrize("kind", list(TABLE_TEXTS))
    @pytest.mark.parametrize("name", list(UNITS))
    def test_the_parser_builds_the_library_table(self, name, kind):
        group, e, shown = UNITS[name]
        text = TABLE_TEXTS[kind].format(*[shown.format(k) for k in range(6)])
        parsed = parse_derivation(text, SessionConfig(group))
        assert parsed == table_from_library(group, e, kind)

    @pytest.mark.parametrize("name", list(UNITS))
    def test_a_broken_table_is_built_and_refused_where_its_gain_certifies(self, name):
        group, e, _ = UNITS[name]
        d = table_from_library(group, e, "broken")
        five = element(group, e).scale(5)
        t5 = Series.monomial(group, five)
        message = f"^image of t\\^{re.escape(str(five))} starts below the certified gain$"
        assert apply_derivation(d, t5) == t5.scale(5)
        truncated = t5.truncate_to(five + five)
        with pytest.raises(NonContracting, match=message):
            apply_derivation(d, truncated)
        with pytest.raises(NonContracting, match=message):
            exp_apply(d, truncated, five + five)
        report = check_derivation(d, SampleSpec(7, 1))
        assert report.contracting == CheckResult("fail", (t5,))
        with pytest.raises(DomainError, match="fails the contracting check"):
            exp_derivation(d, five + five, verify=SampleSpec(7, 1))


class TestTruncatedTableImages:
    """A table image known only below its precision is read at its certified
    lower bound, and an exponential of the table is certified only below
    the precision of every round, the empty last one included."""

    def test_an_image_zero_below_the_gain_caps_the_exponential(self):
        # D(t) = 0 (mod t^2): round 1 is empty, but only below t^2; the
        # completion D(t) = 7 t^5 gives t + 7 t^5
        d = make_table_derivation(Q, {1: S(precision=2)}, 1)
        assert check_derivation(d, SampleSpec(7, 5)).contracting == CheckResult("pass")
        assert exp_apply(d, T, element(Q, 10)) == S((1, 1), precision=2)
        completion = make_table_derivation(Q, {1: S((5, 7))}, 1, zero_default=True)
        assert exp_apply(completion, T, element(Q, 10)) == S(
            (1, 1), (5, 7), precision=10
        )

    def test_an_image_zero_below_its_key_plus_gain_breaks_the_table(self):
        # D(t) = 0 (mod t^1) may start at t^1, below 1 + 1
        d = make_table_derivation(Q, {1: S(precision=1)}, 1)
        assert check_derivation(d, SampleSpec(7, 5)).contracting == CheckResult(
            "fail", (T,)
        )
        message = r"^image of t\^1 starts below the certified gain$"
        with pytest.raises(NonContracting, match=message):
            apply_derivation(d, S((1, 1), precision=3))
        with pytest.raises(NonContracting, match=message):
            exp_apply(d, T, element(Q, 10))

    def test_an_exact_zero_image_contracts(self):
        d = make_table_derivation(Q, {1: Series.zero(Q)}, 1)
        assert check_derivation(d, SampleSpec(7, 5)).contracting == CheckResult("pass")
        assert exp_apply(d, T, element(Q, 10)) == S((1, 1), precision=10)
