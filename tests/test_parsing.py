from fractions import Fraction

import pytest

from hahnaut import automorphisms, groups, parsing
from hahnaut.errors import (
    ExponentParseError,
    NotInfinitesimal,
    ParseError,
)
from hahnaut.groups import INTEGERS, RATIONALS, lex_power, surreal_depth
from hahnaut.parsing import (
    SessionConfig,
    format_series,
    load_aut_spec,
    parse_expression,
    parse_group_element,
    parse_series,
)
from hahnaut.sampling import Sampler
from hahnaut.series import Series

Q_T = SessionConfig(RATIONALS)
Q_W = SessionConfig(RATIONALS, notation="w")


class TestParseSeries:
    def test_basic_terms(self):
        s = parse_series("3*t^(-2) + 5*t^(1)", Q_T)
        assert [(e.value, c) for e, c in s.terms] == [(-2, 3), (1, 5)]

    def test_omega_mode_negates_exponents(self):
        s = parse_series("w^(2) + 3", Q_W)
        assert [(e.value, c) for e, c in s.terms] == [(-2, 1), (0, 3)]

    def test_incomplete_exponent_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_series("t^(", Q_T)
        assert excinfo.value.pos == 3

    def test_exponent_outside_group(self):
        with pytest.raises(ExponentParseError):
            parse_series("t^(1/2)", SessionConfig(INTEGERS))

    def test_wrong_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_series("w^(1)", Q_T)

    def test_mod_suffix(self):
        s = parse_series("1 + t^(1) (mod t^(3))", Q_T)
        assert s.precision.value == 3

    def test_negative_and_unit_coefficients(self):
        s = parse_series("-t^(1) + 2 - 1/2*t^(3)", Q_T)
        assert [(e.value, c) for e, c in s.terms] == [
            (0, 2),
            (1, -1),
            (3, Fraction(-1, 2)),
        ]

    def test_lex_tuple_exponents(self):
        config = SessionConfig(lex_power(2))
        s = parse_series("t^((1,-2)) + 2*t^((0,1/2))", config)
        assert [(e.value, c) for e, c in s.terms] == [
            ((Fraction(0), Fraction(1, 2)), 2),
            ((Fraction(1), Fraction(-2)), 1),
        ]

    def test_surreal_bracket_exponents(self):
        config = SessionConfig(surreal_depth(1))
        s = parse_series("t^([-t^(-1)]) + 4", config)
        inner = s.terms[0][0].value
        assert [(e.value, c) for e, c in inner.terms] == [(-1, -1)]


class TestFormatSeries:
    def test_t_mode_ascending(self):
        s = Series.make(RATIONALS, [(1, 5), (-2, 3)])
        assert format_series(s, Q_T) == "3*t^(-2) + 5*t^(1)"

    def test_omega_mode_descending(self):
        s = Series.make(RATIONALS, [(1, 5), (-2, 3)])
        assert format_series(s, Q_W) == "3*w^(2) + 5*w^(-1)"

    def test_zero(self):
        assert format_series(Series.zero(RATIONALS), Q_T) == "0"

    def test_constant_and_signs(self):
        s = Series.make(RATIONALS, [(0, -3), (2, -1)])
        assert format_series(s, Q_T) == "-3 - t^(2)"

    def test_precision_suffix(self):
        s = Series.make(RATIONALS, [(1, 1)], precision=Fraction(4))
        assert format_series(s, Q_T) == "t^(1) (mod t^(4))"
        assert format_series(s, Q_W) == "w^(-1) (mod w^(-4))"

    @pytest.mark.parametrize("group", [INTEGERS, RATIONALS, lex_power(2), surreal_depth(1)])
    @pytest.mark.parametrize("notation", ["t", "w"])
    def test_round_trip_on_samples(self, group, notation):
        config = SessionConfig(group, notation=notation)
        sampler = Sampler(7)
        for i in range(40):
            precision = groups.embed_rational(group, 5) if i % 3 == 0 else None
            s = sampler.series(group, precision=precision)
            assert parse_series(format_series(s, config), config) == s


class TestExpressions:
    def test_product(self):
        s = parse_expression("(1 + t^(1)) * (1 - t^(1))", Q_T)
        assert [(e.value, c) for e, c in s.terms] == [(0, 1), (2, -1)]

    def test_division_by_monomial_is_exact(self):
        s = parse_expression("(t^(2) + t^(3)) / t^(1)", Q_T)
        assert [(e.value, c) for e, c in s.terms] == [(1, 1), (2, 1)]
        assert s.precision is None

    def test_division_with_session_precision(self):
        config = SessionConfig(RATIONALS, groups.embed_rational(RATIONALS, 4))
        s = parse_expression("1 / (1 + t^(1))", config)
        assert [(e.value, c) for e, c in s.terms] == [(0, 1), (1, -1), (2, 1), (3, -1)]

    def test_unary_minus(self):
        s = parse_expression("-(1 + t^(1)) + 1", Q_T)
        assert [(e.value, c) for e, c in s.terms] == [(1, -1)]

    @pytest.mark.parametrize("count", [1, 2, 37, 64])
    def test_long_signed_sum_equals_the_left_fold(self, count):
        # summands that cancel, and quotients cut at the session precision
        # at different bounds, so terms and precision both have to agree
        config = SessionConfig(RATIONALS, groups.embed_rational(RATIONALS, 9))
        smp = Sampler(count)
        texts, summands = [], []
        for k in range(count):
            sign = smp.rng.choice("+-")
            e = smp.rng.randint(-3, 6)
            text = f"{smp.rng.randint(1, 9)}/{smp.rng.randint(1, 4)}*t^({e})"
            if k % 5 == 4:
                text = f"t^({e})/(1 + t^(1))"
            texts.append((sign, text))
            summands.append(parse_expression(text, config))
        expression = " ".join(f"{sign} {text}" for sign, text in texts).lstrip("+ ")
        folded = summands[0] if texts[0][0] == "+" else -summands[0]
        for (sign, _), s in zip(texts[1:], summands[1:]):
            folded = folded + s if sign == "+" else folded - s
        assert parse_expression(expression, config) == folded


class TestGroupElements:
    def test_rational(self):
        assert parse_group_element("-7/2", RATIONALS).value == Fraction(-7, 2)

    def test_lex_tuple(self):
        g = parse_group_element("(1, -1/3)", lex_power(2))
        assert g.value == (Fraction(1), Fraction(-1, 3))

    def test_lex_bare_rational_embeds_dominantly(self):
        g = parse_group_element("2", lex_power(2))
        assert g.value == (Fraction(2), Fraction(0))

    def test_surreal_bracket(self):
        g = parse_group_element("[3 + 2*t^(1)]", surreal_depth(1))
        assert [(e.value, c) for e, c in g.value.terms] == [(0, 3), (1, 2)]


class TestAutSpecs:
    def test_factorize_example_spec(self):
        aut = load_aut_spec(
            "compose(character{1: 2}, external_field{tau: scalar(2)})", Q_T
        )
        image = automorphisms.apply_aut(aut, Series.monomial(RATIONALS, 1))
        assert [(e.value, c) for e, c in image.terms] == [(2, 4)]

    def test_internal_mult_validation_runs(self):
        with pytest.raises(NotInfinitesimal):
            load_aut_spec("internal_mult{eps: 1}", Q_T)

    def test_exp_derivation_spec(self):
        aut = load_aut_spec(
            "exp_derivation{phi: linear(1), shift: 1, precision: 5}", Q_T
        )
        image = automorphisms.apply_aut(aut, Series.monomial(RATIONALS, 1))
        assert [(e.value, c) for e, c in image.terms] == [(1, 1), (2, 1), (3, 1), (4, 1)]

    def test_external_group_spec(self):
        aut = load_aut_spec(
            "external_group{zeta: piecewise{breaks: [0], slopes: [1, 2]},"
            " scale: 0: 3, default: 1}",
            Q_T,
        )
        image = automorphisms.apply_aut(
            aut, Series.make(RATIONALS, [(0, 5), (1, 1)])
        )
        assert [(e.value, c) for e, c in image.terms] == [(0, 15), (2, 1)]

    def test_inverse_and_nested_compose(self):
        aut = load_aut_spec(
            "inverse(compose(external_field{tau: scalar(2)},"
            " external_field{tau: scalar(3)}))",
            Q_T,
        )
        image = automorphisms.apply_aut(aut, Series.monomial(RATIONALS, 6))
        assert [(e.value, c) for e, c in image.terms] == [(1, 1)]

    def test_unknown_spec_is_parse_error(self):
        with pytest.raises(ParseError):
            load_aut_spec("rotate{angle: 1}", Q_T)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            load_aut_spec("identity identity", Q_T)
