import re
import string
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    parse_derivation,
    parse_expression,
    parse_group_element,
    parse_series,
    tokenize,
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

    def test_a_product_of_numbers_is_not_a_literal(self):
        with pytest.raises(ParseError, match="^unexpected trailing input") as e:
            parse_series("3 * 2", Q_T)
        assert e.value.pos == 2

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


# What a token is made of, as characters: the grammar's symbols, digits,
# identifier characters, ASCII and Unicode whitespace, and characters the
# tokenizer refuses; the scanner below reads them one class at a time.
SYMBOLS = "{}()[],:^*+-/;"
IDENT_START = string.ascii_letters + "_"
IDENT_REST = IDENT_START + string.digits
TOKENIZER_PIECES = [
    *SYMBOLS, *string.digits, "t", "w", "x_1", "_", "Z9", "mod",
    " ", "\t", "\n", "\r", "\x0b", "\x0c", "\u00a0", "\u2003", "\u2028", "\u3000",
    "\u00b2", "\u00e9", "!",
]


def reference_tokens(text: str) -> list:
    """The ``(kind, text, pos)`` tokens of ``text``, one character class at
    a time, or the ``ParseError`` of its first refused character."""
    out, i = [], 0
    while i < len(text):
        c, j = text[i], i + 1
        if c in string.digits or c in IDENT_START:
            rest = string.digits if c in string.digits else IDENT_REST
            while j < len(text) and text[j] in rest:
                j += 1
            out.append(("number" if rest == string.digits else "ident", text[i:j], i))
        elif c in SYMBOLS:
            out.append((c, c, i))
        elif not c.isspace():
            raise ParseError(f"unexpected character {c!r}", i)
        i = j
    return out + [("end", "", len(text))]


class TestTokenize:
    def test_tokens(self):
        assert [tuple(tok) for tok in tokenize("3/4*t^(x_1)")] == [
            ("number", "3", 0), ("/", "/", 1), ("number", "4", 2), ("*", "*", 3),
            ("ident", "t", 4), ("^", "^", 5), ("(", "(", 6), ("ident", "x_1", 7),
            (")", ")", 10), ("end", "", 11),
        ]

    def test_unicode_whitespace_separates(self):
        s = parse_series("1\u00a0+\u2003t^(1)\n", Q_T)
        assert s == parse_series("1 + t^(1)", Q_T)

    @pytest.mark.parametrize("char", ["\u00b2", "\u00e9", "!"])
    def test_other_characters_are_refused_where_they_stand(self, char):
        with pytest.raises(ParseError, match="unexpected character") as excinfo:
            parse_series(f"1 + {char}", Q_T)
        assert excinfo.value.pos == 4

    @given(st.lists(st.sampled_from(TOKENIZER_PIECES), max_size=40).map("".join))
    def test_matches_a_character_class_scanner(self, text):
        try:
            expected = reference_tokens(text)
        except ParseError as e:
            with pytest.raises(ParseError) as excinfo:
                tokenize(text)
            assert (str(excinfo.value), excinfo.value.pos) == (str(e), e.pos)
            return
        tokens = tokenize(text)
        assert tokens == expected
        assert all(type(tok) is tuple for tok in tokens)


# Python refuses any nonzero digit limit below this, so it is where the
# parser's own digit check starts
THRESHOLD = sys.int_info.str_digits_check_threshold


class TestDigitLimitAtTheThreshold:
    """The lowest limit Python allows: a number as long as it parses, one
    digit more is refused at its offset, in every place a number is written."""

    CASES = {  # name -> (text of a number of n digits, its offset, group)
        "coefficient": (lambda n: "7" * n, 0, RATIONALS),
        "denominator": (lambda n: "1/" + "3" * n, 2, RATIONALS),
        "q-exponent": (lambda n: f"t^({'1' * n})", 3, RATIONALS),
        "lex-coordinate": (lambda n: f"t^((1,{'2' * n}))", 6, lex_power(2)),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_at_and_past_the_limit(self, name):
        text, offset, group = self.CASES[name]
        config = SessionConfig(group)
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(THRESHOLD)
        try:
            assert parse_series(text(THRESHOLD), config).terms
            with pytest.raises(ParseError) as excinfo:
                parse_series(text(THRESHOLD + 1), config)
        finally:
            sys.set_int_max_str_digits(old)
        message = f"a number of {THRESHOLD + 1} digits, past {THRESHOLD}"
        assert str(excinfo.value) == f"{message} (at offset {offset})"
        assert excinfo.value.pos == offset


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

    @pytest.mark.parametrize("notation", ["t", "w"])
    def test_the_deepest_truncated_series_round_trips(self, notation):
        # an exponent one bracket level per depth of the deepest group as
        # the precision: " (mod ...)" nests it to the parser's limit
        depth = parsing.MAX_NESTING - 1
        deepest = groups.element(surreal_depth(1), Series.monomial(RATIONALS, 1))
        for d in range(2, depth + 1):
            deepest = groups.element(
                surreal_depth(d), Series.monomial(surreal_depth(d - 1), deepest)
            )
        s = Series.make(surreal_depth(depth), [(0, 3)], deepest)
        config = SessionConfig(surreal_depth(depth), notation=notation)
        text = format_series(s, config)
        assert text.count("[") == depth and parse_series(text, config) == s

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

    @pytest.mark.parametrize(
        "text, image",
        [
            ("2 * 3", "6"),
            ("2 * (1 + t^(1))", "2 + 2*t^(1)"),
            ("2 * -t^(1)", "-2*t^(1)"),
            ("2 * t^(1) * 3", "6*t^(1)"),
        ],
    )
    def test_a_number_times_a_factor(self, text, image):
        assert format_series(parse_expression(text, Q_T)) == image

    def test_a_number_times_a_name_wants_the_series_variable(self):
        with pytest.raises(ParseError, match="^expected the series variable 't', got 'x'"):
            parse_expression("2 * x", Q_T)

    def test_unary_minus(self):
        s = parse_expression("-(1 + t^(1)) + 1", Q_T)
        assert [(e.value, c) for e, c in s.terms] == [(1, -1)]

    # A literal reads one sign before each term and a signed number in it,
    # so "- -3" is 3 but "-t^(1)" cannot follow a sign; an expression
    # negates a factor by a run of "-".  An int is a parse error's offset.
    @pytest.mark.parametrize(
        "text, literal, expression",
        [
            ("3 - -t^(1)", 5, "3 + t^(1)"),
            ("- -3", "3", "3"),
            ("1 + + 2", "3", "3"),
            ("-", 1, 1),
            ("+t^(1)", 1, 1),
        ],
    )
    def test_signs_in_literals_and_expressions(self, text, literal, expression):
        cases = ((parse_series, literal), (parse_expression, expression))
        for parse, expected in cases:
            if isinstance(expected, int):
                with pytest.raises(ParseError) as excinfo:
                    parse(text, Q_T)
                assert excinfo.value.pos == expected
            else:
                assert format_series(parse(text, Q_T)) == expected

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


def image_of(spec: str, series: str, config: SessionConfig = Q_T) -> str:
    aut = load_aut_spec(spec, config)
    return format_series(automorphisms.apply_aut(aut, parse_series(series, config)), config)


LEX2 = SessionConfig(lex_power(2))


class TestGrammarForms:
    """Each form's image, checked against one computed by hand."""

    @pytest.mark.parametrize(
        "spec, config, series, image",
        [
            # phi(g) = 3g/2: a_1 = phi(2) = 3, a_2 = 3 * (3 + 3/2) / 2
            ("exp_derivation{phi: linear(2: 3), shift: 1, precision: 5}", Q_T,
             "t^(2)", "t^(2) + 3*t^(3) + 27/4*t^(4) (mod t^(5))"),
            # phi((a, b)) = 2a + 5b: a_1 = phi((0,1)) = 5
            ("exp_derivation{phi: linear((1,0): 2, (0,1): 5), shift: (0,1),"
             " precision: (0,3)}", LEX2,
             "t^((0,1))", "t^((0,1)) + 5*t^((0,2)) (mod t^((0,3)))"),
            ("exp_derivation{phi: linear(2, 5), shift: (0,1), precision: (0,3)}", LEX2,
             "t^((0,1))", "t^((0,1)) + 5*t^((0,2)) (mod t^((0,3)))"),
        ],
    )
    def test_functional_pairs(self, spec, config, series, image):
        assert image_of(spec, series, config) == image

    @pytest.mark.parametrize(
        "zeta, series, image",
        [
            ("identity", "t^(1) + 2*t^(3)", "t^(1) + 2*t^(3)"),
            ("translate(2)", "t^(1) + 2*t^(3)", "t^(3) + 2*t^(5)"),
            ("scalar(1/2)", "t^(1) + 2*t^(3)", "t^(1/2) + 2*t^(3/2)"),
            # 5 at the break 0, slope 1 left of it and 2 right of it
            ("piecewise{breaks: [0], slopes: [1, 2], at: 5}", "t^(-1) + t^(1)",
             "t^(4) + t^(7)"),
            # the first listed map is applied last: g -> 2g + 1
            ("compose(translate(1), scalar(2))", "t^(1) + t^(3)", "t^(3) + t^(7)"),
        ],
    )
    def test_monotone_maps(self, zeta, series, image):
        assert image_of(f"external_group{{zeta: {zeta}}}", series) == image

    def test_translation_on_lex(self):
        spec = "external_group{zeta: translate((1,-1))}"
        assert image_of(spec, "t^((0,1))", LEX2) == "t^((1,0))"

    @pytest.mark.parametrize("config", [SessionConfig(INTEGERS), LEX2])
    def test_piecewise_is_refused_off_the_rationals(self, config):
        with pytest.raises(ParseError, match="only available over the rationals"):
            load_aut_spec(
                "external_group{zeta: piecewise{breaks: [0], slopes: [1, 2]}}", config
            )

    @pytest.mark.parametrize(
        "tau, config, series, image",
        [
            ("identity", Q_T, "t^(-1) + t^(2)", "t^(-1) + t^(2)"),
            # (a, b) -> (a, 3a + 2b)
            ("matrix([[1, 0], [3, 2]])", LEX2, "t^((1,0)) + t^((0,1))",
             "t^((0,2)) + t^((1,3))"),
            # the matrix, then the scalar: (a, b) -> (2a, 6a + 4b)
            ("compose(scalar(2), matrix([[1, 0], [3, 2]]))", LEX2,
             "t^((1,0)) + t^((0,1))", "t^((0,4)) + t^((2,6))"),
        ],
    )
    def test_additive_automorphisms(self, tau, config, series, image):
        assert image_of(f"external_field{{tau: {tau}}}", series, config) == image

    def test_unknown_additive_automorphism(self):
        with pytest.raises(ParseError, match="unknown additive automorphism 'rotate'"):
            load_aut_spec("external_field{tau: rotate(1)}", Q_T)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("external_group{zeta: matrix([[1]])}", "unknown monotone map 'matrix'"),
            ("external_field{tau: translate(1)}", "unknown additive automorphism 'translate'"),
            ("external_field{tau: compose(scalar(2), piecewise{breaks: [0], slopes: [1, 2]})}",
             "unknown additive automorphism 'piecewise'"),
            ("external_group{zeta: 1}", "expected 'a monotone map'"),
            ("external_field{tau: 1}", "expected 'an additive automorphism'"),
        ],
    )
    def test_each_role_keeps_its_own_forms(self, spec, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
            load_aut_spec(spec, Q_T)

    def test_unknown_derivation_spec(self):
        with pytest.raises(ParseError, match="unknown derivation spec 'rotate'") as e:
            parse_derivation("rotate{angle: 1}", Q_T)
        assert e.value.pos == 0

    @pytest.mark.parametrize("flag", ["maybe", "True", "false_"])
    def test_zero_default_is_true_or_false(self, flag):
        text = f"table{{map: {{1: t^(2)}}, gain: 1, zero_default: {flag}}}"
        with pytest.raises(ParseError, match="expected true or false") as e:
            parse_derivation(text, Q_T)
        assert e.value.pos == text.index(flag)

    @pytest.mark.parametrize("flag, zero_default", [("true", True), ("false", False)])
    def test_zero_default_flag(self, flag, zero_default):
        text = f"table{{map: {{1: t^(2)}}, gain: 1, zero_default: {flag}}}"
        assert parse_derivation(text, Q_T).rule.zero_default is zero_default
