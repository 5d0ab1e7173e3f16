"""Sums of many series go through ``Series.make`` once.

A signed sum read by ``parse_expression`` and a table derivation's
``D(s) = sum c_g D(t^g)`` hand all their summands' terms, at the least of
the summands' precisions, to one ``Series.make``.  Exact addition is
associative and its precision is the least of its operands', so that is
the chain of ``+``: each is checked here against a left ``+`` fold, on
truncated summands and cancelling terms, and its work is counted.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hahnaut.derivations import apply_derivation, make_table_derivation
from hahnaut.errors import HahnError, UnmappedExponent
from hahnaut.groups import RATIONALS, GroupElement, lex_power, surreal_depth
from hahnaut.parsing import SessionConfig, format_series, parse_expression
from hahnaut.series import Series
from test_kernel_paths import coefficients, small_exponents as exponents
from test_laws import nonzero, positive

LEX2 = lex_power(2)
SURREAL1 = surreal_depth(1)
GROUPS = {"Q": RATIONALS, "lex2": LEX2, "surreal1": SURREAL1}
EXAMPLES = 40
MIN_EVALUATED = 15


def outcome(fn, *args):
    """The result, or the type and message of the typed refusal."""
    try:
        return fn(*args)
    except HahnError as e:
        return type(e), str(e)


# -- parse_expression: a signed sum is the left + fold of its summands -------


def exact_series(group, min_size=0):
    return st.lists(
        st.tuples(exponents(group), coefficients), min_size=min_size, max_size=3
    ).map(lambda ts: Series.make(group, ts))


def summands(group):
    """The text of one summand: a parenthesized exact series, or its
    quotient by one of two or more terms, which the session precision
    truncates."""
    config = SessionConfig(group)
    text = exact_series(group).map(lambda s: f"({format_series(s, config)})")
    divisors = exact_series(group, min_size=2).filter(lambda s: len(s.terms) > 1)
    quotient = st.tuples(text, divisors).map(
        lambda pair: f"{pair[0]}/({format_series(pair[1], config)})"
    )
    return quotient | text


@pytest.mark.parametrize("name", GROUPS)
def test_signed_sum_is_the_left_fold_of_its_summands(name):
    group = GROUPS[name]
    outcomes = Counter()

    @settings(max_examples=EXAMPLES)
    @given(
        st.lists(st.tuples(st.booleans(), summands(group)), min_size=1, max_size=5),
        st.lists(st.integers(0, 4), max_size=2),
        exponents(group),
    )
    def check(signed, repeats, precision):
        # a repeated summand with the opposite sign cancels its terms
        for k in repeats:
            if k < len(signed):
                negative, text = signed[k]
                signed.append((not negative, text))
        (negative, first), rest = signed[0], signed[1:]
        text = ("-" if negative else "") + first + "".join(
            (" - " if neg else " + ") + part for neg, part in rest
        )
        config = SessionConfig(group, precision)

        def fold():
            total = None
            for negative, part in signed:
                value = parse_expression(part, config)
                value = -value if negative else value
                total = value if total is None else total + value
            return total

        expected = outcome(fold)
        assert outcome(parse_expression, text, config) == expected
        if isinstance(expected, Series):
            outcomes["truncated" if expected.precision is not None else "exact"] += 1

    check()
    assert outcomes["truncated"] >= MIN_EVALUATED, outcomes


def test_long_literal_adds_no_series(monkeypatch):
    """A 144-term lex2 literal is one ``make``, with no ``Series.__add__``."""
    terms = [((i, j), Fraction(j - 6, i + 7)) for i in range(-6, 6) for j in range(13)]
    terms = [(ex, c) for ex, c in terms if c]
    assert len(terms) == 144
    config = SessionConfig(LEX2)
    text = format_series(Series.make(LEX2, terms), config)
    adds = Counter()
    add = Series.__add__

    def counted(self, other):
        adds["+"] += 1
        return add(self, other)

    monkeypatch.setattr(Series, "__add__", counted)
    assert parse_expression(text, config) == Series.make(LEX2, terms)
    assert adds["+"] == 0


# -- a table derivation: D(s) = sum c_g D(t^g) -------------------------------


def fold_table(d, s):
    """The sum by definition: one ``+`` per mapped term of ``s``, then the
    cut at ``s.precision + gain``."""
    table = dict(d.rule.entries)
    total = Series.zero(d.group)
    for ex, c in s.terms:
        image = table.get(ex)
        if image is None:
            if d.rule.zero_default:
                continue
            raise UnmappedExponent(f"no table entry for exponent {ex}")
        total = total + image.scale(c)
    if s.precision is not None:
        total = total.truncate_to(s.precision + d.gain)
    return total


@st.composite
def table_cases(draw, group):
    """A contracting table whose images may be truncated, and an input that
    may be truncated and may hold exponents off the table."""
    gain = draw(positive(exponents(group)))
    keys = draw(st.lists(exponents(group), min_size=1, max_size=4, unique=True))
    table = {}
    for key in keys:
        floor = key + gain
        above = st.tuples(positive(exponents(group)), nonzero)
        image = [(floor + up, c) for up, c in draw(st.lists(above, max_size=3))]
        if draw(st.booleans()):
            image.append((floor, draw(nonzero)))
        cut = draw(st.none() | positive(exponents(group)))
        table[key] = Series.make(group, image, None if cut is None else floor + cut)
    d = make_table_derivation(group, table, gain, draw(st.booleans()))
    exps = st.sampled_from(keys) | exponents(group)
    s = Series.make(
        group,
        draw(st.lists(st.tuples(exps, coefficients), max_size=5)),
        draw(st.none() | exponents(group)),
    )
    return d, s


@pytest.mark.parametrize("name", GROUPS)
def test_table_derivation_is_the_fold_of_its_images(name):
    group = GROUPS[name]
    outcomes = Counter()

    @settings(max_examples=EXAMPLES)
    @given(table_cases(group))
    def check(case):
        d, s = case
        expected = outcome(fold_table, d, s)
        assert outcome(apply_derivation, d, s) == expected
        outcomes["refused" if isinstance(expected, tuple) else "applied"] += 1

    check()
    assert outcomes["applied"] >= MIN_EVALUATED, outcomes
    assert outcomes["refused"], outcomes


def test_table_derivation_merges_once(monkeypatch):
    """60 mapped terms cost one merge: a ``+`` fold took 1 771 compares."""
    table = {k: Series.monomial(RATIONALS, k + 1, k + 1) for k in range(60)}
    d = make_table_derivation(RATIONALS, table, 1)
    s = Series.make(RATIONALS, [(k, Fraction(1, k + 2)) for k in range(60)])
    expected = fold_table(d, s)
    compares = Counter()
    compare = GroupElement.compare

    def counted(self, other):
        compares["compare"] += 1
        return compare(self, other)

    monkeypatch.setattr(GroupElement, "compare", counted)
    assert apply_derivation(d, s) == expected
    assert compares["compare"] <= 400, compares
