"""Differential tests: the series kernel's fast paths against definitions.

Addition, multiplication, comparison, agreement, truncation and inversion
build their results by merging or cutting normalized term lists.  Each is
checked here against its definition through ``Series.make``, the one
constructor that coerces and normalizes:

* ``a + b`` is ``make`` on the concatenated terms at the lesser precision,
* ``a * b`` is ``make`` on every pairwise product at the product precision,
* ``compare`` and ``agrees`` read the ``make``-built difference series,
* ``truncate_to`` is ``make`` on the terms at the lesser precision,
* ``invert`` is the geometric expansion built from those definitions.

"The same" means equal terms tuples and equal precision or, when the
definition refuses, the same error type with the same message.  Every
result must also hold the normalized invariant.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hahnaut.errors import DescriptorMismatch, HahnError, InsufficientPrecision
from hahnaut.groups import (
    INTEGERS,
    RATIONALS,
    GroupElement,
    element,
    embed_rational,
    lex_power,
    surreal_depth,
)
from hahnaut.sampling import Sampler
from hahnaut.series import Series

GROUPS = {
    "Z": INTEGERS,
    "Q": RATIONALS,
    "lex2": lex_power(2),
    "surreal1": surreal_depth(1),
    "surreal2": surreal_depth(2),
}


# -- definitions through Series.make ------------------------------------------


def pmin(p, q):
    if p is None:
        return q
    if q is None:
        return p
    return p if p.compare(q) <= 0 else q


def check_groups(a, b):
    if a.group != b.group:
        raise DescriptorMismatch(
            f"series over {a.group} and {b.group} cannot be combined"
        )


def ref_add(a, b):
    check_groups(a, b)
    return Series.make(a.group, a.terms + b.terms, pmin(a.precision, b.precision))


def ref_difference(a, b):
    check_groups(a, b)
    negated = tuple((ex, -c) for ex, c in b.terms)
    return Series.make(a.group, a.terms + negated, pmin(a.precision, b.precision))


def v_lower(s):
    return s.terms[0][0] if s.terms else s.precision


def ref_mul(a, b):
    check_groups(a, b)
    if a.is_exact_zero() or b.is_exact_zero():
        return Series.zero(a.group)
    precision = None
    if a.precision is not None:
        precision = pmin(precision, a.precision + v_lower(b))
    if b.precision is not None:
        precision = pmin(precision, b.precision + v_lower(a))
    products = [(ea + eb, ca * cb) for ea, ca in a.terms for eb, cb in b.terms]
    return Series.make(a.group, products, precision)


def ref_compare(a, b):
    diff = ref_difference(a, b)
    if diff.terms:
        return 1 if diff.terms[0][1] > 0 else -1
    if diff.precision is None:
        return 0
    raise InsufficientPrecision(
        f"difference vanishes below {diff.precision} but the inputs are inexact"
    )


def ref_agrees(a, b):
    return not ref_difference(a, b).terms


def ref_truncate(s, p):
    return Series.make(s.group, s.terms, pmin(s.precision, element(s.group, p)))


def ref_invert(s, target):
    """The geometric expansion, for an exact series with a leading term."""
    target = element(s.group, target)
    g, r = s.terms[0]
    unit = s.shift(-g).scale(1 / r)
    eps = ref_difference(unit, Series.one(s.group))
    if not eps.terms:
        return Series.monomial(s.group, -g, 1 / r)
    neg_eps = eps.scale(-1)
    total = Series.one(s.group)
    power = ref_truncate(neg_eps, target)
    while power.terms:
        total = ref_add(total, power)
        power = ref_truncate(ref_mul(power, neg_eps), target)
    result = total.scale(1 / r).shift(-g)
    return Series.make(s.group, result.terms, target - g)


# -- comparison helpers -----------------------------------------------------------


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except HahnError as exc:
        return (type(exc), str(exc))


def assert_normalized(s):
    assert type(s) is Series
    assert type(s.terms) is tuple
    exps = [ex for ex, _ in s.terms]
    for ex, c in s.terms:
        assert type(ex) is GroupElement and ex.descriptor == s.group
        assert type(c) is Fraction and c != 0
    assert all(x.compare(y) < 0 for x, y in zip(exps, exps[1:]))
    if s.precision is not None:
        assert all(ex.compare(s.precision) < 0 for ex in exps)


def assert_same(fast, ref, *args):
    got, want = outcome(fast, *args), outcome(ref, *args)
    assert got == want
    if got[0] == "value" and isinstance(got[1], Series):
        assert_normalized(got[1])


def assert_pair(a, b):
    assert_same(lambda x, y: x + y, ref_add, a, b)
    assert_same(lambda x, y: x - y, ref_difference, a, b)
    assert_same(lambda x, y: x * y, ref_mul, a, b)
    assert_same(Series.compare, ref_compare, a, b)
    assert_same(Series.agrees, ref_agrees, a, b)


# -- seeded operands ----------------------------------------------------------------


def seeded_pairs(group, seed):
    """Sampled pairs, some exact and some truncated, plus pairs that cancel."""
    smp = Sampler(seed)

    def draw():
        precision = None if smp.rng.random() < 0.4 else smp.exponent(group)
        return smp.series(group, max_terms=5, precision=precision)

    a, b = draw(), draw()
    yield a, b
    yield a, a
    yield a, -a
    yield a, a + b
    yield a + b, b
    p = smp.exponent(group)
    yield a, a.truncate_to(p)
    yield a.truncate_to(p), b.truncate_to(p)


@pytest.mark.parametrize("name", GROUPS)
def test_seeded_pairs_match_definitions(name):
    group = GROUPS[name]
    for seed in range(40):
        for a, b in seeded_pairs(group, seed):
            assert_pair(a, b)


@pytest.mark.parametrize("name", GROUPS)
def test_seeded_truncation_matches_definition(name):
    group = GROUPS[name]
    smp = Sampler(101)
    for _ in range(60):
        precision = None if smp.rng.random() < 0.4 else smp.exponent(group)
        s = smp.series(group, max_terms=6, precision=precision)
        assert_same(Series.truncate_to, ref_truncate, s, smp.exponent(group))


@pytest.mark.parametrize("name", GROUPS)
def test_seeded_inverse_matches_definition(name):
    group = GROUPS[name]
    smp = Sampler(202)
    for _ in range(25):
        s = smp.invertible_series(group)
        target = embed_rational(group, smp.rng.randint(0, 6))
        assert_same(Series.invert, ref_invert, s, target)


def test_mismatched_groups_refused_alike():
    a = Series.monomial(RATIONALS, 1)
    b = Series.monomial(lex_power(2), 1)
    assert_pair(a, b)
    assert outcome(Series.compare, a, b)[0] is DescriptorMismatch


def test_make_rechecks_group_elements_of_another_group():
    foreign = embed_rational(lex_power(2), 1)
    with pytest.raises(DescriptorMismatch, match="expected Q, got lex2"):
        Series.make(RATIONALS, [(foreign, 1)])


# -- hypothesis-drawn operands ------------------------------------------------------

coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def exponents(group):
    kind = group.kind
    if kind == "Integers":
        return st.integers(-3, 4).map(lambda k: element(group, k))
    if kind == "Rationals":
        return st.builds(Fraction, st.integers(-6, 8), st.integers(1, 2)).map(
            lambda q: element(group, q)
        )
    if kind == "LexPower":
        return st.tuples(*[st.integers(-2, 3)] * group.param).map(
            lambda t: element(group, t)
        )
    inner = group.exponent_group
    return st.lists(
        st.tuples(exponents(inner), coefficients), max_size=2
    ).map(lambda terms: element(group, Series.make(inner, terms)))


def series(group):
    return st.builds(
        Series.make,
        st.just(group),
        st.lists(st.tuples(exponents(group), coefficients), max_size=5),
        st.none() | exponents(group),
    )


def pairs():
    return st.sampled_from(list(GROUPS.values())).flatmap(
        lambda g: st.tuples(series(g), series(g), exponents(g))
    )


@given(pairs())
def test_drawn_pairs_match_definitions(case):
    a, b, p = case
    assert_pair(a, b)
    assert_pair(a, a + b)
    assert_pair(a.truncate_to(p), a)
    assert_same(Series.truncate_to, ref_truncate, a, p)
