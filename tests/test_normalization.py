"""The one normalization path of the series kernel.

``Series.make`` normalizes by merging one-term lists, as ``+`` and the lex
and surreal products merge theirs, so no normalization hashes an
exponent.  It is checked here against a dict-based reference, which sums
like exponents by hash and sorts, on inputs with repeated exponents,
cancelling sums, zero and string coefficients, precisions and exponents
of another group.
"""

from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hahnaut.errors import HahnError
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

GROUPS = [
    INTEGERS,
    RATIONALS,
    lex_power(1),
    lex_power(2),
    surreal_depth(0),
    surreal_depth(1),
    surreal_depth(2),
]


def ref_make(group, terms, precision=None):
    """Normalization by definition: coerce each pair (exponent first), sum
    like exponents in a dict, drop zeros and exponents at or past the
    precision, and sort."""
    if precision is not None:
        precision = element(group, precision)
    sums = {}
    for ex, c in terms:
        ex = element(group, ex)
        sums[ex] = sums.get(ex, 0) + Fraction(c)
    kept = [
        (ex, c)
        for ex, c in sums.items()
        if c and (precision is None or ex.compare(precision) < 0)
    ]
    return Series(group, tuple(sorted(kept, key=itemgetter(0))), precision)


def outcome(fn, *args):
    try:
        s = fn(*args)
    except (HahnError, ValueError) as exc:  # a bad coefficient fails in Fraction
        return (type(exc), str(exc))
    return (s.terms, s.precision, [(type(ex.value), type(c)) for ex, c in s.terms])


_SMALL = st.integers(-2, 2)


def raw_exponents(group):
    """Exponents as callers pass them: ints, halves, lex tuples, inner
    series and group elements; some are outside the group and refused."""
    if group.kind == "LexPower":
        raw = st.one_of(_SMALL, st.tuples(*[_SMALL] * group.param))
    elif group.kind == "SurrealDepth" and group.param >= 1:
        inner = group.exponent_group
        inner_series = st.lists(
            st.tuples(raw_exponents(inner).filter(_fits(inner)), _SMALL), max_size=2
        ).map(lambda terms: Series.make(inner, terms))
        raw = st.one_of(_SMALL, inner_series)
    elif group.kind == "SurrealDepth":
        raw = st.one_of(st.just(0), _SMALL)
    else:
        raw = st.one_of(_SMALL, _SMALL.map(lambda k: Fraction(k, 2)))
    return st.one_of(raw, raw.filter(_fits(group)).map(lambda r: element(group, r)))


def _fits(group):
    def fits(raw):
        try:
            element(group, raw)
        except HahnError:
            return False
        return True

    return fits


COEFFICIENTS = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    st.sampled_from(["0", "1/2", "-3", "2/4", "-0"]),
)


@st.composite
def make_cases(draw):
    group = draw(st.sampled_from(GROUPS))
    pool = draw(st.lists(raw_exponents(group), min_size=1, max_size=3))
    terms = draw(st.lists(st.tuples(st.sampled_from(pool), COEFFICIENTS), max_size=8))
    # sums that cancel: some terms again with the opposite sign
    again = st.lists(st.sampled_from(terms), max_size=3) if terms else st.just([])
    for ex, c in draw(again):
        terms.append((ex, -Fraction(c)))
    terms = draw(st.permutations(terms))
    flaw = draw(st.sampled_from([None] * 6 + ["foreign", "coefficient"]))
    if flaw is not None:
        at = draw(st.integers(0, len(terms)))
        if flaw == "foreign":
            other = RATIONALS if group is INTEGERS else INTEGERS
            terms.insert(at, (embed_rational(other, 1), 1))
        else:
            terms.insert(at, (draw(raw_exponents(group)), "one half"))
    precision = draw(st.one_of(st.none(), st.sampled_from(pool)))
    return group, terms, precision


@given(make_cases())
def test_make_matches_the_dict_reference(case):
    group, terms, precision = case
    got = outcome(Series.make, group, terms, precision)
    assert got == outcome(ref_make, group, terms, precision)
    if type(got[0]) is tuple:
        exps = [ex for ex, _ in got[0]]
        assert all(x.compare(y) < 0 for x, y in zip(exps, exps[1:]))


@pytest.mark.parametrize(
    "group",
    [INTEGERS, RATIONALS, lex_power(2), surreal_depth(1), surreal_depth(2)],
    ids=str,
)
def test_normalization_hashes_no_exponent(group, monkeypatch):
    """``make``, ``monomial``, ``+``, ``-``, ``*`` and ``agrees`` order and
    merge exponents by ``compare`` alone."""
    sampler = Sampler(11)
    cases = []
    for i in range(20):
        precision = sampler.exponent(group) if i % 2 else None
        a = sampler.series(group, 4, precision)
        b = sampler.series(group)
        raw = [(sampler.exponent(group), sampler.rational()) for _ in range(5)]
        cases.append((a, b, raw + raw[:2], precision))

    def refuse(self):
        raise AssertionError(f"exponent {self} was hashed")

    monkeypatch.setattr(GroupElement, "__hash__", refuse)
    for a, b, raw, precision in cases:
        Series.make(group, raw, precision)
        Series.monomial(group, raw[0][0], 3)
        a + b, a - b, a * b, a.agrees(b)
