"""Laws and an independent exponential oracle on hypothesis-drawn inputs.

* Ring laws over lex2, surreal1 and surreal2, on exact and truncated
  operands: ``*`` distributes over ``+``, is commutative and associative,
  and ``s * s.invert(p)`` agrees with 1 below ``p``.
* ``log(exp D) = D``: with ``sigma = exp(D)`` applied by ``exp_apply``,
  ``L(s) = sum_{n>=1} (-1)^(n+1) (sigma - id)^n(s) / n`` agrees with
  ``apply_derivation(D, s)`` below the bound, over Q, lex2 and surreal1,
  for phi-shift derivations and for chain tables.  The sum is finite
  because ``sigma - id`` raises valuations by at least the gain, where the
  gain's class reaches the target's.  This checks exp's row recurrence
  and its table rounds against ``D`` itself, not against a copy of it.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hahnaut.derivations import (
    TableRule,
    apply_derivation,
    exp_apply,
    make_phi_derivation,
    make_table_derivation,
)
from hahnaut.errors import NonTerminating
from hahnaut.groups import (
    RATIONALS,
    LinearFunctional,
    arch_compare,
    element,
    lex_power,
    scaling_functional,
    standard_functional,
    surreal_depth,
)
from hahnaut.series import Series
from test_kernel_paths import (
    coefficients,
    exponents,
    pmin,
    series,
    small_exponents,
    units,
)

LAW_GROUPS = [lex_power(2), surreal_depth(1), surreal_depth(2)]


@given(st.sampled_from(LAW_GROUPS).flatmap(lambda g: st.tuples(*[series(g)] * 3)))
def test_drawn_ring_laws(case):
    a, b, c = case
    assert ((a + b) * c).agrees(a * c + b * c)
    assert (a * b).agrees(b * a)
    assert ((a * b) * c).agrees(a * (b * c))


@given(st.sampled_from(LAW_GROUPS).flatmap(units))
def test_drawn_inverses_agree_with_one(case):
    s, target = case
    assume(s.terms)
    try:
        inverse = s.invert(target)
    except NonTerminating:
        assume(False)
    product = s * inverse
    assert product.precision in (None, target)
    assert product.agrees(Series.one(s.group))


# -- log(exp D) = D -----------------------------------------------------------------

LEX2 = lex_power(2)
SURREAL1 = surreal_depth(1)
nonzero = coefficients.filter(bool)


def positive(exps):
    return exps.filter(lambda g: not g.is_zero()).map(
        lambda g: g if g.compare(element(g.descriptor, 0)) > 0 else -g
    )


def q_derivations():
    return st.builds(
        lambda q, shift: make_phi_derivation(scaling_functional(RATIONALS, q), shift),
        nonzero,
        positive(exponents(RATIONALS)),
    )


def lex2_derivations():
    return st.builds(
        lambda values, shift: make_phi_derivation(standard_functional(LEX2, values), shift),
        st.lists(nonzero, min_size=2, max_size=2),
        positive(exponents(LEX2)),
    )


def surreal1_derivations():
    """phi on the span of t^-3..t^4, where ``small_exponents`` draws."""
    basis = [element(SURREAL1, Series.monomial(RATIONALS, k)) for k in range(-3, 5)]
    return st.builds(
        lambda values, shift: make_phi_derivation(
            LinearFunctional(SURREAL1, tuple(zip(basis, values))), shift
        ),
        st.lists(nonzero, min_size=8, max_size=8),
        positive(small_exponents(SURREAL1)),
    )


def table_derivations(group):
    """A chain table: keys ``start + i*gain`` for i < 5, each image
    ``c_i t^(key+gain)`` plus at most one term above it, and 0 off the
    keys, so that ``D^i`` of a key's monomial runs up the chain."""

    def build(start, gain, images):
        table = {}
        for i, (c, above) in enumerate(images):
            key = start + gain.scale(i)
            terms = [(key + gain, c)]
            if above is not None:
                terms.append((key + gain + above[0], above[1]))
            table[key] = Series.make(group, terms)
        return make_table_derivation(group, table, gain, zero_default=True)

    positives = positive(small_exponents(group))
    images = st.tuples(nonzero, st.none() | st.tuples(positives, nonzero))
    return st.builds(
        build,
        small_exponents(group),
        positives,
        st.lists(images, min_size=5, max_size=5),
    )


def q_tables():
    return table_derivations(RATIONALS)


def lex2_tables():
    return table_derivations(LEX2)


def surreal1_tables():
    return table_derivations(SURREAL1)


def log_cases(derivations):
    """A derivation, the terms of a series, and how many gains past the
    series' last exponent its target and precision (1-4 or none) lie.  A
    table's terms lie on its keys and its target 2-6 gains past, so that
    its chains reach ``D^3`` and beyond; other targets lie 2-4 gains past."""

    def case(d):
        table = isinstance(d.rule, TableRule)
        exps = (
            st.sampled_from([g for g, _ in d.rule.entries])
            if table
            else small_exponents(d.group)
        )
        return st.tuples(
            st.just(d),
            st.lists(st.tuples(exps, nonzero), min_size=1, max_size=4),
            st.integers(2, 6 if table else 4),
            st.none() | st.integers(1, 4),
        )

    return derivations.flatmap(case)


def gain_reaches_bound(d, s, bound):
    """Whether some multiple of the gain reaches ``bound - g`` for every
    exponent ``g`` of ``s`` below ``bound``."""
    return all(
        arch_compare(bound - g, d.gain) != "<"
        for g, _ in s.terms
        if g.compare(bound) < 0
    )


def log_of_exp(d, s, target):
    """``L(s)`` with ``sigma = exp_apply(d, ., target)``, summed until a
    power of ``sigma - id`` leaves nothing below the bound."""
    total, power = Series.zero(s.group), s
    for n in range(1, 200):
        power = exp_apply(d, power, target) - power
        total = total + power.scale(Fraction((-1) ** (n + 1), n))
        if not power.terms:
            return total
    raise AssertionError("(sigma - id)^n(s) did not vanish below the bound")


@pytest.mark.parametrize(
    "derivations",
    [
        q_derivations,
        lex2_derivations,
        surreal1_derivations,
        q_tables,
        lex2_tables,
        surreal1_tables,
    ],
)
@given(data=st.data())
def test_log_of_exp_is_the_derivation(derivations, data):
    d, terms, k, j = data.draw(log_cases(derivations()))
    s = Series.make(d.group, terms)
    assume(s.terms)
    last = s.terms[-1][0]
    if j is not None:
        s = s.truncate_to(last + d.gain.scale(j))
    target = last + d.gain.scale(k)
    bound = pmin(s.precision, target)
    assume(gain_reaches_bound(d, s, bound))
    logarithm = log_of_exp(d, s, target)
    assert logarithm.precision == bound
    assert logarithm.agrees(apply_derivation(d, s))
