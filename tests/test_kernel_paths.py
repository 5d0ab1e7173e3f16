"""Differential tests: the series kernel's fast paths against definitions.

Addition, multiplication, comparison, agreement, truncation and inversion
build their results by merging or cutting normalized term lists.  Each is
checked here against its definition through ``Series.make``, the one
constructor that coerces and normalizes:

* ``a + b`` is ``make`` on the concatenated terms at the lesser precision,
* ``a * b`` is ``make`` on every pairwise product at the product precision,
* ``compare`` and ``agrees`` read the ``make``-built difference series,
* ``truncate_to`` is ``make`` on the terms at the lesser precision,
* ``invert`` is the geometric expansion ``sum (-eps)^k`` built from those
  definitions,
* ``apply_derivation`` of a ``PhiShift`` is ``make`` on the translated and
  scaled terms at the input precision plus the gain,
* ``exp_apply`` of a ``PhiShift`` is the round loop ``sum D^i(s)/i!``
  built from those definitions,
* the images of the relabelling automorphism nodes are ``make`` on the
  relabelled and rescaled terms at the mapped precision,
* ``*``, ``invert`` and ``exp_apply`` over Z, Q, lex2 and lex3, which
  compute on int exponent keys, are their results on the same case
  embedded in surreal1, whose exponents are their own keys, and the drawn
  ``invert`` and ``exp_apply`` cases also equal ``ref_invert`` and
  ``ref_exp`` (inverses where ``few_summands`` keeps the reference small),
* on lex2 and lex3 those kernels agree with the definitions where a
  formed key reaches its radix bound,
* a product of dense keyed operands, which is one packed int product,
  equals ``ref_mul`` where a product digit reaches the packing width's
  bound, through borrow chains, at every cut and on both sides of the
  rule that picks the packed path,
* the exponents those kernels return are shared through a bounded table:
  a repeated call builds none, an oversized exponent is not kept, and
  results do not depend on what the table holds.

"The same" means equal terms tuples and equal precision or, when the
definition refuses, the same error type with the same message.  Every
result must also hold the normalized invariant.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import hahnaut.series
from hahnaut.automorphisms import (
    Automorphism,
    CharacterLift,
    ExternalField,
    ExternalGroup,
    PartialCharacter,
    ScalingFamily,
    apply_aut,
    invert_aut,
)
from hahnaut.derivations import (
    MonomialDerivation,
    PhiShift,
    apply_derivation,
    check_derivation,
    exp_apply,
    exp_derivation,
    make_phi_derivation,
)
from hahnaut.errors import (
    DescriptorMismatch,
    HahnError,
    InsufficientPrecision,
    NonContracting,
    NonTerminating,
    OutsideSpan,
)
from hahnaut.groups import (
    INTEGERS,
    RATIONALS,
    GroupElement,
    LinearFunctional,
    PiecewiseLinear,
    PositiveScalar,
    Translation,
    TriangularMatrix,
    _steps_past,
    arch_compare,
    element,
    embed_rational,
    lex_power,
    scaling_functional,
    standard_functional,
    surreal_depth,
)
from hahnaut.sampling import Sampler
from hahnaut.series import Series, _element, _interned, _keys

GROUPS = {
    "Z": INTEGERS,
    "Q": RATIONALS,
    "lex2": lex_power(2),
    "surreal1": surreal_depth(1),
    "surreal2": surreal_depth(2),
    "lex1": lex_power(1),
    "lex3": lex_power(3),
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
    """The geometric expansion, for a series with a leading term whose
    precision (if finite) is at least ``target + v(s)``."""
    target = element(s.group, target)
    g, r = s.terms[0]
    unit = s.shift(-g).scale(1 / r)
    eps = ref_difference(unit, Series.one(s.group))
    if not eps.terms:
        inverse = Series.monomial(s.group, -g, 1 / r)
        return inverse if s.precision is None else ref_truncate(inverse, target - g)
    neg_eps = eps.scale(-1)
    total = Series.one(s.group)
    power = ref_truncate(neg_eps, target)
    v_eps = eps.terms[0][0]
    if power.terms and arch_compare(target, v_eps) == "<":
        raise NonTerminating(
            "geometric expansion does not reach the target precision: the "
            f"archimedean class of v(eps) = {v_eps} is infinitesimal relative "
            f"to the class of the target {target}"
        )
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


@pytest.mark.parametrize("name", GROUPS)
def test_seeded_inverse_of_truncated_input_matches_definition(name):
    group = GROUPS[name]
    smp = Sampler(303)
    for _ in range(25):
        s = smp.invertible_series(group, max_terms=5)
        target = embed_rational(group, smp.rng.randint(1, 6))
        # the least precision that certifies the target, or a little more
        extra = embed_rational(group, smp.rng.choice([0, 0, 1, 2]))
        truncated = s.truncate_to(target + s.terms[0][0] + extra)
        assert_same(Series.invert, ref_invert, truncated, target)


def test_inverse_with_a_zero_coefficient_matches_definition():
    # 1/(1 + t^x + t^2x) = (1 - t^x)/(1 - t^3x): the coefficients run 1,
    # -1, 0 with period 3, so a term is left out at every t^((3k+2)x).
    # Each x lies in the class of the target 12, and 12x is the first
    # multiple at or past it.
    for group, x in (
        (RATIONALS, 1),
        (LEX2, (1, 1)),
        (SURREAL1, Series.make(RATIONALS, [(0, 1), (1, 1)])),
    ):
        x = element(group, x)
        s = Series.make(group, [(0, 1), (x, 1), (x + x, 1)])
        target = embed_rational(group, 12)
        assert_same(Series.invert, ref_invert, s, target)
        multiples = [embed_rational(group, 0)]
        while len(multiples) < 12:
            multiples.append(multiples[-1] + x)
        assert s.invert(target).terms == tuple(
            (e, Fraction((1, -1)[k % 3])) for k, e in enumerate(multiples) if k % 3 != 2
        )


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


def units(group):
    """Series of up to 8 terms, exact or cut at the least precision that
    certifies the target, with a target: drawn, or ``j`` steps of v(eps)
    past the last exponent of eps, so that every term takes part."""
    return st.tuples(
        st.lists(st.tuples(exponents(group), coefficients), min_size=1, max_size=8),
        exponents(group) | st.integers(0, 2),
        st.booleans(),
    ).map(lambda case: unit_case(group, *case))


def unit_case(group, terms, target, truncated):
    s = Series.make(group, terms)
    if not s.terms:
        return s, element(group, 0)
    g = s.terms[0][0]
    if isinstance(target, int):
        steps, target = target, s.terms[-1][0] - g
        for _ in range(steps if len(s.terms) > 1 else 0):
            target = target + (s.terms[1][0] - g)
    if truncated:
        s = s.truncate_to(target + g)
    return s, target


def few_summands(s, target, most=6):
    """The expansion is refused, or sums of at most ``most`` exponents of
    eps reach the target (which keeps the geometric reference small)."""
    if len(s.terms) < 2:
        return True
    v_eps = s.terms[1][0] - s.terms[0][0]
    if v_eps.compare(target) < 0 and arch_compare(target, v_eps) == "<":
        return True
    reach = v_eps
    for _ in range(most - 1):
        if reach.compare(target) >= 0:
            return True
        reach = reach + v_eps
    return reach.compare(target) >= 0


@given(st.sampled_from(list(GROUPS.values())).flatmap(units))
def test_drawn_inverses_match_definition(case):
    s, target = case
    assume(s.terms and few_summands(s, target))
    assert_same(Series.invert, ref_invert, s, target)


# -- derivation images ---------------------------------------------------------------


def ref_apply_phi(d, s):
    precision = None if s.precision is None else s.precision + d.gain
    phi, shift = d.rule.phi, d.rule.shift
    terms = [(ex + shift, c * phi(ex)) for ex, c in s.terms]
    return Series.make(d.group, terms, precision)


LEX2 = lex_power(2)
PHI_DERIVATIONS = [
    make_phi_derivation(scaling_functional(INTEGERS, 2), 1),
    make_phi_derivation(scaling_functional(RATIONALS, Fraction(-1, 2)), Fraction(1, 2)),
    # hand-built gains below the shift: the image is cut at the input
    # precision plus the gain, not plus the shift (a gain above the shift
    # is refused, see test_phi_gain_above_the_shift_is_refused)
    MonomialDerivation(
        RATIONALS,
        PhiShift(scaling_functional(RATIONALS, 1), element(RATIONALS, 2)),
        element(RATIONALS, Fraction(1, 2)),
    ),
    MonomialDerivation(
        INTEGERS,
        PhiShift(scaling_functional(INTEGERS, 3), element(INTEGERS, 2)),
        element(INTEGERS, 1),
    ),
    # phi vanishes on the generator (1,0): those terms leave the image
    make_phi_derivation(standard_functional(LEX2, [0, 3]), (0, 1)),
    make_phi_derivation(standard_functional(LEX2, [2, -1]), (1, -2)),
]


@pytest.mark.parametrize("index", range(len(PHI_DERIVATIONS)))
def test_seeded_phi_images_match_definition(index):
    d = PHI_DERIVATIONS[index]
    smp = Sampler(404)
    for _ in range(40):
        precision = None if smp.rng.random() < 0.4 else smp.exponent(d.group)
        s = smp.series(d.group, max_terms=6, precision=precision)
        assert_same(apply_derivation, ref_apply_phi, d, s)


@given(
    st.sampled_from(PHI_DERIVATIONS).flatmap(
        lambda d: st.tuples(st.just(d), series(d.group))
    )
)
def test_drawn_phi_images_match_definition(case):
    d, s = case
    assert_same(apply_derivation, ref_apply_phi, d, s)


# -- exponentials -------------------------------------------------------------------


def ref_loop(d, s, target, rounds):
    """``sum D^i(s)/i!`` below ``target``, one round of ``D`` at a time;
    None when round ``rounds`` is still nonzero."""
    total = ref_truncate(s, target)
    term = s
    factorial = 1
    for i in range(1, rounds + 1):
        term = ref_truncate(ref_apply_phi(d, term), target)
        if not term.terms:
            return total
        factorial *= i
        total = ref_add(total, term.scale(Fraction(1, factorial)))
    return None


def ref_exp(d, s, target, rounds=40):
    """``exp_apply`` as a round loop on the definitions.

    The rounds stop at the target (and the input precision plus the gain),
    not at ``P = min(s.precision, target)``: a truncated input can keep
    them going past ``P`` although the answer below ``P`` is settled.  So
    where the loop is still going after ``rounds`` rounds, it runs again on
    ``s`` cut at ``P`` with target ``P``; what still goes on then is
    refused, naming the first term whose own row goes on.  The cases drawn
    here end within far fewer rounds whenever they end.
    """
    target = element(s.group, target)
    result = ref_loop(d, s, target, rounds)
    if result is not None:
        return result
    precision = pmin(s.precision, target)
    result = ref_loop(d, ref_truncate(s, precision), precision, rounds)
    if result is not None:
        return result
    for g, c in s.terms:
        if ref_loop(d, Series.make(s.group, [(g, c)]), precision, rounds) is None:
            raise NonTerminating(
                "exponential series does not reach the target precision: the "
                f"archimedean class of the shift {d.rule.shift} is infinitesimal "
                f"relative to the class of {precision - g}, the gap from t^{g} to "
                f"the precision {precision}, and no factor phi(g) + i*phi(shift) "
                "vanishes"
            )
    raise AssertionError("no row goes on")


SURREAL1 = surreal_depth(1)
SURREAL2 = surreal_depth(2)


def surreal_basis(values):
    """A functional on the surreal1 elements spanned by t^k, k = -3..4."""
    return LinearFunctional(
        SURREAL1,
        tuple(
            (element(SURREAL1, Series.monomial(RATIONALS, k)), v)
            for k, v in zip(range(-3, 5), values)
        ),
    )


EXP_DERIVATIONS = PHI_DERIVATIONS + [
    # an infinitesimal shift: a row from g that stays below a target of
    # class 0 is refused unless g_1 + g_2 is an integer <= 0, where a
    # factor vanishes
    make_phi_derivation(standard_functional(LEX2, [1, 1]), (0, 1)),
    # phi(shift) lies outside the span: the second round raises
    make_phi_derivation(LinearFunctional(LEX2, (((1, 0), 1),)), (0, 1)),
    make_phi_derivation(surreal_basis([1, -2, 1, 3, 1, 1, -1, 2]), 1),
    make_phi_derivation(
        surreal_basis([2, 1, -1, 1, 1, 1, 3, 1]),
        Series.monomial(RATIONALS, 1),
    ),
    # lex1 keys have one digit, as on Q, but values are 1-tuples
    make_phi_derivation(
        standard_functional(lex_power(1), [Fraction(-1, 2)]), (Fraction(1, 2),)
    ),
    make_phi_derivation(standard_functional(lex_power(3), [1, 0, 2]), (1, 0, -1)),
]


def seeded_exp_cases(d, seed, count):
    smp = Sampler(seed)
    for _ in range(count):
        precision = None if smp.rng.random() < 0.5 else smp.exponent(d.group)
        s = smp.series(d.group, max_terms=4, precision=precision)
        yield s, smp.exponent(d.group, lo=-1, hi=6)


@pytest.mark.parametrize("index", range(len(EXP_DERIVATIONS)))
def test_seeded_exponentials_match_round_loop(index):
    d = EXP_DERIVATIONS[index]
    for s, target in seeded_exp_cases(d, 505, 30):
        assert_same(exp_apply, ref_exp, d, s, target)


def small_exponents(group):
    """``exponents``, but surreal1 elements stay in the span of t^-3..t^4."""
    if group is not SURREAL1:
        return exponents(group)
    return st.lists(
        st.tuples(st.integers(-3, 4), coefficients), max_size=2
    ).map(lambda terms: element(group, Series.make(RATIONALS, terms)))


def exp_cases(d):
    return st.tuples(
        st.just(d),
        st.builds(
            Series.make,
            st.just(d.group),
            st.lists(st.tuples(small_exponents(d.group), coefficients), max_size=4),
            st.none() | small_exponents(d.group),
        ),
        small_exponents(d.group),
    )


@given(st.sampled_from(EXP_DERIVATIONS).flatmap(exp_cases))
def test_drawn_exponentials_match_round_loop(case):
    assert_same(exp_apply, ref_exp, *case)


def test_phi_gain_above_the_shift_is_refused():
    # D(t^g) = g t^(g+1) with a declared gain of 2.  Cut at the input
    # precision plus the gain, t + O(t^2) would map to t^2 + O(t^4), but
    # t + t^(5/2), which agrees with it below t^2, maps to
    # t^2 + 5/2 t^(7/2): the tail reaches the image from t^3 on.
    phi = scaling_functional(RATIONALS, 1)
    unsound = MonomialDerivation(
        RATIONALS, PhiShift(phi, element(RATIONALS, 1)), element(RATIONALS, 2)
    )
    truncated = Series.make(RATIONALS, [(1, 1)], 2)
    exact = Series.make(RATIONALS, [(1, 1), (Fraction(5, 2), 1)])
    assert truncated.agrees(exact)
    cut = ref_apply_phi(unsound, truncated)
    assert cut.precision == element(RATIONALS, 4)
    assert not cut.agrees(ref_apply_phi(unsound, exact))
    sound = make_phi_derivation(phi, 1)
    assert apply_derivation(sound, truncated).agrees(apply_derivation(sound, exact))
    refusals = [
        lambda: apply_derivation(unsound, truncated),
        lambda: exp_apply(unsound, truncated, element(RATIONALS, 5)),
        lambda: check_derivation(unsound),
        lambda: exp_derivation(unsound, 5),
    ]
    for refused in refusals:
        with pytest.raises(NonContracting, match=r"^gain 2 exceeds the shift 1: "):
            refused()


# -- integer-numerator kernels ---------------------------------------------------
#
# Products, inverses and exponential rows compute on integer numerators over
# a common denominator.  Large and pairwise-coprime denominators make those
# common denominators large, and the results must still equal the Fraction
# definitions above.

KERNEL_GROUPS = [INTEGERS, RATIONALS, LEX2, SURREAL1, lex_power(1), lex_power(3)]
PRIMES = [2, 3, 5, 7, 11, 13, 101, 65537, 998244353, 10**9 + 7, 2**61 - 1]


def wide_coefficients():
    return st.builds(
        Fraction,
        st.integers(-(10**12), 10**12).filter(bool),
        st.sampled_from(PRIMES) | st.integers(1, 10**20),
    )


def wide_series(group, exps=exponents, min_size=0, max_size=6):
    """Series whose coefficients have large denominators, pairwise coprime
    when drawn from ``PRIMES`` (one term per denominator), exact or cut."""
    coprime = st.lists(
        st.tuples(exps(group), st.integers(-(10**6), 10**6).filter(bool), st.sampled_from(PRIMES)),
        min_size=min_size,
        max_size=max_size,
        unique_by=lambda t: t[2],
    ).map(lambda terms: [(ex, Fraction(n, p)) for ex, n, p in terms])
    large = st.lists(
        st.tuples(exps(group), wide_coefficients()), min_size=min_size, max_size=max_size
    )
    return st.builds(
        Series.make, st.just(group), coprime | large, st.none() | exps(group)
    )


@given(
    st.sampled_from(KERNEL_GROUPS).flatmap(
        lambda g: st.tuples(wide_series(g), wide_series(g), exponents(g))
    )
)
def test_drawn_wide_products_match_schoolbook(case):
    a, b, p = case
    mul = lambda x, y: x * y
    assert_same(mul, ref_mul, a, b)
    assert_same(mul, ref_mul, a.truncate_to(p), b)
    assert_same(mul, ref_mul, a, a)


@given(
    st.sampled_from(KERNEL_GROUPS).flatmap(
        lambda g: st.tuples(
            wide_series(g, min_size=1, max_size=8), exponents(g) | st.integers(0, 2), st.booleans()
        ).map(lambda case: unit_case(g, case[0].terms, *case[1:]))
    )
)
def test_drawn_wide_inverses_match_definition(case):
    s, target = case
    assume(s.terms and few_summands(s, target))
    assert_same(Series.invert, ref_invert, s, target)


def wide_phi_derivations():
    """Over Q, phi(g) = q g and a shift m + 1/P with large coprime
    denominators, so every row factor has a large denominator; the shift
    stays at least 1, so every row ends within a few rounds."""
    return st.builds(
        lambda q, m, prime: make_phi_derivation(
            scaling_functional(RATIONALS, q), Fraction(m * prime + 1, prime)
        ),
        wide_coefficients(),
        st.integers(1, 2),
        st.sampled_from(PRIMES),
    )


@given(
    (st.sampled_from(EXP_DERIVATIONS) | wide_phi_derivations()).flatmap(
        lambda d: st.tuples(
            st.just(d),
            wide_series(d.group, small_exponents, max_size=4),
            small_exponents(d.group),
        )
    )
)
def test_drawn_wide_exponentials_match_round_loop(case):
    assert_same(exp_apply, ref_exp, *case)


def test_long_inverse_matches_definition():
    s = Series.make(RATIONALS, [(0, 1), (1, Fraction(1, 3)), (2, Fraction(1, 5))])
    target = embed_rational(RATIONALS, 400)
    assert_same(Series.invert, ref_invert, s, target)
    assert len(s.invert(target).terms) == 400


def surreal1_exponent(*terms):
    return element(SURREAL1, Series.make(RATIONALS, terms))


def surreal2_exponent(*terms):
    return element(SURREAL2, Series.make(SURREAL1, terms))


@pytest.mark.parametrize(
    "group, steps, target, size",
    [
        # (1,-2) and (1,-1) sit an infinitesimal (0,k) off (1,0)
        (LEX2, [((1, 0), 1), ((1, 1), Fraction(-2, 3)), ((1, -2), 5), ((2, 3), 1),
                ((1, -1), Fraction(1, 2))], (5, 0), 49),
        (SURREAL1, [(1, 1), (surreal1_exponent((0, 1), (1, 2)), Fraction(1, 7)),
                    (surreal1_exponent((0, 2), (1, -1)), -3),
                    (surreal1_exponent((0, 1), (2, -1)), 2)], 5, 57),
        (SURREAL2, [(1, 2), (surreal2_exponent((0, 1), (1, 1)), 1),
                    (surreal2_exponent((0, 2), (surreal1_exponent((1, 1)), -1)), -1)], 5, 28),
    ],
)
def test_long_general_inverses_match_definition(group, steps, target, size):
    # units whose inverses have dozens of terms, many reached along
    # several paths, scaled and shifted, exact and truncated
    target = element(group, target)
    unit = Series.make(group, [(0, 1)] + [(element(group, e), c) for e, c in steps])
    shifted = unit.shift(target).scale(Fraction(-2, 5))
    for s in (unit, shifted, shifted.truncate_to(target + target)):
        assert_same(Series.invert, ref_invert, s, target)
        assert len(s.invert(target).terms) == size


def first_primes(n):
    primes = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def test_thirty_coprime_denominators_match_definitions():
    # t^0..t^29 with coefficients (-1)^k (k+1)/p_k over the first 30 primes:
    # the common denominator is their product
    s = Series.make(
        RATIONALS,
        [(k, Fraction((-1) ** k * (k + 1), p)) for k, p in enumerate(first_primes(30))],
    )
    assert_same(lambda x, y: x * y, ref_mul, s, s)
    assert_same(lambda x, y: x * y, ref_mul, s.truncate_to(20), s)
    target = embed_rational(RATIONALS, 30)
    for d in (
        make_phi_derivation(scaling_functional(RATIONALS, 1), 1),
        make_phi_derivation(scaling_functional(RATIONALS, Fraction(-5, 7)), 1),
    ):
        assert_same(exp_apply, ref_exp, d, s, target)
        assert_same(exp_apply, ref_exp, d, s.truncate_to(17), target)


def test_exponential_rows_merge_like_exponents():
    # the rows from t^0 and t^1 meet at every exponent from 1 on
    d = make_phi_derivation(scaling_functional(RATIONALS, 1), 1)
    s = Series.make(RATIONALS, [(0, 1), (1, -1), (2, 3)])
    assert_same(exp_apply, ref_exp, d, s, embed_rational(RATIONALS, 7))


# -- relabelling nodes ----------------------------------------------------------------


def ref_relabel(node, s, inverted):
    """The image of a relabelling node through ``Series.make``."""
    precision = s.precision
    if isinstance(node, ExternalField):
        image = node.tau.backward if inverted else node.tau.forward
        terms = [(image(ex), c) for ex, c in s.terms]
        if precision is not None:
            precision = image(precision)
    elif isinstance(node, CharacterLift):
        factor = (lambda ex: 1 / node.chi(ex)) if inverted else node.chi
        terms = [(ex, c * factor(ex)) for ex, c in s.terms]
    else:
        image = node.zeta.backward if inverted else node.zeta.forward
        terms = []
        for ex, c in s.terms:
            scale = 1 / node.scaling(image(ex)) if inverted else node.scaling(ex)
            terms.append((image(ex), c * scale))
        if precision is not None:
            precision = image(precision)
    return Series.make(s.group, terms, precision)


RELABELLING_NODES = [
    (RATIONALS, ExternalField(PositiveScalar(RATIONALS, Fraction(3, 2)))),
    (LEX2, ExternalField(TriangularMatrix(LEX2, ((2, 0), (-1, 3))))),
    (SURREAL1, ExternalField(PositiveScalar(SURREAL1, 2))),
    (
        RATIONALS,
        CharacterLift(
            PartialCharacter(
                RATIONALS, (embed_rational(RATIONALS, 1),), (Fraction(3, 2),)
            )
        ),
    ),
    (
        LEX2,
        CharacterLift(
            PartialCharacter(
                LEX2,
                (element(LEX2, (1, 0)), element(LEX2, (1, 1))),
                (Fraction(2), Fraction(1, 3)),
            )
        ),
    ),
    (
        RATIONALS,
        ExternalGroup(
            PiecewiseLinear((Fraction(0),), (Fraction(1), Fraction(2))),
            ScalingFamily(
                RATIONALS, Fraction(2), ((embed_rational(RATIONALS, 0), Fraction(5)),)
            ),
        ),
    ),
    (
        LEX2,
        ExternalGroup(
            Translation(element(LEX2, (0, 1))), ScalingFamily(LEX2, Fraction(1, 2))
        ),
    ),
    (
        SURREAL1,
        ExternalGroup(
            Translation(embed_rational(SURREAL1, 1)),
            ScalingFamily(SURREAL1, 3, ((embed_rational(SURREAL1, 1), Fraction(1, 4)),)),
        ),
    ),
]


@pytest.mark.parametrize("index", range(len(RELABELLING_NODES)))
def test_seeded_relabelling_images_match_definition(index):
    group, node = RELABELLING_NODES[index]
    aut = Automorphism(group, node)
    smp = Sampler(606)
    for _ in range(30):
        precision = None if smp.rng.random() < 0.4 else smp.exponent(group)
        s = smp.series(group, max_terms=5, precision=precision)
        assert_same(apply_aut, lambda a, x: ref_relabel(node, x, False), aut, s)
        assert_same(
            apply_aut, lambda a, x: ref_relabel(node, x, True), invert_aut(aut), s
        )


# -- int keys against the general path ----------------------------------------------
#
# On Z, Q and lexN, ``*``, ``invert`` and ``exp_apply`` compute on int
# exponent keys.  On surreal1 an exponent is its own key and products merge
# rows.  Z and Q embed in surreal1 as q -> q t^0, and lexN as
# (c_0, ..., c_(N-1)) -> c_0 t^0 + ... + c_(N-1) t^(N-1).  Both embeddings
# are additive, keep order and map archimedean classes to classes, so a
# case embedded there and mapped back must give the same terms and
# precision, or the same error type (messages print surreal1 exponents as
# series).  invert and exp_apply run the same recurrence and row walk on
# either kind of key, so their drawn cases are also checked against the
# references above, which share no code with them.

LEX3 = lex_power(3)
# large and pairwise coprime, so the key scale of a case reaches 10**18
DENOMINATORS = [1, 2, 3, 7, 999_999_937, 10**9 + 7]


def keyed_rationals(lo, hi):
    """``k + n/d`` with ``lo <= k <= hi``, off any one lattice."""
    return st.builds(
        lambda k, n, d: k + Fraction(n, d),
        st.integers(lo, hi),
        st.integers(0, 3),
        st.sampled_from(DENOMINATORS),
    )


def keyed_exponents(group, lo=-6, hi=9):
    """Z exponents, Q exponents off any one lattice, or lexN exponents whose
    leading coordinate is drawn so and whose others range over signs."""
    if group is INTEGERS:
        return st.integers(lo, hi).map(lambda k: element(group, k))
    if group is RATIONALS:
        return keyed_rationals(lo, hi).map(lambda q: element(group, q))
    rest = [keyed_rationals(-6, 9)] * (group.param - 1)
    return st.tuples(keyed_rationals(lo, hi), *rest).map(lambda t: element(group, t))


def keyed_steps(group):
    """Positive exponents at least 1 in their leading coordinate, so that
    few of them fit below a target of their class; on lexN they lead at
    index 0 or 1."""
    steps = keyed_exponents(group, 1, 2)
    if group.kind != "LexPower":
        return steps
    rest = [keyed_rationals(-6, 9)] * (group.param - 2)
    second = st.tuples(st.just(0), keyed_rationals(1, 2), *rest)
    return steps | second.map(lambda t: element(group, t))


def keyed_series(group, max_size=6):
    return st.builds(
        Series.make,
        st.just(group),
        st.lists(st.tuples(keyed_exponents(group), coefficients), max_size=max_size),
        st.none() | keyed_exponents(group),
    )


def to_surreal1(x):
    """A Z, Q or lexN exponent, series or functional (or None) embedded in
    surreal1."""
    if x is None:
        return None
    if isinstance(x, GroupElement):
        coords = x.value if x.descriptor.kind == "LexPower" else (x.value,)
        return element(SURREAL1, Series.make(RATIONALS, list(enumerate(coords))))
    if isinstance(x, LinearFunctional):
        return LinearFunctional(
            SURREAL1, tuple((to_surreal1(g), v) for g, v in x.generators)
        )
    return Series.make(
        SURREAL1, [(to_surreal1(ex), c) for ex, c in x.terms], to_surreal1(x.precision)
    )


def from_surreal1(group, x):
    if x is None:
        return None
    if isinstance(x, GroupElement):
        coords = [Fraction(0)] * (group.param if group.kind == "LexPower" else 1)
        for i, c in x.value.terms:
            assert i.value.denominator == 1
            coords[int(i.value)] = c
        if group.kind == "LexPower":
            return element(group, coords)
        (value,) = coords
        if group is INTEGERS:
            assert value.denominator == 1
            value = int(value)
        return element(group, value)
    terms = [(from_surreal1(group, ex), c) for ex, c in x.terms]
    return Series.make(group, terms, from_surreal1(group, x.precision))


def assert_keyed_like_general(group, fn, keyed_args, general_args):
    """``fn`` on Z, Q or lexN arguments against ``fn`` on their surreal1
    embedding."""
    got, want = outcome(fn, *keyed_args), outcome(fn, *general_args)
    if want[0] != "value":
        assert got[0] == want[0]
        return
    assert got[0] == "value"
    fast, general = got[1], from_surreal1(group, want[1])
    assert_normalized(fast)
    assert (fast.terms, fast.precision) == (general.terms, general.precision)
    # int or Fraction, not merely equal values
    exps = [ex for ex, _ in fast.terms]
    if fast.precision is not None:
        exps.append(fast.precision)
    if group.kind == "LexPower":
        assert all(type(c) is Fraction for ex in exps for c in ex.value)
    else:
        value_type = int if group is INTEGERS else Fraction
        assert all(type(ex.value) is value_type for ex in exps)


def keyed_groups():
    return st.sampled_from([INTEGERS, RATIONALS])


def lex_groups():
    return st.sampled_from([LEX2, LEX3])


def product_cases(groups):
    return groups.flatmap(
        lambda g: st.tuples(keyed_series(g), keyed_series(g), keyed_exponents(g))
    )


@given(product_cases(keyed_groups()))
def test_keyed_products_match_general_path(case):
    check_keyed_products(case)


@given(product_cases(lex_groups()))
def test_lex_keyed_products_match_general_path(case):
    check_keyed_products(case)


def check_keyed_products(case):
    a, b, p = case
    mul = lambda x, y: x * y
    for x, y in ((a, b), (a.truncate_to(p), b), (a, a), (a + b, b.truncate_to(p))):
        assert_keyed_like_general(
            a.group, mul, (x, y), (to_surreal1(x), to_surreal1(y))
        )


def keyed_unit_case(group, g, c, steps, target, slack):
    """``c t^g (1 + sum c_i t^(e_i))`` with every ``e_i`` positive and at
    least 1 in its leading coordinate, so only sums of at most about the
    target's leading coordinate of them lie below a target of their class;
    truncated ``slack`` past (or, when negative, short of) what certifies
    it."""
    s = Series.make(group, [(g, c)] + [(g + e, ci) for e, ci in steps])
    if slack is not None:
        s = s.truncate_to(target + g + element(group, slack))
    return s, target


def keyed_units(group):
    return st.builds(
        lambda *case: keyed_unit_case(group, *case),
        keyed_exponents(group),
        coefficients.filter(bool),
        st.lists(st.tuples(keyed_steps(group), coefficients), max_size=4),
        keyed_exponents(group, -1, 6),
        st.none() | st.integers(-1, 2),
    )


@given(keyed_groups().flatmap(keyed_units))
def test_keyed_inverses_match_general_path(case):
    check_keyed_inverse(case)


@given(lex_groups().flatmap(keyed_units))
def test_lex_keyed_inverses_match_general_path(case):
    check_keyed_inverse(case)


def check_keyed_inverse(case):
    s, target = case
    assert_keyed_like_general(
        s.group, Series.invert, (s, target), (to_surreal1(s), to_surreal1(target))
    )
    # ref_invert needs a leading term and a precision that certifies the target
    certified = s.terms and (
        s.precision is None or s.precision.compare(target + s.terms[0][0]) >= 0
    )
    if certified and few_summands(s, target):
        assert_same(Series.invert, ref_invert, s, target)


def keyed_functionals(group):
    """On Z and Q ``phi(gen) = q`` for a generator ``gen`` (1, as
    ``standard_functional`` takes it, or 3, -2 or on Q 5/7); on lexN the
    standard generators, or all but the last, with drawn values."""
    values = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    if group.kind != "LexPower":
        gens = [1, 3, -2] + ([Fraction(5, 7)] if group is RATIONALS else [])
        return st.builds(
            lambda gen, q: LinearFunctional(group, ((element(group, gen), q),)),
            st.sampled_from(gens),
            values,
        )
    n = group.param
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return st.builds(
        lambda vs, full: LinearFunctional(group, tuple(zip(units[: n if full else -1], vs))),
        st.lists(values, min_size=n, max_size=n),
        st.sampled_from([True, True, True, False]),
    )


def keyed_phi_cases(group):
    """A functional, a shift, a series and a target, on lexN mostly above
    the series' terms."""
    if group.kind != "LexPower":
        return st.tuples(
            keyed_functionals(group),
            keyed_steps(group),
            keyed_series(group, max_size=5),
            keyed_exponents(group),
        )
    terms = st.lists(
        st.tuples(keyed_exponents(group, -3, 4), coefficients), min_size=1, max_size=4
    )
    return st.tuples(
        keyed_functionals(group),
        keyed_steps(group),
        st.builds(Series.make, st.just(group), terms, st.none() | keyed_exponents(group, 2, 9)),
        keyed_exponents(group, 2, 9),
    )


def _phi_example(group, gen, q):
    s = Series.make(group, [(-1, 4), (0, 1), (1, Fraction(-2, 3)), (3, 5)], 7)
    phi = LinearFunctional(group, ((element(group, gen), Fraction(q)),))
    return (phi, element(group, 1), s, element(group, 6))


def _lex_phi_example(values, shift, g):
    # the row from t^g ends at a zero factor before the precision
    s = Series.make(LEX2, [(g, 2), ((0, 5), 1)])
    return (standard_functional(LEX2, values), element(LEX2, shift), s, element(LEX2, (3, 0)))


@example(case=_phi_example(INTEGERS, 3, 2))
@example(case=_phi_example(INTEGERS, -2, 5))
@example(case=_phi_example(RATIONALS, Fraction(5, 7), -3))
@given(keyed_groups().flatmap(keyed_phi_cases))
def test_keyed_exponentials_match_general_path(case):
    check_keyed_exponential(case)


@example(case=_lex_phi_example([1, 1], (0, 1), (0, -3)))
@example(case=_lex_phi_example([2, -1], (1, 2), (0, -2)))
@given(lex_groups().flatmap(keyed_phi_cases))
def test_lex_keyed_exponentials_match_general_path(case):
    check_keyed_exponential(case)


def check_keyed_exponential(case):
    phi, shift, s, target = case
    d = make_phi_derivation(phi, shift)
    general = make_phi_derivation(to_surreal1(phi), to_surreal1(shift))
    assert_keyed_like_general(
        s.group, exp_apply, (d, s, target), (general, to_surreal1(s), to_surreal1(target))
    )
    assert_same(exp_apply, ref_exp, d, s, target)


def test_keyed_paths_cover_refusals():
    # no leading term, a precision short of the target, and the exact zero
    for group in (INTEGERS, RATIONALS, LEX2, LEX3):
        for s in (
            Series.make(group, [], 3),
            Series.make(group, [(0, 1), (1, 2)], 2),
            Series.zero(group),
        ):
            target = element(group, 4)
            assert_keyed_like_general(
                group, Series.invert, (s, target), (to_surreal1(s), to_surreal1(target))
            )


@pytest.mark.parametrize(
    "group, terms, message",
    [
        (INTEGERS, [(0, 1), (3, 2)], "3"),
        (RATIONALS, [(0, 1), (Fraction(3, 2), 2)], "3/2"),
        # phi meets every term, also one past the target
        (INTEGERS, [(0, 5), (9, 1)], "9"),
        (RATIONALS, [(Fraction(-1, 2), 1), (9, 1)], "-1/2"),
    ],
)
def test_empty_functional_exponential_is_refused_at_the_first_nonzero_exponent(
    group, terms, message
):
    d = make_phi_derivation(LinearFunctional(group, ()), 1)
    s = Series.make(group, terms)
    with pytest.raises(OutsideSpan) as raised:
        exp_apply(d, s, element(group, 2))
    assert str(raised.value) == f"{message} is outside the span of an empty generator list"
    # phi(0) = 0: a constant comes back cut to the target
    constant = Series.make(group, [(0, Fraction(-7, 3))], 5)
    assert exp_apply(d, constant, element(group, 2)) == constant.truncate_to(2)


# -- lex keys at their radix bound ------------------------------------------------
#
# A lexN key is a Kronecker int whose digits are the exponent's coordinates
# times the lcm L of their denominators (``series._Keys``, which gives Z
# and Q one digit, its own key, and lexN its N).  Every digit
# of every key a kernel forms must stay within a bound B, a multiple of the
# largest digit M of the exponents it keys: 2M for ``*``, M + 2M(n + 1)
# for ``invert`` with n = target_j // v(eps)_j, and M(1 + i) for the exp
# rows with i the most rounds a row forms.  In each case below some formed
# sum has a digit of exactly B or -B, on a 10**18-scale L where the case
# has the two large denominators.

BIG, BIGGER = DENOMINATORS[-2:]


def lex_digit_bound(keyed, factor, formed):
    """Checks that ``formed``'s largest digit is ``factor`` times the
    largest digit of ``keyed``, both times the lcm of their denominators."""
    coords = [c for e in keyed for c in e.value]
    scale = lcm(*[c.denominator for c in coords])
    largest = max(abs(c * scale) for c in coords)
    assert max(abs(c * scale) for c in formed.value) == factor * largest


def lex(*coords):
    return element(lex_power(len(coords)), coords)


def bound_products():
    """``*``: the sum of two exponents, at 2M."""
    cases = [
        # (0, 1) + (0, 1) is (0, 2L) in digits
        (
            [((0, 1), 2), ((Fraction(1, BIG), Fraction(-1, BIGGER)), -3)],
            [((0, 1), Fraction(1, 2)), ((Fraction(2, BIGGER), 0), 5)],
            None,
            lex(0, 2),
        ),
        (
            [((0, -1), 1), ((1, Fraction(1, BIG)), 1)],
            [((0, -1), 3), ((Fraction(-1, BIGGER), 1), Fraction(-1, 2))],
            (1, 0),
            lex(0, -2),
        ),
        (
            [((0, 0, 1), 1), ((0, Fraction(1, 7), -1), 2)],
            [((0, 0, 1), -1), ((0, -1, Fraction(-1, 3)), 1)],
            (0, 1, 0),
            lex(0, 0, 2),
        ),
        (
            [((0, 0, -1), 1), ((0, -1, Fraction(-1, 3)), 5)],
            [((0, 0, -1), 4)],
            None,
            lex(0, 0, -2),
        ),
    ]
    for a, b, p, formed in cases:
        group = formed.descriptor
        a, b = Series.make(group, a), Series.make(group, b, p)
        keyed = [ex for ex, _ in a.terms + b.terms] + ([b.precision] if p else [])
        yield "mul", (lambda x, y: x * y), ref_mul, (a, b), keyed, 2, formed


def bound_inverses():
    """``invert``: ``-g`` plus ``n + 1`` steps ``x``, at M + 2M(n + 1) = 7M,
    since n = 2 steps sum below the target; and ``-g`` alone, at M, where
    no step lies below the target."""
    d = Fraction(1, BIGGER)
    for g in (lex(0, 5 * d), lex(0, Fraction(-1, 3), 1)):
        target = embed_rational(g.descriptor, Fraction(1, BIG))
        s = Series.make(g.descriptor, [(g, 3), (g + target, 1)])
        yield "invert", Series.invert, ref_invert, (s, target), [target - g, g], 1, -g
    cases = [
        # x = (2d, 10d), -g + 3x = (6d, 35d) at M = 5d; y brings in BIG
        ((0, -5 * d), [((2 * d, 10 * d), 3), ((3 * d, Fraction(1, BIG)), -1)], (5 * d, 0)),
        ((0, 5 * d), [((2 * d, -10 * d), Fraction(1, 2)), ((3 * d, Fraction(-1, BIG)), 2)], (5 * d, 0)),
        # leading at index 1 of lex3, the bound at index 2
        (
            (Fraction(1, 7), 0, Fraction(-5, 7)),
            [((0, Fraction(2, 7), Fraction(10, 7)), 1), ((0, Fraction(3, 7), Fraction(1, 3)), 4)],
            (0, Fraction(5, 7), 0),
        ),
        (
            (Fraction(1, 7), 0, Fraction(5, 7)),
            [((0, Fraction(2, 7), Fraction(-10, 7)), -1)],
            (0, Fraction(5, 7), 0),
        ),
    ]
    for g, steps, target in cases:
        g, target = lex(*g), lex(*target)
        group = g.descriptor
        s = Series.make(group, [(g, Fraction(-3, 2))] + [(g + lex(*x), c) for x, c in steps])
        x = lex(*steps[0][0])
        keyed = [target - g, g] + [ex for ex, _ in s.terms[1:]]
        formed = -g + x + x + x
        yield "invert", Series.invert, ref_invert, (s, target), keyed, 7, formed


def bound_exponentials():
    """The exp rows: ``g + i*shift``, at M(1 + i), where the shift leads at
    the index of P - g, before it, or after it with a vanishing factor."""
    d, e = Fraction(1, BIGGER), Fraction(1, BIG * BIGGER)
    cases = [
        # one index: i = 5 // 2 + 1 = 3, and g + 3*shift = (6d, 20d) at M = 5d
        ([1, 1], (2 * d, 5 * d), [((0, 5 * d), 1), ((0, Fraction(1, BIG)), 2)], (5 * d, 0), 4),
        # one index: i = 3 // 1 + 1 = 4, and g + 4*shift = (4, -25) at M = 5
        ([1, 1], (1, -5), [((0, -5), Fraction(2, 3))], (3, 5), 5),
        # the shift leads before P - g: i = 1, and g + shift = (1, -8) at M = 4
        ([1, 1], (1, -4), [((0, -4), -1)], (0, 2), 2),
        # the same at M = 1 on L = BIG * BIGGER, where g + shift = (e, -2e,
        # -2e) lies past P = (0, e, e) by less than a radix 2B - 1 can tell
        ([1, 1, 1], (e, -e, -e), [((0, -e, -e), 1)], (0, e, e), 2),
        # the shift leads after P - g, and phi(g) + 2*phi(shift) = 0:
        # i = 3, and g + 3*shift = (0, -1, 12) at M = 3
        ([5, 9, 1], (0, 0, 3), [((0, -1, 3), 7)], (0, 0, 0), 4),
    ]
    for values, shift, terms, target, factor in cases:
        shift, target = lex(*shift), lex(*target)
        group = shift.descriptor
        derivation = make_phi_derivation(standard_functional(group, values), shift)
        s = Series.make(group, terms)
        keyed = [target, shift] + [ex for ex, _ in s.terms]
        formed = lex(*terms[0][0]) + shift.scale(factor - 1)
        yield "exp", exp_apply, ref_exp, (derivation, s, target), keyed, factor, formed


BOUND_CASES = [*bound_products(), *bound_inverses(), *bound_exponentials()]


@pytest.mark.parametrize(
    "kernel, fast, ref, args, keyed, factor, formed",
    BOUND_CASES,
    ids=[f"{case[0]}-{k}" for k, case in enumerate(BOUND_CASES)],
)
def test_lex_keys_at_their_digit_bound_match_definitions(
    kernel, fast, ref, args, keyed, factor, formed
):
    lex_digit_bound(keyed, factor, formed)
    assert_same(fast, ref, *args)
    assert outcome(fast, *args)[0] == "value"


# -- the keyed path is taken ---------------------------------------------------------


def test_dense_rank_one_kernels_make_linearly_many_group_calls(monkeypatch):
    """A dense 24-term Q product, inverse to t^24 and exponential to t^24
    each make O(N) ``GroupElement`` additions and compares; the general
    path makes O(N^2), one per product or row term."""
    n = 24
    counts = {"add": 0, "compare": 0}

    def counting(name, method):
        def counted(*args):
            counts[name] += 1
            return method(*args)

        return counted

    a = Series.make(
        RATIONALS, [(k, Fraction((-1) ** k * (k + 2), 1 + k % 3)) for k in range(n)]
    )
    unit = Series.make(
        RATIONALS, [(0, 1)] + [(k, Fraction(k + 1, 2 + k % 5)) for k in range(1, n)]
    )
    target = embed_rational(RATIONALS, n)
    d = make_phi_derivation(scaling_functional(RATIONALS, 1), 1)
    ops = (lambda: a * unit, lambda: unit.invert(target), lambda: exp_apply(d, a, target))
    for name, attr in (("add", "__add__"), ("compare", "compare")):
        monkeypatch.setattr(GroupElement, attr, counting(name, getattr(GroupElement, attr)))
    for op in ops:
        counts.update(add=0, compare=0)
        op()
        assert counts["add"] <= 2 * n and counts["compare"] <= 2 * n, counts


def test_dense_lex_kernels_make_linearly_many_group_calls(monkeypatch):
    """A dense 24-term lex2 product, inverse to t^(0,24) and exponential to
    t^(0,24) each make O(N) ``GroupElement`` additions and compares; the
    general path makes O(N^2), one per product or row term.  The
    exponential subtracts each term from the precision once, for both its
    refusal test and its keys' bound."""
    n = 24
    counts = {"add": 0, "compare": 0}

    def counting(name, method):
        def counted(*args):
            counts[name] += 1
            return method(*args)

        return counted

    a = Series.make(
        LEX2, [((0, k), Fraction((-1) ** k * (k + 2), 1 + k % 3)) for k in range(n)]
    )
    unit = Series.make(
        LEX2, [((0, 0), 1)] + [((0, k), Fraction(k + 1, 2 + k % 5)) for k in range(1, n)]
    )
    target = element(LEX2, (0, n))
    d = make_phi_derivation(standard_functional(LEX2, [1, 1]), (0, 1))
    ops = (lambda: a * unit, lambda: unit.invert(target), lambda: exp_apply(d, a, target))
    for name, attr in (("add", "__add__"), ("compare", "compare")):
        monkeypatch.setattr(GroupElement, attr, counting(name, getattr(GroupElement, attr)))
    for op in ops:
        counts.update(add=0, compare=0)
        op()
        assert counts["add"] <= 2 * n and counts["compare"] <= 2 * n, counts


def test_dense_lex_exponential_orders_each_gap_once(monkeypatch):
    """A dense 24-term lex2 exponential to t^(0,24) forms one gap ``P - g``
    to the precision and reads one walk length against it: the first
    row's walk passes its gap, and the gaps descend with the rows, so
    that one ``_steps_past`` call gives the keys' bound and leaves no row
    to refuse."""
    n = 24
    counts = {"sub": 0, "_steps_past": 0}

    def counting(name, method):
        def counted(*args):
            counts[name] += 1
            return method(*args)

        return counted

    a = Series.make(
        LEX2, [((0, k), Fraction((-1) ** k * (k + 2), 1 + k % 3)) for k in range(n)]
    )
    target = element(LEX2, (0, n))
    d = make_phi_derivation(standard_functional(LEX2, [1, 1]), (0, 1))
    monkeypatch.setattr(GroupElement, "__sub__", counting("sub", GroupElement.__sub__))
    monkeypatch.setattr(
        "hahnaut.derivations._steps_past", counting("_steps_past", _steps_past)
    )
    exp_apply(d, a, target)
    assert counts == {"sub": 1, "_steps_past": 1}, counts


def test_dense_rank_one_inverse_and_exponential_make_no_per_term_group_calls(
    monkeypatch,
):
    """A dense Q inverse to t^N and a dense Q exponential to t^N make as
    many ``GroupElement`` additions and compares at N = 48 as at N = 24:
    the inverse's steps and the exponential's rows are int keys from the
    start.  The inverse reads its walk length once.  The exponential reads
    phi off its one weight, so it calls neither phi nor ``_steps_past``."""
    counts = {}

    def counting(name, method):
        def counted(*args):
            counts[name] = counts.get(name, 0) + 1
            return method(*args)

        return counted

    def calls(n):
        unit = Series.make(
            RATIONALS,
            [(0, Fraction(-3, 2))] + [(k, Fraction(k + 1, 2 + k % 5)) for k in range(1, n)],
        )
        a = Series.make(
            RATIONALS, [(k, Fraction((-1) ** k * (k + 2), 1 + k % 3)) for k in range(n)]
        )
        target = embed_rational(RATIONALS, n)
        per_op = []
        for op in (lambda: unit.invert(target), lambda: exp_apply(d, a, target)):
            counts.clear()
            op()
            per_op.append(dict(counts))
        return per_op

    d = make_phi_derivation(LinearFunctional(RATIONALS, ((element(RATIONALS, 2), 3),)), 1)
    for name, attr in (("add", "__add__"), ("compare", "compare")):
        monkeypatch.setattr(GroupElement, attr, counting(name, getattr(GroupElement, attr)))
    monkeypatch.setattr(
        LinearFunctional, "__call__", counting("phi", LinearFunctional.__call__)
    )
    for module in ("hahnaut.derivations", "hahnaut.series"):
        monkeypatch.setattr(
            f"{module}._steps_past", counting("_steps_past", _steps_past)
        )
    small, large = calls(24), calls(48)
    assert small == large
    invert_counts, exp_counts = small
    assert invert_counts["_steps_past"] == 1, invert_counts
    assert "phi" not in exp_counts and "_steps_past" not in exp_counts, exp_counts


# -- packed products ----------------------------------------------------------------
#
# A keyed product that forms more pairs than it would pack numerators and
# read keys (``series._packs``) is one int product of the numerators
# packed as signed base-2**w digits (``series._packed_products``), with w
# one more than the bit length of min(n_a, n_b) * max|num_a| * max|num_b|.
# The cases below meet each limit of that reading, on the packed path
# whatever their size: a product digit at exactly that bound, borrows
# through runs of negative digits and a cut at every digit.  Operands on
# both sides of the rule that picks the path take the path it picks.


def dense(group, coefficients, start=0):
    """``sum c_k t^(start + k)``; on lexN at ``(0, ..., 0, start + k)``."""
    def at(k):
        if group.kind == "LexPower":
            return (0,) * (group.param - 1) + (start + k,)
        return start + k

    return Series.make(group, [(at(k), c) for k, c in enumerate(coefficients)])


def packed_calls(monkeypatch, every=False):
    """The operand sizes of each packed product made from now on; with
    ``every``, every keyed product is made packed."""
    calls = []
    packed = hahnaut.series._packed_products

    def spy(a, b, stop):
        calls.append((len(a), len(b)))
        return packed(a, b, stop)

    monkeypatch.setattr("hahnaut.series._packed_products", spy)
    if every:
        monkeypatch.setattr("hahnaut.series._packs", lambda *sizes: True)
    return calls


def mul(x, y):
    return x * y


@pytest.mark.parametrize(
    "group, n_a, n_b, c_a, c_b",
    [
        (RATIONALS, 24, 24, 9, 9),
        (RATIONALS, 24, 24, -9, 9),
        (RATIONALS, 24, 24, Fraction(-9, 4), Fraction(-7, 4)),
        (INTEGERS, 3, 10, 7, -5),
        (INTEGERS, 1, 6, -4, 4),
        (lex_power(1), 5, 5, 2**40, -(2**40)),
        (LEX2, 24, 24, -9, -9),
        (LEX3, 4, 7, 3, 5),
    ],
)
def test_packed_digit_at_the_width_bound_matches_schoolbook(
    monkeypatch, group, n_a, n_b, c_a, c_b
):
    """Every numerator at its operand's largest: the middle digits of the
    product are exactly +-min(n_a, n_b) * max|num_a| * max|num_b|."""
    calls = packed_calls(monkeypatch, every=True)
    a, b = dense(group, [c_a] * n_a), dense(group, [c_b] * n_b)
    assert_same(mul, ref_mul, a, b)
    assert calls == [(n_a, n_b)]
    largest = max(abs(c) for _, c in (a * b).terms)
    assert largest == min(n_a, n_b) * abs(c_a) * abs(c_b)


@pytest.mark.parametrize("k", [0, 1, 2, 7, 23])
def test_packed_borrow_chains_match_schoolbook(monkeypatch, k):
    """``(1 - t) * (1 + t + ... + t^k)`` is ``1 - t^(k+1)``, every digit
    between them zero; all-negative operands make every digit of the
    product negative, so each one borrows from the next."""
    calls = packed_calls(monkeypatch, every=True)
    geometric = dense(RATIONALS, [1] * (k + 1))
    one_minus_t = dense(RATIONALS, [1, -1])
    assert one_minus_t * geometric == Series.make(RATIONALS, [(0, 1), (k + 1, -1)])
    pairs = [
        (one_minus_t, geometric),
        (-geometric, geometric),
        (-geometric, -geometric),
        (-geometric, dense(RATIONALS, [-3, -1, -2])),
        (dense(RATIONALS, [-1, 2] * (k + 1)), -geometric),
    ]
    for a, b in pairs:
        assert_same(mul, ref_mul, a, b)
    assert len(calls) == len(pairs) + 1


def test_packed_product_cut_at_every_position_matches_schoolbook(monkeypatch):
    """Each operand and the product cut at each key and between keys: the
    operands lose their terms at or past the stop and the digits read stop
    there."""
    calls = packed_calls(monkeypatch, every=True)
    n = 8
    a_terms = [(k, Fraction((-1) ** k * (k + 2), 1 + k % 3)) for k in range(n)]
    b = dense(RATIONALS, [Fraction(k - 3, 1 + k % 2) or 5 for k in range(n)])
    for p in range(-1, 2 * n + 1):
        for cut in (p, p + Fraction(1, 2)):
            a = Series.make(RATIONALS, a_terms, cut)
            assert_same(mul, ref_mul, a, b)
            assert_same(mul, ref_mul, b, a)
            assert_same(mul, ref_mul, a.shift(Fraction(-1, 3)), b)
    assert len(calls) > 4 * n


@pytest.mark.parametrize("last, packed", [(3, True), (4, True), (5, False)])
def test_packed_path_taken_exactly_when_keys_do_not_exceed_pairs(
    monkeypatch, last, packed
):
    """``a`` at keys 0 to 8, ``b`` at 0, 1 and ``last``: 27 pairs form sums
    at ``8 + last + 1`` keys, so the keys plus the 12 numerators plus 2 are
    one fewer than the pairs, as many, one more."""
    calls = packed_calls(monkeypatch)
    for group in (INTEGERS, RATIONALS, LEX2):
        a = dense(group, [2, -3, 1, 4, -1, 5, -9, 2, 6])
        b = dense(group, [5, 1]) + dense(group, [-7], last)
        assert_same(mul, ref_mul, a, b)
    assert len(calls) == (3 if packed else 0)


def test_packed_path_rule_reads_the_operands_after_the_cut(monkeypatch):
    """``a`` at keys 0 to 5 and 100 times ``b`` at 0 to 5 cut at 6: the term
    at 100 lies past the stop, so 36 pairs form sums at 11 keys, where
    uncut 42 pairs would form them at 106 keys."""
    calls = packed_calls(monkeypatch)
    a = Series.make(RATIONALS, [(k, k - 2 or 7) for k in range(6)] + [(100, 5)])
    b = Series.make(RATIONALS, [(k, Fraction(1, k + 1)) for k in range(6)], 6)
    assert_same(mul, ref_mul, a, b)
    assert_same(mul, ref_mul, b, a)
    assert calls == [(6, 6), (6, 6)]


def led_series(group):
    """A series with terms, exact or cut past its leading exponent."""
    zero = element(group, 0)
    steps = (
        exponents(group)
        .filter(lambda g: not g.is_zero())
        .map(lambda g: g if g.compare(zero) > 0 else -g)
    )

    def build(terms, step):
        s = Series.make(group, terms)
        if step is None or not s.terms:
            return s
        return s.truncate_to(s.terms[0][0] + step)

    terms = st.lists(st.tuples(exponents(group), coefficients), min_size=1, max_size=5)
    return st.builds(build, terms, st.none() | steps)


@given(
    st.sampled_from(["Z", "Q", "lex2", "surreal1"]).flatmap(
        lambda name: st.tuples(led_series(GROUPS[name]), led_series(GROUPS[name]))
    )
)
def test_a_product_leads_with_the_product_of_the_leading_terms(case):
    """``a * b`` starts at ``v(a) + v(b)`` with ``lc(a) * lc(b)``, below its
    precision: so a keyed product's stop lies above its least sum, and
    cutting an operand at the stop never leaves it empty."""
    a, b = case
    assume(a.terms and b.terms)
    (va, ca), (vb, cb) = a.terms[0], b.terms[0]
    product = a * b
    assert product.terms[0] == (va + vb, ca * cb)
    if product.precision is not None:
        assert (va + vb).compare(product.precision) < 0


def test_dense_q_products_pack_and_sparse_lex_products_loop(monkeypatch):
    calls = packed_calls(monkeypatch)
    a = dense(RATIONALS, [Fraction((-1) ** k * (k + 2), 1 + k % 3) for k in range(24)])
    b = dense(RATIONALS, [Fraction(k + 1, 2 + k % 5) for k in range(24)])
    assert_same(mul, ref_mul, a, b)
    assert calls == [(24, 24)]
    calls.clear()
    x = Series.make(LEX2, [((0, 1), 2), ((1, -2), 3), ((2, 5), -1), ((3, 0), 1)])
    y = Series.make(LEX2, [((-1, 3), 1), ((0, 0), -4), ((1, 1), 5)])
    assert_same(mul, ref_mul, x, y)
    assert calls == []
    # Dense n by n at the rule's boundary: 4 by 4 forms 16 pairs against 7
    # keys plus 8 numerators plus 2, and 5 by 5 forms 25 against 21.  A
    # 2-term operand never packs: 2n pairs against 2n + 5.
    for n_a, n_b, packed in [(1, 1, False), (4, 4, False), (5, 5, True), (2, 24, False)]:
        calls.clear()
        a = dense(RATIONALS, [Fraction(k + 2, 1 + k % 3) for k in range(n_a)])
        b = dense(RATIONALS, [(-1) ** k * (k + 1) for k in range(n_b)])
        assert_same(mul, ref_mul, a, b)
        assert calls == ([(n_a, n_b)] if packed else [])


# -- shared exponents ---------------------------------------------------------------
#
# On Z, Q and lexN each output exponent of ``*``, ``invert`` and the exp rows
# is decoded from its key through ``_Keys.element``, which returns the one
# exponent per (group, digits, scale) held in the bounded table
# ``series._interned``, when the digits and scale fit in a machine word and
# the group has few coordinates.


def constructions(monkeypatch):
    """Every ``GroupElement`` built from now on."""
    built = []
    init = GroupElement.__init__

    def counting(self, descriptor, value):
        built.append(self)
        init(self, descriptor, value)

    monkeypatch.setattr(GroupElement, "__init__", counting)
    return built


def test_repeated_dense_kernels_build_no_new_exponent(monkeypatch):
    """A dense 24-term Q product, inverse to t^24 and exponential to t^24,
    made twice: the second call builds none of its output exponents, and
    the product builds no ``GroupElement`` at all."""
    n = 24
    a = dense(RATIONALS, [Fraction((-1) ** k * (k + 2), 1 + k % 3) for k in range(n)])
    unit = dense(RATIONALS, [1] + [Fraction(k + 1, 2 + k % 5) for k in range(1, n)])
    target = embed_rational(RATIONALS, n)
    d = make_phi_derivation(scaling_functional(RATIONALS, 1), 1)
    built = constructions(monkeypatch)
    ops = {
        "mul": lambda: a * unit,
        "invert": lambda: unit.invert(target),
        "exp": lambda: exp_apply(d, a, target),
    }
    for name, op in ops.items():
        first = op()
        built.clear()
        again = op()
        assert again == first and len(again.terms) > n // 2
        assert all(x is y for (x, _), (y, _) in zip(first.terms, again.terms))
        assert not any(ex is e for e in built for ex, _ in again.terms), name
        if name == "mul":
            assert built == []


def test_one_digit_keys_decode_to_one_element_per_group():
    """Z ``3``, Q ``3`` and lex1 ``(3)`` all have the one digit 3, and decode
    to three distinct elements, each of its own group, each shared."""
    decoded = []
    for group, value, value_type in (
        (INTEGERS, 3, int),
        (RATIONALS, 3, Fraction),
        (lex_power(1), (3,), tuple),
    ):
        e = element(group, value)
        keys = _keys(group, [e], 1)
        assert keys.key(e) == 3
        got = keys.element(3)
        assert got == e and got.descriptor is group and type(got.value) is value_type
        assert keys.element(3) is got
        decoded.append(got)
    assert len(set(decoded)) == 3


@pytest.mark.parametrize(
    "group, value",
    [
        (RATIONALS, Fraction(10**100_000 + 1)),  # a 10**5-digit numerator
        (RATIONALS, Fraction(1, 2**64 + 1)),  # a scale past a machine word
        (INTEGERS, -(2**63)),
        (LEX2, (1, 10**30)),  # a digit bound past a machine word
        # more coordinates than the table keeps, as any lex arity up to 2**20
        (lex_power(9), (1, 0, 0, 0, 0, 0, 0, 0, -1)),
    ],
    ids=["long-numerator", "wide-scale", "wide-int", "wide-lex-digit", "lex9"],
)
def test_oversized_exponents_decode_but_are_not_retained(group, value):
    e = element(group, value)
    keys = _keys(group, [e], 2)
    before = _interned.cache_info()
    got = keys.element(keys.key(e))
    assert got == e and keys.element(keys.key(e)) is not got
    after = _interned.cache_info()
    assert (after.currsize, after.hits, after.misses) == (
        before.currsize,
        before.hits,
        before.misses,
    )


def test_intern_table_never_grows_past_its_bound():
    bound = _interned.cache_info().maxsize
    e = element(RATIONALS, Fraction(1, 7))
    keys = _keys(RATIONALS, [e], 1)
    for k in range(bound + 100):
        assert keys.element(k) == element(RATIONALS, Fraction(k, 7))
        assert _interned.cache_info().currsize <= bound
    assert _interned.cache_info().currsize == bound


def test_results_equal_with_a_cold_table_a_warm_one_and_none(monkeypatch):
    """Seeded ``*``, ``invert`` and exp cases on Z, Q and lex1-3 give the same
    outcomes with an emptied table, with the table those calls filled, and
    with every exponent built afresh."""
    cases = []
    for group in (INTEGERS, RATIONALS, lex_power(1), LEX2, LEX3):
        smp = Sampler(2024)
        for _ in range(12):
            a, b = smp.series(group, max_terms=6), smp.series(group, max_terms=6)
            cases.append((mul, (a, b)))
            s = smp.invertible_series(group, max_terms=4)
            cases.append((Series.invert, (s, smp.exponent(group, lo=0, hi=4))))
    for d in EXP_DERIVATIONS:
        if d.group.keyed:
            for s, target in seeded_exp_cases(d, 606, 6):
                cases.append((exp_apply, (d, s, target)))
    _interned.cache_clear()
    cold = [outcome(fn, *args) for fn, args in cases]
    warm = [outcome(fn, *args) for fn, args in cases]
    monkeypatch.setattr("hahnaut.series._interned", _element)
    fresh = [outcome(fn, *args) for fn, args in cases]
    assert cold == warm == fresh
    assert sum(got[0] == "value" for got in cold) > len(cases) // 2
