"""Precision soundness of every automorphism node kind and its inverse.

For each node kind over Q, lex2 and surreal1, drawn by hypothesis: the
image of a truncated input must agree with the image of the exact input
below the truncated image's precision, and that precision must not lie
above the exact image's.  Both sides get the same ``precision`` argument,
which bounds the inverse of an ``InternalMult``: that kind always gets a
finite one.  A typed ``HahnError`` on both sides counts as agreement; a
refusal on one side only is a case the check cannot evaluate, and each
kind and direction must evaluate at least ``MIN_EVALUATED`` cases.  The
kinds are the identity (the empty ``Compose``), the five primitive nodes,
``Theta``, ``TauBuild`` and a composition of two primitives.  The same
checks run on ``Series.invert`` and ``exp_apply`` alone, a table
exponential with truncated images is checked against two completions of
each image, and the last tests show the precision rules of ``+``, ``*``
and ``invert`` tight, and those of ``exp_apply`` and the primitive node
kinds tight below their caps.
"""

from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hahnaut.automorphisms import (
    PartialCharacter,
    ScalingFamily,
    apply_aut,
    compose_aut,
    construct_tau,
    construct_theta,
    identity_aut,
    invert_aut,
    make_character_lift,
    make_external_field,
    make_external_group,
    make_internal_mult,
)
from hahnaut.derivations import exp_apply, exp_derivation, make_table_derivation
from hahnaut.errors import HahnError, NonContracting
from hahnaut.groups import (
    RATIONALS,
    Composite,
    PiecewiseLinear,
    PositiveScalar,
    Translation,
    TriangularMatrix,
    element,
    lex_power,
    surreal_depth,
)
from hahnaut.series import Series
from test_kernel_paths import coefficients, small_exponents as exponents
from test_laws import (
    lex2_derivations,
    positive,
    q_derivations,
    surreal1_derivations,
    table_derivations,
)

LEX2 = lex_power(2)
SURREAL1 = surreal_depth(1)
GROUPS = {"Q": RATIONALS, "lex2": LEX2, "surreal1": SURREAL1}
EXAMPLES = 25
MIN_EVALUATED = 15

DERIVATIONS = {
    RATIONALS: q_derivations,
    LEX2: lex2_derivations,
    SURREAL1: surreal1_derivations,
}

# Character lattices whose integer span holds the drawn exponents and
# their images under the drawn maps, so most characters evaluate.
LATTICES = {
    RATIONALS: [Fraction(1, 4)],
    LEX2: [(Fraction(1, 2), 0), (0, Fraction(1, 2))],
    SURREAL1: [Series.monomial(RATIONALS, k, Fraction(1, 12)) for k in range(-3, 5)],
}


def characters(group):
    lattice = LATTICES[group]
    values = st.sampled_from([Fraction(1, 2), Fraction(2, 3), 1, 2, 3])
    return st.lists(values, min_size=len(lattice), max_size=len(lattice)).map(
        lambda vs: PartialCharacter(group, tuple(lattice), tuple(vs))
    )


def additive_maps(group):
    """Additive value-group maps: scalars, lex2 matrices and composites."""
    scalars = st.sampled_from([Fraction(1, 2), 1, 2, 3]).map(
        lambda q: PositiveScalar(group, q)
    )
    single = scalars
    if group == LEX2:
        matrices = st.tuples(
            st.integers(1, 2), st.integers(-2, 2), st.integers(1, 2)
        ).map(lambda m: TriangularMatrix(LEX2, ((m[0], 0), (m[1], m[2]))))
        single = scalars | matrices
    pairs = st.tuples(single, single).map(Composite)
    return single | pairs


def monotone_maps(group):
    """Monotone value-group maps: the additive ones, translations and, over
    Q, piecewise-linear maps, each alone or composed with another."""
    single = additive_maps(group) | exponents(group).map(Translation)
    if group == RATIONALS:
        breaks = st.lists(st.integers(-3, 4), min_size=1, max_size=2, unique=True)
        pieces = breaks.flatmap(
            lambda bs: st.builds(
                PiecewiseLinear,
                st.just(tuple(sorted(bs))),
                st.lists(
                    st.sampled_from([Fraction(1, 2), 1, 2]),
                    min_size=len(bs) + 1,
                    max_size=len(bs) + 1,
                ).map(tuple),
                st.integers(-2, 2),
            )
        )
        single = single | pieces
    return single | st.tuples(single, single).map(Composite)


def scalings(group):
    factors = st.sampled_from([Fraction(1, 3), Fraction(1, 2), 1, 2, 5])
    return st.builds(
        lambda default, exceptions: ScalingFamily(group, default, tuple(exceptions)),
        factors,
        st.lists(
            st.tuples(exponents(group), factors), max_size=2, unique_by=lambda e: e[0]
        ),
    )


def internal_mults(group):
    return st.lists(
        st.tuples(positive(exponents(group)), coefficients), max_size=3
    ).map(lambda terms: make_internal_mult(Series.make(group, terms)))


def exp_derivations(group):
    return st.builds(exp_derivation, DERIVATIONS[group](), exponents(group))


def primitives(group):
    return st.one_of(
        additive_maps(group).map(make_external_field),
        characters(group).map(make_character_lift),
        internal_mults(group),
        st.builds(make_external_group, monotone_maps(group), scalings(group)),
        exp_derivations(group),
    )


KINDS = {
    "identity": lambda g: st.just(identity_aut(g)),
    "external_field": lambda g: additive_maps(g).map(make_external_field),
    "character": lambda g: characters(g).map(make_character_lift),
    "internal_mult": internal_mults,
    "external_group": lambda g: st.builds(
        make_external_group, monotone_maps(g), scalings(g)
    ),
    "exp_derivation": exp_derivations,
    "theta": lambda g: st.builds(
        construct_theta,
        st.just(identity_aut(g)) | exp_derivations(g),
        characters(g),
        additive_maps(g),
    ),
    "tau_build": lambda g: st.builds(
        construct_tau,
        st.just(identity_aut(g)) | internal_mults(g) | exp_derivations(g),
        monotone_maps(g),
        scalings(g),
    ),
    "compose": lambda g: st.lists(primitives(g), min_size=2, max_size=2).map(
        compose_aut
    ),
}


def image(aut, s, precision):
    try:
        return apply_aut(aut, s, precision)
    except HahnError:
        return None


@pytest.mark.parametrize("inverted", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", GROUPS)
def test_truncated_input_agrees_below_its_image_precision(name, kind, inverted):
    group = GROUPS[name]
    outcomes = Counter()
    # an InternalMult inverse needs a finite bound, which an exact input
    # only gets from the precision argument
    precisions = exponents(group)
    if kind != "internal_mult":
        precisions = st.none() | precisions

    @settings(max_examples=EXAMPLES)
    @given(
        KINDS[kind](group),
        st.lists(st.tuples(exponents(group), coefficients), max_size=4),
        exponents(group),
        precisions,
    )
    def check(aut, terms, cut, precision):
        if inverted:
            aut = invert_aut(aut)
        exact = Series.make(group, terms)
        full = image(aut, exact, precision)
        truncated = image(aut, exact.truncate_to(cut), precision)
        if full is None or truncated is None:
            # both refused agree; a refusal on one side only is not evaluated
            outcomes["refused" if full is truncated else "one-sided"] += 1
            return
        assert truncated.precision is not None
        if full.precision is not None:
            assert truncated.precision.compare(full.precision) <= 0
        assert truncated.agrees(full)
        outcomes["agreed"] += 1

    check()
    assert outcomes["agreed"] >= MIN_EVALUATED, outcomes


# -- the kernels on their own: Series.invert and exp_apply ---------------------
#
# The same check with a series kernel in place of the node: an exact input,
# the same input cut past its leading term, and one target, drawn on its own
# or relative to the cut.


def exp_kernels(group):
    return DERIVATIONS[group]().map(lambda d: partial(exp_apply, d))


KERNELS = {"invert": lambda g: st.just(Series.invert), "exp_apply": exp_kernels}
# a kernel draw is cheap: more of them leave every group room above
# MIN_EVALUATED
KERNEL_EXAMPLES = 60


def result(kernel, s, target):
    try:
        return kernel(s, target)
    except HahnError:
        return None


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", GROUPS)
def test_truncated_kernel_input_agrees_below_its_result_precision(name, kernel):
    group = GROUPS[name]
    outcomes = Counter()

    @settings(max_examples=KERNEL_EXAMPLES)
    @given(
        KERNELS[kernel](group),
        st.lists(st.tuples(exponents(group), coefficients), min_size=1, max_size=4),
        positive(exponents(group)),
        exponents(group),
        st.booleans(),
    )
    def check(apply, terms, step, target, relative):
        exact = Series.make(group, terms)
        assume(exact.terms)
        if relative:  # near the cut, where invert's precision check decides
            target = target + step
        full = result(apply, exact, target)
        truncated = result(apply, exact.truncate_to(exact.terms[0][0] + step), target)
        if full is None or truncated is None:
            outcomes["refused" if full is truncated else "one-sided"] += 1
            return
        assert truncated.precision is not None
        if full.precision is not None:
            assert truncated.precision.compare(full.precision) <= 0
        assert truncated.agrees(full)
        outcomes["agreed"] += 1

    check()
    assert outcomes["agreed"] >= MIN_EVALUATED, outcomes


# -- table exponentials whose images are truncated ----------------------------
#
# A table image known below its precision p stands for every exact image
# that agrees with it there, among them its own terms and those plus
# c*t^p.  The exponential of the truncated table is either refused or
# agrees with the exponential of each such completion below its own
# precision.


@pytest.mark.parametrize("name", GROUPS)
def test_truncated_table_images_agree_with_every_completion(name):
    group = GROUPS[name]
    offsets = st.just(element(group, 0)) | positive(exponents(group))
    outcomes = Counter()

    @settings(max_examples=KERNEL_EXAMPLES)
    @given(
        table_derivations(group),
        st.lists(offsets, min_size=5, max_size=5),
        st.none() | st.integers(0, 4),
        coefficients.filter(bool),
        st.lists(st.tuples(st.integers(0, 4), coefficients), min_size=1, max_size=3),
        exponents(group),
    )
    def check(d, offsets, below, c, picks, target):
        # the chain's image of each key, cut at the key plus the gain plus
        # its offset, or minus it for the image ``below``, which that breaks
        cut = [
            (g, image.truncate_to(g + d.gain + (-offset if i == below else offset)))
            for i, ((g, image), offset) in enumerate(zip(d.rule.entries, offsets))
        ]
        own = [(g, Series(group, image.terms)) for g, image in cut]
        plus = [
            (g, exact + Series.monomial(group, image.precision, c))
            for (g, image), (_, exact) in zip(cut, own)
        ]
        s = Series.make(group, [(d.rule.entries[i][0], a) for i, a in picks])

        def exp(entries):
            table = make_table_derivation(group, entries, d.gain, zero_default=True)
            return exp_apply(table, s, target)

        try:
            truncated = exp(cut)
        except NonContracting:
            outcomes["refused"] += 1
            return
        # a certified result makes every completion a contracting table
        assert truncated.agrees(exp(own)) and truncated.agrees(exp(plus))
        outcomes["agreed"] += 1

    check()
    assert outcomes["agreed"] >= MIN_EVALUATED, outcomes


# -- tightness: the truncated precision is where exact completions part -------
#
# The converse of the checks above.  A truncated input ``s.truncate_to(P)``
# has the exact completions ``s`` and ``s + t^P``; their results must first
# differ exactly at the truncated result's precision, so that no sound bound
# could lie higher.


def first_difference(x, y):
    return (x - y).leading_term().valuation


def kept(group):
    """Exact terms and a step past their leading exponent, where the
    truncation cuts."""
    return st.tuples(
        st.lists(st.tuples(exponents(group), coefficients), min_size=1, max_size=4)
        .map(lambda terms: Series.make(group, terms))
        .filter(lambda s: bool(s.terms)),
        positive(exponents(group)),
    )


@pytest.mark.parametrize("name", GROUPS)
def test_sum_precision_is_tight(name):
    """Perturbing the summand of least precision moves the sum there."""
    group = GROUPS[name]

    @settings(max_examples=KERNEL_EXAMPLES)
    @given(kept(group), kept(group))
    def check(a_case, b_case):
        (a, sa), (b, sb) = a_case, b_case
        pa, pb = a.terms[0][0] + sa, b.terms[0][0] + sb
        if pb.compare(pa) < 0:
            a, pa, b, pb = b, pb, a, pa
        precision = (a.truncate_to(pa) + b.truncate_to(pb)).precision
        assert precision == pa
        moved = a + Series.monomial(group, pa)
        assert first_difference(moved + b, a + b) == precision

    check()


@pytest.mark.parametrize("name", GROUPS)
def test_product_precision_is_tight(name):
    """``min(Pa + v(b), Pb + v(a))`` is reached by perturbing only the
    operand that attains it."""
    group = GROUPS[name]

    @settings(max_examples=KERNEL_EXAMPLES)
    @given(kept(group), kept(group))
    def check(a_case, b_case):
        (a, sa), (b, sb) = a_case, b_case
        pa, pb = a.terms[0][0] + sa, b.terms[0][0] + sb
        precision = (a.truncate_to(pa) * b.truncate_to(pb)).precision
        if (pb + a.v()).compare(pa + b.v()) < 0:
            a, pa, b, pb = b, pb, a, pa
        assert precision == pa + b.v()
        moved = a + Series.monomial(group, pa)
        assert first_difference(moved * b, a * b) == precision

    check()


@pytest.mark.parametrize("name", GROUPS)
def test_inverse_precision_is_tight(name):
    """At the cap target ``P - v(s)`` the inverse is certified below
    ``P - 2v(s)``, where the inverses of the completions differ."""
    group = GROUPS[name]
    outcomes = Counter()

    @settings(max_examples=KERNEL_EXAMPLES)
    @given(kept(group))
    def check(case):
        s, step = case
        g = s.terms[0][0]
        p = g + step
        target = p - g
        moved = s + Series.monomial(group, p)
        try:
            truncated = s.truncate_to(p).invert(target)
            # the exact inverses, far enough past P - 2v(s) to hold it
            exact = s.invert(target + step), moved.invert(target + step)
        except HahnError:
            outcomes["refused"] += 1
            return
        assert truncated.precision == p - g - g
        assert first_difference(*exact) == truncated.precision
        outcomes["tight"] += 1

    check()
    assert outcomes["tight"] >= MIN_EVALUATED, outcomes


# -- tightness below the caps: exp_apply and the primitive node kinds ---------
#
# The same witnesses for ``exp_apply`` with either rule and for each kind of
# ``primitives``, forward and inverted.  A cap, the exp target or the apply
# precision (which bounds the inverse of an ``InternalMult`` whose unit is
# not 1), may cut the truncated image at or below where the completions'
# images part; there they need only agree.  Every other case must show its
# precision tight.  Exp targets are drawn from the cut ``P``: above it for the
# exp nodes, and mostly above it for ``exp_apply``, where the cap is tested.


def lesser(p, q=None):
    return p if q is None or p.compare(q) <= 0 else q


def witness(truncated, exact, moved, caps):
    """Classify one witness and check it: ``tight`` where the images of the
    completions ``exact`` and ``moved`` first differ at the truncated
    image's precision, ``capped`` where that precision is a cap."""
    if None in (truncated, exact, moved):
        return "refused"
    if truncated.precision in caps:
        assert exact.agrees(moved)
        return "capped"
    assert first_difference(moved, exact) == truncated.precision
    return "tight"


def completions(s, step):
    """The cut ``P`` past the leading exponent of ``s``, and the truncated
    input with its exact completions ``s`` and ``s + t^P``."""
    p = s.terms[0][0] + step
    return p, (s.truncate_to(p), s, s + Series.monomial(s.group, p))


def above(p):
    return positive(exponents(p.descriptor)).map(p.__add__)


EXP_RULES = {"phi_shift": lambda g: DERIVATIONS[g](), "table": table_derivations}


@pytest.mark.parametrize("rule", EXP_RULES)
@pytest.mark.parametrize("name", GROUPS)
def test_exp_apply_precision_is_tight_below_its_target(name, rule):
    group = GROUPS[name]
    outcomes = Counter()

    @settings(max_examples=KERNEL_EXAMPLES)
    @given(EXP_RULES[rule](group), kept(group), st.data())
    def check(d, case, data):
        p, inputs = completions(*case)
        target = data.draw(above(p) | exponents(group).map(p.__add__))
        images = [result(partial(exp_apply, d), x, target) for x in inputs]
        outcomes[witness(*images, [target])] += 1

    check()
    assert outcomes["tight"] >= MIN_EVALUATED, outcomes


PRIMITIVE_KINDS = [
    "external_field",
    "character",
    "internal_mult",
    "external_group",
    "exp_derivation",
]


def primitive(kind, p):
    """A node of ``kind``; an exp node's target lies above the cut."""
    if kind == "exp_derivation":
        return st.builds(exp_derivation, DERIVATIONS[p.descriptor](), above(p))
    return KINDS[kind](p.descriptor)


@pytest.mark.parametrize("inverted", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("kind", PRIMITIVE_KINDS)
@pytest.mark.parametrize("name", GROUPS)
def test_node_precision_is_tight_below_its_caps(name, kind, inverted):
    """An ``InternalMult`` image lands on ``P``, and its inverse on
    ``min(P, precision)`` unless the unit is 1."""
    group = GROUPS[name]
    outcomes = Counter()

    @settings(max_examples=KERNEL_EXAMPLES)
    @given(kept(group), st.none() | exponents(group), st.data())
    def check(case, offset, data):
        p, inputs = completions(*case)
        aut = data.draw(primitive(kind, p))
        node = aut.node
        if inverted:
            aut = invert_aut(aut)
        precision = None if offset is None else p + offset
        images = [image(aut, x, precision) for x in inputs]
        caps = [node.target] if kind == "exp_derivation" else []
        if kind == "internal_mult" and inverted and node.unit != Series.one(group):
            caps.append(precision)
        if kind == "internal_mult" and images[0] is not None:
            assert images[0].precision == lesser(p, *caps)
        outcomes[witness(*images, caps)] += 1

    check()
    assert outcomes["tight"] >= MIN_EVALUATED, outcomes
