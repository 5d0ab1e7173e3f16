"""Typed refusals reached through the public API, each with its message.

Every case builds or evaluates something the kernel must refuse, and the
refusal must name its reason: an error type of ``hahnaut.errors`` and the
exact message, which for a ``ParseError`` ends in its offset.  A few
boundary paths that succeed are checked alongside.
"""

import re
from fractions import Fraction

import pytest

from hahnaut import (
    INTEGERS,
    RATIONALS,
    Automorphism,
    Composite,
    DescriptorMismatch,
    DomainError,
    GroupDescriptor,
    InvalidMap,
    LinearFunctional,
    NonContracting,
    ParseError,
    PartialCharacter,
    PiecewiseLinear,
    SampleInsufficiency,
    SampleSpec,
    ScalingFamily,
    Series,
    SessionConfig,
    TriangularMatrix,
    apply_aut,
    apply_derivation,
    check_derivation,
    classify_aut,
    compose_aut,
    element,
    embed_rational,
    factorize_aut,
    identity_aut,
    identity_map,
    is_one_aut,
    lex_power,
    load_aut_spec,
    make_external_group,
    make_phi_derivation,
    make_table_derivation,
    parse_series,
    scaling_functional,
    standard_functional,
    surreal_depth,
)

Q, Z = RATIONALS, INTEGERS
LEX2 = lex_power(2)
SURREAL0, SURREAL1 = surreal_depth(0), surreal_depth(1)

REFUSALS = {
    # automorphisms
    "character lattice and values differ": (
        lambda: PartialCharacter(Q, (1,), ()),
        DomainError,
        "lattice and value lists differ in length",
    ),
    "scaling factor not positive": (
        lambda: ScalingFamily(Q, 0),
        DomainError,
        "scaling factors must be positive",
    ),
    "scaling exponent given twice": (
        lambda: ScalingFamily(LEX2, 1, (((1, 0), 2), ((0, 1), 2), ((1, 0), 3))),
        DomainError,
        "scaling has two factors for the exponent (1,0)",
    ),
    "scaling family on another group": (
        lambda: make_external_group(identity_map(Q), ScalingFamily(LEX2)),
        DescriptorMismatch,
        "scaling family and exponent map disagree",
    ),
    "empty composition": (
        lambda: compose_aut([]),
        DomainError,
        "cannot compose an empty list",
    ),
    "composition over two groups": (
        lambda: compose_aut([identity_aut(Q), identity_aut(Z)]),
        DescriptorMismatch,
        "composed automorphisms on different groups",
    ),
    "table reconstruction of a truncated series": (
        lambda: apply_aut(
            factorize_aut(identity_aut(Q), "field", [1]).residual,
            Series.make(Q, [(1, 1)], 3),
        ),
        SampleInsufficiency,
        "at node compose[0].inverse: table reconstructions only apply to exact series",
    ),
    "unknown node": (
        lambda: apply_aut(Automorphism(Q, "bogus"), Series.one(Q)),
        DomainError,
        "at node str: unknown node type str",
    ),
    "automorphism on another group": (
        lambda: apply_aut(identity_aut(Q), Series.one(LEX2)),
        DescriptorMismatch,
        "automorphism on Q applied to series over lex2",
    ),
    "unknown factorization mode": (
        lambda: factorize_aut(identity_aut(Q), "ring", [1]),
        DomainError,
        "unknown factorization mode 'ring'",
    ),
    "repeated factorization sample": (
        lambda: factorize_aut(identity_aut(Q), "field", [1, 1]),
        SampleInsufficiency,
        "induced exponent map is not injective on samples",
    ),
    # derivations
    "table image over another group": (
        lambda: make_table_derivation(Q, {1: Series.one(LEX2)}, 1),
        DescriptorMismatch,
        "table image over the wrong group",
    ),
    "table exponent given twice": (
        lambda: make_table_derivation(
            Q, [(1, Series.monomial(Q, 2)), (Fraction(2, 2), Series.monomial(Q, 2, 3))], 1
        ),
        DomainError,
        "table has two entries for the exponent 1",
    ),
    "zero gain": (
        lambda: make_table_derivation(Q, {}, 0),
        NonContracting,
        "gain 0 must be strictly positive",
    ),
    "derivation on another group": (
        lambda: apply_derivation(
            make_phi_derivation(scaling_functional(Q, 1), 1), Series.one(LEX2)
        ),
        DescriptorMismatch,
        "derivation over Q applied to series over lex2",
    ),
    # groups
    "unknown group kind": (
        lambda: GroupDescriptor("Reals"),
        DomainError,
        "unknown group kind 'Reals'",
    ),
    "lex arity 0": (
        lambda: GroupDescriptor("LexPower", 0),
        DomainError,
        "LexPower arity must be >= 1",
    ),
    "negative surreal depth": (
        lambda: GroupDescriptor("SurrealDepth", -1),
        DomainError,
        "SurrealDepth depth must be >= 0",
    ),
    "surreal depth above the bound": (
        lambda: GroupDescriptor("SurrealDepth", 100),
        DomainError,
        "SurrealDepth depth must be <= 99",
    ),
    "a parameter on Q": (
        lambda: GroupDescriptor("Rationals", 1),
        DomainError,
        "Rationals does not take the parameter 1",
    ),
    "a parameter on Z": (
        lambda: GroupDescriptor("Integers", -2),
        DomainError,
        "Integers does not take the parameter -2",
    ),
    "fractional lex arity": (
        lambda: GroupDescriptor("LexPower", 2.5),
        DomainError,
        "LexPower does not take the parameter 2.5",
    ),
    "float lex arity equal to an int": (
        lambda: GroupDescriptor("LexPower", 2.0),
        DomainError,
        "LexPower does not take the parameter 2.0",
    ),
    "boolean surreal depth": (
        lambda: GroupDescriptor("SurrealDepth", True),
        DomainError,
        "SurrealDepth does not take the parameter True",
    ),
    "unhashable lex arity": (
        lambda: GroupDescriptor("LexPower", [2]),
        DomainError,
        "LexPower does not take the parameter [2]",
    ),
    "lex arity above the bound": (
        lambda: GroupDescriptor("LexPower", 2**20 + 1),
        DomainError,
        "LexPower arity must be <= 1048576",
    ),
    "exponent group of Z": (
        lambda: Z.exponent_group,
        DomainError,
        "Z has no exponent group",
    ),
    "nonzero in the trivial group": (
        lambda: embed_rational(SURREAL0, 1),
        DomainError,
        "the trivial group only contains 0",
    ),
    "lex tuple of the wrong length": (
        lambda: element(LEX2, (1, 2, 3)),
        DomainError,
        "expected 2 components, got 3",
    ),
    # a raw value of the wrong shape names its type and the group
    "series into Z": (
        lambda: element(Z, Series.one(Q)),
        DomainError,
        "a Series is not an element of Z",
    ),
    "tuple into Q": (
        lambda: element(Q, (1, 2)),
        DomainError,
        "a tuple is not an element of Q",
    ),
    "string into lex2": (
        lambda: element(LEX2, "x"),
        DomainError,
        "a str is not an element of lex2",
    ),
    # only a tuple or list gives coordinates: not a string's digits or a
    # dict's keys
    "string of two digits into lex2": (
        lambda: element(LEX2, "12"),
        DomainError,
        "a str is not an element of lex2",
    ),
    "dict into lex2": (
        lambda: element(LEX2, {3: 0, 4: 1}),
        DomainError,
        "a dict is not an element of lex2",
    ),
    "series into the trivial group": (
        lambda: element(SURREAL0, Series.one(Q)),
        DomainError,
        "a Series is not an element of surreal0",
    ),
    "surreal element from another group's series": (
        lambda: element(SURREAL1, Series.one(LEX2)),
        DescriptorMismatch,
        "series over lex2 is not a surreal1 element",
    ),
    "functional on a trivial-group generator": (
        lambda: LinearFunctional(SURREAL0, ((0, 1),)),
        DomainError,
        "functional generators are Q-linearly dependent",
    ),
    "two standard values on Q": (
        lambda: standard_functional(Q, [1, 2]),
        DomainError,
        "one value expected for a rank-one group",
    ),
    "one standard value on lex2": (
        lambda: standard_functional(LEX2, [1]),
        DomainError,
        "2 values expected",
    ),
    "standard functional on surreal1": (
        lambda: standard_functional(SURREAL1, [1]),
        DomainError,
        "no standard generators for surreal1",
    ),
    "piecewise map without breakpoints": (
        lambda: PiecewiseLinear((), (1,)),
        InvalidMap,
        "piecewise map needs at least one breakpoint",
    ),
    "repeated breakpoint": (
        lambda: PiecewiseLinear((1, 1), (1, 1, 1)),
        InvalidMap,
        "breakpoints must be strictly increasing",
    ),
    "one slope per breakpoint": (
        lambda: PiecewiseLinear((0,), (1,)),
        InvalidMap,
        "need one more slope than breakpoints",
    ),
    "matrix on Q": (
        lambda: TriangularMatrix(Q, ((1,),)),
        InvalidMap,
        "matrix automorphisms only act on lex powers",
    ),
    "matrix of the wrong shape": (
        lambda: TriangularMatrix(LEX2, ((1,),)),
        InvalidMap,
        "expected a 2x2 matrix",
    ),
    "zero on the diagonal": (
        lambda: TriangularMatrix(LEX2, ((0, 0), (0, 1))),
        InvalidMap,
        "diagonal entries must be positive",
    ),
    "empty composite": (
        lambda: Composite(()),
        InvalidMap,
        "empty composite",
    ),
    "composite over two groups": (
        lambda: Composite((identity_map(Q), identity_map(Z))),
        DescriptorMismatch,
        "composite parts live on different groups",
    ),
    # parsing
    "unknown notation": (
        lambda: SessionConfig(Q, notation="x"),
        DomainError,
        "unknown notation 'x'",
    ),
    "misspelt keyword": (
        lambda: load_aut_spec(
            "exp_derivation{phi: lineal(1), shift: 1, precision: 5}", SessionConfig(Q)
        ),
        ParseError,
        "expected keyword 'linear', got 'lineal' (at offset 20)",
    ),
    "zero denominator": (
        lambda: parse_series("1/0", SessionConfig(Q)),
        ParseError,
        "zero denominator (at offset 3)",
    ),
    "lex literal of the wrong length": (
        lambda: parse_series("t^((1,2,3))", SessionConfig(LEX2)),
        ParseError,
        "expected 2 coordinates (at offset 10)",
    ),
    # sampling: a count below 1 would certify on fewer samples than asked
    "negative sample count": (
        lambda: is_one_aut(identity_aut(Q), SampleSpec(7, -2)),
        DomainError,
        "sample count -2 is not an int of at least 1",
    ),
    "negative sample count in a classification": (
        lambda: classify_aut(identity_aut(Q), SampleSpec(7, -3)),
        DomainError,
        "sample count -3 is not an int of at least 1",
    ),
    "fractional sample count": (
        lambda: classify_aut(identity_aut(Q), SampleSpec(7, 2.5)),
        DomainError,
        "sample count 2.5 is not an int of at least 1",
    ),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_refusal_has_its_type_and_message(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_empty_functional_derivation_passes_its_laws():
    # D(t^0) = 0, so the sampled constants satisfy every law
    report = check_derivation(make_phi_derivation(LinearFunctional(Q, ()), 1))
    assert [(n, r.status) for n, r in report.as_items()] == [
        ("leibniz", "pass"),
        ("contracting", "pass"),
        ("additive", "pass"),
    ]


def test_trivial_group_scales_to_itself():
    zero = element(SURREAL0, 0)
    assert zero.scale(3) is zero


def test_plus_signed_rational():
    assert parse_series("t^(+1/2)", SessionConfig(Q)) == Series.monomial(
        Q, Fraction(1, 2)
    )
