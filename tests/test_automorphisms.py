from collections import Counter
from fractions import Fraction

import pytest

from hahnaut import automorphisms, groups
from hahnaut.automorphisms import (
    Automorphism,
    ClassifyReport,
    FactorizationResult,
    PartialCharacter,
    TableMonomial,
    ScalingFamily,
    apply_aut,
    classify_aut,
    compose_aut,
    construct_tau,
    construct_theta,
    factorize_aut,
    identity_aut,
    induced_maps,
    invert_aut,
    is_one_aut,
    make_character_lift,
    make_external_field,
    make_external_group,
    make_internal_mult,
)
from hahnaut.derivations import (
    exp_derivation,
    make_phi_derivation,
    make_table_derivation,
)
from hahnaut.errors import (
    DescriptorMismatch,
    DomainError,
    HahnError,
    InsufficientPrecision,
    NotInfinitesimal,
    NotInternal,
    NotOneAut,
    SampleInsufficiency,
)
from hahnaut.groups import (
    RATIONALS,
    LinearFunctional,
    PiecewiseLinear,
    PositiveScalar,
    Translation,
    TriangularMatrix,
    element,
    embed_rational,
    lex_power,
    scaling_functional,
    standard_functional,
    surreal_depth,
)
from hahnaut.sampling import (
    CheckResult,
    SampleSpec,
    Sampler,
    canonical_series,
    first_counterexample,
)
from hahnaut.series import Series
import linear_reference as reference

Q = RATIONALS
T = Series.monomial(Q, 1)
ONE = Series.one(Q)


def S(*terms, precision=None):
    return Series.make(Q, [(Fraction(e), Fraction(c)) for e, c in terms], precision)


def solved_character(chi, g):
    """``chi(g)`` by a fresh elimination over the lattice and ``g``."""
    if g.is_zero() or not chi.lattice:
        return Fraction(1)
    vectors = reference._coordinates(list(chi.lattice) + [g])
    _, (coeffs,) = reference._solve_linear(vectors[:-1], vectors[-1:])
    if coeffs is None or any(q.denominator != 1 for q in coeffs):
        raise DomainError(f"{g} is not in the integer span of the lattice")
    out = Fraction(1)
    for q, v in zip(coeffs, chi.values):
        out *= v ** int(q)
    return out


def chi_two():
    return PartialCharacter(Q, (embed_rational(Q, 1),), (Fraction(2),))


def exp_aut(target=5, factor=1):
    d = make_phi_derivation(scaling_functional(Q, factor), 1)
    return exp_derivation(d, target)


def halving_zeta():
    # g < 0 -> g; g >= 0 -> 2g
    return PiecewiseLinear((Fraction(0),), (Fraction(1), Fraction(2)))


class TestPartialCharacter:
    def test_integer_span_evaluation(self):
        chi = chi_two()
        assert chi(embed_rational(Q, 3)) == 8
        assert chi(embed_rational(Q, -2)) == Fraction(1, 4)
        assert chi(embed_rational(Q, 0)) == 1

    def test_outside_span_rejected(self):
        with pytest.raises(DomainError):
            chi_two()(embed_rational(Q, Fraction(1, 2)))

    def test_values_must_be_positive(self):
        with pytest.raises(DomainError):
            PartialCharacter(Q, (embed_rational(Q, 1),), (Fraction(-2),))

    @pytest.mark.parametrize("kind", ["Q", "lex2", "surreal1"])
    def test_matches_a_fresh_elimination_per_call(self, kind):
        # the lattice spans all coordinates, part of them, or (surreal1)
        # only some of the exponents the samples use
        group = {"Q": Q, "lex2": lex_power(2), "surreal1": surreal_depth(1)}[kind]
        smp = Sampler(11)
        for size in (1, 2, 3):
            lattice = [smp.nonzero_exponent(group) for _ in range(size)]
            values = [smp.positive_rational() for _ in range(size)]
            try:
                chi = PartialCharacter(group, tuple(lattice), tuple(values))
            except DomainError as exc:
                assert str(exc) == "character lattice must be Q-linearly independent"
                continue
            for _ in range(40):
                g = smp.exponent(group)
                if smp.rng.random() < 0.5:  # a point of the lattice
                    g = sum(
                        (x.scale(smp.rng.randint(-2, 2)) for x in lattice), groups.zero(group)
                    )
                assert outcome(chi, g) == outcome(solved_character, chi, g)

    @pytest.mark.parametrize(
        "group, lattice, outside",
        [
            (Q, [Fraction(1, 4)], Fraction(1, 8)),
            (lex_power(2), [(1, 0), (0, 1)], (Fraction(1, 2), 0)),
            (lex_power(2), [(0, 1)], (1, 0)),
            (
                surreal_depth(1),
                [Series.monomial(Q, 1), Series.monomial(Q, -1, 2)],
                Series.monomial(Q, 2),
            ),
            (surreal_depth(0), [], None),
        ],
        ids=["Q", "lex2-full", "lex2-partial", "surreal1", "surreal0-empty"],
    )
    def test_zero_reads_one_through_the_span(self, group, lattice, outside):
        values = [Fraction(k + 2, 3) for k in range(len(lattice))]
        chi = PartialCharacter(group, tuple(lattice), tuple(values))
        assert chi(groups.zero(group)) == 1
        if outside is not None:
            with pytest.raises(DomainError, match="not in the integer span"):
                chi(element(group, outside))

    def test_dependent_lattice_rejected(self):
        with pytest.raises(DomainError):
            PartialCharacter(
                Q,
                (embed_rational(Q, 1), embed_rational(Q, 2)),
                (Fraction(2), Fraction(4)),
            )


class TestPrimitives:
    def test_external_field_relabels_exponents(self):
        aut = make_external_field(PositiveScalar(Q, 3))
        image = apply_aut(aut, S((Fraction(1, 3), 1), (1, 2)))
        assert [(e.value, c) for e, c in image.terms] == [(1, 1), (3, 2)]

    def test_character_lift_scales_coefficients(self):
        aut = make_character_lift(chi_two())
        image = apply_aut(aut, S((-1, 3), (2, 1)))
        assert [(e.value, c) for e, c in image.terms] == [(-1, Fraction(3, 2)), (2, 4)]

    def test_character_lift_outside_span_has_node_path(self):
        aut = make_character_lift(chi_two())
        with pytest.raises(DomainError, match="at node"):
            apply_aut(aut, Series.monomial(Q, Fraction(1, 2)))

    def test_internal_mult_expands_product(self):
        aut = make_internal_mult(T)
        image = apply_aut(aut, S((-1, 1), (0, 1)))
        assert [(e.value, c) for e, c in image.terms] == [(-1, 1), (0, 2), (1, 1)]
        assert image.leading_term().valuation.value == -1
        assert image.leading_term().coefficient == 1

    def test_internal_mult_requires_infinitesimal(self):
        with pytest.raises(NotInfinitesimal):
            make_internal_mult(ONE)

    def test_external_group_formula(self):
        aut = make_external_group(halving_zeta(), ScalingFamily(Q))
        image = apply_aut(aut, S((-1, 1), (1, 1)))
        assert [(e.value, c) for e, c in image.terms] == [(-1, 1), (2, 1)]

    def test_external_group_scaling_exception(self):
        fam = ScalingFamily(Q, 1, ((embed_rational(Q, 0), Fraction(3)),))
        aut = make_external_group(groups.identity_map(Q), fam)
        image = apply_aut(aut, S((0, 5), (1, 1)))
        assert [(e.value, c) for e, c in image.terms] == [(0, 15), (1, 1)]


class TestComposeInvert:
    def test_identity_is_the_empty_composition(self):
        ext = make_external_field(PositiveScalar(Q, 2))
        identity = identity_aut(Q)
        assert identity.node == invert_aut(identity).node == automorphisms.Compose(())
        assert identity.class_tag == "field-aut"
        assert compose_aut([identity, ext, identity]).node.parts == (ext.node,)
        assert compose_aut([identity, identity]).node == identity.node
        assert apply_aut(identity, S((-1, 1), (2, 3))) == S((-1, 1), (2, 3))

    def test_error_paths_skip_flattened_identities(self):
        aut = invert_aut(compose_aut([identity_aut(Q), make_internal_mult(T)]))
        with pytest.raises(
            InsufficientPrecision, match=r"^at node compose\[0\]\.inverse: "
        ):
            apply_aut(aut, T)

    def test_composition_is_right_to_left(self):
        chi = make_character_lift(chi_two())
        ext = make_external_field(PositiveScalar(Q, 2))
        assert apply_aut(compose_aut([chi, ext]), T).agrees(Series.monomial(Q, 2, 4))
        assert apply_aut(compose_aut([ext, chi]), T).agrees(Series.monomial(Q, 2, 2))

    def test_external_scalars_compose(self):
        a = make_external_field(PositiveScalar(Q, 2))
        b = make_external_field(PositiveScalar(Q, 3))
        c = make_external_field(PositiveScalar(Q, 6))
        sampler = Sampler(7)
        for _ in range(20):
            g = sampler.exponent(Q)
            m = Series.monomial(Q, g)
            assert apply_aut(compose_aut([a, b]), m).agrees(apply_aut(c, m))

    def test_character_inverse_is_reciprocal(self):
        chi = make_character_lift(chi_two())
        image = apply_aut(invert_aut(chi), Series.monomial(Q, 3))
        assert [(e.value, c) for e, c in image.terms] == [(3, Fraction(1, 8))]

    def test_internal_mult_inverse_round_trip(self):
        aut = make_internal_mult(T)
        s = S((-1, 1), (0, 1))
        precision = embed_rational(Q, 6)
        back = apply_aut(invert_aut(aut), apply_aut(aut, s), precision=precision)
        assert back.agrees(s)

    def test_internal_mult_inverse_needs_precision(self):
        aut = invert_aut(make_internal_mult(T))
        with pytest.raises(InsufficientPrecision):
            apply_aut(aut, S((0, 1), (1, 1)))

    def test_internal_mult_inverse_of_exact_one_needs_no_precision(self):
        # eps = 0: the unit is exactly 1, and so is its inverse
        aut = invert_aut(make_internal_mult(Series.zero(Q)))
        s = S((0, 1), (1, 1))
        assert apply_aut(aut, s) == s

    def test_internal_mult_inverse_of_a_truncated_zero(self):
        # nothing is known below t^3, so the image knows nothing below it
        aut = invert_aut(make_internal_mult(T))
        image = apply_aut(aut, S(precision=3), precision=5)
        assert (image.terms, image.precision) == ((), embed_rational(Q, 3))

    def test_inverting_the_identity_and_an_inverse(self):
        ident = identity_aut(Q)
        assert invert_aut(ident) == ident
        chi = make_character_lift(chi_two())
        assert invert_aut(invert_aut(chi)) == chi
        s = S((-1, 3), (2, 1))
        assert apply_aut(invert_aut(invert_aut(chi)), s) == apply_aut(chi, s)

    def test_exp_derivation_inverse_negates(self):
        aut = exp_aut(target=6)
        s = S((-2, 3), (1, 1))
        back = apply_aut(invert_aut(aut), apply_aut(aut, s))
        assert back.agrees(s.truncate_to(embed_rational(Q, 6)))


LEX2 = lex_power(2)


def lex2_series(*terms):
    return Series.make(LEX2, [(element(LEX2, e), Fraction(c)) for e, c in terms])


def inverse_round_trips():
    """(automorphism, exact input, precision) for nodes whose inverse is
    applied through its own code: an ``Inverse`` of a ``Theta`` or a
    ``TauBuild``, and the exponential of a negated table."""
    lex_exp = exp_derivation(
        make_phi_derivation(standard_functional(LEX2, [1, 1]), (0, 1)), (0, 6)
    )
    lex_chi = PartialCharacter(LEX2, (element(LEX2, (0, 1)),), (Fraction(2),))
    # D = t^2 d/dt on the exponents 0, 1, 2, 3: the exponentials below
    # t^4 read no other exponent
    q_table = {k: Series.monomial(Q, k + 1, k) for k in range(4)}
    lex_table = {(0, k): lex2_series(((0, k + 1), k)) for k in range(4)}
    yield (
        construct_theta(exp_aut(target=8), chi_two(), PositiveScalar(Q, 2)),
        S((-1, 3), (Fraction(1, 2), 1), (2, -1)),
        embed_rational(Q, 8),
    )
    yield (
        construct_theta(lex_exp, lex_chi, TriangularMatrix(LEX2, ((1, 0), (3, 2)))),
        lex2_series(((0, -1), 3), ((0, 1), 1), ((0, 2), -1)),
        element(LEX2, (0, 6)),
    )
    yield (
        construct_tau(
            make_internal_mult(T),
            halving_zeta(),
            ScalingFamily(Q, 2, ((embed_rational(Q, 1), Fraction(5)),)),
        ),
        S((-1, 1), (0, 1), (1, 3)),
        embed_rational(Q, 6),
    )
    yield (
        construct_tau(
            make_internal_mult(lex2_series(((0, 1), 1))),
            Translation(element(LEX2, (1, -1))),
            ScalingFamily(LEX2, 2, ((element(LEX2, (1, 0)), Fraction(5)),)),
        ),
        lex2_series(((0, -1), 1), ((0, 1), 3), ((0, 2), 1)),
        element(LEX2, (1, 4)),
    )
    yield (
        exp_derivation(make_table_derivation(Q, q_table, 1), 4),
        S((0, 5), (1, 1), (2, 3), (3, -2)),
        embed_rational(Q, 4),
    )
    yield (
        exp_derivation(make_table_derivation(LEX2, lex_table, (0, 1)), (0, 4)),
        lex2_series(((0, 0), 5), ((0, 1), 1), ((0, 2), 3), ((0, 3), -2)),
        element(LEX2, (0, 4)),
    )


class TestInverseRoundTrips:
    @pytest.mark.parametrize("aut, s, precision", list(inverse_round_trips()))
    def test_inverse_undoes_the_automorphism(self, aut, s, precision):
        image = apply_aut(aut, s, precision)
        back = apply_aut(invert_aut(aut), image, precision)
        assert back == s.truncate_to(back.precision)
        assert back.terms == s.terms  # each input lies below the precision


class TestInducedMaps:
    def test_external_field_induces_exponent_map(self):
        rows = induced_maps(
            make_external_field(PositiveScalar(Q, 2)), [embed_rational(Q, 1)]
        )
        [(g, image, coeff)] = rows
        assert (g.value, image.value, coeff) == (1, 2, 1)

    def test_one_automorphism_induces_identity(self):
        rows = induced_maps(exp_aut(), [embed_rational(Q, 1)])
        [(g, image, coeff)] = rows
        assert (g.value, image.value, coeff) == (1, 1, 1)

    def test_construct_tau_example_induces_scaling(self):
        aut = construct_tau(
            make_internal_mult(T),
            halving_zeta(),
            ScalingFamily(Q, 1, ((embed_rational(Q, 0), Fraction(3)),)),
        )
        [(g, image, coeff)] = induced_maps(aut, [embed_rational(Q, 0)])
        assert (g.value, image.value, coeff) == (0, 0, 3)


class TestClassify:
    def test_internal_mult_report(self):
        report = classify_aut(make_internal_mult(T), SampleSpec(7, 50))
        assert report.additive.status == "pass"
        assert report.multiplicative.status == "fail"
        x, y = report.multiplicative.witness
        assert x.agrees(T) and y.agrees(T)
        assert report.internal.status == "pass"
        assert report.one_aut.status == "n/a"
        assert "not multiplicative" in report.one_aut.note

    def test_exp_derivation_passes_everything(self):
        report = classify_aut(exp_aut(target=8), SampleSpec(7, 50))
        assert not report.failures()

    def test_external_field_not_internal(self):
        report = classify_aut(
            make_external_field(PositiveScalar(Q, 2)), SampleSpec(7, 50)
        )
        assert report.multiplicative.status == "pass"
        assert report.valuation_preserving.status == "pass"
        assert report.internal.status == "fail"
        assert report.one_aut.status == "fail"

    def test_external_group_not_multiplicative(self):
        aut = make_external_group(halving_zeta(), ScalingFamily(Q))
        report = classify_aut(aut, SampleSpec(7, 50))
        assert report.additive.status == "pass"
        assert report.order_preserving.status == "pass"
        assert report.multiplicative.status == "fail"


class TestConstructions:
    def test_theta_example(self):
        aut = construct_theta(identity_aut(Q), chi_two(), PositiveScalar(Q, 2))
        image = apply_aut(aut, S((-1, 3), (Fraction(1, 2), 1)))
        assert [(e.value, c) for e, c in image.terms] == [(-2, Fraction(3, 4)), (1, 2)]

    def test_theta_trivial_data_is_identity(self):
        trivial = PartialCharacter(Q, (), ())
        aut = construct_theta(identity_aut(Q), trivial, PositiveScalar(Q, 1))
        s = S((-2, 5), (1, -1))
        assert apply_aut(aut, s).agrees(s)

    def test_theta_with_exp_derivation_sigma(self):
        trivial = PartialCharacter(Q, (), ())
        aut = construct_theta(exp_aut(target=5), trivial, PositiveScalar(Q, 1))
        image = apply_aut(aut, T)
        assert [(e.value, c) for e, c in image.terms] == [(1, 1), (2, 1), (3, 1), (4, 1)]

    def test_theta_gate_rejects_non_one_aut(self):
        with pytest.raises(NotOneAut):
            construct_theta(
                make_external_field(PositiveScalar(Q, 2)),
                chi_two(),
                PositiveScalar(Q, 1),
            )

    def test_theta_agrees_with_three_node_composition(self):
        sigma = exp_aut(target=9)
        chi, tau = chi_two(), PositiveScalar(Q, 2)
        theta = construct_theta(sigma, chi, tau)
        composed = compose_aut(
            [sigma, make_character_lift(chi), make_external_field(tau)]
        )
        sampler = Sampler(7)
        for _ in range(40):
            s = Series.make(
                Q, [(sampler.exponent(Q), sampler.rational()) for _ in range(3)]
            )
            assert apply_aut(theta, s).agrees(apply_aut(composed, s))

    def test_tau_example(self):
        aut = construct_tau(
            make_internal_mult(T),
            halving_zeta(),
            ScalingFamily(Q, 1, ((embed_rational(Q, 0), Fraction(3)),)),
        )
        image = apply_aut(aut, S((-1, 1), (0, 1)))
        assert [(e.value, c) for e, c in image.terms] == [(-1, 1), (0, 4), (1, 3)]

    def test_parts_on_another_group_are_refused(self):
        # the exponent maps are called without coercing their argument, so
        # a part on another group is refused when the node is built
        lex2 = lex_power(2)
        with pytest.raises(DescriptorMismatch, match="act on different groups"):
            construct_theta(
                identity_aut(Q), chi_two(), TriangularMatrix(lex2, ((1, 0), (0, 1)))
            )
        with pytest.raises(DescriptorMismatch, match="act on different groups"):
            construct_tau(identity_aut(lex2), halving_zeta(), ScalingFamily(lex2))

    def test_tau_agrees_with_composition(self):
        nu = make_internal_mult(T)
        zeta = halving_zeta()
        fam = ScalingFamily(Q, 2, ((embed_rational(Q, 1), Fraction(5)),))
        built = construct_tau(nu, zeta, fam)
        composed = compose_aut([nu, make_external_group(zeta, fam)])
        sampler = Sampler(9)
        for _ in range(40):
            s = sampler.series(Q)
            assert apply_aut(built, s).agrees(apply_aut(composed, s))


class TestClassTagsAndGates:
    def theta(self):
        return construct_theta(exp_aut(), chi_two(), PositiveScalar(Q, 2))

    def theta_over_internal(self):
        # sigma mixes a one-automorphism with an internal multiplication
        sigma = compose_aut([exp_aut(), make_internal_mult(T)])
        return construct_theta(sigma, chi_two(), PositiveScalar(Q, 2), precision=6)

    def tau(self):
        return construct_tau(make_internal_mult(T), halving_zeta(), ScalingFamily(Q))

    def test_field_automorphisms(self):
        field = [
            identity_aut(Q),
            exp_aut(),
            invert_aut(make_external_field(PositiveScalar(Q, 2))),
            make_character_lift(chi_two()),
            self.theta(),
            invert_aut(self.theta()),
            compose_aut([self.theta(), exp_aut()]),
        ]
        assert [a.class_tag for a in field] == ["field-aut"] * len(field)

    def test_group_automorphisms(self):
        residual = factorize_aut(
            make_character_lift(chi_two()), "field", [embed_rational(Q, 1)]
        ).residual
        group = [
            make_internal_mult(T),
            make_external_group(halving_zeta(), ScalingFamily(Q)),
            self.tau(),
            residual,
            self.theta_over_internal(),
        ]
        assert [a.class_tag for a in group] == ["group-aut"] * len(group)

    def test_theta_gate_samples_a_theta_sigma(self):
        with pytest.raises(NotOneAut):
            construct_theta(
                self.theta_over_internal(), chi_two(), PositiveScalar(Q, 2)
            )

    @pytest.mark.parametrize("nu", ["tau", "theta"])
    def test_tau_gate_samples_a_built_nu(self, nu):
        with pytest.raises(NotInternal):
            construct_tau(getattr(self, nu)(), halving_zeta(), ScalingFamily(Q))

    def test_theta_over_internal_mult_builds(self):
        aut = construct_theta(
            make_internal_mult(T), chi_two(), PositiveScalar(Q, 2), precision=6
        )
        assert aut.class_tag == "group-aut"


class TestOneAut:
    def test_exp_derivation_is_one_aut(self):
        assert is_one_aut(exp_aut(target=8), SampleSpec(7, 50)).ok

    def test_external_field_is_not(self):
        result = is_one_aut(make_external_field(PositiveScalar(Q, 2)), SampleSpec(7, 20))
        assert result.status == "fail"
        assert result.witness

    def test_identity_over_the_trivial_group(self):
        trivial = surreal_depth(0)
        assert is_one_aut(identity_aut(trivial)).status == "pass"
        s = Sampler(7).invertible_series(trivial)
        assert s.terms and s.terms[0][0].is_zero()

    def test_the_trivial_group_has_no_nonzero_exponent(self):
        with pytest.raises(DomainError, match="^the trivial group only contains 0$"):
            Sampler(7).nonzero_exponent(surreal_depth(0))


class TestFactorize:
    def samples(self, *values):
        return [groups.element(Q, Fraction(v)) for v in values]

    def test_character_times_external_field(self):
        aut = compose_aut(
            [make_character_lift(chi_two()), make_external_field(PositiveScalar(Q, 2))]
        )
        result = factorize_aut(aut, "field", self.samples(-1, Fraction(1, 2), 1))
        assert [(g.value, e.value) for g, e in result.exponent_map] == [
            (-1, -2),
            (Fraction(1, 2), 1),
            (1, 2),
        ]
        assert [(g.value, c) for g, c in result.coefficients] == [
            (-1, Fraction(1, 4)),
            (Fraction(1, 2), 2),
            (1, 4),
        ]
        assert result.ok

    def test_identity_factorizes_trivially(self):
        result = factorize_aut(identity_aut(Q), "field", self.samples(-1, 0, 2))
        assert all(g == e for g, e in result.exponent_map)
        assert all(c == 1 for _, c in result.coefficients)
        assert result.ok

    def test_exp_derivation_times_external_field(self):
        aut = compose_aut([exp_aut(target=9), make_external_field(PositiveScalar(Q, 2))])
        result = factorize_aut(aut, "field", self.samples(-1, 1, 2))
        assert [(g.value, e.value) for g, e in result.exponent_map] == [
            (-1, -2),
            (1, 2),
            (2, 4),
        ]
        assert all(c == 1 for _, c in result.coefficients)
        assert result.ok

    def test_group_mode_with_internal_mult(self):
        fam = ScalingFamily(Q, 1, ((embed_rational(Q, 0), Fraction(3)),))
        aut = compose_aut(
            [make_internal_mult(T), make_external_group(halving_zeta(), fam)]
        )
        result = factorize_aut(aut, "group", self.samples(-1, 0, 1))
        assert [(g.value, e.value) for g, e in result.exponent_map] == [
            (-1, -1),
            (0, 0),
            (1, 2),
        ]
        assert [(g.value, c) for g, c in result.coefficients] == [(-1, 1), (0, 3), (1, 1)]
        assert result.ok


# -- certificates against their unmemoized definitions ---------------------------


def fixes_leading_term(a, precision):
    def law(s):
        if not s.terms:
            return None
        image = apply_aut(a, s, precision)
        return bool(image.terms) and image.leading_term() == s.leading_term()

    return law


def ref_classify(a, spec, precision=None):
    """``classify_aut`` with every law applying ``a`` afresh."""
    sampler = Sampler(spec.seed)
    group = a.group
    samples = canonical_series(group)
    while len(samples) < max(spec.count, 8):
        samples.append(sampler.series(group))
    samples = samples[: max(spec.count, 8)]
    base = canonical_series(group)
    pairs = [(a1, a2) for a1 in base for a2 in base]
    while len(pairs) < spec.count:
        pairs.append((sampler.series(group), sampler.series(group)))
    pairs = pairs[: spec.count]
    singles = [(x,) for x in samples]
    zero = groups.zero(group)

    def image(s):
        return apply_aut(a, s, precision)

    def order_law(positive):
        img = image(positive)
        return bool(img.terms) and img.terms[0][1] > 0

    def valuation_law(x, y):
        if not x.terms or not y.terms:
            return None
        ix, iy = image(x), image(y)
        if not ix.terms or not iy.terms:
            return False
        return ix.v().compare(iy.v()) == x.v().compare(y.v())

    def internal_law(x):
        if not x.terms:
            return None
        img = image(x)
        if not img.terms or img.v() != x.v():
            return False
        return x.v() != zero or img.terms[0][1] == x.terms[0][1]

    additive = first_counterexample(
        lambda x, y: image(x + y).agrees(image(x) + image(y)), pairs
    )
    multiplicative = first_counterexample(
        lambda x, y: image(x * y).agrees(image(x) * image(y)), pairs
    )
    positives = ((x if x.terms[0][1] > 0 else -x,) for x in samples if x.terms)
    order_preserving = first_counterexample(order_law, positives)
    valuation_preserving = first_counterexample(valuation_law, pairs)
    internal = first_counterexample(internal_law, singles)
    if multiplicative.status == "fail":
        one_aut = CheckResult("n/a", note="not multiplicative")
    else:
        one_aut = first_counterexample(fixes_leading_term(a, precision), singles)
    return ClassifyReport(
        additive, multiplicative, order_preserving, valuation_preserving, internal, one_aut
    )


def ref_factorize(a, mode, samples, precision=None):
    """``factorize_aut`` with the round trip applying ``a`` afresh."""
    if mode not in ("field", "group"):
        raise DomainError(f"unknown factorization mode {mode!r}")
    rows = induced_maps(a, samples, precision)
    images = [e for _, e, _ in rows]
    if len(set(images)) != len(images):
        raise SampleInsufficiency("induced exponent map is not injective on samples")
    entries = tuple((g, e, c) for g, e, c in rows)
    reconstruction = Automorphism(a.group, TableMonomial(entries))
    residual = compose_aut([a, invert_aut(reconstruction)])
    rebuilt = compose_aut([residual, reconstruction])
    table = {g: c for g, _, c in rows}
    sampled = [Series.monomial(a.group, g) for g in table]

    def roundtrip_law(monomial):
        direct = apply_aut(a, monomial, precision)
        return direct.agrees(apply_aut(rebuilt, monomial, precision))

    def coefficient_law(x, y):
        g, h = x.v(), y.v()
        if g + h not in table:
            return None
        return table[g + h] == table[g] * table[h]

    roundtrip = first_counterexample(roundtrip_law, ((m,) for m in sampled))
    residual_check = first_counterexample(
        fixes_leading_term(residual, precision),
        ((Series.monomial(a.group, e),) for e in images),
    )
    label = "residual_one_aut" if mode == "field" else "residual_internal"
    certificates = [("roundtrip", roundtrip), (label, residual_check)]
    if mode == "field":
        mult = first_counterexample(
            coefficient_law,
            ((x, y) for x in sampled for y in sampled),
            note="no sampled sums inside the table",
        )
        certificates.append(("coefficient_multiplicative", mult))
    return FactorizationResult(
        mode,
        tuple((g, e) for g, e, _ in rows),
        tuple((g, c) for g, _, c in rows),
        residual,
        tuple(certificates),
    )


LEX2 = lex_power(2)
SURREAL1 = surreal_depth(1)


def kind_data(group):
    """Per group: an additive automorphism, a character on the sampled
    exponents, an infinitesimal eps, an exponent translation or bijection,
    a derivation, and exponents to factorize on."""
    q = Fraction
    if group == Q:
        return (
            PositiveScalar(Q, 2),
            chi_two(),
            T,
            halving_zeta(),
            make_phi_derivation(scaling_functional(Q, q(1, 2)), 1),
            [-1, 0, 1, 2],
        )
    if group == LEX2:
        e = lambda *v: groups.element(LEX2, v)  # noqa: E731
        return (
            TriangularMatrix(LEX2, ((2, 0), (1, 1))),
            PartialCharacter(LEX2, (e(1, 0), e(0, 1)), (q(2), q(1, 3))),
            Series.monomial(LEX2, (1, 0)),
            Translation(e(0, 1)),
            make_phi_derivation(standard_functional(LEX2, [1, 2]), (1, 0)),
            [e(0, 0), e(1, 0), e(0, 1), e(1, -1)],
        )
    # the sampled surreal1 exponents are sums of c t^k, k = -3..4, with c
    # in steps of 1/12
    units = [groups.element(group, Series.monomial(Q, k, q(1, 12))) for k in range(-3, 5)]
    phi = LinearFunctional(group, tuple((u, q(k, 3)) for k, u in enumerate(units, -2)))
    big = groups.element(group, Series.monomial(Q, -3))
    one = embed_rational(group, 1)
    return (
        PositiveScalar(group, 2),
        PartialCharacter(group, tuple(units), tuple(q(k + 2, 2) for k in range(8))),
        Series.monomial(group, one),
        Translation(one),
        make_phi_derivation(phi, big),
        [groups.zero(group), one, -one, -big],
    )


def node_kinds(group):
    """One automorphism per node kind, with its factorization mode."""
    tau, chi, eps, zeta, d, _ = kind_data(group)
    target = embed_rational(group, 6)
    scaling = ScalingFamily(group, 2, ((groups.zero(group), Fraction(3)),))
    exp = exp_derivation(d, target)
    ext = make_external_field(tau)
    lift = make_character_lift(chi)
    mult = make_internal_mult(eps)
    relabel = make_external_group(zeta, scaling)
    return [
        ("identity", identity_aut(group), "field"),
        ("external_field", ext, "field"),
        ("character", lift, "field"),
        ("internal_mult", mult, "group"),
        ("external_group", relabel, "group"),
        ("exp", exp, "field"),
        ("inverse_exp", invert_aut(exp), "field"),
        ("theta", construct_theta(exp, chi, tau), "field"),
        ("tau", construct_tau(mult, zeta, scaling), "group"),
        ("inverse", invert_aut(compose_aut([lift, ext, relabel])), "group"),
        ("inverse_mult", invert_aut(mult), "group"),
        ("compose", compose_aut([exp, lift, ext]), "field"),
    ]


def outcome(fn, *args):
    try:
        return fn(*args)
    except HahnError as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("group", [Q, LEX2, SURREAL1], ids=str)
def test_certificates_match_unmemoized_definitions(group):
    precision = embed_rational(group, 6)
    samples = kind_data(group)[-1]
    for _, aut, mode in node_kinds(group):
        for spec in (SampleSpec(7, 12), SampleSpec(3, 30)):
            assert repr(outcome(classify_aut, aut, spec, precision)) == repr(
                outcome(ref_classify, aut, spec, precision)
            )
        got = outcome(factorize_aut, aut, mode, samples, precision)
        assert repr(got) == repr(outcome(ref_factorize, aut, mode, samples, precision))
        if isinstance(got, FactorizationResult):
            residual = got.residual
            assert repr(outcome(classify_aut, residual, SampleSpec(5, 12), precision)) == repr(
                outcome(ref_classify, residual, SampleSpec(5, 12), precision)
            )


def test_classify_applies_each_sample_once(monkeypatch):
    applied = []
    original = automorphisms.apply_aut

    def counting(a, s, precision=None):
        applied.append(s)  # held, so no two samples share an id here
        return original(a, s, precision)

    monkeypatch.setattr(automorphisms, "apply_aut", counting)
    precision = embed_rational(Q, 6)
    for _, aut, _ in node_kinds(Q):
        applied.clear()
        classify_aut(aut, SampleSpec(7, 30), precision)
        assert applied
        assert max(Counter(map(id, applied)).values()) == 1
