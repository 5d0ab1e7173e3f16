from fractions import Fraction

import pytest

from hahnaut import groups
from hahnaut.automorphisms import (
    PartialCharacter,
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
from hahnaut.derivations import exp_derivation, make_phi_derivation
from hahnaut.errors import (
    DomainError,
    InsufficientPrecision,
    NotInfinitesimal,
    NotInternal,
    NotOneAut,
)
from hahnaut.groups import (
    RATIONALS,
    PiecewiseLinear,
    PositiveScalar,
    embed_rational,
    scaling_functional,
)
from hahnaut.sampling import SampleSpec, Sampler
from hahnaut.series import Series

Q = RATIONALS
T = Series.monomial(Q, 1)
ONE = Series.one(Q)


def S(*terms, precision=None):
    return Series.make(Q, [(Fraction(e), Fraction(c)) for e, c in terms], precision)


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

    def test_exp_derivation_inverse_negates(self):
        aut = exp_aut(target=6)
        s = S((-2, 3), (1, 1))
        back = apply_aut(invert_aut(aut), apply_aut(aut, s))
        assert back.agrees(s.truncate_to(embed_rational(Q, 6)))


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
