"""Strongly linear derivations given by their action on monomials.

Two rule families are supported:

* ``PhiShift(phi, shift)`` sends ``t^g`` to ``phi(g) * t^(g+shift)`` for a
  Q-linear functional ``phi`` and a positive shift; the product rule holds
  automatically because ``phi`` is additive.
* ``TableRule`` maps a finite set of exponents to arbitrary series; the
  product rule is a checked property, not a structural guarantee, and
  ``check_derivation`` is the gatekeeper before such a rule may be
  exponentiated.

Every derivation carries a certified valuation gain ``gain > 0``
(contracting), which bounds the number of summands in the exponential
``a |-> sum_i D^i(a)/i!`` and makes it a leading-term-fixing field
automorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DescriptorMismatch,
    DomainError,
    NonContracting,
    NonTerminating,
    UnmappedExponent,
)
from . import groups
from .groups import GroupDescriptor, GroupElement, LinearFunctional
from .sampling import CheckResult, SampleSpec, Sampler, first_counterexample
from .series import Series, _cut, _trusted


@dataclass(frozen=True)
class PhiShift:
    phi: LinearFunctional
    shift: GroupElement


@dataclass(frozen=True)
class TableRule:
    entries: tuple[tuple[GroupElement, Series], ...]
    zero_default: bool = False


@dataclass(frozen=True)
class MonomialDerivation:
    group: GroupDescriptor
    rule: PhiShift | TableRule
    gain: GroupElement


def make_phi_derivation(phi: LinearFunctional, shift) -> MonomialDerivation:
    shift = groups.element(phi.descriptor, shift)
    if shift.compare(groups.zero(phi.descriptor)) <= 0:
        raise NonContracting(f"shift {shift} does not increase the valuation")
    return MonomialDerivation(phi.descriptor, PhiShift(phi, shift), shift)


def make_table_derivation(
    group: GroupDescriptor,
    entries,
    gain,
    zero_default: bool = False,
    validate: bool = True,
) -> MonomialDerivation:
    """Derivation from a finite exponent-to-series table.

    ``validate=False`` skips the per-entry valuation check so that broken
    tables can still be handed to ``check_derivation`` for diagnosis.
    """
    gain = groups.element(group, gain)
    if gain.compare(groups.zero(group)) <= 0:
        raise NonContracting(f"gain {gain} must be strictly positive")
    table = []
    for g, image in entries.items() if isinstance(entries, dict) else entries:
        g = groups.element(group, g)
        if image.group != group:
            raise DescriptorMismatch("table image over the wrong group")
        if validate and image.terms and image.v().compare(g + gain) < 0:
            raise NonContracting(
                f"image of t^{g} starts below the certified gain"
            )
        table.append((g, image))
    table.sort(key=lambda t: t[0])
    return MonomialDerivation(group, TableRule(tuple(table), zero_default), gain)


def negate_derivation(d: MonomialDerivation) -> MonomialDerivation:
    if isinstance(d.rule, PhiShift):
        return MonomialDerivation(
            d.group, PhiShift(d.rule.phi.negated(), d.rule.shift), d.gain
        )
    flipped = tuple((g, -image) for g, image in d.rule.entries)
    return MonomialDerivation(
        d.group, TableRule(flipped, d.rule.zero_default), d.gain
    )


def apply_derivation(d: MonomialDerivation, s: Series) -> Series:
    if s.group is not d.group and s.group != d.group:
        raise DescriptorMismatch(
            f"derivation over {d.group} applied to series over {s.group}"
        )
    precision = None if s.precision is None else s.precision + d.gain
    if isinstance(d.rule, PhiShift):
        phi, shift = d.rule.phi, d.rule.shift
        # Translation by ``shift`` keeps the exponents strictly ascending,
        # so only the terms phi kills are dropped, and the cut stays for a
        # hand-built gain below the shift.
        terms = []
        for ex, c in s.terms:
            k = phi(ex)
            if k:
                terms.append((ex + shift, c * k))
        return _trusted(d.group, _cut(tuple(terms), precision), precision)
    table = dict(d.rule.entries)
    total = Series.zero(d.group)
    for ex, c in s.terms:
        image = table.get(ex)
        if image is None:
            if d.rule.zero_default:
                continue
            raise UnmappedExponent(f"no table entry for exponent {ex}")
        total = total + image.scale(c)
    if precision is not None:
        total = total.truncate_to(precision)
    return total


def exp_apply(d: MonomialDerivation, s: Series, target: GroupElement) -> Series:
    """Evaluate sum_i D^i(s)/i! truncated below ``target``."""
    total = s.truncate_to(target)
    term = s
    i = 1
    factorial = 1
    while True:
        term = apply_derivation(d, term).truncate_to(target)
        if not term.terms:
            break
        factorial *= i
        total = total + term.scale(Fraction(1, factorial))
        i += 1
        if i > 10000:
            raise NonTerminating(
                "derivation gain is infinitesimal relative to the target"
            )
    return total


def exp_derivation(
    d: MonomialDerivation,
    target_precision,
    verify: SampleSpec = SampleSpec(),
):
    """Exponential of a contracting derivation, as an automorphism node.

    Table rules are gated through :func:`check_derivation` on the
    ``verify`` sample first: a law that fails, or that no sample
    evaluated, is refused.  The inverse of the result is the exponential
    of the negated derivation.
    """
    from . import automorphisms

    target = groups.element(d.group, target_precision)
    if d.gain.compare(groups.zero(d.group)) <= 0:
        raise NonContracting("derivation gain must be strictly positive")
    if isinstance(d.rule, TableRule):
        for name, result in check_derivation(d, verify).as_items():
            if not result.ok:
                raise DomainError(
                    f"table derivation fails the {name} check; "
                    "refusing to exponentiate"
                )
            if result.status == "n/a":
                raise DomainError(
                    "table derivation is uncertified: no sample evaluated the "
                    f"{name} check; refusing to exponentiate"
                )
    return automorphisms.Automorphism(
        d.group, automorphisms.ExpDerivation(d, target)
    )


@dataclass(frozen=True)
class DerivationReport:
    leibniz: CheckResult
    contracting: CheckResult
    additive: CheckResult

    @property
    def ok(self) -> bool:
        return self.leibniz.ok and self.contracting.ok and self.additive.ok

    def as_items(self):
        return [(n, getattr(self, n)) for n in ("leibniz", "contracting", "additive")]


def _candidate_exponents(d: MonomialDerivation) -> list[GroupElement]:
    if isinstance(d.rule, TableRule):
        return [g for g, _ in d.rule.entries]
    exps = []
    for g, _ in d.rule.phi.generators:
        exps.append(g)
        exps.append(g + g)
    if not exps:
        exps.append(groups.zero(d.group))
    return exps


def check_derivation(d: MonomialDerivation, spec: SampleSpec = SampleSpec()) -> DerivationReport:
    """Evaluate the derivation laws on a seeded sample.

    Returns the first counterexample per law as a witness.  Samples a law
    cannot fail on are skipped: pairs with a zero member, and samples
    whose images leave a partial table's domain.  A law left without an
    evaluated sample is ``n/a``.
    """
    sampler = Sampler(spec.seed)
    exps = _candidate_exponents(d)
    monomials = [Series.monomial(d.group, g) for g in exps[:4]]

    def random_combo() -> Series:
        terms = [
            (
                exps[sampler.rng.randrange(len(exps))],
                sampler.rational(),
            )
            for _ in range(sampler.rng.randint(0, 3))
        ]
        return Series.make(d.group, terms)

    pairs = [(a, b) for a in monomials for b in monomials]
    singles = list(monomials)
    while len(pairs) < spec.count:
        pairs.append((random_combo(), random_combo()))
    while len(singles) < spec.count:
        singles.append(random_combo())

    def sampled(holds):
        """``holds`` with the skips listed above; zero members make every
        law here hold trivially."""

        def law(*sample):
            if not all(x.terms for x in sample):
                return None
            try:
                return holds(*sample)
            except UnmappedExponent:
                return None

        return law

    @sampled
    def leibniz(a, b):
        lhs = apply_derivation(d, a * b)
        return lhs.agrees(a * apply_derivation(d, b) + b * apply_derivation(d, a))

    @sampled
    def additive(a, b):
        return apply_derivation(d, a + b).agrees(
            apply_derivation(d, a) + apply_derivation(d, b)
        )

    @sampled
    def contracting(a):
        da = apply_derivation(d, a)
        return not da.terms or da.v().compare(a.v()) > 0

    pairs = pairs[: spec.count]
    return DerivationReport(
        leibniz=first_counterexample(leibniz, pairs),
        additive=first_counterexample(additive, pairs),
        contracting=first_counterexample(
            contracting, ((a,) for a in singles[: spec.count])
        ),
    )
