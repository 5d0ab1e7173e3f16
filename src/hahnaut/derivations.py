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
automorphism.  Contraction is decided exactly for both rule kinds: a
``PhiShift`` raises valuations by its shift, so it contracts exactly when
``0 < gain <= shift``, and a table contracts exactly when every image's
certified lower bound, its first exponent or else its precision, is at
least ``key + gain`` (an exact zero image has none).  A derivation that
fails this is refused with ``NonContracting`` wherever its gain would
certify a result; Leibniz and additivity are sampled.

``exp_apply`` evaluates that exponential with no round guard; its
docstring gives the row recurrence and when a row is refused.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, lcm

from .errors import (
    DescriptorMismatch,
    DomainError,
    NonContracting,
    NonTerminating,
    UnmappedExponent,
)
from . import groups
from .groups import GroupDescriptor, GroupElement, LinearFunctional, Record, _steps_past
from .sampling import CheckResult, SampleSpec, Sampler, first_counterexample, padded
from .series import Series, _cut, _keys, _pmin


class PhiShift(Record):
    phi: LinearFunctional
    shift: GroupElement


class TableRule(Record):
    entries: tuple[tuple[GroupElement, Series], ...]
    zero_default: bool = False


class MonomialDerivation(Record):
    group: GroupDescriptor
    rule: PhiShift | TableRule
    gain: GroupElement


def make_phi_derivation(phi: LinearFunctional, shift) -> MonomialDerivation:
    shift = groups.element(phi.descriptor, shift)
    if shift.compare(groups.zero(phi.descriptor)) <= 0:
        raise NonContracting(f"shift {shift} does not increase the valuation")
    return MonomialDerivation(phi.descriptor, PhiShift(phi, shift), shift)


def make_table_derivation(
    group: GroupDescriptor, entries, gain, zero_default: bool = False
) -> MonomialDerivation:
    """Derivation from a finite exponent-to-series table.

    An exponent given twice is refused.  A table that does not contract
    by its gain is built, so that ``check_derivation`` can diagnose it,
    and refused wherever its gain would certify a result.
    """
    gain = groups.element(group, gain)
    table = {}
    for g, image in entries.items() if isinstance(entries, dict) else entries:
        g = groups.element(group, g)
        if image.group is not group:
            raise DescriptorMismatch("table image over the wrong group")
        if g in table:
            raise DomainError(f"table has two entries for the exponent {g}")
        table[g] = image
    rule = TableRule(tuple(sorted(table.items())), zero_default)
    d = MonomialDerivation(group, rule, gain)
    _check_gain(d)
    return d


def negate_derivation(d: MonomialDerivation) -> MonomialDerivation:
    if isinstance(d.rule, PhiShift):
        return MonomialDerivation(
            d.group, PhiShift(d.rule.phi.negated(), d.rule.shift), d.gain
        )
    flipped = tuple((g, -image) for g, image in d.rule.entries)
    return MonomialDerivation(
        d.group, TableRule(flipped, d.rule.zero_default), d.gain
    )


def _check_gain(d: MonomialDerivation):
    """Refuse a non-positive gain, or a ``PhiShift`` gain above its shift.

    ``D(t^g) = phi(g) t^(g+shift)`` raises a valuation by the shift and no
    more, so the unknown tail of a truncated input reaches ``D(s)`` from
    ``s.precision + shift`` on: a larger gain would certify terms that
    tail still changes.
    """
    if d.gain.compare(groups.zero(d.group)) <= 0:
        raise NonContracting(f"gain {d.gain} must be strictly positive")
    if isinstance(d.rule, PhiShift) and d.gain.compare(d.rule.shift) > 0:
        raise NonContracting(
            f"gain {d.gain} exceeds the shift {d.rule.shift}: a phi-shift "
            "derivation raises valuations by its shift only"
        )


def _broken_key(d: MonomialDerivation) -> GroupElement | None:
    """The least table key whose image's certified lower bound, its first
    exponent or else its precision, lies below ``key + gain``, or None."""
    for g, image in d.rule.entries:
        lower = image.terms[0][0] if image.terms else image.precision
        if lower is not None and lower.compare(g + d.gain) < 0:
            return g
    return None


def _check_table(d: MonomialDerivation):
    """Refuse a table that does not contract by its gain."""
    broken = _broken_key(d)
    if broken is not None:
        raise NonContracting(f"image of t^{broken} starts below the certified gain")


def _check_group(d: MonomialDerivation, s: Series):
    if s.group is not d.group:
        raise DescriptorMismatch(
            f"derivation over {d.group} applied to series over {s.group}"
        )


def apply_derivation(d: MonomialDerivation, s: Series) -> Series:
    """``D(s)`` below ``s.precision + gain``; a table's scaled images are
    summed by one ``Series.make`` at the least of their precisions."""
    _check_group(d, s)
    _check_gain(d)
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
        return Series(d.group, _cut(tuple(terms), precision), precision)
    if precision is not None:
        # a broken table certifies nothing below this precision; exact
        # inputs stay allowed, as the sampled laws of check_derivation use them
        _check_table(d)
    table = dict(d.rule.entries)
    terms = []
    for ex, c in s.terms:
        image = table.get(ex)
        if image is None:
            if d.rule.zero_default:
                continue
            raise UnmappedExponent(f"no table entry for exponent {ex}")
        terms.extend((g, c * q) for g, q in image.terms)
        precision = _pmin(precision, image.precision)
    return Series.make(d.group, terms, precision)


def exp_apply(d: MonomialDerivation, s: Series, target: GroupElement) -> Series:
    """Evaluate sum_i D^i(s)/i! truncated below ``target``.

    The result has precision ``P = min(s.precision, target)``, or less for a table.

    For ``PhiShift``, ``D(t^g) = phi(g) t^(g+shift)`` and ``phi`` is
    additive, so ``D^i(c t^g)/i!`` is ``a_i t^(g+i*shift)`` with
    ``a_0 = c`` and ``a_i = a_(i-1) * (phi(g) + (i-1)*phi(shift)) / i``.
    Each term of ``s`` below ``P`` gives that ascending row up to its first
    exponent at or past ``P`` or its first zero factor, and the rows are
    summed per exponent key (``series._keys``): an int key on Z, Q and
    lexN, decoded once per output term to its shared exponent
    (``series._Keys``), and the exponent itself on surreal groups.  From
    the least ``g`` up, ``groups._steps_past(P - g, shift)`` counts the
    shifts that pass ``P`` from ``g``, up to the first row they pass: the
    gaps descend, so its walk is the longest.  A row before it is infinite
    unless a factor vanishes, that is unless ``-phi(g)/phi(shift)`` is a
    nonnegative integer, and is refused with ``NonTerminating`` before any
    coefficient is computed.
    ``phi`` is called on every term of ``s``, then on ``g + shift`` for the
    least ``g`` whose image survives below the target, as the first two
    rounds of ``D`` call it, so the same ``OutsideSpan`` or
    ``DescriptorMismatch`` comes first.  On Z and Q, one archimedean class
    where ``phi`` cannot refuse, ``phi`` is read off its one weight
    (``LinearFunctional._weights``) and no walk is measured.

    For ``TableRule``, ``D^i(s)`` is built round by round.  A table some
    image of which may start below ``key + gain`` is refused with
    ``NonContracting`` first.  Every other image starts above its key, so
    the least key present in ``D^i(s)`` rises strictly with ``i``: ``D``
    reads only the terms at keys, each image lies above its key, and cuts
    only drop terms.  So after ``n = len(entries)`` rounds no key is left,
    and round ``n + 1`` is zero at the latest.  The rounds, each scaled by
    ``1/i!``, are summed by one ``Series.make`` at the least precision of
    them all, the empty last one included: it is zero only below its own.
    """
    target = groups.element(s.group, target)
    _check_group(d, s)
    _check_gain(d)
    if isinstance(d.rule, PhiShift):
        return _exp_phi_shift(d, s, target)
    _check_table(d)
    precision = _pmin(s.precision, target)
    terms = list(_cut(s.terms, precision))
    term = s
    factorial = 1
    for i in count(1):
        term = apply_derivation(d, term).truncate_to(target)
        precision = _pmin(precision, term.precision)
        if not term.terms:
            return Series.make(d.group, terms, precision)
        factorial *= i
        terms.extend((g, c / factorial) for g, c in term.terms)


def _exp_phi_shift(d: MonomialDerivation, s: Series, target: GroupElement) -> Series:
    """``exp_apply`` for a ``PhiShift``: one row per term, as documented there."""
    phi, shift = d.rule.phi, d.rule.shift
    precision = _pmin(s.precision, target)
    terms = _cut(s.terms, precision)
    exponents = [precision, shift] + [g for g, _ in terms]
    if d.group.rank_one and phi.descriptor is d.group and phi._weights:
        # phi(g) = key(g) * w / L from phi's one weight w: no phi call, and
        # no walk, since Z and Q are one archimedean class; one digit
        keys = _keys(d.group, exponents, 1)
        key = keys.key
        (w,) = phi._weights
        rn, q = w.numerator, w.denominator * keys.scale
        du = key(shift) * rn
        rows = [(kg, c, kg * rn) for kg, c in [(key(g), c) for g, c in terms]]
    else:
        ks = [phi(ex) for ex, _ in s.terms]
        # phi(shift), read off the least image that survives the first round
        survives = _pmin(target, None if s.precision is None else s.precision + d.gain)
        k_shift = Fraction(0)
        for (ex, _), k in zip(s.terms, ks):
            if k and (ex + shift).compare(survives) < 0:
                k_shift = phi(ex + shift) - k
                break
        # Per row, u + i*du = q * phi(g + i*shift) over ints.  A row before
        # the first walk that passes its gap, the longest, ends past its
        # first zero factor or is refused; a key adds g and <= most shifts.
        q = lcm(k_shift.denominator, *[k.denominator for k in ks[: len(terms)]])
        du = k_shift.numerator * (q // k_shift.denominator)
        rows = [
            (g, c, k.numerator * (q // k.denominator)) for (g, c), k in zip(terms, ks)
        ]
        most = 0
        for g, _, u in rows:
            n = _steps_past(gap := precision - g, shift)
            if n is not None:
                most = max(most, n)
                break
            if u and not (du and u % du == 0 and u * du < 0):
                raise NonTerminating(
                    "exponential series does not reach the target precision: the "
                    f"archimedean class of the shift {shift} is infinitesimal relative "
                    f"to the class of {gap}, the gap from t^{g} to the "
                    f"precision {precision}, and no factor phi(g) + i*phi(shift) vanishes"
                )
            most = max(most, -u // du + 1 if u else 1)
        keys = _keys(d.group, exponents, 1 + most)
        key = keys.key
        rows = [(key(g), c, u) for g, c, u in rows]
    # The row (kg, c, u) from key kg ascends by the shift's key below the
    # precision's, up to its first zero factor
    # phi(g) + i*phi(shift) = (u + i*du) / q: a_i is num * u / (den * q * i)
    # from the reduced num / den before it.  The terms at one key are
    # summed once, over the lcm of their denominators; a lone term is its
    # own sum, as summing it made a monomial's exp to t^24 44% slower.
    stop, step = key(precision), key(shift)
    parts = {}
    for kg, c, u in rows:
        num, den, i = c.numerator, c.denominator, 1
        while True:
            parts.setdefault(kg, []).append((num, den))
            kg = kg + step
            if not u or kg >= stop:
                break
            num, den = num * u, den * q * i
            common = gcd(num, den)
            num, den = num // common, den // common
            u += du
            i += 1
    out = []
    for k in sorted(parts):
        summands = parts[k]
        if len(summands) == 1:
            num, den = summands[0]
        else:
            den = lcm(*[b for _, b in summands])
            num = sum(a * (den // b) for a, b in summands)
            if not num:
                continue
        out.append((keys.element(k), Fraction(num, den)))
    return Series(d.group, tuple(out), precision)


def exp_derivation(
    d: MonomialDerivation,
    target_precision,
    verify: SampleSpec = SampleSpec(),
):
    """Exponential of a contracting derivation, as an automorphism node.

    A gain that is not positive, or a ``PhiShift`` gain above its shift,
    is refused with ``NonContracting``.  Table rules are gated through
    :func:`check_derivation` on the ``verify`` sample first: a law that
    fails, or that no sample evaluated, is refused.  The inverse of the
    result is the exponential of the negated derivation.
    """
    from . import automorphisms

    target = groups.element(d.group, target_precision)
    _check_gain(d)
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


class DerivationReport(Record):
    leibniz: CheckResult
    contracting: CheckResult
    additive: CheckResult

    @property
    def ok(self) -> bool:
        return self.leibniz.ok and self.contracting.ok and self.additive.ok

    def as_items(self):
        return [(name, getattr(self, name)) for name in self._fields]


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
    evaluated sample is ``n/a``.  The contraction law is decided exactly
    instead: a gain that is not positive, or a ``PhiShift`` gain above its
    shift, is refused with ``NonContracting``, so a ``PhiShift`` that gets
    this far passes, and a table fails with the monomial of the first key
    that breaks it as the witness.
    """
    _check_gain(d)
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
    pairs = padded(pairs, spec.count, lambda: (random_combo(), random_combo()))

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

    contracting = CheckResult("pass")
    broken = _broken_key(d) if isinstance(d.rule, TableRule) else None
    if broken is not None:
        contracting = CheckResult("fail", (Series.monomial(d.group, broken),))
    return DerivationReport(
        leibniz=first_counterexample(leibniz, pairs),
        additive=first_counterexample(additive, pairs),
        contracting=contracting,
    )
