"""Seeded, deterministic sample generation for property certificates.

All classification and checking in this package is certificate-based:
universally quantified laws are evaluated exactly on a reproducible
sample drawn from a seed, and the first counterexample is reported as a
witness.  The sampler keeps exponents on the integer lattice of the
standard generators so that partial characters and finitely generated
functionals stay applicable.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import groups
from .errors import DomainError
from .groups import GroupDescriptor, GroupElement, Record
from .series import Series


class SampleSpec(Record):
    """Reproducible sample description: a seed and an int count of at least 1."""

    seed: int = 7
    count: int = 50

    def __post_init__(self):
        if type(self.count) is not int or self.count < 1:
            raise DomainError(f"sample count {self.count!r} is not an int of at least 1")


class CheckResult(Record):
    """Outcome of one sampled law: pass, fail with witness, or n/a."""

    status: str  # "pass" | "fail" | "n/a"
    witness: tuple = ()
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def describe(self) -> str:
        if self.status == "n/a" and self.note:
            return f"n/a ({self.note})"
        return self.status


def first_counterexample(
    law, samples, note: str = "no sample evaluated"
) -> CheckResult:
    """Evaluate ``law(*sample)`` on each sample tuple until one fails.

    ``law`` returns True (holds), False (fails; the sample tuple is the
    witness) or None (the sample does not exercise the law and is
    skipped).  A law that no sample exercised is ``n/a`` with ``note``,
    never a vacuous pass.
    """
    evaluated = False
    for sample in samples:
        verdict = law(*sample)
        if verdict is None:
            continue
        if not verdict:
            return CheckResult("fail", tuple(sample))
        evaluated = True
    return CheckResult("pass") if evaluated else CheckResult("n/a", note=note)


def padded(start, n: int, draw) -> list:
    """``start``, then ``draw()`` results up to ``n`` items, cut to ``n``."""
    out = list(start)
    while len(out) < n:
        out.append(draw())
    return out[:n]


class Sampler:
    """Deterministic random values driven by one ``random.Random`` stream."""

    def __init__(self, seed: int = 7):
        self.rng = random.Random(seed)

    def rational(self) -> Fraction:
        return Fraction(self.rng.randint(-9, 9), self.rng.randint(1, 4))

    def nonzero_rational(self) -> Fraction:
        while True:
            q = self.rational()
            if q != 0:
                return q

    def positive_rational(self) -> Fraction:
        return Fraction(self.rng.randint(1, 9), self.rng.randint(1, 4))

    def exponent(self, group: GroupDescriptor, lo: int = -3, hi: int = 4) -> GroupElement:
        """A group element on the integer lattice of the standard generators."""
        if group.rank_one:
            return groups.embed_rational(group, self.rng.randint(lo, hi))
        if group.kind == "LexPower":
            return groups.element(
                group, tuple(self.rng.randint(lo, hi) for _ in range(group.param))
            )
        if group.param == 0:
            return groups.zero(group)
        inner = group.exponent_group
        terms = [
            (self.exponent(inner, lo, hi), self.nonzero_rational())
            for _ in range(self.rng.randint(0, 2))
        ]
        return groups.element(group, Series.make(inner, terms))

    def nonzero_exponent(self, group) -> GroupElement:
        if group is groups.surreal_depth(0):
            raise DomainError("the trivial group only contains 0")
        while True:
            g = self.exponent(group)
            if not g.is_zero():
                return g

    def series(
        self,
        group: GroupDescriptor,
        max_terms: int = 4,
        precision: GroupElement | None = None,
    ) -> Series:
        terms = [
            (self.exponent(group), self.rational())
            for _ in range(self.rng.randint(0, max_terms))
        ]
        return Series.make(group, terms, precision)

    def nonzero_series(self, group) -> Series:
        while True:
            s = self.series(group)
            if s.terms:
                return s

    def invertible_series(self, group: GroupDescriptor, max_terms: int = 3) -> Series:
        """Nonzero exact series whose inverse has finite support below any
        target commensurate with the dominant coordinate.

        Exponents are kept strictly increasing in the dominant direction so
        that every tail-to-leading exponent gap is non-infinitesimal.
        """
        if group is groups.surreal_depth(0):
            return Series.constant(group, self.nonzero_rational())
        n_extra = self.rng.randint(0, max_terms - 1)
        offsets = sorted(self.rng.sample(range(-3, 9), n_extra + 1))
        terms = []
        for ex in offsets:
            if group.kind == "LexPower":
                ex = (ex, *(self.rng.randint(-2, 2) for _ in range(group.param - 1)))
            terms.append((ex, self.nonzero_rational()))
        return Series.make(group, terms)


def canonical_series(group: GroupDescriptor) -> list[Series]:
    """Small fixed series prepended to every sample list, so documented
    witnesses show up deterministically before the random tail."""
    if group is groups.surreal_depth(0):
        # the trivial group has no t^1 or t^-1: its series are constants
        return [Series.constant(group, q) for q in (2, -1, Fraction(1, 2), 3)]
    one = groups.embed_rational(group, 1)
    minus_one = groups.embed_rational(group, -1)
    t = Series.monomial(group, one)
    t_inv = Series.monomial(group, minus_one)
    return [t, t_inv, Series.one(group) + t, t_inv + Series.one(group)]
