"""Exact arithmetic for truncated generalized power series.

A series is a finite, strictly ascending list of (exponent, nonzero
rational coefficient) pairs over one of the value groups, together with a
precision bound: every term with exponent below the bound is present and
correct, and an infinite bound (``None``) marks an exact series.

Every ``Series`` keeps its terms normalized: each exponent is a
``GroupElement`` of the series' group, each coefficient a nonzero
``Fraction``, the exponents strictly ascend, and all of them lie below the
precision bound.  ``Series.make`` is the one entry point that coerces raw
exponents and coefficients and establishes the invariant (merge, drop
zeros, sort, cut).  The dataclass constructor ``Series(...)`` and the
private ``_trusted`` check nothing: they are for inputs that already hold
the invariant, which is how every operation below builds its result, by
merging or cutting normalized term lists instead of renormalizing them.

Precision propagates through arithmetic with the tightest sound rules
under unknown tails at or above the bound:

* addition takes the minimum of the two bounds,
* multiplication takes ``min(P_a + v(b), P_b + v(a))``,
* inversion of ``s`` at target ``p`` yields a result certified so that
  ``s * result`` is 1 below ``p``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .errors import (
    DescriptorMismatch,
    DivisionByZero,
    InsufficientPrecision,
    NonTerminating,
    ZeroSeries,
)
from .groups import GroupDescriptor, GroupElement, element

_exponent = itemgetter(0)


def _pmin(a: GroupElement | None, b: GroupElement | None) -> GroupElement | None:
    if a is None:
        return b
    if b is None:
        return a
    return a if a.compare(b) <= 0 else b


def _cut(terms: tuple, p: GroupElement | None) -> tuple:
    """The prefix of ascending ``terms`` whose exponents lie below ``p``."""
    if p is None or not terms or terms[-1][0].compare(p) < 0:
        return terms
    return terms[: bisect_left(terms, p, key=_exponent)]


def _merge(a: tuple, b: tuple) -> list:
    """Sum of two normalized term lists: one linear merge, zeros dropped."""
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ta, tb = a[i], b[j]
        order = ta[0].compare(tb[0])
        if order < 0:
            out.append(ta)
            i += 1
        elif order > 0:
            out.append(tb)
            j += 1
        else:
            c = ta[1] + tb[1]
            if c:
                out.append((ta[0], c))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def _trusted(group: GroupDescriptor, terms: tuple, precision) -> "Series":
    """A ``Series`` from terms that already hold the normalized invariant.

    Nothing is checked or coerced, and the frozen dataclass ``__init__``
    is skipped: this is the constructor of every kernel fast path.
    """
    s = object.__new__(Series)
    s.__dict__.update(group=group, terms=terms, precision=precision)
    return s


@dataclass(frozen=True)
class LeadingTerm:
    valuation: GroupElement
    coefficient: Fraction


@dataclass(frozen=True)
class Series:
    group: GroupDescriptor
    terms: tuple[tuple[GroupElement, Fraction], ...] = ()
    precision: GroupElement | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def make(cls, group, terms, precision=None) -> "Series":
        """Normalize: merge like exponents, sort, drop zeros and cut tails."""
        if precision is not None:
            precision = element(group, precision)
        merged: dict[GroupElement, Fraction] = {}
        for ex, c in terms:
            if type(ex) is not GroupElement or ex.descriptor != group:
                ex = element(group, ex)
            if type(c) is not Fraction:
                c = Fraction(c)
            prev = merged.get(ex)
            merged[ex] = c if prev is None else prev + c
        kept = [
            (ex, c)
            for ex, c in merged.items()
            if c != 0 and (precision is None or ex.compare(precision) < 0)
        ]
        kept.sort(key=_exponent)
        return cls(group, tuple(kept), precision)

    @classmethod
    def zero(cls, group) -> "Series":
        return cls(group, (), None)

    @classmethod
    def constant(cls, group, q) -> "Series":
        return cls.make(group, [(element(group, 0), Fraction(q))])

    @classmethod
    def one(cls, group) -> "Series":
        return cls.constant(group, 1)

    @classmethod
    def monomial(cls, group, exponent, coefficient=1) -> "Series":
        return cls.make(group, [(element(group, exponent), Fraction(coefficient))])

    # -- structure ---------------------------------------------------------

    def _check(self, other: "Series"):
        if self.group != other.group:
            raise DescriptorMismatch(
                f"series over {self.group} and {other.group} cannot be combined"
            )

    def is_exact_zero(self) -> bool:
        return not self.terms and self.precision is None

    def _v_lower(self) -> GroupElement:
        """A certified lower bound for the valuation (undefined on exact 0)."""
        if self.terms:
            return self.terms[0][0]
        return self.precision

    def leading_term(self) -> LeadingTerm:
        if self.terms:
            ex, c = self.terms[0]
            return LeadingTerm(ex, c)
        if self.precision is None:
            raise ZeroSeries("the zero series has no leading term")
        raise InsufficientPrecision(
            f"no terms known below the precision bound {self.precision}"
        )

    def v(self) -> GroupElement:
        return self.leading_term().valuation

    def coefficient_at(self, g) -> Fraction:
        g = element(self.group, g)
        if self.precision is not None and g.compare(self.precision) >= 0:
            raise InsufficientPrecision(
                f"coefficient at {g} is beyond the precision bound {self.precision}"
            )
        for ex, c in self.terms:
            if ex == g:
                return c
        return Fraction(0)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        self._check(other)
        precision = _pmin(self.precision, other.precision)
        terms = _merge(_cut(self.terms, precision), _cut(other.terms, precision))
        return _trusted(self.group, tuple(terms), precision)

    def __neg__(self) -> "Series":
        return _trusted(
            self.group, tuple((ex, -c) for ex, c in self.terms), self.precision
        )

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def scale(self, q) -> "Series":
        q = Fraction(q)
        if q == 0:
            return Series.zero(self.group)
        return _trusted(
            self.group, tuple((ex, q * c) for ex, c in self.terms), self.precision
        )

    def shift(self, g) -> "Series":
        """Multiply by the monomial t^g."""
        g = element(self.group, g)
        return _trusted(
            self.group,
            tuple((ex + g, c) for ex, c in self.terms),
            None if self.precision is None else self.precision + g,
        )

    def __mul__(self, other: "Series") -> "Series":
        return self._mul(other, None)

    def _mul(self, other: "Series", bound) -> "Series":
        """``(self * other).truncate_to(bound)``; ``bound=None`` gives the product.

        Each row of products ``ea + eb`` ascends with ``eb``, so a row stops
        at the first product at or past the result's precision and later
        rows start no lower.  The ascending rows are then merged pairwise,
        as a bottom-up merge sort would, so like exponents meet and collapse
        without hashing an exponent (a surreal exponent hashes a whole
        series).
        """
        self._check(other)
        if self.is_exact_zero() or other.is_exact_zero():
            return _trusted(self.group, (), bound)
        precision = None
        if self.precision is not None:
            precision = _pmin(precision, self.precision + other._v_lower())
        if other.precision is not None:
            precision = _pmin(precision, other.precision + self._v_lower())
        precision = _pmin(precision, bound)
        rows = []
        for ea, ca in self.terms:
            row = []
            for eb, cb in other.terms:
                ex = ea + eb
                if precision is not None and ex.compare(precision) >= 0:
                    break
                row.append((ex, ca * cb))
            if not row:
                break
            rows.append(row)
        while len(rows) > 1:
            merged = [_merge(rows[k], rows[k + 1]) for k in range(0, len(rows) - 1, 2)]
            if len(rows) % 2:
                merged.append(rows[-1])
            rows = merged
        return _trusted(self.group, tuple(rows[0]) if rows else (), precision)

    def truncate_to(self, p) -> "Series":
        precision = _pmin(self.precision, element(self.group, p))
        return _trusted(self.group, _cut(self.terms, precision), precision)

    def invert(self, target) -> "Series":
        """Inverse certified so that self * result is 1 below ``target``."""
        target = element(self.group, target)
        if not self.terms:
            if self.precision is None:
                raise DivisionByZero("cannot invert the zero series")
            raise InsufficientPrecision(
                "leading term unknown: no terms below the precision bound"
            )
        g, r = self.terms[0]
        if self.precision is not None and self.precision.compare(target + g) < 0:
            raise InsufficientPrecision(
                f"precision {self.precision} cannot certify an inverse to {target}"
            )
        unit = self.shift(-g).scale(1 / r)
        eps = unit - Series.one(self.group)
        if not eps.terms:
            inverse = Series.monomial(self.group, -g, 1 / r)
            if self.precision is None:
                return inverse
            return inverse.truncate_to(target - g)
        total = Series.one(self.group)
        neg_eps = -eps
        power = neg_eps.truncate_to(target)
        rounds = 0
        while power.terms:
            total = total + power
            power = power._mul(neg_eps, target)
            rounds += 1
            if rounds > 10000:
                # v(eps) is infinitesimal relative to the target class, so
                # the inverse has infinite support below the target.
                raise NonTerminating(
                    "geometric expansion does not reach the target precision"
                )
        result = total.scale(1 / r).shift(-g)
        precision = target - g
        return _trusted(self.group, _cut(result.terms, precision), precision)

    # -- order -------------------------------------------------------------

    def _difference_sign(self, other: "Series") -> tuple[int, GroupElement | None]:
        """Sign of the leading term of self - other below the joint
        precision (0 when there is none), and that joint precision.

        One walk over both term lists to the first exponent where they
        differ; the difference series itself is never built.
        """
        self._check(other)
        precision = _pmin(self.precision, other.precision)
        a, b = self.terms, other.terms
        i = j = 0
        while True:
            if i == len(a):
                if j == len(b):
                    return 0, precision
                ex, c = b[j]
                sign = -1 if c > 0 else 1
                break
            if j == len(b):
                ex, c = a[i]
                sign = 1 if c > 0 else -1
                break
            (ex, ca), (eb, cb) = a[i], b[j]
            order = ex.compare(eb)
            if order < 0:
                sign = 1 if ca > 0 else -1
                break
            if order > 0:
                ex, sign = eb, -1 if cb > 0 else 1
                break
            if ca != cb:
                sign = 1 if ca > cb else -1
                break
            i += 1
            j += 1
        if precision is not None and ex.compare(precision) >= 0:
            return 0, precision
        return sign, precision

    def compare(self, other: "Series") -> int:
        """Sign of self - other; raises when truncation hides the answer."""
        sign, precision = self._difference_sign(other)
        if sign or precision is None:
            return sign
        raise InsufficientPrecision(
            f"difference vanishes below {precision} but the inputs are inexact"
        )

    def sign(self) -> int:
        return self.compare(Series.zero(self.group))

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def agrees(self, other: "Series") -> bool:
        """True when the two series coincide below their joint precision."""
        return not self._difference_sign(other)[0]

    def __str__(self):
        from .parsing import format_series  # lazy: avoids an import cycle

        return format_series(self)


# -- operation-style aliases ------------------------------------------------

_ORDER_SYMBOL = {-1: "<", 0: "=", 1: ">"}


def series_invert(s: Series, target_precision) -> Series:
    return s.invert(target_precision)


def leading_term(s: Series) -> LeadingTerm:
    return s.leading_term()


def series_compare(a: Series, b: Series) -> str:
    return _ORDER_SYMBOL[a.compare(b)]


def coefficient_at(s: Series, g) -> Fraction:
    return s.coefficient_at(g)


def truncate_to(s: Series, p) -> Series:
    return s.truncate_to(p)
