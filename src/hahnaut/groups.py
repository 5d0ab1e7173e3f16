"""Pluggable ordered abelian value groups.

Four concrete kinds stand in for the exponent group of the series field:

* ``Integers`` -- the ordered group of integers,
* ``Rationals`` -- the ordered group of rationals,
* ``LexPower(n)`` -- n-fold lexicographic power of the rationals,
* ``SurrealDepth(d)`` -- a bounded-depth self-similar kind whose nonzero
  elements are exact series one level down (depth 1 uses rational
  exponents, depth 0 is the trivial group).

All elements are immutable and all operations are pure.  On top of the
group operations the module provides the natural (archimedean) valuation
comparison, finitely generated Q-linear functionals into the rationals,
strictly order-preserving bijections, and additive order-preserving
automorphisms with exact rational inverses.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DescriptorMismatch,
    DomainError,
    InvalidMap,
    OutsideSpan,
    ZeroArgument,
)

_KINDS = ("Integers", "Rationals", "LexPower", "SurrealDepth")


@dataclass(frozen=True)
class GroupDescriptor:
    """Identifies one of the supported value groups."""

    kind: str
    param: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown group kind {self.kind!r}")
        if self.kind == "LexPower" and self.param < 1:
            raise DomainError("LexPower arity must be >= 1")
        if self.kind == "SurrealDepth" and self.param < 0:
            raise DomainError("SurrealDepth depth must be >= 0")

    @property
    def exponent_group(self) -> "GroupDescriptor":
        """Group the exponents of a depth-d element live in (d >= 1).

        Depth 1 bottoms out at the rationals so that depth-1 elements are
        ordinary series with rational exponents.
        """
        if self.kind != "SurrealDepth" or self.param < 1:
            raise DomainError(f"{self} has no exponent group")
        if self.param == 1:
            return RATIONALS
        return GroupDescriptor("SurrealDepth", self.param - 1)

    def __str__(self):
        if self.kind == "Integers":
            return "Z"
        if self.kind == "Rationals":
            return "Q"
        if self.kind == "LexPower":
            return f"lex{self.param}"
        return f"surreal{self.param}"


INTEGERS = GroupDescriptor("Integers")
RATIONALS = GroupDescriptor("Rationals")


def lex_power(n: int) -> GroupDescriptor:
    return GroupDescriptor("LexPower", n)


def surreal_depth(d: int) -> GroupDescriptor:
    return GroupDescriptor("SurrealDepth", d)


@functools.total_ordering
@dataclass(frozen=True)
class GroupElement:
    """An element of one of the value groups.

    ``value`` is an ``int`` (Integers), ``Fraction`` (Rationals and the
    trivial SurrealDepth(0)), tuple of ``Fraction`` (LexPower), or an exact
    ``Series`` over the one-level-down group (SurrealDepth, depth >= 1).
    """

    descriptor: GroupDescriptor
    value: object

    def _check(self, other: "GroupElement"):
        if self.descriptor != other.descriptor:
            raise DescriptorMismatch(
                f"cannot combine {self.descriptor} with {other.descriptor}"
            )

    def is_zero(self) -> bool:
        if self.descriptor.kind == "LexPower":
            return all(c == 0 for c in self.value)
        if self.descriptor.kind == "SurrealDepth" and self.descriptor.param >= 1:
            return not self.value.terms
        return self.value == 0

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        kind = self.descriptor.kind
        if kind == "LexPower":
            val = tuple(a + b for a, b in zip(self.value, other.value))
        else:
            val = self.value + other.value
        return GroupElement(self.descriptor, val)

    def __neg__(self) -> "GroupElement":
        kind = self.descriptor.kind
        if kind == "LexPower":
            val = tuple(-a for a in self.value)
        else:
            val = -self.value
        return GroupElement(self.descriptor, val)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def scale(self, q: Fraction) -> "GroupElement":
        """Multiply by a rational scalar (Q-vector-space action)."""
        q = Fraction(q)
        kind = self.descriptor.kind
        if kind == "Integers":
            scaled = q * self.value
            if scaled.denominator != 1:
                raise InvalidMap(f"{q} * {self.value} is not an integer")
            return GroupElement(self.descriptor, int(scaled))
        if kind == "Rationals":
            return GroupElement(self.descriptor, q * self.value)
        if kind == "LexPower":
            return GroupElement(self.descriptor, tuple(q * c for c in self.value))
        if self.descriptor.param == 0:
            return self
        return GroupElement(self.descriptor, self.value.scale(q))

    def compare(self, other: "GroupElement") -> int:
        self._check(other)
        kind = self.descriptor.kind
        if kind == "LexPower":
            a, b = self.value, other.value
            return (a > b) - (a < b)
        if kind == "SurrealDepth" and self.descriptor.param >= 1:
            return self.value.compare(other.value)
        return (self.value > other.value) - (self.value < other.value)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __str__(self):
        from .parsing import format_group_element  # lazy: avoids an import cycle

        return format_group_element(self)


def zero(descriptor: GroupDescriptor) -> GroupElement:
    kind = descriptor.kind
    if kind == "Integers":
        return GroupElement(descriptor, 0)
    if kind == "Rationals":
        return GroupElement(descriptor, Fraction(0))
    if kind == "LexPower":
        return GroupElement(descriptor, (Fraction(0),) * descriptor.param)
    if descriptor.param == 0:
        return GroupElement(descriptor, Fraction(0))
    from .series import Series

    return GroupElement(descriptor, Series.zero(descriptor.exponent_group))


def embed_rational(descriptor: GroupDescriptor, q) -> GroupElement:
    """Canonical embedding of a rational along the dominant direction."""
    q = Fraction(q)
    kind = descriptor.kind
    if kind == "Integers":
        if q.denominator != 1:
            raise DomainError(f"{q} is not an integer")
        return GroupElement(descriptor, int(q))
    if kind == "Rationals":
        return GroupElement(descriptor, q)
    if kind == "LexPower":
        return GroupElement(
            descriptor, (q,) + (Fraction(0),) * (descriptor.param - 1)
        )
    if descriptor.param == 0:
        if q != 0:
            raise DomainError("the trivial group only contains 0")
        return zero(descriptor)
    from .series import Series

    return GroupElement(descriptor, Series.constant(descriptor.exponent_group, q))


def element(descriptor: GroupDescriptor, raw) -> GroupElement:
    """Coerce a raw value (int, Fraction, tuple, Series) into the group."""
    if isinstance(raw, GroupElement):
        if raw.descriptor != descriptor:
            raise DescriptorMismatch(f"expected {descriptor}, got {raw.descriptor}")
        return raw
    kind = descriptor.kind
    if kind == "LexPower":
        if isinstance(raw, (int, Fraction)):
            return embed_rational(descriptor, raw)
        vals = tuple(Fraction(c) for c in raw)
        if len(vals) != descriptor.param:
            raise DomainError(
                f"expected {descriptor.param} components, got {len(vals)}"
            )
        return GroupElement(descriptor, vals)
    if kind == "SurrealDepth" and descriptor.param >= 1:
        from .series import Series

        if isinstance(raw, Series):
            if raw.group != descriptor.exponent_group:
                raise DescriptorMismatch(
                    f"series over {raw.group} is not a {descriptor} element"
                )
            if raw.precision is not None:
                raise DomainError("group elements must be exact series")
            return GroupElement(descriptor, raw)
        return embed_rational(descriptor, raw)
    return embed_rational(descriptor, raw)


def group_add(a: GroupElement, b: GroupElement, negate: bool = False) -> GroupElement:
    """a + b, or a - b when the negate flag is set."""
    return a - b if negate else a + b


_ORDER_SYMBOL = {-1: "<", 0: "=", 1: ">"}


def group_compare(a: GroupElement, b: GroupElement) -> str:
    return _ORDER_SYMBOL[a.compare(b)]


def arch_compare(g: GroupElement, h: GroupElement) -> str:
    """Compare the archimedean classes v_G(g) and v_G(h).

    ``<`` means |g| dominates every natural multiple of |h|.
    """
    g._check(h)
    if g.is_zero() or h.is_zero():
        raise ZeroArgument("the natural valuation is undefined at 0")
    kind = g.descriptor.kind
    if kind in ("Integers", "Rationals"):
        return "="
    if kind == "LexPower":
        ig = min(i for i, c in enumerate(g.value) if c != 0)
        ih = min(i for i, c in enumerate(h.value) if c != 0)
        return _ORDER_SYMBOL[(ig > ih) - (ig < ih)]
    eg = g.value.terms[0][0]
    eh = h.value.terms[0][0]
    return _ORDER_SYMBOL[eg.compare(eh)]


# -- exact rational linear algebra -----------------------------------------


def _coordinates(elements: Sequence[GroupElement]) -> list[list[Fraction]]:
    """Coordinate vectors of elements w.r.t. a common finite Q-basis."""
    desc = elements[0].descriptor
    kind = desc.kind
    if kind in ("Integers", "Rationals"):
        return [[Fraction(e.value)] for e in elements]
    if kind == "LexPower":
        return [list(e.value) for e in elements]
    if desc.param == 0:
        return [[Fraction(0)] for _ in elements]
    keys: list[GroupElement] = sorted(
        {ex for e in elements for ex, _ in e.value.terms}
    )
    index = {k: i for i, k in enumerate(keys)}
    vecs = []
    for e in elements:
        row = [Fraction(0)] * len(keys)
        for ex, c in e.value.terms:
            row[index[ex]] = c
        vecs.append(row)
    return vecs


def _solve_linear(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> list[Fraction] | None:
    """Solve sum_i x_i * columns[i] = target over Q, or None if inconsistent.

    When the columns are dependent an arbitrary solution is returned; the
    callers that need uniqueness check independence first.
    """
    n = len(columns)
    m = len(target)
    rows = [[columns[j][i] for j in range(n)] + [target[i]] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if rows[i][n] != 0:
            return None
    solution = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        solution[c] = rows[i][n]
    return solution


def _independent(columns: Sequence[Sequence[Fraction]]) -> bool:
    if not columns:
        return True
    m = len(columns[0])
    rows = [[col[i] for col in columns] for i in range(m)]
    rank = 0
    n = len(columns)
    for c in range(n):
        pivot = next((i for i in range(rank, m) if rows[i][c] != 0), None)
        if pivot is None:
            return False
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(m):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank == n


# -- Q-linear functionals ---------------------------------------------------


@dataclass(frozen=True)
class LinearFunctional:
    """A Q-linear map into the rationals, stored on a finite generator list.

    Evaluation extends Q-linearly over the span of the generators;
    elements outside the span are rejected rather than guessed.
    """

    descriptor: GroupDescriptor
    generators: tuple[tuple[GroupElement, Fraction], ...]

    def __post_init__(self):
        gens = tuple(
            (element(self.descriptor, g), Fraction(v)) for g, v in self.generators
        )
        object.__setattr__(self, "generators", gens)
        # For the self-similar kind independence is only decidable on the
        # finite exponent set actually touched; it is checked at evaluation.
        if self.descriptor.kind != "SurrealDepth" and gens:
            if not _independent(_coordinates([g for g, _ in gens])):
                raise DomainError("functional generators are Q-linearly dependent")

    def __call__(self, g: GroupElement) -> Fraction:
        g = element(self.descriptor, g)
        if g.is_zero():
            return Fraction(0)
        if not self.generators:
            raise OutsideSpan(f"{g} is outside the span of an empty generator list")
        vectors = _coordinates([gen for gen, _ in self.generators] + [g])
        columns, target = vectors[:-1], vectors[-1]
        if self.descriptor.kind == "SurrealDepth" and not _independent(columns):
            raise DomainError(
                "functional generators are dependent on the touched exponents"
            )
        coeffs = _solve_linear(columns, target)
        if coeffs is None:
            raise OutsideSpan(f"{g} is not in the Q-span of the generators")
        return sum(
            (q * v for q, (_, v) in zip(coeffs, self.generators)), Fraction(0)
        )

    def negated(self) -> "LinearFunctional":
        return LinearFunctional(
            self.descriptor, tuple((g, -v) for g, v in self.generators)
        )


def standard_functional(
    descriptor: GroupDescriptor, values: Iterable
) -> LinearFunctional:
    """Functional on the standard generators (1, or the lex unit vectors)."""
    values = [Fraction(v) for v in values]
    kind = descriptor.kind
    if kind in ("Integers", "Rationals"):
        if len(values) != 1:
            raise DomainError("one value expected for a rank-one group")
        return LinearFunctional(
            descriptor, ((embed_rational(descriptor, 1), values[0]),)
        )
    if kind == "LexPower":
        if len(values) != descriptor.param:
            raise DomainError(f"{descriptor.param} values expected")
        gens = []
        for i, v in enumerate(values):
            unit = tuple(
                Fraction(1 if j == i else 0) for j in range(descriptor.param)
            )
            gens.append((GroupElement(descriptor, unit), v))
        return LinearFunctional(descriptor, tuple(gens))
    raise DomainError(f"no standard generators for {descriptor}")


def scaling_functional(descriptor: GroupDescriptor, q) -> LinearFunctional:
    """g |-> q*g on a rank-one group; q = 1 gives the identity functional."""
    return standard_functional(descriptor, [q])


def eval_functional(phi: LinearFunctional, g: GroupElement) -> Fraction:
    return phi(g)


# -- strictly order-preserving bijections ----------------------------------


class _Bijection:
    """Shared forward/backward dispatch for monotone maps and automorphisms."""

    def forward(self, g: GroupElement) -> GroupElement:
        raise NotImplementedError

    def backward(self, g: GroupElement) -> GroupElement:
        raise NotImplementedError

    def apply(self, g: GroupElement, direction: str = "forward") -> GroupElement:
        g = element(self.descriptor, g)
        if direction == "forward":
            return self.forward(g)
        if direction == "inverse":
            return self.backward(g)
        raise DomainError(f"unknown direction {direction!r}")


class MonotoneMap(_Bijection):
    """A strictly order-preserving bijection of the group."""


@dataclass(frozen=True)
class Translation(MonotoneMap):
    offset: GroupElement

    @property
    def descriptor(self):
        return self.offset.descriptor

    def forward(self, g):
        return g + self.offset

    def backward(self, g):
        return g - self.offset


@dataclass(frozen=True)
class PiecewiseLinear(MonotoneMap):
    """Continuous piecewise-affine bijection of the rationals.

    ``slopes[0]`` applies left of the first breakpoint, ``slopes[i]`` on
    ``[breakpoints[i-1], breakpoints[i])`` and ``slopes[-1]`` to the right;
    ``anchor`` is the value at the first breakpoint.  Continuity holds by
    construction, so bijectivity reduces to all slopes being positive.
    """

    breakpoints: tuple[Fraction, ...]
    slopes: tuple[Fraction, ...]
    anchor: Fraction = Fraction(0)
    # values at the breakpoints, derived once from the fields above
    _values: tuple[Fraction, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        breaks = tuple(Fraction(b) for b in self.breakpoints)
        slopes = tuple(Fraction(s) for s in self.slopes)
        object.__setattr__(self, "breakpoints", breaks)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "anchor", Fraction(self.anchor))
        if not breaks:
            raise InvalidMap("piecewise map needs at least one breakpoint")
        if any(b >= c for b, c in zip(breaks, breaks[1:])):
            raise InvalidMap("breakpoints must be strictly increasing")
        if len(slopes) != len(breaks) + 1:
            raise InvalidMap("need one more slope than breakpoints")
        if any(s <= 0 for s in slopes):
            raise InvalidMap("all slopes must be positive")
        vals = [self.anchor]
        for i in range(1, len(breaks)):
            vals.append(vals[-1] + slopes[i] * (breaks[i] - breaks[i - 1]))
        object.__setattr__(self, "_values", tuple(vals))

    @property
    def descriptor(self):
        return RATIONALS

    def forward(self, g):
        x = g.value
        breaks = self.breakpoints
        vals = self._values
        i = bisect.bisect_right(breaks, x) - 1
        if i < 0:
            y = vals[0] + self.slopes[0] * (x - breaks[0])
        else:
            y = vals[i] + self.slopes[i + 1] * (x - breaks[i])
        return GroupElement(RATIONALS, y)

    def backward(self, g):
        y = g.value
        breaks = self.breakpoints
        vals = self._values
        i = bisect.bisect_right(vals, y) - 1
        if i < 0:
            x = breaks[0] + (y - vals[0]) / self.slopes[0]
        else:
            x = breaks[i] + (y - vals[i]) / self.slopes[i + 1]
        return GroupElement(RATIONALS, x)


@dataclass(frozen=True)
class MonotoneComposite(MonotoneMap):
    """Function composition: the first listed map is applied last."""

    parts: tuple[MonotoneMap, ...]

    def __post_init__(self):
        if not self.parts:
            raise InvalidMap("empty composite")
        descs = {p.descriptor for p in self.parts}
        if len(descs) != 1:
            raise DescriptorMismatch("composite parts live on different groups")

    @property
    def descriptor(self):
        return self.parts[0].descriptor

    def forward(self, g):
        for p in reversed(self.parts):
            g = p.forward(g)
        return g

    def backward(self, g):
        for p in self.parts:
            g = p.backward(g)
        return g


def identity_map(descriptor: GroupDescriptor) -> MonotoneMap:
    return Translation(zero(descriptor))


def apply_monotone_map(
    zeta: MonotoneMap, g: GroupElement, direction: str = "forward"
) -> GroupElement:
    return zeta.apply(g, direction)


# -- additive order-preserving automorphisms -------------------------------


class AdditiveAutomorphism(_Bijection):
    """An additive, order-preserving automorphism with exact inverse."""


@dataclass(frozen=True)
class PositiveScalar(AdditiveAutomorphism):
    descriptor: GroupDescriptor
    factor: Fraction

    def __post_init__(self):
        object.__setattr__(self, "factor", Fraction(self.factor))
        if self.factor <= 0:
            raise InvalidMap("scaling by a non-positive factor reverses order")
        if self.descriptor.kind == "Integers" and self.factor != 1:
            raise InvalidMap("the integers admit only the identity scaling")

    def forward(self, g):
        return g.scale(self.factor)

    def backward(self, g):
        return g.scale(1 / self.factor)


@dataclass(frozen=True)
class TriangularMatrix(AdditiveAutomorphism):
    """Rational matrix on a lex power, triangular in the dominance direction.

    The image of each standard generator must have its first nonzero
    component on the generator's own coordinate, with positive value; this
    is exactly order preservation for the lex order and forces
    invertibility.
    """

    descriptor: GroupDescriptor
    entries: tuple[tuple[Fraction, ...], ...]
    # rows of the inverse matrix, derived once from ``entries``
    _inverse: tuple[tuple[Fraction, ...], ...] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if self.descriptor.kind != "LexPower":
            raise InvalidMap("matrix automorphisms only act on lex powers")
        n = self.descriptor.param
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise InvalidMap(f"expected a {n}x{n} matrix")
        for j in range(n):
            if rows[j][j] <= 0:
                raise InvalidMap("diagonal entries must be positive")
            for i in range(j):
                if rows[i][j] != 0:
                    raise InvalidMap(
                        "a generator image must not touch more dominant coordinates"
                    )
        object.__setattr__(self, "_inverse", self._inverse_rows())

    def _mat_apply(self, rows, vec):
        return tuple(
            sum((r * c for r, c in zip(row, vec)), Fraction(0)) for row in rows
        )

    def _inverse_rows(self):
        n = self.descriptor.param
        aug = [
            list(self.entries[i]) + [Fraction(1 if j == i else 0) for j in range(n)]
            for i in range(n)
        ]
        for c in range(n):
            inv = 1 / aug[c][c]
            aug[c] = [x * inv for x in aug[c]]
            for i in range(n):
                if i != c and aug[i][c] != 0:
                    f = aug[i][c]
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
        return tuple(tuple(row[n:]) for row in aug)

    def forward(self, g):
        return GroupElement(self.descriptor, self._mat_apply(self.entries, g.value))

    def backward(self, g):
        return GroupElement(
            self.descriptor, self._mat_apply(self._inverse, g.value)
        )


@dataclass(frozen=True)
class AdditiveComposite(AdditiveAutomorphism):
    parts: tuple[AdditiveAutomorphism, ...]

    def __post_init__(self):
        if not self.parts:
            raise InvalidMap("empty composite")
        descs = {p.descriptor for p in self.parts}
        if len(descs) != 1:
            raise DescriptorMismatch("composite parts live on different groups")

    @property
    def descriptor(self):
        return self.parts[0].descriptor

    def forward(self, g):
        for p in reversed(self.parts):
            g = p.forward(g)
        return g

    def backward(self, g):
        for p in self.parts:
            g = p.backward(g)
        return g


def identity_automorphism(descriptor: GroupDescriptor) -> AdditiveAutomorphism:
    return PositiveScalar(descriptor, Fraction(1))


def apply_additive_automorphism(
    tau: AdditiveAutomorphism, g: GroupElement, direction: str = "forward"
) -> GroupElement:
    return tau.apply(g, direction)
