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

Descriptors are interned: ``lex_power(n)``, ``surreal_depth(d)`` and
``exponent_group`` return one shared instance per argument, so the
descriptor checks on the hot paths test identity first.  Identity is only
a shortcut: dataclass equality still decides, so elements over an equal
descriptor built directly with ``GroupDescriptor(...)`` combine as before.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul, truediv
from typing import Iterable, NamedTuple, Sequence

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
    def rank_one(self) -> bool:
        """Whether this is Z or Q, the rank-one kinds whose elements are
        single rationals (``int`` or ``Fraction`` values).  ``lex_power(1)``
        is rank one as a group too, but its values are 1-tuples and it
        takes the general paths."""
        return self.kind in ("Integers", "Rationals")

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
        return surreal_depth(self.param - 1)

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


@functools.cache
def lex_power(n: int) -> GroupDescriptor:
    return GroupDescriptor("LexPower", n)


@functools.cache
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
        mine, theirs = self.descriptor, other.descriptor
        if mine is not theirs and mine != theirs:
            raise DescriptorMismatch(f"cannot combine {mine} with {theirs}")

    def is_zero(self) -> bool:
        if self.descriptor.kind == "LexPower":
            return all(c == 0 for c in self.value)
        if self.descriptor.kind == "SurrealDepth" and self.descriptor.param >= 1:
            return not self.value.terms
        return self.value == 0

    def __add__(self, other: "GroupElement") -> "GroupElement":
        desc = self.descriptor
        if desc is not other.descriptor:
            self._check(other)
        a, b = self.value, other.value
        if desc.kind == "LexPower":
            val = tuple(x + y for x, y in zip(a, b))
        else:
            val = a + b
        return GroupElement(desc, val)

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
        desc = self.descriptor
        if desc is not other.descriptor:
            self._check(other)
        a, b = self.value, other.value
        kind = desc.kind
        # Signs of integer cross products: exact, and cheaper than rich
        # comparisons of two Fractions.
        if kind == "LexPower":
            for x, y in zip(a, b):
                d = x.numerator * y.denominator - y.numerator * x.denominator
                if d:
                    return 1 if d > 0 else -1
            return 0
        if kind == "SurrealDepth" and desc.param >= 1:
            return a.compare(b)
        d = a.numerator * b.denominator - b.numerator * a.denominator
        return (d > 0) - (d < 0)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __str__(self):
        from .parsing import format_group_element  # lazy: avoids an import cycle

        return format_group_element(self)


def zero(descriptor: GroupDescriptor) -> GroupElement:
    return embed_rational(descriptor, 0)


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
        return GroupElement(descriptor, Fraction(0))
    from .series import Series

    return GroupElement(descriptor, Series.constant(descriptor.exponent_group, q))


def element(descriptor: GroupDescriptor, raw) -> GroupElement:
    """Coerce a raw value (int, Fraction, tuple, Series) into the group."""
    if isinstance(raw, GroupElement):
        if raw.descriptor is not descriptor and raw.descriptor != descriptor:
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
            inner = descriptor.exponent_group
            if raw.group is not inner and raw.group != inner:
                raise DescriptorMismatch(
                    f"series over {raw.group} is not a {descriptor} element"
                )
            if raw.precision is not None:
                raise DomainError("group elements must be exact series")
            return GroupElement(descriptor, raw)
    return embed_rational(descriptor, raw)


_ORDER_SYMBOL = {-1: "<", 0: "=", 1: ">"}


def arch_compare(g: GroupElement, h: GroupElement) -> str:
    """Compare the archimedean classes v_G(g) and v_G(h).

    ``<`` means |g| dominates every natural multiple of |h|.
    """
    g._check(h)
    if g.is_zero() or h.is_zero():
        raise ZeroArgument("the natural valuation is undefined at 0")
    if g.descriptor.rank_one:
        return "="
    if g.descriptor.kind == "LexPower":
        ig = min(i for i, c in enumerate(g.value) if c != 0)
        ih = min(i for i, c in enumerate(h.value) if c != 0)
        return _ORDER_SYMBOL[(ig > ih) - (ig < ih)]
    eg = g.value.terms[0][0]
    eh = h.value.terms[0][0]
    return _ORDER_SYMBOL[eg.compare(eh)]


# -- exact rational linear algebra -----------------------------------------


def _exponent_index(elements: Sequence[GroupElement]) -> dict | None:
    """Each exponent of self-similar ``elements``, ascending, to its
    coordinate position; None for the other kinds, whose coordinates are
    fixed."""
    desc = elements[0].descriptor
    if desc.kind != "SurrealDepth" or desc.param == 0:
        return None
    keys = sorted({ex for e in elements for ex, _ in e.value.terms})
    return {k: i for i, k in enumerate(keys)}


def _coordinates(
    elements: Sequence[GroupElement], index: dict | None = None
) -> list[list[Fraction] | None]:
    """Coordinate vectors of elements w.r.t. a common finite Q-basis.

    A self-similar element's coordinates are its coefficients at the
    exponents ``index`` numbers, by default at every exponent of
    ``elements``; an element with an exponent outside ``index`` has none,
    and gets None.
    """
    desc = elements[0].descriptor
    if desc.rank_one:
        return [[Fraction(e.value)] for e in elements]
    if desc.kind == "LexPower":
        return [list(e.value) for e in elements]
    if desc.param == 0:
        return [[Fraction(0)] for _ in elements]
    if index is None:
        index = _exponent_index(elements)
    vecs = []
    for e in elements:
        row = [Fraction(0)] * len(index)
        for ex, c in e.value.terms:
            i = index.get(ex)
            if i is None:
                row = None
                break
            row[i] = c
        vecs.append(row)
    return vecs


def _solve_linear(
    columns: Sequence[Sequence[Fraction]],
    targets: Sequence[Sequence[Fraction]] = (),
) -> tuple[bool, list[list[Fraction] | None]]:
    """Gauss-Jordan elimination over Q on nonempty, equal-length columns.

    Solves sum_i x_i * columns[i] = target for every target at once and
    returns ``(independent, solutions)``: whether the columns are
    Q-linearly independent, and one solution per target, ``None`` where
    the target is outside their span.  When the columns are dependent an
    arbitrary solution is returned; callers that need uniqueness check
    ``independent``.
    """
    n = len(columns)
    rows = [list(row) for row in zip(*columns, *targets)]
    m = len(rows)
    pivots = []
    for c in range(n):
        r = len(pivots)
        pivot = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        if len(pivots) == m:
            break
    rank = len(pivots)
    solutions = []
    for k in range(n, n + len(targets)):
        if any(row[k] != 0 for row in rows[rank:]):
            solutions.append(None)
            continue
        solution = [Fraction(0)] * n
        for i, c in enumerate(pivots):
            solution[c] = rows[i][k]
        solutions.append(solution)
    return rank == n, solutions


class _Span(NamedTuple):
    """The Q-span of an independent basis, derived once for every
    evaluation: ``index`` numbers the basis exponents of a self-similar
    kind (None for the other kinds), ``columns`` are the basis coordinate
    vectors as columns, and ``duals`` is the dual basis:
    ``duals[i] . coordinates(basis[j])`` is 1 when ``i == j`` and 0
    otherwise."""

    index: dict | None
    columns: list
    duals: tuple


def _span_of(basis: Sequence[GroupElement]) -> _Span | None:
    """The span of ``basis``, or None when the basis is Q-linearly
    dependent."""
    if not basis:
        return _Span(None, [], ())
    index = _exponent_index(basis)
    columns = list(zip(*_coordinates(basis, index)))
    # With the coordinates as columns, the unit vectors are all solvable
    # exactly when the basis is independent.
    n = len(basis)
    units = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    _, duals = _solve_linear(columns, units)
    if None in duals:
        return None
    return _Span(index, columns, tuple(map(tuple, duals)))


def _span_coefficients(span: _Span, g: GroupElement) -> list[Fraction] | None:
    """The coefficients of ``g`` over the independent, nonempty basis of
    ``span``, or None when ``g`` is outside its Q-span."""
    (vector,) = _coordinates([g], span.index)
    if vector is None:
        return None  # an exponent no basis element has
    # The duals give the only candidate coefficients, and g is in the span
    # exactly when they rebuild it; a basis with as many elements as
    # coordinates spans them all.
    coeffs = [functools.reduce(add, map(mul, dual, vector)) for dual in span.duals]
    if len(coeffs) == len(vector) or vector == [
        functools.reduce(add, map(mul, coeffs, column)) for column in span.columns
    ]:
        return coeffs
    return None


# -- Q-linear functionals ---------------------------------------------------


@dataclass(frozen=True)
class LinearFunctional:
    """A Q-linear map into the rationals, stored on a finite generator list.

    Evaluation extends Q-linearly over the span of the generators;
    elements outside the span are rejected rather than guessed.
    """

    descriptor: GroupDescriptor
    generators: tuple[tuple[GroupElement, Fraction], ...]
    # the span of the generators, derived once from ``generators``
    _span: _Span = field(init=False, compare=False, repr=False)
    # on Z and Q, ``v / g`` for the one generator ``(g, v)``, so that
    # ``phi(h) = h.value * _slope``; None off rank one or with no generator
    _slope: Fraction | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        gens = tuple(
            (element(self.descriptor, g), Fraction(v)) for g, v in self.generators
        )
        object.__setattr__(self, "generators", gens)
        # A self-similar generator is an exact series with finite support,
        # so its rank does not change when more exponents are touched:
        # independence is decided here for every kind.
        span = _span_of([g for g, _ in gens])
        if span is None:
            raise DomainError("functional generators are Q-linearly dependent")
        object.__setattr__(self, "_span", span)
        slope = None
        if self.descriptor.rank_one and gens:
            # independence leaves exactly one, nonzero, generator here
            ((gen, v),) = gens
            slope = v / gen.value
        object.__setattr__(self, "_slope", slope)

    def __call__(self, g: GroupElement) -> Fraction:
        g = element(self.descriptor, g)
        if g.is_zero():
            return Fraction(0)
        if not self.generators:
            raise OutsideSpan(f"{g} is outside the span of an empty generator list")
        if self._slope is not None:
            return g.value * self._slope
        coeffs = _span_coefficients(self._span, g)
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
    if descriptor.rank_one:
        if len(values) != 1:
            raise DomainError("one value expected for a rank-one group")
        return LinearFunctional(
            descriptor, ((embed_rational(descriptor, 1), values[0]),)
        )
    if descriptor.kind == "LexPower":
        if len(values) != descriptor.param:
            raise DomainError(f"{descriptor.param} values expected")
        n = descriptor.param
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        return LinearFunctional(descriptor, tuple(zip(units, values)))
    raise DomainError(f"no standard generators for {descriptor}")


def scaling_functional(descriptor: GroupDescriptor, q) -> LinearFunctional:
    """g |-> q*g on a rank-one group; q = 1 gives the identity functional."""
    return standard_functional(descriptor, [q])


# -- value-group maps --------------------------------------------------------
#
# A value-group map is anything with ``descriptor``, ``forward`` and
# ``backward``: a strictly order-preserving bijection and its exact inverse.
# The ``tau`` of ``ExternalField`` and ``Theta`` must also be additive (a
# scalar, a matrix or a composite of them); the ``zeta`` of ``ExternalGroup``
# and ``TauBuild`` need only be monotone.


@dataclass(frozen=True)
class Translation:
    offset: GroupElement

    @property
    def descriptor(self):
        return self.offset.descriptor

    def forward(self, g):
        return g + self.offset

    def backward(self, g):
        return g - self.offset


@dataclass(frozen=True)
class PiecewiseLinear:
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

    def _walk(self, x, xs, ys, step):
        """The piece of ``xs`` holding ``x``, mapped onto ``ys``: ``mul``
        by its slope runs forward, ``truediv`` backward."""
        i = bisect.bisect_right(xs, x)
        j = max(i - 1, 0)
        return GroupElement(RATIONALS, ys[j] + step(x - xs[j], self.slopes[i]))

    def forward(self, g):
        return self._walk(g.value, self.breakpoints, self._values, mul)

    def backward(self, g):
        return self._walk(g.value, self._values, self.breakpoints, truediv)


@dataclass(frozen=True)
class PositiveScalar:
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
class TriangularMatrix:
    """Rational matrix on a lex power, triangular in the dominance direction.

    The image of each standard generator must have its first nonzero
    component on the generator's own coordinate, with positive value; this
    is exactly order preservation for the lex order and forces
    invertibility.
    """

    descriptor: GroupDescriptor
    entries: tuple[tuple[Fraction, ...], ...]

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

    def forward(self, g):
        return GroupElement(
            self.descriptor,
            tuple(sum(map(mul, row, g.value), Fraction(0)) for row in self.entries),
        )

    def backward(self, g):
        """Forward substitution: row i is zero right of its diagonal."""
        x = []
        for row, y in zip(self.entries, g.value):
            x.append((y - sum(map(mul, row, x), Fraction(0))) / row[len(x)])
        return GroupElement(self.descriptor, tuple(x))


@dataclass(frozen=True)
class Composite:
    """Composition: the first listed map is applied last; additive if every part is."""

    parts: tuple

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


def identity_map(descriptor: GroupDescriptor) -> PositiveScalar:
    """The identity, which is additive: it serves as ``tau`` and as ``zeta``."""
    return PositiveScalar(descriptor, Fraction(1))
