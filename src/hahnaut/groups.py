"""Pluggable ordered abelian value groups.

Four concrete kinds stand in for the exponent group of the series field:

* ``Integers`` -- the ordered group of integers,
* ``Rationals`` -- the ordered group of rationals,
* ``LexPower(n)`` -- n-fold lexicographic power of the rationals,
* ``SurrealDepth(d)`` -- a bounded-depth self-similar kind whose nonzero
  elements are exact series one level down (depth 1 uses rational
  exponents, depth 0 is the trivial group).

All elements are immutable and all operations are pure.  Surreal
elements are ordered by ``first_difference``, the one exact walk over two
ascending term tuples, which also serves the order of series.  On top of
the group operations the module provides the natural (archimedean)
valuation comparison, finitely generated Q-linear functionals into the
rationals, strictly order-preserving bijections, and additive
order-preserving automorphisms with exact rational inverses.

Every value type of the package is a ``Record``: immutable, with
equality, hash and repr read from its fields, and defined without
generating code, so that importing the package stays cheap.

There is one descriptor per group: ``GroupDescriptor(kind, param)``,
``lex_power``, ``surreal_depth``, ``exponent_group``, ``copy`` and
``pickle`` all return its one shared instance.  Descriptors compare and
hash by identity, so every "same group?" check is one ``is`` test.
"""

from __future__ import annotations

import bisect
import functools
from fractions import Fraction
from operator import attrgetter, mul, truediv
from typing import Iterable, Sequence

from .errors import (
    DescriptorMismatch,
    DomainError,
    InvalidMap,
    OutsideSpan,
    ZeroArgument,
)

_KINDS = ("Integers", "Rationals", "LexPower", "SurrealDepth")
_MAX_LEX_ARITY = 2**20  # a lexN element is an N-tuple: a larger N exhausts memory
# the deepest the parser nests brackets, at up to 8 frames a level well inside
# a recursion limit of 1000; surrealD text nests D levels, " (mod ...)" one more
MAX_NESTING = 100
_SHARED: dict = {}  # (kind, param) -> the group's one GroupDescriptor

_setfield = object.__setattr__  # how a Record sets its own fields


class Record:
    """Base of the package's immutable value types; it generates no code.

    A subclass's fields are its annotated names without a leading ``_``,
    in order, and a field's default is the class attribute of that name.
    ``__init__`` takes the fields by position or keyword, then runs
    ``__post_init__``, which may coerce them or derive ``_`` attributes
    with ``object.__setattr__``.  Two records are equal when they are of
    one class with equal fields, and a record hashes as the tuple of its
    fields, unless its class body defines ``__eq__`` or ``__hash__``.
    Setting or deleting an attribute raises ``AttributeError``.  A type
    built per term gives itself an ``__init__`` that sets each field.
    Records do not inherit from one another.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(
            name
            for name in cls.__dict__.get("__annotations__", ())
            if not name.startswith("_")
        )
        if "__eq__" in cls.__dict__ or "__hash__" in cls.__dict__:
            return
        get = attrgetter(*cls._fields)  # the tuple of the fields, if two or more
        values = get if len(cls._fields) > 1 else lambda record: (get(record),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash(values(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__name__}() takes {len(fields)} arguments, got {len(args)}"
            )
        for name, value in zip(fields, args):
            _setfield(self, name, value)
        for name in fields[len(args) :]:
            if name in kwargs:
                _setfield(self, name, kwargs.pop(name))
            elif name in cls.__dict__:
                _setfield(self, name, cls.__dict__[name])
            else:
                raise TypeError(f"{cls.__name__}() is missing the argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = "two values for" if name in fields else "an unknown"
            raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _OneInstancePerGroup(type):
    """Validates ``GroupDescriptor(kind, param)``, whose param is an int (not
    a bool or float), and returns the group's one instance, built once."""

    def __call__(cls, kind, param=0):
        if kind not in _KINDS:
            raise DomainError(f"unknown group kind {kind!r}")
        if type(param) is not int or (param and kind in ("Integers", "Rationals")):
            raise DomainError(f"{kind} does not take the parameter {param!r}")
        if kind == "LexPower" and param < 1:
            raise DomainError("LexPower arity must be >= 1")
        if kind == "LexPower" and param > _MAX_LEX_ARITY:
            raise DomainError(f"LexPower arity must be <= {_MAX_LEX_ARITY}")
        if kind == "SurrealDepth" and param < 0:
            raise DomainError("SurrealDepth depth must be >= 0")
        if kind == "SurrealDepth" and param >= MAX_NESTING:
            raise DomainError(f"SurrealDepth depth must be <= {MAX_NESTING - 1}")
        shared = _SHARED.get((kind, param))
        if shared is None:  # setdefault: a thread that loses a race gets the winner's
            shared = _SHARED.setdefault((kind, param), super().__call__(kind, param))
        return shared


class GroupDescriptor(Record, metaclass=_OneInstancePerGroup):
    """Identifies one of the supported value groups, by its one instance."""

    kind: str
    param: int = 0

    # one instance per group, so equality and hash are by identity
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __reduce__(self):  # copy, deepcopy and pickle return the one instance
        return GroupDescriptor, (self.kind, self.param)

    @property
    def rank_one(self) -> bool:
        """Whether this is Z or Q, whose elements are each one ``int`` or
        ``Fraction``; ``lex_power(1)`` is rank one too, but holds 1-tuples."""
        return self.kind in ("Integers", "Rationals")

    @property
    def keyed(self) -> bool:
        """Whether the series kernels run on int exponent keys here: Z, Q
        and lexN, whose elements are finitely many rational coordinates."""
        return self.kind in ("Integers", "Rationals", "LexPower")

    @functools.cached_property
    def exponent_group(self) -> "GroupDescriptor":
        """Group the exponents of a depth-d element live in (d >= 1).

        Depth 1 bottoms out at the rationals so that depth-1 elements are
        ordinary series with rational exponents.  Found on first access,
        not with the descriptor, which would build every lower depth.
        """
        if self.kind != "SurrealDepth" or self.param < 1:
            raise DomainError(f"{self} has no exponent group")
        return RATIONALS if self.param == 1 else surreal_depth(self.param - 1)

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
class GroupElement(Record):
    """An element of one of the value groups.

    ``value`` is an ``int`` (Integers), ``Fraction`` (Rationals and the
    trivial SurrealDepth(0)), tuple of ``Fraction`` (LexPower), or an exact
    ``Series`` over the one-level-down group (SurrealDepth, depth >= 1).
    """

    descriptor: GroupDescriptor
    value: object

    def __init__(self, descriptor: GroupDescriptor, value):
        _setfield(self, "descriptor", descriptor)
        _setfield(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is GroupElement:
            return self.descriptor is other.descriptor and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.descriptor, self.value))

    def _check(self, other: "GroupElement"):
        mine, theirs = self.descriptor, other.descriptor
        if mine is not theirs:
            raise DescriptorMismatch(f"cannot combine {mine} with {theirs}")

    def is_zero(self) -> bool:
        return not _coordinates(self)

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
            return first_difference(a.terms, b.terms)[0]
        d = a.numerator * b.denominator - b.numerator * a.denominator
        return (d > 0) - (d < 0)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __str__(self):  # as messages show it
        from .parsing import _number_in_message, format_group_element  # lazy: a cycle

        return format_group_element(self, _number_in_message)


def first_difference(a: tuple, b: tuple) -> tuple[int, GroupElement | None]:
    """Sign of ``a - b`` for two ascending term tuples and the exponent of
    their first difference, or ``(0, None)``: there the smaller exponent's
    coefficient sign decides, else the coefficient order (read from ints)."""
    if a is b:
        return 0, None
    for (ea, ca), (eb, cb) in zip(a, b):
        if ea is not eb and (order := ea.compare(eb)):
            sign, ex, c = (1, ea, ca) if order < 0 else (-1, eb, cb)
            return (sign if c.numerator > 0 else -sign), ex
        if ca is not cb:
            d = ca.numerator * cb.denominator - cb.numerator * ca.denominator
            if d:
                return (1 if d > 0 else -1), ea
    if len(a) == len(b):
        return 0, None
    # one is a proper prefix of the other: the first term of the tail decides
    sign, (ex, c) = (1, a[len(b)]) if len(a) > len(b) else (-1, b[len(a)])
    return (sign if c.numerator > 0 else -sign), ex


@functools.cache
def zero(descriptor: GroupDescriptor) -> GroupElement:
    return embed_rational(descriptor, 0)


def embed_rational(descriptor: GroupDescriptor, q) -> GroupElement:
    """Canonical embedding of a rational along the dominant direction."""
    if type(q) is not Fraction:
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
    """Coerce a raw value (int, Fraction, a lex tuple or list, Series) into
    the group."""
    if isinstance(raw, GroupElement):
        if raw.descriptor is not descriptor:
            raise DescriptorMismatch(f"expected {descriptor}, got {raw.descriptor}")
        return raw
    kind = descriptor.kind
    try:
        if kind == "LexPower" and not isinstance(raw, (int, Fraction)):
            if not isinstance(raw, (tuple, list)):  # a str or dict iterates too
                raise TypeError("lex coordinates come as a tuple or a list")
            vals = tuple(c if type(c) is Fraction else Fraction(c) for c in raw)
            if len(vals) != descriptor.param:
                raise DomainError(
                    f"expected {descriptor.param} components, got {len(vals)}"
                )
            return GroupElement(descriptor, vals)
        if kind == "SurrealDepth" and descriptor.param >= 1:
            from .series import Series

            if isinstance(raw, Series):
                inner = descriptor.exponent_group
                if raw.group is not inner:
                    raise DescriptorMismatch(
                        f"series over {raw.group} is not a {descriptor} element"
                    )
                if raw.precision is not None:
                    raise DomainError("group elements must be exact series")
                return GroupElement(descriptor, raw)
        return embed_rational(descriptor, raw)
    except (TypeError, ValueError):  # Fraction() of a value of the wrong shape
        raise DomainError(
            f"a {type(raw).__name__} is not an element of {descriptor}"
        ) from None


_ORDER_SYMBOL = {-1: "<", 0: "=", 1: ">"}


def _coordinates(g: GroupElement) -> tuple:
    """The nonzero coordinates ``(key, x)`` of ``g`` over a Q-basis of its
    group, the largest archimedean class first: keyed by position on Z, Q
    and lexN, and by exponent on surrealD with D >= 1, whose elements'
    coordinates are their terms; surreal0 has none."""
    desc = g.descriptor
    if desc.rank_one:
        return ((0, g.value),) if g.value else ()
    if desc.kind == "LexPower":
        return tuple((i, c) for i, c in enumerate(g.value) if c)
    return g.value.terms if desc.param else ()


def _class_order(i, j) -> int:
    """-1, 0 or 1 as the class at first coordinate key ``i`` is larger
    than, equal to or smaller than the class at ``j``."""
    if type(i) is int:
        return (i > j) - (i < j)
    return i.compare(j)


def arch_compare(g: GroupElement, h: GroupElement) -> str:
    """Compare the archimedean classes v_G(g) and v_G(h).

    ``<`` means |g| dominates every natural multiple of |h|.
    """
    g._check(h)
    if g.is_zero() or h.is_zero():
        raise ZeroArgument("the natural valuation is undefined at 0")
    return _ORDER_SYMBOL[_class_order(_coordinates(g)[0][0], _coordinates(h)[0][0])]


def _steps_past(gap: GroupElement, step: GroupElement) -> int | None:
    """How long a walk by ``step`` stays below ``gap``, both positive: None
    when ``step`` is infinitesimal against ``gap``, else a count ``n`` with
    ``(n - 2) * step < gap < n * step``, read off the first coordinates:
    1 when ``step`` dominates, ``gap_j // step_j + 1`` when the two share a
    class, as on Z and Q always."""
    (i, x), (j, y) = _coordinates(gap)[0], _coordinates(step)[0]
    order = _class_order(i, j)
    if order < 0:
        return None
    return x // y + 1 if order == 0 else 1


# -- exact rational linear algebra -----------------------------------------
#
# A span is the reduced row form of a Q-linearly independent basis: a dict
# from each pivot coordinate to its row.  A row's pivot entry is 1 and is
# not stored, and it is 0 at every other pivot.  It is a pair of tuples:
# its other nonzero coordinates ``(key, x)`` and its combination ``(i, q)``
# of the basis.  One elimination step, ``_reduce``, builds a span
# (``_span_of``) and reads it (``_span_coefficients``), touching only the
# rows at an element's own pivots.  The tests keep a dense Gauss-Jordan
# solver as the independent oracle for both.


def _reduce(span: dict, coords) -> tuple[dict, dict]:
    """Subtract from the coordinate pairs ``coords``, at each of their keys
    that is a pivot of ``span``, that pivot's row scaled by the entry
    there.  Returns the nonzero coordinates left, none of them a pivot, and
    the combination of the basis subtracted."""
    left = dict(coords)
    combination = {}
    for pivot, x in coords:
        row = span.get(pivot)
        if row is None:
            continue
        del left[pivot]
        entries, row_combination = row
        for key, y in entries:
            y *= x
            left[key] = left[key] - y if key in left else -y
        for i, q in row_combination:
            q *= x
            combination[i] = combination[i] + q if i in combination else q
    return {key: x for key, x in left.items() if x}, combination


def _span_of(basis: Sequence[GroupElement]) -> dict | None:
    """The span of ``basis``, or None when the basis is Q-linearly
    dependent."""
    span = {}
    for j, b in enumerate(basis):
        left, combination = _reduce(span, _coordinates(b))
        if not left:
            return None  # b is in the span of the elements before it
        # the new row is b minus the combination, scaled to 1 at its pivot
        pivot = next(iter(left))
        lead = left.pop(pivot)
        inverse = Fraction(lead.denominator, lead.numerator)
        combination = {i: -q * inverse for i, q in combination.items()}
        combination[j] = inverse
        new = {
            pivot: (
                tuple((key, x * inverse) for key, x in left.items()),
                tuple(combination.items()),
            )
        }
        # clear the new pivot from the earlier rows
        for p, (entries, row_combination) in span.items():
            entries, subtracted = _reduce(new, entries)
            rest = dict(row_combination)
            for i, q in subtracted.items():
                rest[i] = rest.get(i, 0) - q
            span[p] = (tuple(entries.items()), tuple(rest.items()))
        span.update(new)
    return span


def _span_coefficients(span: dict, g: GroupElement) -> dict | None:
    """The coefficients ``{i: q}`` of ``g`` over the independent, nonempty
    basis of ``span`` (0 where ``i`` is missing), or None when ``g`` is
    outside its Q-span."""
    left, combination = _reduce(span, _coordinates(g))
    return None if left else combination


# -- Q-linear functionals ---------------------------------------------------


def _weighted(pairs, weights) -> Fraction:
    """The sum of ``x * weights[key]`` over the pairs ``(key, x)``, on ints."""
    num, den = 0, 1
    for key, x in pairs:
        w = weights[key]
        d = x.denominator * w.denominator
        num, den = num * d + x.numerator * w.numerator * den, den * d
    return Fraction(num, den)


class LinearFunctional(Record):
    """A Q-linear map into the rationals, stored on a finite generator list.

    Evaluation extends Q-linearly over the span of the generators;
    elements outside the span are rejected rather than guessed.  When the
    span is all of Z, Q or lexN, every coordinate is a pivot, and the
    functional is the weighted sum of an element's coordinates.
    """

    descriptor: GroupDescriptor
    generators: tuple[tuple[GroupElement, Fraction], ...]
    # the span of the generators, derived once from ``generators``
    _span: dict
    # on a full span of Z, Q or lexN, the value at each coordinate's unit
    # vector: row p's combination times the generator values; else None
    _weights: tuple[Fraction, ...] | None

    def __post_init__(self):
        desc = self.descriptor
        gens = tuple((element(desc, g), Fraction(v)) for g, v in self.generators)
        object.__setattr__(self, "generators", gens)
        # A self-similar generator is an exact series with finite support,
        # so its rank does not change when more exponents are touched:
        # independence is decided here for every kind.
        span = _span_of([g for g, _ in gens])
        if span is None:
            raise DomainError("functional generators are Q-linearly dependent")
        object.__setattr__(self, "_span", span)
        weights = None
        if desc.keyed and len(span) == (desc.param or 1):  # Z and Q: one coordinate
            values = [v for _, v in gens]
            weights = tuple(_weighted(span[p][1], values) for p in range(len(span)))
        object.__setattr__(self, "_weights", weights)

    def __call__(self, g: GroupElement) -> Fraction:
        g = element(self.descriptor, g)
        if self._weights is not None:
            return _weighted(_coordinates(g), self._weights)
        coeffs = _span_coefficients(self._span, g)
        if coeffs is None:
            if not self.generators:
                raise OutsideSpan(f"{g} is outside the span of an empty generator list")
            raise OutsideSpan(f"{g} is not in the Q-span of the generators")
        return _weighted(coeffs.items(), [v for _, v in self.generators])

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


class Translation(Record):
    offset: GroupElement

    @property
    def descriptor(self):
        return self.offset.descriptor

    def forward(self, g):
        return g + self.offset

    def backward(self, g):
        return g - self.offset


class PiecewiseLinear(Record):
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
    _values: tuple[Fraction, ...]

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


class PositiveScalar(Record):
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


class TriangularMatrix(Record):
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


class Composite(Record):
    """Composition: the first listed map is applied last; additive if every part is."""

    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise InvalidMap("empty composite")
        if len({p.descriptor for p in self.parts}) != 1:
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
