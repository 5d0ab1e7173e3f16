"""Exact arithmetic for truncated generalized power series.

A series is a finite, strictly ascending list of (exponent, nonzero
rational coefficient) pairs over one of the value groups, together with a
precision bound: every term with exponent below the bound is present and
correct, and an infinite bound (``None``) marks an exact series.

Every ``Series`` keeps its terms normalized: each exponent is a
``GroupElement`` of the series' group, each coefficient a nonzero
``Fraction``, the exponents strictly ascend, and all of them lie below the
precision bound.  ``Series.make`` is the one entry point that coerces raw
exponents and coefficients and establishes the invariant: it drops zeros,
merges the one-term lists pairwise (``_merge_rows``) and cuts the tail.
The constructor ``Series(...)`` checks nothing: it is for inputs that
already hold the invariant, which is how every operation below builds its
result, by merging or cutting normalized term lists.

Precision propagates through arithmetic with the tightest sound rules
under unknown tails at or above the bound:

* addition takes the minimum of the two bounds,
* multiplication takes ``min(P_a + v(b), P_b + v(a))``,
* inversion of ``s`` at target ``p`` yields a result certified so that
  ``s * result`` is 1 below ``p``.

Inversion solves the coefficient recurrence of ``1/(1 + eps)`` in one
ascending pass over the exponents below the target (``Series.invert``).
The pass terminates exactly when ``v(eps)`` is not infinitesimal relative
to the target; ``groups._steps_past`` decides that before it starts.

Products and inverses compute on integers: an operand's coefficients are
integer numerators over one common denominator, every pair product is an
int product, and each output term becomes one normalized ``Fraction``, so
the ``Fraction`` gcd is paid once per result term instead of once per
pair.

``*``, ``invert`` and the ``PhiShift`` exponential rows of ``derivations``
run over exponent keys (``_keys``): like exponents meet in a dict keyed
by key, a heap or a sort orders the keys, and each output exponent is
built once, from its key.  On Z, Q and lexN (``GroupDescriptor.keyed``) a
key is an int, so an exponent sum is an int add and an order test an int
compare.  One class, ``_Keys``, makes them: an exponent's coordinates
times ``L``, the lcm of the denominators in play, are its digits.  Z and
Q have one digit, which is the key; lexN has N, read as one int in a
radix set by one rule: a key a kernel forms adds at most ``reach`` of
the exponents it keyed.  ``_Keys.element`` decodes a key to the
one shared exponent of its group, digits and ``L``, kept in a bounded
table, so repeated calls stop rebuilding the same exponents.  The table
keeps only exponents whose digits and ``L`` fit in a machine word and
that have few coordinates.  Sharing an exponent object is only a
shortcut: exponents compare and hash by value, and one built afresh is
equal.  On surreal groups an exponent is its own key, and ``*`` merges
its rows pairwise instead (``_merge_rows``).  ``+``, ``make`` and these
merges hash no exponent; ``invert`` and the exp rows do on surreal
groups.

A keyed product whose operands are dense forms its sums with one int
product, a Kronecker substitution of the coefficients
(``_packed_products``).  Each operand's numerators become the signed
base-``2**w`` digits of one int, at their keys' offsets from its least
key.  At most ``min(n_a, n_b)`` pairs meet at one key, so each digit of
the product is bounded by ``min(n_a, n_b) * max|num_a| * max|num_b|``,
below ``2**(w-1)`` when ``w`` is that bound's bit length plus one, and the
product's balanced base-``2**w`` digits are exactly the sums.  That path
is taken where it is the faster one (``_packs``): after each operand is
cut at the stop, when the pair loop would form more pairs than the packed
path packs numerators and reads digit positions.  Other operands, such as
small ones and sparse lex ones whose keys lie radix powers apart, sum
their pairs in a dict.

Off the keys, ``GroupElement.compare`` orders exponents, by the exact walk
``groups.first_difference`` on surreal groups.  ``compare``, ``agrees`` and
``sign`` run that walk too, and hide a difference at or past the precision.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from operator import itemgetter

from .errors import (
    DescriptorMismatch,
    DivisionByZero,
    InsufficientPrecision,
    NonTerminating,
    ZeroSeries,
)
from .groups import (
    GroupDescriptor,
    GroupElement,
    Record,
    _setfield,
    _steps_past,
    element,
    first_difference,
)

_exponent, _coefficient = itemgetter(0), itemgetter(1)


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


def _merge_rows(rows: list) -> list:
    """The sum of normalized term lists, merged pairwise as a bottom-up
    merge sort would, so like exponents meet and collapse without hashing
    an exponent: the rows of ``*`` on surreal groups (int numerators over
    one denominator) and the one-term lists of ``Series.make``."""
    while len(rows) > 1:
        merged = [_merge(rows[k], rows[k + 1]) for k in range(0, len(rows) - 1, 2)]
        if len(rows) % 2:
            merged.append(rows[-1])
        rows = merged
    return rows[0] if rows else []


def _numerators(terms) -> tuple[int, list]:
    """``terms`` over the lcm ``d`` of their denominators: ``d`` and the
    terms with each coefficient ``c`` replaced by the integer ``c * d``."""
    d = lcm(*[c.denominator for _, c in terms])
    return d, [(ex, c.numerator * (d // c.denominator)) for ex, c in terms]


# ``_Keys.element`` keeps an exponent in the bounded table ``_interned`` only
# when its digits and scale fit in a machine word and it has few coordinates.
_MACHINE_WORD = 2**63
_FEW_COORDINATES = 8


def _element(group: GroupDescriptor, digits, scale: int) -> GroupElement:
    """The exponent whose coordinates are ``digits`` over ``scale``: one
    int digit on Z and Q, a tuple of N on lexN."""
    if group.kind == "Integers":
        return GroupElement(group, digits)
    if group.kind == "Rationals":
        return GroupElement(group, Fraction(digits, scale))
    return GroupElement(group, tuple(Fraction(c, scale) for c in digits))


_interned = functools.lru_cache(maxsize=1024)(_element)


class _Keys:
    """The int keys of Z, Q and lexN exponents: a Kronecker substitution.

    With ``scale`` the lcm ``L`` of the coordinate denominators of the
    exponents keyed, an exponent's digits are ``c_i = coord_i * L``: one on
    Z and Q, N on lexN.  One digit is its own key.  N digits make the key
    ``sum(c_i * R**(N-1-i))``, with ``R = 2B + 1``.  The key is linear in
    the digits, so int ``+`` is exponent ``+``.  On digits in ``[-B, B]``
    it is one to one and keeps lex order: the first digit that differs
    between two keys outweighs all later ones, since
    ``2B * (R**m - 1) / (R - 1) < R**m``.  So ``B`` must bound every digit
    of every key a kernel forms, also of a sum formed only to fail its
    ``>= stop`` test; ``element`` reads the digits back in balanced base
    ``R``.  One rule gives ``B``: every key a kernel forms adds at most
    ``reach`` of the exponents keyed, each with a sign, so with ``M`` the
    largest digit among them, ``B = reach * M``.  ``*`` adds two;
    ``invert`` and the exp rows pass the count that their walk's length
    gives (``Series.invert``, ``derivations._exp_phi_shift``).

    ``element`` returns the one exponent per (group, digits, scale) held
    in the bounded table ``_interned``, or builds a larger one afresh
    without keeping it.
    """

    __slots__ = ("group", "scale", "bound", "radix", "retain")

    def __init__(self, group: GroupDescriptor, exponents, reach: int):
        self.group = group
        self.bound = self.radix = None  # one digit
        if group.kind != "LexPower":
            self.scale = lcm(*[e.value.denominator for e in exponents])
            self.retain = self.scale < _MACHINE_WORD
            return
        coords = [c for e in exponents for c in e.value]
        self.scale = scale = lcm(*[c.denominator for c in coords])
        digits = [c.numerator * (scale // c.denominator) for c in coords]
        self.bound = bound = reach * max(max(digits), -min(digits))
        self.radix = 2 * bound + 1
        self.retain = (
            group.param <= _FEW_COORDINATES
            and bound < _MACHINE_WORD
            and scale < _MACHINE_WORD
        )

    def key(self, e: GroupElement) -> int:
        v, radix, scale = e.value, self.radix, self.scale
        if radix is None:
            return v.numerator * (scale // v.denominator)
        k = 0
        for c in v:
            k = k * radix + c.numerator * (scale // c.denominator)
        return k

    def element(self, k: int) -> GroupElement:
        bound, radix = self.bound, self.radix
        if radix is None:
            digits, retain = k, self.retain and -_MACHINE_WORD < k < _MACHINE_WORD
        else:
            digits = []
            for _ in range(self.group.param - 1):
                k, d = divmod(k + bound, radix)
                digits.append(d - bound)
            digits.append(k)
            digits, retain = tuple(reversed(digits)), self.retain
        if retain:
            return _interned(self.group, digits, self.scale)
        return _element(self.group, digits, self.scale)


class _ExponentKeys:
    """The keys on surreal groups: each exponent is its own key."""

    @staticmethod
    def key(e: GroupElement) -> GroupElement:
        return e

    element = key


_EXPONENT_KEYS = _ExponentKeys()


def _keys(group: GroupDescriptor, exponents, reach: int):
    """The keys of ``exponents`` and of the signed sums of at most ``reach``
    of them: int keys on Z, Q and lexN (``_Keys``), the exponents
    themselves on surreal groups."""
    if group.keyed:
        return _Keys(group, exponents, reach)
    return _EXPONENT_KEYS


def _keyed_products(group: GroupDescriptor, a: list, b: list, precision) -> list:
    """The summed rows of ``*`` on Z, Q and lexN: the nonzero sums of
    the numerator products of ``a`` and ``b`` below ``precision``,
    ascending.

    Each operand is first cut where it meets the other's least key at the
    stop, which lies above the least sum ``v(a) + v(b)`` (the product's
    precision rule), so neither cut leaves an operand empty.  The sums
    then lie at ``span_a + span_b + 1`` keys from the least, and
    ``n_a * n_b`` pairs form them.  Where ``_packs`` says so, one int
    product forms them all (``_packed_products``); otherwise each pair
    meets its like keys in a dict.
    """
    if not (a and b):
        return []
    exponents = [ex for ex, _ in a + b]
    if precision is not None:
        exponents.append(precision)
    keys = _keys(group, exponents, 2)  # sums of two exponents
    key = keys.key
    a = [(key(ea), na) for ea, na in a]
    b = [(key(eb), nb) for eb, nb in b]
    if precision is None:  # an exact product stops past its last key
        stop = a[-1][0] + b[-1][0] + 1
    else:
        stop = key(precision)
        a = a[: bisect_left(a, stop - b[0][0], key=_exponent)]
        b = b[: bisect_left(b, stop - a[0][0], key=_exponent)]
    if _packs(len(a), len(b), a[-1][0] - a[0][0] + b[-1][0] - b[0][0] + 1):
        sums = _packed_products(a, b, stop)
    else:
        table = {}
        for ka, na in a:
            for kb, nb in b:
                k = ka + kb
                if k >= stop:
                    break
                table[k] = table.get(k, 0) + na * nb
        sums = [(k, n) for k in sorted(table) if (n := table[k])]
    return [(keys.element(k), n) for k, n in sums]


def _packs(n_a: int, n_b: int, keys: int) -> bool:
    """Whether ``n_a`` by ``n_b`` numerators whose sums lie at ``keys`` keys
    multiply faster packed than in the pair loop.  A size sweep over dense
    and sparse operands (CPython 3.11, x86_64) puts a pair at about the
    cost of a packed numerator or a read digit, and packing at 2 more."""
    return n_a * n_b >= keys + n_a + n_b + 2


def _packed_products(a: list, b: list, stop: int) -> list:
    """The nonzero sums ``(key, n)`` of the pair products of the keyed
    numerators ``a`` and ``b`` below ``stop``, ascending, from one int
    product, with the width ``w`` of the module docstring.  Each operand
    holds its numerator at key ``k`` as its signed base-``2**w`` digit at
    ``k`` less its least key.  The product's balanced digits, read from the
    bottom with a borrow for each negative one, are the sums."""
    lo_a, lo_b = a[0][0], b[0][0]
    most_a = max(map(abs, map(_coefficient, a)))
    most_b = max(map(abs, map(_coefficient, b)))
    w = (min(len(a), len(b)) * most_a * most_b).bit_length() + 1
    packed_a = packed_b = 0
    for k, n in a:
        packed_a += n << w * (k - lo_a)
    for k, n in b:
        packed_b += n << w * (k - lo_b)
    product = packed_a * packed_b
    top = min(stop, a[-1][0] + b[-1][0] + 1)
    mask, half, base = (1 << w) - 1, 1 << (w - 1), 1 << w
    sums = []
    for k in range(lo_a + lo_b, top):
        n = product & mask
        product >>= w
        if n >= half:
            n -= base
            product += 1
        if n:
            sums.append((k, n))
    return sums


class LeadingTerm(Record):
    valuation: GroupElement
    coefficient: Fraction

    def __init__(self, valuation: GroupElement, coefficient: Fraction):
        _setfield(self, "valuation", valuation)
        _setfield(self, "coefficient", coefficient)


class Series(Record):
    group: GroupDescriptor
    terms: tuple[tuple[GroupElement, Fraction], ...] = ()
    precision: GroupElement | None = None

    def __init__(self, group: GroupDescriptor, terms: tuple = (), precision=None):
        _setfield(self, "group", group)
        _setfield(self, "terms", terms)
        _setfield(self, "precision", precision)

    def __eq__(self, other):
        if other.__class__ is Series:
            return (
                self.group is other.group
                and self.terms == other.terms
                and self.precision == other.precision
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.group, self.terms, self.precision))

    # -- construction ------------------------------------------------------

    @classmethod
    def make(cls, group, terms, precision=None) -> "Series":
        """Normalize: coerce each pair, drop zeros, merge the one-term
        lists ascending (like exponents collapse) and cut the tail.  Given
        the terms of many series at their least precision, it is their sum."""
        if precision is not None:
            precision = element(group, precision)
        rows = []
        for ex, c in terms:
            ex = element(group, ex)
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                rows.append(((ex, c),))
        return cls(group, _cut(tuple(_merge_rows(rows)), precision), precision)

    @classmethod
    def zero(cls, group) -> "Series":
        return cls(group, (), None)

    @classmethod
    def constant(cls, group, q) -> "Series":
        q = Fraction(q)
        if not q:
            # no exponent to build: a surreal 0 would recurse down every level
            return cls.zero(group)
        return cls.make(group, [(element(group, 0), q)])

    @classmethod
    def one(cls, group) -> "Series":
        return cls.constant(group, 1)

    @classmethod
    def monomial(cls, group, exponent, coefficient=1) -> "Series":
        return cls.make(group, [(element(group, exponent), Fraction(coefficient))])

    # -- structure ---------------------------------------------------------

    def _check(self, other: "Series"):
        if self.group is not other.group:
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

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        self._check(other)
        precision = _pmin(self.precision, other.precision)
        terms = _merge(_cut(self.terms, precision), _cut(other.terms, precision))
        return Series(self.group, tuple(terms), precision)

    def __neg__(self) -> "Series":
        return Series(
            self.group, tuple((ex, -c) for ex, c in self.terms), self.precision
        )

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def scale(self, q) -> "Series":
        q = Fraction(q)
        if q == 0:
            return Series.zero(self.group)
        return Series(
            self.group, tuple((ex, q * c) for ex, c in self.terms), self.precision
        )

    def shift(self, g) -> "Series":
        """Multiply by the monomial t^g."""
        g = element(self.group, g)
        return Series(
            self.group,
            tuple((ex + g, c) for ex, c in self.terms),
            None if self.precision is None else self.precision + g,
        )

    def __mul__(self, other: "Series") -> "Series":
        """The product, at precision ``min(P_a + v(b), P_b + v(a))``.

        Each operand's coefficients are put over the lcm of its
        denominators, ``da`` and ``db``, as integer numerators, so a pair
        product is one int product.  On Z, Q and lexN the sums are formed on
        int keys, by one packed int product where the operands are dense
        (``_keyed_products``).  Elsewhere each row of products ``ea + eb``
        ascends with ``eb``, so a row stops at the first product at or past
        the result's precision and later rows start no lower.  Each summed
        term becomes one ``Fraction(n, da * db)``.
        """
        self._check(other)
        if self.is_exact_zero() or other.is_exact_zero():
            return Series.zero(self.group)
        precision = None
        if self.precision is not None:
            precision = _pmin(precision, self.precision + other._v_lower())
        if other.precision is not None:
            precision = _pmin(precision, other.precision + self._v_lower())
        da, a = _numerators(self.terms)
        db, b = _numerators(other.terms)
        if self.group.keyed:
            sums = _keyed_products(self.group, a, b, precision)
        else:
            # Not a dict over exponent keys as in invert: that made
            # products of sparse 4-term surreal1 and surreal2 operands
            # 2.9x and 4.2x slower (Python 3.11, x86_64), as it hashes
            # every sum, and a surreal sum hashes a series.
            rows = []
            for ea, na in a:
                row = []
                for eb, nb in b:
                    ex = ea + eb
                    if precision is not None and ex.compare(precision) >= 0:
                        break
                    row.append((ex, na * nb))
                if not row:
                    break
                rows.append(row)
            sums = _merge_rows(rows)
        d = da * db
        terms = tuple((ex, Fraction(n, d)) for ex, n in sums)
        return Series(self.group, terms, precision)

    def truncate_to(self, p) -> "Series":
        precision = _pmin(self.precision, element(self.group, p))
        return Series(self.group, _cut(self.terms, precision), precision)

    def invert(self, target) -> "Series":
        """Inverse certified so that self * result is 1 below ``target``.

        Write ``self = r * t^g * (1 + eps)`` with every exponent of ``eps``
        positive.  ``b = 1/(1 + eps)`` solves ``b = 1 - eps * b``, so
        ``b_0 = 1`` and ``b_e = -sum(eps_x * b_(e-x) for x in supp eps)``,
        and by Neumann's lemma the support of ``b`` lies in the monoid
        generated by ``supp eps``.  One ascending pass computes it: once
        ``b_f`` is final and nonzero, each ``f + x`` below the target
        receives ``-eps_x * b_f``, summed on arrival into the one pending
        entry of its exponent.  The pending entries ascend, and the first
        is final because every contribution to it comes from a smaller
        exponent.  Each product is formed once.

        The arithmetic is on integers: the steps ``-eps_x`` are numerators
        over their common denominator ``d``, and a ``b_f`` reached in ``k``
        steps is a numerator over ``d**k``, so a contribution is one int
        product.  The contributions at one exponent are summed over the
        largest power among them, and each final ``b_f / r`` becomes one
        ``Fraction``.

        The pass ends exactly when ``v(eps)`` is not infinitesimal relative
        to the target: then ``n * v(eps)`` passes it (``groups._steps_past``),
        so only the finitely many sums of fewer than ``n`` exponents of
        ``eps`` lie below it.  Otherwise ``NonTerminating`` is raised before
        any coefficient is computed; never on Z and Q, where two nonzero
        elements are always in one archimedean class.
        """
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
        precision = target - g
        if len(self.terms) == 1:
            inverse = Series.monomial(self.group, -g, 1 / r)
            if self.precision is None:
                return inverse
            return inverse.truncate_to(precision)
        # The steps -eps_x of eps = self / (r t^g) - 1 below the target: a
        # term c = n/D at t^ex below target + g steps by key(ex) - key(g)
        # with -c/r = -n*rd / (D*rn), an int numerator over D*|rn|; d is
        # the least such denominator, the lcm of those of the reduced -c/r.
        rest = _cut(self.terms[1:], target + g)
        n = _steps_past(target, v_eps := rest[0][0] - g) if rest else 0
        if n is None:
            raise NonTerminating(
                "geometric expansion does not reach the target precision: the "
                f"archimedean class of v(eps) = {v_eps} is infinitesimal "
                f"relative to the class of the target {target}"
            )
        # Each step x = ex - g lies in [v(eps), target), so fewer than n
        # steps sum below the target.  A formed key, -g plus a popped sum
        # and one step, adds -g and at most n differences: 2n + 1 exponents.
        keys = _keys(self.group, [precision, g] + [ex for ex, _ in rest], 2 * n + 1)
        key = keys.key
        kg, stop = key(g), key(precision)
        rn, rd = r.numerator, r.denominator
        d, rest = _numerators(rest)
        d *= abs(rn)
        sign = -1 if rn > 0 else 1
        steps = [(key(ex) - kg, sign * n * rd) for ex, n in rest]
        common = gcd(d, *[c for _, c in steps])
        if common > 1:  # usually 1: rebuilding anyway cost a dense Q invert 3%
            d //= common
            steps = [(x, c // common) for x, c in steps]
        # [numerator, power] per distinct key, and the keys in a heap, from
        # the key of t^-g up to the precision's
        pending = {-kg: [1, 0]}
        heap = list(pending)
        powers = [1]
        terms = []
        while heap:
            f = heappop(heap)
            b, k = pending.pop(f)
            if not b:
                continue
            terms.append((keys.element(f), Fraction(b * rd, powers[k] * rn)))
            k += 1
            if k == len(powers):
                powers.append(powers[-1] * d)
            for x, c in steps:
                e = f + x
                if e >= stop:
                    break
                entry = pending.get(e)
                if entry is None:
                    pending[e] = [c * b, k]
                    heappush(heap, e)
                elif entry[1] < k:
                    entry[0] = entry[0] * powers[k - entry[1]] + c * b
                    entry[1] = k
                else:
                    entry[0] += c * b * powers[entry[1] - k]
        return Series(self.group, _cut(tuple(terms), precision), precision)

    # -- order -------------------------------------------------------------

    def _difference_sign(self, other: "Series") -> tuple[int, GroupElement | None]:
        """Sign of the leading term of self - other below the joint
        precision (0 when there is none), and that joint precision: the
        first difference of the term lists, by ``first_difference``, unless
        it lies at or past that precision.  The difference is never built."""
        self._check(other)
        precision = _pmin(self.precision, other.precision)
        sign, ex = first_difference(self.terms, other.terms)
        if sign and precision is not None and ex.compare(precision) >= 0:
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

    def agrees(self, other: "Series") -> bool:
        """True when the two series coincide below their joint precision."""
        return not self._difference_sign(other)[0]

    def __str__(self):  # as messages show it
        from .parsing import _number_in_message, format_series  # lazy: a cycle

        return format_series(self, number=_number_in_message)
