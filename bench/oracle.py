"""Reference arithmetic that shares no code with ``hahnaut``.

* Dense Laurent polynomials over ``Fraction``: a series with integer
  exponents is a list of coefficients starting at exponent ``lo``.  This
  checks multiplication, inversion by the power-series recurrence and the
  exponential of the derivation ``t^k -> q*k*t^(k+shift)``.
* Nested exponents for lexN and surrealD literals, with their own order
  and their own printer, so CLI output can be predicted without the
  program's formatter.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key


# -- dense Laurent polynomials ----------------------------------------------


class Laurent:
    """sum_k coeffs[k] * t^(lo + k), with trailing zeros trimmed."""

    __slots__ = ("lo", "coeffs")

    def __init__(self, lo: int, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            lo += 1
        self.lo = lo if coeffs else 0
        self.coeffs = coeffs

    @classmethod
    def from_terms(cls, terms: dict) -> "Laurent":
        if not terms:
            return cls(0, [])
        lo, hi = min(terms), max(terms)
        return cls(lo, [terms.get(k, 0) for k in range(lo, hi + 1)])

    def terms(self) -> dict:
        return {self.lo + k: c for k, c in enumerate(self.coeffs) if c != 0}

    def __mul__(self, other: "Laurent") -> "Laurent":
        if not self.coeffs or not other.coeffs:
            return Laurent(0, [])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Laurent(self.lo + other.lo, out)

    def __add__(self, other: "Laurent") -> "Laurent":
        terms = self.terms()
        for k, c in other.terms().items():
            terms[k] = terms.get(k, 0) + c
        return Laurent.from_terms(terms)

    def scale(self, q) -> "Laurent":
        return Laurent(self.lo, [q * c for c in self.coeffs])

    def truncate(self, below: int) -> "Laurent":
        """Drop every term with exponent >= ``below``."""
        return Laurent(self.lo, self.coeffs[: max(0, below - self.lo)])


def inverse(s: Laurent, below: int) -> Laurent:
    """Terms of 1/s with exponent < ``below`` (s must be nonzero).

    With s = t^g * (a_0 + a_1 t + ...), 1/s = t^(-g) * (b_0 + b_1 t + ...)
    where b_0 = 1/a_0 and b_n = -(1/a_0) * sum_{j=1..n} a_j * b_(n-j).
    """
    a = s.coeffs
    n_terms = below + s.lo  # exponents -g .. below-1
    b: list[Fraction] = []
    for n in range(max(0, n_terms)):
        if n == 0:
            b.append(1 / a[0])
            continue
        acc = sum((a[j] * b[n - j] for j in range(1, min(n, len(a) - 1) + 1)), Fraction(0))
        b.append(-acc / a[0])
    return Laurent(-s.lo, b)


def phi_shift(s: Laurent, q, shift: int) -> Laurent:
    """D(t^k) = q*k * t^(k+shift)."""
    return Laurent(s.lo + shift, [q * (s.lo + k) * c for k, c in enumerate(s.coeffs)])


def exp_phi_shift(s: Laurent, q, shift: int, below: int) -> Laurent:
    """sum_i D^i(s)/i! below ``below`` for the derivation of ``phi_shift``."""
    total = s.truncate(below)
    term = s
    i, factorial = 1, 1
    while True:
        term = phi_shift(term, q, shift).truncate(below)
        if not term.coeffs:
            return total
        factorial *= i
        total = total + term.scale(Fraction(1, factorial))
        i += 1


# -- nested exponents and the series printer --------------------------------
#
# A rational exponent is a Fraction, a lexN exponent a tuple of Fractions, a
# surrealD exponent (D >= 1) a tuple of (exponent one level down, nonzero
# Fraction) pairs in ascending order; the empty tuple is zero.


def compare_exponent(a, b, depth: int) -> int:
    """Order of two exponents; ``depth`` is 0 for Q and lexN."""
    if depth == 0:
        return (a > b) - (a < b)
    da, db = dict(a), dict(b)
    keys = sorted(set(da) | set(db), key=cmp_to_key(lambda x, y: compare_exponent(x, y, depth - 1)))
    for k in keys:
        diff = da.get(k, 0) - db.get(k, 0)
        if diff:
            return 1 if diff > 0 else -1
    return 0


def sort_terms(terms, depth: int):
    """Terms (exponent, coefficient) in ascending exponent order."""
    return sorted(terms, key=cmp_to_key(lambda x, y: compare_exponent(x[0], y[0], depth)))


def negate_exponent(e):
    """-e for a rational or lexN exponent."""
    return tuple(-c for c in e) if isinstance(e, tuple) else -e


def _is_zero(e, depth: int) -> bool:
    if depth:
        return not e
    return all(c == 0 for c in e) if isinstance(e, tuple) else e == 0


def show_exponent(e, depth: int) -> str:
    if depth == 0:
        if isinstance(e, tuple):
            return "(" + ",".join(str(c) for c in e) + ")"
        return str(e)
    return "[" + show_series(e, depth - 1) + "]"


def show_series(terms, depth: int, base: str = "t") -> str:
    """The canonical text of ascending ``terms`` as the README describes it.

    In w-notation the caller passes the already negated exponents; the
    order of the terms is unchanged (largest w exponent first).
    """
    pieces = []
    for e, c in terms:
        if _is_zero(e, depth):
            body = str(abs(c))
        else:
            prefix = "" if abs(c) == 1 else f"{abs(c)}*"
            body = f"{prefix}{base}^({show_exponent(e, depth)})"
        pieces.append((c < 0, body))
    if not pieces:
        out = "0"
    else:
        out = ("-" if pieces[0][0] else "") + pieces[0][1]
        for negative, body in pieces[1:]:
            out += (" - " if negative else " + ") + body
    return out
