"""The dense linear algebra the value groups once evaluated spans with,
kept as an independent oracle for the tests: Gauss-Jordan elimination over
Q on dense coordinate vectors.  It must not import the span code of
``hahnaut.groups`` (``_coordinates``, ``_reduce``, ``_span_of``,
``_span_coefficients``), so that a fault there cannot reach the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from hahnaut.groups import GroupElement


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
