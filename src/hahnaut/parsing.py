"""Recursive-descent parser and canonical formatter.

The textual layer covers series literals in two notations, group
elements of every supported kind, Q-linear functionals, value-group maps
(monotone maps and additive automorphisms), derivation specs, and the
structured automorphism grammar used by the command line.

Series syntax::

    series := ["-"] term (("+"|"-") term)* [" (mod " base "^(" exponent "))"]
    term   := rational ["*" base "^" "(" exponent ")"]
            | base "^" "(" exponent ")"

with ``base`` being ``t`` or ``w`` depending on the session notation.
A ``*`` after the rational starts a monomial only when a name follows;
otherwise the term is the constant, so the expression ``2 * 3`` is 6.
In omega notation the printed exponent is the negation of the internal
one (``w^(y)`` is ``t^(-y)``) and terms print with the largest omega
exponent first.  Exponents are always parenthesized; lexicographic
exponents are tuples ``(a,b,...)`` and self-similar exponents are
bracketed series literals ``[...]`` (always in t-notation).

``format_series`` and ``parse_series`` are exact inverses on every
series, including truncated ones.

``tokenize`` cuts the text into plain ``(kind, text, pos)`` tuples, which
the parser reads by index: ``kind`` is ``"number"``, ``"ident"``,
``"end"`` or the symbol itself, and ``pos`` is the offset every
``ParseError`` reports.  A number longer than the interpreter reads is
refused with its digit count; ``sys.get_int_max_str_digits()`` is read
only for a number of more than ``sys.int_info.str_digits_check_threshold``
(640) digits, as Python allows no nonzero limit below that.
"""

from __future__ import annotations

import functools
import re
import sys
from fractions import Fraction

from . import automorphisms, derivations, groups
from .errors import (
    DomainError,
    ExponentParseError,
    InsufficientPrecision,
    ParseError,
    ResultTooLong,
)
from .groups import MAX_NESTING, RATIONALS, GroupDescriptor, GroupElement, Record, _setfield
from .series import Series, _pmin


class SessionConfig(Record):
    """What the parser and formatter read: the group, the precision that
    ``/`` inverts to, and the notation, ``t`` or ``w``."""

    group: GroupDescriptor = RATIONALS
    precision: GroupElement | None = None
    notation: str = "t"

    def __init__(self, group=RATIONALS, precision=None, notation="t"):
        if notation not in ("t", "w"):
            raise DomainError(f"unknown notation {notation!r}")
        _setfield(self, "group", group)
        _setfield(self, "precision", precision)
        _setfield(self, "notation", notation)


# -- tokenizer ---------------------------------------------------------------

# Numbers and identifiers are ASCII; whitespace is what ``str.isspace``
# accepts; any other character is refused where it stands.
_TOKEN = re.compile(
    r"(?P<number>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<symbol>[{}()\[\],:^*+\-/;])|\s+|(?P<other>.)"
)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """The ``(kind, text, pos)`` tokens of ``text``, ending in
    ``("end", "", len(text))``; a symbol's kind is its own text."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        t = m[0]
        if kind == "other":
            raise ParseError(f"unexpected character {t!r}", m.start())
        tokens.append((t if kind == "symbol" else kind, t, m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


_CLOSERS = {"(": ")", "[": "]", "{": "}"}
# int() checks the digit limit only past this many digits, and the limit
# is 0 (none) or at least this, so no shorter number is refused
_CHECKED_DIGITS = sys.int_info.str_digits_check_threshold
_ONE = Fraction(1)


class _Parser:
    """Reads the tokens of one text by index ``i``.  The hot steps index
    ``tokens`` directly; as only the last token is ``"end"``, a step that
    sees any other kind may read the token after it."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0

    # -- plumbing ----------------------------------------------------------

    @property
    def kind(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.i][0]

    def advance(self) -> tuple:
        tok = self.tokens[self.i]
        if tok[0] != "end":
            self.i += 1
        return tok

    def error(self, message: str):
        raise ParseError(message, self.tokens[self.i][2])

    def expect(self, kind: str, what: str | None = None) -> tuple:
        """The next token, which must be of ``kind`` (never ``"end"``)."""
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"expected {what or kind!r}", tok[2])
        self.i += 1
        return tok

    def keyword(self, word: str, what: str | None = None):
        what = what or f"keyword {word!r}"
        _, text, pos = self.expect("ident", what)
        if text != word:
            raise ParseError(f"expected {what}, got {text!r}", pos)

    def field(self, word: str, value):
        """``word: value``: the result of ``value()``."""
        self.keyword(word)
        self.expect(":")
        return value()

    def at_keyword(self, word: str) -> bool:
        kind, text, _ = self.tokens[self.i]
        return kind == "ident" and text == word

    def done(self):
        if self.kind != "end":
            self.error("unexpected trailing input")

    def enclosed(self, opener: str, item):
        """``opener item closer``: the result of ``item()``, nested at most
        ``MAX_NESTING`` deep."""
        _, _, pos = self.expect(opener)
        if self.depth == MAX_NESTING:
            raise ParseError(f"brackets nest deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        result = item()
        self.depth -= 1
        self.expect(_CLOSERS[opener])
        return result

    def separated(self, item, sep: str = ",") -> list:
        """``item (sep item)*``: the results of ``item()`` in order."""
        out = [item()]
        while self.kind == sep:
            self.advance()
            out.append(item())
        return out

    def signed(self, item) -> list:
        """``["-"] item (("+"|"-") item)*``: ``(sign, item())`` in order,
        with ``sign`` -1 after a ``-`` and 1 otherwise."""
        tokens = self.tokens
        sign = 1
        if tokens[self.i][0] == "-":
            self.i += 1
            sign = -1
        out = []
        while True:
            out.append((sign, item()))
            kind = tokens[self.i][0]
            if kind not in ("+", "-"):
                return out
            self.i += 1
            sign = 1 if kind == "+" else -1

    # -- scalars and group elements ----------------------------------------

    def natural(self, what: str) -> int:
        _, text, pos = self.expect("number", what)
        digits = len(text)
        if digits > _CHECKED_DIGITS:
            limit = sys.get_int_max_str_digits()
            if digits > limit > 0:  # more digits than int() reads
                raise ParseError(f"a number of {digits} digits, past {limit}", pos)
        return int(text)

    def rational(self) -> Fraction:
        tokens = self.tokens
        kind = tokens[self.i][0]
        negative = kind == "-"
        if negative or kind == "+":
            self.i += 1
        num = self.natural("a number")
        if negative:
            num = -num
        if tokens[self.i][0] == "/" and tokens[self.i + 1][0] == "number":
            self.i += 1
            den = self.natural("a denominator")
            if den == 0:
                self.error("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def group_element(self, group: GroupDescriptor) -> GroupElement:
        kind = group.kind
        if kind == "LexPower" and self.kind == "(":
            coords = self.enclosed("(", lambda: self.separated(self.rational))
            if len(coords) != group.param:
                self.error(f"expected {group.param} coordinates")
            return groups.element(group, tuple(coords))
        if kind == "SurrealDepth" and group.param >= 1 and self.kind == "[":
            config = SessionConfig(group.exponent_group)
            inner = self.enclosed("[", lambda: self.series_sum(config))
            return groups.element(group, inner)
        return groups.element(group, self.rational())

    def rational_list(self) -> list[Fraction]:
        return self.enclosed("[", lambda: self.separated(self.rational))

    def pair(self, group: GroupDescriptor, value):
        """``g: value``, with ``value`` parsed by the given method."""
        g = self.group_element(group)
        self.expect(":")
        return g, value()

    # -- series ------------------------------------------------------------

    def power(self, config: SessionConfig) -> GroupElement:
        """``base^(exponent)``: the exponent."""
        self.keyword(config.notation, f"the series variable {config.notation!r}")
        self.expect("^")
        return self.exponent(config)

    def exponent(self, config: SessionConfig) -> GroupElement:
        self.expect("(", "'(' before the exponent")
        try:
            g = self.group_element(config.group)
        except (DomainError, ValueError) as e:
            message = f"exponent does not fit the session group: {e}"
            raise ExponentParseError(message, self.tokens[self.i][2]) from e
        self.expect(")", "')' after the exponent")
        return -g if config.notation == "w" else g

    def series_term(self, config: SessionConfig):
        tokens = self.tokens
        if tokens[self.i][0] in ("number", "-", "+"):
            coeff = self.rational()
            if tokens[self.i][0] == "*" and tokens[self.i + 1][0] == "ident":
                self.i += 1
                return self.power(config), coeff
            return groups.zero(config.group), coeff
        return self.power(config), _ONE

    def series_sum(self, config: SessionConfig) -> Series:
        signed = self.signed(lambda: self.series_term(config))
        return Series.make(
            config.group, [(ex, c if sign > 0 else -c) for sign, (ex, c) in signed]
        )

    def series(self, config: SessionConfig) -> Series:
        body = self.series_sum(config)
        if not (self.kind == "(" and self.tokens[self.i + 1][1] == "mod"):
            return body

        def bound():
            self.keyword("mod")
            return self.power(config)

        return body.truncate_to(self.enclosed("(", bound))

    # -- arithmetic expressions over series ---------------------------------

    def expression(self, config: SessionConfig) -> Series:
        """A signed sum of products: one ``Series.make`` of all their terms
        at their least precision, which is the chain of ``+``, as exact
        addition is associative and its precision is the least either way."""
        signed = self.signed(lambda: self.expr_product(config))
        terms = [
            (ex, c if sign > 0 else -c) for sign, rhs in signed for ex, c in rhs.terms
        ]
        precision = functools.reduce(_pmin, [rhs.precision for _, rhs in signed], None)
        return Series.make(config.group, terms, precision)

    def expr_product(self, config: SessionConfig) -> Series:
        total = self.expr_atom(config)
        while self.kind in ("*", "/"):
            op = self.advance()[0]
            rhs = self.expr_atom(config)
            if op == "*":
                total = total * rhs
            else:
                total = total * _expression_inverse(rhs, config)
        return total

    def expr_atom(self, config: SessionConfig) -> Series:
        negated = False
        while self.kind == "-":  # a run of unary minus signs, read flat
            self.advance()
            negated = not negated
        if self.kind == "(":
            atom = self.enclosed("(", lambda: self.expression(config))
        else:
            atom = Series.make(config.group, [self.series_term(config)])
        return -atom if negated else atom

    # -- functionals, maps, value-group automorphisms -----------------------

    def _pairs_ahead(self) -> bool:
        """True when a ':' occurs at bracket depth 0 before the closer."""
        depth = 0
        for kind, _, _ in self.tokens[self.i :]:
            if kind in "([{":
                depth += 1
            elif kind in ")]}":
                if depth == 0:
                    return False
                depth -= 1
            elif kind == ":" and depth == 0:
                return True
        return False

    def functional(self, config: SessionConfig) -> groups.LinearFunctional:
        self.keyword("linear")

        def body():
            if self._pairs_ahead():
                gens = self.separated(lambda: self.pair(config.group, self.rational))
                return groups.LinearFunctional(config.group, tuple(gens))
            values = self.separated(self.rational)
            return groups.standard_functional(config.group, values)

        return self.enclosed("(", body)

    def value_map(self, config: SessionConfig, additive: bool):
        """An additive automorphism (``matrix``) or a monotone map (``translate``,
        ``piecewise``); ``identity``, ``scalar`` and ``compose`` are both."""
        what = "additive automorphism" if additive else "monotone map"
        _, name, pos = self.expect("ident", f"{'an' if additive else 'a'} {what}")
        group = config.group
        if name == "identity":
            return groups.identity_map(group)
        if name == "scalar":
            return groups.PositiveScalar(group, self.enclosed("(", self.rational))
        if name == "compose":
            parts = self.enclosed(
                "(", lambda: self.separated(lambda: self.value_map(config, additive))
            )
            return groups.Composite(tuple(parts))
        if additive and name == "matrix":

            def row_list():
                return self.enclosed("[", lambda: self.separated(self.rational_list))

            rows = self.enclosed("(", row_list)
            return groups.TriangularMatrix(group, tuple(map(tuple, rows)))
        if not additive and name == "translate":
            offset = self.enclosed("(", lambda: self.group_element(group))
            return groups.Translation(offset)
        if not additive and name == "piecewise":

            def body():
                breaks = self.field("breaks", self.rational_list)
                self.expect(",")
                slopes = self.field("slopes", self.rational_list)
                if self.kind != ",":
                    return breaks, slopes, Fraction(0)
                self.advance()
                return breaks, slopes, self.field("at", self.rational)

            breaks, slopes, anchor = self.enclosed("{", body)
            if group is not RATIONALS:
                raise ParseError(
                    "piecewise maps are only available over the rationals", pos
                )
            return groups.PiecewiseLinear(tuple(breaks), tuple(slopes), anchor)
        raise ParseError(f"unknown {what} {name!r}", pos)

    # -- derivations ---------------------------------------------------------

    def phi_shift(self, config: SessionConfig):
        """A ``phi: <functional>, shift: <exponent>`` body, as ``(phi, shift)``."""
        phi = self.field("phi", lambda: self.functional(config))
        self.expect(",")
        return phi, self.field("shift", lambda: self.group_element(config.group))

    def derivation(self, config: SessionConfig) -> derivations.MonomialDerivation:
        _, name, pos = self.expect("ident", "a derivation spec")
        group = config.group
        if name == "deriv":
            phi, shift = self.enclosed("{", lambda: self.phi_shift(config))
            return derivations.make_phi_derivation(phi, shift)
        if name == "table":

            def entry():
                return self.pair(group, lambda: self.series_sum(config))

            def body():
                entries = self.field(
                    "map", lambda: self.enclosed("{", lambda: self.separated(entry))
                )
                self.expect(",")
                gain = self.field("gain", lambda: self.group_element(group))
                if self.kind != ",":
                    return entries, gain, False
                self.advance()
                _, flag, flag_pos = self.field(
                    "zero_default", lambda: self.expect("ident", "true or false")
                )
                if flag not in ("true", "false"):
                    raise ParseError(f"expected true or false, got {flag!r}", flag_pos)
                return entries, gain, flag == "true"

            entries, gain, zero_default = self.enclosed("{", body)
            return derivations.make_table_derivation(group, entries, gain, zero_default)
        raise ParseError(f"unknown derivation spec {name!r}", pos)

    # -- automorphism specs --------------------------------------------------

    def pairs(self, config: SessionConfig, stop_words=()):
        """``g: q`` pairs up to a ``}`` or a stop word; the list may be
        empty or end in a comma."""

        def entry():
            kind, text, _ = self.tokens[self.i]
            if kind == "}" or (kind == "ident" and text in stop_words):
                return None
            return self.pair(config.group, self.rational)

        return [e for e in self.separated(entry) if e is not None]

    def automorphism(self, config: SessionConfig) -> automorphisms.Automorphism:
        _, name, pos = self.expect("ident", "an automorphism spec")
        group = config.group
        if name == "identity":
            return automorphisms.identity_aut(group)
        if name == "external_field":
            tau = self.enclosed(
                "{", lambda: self.field("tau", lambda: self.value_map(config, True))
            )
            return automorphisms.make_external_field(tau)
        if name == "character":
            entries = self.enclosed("{", lambda: self.pairs(config))
            chi = automorphisms.PartialCharacter(
                group,
                tuple(g for g, _ in entries),
                tuple(v for _, v in entries),
            )
            return automorphisms.make_character_lift(chi)
        if name == "internal_mult":
            eps = self.enclosed(
                "{", lambda: self.field("eps", lambda: self.series_sum(config))
            )
            return automorphisms.make_internal_mult(eps)
        if name == "external_group":

            def body():
                zeta = self.field("zeta", lambda: self.value_map(config, False))
                default = Fraction(1)
                exceptions = []
                if self.kind == ",":
                    self.advance()
                    if self.at_keyword("scale"):
                        exceptions = self.field(
                            "scale", lambda: self.pairs(config, stop_words=("default",))
                        )
                    if self.at_keyword("default"):
                        default = self.field("default", self.rational)
                return zeta, default, exceptions

            zeta, default, exceptions = self.enclosed("{", body)
            scaling = automorphisms.ScalingFamily(group, default, tuple(exceptions))
            return automorphisms.make_external_group(zeta, scaling)
        if name == "exp_derivation":

            def body():
                phi, shift = self.phi_shift(config)
                self.expect(",")
                target = self.field("precision", lambda: self.group_element(group))
                return phi, shift, target

            phi, shift, target = self.enclosed("{", body)
            d = derivations.make_phi_derivation(phi, shift)
            return derivations.exp_derivation(d, target)
        if name == "compose":
            parts = self.enclosed(
                "(", lambda: self.separated(lambda: self.automorphism(config))
            )
            return automorphisms.compose_aut(parts)
        if name == "inverse":
            inner = self.enclosed("(", lambda: self.automorphism(config))
            return automorphisms.invert_aut(inner)
        raise ParseError(f"unknown automorphism spec {name!r}", pos)


def _expression_inverse(rhs: Series, config: SessionConfig) -> Series:
    if config.precision is not None:
        return rhs.invert(config.precision)
    if len(rhs.terms) == 1 and rhs.precision is None:
        g, c = rhs.terms[0]
        return Series.monomial(rhs.group, -g, 1 / c)
    raise InsufficientPrecision(
        "division by a non-monomial needs a finite session precision"
    )


# -- public entry points -----------------------------------------------------


def _run(text: str, action):
    parser = _Parser(text)
    result = action(parser)
    parser.done()
    return result


def parse_group_element(text: str, group: GroupDescriptor) -> GroupElement:
    return _run(text, lambda p: p.group_element(group))


def parse_series(text: str, config: SessionConfig) -> Series:
    return _run(text, lambda p: p.series(config))


def parse_expression(text: str, config: SessionConfig) -> Series:
    return _run(text, lambda p: p.expression(config))


def parse_derivation(text: str, config: SessionConfig):
    return _run(text, lambda p: p.derivation(config))


def load_aut_spec(text: str, config: SessionConfig) -> automorphisms.Automorphism:
    return _run(text, lambda p: p.automorphism(config))


def parse_sample_list(text: str, group: GroupDescriptor) -> list[GroupElement]:
    """Semicolon-separated group elements (commas belong to lex tuples)."""

    return _run(text, lambda p: p.separated(lambda: p.group_element(group), ";"))


# -- formatting --------------------------------------------------------------


def format_number(q) -> str:
    """``str`` of an int or ``Fraction``, refused past the digits it writes."""
    try:
        return str(q)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ResultTooLong(f"a result number has more than {limit} digits") from None


def _number_in_message(q) -> str:
    """``str`` of an int or ``Fraction`` in an error message, where an
    integer part longer than ``str`` writes shows its digit count, so that
    building the message cannot replace the refusal with another."""
    shown = []
    for n in (q.numerator,) if q.denominator == 1 else (q.numerator, q.denominator):
        try:
            shown.append(str(n))
        except ValueError:
            shown.append(f"{'-' if n < 0 else ''}<{_digit_count(n)} digits>")
    return "/".join(shown)


def _digit_count(n: int) -> int:
    """The decimal digits of ``abs(n)`` without ``str``: the first guess,
    from the bit length, is never above the count."""
    n = abs(n) or 1  # 0 has one digit, as 1 does
    digits = (n.bit_length() - 1) * 30102 // 100000 + 1  # 0.30102 < log10(2)
    while 10**digits <= n:
        digits += 1
    return digits


def format_group_element(g: GroupElement, number=format_number) -> str:
    """``g`` as the parser reads it, each number written by ``number``."""
    kind = g.descriptor.kind
    if kind == "LexPower":
        return "(" + ",".join(map(number, g.value)) + ")"
    if kind == "SurrealDepth" and g.descriptor.param >= 1:
        return "[" + format_series(g.value, number=number) + "]"
    return number(g.value)


def format_series(
    s: Series, config: SessionConfig | None = None, number=format_number
) -> str:
    """``s`` as the parser reads it in the notation of ``config``, each
    number written by ``number``."""
    omega = config is not None and config.notation == "w"
    base = "w" if omega else "t"
    # the text is one to one: only the zero exponent is written as zero is
    zero = format_group_element(groups.zero(s.group), number)
    pieces = []
    for ex, c in s.terms:
        shown = format_group_element(-ex if omega else ex, number)
        size = abs(c)
        if shown == zero:
            body = number(size)
        else:
            prefix = "" if size == 1 else number(size) + "*"
            body = f"{prefix}{base}^({shown})"
        pieces.append((c < 0, body))
    if not pieces:
        out = "0"
    else:
        negative, body = pieces[0]
        out = ("-" if negative else "") + body
        for negative, body in pieces[1:]:
            out += (" - " if negative else " + ") + body
    if s.precision is not None:
        shown = -s.precision if omega else s.precision
        out += f" (mod {base}^({format_group_element(shown, number)}))"
    return out
