"""The four seeded workloads: input generation, the timed call, the check.

A workload yields its items in batches.  Batch ``b`` is drawn from a
stream seeded by ``(seed, b)`` only, so the same seed gives the same items
and every batch brings fresh operands.  ``run`` is the only part that is
timed; ``check`` compares its output with an answer that does not come from
the code under test (see ``oracle.py`` and ``cli_expected.json``).

All calls into ``hahnaut`` go through module attributes, so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from hahnaut import automorphisms, cli, derivations, groups, sampling, series

import oracle

HERE = Path(__file__).resolve().parent


@dataclass
class Item:
    kind: str
    args: tuple
    expected: object


def batch_seed(seed: int, batch: int) -> int:
    return seed * 1_000_003 + batch


def _nonzero(rng: random.Random, lo=-9, hi=9, max_den=4) -> Fraction:
    while True:
        q = Fraction(rng.randint(lo, hi), rng.randint(1, max_den))
        if q:
            return q


# -- kernel-sparse ------------------------------------------------------------


def _series(smp, group, n: int):
    """``Sampler.series`` with exactly ``n`` draws of exponent and coefficient."""
    return series.Series.make(group, [(smp.exponent(group), smp.rational()) for _ in range(n)])


class KernelSparse:
    """Field laws on <=4-term sampled series over Q, lex2, surreal1, surreal2.

    One item checks the laws once in each of the four groups, so every item
    has the same mix: a median over single-group items would sit in the gap
    between the cheap groups (Q, lex2) and the dear ones (surreal1, surreal2).

    An item's cost grows with the product of its operands' term counts, up to
    ~100x from the cheapest to the dearest.  Drawn at random, as
    ``Sampler.series`` draws them, the few dear items that set
    ``item_p90_ms`` moved it by 10% from seed to seed.  So the term counts
    (0..4 each, as ``Sampler.series`` allows) run through all 125 triples
    in one fixed order, a different offset per group, and the seed draws
    the exponents and coefficients.
    """

    name = "kernel-sparse"
    PER_BATCH = 50  # items per batch
    SIZES = list(itertools.product(range(5), repeat=3))  # term counts of a, b, c
    random.Random(0).shuffle(SIZES)

    def __init__(self, seed: int):
        self.seed = seed
        self.groups = (groups.RATIONALS, groups.lex_power(2),
                       groups.surreal_depth(1), groups.surreal_depth(2))
        self.targets = {g: groups.embed_rational(g, 8) for g in self.groups}
        self.ones = {g: series.Series.one(g) for g in self.groups}

    def batch(self, b: int) -> list[Item]:
        smp = sampling.Sampler(batch_seed(self.seed, b))
        items = []
        for k in range(b * self.PER_BATCH, (b + 1) * self.PER_BATCH):
            cases, expected = [], []
            for gi, g in enumerate(self.groups):
                sizes = self.SIZES[(k + 31 * gi) % len(self.SIZES)]
                a, b_, c = (_series(smp, g, n) for n in sizes)
                s = smp.invertible_series(g)
                cases.append((g, a, b_, c, s))
                expected.append((True, True, True if a.terms and b_.terms else None, True))
            items.append(Item("laws", tuple(cases), tuple(expected)))
        return items

    def run(self, item: Item):
        return tuple(self.laws(*case) for case in item.args)

    def laws(self, g, a, b, c, s):
        distributive = ((a + b) * c).agrees(a * c + b * c)
        associative = ((a * b) * c).agrees(a * (b * c))
        sign = None
        if a.terms and b.terms:
            pa = a if a.terms[0][1] > 0 else -a
            pb = b if b.terms[0][1] > 0 else -b
            sign = (pa * pb).sign() > 0
        inverse = (s * s.invert(self.targets[g])).agrees(self.ones[g])
        return (distributive, associative, sign, inverse)

    def check(self, item: Item, out) -> bool:
        return out == item.expected


# -- kernel-dense -------------------------------------------------------------


class KernelDense:
    """One large Q operation per item: mul, invert to t^N or exp_apply to t^N.

    Every operand is dense at t^0..t^(N-1).  The three kinds fall in three
    cost classes that do not overlap (mul < exp < invert), in equal shares,
    so the median item is an exp and the 90th percentile an invert: each
    percentile lies inside a class, not in the gap between two.
    """

    name = "kernel-dense"
    N = 24
    PER_KIND = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.q = groups.RATIONALS
        self.target = groups.embed_rational(self.q, self.N)
        self.deriv = derivations.make_phi_derivation(groups.scaling_functional(self.q, 1), 1)

    def _dense(self, coeffs) -> object:
        return series.Series.make(self.q, list(enumerate(coeffs)))

    def batch(self, b: int) -> list[Item]:
        rng = random.Random(batch_seed(self.seed, b))
        items = []
        for _ in range(self.PER_KIND):
            ca = [_nonzero(rng) for _ in range(self.N)]
            cb = [_nonzero(rng) for _ in range(self.N)]
            items.append(Item("mul", (self._dense(ca), self._dense(cb)), (ca, cb)))
            cu = [Fraction(1)] + [_nonzero(rng) for _ in range(self.N - 1)]
            items.append(Item("invert", (self._dense(cu),), cu))
            cs = [_nonzero(rng) for _ in range(self.N)]
            items.append(Item("exp", (self._dense(cs),), cs))
        return items

    def run(self, item: Item):
        if item.kind == "mul":
            a, b = item.args
            return a * b
        if item.kind == "invert":
            return item.args[0].invert(self.target)
        return derivations.exp_apply(self.deriv, item.args[0], self.target)

    def expected(self, item: Item):
        """(terms, precision) from the dense reference."""
        if item.kind == "mul":
            ca, cb = item.expected
            return (oracle.Laurent(0, ca) * oracle.Laurent(0, cb)).terms(), None
        if item.kind == "invert":
            return oracle.inverse(oracle.Laurent(0, item.expected), self.N).terms(), self.N
        s = oracle.Laurent(0, item.expected)
        return oracle.exp_phi_shift(s, 1, 1, self.N).terms(), self.N

    def check(self, item: Item, out) -> bool:
        terms, precision = self.expected(item)
        got = {}
        for ex, c in out.terms:
            if ex.value.denominator != 1:
                return False
            got[int(ex.value)] = c
        got_precision = None if out.precision is None else out.precision.value
        return got == terms and got_precision == precision


# -- workbench ----------------------------------------------------------------

PASS, FAIL, NA = "pass", "fail", "n/a"

# Verdicts (additive, multiplicative, order_preserving, valuation_preserving,
# internal, one_aut) that each construction fixes.  The canonical samples
# t, 1/t, 1+t, 1/t+1 come first, so every expected failure has a witness.
CLASSIFY_VERDICTS = {
    # exp of a contracting derivation fixes leading terms: a 1-automorphism
    "exp": (PASS,) * 6,
    "inverse-exp": (PASS,) * 6,
    # t^g -> v^g t^g keeps valuations and the constant coefficient, moves t
    "character": (PASS,) * 5 + (FAIL,),
    "inverse-character": (PASS,) * 5 + (FAIL,),
    "exp-character": (PASS,) * 5 + (FAIL,),
    # t -> t^k moves the valuation of t
    "external-field": (PASS, PASS, PASS, PASS, FAIL, FAIL),
    # (1+eps) t^2 differs from (1+eps)^2 t^2
    "internal-mult": (PASS, FAIL, PASS, PASS, PASS, NA),
    # zeta(1) = k and zeta(-1) = -1, so t * 1/t and its image disagree
    "external-group": (PASS, FAIL, PASS, PASS, FAIL, NA),
}

FACTORIZE_SAMPLES = (-2, -1, 0, 1, 2, 3)


class Workbench:
    """Certificates over seeded automorphism composites of every node kind."""

    name = "workbench"
    SAMPLES = 20  # per classify_aut and check_derivation
    ORDER = ("classify:exp", "factorize:field", "check:phi", "roundtrip:field",
             "classify:character", "classify:external-field", "factorize:group",
             "check:table", "classify:internal-mult", "roundtrip:group",
             "classify:external-group", "check:broken-table", "classify:inverse-exp",
             "classify:exp-character", "classify:inverse-character")

    def __init__(self, seed: int):
        self.seed = seed
        self.q = groups.RATIONALS
        self.samples = [groups.embed_rational(self.q, n) for n in FACTORIZE_SAMPLES]
        self.precision = groups.embed_rational(self.q, 8)

    # -- node builders: each returns (automorphism, oracle steps) ----------
    # A step acts on a leading term (g, c) of t^g, as the node does.

    def _exp(self, smp, target):
        phi = groups.scaling_functional(self.q, smp.nonzero_rational())
        aut = derivations.exp_derivation(derivations.make_phi_derivation(phi, 1), target)
        return aut, ("exp", Fraction(target))

    def _character(self, value):
        chi = automorphisms.PartialCharacter(self.q, (groups.embed_rational(self.q, 1),), (value,))
        return automorphisms.make_character_lift(chi), ("character", value)

    def _external_field(self, k):
        aut = automorphisms.make_external_field(groups.PositiveScalar(self.q, k))
        return aut, ("scale", Fraction(k))

    def _internal_mult(self, smp):
        exps = smp.rng.sample((1, 2, 3), smp.rng.randint(1, 2))
        eps = series.Series.make(self.q, [(e, smp.nonzero_rational()) for e in exps])
        return automorphisms.make_internal_mult(eps), ("internal",)

    def _external_group(self, smp):
        k = smp.rng.randint(2, 3)
        default, at_zero = smp.positive_rational(), smp.positive_rational()
        zeta = groups.PiecewiseLinear((Fraction(0),), (Fraction(1), Fraction(k)))
        fam = automorphisms.ScalingFamily(self.q, default, ((groups.embed_rational(self.q, 0), at_zero),))
        return automorphisms.make_external_group(zeta, fam), ("relabel", k, default, at_zero)

    def _field_composite(self, smp, target):
        """Criterion-6 style: one exp node and 0-2 of character and
        scalar(1|2), in seeded order.  A single exp node keeps the item's
        cost in one class; composed exp nodes multiply it."""
        nodes = [self._exp(smp, target)]
        for _ in range(smp.rng.randint(0, 2)):
            if smp.rng.random() < 0.5:
                nodes.append(self._character(smp.positive_rational()))
            else:
                nodes.append(self._external_field(smp.rng.choice([1, 2])))
        smp.rng.shuffle(nodes)
        return automorphisms.compose_aut([a for a, _ in nodes]), [s for _, s in nodes]

    def _group_composite(self, smp):
        nodes = []
        for _ in range(smp.rng.randint(1, 3)):
            if smp.rng.random() < 0.5:
                nodes.append(self._internal_mult(smp))
            else:
                nodes.append(self._external_group(smp))
        return automorphisms.compose_aut([a for a, _ in nodes]), [s for _, s in nodes]

    def _classify_target(self, smp, kind):
        if kind == "exp":
            return self._exp(smp, 8)[0]
        if kind == "inverse-exp":
            return automorphisms.invert_aut(self._exp(smp, 8)[0])
        if kind in ("character", "inverse-character", "exp-character"):
            value = smp.positive_rational()
            while value == 1:
                value = smp.positive_rational()
            aut = self._character(value)[0]
            if kind == "inverse-character":
                return automorphisms.invert_aut(aut)
            if kind == "exp-character":
                return automorphisms.compose_aut([self._exp(smp, 8)[0], aut])
            return aut
        if kind == "external-field":
            return self._external_field(smp.rng.choice([2, 3, Fraction(1, 2), Fraction(3, 2)]))[0]
        if kind == "internal-mult":
            return self._internal_mult(smp)[0]
        return self._external_group(smp)[0]

    def _table(self, smp, broken: bool):
        g = smp.rng.choice([Fraction(1), Fraction(2), Fraction(1, 2)])
        shift = smp.rng.choice([Fraction(1), Fraction(1, 2), Fraction(2)])
        c = smp.nonzero_rational()
        if broken:
            # Leibniz at (t^g, t^g) needs D(t^2g) = 2 c t^(2g+s)
            c1, c2 = c, 2 * c + smp.positive_rational()
            if c2 == 0:
                c2 = 4 * c
        else:
            # the table of t^x -> c x t^(x+s), a derivation on its domain
            c1, c2 = c * g, 2 * c * g
        entries = {
            g: series.Series.monomial(self.q, g + shift, c1),
            2 * g: series.Series.monomial(self.q, 2 * g + shift, c2),
        }
        return derivations.make_table_derivation(self.q, entries, shift), g

    def batch(self, b: int) -> list[Item]:
        smp = sampling.Sampler(batch_seed(self.seed, b))
        items = []
        for entry in self.ORDER:
            kind, variant = entry.split(":")
            spec = sampling.SampleSpec(smp.rng.randint(0, 10**6), self.SAMPLES)
            if kind == "classify":
                aut = self._classify_target(smp, variant)
                items.append(Item(entry, (aut, spec), CLASSIFY_VERDICTS[variant]))
            elif kind == "factorize":
                if variant == "field":
                    aut, steps = self._field_composite(smp, 16)
                    certs = (("roundtrip", PASS), ("residual_one_aut", PASS),
                             ("coefficient_multiplicative", PASS))
                else:
                    aut, steps = self._group_composite(smp)
                    certs = (("roundtrip", PASS), ("residual_internal", PASS))
                items.append(Item(entry, (aut, variant), (induced_table(steps), certs)))
            elif kind == "check":
                expected = ((PASS, PASS, PASS), None)
                if variant == "phi":
                    phi = groups.scaling_functional(self.q, smp.nonzero_rational())
                    shift = smp.rng.choice([Fraction(1), Fraction(1, 2), Fraction(2)])
                    d = derivations.make_phi_derivation(phi, shift)
                else:
                    d, g = self._table(smp, broken=variant == "broken-table")
                    if variant == "broken-table":
                        expected = ((FAIL, PASS, PASS), g)
                items.append(Item(entry, (d, spec), expected))
            else:
                if variant == "field":
                    aut, steps = self._field_composite(smp, 12)
                    precision = None
                else:
                    aut, steps = self._group_composite(smp)
                    precision = self.precision
                s = smp.series(self.q)
                bound = roundtrip_precision(steps, None if precision is None else precision.value, not s.terms)
                items.append(Item(entry, (aut, s, precision), bound))
        return items

    def run(self, item: Item):
        kind = item.kind.split(":")[0]
        if kind == "classify":
            aut, spec = item.args
            return automorphisms.classify_aut(aut, spec)
        if kind == "factorize":
            aut, mode = item.args
            return automorphisms.factorize_aut(aut, mode, self.samples)
        if kind == "check":
            d, spec = item.args
            return derivations.check_derivation(d, spec)
        aut, s, precision = item.args
        image = automorphisms.apply_aut(aut, s, precision)
        return automorphisms.apply_aut(automorphisms.invert_aut(aut), image, precision)

    def check(self, item: Item, out) -> bool:
        kind = item.kind.split(":")[0]
        if kind == "classify":
            return tuple(r.status for _, r in out.as_items()) == item.expected
        if kind == "factorize":
            table, certs = item.expected
            got = [(g.value, e.value, c) for (g, e), (_, c) in zip(out.exponent_map, out.coefficients)]
            return got == table and tuple((n, r.status) for n, r in out.certificates) == certs
        if kind == "check":
            statuses, g = item.expected
            got = (out.leibniz.status, out.contracting.status, out.additive.status)
            if got != statuses:
                return False
            if g is None:
                return True
            t_g = series.Series.monomial(self.q, g)
            return out.leibniz.witness == (t_g, t_g)
        # round trip: the original, below the precision the nodes leave
        _, s, _ = item.args
        if (None if out.precision is None else out.precision.value) != item.expected:
            return False
        return _same_below(out, s)


def _same_below(r, s) -> bool:
    """r and s have the same terms below r's precision (exact when None)."""
    p = None if r.precision is None else r.precision.value
    want = [(e.value, c) for e, c in s.terms if p is None or e.value < p]
    return [(e.value, c) for e, c in r.terms] == want


def roundtrip_precision(steps, bound, zero: bool):
    """Precision of inverse(a)(a(s)) for an exact s; ``bound`` is the
    precision passed to apply_aut.

    Forward, the nodes act right to left: exp truncates below its target,
    scalar(k) and zeta map the bound.  The inverse acts left to right: the
    inverse of internal_mult truncates below ``bound`` (an exact zero stays
    exact), the maps pull the bound back.
    """
    p = None
    for step in reversed(steps):
        if step[0] == "exp":
            p = step[1] if p is None else min(p, step[1])
        elif p is not None and step[0] == "scale":
            p = p * step[1]
        elif p is not None and step[0] == "relabel":
            p = p if p < 0 else step[1] * p
    for step in steps:
        if step[0] == "exp":
            p = step[1] if p is None else min(p, step[1])
        elif step[0] == "internal" and not (zero and p is None):
            p = bound if p is None else min(p, bound)
        elif p is not None and step[0] == "scale":
            p = p / step[1]
        elif p is not None and step[0] == "relabel":
            p = p if p < 0 else p / step[1]
    return p


def induced_table(steps) -> list:
    """(g, image exponent, coefficient factor) of t^g under the composite.

    Steps are listed in composition order and act right to left, each on
    the leading term (g, c): exp and internal keep it, a character
    multiplies c by v^g, scalar(k) sends g to k*g, and external_group sends
    g to zeta(g) and scales c by the family's factor at g.
    """
    rows = []
    for g0 in FACTORIZE_SAMPLES:
        g, c = Fraction(g0), Fraction(1)
        for step in reversed(steps):
            if step[0] == "character":
                c *= step[1] ** int(g)
            elif step[0] == "scale":
                g *= step[1]
            elif step[0] == "relabel":
                _, k, default, at_zero = step
                c *= at_zero if g == 0 else default
                g = g if g < 0 else k * g
        rows.append((Fraction(g0), g, c))
    return rows


# -- cli ----------------------------------------------------------------------


class Cli:
    """In-process ``run_command`` over the hand-written corpus plus seeded
    literals of 100+ terms."""

    name = "cli"

    def __init__(self, seed: int):
        self.seed = seed
        with open(HERE / "cli_expected.json") as f:
            self.fixed = [
                Item(e["argv"][0], tuple(e["argv"]), (e["exit"], e["stdout"], e["stderr"]))
                for e in json.load(f)
            ]

    def batch(self, b: int) -> list[Item]:
        """The fixed corpus, then three fresh literals: lex2 through the
        expression parser (term by term) and lex2 in w-notation and
        surreal2 through the series parser (one normalization)."""
        rng = random.Random(batch_seed(self.seed, b))
        items = list(self.fixed)
        text = oracle.show_series(lex2_terms(rng, rng.randint(100, 120)), 0)
        items.append(_literal_item(("eval", "--group=lex2", text), text))
        lex = lex2_terms(rng, rng.randint(100, 120))
        text = oracle.show_series([(oracle.negate_exponent(e), c) for e, c in lex], 0, base="w")
        items.append(_literal_item(("apply", "--group=lex2", "--notation=w", "identity", text), text))
        text = oracle.show_series(surreal2_terms(rng, rng.randint(100, 110)), 2)
        items.append(_literal_item(("apply", "--group=surreal2", "identity", text), text))
        return items

    def run(self, item: Item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_command(list(item.args))
        return code, out.getvalue(), err.getvalue()

    def check(self, item: Item, out) -> bool:
        return out == item.expected


def _literal_item(argv, text) -> Item:
    """A command whose result is the canonical literal it was given."""
    return Item(f"{argv[0]}-literal", argv, (0, f"RESULT: {text}\n", ""))


def lex2_terms(rng: random.Random, n: int) -> list:
    exps = set()
    while len(exps) < n:
        exps.add((Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2)))))
    return [(e, _nonzero(rng)) for e in sorted(exps)]


def _surreal1(rng: random.Random):
    exps = {Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(rng.randint(1, 2))}
    return tuple((e, _nonzero(rng, -4, 4, 2)) for e in sorted(exps))


def surreal2_terms(rng: random.Random, n: int) -> list:
    """Distinct surreal2 exponents (series over surreal1) in ascending order."""
    exps = set()
    while len(exps) < n:
        inner = {}
        for _ in range(rng.randint(1, 2)):
            inner[_surreal1(rng)] = _nonzero(rng, -4, 4, 2)
        exps.add(tuple(oracle.sort_terms(inner.items(), 1)))
    return oracle.sort_terms([(e, _nonzero(rng)) for e in exps], 2)


WORKLOADS = {w.name: w for w in (KernelSparse, KernelDense, Workbench, Cli)}
