"""Constructors, application, classification and factorization of
automorphisms of the series field and its ordered additive group.

An automorphism is a tree of primitive nodes:

* ``ExternalField(tau)`` -- relabel exponents by an additive
  order-preserving automorphism of the value group (a field automorphism),
* ``CharacterLift(chi)`` -- scale each coefficient by a multiplicative
  character of the value group (internal field automorphism),
* ``InternalMult(u)`` -- multiply by a unit ``1 + eps`` with ``v(eps) > 0``
  (internal group automorphism, not multiplicative),
* ``ExternalGroup(zeta, c)`` -- relabel exponents by an order-preserving
  bijection and rescale coefficients exponent-by-exponent (group
  automorphism),
* ``ExpDerivation(D, p)`` -- exponential of a contracting derivation,
  truncated below ``p`` (leading-term-fixing field automorphism),
* ``Compose`` / ``Inverse`` combinators (composition is right-to-left); the
  identity is the empty composition ``Compose(())``.

Classification is certificate-based: each predicate is evaluated exactly
on a seeded sample below propagated precision, and failures carry a
witness.  Factorization extracts the induced exponent map and leading
coefficient factor on sampled monomials, rebuilds the external part from
those tables and certifies that the residual fixes leading terms.
"""

from __future__ import annotations

from fractions import Fraction

from . import derivations as deriv_mod
from . import groups
from .errors import (
    DescriptorMismatch,
    DomainError,
    HahnError,
    InsufficientPrecision,
    NotInfinitesimal,
    NotInternal,
    NotOneAut,
    SampleInsufficiency,
)
from .groups import GroupDescriptor, GroupElement, Record
from .sampling import (
    CheckResult,
    SampleSpec,
    Sampler,
    canonical_series,
    first_counterexample,
    padded,
)
from .series import Series, _cut, _pmin


# -- coefficient-side factor data ------------------------------------------


class PartialCharacter(Record):
    """Multiplicative character on the integer span of a finite lattice.

    Values are positive rationals (order preservation); evaluation at
    ``sum n_i g_i`` is ``prod values_i ** n_i`` and is exact there.
    """

    descriptor: GroupDescriptor
    lattice: tuple[GroupElement, ...]
    values: tuple[Fraction, ...]
    # the span of the lattice, derived once from ``lattice``
    _span: dict

    def __post_init__(self):
        lattice = tuple(groups.element(self.descriptor, g) for g in self.lattice)
        values = tuple(Fraction(v) for v in self.values)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "values", values)
        if len(lattice) != len(values):
            raise DomainError("lattice and value lists differ in length")
        if any(v <= 0 for v in values):
            raise DomainError("character values must be positive")
        span = groups._span_of(lattice)
        if span is None:
            raise DomainError("character lattice must be Q-linearly independent")
        object.__setattr__(self, "_span", span)

    def __call__(self, g: GroupElement) -> Fraction:
        g = groups.element(self.descriptor, g)
        if not self.lattice:
            return Fraction(1)  # the trivial character is identically 1
        coeffs = groups._span_coefficients(self._span, g)
        if coeffs is None or any(q.denominator != 1 for q in coeffs.values()):
            raise DomainError(f"{g} is not in the integer span of the lattice")
        out = Fraction(1)
        for i, q in coeffs.items():
            out *= self.values[i] ** int(q)
        return out


class ScalingFamily(Record):
    """A positive rescaling per exponent: a default plus finite exceptions.

    No homomorphism law is imposed; the family represents an arbitrary
    coefficient-wise order-preserving scaling.
    """

    descriptor: GroupDescriptor
    default: Fraction = Fraction(1)
    exceptions: tuple[tuple[GroupElement, Fraction], ...] = ()

    def __post_init__(self):
        default = Fraction(self.default)
        exceptions = tuple(
            (groups.element(self.descriptor, g), Fraction(v))
            for g, v in self.exceptions
        )
        object.__setattr__(self, "default", default)
        object.__setattr__(self, "exceptions", exceptions)
        if default <= 0 or any(v <= 0 for _, v in exceptions):
            raise DomainError("scaling factors must be positive")
        for i, (g, _) in enumerate(exceptions):
            if any(key == g for key, _ in exceptions[:i]):
                raise DomainError(f"scaling has two factors for the exponent {g}")

    def __call__(self, g: GroupElement) -> Fraction:
        for key, v in self.exceptions:
            if key == g:
                return v
        return self.default


# -- node types -------------------------------------------------------------


class ExternalField(Record):
    tau: object  # an additive value-group map


class CharacterLift(Record):
    chi: PartialCharacter


class InternalMult(Record):
    unit: Series  # 1 + eps with v(eps) > 0


class ExternalGroup(Record):
    zeta: object  # a monotone value-group map
    scaling: ScalingFamily


class ExpDerivation(Record):
    derivation: deriv_mod.MonomialDerivation
    target: GroupElement


class Theta(Record):
    """Direct-formula field automorphism built from a leading-term-fixing
    automorphism, a character and a group automorphism."""

    sigma: "Automorphism"
    chi: PartialCharacter
    tau: object  # an additive value-group map


class TauBuild(Record):
    """Direct-formula group automorphism built from an internal group
    automorphism, an order bijection and a scaling family."""

    nu: "Automorphism"
    zeta: object  # a monotone value-group map
    scaling: ScalingFamily


class TableMonomial(Record):
    """Monomial action given by a finite table (factorization scaffolding)."""

    entries: tuple[tuple[GroupElement, GroupElement, Fraction], ...]
    # exponent -> (image, factor) and image -> (exponent, factor), derived
    # once from ``entries``
    _forward: dict
    _backward: dict

    def __post_init__(self):
        object.__setattr__(self, "_forward", {g: (e, c) for g, e, c in self.entries})
        object.__setattr__(self, "_backward", {e: (g, c) for g, e, c in self.entries})


class Compose(Record):
    parts: tuple


class Inverse(Record):
    inner: object


class Automorphism(Record):
    group: GroupDescriptor
    node: object

    @property
    def class_tag(self) -> str:
        return "field-aut" if _built_from(self.node, _FIELD_NODES) else "group-aut"


_FIELD_NODES = (ExternalField, CharacterLift, ExpDerivation)


def _expansion(node) -> tuple | None:
    """The nodes a combinator is built from, or None for a primitive node.

    ``Theta`` and ``TauBuild`` expand to the composition their direct
    formulas compute, so a walk sees their character, exponent map and
    scaling parts as well as their inner automorphism.
    """
    if isinstance(node, Compose):
        return node.parts
    if isinstance(node, Inverse):
        return (node.inner,)
    if isinstance(node, Theta):
        return (node.sigma.node, CharacterLift(node.chi), ExternalField(node.tau))
    if isinstance(node, TauBuild):
        return (node.nu.node, ExternalGroup(node.zeta, node.scaling))
    return None


def _built_from(node, kinds: tuple[type, ...]) -> bool:
    """True when every primitive node under ``node`` is one of ``kinds``."""
    parts = _expansion(node)
    if parts is None:
        return isinstance(node, kinds)
    return all(_built_from(p, kinds) for p in parts)


# -- constructors -----------------------------------------------------------


def identity_aut(group: GroupDescriptor) -> Automorphism:
    return Automorphism(group, Compose(()))


def make_external_field(tau) -> Automorphism:  # tau: an additive value-group map
    return Automorphism(tau.descriptor, ExternalField(tau))


def make_character_lift(chi: PartialCharacter) -> Automorphism:
    return Automorphism(chi.descriptor, CharacterLift(chi))


def make_internal_mult(eps: Series) -> Automorphism:
    if eps.terms:
        zero = groups.zero(eps.group)
        if eps.v().compare(zero) <= 0:
            raise NotInfinitesimal(f"v(eps) = {eps.v()} is not positive")
    unit = Series.one(eps.group) + eps
    return Automorphism(eps.group, InternalMult(unit))


def make_external_group(zeta, scaling: ScalingFamily) -> Automorphism:
    if scaling.descriptor is not zeta.descriptor:
        raise DescriptorMismatch("scaling family and exponent map disagree")
    return Automorphism(zeta.descriptor, ExternalGroup(zeta, scaling))


def compose_aut(auts) -> Automorphism:
    auts = list(auts)
    if not auts:
        raise DomainError("cannot compose an empty list")
    group = auts[0].group
    parts = []
    for a in auts:
        if a.group is not group:
            raise DescriptorMismatch("composed automorphisms on different groups")
        if isinstance(a.node, Compose):
            parts.extend(a.node.parts)
        else:
            parts.append(a.node)
    return Automorphism(group, Compose(tuple(parts)))


def _inverse_node(node):
    if isinstance(node, Inverse):
        return node.inner
    if isinstance(node, Compose):
        return Compose(tuple(_inverse_node(p) for p in reversed(node.parts)))
    if isinstance(node, ExpDerivation):
        return ExpDerivation(
            deriv_mod.negate_derivation(node.derivation), node.target
        )
    return Inverse(node)


def invert_aut(a: Automorphism) -> Automorphism:
    return Automorphism(a.group, _inverse_node(a.node))


# -- application ------------------------------------------------------------


def _relabelled(s, exponent, factor) -> Series:
    """``s`` under ``t^e -> factor(e, m) t^m`` with ``m = exponent(e)``, ``None``
    being the identity map or the factor 1.  ``exponent`` rises strictly and
    maps the precision too, and the factors are positive: one cut is left."""
    terms = []
    for e, c in s.terms:
        m = e if exponent is None else exponent(e)
        terms.append((m, c if factor is None else c * factor(e, m)))
    precision = s.precision
    if precision is not None and exponent is not None:
        precision = exponent(precision)
    return Series(s.group, _cut(tuple(terms), precision), precision)


def _apply_node(node, s, inverted, precision, path):
    try:
        return _dispatch(node, s, inverted, precision, path)
    except HahnError as e:
        if getattr(e, "_aut_path", None) is None:
            e._aut_path = ".".join(path) or type(node).__name__
            e.args = (f"at node {e._aut_path}: {e.args[0] if e.args else e}",)
        raise


def _dispatch(node, s, inverted, precision, path):
    if isinstance(node, Inverse):
        return _apply_node(node.inner, s, not inverted, precision, path + ["inverse"])
    if isinstance(node, Compose):
        order = reversed(node.parts) if not inverted else node.parts
        for i, part in enumerate(order):
            s = _apply_node(part, s, inverted, precision, path + [f"compose[{i}]"])
        return s
    if isinstance(node, ExternalField):
        return _relabelled(s, node.tau.backward if inverted else node.tau.forward, None)
    if isinstance(node, CharacterLift):
        chi = node.chi
        factor = (lambda e, m: 1 / chi(e)) if inverted else (lambda e, m: chi(e))
        return _relabelled(s, None, factor)
    if isinstance(node, InternalMult):
        if not inverted:
            return s * node.unit
        return _internal_mult_inverse(node.unit, s, precision)
    if isinstance(node, ExternalGroup):
        if inverted:
            return _relabelled(s, node.zeta.backward, lambda e, m: 1 / node.scaling(m))
        return _relabelled(s, node.zeta.forward, lambda e, m: node.scaling(e))
    if isinstance(node, ExpDerivation):
        d = node.derivation if not inverted else deriv_mod.negate_derivation(
            node.derivation
        )
        return deriv_mod.exp_apply(d, s, node.target)
    if inverted and isinstance(node, (Theta, TauBuild)):
        step = "theta" if isinstance(node, Theta) else "tau"
        return _apply_node(Compose(_expansion(node)), s, True, precision, path + [step])
    if isinstance(node, Theta):
        inner = _relabelled(s, node.tau.forward, lambda e, m: node.chi(m))
        return _apply_node(node.sigma.node, inner, False, precision, path + ["theta"])
    if isinstance(node, TauBuild):
        inner = _relabelled(s, node.zeta.forward, lambda e, m: node.scaling(e))
        return _apply_node(node.nu.node, inner, False, precision, path + ["tau"])
    if isinstance(node, TableMonomial):
        if s.precision is not None:
            raise SampleInsufficiency(
                "table reconstructions only apply to exact series"
            )
        table = node._backward if inverted else node._forward
        terms = []
        for ex, c in s.terms:
            if ex not in table:
                raise SampleInsufficiency(f"exponent {ex} is outside the table")
            image, factor = table[ex]
            terms.append((image, c / factor if inverted else c * factor))
        return Series.make(s.group, terms)
    raise DomainError(f"unknown node type {type(node).__name__}")


def _internal_mult_inverse(unit, s, precision):
    bound = _pmin(s.precision, precision)
    eps_free = len(unit.terms) == 1 and unit.precision is None
    if eps_free:
        return s  # unit is exactly 1
    if bound is None:
        raise InsufficientPrecision(
            "inverting an internal multiplication needs a finite precision"
        )
    if s.is_exact_zero():
        return s
    if not s.terms:
        return Series(s.group, (), bound)
    # the inverse unit has valuation 0 and precision bound - v(s), so the
    # product's precision rule cuts it at bound
    inverse_unit = unit.invert(bound - s.v())
    return s * inverse_unit


def apply_aut(a: Automorphism, s: Series, precision=None) -> Series:
    if a.group is not s.group:
        raise DescriptorMismatch(
            f"automorphism on {a.group} applied to series over {s.group}"
        )
    if precision is not None:
        precision = groups.element(a.group, precision)
    return _apply_node(a.node, s, False, precision, [])


# -- the decomposition constructions ---------------------------------------


# Nodes that fix leading terms by construction; the internal ones also
# include multiplication by a unit 1 + eps.
_ONE_AUT_NODES = (ExpDerivation,)
_INTERNAL_NODES = (ExpDerivation, InternalMult)


def _fixes_leading_term(image):
    """The law ``lt(a(s)) == lt(s)`` for ``image(s) = a(s)``, skipping the
    zero series."""

    def law(s):
        if not s.terms:
            return None
        moved = image(s)
        return bool(moved.terms) and moved.leading_term() == s.leading_term()

    return law


def is_one_aut(
    a: Automorphism, spec: SampleSpec = SampleSpec(), precision=None
) -> CheckResult:
    """Sample certificate that ``a`` fixes the leading term of every series."""
    sampler = Sampler(spec.seed)
    draw = lambda: sampler.series(a.group)
    samples = padded(canonical_series(a.group), spec.count, draw)
    return first_counterexample(
        _fixes_leading_term(lambda s: apply_aut(a, s, precision)),
        ((s,) for s in samples),
    )


def _gate(a, name, kinds, error, spec, precision):
    """Refuse ``a`` with ``error`` unless it is built from ``kinds`` alone or
    fixes the leading term of every sample."""
    if not _built_from(a.node, kinds):
        check = is_one_aut(a, spec, precision)
        if not check.ok:
            raise error(f"{name} moves the leading term of {check.witness[0]}")


def construct_theta(
    sigma: Automorphism,
    chi: PartialCharacter,
    tau,  # an additive value-group map
    spec: SampleSpec = SampleSpec(),
    precision=None,
) -> Automorphism:
    if tau.descriptor is not sigma.group or chi.descriptor is not sigma.group:
        raise DescriptorMismatch("sigma, chi and tau act on different groups")
    _gate(sigma, "sigma", _ONE_AUT_NODES, NotOneAut, spec, precision)
    return Automorphism(sigma.group, Theta(sigma, chi, tau))


def construct_tau(
    nu: Automorphism,
    zeta,  # a monotone value-group map
    scaling: ScalingFamily,
    spec: SampleSpec = SampleSpec(),
    precision=None,
) -> Automorphism:
    if zeta.descriptor is not nu.group or scaling.descriptor is not nu.group:
        raise DescriptorMismatch("nu, zeta and the scaling act on different groups")
    _gate(nu, "nu", _INTERNAL_NODES, NotInternal, spec, precision)
    return Automorphism(nu.group, TauBuild(nu, zeta, scaling))


# -- induced maps, classification, factorization ---------------------------


def induced_maps(a: Automorphism, samples, precision=None):
    """For each sample g: the induced exponent image v(a(t^g)) and the
    leading coefficient factor of a(t^g)."""
    return [row for row, _ in _induced(a, samples, precision)]


def _induced(a: Automorphism, samples, precision):
    """``induced_maps`` rows, each with the monomial t^g and its image."""
    out = []
    for g in samples:
        g = groups.element(a.group, g)
        monomial = Series.monomial(a.group, g)
        image = apply_aut(a, monomial, precision)
        lt = image.leading_term()
        out.append(((g, lt.valuation, lt.coefficient), (monomial, image)))
    return out


class ClassifyReport(Record):
    additive: CheckResult
    multiplicative: CheckResult
    order_preserving: CheckResult
    valuation_preserving: CheckResult
    internal: CheckResult
    one_aut: CheckResult

    def failures(self) -> list[str]:
        return [n for n, r in self.as_items() if r.status == "fail"]

    def as_items(self):
        return [(name, getattr(self, name)) for name in self._fields]


def classify_aut(
    a: Automorphism, spec: SampleSpec = SampleSpec(), precision=None
) -> ClassifyReport:
    """Evaluate the classification predicates on a seeded sample.

    Results are sample-relative certificates, not proofs; each failure
    carries the first witness found.  Each sample object is applied once:
    its image is kept with it, keyed by ``id``, and holding the sample
    keeps a temporary such as ``x + y`` from passing its id on.  A raising
    image is not kept, so the same typed error comes from the same sample.
    """
    sampler = Sampler(spec.seed)
    group = a.group
    draw = lambda: sampler.series(group)
    samples = padded(canonical_series(group), max(spec.count, 8), draw)
    base = samples[:4]  # the canonical series, shared with the singles
    pairs = [(a1, a2) for a1 in base for a2 in base]
    pairs = padded(pairs, spec.count, lambda: (draw(), draw()))

    singles = [(x,) for x in samples]
    zero = groups.zero(group)
    images = {}

    def image(s):
        entry = images.get(id(s))
        if entry is None:
            entry = images[id(s)] = (s, apply_aut(a, s, precision))
        return entry[1]

    def order_law(positive):
        img = image(positive)
        return bool(img.terms) and img.terms[0][1] > 0

    def valuation_law(x, y):
        if not x.terms or not y.terms:
            return None
        ix, iy = image(x), image(y)
        if not ix.terms or not iy.terms:
            return False
        return ix.v().compare(iy.v()) == x.v().compare(y.v())

    def internal_law(x):
        if not x.terms:
            return None
        img = image(x)
        if not img.terms or img.v() != x.v():
            return False
        return x.v() != zero or img.terms[0][1] == x.terms[0][1]

    additive = first_counterexample(
        lambda x, y: image(x + y).agrees(image(x) + image(y)), pairs
    )
    multiplicative = first_counterexample(
        lambda x, y: image(x * y).agrees(image(x) * image(y)), pairs
    )
    positives = ((x if x.terms[0][1] > 0 else -x,) for x in samples if x.terms)
    order_preserving = first_counterexample(order_law, positives)
    valuation_preserving = first_counterexample(valuation_law, pairs)
    internal = first_counterexample(internal_law, singles)
    if multiplicative.status == "fail":
        one_aut = CheckResult("n/a", note="not multiplicative")
    else:
        one_aut = first_counterexample(_fixes_leading_term(image), singles)

    return ClassifyReport(
        additive,
        multiplicative,
        order_preserving,
        valuation_preserving,
        internal,
        one_aut,
    )


class FactorizationResult(Record):
    mode: str
    exponent_map: tuple[tuple[GroupElement, GroupElement], ...]
    coefficients: tuple[tuple[GroupElement, Fraction], ...]
    residual: Automorphism
    certificates: tuple[tuple[str, CheckResult], ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for _, r in self.certificates)


def factorize_aut(
    a: Automorphism, mode: str, samples, precision=None
) -> FactorizationResult:
    """Split ``a`` into a table-based external/character part and a
    leading-term-fixing residual, certified on the sampled exponents."""
    if mode not in ("field", "group"):
        raise DomainError(f"unknown factorization mode {mode!r}")
    induced = _induced(a, samples, precision)
    rows = [row for row, _ in induced]
    images = [e for _, e, _ in rows]
    if len(set(images)) != len(images):
        raise SampleInsufficiency("induced exponent map is not injective on samples")
    reconstruction = Automorphism(a.group, TableMonomial(tuple(rows)))
    residual = compose_aut([a, invert_aut(reconstruction)])

    rebuilt = compose_aut([residual, reconstruction])
    table = {g: c for g, _, c in rows}
    # the exponents are distinct (the images are), so these are one per row
    sampled = [monomial for _, (monomial, _) in induced]
    direct = {id(monomial): image for _, (monomial, image) in induced}

    def roundtrip_law(monomial):
        return direct[id(monomial)].agrees(apply_aut(rebuilt, monomial, precision))

    def coefficient_law(x, y):
        g, h = x.v(), y.v()
        if g + h not in table:
            return None
        return table[g + h] == table[g] * table[h]

    roundtrip = first_counterexample(roundtrip_law, ((m,) for m in sampled))
    # t^e has leading term LeadingTerm(e, 1), which the residual must fix.
    residual_check = first_counterexample(
        _fixes_leading_term(lambda s: apply_aut(residual, s, precision)),
        ((Series.monomial(a.group, e),) for e in images),
    )
    label = "residual_one_aut" if mode == "field" else "residual_internal"
    certificates = [("roundtrip", roundtrip), (label, residual_check)]
    if mode == "field":
        mult = first_counterexample(
            coefficient_law,
            ((x, y) for x in sampled for y in sampled),
            note="no sampled sums inside the table",
        )
        certificates.append(("coefficient_multiplicative", mult))

    return FactorizationResult(
        mode,
        tuple((g, e) for g, e, _ in rows),
        tuple((g, c) for g, _, c in rows),
        residual,
        tuple(certificates),
    )
