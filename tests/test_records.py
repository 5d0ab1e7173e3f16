"""``groups.Record`` against an independent oracle: for every value type
of the package, a frozen ``dataclasses.make_dataclass`` twin with the same
fields and defaults.  On sample instances of every type, equality, hash,
repr, immutability, the constructor's argument handling and the copy,
deepcopy and pickle round trips match the twin's, and round trips keep the
one descriptor per group."""

import copy
import dataclasses
import importlib
import pickle
from fractions import Fraction

import pytest

from hahnaut import (
    INTEGERS,
    RATIONALS,
    CheckResult,
    LinearFunctional,
    PartialCharacter,
    PiecewiseLinear,
    PositiveScalar,
    SampleSpec,
    ScalingFamily,
    Series,
    SessionConfig,
    Translation,
    TriangularMatrix,
    check_derivation,
    classify_aut,
    compose_aut,
    construct_tau,
    construct_theta,
    element,
    exp_derivation,
    factorize_aut,
    identity_aut,
    invert_aut,
    lex_power,
    make_character_lift,
    make_external_field,
    make_external_group,
    make_internal_mult,
    make_phi_derivation,
    make_table_derivation,
    standard_functional,
    surreal_depth,
)
from hahnaut.errors import HahnError
from hahnaut.groups import Composite, GroupDescriptor, Record

MODULES = ("groups", "series", "sampling", "derivations", "automorphisms", "parsing")

LEX2 = lex_power(2)
SURREAL1 = surreal_depth(1)


def record_types() -> list[type]:
    """Every ``Record`` subclass the package's modules define."""
    found = []
    for name in MODULES:
        module = importlib.import_module(f"hahnaut.{name}")
        found += [
            cls
            for cls in vars(module).values()
            if isinstance(cls, type)
            and issubclass(cls, Record)
            and cls is not Record
            and cls.__module__ == module.__name__
        ]
    return found


def sample_records() -> list:
    """Instances of every record type, at least two of most, some of them
    equal without being the same object."""
    q = Fraction
    half = element(RATIONALS, q(1, 2))
    lex = element(LEX2, (1, -2))
    deep = element(SURREAL1, Series.make(RATIONALS, [(q(-1), 3), (2, q(1, 5))]))
    s = Series.make(RATIONALS, [(0, 1), (half, q(-2, 3))])
    cut = Series.make(LEX2, [((0, 0), 2), ((0, 1), 1)], (1, 0))
    scalar = PositiveScalar(RATIONALS, 2)
    bend = PiecewiseLinear((0, 1), (1, 2, 3), q(1, 4))
    chi = PartialCharacter(LEX2, ((1, 0), (0, 1)), (2, q(1, 3)))
    scaling = ScalingFamily(RATIONALS, 2, ((0, 3),))
    phi = standard_functional(LEX2, [1, 2])
    d = make_phi_derivation(phi, (1, 0))
    q_exp = exp_derivation(make_phi_derivation(standard_functional(RATIONALS, [1]), 1), 4)
    table = make_table_derivation(RATIONALS, {1: Series.monomial(RATIONALS, 2)}, 1)
    mult = make_internal_mult(Series.monomial(RATIONALS, 1))
    lift = make_character_lift(chi)
    spec = SampleSpec(3, 8)
    factorized = factorize_aut(make_external_field(scalar), "field", [0, 1, 2])
    return [
        INTEGERS,
        RATIONALS,
        LEX2,
        SURREAL1,
        half,
        element(RATIONALS, q(1, 2)),
        element(RATIONALS, 1),
        element(INTEGERS, 1),  # equal values, another group
        lex,
        deep,
        phi,
        LinearFunctional(SURREAL1, ((deep, 3),)),
        Translation(half),
        Translation(lex),
        bend,
        PiecewiseLinear((0, 1), (1, 2, 3)),
        scalar,
        PositiveScalar(RATIONALS, 2),
        TriangularMatrix(LEX2, ((1, 0), (3, 2))),
        Composite((scalar, bend)),
        s.leading_term(),
        cut.leading_term(),
        s,
        Series.make(RATIONALS, [(0, 1), (half, q(-2, 3))]),
        cut,
        Series(SURREAL1, ((deep, q(1)),)),
        Series(RATIONALS),
        Series(INTEGERS),
        SampleSpec(),
        spec,
        CheckResult("pass"),
        CheckResult("fail", (s,)),
        CheckResult("n/a", note="no sample evaluated"),
        d.rule,
        d,
        table.rule,
        table,
        check_derivation(table, spec),
        chi,
        scaling,
        ScalingFamily(RATIONALS),
        *(
            a.node
            for a in (
                make_external_field(scalar),
                lift,
                mult,
                make_external_group(Translation(half), scaling),
                q_exp,
                construct_theta(q_exp, PartialCharacter(RATIONALS, (), ()), scalar),
                construct_tau(mult, scalar, scaling),
                invert_aut(lift),
                identity_aut(LEX2),
                compose_aut([lift, lift]),
            )
        ),
        factorized.residual.node.parts[-1].inner,  # a TableMonomial
        mult,
        factorized.residual,
        classify_aut(mult, spec),
        factorized,
        SessionConfig(),
        SessionConfig(LEX2, element(LEX2, (2, 0)), "w"),
    ]


SAMPLES = sample_records()


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record)._fields)


def twin_type(cls: type) -> type:
    """The frozen dataclass with ``cls``'s fields and defaults; identity
    equality for ``GroupDescriptor``, which has one instance per group."""
    spec = [
        (name, object, dataclasses.field(default=cls.__dict__[name]))
        if name in cls.__dict__
        else (name, object)
        for name in cls._fields
    ]
    return dataclasses.make_dataclass(
        cls.__name__, spec, frozen=True, eq=cls is not GroupDescriptor
    )


TWINS = {cls: twin_type(cls) for cls in record_types()}
_twin_of_instance = {}


def twin(record):
    """The twin of ``record``: one per object, as ``GroupDescriptor``
    equality is identity."""
    key = id(record)
    if key not in _twin_of_instance:
        _twin_of_instance[key] = (record, TWINS[type(record)](*fields(record)))
    return _twin_of_instance[key][1]


def test_every_record_type_is_sampled():
    types = record_types()
    assert len(types) == 32 and set(Record.__subclasses__()) == set(types)
    assert {type(r) for r in SAMPLES} == set(types)


def test_no_record_inherits_from_another():
    assert all(cls.__bases__ == (Record,) for cls in record_types())


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_equality_hash_and_repr_match_the_twin(record):
    assert repr(record) == repr(twin(record))
    if isinstance(record, GroupDescriptor):  # the twin is another object
        assert hash(record) == object.__hash__(record)
    else:
        assert hash(record) == hash(twin(record))
    for other in SAMPLES:
        assert (record == other) == (twin(record) == twin(other))
        assert (record != other) == (twin(record) != twin(other))
    assert record != 0 and (record == (fields(record))) is False


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_records_are_frozen_like_the_twin(record):
    for target in (record, twin(record)):
        for name in (*type(record)._fields, "_span", "unknown"):
            with pytest.raises(AttributeError):
                setattr(target, name, 1)
            with pytest.raises(AttributeError):
                delattr(target, name)
    assert repr(record) == repr(twin(record))


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_constructor_arguments_match_the_twin(record):
    cls, names, values = type(record), type(record)._fields, fields(record)
    Twin = TWINS[cls]
    by_keyword = cls(**dict(zip(names, values)))
    assert by_keyword == record and repr(by_keyword) == repr(record)
    required = [n for n in names if n not in cls.__dict__]
    try:
        defaulted = cls(*values[: len(required)])
    except HahnError:  # the default param 0 of a lex power is no group
        assert cls is GroupDescriptor and record.kind == "LexPower"
    else:
        assert repr(defaulted) == repr(Twin(*values[: len(required)]))
    bad_calls = [
        ((*values, values[0]), {}),  # one argument too many
        (values, {"unknown": 1}),  # an unknown keyword
        (values, {names[0]: values[0]}),  # a field given twice
    ]
    if required:
        bad_calls.append((values[: len(required) - 1], {}))  # a field missing
    for args, kwargs in bad_calls:
        with pytest.raises(TypeError):
            Twin(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def descriptors_in(value):
    """Every ``GroupDescriptor`` reachable through fields and tuples."""
    if isinstance(value, GroupDescriptor):
        yield value
    elif isinstance(value, Record):
        for field_value in fields(value):
            yield from descriptors_in(field_value)
    elif isinstance(value, tuple):
        for item in value:
            yield from descriptors_in(item)


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_copies_and_pickles_keep_fields_state_and_descriptors(record):
    for back in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(back) is type(record) and back == record
        assert repr(back) == repr(record) and hash(back) == hash(record)
        assert vars(back).keys() == vars(record).keys()
        for d in descriptors_in(back):
            assert d is GroupDescriptor(d.kind, d.param)
        if isinstance(record, GroupDescriptor):
            assert back is record
