"""Exact truncated Hahn-series arithmetic over pluggable ordered value
groups, with an automorphism workbench (characters, external and internal
factors, derivation exponentials) and a textual front end."""

from .errors import (
    DescriptorMismatch,
    DivisionByZero,
    DomainError,
    ExponentParseError,
    HahnError,
    InsufficientPrecision,
    InvalidMap,
    NonContracting,
    NonTerminating,
    NotInfinitesimal,
    NotInternal,
    NotOneAut,
    OutsideSpan,
    ParseError,
    ResultTooLong,
    SampleInsufficiency,
    UnmappedExponent,
    ZeroArgument,
    ZeroSeries,
)
from .groups import (
    INTEGERS,
    RATIONALS,
    Composite,
    GroupDescriptor,
    GroupElement,
    LinearFunctional,
    PiecewiseLinear,
    PositiveScalar,
    Translation,
    TriangularMatrix,
    arch_compare,
    element,
    embed_rational,
    identity_map,
    lex_power,
    scaling_functional,
    standard_functional,
    surreal_depth,
    zero,
)
from .series import LeadingTerm, Series
from .sampling import CheckResult, SampleSpec, Sampler
from .derivations import (
    MonomialDerivation,
    PhiShift,
    TableRule,
    apply_derivation,
    check_derivation,
    exp_apply,
    exp_derivation,
    make_phi_derivation,
    make_table_derivation,
)
from .automorphisms import (
    Automorphism,
    PartialCharacter,
    ScalingFamily,
    apply_aut,
    classify_aut,
    compose_aut,
    construct_tau,
    construct_theta,
    factorize_aut,
    identity_aut,
    induced_maps,
    invert_aut,
    is_one_aut,
    make_character_lift,
    make_external_field,
    make_external_group,
    make_internal_mult,
)
from .parsing import (
    SessionConfig,
    format_group_element,
    format_series,
    load_aut_spec,
    parse_expression,
    parse_group_element,
    parse_series,
)
from .cli import main, run_command

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
