"""Command-line front end.

Line-oriented ``KEY: value`` reports; deterministic for a fixed argv
(including the seed).  Exit codes: 0 success; 1 a property failure, with
at least one witness printed, or a typed refusal, with ``ERROR: <Type>:
message`` on stderr and no witness; 2 a usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from . import automorphisms, derivations, groups, parsing
from .errors import DomainError, HahnError, ParseError
from .groups import GroupDescriptor
from .sampling import SampleSpec, Sampler, first_counterexample
from .series import Series


class UsageError(Exception):
    pass


def _parse_group(text: str) -> GroupDescriptor:
    """The group named as ``str(GroupDescriptor)`` prints it."""
    m = re.fullmatch(r"Z|Q|lex([1-9][0-9]*)|surreal(0|[1-9][0-9]*)", text)
    if m is None:
        raise UsageError(f"unknown group {text!r} (expected Z, Q, lexN or surrealD)")
    arity, depth = m.groups()
    if arity is None and depth is None:
        return groups.INTEGERS if text == "Z" else groups.RATIONALS
    try:  # an arity above the bound, or more digits than int() reads
        kind = "LexPower" if arity else "SurrealDepth"
        return GroupDescriptor(kind, int(arity or depth))
    except (DomainError, ValueError) as e:
        raise UsageError(str(e)) from None


def _session(args) -> tuple[parsing.SessionConfig, SampleSpec]:
    """The parser's settings and the sampling, read from argv."""
    group = _parse_group(args.group)
    precision = None
    if args.precision is not None:
        precision = parsing.parse_group_element(args.precision, group)
    config = parsing.SessionConfig(group, precision, args.notation)
    try:  # SampleSpec states the rule; a bad flag is a usage error (exit 2)
        samples = SampleSpec(args.seed, args.sample_count)
    except DomainError:
        raise UsageError(
            f"--sample-count must be at least 1, not {args.sample_count}"
        ) from None
    return config, samples


def _print_witness(witness, config):
    print("witness: " + " , ".join(parsing.format_series(w, config) for w in witness))


def _report(items, config) -> int:
    """Print ``name: verdict`` per certificate and the witness under each
    failure; exit code 1 if any failed."""
    failed = False
    for name, result in items:
        print(f"{name}: {result.describe()}")
        if result.status == "fail":
            failed = True
            _print_witness(result.witness, config)
    return 1 if failed else 0


def _require_precision(config):
    if config.precision is None:
        raise UsageError("this command needs a finite --precision")
    return config.precision


def _print_result(s: Series, config, cut: bool = True) -> int:
    """Print the ``RESULT:`` line, with ``s`` cut at --precision if ``cut``:
    ``invert`` reads --precision as its target and ``derive`` ignores it."""
    if cut and config.precision is not None:
        s = s.truncate_to(config.precision)
    print(f"RESULT: {parsing.format_series(s, config)}")
    return 0


def _apply(aut, text: str, config) -> int:
    """Print the image of the series ``text`` under ``aut``, cut at --precision."""
    s = parsing.parse_series(text, config)
    return _print_result(automorphisms.apply_aut(aut, s, config.precision), config)


# -- subcommand bodies -------------------------------------------------------


def _cmd_eval(args, config, spec):
    return _print_result(parsing.parse_expression(args.expr, config), config)


def _cmd_apply(args, config, spec):
    return _apply(parsing.load_aut_spec(args.aut, config), args.series, config)


def _cmd_compose(args, config, spec):
    auts = [parsing.load_aut_spec(text, config) for text in args.auts]
    composed = automorphisms.compose_aut(auts)
    print(f"CLASS: {composed.class_tag}")
    if args.series is not None:
        _apply(composed, args.series, config)
    return 0


def _cmd_invert(args, config, spec):
    target = _require_precision(config)
    s = parsing.parse_series(args.series, config)
    return _print_result(s.invert(target), config, cut=False)


def _cmd_classify(args, config, spec):
    aut = parsing.load_aut_spec(args.aut, config)
    report = automorphisms.classify_aut(aut, spec, config.precision)
    print(f"CLASS: {aut.class_tag}")
    return _report(report.as_items(), config)


def _cmd_factorize(args, config, spec):
    aut = parsing.load_aut_spec(args.aut, config)
    samples = parsing.parse_sample_list(args.samples, config.group)
    result = automorphisms.factorize_aut(aut, args.mode, samples, config.precision)
    print(f"mode: {result.mode}")
    for g, e in result.exponent_map:
        print(
            "map: "
            f"{parsing.format_group_element(g)} -> {parsing.format_group_element(e)}"
        )
    for g, c in result.coefficients:
        print(f"coeff: {parsing.format_group_element(g)} -> {parsing.format_number(c)}")
    return _report(result.certificates, config)


def _cmd_derive(args, config, spec):
    d = parsing.parse_derivation(args.deriv, config)
    s = parsing.parse_series(args.series, config)
    return _print_result(derivations.apply_derivation(d, s), config, cut=False)


def _cmd_exp_deriv(args, config, spec):
    target = _require_precision(config)
    d = parsing.parse_derivation(args.deriv, config)
    aut = derivations.exp_derivation(d, target, verify=spec)
    return _apply(aut, args.series, config)


def _cmd_check_deriv(args, config, spec):
    d = parsing.parse_derivation(args.deriv, config)
    return _report(derivations.check_derivation(d, spec).as_items(), config)


def _cmd_selftest(args, config, spec):
    count = max(spec.count, 20)
    failures = []
    group = config.group

    sampler = Sampler(spec.seed)
    ring = first_counterexample(
        lambda a, b, c: ((a + b) * c).agrees(a * c + b * c),
        ([sampler.series(group) for _ in range(3)] for _ in range(count)),
    )
    if not ring.ok:
        failures.append(("distributivity", ring.witness))
    print(f"ring_axioms: {ring.describe()}")

    views = [parsing.SessionConfig(group, None, notation) for notation in ("t", "w")]
    # both notations check the same samples, drawn from a fresh sampler
    sampler = Sampler(spec.seed)
    samples = [sampler.series(group) for _ in range(count)]
    roundtrip = first_counterexample(
        lambda view, s: parsing.parse_series(parsing.format_series(s, view), view) == s,
        ((view, s) for view in views for s in samples),
    )
    if not roundtrip.ok:
        failures.append(("parser_roundtrip", roundtrip.witness[1:]))
    print(f"parser_roundtrip: {roundtrip.describe()}")

    if group is groups.RATIONALS:
        phi = groups.scaling_functional(group, 1)
        d = derivations.make_phi_derivation(phi, 1)
        target = groups.embed_rational(group, 6)
        t = Series.monomial(group, 1)
        image = derivations.exp_apply(d, t, target)
        oracle = (t * (Series.one(group) - t).invert(target)).truncate_to(target)
        ok = image.agrees(oracle)
        print("exp_derivation_oracle: " + ("pass" if ok else "fail"))
        if not ok:
            failures.append(("exp_derivation_oracle", (t,)))

    for name, witness in failures:
        print(f"failed: {name}")
        _print_witness(witness, config)
    return 1 if failures else 0


# -- argument plumbing -------------------------------------------------------

# (name, body, help, positionals), in ``--help`` order
_COMMANDS = (
    ("eval", _cmd_eval, "evaluate a series expression", ("expr",)),
    ("apply", _cmd_apply, "apply an automorphism", ("aut", "series")),
    ("compose", _cmd_compose, "compose automorphisms", ()),
    ("invert", _cmd_invert, "invert a series", ("series",)),
    ("classify", _cmd_classify, "classification report", ("aut",)),
    ("factorize", _cmd_factorize, "decompose on samples", ("aut",)),
    ("derive", _cmd_derive, "apply a derivation", ("deriv", "series")),
    ("exp-deriv", _cmd_exp_deriv, "apply exp of a derivation", ("deriv", "series")),
    ("check-deriv", _cmd_check_deriv, "check derivation laws", ("deriv",)),
    ("selftest", _cmd_selftest, "run the property suites", ()),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: ``parse_args`` reads it
    and returns a fresh namespace, so every ``run_command`` can share it."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--group", default="Q", help="Z, Q, lexN or surrealD")
    shared.add_argument("--precision", default=None, help="finite precision bound")
    shared.add_argument("--notation", default="t", choices=["t", "w"])
    shared.add_argument("--seed", type=int, default=SampleSpec.seed)
    shared.add_argument("--sample-count", type=int, default=SampleSpec.count)

    parser = argparse.ArgumentParser(
        prog="hahnaut",
        description="Exact Hahn-series arithmetic and automorphism workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, body, summary, positionals in _COMMANDS:
        p = sub.add_parser(name, parents=[shared], help=summary)
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(run=body)
    compose, factorize = sub.choices["compose"], sub.choices["factorize"]
    compose.add_argument("auts", nargs="+")
    compose.add_argument("--on", dest="series", default=None, help="series to apply to")
    factorize.add_argument("--mode", choices=["field", "group"], required=True)
    factorize.add_argument(
        "--samples", required=True, help="semicolon-separated exponents"
    )
    return parser


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.run(args, *_session(args))
    except ParseError as e:
        print(f"PARSE ERROR at offset {e.pos}: {e}", file=sys.stderr)
        return 2
    except UsageError as e:
        print(f"USAGE ERROR: {e}", file=sys.stderr)
        return 2
    except HahnError as e:
        print(f"ERROR: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
