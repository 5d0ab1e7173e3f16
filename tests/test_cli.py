import json
import re
import sys
import time
from pathlib import Path

import pytest

from hahnaut import cli, parsing
from hahnaut.cli import run_command
from hahnaut.sampling import SampleSpec
from hahnaut.series import Series

# 5 -> 5*t^(5) does not contract, and no sample pair reaches t^5
NON_CONTRACTING_TABLE = (
    "table{map: {1: t^(2), 2: 2*t^(3), 5: 5*t^(5)}, gain: 1, zero_default: true}"
)


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_product(self, capsys):
        code, out, _ = run(capsys, "eval", "(1 + t^(1)) * (1 - t^(1))")
        assert code == 0
        assert out == "RESULT: 1 - t^(2)\n"

    def test_product_of_numbers(self, capsys):
        assert run(capsys, "eval", "2 * 3") == (0, "RESULT: 6\n", "")

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "t^(")
        assert code == 2
        assert "offset 3" in err

    def test_unknown_flag_exits_2(self, capsys):
        assert run_command(["eval", "--bogus", "1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "name",
        [
            "bogus", "lexx", "lex", "surreal", "surrealx",
            # only the names the groups print: N >= 1, D >= 0, ASCII digits
            "lex0", "lex-1", "surreal-1", "lex 2", "lex+2", "lex01",
            "surreal01", "lex\u0662",
        ],
    )
    def test_unknown_group_is_a_usage_error(self, capsys, name):
        code, out, err = run(capsys, "eval", f"--group={name}", "1")
        assert (code, out) == (2, "")
        assert err == (
            f"USAGE ERROR: unknown group '{name}' (expected Z, Q, lexN or surrealD)\n"
        )

    def test_the_largest_lex_arity_is_accepted(self, capsys):
        assert run(capsys, "eval", f"--group=lex{2**20}", "1") == (0, "RESULT: 1\n", "")

    # each is refused before any element is built: no arity between the bound
    # and 2**62 may run, as its zero tuple alone would take gigabytes
    @pytest.mark.parametrize(
        "arity", [2**20 + 1, 99999999999999999999, 9223372036854775808]
    )
    def test_a_lex_arity_above_the_bound_is_a_usage_error(self, capsys, arity):
        assert run(capsys, "eval", f"--group=lex{arity}", "1") == (
            2, "", "USAGE ERROR: LexPower arity must be <= 1048576\n"
        )

    def test_a_depth_too_long_to_read_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "eval", "--group=surreal" + "9" * 4301, "1")
        assert (code, out) == (2, "")
        assert err.startswith("USAGE ERROR: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "name, expr, result",
        [
            ("Z", "t^(2) * t^(3) - 1", "-1 + t^(5)"),
            ("lex12", "t^(1) * t^((0,0,0,0,0,0,0,0,0,0,0,1))",
             "t^((1,0,0,0,0,0,0,0,0,0,0,1))"),
            ("surreal0", "2 - 1/2 + t^(0)", "5/2"),
        ],
    )
    def test_printed_group_names_are_accepted(self, capsys, name, expr, result):
        assert run(capsys, "eval", f"--group={name}", expr) == (
            0, f"RESULT: {result}\n", ""
        )

    @pytest.mark.parametrize(
        "expr, char",
        [("\u00b2", "\u00b2"), ("\u0663 + t^(1)", "\u0663"), ("\uff54^(1)", "\uff54")],
    )
    def test_non_ascii_digits_and_letters_are_parse_errors(self, capsys, expr, char):
        code, out, err = run(capsys, "eval", expr)
        assert (code, out) == (2, "")
        assert err == (
            f"PARSE ERROR at offset 0: unexpected character {char!r} (at offset 0)\n"
        )


    @pytest.mark.parametrize(
        "group, expr, result",
        [
            ("Q", "1 + t^(1) + t^(3)", "1 + t^(1) (mod t^(2))"),
            ("lex2", "1 + t^((1,5)) + t^((2,-1)) + t^((2,0))",
             "1 + t^((1,5)) + t^((2,-1)) (mod t^((2,0)))"),
        ],
    )
    def test_precision_cuts_an_exact_result(self, capsys, group, expr, result):
        argv = ("eval", f"--group={group}", "--precision=2", expr)
        assert run(capsys, *argv) == (0, f"RESULT: {result}\n", "")


class TestApply:
    def test_exp_derivation_example(self, capsys):
        code, out, _ = run(
            capsys,
            "apply",
            "--group=Q",
            "--precision=5",
            "exp_derivation{phi: linear(1), shift: 1, precision: 5}",
            "t^(1)",
        )
        assert code == 0
        assert out == "RESULT: t^(1) + t^(2) + t^(3) + t^(4) (mod t^(5))\n"

    def test_validation_error_exits_1(self, capsys):
        code, _, err = run(capsys, "apply", "internal_mult{eps: 1}", "t^(1)")
        assert code == 1
        assert "NotInfinitesimal" in err

    def test_omega_notation(self, capsys):
        code, out, _ = run(
            capsys, "apply", "--notation=w", "external_field{tau: scalar(2)}", "w^(1)"
        )
        assert code == 0
        assert out == "RESULT: w^(2)\n"


class TestClassify:
    def test_internal_mult_fails_multiplicativity(self, capsys):
        code, out, _ = run(
            capsys,
            "classify",
            "--group=Q",
            "--seed=7",
            "--sample-count=50",
            "internal_mult{eps: t^(1)}",
        )
        assert code == 1
        assert "additive: pass" in out
        assert "multiplicative: fail" in out
        assert "witness: t^(1) , t^(1)" in out
        assert "one_aut: n/a (not multiplicative)" in out

    def test_exp_derivation_all_pass(self, capsys):
        code, out, _ = run(
            capsys,
            "classify",
            "--precision=6",
            "exp_derivation{phi: linear(1), shift: 1, precision: 6}",
        )
        assert code == 0
        assert out.count(": pass") == 6

    def test_trivial_group_all_pass(self, capsys):
        # its series are the constants: no t^1 or t^-1 to sample
        code, out, _ = run(
            capsys, "classify", "--group=surreal0", "--sample-count=5", "identity"
        )
        assert code == 0
        assert out.count(": pass") == 6

    def test_determinism_byte_identical(self, capsys):
        argv = [
            "classify",
            "--group=Q",
            "--seed=7",
            "--sample-count=50",
            "internal_mult{eps: t^(1)}",
        ]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize("count", [0, -3])
    @pytest.mark.parametrize("argv", [["classify", "identity"], ["selftest"]])
    def test_sample_count_below_one_is_a_usage_error(self, capsys, argv, count):
        # exit 1 is a property failure with a witness; a bad flag is exit 2
        assert run(capsys, *argv, f"--sample-count={count}") == (
            2,
            "",
            f"USAGE ERROR: --sample-count must be at least 1, not {count}\n",
        )


class TestInvert:
    def test_geometric_inverse(self, capsys):
        code, out, _ = run(capsys, "invert", "--precision=4", "1 + t^(1)")
        assert code == 0
        assert out == "RESULT: 1 - t^(1) + t^(2) - t^(3) (mod t^(4))\n"

    def test_requires_precision(self, capsys):
        code, _, err = run(capsys, "invert", "1 + t^(1)")
        assert code == 2
        assert "precision" in err


class TestCompose:
    def test_inverse_round_trip(self, capsys):
        code, out, _ = run(
            capsys,
            "compose",
            "--precision=6",
            "internal_mult{eps: t^(1)}",
            "inverse(internal_mult{eps: t^(1)})",
            "--on",
            "1 + t^(-1)",
        )
        assert code == 0
        assert "CLASS: group-aut" in out
        assert "RESULT: t^(-1) + 1 (mod t^(6))" in out

    def test_on_cuts_at_the_precision_as_apply_does(self, capsys):
        aut, series = "internal_mult{eps: t^(1)}", "t^(1) + t^(5)"
        image = "RESULT: t^(1) + t^(2) (mod t^(3))\n"
        assert run(capsys, "apply", "--precision=3", aut, series) == (0, image, "")
        assert run(capsys, "compose", "--precision=3", aut, "--on", series) == (
            0, "CLASS: group-aut\n" + image, ""
        )


class TestFactorize:
    def test_field_mode_tables(self, capsys):
        code, out, _ = run(
            capsys,
            "factorize",
            "--mode=field",
            "--samples=-1; 1/2; 1",
            "compose(character{1: 2}, external_field{tau: scalar(2)})",
        )
        assert code == 0
        assert "map: -1 -> -2" in out
        assert "coeff: 1 -> 4" in out
        assert "roundtrip: pass" in out
        assert "residual_one_aut: pass" in out
        assert "coefficient_multiplicative: pass" in out


class TestDerivations:
    def test_derive(self, capsys):
        code, out, _ = run(
            capsys, "derive", "deriv{phi: linear(1), shift: 1}", "5 + 3*t^(2)"
        )
        assert code == 0
        assert out == "RESULT: 6*t^(3)\n"

    def test_derive_refuses_non_contracting_table_on_truncated_input(self, capsys):
        # 3 -> t^(3/2) falls below 3 + 1/2: t^(1) + t^(3) agrees with the
        # input below t^2 but maps to t^(3/2) + t^(2), so t^(2) (mod t^(5/2))
        # would be unsound
        code, out, err = run(
            capsys,
            "derive",
            "table{map: {1: t^(2), 3: t^(3/2)}, gain: 1/2, zero_default: true}",
            "t^(1) (mod t^(2))",
        )
        assert code == 1
        assert out == ""
        assert err == (
            "ERROR: NonContracting: image of t^3 starts below the certified gain\n"
        )

    def test_check_deriv_negative_control(self, capsys):
        code, out, _ = run(
            capsys, "check-deriv", "table{map: {1: t^(2), 2: t^(3)}, gain: 1}"
        )
        assert code == 1
        assert "leibniz: fail" in out
        assert "witness: t^(1) , t^(1)" in out

    @pytest.mark.parametrize("count", [[], ["--sample-count=1"]])
    def test_check_deriv_never_passes_vacuously(self, capsys, count):
        # Every product of two nonzero samples leaves the table's domain
        # {1}, and pairs with a zero member prove nothing: no pair tests
        # the Leibniz rule.
        code, out, err = run(
            capsys, "check-deriv", *count, "table{map: {1: t^(2)}, gain: 1}"
        )
        assert code == 0
        assert out == (
            "leibniz: n/a (no sample evaluated)\n"
            "contracting: pass\n"
            "additive: pass\n"
        )
        assert err == ""

    @pytest.mark.parametrize(
        "deriv",
        [
            "deriv{phi: linear(1), shift: 1}",
            # the same derivation t^g -> g t^(g+1) on t, t^2 and t^3
            "table{map: {1: t^(2), 2: 2*t^(3), 3: 3*t^(4)}, gain: 1}",
        ],
    )
    def test_exp_deriv_sums_the_exponential(self, capsys, deriv):
        assert run(capsys, "exp-deriv", "--precision=4", deriv, "t^(1)") == (
            0, "RESULT: t^(1) + t^(2) + t^(3) (mod t^(4))\n", ""
        )

    def test_exp_deriv_refuses_broken_table(self, capsys):
        code, _, err = run(
            capsys,
            "exp-deriv",
            "--precision=5",
            "table{map: {1: t^(2), 2: t^(3)}, gain: 1}",
            "t^(1)",
        )
        assert code == 1
        assert "leibniz" in err

    def test_check_deriv_contraction_is_exact(self, capsys):
        # the one sample pair never reaches t^5; the exact law does
        code, out, err = run(
            capsys, "check-deriv", "--sample-count=1", NON_CONTRACTING_TABLE
        )
        assert code == 1
        assert out == (
            "leibniz: pass\n"
            "contracting: fail\n"
            "witness: t^(5)\n"
            "additive: pass\n"
        )
        assert err == ""

    def test_exp_deriv_refuses_non_contracting_table_promptly(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys,
            "exp-deriv",
            "--precision=8",
            "--sample-count=1",
            NON_CONTRACTING_TABLE,
            "t^(5)",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err == (
            "ERROR: DomainError: table derivation fails the contracting check; "
            "refusing to exponentiate\n"
        )

    def test_check_deriv_holds_a_table_to_its_declared_gain(self, capsys):
        # t^1 -> t^2 gains 1, short of the declared 2
        code, out, _ = run(capsys, "check-deriv", "table{map: {1: t^(2)}, gain: 2}")
        assert code == 1
        assert out == (
            "leibniz: n/a (no sample evaluated)\n"
            "contracting: fail\n"
            "witness: t^(1)\n"
            "additive: pass\n"
        )

    def test_check_deriv_contracting_table_passes_contraction(self, capsys):
        code, out, _ = run(
            capsys, "check-deriv", "--seed=7", "table{map: {1: t^(2), 2: t^(3)}, gain: 1}"
        )
        assert code == 1
        assert out == (
            "leibniz: fail\n"
            "witness: t^(1) , t^(1)\n"
            "contracting: pass\n"
            "additive: pass\n"
        )

    def test_exp_deriv_refuses_uncertified_table(self, capsys):
        # check-deriv reports leibniz n/a for this table (above): the gate
        # refuses it, instead of an unmapped exponent stopping it later.
        code, out, err = run(
            capsys,
            "exp-deriv",
            "--precision=5",
            "table{map: {1: t^(2)}, gain: 1}",
            "t^(1)",
        )
        assert code == 1
        assert out == ""
        assert err == (
            "ERROR: DomainError: table derivation is uncertified: no sample "
            "evaluated the leibniz check; refusing to exponentiate\n"
        )


    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["derive", "table{map: {1: t^(2), 1: 3*t^(2)}, gain: 1}", "t^(1)"],
                "table has two entries for the exponent 1",
            ),
            (
                ["apply", "external_group{zeta: identity, scale: 1: 2, 1: 3}", "t^(1)"],
                "scaling has two factors for the exponent 1",
            ),
        ],
    )
    def test_an_exponent_given_twice_is_refused(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", f"ERROR: DomainError: {message}\n")


class TestSelftest:
    @pytest.mark.parametrize("group", ["Q", "lex2", "surreal1"])
    def test_passes(self, capsys, group):
        code, out, _ = run(capsys, "selftest", f"--group={group}")
        assert code == 0
        assert "ring_axioms: pass" in out
        assert "parser_roundtrip: pass" in out

    def test_round_trip_reports_its_first_failure(self, capsys, monkeypatch):
        # reading back fails on 3-term series in t notation and on 2-term
        # ones in w notation: the witness is the first t failure, not a
        # later w one
        parse_series = parsing.parse_series

        def broken(text, config):
            s = parse_series(text, config)
            return -s if len(s.terms) == {"t": 3, "w": 2}[config.notation] else s

        monkeypatch.setattr(parsing, "parse_series", broken)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert out == (
            "ring_axioms: pass\n"
            "parser_roundtrip: fail\n"
            "exp_derivation_oracle: pass\n"
            "failed: parser_roundtrip\n"
            "witness: -2*t^(-2) + 9 - 8*t^(3)\n"
        )

    def test_law_failures_print_their_witnesses(self, capsys, monkeypatch):
        # every agreement fails: distributivity on its first sample, and
        # the exp oracle on t
        monkeypatch.setattr(Series, "agrees", lambda self, other: False)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        lines = out.splitlines()
        for name in ("distributivity", "exp_derivation_oracle"):
            at = lines.index(f"failed: {name}")
            assert lines[at + 1].startswith("witness: ")
        assert lines[-1] == "witness: t^(1)"


def test_sample_flags_default_to_the_sample_spec():
    parse = cli._build_parser().parse_args
    assert cli._session(parse(["selftest"]))[1] == SampleSpec()
    argv = ["selftest", "--seed=3", "--sample-count=9"]
    assert cli._session(parse(argv))[1] == SampleSpec(3, 9)


# Each subcommand with its positionals and the options beyond the shared
# ones, in the top-level help's order.  Whole help texts are not pinned:
# argparse formats them differently across Python versions.
SUBCOMMANDS = {
    "eval": ["expr"],
    "apply": ["aut", "series"],
    "compose": ["[--on SERIES]", "auts [auts ...]"],
    "invert": ["series"],
    "classify": ["aut"],
    "factorize": ["--mode {field,group}", "--samples SAMPLES", "aut"],
    "derive": ["deriv", "series"],
    "exp-deriv": ["deriv", "series"],
    "check-deriv": ["deriv"],
    "selftest": [],
}
SHARED_OPTIONS = [
    "[-h]", "[--group GROUP]", "[--precision PRECISION]", "[--notation {t,w}]",
    "[--seed SEED]", "[--sample-count SAMPLE_COUNT]",
]


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_subcommand_help_names_its_arguments(capsys, name):
    assert run_command([name, "--help"]) == 0
    out = capsys.readouterr().out
    usage = " ".join(out.split("\n\n")[0].split())
    rest = usage.removeprefix(f"usage: hahnaut {name}")
    for word in SHARED_OPTIONS + SUBCOMMANDS[name]:
        assert rest.startswith(" " + word), usage
        rest = rest[len(word) + 1 :]
    assert rest == "", usage


def test_top_level_help_lists_the_subcommands_in_order(capsys):
    assert run_command(["--help"]) == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(SUBCOMMANDS) + "}" in out


# The hand-checked argv corpus the benchmark's cli workload replays.
CLI_EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "cli_expected.json").read_text()
)


@pytest.mark.parametrize(
    "case", CLI_EXPECTED, ids=[str(i) for i in range(len(CLI_EXPECTED))]
)
def test_bench_corpus_replays_byte_for_byte(capsys, case):
    assert run(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


# -- extreme argv -------------------------------------------------------------------
#
# Each input limit at its bound and one past it: a number as long as int()
# reads (``sys.get_int_max_str_digits()``) in every place a number is
# written, a result number as long as str() writes, brackets nested
# ``parsing.MAX_NESTING`` deep in every nesting form, the deepest surreal
# group, whose exponents nest one level less, and runs of unary minus
# signs, which have no limit.  At the bound the command succeeds;
# past it, it is refused with a typed line.  A derandomized slice of a
# contract fuzzer: exit 0, 1 or 2, and the same bytes on a second call.

DIGITS = sys.get_int_max_str_digits()
NESTING = parsing.MAX_NESTING
# 2**POWER has DIGITS digits and 2**(POWER + 1) one more
POWER = next(k for k in range(3 * DIGITS, 4 * DIGITS) if 2 ** (k + 1) >= 10**DIGITS)


def nested(opener, closer, inner, depth):
    return opener * depth + inner + closer * depth


def surreal_nested(depth):
    """A surreal exponent ``depth`` brackets deep, in the group that has them."""
    inner = nested("[t^(", ")]", "1", depth)
    return [f"--group=surreal{depth}", f"t^({inner})"]


# name -> the argv at the limit (``past=0``) or one past it (``past=1``);
# a "refused-" argv is refused either way, by its own type, and past the
# limit its message shows the number that is too long by its digit count
EXTREME_ARGV = {
    "number": lambda past: ["eval", "7" * (DIGITS + past)],
    "denominator": lambda past: ["eval", "1/" + "3" * (DIGITS + past)],
    "exponent": lambda past: ["eval", f"t^({'1' * (DIGITS + past)})"],
    "lex-coordinate": lambda past: [
        "eval", "--group=lex2", f"t^((1,{'2' * (DIGITS + past)}))"
    ],
    "precision": lambda past: ["eval", "--precision=" + "1" * (DIGITS + past), "1"],
    "samples": lambda past: [
        "factorize", "--mode=field", "--samples=" + "9" * (DIGITS + past), "identity"
    ],
    "printed-coefficient": lambda past: ["eval", "9" * (DIGITS - 1 + past) + " * 10"],
    # 55...5 + 55...5 = 11...10, one digit longer
    "printed-lex-exponent": lambda past: [
        "eval", "--group=lex1", " * ".join(["t^((" + "5" * (DIGITS - 1 + past) + "))"] * 2)
    ],
    "printed-character": lambda past: [
        "apply", "character{1: 2}", f"t^({POWER + past})"
    ],
    # 77...7 + 77...7 = 155...54, one digit longer: an exponent of the message
    "refused-lex-exponent": lambda past: [
        "eval", "--group=lex2", "--precision=(1,0)",
        "1/(1 + t^((0,{0})) * t^((0,{0})))".format("7" * (DIGITS - 1 + past)),
    ],
    "printed-factor-coefficient": lambda past: [
        "factorize", "--mode=field", f"--samples={POWER + past}", "character{1: 2}"
    ],
    "parentheses": lambda past: ["eval", nested("(", ")", "1", NESTING + past)],
    "compose": lambda past: [
        "apply", nested("compose(", ")", "identity", NESTING + past), "t^(1)"
    ],
    # the braces of the character are one level
    "inverse": lambda past: [
        "apply", nested("inverse(", ")", "character{1: 2}", NESTING - 1 + past), "t^(1)"
    ],
    # the deepest surreal group reads its deepest exponent and the text its
    # own selftest prints; a deeper group is a usage error
    "surreal-exponent": lambda past: ["eval", *surreal_nested(NESTING - 1 + past)],
    "surreal-depth": lambda past: ["eval", f"--group=surreal{NESTING - 1 + past}", "1"],
    "surreal-selftest": lambda past: ["selftest", f"--group=surreal{NESTING - 1 + past}"],
}


@pytest.mark.parametrize("past", [0, 1], ids=["at-limit", "past-limit"])
@pytest.mark.parametrize("name", list(EXTREME_ARGV))
def test_extreme_argv_succeed_at_their_limit_and_are_refused_past_it(
    capsys, name, past
):
    argv = EXTREME_ARGV[name](past)
    first = run(capsys, *argv)
    code, out, err = first
    assert run(capsys, *argv) == first
    refused = name.startswith("refused")
    if not past and not refused:
        assert (code, err) == (0, ""), err
        return
    assert code in (1, 2)
    lines = err.splitlines()
    assert len(lines) == 1 and re.match(
        r"(ERROR: [A-Za-z]+: |PARSE ERROR at offset \d+: |USAGE ERROR: )", lines[0]
    ), err
    assert ("ResultTooLong" in err) == name.startswith("printed")
    if name.startswith("printed"):
        assert f"more than {DIGITS} digits" in err and code == 1
    if refused:
        assert code == 1 and err.startswith("ERROR: NonTerminating: ")
        assert (f"(0,<{DIGITS + 1} digits>)" in err) == bool(past)


@pytest.mark.parametrize("count", [1, 2, 985, 986, 5001])
def test_runs_of_unary_minus_signs_are_read_without_recursion(capsys, count):
    first = run(capsys, "eval", "--", "-" * count + "1")
    assert first == (0, "RESULT: " + "-" * (count % 2) + "1\n", "")
    assert run(capsys, "eval", "--", "-" * count + "1") == first


def test_nesting_past_the_limit_is_refused_at_the_opening_bracket(capsys):
    text = nested("(", ")", "1", NESTING + 1)
    code, out, err = run(capsys, "eval", text)
    assert (code, out) == (2, "")
    assert err == (
        f"PARSE ERROR at offset {NESTING}: brackets nest deeper than {NESTING} "
        f"levels (at offset {NESTING})\n"
    )


def test_a_functional_left_open_is_refused_at_its_end(capsys):
    # no ':' and no closing bracket follow the values, so they are read as
    # the standard functional's and the missing ')' is reported
    assert run(capsys, "derive", "deriv{phi: linear(1", "t^(1)") == (
        2, "", "PARSE ERROR at offset 19: expected ')' (at offset 19)\n"
    )


def test_an_overlong_number_is_refused_at_its_offset(capsys):
    code, out, err = run(capsys, "eval", "1/" + "3" * (DIGITS + 1))
    assert (code, out) == (2, "")
    assert err == (
        f"PARSE ERROR at offset 2: a number of {DIGITS + 1} digits, past {DIGITS} "
        "(at offset 2)\n"
    )
