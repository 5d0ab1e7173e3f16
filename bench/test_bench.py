"""Tests of the benchmark itself.  Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from hahnaut.series import Series  # noqa: E402

NAMES = list(workloads.WORKLOADS)


# -- generators ---------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_batches_are_deterministic_per_seed(name):
    cls = workloads.WORKLOADS[name]
    assert cls(11).batch(0) == cls(11).batch(0)
    assert cls(11).batch(1) == cls(11).batch(1)


@pytest.mark.parametrize("name", NAMES)
def test_batches_differ_across_seeds_and_batches(name):
    cls = workloads.WORKLOADS[name]
    first = cls(11).batch(0)
    assert first != cls(12).batch(0)
    assert first != cls(11).batch(1)


# -- oracles against hand-computed cases ----------------------------------------


def test_geometric_inverse():
    one_minus_t = oracle.Laurent(0, [1, -1])
    assert oracle.inverse(one_minus_t, 6).terms() == {k: 1 for k in range(6)}


def test_inverse_of_a_laurent_monomial_times_a_unit():
    # 1/(2t^-1 + 2) = t/2 * 1/(1+t) = t/2 - t^2/2 + t^3/2 below t^4
    s = oracle.Laurent(-1, [2, 2])
    half = Fraction(1, 2)
    assert oracle.inverse(s, 4).terms() == {1: half, 2: -half, 3: half}


def test_difference_of_squares():
    product = oracle.Laurent(0, [1, 1]) * oracle.Laurent(0, [1, -1])
    assert product.terms() == {0: 1, 2: -1}


def test_exp_of_t_d_dt_shift_one_is_t_over_one_minus_t():
    # D(t^k) = k t^(k+1); exp(D)(t) = t/(1-t)
    image = oracle.exp_phi_shift(oracle.Laurent(1, [1]), 1, 1, 5)
    assert image.terms() == {1: 1, 2: 1, 3: 1, 4: 1}


def test_exp_of_t_squared():
    # exp(D)(t^2) = (t/(1-t))^2 = t^2 + 2t^3 + 3t^4 + ...
    image = oracle.exp_phi_shift(oracle.Laurent(2, [1]), 1, 1, 5)
    assert image.terms() == {2: 1, 3: 2, 4: 3}


def test_printer_matches_the_readme_notation():
    half = Fraction(1, 2)
    assert oracle.show_series([(0, 1), (2, -1)], 0) == "1 - t^(2)"
    lex = [((1, 0), 1), ((1, 2), -Fraction(3, 2))]
    assert oracle.show_series(lex, 0) == "t^((1,0)) - 3/2*t^((1,2))"
    w = [(oracle.negate_exponent(e), c) for e, c in [(Fraction(-1), 1), (Fraction(1), 2)]]
    assert oracle.show_series(w, 0, base="w") == "w^(1) + 2*w^(-1)"
    surreal1 = [(((Fraction(0), Fraction(2)), (Fraction(1), Fraction(1))), 1)]
    assert oracle.show_series(surreal1, 1) == "t^([2 + t^(1)])"
    assert oracle.show_series([((), half), (((Fraction(3), Fraction(1)),), -1)], 1) == \
        "1/2 - t^([t^(3)])"


def test_nested_order():
    t = ((Fraction(1), Fraction(1)),)  # t^1 as a surreal1 exponent
    two = ((Fraction(0), Fraction(2)),)
    # 2 < t^1 is false: the difference 2 - t has leading term +2 at t^0
    assert oracle.compare_exponent(two, t, 1) == 1
    assert oracle.compare_exponent((), t, 1) == -1
    assert oracle.sort_terms([(t, 1), ((), 1), (two, 1)], 1) == [((), 1), (t, 1), (two, 1)]


def test_induced_table_of_the_readme_factorization():
    # compose(character{1: 2}, external_field{tau: scalar(2)}): t^g -> 4^g t^(2g)
    rows = workloads.induced_table([("character", Fraction(2)), ("scale", Fraction(2))])
    assert rows[4] == (Fraction(2), Fraction(4), Fraction(16))
    assert rows[0] == (Fraction(-2), Fraction(-4), Fraction(1, 16))


# -- the loop counts wrong answers ------------------------------------------------

CHEAP = {  # item index of a cheap item in batch 0
    "kernel-sparse": 0,
    "kernel-dense": 0,
    "workbench": 2,  # check_derivation of a phi-shift rule
    "cli": 0,
}


def _corrupt(name, item):
    if name == "kernel-sparse":
        item.expected = ((False,) + item.expected[0][1:],) + item.expected[1:]
    elif name == "kernel-dense":
        ca, cb = item.expected
        item.expected = ([ca[0] + 1] + ca[1:], cb)
    elif name == "workbench":
        item.expected = (("fail", "pass", "pass"), None)
    else:
        code, out, err = item.expected
        item.expected = (code, out.replace("2", "3"), err)


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_expectation_counts_as_failed(name):
    wl = workloads.WORKLOADS[name](5)
    batch = wl.batch(0)
    item = batch[CHEAP[name]]
    clean = worker.Loop(wl, [item])
    clean.run_one(item)
    assert clean.summary()["failed"] == 0
    _corrupt(name, item)
    loop = worker.Loop(wl, [item])
    loop.run_one(item)
    summary = loop.summary()
    assert summary["failed"] == 1 and summary["attempted"] == 1


def test_latencies_are_scaled_by_the_probes_around_them(monkeypatch):
    speeds = iter([2, 2, 4, 4, 4, 4, 4, 4])  # times the reference probe time
    monkeypatch.setattr(worker, "PROBE_EVERY_S", 0.0)
    monkeypatch.setattr(worker, "HARD_LIMIT_FACTOR", 1e12)
    monkeypatch.setattr(worker, "machine_probe",
                        lambda: next(speeds) * worker.REFERENCE_PROBE_S)
    wl = workloads.KernelDense(5)
    loop = worker.Loop(wl, wl.batch(0))
    loop.for_seconds(1e-9, 3)
    assert len(loop.latencies) == 3
    for dt, scaled, probe_mean in zip(loop.latencies, loop.scaled, (2, 3, 4)):
        assert scaled == pytest.approx(dt / probe_mean)


def test_unexpected_exception_counts_as_failed():
    wl = workloads.KernelSparse(5)
    item = wl.batch(0)[0]
    g, _, b, c, s = item.args[0]
    item.args = ((g, None, b, c, s),) + item.args[1:]
    loop = worker.Loop(wl, [item])
    loop.run_one(item)
    assert loop.summary()["failed"] == 1


# -- tracer -------------------------------------------------------------------------


def test_self_times_sum_to_the_item_wall_and_uninstall_restores():
    import hahnaut
    from hahnaut import groups, parsing

    make, element, fmt = Series.__dict__["make"], groups.element, parsing.format_series
    t = tracer_mod.Tracer()
    t.install()
    try:
        assert groups.element is not element and hahnaut.format_series is not fmt
        walls = []
        for name in ["kernel-sparse", "cli", "workbench"]:
            wl = workloads.WORKLOADS[name](3)
            t.begin(-1)
            first = wl.batch(0)[:8]
            t.end()
            loop = worker.Loop(wl, first, 0, t)
            for item in loop.first_batch:
                walls.append(loop.run_one(item, len(walls)))
            assert loop.summary()["failed"] == 0
    finally:
        t.uninstall()
    assert Series.__dict__["make"] is make and groups.element is element
    assert hahnaut.format_series is fmt and parsing.format_series is fmt
    assert t.self_sum_violations(walls) == 0
    metrics = t.metrics(1.0)
    assert list(metrics) == [name for name, _, _ in tracer_mod.metric_names()]
    assert metrics["series.make.calls"] > 0 and metrics["cli.run_command.calls"] == 8
    assert metrics["automorphisms.apply_aut.per_certificate"] > 0
    assert 0.5 < sum(metrics[f"{layer}.self_share"] for layer in tracer_mod.LAYERS) <= 1.0


# -- the contract with BENCHMARK.json ------------------------------------------------


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracer_mod.metric_names()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
