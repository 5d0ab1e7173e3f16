"""Benchmark entry point for hahnaut.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` it prints the end-to-end metrics of the workload; with
``--trace 1`` the per-layer metrics of a separate traced run.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--workload all`` every workload runs in turn and the
last line maps each workload's name to its object.

This process imports nothing from the program.  It starts fresh
interpreters for everything it times (``worker.py`` and one-line import
probes), so import and set-up are measured the way a user pays them.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from worker import machine_probe, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("kernel-sparse", "kernel-dense", "workbench", "cli")
SEGMENTS = 10  # measuring processes per run, one after another
IMPORTS_PER_SEGMENT = 3  # import probes before each segment
BATCH_STRIDE = 100_000  # segment j starts at batch j * BATCH_STRIDE: fresh items
MIN_ITEMS = 100  # per run, so that >= 10 latencies lie beyond the 90th percentile
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "import_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Times ``import hahnaut`` in a fresh interpreter, between two machine probes
# made in the same process.  It imports nothing else first, so the import
# pays for every module the program needs, as a user's first call does.
IMPORT_PROBE = (
    "import sys, time\n"
    + inspect.getsource(machine_probe)
    + "before = machine_probe()\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import hahnaut\n"
    "seconds = time.perf_counter() - t\n"
    "print(seconds, before, machine_probe())\n"
)


class ChildFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # the same set and dict layouts on every run
    env.pop("PYTHONPATH", None)  # hahnaut comes from this checkout's src only
    # Bytecode caches are written next to the sources by the first import of
    # a run and read by every later one, as for an installed package; with
    # them off, each import would compile the sources again.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def _spawn(argv: list[str], timeout: float) -> str:
    """Run a child to completion and return the last line of its stdout."""
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped it
        raise ChildFailed(f"{' '.join(argv[:4])} ... timed out after {timeout} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"{' '.join(argv[:4])} ... exited with {proc.returncode}\n{proc.stderr.strip()}")
    return lines[-1]


def _worker(args, mode: str, seconds: float, *extra: str) -> dict:
    """Run one ``worker.py``.  Its ``setup_s`` is scaled to the reference
    speed by the machine probes just before the spawn and just after set-up."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode, *extra]
    before = machine_probe()
    spawned_at = time.perf_counter()
    result = json.loads(_spawn(argv + ["--spawned-at", repr(spawned_at)], CHILD_TIMEOUT_S))
    result["scaled_setup_s"] = scale(result["setup_s"], before, result["probe_s"])
    return result


def _import_probe() -> tuple[float, float]:
    """Seconds for ``import hahnaut`` in a fresh interpreter: as measured,
    and scaled by the machine probes just before and just after it."""
    seconds, before, after = map(float, _spawn(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)], 60).split())
    return seconds, scale(seconds, before, after)


def item_metrics(latencies: list[float], failed: int) -> dict:
    return {
        "items_per_s": (len(latencies) - failed) / sum(latencies),
        "item_p50_ms": statistics.median(latencies) * 1e3,
        "item_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
    }


def measure(args) -> dict:
    """Untraced run: SEGMENTS measuring processes of seconds/SEGMENTS each,
    with import probes before each, so that every metric samples the whole
    run rather than one stretch of it.

    Every time metric is scaled to the reference machine speed (see
    ``worker.machine_probe``): on a shared machine, neighbours can slow a run
    by up to 1.7x for stretches as long as a run (bench/README.md, Noise),
    and the scaling takes most of that out.  The table prints the unscaled
    figures beside them."""
    _import_probe()  # the first import may write bytecode caches
    imports, setups, latencies, raw, failures, rss = [], [], [], [], [], []
    raw_imports, raw_setups = [], []
    failed = 0
    for j in range(SEGMENTS):
        for _ in range(IMPORTS_PER_SEGMENT):
            seconds, scaled = _import_probe()
            raw_imports.append(seconds)
            imports.append(scaled)
        part = _worker(args, "run", args.seconds / SEGMENTS,
                       "--first-batch", str(j * BATCH_STRIDE),
                       "--min-items", str(-(-MIN_ITEMS // SEGMENTS)))
        setups.append(part["scaled_setup_s"])
        raw_setups.append(part["setup_s"])
        latencies += part["scaled_s"]
        raw += part["latencies_s"]
        failed += part["failed"]
        failures += part["failures"]
        rss.append(part["peak_rss_mb"])
    attempted = len(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "import_s": statistics.median(imports),
        **item_metrics(latencies, failed),
        # the median process: a process's peak now and then steps up by
        # ~0.7 MB (one more arena), which made the largest jump between runs
        "peak_rss_mb": statistics.median(rss),
    }
    unscaled = {"setup_s": statistics.median(raw_setups),
                "import_s": statistics.median(raw_imports), **item_metrics(raw, failed)}
    print(f"== {args.workload}  seed {args.seed}  {args.seconds:g} s  "
          f"closed loop, 1 client  ({attempted} items timed)")
    for name, value in values.items():
        note = f"  (unscaled {unscaled[name]:.6f})" if name in unscaled else ""
        print(f"  {name:<14} {value:>14.6f} {END_TO_END_UNITS[name]}{note}")
    print(f"  {'failed_frac':<14} {failed / attempted:>14.6f} ratio  "
          f"({failed} of {attempted} items wrong or refused)")
    print(f"  set-up samples {len(setups)}, import samples {len(imports)}, "
          f"latency samples {len(latencies)} ({len(latencies) // 10} beyond p90)")
    for line in failures[:10]:
        print(f"  FAILED {line}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
    }


def trace(args) -> dict:
    result = _worker(args, "trace", args.seconds)
    metrics = result["metrics"]
    units = {name: unit for name, unit, _ in tracer.metric_names()}
    print(f"== {args.workload}  seed {args.seed}  traced  ({result['attempted']} items, "
          f"{result['spans']} spans, {result['spans_dropped']} dropped -> {result['spans_file']})")
    print(f"  tracing overhead: traced / untraced item wall on the same items = "
          f"{metrics['trace.overhead']:.3f}")
    rel, absolute = tracer.SELF_SUM_TOLERANCE
    print(f"  items whose self times miss the item wall by more than "
          f"max({rel:.0%}, {absolute * 1e6:.0f} us): {result['self_sum_violations']}")
    for layer in tracer.LAYERS:
        print(f"  {layer:<14} self_share {metrics[f'{layer}.self_share']:.4f}")
        for t in tracer.TARGETS:
            if t[0] == layer and metrics[f"{layer}.{t[1]}.calls"]:
                print(f"    {t[1]:<28} calls {metrics[f'{layer}.{t[1]}.calls']:>9}  "
                      f"self {metrics[f'{layer}.{t[1]}.self_ms']:>11.3f} ms")
    for name, unit, _ in tracer.RATIOS:
        print(f"  {name:<42} {metrics[name]:.4f} {unit}")
    print("  errors raised: " + ", ".join(
        f"{k.split('.')[-1]} {v}" for k, v in metrics.items() if k.startswith("errors.raised")))
    for line in result["failures"]:
        print(f"  FAILED {line}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "hahnaut" / "__init__.py").is_file():
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 2
    step = trace if args.trace else measure
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            args.workload = name
            results[name] = step(args)
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(results if len(names) > 1 else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
