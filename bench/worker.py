"""One benchmark process: set up a workload, run its closed loop, report JSON.

Started by ``run.py`` in a fresh interpreter, so that import and set-up are
part of what it measures.  Set-up is the import, the workload's fixed
inputs and its first batch; ``setup_s`` runs from the parent's spawn to
the end of it.  Then, by mode:

* ``run``   -- the untraced loop for ``--seconds``;
* ``trace`` -- an untraced loop over the first items, then the same items
  again under the tracer, for the per-layer metrics and the overhead.

The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

MIN_ITEMS = 100  # so that >= 10 samples lie beyond the 90th percentile
PROBE_EVERY_S = 0.02  # a machine-speed probe after the item that passes this much wall
# The probe's time on this benchmark's reference machine (2-CPU shared Xeon,
# Python 3.11.7, uncontended).  Latencies are scaled to that speed.
REFERENCE_PROBE_S = 0.25e-3
HARD_LIMIT_FACTOR = 4  # a loop never runs longer than this many --seconds
TRACE_UNTRACED_SHARE = 0.35  # share of --seconds for the untraced half of a traced run


def import_program():
    """Import ``hahnaut`` from this checkout's ``src`` and nowhere else."""
    src = (ROOT / "src").resolve()
    if not (src / "hahnaut" / "__init__.py").is_file():
        raise SystemExit(f"no program to measure: {src / 'hahnaut'} is missing")
    sys.path.insert(0, str(src))
    import hahnaut

    if not Path(hahnaut.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"hahnaut was imported from {hahnaut.__file__}, not from {src}")


class Loop:
    """Closed loop, one client: the next item starts when the last ends.

    Only ``workload.run`` is timed.  Generating a later batch and checking an
    output happen outside the timed region.
    """

    def __init__(self, workload, first_batch, first_index=0, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.first_batch = first_batch
        self.first_index = first_index
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.failures: list[str] = []

    def items(self):
        """The first batch, then fresh batches; none is kept once used."""
        batch, b = self.first_batch, self.first_index
        while True:
            yield from batch
            b += 1
            if self.tracer is not None:
                self.tracer.begin(-1)
            batch = self.workload.batch(b)
            if self.tracer is not None:
                self.tracer.end()

    def run_one(self, item, index=0) -> float:
        clock = time.perf_counter
        tracer = self.tracer
        error = None
        t0 = clock()
        if tracer is not None:
            tracer.begin(index)
        try:
            out = self.workload.run(item)
        except Exception as e:  # an unexpected refusal is a failed item
            error = e
        dt = clock() - t0
        if tracer is not None:
            tracer.end()
        self.latencies.append(dt)
        ok = False
        if error is None:
            try:
                ok = self.workload.check(item, out)
            except Exception as e:  # a malformed output is a failed item
                error = e
        if not ok:
            detail = f"{type(error).__name__}: {error}" if error else "wrong answer"
            self.failures.append(f"{item.kind}: {detail}"[:300])
        return dt

    def for_seconds(self, seconds: float, min_items: int):
        """Run items for ``seconds``, probing the machine's speed between them.

        Each latency is also scaled to the reference speed by the mean of the
        probes just before and just after it, in ``self.scaled``.
        """
        start = last = time.perf_counter()
        probes = [machine_probe()]
        window = []  # per item, the index of the probe before it
        for item in self.items():
            self.run_one(item)
            window.append(len(probes) - 1)
            now = time.perf_counter()
            if now - last >= PROBE_EVERY_S:
                probes.append(machine_probe())
                last = time.perf_counter()
            if now - start >= seconds and len(self.latencies) >= min_items:
                break
            if now - start >= HARD_LIMIT_FACTOR * seconds:
                break
        probes.append(machine_probe())
        self.scaled = [scale(dt, probes[w], probes[w + 1])
                       for dt, w in zip(self.latencies, window)]

    def summary(self) -> dict:
        return {
            "attempted": len(self.latencies),
            "failed": len(self.failures),
            "latencies_s": self.latencies,
            "scaled_s": self.scaled,
            "failures": self.failures[:10],
        }


def machine_probe() -> float:
    """Seconds for a fixed integer loop that touches nothing of the program,
    best of three: how fast the machine runs Python at this moment."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        s = 0
        for i in range(4000):
            s += i * i % 7
        best = min(best, time.perf_counter() - t)
    return best


def scale(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` at the reference speed, by the mean of the probes around it."""
    return seconds * 2 * REFERENCE_PROBE_S / (probe_before + probe_after)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("run", "trace"), required=True)
    ap.add_argument("--first-batch", type=int, default=0)
    ap.add_argument("--min-items", type=int, default=MIN_ITEMS)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="the parent's time.perf_counter() just before it started this process")
    args = ap.parse_args(argv)

    import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    first = workload.batch(args.first_batch)
    setup_s = time.perf_counter() - args.spawned_at  # CLOCK_MONOTONIC is system-wide
    result = {"setup_s": setup_s, "probe_s": machine_probe()}
    if args.mode == "run":
        loop = Loop(workload, first, args.first_batch)
        loop.for_seconds(args.seconds, args.min_items)
        result.update(loop.summary())
        result["peak_rss_mb"] = peak_rss_mb()
    else:
        result.update(traced(workload, first, args))
    print(json.dumps(result))
    return 0


def traced(workload, first, args) -> dict:
    import tracer as tracer_mod

    plain = Loop(workload, first, args.first_batch)
    plain.for_seconds(TRACE_UNTRACED_SHARE * args.seconds, args.min_items)
    n = len(plain.latencies)

    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        tracer.begin(-1)
        first_again = workload.batch(args.first_batch)
        tracer.end()
        again = Loop(workload, first_again, args.first_batch, tracer)
        for index, item in zip(range(n), again.items()):
            again.run_one(item, index)
    finally:
        tracer.uninstall()
    overhead = sum(again.latencies) / sum(plain.latencies)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(path)
    failures = plain.failures + again.failures
    return {
        "attempted": 2 * n,
        "failed": len(failures),
        "failures": failures[:10],
        "metrics": tracer.metrics(overhead),
        "self_sum_violations": tracer.self_sum_violations(again.latencies),
        "spans": len(tracer.s_fn),
        "spans_dropped": tracer.spans_dropped,
        "spans_file": str(path.relative_to(ROOT)),
    }


if __name__ == "__main__":
    sys.exit(main())
