"""Outside-in tracer: wraps the public functions of each ``hahnaut`` module.

Nothing under ``src/`` is edited.  ``install`` replaces every binding of a
target function (the defining module, every module that imported it by
name, and the package namespace) with a wrapper, and ``uninstall`` puts
the originals back.

Each wrapper keeps a stack frame so that self time is exact: a span's self
time is its duration minus the durations of the wrapped calls made inside
it, so the self times of one item sum to the item's root span.  The wall
time the harness measures around an item differs from the root span by the
few steps between their clock reads; ``SELF_SUM_TOLERANCE`` bounds that.

Spans (name, start, end, parent, item) are kept in memory and written at
the end.  Group operations are called hundreds of thousands of times, so
they get no span of their own: their calls and self time are summed per
item instead.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

LAYERS = ("groups", "series", "derivations", "automorphisms", "sampling", "parsing", "cli")

# (layer, metric name, module, owner class or None, attribute)
TARGETS = (
    ("groups", "add", "groups", "GroupElement", "__add__"),
    ("groups", "neg", "groups", "GroupElement", "__neg__"),
    ("groups", "compare", "groups", "GroupElement", "compare"),
    ("groups", "hash", "groups", "GroupElement", "__hash__"),
    ("groups", "eq", "groups", "GroupElement", "__eq__"),
    ("groups", "element", "groups", None, "element"),
    ("groups", "arch_compare", "groups", None, "arch_compare"),
    ("groups", "PiecewiseLinear.forward", "groups", "PiecewiseLinear", "forward"),
    ("groups", "PiecewiseLinear.backward", "groups", "PiecewiseLinear", "backward"),
    ("groups", "TriangularMatrix.forward", "groups", "TriangularMatrix", "forward"),
    ("groups", "TriangularMatrix.backward", "groups", "TriangularMatrix", "backward"),
    ("groups", "LinearFunctional.call", "groups", "LinearFunctional", "__call__"),
    ("series", "make", "series", "Series", "make"),
    ("series", "add", "series", "Series", "__add__"),
    ("series", "mul", "series", "Series", "__mul__"),
    ("series", "neg", "series", "Series", "__neg__"),
    ("series", "scale", "series", "Series", "scale"),
    ("series", "shift", "series", "Series", "shift"),
    ("series", "truncate_to", "series", "Series", "truncate_to"),
    ("series", "invert", "series", "Series", "invert"),
    ("series", "compare", "series", "Series", "compare"),
    ("series", "agrees", "series", "Series", "agrees"),
    ("derivations", "apply_derivation", "derivations", None, "apply_derivation"),
    ("derivations", "exp_apply", "derivations", None, "exp_apply"),
    ("derivations", "exp_derivation", "derivations", None, "exp_derivation"),
    ("derivations", "check_derivation", "derivations", None, "check_derivation"),
    ("automorphisms", "apply_aut", "automorphisms", None, "apply_aut"),
    ("automorphisms", "compose_aut", "automorphisms", None, "compose_aut"),
    ("automorphisms", "invert_aut", "automorphisms", None, "invert_aut"),
    ("automorphisms", "is_one_aut", "automorphisms", None, "is_one_aut"),
    ("automorphisms", "induced_maps", "automorphisms", None, "induced_maps"),
    ("automorphisms", "classify_aut", "automorphisms", None, "classify_aut"),
    ("automorphisms", "factorize_aut", "automorphisms", None, "factorize_aut"),
    ("sampling", "Sampler.series", "sampling", "Sampler", "series"),
    ("sampling", "Sampler.exponent", "sampling", "Sampler", "exponent"),
    ("sampling", "Sampler.invertible_series", "sampling", "Sampler", "invertible_series"),
    ("sampling", "canonical_series", "sampling", None, "canonical_series"),
    ("parsing", "tokenize", "parsing", None, "tokenize"),
    ("parsing", "parse_series", "parsing", None, "parse_series"),
    ("parsing", "parse_expression", "parsing", None, "parse_expression"),
    ("parsing", "load_aut_spec", "parsing", None, "load_aut_spec"),
    ("parsing", "parse_derivation", "parsing", None, "parse_derivation"),
    ("parsing", "format_series", "parsing", None, "format_series"),
    ("cli", "run_command", "cli", None, "run_command"),
)

ERROR_TYPES = (
    "ParseError",
    "ExponentParseError",
    "UsageError",
    "InsufficientPrecision",
    "DomainError",
    "NotInfinitesimal",
    "UnmappedExponent",
)

# Ratios measured where the work happens (name, unit, better).
RATIOS = (
    ("series.make.kept_ratio", "ratio", "higher"),  # terms out / terms in
    ("series.truncate_to.kept_ratio", "ratio", "higher"),  # terms kept / computed
    ("series.invert.mul_calls", "count", "lower"),  # products per outermost invert
    ("automorphisms.apply_aut.per_certificate", "count", "lower"),
    ("parsing.parse_series.chars_per_ms", "1/ms", "higher"),
)

CERTIFICATES = ("is_one_aut", "classify_aut", "factorize_aut")

# |harness item wall - sum of self times| <= max(rel * wall, abs seconds)
SELF_SUM_TOLERANCE = (0.02, 50e-6)

MAX_SPANS = 400_000


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric a traced run reports: (name, unit, better)."""
    out = []
    for layer, name, *_ in TARGETS:
        out.append((f"{layer}.{name}.calls", "count", "lower"))
        out.append((f"{layer}.{name}.self_ms", "ms", "lower"))
    out += [(f"{layer}.self_share", "ratio", "lower") for layer in LAYERS]
    out += list(RATIOS)
    out.append(("errors.raised", "count", "lower"))
    out += [(f"errors.raised.{name}", "count", "lower") for name in ERROR_TYPES]
    out.append(("trace.overhead", "ratio", "lower"))
    return out


class Tracer:
    def __init__(self):
        n = len(TARGETS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.incl_s = [0.0] * n
        self.counters = dict.fromkeys(
            ("make_in", "make_out", "trunc_in", "trunc_out", "invert_outer", "mul_in_invert",
             "cert_outer", "apply_in_cert", "parse_chars"), 0)
        self.errors = dict.fromkeys(ERROR_TYPES, 0)
        self.errors_total = 0
        # frame = [time spent in wrapped children, id of the nearest recorded span]
        self.stack = [[0.0, -1]]
        self.item = -1
        self.s_fn = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("i")
        self.s_item = array("i")
        self.spans_dropped = 0
        self.roots: list[tuple[int, float, float]] = []  # (item, root duration, sum of self)
        self.group_rows: list[tuple[int, int, int, float]] = []  # (item, fn, calls, self s)
        self._group_idx = [i for i, t in enumerate(TARGETS) if t[0] == "groups"]
        self._snapshot = None
        self._restore: list = []
        self._active_invert = 0
        self._active_cert = 0

    # -- item boundaries ---------------------------------------------------

    def begin(self, item: int):
        """Open the root frame of one item (-1 for input generation).

        The clock is read first, so that a garbage collection set off by
        the bookkeeping lands inside the root span.
        """
        self._t_begin = time.perf_counter()
        self.item = item
        self._snapshot = [(self.calls[i], self.self_s[i]) for i in self._group_idx]
        self._self_at_begin = sum(self.self_s)
        self.stack.append([0.0, -1])

    def end(self):
        t = time.perf_counter()
        frame = self.stack.pop()
        duration = t - self._t_begin
        root_self = duration - frame[0]
        wrapped_self = sum(self.self_s) - self._self_at_begin
        self.roots.append((self.item, duration, root_self + wrapped_self))
        for k, i in enumerate(self._group_idx):
            calls0, self0 = self._snapshot[k]
            if self.calls[i] != calls0:
                self.group_rows.append((self.item, i, self.calls[i] - calls0, self.self_s[i] - self0))
        self.item = -1

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, idx: int, fn, record: bool, hook=None):
        clock = time.perf_counter
        stack = self.stack
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        s_fn, s_start, s_end, s_parent, s_item = (
            self.s_fn, self.s_start, self.s_end, self.s_parent, self.s_item)
        tracer = self

        def wrapper(*args, **kwargs):
            if hook is not None:
                args = hook(args, True, None)
            ctx = stack[-1][1]
            sid = -1
            if record:
                if len(s_fn) < MAX_SPANS:
                    sid = len(s_fn)
                    s_fn.append(idx)
                    s_start.append(0.0)
                    s_end.append(0.0)
                    s_parent.append(ctx)
                    s_item.append(tracer.item)
                    ctx = sid
                else:
                    tracer.spans_dropped += 1
            frame = [0.0, ctx]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                stack[-1][0] += d
                calls[idx] += 1
                self_s[idx] += d - frame[0]
                incl_s[idx] += d
                if sid >= 0:
                    s_start[sid] = t0
                    s_end[sid] = t1
                if hook is not None:
                    hook(args, False, result)

        return wrapper

    def _hooks(self):
        c = self.counters
        tracer = self

        def make(args, entering, result):
            if entering:
                if not isinstance(args[2], (list, tuple)):
                    args = args[:2] + (list(args[2]),) + args[3:]
                c["make_in"] += len(args[2])
            elif result is not None:
                c["make_out"] += len(result.terms)
            return args

        def truncate_to(args, entering, result):
            if entering:
                c["trunc_in"] += len(args[0].terms)
            elif result is not None:
                c["trunc_out"] += len(result.terms)
            return args

        def invert(args, entering, result):
            if entering:
                if tracer._active_invert == 0:
                    c["invert_outer"] += 1
                tracer._active_invert += 1
            else:
                tracer._active_invert -= 1
            return args

        def mul(args, entering, result):
            if entering and tracer._active_invert:
                c["mul_in_invert"] += 1
            return args

        def certificate(args, entering, result):
            if entering:
                if tracer._active_cert == 0:
                    c["cert_outer"] += 1
                tracer._active_cert += 1
            else:
                tracer._active_cert -= 1
            return args

        def apply_aut(args, entering, result):
            if entering and tracer._active_cert:
                c["apply_in_cert"] += 1
            return args

        def parse_series(args, entering, result):
            if entering:
                c["parse_chars"] += len(args[0])
            return args

        hooks = {
            ("series", "make"): make,
            ("series", "truncate_to"): truncate_to,
            ("series", "invert"): invert,
            ("series", "mul"): mul,
            ("automorphisms", "apply_aut"): apply_aut,
            ("parsing", "parse_series"): parse_series,
        }
        for name in CERTIFICATES:
            hooks[("automorphisms", name)] = certificate
        return hooks

    # -- install / uninstall -----------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hahnaut" or name.startswith("hahnaut."))]
        hooks = self._hooks()
        for idx, (layer, name, module, owner, attr) in enumerate(TARGETS):
            mod = sys.modules[f"hahnaut.{module}"]
            record = layer != "groups"
            hook = hooks.get((layer, name))
            if owner is not None:
                cls = getattr(mod, owner)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(idx, original.__func__, record, hook))
                else:
                    replacement = self._wrap(idx, original, record, hook)
                setattr(cls, attr, replacement)
                self._restore.append((cls, attr, original))
                continue
            original = getattr(mod, attr)
            replacement = self._wrap(idx, original, record, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, replacement)
                        self._restore.append((m, key, original))
        self._install_error_counter()

    def _install_error_counter(self):
        errors_mod = sys.modules["hahnaut.errors"]
        cli_mod = sys.modules["hahnaut.cli"]
        tracer = self

        def counting_init(exc, *args, **kwargs):
            name = type(exc).__name__
            tracer.errors_total += 1
            if name in tracer.errors:
                tracer.errors[name] += 1
            Exception.__init__(exc, *args, **kwargs)

        for cls in (errors_mod.HahnError, cli_mod.UsageError):
            self._restore.append((cls, "__init__", cls.__dict__.get("__init__")))
            cls.__init__ = counting_init

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def self_sum_violations(self, walls) -> int:
        """Items whose harness wall and summed self times differ by more
        than the tolerance; ``walls[i]`` is the harness wall of item i."""
        rel, absolute = SELF_SUM_TOLERANCE
        bad = 0
        for item, _, self_sum in self.roots:
            if item < 0:
                continue
            wall = walls[item]
            if abs(wall - self_sum) > max(rel * wall, absolute):
                bad += 1
        return bad

    def metrics(self, overhead: float) -> dict:
        total = sum(d for _, d, _ in self.roots) or 1.0
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for idx, (layer, name, *_) in enumerate(TARGETS):
            out[f"{layer}.{name}.calls"] = self.calls[idx]
            out[f"{layer}.{name}.self_ms"] = self.self_s[idx] * 1e3
            layer_self[layer] += self.self_s[idx]
        for layer in LAYERS:
            out[f"{layer}.self_share"] = layer_self[layer] / total
        c = self.counters
        parse_ms = self.incl_s[_index("parsing", "parse_series")] * 1e3
        out["series.make.kept_ratio"] = _ratio(c["make_out"], c["make_in"])
        out["series.truncate_to.kept_ratio"] = _ratio(c["trunc_out"], c["trunc_in"])
        out["series.invert.mul_calls"] = _ratio(c["mul_in_invert"], c["invert_outer"])
        out["automorphisms.apply_aut.per_certificate"] = _ratio(c["apply_in_cert"], c["cert_outer"])
        out["parsing.parse_series.chars_per_ms"] = _ratio(c["parse_chars"], parse_ms)
        out["errors.raised"] = self.errors_total
        for name in ERROR_TYPES:
            out[f"errors.raised.{name}"] = self.errors[name]
        out["trace.overhead"] = overhead
        return out

    def write(self, path):
        """Write spans and per-item group aggregates as gzipped TSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = [f"{t[0]}.{t[1]}" for t in TARGETS]
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("kind\tid\tname\tstart\tend\tparent\titem\tcalls\tself_s\n")
            for sid in range(len(self.s_fn)):
                f.write(f"span\t{sid}\t{names[self.s_fn[sid]]}\t{self.s_start[sid]:.9f}\t"
                        f"{self.s_end[sid]:.9f}\t{self.s_parent[sid]}\t{self.s_item[sid]}\t\t\n")
            for item, idx, calls, self_s in self.group_rows:
                f.write(f"agg\t\t{names[idx]}\t\t\t\t{item}\t{calls}\t{self_s:.9f}\n")


def _index(layer: str, name: str) -> int:
    return next(i for i, t in enumerate(TARGETS) if t[0] == layer and t[1] == name)


def _ratio(num, den) -> float:
    return num / den if den else 0.0
