"""Spans around calls into the entro package, recorded from outside it.

Modules import functions by name (``entro.cli`` calls its own binding of
``bd_count_table``; ``compacta_estimate`` calls ``entro.dynamics``'s), so a
wrapper is installed under every name in every loaded ``entro`` module that
refers to the original function, and removed again afterwards.

A span is ``[name, start, end, parent index, attrs]``; spans stay in memory
until the run writes them out.  The parent is the innermost open span.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import tracemalloc

MIB = 2**20


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _matrix_bytes(dmat) -> int:
    return dmat.shape[0] * dmat.shape[1] * 8


# (span name, module, function, attrs(args, kwargs, result) or None).
# The three estimator entry points; the memory pass wraps only these.
ESTIMATOR_TARGETS = (
    ("dynamics.bd_table", "entro.dynamics", "bd_count_table",
     lambda a, k, out: {"points": _arg(a, k, 1, "cloud").size}),
    ("estimators.compacta", "entro.estimators", "compacta_estimate", None),
    ("orbit_space.lifted", "entro.orbit_space", "friedland_count_table", None),
)

LAYER_TARGETS = ESTIMATOR_TARGETS + (
    ("gallery.build", "entro.gallery", "build_bundle", None),
    ("dynamics.orbit", "entro.dynamics", "build_orbit_table",
     lambda a, k, out: {"steps": out.orbits.shape[0] * out.depth}),
    ("metric_core.dist", "entro.metric_core", "distance_matrix",
     lambda a, k, out: {"bytes": _matrix_bytes(out)}),
    ("metric_core.fpo", "entro.metric_core", "farthest_point_order", None),
    ("metric_core.counts", "entro.metric_core", "counts_from_matrix",
     lambda a, k, out: {"bytes": _matrix_bytes(_arg(a, k, 0, "dmat"))}),
    ("estimators.fit", "entro.estimators", "entropy_estimate", None),
    ("coding.word_complexity", "entro.coding", "word_complexity", None),
    ("coding.coded_entropy", "entro.coding", "coded_entropy", None),
    # the four consistency checks that `entro verify` runs
    ("cli.check", "entro.metric_core", "subsample_count_check", None),
    ("cli.check", "entro.orbit_space", "metric_comparison_check", None),
    ("cli.check", "entro.orbit_space", "semiconj_check", None),
    ("cli.check", "entro.dynamics", "inverse_transport_check", None),
)


class Tracer:
    """Records a span for every call of the target functions while installed.

    With ``memory=True`` each span also gets ``peak``: the largest number of
    bytes ``tracemalloc`` saw allocated during the call above what was
    allocated when it began.  The caller starts and stops ``tracemalloc``.
    """

    def __init__(self, targets, memory: bool = False):
        self.targets = targets
        self.memory = memory
        self.spans: list[list] = []
        self._open: list[int] = []
        self._mem: list[list[int]] = []  # [baseline, highest peak seen] per open span

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx, {})

    def _enter(self, name: str) -> int:
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([cur, cur])
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else None, {}])
        self._open.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _exit(self, idx: int, attrs: dict) -> None:
        end = time.perf_counter()
        self._open.pop()
        span = self.spans[idx]
        span[2] = end
        span[4] = attrs
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            base, top = self._mem.pop()
            attrs["peak"] = max(top, peak) - base
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()

    def _wrap(self, name: str, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self._exit(idx, attrs(args, kwargs, out) if attrs and out is not None else {})

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace each target under all its names in the loaded entro modules."""
        modules = [m for k, m in list(sys.modules.items()) if k == "entro" or k.startswith("entro.")]
        patches = []
        for name, module, func, attrs in self.targets:
            original = getattr(sys.modules[module], func)
            wrapper = self._wrap(name, original, attrs)
            for mod in modules:
                patches.extend(
                    (mod, attr, original, wrapper)
                    for attr, value in vars(mod).items() if value is original
                )
        for mod, attr, _, wrapper in patches:
            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original, _ in patches:
                setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# summaries of recorded spans


def _children_time(spans) -> list[float]:
    inner = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            inner[parent] += end - start
    return inner


def layer_metrics(spans, mem_spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``{name: (value, unit)}`` from one traced pass and
    one memory pass."""
    inner = _children_time(spans)

    def pick(name, parent=None):
        return [
            (i, s) for i, s in enumerate(spans)
            if s[0] == name and (parent is None or (s[3] is not None and spans[s[3]][0] == parent))
        ]

    def total(name, parent=None):
        return sum(s[2] - s[1] for _, s in pick(name, parent))

    def self_time(names):
        return sum(s[2] - s[1] - inner[i] for i, s in enumerate(spans) if s[0] in names)

    def calls(name, parent=None):
        return len(pick(name, parent))

    def attr_sum(name, key, parent=None):
        return sum(s[4].get(key, 0) for _, s in pick(name, parent))

    def peak_mb(name):
        return max((s[4]["peak"] for s in mem_spans if s[0] == name), default=0) / MIB

    # the benchmark's own span around each operation; the CLI's are commands
    commands = ("estimate", "gallery", "verify", "coding")
    return {
        # direct-count tables built for a compact member belong to compacta
        "estimators.direct.s": (
            total("dynamics.bd_table") - total("dynamics.bd_table", "estimators.compacta"), "s"),
        "estimators.compacta.s": (total("estimators.compacta"), "s"),
        "orbit_space.lifted.s": (total("orbit_space.lifted"), "s"),
        "metric_core.counts.s": (total("metric_core.counts"), "s"),
        "metric_core.counts.calls": (calls("metric_core.counts"), "count"),
        "metric_core.fpo.s": (total("metric_core.fpo"), "s"),
        "metric_core.fpo.calls": (calls("metric_core.fpo"), "count"),
        "metric_core.dist.s": (total("metric_core.dist"), "s"),
        "metric_core.dist.calls": (calls("metric_core.dist"), "count"),
        "metric_core.dist.bytes": (attr_sum("metric_core.dist", "bytes"), "bytes"),
        "metric_core.matrix_mb": (
            max((s[4].get("bytes", 0) for _, s in pick("metric_core.counts")), default=0) / MIB,
            "MiB",
        ),
        "dynamics.orbit.s": (total("dynamics.orbit"), "s"),
        "dynamics.orbit.calls": (calls("dynamics.orbit"), "count"),
        "dynamics.orbit.steps": (attr_sum("dynamics.orbit", "steps"), "count"),
        "dynamics.bd_table.self_s": (self_time({"dynamics.bd_table"}), "s"),
        "dynamics.bd_table.calls": (calls("dynamics.bd_table"), "count"),
        "dynamics.bd_table.peak_mb": (peak_mb("dynamics.bd_table"), "MiB"),
        "estimators.compacta.self_s": (self_time({"estimators.compacta"}), "s"),
        "estimators.compacta.member_tables": (
            calls("dynamics.bd_table", "estimators.compacta"), "count"),
        "estimators.compacta.member_points": (
            attr_sum("dynamics.bd_table", "points", "estimators.compacta"), "count"),
        "estimators.compacta.peak_mb": (peak_mb("estimators.compacta"), "MiB"),
        "estimators.fit.s": (total("estimators.fit"), "s"),
        "estimators.fit.calls": (calls("estimators.fit"), "count"),
        "orbit_space.lifted.self_s": (self_time({"orbit_space.lifted"}), "s"),
        "orbit_space.orbit.calls": (calls("dynamics.orbit", "orbit_space.lifted"), "count"),
        "orbit_space.orbit.steps": (
            attr_sum("dynamics.orbit", "steps", "orbit_space.lifted"), "count"),
        "orbit_space.lifted.peak_mb": (peak_mb("orbit_space.lifted"), "MiB"),
        "coding.word_complexity.s": (total("coding.word_complexity"), "s"),
        "coding.coded_entropy.s": (total("coding.coded_entropy"), "s"),
        **{f"cli.{c}.s": (total(f"op.{c}"), "s") for c in commands},
        "cli.checks.s": (total("cli.check"), "s"),
        "cli.self_s": (self_time({f"op.{c}" for c in commands}), "s"),
        "gallery.build.s": (total("gallery.build"), "s"),
    }
