"""Outside-in layer tracing: wrap each layer's public seams, attribute self time.

The traced pass replaces each seam below with a wrapper that times the
call and charges its *self* time (duration minus the wrapped calls
nested inside it) to the seam's layer.  Nothing under ``src/`` is
edited; the originals are restored when the pass ends.  Each
(configuration, program) execution is a root span whose own self time
is reported as ``other`` (checker construction, result packaging), so
a configuration's layer self times sum to its traced total exactly.

Most seams are hot (``PDG.add_edge`` runs tens of thousands of times),
so they are aggregated into per-layer totals carried on the program
span; only configurations, programs, ``Executor.run`` and
``PCD.process`` calls become spans of their own.  Spans are kept in
memory and written as one Chrome trace when the run ends.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: (layer, module, attribute path) of every wrapped public seam
SEAMS: Tuple[Tuple[str, str, str], ...] = (
    ("runtime", "repro.runtime.executor", "Executor.run"),
    ("octet_slow", "repro.core.icd", "ICD.on_access"),
    ("tx_end", "repro.core.icd", "ICD.on_method_exit"),
    ("scc", "repro.core.icd", "scc_containing_counted"),
    ("graph", "repro.graph.dirty", "DirtySccScheduler.note_cross_edge"),
    ("graph", "repro.graph.dirty", "DirtySccScheduler.frontier_for"),
    ("graph", "repro.graph.dirty", "DirtySccScheduler.note_checked"),
    ("graph", "repro.graph.dirty", "DirtySccScheduler.forget"),
    ("graph", "repro.graph.engine", "IncrementalSccDigraph.add_edge"),
    ("gc", "repro.core.gc", "TransactionCollector.collect"),
    ("pcd", "repro.core.pcd", "PCD.process"),
    ("pdg", "repro.core.pdg", "PDG.add_edge"),
    ("pdg", "repro.core.pdg", "PDG.find_cycle_through"),
    # build_program is bound by name in the catalog as well
    ("build", "repro.workloads.builder", "build_program"),
    ("build", "repro.workloads.catalog", "build_program"),
)

#: seams recorded as individual spans as well as in the totals
SPAN_SEAMS = ("Executor.run", "PCD.process")

#: the layers each configuration reports a self time for; a layer
#: firing anywhere else fails the run instead of going unreported
CONFIG_LAYERS: Dict[str, Tuple[str, ...]] = {
    "baseline": ("runtime", "other"),
    "single": ("runtime", "octet_slow", "tx_end", "scc", "graph", "gc",
               "pcd", "pdg", "other"),
    "first": ("runtime", "octet_slow", "tx_end", "scc", "graph", "gc", "other"),
    "second": ("runtime", "octet_slow", "tx_end", "scc", "graph", "gc",
               "pcd", "pdg", "other"),
    "velodrome": ("runtime", "graph", "gc", "other"),
    "vc": ("runtime", "gc", "other"),
}


class SeamMissing(RuntimeError):
    """A wrapped public function no longer exists."""


def _resolve(module_name: str, path: str):
    """(owner object, attribute name, current value) of a seam."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise SeamMissing(f"seam {module_name}.{path}: {exc}") from None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    if owner is None or not callable(getattr(owner, attr, None)):
        raise SeamMissing(
            f"seam {module_name}.{path} no longer exists; "
            "update perfbench/layers.py SEAMS"
        )
    return owner, attr, getattr(owner, attr)


def resolve_seams():
    """Resolve every seam; raises :class:`SeamMissing` naming the first
    one that is gone."""
    return [(layer, path, *_resolve(module, path)) for layer, module, path in SEAMS]


class Tracer:
    """Self-time accounting and span capture for one traced pass."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: child time accumulated by each open span, innermost last
        self._frames: List[float] = []
        #: layer -> self seconds / calls for the current scope
        self._self: Dict[str, float] = defaultdict(float)
        self._calls: Dict[str, int] = defaultdict(int)
        #: (config, layer) -> self seconds summed over programs
        self.totals: Dict[Tuple[str, str], float] = defaultdict(float)
        #: config -> traced seconds (sum of its program spans)
        self.config_seconds: Dict[str, float] = defaultdict(float)
        self.unexpected: List[str] = []
        self.events: List[dict] = []
        #: (owner, attribute, original) of every wrapped seam
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------
    def install(self) -> None:
        """Wrap every seam; raises :class:`SeamMissing` naming the first
        one that is gone (before anything is patched)."""
        for layer, path, owner, attr, original in resolve_seams():
            span = path if path in SPAN_SEAMS else None
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, span))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, layer: str, fn, span: Optional[str]):
        frames = self._frames
        perf = time.perf_counter
        tracer = self

        def seam(*args, **kwargs):
            frames.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                tracer._self[layer] += duration - frames.pop()
                tracer._calls[layer] += 1
                if frames:
                    frames[-1] += duration
                if span is not None:
                    tracer._event(span, layer, start, duration)

        seam.__wrapped__ = fn
        return seam

    # -- spans ---------------------------------------------------------
    def _event(self, name: str, category: str, start: float, duration: float,
               args: Optional[dict] = None) -> None:
        event = {
            "name": name, "cat": category, "ph": "X", "pid": 1, "tid": 1,
            "ts": (start - self.origin) * 1e6, "dur": duration * 1e6,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def program(self, config: str, case: str) -> "_ProgramSpan":
        """Root span of one configuration's execution on one program."""
        return _ProgramSpan(self, config, case)

    @property
    def build_seconds(self) -> float:
        """``build_program`` self time charged outside program spans."""
        return self._self.get("build", 0.0)

    # -- output --------------------------------------------------------
    def chrome_trace(self, label: str) -> dict:
        meta = {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                "args": {"name": label}}
        spans: Dict[str, List[float]] = {}
        for e in self.events:
            if e["cat"] == "program":
                config = e["name"].split(":", 1)[0]
                lo, hi = spans.setdefault(config, [e["ts"], e["ts"] + e["dur"]])
                spans[config] = [min(lo, e["ts"]), max(hi, e["ts"] + e["dur"])]
        configs = [
            {"name": config, "cat": "config", "ph": "X", "pid": 1, "tid": 1,
             "ts": lo, "dur": hi - lo,
             "args": {"traced_s": round(self.config_seconds[config], 9)}}
            for config, (lo, hi) in spans.items()
        ]
        events = sorted(configs + self.events, key=lambda e: (e["ts"], -e["dur"]))
        return {"traceEvents": [meta] + events, "displayTimeUnit": "ms"}


class _ProgramSpan:
    def __init__(self, tracer: Tracer, config: str, case: str) -> None:
        self.tracer, self.config, self.case = tracer, config, case

    def __enter__(self):
        tracer = self.tracer
        self._outer = (tracer._self, tracer._calls)
        tracer._self, tracer._calls = defaultdict(float), defaultdict(int)
        tracer._frames.append(0.0)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        duration = time.perf_counter() - self.start
        tracer._self["other"] += duration - tracer._frames.pop()
        allowed = CONFIG_LAYERS[self.config]
        args = {}
        for layer, seconds in sorted(tracer._self.items()):
            if layer not in allowed:
                tracer.unexpected.append(
                    f"{self.config} on {self.case}: layer {layer} fired "
                    f"({seconds:.6f}s) but is not reported for {self.config}"
                )
            tracer.totals[(self.config, layer)] += seconds
            args[f"{layer}_s"] = round(seconds, 9)
            if layer != "other":
                args[f"{layer}.calls"] = tracer._calls[layer]
        tracer.config_seconds[self.config] += duration
        tracer._event(f"{self.config}:{self.case}", "program", self.start,
                      duration, args)
        tracer._self, tracer._calls = self._outer
        return False

