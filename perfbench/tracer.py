"""Spans and counters recorded around braidforge's public functions.

The wrappers live here, outside the package: `install` rebinds each target
in every ``braidforge.*`` module namespace that holds it (modules import
names directly, so patching the defining module alone would miss callers)
and on the `CubeComplex` class; `uninstall` puts the original objects back.
Spans stay in memory until the run ends.  `layer_metrics` turns a list of
spans plus counters into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    attrs: dict = field(default_factory=dict)

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.job, self.attrs]

    @classmethod
    def from_json(cls, row) -> "Span":
        return cls(*row)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []

    def reset(self):
        """Start a new pass; wrappers keep their reference to `counters`."""
        self.spans = []
        self.counters.clear()

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.job))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int, attrs: dict | None = None):
        span = self.spans[index]
        span.end = time.perf_counter()
        if attrs:
            span.attrs.update(attrs)
        self._stack.pop()

    def merge(self, rows, counters: dict):
        """Append spans recorded by another process (a traced CLI child)."""
        offset = len(self.spans)
        for row in rows:
            span = Span.from_json(row)
            if span.parent is not None:
                span.parent += offset
            self.spans.append(span)
        self.counters.update(counters)


def _mp_attrs(args, kwargs, mp):
    return {"generators": len(mp.generators), "relators": len(mp.relators),
            "relator_len_max": max((len(w) for w, _ in mp.relators), default=0)}


def _dim(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["dim"]


def _snf_attrs(args, kwargs, snf):
    matrix = args[0] if args else kwargs["matrix"]
    return {"entries": len(matrix) * (len(matrix[0]) if matrix else 0)}


def _skeleton_attrs(args, kwargs, sp):
    return {"generators": len(sp.group.generators), "relators": len(sp.group.relators)}


# (module, attribute, span name or counter name, kind, attrs from the result).
# "count" targets only bump a counter: they run too often for a span each.
TARGETS = [
    ("braidforge.graph", "subdivide_for", "graph.subdivide", "span",
     lambda a, k, r: {"vertices": len(r.vertices)}),
    ("braidforge.graph", "check_subdivision", "graph.check", "span", None),
    ("braidforge.graph", "ordered", "graph.order", "span", None),
    ("braidforge.cells", "CubeComplex.cells", "cells.enumerate", "span",
     lambda a, k, r: {"n": len(r), "dim": _dim(a, k)}),
    ("braidforge.cells", "CubeComplex.critical_cells", "cells.critical", "span",
     lambda a, k, r: {"n": len(r), "dim": _dim(a, k)}),
    ("braidforge.cells", "CubeComplex.path_to_base", "cells.path_to_base", "span", None),
    ("braidforge.morse", "rewrite_word", "morse.rewrite", "span",
     lambda a, k, r: {"steps": len(r.steps)}),
    ("braidforge.morse", "morse_presentation", "morse.present", "span", _mp_attrs),
    ("braidforge.presentation", "smith_normal_form", "presentation.snf", "span", _snf_attrs),
    ("braidforge.presentation", "homology_h1", "presentation.h1", "span", None),
    ("braidforge.presentation", "tietze_minimize", "presentation.tietze", "span",
     lambda a, k, r: {"eliminations": len(r.eliminations)}),
    ("braidforge.presentation", "in_row_lattice", "presentation.lattice", "span", None),
    ("braidforge.oracle", "skeleton_presentation", "oracle.skeleton", "span", _skeleton_attrs),
    ("braidforge.loops", "solve_physical_presentation", "loops.physical", "span", None),
    ("braidforge.loops", "loop_image", "loops.loop_image", "span", None),
    ("braidforge.stability", "stability_report", "stability.report", "span", None),
    ("braidforge.stability", "minimize_morse", "stability.minimize", "span", None),
    ("braidforge.stability", "plus_cell", "stability.plus_cell_calls", "count", None),
    ("braidforge.reps", "solve_representation", "reps.solve", "span",
     lambda a, k, r: {"restarts": len(r.restart_seeds)}),
    ("braidforge.reps", "polar_retract", "reps.retractions", "count", None),
    ("braidforge.reps", "verify_representation", "reps.verify", "span",
     lambda a, k, r: {"residual": r.max_deviation}),
    ("braidforge.reps", "classify_theta_component", "reps.classify", "span", None),
    ("braidforge.reps", "locally_abelian_solve", "reps.locally_abelian", "span", None),
]


def _span_wrapper(tracer: Tracer, fn, name: str, attrs_of):
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        attrs = None
        try:
            result = fn(*args, **kwargs)
            if attrs_of is not None:
                attrs = attrs_of(args, kwargs, result)
            return result
        finally:
            tracer.end(index, attrs)
    return wrapper


def _count_wrapper(tracer: Tracer, fn, name: str):
    counters = tracer.counters

    def wrapper(*args, **kwargs):
        counters[name] += 1
        return fn(*args, **kwargs)
    return wrapper


class Installation:
    """The rebindings made by `install`; `uninstall` reverts them."""

    def __init__(self):
        self.bindings: list[tuple[object, str, object]] = []

    def uninstall(self):
        for owner, attr, original in reversed(self.bindings):
            setattr(owner, attr, original)
        self.bindings.clear()


def install(tracer: Tracer) -> Installation:
    inst = Installation()
    importlib.import_module("braidforge.cli")   # loads every namespace to patch
    for module_name, attr, name, kind, attrs_of in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            owners = [(cls, meth)]
        else:
            original = getattr(module, attr)
            owners = [(mod, key)
                      for mod_name, mod in sorted(sys.modules.items())
                      if mod is not None and (mod_name == "braidforge"
                                              or mod_name.startswith("braidforge."))
                      for key, value in list(vars(mod).items()) if value is original]
        if kind == "span":
            wrapped = _span_wrapper(tracer, original, name, attrs_of)
        else:
            wrapped = _count_wrapper(tracer, original, name)
        wrapped.__wrapped__ = original
        for owner, key in owners:
            inst.bindings.append((owner, key, original))
            setattr(owner, key, wrapped)
    return inst


# ---------------------------------------------------------------------------
# arithmetic over spans


def covered(intervals) -> float:
    """Length of the union of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [span.end - span.start - covered(children[i])
            for i, span in enumerate(spans)]


# metric -> span name whose inclusive time it sums
INCLUSIVE = {
    "graph.subdivide_s": "graph.subdivide",
    "graph.check_s": "graph.check",
    "graph.order_s": "graph.order",
    "cells.enumerate_s": "cells.enumerate",
    "cells.path_to_base_s": "cells.path_to_base",
    "morse.rewrite_s": "morse.rewrite",
    "presentation.snf_s": "presentation.snf",
    "presentation.h1_s": "presentation.h1",
    "presentation.tietze_s": "presentation.tietze",
    "presentation.lattice_s": "presentation.lattice",
    "oracle.skeleton_s": "oracle.skeleton",
    "reps.verify_s": "reps.verify",
    "reps.classify_s": "reps.classify",
    "reps.locally_abelian_s": "reps.locally_abelian",
    "stability.report_s": "stability.report",
    "stability.minimize_s": "stability.minimize",
    "loops.physical_s": "loops.physical",
    "loops.loop_image_s": "loops.loop_image",
}

# metric -> span name whose self time it sums
SELF = {
    "cells.critical_s": "cells.critical",
    "morse.present_s": "morse.present",
    "reps.solve_s": "reps.solve",
}

# metric -> (span name, attribute) summed over spans
SUMMED = {
    "graph.vertices": ("graph.subdivide", "vertices"),
    "cells.enumerated": ("cells.enumerate", "n"),
    "cells.critical": ("cells.critical", "n"),
    "morse.rewrite_steps": ("morse.rewrite", "steps"),
    "morse.generators": ("morse.present", "generators"),
    "morse.relators": ("morse.present", "relators"),
    "presentation.snf_entries": ("presentation.snf", "entries"),
    "presentation.tietze_eliminations": ("presentation.tietze", "eliminations"),
    "oracle.generators": ("oracle.skeleton", "generators"),
    "oracle.relators": ("oracle.skeleton", "relators"),
    "reps.restarts": ("reps.solve", "restarts"),
}

# metric -> span name whose calls it counts
CALLS = {
    "morse.rewrite_calls": "morse.rewrite",
    "presentation.snf_calls": "presentation.snf",
}

# metric -> (span name, attribute) maximised over spans
MAXED = {
    "morse.relator_len_max": ("morse.present", "relator_len_max"),
    "reps.residual_max": ("reps.verify", "residual"),
}

COUNTERS = tuple(name for _, _, name, kind, _ in TARGETS if kind == "count")


def layer_metrics(spans: list[Span], counters) -> dict[str, float]:
    """Per-layer metrics of one pass; a layer that did not run reads 0."""
    out: dict[str, float] = {}
    selfs = self_times(spans)
    for metric, name in INCLUSIVE.items():
        out[metric] = sum(s.end - s.start for s in spans if s.name == name)
    for metric, name in SELF.items():
        out[metric] = sum(t for s, t in zip(spans, selfs) if s.name == name)
    for metric, (name, attr) in SUMMED.items():
        out[metric] = sum(s.attrs.get(attr, 0) for s in spans if s.name == name)
    for metric, name in CALLS.items():
        out[metric] = sum(1 for s in spans if s.name == name)
    for metric, (name, attr) in MAXED.items():
        out[metric] = max((s.attrs.get(attr, 0) for s in spans if s.name == name),
                          default=0)
    for metric in COUNTERS:
        out[metric] = counters.get(metric, 0)
    # yield of the critical-cell filter over the cells it enumerated, dims 1-2
    crit = enumerated = 0
    for s in spans:
        if s.name == "cells.critical" and s.attrs.get("dim") in (1, 2):
            crit += s.attrs["n"]
        elif (s.name == "cells.enumerate" and s.parent is not None
              and spans[s.parent].name == "cells.critical"
              and s.attrs.get("dim") in (1, 2)):
            enumerated += s.attrs["n"]
    out["cells.critical_yield"] = crit / enumerated if enumerated else 0.0
    return out
