"""Span tracing of mfjump's module boundaries, from outside the program.

``Tracer.install`` wraps every public function of the package modules at
every place its name is bound (``collect_candidates`` is bound in
``mfjump.drivers``, ``mfjump.particle`` and ``mfjump.limit``), two methods
(``CoupledSimulator.advance`` and ``FlowApproximation.save``) and the model
callbacks of each spec that ``zoo.build`` returns.  ``uninstall`` puts every
original back.

A wrapped call opens a span when it crosses into another module, or when
the function is one the benchmark reports on.  Any other call inside a
module (``w1_capped`` calling ``w1_assignment``, ``solve_limit`` calling
``picard_iterate``) is part of its caller's work.  Every call is counted
either way.  Spans are (name, start, end, parent) rows kept in memory and
written out by ``write``.  The traced program must run in this process:
spans recorded in pool workers are not collected.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import time
from collections import Counter
from pathlib import Path

LAYERS = ("drivers", "zoo", "models", "particle", "limit", "metrics", "harness", "cli")
ZOO_CALLBACKS = ("drift", "diffusion", "rate", "main_jump", "collateral_jump")
METHODS = (("particle", "CoupledSimulator", "advance", "particle.advance"),
           ("limit", "FlowApproximation", "save", "limit.flow_save"))

# Functions reported by self time and by inclusive time.  They get a span
# even when called from their own module.
SELF_TIMED = (
    "drivers.collect_candidates", "drivers.marks_uniforms", "drivers.marks_uniforms_batch",
    "drivers.make_driver_bundle", "zoo.rate", "zoo.drift", "zoo.main_jump", "zoo.collateral_jump",
    "models.validate_model", "particle.advance", "particle.apply_jump", "particle.simulate",
    "limit.simulate_ensemble", "limit.flow_save", "metrics.w1_capped",
    "metrics.moment_diagnostics", "metrics.fit_rate",
)
INCLUSIVE_TIMED = ("limit.solve_limit", "limit.flow_delta", "limit.ensemble_noise_floor", "limit.coupled_chaos_run")
COUNTED = (
    "drivers.collect_candidates", "drivers.marks_uniforms", "zoo.rate", "particle.advance",
    "particle.apply_jump", "limit.coupled_chaos_run", "metrics.w1_capped",
)
REPORTED = set(SELF_TIMED) | set(INCLUSIVE_TIMED)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []  # open span indices
        self._nsys: list[int] = []  # systems stepped by each open advance
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _needs_span(self, name: str) -> bool:
        if name in REPORTED or not self._stack:
            return True
        return layer_of(self.names[self._stack[-1]]) != layer_of(name)

    def wrap(self, name: str, fn):
        tracer = self
        after = _AFTER.get(name)
        is_advance = name == "particle.advance"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts[name] += 1
            if not tracer._needs_span(name):
                out = fn(*args, **kwargs)
            else:
                if is_advance:  # args[0] is the CoupledSimulator
                    tracer._nsys.append(len(args[0].systems))
                idx = tracer.open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                    if is_advance:
                        tracer._nsys.pop()
            if after is not None:
                out = after(tracer, args, out)
            return out

        return traced

    # -- installing ---------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import mfjump

        modules = {layer: importlib.import_module(f"mfjump.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped[id(obj)] = self.wrap(f"{layer}.{name}", obj)
        for mod in (mfjump, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, name, wrapped[id(obj)])
        for layer, cls_name, attr, span in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, attr, self.wrap(span, getattr(cls, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write(self, path: Path) -> None:
        """All spans as gzip CSV rows: index, name, start, end, parent."""
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start,end,parent\n")
            for idx, row in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{idx},{row[0]},{row[1]!r},{row[2]!r},{row[3]}\n")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    selfs = [e - s for s, e in zip(starts, ends)]
    for start, end, parent in zip(starts, ends, parents):
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def read_spans(path: Path) -> list[tuple[str, float, float, int]]:
    with gzip.open(path, "rt") as fh:
        next(fh)
        rows = []
        for line in fh:
            _idx, name, start, end, parent = line.rstrip("\n").split(",")
            rows.append((name, float(start), float(end), int(parent)))
    return rows


# -- per-call hooks: counts made where the work happens ---------------------


def _after_build(tracer: Tracer, args, spec):
    callbacks = {
        name: tracer.wrap(f"zoo.{name}", getattr(spec, name)) for name in ZOO_CALLBACKS
    }
    return dataclasses.replace(spec, **callbacks)


def _after_marks(tracer: Tracer, args, out):
    tracer.counts["drivers.marks_drawn"] += len(out)
    return out


def _after_candidates(tracer: Tracer, args, out):
    # candidates of the per-event engine only, not of the limit ensemble
    if tracer._stack and tracer.names[tracer._stack[-1]] == "particle.advance":
        n = len(out[0])
        tracer.counts["particle.candidates"] += n
        tracer.counts["particle.candidate_system_evals"] += n * tracer._nsys[-1]
    return out


def _after_flow_save(tracer: Tracer, args, out):
    path = Path(args[1])
    if not path.exists():
        path = path.with_name(path.name + ".npz")
    tracer.counts["limit.flow_bytes"] += path.stat().st_size
    return out


_AFTER = {
    "zoo.build": _after_build,
    "drivers.marks_uniforms": _after_marks,
    "drivers.marks_uniforms_batch": _after_marks,
    "drivers.collect_candidates": _after_candidates,
    "limit.flow_save": _after_flow_save,
}


# -- per-layer metrics ------------------------------------------------------

def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a finished trace, as name -> (value, unit).

    ``<fn>.self_s`` is the time in the function's spans not covered by
    their child spans; ``<fn>.s`` includes the children.  ``<layer>.self_s``
    is the time during which a span of that layer is the innermost one.
    """
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    self_by_name: Counter = Counter()
    incl_by_name: Counter = Counter()
    self_by_layer: Counter = Counter()
    for name, start, end, own in zip(tracer.names, tracer.starts, tracer.ends, selfs):
        self_by_name[name] += own
        incl_by_name[name] += end - start
        self_by_layer[layer_of(name)] += own
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for name in COUNTED:
        out[f"{name}.calls"] = (counts[name], "count")
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (self_by_name[name], "s")
    for name in INCLUSIVE_TIMED:
        out[f"{name}.s"] = (incl_by_name[name], "s")
    evals = counts["particle.candidate_system_evals"]
    w1_calls = counts["metrics.w1_capped"]
    out.update({
        "drivers.marks_drawn": (counts["drivers.marks_drawn"], "count"),
        "particle.candidates": (counts["particle.candidates"], "count"),
        "particle.accept_ratio": (counts["particle.apply_jump"] / evals if evals else 0.0, "ratio"),
        "particle.us_per_candidate": (
            1e6 * incl_by_name["particle.advance"] / evals if evals else 0.0, "us"),
        "limit.picard_sweeps": (counts["limit.picard_iterate"], "count"),
        "limit.flow_bytes": (counts["limit.flow_bytes"], "bytes"),
        "metrics.w1_capped.us_per_call": (
            1e6 * self_by_name["metrics.w1_capped"] / w1_calls if w1_calls else 0.0, "us"),
        "harness.self_s": (self_by_layer["harness"], "s"),
        "cli.self_s": (self_by_layer["cli"], "s"),
    })
    return out
