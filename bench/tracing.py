"""Spans around calls into the program, recorded from the benchmark's side.

``Tracer.install`` wraps every public function of the traced modules
and rebinds each name wherever the package holds it, so calls made
inside the program go through the wrappers as well.  Boundary
evaluations are counted by wrapping the ``evaluate`` and ``derivative``
of each system that ``families.system_from_descriptor`` builds.  Names
are looked up when the tracer is installed: a metric whose names are
gone, or whose counts can no longer be taken, is reported as missing and
reads 0, and the run goes on.

A span is (name, start, end, parent, job, size, scalar).  ``size`` is a
count that belongs to the call: points for a boundary evaluation, grid
points for a certificate, cycles found, bytes of SVG.  Spans stay in
compact arrays in memory and are written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

LAYERS = ("core", "families", "analytic", "hypotheses", "cycles", "oracle", "portrait", "cli")
EVALUATE = "families.Boundary.evaluate"
DERIVATIVE = "families.Boundary.derivative"


def _grid_size(args, kwargs, result):
    grid = kwargs.get("y_grid", args[1] if len(args) > 1 else ())
    return int(np.size(grid))


# Per-name counts taken from a call's arguments or result.
SIZES = {
    "hypotheses.check_boundary_hypotheses": _grid_size,
    "cycles.find_limit_cycles": lambda a, k, r: len(r.cycles),
    "portrait.render": lambda a, k, r: len(r.encode()),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.size = array("q")
        self.scalar = array("b")
        self.stack: list[int] = []
        self.job_id = -1
        self.found: set[str] = set()
        self.unsized: set[str] = set()   # names whose counts could not be taken
        self._undo: list[tuple] = []

    def __len__(self) -> int:
        return len(self.name)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.size.append(0)
        self.scalar.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        nid = self._id(name)
        size_of = SIZES.get(name)

        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if size_of is not None:
                try:
                    self.size[i] = size_of(args, kwargs, result)
                except (AttributeError, TypeError, IndexError):
                    self.unsized.add(name)
            return after(result) if after is not None else result

        traced.__wrapped__ = fn
        return traced

    def wrap_boundary(self, name: str, fn):
        nid = self._id(name)

        def counted(y):
            i = self._open(nid)
            try:
                return fn(y)
            finally:
                self._close(i)
                scalar = np.ndim(y) == 0
                self.scalar[i] = scalar
                self.size[i] = 1 if scalar else np.size(y)

        return counted

    def _count_boundary(self, system):
        try:
            b = system.boundary
            counted = dataclasses.replace(b, evaluate=self.wrap_boundary(EVALUATE, b.evaluate),
                                          derivative=self.wrap_boundary(DERIVATIVE, b.derivative))
            return dataclasses.replace(system, boundary=counted)
        except (AttributeError, TypeError):
            self.unsized.update((EVALUATE, DERIVATIVE))
            return system

    def install(self) -> None:
        """Wrap the public functions of every layer and rebind them package-wide."""
        wrappers = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"pwlcycles.{layer}")
            except ImportError:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                after = self._count_boundary if name == "families.system_from_descriptor" else None
                wrappers[id(obj)] = self.wrap(name, obj, after)
                self.found.add(name)
        if "families.system_from_descriptor" in self.found:
            self.found.update((EVALUATE, DERIVATIVE))
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and w.__wrapped__ is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    def arrays(self) -> dict:
        return {"name": np.array(self.name, dtype=np.int32),
                "start": np.array(self.start, dtype=float), "end": np.array(self.end, dtype=float),
                "parent": np.array(self.parent, dtype=np.int32),
                "job": np.array(self.job, dtype=np.int32),
                "size": np.array(self.size, dtype=np.int64),
                "scalar": np.array(self.scalar, dtype=bool)}

    def write(self, path, t0: float) -> None:
        """Spans as gzipped column JSON, times in microseconds from t0."""
        a = self.arrays()
        cols = {"names": self.names,
                "name": a["name"].tolist(),
                "start_us": np.round((a["start"] - t0) * 1e6, 2).tolist(),
                "end_us": np.round((a["end"] - t0) * 1e6, 2).tolist(),
                "parent": a["parent"].tolist(), "job": a["job"].tolist(),
                "size": a["size"].tolist(), "scalar": a["scalar"].astype(int).tolist()}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(cols, fh)


def _package_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "pwlcycles" or name.startswith("pwlcycles."))]


class Spans:
    """Aggregates over a finished trace."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.ids = {n: i for i, n in enumerate(tracer.names)}
        self.name, self.parent = a["name"], a["parent"]
        self.size, self.scalar = a["size"], a["scalar"]
        self.dur = a["end"] - a["start"]
        child = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        self.names = tracer.names

    def of(self, name: str) -> np.ndarray:
        nid = self.ids.get(name)
        return self.name == nid if nid is not None else np.zeros(len(self.name), bool)

    def within(self, name: str) -> np.ndarray:
        """Spans that have an ancestor called ``name``."""
        inside = np.zeros(len(self.name), bool)
        mark = self.of(name)
        for i, p in enumerate(self.parent):
            if p >= 0 and (mark[p] or inside[p]):
                inside[i] = True
        return inside

    def layer_self(self, layer: str) -> float:
        """Time spent in the layer's own code: its spans minus all their children."""
        ids = [i for i, n in enumerate(self.names) if n.startswith(layer + ".")]
        return float(self.self_time[np.isin(self.name, ids)].sum())

    def count(self, name: str) -> int:
        return int(np.count_nonzero(self.of(name)))

    def mean(self, name: str, values=None) -> float:
        m = self.of(name)
        v = self.dur if values is None else values
        return float(v[m].mean()) if m.any() else 0.0


def layer_metrics(tracer: Tracer, jobs: int, seeds_per_job: int) -> tuple[dict, list]:
    """Per-layer metrics of a traced phase, and the program names it could not find.

    Per-job figures divide by the jobs traced; a layer the workload does
    not reach reads 0.
    """
    s = Spans(tracer)
    ev = s.of(EVALUATE)
    evals = ev | s.of(DERIVATIVE)
    turns = s.count("oracle.return_map")
    roots = int(s.size[s.of("cycles.find_limit_cycles")].sum())
    in_turn = s.within("oracle.return_map")

    def per(value, base):
        return value / base if base else 0.0

    def ms(name):
        return s.mean(name) * 1e3

    table = {
        "families.eval_calls": ((EVALUATE, DERIVATIVE), per(evals.sum(), jobs)),
        "families.eval_points": ((EVALUATE, DERIVATIVE), per(s.size[evals].sum(), jobs)),
        "families.scalar_calls": ((EVALUATE, DERIVATIVE), per((evals & s.scalar).sum(), jobs)),
        "families.eval_ms": ((EVALUATE, DERIVATIVE), per(s.dur[evals].sum() * 1e3, jobs)),
        "hypotheses.check_ms": (("hypotheses.check_boundary_hypotheses",),
                                ms("hypotheses.check_boundary_hypotheses")),
        "hypotheses.grid_points": (("hypotheses.check_boundary_hypotheses",),
                                   s.mean("hypotheses.check_boundary_hypotheses", s.size)),
        "cycles.find_limit_cycles_ms": (("cycles.find_limit_cycles",), ms("cycles.find_limit_cycles")),
        "cycles.h_calls_per_root": (("cycles.find_limit_cycles", EVALUATE),
                                    per((ev & s.within("cycles.find_limit_cycles")).sum(), roots)),
        "analytic.displacement_us": (("analytic.displacement",), s.mean("analytic.displacement") * 1e6),
        "analytic.h_evals_per_point": (("analytic.displacement", EVALUATE),
                                       per((ev & s.within("analytic.displacement")).sum(),
                                           s.count("analytic.displacement"))),
        "oracle.return_map_ms": (("oracle.return_map",), ms("oracle.return_map")),
        "oracle.resolve_stability_ms": (("oracle.resolve_stability",), ms("oracle.resolve_stability")),
        "oracle.numeric_displacement_ms": (("oracle.numeric_displacement",),
                                           ms("oracle.numeric_displacement")),
        "oracle.integrate_calls": (("oracle.integrate_in_zone",),
                                   per(s.count("oracle.integrate_in_zone"), jobs)),
        "oracle.integrate_ms": (("oracle.integrate_in_zone",),
                                per(s.self_time[s.of("oracle.integrate_in_zone")].sum() * 1e3, jobs)),
        "oracle.h_points_per_turn": (("oracle.return_map", EVALUATE),
                                     per(s.size[ev & in_turn].sum(), turns)),
        "oracle.scalar_h_calls_per_turn": (("oracle.return_map", EVALUATE),
                                           per((ev & in_turn & s.scalar).sum(), turns)),
        "oracle.segments_to_csv_ms": (("oracle.segments_to_csv",), ms("oracle.segments_to_csv")),
        "portrait.sample_orbit_calls_per_seed": (("portrait.sample_orbit",),
                                                 per(s.count("portrait.sample_orbit"),
                                                     seeds_per_job * jobs)),
        "portrait.sample_orbit_ms": (("portrait.sample_orbit",), ms("portrait.sample_orbit")),
        "portrait.render_self_ms": (("portrait.render",),
                                    s.mean("portrait.render", s.self_time) * 1e3),
        "portrait.svg_bytes": (("portrait.render",), s.mean("portrait.render", s.size)),
        "cli.self_ms": (("cli.main",), per(s.layer_self("cli") * 1e3, jobs)),
    }
    usable = tracer.found - tracer.unsized
    missing = sorted({n for needs, _ in table.values() for n in needs if n not in usable})
    return {k: float(v) for k, (_, v) in table.items()}, missing
