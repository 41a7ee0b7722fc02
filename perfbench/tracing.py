"""Span tracing installed from outside the program.

Timing wrappers replace vwave functions where callers look them up: module
attributes (including aliases such as ``u_plus`` imported into
``vwave.wronskian``) and class methods.  Each span records name, start, end,
parent and an optional work count.  Spans stay in memory, in flat arrays,
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np


def _points_arg(i):
    return lambda args, kwargs, out: int(np.size(args[i]))


def _nodes_found(args, kwargs, out):
    return len(out.nodes)


def _text_bytes(args, kwargs, out):
    return len(out.encode("utf-8"))


# (module, attribute, span name, work counter)
FUNCTIONS = [
    ("vwave.series", "u_plus", "series.u_plus", _points_arg(0)),
    ("vwave.series", "interior_zeros", "series.interior_zeros", None),
    ("vwave.series", "build_series", "series.build_series", None),
    ("vwave.wronskian", "make_radial_grid", "wronskian.make_radial_grid", None),
    ("vwave.wronskian", "sample_wave", "wronskian.sample_wave", None),
    ("vwave.wronskian", "superpose", "wronskian.superpose", None),
    ("vwave.nodes", "find_nodes", "nodes.find_nodes", _nodes_found),
    ("vwave.nodes", "track_superposition_nodes", "nodes.track_superposition_nodes", None),
    ("vwave.nodes", "common_tracking_grid", "nodes.common_tracking_grid", None),
    ("vwave.verify", "run_suite", "verify.run_suite", None),
    ("vwave.verify", "ode_residual", "verify.ode_residual", None),
    ("vwave.verify", "u_minus_crossings", "verify.u_minus_crossings", None),
    ("vwave.verify", "shoot_inward", "verify.shoot_inward", None),
    ("vwave.verify", "shooting_deviation", "verify.shooting_deviation", None),
    ("vwave.verify", "route_agreement", "verify.route_agreement", None),
    ("vwave.output", "dumps_json", "output.dumps_json", _text_bytes),
    ("vwave.output", "render_csv", "output.render_csv", _text_bytes),
    ("vwave.cli", "main", "cli.main", None),
]

# (module, class, method, span name, work counter)
METHODS = [
    ("vwave.wronskian", "WronskianEvaluator", "__init__", "wronskian.evaluator_build", None),
    ("vwave.wronskian", "WronskianEvaluator", "u_minus_many", "wronskian.u_minus", _points_arg(1)),
    ("vwave.wronskian", "WronskianEvaluator", "limits_at_ro", "wronskian.limits_at_ro", None),
    ("vwave.wronskian", "BoundWave", "r_of", "wronskian.r_of", None),
]


class Tracer:
    """In-memory span store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.count = array("q")
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, counter=None):
        nid = self._id(name)
        stack, clock = self._stack, time.perf_counter
        name_id, start, end, parent, count = (
            self.name_id, self.start, self.end, self.parent, self.count)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            count.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                count[idx] = counter(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target wherever a loaded vwave module refers to it."""
        for modname, attr, name, counter in FUNCTIONS:
            orig = getattr(importlib.import_module(modname), attr)
            traced = self.wrap(name, orig, counter)
            for mod in [m for k, m in sys.modules.items() if k == "vwave" or k.startswith("vwave.")]:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, traced)
        for modname, clsname, meth, name, counter in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            setattr(cls, meth, self.wrap(name, getattr(cls, meth), counter))

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "count": np.frombuffer(self.count, dtype=np.int64).copy(),
        }


def concat(parts: list[dict]) -> dict:
    """Join span arrays from several tracers, remapping names and parents."""
    index: dict[str, int] = {}
    out = {k: [] for k in ("name_id", "start", "end", "parent", "count")}
    offset = 0
    for p in parts:
        remap = np.array([index.setdefault(x, len(index)) for x in p["names"].tolist()],
                         dtype=np.int64)
        out["name_id"].append(remap[p["name_id"]])
        out["parent"].append(np.where(p["parent"] >= 0, p["parent"] + offset, -1))
        for k in ("start", "end", "count"):
            out[k].append(p[k])
        offset += len(p["start"])
    res = {k: np.concatenate(v) for k, v in out.items()}
    res["names"] = np.array(list(index))
    return res


def summarize(spans: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, and summed work counts.

    Self time is a span's duration minus the durations of its child spans.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"].astype(np.int64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child
    nid = spans["name_id"].astype(np.int64)
    k = len(spans["names"])
    calls = np.bincount(nid, minlength=k)
    total = np.bincount(nid, weights=dur, minlength=k)
    selfs = np.bincount(nid, weights=self_s, minlength=k)
    counts = np.bincount(nid, weights=spans["count"].astype(float), minlength=k)
    return {
        str(name): {"calls": int(calls[i]), "total_s": float(total[i]),
                    "self_s": float(selfs[i]), "count": int(counts[i])}
        for i, name in enumerate(spans["names"].tolist())
    }


def save(path, spans: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **spans)


def load(path) -> dict:
    with np.load(path) as f:
        return {k: f[k] for k in f.files}
