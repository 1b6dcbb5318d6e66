"""Spans around library calls, recorded from outside the library.

``traced(tracer)`` replaces the names listed in ``TARGETS`` with timing
wrappers for the duration of a ``with`` block and puts the originals back on
exit.  Names are wrapped where their callers look them up, so calls made
inside the library are seen too: ``rank_placements`` and
``select_reachable`` reach ``kinematics.ik_dls`` through the module,
``run_episode`` calls ``dwa.dwa_step``, ``SortTracker.step`` calls
``rtt.hungarian``, ``plan`` calls ``pddl.ground``, ``execute`` calls
``execution.make_plan``, and ``workstation_model`` calls the cloud stages
through the names ``placement`` imported.  Spans stay in memory.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counters: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name, counters, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append(Span(name, 0.0, parent=self._open[-1] if self._open else None))
        self._open.append(index)
        span = self.spans[index]
        span.start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            span.end = perf_counter()
            self._open.pop()
            if counters:
                span.counters = counters(args, kwargs, None, exc)
            raise
        span.end = perf_counter()
        self._open.pop()
        if counters:
            span.counters = counters(args, kwargs, out, None)
        return out


# --- what each span records -----------------------------------------------------

def _arg(args, kwargs, i, key, default=None):
    return args[i] if len(args) > i else kwargs.get(key, default)


def _voxel(args, kwargs, out, exc):
    return {"n_in": len(args[0]), "n_out": len(out) if out is not None else 0}


def _plane(args, kwargs, out, exc):
    return {"n": len(args[0]), "inliers": len(out.inliers) if out is not None else 0}


def _count(key):
    def counters(args, kwargs, out, exc):
        return {key: len(out) if out is not None else 0}
    return counters


def _ik(args, kwargs, out, exc):
    if out is not None:
        return {"iterations": out.iterations, "converged": True}
    return {"iterations": getattr(exc, "iterations", 0), "converged": False}


def _episode(args, kwargs, out, exc):
    grid = _arg(args, kwargs, 2, "grid")
    out_steps = out.steps if out is not None else 0
    max_steps = _arg(args, kwargs, 4, "max_steps", 200)
    stop = ("reached" if out is not None and out.reached else
            "budget" if out_steps == max_steps else "no_admissible")
    return {"blocked": int(np.count_nonzero(grid.cells)), "steps": out_steps,
            "stop": stop}


def _hungarian(args, kwargs, out, exc):
    return {"n": max(np.shape(args[0]))}


def _sort_step(args, kwargs, out, exc):
    if out is None:
        return {}
    return {"matches": len(out.matches) - len(out.new_ids),
            "births": len(out.new_ids), "deaths": len(out.removed_ids)}


def _plan_cost(args, kwargs, out, exc):
    return {"cost": out.cost} if out is not None else {}


def _execute(args, kwargs, out, exc):
    if out is None:
        return {}
    return {"replans": out.replans, "plans_attempted": out.plans_attempted,
            "steps": len(out.records)}


def _plan_name(args, kwargs):
    return f"pddl.plan.{_arg(args, kwargs, 2, 'mode', 'optimal')}"


# (module, attribute, span name or function of the call, counters)
TARGETS = (
    ("workbot.placement", "voxel_downsample", "cloud.voxel_downsample", _voxel),
    ("workbot.placement", "estimate_normals", "cloud.estimate_normals", None),
    ("workbot.placement", "segment_plane", "cloud.segment_plane", _plane),
    ("workbot.placement", "convex_hull", "cloud.convex_hull", None),
    ("workbot.placement", "extract_prism", "cloud.extract_prism", None),
    ("workbot.placement", "euclidean_cluster", "cloud.euclidean_cluster",
     _count("clusters")),
    ("workbot.placement", "workstation_model", "placement.workstation_model", None),
    ("workbot.placement", "sample_placements", "placement.sample_placements",
     _count("accepted")),
    ("workbot.placement", "rank_placements", "placement.rank_placements", None),
    ("workbot.recognition", "pca_pose", "recognition.pca_pose", None),
    ("workbot.recognition", "fuse", "recognition.fuse", None),
    ("workbot.kinematics", "ik_dls", "kinematics.ik_dls", _ik),
    ("workbot.grasping", "sample_pregrasp", "grasping.sample_pregrasp", None),
    ("workbot.grasping", "select_reachable", "grasping.select_reachable", None),
    ("workbot.dwa", "dwa_step", "dwa.dwa_step", None),
    ("workbot.dwa", "run_episode", "dwa.run_episode", _episode),
    ("workbot.rtt", "hungarian", "rtt.hungarian", _hungarian),
    ("workbot.rtt:SortTracker", "step", "rtt.sort_step", _sort_step),
    ("workbot.rtt", "estimate_motion", "rtt.estimate_motion", None),
    ("workbot.rtt", "predict_arrival", "rtt.predict_arrival", None),
    ("workbot.pddl", "ground", "pddl.ground", _count("actions")),
    ("workbot.pddl", "plan", _plan_name, _plan_cost),
    ("workbot.execution", "make_plan", "execution.make_plan", None),
    ("workbot.execution", "execute", "execution.execute", _execute),
    ("workbot.sim", "gen_workstation", "sim.gen_workstation", None),
    ("workbot.sim", "gen_rtt_stream", "sim.gen_rtt_stream", None),
    ("workbot.sim", "gen_obstacle_grid", "sim.gen_obstacle_grid", None),
)


def owner(path: str):
    """The module, or the class inside it, that holds a wrapped name."""
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _wrapper(tracer: Tracer, fn, name, counters):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(args, kwargs) if callable(name) else name
        return tracer.call(label, counters, fn, args, kwargs)
    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every target for the duration of the block."""
    saved = []
    try:
        for path, attr, name, counters in TARGETS:
            obj = owner(path)
            original = obj.__dict__[attr]
            saved.append((obj, attr, original))
            setattr(obj, attr, _wrapper(tracer, original, name, counters))
        yield tracer
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)
