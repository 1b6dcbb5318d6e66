"""Metric definitions and their aggregation from samples and spans."""

from __future__ import annotations

import numpy as np

# name, samples key, statistic ("mean" or a percentile) taken within each
# input class (see ``by_class``); ratios come from Recorder totals.  The
# typical time is a mean, not a median: on a shared host one call runs
# either at full speed or at about 0.6 of it as other tenants come and go,
# and a run's median jumps between the two speeds where its mean moves in
# proportion to the time spent at each.  Tails are p95 or p90 rather than
# p99, since single slow calls of a shared host, or the dropout pattern of a
# few streams, move a p99 resting on the 10-40 samples beyond it that a run
# gets.
E2E_TIMINGS = (
    ("cli_cold_ms.mean", "cli_cold_ms", "mean"),
    ("perceive_ms.mean", "perceive_ms", "mean"),
    ("place_ms.mean", "place_ms", "mean"),
    ("grasp_ms.mean", "grasp_ms", "mean"),
    ("nav_step_ms.mean", "nav_step_ms", "mean"),
    ("nav_step_ms.p95", "nav_step_ms", 95),
    ("track_frame_ms.mean", "track_frame_ms", "mean"),
    ("track_frame_ms.p90", "track_frame_ms", 90),
    ("plan_ms.mean", "plan_ms", "mean"),
    ("plan_ms.p90", "plan_ms", 90),
    ("mission_ms.mean", "mission_ms", "mean"),
)
E2E_RATIOS = (
    ("reach_frac", "reach_num", "reach_den"),
    ("track_accuracy", "track_correct", "track_present"),
    ("mission_cost_ratio", "mission_cost", "optimal_cost"),
)


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def by_class(values, classes, stat) -> float:
    """``stat`` (the mean, or a percentile) within each input class,
    combined over the classes by geometric mean.  Every class weighs the
    same however many samples a run got of it, so the class mix a run
    reaches in its time does not move the figure, and a class whose cost
    varies from seed to seed (twenty-object SORT frames) moves it half as
    much as a pooled percentile that lands inside that class; with one class
    it is the plain statistic."""
    groups: dict[str, list[float]] = {}
    for value, cls in zip(values, classes):
        groups.setdefault(cls, []).append(value)
    if not groups:
        return 0.0
    within = [np.mean(g) if stat == "mean" else np.percentile(g, stat)
              for g in groups.values()]
    return float(np.exp(np.mean(np.log(within))))


def timings(rec, key: str, scaled: bool = True) -> list[float]:
    """The samples of ``key``, scaled to the reference host (see host.py)
    unless ``scaled`` is false."""
    values = rec.samples[key]
    if not scaled:
        return list(values)
    return [v * (rec.host.scale(t0, t1) if scale is None else scale)
            for v, (t0, t1), scale in zip(values, rec.stamps[key], rec.scales[key])]


def end_to_end(rec, scaled: bool = True) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count)."""
    setup = timings(rec, "setup_ms", scaled)
    out = {"setup_s": (percentile(setup, 50) / 1e3, "s", len(setup))}
    for name, key, stat in E2E_TIMINGS:
        values = timings(rec, key, scaled)
        out[name] = (by_class(values, rec.classes[key], stat), "ms",
                     len(values))
    for name, num, den in E2E_RATIOS:
        total = rec.totals[den]
        out[name] = (rec.totals[num] / total if total else 0.0, "ratio",
                     int(total))
    # the mean over grid classes of each class's reached share, so that the
    # figure does not depend on how far through the class cycle a run got
    kinds = [k.partition(".")[2] for k in rec.totals if k.startswith("nav_episodes.")]
    rates = [rec.totals[f"nav_reached.{k}"] / rec.totals[f"nav_episodes.{k}"]
             for k in kinds]
    out["nav_reached_frac"] = (sum(rates) / len(rates) if rates else 0.0, "ratio",
                               int(sum(rec.totals[f"nav_episodes.{k}"] for k in kinds)))
    return out


# --- per layer ------------------------------------------------------------------

TIMED_SPANS = (
    "cloud.voxel_downsample", "cloud.estimate_normals", "cloud.segment_plane",
    "cloud.convex_hull", "cloud.extract_prism", "cloud.euclidean_cluster",
    "recognition.pca_pose", "recognition.fuse", "placement.workstation_model",
    "placement.sample_placements", "placement.rank_placements",
    "kinematics.ik_dls", "grasping.sample_pregrasp", "grasping.select_reachable",
    "dwa.dwa_step", "dwa.run_episode", "rtt.sort_step", "rtt.hungarian",
    "rtt.estimate_motion", "rtt.predict_arrival", "pddl.ground",
    "pddl.plan.optimal", "pddl.plan.greedy", "sim.gen_workstation",
    "sim.gen_rtt_stream", "sim.gen_obstacle_grid",
)

# per-layer metric name -> unit, for every name ``per_layer`` returns
UNITS = {f"{name}.ms": "ms" for name in TIMED_SPANS}
UNITS.update({
    "execution.execute.ms": "ms",
    "cloud.points_in": "count", "cloud.points_down": "count",
    "cloud.plane_inlier_frac": "ratio", "cloud.clusters": "count",
    "placement.accepted": "count",
    "kinematics.ik_dls.calls": "count", "kinematics.ik_dls.iterations": "count",
    "kinematics.ik_dls.converged_frac": "ratio",
    "kinematics.ik_dls.ms_per_iter": "ms",
    "kinematics.ik_dls.place_share": "ratio",
    "kinematics.ik_dls.grasp_share": "ratio",
    "grasping.candidates_tried": "count",
    "dwa.dwa_step.calls": "count", "dwa.blocked_cells": "count",
    "dwa.stop.reached": "ratio", "dwa.stop.budget": "ratio",
    "dwa.stop.no_admissible": "ratio",
    "rtt.hungarian.calls": "count", "rtt.hungarian.n_max": "count",
    "rtt.hungarian.frame_share": "ratio",
    "rtt.matches": "count", "rtt.births": "count", "rtt.deaths": "count",
    "pddl.ground.actions": "count", "pddl.ground.plan_share": "ratio",
    "pddl.plan.cost": "count",
    "execution.replans": "count", "execution.plans_attempted": "count",
    "execution.steps": "count", "execution.make_plan.execute_share": "ratio",
    "cli.import_ms": "ms",
    "trace.overhead_pct": "%",
    "cover.perceive": "ratio", "cover.place": "ratio", "cover.grasp": "ratio",
    "cover.nav": "ratio", "cover.track": "ratio", "cover.plan": "ratio",
    "cover.mission": "ratio",
})


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _self_ms(spans, index: int, children: dict) -> float:
    return spans[index].ms - sum(spans[c].ms for c in children.get(index, ()))


def _share(spans, children, parent_name: str, child_name: str) -> float:
    """Fraction of the time in ``parent_name`` spans spent in their
    ``child_name`` descendants."""
    total = covered = 0.0
    for i, span in enumerate(spans):
        if span.name != parent_name:
            continue
        total += span.ms
        stack = list(children.get(i, ()))
        while stack:
            j = stack.pop()
            if spans[j].name == child_name:
                covered += spans[j].ms
            else:
                stack.extend(children.get(j, ()))
    return covered / total if total else 0.0


def _cover(spans, intervals, kind: str) -> float:
    """Fraction of the timed ``kind`` calls covered by top-level spans."""
    windows = sorted((t0, t1) for k, t0, t1 in intervals if k == kind)
    tops = sorted((s.start, s.end) for s in spans if s.parent is None)
    total = sum(t1 - t0 for t0, t1 in windows)
    covered, j = 0.0, 0
    for t0, t1 in windows:
        while j < len(tops) and tops[j][1] <= t0:
            j += 1
        k = j
        while k < len(tops) and tops[k][0] < t1:
            covered += min(t1, tops[k][1]) - max(t0, tops[k][0])
            k += 1
    return covered / total if total else 0.0


def per_layer(spans, intervals, extra: dict[str, float]) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) from one traced pass."""
    children: dict[int, list[int]] = {}
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)
        if span.parent is not None:
            children.setdefault(span.parent, []).append(i)

    def of(name):
        return [spans[i] for i in by_name.get(name, ())]

    def counter(name, key):
        return [s.counters[key] for s in of(name) if key in s.counters]

    out = {f"{name}.ms": _median([s.ms for s in of(name)]) for name in TIMED_SPANS}
    out["execution.execute.ms"] = _median(
        [_self_ms(spans, i, children) for i in by_name.get("execution.execute", ())])

    voxel_in = counter("cloud.voxel_downsample", "n_in")
    planes = of("cloud.segment_plane")
    out.update({
        "cloud.points_in": _median(voxel_in),
        "cloud.points_down": _median(counter("cloud.voxel_downsample", "n_out")),
        "cloud.plane_inlier_frac": _median(
            [s.counters["inliers"] / s.counters["n"] for s in planes
             if s.counters.get("n")]),
        "cloud.clusters": _mean(counter("cloud.euclidean_cluster", "clusters")),
        "placement.accepted": _mean(counter("placement.sample_placements", "accepted")),
    })

    ik = of("kinematics.ik_dls")
    iterations = counter("kinematics.ik_dls", "iterations")
    out.update({
        "kinematics.ik_dls.calls": float(len(ik)),
        "kinematics.ik_dls.iterations": _mean(iterations),
        "kinematics.ik_dls.converged_frac": _mean(
            counter("kinematics.ik_dls", "converged")),
        "kinematics.ik_dls.ms_per_iter": (sum(s.ms for s in ik) / sum(iterations)
                                          if sum(iterations) else 0.0),
        "kinematics.ik_dls.place_share": _share(
            spans, children, "placement.rank_placements", "kinematics.ik_dls"),
        "kinematics.ik_dls.grasp_share": _share(
            spans, children, "grasping.select_reachable", "kinematics.ik_dls"),
        "grasping.candidates_tried": _mean(
            [sum(spans[c].name == "kinematics.ik_dls" for c in children.get(i, ()))
             for i in by_name.get("grasping.select_reachable", ())]),
    })

    stops = counter("dwa.run_episode", "stop")
    out.update({
        "dwa.dwa_step.calls": float(len(of("dwa.dwa_step"))),
        "dwa.blocked_cells": _mean(counter("dwa.run_episode", "blocked")),
        **{f"dwa.stop.{s}": (stops.count(s) / len(stops) if stops else 0.0)
           for s in ("reached", "budget", "no_admissible")},
    })

    frames = of("rtt.sort_step")
    out.update({
        "rtt.hungarian.calls": float(len(of("rtt.hungarian"))),
        "rtt.hungarian.n_max": float(max(counter("rtt.hungarian", "n"), default=0)),
        "rtt.hungarian.frame_share": _share(spans, children, "rtt.sort_step",
                                            "rtt.hungarian"),
        **{f"rtt.{key}": _mean([s.counters.get(key, 0) for s in frames])
           for key in ("matches", "births", "deaths")},
    })

    out.update({
        "pddl.ground.actions": _mean(counter("pddl.ground", "actions")),
        "pddl.ground.plan_share": _share(spans, children, "pddl.plan.optimal",
                                         "pddl.ground"),
        "pddl.plan.cost": _mean(counter("pddl.plan.optimal", "cost")),
        "execution.replans": _mean(counter("execution.execute", "replans")),
        "execution.plans_attempted": _mean(
            counter("execution.execute", "plans_attempted")),
        "execution.steps": _mean(counter("execution.execute", "steps")),
        "execution.make_plan.execute_share": _share(
            spans, children, "execution.execute", "execution.make_plan"),
    })
    for kind in ("perceive", "place", "grasp", "nav", "track", "plan", "mission"):
        out[f"cover.{kind}"] = _cover(spans, intervals, kind)
    out.update(extra)
    return {name: (value, UNITS[name]) for name, value in out.items()}


def span_summary(spans) -> dict[str, dict[str, float]]:
    """Calls, total and percentile ms per span name; Hungarian calls are
    also grouped by matrix size."""
    groups: dict[str, list[float]] = {}
    for span in spans:
        groups.setdefault(span.name, []).append(span.ms)
        if span.name == "rtt.hungarian":
            groups.setdefault(f"rtt.hungarian[n={span.counters['n']}]", []).append(span.ms)
    return {name: {"calls": len(ms), "total_ms": float(np.sum(ms)),
                   "p50_ms": percentile(ms, 50), "p99_ms": percentile(ms, 99)}
            for name, ms in sorted(groups.items())}
