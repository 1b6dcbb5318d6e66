"""Command-line front door over every pipeline in the package.

One subcommand per pipeline: perceive, place, grasp, rtt, dwa, plan, exec
and gen.  All flags are long-form; artifacts land at --out, a short JSON
summary goes to standard output.  Exit status is 0 on success, 1 on a
pipeline error (reported as an error JSON on standard error) and 2 on a
usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace

from .errors import WorkbotError
from .jsonio import construct, decode, load_json

# Each subcommand imports the pipelines it runs, and numpy or scipy only
# through them: `plan` and `exec` load neither, `rtt` loads no scipy.


def _jsonable(obj):
    # numpy arrays and scalars both convert through tolist()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _dump_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _summary(obj) -> None:
    print(json.dumps(_jsonable(obj), sort_keys=True))


def _load_planning_task(args):
    from . import pddl as pddlmod
    with open(args.domain, "r", encoding="utf-8") as fh:
        domain = pddlmod.parse_domain(fh.read(), path=args.domain)
    with open(args.problem, "r", encoding="utf-8") as fh:
        problem = pddlmod.parse_problem(fh.read(), domain, path=args.problem)
    return domain, problem


def _scenario(path, seed, kind=None):
    """The scenario at ``path``, which must be a ``kind`` ("workstation" or
    "rtt") scenario when one is given, with ``seed`` as its seed if given."""
    from . import sim as simmod
    sc = simmod.load_scenario(path)
    expected = {"workstation": simmod.WorkstationScenario,
                "rtt": simmod.RttScenario}
    if kind is not None and not isinstance(sc, expected[kind]):
        article = "an" if kind == "rtt" else "a"
        raise ValueError(f"scenario {path} is not {article} {kind} scenario")
    return sc if seed is None else replace(sc, seed=seed)


def _config(cls, path):
    """The ``--config`` file at ``path`` as a ``cls``; defaults if None."""
    return cls() if path is None else decode(cls, load_json(path), path)


def _parse_floats(text: str, n: int, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(p) for p in text.split(","))
    except ValueError:
        values = ()
    if len(values) != n or not all(map(math.isfinite, values)):
        raise ValueError(f"{flag} expects {n} comma-separated finite "
                         f"numbers, got {text!r}")
    return values


# --- subcommands -------------------------------------------------------------

def cmd_perceive(args) -> int:
    import numpy as np
    from scipy.spatial import cKDTree

    from . import cloud as cloudmod
    from . import placement as placemod
    from . import sim as simmod

    sc = _scenario(args.scenario, args.seed, "workstation")
    cfg = _config(cloudmod.PerceptionConfig, args.config)
    cloud, truth = simmod.gen_workstation(sc)
    work, plane, _, clusters = placemod.segment_workstation(cloud, cfg)
    normal_err = math.degrees(math.acos(min(1.0, abs(float(
        cloudmod._rowdot(plane.normal, truth.plane.normal))))))
    offset_err = abs(abs(plane.offset) - abs(truth.plane.offset))
    tree = cKDTree(cloud.points)
    purities = []
    for cl in clusters:
        _, idx = tree.query(work.points[cl.indices])
        labels = truth.labels[idx]
        counts = np.bincount(labels[labels >= 0]) if (labels >= 0).any() else []
        top = int(np.max(counts)) if len(counts) else 0
        purities.append(top / len(labels))
    metrics = {
        "plane_normal_err_deg": normal_err,
        "plane_offset_err_m": offset_err,
        "cluster_count": float(len(clusters)),
        "object_count": float(len(sc.objects)),
        "purity_min": float(min(purities)) if purities else 1.0,
        "points_in": float(len(cloud)),
        "points_down": float(len(work)),
    }
    simmod.save_metrics_csv(args.out, metrics)
    _summary(metrics)
    return 0


def cmd_place(args) -> int:
    import numpy as np

    from . import kinematics as kinmod
    from . import placement as placemod
    from . import sim as simmod
    from .cloud import PerceptionConfig
    from .geometry import Pose

    base_xyz = _parse_floats(args.base, 3, "--base")
    sc = _scenario(args.scenario, args.seed, "workstation")
    cfg = _config(PerceptionConfig, args.config)
    cloud, _ = simmod.gen_workstation(sc)
    plane, polygon, obstacles = placemod.workstation_model(cloud, cfg)
    cands = placemod.sample_placements(polygon, obstacles,
                                       d_min=args.d_min,
                                       footprint=args.footprint,
                                       n=args.n, rng_seed=args.rng_seed)
    if args.chain:
        chain = kinmod.load_chain(args.chain)
        q0 = np.zeros(len(chain.joints))
        base = Pose(np.array(base_xyz), np.array([0.0, 0.0, 0.0, 1.0]))
        cands = placemod.rank_placements(chain, base, cands, q0, polygon,
                                         place_offset=args.place_offset)
    out = {"plane": {"normal": plane.normal, "offset": plane.offset},
           "obstacles": [{"center": o.center, "radius": o.radius}
                         for o in obstacles],
           "placements": [{"uv": c.uv, "position": c.pose.position,
                           "clearance": c.clearance,
                           "reach_score": c.reach_score} for c in cands]}
    _dump_json(args.out, out)
    _summary({"placements": len(cands), "obstacles": len(obstacles)})
    return 0


@dataclass(frozen=True)
class _GraspObject:
    """The `grasp --object` file: the object and how to sample around it."""

    height: float
    position: tuple[float, float, float]
    n: int = 9
    offset: float = 0.05
    yaw_spread: float = math.pi / 2
    base_position: tuple[float, float, float] = (0.0, 0.0, 0.0)


def cmd_grasp(args) -> int:
    import numpy as np

    from . import grasping as graspmod
    from . import kinematics as kinmod
    from .geometry import Pose

    obj = decode(_GraspObject, load_json(args.object), args.object)
    # through construct, so that the grasping checks name the file too
    approach = construct(graspmod.decide_approach, args.object,
                         object_height=obj.height)
    object_pose = Pose(np.array(obj.position),
                       np.array([0.0, 0.0, 0.0, 1.0]))
    cands = construct(lambda: graspmod.sample_pregrasp(
        object_pose, approach, offset=obj.offset, n=obj.n,
        yaw_spread=obj.yaw_spread, base_position=obj.base_position),
        args.object)
    selected = None
    if args.chain:
        chain = kinmod.load_chain(args.chain)
        q0 = np.zeros(len(chain.joints))
        cand, ik = graspmod.select_reachable(chain, cands, q0)
        selected = {"yaw": cand.yaw, "q": ik.q,
                    "iterations": ik.iterations}
    out = {"approach": approach,
           "candidates": [{"position": c.pregrasp_pose.position,
                           "rotation": c.pregrasp_pose.rotation(),
                           "yaw": c.yaw, "score": c.score} for c in cands],
           "selected": selected}
    _dump_json(args.out, out)
    _summary({"approach": approach, "candidates": len(cands),
              "selected": selected is not None})
    return 0


def cmd_rtt(args) -> int:
    from . import sim as simmod
    sc = _scenario(args.scenario, args.seed, "rtt")
    frames3, frames2, truth = simmod.gen_rtt_stream(sc)
    if args.tracker == "sort":
        metrics = simmod.evaluate_sort(frames2, truth)
    else:
        metrics = simmod.evaluate_nn3d(frames3, truth)
    simmod.save_metrics_csv(args.out, metrics)
    _summary(metrics)
    return 0


def cmd_dwa(args) -> int:
    from . import dwa as dwamod
    grid = dwamod.load_pgm(args.map)
    cfg = _config(dwamod.DWAConfig, args.config)
    x, y, theta = _parse_floats(args.start, 3, "--start")
    goal = _parse_floats(args.goal, 2, "--goal")
    result = dwamod.run_episode(dwamod.RobotState(x=x, y=y, theta=theta),
                                goal, grid, cfg,
                                max_steps=args.max_steps,
                                stop_dist=args.stop_dist)
    dwamod.save_pose_log(args.out, result.poses)
    final = result.poses[-1]
    _summary({"reached": result.reached, "steps": result.steps,
              "final_dist": math.hypot(final[1] - goal[0],
                                       final[2] - goal[1])})
    return 0


def cmd_plan(args) -> int:
    from . import pddl as pddlmod
    domain, problem = _load_planning_task(args)
    result = pddlmod.plan(domain, problem, mode=args.mode)
    text = pddlmod.format_plan(result)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    _summary({"cost": result.cost, "length": len(result.actions)})
    return 0


def cmd_exec(args) -> int:
    from . import execution as execmod
    domain, problem = _load_planning_task(args)
    bindings = execmod.load_bindings(load_json(args.bindings), args.bindings)
    faults = (execmod.load_fault_script(load_json(args.faults), args.faults)
              if args.faults else None)
    trace = execmod.execute(domain, problem, bindings, fault_script=faults,
                            max_replans=args.max_replans, mode=args.mode)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(trace.to_jsonl())
    _summary({"outcome": trace.outcome, "replans": trace.replans,
              "plans_attempted": trace.plans_attempted,
              "steps": len(trace.records)})
    return 0


def cmd_gen(args) -> int:
    from . import sim as simmod
    sc = _scenario(args.scenario, args.seed)
    if isinstance(sc, simmod.WorkstationScenario):
        from .cloud import save_ply
        cloud, truth = simmod.gen_workstation(sc)
        save_ply(cloud, args.out)
        _dump_json(args.out + ".truth.json",
                   {"plane": {"normal": truth.plane.normal,
                              "offset": truth.plane.offset},
                    "labels": truth.labels,
                    "object_labels": list(truth.object_labels)})
        _summary({"kind": "workstation", "points": len(cloud)})
        return 0
    frames3, frames2, truth = simmod.gen_rtt_stream(sc)
    with open(args.out, "w", encoding="utf-8") as fh:
        for frame in frames2:
            for det, gt in zip(frame.detections, frame.gt_ids):
                fh.write(json.dumps(
                    {"t": det.t, "cx": det.cx, "cy": det.cy, "w": det.w,
                     "h": det.h, "score": det.score, "gt_id": gt},
                    sort_keys=True) + "\n")
    _dump_json(args.out + ".truth.json",
               {"omega": truth.omega, "center": list(truth.center),
                "radius": truth.radius, "labels": list(truth.labels),
                "times": truth.times, "angles": truth.angles,
                "positions": truth.positions, "present": truth.present},
               )
    _summary({"kind": "rtt", "frames": len(frames2)})
    return 0


# --- parser ------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="workbot",
        description="Workcell pipelines: perception, placement, grasping, "
                    "tracking, navigation, planning and execution.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("perceive", help="segment a workstation cloud and "
                                        "score it against ground truth")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_perceive)

    p = sub.add_parser("place", help="plan collision-free placements on a "
                                     "workstation")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--chain", default=None)
    p.add_argument("--base", default="0,0,0",
                   help="x,y,z arm-base position used with --chain")
    p.add_argument("--d-min", type=float, default=0.03)
    p.add_argument("--footprint", type=float, default=0.05)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--place-offset", type=float, default=0.05)
    p.set_defaults(func=cmd_place)

    p = sub.add_parser("grasp", help="sample pre-grasp poses for an object")
    p.add_argument("--object", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--chain", default=None)
    p.set_defaults(func=cmd_grasp)

    p = sub.add_parser("rtt", help="track a rotating-table stream and "
                                   "report metrics")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tracker", choices=("sort", "nn3d"), default="sort")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_rtt)

    p = sub.add_parser("dwa", help="drive toward a goal on an occupancy grid")
    p.add_argument("--map", required=True)
    p.add_argument("--start", required=True,
                   help="x,y,theta start pose")
    p.add_argument("--goal", required=True, help="x,y goal position")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--max-steps", type=int, default=200)
    p.add_argument("--stop-dist", type=float, default=0.15)
    p.set_defaults(func=cmd_dwa)

    p = sub.add_parser("plan", help="solve a task-planning problem")
    p.add_argument("--domain", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("optimal", "greedy"), default="optimal")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("exec", help="execute a plan through scripted "
                                    "components with replanning")
    p.add_argument("--domain", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--bindings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--faults", default=None)
    p.add_argument("--max-replans", type=int, default=3)
    p.add_argument("--mode", choices=("greedy", "optimal"), default="greedy")
    p.set_defaults(func=cmd_exec)

    p = sub.add_parser("gen", help="generate a scenario dataset with "
                                   "ground truth")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads "--start -50,1,0" as two options, and "--start=-50,1,0"
    # as one with its value
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] in ("--start", "--goal", "--base"):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WorkbotError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)},
            sort_keys=True) + "\n")
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
