"""The timed tasks of a run: one closed loop, one task at a time.

Only library calls are inside a timed region; building their arguments,
checking their outputs and scoring them happen outside it.  An unexpected
exception or a failed output check fails the operation; a domain outcome the
library reports by raising (an unreachable placement, a stalled episode, an
unsolvable replan) is counted as an outcome, not a failure.
"""

from __future__ import annotations

import math
import traceback
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from workbot import (cloud, dwa, execution, grasping, pddl, placement,
                     recognition, rtt)
from workbot.geometry import Pose

from . import oracles
from .host import HostClock
from .inputs import (DIJKSTRA_MAX_ITEMS, GRASP_BASE_Z, GRASP_SAMPLES,
                     MAX_REPLANS, NAV_MAX_STEPS, NAV_STOP_DIST,
                     PLACE_BASE_XYZ, PLACE_CANDIDATES, Q0, Mission, NavCase, Scene,
                     Stream, Task, Workload, ground_actions,
                     round_robin)
from .oracles import CheckFailed

# ik_dls defaults: the tolerances its solutions are checked against
IK_TOL_POS = 1e-3
IK_TOL_ANG = math.radians(0.5)
IK_ROT_WEIGHTS = (1.0, 1.0, 0.2)
# placement defaults: footprint plus separation kept from every object
PLACE_MARGIN = 0.05 + 0.03
IDENTITY = np.array([0.0, 0.0, 0.0, 1.0])
DWA_CONFIG = dwa.DWAConfig()
# most of a run's time the reference tasks and probes may take before the
# time is up; they take about 0.4-0.5 of it when the host runs at full speed
PERIODIC_SHARE = 0.6


class Recorder:
    """Timing samples, ratio totals, outcomes and failures of one run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        # input class, (start, end) and given scale of each sample, parallel
        # to ``samples``
        self.classes: dict[str, list[str]] = defaultdict(list)
        self.stamps: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.scales: dict[str, list[float | None]] = defaultdict(list)
        self.host = HostClock()
        self.totals: dict[str, float] = defaultdict(float)
        self.outcomes: Counter = Counter()
        self.properties: dict[str, Counter] = defaultdict(Counter)
        # (end-to-end kind, start, end) of every timed library call
        self.intervals: list[tuple[str, float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.current = ""           # name of the input being run

    def sample(self, key: str, ms: float, cls: str = "all",
               scale: float | None = None) -> None:
        """Record one timing sample of input class ``cls`` that has just
        ended, with the factor that takes it to the reference host when the
        host kernel cannot give it (see host.py)."""
        end = perf_counter()
        self.samples[key].append(ms)
        self.classes[key].append(cls)
        self.stamps[key].append((end - ms / 1e3, end))
        self.scales[key].append(scale)

    def call(self, kind: str, fn, *args):
        """Run one operation; returns (ok, result)."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception as exc:    # one failed operation must not end the run
            self.failed += 1
            self.failures.append(
                f"{kind} on {self.current}: "
                f"{traceback.format_exception_only(exc)[-1].strip()}")
            return False, None

    def clock(self, kind: str, fn, *args, expected=(), **kwargs):
        """Time one library call; an ``expected`` exception is returned as
        the result.  Returns (result, ms)."""
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except expected as exc:
            out = exc
        t1 = perf_counter()
        self.intervals.append((kind, t0, t1))
        self.host.tick()
        return out, (t1 - t0) * 1e3


def _bucket(value: float, edges: tuple[int, ...]) -> str:
    for lo, hi in zip(edges, edges[1:]):
        if lo <= value < hi:
            return f"{lo}-{hi - 1}"
    return f">={edges[-1]}"


# --- table top ---------------------------------------------------------------------

def _perceive(rec: Recorder, scene: Scene):
    (plane, polygon, obstacles), ms = rec.clock(
        "perceive", placement.workstation_model, scene.cloud)
    truth = scene.truth
    err = oracles.normal_error_deg(plane.normal, truth.plane.normal)
    if err > 2.0 or abs(abs(plane.offset) - abs(truth.plane.offset)) > 0.01:
        raise CheckFailed(f"table plane off by {err:.2f} deg")
    if len(obstacles) != len(scene.scenario.objects):
        raise CheckFailed(f"{len(obstacles)} obstacles for "
                          f"{len(scene.scenario.objects)} objects")
    pts = scene.cloud.points
    n, off = plane.normal, plane.offset
    if n[2] < 0.0:
        n, off = -n, -off
    height = pts @ n + off
    basis = polygon.basis
    inventory = recognition.Inventory(frozenset(scene.scores))
    recognised = []
    for obs in obstacles:
        centre = basis.origin + obs.center[0] * basis.u + obs.center[1] * basis.v
        flat = pts - centre
        flat -= np.outer(flat @ n, n)
        idx = np.nonzero((height >= 0.01) & (height <= 0.40)
                         & (np.linalg.norm(flat, axis=1) <= obs.radius + 0.005))[0]
        # drop stray points floating above the object's top face
        idx = idx[height[idx] <= np.percentile(height[idx], 95) + 0.02]
        labels = truth.labels[idx]
        labels = labels[labels > 0]
        if not len(labels):
            raise CheckFailed("an obstacle covers no object points")
        k = int(np.bincount(labels).argmax())
        label = truth.object_labels[k - 1]
        s3, s2 = scene.scores[label]
        cluster = cloud.Cluster(indices=idx,
                                centroid=cloud.Point3.from_array(pts[idx].mean(axis=0)))
        (pose, _), ms_pose = rec.clock("perceive", recognition.pca_pose,
                                       scene.cloud, cluster)
        (fused, _), ms_fuse = rec.clock(
            "perceive", recognition.fuse,
            recognition.ObjectScores(s3, "3d"),
            recognition.ObjectScores(s2, "2d"), inventory)
        ms += ms_pose + ms_fuse
        if fused != label:
            raise CheckFailed(f"recognised {fused!r} as {label!r}")
        recognised.append((k - 1, pose.position, float(height[idx].max()),
                           float(pts[idx, 2].max())))
    if sorted(r[0] for r in recognised) != list(range(len(obstacles))):
        raise CheckFailed("two obstacles cover the same object")
    rec.sample("perceive_ms", ms, f"{scene.scenario.density:g}")
    return polygon, obstacles, recognised


def _place(rec: Recorder, wl: Workload, scene: Scene, polygon, obstacles):
    cands, ms = rec.clock("place", placement.sample_placements, polygon,
                          obstacles, n=PLACE_CANDIDATES,
                          expected=(placement.NoFreeSpace,))
    if isinstance(cands, placement.NoFreeSpace):
        rec.outcomes["place.no_free_space"] += 1
        rec.sample("place_ms", ms, str(len(scene.scenario.objects)))
        return
    v = polygon.basis.v
    yaw = math.atan2(v[1], v[0])
    base = Pose(PLACE_BASE_XYZ, np.array([0.0, 0.0, math.sin(yaw / 2.0),
                                          math.cos(yaw / 2.0)]))
    ranked, ms_rank = rec.clock("place", placement.rank_placements, wl.chain,
                                base, cands, Q0, polygon,
                                expected=(placement.NoReachablePlacement,))
    rec.sample("place_ms", ms + ms_rank, str(len(scene.scenario.objects)))
    sc = scene.scenario
    for cand in cands:
        x, y, z = cand.pose.position
        if abs(z - sc.table_height) > 0.01:
            raise CheckFailed(f"placement at height {z:.3f} is off the table plane")
        # stray points taken as plane inliers can stretch the hull past the
        # table edge: an outcome of perception, counted, not a failure here
        if abs(x) > sc.width / 2 or abs(y) > sc.depth / 2:
            rec.outcomes["place.beyond_table_edge"] += 1
        for obj in sc.objects:
            if oracles.footprint_distance((x, y), obj) < PLACE_MARGIN - 0.01:
                raise CheckFailed(f"placement ({x:.3f}, {y:.3f}) crowds {obj.label}")
    if isinstance(ranked, placement.NoReachablePlacement):
        rec.outcomes["place.none_reachable"] += 1
        reached = 0
    else:
        scores = [c.reach_score for c in ranked]
        if len(ranked) != len(cands) or scores != sorted(scores, reverse=True):
            raise CheckFailed("ranking drops candidates or is out of order")
        reached = sum(s > 0.0 for s in scores)
    rec.totals["reach_num"] += reached
    rec.totals["reach_den"] += len(cands)


def _grasp(rec: Recorder, wl: Workload, scene: Scene, k: int, centre,
           height: float, top: float):
    bearing, standoff = scene.standoffs[k]
    base_xyz = np.array([centre[0] - standoff * math.cos(bearing),
                         centre[1] - standoff * math.sin(bearing), GRASP_BASE_Z])
    arm = wl.chain.with_base(Pose(base_xyz, np.array(
        [0.0, 0.0, math.sin(bearing / 2.0), math.cos(bearing / 2.0)])))
    target = Pose(np.array([centre[0], centre[1], top]), IDENTITY)
    approach, ms = rec.clock("grasp", grasping.decide_approach, height)
    cands, ms_sample = rec.clock("grasp", grasping.sample_pregrasp, target,
                                 approach, n=GRASP_SAMPLES,
                                 base_position=base_xyz)
    found, ms_select = rec.clock("grasp", grasping.select_reachable, arm,
                                 cands, Q0,
                                 expected=(grasping.NoReachableCandidate,))
    rec.sample("grasp_ms", ms + ms_sample + ms_select)
    if isinstance(found, grasping.NoReachableCandidate):
        rec.outcomes["grasp.unreachable"] += 1
        return
    cand, ik = found
    pose = cand.pregrasp_pose
    oracles.check_ik(wl.chain_rows, oracles.base_matrix(base_xyz, bearing),
                     ik.q, pose.position, pose.rotation(), IK_TOL_POS,
                     IK_TOL_ANG, IK_ROT_WEIGHTS)
    rec.outcomes["grasp.reached"] += 1


def run_scene(rec: Recorder, wl: Workload, task: Task) -> None:
    scene = task.item
    rec.properties["points_per_scan"][_bucket(scene.points, (0, 8000, 16000))] += 1
    for _ in range(task.perceive_repeats):
        ok, model = rec.call("perceive", _perceive, rec, scene)
        if not ok:
            return
    polygon, obstacles, recognised = model
    rec.call("place", _place, rec, wl, scene, polygon, obstacles)
    for k, centre, height, top in recognised:
        if k == task.grasp:
            rec.call("grasp", _grasp, rec, wl, scene, k, centre, height, top)


# --- base navigation ---------------------------------------------------------------

def drive(case: NavCase, rec: Recorder):
    """The control loop of ``dwa.run_episode``, one timed ``dwa_step`` per
    tick.  Returns (poses, reached, steps)."""
    state = case.start
    goal = np.asarray(case.goal, dtype=float)
    poses = [(0.0, state.x, state.y, state.theta)]
    reached = False
    for step in range(NAV_MAX_STEPS):
        if math.hypot(state.x - goal[0], state.y - goal[1]) <= NAV_STOP_DIST:
            reached = True
            break
        cmd, ms = rec.clock("nav", dwa.dwa_step, state, goal, case.grid,
                            DWA_CONFIG, expected=(dwa.NoAdmissibleVelocity,))
        rec.sample("nav_step_ms", ms, case.cls)
        if isinstance(cmd, dwa.NoAdmissibleVelocity):
            break
        state = dwa.step_state(state, cmd, DWA_CONFIG)
        poses.append(((step + 1) * DWA_CONFIG.dt, state.x, state.y, state.theta))
    else:
        reached = math.hypot(state.x - goal[0], state.y - goal[1]) <= NAV_STOP_DIST
    return poses, reached, len(poses) - 1


def _nav(rec: Recorder, case: NavCase, traced: bool):
    if traced:
        # the library's own loop, so the trace sees run_episode around its steps
        res, _ = rec.clock("nav", dwa.run_episode, case.start, case.goal,
                           case.grid, DWA_CONFIG, max_steps=NAV_MAX_STEPS,
                           stop_dist=NAV_STOP_DIST)
        poses, reached, steps = res.poses, res.reached, res.steps
    else:
        poses, reached, steps = drive(case, rec)
    # EpisodeResult has no stop reason yet: infer it from the step count
    stop = ("reached" if reached else
            "budget" if steps == NAV_MAX_STEPS else "no_admissible")
    rec.outcomes[f"nav.{stop}"] += 1
    xy = [(p[1], p[2]) for p in poses]
    oracles.check_nav_poses(case.grid.cells, case.grid.resolution,
                            case.grid.origin, xy, DWA_CONFIG.robot_radius)
    final = math.dist(xy[-1], case.goal)
    if reached != (final <= NAV_STOP_DIST):
        raise CheckFailed(f"reached={reached} but ends {final:.3f} m from the goal")
    rec.totals[f"nav_reached.{case.kind}"] += reached
    rec.totals[f"nav_episodes.{case.kind}"] += 1


def run_nav(rec: Recorder, case: NavCase, traced: bool = False) -> None:
    rec.properties["blocked_cells_per_grid"][
        _bucket(case.blocked, (0, 1, 100, 300))] += 1
    rec.call("nav", _nav, rec, case, traced)


# --- tracking --------------------------------------------------------------------------

def _stream(rec: Recorder, stream: Stream):
    tracker = rtt.SortTracker()
    seen: set[int] = set()
    confirmed = []
    for frame in stream.frames:
        dets = list(frame.detections)
        step, ms = rec.clock("track", tracker.step, dets)
        rec.sample("track_frame_ms", ms, str(stream.objects))
        oracles.check_sort_step(step, len(dets), seen)
        confirmed.append(step.confirmed)
    correct, present, longest = oracles.score_sort(confirmed, stream.truth)
    rec.totals["track_correct"] += correct
    rec.totals["track_present"] += present
    track = rtt.Track3D(id=-1)
    for t, x, y in longest:
        if not track.history or t > track.last_t:   # one point per frame
            track.append(t, np.array([x, y, 0.0]))
    motion, _ = rec.clock("motion", rtt.estimate_motion, track,
                          expected=(rtt.TrackingError, ValueError))
    if isinstance(motion, Exception):
        rec.outcomes["track.motion_unfit"] += 1
        return
    omega = stream.truth.omega
    if len(longest) >= 30 and abs(motion.omega - omega) > 0.2 * abs(omega):
        raise CheckFailed(f"table rate {motion.omega:.3f} rad/s, true {omega:.3f}")
    t_now = longest[-1][0]
    t_arr, _ = rec.clock("motion", rtt.predict_arrival, motion,
                         stream.target_angle, t_now,
                         expected=(rtt.TableStationary,))
    if isinstance(t_arr, Exception):
        rec.outcomes["track.table_stationary"] += 1
        return
    gap = (motion.angle_at(t_arr) - stream.target_angle) % (2.0 * math.pi)
    if t_arr < t_now + 0.5 - 1e-9 or min(gap, 2.0 * math.pi - gap) > 1e-6:
        raise CheckFailed("predicted arrival misses the target angle")


def run_stream(rec: Recorder, stream: Stream) -> None:
    rec.properties["objects_per_stream"][str(stream.objects)] += 1
    rec.call("track", _stream, rec, stream)


# --- missions ----------------------------------------------------------------------------

def _plan(rec: Recorder, wl: Workload, m: Mission, mode: str, optimal=None):
    result, ms = rec.clock("plan", pddl.plan, wl.domain, m.problem, mode=mode)
    rec.sample("plan_ms", ms, f"{mode}-{len(m.task.items)}")
    state, cost = oracles.replay(m.task, result.names())
    if not m.task.goal_atoms() <= state or abs(cost - result.cost) > 1e-9:
        raise CheckFailed(f"{mode} plan misses the goal or its cost")
    if optimal is not None and result.cost < optimal.cost - 1e-9:
        raise CheckFailed("greedy plan beats the optimal one")
    if mode == "optimal" and len(m.task.items) <= DIJKSTRA_MAX_ITEMS:
        best = oracles.dijkstra_cost(m.task)
        if abs(best - result.cost) > 1e-9:
            raise CheckFailed(f"optimal cost {result.cost}, Dijkstra {best}")
    return result


def _execute(rec: Recorder, wl: Workload, m: Mission, optimal):
    # fresh bindings every time: execute rewinds their script cursors
    bindings = execution.load_bindings(wl.bindings)
    trace, ms = rec.clock("mission", execution.execute, wl.domain, m.problem,
                          bindings, fault_script=dict(m.faults),
                          max_replans=MAX_REPLANS, mode="greedy")
    rec.sample("mission_ms", ms, str(len(m.task.items)))
    state, cost = m.task.init_atoms(), 0.0
    for record in trace.records:
        cost += oracles.action_cost(m.task, record.action)
        if record.status == execution.E_SUCCESS:
            state, _ = oracles.apply(m.task, state, record.action)
        if frozenset(record.kb_after) != state:
            raise CheckFailed(f"knowledge base diverges at step {record.step}")
    if trace.final_kb != state or (trace.outcome == execution.OUTCOME_SUCCESS
                                   and not m.task.goal_atoms() <= state):
        raise CheckFailed(f"mission ends in the wrong state ({trace.outcome})")
    rec.outcomes[f"mission.{trace.outcome}"] += 1
    if optimal is not None:
        rec.totals["mission_cost"] += cost
        rec.totals["optimal_cost"] += optimal.cost


def run_mission(rec: Recorder, wl: Workload, m: Mission) -> None:
    rec.properties["ground_actions_per_problem"][
        _bucket(ground_actions(m.task), (0, 30, 45))] += 1
    ok, optimal = rec.call("plan", _plan, rec, wl, m, "optimal")
    rec.call("plan", _plan, rec, wl, m, "greedy", optimal if ok else None)
    rec.call("mission", _execute, rec, wl, m, optimal if ok else None)


# --- the loop ------------------------------------------------------------------------------

def run_task(rec: Recorder, wl: Workload, task: Task, traced: bool = False) -> None:
    rec.current = task.item.name
    if task.kind == "scene":
        run_scene(rec, wl, task)
    elif task.kind == "nav":
        run_nav(rec, task.item, traced)
    elif task.kind == "stream":
        run_stream(rec, task.item)
    else:
        run_mission(rec, wl, task.item)


def run_for(rec: Recorder, wl: Workload, seconds: float, probes=(),
            traced: bool = False) -> list[tuple[Task, float]]:
    """Main tasks in order, cycling, for ``seconds`` (at least one), with
    the reference tasks and the ``probes`` (callables taking the recorder)
    spread evenly over that time, so that slow spells of a shared machine
    hit every metric alike.  Every reference task and probe runs once; until
    the time is up they take at most ``PERIODIC_SHARE`` of it, so that a
    slow spell cannot leave the main tasks no time.  Returns the tasks run,
    each with its wall time."""
    periodic = round_robin(list(probes), wl.refs)
    start = perf_counter()
    done = []
    k = i = 0
    periodic_s = 0.0
    while True:
        rec.host.tick()
        now = perf_counter() - start
        if k < len(periodic) and (
                not wl.main or (i and now >= seconds)
                or (now >= k * seconds / len(periodic)
                    and periodic_s <= PERIODIC_SHARE * now)):
            item = periodic[k]
            k += 1
            t0 = perf_counter()
            if isinstance(item, Task):
                done.append((item, run_timed(rec, wl, item, traced)))
            else:
                item(rec)
            periodic_s += perf_counter() - t0
        elif wl.main and (i == 0 or now < seconds):
            task = wl.main[i % len(wl.main)]
            done.append((task, run_timed(rec, wl, task, traced)))
            i += 1
        else:
            return done


def run_timed(rec: Recorder, wl: Workload, task: Task, traced: bool) -> float:
    t0 = perf_counter()
    run_task(rec, wl, task, traced)
    return perf_counter() - t0
