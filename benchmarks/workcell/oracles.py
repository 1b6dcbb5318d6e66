"""Output checks that share no code with the library under test.

Each check restates the contract it tests from first principles: a DH
product for the arm, brute-force distances for the base, a hand-written
transport model with its own Dijkstra for the planner, and a re-derived
association score for the tracker.  Nothing here imports ``workbot``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

# dwa's cell encoding: 0 is free; occupied (1) and unknown (2) both block.
FREE_CELL = 0


class CheckFailed(Exception):
    """An output disagrees with its oracle."""


# --- arm ----------------------------------------------------------------------

def dh(a: float, alpha: float, d: float, theta: float) -> np.ndarray:
    ct, st = math.cos(theta), math.sin(theta)
    ca, sa = math.cos(alpha), math.sin(alpha)
    return np.array([[ct, -st * ca, st * sa, a * ct],
                     [st, ct * ca, -ct * sa, a * st],
                     [0.0, sa, ca, d],
                     [0.0, 0.0, 0.0, 1.0]])


def base_matrix(position, yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    m = np.eye(4)
    m[:2, :2] = [[c, -s], [s, c]]
    m[:3, 3] = position
    return m


def fk(rows: list[dict], base: np.ndarray, q) -> np.ndarray:
    """End-effector matrix of a chain given as its JSON rows."""
    t = base
    for row, qi in zip(rows, q):
        t = t @ dh(row["a"], row["alpha"], row["d"], qi + row["theta_offset"])
    return t


def rotation_log(r: np.ndarray) -> np.ndarray:
    """Axis-angle vector of a rotation matrix."""
    cos_a = min(1.0, max(-1.0, (float(np.trace(r)) - 1.0) / 2.0))
    angle = math.acos(cos_a)
    if angle < 1e-12:
        return np.zeros(3)
    if math.pi - angle < 1e-6:
        # near a half turn: the axis is the dominant column of (R + I) / 2
        sym = (r + np.eye(3)) / 2.0
        k = int(np.argmax(np.diag(sym)))
        axis = sym[:, k] / math.sqrt(max(sym[k, k], 1e-300))
        return axis / np.linalg.norm(axis) * angle
    axis = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    return axis / (2.0 * math.sin(angle)) * angle


def check_ik(rows: list[dict], base: np.ndarray, q, target_pos, target_rot,
             tol_pos: float, tol_ang: float, rot_weights) -> None:
    """The solution respects joint limits and reaches the target within the
    solver's own tolerances (orientation error in the end-effector frame)."""
    q = np.asarray(q, dtype=float)
    for row, qi in zip(rows, q):
        if not (row["lo"] <= qi <= row["hi"]):
            raise CheckFailed(f"joint value {qi} outside [{row['lo']}, {row['hi']}]")
    t = fk(rows, base, q)
    pos_err = float(np.linalg.norm(np.asarray(target_pos) - t[:3, 3]))
    rot = rotation_log(t[:3, :3].T @ np.asarray(target_rot))
    ang_err = float(np.linalg.norm(np.asarray(rot_weights) * rot))
    if pos_err > tol_pos + 1e-9 or ang_err > tol_ang + 1e-6:
        raise CheckFailed(f"IK solution misses its target: position "
                          f"{pos_err:.2e} m, orientation {ang_err:.2e} rad")


# --- table top ----------------------------------------------------------------

def footprint_distance(xy, obj) -> float:
    """Distance from a table point to a scene object's footprint (0 inside)."""
    rel = np.asarray(xy, dtype=float) - np.asarray(obj.position, dtype=float)
    if obj.shape == "cylinder":
        return max(float(np.hypot(*rel)) - obj.radius, 0.0)
    c, s = math.cos(obj.yaw), math.sin(obj.yaw)
    lx = c * rel[0] + s * rel[1]
    ly = -s * rel[0] + c * rel[1]
    dx = max(abs(lx) - obj.size[0] / 2.0, 0.0)
    dy = max(abs(ly) - obj.size[1] / 2.0, 0.0)
    return math.hypot(dx, dy)


def normal_error_deg(normal, true_normal) -> float:
    cos = abs(float(np.dot(normal, true_normal)))
    return math.degrees(math.acos(min(1.0, cos)))


# --- base navigation -----------------------------------------------------------

def check_nav_poses(cells: np.ndarray, resolution: float, origin, xy,
                    robot_radius: float) -> None:
    """Every pose lies on the map and clears every blocked cell centre by
    more than the robot radius (brute force over all pairs)."""
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    origin = np.asarray(origin, dtype=float)
    hi = origin + np.array([cells.shape[1], cells.shape[0]]) * resolution
    if (xy < origin).any() or (xy > hi).any():
        raise CheckFailed("a pose leaves the map")
    rows, cols = np.nonzero(cells != FREE_CELL)
    if not len(rows):
        return
    centres = origin + (np.column_stack([cols, rows]) + 0.5) * resolution
    d = np.sqrt(((xy[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2))
    closest = float(d.min())
    if closest <= robot_radius:
        raise CheckFailed(f"a pose comes within {closest:.3f} m of a blocked "
                          f"cell centre (robot radius {robot_radius} m)")


# --- tracking ------------------------------------------------------------------

def score_sort(confirmed_frames, truth) -> tuple[int, int, list]:
    """Association score of a SORT run, by the rule ``sim.evaluate_sort``
    documents: per frame each object is claimed by the nearest confirmed box
    centre within one box width; an object's claims are correct when they
    name its most frequent claimant.  Returns (correct, present, longest
    claimed trace as (t, x, y) in metres)."""
    n_obj = truth.positions.shape[1]
    scale = truth.pixels_per_meter
    gate = truth.box_px
    claims: list[list] = [[] for _ in range(n_obj)]
    traces: dict[int, list] = {}
    for i, confirmed in enumerate(confirmed_frames):
        centres = [(rep.track_id, (rep.box[0] + rep.box[2]) / 2.0,
                    (rep.box[1] + rep.box[3]) / 2.0) for rep in confirmed]
        for k in range(n_obj):
            gx = (truth.positions[i, k, 0] - truth.center[0]) * scale
            gy = (truth.positions[i, k, 1] - truth.center[1]) * scale
            best, best_d = None, gate
            for tid, cx, cy in centres:
                d = math.hypot(cx - gx, cy - gy)
                if d <= best_d:
                    best_d, best = d, (tid, cx, cy)
            claims[k].append(best[0] if best else None)
            if best is not None:
                traces.setdefault(best[0], []).append(
                    (float(truth.times[i]), truth.center[0] + best[1] / scale,
                     truth.center[1] + best[2] / scale))
    correct = present = 0
    for k, seq in enumerate(claims):
        observed = [c for c in seq if c is not None]
        dominant = max(set(observed), key=observed.count) if observed else None
        for i, c in enumerate(seq):
            if truth.present[i, k]:
                present += 1
                correct += int(c is not None and c == dominant)
    longest = max(traces.values(), key=len) if traces else []
    return correct, present, longest


def check_sort_step(step, n_detections: int, seen_ids: set[int]) -> None:
    """Ids are never reused, each detection feeds at most one track."""
    for tid in step.new_ids:
        if tid in seen_ids:
            raise CheckFailed(f"track id {tid} reused")
        seen_ids.add(tid)
    dets = [dj for _, dj in step.matches]
    if len(set(dets)) != len(dets) or any(not 0 <= dj < n_detections
                                          for dj in dets):
        raise CheckFailed("a detection is matched twice or out of range")
    ids = [rep.track_id for rep in step.confirmed]
    if len(set(ids)) != len(ids) or not set(ids) <= seen_ids:
        raise CheckFailed("confirmed tracks repeat or were never born")


# --- transport planning ---------------------------------------------------------

ROBOT = "youbot"


@dataclass(frozen=True)
class Transport:
    """One transport task: a robot, items, locations and drive costs."""

    name: str
    items: tuple[str, ...]
    locations: tuple[str, ...]
    distance: tuple[tuple[str, str, int], ...]   # (from, to, cost), all pairs
    robot_at: str
    item_at: tuple[tuple[str, str], ...]
    goal: tuple[tuple[str, str], ...]

    def init_atoms(self) -> frozenset:
        return frozenset({("at", ROBOT, self.robot_at),
                          ("gripper-empty", ROBOT)}
                         | {("item-at", o, l) for o, l in self.item_at})

    def goal_atoms(self) -> frozenset:
        return frozenset(("item-at", o, l) for o, l in self.goal)


def apply(task: Transport, state: frozenset, name: str
          ) -> tuple[frozenset, float]:
    """The transport domain's semantics, written out by hand."""
    op, *args = name.strip("()").split()
    if op == "move" and len(args) == 3:
        r, a, b = args
        if ("at", r, a) not in state or ("at", r, b) in state:
            raise CheckFailed(f"inapplicable {name}")
        cost = {(f, t): c for f, t, c in task.distance}[(a, b)]
        return (state - {("at", r, a)}) | {("at", r, b)}, float(cost)
    if op in ("perceive", "grasp", "place") and len(args) == 3:
        r, o, l = args
        if ("at", r, l) not in state:
            raise CheckFailed(f"inapplicable {name}")
        if op == "perceive" and ("item-at", o, l) in state:
            return state | {("perceived", o)}, 1.0
        if (op == "grasp" and ("item-at", o, l) in state
                and ("perceived", o) in state and ("gripper-empty", r) in state):
            return ((state - {("item-at", o, l), ("gripper-empty", r)})
                    | {("holding", r, o)}), 1.0
        if op == "place" and ("holding", r, o) in state:
            return ((state - {("holding", r, o)})
                    | {("item-at", o, l), ("gripper-empty", r)}), 1.0
    raise CheckFailed(f"inapplicable or unknown action {name}")


def action_cost(task: Transport, name: str) -> float:
    op, *args = name.strip("()").split()
    if op == "move":
        return float({(f, t): c for f, t, c in task.distance}[(args[1], args[2])])
    return 1.0


def replay(task: Transport, names) -> tuple[frozenset, float]:
    state, total = task.init_atoms(), 0.0
    for name in names:
        state, cost = apply(task, state, name)
        total += cost
    return state, total


def successors(task: Transport, state: frozenset):
    here = next(a[2] for a in state if a[0] == "at")
    names = [f"(move {ROBOT} {here} {l})" for l in task.locations if l != here]
    for o in task.items:
        names += [f"(perceive {ROBOT} {o} {here})", f"(grasp {ROBOT} {o} {here})",
                  f"(place {ROBOT} {o} {here})"]
    for name in names:
        try:
            yield apply(task, state, name)
        except CheckFailed:
            continue


def dijkstra_cost(task: Transport) -> float:
    """Cheapest cost to the goal, by exhaustive uniform-cost search."""
    goal = task.goal_atoms()
    start = task.init_atoms()
    best = {start: 0.0}
    frontier = [(0.0, 0, start)]
    tick = 1
    while frontier:
        cost, _, state = heapq.heappop(frontier)
        if goal <= state:
            return cost
        if cost > best.get(state, math.inf):
            continue
        for nxt, step in successors(task, state):
            if cost + step < best.get(nxt, math.inf):
                best[nxt] = cost + step
                heapq.heappush(frontier, (cost + step, tick, nxt))
                tick += 1
    return math.inf
