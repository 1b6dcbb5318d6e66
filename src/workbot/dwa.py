"""Dynamic-window local navigation for an omni-directional base.

Velocity commands (vx, vy, omega) are sampled inside the acceleration
window, rolled out over a short horizon with exact constant-twist arcs, and
scored by goal distance, obstacle clearance and speed.  Occupancy grids are
plain PGM images with a JSON sidecar for resolution and origin.

Clearance is the distance from a pose to the nearest blocked (Occupied or
Unknown) cell centre.  Each grid answers it from a nearest-obstacle table,
built once on the first clearance query and cached on the grid: for every
half-cell square of the map, the few blocked centres that can be nearest to
a pose inside it.  The build costs one KD-tree over the blocked centres and
one ball query per cell.  It grows with the map's area: at 0.05 m cells and
5 % blocked it took 13-40 ms for 60 x 60 cells, 150-190 ms for 200 x 200
and 550-720 ms for 400 x 400 on one Xeon core.  After that a query is a
table lookup and a handful of distances per pose, equal bit for bit to a
KD-tree query.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import WorkbotError
from .geometry import frozen_array
from .jsonio import construct, decode, load_json

FREE = 0
OCCUPIED = 1
UNKNOWN = 2

_PGM_VALUES = {0: OCCUPIED, 128: UNKNOWN, 255: FREE}
_CELL_VALUES = {OCCUPIED: 0, UNKNOWN: 128, FREE: 255}

CLEARANCE_EPS = 1e-3
# Relative slack on the radius of each square's candidate list.  It covers
# rounding in the pose-to-square map and in the ball query, and can only add
# candidates, never drop the nearest one.
_CANDIDATE_SLACK = 1e-6
# Largest |x| or |y| of a map point, and the smallest cell size.  Squared
# distances between map points, which cKDTree forms, then neither overflow
# nor, between distinct cell centres, underflow.
MAX_COORD = 1e150
MIN_RESOLUTION = 1e-150
MAX_SAMPLES = 25                   # most samples per velocity axis


class NavigationError(WorkbotError):
    pass


class NoAdmissibleVelocity(NavigationError):
    pass


class GridParseError(NavigationError):
    pass


def _gather(start: np.ndarray, count: np.ndarray, rows: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lists of CSR ``rows``, one after another: the position of each
    item in the CSR data, each row's length, and where each row starts in
    the output."""
    n = count[rows]
    first = np.cumsum(n) - n
    slot = np.repeat(start[rows] - first, n) + np.arange(int(n.sum()))
    return slot, n, first


@dataclass(frozen=True, eq=False)
class OccupancyGrid:
    """Row-major cell grid; cell (r, c) spans a resolution-sized square whose
    lower corner is origin + (c, r) * resolution."""

    cells: np.ndarray
    resolution: float
    origin: np.ndarray

    def __post_init__(self):
        cells = frozen_array(self.cells, dtype=np.uint8)
        if cells.ndim != 2:
            raise ValueError("cells must be a 2D array")
        if not np.isin(cells, (FREE, OCCUPIED, UNKNOWN)).all():
            raise ValueError("cells must be Free, Occupied or Unknown")
        if not (self.resolution > 0.0):
            raise ValueError(f"resolution must be positive, got {self.resolution}")
        if self.resolution < MIN_RESOLUTION:
            raise ValueError(f"resolution must be at least {MIN_RESOLUTION:g}, "
                             f"got {self.resolution}")
        origin = frozen_array(self.origin, shape=2)
        # Python floats overflow to inf without a RuntimeWarning
        (ox, oy), res = origin.tolist(), float(self.resolution)
        w, h = cells.shape[1] * res, cells.shape[0] * res
        if not all(map(math.isfinite, (ox, oy, ox + w, oy + h,
                                       math.hypot(w, h)))):
            raise ValueError(
                f"origin and extent must be finite, got origin ({ox}, {oy}) "
                f"and {cells.shape[1]} x {cells.shape[0]} cells of {res}")
        if max(abs(ox), abs(ox + w), abs(oy), abs(oy + h)) > MAX_COORD:
            raise ValueError(
                f"the map must lie within {MAX_COORD:g} of 0 on each axis, "
                f"got origin ({ox}, {oy}) and {cells.shape[1]} x "
                f"{cells.shape[0]} cells of {res}")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "origin", origin)

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    def extent(self) -> tuple[np.ndarray, np.ndarray]:
        hi = self.origin + np.array([self.width, self.height]) * self.resolution
        return self.origin.copy(), hi

    def diagonal(self) -> float:
        return math.hypot(self.width * self.resolution,
                          self.height * self.resolution)

    def blocked_centers(self) -> np.ndarray:
        """(m, 2) xy centres of Occupied and Unknown cells (Unknown counts
        as an obstacle for clearance purposes)."""
        rows, cols = np.nonzero(self.cells != FREE)
        x = self.origin[0] + (cols + 0.5) * self.resolution
        y = self.origin[1] + (rows + 0.5) * self.resolution
        return np.column_stack([x, y])

    @functools.cached_property
    def _candidates(self) -> tuple[np.ndarray, ...] | None:
        """Nearest-obstacle candidates per lattice square, built on first use.

        Squares of side s = resolution / 2 cover the map, row-major from the
        origin, four to a cell.  Square q lists every blocked centre within
        d(q) + √2·s of its centre, where d is the distance to the nearest
        blocked centre.  A pose p in the square lies within s/√2 of q's
        centre and d is 1-Lipschitz, so p's nearest blocked centre lies
        within d(p) + s/√2 <= d(q) + √2·s of it: the list holds it.

        The lists come from one ball query per cell.  A square's centre q
        lies s/√2 from its cell's centre c, so d(q) <= d(c) + s/√2 and every
        blocked centre of q's list lies within d(q) + √2·s + s/√2
        <= d(c) + 2√2·s of c: the cell's ball of that radius holds q's list,
        q's nearest blocked centre with it.  From the cell's ball each of its
        squares takes its exact d(q) and then its list.  Returned as CSR
        arrays (start, count, x, y); None when nothing is blocked."""
        blocked = self.blocked_centers()
        if not len(blocked):
            return None
        res, side = self.resolution, self.resolution / 2.0
        h, w = self.height, self.width
        centres = np.column_stack([
            np.tile(self.origin[0] + (np.arange(w) + 0.5) * res, h),
            np.repeat(self.origin[1] + (np.arange(h) + 0.5) * res, w)])
        tree = cKDTree(blocked)
        d, _ = tree.query(centres)
        near = tree.query_ball_point(
            centres,
            (d + 2.0 * math.sqrt(2.0) * side) * (1.0 + _CANDIDATE_SLACK))
        cell_count = np.fromiter(map(len, near), dtype=np.intp,
                                 count=len(near))
        cell_index = np.fromiter(itertools.chain.from_iterable(near),
                                 dtype=np.intp, count=int(cell_count.sum()))
        cell_start = np.cumsum(cell_count) - cell_count
        # square (i, j) of the 2h x 2w lattice lies in cell (i // 2, j // 2)
        cell = ((np.arange(2 * h) // 2)[:, None] * w
                + (np.arange(2 * w) // 2)[None, :]).ravel()
        slot, n, first = _gather(cell_start, cell_count, cell)
        pair = cell_index[slot]
        qx = self.origin[0] + (np.arange(2 * w) + 0.5) * side
        qy = self.origin[1] + (np.arange(2 * h) + 0.5) * side
        dx = np.repeat(np.tile(qx, 2 * h), n) - blocked[pair, 0]
        dy = np.repeat(np.repeat(qy, 2 * w), n) - blocked[pair, 1]
        dist = np.sqrt(dx * dx + dy * dy)
        radius = ((np.minimum.reduceat(dist, first) + math.sqrt(2.0) * side)
                  * (1.0 + _CANDIDATE_SLACK))
        keep = dist <= np.repeat(radius, n)
        count = np.add.reduceat(keep, first, dtype=np.intp)
        index = pair[keep]
        return (np.cumsum(count) - count, count,
                np.ascontiguousarray(blocked[index, 0]),
                np.ascontiguousarray(blocked[index, 1]))


@dataclass(frozen=True)
class RobotState:
    x: float
    y: float
    theta: float
    vx: float = 0.0
    vy: float = 0.0
    omega: float = 0.0


@dataclass(frozen=True)
class VelocityCommand:
    vx: float
    vy: float
    omega: float


@dataclass(frozen=True)
class DWAConfig:
    v_max: float = 0.8
    v_min: float = -0.8
    omega_max: float = 1.5
    ax: float = 1.0
    ay: float = 1.0
    aomega: float = 2.0
    dt: float = 0.1
    horizon: float = 1.5
    vx_samples: int = 7
    vy_samples: int = 7
    omega_samples: int = 9
    w_goal: float = 1.0
    w_obs: float = 0.2
    w_vel: float = 0.1
    robot_radius: float = 0.2

    def __post_init__(self):
        if self.horizon < self.dt or self.dt <= 0.0:
            raise ValueError("need horizon >= dt > 0")
        if self.v_min > self.v_max:
            raise ValueError("v_min must not exceed v_max")
        for name in ("omega_max", "ax", "ay", "aomega"):
            if not getattr(self, name) > 0.0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}")
        for name in ("vx_samples", "vy_samples", "omega_samples"):
            if not 1 <= getattr(self, name) <= MAX_SAMPLES:
                raise ValueError(f"{name} must be in [1, {MAX_SAMPLES}], "
                                 f"got {getattr(self, name)}")
        if self.robot_radius < 0.0:
            raise ValueError(
                f"robot_radius must not be negative, got {self.robot_radius}")


@dataclass(frozen=True)
class Window:
    vx: tuple[float, float]
    vy: tuple[float, float]
    omega: tuple[float, float]


def dynamic_window(state: RobotState, cfg: DWAConfig) -> Window:
    """Reachable velocity box after one dt, clipped to the absolute limits."""
    def axis(cur, accel, lo, hi):
        return (max(cur - accel * cfg.dt, lo), min(cur + accel * cfg.dt, hi))

    return Window(
        vx=axis(state.vx, cfg.ax, cfg.v_min, cfg.v_max),
        vy=axis(state.vy, cfg.ay, cfg.v_min, cfg.v_max),
        omega=axis(state.omega, cfg.aomega, -cfg.omega_max, cfg.omega_max))


def _integrate(x0: float, y0: float, th0: float, vx: np.ndarray,
               vy: np.ndarray, om: np.ndarray, dt: float, steps: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact constant-twist rollouts of every command on the sample axes
    vx (a,) x vy (b,) x omega (c,) over ``steps`` * dt.

    Headings, sines and cosines depend on omega alone and are computed once
    per omega sample.  Returns x and y, each (a, b, c, steps), and headings
    (c, steps)."""
    om = om[:, None]
    k = np.arange(steps + 1)
    theta = th0 + om * dt * k                      # (c, steps+1)
    sin_d = np.diff(np.sin(theta), axis=1)
    cos_d = np.diff(np.cos(theta), axis=1)
    vx = vx[:, None, None, None]
    vy = vy[None, :, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        dx = (vx * sin_d + vy * cos_d) / om         # (a, b, c, steps)
        dy = (-vx * cos_d + vy * sin_d) / om
    straight = np.abs(om[:, 0]) < 1e-9
    if straight.any():
        ct, st = math.cos(th0), math.sin(th0)
        dx[:, :, straight] = (vx * ct - vy * st) * dt
        dy[:, :, straight] = (vx * st + vy * ct) * dt
    return (x0 + np.cumsum(dx, axis=-1), y0 + np.cumsum(dy, axis=-1),
            theta[:, 1:])


def _one_command(state: RobotState, cmd: VelocityCommand, dt: float,
                 steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_integrate` for a single command: x, y and headings, each (steps,)."""
    x, y, theta = _integrate(state.x, state.y, state.theta,
                             np.array([cmd.vx]), np.array([cmd.vy]),
                             np.array([cmd.omega]), dt, steps)
    return x.reshape(steps), y.reshape(steps), theta[0]


def _clearances(x: np.ndarray, y: np.ndarray, grid: OccupancyGrid,
                robot_radius: float) -> np.ndarray:
    """Worst-case margin of each of s trajectories given as (s, k) x and y
    coordinates inside the grid: the distance to the nearest blocked cell
    centre minus the robot radius, floored at zero, minimised over the
    trajectory.  An all-free map yields the map diagonal as a large sentinel.

    Each pose is checked against its square's candidates in the grid's
    table; the distance is computed as cKDTree computes it, so the result
    equals a nearest-neighbour query over every blocked centre."""
    table = grid._candidates
    if table is None:
        return np.full(len(x), grid.diagonal())
    start, count, cx, cy = table
    px, py = x.ravel(), y.ravel()
    side = grid.resolution / 2.0
    # poses on the map's upper edge belong to the last square
    col = np.minimum(((px - grid.origin[0]) / side).astype(np.intp),
                     2 * grid.width - 1)
    row = np.minimum(((py - grid.origin[1]) / side).astype(np.intp),
                     2 * grid.height - 1)
    square = row * (2 * grid.width) + col
    pair, n, first = _gather(start, count, square)
    dx = np.repeat(px, n) - cx[pair]
    dy = np.repeat(py, n) - cy[pair]
    nearest = np.minimum.reduceat(np.sqrt(dx * dx + dy * dy),
                                  first[::x.shape[1]])
    return np.maximum(nearest - robot_radius, 0.0)


def dwa_step(state: RobotState, goal, grid: OccupancyGrid,
             cfg: DWAConfig | None = None) -> VelocityCommand:
    """Pick the admissible sampled command with the lowest cost.

    Commands are the vx x vy x omega grid of evenly spaced samples in the
    dynamic window.  cost = w_goal * dist(final pose, goal)
    + w_obs / (clearance + eps) + w_vel * (v_max - speed).  Rollouts that
    leave the map or touch an obstacle are discarded; ties resolve by sample
    order (vx slowest, omega fastest)."""
    cfg = cfg or DWAConfig()
    goal = np.asarray(goal, dtype=float).reshape(2)
    win = dynamic_window(state, cfg)
    vxs = np.linspace(win.vx[0], win.vx[1], cfg.vx_samples)
    vys = np.linspace(win.vy[0], win.vy[1], cfg.vy_samples)
    oms = np.linspace(win.omega[0], win.omega[1], cfg.omega_samples)
    steps = int(round(cfg.horizon / cfg.dt))
    xs, ys, _ = _integrate(state.x, state.y, state.theta, vxs, vys, oms,
                           cfg.dt, steps)
    shape = xs.shape[:3]
    x, y = xs.reshape(-1, steps), ys.reshape(-1, steps)

    lo, hi = grid.extent()
    admissible = ((x >= lo[0]) & (x <= hi[0])
                  & (y >= lo[1]) & (y <= hi[1])).all(axis=1)

    clear = np.zeros(len(x))
    clear[admissible] = _clearances(x[admissible], y[admissible], grid,
                                    cfg.robot_radius)
    admissible &= clear > 0.0
    if not admissible.any():
        raise NoAdmissibleVelocity(
            "every sampled command collides or leaves the map")

    gx, gy = x[:, -1] - goal[0], y[:, -1] - goal[1]
    goal_dist = np.sqrt(gx * gx + gy * gy)
    speed = np.broadcast_to(np.hypot(vxs[:, None, None], vys[None, :, None]),
                            shape).ravel()
    cost = (cfg.w_goal * goal_dist + cfg.w_obs / (clear + CLEARANCE_EPS)
            + cfg.w_vel * (cfg.v_max - speed))
    cost[~admissible] = math.inf
    i, j, k = np.unravel_index(int(np.argmin(cost)), shape)
    return VelocityCommand(vx=float(vxs[i]), vy=float(vys[j]),
                           omega=float(oms[k]))


def step_state(state: RobotState, cmd: VelocityCommand,
               cfg: DWAConfig) -> RobotState:
    """Advance one control period under a constant command."""
    x, y, theta = _one_command(state, cmd, cfg.dt, 1)
    return RobotState(x=float(x[0]), y=float(y[0]), theta=float(theta[0]),
                      vx=cmd.vx, vy=cmd.vy, omega=cmd.omega)


@dataclass(frozen=True)
class EpisodeResult:
    poses: tuple[tuple[float, float, float, float], ...]   # (t, x, y, theta)
    commands: tuple[VelocityCommand, ...]
    reached: bool
    steps: int
    stop: str       # "reached", "budget" or "no_admissible"


def run_episode(state: RobotState, goal, grid: OccupancyGrid,
                cfg: DWAConfig | None = None,
                max_steps: int = 200,
                stop_dist: float = 0.15) -> EpisodeResult:
    """Closed-loop drive toward the goal; stops on arrival ("reached"), on
    the step budget ("budget") or when no admissible command remains
    ("no_admissible").  The start must lie on the map, and the goal within
    MAX_COORD of 0 on each axis, so its squared distance cannot overflow."""
    if max_steps < 0:
        raise ValueError(f"max_steps must be at least 0, got {max_steps}")
    if not 0.0 <= stop_dist < math.inf:
        raise ValueError(f"stop_dist must be finite and at least 0, "
                         f"got {stop_dist}")
    cfg = cfg or DWAConfig()
    goal = np.asarray(goal, dtype=float).reshape(2)
    if not np.all(np.abs(goal) <= MAX_COORD):
        raise ValueError(f"goal must lie within {MAX_COORD:g} of 0 on each "
                         f"axis, got ({goal[0]}, {goal[1]})")
    (x0, y0), (x1, y1) = (corner.tolist() for corner in grid.extent())
    if not (x0 <= state.x <= x1 and y0 <= state.y <= y1):
        raise ValueError(f"start must lie on the map, x in [{x0}, {x1}] and "
                         f"y in [{y0}, {y1}], got ({state.x}, {state.y})")
    poses = [(0.0, state.x, state.y, state.theta)]
    commands: list[VelocityCommand] = []
    stop = "budget"
    for step in range(max_steps):
        if math.hypot(state.x - goal[0], state.y - goal[1]) <= stop_dist:
            stop = "reached"
            break
        try:
            cmd = dwa_step(state, goal, grid, cfg)
        except NoAdmissibleVelocity:
            stop = "no_admissible"
            break
        commands.append(cmd)
        state = step_state(state, cmd, cfg)
        poses.append(((step + 1) * cfg.dt, state.x, state.y, state.theta))
    else:
        if math.hypot(state.x - goal[0], state.y - goal[1]) <= stop_dist:
            stop = "reached"
    return EpisodeResult(poses=tuple(poses), commands=tuple(commands),
                         reached=stop == "reached", steps=len(commands),
                         stop=stop)


def save_pose_log(path, poses) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y", "theta"])
        for t, x, y, theta in poses:
            writer.writerow([repr(float(t)), repr(float(x)),
                             repr(float(y)), repr(float(theta))])


# --- PGM I/O -----------------------------------------------------------------

@dataclass(frozen=True)
class _Sidecar:
    """The JSON file next to a PGM map: cell size and lower-left corner."""

    resolution: float
    origin: tuple[float, float]


def _sidecar_path(pgm_path) -> str:
    root, _ = os.path.splitext(str(pgm_path))
    return root + ".json"


def load_pgm(pgm_path) -> OccupancyGrid:
    """Read a P2 occupancy grid (0 occupied, 255 free, 128 unknown) plus its
    JSON sidecar, the same path with a .json suffix, carrying resolution and
    origin."""
    name = str(pgm_path)
    with open(pgm_path, "r", encoding="ascii", errors="replace") as fh:
        text = fh.read()
    tokens: list[str] = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if not tokens or tokens[0] != "P2":
        raise GridParseError(f"{name}: expected ASCII 'P2' magic, "
                             f"got {tokens[0] if tokens else 'empty file'!r}")
    if len(tokens) < 4:
        raise GridParseError(f"{name}: truncated header")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise GridParseError(f"{name}: non-integer header fields") from None
    if maxval != 255:
        raise GridParseError(f"{name}: maxval must be 255, got {maxval}")
    if width <= 0 or height <= 0:
        raise GridParseError(f"{name}: map must be at least 1x1, "
                             f"got {width}x{height}")
    data = tokens[4:]
    if width > len(data) or height > len(data):
        # checked first: the product of two long sizes can be too long to
        # print, while each size prints as it was read
        raise GridParseError(f"{name}: a {width}x{height} map needs more "
                             f"than the {len(data)} samples given")
    if len(data) != width * height:
        raise GridParseError(f"{name}: expected {width * height} samples, "
                             f"got {len(data)}")
    cells = np.empty(width * height, dtype=np.uint8)
    for i, tok in enumerate(data):
        try:
            value = int(tok)
        except ValueError:
            raise GridParseError(f"{name}: bad sample {tok!r}") from None
        if value not in _PGM_VALUES:
            raise GridParseError(
                f"{name}: sample {value} is not one of 0/128/255")
        cells[i] = _PGM_VALUES[value]
    sidecar = _sidecar_path(pgm_path)
    meta = decode(_Sidecar, load_json(sidecar), sidecar)
    return construct(OccupancyGrid, sidecar,
                     cells=cells.reshape(height, width),
                     resolution=meta.resolution, origin=np.array(meta.origin))


def save_pgm(grid: OccupancyGrid, pgm_path) -> None:
    lines = ["P2", f"{grid.width} {grid.height}", "255"]
    for row in grid.cells:
        lines.append(" ".join(str(_CELL_VALUES[int(c)]) for c in row))
    with open(pgm_path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    meta = {"origin": [float(grid.origin[0]), float(grid.origin[1])],
            "resolution": float(grid.resolution)}
    with open(_sidecar_path(pgm_path), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
