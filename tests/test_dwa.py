"""Window arithmetic, arc rollouts vs a fine Euler oracle, grid round trips."""

import hashlib
import json
import math
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from workbot.cli import _build_parser
from workbot.dwa import (FREE, OCCUPIED, UNKNOWN, DWAConfig, GridParseError,
                         NoAdmissibleVelocity, OccupancyGrid, RobotState,
                         VelocityCommand, _clearances, _one_command, dwa_step,
                         dynamic_window, load_pgm, run_episode, step_state)
from workbot.jsonio import decode
from workbot.sim import gen_obstacle_grid


# the options `workbot dwa` drives an episode with unless told otherwise
DWA = _build_parser().parse_args(["dwa", "--map", "-", "--start", "0,0,0",
                                  "--goal", "0,0", "--out", "-"])


def episode(state, goal, grid, cfg=DWAConfig(), max_steps=DWA.max_steps,
            stop_dist=DWA.stop_dist):
    """run_episode with the settings of `workbot dwa` that a test leaves
    out."""
    return run_episode(state, goal, grid, cfg, max_steps, stop_dist)


def empty_grid(n=30, resolution=0.1):
    return OccupancyGrid(cells=np.zeros((n, n), dtype=np.uint8),
                         resolution=resolution, origin=np.zeros(2))


def walled_grid(n=30, resolution=0.1):
    """Free map with one occupied block in the upper-right quadrant."""
    cells = np.zeros((n, n), dtype=np.uint8)
    cells[18:22, 18:22] = OCCUPIED
    return OccupancyGrid(cells=cells, resolution=resolution,
                         origin=np.zeros(2))


# ---------------------------------------------------------------------------
# dynamic window


def test_window_at_rest_is_one_step_of_acceleration():
    win = dynamic_window(RobotState(0, 0, 0), DWAConfig())
    assert win.vx == pytest.approx((-0.1, 0.1))
    assert win.vy == pytest.approx((-0.1, 0.1))
    assert win.omega == pytest.approx((-0.2, 0.2))


def test_window_clips_to_absolute_limits():
    state = RobotState(0, 0, 0, vx=0.75, omega=-1.45)
    win = dynamic_window(state, DWAConfig())
    assert win.vx == pytest.approx((0.65, 0.8))
    assert win.omega == pytest.approx((-1.5, -1.25))


# ---------------------------------------------------------------------------
# rollout


def arc_poses(state, cmd, cfg):
    """The library's rollout of one command: poses (x, y, theta) at dt,
    2 dt, ... horizon, as dwa_step rolls out its samples."""
    steps = int(round(cfg.horizon / cfg.dt))
    return np.column_stack(_one_command(state, cmd, cfg.dt, steps))


def euler_rollout(state, cmd, cfg, substeps=1000):
    """Brute-force integration of the body-frame twist at tiny steps."""
    steps = int(round(cfg.horizon / cfg.dt))
    x, y, th = state.x, state.y, state.theta
    h = cfg.dt / substeps
    out = []
    for _ in range(steps):
        for _ in range(substeps):
            x += (cmd.vx * math.cos(th) - cmd.vy * math.sin(th)) * h
            y += (cmd.vx * math.sin(th) + cmd.vy * math.cos(th)) * h
            th += cmd.omega * h
        out.append((x, y, th))
    return np.array(out)


def test_rollout_matches_fine_euler_oracle():
    cfg = DWAConfig(dt=0.1, horizon=1.0)
    state = RobotState(0.5, -0.2, 0.7)
    for cmd in [VelocityCommand(0.4, 0.0, 0.8),
                VelocityCommand(0.3, -0.2, -1.2),
                VelocityCommand(-0.2, 0.1, 0.5)]:
        traj = arc_poses(state, cmd, cfg)
        oracle = euler_rollout(state, cmd, cfg)
        assert traj.shape == (10, 3)
        np.testing.assert_allclose(traj, oracle, atol=1e-4)


def test_rollout_straight_line_is_exact():
    cfg = DWAConfig(dt=0.1, horizon=0.5)
    th = 0.6
    traj = arc_poses(RobotState(1.0, 2.0, th),
                     VelocityCommand(0.5, 0.0, 0.0), cfg)
    ts = np.arange(1, 6) * 0.1
    np.testing.assert_allclose(traj[:, 0], 1.0 + 0.5 * ts * math.cos(th),
                               atol=1e-12)
    np.testing.assert_allclose(traj[:, 1], 2.0 + 0.5 * ts * math.sin(th),
                               atol=1e-12)
    np.testing.assert_allclose(traj[:, 2], th, atol=1e-12)


def test_rollout_full_turn_returns_home():
    # one full circle: omega * horizon = 2 pi brings the robot back
    cfg = DWAConfig(dt=0.01, horizon=1.0, aomega=10.0, omega_max=10.0)
    traj = arc_poses(RobotState(0, 0, 0),
                     VelocityCommand(0.5, 0.0, 2 * math.pi), cfg)
    np.testing.assert_allclose(traj[-1, :2], [0.0, 0.0], atol=1e-9)


def test_step_state_equals_first_rollout_pose():
    cfg = DWAConfig()
    state = RobotState(0.3, 0.4, 0.2, vx=0.1)
    cmd = VelocityCommand(0.3, -0.1, 0.6)
    nxt = step_state(state, cmd, cfg)
    first = arc_poses(state, cmd, cfg)[0]
    assert (nxt.x, nxt.y, nxt.theta) == pytest.approx(tuple(first))
    assert (nxt.vx, nxt.vy, nxt.omega) == (cmd.vx, cmd.vy, cmd.omega)


def closed_form_pose(state, cmd, t):
    """Pose after t seconds of a constant twist: the arc's closed form, or
    a straight line at the start heading when |omega| < 1e-9."""
    th0, om = state.theta, cmd.omega
    th = th0 + om * t
    if abs(om) < 1e-9:
        c, s = math.cos(th0), math.sin(th0)
        return (state.x + (cmd.vx * c - cmd.vy * s) * t,
                state.y + (cmd.vx * s + cmd.vy * c) * t, th)
    ds = math.sin(th) - math.sin(th0)
    dc = math.cos(th) - math.cos(th0)
    return (state.x + (cmd.vx * ds + cmd.vy * dc) / om,
            state.y + (-cmd.vx * dc + cmd.vy * ds) / om, th)


# Just above |omega| = 1e-9 the arc divides sine differences of about 1e-10
# by omega, so these cases also need numpy's sin and cos to round as the
# math module's do.
@pytest.mark.parametrize("omega", [0.0, 9e-10, -9e-10, 1.1e-9, -1.1e-9,
                                   0.7, -1.3])
def test_rollout_and_step_state_match_the_closed_form(omega):
    cfg = DWAConfig()
    state = RobotState(0.5, -0.2, 2.1)
    cmd = VelocityCommand(0.6, -0.3, omega)
    traj = arc_poses(state, cmd, cfg)
    assert traj.shape == (15, 3)
    for k, pose in enumerate(traj, start=1):
        want = closed_form_pose(state, cmd, k * cfg.dt)
        np.testing.assert_allclose(pose, want, rtol=0, atol=1e-12)
    nxt = step_state(state, cmd, cfg)
    np.testing.assert_allclose((nxt.x, nxt.y, nxt.theta),
                               closed_form_pose(state, cmd, cfg.dt),
                               rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# clearance


def table_clearance(traj, grid, radius):
    """The library's clearance of one trajectory of poses inside the grid,
    from the grid's nearest-obstacle table."""
    xy = np.atleast_2d(np.asarray(traj, dtype=float))[:, :2]
    return float(_clearances(xy[None, :, 0], xy[None, :, 1], grid,
                             radius)[0])


def brute_clearance(traj, grid, radius):
    """All-pairs scan over every blocked cell centre, no spatial index."""
    blocked = []
    for r in range(grid.height):
        for c in range(grid.width):
            if grid.cells[r, c] != FREE:
                blocked.append((grid.origin[0] + (c + 0.5) * grid.resolution,
                                grid.origin[1] + (r + 0.5) * grid.resolution))
    if not blocked:
        return grid.diagonal()
    best = min(math.hypot(x - bx, y - by)
               for x, y, *_ in np.atleast_2d(traj)
               for bx, by in blocked)
    return max(best - radius, 0.0)


def test_clearance_matches_all_pairs_scan():
    grid = walled_grid()
    cfg = DWAConfig()
    state = RobotState(1.0, 1.0, 0.5)
    for cmd in [VelocityCommand(0.4, 0.0, 0.3),
                VelocityCommand(0.2, 0.2, -0.4)]:
        traj = arc_poses(state, cmd, cfg)
        assert table_clearance(traj, grid, cfg.robot_radius) == pytest.approx(
            brute_clearance(traj, grid, cfg.robot_radius), abs=1e-12)


def test_clearance_empty_map_returns_diagonal():
    grid = empty_grid(n=40, resolution=0.05)
    traj = np.array([[1.0, 1.0, 0.0]])
    assert table_clearance(traj, grid, 0.2) == pytest.approx(grid.diagonal())
    assert grid.diagonal() == pytest.approx(math.hypot(2.0, 2.0))


def test_clearance_floors_at_zero():
    grid = walled_grid()
    inside_block = np.array([[2.0, 2.0, 0.0]])
    assert table_clearance(inside_block, grid, 0.2) == 0.0


def test_clearance_counts_unknown_as_blocked():
    cells = np.zeros((10, 10), dtype=np.uint8)
    cells[5, 5] = UNKNOWN
    grid = OccupancyGrid(cells=cells, resolution=0.1, origin=np.zeros(2))
    traj = np.array([[0.55, 0.35, 0.0]])
    # nearest blocked centre is (0.55, 0.55), at 0.2
    assert table_clearance(traj, grid, 0.05) == pytest.approx(0.15)


@pytest.mark.parametrize("height, width, resolution, origin, layout", [
    pytest.param(1, 1, 1.0, (0.0, 0.0), "random", id="1-1-1.0-origin0"),
    pytest.param(1, 7, 0.37, (-3.2, 7.9), "random", id="1-7-0.37-origin1"),
    pytest.param(13, 5, 0.013, (0.25, -0.5), "random",
                 id="13-5-0.013-origin2"),
    pytest.param(23, 37, 0.1, (1000.5, -250.25), "random",
                 id="23-37-0.1-origin3"),
    pytest.param(40, 31, 0.05, (0.0, 0.0), "random", id="40-31-0.05-origin4"),
    # one blocked cell in a corner: every ball reaches across the map
    pytest.param(30, 30, 0.1, (0.0, 0.0), "corner", id="30-30-0.1-corner"),
    # blocked cells on a ring around a free centre: many blocked centres
    # lie at one distance from the squares near the middle
    pytest.param(41, 41, 0.1, (-2.05, -2.05), "ring", id="41-41-0.1-ring"),
])
def test_clearance_equals_a_kd_query_exactly(height, width, resolution,
                                             origin, layout):
    rng = np.random.default_rng(height * 100 + width)
    if layout == "random":
        cells = rng.choice([FREE, OCCUPIED, UNKNOWN], size=(height, width),
                           p=[0.85, 0.1, 0.05]).astype(np.uint8)
        cells[0, 0] = UNKNOWN        # at least one blocked cell
    elif layout == "corner":
        cells = np.full((height, width), FREE, dtype=np.uint8)
        cells[-1, -1] = OCCUPIED
    else:
        rows, cols = np.indices((height, width))
        ring = np.hypot(rows - height // 2, cols - width // 2)
        cells = np.where(np.abs(ring - height // 3) < 0.5,
                         OCCUPIED, FREE).astype(np.uint8)
    grid = OccupancyGrid(cells=cells, resolution=resolution, origin=origin)
    lo, hi = grid.extent()
    pos = rng.uniform(lo, hi, (60, 15, 2))
    # a third of the coordinates on cell edges, the upper edge included
    edge = rng.integers(0, [width + 1, height + 1], pos.shape)
    on_edge = rng.random(pos.shape) < 0.3
    pos = np.minimum(np.where(on_edge, lo + edge * resolution, pos), hi)
    pos[0, :, 0] = hi[0]
    pos[1, :, 1] = hi[1]
    if layout == "ring":
        pos[2, :] = (lo + hi) / 2.0       # the ring's centre

    tree = cKDTree(grid.blocked_centers())
    nearest = tree.query(pos.reshape(-1, 2))[0].reshape(pos.shape[:2])
    oracle = nearest.min(axis=1)
    assert (_clearances(pos[..., 0], pos[..., 1], grid, 0.0) == oracle).all()
    for traj, want in zip(pos[:10], oracle):
        assert table_clearance(traj, grid, 0.05) == max(want - 0.05, 0.0)
    _, count, _, _ = grid._candidates
    assert len(count) == 4 * height * width
    assert (count >= 1).all()


@pytest.mark.parametrize("edit", ["cells", "origin"])
def test_clearance_table_follows_no_edit_by_the_caller(edit):
    # the nearest-obstacle table is cached on the grid, so it stays right
    # only while no edit to the arrays the grid was built from reaches it
    base = np.zeros(3600, np.uint8)
    origin = np.zeros(2)
    if edit == "origin":
        base[0] = OCCUPIED
    grid = OccupancyGrid(base.reshape(60, 60), 0.1, origin)
    pose = [[3.05, 3.05, 0.0]]
    before = table_clearance(pose, grid, 0.2)          # builds the table
    if edit == "cells":
        base[1830] = OCCUPIED                    # cell (30, 30), under pose
    else:
        origin[:] = -1.0
    rebuilt = OccupancyGrid(grid.cells, grid.resolution, grid.origin)
    assert (table_clearance(pose, grid, 0.2)
            == table_clearance(pose, rebuilt, 0.2))
    assert table_clearance(pose, grid, 0.2) == before


# ---------------------------------------------------------------------------
# dwa_step


def oracle_dwa_step(state, goal, grid, cfg):
    """Re-derive the winner one command at a time: its rollout, the
    on-map check, then its clearance."""
    win = dynamic_window(state, cfg)
    vxs = np.linspace(win.vx[0], win.vx[1], cfg.vx_samples)
    vys = np.linspace(win.vy[0], win.vy[1], cfg.vy_samples)
    oms = np.linspace(win.omega[0], win.omega[1], cfg.omega_samples)
    best, best_cost = None, math.inf
    for vx in vxs:
        for vy in vys:
            for om in oms:
                cmd = VelocityCommand(vx, vy, om)
                traj = arc_poses(state, cmd, cfg)
                lo, hi = grid.extent()
                if (traj[:, :2] < lo).any() or (traj[:, :2] > hi).any():
                    continue
                clear = table_clearance(traj, grid, cfg.robot_radius)
                if clear <= 0.0:
                    continue
                cost = (cfg.w_goal * np.linalg.norm(traj[-1, :2] - goal)
                        + cfg.w_obs / (clear + 1e-3)
                        + cfg.w_vel * (cfg.v_max - math.hypot(vx, vy)))
                if cost < best_cost:
                    best, best_cost = cmd, cost
    return best


def test_dwa_step_minimizes_the_stated_cost():
    grid = walled_grid()
    cfg = DWAConfig(vx_samples=5, vy_samples=5, omega_samples=5)
    goal = np.array([2.5, 2.5])
    for state in [RobotState(1.0, 1.0, 0.3),
                  RobotState(1.5, 1.2, -0.5, vx=0.2, omega=0.3)]:
        chosen = dwa_step(state, goal, grid, cfg)
        oracle = oracle_dwa_step(state, goal, grid, cfg)
        assert (chosen.vx, chosen.vy, chosen.omega) == pytest.approx(
            (oracle.vx, oracle.vy, oracle.omega), abs=1e-12)


def test_dwa_step_fully_blocked_raises():
    cells = np.full((20, 20), OCCUPIED, dtype=np.uint8)
    cells[9:11, 9:11] = FREE
    grid = OccupancyGrid(cells=cells, resolution=0.05, origin=np.zeros(2))
    state = RobotState(0.5, 0.5, 0.0)
    with pytest.raises(NoAdmissibleVelocity):
        dwa_step(state, np.array([0.9, 0.9]), grid, DWAConfig())


def test_dwa_step_prefers_progress_on_empty_map():
    grid = empty_grid(n=60)
    state = RobotState(1.0, 3.0, 0.0)
    cmd = dwa_step(state, np.array([5.0, 3.0]), grid, DWAConfig())
    assert cmd.vx > 0.0


# ---------------------------------------------------------------------------
# episodes


def test_episode_reaches_goal_on_empty_map():
    grid = empty_grid(n=60, resolution=0.1)
    result = episode(RobotState(1.0, 1.0, 0.8), np.array([4.0, 4.0]),
                     grid, max_steps=150)
    assert result.reached
    assert result.stop == "reached"
    assert result.steps <= 150
    t_final, x, y, _ = result.poses[-1]
    assert math.hypot(x - 4.0, y - 4.0) <= 0.15 + 0.08  # one step past stop
    assert len(result.poses) == result.steps + 1


def test_episode_already_at_goal_takes_no_step():
    grid = empty_grid()
    result = episode(RobotState(1.0, 1.0, 0.0), np.array([1.05, 1.0]), grid)
    assert result.reached
    assert result.steps == 0
    assert result.commands == ()


def test_episode_stops_on_the_step_budget():
    grid = empty_grid(n=60)
    result = episode(RobotState(1.0, 1.0, 0.0), np.array([5.0, 5.0]),
                     grid, max_steps=10)
    assert result.stop == "budget"
    assert not result.reached
    assert result.steps == 10


@pytest.mark.parametrize("limits, message", [
    ({"max_steps": -1}, "max_steps must be at least 0, got -1"),
    ({"stop_dist": -0.1}, "stop_dist must be finite and at least 0, got -0.1"),
    ({"stop_dist": math.inf},
     "stop_dist must be finite and at least 0, got inf"),
    ({"stop_dist": math.nan},
     "stop_dist must be finite and at least 0, got nan"),
    ({"goal": (1e200, 5.0)},
     "goal must lie within 1e+150 of 0 on each axis, got (1e+200, 5.0)"),
    ({"goal": (5.0, -1.0000000000000002e150)}, "goal must lie within 1e+150 "
     "of 0 on each axis, got (5.0, -1.0000000000000002e+150)"),
    ({"goal": (math.nan, 5.0)},
     "goal must lie within 1e+150 of 0 on each axis, got (nan, 5.0)"),
    ({"state": RobotState(-50.0, 1.0, 0.0)}, "start must lie on the map, "
     "x in [0.0, 3.0] and y in [0.0, 3.0], got (-50.0, 1.0)"),
    ({"state": RobotState(1.0, 3.0000000000000004, 0.0)}, "start must lie on "
     "the map, x in [0.0, 3.0] and y in [0.0, 3.0], got (1.0, "
     "3.0000000000000004)"),
    ({"state": RobotState(math.nan, 1.0, 0.0)}, "start must lie on the map, "
     "x in [0.0, 3.0] and y in [0.0, 3.0], got (nan, 1.0)"),
])
def test_episode_rejects_a_bad_budget_or_stop_distance(limits, message):
    args = {"state": RobotState(1.0, 1.0, 0.0), "goal": (5.0, 5.0), **limits}
    with pytest.raises(ValueError) as exc:
        episode(grid=empty_grid(), **args)
    assert str(exc.value) == message


def test_episode_with_no_step_budget_takes_no_step():
    grid = empty_grid()
    near, far = (episode(RobotState(1.0, 1.0, 0.0), np.array(goal), grid,
                         max_steps=0) for goal in ((1.05, 1.0), (5.0, 5.0)))
    assert (near.stop, near.steps) == ("reached", 0)
    assert (far.stop, far.steps) == ("budget", 0)


def test_episode_stops_when_no_command_is_admissible():
    cells = np.full((20, 20), OCCUPIED, dtype=np.uint8)
    cells[9:11, 9:11] = FREE
    grid = OccupancyGrid(cells=cells, resolution=0.05, origin=np.zeros(2))
    result = episode(RobotState(0.5, 0.5, 0.0), np.array([0.9, 0.9]), grid)
    assert result.stop == "no_admissible"
    assert not result.reached
    assert result.steps == 0


# sha256 of the commands (vx, vy, omega as little-endian doubles) of
# PINNED_EPISODES, as the KD-tree clearance of earlier versions chose them
PINNED_COMMANDS = (
    "7763085d89a1ec1e2f567bd20c9f0c57ec3fb2e02815901f1a6fe18c41b5ae2c")
PINNED_EPISODES = [(0.01, 1), (0.03, 2), (0.05, 3), (0.075, 4), (0.10, 5)]
# the same hash and each episode's step count under other sample shapes
# (vx, vy, omega), as the rollout over an (s, 3) command array chose them:
# length-1 axes, and even counts, whose samples at rest miss omega = 0 and
# the straight-line branch that odd counts take
PINNED_SHAPES = {
    (7, 7, 1): (
        "8e8ae8340c654b59b8dc43cd5aa0aa710f362fd46857692c32ab6c85caeb2e0d",
        [40, 40, 40, 40, 40]),
    (4, 6, 2): (
        "2cc782203fcb56b063fdcb991ab92793db0d8bddfe818a369d462d851a0f5e16",
        [40, 40, 40, 40, 40]),
    (1, 7, 9): (
        "ee10b3de3218a8af60e878866685074659fe119985d5a1f7227cc1936a01aade",
        [40, 11, 5, 4, 4]),
    (1, 1, 1): (
        "160ce7f51b285a121da62396ddb85856ce9a4f926bbce87b0620a9290a67e0b6",
        [4, 4, 2, 1, 2]),
}


def pinned_episodes(cfg):
    """sha256 of the commands chosen on PINNED_EPISODES and each episode's
    step count."""
    digest = hashlib.sha256()
    steps = []
    for density, seed in PINNED_EPISODES:
        cells = gen_obstacle_grid(60, 60, 0.1, density, seed,
                                  keep_free=((1.0, 1.0), (5.0, 5.0)))
        grid = OccupancyGrid(cells=cells, resolution=0.1, origin=(0.0, 0.0))
        result = episode(RobotState(x=1.0, y=1.0, theta=0.3), (5.0, 5.0),
                         grid, cfg, max_steps=40)
        steps.append(result.steps)
        for cmd in result.commands:
            digest.update(struct.pack("<3d", cmd.vx, cmd.vy, cmd.omega))
    return digest.hexdigest(), steps


def test_seeded_episodes_choose_the_pinned_commands():
    assert pinned_episodes(DWAConfig()) == (PINNED_COMMANDS, [40] * 5)


@pytest.mark.parametrize("shape", PINNED_SHAPES,
                         ids=lambda shape: "x".join(map(str, shape)))
def test_seeded_episodes_pin_other_sample_shapes(shape):
    cfg = DWAConfig(vx_samples=shape[0], vy_samples=shape[1],
                    omega_samples=shape[2])
    assert pinned_episodes(cfg) == PINNED_SHAPES[shape]


def test_episode_timestamps_advance_by_dt():
    grid = empty_grid(n=60)
    cfg = DWAConfig()
    result = episode(RobotState(1.0, 1.0, 0.0), np.array([3.0, 1.0]),
                     grid, cfg, max_steps=30)
    ts = [p[0] for p in result.poses]
    np.testing.assert_allclose(np.diff(ts), cfg.dt, atol=1e-12)


# ---------------------------------------------------------------------------
# grid I/O and config


def write_pgm(grid, path):
    """Write ``grid`` as an ASCII P2 map, 0 for occupied cells, 128 for
    unknown and 255 for free ones, top row first, with the JSON sidecar of
    the same name that holds its resolution and origin."""
    sample = {OCCUPIED: "0", UNKNOWN: "128", FREE: "255"}
    rows = [" ".join(sample[int(c)] for c in row) for row in grid.cells]
    height, width = grid.cells.shape
    path = Path(path)
    path.write_text("\n".join(["P2", f"{width} {height}", "255", *rows])
                    + "\n", encoding="ascii")
    path.with_suffix(".json").write_text(json.dumps(
        {"resolution": float(grid.resolution),
         "origin": [float(v) for v in grid.origin]}))


def test_pgm_round_trip(tmp_path):
    cells = np.zeros((4, 5), dtype=np.uint8)
    cells[1, 2] = OCCUPIED
    cells[3, 0] = UNKNOWN
    grid = OccupancyGrid(cells=cells, resolution=0.25,
                         origin=np.array([-1.0, 2.0]))
    path = tmp_path / "map.pgm"
    write_pgm(grid, path)
    loaded = load_pgm(path)
    np.testing.assert_array_equal(loaded.cells, grid.cells)
    assert loaded.resolution == grid.resolution
    np.testing.assert_array_equal(loaded.origin, grid.origin)


def test_pgm_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_text("P5\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(GridParseError, match="magic"):
        load_pgm(path)


def test_pgm_rejects_wrong_sample_count(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_text("P2\n3 2\n255\n255 255 255 255\n")
    with pytest.raises(GridParseError, match="expected 6 samples"):
        load_pgm(path)


def test_pgm_rejects_sizes_too_long_to_multiply(tmp_path):
    # each size prints (it was read from text), but their product has
    # more digits than Python converts to text
    path = tmp_path / "long.pgm"
    nines = "9" * 4000
    path.write_text(f"P2\n{nines} {nines}\n255\n255\n")
    with pytest.raises(GridParseError) as exc:
        load_pgm(path)
    assert str(exc.value) == (f"{path}: a {nines}x{nines} map needs more "
                              "than the 1 samples given")


def test_pgm_rejects_unknown_gray_level(tmp_path):
    path = tmp_path / "gray.pgm"
    path.write_text("P2\n2 1\n255\n255 77\n")
    with pytest.raises(GridParseError, match="not one of"):
        load_pgm(path)


@pytest.mark.parametrize("width, height", [(0, 0), (0, 3), (3, 0)])
def test_pgm_rejects_an_empty_map(tmp_path, width, height):
    path = tmp_path / "empty.pgm"
    path.write_text(f"P2\n{width} {height}\n255\n")
    (tmp_path / "empty.json").write_text(
        '{"origin": [0.0, 0.0], "resolution": 0.5}\n')
    with pytest.raises(GridParseError) as exc:
        load_pgm(path)
    assert str(exc.value) == (f"{path}: map must be at least 1x1, "
                              f"got {width}x{height}")


@pytest.mark.parametrize("sidecar, message", [
    ("[0.5]", "expected a JSON object"),
    ('{"resolution": 0.5}', "'origin' must be a list of 2 values, got None"),
    ('{"origin": [0, 0], "resolution": "fine"}',
     "'resolution' must be a finite number, got 'fine'"),
])
def test_pgm_sidecar_errors_name_the_sidecar(tmp_path, sidecar, message):
    path = tmp_path / "map.pgm"
    path.write_text("P2\n1 1\n255\n255\n")
    (tmp_path / "map.json").write_text(sidecar)
    with pytest.raises(ValueError) as exc:
        load_pgm(path)
    assert str(exc.value) == f"{tmp_path / 'map.json'}: {message}"


def test_pgm_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "max.pgm"
    path.write_text("P2\n1 1\n100\n0\n")
    with pytest.raises(GridParseError, match="maxval"):
        load_pgm(path)


def test_pgm_comments_are_ignored(tmp_path):
    path = tmp_path / "note.pgm"
    path.write_text("P2 # format\n# full line comment\n2 1\n255\n0 255\n")
    (tmp_path / "note.json").write_text(
        '{"origin": [0.0, 0.0], "resolution": 0.5}\n')
    grid = load_pgm(path)
    assert grid.cells[0, 0] == OCCUPIED
    assert grid.cells[0, 1] == FREE


# numbers up to the largest finite float, as JSON or PGM text would give them
_BIG = st.one_of(st.floats(-1e308, 1e308), st.integers(-10**308, 10**308),
                 st.sampled_from([1e308, -1e308, 5e-324]))
_PGM_TOKENS = st.one_of(
    st.sampled_from(["P2", "P5", "0", "128", "255", "77", "-1", "1_0", "x",
                     "nan", "#", " ", "\n"]),
    st.integers(-2, 6).map(str), _BIG.map(str))
_JSON_TOKENS = st.one_of(
    st.sampled_from(["1e309", "-1e309", "NaN", "Infinity", "null", "true",
                     '"', ",", "[", "]", "{", "}", ":", " "]),
    _BIG.map(json.dumps))
_MAP = "P2\n# map\n3 3\n255\n255 255 128\n255 0 255\n255 255 255\n"


def _edited(text, edits):
    for at, cut, insert in edits:
        at %= len(text) + 1
        text = text[:at] + insert + text[at + cut:]
    return text


@st.composite
def _map_files(draw):
    """PGM and sidecar text: the sidecar's values are drawn, and a third of
    the examples each edit the PGM text or the sidecar text, where an edit
    cuts up to three characters at a position and inserts a token."""
    resolution = draw(st.one_of(st.floats(1e-3, 1.0), _BIG))
    origin = draw(st.lists(_BIG, min_size=2, max_size=2))
    texts = {"pgm": _MAP, "sidecar": json.dumps({"resolution": resolution,
                                                 "origin": origin})}
    target = draw(st.sampled_from(["values", "pgm", "sidecar"]))
    if target != "values":
        tokens = _PGM_TOKENS if target == "pgm" else _JSON_TOKENS
        edit = st.tuples(st.integers(0, 10**6), st.integers(0, 3),
                         st.one_of(st.just(""), tokens))
        texts[target] = _edited(texts[target],
                                draw(st.lists(edit, min_size=1, max_size=4)))
    return texts["pgm"], texts["sidecar"]


@pytest.fixture(scope="module")
def fuzz_map(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "map.pgm"


@settings(deadline=None)
@given(files=_map_files())
def test_load_pgm_raises_only_errors_that_name_its_files(fuzz_map, files):
    sidecar = fuzz_map.with_suffix(".json")
    fuzz_map.write_text(files[0])
    sidecar.write_text(files[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            grid = load_pgm(fuzz_map)
        except GridParseError as exc:
            assert str(exc).startswith(f"{fuzz_map}: ")
            return
        except ValueError as exc:
            assert str(exc).startswith((f"{fuzz_map}: ", f"{sidecar}: "))
            return
        lo, hi = grid.extent()
        assert np.isfinite([*lo, *hi, grid.diagonal()]).all()
        # the map is usable: its clearance table builds without overflow
        assert table_clearance((lo + hi) / 2.0, grid, 0.1) >= 0.0


def test_config_from_json_ignores_unknown_keys():
    cfg = decode(DWAConfig, {"v_max": 0.5, "nonsense": 1}, "cfg.json")
    assert cfg.v_max == 0.5
    assert cfg.dt == 0.1


def test_config_validation():
    with pytest.raises(ValueError, match="horizon"):
        DWAConfig(dt=0.5, horizon=0.1)
    with pytest.raises(ValueError, match="v_min"):
        DWAConfig(v_min=1.0, v_max=0.5)


def test_grid_validation():
    with pytest.raises(ValueError, match="Free, Occupied or Unknown"):
        OccupancyGrid(cells=np.full((2, 2), 9, dtype=np.uint8),
                      resolution=0.1, origin=np.zeros(2))
    with pytest.raises(ValueError, match="resolution"):
        OccupancyGrid(cells=np.zeros((2, 2), dtype=np.uint8),
                      resolution=0.0, origin=np.zeros(2))
    # 3 x 2 cells: the extent, the origin plus the extent, or the diagonal
    # overflows, and the check itself must not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for resolution, origin in [
                (1e308, (0.0, 0.0)), (np.float64(1e308), (0.0, 0.0)),
                (math.inf, (0.0, 0.0)), (0.1, (math.nan, 0.0)),
                (0.1, (0.0, -math.inf)), (1e307, (1.7e308, 0.0)),
                (5e307, (-1e308, -1e308))]:
            with pytest.raises(ValueError,
                               match="origin and extent must be finite"):
                OccupancyGrid(cells=np.zeros((3, 2), dtype=np.uint8),
                              resolution=resolution, origin=np.array(origin))
    # finite, but squared distances between map points would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for resolution, origin in [(1e200, (0.0, 0.0)), (1e150, (0.0, 0.0)),
                                   (0.1, (1.1e150, 0.0)),
                                   (0.1, (0.0, -1.1e150))]:
            with pytest.raises(ValueError, match=r"within 1e\+150 of 0"):
                OccupancyGrid(cells=np.zeros((3, 2), dtype=np.uint8),
                              resolution=resolution, origin=np.array(origin))
        # cells so small that their squared distances underflow
        for resolution in (5e-324, 1e-200, 9e-151):
            with pytest.raises(ValueError, match=r"at least 1e-150"):
                OccupancyGrid(cells=np.zeros((3, 2), dtype=np.uint8),
                              resolution=resolution, origin=np.zeros(2))
        # at the bound, a blocked cell still gives a clearance
        cells = np.zeros((3, 2), dtype=np.uint8)
        cells[0, 0] = OCCUPIED
        grid = OccupancyGrid(cells=cells, resolution=3e149,
                             origin=np.array([-1e150, 0.0]))
        lo, hi = grid.extent()
        assert table_clearance((lo + hi) / 2.0, grid, 0.1) > 0.0
