"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single PASS/FAIL line so a full run doubles as a
checklist.  The whole file stays well under a minute; the slow entries are
the 50-map navigation sweep and the CLI determinism reruns.
"""

import itertools
import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from workbot.cloud import (Cluster, PerceptionConfig, Point3, PointCloud,
                           convex_hull, estimate_normals, euclidean_cluster,
                           extract_prism, segment_plane, voxel_downsample)
from workbot.dwa import DWAConfig, OccupancyGrid, RobotState
from workbot.execution import E_FAILURE, E_SUCCESS, ActionBinding
from workbot.kinematics import NoConvergence, ik_dls, load_chain
from workbot.pddl import ground, parse_domain, parse_problem, plan
from workbot.placement import NoFreeSpace, Obstacle2, sample_placements
from workbot.recognition import pca_pose
from workbot.rtt import Track3D, estimate_motion, hungarian, predict_arrival
from workbot.sim import (box_surface_points, gen_obstacle_grid, gen_rtt_stream,
                         gen_workstation, load_scenario)

from test_dwa import episode
from test_execution import run_exec
from test_kinematics import (central_jacobian, forward_jacobian, oracle_fk,
                             oracle_pose, oracle_pose_error)
from test_pddl import dijkstra_cost, print_domain, print_problem, replay
from test_placement import PLACE

DATA = Path("src/workbot/data")


def report(number: int, name: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\n[criterion {number:02d}] {name}: {verdict}")
    assert ok, f"criterion {number:02d} ({name}) failed"


# ---------------------------------------------------------------------------
# 1. perception pipeline


def test_criterion_01_perception_pipeline():
    sc0 = load_scenario(DATA / "workstation.json")
    cfg = PerceptionConfig()
    planes_ok = 0
    counts = []
    purities = []
    for k in range(20):
        sc = replace(sc0, seed=k, noise_sigma=0.002, outlier_count=600)
        cloud, truth = gen_workstation(sc)
        work = voxel_downsample(cloud, cfg.leaf)
        work = estimate_normals(work, cfg.normals_k)
        plane = segment_plane(work, dist_thresh=cfg.plane_dist_thresh,
                              ref_axis=cfg.plane_ref_axis,
                              angle_tol=cfg.plane_angle_tol,
                              max_iters=cfg.plane_max_iters,
                              rng_seed=cfg.seed)
        tilt = math.degrees(math.acos(min(1.0, float(plane.normal[2]))))
        if tilt <= 2.0 and abs(plane.offset + sc.table_height) <= 5e-3:
            planes_ok += 1
        polygon = convex_hull(plane, work)
        above = extract_prism(work, polygon, cfg.prism_h_min, cfg.prism_h_max)
        clusters = euclidean_cluster(work, above, tol=cfg.cluster_tol,
                                     min_size=cfg.cluster_min_size,
                                     max_size=cfg.cluster_max_size)
        counts.append(len(clusters))
        if len(clusters) != len(sc.objects):
            continue
        # purity against per-point labels, carried over by nearest neighbour
        tree = cKDTree(cloud.points)
        for cl in clusters:
            _, nearest = tree.query(work.points[cl.indices])
            labels = truth.labels[nearest]
            on_object = labels[labels > 0]
            assert on_object.size > 0
            _, votes = np.unique(on_object, return_counts=True)
            purities.append(votes.max() / labels.size)
    exact = sum(c == len(sc0.objects) for c in counts)
    ok = planes_ok == 20 and exact >= 18 and min(purities) >= 0.95
    report(1, "perception pipeline", ok)


# ---------------------------------------------------------------------------
# 2. PCA pose


def test_criterion_02_pca_long_axis():
    size = (0.12, 0.05, 0.04)          # elongation ratio 2.4
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        yaw = rng.uniform(-math.pi, math.pi)
        pts = box_surface_points(rng, (0.0, 0.0), 0.0, size, yaw,
                                 density=2e5)
        pts = pts + rng.normal(0.0, 0.001, pts.shape)
        cloud = PointCloud(points=pts)
        cluster = Cluster(indices=np.arange(len(pts)),
                          centroid=Point3.from_array(pts.mean(axis=0)))
        pose, _ = pca_pose(cloud, cluster)
        major = pose.rotation()[:, 0]
        angle = math.atan2(major[1], major[0])
        diff = abs((angle - yaw + math.pi / 2) % math.pi - math.pi / 2)
        worst = max(worst, math.degrees(diff))
    report(2, "pca long axis within 2 degrees", worst <= 2.0)


# ---------------------------------------------------------------------------
# 3. SORT tracker


def test_criterion_03_sort_tracker():
    from workbot.sim import evaluate_sort
    sc = load_scenario(DATA / "rtt.json")
    assert sc.dropout == 0.0
    _, frames, truth = gen_rtt_stream(sc)
    clean = evaluate_sort(frames, truth)
    _, frames_d, truth_d = gen_rtt_stream(replace(sc, dropout=0.10))
    noisy = evaluate_sort(frames_d, truth_d)
    ok = (clean["id_switches"] == 0 and clean["assoc_accuracy"] >= 0.99
          and noisy["id_switches"] <= 2)
    report(3, "sort tracker id stability", ok)


# ---------------------------------------------------------------------------
# 4. interception


def test_criterion_04_interception():
    rng = np.random.default_rng(7)
    ok = True
    for case in range(100):
        omega = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.5)
        radius = rng.uniform(0.2, 0.5)
        center = rng.uniform(-0.5, 0.5, 2)
        phase = rng.uniform(-math.pi, math.pi)
        ts = np.arange(0.0, 2.0, 1.0 / 30.0)
        track = Track3D(id=case)
        for t in ts:
            ang = phase + omega * t
            p = np.array([center[0] + radius * math.cos(ang),
                          center[1] + radius * math.sin(ang), 0.7])
            track.append(float(t), p + rng.normal(0.0, 0.005, 3))
        # the table centre is surveyed in this workcell, so pass it along
        motion = estimate_motion(track, center_hint=center)
        if abs(motion.omega - omega) / abs(omega) > 0.05:
            ok = False
        target = rng.uniform(-math.pi, math.pi)
        t_now = float(ts[-1])
        t_arr = predict_arrival(motion, target, t_now, lead=0.5)
        reached = motion.phase0 + motion.omega * (t_arr - motion.t_ref)
        residual = (reached - target) % (2.0 * math.pi)
        residual = min(residual, 2.0 * math.pi - residual)
        if residual > 1e-9 or t_arr < t_now + 0.5 - 1e-12:
            ok = False
    report(4, "interception omega and arrival", ok)


# ---------------------------------------------------------------------------
# 5. kinematics


def test_criterion_05_kinematics_round_trip():
    # the targets and the check of each solution come from the test-side DH
    # oracle, and the solver's Jacobian is checked against forward
    # differences of a scipy pose error on that oracle, not against the
    # library's own FK and pose error
    chain = load_chain(DATA / "chain_5dof.json")
    rng = np.random.default_rng(3)
    lo = np.array([j.lo for j in chain.joints]) + 0.3
    hi = np.array([j.hi for j in chain.joints]) - 0.3
    good = 0
    for _ in range(100):
        q_true = rng.uniform(lo, hi)
        q0 = np.clip(q_true + rng.uniform(-0.2, 0.2, 5), *chain.limits())
        try:
            res = ik_dls(chain, oracle_pose(chain, q_true), q0)
        except NoConvergence:
            continue
        err = oracle_pose_error(oracle_fk(chain, q_true),
                                oracle_fk(chain, res.q))
        if (np.linalg.norm(err[:3]) < 1e-3
                and np.linalg.norm(err[3:]) < math.radians(0.5)):
            good += 1
    # finite-difference cross-check of the jacobian at a few states
    jac_ok = True
    target = oracle_fk(chain, np.zeros(5))
    for _ in range(5):
        q = rng.uniform(lo, hi)
        jac = central_jacobian(chain, target, q)
        if np.abs(jac - forward_jacobian(chain, target, q)).max() > 1e-4:
            jac_ok = False
    report(5, "fk/ik round trip and jacobian", good >= 95 and jac_ok)


# ---------------------------------------------------------------------------
# 6. placement


def _rect_polygon(w=0.8, h=0.6, z=0.7):
    from workbot.cloud import PlaneBasis, Polygon2
    basis = PlaneBasis(origin=np.array([0.0, 0.0, z]),
                       u=np.array([1.0, 0.0, 0.0]),
                       v=np.array([0.0, 1.0, 0.0]))
    verts = np.array([[-w / 2, -h / 2], [w / 2, -h / 2],
                      [w / 2, h / 2], [-w / 2, h / 2]])
    return Polygon2(vertices=verts, basis=basis)


def _edge_distance(polygon, uv) -> float:
    # closest hull edge segment, measured one edge at a time
    verts = polygon.vertices
    dists = []
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        ab = b - a
        denom = float(ab @ ab)
        t = 0.0 if denom == 0.0 else min(1.0, max(0.0, float((uv - a) @ ab)
                                                   / denom))
        dists.append(float(np.linalg.norm(uv - (a + t * ab))))
    return min(dists)


def test_criterion_06_placement_inequalities():
    polygon = _rect_polygon()
    obstacles = [Obstacle2(center=np.array([0.18, 0.10]), radius=0.054),
                 Obstacle2(center=np.array([-0.20, -0.12]), radius=0.033)]
    d_min, footprint = 0.02, 0.05
    placements = sample_placements(polygon, obstacles, d_min=d_min,
                                   footprint=footprint, n=30, rng_seed=4)
    holds = True
    for cand in placements:
        if not polygon.contains(cand.uv[None], eps=0.0)[0]:
            holds = False
        if _edge_distance(polygon, cand.uv) < footprint:
            holds = False
        for obs in obstacles:
            if np.linalg.norm(cand.uv - obs.center) < (obs.radius
                                                       + footprint + d_min):
                holds = False

    # fully covered table: sampler refuses, dense grid agrees nothing fits
    blocked = [Obstacle2(center=np.array([0.0, 0.0]), radius=0.65)]
    with pytest.raises(NoFreeSpace):
        sample_placements(polygon, blocked, d_min=d_min, footprint=footprint,
                          n=PLACE.n)
    lo = polygon.vertices.min(axis=0)
    hi = polygon.vertices.max(axis=0)
    us = np.arange(lo[0], hi[0] + 5e-4, 1e-3)
    vs = np.arange(lo[1], hi[1] + 5e-4, 1e-3)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    pts = np.stack([uu.ravel(), vv.ravel()], axis=1)
    feasible = polygon.contains(pts, eps=0.0)
    edge = np.minimum.reduce([pts[:, 0] - lo[0], hi[0] - pts[:, 0],
                              pts[:, 1] - lo[1], hi[1] - pts[:, 1]])
    feasible &= edge >= footprint
    for obs in blocked:
        dist = np.linalg.norm(pts - obs.center, axis=1)
        feasible &= dist >= obs.radius + footprint + d_min
    report(6, "placement clearance inequalities",
           holds and len(placements) == 30 and not feasible.any())


# ---------------------------------------------------------------------------
# 7. hungarian


def test_criterion_07_hungarian_vs_brute_force():
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(200):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        cost = rng.uniform(0.0, 10.0, (rows, cols))
        assignment = hungarian(cost)
        got = sum(cost[i, j] for i, j in assignment.items())
        if rows <= cols:
            best = min(sum(cost[i, p[i]] for i in range(rows))
                       for p in itertools.permutations(range(cols), rows))
        else:
            best = min(sum(cost[p[j], j] for j in range(cols))
                       for p in itertools.permutations(range(rows), cols))
        if abs(got - best) > 1e-9:
            ok = False
    report(7, "hungarian equals brute force", ok)


# ---------------------------------------------------------------------------
# 8. dwa


def _twist_poses(x, y, th0, cmd, dt, steps):
    """(x, y) at dt, 2dt, ... steps*dt under a constant twist, in scalar
    closed form: the arc, or a straight line when |omega| < 1e-9."""
    om = cmd.omega
    poses = []
    for k in range(1, steps + 1):
        t = k * dt
        if abs(om) < 1e-9:
            c, s = math.cos(th0), math.sin(th0)
            poses.append((x + (cmd.vx * c - cmd.vy * s) * t,
                          y + (cmd.vx * s + cmd.vy * c) * t))
        else:
            ds = math.sin(th0 + om * t) - math.sin(th0)
            dc = math.cos(th0 + om * t) - math.cos(th0)
            poses.append((x + (cmd.vx * ds + cmd.vy * dc) / om,
                          y + (-cmd.vx * dc + cmd.vy * ds) / om))
    return poses


def test_criterion_08_dwa_safety_and_goal():
    # each chosen command is checked with its own oracle, not with the
    # library's rollouts and clearances that chose it: the command's poses in
    # closed form, then every pose against every blocked cell centre
    cfg = DWAConfig()
    steps = round(cfg.horizon / cfg.dt)
    safe = True
    for seed in range(50):
        cells = gen_obstacle_grid(60, 60, 0.1, 0.10, seed,
                                  keep_free=((1.0, 1.0), (5.0, 5.0)))
        grid = OccupancyGrid(cells=cells, resolution=0.1, origin=(0.0, 0.0))
        result = episode(RobotState(x=1.0, y=1.0, theta=0.785),
                         (5.0, 5.0), grid, cfg, max_steps=80)
        rows, cols = np.nonzero(cells)            # Occupied and Unknown
        blocked = np.column_stack([(cols + 0.5) * 0.1, (rows + 0.5) * 0.1])
        x, y, theta = 1.0, 1.0, 0.785
        for cmd in result.commands:
            poses = np.array(_twist_poses(x, y, theta, cmd, cfg.dt, steps))
            gaps = np.linalg.norm(poses[:, None, :] - blocked[None], axis=2)
            margin = gaps.min() - cfg.robot_radius
            inside = ((poses >= 0.0) & (poses <= 6.0)).all()
            if not (margin > 0.0 and inside):
                safe = False
            (x, y), theta = poses[0], theta + cmd.omega * cfg.dt
        # the oracle followed the path the episode logged
        if not np.allclose((x, y, theta), result.poses[-1][1:], atol=1e-9):
            safe = False
    empty = OccupancyGrid(cells=np.zeros((120, 120), dtype=np.uint8),
                          resolution=0.1, origin=(0.0, 0.0))
    run = episode(RobotState(x=1.0, y=6.0, theta=0.0), (6.0, 6.0),
                  empty, cfg, max_steps=150)
    final = math.hypot(run.poses[-1][1] - 6.0, run.poses[-1][2] - 6.0)
    report(8, "dwa clearance and 5 m goal",
           safe and run.reached and run.steps <= 150 and final < 0.2)


# ---------------------------------------------------------------------------
# 9. planner


def test_criterion_09_planner_oracle_and_fixpoint():
    domain_text = DATA.joinpath("transport.pddl").read_text()
    domain = parse_domain(domain_text)
    ok = True
    for fname in ("transport_1.pddl", "transport_3.pddl"):
        problem = parse_problem(DATA.joinpath(fname).read_text(), domain)
        oracle = dijkstra_cost(domain, problem)
        for mode in ("optimal", "greedy"):
            result = plan(domain, problem, mode=mode)
            if replay(domain, problem, result.names()) is not None:
                ok = False
            if mode == "optimal" and abs(result.cost - oracle) > 1e-9:
                ok = False
        # printing and reparsing must reproduce the same surface form
        d1 = print_domain(domain)
        if print_domain(parse_domain(d1)) != d1:
            ok = False
        p1 = print_problem(problem)
        if print_problem(parse_problem(p1, domain)) != p1:
            ok = False
    report(9, "planner optimality and fixpoint", ok)


# ---------------------------------------------------------------------------
# 10. executor


def _transport(name):
    domain = parse_domain(DATA.joinpath("transport.pddl").read_text())
    problem = parse_problem(DATA.joinpath(name).read_text(), domain)
    return domain, problem


def _bindings(domain):
    return {schema.name: ActionBinding(action=schema.name)
            for schema in domain.actions}


def test_criterion_10_executor_replanning():
    domain, problem = _transport("transport_1.pddl")
    bindings = _bindings(domain)
    bindings["grasp"] = ActionBinding(action="grasp",
                                      script=(E_FAILURE, E_SUCCESS))
    once = run_exec(domain, problem, bindings)
    goal_met = all(atom in once.final_kb for atom in problem.goal)
    ok = (once.outcome == "Success" and once.replans == 1 and goal_met)

    bindings = _bindings(domain)
    bindings["grasp"] = ActionBinding(action="grasp", script=(E_FAILURE,))
    always = run_exec(domain, problem, bindings, max_replans=3)
    ok &= (always.outcome == "ReplanBudgetExhausted"
           and always.plans_attempted == 4)

    # kb frame property: each record's kb is the previous kb plus exactly
    # the effects of what happened at that step
    domain3, problem3 = _transport("transport_3.pddl")
    bindings = _bindings(domain3)
    bindings["grasp"] = ActionBinding(action="grasp",
                                      script=(E_FAILURE, E_SUCCESS))
    trace = run_exec(domain3, problem3, bindings)
    union = problem3.init.union(*[r.kb_after for r in trace.records])
    by_name = {a.name: a
               for a in ground(domain3, replace(problem3, init=union))}
    kb = problem3.init
    for rec in trace.records:
        act = by_name[rec.action]
        binding = bindings[rec.action.strip("()").split()[0]]
        if rec.status == E_SUCCESS:
            kb = (kb - act.delete) | act.add
        else:
            kb = (kb - binding.failure_delete) | binding.failure_add
        if rec.kb_after != kb or rec.kb_size != len(kb):
            ok = False
    ok &= trace.final_kb == kb
    report(10, "executor budget and kb frame", ok)


# ---------------------------------------------------------------------------
# 11. determinism


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "workbot.cli", *args],
                          capture_output=True, text=True)


def test_criterion_11_reruns_are_byte_identical(tmp_path):
    faults = tmp_path / "faults.json"
    faults.write_text('{"1": "e_failure"}\n')
    jobs = {
        "perceive": ("perceive", "--scenario", str(DATA / "workstation.json"),
                     "--out", None),
        "rtt": ("rtt", "--scenario", str(DATA / "rtt.json"),
                "--out", None),
        "gen": ("gen", "--scenario", str(DATA / "rtt.json"),
                "--out", None),
        "plan": ("plan", "--domain", str(DATA / "transport.pddl"),
                 "--problem", str(DATA / "transport_1.pddl"),
                 "--out", None),
        "exec": ("exec", "--domain", str(DATA / "transport.pddl"),
                 "--problem", str(DATA / "transport_1.pddl"),
                 "--bindings", str(DATA / "bindings.json"),
                 "--faults", str(faults), "--out", None),
    }
    suffix = {"perceive": ".csv", "rtt": ".csv", "gen": ".jsonl",
              "plan": ".txt", "exec": ".jsonl"}
    ok = True
    for name, argv in jobs.items():
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}{suffix[name]}"
            args = [out if a is None else a for a in argv]
            proc = _cli(*[str(a) for a in args])
            assert proc.returncode == 0, proc.stderr
            payload = out.read_bytes()
            if name == "gen":
                payload += Path(str(out) + ".truth.json").read_bytes()
            outputs.append(payload)
        if outputs[0] != outputs[1]:
            ok = False
    report(11, "pipelines rerun byte-identical", ok)
