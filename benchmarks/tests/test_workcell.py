"""Tests of the workcell benchmark itself.

Run from the repository root:  python3 -m pytest benchmarks/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.use_checkout()

import workbot  # noqa: E402
from workbot import dwa, pddl, rtt, sim  # noqa: E402
from workcell import host, inputs, metrics, oracles, tasks, tracing  # noqa: E402


def _originals():
    return {(path, attr): tracing.owner(path).__dict__[attr]
            for path, attr, _, _ in tracing.TARGETS}


def test_workbot_comes_from_the_checkout():
    assert Path(workbot.__file__).resolve().is_relative_to(ROOT / "src")
    assert sys.path.index(str(ROOT / "src")) < len(sys.path)


def test_traced_block_wraps_then_restores_every_attribute():
    before = _originals()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            for (path, attr), fn in before.items():
                assert tracing.owner(path).__dict__[attr] is not fn
            raise RuntimeError("leave the block early")
    assert _originals() == before


def test_traced_spans_nest_library_calls():
    tracer = tracing.Tracer()
    domain = pddl.parse_domain(
        (ROOT / "src/workbot/data/transport.pddl").read_text())
    problem = pddl.parse_problem(
        (ROOT / "src/workbot/data/transport_1.pddl").read_text(), domain)
    with tracing.traced(tracer):
        pddl.plan(domain, problem, mode="greedy")
    names = [s.name for s in tracer.spans]
    assert names == ["pddl.plan.greedy", "pddl.ground"]
    assert tracer.spans[1].parent == 0
    assert tracer.spans[1].counters["actions"] == inputs.ground_actions(
        inputs.BUNDLED_TRANSPORT["transport_1"])


def test_untraced_run_installs_no_wrapper(monkeypatch):
    wl = inputs.build("mission", 1, ROOT)
    wl.refs, wl.main = [], wl.main[:2]
    before = _originals()
    seen = []
    original_run_task = tasks.run_task

    def checked(rec, wl, task, traced=False):
        seen.append(_originals() == before)
        original_run_task(rec, wl, task, traced)

    monkeypatch.setattr(tasks, "run_task", checked)
    rec = tasks.Recorder()
    tasks.run_for(rec, wl, 0.0)
    assert seen == [True] and rec.failed == 0


def test_inputs_repeat_for_a_seed_and_change_with_it():
    a = inputs.make_scene(3, 0, 2, 10000.0)
    b = inputs.make_scene(3, 0, 2, 10000.0)
    c = inputs.make_scene(4, 0, 2, 10000.0)
    assert np.array_equal(a.cloud.points, b.cloud.points)
    assert not np.array_equal(a.cloud.points, c.cloud.points)
    t1, f1 = inputs.make_transport(3, 5, 4, 3)
    t2, f2 = inputs.make_transport(3, 5, 4, 3)
    assert inputs.to_pddl(t1) == inputs.to_pddl(t2) and f1 == f2


def test_bundled_transport_facts_match_the_files():
    domain = pddl.parse_domain(
        (ROOT / "src/workbot/data/transport.pddl").read_text())
    for label, task in inputs.BUNDLED_TRANSPORT.items():
        problem = pddl.parse_problem(
            (ROOT / f"src/workbot/data/{label}.pddl").read_text(), domain)
        assert problem.init == task.init_atoms()
        assert frozenset(problem.goal) == task.goal_atoms()
        fns = {args: v for (_, args), v in problem.function_values}
        assert fns == {(a, b): float(c) for a, b, c in task.distance}


def test_generated_problems_ground_as_counted():
    domain = pddl.parse_domain(
        (ROOT / "src/workbot/data/transport.pddl").read_text())
    task, _ = inputs.make_transport(1, 0, 3, 3)
    problem = pddl.parse_problem(inputs.to_pddl(task), domain)
    assert len(pddl.ground(domain, problem)) == inputs.ground_actions(task)


def test_drive_matches_run_episode():
    case = inputs.make_nav(2, 1, 0.05)
    poses, reached, steps = tasks.drive(case, tasks.Recorder())
    res = dwa.run_episode(case.start, case.goal, case.grid, tasks.DWA_CONFIG,
                          max_steps=inputs.NAV_MAX_STEPS,
                          stop_dist=inputs.NAV_STOP_DIST)
    assert poses == list(res.poses)
    assert (reached, steps) == (res.reached, res.steps)


def test_sort_score_matches_sim_evaluate_sort():
    stream = inputs.make_stream(5, 0, 3, 0.1, 5.0)
    tracker = rtt.SortTracker()
    confirmed = [tracker.step(list(f.detections)).confirmed for f in stream.frames]
    correct, present, _ = oracles.score_sort(confirmed, stream.truth)
    expected = sim.evaluate_sort(stream.frames, stream.truth)["assoc_accuracy"]
    assert correct / present == pytest.approx(expected, abs=1e-12)


def test_ik_oracle_accepts_a_solution_and_rejects_a_nudged_one():
    wl = inputs.build("tabletop", 1, ROOT)
    rows = wl.chain_rows
    q = np.array([0.3, 0.4, -0.6, 0.2, 0.1])
    base = oracles.base_matrix((0.1, 0.2, 0.55), 0.7)
    t = oracles.fk(rows, base, q)
    args = (tasks.IK_TOL_POS, tasks.IK_TOL_ANG, tasks.IK_ROT_WEIGHTS)
    oracles.check_ik(rows, base, q, t[:3, 3], t[:3, :3], *args)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_ik(rows, base, q + 0.01, t[:3, 3], t[:3, :3], *args)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_ik(rows, base, q + [9.0, 0, 0, 0, 0], t[:3, 3], t[:3, :3], *args)


def test_nav_oracle_rejects_a_pose_too_close_to_a_blocked_cell():
    cells = np.zeros((10, 10), dtype=np.uint8)
    cells[5, 5] = dwa.OCCUPIED
    oracles.check_nav_poses(cells, 0.1, (0.0, 0.0), [(0.2, 0.2)], 0.2)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_nav_poses(cells, 0.1, (0.0, 0.0), [(0.6, 0.5)], 0.2)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_nav_poses(cells, 0.1, (0.0, 0.0), [(1.2, 0.5)], 0.2)


def test_transport_oracle_replays_and_prices_plans():
    task = inputs.BUNDLED_TRANSPORT["transport_3"]
    domain = pddl.parse_domain(
        (ROOT / "src/workbot/data/transport.pddl").read_text())
    problem = pddl.parse_problem(
        (ROOT / "src/workbot/data/transport_3.pddl").read_text(), domain)
    best = pddl.plan(domain, problem)
    state, cost = oracles.replay(task, best.names())
    assert task.goal_atoms() <= state and cost == best.cost
    assert oracles.dijkstra_cost(task) == best.cost
    with pytest.raises(oracles.CheckFailed):
        oracles.replay(task, ["(grasp youbot bolt shelf)"])


def test_nav_reached_frac_weighs_grid_classes_equally():
    rec = tasks.Recorder()
    rec.totals.update({"nav_reached.open": 3, "nav_episodes.open": 3,
                       "nav_reached.dense": 0, "nav_episodes.dense": 9})
    value, _, n = metrics.end_to_end(rec)["nav_reached_frac"]
    assert (value, n) == (0.5, 12)


def test_timings_weigh_input_classes_equally():
    rec = tasks.Recorder()
    for ms in (1.0, 1.0, 1.0, 1.0, 1.0):
        rec.sample("nav_step_ms", ms, "open")
    rec.sample("nav_step_ms", 4.0, "cluttered")
    value, _, n = metrics.end_to_end(rec)["nav_step_ms.mean"]
    assert value == pytest.approx(2.0) and n == 6


def test_timings_scale_with_the_kernel_readings_around_them():
    rec = tasks.Recorder()
    for k in range(100):                 # a slow first half, then full speed
        rec.host.record(k / 10.0, 2.0 * host.REF_KERNEL_MS if k < 50 else
                        host.REF_KERNEL_MS)
    rec.samples["mission_ms"] = [10.0, 10.0]
    rec.classes["mission_ms"] = ["a", "b"]
    rec.stamps["mission_ms"] = [(1.5, 1.6), (8.5, 8.6)]
    rec.scales["mission_ms"] = [None, None]
    assert metrics.timings(rec, "mission_ms") == pytest.approx([5.0, 10.0])
    rec.scales["mission_ms"] = [0.25, None]       # given, as for child processes
    assert metrics.timings(rec, "mission_ms") == pytest.approx([2.5, 10.0])
    assert metrics.timings(rec, "mission_ms", scaled=False) == [10.0, 10.0]
    # no reading within the window: the nearest ones
    assert rec.host.kernel_ms(30.0, 31.0) == pytest.approx(host.REF_KERNEL_MS)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {name: unit for name, (_, unit, _)
                   in metrics.end_to_end(tasks.Recorder()).items()}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == metrics.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload",
         "mission", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("angle", [0.3, math.pi - 1e-8, math.pi])
def test_rotation_log_recovers_a_turn_about_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(np.abs(oracles.rotation_log(r)), [0.0, 0.0, angle])
