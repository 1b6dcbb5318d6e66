"""End-to-end subcommand runs on the bundled data, exit codes, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

DATA = Path("src/workbot/data").resolve()


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "workbot.cli", *args],
                          capture_output=True, text=True)


def test_no_arguments_is_a_usage_error():
    proc = run_cli()
    assert proc.returncode == 2


def test_unknown_subcommand_is_a_usage_error():
    proc = run_cli("teleport")
    assert proc.returncode == 2


def test_perceive_writes_metrics(tmp_path):
    out = tmp_path / "metrics.csv"
    proc = run_cli("perceive", "--scenario", str(DATA / "workstation.json"),
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = dict(line.split(",") for line in
                out.read_text().splitlines()[1:])
    assert float(rows["cluster_count"]) == 2.0
    assert float(rows["purity_min"]) >= 0.95
    assert float(rows["plane_normal_err_deg"]) <= 2.0
    summary = json.loads(proc.stdout)
    assert summary["cluster_count"] == 2.0


def test_perceive_optional_cloud_out(tmp_path):
    cloud = tmp_path / "scene.ply"
    proc = run_cli("perceive", "--scenario", str(DATA / "workstation.json"),
                   "--out", str(tmp_path / "m.csv"), "--cloud-out", str(cloud))
    assert proc.returncode == 0, proc.stderr
    head = cloud.read_text().splitlines()[0]
    assert head == "ply"


def test_place_writes_candidates(tmp_path):
    out = tmp_path / "placements.json"
    proc = run_cli("place", "--scenario", str(DATA / "workstation.json"),
                   "--out", str(out), "--n", "10")
    assert proc.returncode == 0, proc.stderr
    body = json.loads(out.read_text())
    assert len(body["placements"]) == 10
    first = body["placements"][0]
    assert set(first) >= {"uv", "clearance", "position"}


def test_place_with_chain_ranks_by_reachability(tmp_path):
    out = tmp_path / "ranked.json"
    proc = run_cli("place", "--scenario", str(DATA / "workstation.json"),
                   "--out", str(out), "--chain", str(DATA / "chain_5dof.json"),
                   "--base", "0.0,0.0,0.55")
    assert proc.returncode == 0, proc.stderr
    body = json.loads(out.read_text())
    scores = [p["reach_score"] for p in body["placements"]]
    assert scores[0] > 0.0
    assert scores == sorted(scores, reverse=True)
    # recorded with the Pose/scipy-Rotation IK: 20, 20, 21 and 54 iterations
    assert scores == [1 / 21, 1 / 21, 1 / 22, 1 / 55] + [0.0] * 16


def test_grasp_samples_candidates(tmp_path):
    out = tmp_path / "grasps.json"
    proc = run_cli("grasp", "--object", str(DATA / "grasp_object.json"),
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    body = json.loads(out.read_text())
    assert body["approach"] == "frontal"        # 0.12 m tall > 0.06 m
    assert len(body["candidates"]) == 9
    yaws = [c["yaw"] for c in body["candidates"]]
    assert [abs(y) for y in yaws] == sorted(abs(y) for y in yaws)


def test_rtt_sort_metrics(tmp_path):
    out = tmp_path / "rtt.csv"
    proc = run_cli("rtt", "--scenario", str(DATA / "rtt.json"),
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert float(rows["id_switches"]) == 0.0
    assert float(rows["assoc_accuracy"]) >= 0.99


def test_dwa_reaches_goal_on_open_map(tmp_path):
    import numpy as np

    from workbot.dwa import OccupancyGrid, save_pgm

    grid = OccupancyGrid(cells=np.zeros((70, 70), dtype=np.uint8),
                         resolution=0.1, origin=np.zeros(2))
    pgm = tmp_path / "open.pgm"
    save_pgm(grid, pgm)
    out = tmp_path / "poses.csv"
    proc = run_cli("dwa", "--map", str(pgm),
                   "--start", "1.0,1.0,0.0", "--goal", "5.0,5.0",
                   "--out", str(out), "--max-steps", "150")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["reached"] is True
    header = out.read_text().splitlines()[0]
    assert header == "t,x,y,theta"


def test_dwa_on_cluttered_map_emits_safe_log(tmp_path):
    out = tmp_path / "poses.csv"
    proc = run_cli("dwa", "--map", str(DATA / "cluttered.pgm"),
                   "--start", "1.0,1.0,0.0", "--goal", "5.0,5.0",
                   "--out", str(out), "--max-steps", "40")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert {"reached", "steps", "final_dist"} <= set(summary)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,y,theta"
    assert len(lines) == summary["steps"] + 2


def test_plan_optimal(tmp_path):
    out = tmp_path / "plan.txt"
    proc = run_cli("plan", "--domain", str(DATA / "transport.pddl"),
                   "--problem", str(DATA / "transport_1.pddl"),
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["cost"] == 5.0
    assert out.read_text().endswith("; cost = 5\n")


def test_exec_with_fault(tmp_path):
    faults = tmp_path / "faults.json"
    faults.write_text('{"1": "e_failure"}\n')
    out = tmp_path / "trace.jsonl"
    proc = run_cli("exec", "--domain", str(DATA / "transport.pddl"),
                   "--problem", str(DATA / "transport_1.pddl"),
                   "--bindings", str(DATA / "bindings.json"),
                   "--faults", str(faults), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["outcome"] == "Success"
    assert summary["replans"] >= 1
    lines = out.read_text().strip().split("\n")
    assert json.loads(lines[-1])["outcome"] == "Success"


def test_gen_workstation_writes_cloud_and_truth(tmp_path):
    out = tmp_path / "scene.ply"
    proc = run_cli("gen", "--scenario", str(DATA / "workstation.json"),
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    truth = json.loads((tmp_path / "scene.ply.truth.json").read_text())
    assert truth["object_labels"] == ["bolt_bin", "can"]


def test_gen_rtt_writes_detections_and_truth(tmp_path):
    out = tmp_path / "stream.jsonl"
    proc = run_cli("gen", "--scenario", str(DATA / "rtt.json"),
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    first = json.loads(out.read_text().split("\n")[0])
    assert set(first) >= {"t", "cx", "cy", "w", "h", "score", "gt_id"}
    truth = json.loads((tmp_path / "stream.jsonl.truth.json").read_text())
    assert truth["labels"] == ["cup", "bolt", "tape"]


def test_seed_override_changes_the_output(tmp_path):
    a = tmp_path / "a.ply"
    b = tmp_path / "b.ply"
    run_cli("gen", "--scenario", str(DATA / "workstation.json"),
            "--out", str(a))
    run_cli("gen", "--scenario", str(DATA / "workstation.json"),
            "--out", str(b), "--seed", "5")
    assert a.read_bytes() != b.read_bytes()


def test_reruns_are_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        proc = run_cli("perceive",
                       "--scenario", str(DATA / "workstation.json"),
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    assert a.read_bytes() == b.read_bytes()


def test_pipeline_error_reports_json_on_stderr(tmp_path):
    proc = run_cli("plan", "--domain", str(DATA / "transport.pddl"),
                   "--problem", str(tmp_path / "missing.pddl"),
                   "--out", str(tmp_path / "x.txt"))
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert set(err) == {"error", "message"}
    assert err["error"] == "FileNotFoundError"


def test_bad_scenario_kind_is_a_pipeline_error(tmp_path):
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"kind": "rtt", "objects": []}\n')
    proc = run_cli("perceive", "--scenario", str(wrong),
                   "--out", str(tmp_path / "m.csv"))
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "ValueError"


@pytest.mark.parametrize("config", [{"passthrough": ["z", 5.0, 6.0]},
                                    {"leaf": 0}])
def test_perceive_and_place_share_one_segmentation(tmp_path, capsys, config):
    from workbot.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    outcomes = []
    for command, key in (("perceive", "cluster_count"), ("place", "obstacles")):
        code = main([command, "--scenario", str(DATA / "workstation.json"),
                     "--config", str(cfg), "--out", str(tmp_path / command)])
        captured = capsys.readouterr()
        if code == 0:
            outcomes.append(("ok", int(json.loads(captured.out)[key])))
        else:
            outcomes.append(("error", json.loads(captured.err)["error"]))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("command, flag", [
    ("perceive", "--config"), ("place", "--config"), ("dwa", "--config"),
    ("grasp", "--object"), ("exec", "--bindings"), ("exec", "--faults"),
    ("perceive", "--scenario"), ("rtt", "--scenario"), ("gen", "--scenario"),
])
def test_non_object_json_is_a_pipeline_error(tmp_path, capsys, command, flag):
    from workbot.cli import main

    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]\n")
    args = {
        "perceive": ["--scenario", str(DATA / "workstation.json")],
        "place": ["--scenario", str(DATA / "workstation.json")],
        "dwa": ["--map", str(DATA / "cluttered.pgm"), "--start", "1,1,0",
                "--goal", "5,5"],
        "grasp": ["--object", str(DATA / "grasp_object.json")],
        "exec": ["--domain", str(DATA / "transport.pddl"),
                 "--problem", str(DATA / "transport_1.pddl"),
                 "--bindings", str(DATA / "bindings.json")],
        "rtt": ["--scenario", str(DATA / "rtt.json")],
        "gen": ["--scenario", str(DATA / "rtt.json")],
    }[command]
    if flag in args:
        args[args.index(flag) + 1] = str(listed)
    else:
        args += [flag, str(listed)]
    code = main([command, *args, "--out", str(tmp_path / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError",
                   "message": f"{listed}: expected a JSON object"}


@pytest.mark.parametrize("command", ["grasp", "place"])
@pytest.mark.parametrize("content, message", [
    ({"joints": []}, "expected a JSON array of joint rows"),
    ([1, 2, 3, 4, 5], "joint 0 is not a JSON object"),
    ([{"a": "wide", "alpha": 0, "d": 0, "theta_offset": 0, "lo": -1,
       "hi": 1}] * 5, "joint 0 field 'a' must be a finite number, got 'wide'"),
])
def test_malformed_chain_is_a_pipeline_error(tmp_path, capsys, command,
                                             content, message):
    from workbot.cli import main

    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps(content))
    inputs = {"grasp": ["--object", str(DATA / "grasp_object.json")],
              "place": ["--scenario", str(DATA / "workstation.json")]}
    code = main([command, *inputs[command], "--chain", str(chain),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": f"{chain}: {message}"}


@pytest.mark.parametrize("bindings, message", [
    ({"move": [1]}, "binding 'move': expected a JSON object, got [1]"),
    ({"move": {"script": "e_success"}},
     "binding 'move': script must be a list of statuses, got 'e_success'"),
    ({"grasp": {"failure_add": [1]}},
     "binding 'grasp': failure_add must be a list of atoms "
     "(lists of strings), got [1]"),
])
def test_malformed_binding_is_a_pipeline_error(tmp_path, capsys, bindings,
                                               message):
    from workbot.cli import main

    path = tmp_path / "bindings.json"
    path.write_text(json.dumps(bindings))
    code = main(["exec", "--domain", str(DATA / "transport.pddl"),
                 "--problem", str(DATA / "transport_1.pddl"),
                 "--bindings", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": message}


@pytest.mark.parametrize("key, value, message", [
    ("n", [1], "'n' must be a finite number, got [1]"),
    ("n", True, "'n' must be a finite number, got True"),
    ("n", 2.5, "'n' must be a whole number, got 2.5"),
    ("offset", "far", "'offset' must be a finite number, got 'far'"),
    ("offset", float("nan"), "'offset' must be a finite number, got nan"),
    ("yaw_spread", [0.5], "'yaw_spread' must be a finite number, got [0.5]"),
    ("yaw_spread", float("inf"),
     "'yaw_spread' must be a finite number, got inf"),
    ("height", False, "'height' must be a finite number, got False"),
    ("position", [0.35, 0.0],
     "'position' must be a list of 3 numbers, got [0.35, 0.0]"),
    ("base_position", [0.0, "x", 0.0],
     "'base_position' must be a finite number, got 'x'"),
])
def test_malformed_grasp_object_is_a_pipeline_error(tmp_path, capsys, key,
                                                    value, message):
    from workbot.cli import main

    desc = json.loads((DATA / "grasp_object.json").read_text())
    desc[key] = value
    path = tmp_path / "object.json"
    path.write_text(json.dumps(desc))
    code = main(["grasp", "--object", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": f"{path}: {message}"}


@pytest.mark.parametrize("file, old, new", [
    ("transport.pddl", None, "(define)"),
    ("transport.pddl", "(:predicates", "(:predicates ()"),
    ("transport.pddl", "(increase (total-cost) 1)",
     "(increase (total-cost) ())"),
    ("transport_1.pddl", "(:init", "(:init (= () 1)"),
    ("transport_1.pddl", "(:goal (and (item-at bolt ws)))", ""),
])
@pytest.mark.parametrize("command", ["plan", "exec"])
def test_malformed_pddl_is_a_pipeline_error(tmp_path, capsys, command, file,
                                            old, new):
    from workbot.cli import main

    text = (DATA / file).read_text()
    assert old is None or old in text
    path = tmp_path / file
    path.write_text(new if old is None else text.replace(old, new, 1))
    paths = {name: str(DATA / name)
             for name in ("transport.pddl", "transport_1.pddl")}
    paths[file] = str(path)
    args = ["--domain", paths["transport.pddl"],
            "--problem", paths["transport_1.pddl"]]
    if command == "exec":
        args += ["--bindings", str(DATA / "bindings.json")]
    code = main([command, *args, "--out", str(tmp_path / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PddlSyntaxError"
    assert err["message"].startswith(f"{path}:")
