"""End-to-end subcommand runs on the bundled data, exit codes, determinism."""

import hashlib
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


def test_place_with_chain_from_the_default_base_names_the_base(tmp_path,
                                                                capsys):
    # the bundled table top is at z = 0.7 m, out of reach from the floor
    from workbot.cli import main

    code = main(["place", "--scenario", str(DATA / "workstation.json"),
                 "--chain", str(DATA / "chain_5dof.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert not (tmp_path / "out").exists()
    assert json.loads(capsys.readouterr().err) == {
        "error": "NoReachablePlacement",
        "message": "IK reaches none of the 20 placements from arm base "
                   "(0.0, 0.0, 0.0)"}


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
    workstation = DATA / "workstation.json"
    for command, scenario, message in [
            ("perceive", wrong, f"scenario {wrong} is not a workstation "
                                f"scenario"),
            ("rtt", workstation, f"scenario {workstation} is not an rtt "
                                 f"scenario")]:
        proc = run_cli(command, "--scenario", str(scenario),
                       "--out", str(tmp_path / "m.csv"))
        assert proc.returncode == 1
        assert json.loads(proc.stderr) == {"error": "ValueError",
                                           "message": message}


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


@pytest.mark.parametrize("config", [
    pytest.param({"plane_ref_axis": [0, 0, 1e308]},
                 id="perceive-config-plane_ref_axis-huge"),
])
def test_perceive_config_along_the_default_axis_changes_nothing(
        tmp_path, capsys, config):
    from workbot.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    outputs = []
    for i, extra in enumerate([[], ["--config", str(cfg)]]):
        out = tmp_path / f"metrics{i}.csv"
        code = main(["perceive", "--scenario", str(DATA / "workstation.json"),
                     *extra, "--out", str(out)])
        assert code == 0
        outputs.append((out.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]


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


# explicit ids here and below keep the test names these cases had before
# the messages took the shared decoder wording
@pytest.mark.parametrize("command", ["grasp", "place"])
@pytest.mark.parametrize("content, message", [
    pytest.param({"joints": []}, "expected a JSON array",
                 id="content0-expected a JSON array of joint rows"),
    pytest.param([1, 2, 3, 4, 5], "joint 0: expected a JSON object, got 1",
                 id="content1-joint 0 is not a JSON object"),
    pytest.param([{"a": "wide", "alpha": 0, "d": 0, "theta_offset": 0,
                   "lo": -1, "hi": 1}] * 5,
                 "joint 0: 'a' must be a finite number, got 'wide'",
                 id="content2-joint 0 field 'a' must be a finite number, "
                    "got 'wide'"),
    ([{"a": 0, "alpha": 0, "d": 0, "theta_offset": 0, "lo": -1, "hi": 1}] * 4,
     "chain must have 5 joints, got 4"),
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
    pytest.param({"move": {"script": "e_success"}},
                 "binding 'move': 'script' must be a list, got 'e_success'",
                 id="bindings1-binding 'move': script must be a list of "
                    "statuses, got 'e_success'"),
    pytest.param({"grasp": {"failure_add": [1]}},
                 "binding 'grasp': 'failure_add[0]' must be a list, got 1",
                 id="bindings2-binding 'grasp': failure_add must be a list "
                    "of atoms (lists of strings), got [1]"),
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
    assert err == {"error": "ValueError", "message": f"{path}: {message}"}


@pytest.mark.parametrize("key, value, message", [
    pytest.param("n", [1], "'n' must be a whole number, got [1]",
                 id="n-value0-'n' must be a finite number, got [1]"),
    pytest.param("n", True, "'n' must be a whole number, got True",
                 id="n-True-'n' must be a finite number, got True"),
    ("n", 2.5, "'n' must be a whole number, got 2.5"),
    ("offset", "far", "'offset' must be a finite number, got 'far'"),
    ("offset", float("nan"), "'offset' must be a finite number, got nan"),
    ("yaw_spread", [0.5], "'yaw_spread' must be a finite number, got [0.5]"),
    ("yaw_spread", float("inf"),
     "'yaw_spread' must be a finite number, got inf"),
    ("height", False, "'height' must be a finite number, got False"),
    pytest.param("position", [0.35, 0.0],
                 "'position' must be a list of 3 values, got [0.35, 0.0]",
                 id="position-value8-'position' must be a list of 3 numbers, "
                    "got [0.35, 0.0]"),
    pytest.param("base_position", [0.0, "x", 0.0],
                 "'base_position[1]' must be a finite number, got 'x'",
                 id="base_position-value9-'base_position' must be a finite "
                    "number, got 'x'"),
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


DISTANCE_DECL = "(distance ?a - location ?b - location)"
SHELF_WS = "(= (distance shelf ws) 1)"


@pytest.mark.parametrize("file, old, new, error, message", [
    ("transport_1.pddl", SHELF_WS, "(= (distance shelf ws) nan)",
     "PddlSyntaxError", "14:28: expected a finite number: nan"),
    ("transport_1.pddl", SHELF_WS, "(= (distance shelf ws) inf)",
     "PddlSyntaxError", "14:28: expected a finite number: inf"),
    ("transport_1.pddl", SHELF_WS, "(= (distance shelf ws) 1e400)",
     "PddlSyntaxError", "14:28: expected a finite number: 1e400"),
    ("transport.pddl", "(increase (total-cost) 1)",
     "(increase (total-cost) nan)",
     "PddlSyntaxError", "27:56: expected a finite number: nan"),
    ("transport.pddl", DISTANCE_DECL, f"{DISTANCE_DECL} (distance)",
     "PddlSyntaxError", "15:44: function declared twice: distance"),
    ("transport.pddl", ":effect (and (at ?r ?to)",
     ":effect (and (at ?r kitchen)",
     "UndeclaredObject", "21:18: undeclared object: kitchen"),
    ("transport_1.pddl", SHELF_WS, "(= (distance ?x ws) 1)",
     "PddlSyntaxError", "14:8: variables not allowed here: ?x"),
    ("transport.pddl", "(:predicates",
     "(:predicates " + "(" * 3000 + ")" * 3000,
     "PddlSyntaxError", "8:17: expected a symbol, found a list"),
    ("transport_1.pddl", "bolt - item", "bolt bolt - item",
     "PddlSyntaxError", "5:3: object declared twice: bolt"),
    ("transport.pddl", "(:types robot item location)",
     "(:types a - b b - a robot item location)",
     "PddlSyntaxError", "7:3: type hierarchy has a cycle: a"),
    ("transport.pddl", "(:types robot item location)",
     "(:types a - a robot item location)",
     "PddlSyntaxError", "7:3: type hierarchy has a cycle: a"),
    ("transport.pddl", "?from - location ?to - location",
     "?from - location ?from - location",
     "PddlSyntaxError", "19:17: parameter declared twice: ?from"),
    ("transport.pddl", "  (:action perceive",
     "  (:action move :parameters ())\n  (:action perceive",
     "PddlSyntaxError", "24:3: action declared twice: move"),
    ("transport.pddl", "(increase (total-cost) 1)))\n)",
     "(increase (total-cost) 1))\n    :parameters (?x - robot))\n)",
     "PddlSyntaxError", "41:5: action section declared twice: :parameters"),
    ("transport.pddl", "    :effect (and (perceived ?o)",
     "    :precondition (and)\n    :effect (and (perceived ?o)",
     "PddlSyntaxError", "27:5: action section declared twice: :precondition"),
    ("transport.pddl", "    :effect (and (perceived ?o)",
     "    :effect (and)\n    :effect (and (perceived ?o)",
     "PddlSyntaxError", "28:5: action section declared twice: :effect"),
    ("transport_1.pddl", SHELF_WS, f"{SHELF_WS} {SHELF_WS}",
     "PddlSyntaxError",
     "14:31: function value declared twice: (distance shelf ws)"),
    ("transport_1.pddl", "(:goal", "(:goal (and))\n  (:goal",
     "PddlSyntaxError", "17:3: section declared twice: :goal"),
    ("transport.pddl", ":action-costs :negative-preconditions)",
     ":action-costs)", "PddlSyntaxError", "20:38: negative precondition "
     "needs requirement :negative-preconditions"),
], ids=["init-nan", "init-inf", "init-overflow", "increase-nan",
        "duplicate-function", "undeclared-constant", "init-variable",
        "deep-nesting", "duplicate-object", "type-cycle", "type-own-parent",
        "duplicate-parameter", "duplicate-action",
        "duplicate-parameters-key", "duplicate-precondition-key",
        "duplicate-effect-key", "duplicate-function-value",
        "duplicate-goal", "undeclared-requirement"])
def test_pddl_error_is_located_json(tmp_path, capsys, file, old, new, error,
                                    message):
    from workbot.cli import main

    text = (DATA / file).read_text()
    assert old in text
    path = tmp_path / file
    path.write_text(text.replace(old, new, 1))
    paths = {name: str(DATA / name)
             for name in ("transport.pddl", "transport_1.pddl")}
    paths[file] = str(path)
    out = tmp_path / "plan.txt"
    code = main(["plan", "--domain", paths["transport.pddl"],
                 "--problem", paths["transport_1.pddl"], "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": error, "message": f"{path}:{message}"}


WORKSTATION = json.loads((DATA / "workstation.json").read_text())
RTT = json.loads((DATA / "rtt.json").read_text())
MAP = {"map.pgm": (DATA / "cluttered.pgm").read_text(),
       "map.json": json.loads((DATA / "cluttered.json").read_text())}
DWA = ["dwa", "--map", "map.pgm", "--start", "1,1,0", "--goal", "5,5"]


@pytest.mark.parametrize("files, argv, bad, error, message", [
    pytest.param({**MAP, "cfg.json": {"dt": "0.1"}}, [*DWA, "--config",
                                                     "cfg.json"],
                 "cfg.json", "ValueError",
                 "'dt' must be a finite number, got '0.1'", id="dwa-config"),
    *[pytest.param({**MAP, "cfg.json": {key: value}},
                   [*DWA, "--config", "cfg.json"], "cfg.json", "ValueError",
                   message, id=f"dwa-config-{key}-{value}")
      for key, value, message in [
          ("robot_radius", -0.5, "robot_radius must not be negative, got -0.5"),
          ("vx_samples", 0, "vx_samples must be at least 1, got 0"),
          ("vx_samples", -1, "vx_samples must be at least 1, got -1"),
          ("omega_samples", 0, "omega_samples must be at least 1, got 0"),
          ("ax", -1.0, "ax must be positive, got -1.0"),
          ("ay", -1.0, "ay must be positive, got -1.0"),
          ("aomega", -2.0, "aomega must be positive, got -2.0"),
          ("omega_max", -1.5, "omega_max must be positive, got -1.5"),
      ]],
    pytest.param({"cfg.json": {"leaf": "x"}},
                 ["perceive", "--scenario", str(DATA / "workstation.json"),
                  "--config", "cfg.json"], "cfg.json", "ValueError",
                 "'leaf' must be a finite number, got 'x'",
                 id="perceive-config"),
    *[pytest.param({"cfg.json": {key: value}},
                   ["perceive", "--scenario", str(DATA / "workstation.json"),
                    "--config", "cfg.json"], "cfg.json", "ValueError",
                   message, id=f"perceive-config-{key}-{value}")
      for key, value, message in [
          ("plane_angle_tol", 2.0,
           "plane_angle_tol must be in (0, pi/2], got 2.0"),
          ("plane_dist_thresh", -0.005,
           "plane_dist_thresh must be positive, got -0.005"),
          ("plane_max_iters", 0, "plane_max_iters must be at least 1, got 0"),
          ("leaf", -1, "leaf must be finite and not negative, got -1.0"),
          ("normals_k", 2, "normals_k must be at least 3, got 2"),
          ("passthrough", ["w", 0, 1], "passthrough must be (axis x, y or "
           "z, lo, hi) with lo <= hi, got ('w', 0.0, 1.0)"),
          ("passthrough", ["z", 1, 0], "passthrough must be (axis x, y or "
           "z, lo, hi) with lo <= hi, got ('z', 1.0, 0.0)"),
          ("prism_h_min", 0.5,
           "prism_h_min must be in [0, prism_h_max = 0.4), got 0.5"),
          ("prism_h_max", 0.005,
           "prism_h_min must be in [0, prism_h_max = 0.005), got 0.01"),
          ("cluster_tol", 0, "cluster_tol must be positive, got 0.0"),
          ("cluster_min_size", 0, "cluster_min_size must be in [1, "
           "cluster_max_size = 20000], got 0"),
          ("cluster_max_size", 10, "cluster_min_size must be in [1, "
           "cluster_max_size = 10], got 25"),
          ("plane_ref_axis", [0, 0, 0], "plane_ref_axis must be a nonzero "
           "finite vector, got (0.0, 0.0, 0.0)"),
          ("seed", -1, "seed must be non-negative, got -1"),
      ]],
    pytest.param({"sc.json": {**RTT, "center": [0]}},
                 ["rtt", "--scenario", "sc.json"], "sc.json", "ValueError",
                 "'center' must be a list of 2 values, got [0]",
                 id="rtt-center"),
    *[pytest.param({"sc.json": {**RTT, key: value}},
                   ["rtt", "--scenario", "sc.json"], "sc.json", "ValueError",
                   message, id=f"rtt-{key}-{value}")
      for key, value, message in [
          ("noise_sigma_m", -0.01,
           "noise_sigma_m must not be negative, got -0.01"),
          ("noise_sigma_px", -2, "noise_sigma_px must not be negative, "
                                 "got -2.0"),
          ("box_size", 0, "box_size must be positive, got 0.0"),
          ("pixels_per_meter", -400.0,
           "pixels_per_meter must be positive, got -400.0"),
      ]],
    pytest.param({"sc.json": {**WORKSTATION, "width": "1"}},
                 ["perceive", "--scenario", "sc.json"], "sc.json",
                 "ValueError", "'width' must be a finite number, got '1'",
                 id="workstation-width"),
    pytest.param({"sc.json": {**WORKSTATION, "objects": 5}},
                 ["gen", "--scenario", "sc.json"], "sc.json", "ValueError",
                 "'objects' must be a list, got 5", id="workstation-objects"),
    pytest.param({**MAP, "map.json": [0.1]}, DWA, "map.json", "ValueError",
                 "expected a JSON object", id="sidecar-list"),
    pytest.param({**MAP, "map.json": {"resolution": 0.1}}, DWA, "map.json",
                 "ValueError",
                 "'origin' must be a list of 2 values, got None",
                 id="sidecar-no-origin"),
    pytest.param({**MAP, "map.json": {**MAP["map.json"], "resolution": 0}},
                 DWA, "map.json", "ValueError",
                 "resolution must be positive, got 0.0",
                 id="sidecar-zero-resolution"),
    pytest.param({**MAP, "map.pgm": "P2 0 0 255\n"}, DWA, "map.pgm",
                 "GridParseError", "map must be at least 1x1, got 0x0",
                 id="empty-map"),
    pytest.param({**MAP, "cfg.json": '{"dt": 0.1, "dt": 0.2}'},
                 [*DWA, "--config", "cfg.json"], "cfg.json", "ValueError",
                 "key 'dt' appears twice in one object",
                 id="dwa-config-repeated-key"),
    pytest.param({"sc.json": json.dumps(RTT)[:-1] + ', "seed": 7}'},
                 ["rtt", "--scenario", "sc.json"], "sc.json", "ValueError",
                 "key 'seed' appears twice in one object",
                 id="rtt-repeated-seed"),
])
def test_malformed_input_file_is_a_pipeline_error(tmp_path, capsys, files,
                                                  argv, bad, error, message):
    from workbot.cli import main

    for name, content in files.items():
        (tmp_path / name).write_text(
            content if isinstance(content, str) else json.dumps(content))
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code = main([*argv, "--out", str(tmp_path / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": error, "message": f"{tmp_path / bad}: {message}"}


@pytest.mark.parametrize("argv, flag, value", [
    (DWA, "--start", "1,1,nan"),
    (DWA, "--start", "inf,1,0"),
    (DWA, "--goal", "nan,5"),
    (DWA, "--goal", "5,-inf"),
    (DWA, "--goal", "5,x"),
    (["place", "--scenario", str(DATA / "workstation.json"),
      "--chain", str(DATA / "chain_5dof.json"), "--base", "0,0,0"],
     "--base", "0,0,inf"),
    (["place", "--scenario", str(DATA / "workstation.json"),
      "--base", "0,0,0"], "--base", "nan,0,0"),
    (["place", "--scenario", str(DATA / "workstation.json"),
      "--base", "0,0,0"], "--base", "1,,2,3"),
    (["place", "--scenario", str(DATA / "workstation.json"),
      "--base", "0,0,0"], "--base", "1,2,3,"),
    (["place", "--scenario", str(DATA / "workstation.json"),
      "--base", "0,0,0"], "--base", ",1,2,3"),
], ids=["dwa-start-nan", "dwa-start-inf", "dwa-goal-nan", "dwa-goal-minus-inf",
        "dwa-goal-word", "place-base-inf", "place-base-nan-without-chain",
        "place-base-empty-field", "place-base-trailing-comma",
        "place-base-leading-comma"])
def test_non_finite_flag_values_are_a_pipeline_error(tmp_path, capsys, argv,
                                                     flag, value):
    from workbot.cli import main

    for name, content in MAP.items():
        (tmp_path / name).write_text(
            content if isinstance(content, str) else json.dumps(content))
    argv = [str(tmp_path / a) if a in MAP else a for a in argv]
    argv[argv.index(flag) + 1] = value
    n = 2 if flag == "--goal" else 3
    code = main([*argv, "--out", str(tmp_path / "out")])
    assert code == 1
    assert not (tmp_path / "out").exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ValueError",
        "message": f"{flag} expects {n} comma-separated finite numbers, "
                   f"got {value!r}"}


@pytest.mark.parametrize("flag, value, message", [
    ("--max-steps", "-5", "max_steps must be at least 0, got -5"),
    ("--stop-dist", "-1", "stop_dist must be finite and at least 0, got -1.0"),
    ("--stop-dist", "inf", "stop_dist must be finite and at least 0, got inf"),
    ("--stop-dist", "nan", "stop_dist must be finite and at least 0, got nan"),
])
def test_bad_episode_limits_are_a_pipeline_error(tmp_path, capsys, flag,
                                                 value, message):
    from workbot.cli import main

    out = tmp_path / "poses.csv"
    code = main(["dwa", "--map", str(DATA / "cluttered.pgm"),
                 "--start", "1,1,0", "--goal", "5,5", flag, value,
                 "--out", str(out)])
    assert code == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "ValueError",
                                        "message": message}


def test_unsupported_requirement_names_the_domain(tmp_path, capsys):
    from workbot.cli import main

    domain = tmp_path / "adl.pddl"
    domain.write_text("(define (domain d) (:requirements :adl))\n")
    code = main(["plan", "--domain", str(domain),
                 "--problem", str(DATA / "transport_1.pddl"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "UnsupportedRequirement",
                   "message": f"{domain}:1:35: unsupported requirement: adl"}


@pytest.mark.parametrize("faults, message", [
    ({"99": "bogus"}, "fault script step 99: status must be "
                      "e_success/e_failure, got 'bogus'"),
    ({"x": "e_failure"}, "fault script: step 'x' must be a whole number"),
    ({"-1": "e_failure"},
     "fault script: step '-1' is negative, but steps count from 0"),
])
def test_malformed_fault_script_is_a_pipeline_error(tmp_path, capsys, faults,
                                                    message):
    from workbot.cli import main

    path = tmp_path / "faults.json"
    path.write_text(json.dumps(faults))
    out = tmp_path / "trace.jsonl"
    code = main(["exec", "--domain", str(DATA / "transport.pddl"),
                 "--problem", str(DATA / "transport_1.pddl"),
                 "--bindings", str(DATA / "bindings.json"),
                 "--faults", str(path), "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": f"{path}: {message}"}


@pytest.mark.parametrize("value", ["-1", "-7"])
def test_negative_replan_budget_is_a_pipeline_error(tmp_path, capsys, value):
    from workbot.cli import main

    out = tmp_path / "trace.jsonl"
    code = main(["exec", "--domain", str(DATA / "transport.pddl"),
                 "--problem", str(DATA / "transport_3.pddl"),
                 "--bindings", str(DATA / "bindings.json"),
                 "--max-replans", value, "--out", str(out)])
    assert code == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ValueError",
        "message": f"max_replans must be at least 0, got {value}"}


def test_two_objects_in_one_gate_report_metrics(tmp_path, capsys):
    # with one object inside the other's gate, scoring must still claim each
    # confirmed track for at most one object per frame
    from workbot.cli import main

    scenario = tmp_path / "rtt.json"
    scenario.write_text(json.dumps({**RTT, "objects": [
        {"label": "cup", "angle0": 0.0}, {"label": "bolt", "angle0": 0.05}]}))
    out = tmp_path / "metrics.csv"
    code = main(["rtt", "--scenario", str(scenario), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    summary = json.loads(captured.out)
    assert set(summary) == {"assoc_accuracy", "frames", "id_switches",
                            "omega_rel_err", "track_count"}
    assert summary["frames"] == 900.0
    assert 0.0 <= summary["assoc_accuracy"] <= 1.0
    assert out.read_text().startswith("metric,value\n")


# sha256 of each artifact, sidecar and stdout in tests/data/cli_digests.json,
# recorded with numpy 2.4.6 and scipy 1.17.1 on one x86-64 Linux host, as
# the SORT metric and DWA command pins are; re-recording them is a change to
# the artifacts and needs its own CHANGES.md entry
CLI_DIGESTS = Path("tests/data/cli_digests.json").resolve()
WORKSTATION = str(DATA / "workstation.json")
CHAIN = str(DATA / "chain_5dof.json")
PDDL = ["--domain", str(DATA / "transport.pddl"),
        "--problem", str(DATA / "transport_1.pddl")]
PDDL_3 = [*PDDL[:3], str(DATA / "transport_3.pddl")]
# name: (argv without --out, artifact suffix, writes a .truth.json sidecar)
DIGEST_JOBS = {
    "perceive": (["perceive", "--scenario", WORKSTATION], ".csv", False),
    "place_chain": (["place", "--scenario", WORKSTATION, "--chain", CHAIN,
                     "--base", "0.0,0.0,0.55"], ".json", False),
    "grasp_chain": (["grasp", "--object", str(DATA / "grasp_object.json"),
                     "--chain", CHAIN], ".json", False),
    "rtt_sort": (["rtt", "--scenario", str(DATA / "rtt.json"),
                  "--tracker", "sort"], ".csv", False),
    "rtt_nn3d": (["rtt", "--scenario", str(DATA / "rtt.json"),
                  "--tracker", "nn3d"], ".csv", False),
    "gen_workstation": (["gen", "--scenario", WORKSTATION], ".ply", True),
    "gen_rtt": (["gen", "--scenario", str(DATA / "rtt.json")], ".jsonl",
                True),
    "dwa": (["dwa", "--map", str(DATA / "cluttered.pgm"),
             "--start", "1,1,0", "--goal", "5,5"], ".csv", False),
    # transport_3, where the two modes return different plans
    "plan_optimal": (["plan", *PDDL_3, "--mode", "optimal"], ".txt", False),
    "plan_greedy": (["plan", *PDDL_3, "--mode", "greedy"], ".txt", False),
    "exec_faults": (["exec", *PDDL, "--bindings", str(DATA / "bindings.json"),
                     "--faults", None], ".jsonl", False),
}


def cli_digests(tmp_path):
    """Run every DIGEST_JOBS entry and hash what it writes."""
    def sha(data):
        return hashlib.sha256(data).hexdigest()

    faults = tmp_path / "faults.json"
    faults.write_text('{"1": "e_failure"}\n')
    digests = {}
    for name, (argv, suffix, sidecar) in DIGEST_JOBS.items():
        out = tmp_path / f"{name}{suffix}"
        args = [str(faults) if a is None else a for a in argv]
        proc = run_cli(*args, "--out", str(out))
        assert proc.returncode == 0, (name, proc.stderr)
        digests[name] = {"artifact": sha(out.read_bytes()),
                         "stdout": sha(proc.stdout.encode())}
        if sidecar:
            digests[name]["sidecar"] = sha(
                Path(str(out) + ".truth.json").read_bytes())
    return digests


def test_cli_artifacts_match_the_recorded_digests(tmp_path):
    assert cli_digests(tmp_path) == json.loads(CLI_DIGESTS.read_text())
