"""Each CLI subcommand loads only the libraries its pipeline needs.

A fresh interpreter runs ``workbot.cli.main`` and reports which of numpy,
scipy and scipy.ndimage ended up in ``sys.modules``: `plan` and `exec`
must load neither numpy nor scipy, `rtt` and `gen` on a detection stream
no scipy, and `dwa` no scipy.ndimage (its import alone costs tens of
milliseconds).  A stray top-level import in the CLI or in a module these
pipelines share would put back the import time the split saves.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

DATA = Path("src/workbot/data").resolve()

CHILD = """
import json, sys
import workbot.cli
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    try:
        code = workbot.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
loaded = sorted(set(sys.modules) & {"numpy", "scipy", "scipy.ndimage"})
print(json.dumps({"code": code, "loaded": loaded}))
"""

PLAN = ["--domain", str(DATA / "transport.pddl"),
        "--problem", str(DATA / "transport_1.pddl")]
PLAN_3 = ["--domain", str(DATA / "transport.pddl"),
          "--problem", str(DATA / "transport_3.pddl")]


@pytest.mark.parametrize("argv, code, absent", [
    pytest.param(None, None, {"numpy", "scipy"}, id="import"),
    pytest.param([], 2, {"numpy", "scipy"}, id="usage-error"),
    pytest.param(["plan", *PLAN, "--mode", "optimal"], 0, {"numpy", "scipy"},
                 id="plan-optimal"),
    pytest.param(["plan", *PLAN, "--mode", "greedy"], 0, {"numpy", "scipy"},
                 id="plan-greedy"),
    pytest.param(["plan", *PLAN_3, "--mode", "optimal"], 0,
                 {"numpy", "scipy"}, id="plan-optimal-transport-3"),
    pytest.param(["plan", *PLAN_3, "--mode", "greedy"], 0,
                 {"numpy", "scipy"}, id="plan-greedy-transport-3"),
    pytest.param(["exec", *PLAN, "--bindings", str(DATA / "bindings.json")],
                 0, {"numpy", "scipy"}, id="exec"),
    pytest.param(["rtt", "--scenario", str(DATA / "rtt.json"),
                  "--tracker", "sort"], 0, {"scipy"}, id="rtt-sort"),
    pytest.param(["rtt", "--scenario", str(DATA / "rtt.json"),
                  "--tracker", "nn3d"], 0, {"scipy"}, id="rtt-nn3d"),
    pytest.param(["gen", "--scenario", str(DATA / "rtt.json")], 0, {"scipy"},
                 id="gen-rtt"),
    pytest.param(["dwa", "--map", str(DATA / "cluttered.pgm"),
                  "--start", "1,1,0", "--goal", "5,5", "--max-steps", "5"], 0,
                 {"scipy.ndimage"}, id="dwa"),
])
def test_subcommand_loads_only_what_it_runs(tmp_path, argv, code, absent):
    if argv:
        argv = argv + ["--out", str(tmp_path / "out")]
    report, stderr = _run_child(argv)
    assert report["code"] == code, stderr
    assert not absent & set(report["loaded"])


def test_exec_with_a_fault_script_loads_no_numpy(tmp_path):
    faults = tmp_path / "faults.json"
    faults.write_text('{"1": "e_failure"}\n')
    report, stderr = _run_child(["exec", *PLAN,
                                 "--bindings", str(DATA / "bindings.json"),
                                 "--faults", str(faults),
                                 "--out", str(tmp_path / "out")])
    assert report == {"code": 0, "loaded": []}, stderr


def _run_child(argv) -> tuple[dict, str]:
    """The child's report on ``workbot.cli.main(argv)`` and its stderr."""
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr
