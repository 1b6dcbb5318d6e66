"""Every public library name has a caller.

A public top-level function or class of ``src/workbot``, and a public method
or property of a public class, must be referenced by name somewhere in
``src/`` or ``benchmarks/``: as a ``Name``, an ``Attribute`` or an import
alias.  Strings, comments and the tests do not count.  The names in
``UNCALLED`` are the only exceptions, each with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

UNCALLED = {
    "kinematics.pose_error":
        "criterion 05 differentiates it to check error_jacobian",
    "kinematics.error_jacobian":
        "criterion 05's finite-difference Jacobian check",
    "kinematics.KinematicChain.clamp":
        "joint-limit helper for criterion 05 and the IK tests",
    "kinematics.KinematicChain.within_limits":
        "joint-limit helper for criterion 05 and the IK tests",
    "pddl.validate": "criterion 09 checks every plan with it",
    "pddl.print_domain": "criterion 09's print/parse fixpoint",
    "pddl.print_problem": "criterion 09's print/parse fixpoint",
    "dwa.rollout": "the arcs that the DWA oracle tests check against Euler",
    "dwa.save_pgm": "writes the map fixtures of the DWA and CLI tests",
    "rtt.change_trigger":
        "background change detection, a paper feature the README names",
    "grasping.grasp_monitor":
        "gripper feedback, a paper feature the README names",
    "execution.component_step":
        "the component event protocol, a paper feature the README names",
}


def _public_names() -> dict[str, str]:
    """Qualified name -> bare name of every public library definition."""
    names = {}
    for path in sorted((ROOT / "src" / "workbot").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            names[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                names.update(
                    (f"{path.stem}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_"))
    return names


def _referenced() -> set[str]:
    """Every name that src/ and benchmarks/ use in code."""
    found = set()
    for folder in ("src", "benchmarks"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    found.add(node.id)
                elif isinstance(node, ast.Attribute):
                    found.add(node.attr)
                elif isinstance(node, ast.alias):
                    found.add(node.asname or node.name.rsplit(".", 1)[-1])
    return found


def test_every_public_name_has_a_caller_or_a_reason():
    referenced = _referenced()
    uncalled = sorted(qual for qual, name in _public_names().items()
                      if name not in referenced and qual not in UNCALLED)
    assert not uncalled, f"no caller in src/ or benchmarks/: {uncalled}"


def test_every_allowlisted_name_exists():
    gone = sorted(UNCALLED.keys() - _public_names().keys())
    assert not gone, f"allowlisted but no longer defined: {gone}"
