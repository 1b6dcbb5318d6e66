"""The declared dependency floors are the versions CI installs.

Every pinned digest was recorded with the interpreter and the numpy and
scipy versions that CI installs, and no job runs an older one, so the
floors in ``pyproject.toml`` are those versions: ``requires-python`` is the
workflow's ``python-version``, and each runtime dependency's floor is its
pin in ``.github/constraints.txt``.
"""

import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _pins() -> dict[str, str]:
    pins = {}
    for line in (ROOT / ".github" / "constraints.txt").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            name, version = line.split("==")
            pins[name.strip().lower()] = version.strip()
    return pins


def test_runtime_floors_are_the_pinned_versions():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    floors = {}
    for requirement in project["dependencies"]:
        match = re.fullmatch(r"([A-Za-z0-9_.-]+)\s*>=\s*([^\s,;]+)",
                             requirement)
        assert match, f"not a single >= floor: {requirement!r}"
        floors[match[1].lower()] = match[2]
    pins = _pins()
    assert {name: pins.get(name) for name in floors} == floors


def test_python_floor_is_the_ci_interpreter():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    versions = re.findall(r"python-version:\s*[\"']?([0-9.]+)", workflow)
    assert len(versions) == 1, versions
    assert project["requires-python"] == f">={versions[0]}"
