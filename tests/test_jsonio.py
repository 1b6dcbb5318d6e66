"""The shared JSON decoder: field typing, error wording, and a fuzz of every
bundled JSON input through its loader."""

import dataclasses
import json
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from workbot import cli, dwa, execution, kinematics, sim
from workbot.cloud import PerceptionConfig
from workbot.errors import WorkbotError
from workbot.jsonio import decode, load_json

DATA = Path("src/workbot/data")


@dataclass(frozen=True)
class Inner:
    name: str
    weight: float = 1.0


@dataclass(frozen=True)
class Outer:
    count: int
    span: tuple[float, float]
    tags: tuple[str, ...] = ()
    atoms: frozenset[tuple[str, ...]] = frozenset()
    limit: float | None = None
    parts: tuple[Inner, ...] = ()

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count cannot be negative")


def test_decode_builds_typed_fields():
    obj = decode(Outer, {"count": 3.0, "span": [0, 1.5], "tags": ["a", "b"],
                         "atoms": [["at", "x"], ["at", "x"]], "limit": None,
                         "parts": [{"name": "p"}], "extra": [1]},
                "f.json")
    assert obj == Outer(count=3, span=(0.0, 1.5), tags=("a", "b"),
                        atoms=frozenset({("at", "x")}),
                        parts=(Inner("p"),))
    assert type(obj.count) is int and type(obj.span[0]) is float


def test_decode_missing_key_takes_default_or_is_checked_as_none():
    assert decode(Outer, {"count": 0, "span": [0, 0]}, "f.json").tags == ()
    with pytest.raises(ValueError) as exc:
        decode(Outer, {"count": 0}, "f.json")
    assert str(exc.value) == ("f.json: 'span' must be a list of 2 values, "
                              "got None")


@pytest.mark.parametrize("patch, message", [
    ({"count": True}, "'count' must be a whole number, got True"),
    ({"count": 1.5}, "'count' must be a whole number, got 1.5"),
    ({"count": "1"}, "'count' must be a whole number, got '1'"),
    ({"span": [0, float("nan")]},
     "'span[1]' must be a finite number, got nan"),
    ({"span": [0, 10 ** 400]},
     f"'span[1]' must be a finite number, got {10 ** 400!r}"),
    ({"span": [0, False]}, "'span[1]' must be a finite number, got False"),
    ({"span": {"x": 0}}, "'span' must be a list of 2 values, got {'x': 0}"),
    ({"tags": "ab"}, "'tags' must be a list, got 'ab'"),
    ({"tags": ["a", 1]}, "'tags[1]' must be a string, got 1"),
    ({"atoms": [["at"], "x"]}, "'atoms[1]' must be a list, got 'x'"),
    ({"atoms": [[["at"]]]}, "'atoms[0][0]' must be a string, got ['at']"),
    ({"limit": "inf"}, "'limit' must be a finite number, got 'inf'"),
    ({"parts": [{"name": "p"}, 5]},
     "'parts[1]' must be a JSON object, got 5"),
    ({"parts": [{"name": 5}]}, "parts[0]: 'name' must be a string, got 5"),
    ({"count": -1}, "count cannot be negative"),
])
def test_decode_errors_name_the_key_and_the_value(patch, message):
    obj = {"count": 1, "span": [0, 1]} | patch
    with pytest.raises(ValueError) as exc:
        decode(Outer, obj, "f.json")
    assert str(exc.value) == f"f.json: {message}"


def test_decode_rejects_a_non_object():
    with pytest.raises(ValueError, match=r"^row 2: expected a JSON object, "
                                         r"got \[1\]$"):
        decode(Inner, [1], "row 2")


@pytest.mark.parametrize("text, expected, message", [
    ("[1]", dict, "expected a JSON object"),
    ('{"a": 1}', list, "expected a JSON array"),
    ("{nope", dict, "Expecting property name"),
    ('{"a": {"b": 1, "b": 1}}', dict, "key 'b' appears twice in one object"),
    ('[{"a": 1}, {"a": 1, "a": 2}]', list,
     "key 'a' appears twice in one object"),
])
def test_load_json_names_the_file(tmp_path, text, expected, message):
    path = tmp_path / "in.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="^" + str(path) + ": " + message):
        load_json(path, expected)


# --- fuzz: one value of a bundled input replaced by arbitrary JSON ----------

def _decode_file(cls):
    return lambda path: decode(cls, load_json(path), str(path))


def _load_pgm(path):
    return dwa.load_pgm(path.with_suffix(".pgm"))


def _bundled(name):
    return json.loads((DATA / name).read_text())


def _as_json(obj):
    return json.loads(json.dumps(obj))


INPUTS = {
    "workstation.json": (_bundled("workstation.json"), sim.load_scenario),
    "rtt.json": (_bundled("rtt.json"), sim.load_scenario),
    "chain_5dof.json": (_bundled("chain_5dof.json"), kinematics.load_chain),
    "bindings.json": (_bundled("bindings.json"),
                      lambda path: execution.load_bindings(load_json(path))),
    "grasp_object.json": (_bundled("grasp_object.json"),
                          _decode_file(cli._GraspObject)),
    "cluttered.json": (_bundled("cluttered.json"), _load_pgm),
    "perception config": (_as_json(dataclasses.asdict(PerceptionConfig(
        passthrough=("z", 0.5, 1.0)))), _decode_file(PerceptionConfig)),
    "dwa config": (_as_json(dataclasses.asdict(dwa.DWAConfig())),
                   _decode_file(dwa.DWAConfig)),
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=8)


def _paths(doc, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    shutil.copy(DATA / "cluttered.pgm", folder / "cluttered.pgm")
    return folder


def _input_path(folder, name):
    # the PGM loader finds its sidecar next to the map
    return folder / ("cluttered.json" if name == "cluttered.json"
                     else "input.json")


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_bundled_inputs_load(fuzz_dir, name):
    doc, loader = INPUTS[name]
    path = _input_path(fuzz_dir, name)
    path.write_text(json.dumps(doc))
    loader(path)


def _repeat_first_key(doc) -> str:
    """``doc`` as JSON text whose first object lists its first key twice."""
    if isinstance(doc, list):
        rows = [_repeat_first_key(doc[0])] + [json.dumps(v) for v in doc[1:]]
        return "[" + ", ".join(rows) + "]"
    key, value = next(iter(doc.items()))
    return f"{{{json.dumps(key)}: {json.dumps(value)}, " + json.dumps(doc)[1:]


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_every_input_rejects_a_repeated_key(fuzz_dir, name):
    doc, loader = INPUTS[name]
    path = _input_path(fuzz_dir, name)
    path.write_text(_repeat_first_key(doc))
    with pytest.raises(ValueError) as exc:
        loader(path)
    assert re.fullmatch(f"{re.escape(str(path))}: key '[^']+' appears twice "
                        f"in one object", str(exc.value))


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_loaders_raise_only_pipeline_errors(fuzz_dir, name):
    doc, loader = INPUTS[name]
    path = _input_path(fuzz_dir, name)

    @settings(max_examples=60, deadline=None)
    @given(where=st.sampled_from(list(_paths(doc))), value=JSON_VALUES)
    def check(where, value):
        path.write_text(json.dumps(_replaced(doc, where, value)))
        try:
            loader(path)
        except (ValueError, WorkbotError):
            pass

    check()
