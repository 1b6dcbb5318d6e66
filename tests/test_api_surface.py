"""Every public library name has a caller, and every default is overridden.

A public top-level function or class ``m.f`` of ``src/workbot`` must be
referenced somewhere in ``src/`` or ``benchmarks/`` through its module: by
an import of ``f`` from ``m``, as an attribute ``f`` of a name bound to
module ``m``, or as a bare name ``f`` inside ``m`` itself.  A same-named
function of another module (``benchmarks/workcell/oracles.py`` has an
``fk`` of its own) does not count for it.  A public method or property of
a public class must be referenced as an ``Attribute``, so a local variable
or function of the same name does not count for it.  Strings, comments and
the tests do not count.  The names in ``UNCALLED`` are the only exceptions,
each with the reason it stays.

A parameter with a default, of a public function, method or ``__init__``,
must be passed, by keyword or by position, by some call in ``src/`` or
``benchmarks/`` of that name (of the class, for ``__init__``); methods again
count only as attributes.  A value that no caller sets is a module constant.
The parameters of the names in ``UNCALLED`` and those in ``PARAMS`` are the
only exceptions.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

UNCALLED = {
    "pddl.validate": "criterion 09 checks every plan with it",
    "pddl.print_domain": "criterion 09's print/parse fixpoint",
    "pddl.print_problem": "criterion 09's print/parse fixpoint",
    "dwa.save_pgm": "writes the map fixtures of the DWA and CLI tests",
    "rtt.change_trigger":
        "background change detection, a paper feature the README names",
    "grasping.grasp_monitor":
        "gripper feedback, a paper feature the README names",
}

PARAMS = {
    "rtt.estimate_motion.center_hint": "acceptance criterion 04 passes it",
    "rtt.predict_arrival.lead": "acceptance criterion 04 passes it",
    "cli.main.argv": "the console entry calls main() to read sys.argv",
}


def _definitions():
    """(qualified name, bare name, is a method, node) of every public
    library function, class and method, and of each public class's
    ``__init__``, whose bare name is the class's."""
    for path in sorted((ROOT / "src" / "workbot").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            qual = f"{path.stem}.{node.name}"
            yield qual, node.name, False, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if item.name == "__init__":
                        yield f"{qual}.__init__", node.name, False, item
                    elif not item.name.startswith("_"):
                        yield f"{qual}.{item.name}", item.name, True, item


def _public_names() -> dict[str, tuple[str, bool]]:
    """Qualified name -> (bare name, is a method) of every public library
    definition."""
    return {qual: (name, method)
            for qual, name, method, _ in _definitions()
            if not qual.endswith(".__init__")}


LIBRARY = ROOT / "src" / "workbot"


def _trees():
    for folder in ("src", "benchmarks"):
        for path in (ROOT / folder).rglob("*.py"):
            yield path, ast.parse(path.read_text())


def _code():
    for _, tree in _trees():
        yield from ast.walk(tree)


def _imported_module(node: ast.ImportFrom, path: Path) -> str | None:
    """The library module an ``from ... import`` reads from: its stem, ""
    for the package itself, None for any other module."""
    if node.level == 1 and path.parent == LIBRARY:
        return node.module or ""
    if node.level == 0 and node.module == "workbot":
        return ""
    if node.level == 0 and (node.module or "").startswith("workbot."):
        return node.module.split(".")[1]
    return None


def _module_references() -> set[str]:
    """"m.f" for each name f that src/ and benchmarks/ reach through
    library module m: imported from m, an attribute of a name bound to m
    (``workbot.m`` included), or a bare name inside m."""
    found = set()
    for path, tree in _trees():
        # local name -> the library module it is bound to, "" the package
        bound: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = _imported_module(node, path)
                if source is None:
                    continue
                for alias in node.names:
                    if source:
                        found.add(f"{source}.{alias.name}")
                    else:
                        bound[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] != "workbot":
                        continue
                    if alias.asname:
                        bound[alias.asname] = ".".join(parts[1:2])
                    else:
                        bound["workbot"] = ""
        here = path.stem if path.parent == LIBRARY else None
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                owner = node.value
                if isinstance(owner, ast.Name):
                    module = bound.get(owner.id)
                elif (isinstance(owner, ast.Attribute)
                      and isinstance(owner.value, ast.Name)
                      and bound.get(owner.value.id) == ""):
                    module = owner.attr
                else:
                    module = None
                if module:
                    found.add(f"{module}.{node.attr}")
            elif isinstance(node, ast.Name) and here:
                found.add(f"{here}.{node.id}")
    return found


def _referenced() -> set[str]:
    """Every name that src/ and benchmarks/ use in code as an Attribute."""
    return {node.attr for node in _code() if isinstance(node, ast.Attribute)}


def _defaulted() -> dict[str, tuple[str, bool, int | None, str]]:
    """Qualified parameter name -> (bare callee name, is a method, index
    among the arguments a call passes by position or None, parameter name)
    of every parameter with a default."""
    out = {}
    for qual, name, method, node in _definitions():
        if isinstance(node, ast.ClassDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        # a method's call supplies self (or cls) itself; a staticmethod has none
        bound = int(qual.count(".") == 2 and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list))
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            out[f"{qual}.{arg.arg}"] = (name, method, i - bound, arg.arg)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                out[f"{qual}.{arg.arg}"] = (name, method, None, arg.arg)
    return out


def _calls() -> dict[tuple[str, bool], list[tuple[int, set[str]]]]:
    """(callee name, called as an Attribute) -> (number of leading
    positional arguments, keyword names) of each call in src/ and
    benchmarks/; ``*args`` and ``**kwargs`` pass nothing by name."""
    found: dict[tuple[str, bool], list[tuple[int, set[str]]]] = {}
    for node in _code():
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            key = (node.func.id, False)
        elif isinstance(node.func, ast.Attribute):
            key = (node.func.attr, True)
        else:
            continue
        starred = [isinstance(a, ast.Starred) for a in node.args] + [True]
        found.setdefault(key, []).append(
            (starred.index(True), {k.arg for k in node.keywords}))
    return found


def _exempt(qual_param: str) -> bool:
    owner = qual_param.rsplit(".", 1)[0].removesuffix(".__init__")
    return qual_param in PARAMS or owner in UNCALLED


def test_every_public_name_has_a_caller_or_a_reason():
    modules, attributes = _module_references(), _referenced()
    uncalled = sorted(qual for qual, (name, method) in _public_names().items()
                      if (name not in attributes if method
                          else qual not in modules)
                      and qual not in UNCALLED)
    assert not uncalled, f"no caller in src/ or benchmarks/: {uncalled}"


def test_every_default_is_overridden_by_a_caller_or_a_reason():
    calls = _calls()
    never = []
    for qual, (name, method, index, param) in sorted(_defaulted().items()):
        seen = calls.get((name, True), []) + (
            [] if method else calls.get((name, False), []))
        if not _exempt(qual) and not any(
                param in keywords or (index is not None and n > index)
                for n, keywords in seen):
            never.append(qual)
    assert not never, f"no call in src/ or benchmarks/ passes: {never}"


def test_every_allowlisted_name_exists():
    gone = sorted(UNCALLED.keys() - _public_names().keys())
    assert not gone, f"allowlisted but no longer defined: {gone}"
    gone = sorted(PARAMS.keys() - _defaulted().keys())
    assert not gone, f"allowlisted but no longer a defaulted parameter: {gone}"
