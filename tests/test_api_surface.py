"""Every public library name has a caller, and every default is both
overridden and used.

A public top-level function or class ``m.f`` of ``src/workbot`` must be
referenced somewhere in ``src/`` or ``benchmarks/`` through its module: by
an import of ``f`` from ``m``, as an attribute ``f`` of a name bound to
module ``m``, or as a bare name ``f`` inside ``m`` itself.  A same-named
function of another module (``benchmarks/workcell/oracles.py`` has an
``fk`` of its own) does not count for it.  A public method or property of
a public class must be referenced as an ``Attribute``, so a local variable
or function of the same name does not count for it.  Strings, comments and
the tests do not count, and there is no exception: code that only the
tests run lives in the tests.

A parameter with a default, of a public function, method or ``__init__``,
must be passed, by keyword or by position, by some call in ``src/`` or
``benchmarks/`` of that name (of the class, for ``__init__``); methods again
count only as attributes.  A value that no caller sets is a module constant.
The parameters in ``PARAMS``, each with the reason it stays, are the only
exceptions.  The mirror rule has none: some such call must also leave the
parameter unset, or the default is a second copy of a value that every
caller already holds, and the parameter is required.

``Recorder.clock(kind, fn, *args, expected=..., **kw)``, ``Recorder.call(
kind, fn, *args)`` and ``jsonio.construct(fn, where, **kw)`` forward their
arguments, so each also counts as a call of ``fn`` with them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

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


# forwarder (name, called as an Attribute) -> (position of the callee among
# its arguments, whether it forwards the positional arguments after it,
# keywords it keeps for itself or None if it forwards none)
FORWARDERS = {
    ("clock", True): (1, True, {"expected"}),       # Recorder.clock
    ("call", True): (1, True, None),                # Recorder.call
    ("construct", False): (0, False, set()),        # jsonio.construct
}


def _callee(func) -> tuple[str, bool] | None:
    if isinstance(func, ast.Name):
        return func.id, False
    if isinstance(func, ast.Attribute):
        return func.attr, True
    return None


def _calls() -> dict[tuple[str, bool], list[tuple[int, set, bool]]]:
    """(callee name, called as an Attribute) -> (number of leading
    positional arguments, keyword names, whether ``*args`` or ``**kwargs``
    may pass more) of each call in src/ and benchmarks/, a forwarded call
    included."""
    found: dict[tuple[str, bool], list[tuple[int, set, bool]]] = {}

    def add(key, args, keywords):
        starred = [isinstance(a, ast.Starred) for a in args] + [True]
        n = starred.index(True)
        names = {k.arg for k in keywords}
        found.setdefault(key, []).append(
            (n, names - {None}, n < len(args) or None in names))

    for node in _code():
        if not isinstance(node, ast.Call):
            continue
        key = _callee(node.func)
        if key is None:
            continue
        add(key, node.args, node.keywords)
        if key not in FORWARDERS:
            continue
        at, positional, kept = FORWARDERS[key]
        if at >= len(node.args) or isinstance(node.args[at], ast.Starred):
            continue
        inner = _callee(node.args[at])
        if inner is not None:
            add(inner, node.args[at + 1:] if positional else [],
                [] if kept is None else
                [k for k in node.keywords if k.arg not in kept])
    return found


def _callers(calls, name: str, method: bool):
    return calls.get((name, True), []) + (
        [] if method else calls.get((name, False), []))


def test_every_public_name_has_a_caller_or_a_reason():
    modules, attributes = _module_references(), _referenced()
    uncalled = sorted(qual for qual, (name, method) in _public_names().items()
                      if (name not in attributes if method
                          else qual not in modules))
    assert not uncalled, f"no caller in src/ or benchmarks/: {uncalled}"


def test_every_default_is_overridden_by_a_caller_or_a_reason():
    calls = _calls()
    never = []
    for qual, (name, method, index, param) in sorted(_defaulted().items()):
        if qual not in PARAMS and not any(
                param in keywords or (index is not None and n > index)
                for n, keywords, _ in _callers(calls, name, method)):
            never.append(qual)
    assert not never, f"no call in src/ or benchmarks/ passes: {never}"


def test_every_default_is_used_by_a_caller():
    calls = _calls()
    always = []
    for qual, (name, method, index, param) in sorted(_defaulted().items()):
        if not any(not spread and param not in keywords
                   and (index is None or n <= index)
                   for n, keywords, spread in _callers(calls, name, method)):
            always.append(qual)
    assert not always, (f"every call in src/ and benchmarks/ passes these, "
                        f"so they need no default: {always}")


def test_every_allowlisted_name_exists():
    gone = sorted(PARAMS.keys() - _defaulted().keys())
    assert not gone, f"allowlisted but no longer a defaulted parameter: {gone}"
