"""Typed STRIPS planning with additive action costs.

Covers a deliberately small PDDL subset: :strips, :typing,
:negative-preconditions and :action-costs with a single total-cost fluent.
Costs may reference static numeric functions whose values come from the
problem init.  ``plan`` grounds a problem, compiles it with ``compile_task``
and ``search``es it, cost-optimal (uniform-cost) or greedy on a goal-count
heuristic; ties break on ground action names, so plans are stable.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from dataclasses import dataclass
from types import MappingProxyType

from .errors import WorkbotError

SUPPORTED_REQUIREMENTS = frozenset(
    {":strips", ":typing", ":negative-preconditions", ":action-costs"})

ROOT_TYPE = "object"
TOTAL_COST = "total-cost"

Atom = tuple[str, ...]


class PddlError(WorkbotError):
    pass


class PddlSyntaxError(PddlError):
    pass


class UnsupportedRequirement(PddlError):
    def __init__(self, where: str, requirement: str):
        super().__init__(f"{where}: unsupported requirement: {requirement}")
        self.requirement = requirement


class ArityMismatch(PddlError):
    pass


class UnknownType(PddlError):
    pass


class UnknownPredicate(PddlError):
    pass


class UndeclaredObject(PddlError):
    pass


class UndefinedFunctionValue(PddlError):
    pass


class NegativeCost(PddlError):
    pass


class Unsolvable(PddlError):
    pass


# --- tokenizer / reader ------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    col: int


_TOKEN = re.compile(r"[()]|[^\s()]+")


def _tokenize(text: str) -> list[_Token]:
    """Parentheses and symbols (lower-cased); `;` comments run to the end of
    the line.  Lines and columns count from 1."""
    return [_Token(m[0].lower(), lineno, m.start() + 1)
            for lineno, line in enumerate(text.splitlines(), start=1)
            for m in _TOKEN.finditer(line.split(";", 1)[0])]


def _parse_tree(tokens: list[_Token], path: str):
    """Nested lists with _Token leaves; the list carries its '(' token first."""
    if not tokens:
        raise PddlSyntaxError(f"{path}: unexpected end of input")
    open_lists: list[list] = []
    for i, tok in enumerate(tokens):
        if tok.text == "(":
            open_lists.append([tok])
            continue
        if tok.text != ")":
            node = tok
        elif open_lists:
            node = open_lists.pop()
        else:
            _fail(tok, path, "unmatched ')'")
        if open_lists:
            open_lists[-1].append(node)
        elif i + 1 < len(tokens):
            _fail(tokens[i + 1], path, "trailing input after top-level form")
        else:
            return node
    _fail(open_lists[-1], path, "unclosed parenthesis")


def _where(node, path: str) -> str:
    tok = node[0] if isinstance(node, list) else node
    return f"{path}:{tok.line}:{tok.col}"


def _fail(node, path: str, msg: str, err=PddlSyntaxError):
    raise err(f"{_where(node, path)}: {msg}")


def _sym(node, path: str) -> str:
    if isinstance(node, list):
        _fail(node, path, "expected a symbol, found a list")
    return node.text


def _items(node, path: str) -> list:
    if not isinstance(node, list):
        _fail(node, path, "expected a parenthesized list")
    return node[1:]


def _head(node, path: str) -> str | None:
    """The leading symbol of a list, or None for ()."""
    parts = _items(node, path)
    return _sym(parts[0], path) if parts else None


def _call(node, path: str) -> list:
    """Items of a `(name arg ...)` form: a declaration or a term."""
    parts = _items(node, path)
    if not parts:
        _fail(node, path, "expected (name ...), found ()")
    return parts


# --- domain model ------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    name: str
    args: tuple[str, ...]
    positive: bool = True

    def atom(self) -> Atom:
        return (self.name,) + self.args


@dataclass(frozen=True)
class ActionSchema:
    name: str
    params: tuple[tuple[str, str], ...]          # (?var, type)
    precondition: tuple[Literal, ...]
    add: tuple[Literal, ...]
    delete: tuple[Literal, ...]
    cost_constant: float
    cost_terms: tuple[tuple[str, tuple[str, ...]], ...]


@dataclass(frozen=True)
class DomainDef:
    name: str
    requirements: frozenset[str]
    types: tuple[tuple[str, str], ...]           # (type, parent), no root entry
    predicates: tuple[tuple[str, tuple[str, ...]], ...]
    functions: tuple[tuple[str, tuple[str, ...]], ...]
    constants: tuple[tuple[str, str], ...]
    actions: tuple[ActionSchema, ...]

    def type_parents(self) -> dict[str, str]:
        return dict(self.types)


@dataclass(frozen=True)
class ProblemDef:
    """A parsed problem.  ``goal`` keeps its atoms in the order they are
    listed; a repeated atom means the same as one listing."""
    name: str
    domain_name: str
    objects: tuple[tuple[str, str], ...]
    init: frozenset[Atom]
    function_values: tuple[tuple[tuple[str, tuple[str, ...]], float], ...]
    goal: tuple[Atom, ...]
    metric: bool

    def function_map(self) -> dict[tuple[str, tuple[str, ...]], float]:
        return dict(self.function_values)


@dataclass(frozen=True)
class GroundAction:
    name: str                                    # "(move youbot a b)"
    pre_pos: frozenset[Atom]
    pre_neg: frozenset[Atom]
    add: frozenset[Atom]
    delete: frozenset[Atom]
    cost: float

    def apply(self, state: frozenset[Atom]) -> frozenset[Atom]:
        return (state - self.delete) | self.add


@dataclass(frozen=True)
class Plan:
    """A plan and what its search cost: `expanded` counts the states whose
    successors were generated, `generated` the successors of those states,
    duplicates included."""
    actions: tuple[GroundAction, ...]
    cost: float
    expanded: int = 0
    generated: int = 0

    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.actions)


# --- shared readers ----------------------------------------------------------

# (objects, variables): each maps a declared name to its type
_Scope = tuple[dict[str, str], dict[str, str] | None]


def _define(text: str, path: str, kind: str):
    """Read `(define (<kind> <name>) (<key> ...) ...)` into the root node,
    the name and the sections, each as (key, node, rest of the section)."""
    tree = _parse_tree(_tokenize(text), path)
    items = _items(tree, path)
    if len(items) < 2 or _sym(items[0], path) != "define":
        _fail(tree, path, f"expected (define ({kind} ...) ...)")
    head = _items(items[1], path)
    if len(head) != 2 or _sym(head[0], path) != kind:
        _fail(items[1], path, f"expected ({kind} <name>)")
    return tree, _sym(head[1], path), _sections(items[2:], path, kind)


def _sections(nodes: list, path: str, kind: str):
    """Sections are checked as the caller reaches them, so that errors come
    in file order."""
    for node in nodes:
        body = _items(node, path)
        if not body:
            _fail(node, path, f"empty {kind} section")
        yield _sym(body[0], path), node, body[1:]


def _declare(table: dict, name: str, value, node, path: str,
             what: str) -> None:
    """Add `name -> value` to `table`, one name space of a domain or
    problem; a name already in it is an error at `node`."""
    if name in table:
        _fail(node, path, f"{what} declared twice: {name}")
    table[name] = value


def _require(declared: frozenset[str], requirement: str, node, path: str,
             what: str) -> None:
    """A domain uses `what` at `node`, which it may only with `requirement`
    among its `declared` requirements."""
    if requirement not in declared:
        _fail(node, path, f"{what} needs requirement {requirement}")


def _typed_list(nodes: list, path: str,
                declared: frozenset[str] = SUPPORTED_REQUIREMENTS
                ) -> list[tuple[str, str]]:
    """Parse `a b - t c - u d` into [(a,t),(b,t),(c,u),(d,object)].  A
    `- <type>` needs :typing among the `declared` requirements; a `:types`
    section, which needs :typing itself, passes none."""
    out: list[tuple[str, str]] = []
    pending: list[str] = []
    i = 0
    while i < len(nodes):
        text = _sym(nodes[i], path)
        if text == "-":
            _require(declared, ":typing", nodes[i], path, "typed list")
            if i + 1 >= len(nodes):
                _fail(nodes[i], path, "dangling '-' in typed list")
            if not pending:
                _fail(nodes[i], path, "type given without names")
            ty = _sym(nodes[i + 1], path)
            out.extend((name, ty) for name in pending)
            pending = []
            i += 2
        else:
            pending.append(text)
            i += 1
    out.extend((name, ROOT_TYPE) for name in pending)
    return out


def _typed(nodes: list, node, path: str, types: dict[str, str | None],
           declared: frozenset[str]) -> list[tuple[str, str]]:
    """A typed list whose every type is declared; errors point at `node`."""
    pairs = _typed_list(nodes, path, declared)
    for _, ty in pairs:
        if ty not in types:
            _fail(node, path, f"unknown type: {ty}", UnknownType)
    return pairs


def _type_section(nodes: list, node, path: str,
                  types: dict[str, str | None]) -> None:
    """Add a `:types` section to `types` (type -> parent).  A parent may be
    declared after its subtypes, so parents are checked once the section is
    read; a type that is its own ancestor is an error."""
    section = _typed_list(nodes, path)
    for ty, parent in section:
        _declare(types, ty, parent, node, path, "type")
    for start, _ in section:
        seen, ty = set(), start
        while ty is not None:
            if ty not in types:
                _fail(node, path, f"unknown parent type: {ty}", UnknownType)
            if ty in seen:
                _fail(node, path, f"type hierarchy has a cycle: {start}")
            seen.add(ty)
            ty = types[ty]


def _declarations(nodes: list, path: str, types: dict[str, str | None],
                  table: dict[str, tuple[str, ...]], what: str,
                  declared: frozenset[str]) -> None:
    """Declare each `(name ?a - t ...)` in `table` as name -> parameter
    types."""
    for decl in nodes:
        parts = _call(decl, path)
        name = _sym(parts[0], path)
        params = _typed(parts[1:], decl, path, types, declared)
        _declare(table, name, tuple(ty for _, ty in params), decl, path, what)


def _term(node, path: str, arity: dict[str, tuple[str, ...]], what: str,
          scope: _Scope) -> tuple[str, tuple[str, ...]]:
    """Name and arguments of a `(name arg ...)` term.  The name must be a
    declared `what` ("predicate" or "function") with that many arguments.
    `scope` is (objects, variables): a variable must be one of `variables`,
    which is None in a problem, where no variable is allowed; any other
    argument must be a declared constant or object."""
    parts = _call(node, path)
    name = _sym(parts[0], path)
    if name not in arity:
        _fail(node, path, f"unknown {what}: {name}", UnknownPredicate)
    args = tuple(_sym(p, path) for p in parts[1:])
    if len(args) != len(arity[name]):
        _fail(node, path, f"{name} expects {len(arity[name])} arguments, "
                          f"got {len(args)}", ArityMismatch)
    objects, variables = scope
    for arg in args:
        if not arg.startswith("?"):
            if arg not in objects:
                _fail(node, path, f"undeclared object: {arg}",
                      UndeclaredObject)
        elif variables is None:
            _fail(node, path, f"variables not allowed here: {arg}")
        elif arg not in variables:
            _fail(node, path, f"unbound variable: {arg}")
    return name, args


def _literal(node, path: str, predicates: dict[str, tuple[str, ...]],
             scope: _Scope) -> Literal:
    """`(p arg ...)` or `(not (p arg ...))`."""
    if _head(node, path) != "not":
        return Literal(*_term(node, path, predicates, "predicate", scope))
    parts = _items(node, path)
    if len(parts) != 2:
        _fail(node, path, "(not ...) takes exactly one literal")
    if _head(parts[1], path) == "not":
        _fail(node, path, "double negation is not supported")
    return Literal(*_term(parts[1], path, predicates, "predicate", scope),
                   positive=False)


def _conjuncts(node, path: str) -> list:
    """The parts of `(and ...)`, or the one node itself."""
    return _items(node, path)[1:] if _head(node, path) == "and" else [node]


def _number(node, path: str) -> float:
    """A finite number: NaN and infinities have no meaning as a cost."""
    text = _sym(node, path)
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        _fail(node, path, f"expected a finite number: {text}")
    return value


# --- domain parsing ----------------------------------------------------------

def _declared_requirements(tree) -> frozenset[str]:
    """The symbols of every `(:requirements ...)` section, read ahead of
    the loop over sections because a section may use a requirement that a
    later one declares; the loop still checks each requirement in place."""
    return frozenset(item.text for node in tree[3:]
                     if isinstance(node, list) and len(node) > 1
                     and not isinstance(node[1], list)
                     and node[1].text == ":requirements"
                     for item in node[2:] if not isinstance(item, list))


def parse_domain(text: str, path: str = "<domain>") -> DomainDef:
    """A domain definition.  A part that needs a requirement the domain does
    not declare is a located PddlSyntaxError: `:types` and `- <type>` need
    :typing, a `(not ...)` precondition :negative-preconditions, and
    `:functions` and `increase` :action-costs."""
    tree, name, sections = _define(text, path, "domain")
    declared = _declared_requirements(tree)
    requirements: set[str] = set()
    types: dict[str, str | None] = {ROOT_TYPE: None}
    constants: dict[str, str] = {}
    predicates: dict[str, tuple[str, ...]] = {}
    functions: dict[str, tuple[str, ...]] = {}
    actions: dict[str, ActionSchema] = {}

    for key, node, rest in sections:
        if key == ":requirements":
            for req_node in rest:
                req = _sym(req_node, path)
                if req not in SUPPORTED_REQUIREMENTS:
                    raise UnsupportedRequirement(_where(req_node, path),
                                                 req.lstrip(":"))
                requirements.add(req)
        elif key == ":types":
            _require(declared, ":typing", node, path, ":types section")
            _type_section(rest, node, path, types)
        elif key == ":constants":
            for obj, ty in _typed(rest, node, path, types, declared):
                _declare(constants, obj, ty, node, path, "object")
        elif key == ":predicates":
            _declarations(rest, path, types, predicates, "predicate",
                          declared)
        elif key == ":functions":
            _require(declared, ":action-costs", node, path,
                     ":functions section")
            _declarations(rest, path, types, functions, "function", declared)
        elif key == ":action":
            schema = _action(node, rest, path, types, predicates, functions,
                             constants, declared)
            _declare(actions, schema.name, schema, node, path, "action")
        else:
            _fail(node, path, f"unknown domain section: {key}")

    if functions.get(TOTAL_COST, ()) != ():
        _fail(tree, path, f"{TOTAL_COST} must take no arguments",
              ArityMismatch)
    return DomainDef(name=name, requirements=frozenset(requirements),
                     types=tuple(types.items())[1:],
                     predicates=tuple(predicates.items()),
                     functions=tuple(functions.items()),
                     constants=tuple(constants.items()),
                     actions=tuple(actions.values()))


def _action(node, rest: list, path: str, types: dict[str, str | None],
            predicates: dict[str, tuple[str, ...]],
            functions: dict[str, tuple[str, ...]],
            constants: dict[str, str],
            declared: frozenset[str]) -> ActionSchema:
    if not rest:
        _fail(node, path, ":action needs a name")
    name = _sym(rest[0], path)
    keys: dict[str, object] = {}
    for i in range(1, len(rest), 2):
        key = _sym(rest[i], path)
        if i + 1 >= len(rest):
            _fail(rest[i], path, f"{key} needs a value")
        if key not in (":parameters", ":precondition", ":effect"):
            _fail(rest[i], path, f"unknown action section: {key}")
        _declare(keys, key, rest[i + 1], rest[i], path, "action section")

    params: dict[str, str] = {}
    if ":parameters" in keys:
        value = keys[":parameters"]
        for var, ty in _typed(_items(value, path), value, path, types,
                              declared):
            if not var.startswith("?"):
                _fail(value, path, f"parameter must start with '?': {var}")
            _declare(params, var, ty, value, path, "parameter")
    scope: _Scope = (constants, params)

    def conjuncts(key: str) -> list:
        return _conjuncts(keys[key], path) if key in keys else []

    precondition = []
    for part in conjuncts(":precondition"):
        lit = _literal(part, path, predicates, scope)
        if not lit.positive:
            _require(declared, ":negative-preconditions", part, path,
                      "negative precondition")
        precondition.append(lit)
    adds: list[Literal] = []
    deletes: list[Literal] = []
    cost_constant = 0.0
    cost_terms: list[tuple[str, tuple[str, ...]]] = []
    for eff in conjuncts(":effect"):
        if _head(eff, path) == "increase":
            _require(declared, ":action-costs", eff, path, "increase effect")
            constant, terms = _increase(eff, path, functions, scope)
            cost_constant += constant
            cost_terms += terms
            continue
        lit = _literal(eff, path, predicates, scope)
        (adds if lit.positive else deletes).append(Literal(lit.name, lit.args))

    return ActionSchema(name=name, params=tuple(params.items()),
                        precondition=tuple(precondition),
                        add=tuple(adds), delete=tuple(deletes),
                        cost_constant=cost_constant,
                        cost_terms=tuple(cost_terms))


def _increase(node, path: str, functions: dict[str, tuple[str, ...]],
              scope: _Scope):
    """What `(increase (total-cost) <expr>)` adds: a non-negative constant
    and a list of function terms, one of which is empty."""
    parts = _items(node, path)
    if len(parts) != 3:
        _fail(node, path, "(increase (total-cost) <expr>) expected")
    target = _items(parts[1], path)
    if len(target) != 1 or _sym(target[0], path) != TOTAL_COST:
        _fail(parts[1], path, f"only ({TOTAL_COST}) may be increased")
    if isinstance(parts[2], list):
        return 0.0, [_term(parts[2], path, functions, "function", scope)]
    value = _number(parts[2], path)
    if value < 0:
        _fail(parts[2], path, f"action cost must be non-negative: "
                              f"{_sym(parts[2], path)}", NegativeCost)
    return value, []


# --- problem parsing ---------------------------------------------------------

def parse_problem(text: str, domain: DomainDef,
                  path: str = "<problem>") -> ProblemDef:
    tree, name, sections = _define(text, path, "problem")
    predicates = dict(domain.predicates)
    functions = dict(domain.functions)
    types: dict[str, str | None] = {ROOT_TYPE: None, **domain.type_parents()}
    domain_name = ""
    objects = dict(domain.constants)    # then the problem's :objects
    scope: _Scope = (objects, None)
    init: set[Atom] = set()
    fn_values: dict[str, tuple] = {}    # "(fn args)" -> ((fn, args), value)
    goal: list[Atom] = []
    once: dict[str, object] = {}        # sections a problem has at most once
    metric = False

    for key, node, rest in sections:
        if key == ":domain":
            if len(rest) != 1:
                _fail(node, path, "(:domain <name>) expected")
            domain_name = _sym(rest[0], path)
            if domain_name != domain.name:
                _fail(node, path, f"problem is for domain {domain_name!r}, "
                                  f"expected {domain.name!r}")
        elif key == ":objects":
            for obj, ty in _typed(rest, node, path, types,
                                  domain.requirements):
                _declare(objects, obj, ty, node, path, "object")
        elif key == ":init":
            for fact in rest:
                if _head(fact, path) == "=":
                    parts = _items(fact, path)
                    if len(parts) != 3:
                        _fail(fact, path, "(= (fn args) value) expected")
                    term = _term(parts[1], path, functions, "function", scope)
                    value = _number(parts[2], path)
                    # keyed as written, which a duplicate's message quotes
                    written = "(" + " ".join((term[0],) + term[1]) + ")"
                    _declare(fn_values, written, (term, value), fact, path,
                             "function value")
                    continue
                lit = _literal(fact, path, predicates, scope)
                if not lit.positive:
                    _fail(fact, path, "negative literals not allowed in init")
                init.add(lit.atom())
        elif key == ":goal":
            _declare(once, key, node, node, path, "section")
            if len(rest) != 1:
                _fail(node, path, "(:goal <conjunction>) expected")
            for part in _conjuncts(rest[0], path):
                lit = _literal(part, path, predicates, scope)
                if not lit.positive:
                    _fail(part, path, "goals must be positive literals")
                goal.append(lit.atom())
        elif key == ":metric":
            if (len(rest) != 2 or _sym(rest[0], path) != "minimize"
                    or len(_items(rest[1], path)) != 1
                    or _head(rest[1], path) != TOTAL_COST):
                _fail(node, path,
                      f"only (:metric minimize ({TOTAL_COST})) is supported")
            metric = True
        else:
            _fail(node, path, f"unknown problem section: {key}")

    if ":goal" not in once:
        _fail(tree, path, "problem has no (:goal ...) section")
    fn_values.pop(f"({TOTAL_COST})", None)
    return ProblemDef(name=name, domain_name=domain_name,
                      objects=tuple(objects.items())[len(domain.constants):],
                      init=frozenset(init),
                      function_values=tuple(sorted(fn_values.values())),
                      goal=tuple(goal), metric=metric)


# --- grounding ---------------------------------------------------------------

def _objects_by_type(domain: DomainDef,
                     problem: ProblemDef) -> dict[str, list[str]]:
    """Each type's objects, sorted, walking up to the root's None parent."""
    parents = {ROOT_TYPE: None, **domain.type_parents()}
    table: dict[str, list[str]] = {ty: [] for ty in parents}
    for obj, ty in itertools.chain(domain.constants, problem.objects):
        while ty is not None:
            table[ty].append(obj)
            ty = parents[ty]
    for members in table.values():
        members.sort()
    return table


def _unit_cost(domain: DomainDef) -> bool:
    return ":action-costs" not in domain.requirements


def ground(domain: DomainDef, problem: ProblemDef) -> list[GroundAction]:
    """All type-consistent instantiations, statically pruned and sorted.

    An instantiation is dropped when some positive precondition atom is
    absent from init and its predicate never occurs in any add effect
    (it can never become true).
    """
    by_type = _objects_by_type(domain, problem)
    fn_values = problem.function_map()
    added_predicates = {lit.name for schema in domain.actions
                        for lit in schema.add}
    unit = _unit_cost(domain)
    constants = tuple(name for name, _ in domain.constants)

    out: list[GroundAction] = []
    for schema in domain.actions:
        # compiled once per schema: an argument becomes its index into
        # `values`, the combination followed by the domain's constants
        slot = {name: len(schema.params) + i
                for i, name in enumerate(constants)}
        slot.update((var, i) for i, (var, _) in enumerate(schema.params))
        pre = sorted(schema.precondition, key=lambda l: not l.positive)
        lits = [(l.name, tuple(slot[a] for a in l.args))
                for l in (*pre, *schema.add, *schema.delete)]
        # atoms[:n_pos] are the positive preconditions, atoms[n_pos:n_pre]
        # the negative ones, atoms[n_pre:n_add] the add effects
        n_pos, n_pre = sum(l.positive for l in pre), len(pre)
        n_add = n_pre + len(schema.add)
        static = [i for i in range(n_pos)
                  if pre[i].name not in added_predicates]
        costs = [(fname, tuple(slot[a] for a in args))
                 for fname, args in schema.cost_terms]
        pools = [by_type.get(ty, []) for _, ty in schema.params]
        for combo in itertools.product(*pools):
            values = combo + constants
            atoms = [(name, *[values[i] for i in idx]) for name, idx in lits]
            if static and any(atoms[i] not in problem.init for i in static):
                continue
            pre_pos = frozenset(atoms[:n_pos])
            pre_neg = frozenset(atoms[n_pos:n_pre])
            if pre_pos & pre_neg:
                continue        # self-contradictory, never applicable
            cost = schema.cost_constant
            for fname, idx in costs:
                key = (fname, tuple([values[i] for i in idx]))
                if key not in fn_values:
                    raise UndefinedFunctionValue(
                        f"({key[0]} {' '.join(key[1])}) has no value in init")
                cost += fn_values[key]
            if unit:
                cost = 1.0
            if cost < 0:
                binding = dict(zip((var for var, _ in schema.params), combo))
                raise NegativeCost(
                    f"action {schema.name} with {binding} costs {cost}")
            name = "(" + " ".join((schema.name,) + combo) + ")"
            out.append(GroundAction(
                name=name, pre_pos=pre_pos, pre_neg=pre_neg,
                add=frozenset(atoms[n_pre:n_add]),
                delete=frozenset(atoms[n_add:]), cost=cost))
    out.sort(key=lambda a: a.name)
    return out


# --- search ------------------------------------------------------------------

# one row per ground action: its index, positive and negative preconditions,
# the bits it keeps (all but its delete effects), its add effects and cost
_Row = tuple[int, int, int, int, int, float]


@dataclass(frozen=True, eq=False)
class CompiledTask:
    """Ground actions and a goal as bitsets, to ``search`` from any init.

    ``bit`` numbers every atom an action or the goal mentions, in sorted
    order, and ``goal`` is the mask of the goal's atoms.  Its mappings are
    read-only, as every search of a mission shares them; it compares and
    hashes by identity.
    """
    actions: tuple[GroundAction, ...]
    bit: MappingProxyType[Atom, int]
    filed: MappingProxyType[int, tuple[_Row, ...]]
    unfiled: tuple[_Row, ...]
    goal: int


def compile_task(actions: list[GroundAction],
                 goal: tuple[Atom, ...]) -> CompiledTask:
    """Compile ``actions``, in ``ground``'s name order, and ``goal``."""
    atoms = set(goal)
    for act in actions:
        atoms.update(act.pre_pos, act.pre_neg, act.add, act.delete)
    bit = {atom: 1 << i for i, atom in enumerate(sorted(atoms))}

    def mask(part: frozenset[Atom]) -> int:
        return sum(map(bit.__getitem__, part))

    filed: dict[int, list[_Row]] = {}       # lowest precondition bit -> rows
    unfiled: list[_Row] = []                # no positive precondition
    for idx, a in enumerate(actions):
        pre = mask(a.pre_pos)
        row = (idx, pre, mask(a.pre_neg), ~mask(a.delete), mask(a.add),
               a.cost)
        if pre:
            filed.setdefault(pre & -pre, []).append(row)
        else:
            unfiled.append(row)
    return CompiledTask(
        actions=tuple(actions), bit=MappingProxyType(bit),
        filed=MappingProxyType({k: tuple(v) for k, v in filed.items()}),
        unfiled=tuple(unfiled), goal=mask(frozenset(goal)))


def plan(domain: DomainDef, problem: ProblemDef,
         mode: str = "optimal") -> Plan:
    """Ground and compile the problem, then ``search`` it from its init."""
    return search(compile_task(ground(domain, problem), problem.goal),
                  problem.init, mode)


def search(task: CompiledTask, init: frozenset[Atom], mode: str) -> Plan:
    """Forward search over ``task`` from ``init`` to its goal.

    "optimal" runs uniform-cost search and returns a minimal-cost plan;
    "greedy" runs best-first on the number of distinct unsatisfied goal
    atoms and returns the first plan found.  Both are deterministic: the
    frontier orders equal-priority entries by the plan prefix, whose
    elements index ``task.actions``, in the name order that ``ground`` gives
    them.

    A state is an int with one bit per atom.  An expanded state tries only
    the rows filed under its own bits, in ascending index order, which
    decides the first path to a state and so greedy's plan.  The frontier
    keeps whole paths rather than parent pointers, because the path is the
    tie-break.

    An init atom without a bit is dropped from the start state, which is
    exact: no action reads or writes it and the goal does not name it.
    Heap entries never tie on (priority, path), so states are never
    compared, and the rows tried do not depend on how atoms are numbered.
    """
    if mode not in ("optimal", "greedy"):
        raise ValueError(f"mode must be 'optimal' or 'greedy', got {mode!r}")
    goal_bits, filed_bits = task.goal, sum(task.filed)
    tried: dict[int, list[_Row]] = {}       # state & filed_bits -> rows
    optimal = mode == "optimal"
    start = sum(map(task.bit.get, task.bit.keys() & init))
    # frontier entries: (priority, path indices, state, cost)
    frontier = [(0.0 if optimal else (goal_bits & ~start).bit_count(), (),
                 start, 0.0)]
    best_cost: dict[int, float] = {start: 0.0}
    closed: set[int] = set()
    expanded = generated = 0
    push, pop, inf = heapq.heappush, heapq.heappop, math.inf

    while frontier:
        _, path, state, cost = pop(frontier)
        if state & goal_bits == goal_bits:
            return Plan(actions=tuple(task.actions[i] for i in path),
                        cost=cost, expanded=expanded, generated=generated)
        if state in closed:
            continue
        closed.add(state)
        expanded += 1
        key = state & filed_bits
        rows = tried.get(key)
        if rows is None:
            rows = list(task.unfiled)
            rest = key
            while rest:
                low = rest & -rest
                rows += task.filed[low]
                rest ^= low
            rows.sort()
            tried[key] = rows
        for idx, pre, neg, keep, add, step in rows:
            if state & pre != pre or state & neg:
                continue
            nxt = state & keep | add
            ncost = cost + step
            generated += 1
            if optimal:
                # strict comparison: equal-cost alternatives stay in the
                # frontier so the path tie-break picks the smallest one
                if nxt in closed or best_cost.get(nxt, inf) < ncost:
                    continue
                best_cost[nxt] = ncost
                push(frontier, (ncost, path + (idx,), nxt, ncost))
            else:
                # every closed state was pushed, so best_cost holds it
                if nxt in best_cost:
                    continue
                best_cost[nxt] = ncost
                push(frontier, ((goal_bits & ~nxt).bit_count(),
                                path + (idx,), nxt, ncost))
    raise Unsolvable(
        f"no plan reaches the goal ({len(task.actions)} ground actions "
        f"explored)")


# --- printers ----------------------------------------------------------------

def _fmt_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def format_plan(plan_obj: Plan) -> str:
    lines = [a.name for a in plan_obj.actions]
    lines.append(f"; cost = {_fmt_number(plan_obj.cost)}")
    return "\n".join(lines) + "\n"
