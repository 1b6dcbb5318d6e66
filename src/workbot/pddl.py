"""Typed STRIPS planning with additive action costs.

Covers a deliberately small PDDL subset: :strips, :typing,
:negative-preconditions and :action-costs with a single total-cost fluent.
Costs may reference static numeric functions whose values come from the
problem init.  The planner searches forward, either cost-optimal
(uniform-cost) or greedy on a goal-count heuristic, and ties always break
on the lexicographic order of ground action names so results are stable.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

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


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split(";", 1)[0]
        col = 0
        i = 0
        while i < len(body):
            ch = body[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "()":
                tokens.append(_Token(ch, lineno, i + 1))
                i += 1
                continue
            j = i
            while j < len(body) and not body[j].isspace() and body[j] not in "()":
                j += 1
            tokens.append(_Token(body[i:j].lower(), lineno, i + 1))
            i = j
    return tokens


def _parse_tree(tokens: list[_Token], path: str):
    """Nested lists with _Token leaves; the list carries its '(' token first."""
    pos = 0

    def read():
        nonlocal pos
        if pos >= len(tokens):
            raise PddlSyntaxError(f"{path}: unexpected end of input")
        tok = tokens[pos]
        pos += 1
        if tok.text == "(":
            items: list = [tok]
            while True:
                if pos >= len(tokens):
                    raise PddlSyntaxError(
                        f"{path}:{tok.line}:{tok.col}: unclosed parenthesis")
                if tokens[pos].text == ")":
                    pos += 1
                    return items
                items.append(read())
        if tok.text == ")":
            raise PddlSyntaxError(
                f"{path}:{tok.line}:{tok.col}: unmatched ')'")
        return tok

    tree = read()
    if pos != len(tokens):
        trailing = tokens[pos]
        raise PddlSyntaxError(
            f"{path}:{trailing.line}:{trailing.col}: trailing input "
            f"after top-level form")
    return tree


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


def _call(node, path: str) -> list:
    """Items of a `(name arg ...)` form: a declaration or a function term."""
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
    has_cost_effect: bool


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

    def predicate_arity(self) -> dict[str, tuple[str, ...]]:
        return dict(self.predicates)


@dataclass(frozen=True)
class ProblemDef:
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

    def applicable(self, state: frozenset[Atom]) -> bool:
        return self.pre_pos <= state and not (self.pre_neg & state)


@dataclass(frozen=True)
class Plan:
    actions: tuple[GroundAction, ...]
    cost: float

    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.actions)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    failed_at: int | str | None = None           # step index or "goal"


# --- typed-list helper -------------------------------------------------------

def _typed_list(nodes: list, path: str) -> list[tuple[str, str]]:
    """Parse `a b - t c - u d` into [(a,t),(b,t),(c,u),(d,object)]."""
    out: list[tuple[str, str]] = []
    pending: list[str] = []
    i = 0
    while i < len(nodes):
        text = _sym(nodes[i], path)
        if text == "-":
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


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# --- domain parsing ----------------------------------------------------------

def parse_domain(text: str, path: str = "<domain>") -> DomainDef:
    tree = _parse_tree(_tokenize(text), path)
    items = _items(tree, path)
    if len(items) < 2 or _sym(items[0], path) != "define":
        _fail(tree, path, "expected (define (domain ...) ...)")
    head = _items(items[1], path)
    if len(head) != 2 or _sym(head[0], path) != "domain":
        _fail(items[1], path, "expected (domain <name>)")
    name = _sym(head[1], path)

    requirements: set[str] = set()
    types: list[tuple[str, str]] = []
    predicates: list[tuple[str, tuple[str, ...]]] = []
    functions: list[tuple[str, tuple[str, ...]]] = []
    constants: list[tuple[str, str]] = []
    actions: list[ActionSchema] = []

    known_types = {ROOT_TYPE}
    pred_arity: dict[str, int] = {}
    fn_arity: dict[str, int] = {}

    def check_type(ty: str, node):
        if ty not in known_types:
            _fail(node, path, f"unknown type: {ty}", UnknownType)

    for section in items[2:]:
        body = _items(section, path)
        if not body:
            _fail(section, path, "empty domain section")
        key = _sym(body[0], path)
        if key == ":requirements":
            for node in body[1:]:
                req = _sym(node, path)
                if req not in SUPPORTED_REQUIREMENTS:
                    raise UnsupportedRequirement(_where(node, path),
                                                 req.lstrip(":"))
                requirements.add(req)
        elif key == ":types":
            for ty, parent in _typed_list(body[1:], path):
                if parent != ROOT_TYPE and parent not in known_types:
                    _fail(section, path, f"unknown parent type: {parent}",
                          UnknownType)
                if ty in known_types:
                    _fail(section, path, f"type declared twice: {ty}")
                known_types.add(ty)
                types.append((ty, parent))
        elif key == ":constants":
            for obj, ty in _typed_list(body[1:], path):
                check_type(ty, section)
                constants.append((obj, ty))
        elif key == ":predicates":
            for decl in body[1:]:
                parts = _call(decl, path)
                pname = _sym(parts[0], path)
                params = _typed_list(parts[1:], path)
                for _, ty in params:
                    check_type(ty, decl)
                if pname in pred_arity:
                    _fail(decl, path, f"predicate declared twice: {pname}")
                pred_arity[pname] = len(params)
                predicates.append((pname, tuple(ty for _, ty in params)))
        elif key == ":functions":
            for decl in body[1:]:
                parts = _call(decl, path)
                fname = _sym(parts[0], path)
                params = _typed_list(parts[1:], path)
                for _, ty in params:
                    check_type(ty, decl)
                fn_arity[fname] = len(params)
                functions.append((fname, tuple(ty for _, ty in params)))
        elif key == ":action":
            actions.append(_parse_action(body, path, known_types,
                                         pred_arity, fn_arity))
        else:
            _fail(section, path, f"unknown domain section: {key}")

    if TOTAL_COST in fn_arity and fn_arity[TOTAL_COST] != 0:
        _fail(tree, path, f"{TOTAL_COST} must take no arguments",
              ArityMismatch)
    return DomainDef(name=name, requirements=frozenset(requirements),
                     types=tuple(types), predicates=tuple(predicates),
                     functions=tuple(functions), constants=tuple(constants),
                     actions=tuple(actions))


def _parse_literal(node, path: str, pred_arity: dict[str, int],
                   scope: set[str] | None) -> Literal:
    parts = _items(node, path)
    if parts and _sym(parts[0], path) == "not":
        if len(parts) != 2:
            _fail(node, path, "(not ...) takes exactly one literal")
        inner = _parse_literal(parts[1], path, pred_arity, scope)
        if not inner.positive:
            _fail(node, path, "double negation is not supported")
        return Literal(inner.name, inner.args, positive=False)
    if not parts:
        _fail(node, path, "empty literal")
    name = _sym(parts[0], path)
    if name not in pred_arity:
        _fail(node, path, f"unknown predicate: {name}", UnknownPredicate)
    args = tuple(_sym(p, path) for p in parts[1:])
    if len(args) != pred_arity[name]:
        _fail(node, path,
              f"{name} expects {pred_arity[name]} arguments, got {len(args)}",
              ArityMismatch)
    if scope is not None:
        for arg in args:
            if arg.startswith("?") and arg not in scope:
                _fail(node, path, f"unbound variable: {arg}")
    return Literal(name, args)


def _conjunction(node, path: str, pred_arity, scope) -> list[Literal]:
    parts = _items(node, path)
    if parts and _sym(parts[0], path) == "and":
        out = []
        for sub in parts[1:]:
            out.append(_parse_literal(sub, path, pred_arity, scope))
        return out
    return [_parse_literal(node, path, pred_arity, scope)]


def _parse_action(body: list, path: str, known_types: set[str],
                  pred_arity: dict[str, int],
                  fn_arity: dict[str, int]) -> ActionSchema:
    if len(body) < 2:
        _fail(body[0], path, ":action needs a name")
    name = _sym(body[1], path)
    params: tuple[tuple[str, str], ...] = ()
    precondition: list[Literal] = []
    adds: list[Literal] = []
    deletes: list[Literal] = []
    cost_constant = 0.0
    cost_terms: list[tuple[str, tuple[str, ...]]] = []
    has_cost = False

    i = 2
    while i < len(body):
        key = _sym(body[i], path)
        if i + 1 >= len(body):
            _fail(body[i], path, f"{key} needs a value")
        value = body[i + 1]
        if key == ":parameters":
            decls = _typed_list(_items(value, path), path)
            for var, ty in decls:
                if not var.startswith("?"):
                    _fail(value, path, f"parameter must start with '?': {var}")
                if ty not in known_types:
                    _fail(value, path, f"unknown type: {ty}", UnknownType)
            params = tuple(decls)
        elif key == ":precondition":
            scope = {var for var, _ in params}
            precondition = _conjunction(value, path, pred_arity, scope)
        elif key == ":effect":
            scope = {var for var, _ in params}
            parts = _items(value, path)
            effects = parts[1:] if parts and _sym(parts[0], path) == "and" \
                else [value]
            for eff in effects:
                eparts = _items(eff, path)
                if eparts and _sym(eparts[0], path) == "increase":
                    c, terms = _parse_increase(eff, path, fn_arity,
                                               {var for var, _ in params})
                    cost_constant += c
                    cost_terms.extend(terms)
                    has_cost = True
                    continue
                lit = _parse_literal(eff, path, pred_arity, scope)
                (adds if lit.positive else deletes).append(
                    Literal(lit.name, lit.args))
        else:
            _fail(body[i], path, f"unknown action section: {key}")
        i += 2

    return ActionSchema(name=name, params=params,
                        precondition=tuple(precondition),
                        add=tuple(adds), delete=tuple(deletes),
                        cost_constant=cost_constant,
                        cost_terms=tuple(cost_terms),
                        has_cost_effect=has_cost)


def _parse_increase(node, path: str, fn_arity: dict[str, int],
                    scope: set[str]):
    parts = _items(node, path)
    if len(parts) != 3:
        _fail(node, path, "(increase (total-cost) <expr>) expected")
    target = _items(parts[1], path)
    if len(target) != 1 or _sym(target[0], path) != TOTAL_COST:
        _fail(parts[1], path, f"only ({TOTAL_COST}) may be increased")
    expr = parts[2]
    if not isinstance(expr, list):
        text = _sym(expr, path)
        if not _is_number(text):
            _fail(expr, path, f"expected a number or function call: {text}")
        value = float(text)
        if value < 0:
            _fail(expr, path, f"action cost must be non-negative: {text}",
                  NegativeCost)
        return value, []
    call = _call(expr, path)
    fname = _sym(call[0], path)
    if fname not in fn_arity:
        _fail(expr, path, f"unknown function: {fname}", UnknownPredicate)
    args = tuple(_sym(a, path) for a in call[1:])
    if len(args) != fn_arity[fname]:
        _fail(expr, path,
              f"{fname} expects {fn_arity[fname]} arguments, got {len(args)}",
              ArityMismatch)
    for arg in args:
        if arg.startswith("?") and arg not in scope:
            _fail(expr, path, f"unbound variable: {arg}")
    return 0.0, [(fname, args)]


# --- problem parsing ---------------------------------------------------------

def parse_problem(text: str, domain: DomainDef,
                  path: str = "<problem>") -> ProblemDef:
    tree = _parse_tree(_tokenize(text), path)
    items = _items(tree, path)
    if len(items) < 2 or _sym(items[0], path) != "define":
        _fail(tree, path, "expected (define (problem ...) ...)")
    head = _items(items[1], path)
    if len(head) != 2 or _sym(head[0], path) != "problem":
        _fail(items[1], path, "expected (problem <name>)")
    name = _sym(head[1], path)

    pred_arity = {p: len(tys) for p, tys in domain.predicates}
    fn_arity = {f: len(tys) for f, tys in domain.functions}
    known_types = {ROOT_TYPE} | {ty for ty, _ in domain.types}
    domain_name = ""
    objects: list[tuple[str, str]] = []
    init: set[Atom] = set()
    fn_values: dict[tuple[str, tuple[str, ...]], float] = {}
    goal: list[Atom] = []
    has_goal = False
    metric = False

    def known_objects() -> set[str]:
        return ({obj for obj, _ in domain.constants}
                | {obj for obj, _ in objects})

    def check_ground(lit: Literal, node):
        for arg in lit.args:
            if arg.startswith("?"):
                _fail(node, path, f"variables not allowed here: {arg}")
            if arg not in known_objects():
                _fail(node, path, f"undeclared object: {arg}",
                      UndeclaredObject)

    for section in items[2:]:
        body = _items(section, path)
        if not body:
            _fail(section, path, "empty problem section")
        key = _sym(body[0], path)
        if key == ":domain":
            if len(body) != 2:
                _fail(section, path, "(:domain <name>) expected")
            domain_name = _sym(body[1], path)
            if domain_name != domain.name:
                _fail(section, path,
                      f"problem is for domain {domain_name!r}, "
                      f"expected {domain.name!r}")
        elif key == ":objects":
            for obj, ty in _typed_list(body[1:], path):
                if ty not in known_types:
                    _fail(section, path, f"unknown type: {ty}", UnknownType)
                objects.append((obj, ty))
        elif key == ":init":
            for node in body[1:]:
                parts = _items(node, path)
                if parts and _sym(parts[0], path) == "=":
                    if len(parts) != 3:
                        _fail(node, path, "(= (fn args) value) expected")
                    call = _call(parts[1], path)
                    fname = _sym(call[0], path)
                    if fname not in fn_arity:
                        _fail(node, path, f"unknown function: {fname}",
                              UnknownPredicate)
                    args = tuple(_sym(a, path) for a in call[1:])
                    if len(args) != fn_arity[fname]:
                        _fail(node, path,
                              f"{fname} expects {fn_arity[fname]} "
                              f"arguments, got {len(args)}", ArityMismatch)
                    for arg in args:
                        if arg not in known_objects():
                            _fail(node, path, f"undeclared object: {arg}",
                                  UndeclaredObject)
                    text_value = _sym(parts[2], path)
                    if not _is_number(text_value):
                        _fail(parts[2], path,
                              f"expected a number: {text_value}")
                    fn_values[(fname, args)] = float(text_value)
                    continue
                lit = _parse_literal(node, path, pred_arity, None)
                if not lit.positive:
                    _fail(node, path, "negative literals not allowed in init")
                check_ground(lit, node)
                init.add(lit.atom())
        elif key == ":goal":
            if len(body) != 2:
                _fail(section, path, "(:goal <conjunction>) expected")
            has_goal = True
            for lit in _conjunction(body[1], path, pred_arity, None):
                if not lit.positive:
                    _fail(body[1], path,
                          "goals must be positive literals")
                check_ground(lit, body[1])
                goal.append(lit.atom())
        elif key == ":metric":
            if len(body) != 3:
                _fail(section, path,
                      f"only (:metric minimize ({TOTAL_COST})) is supported")
            target = _items(body[2], path)
            if _sym(body[1], path) != "minimize" or len(target) != 1 \
                    or _sym(target[0], path) != TOTAL_COST:
                _fail(section, path,
                      f"only (:metric minimize ({TOTAL_COST})) is supported")
            metric = True
        else:
            _fail(section, path, f"unknown problem section: {key}")

    if not has_goal:
        _fail(tree, path, "problem has no (:goal ...) section")
    fn_values.pop((TOTAL_COST, ()), None)
    return ProblemDef(name=name, domain_name=domain_name,
                      objects=tuple(objects), init=frozenset(init),
                      function_values=tuple(sorted(fn_values.items())),
                      goal=tuple(goal), metric=metric)


# --- grounding ---------------------------------------------------------------

def _objects_by_type(domain: DomainDef,
                     problem: ProblemDef) -> dict[str, list[str]]:
    parents = domain.type_parents()

    def ancestors(ty: str):
        while True:
            yield ty
            if ty == ROOT_TYPE:
                return
            ty = parents.get(ty, ROOT_TYPE)

    table: dict[str, list[str]] = {ROOT_TYPE: []}
    for ty in parents:
        table[ty] = []
    for obj, ty in itertools.chain(domain.constants, problem.objects):
        for anc in ancestors(ty):
            table.setdefault(anc, []).append(obj)
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

    out: list[GroundAction] = []
    for schema in domain.actions:
        pools = []
        for _, ty in schema.params:
            pools.append(by_type.get(ty, []))
        for combo in itertools.product(*pools):
            binding = {var: obj
                       for (var, _), obj in zip(schema.params, combo)}

            def subst(lit: Literal) -> Atom:
                return (lit.name,) + tuple(binding.get(a, a)
                                           for a in lit.args)

            pre_pos = frozenset(subst(l) for l in schema.precondition
                                if l.positive)
            pre_neg = frozenset(subst(l) for l in schema.precondition
                                if not l.positive)
            if pre_pos & pre_neg:
                continue        # self-contradictory, never applicable
            static_block = any(
                atom not in problem.init and atom[0] not in added_predicates
                for atom in pre_pos)
            if static_block:
                continue
            cost = schema.cost_constant
            for fname, args in schema.cost_terms:
                key = (fname, tuple(binding.get(a, a) for a in args))
                if key not in fn_values:
                    raise UndefinedFunctionValue(
                        f"({key[0]} {' '.join(key[1])}) has no value in init")
                cost += fn_values[key]
            if not schema.has_cost_effect and unit:
                cost = 1.0
            if cost < 0:
                raise NegativeCost(
                    f"action {schema.name} with {binding} costs {cost}")
            name = "(" + " ".join((schema.name,) + combo) + ")"
            out.append(GroundAction(
                name=name, pre_pos=pre_pos, pre_neg=pre_neg,
                add=frozenset(subst(l) for l in schema.add),
                delete=frozenset(subst(l) for l in schema.delete),
                cost=cost))
    out.sort(key=lambda a: a.name)
    return out


# --- search ------------------------------------------------------------------

def _goal_holds(goal: tuple[Atom, ...], state: frozenset[Atom]) -> bool:
    return all(atom in state for atom in goal)


def plan(domain: DomainDef, problem: ProblemDef,
         mode: str = "optimal") -> Plan:
    """Forward search over ground actions.

    "optimal" runs uniform-cost search and returns a minimal-cost plan;
    "greedy" runs best-first on the number of unsatisfied goal atoms and
    returns the first plan found.  Both are deterministic: the frontier
    orders equal-priority entries by the plan prefix, whose elements follow
    the sorted ground-action order.
    """
    if mode not in ("optimal", "greedy"):
        raise ValueError(f"mode must be 'optimal' or 'greedy', got {mode!r}")
    actions = ground(domain, problem)
    goal = problem.goal
    init = problem.init

    def unsatisfied(state: frozenset[Atom]) -> int:
        return sum(1 for atom in goal if atom not in state)

    start: frozenset[Atom] = init
    # frontier entries: (priority, path indices, state, cost)
    if mode == "optimal":
        frontier = [(0.0, (), start, 0.0)]
    else:
        frontier = [(float(unsatisfied(start)), (), start, 0.0)]
    best_cost: dict[frozenset[Atom], float] = {start: 0.0}
    closed: set[frozenset[Atom]] = set()

    while frontier:
        _, path, state, cost = heapq.heappop(frontier)
        if _goal_holds(goal, state):
            chosen = tuple(actions[i] for i in path)
            return Plan(actions=chosen, cost=cost)
        if state in closed:
            continue
        closed.add(state)
        for idx, act in enumerate(actions):
            if not act.applicable(state):
                continue
            nxt = act.apply(state)
            ncost = cost + act.cost
            if mode == "optimal":
                # strict comparison: equal-cost alternatives stay in the
                # frontier so the path tie-break picks the smallest one
                if nxt in closed or best_cost.get(nxt, math.inf) < ncost:
                    continue
                best_cost[nxt] = ncost
                heapq.heappush(frontier, (ncost, path + (idx,), nxt, ncost))
            else:
                if nxt in closed or nxt in best_cost:
                    continue
                best_cost[nxt] = ncost
                heapq.heappush(frontier, (float(unsatisfied(nxt)),
                                          path + (idx,), nxt, ncost))
    raise Unsolvable(
        f"no plan reaches the goal ({len(actions)} ground actions explored)")


def validate(domain: DomainDef, problem: ProblemDef,
             plan_or_names) -> ValidationResult:
    """Replay a plan from init; reports the first step whose precondition
    fails, or "goal" when the final state misses the goal."""
    if isinstance(plan_or_names, Plan):
        names = plan_or_names.names()
    else:
        names = tuple(plan_or_names)
    by_name = {a.name: a for a in ground(domain, problem)}
    state = problem.init
    for i, name in enumerate(names):
        act = by_name.get(_normalize_name(name))
        if act is None or not act.applicable(state):
            return ValidationResult(ok=False, failed_at=i)
        state = act.apply(state)
    if not _goal_holds(problem.goal, state):
        return ValidationResult(ok=False, failed_at="goal")
    return ValidationResult(ok=True)


def _normalize_name(name: str) -> str:
    inner = name.strip().lower()
    if inner.startswith("(") and inner.endswith(")"):
        inner = inner[1:-1]
    return "(" + " ".join(inner.split()) + ")"


# --- printers ----------------------------------------------------------------

def _fmt_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _fmt_typed(pairs) -> str:
    return " ".join(f"{name} - {ty}" for name, ty in pairs)


def _fmt_literal(lit: Literal) -> str:
    inner = " ".join((lit.name,) + lit.args)
    return f"({inner})" if lit.positive else f"(not ({inner}))"


def _fmt_conjunction(lits) -> str:
    if len(lits) == 1:
        return _fmt_literal(lits[0])
    return "(and " + " ".join(_fmt_literal(l) for l in lits) + ")"


def print_domain(domain: DomainDef) -> str:
    lines = [f"(define (domain {domain.name})"]
    if domain.requirements:
        lines.append("  (:requirements "
                     + " ".join(sorted(domain.requirements)) + ")")
    if domain.types:
        lines.append("  (:types " + _fmt_typed(domain.types) + ")")
    if domain.constants:
        lines.append("  (:constants " + _fmt_typed(domain.constants) + ")")
    if domain.predicates:
        decls = []
        for pname, tys in domain.predicates:
            params = " ".join(f"?a{i} - {ty}" for i, ty in enumerate(tys))
            decls.append(f"({pname} {params})" if params else f"({pname})")
        lines.append("  (:predicates " + " ".join(decls) + ")")
    if domain.functions:
        decls = []
        for fname, tys in domain.functions:
            params = " ".join(f"?a{i} - {ty}" for i, ty in enumerate(tys))
            decls.append(f"({fname} {params})" if params else f"({fname})")
        lines.append("  (:functions " + " ".join(decls) + ")")
    for schema in domain.actions:
        lines.append(f"  (:action {schema.name}")
        lines.append("    :parameters (" + _fmt_typed(schema.params) + ")")
        if schema.precondition:
            lines.append("    :precondition "
                         + _fmt_conjunction(schema.precondition))
        effects = [_fmt_literal(l) for l in schema.add]
        effects += [_fmt_literal(Literal(l.name, l.args, positive=False))
                    for l in schema.delete]
        if schema.has_cost_effect:
            if schema.cost_constant or not schema.cost_terms:
                effects.append(f"(increase ({TOTAL_COST}) "
                               f"{_fmt_number(schema.cost_constant)})")
            for fname, args in schema.cost_terms:
                effects.append(f"(increase ({TOTAL_COST}) "
                               f"({' '.join((fname,) + args)}))")
        if effects:
            body = effects[0] if len(effects) == 1 \
                else "(and " + " ".join(effects) + ")"
            lines.append("    :effect " + body)
        lines.append("  )")
    lines.append(")")
    return "\n".join(lines) + "\n"


def print_problem(problem: ProblemDef) -> str:
    lines = [f"(define (problem {problem.name})",
             f"  (:domain {problem.domain_name})"]
    if problem.objects:
        lines.append("  (:objects " + _fmt_typed(problem.objects) + ")")
    init_parts = ["(" + " ".join(atom) + ")"
                  for atom in sorted(problem.init)]
    if problem.metric or problem.function_values:
        init_parts.append(f"(= ({TOTAL_COST}) 0)")
    for (fname, args), value in problem.function_values:
        call = " ".join((fname,) + args)
        init_parts.append(f"(= ({call}) {_fmt_number(value)})")
    lines.append("  (:init " + " ".join(init_parts) + ")")
    goal_lits = [Literal(atom[0], atom[1:]) for atom in problem.goal]
    lines.append("  (:goal " + _fmt_conjunction(goal_lits) + ")")
    if problem.metric:
        lines.append(f"  (:metric minimize ({TOTAL_COST}))")
    lines.append(")")
    return "\n".join(lines) + "\n"


def format_plan(plan_obj: Plan) -> str:
    lines = [a.name for a in plan_obj.actions]
    lines.append(f"; cost = {_fmt_number(plan_obj.cost)}")
    return "\n".join(lines) + "\n"


def parse_plan_text(text: str) -> list[str]:
    """Action names from a plan file; blank and comment lines are skipped."""
    names = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith(";"):
            continue
        names.append(_normalize_name(line))
    return names
