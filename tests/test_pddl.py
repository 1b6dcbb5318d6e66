"""Parser diagnostics, grounding enumeration oracle, search optimality."""

import heapq
import itertools
import json
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from workbot.pddl import (ArityMismatch, NegativeCost, PddlError,
                          PddlSyntaxError, Plan,
                          UndeclaredObject, UndefinedFunctionValue,
                          UnknownPredicate, UnknownType, Unsolvable,
                          UnsupportedRequirement, compile_task, format_plan,
                          ground, parse_domain, parse_plan_text,
                          parse_problem, plan, print_domain, print_problem,
                          search, validate)

DATA = Path("src/workbot/data")


def transport():
    return parse_domain(DATA.joinpath("transport.pddl").read_text(),
                        path="transport.pddl")


def problem_file(name):
    domain = transport()
    text = DATA.joinpath(name).read_text()
    return domain, parse_problem(text, domain, path=name)


TOY_DOMAIN = """
(define (domain toy)
  (:requirements :strips :typing)
  (:types block)
  (:predicates (clear ?b - block) (stacked ?a - block ?b - block))
  (:action stack
    :parameters (?a - block ?b - block)
    :precondition (and (clear ?a) (clear ?b))
    :effect (and (stacked ?a ?b) (not (clear ?b)))))
"""

TOY_PROBLEM = """
(define (problem toy-1)
  (:domain toy)
  (:objects a b - block)
  (:init (clear a) (clear b))
  (:goal (and (stacked a b))))
"""


# ---------------------------------------------------------------------------
# parsing and diagnostics


def test_parse_bundled_domain():
    domain = transport()
    assert domain.name == "transport"
    assert {a.name for a in domain.actions} == {"move", "perceive", "grasp",
                                                "place"}
    assert domain.predicate_arity()["holding"] == ("robot", "item")


def test_syntax_error_carries_location():
    with pytest.raises(PddlSyntaxError) as exc:
        parse_domain("(define (domain d)\n  (:predicates (p ?x)",
                     path="broken.pddl")
    assert "broken.pddl" in str(exc.value)


def test_unbalanced_close_rejected():
    with pytest.raises(PddlSyntaxError):
        parse_domain("(define (domain d)))", path="extra.pddl")


def test_unsupported_requirement():
    text = "(define (domain d)\n  (:requirements :strips :adl))"
    with pytest.raises(UnsupportedRequirement) as exc:
        parse_domain(text, path="d.pddl")
    assert str(exc.value) == "d.pddl:2:26: unsupported requirement: adl"
    assert exc.value.requirement == "adl"


def test_arity_mismatch():
    text = """
    (define (domain d)
      (:requirements :strips :typing)
      (:types t)
      (:predicates (p ?x - t))
      (:action a
        :parameters (?x - t ?y - t)
        :precondition (and (p ?x ?y))
        :effect (and (p ?x))))
    """
    with pytest.raises(ArityMismatch):
        parse_domain(text)


def test_unknown_type():
    text = """
    (define (domain d)
      (:requirements :strips :typing)
      (:types t)
      (:predicates (p ?x - t))
      (:action a
        :parameters (?x - vehicle)
        :precondition (and (p ?x))
        :effect (and (p ?x))))
    """
    with pytest.raises(UnknownType, match="vehicle"):
        parse_domain(text)


def test_types_may_declare_a_parent_after_its_subtypes():
    text = DATA.joinpath("transport.pddl").read_text()
    bundled = "(:types robot item location)"
    assert bundled in text
    parent_first, child_first = (
        parse_domain(text.replace(bundled, f"(:types {types})"))
        for types in ("thing location - object robot item - thing",
                      "robot item - thing location thing"))
    assert child_first.type_parents() == parent_first.type_parents() == {
        "thing": "object", "location": "object",
        "robot": "thing", "item": "thing"}
    for name in ("transport_1.pddl", "transport_3.pddl"):
        problem_text = DATA.joinpath(name).read_text()
        plans = [plan(domain, parse_problem(problem_text, domain))
                 for domain in (transport(), parent_first, child_first)]
        assert plans[0] == plans[1] == plans[2]
    with pytest.raises(UnknownType, match="unknown parent type: thing"):
        parse_domain(text.replace(bundled, "(:types robot item - thing)"))


def test_constants_and_objects_share_one_name_space():
    domain = TOY_DOMAIN.replace("(:predicates", "(:constants a - block)\n  (:predicates")
    with pytest.raises(PddlSyntaxError, match="object declared twice: a"):
        parse_problem(TOY_PROBLEM, parse_domain(domain))
    twice = domain.replace("(:constants a - block)", "(:constants a a - block)")
    with pytest.raises(PddlSyntaxError, match="object declared twice: a"):
        parse_domain(twice)


TOY_FN_PROBLEM = TOY_PROBLEM.replace("(clear b))", "(clear b) (= (total-cost) 0))")


@pytest.mark.parametrize("kind, old, new, message", [
    ("domain", "?a - block ?b - block)\n    :pre",
     "?a - block ?a - block)\n    :pre", "8:17: parameter declared twice: ?a"),
    ("domain", "(:action stack", "(:action stack :parameters ())\n  (:action stack",
     "8:3: action declared twice: stack"),
    ("domain", "    :precondition", "    :parameters (?a - block)\n    :precondition",
     "9:5: action section declared twice: :parameters"),
    ("domain", "    :effect", "    :precondition (clear ?a)\n    :effect",
     "10:5: action section declared twice: :precondition"),
    ("domain", "    :effect", "    :effect (clear ?a)\n    :effect",
     "11:5: action section declared twice: :effect"),
    ("problem", "(= (total-cost) 0)", "(= (total-cost) 0) (= (total-cost) 1)",
     "5:49: function value declared twice: (total-cost)"),
    ("problem", "(:goal", "(:goal (and))\n  (:goal",
     "7:3: section declared twice: :goal"),
], ids=["parameter", "action", "parameters", "precondition", "effect",
        "function-value", "goal"])
def test_repeated_declaration_is_a_located_syntax_error(kind, old, new,
                                                        message):
    domain = parse_domain(TOY_COST_DOMAIN)
    parse_problem(TOY_FN_PROBLEM, domain)   # the unbroken files parse
    text = TOY_COST_DOMAIN if kind == "domain" else TOY_FN_PROBLEM
    assert text.count(old) == 1
    bad = text.replace(old, new)
    with pytest.raises(PddlSyntaxError) as exc:
        if kind == "domain":
            parse_domain(bad, path="bad.pddl")
        else:
            parse_problem(bad, domain, path="bad.pddl")
    assert str(exc.value) == f"bad.pddl:{message}"


def test_action_keys_may_come_in_any_order():
    reordered = TOY_DOMAIN.replace(
        """    :parameters (?a - block ?b - block)
    :precondition (and (clear ?a) (clear ?b))
    :effect (and (stacked ?a ?b) (not (clear ?b)))""",
        """    :effect (and (stacked ?a ?b) (not (clear ?b)))
    :precondition (and (clear ?a) (clear ?b))
    :parameters (?a - block ?b - block)""")
    assert reordered != TOY_DOMAIN
    assert parse_domain(reordered) == parse_domain(TOY_DOMAIN)


def test_unknown_predicate():
    text = """
    (define (domain d)
      (:requirements :strips :typing)
      (:types t)
      (:predicates (p ?x - t))
      (:action a
        :parameters (?x - t)
        :precondition (and (q ?x))
        :effect (and (p ?x))))
    """
    with pytest.raises(UnknownPredicate, match="q"):
        parse_domain(text)


TOY_COST_DOMAIN = TOY_DOMAIN.replace(
    ":requirements :strips :typing",
    ":requirements :strips :typing :action-costs").replace(
    "(:action", "(:functions (total-cost))\n  (:action").replace(
    "(not (clear ?b))", "(not (clear ?b)) (increase (total-cost) 1)")


REQUIREMENT_DOMAIN = """(define (domain r)
  (:requirements :strips :typing :negative-preconditions :action-costs)
  (:types block)
  (:constants table - block)
  (:predicates (clear ?b - block) (on ?a - block ?b - block))
  (:functions (total-cost))
  (:action stack
    :parameters (?a - block ?b - block)
    :precondition (and (clear ?b) (not (on ?a ?b)))
    :effect (and (on ?a ?b) (not (clear ?b)) (increase (total-cost) 1))))
"""

UNTYPED = [("(:types block)\n  ", ""), (" - block", " - object")]


@pytest.mark.parametrize("dropped, edits, message", [
    (":typing", [], "3:3: :types section needs requirement :typing"),
    (":typing", UNTYPED, "3:21: typed list needs requirement :typing"),
    (":typing", [*UNTYPED, ("(:constants table - object)\n  ", "")],
     "3:26: typed list needs requirement :typing"),
    (":typing", [*UNTYPED, ("(:constants table - object)\n  ", ""),
                 ("(clear ?b - object) (on ?a - object ?b - object)",
                  "(clear ?b) (on ?a ?b)")],
     "6:21: typed list needs requirement :typing"),
    (":negative-preconditions", [], "9:35: negative precondition needs "
                                    "requirement :negative-preconditions"),
    (":action-costs", [], "6:3: :functions section needs requirement "
                          ":action-costs"),
    (":action-costs", [("(:functions (total-cost))\n  ", "")],
     "9:46: increase effect needs requirement :action-costs"),
], ids=["types-section", "typed-constant", "typed-predicate",
        "typed-parameter", "negative-precondition", "functions-section",
        "increase-effect"])
def test_undeclared_requirement_is_a_located_syntax_error(dropped, edits,
                                                          message):
    parse_domain(REQUIREMENT_DOMAIN)   # the unbroken domain parses
    text = REQUIREMENT_DOMAIN.replace(f" {dropped}", "", 1)
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    with pytest.raises(PddlSyntaxError) as exc:
        parse_domain(text, path="bad.pddl")
    assert str(exc.value) == f"bad.pddl:{message}"


def test_requirements_may_come_after_the_sections_that_use_them():
    line = ("  (:requirements :strips :typing :negative-preconditions "
            ":action-costs)\n")
    assert line in REQUIREMENT_DOMAIN
    moved = REQUIREMENT_DOMAIN.replace(line, "").replace(
        "  (:action stack", line + "  (:action stack")
    assert parse_domain(moved) == parse_domain(REQUIREMENT_DOMAIN)


@pytest.mark.parametrize("text", [
    "(define)",
    "(define (domain d) (:predicates ()))",
    "(define (domain d) (:requirements :action-costs) (:functions ()))",
    TOY_COST_DOMAIN.replace("(increase (total-cost) 1)",
                            "(increase (total-cost) ())"),
], ids=["bare-define", "empty-predicate", "empty-function",
        "empty-cost-term"])
def test_malformed_domain_is_a_located_syntax_error(text):
    parse_domain(TOY_COST_DOMAIN)   # the unbroken domain parses
    with pytest.raises(PddlSyntaxError) as exc:
        parse_domain(text, path="bad.pddl")
    assert str(exc.value).startswith("bad.pddl:")


@pytest.mark.parametrize("text", [
    "(define)",
    TOY_PROBLEM.replace("(:init", "(:init (= () 1)"),
], ids=["bare-define", "empty-function-value"])
def test_malformed_problem_is_a_located_syntax_error(text):
    domain = parse_domain(TOY_DOMAIN)
    with pytest.raises(PddlSyntaxError) as exc:
        parse_problem(text, domain, path="bad.pddl")
    assert str(exc.value).startswith("bad.pddl:")


def test_missing_goal_is_not_an_empty_goal():
    domain = parse_domain(TOY_DOMAIN)
    with pytest.raises(PddlSyntaxError,
                       match=r"^bad.pddl:2:1: problem has no \(:goal"):
        parse_problem(TOY_PROBLEM.replace("(:goal (and (stacked a b)))", ""),
                      domain, path="bad.pddl")
    empty = parse_problem(TOY_PROBLEM.replace("(stacked a b)", ""), domain)
    assert empty.goal == ()
    assert plan(domain, empty).actions == ()


def test_undeclared_object_in_problem():
    domain = parse_domain(TOY_DOMAIN)
    bad = TOY_PROBLEM.replace("(clear a)", "(clear ghost)")
    with pytest.raises(UndeclaredObject, match="ghost"):
        parse_problem(bad, domain)


def test_undefined_function_value():
    domain = transport()
    text = DATA.joinpath("transport_1.pddl").read_text()
    text = text.replace("(= (distance shelf ws) 1)", "")
    problem = parse_problem(text, domain)
    with pytest.raises(UndefinedFunctionValue) as err:
        ground(domain, problem)
    assert str(err.value) == "(distance shelf ws) has no value in init"


def test_negative_cost_rejected():
    domain = transport()
    text = DATA.joinpath("transport_1.pddl").read_text()
    text = text.replace("(= (distance shelf ws) 1)",
                        "(= (distance shelf ws) -2)")
    problem = parse_problem(text, domain)
    with pytest.raises(NegativeCost) as err:
        ground(domain, problem)
    assert str(err.value) == ("action move with {'?r': 'youbot', "
                              "'?from': 'shelf', '?to': 'ws'} costs -2.0")


def pddl_tokens(text):
    """Parentheses and symbols of a PDDL text, comments dropped."""
    body = "\n".join(line.split(";", 1)[0] for line in text.splitlines())
    return re.findall(r"[()]|[^\s()]+", body)


BUNDLED = {kind: pddl_tokens(DATA.joinpath(name).read_text())
           for kind, name in (("domain", "transport.pddl"),
                              ("problem", "transport_1.pddl"))}
EDIT_TOKENS = sorted(set(BUNDLED["domain"]) | set(BUNDLED["problem"])
                     | {"nan", "1e400", "-1", "?x", "kitchen", "(not", "()"})


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(BUNDLED)),
       edits=st.lists(st.tuples(st.sampled_from(["insert", "delete",
                                                 "replace"]),
                                st.integers(0, 10**6),
                                st.sampled_from(EDIT_TOKENS)),
                      min_size=1, max_size=3))
def test_token_edits_raise_only_pddl_errors(kind, edits):
    tokens = list(BUNDLED[kind])
    for op, at, token in edits:
        if op == "insert":
            tokens.insert(at % (len(tokens) + 1), token)
        elif tokens:
            del tokens[at % len(tokens)]
            if op == "replace":
                tokens.insert(at % (len(tokens) + 1), token)
    texts = {k: " ".join(v) for k, v in BUNDLED.items()}
    texts[kind] = " ".join(tokens)
    try:
        domain = parse_domain(texts["domain"], path="d.pddl")
        problem = parse_problem(texts["problem"], domain, path="p.pddl")
    except PddlError as exc:
        assert str(exc).startswith(("d.pddl:", "p.pddl:")), exc
        return
    try:
        ground(domain, problem)
    except PddlError:
        pass


# ---------------------------------------------------------------------------
# grounding


DEPOT_DOMAIN = """
(define (domain depot)
  (:requirements :strips :typing :action-costs :negative-preconditions)
  (:types place truck)
  (:constants depot - place)
  (:predicates (at ?t - truck ?p - place) (road ?a - place ?b - place)
               (loaded ?t - truck) (dock ?p - place))
  (:functions (dist ?a - place ?b - place) (total-cost))
  (:action drive
    :parameters (?t - truck ?a - place ?b - place)
    :precondition (and (at ?t ?a) (road ?a ?b) (not (at ?t ?b)))
    :effect (and (at ?t ?b) (not (at ?t ?a))
                 (increase (total-cost) (dist ?a ?b))))
  (:action load
    :parameters (?t - truck)
    :precondition (and (at ?t depot) (not (loaded ?t)))
    :effect (and (loaded ?t) (increase (total-cost) 2)))
  (:action unload-at-depot
    :parameters (?t - truck ?p - place)
    :precondition (and (loaded ?t) (at ?t ?p) (road ?p depot) (dock ?p))
    :effect (and (not (loaded ?t)) (at ?t depot) (not (at ?t ?p))
                 (increase (total-cost) (dist ?p depot)))))
"""

# road and dock are static: only the listed roads ground drive and unload,
# and only they have a distance, so grounding raises unless the prune comes
# first, and (dock a) alone does not let (road a depot) through
DEPOT_PROBLEM = """
(define (problem depot-1) (:domain depot)
  (:objects t1 t2 - truck a b - place)
  (:init (at t1 depot) (at t2 a) (road depot a) (road a b) (road b depot)
         (dock a) (dock b)
         (= (dist depot a) 3) (= (dist a b) 2) (= (dist b depot) 4))
  (:goal (and (loaded t2) (at t1 b))))
"""


def naive_ground(domain, problem):
    """Independent enumeration: every type-consistent binding, minus the two
    documented prunes (contradictory preconditions, statically false atoms),
    as {name: (pre_pos, pre_neg, add, delete, cost)}."""
    parents = domain.type_parents()

    def is_a(ty, wanted):
        while True:
            if ty == wanted:
                return True
            if ty == "object":
                return False
            ty = parents.get(ty, "object")

    objects = list(domain.constants) + list(problem.objects)
    added = {lit.name for schema in domain.actions for lit in schema.add}
    fn_values = dict(problem.function_values)
    unit = ":action-costs" not in domain.requirements
    out = {}
    for schema in domain.actions:
        pools = [[o for o, ty in objects if is_a(ty, want)]
                 for _, want in schema.params]
        for combo in itertools.product(*pools):
            bind = dict(zip((v for v, _ in schema.params), combo))

            def atoms(lits):
                return frozenset((l.name,) + tuple(bind.get(a, a)
                                                   for a in l.args)
                                 for l in lits)
            pos = atoms(l for l in schema.precondition if l.positive)
            neg = atoms(l for l in schema.precondition if not l.positive)
            if pos & neg:
                continue
            if any(atom not in problem.init and atom[0] not in added
                   for atom in pos):
                continue
            cost = schema.cost_constant + sum(
                fn_values[(fname, tuple(bind.get(a, a) for a in args))]
                for fname, args in schema.cost_terms)
            if unit and not schema.has_cost_effect:
                cost = 1.0
            name = "(" + " ".join((schema.name,) + combo) + ")"
            out[name] = (pos, neg, atoms(schema.add), atoms(schema.delete),
                         cost)
    return out


def test_ground_matches_naive_enumeration():
    cases = [problem_file(f) for f in ("transport_1.pddl", "transport_3.pddl")]
    depot = parse_domain(DEPOT_DOMAIN)
    cases.append((depot, parse_problem(DEPOT_PROBLEM, depot)))
    toy = parse_domain(TOY_DOMAIN)
    cases.append((toy, parse_problem(TOY_PROBLEM, toy)))
    for domain, problem in cases:
        actions = ground(domain, problem)
        assert {a.name: (a.pre_pos, a.pre_neg, a.add, a.delete, a.cost)
                for a in actions} == naive_ground(domain, problem)
        assert [a.name for a in actions] == sorted(a.name for a in actions)
    # the constant fills its argument, and the static prune keeps only the
    # listed roads
    names = [a.name for a in ground(*cases[2])]
    assert "(load t1)" in names and "(drive t1 a b)" in names
    assert "(drive t1 b a)" not in names
    assert "(unload-at-depot t1 b)" in names
    assert "(unload-at-depot t1 a)" not in names


def test_ground_prunes_self_moves():
    domain, problem = problem_file("transport_1.pddl")
    for act in ground(domain, problem):
        parts = act.name.strip("()").split()
        if parts[0] == "move":
            assert parts[2] != parts[3]


def test_unit_cost_without_action_costs_requirement():
    domain = parse_domain(TOY_DOMAIN)
    problem = parse_problem(TOY_PROBLEM, domain)
    assert all(a.cost == 1.0 for a in ground(domain, problem))


# ---------------------------------------------------------------------------
# search


def dijkstra_cost(domain, problem):
    """Minimal goal cost by plain Dijkstra over the state graph."""
    actions = ground(domain, problem)
    goal = problem.goal
    dist = {problem.init: 0.0}
    heap = [(0.0, 0, problem.init)]
    tick = itertools.count(1)
    while heap:
        d, _, state = heapq.heappop(heap)
        if d > dist.get(state, math.inf):
            continue
        if all(atom in state for atom in goal):
            return d
        for act in actions:
            if not act.applicable(state):
                continue
            nxt = act.apply(state)
            nd = d + act.cost
            if nd < dist.get(nxt, math.inf):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, next(tick), nxt))
    return math.inf


def test_optimal_plan_on_small_problem():
    domain, problem = problem_file("transport_1.pddl")
    result = plan(domain, problem, mode="optimal")
    # drive to the shelf, perceive, grasp, drive back, place
    assert result.cost == 5.0
    assert len(result.actions) == 5
    assert result.names()[0] == "(move youbot ws shelf)"
    assert validate(domain, problem, result).ok


def test_optimal_cost_equals_dijkstra_oracle():
    for fname in ("transport_1.pddl", "transport_3.pddl"):
        domain, problem = problem_file(fname)
        result = plan(domain, problem, mode="optimal")
        assert result.cost == dijkstra_cost(domain, problem)
        assert validate(domain, problem, result).ok


def test_greedy_solves_but_may_overpay():
    domain, problem = problem_file("transport_3.pddl")
    greedy = plan(domain, problem, mode="greedy")
    optimal = plan(domain, problem, mode="optimal")
    assert validate(domain, problem, greedy).ok
    assert greedy.cost >= optimal.cost
    assert optimal.cost == 19.0


def test_plan_is_deterministic():
    domain, problem = problem_file("transport_3.pddl")
    a = plan(domain, problem, mode="optimal")
    b = plan(domain, problem, mode="optimal")
    assert a.names() == b.names()


def seeded_transport(seed, items, locations):
    """A transport problem for the bundled domain: random drive costs 1-9
    between every two locations, and each item wanted at a location other
    than the one it starts at."""
    rng = random.Random(1000 * seed + 10 * items + locations)
    locs = [f"loc{i}" for i in range(locations)]
    names = [f"item{i}" for i in range(items)]
    init = [f"(at youbot {rng.choice(locs)})", "(gripper-empty youbot)"]
    goal = []
    for item in names:
        start, end = rng.sample(locs, 2)
        init.append(f"(item-at {item} {start})")
        goal.append(f"(item-at {item} {end})")
    for a, b in itertools.combinations(locs, 2):
        cost = rng.randint(1, 9)
        init += [f"(= (distance {a} {b}) {cost})",
                 f"(= (distance {b} {a}) {cost})"]
    text = (f"(define (problem seeded) (:domain transport)"
            f" (:objects youbot - robot {' '.join(names)} - item"
            f" {' '.join(locs)} - location)"
            f" (:init {' '.join(init)}) (:goal (and {' '.join(goal)}))"
            f" (:metric minimize (total-cost)))")
    domain = transport()
    return domain, parse_problem(text, domain)


# plan.txt lines of each seeded problem, "<seed>-<items>x<locations>-<mode>"
PINNED_PLANS = json.loads(
    Path(__file__).with_name("data").joinpath("seeded_plans.json").read_text())


@pytest.mark.parametrize("seed, items, locations, mode", [
    (seed, items, locations, mode)
    for seed in (1, 2) for locations in (2, 3)
    for mode, most in (("optimal", 4), ("greedy", 6))
    for items in range(2, most + 1)])
def test_seeded_plans_are_pinned(seed, items, locations, mode):
    domain, problem = seeded_transport(seed, items, locations)
    result = plan(domain, problem, mode=mode)
    key = f"{seed}-{items}x{locations}-{mode}"
    assert format_plan(result).splitlines() == PINNED_PLANS[key]


TIE_DOMAIN = """
(define (domain tie)
  (:requirements :strips :action-costs)
  (:predicates (p) (q) (done))
  (:functions (total-cost))
  (:action detour :parameters () :precondition ({detour})
    :effect (and (done) (increase (total-cost) 5)))
  (:action drive :parameters () :precondition ({drive})
    :effect (and (done) (increase (total-cost) 1))))
"""


@pytest.mark.parametrize("detour, drive", [("p", "q"), ("q", "p")])
def test_greedy_keeps_the_lower_index_of_two_ways_to_one_state(detour,
                                                               drive):
    # both actions lead from init to the same state; greedy keeps the first
    # path to a state, which must be the lower sorted index whichever
    # precondition atom comes first
    domain = parse_domain(TIE_DOMAIN.format(detour=detour, drive=drive))
    problem = parse_problem("(define (problem t) (:domain tie)"
                            " (:init (p) (q)) (:goal (done)))", domain)
    greedy = plan(domain, problem, mode="greedy")
    assert (greedy.names(), greedy.cost) == (("(detour)",), 5.0)
    assert (greedy.expanded, greedy.generated) == (1, 2)
    optimal = plan(domain, problem, mode="optimal")
    assert (optimal.names(), optimal.cost) == (("(drive)",), 1.0)


def test_a_repeated_goal_atom_counts_once():
    domain = parse_domain("""
        (define (domain two) (:requirements :strips)
          (:predicates (a) (b))
          (:action make-a :parameters () :effect (a))
          (:action make-b :parameters () :effect (b)))""")
    repeated, single = (
        parse_problem("(define (problem t) (:domain two) (:init)"
                      f" (:goal (and {goal})))", domain)
        for goal in ("(b) (b) (a)", "(b) (a)"))
    # a goal is a set of atoms: listing (b) twice changes nothing, so
    # greedy makes (a) first, as (make-a) sorts first
    greedy = plan(domain, repeated, mode="greedy")
    assert outcome(greedy) == outcome(plan(domain, single, mode="greedy"))
    assert greedy.names() == ("(make-a)", "(make-b)")
    actions = ground(domain, repeated)
    assert (compile_task(actions, repeated.goal).goal
            == compile_task(actions, single.goal).goal)
    assert validate(domain, repeated, greedy).ok
    text = print_problem(repeated)
    assert print_problem(parse_problem(text, domain)) == text


def test_plan_counts_expanded_and_generated_states():
    domain, problem = problem_file("transport_3.pddl")
    for mode in ("optimal", "greedy"):
        result = plan(domain, problem, mode=mode)
        assert len(result.actions) <= result.expanded < result.generated
    assert Plan(actions=(), cost=0.0).expanded == 0


def test_plan_rejects_unknown_mode():
    domain, problem = problem_file("transport_1.pddl")
    with pytest.raises(ValueError, match="mode"):
        plan(domain, problem, mode="astar")


def test_unsolvable_goal():
    domain = parse_domain(TOY_DOMAIN)
    text = TOY_PROBLEM.replace("(:init (clear a) (clear b))",
                               "(:init (clear a))")
    problem = parse_problem(text, domain)
    with pytest.raises(Unsolvable):
        plan(domain, problem)


# ---------------------------------------------------------------------------
# compiled search against the reference


def reference_search(actions, init, goal, mode="optimal"):
    """A frozen copy of ``search`` as it was before it took a compiled
    task: it numbers the atoms of init, goal and actions afresh on every
    call, and files and layers them as ``compile_task`` does."""
    if mode not in ("optimal", "greedy"):
        raise ValueError(f"mode must be 'optimal' or 'greedy', got {mode!r}")
    atoms = set(init).union(goal)
    for act in actions:
        atoms.update(act.pre_pos, act.pre_neg, act.add, act.delete)
    bit = {atom: 1 << i for i, atom in enumerate(sorted(atoms))}

    def mask(part):
        return sum(map(bit.__getitem__, part))

    filed = {}                  # lowest precondition bit -> rows
    unfiled = []                # no positive precondition
    for idx, a in enumerate(actions):
        pre = mask(a.pre_pos)
        row = (idx, pre, mask(a.pre_neg), ~mask(a.delete), mask(a.add),
               a.cost)
        if pre:
            filed.setdefault(pre & -pre, []).append(row)
        else:
            unfiled.append(row)
    filed_bits = sum(filed)
    tried = {}                  # state & filed_bits -> rows

    # greedy counts a goal atom once per listing: layer k holds the atoms
    # listed more than k times, and layer 0 is the goal
    layers = []
    listings = {}
    for atom in goal:
        k = listings[atom] = listings.get(atom, 0) + 1
        if k > len(layers):
            layers.append(0)
        layers[k - 1] |= bit[atom]
    goal_bits = layers[0] if layers else 0

    def unsatisfied(state):
        count = 0
        for layer in layers:
            count += (layer & ~state).bit_count()
        return count

    optimal = mode == "optimal"
    start = mask(init)
    # frontier entries: (priority, path indices, state, cost)
    frontier = [(0.0 if optimal else unsatisfied(start), (), start, 0.0)]
    best_cost = {start: 0.0}
    closed = set()
    expanded = generated = 0
    push, pop, inf = heapq.heappush, heapq.heappop, math.inf

    while frontier:
        _, path, state, cost = pop(frontier)
        if state & goal_bits == goal_bits:
            return Plan(actions=tuple(actions[i] for i in path), cost=cost,
                        expanded=expanded, generated=generated)
        if state in closed:
            continue
        closed.add(state)
        expanded += 1
        key = state & filed_bits
        rows = tried.get(key)
        if rows is None:
            rows = list(unfiled)
            rest = key
            while rest:
                low = rest & -rest
                rows += filed[low]
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
                if nxt in closed or nxt in best_cost:
                    continue
                best_cost[nxt] = ncost
                push(frontier, (unsatisfied(nxt), path + (idx,), nxt, ncost))
    raise Unsolvable(
        f"no plan reaches the goal ({len(actions)} ground actions explored)")


# an atom that no action of the transport domain reads or writes
LOST = ("lost-tool", "t1")


def outcome(result):
    return result.names(), result.cost, result.expanded, result.generated


def oracle_problems():
    """Every seeded pinned problem, and the bundled transport problems."""
    sizes = sorted({tuple(map(int, re.match(r"(\d+)-(\d+)x(\d+)-", key)
                              .groups())) for key in PINNED_PLANS})
    cases = {f"{seed}-{items}x{locations}":
             seeded_transport(seed, items, locations)
             for seed, items, locations in sizes}
    for name in ("transport_1", "transport_3"):
        cases[name] = problem_file(f"{name}.pddl")
    return cases


ORACLE_PROBLEMS = oracle_problems()


@pytest.mark.parametrize("mode", ["optimal", "greedy"])
@pytest.mark.parametrize("name", sorted(ORACLE_PROBLEMS))
def test_search_matches_reference_search(name, mode):
    # from init, then from each knowledge base along the plan with an atom
    # that no action mentions: the compiled task has no bit for it
    domain, problem = ORACLE_PROBLEMS[name]
    actions = ground(domain, problem)
    task = compile_task(actions, problem.goal)
    first = search(task, problem.init, mode)
    assert outcome(first) == outcome(
        reference_search(actions, problem.init, problem.goal, mode))
    kb = problem.init
    for act in first.actions:
        kb = act.apply(kb)
        got = search(task, kb | {LOST}, mode)
        want = reference_search(actions, kb | {LOST}, problem.goal, mode)
        assert outcome(got) == outcome(want)


def test_one_compiled_task_serves_many_searches():
    domain, problem = problem_file("transport_3.pddl")
    actions = ground(domain, problem)
    middle = problem.init
    for act in plan(domain, problem, "greedy").actions[:5]:
        middle = act.apply(middle)
    inits = [problem.init, middle | {LOST}, problem.init]
    for mode in ("optimal", "greedy"):
        task = compile_task(actions, problem.goal)
        shared = [outcome(search(task, init, mode)) for init in inits]
        fresh = [outcome(search(compile_task(actions, problem.goal), init,
                                mode)) for init in inits]
        assert shared == fresh
        assert shared[0] != shared[1]


def test_compiled_task_shares_nothing_mutable():
    domain, problem = problem_file("transport_3.pddl")
    task = compile_task(ground(domain, problem), problem.goal)
    assert hash(task) == hash(task) and task != compile_task([], ())
    with pytest.raises(TypeError):
        task.bit[LOST] = 1
    with pytest.raises(TypeError):
        task.filed[1] = ()
    assert all(type(rows) is tuple for rows in task.filed.values())


# ---------------------------------------------------------------------------
# validation


def test_validate_reports_first_bad_step():
    domain, problem = problem_file("transport_1.pddl")
    names = ["(move youbot ws shelf)", "(grasp youbot bolt shelf)"]
    result = validate(domain, problem, names)
    assert not result.ok
    assert result.failed_at == 1          # grasp before perceive


def test_validate_reports_missed_goal():
    domain, problem = problem_file("transport_1.pddl")
    result = validate(domain, problem, ["(move youbot ws shelf)"])
    assert not result.ok
    assert result.failed_at == "goal"


def test_validate_accepts_messy_name_spacing():
    domain, problem = problem_file("transport_1.pddl")
    good = plan(domain, problem).names()
    messy = [n.upper().replace(" ", "  ") for n in good]
    assert validate(domain, problem, messy).ok


# ---------------------------------------------------------------------------
# printing and plan files


def test_print_parse_fixpoint():
    domain = transport()
    text1 = print_domain(domain)
    text2 = print_domain(parse_domain(text1))
    assert text1 == text2
    for fname in ("transport_1.pddl", "transport_3.pddl"):
        _, problem = problem_file(fname)
        p1 = print_problem(problem)
        p2 = print_problem(parse_problem(p1, domain))
        assert p1 == p2


def test_format_and_parse_plan_round_trip():
    domain, problem = problem_file("transport_1.pddl")
    result = plan(domain, problem)
    text = format_plan(result)
    assert text.endswith("; cost = 5\n")
    assert parse_plan_text(text) == list(result.names())


def test_parse_plan_text_skips_noise():
    text = "; a comment\n\n(MOVE  youbot ws shelf)\n"
    assert parse_plan_text(text) == ["(move youbot ws shelf)"]
