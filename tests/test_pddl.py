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
                          UnsupportedRequirement, format_plan, ground,
                          parse_domain, parse_plan_text, parse_problem, plan,
                          print_domain, print_problem, validate)

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
    with pytest.raises(UndefinedFunctionValue, match="distance"):
        ground(domain, problem)


def test_negative_cost_rejected():
    domain = transport()
    text = DATA.joinpath("transport_1.pddl").read_text()
    text = text.replace("(= (distance shelf ws) 1)",
                        "(= (distance shelf ws) -2)")
    problem = parse_problem(text, domain)
    with pytest.raises(NegativeCost):
        ground(domain, problem)


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


def naive_ground_names(domain, problem):
    """Independent enumeration: every type-consistent binding, minus the two
    documented prunes (contradictory preconditions, statically false atoms)."""
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
    names = set()
    for schema in domain.actions:
        pools = [[o for o, ty in objects if is_a(ty, want)]
                 for _, want in schema.params]
        for combo in itertools.product(*pools):
            bind = dict(zip((v for v, _ in schema.params), combo))
            pos = {(l.name,) + tuple(bind.get(a, a) for a in l.args)
                   for l in schema.precondition if l.positive}
            neg = {(l.name,) + tuple(bind.get(a, a) for a in l.args)
                   for l in schema.precondition if not l.positive}
            if pos & neg:
                continue
            if any(atom not in problem.init and atom[0] not in added
                   for atom in pos):
                continue
            names.add("(" + " ".join((schema.name,) + combo) + ")")
    return names


def test_ground_matches_naive_enumeration():
    for fname in ("transport_1.pddl", "transport_3.pddl"):
        domain, problem = problem_file(fname)
        actions = ground(domain, problem)
        assert {a.name for a in actions} == naive_ground_names(domain, problem)
        assert [a.name for a in actions] == sorted(a.name for a in actions)


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


def test_greedy_counts_a_repeated_goal_atom_twice():
    domain = parse_domain("""
        (define (domain two) (:requirements :strips)
          (:predicates (a) (b))
          (:action make-a :parameters () :effect (a))
          (:action make-b :parameters () :effect (b)))""")
    problem = parse_problem("(define (problem t) (:domain two) (:init)"
                            " (:goal (and (b) (b) (a))))", domain)
    # (b) is worth two goal atoms, so greedy makes it first although
    # (make-a) sorts first
    assert plan(domain, problem, mode="greedy").names() == ("(make-b)",
                                                            "(make-a)")


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
