"""Component stepping, replan budgets, fault injection, trace invariants."""

import itertools
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from workbot import execution
from workbot.cli import _build_parser
from workbot.execution import (E_FAILURE, E_START, E_STOP, E_STOPPED,
                               E_SUCCESS, E_TRIGGER, ActionBinding,
                               ExecutionTrace, TraceRecord, UnknownAction,
                               component_step, execute, load_bindings,
                               load_fault_script)
from workbot.pddl import (GroundAction, PddlError, Unsolvable, compile_task,
                          ground, parse_domain, parse_problem, plan)

DATA = Path("src/workbot/data")
# the options `workbot exec` runs with unless told otherwise
EXEC = _build_parser().parse_args(["exec", "--domain", "-", "--problem", "-",
                                   "--bindings", "-", "--out", "-"])


def run_exec(domain, problem, bindings, fault_script=None,
             max_replans=EXEC.max_replans, mode=EXEC.mode):
    """execute with the settings of `workbot exec` that a test leaves out:
    no fault script, its replan budget and its search mode."""
    return execute(domain, problem, bindings, fault_script, max_replans, mode)


def transport_problem(name="transport_1.pddl"):
    domain = parse_domain(DATA.joinpath("transport.pddl").read_text(),
                          path="transport.pddl")
    problem = parse_problem(DATA.joinpath(name).read_text(), domain,
                            path=name)
    return domain, problem


def all_success_bindings(domain):
    return {schema.name: ActionBinding(action=schema.name)
            for schema in domain.actions}


def toy_action():
    return GroundAction(name="(flip a)",
                        pre_pos=frozenset({("up", "a")}),
                        pre_neg=frozenset(),
                        add=frozenset({("down", "a")}),
                        delete=frozenset({("up", "a")}),
                        cost=1.0)


# ---------------------------------------------------------------------------
# component_step


def test_stop_answers_stopped_and_preserves_kb():
    binding = ActionBinding(action="flip")
    kb = frozenset({("up", "a")})
    status, after = component_step(binding, E_STOP, kb, toy_action(), run=0)
    assert status == E_STOPPED
    assert after == kb


def test_success_applies_planner_effects():
    binding = ActionBinding(action="flip")
    kb = frozenset({("up", "a"), ("other",)})
    status, after = component_step(binding, E_TRIGGER, kb, toy_action(), run=0)
    assert status == E_SUCCESS
    assert after == frozenset({("down", "a"), ("other",)})


def test_failure_applies_binding_effects_not_planner_effects():
    binding = ActionBinding(action="flip", script=(E_FAILURE,),
                            failure_add=frozenset({("jammed", "a")}),
                            failure_delete=frozenset({("up", "a")}))
    kb = frozenset({("up", "a")})
    status, after = component_step(binding, E_TRIGGER, kb, toy_action(), run=0)
    assert status == E_FAILURE
    assert after == frozenset({("jammed", "a")})


def test_script_last_entry_repeats():
    binding = ActionBinding(action="flip", script=(E_SUCCESS, E_FAILURE))
    statuses = [component_step(binding, E_TRIGGER, frozenset(), toy_action(),
                               run=run)[0] for run in range(4)]
    assert statuses == [E_SUCCESS, E_FAILURE, E_FAILURE, E_FAILURE]


def test_component_step_is_a_function_of_its_arguments():
    binding = ActionBinding(action="flip", script=(E_FAILURE, E_SUCCESS),
                            failure_add=frozenset({("jammed", "a")}))
    before = replace(binding)
    kb = frozenset({("up", "a")})
    first = component_step(binding, E_TRIGGER, kb, toy_action(), run=0)
    second = component_step(binding, E_TRIGGER, kb, toy_action(), run=0)
    assert first == second == (E_FAILURE, kb | {("jammed", "a")})
    assert binding == before


def test_unknown_event_rejected():
    with pytest.raises(ValueError, match="unknown event"):
        component_step(ActionBinding(action="flip"), "e_jump", frozenset(),
                       toy_action(), run=0)


def test_binding_script_validation():
    with pytest.raises(ValueError, match="empty"):
        ActionBinding(action="flip", script=())
    with pytest.raises(ValueError, match="script entries"):
        ActionBinding(action="flip", script=("e_stopped",))


# ---------------------------------------------------------------------------
# execute


def test_all_success_run():
    domain, problem = transport_problem()
    trace = run_exec(domain, problem, all_success_bindings(domain))
    assert trace.outcome == "Success"
    assert trace.replans == 0
    assert trace.plans_attempted == 1
    assert ("item-at", "bolt", "ws") in trace.final_kb
    assert all(r.status == E_SUCCESS for r in trace.records)


def test_fail_once_replans_once_and_succeeds():
    domain, problem = transport_problem()
    bindings = all_success_bindings(domain)
    bindings["grasp"] = ActionBinding(action="grasp",
                                      script=(E_FAILURE, E_SUCCESS))
    trace = run_exec(domain, problem, bindings)
    assert trace.outcome == "Success"
    assert trace.replans == 1
    assert trace.plans_attempted == 2
    failures = [r for r in trace.records if r.status == E_FAILURE]
    assert len(failures) == 1
    assert failures[0].action.startswith("(grasp")
    assert ("item-at", "bolt", "ws") in trace.final_kb


def test_fail_always_exhausts_budget_after_four_plans():
    domain, problem = transport_problem()
    bindings = all_success_bindings(domain)
    bindings["grasp"] = ActionBinding(action="grasp", script=(E_FAILURE,))
    trace = run_exec(domain, problem, bindings, max_replans=3)
    assert trace.outcome == "ReplanBudgetExhausted"
    assert trace.plans_attempted == 4
    assert trace.replans == 4
    assert sum(1 for r in trace.records if r.status == E_FAILURE) == 4


def test_failure_effects_can_make_replanning_unsolvable():
    domain, problem = transport_problem()
    bindings = all_success_bindings(domain)
    # the failed grasp knocks the bolt out of the world entirely
    bindings["grasp"] = ActionBinding(
        action="grasp", script=(E_FAILURE, E_SUCCESS),
        failure_delete=frozenset({("item-at", "bolt", "shelf")}))
    trace = run_exec(domain, problem, bindings)
    assert trace.outcome == "Unsolvable"
    assert trace.replans == 1
    assert trace.plans_attempted == 2


def test_unsolvable_from_the_start():
    domain, problem = transport_problem()
    hopeless = replace(problem, init=problem.init
                       - frozenset({("item-at", "bolt", "shelf")}))
    trace = run_exec(domain, hopeless, all_success_bindings(domain))
    assert trace.outcome == "Unsolvable"
    assert trace.records == ()
    assert trace.plans_attempted == 1


def test_fault_script_forces_step_without_consuming_cursor():
    domain, problem = transport_problem()
    bindings = all_success_bindings(domain)
    trace = run_exec(domain, problem, bindings,
                     fault_script=load_fault_script({"0": E_FAILURE}))
    assert trace.outcome == "Success"
    assert trace.replans == 1
    assert trace.records[0].status == E_FAILURE
    # every binding script is all-success, so the failure did not come from
    # any component script; nor did it advance one: a script that fails its
    # own first run still fails the first run after the forced failure
    first_schema = trace.records[0].action.strip("()").split()[0]
    bindings[first_schema] = ActionBinding(action=first_schema,
                                           script=(E_FAILURE, E_SUCCESS))
    trace = run_exec(domain, problem, bindings,
                     fault_script=load_fault_script({"0": E_FAILURE}))
    runs = [r.status for r in trace.records[1:]
            if r.action.startswith(f"({first_schema}")]
    assert runs[:2] == [E_FAILURE, E_SUCCESS]
    assert trace.outcome == "Success"


def test_execute_runs_every_unforced_step_through_component_step(monkeypatch):
    domain, problem = transport_problem("transport_3.pddl")
    bindings = bundled_bindings()
    bindings["grasp"] = replace(bindings["grasp"],
                                script=(E_FAILURE, E_SUCCESS))
    faults = {1: E_FAILURE, 4: E_SUCCESS}
    want = run_exec(domain, problem, bindings, fault_script=faults)
    calls = []

    def spy(binding, event, kb, ground_action=None, run=0):
        calls.append((binding.action, event, ground_action.name, run))
        return component_step(binding, event, kb, ground_action, run)

    monkeypatch.setattr(execution, "component_step", spy)
    got = run_exec(domain, problem, bindings, fault_script=faults)
    assert got.records == want.records and got.outcome == want.outcome
    unforced = [r for r in want.records if r.step not in faults]
    assert [c[2] for c in calls] == [r.action for r in unforced]
    assert {c[1] for c in calls} == {E_START}
    # each binding's runs count up from 0, forced steps not counted
    for name in bindings:
        runs = [c[3] for c in calls if c[0] == name]
        assert runs == list(range(len(runs)))
    assert E_FAILURE in [r.status for r in unforced]


def test_execute_leaves_the_callers_bindings_untouched():
    domain, problem = transport_problem()
    bindings = all_success_bindings(domain)
    bindings["grasp"] = ActionBinding(action="grasp",
                                      script=(E_FAILURE, E_SUCCESS))
    before = {name: replace(b) for name, b in bindings.items()}
    first = run_exec(domain, problem, bindings)
    second = run_exec(domain, problem, bindings)
    assert first.records == second.records
    assert first.to_jsonl() == second.to_jsonl()
    # the bindings are unchanged, and each run starts the script fresh: the
    # first grasp fails
    assert bindings == before
    grasps = [r.status for r in first.records if r.action.startswith("(grasp")]
    assert grasps == [E_FAILURE, E_SUCCESS]


def test_fault_script_rejects_bad_status():
    domain, problem = transport_problem()
    with pytest.raises(ValueError, match="fault script"):
        run_exec(domain, problem, all_success_bindings(domain),
                 fault_script={0: "e_stopped"})


def test_fault_script_statuses_are_checked_before_planning():
    domain, problem = transport_problem()
    with pytest.raises(ValueError, match="^fault script step 99: status "
                                         "must be e_success/e_failure, "
                                         "got 'bogus'$"):
        run_exec(domain, problem, all_success_bindings(domain),
                 fault_script={0: E_FAILURE, 99: "bogus"})


def test_load_fault_script_names_a_bad_step_key():
    with pytest.raises(ValueError, match="^fault script: step 'x' must be "
                                         "a whole number$"):
        load_fault_script({"0": E_FAILURE, "x": E_FAILURE})


def test_missing_binding_raises():
    domain, problem = transport_problem()
    bindings = all_success_bindings(domain)
    del bindings["place"]
    with pytest.raises(UnknownAction, match="place"):
        run_exec(domain, problem, bindings)


# ---------------------------------------------------------------------------
# trace invariants


def effects_map(domain, problem, trace):
    """name -> ground action, grounded against everything the run ever knew."""
    union = problem.init.union(*[r.kb_after for r in trace.records])
    return {a.name: a
            for a in ground(domain, replace(problem, init=union))}


def test_kb_frame_property_holds_along_the_trace():
    domain, problem = transport_problem("transport_3.pddl")
    bindings = all_success_bindings(domain)
    bindings["grasp"] = ActionBinding(action="grasp",
                                      script=(E_FAILURE, E_SUCCESS))
    trace = run_exec(domain, problem, bindings)
    actions = effects_map(domain, problem, trace)
    kb = problem.init
    for rec in trace.records:
        act = actions[rec.action]
        binding = bindings[rec.action.strip("()").split()[0]]
        if rec.status == E_SUCCESS:
            kb = (kb - act.delete) | act.add
        else:
            kb = (kb - binding.failure_delete) | binding.failure_add
        assert rec.kb_after == kb
        assert rec.kb_size == len(kb)
    assert trace.final_kb == kb


def test_trace_steps_are_global_and_contiguous():
    domain, problem = transport_problem()
    bindings = all_success_bindings(domain)
    bindings["grasp"] = ActionBinding(action="grasp",
                                      script=(E_FAILURE, E_SUCCESS))
    trace = run_exec(domain, problem, bindings)
    assert [r.step for r in trace.records] == list(range(len(trace.records)))


def test_to_jsonl_shape_and_determinism():
    domain, problem = transport_problem()
    bindings = all_success_bindings(domain)
    bindings["grasp"] = ActionBinding(action="grasp",
                                      script=(E_FAILURE, E_SUCCESS))
    text = run_exec(domain, problem, bindings).to_jsonl()
    again = run_exec(domain, problem, bindings).to_jsonl()
    assert text == again
    lines = [json.loads(line) for line in text.strip().split("\n")]
    *records, summary = lines
    assert summary == {"outcome": "Success", "replans": 1,
                       "plans_attempted": 2}
    for rec in records:
        assert set(rec) == {"step", "action", "status", "kb_size", "replans"}


# ---------------------------------------------------------------------------
# loaders


def test_load_bindings_round_trip():
    obj = {"grasp": {"script": [E_FAILURE, E_SUCCESS],
                     "failure_add": [["jammed", "g"]],
                     "failure_delete": [["ready"]]},
           "move": {}}
    bindings = load_bindings(obj)
    assert bindings["grasp"].script == (E_FAILURE, E_SUCCESS)
    assert bindings["grasp"].failure_add == frozenset({("jammed", "g")})
    assert bindings["grasp"].failure_delete == frozenset({("ready",)})
    assert bindings["move"].script == (E_SUCCESS,)


def test_load_fault_script_coerces_keys():
    assert load_fault_script({"3": E_FAILURE}) == {3: E_FAILURE}


# ---------------------------------------------------------------------------
# grounding once: execute against a loop that grounds on every attempt


def reference_execute(domain, problem, bindings, fault_script=None,
                      max_replans=EXEC.max_replans, mode=EXEC.mode):
    """The executor as a loop that plans each attempt from scratch with
    ``plan(domain, replace(problem, init=kb))``, so that it grounds the
    problem again from every knowledge base."""
    fault_script = fault_script or {}
    runs = dict.fromkeys(bindings, 0)
    kb, records, replans, plans_attempted, step = problem.init, [], 0, 0, 0
    outcome = None
    while outcome is None:
        plans_attempted += 1
        try:
            the_plan = plan(domain, replace(problem, init=kb), mode)
        except Unsolvable:
            outcome = "Unsolvable"
            break
        outcome = "Success"
        for act in the_plan.actions:
            name = act.name.strip("()").split()[0]
            binding = bindings[name]
            status = fault_script.get(step)
            if status is None:
                status = binding.script[min(runs[name],
                                            len(binding.script) - 1)]
                runs[name] += 1
            if status == E_SUCCESS:
                kb = (kb - act.delete) | act.add
            else:
                kb = (kb - binding.failure_delete) | binding.failure_add
                replans += 1
            records.append(TraceRecord(step=step, action=act.name,
                                       status=status, kb_size=len(kb),
                                       replans=replans, kb_after=kb))
            step += 1
            if status == E_FAILURE:
                outcome = ("ReplanBudgetExhausted" if replans > max_replans
                           else None)
                break
    return ExecutionTrace(records=tuple(records), outcome=outcome,
                          final_kb=kb, replans=replans,
                          plans_attempted=plans_attempted)


def run_both(domain, problem, bindings, **kwargs):
    """(execute, reference) results: each a trace's JSONL, records and
    final kb, or the type and message of the error it raised."""
    results = []
    for run in (run_exec, reference_execute):
        try:
            trace = run(domain, problem, bindings, **kwargs)
        except PddlError as exc:
            results.append((type(exc).__name__, str(exc)))
        else:
            results.append((trace.to_jsonl(), trace.records, trace.final_kb))
    return results


def bundled_bindings():
    return load_bindings(json.loads(DATA.joinpath("bindings.json")
                                    .read_text()))


@pytest.mark.parametrize("mode", ["greedy", "optimal"])
@pytest.mark.parametrize("name", ["transport_1.pddl", "transport_3.pddl"])
def test_execute_matches_regrounding_reference_on_every_two_faults(name,
                                                                   mode):
    domain, problem = transport_problem(name)
    bindings = bundled_bindings()
    length = len(plan(domain, problem, mode).actions)
    scripts = [{i: E_FAILURE} for i in range(length)]
    scripts += [{i: E_FAILURE, j: E_FAILURE}
                for i, j in itertools.combinations(range(length), 2)]
    for faults in scripts:
        got, want = run_both(domain, problem, bindings, fault_script=faults,
                             mode=mode)
        assert got == want, faults


# `road` is static: no action adds it, so grounding prunes every drive
# along a road that init lacks, and only a failure's `failure_add` can
# bring one back
ROADS_DOMAIN = """
(define (domain roads)
  (:requirements :strips :typing :action-costs)
  (:types loc)
  (:predicates (at ?l - loc) (road ?a - loc ?b - loc))
  (:functions (dist ?a - loc ?b - loc) (total-cost))
  (:action drive
    :parameters (?a - loc ?b - loc)
    :precondition (and (at ?a) (road ?a ?b))
    :effect (and (at ?b) (not (at ?a))
                 (increase (total-cost) (dist ?a ?b)))))
"""


def roads_problem(locs, roads, dists, goal):
    domain = parse_domain(ROADS_DOMAIN, path="roads.pddl")
    init = [f"(at {locs[0]})"] + [f"(road {a} {b})" for a, b in roads]
    init += [f"(= (dist {a} {b}) {d})" for (a, b), d in dists.items()]
    text = (f"(define (problem roads-1) (:domain roads)"
            f" (:objects {' '.join(locs)} - loc)"
            f" (:init {' '.join(init)} (= (total-cost) 0))"
            f" (:goal (and (at {goal})))"
            f" (:metric minimize (total-cost)))")
    return domain, parse_problem(text, domain, path="roads-1.pddl")


def detour_binding():
    """A drive that fails once, closing road b-c and opening road a-c."""
    return {"drive": ActionBinding(
        action="drive", script=(E_FAILURE, E_SUCCESS),
        failure_add=frozenset({("road", "a", "c")}),
        failure_delete=frozenset({("road", "b", "c")}))}


@pytest.mark.parametrize("mode", ["greedy", "optimal"])
def test_a_failure_that_adds_a_static_atom_grounds_again(mode):
    # the only way left to c is the road that the failure opened
    dists = {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 5}
    domain, problem = roads_problem(["a", "b", "c"],
                                    [("a", "b"), ("b", "c")], dists, "c")
    got, want = run_both(domain, problem, detour_binding(), mode=mode)
    assert got == want
    trace = run_exec(domain, problem, detour_binding(), mode=mode)
    assert trace.outcome == "Success"
    assert [r.action for r in trace.records] == ["(drive a b)",
                                                 "(drive a c)"]


@pytest.mark.parametrize("mode", ["greedy", "optimal"])
def test_a_regrounding_raises_as_grounding_from_scratch_does(mode):
    # the opened road has no distance, which only a new grounding sees
    dists = {("a", "b"): 1, ("b", "c"): 1}
    domain, problem = roads_problem(["a", "b", "c"],
                                    [("a", "b"), ("b", "c")], dists, "c")
    got, want = run_both(domain, problem, detour_binding(), mode=mode)
    assert got == want
    assert got == ("UndefinedFunctionValue",
                   "(dist a c) has no value in init")


@pytest.mark.parametrize("mode", ["greedy", "optimal"])
def test_execute_matches_regrounding_reference_on_seeded_road_maps(mode):
    rng = random.Random(16)
    locs = ["a", "b", "c", "d", "e"]
    pairs = [(x, y) for x in locs for y in locs if x != y]
    errors = 0
    for _ in range(150):
        roads = [p for p in pairs if rng.random() < 0.5]
        dists = {p: rng.randint(1, 5) for p in pairs
                 if p in roads or rng.random() < 0.7}
        domain, problem = roads_problem(locs, roads, dists,
                                        rng.choice(locs[1:]))
        bindings = {"drive": ActionBinding(
            action="drive",
            script=tuple(rng.choice([E_SUCCESS, E_FAILURE])
                         for _ in range(rng.randint(1, 3))),
            failure_add=frozenset({("road", *rng.choice(pairs))}),
            failure_delete=frozenset({("road", *rng.choice(pairs))}))}
        faults = {i: E_FAILURE for i in range(4) if rng.random() < 0.3}
        got, want = run_both(domain, problem, bindings, fault_script=faults,
                             mode=mode)
        assert got == want
        errors += len(got) == 2
    # some maps raise at a regrounding, and most do not
    assert 0 < errors < 75


def counting_ground(monkeypatch):
    """The init of each ``ground`` call and the goal of each
    ``compile_task`` call that ``execute`` makes."""
    calls = {"ground": [], "compile_task": []}

    def counted_ground(domain, problem):
        calls["ground"].append(problem.init)
        return ground(domain, problem)

    def counted_compile(actions, goal):
        calls["compile_task"].append(goal)
        return compile_task(actions, goal)
    monkeypatch.setattr(execution, "ground", counted_ground)
    monkeypatch.setattr(execution, "compile_task", counted_compile)
    return calls


def test_execute_grounds_once_when_no_failure_adds_atoms(monkeypatch):
    domain, problem = transport_problem("transport_3.pddl")
    calls = counting_ground(monkeypatch)
    trace = run_exec(domain, problem, bundled_bindings())
    assert (trace.outcome, trace.plans_attempted) == ("Success", 2)
    assert calls == {"ground": [problem.init], "compile_task": [problem.goal]}


def test_execute_grounds_again_after_a_failure_that_adds_atoms(monkeypatch):
    domain, problem = transport_problem("transport_3.pddl")
    bindings = bundled_bindings()
    bindings["grasp"] = replace(bindings["grasp"], failure_add=frozenset(
        {("perceived", "bolt")}))
    calls = counting_ground(monkeypatch)
    trace = run_exec(domain, problem, bindings)
    assert (trace.outcome, trace.plans_attempted) == ("Success", 2)
    assert len(calls["ground"]) == 2 and calls["ground"][0] == problem.init
    assert ("perceived", "bolt") in calls["ground"][1]
    assert calls["compile_task"] == [problem.goal] * 2


@pytest.mark.parametrize("max_replans", [-1, -7])
def test_execute_rejects_a_negative_replan_budget(monkeypatch, max_replans):
    domain, problem = transport_problem("transport_3.pddl")
    calls = counting_ground(monkeypatch)
    with pytest.raises(ValueError) as err:
        run_exec(domain, problem, bundled_bindings(), max_replans=max_replans)
    assert str(err.value) == (f"max_replans must be at least 0, "
                              f"got {max_replans}")
    assert calls == {"ground": [], "compile_task": []}


def test_execute_accepts_a_zero_replan_budget():
    domain, problem = transport_problem("transport_3.pddl")
    trace = run_exec(domain, problem, bundled_bindings(), max_replans=0)
    assert (trace.outcome, trace.replans, trace.plans_attempted) == (
        "ReplanBudgetExhausted", 1, 1)
