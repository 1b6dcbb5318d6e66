"""Synchronous plan executor over scripted action components.

Each planner action maps to a component that answers event commands with a
status.  Failures trigger replanning from the current knowledge base until
the goal holds or the replan budget runs out; every step lands in a trace
that can be dumped as JSON Lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .errors import WorkbotError
from .jsonio import decode
from .pddl import (Atom, DomainDef, GroundAction, ProblemDef, Unsolvable,
                   compile_task, ground, search as make_plan)

E_START = "e_start"
E_STOP = "e_stop"
E_TRIGGER = "e_trigger"
EVENTS = (E_START, E_STOP, E_TRIGGER)

E_SUCCESS = "e_success"
E_FAILURE = "e_failure"
E_STOPPED = "e_stopped"

OUTCOME_SUCCESS = "Success"
OUTCOME_BUDGET = "ReplanBudgetExhausted"
OUTCOME_UNSOLVABLE = "Unsolvable"


class ExecutionError(WorkbotError):
    pass


class UnknownAction(ExecutionError):
    pass


@dataclass(frozen=True)
class ActionBinding:
    """Deterministic component behavior for one planner action.

    ``script`` lists the statuses successive runs return; the last entry
    repeats once the script is exhausted.  On failure the knowledge base
    gains ``failure_add`` and loses ``failure_delete`` (both default empty:
    a failed attempt leaves the world as it was).
    """

    action: str
    script: tuple[str, ...] = (E_SUCCESS,)
    failure_add: frozenset[Atom] = frozenset()
    failure_delete: frozenset[Atom] = frozenset()

    def __post_init__(self):
        if not self.script:
            raise ValueError("script must not be empty")
        for status in self.script:
            if status not in (E_SUCCESS, E_FAILURE):
                raise ValueError(f"script entries must be "
                                 f"{E_SUCCESS}/{E_FAILURE}, got {status}")

    def status_at(self, run: int) -> str:
        """Status of the binding's run-th run (0-based)."""
        return self.script[min(run, len(self.script) - 1)]


def component_step(binding: ActionBinding, event: str,
                   kb: frozenset[Atom], ground_action: GroundAction,
                   run: int) -> tuple[str, frozenset[Atom]]:
    """One command/status exchange with a component, as its run-th run
    (0-based).

    e_stop answers e_stopped and leaves the kb alone.  e_trigger and
    e_start both run the behavior to completion: success applies the ground
    action's planner effects, failure applies the binding's failure effects.
    """
    if event not in EVENTS:
        raise ValueError(f"unknown event: {event}")
    if event == E_STOP:
        return E_STOPPED, kb
    status = binding.status_at(run)
    return status, _apply_status(binding, status, kb, ground_action)


def _apply_status(binding: ActionBinding, status: str, kb: frozenset[Atom],
                  ground_action: GroundAction) -> frozenset[Atom]:
    """Knowledge base after a run: the ground action's planner effects on
    success, the binding's failure effects on failure."""
    if status == E_SUCCESS:
        return ground_action.apply(kb)
    return (kb - binding.failure_delete) | binding.failure_add


@dataclass(frozen=True)
class TraceRecord:
    step: int
    action: str
    status: str
    kb_size: int
    replans: int
    kb_after: frozenset[Atom]

    def to_json(self) -> dict:
        return {"step": self.step, "action": self.action,
                "status": self.status, "kb_size": self.kb_size,
                "replans": self.replans}


@dataclass(frozen=True)
class ExecutionTrace:
    records: tuple[TraceRecord, ...]
    outcome: str
    final_kb: frozenset[Atom]
    replans: int
    plans_attempted: int

    def to_jsonl(self) -> str:
        lines = [json.dumps(r.to_json(), sort_keys=True)
                 for r in self.records]
        lines.append(json.dumps({"outcome": self.outcome,
                                 "replans": self.replans,
                                 "plans_attempted": self.plans_attempted},
                                sort_keys=True))
        return "\n".join(lines) + "\n"


def _schema_name(ground_name: str) -> str:
    return ground_name.strip("()").split()[0]


def execute(domain: DomainDef, problem: ProblemDef,
            bindings: dict[str, ActionBinding],
            fault_script: dict[int, str] | None, max_replans: int,
            mode: str) -> ExecutionTrace:
    """Plan, run each step through its component, replan on failure.

    Each plan searches the task grounded and compiled once; only a failure
    that adds atoms (maybe ones no action adds) does both again.
    ``fault_script`` forces the status of specific global step indices
    (counted across replans) without consuming the binding's own script;
    every other step is one e_start exchange through ``component_step``.
    The budget allows max_replans >= 0 replans, i.e. max_replans + 1 plans
    in total; exhausting it, or an unsolvable replanning state, ends the
    trace with the corresponding outcome instead of raising.
    """
    for schema in domain.actions:
        if schema.name not in bindings:
            raise UnknownAction(f"no binding for action: {schema.name}")
    fault_script = load_fault_script(fault_script or {})
    if max_replans < 0:
        raise ValueError(f"max_replans must be at least 0, got {max_replans}")
    # how many times each binding has run in this execution
    runs = dict.fromkeys(bindings, 0)

    task = compile_task(ground(domain, problem), problem.goal)
    kb = problem.init
    records: list[TraceRecord] = []
    replans = 0
    plans_attempted = 0
    step = 0
    outcome = None

    while outcome is None:
        plans_attempted += 1
        try:
            the_plan = make_plan(task, kb, mode)
        except Unsolvable:
            outcome = OUTCOME_UNSOLVABLE
            break
        outcome = OUTCOME_SUCCESS
        for act in the_plan.actions:
            name = _schema_name(act.name)
            binding = bindings[name]
            if step in fault_script:
                status = fault_script[step]
                kb = _apply_status(binding, status, kb, act)
            else:
                status, kb = component_step(binding, E_START, kb, act,
                                            run=runs[name])
                runs[name] += 1
            if status == E_FAILURE:
                replans += 1
            records.append(TraceRecord(step=step, action=act.name,
                                       status=status, kb_size=len(kb),
                                       replans=replans, kb_after=kb))
            step += 1
            if status == E_FAILURE:
                outcome = OUTCOME_BUDGET if replans > max_replans else None
                if outcome is None and binding.failure_add:
                    task = compile_task(ground(
                        domain, replace(problem, init=kb)), problem.goal)
                break
    return ExecutionTrace(records=tuple(records), outcome=outcome,
                          final_kb=kb, replans=replans,
                          plans_attempted=plans_attempted)


def load_fault_script(obj: dict, where: str = "") -> dict[int, str]:
    """{"3": "e_failure"} form to {3: "e_failure"}; a step that is not a
    whole number, a negative step, or a status other than
    e_success/e_failure raises ValueError naming the step, after ``where``
    (the file) when given."""
    prefix = f"{where}: " if where else ""
    script = {}
    for key, status in obj.items():
        try:
            step = int(key)
        except ValueError:
            raise ValueError(f"{prefix}fault script: step {key!r} must be a "
                             f"whole number") from None
        if step < 0:
            raise ValueError(f"{prefix}fault script: step {key!r} is "
                             f"negative, but steps count from 0")
        if status not in (E_SUCCESS, E_FAILURE):
            raise ValueError(f"{prefix}fault script step {key}: status must "
                             f"be {E_SUCCESS}/{E_FAILURE}, got {status!r}")
        script[step] = status
    return script


def load_bindings(obj: dict, where: str = "") -> dict[str, ActionBinding]:
    """Bindings from their JSON form.

    Each key names an action schema; the value is an object that may give
    "script" (list of statuses), "failure_add" and "failure_delete" (lists
    of atom lists).  A ValueError names ``where`` (the file) and the binding.
    """
    prefix = f"{where}: " if where else ""
    return {name: decode(ActionBinding,
                         dict(body, action=name) if isinstance(body, dict)
                         else body, f"{prefix}binding {name!r}")
            for name, body in obj.items()}
