"""Seeded workload inputs.

Every input comes from ``workbot.sim`` (scans, detection streams, obstacle
grids) or, for planning, from transport problems written here as PDDL text.
A workload's inputs depend only on its name and ``--seed``; the pipelines
receive nothing but the generated inputs.  Generation and parsing belong to
set-up, so they are timed as ``setup_s`` and never as task time.

Each workload has *main* tasks, which it cycles through until its time is
up, and *reference* tasks, which run a fixed number of times spread over the
run.  The reference tasks run the pipelines the workload does not stress on
the bundled data files, so every workload reports every metric, and those
figures do not move with the seed.  The bundled three-object table also
serves as the bypass case beside the seeded twenty-object ones.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workbot import dwa, kinematics, pddl, sim

from .oracles import ROBOT, Transport

WORKLOADS = ("tabletop", "control_loops", "mission")

# --- shared settings ------------------------------------------------------------

Q0 = np.zeros(kinematics.N_JOINTS)
# arm base for placement ranking: at the table centre, its x axis along the
# perceived table's v axis, 0.2 m above the base of the bundled `place` test.
# From there the arm reaches about 70% of the candidates instead of about
# 25%, so reach_frac rests on more reached candidates per run.
PLACE_BASE_XYZ = np.array([0.0, 0.0, 0.75])
# Which candidates the arm reaches depends on where the objects leave free
# space (too near the base or too far fails), so reach_frac and place_ms vary
# more between table layouts than between the candidates of one.  A scene
# therefore ranks four candidates and grasps one object (the scenes take the
# objects in turn), and a run gets through about twenty layouts.
PLACE_CANDIDATES = 4
GRASP_SAMPLES = 5
GRASP_BASE_Z = 0.55
# the base parks this far from an object, facing it, before a grasp; at
# these distances the arm reaches every generated object height
STANDOFF = (0.30, 0.36)

# scene i has OBJECT_COUNTS[i % 5] objects and density SCAN_DENSITIES[i % 4]:
# 20 distinct combinations, and any prefix of scenes mixes sizes evenly, so
# the median does not jump between a sparse and a dense mode
OBJECT_COUNTS = (1, 2, 3, 4, 5)
SCAN_DENSITIES = (10000.0, 40000.0, 20000.0, 30000.0)   # sim default to 4x
# Seeded tables are square.  The placement frame takes its in-plane axes
# from the smallest component of the estimated table normal, which on a
# level table is noise, so the frame turns by 90 degrees from scan to scan
# at random.  On a square table, with the arm base aligned to that frame,
# the turn changes nothing the arm sees; on the bundled 0.8 x 0.6 table it
# changed which candidates the arm reaches, and reach_frac spread more than
# 40% between seeds.
TABLE_SIDE = 0.7
LABELS = ("bolt_bin", "can", "tape", "gearbox", "cup", "motor", "bearing",
          "screw_box")

GRID_CELLS = 60
GRID_RES = 0.1
# in the order the episodes run: the first three are one of each grid class
# (open, cluttered, sparse), so nav_reached_frac averages the same classes
# in every run that gets through three episodes
GRID_DENSITIES = (0.0, 0.05, 0.01, 0.075, 0.10)
# Whether the robot gets through a sparse grid is close to a coin flip per
# grid, and a run holds only a few: drawn from --seed, they moved
# nav_reached_frac by about 30% between seeds.  The sparse grid is therefore
# one fixed grid, the same in every run; open and cluttered grids follow the
# seed, and their outcome (always reached, never reached) does not.
SPARSE_DENSITY = 0.01
SPARSE_SEED = 0
NAV_MAX_STEPS = 200
NAV_STOP_DIST = 0.15

# (objects on the table, dropout, stream seconds).  Short 20-object streams,
# many of them: the frame-time tail comes from dropout re-solves, which vary
# from stream to stream.  Three-object frames stay the majority (five in
# six), so the p90 frame is a twenty-object one.
STREAM_KINDS = ((3, 0.0, 10.0), (20, 0.1, 2.0), (3, 0.1, 10.0), (20, 0.0, 2.0))
STREAMS_PER_EPISODE = len(STREAM_KINDS)

MISSION_SIZES = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2),
                 (5, 3), (6, 2), (6, 3))
MAX_REPLANS = 3
DIJKSTRA_MAX_ITEMS = 3

# runs of each reference task per run, spread over the run.  The host's speed
# wanders on a scale of seconds, so the reference scene runs as many short
# tasks rather than a few long ones, and each times perception twice, since
# one perception is cheap beside the rest.
REF_REPEATS = {"scene": 4, "nav": 3, "stream": 6, "mission": 16}
REF_PERCEIVE_REPEATS = 2
# distinct main inputs per run; a run that gets through them cycles again
MAIN_SCENES = 24
MAIN_NAV = 20
MAIN_STREAMS = MAIN_NAV * STREAMS_PER_EPISODE
MAIN_MISSIONS = 100


# --- task inputs -------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Scene:
    """One workstation scan plus what the recognisers would report."""

    name: str
    scenario: sim.WorkstationScenario
    cloud: object
    truth: object
    # per object label: (3d scores, 2d scores)
    scores: dict
    # per object index: (bearing, standoff) of the base parked for a grasp
    standoffs: tuple

    @property
    def points(self) -> int:
        return len(self.cloud)


@dataclass(frozen=True, eq=False)
class NavCase:
    name: str
    kind: str       # grid class: open, sparse, cluttered or a bundled map
    cls: str        # timing class: the obstacle density, or the bundled map
    grid: dwa.OccupancyGrid
    start: dwa.RobotState
    goal: tuple[float, float]

    @property
    def blocked(self) -> int:
        return int(np.count_nonzero(self.grid.cells != dwa.FREE))


@dataclass(frozen=True, eq=False)
class Stream:
    name: str
    frames: list
    truth: object
    objects: int
    target_angle: float


@dataclass(frozen=True, eq=False)
class Mission:
    name: str
    task: Transport
    problem: pddl.ProblemDef
    faults: dict[int, str]


@dataclass(frozen=True)
class Task:
    kind: str          # "scene" | "nav" | "stream" | "mission"
    item: object
    # scenes only: timed perceptions, and the object grasped
    perceive_repeats: int = 1
    grasp: int = 0


@dataclass
class Workload:
    refs: list[Task]
    main: list[Task]
    cli: list[str]
    domain: pddl.DomainDef
    chain: kinematics.KinematicChain
    chain_rows: list[dict]
    bindings: dict


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


# --- table-top scenes ----------------------------------------------------------------

def _scene_objects(rng: np.random.Generator, count: int, labels):
    """Non-touching upright boxes and cylinders, all taller than the grasp
    height threshold, well inside the table."""
    objects: list[sim.SceneObject] = []
    radii: list[float] = []
    while len(objects) < count:
        xy = tuple(rng.uniform(-0.23, 0.23, 2))
        height = rng.uniform(0.07, 0.14)
        if rng.random() < 0.5:
            size = (rng.uniform(0.04, 0.08), rng.uniform(0.04, 0.08), height)
            obj = sim.SceneObject(shape="box", label=labels[len(objects)],
                                  position=xy, size=size,
                                  yaw=rng.uniform(0.0, math.pi))
            radius = math.hypot(size[0], size[1]) / 2.0
        else:
            radius = rng.uniform(0.025, 0.04)
            obj = sim.SceneObject(shape="cylinder", label=labels[len(objects)],
                                  position=xy, radius=radius, height=height)
        if all(math.dist(xy, o.position) > radius + r + 0.06
               for o, r in zip(objects, radii)):
            objects.append(obj)
            radii.append(radius)
    return tuple(objects)


def _scores(rng: np.random.Generator, label: str, inventory):
    """Recogniser outputs that favour the true label, seeded."""
    out = []
    for source in ("3d", "2d"):
        scores = {other: rng.uniform(0.05, 0.4) for other in inventory
                  if other != label and rng.random() < 0.5}
        scores[label] = rng.uniform(0.6, 0.95)
        out.append(scores)
    return tuple(out)


def make_scene(seed: int, index: int, count: int, density: float) -> Scene:
    rng = _rng(seed, 1, index)
    labels = tuple(str(l) for l in rng.permutation(LABELS)[:count])
    scenario = sim.WorkstationScenario(
        width=TABLE_SIDE, depth=TABLE_SIDE,
        objects=_scene_objects(rng, count, labels), noise_sigma=0.002,
        outlier_count=200, density=density, seed=int(rng.integers(2**31)))
    cloud, truth = sim.gen_workstation(scenario)
    scores = {label: _scores(rng, label, labels) for label in labels}
    standoffs = tuple((rng.uniform(-math.pi, math.pi), rng.uniform(*STANDOFF))
                      for _ in range(count))
    name = f"scene-{index}-{count}obj-{int(density)}"
    return Scene(name, scenario, cloud, truth, scores, standoffs)


def bundled_scene(data: Path) -> Scene:
    scenario = sim.load_scenario(data / "workstation.json")
    cloud, truth = sim.gen_workstation(scenario)
    labels = truth.object_labels
    scores = {label: ({label: 0.9}, {label: 0.8}) for label in labels}
    standoffs = tuple((0.0, sum(STANDOFF) / 2.0) for _ in labels)
    return Scene("bundled-workstation", scenario, cloud, truth, scores,
                 standoffs)


# --- occupancy grids --------------------------------------------------------------

def make_nav(seed: int, index: int, density: float) -> NavCase:
    if density == SPARSE_DENSITY:
        seed, index = SPARSE_SEED, 0
    rng = _rng(seed, 2, index)
    start = (1.0 + rng.uniform(-0.3, 0.3), 1.0 + rng.uniform(-0.3, 0.3))
    goal = (5.0 + rng.uniform(-0.3, 0.3), 5.0 + rng.uniform(-0.3, 0.3))
    cells = sim.gen_obstacle_grid(GRID_CELLS, GRID_CELLS, GRID_RES, density,
                                  int(rng.integers(2**31)),
                                  keep_free=(start, goal))
    grid = dwa.OccupancyGrid(cells=cells, resolution=GRID_RES,
                             origin=(0.0, 0.0))
    state = dwa.RobotState(x=start[0], y=start[1],
                           theta=rng.uniform(-math.pi, math.pi))
    kind = ("open" if density == 0.0 else
            "sparse" if density == SPARSE_DENSITY else "cluttered")
    return NavCase(f"grid-{seed}-{index}-{density}", kind, f"density-{density}",
                   grid, state, goal)


def bundled_nav(data: Path) -> list[NavCase]:
    """The bundled cluttered map as the CLI tests drive it, and the same
    start and goal on an open map of that size."""
    cluttered = dwa.load_pgm(str(data / "cluttered.pgm"))
    start = dwa.RobotState(x=1.0, y=1.0, theta=0.0)
    open_grid = dwa.OccupancyGrid(
        cells=np.full(cluttered.cells.shape, dwa.FREE, dtype=np.uint8),
        resolution=cluttered.resolution, origin=cluttered.origin)
    return [NavCase(name, name, name, grid, start, (5.0, 5.0))
            for name, grid in (("bundled-cluttered", cluttered),
                               ("bundled-open", open_grid))]


# --- rotating-table streams ---------------------------------------------------------

def make_stream(seed: int, index: int, objects: int, dropout: float,
                duration: float) -> Stream:
    rng = _rng(seed, 3, index)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    scenario = sim.RttScenario(
        objects=tuple(sim.RttObject(label=f"obj{k}",
                                    angle0=phase + 2.0 * math.pi * k / objects)
                      for k in range(objects)),
        omega=rng.uniform(0.3, 0.6) * (1 if rng.random() < 0.5 else -1),
        duration=duration, dropout=dropout, seed=int(rng.integers(2**31)))
    _, frames, truth = sim.gen_rtt_stream(scenario)
    return Stream(f"stream-{index}-{objects}obj-{dropout}", frames, truth,
                  objects, rng.uniform(-math.pi, math.pi))


def bundled_stream(data: Path) -> Stream:
    scenario = sim.load_scenario(data / "rtt.json")
    _, frames, truth = sim.gen_rtt_stream(scenario)
    return Stream("bundled-rtt", frames, truth, len(scenario.objects), 0.0)


# --- transport problems ------------------------------------------------------------------

def make_transport(seed: int, index: int, items: int, locations: int
                   ) -> tuple[Transport, dict[int, str]]:
    rng = _rng(seed, 4, index)
    locs = tuple(f"loc{i}" for i in range(locations))
    names = tuple(f"item{i}" for i in range(items))
    distance = []
    for i in range(locations):
        for j in range(i + 1, locations):
            cost = int(rng.integers(1, 10))
            distance += [(locs[i], locs[j], cost), (locs[j], locs[i], cost)]
    item_at, goal = [], []
    for o in names:
        a = int(rng.integers(locations))
        b = (a + 1 + int(rng.integers(locations - 1))) % locations
        item_at.append((o, locs[a]))
        goal.append((o, locs[b]))
    task = Transport(f"transport-{index}-{items}x{locations}", names, locs,
                     tuple(distance), locs[int(rng.integers(locations))],
                     tuple(item_at), tuple(goal))
    faults = {int(rng.integers(1, 2 * items + 1)): "e_failure"}
    return task, faults


def to_pddl(task: Transport) -> str:
    init = [f"(at {ROBOT} {task.robot_at})", f"(gripper-empty {ROBOT})"]
    init += [f"(item-at {o} {l})" for o, l in task.item_at]
    init += ["(= (total-cost) 0)"]
    init += [f"(= (distance {a} {b}) {c})" for a, b, c in task.distance]
    goal = " ".join(f"(item-at {o} {l})" for o, l in task.goal)
    return (f"(define (problem {task.name})\n"
            f"  (:domain transport)\n"
            f"  (:objects {ROBOT} - robot {' '.join(task.items)} - item "
            f"{' '.join(task.locations)} - location)\n"
            f"  (:init {' '.join(init)})\n"
            f"  (:goal (and {goal}))\n"
            f"  (:metric minimize (total-cost)))\n")


# The facts of the bundled transport_1 and transport_3 problems, for the
# replay oracle; the problems themselves are parsed from the bundled files.
BUNDLED_TRANSPORT = {
    "transport_1": Transport(
        "transport-1", ("bolt",), ("shelf", "ws"),
        (("shelf", "ws", 1), ("ws", "shelf", 1)), "ws",
        (("bolt", "shelf"),), (("bolt", "ws"),)),
    "transport_3": Transport(
        "transport-3", ("bolt", "nut", "bearing"), ("shelf", "conveyor", "ws"),
        (("shelf", "conveyor", 2), ("conveyor", "shelf", 2), ("shelf", "ws", 1),
         ("ws", "shelf", 1), ("conveyor", "ws", 3), ("ws", "conveyor", 3)),
        "ws", (("bolt", "shelf"), ("nut", "shelf"), ("bearing", "conveyor")),
        (("bolt", "ws"), ("nut", "ws"), ("bearing", "ws"))),
}


def ground_actions(task: Transport) -> int:
    """Ground actions the transport domain admits: moves between distinct
    locations plus perceive, grasp and place for every item and location."""
    n_l = len(task.locations)
    return n_l * (n_l - 1) + 3 * len(task.items) * n_l


# --- workloads ---------------------------------------------------------------------

def round_robin(*lists):
    out = []
    for i in range(max((len(l) for l in lists), default=0)):
        out += [l[i] for l in lists if i < len(l)]
    return out


def build(name: str, seed: int, root: Path) -> Workload:
    """All inputs of one workload run."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    data = root / "src" / "workbot" / "data"
    chain_file = data / "chain_5dof.json"
    rows = json.loads(chain_file.read_text())
    domain = pddl.parse_domain((data / "transport.pddl").read_text())
    bindings = json.loads((data / "bindings.json").read_text())

    def missions_of(items):
        out = []
        for label, task, faults in items:
            problem = pddl.parse_problem(to_pddl(task) if label is None
                                         else (data / f"{label}.pddl").read_text(),
                                         domain)
            out.append(Task("mission", Mission(task.name, task, problem, faults)))
        return out

    def scene_refs():
        scene = bundled_scene(data)
        return [Task("scene", scene, REF_PERCEIVE_REPEATS,
                     k % len(scene.standoffs))
                for k in range(REF_REPEATS["scene"])]

    # every reference task of a run, in the order they run
    refs = {
        "scene": scene_refs,
        "nav": lambda: [Task("nav", case) for case in bundled_nav(data)]
        * REF_REPEATS["nav"],
        "stream": lambda: [Task("stream", bundled_stream(data))]
        * REF_REPEATS["stream"],
        # transport_3 twice: the larger problem, with the noisier samples
        "mission": lambda: missions_of(
            [(label, BUNDLED_TRANSPORT[label], {})
             for label in ("transport_1", "transport_3", "transport_3")])
        * REF_REPEATS["mission"],
    }
    if name == "tabletop":
        counts = [OBJECT_COUNTS[i % len(OBJECT_COUNTS)] for i in range(MAIN_SCENES)]
        main = [Task("scene", make_scene(seed, i, count,
                                         SCAN_DENSITIES[i % len(SCAN_DENSITIES)]),
                     grasp=(i // len(OBJECT_COUNTS)) % count)
                for i, count in enumerate(counts)]
        ref_kinds = ("nav", "stream", "mission")
        cli = ["perceive", "--scenario", "src/workbot/data/workstation.json"]
    elif name == "control_loops":
        nav = [Task("nav", make_nav(seed, i, GRID_DENSITIES[i % len(GRID_DENSITIES)]))
               for i in range(MAIN_NAV)]
        streams = [Task("stream", make_stream(seed, i, *STREAM_KINDS[i % len(STREAM_KINDS)]))
                   for i in range(MAIN_STREAMS)]
        main = round_robin(nav, *[streams[k::STREAMS_PER_EPISODE]
                                  for k in range(STREAMS_PER_EPISODE)])
        ref_kinds = ("scene", "mission")
        cli = ["rtt", "--scenario", "src/workbot/data/rtt.json"]
    else:
        main = missions_of(
            [(None, *make_transport(seed, i, *MISSION_SIZES[i % len(MISSION_SIZES)]))
             for i in range(MAIN_MISSIONS)])
        ref_kinds = ("scene", "nav", "stream")
        cli = ["plan", "--domain", "src/workbot/data/transport.pddl",
               "--problem", "src/workbot/data/transport_1.pddl"]
    return Workload(
        refs=round_robin(*[refs[kind]() for kind in ref_kinds]),
        main=main, cli=cli,
        domain=domain, chain=kinematics.load_chain(str(chain_file)),
        chain_rows=rows, bindings=bindings)
