"""Frozen value types own their arrays.

A value copies every array it is given into a read-only array of its own:
the caller's array stays writable, later edits to it do not reach the
value, and nothing can edit the value's arrays in place.  The guard below
keeps the table complete as new value types appear.  Module-level arrays
are read-only too.
"""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import workbot
from workbot.cloud import Cluster, Plane, PlaneBasis, Point3, PointCloud, Polygon2
from workbot.dwa import OccupancyGrid
from workbot.geometry import Pose
from workbot.placement import Obstacle2, PlacementPose
from workbot.rtt import CircularMotion

BASIS = dict(origin=[0.0, 0.0, 0.0], u=[1.0, 0.0, 0.0], v=[0.0, 1.0, 0.0])


def _arrays():
    """Fresh, writable input arrays for every row of VALUES, by name."""
    return {
        "points": np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]),
        "normals": np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
        "normal": np.array([0.0, 0.0, 1.0]),
        "indices": np.array([0, 2, 5], dtype=np.intp),
        "vec3": np.array([0.5, -1.0, 2.0]),
        "unit_u": np.array([1.0, 0.0, 0.0]),
        "unit_v": np.array([0.0, 1.0, 0.0]),
        "square": np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        "cells": np.zeros((4, 5), dtype=np.uint8),
        "vec2": np.array([0.25, -0.5]),
        "quat": np.array([0.0, 0.0, 0.0, 1.0]),
    }


# class: (build from the input arrays, the input arrays it takes); the
# arrays are of the dtype and shape the class stores, so that a value that
# merely wrapped or reshaped them would share their memory
VALUES = {
    PointCloud: (lambda a: PointCloud(a["points"], normals=a["normals"]),
                 ("points", "normals")),
    Plane: (lambda a: Plane(a["normal"], 0.5, inliers=a["indices"]),
            ("normal", "indices")),
    PlaneBasis: (lambda a: PlaneBasis(a["vec3"], a["unit_u"], a["unit_v"]),
                 ("vec3", "unit_u", "unit_v")),
    Polygon2: (lambda a: Polygon2(a["square"], PlaneBasis(**BASIS)),
               ("square",)),
    Cluster: (lambda a: Cluster(a["indices"], Point3(0.0, 0.0, 0.0)),
              ("indices",)),
    OccupancyGrid: (lambda a: OccupancyGrid(a["cells"], 0.1, a["vec2"]),
                    ("cells", "vec2")),
    Pose: (lambda a: Pose(a["vec3"], a["quat"]), ("vec3", "quat")),
    Obstacle2: (lambda a: Obstacle2(a["vec2"], 0.1), ("vec2",)),
    PlacementPose: (lambda a: PlacementPose(Pose.identity(), a["vec2"], 0.1),
                    ("vec2",)),
    CircularMotion: (lambda a: CircularMotion(a["vec2"], 0.4, 0.5, 0.0, 0.0),
                     ("vec2",)),
}

# frozen dataclasses that hold arrays but are not value types: result
# records that the library builds only from arrays it has just allocated
EXEMPT = {
    "workbot.kinematics.IkResult":
        "q is the solver's last iterate, a fresh array from np.clip",
    "workbot.sim.WorkstationTruth":
        "labels are allocated by gen_workstation for this record alone",
    "workbot.sim.RttTruth":
        "times, angles, positions and present are allocated by "
        "gen_rtt_stream for this record alone",
    "workbot.sim.RttFrame3":
        "points are sampled by gen_rtt_stream for this frame alone",
}


def _array_fields(value):
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)
            if isinstance(getattr(value, f.name), np.ndarray)}


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_value_owns_its_arrays(cls):
    build, names = VALUES[cls]
    arrays = _arrays()
    value = build(arrays)
    fields = _array_fields(value)
    assert fields
    for name in names:
        assert arrays[name].flags.writeable, f"{name} was made read-only"
    before = {name: arr.copy() for name, arr in fields.items()}
    for name in names:
        arrays[name] += 1
    for name, arr in fields.items():
        assert np.array_equal(arr, before[name]), f"{name} followed the caller"
        assert not arr.flags.writeable, f"{name} is writable"


def test_every_frozen_array_holder_is_checked_or_exempt():
    holders = set()
    for info in pkgutil.iter_modules(workbot.__path__):
        module = importlib.import_module(f"workbot.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and dataclasses.is_dataclass(cls)
                    and cls.__dataclass_params__.frozen
                    and any("ndarray" in str(f.type)
                            for f in dataclasses.fields(cls))):
                holders.add(f"{cls.__module__}.{cls.__qualname__}")
    checked = {f"{cls.__module__}.{cls.__qualname__}" for cls in VALUES}
    assert holders - checked == set(EXEMPT)
    assert checked <= holders


def test_module_arrays_are_read_only():
    # module-level arrays are shared by every caller, so none may change
    arrays = {}
    for info in pkgutil.iter_modules(workbot.__path__):
        module = importlib.import_module(f"workbot.{info.name}")
        arrays.update((f"{module.__name__}.{name}", value)
                      for name, value in vars(module).items()
                      if isinstance(value, np.ndarray))
    assert {"workbot.rtt._Q", "workbot.rtt._R", "workbot.rtt._P0",
            "workbot.kinematics._ROT_WEIGHTS", "workbot.kinematics._DAMPING",
            "workbot.kinematics._STENCIL"} <= arrays.keys()
    for arr in arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 1.0
