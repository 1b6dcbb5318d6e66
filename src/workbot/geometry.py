"""Shared 3D geometry helpers: angles, quaternions, rigid poses and the
read-only array copies that frozen value types store.

scipy's ``Rotation`` is imported inside the ``Pose`` methods that use it, so
a module that needs only ``wrap_angle`` (the trackers) does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap an angle to the half-open interval (-pi, pi]."""
    w = (theta + math.pi) % TWO_PI - math.pi
    if w == -math.pi:
        return math.pi
    return w


def frozen_array(value, dtype=float, shape=None) -> np.ndarray:
    """A read-only C-contiguous copy of ``value`` as ``dtype``, reshaped to
    ``shape`` when given.  Every array field of a frozen value type is stored
    through it: a value never shares memory with its caller and never
    changes the caller's array, so no edit on either side reaches the other."""
    a = np.asarray(value, dtype=dtype)
    a = (a if shape is None else a.reshape(shape)).copy(order="C")
    a.setflags(write=False)
    return a


def unit(v) -> np.ndarray:
    """v scaled to length 1.  When the sum of squares overflows or
    underflows, v is first divided by its largest |component|, so a finite
    nonzero vector always has a direction; a zero or non-finite one raises
    ValueError."""
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError(f"non-finite vector has no direction: {v}")
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(v))
    if not 0.0 < n < math.inf:
        largest = float(np.abs(v).max())
        if largest == 0.0:
            raise ValueError("zero vector has no direction")
        v = v / largest
        n = float(np.linalg.norm(v))
    return v / n


def canonical_sign(v, axes: tuple[int, ...]) -> float:
    """1.0 or -1.0, whichever makes the first nonzero component of v, taken
    in the order ``axes``, positive (1.0 when all are zero): the factor that
    picks one of v and -v where both mean the same, as for a plane normal."""
    for c in axes:
        if v[c] > 0.0:
            return 1.0
        if v[c] < 0.0:
            return -1.0
    return 1.0


@dataclass(frozen=True, eq=False)
class Pose:
    """A rigid transform: position plus unit quaternion (x, y, z, w)."""

    position: np.ndarray
    quat_xyzw: np.ndarray

    def __post_init__(self):
        p = frozen_array(self.position, shape=3)
        q = np.asarray(self.quat_xyzw, dtype=float).reshape(4)
        n = float(np.linalg.norm(q))
        if not np.isfinite(p).all() or not math.isfinite(n) or abs(n - 1.0) > 1e-6:
            raise ValueError("pose requires a finite position and a unit quaternion")
        q = q / n
        object.__setattr__(self, "position", p)
        # q and -q are one rotation: keep w > 0, ties broken on x, y, z
        object.__setattr__(self, "quat_xyzw",
                           frozen_array(canonical_sign(q, (3, 0, 1, 2)) * q))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.zeros(3), np.array([0.0, 0.0, 0.0, 1.0]))

    @staticmethod
    def from_matrix(mat: np.ndarray) -> "Pose":
        from scipy.spatial.transform import Rotation
        mat = np.asarray(mat, dtype=float)
        q = Rotation.from_matrix(mat[:3, :3]).as_quat()
        return Pose(mat[:3, 3], q)

    @staticmethod
    def from_rotation(rot: np.ndarray, position) -> "Pose":
        from scipy.spatial.transform import Rotation
        q = Rotation.from_matrix(np.asarray(rot, dtype=float)).as_quat()
        return Pose(position, q)

    def rotation(self) -> np.ndarray:
        from scipy.spatial.transform import Rotation
        return Rotation.from_quat(self.quat_xyzw).as_matrix()

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation()
        m[:3, 3] = self.position
        return m
