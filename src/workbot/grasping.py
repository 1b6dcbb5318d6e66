"""Pre-grasp planning.

Tall objects are approached from the front, flat ones from the top.  Around
the nominal approach a small yaw fan is sampled and the first candidate the
arm can reach wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.spatial.transform import Rotation

from . import kinematics
from .errors import WorkbotError
from .geometry import TWO_PI, Pose, length, unit
from .kinematics import IkResult, KinematicChain, NoConvergence

Approach = Literal["top", "frontal"]

HEIGHT_THRESHOLD = 0.06
MAX_FAN_SAMPLES = 360              # most yaws in one pre-grasp fan


class GraspError(WorkbotError):
    pass


class NoReachableCandidate(GraspError):
    pass


@dataclass(frozen=True)
class GraspCandidate:
    pregrasp_pose: Pose
    approach: Approach
    offset: float
    score: float
    yaw: float


def decide_approach(object_height: float) -> Approach:
    """Frontal for objects strictly taller than HEIGHT_THRESHOLD, else top."""
    if object_height < 0.0:
        raise ValueError(f"object height cannot be negative: {object_height}")
    return "frontal" if object_height > HEIGHT_THRESHOLD else "top"


def _approach_axis(object_pose: Pose, approach: Approach,
                   base_position) -> np.ndarray:
    if approach == "top":
        return np.array([0.0, 0.0, -1.0])
    delta = object_pose.position - np.asarray(base_position, dtype=float).reshape(3)
    horizontal = np.array([delta[0], delta[1], 0.0])
    if length(horizontal) < 1e-12:
        raise ValueError("object sits directly above the arm base; "
                         "frontal approach direction is undefined")
    return unit(horizontal)


def _nominal_rotation(axis: np.ndarray, approach: Approach) -> np.ndarray:
    # tool z points along the approach direction
    if approach == "top":
        x = np.array([1.0, 0.0, 0.0])
    else:
        x = np.array([0.0, 0.0, -1.0])
    y = np.cross(axis, x)
    return np.column_stack([x, unit(y), axis])


def sample_pregrasp(object_pose: Pose, approach: Approach,
                    offset: float = 0.05, *, n: int,
                    yaw_spread: float = math.pi / 2,
                    base_position) -> list[GraspCandidate]:
    """Pre-grasp poses displaced by ``offset`` against the approach direction.

    Yaw values sweep [-yaw_spread/2, +yaw_spread/2] uniformly and come back
    ordered by |yaw| ascending, so the nominal grasp is tried first.  At
    most MAX_FAN_SAMPLES yaws and one full turn: a wider fan only repeats
    yaws, and a huge one overflows the rotation algebra.
    """
    if not 1 <= n <= MAX_FAN_SAMPLES:
        raise ValueError(f"n must be in [1, {MAX_FAN_SAMPLES}], got {n}")
    if not 0.0 <= yaw_spread <= TWO_PI:
        raise ValueError("yaw_spread must lie in [0, 2 pi], one full turn, "
                         f"got {yaw_spread}")
    if offset < 0.0:
        raise ValueError("offset must be non-negative")
    axis = _approach_axis(object_pose, approach, base_position)
    nominal = _nominal_rotation(axis, approach)
    position = object_pose.position - offset * axis
    yaws = [0.0] if n == 1 else list(np.linspace(-yaw_spread / 2.0,
                                                 yaw_spread / 2.0, n))
    yaws.sort(key=lambda y: (abs(y), y))
    out = []
    for yaw in yaws:
        rot = Rotation.from_rotvec(yaw * axis).as_matrix() @ nominal
        out.append(GraspCandidate(
            pregrasp_pose=Pose.from_rotation(rot, position),
            approach=approach, offset=offset,
            score=-abs(yaw), yaw=float(yaw)))
    return out


def select_reachable(chain: KinematicChain,
                     candidates: list[GraspCandidate],
                     q0) -> tuple[GraspCandidate, IkResult]:
    """First-fit scan: returns the first candidate kinematics.ik_dls reaches."""
    if not candidates:
        raise ValueError("no candidates to test")
    for cand in candidates:
        try:
            result = kinematics.ik_dls(chain, cand.pregrasp_pose, q0)
        except NoConvergence:
            continue
        return cand, result
    raise NoReachableCandidate(
        f"none of the {len(candidates)} pre-grasp candidates is reachable")

