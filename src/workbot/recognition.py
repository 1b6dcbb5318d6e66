"""Object pose estimation and 2D/3D recognition-score fusion.

Only the geometry (PCA pose) and the fusion rule live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Mapping

import numpy as np

from .cloud import Cluster, DEGENERATE_EIG, PointCloud
from .errors import WorkbotError
from .geometry import Pose, canonical_sign

Source = Literal["2d", "3d"]


class RecognitionError(WorkbotError):
    pass


class DegenerateCluster(RecognitionError):
    pass


class NoAdmissibleLabel(RecognitionError):
    pass


@dataclass(frozen=True)
class ObjectScores:
    """Per-label recognition scores in [0, 1] from one source (2d or 3d)."""

    scores: Mapping[str, float]
    source: Source

    def __post_init__(self):
        if self.source not in ("2d", "3d"):
            raise ValueError(f"source must be '2d' or '3d', got {self.source!r}")
        if not self.scores:
            raise ValueError("score map cannot be empty")
        for label, s in self.scores.items():
            if not (math.isfinite(s) and 0.0 <= s <= 1.0):
                raise ValueError(f"score for {label!r} outside [0, 1]: {s}")
        object.__setattr__(self, "scores", dict(self.scores))


@dataclass(frozen=True)
class Inventory:
    """The labels admissible in the current scene."""

    labels: frozenset[str]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("inventory cannot be empty")
        object.__setattr__(self, "labels", frozenset(self.labels))


NEUTRAL_SCORE = 0.5


def pca_pose(cloud: PointCloud, cluster: Cluster) -> tuple[Pose, np.ndarray]:
    """Principal-axes pose and sqrt-eigenvalue extents of a cluster.

    Axes are ordered by descending eigenvalue and form a right-handed frame;
    the first two axes are sign-canonicalized toward positive x (ties broken
    on y, then z) and the third is their cross product.
    """
    pts = cloud.points[cluster.indices]
    if pts.shape[0] < 3:
        raise DegenerateCluster(f"pose needs >= 3 points, got {pts.shape[0]}")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    cov = centered.T @ centered / pts.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    if evals[1] <= DEGENERATE_EIG:
        raise DegenerateCluster("cluster covariance has rank < 2")
    a1, a2 = (canonical_sign(a, (0, 1, 2)) * a for a in evecs[:, :2].T)
    a3 = np.cross(a1, a2)
    rot = np.column_stack([a1, a2, a3])
    extents = np.sqrt(np.clip(evals, 0.0, None))
    return Pose.from_rotation(rot, centroid), extents


def fuse(scores3d: ObjectScores, scores2d: ObjectScores,
         inventory: Inventory) -> tuple[str, float]:
    """Product-rule fusion over the inventory labels.

    A label missing from one source contributes a neutral 0.5 there, so a
    single absent detector cannot veto; a label scored by neither source has
    no evidence and fuses to zero.  Labels outside the inventory are masked
    out entirely.  Returns the argmax label (ties go to the lexicographically
    smallest) and its normalized confidence.
    """
    if scores3d.source != "3d" or scores2d.source != "2d":
        raise ValueError("fuse expects a 3d score map and a 2d score map")
    fused = {}
    for label in sorted(inventory.labels):
        if label not in scores3d.scores and label not in scores2d.scores:
            fused[label] = 0.0
            continue
        s3 = scores3d.scores.get(label, NEUTRAL_SCORE)
        s2 = scores2d.scores.get(label, NEUTRAL_SCORE)
        fused[label] = s3 * s2
    total = sum(fused.values())
    if total <= 0.0:
        raise NoAdmissibleLabel("all fused scores are zero over the inventory")
    winner = max(sorted(fused), key=lambda l: fused[l])
    return winner, fused[winner] / total
