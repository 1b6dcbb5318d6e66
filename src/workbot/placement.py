"""Empty-space placement planning on a segmented workstation.

The perception pipeline condenses a cloud into a support polygon plus disc
obstacles; placements are rejection-sampled in the free space, then ranked
by how easily the arm reaches them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kinematics
from .cloud import (Cluster, PerceptionConfig, Plane, PointCloud, Polygon2,
                    _rowdot, convex_hull, estimate_normals, euclidean_cluster,
                    extract_prism, passthrough, segment_plane,
                    voxel_downsample)
from .errors import WorkbotError
from .geometry import Pose, frozen_array
from .kinematics import KinematicChain, NoConvergence

DEFAULT_D_MIN = 0.03
DEFAULT_FOOTPRINT = 0.05
MAX_ATTEMPTS = 10000              # draws before sample_placements stops
PLACE_APPROACH_OFFSET = 0.05
# draws tested together by sample_placements: testing all 10,000 at once took
# about 21 ms a call, no better than the 23 ms of testing them one by one
_DRAW_BLOCK = 64


class PlacementError(WorkbotError):
    pass


class NoFreeSpace(PlacementError):
    pass


class NoReachablePlacement(PlacementError):
    pass


@dataclass(frozen=True, eq=False)
class Obstacle2:
    """A disc footprint on the support plane, in plane 2D coordinates."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = frozen_array(self.center, shape=2)
        if self.radius < 0.0:
            raise ValueError(f"obstacle radius cannot be negative: {self.radius}")
        object.__setattr__(self, "center", c)


@dataclass(frozen=True, eq=False)
class PlacementPose:
    """One candidate placement: pose on the plane plus quality numbers."""

    pose: Pose
    uv: np.ndarray
    clearance: float
    reach_score: float = 0.0

    def __post_init__(self):
        uv = frozen_array(self.uv, shape=2)
        if self.clearance < 0.0:
            raise ValueError(f"clearance cannot be negative: {self.clearance}")
        object.__setattr__(self, "uv", uv)


def segment_workstation(cloud: PointCloud, cfg: PerceptionConfig
                        ) -> tuple[PointCloud, Plane, Polygon2, list[Cluster]]:
    """The tabletop segmentation shared by perception and placement.

    Passthrough crop (when configured), voxel downsampling (skipped when
    ``leaf`` is falsy), normals, plane, hull, prism and clusters.  Returns
    the working cloud the clusters index into, with the plane, its hull
    polygon and the clusters above it.
    """
    work = cloud
    if cfg.passthrough is not None:
        axis, lo, hi = cfg.passthrough
        work = passthrough(work, axis, lo, hi)
    if cfg.leaf:
        work = voxel_downsample(work, cfg.leaf)
    work = estimate_normals(work, k=cfg.normals_k)
    plane = segment_plane(work, dist_thresh=cfg.plane_dist_thresh,
                          ref_axis=cfg.plane_ref_axis,
                          angle_tol=cfg.plane_angle_tol,
                          max_iters=cfg.plane_max_iters,
                          rng_seed=cfg.seed)
    polygon = convex_hull(plane, work)
    prism = extract_prism(work, polygon, cfg.prism_h_min, cfg.prism_h_max)
    clusters = euclidean_cluster(work, prism, tol=cfg.cluster_tol,
                                 min_size=cfg.cluster_min_size,
                                 max_size=cfg.cluster_max_size)
    return work, plane, polygon, clusters


def workstation_model(cloud: PointCloud,
                      cfg: PerceptionConfig = PerceptionConfig()
                      ) -> tuple[Plane, Polygon2, list[Obstacle2]]:
    """Support plane, hull polygon and disc obstacles of a workstation.

    Each cluster above the plane becomes a disc centred on its projected
    centroid with radius equal to the farthest projected member point.
    """
    work, plane, polygon, clusters = segment_workstation(cloud, cfg)
    obstacles = []
    for cl in clusters:
        uv = polygon.basis.project(work.points[cl.indices])
        center = uv.mean(axis=0)
        rel = uv - center
        radius = float(np.max(np.sqrt(_rowdot(rel, rel))))
        obstacles.append(Obstacle2(center=center, radius=radius))
    return plane, polygon, obstacles


def _pose_on_plane(polygon: Polygon2, uv: np.ndarray) -> Pose:
    basis = polygon.basis
    rot = np.column_stack([basis.u, basis.v, basis.normal])
    return Pose.from_rotation(rot, basis.to_world(uv))


def sample_placements(polygon: Polygon2, obstacles: list[Obstacle2],
                      d_min: float = DEFAULT_D_MIN,
                      footprint: float = DEFAULT_FOOTPRINT, *,
                      n: int, rng_seed: int = 0) -> list[PlacementPose]:
    """Seeded rejection sampling of free poses on the support polygon.

    A draw is accepted when it keeps ``footprint`` distance to every hull
    edge and ``obstacle radius + footprint + d_min`` to every obstacle
    centre.  Stops at ``n`` accepted poses or MAX_ATTEMPTS draws; raises
    NoFreeSpace when nothing was accepted at all.
    """
    if not (d_min >= 0.0 and footprint >= 0.0):
        raise ValueError("d_min and footprint must be non-negative")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    rng = np.random.default_rng(rng_seed)
    lo, hi = polygon.vertices.min(axis=0), polygon.vertices.max(axis=0)
    accepted: list[PlacementPose] = []
    for start in range(0, MAX_ATTEMPTS, _DRAW_BLOCK):
        # one (k, 2) draw is the same stream as k draws of 2
        k = min(_DRAW_BLOCK, MAX_ATTEMPTS - start)
        uv = lo + rng.random((k, 2)) * (hi - lo)
        clearance = polygon.edge_distance(uv)
        ok = polygon.contains(uv, eps=0.0) & (clearance >= footprint)
        for obs in obstacles:
            rel = uv - obs.center
            dist = np.sqrt(_rowdot(rel, rel))
            ok &= dist >= obs.radius + footprint + d_min
            clearance = np.minimum(clearance, dist - obs.radius)
        for i in np.flatnonzero(ok)[:n - len(accepted)]:
            accepted.append(PlacementPose(pose=_pose_on_plane(polygon, uv[i]),
                                          uv=uv[i],
                                          clearance=float(clearance[i])))
        if len(accepted) == n:
            break
    if not accepted:
        raise NoFreeSpace(
            f"no admissible placement in {MAX_ATTEMPTS} attempts "
            f"(footprint {footprint} m, separation {d_min} m)")
    return accepted


def _ee_target(candidate: PlacementPose, polygon: Polygon2,
               offset: float) -> Pose:
    # hover above the placement, tool z pointing down at the plane
    n = polygon.normal
    basis = polygon.basis
    rot = np.column_stack([basis.u, -basis.v, -n])
    return Pose.from_rotation(rot, candidate.pose.position + offset * n)


def rank_placements(chain: KinematicChain, base_pose: Pose,
                    candidates: list[PlacementPose], q0,
                    polygon: Polygon2,
                    place_offset: float = PLACE_APPROACH_OFFSET
                    ) -> list[PlacementPose]:
    """Order placements by IK effort: quick-to-reach first.

    reach_score is 1 / (1 + IK iterations) for solvable candidates and 0
    otherwise; ties fall back to clearance (descending) then (u, v).  The
    candidates' IK runs in lockstep, so a ranking costs about as much as
    its slowest solve.
    """
    if not candidates:
        raise ValueError("no candidates to rank")
    arm = chain.with_base(base_pose)
    targets = [_ee_target(cand, polygon, place_offset) for cand in candidates]
    results = kinematics.ik_dls_many(arm, targets, q0)
    if all(isinstance(res, NoConvergence) for res in results):
        base = tuple(float(x) for x in base_pose.position)
        raise NoReachablePlacement(f"IK reaches none of the {len(candidates)} "
                                   f"placements from arm base {base}")
    scored = [replace(cand, reach_score=0.0 if isinstance(res, NoConvergence)
                      else 1.0 / (1.0 + res.iterations))
              for cand, res in zip(candidates, results)]
    scored.sort(key=lambda c: (-c.reach_score, -c.clearance,
                               float(c.uv[0]), float(c.uv[1])))
    return scored
