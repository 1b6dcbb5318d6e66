"""Seeded scenario generators and metric evaluators.

Workstation clouds (a table plus boxes/cylinders with per-point labels) and
rotating-table detection streams come out bit-identical for a given seed,
so tests can treat generator truth as an oracle.  The evaluators replay a
tracker over a generated stream and boil the outcome down to scalar
metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jsonio import decode, load_json
from .rtt import (Detection2D, SortTracker, Track3D, TrackingError,
                  associate_nn_3d, estimate_motion, gated_assignment)

DEFAULT_DENSITY = 10000.0          # surface samples per square meter
DEFAULT_PPM = 500.0                # pixels per meter, orthographic top view
DEFAULT_BOX_SIZE = 0.05            # rtt detection box edge, meters
NN3D_GATE = 0.1                    # evaluate_nn3d association gate, meters
FREE_RADIUS = 0.5                  # gen_obstacle_grid keep-free disc, meters

OUTLIER_LABEL = -1
TABLE_LABEL = 0


# --- workstation scenes ------------------------------------------------------

@dataclass(frozen=True)
class SceneObject:
    """One object resting on the table: an upright box or cylinder."""

    shape: str                     # "box" | "cylinder"
    label: str
    position: tuple[float, float]  # table-frame (x, y) of the footprint center
    size: tuple[float, float, float] = (0.0, 0.0, 0.0)   # box w, d, h
    radius: float = 0.0            # cylinder
    height: float = 0.0            # cylinder
    yaw: float = 0.0               # box rotation about +z

    def __post_init__(self):
        if self.shape == "box":
            if min(self.size) <= 0.0:
                raise ValueError(f"box dimensions must be positive: {self.size}")
        elif self.shape == "cylinder":
            if self.radius <= 0.0 or self.height <= 0.0:
                raise ValueError("cylinder needs positive radius and height")
        else:
            raise ValueError(f"unknown shape: {self.shape}")


@dataclass(frozen=True)
class WorkstationScenario:
    width: float = 0.8
    depth: float = 0.6
    table_height: float = 0.7
    objects: tuple[SceneObject, ...] = ()
    noise_sigma: float = 0.001
    outlier_count: int = 0
    density: float = DEFAULT_DENSITY
    seed: int = 0

    def __post_init__(self):
        if min(self.width, self.depth) <= 0.0 or self.density <= 0.0:
            raise ValueError("table extent and density must be positive")
        if self.noise_sigma < 0.0 or self.outlier_count < 0:
            raise ValueError("noise_sigma and outlier_count cannot be negative")


@dataclass(frozen=True)
class WorkstationTruth:
    plane: Plane
    labels: np.ndarray             # per point: -1 outlier, 0 table, k = object k
    object_labels: tuple[str, ...]


def box_surface_points(rng: np.random.Generator, center_xy, z0: float,
                       size, yaw: float, density: float) -> np.ndarray:
    """Uniform samples on the five visible faces of an upright box."""
    w, d, h = (float(v) for v in size)
    faces = [
        ("top", w * d), ("x-", d * h), ("x+", d * h),
        ("y-", w * h), ("y+", w * h),
    ]
    pts = []
    for name, area in faces:
        n = max(1, int(round(area * density)))
        u = rng.random(n)
        v = rng.random(n)
        if name == "top":
            local = np.column_stack([(u - 0.5) * w, (v - 0.5) * d,
                                     np.full(n, h)])
        elif name == "x-":
            local = np.column_stack([np.full(n, -w / 2), (u - 0.5) * d, v * h])
        elif name == "x+":
            local = np.column_stack([np.full(n, w / 2), (u - 0.5) * d, v * h])
        elif name == "y-":
            local = np.column_stack([(u - 0.5) * w, np.full(n, -d / 2), v * h])
        else:
            local = np.column_stack([(u - 0.5) * w, np.full(n, d / 2), v * h])
        pts.append(local)
    local = np.vstack(pts)
    c, s = math.cos(yaw), math.sin(yaw)
    x = c * local[:, 0] - s * local[:, 1] + center_xy[0]
    y = s * local[:, 0] + c * local[:, 1] + center_xy[1]
    return np.column_stack([x, y, local[:, 2] + z0])


def cylinder_surface_points(rng: np.random.Generator, center_xy, z0: float,
                            radius: float, height: float,
                            density: float) -> np.ndarray:
    """Uniform samples on the cap and lateral surface of an upright cylinder."""
    n_top = max(1, int(round(math.pi * radius ** 2 * density)))
    n_lat = max(1, int(round(2.0 * math.pi * radius * height * density)))
    r = radius * np.sqrt(rng.random(n_top))
    phi = 2.0 * math.pi * rng.random(n_top)
    top = np.column_stack([r * np.cos(phi), r * np.sin(phi),
                           np.full(n_top, height)])
    phi = 2.0 * math.pi * rng.random(n_lat)
    z = height * rng.random(n_lat)
    lat = np.column_stack([radius * np.cos(phi), radius * np.sin(phi), z])
    pts = np.vstack([top, lat])
    pts[:, 0] += center_xy[0]
    pts[:, 1] += center_xy[1]
    pts[:, 2] += z0
    return pts


def gen_workstation(sc: WorkstationScenario
                    ) -> tuple[PointCloud, WorkstationTruth]:
    """Sample the scene surfaces, add Gaussian noise, then append outliers.

    Point order is table block, one block per object, then outliers, so the
    label array lines up with the cloud rows.
    """
    # cloud pulls in scipy.spatial, which the rtt stream does not need
    from .cloud import Plane, PointCloud
    rng = np.random.default_rng(sc.seed)
    n_table = max(1, int(round(sc.width * sc.depth * sc.density)))
    table = np.column_stack([
        (rng.random(n_table) - 0.5) * sc.width,
        (rng.random(n_table) - 0.5) * sc.depth,
        np.full(n_table, sc.table_height)])
    blocks = [table]
    labels = [np.full(n_table, TABLE_LABEL, dtype=np.int64)]
    for k, obj in enumerate(sc.objects, start=1):
        if obj.shape == "box":
            pts = box_surface_points(rng, obj.position, sc.table_height,
                                     obj.size, obj.yaw, sc.density)
        else:
            pts = cylinder_surface_points(rng, obj.position, sc.table_height,
                                          obj.radius, obj.height, sc.density)
        blocks.append(pts)
        labels.append(np.full(len(pts), k, dtype=np.int64))
    points = np.vstack(blocks)
    points = points + rng.normal(0.0, sc.noise_sigma, points.shape)
    if sc.outlier_count:
        out = np.column_stack([
            (rng.random(sc.outlier_count) - 0.5) * 2.0 * sc.width,
            (rng.random(sc.outlier_count) - 0.5) * 2.0 * sc.depth,
            sc.table_height - 0.3 + rng.random(sc.outlier_count) * 0.8])
        points = np.vstack([points, out])
        labels.append(np.full(sc.outlier_count, OUTLIER_LABEL, dtype=np.int64))
    truth = WorkstationTruth(
        plane=Plane(normal=np.array([0.0, 0.0, 1.0]),
                    offset=-sc.table_height),
        labels=np.concatenate(labels),
        object_labels=tuple(o.label for o in sc.objects))
    return PointCloud(points=points), truth


# --- rotating-table streams --------------------------------------------------

@dataclass(frozen=True)
class RttObject:
    label: str
    angle0: float


@dataclass(frozen=True)
class RttScenario:
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 0.35
    omega: float = 0.5
    objects: tuple[RttObject, ...] = ()
    frame_rate: float = 15.0
    duration: float = 10.0
    noise_sigma_m: float = 0.004
    noise_sigma_px: float = 2.0
    dropout: float = 0.0
    box_size: float = DEFAULT_BOX_SIZE
    pixels_per_meter: float = DEFAULT_PPM
    table_z: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.radius <= 0.0 or self.frame_rate <= 0.0 or self.duration <= 0.0:
            raise ValueError("radius, frame_rate and duration must be positive")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError(f"dropout must lie in [0, 1): {self.dropout}")
        for name in ("noise_sigma_m", "noise_sigma_px"):
            if getattr(self, name) < 0.0:
                raise ValueError(
                    f"{name} must not be negative, got {getattr(self, name)}")
        for name in ("box_size", "pixels_per_meter"):
            if not getattr(self, name) > 0.0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class RttFrame3:
    t: float
    points: tuple[np.ndarray, ...]
    gt_ids: tuple[int, ...]


@dataclass(frozen=True)
class RttFrame2:
    t: float
    detections: tuple[Detection2D, ...]
    gt_ids: tuple[int, ...]


@dataclass(frozen=True)
class RttTruth:
    omega: float
    center: tuple[float, float]
    radius: float
    labels: tuple[str, ...]
    times: np.ndarray              # (frames,)
    angles: np.ndarray             # (frames, objects)
    positions: np.ndarray          # (frames, objects, 2)
    present: np.ndarray            # (frames, objects) bool
    pixels_per_meter: float = DEFAULT_PPM
    box_px: float = DEFAULT_BOX_SIZE * DEFAULT_PPM


def gen_rtt_stream(sc: RttScenario
                   ) -> tuple[list[RttFrame3], list[RttFrame2], RttTruth]:
    """Noisy 3D points and 2D detections of objects riding a turning table.

    Per frame and object the generator always draws, in order, one dropout
    uniform, three meter-noise normals, two pixel-noise normals and one
    score uniform; a dropped observation therefore does not shift the
    random sequence of later ones.
    """
    rng = np.random.default_rng(sc.seed)
    n_frames = max(1, int(round(sc.duration * sc.frame_rate)))
    n_obj = len(sc.objects)
    times = np.arange(n_frames) / sc.frame_rate
    angles = np.zeros((n_frames, n_obj))
    positions = np.zeros((n_frames, n_obj, 2))
    present = np.zeros((n_frames, n_obj), dtype=bool)
    box_px = sc.box_size * sc.pixels_per_meter

    frames3: list[RttFrame3] = []
    frames2: list[RttFrame2] = []
    for i, t in enumerate(times):
        pts, dets, ids3, ids2 = [], [], [], []
        for k, obj in enumerate(sc.objects):
            theta = obj.angle0 + sc.omega * t
            x = sc.center[0] + sc.radius * math.cos(theta)
            y = sc.center[1] + sc.radius * math.sin(theta)
            angles[i, k] = theta
            positions[i, k] = (x, y)
            u_drop = rng.random()
            n_m = rng.normal(0.0, sc.noise_sigma_m, 3)
            n_px = rng.normal(0.0, sc.noise_sigma_px, 2)
            u_score = rng.random()
            if u_drop < sc.dropout:
                continue
            present[i, k] = True
            pts.append(np.array([x + n_m[0], y + n_m[1], sc.table_z + n_m[2]]))
            ids3.append(k)
            dets.append(Detection2D(
                t=float(t),
                cx=(x - sc.center[0]) * sc.pixels_per_meter + n_px[0],
                cy=(y - sc.center[1]) * sc.pixels_per_meter + n_px[1],
                w=box_px, h=box_px, score=0.5 + 0.5 * u_score))
            ids2.append(k)
        frames3.append(RttFrame3(t=float(t), points=tuple(pts),
                                 gt_ids=tuple(ids3)))
        frames2.append(RttFrame2(t=float(t), detections=tuple(dets),
                                 gt_ids=tuple(ids2)))
    truth = RttTruth(omega=sc.omega, center=sc.center, radius=sc.radius,
                     labels=tuple(o.label for o in sc.objects),
                     times=times, angles=angles, positions=positions,
                     present=present, pixels_per_meter=sc.pixels_per_meter,
                     box_px=box_px)
    return frames3, frames2, truth


# --- metric evaluators -------------------------------------------------------

def _omega_error(track: Track3D | None, truth: RttTruth) -> float:
    """Relative angular-velocity error of a track's fitted motion;
    -1.0 without a track or when it is too short or degenerate to fit."""
    if track is None or len(track.history) < 10 or truth.omega == 0.0:
        return -1.0
    try:
        motion = estimate_motion(track)
    except TrackingError:
        return -1.0
    return abs(motion.omega - truth.omega) / abs(truth.omega)


def _score(claims: list[list[int | None]], truth: RttTruth, track_count: int,
           longest: Track3D | None, frames: int) -> dict[str, float]:
    """The metrics of a tracker run from each object's per-frame claimed
    track ids (None when unclaimed) and the run's longest track."""
    switches = 0
    correct = 0
    total = 0
    for k, seq in enumerate(claims):
        observed = [c for c in seq if c is not None]
        switches += sum(1 for a, b in zip(observed, observed[1:]) if a != b)
        # the most frequent claimant; among equals, the smallest id
        dominant = (max(sorted(set(observed)), key=observed.count)
                    if observed else None)
        for i, c in enumerate(seq):
            if truth.present[i, k]:
                total += 1
                correct += c is not None and c == dominant
    return {"id_switches": float(switches),
            "assoc_accuracy": correct / total if total else 0.0,
            "track_count": float(track_count),
            "omega_rel_err": _omega_error(longest, truth),
            "frames": float(frames)}


def evaluate_sort(frames2: list[RttFrame2],
                  truth: RttTruth) -> dict[str, float]:
    """Run SORT over a detection stream and score it against truth.

    The Kalman model steps by the stream's frame interval.  Each frame,
    objects claim confirmed tracks one to one: the assignment of least
    total pixel distance between true positions and reported box centres,
    pairs farther apart than one box edge excluded.  An object's claims are
    correct when they name its dominant claimant: the track that claims it
    in the most frames, the smallest id among equals.  Metrics:
    id_switches, assoc_accuracy, track_count, omega_rel_err.
    """
    n_obj = truth.positions.shape[1]
    claims: list[list[int | None]] = [[] for _ in range(n_obj)]
    traces: dict[int, list[tuple[float, float, float]]] = {}
    # a stream of one frame never predicts, so any interval serves
    tracker = (SortTracker(float(truth.times[1] - truth.times[0]))
               if len(truth.times) > 1 else SortTracker())
    all_ids: set[int] = set()
    scale = truth.pixels_per_meter
    gate = truth.box_px
    for i, frame in enumerate(frames2):
        step = tracker.step(list(frame.detections))
        ids = [rep.track_id for rep in step.confirmed]
        all_ids.update(ids)
        cx = np.array([(r.box[0] + r.box[2]) / 2.0 for r in step.confirmed])
        cy = np.array([(r.box[1] + r.box[3]) / 2.0 for r in step.confirmed])
        gx, gy = ((truth.positions[i] - truth.center) * scale).T
        dist = np.hypot(cx - gx[:, None], cy - gy[:, None])
        claimed = dict(gated_assignment(dist, dist <= gate))
        for k in range(n_obj):
            claims[k].append(ids[claimed[k]] if k in claimed else None)
        for j in claimed.values():
            traces.setdefault(ids[j], []).append(
                (float(truth.times[i]),
                 truth.center[0] + cx[j] / scale,
                 truth.center[1] + cy[j] / scale))
    longest = None
    if traces:
        longest = Track3D(id=-1)
        for t, x, y in max(traces.values(), key=len):
            longest.append(t, np.array([x, y, 0.0]))
    return _score(claims, truth, len(all_ids), longest, len(frames2))


def evaluate_nn3d(frames3: list[RttFrame3],
                  truth: RttTruth) -> dict[str, float]:
    """Run gated 3D association over a point stream and score it.

    Unmatched points found new tracks; each matched point's track id is the
    claim for that point's ground-truth object.
    """
    tracks: list[Track3D] = []
    next_id = 0
    n_obj = truth.positions.shape[1]
    claims: list[list[int | None]] = [[] for _ in range(n_obj)]
    for frame in frames3:
        stamped = [(frame.t, p) for p in frame.points]
        assoc = associate_nn_3d(tracks, stamped, NN3D_GATE)
        frame_claim: dict[int, int] = {}
        for ti, pj in assoc.pairs:
            frame_claim[frame.gt_ids[pj]] = tracks[ti].id
        for pj in assoc.unmatched_points:
            tr = Track3D(id=next_id)
            next_id += 1
            tr.append(frame.t, frame.points[pj])
            tracks.append(tr)
            frame_claim[frame.gt_ids[pj]] = tr.id
        for k in range(n_obj):
            claims[k].append(frame_claim.get(k))
    longest = max(tracks, key=lambda tr: len(tr.history), default=None)
    return _score(claims, truth, next_id, longest, len(frames3))


# --- occupancy-map generator -------------------------------------------------

def gen_obstacle_grid(rows: int, cols: int, resolution: float,
                      density: float, seed: int,
                      keep_free: tuple[tuple[float, float], ...]
                      ) -> np.ndarray:
    """Bernoulli-occupied cell array with optional carved-free discs.

    Returns a cell array ready for an OccupancyGrid at origin (0, 0);
    points listed in ``keep_free`` get a disc of FREE_RADIUS free cells
    around them so start and goal stay usable.
    """
    from .dwa import FREE, OCCUPIED
    rng = np.random.default_rng(seed)
    cells = np.where(rng.random((rows, cols)) < density,
                     OCCUPIED, FREE).astype(np.uint8)
    if keep_free:
        rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
        cx = (cc + 0.5) * resolution
        cy = (rr + 0.5) * resolution
        for (px, py) in keep_free:
            mask = (cx - px) ** 2 + (cy - py) ** 2 <= FREE_RADIUS ** 2
            cells[mask] = FREE
    return cells


# --- file helpers ------------------------------------------------------------

def load_scenario(path) -> WorkstationScenario | RttScenario:
    """Dispatch on the JSON "kind" field ("workstation" or "rtt")."""
    obj = load_json(path)
    kind = obj.get("kind", "workstation")
    if kind == "workstation":
        return decode(WorkstationScenario, obj, path)
    if kind == "rtt":
        return decode(RttScenario, obj, path)
    raise ValueError(f"{path}: 'kind' must be 'workstation' or 'rtt', "
                     f"got {kind!r}")


def save_metrics_csv(path, metrics: dict[str, float]) -> None:
    lines = ["metric,value"]
    for key in sorted(metrics):
        lines.append(f"{key},{repr(float(metrics[key]))}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
