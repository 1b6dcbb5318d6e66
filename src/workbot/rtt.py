"""Rotating-table tracking: 2D SORT-style tracking, 3D nearest-neighbour
association, circular motion estimation and background change detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import WorkbotError
from .geometry import TWO_PI, frozen_array, wrap_angle

OMEGA_MIN = 1e-3                   # rad/s; predict_arrival rejects slower tables


class TrackingError(WorkbotError):
    pass


class NonMonotonicTimestamp(TrackingError):
    pass


class CollinearPoints(TrackingError):
    pass


class ZeroTimeSpan(TrackingError):
    pass


class TableStationary(TrackingError):
    pass


class DimensionMismatch(TrackingError):
    pass


class RoiOutOfBounds(TrackingError):
    pass


# --- 2D detections and IoU --------------------------------------------------

@dataclass(frozen=True)
class Detection2D:
    """Axis-aligned box (centre, size) with a confidence score at time t."""

    t: float
    cx: float
    cy: float
    w: float
    h: float
    score: float = 1.0

    def __post_init__(self):
        if self.w <= 0.0 or self.h <= 0.0:
            raise ValueError(f"box size must be positive, got {self.w} x {self.h}")
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score outside [0, 1]: {self.score}")

    def corners(self) -> tuple[float, float, float, float]:
        return (self.cx - self.w / 2.0, self.cy - self.h / 2.0,
                self.cx + self.w / 2.0, self.cy + self.h / 2.0)


def iou(a, b) -> float:
    """Intersection over union of two (x1, y1, x2, y2) boxes, in [0, 1]."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


# --- Hungarian assignment ---------------------------------------------------

def _solve_square(cost: list[list[float]]) -> tuple[list, list, list]:
    """Square min-cost perfect assignment by the potentials method: the row
    matched to each column, and optimal duals u, v whose reduced costs
    ``cost[i][j] - u[i] - v[j]`` are >= 0, and 0 on the matching."""
    n = len(cost)
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match = [0] * (n + 1)      # match[j] = row assigned to column j (1-based)
    for i in range(1, n + 1):
        links = [0] * (n + 1)
        mins = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        match[0] = i
        j0 = 0
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = math.inf
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < mins[j]:
                    mins[j] = cur
                    links[j] = j0
                if mins[j] < delta:
                    delta = mins[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    mins[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = links[j0]
            match[j0] = match[j1]
            j0 = j1
    return [i - 1 for i in match[1:]], u[1:], v[1:]


def _augment(i: int, tight: list, col_row: list, seen: set) -> bool:
    """Kuhn's step: match row i along an alternating path of tight edges,
    trying columns in ascending order and skipping those in ``seen``."""
    for j in tight[i]:
        if j not in seen:
            seen.add(j)
            if col_row[j] < 0 or _augment(col_row[j], tight, col_row, seen):
                col_row[j] = i
                return True
    return False


def hungarian(cost) -> dict[int, int]:
    """Minimum-total-cost maximum assignment of rows to columns.

    Rectangular matrices yield a partial assignment of size min(rows, cols).
    Among optimal assignments the result is deterministic: rows are fixed in
    ascending order, each to the smallest column index that still permits an
    optimal completion.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2D matrix")
    rows, cols = cost.shape
    if rows == 0 or cols == 0:
        return {}
    if not np.isfinite(cost).all():
        raise ValueError("cost entries must be finite")
    n = max(rows, cols)
    square = np.zeros((n, n))
    square[:rows, :cols] = cost
    square = square.tolist()
    col_row, u, v = _solve_square(square)
    total = sum(square[i][j] for j, i in enumerate(col_row))
    tol = 1e-9 * (1.0 + abs(total))
    # By complementary slackness the optimal assignments are exactly the
    # perfect matchings on tight edges, the solver's own kept despite rounding.
    tight = [[j for j in range(n) if row[j] - u[i] - v[j] <= tol
              or col_row[j] == i] for i, row in enumerate(square)]
    # Each row in turn gives up its column for the smallest one from which
    # the later rows can be rematched; padding columns sort last by index.
    for r in range(rows):
        fixed = {j for j, i in enumerate(col_row) if i < r}
        col_row[col_row.index(r)] = -1
        _augment(r, tight, col_row, fixed)
    row_col = {r: c for c, r in enumerate(col_row)}
    return {r: row_col[r] for r in range(rows) if row_col[r] < cols}


def gated_assignment(cost, allowed) -> list[tuple[int, int]]:
    """Minimum-cost assignment over the allowed pairs only, as (row, col)
    pairs in row order.

    A forbidden pair costs more than the allowed costs of any two
    assignments can differ by, so ``hungarian`` first makes as many allowed
    pairs as it can and then the cheapest such set.  A forbidden pair the
    solver still makes to fill a row or column is dropped.
    """
    cost = np.asarray(cost, dtype=float)
    allowed = np.asarray(allowed, dtype=bool)
    spread = 2.0 * min(cost.shape) * np.abs(cost[allowed]).max(initial=0.0)
    assigned = hungarian(np.where(allowed, cost, 1.0 + spread))
    return [(r, c) for r, c in sorted(assigned.items()) if allowed[r, c]]


# --- SORT-style Kalman tracking ---------------------------------------------

@dataclass(frozen=True)
class SortConfig:
    """Track lifetime and the frame interval (s) of the Kalman model."""

    max_age: int = 5
    min_hits: int = 3
    dt: float = 1.0 / 15.0


# a detection may extend a track only if their boxes overlap by this IoU
IOU_MIN = 0.3
# Kalman noise in pixel units per frame, on the state [u, v, s, r, du, dv, ds]:
# process noise Q, measurement noise R and the covariance P0 of a new track
_Q = frozen_array(np.diag([1.0] * 4 + [10.0] * 3))
_R = frozen_array(np.eye(4))
_P0 = frozen_array(np.diag([10.0] * 4 + [1000.0] * 3))


def _measurement(det: Detection2D) -> np.ndarray:
    return np.array([det.cx, det.cy, det.w * det.h, det.w / det.h])


def _state_box(state: np.ndarray) -> tuple[float, float, float, float]:
    s = max(float(state[2]), 1e-9)
    r = max(float(state[3]), 1e-9)
    w = math.sqrt(s * r)
    h = math.sqrt(s / r)
    cx, cy = float(state[0]), float(state[1])
    return (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


@dataclass
class Track2D:
    """State [u, v, s, r, du, dv, ds]: box centre, area, aspect and their rates."""

    id: int
    state: np.ndarray
    cov: np.ndarray
    hits: int = 1
    age_since_update: int = 0

    def predicted_box(self) -> tuple[float, float, float, float]:
        return _state_box(self.state)


def kalman_update(track: Track2D, det: Detection2D) -> np.ndarray:
    """Measurement update; returns the innovation vector.  The measurement
    is the first four state entries, so H is applied by slicing."""
    innovation = _measurement(det) - track.state[:4]
    k = track.cov[:, :4] @ np.linalg.inv(track.cov[:4, :4] + _R)
    track.state = track.state + k @ innovation
    i_kh = np.eye(7)
    i_kh[:, :4] -= k
    track.cov = i_kh @ track.cov
    return innovation


def _new_track(track_id: int, det: Detection2D) -> Track2D:
    state = np.zeros(7)
    state[:4] = _measurement(det)
    return Track2D(id=track_id, state=state, cov=_P0.copy())


@dataclass(frozen=True)
class TrackReport:
    track_id: int
    box: tuple[float, float, float, float]


@dataclass(frozen=True)
class SortStep:
    confirmed: tuple[TrackReport, ...]
    matches: tuple[tuple[int, int], ...]       # (track id, detection index)
    new_ids: tuple[int, ...]
    removed_ids: tuple[int, ...]


class SortTracker:
    """Detection-to-track association with a constant-velocity Kalman filter.

    Track ids increase monotonically and are never reused; tracks vanish once
    unmatched for more than ``max_age`` steps and are reported only after
    ``min_hits`` associations.
    """

    def __init__(self, cfg: SortConfig | None = None):
        self.cfg = cfg or SortConfig()
        self.tracks: list[Track2D] = []
        self._next_id = 0
        # constant-velocity transition: u, v and s move by their rates per frame
        self._f = np.eye(7)
        self._f[0, 4] = self._f[1, 5] = self._f[2, 6] = self.cfg.dt

    def step(self, detections: list[Detection2D]) -> SortStep:
        cfg, f = self.cfg, self._f
        for tr in self.tracks:
            if tr.state[2] + tr.state[6] * cfg.dt <= 0.0:
                tr.state[6] = 0.0          # the box area must stay positive
            tr.state = f @ tr.state
            tr.cov = f @ tr.cov @ f.T + _Q
            tr.age_since_update += 1

        matches: list[tuple[int, int]] = []
        unmatched_dets = set(range(len(detections)))
        if self.tracks and detections:
            preds = [tr.predicted_box() for tr in self.tracks]
            boxes = [d.corners() for d in detections]
            ious = np.array([[iou(p, b) for b in boxes] for p in preds])
            for ti, dj in gated_assignment(1.0 - ious, ious >= IOU_MIN):
                tr = self.tracks[ti]
                kalman_update(tr, detections[dj])
                tr.hits += 1
                tr.age_since_update = 0
                matches.append((tr.id, dj))
                unmatched_dets.discard(dj)

        new_ids = []
        for dj in sorted(unmatched_dets):
            tr = _new_track(self._next_id, detections[dj])
            self._next_id += 1
            self.tracks.append(tr)
            new_ids.append(tr.id)
            matches.append((tr.id, dj))

        removed = [tr.id for tr in self.tracks if tr.age_since_update > cfg.max_age]
        self.tracks = [tr for tr in self.tracks
                       if tr.age_since_update <= cfg.max_age]

        confirmed = tuple(TrackReport(tr.id, tr.predicted_box())
                          for tr in self.tracks if tr.hits >= cfg.min_hits)
        return SortStep(confirmed=confirmed, matches=tuple(matches),
                        new_ids=tuple(new_ids), removed_ids=tuple(removed))


# --- 3D nearest-neighbour association ---------------------------------------

@dataclass
class Track3D:
    """A timestamped 3D point history; timestamps strictly increase."""

    id: int
    history: list[tuple[float, np.ndarray]] = field(default_factory=list)

    @property
    def last_t(self) -> float:
        return self.history[-1][0]

    @property
    def last_point(self) -> np.ndarray:
        return self.history[-1][1]

    def append(self, t: float, point) -> None:
        point = np.asarray(point, dtype=float).reshape(3)
        if self.history and t <= self.last_t:
            raise NonMonotonicTimestamp(
                f"track {self.id}: time {t} not after {self.last_t}")
        self.history.append((float(t), point))


@dataclass(frozen=True)
class Association:
    pairs: tuple[tuple[int, int], ...]         # (track index, point index)
    unmatched_tracks: tuple[int, ...]
    unmatched_points: tuple[int, ...]


def associate_nn_3d(tracks: list[Track3D],
                    points: list[tuple[float, np.ndarray]],
                    gate: float) -> Association:
    """Greedy globally-nearest pairing under a distance gate.

    Repeatedly commits the smallest remaining track-point distance while it
    does not exceed the gate (ties broken by track then point index), appends
    matched points to track histories, and reports the leftovers.
    """
    candidates = []
    for ti, tr in enumerate(tracks):
        base = tr.last_point
        for pj, (_, p) in enumerate(points):
            d = float(np.linalg.norm(np.asarray(p, dtype=float) - base))
            if d <= gate:
                candidates.append((d, ti, pj))
    candidates.sort()
    used_t: set[int] = set()
    used_p: set[int] = set()
    pairs = []
    for d, ti, pj in candidates:
        if ti in used_t or pj in used_p:
            continue
        t, p = points[pj]
        tracks[ti].append(t, p)
        pairs.append((ti, pj))
        used_t.add(ti)
        used_p.add(pj)
    unmatched_t = tuple(i for i in range(len(tracks)) if i not in used_t)
    unmatched_p = tuple(j for j in range(len(points)) if j not in used_p)
    return Association(pairs=tuple(pairs), unmatched_tracks=unmatched_t,
                       unmatched_points=unmatched_p)


# --- circular motion --------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CircularMotion:
    """theta(t) = phase0 + omega * (t - t_ref) about a fixed centre."""

    center: np.ndarray
    radius: float
    omega: float
    phase0: float
    t_ref: float

    def __post_init__(self):
        c = frozen_array(self.center, shape=2)
        if self.radius <= 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if not (-math.pi < self.phase0 <= math.pi):
            raise ValueError(f"phase0 outside (-pi, pi]: {self.phase0}")
        object.__setattr__(self, "center", c)

    def angle_at(self, t: float) -> float:
        return self.phase0 + self.omega * (t - self.t_ref)


def fit_circle(points) -> tuple[np.ndarray, float]:
    """Algebraic least-squares circle fit; exact on noiseless circular data."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("circle fit needs an (n >= 3, 2) array")
    x, y = pts[:, 0], pts[:, 1]
    design = np.column_stack([x, y, np.ones_like(x)])
    target = x * x + y * y
    sol, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < 3:
        raise CollinearPoints("points are collinear; no unique circle")
    cx, cy = sol[0] / 2.0, sol[1] / 2.0
    r2 = sol[2] + cx * cx + cy * cy
    return np.array([cx, cy]), math.sqrt(max(r2, 0.0))


def estimate_motion(track: Track3D, center_hint=None) -> CircularMotion:
    """Fit a constant-rate circular motion to a track's (x, y) history.

    The angular rate is the least-squares slope of the unwrapped bearing over
    time; phase0 is the fitted bearing at the last timestamp, wrapped to
    (-pi, pi].  When ``center_hint`` is given the centre is taken from it and
    only the radius and phase line are estimated.
    """
    if len(track.history) < 3:
        raise ValueError(f"motion estimation needs >= 3 samples, "
                         f"got {len(track.history)}")
    ts = np.array([t for t, _ in track.history])
    xy = np.array([p[:2] for _, p in track.history])
    span = float(ts[-1] - ts[0])
    if span <= 0.0:
        raise ZeroTimeSpan("track history spans no time")
    if center_hint is None:
        center, radius = fit_circle(xy)
    else:
        center = np.asarray(center_hint, dtype=float).reshape(2)
        radius = float(np.mean(np.linalg.norm(xy - center, axis=1)))
    rel = xy - center
    theta = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
    slope, intercept = np.polyfit(ts, theta, 1)
    t_ref = float(ts[-1])
    phase0 = wrap_angle(float(slope * t_ref + intercept))
    return CircularMotion(center=center, radius=radius, omega=float(slope),
                          phase0=phase0, t_ref=t_ref)


def predict_arrival(motion: CircularMotion, target_angle: float,
                    t_now: float, lead: float = 0.5) -> float:
    """Earliest time >= t_now + lead at which the motion reaches target_angle.

    The target is interpreted modulo 2*pi in the direction of rotation; a
    nearly stationary table (|omega| <= OMEGA_MIN) is rejected.
    """
    if lead < 0.0:
        raise ValueError(f"lead must be non-negative, got {lead}")
    if abs(motion.omega) <= OMEGA_MIN:
        raise TableStationary(
            f"|omega| = {abs(motion.omega):.2e} <= {OMEGA_MIN:.2e} rad/s")
    t0 = t_now + lead
    current = motion.angle_at(t0)
    if motion.omega > 0.0:
        delta = (target_angle - current) % TWO_PI
    else:
        delta = (current - target_angle) % TWO_PI
    return t0 + delta / abs(motion.omega)


# --- background change detection --------------------------------------------

@dataclass(frozen=True)
class RoiRect:
    """Rectangular region of interest in grid cells: top-left corner plus size."""

    row: int
    col: int
    height: int
    width: int

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError("roi must span at least one cell")


def change_trigger(reference, current, roi: RoiRect,
                   delta: float, frac: float) -> bool:
    """True when strictly more than ``frac`` of ROI cells moved by more than ``delta``."""
    ref = np.asarray(reference, dtype=float)
    cur = np.asarray(current, dtype=float)
    if ref.ndim != 2 or ref.shape != cur.shape:
        raise DimensionMismatch(
            f"grid shapes differ: {ref.shape} vs {cur.shape}")
    rows, cols = ref.shape
    if (roi.row < 0 or roi.col < 0 or roi.row + roi.height > rows
            or roi.col + roi.width > cols):
        raise RoiOutOfBounds(f"roi {roi} exceeds grid {ref.shape}")
    r0, r1 = roi.row, roi.row + roi.height
    c0, c1 = roi.col, roi.col + roi.width
    changed = np.abs(cur[r0:r1, c0:c1] - ref[r0:r1, c0:c1]) > delta
    return float(changed.mean()) > frac
