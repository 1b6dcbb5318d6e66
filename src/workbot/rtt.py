"""Rotating-table tracking: 2D SORT-style tracking, 3D nearest-neighbour
association and circular motion estimation.

Both trackers pair by one rule, ``gated_assignment``, on one cost matrix
per frame: SORT on 1 - IoU with IoU >= IOU_MIN, 3D association on the
distance from each track's last point within a gate.
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


def iou(a, b) -> np.ndarray:
    """Intersection over union of (x1, y1, x2, y2) boxes, in [0, 1].

    The last axis holds the corners and the leading axes broadcast, so
    ``iou(preds[:, None], boxes)`` is the (tracks x detections) matrix in one
    call; boxes that do not overlap, touching ones included, score 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # (width, height) of the overlap and of each box
    overlap = (np.minimum(a[..., 2:], b[..., 2:])
               - np.maximum(a[..., :2], b[..., :2]))
    size_a = a[..., 2:] - a[..., :2]
    size_b = b[..., 2:] - b[..., :2]
    inter = overlap[..., 0] * overlap[..., 1]
    union = (size_a[..., 0] * size_a[..., 1] + size_b[..., 0] * size_b[..., 1]
             - inter)
    return np.divide(inter, union, out=np.zeros(inter.shape),
                     where=overlap.min(axis=-1) > 0.0)


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


def _checked_cost(cost) -> np.ndarray:
    """``cost`` as a float matrix whose entries are all finite."""
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2D matrix")
    if not np.isfinite(cost).all():
        raise ValueError("cost entries must be finite")
    return cost


def hungarian(cost) -> dict[int, int]:
    """Minimum-total-cost maximum assignment of rows to columns.

    Rectangular matrices yield a partial assignment of size min(rows, cols).
    Among optimal assignments the result is deterministic: rows are fixed in
    ascending order, each to the smallest column index that still permits an
    optimal completion.
    """
    cost = _checked_cost(cost)
    rows, cols = cost.shape
    if rows == 0 or cols == 0:
        return {}
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

    When no row and no column has two allowed pairs, the allowed pairs are
    the one maximum matching and no solver runs; the matrix is checked as
    ``hungarian`` would check it either way.
    """
    cost = np.asarray(cost, dtype=float)
    allowed = np.asarray(allowed, dtype=bool)
    # a Python float, which overflows to inf without a numpy warning
    spread = 2.0 * min(cost.shape) * float(
        np.abs(cost[allowed]).max(initial=0.0))
    if not (math.isfinite(spread) or allowed.all()):
        raise ValueError("cost entries must be finite")
    filled = _checked_cost(np.where(allowed, cost, 1.0 + spread))
    rows, cols = (ix.tolist() for ix in allowed.nonzero())
    if len(set(rows)) == len(rows) == len(set(cols)):
        return list(zip(rows, cols))
    assigned = hungarian(filled)
    return [(r, c) for r, c in sorted(assigned.items()) if allowed[r, c]]


# --- SORT-style Kalman tracking ---------------------------------------------

# a track is dropped once unmatched for more than MAX_AGE frames, and
# reported only after MIN_HITS associations
MAX_AGE = 5
MIN_HITS = 3
# a detection may extend a track only if their boxes overlap by this IoU
IOU_MIN = 0.3
# Kalman noise in pixel units per frame, on the state [u, v, s, r, du, dv, ds]:
# process noise Q, measurement noise R and the covariance P0 of a new track
_Q = frozen_array(np.diag([1.0] * 4 + [10.0] * 3))
_R = frozen_array(np.eye(4))
_P0 = frozen_array(np.diag([10.0] * 4 + [1000.0] * 3))
_I7 = frozen_array(np.eye(7))


def _corners(centre: np.ndarray, size: np.ndarray) -> np.ndarray:
    """(x1, y1, x2, y2) rows of boxes given by (n, 2) centres and sizes."""
    half = size / 2.0
    return np.concatenate([centre - half, centre + half], axis=1)


def _boxes(state: np.ndarray) -> np.ndarray:
    """The box of each state row [u, v, s, r, ...], area and aspect floored."""
    s = np.maximum(state[:, 2], 1e-9)
    r = np.maximum(state[:, 3], 1e-9)
    size = np.empty((len(state), 2))
    np.multiply(s, r, out=size[:, 0])
    np.divide(s, r, out=size[:, 1])
    return _corners(state[:, :2], np.sqrt(size, out=size))


def _kalman_update(state: np.ndarray, cov: np.ndarray,
                   z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measurement update of stacked tracks, (m, 7) states and (m, 7, 7)
    covariances, by (m, 4) measurements [u, v, s, r]: the new states,
    covariances and the innovations.  The measurement is the first four
    state entries, so H is applied by slicing."""
    innovation = z - state[:, :4]
    gain = cov[:, :, :4] @ np.linalg.inv(cov[:, :4, :4] + _R)
    i_kh = np.empty(cov.shape)
    i_kh[:] = _I7
    i_kh[:, :, :4] -= gain
    return (state + (gain @ innovation[..., None])[..., 0], i_kh @ cov,
            innovation)


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
    unmatched for more than MAX_AGE steps and are reported only after
    MIN_HITS associations.  The Kalman model steps by ``dt`` seconds.  Row
    i of ``state`` (n, 7), ``cov`` (n, 7, 7), ``ids``, ``hits`` and
    ``ages`` (steps since the last match) is one track, oldest first; the
    state is [u, v, s, r, du, dv, ds], the box centre, area, aspect and
    their rates.
    """

    def __init__(self, dt: float = 1.0 / 15.0):
        self.dt = dt
        self.state = np.zeros((0, 7))
        self.cov = np.zeros((0, 7, 7))
        self.ids = np.zeros(0, dtype=int)
        self.hits = np.zeros(0, dtype=int)
        self.ages = np.zeros(0, dtype=int)
        self._next_id = 0
        # constant-velocity transition: u, v and s move by their rates per frame
        self._f = np.eye(7)
        self._f[0, 4] = self._f[1, 5] = self._f[2, 6] = dt

    def step(self, detections: list[Detection2D]) -> SortStep:
        f = self._f
        x, p = self.state, self.cov
        x[x[:, 2] + x[:, 6] * self.dt <= 0.0, 6] = 0.0   # area stays positive
        # per-row products, bit-equal to f @ x and f @ p @ f.T track by track
        x = (f @ x[..., None])[..., 0]
        p = f @ p @ f.T + _Q
        ids, hits, ages = self.ids, self.hits.copy(), self.ages + 1

        # per detection: the measurement [u, v, s, r], then the box size
        raw = np.array([(d.cx, d.cy, d.w * d.h, d.w / d.h, d.w, d.h)
                        for d in detections], dtype=float).reshape(-1, 6)
        z = raw[:, :4]
        id_list = ids.tolist()
        pairs: list[tuple[int, int]] = []
        if id_list and detections:
            ious = iou(_boxes(x)[:, None], _corners(raw[:, :2], raw[:, 4:]))
            pairs = gated_assignment(1.0 - ious, ious >= IOU_MIN)
        matches = [(id_list[ti], dj) for ti, dj in pairs]
        unmatched = np.ones(len(detections), dtype=bool)
        if pairs:
            rows, cols = np.array(pairs).T
            x[rows], p[rows], _ = _kalman_update(x[rows], p[rows], z[cols])
            hits[rows] += 1
            ages[rows] = 0
            unmatched[cols] = False

        born = unmatched.nonzero()[0]
        new_ids = list(range(self._next_id, self._next_id + len(born)))
        if new_ids:
            self._next_id += len(new_ids)
            matches += zip(new_ids, born.tolist())
            fresh = np.zeros((len(born), 7))
            fresh[:, :4] = z[born]
            x = np.concatenate([x, fresh])
            p = np.concatenate([p, np.broadcast_to(_P0, (len(born), 7, 7))])
            ids = np.concatenate([ids, new_ids])
            hits = np.concatenate([hits, np.ones(len(born), dtype=int)])
            ages = np.concatenate([ages, np.zeros(len(born), dtype=int)])

        keep = ages <= MAX_AGE
        removed = ids[~keep].tolist()
        if removed:
            x, p, ids = x[keep], p[keep], ids[keep]
            hits, ages = hits[keep], ages[keep]
        self.state, self.cov, self.ids = x, p, ids
        self.hits, self.ages = hits, ages

        shown = hits >= MIN_HITS
        confirmed = tuple(map(TrackReport, ids[shown].tolist(),
                              map(tuple, _boxes(x[shown]).tolist())))
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
    """Pair tracks with points by ``gated_assignment`` on the distances from
    each track's last point: as many pairs within the gate as possible, then
    the least total distance.  Matched points are appended to their tracks'
    histories in track order, and the leftovers are reported.
    """
    ends = np.array([tr.last_point for tr in tracks]).reshape(len(tracks), 3)
    pts = np.array([p for _, p in points], dtype=float).reshape(len(points), 3)
    dist = np.linalg.norm(pts - ends[:, None], axis=-1)
    pairs = gated_assignment(dist, dist <= gate)
    for ti, pj in pairs:
        tracks[ti].append(*points[pj])
    left_t = set(range(len(tracks))) - {ti for ti, _ in pairs}
    left_p = set(range(len(points))) - {pj for _, pj in pairs}
    return Association(pairs=tuple(pairs),
                       unmatched_tracks=tuple(sorted(left_t)),
                       unmatched_points=tuple(sorted(left_p)))


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

