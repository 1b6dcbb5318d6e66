"""Point-cloud types and the tabletop segmentation pipeline.

A raw cloud flows through voxel downsampling, passthrough cropping, normal
estimation, horizontal-plane extraction, convex-hull modelling of the
surface, prism cropping above the surface and euclidean clustering.  Every
stage is a pure function over immutable inputs; the RANSAC stage takes an
explicit seed so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .errors import WorkbotError
from .geometry import canonical_sign, frozen_array, length, unit

_AXES = {"x": 0, "y": 1, "z": 2}
# a plane normal points toward positive z, ties broken on y, then x
_PLANE_AXES = (2, 1, 0)

# Eigenvalue floor below which a neighbourhood or cluster carries no usable
# spatial extent (squared metres; ~1e-8 m spread).
DEGENERATE_EIG = 1e-16

_BOUNDARY_EPS = 1e-12

# RANSAC candidates built per batch: the default 500 iterations fit in one
# block, and a larger max_iters does not grow the batch arrays
_PLANE_BLOCK = 512
# RANSAC candidates whose inliers one pair of BLAS products counts
_COUNT_BLOCK = 8

# float64 unit roundoff; gamma(n) = n u / (1 - n u) bounds the relative
# rounding error of an n-term dot product summed in any order, with or
# without fused multiply-adds (Higham, "Accuracy and Stability of Numerical
# Algorithms", 2nd ed., section 3.1)
_U = float(np.finfo(float).eps) / 2.0


def _gamma(n: int) -> float:
    return n * _U / (1.0 - n * _U)


# Newton steps toward the smallest eigenvalue of a neighbourhood covariance
_EIG_ITERS = 15


class CloudError(WorkbotError):
    pass


class NonPositiveLeaf(CloudError):
    pass


class InvertedRange(CloudError):
    pass


class TooFewPoints(CloudError):
    pass


class DegenerateNeighborhood(CloudError):
    pass


class NoAdmissiblePlane(CloudError):
    pass


class DegenerateInliers(CloudError):
    pass


class InvertedHeightRange(CloudError):
    pass


@dataclass(frozen=True)
class Point3:
    x: float
    y: float
    z: float

    @staticmethod
    def from_array(a) -> "Point3":
        a = np.asarray(a, dtype=float)
        return Point3(float(a[0]), float(a[1]), float(a[2]))


@dataclass(frozen=True, eq=False)
class PointCloud:
    """An ordered set of 3D points with optional per-point unit normals."""

    points: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        pts = frozen_array(self.points)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3 or not np.isfinite(pts).all():
            raise ValueError("points must be a finite (n, 3) array")
        object.__setattr__(self, "points", pts)
        if self.normals is not None:
            nrm = frozen_array(self.normals)
            if nrm.shape != pts.shape:
                raise ValueError("normals must pair 1:1 with points")
            lengths = np.linalg.norm(nrm, axis=1)
            if pts.shape[0] and np.max(np.abs(lengths - 1.0), initial=0.0) > 1e-6:
                raise ValueError("normals must have unit length")
            object.__setattr__(self, "normals", nrm)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class Plane:
    """A plane {p : normal . p + offset = 0} with its supporting inliers.

    The normal is unit length and canonicalized toward positive z (ties
    resolved on y, then x), so a horizontal tabletop always reports an
    upward-facing normal.
    """

    normal: np.ndarray
    offset: float
    inliers: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float).reshape(3)
        ln = length(n)
        if not math.isfinite(ln) or ln == 0.0:
            raise ValueError("plane normal must be a nonzero finite vector")
        n = n / ln
        off = float(self.offset) / ln
        sign = canonical_sign(n, _PLANE_AXES)
        object.__setattr__(self, "normal", frozen_array(sign * n))
        object.__setattr__(self, "offset", sign * off)
        object.__setattr__(self, "inliers", frozen_array(self.inliers, dtype=np.intp))


@dataclass(frozen=True, eq=False)
class PlaneBasis:
    """Origin plus two orthonormal in-plane axes defining 2D coordinates."""

    origin: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        o, u, v = (frozen_array(a, shape=3) for a in (self.origin, self.u, self.v))
        if (abs(length(u) - 1.0) > 1e-9 or abs(length(v) - 1.0) > 1e-9
                or abs(float(_rowdot(u, v))) > 1e-9):
            raise ValueError("basis axes must be orthonormal")
        for name, val in (("origin", o), ("u", u), ("v", v)):
            object.__setattr__(self, name, val)

    @property
    def normal(self) -> np.ndarray:
        return np.cross(self.u, self.v)

    def project(self, points) -> np.ndarray:
        rel = np.asarray(points, dtype=float) - self.origin
        return np.stack([_rowdot(rel, self.u), _rowdot(rel, self.v)], axis=-1)

    def heights(self, points) -> np.ndarray:
        rel = np.asarray(points, dtype=float) - self.origin
        return _rowdot(rel, self.normal)

    def to_world(self, uv) -> np.ndarray:
        uv = np.asarray(uv, dtype=float)
        if uv.ndim == 1:
            return self.origin + uv[0] * self.u + uv[1] * self.v
        return self.origin + np.outer(uv[:, 0], self.u) + np.outer(uv[:, 1], self.v)


@dataclass(frozen=True, eq=False)
class Polygon2:
    """A strictly convex CCW polygon in the 2D coordinates of a plane basis."""

    vertices: np.ndarray
    basis: PlaneBasis

    def __post_init__(self):
        verts = frozen_array(self.vertices)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise ValueError("polygon needs at least 3 2D vertices")
        if not np.isfinite(verts).all():
            raise ValueError("polygon vertices must be finite")
        if _signed_area(verts) <= 0.0:
            raise ValueError("polygon vertices must wind counter-clockwise")
        object.__setattr__(self, "vertices", verts)

    @property
    def normal(self) -> np.ndarray:
        return self.basis.normal

    def contains(self, uv, eps: float = _BOUNDARY_EPS) -> np.ndarray | bool:
        """Boundary-inclusive membership test for one point or an (n, 2) batch."""
        uv = np.asarray(uv, dtype=float)
        single = uv.ndim == 1
        pts = np.atleast_2d(uv)
        inside = np.ones(pts.shape[0], dtype=bool)
        verts = self.vertices
        for i in range(len(verts)):
            a = verts[i]
            b = verts[(i + 1) % len(verts)]
            cross = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0])
            inside &= cross >= -eps
        return bool(inside[0]) if single else inside

    def edge_distance(self, uv) -> np.ndarray | float:
        """Distance to the closest edge segment, for one point or an (n, 2) batch."""
        uv = np.asarray(uv, dtype=float)
        a = self.vertices
        ab = np.roll(a, -1, axis=0) - a
        denom = _rowdot(ab, ab)
        pts = np.atleast_2d(uv)[:, None, :]
        rel = pts - a
        # a zero-length edge measures from its start vertex (t = 0)
        t = np.divide(_rowdot(rel, ab), denom, out=np.zeros(rel.shape[:2]),
                      where=denom != 0.0)
        gap = pts - (a + np.clip(t, 0.0, 1.0)[..., None] * ab)
        dist = np.sqrt(_rowdot(gap, gap)).min(axis=1)
        return float(dist[0]) if uv.ndim == 1 else dist


def _rowdot(a, b) -> np.ndarray:
    """Dot product over the last axis, summed in index order by elementwise
    float64 operations: the same bits under every BLAS kernel and SIMD
    target, where a matmul's order and fused multiply-adds vary."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    total = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        total = total + a[..., i] * b[..., i]
    return total


def _signed_area(verts: np.ndarray) -> float:
    x = verts[:, 0]
    y = verts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


@dataclass(frozen=True, eq=False)
class Cluster:
    """A connected group of points, indexed into its source cloud."""

    indices: np.ndarray
    centroid: Point3

    def __post_init__(self):
        idx = frozen_array(self.indices, dtype=np.intp)
        if idx.size == 0:
            raise ValueError("cluster cannot be empty")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True)
class PerceptionConfig:
    """Tunable parameters for the tabletop pipeline; defaults suit desk-scale scenes."""

    leaf: float = 0.005
    passthrough: tuple[str, float, float] | None = None
    normals_k: int = 10
    plane_dist_thresh: float = 0.005
    plane_angle_tol: float = math.radians(10.0)
    plane_ref_axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    plane_max_iters: int = 500
    prism_h_min: float = 0.01
    prism_h_max: float = 0.40
    cluster_tol: float = 0.02
    cluster_min_size: int = 25
    cluster_max_size: int = 20000
    seed: int = 0

    def __post_init__(self):
        # each stage's own rule, checked at load; leaf 0 skips downsampling
        if not (self.leaf >= 0.0 and math.isfinite(self.leaf)):
            raise ValueError(f"leaf must be finite and not negative, "
                             f"got {self.leaf}")
        if self.passthrough is not None:
            axis, lo, hi = self.passthrough
            if str(axis).lower() not in _AXES or not lo <= hi:
                raise ValueError(f"passthrough must be (axis x, y or z, lo, "
                                 f"hi) with lo <= hi, got {self.passthrough}")
        if self.normals_k < 3:
            raise ValueError(f"normals_k must be at least 3, "
                             f"got {self.normals_k}")
        if not 0.0 < self.plane_angle_tol <= math.pi / 2.0:
            raise ValueError(f"plane_angle_tol must be in (0, pi/2], "
                             f"got {self.plane_angle_tol}")
        if not 0.0 < math.hypot(*self.plane_ref_axis) < math.inf:
            raise ValueError(f"plane_ref_axis must be a nonzero finite "
                             f"vector, got {self.plane_ref_axis}")
        if not self.plane_dist_thresh > 0.0:
            raise ValueError(f"plane_dist_thresh must be positive, "
                             f"got {self.plane_dist_thresh}")
        if self.plane_max_iters < 1:
            raise ValueError(f"plane_max_iters must be at least 1, "
                             f"got {self.plane_max_iters}")
        if not 0.0 <= self.prism_h_min < self.prism_h_max:
            raise ValueError(f"prism_h_min must be in [0, prism_h_max = "
                             f"{self.prism_h_max}), got {self.prism_h_min}")
        if not self.cluster_tol > 0.0:
            raise ValueError(f"cluster_tol must be positive, "
                             f"got {self.cluster_tol}")
        if not 1 <= self.cluster_min_size <= self.cluster_max_size:
            raise ValueError(f"cluster_min_size must be in [1, "
                             f"cluster_max_size = {self.cluster_max_size}], "
                             f"got {self.cluster_min_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def voxel_downsample(cloud: PointCloud, leaf: float) -> PointCloud:
    """Replace each occupied voxel by the centroid of its member points.

    Voxel membership uses floor(p / leaf) per axis; normals do not survive
    averaging and are dropped.  Output points are ordered by voxel index.
    """
    if not (leaf > 0.0 and math.isfinite(leaf)):
        raise NonPositiveLeaf(f"voxel leaf must be positive, got {leaf}")
    if len(cloud) == 0:
        return PointCloud(np.empty((0, 3)))
    idx = np.floor(cloud.points / leaf).astype(np.int64)
    order = np.lexsort((idx[:, 2], idx[:, 1], idx[:, 0]))
    sidx = idx[order]
    spts = cloud.points[order]
    new_voxel = np.any(np.diff(sidx, axis=0) != 0, axis=1)
    starts = np.concatenate(([0], np.nonzero(new_voxel)[0] + 1))
    sums = np.add.reduceat(spts, starts, axis=0)
    counts = np.diff(np.concatenate((starts, [len(spts)])))
    return PointCloud(sums / counts[:, None])


def passthrough(cloud: PointCloud, axis: str, lo: float, hi: float) -> PointCloud:
    """Keep points whose chosen coordinate lies in the closed interval [lo, hi]."""
    a = _AXES.get(str(axis).lower())
    if a is None:
        raise ValueError(f"axis must be one of x, y, z; got {axis!r}")
    if lo > hi:
        raise InvertedRange(f"passthrough range inverted: [{lo}, {hi}]")
    coord = cloud.points[:, a]
    keep = (coord >= lo) & (coord <= hi)
    normals = cloud.normals[keep] if cloud.normals is not None else None
    return PointCloud(cloud.points[keep], normals=normals)


def estimate_normals(cloud: PointCloud, k: int = 10) -> PointCloud:
    """Per-point normals from the k-nearest-neighbour covariance.

    The normal is the eigenvector of the smallest covariance eigenvalue,
    sign-flipped to face the sensor origin.  Covariance and eigenvector are
    elementwise float64 arithmetic in a fixed order, so the normals are the
    same bits under every BLAS kernel and SIMD target.
    """
    n = len(cloud)
    if k < 3:
        raise TooFewPoints(f"normal estimation needs k >= 3, got {k}")
    if n < k:
        raise TooFewPoints(f"cloud has {n} points but k = {k}")
    # sliding-midpoint splits answer the same queries faster on clustered scans
    tree = cKDTree(cloud.points, balanced_tree=False)
    _, nn = tree.query(cloud.points, k=k)
    return PointCloud(cloud.points,
                      normals=_neighbourhood_normals(cloud.points, nn))


def _neighbourhood_normals(points: np.ndarray, nn: np.ndarray) -> np.ndarray:
    """Unit normals, facing the origin, of the neighbourhoods listed by the
    rows of ``nn`` (indices into ``points``).  Raises DegenerateNeighborhood
    for a neighbourhood whose largest covariance eigenvalue is at most
    DEGENERATE_EIG."""
    k = nn.shape[1]
    # (3, k, n): coordinate i of every point's j-th neighbour is one
    # contiguous row
    coords = np.ascontiguousarray(points.T)[:, nn.T]
    x, y, z = coords - _sum_neighbours(coords)[:, None, :] / k
    cov = [_sum_neighbours(p) / k for p in (x * x, y * y, z * z,
                                            x * y, x * z, y * z)]
    normals, largest = _smallest_eigenvectors(*cov)
    flat = largest <= DEGENERATE_EIG
    if np.any(flat):
        bad = int(np.nonzero(flat)[0][0])
        raise DegenerateNeighborhood(
            f"neighbourhood of point {bad} has no spatial extent")
    normals[_rowdot(normals, points) > 0.0] *= -1.0
    return normals


def _sum_neighbours(a: np.ndarray) -> np.ndarray:
    # the sum over axis -2, one row at a time in index order
    total = a[..., 0, :].copy()
    for j in range(1, a.shape[-2]):
        total += a[..., j, :]
    return total


def _smallest_eigenvectors(a, b, c, d, e, f) -> tuple[np.ndarray, np.ndarray]:
    """Unit eigenvectors (n, 3) of the smallest eigenvalue, and the largest
    eigenvalues (n,), of the symmetric positive semi-definite matrices
    A = [[a, d, e], [d, b, f], [e, f, c]], given entry by entry as (n,)
    arrays.

    Only + - * / and sqrt, elementwise.  The smallest eigenvalue is the
    smallest root of the characteristic cubic, reached by Newton's method
    from 0, which climbs monotonically for a PSD matrix.  (Smith, CACM 1961,
    gives the roots in closed form, but through arccos and cos, whose bits
    differ between libm and SIMD builds.)  The eigenvector is the longest
    cross product of two rows of A - lambda I (Kopp, IJMPC 2008).  Where
    A - lambda I is of rank 1 or less to within rounding, as for a
    line-like or isotropic neighbourhood, every unit vector orthogonal to
    its longest row is an eigenvector of lambda, and one of those is
    returned.
    """
    trace = a + b + c
    scale = np.where(trace > 0.0, trace, 1.0)
    # eigenvalues in [0, 1]: no overflow in the cubic, and one tolerance
    a, b, c, d, e, f = (v / scale for v in (a, b, c, d, e, f))
    t = a + b + c
    s = (a * b - d * d) + (b * c - f * f) + (a * c - e * e)
    det = a * (b * c - f * f) - d * (d * c - e * f) + e * (d * f - b * e)
    # with a, b, c >= 0: the sums of the terms' magnitudes, which bound the
    # rounding error of the cubic and its coefficients
    ad, ae = np.abs(d), np.abs(e)
    s_abs = (a * b + d * d) + (b * c + f * f) + (a * c + e * e)
    det_abs = (a * (b * c + f * f) + ad * (ad * c + np.abs(e * f))
               + ae * (np.abs(d * f) + b * ae))
    lam = np.zeros_like(t)
    active = np.arange(t.size)
    for _ in range(_EIG_ITERS):
        x, tt, ss = lam[active], t[active], s[active]
        p = ((x - tt) * x + ss) * x - det[active]
        dp = (3.0 * x - 2.0 * tt) * x + ss
        noise = 16.0 * _U * (((x + tt) * x + s_abs[active]) * x
                             + det_abs[active])
        # below the root p < 0 < p'; a row stops once p is rounding noise
        go = (p < -noise) & (dp > 0.0)
        active = active[go]
        lam[active] = x[go] - p[go] / dp[go]
        if not active.size:
            break
    # the middle and largest eigenvalues have sum t - lam and product
    # s - lam (t - lam)
    rest = t - lam
    gap2 = rest * rest - 4.0 * (s - lam * rest)
    largest = (rest + np.sqrt(np.maximum(gap2, 0.0))) / 2.0 * scale

    rows = np.stack([np.stack(r, axis=-1) for r in ((a - lam, d, e),
                                                    (d, b - lam, f),
                                                    (e, f, c - lam))], axis=1)
    crosses = np.stack([np.cross(rows[:, i], rows[:, j])
                        for i, j in ((0, 1), (0, 2), (1, 2))], axis=1)
    lengths2 = _rowdot(crosses, crosses)
    idx = np.arange(t.size)
    best = np.argmax(lengths2, axis=1)
    normals = crosses[idx, best]
    len2 = lengths2[idx, best]
    # a cross product shorter than sqrt(u) carries rounding noise of relative
    # size sqrt(u) or more; A - lambda I is then within sqrt(u) of rank 1,
    # and a vector orthogonal to its longest row is at least as accurate
    weak = len2 <= _U
    normals[~weak] /= np.sqrt(len2[~weak])[:, None]
    if np.any(weak):
        normals[weak] = _normal_to_longest_row(rows[weak])
    return normals, largest


def _normal_to_longest_row(mat: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to the longest row of each (3, 3) matrix of
    ``mat``: the row crossed with the axis it leans on least; (0, 0, 1)
    where the matrix is zero."""
    idx = np.arange(len(mat))
    row = mat[idx, np.argmax(_rowdot(mat, mat), axis=1)]
    axis = np.eye(3)[np.argmin(np.abs(row), axis=1)]
    w = np.cross(row, axis)
    # scaled by the largest component first, so tiny rows do not underflow
    big = np.abs(w).max(axis=1, keepdims=True)
    w = np.where(big > 0.0, w / np.where(big > 0.0, big, 1.0), [0.0, 0.0, 1.0])
    return w / np.sqrt(_rowdot(w, w))[:, None]


def segment_plane(cloud: PointCloud,
                  dist_thresh: float = 0.005,
                  ref_axis=(0.0, 0.0, 1.0),
                  angle_tol: float = math.radians(10.0),
                  max_iters: int = 500,
                  rng_seed: int = 0) -> Plane:
    """RANSAC plane fit constrained to lie within angle_tol of ref_axis.

    Candidates come from 3-point samples; a point is an inlier when its
    plane distance is at most dist_thresh and its own normal agrees with
    the plane normal (up to sign) within angle_tol, both measured by
    ``_rowdot``.  Returns the admissible candidate with the most inliers.

    Every iteration draws its sample, whatever its candidate turns out to
    be, so the random stream depends only on rng_seed and max_iters.  Of
    admissible candidates with equally many inliers, the first drawn wins.
    Candidates are built a block of draws at a time, so memory stays
    bounded whatever max_iters is.
    """
    pts = cloud.points
    n = len(cloud)
    if n < 3:
        raise TooFewPoints(f"plane segmentation needs >= 3 points, got {n}")
    if cloud.normals is None:
        raise ValueError("plane segmentation requires per-point normals")
    ref = unit(ref_axis)
    cos_tol = math.cos(angle_tol)
    counter = _InlierCounter(cloud, dist_thresh, cos_tol)
    rng = np.random.default_rng(rng_seed)
    best_count = 0
    best_plane: tuple[np.ndarray, float] | None = None
    for start in range(0, max_iters, _PLANE_BLOCK):
        draws = np.array([rng.choice(n, size=3, replace=False) for _ in
                          range(min(_PLANE_BLOCK, max_iters - start))])
        a = pts[draws[:, 0]]
        normals = np.cross(pts[draws[:, 1]] - a, pts[draws[:, 2]] - a)
        norms = np.sqrt(_rowdot(normals, normals))
        solid = norms >= 1e-12
        normals = normals[solid] / norms[solid, None]
        offsets = -_rowdot(normals, a[solid])
        upright = np.abs(_rowdot(normals, ref)) >= cos_tol
        normals, offsets = normals[upright], offsets[upright]
        for i in range(0, len(normals), _COUNT_BLOCK):
            counts = counter.counts(normals[i:i + _COUNT_BLOCK],
                                    offsets[i:i + _COUNT_BLOCK])
            j = int(np.argmax(counts))
            if counts[j] > best_count:
                best_count = int(counts[j])
                best_plane = (normals[i + j], float(offsets[i + j]))
    if best_plane is None or best_count < 3:
        raise NoAdmissiblePlane(
            f"no plane within {math.degrees(angle_tol):.1f} deg of the reference "
            f"axis gathered at least 3 inliers")
    normal, offset = best_plane
    mask = counter.mask(normal, offset)
    return Plane(normal=normal, offset=offset,
                 inliers=np.nonzero(mask)[0].astype(np.intp))


class _InlierCounter:
    """Inlier counts of candidate planes over one cloud, equal to those of
    ``mask``, the rule in elementwise float64 arithmetic.

    A block of up to _COUNT_BLOCK candidates takes one BLAS product for its
    signed plane distances p . n + offset (the points carry a fourth
    coordinate 1) and one for its normal alignments q . n.  BLAS may sum
    these in any order and fuse multiply-adds, yet any order rounds a
    distance within gamma(4) (|p|_1 + |offset|) of the exact value and an
    alignment within gamma(3) |q|_1 (for |n_i| <= 1), so BLAS and ``mask``
    differ by less than twice that.  The margin is twice that again, plus
    4 u dist_thresh for the rounding of the moved thresholds.  A point
    decided the same with the thresholds moved out and in by the margin is
    decided the same by ``mask``; a candidate with a point that is not is
    counted by ``mask`` itself.
    """

    def __init__(self, cloud: PointCloud, dist_thresh: float, cos_tol: float):
        self.points, self.normals = cloud.points, cloud.normals
        self.dist_thresh, self.cos_tol = dist_thresh, cos_tol
        n = len(cloud)
        self.points_1 = np.ones((4, n))
        self.points_1[:3] = self.points.T
        self.normals_t = np.ascontiguousarray(self.normals.T)
        self.p1 = float(np.abs(self.points).sum(axis=1).max())
        self.cos_margin = (4.0 * _gamma(3)
                           * float(np.abs(self.normals).sum(axis=1).max()))
        self.dist = np.empty((_COUNT_BLOCK, n))
        self.align = np.empty((_COUNT_BLOCK, n))
        self.strict = np.empty((_COUNT_BLOCK, n), dtype=bool)
        self.loose = np.empty((_COUNT_BLOCK, n), dtype=bool)
        self.near = np.empty((_COUNT_BLOCK, n), dtype=bool)

    def mask(self, normal: np.ndarray, offset: float) -> np.ndarray:
        dist = np.abs(_rowdot(self.points, normal) + offset)
        aligned = np.abs(_rowdot(self.normals, normal)) >= self.cos_tol
        return (dist <= self.dist_thresh) & aligned

    def counts(self, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Inlier counts of at most _COUNT_BLOCK candidates."""
        m = len(normals)
        dist, align = self.dist[:m], self.align[:m]
        strict, loose, near = self.strict[:m], self.loose[:m], self.near[:m]
        np.matmul(np.column_stack([normals, offsets]), self.points_1, out=dist)
        np.abs(dist, out=dist)
        np.matmul(normals, self.normals_t, out=align)
        np.abs(align, out=align)
        margin = (4.0 * _gamma(4) * (self.p1 + np.abs(offsets))
                  + 4.0 * _U * self.dist_thresh)[:, None]
        t, c, mc = self.dist_thresh, self.cos_tol, self.cos_margin
        np.less_equal(dist, t - margin, out=strict)
        np.greater_equal(align, c + mc, out=near)
        strict &= near
        np.less_equal(dist, t + margin, out=loose)
        np.greater_equal(align, c - mc, out=near)
        loose &= near
        out = np.empty(m, dtype=np.intp)
        for j, (normal, offset) in enumerate(zip(normals, offsets.tolist())):
            out[j] = np.count_nonzero(strict[j])
            if np.count_nonzero(loose[j]) != out[j]:
                out[j] = np.count_nonzero(self.mask(normal, offset))
        return out


def _plane_basis(plane: Plane, pts: np.ndarray) -> PlaneBasis:
    n = plane.normal
    centroid = pts.mean(axis=0)
    origin = centroid - (float(_rowdot(n, centroid)) + plane.offset) * n
    axis = int(np.argmin(np.abs(n)))
    u = unit(np.eye(3)[axis] - n[axis] * n)
    v = np.cross(n, u)
    return PlaneBasis(origin=origin, u=u, v=v)


def convex_hull(plane: Plane, cloud: PointCloud) -> Polygon2:
    """2D convex hull of the plane inliers, CCW with collinear points removed."""
    pts = cloud.points[plane.inliers]
    if pts.shape[0] < 3:
        raise DegenerateInliers(f"hull needs >= 3 inliers, got {pts.shape[0]}")
    basis = _plane_basis(plane, pts)
    uv = basis.project(pts)
    try:
        hull_idx = ConvexHull(uv).vertices
    except QhullError as exc:
        raise DegenerateInliers("plane inliers are collinear") from exc
    # qhull lists 2D vertices CCW; start at the lexicographic minimum (u, v)
    first = np.lexsort((uv[hull_idx, 1], uv[hull_idx, 0]))[0]
    verts = uv[np.roll(hull_idx, -first)]
    if _signed_area(verts) <= 1e-12:
        raise DegenerateInliers("plane inliers span no area")
    return Polygon2(vertices=verts, basis=basis)


def extract_prism(cloud: PointCloud, polygon: Polygon2,
                  h_min: float, h_max: float) -> np.ndarray:
    """Indices of points inside the prism above the polygon, heights in [h_min, h_max]."""
    if not (0.0 <= h_min < h_max):
        raise InvertedHeightRange(f"need 0 <= h_min < h_max, got [{h_min}, {h_max}]")
    h = polygon.basis.heights(cloud.points)
    uv = polygon.basis.project(cloud.points)
    keep = (h >= h_min) & (h <= h_max) & polygon.contains(uv)
    return np.nonzero(keep)[0].astype(np.intp)


def euclidean_cluster(cloud: PointCloud, subset,
                      tol: float = 0.02,
                      min_size: int = 25,
                      max_size: int = 20000) -> list[Cluster]:
    """Connected components of the subset under the distance threshold tol.

    Components outside [min_size, max_size] are dropped; clusters are sorted
    by centroid (x, then y, then z) and their index lists ascend.
    """
    if not (tol > 0.0):
        raise ValueError(f"cluster tolerance must be positive, got {tol}")
    if not (1 <= min_size <= max_size):
        raise ValueError(f"need 1 <= min_size <= max_size, got [{min_size}, {max_size}]")
    subset = np.asarray(subset, dtype=np.intp)
    if subset.size == 0:
        return []
    # csgraph adds ~25 ms to import time; only clustering should pay for it
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n = subset.size
    pairs = cKDTree(cloud.points[subset]).query_pairs(tol, output_type="ndarray")
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                       shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    sizes = np.bincount(labels)
    clusters = []
    for label in np.nonzero((sizes >= min_size) & (sizes <= max_size))[0]:
        idx = np.sort(subset[labels == label])
        centroid = cloud.points[idx].mean(axis=0)
        clusters.append(Cluster(indices=idx, centroid=Point3.from_array(centroid)))
    clusters.sort(key=lambda c: (c.centroid.x, c.centroid.y, c.centroid.z))
    return clusters


# --- ASCII PLY output ------------------------------------------------------

def save_ply(cloud: PointCloud, path) -> None:
    with_normals = cloud.normals is not None
    header = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}",
              "property float x", "property float y", "property float z"]
    if with_normals:
        header += ["property float nx", "property float ny", "property float nz"]
    header.append("end_header")
    values = cloud.points
    if with_normals:
        values = np.hstack([values, cloud.normals])
    rows = [" ".join(map(repr, row)) for row in values.tolist()]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(header + rows) + "\n")
