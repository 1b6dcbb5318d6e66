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
from .geometry import canonical_sign, frozen_array, unit

_AXES = {"x": 0, "y": 1, "z": 2}
# a plane normal points toward positive z, ties broken on y, then x
_PLANE_AXES = (2, 1, 0)

# Eigenvalue floor below which a neighbourhood or cluster carries no usable
# spatial extent (squared metres; ~1e-8 m spread).
DEGENERATE_EIG = 1e-16

_BOUNDARY_EPS = 1e-12


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


class PlyParseError(CloudError):
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
        ln = float(np.linalg.norm(n))
        if not math.isfinite(ln) or ln == 0.0:
            raise ValueError("plane normal must be a nonzero finite vector")
        n = n / ln
        off = float(self.offset) / ln if ln != 1.0 else float(self.offset)
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
        if (abs(np.linalg.norm(u) - 1.0) > 1e-9 or abs(np.linalg.norm(v) - 1.0) > 1e-9
                or abs(float(np.dot(u, v))) > 1e-9):
            raise ValueError("basis axes must be orthonormal")
        for name, val in (("origin", o), ("u", u), ("v", v)):
            object.__setattr__(self, name, val)

    @property
    def normal(self) -> np.ndarray:
        return np.cross(self.u, self.v)

    def project(self, points) -> np.ndarray:
        rel = np.asarray(points, dtype=float) - self.origin
        return np.stack([rel @ self.u, rel @ self.v], axis=-1)

    def heights(self, points) -> np.ndarray:
        rel = np.asarray(points, dtype=float) - self.origin
        return rel @ self.normal

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
        if _signed_area(verts) <= 0.0:
            raise ValueError("polygon vertices must wind counter-clockwise")
        object.__setattr__(self, "vertices", verts)

    @property
    def normal(self) -> np.ndarray:
        return self.basis.normal

    def area(self) -> float:
        return _signed_area(self.vertices)

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

    def edge_distance(self, uv) -> float:
        """Distance from a 2D point to the closest polygon edge segment."""
        p = np.asarray(uv, dtype=float)
        best = math.inf
        verts = self.vertices
        for i in range(len(verts)):
            a = verts[i]
            b = verts[(i + 1) % len(verts)]
            best = min(best, _point_segment_distance(p, a, b))
        return best


def _signed_area(verts: np.ndarray) -> float:
    x = verts[:, 0]
    y = verts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else min(1.0, max(0.0, float((p - a) @ ab) / denom))
    return float(np.linalg.norm(p - (a + t * ab)))


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
    sign-flipped to face the sensor origin.
    """
    n = len(cloud)
    if k < 3:
        raise TooFewPoints(f"normal estimation needs k >= 3, got {k}")
    if n < k:
        raise TooFewPoints(f"cloud has {n} points but k = {k}")
    tree = cKDTree(cloud.points)
    _, nn = tree.query(cloud.points, k=k)
    neigh = cloud.points[nn]
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k
    evals, evecs = np.linalg.eigh(cov)
    flat = evals[:, 2] <= DEGENERATE_EIG
    if np.any(flat):
        bad = int(np.nonzero(flat)[0][0])
        raise DegenerateNeighborhood(
            f"neighbourhood of point {bad} has no spatial extent")
    normals = evecs[:, :, 0].copy()
    toward_sensor = np.einsum("ni,ni->n", normals, cloud.points) > 0.0
    normals[toward_sensor] *= -1.0
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(cloud.points, normals=normals)


def segment_plane(cloud: PointCloud,
                  dist_thresh: float = 0.005,
                  ref_axis=(0.0, 0.0, 1.0),
                  angle_tol: float = math.radians(10.0),
                  max_iters: int = 500,
                  rng_seed: int = 0) -> Plane:
    """RANSAC plane fit constrained to lie within angle_tol of ref_axis.

    Candidates come from 3-point samples; a point is an inlier when its
    plane distance is at most dist_thresh and its own normal agrees with
    the plane normal (up to sign) within angle_tol.  Returns the admissible
    candidate with the most inliers.
    """
    pts = cloud.points
    n = len(cloud)
    if n < 3:
        raise TooFewPoints(f"plane segmentation needs >= 3 points, got {n}")
    if cloud.normals is None:
        raise ValueError("plane segmentation requires per-point normals")
    ref = unit(ref_axis)
    cos_tol = math.cos(angle_tol)
    rng = np.random.default_rng(rng_seed)
    best_mask = None
    best_count = 0
    best_plane: tuple[np.ndarray, float] | None = None
    for _ in range(max_iters):
        i, j, k = rng.choice(n, size=3, replace=False)
        normal = np.cross(pts[j] - pts[i], pts[k] - pts[i])
        norm = float(np.linalg.norm(normal))
        if norm < 1e-12:
            continue
        normal = normal / norm
        offset = -float(normal @ pts[i])
        if abs(float(normal @ ref)) < cos_tol:
            continue
        dist = np.abs(pts @ normal + offset)
        aligned = np.abs(cloud.normals @ normal) >= cos_tol
        mask = (dist <= dist_thresh) & aligned
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            best_plane = (normal, offset)
    if best_plane is None or best_count < 3:
        raise NoAdmissiblePlane(
            f"no plane within {math.degrees(angle_tol):.1f} deg of the reference "
            f"axis gathered at least 3 inliers")
    normal, offset = best_plane
    return Plane(normal=normal, offset=offset,
                 inliers=np.nonzero(best_mask)[0].astype(np.intp))


def _plane_basis(plane: Plane, pts: np.ndarray) -> PlaneBasis:
    n = plane.normal
    centroid = pts.mean(axis=0)
    origin = centroid - (float(n @ centroid) + plane.offset) * n
    seed_axis = np.eye(3)[int(np.argmin(np.abs(n)))]
    u = unit(seed_axis - float(seed_axis @ n) * n)
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


# --- ASCII PLY I/O ---------------------------------------------------------

_PLY_PROPS = ("x", "y", "z", "nx", "ny", "nz")


def load_ply(path) -> PointCloud:
    """Read an ASCII PLY vertex cloud; rejects binary files and unknown properties."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.read().splitlines()
    name = str(path)

    def fail(lineno: int, msg: str):
        raise PlyParseError(f"{name}:{lineno}: {msg}")

    if not lines or lines[0].strip() != "ply":
        fail(1, "missing 'ply' magic")
    count = None
    props: list[str] = []
    data_start = None
    saw_format = False
    for lineno, raw in enumerate(lines[1:], start=2):
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if tokens[1:] != ["ascii", "1.0"]:
                fail(lineno, f"unsupported format {' '.join(tokens[1:])!r}; "
                             "only 'ascii 1.0' is accepted")
            saw_format = True
        elif tokens[0] == "element":
            if len(tokens) != 3 or tokens[1] != "vertex":
                fail(lineno, f"unsupported element {' '.join(tokens[1:])!r}")
            if count is not None:
                fail(lineno, "duplicate vertex element")
            try:
                count = int(tokens[2])
            except ValueError:
                count = -1
            if count < 0:
                fail(lineno, f"bad vertex count {tokens[2]!r}")
        elif tokens[0] == "property":
            if len(tokens) != 3 or tokens[1] != "float":
                fail(lineno, f"unsupported property declaration {raw.strip()!r}")
            if tokens[2] not in _PLY_PROPS:
                fail(lineno, f"unknown property {tokens[2]!r}")
            props.append(tokens[2])
        elif tokens[0] == "end_header":
            data_start = lineno
            break
        else:
            fail(lineno, f"unexpected header line {raw.strip()!r}")
    if data_start is None:
        fail(len(lines), "missing end_header")
    if not saw_format:
        fail(data_start, "missing format declaration")
    if count is None:
        fail(data_start, "missing vertex element")
    expected = list(_PLY_PROPS[:len(props)])
    if props != expected or len(props) not in (3, 6):
        raise PlyParseError(
            f"{name}:{data_start}: properties must be x y z [nx ny nz] in order")
    # rows are kept as read, not allocated by the declared count, which the
    # file may overstate without bound
    rows = []
    lineno = data_start
    for raw in lines[data_start:]:
        lineno += 1
        tokens = raw.split()
        if not tokens:
            continue
        if len(rows) >= count:
            fail(lineno, "more data rows than declared vertices")
        if len(tokens) != len(props):
            fail(lineno, f"expected {len(props)} values, got {len(tokens)}")
        try:
            rows.append([float(t) for t in tokens])
        except ValueError:
            fail(lineno, f"bad float in data row {raw.strip()!r}")
    if len(rows) != count:
        fail(lineno, f"declared {count} vertices but found {len(rows)}")
    values = np.array(rows, dtype=float).reshape(count, len(props))
    normals = values[:, 3:6] if len(props) == 6 else None
    return PointCloud(values[:, :3], normals=normals)


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
