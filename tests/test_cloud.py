"""Tabletop perception pipeline: filters, plane, hull, prism, clusters, PLY."""

import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from workbot.cloud import (
    _PLANE_BLOCK, DegenerateInliers, DegenerateNeighborhood,
    InvertedHeightRange, InvertedRange, NoAdmissiblePlane, NonPositiveLeaf,
    PerceptionConfig, Plane, PlaneBasis, PointCloud, Polygon2, TooFewPoints,
    _InlierCounter, _neighbourhood_normals, _smallest_eigenvectors,
    convex_hull, estimate_normals, euclidean_cluster, extract_prism,
    passthrough, save_ply, segment_plane, voxel_downsample)
from workbot.geometry import unit
from workbot.jsonio import decode
from workbot.sim import gen_workstation, load_scenario


def grid_cloud(n=5, spacing=0.01, z=0.0):
    xs = np.arange(n) * spacing
    xx, yy = np.meshgrid(xs, xs)
    pts = np.column_stack([xx.ravel(), yy.ravel(), np.full(n * n, z)])
    return PointCloud(pts)


# --- voxel_downsample --------------------------------------------------------

def test_voxel_occupied_count_matches_key_oracle():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.5, 0.5, (400, 3))
    leaf = 0.07
    out = voxel_downsample(PointCloud(pts), leaf)
    keys = {tuple(k) for k in np.floor(pts / leaf).astype(int)}
    assert len(out) == len(keys)


def test_voxel_centroid_is_member_mean():
    pts = np.array([[0.001, 0.001, 0.001],
                    [0.004, 0.002, 0.003],
                    [0.011, 0.001, 0.001]])   # first two share voxel at leaf 5mm
    out = voxel_downsample(PointCloud(pts), 0.005)
    assert len(out) == 2
    got = sorted(map(tuple, out.points))
    want = sorted([tuple(pts[:2].mean(axis=0)), tuple(pts[2])])
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_voxel_rejects_nonpositive_leaf():
    with pytest.raises(NonPositiveLeaf):
        voxel_downsample(grid_cloud(), 0.0)


def test_voxel_empty_cloud_passes_through():
    assert len(voxel_downsample(PointCloud(np.empty((0, 3))), 0.01)) == 0


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_voxel_never_grows_cloud(n, seed):
    pts = np.random.default_rng(seed).normal(size=(n, 3))
    out = voxel_downsample(PointCloud(pts), 0.1)
    assert 1 <= len(out) <= n


# --- passthrough -------------------------------------------------------------

def test_passthrough_matches_linear_scan():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, (200, 3))
    out = passthrough(PointCloud(pts), "z", -0.25, 0.5)
    want = pts[(pts[:, 2] >= -0.25) & (pts[:, 2] <= 0.5)]
    np.testing.assert_array_equal(out.points, want)


def test_passthrough_interval_is_closed():
    pts = np.array([[0, 0, 0.1], [0, 0, 0.2], [0, 0, 0.3]])
    out = passthrough(PointCloud(pts), "z", 0.1, 0.2)
    assert len(out) == 2


def test_passthrough_rejects_inverted_range():
    with pytest.raises(InvertedRange):
        passthrough(grid_cloud(), "x", 1.0, 0.0)


def test_passthrough_rejects_unknown_axis():
    with pytest.raises(ValueError):
        passthrough(grid_cloud(), "w", 0.0, 1.0)


@given(st.floats(-1, 0), st.floats(0, 1), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_passthrough_idempotent(lo, hi, seed):
    pts = np.random.default_rng(seed).uniform(-1, 1, (50, 3))
    once = passthrough(PointCloud(pts), "y", lo, hi)
    twice = passthrough(once, "y", lo, hi)
    np.testing.assert_array_equal(once.points, twice.points)


# --- estimate_normals --------------------------------------------------------

def test_normals_on_offset_plane_face_sensor():
    cloud = grid_cloud(n=8, spacing=0.01, z=1.0)
    out = estimate_normals(cloud, k=6)
    # plane sits above the origin, so every normal points back down at it
    np.testing.assert_allclose(out.normals, np.tile([0, 0, -1.0], (64, 1)),
                               atol=1e-9)


def test_normals_need_enough_points():
    with pytest.raises(TooFewPoints):
        estimate_normals(PointCloud(np.zeros((5, 3)) + np.eye(5, 3)), k=10)
    with pytest.raises(TooFewPoints):
        estimate_normals(grid_cloud(), k=2)


def test_normals_degenerate_neighborhood_raises():
    pts = np.tile([[0.1, 0.2, 0.3]], (12, 1))
    with pytest.raises(DegenerateNeighborhood):
        estimate_normals(PointCloud(pts), k=4)


def test_normals_match_a_brute_force_neighbour_oracle():
    # neighbours from a stable sort of the full distance matrix: the
    # library's k-d tree must find the same neighbours in the same order,
    # and so give the bytes its closed form gives on them
    rng = np.random.default_rng(8)
    pts = rng.uniform(-0.3, 0.3, (400, 3)) + [0.0, 0.0, 0.7]
    k = 10
    gap = pts[:, None, :] - pts[None, :, :]
    nn = np.argsort((gap ** 2).sum(axis=2), axis=1, kind="stable")[:, :k]
    got = estimate_normals(PointCloud(pts), k=k).normals
    assert got.tobytes() == _neighbourhood_normals(pts, nn).tobytes()
    # the same eigenvectors as LAPACK's eigh, up to sign, within the
    # closed form's error bound, and facing the origin
    neigh = pts[nn]
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    evals, evecs = np.linalg.eigh(np.einsum("nki,nkj->nij", centered,
                                            centered) / k)
    assert_eigenvectors_within_the_gap_bound(got, evals, evecs[:, :, 0])
    assert np.all(np.einsum("ni,ni->n", got, pts) <= 0.0)


def assert_eigenvectors_within_the_gap_bound(got, evals, want):
    """sin of the angle between got and want is at most 32 u / g**2, where
    g = (lambda_mid - lambda_min) / trace: rounding moves the root of the
    characteristic cubic by about u / g, and the eigenvector by that over g
    again."""
    g = (evals[:, 1] - evals[:, 0]) / evals.sum(axis=1)
    sin = np.linalg.norm(np.cross(got, want), axis=1)
    u = np.finfo(float).eps / 2.0
    assert np.all(sin <= 32.0 * u / g ** 2)
    np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0.0,
                               atol=4.0 * u)


def symmetric(rows):
    """The six entries a, b, c, d, e, f of [[a, d, e], [d, b, f], [e, f, c]]
    for each 3 x 3 matrix of rows, as (n,) arrays."""
    m = np.asarray(rows, dtype=float).reshape(-1, 3, 3)
    return (m[:, 0, 0], m[:, 1, 1], m[:, 2, 2], m[:, 0, 1], m[:, 0, 2],
            m[:, 1, 2])


def assert_parallel(got, want):
    want = np.asarray(want, dtype=float) / np.linalg.norm(want)
    assert abs(abs(float(got @ want)) - 1.0) <= 1e-15, (got, want)


@pytest.mark.parametrize("diag, axis", [
    ((3.0, 2.0, 1.0), 2), ((1.0, 3.0, 2.0), 0), ((2.0, 1.0, 3.0), 1),
    ((5.0, 5.0, 0.0), 2), ((0.0, 7.0, 7.0), 0)])
def test_closed_form_on_diagonal_matrices_and_permuted_axes(diag, axis):
    normals, largest = _smallest_eigenvectors(*symmetric(np.diag(diag)))
    assert np.abs(normals[0]).tolist() == np.eye(3)[axis].tolist()
    assert largest[0] == pytest.approx(max(diag), rel=1e-15)


def test_closed_form_on_an_exactly_planar_matrix():
    # eigenvalues 0, 1 and 2: lambda_min is exactly 0, with (1, -1, 0)
    rows = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    normals, largest = _smallest_eigenvectors(*symmetric(rows))
    assert_parallel(normals[0], [1.0, -1.0, 0.0])
    assert largest[0] == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("spread", [0.0, 1e-14, 1e-9, 1e-3])
def test_closed_form_on_line_like_matrices(spread):
    # lambda_min = lambda_mid: every unit vector orthogonal to the line is a
    # smallest eigenvector, and no NaN or warning may come of it
    rng = np.random.default_rng(13)
    v = np.vstack([np.eye(3), rng.normal(size=(2000, 3))])
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    line = v[:, :, None] * v[:, None, :]
    normals, largest = _smallest_eigenvectors(
        *symmetric(line + spread * (np.eye(3) - line)))
    assert np.isfinite(normals).all()
    np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0,
                               rtol=0.0, atol=1e-15)
    # a few sqrt(u): Newton's method converges only linearly to a double
    # root, and the closed form trades its cross products for the line
    # where they are shorter than sqrt(u)
    assert np.abs(np.einsum("ni,ni->n", normals, v)).max() <= 1e-7
    np.testing.assert_allclose(largest, 1.0, rtol=1e-12)


def test_closed_form_on_an_isotropic_matrix():
    # every unit vector is an eigenvector; the triple root slows Newton's
    # method to a linear rate, so the largest eigenvalue, which only the
    # degeneracy check reads, is rougher here
    normals, largest = _smallest_eigenvectors(*symmetric(2.0 * np.eye(3)))
    assert float(normals[0] @ normals[0]) == pytest.approx(1.0, abs=1e-15)
    assert largest[0] == pytest.approx(2.0, rel=1e-2)


def test_closed_form_matches_eigh_on_seeded_covariances():
    rng = np.random.default_rng(21)
    spread = rng.normal(size=(500, 6, 3)) * rng.uniform(0.0, 1.0, (500, 1, 3))
    spread = spread @ np.linalg.qr(rng.normal(size=(500, 3, 3)))[0]
    cov = np.einsum("nki,nkj->nij", spread, spread)
    normals, largest = _smallest_eigenvectors(*symmetric(cov))
    evals, evecs = np.linalg.eigh(cov)
    assert_eigenvectors_within_the_gap_bound(normals, evals, evecs[:, :, 0])
    np.testing.assert_allclose(largest, evals[:, 2], rtol=1e-12)


@pytest.mark.parametrize("power", [-16, 60])
def test_normals_do_not_depend_on_the_scale(power):
    # scaling by a power of two is exact, and so is every step after it
    rng = np.random.default_rng(9)
    pts = rng.uniform(-0.3, 0.3, (300, 3)) + [0.0, 0.0, 0.7]
    want = estimate_normals(PointCloud(pts)).normals
    got = estimate_normals(PointCloud(pts * 2.0 ** power)).normals
    assert got.tobytes() == want.tobytes()


# --- segment_plane -----------------------------------------------------------

def make_table_scene(seed=0, tilt=0.0):
    rng = np.random.default_rng(seed)
    n = 400
    pts = np.column_stack([rng.uniform(-0.4, 0.4, n),
                           rng.uniform(-0.3, 0.3, n),
                           np.full(n, 0.7)])
    if tilt:
        c, s = math.cos(tilt), math.sin(tilt)
        rot = np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
        pts = pts @ rot.T
    stray = rng.uniform(-0.4, 0.4, (40, 3)) + [0, 0, 1.2]
    return PointCloud(np.vstack([pts, stray]))


def test_segment_plane_recovers_table():
    cloud = estimate_normals(make_table_scene(), k=10)
    plane = segment_plane(cloud, rng_seed=0)
    np.testing.assert_allclose(plane.normal, [0, 0, 1], atol=1e-6)
    assert abs(plane.offset + 0.7) < 1e-6
    assert plane.inliers.size >= 390
    assert np.all(plane.inliers < 400)


def test_segment_plane_normal_is_canonical_upward():
    cloud = estimate_normals(make_table_scene(seed=3), k=10)
    plane = segment_plane(cloud, rng_seed=5)
    assert plane.normal[2] > 0.0


def test_segment_plane_rejects_steep_reference():
    cloud = estimate_normals(make_table_scene(tilt=math.radians(35)), k=10)
    with pytest.raises(NoAdmissiblePlane):
        segment_plane(cloud, angle_tol=math.radians(10), rng_seed=0)


def test_segment_plane_requires_normals():
    with pytest.raises(ValueError):
        segment_plane(make_table_scene())


def test_segment_plane_deterministic_given_seed():
    cloud = estimate_normals(make_table_scene(seed=2), k=10)
    a = segment_plane(cloud, rng_seed=11)
    b = segment_plane(cloud, rng_seed=11)
    np.testing.assert_array_equal(a.inliers, b.inliers)
    assert a.offset == b.offset


def dot3(a, b):
    """Dot product over the last axis, x then y then z, in elementwise
    float64: the arithmetic the library defines its plane tests by."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def reference_segment_plane(cloud, dist_thresh=0.005, ref_axis=(0.0, 0.0, 1.0),
                            angle_tol=math.radians(10.0), max_iters=500,
                            rng_seed=0):
    """RANSAC one candidate per iteration: the oracle for segment_plane."""
    pts = cloud.points
    n = len(cloud)
    ref = unit(ref_axis)
    cos_tol = math.cos(angle_tol)
    rng = np.random.default_rng(rng_seed)
    best_mask = None
    best_count = 0
    best_plane = None
    for _ in range(max_iters):
        i, j, k = rng.choice(n, size=3, replace=False)
        normal = np.cross(pts[j] - pts[i], pts[k] - pts[i])
        norm = math.sqrt(dot3(normal, normal))
        if norm < 1e-12:
            continue
        normal = normal / norm
        offset = -float(dot3(normal, pts[i]))
        if abs(float(dot3(normal, ref))) < cos_tol:
            continue
        dist = np.abs(dot3(pts, normal) + offset)
        aligned = np.abs(dot3(cloud.normals, normal)) >= cos_tol
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


def plane_bytes(plane):
    return (plane.normal.tobytes(), np.float64(plane.offset).tobytes(),
            plane.inliers.tobytes())


@functools.cache
def working_scan(index):
    """The downsampled scan with normals: 0 is the bundled scan, 1-8 are
    seeded scans at 10k, 20k, 30k and 40k points per square metre."""
    sc = load_scenario("src/workbot/data/workstation.json")
    if index:
        sc = replace(sc, seed=200 + index, density=10000.0 * (1 + index % 4))
    cloud, _ = gen_workstation(sc)
    return estimate_normals(voxel_downsample(cloud, 0.005))


@pytest.mark.parametrize("index", range(9))
def test_segment_plane_matches_the_per_iteration_reference(index):
    cloud = working_scan(index)
    for rng_seed in (0, 1, 7):
        want = plane_bytes(reference_segment_plane(cloud, rng_seed=rng_seed))
        assert plane_bytes(segment_plane(cloud, rng_seed=rng_seed)) == want


@pytest.mark.parametrize("kw", [
    {"max_iters": 1300, "rng_seed": 5},
    {"max_iters": 513, "rng_seed": 2, "angle_tol": math.radians(80.0)},
    {"max_iters": 40, "rng_seed": 3, "dist_thresh": 0.0005},
], ids=["three-blocks", "one-past-a-block", "few-draws-thin-band"])
def test_segment_plane_matches_the_reference_across_blocks(kw):
    cloud = working_scan(1)
    want = plane_bytes(reference_segment_plane(cloud, **kw))
    assert plane_bytes(segment_plane(cloud, **kw)) == want


def noisy_table(n=60):
    rng = np.random.default_rng(6)
    pts = np.column_stack([rng.uniform(-0.4, 0.4, n),
                           rng.uniform(-0.3, 0.3, n),
                           0.7 + rng.normal(0.0, 0.002, n)])
    return PointCloud(pts, normals=np.tile([0.0, 0.0, 1.0], (n, 1)))


def test_segment_plane_keeps_the_first_drawn_of_tied_candidates():
    # with a band far wider than the noise, every admissible candidate holds
    # all 60 points, so only the draw order picks the winner
    cloud = noisy_table()
    kw = {"dist_thresh": 0.05, "max_iters": 1300}
    want = reference_segment_plane(cloud, **kw)
    assert want.inliers.size == 60
    assert plane_bytes(segment_plane(cloud, **kw)) == plane_bytes(want)


def test_segment_plane_memory_does_not_grow_with_max_iters():
    cloud = noisy_table()

    def peak_bytes(max_iters):
        tracemalloc.start()
        try:
            segment_plane(cloud, dist_thresh=0.05, max_iters=max_iters)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the next block is drawn while the last one's arrays are still alive
    two = peak_bytes(2 * _PLANE_BLOCK)
    assert peak_bytes(8 * _PLANE_BLOCK) < 1.5 * two


@pytest.mark.parametrize("tilt", [(0.0, 0.0, 1.0), (0.1, -0.2, 1.0)])
def test_inlier_counts_match_the_rule_within_rounding_of_the_thresholds(tilt):
    # points whose plane distance or normal alignment lies within a few ulps
    # of the thresholds, where a BLAS product cannot settle them
    normal = unit(tilt)
    side = unit(np.cross(normal, [1.0, 0.0, 0.0]))
    offset = -0.7
    rng = np.random.default_rng(12)
    base = rng.uniform(-0.3, 0.3, (200, 2)) @ np.array(
        [side, np.cross(normal, side)]) - offset * normal
    dist_thresh, cos_tol = 0.005, math.cos(math.radians(10.0))
    step = np.linspace(-1e-15, 1e-15, 200)[:, None]
    pts = np.vstack([base + (dist_thresh + step) * normal,
                     base - (dist_thresh + step) * normal, base])
    tilted = math.sqrt(1.0 - cos_tol ** 2) * side
    nrm = np.vstack([np.tile(normal, (400, 1)),
                     (cos_tol + step) * normal + tilted])
    cloud = PointCloud(pts, normals=nrm)
    dist = np.abs(dot3(cloud.points, normal) + offset)
    align = np.abs(dot3(cloud.normals, normal))
    want = np.count_nonzero((dist <= dist_thresh) & (align >= cos_tol))
    # the rule splits both bands
    assert 0 < np.count_nonzero(dist[:400] <= dist_thresh) < 400
    assert 0 < np.count_nonzero(align[400:] >= cos_tol) < 200
    counter = _InlierCounter(cloud, dist_thresh, cos_tol)
    got = counter.counts(np.array([normal, -normal]), np.array([offset, -offset]))
    assert got.tolist() == [want, want]


def test_segment_plane_failures_match_the_reference():
    line = np.column_stack([np.linspace(0.0, 1.0, 30), np.zeros(30),
                            np.full(30, 0.7)])
    collinear = PointCloud(line, normals=np.tile([0.0, 0.0, 1.0], (30, 1)))
    for cloud, kw in ((collinear, {}), (working_scan(0), {"max_iters": 0})):
        with pytest.raises(NoAdmissiblePlane) as want:
            reference_segment_plane(cloud, **kw)
        with pytest.raises(NoAdmissiblePlane) as got:
            segment_plane(cloud, **kw)
        assert str(got.value) == str(want.value)


# --- convex_hull -------------------------------------------------------------

def hull_contains_all(polygon, uv, eps=1e-9):
    return bool(np.all(polygon.contains(uv, eps=eps)))


def test_hull_of_square_with_interior_points():
    corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    rng = np.random.default_rng(4)
    interior = rng.uniform(0.1, 0.9, (60, 2))
    uv = np.vstack([corners, interior])
    pts = np.column_stack([uv, np.zeros(len(uv))])
    cloud = PointCloud(pts)
    plane = segment_plane(estimate_normals(cloud, k=8), rng_seed=0)
    poly = convex_hull(plane, cloud)
    assert len(poly.vertices) == 4
    assert hull_contains_all(poly, poly.basis.project(pts))


def test_hull_of_square_drops_edge_points_and_starts_at_lexmin():
    from workbot.cloud import Plane
    t = np.linspace(0.0, 1.0, 11)
    zero, one = np.zeros_like(t), np.ones_like(t)
    # walked from the top-right corner, so input order does not start at the
    # lexicographic minimum
    edges = np.vstack([np.column_stack([t[::-1], one]),
                       np.column_stack([zero, t[::-1]]),
                       np.column_stack([t, zero]), np.column_stack([one, t])])
    interior = np.random.default_rng(2).uniform(0.1, 0.9, (40, 2))
    uv_in = np.vstack([interior, edges])
    pts = np.column_stack([uv_in, np.zeros(len(uv_in))])
    cloud = PointCloud(pts)
    plane = Plane(normal=(0, 0, 1), offset=0.0,
                  inliers=np.arange(len(pts), dtype=np.intp))
    poly = convex_hull(plane, cloud)
    verts = poly.vertices
    assert len(verts) == 4
    nxt = np.roll(verts, -1, axis=0)
    nxt2 = np.roll(verts, -2, axis=0)
    turns = ((nxt[:, 0] - verts[:, 0]) * (nxt2[:, 1] - verts[:, 1])
             - (nxt[:, 1] - verts[:, 1]) * (nxt2[:, 0] - verts[:, 0]))
    assert np.all(turns > 0.0)
    uv = poly.basis.project(pts)
    lexmin = uv[np.lexsort((uv[:, 1], uv[:, 0]))[0]]
    np.testing.assert_array_equal(verts[0], lexmin)
    np.testing.assert_allclose(poly.basis.to_world(verts)[:, :2],
                               [[0, 0], [1, 0], [1, 1], [0, 1]], atol=1e-12)


def test_hull_vertices_are_ccw_extreme_points():
    rng = np.random.default_rng(9)
    uv = rng.normal(size=(80, 2)) * 0.2
    pts = np.column_stack([uv, np.zeros(80)])
    cloud = PointCloud(pts)
    plane = segment_plane(estimate_normals(cloud, k=8), rng_seed=0)
    poly = convex_hull(plane, cloud)
    verts = poly.vertices
    # CCW: positive signed area; every input point inside
    area = 0.5 * float(np.sum(verts[:, 0] * np.roll(verts[:, 1], -1)
                              - np.roll(verts[:, 0], -1) * verts[:, 1]))
    assert area > 0.0
    assert hull_contains_all(poly, poly.basis.project(pts))
    # extreme-point oracle: a hull vertex is not a convex combination witness
    # of any support direction held by an interior point
    for theta in np.linspace(0, 2 * math.pi, 17):
        d = np.array([math.cos(theta), math.sin(theta)])
        proj = poly.basis.project(pts) @ d
        assert np.max(verts @ d) >= np.max(proj) - 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_polygon_rejects_a_non_finite_vertex(bad):
    basis = PlaneBasis(origin=np.zeros(3), u=np.array([1.0, 0.0, 0.0]),
                       v=np.array([0.0, 1.0, 0.0]))
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [bad, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        Polygon2(vertices=verts, basis=basis)


def test_hull_collinear_points_degenerate():
    from workbot.cloud import Plane
    pts = np.column_stack([np.linspace(0, 1, 30), np.zeros(30), np.zeros(30)])
    pts = pts + np.random.default_rng(0).normal(0, 1e-14, pts.shape)
    cloud = PointCloud(pts)
    plane = Plane(normal=(0, 0, 1), offset=0.0,
                  inliers=np.arange(30, dtype=np.intp))
    with pytest.raises(DegenerateInliers):
        convex_hull(plane, cloud)


# --- extract_prism -----------------------------------------------------------

def table_with_object(seed=0):
    rng = np.random.default_rng(seed)
    table = np.column_stack([rng.uniform(-0.4, 0.4, 300),
                             rng.uniform(-0.3, 0.3, 300),
                             np.zeros(300)])
    obj = np.column_stack([rng.uniform(-0.05, 0.05, 80),
                           rng.uniform(-0.05, 0.05, 80),
                           rng.uniform(0.02, 0.1, 80)])
    cloud = PointCloud(np.vstack([table, obj]))
    plane = segment_plane(estimate_normals(cloud, k=10), rng_seed=0)
    return cloud, plane


def test_prism_collects_only_band_points():
    cloud, plane = table_with_object()
    poly = convex_hull(plane, cloud)
    idx = extract_prism(cloud, poly, 0.01, 0.40)
    h = poly.basis.heights(cloud.points[idx])
    assert idx.size > 0
    assert np.all((h >= 0.01) & (h <= 0.40))
    assert np.all(idx >= 300)          # table points all sit below the band


def test_prism_band_is_closed():
    cloud, plane = table_with_object()
    poly = convex_hull(plane, cloud)
    probe = np.array([[0.0, 0.0, 0.05], [0.0, 0.0, 0.15]])
    aug = PointCloud(np.vstack([cloud.points, probe]))
    idx = extract_prism(aug, poly, 0.05, 0.15)
    assert len(aug) - 2 in idx and len(aug) - 1 in idx


def test_prism_rejects_inverted_band():
    cloud, plane = table_with_object()
    poly = convex_hull(plane, cloud)
    with pytest.raises(InvertedHeightRange):
        extract_prism(cloud, poly, 0.3, 0.1)


# --- euclidean_cluster -------------------------------------------------------

def brute_force_components(pts, tol):
    n = len(pts)
    seen = [False] * n
    comps = []
    for i in range(n):
        if seen[i]:
            continue
        stack, comp = [i], []
        seen[i] = True
        while stack:
            a = stack.pop()
            comp.append(a)
            for b in range(n):
                if not seen[b] and np.linalg.norm(pts[a] - pts[b]) <= tol:
                    seen[b] = True
                    stack.append(b)
        comps.append(sorted(comp))
    return comps


def test_cluster_matches_bruteforce_components():
    rng = np.random.default_rng(7)
    blobs = [rng.normal(c, 0.004, (40, 3))
             for c in ([0, 0, 0], [0.2, 0, 0], [0, 0.25, 0.05])]
    pts = np.vstack(blobs)
    cloud = PointCloud(pts)
    got = euclidean_cluster(cloud, np.arange(len(pts)), tol=0.02, min_size=5)
    want = brute_force_components(pts, 0.02)
    want = [w for w in want if len(w) >= 5]
    got_sets = {frozenset(c.indices.tolist()) for c in got}
    want_sets = {frozenset(w) for w in want}
    assert got_sets == want_sets


def test_cluster_size_gates_drop_components():
    rng = np.random.default_rng(8)
    big = rng.normal(0, 0.004, (60, 3))
    small = rng.normal([0.5, 0, 0], 0.004, (4, 3))
    cloud = PointCloud(np.vstack([big, small]))
    got = euclidean_cluster(cloud, np.arange(64), tol=0.02, min_size=10)
    assert len(got) == 1 and len(got[0].indices) == 60


def test_cluster_order_is_deterministic_by_centroid():
    rng = np.random.default_rng(9)
    a = rng.normal([0.3, 0, 0], 0.003, (30, 3))
    b = rng.normal([-0.3, 0, 0], 0.003, (30, 3))
    cloud = PointCloud(np.vstack([a, b]))
    got = euclidean_cluster(cloud, np.arange(60), tol=0.02, min_size=5)
    assert [c.centroid.x < 0 for c in got] == [True, False]


def test_cluster_empty_subset():
    assert euclidean_cluster(grid_cloud(), np.array([], dtype=int)) == []


# --- PLY output --------------------------------------------------------------

def test_ply_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    cloud = estimate_normals(PointCloud(rng.normal(size=(40, 3))), k=5)
    path = tmp_path / "cloud.ply"
    save_ply(cloud, path)
    lines = path.read_text(encoding="ascii").splitlines()
    header = lines[:lines.index("end_header") + 1]
    assert header == ["ply", "format ascii 1.0", "element vertex 40",
                      *(f"property float {p}"
                        for p in ("x", "y", "z", "nx", "ny", "nz")),
                      "end_header"]
    back = np.array([[float(t) for t in line.split()]
                     for line in lines[len(header):]])
    np.testing.assert_array_equal(back[:, :3], cloud.points)
    np.testing.assert_array_equal(back[:, 3:], cloud.normals)


# --- config ------------------------------------------------------------------

def test_perception_config_from_json_partial():
    cfg = decode(PerceptionConfig, {"leaf": 0.01, "cluster_tol": 0.05},
                 "cfg.json")
    assert cfg.leaf == 0.01 and cfg.cluster_tol == 0.05
    assert cfg.normals_k == 10


@pytest.mark.parametrize("field, value", [
    ("plane_angle_tol", 0.0), ("plane_angle_tol", -0.1),
    ("plane_angle_tol", math.pi / 2.0 + 1e-9), ("plane_angle_tol", math.nan),
    ("plane_dist_thresh", 0.0), ("plane_dist_thresh", -0.005),
    ("plane_dist_thresh", math.nan),
    ("leaf", -0.001), ("leaf", math.inf), ("leaf", math.nan),
    ("normals_k", 2), ("passthrough", ("w", 0.0, 1.0)),
    ("passthrough", ("x", 0.5, 0.4)), ("passthrough", ("y", math.nan, 1.0)),
    ("prism_h_min", -0.01), ("prism_h_min", 0.4), ("prism_h_min", math.nan),
    ("cluster_tol", 0.0), ("cluster_tol", -0.02), ("cluster_tol", math.nan),
    ("cluster_min_size", 0), ("cluster_min_size", 20001),
    ("plane_ref_axis", (0.0, 0.0, 0.0)),
    ("plane_ref_axis", (math.nan, 0.0, 1.0)), ("seed", -1)])
def test_perception_config_rejects_bad_ransac_settings(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        PerceptionConfig(**{field: value})


def test_perception_config_accepts_a_right_angle_tolerance():
    assert PerceptionConfig(plane_angle_tol=math.pi / 2.0).plane_angle_tol > 0
