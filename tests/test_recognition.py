"""PCA object poses and two-source score fusion."""

import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from workbot.cloud import Cluster, PerceptionConfig, Point3, PointCloud
from workbot.placement import segment_workstation
from workbot.recognition import (DegenerateCluster, Inventory,
                                 NoAdmissibleLabel, ObjectScores, fuse,
                                 pca_pose)
from workbot.sim import gen_workstation, load_scenario


def cluster_of(pts):
    pts = np.asarray(pts, dtype=float)
    return (PointCloud(pts),
            Cluster(indices=np.arange(len(pts), dtype=np.intp),
                    centroid=Point3.from_array(pts.mean(axis=0))))


def segment_cloud(n=60, half=0.05, jitter=1e-4, seed=0):
    rng = np.random.default_rng(seed)
    x = np.linspace(-half, half, n)
    return np.column_stack([x, rng.normal(0, jitter, n),
                            rng.normal(0, jitter, n)])


# --- pca_pose ----------------------------------------------------------------

def test_major_axis_of_x_segment():
    cloud, cl = cluster_of(segment_cloud())
    pose, extents = pca_pose(cloud, cl)
    major = pose.rotation()[:, 0]
    angle = math.degrees(math.acos(min(1.0, abs(major[0]))))
    assert angle < 1.0
    assert extents[0] > extents[1] >= extents[2]


def test_major_axis_tracks_rotated_segment():
    pts = segment_cloud()
    theta = math.radians(45)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
    cloud, cl = cluster_of(pts @ rot.T)
    pose, _ = pca_pose(cloud, cl)
    major = pose.rotation()[:, 0]
    ref = rot @ np.array([1.0, 0, 0])
    angle = math.degrees(math.acos(min(1.0, abs(float(major @ ref)))))
    assert angle < 1.0


def test_pose_position_is_centroid():
    rng = np.random.default_rng(3)
    pts = rng.normal([0.2, -0.1, 0.5], [0.05, 0.02, 0.01], (80, 3))
    cloud, cl = cluster_of(pts)
    pose, _ = pca_pose(cloud, cl)
    np.testing.assert_allclose(pose.position, pts.mean(axis=0), atol=1e-12)


def test_orientation_is_right_handed_orthonormal():
    rng = np.random.default_rng(4)
    pts = rng.normal(0, [0.08, 0.03, 0.01], (100, 3))
    cloud, cl = cluster_of(pts)
    pose, _ = pca_pose(cloud, cl)
    rot = pose.rotation()
    np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-9)
    assert abs(np.linalg.det(rot) - 1.0) < 1e-9


def test_extents_are_sqrt_eigenvalues():
    rng = np.random.default_rng(5)
    pts = rng.normal(0, [0.08, 0.03, 0.01], (500, 3))
    cloud, cl = cluster_of(pts)
    _, extents = pca_pose(cloud, cl)
    centered = pts - pts.mean(axis=0)
    evals = np.sort(np.linalg.eigvalsh(centered.T @ centered / len(pts)))[::-1]
    np.testing.assert_allclose(extents, np.sqrt(evals), atol=1e-12)


def test_rotation_equivariance_preserves_extents():
    rng = np.random.default_rng(6)
    pts = rng.normal(0, [0.06, 0.02, 0.008], (200, 3))
    theta = 1.1
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])
    _, e1 = pca_pose(*cluster_of(pts))
    _, e2 = pca_pose(*cluster_of(pts @ rot.T))
    np.testing.assert_allclose(e1, e2, atol=1e-9)


def test_two_points_degenerate():
    cloud, cl = cluster_of([[0, 0, 0], [1, 0, 0]])
    with pytest.raises(DegenerateCluster):
        pca_pose(cloud, cl)


def test_collinear_cluster_degenerate():
    pts = np.column_stack([np.linspace(0, 1, 20), np.zeros(20), np.zeros(20)])
    cloud, cl = cluster_of(pts)
    with pytest.raises(DegenerateCluster):
        pca_pose(cloud, cl)


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0.0 else -q


# the principal spreads of each kind of cluster, largest first, as fractions
# of its size; the axes of the unique eigenvalues, whose eigenvectors eigh
# and pca_pose must agree on
CLUSTER_KINDS = {
    "rod": (lambda rng: (1.0, *[rng.uniform(0.02, 0.2)] * 2), (0,)),
    "thin_rod": (lambda rng: (1.0, 0.01, 0.01), (0,)),
    "disc": (lambda rng: (1.0, 1.0, rng.uniform(0.02, 0.2)), (2,)),
    "general": (lambda rng: (1.0, rng.uniform(0.3, 0.7),
                             rng.uniform(0.02, 0.15)), (0, 1, 2)),
}


@pytest.mark.parametrize("kind", CLUSTER_KINDS)
def test_pose_matches_eigh_on_seeded_clusters(kind):
    spreads, unique = CLUSTER_KINDS[kind]
    rng = np.random.default_rng(list(CLUSTER_KINDS).index(kind))
    for _ in range(100):
        size = rng.uniform(0.005, 0.2)
        n = int(rng.integers(20, 400))
        pts = (rng.normal(size=(n, 3)) * size * np.array(spreads(rng))
               @ random_rotation(rng).T + rng.uniform(-1.0, 1.0, 3))
        pose, extents = pca_pose(*cluster_of(pts))
        centered = pts - pts.mean(axis=0)
        evals, evecs = np.linalg.eigh(centered.T @ centered / n)
        # the extents are Rayleigh quotients, exact to rounding even where
        # two eigenvalues nearly coincide, as a thin rod's two small ones do
        np.testing.assert_allclose(extents, np.sqrt(evals[::-1]), rtol=0.0,
                                   atol=1e-14)
        rot = pose.rotation()
        np.testing.assert_allclose(rot.T @ rot, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
        for i in unique:
            sine = np.linalg.norm(np.cross(rot[:, i], evecs[:, 2 - i]))
            assert sine <= 1e-6, (kind, i, sine)


@pytest.mark.parametrize("pts", [
    np.array(list(itertools.product((-0.05, 0.05), repeat=3))) + 0.3,
    np.array(list(itertools.product((-0.05, 0.0, 0.05), repeat=3))) + 0.3,
    np.vstack([np.eye(3), -np.eye(3)]) * 0.1],
    ids=["cube", "cubic_lattice", "octahedron"])
def test_isotropic_cluster_gets_a_right_handed_frame(pts):
    # every frame is a principal one, and every axis's Rayleigh quotient is
    # the one eigenvalue, though Newton's method reaches a triple root only
    # roughly
    pose, extents = pca_pose(*cluster_of(pts))
    rot = pose.rotation()
    np.testing.assert_allclose(rot.T @ rot, np.eye(3), atol=1e-12)
    assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
    want = math.sqrt(float(np.mean(np.sum((pts - pts.mean(axis=0)) ** 2,
                                          axis=1))) / 3.0)
    np.testing.assert_allclose(extents, want, rtol=1e-15)


# SHA-256 over the position, quaternion and extents that pca_pose gives for
# every cluster of the bundled workstation scenario at seeds 0-3 with the
# default perception config.  These are the same bits under every BLAS
# kernel and SIMD target (tests/test_cpu_dispatch.py); a change that moves
# them must say so and record the digest again.
PCA_POSE_DIGEST = (
    "3dbcd5fc6a0159d0806e1d21cd887302e175bb06e919eb1068fd9d1846609759")


def pca_pose_digest() -> str:
    """The SHA-256 that PCA_POSE_DIGEST records."""
    sc = load_scenario("src/workbot/data/workstation.json")
    digest = hashlib.sha256()
    for seed in range(4):
        cloud, _ = gen_workstation(replace(sc, seed=seed))
        work, _, _, clusters = segment_workstation(cloud, PerceptionConfig())
        for cl in clusters:
            pose, extents = pca_pose(work, cl)
            for arr in (pose.position, pose.quat_xyzw, extents):
                digest.update(arr.tobytes())
    return digest.hexdigest()


def test_pca_pose_matches_the_recorded_digest():
    assert pca_pose_digest() == PCA_POSE_DIGEST


# --- fuse --------------------------------------------------------------------

def test_fusion_worked_example():
    s3 = ObjectScores({"A": 0.8, "B": 0.2}, "3d")
    s2 = ObjectScores({"A": 0.9, "B": 0.3}, "2d")
    label, conf = fuse(s3, s2, Inventory(frozenset({"A", "B"})))
    assert label == "A"
    assert conf == pytest.approx(0.72 / (0.72 + 0.06), abs=1e-12)
    assert conf == pytest.approx(0.923, abs=1e-3)


def test_fusion_masks_labels_outside_inventory():
    s3 = ObjectScores({"A": 0.9}, "3d")
    s2 = ObjectScores({"A": 0.9}, "2d")
    with pytest.raises(NoAdmissibleLabel):
        fuse(s3, s2, Inventory(frozenset({"B"})))


def test_fusion_uniform_tie_breaks_lexicographically():
    s3 = ObjectScores({"A": 0.5, "B": 0.5}, "3d")
    s2 = ObjectScores({"A": 0.5, "B": 0.5}, "2d")
    label, _ = fuse(s3, s2, Inventory(frozenset({"B", "A"})))
    assert label == "A"


def test_fusion_missing_label_gets_neutral_half():
    s3 = ObjectScores({"A": 0.8}, "3d")
    s2 = ObjectScores({"A": 0.4, "B": 0.9}, "2d")
    label, conf = fuse(s3, s2, Inventory(frozenset({"A", "B"})))
    # B fuses as 0.5 * 0.9 = 0.45 against A's 0.32
    assert label == "B"
    assert conf == pytest.approx(0.45 / (0.45 + 0.32), abs=1e-12)


def test_fusion_requires_matching_sources():
    s = ObjectScores({"A": 0.5}, "3d")
    with pytest.raises(ValueError):
        fuse(s, s, Inventory(frozenset({"A"})))


def test_fusion_with_neutral_sensor_keeps_other_ranking():
    s3 = ObjectScores({"A": 0.9, "B": 0.1}, "3d")
    # a 2D map that scores no inventory label biases none of them
    neutral = ObjectScores({"__neutral__": 0.5}, "2d")
    label, _ = fuse(s3, neutral, Inventory(frozenset({"A", "B"})))
    assert label == "A"


@given(st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_fusion_argmax_invariant_to_source_scaling(k):
    base3 = {"A": 0.08, "B": 0.05, "C": 0.02}
    s2 = ObjectScores({"A": 0.3, "B": 0.6, "C": 0.3}, "2d")
    inv = Inventory(frozenset({"A", "B", "C"}))
    ref, _ = fuse(ObjectScores(base3, "3d"), s2, inv)
    scaled = {l: min(1.0, v * k) for l, v in base3.items()}
    if any(v * k > 1.0 for v in base3.values()):
        return  # clipping would change the ranking; outside the invariant
    got, _ = fuse(ObjectScores(scaled, "3d"), s2, inv)
    assert got == ref


def test_score_validation():
    with pytest.raises(ValueError):
        ObjectScores({"A": 1.5}, "2d")
    with pytest.raises(ValueError):
        ObjectScores({}, "2d")
    with pytest.raises(ValueError):
        ObjectScores({"A": 0.5}, "rgb")

