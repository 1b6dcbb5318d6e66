"""PCA object poses and two-source score fusion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from workbot.cloud import Cluster, Point3, PointCloud
from workbot.recognition import (DegenerateCluster, Inventory,
                                 NoAdmissibleLabel, ObjectScores, fuse,
                                 pca_pose)


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

