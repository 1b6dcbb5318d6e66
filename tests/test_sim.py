"""Generator determinism, label bookkeeping, stream geometry, evaluators."""

import math
from dataclasses import replace

import numpy as np
import pytest

from workbot import rtt, sim
from workbot.sim import (RttObject, RttScenario, SceneObject,
                         WorkstationScenario, box_surface_points,
                         cylinder_surface_points, evaluate_nn3d,
                         evaluate_sort, gen_obstacle_grid, gen_rtt_stream,
                         gen_workstation, load_scenario, save_metrics_csv)

WORKSTATION = "src/workbot/data/workstation.json"
RTT = "src/workbot/data/rtt.json"


# ---------------------------------------------------------------------------
# workstation clouds


def test_zero_noise_cloud_is_exactly_planar():
    sc = WorkstationScenario(noise_sigma=0.0, outlier_count=0)
    cloud, truth = gen_workstation(sc)
    assert np.abs(cloud.points[:, 2] - sc.table_height).max() <= 1e-12


def test_label_blocks_match_sampling_densities():
    sc = load_scenario(WORKSTATION)
    cloud, truth = gen_workstation(sc)
    assert len(cloud.points) == len(truth.labels)

    def face_count(area):
        return max(1, int(round(area * sc.density)))

    expected = {0: face_count(sc.width * sc.depth), -1: sc.outlier_count}
    for k, obj in enumerate(sc.objects, start=1):
        if obj.shape == "box":
            w, d, h = obj.size
            expected[k] = sum(face_count(a)
                              for a in (w * d, d * h, d * h, w * h, w * h))
        else:
            expected[k] = (face_count(math.pi * obj.radius ** 2)
                           + face_count(2 * math.pi * obj.radius * obj.height))
    for label, count in expected.items():
        assert np.count_nonzero(truth.labels == label) == count, f"label {label}"


def test_same_seed_is_bit_identical():
    sc = load_scenario(WORKSTATION)
    a, _ = gen_workstation(sc)
    b, _ = gen_workstation(sc)
    assert np.array_equal(a.points, b.points)
    c, _ = gen_workstation(WorkstationScenario(
        objects=sc.objects, noise_sigma=sc.noise_sigma,
        outlier_count=sc.outlier_count, seed=sc.seed + 1))
    assert not np.array_equal(a.points[:10], c.points[:10])


def test_object_points_stay_near_their_object():
    sc = load_scenario(WORKSTATION)
    cloud, truth = gen_workstation(sc)
    for k, obj in enumerate(sc.objects, start=1):
        pts = cloud.points[truth.labels == k]
        assert len(pts)
        xy_spread = np.linalg.norm(
            pts[:, :2] - np.asarray(obj.position), axis=1)
        if obj.shape == "box":
            limit = math.hypot(obj.size[0], obj.size[1]) / 2.0
        else:
            limit = obj.radius
        assert xy_spread.max() <= limit + 5 * sc.noise_sigma
        assert pts[:, 2].min() >= sc.table_height - 5 * sc.noise_sigma
        top = obj.size[2] if obj.shape == "box" else obj.height
        assert pts[:, 2].max() <= (sc.table_height + top
                                   + 5 * sc.noise_sigma)


def test_truth_plane_is_the_table():
    sc = load_scenario(WORKSTATION)
    _, truth = gen_workstation(sc)
    np.testing.assert_allclose(truth.plane.normal, [0, 0, 1])
    assert truth.plane.offset == -sc.table_height
    assert truth.object_labels == ("bolt_bin", "can")


def test_box_sampler_geometry():
    rng = np.random.default_rng(0)
    pts = box_surface_points(rng, (0.1, -0.2), 0.5, (0.08, 0.04, 0.06),
                             yaw=0.3)
    local = pts - np.array([0.1, -0.2, 0.5])
    c, s = math.cos(-0.3), math.sin(-0.3)
    bx = c * local[:, 0] - s * local[:, 1]
    by = s * local[:, 0] + c * local[:, 1]
    assert np.abs(bx).max() <= 0.04 + 1e-12
    assert np.abs(by).max() <= 0.02 + 1e-12
    assert local[:, 2].min() >= -1e-12
    assert local[:, 2].max() <= 0.06 + 1e-12


def test_cylinder_sampler_geometry():
    rng = np.random.default_rng(0)
    pts = cylinder_surface_points(rng, (0.0, 0.0), 0.0, 0.05, 0.1)
    r = np.linalg.norm(pts[:, :2], axis=1)
    assert r.max() <= 0.05 + 1e-12
    top = pts[np.isclose(pts[:, 2], 0.1)]
    lateral = pts[~np.isclose(pts[:, 2], 0.1)]
    assert len(top) and len(lateral)
    np.testing.assert_allclose(np.linalg.norm(lateral[:, :2], axis=1), 0.05)


def test_scene_object_validation():
    with pytest.raises(ValueError, match="unknown shape"):
        SceneObject(shape="sphere", label="x", position=(0, 0))
    with pytest.raises(ValueError, match="box dimensions"):
        SceneObject(shape="box", label="x", position=(0, 0),
                    size=(0.1, 0.0, 0.1))
    with pytest.raises(ValueError, match="cylinder"):
        SceneObject(shape="cylinder", label="x", position=(0, 0), radius=0.05)


def test_workstation_scenario_validation():
    with pytest.raises(ValueError, match="positive"):
        WorkstationScenario(width=0.0)
    with pytest.raises(ValueError, match="negative"):
        WorkstationScenario(noise_sigma=-0.1)


# ---------------------------------------------------------------------------
# rotating-table streams


def clean_rtt(duration=10.0, dropout=0.0, seed=0):
    return RttScenario(
        radius=0.3, omega=2 * math.pi / 10.0, duration=duration,
        dropout=dropout, seed=seed,
        objects=(RttObject("cup", 0.0), RttObject("bolt", 2.0)))


def test_rtt_truth_follows_the_circle_exactly():
    sc = clean_rtt()
    _, _, truth = gen_rtt_stream(sc)
    for k, obj in enumerate(sc.objects):
        expected = obj.angle0 + sc.omega * truth.times
        np.testing.assert_allclose(truth.angles[:, k], expected, atol=1e-12)
        radii = np.linalg.norm(truth.positions[:, k] - sc.center, axis=1)
        np.testing.assert_allclose(radii, sc.radius, atol=1e-12)
    # omega = 2 pi / 10: one full turn after exactly 10 s
    assert truth.angles[-1, 0] + sc.omega / sc.frame_rate == pytest.approx(
        2 * math.pi, abs=1e-9)


def test_rtt_stream_length_and_presence_without_dropout():
    sc = clean_rtt()
    frames3, frames2, truth = gen_rtt_stream(sc)
    n = int(round(sc.duration * sc.frame_rate))
    assert len(frames3) == len(frames2) == n
    assert truth.present.all()
    for f3, f2 in zip(frames3, frames2):
        assert len(f3.points) == len(f2.detections) == 2
        for det in f2.detections:
            assert det.w == det.h == sc.box_size * sc.pixels_per_meter
            assert 0.5 <= det.score <= 1.0


def test_rtt_dropout_rate_and_bookkeeping():
    sc = clean_rtt(duration=500 / 15.0, dropout=0.2, seed=4)
    frames3, frames2, truth = gen_rtt_stream(sc)
    total = truth.present.size
    kept = int(truth.present.sum())
    assert total >= 990
    assert kept / total == pytest.approx(0.8, abs=0.04)
    for i, frame in enumerate(frames2):
        assert len(frame.detections) == int(truth.present[i].sum())
        assert frame.gt_ids == tuple(np.nonzero(truth.present[i])[0])


def test_rtt_dropout_does_not_shift_later_draws():
    clean3, clean2, _ = gen_rtt_stream(clean_rtt(seed=9))
    drop3, drop2, truth = gen_rtt_stream(clean_rtt(dropout=0.5, seed=9))
    for i, frame in enumerate(drop2):
        for det, k in zip(frame.detections, frame.gt_ids):
            clean_det = clean2[i].detections[list(clean2[i].gt_ids).index(k)]
            assert det.cx == clean_det.cx
            assert det.cy == clean_det.cy
            assert det.score == clean_det.score
    for i, frame in enumerate(drop3):
        for pt, k in zip(frame.points, frame.gt_ids):
            clean_pt = clean3[i].points[list(clean3[i].gt_ids).index(k)]
            np.testing.assert_array_equal(pt, clean_pt)


def test_rtt_scenario_validation():
    with pytest.raises(ValueError, match="dropout"):
        clean = clean_rtt()
        RttScenario(objects=clean.objects, dropout=1.0)
    with pytest.raises(ValueError, match="positive"):
        RttScenario(radius=0.0)


# ---------------------------------------------------------------------------
# evaluators


def test_evaluate_sort_clean_stream():
    sc = load_scenario(RTT)
    _, frames2, truth = gen_rtt_stream(sc)
    metrics = evaluate_sort(frames2, truth)
    assert metrics["id_switches"] == 0.0
    assert metrics["assoc_accuracy"] >= 0.99
    assert metrics["track_count"] == 3.0
    assert metrics["frames"] == 900.0
    assert 0.0 <= metrics["omega_rel_err"] <= 0.05


def test_evaluate_nn3d_clean_stream():
    sc = load_scenario(RTT)
    frames3, _, truth = gen_rtt_stream(sc)
    metrics = evaluate_nn3d(frames3, truth)
    assert metrics["id_switches"] == 0.0
    assert metrics["assoc_accuracy"] >= 0.99
    assert metrics["track_count"] == 3.0
    assert 0.0 <= metrics["omega_rel_err"] <= 0.05


# the metrics of the bundled stream, clean and with 10 % dropout, exactly:
# they move if a tracker constant (SORT noise, IoU floor, nn3d gate) does
PINNED_METRICS = {
    ("sort", 0.0): {"id_switches": 0.0, "assoc_accuracy": 0.9977777777777778,
                    "track_count": 3.0, "omega_rel_err": 5.401813190231142e-05,
                    "frames": 900.0},
    ("nn3d", 0.0): {"id_switches": 0.0, "assoc_accuracy": 1.0,
                    "track_count": 3.0, "omega_rel_err": 2.899649901821899e-05,
                    "frames": 900.0},
    ("sort", 0.1): {"id_switches": 0.0, "assoc_accuracy": 0.9975144987572494,
                    "track_count": 3.0, "omega_rel_err": 4.846508737277322e-05,
                    "frames": 900.0},
    ("nn3d", 0.1): {"id_switches": 0.0, "assoc_accuracy": 1.0,
                    "track_count": 3.0, "omega_rel_err": 6.814730624737919e-05,
                    "frames": 900.0},
}


@pytest.mark.parametrize("tracker, dropout", list(PINNED_METRICS))
def test_tracker_metrics_are_pinned(tracker, dropout):
    sc = replace(load_scenario(RTT), dropout=dropout)
    frames3, frames2, truth = gen_rtt_stream(sc)
    metrics = (evaluate_sort(frames2, truth) if tracker == "sort"
               else evaluate_nn3d(frames3, truth))
    assert metrics == PINNED_METRICS[tracker, dropout]


def test_score_breaks_a_tie_of_claimants_by_the_smallest_id():
    # ids 9 and 1 each claim the object twice; 1 is its dominant claimant
    # whatever the layout of a set of the two
    truth = sim.RttTruth(omega=0.5, center=(0.0, 0.0), radius=0.35,
                         labels=("a",), times=np.arange(4) / 15.0,
                         angles=np.zeros((4, 1)),
                         positions=np.zeros((4, 1, 2)),
                         present=np.array([[True], [True], [True], [False]]))
    metrics = sim._score([[9, 1, 1, 9]], truth, 2, None, 4)
    assert metrics["assoc_accuracy"] == 2 / 3
    assert metrics["id_switches"] == 2.0


def test_evaluate_sort_steps_by_the_stream_frame_interval(monkeypatch):
    sc = replace(load_scenario(RTT), frame_rate=30.0, duration=20.0,
                 omega=1.5)
    _, frames2, truth = gen_rtt_stream(sc)
    metrics = evaluate_sort(frames2, truth)

    def tracked_at(dt):
        monkeypatch.setattr(sim, "SortTracker",
                            lambda _=None: rtt.SortTracker(dt))
        return evaluate_sort(frames2, truth)

    assert metrics == tracked_at(1.0 / 30.0)
    assert metrics != tracked_at(1.0 / 15.0)


# ---------------------------------------------------------------------------
# obstacle grids


def test_obstacle_grid_density_and_determinism():
    cells = gen_obstacle_grid(60, 60, 0.1, 0.10, seed=3)
    again = gen_obstacle_grid(60, 60, 0.1, 0.10, seed=3)
    np.testing.assert_array_equal(cells, again)
    assert set(np.unique(cells)) <= {0, 1}
    occupied = float(np.count_nonzero(cells)) / cells.size
    assert occupied == pytest.approx(0.10, abs=0.02)


def test_obstacle_grid_carves_free_discs():
    cells = gen_obstacle_grid(60, 60, 0.1, 0.5, seed=1,
                              keep_free=((1.0, 1.0), (5.0, 5.0)))
    rr, cc = np.meshgrid(np.arange(60), np.arange(60), indexing="ij")
    cx = (cc + 0.5) * 0.1
    cy = (rr + 0.5) * 0.1
    for px, py in ((1.0, 1.0), (5.0, 5.0)):
        inside = (cx - px) ** 2 + (cy - py) ** 2 <= 0.5 ** 2
        assert not cells[inside].any()


# ---------------------------------------------------------------------------
# files


def test_load_scenario_dispatch(tmp_path):
    assert isinstance(load_scenario(WORKSTATION), WorkstationScenario)
    assert isinstance(load_scenario(RTT), RttScenario)
    bad = tmp_path / "weird.json"
    bad.write_text('{"kind": "maze"}\n')
    with pytest.raises(ValueError, match="maze"):
        load_scenario(bad)


def test_save_metrics_csv_is_sorted_and_parseable(tmp_path):
    path = tmp_path / "metrics.csv"
    save_metrics_csv(path, {"b_second": 2.0, "a_first": 0.1})
    lines = path.read_text().splitlines()
    assert lines[0] == "metric,value"
    assert lines[1] == "a_first,0.1"
    assert lines[2] == "b_second,2.0"
    assert float(lines[1].split(",")[1]) == 0.1
