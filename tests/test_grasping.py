"""Approach selection, pre-grasp sampling order, first-fit reachability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from workbot import grasping, kinematics
from workbot.geometry import Pose
from workbot.grasping import (GAP_MAX, HEIGHT_THRESHOLD, GraspCandidate,
                              GripperFeedback, NoReachableCandidate,
                              decide_approach, grasp_monitor, sample_pregrasp,
                              select_reachable)
from workbot.kinematics import IkResult, NoConvergence, load_chain

IDENTITY_QUAT = np.array([0.0, 0.0, 0.0, 1.0])


def pose_at(x, y, z):
    return Pose(np.array([x, y, z], dtype=float), IDENTITY_QUAT)


# ---------------------------------------------------------------------------
# approach decision


def test_decide_approach_short_object_from_top():
    assert decide_approach(0.04) == "top"


def test_decide_approach_tall_object_frontal():
    assert decide_approach(0.10) == "frontal"


def test_decide_approach_boundary_is_top(monkeypatch):
    assert HEIGHT_THRESHOLD == 0.06
    assert decide_approach(0.06) == "top"
    assert decide_approach(math.nextafter(0.06, 1.0)) == "frontal"
    # the threshold is read when the call is made
    monkeypatch.setattr(grasping, "HEIGHT_THRESHOLD", 0.10)
    assert decide_approach(0.10) == "top"


def test_decide_approach_rejects_negative_height():
    with pytest.raises(ValueError, match="negative"):
        decide_approach(-0.01)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 0.3), st.floats(0.0, 0.3))
def test_decide_approach_monotone_in_height(h1, h2):
    lo, hi = sorted((h1, h2))
    if decide_approach(lo) == "frontal":
        assert decide_approach(hi) == "frontal"


# ---------------------------------------------------------------------------
# pre-grasp sampling


def test_single_top_sample_sits_above_object():
    obj = pose_at(0.3, 0.1, 0.12)
    (cand,) = sample_pregrasp(obj, "top", offset=0.05, n=1)
    np.testing.assert_allclose(cand.pregrasp_pose.position,
                               [0.3, 0.1, 0.17], atol=1e-12)
    # tool z is the approach direction: straight down
    np.testing.assert_allclose(cand.pregrasp_pose.rotation()[:, 2],
                               [0.0, 0.0, -1.0], atol=1e-12)
    assert cand.yaw == 0.0


def test_yaw_sweep_order_nominal_first():
    obj = pose_at(0.3, 0.0, 0.05)
    cands = sample_pregrasp(obj, "top", n=3, yaw_spread=math.pi / 2)
    assert [c.yaw for c in cands] == pytest.approx(
        [0.0, -math.pi / 4, math.pi / 4])


def test_yaw_sweep_covers_spread_uniformly():
    cands = sample_pregrasp(pose_at(0.3, 0.0, 0.05), "top", n=9,
                            yaw_spread=math.pi / 2)
    yaws = sorted(c.yaw for c in cands)
    expected = np.linspace(-math.pi / 4, math.pi / 4, 9)
    assert yaws == pytest.approx(list(expected))
    # |yaw| never decreases along the candidate list
    mags = [abs(c.yaw) for c in cands]
    assert mags == sorted(mags)


def test_frontal_axis_points_from_base_to_object():
    obj = pose_at(0.4, 0.0, 0.1)
    (cand,) = sample_pregrasp(obj, "frontal", offset=0.05, n=1)
    np.testing.assert_allclose(cand.pregrasp_pose.position,
                               [0.35, 0.0, 0.1], atol=1e-12)
    np.testing.assert_allclose(cand.pregrasp_pose.rotation()[:, 2],
                               [1.0, 0.0, 0.0], atol=1e-12)


def test_frontal_axis_ignores_height_difference():
    obj = pose_at(0.0, 0.5, 0.4)
    (cand,) = sample_pregrasp(obj, "frontal", n=1,
                              base_position=(0.0, 0.0, 0.2))
    np.testing.assert_allclose(cand.pregrasp_pose.rotation()[:, 2],
                               [0.0, 1.0, 0.0], atol=1e-12)


def test_frontal_undefined_directly_above_base():
    with pytest.raises(ValueError, match="directly above"):
        sample_pregrasp(pose_at(0.0, 0.0, 0.5), "frontal", n=1)


def test_sample_rotations_are_orthonormal():
    for approach in ("top", "frontal"):
        for cand in sample_pregrasp(pose_at(0.3, 0.2, 0.1), approach, n=5):
            r = cand.pregrasp_pose.rotation()
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0)


def test_sample_yaw_rotates_about_approach_axis():
    cands = sample_pregrasp(pose_at(0.3, 0.0, 0.05), "top", n=3,
                            yaw_spread=math.pi / 2)
    by_yaw = {round(c.yaw, 9): c for c in cands}
    nominal = by_yaw[0.0].pregrasp_pose.rotation()
    quarter = by_yaw[round(math.pi / 4, 9)].pregrasp_pose.rotation()
    # approach axis itself is unchanged by the yaw
    np.testing.assert_allclose(quarter[:, 2], nominal[:, 2], atol=1e-12)
    angle = math.acos(np.clip(np.dot(quarter[:, 0], nominal[:, 0]), -1, 1))
    assert angle == pytest.approx(math.pi / 4, abs=1e-9)


def test_sample_rejects_bad_arguments():
    for n in (0, 361):
        with pytest.raises(ValueError,
                           match=rf"n must be in \[1, 360\], got {n}"):
            sample_pregrasp(pose_at(0.3, 0.0, 0.1), "top", n=n)
    with pytest.raises(ValueError, match="non-negative"):
        sample_pregrasp(pose_at(0.3, 0.0, 0.1), "top", offset=-0.01)
    for spread in (-0.1, 2.0 * math.pi + 1e-9, 1e308, math.nan):
        with pytest.raises(ValueError,
                           match=r"yaw_spread must lie in \[0, 2 pi\]"):
            sample_pregrasp(pose_at(0.3, 0.0, 0.1), "top", yaw_spread=spread)
    # a full turn is the widest fan
    assert len(sample_pregrasp(pose_at(0.3, 0.0, 0.1), "top", n=4,
                               yaw_spread=2.0 * math.pi)) == 4


# ---------------------------------------------------------------------------
# first-fit selection


def fake_result(q):
    return IkResult(q=np.asarray(q, dtype=float), iterations=1,
                    pos_err=0.0, ang_err=0.0)


def test_select_reachable_first_fit_stops_early(monkeypatch):
    chain = load_chain("src/workbot/data/chain_5dof.json")
    cands = sample_pregrasp(pose_at(0.3, 0.0, 0.1), "top", n=5)
    tried = []

    def solver(chain, target, q0):
        tried.append(target)
        return fake_result(np.zeros(5))

    monkeypatch.setattr(kinematics, "ik_dls", solver)
    cand, res = select_reachable(chain, cands, np.zeros(5))
    assert cand is cands[0]
    assert len(tried) == 1


def test_select_reachable_skips_failures(monkeypatch):
    chain = load_chain("src/workbot/data/chain_5dof.json")
    cands = sample_pregrasp(pose_at(0.3, 0.0, 0.1), "top", n=5)
    calls = []

    def solver(chain, target, q0):
        calls.append(target)
        if len(calls) < 3:
            raise NoConvergence("unreachable")
        return fake_result(np.ones(5) * 0.1)

    monkeypatch.setattr(kinematics, "ik_dls", solver)
    cand, res = select_reachable(chain, cands, np.zeros(5))
    assert cand is cands[2]
    assert calls == [c.pregrasp_pose for c in cands[:3]]
    np.testing.assert_allclose(res.q, 0.1)


def test_select_reachable_exhausted_raises(monkeypatch):
    chain = load_chain("src/workbot/data/chain_5dof.json")
    cands = sample_pregrasp(pose_at(0.3, 0.0, 0.1), "top", n=4)

    def solver(chain, target, q0):
        raise NoConvergence("unreachable")

    monkeypatch.setattr(kinematics, "ik_dls", solver)
    with pytest.raises(NoReachableCandidate, match="4"):
        select_reachable(chain, cands, np.zeros(5))


def test_select_reachable_rejects_empty_list():
    chain = load_chain("src/workbot/data/chain_5dof.json")
    with pytest.raises(ValueError, match="no candidates"):
        select_reachable(chain, [], np.zeros(5))


def test_select_reachable_with_real_solver():
    chain = load_chain("src/workbot/data/chain_5dof.json")
    base = Pose(np.array([0.0, 0.0, 0.55]), IDENTITY_QUAT)
    cands = sample_pregrasp(pose_at(0.2, 0.0, 0.60), "top", n=9)
    cand, res = select_reachable(chain.with_base(base), cands,
                                 q0=np.zeros(5))
    assert res.pos_err <= 1e-3
    assert cand.yaw == 0.0


# ---------------------------------------------------------------------------
# grasp monitor


def test_monitor_good_grip_is_grasped():
    fb = GripperFeedback(positions=(1.0, 1.0), forces=(0.6, 0.6))
    assert grasp_monitor(fb) == "grasped"


def test_monitor_weak_force_is_empty():
    fb = GripperFeedback(positions=(1.0, 1.0), forces=(0.05, 0.05))
    assert grasp_monitor(fb) == "empty"


def test_monitor_fingers_fully_closed_is_empty():
    # travel 2.0 rad per finger -> gap = 0.10 - 0.025*4 = 0, below gap_min
    fb = GripperFeedback(positions=(2.0, 2.0), forces=(0.6, 0.6))
    assert grasp_monitor(fb) == "empty"


def test_monitor_gap_too_wide_is_empty(monkeypatch):
    assert GAP_MAX == 0.09
    # gap = 0.10 - 0.025*0.2 = 0.095 > GAP_MAX
    wide = GripperFeedback(positions=(0.1, 0.1), forces=(0.6, 0.6))
    assert grasp_monitor(wide) == "empty"
    fb = GripperFeedback(positions=(1.0, 1.0), forces=(0.6, 0.6))
    assert grasp_monitor(fb) == "grasped"
    # gap = 0.10 - 0.025*2 = 0.05 > GAP_MAX, read when the call is made
    monkeypatch.setattr(grasping, "GAP_MAX", 0.04)
    assert grasp_monitor(fb) == "empty"


def test_monitor_force_threshold_inclusive():
    fb = GripperFeedback(positions=(1.0, 1.0), forces=(0.3, 0.3))
    assert grasp_monitor(fb) == "grasped"


def test_feedback_rejects_out_of_range_force():
    with pytest.raises(ValueError, match="forces"):
        GripperFeedback(positions=(0.0, 0.0), forces=(1.2, 0.0))


def test_candidate_fields_round_trip():
    cands = sample_pregrasp(pose_at(0.3, 0.0, 0.1), "top", n=3,
                            yaw_spread=1.0, offset=0.07)
    assert all(isinstance(c, GraspCandidate) for c in cands)
    assert all(c.offset == 0.07 and c.approach == "top" for c in cands)
    scores = [c.score for c in cands]
    assert scores == sorted(scores, reverse=True)
