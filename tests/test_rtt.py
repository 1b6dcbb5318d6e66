"""2D/3D tracking, assignment, circular-motion estimation and triggers."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from workbot import rtt as rttmod
from workbot.rtt import (IOU_MIN, CollinearPoints, Detection2D,
                         DimensionMismatch, NonMonotonicTimestamp,
                         RoiOutOfBounds, RoiRect, SortStep,
                         SortTracker, TableStationary, Track3D, TrackReport,
                         ZeroTimeSpan, associate_nn_3d, change_trigger,
                         estimate_motion, fit_circle, gated_assignment,
                         hungarian, iou, predict_arrival)
from workbot.sim import RttObject, RttScenario, gen_rtt_stream


def det(t, cx, cy, w=20.0, h=20.0, score=0.9):
    return Detection2D(t=t, cx=cx, cy=cy, w=w, h=h, score=score)


# --- iou ---------------------------------------------------------------------

def test_iou_identical_boxes():
    assert iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0


def test_iou_disjoint_boxes():
    assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0


def test_iou_half_overlap_is_one_third():
    assert iou((0, 0, 1, 1), (0.5, 0, 1.5, 1)) == pytest.approx(1 / 3, abs=1e-12)


def test_iou_touching_edges_is_zero():
    assert iou((0, 0, 1, 1), (1, 0, 2, 1)) == 0.0


def scalar_iou(a, b):
    """The one-pair rule ``iou`` had before it broadcast, frozen."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def test_iou_matrix_equals_the_scalar_rule_bit_for_bit():
    rng = np.random.default_rng(4)
    lo = rng.uniform(0.0, 100.0, (60, 2))
    boxes = np.hstack([lo, lo + rng.uniform(0.5, 40.0, (60, 2))])
    # touching on an edge and at a corner, nested, and far away
    extra = np.array([[0.0, 0.0, 1.0, 1.0], [1.0, 0.0, 2.0, 1.0],
                      [1.0, 1.0, 2.0, 2.0], [0.25, 0.25, 0.5, 0.5],
                      [500.0, 500.0, 501.0, 502.0]])
    boxes = np.vstack([boxes, extra])
    got = iou(boxes[:, None], boxes)
    want = np.array([[scalar_iou(a, b) for b in boxes.tolist()]
                     for a in boxes.tolist()])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.all(np.diag(got) == 1.0)           # identical boxes
    assert np.count_nonzero(got == 0.0) > len(boxes)   # disjoint pairs


# --- hungarian ---------------------------------------------------------------

def brute_force_assignment(cost):
    cost = np.asarray(cost, dtype=float)
    rows, cols = cost.shape
    k = min(rows, cols)
    best = (math.inf, None)
    for rsel in itertools.combinations(range(rows), k):
        for csel in itertools.permutations(range(cols), k):
            total = sum(cost[r, c] for r, c in zip(rsel, csel))
            pairs = tuple(sorted(zip(rsel, csel)))
            if (total, pairs) < best:
                best = (total, pairs)
    return best[0]


def test_hungarian_identity_case():
    assignment = hungarian([[0, 1], [1, 0]])
    assert dict(assignment) == {0: 0, 1: 1}


def test_hungarian_rectangular_single_row():
    assignment = hungarian([[5, 2, 7]])
    assert dict(assignment) == {0: 1}


def test_hungarian_empty_matrix():
    assert hungarian(np.empty((0, 0))) == {}


def test_hungarian_matches_bruteforce_cost_small_batch():
    rng = np.random.default_rng(0)
    for trial in range(60):
        rows = rng.integers(1, 6)
        cols = rng.integers(1, 6)
        cost = rng.uniform(-5, 5, (rows, cols))
        assignment = hungarian(cost)
        got = sum(cost[r, c] for r, c in assignment.items())
        assert got == pytest.approx(brute_force_assignment(cost), abs=1e-9)
        assert len(assignment) == min(rows, cols)


def test_hungarian_six_by_six_equals_permutation_minimum():
    rng = np.random.default_rng(1)
    cost = rng.uniform(0, 10, (6, 6))
    got = sum(cost[r, c] for r, c in hungarian(cost).items())
    want = min(sum(cost[i, p[i]] for i in range(6))
               for p in itertools.permutations(range(6)))
    assert got == pytest.approx(want, abs=1e-9)


def lexicographic_assignment(cost):
    """The documented tie-break by enumeration: among minimum-cost
    assignments of min(rows, cols) pairs, the one whose per-row columns,
    read in row order, are lexicographically smallest, an unassigned row
    counting as a column after every real one."""
    rows, cols = len(cost), len(cost[0])
    k = min(rows, cols)
    best = None
    for chosen_rows in itertools.combinations(range(rows), k):
        for chosen_cols in itertools.permutations(range(cols), k):
            per_row = [cols] * rows
            for r, c in zip(chosen_rows, chosen_cols):
                per_row[r] = c
            key = (sum(cost[r][c] for r, c in zip(chosen_rows, chosen_cols)),
                   per_row)
            if best is None or key < best:
                best = key
    return {r: c for r, c in enumerate(best[1]) if c < cols}


@st.composite
def tie_heavy_matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    row = st.lists(st.integers(0, 2), min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows))


@settings(max_examples=200, deadline=None)
@given(tie_heavy_matrices())
def test_hungarian_tie_break_equals_lexicographic_enumeration(cost):
    assert hungarian(cost) == lexicographic_assignment(cost)


def test_hungarian_tie_break_prefers_real_columns_and_low_indices():
    # every assignment of the all-zero 3 x 2 matrix is optimal: rows 0 and 1
    # take columns 0 and 1, and row 2 is the one left without a column
    assert hungarian(np.zeros((3, 2))) == {0: 0, 1: 1}
    # row 0 could take column 0 or 1 at equal total; it takes 0
    assert hungarian([[1, 1, 5], [1, 1, 5]]) == {0: 0, 1: 1}
    # row 0's cheapest column 0 is needed by row 1, so the optimum gives
    # row 0 column 1 although column 0 is smaller
    assert hungarian([[0, 1], [0, 9]]) == {0: 1, 1: 0}


# --- gated_assignment --------------------------------------------------------

def best_gated(cost, allowed):
    """(pair count, total cost) of the best matching on allowed pairs by
    enumeration: most pairs first, then least cost."""
    rows, cols = cost.shape
    best = (0, 0.0)
    for k in range(1, min(rows, cols) + 1):
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.permutations(range(cols), k):
                if all(allowed[r, c] for r, c in zip(rsel, csel)):
                    total = sum(cost[r, c] for r, c in zip(rsel, csel))
                    best = min(best, (-k, total))
    return -best[0], best[1]


def solver_gated(cost, allowed):
    """``gated_assignment`` as it was before it skipped the solver, frozen:
    every matrix goes through ``hungarian``."""
    cost = np.asarray(cost, dtype=float)
    allowed = np.asarray(allowed, dtype=bool)
    spread = 2.0 * min(cost.shape) * float(
        np.abs(cost[allowed]).max(initial=0.0))
    if not (math.isfinite(spread) or allowed.all()):
        raise ValueError("cost entries must be finite")
    assigned = hungarian(np.where(allowed, cost, 1.0 + spread))
    return [(r, c) for r, c in sorted(assigned.items()) if allowed[r, c]]


@st.composite
def gated_problems(draw):
    """Cost and allowed matrices up to 6 x 6, either side possibly empty.
    Costs come in near-ties; the gate is a partial permutation, a random
    mask or all False."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    near_ties = st.sampled_from([0.5, 0.5 + 1e-12, 0.5 - 1e-10, 0.0, 1.0])
    entry = near_ties | st.floats(-10.0, 10.0)
    cost = np.array(draw(st.lists(entry, min_size=rows * cols,
                                  max_size=rows * cols)),
                    dtype=float).reshape(rows, cols)
    allowed = np.zeros((rows, cols), dtype=bool)
    kind = draw(st.sampled_from(["permutation", "mask", "none"]))
    if kind == "permutation":
        k = draw(st.integers(0, min(rows, cols)))
        allowed[draw(st.permutations(range(rows)))[:k],
                draw(st.permutations(range(cols)))[:k]] = True
    elif kind == "mask":
        allowed[:] = np.array(draw(st.lists(st.booleans(),
                                            min_size=rows * cols,
                                            max_size=rows * cols)),
                              dtype=bool).reshape(rows, cols)
    return cost, allowed


@settings(max_examples=300, deadline=None)
@given(gated_problems())
def test_gated_assignment_equals_the_solver_and_skips_it_on_a_permutation(
        problem):
    cost, allowed = problem
    solved = []

    def spy(matrix):
        solved.append(matrix)
        return hungarian(matrix)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rttmod, "hungarian", spy)
        pairs = gated_assignment(cost, allowed)
    assert pairs == solver_gated(cost, allowed)
    assert all(type(r) is int and type(c) is int for r, c in pairs)
    # most allowed pairs in any one row or column
    most = max(allowed.sum(axis=0).max(initial=0),
               allowed.sum(axis=1).max(initial=0))
    assert len(solved) == (0 if most <= 1 else 1)


@pytest.mark.parametrize("cost, allowed", [
    # an infinite gate over an infinite cost
    ([[math.inf]], [[True]]),
    ([[math.inf, 1.0], [1.0, 0.5]], [[True, False], [False, True]]),
    # a NaN cost inside the gate
    ([[math.nan, 1.0]], [[True, False]]),
])
def test_gated_assignment_rejects_a_matrix_the_solver_rejects(cost, allowed):
    for assign in (gated_assignment, solver_gated):
        with pytest.raises(ValueError, match="cost entries must be finite"):
            assign(cost, allowed)


@pytest.mark.parametrize("assign", [gated_assignment, solver_gated])
def test_gated_assignment_spread_that_overflows(assign):
    # finite costs whose spread overflows leave no finite filler for the
    # forbidden pairs: one clean ValueError, and no RuntimeWarning (which
    # the suite turns into a failure)
    with pytest.raises(ValueError, match="cost entries must be finite"):
        assign([[1e308, 0.0], [0.0, 1e308]], np.eye(2, dtype=bool))
    # with every pair allowed no filler enters the matrix
    assert assign([[1e308]], [[True]]) == [(0, 0)]


def test_gated_assignment_drops_the_pair_forced_on_a_forbidden_row():
    # row 1 may pair with nothing, yet the square solve gives it column 1
    cost = [[0.1, 0.2], [0.5, 0.5]]
    allowed = [[True, True], [False, False]]
    assert hungarian(np.where(allowed, cost, 1e6)) == {0: 0, 1: 1}
    assert gated_assignment(cost, allowed) == [(0, 0)]


def test_gated_assignment_makes_most_allowed_pairs_before_least_cost():
    # (0, 0) alone costs 0.0; the two-pair matching costs 1.8 and wins
    cost = [[0.0, 0.9], [0.9, 0.3]]
    allowed = [[True, True], [True, False]]
    assert gated_assignment(cost, allowed) == [(0, 1), (1, 0)]


def test_gated_assignment_prefers_more_pairs_whatever_their_cost():
    # the two allowed pairs cost 1.6e6 together, more than a 1e6 filler
    cost = [[0.0, 8e5], [8e5, 5.0]]
    allowed = [[True, True], [True, False]]
    assert gated_assignment(cost, allowed) == [(0, 1), (1, 0)]


def test_gated_assignment_breaks_no_tie_that_a_filler_would_blur():
    # a 1e6 filler in the solution widens the solver's tie tolerance past
    # the 5e-4 between row 0's two columns
    cost = [[0.5005, 0.5], [0.9, 0.9]]
    allowed = [[True, True], [False, False]]
    assert gated_assignment(cost, allowed) == [(0, 1)]


@pytest.mark.parametrize("transpose", [False, True])
def test_gated_assignment_rectangular_both_ways(transpose):
    # both rows may take column 1; only row 0 may take another column
    cost = np.arange(8, dtype=float).reshape(2, 4) / 10.0
    allowed = np.array([[False, True, True, False],
                        [False, True, False, False]])
    pairs = [(0, 2), (1, 1)]
    if transpose:
        cost, allowed = cost.T, allowed.T
        pairs = sorted((c, r) for r, c in pairs)
    assert gated_assignment(cost, allowed) == pairs


def test_gated_assignment_lists_pairs_in_row_order():
    cost = np.array([[3.0, 2.0, 0.0], [2.0, 0.0, 3.0], [0.0, 3.0, 2.0]])
    assert gated_assignment(cost, np.ones((3, 3), bool)) == [
        (0, 2), (1, 1), (2, 0)]


def test_gated_assignment_matches_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(80):
        rows, cols = rng.integers(1, 5, size=2)
        cost = rng.uniform(0.0, 1.0, (rows, cols))
        allowed = rng.random((rows, cols)) < 0.5
        pairs = gated_assignment(cost, allowed)
        assert all(allowed[r, c] for r, c in pairs)
        assert [r for r, _ in pairs] == sorted({r for r, _ in pairs})
        assert len({c for _, c in pairs}) == len(pairs)
        count, total = best_gated(cost, allowed)
        assert len(pairs) == count
        assert sum(cost[r, c] for r, c in pairs) == pytest.approx(total,
                                                                  abs=1e-9)


# --- SORT --------------------------------------------------------------------

def test_sort_tracker_steps_by_its_dt():
    # the default is the bundled stream's 15 frames per second
    assert SortTracker().dt == 1.0 / 15.0
    for dt in (0.5, 1.0 / 15.0):
        tracker = SortTracker(dt)
        for k in range(30):
            tracker.step([det(k * dt, 50 + 6 * k, 40)])
        # 6 px a frame is a rate of 6 / dt px per second
        assert tracker.state[0, 4] == pytest.approx(6.0 / dt, rel=1e-3)


def test_sort_two_detections_spawn_ids_zero_one():
    tracker = SortTracker()
    step = tracker.step([det(0.0, 10, 10), det(0.0, 100, 100)])
    assert step.new_ids == (0, 1)
    assert step.confirmed == ()     # below min_hits


def test_sort_noiseless_constant_velocity_single_id():
    tracker = SortTracker()
    ids_seen = set()
    confirmed_frames = 0
    for k in range(50):
        t = k * tracker.dt
        step = tracker.step([det(t, 50 + 80 * t, 40 + 30 * t)])
        for rep in step.confirmed:
            ids_seen.add(rep.track_id)
            confirmed_frames += 1
    assert ids_seen == {0}
    assert confirmed_frames == 50 - (rttmod.MIN_HITS - 1) == 48


def test_sort_matched_track_age_resets(monkeypatch):
    monkeypatch.setattr(rttmod, "MIN_HITS", 1)
    tracker = SortTracker()
    tracker.step([det(0.0, 50, 50)])
    step = tracker.step([det(tracker.dt, 50, 50)])
    assert step.confirmed == (TrackReport(0, (40.0, 40.0, 60.0, 60.0)),)
    assert step.matches == ((0, 0),)
    assert tracker.ids.tolist() == [0]
    assert tracker.ages[0] == 0


def test_sort_stale_track_removed_after_max_age(monkeypatch):
    def removals():
        """(empty frame, ids) of each removal after one detection."""
        tracker = SortTracker()
        tracker.step([det(0.0, 50, 50)])
        return [(k, step.removed_ids) for k in range(1, 10)
                if (step := tracker.step([])).removed_ids]

    # gone once unmatched for more than MAX_AGE frames
    assert rttmod.MAX_AGE == 5
    assert removals() == [(6, (0,))]
    monkeypatch.setattr(rttmod, "MAX_AGE", 2)
    assert removals() == [(3, (0,))]


def test_sort_ids_never_reused(monkeypatch):
    monkeypatch.setattr(rttmod, "MAX_AGE", 1)
    monkeypatch.setattr(rttmod, "MIN_HITS", 1)
    tracker = SortTracker()
    tracker.step([det(0.0, 50, 50)])
    tracker.step([])            # age out
    tracker.step([])
    step = tracker.step([det(3 * tracker.dt, 50, 50)])
    assert step.new_ids and step.new_ids[0] > 0


def test_sort_covariance_stays_symmetric_positive_diagonal():
    tracker = SortTracker()
    rng = np.random.default_rng(2)
    for k in range(30):
        t = k * tracker.dt
        tracker.step([det(t, 50 + 60 * t + rng.normal(0, 1),
                          40 + rng.normal(0, 1))])
    assert tracker.cov.shape == (1, 7, 7)
    for cov in tracker.cov:
        np.testing.assert_allclose(cov, cov.T, atol=1e-9)
        assert np.all(np.diag(cov) > 0)


def object_stream(seed, objects, dropout):
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, objects)
    sc = RttScenario(objects=tuple(RttObject(f"obj{k}", float(a))
                                   for k, a in enumerate(angles)),
                     duration=5.0, dropout=dropout, seed=seed)
    return gen_rtt_stream(sc)[1]


def twenty_object_stream(seed):
    return object_stream(seed, 20, 0.1)


# SHA-256 of repr(step) over every frame, recorded when each IoU was still
# computed pair by pair: the (tracks x detections) matrix path must agree
SORT_20_DIGESTS = {
    11: "b23ae8bbe17506d773baf9c46bcbd34c5c522b1a27a8ee4d7e3e887a178b9153",
    12: "0a4311d18d4e309165922577127a5e3863d726768bac2a7775c7f36b1614be42",
}


@pytest.mark.parametrize("seed", sorted(SORT_20_DIGESTS))
def test_sort_steps_on_twenty_objects_are_pinned(seed):
    tracker = SortTracker()
    digest = hashlib.sha256()
    for frame in twenty_object_stream(seed):
        digest.update(repr(tracker.step(list(frame.detections))).encode())
    assert digest.hexdigest() == SORT_20_DIGESTS[seed]


def test_sort_innovation_non_increasing_after_burn_in(monkeypatch):
    tracker = SortTracker()
    captured = []
    update = rttmod._kalman_update

    def spy(state, cov, z):
        out = update(state, cov, z)
        captured.extend(np.linalg.norm(out[2][:, :2], axis=1).tolist())
        return out

    monkeypatch.setattr(rttmod, "_kalman_update", spy)
    for k in range(30):
        t = k * tracker.dt
        tracker.step([det(t, 50 + 80 * t, 40 + 30 * t)])
    # the first frame starts the track; each later one updates it once
    assert len(captured) == 29
    tail = captured[5:]
    assert all(b <= a + 1e-6 for a, b in zip(tail, tail[1:]))


def measurement(d):
    return np.array([d.cx, d.cy, d.w * d.h, d.w / d.h])


class PerTrackSort:
    """The tracker as it was before its tracks became rows of arrays, frozen:
    one Python object per track, predicted, matched and updated in turn,
    with the tracker's lifetimes and frame interval as they were."""

    MAX_AGE, MIN_HITS, DT = 5, 3, 1.0 / 15.0

    class Track:
        def __init__(self, track_id, det):
            self.id, self.hits, self.age_since_update = track_id, 1, 0
            self.state = np.zeros(7)
            self.state[:4] = measurement(det)
            self.cov = np.diag([10.0] * 4 + [1000.0] * 3)

        def predicted_box(self):
            s = max(float(self.state[2]), 1e-9)
            r = max(float(self.state[3]), 1e-9)
            w, h = math.sqrt(s * r), math.sqrt(s / r)
            cx, cy = float(self.state[0]), float(self.state[1])
            return (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)

    def __init__(self):
        self.tracks = []
        self.next_id = 0
        self.f = np.eye(7)
        self.f[0, 4] = self.f[1, 5] = self.f[2, 6] = self.DT
        self.q = np.diag([1.0] * 4 + [10.0] * 3)

    @staticmethod
    def kalman_update(track, det):
        innovation = measurement(det) - track.state[:4]
        k = track.cov[:, :4] @ np.linalg.inv(track.cov[:4, :4] + np.eye(4))
        track.state = track.state + k @ innovation
        i_kh = np.eye(7)
        i_kh[:, :4] -= k
        track.cov = i_kh @ track.cov

    def step(self, detections):
        f = self.f
        for tr in self.tracks:
            if tr.state[2] + tr.state[6] * self.DT <= 0.0:
                tr.state[6] = 0.0
            tr.state = f @ tr.state
            tr.cov = f @ tr.cov @ f.T + self.q
            tr.age_since_update += 1
        matches = []
        unmatched = set(range(len(detections)))
        if self.tracks and detections:
            preds = np.array([tr.predicted_box() for tr in self.tracks])
            boxes = np.array([(d.cx - d.w / 2.0, d.cy - d.h / 2.0,
                               d.cx + d.w / 2.0, d.cy + d.h / 2.0)
                              for d in detections])
            ious = iou(preds[:, None], boxes)
            for ti, dj in solver_gated(1.0 - ious, ious >= IOU_MIN):
                tr = self.tracks[ti]
                self.kalman_update(tr, detections[dj])
                tr.hits += 1
                tr.age_since_update = 0
                matches.append((tr.id, dj))
                unmatched.discard(dj)
        new_ids = []
        for dj in sorted(unmatched):
            tr = self.Track(self.next_id, detections[dj])
            self.next_id += 1
            self.tracks.append(tr)
            new_ids.append(tr.id)
            matches.append((tr.id, dj))
        removed = [tr.id for tr in self.tracks
                   if tr.age_since_update > self.MAX_AGE]
        self.tracks = [tr for tr in self.tracks
                       if tr.age_since_update <= self.MAX_AGE]
        confirmed = tuple(TrackReport(tr.id, tr.predicted_box())
                          for tr in self.tracks if tr.hits >= self.MIN_HITS)
        return SortStep(confirmed=confirmed, matches=tuple(matches),
                        new_ids=tuple(new_ids), removed_ids=tuple(removed))


@pytest.mark.parametrize("dropout", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("objects", [3, 20])
def test_sort_steps_equal_the_per_track_tracker_bit_for_bit(objects, dropout):
    for seed in (5, 6):
        frames = object_stream(seed, objects, dropout)
        arrays = SortTracker()
        per_track = PerTrackSort()
        for frame in frames:
            dets = list(frame.detections)
            assert repr(arrays.step(dets)) == repr(per_track.step(dets))


# --- associate_nn_3d ---------------------------------------------------------

def track_at(tid, t, p):
    return Track3D(id=tid, history=[(t, np.asarray(p, dtype=float))])


def test_nn3d_within_gate_matches():
    tr = track_at(0, 0.0, [0, 0, 0])
    assoc = associate_nn_3d([tr], [(0.1, np.array([0.01, 0, 0]))], gate=0.05)
    assert assoc.pairs == ((0, 0),)
    assert len(tr.history) == 2


def test_nn3d_outside_gate_unmatched():
    tr = track_at(0, 0.0, [0, 0, 0])
    assoc = associate_nn_3d([tr], [(0.1, np.array([0.1, 0, 0]))], gate=0.05)
    assert assoc.pairs == ()
    assert assoc.unmatched_points == (0,)
    assert assoc.unmatched_tracks == (0,)


def test_nn3d_three_way_equals_minsum_oracle():
    tracks = [track_at(i, 0.0, p)
              for i, p in enumerate([[0, 0, 0], [1, 0, 0], [0, 1, 0]])]
    pts = [np.array([0.05, 0.02, 0]), np.array([1.02, 0.01, 0]),
           np.array([0.01, 0.98, 0])]
    assoc = associate_nn_3d(tracks, [(0.1, p) for p in pts], gate=0.5)
    got = {(ti, pj) for ti, pj in assoc.pairs}
    # exhaustive min-sum assignment oracle for this instance
    best = min(itertools.permutations(range(3)),
               key=lambda perm: sum(
                   np.linalg.norm(tracks[i].history[0][1] - pts[perm[i]])
                   for i in range(3)))
    assert got == {(i, best[i]) for i in range(3)}


def test_nn3d_makes_every_pair_the_gate_allows():
    # nearest first would pair track 1 with point 0 (0.04 m) and leave
    # point 1 out of track 0's gate; both points can be matched instead
    tracks = [track_at(0, 0.0, [0, 0, 0]), track_at(1, 0.0, [0.1, 0, 0])]
    pts = [(0.1, np.array([0.06, 0, 0])), (0.1, np.array([0.19, 0, 0]))]
    assoc = associate_nn_3d(tracks, pts, gate=0.1)
    assert assoc.pairs == ((0, 0), (1, 1))
    assert assoc.unmatched_tracks == () and assoc.unmatched_points == ()
    assert [tr.last_point[0] for tr in tracks] == [0.06, 0.19]


def test_nn3d_with_no_tracks_or_no_points():
    tr = track_at(0, 0.0, [0, 0, 0])
    assoc = associate_nn_3d([], [(0.1, np.zeros(3))], gate=0.1)
    assert (assoc.pairs, assoc.unmatched_tracks, assoc.unmatched_points) == (
        (), (), (0,))
    assoc = associate_nn_3d([tr], [], gate=0.1)
    assert (assoc.pairs, assoc.unmatched_tracks, assoc.unmatched_points) == (
        (), (0,), ())
    assert len(tr.history) == 1


def test_nn3d_rejects_non_monotonic_time():
    tr = track_at(0, 1.0, [0, 0, 0])
    with pytest.raises(NonMonotonicTimestamp):
        associate_nn_3d([tr], [(0.5, np.array([0.0, 0, 0]))], gate=0.1)


# --- fit_circle --------------------------------------------------------------

def test_circumcircle_of_three_points():
    center, radius = fit_circle([(1, 0), (0, 1), (-1, 0)])
    np.testing.assert_allclose(center, [0, 0], atol=1e-9)
    assert radius == pytest.approx(1.0, abs=1e-9)


def test_circle_fit_exact_on_noiseless_data():
    theta = np.linspace(0, 2 * math.pi, 50, endpoint=False)
    pts = np.column_stack([0.3 + 0.25 * np.cos(theta),
                           -0.2 + 0.25 * np.sin(theta)])
    center, radius = fit_circle(pts)
    np.testing.assert_allclose(center, [0.3, -0.2], atol=1e-9)
    assert radius == pytest.approx(0.25, abs=1e-9)


def test_circle_fit_collinear_raises():
    with pytest.raises(CollinearPoints):
        fit_circle([(0, 0), (1, 1), (2, 2)])


# --- estimate_motion ---------------------------------------------------------

def unit_circle_track(omega, n=21, dt=0.1, radius=1.0, center=(0.0, 0.0),
                      noise=0.0, seed=0, z=0.0):
    rng = np.random.default_rng(seed)
    history = []
    for k in range(n):
        t = k * dt
        theta = omega * t
        p = np.array([center[0] + radius * math.cos(theta),
                      center[1] + radius * math.sin(theta), z])
        p[:2] += rng.normal(0, noise, 2)
        history.append((t, p))
    return Track3D(id=0, history=history)


def test_omega_exact_on_linear_phase():
    track = unit_circle_track(omega=math.pi, n=21, dt=0.1)
    motion = estimate_motion(track)
    assert motion.omega == pytest.approx(math.pi, abs=1e-9)
    assert motion.radius == pytest.approx(1.0, abs=1e-9)


def test_clockwise_motion_negative_omega():
    track = unit_circle_track(omega=-0.7)
    motion = estimate_motion(track)
    assert motion.omega < 0
    assert motion.omega == pytest.approx(-0.7, abs=1e-9)


def test_noisy_two_second_track_within_five_percent():
    track = unit_circle_track(omega=0.8, n=31, dt=2.0 / 30.0,
                              radius=0.35, noise=0.005, seed=1)
    motion = estimate_motion(track)
    assert abs(motion.omega - 0.8) / 0.8 <= 0.05


def test_phase0_referenced_to_last_timestamp():
    track = unit_circle_track(omega=0.5, n=11, dt=0.2)
    motion = estimate_motion(track)
    assert motion.t_ref == pytest.approx(2.0, abs=1e-12)
    assert -math.pi < motion.phase0 <= math.pi
    assert motion.phase0 == pytest.approx(0.5 * 2.0, abs=1e-9)


def test_rotation_equivariance_of_phase():
    track = unit_circle_track(omega=0.6, n=25, dt=0.1)
    motion = estimate_motion(track)
    phi = 1.2
    c, s = math.cos(phi), math.sin(phi)
    rot = np.array([[c, -s], [s, c]])
    rotated = [(t, np.array([*(rot @ p[:2]), p[2]]))
               for t, p in track.history]
    m2 = estimate_motion(Track3D(id=1, history=rotated))
    assert m2.omega == pytest.approx(motion.omega, abs=1e-6)
    assert m2.radius == pytest.approx(motion.radius, abs=1e-6)
    dphase = (m2.phase0 - motion.phase0 - phi) % (2 * math.pi)
    assert min(dphase, 2 * math.pi - dphase) < 1e-6


def test_zero_time_span_raises():
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 0.0])
    r = np.array([-1.0, 0.0, 0.0])
    track = Track3D(id=0, history=[(0.0, p)])
    track.history.append((0.0, q))   # bypass append-validation deliberately
    track.history.append((0.0, r))
    with pytest.raises(ZeroTimeSpan):
        estimate_motion(track)


def test_center_hint_overrides_fit():
    track = unit_circle_track(omega=0.5, n=15, dt=0.1)
    motion = estimate_motion(track, center_hint=(0.0, 0.0))
    np.testing.assert_allclose(motion.center, [0, 0], atol=1e-12)


# --- predict_arrival ---------------------------------------------------------

def motion(omega, phase0=0.0, t_ref=0.0, radius=1.0):
    from workbot.rtt import CircularMotion
    return CircularMotion(center=(0.0, 0.0), radius=radius, omega=omega,
                          phase0=phase0, t_ref=t_ref)


def test_arrival_quarter_turn():
    t = predict_arrival(motion(math.pi / 2), math.pi / 2, t_now=0.0, lead=0.0)
    assert t == pytest.approx(1.0, abs=1e-9)


def test_arrival_lead_pushes_to_next_revolution():
    t = predict_arrival(motion(math.pi / 2), math.pi / 2, t_now=0.0, lead=1.5)
    assert t == pytest.approx(5.0, abs=1e-9)


def test_arrival_negative_omega():
    t = predict_arrival(motion(-math.pi / 2), math.pi / 2, t_now=0.0, lead=0.0)
    assert t == pytest.approx(3.0, abs=1e-9)


def test_arrival_stationary_table_raises():
    with pytest.raises(TableStationary):
        predict_arrival(motion(1e-4), 0.5, t_now=0.0, lead=0.0)


@given(st.floats(-3.0, 3.0), st.floats(-math.pi, math.pi),
       st.floats(0.0, 2.0),
       st.floats(-math.pi, math.pi, exclude_min=True))
@settings(max_examples=80, deadline=None)
def test_arrival_satisfies_congruence_and_lead(omega, target, lead, phase0):
    if abs(omega) <= 1e-3:
        return
    m = motion(omega, phase0=phase0, t_ref=0.0)
    t = predict_arrival(m, target, t_now=0.0, lead=lead)
    assert t >= lead - 1e-12
    angle = m.phase0 + m.omega * (t - m.t_ref)
    err = (angle - target) % (2 * math.pi)
    assert min(err, 2 * math.pi - err) < 1e-9


# --- change_trigger ----------------------------------------------------------

def test_trigger_identical_grids_false():
    grid = np.zeros((10, 10))
    roi = RoiRect(0, 0, 10, 10)
    assert change_trigger(grid, grid, roi, delta=0.1, frac=0.1) is False


def test_trigger_all_cells_changed_true():
    ref = np.zeros((10, 10))
    cur = np.full((10, 10), 0.4)
    roi = RoiRect(2, 2, 5, 5)
    assert change_trigger(ref, cur, roi, delta=0.2, frac=0.5) is True


def test_trigger_exact_fraction_is_false():
    ref = np.zeros((4, 4))
    cur = ref.copy()
    cur[0, :2] = 1.0            # 2 of 4 roi cells over a 1x4 roi band
    roi = RoiRect(0, 0, 1, 4)
    assert change_trigger(ref, cur, roi, delta=0.5, frac=0.5) is False


def test_trigger_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        change_trigger(np.zeros((4, 4)), np.zeros((5, 4)),
                       RoiRect(0, 0, 2, 2), 0.1, 0.1)


def test_trigger_roi_out_of_bounds():
    with pytest.raises(RoiOutOfBounds):
        change_trigger(np.zeros((4, 4)), np.zeros((4, 4)),
                       RoiRect(2, 2, 4, 4), 0.1, 0.1)
