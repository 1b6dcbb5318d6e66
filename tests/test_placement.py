"""Free-space sampling inequalities, dense-grid feasibility oracle, a
per-draw reference sampler, ranking."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from workbot import placement
from workbot.cloud import PlaneBasis, Polygon2, _rowdot
from workbot.geometry import Pose
from workbot.kinematics import IkResult, NoConvergence, load_chain
from workbot.placement import (_DRAW_BLOCK, NoFreeSpace, NoReachablePlacement,
                               Obstacle2, PlacementPose, _pose_on_plane,
                               rank_placements, sample_placements,
                               workstation_model)
from workbot.sim import gen_workstation, load_scenario

TABLE_W, TABLE_H = 0.8, 0.6


def table_polygon(w=TABLE_W, h=TABLE_H, z=0.7) -> Polygon2:
    basis = PlaneBasis(origin=np.array([0.0, 0.0, z]),
                       u=np.array([1.0, 0.0, 0.0]),
                       v=np.array([0.0, 1.0, 0.0]))
    verts = np.array([[-w / 2, -h / 2], [w / 2, -h / 2],
                      [w / 2, h / 2], [-w / 2, h / 2]])
    return Polygon2(vertices=verts, basis=basis)


def bench_obstacles():
    return [Obstacle2(center=np.array([0.18, 0.10]), radius=0.054),
            Obstacle2(center=np.array([-0.20, -0.12]), radius=0.033)]


def crowded_obstacles():
    return [Obstacle2(center=np.array(c), radius=r) for c, r in [
        ((0.0, 0.0), 0.15), ((0.25, 0.1), 0.08), ((-0.25, -0.1), 0.1),
        ((0.2, -0.2), 0.05), ((-0.2, 0.2), 0.07)]]


def dot2(a, b) -> float:
    """u then v, in float64: the arithmetic the library's 2D distances use."""
    return float(a[0]) * float(b[0]) + float(a[1]) * float(b[1])


def scalar_edge_distance(polygon, uv) -> float:
    """Distance to the closest edge segment, measured one edge at a time."""
    verts = polygon.vertices
    dists = []
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        ab = b - a
        denom = dot2(ab, ab)
        t = 0.0 if denom == 0.0 else min(1.0, max(0.0, dot2(uv - a, ab)
                                                   / denom))
        gap = uv - (a + t * ab)
        dists.append(math.sqrt(dot2(gap, gap)))
    return min(dists)


def reference_sample(polygon, obstacles, d_min=0.03, footprint=0.05, n=20,
                     rng_seed=0, max_attempts=10000):
    """The sampler one draw at a time: the reference the batched one meets."""
    rng = np.random.default_rng(rng_seed)
    verts = polygon.vertices
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    accepted = []
    for _ in range(max_attempts):
        if len(accepted) >= n:
            break
        uv = lo + rng.random(2) * (hi - lo)
        if not polygon.contains(uv, eps=0.0):
            continue
        edge_d = scalar_edge_distance(polygon, uv)
        if edge_d < footprint:
            continue
        margin_ok = True
        clearance = edge_d
        for obs in obstacles:
            rel = uv - obs.center
            dist = math.sqrt(dot2(rel, rel))
            if dist < obs.radius + footprint + d_min:
                margin_ok = False
                break
            clearance = min(clearance, dist - obs.radius)
        if not margin_ok:
            continue
        accepted.append(PlacementPose(pose=_pose_on_plane(polygon, uv),
                                      uv=uv, clearance=clearance))
    if not accepted:
        raise NoFreeSpace(
            f"no admissible placement in {max_attempts} attempts "
            f"(footprint {footprint} m, separation {d_min} m)")
    return accepted


def feasible_grid(polygon, obstacles, d_min, footprint, step=0.001):
    """Dense-grid restatement of the acceptance rule, fully vectorized."""
    lo = polygon.vertices.min(axis=0)
    hi = polygon.vertices.max(axis=0)
    us = np.arange(lo[0], hi[0] + step / 2, step)
    vs = np.arange(lo[1], hi[1] + step / 2, step)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    pts = np.stack([uu.ravel(), vv.ravel()], axis=1)
    ok = polygon.contains(pts, eps=0.0)
    # edge distance of an axis-aligned rectangle: distance to nearest side
    edge = np.minimum.reduce([pts[:, 0] - lo[0], hi[0] - pts[:, 0],
                              pts[:, 1] - lo[1], hi[1] - pts[:, 1]])
    ok &= edge >= footprint
    for obs in obstacles:
        dist = np.linalg.norm(pts - obs.center, axis=1)
        ok &= dist >= obs.radius + footprint + d_min
    return pts[ok]


# ---------------------------------------------------------------------------
# workstation_model


def test_workstation_model_finds_table_objects():
    sc = load_scenario("src/workbot/data/workstation.json")
    cloud, _ = gen_workstation(sc)
    plane, polygon, obstacles = workstation_model(cloud)
    assert abs(plane.normal[2]) > 0.999
    assert len(obstacles) == 2
    # recover each disc near its generating object, radius near its footprint
    world = {tuple(np.round(polygon.basis.to_world(o.center)[:2], 2)): o
             for o in obstacles}
    centers = sorted(world.keys())
    assert centers[0] == pytest.approx((-0.2, -0.12), abs=0.02)
    assert centers[1] == pytest.approx((0.18, 0.10), abs=0.02)
    radii = sorted(o.radius for o in obstacles)
    assert 0.02 <= radii[0] <= 0.05      # cylinder, r = 0.033
    assert 0.04 <= radii[1] <= 0.08      # box, half-diagonal ~ 0.054


def test_workstation_model_polygon_covers_table():
    sc = load_scenario("src/workbot/data/workstation.json")
    cloud, _ = gen_workstation(sc)
    plane, polygon, _ = workstation_model(cloud)
    u, v = polygon.vertices.T
    # shoelace area of the counter-clockwise hull
    area = 0.5 * float(np.sum(u * np.roll(v, -1) - np.roll(u, -1) * v))
    assert area == pytest.approx(TABLE_W * TABLE_H, rel=0.1)


# SHA-256 over the plane (normal, offset, inliers), hull vertices, basis
# (origin, u, v) and obstacle discs of eight seeded scans, two at each of
# 10k, 20k, 30k and 40k points per square metre.  A perception change that
# moves any of these bytes must say so and record the digest again.
PERCEPTION_DIGEST = (
    "dd8ee5553b977dc79c4028814717714335a69666b725c8785976cd2796bc49ba")


def perception_digest() -> str:
    """The SHA-256 that PERCEPTION_DIGEST records."""
    sc = load_scenario("src/workbot/data/workstation.json")
    digest = hashlib.sha256()
    for i, density in enumerate((10000.0, 20000.0, 30000.0, 40000.0) * 2):
        cloud, _ = gen_workstation(replace(sc, seed=100 + i, density=density))
        plane, polygon, obstacles = workstation_model(cloud)
        basis = polygon.basis
        for arr in (plane.normal, np.float64(plane.offset), plane.inliers,
                    polygon.vertices, basis.origin, basis.u, basis.v):
            digest.update(arr.tobytes())
        for obs in obstacles:
            digest.update(obs.center.tobytes())
            digest.update(np.float64(obs.radius).tobytes())
    return digest.hexdigest()


def test_workstation_model_matches_the_recorded_digest():
    assert perception_digest() == PERCEPTION_DIGEST


# ---------------------------------------------------------------------------
# sample_placements


def test_samples_satisfy_stated_inequalities():
    polygon = table_polygon()
    obstacles = bench_obstacles()
    d_min, footprint = 0.03, 0.05
    placements = sample_placements(polygon, obstacles, d_min=d_min,
                                   footprint=footprint, n=50, rng_seed=1)
    assert len(placements) == 50
    for p in placements:
        assert polygon.contains(p.uv, eps=0.0)
        edge_d = scalar_edge_distance(polygon, p.uv)
        assert edge_d >= footprint
        gaps = [float(np.linalg.norm(p.uv - o.center)) - o.radius
                for o in obstacles]
        for gap, obs in zip(gaps, obstacles):
            assert gap >= footprint + d_min
        assert p.clearance == pytest.approx(min([edge_d] + gaps))


def test_sample_pose_sits_on_plane():
    polygon = table_polygon()
    (p,) = sample_placements(polygon, [], n=1, rng_seed=0)
    np.testing.assert_allclose(p.pose.position,
                               polygon.basis.to_world(p.uv), atol=1e-12)
    np.testing.assert_allclose(p.pose.rotation()[:, 2], [0, 0, 1], atol=1e-12)


def test_sampling_is_seeded_and_deterministic():
    polygon = table_polygon()
    a = sample_placements(polygon, bench_obstacles(), n=10, rng_seed=7)
    b = sample_placements(polygon, bench_obstacles(), n=10, rng_seed=7)
    np.testing.assert_array_equal(np.array([p.uv for p in a]),
                                  np.array([p.uv for p in b]))


def test_covered_table_raises_no_free_space():
    polygon = table_polygon()
    blocker = [Obstacle2(center=np.array([0.0, 0.0]), radius=0.65)]
    with pytest.raises(NoFreeSpace, match="in 10000 attempts"):
        sample_placements(polygon, blocker)
    # the 1 mm dense grid agrees there is nothing to find
    assert len(feasible_grid(polygon, blocker, 0.03, 0.05)) == 0


def test_grid_oracle_agrees_on_feasible_case():
    polygon = table_polygon()
    obstacles = bench_obstacles()
    free = feasible_grid(polygon, obstacles, 0.03, 0.05, step=0.002)
    assert len(free) > 0
    placements = sample_placements(polygon, obstacles, n=5, rng_seed=3)
    assert len(placements) == 5


def test_larger_separation_tightens_the_feasible_set():
    polygon = table_polygon()
    obstacles = bench_obstacles()
    strict = sample_placements(polygon, obstacles, d_min=0.08, n=20,
                               rng_seed=5)
    for p in strict:
        for o in obstacles:
            assert np.linalg.norm(p.uv - o.center) >= o.radius + 0.05 + 0.03


def test_sample_rejects_bad_arguments():
    polygon = table_polygon()
    with pytest.raises(ValueError, match="non-negative"):
        sample_placements(polygon, [], d_min=-0.01)
    with pytest.raises(ValueError, match="positive"):
        sample_placements(polygon, [], n=0)
    # a NaN margin would compare false against every distance
    with pytest.raises(ValueError, match="non-negative"):
        sample_placements(polygon, [], footprint=float("nan"))


def placement_bytes(placements):
    return [(p.uv.tobytes(), type(p.clearance),
             np.float64(p.clearance).tobytes(), p.pose.position.tobytes(),
             p.pose.quat_xyzw.tobytes()) for p in placements]


def assert_matches_reference(polygon, obstacles, **kw):
    """The sampler's placements, or its NoFreeSpace, equal the reference's
    with the same draw budget, placement.MAX_ATTEMPTS (patched by a test)."""
    budget = placement.MAX_ATTEMPTS
    try:
        want = placement_bytes(reference_sample(polygon, obstacles,
                                                max_attempts=budget, **kw))
    except NoFreeSpace as exc:
        with pytest.raises(NoFreeSpace) as got:
            sample_placements(polygon, obstacles, **kw)
        assert str(got.value) == str(exc)
        return 0
    got = placement_bytes(sample_placements(polygon, obstacles, **kw))
    assert got == want
    return len(got)


@pytest.mark.parametrize("scan_seed", [0, 1, 2])
def test_sampler_matches_reference_on_seeded_scans(scan_seed):
    sc = load_scenario("src/workbot/data/workstation.json")
    cloud, _ = gen_workstation(replace(sc, seed=scan_seed))
    _, polygon, obstacles = workstation_model(cloud)
    for rng_seed in range(4):
        for n in (4, 20):
            assert assert_matches_reference(polygon, obstacles, n=n,
                                            rng_seed=rng_seed) == n


def test_sampler_matches_reference_on_crowded_and_degenerate_polygons():
    # the second polygon repeats a vertex, so one of its edges has length 0
    rect = table_polygon()
    verts = np.insert(rect.vertices, 1, rect.vertices[1], axis=0)
    repeated = Polygon2(vertices=verts, basis=rect.basis)
    for polygon in (rect, repeated):
        for rng_seed in range(5):
            assert assert_matches_reference(polygon, crowded_obstacles(),
                                            n=20, rng_seed=rng_seed) == 20


def test_sampler_matches_reference_when_draws_run_out(monkeypatch):
    # an attempt budget that is not a whole number of blocks, and more
    # placements asked for than the budget can supply
    polygon = table_polygon()
    monkeypatch.setattr(placement, "MAX_ATTEMPTS", 2 * _DRAW_BLOCK + 7)
    kept = assert_matches_reference(polygon, crowded_obstacles(), n=300,
                                    rng_seed=3)
    assert 0 < kept < 300
    monkeypatch.setattr(placement, "MAX_ATTEMPTS", 500)
    assert assert_matches_reference(polygon, bench_obstacles(), n=300,
                                    rng_seed=1) < 300
    monkeypatch.setattr(placement, "MAX_ATTEMPTS", 3)
    assert assert_matches_reference(polygon, [], n=5) <= 3


def test_sampler_matches_reference_on_no_free_space(monkeypatch):
    blocker = [Obstacle2(center=np.array([0.0, 0.0]), radius=0.65)]
    monkeypatch.setattr(placement, "MAX_ATTEMPTS", _DRAW_BLOCK + 1)
    assert assert_matches_reference(table_polygon(), blocker) == 0


@pytest.mark.parametrize("shape", [(500, 2), (200, 7, 2), (300, 3)])
def test_rowdot_is_bit_equal_to_a_left_to_right_sum(shape):
    rng = np.random.default_rng(11)
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3, size=shape)
    b = rng.normal(size=shape)
    rows_a = a.reshape(-1, shape[-1]).tolist()
    rows_b = b.reshape(-1, shape[-1]).tolist()

    def left_to_right(x, y):
        total = x[0] * y[0]
        for xi, yi in zip(x[1:], y[1:]):
            total += xi * yi
        return total

    want = np.array([left_to_right(x, y) for x, y in zip(rows_a, rows_b)])
    assert _rowdot(a, b).reshape(-1).tobytes() == want.tobytes()
    norms = np.array([math.sqrt(left_to_right(x, x)) for x in rows_a])
    assert np.sqrt(_rowdot(a, a)).reshape(-1).tobytes() == norms.tobytes()


def test_edge_distance_takes_a_point_or_a_batch():
    rect = table_polygon()
    verts = np.insert(rect.vertices, 2, rect.vertices[2], axis=0)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.6, 0.6, size=(300, 2))
    for polygon in (rect, Polygon2(vertices=verts, basis=rect.basis)):
        batch = polygon.edge_distance(pts)
        assert batch.shape == (300,)
        one = polygon.edge_distance(pts[0])
        assert isinstance(one, float)
        assert one == batch[0]
        want = np.array([scalar_edge_distance(polygon, p) for p in pts])
        assert batch.tobytes() == want.tobytes()


def test_obstacle_and_pose_validation():
    with pytest.raises(ValueError, match="radius"):
        Obstacle2(center=np.zeros(2), radius=-0.1)
    with pytest.raises(ValueError, match="clearance"):
        PlacementPose(pose=Pose.identity(), uv=np.zeros(2), clearance=-1.0)


# ---------------------------------------------------------------------------
# rank_placements


def fake_solver_by_u(monkeypatch) -> list:
    """Batched IK stub whose iteration count grows with |u|; u > 0.25 is
    unreachable.  Returns the list of target lists it was called with."""
    calls = []

    def solve_many(chain, targets, q0, **kw):
        calls.append(list(targets))
        out = []
        for target in targets:
            u = float(target.position[0])
            out.append(NoConvergence("stub: too far") if u > 0.25 else
                       IkResult(q=np.zeros(5), iterations=int(abs(u) * 100),
                                pos_err=0.0, ang_err=0.0))
        return out

    monkeypatch.setattr("workbot.kinematics.ik_dls_many", solve_many)
    return calls


def test_rank_orders_by_reach_then_clearance(monkeypatch):
    calls = fake_solver_by_u(monkeypatch)
    polygon = table_polygon()
    chain = load_chain("src/workbot/data/chain_5dof.json")
    cands = sample_placements(polygon, bench_obstacles(), n=20, rng_seed=2)
    ranked = rank_placements(chain, Pose.identity(), cands, np.zeros(5),
                             polygon)
    # one batched solve, one target per candidate, in candidate order
    assert len(calls) == 1 and len(calls[0]) == len(cands)
    for cand, target in zip(cands, calls[0]):
        assert (target.position[:2] == cand.pose.position[:2]).all()
    assert len(ranked) == len(cands)
    keys = [(-c.reach_score, -c.clearance, float(c.uv[0]), float(c.uv[1]))
            for c in ranked]
    assert keys == sorted(keys)
    # unreachable candidates carry score 0 and sink to the tail
    scores = [c.reach_score for c in ranked]
    assert scores == sorted(scores, reverse=True)
    assert any(s == 0.0 for s in scores)
    assert ranked[0].reach_score > 0.0
    # each score is the stub's verdict on that candidate's own target
    for c in ranked:
        u = float(c.pose.position[0])
        assert c.reach_score == (0.0 if u > 0.25
                                 else 1.0 / (1.0 + int(abs(u) * 100)))


def test_rank_all_unreachable_raises(monkeypatch):
    def solve_many(chain, targets, q0, **kw):
        return [NoConvergence("stub: nothing works") for _ in targets]

    monkeypatch.setattr("workbot.kinematics.ik_dls_many", solve_many)
    polygon = table_polygon()
    chain = load_chain("src/workbot/data/chain_5dof.json")
    cands = sample_placements(polygon, [], n=5, rng_seed=0)
    with pytest.raises(NoReachablePlacement, match="none of the 5"):
        rank_placements(chain, Pose.identity(), cands, np.zeros(5), polygon)


def test_rank_rejects_empty_candidates():
    chain = load_chain("src/workbot/data/chain_5dof.json")
    with pytest.raises(ValueError, match="no candidates"):
        rank_placements(chain, Pose.identity(), [], np.zeros(5),
                        table_polygon())


def test_rank_with_real_chain_reaches_something():
    sc = load_scenario("src/workbot/data/workstation.json")
    cloud, _ = gen_workstation(sc)
    plane, polygon, obstacles = workstation_model(cloud)
    cands = sample_placements(polygon, obstacles, n=20, rng_seed=0)
    chain = load_chain("src/workbot/data/chain_5dof.json")
    base = Pose(np.array([0.0, 0.0, 0.55]), np.array([0.0, 0.0, 0.0, 1.0]))
    ranked = rank_placements(chain, base, cands, np.zeros(5), polygon)
    assert ranked[0].reach_score > 0.0
    scores = [c.reach_score for c in ranked]
    assert scores == sorted(scores, reverse=True)
