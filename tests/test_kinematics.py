"""Forward kinematics against an elementary-matrix oracle, and IK round trips."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from workbot import kinematics
from workbot.geometry import Pose
from workbot.kinematics import (DhJoint, KinematicChain, IkResult,
                                NoConvergence, _central_jacobian_t, _dh_table,
                                _fk, _pose_errors, _stencil_errors, ik_dls,
                                ik_dls_many, load_chain, so3_log)

CHAIN_PATH = "src/workbot/data/chain_5dof.json"


def bundled_chain() -> KinematicChain:
    return load_chain(CHAIN_PATH)


def planar_chain(l1: float = 0.3, l2: float = 0.2) -> KinematicChain:
    """Five coplanar z-axis joints; only the first two carry link length."""
    row = dict(alpha=0.0, d=0.0, theta_offset=0.0, lo=-3.1, hi=3.1)
    joints = (DhJoint(a=l1, **row), DhJoint(a=l2, **row),
              DhJoint(a=0.0, **row), DhJoint(a=0.0, **row),
              DhJoint(a=0.0, **row))
    return KinematicChain(joints=joints)


def rot_z(t):
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s, 0, 0], [s, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.0]])


def rot_x(t):
    c, s = math.cos(t), math.sin(t)
    return np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1.0]])


def trans(x, y, z):
    m = np.eye(4)
    m[:3, 3] = (x, y, z)
    return m


def oracle_fk(chain: KinematicChain, q) -> np.ndarray:
    """Compose each joint as Rz(theta) Tz(d) Tx(a) Rx(alpha) from elementary
    matrices, never reusing the library's fused single-matrix form."""
    t = chain.base.matrix()
    for joint, qi in zip(chain.joints, q):
        t = (t @ rot_z(qi + joint.theta_offset) @ trans(0, 0, joint.d)
             @ trans(joint.a, 0, 0) @ rot_x(joint.alpha))
    return t


def oracle_pose(chain: KinematicChain, q) -> Pose:
    """The end-effector pose that oracle_fk gives, as an IK target."""
    t = oracle_fk(chain, q)
    return Pose.from_rotation(t[:3, :3], t[:3, 3])


def library_fk(chain: KinematicChain, q) -> np.ndarray:
    """The end-effector matrix of the FK that the IK solver runs."""
    qs = np.asarray(q, dtype=float).reshape(1, 5)
    return _fk(chain.base.matrix(), _dh_table(chain), qs)[0]


def inside_limits(chain: KinematicChain, q) -> bool:
    return all(j.lo <= qi <= j.hi for j, qi in zip(chain.joints, q))


# ---------------------------------------------------------------------------
# forward kinematics


def test_fk_matches_elementary_matrix_oracle():
    chain = bundled_chain()
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = rng.uniform([j.lo for j in chain.joints],
                        [j.hi for j in chain.joints])
        np.testing.assert_allclose(library_fk(chain, q), oracle_fk(chain, q),
                                   atol=1e-12)


def test_fk_planar_two_link_analytic():
    l1, l2 = 0.3, 0.2
    chain = planar_chain(l1, l2)
    for t1, t2 in [(0.0, 0.0), (0.5, -0.3), (1.2, 0.7), (-0.9, 1.4)]:
        position = library_fk(chain, [t1, t2, 0.0, 0.0, 0.0])[:3, 3]
        expected = np.array([l1 * math.cos(t1) + l2 * math.cos(t1 + t2),
                             l1 * math.sin(t1) + l2 * math.sin(t1 + t2),
                             0.0])
        np.testing.assert_allclose(position, expected, atol=1e-12)


def test_fk_base_offset_shifts_world_pose():
    chain = bundled_chain()
    q = [0.2, 0.1, -0.5, 0.3, 0.7]
    base = Pose.from_rotation(rot_z(0.8)[:3, :3], [0.4, -0.2, 0.55])
    shifted = chain.with_base(base)
    np.testing.assert_allclose(library_fk(shifted, q),
                               base.matrix() @ library_fk(chain, q),
                               atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1.5, 1.5), min_size=5, max_size=5))
def test_fk_rotation_is_special_orthogonal(q):
    r = library_fk(bundled_chain(), q)[:3, :3]
    np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-10)
    assert math.isclose(np.linalg.det(r), 1.0, abs_tol=1e-10)


# ---------------------------------------------------------------------------
# chain construction


def test_load_chain_round_trip(tmp_path):
    rows = [{"a": 0.1 * i, "alpha": 0.2, "d": 0.05, "theta_offset": 0.0,
             "lo": -1.0, "hi": 1.0} for i in range(5)]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(rows))
    chain = load_chain(path)
    assert len(chain.joints) == 5
    assert chain.joints[3].a == pytest.approx(0.3)
    assert chain.base.position == pytest.approx([0.0, 0.0, 0.0])


# explicit ids keep the test names these cases had before the messages
# took the shared decoder wording
@pytest.mark.parametrize("content, message", [
    ({"joints": []}, "expected a JSON array"),
    pytest.param([[0.0] * 6] * 5,
                 "joint 0: expected a JSON object, got [0.0, 0.0, 0.0, 0.0, "
                 "0.0, 0.0]", id="content1-joint 0 is not a JSON object"),
    pytest.param([{"a": "x", "alpha": 0, "d": 0, "theta_offset": 0, "lo": -1,
                   "hi": 1}],
                 "joint 0: 'a' must be a finite number, got 'x'",
                 id="content2-joint 0 field 'a' must be a finite number"),
    pytest.param([{"a": 0, "alpha": 0, "d": 0, "theta_offset": 0, "lo": -1}],
                 "joint 0: 'hi' must be a finite number, got None",
                 id="content3-joint 0 field 'hi' must be a finite number"),
    pytest.param([{"a": True, "alpha": 0, "d": 0, "theta_offset": 0,
                   "lo": -1, "hi": 1}],
                 "joint 0: 'a' must be a finite number, got True",
                 id="content4-joint 0 field 'a' must be a finite number"),
])
def test_load_chain_rejects_malformed_json(tmp_path, content, message):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(content))
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
        load_chain(path)


def test_chain_rejects_wrong_joint_count():
    row = dict(a=0.0, alpha=0.0, d=0.0, theta_offset=0.0, lo=-1.0, hi=1.0)
    with pytest.raises(ValueError, match="5 joints"):
        KinematicChain(joints=(DhJoint(**row), DhJoint(**row)))


def test_joint_rejects_inverted_limits():
    with pytest.raises(ValueError, match="inverted"):
        DhJoint(a=0.0, alpha=0.0, d=0.0, theta_offset=0.0, lo=1.0, hi=-1.0)


# ---------------------------------------------------------------------------
# rotation log, against scipy's quaternion route


def random_axes(rng, n):
    axes = rng.normal(size=(n, 3))
    return axes / np.linalg.norm(axes, axis=1, keepdims=True)


def test_so3_log_of_identity_is_zero():
    assert np.array_equal(so3_log(np.eye(3)), np.zeros(3))


@pytest.mark.parametrize("angle", [1.0, 1e-1, 1e-3, 1e-6, 1e-9,
                                   math.pi / 2, math.pi - 1e-3,
                                   math.pi - 1e-6])
def test_so3_log_matches_scipy_rotvec(angle):
    rng = np.random.default_rng(17)
    mats = Rotation.from_rotvec(angle * random_axes(rng, 50)).as_matrix()
    ref = Rotation.from_matrix(mats).as_rotvec()
    got = so3_log(mats)
    assert got.shape == (50, 3)
    assert np.max(np.linalg.norm(got - ref, axis=1)) <= 1e-12 * angle


def test_so3_log_of_random_rotations_matches_scipy():
    mats = Rotation.random(500, rng=23).as_matrix()
    np.testing.assert_allclose(so3_log(mats),
                               Rotation.from_matrix(mats).as_rotvec(),
                               rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(so3_log(mats[7]),
                               Rotation.from_matrix(mats[7]).as_rotvec(),
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("axis", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                  (0.0, 0.0, 1.0), (1.0, -2.0, 3.0)])
def test_so3_log_at_exactly_pi(axis):
    a = np.asarray(axis) / np.linalg.norm(axis)
    mat = 2.0 * np.outer(a, a) - np.eye(3)      # half turn about a
    got = so3_log(mat)
    ref = Rotation.from_matrix(mat).as_rotvec()
    # +pi a and -pi a are the same rotation; either answer is right
    assert min(np.linalg.norm(got - ref), np.linalg.norm(got + ref)) <= 1e-12
    assert abs(np.linalg.norm(got) - math.pi) <= 1e-12


# ---------------------------------------------------------------------------
# pose error and its Jacobian


def oracle_pose_error(target: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Pose error from 4 x 4 matrices: the world position delta, then
    scipy's rotation vector of current^T target, weighted (1, 1, 0.2)."""
    r_err = Rotation.from_matrix(current[:3, :3].T @ target[:3, :3])
    return np.concatenate([target[:3, 3] - current[:3, 3],
                           np.array([1.0, 1.0, 0.2]) * r_err.as_rotvec()])


def library_pose_error(target: Pose, current: Pose) -> np.ndarray:
    """The pose error that the IK solver drives to zero."""
    return _pose_errors(target.position, target.rotation(), current.matrix())


def test_pose_error_matches_scipy_reference():
    rng = np.random.default_rng(29)
    quats = Rotation.random(40, rng=31).as_quat()
    for i in range(0, 40, 2):
        cur = Pose(rng.uniform(-1.0, 1.0, 3), quats[i])
        tgt = Pose(rng.uniform(-1.0, 1.0, 3), quats[i + 1])
        np.testing.assert_allclose(library_pose_error(tgt, cur),
                                   oracle_pose_error(tgt.matrix(),
                                                     cur.matrix()),
                                   rtol=0.0, atol=1e-12)


def test_pose_error_zero_for_identical_poses():
    pose = oracle_pose(bundled_chain(), [0.3, 0.2, -0.4, 0.1, 0.5])
    np.testing.assert_allclose(library_pose_error(pose, pose), np.zeros(6),
                               atol=1e-12)


def test_pose_error_pure_translation():
    cur = Pose.identity()
    tgt = Pose(np.array([0.1, -0.2, 0.3]), np.array([0.0, 0.0, 0.0, 1.0]))
    err = library_pose_error(tgt, cur)
    np.testing.assert_allclose(err[:3], [0.1, -0.2, 0.3], atol=1e-12)
    np.testing.assert_allclose(err[3:], np.zeros(3), atol=1e-12)


def test_pose_error_weights_rotation_log(monkeypatch):
    angle = 0.6
    cur = Pose.identity()
    tgt = Pose.from_rotation(rot_z(angle)[:3, :3], [0.0, 0.0, 0.0])
    err = library_pose_error(tgt, cur)
    np.testing.assert_allclose(err[3:], [0.0, 0.0, 0.2 * angle], atol=1e-12)
    # the weights are read when the call is made
    monkeypatch.setattr(kinematics, "_ROT_WEIGHTS", np.ones(3))
    unweighted = library_pose_error(tgt, cur)
    np.testing.assert_allclose(unweighted[3:], [0.0, 0.0, angle], atol=1e-12)


def central_jacobian(chain: KinematicChain, target: np.ndarray,
                     q) -> np.ndarray:
    """The solver's 6 x 5 central-difference Jacobian of the pose error at
    q, towards the 4 x 4 target matrix."""
    errs = _stencil_errors(chain.base.matrix(), _dh_table(chain),
                           target[:3, 3], target[:3, :3],
                           np.asarray(q, dtype=float).reshape(1, 5))
    return _central_jacobian_t(errs)[0].T


def forward_jacobian(chain: KinematicChain, target: np.ndarray, q,
                     h: float = 1e-7) -> np.ndarray:
    """Forward differences of oracle_pose_error over oracle_fk."""
    e0 = oracle_pose_error(target, oracle_fk(chain, q))
    cols = []
    for j in range(5):
        qp = np.array(q, dtype=float)
        qp[j] += h
        cols.append((oracle_pose_error(target, oracle_fk(chain, qp)) - e0) / h)
    return np.column_stack(cols)


def test_error_jacobian_matches_forward_difference():
    chain = bundled_chain()
    q = np.array([0.4, -0.3, 0.8, 0.2, -0.6])
    target = oracle_fk(chain, [0.1, 0.1, 0.1, 0.1, 0.1])
    jac = central_jacobian(chain, target, q)
    assert jac.shape == (6, 5)
    np.testing.assert_allclose(jac, forward_jacobian(chain, target, q),
                               atol=1e-4)


# ---------------------------------------------------------------------------
# inverse kinematics


def random_targets(chain, n, seed, margin=0.3):
    rng = np.random.default_rng(seed)
    lo = np.array([j.lo for j in chain.joints]) + margin
    hi = np.array([j.hi for j in chain.joints]) - margin
    return [rng.uniform(lo, hi) for _ in range(n)]


def test_ik_round_trips_reachable_targets():
    chain = bundled_chain()
    rng = np.random.default_rng(11)
    for q_true in random_targets(chain, 20, seed=3):
        target = oracle_pose(chain, q_true)
        q0 = np.clip(q_true + rng.uniform(-0.2, 0.2, size=5), *chain.limits())
        res = ik_dls(chain, target, q0=q0)
        assert res.pos_err <= 1e-3
        assert res.ang_err <= math.radians(0.5)
        reached = oracle_fk(chain, res.q)
        assert np.linalg.norm(reached[:3, 3] - target.position) <= 1e-3
        assert inside_limits(chain, res.q)


def test_ik_zero_error_start_converges_immediately():
    chain = bundled_chain()
    q = np.array([0.5, -0.2, 0.6, 0.3, -0.4])
    res = ik_dls(chain, oracle_pose(chain, q), q0=q)
    assert res.iterations == 0
    np.testing.assert_allclose(res.q, q, atol=1e-12)


def test_ik_unreachable_raises_with_diagnostics(monkeypatch):
    chain = bundled_chain()
    target = Pose(np.array([2.0, 0.0, 0.3]), np.array([0.0, 0.0, 0.0, 1.0]))
    monkeypatch.setattr(kinematics, "IK_MAX_ITERS", 40)
    with pytest.raises(NoConvergence, match="in 40 iterations") as exc:
        ik_dls(chain, target, q0=np.zeros(5))
    err = exc.value
    assert err.iterations == 40
    assert math.isfinite(err.pos_err) and err.pos_err > 1e-3
    assert err.best_q is not None and inside_limits(chain, err.best_q)


def test_ik_result_is_best_not_last_on_failure(monkeypatch):
    # the first seeded target, in a +-0.6 m box with the identity
    # orientation, and budget m whose iterate m from q0 = 0 is no better
    # than the best before it: iterate m runs at budget m, yet the failure
    # must report what the failure at budget m - 1 does, and a solver that
    # kept its last iterate would not
    chain = bundled_chain()
    identity = np.array([0.0, 0.0, 0.0, 1.0])
    rng = np.random.default_rng(17)
    for _ in range(20):
        target = Pose(rng.uniform(-0.6, 0.6, 3), identity)
        failures = []
        for budget in range(12):
            monkeypatch.setattr(kinematics, "IK_MAX_ITERS", budget)
            try:
                ik_dls(chain, target, q0=np.zeros(5))
            except NoConvergence as err:
                failures.append(err)
            else:
                break
        same = [(before, after)
                for before, after in zip(failures, failures[1:])
                if (after.pos_err, after.ang_err) == (before.pos_err,
                                                       before.ang_err)]
        if same:
            break
    else:
        pytest.fail("no seeded target has an iterate worse than the best")
    before, after = same[0]
    assert after.best_q.tobytes() == before.best_q.tobytes()
    # the errors reported are those of best_q, by the oracle
    err = oracle_pose_error(target.matrix(), oracle_fk(chain, after.best_q))
    assert after.pos_err == pytest.approx(np.linalg.norm(err[:3]), abs=1e-12)
    assert after.ang_err == pytest.approx(np.linalg.norm(err[3:]), abs=1e-12)
    # and the best never gets worse as the budget grows
    sums = [f.pos_err + f.ang_err for f in failures]
    assert sums == sorted(sums, reverse=True)


# iteration counts (None: NoConvergence) of ik_dls from q0 = 0 on targets
# at q uniform in the joint limits from default_rng(5), recorded with the
# Pose/scipy-Rotation solver this matrix-space solver replaced on the
# library's own FK targets; the oracle's targets give the same counts
PINNED_ITERATIONS = [None, None, 25, None, 14, None, 100, 17, 14, 12,
                     None, 14, None, 29, 26, 11, 39, 31, None, None]


def test_ik_iteration_counts_are_pinned():
    chain = bundled_chain()
    lo, hi = chain.limits()
    rng = np.random.default_rng(5)
    counts = []
    for _ in range(len(PINNED_ITERATIONS)):
        target = oracle_pose(chain, rng.uniform(lo, hi))
        try:
            counts.append(ik_dls(chain, target, q0=np.zeros(5)).iterations)
        except NoConvergence as err:
            assert err.iterations == 100
            counts.append(None)
    assert counts == PINNED_ITERATIONS


# ---------------------------------------------------------------------------
# lockstep IK against a frozen per-target solver


def frozen_ik_dls(chain, target, q0, max_iters=100):
    """The per-target damped-least-squares solver that ik_dls_many replaced,
    copied with the FK, rotation log and Jacobian it ran on: one target,
    one 11-point stencil and one 5 x 5 solve per iteration."""
    stencil = np.vstack([np.zeros(5), np.eye(5), -np.eye(5)])
    a, alpha, d, off = np.array([(j.a, j.alpha, j.d, j.theta_offset)
                                 for j in chain.joints]).T
    ca, sa = np.cos(alpha), np.sin(alpha)
    base = chain.base.matrix()
    p_target, r_target = target.position, target.rotation()
    weights = np.array([1.0, 1.0, 0.2])
    damping = (0.1 * 0.1) * np.eye(5)    # not 0.01: one ulp above it

    def log(flat):
        v = 0.5 * np.stack([flat[:, 2, 1] - flat[:, 1, 2],
                            flat[:, 0, 2] - flat[:, 2, 0],
                            flat[:, 1, 0] - flat[:, 0, 1]], axis=1)
        c = 0.5 * (flat[:, 0, 0] + flat[:, 1, 1] + flat[:, 2, 2] - 1.0)
        s = np.linalg.norm(v, axis=1)
        angle = np.arctan2(s, c)
        out = v * np.divide(angle, s, out=np.ones_like(s),
                            where=s > 0.0)[:, None]
        obtuse = np.flatnonzero(c < 0.0)
        if obtuse.size:
            ro, co = flat[obtuse], c[obtuse]
            sym = (0.5 * (ro + ro.transpose(0, 2, 1))
                   - co[:, None, None] * np.eye(3))
            k = np.argmax(np.diagonal(sym, axis1=1, axis2=2), axis=1)
            rows = np.arange(obtuse.size)
            axis = (sym[rows, :, k]
                    / np.sqrt(sym[rows, k, k] * (1.0 - co))[:, None])
            sign = np.where(np.sum(axis * v[obtuse], axis=1) < 0.0, -1.0, 1.0)
            out[obtuse] = (sign * angle[obtuse])[:, None] * axis
        return out

    def stencil_errors(q):
        theta = q + 1e-6 * stencil + off
        ct, st_ = np.cos(theta), np.sin(theta)
        m = np.zeros(theta.shape + (4, 4))
        m[..., 0, 0], m[..., 0, 1], m[..., 0, 2], m[..., 0, 3] = (
            ct, -st_ * ca, st_ * sa, a * ct)
        m[..., 1, 0], m[..., 1, 1], m[..., 1, 2], m[..., 1, 3] = (
            st_, ct * ca, -ct * sa, a * st_)
        m[..., 2, 1], m[..., 2, 2], m[..., 2, 3], m[..., 3, 3] = sa, ca, d, 1.0
        t = base
        for j in range(5):
            t = t @ m[:, j]
        r_err = t[:, :3, :3].transpose(0, 2, 1) @ r_target
        return np.concatenate([p_target - t[:, :3, 3],
                               weights * log(r_err)], axis=1)

    lo, hi = chain.limits()
    q = np.clip(np.asarray(q0, dtype=float).reshape(5), lo, hi)
    best = (math.inf, math.inf, q)
    for it in range(max_iters + 1):
        errs = stencil_errors(q)
        err = errs[0]
        pos_err = float(np.linalg.norm(err[:3]))
        ang_err = float(np.linalg.norm(err[3:]))
        if pos_err + ang_err < best[0] + best[1]:
            best = (pos_err, ang_err, q.copy())
        if pos_err <= 1e-3 and ang_err <= math.radians(0.5):
            return IkResult(q=q, iterations=it, pos_err=pos_err,
                            ang_err=ang_err)
        if it == max_iters:
            break
        jac = (errs[1:6] - errs[6:]).T / 2e-6
        dq = np.linalg.solve(jac.T @ jac + damping, -jac.T @ err)
        q = np.clip(q + dq, lo, hi)
    raise NoConvergence(
        f"no convergence in {max_iters} iterations "
        f"(best position error {best[0]:.3e} m, orientation {best[1]:.3e} rad)",
        best_q=best[2], pos_err=best[0], ang_err=best[1], iterations=max_iters)


def outcome(res) -> tuple:
    """Everything a solve reports, floats as bits."""
    if isinstance(res, NoConvergence):
        return ("failed", res.iterations, res.best_q.tobytes(),
                float(res.pos_err).hex(), float(res.ang_err).hex(), str(res))
    return ("solved", res.iterations, res.q.tobytes(),
            float(res.pos_err).hex(), float(res.ang_err).hex())


def solve_alone(solver, *args) -> tuple:
    try:
        return outcome(solver(*args))
    except NoConvergence as err:
        return outcome(err)


def mixed_targets(chain, seed) -> tuple[list[Pose], np.ndarray]:
    """Seeded targets from one start: near ones that converge, far ones
    that never do, and ones whose joint angles lie past a limit, so the
    iterates are clamped there."""
    rng = np.random.default_rng(seed)
    lo, hi = chain.limits()
    q0 = rng.uniform(lo + 0.3, hi - 0.3)
    targets = [oracle_pose(chain, np.clip(q0 + rng.uniform(-0.4, 0.4, 5),
                                          lo, hi))
               for _ in range(4)]
    targets += [Pose(rng.uniform(1.5, 2.5, 3), (0.0, 0.0, 0.0, 1.0))
                for _ in range(2)]
    for j in rng.choice(5, size=3, replace=False):
        q = q0.copy()
        q[j] = hi[j] + 0.4 if rng.random() < 0.5 else lo[j] - 0.4
        targets.append(oracle_pose(chain, q))
    return targets, q0


@pytest.mark.parametrize("max_iters", [100, 2, 0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lockstep_ik_matches_the_frozen_per_target_solver(seed, max_iters,
                                                         monkeypatch):
    chain = bundled_chain().with_base(
        Pose(np.array([0.1, -0.2, 0.5]), (0.0, 0.0, 0.38268343, 0.92387953)))
    targets, q0 = mixed_targets(chain, seed)
    want = [solve_alone(frozen_ik_dls, chain, t, q0, max_iters)
            for t in targets]
    # the row at 100 runs at the shipped budget, the others patch it
    if max_iters != kinematics.IK_MAX_ITERS:
        monkeypatch.setattr(kinematics, "IK_MAX_ITERS", max_iters)
    got = [outcome(r) for r in ik_dls_many(chain, targets, q0)]
    assert got == want
    assert [solve_alone(ik_dls, chain, t, q0) for t in targets] == want
    if max_iters == 100:
        kinds = [w[0] for w in want]
        assert "solved" in kinds and "failed" in kinds


def test_lockstep_ik_clamps_at_the_limits_like_the_frozen_solver():
    chain = bundled_chain()
    lo, hi = chain.limits()
    q = (lo + hi) / 2.0
    q[1] = hi[1] + 0.5
    target = oracle_pose(chain, q)
    # the start lies outside the limits too, and is clipped first
    q0 = np.where(np.arange(5) == 1, hi + 1.0, q)
    want = solve_alone(frozen_ik_dls, chain, target, q0, 100)
    (res,) = ik_dls_many(chain, [target], q0)
    assert outcome(res) == want
    final = res.best_q if isinstance(res, NoConvergence) else res.q
    assert inside_limits(chain, final) and final[1] == hi[1]


def test_lockstep_rows_do_not_depend_on_their_batch():
    chain = bundled_chain()
    targets, q0 = mixed_targets(chain, 7)
    alone = [outcome(ik_dls_many(chain, [t], q0)[0]) for t in targets]
    rng = np.random.default_rng(7)
    for _ in range(3):
        order = rng.permutation(len(targets))
        got = ik_dls_many(chain, [targets[i] for i in order], q0)
        assert [outcome(r) for r in got] == [alone[i] for i in order]
    # a batch of one target repeated is that target's solve, row by row
    assert ([outcome(r) for r in ik_dls_many(chain, targets[:1] * 3, q0)]
            == alone[:1] * 3)


def test_lockstep_ik_of_no_targets_is_empty():
    assert ik_dls_many(bundled_chain(), [], np.zeros(5)) == []
