"""Denavit-Hartenberg chains, forward kinematics and damped-least-squares IK.

The chain is pure data (loaded from JSON), so swapping arms is a config
change.  IK works on a 6-vector pose error whose orientation part is the
rotation log expressed in the end-effector frame; the wrist-roll component a
5-DoF arm cannot control is down-weighted rather than ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import WorkbotError
from .geometry import Pose
from .jsonio import construct, decode, load_json

N_JOINTS = 5

IK_TOL_POS = 1e-3                  # m, see ik_dls
IK_TOL_ANG = math.radians(0.5)
IK_DAMPING = 0.1                   # lambda of the damped least-squares step
# weights of the orientation error about the end-effector x, y, z axes: the
# wrist roll a 5-DoF arm cannot control counts a fifth
DEFAULT_ROT_WEIGHTS = (1.0, 1.0, 0.2)
FD_STEP = 1e-6                     # central-difference step, rad

_ROT_WEIGHTS = np.asarray(DEFAULT_ROT_WEIGHTS, dtype=float)
_DAMPING = (IK_DAMPING * IK_DAMPING) * np.eye(N_JOINTS)


class KinematicsError(WorkbotError):
    pass


class NoConvergence(KinematicsError):
    def __init__(self, msg: str, best_q=None, pos_err: float = math.inf,
                 ang_err: float = math.inf, iterations: int = 0):
        super().__init__(msg)
        self.best_q = best_q
        self.pos_err = pos_err
        self.ang_err = ang_err
        self.iterations = iterations


@dataclass(frozen=True)
class DhJoint:
    """One revolute joint: classic DH row plus position limits (radians)."""

    a: float
    alpha: float
    d: float
    theta_offset: float
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"joint limits inverted: [{self.lo}, {self.hi}]")


@dataclass(frozen=True, eq=False)
class KinematicChain:
    joints: tuple[DhJoint, ...]
    base: Pose = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.base is None:
            object.__setattr__(self, "base", Pose.identity())
        object.__setattr__(self, "joints", tuple(self.joints))
        if len(self.joints) != N_JOINTS:
            raise ValueError(f"chain must have {N_JOINTS} joints, "
                             f"got {len(self.joints)}")

    def limits(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper joint limits as arrays."""
        return (np.array([j.lo for j in self.joints]),
                np.array([j.hi for j in self.joints]))

    def clamp(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float).reshape(N_JOINTS)
        return np.clip(q, *self.limits())

    def within_limits(self, q, tol: float = 0.0) -> bool:
        q = np.asarray(q, dtype=float).reshape(N_JOINTS)
        return all(j.lo - tol <= qi <= j.hi + tol
                   for j, qi in zip(self.joints, q))

    def with_base(self, base: Pose) -> "KinematicChain":
        return replace(self, base=base)


def load_chain(path) -> KinematicChain:
    """Chain from a JSON array of {a, alpha, d, theta_offset, lo, hi} rows.

    Malformed files raise ValueError naming the path.
    """
    joints = tuple(decode(DhJoint, row, f"{path}: joint {i}")
                   for i, row in enumerate(load_json(path, list)))
    return construct(KinematicChain, path, joints=joints)


def _dh_table(chain: KinematicChain) -> tuple[np.ndarray, ...]:
    """Per-joint DH constants as arrays: (a, cos alpha, sin alpha, d, offset)."""
    a, alpha, d, off = np.array([(j.a, j.alpha, j.d, j.theta_offset)
                                 for j in chain.joints]).T
    return a, np.cos(alpha), np.sin(alpha), d, off


def _fk(base: np.ndarray, dh: tuple[np.ndarray, ...],
        qs: np.ndarray) -> np.ndarray:
    """End-effector matrices (n, 4, 4) for joint-angle rows qs (n, 5)."""
    a, ca, sa, d, off = dh
    theta = qs + off
    ct, st = np.cos(theta), np.sin(theta)
    m = np.zeros(theta.shape + (4, 4))
    m[..., 0, 0] = ct
    m[..., 0, 1] = -st * ca
    m[..., 0, 2] = st * sa
    m[..., 0, 3] = a * ct
    m[..., 1, 0] = st
    m[..., 1, 1] = ct * ca
    m[..., 1, 2] = -ct * sa
    m[..., 1, 3] = a * st
    m[..., 2, 1] = sa
    m[..., 2, 2] = ca
    m[..., 2, 3] = d
    m[..., 3, 3] = 1.0
    t = base
    for j in range(N_JOINTS):
        t = t @ m[:, j]
    return t


def so3_log(rot) -> np.ndarray:
    """Rotation vector (unit axis times angle in [0, pi]) of rotation matrices.

    Closed form, batched over leading axes.  v, the axial vector of the
    antisymmetric part, is sin(angle) * axis, and the angle is
    atan2(|v|, (trace - 1) / 2), accurate over the whole range.  Up to pi/2
    the axis is v / |v|; beyond it |v| shrinks towards 0, so the axis comes
    from the symmetric part, (1 - cos) * axis axis^T, with v only choosing
    its sign.  At exactly pi both signs are the same rotation.
    """
    r = np.asarray(rot, dtype=float)
    flat = r.reshape(-1, 3, 3)
    v = 0.5 * np.stack([flat[:, 2, 1] - flat[:, 1, 2],
                        flat[:, 0, 2] - flat[:, 2, 0],
                        flat[:, 1, 0] - flat[:, 0, 1]], axis=1)
    c = 0.5 * (flat[:, 0, 0] + flat[:, 1, 1] + flat[:, 2, 2] - 1.0)
    s = np.linalg.norm(v, axis=1)
    angle = np.arctan2(s, c)
    # angle / sin(angle) tends to 1 as the angle vanishes
    out = v * np.divide(angle, s, out=np.ones_like(s), where=s > 0.0)[:, None]
    obtuse = np.flatnonzero(c < 0.0)
    if obtuse.size:
        ro, co = flat[obtuse], c[obtuse]
        sym = 0.5 * (ro + ro.transpose(0, 2, 1)) - co[:, None, None] * np.eye(3)
        k = np.argmax(np.diagonal(sym, axis1=1, axis2=2), axis=1)
        rows = np.arange(obtuse.size)
        axis = sym[rows, :, k] / np.sqrt(sym[rows, k, k] * (1.0 - co))[:, None]
        sign = np.where(np.sum(axis * v[obtuse], axis=1) < 0.0, -1.0, 1.0)
        out[obtuse] = (sign * angle[obtuse])[:, None] * axis
    return out.reshape(r.shape[:-1])


def _pose_errors(p_target: np.ndarray, r_target: np.ndarray,
                 current: np.ndarray, rot_weights: np.ndarray) -> np.ndarray:
    """Error rows (n, 6) from a target to current matrices (n, 4, 4)."""
    e_pos = p_target - current[:, :3, 3]
    r_err = current[:, :3, :3].transpose(0, 2, 1) @ r_target
    return np.concatenate([e_pos, rot_weights * so3_log(r_err)], axis=1)


# rows of joint offsets: q itself, then +step and -step along each joint
_STENCIL = np.vstack([np.zeros(N_JOINTS), np.eye(N_JOINTS), -np.eye(N_JOINTS)])


def _stencil_errors(base, dh, p_target, r_target, q) -> np.ndarray:
    """Pose errors at q (row 0) and at q +/- FD_STEP per joint (rows 1-10)."""
    return _pose_errors(p_target, r_target,
                        _fk(base, dh, q + FD_STEP * _STENCIL), _ROT_WEIGHTS)


def _central_jacobian(errs: np.ndarray) -> np.ndarray:
    return (errs[1:1 + N_JOINTS] - errs[1 + N_JOINTS:]).T / (2.0 * FD_STEP)


def fk_matrix(chain: KinematicChain, q) -> np.ndarray:
    q = np.asarray(q, dtype=float).reshape(1, N_JOINTS)
    return _fk(chain.base.matrix(), _dh_table(chain), q)[0]


def fk(chain: KinematicChain, q) -> Pose:
    """End-effector pose in the base frame for joint angles q."""
    return Pose.from_matrix(fk_matrix(chain, q))


def pose_error(target: Pose, current: Pose,
               rot_weights=DEFAULT_ROT_WEIGHTS) -> np.ndarray:
    """6-vector error: world position delta, then the weighted rotation log
    (current -> target) expressed in the current end-effector frame."""
    return _pose_errors(target.position, target.rotation(),
                        current.matrix()[None],
                        np.asarray(rot_weights, dtype=float))[0]


def error_jacobian(chain: KinematicChain, target: Pose, q) -> np.ndarray:
    """Central finite-difference Jacobian of the pose error wrt joint angles."""
    q = np.asarray(q, dtype=float).reshape(N_JOINTS)
    errs = _stencil_errors(chain.base.matrix(), _dh_table(chain),
                           target.position, target.rotation(), q)
    return _central_jacobian(errs)


@dataclass(frozen=True, eq=False)
class IkResult:
    q: np.ndarray
    iterations: int
    pos_err: float
    ang_err: float


def ik_dls(chain: KinematicChain, target: Pose, q0,
           max_iters: int = 100) -> IkResult:
    """Damped-least-squares IK with joint-limit clamping at every iterate.

    Succeeds when the position error norm is within IK_TOL_POS and the
    weighted orientation error norm within IK_TOL_ANG; otherwise raises
    NoConvergence carrying the best error seen.
    """
    base, dh = chain.base.matrix(), _dh_table(chain)
    p_target, r_target = target.position, target.rotation()
    lo, hi = chain.limits()
    q = np.clip(np.asarray(q0, dtype=float).reshape(N_JOINTS), lo, hi)
    best = (math.inf, math.inf, q)
    for it in range(max_iters + 1):
        errs = _stencil_errors(base, dh, p_target, r_target, q)
        err = errs[0]
        pos_err = float(np.linalg.norm(err[:3]))
        ang_err = float(np.linalg.norm(err[3:]))
        if pos_err + ang_err < best[0] + best[1]:
            best = (pos_err, ang_err, q.copy())
        if pos_err <= IK_TOL_POS and ang_err <= IK_TOL_ANG:
            return IkResult(q=q, iterations=it, pos_err=pos_err, ang_err=ang_err)
        if it == max_iters:
            break
        jac = _central_jacobian(errs)
        # e(q + dq) ~ e(q) + J dq = 0  =>  (J^T J + lambda^2 I) dq = -J^T e
        dq = np.linalg.solve(jac.T @ jac + _DAMPING, -jac.T @ err)
        q = np.clip(q + dq, lo, hi)
    raise NoConvergence(
        f"no convergence in {max_iters} iterations "
        f"(best position error {best[0]:.3e} m, orientation {best[1]:.3e} rad)",
        best_q=best[2], pos_err=best[0], ang_err=best[1], iterations=max_iters)
