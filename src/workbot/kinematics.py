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
from .geometry import Pose, frozen_array
from .jsonio import construct, decode, load_json

N_JOINTS = 5

IK_TOL_POS = 1e-3                  # m, see ik_dls
IK_TOL_ANG = math.radians(0.5)
IK_DAMPING = 0.1                   # lambda of the damped least-squares step
IK_MAX_ITERS = 100                 # damped least-squares steps before giving up
FD_STEP = 1e-6                     # central-difference step, rad

# weights of the orientation error about the end-effector x, y, z axes: the
# wrist roll a 5-DoF arm cannot control counts a fifth
_ROT_WEIGHTS = frozen_array((1.0, 1.0, 0.2))
_DAMPING = frozen_array((IK_DAMPING * IK_DAMPING) * np.eye(N_JOINTS))


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
    """Per-joint DH constants as arrays: (a, cos alpha, sin alpha,
    -cos alpha, -sin alpha, d, offset)."""
    a, alpha, d, off = np.array([(j.a, j.alpha, j.d, j.theta_offset)
                                 for j in chain.joints]).T
    ca, sa = np.cos(alpha), np.sin(alpha)
    return a, ca, sa, -ca, -sa, d, off


def _dh_buffer(dh: tuple[np.ndarray, ...], n: int) -> np.ndarray:
    """Joint matrices (n, 5, 4, 4) with the entries free of theta written."""
    a, ca, sa, _, _, d, off = dh
    m = np.zeros((n, N_JOINTS, 4, 4))
    m[..., 2, 1] = sa
    m[..., 2, 2] = ca
    m[..., 2, 3] = d
    m[..., 3, 3] = 1.0
    return m


def _fk(base: np.ndarray, dh: tuple[np.ndarray, ...], qs: np.ndarray,
        m: np.ndarray | None = None) -> np.ndarray:
    """End-effector matrices (n, 4, 4) for joint-angle rows qs (n, 5).

    ``m`` is a buffer from ``_dh_buffer`` with at least n rows; only its
    entries that depend on theta are written.  ``st * (-ca)`` has the bits of
    ``-st * ca``, as negation is exact.
    """
    a, ca, sa, nca, nsa, d, off = dh
    m = _dh_buffer(dh, len(qs)) if m is None else m[:len(qs)]
    theta = qs + off
    # out= by position: parsing the keyword costs more than the product
    ct = np.cos(theta, m[..., 0, 0])
    st = np.sin(theta, m[..., 1, 0])
    np.multiply(st, nca, m[..., 0, 1])
    np.multiply(st, sa, m[..., 0, 2])
    np.multiply(a, ct, m[..., 0, 3])
    np.multiply(ct, ca, m[..., 1, 1])
    np.multiply(ct, nsa, m[..., 1, 2])
    np.multiply(a, st, m[..., 1, 3])
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
    # (r21 - r12, r02 - r20, r10 - r01) / 2
    v = 0.5 * (flat[:, (2, 0, 1), (1, 2, 0)] - flat[:, (1, 2, 0), (2, 0, 1)])
    c = 0.5 * (flat[:, 0, 0] + flat[:, 1, 1] + flat[:, 2, 2] - 1.0)
    # the sum of squares of np.linalg.norm(v, axis=1), without its dispatch
    s = np.sqrt(np.add.reduce(v * v, axis=1))
    angle = np.arctan2(s, c)
    # angle / sin(angle) tends to 1 as the angle vanishes
    out = v * np.divide(angle, s, out=np.ones(len(s)), where=s > 0.0)[:, None]
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
                 current: np.ndarray) -> np.ndarray:
    """Error rows (..., 6) from targets to current matrices (..., 4, 4):
    the world position delta, then the weighted rotation log (current ->
    target) expressed in the current end-effector frame.  The targets
    broadcast against the leading axes."""
    e_pos = p_target - current[..., :3, 3]
    r_err = current[..., :3, :3].swapaxes(-1, -2) @ r_target
    return np.concatenate([e_pos, _ROT_WEIGHTS * so3_log(r_err)], axis=-1)


# rows of joint offsets: q itself, then +step and -step along each joint
_STENCIL = frozen_array(np.vstack([np.zeros(N_JOINTS), np.eye(N_JOINTS),
                                   -np.eye(N_JOINTS)]))
_STENCIL_STEPS = frozen_array(FD_STEP * _STENCIL)


def _stencil_errors(base, dh, p_target, r_target, q, m=None) -> np.ndarray:
    """Pose errors (k, 11, 6) at each row of q (k, 5) (column 0) and at
    q +/- FD_STEP per joint (columns 1-10).  The targets are one per row,
    (k, 1, 3) positions and (k, 1, 3, 3) rotations, or one for all."""
    qs = (q[:, None, :] + _STENCIL_STEPS).reshape(-1, N_JOINTS)
    current = _fk(base, dh, qs, m).reshape(len(q), len(_STENCIL), 4, 4)
    return _pose_errors(p_target, r_target, current)


def _central_jacobian_t(errs: np.ndarray) -> np.ndarray:
    """Transposed Jacobians (k, 5, 6) from stencil errors (k, 11, 6)."""
    return (errs[:, 1:1 + N_JOINTS] - errs[:, 1 + N_JOINTS:]) / (2.0 * FD_STEP)


@dataclass(frozen=True, eq=False)
class IkResult:
    q: np.ndarray
    iterations: int
    pos_err: float
    ang_err: float


def ik_dls(chain: KinematicChain, target: Pose, q0) -> IkResult:
    """Damped-least-squares IK with joint-limit clamping at every iterate.

    Succeeds when the position error norm is within IK_TOL_POS and the
    weighted orientation error norm within IK_TOL_ANG; otherwise raises
    NoConvergence carrying the best error seen.  The one-target case of
    ik_dls_many.
    """
    res = ik_dls_many(chain, [target], q0)[0]
    if isinstance(res, NoConvergence):
        raise res
    return res


def ik_dls_many(chain: KinematicChain, targets: list[Pose],
                q0) -> list[IkResult | NoConvergence]:
    """ik_dls from one start q0 towards each target, solved in lockstep.

    Each target is one row of a single damped-least-squares iteration, with
    the arithmetic of a solve on its own: entry i is the IkResult that
    ik_dls(chain, targets[i], q0) returns or the NoConvergence it raises.
    A row leaves the batch when it converges; the rows left after
    IK_MAX_ITERS steps fail with the best error each one saw.  A ranking
    so costs about as much as its slowest target.
    """
    if not targets:
        return []
    base, dh = chain.base.matrix(), _dh_table(chain)
    lo, hi = chain.limits()
    n = len(targets)
    # one target per row, broadcast over the row's stencil points
    p_target = np.array([t.position for t in targets]).reshape(n, 1, 3)
    r_target = np.array([t.rotation() for t in targets]).reshape(n, 1, 3, 3)
    m = _dh_buffer(dh, n * len(_STENCIL))
    q = np.clip(np.asarray(q0, dtype=float).reshape(1, N_JOINTS),
                lo, hi).repeat(n, axis=0)
    rows = list(range(n))        # target index of each active row
    out: list[IkResult | NoConvergence] = [None] * n  # type: ignore[list-item]
    best = [(math.inf, math.inf, row_q) for row_q in q]
    for it in range(IK_MAX_ITERS + 1):
        errs = _stencil_errors(base, dh, p_target, r_target, q, m)
        err = errs[:, 0]
        # each row's two norms from the BLAS dot behind np.linalg.norm
        halves = err.reshape(-1, 2, 1, 3)
        keep = []
        for i, (pos_err, ang_err) in enumerate(np.sqrt(
                halves @ halves.transpose(0, 1, 3, 2)).reshape(-1, 2).tolist()):
            if pos_err + ang_err < best[i][0] + best[i][1]:
                best[i] = (pos_err, ang_err, q[i].copy())
            if pos_err <= IK_TOL_POS and ang_err <= IK_TOL_ANG:
                out[rows[i]] = IkResult(q=q[i].copy(), iterations=it,
                                        pos_err=pos_err, ang_err=ang_err)
            else:
                keep.append(i)
        if len(keep) < len(rows):
            rows, best = [rows[i] for i in keep], [best[i] for i in keep]
            q, errs, err = q[keep], errs[keep], err[keep]
            p_target, r_target = p_target[keep], r_target[keep]
        if it == IK_MAX_ITERS or not rows:
            break
        jac_t = _central_jacobian_t(errs)
        jac = jac_t.transpose(0, 2, 1)
        # e(q + dq) ~ e(q) + J dq = 0  =>  (J^T J + lambda^2 I) dq = -J^T e
        dq = np.linalg.solve(jac_t @ jac + _DAMPING, -jac_t @ err[:, :, None])
        q = np.clip(q + dq[:, :, 0], lo, hi)
    for row, (pos_err, ang_err, best_q) in zip(rows, best):
        out[row] = NoConvergence(
            f"no convergence in {IK_MAX_ITERS} iterations (best position "
            f"error {pos_err:.3e} m, orientation {ang_err:.3e} rad)",
            best_q=best_q, pos_err=pos_err, ang_err=ang_err,
            iterations=IK_MAX_ITERS)
    return out
