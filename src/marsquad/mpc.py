"""Condensed linear model predictive controller with a box-constrained QP.

Each control step condenses the quadratic tracking cost over the horizon
onto the input sequence U, the deviations of the eight squared rotor
speeds from hover, solves the box-constrained QP by projected Newton, and
applies the first input. The prediction is split into the four wrench
channels of ``linmodel.CHANNELS``: a channel's states see the rotors only
through the scalar m_c . du, m_c the unit direction of its mixer row, so
each has its own single-input operators (``build_prediction``). The
mixer's rows are orthogonal for every ``VehicleParams`` (checked there),
so the m_c and an orthonormal basis of the mixer's null space are the
rows of an orthogonal rotor basis E. The input and input-rate weights are
the same for every rotor, so along each row of E the Hessian of
0.5 U'PU + q'U is one N x N block: T + Q_c along m_c, T the scalar input
band and Q_c a channel's tracking block, and T in the null space. Only
the input box couples the rows. ``build_cost`` returns P in this form as
a ``BlockMatrix`` holding P^-1, from the one Cholesky factor per run of
equal blocks that checks P positive definite.

The linear term q is affine in the state deviation dx0 and in the
reference window, and so is the unconstrained optimum -P^-1 q: the
parameter-affine law of the inactive region of explicit MPC (Bemporad,
Morari, Dua and Pistikopoulos, 2002). Per channel, q_c = F_c dx0_c -
S_c r_c, r_c the channel's one reference column (x, y, z or the wrapped
psi), and the optimum's coordinate along m_c is K_c^-1 q_c; the last
input u_prev adds one K_c^-1 e_0 column along every row of E.
``build_law`` stacks the four channels' maps and their K_c^-1 images
once per controller, so one step's q and optimum cost one batched
(4, 2N, N + 4) product, one (2N, 4) @ (4, 8) product onto the rotors and
one (8N, 8) product for u_prev. ``mpc_step`` keeps the warm start if it
already meets ``solve_qp``'s stopping test, else takes the unconstrained
optimum if it lies inside the box, and calls ``solve_qp`` only when
neither holds.

On those box-active steps ``solve_qp``, given that ``BlockMatrix``, reads
P and P^-1 by block products (never the dense P) and takes each Newton
step from the k x k Schur complement (P^-1)_CC of the clamped coordinates
C, k = |C|, gathered from the dense P^-1 that the first such step builds:
QPSchur's active-set update (Bartlett and Biegler, 2006).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs

from .dynamics import wrap_angle
from .linmodel import CHANNELS, N_OUTPUTS, N_STATES, LinearModel
from .params import N_ROTORS, EnvParams, VehicleParams, require_int, require_number
from .trajectories import ref_window

__all__ = ["MpcConfig", "Channel", "QpMaxIterations", "BlockMatrix", "build_prediction",
           "build_cost", "build_law", "solve_qp", "mpc_step", "MpcController"]

# the states a reference sample (x, y, z, psi) sets, and the velocity states that track
# the forward differences of its first three; every other state tracks 0
OUTPUT_STATES = (0, 1, 2, 8)
VELOCITY_STATES = (3, 4, 5)


class QpMaxIterations(RuntimeError):
    """QP iteration cap hit; carries the best iterate and its residual."""

    def __init__(self, solution: np.ndarray, residual: float):
        super().__init__(f"QP did not converge (residual {residual:.3e})")
        self.solution = solution
        self.residual = residual


@dataclass(frozen=True, kw_only=True)
class MpcConfig:
    """Horizon, weights, and input box for the predictive controller.

    The fields before the box are the ``[mpc]`` config keys. The four state
    weights set the diagonal of the per-step state weighting matrix, each on
    its three states (``state_weight``); ``input_weight`` and
    ``input_rate_weight`` set every rotor's entry of the input and
    input-rate diagonals. The input box ``[u_min, u_max]`` bounds every
    rotor's absolute squared speed.
    """

    horizon: int = 60
    position_weight: float = 10.0
    velocity_weight: float = 5.0
    angle_weight: float = 5.0
    rate_weight: float = 2.0
    input_weight: float = 2e-9
    input_rate_weight: float = 2e-8
    qp_max_iter: int = 100
    qp_tol: float = 1e-9
    u_min: float                     # rad^2/s^2
    u_max: float                     # rad^2/s^2

    def __post_init__(self):
        require_int("horizon", self.horizon, ge=1)
        require_int("qp_max_iter", self.qp_max_iter, ge=1)
        for name in ("position_weight", "velocity_weight", "angle_weight", "rate_weight",
                     "input_rate_weight"):
            require_number(name, getattr(self, name), ge=0)
        require_number("input_weight", self.input_weight, gt=0)
        require_number("qp_tol", self.qp_tol, gt=0)
        require_number("u_min", self.u_min)
        require_number("u_max", self.u_max)
        if self.u_min >= self.u_max:
            raise ValueError(f"u_min must be below u_max, got {self.u_min} and {self.u_max}")

    @cached_property
    def state_weight(self) -> np.ndarray:
        """The (12,) state diagonal: position, velocity, angle, rate weights.

        Built on first use and kept (read-only), as the config is frozen.
        """
        weight = np.repeat(np.array([self.position_weight, self.velocity_weight,
                                     self.angle_weight, self.rate_weight], dtype=float), 3)
        weight.flags.writeable = False
        return weight

    @classmethod
    def default(cls, veh: VehicleParams, **keys) -> "MpcConfig":
        """These ``[mpc]`` keys, in the box [0, max_rotor_speed^2]."""
        return cls(u_min=0.0, u_max=veh.max_rotor_speed ** 2, **keys)


@dataclass(frozen=True)
class Channel:
    """One channel's condensed prediction: X = G dx0[states] + H V.

    X stacks the channel's states from the current step to horizon-1 and
    V its scalar inputs v_k = direction . du_k. With its discrete (Ac, bc),
    G stacks I, Ac, Ac^2, ... and H has block (i, j) = Ac^(i-j-1) bc, i > j.
    """

    states: np.ndarray     # (s,) indices into the 12-state
    direction: np.ndarray  # (8,) unit mixer row
    G: np.ndarray          # (N s, s)
    H: np.ndarray          # (N s, N), a read-only window on the 2N - 1 impulse samples


def _run_bounds(blocks: np.ndarray) -> np.ndarray:
    """Where each run of equal blocks (T's; roll's and pitch's) starts, then len(blocks)."""
    return np.flatnonzero(np.r_[True, (blocks[1:] != blocks[:-1]).any(axis=(1, 2)), True])


class BlockMatrix:
    """A symmetric 8N x 8N matrix as the rotor basis E and (8, N, N) blocks.

    ``m @ v`` is the block product of ``build_cost``. ``dense()`` builds the
    dense ``table`` (entry ((k, r), (j, s)) is sum_c E_cr E_cs K_c[k, j],
    one term per run of equal blocks) once by ``einsum``'s own loop,
    checks it finite and keeps it read-only: as one BLAS product it ran
    multithreaded, and about one in ten later Schur factors then stalled
    for about 4 ms (default BLAS threads, 2-core host). ``inverse()``, kept
    from its first call, is ``potri`` on one ``cho_factor`` per run
    (``LinAlgError`` unless positive definite). Holds only arrays and that
    inverse, which holds none back: no cycle keeps its owner alive.
    """

    def __init__(self, basis: np.ndarray, blocks: np.ndarray):
        self.basis, self.blocks = basis, blocks
        self.shape = (N_ROTORS * blocks.shape[1],) * 2
        self.table = None
        self._inverse = None

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        coords = np.reshape(v, (-1, N_ROTORS)) @ self.basis.T
        return ((self.blocks @ coords.T[:, :, None])[:, :, 0].T @ self.basis).ravel()

    def inverse(self) -> BlockMatrix:
        if self._inverse is None:
            blocks, lower = np.empty_like(self.blocks), np.tri(self.blocks.shape[1], dtype=bool)
            for start, stop in itertools.pairwise(_run_bounds(self.blocks)):
                inverse = dpotri(cho_factor(self.blocks[start], lower=True)[0], lower=True)[0]
                blocks[start:stop] = np.where(lower, inverse, inverse.T)
            self._inverse = BlockMatrix(self.basis, blocks)
        return self._inverse

    def dense(self) -> np.ndarray:
        if self.table is None:
            starts = _run_bounds(self.blocks)[:-1]
            outers = np.add.reduceat(self.basis[:, :, None] * self.basis[:, None, :], starts)
            table = np.einsum("ckj,crs->krjs", self.blocks[starts], outers).reshape(self.shape)
            if not np.isfinite(table).all():
                raise ValueError("block matrix must be finite")
            table.flags.writeable = False
            self.table = table
        return self.table


def build_prediction(model: LinearModel, horizon: int) -> tuple[Channel, ...]:
    """The four channels' condensed operators, in the mixer's row order.

    Raises ``ValueError`` unless the model decouples on ``CHANNELS``: A
    block diagonal on their state sets, each channel's rows of B
    multiples of one direction, not all zero, and the four directions
    orthonormal. A^(m+j) = A^j A^m fills A's powers in log2 N products.
    """
    if model.continuous:
        raise ValueError("prediction needs a discretized model")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    states = [np.array(c) for c in CHANNELS]
    directions, impulses = np.zeros((len(states), N_ROTORS)), np.zeros((N_STATES, len(states)))
    for c, s in enumerate(states):
        rows, name = model.B[s], f"the channel states {s.tolist()}"
        if not rows.any():
            raise ValueError(f"model does not decouple: no rotor drives {name}")
        direction = rows[np.argmax(np.linalg.norm(rows, axis=1))]
        directions[c] = direction = direction / np.linalg.norm(direction)
        impulses[s, c] = b = rows @ direction
        if (np.delete(model.A[s], s, axis=1).any()
                or not np.abs(rows - np.outer(b, direction)).max() <= 1e-12 * np.abs(rows).max()):
            raise ValueError(f"model does not decouple on {name}")
    if not np.abs(directions @ directions.T - np.eye(len(states))).max() <= 1e-12:
        raise ValueError("model does not decouple: the channel directions are not orthonormal")
    powers = np.empty((horizon, N_STATES, N_STATES))  # powers[k] = A^k
    powers[0], power, m = np.eye(N_STATES), model.A, 1
    while m < horizon:  # powers[m + j] = A^j A^m for j < m, cut at N: one batched product
        np.matmul(powers[:min(m, horizon - m)], power, out=powers[m:2 * m])
        power, m = power @ power, 2 * m
    # responses[k - 1, :, c] = A^(k-1) b_c, the k-th sample after a unit input on channel c
    responses = powers[:-1] @ impulses
    channels = []
    for c, s in enumerate(states):
        # samples[N - 1 + k] is the k-th sample, 0 for k <= 0; H is a window view on them
        samples = np.concatenate([np.zeros((horizon, len(s))), responses[:, s, c]])
        h = sliding_window_view(samples, horizon, axis=0)[..., ::-1].reshape(-1, horizon)
        channels.append(Channel(s, directions[c], powers[:, s[:, None], s].reshape(-1, len(s)), h))
    return tuple(channels)


def build_cost(channels: tuple[Channel, ...], cfg: MpcConfig) -> BlockMatrix:
    """The constant Hessian P of the condensed cost as a ``BlockMatrix``.

    Its 8 x 8 ``basis`` E has orthonormal rows: the channels' directions
    m_c, then an orthonormal basis of the mixer's null space. Its
    ``blocks`` are the (8, N, N) stack of the K_c that P takes along those
    rows: T + Q_c along m_c, with T the N x N input and input-rate band
    and Q_c = H_c' W_c H_c a channel's tracking block, and T along each
    null-space row. With U as an (N, 8) array W, P U is V E, column c of V
    being K_c times column c of W E'. P comes with its ``inverse()``, whose
    factors raise ``ValueError`` here unless P is positive definite.
    """
    n = cfg.horizon
    eye = np.eye(n)
    diff = eye - np.eye(n, k=-1)  # input sequence to its step-to-step differences
    band = cfg.input_weight * eye + cfg.input_rate_weight * (diff.T @ diff)
    directions = np.array([c.direction for c in channels])
    basis = np.vstack([directions, np.linalg.qr(directions.T, "complete")[0][:, len(channels):].T])
    blocks = np.tile(band, (N_ROTORS, 1, 1))
    for block, c in zip(blocks, channels):
        weighted = np.tile(np.sqrt(cfg.state_weight[c.states]), n)[:, None] * c.H
        block += weighted.T @ weighted  # one symmetric rank-k update (BLAS syrk)
    cost = BlockMatrix(basis, blocks)
    try:
        cost.inverse()
    except np.linalg.LinAlgError:
        raise ValueError("cost Hessian is not positive definite; check weights") from None
    return cost


def build_law(channels: tuple[Channel, ...], inverse_blocks: np.ndarray, cfg: MpcConfig,
              dt: float) -> np.ndarray:
    """The channels' parts of q and of P^-1 q as one (4, 2N, N + 4) affine law.

    A channel's first state is the one its reference column r_c sets (z,
    y, x or the wrapped psi). Its velocity state, if it has one, tracks
    the forward differences of r_c over ``dt``, the last sample repeating
    the one before (0 at N = 1); its other states track 0. So its part of
    q is F_c dx0_c - S_c r_c, with S_c = sum_k w_k H_k' M_k over its
    tracked states k (weight w_k, rows H_k of H_c, M_k the identity or the
    difference map) and F_c = H_c' W_c G_c. Row block 0 of the law holds
    [-S_c, F_c], F_c padded to four columns by zeros, and row block 1
    holds K_c^-1 times it, K_c^-1 from ``inverse_blocks``. Applied to
    [r_c, dx0_c] (the channel's states, padded), it gives q_c and K_c^-1
    q_c less the input-rate term of u_prev.
    """
    n = cfg.horizon
    law = np.zeros((len(channels), 2 * n, n + 4))
    for out, c in zip(law, channels):
        s = len(c.states)
        weights = cfg.state_weight[c.states]
        responses = c.H.reshape(n, s, n)  # [i, k, j]: state k at sample i per unit input j
        tracked = np.zeros((n, n))  # S_c'
        for k, state in enumerate(c.states):
            if state in OUTPUT_STATES:
                tracked += weights[k] * responses[:, k]
            elif state in VELOCITY_STATES and n > 1:  # M_k' H_k, by differences of rows
                h, pad = responses[:, k], np.zeros((1, n))  # the last slope repeats the one
                rows = np.concatenate([pad, h[:-2], h[-2:-1] + h[-1:], pad])  # before it
                tracked += weights[k] / dt * (rows[:-1] - rows[1:])
        out[:n, :n] = -tracked.T
        out[:n, n:n + s] = c.H.T @ (np.tile(weights, n)[:, None] * c.G)
    np.matmul(inverse_blocks[:len(channels)], law[:, :n], out=law[:, n:])
    return law


def solve_qp(hessian: np.ndarray | BlockMatrix, gradient: np.ndarray,
             lower: np.ndarray, upper: np.ndarray, cfg: MpcConfig,
             x0: np.ndarray | None = None):
    """Minimize 0.5 x'Hx + g'x over a box with projected Newton steps.

    Clamped coordinates (at a bound with the gradient pushing outward) are
    frozen; a Newton step on the free block is backtracked along the
    projected path until Armijo decrease holds. Stops when the projected
    gradient's largest entry is at most ``qp_tol * max(1, max|g|)``, which
    is relative to the gradient only where ``max|g| > 1`` and an absolute
    ``qp_tol`` below that, at the start, at a residual of exactly 0 or
    at the full, unclipped Newton step of the last iteration. A step that
    the box clipped or the line search shortened is not the minimizer on
    its free set, so within the tolerance it is followed by one more
    Newton step, which leaves the free block's gradient at rounding level.
    Raises ``QpMaxIterations`` (with the best iterate attached) at the
    iteration cap. Returns ``(x, info)``, where ``info`` holds
    ``"iterations"``, the final ``"residual"`` and the ``"status"`` that
    ended the solve: ``"converged"`` (residual within the tolerance),
    ``"no_descent"`` (the Newton step is not a descent direction) or
    ``"line_search_stalled"`` (no Armijo decrease in 40 halvings). The
    last two leave the residual above the tolerance and come from
    rounding, as on badly conditioned Hessians. A clamped coordinate adds
    exactly 0 to the residual, so no step finds every one clamped.

    Every Newton step comes from H^-1: with z = H^-1 g, formed once per
    solve, and the clamped set C, k = |C|, the minimizer with x_C held fixed
    is -z + (H^-1)_:C lam, where the k x k Schur complement S = (H^-1)_CC
    gives S lam = x_C + z_C (QPSchur, Bartlett and Biegler, 2006). A step
    costs a gather of k rows of H^-1 (its k columns, by symmetry), a
    Cholesky factor of S (at most n^3/3, at k = n) and one k x n product;
    with nothing clamped it is -z. A ``BlockMatrix``, read through ``@``,
    supplies H^-1 from its ``inverse()`` (the dense table on the first
    clamped step); a finite (n, n) array gets H^-1 from one Cholesky factor
    per solve. ``x0`` must be finite; it is clipped into the box.

    Each line-search trial costs one product with the Hessian: the
    objective is read off the gradient, f(x) = 0.5 x'(Hx + g + g), and an
    accepted trial's gradient is the next iteration's.
    """
    h = hessian if isinstance(hessian, BlockMatrix) else np.asarray(hessian, dtype=float)
    g = np.asarray(gradient, dtype=float)
    n = g.shape[0]
    if h.shape != (n, n):
        raise ValueError(f"Hessian shape {h.shape} does not match gradient length {n}")
    if isinstance(h, np.ndarray) and not np.isfinite(h).all():
        raise ValueError("QP Hessian must be finite")
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    if lower.shape != (n,) or upper.shape != (n,):
        raise ValueError("bounds must match the gradient length")
    if (lower > upper).any():
        raise ValueError("lower bound exceeds upper bound")
    tol = _tolerance(g, cfg)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("QP start x0 must be finite")
    x = x.clip(lower, upper)
    # H^-1: the BlockMatrix's inverse, or one Cholesky factor of a copy (none for n = 0)
    inverse = (h.inverse() if isinstance(h, BlockMatrix)
               else _spd_solve(h.copy(), np.eye(n), "QP Hessian") if n else h)
    z = inverse @ g  # the unconstrained optimum is -z

    grad = h @ x + g
    value = 0.5 * x @ (grad + g)
    iters, status, landed = 0, "converged", True  # landed: x is a Newton target or the start
    while True:
        residual = _residual(x, grad, lower, upper)
        if residual <= tol and (landed or residual == 0.0 or iters >= cfg.qp_max_iter):
            break
        if iters >= cfg.qp_max_iter:
            raise QpMaxIterations(x, residual)
        iters += 1

        # Newton target on the free block with clamped coordinates fixed
        clamped = ((x <= lower) & (grad > 0)) | ((x >= upper) & (grad < 0))
        free = ~clamped
        if clamped.any():
            table = inverse.dense() if isinstance(inverse, BlockMatrix) else inverse
            rows = table[clamped]  # by symmetry, H^-1's clamped columns as rows
            lam = _spd_solve(rows[:, clamped], x[clamped] + z[clamped], "QP Hessian inverse")
            target_free = (lam @ rows - z)[free]
        else:
            target_free = -z
        step_dir = np.zeros(n)
        step_dir[free] = target_free - x[free]

        descent = step_dir @ grad
        if descent >= 0:  # already optimal on the free block up to rounding
            status = "converged" if residual <= tol else "no_descent"
            break

        step = 1.0
        for _ in range(40):
            cand = (x + step * step_dir).clip(lower, upper)
            cand_grad = h @ cand + g
            cand_val = 0.5 * cand @ (cand_grad + g)
            if cand_val <= value + 0.1 * step * descent:
                break
            step *= 0.5
        else:  # no progress possible at machine precision
            status = "converged" if residual <= tol else "line_search_stalled"
            break

        landed = step == 1.0 and (cand == x + step_dir).all()
        x, grad, value = cand, cand_grad, cand_val

    return x, {"iterations": iters, "residual": residual, "status": status}


def _tolerance(g: np.ndarray, cfg: MpcConfig) -> float:
    """``solve_qp``'s tolerance ``qp_tol * max(1, max|g|)``; ``ValueError`` unless g is finite."""
    scale = float(np.abs(g).max()) if g.size else 0.0
    if not math.isfinite(scale):
        raise ValueError("QP gradient must be finite")
    return cfg.qp_tol * max(1.0, scale)


def _residual(x: np.ndarray, grad: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> float:
    """``solve_qp``'s residual, the projected gradient's largest entry at x."""
    return float(np.abs(x - (x - grad).clip(lower, upper)).max()) if x.size else 0.0


def _spd_solve(a: np.ndarray, rhs: np.ndarray, name: str) -> np.ndarray:
    """Solve a x = rhs by LAPACK ``potrf`` and ``potrs``, ``a`` a fresh symmetric array.

    ``a``, from checked matrices, is factored in place as its Fortran-order
    transpose; only ``rhs`` is scanned for non-finite values.
    """
    factor, info = dpotrf(a.T, lower=True, overwrite_a=True, clean=False)
    if info:
        raise ValueError(f"{name} is not positive definite")
    if not np.isfinite(rhs).all():
        raise ValueError("QP right-hand side must be finite")
    return dpotrs(factor, rhs, lower=True)[0]


def mpc_step(x_now: np.ndarray, refs: np.ndarray, ctrl: MpcController) -> np.ndarray:
    """One receding-horizon update: solve the QP, apply the first input.

    ``refs`` is the (N, 4) window of (x, y, z, psi) references. The QP's
    solution is the first of:

    1. the warm start, if it meets ``solve_qp``'s stopping test, the same
       ``_residual`` and ``_tolerance`` (0 iterations, status ``"warm_start"``);
    2. the unconstrained optimum -P^-1 q, if it lies inside the input box
       (1 iteration, ``"unconstrained"``);
    3. ``solve_qp`` from the warm start (its iterations and status).

    The first two are answers ``solve_qp`` would accept from the same warm
    start (its own stopping test; the unique minimizer, up to rounding) at
    a fraction of its cost. q and the optimum come from the controller's
    affine law (``MpcController.linear_terms``); the warm start's gradient
    reads P, and ``solve_qp`` is given it, as the ``BlockMatrix``
    ``hessian_op``, so its Newton steps come from P^-1. Updates
    the controller's last input, warm start, QP iteration count and status,
    and returns the absolute squared-speed command, always inside the input
    box. Raises ``ValueError`` for a wrongly shaped or non-finite state or
    reference window.
    """
    cfg, lower, upper = ctrl.cfg, ctrl.lower, ctrl.upper
    g, optimum = ctrl.linear_terms(x_now, refs)
    tol, warm = _tolerance(g, cfg), ctrl.warm_start
    if _residual(warm, ctrl.hessian_op @ warm + g, lower, upper) <= tol:
        du_seq, iters, status = warm, 0, "warm_start"
    else:
        du_seq = optimum
        if (lower <= du_seq).all() and (du_seq <= upper).all():
            iters, status = 1, "unconstrained"
        else:
            du_seq, info = solve_qp(ctrl.hessian_op, g, lower, upper, cfg, x0=warm)
            iters, status = info["iterations"], info["status"]

    u = (ctrl.model.u_ref + du_seq[:N_ROTORS]).clip(cfg.u_min, cfg.u_max)
    ctrl.u_prev = u.copy()
    ctrl.warm_start = np.concatenate([du_seq[N_ROTORS:], du_seq[-N_ROTORS:]])
    ctrl.last_qp_iters = iters
    ctrl.last_qp_status = status
    return u


class MpcController:
    """Receding-horizon controller bound to a model, config, and sampling time.

    Holds the channels' input ``directions`` as rows, the constant
    Hessian P once, as ``build_cost``'s ``BlockMatrix`` ``hessian_op``
    (P^-1 is its ``inverse()``), the box-inactive step as ``build_law``'s
    affine ``law`` and the (8N, 8) ``rate_law`` that maps the last input
    deviation to its part of the optimum, both from P^-1's blocks, the
    input box as deviations over the horizon (``lower``,
    ``upper``), and the per-loop memory: the last applied input
    ``u_prev``, the QP warm start, ``last_qp_iters`` and
    ``last_qp_status``. One instance drives one closed loop. The dense P
    and P^-1 (``dense()`` of either operator) are built on demand; a
    closed loop builds only P^-1's, for its first box-active step.

    The law is built with the controller, so a box-inactive step costs the
    input checks, the law's three products and one ``hessian_op`` product
    for the warm-start test.
    """

    def __init__(self, model: LinearModel, cfg: MpcConfig, veh: VehicleParams,
                 env: EnvParams):
        self.model = model
        self.cfg = cfg
        channels = build_prediction(model, cfg.horizon)
        self.hessian_op = build_cost(channels, cfg)
        basis, inverse_blocks = self.hessian_op.basis, self.hessian_op.inverse().blocks
        self.directions = basis[:len(channels)]
        self.law = build_law(channels, inverse_blocks, cfg, model.dt)
        # du_prev's part of the optimum, w P^-1 (e_0 kron du_prev): a K_c^-1 e_0 column per row
        outers = (basis[:, :, None] * basis[:, None, :]).reshape(N_ROTORS, -1)
        self.rate_law = (cfg.input_rate_weight * (inverse_blocks[:, :, 0].T @ outers)
                         ).reshape(N_ROTORS * cfg.horizon, N_ROTORS)
        # the law's inputs: each channel's reference column, and its states padded to four
        self._law_columns = [OUTPUT_STATES.index(c.states[0]) for c in channels]
        self._law_states = np.array([np.resize(c.states, 4) for c in channels])
        self.lower = np.tile(cfg.u_min - model.u_ref, cfg.horizon)
        self.upper = np.tile(cfg.u_max - model.u_ref, cfg.horizon)
        self.u_prev = model.u_ref.copy()
        self.warm_start = np.zeros(N_ROTORS * cfg.horizon)
        self.last_qp_iters = 0
        self.last_qp_status = None

    def linear_terms(self, x_now: np.ndarray, refs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The linear term q of 0.5 U'PU + q'U and the unconstrained optimum -P^-1 q.

        ``refs`` is the (N, 4) window of (x, y, z, psi) references. Velocity
        references are forward differences of the positions, so a moving
        reference is tracked without a built-in lag; roll, pitch and the
        angular rates target hover. Yaw in the deviation of ``x_now`` takes
        the wrapped branch nearest the first reference; the input-rate
        penalty enters only through ``u_prev``. Both come from ``law``: one
        batched product gives each channel's q_c and K_c^-1 q_c, one
        (2N, 4) @ (4, 8) product maps them onto the rotors, and the
        input-rate weight and ``rate_law`` add the ``u_prev`` terms. Raises
        ``ValueError`` for a wrongly shaped or non-finite state or reference
        window.
        """
        model, n = self.model, self.cfg.horizon
        x_now = np.asarray(x_now, dtype=float)
        if x_now.shape != (N_STATES,):
            raise ValueError(f"x_now must be a 12-vector, got shape {x_now.shape}")
        if not np.isfinite(x_now).all():
            raise ValueError(f"x_now must be finite, got {x_now}")
        refs = np.asarray(refs, dtype=float)
        if refs.shape != (n, N_OUTPUTS):
            raise ValueError(f"expected a ({n}, 4) reference window, got {refs.shape}")
        if not np.isfinite(refs).all():
            raise ValueError("reference window must be finite")
        levels = refs.copy()
        levels[:, 3] = wrap_angle(refs[:, 3])
        dx0 = x_now.copy()
        dx0[8] = levels[0, 3] - wrap_angle(refs[0, 3] - x_now[8])
        inputs = np.concatenate([levels.T[self._law_columns], dx0[self._law_states]], axis=1)
        rotors = (self.law @ inputs[:, :, None])[:, :, 0].T @ self.directions
        du_prev = self.u_prev - model.u_ref
        q = rotors[:n].ravel()
        q[:N_ROTORS] -= self.cfg.input_rate_weight * du_prev
        return q, self.rate_law @ du_prev - rotors[n:].ravel()

    def command(self, t: float, x_now: np.ndarray, traj) -> np.ndarray:
        refs = ref_window(traj, t, self.cfg.horizon, self.model.dt)
        return mpc_step(x_now, refs, self)
