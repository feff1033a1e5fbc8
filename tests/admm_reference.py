"""The reference ADMM: ``solve_sdp_relaxation`` and ``project_psd`` as they
were before the iteration loop was tuned, kept verbatim (with their own
``scipy.linalg.eigh``) as the oracle of ``test_admm_differential.py``.

The tuned solver must return byte-identical :class:`SDPResult` fields on
every input; this copy is what "identical" is measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from repro.exceptions import SDPError
from repro.sdp.admm import _BIG_BOUND, SDPResult, _build_scalar_system
from repro.sdp.linalg import sym
from repro.sdp.model import MISDP


@dataclass
class _MatBlock:
    C: np.ndarray
    vars: list[int]
    mats: np.ndarray  # stacked (k, n, n)


def project_psd(M: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the PSD cone (eigenvalue clipping)."""
    M = np.asarray(M, dtype=float)
    if M.shape == (1, 1):
        return np.maximum(M, 0.0)
    vals, vecs = sla.eigh(M)
    if vals[0] >= 0.0:
        return M
    pos = vals > 0.0
    if not np.any(pos):
        return np.zeros_like(M)
    V = vecs[:, pos]
    return (V * vals[pos]) @ V.T


def solve_sdp_relaxation(
    misdp: MISDP,
    lb: np.ndarray | None = None,
    ub: np.ndarray | None = None,
    rho: float = 1.0,
    max_iter: int = 4000,
    tol: float = 1e-7,
    penalty: bool = False,
    penalty_gamma: float = 1e4,
    over_relaxation: float = 1.6,
    budget=None,
) -> SDPResult:
    """Solve the continuous relaxation under (possibly tightened) bounds.

    Infinite bounds are replaced by +-1e6 box bounds so the y-step stays
    well-posed (documented substitution for interior-point regularity).
    ``budget`` (duck-typed :class:`repro.utils.budget.Budget`) is checked
    every iteration; an expired deadline returns ``"time_limit"`` within
    one ADMM iteration instead of running to ``max_iter``.
    """
    m = misdp.num_vars
    lb = misdp.lb if lb is None else np.asarray(lb, dtype=float)
    ub = misdp.ub if ub is None else np.asarray(ub, dtype=float)
    lb = np.maximum(lb, -_BIG_BOUND)
    ub = np.minimum(ub, _BIG_BOUND)
    if np.any(lb > ub + 1e-12):
        return SDPResult("infeasible", -math.inf, None, 0, 0.0, 0.0)

    n_y = m + (1 if penalty else 0)
    # Penalty mode solves the *feasibility* problem min r subject to
    # C - A(y) + r I >= 0: a positive optimum certifies infeasibility.
    # (Using b - Gamma r directly wrecks ADMM's scaling; the bounding role
    # is covered by the caller's LP fallback.)
    b = (
        np.concatenate([np.zeros(m), [-1.0]])
        if penalty
        else misdp.b.astype(float)
    )

    # Each constraint is scaled by its own data norm (diagonal
    # preconditioning): mathematically equivalent, but ADMM convergence is
    # dramatically better on badly scaled blocks (e.g. truss compliance).
    blocks: list[_MatBlock] = []
    for blk in misdp.blocks:
        vars_ = sorted(blk.coefs)
        mats = [blk.coefs[i] for i in vars_]
        if penalty:
            vars_ = vars_ + [m]
            mats = mats + [-np.eye(blk.size)]
        stacked = np.stack(mats)
        scale = max(1.0, float(np.linalg.norm(blk.C)), float(np.abs(stacked).max()))
        blocks.append(_MatBlock(blk.C / scale, vars_, stacked / scale))
    A_s, c_s = _build_scalar_system(misdp, lb, ub, n_y, penalty)
    if len(c_s):
        row_scale = np.maximum(1.0, np.maximum(np.abs(c_s), np.abs(A_s).max(axis=1)))
        A_s = A_s / row_scale[:, None]
        c_s = c_s / row_scale

    # Gram matrix G_ij = sum_k <A_ki, A_kj> over matrix blocks + scalar rows
    G = A_s.T @ A_s
    for blk in blocks:
        flat = blk.mats.reshape(len(blk.vars), -1)
        local = flat @ flat.T
        idx = np.asarray(blk.vars)
        G[np.ix_(idx, idx)] += local
    G = G + 1e-10 * np.eye(n_y)
    try:
        G_chol = sla.cho_factor(G)
    except sla.LinAlgError as exc:
        raise SDPError(f"singular Gram matrix: {exc}") from exc

    y = np.zeros(n_y)
    S = [project_psd(blk.C) for blk in blocks]
    X = [np.zeros_like(blk.C) for blk in blocks]
    s_vec = np.maximum(c_s, 0.0)
    x_vec = np.zeros(len(c_s))

    # relative stopping (Boyd et al.): residuals are compared against the
    # scale of the iterates/data, not absolutely
    data_scale = max(
        1.0,
        float(np.linalg.norm(c_s)) if len(c_s) else 0.0,
        max((float(np.linalg.norm(blk.C)) for blk in blocks), default=0.0),
    )
    prim_res = dual_res = math.inf
    it = 0
    timed_out = False
    for it in range(1, max_iter + 1):
        if budget is not None and budget.time_exceeded():
            timed_out = True
            break
        # y-step: rho G y = b + rho A'(c - s - x/rho) summed over cones
        rhs = b.copy()
        if len(c_s):
            rhs += rho * (A_s.T @ (c_s - s_vec - x_vec / rho))
        for blk, Sk, Xk in zip(blocks, S, X):
            Mk = blk.C - Sk - Xk / rho
            rhs[blk.vars] += rho * blk.mats.reshape(len(blk.vars), -1) @ Mk.ravel()
        y = sla.cho_solve(G_chol, rhs / rho)

        prim_sq = 0.0
        dual_sq = 0.0
        alpha = over_relaxation
        # scalar cones, fully vectorised (with standard over-relaxation)
        if len(c_s):
            act = A_s @ y
            prim_sq += float(np.sum((act + s_vec - c_s) ** 2))
            act_rel = alpha * act + (1.0 - alpha) * (c_s - s_vec)
            s_new = np.maximum(c_s - act_rel - x_vec / rho, 0.0)
            dual_sq += float(np.sum((s_new - s_vec) ** 2))
            s_vec = s_new
            x_vec = x_vec + rho * (act_rel + s_vec - c_s)
        # matrix blocks
        for k, blk in enumerate(blocks):
            Ay = np.tensordot(y[blk.vars], blk.mats, axes=1)
            prim_sq += float(np.sum((Ay + S[k] - blk.C) ** 2))
            Ay_rel = alpha * Ay + (1.0 - alpha) * (blk.C - S[k])
            S_new = project_psd(sym(blk.C - Ay_rel - X[k] / rho))
            dual_sq += float(np.sum((S_new - S[k]) ** 2))
            S[k] = S_new
            X[k] = sym(X[k] + rho * (Ay_rel + S[k] - blk.C))
        prim_res = math.sqrt(prim_sq) / data_scale
        dual_res = rho * math.sqrt(dual_sq) / data_scale
        if prim_res < tol and dual_res < tol:
            break
        if it % 100 == 0:  # standard residual balancing
            if prim_res > 10 * dual_res:
                rho *= 2.0
                X = [Xk / 2.0 for Xk in X]
                x_vec = x_vec / 2.0
            elif dual_res > 10 * prim_res:
                rho /= 2.0
                X = [Xk * 2.0 for Xk in X]
                x_vec = x_vec * 2.0

    converged = prim_res < 1e-5 and dual_res < 1e-4
    obj = float(b @ y)
    if timed_out and not converged:
        return SDPResult("time_limit", obj, None, it, prim_res, dual_res)
    if not converged and over_relaxation != 1.0:
        # over-relaxation (alpha = 1.6) accelerates well-conditioned
        # solves but can cycle with residuals stuck around 1e-3 on some
        # instances; restart damped (alpha = 1) before reporting failure
        fallback = solve_sdp_relaxation(
            misdp,
            lb,
            ub,
            max_iter=max_iter,
            tol=tol,
            penalty=penalty,
            penalty_gamma=penalty_gamma,
            over_relaxation=1.0,
            budget=budget,
        )
        fallback.iterations += it
        return fallback
    if penalty:
        r = float(y[m])
        if converged and r > 1e-5:
            return SDPResult("infeasible", -math.inf, None, it, prim_res, dual_res)
        if not converged:
            return SDPResult("failed", obj, None, it, prim_res, dual_res)
        # feasible: r ~ 0; the y part is a feasible point, not an optimum
        return SDPResult("optimal", float(misdp.b @ y[:m]), y[:m].copy(), it, prim_res, dual_res)
    if not converged:
        return SDPResult("failed", obj, None, it, prim_res, dual_res)
    return SDPResult("optimal", obj, y.copy(), it, prim_res, dual_res)
