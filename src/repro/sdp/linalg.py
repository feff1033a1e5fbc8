"""Symmetric-matrix helpers for the SDP machinery."""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg import LinAlgError, lapack


@functools.cache
def _evr_workspace(n: int) -> dict[str, int]:
    work, iwork, _info = lapack.dsyevr_lwork(n, lower=1)  # queried once per order
    return {"lwork": int(work), "liwork": int(iwork)}


def _eigh(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.linalg.eigh(M)`` bit for bit: its default LAPACK call (``dsyevr``,
    lower triangle, same workspace) without its per-call argument handling."""
    if not np.isfinite(M).all():
        raise ValueError("array must not contain infs or NaNs")
    vals, vecs, _m, _isuppz, info = lapack.dsyevr(M, lower=1, **_evr_workspace(M.shape[0]))
    if info != 0:
        raise LinAlgError(f"dsyevr failed (info={info})")
    return vals, vecs


def min_eig(M: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and a corresponding unit eigenvector."""
    vals, vecs = _eigh(np.asarray(M, dtype=float))
    return float(vals[0]), vecs[:, 0]


def eig_pairs_below(M: np.ndarray, threshold: float) -> list[tuple[float, np.ndarray]]:
    """All (eigenvalue, eigenvector) pairs with eigenvalue < threshold."""
    vals, vecs = _eigh(np.asarray(M, dtype=float))
    return [(float(vals[i]), vecs[:, i]) for i in range(len(vals)) if vals[i] < threshold]


def project_psd(M: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the PSD cone (eigenvalue clipping)."""
    M = np.asarray(M, dtype=float)
    if M.shape == (1, 1):
        return np.maximum(M, 0.0)
    vals, vecs = _eigh(M)
    if vals[0] >= 0.0:
        return M
    pos = vals > 0.0
    if not np.any(pos):
        return np.zeros_like(M)
    V = vecs[:, pos]
    return (V * vals[pos]) @ V.T


def sym(M: np.ndarray) -> np.ndarray:
    """Symmetrize (numerical hygiene after accumulated updates)."""
    return 0.5 * (M + M.T)
