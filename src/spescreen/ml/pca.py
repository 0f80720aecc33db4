"""Principal component analysis on standardized feature matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..vibronic import canonical_mode_signs


@dataclass
class PCAResult:
    components: np.ndarray          # (k, n_features), rows orthonormal
    scores: np.ndarray              # (n_samples, k)
    explained_variance: np.ndarray  # (k,)
    explained_fraction: np.ndarray  # (k,)


def pca(x, k: int) -> PCAResult:
    """Eigendecomposition of the covariance of (already standardized) data.

    Components come back with descending variance, with the sign rule of
    `vibronic.canonical_mode_signs`: each component's largest-magnitude
    loading is positive, ties going to the first.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a 2D matrix with at least 2 rows")
    n, d = x.shape
    if not 1 <= k <= d:
        raise ValueError(f"component count k={k} outside [1, {d}]")
    xc = x - x.mean(axis=0)
    cov = xc.T @ xc / (n - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    comps = canonical_mode_signs(evecs[:, order].T)
    total = evals.sum()
    frac = evals / total if total > 0 else np.zeros_like(evals)
    return PCAResult(
        components=comps[:k],
        scores=xc @ comps[:k].T,
        explained_variance=evals[:k],
        explained_fraction=frac[:k],
    )
