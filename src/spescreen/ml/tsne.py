"""Exact (dense) t-SNE for desk-scale candidate maps.

Per-point Gaussian bandwidths are calibrated by bisection so every row of
the conditional distribution hits the requested perplexity; gradient
descent runs an early-exaggeration phase followed by a monotone-safeguarded
final phase (a step that increases the KL divergence is reverted and the
learning rate halved).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import squared_euclidean

_EPS = 1e-12
_BANDWIDTH_TOL = 1e-6       # nats
_BANDWIDTH_MAX_ITER = 200
# a 2-D map; exaggeration and the first momentum hold for _EARLY_ITER steps
_N_COMPONENTS = 2
_LEARNING_RATE = 200.0
_EARLY_EXAGGERATION = 12.0
_EARLY_ITER = 250
_MOMENTUM = 0.5
_FINAL_MOMENTUM = 0.8


def _conditional_probs(d2_row, beta):
    """P(j|i) for one row of squared distances at precision beta."""
    logits = -beta * d2_row
    logits -= logits.max()
    p = np.exp(logits)
    p /= p.sum()
    return p


def _row_entropy(d2_row, beta):
    p = _conditional_probs(d2_row, beta)
    nz = p > _EPS
    return -(p[nz] * np.log(p[nz])).sum()


def calibrate_bandwidths(d2, perplexity):
    """Bisection for per-point precisions beta so H(P_i) = log(perplexity),
    to within _BANDWIDTH_TOL nats or _BANDWIDTH_MAX_ITER steps per row.

    Returns (betas, conditional probability matrix with zero diagonal).
    """
    n = d2.shape[0]
    if not 1.0 < perplexity < n:
        raise ValueError(f"perplexity {perplexity} outside (1, {n})")
    target = np.log(perplexity)
    betas = np.ones(n)
    p_cond = np.zeros((n, n))
    for i in range(n):
        row = np.delete(d2[i], i)
        beta, lo, hi = 1.0, 0.0, np.inf
        for _ in range(_BANDWIDTH_MAX_ITER):
            h = _row_entropy(row, beta)
            if abs(h - target) < _BANDWIDTH_TOL:
                break
            if h > target:   # too flat -> sharpen
                lo = beta
                beta = beta * 2.0 if not np.isfinite(hi) else 0.5 * (lo + hi)
            else:
                hi = beta
                beta = beta / 2.0 if lo == 0.0 else 0.5 * (lo + hi)
        betas[i] = beta
        p = _conditional_probs(row, beta)
        p_cond[i, np.arange(n) != i] = p
    return betas, p_cond


def perplexity_error(d2, betas, perplexity):
    """Max |H(P_i) - log(perplexity)| across rows, for verification."""
    n = d2.shape[0]
    target = np.log(perplexity)
    errs = [
        abs(_row_entropy(np.delete(d2[i], i), betas[i]) - target)
        for i in range(n)
    ]
    return float(max(errs))


def _kl_and_grad(p_joint, y):
    n = y.shape[0]
    d2 = squared_euclidean(y)
    num = 1.0 / (1.0 + d2)
    np.fill_diagonal(num, 0.0)
    q = num / num.sum()
    q = np.maximum(q, _EPS)
    kl = float((p_joint * np.log(np.maximum(p_joint, _EPS) / q)).sum())
    pq = (p_joint - q) * num
    grad = 4.0 * ((np.diag(pq.sum(axis=1)) - pq) @ y)
    return kl, grad


@dataclass
class TSNEResult:
    embedding: np.ndarray
    kl_divergence: float
    betas: np.ndarray
    perplexity_error: float
    n_iter: int


def tsne(x, perplexity: float = 50.0, n_iter: int = 1000, seed: int = 0,
         metric: str = "euclidean") -> TSNEResult:
    """Exact t-SNE embedding of a feature matrix.

    With metric="precomputed", x is interpreted as a square matrix of
    pairwise distances instead of a feature matrix; any metric other than
    these two raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if metric == "precomputed":
        if x.shape != (n, n):
            raise ValueError("precomputed distance matrix must be square")
        d2 = x**2
    elif metric == "euclidean":
        d2 = squared_euclidean(x)
    else:
        raise ValueError(f"unknown metric '{metric}': use 'euclidean' or "
                         "'precomputed'")
    betas, p_cond = calibrate_bandwidths(d2, perplexity)
    perr = perplexity_error(d2, betas, perplexity)
    p_joint = (p_cond + p_cond.T) / (2.0 * n)
    p_joint = np.maximum(p_joint, _EPS)

    rng = np.random.default_rng(seed)
    y = 1e-4 * rng.standard_normal((n, _N_COMPONENTS))
    vel = np.zeros_like(y)
    lr = _LEARNING_RATE
    kl_prev = np.inf
    it = 0
    for it in range(1, n_iter + 1):
        exagg = _EARLY_EXAGGERATION if it <= _EARLY_ITER else 1.0
        mom = _MOMENTUM if it <= _EARLY_ITER else _FINAL_MOMENTUM
        kl, grad = _kl_and_grad(p_joint * exagg, y)
        if it > _EARLY_ITER:
            # monotone safeguard: never accept a KL increase
            if kl > kl_prev + 1e-12:
                y = y_prev
                vel = np.zeros_like(y)
                lr *= 0.5
                if lr < 1e-6:
                    break
                continue
            kl_prev = kl
        y_prev = y
        vel = mom * vel - lr * grad
        y = y + vel
        y = y - y.mean(axis=0)
    kl_final, _ = _kl_and_grad(p_joint, y)
    return TSNEResult(embedding=y, kl_divergence=kl_final, betas=betas,
                      perplexity_error=perr, n_iter=it)
