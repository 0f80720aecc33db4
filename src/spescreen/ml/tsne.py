"""Exact (dense) t-SNE for desk-scale candidate maps.

`tsne` takes an (n, n) matrix of squared distances: the map stage passes
squared Tanimoto distances (1 - similarity)**2, a caller with features
squared_euclidean(x).
Per-point Gaussian bandwidths are calibrated by bisection so every row of
the conditional distribution hits the requested perplexity; gradient
descent runs an early-exaggeration phase followed by a monotone-safeguarded
final phase (a step that increases the KL divergence is reverted and the
learning rate halved).

The bisection runs on all rows at once, on the (n, n-1) matrix of
off-diagonal squared distances, and gives the betas a per-row bisection
gives, bit for bit: each row keeps its own beta/lo/hi sequence and leaves
the active set once its entropy is within _BANDWIDTH_TOL. A row whose
off-diagonal distances are all equal never enters it: its P row is
uniform, and its entropy the same, at every beta. A row's entropy
sums p log p over exactly its entries p > _EPS, in order. A row with no
entry at or below _EPS takes the batched row sum, which numpy groups as it
groups the sum of that row alone; a row with such entries sums its
compacted entries on its own, because zeros left in place would change
how the pairwise sum groups the terms.

The gradient loop scales P by the exaggeration once per phase, skips the
KL divergence in the early phase (where it is not used), and forms the
gradient's Laplacian in place with the same arithmetic as
np.diag(pq.sum(axis=1)) - pq, signs of zeros included.
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


def _off_diagonal(d2):
    """The (n, n-1) matrix whose row i is d2[i] without its entry i."""
    n = d2.shape[0]
    return d2[~np.eye(n, dtype=bool)].reshape(n, n - 1)


def _conditional_probs(off, betas):
    """P(j|i) for rows of squared distances, row i at precision betas[i]."""
    logits = -betas[:, None] * off
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    return p


def _entropies(off, betas):
    """Shannon entropy of each row of _conditional_probs(off, betas)."""
    p = _conditional_probs(off, betas)
    nz = p > _EPS
    full = nz.all(axis=1)
    h = np.empty(len(p))
    pf = p[full]
    h[full] = -(pf * np.log(pf)).sum(axis=1)
    for i in np.flatnonzero(~full):
        pi = p[i, nz[i]]
        h[i] = -(pi * np.log(pi)).sum()
    return h


def calibrate_bandwidths(d2, perplexity):
    """Bisection for per-point precisions beta so H(P_i) = log(perplexity),
    to within _BANDWIDTH_TOL nats or _BANDWIDTH_MAX_ITER steps per row.

    Returns (betas, conditional probability matrix with zero diagonal).
    """
    n = d2.shape[0]
    if not 1.0 < perplexity < n:
        raise ValueError(f"perplexity {perplexity} outside (1, {n})")
    target = np.log(perplexity)
    off = _off_diagonal(d2)
    betas = np.ones(n)
    # the rows still bisecting, their distances and their bisection state;
    # a row at one distance from all others has a uniform P(j|i) at every
    # beta, so it keeps beta = 1 and never enters the bisection
    rows = np.flatnonzero(~(off == off[:, :1]).all(axis=1))
    act = off[rows]
    m = len(rows)
    beta, lo, hi = np.ones(m), np.zeros(m), np.full(m, np.inf)
    for _ in range(_BANDWIDTH_MAX_ITER):
        if not len(rows):
            break
        h = _entropies(act, beta)
        go = ~(np.abs(h - target) < _BANDWIDTH_TOL)
        if not go.all():
            betas[rows[~go]] = beta[~go]
            rows, act, h = rows[go], act[go], h[go]
            beta, lo, hi = beta[go], lo[go], hi[go]
        up = h > target      # too flat -> sharpen
        lo = np.where(up, beta, lo)
        hi = np.where(up, hi, beta)
        mid = 0.5 * (lo + hi)
        beta = np.where(up, np.where(np.isfinite(hi), mid, beta * 2.0),
                        np.where(lo == 0.0, beta / 2.0, mid))
    betas[rows] = beta
    p_cond = np.zeros((n, n))
    p_cond[~np.eye(n, dtype=bool)] = _conditional_probs(off, betas).ravel()
    return betas, p_cond


def _entropy_errors(d2, betas, perplexity):
    """|H(P_i) - log(perplexity)| of each row."""
    return np.abs(_entropies(_off_diagonal(d2), betas) - np.log(perplexity))


def _max_error(errors):
    """The largest row error by Python's max, so a NaN row is kept or
    passed over as it always was."""
    return float(max(errors.tolist()))


def perplexity_error(d2, betas, perplexity):
    """Max |H(P_i) - log(perplexity)| across rows, for verification."""
    return _max_error(_entropy_errors(d2, betas, perplexity))


def _kl(p_joint, q):
    return float((p_joint * np.log(p_joint / q)).sum())


def _affinities(y):
    """Student-t kernel 1 / (1 + |y_i - y_j|^2), zero diagonal, and Q."""
    num = squared_euclidean(y)
    num += 1.0
    np.reciprocal(num, out=num)
    np.fill_diagonal(num, 0.0)
    q = num / num.sum()
    np.maximum(q, _EPS, out=q)
    return num, q


def _grad(p, num, q, y):
    pq = p - q
    pq *= num
    s = pq.sum(axis=1)
    diag = s - pq.diagonal()
    np.subtract(0.0, pq, out=pq)
    np.fill_diagonal(pq, diag)
    return 4.0 * (pq @ y)


@dataclass
class TSNEResult:
    embedding: np.ndarray
    kl_divergence: float
    betas: np.ndarray
    perplexity_error: float
    n_iter: int
    # final-phase steps reverted because they raised the KL divergence
    lr_halvings: int
    # rows whose entropy the calibration left outside _BANDWIDTH_TOL
    rows_off_target: np.ndarray


def tsne(d2, perplexity: float = 50.0, n_iter: int = 1000,
         seed: int = 0) -> TSNEResult:
    """Exact t-SNE embedding from an (n, n) matrix of squared distances.

    Callers holding a feature matrix x pass squared_euclidean(x); a
    matrix that is not square raises ValueError.
    """
    d2 = np.asarray(d2, dtype=float)
    n = d2.shape[0]
    if d2.shape != (n, n):
        raise ValueError("squared distance matrix must be square")
    betas, p_cond = calibrate_bandwidths(d2, perplexity)
    # one pass over the rows' entropies gives both calibration diagnostics
    errors = _entropy_errors(d2, betas, perplexity)
    perr = _max_error(errors)
    off_target = np.flatnonzero(~(errors < _BANDWIDTH_TOL))
    p_joint = (p_cond + p_cond.T) / (2.0 * n)
    # the floor also keeps every P / Q finite in the KL divergence
    p_joint = np.maximum(p_joint, _EPS)
    p_early = p_joint * _EARLY_EXAGGERATION

    rng = np.random.default_rng(seed)
    y = 1e-4 * rng.standard_normal((n, _N_COMPONENTS))
    vel = np.zeros_like(y)
    lr = _LEARNING_RATE
    kl_prev = np.inf
    halvings = 0
    it = 0
    for it in range(1, n_iter + 1):
        num, q = _affinities(y)
        if it <= _EARLY_ITER:
            grad = _grad(p_early, num, q, y)
            mom = _MOMENTUM
        else:
            kl = _kl(p_joint, q)
            # monotone safeguard: never accept a KL increase
            if kl > kl_prev + 1e-12:
                y = y_prev
                vel = np.zeros_like(y)
                lr *= 0.5
                halvings += 1
                if lr < 1e-6:
                    break
                continue
            kl_prev = kl
            grad = _grad(p_joint, num, q, y)
            mom = _FINAL_MOMENTUM
        y_prev = y
        vel = mom * vel - lr * grad
        y = y + vel
        y = y - y.mean(axis=0)
    kl_final = _kl(p_joint, _affinities(y)[1])
    return TSNEResult(embedding=y, kl_divergence=kl_final, betas=betas,
                      perplexity_error=perr, n_iter=it,
                      lr_halvings=halvings, rows_off_target=off_target)
