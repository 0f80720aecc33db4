"""Binary Gaussian-process classification with a Laplace approximation.

Kernel: constant variance times an isotropic RBF, with hyperparameters
optimized over bounded log-space (coarse grid multi-start followed by
Nelder-Mead refinement of the approximate log marginal likelihood).
Logistic link; predictive probabilities integrate the link over the
latent Gaussian with Gauss-Hermite quadrature.

The posterior mode follows the stable B-matrix Newton scheme of Rasmussen
& Williams (2006), Alg. 3.1/3.2. A fit computes the squared-distance
matrix of its inputs once; every marginal-likelihood evaluation only
rescales it. Factorisations and triangular solves call LAPACK ``potrf`` and
``trtrs`` directly, with the arguments scipy's ``cholesky`` and
``solve_triangular`` would pass, so results are bit-identical to the
wrapped calls. The finiteness checks those wrappers made live in
``gpc_train`` (the inputs, once), in ``_laplace_mode`` (the latent vector,
after each Newton step) and in ``gpc_predict`` (the query kernel);
each raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.optimize import minimize

DEFAULT_SIGMA2_BOUNDS = (1e-3, 1e3)
DEFAULT_LENGTHSCALE_BOUNDS = (1e-2, 1e2)

_POTRF, _TRTRS = get_lapack_funcs(("potrf", "trtrs"), dtype=np.float64)
_NOT_FINITE = "array must not contain infs or NaNs"


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _sqdist(xa, xb):
    return ((xa[:, None, :] - xb[None, :, :]) ** 2).sum(axis=2)


def _rbf(d2, sigma2, lengthscale):
    return sigma2 * np.exp(-0.5 * d2 / lengthscale**2)


def rbf_kernel(xa, xb, sigma2, lengthscale):
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    return _rbf(_sqdist(xa, xb), sigma2, lengthscale)


def _cholesky_lower(B):
    """Lower Cholesky factor (Fortran order); B may be overwritten."""
    L, info = _POTRF(B, lower=1, clean=1, overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    return L


def _solve_lower(L, rhs, trans=0):
    """Solve L x = rhs (trans=0) or L^T x = rhs (trans=1)."""
    x, info = _TRTRS(L, rhs, lower=1, trans=trans)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def _factor_b(K, f, eye):
    """pi, W, sqrt(W) at f and the Cholesky factor of B = I + W^½ K W^½."""
    pi = _sigmoid(f)
    W = pi * (1.0 - pi)
    sw = np.sqrt(W)
    B = sw[:, None] * K * sw[None, :]
    B += eye    # K >= 0, so 0.0 + x == x: the bits of eye + sw K sw
    return pi, W, sw, _cholesky_lower(B)


def _laplace_mode(K, y, tol=1e-10, max_iter=200):
    """Newton iteration for the posterior mode (stable B-matrix form).

    Returns f, pi, sqrt(W), chol(B), grad_norm, the log marginal likelihood,
    the number of Newton steps and whether the objective reached tol.
    """
    n = len(y)
    eye = np.eye(n)
    sign = -(2.0 * y - 1.0)
    f = np.zeros(n)
    a = np.zeros(n)
    obj_prev = -np.inf
    steps = 0
    converged = False
    while steps < max_iter:
        pi, W, sw, L = _factor_b(K, f, eye)
        b = W * f + (y - pi)
        v = _solve_lower(L, sw * (K @ b))
        a = b - sw * _solve_lower(L, v, trans=1)
        f = K @ a
        steps += 1
        if not np.isfinite(f).all():
            raise ValueError(_NOT_FINITE)
        # log p(y|f) for logistic link
        loglik = -np.logaddexp(0.0, sign * f).sum()
        obj = -0.5 * (a @ f) + loglik
        if abs(obj - obj_prev) < tol:
            converged = True
            break
        obj_prev = obj
    pi, _, sw, L = _factor_b(K, f, eye)
    grad_norm = float(np.linalg.norm((y - pi) - a))
    logml = (-0.5 * (a @ f)
             - np.logaddexp(0.0, sign * f).sum()
             - np.log(np.diagonal(L)).sum())
    return f, pi, sw, L, grad_norm, float(logml), steps, converged


@dataclass
class GPCModel:
    x_train: np.ndarray
    y_train: np.ndarray
    sigma2: float
    lengthscale: float
    f_hat: np.ndarray
    pi_hat: np.ndarray
    sqrt_w: np.ndarray
    chol_b: np.ndarray
    grad_norm: float
    log_marginal_likelihood: float
    n_evaluations: int            # marginal-likelihood evaluations
    optimizer_converged: bool     # Nelder-Mead success; True if not run
    laplace_iterations: int       # Newton steps of the final fit
    laplace_converged: bool       # final fit reached tol before max_iter


def gpc_train(x, y, sigma2_bounds=DEFAULT_SIGMA2_BOUNDS,
              lengthscale_bounds=DEFAULT_LENGTHSCALE_BOUNDS,
              grid_size: int = 7, optimize: bool = True,
              sigma2: float | None = None,
              lengthscale: float | None = None) -> GPCModel:
    """Fit the Laplace GPC; hyperparameters default to marginal-likelihood
    maximization within bounds (pass sigma2/lengthscale to pin them)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if not np.isfinite(x).all():
        raise ValueError(_NOT_FINITE)
    if set(np.unique(y)) - {0.0, 1.0}:
        raise ValueError("labels must be binary 0/1")
    if len(np.unique(y)) < 2:
        raise ValueError("training set must contain both classes")
    d2 = _sqdist(x, x)
    n_evaluations = 0

    def neg_logml(log_theta):
        nonlocal n_evaluations
        n_evaluations += 1
        s2 = float(np.clip(np.exp(log_theta[0]), *sigma2_bounds))
        ls = float(np.clip(np.exp(log_theta[1]), *lengthscale_bounds))
        try:
            logml = _laplace_mode(_rbf(d2, s2, ls), y)[5]
        except np.linalg.LinAlgError:
            return np.inf
        return -logml

    optimizer_converged = True
    if sigma2 is not None and lengthscale is not None:
        best = (sigma2, lengthscale)
    elif not optimize:
        best = (1.0, 1.0)
    else:
        s2_grid = np.exp(np.linspace(*np.log(sigma2_bounds), grid_size))
        ls_grid = np.exp(np.linspace(*np.log(lengthscale_bounds), grid_size))
        best_val = np.inf
        best = (1.0, 1.0)
        for s2 in s2_grid:
            for ls in ls_grid:
                val = neg_logml(np.log([s2, ls]))
                if val < best_val:
                    best_val = val
                    best = (s2, ls)
        res = minimize(neg_logml, np.log(best), method="Nelder-Mead",
                       options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 500})
        optimizer_converged = bool(res.success)
        if res.fun < best_val:
            best = tuple(np.clip(np.exp(res.x),
                                 [sigma2_bounds[0], lengthscale_bounds[0]],
                                 [sigma2_bounds[1], lengthscale_bounds[1]]))

    s2, ls = float(best[0]), float(best[1])
    f, pi, sw, L, grad_norm, logml, steps, converged = _laplace_mode(
        _rbf(d2, s2, ls), y)
    return GPCModel(
        x_train=x, y_train=y, sigma2=s2, lengthscale=ls,
        f_hat=f, pi_hat=pi, sqrt_w=sw, chol_b=L,
        grad_norm=grad_norm, log_marginal_likelihood=logml,
        n_evaluations=n_evaluations, optimizer_converged=optimizer_converged,
        laplace_iterations=steps, laplace_converged=converged,
    )


_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(64)


def gpc_predict(model: GPCModel, x_star) -> np.ndarray:
    """Predictive probability of class 1 at each query point."""
    x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
    ks = rbf_kernel(x_star, model.x_train, model.sigma2, model.lengthscale)
    mean = ks @ (model.y_train - model.pi_hat)
    if not np.isfinite(ks).all():
        raise ValueError(_NOT_FINITE)
    v = _solve_lower(model.chol_b, model.sqrt_w[:, None] * ks.T)
    var = model.sigma2 - (v**2).sum(axis=0)
    var = np.clip(var, 0.0, None)
    z = mean[:, None] + np.sqrt(2.0 * var)[:, None] * _GH_NODES[None, :]
    probs = (_GH_WEIGHTS[None, :] * _sigmoid(z)).sum(axis=1) / np.sqrt(np.pi)
    return np.clip(probs, 1e-12, 1.0 - 1e-12)
