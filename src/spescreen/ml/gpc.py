"""Binary Gaussian-process classification with a Laplace approximation.

Kernel: constant variance times an isotropic RBF. The hyperparameters
maximise the Laplace approximation to the log marginal likelihood within
bounds, over (log sigma2, log lengthscale): L-BFGS-B with its analytic
gradient (Rasmussen & Williams 2006, Alg. 5.1). The surface can be flat
and hold several optima, so L-BFGS-B starts from (1, 1) and from the
points of a fixed 7x7 log-grid over the bounds whose value lies within one
nat of the grid's best (above 30 records, only those that no grid
neighbour beats); the fit keeps the highest point a search reached.
Logistic link; predictive probabilities integrate the link over the latent
Gaussian with Gauss-Hermite quadrature.

The posterior mode follows the stable B-matrix Newton scheme of Rasmussen
& Williams (2006), Alg. 3.1/3.2. A fit computes the squared-distance
matrix of its inputs once; every marginal-likelihood evaluation only
rescales it. Two rules make a search evaluation cheaper, and only a search
evaluation. (1) Warm start, as in GPML's infLaplace (Rasmussen & Nickisch
2010): the mode starts from the previous evaluation's a when that beats
f = 0, halving any Newton step that lowers the objective; the 49 grid
points chain in row order and each L-BFGS-B search starts its chain cold.
(2) Kernel floor: entries whose exponent 0.5 d2 / lengthscale^2 exceeds
100 are set to 0, which keeps potrf out of subnormal arithmetic at short
lengthscales. ``GPCModel.search_newton_steps`` counts the Newton steps of
the search. The final fit of ``gpc_train``, a pinned fit and
``gpc_predict`` run cold and unfloored.

Factorisations and triangular solves call LAPACK ``potrf`` and ``trtrs``
directly, with the arguments scipy's ``cholesky`` and
``solve_triangular`` would pass, so results are bit-identical to the
wrapped calls. The finiteness checks those wrappers made live in
``gpc_train`` (the inputs, once), in ``_laplace_mode`` (the latent vector,
after each Newton step) and in ``gpc_predict`` (the query kernel);
each raises ``ValueError``. The LAPACK routines are looked up at the first
factorisation and ``gpc_train`` imports ``minimize`` when it searches, so
importing this module loads no scipy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

SIGMA2_BOUNDS = (1e-3, 1e3)
LENGTHSCALE_BOUNDS = (1e-2, 1e2)

_NOT_FINITE = "array must not contain infs or NaNs"
# a search kernel entry whose exponent 0.5 d2 / lengthscale^2 exceeds this
# is below sigma2 * 4e-44, far under one ulp of B's unit diagonal; set to 0,
# it keeps potrf's fill-in out of slow subnormal arithmetic
_EXPONENT_FLOOR = 100.0
_MAX_HALVINGS = 10    # step halvings per Newton step of a warm-started mode


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


@functools.cache
def _lapack():
    """LAPACK (potrf, trtrs) for float64, looked up at the first call."""
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(("potrf", "trtrs"), dtype=np.float64)


def _cholesky_lower(B):
    """Lower Cholesky factor (Fortran order); B may be overwritten."""
    potrf, _ = _lapack()
    L, info = potrf(B, lower=1, clean=1, overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    return L


def _solve_lower(L, rhs, trans=0):
    """Solve L x = rhs (trans=0) or L^T x = rhs (trans=1)."""
    _, trtrs = _lapack()
    x, info = trtrs(L, rhs, lower=1, trans=trans)
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


def _laplace_mode(K, y, tol=1e-10, max_iter=200, a0=None):
    """Newton iteration for the posterior mode (stable B-matrix form).

    Starts from f = K a0 when Psi(K a0) = -a0.f/2 + log p(y|f) beats
    Psi(0) = -n log 2, else from f = 0. A cold solve takes full Newton
    steps; a warm one halves (up to _MAX_HALVINGS times) a step that lowers
    Psi by more than tol. Returns f, a (with f = K a), pi, sqrt(W), chol(B),
    grad_norm, the log marginal likelihood, the number of Newton steps and
    whether the objective reached tol.
    """
    n = len(y)
    eye = np.eye(n)
    sign = -(2.0 * y - 1.0)

    def psi(a, f):
        # -a.f / 2 + log p(y|f) for the logistic link
        return -0.5 * (a @ f) - np.logaddexp(0.0, sign * f).sum()

    f = np.zeros(n)
    a = np.zeros(n)
    obj_prev = -np.inf
    warm = False
    if a0 is not None:
        f0 = K @ a0
        obj0 = psi(a0, f0)
        if obj0 > -n * np.log(2.0):
            f, a, obj_prev, warm = f0, a0, obj0, True
    steps = 0
    converged = False
    while steps < max_iter:
        pi, W, sw, L = _factor_b(K, f, eye)
        b = W * f + (y - pi)
        v = _solve_lower(L, sw * (K @ b))
        a_new = b - sw * _solve_lower(L, v, trans=1)
        f_new = K @ a_new
        steps += 1
        if not np.isfinite(f_new).all():
            raise ValueError(_NOT_FINITE)
        obj = psi(a_new, f_new)
        halvings = 0
        while warm and obj < obj_prev - tol and halvings < _MAX_HALVINGS:
            a_new = 0.5 * (a + a_new)
            f_new = K @ a_new
            obj = psi(a_new, f_new)
            halvings += 1
        a, f = a_new, f_new
        if abs(obj - obj_prev) < tol:
            converged = True
            break
        obj_prev = obj
    pi, _, sw, L = _factor_b(K, f, eye)
    grad_norm = float(np.linalg.norm((y - pi) - a))
    logml = psi(a, f) - np.log(np.diagonal(L)).sum()
    return f, a, pi, sw, L, grad_norm, float(logml), steps, converged


def _neg_log_q(d2, y, log_theta, gradient=True, a0=None, d2_max=None):
    """-log q(y | theta), its gradient in (log sigma2, log lengthscale) (None
    if gradient=False), the mode's a and the Newton steps taken.

    Rasmussen & Williams (2006), Alg. 5.1, from the Laplace mode's f, a, pi,
    sqrt(W) and chol(B). With W = pi (1 - pi) the implicit term is
    s2 = +1/2 diag((K^-1 + W)^-1) d3, where d3 = -pi (1 - pi) (1 - 2 pi) is
    the third derivative of log p(y|f). The mode starts from a0 (see
    `_laplace_mode`). Given d2_max = d2.max(), kernel entries whose exponent
    0.5 d2 / lengthscale^2 exceeds _EXPONENT_FLOOR are set to 0.
    """
    s2 = float(np.clip(np.exp(log_theta[0]), *SIGMA2_BOUNDS))
    ls = float(np.clip(np.exp(log_theta[1]), *LENGTHSCALE_BOUNDS))
    K = _rbf(d2, s2, ls)
    cut = 2.0 * _EXPONENT_FLOOR * ls**2
    if d2_max is not None and d2_max > cut:
        K[d2 > cut] = 0.0
    f, a, pi, sw, L, _, logml, steps, _ = _laplace_mode(K, y, a0=a0)
    if not gradient:
        return -logml, None, a, steps
    R = sw[:, None] * _solve_lower(L, _solve_lower(L, np.diag(sw)), trans=1)
    C = _solve_lower(L, sw[:, None] * K)
    d3 = -pi * (1.0 - pi) * (1.0 - 2.0 * pi)
    implicit = 0.5 * (np.diagonal(K) - (C * C).sum(axis=0)) * d3
    dlogp = y - pi
    grad = np.empty(2)
    for j, dK in enumerate((K, K * d2 / ls**2)):   # dK / d log theta_j
        explicit = 0.5 * (a @ dK @ a) - 0.5 * (R * dK).sum()
        b = dK @ dlogp
        grad[j] = explicit + implicit @ (b - K @ (R @ b))
    return -logml, -grad, a, steps


@dataclass
class GPCModel:
    x_train: np.ndarray
    y_train: np.ndarray
    sigma2: float
    lengthscale: float
    pi_hat: np.ndarray
    sqrt_w: np.ndarray
    chol_b: np.ndarray
    grad_norm: float
    log_marginal_likelihood: float
    n_evaluations: int            # marginal-likelihood evaluations
    search_newton_steps: int      # Newton steps over those evaluations
    optimizer_converged: bool     # success of the L-BFGS-B search that
                                  # reached the returned point; True if not run
    sigma2_at_bound: bool         # search stopped at a sigma2 bound
    lengthscale_at_bound: bool    # search stopped at a lengthscale bound
    laplace_iterations: int       # Newton steps of the final fit
    laplace_converged: bool       # final fit reached tol before max_iter


def gpc_train(x, y, sigma2: float | None = None,
              lengthscale: float | None = None) -> GPCModel:
    """Fit the Laplace GPC; hyperparameters default to marginal-likelihood
    maximization within SIGMA2_BOUNDS and LENGTHSCALE_BOUNDS. Pass both
    sigma2 and lengthscale, finite and positive, to pin them; pinning one
    alone raises ValueError."""
    if (sigma2 is None) != (lengthscale is None):
        raise ValueError("pin both sigma2 and lengthscale, or neither")
    for name, value in (("sigma2", sigma2), ("lengthscale", lengthscale)):
        if value is not None and not (np.isfinite(value) and value > 0):
            raise ValueError(
                f"{name} must be finite and positive, got {value}")
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
    search_newton_steps = 0
    optimizer_converged = True
    at_bound = (False, False)
    if sigma2 is not None:
        s2, ls = sigma2, lengthscale
    else:
        from scipy.optimize import minimize

        lo = np.log([SIGMA2_BOUNDS[0], LENGTHSCALE_BOUNDS[0]])
        hi = np.log([SIGMA2_BOUNDS[1], LENGTHSCALE_BOUNDS[1]])
        bounds = list(zip(lo, hi))
        seen = []          # per search: lowest value reached and where
        d2_max = float(d2.max())
        a_prev = None      # the previous evaluation's mode: the next a0

        def neg_log_q(log_theta, gradient=True):
            nonlocal n_evaluations, search_newton_steps, a_prev
            n_evaluations += 1
            try:
                value, grad, a_prev, steps = _neg_log_q(
                    d2, y, log_theta, gradient, a0=a_prev, d2_max=d2_max)
            except np.linalg.LinAlgError:
                return (np.inf, np.zeros(2)) if gradient else np.inf
            search_newton_steps += steps
            if not gradient:
                return value
            if value < seen[-1][0]:
                seen[-1] = (value, np.array(log_theta, dtype=float))
            return value, grad

        grid = [np.array([a, b]) for a in np.linspace(lo[0], hi[0], 7)
                for b in np.linspace(lo[1], hi[1], 7)]
        values = np.array([neg_log_q(point, gradient=False)
                           for point in grid]).reshape(7, 7)
        keep = np.isfinite(values) & (values <= values.min() + 1.0)
        if len(y) > 30:
            # up to 30 records the surface is flattest and an evaluation
            # cheapest: search from every near point; above, only from
            # those no grid neighbour beats
            padded = np.pad(values, 1, constant_values=np.inf)
            keep &= values <= np.min([padded[i:i + 7, j:j + 7]
                                      for i in range(3) for j in range(3)],
                                     axis=0)
        starts = [np.clip(0.0, lo, hi)]                  # (1, 1)
        starts += [point for point, start in zip(grid, keep.ravel())
                   if start and not np.array_equal(point, starts[0])]
        success = []
        for point in starts:
            seen.append((np.inf, point))
            a_prev = None
            res = minimize(neg_log_q, point, jac=True, method="L-BFGS-B",
                           bounds=bounds, options={"gtol": 1e-8})
            success.append(bool(res.success))
        # the fit takes the lowest point any search reached; searches within
        # 1e-9 of it tie, and the first wins, so that rounding noise (e.g.
        # the BLAS thread count) does not choose between them
        lowest = min(val for val, _ in seen)
        k = next(k for k, (val, _) in enumerate(seen) if val <= lowest + 1e-9)
        best, optimizer_converged = seen[k][1], success[k]
        at_bound = tuple(bool(t <= l or t >= h)
                         for t, l, h in zip(best, lo, hi))
        s2 = np.clip(np.exp(best[0]), *SIGMA2_BOUNDS)
        ls = np.clip(np.exp(best[1]), *LENGTHSCALE_BOUNDS)

    s2, ls = float(s2), float(ls)
    _, _, pi, sw, L, grad_norm, logml, steps, converged = _laplace_mode(
        _rbf(d2, s2, ls), y)
    return GPCModel(
        x_train=x, y_train=y, sigma2=s2, lengthscale=ls,
        pi_hat=pi, sqrt_w=sw, chol_b=L,
        grad_norm=grad_norm, log_marginal_likelihood=logml,
        n_evaluations=n_evaluations, search_newton_steps=search_newton_steps,
        optimizer_converged=optimizer_converged,
        sigma2_at_bound=at_bound[0], lengthscale_at_bound=at_bound[1],
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
