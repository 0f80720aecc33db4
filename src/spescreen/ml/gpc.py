"""Binary Gaussian-process classification with a Laplace approximation.

Kernel: constant variance times an isotropic RBF. The hyperparameters
maximise the Laplace approximation to the log marginal likelihood within
bounds, over (log sigma2, log lengthscale): L-BFGS-B with its analytic
gradient (Rasmussen & Williams 2006, Alg. 5.1). The surface can be flat
and hold several optima, so L-BFGS-B starts from (1, 1) and from the
points of a fixed 7x7 log-grid over the bounds whose value lies within one
nat of the grid's best (above 30 records, only those that no grid
neighbour beats); the fit keeps the highest point a search reached. A
search stops on a projected gradient below 1e-8 or on scipy's relative
decrease test, whose tolerance is scaled down where the grid's best log q
lies closer to its sigma2 -> 0 limit, -n log 2, than to zero.
Logistic link; predictive probabilities integrate the link over the latent
Gaussian with Gauss-Hermite quadrature.

The posterior mode follows the stable B-matrix Newton scheme of Rasmussen
& Williams (2006), Alg. 3.1/3.2. A fit computes the squared-distance
matrix of its inputs once; every marginal-likelihood evaluation only
rescales it. Three rules make a search evaluation cheaper, and only a
search evaluation; each one goes through ``_laplace_mode``.
(1) Warm start, as in GPML's infLaplace (Rasmussen & Nickisch 2010): the
first evaluation starts cold, and every later one starts its mode from the
a of the evaluated (log sigma2, log lengthscale) nearest to it, the
earliest on ties, when that beats f = 0, halving any Newton step that
lowers the objective. (2) Kernel floor: entries whose exponent
0.5 d2 / lengthscale^2 exceeds 100 are set to 0, which keeps potrf out of
subnormal arithmetic at short lengthscales; where at least 80% of the
entries are floored, exp runs only on the others, since exp over entries
that underflow is slow. (3) Diagonal kernel: when the
floor would zero every entry off the diagonal of a value-only (grid)
evaluation, the mode gets K = sigma2 I as the vector of its diagonal, and
the Newton loop multiplies, takes square roots and divides where it would
call matmul, potrf and trtrs; an evaluation with a gradient keeps the
dense kernel. ``GPCModel.search_newton_steps`` counts the Newton steps of
the search. The final fit of ``gpc_train``, a pinned fit and
``gpc_predict`` run cold and unfloored.

``gpc_predict`` works through its queries in fixed blocks of
_PREDICT_BLOCK rows (Rasmussen & Williams 2006, Alg. 3.2, is independent
per query point), so its memory is bounded by the block and the training
set, not the number of queries. Each step of a block is per query row: with
one BLAS thread (the ``OPENBLAS_NUM_THREADS=1`` the reproducibility
contract asks for) the probabilities are bit-identical to one pass over all
rows, while threaded BLAS may split a block's products otherwise and move
last digits.

Factorisations and triangular solves call LAPACK ``potrf`` and ``trtrs``
directly, with the arguments scipy's ``cholesky`` and
``solve_triangular`` would pass, so results are bit-identical to the
wrapped calls. A mode forms B = I + W^½ K W^½ in one Fortran-ordered
buffer, which each Newton step refills and potrf factors in place. The
gradient inverts chol(B) = L once with ``trtri``: with the triangular
Y = L^-1 W^½ it takes W^½ B^-1 W^½ = Y^T Y by matmul and L^-1 W^½ K = Y K
by BLAS ``trmm``. The finiteness checks scipy's wrappers made live in
``gpc_train`` (the inputs, once), in ``_laplace_mode`` (the latent vector,
after each Newton step) and in ``gpc_predict`` (the query kernel); each
raises ``ValueError``. The LAPACK routines (``potrf``, ``trtrs``,
``trtri``) and ``trmm`` are looked up at their first use and ``gpc_train``
imports ``minimize`` when it searches, so importing this module loads no
scipy.
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
# exp over a kernel whose entries underflow is slow; where at least this
# share of the entries is floored, exp runs only on the kept ones (masked
# exp costs more per entry, so a sparser floor keeps the full one)
_SPARSE_EXP_SHARE = 0.8
_MAX_HALVINGS = 10    # step halvings per Newton step of a warm-started mode
_LBFGSB_FTOL = 2.220446049250313e-09   # scipy's default: factr 1e7 * eps


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _sqdist(xa, xb):
    diff = xa[:, None, :] - xb[None, :, :]
    return np.square(diff, out=diff).sum(axis=2)     # the ufunc ** 2 calls


def _rbf(d2, sigma2, lengthscale, keep=None):
    """sigma2 exp(-d2 / (2 lengthscale^2)); given a boolean mask `keep`,
    exp runs only where it holds and every other entry is 0."""
    if keep is None:
        return sigma2 * np.exp(-0.5 * d2 / lengthscale**2)
    K = np.exp(-0.5 * d2 / lengthscale**2, out=np.zeros_like(d2), where=keep)
    K *= sigma2
    return K


def rbf_kernel(xa, xb, sigma2, lengthscale):
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    return _rbf(_sqdist(xa, xb), sigma2, lengthscale)


@functools.cache
def _lapack():
    """LAPACK potrf, trtrs and trtri and BLAS trmm for float64, looked up
    at the first call."""
    from scipy.linalg import get_blas_funcs, get_lapack_funcs

    return (*get_lapack_funcs(("potrf", "trtrs", "trtri"), dtype=np.float64),
            get_blas_funcs("trmm", dtype=np.float64))


def _cholesky_lower(B, clean=1):
    """Lower Cholesky factor (Fortran order); B may be overwritten. With
    clean=0 the strict upper triangle keeps B's entries."""
    potrf = _lapack()[0]
    L, info = potrf(B, lower=1, clean=clean, overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    return L


def _solve_lower(L, rhs, trans=0):
    """Solve L x = rhs (trans=0) or L^T x = rhs (trans=1); a vector L is a
    diagonal factor."""
    if L.ndim == 1:
        return rhs / L
    trtrs = _lapack()[1]
    x, info = trtrs(L, rhs, lower=1, trans=trans)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def _factor_b(K, f, B, clean=1):
    """pi, W, sqrt(W) at f and the Cholesky factor of B = I + W^½ K W^½,
    formed and factored (see `_cholesky_lower`) in the Fortran-ordered
    buffer B. For a diagonal K, passed as a vector, the factor is the
    vector sqrt(diag B)."""
    pi = _sigmoid(f)
    W = pi * (1.0 - pi)
    sw = np.sqrt(W)
    if K.ndim == 1:
        return pi, W, sw, np.sqrt(sw * K * sw + 1.0)
    # K is symmetric bit for bit, so its Fortran-ordered view K.T gives each
    # entry the bits of sw_i K_ij sw_j without a transposing copy
    np.multiply(sw[:, None], K.T, out=B)
    B *= sw
    np.einsum("ii->i", B)[:] += 1.0
    return pi, W, sw, _cholesky_lower(B, clean)


def _laplace_mode(K, y, tol=1e-10, max_iter=200, a0=None):
    """Newton iteration for the posterior mode (stable B-matrix form).

    Starts from f = K a0 when Psi(K a0) = -a0.f/2 + log p(y|f) beats
    Psi(0) = -n log 2, else from f = 0. A cold solve takes full Newton
    steps; a warm one halves (up to _MAX_HALVINGS times) a step that lowers
    Psi by more than tol. Returns f, a (with f = K a), pi, sqrt(W), chol(B),
    grad_norm, the log marginal likelihood, the number of Newton steps and
    whether the objective reached tol. A diagonal K may be passed as the
    vector of its diagonal: the same loop then multiplies elementwise and
    its chol(B) is a vector.
    """
    n = len(y)
    dot = np.multiply if K.ndim == 1 else np.matmul    # K times a vector
    B = np.empty((n, n), order="F") if K.ndim == 2 else None
    sign = -(2.0 * y - 1.0)

    def psi(a, f):
        # -a.f / 2 + log p(y|f) for the logistic link
        return -0.5 * (a @ f) - np.logaddexp(0.0, sign * f).sum()

    f = np.zeros(n)
    a = np.zeros(n)
    obj_prev = -np.inf
    warm = False
    if a0 is not None:
        f0 = dot(K, a0)
        obj0 = psi(a0, f0)
        if obj0 > -n * np.log(2.0):
            f, a, obj_prev, warm = f0, a0, obj0, True
    steps = 0
    converged = False
    while steps < max_iter:
        # the step only solves with L: its upper triangle is never read
        pi, W, sw, L = _factor_b(K, f, B, clean=0)
        b = W * f + (y - pi)
        v = _solve_lower(L, sw * dot(K, b))
        a_new = b - sw * _solve_lower(L, v, trans=1)
        f_new = dot(K, a_new)
        steps += 1
        if not np.isfinite(f_new).all():
            raise ValueError(_NOT_FINITE)
        obj = psi(a_new, f_new)
        halvings = 0
        while warm and obj < obj_prev - tol and halvings < _MAX_HALVINGS:
            a_new = 0.5 * (a + a_new)
            f_new = dot(K, a_new)
            obj = psi(a_new, f_new)
            halvings += 1
        a, f = a_new, f_new
        if abs(obj - obj_prev) < tol:
            converged = True
            break
        obj_prev = obj
    pi, _, sw, L = _factor_b(K, f, B)
    grad_norm = float(np.linalg.norm((y - pi) - a))
    logml = psi(a, f) - np.log(L if L.ndim == 1 else np.diagonal(L)).sum()
    return f, a, pi, sw, L, grad_norm, float(logml), steps, converged


def _neg_log_q(d2, y, log_theta, gradient=True, a0=None, d2_max=None,
               d2_min=None):
    """-log q(y | theta), its gradient in (log sigma2, log lengthscale) (None
    if gradient=False), the mode's a and the Newton steps taken.

    Rasmussen & Williams (2006), Alg. 5.1, from the Laplace mode's f, a, pi,
    sqrt(W) and chol(B). With W = pi (1 - pi) the implicit term is
    s2 = +1/2 diag((K^-1 + W)^-1) d3, where d3 = -pi (1 - pi) (1 - 2 pi) is
    the third derivative of log p(y|f). The mode starts from a0 (see
    `_laplace_mode`). Given d2_max = d2.max(), kernel entries whose exponent
    0.5 d2 / lengthscale^2 exceeds _EXPONENT_FLOOR are set to 0; where a
    share of at least _SPARSE_EXP_SHARE is, exp runs only on the others,
    with the same bits. Given also
    d2_min, the smallest entry off the diagonal of d2, a value-only
    evaluation whose floor zeroes every entry off the diagonal passes the
    mode the diagonal sigma2 I as a vector.
    """
    s2 = float(np.clip(np.exp(log_theta[0]), *SIGMA2_BOUNDS))
    ls = float(np.clip(np.exp(log_theta[1]), *LENGTHSCALE_BOUNDS))
    cut = 2.0 * _EXPONENT_FLOOR * ls**2
    if not gradient and d2_min is not None and d2_min > cut:
        K = np.full(len(y), s2)    # the diagonal d2 is 0: K_ii = s2 exactly
    elif d2_max is None or d2_max <= cut:
        K = _rbf(d2, s2, ls)
    else:
        floored = d2 > cut
        if np.count_nonzero(floored) >= _SPARSE_EXP_SHARE * floored.size:
            K = _rbf(d2, s2, ls, ~floored)
        else:
            K = _rbf(d2, s2, ls)
            K[floored] = 0.0
    f, a, pi, sw, L, _, logml, steps, _ = _laplace_mode(K, y, a0=a0)
    if not gradient:
        return -logml, None, a, steps
    # one inverse factor: Y = L^-1 W^½, so W^½ B^-1 W^½ = Y^T Y and
    # L^-1 W^½ K = Y K (trmm, on K's Fortran-ordered view K.T); potrf left
    # L a positive diagonal, so trtri succeeds
    _, _, trtri, trmm = _lapack()
    Y, _ = trtri(L, lower=1, overwrite_c=1)
    Y *= sw
    R = Y.T @ Y
    C = trmm(1.0, Y, K.T, lower=1)
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
        d2_min = float(d2[~np.eye(len(y), dtype=bool)].min())
        points = np.empty((0, 2))   # the evaluated log thetas, in order,
        modes = []                  # and the mode a of each

        def neg_log_q(log_theta, gradient=True):
            nonlocal n_evaluations, search_newton_steps, points
            n_evaluations += 1
            # warm start from the mode of the nearest evaluated point, the
            # earliest on ties
            a0 = (modes[np.argmin(((points - log_theta) ** 2).sum(axis=1))]
                  if modes else None)
            try:
                value, grad, a, steps = _neg_log_q(
                    d2, y, log_theta, gradient, a0=a0, d2_max=d2_max,
                    d2_min=d2_min)
            except np.linalg.LinAlgError:
                return (np.inf, np.zeros(2)) if gradient else np.inf
            points = np.vstack([points, log_theta])
            modes.append(a)
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
        # L-BFGS-B stops a search when an iteration lowers -log q by less
        # than ftol * |-log q|. Where the grid's best lies nearer the
        # sigma2 -> 0 limit n log 2 than that, the surface varies by less
        # than |-log q| and the stop fired up to 4e-4 nats short of the
        # optimum; there ftol shrinks by the ratio of the two
        v_best = values.min()
        ftol = _LBFGSB_FTOL
        if np.isfinite(v_best):
            gain = abs(len(y) * np.log(2.0) - v_best)
            ftol *= min(1.0, gain / max(abs(v_best), 1.0))
        starts = [np.clip(0.0, lo, hi)]                  # (1, 1)
        starts += [point for point, start in zip(grid, keep.ravel())
                   if start and not np.array_equal(point, starts[0])]
        success = []
        for point in starts:
            seen.append((np.inf, point))
            res = minimize(neg_log_q, point, jac=True, method="L-BFGS-B",
                           bounds=bounds,
                           options={"gtol": 1e-8, "ftol": ftol})
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
_PREDICT_BLOCK = 256    # query rows per block of gpc_predict


def gpc_predict(model: GPCModel, x_star) -> np.ndarray:
    """Predictive probability of class 1 at each query point.

    Queries run in blocks of _PREDICT_BLOCK rows (a lone last row joins
    the block before it), so the transient arrays hold block x n_train x d
    and block x 64 entries whatever the number of queries. Every step is
    per query row, so with one BLAS thread the result is bit-identical to
    a single pass over all rows; threaded BLAS may split the products of a
    block otherwise and move last digits. A query that is not 2-D or whose
    feature count differs from the training inputs' raises ValueError, as
    does a non-finite kernel.
    """
    x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
    d = model.x_train.shape[1]
    if x_star.ndim != 2 or x_star.shape[1] != d:
        raise ValueError(f"query points have {x_star.shape[-1]} features "
                         f"(shape {x_star.shape}); the model has {d}")
    alpha = model.y_train - model.pi_hat
    probs = np.empty(len(x_star))
    bounds = [*range(0, len(x_star), _PREDICT_BLOCK), len(x_star)]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        # BLAS takes its one-vector path for a block of one row, which
        # sums in another order: a lone last row joins the block before
        del bounds[-2]
    for start, stop in zip(bounds, bounds[1:]):
        block = slice(start, stop)
        ks = rbf_kernel(x_star[block], model.x_train, model.sigma2,
                        model.lengthscale)
        mean = ks @ alpha
        if not np.isfinite(ks).all():
            raise ValueError(_NOT_FINITE)
        v = _solve_lower(model.chol_b, model.sqrt_w[:, None] * ks.T)
        var = model.sigma2 - (v**2).sum(axis=0)
        var = np.clip(var, 0.0, None)
        z = mean[:, None] + np.sqrt(2.0 * var)[:, None] * _GH_NODES[None, :]
        probs[block] = (_GH_WEIGHTS[None, :] * _sigmoid(z)).sum(axis=1)
    probs /= np.sqrt(np.pi)
    return np.clip(probs, 1e-12, 1.0 - 1e-12)
