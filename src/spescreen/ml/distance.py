"""Dense pairwise Euclidean distances for the map stage's t-SNE and HDBSCAN."""

from __future__ import annotations

import numpy as np


def squared_euclidean(x) -> np.ndarray:
    """n x n squared Euclidean distances between the rows of an (n, d) x.

    Each entry sums (x_ik - x_jk)^2 over the columns k in order, the order
    scipy's pdist(x, "sqeuclidean") sums in from 0.0 (and 0.0 + t == t for
    the first term t >= 0), so the two agree bit for bit, and so does
    np.sqrt of this with pdist(x).
    """
    first, *rest = np.asarray(x, dtype=float).T
    d2 = first[:, None] - first
    d2 *= d2
    for col in rest:
        diff = col[:, None] - col
        diff *= diff
        d2 += diff
    return d2
