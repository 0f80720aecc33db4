"""Good/bad emitter labeling and the candidate feature matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# feature order used for classification (rotary strength excluded)
FEATURE_COLUMNS = (
    "tanimoto", "fosc_abs", "fosc_em", "lambda_abs_nm", "lambda_em_nm",
    "soc", "rsoc", "gssoc", "svc", "e_bind_eV",
)


@dataclass
class FeatureMatrix:
    values: np.ndarray       # (n_records, n_features), standardized
    columns: tuple
    dropped: tuple = ()      # zero-variance columns removed


def feature_matrix(records) -> FeatureMatrix:
    """Standardize the FEATURE_COLUMNS of candidate records column-wise;
    drop zero-variance columns."""
    if not records:
        raise ValueError("empty record set")
    columns = FEATURE_COLUMNS
    raw = np.array([[getattr(r, c) for c in columns] for r in records], float)
    if not np.all(np.isfinite(raw)):
        raise ValueError("non-finite feature entries")
    means = raw.mean(axis=0)
    stds = raw.std(axis=0)
    keep = stds > 0
    dropped = tuple(c for c, k in zip(columns, keep) if not k)
    kept_cols = tuple(c for c, k in zip(columns, keep) if k)
    z = (raw[:, keep] - means[keep]) / stds[keep]
    return FeatureMatrix(values=z, columns=kept_cols, dropped=dropped)


def label_good(records, lambda_host_abs_nm: float,
               include_soc: bool = True) -> np.ndarray:
    """Better-than-average labeling over the supplied record set.

    good <=> fosc_em > mean(fosc_em) AND lambda_abs > lambda_host_abs
             AND svc < mean(svc) AND (include_soc => soc < mean(soc)).
    """
    records = list(records)
    if not records:
        raise ValueError("empty record set")
    fosc = np.array([r.fosc_em for r in records])
    lam = np.array([r.lambda_abs_nm for r in records])
    svc = np.array([r.svc for r in records])
    soc = np.array([r.soc for r in records])
    good = (fosc > fosc.mean()) & (lam > lambda_host_abs_nm) & (svc < svc.mean())
    if include_soc:
        good = good & (soc < soc.mean())
    return good
