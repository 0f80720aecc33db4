"""Candidate labeling, dimensionality reduction, and classification."""

from .gpc import GPCModel, gpc_predict, gpc_train, rbf_kernel
from .hdbscan import HDBSCANResult, hdbscan
from .labeling import FEATURE_COLUMNS, FeatureMatrix, feature_matrix, label_good
from .pca import PCAResult, pca
from .tsne import TSNEResult, calibrate_bandwidths, perplexity_error, tsne

__all__ = [
    "FEATURE_COLUMNS",
    "FeatureMatrix",
    "GPCModel",
    "HDBSCANResult",
    "PCAResult",
    "TSNEResult",
    "calibrate_bandwidths",
    "feature_matrix",
    "gpc_predict",
    "gpc_train",
    "hdbscan",
    "label_good",
    "pca",
    "perplexity_error",
    "rbf_kernel",
    "tsne",
]
