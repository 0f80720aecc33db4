"""
Labeling and classifying candidate emitters
===========================================

Turn a table of candidate metrics into good/bad labels, reduce the
feature space with PCA, fit the Gaussian-process classifier, and map the
candidates with t-SNE + HDBSCAN.
"""

import numpy as np

from spescreen.ml.distance import squared_euclidean
from spescreen.ml.gpc import gpc_predict, gpc_train
from spescreen.ml.hdbscan import hdbscan
from spescreen.ml.labeling import feature_matrix, label_good
from spescreen.ml.pca import pca
from spescreen.ml.tsne import tsne
from spescreen.spectro import CandidateRecord

# synthesize a candidate table: half "bright, red-shifted, quiet" rows
# and half the opposite, with noise
rng = np.random.default_rng(0)
records = []
for i in range(60):
    good_ish = i < 30
    records.append(CandidateRecord(
        id=f"cand-{i:03d}",
        tanimoto=rng.uniform(0.3, 1.0),
        fosc_abs=rng.uniform(0.1, 0.5),
        fosc_em=rng.uniform(0.4, 0.9) if good_ish else rng.uniform(0.0, 0.3),
        lambda_abs_nm=rng.uniform(600, 750) if good_ish
        else rng.uniform(350, 500),
        lambda_em_nm=rng.uniform(650, 800),
        rotary_1e40cgs=rng.normal(),
        soc=rng.uniform(0.0, 0.3) if good_ish else rng.uniform(0.5, 2.0),
        rsoc=rng.uniform(0.0, 1.0),
        gssoc=rng.uniform(0.0, 0.5),
        svc=rng.uniform(0.2, 1.0) if good_ish else rng.uniform(1.5, 3.0),
        e_bind_eV=rng.uniform(-2.0, -0.5),
    ))

# better-than-average rule relative to a 550 nm absorbing host
labels = label_good(records, lambda_host_abs_nm=550.0)
print(f"labeled {labels.sum()} of {len(records)} candidates good")

# standardized features -> two principal components
features = feature_matrix(records)
components = pca(features.values, k=2)
print("explained variance fractions:",
      np.round(components.explained_fraction, 3))

# Laplace-approximate GPC on the PC scores, probabilities by quadrature
model = gpc_train(components.scores, labels.astype(float))
probs = gpc_predict(model, components.scores)
print(f"kernel: sigma^2 = {model.sigma2:.3g}, "
      f"lengthscale = {model.lengthscale:.3g}")
accuracy = np.mean((probs > 0.5) == labels)
print(f"training accuracy {accuracy:.2f}")

# low-dimensional map of the standardized features (t-SNE takes squared
# distances), then density clusters
embedding = tsne(squared_euclidean(features.values), perplexity=15.0, seed=1,
                 n_iter=400)
clusters = hdbscan(embedding.embedding, min_cluster_size=8)
print(f"t-SNE KL divergence {embedding.kl_divergence:.3f}, "
      f"{clusters.n_clusters} clusters, "
      f"{(clusters.labels == -1).sum()} noise points")
