"""Density-based clustering (HDBSCAN) for desk-scale candidate maps.

Exact pipeline: core distances at k = min_cluster_size, the mutual
reachability graph and its minimum spanning tree, then leaf-cluster
extraction from the condensed tree under the minimum-cluster-size rule.
Points outside every leaf are labeled -1 (noise).

The leaves come from one bottom-up replay of the spanning tree's edges
(increasing mutual reachability, stable order). A component becomes a
cluster when it first reaches min_cluster_size points. A merge of two such
clusters is a true split in the top-down view: it opens a parent cluster,
which is not a leaf. A merge with a smaller component attaches those
points to the cluster they join. Each point keeps the cluster it was first
attached to, so it is noise when that cluster is a parent or when its
component never reached min_cluster_size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import squared_euclidean


@dataclass
class HDBSCANResult:
    labels: np.ndarray           # (n,), cluster id or -1 for noise
    n_clusters: int


def hdbscan(x, min_cluster_size: int = 5) -> HDBSCANResult:
    """Cluster a feature matrix by Euclidean distance; returns -1 labels
    for noise points and numbers clusters in order of first appearance."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree

    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    if min_cluster_size < 2:
        raise ValueError("min_cluster_size must be >= 2")
    if n < min_cluster_size:
        return HDBSCANResult(labels=np.full(n, -1, dtype=int), n_clusters=0)
    d = np.sqrt(squared_euclidean(x))
    # core distance: to the min_cluster_size-th nearest point, itself counted
    core = np.sort(d, axis=1)[:, min_cluster_size - 1]
    mreach = np.maximum(d, np.maximum(core[:, None], core[None, :]))
    # csr_matrix drops zeros, and with them the edges between
    # min_cluster_size or more coincident points: the smallest positive
    # float keeps those edges, ahead of every other
    zero = mreach == 0.0
    np.fill_diagonal(zero, False)
    mreach[zero] = np.nextafter(0.0, 1.0)
    mst = minimum_spanning_tree(csr_matrix(mreach)).tocoo()

    comp = np.arange(n)                       # point -> component
    members = [[i] for i in range(n)]         # component -> its points
    comp_cluster = np.full(n, -1)             # component -> cluster, or -1
    point_cluster = np.full(n, -1)
    parents = set()
    # a cluster is named by the index of the edge whose merge opens it
    for e in np.argsort(mst.data, kind="stable"):
        a, b = comp[mst.row[e]], comp[mst.col[e]]
        if len(members[a]) < len(members[b]):
            a, b = b, a
        ca, cb = comp_cluster[a], comp_cluster[b]
        pa, pb = members[a], members[b]
        if ca >= 0 and cb >= 0:
            c = e
            parents.add(c)
        else:
            c = max(ca, cb)       # the cluster the smaller side joins, if any
            if c < 0 and len(pa) + len(pb) >= min_cluster_size:
                c = e
            for points, own in ((pa, ca), (pb, cb)):
                if own < 0:
                    point_cluster[points] = c
        pa += pb
        comp[pb] = a
        comp_cluster[a] = c

    ids = {}
    labels = np.array([
        -1 if c < 0 or c in parents else ids.setdefault(c, len(ids))
        for c in point_cluster.tolist()
    ], dtype=int)
    return HDBSCANResult(labels=labels, n_clusters=len(ids))
