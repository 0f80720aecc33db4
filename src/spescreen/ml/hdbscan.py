"""Density-based clustering (HDBSCAN) for desk-scale candidate maps.

Exact pipeline: core distances at k = min_cluster_size, mutual
reachability graph, minimum spanning tree, condensed cluster tree with
the minimum-cluster-size pruning rule, and leaf-cluster extraction.
Points outside every selected leaf are labeled -1 (noise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import squared_euclidean


@dataclass
class HDBSCANResult:
    labels: np.ndarray           # (n,), cluster id or -1 for noise
    n_clusters: int
    core_distances: np.ndarray
    mst_edges: np.ndarray        # (n-1, 3) rows (i, j, mutual-reach weight)


def core_distances(d, k: int) -> np.ndarray:
    """Distance to the k-th nearest neighbor (the point itself counts)."""
    n = d.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    return np.sort(d, axis=1)[:, k - 1]


def mutual_reachability(d, core) -> np.ndarray:
    return np.maximum(d, np.maximum(core[:, None], core[None, :]))


class _UnionFind:
    def __init__(self, n):
        self.parent = np.arange(n)

    def find(self, i):
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i, j):
        self.parent[self.find(i)] = self.find(j)


def _condensed_tree(mst_edges, n, min_cluster_size):
    """Condense the single-linkage dendrogram with the min-cluster-size rule.

    The dendrogram is replayed bottom-up (edges by increasing mutual
    reachability, i.e. decreasing density level lambda = 1/weight). A merge
    of two components both of size >= min_cluster_size is a true split in
    the top-down view: the two condensed child clusters end there and a
    parent begins. A merge with one side < min_cluster_size means those
    points fall out of the surviving cluster as individual points at that
    lambda; they stay attached to that cluster in the condensed tree.

    Returns (clusters, point_cluster, point_lambda): clusters maps id ->
    dict(children, stability); point_cluster[p] is the condensed cluster
    each point is attached to, point_lambda[p] its fall-out level.
    """
    order = np.argsort(mst_edges[:, 2], kind="stable")
    uf = _UnionFind(n)
    members = {i: [i] for i in range(n)}       # union-find root -> points
    comp_cluster = {i: None for i in range(n)}  # root -> condensed cluster
    clusters = {}
    next_cluster = 0
    point_cluster = np.full(n, -1, dtype=int)
    point_lambda = np.zeros(n)

    def new_cluster():
        nonlocal next_cluster
        cid = next_cluster
        next_cluster += 1
        clusters[cid] = {"children": [], "stability": 0.0}
        return cid

    def attach(points, cid, lam):
        for p in points:
            point_cluster[p] = cid
            point_lambda[p] = lam

    for e in order:
        i, j, w = mst_edges[e]
        ri, rj = uf.find(int(i)), uf.find(int(j))
        lam = 1.0 / w if w > 0 else np.inf
        mi, mj = members[ri], members[rj]
        ci, cj = comp_cluster[ri], comp_cluster[rj]
        big_i = len(mi) >= min_cluster_size
        big_j = len(mj) >= min_cluster_size
        merged = mi + mj
        uf.union(ri, rj)
        root = uf.find(rj)
        for r in (ri, rj):
            members.pop(r, None)
            comp_cluster.pop(r, None)
        members[root] = merged

        if big_i and big_j:
            # top-down split at lambda = lam: close both children there
            parent = new_cluster()
            for cid in (ci, cj):
                clusters[parent]["children"].append(cid)
                attached = point_cluster == cid
                clusters[cid]["stability"] = float(
                    (point_lambda[attached] - lam).sum()
                )
            comp_cluster[root] = parent
        elif big_i or big_j:
            big_c = ci if big_i else cj
            small = mj if big_i else mi
            if big_c is None:  # big side just crossed the size threshold
                big_c = new_cluster()
                attach(mi if big_i else mj, big_c, lam)
            attach(small, big_c, lam)
            comp_cluster[root] = big_c
        else:
            comp_cluster[root] = None
            if len(merged) >= min_cluster_size:
                cid = new_cluster()
                attach(merged, cid, lam)
                comp_cluster[root] = cid

    # clusters that never merged under a parent end at lambda = 0
    closed = {c for info in clusters.values() for c in info["children"]}
    for cid in clusters:
        if cid not in closed:
            attached = point_cluster == cid
            clusters[cid]["stability"] = float(point_lambda[attached].sum())
    return clusters, point_cluster, point_lambda


def hdbscan(x, min_cluster_size: int = 5) -> HDBSCANResult:
    """Cluster a feature matrix by Euclidean distance; returns -1 labels
    for noise points."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree

    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    if min_cluster_size < 2:
        raise ValueError("min_cluster_size must be >= 2")
    if n < min_cluster_size:
        return HDBSCANResult(
            labels=np.full(n, -1, dtype=int), n_clusters=0,
            core_distances=np.zeros(n), mst_edges=np.empty((0, 3)),
        )
    d = np.sqrt(squared_euclidean(x))
    core = core_distances(d, min_cluster_size)
    mreach = mutual_reachability(d, core)
    mst = minimum_spanning_tree(csr_matrix(mreach)).tocoo()
    mst_edges = np.column_stack([mst.row, mst.col, mst.data])
    clusters, point_cluster, _ = _condensed_tree(mst_edges, n,
                                                 min_cluster_size)

    # leaf extraction: select condensed clusters with no children; a point
    # belongs to the leaf it is attached to, everything else is noise
    leaves = sorted(
        cid for cid, info in clusters.items() if not info["children"]
    )
    leaf_id = {cid: k for k, cid in enumerate(leaves)}
    labels = np.array(
        [leaf_id.get(c, -1) for c in point_cluster], dtype=int
    )
    # compact ids in order of first appearance for stable output
    remap = {}
    for v in labels:
        if v >= 0 and v not in remap:
            remap[v] = len(remap)
    labels = np.array([remap[v] if v >= 0 else -1 for v in labels])
    return HDBSCANResult(
        labels=labels, n_clusters=len(remap),
        core_distances=core, mst_edges=mst_edges,
    )
