"""Task clustering (§VI future work, implemented as an extension).

"We believe that we can improve the accuracy of the synthetic traces by
using clustering algorithms ... first cluster MPI-tasks with similar
properties and then use the 'centroid' file from each cluster as a base
to extrapolate data in the centroid trace files."

This module clusters the ranks of a full application signature by their
block-aggregate feature vectors (deterministic k-means), picks the rank
closest to each centroid as the cluster's representative trace, matches
clusters across training core counts by workload ordering, and
extrapolates each cluster's centroid trace — yielding a *family* of
extrapolated traces plus each cluster's projected share of ranks, instead
of the single slowest-task trace the paper's main method uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.canonical import CanonicalForm, PAPER_FORMS, fit_best
from repro.core.extrapolate import ExtrapolationResult, extrapolate_trace
from repro.trace.signature import ApplicationSignature
from repro.trace.tracefile import TraceFile
from repro.util.rng import RngStream, stream


def _rank_feature_matrix(signature: ApplicationSignature) -> Tuple[np.ndarray, List[int]]:
    """Stack per-rank summary vectors: block-aggregate features, flattened.

    Features are log1p-transformed (counts span orders of magnitude) and
    z-normalized per column so no single feature dominates the metric.
    """
    ranks = signature.ranks
    if not ranks:
        raise ValueError("signature has no materialized traces to cluster")
    rows = []
    for r in ranks:
        trace = signature.traces[r]
        vec: List[float] = []
        for block in trace.blocks.values():
            agg = block.aggregate(trace.schema)
            vec.extend(agg[f] for f in trace.schema.fields)
        rows.append(vec)
    matrix = np.log1p(np.abs(np.asarray(rows, dtype=np.float64)))
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    std[std == 0] = 1.0
    return (matrix - mean) / std, ranks


def _kmeans(
    points: np.ndarray, k: int, rng: RngStream, *, n_iter: int = 50
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic Lloyd's k-means with k-means++ seeding."""
    n = points.shape[0]
    if k > n:
        raise ValueError(f"cannot form {k} clusters from {n} ranks")
    # k-means++ initialization
    centers = [points[int(rng.integers(0, n))]]
    for _ in range(1, k):
        d2 = np.min(
            [np.sum((points - c) ** 2, axis=1) for c in centers], axis=0
        )
        total = d2.sum()
        if total <= 0:
            # all remaining points coincide with a center; pick arbitrarily
            centers.append(points[int(rng.integers(0, n))])
            continue
        probs = d2 / total
        centers.append(points[int(rng.choice(n, p=probs))])
    centers = np.stack(centers)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(n_iter):
        dists = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        new_labels = dists.argmin(axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for j in range(k):
            members = points[labels == j]
            if members.size:
                centers[j] = members.mean(axis=0)
    return labels, centers


@dataclass
class ClusteredSignature:
    """Clustering of one signature's ranks."""

    signature: ApplicationSignature
    k: int
    labels: Dict[int, int]
    representatives: List[int]

    def members(self, cluster: int) -> List[int]:
        return sorted(r for r, c in self.labels.items() if c == cluster)

    def share(self, cluster: int) -> float:
        return len(self.members(cluster)) / len(self.labels)


def cluster_ranks(
    signature: ApplicationSignature,
    k: int,
    *,
    rng: Optional[RngStream] = None,
) -> ClusteredSignature:
    """Cluster a signature's ranks into ``k`` groups of similar tasks.

    Clusters are relabeled in descending total-memory-ops order of their
    representatives, giving a workload-stable ordering that lets
    clusterings at different core counts be matched index-to-index.
    """
    if rng is None:
        rng = stream("clustering", signature.app, signature.n_ranks, k)
    points, ranks = _rank_feature_matrix(signature)
    labels_arr, centers = _kmeans(points, k, rng)
    # representative = member closest to its centroid
    reps = []
    for j in range(k):
        member_idx = np.flatnonzero(labels_arr == j)
        if member_idx.size == 0:
            raise ValueError(f"cluster {j} is empty (k={k} too large?)")
        d = np.linalg.norm(points[member_idx] - centers[j], axis=1)
        reps.append(ranks[int(member_idx[int(d.argmin())])])
    # stable ordering: heaviest cluster first
    weights = [
        signature.traces[rep].total_memory_ops() for rep in reps
    ]
    order = sorted(range(k), key=lambda j: (-weights[j], reps[j]))
    relabel = {old: new for new, old in enumerate(order)}
    labels = {
        rank: relabel[int(lab)] for rank, lab in zip(ranks, labels_arr)
    }
    representatives = [reps[j] for j in order]
    return ClusteredSignature(
        signature=signature, k=k, labels=labels, representatives=representatives
    )


@dataclass
class ClusteredExtrapolation:
    """Per-cluster extrapolated traces plus projected rank shares."""

    target_n_ranks: int
    k: int
    traces: List[TraceFile]
    shares: List[float]
    results: List[ExtrapolationResult] = field(default_factory=list)

    def weighted_total_compute(self, per_trace_time) -> float:
        """Combine a per-trace scalar (e.g. compute time) by rank share."""
        return sum(
            s * per_trace_time(t) for s, t in zip(self.shares, self.traces)
        )


def extrapolate_signature_clustered(
    signatures: Sequence[ApplicationSignature],
    target_n_ranks: int,
    k: int,
    *,
    forms: Sequence[CanonicalForm] = PAPER_FORMS,
) -> ClusteredExtrapolation:
    """Cluster each training signature; extrapolate per-cluster centroids.

    Clusters are matched across core counts by their workload ordering
    (see :func:`cluster_ranks`); each matched family of centroid traces
    is extrapolated like a slowest-task series, and cluster rank-shares
    are themselves fitted with the canonical forms to project the share
    at the target count.
    """
    if len(signatures) < 2:
        raise ValueError("need at least 2 training signatures")
    signatures = sorted(signatures, key=lambda s: s.n_ranks)
    clusterings = [cluster_ranks(sig, k) for sig in signatures]
    counts = np.array([s.n_ranks for s in signatures], dtype=np.float64)
    traces: List[TraceFile] = []
    shares: List[float] = []
    results: List[ExtrapolationResult] = []
    for j in range(k):
        family = [
            cl.signature.traces[cl.representatives[j]] for cl in clusterings
        ]
        res = extrapolate_trace(family, target_n_ranks, forms=forms)
        results.append(res)
        traces.append(res.trace)
        share_series = np.array([cl.share(j) for cl in clusterings])
        share_fit = fit_best(counts, share_series, forms)
        shares.append(
            float(np.clip(share_fit.predict(np.array([target_n_ranks]))[0], 0.0, 1.0))
        )
    total = sum(shares)
    if total > 0:
        shares = [s / total for s in shares]
    return ClusteredExtrapolation(
        target_n_ranks=target_n_ranks,
        k=k,
        traces=traces,
        shares=shares,
        results=results,
    )
