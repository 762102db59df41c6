"""Unit tests: the §VI task-clustering extension."""

import numpy as np
import pytest

from repro.core.clustering import (
    cluster_ranks,
    extrapolate_signature_clustered,
    _kmeans,
)
from repro.trace.features import FeatureSchema
from repro.trace.records import BasicBlockRecord, InstructionRecord, SourceLocation
from repro.trace.signature import ApplicationSignature
from repro.trace.tracefile import TraceFile
from repro.util.rng import stream

SCHEMA = FeatureSchema(["L1", "L2"])


def make_signature(n_ranks, heavy_ranks, base=1e7):
    """Signature where ``heavy_ranks`` do 4x the work of the others."""
    sig = ApplicationSignature(app="clu", n_ranks=n_ranks, target="tgt")
    for r in range(n_ranks):
        scale = 4.0 if r in heavy_ranks else 1.0
        work = scale * base / n_ranks
        ins = InstructionRecord(
            instr_id=0,
            kind="load",
            features=SCHEMA.vector_from_dict(
                {
                    "exec_count": work,
                    "mem_ops": 4 * work,
                    "loads": 4 * work,
                    "ref_bytes": 8.0,
                    "hit_rate_L1": 0.9,
                    "hit_rate_L2": 1.0,
                }
            ),
        )
        block = BasicBlockRecord(0, SourceLocation(function="f"), [ins])
        sig.add_trace(TraceFile.from_blocks(
            [block], app="clu", rank=r, n_ranks=n_ranks, target="tgt",
            schema=SCHEMA,
        ))
    return sig


class TestKMeans:
    def test_separates_obvious_clusters(self):
        rng = stream("km-test")
        points = np.concatenate(
            [np.zeros((10, 2)), np.ones((10, 2)) * 10.0]
        )
        labels, centers = _kmeans(points, 2, rng)
        assert len(set(labels[:10])) == 1
        assert len(set(labels[10:])) == 1
        assert labels[0] != labels[10]

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            _kmeans(np.zeros((3, 2)), 5, stream("km"))

    def test_deterministic(self):
        points = np.random.default_rng(0).normal(size=(30, 3))
        l1, _ = _kmeans(points, 3, stream("km-det"))
        l2, _ = _kmeans(points, 3, stream("km-det"))
        np.testing.assert_array_equal(l1, l2)


class TestClusterRanks:
    def test_heavy_ranks_isolated(self):
        heavy = {0, 1}
        sig = make_signature(8, heavy)
        clustering = cluster_ranks(sig, 2)
        # cluster 0 (heaviest first) must be exactly the heavy ranks
        assert set(clustering.members(0)) == heavy
        assert clustering.share(0) == pytest.approx(0.25)

    def test_representative_in_cluster(self):
        sig = make_signature(8, {0})
        clustering = cluster_ranks(sig, 2)
        for j in range(2):
            assert clustering.representatives[j] in clustering.members(j)

    def test_needs_traces(self):
        sig = ApplicationSignature(app="clu", n_ranks=4, target="tgt")
        with pytest.raises(ValueError):
            cluster_ranks(sig, 2)


class TestClusteredExtrapolation:
    def test_shares_and_traces(self):
        sigs = [make_signature(p, {0, 1}) for p in (8, 16, 32)]
        result = extrapolate_signature_clustered(sigs, 64, k=2)
        assert len(result.traces) == 2
        assert sum(result.shares) == pytest.approx(1.0)
        assert all(t.extrapolated for t in result.traces)
        assert all(t.n_ranks == 64 for t in result.traces)

    def test_cluster_zero_is_heavier(self):
        sigs = [make_signature(p, {0, 1}) for p in (8, 16, 32)]
        result = extrapolate_signature_clustered(sigs, 64, k=2)
        idx = SCHEMA.index("mem_ops")
        heavy = result.traces[0].blocks[0].instructions[0].features[idx]
        light = result.traces[1].blocks[0].instructions[0].features[idx]
        assert heavy > light

    def test_weighted_total(self):
        sigs = [make_signature(p, {0}) for p in (8, 16, 32)]
        result = extrapolate_signature_clustered(sigs, 64, k=2)
        total = result.weighted_total_compute(
            lambda t: t.blocks[0].instructions[0].features[SCHEMA.index("mem_ops")]
        )
        assert total > 0

    def test_needs_two_signatures(self):
        with pytest.raises(ValueError):
            extrapolate_signature_clustered([make_signature(8, {0})], 64, k=2)
