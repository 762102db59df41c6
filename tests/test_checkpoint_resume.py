"""Checkpoint/resume: a killed sweep picks up where it stopped.

The contract (DESIGN.md §7.5): the signature cache is the checkpoint.
Each ``(app, count)`` unit is cached the moment it completes, so
re-running a killed sweep with the same cache re-collects only the
units whose entries are missing — resume can never change results, it
only avoids redoing finished work.
"""

import numpy as np
import pytest

from repro.exec import faults
from repro.exec.faults import FaultPlan, FaultSpec
from repro.exec.resilience import ResilienceConfig, RunReport
from repro.exec.sigcache import SignatureCache
from repro.pipeline.collect import CollectionSettings, collect_signatures
from repro.util.errors import TaskCrashError, TransientTaskError

from tests.conftest import FAST_COLLECTOR

COUNTS = [4, 8, 16]


def _settings():
    return CollectionSettings(
        collector=FAST_COLLECTOR, workers=0,
        resilience=ResilienceConfig(
            max_retries=1, backoff_base_s=0.001, backoff_max_s=0.01
        ),
    )


def _assert_signatures_equal(got, expected):
    for g, e in zip(got, expected):
        assert g.app == e.app and g.n_ranks == e.n_ranks
        assert g.compute_times == e.compute_times
        gt, et = g.slowest_trace(), e.slowest_trace()
        assert gt.rank == et.rank
        assert sorted(gt.blocks) == sorted(et.blocks)
        for block_id, gb in gt.blocks.items():
            eb = et.blocks[block_id]
            for gi, ei in zip(gb.instructions, eb.instructions):
                np.testing.assert_array_equal(gi.features, ei.features)


class TestCollectionResume:
    def _run(self, small_jacobi, bw_spec, cache, report=None):
        return collect_signatures(
            small_jacobi, COUNTS, bw_spec.hierarchy, _settings(),
            cache=cache,
            report=report if report is not None else RunReport(),
        )

    def test_killed_run_resumes_only_unfinished_units(
        self, tmp_path, small_jacobi, bw_spec
    ):
        # reference: clean uncached run
        clean = self._run(small_jacobi, bw_spec, None)

        # --- run 1 "dies" on the third unit: the crash fault fires on
        # every attempt, so retries exhaust and the run aborts with the
        # first two units cached
        cache1 = SignatureCache(tmp_path / "cache")
        plan = FaultPlan(
            specs=(FaultSpec(key="collect:jacobi:16", kind="crash",
                             attempts=(1, 2, 3)),)
        )
        with faults.injected(plan):
            with pytest.raises(TaskCrashError):
                self._run(small_jacobi, bw_spec, cache1)
        assert cache1.stats.stores == 2

        # --- run 2, same cache: only count 16 is re-collected
        cache2 = SignatureCache(tmp_path / "cache")
        report = RunReport()
        resumed = self._run(small_jacobi, bw_spec, cache2, report)
        assert cache2.stats.hits == 2  # units served by the cache
        assert cache2.stats.stores == 1  # only the unfinished one
        assert report.clean  # no faults this time

        # resume changed nothing about the results
        _assert_signatures_equal(resumed, clean)

    def test_default_settings_cache_each_unit_as_it_lands(
        self, tmp_path, small_jacobi, bw_spec
    ):
        # no policy given: the default one still applies the plan and
        # caches the finished units before the batch fails
        settings = CollectionSettings(collector=FAST_COLLECTOR, workers=0)
        plan = FaultPlan(
            specs=(FaultSpec(key="collect:jacobi:16", kind="raise",
                             attempts=(1, 2, 3)),)
        )
        with faults.injected(plan):
            with pytest.raises(TransientTaskError):
                collect_signatures(
                    small_jacobi, COUNTS, bw_spec.hierarchy, settings,
                    cache=SignatureCache(tmp_path / "cache"),
                )
        cache = SignatureCache(tmp_path / "cache")
        collect_signatures(
            small_jacobi, COUNTS, bw_spec.hierarchy, settings, cache=cache
        )
        assert (cache.stats.hits, cache.stats.misses) == (2, 1)

    def test_journaled_unit_with_lost_cache_entry_is_recollected(
        self, tmp_path, small_jacobi, bw_spec
    ):
        cache1 = SignatureCache(tmp_path / "cache")
        clean = self._run(small_jacobi, bw_spec, cache1)

        # the cache entry for count 8 vanishes (cleared cache, pruned
        # file, quarantined entry...) after the run completed
        key8 = cache1.key_for(
            small_jacobi, 8, bw_spec.hierarchy, _settings()
        )
        cache1.store.path(key8).unlink()

        cache2 = SignatureCache(tmp_path / "cache")
        resumed = self._run(small_jacobi, bw_spec, cache2)
        # two entries left -> two hits; the lost one is recollected
        assert cache2.stats.hits == 2
        assert cache2.stats.stores == 1
        _assert_signatures_equal(resumed, clean)
