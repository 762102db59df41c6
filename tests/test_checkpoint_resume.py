"""Checkpoint/resume: a killed sweep picks up where it stopped.

The contract (DESIGN.md §7.5): the signature cache is the checkpoint.
Each ``(app, count)`` unit is cached the moment it completes, so
re-running a killed sweep with the same cache re-collects only the
units whose entries are missing — resume can never change results, it
only avoids redoing finished work.  The :class:`RunJournal` tests pin
the crash model of the DAG's state store (fsync'd appends, torn tails
skipped on recovery).
"""

import json

import numpy as np
import pytest

from repro.exec import faults
from repro.exec.faults import FaultPlan, FaultSpec
from repro.exec.resilience import ResilienceConfig, RunReport
from repro.exec.sigcache import SignatureCache
from repro.pipeline.collect import CollectionSettings, collect_signatures
from repro.pipeline.journal import RunJournal
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


class TestRunJournal:
    def test_mark_and_done(self, tmp_path):
        with RunJournal(tmp_path / "run.jsonl") as journal:
            assert journal.meta("u1") is None
            journal.amend("u1", status="done", n_ranks=8)
            assert journal.meta("u1") == {"status": "done", "n_ranks": 8}
            assert journal.stats.amended == 1

    def test_resume_skips_and_counts(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.amend("u1", status="done")
            journal.amend("u2", status="done")
        with RunJournal(path, resume=True) as journal:
            assert set(journal.metas()) == {"u1", "u2"}
            assert journal.meta("u3") is None
            journal.amend("u3", status="done")
            assert journal.stats.amended == 1  # only this instance's
        assert set(RunJournal(path, resume=True).metas()) == {"u1", "u2", "u3"}

    def test_fresh_run_truncates_stale_journal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.amend("stale", status="done")
        with RunJournal(path, resume=False) as journal:
            assert journal.meta("stale") is None

    def test_torn_tail_line_ignored(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.amend("u1", status="done")
        # simulate a writer killed mid-write: append half a record
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"unit": "u2"')
        with RunJournal(path, resume=True) as journal:
            assert journal.meta("u1") == {"status": "done"}
            assert "u2" not in journal.metas()  # never committed -> redone
            journal.amend("u2", status="done")  # and the journal keeps working
            assert journal.meta("u2") == {"status": "done"}

    def test_torn_tail_recovery_at_every_byte_offset(self, tmp_path):
        """Property: truncate the journal at *every* byte offset inside
        the final record.  Recovery must never lose a committed unit and
        never trust the torn one — the crash model behind the DAG state
        store ("readable after a kill at any instant")."""
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.amend("u1", n_ranks=4)
            journal.amend("u2", n_ranks=8)
            journal.amend("u3", n_ranks=16, note="final record")
        data = path.read_bytes()
        prefix = data[: data.rindex(b'{"meta"')]  # bytes before record 3
        for cut in range(len(prefix), len(data) + 1):
            path.write_bytes(data[:cut])
            # a tail is committed only when its JSON made it out whole
            # (the final newline is decoration, not part of the record)
            try:
                committed = json.loads(data[len(prefix):cut])["unit"] == "u3"
            except ValueError:
                committed = False
            with RunJournal(path, resume=True) as journal:
                # committed units always survive, with their metadata
                assert journal.meta("u1") == {"n_ranks": 4}
                assert journal.meta("u2") == {"n_ranks": 8}
                # the torn record is trusted only when byte-complete,
                # and then only with its full metadata
                assert ("u3" in journal.metas()) == committed
                if committed:
                    assert journal.meta("u3") == {
                        "n_ranks": 16, "note": "final record"
                    }
                # and the journal keeps accepting appends afterwards
                journal.amend("u4", n_ranks=32)
                assert journal.meta("u4") == {"n_ranks": 32}
        # sanity on the property itself: both verdicts were exercised
        assert len(prefix) < len(data) - 1

    def test_amend_last_record_wins(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.amend("n1", status="failed", error="boom")
            assert journal.meta("n1") == {"status": "failed", "error": "boom"}
            journal.amend("n1", status="done", sha256="abc")
            assert journal.stats.amended == 2
        # append-only on disk: both records present, latest wins on load
        assert len(path.read_text().splitlines()) == 2
        with RunJournal(path, resume=True) as journal:
            assert journal.meta("n1") == {"status": "done", "sha256": "abc"}
            assert journal.metas() == {"n1": {"status": "done", "sha256": "abc"}}

    def test_refresh_folds_in_other_writers(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as mine:
            mine.amend("u1", status="done")
            with RunJournal(path, resume=True) as other:
                other.amend("u2", via="other")
            assert mine.meta("u2") is None
            mine.refresh()
            assert mine.meta("u2") == {"via": "other"}


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
