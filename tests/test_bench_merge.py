"""Benchmark documents: smoke numbers stay out of the committed copies.

``merge_bench`` routes smoke runs (shrunken inputs, relaxed floors) to an
untracked side file, so a smoke run of one bench module followed by a
full-size run of another must leave both committed ``BENCH_*.json``
copies holding full-size keys only.
"""

import json

from benchmarks import conftest as bench


def test_smoke_merge_never_reaches_committed_copies(tmp_path, monkeypatch):
    results, root = tmp_path / "results", tmp_path / "root"
    root.mkdir()
    monkeypatch.setattr(bench, "RESULTS_DIR", results)
    monkeypatch.setattr(bench, "ROOT_DIR", root)
    monkeypatch.setattr(bench, "SMOKE", True)
    bench.merge_bench("BENCH_pipeline", {"serve_qps": 1.0, "serve_smoke": True})
    monkeypatch.setattr(bench, "SMOKE", False)
    bench.merge_bench("BENCH_pipeline", {"obs_overhead_pct": 2.0})

    committed = json.loads((root / "BENCH_pipeline.json").read_text())
    assert committed == {"obs_overhead_pct": 2.0}
    assert json.loads((results / "BENCH_pipeline.json").read_text()) == committed
    smoke = json.loads((results / "BENCH_pipeline.smoke.json").read_text())
    assert smoke == {"serve_qps": 1.0, "serve_smoke": True}
