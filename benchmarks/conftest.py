"""Shared fixtures for the benchmark harness.

Every table and figure of the paper is regenerated by one bench module;
the expensive artifacts (machine profiles, training traces at the paper's
core counts) are session-scoped so a full `pytest benchmarks/
--benchmark-only` run collects each trace once.

Outputs are printed *and* written under ``benchmarks/results/`` so a run
leaves a diffable record; EXPERIMENTS.md summarizes them against the
paper's numbers.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path

import pytest

from repro.apps.specfem3d import SpecFEM3DProxy
from repro.apps.uh3d import UH3DProxy
from repro.machine.systems import get_machine, get_spec
from repro.pipeline.collect import collect_signature

RESULTS_DIR = Path(__file__).parent / "results"
ROOT_DIR = Path(__file__).parent.parent

#: smoke runs (``REPRO_BENCH_SMOKE=1``) shrink inputs and relax floors
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: The paper's training/target core counts (§V).
SPECFEM_TRAIN = (96, 384, 1536)
SPECFEM_TARGET = 6144
UH3D_TRAIN = (1024, 2048, 4096)
UH3D_TARGET = 8192


def publish(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====\n{text}\n")


def merge_bench(name: str, entry: dict) -> dict:
    """Merge ``entry`` into ``results/<name>.json`` (read-modify-write).

    Several benchmark modules persist metrics into the same trajectory
    file (``BENCH_pipeline.json`` holds the cache-sim, collection, and
    fitting numbers); merging instead of overwriting keeps whichever
    module ran last from clobbering the others' keys.  Smoke runs merge
    into the untracked ``results/<name>.smoke.json`` instead, so their
    shrunken inputs and relaxed floors never meet full-size numbers.
    ``BENCH_*`` documents from full-size runs are mirrored to the
    repository root — deterministically (sorted keys, fixed indent), so
    re-running a bench with unchanged numbers leaves a byte-identical
    committed file.  Returns the merged document.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / (f"{name}.smoke.json" if SMOKE else f"{name}.json")
    doc = {}
    if path.exists():
        try:
            doc = json.loads(path.read_text())
        except ValueError:
            doc = {}
    doc.update(entry)
    rendered = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    path.write_text(rendered)
    if name.startswith("BENCH_") and not SMOKE:
        (ROOT_DIR / f"{name}.json").write_text(rendered)
    print(f"\n===== {name} =====\n{json.dumps(entry, indent=2, sort_keys=True)}\n")
    return doc


@pytest.fixture(scope="session")
def bw_machine():
    """The Blue-Waters-like target machine profile (Tables I & II)."""
    return get_machine("blue_waters_p1")


@pytest.fixture(scope="session")
def bw_spec():
    return get_spec("blue_waters_p1")


@pytest.fixture(scope="session")
def uh3d_app():
    return UH3DProxy()


@pytest.fixture(scope="session")
def specfem_app():
    return SpecFEM3DProxy()


@functools.lru_cache(maxsize=None)
def _trace_cache(
    app_name: str, n_ranks: int, hierarchy_name: str, engine: str
):
    from repro.apps.registry import get_app
    from repro.cache.configs import get_hierarchy
    from repro.instrument.collector import CollectorConfig
    from repro.pipeline.collect import CollectionSettings

    app = get_app(app_name)
    hierarchy = get_hierarchy(hierarchy_name)
    settings = CollectionSettings(collector=CollectorConfig(engine=engine))
    return collect_signature(
        app, n_ranks, hierarchy, settings
    ).slowest_trace()


def slowest_trace(
    app_name: str,
    n_ranks: int,
    hierarchy_name: str,
    engine: str = "exact",
):
    """Session-cached slowest-task trace collection.

    ``engine`` picks how hit rates are obtained: ``"exact"`` LRU replay
    or the ``"reuse"`` analytical reuse-distance engine.  The what-if
    sweep benches (Tables II/III) default to ``"reuse"`` — the fast
    path a what-if service would run — with exact collections kept as
    their cross-check rows.
    """
    return _trace_cache(app_name, n_ranks, hierarchy_name, engine)


@pytest.fixture(scope="session")
def uh3d_training_traces():
    return [slowest_trace("uh3d", p, "blue_waters_p1") for p in UH3D_TRAIN]


@pytest.fixture(scope="session")
def uh3d_training_traces_reuse():
    """The Table II training trio on the analytical reuse engine."""
    return [
        slowest_trace("uh3d", p, "blue_waters_p1", engine="reuse")
        for p in UH3D_TRAIN
    ]


@pytest.fixture(scope="session")
def uh3d_target_trace():
    return slowest_trace("uh3d", UH3D_TARGET, "blue_waters_p1")


@pytest.fixture(scope="session")
def specfem_training_traces():
    return [slowest_trace("specfem3d", p, "blue_waters_p1") for p in SPECFEM_TRAIN]


@pytest.fixture(scope="session")
def specfem_target_trace():
    return slowest_trace("specfem3d", SPECFEM_TARGET, "blue_waters_p1")
