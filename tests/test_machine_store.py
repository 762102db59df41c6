"""The machine-profile store: a fitted profile kept under a store root
(``<cache-dir>/machines`` for a Table I run) is loaded, not re-probed,
by every later process."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.machine import systems
from repro.machine.network import NetworkParameters
from repro.machine.profile import build_profile
from repro.machine.systems import (
    MACHINE_BUILDERS,
    STORE_DIR,
    get_machine,
    get_spec,
    profile_key,
)
from repro.obs.metrics import REGISTRY
from repro.util.store import QUARANTINE_DIR

SRC = Path(repro.__file__).parent.parent
PROBE = 10_000


@pytest.fixture(autouse=True)
def fresh_process_cache(monkeypatch):
    """Each test starts from an empty in-process profile cache."""
    monkeypatch.setattr(systems, "_PROFILE_CACHE", {})


@pytest.fixture
def builds(monkeypatch):
    """Counts the profiles ``get_machine`` builds (probes)."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return build_profile(*args, **kwargs)

    monkeypatch.setattr(systems, "build_profile", counting)
    return calls


def machine_counters() -> dict:
    return {
        k: v for k, v in REGISTRY.counters.items() if k.startswith("machine.")
    }


def delta(before: dict, name: str) -> int:
    return machine_counters().get(name, 0) - before.get(name, 0)


@pytest.mark.parametrize("name", sorted(MACHINE_BUILDERS))
def test_loaded_profile_equals_a_fresh_build(tmp_path, builds, name):
    spec = get_spec(name)
    fresh = build_profile(spec.name, spec.hierarchy, spec.timing, spec.network,
                          accesses_per_probe=PROBE)
    get_machine(name, accesses_per_probe=PROBE, root=tmp_path)
    systems._PROFILE_CACHE.clear()
    before = machine_counters()
    loaded = get_machine(name, accesses_per_probe=PROBE, root=tmp_path)
    assert builds == [spec.name]  # the first call only
    assert delta(before, "machine.hits") == 1
    for field in ("sample_hit_rates", "sample_bandwidths_gbs", "coefficients"):
        a, b = getattr(loaded.surface, field), getattr(fresh.surface, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes(), field
    assert loaded.surface.name == fresh.surface.name
    assert loaded.fp_rates_gflops == fresh.fp_rates_gflops
    assert loaded.network == fresh.network
    assert loaded.hierarchy == fresh.hierarchy
    assert loaded.name == fresh.name


def test_key_changes_with_probe_budget_and_spec():
    keys = set()
    for name in MACHINE_BUILDERS:
        spec = get_spec(name)
        assert profile_key(spec, PROBE) == profile_key(spec, PROBE)
        keys |= {profile_key(spec, PROBE), profile_key(spec, PROBE + 1)}
    assert len(keys) == 2 * len(MACHINE_BUILDERS)
    spec = get_spec("blue_waters_p1")
    slower = dataclasses.replace(spec, network=NetworkParameters(latency_us=9.0))
    assert profile_key(slower, PROBE) != profile_key(spec, PROBE)


def test_key_follows_the_source_not_the_checkout(tmp_path):
    """Copies of the package outside any git tree: identical sources
    share one key, and a one-byte edit gives another."""
    def key_of(copy: str) -> str:
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.machine.systems import get_spec, profile_key\n"
             f"print(profile_key(get_spec('blue_waters_p1'), {PROBE}))"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(tmp_path / copy)},
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()

    for copy in ("a", "b", "edited"):
        shutil.copytree(SRC / "repro", tmp_path / copy / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
    edited = tmp_path / "edited" / "repro" / "util" / "units.py"
    edited.write_bytes(edited.read_bytes() + b"\n")
    assert key_of("a") == key_of("b")
    assert key_of("edited") != key_of("a")


def test_truncated_entry_is_quarantined_and_rebuilt(tmp_path, builds):
    name = "opteron_2level"
    key = profile_key(get_spec(name), PROBE)
    get_machine(name, accesses_per_probe=PROBE, root=tmp_path)
    entry = tmp_path / f"{key}.pkl"
    data = entry.read_bytes()
    entry.write_bytes(data[: len(data) // 2])

    systems._PROFILE_CACHE.clear()
    before = machine_counters()
    get_machine(name, accesses_per_probe=PROBE, root=tmp_path)
    assert len(builds) == 2
    assert delta(before, "machine.corrupt") == 1
    assert delta(before, "machine.misses") == 1
    assert delta(before, "machine.stores") == 1
    assert (tmp_path / QUARANTINE_DIR / f"{key}-0").read_bytes() == data[: len(data) // 2]
    assert entry.read_bytes() == data  # stored again, byte for byte

    systems._PROFILE_CACHE.clear()
    get_machine(name, accesses_per_probe=PROBE, root=tmp_path)
    assert len(builds) == 2  # the rebuilt entry loads


def test_no_root_writes_nothing(tmp_path, monkeypatch, builds):
    monkeypatch.setenv("REPRO_SIGNATURE_CACHE", str(tmp_path / "signatures"))
    monkeypatch.chdir(tmp_path)
    before = machine_counters()
    get_machine("opteron_2level", accesses_per_probe=PROBE)
    assert builds == ["Opteron-2L"]
    assert list(tmp_path.iterdir()) == []
    assert machine_counters() == before


def test_a_later_root_stores_the_cached_profile(tmp_path, builds):
    """A profile built without a root is stored under the first root a
    later call passes (checked once, not on every call), and a fresh
    process loads it from there without probing."""
    name = "opteron_2level"
    get_machine(name, accesses_per_probe=PROBE)
    before = machine_counters()
    for _ in range(2):
        get_machine(name, accesses_per_probe=PROBE, root=tmp_path)
    assert builds == ["Opteron-2L"]
    assert machine_counters() == {**before, "machine.stores":
                                  before.get("machine.stores", 0) + 1}
    key = profile_key(get_spec(name), PROBE)
    assert [p.name for p in tmp_path.iterdir()] == [f"{key}.pkl"]

    probe_fails = (
        "import sys\n"
        "from repro.machine import systems\n"
        "def probe(*args, **kwargs):\n"
        "    raise AssertionError('probed')\n"
        "systems.build_profile = probe\n"
        f"systems.get_machine({name!r}, accesses_per_probe={PROBE}, "
        "root=sys.argv[1])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe_fails, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


#: runs ``repro`` with argv[2:], then writes whether scipy was imported
#: to argv[1]
DRIVER = (
    "import sys; from repro.cli import main; rc = main(sys.argv[2:]); "
    "open(sys.argv[1], 'w').write(str('scipy' in sys.modules)); sys.exit(rc)"
)


def test_warm_table1_skips_the_probe_and_scipy(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    cache = tmp_path / "cache"
    runs = {}
    for phase in ("cold", "warm"):
        flag, manifest = tmp_path / f"{phase}.scipy", tmp_path / f"{phase}.json"
        proc = subprocess.run(
            [sys.executable, "-c", DRIVER, str(flag), "table1", "--app",
             "jacobi", "--train", "4,8", "--target", "16", "--workers", "0",
             "--cache-dir", str(cache), "--manifest-out", str(manifest)],
            env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        runs[phase] = (proc.stdout, flag.read_text(), json.loads(manifest.read_text()))
    assert runs["cold"][0] == runs["warm"][0]
    assert runs["warm"][1] == "False"
    cache_block = runs["warm"][2]["cache"]
    assert (cache_block["hits"], cache_block["misses"]) == (3, 0)
    assert len(list((cache / STORE_DIR).glob("*.pkl"))) == 1
