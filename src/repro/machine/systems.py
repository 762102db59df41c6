"""Named simulated machines.

Each machine bundles the cache hierarchy (from
:mod:`repro.cache.configs`), a ground-truth hardware timing, and network
parameters.  ``get_machine`` builds the full measurement-derived
:class:`~repro.machine.profile.MachineProfile` (runs MultiMAPS and fits
the bandwidth surface).  Probing is the expensive step, so a profile is
built once per process and, given a store root (``<cache-dir>/machines``
for a Table I run with a signature cache), once per key across
processes: like the real framework, which measures a target machine
once and keeps its profile on disk.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Set, Tuple, Union

from repro.cache import configs as cache_configs
from repro.cache.hierarchy import CacheHierarchy
from repro.machine.multimaps import DEFAULT_STRIDES, DEFAULT_WORKING_SETS
from repro.machine.network import NetworkParameters
from repro.machine.profile import MachineProfile, build_profile
from repro.machine.timing import HardwareTiming
from repro.obs.log import get_logger
from repro.obs.manifest import default_code_version
from repro.obs.metrics import CounterSet
from repro.util.rng import DEFAULT_ROOT_SEED
from repro.util.store import Store

log = get_logger("machine.systems")


@dataclass(frozen=True)
class MachineSpec:
    """Hardware definition of a simulated machine (pre-measurement)."""

    name: str
    hierarchy: CacheHierarchy
    timing: HardwareTiming
    network: NetworkParameters


def _opteron_2level_spec() -> MachineSpec:
    return MachineSpec(
        name="Opteron-2L",
        hierarchy=cache_configs.opteron_2level(),
        timing=HardwareTiming(
            level_time_ns=(0.75, 3.0),
            memory_time_ns=28.0,
            frequency_ghz=2.2,
        ),
        network=NetworkParameters(latency_us=2.0, bandwidth_gbs=2.0),
    )


def _cray_xt5_spec() -> MachineSpec:
    return MachineSpec(
        name="CrayXT5",
        hierarchy=cache_configs.cray_xt5(),
        timing=HardwareTiming(
            level_time_ns=(0.7, 2.5, 8.0),
            memory_time_ns=30.0,
            frequency_ghz=2.6,
        ),
        network=NetworkParameters(
            latency_us=6.0, bandwidth_gbs=1.6, half_bandwidth_bytes=16384
        ),
    )


def _blue_waters_p1_spec() -> MachineSpec:
    return MachineSpec(
        name="BlueWatersP1",
        hierarchy=cache_configs.blue_waters_p1(),
        timing=HardwareTiming(
            level_time_ns=(0.5, 2.0, 6.0),
            memory_time_ns=16.0,
            fp_time_ns={
                "fp_add": 0.25,
                "fp_mul": 0.25,
                "fp_fma": 0.28,
                "fp_div": 4.0,
            },
            frequency_ghz=3.8,
        ),
        network=NetworkParameters(
            latency_us=1.2, bandwidth_gbs=9.0, half_bandwidth_bytes=8192
        ),
    )


def _system_a_spec() -> MachineSpec:
    bw = _blue_waters_p1_spec()
    return MachineSpec(
        name="SystemA-12KB-L1",
        hierarchy=cache_configs.system_a(),
        timing=bw.timing,
        network=bw.network,
    )


def _system_b_spec() -> MachineSpec:
    bw = _blue_waters_p1_spec()
    return MachineSpec(
        name="SystemB-56KB-L1",
        hierarchy=cache_configs.system_b(),
        timing=bw.timing,
        network=bw.network,
    )


MACHINE_BUILDERS: Dict[str, Callable[[], MachineSpec]] = {
    "opteron_2level": _opteron_2level_spec,
    "cray_xt5": _cray_xt5_spec,
    "blue_waters_p1": _blue_waters_p1_spec,
    "system_a": _system_a_spec,
    "system_b": _system_b_spec,
}

_SPEC_CACHE: Dict[str, MachineSpec] = {}
#: (name, accesses_per_probe) -> the profile and the store roots it has
#: been checked into
_PROFILE_CACHE: Dict[Tuple[str, int], Tuple[MachineProfile, Set[Path]]] = {}

#: the profile store's directory under a signature cache's root
STORE_DIR = "machines"

#: bump when a stored profile's meaning changes; invalidates all entries
SCHEMA_VERSION = 1

#: store events -> :class:`ProfileStoreStats` counters
_COUNTERS = {
    "disk_hits": "hits",
    "misses": "misses",
    "stores": "stores",
    "quarantined": "corrupt",
}


@dataclass
class ProfileStoreStats(CounterSet):
    """Profile-store tallies (``machine.*`` metrics).  Kept apart from the
    signature cache's ``cache.*``, which count signatures only."""

    PREFIX = "machine"

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0


def get_spec(name: str) -> MachineSpec:
    """Look up a machine's hardware definition."""
    if name not in MACHINE_BUILDERS:
        known = ", ".join(sorted(MACHINE_BUILDERS))
        raise KeyError(f"unknown machine {name!r}; known: {known}")
    if name not in _SPEC_CACHE:
        _SPEC_CACHE[name] = MACHINE_BUILDERS[name]()
    return _SPEC_CACHE[name]


def profile_key(spec: MachineSpec, accesses_per_probe: int) -> str:
    """Digest of everything a built profile depends on: the spec, the
    MultiMAPS sweep, its RNG root seed and the code version."""
    blob = "\n".join(
        [
            f"schema={SCHEMA_VERSION}",
            f"spec={spec!r}",
            f"accesses_per_probe={accesses_per_probe}",
            f"working_sets={DEFAULT_WORKING_SETS!r}",
            f"strides={DEFAULT_STRIDES!r}",
            f"root_seed={DEFAULT_ROOT_SEED}",
            f"code_version={default_code_version()}",
        ]
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def get_machine(
    name: str,
    *,
    accesses_per_probe: int = 100_000,
    root: Union[str, Path, None] = None,
) -> MachineProfile:
    """The measured profile for a named machine, built once per process.

    ``root`` is the directory of a profile store: a profile found there
    is loaded instead of probed (a damaged entry is quarantined and
    rebuilt), and a profile built or loaded here is stored there if the
    store lacks it.  Each root is checked once per process.  Without
    one, nothing is written.
    """
    key = (name, accesses_per_probe)
    profile, roots = _PROFILE_CACHE.get(key, (None, set()))
    if root is not None and Path(root) not in roots:
        store = Store(
            root, suffix=".pkl", stats=ProfileStoreStats(), counters=_COUNTERS,
        )
        entry = profile_key(get_spec(name), accesses_per_probe)
        if profile is None:
            profile = store.get(entry, pickle.loads)
        if profile is None:
            profile = _probe(name, accesses_per_probe)
        if entry not in store:
            try:
                store.put(entry, profile, pickle.dumps)
            except OSError as exc:  # the built profile still serves
                log.warning("could not store machine profile %s: %s",
                            entry[:12], exc)
        roots.add(Path(root))
    elif profile is None:
        profile = _probe(name, accesses_per_probe)
    _PROFILE_CACHE[key] = (profile, roots)
    return profile


def _probe(name: str, accesses_per_probe: int) -> MachineProfile:
    spec = get_spec(name)
    return build_profile(
        spec.name,
        spec.hierarchy,
        spec.timing,
        spec.network,
        accesses_per_probe=accesses_per_probe,
    )
