"""Cross-validate the analytical cache engine on a Table II-style sweep.

CI runs this after the unit/property suites::

    python tests/check_cache_engines.py

It collects the jacobi proxy's slowest-rank signature against several
named target hierarchies with ``--cache-engine reuse`` semantics (the
guard gate armed, so any silent reuse/exact divergence aborts the
sweep), re-collects with the exact engine, and checks:

- per-block cumulative hit rates agree within the guard tolerance on
  every level of every hierarchy;
- the multi-geometry sweep *reuses* profiles instead of re-profiling:
  hierarchies that sample identical streams hit the profile cache
  (``cachesim.reuse.profile_hits``), and the total number of profiling
  passes stays at one per distinct (stream, line size);
- the closed-form evaluator ran per level (``cachesim.reuse.evals``).

Exit status 0 when every check holds, 1 otherwise (one line per problem
on stderr).  Importable too: :func:`run_sweep` returns the problem list
so tests can assert it is empty.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path
from typing import List

if __package__ in (None, ""):  # executed as a script
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.apps.registry import get_app  # noqa: E402
from repro.cache.configs import NAMED_HIERARCHIES  # noqa: E402
from repro.cache.reuse import configure_profile_cache  # noqa: E402
from repro.instrument.collector import CollectorConfig, collect_trace  # noqa: E402
from repro.obs.metrics import REGISTRY  # noqa: E402

#: the sweep's target systems; blue_waters_p1 and system_a sample
#: identical streams (same largest cache), so the second one must be
#: served from the profile cache without a single new profiling pass
SWEEP = ("opteron_2level", "blue_waters_p1", "system_a")

APP = "jacobi"
N_RANKS = 16
RANK = 0

#: the guard gate's agreement contract, applied per block and level
RTOL = 0.05
ATOL = 0.05

#: known model deviations, (hierarchy, block_id, level) -> ceiling.
#: system_a's tiny 3-way L1 exposes the pooled-StatStack bias on
#: jacobi's asymmetric stencil/store block (DESIGN.md §7.8): the
#: per-block L1 rate lands ~0.08 high while every outer level agrees to
#: 1e-3.  The deviation is bounded here so a regression past the
#: documented envelope still fails the sweep.
KNOWN_DEVIATIONS = {("system_a", 0, 0): 0.12}


def _counter(name: str):
    return REGISTRY.counters.get(name, 0)


def _collect(hierarchy, engine: str):
    app = get_app(APP)
    return collect_trace(
        app.rank_program(RANK, N_RANKS),
        hierarchy,
        app=APP,
        rank=RANK,
        n_ranks=N_RANKS,
        config=CollectorConfig(engine=engine),
    )


def _block_rates(trace):
    """block_id -> access-weighted cumulative hit-rate vector."""
    schema = trace.schema
    out = {}
    for bid in sorted(trace.blocks):
        block = trace.blocks[bid]
        rates, weights = [], []
        for instr in block.instructions:
            vec = np.asarray(instr.features, dtype=np.float64)
            rates.append(vec[schema.hit_rate_slice])
            weights.append(max(float(vec[0]), 1.0))
        if rates:
            w = np.asarray(weights)
            out[bid] = (w[:, None] * np.asarray(rates)).sum(axis=0) / w.sum()
    return out


def run_sweep(profile_root=None) -> List[str]:
    problems: List[str] = []
    configure_profile_cache(profile_root)
    profiles_before = _counter("cachesim.reuse.profiles")
    evals_before = _counter("cachesim.reuse.evals")

    per_hierarchy_profiles = {}
    results = {}
    for name in SWEEP:
        hierarchy = NAMED_HIERARCHIES[name]()
        before = _counter("cachesim.reuse.profiles")
        try:
            results[name] = _collect(hierarchy, "reuse")
        except Exception as exc:  # guard gate refusal or a crash
            problems.append(f"{name}: reuse collection failed: {exc}")
            continue
        per_hierarchy_profiles[name] = (
            _counter("cachesim.reuse.profiles") - before
        )

    if problems:
        return problems

    # multi-geometry reuse: system_a samples the same streams as
    # blue_waters_p1 (same largest cache) and needs the same congruence
    # moduli, so its *engine* profiles all come from the cache; the one
    # pass it may still take is the guard gate profiling its own
    # truncated spot-check stream
    if per_hierarchy_profiles.get("system_a", -1) > 1:
        problems.append(
            "system_a ran "
            f"{per_hierarchy_profiles.get('system_a')} profiling passes; "
            "expected its engine profiles served from the cache shared "
            "with blue_waters_p1 (at most the gate's own pass)"
        )
    if _counter("cachesim.reuse.profile_hits") == 0:
        problems.append("profile cache recorded no hits across the sweep")
    if _counter("cachesim.reuse.evals") <= evals_before:
        problems.append("closed-form evaluator never ran")
    total_profiles = _counter("cachesim.reuse.profiles") - profiles_before
    # 2 distinct stream samplings x 3 blocks for the engines, plus one
    # truncated spot-check stream per hierarchy for the guard gate
    if total_profiles > 2 * 3 + len(SWEEP):
        problems.append(
            f"{total_profiles} profiling passes across the sweep; expected "
            "at most one per distinct (stream, line size)"
        )

    # agreement with the exact engine, per block and level
    print(f"{'hierarchy':>16} {'block':>5} {'exact':>28} {'reuse':>28}")
    for name in SWEEP:
        hierarchy = NAMED_HIERARCHIES[name]()
        exact = _block_rates(_collect(hierarchy, "exact"))
        approx = _block_rates(results[name])
        def fmt(v):
            return "[" + " ".join(f"{x:.4f}" for x in v) + "]"

        for bid in sorted(exact):
            he, ha = exact[bid], approx[bid]
            print(f"{name:>16} {bid:>5} {fmt(he):>28} {fmt(ha):>28}")
            err = np.abs(ha - he)
            tol = ATOL + RTOL * np.abs(he)
            for lvl in np.flatnonzero(err > tol):
                ceiling = KNOWN_DEVIATIONS.get((name, bid, int(lvl)))
                if ceiling is not None and err[lvl] <= ceiling:
                    print(
                        f"{name:>16} {bid:>5} level {lvl}: known "
                        f"deviation {err[lvl]:.4f} (ceiling {ceiling})"
                    )
                    continue
                problems.append(
                    f"{name} block {bid} level {lvl}: reuse "
                    f"{ha[lvl]:.4f} vs exact {he[lvl]:.4f} diverges "
                    f"beyond atol={ATOL} rtol={RTOL}"
                )
    return problems


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        problems = run_sweep(Path(tmp) / "profiles")
    for problem in problems:
        print(f"check_cache_engines: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("cache-engine sweep OK: reuse agrees with exact, profiles shared")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
