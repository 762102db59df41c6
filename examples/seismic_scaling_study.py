#!/usr/bin/env python3
"""Scaling study of the SPECFEM3D proxy: where does the data live?

The scenario motivating the paper's Tables II and III: an analyst wants
to know how a seismic code's memory behavior evolves as it strong-scales
on a target system — and how a different L1 design would change it —
without tracing at scale (or the target even existing).

This script:
1. traces the SPECFEM3D proxy at three affordable core counts;
2. extrapolates the signature to a ladder of larger counts;
3. prints how each basic block's target-system hit rates evolve
   (Table II style);
4. repeats the collection against two what-if targets differing only in
   L1 size, showing which blocks are L1-sensitive (Table III style).

Uses a reduced mesh so the study runs in a couple of minutes; pass
--paper-scale to use the paper's core counts (96/384/1536 -> 6144).

Run:  python examples/seismic_scaling_study.py [--paper-scale]
"""

import argparse

from repro import collect_signature, extrapolate_trace, get_machine
from repro.apps.specfem3d import SpecFEM3DProxy, SpecFEMParams
from repro.cache.configs import system_a, system_b
from repro.util.tables import Table


def hit_rate_evolution(app, machine, train_counts, targets):
    """Table II-style: per-block hit-rate trajectories."""
    traces = [
        collect_signature(app, p, machine.hierarchy).slowest_trace()
        for p in train_counts
    ]
    schema = traces[0].schema
    rows = {}  # (block, level) -> series over all counts
    for trace in traces:
        for block in trace.blocks.values():
            agg = block.aggregate(schema)
            for level in machine.hierarchy.level_names:
                rows.setdefault(
                    (block.location.function, level), []
                ).append(100 * agg[f"hit_rate_{level}"])
    for target in targets:
        extrap = extrapolate_trace(traces, target).trace
        for block in extrap.blocks.values():
            agg = block.aggregate(schema)
            for level in machine.hierarchy.level_names:
                rows[(block.location.function, level)].append(
                    100 * agg[f"hit_rate_{level}"]
                )
    counts = [str(c) for c in train_counts] + [f"{t}*" for t in targets]
    table = Table(
        columns=["Block", "Level", *counts],
        title="Hit-rate evolution on the target system "
        "(*: extrapolated, not collected)",
        float_fmt=".1f",
    )
    for (function, level), series in sorted(rows.items()):
        table.add_row(function, level, *series)
    return table


def l1_whatif(app, counts):
    """Table III-style: L1 sensitivity of each block on two targets."""
    table = Table(
        columns=["Block", "System", *(str(c) for c in counts)],
        title="L1 hit rate (%) on two what-if targets (12KB vs 56KB L1)",
        float_fmt=".1f",
    )
    for label, hierarchy in (("A 12KB", system_a()), ("B 56KB", system_b())):
        traces = [
            collect_signature(app, p, hierarchy).slowest_trace()
            for p in counts
        ]
        schema = traces[0].schema
        for function in [
            b.location.function for b in traces[0].blocks.values()
        ]:
            series = []
            for trace in traces:
                block = next(
                    b
                    for b in trace.blocks.values()
                    if b.location.function == function
                )
                series.append(100 * block.aggregate(schema)["hit_rate_L1"])
            table.add_row(function, label, *series)
    return table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's core counts (slower)",
    )
    args = parser.parse_args()

    if args.paper_scale:
        app = SpecFEM3DProxy()
        train, targets = (96, 384, 1536), (6144,)
        whatif_counts = (96, 384, 1536)
    else:
        app = SpecFEM3DProxy(SpecFEMParams(global_elements=(24, 24, 24)))
        train, targets = (6, 24, 96), (384,)
        whatif_counts = (6, 24, 96)

    machine = get_machine("blue_waters_p1")
    print(hit_rate_evolution(app, machine, train, targets).render())
    print()
    print(l1_whatif(app, whatif_counts).render())
    print(
        "\nReading the tables: blocks whose working set shrinks with the "
        "core count climb into L2/L3 (Table II's story); the element "
        "kernel's constant scratch footprint only cares about L1 size "
        "(Table III's story)."
    )


if __name__ == "__main__":
    main()
