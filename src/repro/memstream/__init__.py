"""Parametric memory address-stream generators.

In the paper, PEBIL instruments every memory access of a real binary and
feeds the resulting address stream through a cache simulator on the fly.
Here the "binary" is a synthetic executable IR (:mod:`repro.instrument`)
whose instructions carry an *access pattern* — a compact, parametric
description of the addresses the instruction touches.  This package
defines those patterns and turns them into concrete numpy address arrays,
generated lazily in chunks so that arbitrarily long streams never
materialize in memory (the paper notes a single process can generate over
2 TB of address data per hour; chunked on-the-fly processing is the same
mitigation the paper uses).
"""

from repro.memstream.patterns import (
    AccessPattern,
    BlockedPattern,
    ConstantPattern,
    GatherScatterPattern,
    PointerChasePattern,
    RandomPattern,
    StencilPattern,
    StridedPattern,
)
from repro.memstream.generator import interleave_streams
from repro.memstream.workingset import footprint_bytes, unique_lines

__all__ = [
    "AccessPattern",
    "StridedPattern",
    "BlockedPattern",
    "RandomPattern",
    "GatherScatterPattern",
    "StencilPattern",
    "PointerChasePattern",
    "ConstantPattern",
    "interleave_streams",
    "footprint_bytes",
    "unique_lines",
]
