"""Feature-vector schema.

Each instruction's behavior at one core count is a flat float vector; the
schema names its elements and provides indexed access.  The hit-rate
block's width depends on the target hierarchy, so schemas are built per
target system.

Elements (matching paper §III-B's feature-vector inventory, plus the
ILP/data-dependency features §I lists):

==================  =====================================================
``exec_count``      dynamic executions of the instruction
``fp_add`` ...      floating-point op counts by class (amount *and*
                    composition of fp work)
``mem_ops``         dynamic memory references
``loads/stores``    split of ``mem_ops``
``ref_bytes``       average reference size, bytes
``working_set_b``   bytes the instruction touches (unique lines x line)
``hit_rate_<L>``    cumulative hit rate (fraction in [0,1]) per target
                    cache level
``ilp``             independent-instruction parallelism estimate
``dep_chain``       average dependence-chain length feeding the op
==================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

#: Fixed (hierarchy-independent) leading fields, in storage order.
BASE_FIELDS: Tuple[str, ...] = (
    "exec_count",
    "fp_add",
    "fp_mul",
    "fp_fma",
    "fp_div",
    "mem_ops",
    "loads",
    "stores",
    "ref_bytes",
    "working_set_bytes",
    "ilp",
    "dep_chain",
)

#: Fields that are *counts* and must stay non-negative integers-ish under
#: extrapolation (clamped at >= 0).
COUNT_FIELDS: Tuple[str, ...] = (
    "exec_count",
    "fp_add",
    "fp_mul",
    "fp_fma",
    "fp_div",
    "mem_ops",
    "loads",
    "stores",
)

#: Fields bounded to [0, 1] under extrapolation.
RATE_PREFIX = "hit_rate_"


@dataclass(frozen=True)
class FeatureSchema:
    """Names and positions of feature-vector elements for one target.

    Parameters
    ----------
    level_names:
        Target-hierarchy cache level names, innermost first; generates
        one ``hit_rate_<name>`` field per level.
    """

    level_names: Tuple[str, ...]

    def __init__(self, level_names: Sequence[str]):
        object.__setattr__(self, "level_names", tuple(level_names))
        if not self.level_names:
            raise ValueError("schema needs at least one cache level")

    @property
    def fields(self) -> Tuple[str, ...]:
        return BASE_FIELDS + tuple(
            f"{RATE_PREFIX}{name}" for name in self.level_names
        )

    @property
    def n_features(self) -> int:
        return len(self.fields)

    def index(self, field: str) -> int:
        """Position of a field in the vector; KeyError if unknown."""
        try:
            return self.fields.index(field)
        except ValueError:
            raise KeyError(
                f"unknown feature {field!r}; known: {', '.join(self.fields)}"
            ) from None

    @property
    def hit_rate_slice(self) -> slice:
        """Slice selecting the hit-rate block."""
        start = len(BASE_FIELDS)
        return slice(start, start + len(self.level_names))

    def is_count_field(self, field: str) -> bool:
        return field in COUNT_FIELDS

    def is_rate_field(self, field: str) -> bool:
        return field.startswith(RATE_PREFIX)

    def bounds(self, field: str) -> Tuple[float, float]:
        """Physical bounds for a field's values (used to clamp fits)."""
        if self.is_rate_field(field):
            return (0.0, 1.0)
        if field in ("ilp", "dep_chain", "ref_bytes"):
            return (0.0, np.inf)
        return (0.0, np.inf)

    def empty_vector(self) -> np.ndarray:
        return np.zeros(self.n_features, dtype=np.float64)

    def vector_from_dict(self, values: Dict[str, float]) -> np.ndarray:
        """Build a vector from a field->value mapping (missing = 0)."""
        vec = self.empty_vector()
        for field, value in values.items():
            vec[self.index(field)] = value
        return vec

    def dict_from_vector(self, vector: np.ndarray) -> Dict[str, float]:
        if vector.shape[-1] != self.n_features:
            raise ValueError(
                f"vector has {vector.shape[-1]} elements, schema expects "
                f"{self.n_features}"
            )
        return dict(zip(self.fields, (float(v) for v in vector)))

    def hit_rates(self, vector: np.ndarray) -> np.ndarray:
        """Extract cumulative hit rates, shape (n_levels,)."""
        return np.asarray(vector[..., self.hit_rate_slice], dtype=np.float64)
