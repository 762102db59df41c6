"""Per-element fitting across a trace series.

Applies the canonical-form selection of §IV to every element of every
instruction's feature vector over the training core counts, recording
which form won and how well it fit — the data behind Figs. 3-5 and the
<20%-error claim of §IV.

All elements are stacked into one ``(n_elements, n_counts)`` matrix and
fitted by :func:`repro.core.batchfit.batch_fit_series` in a handful of
whole-matrix passes; :class:`BatchedFitReport` keeps those matrices as
the fitted model.  The per-element scalar chain —
:func:`repro.core.canonical.fit_all` and :class:`ElementFit` selection —
is the oracle the batch path is tested against (agreement to ~1e-9
relative, identical form selection); see
:func:`repro.core.extrapolate.reference_matrices`.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.batchfit import BatchFitResult, batch_fit_series
from repro.core.canonical import (
    FORM_SETS,
    CanonicalForm,
    FitResult,
    PAPER_FORMS,
)
from repro.obs.trace import span
from repro.trace.features import FeatureSchema
from repro.util.errors import FitError


@dataclass
class ElementFit:
    """The scalar oracle's candidate fits of one feature element.

    ``candidates`` hold every applicable canonical form, best-first (SSE
    with parsimony tie-breaks), as :func:`~repro.core.canonical.fit_all`
    returns them.  :meth:`select_for_target` may *demote* the best fit
    for a given prediction target when its extrapolation leaves the
    feature's physical range (a negative operation count, say) in favor
    of the next-best form that stays physical — without this, a
    least-squares line through a decaying count series extrapolates
    below zero and clamping would destroy the proportionality between
    related elements (see DESIGN.md §5).  Selection is pure: it never
    mutates the element.
    """

    candidates: List[FitResult]
    train_y: np.ndarray

    def select_for_target(
        self, n_ranks: float, bounds: Tuple[float, float]
    ) -> FitResult:
        """The best candidate whose prediction at ``n_ranks`` is physical.

        A candidate is rejected if its prediction falls below the lower
        bound, or is non-positive when every training value was strictly
        positive (counts of an executed instruction cannot vanish) —
        clamping such a prediction would destroy the proportionality
        between related count elements.  Predictions *above* the upper
        bound are kept: for bounded rates, exceeding the bound is
        saturation and the caller's clamp is the physical behavior.
        If every candidate is rejected, the best fit wins.
        """
        lo, _hi = bounds
        require_positive = bool(np.all(self.train_y > 0))
        for candidate in self.candidates:
            raw = float(candidate.predict(np.array([n_ranks]))[0])
            if not np.isfinite(raw):
                continue
            if raw < lo:
                continue
            if require_positive and raw <= 0:
                continue
            return candidate
        return self.candidates[0]

    def predict(self, n_ranks: float, bounds: Tuple[float, float]) -> float:
        """Evaluate the selected fit at a core count, clamped to bounds."""
        fit = self.select_for_target(n_ranks, bounds)
        raw = float(fit.predict(np.array([n_ranks]))[0])
        lo, hi = bounds
        return float(np.clip(raw, lo, hi))


@dataclass
class SweepPrediction:
    """Synthesized feature values for a whole sweep of target counts.

    ``values[t, p, j]`` is the (bounds-clamped, trust-region-capped,
    re-monotonized) prediction for target ``targets[t]``, instruction
    pair ``pair_keys[p]``, feature column ``j`` — exactly the numbers
    :func:`repro.core.extrapolate.extrapolate_trace` would put in a
    synthetic trace at each target, computed from a single fit.
    """

    targets: List[int]
    pair_keys: List[Tuple[int, int]]
    schema: FeatureSchema
    values: np.ndarray  #: (n_targets, n_pairs, n_features)

    def matrix_for(self, target: int) -> np.ndarray:
        """The (n_pairs, n_features) feature matrix of one target."""
        try:
            t = self.targets.index(target)
        except ValueError:
            raise KeyError(
                f"target {target} not in sweep targets {self.targets}"
            ) from None
        return self.values[t]

    def value(
        self, target: int, block_id: int, instr_id: int, feature: str
    ) -> float:
        """One synthesized feature value of one target."""
        p = self.pair_keys.index((block_id, instr_id))
        return float(self.matrix_for(target)[p, self.schema.index(feature)])


#: bump when the fit-bundle layout changes (it is part of DAG artifact
#: digests and registry entries)
FIT_SCHEMA_VERSION = 1

#: the batch matrices a fit bundle stores, under their attribute names
_FIT_ARRAYS = ("x", "Y", "sse", "applicable", "order", "n_candidates")


def row_bounds(
    schema: FeatureSchema, n_pairs: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row physical bounds ``(lo, hi)`` of a pair-major,
    feature-minor element matrix of ``n_pairs`` instructions."""
    lo = np.array([schema.bounds(f)[0] for f in schema.fields])
    hi = np.array([schema.bounds(f)[1] for f in schema.fields])
    return np.tile(lo, n_pairs), np.tile(hi, n_pairs)


@dataclass
class BatchedFitReport:
    """All element fits of one trace-extrapolation run, as matrices.

    ``batch`` holds one row per (instruction pair, feature) element,
    pair-major in ``pair_keys`` order and feature-minor in ``schema``
    order.  :meth:`predict_many` is the synthesis entry point: one fit,
    evaluated at any number of targets.
    """

    core_counts: List[int]
    schema: FeatureSchema
    pair_keys: List[Tuple[int, int]]
    batch: BatchFitResult

    def form_histogram(self) -> Counter:
        """How often each canonical form is the best fit (target-free)."""
        counts = np.bincount(
            self.batch.order[:, 0], minlength=len(self.batch.forms)
        )
        return Counter(
            {
                form.name: int(n)
                for form, n in zip(self.batch.forms, counts)
                if n
            }
        )

    def predict_many(
        self,
        targets: Sequence[int],
        *,
        rate_trust_factor: float = 2.0,
    ) -> SweepPrediction:
        """Synthesize feature values for many targets from one fit.

        Applies, per (element, target), the same pipeline as the scalar
        extrapolation path — physicality-aware selection, bounds
        clamping, the rate trust region (re-clamped to bounds), and
        hit-rate re-monotonization — as whole-matrix array passes, so a
        what-if sweep over N targets costs one fit plus N cheap
        evaluations instead of N full fit+predict runs.
        """
        targets = [int(t) for t in targets]
        if not targets:
            raise FitError("need at least one sweep target", stage="fit")
        for t in targets:
            if t <= 0:
                raise FitError(
                    f"target core count must be positive, got {t}",
                    stage="fit",
                )
        lo, hi = row_bounds(self.schema, len(self.pair_keys))
        raw, _chosen = self.batch.select_and_predict(targets, lo)
        values = np.clip(raw, lo[:, None], hi[:, None])

        schema = self.schema
        is_rate = np.tile(
            np.array([schema.is_rate_field(f) for f in schema.fields]),
            len(self.pair_keys),
        )
        if np.isfinite(rate_trust_factor) and np.any(is_rate):
            # trust region: cap the extrapolated change beyond the
            # largest training count at rate_trust_factor x the training
            # range, then re-clamp — the cap re-introduces out-of-range
            # values when the training series itself strays out of bounds
            last = self.batch.Y[:, -1]
            spread = np.ptp(self.batch.Y, axis=1)
            capped = np.clip(
                values,
                (last - rate_trust_factor * spread)[:, None],
                (last + rate_trust_factor * spread)[:, None],
            )
            capped = np.clip(capped, lo[:, None], hi[:, None])
            values = np.where(is_rate[:, None], capped, values)

        n_pairs, n_feat = len(self.pair_keys), schema.n_features
        # (n_rows, n_t) -> (n_t, n_pairs, n_feat)
        values = np.ascontiguousarray(
            values.reshape(n_pairs, n_feat, len(targets)).transpose(2, 0, 1)
        )
        hr = schema.hit_rate_slice
        # cumulative hit rates must be non-decreasing outward
        values[:, :, hr] = np.clip(
            np.maximum.accumulate(values[:, :, hr], axis=2), 0.0, 1.0
        )
        return SweepPrediction(
            targets=targets,
            pair_keys=list(self.pair_keys),
            schema=schema,
            values=values,
        )

    # -- the fit-bundle codec: DAG fit artifacts and registry models ------

    def save_npz(self, file, *, forms: str) -> None:
        """Write the fit as one compressed ``.npz`` (path or binary file).

        Members: the batch matrices, ``params_<f>`` per form, and a JSON
        ``meta`` naming ``forms``, the :data:`FORM_SETS` entry the
        batch's forms come from.
        """
        batch = self.batch
        arrays = {name: getattr(batch, name) for name in _FIT_ARRAYS}
        for f, params in enumerate(batch.params):
            arrays[f"params_{f}"] = params
        meta = {
            "schema_version": FIT_SCHEMA_VERSION,
            "core_counts": [int(c) for c in self.core_counts],
            "level_names": list(self.schema.level_names),
            "pair_keys": [[int(b), int(k)] for b, k in self.pair_keys],
            "form_names": [f.name for f in batch.forms],
            "forms_set": forms,
        }
        arrays["meta"] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
        np.savez_compressed(file, **arrays)

    @classmethod
    def load_npz(cls, file) -> "BatchedFitReport":
        """Read a fit written by :meth:`save_npz`."""
        with np.load(file, allow_pickle=False) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            if meta.get("schema_version") != FIT_SCHEMA_VERSION:
                raise FitError(
                    f"unsupported fit-bundle schema "
                    f"{meta.get('schema_version')!r}",
                    stage="fit",
                )
            by_name = {f.name: f for f in FORM_SETS[meta["forms_set"]]}
            forms = tuple(by_name[n] for n in meta["form_names"])
            batch = BatchFitResult(
                forms=forms,
                params=[data[f"params_{f}"] for f in range(len(forms))],
                **{name: data[name] for name in _FIT_ARRAYS},
            )
        return cls(
            core_counts=meta["core_counts"],
            schema=FeatureSchema(meta["level_names"]),
            pair_keys=[(int(b), int(k)) for b, k in meta["pair_keys"]],
            batch=batch,
        )


def fit_feature_series(
    schema: FeatureSchema,
    core_counts: Sequence[int],
    series: np.ndarray,
    forms: Sequence[CanonicalForm] = PAPER_FORMS,
    *,
    pair_keys: Sequence[Tuple[int, int]],
) -> BatchedFitReport:
    """Fit every feature element of every instruction.

    Parameters
    ----------
    schema:
        Trace schema (names the feature columns).
    core_counts:
        Training core counts, ascending.
    series:
        ``(n_pairs, n_counts, n_features)`` array: row ``p`` holds the
        feature vectors of instruction ``pair_keys[p]`` at each
        training count.
    pair_keys:
        ``(block_id, instr_index)`` of each row of ``series``.
    """
    x = np.asarray(core_counts, dtype=np.float64)
    if np.any(np.diff(x) <= 0):
        raise FitError("core counts must be strictly ascending", stage="fit")
    series = np.asarray(series, dtype=np.float64)
    expected = (len(pair_keys), x.size, schema.n_features)
    if series.shape != expected:
        raise ValueError(
            f"feature series has shape {series.shape}, expected {expected}"
        )
    with span("fit.series", pairs=len(pair_keys)):
        # (n_pairs * n_features, n_counts), pair-major and feature-minor,
        # stored column-major: the layout sets BLAS's summation order in
        # the least-squares passes, so it is part of the fit's bytes
        Y = series.transpose(1, 0, 2).reshape(x.size, -1).T
        return BatchedFitReport(
            core_counts=[int(c) for c in core_counts],
            schema=schema,
            pair_keys=list(pair_keys),
            batch=batch_fit_series(x, Y, forms),
        )
