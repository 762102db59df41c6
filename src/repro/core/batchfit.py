"""Batched canonical-form fitting: §IV at array speed.

Every paper form (and the §VI extensions) is linear-in-parameters in a
transformed space — constant; linear in N; linear in ln N; exponential
and power via ln y — so one centered least-squares pass per form fits
*every* (block, instruction, feature) element of a trace at once:
training series are stacked into an ``(n_elements, n_counts)`` matrix
and each form produces its coefficient columns, SSE scores, and
applicability mask (mixed-sign y for exponential/power, x <= 0 for log)
as whole-matrix numpy expressions.

The per-element path (:func:`repro.core.canonical.fit_all`) survives as
the scalar oracle (:func:`repro.core.extrapolate.reference_matrices`,
which the guard's spot check and the tests call); this module replicates
its exact arithmetic — the same centered normal equations, the same SSE
noise floor, the same parsimony tie-breaks — so batched results agree
with the oracle to ~1e-9 relative with identical form selection (see
DESIGN.md §7.4 for the numerical-agreement contract and
``tests/test_batchfit.py`` for the property suite that enforces it).
Fitting, cross-validation and the guard's fit checks all run on these
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.canonical import (
    CanonicalForm,
    PAPER_FORMS,
    _PARSIMONY_RTOL,
)
from repro.obs.trace import span


@dataclass
class BatchFitResult:
    """All forms fitted to every row of one series matrix.

    ``order[i]`` ranks the form indices for row ``i`` best-first under
    the oracle's selection rule (SSE with parsimony tie-breaks); only
    the first ``n_candidates[i]`` entries are applicable forms, mirroring
    the candidate list :func:`repro.core.canonical.fit_all` returns.
    """

    x: np.ndarray  #: shared training abscissa, shape (n_counts,)
    Y: np.ndarray  #: training series, shape (n_rows, n_counts)
    forms: Tuple[CanonicalForm, ...]
    params: List[np.ndarray]  #: per form: (n_rows, n_params)
    sse: np.ndarray  #: (n_rows, n_forms); +inf where inapplicable
    applicable: np.ndarray  #: bool (n_rows, n_forms)
    order: np.ndarray  #: int (n_rows, n_forms) candidate ranking
    n_candidates: np.ndarray  #: (n_rows,) applicable-form counts

    @property
    def n_rows(self) -> int:
        return self.Y.shape[0]

    def predict_all_forms(self, targets: Sequence[float]) -> np.ndarray:
        """Every form evaluated at every target: (n_forms, n_rows, n_t).

        Forms that never applied to any row (e.g. quadratic with fewer
        than four training counts — its params were never fitted) come
        back as NaN planes; selection masks them out anyway.
        """
        t = np.asarray(targets, dtype=np.float64)
        planes = []
        with np.errstate(all="ignore"):
            for f, (form, p) in enumerate(zip(self.forms, self.params)):
                if self.applicable[:, f].any():
                    planes.append(form.evaluate_batch(p, t))
                else:
                    planes.append(np.full((self.n_rows, t.size), np.nan))
        return np.stack(planes)

    def select_and_predict(
        self, targets: Sequence[float], lo: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized physicality-aware selection + evaluation.

        The whole-matrix twin of ``ElementFit.select_for_target``: for
        every (row, target) pair, walk that row's candidate ranking and
        pick the first form whose prediction is finite, not below the
        row's lower bound ``lo``, and positive wherever every training
        value was strictly positive; fall back to the best fit when all
        candidates are rejected.  Returns ``(raw, chosen)`` — the
        *unclamped* selected predictions and the chosen form indices,
        both shaped ``(n_rows, n_targets)``.
        """
        preds = self.predict_all_forms(targets)  # (n_forms, n_rows, n_t)
        require_pos = np.all(self.Y > 0, axis=1)
        with np.errstate(invalid="ignore"):
            ok = np.isfinite(preds)
            ok &= ~(preds < lo[None, :, None])
            ok &= ~(require_pos[None, :, None] & (preds <= 0.0))
        ok &= self.applicable.T[:, :, None]
        ok_rows = np.moveaxis(ok, 0, 1)  # (n_rows, n_forms, n_t)
        ok_ranked = np.take_along_axis(
            ok_rows, self.order[:, :, None], axis=1
        )
        first = np.argmax(ok_ranked, axis=1)  # (n_rows, n_t)
        rank = np.where(ok_ranked.any(axis=1), first, 0)
        chosen = np.take_along_axis(self.order, rank, axis=1)
        raw = np.take_along_axis(
            np.moveaxis(preds, 0, 1), chosen[:, None, :], axis=1
        )[:, 0, :]
        return raw, chosen


def batch_fit_series(
    x: Sequence[float],
    Y: np.ndarray,
    forms: Sequence[CanonicalForm] = PAPER_FORMS,
) -> BatchFitResult:
    """Fit every applicable form to every row of ``Y`` in one pass.

    The batched equivalent of calling :func:`fit_all(x, Y[i], forms)
    <repro.core.canonical.fit_all>` for each row: identical validation,
    identical SSE scoring, identical parsimony ordering — expressed as a
    handful of whole-matrix operations.
    """
    x = np.asarray(x, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if x.ndim != 1 or Y.ndim != 2 or Y.shape[1] != x.size:
        raise ValueError(
            f"Y must be (n_rows, {x.size}) to match x, got {Y.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("x contains non-finite values")
    if not np.all(np.isfinite(Y)):
        raise ValueError("y contains non-finite values")
    n_distinct = np.unique(x).size
    if n_distinct != x.size:
        raise ValueError("training core counts must be distinct")

    n_rows, n_forms = Y.shape[0], len(forms)
    sse = np.full((n_rows, n_forms), np.inf)
    applicable = np.zeros((n_rows, n_forms), dtype=bool)
    params_list: List[np.ndarray] = []
    with span("fit.batch", rows=n_rows, forms=n_forms):
        for f, form in enumerate(forms):
            if n_distinct < form.min_points:
                params_list.append(np.zeros((n_rows, 1)))
                continue
            params, ok = form.fit_batch(x, Y)
            params_list.append(params)
            ok = ok & np.all(np.isfinite(params), axis=1)
            if not np.any(ok):
                continue
            with np.errstate(all="ignore"):
                residual = form.evaluate_batch(params, x) - Y
            residual = np.where(ok[:, None], residual, 0.0)
            ok &= np.all(np.isfinite(residual), axis=1)
            applicable[:, f] = ok
            sse[:, f] = np.where(
                ok, np.einsum("ij,ij->i", residual, residual), np.inf
            )

    n_candidates = applicable.sum(axis=1)
    if np.any(n_candidates == 0):
        bad = int(np.argmin(n_candidates))
        raise ValueError(
            f"no canonical form could fit the data (row {bad})"
        )

    # parsimony: same thresholds as fit_all — forms statistically tied
    # with the best SSE compete on complexity, the rest follow in SSE
    # order; the noise floor is absolute (see canonical.fit_all)
    scale = np.einsum("ij,ij->i", Y, Y)
    eps = np.finfo(np.float64).eps
    noise_floor = x.size * (64.0 * eps) ** 2 * np.maximum(1.0, scale)
    best = sse.min(axis=1)
    threshold = best * (1.0 + _PARSIMONY_RTOL) + noise_floor
    complexity = np.array([f.complexity for f in forms], dtype=np.float64)
    tied = applicable & (sse <= threshold[:, None])
    group = np.where(tied, 0.0, np.where(applicable, 1.0, 2.0))
    key2 = np.where(tied, complexity[None, :], sse)
    key3 = np.where(tied, sse, complexity[None, :])
    # stable row-wise sort by (group, key2, key3) — equal keys keep forms
    # order, matching the reference's stable sorted() over a list built
    # in forms order
    order = np.lexsort((key3, key2, group), axis=-1)
    return BatchFitResult(
        x=x,
        Y=Y,
        forms=tuple(forms),
        params=params_list,
        sse=sse,
        applicable=applicable,
        order=order,
        n_candidates=n_candidates,
    )
