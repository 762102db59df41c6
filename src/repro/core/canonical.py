"""Canonical function forms and per-element model selection.

The paper fits four forms to each feature element's values across the
training core counts — constant, linear, exponential, logarithmic — and
keeps the best fit (Figs. 3-5).  §VI proposes adding more forms
(polynomial etc.); those are implemented here as *extended* forms, used
by the ablation benches.

Selection is least-squares in value space with a parsimony tie-break:
when two forms explain the training data equally well (common with three
training points), the simpler form wins, which also extrapolates more
conservatively.  Forms that cannot represent the data (e.g. exponential
with mixed-sign values) report an infinite error and drop out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.util.validation import check_finite

#: Relative slack within which a simpler form beats a more complex one.
_PARSIMONY_RTOL = 1e-6
#: Cap on the exponent argument to keep exponential evaluation finite.
_EXP_CLAMP = 60.0


def _linear_lsq(t: np.ndarray, y: np.ndarray) -> Optional[Tuple[float, float]]:
    """Least-squares slope/intercept of ``y ~ a + b*t``, centered.

    Centering makes the normal equations diagonal, so exactly-linear
    inputs recover their coefficients to ~machine epsilon — unlike a
    Vandermonde solve, whose conditioning degrades with ``t``'s span.
    The parsimony tie-break in :func:`fit_all` relies on this: an exact
    fit must produce an SSE at the floating-point noise floor, not at
    the solver's truncation error.  Returns ``None`` for degenerate
    (constant) ``t``.
    """
    tm = float(t.mean())
    ym = float(y.mean())
    dt = t - tm
    denom = float(dt @ dt)
    if denom == 0.0:
        return None
    b = float(dt @ (y - ym)) / denom
    return b, ym - b * tm


def _linear_lsq_batch(
    t: np.ndarray, Y: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Row-wise twin of :func:`_linear_lsq`: ``Y[i] ~ a[i] + b[i]*t``.

    One centered normal-equation solve for every row of ``Y`` at once;
    the per-row arithmetic is the same expression sequence as the scalar
    helper, so batched and scalar coefficients agree to within a few
    ulps.  Returns ``(b, a)`` vectors, or ``None`` for degenerate ``t``.
    """
    tm = float(t.mean())
    dt = t - tm
    denom = float(dt @ dt)
    if denom == 0.0:
        return None
    ym = Y.mean(axis=1)
    b = (Y - ym[:, None]) @ dt / denom
    return b, ym - b * tm


class CanonicalForm:
    """Base class: a parametric y = f(x; params) family."""

    #: short name used in reports and figures
    name: str = "?"
    #: minimum number of (distinct-x) training points to fit
    min_points: int = 2
    #: complexity rank for parsimony tie-breaks (lower wins ties)
    complexity: int = 0

    def fit(self, x: np.ndarray, y: np.ndarray) -> Optional[np.ndarray]:
        """Return parameters, or ``None`` if the form cannot fit this data."""
        raise NotImplementedError

    def evaluate(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def describe(self, params: np.ndarray) -> str:
        raise NotImplementedError

    def fit_batch(
        self, x: np.ndarray, Y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fit every row of ``Y`` against the shared abscissa ``x``.

        Returns ``(params, applicable)``: a ``(n_rows, n_params)`` array
        and a boolean mask of rows the form can represent.  The base
        implementation loops the scalar :meth:`fit`, so custom forms work
        with the batched fit unmodified; built-ins override it with
        closed-form whole-matrix passes.
        """
        rows = [self.fit(x, Y[i]) for i in range(Y.shape[0])]
        applicable = np.array([p is not None for p in rows], dtype=bool)
        width = max((p.size for p in rows if p is not None), default=1)
        params = np.zeros((Y.shape[0], width), dtype=np.float64)
        for i, p in enumerate(rows):
            if p is not None:
                params[i, : p.size] = p
        return params, applicable

    def evaluate_batch(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Evaluate every row's parameters at ``x``: ``(n_rows, len(x))``.

        Base implementation loops :meth:`evaluate`; built-ins override
        with broadcasting that applies the identical per-entry formula.
        """
        x = np.asarray(x, dtype=np.float64)
        return np.stack([self.evaluate(p, x) for p in params])


class ConstantForm(CanonicalForm):
    """y = a."""

    name = "constant"
    min_points = 1
    complexity = 0

    def fit(self, x, y):
        return np.array([float(np.mean(y))])

    def evaluate(self, params, x):
        return np.full_like(np.asarray(x, dtype=np.float64), params[0])

    def fit_batch(self, x, Y):
        return Y.mean(axis=1)[:, None], np.ones(Y.shape[0], dtype=bool)

    def evaluate_batch(self, params, x):
        x = np.asarray(x, dtype=np.float64)
        return np.broadcast_to(params[:, :1], (params.shape[0], x.size))

    def describe(self, params):
        return f"y = {params[0]:.6g}"


class LinearForm(CanonicalForm):
    """y = a + b * x."""

    name = "linear"
    min_points = 2
    complexity = 1

    def fit(self, x, y):
        res = _linear_lsq(x, y)
        if res is None:
            return None
        b, a = res
        return np.array([a, b])

    def evaluate(self, params, x):
        return params[0] + params[1] * np.asarray(x, dtype=np.float64)

    def fit_batch(self, x, Y):
        res = _linear_lsq_batch(x, Y)
        if res is None:
            return np.zeros((Y.shape[0], 2)), np.zeros(Y.shape[0], dtype=bool)
        b, a = res
        return np.stack([a, b], axis=1), np.ones(Y.shape[0], dtype=bool)

    def evaluate_batch(self, params, x):
        x = np.asarray(x, dtype=np.float64)
        return params[:, :1] + params[:, 1:2] * x[None, :]

    def describe(self, params):
        return f"y = {params[0]:.6g} + {params[1]:.6g} * x"


class LogarithmicForm(CanonicalForm):
    """y = a + b * ln(x)."""

    name = "log"
    min_points = 2
    complexity = 2

    def fit(self, x, y):
        if np.any(x <= 0):
            return None
        res = _linear_lsq(np.log(x), y)
        if res is None:
            return None
        b, a = res
        return np.array([a, b])

    def evaluate(self, params, x):
        x = np.asarray(x, dtype=np.float64)
        return params[0] + params[1] * np.log(np.maximum(x, 1e-300))

    def fit_batch(self, x, Y):
        if np.any(x <= 0):
            return np.zeros((Y.shape[0], 2)), np.zeros(Y.shape[0], dtype=bool)
        res = _linear_lsq_batch(np.log(x), Y)
        if res is None:
            return np.zeros((Y.shape[0], 2)), np.zeros(Y.shape[0], dtype=bool)
        b, a = res
        return np.stack([a, b], axis=1), np.ones(Y.shape[0], dtype=bool)

    def evaluate_batch(self, params, x):
        x = np.asarray(x, dtype=np.float64)
        lx = np.log(np.maximum(x, 1e-300))
        return params[:, :1] + params[:, 1:2] * lx[None, :]

    def describe(self, params):
        return f"y = {params[0]:.6g} + {params[1]:.6g} * ln(x)"


class ExponentialForm(CanonicalForm):
    """y = a * exp(b * x), fitted by log-linear regression.

    Requires strictly single-signed, non-zero values; the sign is
    factored out and restored at evaluation.
    """

    name = "exp"
    min_points = 2
    complexity = 3

    def fit(self, x, y):
        if np.all(y > 0):
            sign = 1.0
        elif np.all(y < 0):
            sign = -1.0
        else:
            return None
        res = _linear_lsq(x, np.log(sign * y))
        if res is None:
            return None
        b, log_a = res
        # np.exp (not math.exp) so an overflowing amplitude degrades to
        # inf — rejected by fit_all's finiteness check — instead of
        # raising OverflowError mid-selection
        with np.errstate(over="ignore"):
            return np.array([sign * float(np.exp(log_a)), b])

    def evaluate(self, params, x):
        x = np.asarray(x, dtype=np.float64)
        exponent = np.clip(params[1] * x, -_EXP_CLAMP, _EXP_CLAMP)
        return params[0] * np.exp(exponent)

    def fit_batch(self, x, Y):
        n = Y.shape[0]
        params = np.zeros((n, 2))
        pos = np.all(Y > 0, axis=1)
        applicable = pos | np.all(Y < 0, axis=1)
        if not np.any(applicable):
            return params, applicable
        sign = np.where(pos[applicable], 1.0, -1.0)
        res = _linear_lsq_batch(x, np.log(sign[:, None] * Y[applicable]))
        if res is None:
            return params, np.zeros(n, dtype=bool)
        b, log_a = res
        with np.errstate(over="ignore"):
            params[applicable, 0] = sign * np.exp(log_a)
        params[applicable, 1] = b
        return params, applicable

    def evaluate_batch(self, params, x):
        x = np.asarray(x, dtype=np.float64)
        exponent = np.clip(params[:, 1:2] * x[None, :], -_EXP_CLAMP, _EXP_CLAMP)
        return params[:, :1] * np.exp(exponent)

    def describe(self, params):
        return f"y = {params[0]:.6g} * exp({params[1]:.6g} * x)"


class PowerForm(CanonicalForm):
    """y = a * x^b (extension form, §VI): log-log regression."""

    name = "power"
    min_points = 2
    complexity = 4

    def fit(self, x, y):
        if np.any(x <= 0):
            return None
        if np.all(y > 0):
            sign = 1.0
        elif np.all(y < 0):
            sign = -1.0
        else:
            return None
        res = _linear_lsq(np.log(x), np.log(sign * y))
        if res is None:
            return None
        b, log_a = res
        with np.errstate(over="ignore"):
            return np.array([sign * float(np.exp(log_a)), b])

    def evaluate(self, params, x):
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(over="ignore"):
            return params[0] * np.power(np.maximum(x, 1e-300), params[1])

    def fit_batch(self, x, Y):
        n = Y.shape[0]
        params = np.zeros((n, 2))
        if np.any(x <= 0):
            return params, np.zeros(n, dtype=bool)
        pos = np.all(Y > 0, axis=1)
        applicable = pos | np.all(Y < 0, axis=1)
        if not np.any(applicable):
            return params, applicable
        sign = np.where(pos[applicable], 1.0, -1.0)
        res = _linear_lsq_batch(np.log(x), np.log(sign[:, None] * Y[applicable]))
        if res is None:
            return params, np.zeros(n, dtype=bool)
        b, log_a = res
        with np.errstate(over="ignore"):
            params[applicable, 0] = sign * np.exp(log_a)
        params[applicable, 1] = b
        return params, applicable

    def evaluate_batch(self, params, x):
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(over="ignore"):
            return params[:, :1] * np.power(
                np.maximum(x, 1e-300)[None, :], params[:, 1:2]
            )

    def describe(self, params):
        return f"y = {params[0]:.6g} * x^{params[1]:.6g}"


class QuadraticForm(CanonicalForm):
    """y = a + b*x + c*x^2 (extension form, §VI).

    Needs at least four points: with the paper's three training core
    counts it would interpolate exactly and always win selection, which
    is precisely the overfitting hazard §VI's "more canonical forms"
    future work has to manage.
    """

    name = "quadratic"
    min_points = 4
    complexity = 5

    def fit(self, x, y):
        c, b, a = np.polyfit(x, y, 2)
        return np.array([a, b, c])

    def evaluate(self, params, x):
        x = np.asarray(x, dtype=np.float64)
        return params[0] + params[1] * x + params[2] * x * x

    def fit_batch(self, x, Y):
        # polyfit solves all rows against one shared Vandermonde factorization
        coeffs = np.polyfit(x, Y.T, 2)
        return coeffs[::-1].T.copy(), np.ones(Y.shape[0], dtype=bool)

    def evaluate_batch(self, params, x):
        x = np.asarray(x, dtype=np.float64)[None, :]
        return params[:, :1] + params[:, 1:2] * x + params[:, 2:3] * x * x

    def describe(self, params):
        return f"y = {params[0]:.6g} + {params[1]:.6g}*x + {params[2]:.6g}*x^2"


class InverseForm(CanonicalForm):
    """y = a + b / x (extension form): the strong-scaling natural shape."""

    name = "inverse"
    min_points = 2
    complexity = 4

    def fit(self, x, y):
        if np.any(x == 0):
            return None
        res = _linear_lsq(1.0 / x, y)
        if res is None:
            return None
        b, a = res
        return np.array([a, b])

    def evaluate(self, params, x):
        x = np.asarray(x, dtype=np.float64)
        return params[0] + params[1] / np.where(x == 0, np.inf, x)

    def fit_batch(self, x, Y):
        if np.any(x == 0):
            return np.zeros((Y.shape[0], 2)), np.zeros(Y.shape[0], dtype=bool)
        res = _linear_lsq_batch(1.0 / x, Y)
        if res is None:
            return np.zeros((Y.shape[0], 2)), np.zeros(Y.shape[0], dtype=bool)
        b, a = res
        return np.stack([a, b], axis=1), np.ones(Y.shape[0], dtype=bool)

    def evaluate_batch(self, params, x):
        x = np.asarray(x, dtype=np.float64)
        safe = np.where(x == 0, np.inf, x)
        return params[:, :1] + params[:, 1:2] / safe[None, :]

    def describe(self, params):
        return f"y = {params[0]:.6g} + {params[1]:.6g} / x"


#: The paper's four forms (§IV), in parsimony order.
PAPER_FORMS: Tuple[CanonicalForm, ...] = (
    ConstantForm(),
    LinearForm(),
    LogarithmicForm(),
    ExponentialForm(),
)

#: §VI extensions.
EXTENDED_FORMS: Tuple[CanonicalForm, ...] = PAPER_FORMS + (
    PowerForm(),
    InverseForm(),
    QuadraticForm(),
)

#: named form sets a fit may use; the names enter content digests (model
#: specs, DAG node keys, fit bundles), so the mapping is append-only
FORM_SETS = {"paper": PAPER_FORMS, "extended": EXTENDED_FORMS}


@dataclass
class FitResult:
    """Outcome of fitting one form to one element's series."""

    form: CanonicalForm
    params: np.ndarray
    sse: float

    @property
    def name(self) -> str:
        return self.form.name

    def predict(self, x) -> np.ndarray:
        return self.form.evaluate(self.params, np.asarray(x, dtype=np.float64))

    def describe(self) -> str:
        return f"{self.form.name}: {self.form.describe(self.params)} (SSE={self.sse:.4g})"


def fit_all(
    x: Sequence[float],
    y: Sequence[float],
    forms: Sequence[CanonicalForm] = PAPER_FORMS,
) -> list:
    """Fit every applicable form; return all results sorted best-first.

    "Best" means lowest SSE, with parsimony tie-breaks (lower complexity
    wins within relative tolerance).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    check_finite("x", x)
    check_finite("y", y)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length 1-D arrays")
    if np.unique(x).size != x.size:
        raise ValueError("training core counts must be distinct")
    results = []
    n_distinct = np.unique(x).size
    for form in forms:
        if n_distinct < form.min_points:
            continue
        params = form.fit(x, y)
        if params is None or not np.all(np.isfinite(params)):
            continue
        residual = form.evaluate(params, x) - y
        if not np.all(np.isfinite(residual)):
            continue
        results.append(FitResult(form=form, params=params, sse=float(residual @ residual)))
    if not results:
        raise ValueError("no canonical form could fit the data")
    # parsimony: every form statistically tied with the best SSE competes
    # on complexity; the rest follow in SSE order.  The absolute slack is
    # a floating-point noise floor (an exact fit's SSE is at most a few
    # ulps squared per point), NOT a fraction of the signal energy: a
    # signal-relative slack would let the constant form swallow real but
    # tiny slopes.
    scale = float(y @ y)
    eps = np.finfo(np.float64).eps
    noise_floor = x.size * (64.0 * eps) ** 2 * max(1.0, scale)
    best_sse = min(r.sse for r in results)
    threshold = best_sse * (1.0 + _PARSIMONY_RTOL) + noise_floor
    tied = sorted(
        (r for r in results if r.sse <= threshold),
        key=lambda r: (r.form.complexity, r.sse),
    )
    rest = sorted(
        (r for r in results if r.sse > threshold),
        key=lambda r: (r.sse, r.form.complexity),
    )
    return tied + rest


def fit_best(
    x: Sequence[float],
    y: Sequence[float],
    forms: Sequence[CanonicalForm] = PAPER_FORMS,
) -> FitResult:
    """The paper's per-element step: the best fit among the given forms."""
    return fit_all(x, y, forms)[0]
