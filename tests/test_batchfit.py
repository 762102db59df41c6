"""Batched fitting vs the per-element scalar oracle.

The batch path's contract (DESIGN.md §7.4) is *agreement*, not
approximation: identical candidate form ordering, parameters and SSE to
~1e-9 relative against :func:`fit_all`, and synthesized trace values
matching the oracle (:func:`reference_matrices`) to 1e-9 relative with
exact ties on form selection.  These tests pit the two implementations
against each other over adversarial series shapes — mixed signs, all
zeros, exact canonical data, duplicate-y parsimony ties, physicality
demotions — and over whole traces of the SPECFEM3D model.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batchfit import batch_fit_series
from repro.core.canonical import EXTENDED_FORMS, PAPER_FORMS, fit_all
from repro.core.extrapolate import (
    extrapolate_trace,
    extrapolate_trace_many,
    reference_matrices,
)
from repro.core.fitting import ElementFit, fit_feature_series, row_bounds
from repro.trace.features import FeatureSchema

X3 = np.array([96.0, 384.0, 1536.0])


def ranked_forms(res, row):
    """Form indices of one row's applicable candidates, best-first."""
    return [int(f) for f in res.order[row, : res.n_candidates[row]]]


def assert_rows_match_reference(x, Y, forms, rtol=1e-9):
    """Every row's batched candidate ranking must mirror fit_all's."""
    res = batch_fit_series(x, Y, forms)
    for i in range(Y.shape[0]):
        ref = fit_all(x, Y[i], forms)
        got = ranked_forms(res, i)
        assert len(got) == len(ref), f"row {i}: candidate count differs"
        for rank, (r, f) in enumerate(zip(ref, got)):
            assert res.forms[f].name == r.form.name, (
                f"row {i} rank {rank}: {res.forms[f].name} != {r.form.name}"
            )
            np.testing.assert_allclose(
                res.params[f][i], r.params, rtol=rtol, atol=1e-12
            )
            np.testing.assert_allclose(
                res.sse[i, f], r.sse, rtol=rtol, atol=1e-18
            )


class TestAgainstReference:
    def test_mixed_sign_rows(self):
        rng = np.random.default_rng(7)
        Y = rng.uniform(-5, 5, (32, 3))
        assert_rows_match_reference(X3, Y, PAPER_FORMS)

    def test_all_zero_rows(self):
        Y = np.zeros((4, 3))
        assert_rows_match_reference(X3, Y, PAPER_FORMS)
        assert_rows_match_reference(X3, Y, EXTENDED_FORMS)

    def test_exactly_linear(self):
        Y = np.stack([3.0 + 0.25 * X3, -2.0 - 1.5 * X3])
        assert_rows_match_reference(X3, Y, PAPER_FORMS)
        res = batch_fit_series(X3, Y, PAPER_FORMS)
        assert res.forms[res.order[0, 0]].name == "linear"

    def test_exactly_logarithmic(self):
        Y = (5.0 + 2.0 * np.log(X3))[None, :]
        res = batch_fit_series(X3, Y, PAPER_FORMS)
        assert res.forms[res.order[0, 0]].name == "log"
        assert_rows_match_reference(X3, Y, PAPER_FORMS)

    def test_exactly_exponential(self):
        Y = np.stack([2.0 * np.exp(1e-3 * X3), -0.5 * np.exp(2e-3 * X3)])
        res = batch_fit_series(X3, Y, PAPER_FORMS)
        for i in range(2):
            assert res.forms[res.order[i, 0]].name == "exp"
        assert_rows_match_reference(X3, Y, PAPER_FORMS)

    def test_duplicate_y_parsimony_tie(self):
        # constant data fits constant, linear, log, ... all exactly;
        # parsimony must break the tie toward the simplest form in both
        # engines identically
        Y = np.full((3, 3), 42.0)
        Y[1] = 0.125
        Y[2] = -9.5
        res = batch_fit_series(X3, Y, EXTENDED_FORMS)
        for i in range(3):
            assert res.forms[res.order[i, 0]].name == "constant"
        assert_rows_match_reference(X3, Y, EXTENDED_FORMS)

    def test_extended_forms_with_three_counts_skip_quadratic(self):
        rng = np.random.default_rng(11)
        Y = rng.uniform(0.1, 10, (8, 3))
        res = batch_fit_series(X3, Y, EXTENDED_FORMS)
        names = {f.name for f in res.forms}
        assert "quadratic" in names  # present in the form set...
        for i in range(8):
            got = {res.forms[f].name for f in ranked_forms(res, i)}
            assert "quadratic" not in got  # ...but never a candidate
        assert_rows_match_reference(X3, Y, EXTENDED_FORMS)

    def test_quadratic_active_with_four_counts(self):
        x4 = np.array([96.0, 384.0, 1536.0, 6144.0])
        rng = np.random.default_rng(13)
        Y = rng.uniform(0.1, 10, (8, 4))
        assert_rows_match_reference(x4, Y, EXTENDED_FORMS)

    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from(["uniform", "mixed", "tiny", "huge"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_randomized_series(self, seed, regime):
        rng = np.random.default_rng(seed)
        if regime == "uniform":
            Y = rng.uniform(0, 100, (6, 3))
        elif regime == "mixed":
            Y = rng.uniform(-10, 10, (6, 3))
        elif regime == "tiny":
            Y = rng.uniform(0, 1e-9, (6, 3))
        else:
            Y = rng.uniform(1e9, 1e12, (6, 3))
        # sprinkle exact structure in some rows
        Y[0] = Y[0, 0]
        Y[1] = 1.0 + 0.5 * X3
        assert_rows_match_reference(X3, Y, PAPER_FORMS)

    def test_validation_matches_reference(self):
        with pytest.raises(ValueError):
            batch_fit_series([8, 8, 32], np.ones((1, 3)), PAPER_FORMS)
        with pytest.raises(ValueError):
            batch_fit_series(X3, np.array([[1.0, np.nan, 2.0]]), PAPER_FORMS)
        with pytest.raises(ValueError):
            batch_fit_series(X3, np.ones((1, 2)), PAPER_FORMS)


class TestSelectionAndSweep:
    SCHEMA = FeatureSchema(["L1", "L2"])

    def _fit(self, rng, n_pairs=6):
        series = np.zeros((n_pairs, 3, self.SCHEMA.n_features))
        for m in series:
            for j, f in enumerate(self.SCHEMA.fields):
                if self.SCHEMA.is_rate_field(f):
                    m[:, j] = np.sort(rng.uniform(0.4, 1.0, 3))
                else:
                    m[:, j] = rng.uniform(0, 1e6, 3)
            # a decaying count column that a linear fit would drive
            # negative at large targets: the physicality-demotion case
            m[:, self.SCHEMA.index("exec_count")] = [3e4, 2e4, 1e4]
        return fit_feature_series(
            self.SCHEMA, [1024, 2048, 4096], series,
            pair_keys=[(p, 0) for p in range(n_pairs)],
        )

    def oracle_fit(self, batch, row):
        """The scalar oracle's fit of one element, from its series."""
        return ElementFit(fit_all(batch.x, batch.Y[row]), batch.Y[row])

    def test_physicality_demotion_matches_reference(self):
        rng = np.random.default_rng(3)
        report = self._fit(rng)
        batch = report.batch
        target = 65536  # far enough to push the linear fit negative
        lo, _hi = row_bounds(self.SCHEMA, len(report.pair_keys))
        raw, chosen = batch.select_and_predict([target], lo)
        assert np.any(chosen[:, 0] != batch.order[:, 0])  # demotions ran
        for row in range(batch.n_rows):
            f = self.SCHEMA.fields[row % self.SCHEMA.n_features]
            bounds = self.SCHEMA.bounds(f)
            oracle = self.oracle_fit(batch, row)
            assert batch.forms[chosen[row, 0]].name == (
                oracle.select_for_target(target, bounds).form.name
            )
            assert float(np.clip(raw[row, 0], *bounds)) == pytest.approx(
                oracle.predict(target, bounds), rel=1e-9, abs=1e-300
            )

    def test_predict_many_matches_scalar_path(self):
        rng = np.random.default_rng(5)
        report = self._fit(rng)
        targets = [8192, 16384, 65536]
        sweep = report.predict_many(targets)
        hr = self.SCHEMA.hit_rate_slice
        n_f = self.SCHEMA.n_features
        for target in targets:
            for p, key in enumerate(report.pair_keys):
                # replicate the scalar synthesis pipeline per element
                vec = self.SCHEMA.empty_vector()
                for j, f in enumerate(self.SCHEMA.fields):
                    fit = self.oracle_fit(report.batch, p * n_f + j)
                    bounds = self.SCHEMA.bounds(f)
                    value = fit.predict(target, bounds)
                    if self.SCHEMA.is_rate_field(f):
                        last = float(fit.train_y[-1])
                        spread = float(np.ptp(fit.train_y))
                        value = float(
                            np.clip(
                                value, last - 2.0 * spread, last + 2.0 * spread
                            )
                        )
                        value = float(np.clip(value, *bounds))
                    vec[j] = value
                vec[hr] = np.clip(np.maximum.accumulate(vec[hr]), 0.0, 1.0)
                got = sweep.matrix_for(target)[
                    sweep.pair_keys.index(key)
                ]
                np.testing.assert_allclose(got, vec, rtol=1e-9, atol=1e-300)

    def test_predict_many_validates_targets(self):
        rng = np.random.default_rng(9)
        report = self._fit(rng, n_pairs=1)
        with pytest.raises(ValueError):
            report.predict_many([])
        with pytest.raises(ValueError):
            report.predict_many([0])
        with pytest.raises(KeyError):
            report.predict_many([8192]).matrix_for(999)


class TestWholeTraceEquivalence:
    @pytest.fixture(scope="class")
    def specfem_traces(self):
        from repro.apps.registry import get_app
        from repro.cache.configs import get_hierarchy
        from repro.pipeline.collect import collect_signature

        app = get_app("specfem3d")
        hierarchy = get_hierarchy("blue_waters_p1")
        return [
            collect_signature(app, n, hierarchy).slowest_trace()
            for n in (24, 48, 96)
        ]

    def test_specfem3d_batched_equals_reference(self, specfem_traces):
        target = 384
        batched = extrapolate_trace(specfem_traces, target)
        report = batched.report
        (oracle,) = reference_matrices(
            report, range(len(report.pair_keys)), [target],
            forms=PAPER_FORMS, rate_trust_factor=2.0,
        )
        np.testing.assert_allclose(
            batched.trace.features, oracle, rtol=1e-9, atol=1e-300
        )
        # exact ties on form selection
        x = report.batch.x
        assert report.form_histogram() == Counter(
            fit_all(x, y)[0].form.name for y in report.batch.Y
        )

    def test_sweep_equals_single_target_calls(self, specfem_traces):
        targets = [192, 384, 768]
        sweep = extrapolate_trace_many(specfem_traces, targets)
        for target in targets:
            single = extrapolate_trace(specfem_traces, target).trace
            multi = sweep.trace_for(target)
            for bid in multi.blocks:
                for a, b in zip(
                    multi.blocks[bid].instructions,
                    single.blocks[bid].instructions,
                ):
                    assert np.array_equal(a.features, b.features)
