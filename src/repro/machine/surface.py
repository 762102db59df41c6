"""The MultiMAPS bandwidth surface and its interpolation.

MultiMAPS produces scattered samples ``(hit rates per level) ->
(achieved bandwidth)``; Fig. 1 plots this surface for a two-level
Opteron.  The convolution (Eq. 1) needs bandwidth at *arbitrary* hit-rate
combinations — wherever a basic block lands — so the surface must
interpolate.

We fit the physically-motivated reciprocal-throughput model

    1 / BW(h) = sum_j f_j(h) * c_j

where ``f_j`` is the fraction of references served at level ``j``
(derived from cumulative hit rates, the last "level" being main memory)
and ``c_j >= 0`` are per-level reciprocal bandwidth coefficients
recovered from the samples by non-negative least squares.  This is
exactly the structure of Eq. 1's ``memory_BW_j`` denominators, learned
from probe data rather than read from a datasheet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_finite


def served_fractions(cumulative_hit_rates: np.ndarray) -> np.ndarray:
    """Convert cumulative hit rates into per-destination served fractions.

    Input shape ``(..., n_levels)`` with values in ``[0, 1]``,
    non-decreasing along the last axis; output shape
    ``(..., n_levels + 1)`` whose last entry is the main-memory fraction.
    """
    h = np.asarray(cumulative_hit_rates, dtype=np.float64)
    h = np.clip(h, 0.0, 1.0)
    # enforce monotonicity defensively (extrapolated rates may jitter)
    h = np.maximum.accumulate(h, axis=-1)
    first = h[..., :1]
    diffs = np.diff(h, axis=-1)
    mem = 1.0 - h[..., -1:]
    return np.concatenate([first, diffs, mem], axis=-1)


@dataclass
class BandwidthSurface:
    """Interpolated bandwidth-vs-hit-rates surface for one machine.

    Parameters
    ----------
    sample_hit_rates:
        ``(n_samples, n_levels)`` cumulative hit rates of each probe.
    sample_bandwidths_gbs:
        Achieved bandwidth of each probe, GB/s.
    coefficients:
        ``(n_levels + 1,)`` fitted reciprocal-throughput coefficients
        (ns per byte served at each destination).
    name:
        Label, usually the machine name.
    """

    sample_hit_rates: np.ndarray
    sample_bandwidths_gbs: np.ndarray
    coefficients: np.ndarray
    name: str = "surface"

    @classmethod
    def fit(
        cls,
        hit_rates: np.ndarray,
        bandwidths_gbs: np.ndarray,
        name: str = "surface",
    ) -> "BandwidthSurface":
        """Fit the reciprocal-throughput model to probe samples.

        Weighted so that relative (not absolute) bandwidth errors are
        minimized: a 10% error at 1 GB/s matters as much as at 50 GB/s.
        """
        hit_rates = np.atleast_2d(np.asarray(hit_rates, dtype=np.float64))
        bandwidths = np.asarray(bandwidths_gbs, dtype=np.float64)
        check_finite("hit_rates", hit_rates)
        check_finite("bandwidths_gbs", bandwidths)
        if hit_rates.shape[0] != bandwidths.shape[0]:
            raise ValueError("sample count mismatch between hit rates and bandwidths")
        if np.any(bandwidths <= 0):
            raise ValueError("bandwidth samples must be positive")
        # imported here, not at module level: scipy.optimize takes about
        # half a second to import, which every CLI start would pay
        from scipy.optimize import nnls

        fractions = served_fractions(hit_rates)
        # solve fractions @ c ~= 1/bw, weighting rows by bw (relative error)
        target = 1.0 / bandwidths
        weights = bandwidths
        a = fractions * weights[:, None]
        b = target * weights
        coeffs, _residual = nnls(a, b)
        return cls(
            sample_hit_rates=hit_rates,
            sample_bandwidths_gbs=bandwidths,
            coefficients=coeffs,
            name=name,
        )

    @property
    def n_levels(self) -> int:
        return self.sample_hit_rates.shape[1]

    def bandwidth_gbs(self, cumulative_hit_rates) -> np.ndarray:
        """Interpolated bandwidth at the given hit-rate point(s).

        Accepts shape ``(n_levels,)`` or ``(m, n_levels)``; returns a
        scalar array or ``(m,)`` array respectively.
        """
        h = np.asarray(cumulative_hit_rates, dtype=np.float64)
        scalar = h.ndim == 1
        fractions = served_fractions(np.atleast_2d(h))
        inv = fractions @ self.coefficients
        # a degenerate fit (all coefficients zero) would divide by zero;
        # fall back to the slowest sample, which is always conservative.
        floor = 1.0 / self.sample_bandwidths_gbs.max()
        inv = np.maximum(inv, floor * 1e-6)
        bw = 1.0 / inv
        return bw[0] if scalar else bw

    def fit_quality(self) -> float:
        """Median absolute relative error of the fit over its own samples."""
        predicted = self.bandwidth_gbs(self.sample_hit_rates)
        rel = np.abs(predicted - self.sample_bandwidths_gbs) / self.sample_bandwidths_gbs
        return float(np.median(rel))

    def describe(self) -> str:
        names = [f"L{i + 1}" for i in range(self.n_levels)] + ["mem"]
        parts = ", ".join(
            f"{n}={1.0 / c:.1f}GB/s" if c > 0 else f"{n}=inf"
            for n, c in zip(names, self.coefficients)
        )
        return f"BandwidthSurface({self.name}: {parts})"
