"""Focused tests of numerical internals.

These pin down the low-level numerics that the higher-level behaviour
rests on: the O(n) prefix/suffix regression slopes behind the valley
heuristic, the log-log slope fit behind the Figure 6 assertions, and
the log-domain guards in the similarity measure and the threshold's
saturating ``log t → t`` conversion.
"""

import math

import numpy as np
import pytest

from repro.core.similarity import _LOG_ZERO
from repro.core.threshold import _regression_slopes, linear_threshold
from repro.experiments.fig6_scalability import ScalabilityRow, loglog_slope


class TestRegressionSlopes:
    def test_matches_polyfit(self, rng):
        """Every split's left/right slope equals an explicit least-
        squares fit."""
        x = np.sort(rng.uniform(0, 10, size=24))
        y = rng.uniform(0, 5, size=24)
        left, right = _regression_slopes(x, y)
        for i in range(1, 23):
            expected_left = np.polyfit(x[: i + 1], y[: i + 1], 1)[0]
            expected_right = np.polyfit(x[i:], y[i:], 1)[0]
            assert left[i] == pytest.approx(expected_left, rel=1e-6, abs=1e-9)
            assert right[i] == pytest.approx(expected_right, rel=1e-6, abs=1e-9)

    def test_single_point_is_nan(self, rng):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([1.0, 4.0, 9.0])
        left, right = _regression_slopes(x, y)
        assert math.isnan(left[0])  # one point: no slope
        assert math.isnan(right[-1])

    def test_perfect_line(self):
        x = np.linspace(0, 1, 10)
        y = 3.0 * x + 1.0
        left, right = _regression_slopes(x, y)
        assert np.allclose(left[1:], 3.0)
        assert np.allclose(right[:-1], 3.0)

    def test_degenerate_x_variance(self):
        x = np.array([2.0, 2.0, 2.0, 5.0])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        left, right = _regression_slopes(x, y)
        # Splits whose side has zero x-variance yield nan, not inf.
        assert math.isnan(left[1])


class TestLogLogSlope:
    def make_rows(self, values, work, iters=None):
        iters = iters or [1] * len(values)
        return [
            ScalabilityRow(
                dimension="num_sequences",
                value=v,
                elapsed_seconds=float(w),
                iterations=i,
                accuracy=1.0,
                work=int(w * 1000),
            )
            for v, w, i in zip(values, work, iters)
        ]

    def test_linear_scaling_slope_one(self):
        rows = self.make_rows([10, 20, 40, 80], [1.0, 2.0, 4.0, 8.0])
        assert loglog_slope(rows) == pytest.approx(1.0)

    def test_flat_scaling_slope_zero(self):
        rows = self.make_rows([10, 20, 40, 80], [3.0, 3.0, 3.0, 3.0])
        assert loglog_slope(rows) == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_scaling_slope_two(self):
        rows = self.make_rows([10, 20, 40], [1.0, 4.0, 16.0])
        assert loglog_slope(rows) == pytest.approx(2.0)

    def test_iteration_normalisation(self):
        """Doubling iteration counts must not change the slope."""
        rows = self.make_rows(
            [10, 20, 40], [2.0, 8.0, 32.0], iters=[2, 4, 8]
        )
        assert loglog_slope(rows) == pytest.approx(1.0)


class TestLinearFit:
    def make_rows(self, values, work, iters=None):
        from repro.experiments.fig6_scalability import ScalabilityRow

        iters = iters or [1] * len(values)
        return [
            ScalabilityRow(
                dimension="num_clusters",
                value=v,
                elapsed_seconds=float(w),
                iterations=i,
                accuracy=1.0,
                work=int(w * 1000),
            )
            for v, w, i in zip(values, work, iters)
        ]

    def test_perfect_line_with_intercept(self):
        from repro.experiments.fig6_scalability import linear_fit

        rows = self.make_rows([2, 5, 10, 20], [1.0 + 0.5 * v for v in (2, 5, 10, 20)])
        slope, r_squared = linear_fit(rows)
        # The fit runs on work units (w × 1000 in make_rows).
        assert slope == pytest.approx(500.0)
        assert r_squared == pytest.approx(1.0)

    def test_flat_line(self):
        from repro.experiments.fig6_scalability import linear_fit

        rows = self.make_rows([2, 5, 10, 20], [3.0] * 4)
        slope, r_squared = linear_fit(rows)
        assert slope == pytest.approx(0.0, abs=1e-9)
        assert r_squared == pytest.approx(1.0)  # degenerate total variance

    def test_noisy_line_r_squared_below_one(self, rng):
        from repro.experiments.fig6_scalability import linear_fit

        values = [2, 5, 10, 20, 40]
        times = [1.0 + 0.5 * v + rng.normal(0, 2.0) for v in values]
        _, r_squared = linear_fit(self.make_rows(values, times))
        assert r_squared <= 1.0


class TestLogDomainGuards:
    def test_safe_exp_normal(self):
        assert linear_threshold(0.0) == 1.0
        assert linear_threshold(1.0) == pytest.approx(math.e)

    def test_safe_exp_saturates(self):
        assert linear_threshold(710.0) == math.inf
        assert linear_threshold(10_000.0) == math.inf

    def test_safe_exp_large_but_finite(self):
        assert math.isfinite(linear_threshold(700.0))

    def test_log_zero_marker_finite(self):
        """The zero-probability marker must stay finite so the DP can
        rank segments containing a hard zero."""
        assert math.isfinite(_LOG_ZERO)
        assert _LOG_ZERO < -600
