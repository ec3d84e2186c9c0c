"""Tests for repro.core.smoothing — adjusted probability estimation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.smoothing import (
    adjust_probability,
    default_p_min,
    validate_p_min,
)


class TestValidation:
    def test_zero_allowed(self):
        validate_p_min(5, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            validate_p_min(5, -0.01)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            validate_p_min(5, 0.2)  # 5 * 0.2 = 1.0

    def test_boundary_ok(self):
        validate_p_min(5, 0.19)


class TestDefault:
    def test_scales_inversely_with_alphabet(self):
        assert default_p_min(10) == pytest.approx(1e-4)
        assert default_p_min(20) == pytest.approx(5e-5)

    def test_reserved_mass_constant(self):
        for n in (2, 10, 100):
            assert n * default_p_min(n) == pytest.approx(1e-3)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            default_p_min(0)
        with pytest.raises(ValueError):
            default_p_min(10, scale=1.5)
        with pytest.raises(ValueError):
            default_p_min(10, scale=-0.1)


class TestAdjustProbability:
    def test_zero_p_min_identity(self):
        assert adjust_probability(0.3, 4, 0.0) == 0.3

    def test_zero_probability_lifted_to_floor(self):
        assert adjust_probability(0.0, 4, 0.01) == pytest.approx(0.01)

    def test_one_probability_reduced(self):
        adjusted = adjust_probability(1.0, 4, 0.01)
        assert adjusted == pytest.approx(1.0 - 4 * 0.01 + 0.01)
        assert adjusted < 1.0

    def test_paper_formula(self):
        # P̂ = (1 - n·p_min)·P + p_min
        n, p_min, p = 5, 0.02, 0.4
        assert adjust_probability(p, n, p_min) == pytest.approx(
            (1 - n * p_min) * p + p_min
        )


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=50),
    st.floats(min_value=0.0, max_value=0.019),
)
def test_adjustment_properties(p, n, p_min):
    """Adjusted probabilities stay in [p_min, 1] and preserve order."""
    adjusted = adjust_probability(p, n, p_min)
    if p_min > 0:
        assert adjusted >= p_min - 1e-12
    assert adjusted <= 1.0 + 1e-12
    # Monotone: higher raw probability -> higher adjusted probability.
    higher = adjust_probability(min(1.0, p + 0.1), n, p_min)
    assert higher >= adjusted - 1e-12
