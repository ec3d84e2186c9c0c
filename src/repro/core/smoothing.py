"""Adjusted probability estimation (paper §5.2).

A small cluster's empirical conditional distribution often assigns
probability 0 to symbols never observed after a context, which zeroes
out the whole predict probability ``P(σ)``. The paper's fix reserves a
total mass of ``n · p_min`` and shares it across all ``n`` symbols:

    P̂(s | ctx) = (1 − n · p_min) · P(s | ctx) + p_min

so every symbol keeps at least ``p_min`` probability while the adjusted
vector still sums to 1. The adjustment is applied on the fly during
similarity estimation, exactly as the paper prescribes.
"""

from __future__ import annotations


def validate_p_min(alphabet_size: int, p_min: float) -> None:
    """Validate that *p_min* is a usable §5.2 smoothing floor.

    Requires ``0 ≤ p_min`` and ``n · p_min < 1`` (with equality allowed
    only in the degenerate single-symbol case); otherwise the adjusted
    probabilities would be negative or the vector could not sum to 1.
    """
    if p_min < 0:
        raise ValueError("p_min must be non-negative")
    if alphabet_size * p_min >= 1.0 and p_min > 0.0:
        raise ValueError(
            f"p_min={p_min} too large for alphabet of size {alphabet_size}: "
            f"need alphabet_size * p_min < 1"
        )


def default_p_min(alphabet_size: int, scale: float = 1e-3) -> float:
    """A conservative default §5.2 floor: ``scale / alphabet_size``.

    Keeps the reserved mass ``n · p_min = scale`` independent of the
    alphabet size, so smoothing perturbs observed probabilities by at
    most 0.1 % with the default *scale*.
    """
    if alphabet_size <= 0:
        raise ValueError("alphabet_size must be positive")
    if scale < 0 or scale >= 1:
        raise ValueError("scale must be in [0, 1)")
    return scale / alphabet_size


def adjust_probability(p: float, alphabet_size: int, p_min: float) -> float:
    """Apply the paper's adjustment to a single probability entry."""
    if p_min <= 0.0:
        return p
    return (1.0 - alphabet_size * p_min) * p + p_min
