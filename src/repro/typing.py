"""Shared type aliases for the ``repro`` package.

The callable seams more than one layer annotates with, spelled once.
The module is import-light by design (stdlib only; package types are
imported under ``TYPE_CHECKING``), so any layer may depend on it
without creating cycles.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .core.pst import ProbabilisticSuffixTree

__all__ = ["EncodedLookup", "PSTFactory"]

#: Anything that builds a single-sequence PST from one encoded
#: sequence (the §4.1 seed models) — the seam the clusterer exposes
#: for tests and model ablations; bind parameters with
#: ``functools.partial`` around ``build_seed_pst``.
PSTFactory = Callable[[Sequence[int]], "ProbabilisticSuffixTree"]

#: Callable mapping a database index to its encoded sequence.
EncodedLookup = Callable[[int], list[int]]
