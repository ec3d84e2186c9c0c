"""Deterministic sequence-to-shard routing by content hash.

:func:`route` sends a sequence to ``fnv1a(symbols) % shards``. It is
stateless, uniform, and stable across runs and platforms: the same
sequence always lands on the same shard.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["fnv1a", "route"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1


def fnv1a(symbols: Sequence[int]) -> int:
    """64-bit FNV-1a over a symbol-id sequence (platform-independent).

    Raises ``ValueError`` on a negative id, which has no octet stream.
    When every id is an integer in ``[0, 256)`` it is its own single
    octet, mixed with one xor-multiply; ``bytes`` checks that for the
    whole sequence in one pass (``iter`` keeps a numpy array from
    lending its raw buffer instead). Otherwise each id is mixed octet
    by octet.
    """
    digest = _FNV_OFFSET
    try:
        octets = bytes(iter(symbols))
    except (TypeError, ValueError):
        pass
    else:
        for octet in octets:
            digest = ((digest ^ octet) * _FNV_PRIME) & _MASK
        return digest
    for symbol in symbols:
        # Mix each id as its own octet stream so ids >= 256 still
        # hash consistently (symbol ids are small non-negative ints).
        value = int(symbol)
        if value < 0:
            raise ValueError(f"symbol id {value} is negative")
        while True:
            digest ^= value & 0xFF
            digest = (digest * _FNV_PRIME) & _MASK
            value >>= 8
            if value == 0:
                break
    return digest


def route(encoded: Sequence[int], shards: int) -> int:
    """The shard index in ``[0, shards)`` that *encoded* belongs to."""
    if shards == 1:
        return 0
    return fnv1a(encoded) % shards
