"""Modular arithmetic used across the library.

The paper's multi-level padding arguments (Section 3.1.2) are statements
about distances *modulo* cache sizes where every cache size divides the
next larger one.  The helper here implements that primitive notion once
so transformations and analyses share it.
"""

from __future__ import annotations

__all__ = ["circular_distance"]


def circular_distance(a: int, b: int, modulus: int) -> int:
    """Shortest distance between ``a`` and ``b`` on a ring of size ``modulus``.

    This is the distance between two cache locations on a cache of
    ``modulus`` bytes: two references conflict severely when their circular
    distance is below the line size.
    """
    if modulus <= 0:
        raise ValueError(f"circular_distance requires modulus > 0, got {modulus}")
    d = (a - b) % modulus
    return min(d, modulus - d)
