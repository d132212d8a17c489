"""Cantor pairing on natural numbers.

pair_encode(0, 0) == 0, pair_encode(1, 0) == 1, pair_encode(0, 1) == 2,
and in general pair_encode(m, n) == (m + n)(m + n + 1)/2 + n.  Both
directions are total bijections between N x N and N, which is what the
dovetailing combinators rely on.
"""

from math import isqrt

__all__ = [
    "pair_decode",
    "pair_encode",
]


def pair_encode(m, n):
    if m < 0 or n < 0:
        raise ValueError("pair_encode expects naturals, got (%r, %r)" % (m, n))
    s = m + n
    return s * (s + 1) // 2 + n


def pair_decode(k):
    """Inverse of pair_encode. Returns the pair (m, n)."""
    if k < 0:
        raise ValueError("pair_decode expects a natural, got %r" % (k,))
    w = (isqrt(8 * k + 1) - 1) // 2
    n = k - w * (w + 1) // 2
    return w - n, n
