"""The exact-arithmetic kernels, all in plain Python (:mod:`.pure`).

``cauchy_product``, ``invert_series`` and ``sqrt_series`` are the primary
route of :mod:`multiharm.series`.  The product is a Kronecker substitution
over integer vectors that share one denominator: each vector is packed into
one big int with a slot of ``bitlen(min(len a, len b) * max|a| * max|b|) + 1``
bits per coefficient, rounded up to whole bytes, so one big-int multiply
gives every coefficient.  The inverse runs the Newton step
``g <- g (2 - f g)`` and the square root the inverse-square-root step
``h <- h (3 - f h^2) / 2``, each doubling the number of correct terms; both
call a private integer convolution, not ``cauchy_product``.

``harmonic_like_levels`` is only the cross-check route
``sequences.harmonic_like_convolution``: the primary
``sequences.harmonic_like`` table uses a first-order recurrence of its own.
``stirling1_rows`` tabulates the whole triangle; no route calls it, because
``sequences.stirling1`` grows only the columns it needs.
"""

from __future__ import annotations

from multiharm._kernels import pure
from multiharm._kernels.pure import (
    BACKEND,
    cauchy_product,
    harmonic_like_levels,
    invert_series,
    sqrt_series,
    stirling1_rows,
)

__all__ = [
    "BACKEND",
    "cauchy_product",
    "invert_series",
    "sqrt_series",
    "harmonic_like_levels",
    "stirling1_rows",
    "pure",
]
