"""Kernel backend selection.

Prefers the compiled extension when it is importable; falls back to the
pure-Python implementation otherwise.  Set ``MULTIHARM_PURE=1`` to force the
pure backend (useful for benchmarking and debugging).  Both backends expose
the same functions and must return bit-identical values.

``cauchy_product``, ``invert_series`` and ``sqrt_series`` are the primary
route of :mod:`multiharm.series`.  ``harmonic_like_levels`` is only the
cross-check route ``sequences.harmonic_like_convolution``: the primary
``sequences.harmonic_like`` table uses a first-order recurrence of its own.
``stirling1_rows`` tabulates the whole triangle; no route calls it, because
``sequences.stirling1`` grows only the columns it needs.  It stays for the
backend-equality tests and ``multiharm.bench``.
"""

from __future__ import annotations

import os

from multiharm._kernels import pure

if os.environ.get("MULTIHARM_PURE"):
    _impl = pure
else:
    try:
        from multiharm._kernels import _speedups as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = pure

BACKEND: str = _impl.BACKEND

cauchy_product = _impl.cauchy_product
invert_series = _impl.invert_series
sqrt_series = _impl.sqrt_series
harmonic_like_levels = _impl.harmonic_like_levels
stirling1_rows = _impl.stirling1_rows

__all__ = [
    "BACKEND",
    "cauchy_product",
    "invert_series",
    "sqrt_series",
    "harmonic_like_levels",
    "stirling1_rows",
    "pure",
]
