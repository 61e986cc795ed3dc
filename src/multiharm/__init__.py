"""multiharm: exact arithmetic for multiple harmonic-like numbers.

Computes harmonic, odd-harmonic, multiple harmonic-like, Stirling (first
kind), hyperharmonic (integer and half-integer order), Fibonacci and Lucas
sequences over arbitrary-precision rationals, and mechanically verifies a
catalog of combinatorial identities relating them, with zero floating-point
error.  Every checked quantity has at least two independent computation
routes (recurrences vs generating-function coefficient extraction, plus a
brute-force composition oracle for the harmonic-like family).

The identity registry (:mod:`multiharm.identities`), which only ``verify``
reads, is imported on first access to one of its names here, such as
``verify_all``; importing the package or :mod:`multiharm.cli` never builds it.
"""

from multiharm.rational import (
    binomial,
    factorial,
    gen_binomial,
    parse_rational,
)
from multiharm.sequences import (
    FAMILY_NAMES,
    FeasibilityError,
    SeqSpec,
    clear_caches,
    fibonacci,
    half_harmonic_offset,
    harmonic,
    harmonic_like,
    harmonic_like_bruteforce,
    harmonic_order,
    hyperharmonic,
    hyperharmonic_closed,
    hyperharmonic_half,
    hyperharmonic_half_via_binomial,
    lucas,
    odd_harmonic,
    stirling1,
)
from multiharm.series import (
    TruncatedSeries,
    geometric,
    gf_harmonic_like,
    gf_hyperharmonic,
    gf_odd_central,
    gf_stirling_column,
    neg_log_one_minus,
)
from multiharm.transforms import (
    AB_FIXTURES,
    binomial_sum_closed,
    binomial_sum_direct,
    binomial_sum_m1,
    binomial_sum_m2,
    binomial_sum_m3,
    binomial_sums,
)

__version__ = "0.1.0"

#: The names of :mod:`multiharm.identities` that the package resolves on first access.
_IDENTITY_NAMES = {"IdentityDescriptor", "UnknownIdentityError", "VerificationReport", "registry_catalog",
                   "registry_tags", "verify_all", "verify_identity"}


def __getattr__(name: str) -> object:
    if name not in _IDENTITY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from multiharm import identities

    return getattr(identities, name)
