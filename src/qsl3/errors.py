"""Shared exception types.

Exit-code mapping in the CLI: DomainError and bad arguments are usage
errors (2); the integrity failures below mean an internal invariant that is
a theorem was violated at runtime, i.e. a bug (3); verification mismatches
are reported in-band and produce exit code 1 without raising.
"""


class DomainError(ValueError):
    """Arguments outside the mathematical domain of an operation."""


class RealizationError(Exception):
    """A module realization failed an integrity check (dependence or a
    non-integral structure constant)."""


class IntegralityFailure(Exception):
    """A value that must lie in Z[v, v^-1] came out properly fractional."""


class AntisymmetryFailure(Exception):
    """A coefficient of the canonical-basis recursion was not
    bar-antisymmetric."""
