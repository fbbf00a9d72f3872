"""Exception types shared across the package.

The command line maps any :class:`SnckitError` to exit status 1; bad
usage (unknown flags, malformed numbers, a flag that does not apply to
the command) exits with status 2.
"""

from __future__ import annotations

__all__ = [
    "SnckitError",
    "ValidationError",
    "WellDefinednessError",
    "ExtensionError",
    "LabelError",
]


class SnckitError(Exception):
    """Base class for semantic errors raised by this package."""


class ValidationError(SnckitError):
    """A configuration violated structural or semantic constraints.

    Carries the full list of problems so callers can report all of
    them at once.
    """

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems) if self.problems else "invalid input")


class WellDefinednessError(SnckitError):
    """A matrix does not define a map on the presented groups."""


class ExtensionError(SnckitError):
    """A scalar extension would leave the simple normal crossing class."""


class LabelError(SnckitError):
    """Edge labels are structurally or semantically unusable."""
