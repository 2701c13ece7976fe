"""Exceptions and warning helpers shared across the package."""

import sys


class ConditioningError(RuntimeError):
    """A dense factorization failed even after diagonal jitter escalation."""


def _caller_level() -> int:
    """The stacklevel at which a ``warnings.warn`` in this function's
    caller names the first frame outside the caller's package: the code
    that called in, however many of the package's own frames lie between."""
    frame, level = sys._getframe(1), 1
    package = frame.f_globals.get("__name__", "").partition(".")[0] + "."
    while (frame.f_back is not None
           and frame.f_globals.get("__name__", "").startswith(package)):
        frame, level = frame.f_back, level + 1
    return level
