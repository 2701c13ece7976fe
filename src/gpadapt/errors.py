"""Exceptions and warning helpers shared across the package."""

import sys


class ConditioningError(RuntimeError):
    """A dense factorization failed even after diagonal jitter escalation."""


def _caller_level() -> int:
    """The stacklevel at which a ``warnings.warn`` in this function's
    caller names the first frame outside the caller's module: the code
    that called in, however many of the module's own frames lie between."""
    frame, level = sys._getframe(1), 1
    module = frame.f_globals.get("__name__")
    while (frame.f_back is not None
           and frame.f_globals.get("__name__") == module):
        frame, level = frame.f_back, level + 1
    return level
