"""Exception hierarchy for the engine, and raise_first, which raises for
the first point of a stack that fails a check."""

from __future__ import annotations

import numpy as np


class EngineError(Exception):
    """Base class for all engine errors."""


class ValidationError(EngineError):
    """Input fails a structural invariant (dimension, pattern, residual)."""


class SchemaViolation(ValidationError):
    """A scenario document violates the scenario schema at ``path``, the
    keys and indices from its root to the offending value."""

    def __init__(self, path, message: str):
        self.path, self.message = tuple(path), message
        loc = "/".join(map(str, self.path)) or "<root>"
        super().__init__(f"scenario schema violation at {loc}: {message}")


class SubgroupRejection(ValidationError):
    """Block-pattern membership test failed."""


class SingularityError(EngineError):
    """A quantity required to be nonzero fell below the singular threshold."""

    pass


class TrackingError(EngineError):
    """Square-root path tracking failed (branch jump or vanishing value)."""

    pass


class GluingError(EngineError):
    """A global object could not be glued from local data.

    Carries the offending residuals keyed by location.
    """

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = dict(residuals or {})


class TheoremFalsification(EngineError):
    """A numerically verified statement failed where theory says it cannot.

    Reported with a dedicated exit code by the CLI.
    """

    pass


def raise_first(checks) -> None:
    """Raise for the first point of a stack that fails a check, the
    exception of its first failing check.

    ``checks`` lists, in the order one point is checked, pairs (bad,
    error): bad a (P,) boolean array flagging the failing points, and
    error(p) the exception of point p.
    """
    bad = np.array([b for b, _ in checks])
    hit = bad.any(axis=0)
    if hit.any():
        p = int(np.argmax(hit))
        raise checks[int(np.argmax(bad[:, p]))][1](p)
