"""Numerical tolerances.

All comparisons in the engine go through a single configurable set of
tolerances so that scenario files and the CLI can tighten or relax them
uniformly.  The current set lives in a context variable: each thread
runs in its own context, so an override in one never leaks into
another.
"""

from __future__ import annotations

import contextlib
import contextvars


class Tolerances:
    """Tolerance bundle used throughout the engine; equal bundles
    compare equal.

    rel       relative error for algebraic identities
    abs       absolute error for exact-zero / reality pattern checks
    singular  threshold below which a determinant counts as singular
    track     margin of a straight path's square root: the least |det| on
              the path, bounded below in closed form, over max(1, |det|
              at its start)
    """

    def __init__(self, rel: float = 1e-9, abs: float = 1e-10,
                 singular: float = 1e-12, track: float = 1e-6):
        self.rel = rel
        self.abs = abs
        self.singular = singular
        self.track = track

    def as_dict(self) -> dict[str, float]:
        """The tolerances by name, in the order rel, abs, singular, track."""
        return {"rel": self.rel, "abs": self.abs, "singular": self.singular,
                "track": self.track}

    def with_overrides(self, **kwargs: float) -> "Tolerances":
        return Tolerances(**{**self.as_dict(), **kwargs})

    def __eq__(self, other):
        if other.__class__ is not Tolerances:
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"Tolerances({args})"


_current: contextvars.ContextVar[Tolerances] = contextvars.ContextVar(
    "hfe_tolerances", default=Tolerances()
)


def get_tolerances() -> Tolerances:
    return _current.get()


# Named bounds: each residual of the engine is compared with one of these
# multiples of the current tolerances.

def projection_bound(tols: Tolerances) -> float:
    """Bound of recipe.projection: a tenth of rel (1e-10 by default)."""
    return tols.rel / 10


def identity_bound(tols: Tolerances) -> float:
    """Relative bound of an exact algebraic identity of group elements,
    z**2 = det A or a triple-point cocycle identity: ten times rel."""
    return 10 * tols.rel


def check_bound(tols: Tolerances) -> float:
    """Bound of the frame-pair, gluing and cross-check residuals: a
    thousand times rel (1e-6 by default)."""
    return 1e3 * tols.rel


def zero_bound(tols: Tolerances) -> float:
    """Absolute bound of an entry or difference that vanishes exactly in
    theory but is reached through arithmetic: a block pattern, a pair or
    lift that must match, the imaginary part of a real sample; a
    thousand times abs (1e-7 by default)."""
    return 1e3 * tols.abs


def property_bound(tols: Tolerances) -> float:
    """Relative bound of an identity reached through several numerical
    steps (a frame transition, Ball action, square-root tracking): the
    section consistency, Ball-match, invariance and property checks of
    the recipe and the premise of induce_compatible, 1e4 times rel."""
    return 1e4 * tols.rel


def loosest(a: Tolerances, b: Tolerances) -> Tolerances:
    """The tolerances that accept what either set accepts: the larger rel
    and abs, the smaller singular and track."""
    return Tolerances(max(a.rel, b.rel), max(a.abs, b.abs),
                      min(a.singular, b.singular), min(a.track, b.track))


@contextlib.contextmanager
def tolerance_overrides(**kwargs: float):
    """Temporarily override selected tolerances in the current context."""
    tols = _current.get().with_overrides(**kwargs)
    token = _current.set(tols)
    try:
        yield tols
    finally:
        _current.reset(token)
