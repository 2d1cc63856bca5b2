"""Numerical engine for metalinear frame bundles and pairing determinants.

Subpackages/modules:

- ``hfe.groups``        matrix groups, double covers, block subgroups
- ``hfe.frames``        Lagrangian frame linear algebra, Ball actions, densities
- ``hfe.cech``          finite-nerve cocycle machinery, double-cover lifting
- ``hfe.compatibility`` inducing a compatible metalinear cocycle, delta-tilde data
- ``hfe.induction``     metaplectic-to-metalinear transition-function recipe
- ``hfe.cli``           scenario runner front end
"""

from .config import Tolerances, get_tolerances, tolerance_overrides

__all__ = [
    "Tolerances",
    "get_tolerances",
    "tolerance_overrides",
]

__version__ = "0.1.0"
