"""Numerical engine for metalinear frame bundles and pairing determinants.

Modules, from the numerical kernels up to the command line:

- ``hfe.smallmat``      small-matrix linear algebra over stacks, no BLAS at n <= 2
- ``hfe.tracking``      the exact complex kernel and continuous square-root tracking
- ``hfe.config``        numerical tolerances and the bounds derived from them
- ``hfe.errors``        the exception hierarchy, and raise_first over stacks
- ``hfe.ball``          raw Siegel-Ball linear algebra and the Ball action
- ``hfe.groups``        matrix groups, double covers, block subgroups
- ``hfe.frames``        Lagrangian frame linear algebra, Ball checks, densities
- ``hfe.sampling``      seeded random draws for the property checks
- ``hfe.cech``          finite-nerve cocycle machinery, double-cover lifting
- ``hfe.compatibility`` inducing a compatible metalinear cocycle, delta-tilde data
- ``hfe.induction``     metaplectic-to-metalinear transition-function recipe
- ``hfe.generators``    named generators of scenario data
- ``hfe.scenario``      scenario files: schema, loading, the built-in corpus
- ``hfe.pipelines``     the verification stages over a loaded scenario
- ``hfe.report``        verification reports and their serialization
- ``hfe.cli``           scenario runner front end
"""

from .config import Tolerances, get_tolerances, tolerance_overrides

__all__ = [
    "Tolerances",
    "get_tolerances",
    "tolerance_overrides",
]

__version__ = "0.1.0"
