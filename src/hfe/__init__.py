"""Numerical engine for metalinear frame bundles and pairing determinants.

Modules, from the numerical kernels up to the command line.  ``hfe.cli``
loads all of them but the three marked (first use): the stage runners of
``hfe.pipelines`` import those where they call them, so a verification
loads only the layers its scenario runs.

- ``hfe.smallmat``      small-matrix linear algebra over stacks, no BLAS at n <= 2
- ``hfe.tracking``      the exact complex kernel and continuous square-root tracking
- ``hfe.config``        numerical tolerances and the bounds derived from them
- ``hfe.errors``        the exception hierarchy, and raise_first over stacks
- ``hfe.ball``          raw Siegel-Ball linear algebra and the Ball action
- ``hfe.groups``        matrix groups, double covers, block subgroups
- ``hfe.frames``        Lagrangian frame linear algebra, Ball checks, densities (first use)
- ``hfe.nerve``         the finite nerve and the index of its sample points
- ``hfe.cech``          cocycles over a nerve, GF(2) algebra, double-cover lifting
- ``hfe.compatibility`` inducing a compatible metalinear cocycle, delta-tilde data (first use)
- ``hfe.induction``     metaplectic-to-metalinear transition-function recipe (first use)
- ``hfe.generators``    named generators of scenario data
- ``hfe.schema``        the scenario JSON schema and its checker
- ``hfe.scenario``      scenario files: loading, generator evaluation, the built-in corpus
- ``hfe.pipelines``     the verification stages over a loaded scenario
- ``hfe.report``        verification reports and their serialization
- ``hfe.cli``           scenario runner front end, and the process's exit path
"""

from .config import Tolerances, get_tolerances, tolerance_overrides

__all__ = [
    "Tolerances",
    "get_tolerances",
    "tolerance_overrides",
]

__version__ = "0.1.0"
