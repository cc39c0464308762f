"""Numerical tolerances.

Every bound in this package is a fixed multiple of one relative scale, ``rel``,
and each multiple is written once, below.  Each check reads its bound from the
one tolerance object, ``config.DEFAULT``, when it runs; no function takes a
tolerance of its own but ``is_reversible``, whose ``rel`` the derived chains
set to ``input_stationary`` and ``thomson_function_bound`` to ``rel``.  The
environment variable ``METASTAB_TOL`` is read once, when ``DEFAULT`` is first
used, and sets ``rel``; a value that is not a finite positive number raises
``BadTolerance`` there, not at import.  Replacing ``config.DEFAULT``, say by
``dataclasses.replace(config.DEFAULT, rel=...)``, moves every bound at once.
"""

import math
import os
from dataclasses import dataclass

from .errors import BadTolerance


@dataclass(frozen=True)
class ToleranceConfig:
    # base relative tolerance for identity checks
    rel: float = 1e-10
    # dense eigensolve guard for spectral gaps
    spectral_guard: int = 5000
    # state count guard for model builders with combinatorial state spaces
    state_guard: int = 200_000

    @property
    def stationary_residual(self) -> float:
        """rel / 100: flux balance of stationary()'s pi per unit max rate, and
        detailed balance per unit largest flux (``is_reversible``'s default)."""
        return self.rel / 100

    @property
    def prob_sum(self) -> float:
        """rel / 100: probabilities sum to one and lie in [0, 1], and test
        functions take their boundary levels 1 and 0, within this."""
        return self.stationary_residual

    @property
    def input_stationary(self) -> float:
        """10 rel: balance of a measure passed into a transform or derived by one."""
        return self.rel * 10

    @property
    def capacity_rel(self) -> float:
        """10 rel: agreement of the dual capacity routes."""
        return self.input_stationary

    @property
    def flow_divergence(self) -> float:
        """100 rel: divergence of a test flow, per unit of its largest value."""
        return self.rel * 100


def default_tolerances() -> ToleranceConfig:
    """The defaults, with ``rel`` from ``METASTAB_TOL`` when that is set."""
    env = os.environ.get("METASTAB_TOL")
    if not env:
        return ToleranceConfig()
    try:
        rel = float(env)
    except ValueError:
        rel = math.nan
    if not (math.isfinite(rel) and rel > 0):
        raise BadTolerance(f"METASTAB_TOL must be a finite positive number, got {env!r}")
    return ToleranceConfig(rel=rel)


def __getattr__(name):
    # DEFAULT is built on first use, so that a bad METASTAB_TOL raises in the
    # caller (the CLI reports it as an input error), not in ``import metastab``
    if name == "DEFAULT":
        global DEFAULT
        DEFAULT = default_tolerances()
        return DEFAULT
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
