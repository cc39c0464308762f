"""Numerical tolerances.

Every quantity in this package is a finite linear-algebra output, so a single
relative scale covers most checks.  The few identities with tighter or looser
contracts get their own knobs.  ``DEFAULT`` is the one tolerance object: each
check reads its bound from ``config.DEFAULT`` when it runs, and no function
takes a tolerance of its own.  The environment variable ``METASTAB_TOL`` is
read once, at import, and rescales the base relative tolerance; replacing
``config.DEFAULT`` changes every bound at once.
"""

import os
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ToleranceConfig:
    # base relative tolerance for identity checks
    rel: float = 1e-10
    # residual bound for stationary(), as a multiple of the max rate
    stationary_residual: float = 1e-12
    # stationarity required of measures passed into adjoint/transform ops
    input_stationary: float = 1e-9
    # capacity identities ((J-3)-style dual routes)
    capacity_rel: float = 1e-9
    # probability vectors must sum to one within this
    prob_sum: float = 1e-12
    # dense eigensolve guard for spectral gaps
    spectral_guard: int = 5000
    # state count guard for model builders with combinatorial state spaces
    state_guard: int = 200_000

    def scaled(self, base: float) -> "ToleranceConfig":
        """Rescale the relative knobs, keeping their ratios to ``rel``."""
        factor = base / self.rel
        return replace(
            self,
            rel=base,
            stationary_residual=self.stationary_residual * factor,
            input_stationary=self.input_stationary * factor,
            capacity_rel=self.capacity_rel * factor,
        )


def default_tolerances() -> ToleranceConfig:
    env = os.environ.get("METASTAB_TOL")
    return ToleranceConfig().scaled(float(env)) if env else ToleranceConfig()


DEFAULT = default_tolerances()
