"""The metastability pipeline: coarse-grained rates, time scales, the reduced
model, and numeric checks of the separation-of-scales hypotheses.

Valley indices are 1-based; ``rates[j-1, k-1]`` holds the coarse rate from
valley j to valley k.  Everything is exact finite linear algebra; the checks
report ratios for the user to compare across a model family, never verdicts.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import numerics
from .chain import Chain, Partition, ProbVector, spectral_gap, stationary
from .config import DEFAULT, ToleranceConfig
from .errors import (
    BadPartition,
    NotIrreducibleAfterReflection,
    SolverFailure,
    ToleranceViolation,
)
from .potential import capacity
# trace_chain and collapse_chain are not called here; the traced benchmark run
# looks them up on this module to report their time
from .transforms import collapse_chain, reflected_chain, trace_chain  # noqa: F401


def _valley_index_arrays(chain: Chain, partition: Partition):
    partition.validate_for(chain)
    return [chain.indices_of(v) for v in partition.valleys]


class _ValleyFlux(NamedTuple):
    """pi-weighted flux of the trace process on the valley union F.

    ``flux[j, k]`` is the sum over x in valley j+1 of pi(x) times the rate at
    which the trace process jumps from x into valley k+1 (the diagonal counts
    returns to the own valley).
    """

    flux: np.ndarray
    masses: np.ndarray        # pi(valley j)
    capacities: np.ndarray    # Cap(valley j, others) = sum over k != j of flux[j, k]

    @property
    def timescales(self) -> np.ndarray:
        return self.masses / self.capacities


def _valley_flux(chain: Chain, pi: ProbVector, partition: Partition,
                 tol: ToleranceConfig = DEFAULT) -> _ValleyFlux:
    """One factorization of -L on Delta gives every valley-to-valley flux.

    G[y, k] = P_y[enter F in valley k+1]: the indicator of the valley on F
    and the harmonic measure H on Delta, from one solve with one right-hand
    side per valley.  Then flux = G_F^T diag(pi_F) R_F G.  A harmonic measure
    that is negative or does not sum to one is a solver failure; a valley
    whose escape flux out and in differ means pi is not stationary on F.
    """
    partition.validate_for(chain, require_valleys=2)
    labels = partition.label_map()
    owner = np.array([labels[s] - 1 for s in chain.states])
    f = np.flatnonzero(owner >= 0)
    d = np.flatnonzero(owner < 0)
    G = np.zeros((chain.n, partition.n))
    G[f, owner[f]] = 1.0
    if len(d):
        H = numerics.solve_linear(chain.killed(d), chain.rates[d] @ G)
        row_dev = float(np.abs(H.sum(axis=1) - 1.0).max())
        if H.min() < -tol.rel or row_dev > tol.rel:
            raise SolverFailure(
                f"harmonic measure on Delta (|Delta| = {len(d)}) is not a "
                f"probability: min {H.min():.3e}, worst row-sum deviation {row_dev:.3e}")
        G[d] = H
    flux = G[f].T @ (pi.weights[f, np.newaxis] * (chain.rates[f] @ G))
    escape = flux - np.diag(np.diag(flux))
    outflow, inflow = escape.sum(axis=1), escape.sum(axis=0)
    reldev = np.abs(outflow - inflow) / np.maximum(outflow, inflow)
    worst = int(np.argmax(reldev))
    if reldev[worst] > tol.capacity_rel:
        raise ToleranceViolation(
            f"valley {worst + 1}: escape flux out {outflow[worst]:.10e} and in "
            f"{inflow[worst]:.10e} of the trace process differ by "
            f"{reldev[worst]:.3e} relative; pi is not stationary on the valleys")
    masses = np.array([pi.mass(chain.indices_of(v)) for v in partition.valleys])
    return _ValleyFlux(flux, masses, outflow)


@dataclass(frozen=True)
class ReducedModel:
    """Coarse-grained S-valued chain: rates r(j, k), holding rates, theta."""

    valley_count: int
    rates: np.ndarray            # (n, n), zero diagonal, units 1/rescaled-time
    holding_rates: np.ndarray    # row sums of ``rates``
    theta: float
    diagnostics: dict = field(default_factory=dict)

    def rate(self, j: int, k: int) -> float:
        return float(self.rates[j - 1, k - 1])

    def to_dict(self) -> dict:
        return {
            "valley_count": self.valley_count,
            "theta": self.theta,
            "rates": self.rates.tolist(),
            "holding_rates": self.holding_rates.tolist(),
            "diagnostics": self.diagnostics,
        }


def coarse_rates(chain: Chain, pi: ProbVector, partition: Partition, theta: float,
                 tol: ToleranceConfig = DEFAULT) -> ReducedModel:
    """Coarse-grained jump rates from the valley flux of the trace process.

    r(j, k) is theta times the pi-averaged rate at which the trace process on
    the valley union jumps from valley j into valley k, so that
    pi(valley j) * holding(j) = theta * Cap(valley j, other valleys).
    """
    if theta <= 0:
        raise BadPartition(f"theta must be positive, got {theta!r}")
    vf = _valley_flux(chain, pi, partition, tol)
    rates = theta * vf.flux / vf.masses[:, np.newaxis]
    np.fill_diagonal(rates, 0.0)
    diagnostics = {
        "valley_masses": vf.masses.tolist(),
        "valley_capacities": vf.capacities.tolist(),
        "delta_mass": float(pi.mass(chain.indices_of(partition.delta)))
        if partition.delta else 0.0,
    }
    return ReducedModel(partition.n, rates, rates.sum(axis=1), float(theta), diagnostics)


def timescale(chain: Chain, pi: ProbVector, partition: Partition, j: int,
              tol: ToleranceConfig = DEFAULT) -> float:
    """pi(valley j) / Cap(valley j, union of the others)."""
    partition.valley(j)  # rejects an out-of-range j
    return float(_valley_flux(chain, pi, partition, tol).timescales[j - 1])


class TimescaleProfile(NamedTuple):
    values: np.ndarray
    spread: float        # max/min ratio; well above 1 flags multiple scales


def timescales(chain: Chain, pi: ProbVector, partition: Partition,
               tol: ToleranceConfig = DEFAULT) -> TimescaleProfile:
    vals = _valley_flux(chain, pi, partition, tol).timescales
    return TimescaleProfile(vals, float(vals.max() / vals.min()))


def jump_probabilities(chain: Chain, pi: ProbVector, partition: Partition, j: int,
                       tol: ToleranceConfig = DEFAULT) -> dict:
    """p(j, k) = P[from the collapsed valley j, hit valley k first].

    That is the share of valley j's escape flux that lands in valley k,
    flux(j, k) / Cap(valley j, union of the others).
    """
    partition.valley(j)  # rejects an out-of-range j
    vf = _valley_flux(chain, pi, partition, tol)
    cap = vf.capacities[j - 1]
    return {k: float(vf.flux[j - 1, k - 1] / cap)
            for k in range(1, partition.n + 1) if k != j}


def symmetrized_rate_via_capacities(chain: Chain, pi: ProbVector,
                                    partition: Partition, theta: float,
                                    j: int, k: int,
                                    tol: ToleranceConfig = DEFAULT) -> float:
    """Reversible-case cross-check for pi(valley j) r(j, k) via three capacities."""
    cap_j = capacity(chain, pi, sorted(partition.valley(j)),
                     sorted(partition.others(j)), tol)
    cap_k = capacity(chain, pi, sorted(partition.valley(k)),
                     sorted(partition.others(k)), tol)
    rest = sorted(partition.others(j) - partition.valley(k))
    if rest:
        cap_jk = capacity(chain, pi,
                          sorted(partition.valley(j) | partition.valley(k)),
                          rest, tol)
    else:
        cap_jk = 0.0
    mass = pi.mass(chain.indices_of(partition.valley(j)))
    return theta * 0.5 * (cap_j + cap_k - cap_jk) / mass


@dataclass(frozen=True)
class ConditionReport:
    """Raw separation-of-scales ratios; entries are None when unavailable.

    No verdicts are attached: the ratios are meant to be compared across a
    model family as the size parameter grows.
    """

    theta: float
    reference_states: tuple            # pi-maximal state per valley
    capacity_ratio: tuple              # per valley: max Cap(valley)/Cap(state, ref)
    measure_ratio: tuple               # per valley: pi(delta) / pi(valley)
    pointwise_measure_ratio: float     # max over valley states of pi(delta)/pi(state)
    relaxation_ratio: tuple            # per valley: t_rel(reflected) / theta
    relaxation_composite: tuple        # per valley: worst mass-imbalance * t_rel / theta
    notes: tuple = ()

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "reference_states": list(self.reference_states),
            "capacity_ratio": list(self.capacity_ratio),
            "measure_ratio": list(self.measure_ratio),
            "pointwise_measure_ratio": self.pointwise_measure_ratio,
            "relaxation_ratio": list(self.relaxation_ratio),
            "relaxation_composite": list(self.relaxation_composite),
            "notes": list(self.notes),
        }


def check_conditions(chain: Chain, pi: ProbVector, partition: Partition,
                     theta: float, tol: ToleranceConfig = DEFAULT) -> ConditionReport:
    """Compute the metastability condition ratios for one chain and partition.

    Per valley: the worst ratio of the valley's escape capacity to the
    capacity between a state and the valley's pi-maximal reference state
    (zero for singleton valleys, where the max is empty); the measure ratio
    pi(delta)/pi(valley); and relaxation times of the reflected chains
    relative to theta.  Reflections that disconnect a valley leave a None
    entry with a note.
    """
    vf = _valley_flux(chain, pi, partition, tol)
    n = partition.n
    valley_idx = _valley_index_arrays(chain, partition)
    delta_mass = float(pi.mass(chain.indices_of(partition.delta))) \
        if partition.delta else 0.0
    masses, caps = vf.masses, vf.capacities
    refs = partition.reference_states(chain, pi)

    cap_ratios = []
    for j in range(1, n + 1):
        ix = valley_idx[j - 1]
        if len(ix) == 1:
            cap_ratios.append(0.0)
            continue
        ref = refs[j - 1]
        worst = 0.0
        for i in ix:
            s = chain.states[i]
            if s == ref:
                continue
            worst = max(worst, caps[j - 1] / capacity(chain, pi, [s], [ref], tol))
        cap_ratios.append(worst)

    measure_ratios = [delta_mass / m for m in masses]
    union_idx = np.concatenate(valley_idx)
    pointwise = float(delta_mass / pi.weights[union_idx].min())

    relax, composite, notes = [], [], []
    imbalance = float(masses.max() / masses.min())
    for j in range(1, n + 1):
        ix = valley_idx[j - 1]
        if len(ix) == 1:
            relax.append(0.0)
            composite.append(0.0)
            continue
        try:
            refl = reflected_chain(chain, sorted(partition.valley(j)), pi, tol)
        except NotIrreducibleAfterReflection:
            relax.append(None)
            composite.append(None)
            notes.append(f"valley {j}: reflection disconnects; relaxation entry unavailable")
            continue
        gap = spectral_gap(refl, stationary(refl, tol), tol)
        relax.append(gap.relaxation_time / theta)
        composite.append(imbalance * gap.relaxation_time / theta)

    return ConditionReport(
        theta=float(theta),
        reference_states=refs,
        capacity_ratio=tuple(cap_ratios),
        measure_ratio=tuple(float(x) for x in measure_ratios),
        pointwise_measure_ratio=pointwise,
        relaxation_ratio=tuple(relax),
        relaxation_composite=tuple(composite),
        notes=tuple(notes),
    )


def reduced_generator(model: ReducedModel) -> np.ndarray:
    """Dense generator of the reduced chain; rows sum to zero."""
    L = model.rates.copy()
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(L, -L.sum(axis=1))
    return L


def reduced_transition(model: ReducedModel, t: float) -> np.ndarray:
    """exp(t L) for the reduced generator."""
    return scipy.linalg.expm(t * reduced_generator(model))
