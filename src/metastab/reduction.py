"""The metastability pipeline: coarse-grained rates, time scales, the reduced
model, and numeric checks of the separation-of-scales hypotheses.

Valley indices are 1-based; ``rates[j-1, k-1]`` holds the coarse rate from
valley j to valley k.  Everything is exact finite linear algebra; the checks
report ratios for the user to compare across a model family, never verdicts.
"""

from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import config, numerics
from .chain import (
    Chain,
    Partition,
    ProbVector,
    _chain_from_csr,
    apply_generator,
    dirichlet_form,
    spectral_gap,
    stationary,
)
from .errors import (
    BadPartition,
    BadSpec,
    NotIrreducibleAfterReflection,
    NotStationary,
    SolverFailure,
    ToleranceViolation,
)
# capacity, trace_chain and collapse_chain are not called here; the traced
# benchmark run looks them up on this module to report their time
from .potential import _drop_dust, _harmonic_measure, _trace_rates, capacity  # noqa: F401
from .transforms import collapse_chain, reflected_chain, trace_chain  # noqa: F401


def _valley_flux(chain: Chain, pi: ProbVector, owner: np.ndarray):
    """One factorization of -L on Delta gives every valley-to-valley flux.

    G[y, k] = P_y[enter F in valley k+1] is the harmonic measure of the
    valleys (``potential._harmonic_measure``), one solve with one right-hand
    side per valley; ``owner`` is ``Partition.validate_for``'s owner array.
    Returns flux = G_F^T diag(pi_F) R_F G, the pi-weighted rates of the trace
    process on F between valleys, and its off-diagonal row sums
    Cap(valley j, others).  A valley whose escape flux out and in differ
    means pi is not stationary on F.
    """
    f = np.flatnonzero(owner > 0)
    G = _harmonic_measure(chain, owner - 1)
    flux = G[f].T @ (pi.weights[f, np.newaxis] * (chain.rates[f] @ G))
    escape = flux - np.diag(np.diag(flux))
    outflow, inflow = escape.sum(axis=1), escape.sum(axis=0)
    reldev = np.abs(outflow - inflow) / np.maximum(outflow, inflow)
    worst = int(np.argmax(reldev))
    if reldev[worst] > config.DEFAULT.capacity_rel:
        raise ToleranceViolation(
            f"valley {worst + 1}: escape flux out {outflow[worst]:.10e} and in "
            f"{inflow[worst]:.10e} of the trace process differ by "
            f"{reldev[worst]:.3e} relative; pi is not stationary on the valleys")
    return flux, outflow


@dataclass(frozen=True)
class ReducedModel:
    """Coarse-grained S-valued chain: rates r(j, k), holding rates, theta.

    ``diagnostics`` holds pi(valley j), Cap(valley j, others) and pi(Delta);
    the properties below read the other reduced quantities off them.
    """

    valley_count: int
    rates: np.ndarray            # (n, n), zero diagonal, units 1/rescaled-time
    holding_rates: np.ndarray    # row sums of ``rates``
    theta: float
    diagnostics: dict = field(default_factory=dict)

    def rate(self, j: int, k: int) -> float:
        return float(self.rates[j - 1, k - 1])

    @property
    def masses(self) -> np.ndarray:
        return np.array(self.diagnostics["valley_masses"])

    @property
    def capacities(self) -> np.ndarray:
        return np.array(self.diagnostics["valley_capacities"])

    @property
    def delta_mass(self) -> float:
        return self.diagnostics["delta_mass"]

    @property
    def timescales(self) -> np.ndarray:
        """theta_j = pi(valley j) / Cap(valley j, others)."""
        return self.masses / self.capacities

    @property
    def jump_probabilities(self) -> np.ndarray:
        """p(j, k) = r(j, k) / lambda(j), zero on the diagonal."""
        return self.rates / self.holding_rates[:, np.newaxis]

    def to_dict(self) -> dict:
        return {
            "valley_count": self.valley_count,
            "theta": self.theta,
            "rates": self.rates.tolist(),
            "holding_rates": self.holding_rates.tolist(),
            "diagnostics": self.diagnostics,
        }


def _valley_masses(pi: ProbVector, owner, n) -> np.ndarray:
    """pi(valley k) for k = 1..n; ``owner`` maps each state to its valley, 0 for Delta."""
    return np.array([pi.mass(np.flatnonzero(owner == k)) for k in range(1, n + 1)])


def coarse_rates(chain: Chain, pi: ProbVector, partition: Partition,
                 theta: float | None = None) -> ReducedModel:
    """The reduced model, from one run of the valley-flux kernel.

    Cap_j is valley j's escape flux and theta_j = pi(valley j) / Cap_j;
    ``theta`` defaults to the smallest theta_j.  r(j, k) is theta times the
    pi-averaged rate at which the trace process on the valley union jumps
    from valley j into valley k, so that
    pi(valley j) * holding(j) = theta * Cap(valley j, other valleys).
    """
    if theta is not None and not (np.isfinite(theta) and theta > 0):
        raise BadSpec(f"theta must be finite and positive, got {theta!r}")
    owner = partition.validate_for(chain, require_valleys=2)
    flux, caps = _valley_flux(chain, pi, owner)
    masses = _valley_masses(pi, owner, partition.n)
    if theta is None:
        theta = (masses / caps).min()
    rates = theta * flux / masses[:, np.newaxis]
    np.fill_diagonal(rates, 0.0)
    diagnostics = {
        "valley_masses": masses.tolist(),
        "valley_capacities": caps.tolist(),
        "delta_mass": pi.mass(np.flatnonzero(owner == 0)),
    }
    return ReducedModel(partition.n, rates, rates.sum(axis=1), float(theta), diagnostics)


class TimescaleProfile(NamedTuple):
    values: np.ndarray
    spread: float        # max/min ratio; well above 1 flags multiple scales


def timescales(chain: Chain, pi: ProbVector, partition: Partition) -> TimescaleProfile:
    """pi(valley j) / Cap(valley j, union of the others), read off ``coarse_rates``."""
    vals = coarse_rates(chain, pi, partition).timescales
    return TimescaleProfile(vals, float(vals.max() / vals.min()))


def jump_probabilities(chain: Chain, pi: ProbVector, partition: Partition, j: int) -> dict:
    """p(j, k) = P[from the collapsed valley j, hit valley k first].

    That is the share of valley j's escape flux that lands in valley k,
    r(j, k) / lambda(j), read off ``coarse_rates``.
    """
    partition.valley(j)  # rejects an out-of-range j
    row = coarse_rates(chain, pi, partition).jump_probabilities[j - 1]
    return {k: float(row[k - 1]) for k in range(1, partition.n + 1) if k != j}


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
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


def _valley_trace(rates, e) -> np.ndarray:
    """Dense rates of the trace onto ``e`` of the chain with dense ``rates``.

    The rates pass ``_drop_dust``.  The row sums of the harmonic measure are
    not checked: the other valleys enter ``e`` only through rare transitions,
    so the dense solve is ill-conditioned and its row sums miss 1 by far more
    than the error of the rates, which weigh it by those rare rates.
    """
    out = np.setdiff1d(np.arange(len(rates)), e)
    killed = np.diag(rates[out].sum(axis=1)) - rates[np.ix_(out, out)]
    harmonic = numerics.factor(killed)(rates[np.ix_(out, e)])
    return _drop_dust(rates[np.ix_(e, e)] + rates[np.ix_(e, out)] @ harmonic, rates.max())


# the two-form check's (edges x columns) arrays stay near this many entries
_TWO_FORM_BLOCK = 1 << 22


def _point_capacities(chain: Chain, weights, ref: int, where: str) -> np.ndarray:
    """Cap(x, ref) for every state x of ``chain`` other than ``ref``, from one solve.

    ``chain`` is a valley's trace chain and ``weights`` pi on its states, not
    normalised.  G = K^{-1}, with K = ``chain.killed`` off ref as a dense
    block, is the Green function of the chain killed at ref, and
    G(x, x) = 1 / (lambda(x) P_x[hit ref before returning to x]), so
    Cap(x, ref) = pi(x) / G(x, x), reversible or not.  Column x of G over
    G(x, x) is the equilibrium potential h_x = P[hit x before ref].  Each
    capacity is checked as in ``equilibrium_potential``: an escape
    probability above 1 is a solver failure, h_x must be harmonic off
    {x, ref}, D(h_x) must pass the two-form check of ``dirichlet_form`` (on
    pi conditioned to the valley, in column blocks), and pi(x) / G(x, x) and
    D(h_x) must agree within ``capacity_rel``.  A failed check raises
    ``SolverFailure`` or ``ToleranceViolation`` naming ``where`` and the state.
    """
    rest = np.flatnonzero(np.arange(chain.n) != ref)
    cols = np.arange(len(rest))
    G = numerics.factor(chain.killed(rest).toarray())(np.eye(len(rest)))
    green = G[cols, cols]

    def state(k):
        return f"{where}, state {chain.states[rest[k]]!r}"

    rel = config.DEFAULT.rel
    bad = np.flatnonzero(~np.isfinite(green) | (chain.holding[rest] * green < 1.0 - rel))
    if len(bad):
        k = int(bad[0])
        raise SolverFailure(
            f"{state(k)}: Green function G(x, x) = {float(green[k])!r} gives escape "
            f"probability 1 / (lambda(x) G(x, x)) = "
            f"{float(1.0 / (chain.holding[rest[k]] * green[k]))!r}, not in (0, 1]")
    h = np.zeros((chain.n, len(rest)))
    h[rest] = G / green
    lh = apply_generator(chain, h)
    lh[rest, cols] = 0.0
    lh[ref] = 0.0
    residual = np.abs(lh).max(axis=0)
    k = int(np.argmax(residual))
    if residual[k] > rel * max(chain.max_rate, 1.0):
        raise SolverFailure(f"{state(k)}: harmonicity residual {residual[k]:.3e} too large")
    mass = float(weights.sum())
    conditioned = ProbVector(weights / mass)
    step = max(1, _TWO_FORM_BLOCK // chain.rates.nnz)
    dirichlet = np.empty(len(rest))
    for start in range(0, len(rest), step):
        try:
            dirichlet[start:start + step] = mass * dirichlet_form(
                chain, conditioned, h[:, start:start + step])
        except NotStationary as exc:
            raise ToleranceViolation(f"{state(start + exc.column)}: {exc}") from exc
    caps = weights[rest] / green
    reldev = np.abs(caps - dirichlet) / np.maximum(np.maximum(caps, dirichlet), 1e-300)
    k = int(np.argmax(reldev))
    if reldev[k] > config.DEFAULT.capacity_rel:
        raise ToleranceViolation(
            f"{state(k)}: capacity routes disagree: escape-rate {float(caps[k])!r} "
            f"vs Dirichlet {float(dirichlet[k])!r}")
    return caps


def check_conditions(chain: Chain, pi: ProbVector, partition: Partition,
                     model: ReducedModel) -> ConditionReport:
    """Compute the metastability condition ratios for one chain and partition.

    Per valley: the worst ratio of the valley's escape capacity to the
    capacity between a state and the valley's pi-maximal reference state
    (zero for singleton valleys, where the max is empty); the measure ratio
    pi(delta)/pi(valley); and relaxation times of the reflected chains
    relative to theta.  The chain killed at ref spends as long at x as its
    trace on the valley union F does, so Cap(x, ref) = pi(x) / G(x, x) is
    read off the trace chain: ``potential._trace_rates`` builds it on F from
    the factorization of Delta that ``coarse_rates`` left on the chain,
    ``_valley_trace`` traces it onto each valley and ``_point_capacities``
    reads the valley's capacities there.  Theta, the valley masses and
    capacities and pi(delta) are read off ``model``, the ``coarse_rates``
    result for the same chain, pi and partition; a model whose valley count
    or valley masses differ from the partition's raises ``BadPartition``.
    Reflections that disconnect a valley leave a None entry with a note.
    """
    owner = partition.validate_for(chain, require_valleys=2)
    if model.valley_count != partition.n:
        raise BadPartition(f"the reduced model has {model.valley_count} valleys, "
                           f"the partition {partition.n}")
    theta, masses, caps, delta_mass = (
        model.theta, model.masses, model.capacities, model.delta_mass)
    own = _valley_masses(pi, owner, partition.n)
    differ = np.flatnonzero(own != masses)
    if len(differ):
        j = int(differ[0])
        raise BadPartition(f"valley {j + 1}: the reduced model's mass {float(masses[j])!r} "
                           f"is not the partition's {float(own[j])!r}")
    refs = partition.reference_states(chain, pi)
    f = np.flatnonzero(owner > 0)
    rates_f = _trace_rates(chain, f)
    imbalance = float(masses.max() / masses.min())
    cap_ratios, relax, composite, notes = [], [], [], []
    for j, ref in enumerate(refs, start=1):
        e = np.flatnonzero(owner[f] == j)
        if len(e) == 1:
            cap_ratios.append(0.0)
            relax.append(0.0)
            composite.append(0.0)
            continue
        valley = _chain_from_csr(tuple(chain.states[i] for i in f[e]),
                                 sp.csr_matrix(_valley_trace(rates_f, e)))
        point = _point_capacities(valley, pi.weights[f[e]], valley.index[ref],
                                  f"check_conditions: valley {j}, reference state {ref!r}")
        cap_ratios.append(float(caps[j - 1] / point.min()))
        try:
            refl = reflected_chain(chain, sorted(partition.valley(j)), pi)
        except NotIrreducibleAfterReflection:
            relax.append(None)
            composite.append(None)
            notes.append(f"valley {j}: reflection disconnects; relaxation entry unavailable")
            continue
        gap = spectral_gap(refl, stationary(refl))
        relax.append(gap.relaxation_time / theta)
        composite.append(imbalance * gap.relaxation_time / theta)

    return ConditionReport(
        theta=theta,
        reference_states=refs,
        capacity_ratio=tuple(cap_ratios),
        measure_ratio=tuple(float(delta_mass / m) for m in masses),
        pointwise_measure_ratio=float(delta_mass / pi.weights[f].min()),
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
