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

from . import config, numerics
from .chain import (
    Chain,
    Partition,
    ProbVector,
    _grounded_law,
    _two_form,
    generator_gap,
    is_reversible,
    spectral_gap,  # noqa: F401
    stationary,  # noqa: F401
)
from .errors import (
    BadPartition,
    BadSpec,
    NotStationary,
    SolverFailure,
    TooLarge,
    ToleranceViolation,
)
# capacity, spectral_gap, stationary and the three transforms are not called
# here; the traced benchmark run looks them up on this module to report their time
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


def _require_small_valleys(owner: np.ndarray, where: str):
    """A valley above ``spectral_guard`` states raises ``TooLarge`` naming it:
    its dense trace, Green function and relaxation step grow with its size."""
    sizes = np.bincount(owner, minlength=int(owner.max()) + 1)[1:]
    guard = config.DEFAULT.spectral_guard
    big = np.flatnonzero((sizes > guard) & (sizes > 1))
    if len(big):
        j = int(big[0])
        raise TooLarge(f"{where}: valley {j + 1}: its dense steps span the whole valley; "
                       f"{sizes[j]} states exceed the guard {guard}")


def _valley_traces(chain: Chain, owner: np.ndarray, where: str):
    """(T_F, V) for the valley union F of ``owner``, kept on the chain.

    T_F = ``_trace_rates`` on F, from the factorization of Delta the chain
    keeps; ``V[j - 1]`` is T_F traced onto valley j (``_valley_trace``), or
    None for a singleton valley.  Rows and columns follow the dense index.
    Each V_j must be irreducible: one that is not raises ``SolverFailure``
    naming ``where``, the valley and a pair of states with no path between.
    """
    def build():
        f = np.flatnonzero(owner > 0)
        rates_f = _trace_rates(chain, f)
        valleys = [np.flatnonzero(owner[f] == j) for j in range(1, int(owner.max()) + 1)]
        traces = tuple(_valley_trace(rates_f, e) if len(e) > 1 else None for e in valleys)
        for j, e in enumerate(valleys, start=1):
            witness = len(e) > 1 and numerics.strong_connectivity_witness(traces[j - 1])
            if witness:
                a, b = (chain.states[f[e[i]]] for i in witness)
                raise SolverFailure(f"{where}: valley {j}: its trace chain is not "
                                    f"irreducible: {b!r} is unreachable from {a!r}")
        return rates_f, traces
    return chain._kept("_valley_traces", owner.tobytes(), build)


def _trace_law(chain: Chain, partition: Partition) -> np.ndarray:
    """pi by stochastic complementation on the valley union F (Meyer 1989).

    pi restricted to F is the stationary law of T_F, and pi on valley j,
    normalized, is mu_j, the law of V_j (``_valley_traces``).  The valleys'
    coupling C(j, k) = sum_{x in E_j} mu_j(x) T_F(x, E_k) is a rate matrix
    whose law xi_j is pi(E_j) / pi(F), so pi = xi_j mu_j on E_j.  Off F,
    pi_D^T = pi_F^T R_FD K_D^-1 is one transposed solve with the factor of
    Delta the chain keeps.  All factors pivot on K's diagonal: partial
    pivoting on K would lose the deep wells' small entries.  A valley above
    ``spectral_guard`` raises ``TooLarge`` first; an entry that is not finite
    and positive raises ``SolverFailure`` naming the state.
    """
    owner = partition.validate_for(chain, require_valleys=2)
    _require_small_valleys(owner, "stationary")
    rates_f, traces = _valley_traces(chain, owner, "stationary")
    f = np.flatnonzero(owner > 0)
    valley = owner[f] - 1
    mu = np.ones(len(f))
    for j, trace in enumerate(traces):
        if trace is not None:
            e = np.flatnonzero(valley == j)
            mu[e] = _grounded_law(trace, [chain.states[i] for i in f[e]],
                                  f"stationary: valley {j + 1}")
    member = np.eye(partition.n)[valley]
    coupling = member.T @ (mu[:, np.newaxis] * rates_f) @ member
    np.fill_diagonal(coupling, 0.0)
    xi = _grounded_law(coupling, range(1, partition.n + 1), "stationary: valley coupling")
    w = np.zeros(chain.n)
    w[f] = xi[valley] * mu
    delta = np.flatnonzero(owner == 0)
    if len(delta):
        w[delta] = chain.killed_solver(delta)(chain.rates[f][:, delta].T @ w[f], trans="T")
    w /= w.sum()
    bad = np.flatnonzero(~(np.isfinite(w) & (w > 0)))
    if len(bad):
        raise SolverFailure(f"stationary: pi({chain.states[bad[0]]!r}) = {float(w[bad[0]])!r} "
                            f"off the trace chain; an irreducible chain has pi > 0")
    return w


def _valley_trace(rates, e) -> np.ndarray:
    """Dense rates of the trace onto ``e`` of the chain with dense ``rates``.

    The rates pass ``_drop_dust``.  The row sums of the harmonic measure are
    not checked: the other valleys enter ``e`` only through rare transitions,
    so the dense solve is ill-conditioned and its row sums miss 1 by far more
    than the error of the rates, which weigh it by those rare rates.
    """
    out = np.setdiff1d(np.arange(len(rates)), e)
    harmonic = numerics.factor(numerics.killed(rates, out))(rates[np.ix_(out, e)])
    return _drop_dust(rates[np.ix_(e, e)] + rates[np.ix_(e, out)] @ harmonic, rates.max())


# the two-form check's (edges x columns) arrays stay near this many entries
_TWO_FORM_BLOCK = 1 << 22


def _point_capacities(rates, weights, ref: int, labels, where: str) -> np.ndarray:
    """Cap(x, ref) for every state x but ``ref`` of the dense rates V_j of a
    valley's trace chain, from one solve.

    ``weights`` is pi on the valley, not normalised; ``labels[i]`` names
    state i.  G = K^{-1}, with K = diag(lambda) - R off ref, is the Green
    function of the chain killed at ref, and G(x, x) = 1 / (lambda(x)
    P_x[hit ref before returning to x]), so Cap(x, ref) = pi(x) / G(x, x),
    reversible or not.  Column x of G over G(x, x) is the equilibrium
    potential h_x = P[hit x before ref].  Each capacity is checked as in
    ``equilibrium_potential``: an escape probability above 1 is a solver
    failure, h_x must be harmonic off {x, ref}, D(h_x) must pass the
    two-form check of ``dirichlet_form`` (on pi conditioned to the valley,
    in column blocks, with the one product L h), and pi(x) / G(x, x) and
    D(h_x) must agree within ``capacity_rel``.  A failed check raises
    ``SolverFailure`` or ``ToleranceViolation`` naming ``where`` and the state.
    """
    n = len(rates)
    src, dst = np.nonzero(rates)
    edge_rates = rates[src, dst]
    holding = rates.sum(axis=1)
    rest = np.flatnonzero(np.arange(n) != ref)
    G = numerics.factor(numerics.killed(rates, rest))(np.eye(len(rest)))
    green = np.diag(G)

    def state(k):
        return f"{where}, state {labels[rest[k]]!r}"

    rel = config.DEFAULT.rel
    bad = np.flatnonzero(~np.isfinite(green) | (holding[rest] * green < 1.0 - rel))
    if len(bad):
        k = int(bad[0])
        raise SolverFailure(
            f"{state(k)}: Green function G(x, x) = {float(green[k])!r} gives escape "
            f"probability 1 / (lambda(x) G(x, x)) = "
            f"{float(1.0 / (holding[rest[k]] * green[k]))!r}, not in (0, 1]")
    h = np.zeros((n, len(rest)))
    h[rest] = G / green
    lh = rates @ h - holding[:, np.newaxis] * h
    off = lh[rest]  # a copy; its diagonal is (L h_x)(x), where h_x need not be harmonic
    np.fill_diagonal(off, 0.0)
    residual = np.abs(off).max(axis=0)
    k = int(np.argmax(residual))
    if residual[k] > rel * max(edge_rates.max(), 1.0):
        raise SolverFailure(f"{state(k)}: harmonicity residual {residual[k]:.3e} too large")
    mass = float(weights.sum())
    step = max(1, _TWO_FORM_BLOCK // len(edge_rates))
    dirichlet = np.empty(len(rest))
    for block in (slice(start, start + step) for start in range(0, len(rest), step)):
        try:
            dirichlet[block] = mass * _two_form(src, dst, edge_rates, weights / mass,
                                                h[:, block], lh[:, block])
        except NotStationary as exc:
            raise ToleranceViolation(f"{state(block.start + exc.column)}: {exc}") from exc
    caps = weights[rest] / green
    reldev = np.abs(caps - dirichlet) / np.maximum(np.maximum(caps, dirichlet), 1e-300)
    k = int(np.argmax(reldev))
    if reldev[k] > config.DEFAULT.capacity_rel:
        raise ToleranceViolation(
            f"{state(k)}: capacity routes disagree: escape-rate {float(caps[k])!r} "
            f"vs Dirichlet {float(dirichlet[k])!r}")
    return caps


def _valley_relaxation(chain: Chain, pi: ProbVector, idx, reversible: bool, where: str):
    """Relaxation time of ``chain`` reflected at the states ``idx``, or None
    if the reflection disconnects them.

    One dense step on the rate block of ``idx``, with the checks of the
    public route ``spectral_gap(reflected_chain(...), stationary(...))``: if
    ``reversible``, pi restricted to ``idx`` keeps detailed balance within
    ``input_stationary``; the reflected law (``chain._grounded_law``)
    must balance within ``stationary_residual`` times the max rate; its gap comes
    from ``generator_gap``.  A failure raises naming ``where``.
    """
    rates = chain.rates[idx][:, idx].toarray()
    if numerics.strong_connectivity_witness(rates) is not None:
        return None
    if reversible:
        flux = pi.weights[idx, np.newaxis] * rates
        if np.abs(flux - flux.T).max() > config.DEFAULT.input_stationary * flux.max():
            raise ToleranceViolation(
                f"{where}: conditioned measure lost detailed balance under reflection")
    L = rates - np.diag(rates.sum(axis=1))
    w = _grounded_law(rates, [chain.states[i] for i in idx], where)
    try:
        return generator_gap(L, w).relaxation_time
    except SolverFailure as exc:
        raise SolverFailure(f"{where}: {exc}") from exc


def check_conditions(chain: Chain, pi: ProbVector, partition: Partition,
                     model: ReducedModel) -> ConditionReport:
    """Compute the metastability condition ratios for one chain and partition.

    Per valley: the worst ratio of the valley's escape capacity to the
    capacity between a state and the valley's pi-maximal reference state
    (zero for singleton valleys, where the max is empty); the measure ratio
    pi(delta)/pi(valley); and relaxation times of the reflected chains
    relative to theta, each from one dense step on the valley's rate block
    (``_valley_relaxation``); a valley above ``spectral_guard`` states
    raises ``TooLarge`` before anything is solved.  The chain killed at ref
    spends as long at x as its trace on the valley union F does, so
    Cap(x, ref) = pi(x) / G(x, x) is read off the dense trace V_j of
    ``_valley_traces``, as the chain keeps it from ``stationary(chain,
    partition)`` or builds it now, by ``_point_capacities``.  Theta, the
    valley masses and capacities and pi(delta) are read off ``model``, the
    ``coarse_rates`` result for the same chain, pi and partition; a model
    whose valley count or masses differ from the partition's raises
    ``BadPartition``.  Reflections that disconnect a valley leave a None
    entry with a note.
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
    _require_small_valleys(owner, "check_conditions")
    refs = partition.reference_states(chain, pi)
    reversible = is_reversible(chain, pi)
    f = np.flatnonzero(owner > 0)
    traces = _valley_traces(chain, owner, "check_conditions")[1]
    imbalance = float(masses.max() / masses.min())
    cap_ratios, relax, composite, notes = [], [], [], []
    for j, ref in enumerate(refs, start=1):
        e = np.flatnonzero(owner[f] == j)
        if len(e) == 1:
            cap_ratios.append(0.0)
            relax.append(0.0)
            composite.append(0.0)
            continue
        labels = [chain.states[i] for i in f[e]]
        point = _point_capacities(traces[j - 1], pi.weights[f[e]], labels.index(ref), labels,
                                  f"check_conditions: valley {j}, reference state {ref!r}")
        cap_ratios.append(float(caps[j - 1] / point.min()))
        t_rel = _valley_relaxation(chain, pi, f[e], reversible, f"check_conditions: valley {j}")
        if t_rel is None:
            relax.append(None)
            composite.append(None)
            notes.append(f"valley {j}: reflection disconnects; relaxation entry unavailable")
            continue
        relax.append(t_rel / theta)
        composite.append(imbalance * t_rel / theta)

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
