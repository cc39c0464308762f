"""Derived chains: trace, reflected, collapsed, enlarged, cycle decomposition,
and the resolvent equation on a trace chain.

All constructions are linear algebra on the generator; simulation never
enters here (it only validates these formulas elsewhere).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import numerics
from .chain import (
    Chain,
    Partition,
    ProbVector,
    _chain_from_csr,
    apply_generator,
    is_reversible,
    require_stationary,
    stationarity_residual,
)
from .config import DEFAULT, ToleranceConfig
from .errors import (
    BadPartition,
    BadSpec,
    BadSubset,
    NonPositiveGamma,
    NotIrreducible,
    NotIrreducibleAfterReflection,
    SolverFailure,
    ToleranceViolation,
)
from .potential import hitting_probability

COLLAPSED_LABEL = "@collapsed"
STAR_SUFFIX = "*"


def _subset_indices(chain, F, what="subset"):
    F = set(F)
    if not F:
        raise BadSubset(f"{what} must be nonempty")
    try:
        idx = chain.indices_of(F)
    except BadSpec as exc:
        raise BadSubset(str(exc)) from exc
    return idx


def trace_chain(chain: Chain, pi: ProbVector, F,
                tol: ToleranceConfig = DEFAULT):
    """Chain watched only on F, with its stationary law pi conditioned to F.

    Rates are R_F(a, b) = R(a, b) + sum_d R(a, d) P_d[absorbed at b], with the
    absorption probabilities from one linear solve on the complement block.
    The conditioned measure is verified stationary for the result.
    """
    idx = _subset_indices(chain, F, "trace set")
    if len(idx) == chain.n:
        return chain, ProbVector(pi.weights.copy())
    if len(idx) < 2:
        raise BadSubset("trace set must contain at least 2 states")
    rest = np.setdiff1d(np.arange(chain.n), idx)
    R = chain.rates
    # absorption probabilities H[d, b] = P_d[first entry into F happens at b]
    H = numerics.solve_linear(chain.killed(rest), R[rest][:, idx].toarray())
    np.clip(H, 0.0, None, out=H)
    trace_rates = R[idx][:, idx].toarray() + R[idx][:, rest] @ H
    np.fill_diagonal(trace_rates, 0.0)
    states = tuple(chain.states[i] for i in idx)
    traced = _chain_from_csr(states, sp.csr_matrix(trace_rates))
    w = pi.weights[idx]
    pi_f = ProbVector(w / w.sum())
    residual = stationarity_residual(traced, pi_f)
    if residual > 1e-10 * max(traced.max_rate, 1.0):
        raise ToleranceViolation(
            f"conditioned measure is not stationary for the trace chain "
            f"(residual {residual:.3e})"
        )
    if is_reversible(chain, pi, rel=1e-12) and not is_reversible(traced, pi_f, rel=1e-9):
        raise ToleranceViolation("trace chain lost reversibility")
    return traced, pi_f


def reflected_chain(chain: Chain, F, pi: ProbVector = None,
                    tol: ToleranceConfig = DEFAULT) -> Chain:
    """Forbid all jumps between F and its complement; keep the F block.

    If ``pi`` is supplied and the base chain is reversible, the conditioned
    measure is verified to satisfy detailed balance for the result.
    """
    idx = _subset_indices(chain, F, "reflection set")
    if len(idx) == chain.n:
        return chain
    if len(idx) < 2:
        raise BadSubset("reflection set must contain at least 2 states")
    block = chain.rates[idx][:, idx]
    states = tuple(chain.states[i] for i in idx)
    try:
        reflected = _chain_from_csr(states, sp.csr_matrix(block))
    except NotIrreducible as exc:
        raise NotIrreducibleAfterReflection(str(exc)) from exc
    if pi is not None and is_reversible(chain, pi, rel=1e-12):
        w = pi.weights[idx]
        cond = ProbVector(w / w.sum())
        if not is_reversible(reflected, cond, rel=1e-9):
            raise ToleranceViolation(
                "conditioned measure lost detailed balance under reflection"
            )
    return reflected


def collapse_chain(chain: Chain, pi: ProbVector, A,
                   tol: ToleranceConfig = DEFAULT):
    """Collapse the set A to a single state; rates out of it are pi-averaged.

    Returns the collapsed chain (extra state labelled ``@collapsed``) and its
    stationary law, which assigns pi(A) to the collapsed state.
    """
    idx = _subset_indices(chain, A, "collapse set")
    if len(idx) == chain.n:
        raise BadSubset("cannot collapse the whole state space")
    if COLLAPSED_LABEL in chain.states:
        raise BadSubset(f"state label {COLLAPSED_LABEL!r} is reserved")
    keep = np.setdiff1d(np.arange(chain.n), idx)
    R = chain.rates
    w = pi.weights
    pa = float(w[idx].sum())
    top_left = R[keep][:, keep].toarray()
    into = np.asarray(R[keep][:, idx].sum(axis=1)).ravel()
    outof = (w[idx] @ R[idx][:, keep]) / pa
    n_keep = len(keep)
    rates = np.zeros((n_keep + 1, n_keep + 1))
    rates[:n_keep, :n_keep] = top_left
    rates[:n_keep, n_keep] = into
    rates[n_keep, :n_keep] = outof
    states = tuple(chain.states[i] for i in keep) + (COLLAPSED_LABEL,)
    collapsed = _chain_from_csr(states, sp.csr_matrix(rates))
    pic = ProbVector(np.concatenate([w[keep], [pa]]))
    residual = stationarity_residual(collapsed, pic)
    if residual > 1e-10 * max(collapsed.max_rate, 1.0):
        raise ToleranceViolation(
            f"collapsed measure is not stationary (residual {residual:.3e})"
        )
    return collapsed, pic


def lift_from_collapsed(chain: Chain, A, f_collapsed, collapsed_chain: Chain):
    """Lift a function on the collapsed space to one constant on A."""
    f_collapsed = np.asarray(f_collapsed, dtype=float)
    a_set = set(A)
    lifted = np.empty(chain.n)
    cidx = collapsed_chain.index
    d_val = f_collapsed[cidx[COLLAPSED_LABEL]]
    for i, s in enumerate(chain.states):
        lifted[i] = d_val if s in a_set else f_collapsed[cidx[s]]
    return lifted


def collapsed_quadratic_identity_check(chain: Chain, pi: ProbVector, A,
                                       trials: int, seed: int = 0,
                                       tol: ToleranceConfig = DEFAULT) -> float:
    """Max deviation of <L^C f, g>_{pi^C} from <L F, G>_pi over random pairs.

    F, G are the lifts of f, g that are constant on A.  The two bilinear
    forms agree identically; the return value is floating-point dust.
    """
    collapsed, pic = collapse_chain(chain, pi, A, tol)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        f = rng.standard_normal(collapsed.n)
        g = rng.standard_normal(collapsed.n)
        lhs = float(np.sum(pic.weights * apply_generator(collapsed, f) * g))
        F = lift_from_collapsed(chain, A, f, collapsed)
        G = lift_from_collapsed(chain, A, g, collapsed)
        rhs = float(np.sum(pi.weights * apply_generator(chain, F) * G))
        worst = max(worst, abs(lhs - rhs))
    return worst


@dataclass(frozen=True)
class EnlargedChain:
    """A chain together with its gamma-enlargement on doubled states.

    Star copies carry the original label with a ``*`` suffix; jumps between a
    state and its copy run at rate 1/gamma in both directions.
    """

    base: Chain
    gamma: float
    combined: Chain
    pi_star: ProbVector

    def star(self, label) -> str:
        return f"{label}{STAR_SUFFIX}"

    def star_indices(self, labels) -> np.ndarray:
        return self.combined.indices_of([self.star(s) for s in labels])


def enlarge_chain(chain: Chain, pi: ProbVector, gamma: float,
                  tol: ToleranceConfig = DEFAULT) -> EnlargedChain:
    """Attach a star copy of every state at rate 1/gamma.

    The stationary law of the enlarged chain halves pi onto each copy; it is
    verified stationary, and reversible whenever the base chain is.
    """
    if not gamma > 0:
        raise NonPositiveGamma(f"gamma must be > 0, got {gamma!r}")
    star_labels = tuple(f"{s}{STAR_SUFFIX}" for s in chain.states)
    if set(star_labels) & set(chain.states):
        raise BadSubset("state labels collide with star copies")
    n = chain.n
    rate = 1.0 / gamma
    eye = sp.identity(n, format="csr") * rate
    combined_rates = sp.bmat([[chain.rates, eye], [eye, None]], format="csr")
    combined = _chain_from_csr(chain.states + star_labels, combined_rates)
    pi_star = ProbVector(np.concatenate([pi.weights, pi.weights]) * 0.5)
    residual = stationarity_residual(combined, pi_star)
    if residual > 1e-10 * max(combined.max_rate, 1.0):
        raise ToleranceViolation(
            f"enlarged stationary law has residual {residual:.3e}"
        )
    return EnlargedChain(chain, float(gamma), combined, pi_star)


def _valley_indices(chain: Chain, partition: Partition):
    """Dense indices per valley; every chain state must lie in some valley."""
    label_map = partition.label_map()
    out = [[] for _ in range(partition.n)]
    for i, s in enumerate(chain.states):
        k = label_map.get(s, 0)
        if k == 0:
            raise BadPartition(
                f"state {s!r} is not covered by the valleys of the partition"
            )
        out[k - 1].append(i)
    return [np.array(v, dtype=int) for v in out]


def resolvent_solve(chain: Chain, pi: ProbVector, gamma: float, k: int,
                    partition: Partition, tol: ToleranceConfig = DEFAULT) -> np.ndarray:
    """Solve (I - gamma L) u = indicator(valley k) on a trace chain.

    The partition's valleys must cover the chain's states exactly.  The
    solution lies in [0, 1] and the solutions over k sum to one pointwise.
    """
    if not gamma > 0:
        raise NonPositiveGamma(f"gamma must be > 0, got {gamma!r}")
    valleys = _valley_indices(chain, partition)
    if not 1 <= k <= partition.n:
        raise BadPartition(f"valley index {k} out of range 1..{partition.n}")
    n = chain.n
    ind = np.zeros(n)
    ind[valleys[k - 1]] = 1.0
    A = sp.identity(n, format="csr") - gamma * chain.generator_matrix()
    u = numerics.solve_linear(A, ind)
    if u.min() < -1e-12 or u.max() > 1.0 + 1e-12:
        raise SolverFailure(
            f"resolvent solution escapes [0, 1]: range [{u.min()}, {u.max()}]"
        )
    return np.clip(u, 0.0, 1.0)


def resolvent_vs_enlarged_gap(chain: Chain, pi: ProbVector, gamma: float, k: int,
                              partition: Partition,
                              tol: ToleranceConfig = DEFAULT) -> float:
    """Sup-norm gap between the resolvent solution and its stochastic twin.

    The twin is the equilibrium potential, for the gamma-enlargement, between
    the star copy of valley k and the star copies of the other valleys,
    restricted to the base states.
    """
    u = resolvent_solve(chain, pi, gamma, k, partition, tol)
    enlarged = enlarge_chain(chain, pi, gamma, tol)
    target = sorted(partition.valley(k))
    others = sorted(partition.others(k))
    A = [enlarged.star(s) for s in target]
    B = [enlarged.star(s) for s in others]
    h = hitting_probability(enlarged.combined, A, B)
    restricted = np.array([h[enlarged.combined.index[s]] for s in chain.states])
    return float(np.abs(u - restricted).max())


# ---------------------------------------------------------------------------
# cycle decomposition


@dataclass(frozen=True)
class CycleDecomposition:
    """Sum-of-cycle-generators form of a stationary generator.

    Each entry of ``cycles`` is (vertex labels, rate vector): the labels list
    the cycle without repeating the first vertex, and rate[i] is the jump
    rate from vertex i to vertex i+1 (cyclically).  ``residual`` is the
    largest absolute rate left unexplained by the extraction.
    """

    states: tuple
    cycles: tuple
    residual: float

    def reconstructed_rates(self, chain: Chain) -> sp.csr_matrix:
        n = chain.n
        out = sp.lil_matrix((n, n))
        for labels, rates in self.cycles:
            idx = [chain.index[s] for s in labels]
            for pos, r in enumerate(rates):
                i = idx[pos]
                j = idx[(pos + 1) % len(idx)]
                out[i, j] += r
        return sp.csr_matrix(out)

    def max_cycle_length(self) -> int:
        return max((len(labels) for labels, _ in self.cycles), default=0)


def _lex_min_cycle(adj, length, n):
    """Lexicographically smallest directed cycle of the given length.

    ``adj`` maps i -> sorted list of successors.  The cycle is returned in
    canonical form (smallest vertex first); intermediate vertices are larger
    than the start so each cycle is produced exactly once.
    """
    for start in range(n):
        succ0 = adj.get(start)
        if not succ0:
            continue
        path = [start]
        used = {start}

        def dfs():
            if len(path) == length:
                return start in adj.get(path[-1], ())
            for nxt in adj.get(path[-1], ()):
                if nxt <= start or nxt in used:
                    continue
                path.append(nxt)
                used.add(nxt)
                if dfs():
                    return True
                used.discard(nxt)
                path.pop()
            return False

        if dfs():
            return list(path)
    return None


def cycle_decompose(chain: Chain, pi: ProbVector,
                    tol: ToleranceConfig = DEFAULT) -> CycleDecomposition:
    """Split the generator into cycle generators stationary for pi.

    Two-cycles are eliminated first, then three-cycles, and so on; each step
    extracts the minimal conductance along the lexicographically smallest
    cycle of the current minimal length, which zeroes at least one edge.
    Reversible chains decompose into 2-cycles only.
    """
    require_stationary(chain, pi, tol)
    w = pi.weights
    n = chain.n
    coo = chain.rates.tocoo()
    cond = {}
    for i, j, r in zip(coo.row, coo.col, coo.data):
        cond[(int(i), int(j))] = w[i] * float(r)
    rate_cutoff = 32 * np.finfo(float).eps * chain.max_rate
    residual = 0.0

    def prune():
        nonlocal residual
        for edge in [e for e, c in cond.items() if c <= rate_cutoff * w[e[0]]]:
            residual = max(residual, cond[edge] / w[edge[0]])
            del cond[edge]

    prune()
    cycles = []
    for length in range(2, n + 1):
        while True:
            adj = {}
            for (i, j) in cond:
                adj.setdefault(i, []).append(j)
            for v in adj.values():
                v.sort()
            cyc = _lex_min_cycle(adj, length, n)
            if cyc is None:
                break
            weight = min(cond[(cyc[p], cyc[(p + 1) % length])] for p in range(length))
            rates = []
            for p in range(length):
                edge = (cyc[p], cyc[(p + 1) % length])
                cond[edge] -= weight
                rates.append(weight / w[cyc[p]])
            cycles.append((tuple(chain.states[v] for v in cyc), tuple(rates)))
            prune()
    for (i, j), c in cond.items():
        residual = max(residual, c / w[i])
    return CycleDecomposition(chain.states, tuple(cycles), residual)
