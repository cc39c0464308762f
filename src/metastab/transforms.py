"""Derived chains: trace, reflected, collapsed, enlarged, cycle decomposition,
and the resolvent equation on a trace chain.

All constructions are linear algebra on the generator; simulation never
enters here (it only validates these formulas elsewhere).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import config, numerics
from .chain import (
    Chain,
    Partition,
    ProbVector,
    _chain_from_csr,
    apply_generator,
    is_reversible,
    label_key,
    require_stationary,
    stationarity_residual,
)
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
from .potential import _trace_rates, hitting_probability

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


def _require_balanced(chain, pi, what):
    """A constructed law must be stationary within ``rel`` times the max rate."""
    residual = stationarity_residual(chain, pi)
    if residual > config.DEFAULT.rel * max(chain.max_rate, 1.0):
        raise ToleranceViolation(f"{what} is not stationary (residual {residual:.3e})")


def trace_chain(chain: Chain, pi: ProbVector, F):
    """Chain watched only on F, with its stationary law pi conditioned to F.

    Rates are R_F(a, b) = R(a, b) + sum_y R(a, y) P_y[enter F at b], from
    ``potential._trace_rates`` with the factorization of the block off F
    that the chain keeps (``Chain.killed_solver``).  A trace rate below
    -``rel`` times the max rate is a ``SolverFailure``; negative rounding
    dust above that bound is a zero rate.  The conditioned measure is
    verified stationary for the result.
    """
    idx = _subset_indices(chain, F, "trace set")
    if len(idx) == chain.n:
        return chain, ProbVector(pi.weights.copy())
    if len(idx) < 2:
        raise BadSubset("trace set must contain at least 2 states")
    trace_rates = _trace_rates(chain, idx)
    states = tuple(chain.states[i] for i in idx)
    traced = _chain_from_csr(states, sp.csr_matrix(trace_rates))
    w = pi.weights[idx]
    pi_f = ProbVector(w / w.sum())
    _require_balanced(traced, pi_f, "conditioned measure on the trace chain")
    if (is_reversible(chain, pi)
            and not is_reversible(traced, pi_f, rel=config.DEFAULT.input_stationary)):
        raise ToleranceViolation("trace chain lost reversibility")
    return traced, pi_f


def reflected_chain(chain: Chain, F, pi: ProbVector = None) -> Chain:
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
    if pi is not None and is_reversible(chain, pi):
        w = pi.weights[idx]
        cond = ProbVector(w / w.sum())
        if not is_reversible(reflected, cond, rel=config.DEFAULT.input_stationary):
            raise ToleranceViolation("conditioned measure lost detailed balance under reflection")
    return reflected


def collapse_chain(chain: Chain, pi: ProbVector, A):
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
    into = R[keep][:, idx].sum(axis=1)
    outof = (w[idx] @ R[idx][:, keep]) / pa
    rates = sp.bmat([[R[keep][:, keep], sp.csr_matrix(into)],
                     [sp.csr_matrix(outof), None]], format="csr")
    states = tuple(chain.states[i] for i in keep) + (COLLAPSED_LABEL,)
    collapsed = _chain_from_csr(states, rates)
    pic = ProbVector(np.concatenate([w[keep], [pa]]))
    _require_balanced(collapsed, pic, "collapsed measure")
    return collapsed, pic


def lift_from_collapsed(chain: Chain, A, f_collapsed, collapsed_chain: Chain):
    """Lift a function on the collapsed space to one constant on A."""
    f_collapsed = np.asarray(f_collapsed, dtype=float)
    a_set, cidx = set(A), collapsed_chain.index
    return np.array([f_collapsed[cidx[COLLAPSED_LABEL if s in a_set else s]]
                     for s in chain.states])


def collapsed_quadratic_identity_check(chain: Chain, pi: ProbVector, A,
                                       trials: int, seed: int = 0) -> float:
    """Max deviation of <L^C f, g>_{pi^C} from <L F, G>_pi over random pairs.

    F, G are the lifts of f, g that are constant on A.  The two bilinear
    forms agree identically; the return value is floating-point dust.
    """
    collapsed, pic = collapse_chain(chain, pi, A)
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


def enlarge_chain(chain: Chain, pi: ProbVector, gamma: float) -> EnlargedChain:
    """Attach a star copy of every state at rate 1/gamma.

    The stationary law of the enlarged chain halves pi onto each copy; it is
    verified stationary, and reversible whenever the base chain is.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise NonPositiveGamma(f"gamma must be finite and > 0, got {gamma!r}")
    star_labels = tuple(f"{s}{STAR_SUFFIX}" for s in chain.states)
    if set(star_labels) & set(chain.states):
        raise BadSubset("state labels collide with star copies")
    n = chain.n
    rate = 1.0 / gamma
    eye = sp.identity(n, format="csr") * rate
    combined_rates = sp.bmat([[chain.rates, eye], [eye, None]], format="csr")
    combined = _chain_from_csr(chain.states + star_labels, combined_rates)
    pi_star = ProbVector(np.concatenate([pi.weights, pi.weights]) * 0.5)
    _require_balanced(combined, pi_star, "halved measure on the enlarged chain")
    return EnlargedChain(chain, float(gamma), combined, pi_star)


def resolvent_solve(chain: Chain, pi: ProbVector, gamma: float, k: int,
                    partition: Partition) -> np.ndarray:
    """Solve (I - gamma L) u = indicator(valley k) on a trace chain.

    The partition's valleys must cover the chain's states exactly.  The
    solution lies in [0, 1] and the solutions over k sum to one pointwise.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise NonPositiveGamma(f"gamma must be finite and > 0, got {gamma!r}")
    owner = partition.validate_for(chain)
    if partition.delta:
        raise BadPartition(
            f"the valleys must cover the chain's states; delta holds "
            f"{sorted(partition.delta, key=label_key)[:4]}")
    if not 1 <= k <= partition.n:
        raise BadPartition(f"valley index {k} out of range 1..{partition.n}")
    A = sp.identity(chain.n, format="csr") - gamma * chain.generator_matrix()
    u = numerics.solve_linear(A, (owner == k).astype(float))
    eps = config.DEFAULT.prob_sum
    if u.min() < -eps or u.max() > 1.0 + eps:
        raise SolverFailure(f"resolvent solution escapes [0, 1]: range [{u.min()}, {u.max()}]")
    return np.clip(u, 0.0, 1.0)


def resolvent_vs_enlarged_gap(chain: Chain, pi: ProbVector, gamma: float, k: int,
                              partition: Partition) -> float:
    """Sup-norm gap between the resolvent solution and its stochastic twin.

    The twin is the equilibrium potential, for the gamma-enlargement, between
    the star copy of valley k and the star copies of the other valleys,
    restricted to the base states.
    """
    u = resolvent_solve(chain, pi, gamma, k, partition)
    enlarged = enlarge_chain(chain, pi, gamma)
    A = [enlarged.star(s) for s in partition.valley(k)]
    B = [enlarged.star(s) for s in partition.others(k)]
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
        index = chain.index
        src = [index[s] for labels, _ in self.cycles for s in labels]
        dst = [index[s] for labels, _ in self.cycles for s in labels[1:] + labels[:1]]
        vals = [r for _, rates in self.cycles for r in rates]
        # duplicate (src, dst) entries are summed
        return sp.csr_matrix((vals, (src, dst)), shape=(chain.n, chain.n))

    def max_cycle_length(self) -> int:
        return max((len(labels) for labels, _ in self.cycles), default=0)


def _lex_min_cycle(succ, start, length):
    """Lexicographically smallest directed cycle of the given length through
    ``start`` whose other vertices are all larger than ``start``, or None.

    ``succ[i]`` is the sorted list of i's successors.  The cycle is listed
    from ``start``, so each cycle is found from its smallest vertex only.
    The depth-first search keeps one successor iterator per path vertex on
    an explicit stack, so a cycle may be longer than the recursion limit.
    """
    path, on_path = [start], {start}
    branches = [iter(succ[start])]
    while branches:
        nxt = next(branches[-1], None)
        if nxt is None:
            branches.pop()
            on_path.discard(path.pop())
        elif nxt > start and nxt not in on_path:
            path.append(nxt)
            if len(path) < length:
                on_path.add(nxt)
                branches.append(iter(succ[nxt]))
            elif start in succ[nxt]:
                return path
            else:
                path.pop()
    return None


def _shortest_cycle(succ, start):
    """Length of the shortest directed cycle through ``start`` whose other
    vertices are all larger than ``start``, or ``math.inf``: one breadth-first
    search over the vertices above ``start``."""
    frontier, seen, length = [start], {start}, 1
    while frontier:
        reached = []
        for v in frontier:
            for u in succ[v]:
                if u == start:
                    return length
                if u > start and u not in seen:
                    seen.add(u)
                    reached.append(u)
        frontier, length = reached, length + 1
    return math.inf


def cycle_decompose(chain: Chain, pi: ProbVector) -> CycleDecomposition:
    """Split the generator into cycle generators stationary for pi.

    Two-cycles are eliminated first, then three-cycles, and so on; each step
    extracts the minimal conductance along the lexicographically smallest
    cycle of the current minimal length, which zeroes at least one edge.
    Extraction only removes edges, so a start's shortest cycle among the
    vertices above it only grows: it is found by one breadth-first search
    when a search at the current length fails, and the start is skipped
    until that length.  Each length is one pass over the starts it does not
    skip, and the next length is the smallest such bound, so the lengths end
    when no start has a cycle left.
    Nothing is pruned before the first extraction: a rate far below the max
    rate is still a rate, and its cycle explains it.  Reversible chains
    decompose into 2-cycles only.
    """
    require_stationary(chain, pi)
    w = pi.weights
    n = chain.n
    coo = chain.rates.tocoo()
    cond = {(int(i), int(j)): w[i] * float(r) for i, j, r in zip(coo.row, coo.col, coo.data)}
    succ = [[] for _ in range(n)]
    for i, j in sorted(cond):
        succ[i].append(j)
    rate_cutoff = 32 * np.finfo(float).eps * chain.max_rate
    residual = 0.0
    cycles = []
    shortest = [2] * n  # per start, a lower bound on its shortest cycle
    length = 2
    while length <= n:
        for start in range(n):
            if shortest[start] > length:
                continue
            while (cyc := _lex_min_cycle(succ, start, length)) is not None:
                edges = list(zip(cyc, cyc[1:] + cyc[:1]))
                weight = min(cond[e] for e in edges)
                cycles.append((tuple(chain.states[v] for v in cyc),
                               tuple(weight / w[v] for v in cyc)))
                for i, j in edges:
                    cond[i, j] -= weight
                    if cond[i, j] <= rate_cutoff * w[i]:
                        residual = max(residual, cond.pop((i, j)) / w[i])
                        succ[i].remove(j)
            shortest[start] = _shortest_cycle(succ, start)
        length = max(length + 1, min(shortest))
    for (i, j), c in cond.items():
        residual = max(residual, c / w[i])
    return CycleDecomposition(chain.states, tuple(cycles), residual)
