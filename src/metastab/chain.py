"""Finite-state continuous-time Markov chains and their basic calculus.

A chain is stored as an ordered tuple of opaque state labels plus a sparse
matrix of off-diagonal jump rates R(i, j) > 0.  The generator acts as

    (L f)(i) = sum_j R(i, j) [f(j) - f(i)],

so the matrix form has diagonal -lambda(i) with lambda(i) = sum_j R(i, j).
All operations here are pure functions over immutable inputs.
"""

import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.linalg
from scipy.sparse.csgraph import breadth_first_order

from . import config, numerics
from .errors import (
    BadPartition,
    BadSpec,
    DuplicateEdge,
    NonPositiveRate,
    NotIrreducible,
    NotStationary,
    SolverFailure,
    TooLarge,
)


def label_key(label):
    """Sort key for state labels: numbers first, then strings, each in order."""
    return (isinstance(label, str), label)


@dataclass(frozen=True)
class Chain:
    """Irreducible CTMC: state labels and positive off-diagonal rates."""

    states: tuple
    rates: sp.csr_matrix = field(repr=False)

    def __post_init__(self):
        self.rates.data.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.states)

    @functools.cached_property
    def index(self) -> dict:
        return {s: i for i, s in enumerate(self.states)}

    @functools.cached_property
    def holding(self) -> np.ndarray:
        holding = np.asarray(self.rates.sum(axis=1)).ravel()
        holding.flags.writeable = False
        return holding

    @property
    def max_rate(self) -> float:
        return float(self.rates.data.max()) if self.rates.nnz else 0.0

    def generator_matrix(self, dense=False):
        """Full generator with diagonal -lambda; rows sum to zero exactly."""
        L = self.rates - sp.diags(self.holding)
        return L.toarray() if dense else sp.csr_matrix(L)

    def killed_solver(self, idx):
        """Solve of K x = b for K = ``numerics.killed(rates, idx)``, from one
        factorization.

        The chain keeps the latest one, keyed by the sorted index array ``idx``.
        """
        return self._kept("_killed_factor", np.asarray(idx, dtype=np.int64).tobytes(),
                          lambda: numerics.factor(numerics.killed(self.rates, idx)))

    def _kept(self, name, key, build):
        """``build()``, kept on the chain under ``name`` until a call with another
        ``key``, in the one dict ``_store``: a pickled copy drops it and rebuilds."""
        store = self.__dict__.setdefault("_store", {})
        cached = store.get(name)
        if cached is None or cached[0] != key:
            cached = store[name] = (key, build())
        return cached[1]

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_store"}

    def rate(self, a, b) -> float:
        return float(self.rates[self.index[a], self.index[b]])

    def edges(self):
        """Iterate (src_label, dst_label, rate) over stored edges."""
        coo = self.rates.tocoo()
        for i, j, r in zip(coo.row, coo.col, coo.data):
            yield self.states[i], self.states[j], float(r)

    def indices_of(self, labels) -> np.ndarray:
        try:
            return np.array(sorted(self.index[s] for s in labels), dtype=int)
        except KeyError as exc:
            raise BadSpec(f"unknown state label {exc.args[0]!r}") from exc


@dataclass(frozen=True)
class ProbVector:
    """Probability vector over the states of a chain (dense, normalized)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if not np.isfinite(w).all():
            raise BadSpec(f"probability vector has non-finite entry {w[~np.isfinite(w)][0]}")
        if (w < 0).any():
            worst = float(w.min())
            raise BadSpec(f"probability vector has negative entry {worst}")
        s = float(w.sum())
        if abs(s - 1.0) > config.DEFAULT.prob_sum:
            raise BadSpec(f"probability vector sums to {s}, not 1")
        w.flags.writeable = False

    def __getitem__(self, i) -> float:
        return float(self.weights[i])

    def mass(self, indices) -> float:
        return float(self.weights[np.asarray(indices, dtype=int)].sum())


@dataclass(frozen=True)
class Partition:
    """Valley decomposition: disjoint valleys plus the separating set Delta.

    Valley indices are 1-based throughout (the coarse alphabet is
    {1, ..., n}, with 0 reserved for Delta in coarse paths).
    """

    valleys: tuple
    delta: frozenset = frozenset()

    def __post_init__(self):
        valleys = tuple(frozenset(v) for v in self.valleys)
        object.__setattr__(self, "valleys", valleys)
        object.__setattr__(self, "delta", frozenset(self.delta))
        seen = set()
        for k, v in enumerate(valleys, start=1):
            if not v:
                raise BadPartition(f"valley {k} is empty")
            if seen & v:
                raise BadPartition(f"valley {k} overlaps an earlier valley")
            seen |= v
        if seen & self.delta:
            raise BadPartition("delta overlaps a valley")

    @property
    def n(self) -> int:
        return len(self.valleys)

    def valley(self, j) -> frozenset:
        if not 1 <= j <= self.n:
            raise BadPartition(f"valley index {j} out of range 1..{self.n}")
        return self.valleys[j - 1]

    def union(self) -> frozenset:
        return frozenset().union(*self.valleys)

    def others(self, j) -> frozenset:
        """Union of every valley except valley j."""
        return frozenset().union(*(v for k, v in enumerate(self.valleys, 1) if k != j))

    def reference_states(self, chain: Chain, pi: ProbVector) -> tuple:
        """The pi-maximal state of each valley, ties to the smallest label.

        States within ``rel`` (relative) of the valley maximum tie, so rounding
        noise in pi cannot pick the state.
        """
        refs = []
        for v in self.valleys:
            idx = chain.indices_of(v)
            weights = pi.weights[idx]
            top = idx[weights >= (1.0 - config.DEFAULT.rel) * weights.max()]
            refs.append(min((chain.states[i] for i in top), key=label_key))
        return tuple(refs)

    def label_map(self) -> dict:
        """Map state label -> valley index (1-based), delta states -> 0."""
        out = {s: 0 for s in self.delta}
        for k, v in enumerate(self.valleys, start=1):
            for s in v:
                out[s] = k
        return out

    def validate_for(self, chain: Chain, require_valleys=1) -> np.ndarray:
        """Check that the partition covers exactly the chain's states.

        Returns the owner array: ``owner[i]`` is the valley (1..n) of dense
        state i, and 0 means Delta.
        """
        states = set(chain.states)
        covered = self.union() | self.delta
        if covered != states:
            missing, extra = states - covered, covered - states
            which, odd = ("misses", missing) if missing else ("references unknown", extra)
            raise BadPartition(f"partition {which} states {sorted(odd, key=label_key)[:4]}")
        if self.n < require_valleys:
            raise BadPartition(f"need at least {require_valleys} valleys, got {self.n}")
        owner = np.zeros(chain.n, dtype=int)
        for k, v in enumerate(self.valleys, start=1):
            owner[chain.indices_of(v)] = k
        return owner


def build_chain(states: Sequence, rate_triples) -> Chain:
    """Validate and build a chain from labels and (src, dst, rate) triples."""
    states = tuple(states)
    if len(states) < 2:
        raise BadSpec("a chain needs at least 2 states")
    if len(set(states)) != len(states):
        dup = next(s for i, s in enumerate(states) if s in states[:i])
        raise BadSpec(f"duplicate state label {dup!r}")
    index = {s: i for i, s in enumerate(states)}
    seen = set()
    rows, cols, vals = [], [], []
    for src, dst, rate in rate_triples:
        if src not in index:
            raise BadSpec(f"unknown state label {src!r}")
        if dst not in index:
            raise BadSpec(f"unknown state label {dst!r}")
        if src == dst:
            raise BadSpec(f"self-loop on {src!r} is not allowed")
        if (src, dst) in seen:
            raise DuplicateEdge(src, dst)
        seen.add((src, dst))
        if not rate > 0:
            raise NonPositiveRate(src, dst, rate)
        rows.append(index[src])
        cols.append(index[dst])
        vals.append(float(rate))
    n = len(states)
    csr = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return _chain_from_csr(states, csr)


def _chain_from_csr(states, csr) -> Chain:
    """Internal constructor for derived and built chains; revalidates the invariants.

    Every rate must be finite and positive; labels are trusted to be distinct.
    """
    csr = sp.csr_matrix(csr)
    csr.setdiag(0.0)
    csr.eliminate_zeros()
    bad = np.flatnonzero(~(np.isfinite(csr.data) & (csr.data > 0)))
    if len(bad):
        coo = csr.tocoo()
        k = bad[0]
        raise NonPositiveRate(states[coo.row[k]], states[coo.col[k]], float(coo.data[k]))
    if len(states) < 2:
        raise BadSpec("a chain needs at least 2 states")
    witness = numerics.strong_connectivity_witness(csr)
    if witness is not None:
        a, b = witness
        raise NotIrreducible((states[a], states[b]))
    return Chain(tuple(states), csr)


def stationary(chain: Chain, partition: Partition | None = None) -> ProbVector:
    """Unique stationary probability; the chain picks the route.

    A given partition, of at least two valleys, is validated first
    (``reduction._layout``).  Then ``_balanced_law`` of the chain's rates: a
    reversible chain's pi as a product of rate ratios along a spanning tree,
    with no factorization and entrywise accurate however deep its wells.

    If the chain is not reversible within ``stationary_residual``, that
    kernel declines.  With a partition, pi then comes off the trace chain on
    the valley union and the valley-flux solve that ``coarse_rates`` reads
    too (``reduction._trace_law``); no system there spans two wells.  Without
    one, ``_grounded_law`` takes pi from one solve with the chain killed at
    its stickiest state, which can lose the small entries of deep wells.
    Every route raises ``SolverFailure`` if its residual |pi^T L| exceeds
    ``stationary_residual`` times the max rate.
    """
    if partition is not None:
        from .reduction import _layout, _trace_law  # reduction builds on this module
        _layout(chain, partition)
    w = _balanced_law(chain.rates, chain.states, "stationary")
    if w is None:
        w = (_grounded_law(chain.rates, chain.states, "stationary") if partition is None
             else _trace_law(chain, partition))
    return ProbVector(w)


def _grounded_law(rates, labels, where: str) -> np.ndarray:
    """Stationary law of the rate matrix ``rates`` (zero diagonal), a csr
    matrix or a dense array, grounded at its stickiest state.

    Let r be the state with the smallest holding rate.  For y != r,
    pi(y) / pi(r) is lambda(r) times the expected time spent at y during one
    excursion from r, so on U = S minus {r} these ratios x solve
    K^T x = R(r, U)^T with K = ``numerics.killed(rates, U)``, the chain
    killed at r, solved with K's factor transposed.  Then pi(r) = 1 and pi
    is normalized.  Grounding there keeps the unknowns moderate in deep wells.

    An irreducible chain has pi > 0, so a ratio that is not finite and
    positive is a ``SolverFailure`` naming ``where`` and the state,
    ``labels[i]`` for row i, as is a residual |pi^T L| above
    ``stationary_residual`` times the max rate.
    """
    holding = np.asarray(rates.sum(axis=1)).ravel()
    r = int(np.argmin(holding))
    rest = np.flatnonzero(np.arange(len(holding)) != r)
    row = rates[r].toarray().ravel() if sp.issparse(rates) else rates[r]
    w = np.ones(len(holding))
    w[rest] = numerics.factor(numerics.killed(rates, rest))(row[rest], trans="T")
    bad = np.flatnonzero(~(np.isfinite(w) & (w > 0)))
    if len(bad):
        raise SolverFailure(
            f"{where}: stationary solve gave pi({labels[bad[0]]!r}) / pi({labels[r]!r}) = "
            f"{float(w[bad[0]])!r}; an irreducible chain has pi > 0")
    w /= w.sum()
    return _require_balance(w, rates, holding, where)


def _balanced_law(rates, labels, where: str):
    """Stationary law of the csr rate matrix ``rates`` by detailed balance
    along a spanning tree, or None if the chain is not reversible.

    A reversible chain has pi(x) R(x, y) = pi(y) R(y, x) on every edge
    (Kolmogorov's criterion; Kelly, *Reversibility and Stochastic Networks*,
    1979), so log pi(v) - log pi(r) sums log R(p, v) - log R(v, p) over the
    tree edges (p, v) from r down to v.  The tree is the breadth-first tree
    from the stickiest state r, where ``_grounded_law`` grounds, and the sums
    are taken by pointer jumping.  The kernel declines unless every stored
    edge has its reverse and keeps detailed balance for that pi within
    ``stationary_residual`` in log space.  A product of ratios has no
    subtraction, so pi is then entrywise within about n times that of the
    exact law (O'Cinneide, *Numer. Math.* 65, 1993), whatever the chain's
    conditioning.

    The checks are ``_grounded_law``'s: an entry that is not finite and
    positive (one below the float range) is a ``SolverFailure`` naming
    ``where`` and the state, ``labels[i]`` for row i, as is a residual
    |pi^T L| above ``stationary_residual`` times the max rate.
    """
    rates = rates if rates.has_sorted_indices else rates.sorted_indices()
    reverse = rates.T.tocsr()
    reverse.sort_indices()
    if not (np.array_equal(rates.indptr, reverse.indptr)
            and np.array_equal(rates.indices, reverse.indices)):
        return None
    n = rates.shape[0]
    holding = np.asarray(rates.sum(axis=1)).ravel()
    root = int(np.argmin(holding))
    _, up = breadth_first_order(rates, root, return_predecessors=True)
    rows = np.repeat(np.arange(n), np.diff(rates.indptr))
    # log R(x, y) - log R(y, x) on each stored edge (x, y)
    ratio = np.log(rates.data) - np.log(reverse.data)
    down = up[rates.indices] == rows
    log_pi = np.zeros(n)
    log_pi[rates.indices[down]] = ratio[down]
    # log_pi[v] sums the tree edges from v up to, not including, up[v]
    up[root] = root
    while (up != root).any():
        log_pi += log_pi[up]
        up = up[up]
    deviation = np.abs(log_pi[rows] - log_pi[rates.indices] + ratio).max()
    if not deviation <= config.DEFAULT.stationary_residual:
        return None
    w = np.exp(log_pi - log_pi.max())
    w /= w.sum()
    bad = np.flatnonzero(~(np.isfinite(w) & (w > 0)))
    if len(bad):
        raise SolverFailure(
            f"{where}: pi({labels[bad[0]]!r}) = {float(w[bad[0]])!r} by detailed balance; "
            f"an irreducible chain has pi > 0")
    return _require_balance(w, rates, holding, where)


def _require_balance(w, rates, holding, where):
    """``w``, if its residual |w^T R - w lambda| is at most ``stationary_residual``
    times the max rate, else a ``SolverFailure`` naming ``where``."""
    residual = float(np.abs(w @ rates - w * holding).max())
    bound = config.DEFAULT.stationary_residual * rates.max()
    if residual > bound:
        raise SolverFailure(
            f"{where}: stationary residual {residual:.3e} exceeds tolerance {bound:.3e}")
    return w


def stationarity_residual(chain: Chain, pi: ProbVector) -> float:
    """max |pi^T L| = max |pi^T R - pi lambda|, as ``_require_balance`` reads it."""
    w = pi.weights
    return float(np.abs(w @ chain.rates - w * chain.holding).max())


def require_stationary(chain: Chain, pi: ProbVector):
    residual = stationarity_residual(chain, pi)
    bound = config.DEFAULT.input_stationary * max(chain.max_rate, 1e-300)
    if residual > bound:
        raise NotStationary(
            f"measure is not stationary: residual {residual:.3e} > {bound:.3e}"
        )


def apply_generator(chain: Chain, f) -> np.ndarray:
    """(L f)(i) = sum_j R(i, j) [f(j) - f(i)], exact sparse evaluation.

    A 2-D ``f`` holds one function per column and gets L applied column-wise.
    """
    f = np.asarray(f, dtype=float)
    holding = chain.holding if f.ndim == 1 else chain.holding[:, np.newaxis]
    return chain.rates @ f - holding * f


def adjoint(chain: Chain, pi: ProbVector) -> Chain:
    """Time-reversed chain: R*(i, j) = pi(j) R(j, i) / pi(i)."""
    require_stationary(chain, pi)
    w = pi.weights
    rev = chain.rates.T.multiply(w[np.newaxis, :]).multiply(1.0 / w[:, np.newaxis])
    return _chain_from_csr(chain.states, sp.csr_matrix(rev))


def symmetric_part(chain: Chain, pi: ProbVector) -> Chain:
    """Chain with rates (R + R*) / 2; satisfies detailed balance w.r.t. pi."""
    adj = adjoint(chain, pi)
    sym = (chain.rates + adj.rates) * 0.5
    return _chain_from_csr(chain.states, sp.csr_matrix(sym))


def is_reversible(chain: Chain, pi: ProbVector, rel=None) -> bool:
    """Detailed balance pi(i) R(i, j) == pi(j) R(j, i) edgewise, within ``rel``
    times the largest flux (``stationary_residual`` if None)."""
    cond = sp.csr_matrix(chain.rates.multiply(pi.weights[:, np.newaxis]))
    diff = (cond - cond.T).tocoo()
    if diff.nnz == 0:
        return True
    scale = float(cond.data.max()) if cond.nnz else 1.0
    rel = config.DEFAULT.stationary_residual if rel is None else rel
    return float(np.abs(diff.data).max()) <= rel * scale


def dirichlet_form(chain: Chain, pi: ProbVector, f):
    """Energy D(f) = (1/2) sum pi(i) R(i, j) (f(j) - f(i))^2.

    The inner-product form <(-L) f, f>_pi is evaluated as well and the two
    must agree within tolerance; the pair-sum value is returned.  A 2-D
    ``f`` holds one function per column and gets an array with one value
    per column, each checked on its own; a failing column is named in the
    error's ``column``.
    """
    f = np.asarray(f, dtype=float)
    coo = chain.rates.tocoo()
    weights, diffs, w = pi.weights[coo.row] * coo.data, f[coo.col] - f[coo.row], pi.weights
    if f.ndim == 2:
        weights, w = weights[:, np.newaxis], w[:, np.newaxis]
    pair_sum = 0.5 * np.sum(weights * diffs ** 2, axis=0)
    inner = -np.sum(w * f * apply_generator(chain, f), axis=0)
    return _two_form(pair_sum, inner, f, chain.max_rate)


def _two_form(pair_sum, inner, f, max_rate):
    """``dirichlet_form``'s check that the pair sum and the inner form of ``f``
    agree, per column, on ``len(f)`` states whose largest rate is ``max_rate``."""
    pair_sum, inner = np.atleast_1d(pair_sum), np.atleast_1d(inner)
    scale = np.maximum(np.maximum(np.abs(pair_sum), np.abs(inner)), 1e-300)
    span = np.atleast_1d(np.abs(f).max(axis=0)) + 1.0
    bound = np.maximum(config.DEFAULT.rel * scale, 64 * np.finfo(float).eps
                       * max_rate * span * span * len(f))
    bad = np.flatnonzero(np.abs(pair_sum - inner) > bound)
    if len(bad):
        k = int(bad[0])
        raise NotStationary(
            f"D(f) = {float(pair_sum[k])!r} but <(-L)f, f>_pi = {float(inner[k])!r}; "
            "the supplied measure is not stationary for the chain",
            None if f.ndim == 1 else k)
    return float(pair_sum[0]) if f.ndim == 1 else pair_sum


class SpectralGap(NamedTuple):
    gap: float
    relaxation_time: float


def spectral_gap(chain: Chain, pi: ProbVector) -> SpectralGap:
    """Smallest positive eigenvalue of -L^s in L2(pi), and its inverse.

    The dense generator, guarded by ``spectral_guard``, must pass
    ``require_stationary``; ``generator_gap`` solves it.
    """
    guard = config.DEFAULT.spectral_guard
    if chain.n > guard:
        raise TooLarge(
            f"spectral gap needs a dense eigensolve; {chain.n} states exceed "
            f"the guard {guard}")
    require_stationary(chain, pi)
    return generator_gap(chain.generator_matrix(dense=True), pi.weights)


def generator_gap(L: np.ndarray, w: np.ndarray) -> SpectralGap:
    """Spectral gap of the dense generator ``L`` in L2(w), ``w`` its stationary law.

    The symmetric part is conjugated with diag(sqrt(w)) into an ordinary
    symmetric matrix and solved densely.  The package's one eigensolver.
    """
    sqrt_w = np.sqrt(w)
    # A = D^{1/2} (-L) D^{-1/2}; its symmetric part has the same form values
    A = -(sqrt_w[:, None] * L) / sqrt_w[None, :]
    S = 0.5 * (A + A.T)
    evals = scipy.linalg.eigvalsh(S)  # ascending
    # the zero eigenvalue (eigenvector sqrt(pi)) is simple for irreducible chains
    gap = float(evals[1])
    if gap <= 0:
        raise SolverFailure(f"nonpositive spectral gap {gap}")
    return SpectralGap(gap, 1.0 / gap)
