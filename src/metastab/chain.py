"""Finite-state continuous-time Markov chains and their basic calculus.

A chain is stored as an ordered tuple of opaque state labels plus a sparse
matrix of off-diagonal jump rates R(i, j) > 0.  The generator acts as

    (L f)(i) = sum_j R(i, j) [f(j) - f(i)],

so the matrix form has diagonal -lambda(i) with lambda(i) = sum_j R(i, j).
All operations here are pure functions over immutable inputs.
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.linalg

from . import numerics
from .config import DEFAULT, ToleranceConfig
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

    @property
    def index(self) -> dict:
        # cached label -> dense index map
        cache = self.__dict__.get("_index")
        if cache is None:
            cache = {s: i for i, s in enumerate(self.states)}
            self.__dict__["_index"] = cache
        return cache

    @property
    def holding(self) -> np.ndarray:
        cache = self.__dict__.get("_holding")
        if cache is None:
            cache = np.asarray(self.rates.sum(axis=1)).ravel()
            cache.flags.writeable = False
            self.__dict__["_holding"] = cache
        return cache

    @property
    def max_rate(self) -> float:
        return float(self.rates.data.max()) if self.rates.nnz else 0.0

    def generator_matrix(self, dense=False):
        """Full generator with diagonal -lambda; rows sum to zero exactly."""
        L = self.rates - sp.diags(self.holding)
        return L.toarray() if dense else sp.csr_matrix(L)

    def killed(self, idx) -> sp.csr_matrix:
        """K = diag(lambda) - R on the states ``idx``.

        K is minus the generator of the chain killed when it leaves ``idx``.
        """
        return sp.csr_matrix(sp.diags(self.holding[idx]) - self.rates[idx][:, idx])

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
        if (w < 0).any():
            worst = float(w.min())
            raise BadSpec(f"probability vector has negative entry {worst}")
        s = float(w.sum())
        if abs(s - 1.0) > DEFAULT.prob_sum:
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
        out = frozenset()
        for v in self.valleys:
            out |= v
        return out

    def others(self, j) -> frozenset:
        """Union of every valley except valley j."""
        return frozenset().union(*(v for k, v in enumerate(self.valleys, 1) if k != j))

    def reference_states(self, chain: Chain, pi: ProbVector) -> tuple:
        """The pi-maximal state of each valley, ties to the smallest label.

        States within ``DEFAULT.rel`` (relative) of the valley maximum tie, so
        rounding noise in pi cannot pick the state.
        """
        refs = []
        for v in self.valleys:
            idx = chain.indices_of(v)
            weights = pi.weights[idx]
            top = idx[weights >= (1.0 - DEFAULT.rel) * weights.max()]
            refs.append(min(chain.states[i] for i in top))
        return tuple(refs)

    def label_map(self) -> dict:
        """Map state label -> valley index (1-based), delta states -> 0."""
        out = {s: 0 for s in self.delta}
        for k, v in enumerate(self.valleys, start=1):
            for s in v:
                out[s] = k
        return out

    def validate_for(self, chain: Chain, require_valleys=1):
        states = set(chain.states)
        covered = self.union() | self.delta
        if covered != states:
            missing = states - covered
            extra = covered - states
            if missing:
                raise BadPartition(f"partition misses states {sorted(missing)[:4]}")
            raise BadPartition(f"partition references unknown states {sorted(extra)[:4]}")
        if self.n < require_valleys:
            raise BadPartition(f"need at least {require_valleys} valleys, got {self.n}")


def build_chain(states: Sequence, rate_triples, tol: ToleranceConfig = DEFAULT) -> Chain:
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


def _chain_from_csr(states, csr, prune_tol=0.0) -> Chain:
    """Internal constructor for derived chains; revalidates the invariants."""
    csr = sp.csr_matrix(csr)
    csr.setdiag(0.0)
    csr.eliminate_zeros()
    if prune_tol > 0.0 and csr.nnz:
        keep = csr.data > prune_tol
        if not keep.all():
            coo = csr.tocoo()
            csr = sp.csr_matrix(
                (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=csr.shape
            )
    if csr.nnz and csr.data.min() <= 0:
        coo = csr.tocoo()
        k = int(np.argmin(coo.data))
        raise NonPositiveRate(states[coo.row[k]], states[coo.col[k]], float(coo.data[k]))
    if len(states) < 2:
        raise BadSpec("a chain needs at least 2 states")
    witness = numerics.strong_connectivity_witness(csr)
    if witness is not None:
        a, b = witness
        raise NotIrreducible((states[a], states[b]))
    return Chain(tuple(states), csr)


def stationary(chain: Chain, tol: ToleranceConfig = DEFAULT) -> ProbVector:
    """Unique stationary probability, from the chain killed at its stickiest state.

    Let r be the state with the smallest holding rate.  For y != r,
    pi(y) / pi(r) is lambda(r) times the expected time spent at y during one
    excursion from r, so on U = S minus {r} these ratios x solve
    K^T x = R(r, U)^T with K = diag(lambda_U) - R_UU, the generator of the
    chain killed at r.  Then pi(r) = 1 and pi is normalized.  Grounding at
    the stickiest state keeps the unknowns of moderate size in deep wells.
    An irreducible chain has pi > 0, so an entry <= 0 is a solver failure,
    as is a residual |pi^T L| above ``tol.stationary_residual`` times the
    max rate.
    """
    r = int(np.argmin(chain.holding))
    rest = np.flatnonzero(np.arange(chain.n) != r)
    w = np.ones(chain.n)
    w[rest] = numerics.solve_linear(chain.killed(rest).T,
                                    chain.rates[r].toarray().ravel()[rest])
    bad = np.flatnonzero(~(np.isfinite(w) & (w > 0)))
    if len(bad):
        s = chain.states[bad[0]]
        raise SolverFailure(
            f"stationary solve gave pi({s!r}) / pi({chain.states[r]!r}) = "
            f"{w[bad[0]]!r}; an irreducible chain has pi > 0")
    pi = ProbVector(w / w.sum())
    residual = stationarity_residual(chain, pi)
    if residual > tol.stationary_residual * chain.max_rate:
        raise SolverFailure(
            f"stationary residual {residual:.3e} exceeds tolerance "
            f"{tol.stationary_residual * chain.max_rate:.3e}"
        )
    return pi


def stationarity_residual(chain: Chain, pi: ProbVector) -> float:
    return float(np.abs(pi.weights @ chain.generator_matrix()).max())


def require_stationary(chain: Chain, pi: ProbVector, tol: ToleranceConfig = DEFAULT):
    residual = stationarity_residual(chain, pi)
    bound = tol.input_stationary * max(chain.max_rate, 1e-300)
    if residual > bound:
        raise NotStationary(
            f"measure is not stationary: residual {residual:.3e} > {bound:.3e}"
        )


def apply_generator(chain: Chain, f) -> np.ndarray:
    """(L f)(i) = sum_j R(i, j) [f(j) - f(i)], exact sparse evaluation."""
    f = np.asarray(f, dtype=float)
    return chain.rates @ f - chain.holding * f


def adjoint(chain: Chain, pi: ProbVector, tol: ToleranceConfig = DEFAULT) -> Chain:
    """Time-reversed chain: R*(i, j) = pi(j) R(j, i) / pi(i)."""
    require_stationary(chain, pi, tol)
    w = pi.weights
    rev = chain.rates.T.multiply(w[np.newaxis, :]).multiply(1.0 / w[:, np.newaxis])
    return _chain_from_csr(chain.states, sp.csr_matrix(rev))


def symmetric_part(chain: Chain, pi: ProbVector, tol: ToleranceConfig = DEFAULT) -> Chain:
    """Chain with rates (R + R*) / 2; satisfies detailed balance w.r.t. pi."""
    adj = adjoint(chain, pi, tol)
    sym = (chain.rates + adj.rates) * 0.5
    return _chain_from_csr(chain.states, sp.csr_matrix(sym))


def is_reversible(chain: Chain, pi: ProbVector, rel=1e-12) -> bool:
    """Detailed-balance predicate: pi(i) R(i, j) == pi(j) R(j, i) edgewise."""
    cond = sp.csr_matrix(chain.rates.multiply(pi.weights[:, np.newaxis]))
    diff = (cond - cond.T).tocoo()
    if diff.nnz == 0:
        return True
    scale = float(cond.data.max()) if cond.nnz else 1.0
    return float(np.abs(diff.data).max()) <= rel * scale


def dirichlet_form(chain: Chain, pi: ProbVector, f, tol: ToleranceConfig = DEFAULT) -> float:
    """Energy D(f) = (1/2) sum pi(i) R(i, j) (f(j) - f(i))^2.

    The inner-product form <(-L) f, f>_pi is evaluated as well and the two
    must agree within tolerance; the pair-sum value is returned.
    """
    f = np.asarray(f, dtype=float)
    coo = chain.rates.tocoo()
    diffs = f[coo.col] - f[coo.row]
    pair_sum = 0.5 * float(np.sum(pi.weights[coo.row] * coo.data * diffs ** 2))
    inner = -float(np.sum(pi.weights * f * apply_generator(chain, f)))
    scale = max(abs(pair_sum), abs(inner), 1e-300)
    span = float(np.abs(f).max()) + 1.0
    if abs(pair_sum - inner) > max(1e-10 * scale, 64 * np.finfo(float).eps
                                   * chain.max_rate * span * span * chain.n):
        raise NotStationary(
            f"D(f) = {pair_sum!r} but <(-L)f, f>_pi = {inner!r}; "
            "the supplied measure is not stationary for the chain"
        )
    return pair_sum


class SpectralGap(NamedTuple):
    gap: float
    relaxation_time: float


def spectral_gap(chain: Chain, pi: ProbVector, tol: ToleranceConfig = DEFAULT) -> SpectralGap:
    """Smallest positive eigenvalue of -L^s in L2(pi), and its inverse.

    The symmetric part is conjugated with diag(sqrt(pi)) into an ordinary
    symmetric matrix and solved densely, guarded by ``tol.spectral_guard``.
    """
    if chain.n > tol.spectral_guard:
        raise TooLarge(
            f"spectral gap needs a dense eigensolve; {chain.n} states exceed "
            f"the guard {tol.spectral_guard}"
        )
    require_stationary(chain, pi, tol)
    w = pi.weights
    sqrt_w = np.sqrt(w)
    L = chain.generator_matrix(dense=True)
    # A = D^{1/2} (-L) D^{-1/2}; its symmetric part has the same form values
    A = -(sqrt_w[:, None] * L) / sqrt_w[None, :]
    S = 0.5 * (A + A.T)
    evals = scipy.linalg.eigvalsh(S)
    evals.sort()
    # the zero eigenvalue (eigenvector sqrt(pi)) is simple for irreducible chains
    gap = float(evals[1])
    if gap <= 0:
        raise SolverFailure(f"nonpositive spectral gap {gap}")
    return SpectralGap(gap, 1.0 / gap)
