"""Potential theory: equilibrium potentials, capacities, flows, variational
principles, and the Poisson solver.

Conventions.  For a chain with stationary state pi, the conductance of the
oriented edge (i, j) is c(i, j) = pi(i) R(i, j) and its symmetrization is
c_s = (c(i, j) + c(j, i)) / 2.  Flows are antisymmetric functions on the
edge set {c_s > 0}; they are stored on canonically oriented edges (lower
dense index first), so antisymmetry is structural.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import numerics
from .chain import (
    Chain,
    ProbVector,
    adjoint,
    apply_generator,
    dirichlet_form,
    is_reversible,
    require_stationary,
    symmetric_part,
)
from .config import DEFAULT, ToleranceConfig
from .errors import (
    BadSets,
    BadSpec,
    NotAdmissible,
    NotReversible,
    NotZeroMean,
    SolverFailure,
    ToleranceViolation,
)


# ---------------------------------------------------------------------------
# edge bookkeeping and flows


@dataclass(frozen=True)
class EdgeSet:
    """Canonically oriented edges {i < j : c_s(i, j) > 0} with conductances."""

    src: np.ndarray          # dense index i of each edge, i < j
    dst: np.ndarray          # dense index j
    c_fwd: np.ndarray        # c(i, j) = pi(i) R(i, j)
    c_bwd: np.ndarray        # c(j, i)
    n_states: int

    @property
    def c_sym(self) -> np.ndarray:
        return 0.5 * (self.c_fwd + self.c_bwd)

    @property
    def m(self) -> int:
        return len(self.src)


def edge_set(chain: Chain, pi: ProbVector) -> EdgeSet:
    cond = sp.csr_matrix(chain.rates.multiply(pi.weights[:, np.newaxis]))
    pattern = sp.csr_matrix((np.ones(cond.nnz), cond.indices, cond.indptr), cond.shape)
    upper = sp.triu(pattern + pattern.T, k=1).tocoo()
    order = np.lexsort((upper.col, upper.row))
    src, dst = upper.row[order].astype(int), upper.col[order].astype(int)
    c_fwd = np.asarray(cond[src, dst]).ravel()
    c_bwd = np.asarray(cond[dst, src]).ravel()
    return EdgeSet(src, dst, c_fwd, c_bwd, chain.n)


@dataclass(frozen=True)
class Flow:
    """Antisymmetric edge function phi; ``values[e]`` is phi(src[e], dst[e])."""

    edges: EdgeSet
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.edges.m,):
            raise BadSpec("flow values must align with the edge set")
        object.__setattr__(self, "values", v)

    def divergence(self) -> np.ndarray:
        div = np.zeros(self.edges.n_states)
        np.add.at(div, self.edges.src, self.values)
        np.add.at(div, self.edges.dst, -self.values)
        return div

    def set_divergence(self, indices) -> float:
        div = self.divergence()
        return float(div[np.asarray(indices, dtype=int)].sum())

    def __add__(self, other):
        return Flow(self.edges, self.values + other.values)

    def __sub__(self, other):
        return Flow(self.edges, self.values - other.values)

    def __mul__(self, scalar):
        return Flow(self.edges, self.values * float(scalar))

    __rmul__ = __mul__


def flow_inner(a: Flow, b: Flow) -> float:
    """<phi, psi> = (1/2) sum over oriented edges of phi psi / c_s."""
    return float(np.sum(a.values * b.values / a.edges.c_sym))


def flow_norm2(a: Flow) -> float:
    return flow_inner(a, a)


def flow_phi(edges: EdgeSet, f) -> Flow:
    f = np.asarray(f, dtype=float)
    v = f[edges.src] * edges.c_fwd - f[edges.dst] * edges.c_bwd
    return Flow(edges, v)


def flow_phi_star(edges: EdgeSet, f) -> Flow:
    f = np.asarray(f, dtype=float)
    v = f[edges.src] * edges.c_bwd - f[edges.dst] * edges.c_fwd
    return Flow(edges, v)


def flow_psi(edges: EdgeSet, f) -> Flow:
    f = np.asarray(f, dtype=float)
    v = edges.c_sym * (f[edges.src] - f[edges.dst])
    return Flow(edges, v)


def zero_flow(edges: EdgeSet) -> Flow:
    return Flow(edges, np.zeros(edges.m))


# ---------------------------------------------------------------------------
# equilibrium potentials and capacities


@dataclass(frozen=True)
class PotentialSolution:
    """Equilibrium potential h between A and B plus capacity bookkeeping.

    ``capacity`` is the escape-rate form sum_{a in A} pi(a) lambda(a)
    P_a[hit B before returning to A]; ``dirichlet_value`` is D(h).  The two
    agree within the configured tolerance by construction.
    """

    h: np.ndarray
    source: frozenset
    sink: frozenset
    capacity: float
    dirichlet_value: float

    def to_dict(self, chain: Chain) -> dict:
        return {
            "capacity": self.capacity,
            "dirichlet_value": self.dirichlet_value,
            "potential": {s: float(self.h[i]) for i, s in enumerate(chain.states)},
        }


def _check_sets(chain: Chain, A, B):
    try:
        ia = chain.indices_of(A)
        ib = chain.indices_of(B)
    except BadSpec as exc:
        raise BadSets(str(exc)) from exc
    if len(ia) == 0 or len(ib) == 0:
        raise BadSets("source and sink sets must be nonempty")
    if set(ia) & set(ib):
        raise BadSets("source and sink sets must be disjoint")
    return ia, ib


def _harmonic_extension(chain: Chain, boundary_idx, boundary_val):
    """Solve (L h)(i) = 0 off the boundary with the given boundary values."""
    n = chain.n
    h = np.zeros(n)
    h[boundary_idx] = boundary_val
    interior = np.setdiff1d(np.arange(n), boundary_idx)
    if len(interior) == 0:
        return h
    rhs = chain.rates[interior][:, boundary_idx] @ boundary_val
    h[interior] = numerics.solve_linear(chain.killed(interior), rhs)
    return h


def hitting_probability(chain: Chain, A, B) -> np.ndarray:
    """h(i) = P_i[hit A before B]; h = 1 on A, 0 on B, harmonic elsewhere."""
    ia, ib = _check_sets(chain, A, B)
    bnd = np.concatenate([ia, ib])
    val = np.concatenate([np.ones(len(ia)), np.zeros(len(ib))])
    return _harmonic_extension(chain, bnd, val)


def equilibrium_potential(chain: Chain, pi: ProbVector, A, B,
                          tol: ToleranceConfig = DEFAULT) -> PotentialSolution:
    """Solve the two-set boundary value problem and compute the capacity twice.

    The capacity is evaluated from its escape-rate definition (using an
    independent absorption solve for P[hit B before A]) and as the Dirichlet
    form of h; the two routes must agree within ``tol.capacity_rel``.
    """
    ia, ib = _check_sets(chain, A, B)
    h = hitting_probability(chain, A, B)
    # independent absorption solve: g(i) = P_i[hit B before A]
    g = hitting_probability(chain, B, A)
    cap_def = float(np.sum(pi.weights[ia] * (chain.rates[ia] @ g)))
    dir_val = dirichlet_form(chain, pi, h, tol)
    scale = max(abs(cap_def), abs(dir_val), 1e-300)
    if abs(cap_def - dir_val) > tol.capacity_rel * scale:
        raise ToleranceViolation(
            f"capacity routes disagree: escape-rate {cap_def!r} vs Dirichlet {dir_val!r}"
        )
    interior = np.setdiff1d(np.arange(chain.n), np.concatenate([ia, ib]))
    if len(interior):
        residual = float(np.abs(apply_generator(chain, h)[interior]).max())
        if residual > 1e-10 * max(chain.max_rate, 1.0):
            raise SolverFailure(f"harmonicity residual {residual:.3e} too large")
    return PotentialSolution(h, frozenset(A), frozenset(B), cap_def, dir_val)


def capacity(chain: Chain, pi: ProbVector, A, B,
             tol: ToleranceConfig = DEFAULT) -> float:
    return equilibrium_potential(chain, pi, A, B, tol).capacity


def capacity_via_adjoint(chain: Chain, pi: ProbVector, A, B,
                         tol: ToleranceConfig = DEFAULT) -> float:
    """Cap*(B, A) on the time-reversed chain; equals Cap(A, B)."""
    return capacity(adjoint(chain, pi, tol), pi, B, A, tol)


def symmetric_capacity(chain: Chain, pi: ProbVector, A, B,
                       tol: ToleranceConfig = DEFAULT) -> float:
    """Capacity of the symmetrized chain; never exceeds Cap(A, B)."""
    cap_s = capacity(symmetric_part(chain, pi, tol), pi, A, B, tol)
    cap = capacity(chain, pi, A, B, tol)
    if cap_s > cap + 1e-10 * max(cap, 1.0):
        raise ToleranceViolation(
            f"symmetric capacity {cap_s!r} exceeds capacity {cap!r}"
        )
    return cap_s


# ---------------------------------------------------------------------------
# variational principles


def _require_levels(chain, f, indices, value, what):
    f = np.asarray(f, dtype=float)
    bad = np.flatnonzero(np.abs(f[indices] - value) > 1e-12)
    if len(bad):
        vertex = chain.states[int(indices[bad[0]])]
        raise NotAdmissible(f"test function must equal {value} on {what}", vertex)


def _require_flow_class(chain, flow, ia, ib, div_a, div_b, scale_hint=None):
    div = flow.divergence()
    scale = max(1.0, float(np.abs(flow.values).max())) if scale_hint is None else scale_hint
    atol = 1e-8 * scale
    interior = np.setdiff1d(np.arange(chain.n), np.concatenate([ia, ib]))
    bad = np.flatnonzero(np.abs(div[interior]) > atol)
    if len(bad):
        vertex = chain.states[int(interior[bad[0]])]
        raise NotAdmissible("flow is not divergence-free off the boundary sets", vertex)
    if abs(float(div[ia].sum()) - div_a) > atol:
        raise NotAdmissible(f"flow divergence on the source set must be {div_a}")
    if abs(float(div[ib].sum()) - div_b) > atol:
        raise NotAdmissible(f"flow divergence on the sink set must be {div_b}")


def dirichlet_upper_bound(chain: Chain, pi: ProbVector, A, B, f, phi: Flow,
                          tol: ToleranceConfig = DEFAULT) -> float:
    """||Phi_f - phi||^2 over admissible (f, phi); an upper bound for Cap(A, B).

    f must be 1 on A and 0 on B; phi must be divergence-free off A u B with
    zero net divergence on each of A and B.
    """
    ia, ib = _check_sets(chain, A, B)
    _require_levels(chain, f, ia, 1.0, "the source set")
    _require_levels(chain, f, ib, 0.0, "the sink set")
    _require_flow_class(chain, phi, ia, ib, 0.0, 0.0)
    return flow_norm2(flow_phi(phi.edges, f) - phi)


def thomson_lower_bound(chain: Chain, pi: ProbVector, A, B, psi: Flow, g,
                        tol: ToleranceConfig = DEFAULT) -> float:
    """1 / ||Phi_g - psi||^2 over admissible (psi, g); a lower bound for Cap.

    psi must be a unit flow from A to B; g must vanish on A u B.
    """
    ia, ib = _check_sets(chain, A, B)
    _require_levels(chain, g, np.concatenate([ia, ib]), 0.0, "the boundary sets")
    _require_flow_class(chain, psi, ia, ib, 1.0, -1.0)
    denom = flow_norm2(flow_phi(psi.edges, g) - psi)
    if denom <= 0:
        raise SolverFailure("degenerate Thomson denominator")
    return 1.0 / denom


def dirichlet_optimal_pair(chain: Chain, pi: ProbVector, A, B,
                           tol: ToleranceConfig = DEFAULT):
    """The optimizers f = (h + h*) / 2 and phi = (Phi_{h*} - Phi*_h) / 2."""
    h = hitting_probability(chain, A, B)
    h_star = hitting_probability(adjoint(chain, pi, tol), A, B)
    edges = edge_set(chain, pi)
    f = 0.5 * (h + h_star)
    phi = 0.5 * (flow_phi(edges, h_star) - flow_phi_star(edges, h))
    return f, phi


def thomson_optimal_pair(chain: Chain, pi: ProbVector, A, B,
                         tol: ToleranceConfig = DEFAULT):
    """The optimizers psi = (Phi_{h*} + Phi*_h) / (2 Cap), g = (h* - h) / (2 Cap)."""
    sol = equilibrium_potential(chain, pi, A, B, tol)
    h_star = hitting_probability(adjoint(chain, pi, tol), A, B)
    edges = edge_set(chain, pi)
    cap = sol.capacity
    psi = (0.5 / cap) * (flow_phi(edges, h_star) + flow_phi_star(edges, sol.h))
    g = 0.5 * (h_star - sol.h) / cap
    return psi, g


def thomson_function_bound(chain: Chain, pi: ProbVector, A, B, f, eps=None,
                           tol: ToleranceConfig = DEFAULT) -> float:
    """Function-form Thomson lower bound for reversible chains.

    When f is harmonic off A u B the strict value
    (sum_{a in A} pi(a) (L f)(a))^2 / D(f) is returned and equals Cap at
    f = h.  Otherwise ``eps`` must be given and the relaxed bound
    [(1 - eps) (sum_A pi L f)^2 - (1/eps) (sum_{off} pi |L f|)^2] / D(f)
    is returned; it never exceeds Cap.
    """
    if not is_reversible(chain, pi, rel=1e-10):
        raise NotReversible("function-form Thomson bound needs a reversible chain")
    ia, ib = _check_sets(chain, A, B)
    f = np.asarray(f, dtype=float)
    lf = apply_generator(chain, f)
    den = dirichlet_form(chain, pi, f, tol)
    if den <= 0:
        raise NotAdmissible("test function must be nonconstant")
    interior = np.setdiff1d(np.arange(chain.n), np.concatenate([ia, ib]))
    off_residual = float(np.abs(lf[interior]).max()) if len(interior) else 0.0
    span = float(np.abs(f).max()) + 1.0
    num_a = float(np.sum(pi.weights[ia] * lf[ia]))
    if off_residual <= 1e-10 * max(chain.max_rate * span, 1.0):
        return num_a ** 2 / den
    if eps is None:
        raise NotAdmissible(
            "test function is not harmonic off the boundary sets; "
            "pass eps for the relaxed bound"
        )
    if not 0 < eps < 1:
        raise NotAdmissible("eps must lie in (0, 1)")
    slack = float(np.sum(pi.weights[interior] * np.abs(lf[interior])))
    return ((1.0 - eps) * num_a ** 2 - slack ** 2 / eps) / den


def dirichlet_II(chain: Chain, pi: ProbVector, A, B, f,
                 tol: ToleranceConfig = DEFAULT) -> float:
    """Function-only Dirichlet principle: evaluate the inner supremum exactly.

    For f equal to 1 on A and 0 on B, computes
    sup_g {2 <f, L g>_pi - <(-L) g, g>_pi} over functions g constant on A
    and constant on B, by solving the stationarity system on the quotient
    space where A and B are each collapsed to a point.  The result is at
    least Cap(A, B), with equality at f = (h + h*) / 2.
    """
    ia, ib = _check_sets(chain, A, B)
    _require_levels(chain, f, ia, 1.0, "the source set")
    _require_levels(chain, f, ib, 0.0, "the sink set")
    f = np.asarray(f, dtype=float)
    n = chain.n
    interior = np.setdiff1d(np.arange(n), np.concatenate([ia, ib]))
    m = len(interior) + 2
    # basis for the class: chi_A, chi_B, and point masses off A u B
    M = sp.lil_matrix((n, m))
    M[ia, 0] = 1.0
    M[ib, 1] = 1.0
    for k, i in enumerate(interior):
        M[i, k + 2] = 1.0
    M = sp.csr_matrix(M)
    L = chain.generator_matrix()
    K = -sp.diags(pi.weights) @ L             # pi (-L)
    Ksym = 0.5 * (K + K.T)
    Q = (M.T @ Ksym @ M).toarray()
    b = np.asarray(M.T @ (L.T @ (pi.weights * f))).ravel()
    # Q is PSD with kernel spanned by the constant class; pin one coordinate
    c = np.zeros(m)
    c[:-1] = np.linalg.solve(Q[:-1, :-1], b[:-1])
    return float(b @ c)


# ---------------------------------------------------------------------------
# Poisson equation and sector condition


def poisson_solve(chain: Chain, pi: ProbVector, g, theta: float,
                  tol: ToleranceConfig = DEFAULT) -> np.ndarray:
    """Solve theta L f = g with E_pi[f] = 0; g must have zero pi-mean."""
    if theta <= 0:
        raise BadSpec("theta must be positive")
    g = np.asarray(g, dtype=float)
    mean = float(np.sum(pi.weights * g))
    if abs(mean) > 1e-10 * max(1.0, float(np.abs(g).max())):
        raise NotZeroMean(f"E_pi[g] = {mean!r} is not zero")
    n = chain.n
    L = chain.generator_matrix()
    # bordered system pins the pi-mean gauge and keeps L sparse
    A = sp.bmat([[L, np.ones((n, 1))], [pi.weights[np.newaxis, :], None]],
                format="csr")
    rhs = np.concatenate([g / theta, [0.0]])
    sol = numerics.solve_linear(A, rhs)
    f = sol[:n]
    f = f - float(np.sum(pi.weights * f))
    residual = float(np.abs(theta * apply_generator(chain, f) - g).max())
    if residual > 1e-10 * max(1.0, float(np.abs(g).max())):
        raise SolverFailure(f"Poisson residual {residual:.3e} too large")
    return f


class SectorRatio(NamedTuple):
    ratio: float
    bound: float          # 2 |E| with |E| the state count
    samples: int


def sector_ratio(chain: Chain, pi: ProbVector, sample_count: int, seed: int = 0,
                 tol: ToleranceConfig = DEFAULT) -> SectorRatio:
    """Randomized lower estimate of the sector constant.

    Samples pairs (f, g) and maximizes <L f, g>_pi^2 / (D(f) D(g)).  This is
    a lower bound on the true sector constant (a generalized eigenproblem,
    not attempted); the chain-size bound 2 n is reported for context.
    """
    require_stationary(chain, pi, tol)
    rng = np.random.default_rng(seed)
    best = 0.0
    w = pi.weights
    for _ in range(sample_count):
        f = rng.standard_normal(chain.n)
        g = rng.standard_normal(chain.n)
        f -= float(np.sum(w * f))
        g -= float(np.sum(w * g))
        df = dirichlet_form(chain, pi, f, tol)
        dg = dirichlet_form(chain, pi, g, tol)
        if df <= 0 or dg <= 0:
            continue
        num = float(np.sum(w * apply_generator(chain, f) * g)) ** 2
        best = max(best, num / (df * dg))
    return SectorRatio(best, 2.0 * chain.n, sample_count)
