"""Shared numerical kernels: connectivity, linear solves, uniformization.

Every linear system in the package goes through ``factor``: one LU
factorization, by SuperLU (``splu``) if sparse and by LAPACK if dense (the
trace chains on the valleys).  A chain keeps its latest killed-block
factorization (``Chain.killed_solver``) for the next caller.
"""

import warnings

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order

from .errors import SolverFailure

# largest Poisson mean handled in a single uniformization pass; larger times
# are split so the k=0 weight exp(-mu) never underflows
_MU_CHUNK = 128.0


def strong_connectivity_witness(adj_csr):
    """Return None if strongly connected, else a pair (a, b) with b unreachable from a.

    Checks reachability from vertex 0 in the graph and its transpose, which is
    equivalent to strong connectivity.
    """
    for graph, reverse in ((adj_csr, False), (adj_csr.T, True)):
        seen = np.zeros(adj_csr.shape[0], dtype=bool)
        seen[breadth_first_order(graph, 0, return_predecessors=False)] = True
        if not seen.all():
            missed = int(np.flatnonzero(~seen)[0])
            return (missed, 0) if reverse else (0, missed)
    return None


def factor(a):
    """One LU factorization of the square matrix ``a``; returns its solve.

    A sparse ``a`` is factored by ``splu``, a dense one by LAPACK.  The solve
    takes ``b`` with one right-hand side per column; all share the factors.
    A singular matrix raises ``SolverFailure``.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
        try:
            if sp.issparse(a):
                lu = spla.splu(sp.csc_matrix(a))
                return lambda b: lu.solve(np.asarray(b, dtype=float))
            lu = scipy.linalg.lu_factor(a)
        except (RuntimeError, ValueError, scipy.linalg.LinAlgWarning) as exc:
            raise SolverFailure(f"linear solve failed: {exc}") from exc
    return lambda b: scipy.linalg.lu_solve(lu, b)


def solve_linear(a, b):
    """Solve a square system by one factorization (``factor``)."""
    return factor(a)(b)


def _apply_uniformized(vec, rates_csr, holding, lam, t, tol):
    mu = lam * t
    v = vec
    term = np.exp(-mu)
    out = term * v
    mass = term
    k = 0
    while mass < 1.0 - tol:
        k += 1
        term *= mu / k
        v = v + (v @ rates_csr - v * holding) / lam
        out = out + term * v
        mass += term
        if k > 100 * (mu + 10):
            raise SolverFailure("uniformization did not converge")
    return out


def semigroup_distribution(rates_csr, holding, start_vec, t, tol=1e-12):
    """Distribution at time t from ``start_vec`` using vector iterations only.

    ``rates_csr`` holds the off-diagonal rates, ``holding`` the rates
    lambda(i).  Suitable as an exact oracle for chains of a few thousand
    states; memory stays O(n + nnz).
    """
    holding = np.asarray(holding, dtype=float)
    v = np.asarray(start_vec, dtype=float)
    lam = float(holding.max()) if holding.size else 0.0
    if t == 0 or lam == 0:
        return v.copy()
    chunks = max(1, int(np.ceil(lam * t / _MU_CHUNK)))
    dt = t / chunks
    for _ in range(chunks):
        v = _apply_uniformized(v, rates_csr, holding, lam, dt, tol)
    return v


def semigroup_row(rates_csr, holding, start, t, tol=1e-12):
    """Row ``start`` of exp(t L), i.e. the law at time t started from a state."""
    v = np.zeros(rates_csr.shape[0])
    v[start] = 1.0
    return semigroup_distribution(rates_csr, holding, v, t, tol)
