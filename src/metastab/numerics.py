"""Shared numerical kernels: connectivity and linear solves.

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

