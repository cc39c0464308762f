"""Shared numerical kernels: connectivity, killed blocks and linear solves.

Every killed block K = diag(lambda) - R comes from ``killed`` and every
linear system goes through ``factor``: one LU factorization, by SuperLU
(``splu``) if sparse and by LAPACK if dense (the valley steps and the dense
laws of ``chain._grounded_law``).  A chain keeps its latest killed-block
factorization (``Chain.killed_solver``) for the next caller.

Every sparse matrix the package factors is a nonsingular M-matrix (a killed
generator K = diag(lambda) - R, its transpose, I - gamma L) or symmetric
positive definite (the pinned quotient form of ``dirichlet_II``), and
Gaussian elimination without pivoting is stable for both.  So SuperLU orders
rows and columns alike by minimum degree on K^T + K and takes every pivot on
the diagonal, which about halves the fill of its default column ordering
with partial pivoting.  A matrix that would still need a row pivot raises
``SolverFailure``; ``potential.poisson_solve`` grounds its system on a
killed block so that it meets this contract too.
"""

import warnings

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .errors import SolverFailure


def strong_connectivity_witness(adj):
    """Return None if strongly connected, else a pair (a, b) with b unreachable from a.

    The nonzero entries of ``adj`` are the edges.  It is made sparse first:
    scipy's graph routines take a dense entry within 1e-8 of zero for no edge.
    One count of the strongly connected components answers the question; a
    graph with more than one is searched from vertex 0, in the graph and its
    transpose, for the witness.
    """
    adj_csr = sp.csr_matrix(adj)
    if connected_components(adj_csr, connection="strong")[0] == 1:
        return None
    for graph, reverse in ((adj_csr, False), (adj_csr.T, True)):
        seen = np.zeros(adj_csr.shape[0], dtype=bool)
        seen[breadth_first_order(graph, 0, return_predecessors=False)] = True
        if not seen.all():
            missed = int(np.flatnonzero(~seen)[0])
            return (missed, 0) if reverse else (0, missed)
    return None


def killed(rates, keep):
    """K = diag(lambda) - R on the states ``keep``, lambda the row sums of
    ``rates`` over every column: minus the generator of the chain killed when
    it leaves ``keep``.  Sparse (csr) if ``rates`` is, else dense.
    """
    block = rates[keep]
    if sp.issparse(rates):
        return sp.csr_matrix(sp.diags(np.asarray(block.sum(axis=1)).ravel()) - block[:, keep])
    return np.diag(block.sum(axis=1)) - block[:, keep]


def factor(a):
    """One LU factorization of the square matrix ``a``; returns its solve.

    A sparse ``a`` is factored by ``splu`` under a symmetric minimum-degree
    ordering with every pivot on the diagonal, a dense one by LAPACK with
    partial pivoting.  The solve takes ``b`` with one right-hand side per
    column; all share the factors.  A sparse ``a``'s solve also takes
    ``trans="T"``, to solve with its transpose.  A singular matrix, or a
    sparse one that needs a row pivot, raises ``SolverFailure``.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
        try:
            if not sp.issparse(a):
                lu = scipy.linalg.lu_factor(a)
                return lambda b: scipy.linalg.lu_solve(lu, b)
            lu = spla.splu(sp.csc_matrix(a), permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        except (RuntimeError, ValueError, scipy.linalg.LinAlgWarning) as exc:
            raise SolverFailure(f"linear solve failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverFailure(
            f"the {a.shape[0]}-state sparse system needed a row pivot; only a "
            f"matrix that factors on its diagonal is supported")
    return lambda b, trans="N": lu.solve(np.asarray(b, dtype=float), trans=trans)


def solve_linear(a, b):
    """Solve a square system by one factorization (``factor``)."""
    return factor(a)(b)

