"""Chain construction, stationary laws, generator calculus, spectral gaps,
and the one factorization every linear solve goes through."""

import ast
import pickle
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import metastab as ms
from metastab import config, numerics
from metastab.chain import _chain_from_csr, _grounded_law
from metastab.cli import main
from metastab.errors import (
    BadPartition,
    BadSpec,
    DuplicateEdge,
    NonPositiveRate,
    NotIrreducible,
    NotStationary,
    SolverFailure,
    TooLarge,
)

from conftest import random_chain, random_reversible_chain, scale_first, tamper_solves


class TestBuildChain:
    def test_minimal_two_state(self, b2):
        assert b2.n == 2
        assert b2.rate("1", "2") == 2.0
        assert b2.rate("2", "1") == 3.0

    def test_directed_cycle(self, c3):
        assert c3.n == 3
        assert c3.holding.tolist() == [1.0, 1.0, 1.0]

    def test_not_irreducible_reports_witness(self):
        with pytest.raises(NotIrreducible) as err:
            ms.build_chain(["1", "2", "3"], [("1", "2", 1.0)])
        a, b = err.value.witness
        # with only the edge 1->2 present, these are the unreachable pairs
        assert (a, b) in {("1", "3"), ("2", "1"), ("2", "3"),
                          ("3", "1"), ("3", "2")}

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            ms.build_chain(["a", "b"], [("a", "b", 1.0), ("a", "b", 2.0),
                                        ("b", "a", 1.0)])

    def test_nonpositive_rate(self):
        with pytest.raises(NonPositiveRate):
            ms.build_chain(["a", "b"], [("a", "b", 0.0), ("b", "a", 1.0)])

    @pytest.mark.parametrize("rate", [np.inf, np.nan, -1.0])
    def test_derived_rate_not_finite_and_positive(self, rate):
        rates = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, rate], [0.0, 1.0, 0.0]]))
        with pytest.raises(NonPositiveRate) as err:
            _chain_from_csr(("a", "b", "c"), rates)
        assert err.value.edge == ("b", "c")

    def test_infinite_input_rate(self):
        with pytest.raises(NonPositiveRate, match="finite"):
            ms.build_chain(["a", "b"], [("a", "b", np.inf), ("b", "a", 1.0)])

    def test_self_loop_rejected(self):
        with pytest.raises(BadSpec):
            ms.build_chain(["a", "b"], [("a", "a", 1.0), ("a", "b", 1.0),
                                        ("b", "a", 1.0)])

    def test_unknown_label(self):
        with pytest.raises(BadSpec):
            ms.build_chain(["a", "b"], [("a", "z", 1.0), ("b", "a", 1.0)])

    def test_single_state_rejected(self):
        with pytest.raises(BadSpec):
            ms.build_chain(["a"], [])


class TestStationary:
    def test_two_state_detailed_balance(self, b2):
        pi = ms.stationary(b2)
        assert np.allclose(pi.weights, [0.6, 0.4], atol=1e-14)

    def test_cycle_uniform(self, c3):
        pi = ms.stationary(c3)
        assert np.allclose(pi.weights, [1 / 3] * 3, atol=1e-14)

    def test_glued_squares_degree_proportional(self):
        spec = ms.glued_cubes(2, 4, 1)
        pi = ms.stationary(spec.chain)
        assert np.abs(pi.weights - spec.pi_formula.weights).max() <= 1e-12

    def test_random_chains_residual(self):
        rng = np.random.default_rng(42)
        for k in range(100):
            n = int(rng.integers(3, 51))
            chain = random_chain(rng, n)
            pi = ms.stationary(chain)
            L = chain.generator_matrix()
            assert np.abs(pi.weights @ L).max() <= 1e-12 * chain.max_rate

    @pytest.mark.parametrize("model, bound", [
        ("glued_cubes:d=2,N=8,ell=2", 1e-9),
        ("glued_cubes:d=3,N=12,ell=3", 1e-11),
        ("zero_range:L=3,N=30,alpha=3,p=0.5", 1e-9),
        ("zero_range:L=4,N=30,alpha=3,p=0.7", 1e-9),
        ("zero_range:L=3,N=120,alpha=3,p=0.5", 1e-9),
        ("potential_rw:N=2,points=41", 1e-9),
        ("potential_rw:N=8,points=41", 1e-9),
        ("potential_rw:N=8,points=81", 1e-9),
    ])
    def test_matches_closed_form_entrywise(self, model, bound):
        spec = ms.build_from_string(model)
        pi = ms.stationary(spec.chain).weights
        exact = spec.pi_formula.weights
        assert np.max(np.abs(pi - exact) / exact) <= bound

    def test_nonpositive_entry_is_a_solver_failure(self, monkeypatch):
        chain = _steep_chain()
        assert ms.stationary(chain).weights.min() < 1e-14

        def negate_smallest(b, x):
            if b.ndim == 1:
                x[np.argmin(x)] *= -1.0
            return x

        tamper_solves(monkeypatch, negate_smallest)
        with pytest.raises(SolverFailure, match=r"^stationary: stationary solve gave") as err:
            ms.stationary(chain)
        assert "np.float64" not in str(err.value)

    def test_unbalanced_solve_is_a_residual_failure(self, monkeypatch):
        chain = _steep_chain()
        tamper_solves(monkeypatch, lambda b, x: scale_first(x, 1.0 + 1e-6) if b.ndim == 1 else x)
        with pytest.raises(SolverFailure, match=r"^stationary: stationary residual"):
            ms.stationary(chain)

    @pytest.mark.parametrize("model", ["zero_range:L=3,N=10,alpha=3,p=0.7",
                                       "glued_cubes:d=2,N=4,ell=1"])
    def test_one_law_for_sparse_and_dense_rates(self, model):
        chain = ms.build_from_string(model).chain
        sparse = _grounded_law(chain.rates, chain.states, "sparse")
        dense = _grounded_law(chain.rates.toarray(), chain.states, "dense")
        assert (np.abs(sparse - dense) <= 1e-13 * sparse).all()
        keep = np.arange(1, chain.n, 2)
        assert np.array_equal(numerics.killed(chain.rates, keep).diagonal(), chain.holding[keep])


def _steep_chain():
    """Birth-death chain on 0..9 with pi(i) proportional to 100^-i."""
    labels = [str(i) for i in range(10)]
    return ms.build_chain(labels, [t for i in range(9) for t in (
        (labels[i], labels[i + 1], 1.0), (labels[i + 1], labels[i], 100.0))])


class TestStationaryOnValleys:
    """stationary(chain, partition): pi off the trace chain on the valleys."""

    @pytest.mark.parametrize("model, bound", [
        ("potential_rw:N=16,points=41", 1e-12),
        ("potential_rw:N=32,points=41", 1e-12),
        ("potential_rw:N=64,points=41", 1e-12),
        ("potential_rw:N=16,points=81", 1e-9),
        ("potential_rw:N=32,points=81", 1e-12),
        ("potential_rw:N=64,points=81", 1e-12),
        ("zero_range:L=4,N=28,alpha=3,p=0.7", 1e-13),
        ("glued_cubes:d=3,N=12,ell=3", 1e-13),
        ("zero_range:L=3,N=120,alpha=3,p=0.5", 1e-13),
    ])
    def test_deep_well_ladder(self, model, bound):
        spec = ms.build_from_string(model)
        pi = ms.stationary(spec.chain, spec.partition).weights
        exact = spec.pi_formula.weights
        assert np.max(np.abs(pi - exact) / exact) <= bound

    def test_small_chains(self, b2, bd3, bd3_partition):
        # no states off the valleys, then one
        pi = ms.stationary(b2, ms.Partition(({"1"}, {"2"})))
        assert pi.weights == pytest.approx([0.6, 0.4], rel=1e-15)
        pi = ms.stationary(bd3, bd3_partition)
        assert pi.weights == pytest.approx(ms.stationary(bd3).weights, rel=1e-15)

    def test_needs_two_valleys(self, bd3):
        with pytest.raises(BadPartition):
            ms.stationary(bd3, ms.Partition(({"1"},), {"2", "3"}))

    def test_unbalanced_delta_solve_is_a_residual_failure(self, monkeypatch):
        # pi on Delta, one column of length |Delta|, is off by 1e-6 in one entry
        spec = ms.build_from_string("zero_range:L=3,N=30,alpha=3,p=0.5")
        size = len(spec.partition.delta)
        tamper_solves(monkeypatch, lambda b, x: scale_first(x, 1.0 + 1e-6)
                      if b.ndim == 1 and len(b) == size else x)
        with pytest.raises(SolverFailure, match=r"^stationary: stationary residual"):
            ms.stationary(spec.chain, spec.partition)

    def test_underflow_names_the_state(self):
        spec = ms.build_from_string("potential_rw:N=120,points=41")
        with pytest.raises(SolverFailure, match=r"^stationary: pi\('.*'\) = 0\.0 "):
            ms.stationary(spec.chain, spec.partition)

    @pytest.mark.parametrize("N", [16, 64])
    def test_transposed_solve_needs_the_unpivoted_factor(self, N):
        # pi_D^T = pi_F^T R_FD K_D^-1 from the exact pi on F: the kept factor,
        # with every pivot on the diagonal, keeps the deep wells' small entries;
        # SuperLU's default partial pivoting loses them
        spec = ms.build_from_string(f"potential_rw:N={N},points=41")
        chain, exact = spec.chain, spec.pi_formula.weights
        f = chain.indices_of(spec.partition.union())
        delta = chain.indices_of(spec.partition.delta)
        b = chain.rates[f][:, delta].T @ exact[f]
        kept = chain.killed_solver(delta)(b, trans="T")
        assert np.max(np.abs(kept - exact[delta]) / exact[delta]) <= 1e-14
        pivoted = spla.splu(sp.csc_matrix(numerics.killed(chain.rates, delta))).solve(
            b, trans="T")
        assert np.max(np.abs(pivoted - exact[delta]) / exact[delta]) >= 1.0

    def test_pickle_drops_the_kept_trace_chain(self):
        spec = ms.build_from_string("glued_cubes:d=2,N=4,ell=1")
        chain = spec.chain
        pi = ms.stationary(chain, spec.partition)
        assert {"_killed_factor", "_valley_traces"} <= chain.__dict__["_store"].keys()
        copy = pickle.loads(pickle.dumps(chain))
        assert "_store" not in copy.__dict__
        assert ms.stationary(copy, spec.partition).weights.tolist() == pi.weights.tolist()


class TestFactor:
    def test_sparse_row_pivot_is_a_solver_failure(self):
        with pytest.raises(SolverFailure, match="row pivot"):
            numerics.factor(sp.csr_matrix([[0.0, 1.0], [1.0, 0.0]]))

    def test_dense_takes_the_lapack_route(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a dense matrix went to splu")

        monkeypatch.setattr(numerics.spla, "splu", forbidden)
        solve = numerics.factor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(solve(np.array([1.0, 2.0])), [2.0, 1.0])

    def test_no_solver_outside_numerics(self):
        """Every linear system goes through ``numerics.factor``."""
        solvers = {"splu", "spsolve", "lu_factor", "lu_solve", "inv"}
        assert not [f"{where}: {called}" for where, called in _package_calls("numerics.py")
                    if called.rsplit(".", 1)[-1] in solvers or called.endswith("linalg.solve")]


    def test_one_killed_block_builder(self):
        """Every K = diag(lambda) - R comes from ``numerics.killed``."""
        assert not [f"{path.name}:{node.lineno}" for path, node in _package_nodes("numerics.py")
                    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                    and isinstance(node.left, ast.Call)
                    and ast.unparse(node.left.func).rsplit(".", 1)[-1] in ("diag", "diags")]

    def test_no_caller_transposes_a_block(self):
        """``numerics.factor`` alone sets the pivots: a caller passes K, not K^T."""
        assert not [f"{path.name}:{node.lineno}" for path, node in _package_nodes("numerics.py")
                    if isinstance(node, ast.Call) and node.args
                    and ast.unparse(node.func).rsplit(".", 1)[-1] in ("factor", "solve_linear")
                    and any(isinstance(sub, ast.Attribute) and sub.attr == "T"
                            for sub in ast.walk(node.args[0]))]

    def test_dense_factors_keep_to_the_diagonal(self, monkeypatch, tmp_path):
        # LAPACK factors each dense killed block transposed, so partial
        # pivoting swaps no row anywhere in analyze
        lu_factor, pivots = scipy.linalg.lu_factor, []

        def recorded(a, *args, **kwargs):
            lu, piv = lu_factor(a, *args, **kwargs)
            pivots.append(piv)
            return lu, piv

        monkeypatch.setattr(scipy.linalg, "lu_factor", recorded)
        assert main(["analyze", "--model", "zero_range:L=4,N=28,alpha=3,p=0.7",
                     "--out", str(tmp_path / "report.json")]) == 0
        assert pivots
        assert not [p for p in pivots if not np.array_equal(p, np.arange(len(p)))]

    def test_valley_steps_take_dense_arrays(self):
        """``reduction`` builds no sparse matrix and no derived chain."""
        path = Path(ms.__file__).resolve().parent / "reduction.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert not [m for m in imported if m and m.startswith("scipy.sparse")]
        assert not [f"reduction.py:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and ast.unparse(node.func).rsplit(".", 1)[-1] in ("_chain_from_csr", "Chain")]


def _package_nodes(skip):
    """(path, node) of every syntax node in the package's modules but ``skip``."""
    for path in sorted(Path(ms.__file__).resolve().parent.glob("*.py")):
        if path.name != skip:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                yield path, node


def _package_calls(skip):
    """(file:line, called expression) of every call in the package's modules but ``skip``."""
    for path, node in _package_nodes(skip):
        if isinstance(node, ast.Call):
            yield f"{path.name}:{node.lineno}", ast.unparse(node.func)


class TestGenerator:
    def test_constants_in_kernel(self, c3, b2):
        for chain in (c3, b2):
            out = ms.apply_generator(chain, np.full(chain.n, 3.7))
            assert np.abs(out).max() <= 1e-14

    def test_two_state(self, b2):
        assert ms.apply_generator(b2, np.array([0.0, 1.0])).tolist() == [2.0, -3.0]

    def test_cycle(self, c3):
        out = ms.apply_generator(c3, np.array([1.0, 0.0, 0.0]))
        assert out.tolist() == [-1.0, 0.0, 1.0]

    def test_row_sums_zero(self, b2, c3, bd4):
        for chain in (b2, c3, bd4):
            off_diag = np.asarray(chain.rates.sum(axis=1)).ravel()
            assert (off_diag - chain.holding == 0.0).all()
            full = chain.generator_matrix(dense=True).sum(axis=1)
            assert np.abs(full).max() <= 1e-15 * max(chain.max_rate, 1.0)

    def test_columns_match_single_calls(self):
        chain = ms.build_from_string("zero_range:L=3,N=10,alpha=3,p=0.7").chain
        F = np.random.default_rng(3).standard_normal((chain.n, chain.n))
        by_column = np.column_stack([ms.apply_generator(chain, F[:, k])
                                     for k in range(chain.n)])
        assert np.abs(ms.apply_generator(chain, F) - by_column).max() <= \
            1e-13 * np.abs(by_column).max()


class TestAdjoint:
    def test_two_state_self_adjoint(self, b2):
        pi = ms.stationary(b2)
        adj = ms.adjoint(b2, pi)
        assert adj.rate("1", "2") == pytest.approx(2.0, abs=1e-14)
        assert adj.rate("2", "1") == pytest.approx(3.0, abs=1e-14)

    def test_cycle_reverses(self, c3):
        pi = ms.stationary(c3)
        adj = ms.adjoint(c3, pi)
        assert adj.rate("1", "3") == pytest.approx(1.0, abs=1e-13)
        assert adj.rate("3", "2") == pytest.approx(1.0, abs=1e-13)
        assert adj.rate("2", "1") == pytest.approx(1.0, abs=1e-13)
        assert adj.rate("1", "2") == 0.0
        # the adjoint chain is stationary for the same pi
        assert np.abs(pi.weights @ adj.generator_matrix()).max() <= 1e-13

    def test_involution(self):
        rng = np.random.default_rng(5)
        chain = random_chain(rng, 12)
        pi = ms.stationary(chain)
        back = ms.adjoint(ms.adjoint(chain, pi), pi)
        diff = (back.rates - chain.rates).tocoo()
        scale = chain.max_rate
        assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-12 * scale

    def test_preserves_stationary(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            chain = random_chain(rng, int(rng.integers(4, 20)))
            pi = ms.stationary(chain)
            pi_adj = ms.stationary(ms.adjoint(chain, pi))
            assert np.abs(pi.weights - pi_adj.weights).max() <= 1e-10

    def test_rejects_wrong_measure(self, c3):
        bad = ms.ProbVector(np.array([0.7, 0.2, 0.1]))
        with pytest.raises(NotStationary):
            ms.adjoint(c3, bad)


class TestSymmetricPart:
    def test_two_state(self, b2):
        pi = ms.stationary(b2)
        sym = ms.symmetric_part(b2, pi)
        assert sym.rate("1", "2") == pytest.approx(2.0, abs=1e-14)

    def test_cycle_half_rates(self, c3):
        pi = ms.stationary(c3)
        sym = ms.symmetric_part(c3, pi)
        for a in "123":
            for b in "123":
                if a != b:
                    assert sym.rate(a, b) == pytest.approx(0.5, abs=1e-13)
        assert ms.is_reversible(sym, pi)

    def test_reversible_fixed_point(self):
        rng = np.random.default_rng(7)
        chain = random_reversible_chain(rng, 10)
        pi = ms.stationary(chain)
        sym = ms.symmetric_part(chain, pi)
        diff = (sym.rates - chain.rates).tocoo()
        assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-10 * chain.max_rate


class TestDetailedBalancePredicate:
    def test_matches_adjoint_identity(self):
        rng = np.random.default_rng(8)
        for make in (random_chain, random_reversible_chain):
            chain = make(rng, 9)
            pi = ms.stationary(chain)
            adj = ms.adjoint(chain, pi)
            diff = (adj.rates - chain.rates).tocoo()
            same = (np.abs(diff.data).max() if diff.nnz else 0.0) \
                <= 1e-12 * chain.max_rate
            assert ms.is_reversible(chain, pi) == same


class TestDirichletForm:
    def test_constant_zero(self, bd4):
        pi = ms.stationary(bd4)
        assert ms.dirichlet_form(bd4, pi, np.ones(4) * 2.0) == 0.0

    def test_two_state(self, b2):
        pi = ms.stationary(b2)
        assert ms.dirichlet_form(b2, pi, np.array([1.0, 0.0])) == \
            pytest.approx(6 / 5, rel=1e-14)

    def test_cycle_value(self, c3):
        # (M-5) pair sum and <(-L)f, f>_pi both give 1/3 for f = (1, 0, 0)
        pi = ms.stationary(c3)
        f = np.array([1.0, 0.0, 0.0])
        val = ms.dirichlet_form(c3, pi, f)
        inner = -float(np.sum(pi.weights * f * ms.apply_generator(c3, f)))
        assert val == pytest.approx(1 / 3, rel=1e-13)
        assert val == pytest.approx(inner, rel=1e-12)

    def test_columns_match_single_calls(self):
        chain = ms.build_from_string("zero_range:L=3,N=10,alpha=3,p=0.7").chain
        pi = ms.stationary(chain)
        F = np.random.default_rng(4).standard_normal((chain.n, chain.n))
        values = ms.dirichlet_form(chain, pi, F)
        assert values.shape == (chain.n,)
        for k in range(chain.n):
            assert values[k] == pytest.approx(ms.dirichlet_form(chain, pi, F[:, k]),
                                              rel=1e-12)

    def test_failing_column_is_named(self, c3):
        skewed = ms.ProbVector(np.array([0.5, 0.25, 0.25]))
        F = np.column_stack([np.ones(3), [1.0, 0.0, 0.0]])
        with pytest.raises(NotStationary) as err:
            ms.dirichlet_form(c3, skewed, F)
        assert err.value.column == 1
        with pytest.raises(NotStationary) as err:
            ms.dirichlet_form(c3, skewed, F[:, 1])
        assert err.value.column is None

    def test_invariant_under_adjoint_and_symmetrization(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            chain = random_chain(rng, int(rng.integers(4, 16)))
            pi = ms.stationary(chain)
            f = rng.standard_normal(chain.n)
            base = ms.dirichlet_form(chain, pi, f)
            assert ms.dirichlet_form(ms.adjoint(chain, pi), pi, f) == \
                pytest.approx(base, rel=1e-10, abs=1e-12)
            assert ms.dirichlet_form(ms.symmetric_part(chain, pi), pi, f) == \
                pytest.approx(base, rel=1e-10, abs=1e-12)


class TestSpectralGap:
    def test_no_eigensolver_outside_chain(self):
        """Every spectral gap goes through ``chain.generator_gap``."""
        eigensolvers = {"eigvalsh", "eigh", "eigvals", "eig"}
        assert not [f"{where}: {called}" for where, called in _package_calls("chain.py")
                    if called.rsplit(".", 1)[-1] in eigensolvers]

    def test_two_state(self, b2):
        pi = ms.stationary(b2)
        gap = ms.spectral_gap(b2, pi)
        assert gap.gap == pytest.approx(5.0, rel=1e-12)
        assert gap.relaxation_time == pytest.approx(0.2, rel=1e-12)

    def test_cycle(self, c3):
        pi = ms.stationary(c3)
        assert ms.spectral_gap(c3, pi).gap == pytest.approx(1.5, rel=1e-12)

    def test_complete_graph(self):
        for m in (4, 6):
            labels = [str(i) for i in range(m)]
            triples = [(a, b, 1.0) for a in labels for b in labels if a != b]
            chain = ms.build_chain(labels, triples)
            pi = ms.stationary(chain)
            assert ms.spectral_gap(chain, pi).gap == pytest.approx(m, rel=1e-11)

    def test_guard(self, b2, monkeypatch):
        pi = ms.stationary(b2)
        monkeypatch.setattr(config, "DEFAULT", replace(config.DEFAULT, spectral_guard=1))
        with pytest.raises(TooLarge):
            ms.spectral_gap(b2, pi)


class TestProbVector:
    def test_rejects_negative(self):
        with pytest.raises(BadSpec):
            ms.ProbVector(np.array([1.2, -0.2]))

    def test_rejects_bad_sum(self):
        with pytest.raises(BadSpec):
            ms.ProbVector(np.array([0.6, 0.6]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(BadSpec, match="non-finite"):
            ms.ProbVector(np.array([bad, 1.0]))

    def test_immutable(self, b2):
        pi = ms.stationary(b2)
        with pytest.raises(ValueError):
            pi.weights[0] = 0.5


class TestPartitionHelpers:
    def test_others_is_union_of_other_valleys(self):
        part = ms.Partition((frozenset({"1"}), frozenset({"2", "3"}), frozenset({"4"})),
                            frozenset({"5"}))
        assert part.others(2) == frozenset({"1", "4"})
        assert part.others(1) == frozenset({"2", "3", "4"})

    def test_reference_states_ties_to_smallest_label(self, bd4):
        pi = ms.ProbVector(np.full(4, 0.25))  # every valley state ties
        part = ms.Partition((frozenset({"2", "1"}), frozenset({"4", "3"})))
        assert part.reference_states(bd4, pi) == ("1", "3")
        # pi is flat on each glued-cube valley; rounding noise must not pick
        spec = ms.glued_cubes(2, 8, 2)
        exact = spec.pi_formula.weights
        noise = np.random.default_rng(0).uniform(-1.0, 1.0, size=exact.size)
        noisy = exact * (1.0 + 1e-14 * noise)
        noisy_pi = ms.ProbVector(noisy / noisy.sum())
        assert spec.partition.reference_states(spec.chain, noisy_pi) == \
            spec.partition.reference_states(spec.chain, spec.pi_formula) == \
            ("0:3,3", "1:3,3", "2:3,3", "3:3,3")


class TestStationaryFallback:
    def test_spectral_guard_does_not_switch_stationary_solve(self, bd4, monkeypatch):
        monkeypatch.setattr(config, "DEFAULT", replace(config.DEFAULT, spectral_guard=2))
        pi = ms.stationary(bd4)
        assert np.abs(pi.weights - 0.25).max() <= 1e-10
