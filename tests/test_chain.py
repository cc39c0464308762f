"""Chain construction, stationary laws, generator calculus, spectral gaps."""

import numpy as np
import pytest

import metastab as ms
from metastab import numerics
from metastab.errors import (
    BadSpec,
    DuplicateEdge,
    NonPositiveRate,
    NotIrreducible,
    NotStationary,
    SolverFailure,
    TooLarge,
)

from conftest import random_chain, random_reversible_chain


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
        # steep birth-death chain: pi(i) is proportional to 100^-i
        labels = [str(i) for i in range(10)]
        chain = ms.build_chain(labels, [t for i in range(9) for t in (
            (labels[i], labels[i + 1], 1.0), (labels[i + 1], labels[i], 100.0))])
        assert ms.stationary(chain).weights.min() < 1e-14
        solve = numerics.solve_linear

        def negate_smallest(a, b):
            x = solve(a, b)
            x[np.argmin(x)] *= -1.0
            return x

        monkeypatch.setattr(numerics, "solve_linear", negate_smallest)
        with pytest.raises(SolverFailure):
            ms.stationary(chain)


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

    def test_guard(self, b2):
        pi = ms.stationary(b2)
        from metastab.config import ToleranceConfig
        with pytest.raises(TooLarge):
            ms.spectral_gap(b2, pi, ToleranceConfig(spectral_guard=1))


class TestProbVector:
    def test_rejects_negative(self):
        with pytest.raises(BadSpec):
            ms.ProbVector(np.array([1.2, -0.2]))

    def test_rejects_bad_sum(self):
        with pytest.raises(BadSpec):
            ms.ProbVector(np.array([0.6, 0.6]))

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
    def test_power_iteration_above_guard(self, bd4):
        from metastab.config import ToleranceConfig
        tol = ToleranceConfig(spectral_guard=2)
        pi = ms.stationary(bd4, tol)
        assert np.abs(pi.weights - 0.25).max() <= 1e-10
