"""Potential theory: capacities, variational principles, Poisson, sector."""

import numpy as np
import pytest

import metastab as ms
from metastab import config, numerics
from metastab.errors import (
    BadSpec,
    NotAdmissible,
    NotReversible,
    NotZeroMean,
    SolverFailure,
)
from metastab.potential import (
    EdgeSet,
    Flow,
    edge_set,
    flow_inner,
    flow_phi,
    flow_phi_star,
    flow_psi,
    hitting_probability,
    zero_flow,
)

from conftest import (
    double_well_log_conductances,
    log_series_capacity,
    random_chain,
    random_disjoint_sets,
    random_reversible_chain,
    tamper_solves,
)


def embedded_hitting_oracle(chain, A, B):
    """P_i[hit A before B] via the embedded jump chain (independent route)."""
    n = chain.n
    P = chain.rates.toarray() / chain.holding[:, None]
    ia = chain.indices_of(A)
    ib = chain.indices_of(B)
    h = np.zeros(n)
    h[ia] = 1.0
    interior = np.setdiff1d(np.arange(n), np.concatenate([ia, ib]))
    if len(interior):
        M = np.eye(len(interior)) - P[np.ix_(interior, interior)]
        rhs = P[np.ix_(interior, ia)].sum(axis=1)
        h[interior] = np.linalg.solve(M, rhs)
    return h


def capacity_oracle(chain, pi, A, B):
    """Escape-rate capacity from the embedded-chain oracle."""
    g = embedded_hitting_oracle(chain, B, A)
    ia = chain.indices_of(A)
    return float(np.sum(pi.weights[ia] * (chain.rates[ia] @ g)))


def series_conductance(chain, pi, path_labels):
    """1 / sum(1/c) along a chain of edges; the birth-death capacity."""
    total = 0.0
    for a, b in zip(path_labels[:-1], path_labels[1:]):
        c = pi.weights[chain.index[a]] * chain.rate(a, b)
        total += 1.0 / c
    return 1.0 / total


def path_flow(edges: EdgeSet, chain, labels, strength=1.0):
    """Unit flow along consecutive states; used as a Thomson test input."""
    values = np.zeros(edges.m)
    lookup = {(int(i), int(j)): k for k, (i, j) in
              enumerate(zip(edges.src, edges.dst))}
    for a, b in zip(labels[:-1], labels[1:]):
        i, j = chain.index[a], chain.index[b]
        if (i, j) in lookup:
            values[lookup[(i, j)]] += strength
        else:
            values[lookup[(j, i)]] -= strength
    return Flow(edges, values)


def cycle_flow(edges: EdgeSet, chain, labels, strength=1.0):
    return path_flow(edges, chain, list(labels) + [labels[0]], strength)


class TestEquilibriumPotential:
    def test_two_state_no_interior(self, b2):
        pi = ms.stationary(b2)
        sol = ms.equilibrium_potential(b2, pi, ["1"], ["2"])
        assert sol.h.tolist() == [1.0, 0.0]
        assert sol.capacity == pytest.approx(6 / 5, rel=1e-12)
        assert sol.dirichlet_value == pytest.approx(6 / 5, rel=1e-12)

    def test_birth_death_series(self, bd4):
        pi = ms.stationary(bd4)
        sol = ms.equilibrium_potential(bd4, pi, ["1"], ["4"])
        assert np.allclose(sol.h, [1.0, 2 / 3, 1 / 3, 0.0], atol=1e-12)
        oracle = series_conductance(bd4, pi, ["1", "2", "3", "4"])
        assert sol.capacity == pytest.approx(oracle, rel=1e-12)
        assert sol.capacity == pytest.approx(1 / 12, rel=1e-12)

    def test_cycle_capacity(self, c3):
        pi = ms.stationary(c3)
        sol = ms.equilibrium_potential(c3, pi, ["1"], ["2"])
        assert sol.capacity == pytest.approx(1 / 3, rel=1e-12)
        assert sol.capacity == pytest.approx(capacity_oracle(c3, pi, ["1"], ["2"]),
                                             rel=1e-12)

    def test_bad_sets(self, bd4):
        pi = ms.stationary(bd4)
        from metastab.errors import BadSets
        with pytest.raises(BadSets):
            ms.equilibrium_potential(bd4, pi, ["1"], ["1", "4"])
        with pytest.raises(BadSets):
            ms.equilibrium_potential(bd4, pi, [], ["4"])
        with pytest.raises(BadSets):
            ms.equilibrium_potential(bd4, pi, ["9"], ["4"])

    def test_rows_off_one_are_a_solver_failure(self, bd4, monkeypatch):
        tamper_solves(monkeypatch, lambda b, x: (1.0 + 1e-6) * x)
        with pytest.raises(SolverFailure, match="row-sum deviation"):
            hitting_probability(bd4, ["1"], ["4"])

    def test_serialization(self, b2):
        pi = ms.stationary(b2)
        d = ms.equilibrium_potential(b2, pi, ["1"], ["2"]).to_dict(b2)
        assert set(d) == {"capacity", "dirichlet_value", "potential"}
        assert d["potential"] == {"1": 1.0, "2": 0.0}


class TestSeriesOracle:
    """``conftest.log_series_capacity``, the deep-well ladder's capacity oracle."""

    def test_series_conductance(self, bd4):
        pi = ms.stationary(bd4)
        log_c = np.log(pi.weights[:-1] * [bd4.rate(str(x), str(x + 1)) for x in (1, 2, 3)])
        for a in range(4):
            for b in range(a + 1, 4):
                labels = [str(x + 1) for x in range(a, b + 1)]
                assert np.exp(log_series_capacity(log_c, b, a)) == pytest.approx(
                    series_conductance(bd4, pi, labels), rel=1e-14)

    def test_double_well_grid_is_the_model(self):
        spec = ms.build_from_string("potential_rw:N=8,points=41")
        log_pi, log_c = double_well_log_conductances(41, 8)
        pi, up = spec.pi_formula.weights, spec.chain.rates.diagonal(1)
        assert np.exp(log_pi) == pytest.approx(pi, rel=1e-13)
        assert np.exp(log_c) == pytest.approx(pi[:-1] * up, rel=1e-13)


class TestCapacity:
    def test_cycle_symmetry(self, c3):
        pi = ms.stationary(c3)
        assert ms.capacity(c3, pi, ["1"], ["2"]) == \
            pytest.approx(ms.capacity(c3, pi, ["2"], ["1"]), rel=1e-12)
        assert ms.capacity(c3, pi, ["1"], ["2"]) == pytest.approx(1 / 3, rel=1e-12)

    def test_monotonicity_birth_death(self, bd4):
        pi = ms.stationary(bd4)
        small = ms.capacity(bd4, pi, ["1"], ["4"])
        large = ms.capacity(bd4, pi, ["1"], ["3", "4"])
        assert small == pytest.approx(1 / 12, rel=1e-12)
        assert large == pytest.approx(series_conductance(bd4, pi, ["1", "2", "3"]),
                                      rel=1e-12)
        assert small <= large

    def test_one_solve(self, bd4, monkeypatch):
        """h = P[hit A before B] and g = P[hit B before A] share one solve."""
        pi = ms.stationary(bd4)
        factor = numerics.factor
        calls = []

        def counted(a):
            calls.append(1)
            return factor(a)

        monkeypatch.setattr(numerics, "factor", counted)
        assert ms.capacity(bd4, pi, ["1"], ["4"]) == pytest.approx(1 / 12, rel=1e-12)
        assert len(calls) == 1

    def test_glued_squares_adjoint_identity(self):
        spec = ms.glued_cubes(2, 4, 1)
        pi = ms.stationary(spec.chain)
        A = sorted(spec.partition.valley(1))
        B = sorted(spec.partition.valley(3))
        cap = ms.capacity(spec.chain, pi, A, B)
        cap_adj = ms.capacity_via_adjoint(spec.chain, pi, A, B)
        assert cap > 0
        assert cap == pytest.approx(cap_adj, rel=1e-10)


class TestSymmetricCapacity:
    def test_reversible_unchanged(self, b2):
        pi = ms.stationary(b2)
        assert ms.symmetric_capacity(b2, pi, ["1"], ["2"]) == \
            pytest.approx(6 / 5, rel=1e-12)

    def test_cycle_network_reduction(self, c3):
        # symmetrized C3 is the triangle of conductances 1/6: direct 1/6
        # plus the two-edge series 1/12 gives 1/4
        pi = ms.stationary(c3)
        assert ms.symmetric_capacity(c3, pi, ["1"], ["2"]) == \
            pytest.approx(0.25, rel=1e-12)

    def test_sector_bound_on_cycle(self, c3):
        pi = ms.stationary(c3)
        cap = ms.capacity(c3, pi, ["1"], ["2"])
        cap_s = ms.symmetric_capacity(c3, pi, ["1"], ["2"])
        assert cap <= 2 * c3.n * cap_s + 1e-12


class TestFlows:
    def test_inner_product_identities(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            chain = random_chain(rng, int(rng.integers(4, 14)))
            pi = ms.stationary(chain)
            edges = edge_set(chain, pi)
            f = rng.standard_normal(chain.n)
            g = rng.standard_normal(chain.n)
            lhs = flow_inner(flow_psi(edges, f), flow_phi(edges, g))
            rhs = -float(np.sum(pi.weights * ms.apply_generator(chain, f) * g))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-11)
            adj = ms.adjoint(chain, pi)
            lhs2 = flow_inner(flow_psi(edges, f), flow_phi_star(edges, g))
            rhs2 = -float(np.sum(pi.weights * ms.apply_generator(adj, f) * g))
            assert lhs2 == pytest.approx(rhs2, rel=1e-9, abs=1e-11)
            sym = ms.symmetric_part(chain, pi)
            lhs3 = flow_inner(flow_psi(edges, f), flow_psi(edges, g))
            rhs3 = -float(np.sum(pi.weights * ms.apply_generator(sym, f) * g))
            assert lhs3 == pytest.approx(rhs3, rel=1e-9, abs=1e-11)

    def test_harmonic_flow_divergence(self):
        rng = np.random.default_rng(22)
        for _ in range(6):
            chain = random_chain(rng, 10)
            pi = ms.stationary(chain)
            A, B = random_disjoint_sets(rng, chain)
            sol = ms.equilibrium_potential(chain, pi, A, B)
            edges = edge_set(chain, pi)
            div = flow_phi_star(edges, sol.h).divergence()
            interior = np.setdiff1d(
                np.arange(chain.n),
                np.concatenate([chain.indices_of(A), chain.indices_of(B)]))
            assert np.abs(div[interior]).max() <= 1e-10 if len(interior) else True

    def test_reversible_phi_divergence(self):
        rng = np.random.default_rng(23)
        chain = random_reversible_chain(rng, 10)
        pi = ms.stationary(chain)
        A, B = random_disjoint_sets(rng, chain)
        sol = ms.equilibrium_potential(chain, pi, A, B)
        edges = edge_set(chain, pi)
        div = flow_phi(edges, sol.h).divergence()
        interior = np.setdiff1d(
            np.arange(chain.n),
            np.concatenate([chain.indices_of(A), chain.indices_of(B)]))
        if len(interior):
            assert np.abs(div[interior]).max() <= 1e-10


class TestDirichletUpperBound:
    def test_reversible_optimum(self, bd4):
        pi = ms.stationary(bd4)
        sol = ms.equilibrium_potential(bd4, pi, ["1"], ["4"])
        edges = edge_set(bd4, pi)
        val = ms.dirichlet_upper_bound(bd4, pi, ["1"], ["4"], sol.h,
                                       zero_flow(edges))
        assert val == pytest.approx(sol.capacity, rel=1e-12)

    def test_linear_interpolation_birth_death(self, bd4):
        pi = ms.stationary(bd4)
        edges = edge_set(bd4, pi)
        f = np.array([1.0, 2 / 3, 1 / 3, 0.0])
        val = ms.dirichlet_upper_bound(bd4, pi, ["1"], ["4"], f, zero_flow(edges))
        assert val == pytest.approx(1 / 12, rel=1e-12)

    def test_cycle_optimal_pair(self, c3):
        pi = ms.stationary(c3)
        f, phi = ms.dirichlet_optimal_pair(c3, pi, ["1"], ["2"])
        val = ms.dirichlet_upper_bound(c3, pi, ["1"], ["2"], f, phi)
        assert val == pytest.approx(1 / 3, rel=1e-10)

    def test_rejects_bad_level(self, bd4):
        pi = ms.stationary(bd4)
        edges = edge_set(bd4, pi)
        with pytest.raises(NotAdmissible):
            ms.dirichlet_upper_bound(bd4, pi, ["1"], ["4"],
                                     np.array([0.9, 0.5, 0.2, 0.0]),
                                     zero_flow(edges))

    def test_rejects_bad_flow(self, bd4):
        pi = ms.stationary(bd4)
        edges = edge_set(bd4, pi)
        bad = path_flow(edges, bd4, ["2", "3"])
        with pytest.raises(NotAdmissible):
            ms.dirichlet_upper_bound(bd4, pi, ["1"], ["4"],
                                     np.array([1.0, 0.5, 0.2, 0.0]), bad)


class TestThomsonLowerBound:
    def test_birth_death_unit_path_flow(self, bd4):
        pi = ms.stationary(bd4)
        edges = edge_set(bd4, pi)
        psi = path_flow(edges, bd4, ["1", "2", "3", "4"])
        val = ms.thomson_lower_bound(bd4, pi, ["1"], ["4"], psi, np.zeros(4))
        assert val == pytest.approx(1 / 12, rel=1e-12)

    def test_cycle_optimal_pair(self, c3):
        pi = ms.stationary(c3)
        psi, g = ms.thomson_optimal_pair(c3, pi, ["1"], ["2"])
        val = ms.thomson_lower_bound(c3, pi, ["1"], ["2"], psi, g)
        assert val == pytest.approx(1 / 3, rel=1e-10)

    def test_random_admissible_below_capacity(self):
        rng = np.random.default_rng(24)
        for _ in range(6):
            chain = random_reversible_chain(rng, 20)
            pi = ms.stationary(chain)
            a = chain.states[0]
            b = chain.states[-1]
            cap = ms.capacity(chain, pi, [a], [b])
            edges = edge_set(chain, pi)
            route = shortest_route(chain, a, b)
            psi = path_flow(edges, chain, route)
            g = rng.standard_normal(chain.n) * 0.1
            g[chain.index[a]] = 0.0
            g[chain.index[b]] = 0.0
            val = ms.thomson_lower_bound(chain, pi, [a], [b], psi, g)
            assert val <= cap + 1e-9


def shortest_route(chain, a, b):
    """Undirected BFS route between two states (for test flows)."""
    adj = {s: set() for s in chain.states}
    for x, y, _ in chain.edges():
        adj[x].add(y)
        adj[y].add(x)
    prev = {a: None}
    queue = [a]
    while queue:
        cur = queue.pop(0)
        if cur == b:
            break
        for nxt in sorted(adj[cur]):
            if nxt not in prev:
                prev[nxt] = cur
                queue.append(nxt)
    route = [b]
    while route[-1] != a:
        route.append(prev[route[-1]])
    return route[::-1]


class TestThomsonFunctionBound:
    def test_at_equilibrium_potential(self, bd4):
        pi = ms.stationary(bd4)
        sol = ms.equilibrium_potential(bd4, pi, ["1"], ["4"])
        val = ms.thomson_function_bound(bd4, pi, ["1"], ["4"], sol.h)
        assert val == pytest.approx(1 / 12, rel=1e-10)

    def test_gauge_invariance(self, bd4):
        pi = ms.stationary(bd4)
        sol = ms.equilibrium_potential(bd4, pi, ["1"], ["4"])
        val = ms.thomson_function_bound(bd4, pi, ["1"], ["4"], sol.h + 5.0)
        assert val == pytest.approx(1 / 12, rel=1e-10)

    def test_perturbed_is_lower_bound(self, bd4):
        pi = ms.stationary(bd4)
        sol = ms.equilibrium_potential(bd4, pi, ["1"], ["4"])
        f = sol.h.copy()
        f[1] += 0.01
        val = ms.thomson_function_bound(bd4, pi, ["1"], ["4"], f, eps=0.5)
        cap = sol.capacity
        assert val <= cap * (1 + 1e-6)
        assert val < cap

    def test_requires_reversible(self, c3):
        pi = ms.stationary(c3)
        with pytest.raises(NotReversible):
            ms.thomson_function_bound(c3, pi, ["1"], ["2"], np.array([1.0, 0, 0.5]))

    def test_requires_eps_when_not_harmonic(self, bd4):
        pi = ms.stationary(bd4)
        with pytest.raises(NotAdmissible):
            ms.thomson_function_bound(bd4, pi, ["1"], ["4"],
                                      np.array([1.0, 0.9, 0.1, 0.0]))


class TestDirichletII:
    def test_reversible_equilibrium(self, bd4):
        pi = ms.stationary(bd4)
        sol = ms.equilibrium_potential(bd4, pi, ["1"], ["4"])
        val = ms.dirichlet_II(bd4, pi, ["1"], ["4"], sol.h)
        assert val == pytest.approx(sol.capacity, rel=1e-10)

    def test_cycle_optimal(self, c3):
        pi = ms.stationary(c3)
        f, _ = ms.dirichlet_optimal_pair(c3, pi, ["1"], ["2"])
        val = ms.dirichlet_II(c3, pi, ["1"], ["2"], f)
        assert val == pytest.approx(1 / 3, rel=1e-10)

    def test_no_interior(self, b2):
        pi = ms.stationary(b2)
        val = ms.dirichlet_II(b2, pi, ["1"], ["2"], np.array([1.0, 0.0]))
        assert val == pytest.approx(6 / 5, rel=1e-12)

    def test_upper_bound_for_random_f(self):
        rng = np.random.default_rng(25)
        for _ in range(6):
            chain = random_chain(rng, 9)
            pi = ms.stationary(chain)
            A, B = random_disjoint_sets(rng, chain, max_size=2)
            cap = ms.capacity(chain, pi, A, B)
            f = rng.uniform(0, 1, size=chain.n)
            f[chain.indices_of(A)] = 1.0
            f[chain.indices_of(B)] = 0.0
            val = ms.dirichlet_II(chain, pi, A, B, f)
            assert val >= cap - 1e-9


class TestPoisson:
    def test_zero_gives_zero(self, bd4):
        pi = ms.stationary(bd4)
        f = ms.poisson_solve(bd4, pi, np.zeros(4), 1.0)
        assert np.abs(f).max() <= 1e-14

    def test_two_state(self, b2):
        pi = ms.stationary(b2)
        f = ms.poisson_solve(b2, pi, np.array([2.0, -3.0]), 1.0)
        assert np.allclose(f, [-0.4, 0.6], atol=1e-13)

    def test_theta_linearity(self, b2):
        pi = ms.stationary(b2)
        g = np.array([2.0, -3.0])
        f1 = ms.poisson_solve(b2, pi, g, 1.0)
        f2 = ms.poisson_solve(b2, pi, g, 2.0)
        assert np.allclose(f2, f1 / 2.0, atol=1e-13)

    def test_rejects_nonzero_mean(self, b2):
        pi = ms.stationary(b2)
        with pytest.raises(NotZeroMean):
            ms.poisson_solve(b2, pi, np.array([1.0, 1.0]), 1.0)

    @pytest.mark.parametrize("theta", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_theta_not_finite_positive(self, b2, theta):
        pi = ms.stationary(b2)
        with pytest.raises(BadSpec, match="theta"):
            ms.poisson_solve(b2, pi, np.array([2.0, -3.0]), theta)

    def test_generator_roundtrip(self):
        rng = np.random.default_rng(26)
        for _ in range(6):
            chain = random_chain(rng, 11)
            pi = ms.stationary(chain)
            g = rng.standard_normal(chain.n)
            g -= float(np.sum(pi.weights * g))
            theta = float(rng.uniform(0.5, 4.0))
            f = ms.poisson_solve(chain, pi, g, theta)
            back = theta * ms.apply_generator(chain, f)
            assert np.abs(back - g).max() <= 1e-10 * max(1.0, np.abs(g).max())

    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_random_nonreversible(self, seed):
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, 9)
        pi = ms.stationary(chain)
        assert not ms.is_reversible(chain, pi)
        g = rng.standard_normal(chain.n)
        g -= float(np.sum(pi.weights * g))
        theta = 2.5
        f = ms.poisson_solve(chain, pi, g, theta)
        scale = max(1.0, float(np.abs(g).max()))
        assert np.abs(theta * ms.apply_generator(chain, f) - g).max() <= config.DEFAULT.rel * scale
        assert abs(float(np.sum(pi.weights * f))) <= 1e-14 * float(np.abs(f).max())


class TestSectorRatio:
    def test_reversible_cauchy_schwarz(self):
        rng = np.random.default_rng(27)
        chain = random_reversible_chain(rng, 8)
        pi = ms.stationary(chain)
        est = ms.sector_ratio(chain, pi, 100, seed=3)
        assert est.ratio <= 1.0 + 1e-9

    def test_cycle_bound(self, c3):
        pi = ms.stationary(c3)
        est = ms.sector_ratio(c3, pi, 300, seed=4)
        assert est.ratio <= 6.0
        assert est.bound == 6.0

    def test_random_bound_by_edges(self):
        rng = np.random.default_rng(28)
        chain = random_chain(rng, 10)
        pi = ms.stationary(chain)
        est = ms.sector_ratio(chain, pi, 200, seed=5)
        assert est.ratio <= 2.0 * chain.rates.nnz


class TestCapacityIdentities:
    def test_random_suite(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            chain = random_chain(rng, int(rng.integers(5, 20)))
            pi = ms.stationary(chain)
            A, B = random_disjoint_sets(rng, chain)
            sol = ms.equilibrium_potential(chain, pi, A, B)
            assert abs(sol.capacity - sol.dirichlet_value) <= 1e-9 * sol.capacity
            assert ms.capacity(chain, pi, B, A) == \
                pytest.approx(sol.capacity, rel=1e-9)
            assert ms.capacity_via_adjoint(chain, pi, A, B) == \
                pytest.approx(sol.capacity, rel=1e-9)
            cap_s = ms.symmetric_capacity(chain, pi, A, B)
            assert cap_s <= sol.capacity + 1e-10 * sol.capacity
