"""Model builders: geometry, stationary laws, default partitions."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import metastab as ms
from metastab import config
from metastab.errors import BadParams, BadSpec, TooLarge

from conftest import reference_glued_cubes, reference_zero_range


def assert_same_chain(chain, reference):
    """States and CSR arrays equal bit for bit."""
    assert chain.states == reference.states
    for name in ("indptr", "indices", "data"):
        got, want = getattr(chain.rates, name), getattr(reference.rates, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestGluedCubes:
    def test_state_count(self):
        for N in (3, 4, 6):
            spec = ms.glued_cubes(2, N, 1)
            assert spec.chain.n == 4 * (N ** 2 - 1)

    def test_degree_stationary_law(self):
        spec = ms.glued_cubes(2, 4, 1)
        pi = ms.stationary(spec.chain)
        assert np.abs(pi.weights - spec.pi_formula.weights).max() <= 1e-12
        assert ms.is_reversible(spec.chain, pi)

    def test_geometry(self):
        spec = ms.glued_cubes(2, 5, 1)
        degrees = spec.info["degrees"]
        assert all(d >= 2 for d in degrees.values())
        glue = spec.info["glue_states"]
        assert len(glue) == 4
        for s in glue:
            assert degrees[s] == 4  # 2d with d = 2

    def test_valley_sizes(self):
        spec = ms.glued_cubes(2, 8, 2)
        assert [len(v) for v in spec.partition.valleys] == [16, 16, 16, 16]

    def test_rotation_automorphism(self):
        spec = ms.glued_cubes(2, 4, 1)

        def rotate(label):
            # cube k onto cube k + 1 (mod 4); glue state c_ab onto c_(a+1)(b+1)
            if label.startswith("c"):
                return "c" + "".join(str((int(d) + 1) % 4) for d in label[1:])
            k, coords = label.split(":")
            return f"{(int(k) + 1) % 4}:{coords}"

        rot = {s: rotate(s) for s in spec.chain.states}
        rates = {(a, b): r for a, b, r in spec.chain.edges()}
        for (a, b), r in rates.items():
            assert rates[(rot[a], rot[b])] == pytest.approx(r, rel=1e-14)

    def test_three_dimensional(self):
        spec = ms.glued_cubes(3, 3, 1)
        assert spec.chain.n == 4 * (27 - 1)
        assert spec.suggested_theta == 27.0
        assert [len(v) for v in spec.partition.valleys] == [1, 1, 1, 1]

    @pytest.mark.parametrize("d,N", [(2, 3), (2, 4), (2, 8), (3, 3), (3, 5)])
    def test_matches_adjacency_reference(self, d, N):
        spec = ms.glued_cubes(d, N, 1)
        assert_same_chain(spec.chain, reference_glued_cubes(d, N))
        degrees = np.diff(spec.chain.rates.indptr)
        assert spec.pi_formula.weights.tolist() == (degrees / degrees.sum()).tolist()
        assert list(spec.info["degrees"].values()) == degrees.tolist()

    def test_bad_params(self):
        with pytest.raises(BadParams):
            ms.glued_cubes(1, 4, 1)
        with pytest.raises(BadParams):
            ms.glued_cubes(2, 4, 2)


class TestZeroRange:
    def test_tiny_state_space(self):
        spec = ms.zero_range(3, 5, 3.0, 0.5, ell=2)
        assert spec.chain.n == 21  # compositions of 5 over 3 sites
        pi = ms.stationary(spec.chain)
        assert np.abs(pi.weights - spec.pi_formula.weights).max() <= 1e-10

    def test_jump_rate_values(self):
        chain = ms.zero_range(3, 5, 3.0, 0.7, ell=2).chain
        # g(1) = 1 and g(2) = 2^3, times p to the right and 1 - p to the left
        assert chain.rate("1|2|2", "0|3|2") == 0.7
        assert chain.rate("1|2|2", "0|2|3") == 1.0 - 0.7
        assert chain.rate("1|2|2", "2|2|1") == 8.0 * 0.7
        assert chain.rate("1|2|2", "1|1|3") == 8.0 * 0.7
        assert chain.rate("1|2|2", "2|1|2") == 8.0 * (1.0 - 0.7)
        # g(0) = 0: only the occupied site moves
        assert chain.rates[chain.index["0|0|5"]].nnz == 2

    @pytest.mark.parametrize("L,N,alpha,p", [(3, 8, 3.0, 0.5), (3, 30, 3.0, 0.5),
                                             (4, 20, 3.0, 0.7), (3, 8, 3.0, 1.0),
                                             (5, 9, 2.5, 1.0), (4, 12, 2.0, 0.6)])
    def test_matches_per_state_reference(self, L, N, alpha, p):
        spec = ms.zero_range(L, N, alpha, p, ell=2)
        assert_same_chain(spec.chain, reference_zero_range(L, N, alpha, p))
        counts = np.array([[int(c) for c in s.split("|")] for s in spec.chain.states])
        log_w = -alpha * np.log(np.where(counts > 1, counts, 1)).sum(axis=1)
        w = np.exp(log_w - log_w.max())
        assert np.abs(spec.pi_formula.weights - w / w.sum()).max() <= 1e-15
        for x, valley in enumerate(spec.partition.valleys):
            assert valley == {s for s, c in zip(spec.chain.states, counts) if c[x] >= N - 2}

    def test_particle_conservation(self):
        spec = ms.zero_range(3, 8, 3.0, 0.5)
        for a, b, _ in spec.chain.edges():
            na = sum(int(x) for x in a.split("|"))
            nb = sum(int(x) for x in b.split("|"))
            assert na == nb == 8

    def test_valley_mass_trend(self):
        gap_to_third = []
        for N in (10, 15, 20):
            spec = ms.zero_range(3, N, 3.0, 0.5)
            pi = ms.stationary(spec.chain)
            mass = pi.mass(spec.chain.indices_of(spec.partition.valley(1)))
            gap_to_third.append(abs(mass - 1.0 / 3.0))
        assert gap_to_third[0] > gap_to_third[1] > gap_to_third[2]

    def test_totally_asymmetric_allowed(self):
        spec = ms.zero_range(3, 6, 2.0, 1.0, ell=2)
        pi = ms.stationary(spec.chain)
        assert not ms.is_reversible(spec.chain, pi)

    def test_guard(self, monkeypatch):
        monkeypatch.setattr(config, "DEFAULT", replace(config.DEFAULT, state_guard=100))
        with pytest.raises(TooLarge):
            ms.zero_range(3, 40, 3.0, 0.5)

    def test_bad_params(self):
        with pytest.raises(BadParams):
            ms.zero_range(2, 10, 3.0, 0.5)
        with pytest.raises(BadParams):
            ms.zero_range(3, 10, 0.5, 0.5)
        with pytest.raises(BadParams):
            ms.zero_range(3, 10, 3.0, 0.3)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, 400.0])
    def test_alpha_not_finite(self, alpha):
        with pytest.raises(BadParams, match="alpha"):
            ms.zero_range(3, 30, alpha, 0.5)


class TestPotentialRW:
    def test_double_well_symmetric_rates(self):
        spec = ms.potential_rw([np.linspace(-2, 2, 21)],
                               lambda x: (x * x - 1) ** 2, 8.0)
        assert spec.partition is not None and spec.partition.n == 2
        pi = ms.stationary(spec.chain)
        model = ms.coarse_rates(spec.chain, pi, spec.partition, 1.0)
        assert model.rate(1, 2) == pytest.approx(model.rate(2, 1), rel=1e-9)

    def test_flat_potential(self):
        spec = ms.potential_rw([np.linspace(0, 1, 6)], lambda x: 0.0, 4.0)
        assert spec.partition is None
        assert all(r == pytest.approx(1.0) for _, _, r in spec.chain.edges())
        pi = ms.stationary(spec.chain)
        assert np.abs(pi.weights - 1.0 / 6.0).max() <= 1e-12

    def test_gibbs_law_reversible(self):
        spec = ms.potential_rw([np.linspace(-2, 2, 15)],
                               lambda x: (x * x - 1) ** 2, 6.0)
        pi = ms.stationary(spec.chain)
        assert ms.is_reversible(spec.chain, pi)
        assert np.abs(pi.weights - spec.pi_formula.weights).max() <= 1e-10

    def test_arrhenius_growth(self):
        scales = []
        for N in (4.0, 8.0, 12.0):
            spec = ms.potential_rw([np.linspace(-2, 2, 21)],
                                   lambda x: (x * x - 1) ** 2, N)
            pi = ms.stationary(spec.chain)
            scales.append(ms.coarse_rates(spec.chain, pi, spec.partition).timescales[0])
        assert scales[0] < scales[1] < scales[2]

    def test_two_dimensional_grid(self):
        axes = [np.linspace(-1.2, 1.2, 9), np.linspace(-0.5, 0.5, 5)]
        spec = ms.potential_rw(axes, lambda p: (p[0] ** 2 - 1) ** 2 + p[1] ** 2,
                               5.0)
        assert spec.chain.n == 45
        assert spec.partition is not None and spec.partition.n == 2
        pi = ms.stationary(spec.chain)
        assert ms.is_reversible(spec.chain, pi)

    def test_grid_matches_per_point_rates(self):
        axes = [np.linspace(-1.2, 1.2, 9), np.linspace(-0.5, 0.5, 5)]

        def F(q):
            return (q[0] ** 2 - 1) ** 2 + q[1] ** 2

        spec = ms.potential_rw(axes, F, 5.0)
        edges = {(a, b): r for a, b, r in spec.chain.edges()}
        assert len(edges) == 2 * (8 * 5 + 9 * 4)
        for i, j in itertools.product(range(9), range(5)):
            here = (axes[0][i], axes[1][j])
            for nb in ((i + 1, j), (i, j + 1)):
                if nb[0] < 9 and nb[1] < 5:
                    there = (axes[0][nb[0]], axes[1][nb[1]])
                    a, b = (f"({x:.8g},{y:.8g})" for x, y in (here, there))
                    assert edges[(a, b)] == math.exp(-2.5 * (F(there) - F(here)))
                    assert edges[(b, a)] == math.exp(-2.5 * (F(here) - F(there)))

    def test_colliding_labels_rejected(self):
        with pytest.raises(BadParams, match="share a label"):
            ms.potential_rw([np.linspace(1.0, 1.0 + 1e-10, 5)], lambda x: x, 1.0)

    @pytest.mark.parametrize("N", [0.0, -1.0, math.nan, math.inf])
    def test_bad_inverse_temperature(self, N):
        with pytest.raises(BadParams, match="inverse-temperature"):
            ms.potential_rw([np.linspace(0, 1, 6)], lambda x: 0.0, N)

    def test_extreme_temperature_rejected(self):
        with pytest.raises(BadParams):
            ms.potential_rw([np.linspace(-2, 2, 9)],
                            lambda x: (x * x - 1) ** 2, 2000.0)


class TestModelStrings:
    def test_glued(self):
        spec = ms.build_from_string("glued_cubes:d=2,N=8,ell=2")
        assert spec.chain.n == 4 * 63

    def test_zero_range(self):
        spec = ms.build_from_string("zero_range:L=3,N=10,alpha=3,p=0.5")
        assert spec.params["ell"] == 3

    def test_potential(self):
        spec = ms.build_from_string("potential_rw:potential=double_well,points=21,N=8")
        assert spec.partition.n == 2

    @pytest.mark.parametrize("text", ["zero_range:L=3,N=10,alpha=3,p=0.5,ell=x",
                                      "potential_rw:N=8,eps=abc"])
    def test_bad_optional_value(self, text):
        with pytest.raises(BadSpec, match="bad value"):
            ms.build_from_string(text)

    @pytest.mark.parametrize("points", [-1, 0, 1])
    def test_too_few_points(self, points):
        with pytest.raises(BadParams, match="points"):
            ms.build_from_string(f"potential_rw:N=8,points={points}")

    def test_rejects_unknown(self):
        with pytest.raises(BadSpec):
            ms.build_from_string("unknown_family:x=1")
        with pytest.raises(BadSpec):
            ms.build_from_string("glued_cubes:d=2,N=8,ell=2,bogus=1")

    def test_roundtrip_spec_json(self, tmp_path):
        from metastab import specio
        spec = ms.build_from_string("zero_range:L=3,N=6,alpha=2,p=0.5,ell=2")
        path = tmp_path / "chain.json"
        specio.dump_chain_spec(spec.chain, path, spec.partition)
        chain, partition = specio.load_chain_spec(path)
        assert chain.states == spec.chain.states
        assert partition.valleys == spec.partition.valleys
        diff = (chain.rates - spec.chain.rates).tocoo()
        assert diff.nnz == 0
