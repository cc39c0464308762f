"""Model builders: geometry, stationary laws, default partitions."""

from dataclasses import replace

import numpy as np
import pytest

import metastab as ms
from metastab import config
from metastab.errors import BadParams, BadSpec, TooLarge
from metastab.models import glued_cubes_rotation


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
        rot = glued_cubes_rotation(spec)
        rates = {(a, b): r for a, b, r in spec.chain.edges()}
        for (a, b), r in rates.items():
            assert rates[(rot[a], rot[b])] == pytest.approx(r, rel=1e-14)

    def test_three_dimensional(self):
        spec = ms.glued_cubes(3, 3, 1)
        assert spec.chain.n == 4 * (27 - 1)
        assert spec.suggested_theta == 27.0
        assert [len(v) for v in spec.partition.valleys] == [1, 1, 1, 1]

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
        from metastab.models import _zr_g
        assert _zr_g(0, 3.0) == 0.0
        assert _zr_g(1, 3.0) == 1.0
        assert _zr_g(2, 3.0) == pytest.approx(2.0 ** 3 / 1.0)

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
