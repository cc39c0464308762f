"""Derived chains: trace, reflection, collapse, enlargement, resolvent, cycles."""

import hashlib
import json
import math

import numpy as np
import pytest

import metastab as ms
from metastab.errors import (
    BadPartition,
    BadSubset,
    NonPositiveGamma,
    NotIrreducibleAfterReflection,
    NotStationary,
    SolverFailure,
)
from metastab.transforms import COLLAPSED_LABEL, _lex_min_cycle, lift_from_collapsed

from conftest import (
    birth_death,
    random_chain,
    random_disjoint_sets,
    random_partition,
    random_reversible_chain,
    tamper_solves,
)


class TestTraceChain:
    def test_birth_death_middle_split(self, bd3):
        pi = ms.stationary(bd3)
        traced, pi_t = ms.trace_chain(bd3, pi, ["1", "3"])
        assert traced.rate("1", "3") == pytest.approx(0.5, rel=1e-12)
        assert traced.rate("3", "1") == pytest.approx(0.5, rel=1e-12)
        assert np.allclose(pi_t.weights, [0.5, 0.5], atol=1e-12)

    def test_full_set_identity(self, bd3):
        pi = ms.stationary(bd3)
        traced, pi_t = ms.trace_chain(bd3, pi, ["1", "2", "3"])
        assert (traced.rates - bd3.rates).nnz == 0
        assert np.allclose(pi_t.weights, pi.weights)

    def test_glued_squares_core_trace(self):
        spec = ms.glued_cubes(2, 3, 1)
        pi = ms.stationary(spec.chain)
        cores = sorted(spec.partition.union())
        traced, pi_t = ms.trace_chain(spec.chain, pi, cores)
        # conditioned law is stationary for the trace (checked inside) and
        # matches long-run occupation fractions of a simulated trace path
        raw = ms.simulate(spec.chain, cores[0], 40_000.0, seed=11)
        tp = ms.trace_path(raw, set(cores))
        occ = np.array([ms.occupation_time(tp, {s}) for s in traced.states])
        occ /= occ.sum()
        assert np.abs(occ - pi_t.weights).max() <= 0.05

    def test_trace_of_trace(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            chain = random_chain(rng, 12)
            pi = ms.stationary(chain)
            states = list(chain.states)
            rng.shuffle(states)
            f1 = sorted(states[:8])
            f2 = sorted(states[:4])
            once, _ = ms.trace_chain(chain, pi, f2)
            mid, pi_mid = ms.trace_chain(chain, pi, f1)
            twice, _ = ms.trace_chain(mid, pi_mid, f2)
            diff = (once.rates - twice.rates).tocoo()
            worst = np.abs(diff.data).max() if diff.nnz else 0.0
            assert worst <= 1e-9 * max(once.max_rate, 1.0)

    def test_empirical_trace_rates(self, bd3):
        pi = ms.stationary(bd3)
        traced, _ = ms.trace_chain(bd3, pi, ["1", "3"])
        raw = ms.simulate(bd3, "1", 8000.0, seed=12)
        tp = ms.trace_path(raw, {"1", "3"})
        time_at_1 = ms.occupation_time(tp, {"1"})
        jumps_13 = sum(1 for k, (t, s) in enumerate(tp.events)
                       if s == "3" and (tp.events[k - 1][1] if k else tp.initial) == "1")
        rate = jumps_13 / time_at_1
        stderr = np.sqrt(jumps_13) / time_at_1
        assert abs(rate - traced.rate("1", "3")) <= 3 * stderr

    def test_negative_absorption_is_a_solver_failure(self, monkeypatch):
        """On the line 1-...-5 traced on {1, 2, 4, 5}, P_3[enter at 1] is
        exactly 0.  A solver that returns -1e-3 there raises; clipping the
        entry to 0 would hide the fault and return the exact trace chain."""
        chain = birth_death(5)
        pi = ms.stationary(chain)

        def tampered(b, x):
            x[tuple(np.argwhere(x == 0.0)[0])] = -1e-3
            return x

        tamper_solves(monkeypatch, tampered)
        with pytest.raises(SolverFailure, match="not a probability"):
            ms.trace_chain(chain, pi, ["1", "2", "4", "5"])

    def test_kept_factorization_changes_no_bit(self):
        """Tracing onto A, then B, then A again on one chain (which keeps its
        latest factorization) gives what each trace gives on a fresh chain."""
        def build():
            return ms.zero_range(3, 10, 3.0, 0.7)

        spec = build()
        chain, pi = spec.chain, ms.stationary(spec.chain)
        sets = (sorted(spec.partition.union()),
                sorted(spec.partition.valley(1) | spec.partition.delta),
                sorted(spec.partition.union()))
        for F in sets:
            kept, pi_kept = ms.trace_chain(chain, pi, F)
            fresh, pi_fresh = ms.trace_chain(build().chain, pi, F)
            assert kept.states == fresh.states
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(kept.rates, name), getattr(fresh.rates, name))
            assert np.array_equal(pi_kept.weights, pi_fresh.weights)

    def test_bad_subset(self, bd3):
        pi = ms.stationary(bd3)
        with pytest.raises(BadSubset):
            ms.trace_chain(bd3, pi, [])
        with pytest.raises(BadSubset):
            ms.trace_chain(bd3, pi, ["1"])


class TestReflectedChain:
    def test_birth_death_block(self, bd4):
        refl = ms.reflected_chain(bd4, ["1", "2"])
        assert refl.n == 2
        assert refl.rate("1", "2") == 1.0
        assert refl.rate("2", "1") == 1.0

    def test_cycle_disconnects(self, c3):
        with pytest.raises(NotIrreducibleAfterReflection):
            ms.reflected_chain(c3, ["1", "2"])

    def test_reversible_conditioned_stationary(self):
        rng = np.random.default_rng(32)
        for _ in range(6):
            chain = random_reversible_chain(rng, 10)
            pi = ms.stationary(chain)
            keep = sorted(chain.states[:6])
            try:
                refl = ms.reflected_chain(chain, keep, pi)
            except NotIrreducibleAfterReflection:
                continue
            idx = chain.indices_of(keep)
            w = pi.weights[idx]
            cond = ms.ProbVector(w / w.sum())
            residual = np.abs(cond.weights @ refl.generator_matrix()).max()
            assert residual <= 1e-10 * max(refl.max_rate, 1.0)
            assert ms.is_reversible(refl, cond, rel=1e-9)


class TestCollapseChain:
    def test_birth_death_example(self, bd3):
        pi = ms.stationary(bd3)
        collapsed, pic = ms.collapse_chain(bd3, pi, ["1", "2"])
        assert collapsed.rate(COLLAPSED_LABEL, "3") == pytest.approx(0.5, rel=1e-12)
        assert collapsed.rate("3", COLLAPSED_LABEL) == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(sorted(pic.weights), [1 / 3, 2 / 3], atol=1e-12)

    def test_singleton_isomorphic(self, bd3):
        pi = ms.stationary(bd3)
        collapsed, pic = ms.collapse_chain(bd3, pi, ["2"])
        # same rates as bd3 with state 2 renamed
        rename = {"1": "1", "3": "3", COLLAPSED_LABEL: "2"}
        got = {(rename[a], rename[b]): r for a, b, r in collapsed.edges()}
        want = {(a, b): r for a, b, r in bd3.edges()}
        assert set(got) == set(want)
        for k in got:
            assert got[k] == pytest.approx(want[k], rel=1e-12)

    def test_capacity_identity_random(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            chain = random_chain(rng, int(rng.integers(6, 16)))
            pi = ms.stationary(chain)
            A, B = random_disjoint_sets(rng, chain, max_size=3)
            cap = ms.capacity(chain, pi, A, B)
            collapsed, pic = ms.collapse_chain(chain, pi, A)
            cap_c = ms.capacity(collapsed, pic, [COLLAPSED_LABEL], B)
            assert cap_c == pytest.approx(cap, rel=1e-9)


class TestCollapsedQuadraticIdentity:
    def test_constants_vanish(self, bd3):
        pi = ms.stationary(bd3)
        collapsed, pic = ms.collapse_chain(bd3, pi, ["1", "2"])
        f = np.ones(collapsed.n)
        lhs = float(np.sum(pic.weights * ms.apply_generator(collapsed, f) * f))
        assert abs(lhs) <= 1e-14

    def test_explicit_indicator(self, bd3):
        pi = ms.stationary(bd3)
        collapsed, pic = ms.collapse_chain(bd3, pi, ["1", "2"])
        f = np.zeros(collapsed.n)
        f[collapsed.index[COLLAPSED_LABEL]] = 1.0
        lhs = float(np.sum(pic.weights * ms.apply_generator(collapsed, f) * f))
        F = lift_from_collapsed(bd3, ["1", "2"], f, collapsed)
        rhs = float(np.sum(pi.weights * ms.apply_generator(bd3, F) * F))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_random_trials(self):
        rng = np.random.default_rng(34)
        for _ in range(5):
            chain = random_chain(rng, 20)
            pi = ms.stationary(chain)
            A = [chain.states[int(i)]
                 for i in rng.choice(20, size=5, replace=False)]
            dev = ms.collapsed_quadratic_identity_check(chain, pi, A, 20, seed=1)
            assert dev <= 1e-10


class TestEnlargedChain:
    def test_two_state_stationary(self, b2):
        pi = ms.stationary(b2)
        enl = ms.enlarge_chain(b2, pi, 1.0)
        assert enl.combined.n == 4
        got = {s: enl.pi_star[enl.combined.index[s]]
               for s in ("1", "2", "1*", "2*")}
        assert got == pytest.approx({"1": 0.3, "2": 0.2, "1*": 0.3, "2*": 0.2})

    def test_star_rate_structure(self, b2):
        pi = ms.stationary(b2)
        for gamma in (0.5, 4.0):
            enl = ms.enlarge_chain(b2, pi, gamma)
            assert enl.combined.rate("1", "1*") == pytest.approx(1 / gamma)
            assert enl.combined.rate("1*", "1") == pytest.approx(1 / gamma)
            assert enl.combined.rate("1*", "2*") == 0.0

    def test_reversibility_preserved(self):
        rng = np.random.default_rng(35)
        chain = random_reversible_chain(rng, 8)
        pi = ms.stationary(chain)
        enl = ms.enlarge_chain(chain, pi, 2.0)
        assert ms.is_reversible(enl.combined, enl.pi_star, rel=1e-10)

    def test_rejects_nonpositive_gamma(self, b2):
        # an infinite gamma is an input error, not an unreachable star copy
        # or a singular resolvent
        pi = ms.stationary(b2)
        part = ms.Partition((frozenset({"1"}), frozenset({"2"})))
        for gamma in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(NonPositiveGamma, match="finite"):
                ms.enlarge_chain(b2, pi, gamma)
            with pytest.raises(NonPositiveGamma, match="finite"):
                ms.resolvent_solve(b2, pi, gamma, 1, part)


class TestResolvent:
    def test_two_state_example(self, b2):
        pi = ms.stationary(b2)
        part = ms.Partition((frozenset({"1"}), frozenset({"2"})))
        u = ms.resolvent_solve(b2, pi, 1.0, 1, part)
        assert np.allclose(u, [2 / 3, 0.5], atol=1e-12)

    def test_small_gamma_limit(self, b2):
        pi = ms.stationary(b2)
        part = ms.Partition((frozenset({"1"}), frozenset({"2"})))
        u = ms.resolvent_solve(b2, pi, 1e-8, 1, part)
        assert np.allclose(u, [1.0, 0.0], atol=1e-6)

    def test_rejects_nonempty_delta(self, bd3, bd3_partition):
        pi = ms.stationary(bd3)
        with pytest.raises(BadPartition, match="delta holds"):
            ms.resolvent_solve(bd3, pi, 1.0, 1, bd3_partition)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(36)
        chain = random_chain(rng, 9)
        pi = ms.stationary(chain)
        part = random_partition(rng, chain, 3, delta_fraction=0.0)
        total = np.zeros(chain.n)
        for k in (1, 2, 3):
            total += ms.resolvent_solve(chain, pi, 0.7, k, part)
        assert np.abs(total - 1.0).max() <= 1e-10

    def test_matches_enlarged_potential(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            chain = random_chain(rng, 8)
            pi = ms.stationary(chain)
            part = random_partition(rng, chain, 2, delta_fraction=0.0)
            gamma = float(rng.uniform(0.1, 10.0))
            gap = ms.resolvent_vs_enlarged_gap(chain, pi, gamma, 1, part)
            assert gap <= 1e-9

    def test_conditional_mean_matches_enlarged_rates(self, b2):
        # the averaged generator of the resolvent solution reproduces the
        # coarse rates of the enlarged chain, including the diagonal
        pi = ms.stationary(b2)
        part = ms.Partition((frozenset({"1"}), frozenset({"2"})))
        gamma = 1.3
        enl = ms.enlarge_chain(b2, pi, gamma)
        from metastab.potential import hitting_probability
        for k in (1, 2):
            u = ms.resolvent_solve(b2, pi, gamma, k, part)
            w = ms.apply_generator(b2, u)
            h = hitting_probability(
                enl.combined,
                [enl.star(s) for s in sorted(part.valley(k))],
                [enl.star(s) for s in sorted(part.valley(3 - k))])
            for j in (1, 2):
                idx = b2.indices_of(part.valley(j))
                mass = pi.weights[idx].sum()
                lhs = float(np.sum(pi.weights[idx] * w[idx])) / mass
                h_base = np.array([h[enl.combined.index[s]]
                                   for s in b2.states])
                rate_jk = float(np.sum(pi.weights[idx] * h_base[idx])) / (gamma * mass)
                if j == k:
                    # diagonal value is minus the total outgoing rate
                    rate_jk = rate_jk - 1.0 / gamma
                assert lhs == pytest.approx(rate_jk, abs=1e-12)


class TestCycleDecomposition:
    def test_cycle_chain_single_cycle(self, c3):
        pi = ms.stationary(c3)
        dec = ms.cycle_decompose(c3, pi)
        assert len(dec.cycles) == 1
        labels, rates = dec.cycles[0]
        assert labels == ("1", "2", "3")
        assert np.allclose(rates, 1.0, atol=1e-12)

    def test_cycle_longer_than_the_recursion_limit(self):
        n = 1200
        ring = [[(i + 1) % n] for i in range(n)]
        assert _lex_min_cycle(ring, 0, n) == list(range(n))
        assert _lex_min_cycle(ring, 0, n - 1) is None
        # a chord from 0 makes a shorter cycle, found first in successor order
        ring[0] = [1, n // 2]
        assert _lex_min_cycle(ring, 0, n // 2 + 1) == [0] + list(range(n // 2, n))

    def test_reversible_all_two_cycles(self):
        rng = np.random.default_rng(38)
        for _ in range(5):
            chain = random_reversible_chain(rng, 10)
            pi = ms.stationary(chain)
            dec = ms.cycle_decompose(chain, pi)
            assert dec.max_cycle_length() == 2
            recon = dec.reconstructed_rates(chain)
            worst = np.abs((recon - chain.rates).toarray()).max()
            assert worst <= 1e-12

    def test_mixture_reconstruction(self):
        # reversible 2-path plus a 3-cycle on three states, uniform pi
        chain = ms.build_chain(
            ["1", "2", "3"],
            [("1", "2", 1.0 + 1.0), ("2", "1", 1.0), ("2", "3", 1.0 + 1.0),
             ("3", "2", 1.0), ("3", "1", 1.0)])
        pi = ms.stationary(chain)
        assert np.allclose(pi.weights, 1 / 3, atol=1e-12)
        dec = ms.cycle_decompose(chain, pi)
        recon = dec.reconstructed_rates(chain)
        assert np.abs((recon - chain.rates).toarray()).max() <= 1e-12
        for labels, rates in dec.cycles:
            idx = [chain.index[s] for s in labels]
            conducts = [pi.weights[i] * r for i, r in zip(idx, rates)]
            assert max(conducts) - min(conducts) <= 1e-10 * max(conducts)

    def test_per_cycle_stationarity_random(self):
        rng = np.random.default_rng(39)
        for _ in range(5):
            chain = random_chain(rng, 8)
            pi = ms.stationary(chain)
            dec = ms.cycle_decompose(chain, pi)
            assert dec.residual <= 1e-12
            for labels, rates in dec.cycles:
                idx = [chain.index[s] for s in labels]
                conducts = [pi.weights[i] * r for i, r in zip(idx, rates)]
                assert max(conducts) - min(conducts) <= 1e-10 * max(conducts)

    def test_rejects_non_stationary(self, c3):
        bad = ms.ProbVector(np.array([0.5, 0.3, 0.2]))
        with pytest.raises(NotStationary):
            ms.cycle_decompose(c3, bad)

    # SHA-256 and byte count of the cycles, the residual and the reconstruction
    # error of the draws from seeds 0..9 (the JSON lines of ``_draws_text``)
    PINNED = {
        ("random_chain", 6): ("9f4c318ba72e750430ca98ed29c9faf4"
                              "e2ac7e4531613a3a51efdbfff9406cff", 9_044),
        ("random_chain", 9): ("98220fe8eabd35c0b57d32de9f04605f"
                              "8d4ce18021b9565808af6325a7a999d0", 15_555),
        ("random_chain", 12): ("7bfe2fe695b3be02c667937ed4cb3ac0"
                               "02b896239056dc56e1c0c3d7a7f7093a", 27_481),
        ("random_chain", 16): ("acc1a1e8df8090731b122a62f03d219c"
                               "05a2b49d38adf1b76d5e66821636745f", 45_165),
        ("random_reversible_chain", 6): ("4d2cbfc11e436891b5fb4ea29c00f4af"
                                         "7f91c38035b6eebf2990dba95e9364aa", 6_831),
        ("random_reversible_chain", 9): ("6d5082b5e0ad6eda8826bab00d58335d"
                                         "01f99610eb52fe9bb37ec7dc23d2c5e0", 11_087),
        ("random_reversible_chain", 12): ("677c2ec5d0d2468afeb48b20ee74900e"
                                          "f9ff05027ad80d04770c4b7daa35d7c8", 16_338),
        ("random_reversible_chain", 16): ("21d576a8a24f4295faffa4d015d0be47"
                                          "e858d2f3426b8716f984ee739dd2e134", 22_637),
    }

    @staticmethod
    def _draws_text(draw, n):
        make = {"random_chain": random_chain,
                "random_reversible_chain": random_reversible_chain}[draw]
        lines = []
        for seed in range(10):
            chain = make(np.random.default_rng(seed), n)
            dec = ms.cycle_decompose(chain, ms.stationary(chain))
            error = abs(dec.reconstructed_rates(chain) - chain.rates).max()
            lines.append(json.dumps({
                "cycles": [[list(labels), [float(r) for r in rates]]
                           for labels, rates in dec.cycles],
                "residual": float(dec.residual), "reconstruction": float(error)}))
        return "\n".join(lines).encode()

    @pytest.mark.parametrize("draw, n", sorted(PINNED))
    def test_pinned_random_decompositions(self, draw, n):
        text = self._draws_text(draw, n)
        assert (hashlib.sha256(text).hexdigest(), len(text)) == self.PINNED[(draw, n)]

    def test_reflection_of_whole_cycles_keeps_conditioned_measure(self):
        # two cycles sharing state 3; uniform pi is stationary for each;
        # reflecting at the first cycle's support removes the second wholly
        chain = ms.build_chain(
            ["1", "2", "3", "4", "5"],
            [("1", "2", 1.0), ("2", "3", 1.0), ("3", "1", 1.0),
             ("3", "4", 2.0), ("4", "5", 2.0), ("5", "3", 2.0)])
        pi = ms.stationary(chain)
        assert np.allclose(pi.weights, 0.2, atol=1e-12)
        refl = ms.reflected_chain(chain, ["1", "2", "3"])
        idx = chain.indices_of(["1", "2", "3"])
        w = pi.weights[idx]
        cond = ms.ProbVector(w / w.sum())
        residual = np.abs(cond.weights @ refl.generator_matrix()).max()
        assert residual <= 1e-10

class TestDerivedChainSerialization:
    def test_round_trip_exact_rates(self, bd3, tmp_path):
        from metastab import specio
        pi = ms.stationary(bd3)
        traced, _ = ms.trace_chain(bd3, pi, ["1", "3"])
        collapsed, _ = ms.collapse_chain(bd3, pi, ["1", "2"])
        enlarged = ms.enlarge_chain(bd3, pi, 1.5).combined
        for k, derived in enumerate((traced, collapsed, enlarged)):
            path = tmp_path / f"derived_{k}.json"
            specio.dump_chain_spec(derived, path)
            loaded, _ = specio.load_chain_spec(path)
            assert loaded.states == derived.states
            assert (loaded.rates - derived.rates).nnz == 0

    def test_reserved_label_collisions(self):
        clash = ms.build_chain(["x", "@collapsed"],
                               [("x", "@collapsed", 1.0), ("@collapsed", "x", 1.0)])
        pi = ms.stationary(clash)
        with pytest.raises(BadSubset):
            ms.collapse_chain(clash, pi, ["x"])
        starred = ms.build_chain(["a", "a*"],
                                 [("a", "a*", 1.0), ("a*", "a", 1.0)])
        pi2 = ms.stationary(starred)
        with pytest.raises(BadSubset):
            ms.enlarge_chain(starred, pi2, 1.0)
