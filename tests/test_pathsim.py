"""Simulation, path surgeries, Skorohod distance, Monte-Carlo validators."""

import itertools
import math
import pickle
import re

import numpy as np
import pytest

import metastab as ms
from metastab import pathsim
from metastab.errors import BadPartition, BadSpec, StartsInDelta, TouchesDelta

from conftest import (
    FixedDraws,
    exact_candidate_objective,
    expm_law,
    occupation_integral,
    random_chain,
    random_partition,
    reference_trajectory,
    reference_zero_range,
    surgery_paths,
)


class TestSimulate:
    def test_deterministic_given_seed(self, b2):
        p1 = ms.simulate(b2, "1", 37.0, seed=7)
        p2 = ms.simulate(b2, "1", 37.0, seed=7)
        assert p1 == p2
        p3 = ms.simulate(b2, "1", 37.0, seed=8)
        assert p1 != p3

    def test_occupation_matches_stationary(self, b2):
        path = ms.simulate(b2, "1", 10_000.0, seed=1)
        frac = ms.occupation_time(path, {"1"}) / path.horizon
        # asymptotic variance of the occupation fraction, conservative bound
        assert abs(frac - 0.6) <= 0.02

    def test_mean_holding_time(self, b2):
        path = ms.simulate(b2, "1", 10_000.0, seed=2)
        sojourns = [b - a for a, b, s in path.sojourns() if s == "1"]
        mean = np.mean(sojourns)
        stderr = np.std(sojourns) / np.sqrt(len(sojourns))
        assert abs(mean - 0.5) <= 3 * stderr

    def test_kernel_matches_semigroup(self, b2):
        t = 0.7
        trials = 10_000
        hits = sum(
            ms.simulate(b2, "1", t, seed=(99, k)).state_at(t) == "1"
            for k in range(trials))
        p_emp = hits / trials
        p_exact = expm_law(b2, "1", t)[b2.index["1"]]
        stderr = np.sqrt(p_exact * (1 - p_exact) / trials)
        assert abs(p_emp - p_exact) <= 3 * stderr

    def test_distribution_start(self, b2):
        pi = ms.stationary(b2)
        path = ms.simulate(b2, pi, 5.0, seed=3)
        assert path.initial in {"1", "2"}

    def test_zero_range_paths_follow_reference_edges(self):
        spec = ms.zero_range(3, 8, 3.0, 0.5)
        reference = reference_zero_range(3, 8, 3.0, 0.5)
        path = ms.simulate(spec.chain, spec.chain.states[0], 50.0, seed=4)
        assert path.events
        prev = path.initial
        for _, s in path.events:
            assert reference.rate(prev, s) > 0
            prev = s


class TestOccupationTime:
    def test_full_set_exact(self, b2):
        path = ms.simulate(b2, "1", 123.0, seed=5)
        assert ms.occupation_time(path, {"1", "2"}) == 123.0

    def test_empty_set(self, b2):
        path = ms.simulate(b2, "1", 123.0, seed=5)
        assert ms.occupation_time(path, set()) == 0.0

    def test_hand_path_bookkeeping(self):
        path = ms.Path("a", ((1.0, "b"), (2.5, "a"), (6.0, "b")), 8.0)
        assert ms.occupation_time(path, {"b"}) == (2.5 - 1.0) + (8.0 - 6.0)
        assert ms.occupation_time(path, {"a"}) == 1.0 + (6.0 - 2.5)

    def test_complement_identity_dyadic(self):
        # dyadic jump times make the run arithmetic exact
        path = ms.Path("a", ((0.25, "b"), (0.5, "a"), (1.75, "c"), (2.5, "a")), 4.0)
        t_a = ms.occupation_time(path, {"a"})
        t_rest = ms.occupation_time(path, {"b", "c"})
        assert t_a + t_rest == 4.0


class TestTimeChange:
    def test_identity_when_inside(self, b2):
        path = ms.Path("1", ((1.5, "2"), (3.0, "1")), 5.0)
        sf = ms.time_change(path, {"1", "2"})
        for u in (0.0, 1.0, 2.7, 4.9):
            assert sf(u) == u
        assert sf.total == 5.0

    def test_figure_style_skips_excursions(self):
        path = ms.Path("a", ((2.0, "x"), (3.0, "a"), (5.0, "y"), (6.0, "b")), 8.0)
        sf = ms.time_change(path, {"a", "b"})
        assert sf.total == (2.0 - 0.0) + (5.0 - 3.0) + (8.0 - 6.0)
        assert sf(0.5) == 0.5
        assert sf(2.0) == 3.0          # right-continuous jump over the excursion
        assert sf(3.5) == 4.5
        assert sf(4.0) == 6.0
        assert sf(5.5) == 7.5

    def test_roundtrip_random(self, b2):
        path = ms.simulate(b2, "1", 50.0, seed=6)
        sf = ms.time_change(path, {"1"})
        rng = np.random.default_rng(0)
        for u in rng.uniform(0, sf.total * 0.999, size=40):
            t = sf(u)
            # T_F(S_F(u)) == u: occupation up to t equals u
            clipped = ms.Path(path.initial, tuple((x, s) for x, s in path.events
                                                  if x < t), max(t, 1e-12)) \
                if t > 0 else None
            occ = ms.occupation_time(clipped, {"1"}) if clipped else 0.0
            assert occ == pytest.approx(u, abs=1e-9)


class TestTracePath:
    def test_inside_set_unchanged(self, b2):
        path = ms.Path("1", ((1.0, "2"), (2.0, "1")), 4.0)
        traced = ms.trace_path(path, {"1", "2"})
        assert traced == path

    def test_figure_style_concatenation(self):
        path = ms.Path("a", ((2.0, "x"), (3.0, "a"), (5.0, "y"), (6.0, "b")), 8.0)
        traced = ms.trace_path(path, {"a", "b"})
        assert traced.initial == "a"
        assert traced.events == ((4.0, "b"),)
        assert traced.horizon == 6.0

    def test_roundtrip_with_occupation(self, b2):
        for seed in range(10):
            path = ms.simulate(b2, "1", 80.0, seed=seed)
            occ = ms.occupation_time(path, {"1"})
            traced = ms.trace_path(path, {"1"})
            assert traced.horizon == occ

    def test_composition(self):
        # the two routes group the excised-gap sums differently, so event
        # times agree to rounding rather than bit for bit
        rng = np.random.default_rng(7)
        chain = random_chain(rng, 8)
        for seed in range(5):
            path = ms.simulate(chain, chain.states[0], 60.0, seed=seed)
            f1 = set(chain.states[:6])
            f2 = set(chain.states[:3])
            direct = ms.trace_path(path, f2)
            nested = ms.trace_path(ms.trace_path(path, f1), f2)
            assert direct.initial == nested.initial
            assert [s for _, s in direct.events] == [s for _, s in nested.events]
            assert direct.horizon == pytest.approx(nested.horizon, abs=1e-12)
            for (t1, _), (t2, _) in zip(direct.events, nested.events):
                assert t1 == pytest.approx(t2, abs=1e-12)


class TestLastPassage:
    def test_no_delta_unchanged(self):
        path = ms.Path(1, ((1.0, 2), (2.0, 1)), 4.0)
        assert ms.last_passage_path(path) == path

    def test_definitional_rewrite(self):
        path = ms.Path(1, ((1.0, 0), (2.0, 2)), 4.0)
        out = ms.last_passage_path(path)
        assert out.initial == 1
        assert out.events == ((2.0, 2),)

    def test_return_to_same_valley_disappears(self):
        path = ms.Path(1, ((1.0, 0), (2.0, 1), (3.0, 0)), 4.0)
        out = ms.last_passage_path(path)
        assert out.events == ()

    def test_rejects_delta_start(self):
        with pytest.raises(StartsInDelta):
            ms.last_passage_path(ms.Path(0, ((1.0, 1),), 2.0))

    def test_agrees_with_trace_off_delta(self, bd3, bd3_partition):
        for seed in range(5):
            raw = ms.simulate(bd3, "1", 40.0, seed=seed)
            coarse = ms.project(raw, bd3_partition, "phi")
            lp = ms.last_passage_path(coarse)
            rng = np.random.default_rng(seed)
            for t in rng.uniform(0, 40.0, size=50):
                if coarse.state_at(t) != 0:
                    assert lp.state_at(t) == coarse.state_at(t)


class TestProject:
    def test_single_valley_constant(self, bd3):
        part = ms.Partition((frozenset({"1", "2"}), frozenset({"3"})))
        path = ms.Path("1", ((1.0, "2"), (2.0, "1")), 4.0)
        coarse = ms.project(path, part, "phi")
        assert coarse.initial == 1 and coarse.events == ()

    def test_psi_rejects_delta(self, bd3, bd3_partition):
        path = ms.Path("1", ((1.0, "2"),), 2.0)
        with pytest.raises(TouchesDelta):
            ms.project(path, bd3_partition, "psi")

    def test_glued_membership_spotcheck(self):
        spec = ms.glued_cubes(2, 4, 1)
        raw = ms.simulate(spec.chain, sorted(spec.partition.valley(1))[0],
                          200.0, seed=9)
        coarse = ms.project(raw, spec.partition, "phi")
        label_map = spec.partition.label_map()
        rng = np.random.default_rng(1)
        for t in rng.uniform(0, 200.0, size=60):
            assert coarse.state_at(t) == label_map[raw.state_at(t)]
        assert set(coarse.states_visited()) <= {0, 1, 2, 3, 4}

    def test_commutation_psi_trace(self, bd3, bd3_partition):
        union = sorted(bd3_partition.union())
        for seed in range(6):
            raw = ms.simulate(bd3, "1", 30.0, seed=seed)
            lhs = ms.project(ms.trace_path(raw, union), bd3_partition, "psi")
            rhs = ms.trace_path(ms.project(raw, bd3_partition, "phi"), {1, 2})
            assert lhs == rhs


class TestSkorohodDistance:
    def test_identical_zero(self, bd3, bd3_partition):
        raw = ms.simulate(bd3, "1", 20.0, seed=10)
        coarse = ms.project(raw, bd3_partition, "phi")
        assert ms.skorohod_distance(coarse, coarse) == 0.0

    def test_single_jump_shift(self):
        eps = 1.0 / 128.0
        p1 = ms.Path(1, ((0.5, 0),), 10.0)
        p2 = ms.Path(1, ((0.5 + eps, 0),), 10.0)
        d = ms.skorohod_distance(p1, p2)
        assert d <= eps * (1 - 2.0 ** -8) + 1e-15
        assert d > 0

    def test_distinct_constants(self):
        p1 = ms.Path(1, (), 10.0)
        p2 = ms.Path(2, (), 10.0)
        assert ms.skorohod_distance(p1, p2) == \
            pytest.approx(255 / 256, abs=1e-12)

    def test_valley_numbering_does_not_matter(self):
        # shifted jumps between three valleys; the labels used to weigh the shift
        p1 = ms.Path(1, ((0.25, 3), (0.75, 2), (2.5, 1)), 10.0)
        p2 = ms.Path(1, ((0.375, 3), (0.5, 2), (2.75, 3)), 10.0)
        renumber = {1: 2, 2: 3, 3: 1}

        def renumbered(path):
            return ms.Path(renumber[path.initial],
                           tuple((t, renumber[s]) for t, s in path.events), path.horizon)

        assert ms.skorohod_distance(renumbered(p1), renumbered(p2)) == \
            ms.skorohod_distance(p1, p2)

    def test_symmetry(self, bd3, bd3_partition):
        a = ms.project(ms.simulate(bd3, "1", 15.0, seed=11), bd3_partition, "phi")
        b = ms.project(ms.simulate(bd3, "3", 15.0, seed=12), bd3_partition, "phi")
        assert ms.skorohod_distance(a, b) == ms.skorohod_distance(b, a)


    def test_candidates_match_exact_reference(self):
        # every candidate of the first 25 criterion-11 pairs, against Fraction arithmetic
        for path, part in itertools.islice(surgery_paths(111), 25):
            lp = ms.last_passage_path(ms.project(path, part, "phi"))
            psi = ms.project(ms.trace_path(path, sorted(part.union())), part, "psi")
            expected = 0.0
            for m in map(float, range(1, 9)):
                dm = 1.0
                for a, b in ((lp, psi), (psi, lp)):
                    a_seg, b_seg = pathsim._segments_upto(a, m), pathsim._segments_upto(b, m)
                    for anchors in ([(0.0, 0.0), (m, m)],
                                    pathsim._alignment_anchors(a_seg, b_seg, m),
                                    pathsim._in_order_anchors(a_seg, b_seg, m)):
                        exact = exact_candidate_objective(anchors, a_seg, b_seg, m)
                        assert pathsim._evaluate_candidate(anchors, a_seg, b_seg, m) == \
                            pytest.approx(exact, abs=1e-12), (anchors, a_seg, b_seg, m)
                        dm = min(dm, exact)
                expected += 2.0 ** -m * dm
            assert ms.skorohod_distance(lp, psi) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("anchors, a_seg, b_seg, expected", [
        # alignment: a's jump at 2.9037969285672887 is an anchor's image
        ([(0.0, 0.0), (0.2697890694654595, 0.2697890694654595),
          (2.702259294243364, 2.9037969285672887), (3.0, 3.0)],
         ([0.2697890694654595, 2.6378811926573964, 2.9037969285672887], [3, 2, 1, 2]),
         ([0.2697890694654595, 2.702259294243364], [3, 2, 1]),
         0.5433102501547612),
        # identity: both paths jump at the same five times
        ([(0.0, 0.0), (3.0, 3.0)],
         ([0.17992360235355945, 0.30374467207235445, 0.3048527249263128,
           0.4105138619587528, 0.710143730527198], [1, 3, 1, 3, 1, 2]),
         ([0.17992360235355945, 0.30374467207235445, 0.3048527249263128,
           0.4105138619587528, 0.710143730527198, 2.5466367715024525, 2.549711591372598],
          [1, 3, 1, 3, 1, 2, 1, 2]),
         0.4533632284975475),
    ], ids=["alignment", "identity"])
    def test_candidate_with_jumps_on_grid_points(self, anchors, a_seg, b_seg, expected):
        got = pathsim._evaluate_candidate(anchors, a_seg, b_seg, 3.0)
        assert got == pytest.approx(expected, abs=1e-12)
        assert exact_candidate_objective(anchors, a_seg, b_seg, 3.0) == \
            pytest.approx(expected, abs=1e-12)


def _times_91(theta, delta):
    """The chain times estimate_91 reads for ``theta`` and ``delta``."""
    return [s * theta for s in pathsim.short_time_grid(delta)]


class TestEstimateT2:
    def test_empty_delta_exact_zero(self, b2):
        part = ms.Partition((frozenset({"1"}), frozenset({"2"})))
        est = ms.estimate_T2(ms.sample_valleys(b2, part, [1.0], 10, 0), 1.0, 1.0)
        assert est.worst_mean == 0.0

    def test_empty_delta_all_zero_means(self, b2):
        sample = ms.sample_valleys(b2, _two_valleys_no_delta(), [1.0], 10, 0)
        est = ms.estimate_T2(sample, 1.0, 1.0)
        assert [(r.valley, r.mean, r.stderr) for r in est.per_valley] == \
            [(1, 0.0, 0.0), (2, 0.0, 0.0)]

    def test_birth_death_matches_semigroup_integral(self, bd3, bd3_partition):
        theta, horizon, trials = 2.0, 1.0, 3000
        sample = ms.sample_valleys(bd3, bd3_partition, [horizon * theta], trials, 21)
        est = ms.estimate_T2(sample, theta, horizon)
        exact = {
            "1": occupation_integral(bd3, "1", ["2"], horizon, theta),
            "3": occupation_integral(bd3, "3", ["2"], horizon, theta),
        }
        for row in est.per_valley:
            assert abs(row.mean - exact[row.start]) <= 3 * row.stderr
        # stationary-bound sanity: mean <= horizon * pi(delta)/pi(start)
        assert est.worst_mean <= horizon * (1 / 3) / (1 / 3) + 1e-9

    def test_zero_range_direction(self):
        means = []
        for N in (8, 12):
            spec = ms.zero_range(3, N, 3.0, 0.5)
            pi = ms.stationary(spec.chain)
            theta = ms.coarse_rates(spec.chain, pi, spec.partition).timescales[0]
            sample = ms.sample_valleys(spec.chain, spec.partition, [0.3 * theta], 40, 23,
                                       spec.partition.reference_states(spec.chain, pi))
            means.append(ms.estimate_T2(sample, theta, 0.3).worst_mean)
        assert means[1] < means[0]

    def test_reproducible(self, bd3, bd3_partition):
        a = ms.estimate_T2(ms.sample_valleys(bd3, bd3_partition, [2.0], 100, 5), 2.0, 1.0)
        b = ms.estimate_T2(ms.sample_valleys(bd3, bd3_partition, [2.0], 100, 5), 2.0, 1.0)
        assert a == b

    def test_estimate_names_the_start_valley(self, bd3, bd3_partition):
        sample = ms.sample_valleys(bd3, bd3_partition, [2.0], 50, 5, starts=("3", "1"))
        est = ms.estimate_T2(sample, 2.0, 1.0)
        assert [(r.valley, r.start) for r in est.per_valley] == [(2, "3"), (1, "1")]
        part = ms.Partition((frozenset({"1"}), frozenset({"2", "3"})))
        est = ms.estimate_T2(ms.sample_valleys(bd3, part, [2.0], 5, 5, starts=("3",)), 2.0, 1.0)
        assert est.per_valley[0].valley == 2

    def test_default_starts_in_deep_wells(self):
        # the reference states come off the partition route's pi, which stays
        # right in these deep wells (the chain killed at one state does not)
        spec = ms.build_from_string("potential_rw:N=64,points=81")
        sample = ms.sample_valleys(spec.chain, spec.partition, [1.0], 2, 0)
        assert sample.starts == ("(-1)", "(1)")

    # delta None samples at the T2 horizon, delta 0.5 on the short-time grid of 9.1
    @pytest.mark.parametrize("delta", [None, 0.5])
    def test_unknown_start(self, bd3, bd3_partition, delta):
        times = [2.0] if delta is None else _times_91(2.0, delta)
        with pytest.raises(BadSpec, match="unknown start"):
            ms.sample_valleys(bd3, bd3_partition, times, 10, 0, starts=("zz",))

    @pytest.mark.parametrize("delta", [None, 0.5])
    def test_delta_start(self, bd3, bd3_partition, delta):
        times = [2.0] if delta is None else _times_91(2.0, delta)
        with pytest.raises(BadPartition, match="must lie in a valley"):
            ms.sample_valleys(bd3, bd3_partition, times, 10, 0, starts=("2",))


class TestEstimate91:
    def test_empty_delta(self, b2):
        part = ms.Partition((frozenset({"1"}), frozenset({"2"})))
        est = ms.estimate_91(ms.sample_valleys(b2, part, _times_91(1.0, 0.5), 10, 0), 1.0, 0.5)
        assert est.sup == 0.0

    def test_birth_death_matches_semigroup(self, bd3, bd3_partition):
        theta, delta, trials = 2.0, 1.0, 3000
        sample = ms.sample_valleys(bd3, bd3_partition, _times_91(theta, delta), trials, 31)
        est = ms.estimate_91(sample, theta, delta)
        for start, probs in est.probabilities.items():
            for s, p_emp, se in zip(est.grid, probs, est.stderr[start]):
                p_exact = float(expm_law(bd3, start, s * theta)[bd3.index["2"]])
                assert abs(p_emp - p_exact) <= 3 * max(se, 1e-3)

    def test_grid_has_sixteen_points(self, bd3, bd3_partition):
        sample = ms.sample_valleys(bd3, bd3_partition, _times_91(1.0, 0.25), 10, 1)
        est = ms.estimate_91(sample, 1.0, 0.25)
        assert len(est.grid) == 16
        assert est.grid[0] == pytest.approx(0.25)
        assert est.grid[-1] == pytest.approx(0.5)


class TestFddCompare:
    def test_time_zero_is_point_mass(self, bd3, bd3_partition):
        pi = ms.stationary(bd3)
        model = ms.coarse_rates(bd3, pi, bd3_partition, 2.0)
        # a sample needs a positive horizon; only time 0 is read
        sample = ms.sample_valleys(bd3, bd3_partition, [0.0, 1.0], 50, 1, ["1"])
        rep = ms.fdd_compare(sample, model, [0.0], "1")
        row = rep.rows[0]
        assert row.empirical == (1.0, 0.0)
        assert row.delta_mass == 0.0
        assert row.tv == 0.0

    def test_empirical_matches_projected_semigroup(self, bd3, bd3_partition):
        theta, trials = 2.0, 4000
        pi = ms.stationary(bd3)
        model = ms.coarse_rates(bd3, pi, bd3_partition, theta)
        sample = ms.sample_valleys(bd3, bd3_partition, [0.5 * theta, 1.0 * theta],
                                   trials, 41, ["1"])
        rep = ms.fdd_compare(sample, model, [0.5, 1.0], "1")
        for row in rep.rows:
            law = expm_law(bd3, "1", row.t * theta)
            exact = np.array([law[bd3.index["1"]], law[bd3.index["3"]]])
            exact_delta = law[bd3.index["2"]]
            tv_oracle = 0.5 * (np.abs(np.array(row.empirical) - exact).sum()
                               + abs(row.delta_mass - exact_delta))
            assert tv_oracle <= 0.05

    def test_reproducible_and_jobs_independent(self, bd3, bd3_partition):
        pi = ms.stationary(bd3)
        model = ms.coarse_rates(bd3, pi, bd3_partition, 2.0)
        a, b, c = (ms.fdd_compare(ms.sample_valleys(bd3, bd3_partition, [1.0], 200, 7, ["1"],
                                                    jobs=jobs), model, [0.5], "1")
                   for jobs in (1, 1, 2))
        assert a == b == c


class _NearOneRng:
    """A generator whose uniforms are all 1 - 2**-53 and whose holding times are their means."""

    def __init__(self, seed):
        pass

    def standard_exponential(self, size):
        return np.ones(size)

    def random(self, size):
        return np.full(size, 1.0 - 2.0 ** -53)


class TestJumpTables:
    CHAIN = "zero_range:L=4,N=8,alpha=3,p=0.7"

    def test_rows_end_at_one(self):
        spec = ms.build_from_string(self.CHAIN)
        rows, mean_holding = pathsim._chain_tables(spec.chain)
        assert len(rows) == len(mean_holding) == 165
        assert all(cumprob[-1] == 1.0 for _, cumprob in rows)

    def test_uniform_near_one_picks_last_target(self, monkeypatch):
        chain = ms.build_from_string(self.CHAIN).chain
        rows, mean_holding = pathsim._chain_tables(chain)
        monkeypatch.setattr(pathsim.np.random, "default_rng", _NearOneRng)
        for i, start in enumerate(chain.states):
            path = ms.simulate(chain, start, 1.5 * mean_holding[i], seed=0)
            assert path.events[0] == (mean_holding[i], chain.states[rows[i][0][-1]])


def _rare_jump_chain():
    """Three targets of jump probability below 1 / G: each shares a cell with its
    neighbour's cumulative probability, and c's first one lies in the last cell."""
    return ms.build_chain(["a", "b", "c", "d"], [
        ("a", "b", 1.0), ("a", "c", 1e-5), ("a", "d", 2.0), ("b", "a", 1.0),
        ("b", "c", 1.0), ("c", "a", 1.0), ("c", "d", 1e-4), ("d", "a", 1.0),
        ("d", "b", 1e-6), ("d", "c", 3.0)])


class TestBlockSeams:
    """The lockstep kernel against the per-jump reference fed the same draws."""

    DRAWS = 60_000

    @staticmethod
    def _draws(seed, scale=1.0):
        rng = np.random.default_rng(seed)
        return (scale * rng.standard_exponential(TestBlockSeams.DRAWS),
                rng.random(TestBlockSeams.DRAWS))

    def _sample(self, chain, starts, horizon, draws):
        """Each path of one group against the reference; its times and block sizes."""
        rngs = [FixedDraws(*d) for d in draws]
        blocks = [([], []) for _ in starts]
        for k, times, states, _ in pathsim._trajectories(
                pathsim._chain_tables(chain), pathsim._guide_table(chain), starts, horizon, rngs):
            blocks[k][0].append(times)
            blocks[k][1].append(states)
        out = []
        for start, d, rng, (times, states) in zip(starts, draws, rngs, blocks):
            times, states = np.concatenate(times), np.concatenate(states)
            assert (times.tolist(), states.tolist()) == \
                reference_trajectory(chain, start, horizon, *d)
            out.append((times, rng.sizes))
        return out

    def test_long_path_crosses_full_blocks(self):
        chain = random_chain(np.random.default_rng(81), 9)
        [(times, sizes)] = self._sample(chain, [0], 20_000.0, [self._draws(82)])
        assert len(sizes) >= 3 and max(sizes) == pathsim._BLOCK
        assert sum(sizes[:-1]) < len(times) < sum(sizes)

    def test_short_paths_cross_seams(self):
        chain = random_chain(np.random.default_rng(83), 9)
        blocks = 0
        for k in range(40):
            [(_, sizes)] = self._sample(chain, [k % chain.n], 2.0 + k, [self._draws(k)])
            blocks += len(sizes)
        assert blocks > 40

    def test_horizon_on_a_jump_time_keeps_that_jump(self):
        chain = random_chain(np.random.default_rng(81), 9)
        draws = self._draws(85)
        [(times, _)] = self._sample(chain, [0], 20_000.0, [draws])
        k = pathsim._BLOCK + 17
        [(cut, sizes)] = self._sample(chain, [0], float(times[k]), [draws])
        assert len(sizes) >= 2
        assert cut.tolist() == times[:k + 1].tolist()

    def test_group_paths_end_in_different_rounds(self):
        # one path crosses full blocks; the others hold 1000 times longer and end in
        # their first block, while the group runs on
        chain = random_chain(np.random.default_rng(81), 9)
        draws = [self._draws(82)] + [self._draws(86 + k, scale=1000.0) for k in range(4)]
        out = self._sample(chain, [0, 3, 0, 5, 8], 30_000.0, draws)
        sizes = [s for _, s in out]
        assert len(out[0][0]) > 3 * pathsim._BLOCK and sizes[0][:3] == [pathsim._BLOCK] * 3
        assert all(len(s) == 1 for s in sizes[1:])
        assert all(0 < len(times) < s[0] for times, s in out[1:])

    def test_fallback_cells(self):
        # targets of jump probability below 1 / G share a cell with their neighbour,
        # and every fifth uniform equals one of the state's cumulative probabilities:
        # each such jump lands on a fallback cell
        chain = _rare_jump_chain()
        rows = pathsim._chain_tables(chain)[0]
        guide = pathsim._guide_table(chain)
        cells = guide.shape[1]
        pick = np.random.default_rng(87)
        starts, draws, fallbacks = [0, 1, 2, 3], [], 0
        for start in starts:
            holds, uniforms = self._draws(88 + start)
            state = start
            for k, u in enumerate(uniforms[:3000]):
                targets, cumprob = rows[state]
                if k % 5 == 0:
                    u = uniforms[k] = cumprob[int(pick.integers(len(cumprob) - 1))]
                fallbacks += int(guide[state, int(u * cells)] == pathsim._FALLBACK)
                state = targets[int(np.searchsorted(cumprob, u, side="left"))]
            draws.append((holds, uniforms))
        assert cells == pathsim._GUIDE and (guide == pathsim._FALLBACK).any()
        assert fallbacks >= 4 * 3000 // 5
        out = self._sample(chain, starts, 2000.0, draws)
        assert all(len(times) > 3000 for times, _ in out)


class TestGuideTable:
    @pytest.mark.parametrize("chain, every", [
        (ms.build_from_string("zero_range:L=3,N=30,alpha=3,p=0.5").chain, 7),
        (_rare_jump_chain(), 1),
    ])
    def test_cells_agree_with_bisection(self, chain, every):
        rows = pathsim._chain_tables(chain)[0]
        guide = pathsim._guide_table(chain)
        cells = guide.shape[1]
        assert guide.shape == (chain.n, pathsim._GUIDE)
        for i in range(0, chain.n, every):
            targets, cumprob = rows[i]
            for c in range(cells):
                lo = np.searchsorted(cumprob, [c / cells, (c + 1) / cells], side="left")
                want = pathsim._FALLBACK if lo[0] != lo[1] else targets[lo[0]] * cells
                assert guide[i, c] == want

    def test_cells_shrink_to_the_cap(self, monkeypatch):
        monkeypatch.setattr(pathsim, "_GUIDE_CELLS", 4000)
        chain = random_chain(np.random.default_rng(89), 9)
        assert pathsim._guide_table(chain).shape == (9, 256)


class TestTrialRecorder:
    """The sampler's records against the public Path surgeries."""

    def test_matches_path_surgeries(self):
        rng = np.random.default_rng(71)
        for case in range(12):
            chain = random_chain(rng, int(rng.integers(5, 12)))
            part = random_partition(rng, chain, int(rng.integers(2, 4)))
            label_map = part.label_map()
            in_valleys = [s for s in chain.states if label_map[s] != 0]
            starts = [in_valleys[i] for i in rng.choice(len(in_valleys), 2, replace=False)]
            horizon = float(rng.uniform(5.0, 40.0))
            paths = [[ms.simulate(chain, start, horizon, seed=(case + 1000 * i, k))
                      for k in range(5)] for i, start in enumerate(starts, start=1)]
            # jump times themselves probe the right-continuous convention
            times = sorted({0.0, horizon, *rng.uniform(0.0, horizon, 6),
                            *(t for row in paths for p in row for t, _ in p.events[:2])})
            sample = ms.sample_valleys(chain, part, times, 5, case, starts)
            assert sample.times == tuple(times)
            for m, row in enumerate(paths):
                for k, path in enumerate(row):
                    assert sample.at[m, k].tolist() == \
                        [label_map[path.state_at(t)] for t in times]
                    assert sample.occupation[m, k].tolist() == \
                        [ms.occupation_time(_cut(path, t), part.delta) if t > 0 else 0.0
                         for t in times]
                    assert sample.occupation[m, k, -1] == ms.occupation_time(path, part.delta)


def _cut(path, t):
    """``path`` on [0, t]."""
    return ms.Path(path.initial, tuple(e for e in path.events if e[0] <= t), t)


class TestGroups:
    """Lockstep groups of any split give the sample that paths drawn one by one give."""

    def test_split_groups_agree(self, monkeypatch):
        rng = np.random.default_rng(91)
        chain = random_chain(rng, 9)
        part = random_partition(rng, chain, 2)
        label_map = part.label_map()
        starts = [sorted(v)[0] for v in part.valleys]
        horizon, seed, trials = 6000.0, 13, 3
        # the first path's two full blocks end on jump times: each is recorded in
        # the round after the one that drew it
        start0 = chain.index[starts[0]]
        rng0 = np.random.default_rng((seed + 1000, 0))
        rounds = pathsim._trajectories(pathsim._chain_tables(chain), pathsim._guide_table(chain),
                                       [start0], horizon, [rng0])
        first_two = list(itertools.islice(rounds, 2))
        assert not any(ended for _, _, _, ended in first_two)
        seams = [float(times[-1]) for _, times, _, _ in first_two]
        times = sorted({0.0, horizon, *np.linspace(1.0, horizon, 17), *seams})
        whole = ms.sample_valleys(chain, part, times, trials, seed, starts)
        monkeypatch.setattr(pathsim, "_GROUP", 4)
        split = ms.sample_valleys(chain, part, times, trials, seed, starts)
        pooled = ms.sample_valleys(chain, part, times, trials, seed, starts, jobs=2)
        owner, grid = pathsim._layout(chain, part)[0], np.array(times)
        shared = (pathsim._chain_tables(chain), pathsim._guide_table(chain), owner, grid)
        alone = [pathsim._record_group(shared, [(chain.index[start], (seed + 1000 * i, k))])[0]
                 for i, start in enumerate(starts, start=1) for k in range(trials)]
        for sample in (split, pooled):
            assert sample.times == whole.times and sample.starts == whole.starts
            assert np.array_equal(sample.at, whole.at)
            assert np.array_equal(sample.occupation, whole.occupation)
        assert [r[0].tolist() for r in alone] == whole.at.reshape(-1, len(times)).tolist()
        assert [r[1].tolist() for r in alone] == \
            whole.occupation.reshape(-1, len(times)).tolist()
        assert whole.at.shape == (2, trials, len(times))
        path = ms.simulate(chain, starts[0], horizon, seed=(seed + 1000, 0))
        for t in [*seams, times[-1]]:
            col = times.index(t)
            assert whole.at[0, 0, col] == label_map[path.state_at(t)]
            assert whole.occupation[0, 0, col] == ms.occupation_time(_cut(path, t), part.delta)


class TestWorkerPool:
    """Each sample opens at most one pool, bounded by trials and CPUs."""

    @pytest.mark.parametrize("trials, jobs, workers", [(20, 5000, 3), (2, 5000, 2), (20, 2, 2)])
    def test_pool_bound(self, bd3, bd3_partition, pools, trials, jobs, workers):
        pi = ms.stationary(bd3)
        model = ms.coarse_rates(bd3, pi, bd3_partition, 2.0)
        rep = ms.fdd_compare(ms.sample_valleys(bd3, bd3_partition, [1.0], trials, 7, ["1"],
                                               jobs=jobs), model, [0.5], "1")
        assert pools == [workers]
        assert rep == ms.fdd_compare(ms.sample_valleys(bd3, bd3_partition, [1.0], trials, 7,
                                                       ["1"]), model, [0.5], "1")

    def test_tables_sent_once_per_pool(self, pool_sends):
        # 3 starts x 100 trials on 2 workers: 5 groups, 4 of 64 paths and one of 44
        spec = ms.build_from_string("zero_range:L=3,N=30,alpha=3,p=0.5")
        chain = spec.chain
        pooled = ms.sample_valleys(chain, spec.partition, [0.5], 100, 3, jobs=2)
        tables = len(pickle.dumps((pathsim._chain_tables(chain), pathsim._guide_table(chain))))
        assert [kind for kind, _ in pool_sends] == ["initializer"] + 5 * ["task"]
        assert pool_sends[0][1] > tables
        assert max(size for _, size in pool_sends[1:]) < 1000
        alone = ms.sample_valleys(chain, spec.partition, [0.5], 100, 3)
        assert np.array_equal(pooled.at, alone.at)
        assert np.array_equal(pooled.occupation, alone.occupation)

    def test_one_pool_for_all_starts(self, pools):
        spec = ms.build_from_string("glued_cubes:d=2,N=4,ell=1")
        starts = [sorted(v)[0] for v in spec.partition.valleys[:3]]
        sample = ms.sample_valleys(spec.chain, spec.partition, [0.5], 4, 3, starts, jobs=2)
        assert pools == [2]
        assert ms.estimate_T2(sample, 1.0, 0.5) == ms.estimate_T2(
            ms.sample_valleys(spec.chain, spec.partition, [0.5], 4, 3, starts), 1.0, 0.5)


@pytest.fixture
def no_sampling(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("sampled a trajectory with a bad input")

    monkeypatch.setattr(pathsim, "_trajectories", forbidden)


def _two_valleys_no_delta():
    return ms.Partition((frozenset({"1"}), frozenset({"2"})))


def _fixed_sample(times=(1.0,)):
    """A hand-made sample of bd3 from both valleys; no trajectory is drawn."""
    shape = (2, 1, len(times))
    return pathsim.ValleySample(tuple(times), ("1", "3"), (1, 2), 1,
                                np.ones(shape, dtype=int), np.zeros(shape))


@pytest.mark.usefixtures("no_sampling")
class TestHorizonChecks:
    """Bad horizons raise before any trajectory is sampled."""

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
    def test_simulate(self, b2, horizon):
        with pytest.raises(BadSpec, match="horizon"):
            ms.simulate(b2, "1", horizon, seed=0)

    @pytest.mark.parametrize("horizon", [0.0, math.inf])
    def test_estimate_T2(self, bd3, bd3_partition, horizon):
        with pytest.raises(BadSpec, match="horizon"):
            ms.sample_valleys(bd3, bd3_partition, [horizon * 2.0], 10, 0)

    def test_unknown_start(self, bd3, bd3_partition):
        with pytest.raises(BadSpec, match="unknown start"):
            ms.sample_valleys(bd3, bd3_partition, _times_91(2.0, 0.5), 10, 0, starts=["zz"])


@pytest.mark.usefixtures("no_sampling")
class TestValidatorInputChecks:
    """The sampler checks its starts, trials and times before sampling; the
    readers check theta, their times and their start."""

    def test_estimate_T2_zero_trials(self, bd3, bd3_partition):
        with pytest.raises(BadSpec, match="trials"):
            ms.sample_valleys(bd3, bd3_partition, [2.0], 0, 0)

    def test_estimate_91_zero_trials(self, bd3, bd3_partition):
        with pytest.raises(BadSpec, match="trials"):
            ms.sample_valleys(bd3, bd3_partition, _times_91(2.0, 0.5), 0, 0)

    def test_fdd_compare_zero_trials(self, bd3, bd3_partition):
        with pytest.raises(BadSpec, match="trials"):
            ms.sample_valleys(bd3, bd3_partition, [1.0], 0, 1, ["1"])

    def test_estimate_T2_infinite_horizon_without_delta(self, b2):
        with pytest.raises(BadSpec, match="horizon"):
            ms.sample_valleys(b2, _two_valleys_no_delta(), [math.inf], 10, 0)

    def test_estimate_91_unknown_start_without_delta(self, b2):
        with pytest.raises(BadSpec, match="unknown start"):
            ms.sample_valleys(b2, _two_valleys_no_delta(), _times_91(1.0, 0.5), 10, 0,
                              starts=["zz"])

    def test_estimate_91_delta_start(self, bd3, bd3_partition):
        with pytest.raises(BadPartition, match="must lie in a valley"):
            ms.sample_valleys(bd3, bd3_partition, _times_91(2.0, 0.5), 10, 0, starts=["2"])

    @pytest.mark.parametrize("starts", [["1", "1"], ["3", "1", "3"]])
    def test_repeated_start(self, bd3, bd3_partition, starts):
        with pytest.raises(BadSpec, match="repeated start states in " + re.escape(repr(
                tuple(starts)))):
            ms.sample_valleys(bd3, bd3_partition, [2.0], 10, 0, starts=starts)

    def test_fdd_compare_unknown_start(self, bd3, bd3_partition):
        model = ms.coarse_rates(bd3, ms.stationary(bd3), bd3_partition, 2.0)
        with pytest.raises(BadSpec, match="no start 'zz'"):
            ms.fdd_compare(_fixed_sample(), model, [0.5], "zz")

    def test_fdd_compare_repeated_time(self, bd3, bd3_partition):
        model = ms.coarse_rates(bd3, ms.stationary(bd3), bd3_partition, 2.0)
        with pytest.raises(BadSpec, match=re.escape("repeated times in (0.5, 0.5)")):
            ms.fdd_compare(_fixed_sample(), model, [0.5, 0.5], "1")

    @pytest.mark.parametrize("grid", [[1.0, math.nan, 0.5], [0.5, math.inf], [-1.0], []])
    def test_fdd_compare_bad_grid(self, bd3, bd3_partition, grid):
        with pytest.raises(BadSpec, match="sample times"):
            ms.sample_valleys(bd3, bd3_partition, [t * 2.0 for t in grid], 10, 1, ["1"])

    @pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0])
    def test_estimate_91_bad_delta(self, delta):
        with pytest.raises(BadSpec, match="delta"):
            ms.estimate_91(_fixed_sample(), 2.0, delta)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, 0.0, -2.0])
    def test_bad_theta(self, theta):
        # horizon * theta = 2 > 0 for theta = -2, a time the sample has
        with pytest.raises(BadSpec, match="theta"):
            ms.estimate_T2(_fixed_sample((2.0,)), theta, -1.0)
        with pytest.raises(BadSpec, match="theta"):
            ms.estimate_91(_fixed_sample(), theta, 0.5)

    def test_estimate_T2_names_its_own_horizon(self):
        with pytest.raises(BadSpec, match="horizon must be finite and positive, got -1.0$"):
            ms.estimate_T2(_fixed_sample(), 2.0, -1.0)

    def test_unsampled_time(self, bd3, bd3_partition):
        model = ms.coarse_rates(bd3, ms.stationary(bd3), bd3_partition, 2.0)
        sample = _fixed_sample((1.0, 2.0))
        with pytest.raises(BadSpec, match="no time 3.0"):
            ms.estimate_T2(sample, 2.0, 1.5)
        with pytest.raises(BadSpec, match="no time 1.066"):
            ms.estimate_91(sample, 2.0, 0.5)
        with pytest.raises(BadSpec, match="no time 3.0"):
            ms.fdd_compare(sample, model, [0.5, 1.5], "1")


class TestPathValidation:
    def test_rejects_bad_times(self):
        with pytest.raises(BadSpec):
            ms.Path("a", ((2.0, "b"), (1.0, "a")), 3.0)
        with pytest.raises(BadSpec):
            ms.Path("a", ((1.0, "a"),), 3.0)
        with pytest.raises(BadSpec):
            ms.Path("a", ((5.0, "b"),), 3.0)


class TestDirectionChecks:
    """Sharper valley structure shrinks the separating-set footprint."""

    def test_short_time_delta_probability_shrinks(self):
        sups = {}
        for N in (4, 8):
            spec = ms.glued_cubes(2, N, 1)
            pi = ms.stationary(spec.chain)
            theta = N * N * np.log(N)
            sample = ms.sample_valleys(spec.chain, spec.partition, _times_91(theta, 0.5), 300,
                                       91, spec.partition.reference_states(spec.chain, pi))
            sups[N] = ms.estimate_91(sample, theta, 0.5).sup
        assert sups[8] < sups[4]

    def test_fdd_gap_shrinks(self):
        tvs = {}
        for N in (8, 16):
            spec = ms.glued_cubes(2, N, 2)
            pi = ms.stationary(spec.chain)
            theta = N * N * np.log(N)
            model = ms.coarse_rates(spec.chain, pi, spec.partition, theta)
            start = sorted(spec.partition.valley(1))[0]
            sample = ms.sample_valleys(spec.chain, spec.partition, [0.5 * theta], 300, 92,
                                       [start])
            tvs[N] = ms.fdd_compare(sample, model, [0.5], start).rows[0].tv
        assert tvs[16] < tvs[8]
