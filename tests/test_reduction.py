"""Coarse-grained rates, time scales, jump probabilities, condition ratios."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import metastab as ms
from metastab import config, numerics, potential, reduction
from metastab.errors import (
    BadPartition,
    BadSpec,
    NotIrreducibleAfterReflection,
    SolverFailure,
    TooLarge,
    ToleranceViolation,
)
from metastab.specio import chain_from_dict

from conftest import (
    birth_death,
    collapsed_jump_probability,
    random_chain,
    random_partition,
    reference_point_capacities,
    scale_first,
    tamper_solves,
)
from test_golden import CASES as GOLDEN_CASES, SPECS as GOLDEN_SPECS


class TestCoarseRates:
    def test_birth_death_symmetric_escape(self, bd3, bd3_partition):
        pi = ms.stationary(bd3)
        model = ms.coarse_rates(bd3, pi, bd3_partition, 1.0)
        assert model.rate(1, 2) == pytest.approx(0.5, rel=1e-12)
        assert model.rate(2, 1) == pytest.approx(0.5, rel=1e-12)

    def test_holding_capacity_identity(self, bd3, bd3_partition):
        pi = ms.stationary(bd3)
        model = ms.coarse_rates(bd3, pi, bd3_partition, 1.0)
        mass = pi.mass(bd3.indices_of(["1"]))
        cap = ms.capacity(bd3, pi, ["1"], ["3"])
        assert mass * model.holding_rates[0] == pytest.approx(1 / 6, rel=1e-12)
        assert cap == pytest.approx(1 / 6, rel=1e-12)

    def test_glued_squares_adjacent_rates_equal(self):
        spec = ms.glued_cubes(2, 6, 1)
        pi = ms.stationary(spec.chain)
        model = ms.coarse_rates(spec.chain, pi, spec.partition,
                                spec.suggested_theta)
        for j in range(1, 5):
            left = model.rate(j, 1 + (j - 2) % 4)
            right = model.rate(j, 1 + j % 4)
            opposite = model.rate(j, 1 + (j + 1) % 4)
            assert left == pytest.approx(right, rel=1e-9)
            assert opposite < left

    def test_theta_scaling_exact(self, bd3, bd3_partition):
        pi = ms.stationary(bd3)
        base = ms.coarse_rates(bd3, pi, bd3_partition, 1.0)
        doubled = ms.coarse_rates(bd3, pi, bd3_partition, 2.0)
        assert (doubled.rates == 2.0 * base.rates).all()

    def test_identity_over_random_partitions(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            chain = random_chain(rng, int(rng.integers(6, 18)))
            pi = ms.stationary(chain)
            part = random_partition(rng, chain, int(rng.integers(2, 4)))
            theta = float(rng.uniform(0.5, 5.0))
            model = ms.coarse_rates(chain, pi, part, theta)
            for j in range(1, part.n + 1):
                mass = pi.mass(chain.indices_of(part.valley(j)))
                others = sorted(set().union(
                    *(part.valley(k) for k in range(1, part.n + 1) if k != j)))
                cap = ms.capacity(chain, pi, sorted(part.valley(j)), others)
                assert mass * model.holding_rates[j - 1] == \
                    pytest.approx(theta * cap, rel=1e-9)

    def test_non_stationary_measure_raises(self, bd3, bd3_partition):
        skewed = ms.ProbVector(np.array([0.5, 0.25, 0.25]))
        with pytest.raises(ToleranceViolation):
            ms.coarse_rates(bd3, skewed, bd3_partition, 1.0)

    def test_harmonic_measure_error_names_the_stage(self, monkeypatch):
        # only the valleys' harmonic-measure solve, one column per valley, is off
        spec = ms.build_from_string("glued_cubes:d=2,N=8,ell=2")
        tamper_solves(monkeypatch, lambda b, x: x * (1.0 + 1e-6) if b.shape[1:] == (4,) else x)
        with pytest.raises(SolverFailure, match=r"^coarse_rates: harmonic measure off the "
                                                r"boundary \(188 states\)"):
            ms.coarse_rates(spec.chain, ms.stationary(spec.chain), spec.partition)

    def test_flux_balance_error_names_the_stage(self):
        # pi on one state of valley 1 next to Delta is off by 1e-6
        spec = ms.build_from_string("glued_cubes:d=2,N=8,ell=2")
        chain, part = spec.chain, spec.partition
        w = ms.stationary(chain).weights.copy()
        delta = chain.indices_of(part.delta)
        x = next(i for i in chain.indices_of(part.valley(1)) if chain.rates[i][:, delta].nnz)
        w[x] *= 1.0 + 1e-6
        with pytest.raises(ToleranceViolation, match=r"^coarse_rates: valley 1: escape flux "
                                                     r"out .* differ by .* relative"):
            ms.coarse_rates(chain, ms.ProbVector(w / w.sum()), part)

    def test_default_theta_is_smallest_timescale(self):
        spec = ms.zero_range(3, 10, 3.0, 0.7)
        pi = ms.stationary(spec.chain)
        model = ms.coarse_rates(spec.chain, pi, spec.partition)
        assert model.theta == model.timescales.min()
        assert (model.rates == ms.coarse_rates(spec.chain, pi, spec.partition,
                                               model.theta).rates).all()

    @pytest.mark.parametrize("theta", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_theta_not_finite_positive(self, bd3, bd3_partition, theta):
        with pytest.raises(BadSpec, match="theta must be finite and positive"):
            ms.coarse_rates(bd3, ms.stationary(bd3), bd3_partition, theta)

    def test_requires_two_valleys(self, bd3):
        pi = ms.stationary(bd3)
        part = ms.Partition((frozenset({"1", "2", "3"}),))
        with pytest.raises(BadPartition):
            ms.coarse_rates(bd3, pi, part, 1.0)


def _random_case(seed, delta_fraction):
    rng = np.random.default_rng(seed)
    chain = random_chain(rng, int(rng.integers(6, 18)))
    part = random_partition(rng, chain, int(rng.integers(2, 5)), delta_fraction)
    return chain, part, float(rng.uniform(0.5, 8.0))


def _spec_case(spec):
    return spec.chain, spec.partition, spec.suggested_theta


REFERENCE_CASES = {
    "birth_death_5": lambda: (birth_death(5), ms.Partition(
        (frozenset({"1"}), frozenset({"3"}), frozenset({"5"})),
        frozenset({"2", "4"})), 2.0),
    "glued_2_6_1": lambda: _spec_case(ms.glued_cubes(2, 6, 1)),
    "zero_range_p05": lambda: _spec_case(ms.zero_range(3, 10, 3.0, 0.5)),
    "zero_range_p07": lambda: _spec_case(ms.zero_range(3, 10, 3.0, 0.7)),
    "double_well": lambda: _spec_case(ms.potential_rw(
        [np.linspace(-2, 2, 21)], lambda x: (x * x - 1) ** 2, 8.0)),
    **{f"random_{seed}_delta": (lambda seed=seed: _random_case(seed, 0.3))
       for seed in (51, 52, 53)},
    **{f"random_{seed}_no_delta": (lambda seed=seed: _random_case(seed, 0.0))
       for seed in (54, 55, 56)},
    # 861 states: large enough that the reference ratio solves a few states only
    "zero_range_n861": lambda: _spec_case(ms.zero_range(3, 40, 3.0, 0.7)),
}


def _reference_capacity_ratio(chain, pi, valley, ref, cap):
    """max over x of Cap(valley, rest) / Cap(x, ref), one capacity per state.

    Above 600 states only a handful of states are solved, always including
    the state that sets the ratio."""
    states = [s for s in sorted(valley) if s != ref]
    if not states:
        return 0.0
    if chain.n > 600:
        ix = chain.indices_of(valley)
        point = reference_point_capacities(chain, pi, ix, chain.index[ref], "test")
        xs = [chain.states[i] for i in ix if chain.states[i] != ref]
        for x in (xs[0], xs[len(xs) // 2], xs[-1]):
            assert point[xs.index(x)] == pytest.approx(
                ms.capacity(chain, pi, [x], [ref]), rel=1e-9)
        states = [xs[int(np.argmin(point))]]
    return max(cap / ms.capacity(chain, pi, [x], [ref]) for x in states)


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_reduction_matches_reference_routes(case):
    """Time scales, capacities, rates, jump probabilities and capacity ratios
    against routes that share no code with the reduction: per-valley and
    per-state capacity solves, the trace chain on the valley union, and the
    collapsed chain."""
    chain, part, theta = REFERENCE_CASES[case]()
    pi = ms.stationary(chain)
    model = ms.coarse_rates(chain, pi, part, theta)
    profile = ms.timescales(chain, pi, part)
    report = ms.check_conditions(chain, pi, part, model)
    traced, pi_t = ms.trace_chain(chain, pi, sorted(part.union()))
    t_idx = [traced.indices_of(v) for v in part.valleys]
    for j in range(1, part.n + 1):
        valley = sorted(part.valley(j))
        mass = pi.mass(chain.indices_of(valley))
        cap = ms.capacity(chain, pi, valley, sorted(part.others(j)))
        assert model.diagnostics["valley_capacities"][j - 1] == \
            pytest.approx(cap, rel=1e-9)
        assert profile.values[j - 1] == pytest.approx(mass / cap, rel=1e-9)
        assert report.capacity_ratio[j - 1] == pytest.approx(_reference_capacity_ratio(
            chain, pi, valley, report.reference_states[j - 1], cap), rel=1e-9)
        w = pi_t.weights[t_idx[j - 1]]
        probs = ms.jump_probabilities(chain, pi, part, j)
        for k in range(1, part.n + 1):
            if k == j:
                continue
            block = traced.rates[t_idx[j - 1]][:, t_idx[k - 1]].toarray()
            via_trace = theta * float(w @ block.sum(axis=1)) / w.sum()
            assert model.rate(j, k) == pytest.approx(via_trace, rel=1e-9)
            assert probs[k] == pytest.approx(
                collapsed_jump_probability(chain, pi, part, j, k), rel=1e-9)


# every analyze input of the golden reports: a spec name or a model string
GOLDEN_ANALYZE = sorted({spec or args[args.index("--model") + 1]
                         for spec, args in GOLDEN_CASES.values() if args[0] == "analyze"})


@pytest.mark.parametrize("source", GOLDEN_ANALYZE + ["potential_rw:N=16,points=81",
                                                     "potential_rw:N=64,points=81"])
def test_valley_flux_matches_the_trace_chain_route(source):
    """Phi(j, k) = sum_{x in E_j} pi(x) T_F(x, E_k), read off the dense trace
    chain T_F on the valley union, gives coarse_rates' capacities and rates."""
    if source in GOLDEN_SPECS:
        chain, part = chain_from_dict(GOLDEN_SPECS[source])
    else:
        spec = ms.build_from_string(source)
        chain, part = spec.chain, spec.partition
    pi = ms.stationary(chain, part)
    model = ms.coarse_rates(chain, pi, part)
    f = chain.indices_of(part.union())
    member = np.eye(part.n)[part.validate_for(chain)[f] - 1]
    flux = member.T @ (pi.weights[f, np.newaxis] * potential._trace_rates(chain, f)) @ member
    np.fill_diagonal(flux, 0.0)
    np.testing.assert_allclose(model.capacities, flux.sum(axis=1), rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(model.rates, model.theta * flux / model.masses[:, np.newaxis],
                               rtol=1e-14, atol=0.0)


def test_library_pipeline_makes_one_valley_solve(monkeypatch):
    """timescales, coarse_rates and jump_probabilities for every valley read
    the valleys' one harmonic-measure solve, which the chain keeps."""
    spec = ms.build_from_string("glued_cubes:d=2,N=8,ell=2")
    chain, part = spec.chain, spec.partition
    pi = ms.stationary(chain)
    solve = reduction._harmonic_measure
    calls = []

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(reduction, "_harmonic_measure", counted)
    theta = float(ms.timescales(chain, pi, part).values.min())
    ms.coarse_rates(chain, pi, part, theta)
    for j in range(1, part.n + 1):
        ms.jump_probabilities(chain, pi, part, j)
    assert part.n == 4
    assert len(calls) == 1


# the analyze rungs of the benchmark's reduce-sweep workload
SWEEP_RUNGS = (
    "glued_cubes:d=2,N=8,ell=2",
    "glued_cubes:d=2,N=16,ell=4",
    "zero_range:L=3,N=30,alpha=3,p=0.5",
    "zero_range:L=3,N=60,alpha=3,p=0.7",
    "zero_range:L=4,N=20,alpha=3,p=0.7",
)


@pytest.mark.parametrize("rung", SWEEP_RUNGS)
def test_capacity_ratio_matches_whole_chain_route(rung):
    """The capacity ratios read off the trace chain on the valleys match
    those of the Green function of the whole chain killed at ref."""
    spec = ms.build_from_string(rung)
    chain, part = spec.chain, spec.partition
    pi = ms.stationary(chain)
    model = ms.coarse_rates(chain, pi, part)
    report = ms.check_conditions(chain, pi, part, model)
    for j, ref in enumerate(report.reference_states, start=1):
        point = reference_point_capacities(chain, pi, chain.indices_of(part.valley(j)),
                                           chain.index[ref], "reference")
        assert report.capacity_ratio[j - 1] == pytest.approx(
            model.capacities[j - 1] / point.min(), rel=1e-12, abs=0.0)


def test_delta_factor_fill_under_symmetric_ordering(monkeypatch):
    """Minimum degree on K^T + K with diagonal pivots keeps the fill of the
    block off the valleys near half of SuperLU's default column ordering."""
    spec = ms.build_from_string("zero_range:L=4,N=20,alpha=3,p=0.7")
    chain, part = spec.chain, spec.partition
    pi = ms.stationary(chain)
    factor = spla.splu
    factors = []

    def recorded(a, *args, **kwargs):
        lu = factor(a, *args, **kwargs)
        factors.append(lu)
        return lu

    monkeypatch.setattr(spla, "splu", recorded)
    ms.coarse_rates(chain, pi, part)
    delta = [lu for lu in factors if lu.shape[0] == len(part.delta)]
    assert len(part.delta) == 1631 and len(delta) == 1
    assert delta[0].L.nnz + delta[0].U.nnz <= 180_000
    assert factors and all(np.array_equal(lu.perm_r, lu.perm_c) for lu in factors)


def _green_solves(monkeypatch, tamper=None):
    """Record the size of every solve whose right-hand side is an identity
    matrix: the Green-function solves of check_conditions.  ``tamper(b, x)``
    may alter the first such solution in place."""
    seen = []

    def recorded(b, x):
        if b.ndim == 2 and b.shape[0] == b.shape[1] and (b == np.eye(len(b))).all():
            if tamper is not None and not seen:
                tamper(b, x)
            seen.append(b.shape[1])
        return x

    tamper_solves(monkeypatch, recorded)
    return seen


@pytest.mark.parametrize("case", ["birth_death_5", "glued_2_6_1", "zero_range_p07",
                                  "random_51_delta", "zero_range_n861"])
def test_one_point_capacity_solve_per_valley(case, monkeypatch):
    chain, part, theta = REFERENCE_CASES[case]()
    pi = ms.stationary(chain)
    model = ms.coarse_rates(chain, pi, part, theta)

    def forbidden(*args, **kwargs):
        raise AssertionError("check_conditions called potential.capacity")

    monkeypatch.setattr(potential, "capacity", forbidden)
    monkeypatch.setattr(reduction, "capacity", forbidden)
    solves = _green_solves(monkeypatch)
    factor = spla.splu
    sizes = []

    def counted(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return factor(a, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    ms.check_conditions(chain, pi, part, model)
    assert sorted(solves) == sorted(len(v) - 1 for v in part.valleys if len(v) > 1)
    # the factorization of the block off the valleys that coarse_rates left on
    # the chain is reused, and every valley step is dense
    assert sizes == []


@pytest.mark.parametrize("case", ["birth_death_5", "glued_2_6_1", "random_51_delta"])
def test_check_conditions_runs_no_flux_kernel(case, monkeypatch):
    chain, part, theta = REFERENCE_CASES[case]()
    pi = ms.stationary(chain)
    model = ms.coarse_rates(chain, pi, part, theta)
    expected = ms.check_conditions(chain, pi, part, model).to_dict()

    def forbidden(*args, **kwargs):
        raise AssertionError("check_conditions ran the valley-flux kernel")

    monkeypatch.setattr(reduction, "_valley_flux", forbidden)
    report = ms.check_conditions(chain, pi, part, model)
    assert report.to_dict() == expected
    assert report.theta == theta
    assert report.measure_ratio == tuple(model.delta_mass / m for m in model.masses)


def test_check_conditions_rejects_a_model_of_another_partition(bd3, bd3_partition):
    chain = birth_death(5)
    pi = ms.stationary(chain)
    part = ms.Partition((frozenset({"1"}), frozenset({"3"}), frozenset({"5"})),
                        frozenset({"2", "4"}))
    other = ms.coarse_rates(bd3, ms.stationary(bd3), bd3_partition)
    with pytest.raises(BadPartition, match="2 valleys"):
        ms.check_conditions(chain, pi, part, other)
    # as many valleys, but not the same ones
    same_count = ms.Partition((frozenset({"1", "2"}), frozenset({"3"}), frozenset({"4", "5"})))
    with pytest.raises(BadPartition, match="valley 1: the reduced model's mass"):
        ms.check_conditions(chain, pi, part, ms.coarse_rates(chain, pi, same_count))
    report = ms.check_conditions(chain, pi, part, ms.coarse_rates(chain, pi, part))
    assert report.theta == pytest.approx(1.0, rel=1e-12)
    assert report.measure_ratio == pytest.approx((2.0, 2.0, 2.0), rel=1e-12)


@pytest.mark.parametrize("entry, factor, error, phrase", [
    ("diagonal", 2.0, SolverFailure, "harmonicity residual"),
    ("diagonal", 1e-3, SolverFailure, "escape probability"),
    ("column", 2.0, ToleranceViolation, "capacity routes disagree"),
])
def test_point_capacity_errors_name_their_source(entry, factor, error, phrase,
                                                 monkeypatch):
    chain, part, theta = REFERENCE_CASES["zero_range_p07"]()
    pi = ms.stationary(chain)
    model = ms.coarse_rates(chain, pi, part, theta)
    ref = part.reference_states(chain, pi)[0]
    ix = chain.indices_of(part.valley(1))
    first = chain.states[ix[ix != chain.index[ref]][0]]

    def tamper(b, x):
        row = int(np.argmax(b[:, 0]))
        x[row if entry == "diagonal" else slice(None), 0] *= factor

    _green_solves(monkeypatch, tamper)
    with pytest.raises(error) as err:
        ms.check_conditions(chain, pi, part, model)
    message = str(err.value)
    assert phrase in message
    assert message.startswith(
        f"check_conditions: valley 1, reference state {ref!r}, state {first!r}: ")


def test_point_capacity_two_form_check_names_its_source():
    """pi off by 1e-6 at one state inside valley 1 leaves the valley fluxes
    balanced but breaks D(h) = <(-L) h, h>_pi for the potentials near it."""
    spec = ms.glued_cubes(2, 6, 1)
    chain, part = spec.chain, spec.partition
    exact = ms.stationary(chain)
    ix = chain.indices_of(part.valley(1))
    ref = part.reference_states(chain, exact)[0]
    inner = [i for i in ix if chain.states[i] != ref
             and set(chain.rates[i].indices) <= set(ix)
             and set(chain.rates[:, [i]].tocoo().row) <= set(ix)]
    weights = exact.weights.copy()
    weights[inner[0]] *= 1.0 - 1e-6
    pi = ms.ProbVector(weights / weights.sum())
    model = ms.coarse_rates(chain, pi, part, spec.suggested_theta)
    with pytest.raises(ToleranceViolation) as err:
        ms.check_conditions(chain, pi, part, model)
    message = str(err.value)
    assert message.startswith(f"check_conditions: valley 1, reference state {ref!r}, state ")
    assert "not stationary" in message


@pytest.mark.parametrize("source, two_form_down_to, disagree_at", [
    ("glued_cubes:d=2,N=6,ell=1", 9, None),
    ("zero_range:L=3,N=30,alpha=3,p=0.5", 9, None),
    ("potential_rw:N=16,points=41", 7, 8),
])
def test_point_capacity_two_form_check_keeps_its_reach(source, two_form_down_to, disagree_at):
    """pi scaled by 1 - 10^-p at one inner state of valley 1: the two-form
    check fires for p <= ``two_form_down_to``, the capacity routes disagree
    at p = ``disagree_at``, and nothing fires for smaller faults."""
    spec = ms.build_from_string(source)
    chain, part = spec.chain, spec.partition
    exact = ms.stationary(chain, part)
    ix = chain.indices_of(part.valley(1))
    ref = part.reference_states(chain, exact)[0]
    inner = next(i for i in ix if chain.states[i] != ref
                 and set(chain.rates[i].indices) <= set(ix)
                 and set(chain.rates[:, [i]].tocoo().row) <= set(ix))
    for p in range(5, 13):
        weights = exact.weights.copy()
        weights[inner] *= 1.0 - 10.0 ** -p
        pi = ms.ProbVector(weights / weights.sum())
        model = ms.coarse_rates(chain, pi, part, spec.suggested_theta)
        if p <= two_form_down_to or p == disagree_at:
            phrase = "not stationary" if p <= two_form_down_to else "capacity routes disagree"
            with pytest.raises(ToleranceViolation, match=phrase):
                ms.check_conditions(chain, pi, part, model)
        else:
            ms.check_conditions(chain, pi, part, model)


def test_two_form_gap_is_half_the_squares_against_pi_l():
    """D(f) - <(-L) f, f>_w = (1/2) sum_y f(y)^2 (w L)(y) for any weights w,
    the identity by which ``_point_capacities`` forms D(h_x) from L h."""
    rng = np.random.default_rng(28)
    rates = rng.uniform(0.1, 2.0, (12, 12))
    np.fill_diagonal(rates, 0.0)
    L = rates - np.diag(rates.sum(axis=1))
    w = rng.uniform(0.5, 1.5, 12)
    assert np.abs(w @ L).max() > 0.1  # w is far from stationary
    f = rng.standard_normal((12, 5))
    edge_sum = 0.5 * np.einsum("i,ij,ijk->k", w, rates, (f[None, :] - f[:, None]) ** 2)
    inner = -np.sum(w[:, None] * f * (L @ f), axis=0)
    half_squares = 0.5 * (w @ L) @ (f * f)
    assert edge_sum - inner == pytest.approx(half_squares, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_relaxation_matches_reflected_chain_route(case):
    """Each valley's relaxation time is that of the public route, the
    reflected chain's spectral gap under its own stationary law; a valley
    the reflection disconnects has a None entry and a note."""
    chain, part, theta = REFERENCE_CASES[case]()
    pi = ms.stationary(chain)
    report = ms.check_conditions(chain, pi, part, ms.coarse_rates(chain, pi, part, theta))
    for j, ratio in enumerate(report.relaxation_ratio, start=1):
        valley = sorted(part.valley(j))
        if len(valley) == 1:
            assert ratio == 0.0
            continue
        try:
            refl = ms.reflected_chain(chain, valley, pi)
        except NotIrreducibleAfterReflection:
            assert ratio is None and report.relaxation_composite[j - 1] is None
            assert f"valley {j}: reflection disconnects; relaxation entry unavailable" \
                in report.notes
            continue
        expected = ms.spectral_gap(refl, ms.stationary(refl)).relaxation_time
        assert report.theta * ratio == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("model", ["glued_cubes:d=2,N=8,ell=2", "potential_rw:N=8,points=41",
                                   "zero_range:L=3,N=30,alpha=3,p=0.5"])
def test_reversible_valley_reads_its_reflected_law_off_pi(model):
    """A reversible chain's pi conditioned to a valley is the reflected law:
    its relaxation time is that of the reflected law's own solve."""
    spec = ms.build_from_string(model)
    chain, pi = spec.chain, ms.stationary(spec.chain)
    for j, valley in enumerate(spec.partition.valleys, start=1):
        idx = chain.indices_of(valley)
        read, solved = (reduction._valley_relaxation(chain, pi, idx, reversible, f"valley {j}")
                        for reversible in (True, False))
        assert read == pytest.approx(solved, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("factor, phrase", [
    (-1.0, r"stationary solve gave pi\(.*\) / pi\(.*\) = -"),
    (1.0 + 1e-6, "stationary residual"),
])
def test_relaxation_solve_failure_names_the_valley(factor, phrase, monkeypatch):
    """A negative or unbalanced ratio from the reflected valley's stationary
    solve (the one vector solve of check_conditions) raises naming the valley."""
    chain, part, theta = REFERENCE_CASES["zero_range_p07"]()
    pi = ms.stationary(chain)
    model = ms.coarse_rates(chain, pi, part, theta)
    tamper_solves(monkeypatch, lambda b, x: scale_first(x, factor) if b.ndim == 1 else x)
    with pytest.raises(SolverFailure, match=f"^check_conditions: valley 1: {phrase}"):
        ms.check_conditions(chain, pi, part, model)


def test_spectral_guard_bounds_the_valleys_before_any_dense_block(monkeypatch):
    """A valley above ``spectral_guard`` raises naming it before T_F, the
    valley traces or any valley step runs."""
    chain, part, theta = REFERENCE_CASES["glued_2_6_1"]()
    pi = ms.stationary(chain)
    model = ms.coarse_rates(chain, pi, part, theta)
    size = len(part.valley(1))
    assert all(len(v) == size for v in part.valleys)

    def forbidden(*args, **kwargs):
        raise AssertionError("check_conditions built a dense block")

    monkeypatch.setattr(reduction, "_trace_rates", forbidden)
    monkeypatch.setattr(reduction, "_valley_trace", forbidden)
    monkeypatch.setattr(reduction, "_valley_relaxation", forbidden)
    monkeypatch.setattr(numerics, "factor", forbidden)
    monkeypatch.setattr(config, "DEFAULT", replace(config.DEFAULT, spectral_guard=size - 1))
    with pytest.raises(TooLarge, match=f"^check_conditions: valley 1: .*{size} states "
                                       f"exceed the guard {size - 1}"):
        ms.check_conditions(chain, pi, part, model)


class TestTimescale:
    def test_birth_death(self, bd3, bd3_partition):
        pi = ms.stationary(bd3)
        assert ms.coarse_rates(bd3, pi, bd3_partition).timescales[0] == \
            pytest.approx(2.0, rel=1e-12)

    def test_symmetric_partition_equal_scales(self):
        spec = ms.glued_cubes(2, 5, 1)
        pi = ms.stationary(spec.chain)
        profile = ms.timescales(spec.chain, pi, spec.partition)
        assert profile.spread == pytest.approx(1.0, abs=1e-9)

    def test_zero_range_growth(self):
        thetas = []
        for N in (8, 12):
            spec = ms.zero_range(3, N, 3.0, 0.5)
            pi = ms.stationary(spec.chain)
            thetas.append(ms.coarse_rates(spec.chain, pi, spec.partition).timescales[0])
        assert thetas[1] > thetas[0]


def symmetrized_rate_via_capacities(chain, pi, partition, theta, j, k):
    """Reversible-case cross-check for pi(valley j) r(j, k) via three capacities."""
    cap_j = ms.capacity(chain, pi, sorted(partition.valley(j)), sorted(partition.others(j)))
    cap_k = ms.capacity(chain, pi, sorted(partition.valley(k)), sorted(partition.others(k)))
    rest = sorted(partition.others(j) - partition.valley(k))
    if rest:
        cap_jk = ms.capacity(chain, pi, sorted(partition.valley(j) | partition.valley(k)), rest)
    else:
        cap_jk = 0.0
    mass = pi.mass(chain.indices_of(partition.valley(j)))
    return theta * 0.5 * (cap_j + cap_k - cap_jk) / mass


class TestJumpProbabilities:
    def test_two_valleys_trivial(self, bd3, bd3_partition):
        pi = ms.stationary(bd3)
        assert ms.jump_probabilities(bd3, pi, bd3_partition, 1) == {2: 1.0}

    def test_birth_death_five_reflection(self):
        chain = birth_death(5)
        pi = ms.stationary(chain)
        part = ms.Partition(
            (frozenset({"1"}), frozenset({"3"}), frozenset({"5"})),
            frozenset({"2", "4"}))
        probs = ms.jump_probabilities(chain, pi, part, 2)
        assert probs[1] == pytest.approx(0.5, rel=1e-12)
        assert probs[3] == pytest.approx(0.5, rel=1e-12)

    def test_glued_squares_symmetry(self):
        spec = ms.glued_cubes(2, 6, 1)
        pi = ms.stationary(spec.chain)
        for j in range(1, 5):
            probs = ms.jump_probabilities(spec.chain, pi, spec.partition, j)
            left = probs[1 + (j - 2) % 4]
            right = probs[1 + j % 4]
            opposite = probs[1 + (j + 1) % 4]
            assert left == pytest.approx(right, rel=1e-9)
            assert abs(left - (1 - opposite) / 2) <= 1e-9
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)

    def test_consistency_with_rates(self):
        rng = np.random.default_rng(42)
        for _ in range(6):
            chain = random_chain(rng, 12)
            pi = ms.stationary(chain)
            part = random_partition(rng, chain, 3)
            model = ms.coarse_rates(chain, pi, part, 1.0)
            for j in range(1, 4):
                probs = ms.jump_probabilities(chain, pi, part, j)
                lam = model.holding_rates[j - 1]
                for k, p in probs.items():
                    assert model.rate(j, k) == pytest.approx(lam * p, rel=1e-9,
                                                             abs=1e-12 * lam)

    def test_reversible_three_capacity_formula(self):
        chain = birth_death(7)
        pi = ms.stationary(chain)
        part = ms.Partition(
            (frozenset({"1"}), frozenset({"4"}), frozenset({"7"})),
            frozenset({"2", "3", "5", "6"}))
        theta = 3.0
        model = ms.coarse_rates(chain, pi, part, theta)
        for j in range(1, 4):
            for k in range(1, 4):
                if j == k:
                    continue
                via_caps = symmetrized_rate_via_capacities(
                    chain, pi, part, theta, j, k)
                assert via_caps == pytest.approx(model.rate(j, k), rel=1e-8,
                                                 abs=1e-12)


class TestCheckConditions:
    def test_birth_death_singleton_conventions(self, bd3, bd3_partition):
        pi = ms.stationary(bd3)
        model = ms.coarse_rates(bd3, pi, bd3_partition, 1.0)
        report = ms.check_conditions(bd3, pi, bd3_partition, model)
        assert report.capacity_ratio == (0.0, 0.0)
        assert report.pointwise_measure_ratio == pytest.approx(1.0, rel=1e-12)
        assert report.relaxation_ratio == (0.0, 0.0)
        assert report.reference_states == ("1", "3")

    def test_ratios_shrink_with_system_size(self):
        by_n = {}
        for N in (8, 12):
            spec = ms.zero_range(3, N, 3.0, 0.5)
            pi = ms.stationary(spec.chain)
            model = ms.coarse_rates(spec.chain, pi, spec.partition)
            by_n[N] = ms.check_conditions(spec.chain, pi, spec.partition, model)
        assert max(by_n[12].capacity_ratio) < max(by_n[8].capacity_ratio)
        assert max(by_n[12].measure_ratio) < max(by_n[8].measure_ratio)

    def test_serialization_finite(self, bd3, bd3_partition):
        pi = ms.stationary(bd3)
        model = ms.coarse_rates(bd3, pi, bd3_partition, 1.0)
        report = ms.check_conditions(bd3, pi, bd3_partition, model).to_dict()
        for key in ("capacity_ratio", "measure_ratio", "relaxation_ratio"):
            for x in report[key]:
                assert x is None or (x >= 0 and np.isfinite(x))


class TestReducedGenerator:
    def test_time_zero_identity(self):
        model = ms.ReducedModel(2, np.array([[0.0, 0.5], [0.5, 0.0]]),
                                np.array([0.5, 0.5]), 1.0)
        assert np.allclose(ms.reduced_transition(model, 0.0), np.eye(2))

    def test_two_state_closed_form(self):
        model = ms.ReducedModel(2, np.array([[0.0, 1.0], [1.0, 0.0]]),
                                np.array([1.0, 1.0]), 1.0)
        P = ms.reduced_transition(model, 1.0)
        assert P[0, 0] == pytest.approx((1 + np.exp(-2.0)) / 2, rel=1e-11)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(43)
        rates = rng.uniform(0.1, 2.0, size=(4, 4))
        np.fill_diagonal(rates, 0.0)
        model = ms.ReducedModel(4, rates, rates.sum(axis=1), 1.0)
        for t in (0.3, 1.7, 9.0):
            P = ms.reduced_transition(model, t)
            assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12
            L = ms.reduced_generator(model)
            assert np.abs(L.sum(axis=1)).max() <= 1e-13


def test_disconnected_valley_trace_names_the_valley(monkeypatch):
    """With pi off the partition-free route, ``check_conditions`` builds the
    valley traces itself; one cut in two is a solver failure naming the valley."""
    spec = ms.glued_cubes(2, 6, 1)
    chain, part = spec.chain, spec.partition
    pi = ms.stationary(chain)
    model = ms.coarse_rates(chain, pi, part, spec.suggested_theta)
    trace = reduction._valley_trace
    calls = []

    def cut(rates, e):
        out = trace(rates, e)
        calls.append(1)
        if len(calls) == 1:
            out[0] = 0.0
        return out

    monkeypatch.setattr(reduction, "_valley_trace", cut)
    with pytest.raises(SolverFailure, match=r"^check_conditions: valley 1: its trace chain "
                                            r"is not irreducible: '.+' is unreachable from"):
        ms.check_conditions(chain, pi, part, model)
