"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All tolerances are pinned here; nothing is deferred to calibration.
"""

import json

import numpy as np
import pytest

import metastab as ms
from metastab.potential import Flow, edge_set, zero_flow
from metastab.transforms import COLLAPSED_LABEL

from conftest import (
    birth_death,
    collapsed_jump_probability,
    expm_law,
    occupation_integral,
    random_chain,
    random_disjoint_sets,
    random_partition,
    random_reversible_chain,
    surgery_paths,
)


def report(criterion, ok, detail=""):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_01_capacity_identity_suite():
    """100 random chains: dual-route, symmetry, adjoint, monotone, symmetric."""
    rng = np.random.default_rng(101)
    failures = 0
    worst = 0.0
    for _ in range(100):
        chain = random_chain(rng, int(rng.integers(5, 51)))
        pi = ms.stationary(chain)
        A, B = random_disjoint_sets(rng, chain)
        sol = ms.equilibrium_potential(chain, pi, A, B)
        cap = sol.capacity
        checks = [
            abs(cap - sol.dirichlet_value) <= 1e-9 * cap,
            abs(ms.capacity(chain, pi, B, A) - cap) <= 1e-9 * cap,
            abs(ms.capacity_via_adjoint(chain, pi, A, B) - cap) <= 1e-9 * cap,
            ms.symmetric_capacity(chain, pi, A, B) <= cap * (1 + 1e-10) + 1e-15,
        ]
        # monotonicity in each coordinate: grow B, then grow A
        extra = [s for s in chain.states if s not in set(A) | set(B)]
        if extra:
            checks.append(cap <= ms.capacity(chain, pi, A, B + extra[:1])
                          * (1 + 1e-9) + 1e-15)
            checks.append(cap <= ms.capacity(chain, pi, A + extra[-1:], B)
                          * (1 + 1e-9) + 1e-15)
        worst = max(worst, abs(cap - sol.dirichlet_value) / cap)
        if not all(checks):
            failures += 1
    report(1, failures == 0,
           f"100 chains, 0 tolerance failures required, got {failures}; "
           f"worst dual-route deviation {worst:.2e}")


def random_cycle_flow(rng, chain, edges, strength):
    """A flow around a random simple cycle of the undirected edge graph."""
    adj = {}
    for i, j in zip(edges.src, edges.dst):
        adj.setdefault(int(i), set()).add(int(j))
        adj.setdefault(int(j), set()).add(int(i))
    start = int(rng.integers(0, chain.n))
    walk = [start]
    seen = {start}
    while True:
        nbrs = sorted(adj[walk[-1]])
        nxt = int(nbrs[rng.integers(0, len(nbrs))])
        if nxt in seen:
            loop = walk[walk.index(nxt):] + [nxt]
            break
        walk.append(nxt)
        seen.add(nxt)
    if len(loop) < 3:
        return zero_flow(edges)
    values = np.zeros(edges.m)
    lookup = {(int(i), int(j)): k for k, (i, j) in
              enumerate(zip(edges.src, edges.dst))}
    for a, b in zip(loop[:-1], loop[1:]):
        if (a, b) in lookup:
            values[lookup[(a, b)]] += strength
        else:
            values[lookup[(b, a)]] -= strength
    return Flow(edges, values)


def undirected_route(chain, a, b):
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


def path_flow(edges, chain, labels):
    values = np.zeros(edges.m)
    lookup = {(int(i), int(j)): k for k, (i, j) in
              enumerate(zip(edges.src, edges.dst))}
    for a, b in zip(labels[:-1], labels[1:]):
        i, j = chain.index[a], chain.index[b]
        if (i, j) in lookup:
            values[lookup[(i, j)]] += 1.0
        else:
            values[lookup[(j, i)]] -= 1.0
    return Flow(edges, values)


def test_criterion_02_variational_sandwich():
    """30 reversible chains: optimizers meet Cap; random inputs bracket it."""
    rng = np.random.default_rng(102)
    ok = True
    worst_rel = 0.0
    for _ in range(30):
        chain = random_reversible_chain(rng, int(rng.integers(5, 21)))
        pi = ms.stationary(chain)
        A, B = random_disjoint_sets(rng, chain, max_size=2)
        sol = ms.equilibrium_potential(chain, pi, A, B)
        cap = sol.capacity
        edges = edge_set(chain, pi)
        upper_opt = ms.dirichlet_upper_bound(chain, pi, A, B, sol.h,
                                             zero_flow(edges))
        psi_opt, g_opt = ms.thomson_optimal_pair(chain, pi, A, B)
        lower_opt = ms.thomson_lower_bound(chain, pi, A, B, psi_opt, g_opt)
        worst_rel = max(worst_rel, abs(upper_opt - cap) / cap,
                        abs(lower_opt - cap) / cap)
        ok &= abs(upper_opt - cap) <= 1e-8 * cap
        ok &= abs(lower_opt - cap) <= 1e-8 * cap
        # random admissible, non-optimal inputs
        f = rng.uniform(0.0, 1.0, size=chain.n)
        f[chain.indices_of(A)] = 1.0
        f[chain.indices_of(B)] = 0.0
        phi = random_cycle_flow(rng, chain, edges, float(rng.uniform(0.05, 0.5)))
        upper_rand = ms.dirichlet_upper_bound(chain, pi, A, B, f, phi)
        route = undirected_route(chain, A[0], B[0])
        psi = path_flow(edges, chain, route) + \
            random_cycle_flow(rng, chain, edges, float(rng.uniform(0.01, 0.2)))
        g = rng.standard_normal(chain.n) * 0.05
        g[chain.indices_of(A)] = 0.0
        g[chain.indices_of(B)] = 0.0
        lower_rand = ms.thomson_lower_bound(chain, pi, A, B, psi, g)
        ok &= lower_rand <= cap + 1e-9
        ok &= upper_rand >= cap - 1e-9
    report(2, ok, f"worst optimizer relative error {worst_rel:.2e}")


def test_criterion_03_trace_correctness():
    bd3 = birth_death(3)
    pi3 = ms.stationary(bd3)
    traced, _ = ms.trace_chain(bd3, pi3, ["1", "3"])
    ok = traced.rate("1", "3") == 0.5 and traced.rate("3", "1") == 0.5
    rng = np.random.default_rng(103)
    worst_pi = 0.0
    worst_rate = 0.0
    for _ in range(50):
        chain = random_chain(rng, int(rng.integers(6, 24)))
        pi = ms.stationary(chain)
        states = list(chain.states)
        rng.shuffle(states)
        f1 = sorted(states[:max(4, int(0.7 * len(states)))])
        f2 = sorted(f1[:max(2, len(f1) // 2)])
        traced1, pi_t = ms.trace_chain(chain, pi, f1)
        idx = chain.indices_of(f1)
        cond = pi.weights[idx] / pi.weights[idx].sum()
        worst_pi = max(worst_pi, float(np.abs(pi_t.weights - cond).max()))
        direct, _ = ms.trace_chain(chain, pi, f2)
        nested, _ = ms.trace_chain(traced1, pi_t, f2)
        diff = (direct.rates - nested.rates).tocoo()
        dev = np.abs(diff.data).max() if diff.nnz else 0.0
        worst_rate = max(worst_rate, dev / max(direct.max_rate, 1.0))
    ok &= worst_pi <= 1e-10 and worst_rate <= 1e-9
    report(3, ok, f"worst conditioned-law gap {worst_pi:.2e}, "
                  f"worst composition gap {worst_rate:.2e}")


def test_criterion_04_collapse_correctness():
    rng = np.random.default_rng(104)
    ok = True
    worst_cap = 0.0
    for _ in range(50):
        chain = random_chain(rng, int(rng.integers(6, 20)))
        pi = ms.stationary(chain)
        A, B = random_disjoint_sets(rng, chain, max_size=3)
        cap = ms.capacity(chain, pi, A, B)
        collapsed, pic = ms.collapse_chain(chain, pi, A)
        cap_c = ms.capacity(collapsed, pic, [COLLAPSED_LABEL], B)
        rel = abs(cap_c - cap) / cap
        worst_cap = max(worst_cap, rel)
        ok &= rel <= 1e-9
    worst_bilinear = 0.0
    for _ in range(10):
        chain = random_chain(rng, 15)
        pi = ms.stationary(chain)
        A = [chain.states[int(i)] for i in rng.choice(15, size=4, replace=False)]
        dev = ms.collapsed_quadratic_identity_check(chain, pi, A, 10,
                                                    seed=int(rng.integers(1e6)))
        worst_bilinear = max(worst_bilinear, dev)
    ok &= worst_bilinear <= 1e-10
    report(4, ok, f"worst capacity gap {worst_cap:.2e}, "
                  f"worst bilinear deviation {worst_bilinear:.2e}")


def test_criterion_05_cycle_decomposition():
    rng = np.random.default_rng(105)
    ok = True
    worst_recon = 0.0
    worst_m7 = 0.0
    for k in range(50):
        reversible = k < 20
        chain = (random_reversible_chain if reversible else random_chain)(
            rng, int(rng.integers(5, 16)))
        pi = ms.stationary(chain)
        dec = ms.cycle_decompose(chain, pi)
        recon = dec.reconstructed_rates(chain)
        dev = float(np.abs((recon - chain.rates).toarray()).max())
        worst_recon = max(worst_recon, dev)
        ok &= dev <= 1e-12
        if reversible:
            ok &= dec.max_cycle_length() == 2
        for labels, rates in dec.cycles:
            idx = [chain.index[s] for s in labels]
            conducts = np.array([pi.weights[i] * r for i, r in zip(idx, rates)])
            spread = float(conducts.max() - conducts.min())
            worst_m7 = max(worst_m7, spread / conducts.max())
            ok &= spread <= 1e-10 * conducts.max()
    report(5, ok, f"worst reconstruction {worst_recon:.2e}, "
                  f"worst cycle-conductance spread {worst_m7:.2e}")


def test_criterion_06_resolvent_vs_enlarged_potential():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(30):
        chain = random_chain(rng, int(rng.integers(4, 14)))
        pi = ms.stationary(chain)
        n_val = int(rng.integers(2, 4))
        part = random_partition(rng, chain, n_val, delta_fraction=0.0)
        gamma = float(rng.uniform(0.1, 10.0))
        k = int(rng.integers(1, n_val + 1))
        worst = max(worst, ms.resolvent_vs_enlarged_gap(chain, pi, gamma,
                                                        k, part))
    report(6, worst <= 1e-9, f"worst sup-norm gap {worst:.2e}")


def _check_reduction_identities(chain, pi, part, theta):
    model = ms.coarse_rates(chain, pi, part, theta)
    worst_72 = 0.0
    for j in range(1, part.n + 1):
        # pi(E_j) lambda(j) = theta Cap(E_j, rest), the capacity solved on its own
        lhs = pi.mass(chain.indices_of(part.valley(j))) * model.holding_rates[j - 1]
        rhs = theta * ms.capacity(chain, pi, sorted(part.valley(j)),
                                  sorted(part.others(j)))
        worst_72 = max(worst_72, abs(lhs - rhs) / max(lhs, rhs))
    worst_pr = 0.0
    for j in range(1, part.n + 1):
        lam = model.holding_rates[j - 1]
        for k in range(1, part.n + 1):
            if k == j:
                continue
            p = collapsed_jump_probability(chain, pi, part, j, k)
            # row-scale agreement always; full relative agreement whenever
            # the entry is large enough to carry nine digits through a solve
            dev = abs(model.rate(j, k) - lam * p)
            worst_pr = max(worst_pr, dev / lam)
            if p >= 1e-6:
                worst_pr = max(worst_pr, dev / (lam * p))
    return worst_72, worst_pr


def test_criterion_07_reduction_identity():
    ok = True
    worst_72 = 0.0
    worst_pr = 0.0
    builders = [
        ms.glued_cubes(2, 6, 1),
        ms.zero_range(3, 10, 3.0, 0.5),
        ms.potential_rw([np.linspace(-2, 2, 21)], lambda x: (x * x - 1) ** 2, 8.0),
    ]
    for spec in builders:
        pi = ms.stationary(spec.chain)
        a, b = _check_reduction_identities(spec.chain, pi, spec.partition,
                                           spec.suggested_theta)
        worst_72, worst_pr = max(worst_72, a), max(worst_pr, b)
    rng = np.random.default_rng(107)
    for _ in range(30):
        chain = random_chain(rng, int(rng.integers(6, 18)))
        pi = ms.stationary(chain)
        part = random_partition(rng, chain, int(rng.integers(2, 5)))
        theta = float(rng.uniform(0.5, 8.0))
        a, b = _check_reduction_identities(chain, pi, part, theta)
        worst_72, worst_pr = max(worst_72, a), max(worst_pr, b)
    ok = worst_72 <= 1e-9 and worst_pr <= 1e-9
    report(7, ok, f"worst holding/capacity identity {worst_72:.2e}, "
                  f"worst rate-vs-probability identity {worst_pr:.2e}")


def test_criterion_08_glued_squares_structure():
    ok = True
    p_opp = {}
    for N in (8, 16):
        spec = ms.glued_cubes(2, N, 2)
        ok &= spec.chain.n == 4 * (N * N - 1)
        pi = ms.stationary(spec.chain)
        ok &= bool(np.abs(pi.weights - spec.pi_formula.weights).max() <= 1e-12)
        model = ms.coarse_rates(spec.chain, pi, spec.partition,
                                spec.suggested_theta)
        opp_vals = []
        for j in range(1, 5):
            left = model.rate(j, 1 + (j - 2) % 4)
            right = model.rate(j, 1 + j % 4)
            ok &= abs(left - right) <= 1e-9 * max(left, right)
            probs = ms.jump_probabilities(spec.chain, pi, spec.partition, j)
            opp = probs[1 + (j + 1) % 4]
            opp_vals.append(opp)
            for side in (1 + (j - 2) % 4, 1 + j % 4):
                ok &= abs(probs[side] - (1 - opp) / 2) <= 1e-3
        p_opp[N] = max(opp_vals)
    ok &= p_opp[16] < p_opp[8]
    report(8, ok, f"p_opp(8)={p_opp[8]:.3e}, p_opp(16)={p_opp[16]:.3e}")


def test_criterion_09_zero_range_trends():
    masses, ratios62, measure_ratios, thetas = [], [], [], []
    for N in (10, 15, 20):
        spec = ms.zero_range(3, N, 3.0, 0.5)
        pi = ms.stationary(spec.chain)
        mass = pi.mass(spec.chain.indices_of(spec.partition.valley(1)))
        masses.append(abs(mass - 1.0 / 3.0))
        model = ms.coarse_rates(spec.chain, pi, spec.partition)
        thetas.append(model.timescales[0])
        rep = ms.check_conditions(spec.chain, pi, spec.partition, model)
        ratios62.append(max(rep.capacity_ratio))
        measure_ratios.append(max(rep.measure_ratio))
    decreasing = lambda xs: xs[0] > xs[1] > xs[2]
    ok = (decreasing(masses) and decreasing(ratios62)
          and decreasing(measure_ratios)
          and thetas[0] < thetas[1] < thetas[2])
    report(9, ok,
           f"|mass-1/3|={[f'{x:.4f}' for x in masses]}, "
           f"cap-ratio={[f'{x:.3f}' for x in ratios62]}, "
           f"measure={[f'{x:.3f}' for x in measure_ratios]}, "
           f"theta={[f'{x:.0f}' for x in thetas]}")


def test_criterion_10_simulation_validator():
    bd3 = birth_death(3)
    part = ms.Partition((frozenset({"1"}), frozenset({"3"})), frozenset({"2"}))
    pi = ms.stationary(bd3)
    theta = 2.0
    trials = 10_000
    model = ms.coarse_rates(bd3, pi, part, theta)
    grid = [0.5, 1.0, 2.0]
    fdd_times = [t * theta for t in grid]
    rep = ms.fdd_compare(ms.sample_valleys(bd3, part, fdd_times, trials, 1010, ["1"]),
                         model, grid, "1")
    # oracle: the exact law of the full chain, projected
    ok = True
    worst_tv = 0.0
    for row in rep.rows:
        law = expm_law(bd3, "1", row.t * theta)
        exact = np.array([law[bd3.index["1"]], law[bd3.index["3"]]])
        tv = 0.5 * (np.abs(np.array(row.empirical) - exact).sum()
                    + abs(row.delta_mass - law[bd3.index["2"]]))
        worst_tv = max(worst_tv, tv)
        ok &= tv <= 0.05
    # occupation estimate vs the exact occupation integral
    refs = part.reference_states(bd3, pi)
    est = ms.estimate_T2(ms.sample_valleys(bd3, part, [theta], trials, 1011, refs), theta, 1.0)
    for row in est.per_valley:
        exact = occupation_integral(bd3, row.start, ["2"], 1.0, theta)
        ok &= abs(row.mean - exact) <= 3 * row.stderr
    # bit-for-bit reruns and jobs-independence
    rep2, rep3 = (ms.fdd_compare(ms.sample_valleys(bd3, part, fdd_times, trials, 1010, ["1"],
                                                   jobs=jobs), model, grid, "1")
                  for jobs in (1, 2))
    ok &= rep == rep2 == rep3
    est2 = ms.estimate_T2(ms.sample_valleys(bd3, part, [theta], trials, 1011, refs), theta, 1.0)
    ok &= est == est2
    report(10, ok, f"worst empirical-vs-oracle TV {worst_tv:.4f} at "
                   f"{trials} trials")


def _surgery_coherence(tag):
    """Criterion 11 on the 200 paths of ``surgery_paths(tag)``.

    Returns whether every check held and the worst d minus delta-occupation.
    """
    ok = True
    worst_slack = -1.0
    for path, part in surgery_paths(tag):
        occ = ms.occupation_time(path, part.delta)
        traced = ms.trace_path(path, part.delta) \
            if occ > 0 else None
        if traced is not None:
            ok &= traced.horizon == occ
        union = sorted(part.union())
        occ_union = ms.occupation_time(path, union)
        ok &= ms.trace_path(path, union).horizon == occ_union
        coarse = ms.project(path, part, "phi")
        lp = ms.last_passage_path(coarse)
        psi_trace = ms.project(ms.trace_path(path, union), part, "psi")
        d = ms.skorohod_distance(lp, psi_trace)
        delta_occ = ms.occupation_time(coarse, {0})
        ok &= d <= delta_occ + 1e-9
        worst_slack = max(worst_slack, d - delta_occ)
    return ok, worst_slack


def test_criterion_11_path_surgery_coherence():
    ok, worst_slack = _surgery_coherence(111)
    report(11, ok, f"200 paths, worst d minus delta-occupation "
                   f"{worst_slack:.3e}")


@pytest.mark.parametrize("tag", range(112, 119))
def test_criterion_11_holds_on_other_streams(tag):
    """The bound is a property of the surgeries, not of one seed."""
    ok, worst_slack = _surgery_coherence(tag)
    assert ok, f"seed tag {tag}: worst d minus delta-occupation {worst_slack:.3e}"


def test_acceptance_report_schema_shipped():
    """The versioned report schema ships with the package."""
    from importlib import resources
    text = resources.files("metastab").joinpath(
        "schema/report-v1.schema.json").read_text()
    schema = json.loads(text)
    assert schema["$id"] == "metastab/report-v1"
