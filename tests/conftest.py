"""Shared fixtures: small reference chains and random-instance generators."""

import bisect
import itertools
import pickle
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.special

from metastab import (Partition, Path, build_chain, collapse_chain, config, numerics, pathsim,
                      simulate)
from metastab.chain import apply_generator, dirichlet_form
from metastab.errors import (BadPartition, BadSubset, NotStationary, SolverFailure,
                             StartsInDelta, TouchesDelta, ToleranceViolation)
from metastab.potential import hitting_probability
from metastab.transforms import COLLAPSED_LABEL


# a zero-range rung with drift p != 1/2: the tree gate declines it, so its pi
# with a partition comes off the trace chain on the valleys
NON_REVERSIBLE = "zero_range:L=3,N=10,alpha=3,p=0.7"


@pytest.fixture
def b2():
    """Two states, rates 1->2: 2 and 2->1: 3; pi = (3/5, 2/5)."""
    return build_chain(["1", "2"], [("1", "2", 2.0), ("2", "1", 3.0)])


@pytest.fixture
def c3():
    """Directed 3-cycle with unit rates; pi uniform, non-reversible."""
    return build_chain(["1", "2", "3"],
                       [("1", "2", 1.0), ("2", "3", 1.0), ("3", "1", 1.0)])


def birth_death(n, rate=1.0):
    """Path graph 1-2-...-n with equal rates both ways; pi uniform."""
    labels = [str(i) for i in range(1, n + 1)]
    triples = []
    for i in range(n - 1):
        triples.append((labels[i], labels[i + 1], rate))
        triples.append((labels[i + 1], labels[i], rate))
    return build_chain(labels, triples)


@pytest.fixture
def bd3():
    return birth_death(3)


@pytest.fixture
def bd3_partition():
    return Partition((frozenset({"1"}), frozenset({"3"})), frozenset({"2"}))


@pytest.fixture
def bd4():
    return birth_death(4)


def log_series_capacity(log_c, a, b):
    """log Cap({a}, {b}) of a birth-death chain on 0, 1, ..., n - 1.

    ``log_c[x]`` is log c(x, x+1) = log pi(x) + log r(x, x+1).  The edges
    between a and b are in series, so Cap = [sum 1/c(x, x+1)]^-1 over
    min(a, b) <= x < max(a, b), a logsumexp here: exact where pi underflows.
    """
    lo, hi = sorted((a, b))
    return -scipy.special.logsumexp(-log_c[lo:hi])


def double_well_log_conductances(points, N):
    """(log pi, log c) of ``potential_rw:N=<N>,points=<points>`` on its exact grid.

    F = (x^2 - 1)^2 on linspace(-2, 2, points), log pi = -N F - log Z and
    log r(x, x+1) = -(N/2) (F(x+1) - F(x)), each taken in log space.
    """
    x = np.linspace(-2.0, 2.0, points)
    F = (x * x - 1.0) ** 2
    log_pi = -N * F - scipy.special.logsumexp(-N * F)
    return log_pi, log_pi[:-1] - 0.5 * N * (F[1:] - F[:-1])


def expm_law(chain, start, t):
    """Exact law at time t from a state, via scipy's expm: the one exact-law oracle."""
    P = scipy.linalg.expm(t * chain.generator_matrix(dense=True))
    return P[chain.index[start]]


def occupation_integral(chain, start, F, horizon, theta, nodes=801):
    """Exact E[int_0^horizon chi_F(state at s*theta) ds] by Simpson quadrature."""
    idx = chain.indices_of(F)
    s_grid = np.linspace(0.0, horizon, nodes)
    vals = np.array([expm_law(chain, start, s * theta)[idx].sum() for s in s_grid])
    return float(scipy.integrate.simpson(vals, x=s_grid))


class FixedDraws:
    """A generator stand-in that hands out one fixed sequence of standard
    exponentials and one of uniforms, each in order, in blocks of any size.

    ``sizes`` records the size of each block of exponentials asked for.
    """

    def __init__(self, exponentials, uniforms):
        self.exponentials, self.uniforms = exponentials, uniforms
        self.sizes = []
        self._next = {"exponentials": 0, "uniforms": 0}

    def _take(self, name, size):
        start = self._next[name]
        block = getattr(self, name)[start:start + size]
        if len(block) < size:
            raise AssertionError(f"ran out of fixed {name}")
        self._next[name] = start + size
        return block

    def standard_exponential(self, size):
        self.sizes.append(size)
        return self._take("exponentials", size)

    def random(self, size):
        return self._take("uniforms", size)


def reference_trajectory(chain, start, horizon, exponentials, uniforms):
    """Jump times and post-jump states of one path, drawn jump by jump.

    The k-th jump takes the k-th exponential, scaled by the mean holding time,
    and the k-th uniform, searched into the state's cumulative jump
    probabilities; a jump exactly at the horizon is kept.
    """
    rates = chain.rates
    times, states = [], []
    t, state = 0.0, start
    for e, u in zip(exponentials, uniforms):
        t += e * (1.0 / chain.holding[state])
        if t > horizon:
            return times, states
        sl = slice(rates.indptr[state], rates.indptr[state + 1])
        cum = np.cumsum(rates.data[sl])
        state = int(rates.indices[sl][np.searchsorted(cum / cum[-1], u, side="left")])
        times.append(float(t))
        states.append(state)
    raise AssertionError("ran out of draws before the horizon")


def random_chain(rng, n, extra_edges=None, rate_low=0.2, rate_high=3.0):
    """Random irreducible chain: a random Hamiltonian cycle plus extra edges."""
    labels = [f"s{i:02d}" for i in range(n)]
    perm = rng.permutation(n)
    edges = {}
    for a, b in zip(perm, np.roll(perm, -1)):
        edges[(int(a), int(b))] = rng.uniform(rate_low, rate_high)
    if extra_edges is None:
        extra_edges = 2 * n
    for _ in range(extra_edges):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges[(int(i), int(j))] = rng.uniform(rate_low, rate_high)
    triples = [(labels[i], labels[j], r) for (i, j), r in sorted(edges.items())]
    return build_chain(labels, triples)


def random_reversible_chain(rng, n, extra_edges=None, rate_low=0.2, rate_high=3.0):
    """Random reversible chain from conductances on a connected graph."""
    labels = [f"s{i:02d}" for i in range(n)]
    weights = rng.uniform(0.5, 2.0, size=n)
    pi = weights / weights.sum()
    conductances = {}
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):
        key = (min(int(a), int(b)), max(int(a), int(b)))
        conductances[key] = rng.uniform(rate_low, rate_high)
    if extra_edges is None:
        extra_edges = 2 * n
    for _ in range(extra_edges):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            key = (min(int(i), int(j)), max(int(i), int(j)))
            conductances[key] = rng.uniform(rate_low, rate_high)
    triples = []
    for (i, j), c in sorted(conductances.items()):
        triples.append((labels[i], labels[j], c / pi[i]))
        triples.append((labels[j], labels[i], c / pi[j]))
    return build_chain(labels, triples)


def random_disjoint_sets(rng, chain, max_size=3):
    """Random nonempty disjoint (A, B) as label lists."""
    n = chain.n
    k_a = int(rng.integers(1, max_size + 1))
    k_b = int(rng.integers(1, max_size + 1))
    picks = rng.choice(n, size=min(n - 1, k_a + k_b), replace=False)
    a = picks[:k_a]
    b = picks[k_a:]
    if len(b) == 0:
        b = [int(i) for i in range(n) if i not in set(int(x) for x in a)][:1]
    return ([chain.states[int(i)] for i in a],
            [chain.states[int(i)] for i in b])


def random_partition(rng, chain, n_valleys, delta_fraction=0.3):
    """Random valley partition of the chain's states."""
    states = list(chain.states)
    rng.shuffle(states)
    n_delta = int(delta_fraction * len(states))
    n_delta = min(n_delta, len(states) - n_valleys)
    body = states[:len(states) - n_delta]
    delta = states[len(states) - n_delta:]
    cuts = sorted(rng.choice(np.arange(1, len(body)), size=n_valleys - 1,
                             replace=False)) if n_valleys > 1 else []
    valleys = []
    prev = 0
    for c in list(cuts) + [len(body)]:
        valleys.append(frozenset(body[prev:c]))
        prev = c
    return Partition(tuple(valleys), frozenset(delta))


def surgery_paths(tag, count=200):
    """The criterion-11 sample: ``count`` paths of 12 time units on random chains.

    Yields (path, partition).  Everything is drawn from the seed ``tag``;
    each chain gets a random partition and up to 10 paths from valley states.
    """
    rng = np.random.default_rng(tag)
    drawn = 0
    while drawn < count:
        chain = random_chain(rng, int(rng.integers(6, 13)))
        part = random_partition(rng, chain, int(rng.integers(2, 4)), delta_fraction=0.3)
        label_map = part.label_map()
        starts = [s for s in chain.states if label_map[s] != 0]
        if not starts:
            continue
        for _ in range(10):
            start = starts[int(rng.integers(0, len(starts)))]
            yield simulate(chain, start, 12.0, seed=(tag, drawn)), part
            drawn += 1
            if drawn >= count:
                return


def path_from_events(initial, events, horizon):
    """The Path that starts in ``initial`` and jumps at each (time, label) of ``events``."""
    labels = tuple(dict.fromkeys([initial, *(s for _, s in events)]))
    index = {s: i for i, s in enumerate(labels)}
    return Path(labels, [index[initial], *(index[s] for _, s in events)],
                [0.0, *(t for t, _ in events)], horizon)


def events_of(path):
    """The (time, label) of each jump of ``path``, in order."""
    return tuple(zip(path.times[1:].tolist(),
                     [path.labels[s] for s in path.states[1:].tolist()]))


# The path surgeries one event at a time, on (initial, events, horizon) triples:
# the reference that the array surgeries of ``pathsim`` match bit for bit.


def _reference_sojourns(initial, events, horizon):
    t, s = 0.0, initial
    for t2, s2 in events:
        yield t, t2, s
        t, s = t2, s2
    yield t, horizon, s


def _reference_runs(path, F):
    """Maximal runs of sojourns inside F: list of (orig_start, segments)."""
    F = set(F)
    runs, inside = [], False
    for a, b, s in _reference_sojourns(*path):
        if s in F and not inside:
            runs.append([a, []])
        inside = s in F
        if inside:
            runs[-1][1].append((a, b, s))
    return runs


def _reference_cleaned(initial, events, horizon):
    """Consecutive equal states merged and jumps off (0, horizon] dropped."""
    cleaned, cur = [], initial
    for t, s in events:
        if s == cur or not 0.0 < t <= horizon:
            continue
        cleaned.append((t, s))
        cur = s
    return initial, tuple(cleaned), horizon


def reference_time_change(path, F):
    """((inner_start, original_start) per maximal F-run, time lived in F)."""
    runs, inner = [], 0.0
    for orig_start, segments in _reference_runs(path, F):
        runs.append((inner, orig_start))
        inner += segments[-1][1] - orig_start
    return runs, inner


def reference_trace_path(path, F):
    runs = _reference_runs(path, F)
    if not runs:
        raise BadSubset("path never visits the trace set")
    events, clock, current = [], 0.0, None
    for run_start, segments in runs:
        for a, _, s in segments:
            if current is None:
                current = initial = s
            elif s != current:
                events.append((clock + (a - run_start), s))
                current = s
        clock += segments[-1][1] - run_start
    return initial, tuple(events), clock


def reference_last_passage_path(coarse):
    initial, events, horizon = coarse
    if initial == pathsim.DELTA_SYMBOL:
        raise StartsInDelta("coarse path starts in the separating set")
    kept, last = [], initial
    for t, s in events:
        if s != pathsim.DELTA_SYMBOL and s != last:
            kept.append((t, s))
            last = s
    return _reference_cleaned(initial, kept, horizon)


def reference_project(path, partition, mode):
    label_map = partition.label_map()

    def proj(s):
        try:
            k = label_map[s]
        except KeyError:
            raise BadPartition(f"state {s!r} is not covered by the partition")
        if k == pathsim.DELTA_SYMBOL and mode == "psi":
            raise TouchesDelta(f"state {s!r} lies in the separating set")
        return k

    initial, events, horizon = path
    return _reference_cleaned(proj(initial), [(t, proj(s)) for t, s in events], horizon)


def reference_segments_upto(path, m):
    initial, events, _ = path
    times, values = [], [initial]
    for t, s in events:
        if t >= m:
            break
        times.append(t)
        values.append(s)
    return times, values


def exact_candidate_objective(anchors, a_seg, b_seg, m):
    """The objective of ``pathsim._evaluate_candidate``, in Fraction arithmetic.

    Every float input is taken exactly.  The grid holds lambda's nodes, b's
    jump times, lambda^-1 of a's jump times, m - 1 and lambda^-1(m - 1).  At
    each grid point x the paths are read at lambda(x) and x (right-continuous,
    so the values just after x), and |lambda - t| and the value term are taken
    at x and at the next grid point with those values.
    """
    ts = [Fraction(t) for t, _ in anchors]
    ls = [Fraction(l) for _, l in anchors]
    a_times, b_times = ([Fraction(t) for t in seg[0]] for seg in (a_seg, b_seg))
    a_values, b_values = a_seg[1], b_seg[1]
    m = Fraction(m)

    def interp(x, xs, ys):
        k = min(bisect.bisect_right(xs, x), len(xs) - 1)
        return ys[k - 1] + (ys[k] - ys[k - 1]) * (x - xs[k - 1]) / (xs[k] - xs[k - 1])

    def g(t):
        return min(Fraction(1), max(Fraction(0), m - t))

    grid = sorted({*ts, *b_times, *(interp(u, ls, ts) for u in a_times),
                   m - 1, interp(m - 1, ls, ts)})
    worst = Fraction(0)
    for i, x in enumerate(grid):
        same = (a_values[bisect.bisect_right(a_times, interp(x, ts, ls))]
                == b_values[bisect.bisect_right(b_times, x)])
        for z in grid[i:i + 2]:
            lz = interp(z, ts, ls)
            ga, gb = g(lz), g(z)
            worst = max(worst, abs(lz - z), abs(ga - gb) if same else max(ga, gb))
    return float(worst)


def collapsed_jump_probability(chain, pi, partition, j, k):
    """p(j, k) from the chain with valley j collapsed to a point: the chance
    that it hits valley k before the other valleys."""
    collapsed, _ = collapse_chain(chain, pi, sorted(partition.valley(j)))
    rest = sorted(partition.others(j) - partition.valley(k))
    if not rest:
        return 1.0
    h = hitting_probability(collapsed, sorted(partition.valley(k)), rest)
    return float(h[collapsed.index[COLLAPSED_LABEL]])


def tamper_solves(monkeypatch, tamper):
    """Patch ``numerics.factor`` so that the result x of every solve with a
    factorization made afterwards goes through ``tamper(b, x)``, which returns
    the result to use."""
    factor = numerics.factor

    def tampered(a):
        solve = factor(a)
        return lambda b, **kwargs: tamper(np.asarray(b), solve(b, **kwargs))

    monkeypatch.setattr(numerics, "factor", tampered)


def count_factors(monkeypatch):
    """Patch ``numerics.factor`` to record the size of every matrix factored
    afterwards; returns that list, in call order."""
    factor, sizes = numerics.factor, []

    def counted(a):
        sizes.append(a.shape[0])
        return factor(a)

    monkeypatch.setattr(numerics, "factor", counted)
    return sizes


def scale_first(x, factor):
    """``x`` with its first entry scaled by ``factor``, in place: a ``tamper_solves`` fault."""
    x[0] *= factor
    return x


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records each pool's size and the pickled
    bytes it would send, runs its initializer once and maps in this process."""

    sizes = sends = None

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.sizes.append(max_workers)
        if initializer is not None:
            self.sends.append(("initializer", len(pickle.dumps(initargs))))
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        items = list(iterable)
        self.sends.extend(("task", len(pickle.dumps(item))) for item in items)
        return map(fn, items)


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the pools the sampler opens, on 3 faked CPUs; no process starts."""
    sizes = []
    monkeypatch.setattr(_InProcessPool, "sizes", sizes)
    monkeypatch.setattr(_InProcessPool, "sends", [])
    monkeypatch.setattr(pathsim, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(pathsim, "_cpus", lambda: 3)
    monkeypatch.setattr(pathsim, "_worker_shared", None)
    return sizes


@pytest.fixture
def pool_sends(pools):
    """(kind, pickled bytes) of what the faked pools would send, in order: one
    "initializer" entry per pool and one "task" entry per mapped item."""
    return _InProcessPool.sends


def reference_point_capacities(chain, pi, idx, ref, where):
    """Cap(x, ref) for every state x in ``idx`` other than ``ref``, on the whole chain.

    G = K^{-1}, with K = ``numerics.killed`` on S minus {ref}, is the Green
    function of the chain killed at ref, and Cap(x, ref) = pi(x) / G(x, x).
    One sparse solve with one unit column per x gives every G(x, x) and, as
    column x over G(x, x), the equilibrium potential h_x.  The checks are
    those of ``reduction._point_capacities``, on the whole chain: the escape
    probability, harmonicity off {x, ref}, the two-form check of D(h_x) and
    the agreement of pi(x) / G(x, x) with D(h_x).
    """
    xs = idx[idx != ref]
    rest = np.flatnonzero(np.arange(chain.n) != ref)
    cols = np.arange(len(xs))
    rows = np.searchsorted(rest, xs)
    unit = np.zeros((len(rest), len(xs)))
    unit[rows, cols] = 1.0
    X = numerics.solve_linear(numerics.killed(chain.rates, rest), unit)
    green = X[rows, cols]

    def state(k):
        return f"{where}, state {chain.states[xs[k]]!r}"

    rel = config.DEFAULT.rel
    bad = np.flatnonzero(~np.isfinite(green) | (chain.holding[xs] * green < 1.0 - rel))
    if len(bad):
        k = int(bad[0])
        raise SolverFailure(
            f"{state(k)}: Green function G(x, x) = {float(green[k])!r} gives escape "
            f"probability 1 / (lambda(x) G(x, x)) = "
            f"{float(1.0 / (chain.holding[xs[k]] * green[k]))!r}, not in (0, 1]")
    h = np.zeros((chain.n, len(xs)))
    h[rest] = X / green
    lh = apply_generator(chain, h)
    lh[xs, cols] = 0.0
    lh[ref] = 0.0
    residual = np.abs(lh).max(axis=0)
    k = int(np.argmax(residual))
    if residual[k] > rel * max(chain.max_rate, 1.0):
        raise SolverFailure(f"{state(k)}: harmonicity residual {residual[k]:.3e} too large")
    try:
        dirichlet = dirichlet_form(chain, pi, h)
    except NotStationary as exc:
        raise ToleranceViolation(f"{state(exc.column)}: {exc}") from exc
    caps = pi.weights[xs] / green
    reldev = np.abs(caps - dirichlet) / np.maximum(np.maximum(caps, dirichlet), 1e-300)
    k = int(np.argmax(reldev))
    if reldev[k] > config.DEFAULT.capacity_rel:
        raise ToleranceViolation(
            f"{state(k)}: capacity routes disagree: escape-rate {float(caps[k])!r} "
            f"vs Dirichlet {float(dirichlet[k])!r}")
    return caps


def reference_zero_range(L, N, alpha, p):
    """The zero-range chain of ``models.zero_range``, one state at a time.

    Labels are formatted and parsed per state, each state's jumps are
    enumerated site by site, and every edge goes through ``build_chain``.
    """
    def g(n):
        return 0.0 if n <= 0 else 1.0 if n == 1 else float(n ** alpha / (n - 1) ** alpha)

    configs = sorted(cfg for cfg in itertools.product(range(N + 1), repeat=L)
                     if sum(cfg) == N)
    states = ["|".join(str(c) for c in cfg) for cfg in configs]
    triples = []
    for s in states:
        cfg = tuple(int(c) for c in s.split("|"))
        out = {}
        for x in range(L):
            if cfg[x] == 0:
                continue
            for direction, prob in ((1, p), (-1, 1.0 - p)):
                if prob <= 0:
                    continue
                moved = list(cfg)
                moved[x] -= 1
                moved[(x + direction) % L] += 1
                t = "|".join(str(c) for c in moved)
                out[t] = out.get(t, 0.0) + g(cfg[x]) * prob
        triples.extend((s, t, out[t]) for t in sorted(out))
    return build_chain(states, triples)


def reference_glued_cubes(d, N):
    """The glued-cubes chain of ``models.glued_cubes`` from an adjacency dict."""
    def label(k, coords):
        if all(c == N for c in coords):
            return f"c{k}{(k + 1) % 4}"
        if all(c == 1 for c in coords):
            return f"c{(k - 1) % 4}{k}"
        return f"{k}:" + ",".join(str(c) for c in coords)

    adjacency = {}
    for k in range(4):
        for coords in itertools.product(range(1, N + 1), repeat=d):
            nbrs = adjacency.setdefault(label(k, coords), set())
            for axis in range(d):
                for step in (-1, 1):
                    c = coords[axis] + step
                    if 1 <= c <= N:
                        nbrs.add(label(k, coords[:axis] + (c,) + coords[axis + 1:]))
    states = sorted(adjacency)
    triples = [(s, t, 1.0 / len(adjacency[s])) for s in states for t in sorted(adjacency[s])]
    return build_chain(states, triples)
