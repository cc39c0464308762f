"""Trajectory simulation, path surgeries, and Monte-Carlo validators.

Paths are right-continuous step functions given by an initial state, the
ordered jump times with their post-jump states, and a horizon.  Coarse paths
use the integer alphabet {0, 1, ..., n}: valley j maps to j, the separating
set maps to 0.

Sojourn sums are accumulated left to right everywhere, so the total length of
a trace path equals the occupation time of its set bit for bit.  The three
validators read one sample (``sample_valleys``): per start and trial, the
valley at each time and the time in the separating set up to it.  Trial k of
the i-th start draws from the stream (seed + 1000 i, k), so every estimate is
reproducible and independent of worker count.
"""

import bisect
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chain import Chain, Partition, ProbVector, stationary
from .errors import (
    BadPartition,
    BadSpec,
    BadSubset,
    StartsInDelta,
    TouchesDelta,
)
from .reduction import ReducedModel, reduced_transition

DELTA_SYMBOL = 0


@dataclass(frozen=True)
class Path:
    """Right-continuous piecewise-constant trajectory on [0, horizon]."""

    initial: object
    events: tuple                # ((time, state), ...) strictly increasing times
    horizon: float

    def __post_init__(self):
        if not self.horizon > 0:
            raise BadSpec("path horizon must be positive")
        prev_t, prev_s = 0.0, self.initial
        for t, s in self.events:
            if not prev_t < t <= self.horizon:
                raise BadSpec(f"jump time {t} out of order or beyond the horizon")
            if s == prev_s:
                raise BadSpec(f"consecutive states equal at time {t}")
            prev_t, prev_s = t, s

    def states_visited(self):
        return {self.initial, *(s for _, s in self.events)}

    def state_at(self, t):
        """Value at time t (right-continuous; t beyond the horizon holds the last state)."""
        if t < 0:
            raise BadSpec("time must be nonnegative")
        k = bisect.bisect_right(self.events, t, key=lambda e: e[0])
        return self.initial if k == 0 else self.events[k - 1][1]

    def sojourns(self):
        """Yield (start, end, state) with end exclusive; covers [0, horizon]."""
        t, s = 0.0, self.initial
        for t2, s2 in self.events:
            yield t, t2, s
            t, s = t2, s2
        yield t, self.horizon, s


def _build_path(initial, events, horizon):
    """Assemble a Path, merging consecutive equal states and zero-length dust."""
    cleaned = []
    cur = initial
    for t, s in events:
        if s == cur or not 0.0 < t <= horizon:
            continue
        cleaned.append((t, s))
        cur = s
    return Path(initial, tuple(cleaned), horizon)


# ---------------------------------------------------------------------------
# simulation


# Most draws of each kind per block: bounds a block's memory and the draws
# that go unused past the horizon.
_BLOCK = 8192


def _trajectory(tables, start, horizon, rng):
    """Jump times and post-jump states (arrays) of one path from ``start`` on [0, horizon].

    ``tables`` is ``_chain_tables``' pair.  Exponentials and uniforms come
    from ``rng`` in blocks: only the embedded jump chain runs per jump, one
    uniform bisected into the state's cumulative jump probabilities, and each
    block's jump times are its exponentials scaled by the mean holding time,
    summed left to right from the last time.  A block holds about 1.25 times
    the jumps expected before the horizon at the rate seen so far (at first
    the start state's), at most ``_BLOCK``; draws past the horizon are unused.
    """
    rows, mean_holding = tables
    bl = bisect.bisect_left
    t, state, jumps = 0.0, start, 0
    rate = 1.0 / mean_holding[start]
    time_blocks, state_blocks = [], []
    while True:
        want = 1.25 * (horizon - t) * rate
        size = _BLOCK if want >= _BLOCK else int(want) + 1
        holds = rng.standard_exponential(size)
        visited = [state]
        for u in rng.random(size).tolist():
            targets, cumprob = rows[state]
            state = targets[bl(cumprob, u)]
            visited.append(state)
        visited = np.fromiter(visited, dtype=np.intp, count=size + 1)
        steps = holds * mean_holding[visited[:-1]]
        steps[0] += t
        times = np.cumsum(steps)
        cut = int(np.searchsorted(times, horizon, side="right"))
        time_blocks.append(times[:cut])
        state_blocks.append(visited[1:cut + 1])
        if cut < size:
            return np.concatenate(time_blocks), np.concatenate(state_blocks)
        t, jumps = float(times[-1]), jumps + size
        rate = jumps / t


def _chain_tables(chain: Chain):
    """Sampling tables of a Chain by dense index, built once and cached on it.

    A pair: per state its targets and their cumulative jump probabilities,
    which end at exactly 1, and the array of mean holding times.
    """
    tables = chain.__dict__.get("_jump_tables")
    if tables is None:
        rates = chain.rates
        rows = []
        for i in range(chain.n):
            sl = slice(rates.indptr[i], rates.indptr[i + 1])
            cum = np.cumsum(rates.data[sl])
            rows.append((rates.indices[sl].tolist(), (cum / cum[-1]).tolist()))
        tables = chain.__dict__["_jump_tables"] = (rows, 1.0 / chain.holding)
    return tables


def _require_positive(name, value):
    if not (math.isfinite(value) and value > 0):
        raise BadSpec(f"{name} must be finite and positive, got {value!r}")


def _start_index(chain, start):
    if start in chain.index:
        return chain.index[start]
    raise BadSpec(f"unknown start state {start!r}")


def simulate(chain: Chain, start, horizon, seed) -> Path:
    """Sample one trajectory: exponential holding, jumps by normalized rates.

    ``start`` is a state label or a ProbVector to draw it from.  ``seed`` may
    be an int or a sequence of ints; given the same seed the path is identical.
    """
    _require_positive("horizon", horizon)
    rng = np.random.default_rng(seed)
    start_idx = (int(rng.choice(chain.n, p=start.weights))
                 if isinstance(start, ProbVector) else _start_index(chain, start))
    times, states = _trajectory(_chain_tables(chain), start_idx, horizon, rng)
    labels = chain.states
    return Path(labels[start_idx],
                tuple(zip(times.tolist(), [labels[s] for s in states.tolist()])), horizon)


# ---------------------------------------------------------------------------
# path surgeries


def occupation_time(path: Path, F) -> float:
    """Total time spent in F up to the horizon.

    The total of time_change(path, F): accumulated left to right over
    maximal F-runs, one subtraction per run, so a full-state F gives the
    horizon exactly and the total equals the horizon of trace_path(path, F)
    bit for bit.
    """
    return time_change(path, F).total


@dataclass(frozen=True)
class TimeChange:
    """The monotone map S_F: time lived in F -> original time.

    Piecewise linear and right-continuous; ``runs`` holds one
    (inner_start, original_start, length) triple per maximal F-run.
    """

    runs: tuple
    total: float           # time lived in F over the whole path
    horizon: float

    def __call__(self, u):
        if u < 0:
            raise BadSpec("time must be nonnegative")
        if u >= self.total:
            return self.horizon
        inner, orig, _ = self.runs[bisect.bisect_right(self.runs, u, key=lambda r: r[0]) - 1]
        return orig + (u - inner)


def _f_runs(path: Path, F):
    """Maximal runs of sojourns inside F: list of (orig_start, segments)."""
    F = set(F)
    runs, inside = [], False
    for a, b, s in path.sojourns():
        if s in F and not inside:
            runs.append([a, []])
        inside = s in F
        if inside:
            runs[-1][1].append((a, b, s))
    return runs


def time_change(path: Path, F) -> TimeChange:
    """Right-continuous inverse of the additive functional t -> time in F."""
    runs = []
    inner = 0.0
    for orig_start, segments in _f_runs(path, F):
        length = segments[-1][1] - orig_start
        runs.append((inner, orig_start, length))
        inner += length
    return TimeChange(tuple(runs), inner, path.horizon)


def trace_path(path: Path, F) -> Path:
    """The path watched only while in F, excursions excised.

    Its horizon equals occupation_time(path, F) bit for bit (same per-run
    arithmetic); jumps between F-states across an excursion are kept,
    returns to the same state are merged away.
    """
    runs = _f_runs(path, F)
    if not runs:
        raise BadSubset("path never visits the trace set")
    events = []
    clock = 0.0
    current = None
    for run_start, segments in runs:
        for a, _, s in segments:
            if current is None:
                current = s
                initial = s
            elif s != current:
                events.append((clock + (a - run_start), s))
                current = s
        clock += segments[-1][1] - run_start
    return Path(initial, tuple(events), clock)


def last_passage_path(coarse: Path) -> Path:
    """Rewrite every excursion into 0 with the last valley value."""
    if coarse.initial == DELTA_SYMBOL:
        raise StartsInDelta("coarse path starts in the separating set")
    events = []
    last = coarse.initial
    for t, s in coarse.events:
        if s == DELTA_SYMBOL:
            continue
        if s != last:
            events.append((t, s))
            last = s
    # delta sojourns inherit the preceding valley, so a jump back to the same
    # valley disappears; the jump time into a new valley is the entry time
    return _build_path(coarse.initial, events, coarse.horizon)


def project(path: Path, partition: Partition, mode: str) -> Path:
    """Coarse-grain a path through the valley structure.

    mode "phi" sends separating states to 0; mode "psi" requires the path to
    stay inside the valleys (take the trace first).
    """
    label_map = partition.label_map()
    if mode not in ("phi", "psi"):
        raise BadPartition(f"unknown projection mode {mode!r}")

    def proj(s):
        try:
            k = label_map[s]
        except KeyError:
            raise BadPartition(f"state {s!r} is not covered by the partition")
        if k == DELTA_SYMBOL and mode == "psi":
            raise TouchesDelta(f"state {s!r} lies in the separating set")
        return k

    initial = proj(path.initial)
    events = [(t, proj(s)) for t, s in path.events]
    return _build_path(initial, events, path.horizon)


# ---------------------------------------------------------------------------
# Skorohod-type distance on coarse paths


def _segments_upto(path: Path, m: float):
    """Jump times and values on [0, m); the path extends by its last value."""
    times, values = [], [path.initial]
    for t, s in path.events:
        if t >= m:
            break
        times.append(t)
        values.append(s)
    return times, values


def _evaluate_candidate(anchors, a_seg, b_seg, m):
    """Exact objective of the piecewise-linear reparameterization ``anchors``.

    anchors: increasing list of (t, lam_t) with endpoints (0, 0), (m, m);
    lambda maps the time axis of path b into evaluation times of path a.
    Returns max(sup |lam - t|, sup of the value term), where the value term
    compares valleys only by equality: |g(lam t) - g(t)| where a(lam t) and
    b(t) agree, max(g(lam t), g(t)) where they differ, with
    g(t) = min(1, max(0, m - t)).  The grid splits [0, m] into cells on which
    lambda and both g terms are linear and both paths constant, so each cell
    reads the paths once, at its midpoint, away from the jumps at its ends,
    and its convex value term peaks at one of its ends.
    """
    (a_times, a_values), (b_times, b_values) = a_seg, b_seg
    ts, ls = np.array(anchors).T
    grid = np.unique(np.concatenate((ts, b_times, np.interp([*a_times, m - 1.0], ls, ts),
                                     [m - 1.0])))
    mid = (grid[:-1] + grid[1:]) / 2
    same = (np.asarray(a_values)[np.searchsorted(a_times, np.interp(mid, ts, ls), side="right")]
            == np.asarray(b_values)[np.searchsorted(b_times, mid, side="right")])
    lam = np.interp(grid, ts, ls)
    ga, gb = np.clip(m - lam, 0.0, 1.0), np.clip(m - grid, 0.0, 1.0)
    agree, differ = np.abs(ga - gb), np.maximum(ga, gb)
    term = np.where(same, np.maximum(agree[:-1], agree[1:]), np.maximum(differ[:-1], differ[1:]))
    return float(max(np.abs(lam - grid).max(), term.max()))


def _alignment_anchors(a_seg, b_seg, m):
    """Monotone jump alignment minimizing max(time shift, value mismatch)."""
    a_times, a_values = a_seg
    b_times, b_values = b_seg
    p, q = len(a_times), len(b_times)

    def mism(i, j):
        return 0.0 if a_values[i] == b_values[j] else 1.0

    INF = float("inf")
    cost = np.full((p + 1, q + 1), INF)
    move = np.zeros((p + 1, q + 1), dtype=np.int8)
    cost[0, 0] = mism(0, 0)
    for i in range(p + 1):
        for j in range(q + 1):
            base = cost[i, j]
            if base == INF:
                continue
            if i < p and j < q:
                c = max(base, abs(a_times[i] - b_times[j]), mism(i + 1, j + 1))
                if c < cost[i + 1, j + 1]:
                    cost[i + 1, j + 1] = c
                    move[i + 1, j + 1] = 1
            if i < p:
                c = max(base, mism(i + 1, j))
                if c < cost[i + 1, j]:
                    cost[i + 1, j] = c
                    move[i + 1, j] = 2
            if j < q:
                c = max(base, mism(i, j + 1))
                if c < cost[i, j + 1]:
                    cost[i, j + 1] = c
                    move[i, j + 1] = 3
    anchors = []
    i, j = p, q
    while i > 0 or j > 0:
        mv = move[i, j]
        if mv == 1:
            anchors.append((b_times[j - 1], a_times[i - 1]))
            i, j = i - 1, j - 1
        elif mv == 2:
            i -= 1
        else:
            j -= 1
    anchors.reverse()
    return _monotone_anchors(anchors, m)


def _in_order_anchors(a_seg, b_seg, m):
    """The k-th jump of b against the k-th jump of a: the trace time change."""
    return _monotone_anchors(zip(b_seg[0], a_seg[0]), m)


def _monotone_anchors(anchors, m):
    """(0, 0), the anchors inside (0, m) that keep both axes strictly increasing, (m, m)."""
    filtered = [(0.0, 0.0)]
    for t, l in anchors:
        if t <= filtered[-1][0] or l <= filtered[-1][1] or t >= m or l >= m:
            continue
        filtered.append((t, l))
    filtered.append((m, m))
    return filtered


def _dm_directed(path_a: Path, path_b: Path, m: float) -> float:
    a_seg = _segments_upto(path_a, m)
    b_seg = _segments_upto(path_b, m)
    return min(_evaluate_candidate(anchors, a_seg, b_seg, m)
               for anchors in ([(0.0, 0.0), (m, m)], _alignment_anchors(a_seg, b_seg, m),
                               _in_order_anchors(a_seg, b_seg, m)))


_M_MAX = 8  # horizons of the Skorohod-type distance; the rest weigh 2^-8 in all


def skorohod_distance(p1: Path, p2: Path) -> float:
    """Weighted Skorohod-type distance between coarse paths.

    d = sum_{m <= _M_MAX} 2^-m min(1, d_m), with d_m an upper bound on the
    reparameterization infimum obtained from piecewise-linear maps with nodes
    at both paths' jump times: the identity, the best monotone alignment of
    the jumps, and the in-order pairing of the k-th jumps.  Valleys are
    compared only by equality, so d does not depend on how they are
    numbered.  Zero for identical paths, symmetric by construction; paths
    shorter than _M_MAX extend by their last value.
    """
    total = 0.0
    for m in range(1, _M_MAX + 1):
        dm = min(_dm_directed(p1, p2, float(m)), _dm_directed(p2, p1, float(m)))
        total += 2.0 ** -m * min(1.0, dm)
    return total


# ---------------------------------------------------------------------------
# Monte-Carlo validators


def _record_trial(payload):
    """One trial: the valley (0 for Delta) at ``times`` and the time in Delta up to each.

    The path runs to the last time.  Both equal ``state_at`` and ``occupation_time`` of
    the path cut at each time bit for bit: maximal Delta-runs are summed left to right.
    """
    tables, owner, start, times, seed_pair = payload
    jump_times, states = _trajectory(tables, start, float(times[-1]),
                                     np.random.default_rng(seed_pair))
    valleys = owner[np.concatenate(([start], states))]
    bounds = np.concatenate(([0.0], jump_times, times[-1:]))
    edges = np.diff((valleys == 0).astype(np.int8), prepend=0, append=0)
    run_starts, run_ends = bounds[edges == 1], bounds[edges == -1]
    done = np.concatenate(([0.0], np.cumsum(run_ends - run_starts)))
    at = valleys[np.searchsorted(jump_times, times, side="right")]
    begun = np.searchsorted(run_starts, times, side="right")  # runs begun by each time
    occupation, inside = done[begun], at == 0
    k = begun[inside] - 1                                     # the run each time is inside
    occupation[inside] = done[k] + (times[inside] - run_starts[k])
    return at, occupation


def _cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


class ValleySample(NamedTuple):
    times: tuple                # chain times, increasing; every path runs to the last
    starts: tuple
    valleys: tuple              # the valley of each start
    trials: int
    at: np.ndarray              # [start, trial, time] -> valley, 0 for Delta
    occupation: np.ndarray      # [start, trial, time] -> time in Delta up to that time


def sample_valleys(chain: Chain, partition: Partition, times, trials: int, seed: int,
                   starts=None, jobs: int = 1) -> ValleySample:
    """``trials`` paths from each start, recorded at ``times``; every input checked first.

    ``starts`` defaults to the partition's reference states; each must be a known state
    inside a valley, and none may repeat.  Trial k of the i-th start (i = 1, 2, ...)
    draws from the stream (seed + 1000 i, k).  All trials run in this process at
    ``jobs <= 1``, else in one pool of at most ``jobs`` workers, trials or CPUs.
    """
    owner = partition.validate_for(chain, require_valleys=2)
    starts = tuple(partition.reference_states(chain, stationary(chain))
                   if starts is None else starts)
    index = [_start_index(chain, start) for start in starts]
    valleys = tuple(int(owner[i]) for i in index)
    if 0 in valleys:
        raise BadPartition(f"start state {starts[valleys.index(0)]!r} must lie in a valley")
    if len(set(starts)) < len(starts):
        raise BadSpec(f"repeated start states in {starts!r}")
    times = sorted({float(t) for t in times})
    if not (times and times[-1] > 0 and all(math.isfinite(t) and t >= 0 for t in times)):
        raise BadSpec(f"sample times must be finite, >= 0 and end at a positive horizon: {times}")
    if trials < 1:
        raise BadSpec(f"trials must be at least 1, got {trials!r}")
    tables, grid = _chain_tables(chain), np.array(times)
    payloads = [(tables, owner, start_idx, grid, (seed + 1000 * i, k))
                for i, start_idx in enumerate(index, start=1) for k in range(trials)]
    if jobs <= 1:
        records = [_record_trial(p) for p in payloads]
    else:
        workers = min(jobs, len(payloads), _cpus())
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_record_trial, payloads,
                                    chunksize=max(1, len(payloads) // (4 * workers))))
    shape = (len(starts), trials, len(times))
    return ValleySample(tuple(times), starts, valleys, trials,
                        np.array([r[0] for r in records]).reshape(shape),
                        np.array([r[1] for r in records]).reshape(shape))


def _columns(sample: ValleySample, times):
    """The sample's column of each chain time; BadSpec for a time it lacks."""
    missing = [t for t in times if t not in sample.times]
    if missing:
        raise BadSpec(f"the sample has no time {float(missing[0])!r}")
    return [sample.times.index(t) for t in times]


class ValleyEstimate(NamedTuple):
    valley: int
    start: object
    mean: float
    stderr: float


class T2Estimate(NamedTuple):
    per_valley: tuple
    worst_mean: float
    horizon: float
    trials: int


def estimate_T2(sample: ValleySample, theta: float, horizon: float) -> T2Estimate:
    """Mean time spent in the separating set on [0, horizon], rescaled time.

    Per start, read at chain time horizon * theta, with its valley and standard error."""
    _require_positive("theta", theta)
    _require_positive("horizon", horizon)
    [col] = _columns(sample, [horizon * theta])
    trials, results = sample.trials, []
    for start, valley, occ in zip(sample.starts, sample.valleys,
                                  sample.occupation[:, :, col] / theta):
        stderr = float(occ.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
        results.append(ValleyEstimate(valley, start, float(occ.mean()), stderr))
    return T2Estimate(tuple(results), max(r.mean for r in results), horizon, trials)


_GRID_POINTS = 16  # estimate_91's uniform grid on [delta, 2 delta]


def short_time_grid(delta: float) -> tuple:
    """estimate_91's rescaled times: ``_GRID_POINTS`` uniform points on [delta, 2 delta]."""
    _require_positive("delta", delta)
    return tuple(np.linspace(delta, 2.0 * delta, _GRID_POINTS))


class Estimate91(NamedTuple):
    grid: tuple                 # rescaled times in [delta, 2 delta]
    probabilities: dict         # start label -> tuple of estimates per grid point
    stderr: dict
    sup: float
    trials: int


def estimate_91(sample: ValleySample, theta: float, delta: float) -> Estimate91:
    """Monte-Carlo sup over s in [delta, 2 delta] of P[state at s*theta in Delta].

    The sup over the continuum is approximated on ``short_time_grid(delta)``;
    the starts are the sample's, not every state of a valley.
    """
    _require_positive("theta", theta)
    grid = short_time_grid(delta)
    p_all = (sample.at[:, :, _columns(sample, [s * theta for s in grid])] == 0).mean(axis=1)
    se_all = np.sqrt(np.clip(p_all * (1.0 - p_all), 0.0, None) / sample.trials)
    probabilities = {s: tuple(float(x) for x in p) for s, p in zip(sample.starts, p_all)}
    stderr = {s: tuple(float(x) for x in se) for s, se in zip(sample.starts, se_all)}
    return Estimate91(grid, probabilities, stderr, float(p_all.max()), sample.trials)


class FddRow(NamedTuple):
    t: float
    empirical: tuple            # law over valleys 1..n (index k-1), delta excluded
    delta_mass: float
    reduced: tuple              # exp(tL) row of the reduced model
    tv: float
    stderr: float


class FddReport(NamedTuple):
    rows: tuple
    start: object
    start_valley: int
    trials: int


def fdd_compare(sample: ValleySample, reduced: ReducedModel, time_grid, start) -> FddReport:
    """Empirical coarse marginals from ``start`` at rescaled times vs the reduced model.

    At each grid time t, the sample's law of the valley at chain time t * reduced.theta
    is compared with the reduced model's transition row; the total-variation distance
    charges the full mass sitting in the separating set.
    """
    times = sorted(float(t) for t in time_grid)
    if start not in sample.starts:
        raise BadSpec(f"the sample has no start {start!r}")
    i, trials = sample.starts.index(start), sample.trials
    j0 = sample.valleys[i]
    rows = sample.at[i][:, _columns(sample, [t * reduced.theta for t in times])]
    out = []
    for col, t in enumerate(times):
        emp = np.bincount(rows[:, col], minlength=reduced.valley_count + 1) / trials
        red = reduced_transition(reduced, t)[j0 - 1]
        tv = 0.5 * (float(np.abs(emp[1:] - red).sum()) + float(emp[0]))
        se = 0.5 * float(np.sqrt(np.clip(emp * (1 - emp), 0, None) / trials).sum())
        out.append(FddRow(t, tuple(float(x) for x in emp[1:]), float(emp[0]),
                          tuple(float(x) for x in red), tv, se))
    return FddReport(tuple(out), start, j0, trials)
