"""Trajectory simulation, path surgeries, and Monte-Carlo validators.

Paths are right-continuous step functions held as the sampler's arrays: the
start time of each sojourn and its state, an index into a label tuple, up to
a horizon.  Coarse paths use the integer alphabet {0, 1, ..., n}: valley j
maps to j, the separating set maps to 0.

Every path is sampled by one kernel (``_trajectories``) that moves a group of
paths in lockstep.  Each path draws from its own stream in blocks of at most
``_BLOCK`` exponentials, then as many uniforms, sized as if it ran alone, so a
path does not depend on the group it is drawn in.  One jump of the whole group
is one add and one gather from the chain's guide table (the cutpoint method of
Chen and Asau, 1974): a state's row of G cells maps each uniform's cell,
floor(u G), to its target, and a cell that a cumulative jump probability falls
in marks a fallback to bisection.  A round holds per path one block of
exponentials and of states, 16 bytes a draw, and ``_UNIFORMS`` uniforms.

Sojourn sums are accumulated left to right everywhere, so the total length of
a trace path equals the occupation time of its set bit for bit.  The three
validators read one sample (``sample_valleys``): per start and trial, the
valley at each time and the time in the separating set up to it, recorded
block by block.  Trial k of the i-th start draws from the stream
(seed + 1000 i, k), so every estimate is reproducible and independent of
worker count and group split.
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
from .reduction import ReducedModel, _layout, reduced_transition

DELTA_SYMBOL = 0


@dataclass(frozen=True, eq=False)
class Path:
    """Right-continuous piecewise-constant trajectory on [0, horizon].

    Sojourn k is in the state ``labels[states[k]]`` from ``times[k]`` on, with
    ``times[0] = 0``: the arrays the sampler draws, 16 bytes a jump.  Consecutive
    states differ and the times increase strictly up to the horizon, where a jump
    may fall.  Labels are distinct; paths with equal sojourns are equal, whatever
    their label tuples.
    """

    labels: tuple
    states: np.ndarray           # index into labels, one per sojourn
    times: np.ndarray            # start time of each sojourn
    horizon: float

    def __post_init__(self):
        states = np.asarray(self.states, dtype=np.intp)
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "times", times)
        if not self.horizon > 0:
            raise BadSpec("path horizon must be positive")
        if not (len(states) == len(times) > 0 and times[0] == 0.0
                and 0 <= states.min() and states.max() < len(self.labels)):
            raise BadSpec("a path needs one label index per start time, the first at time 0")
        bad = ~((times[:-1] < times[1:]) & (times[1:] <= self.horizon))
        if bad.any():
            raise BadSpec(f"jump time {times[1 + bad.argmax()]} out of order or beyond the horizon")
        repeat = states[:-1] == states[1:]
        if repeat.any():
            raise BadSpec(f"consecutive states equal at time {times[1 + repeat.argmax()]}")

    def __eq__(self, other):
        return isinstance(other, Path) and list(self.sojourns()) == list(other.sojourns())

    @property
    def initial(self):
        return self.labels[self.states[0]]

    def states_visited(self):
        return {self.labels[i] for i in np.unique(self.states).tolist()}

    def state_at(self, t):
        """Value at time t (right-continuous; t beyond the horizon holds the last state)."""
        if t < 0:
            raise BadSpec("time must be nonnegative")
        return self.labels[self.states[np.searchsorted(self.times, t, side="right") - 1]]

    def sojourns(self):
        """(start, end, state) per sojourn, end exclusive; covers [0, horizon]."""
        return zip(self.times.tolist(), [*self.times[1:].tolist(), self.horizon],
                   map(self.labels.__getitem__, self.states.tolist()))


def _per_label(path, value):
    """``value(label)`` per sojourn of ``path``: one call per label, one gather."""
    return np.array([value(label) for label in path.labels])[path.states]


def _merged(labels, states, times, horizon):
    """The Path of these sojourns, each run of one state merged into its first."""
    keep = np.diff(states, prepend=-1) != 0
    return Path(labels, states[keep], times[keep], horizon)


# ---------------------------------------------------------------------------
# simulation


# Most draws of each kind per block: bounds a block's memory and the draws
# that go unused past the horizon.
_BLOCK = 8192

# Cells per state of the guide table, a power of two so that floor(u * cells) is
# exact: 3.9 MiB for 496 states.  Halved while a chain's table would hold more
# than _GUIDE_CELLS cells (32 MiB), so large chains trade fallbacks for memory.
_GUIDE = 1024
_GUIDE_CELLS = 1 << 22

# Most paths moved in lockstep.  A round holds per path one block of
# exponentials and states (16 bytes a draw) and _UNIFORMS uniforms: at most
# 8.9 MB for 64 paths.  Narrower groups pay the per-step numpy calls for fewer
# paths; about 15 paths break even with drawing each path jump by jump.
_GROUP = 64
_UNIFORMS = 1024

_FALLBACK = -1  # guide cell with a cumulative jump probability inside it


def _trajectories(tables, guide, starts, horizon, rngs):
    """Jump times and post-jump states of one path per start on [0, horizon], in lockstep.

    ``tables`` is ``_chain_tables``' pair and ``guide`` the chain's ``_guide_table``;
    path k starts at ``starts[k]`` and draws from ``rngs[k]``.  Each path draws its
    exponentials and uniforms in blocks as if alone: a block holds about 1.25 times
    the jumps expected before the horizon at the rate seen so far (at first the start
    state's), at most ``_BLOCK``, and its jump times are its exponentials scaled by
    the mean holding time, summed left to right from the last time.  A round moves
    every unfinished path through its next block: one jump of all of them is one add
    of the uniforms' guide cells to their states' row offsets and one gather from the
    guide table.  A path that lands on a ``_FALLBACK`` cell bisects its uniform into
    the state's cumulative jump probabilities instead, so every jump is the one
    ``bisect_left`` would pick.

    Yields (k, times, states, ended) per unfinished path per round, path by path: the
    block's jumps up to the horizon, and whether the path ended in it.
    """
    rows, mean_holding = tables
    cells = guide.shape[1]
    shift = cells.bit_length() - 1
    add, take, bl = np.add, guide.reshape(-1).take, bisect.bisect_left
    t = [0.0] * len(starts)
    state = list(starts)
    jumps = [0] * len(starts)
    rate = [1.0 / mean_holding[s] for s in starts]
    live = list(range(len(starts)))
    # column j walks path live[j] through a round: row 0 holds its state's row
    # offset and row i + 1 its i-th uniform's cell until the i-th jump overwrites
    # it with the next state's; rows past a block's end hold cell 0, a valid one
    walks = np.empty((_BLOCK + 1, len(starts)), dtype=np.intp)
    while live:
        holds = []
        for k in live:
            want = 1.25 * (horizon - t[k]) * rate[k]
            holds.append(rngs[k].standard_exponential(_BLOCK if want >= _BLOCK
                                                      else int(want) + 1))
        sizes = [len(h) for h in holds]
        walk = walks[:max(sizes) + 1, :len(live)]
        walk[0] = [state[k] << shift for k in live]
        walk[1:] = 0
        pos = np.empty(len(live), dtype=np.intp)
        for first in range(0, len(walk) - 1, _UNIFORMS):
            # the block's uniforms, _UNIFORMS at a time: the draws of one call
            uniforms = [rngs[k].random(min(max(size - first, 0), _UNIFORMS))
                        for k, size in zip(live, sizes)]
            for j, u in enumerate(uniforms):
                walk[first + 1:first + 1 + len(u), j] = u * cells
            for i in range(first, min(first + _UNIFORMS, len(walk) - 1)):
                here, there = walk[i], walk[i + 1]
                add(here, there, pos)
                take(pos, None, there, "clip")
                j = there.argmin()
                while there[j] < 0:
                    if i < sizes[j]:
                        targets, cumprob = rows[int(here[j]) >> shift]
                        there[j] = targets[bl(cumprob, uniforms[j][i - first])] << shift
                    else:
                        there[j] = 0
                    j = there.argmin()
        running = []
        for j, k in enumerate(live):
            path = walk[:sizes[j] + 1, j] >> shift
            times = holds[j] * mean_holding[path[:-1]]
            times[0] += t[k]
            np.cumsum(times, out=times)
            cut = int(np.searchsorted(times, horizon, side="right"))
            yield k, times[:cut], path[1:cut + 1], cut < sizes[j]
            if cut == sizes[j]:
                running.append(k)
                t[k], state[k], jumps[k] = float(times[-1]), int(path[-1]), jumps[k] + sizes[j]
                rate[k] = jumps[k] / t[k]
        live = running


def _chain_tables(chain: Chain):
    """Sampling tables of a Chain by dense index, built once and kept on it.

    A pair: per state its targets and their cumulative jump probabilities,
    which end at exactly 1, and the array of mean holding times.  The guide
    table (``_guide_table``) is kept beside it and read off the same
    probabilities; ``_trajectories`` bisects them only on its fallback cells.
    """
    def build():
        rates = chain.rates
        rows = []
        for i in range(chain.n):
            sl = slice(rates.indptr[i], rates.indptr[i + 1])
            cum = np.cumsum(rates.data[sl])
            rows.append((rates.indices[sl].tolist(), (cum / cum[-1]).tolist()))
        return rows, 1.0 / chain.holding
    return chain._kept("_jump_tables", None, build)


def _guide_table(chain: Chain):
    """The guide table of a Chain's jump chain, built once and kept on it.

    An array of n rows of G cells, G a power of two: cell c of state i covers the
    uniforms u with floor(u G) = c, that is [c / G, (c + 1) / G).  Where none of
    the state's cumulative jump probabilities lies in that interval, every such u
    jumps to one target, and the cell holds that target's row offset, G times its
    index; otherwise it holds ``_FALLBACK``.  Built from ``_chain_tables``' rows, so
    both read the same cumulative probabilities.
    """
    def build():
        rates, n = chain.rates, chain.n
        cells = _GUIDE
        while cells > 1 and n * cells > _GUIDE_CELLS:
            cells //= 2
        # the cell of each cumulative probability, and of the one before it in its
        # row (-1 before the first); the final 1 falls in cell G, past the row
        cumprob = np.concatenate([cum for _, cum in _chain_tables(chain)[0]])
        cell = (cumprob * cells).astype(np.intp)
        prev = np.concatenate(([-1], cell[:-1]))
        prev[rates.indptr[:-1]] = -1
        # per probability, in row order: the cells after prev's and before its own
        # jump to its target, and its own cell, unless prev's, falls back
        values = np.stack((rates.indices.astype(np.intp) << (cells.bit_length() - 1),
                           np.full(len(cell), _FALLBACK)), axis=1)
        counts = np.stack((np.maximum(cell - prev - 1, 0), (prev < cell) & (cell < cells)),
                          axis=1)
        return np.repeat(values.ravel(), counts.ravel()).reshape(n, cells)
    return chain._kept("_guide_table", None, build)


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
    return next(simulate_paths(chain, start, horizon, [seed]))


def simulate_paths(chain: Chain, start, horizon, seeds):
    """``simulate``'s path for each seed, in order, drawn in lockstep groups.

    Every path is the one ``simulate`` draws from its seed.  Up to ``_GROUP`` paths
    are drawn together, and a group's jump times and states are held until its last
    path ends; each Path is built, and its blocks dropped, as it is yielded.
    """
    _require_positive("horizon", horizon)
    tables, guide, labels = _chain_tables(chain), _guide_table(chain), chain.states
    seeds = list(seeds)
    for first in range(0, len(seeds), _GROUP):
        rngs = [np.random.default_rng(seed) for seed in seeds[first:first + _GROUP]]
        starts = [int(rng.choice(chain.n, p=start.weights)) if isinstance(start, ProbVector)
                  else _start_index(chain, start) for rng in rngs]
        blocks = [([np.zeros(1)], [np.array([k])]) for k in starts]
        for k, times, states, _ in _trajectories(tables, guide, starts, horizon, rngs):
            blocks[k][0].append(times)
            blocks[k][1].append(states)
        for k, (times, states) in enumerate(blocks):
            blocks[k] = None
            yield Path(labels, np.concatenate(states), np.concatenate(times), horizon)


# ---------------------------------------------------------------------------
# path surgeries


def occupation_time(path: Path, F) -> float:
    """Total time spent in F up to the horizon: time_change(path, F).total.

    A full-state F gives the horizon exactly, and the total equals the horizon
    of trace_path(path, F) bit for bit.
    """
    return time_change(path, F).total


@dataclass(frozen=True, eq=False)
class TimeChange:
    """The monotone map S_F: time lived in F -> original time.

    Piecewise linear and right-continuous; maximal F-run k starts at time
    ``inner[k]`` lived in F and at original time ``origin[k]``.
    """

    inner: np.ndarray
    origin: np.ndarray
    total: float           # time lived in F over the whole path
    horizon: float

    def __call__(self, u):
        if u < 0:
            raise BadSpec("time must be nonnegative")
        if u >= self.total:
            return self.horizon
        k = np.searchsorted(self.inner, u, side="right") - 1
        return float(self.origin[k] + (u - self.inner[k]))


def _f_runs(path: Path, F):
    """The sojourns in F, the maximal F-run of each, and the path's TimeChange:
    one subtraction per run for its length, the lengths summed left to right."""
    F = set(F)
    inside = _per_label(path, F.__contains__)
    edges = np.diff(inside.astype(np.int8), prepend=0, append=0)
    ends = np.append(path.times[1:], path.horizon)
    origin = path.times[edges[:-1] == 1]
    lengths = ends[edges[1:] == -1] - origin
    total = np.cumsum(np.concatenate(([0.0], lengths)))
    sojourns = np.flatnonzero(inside)
    runs = np.cumsum(edges[:-1] == 1)[sojourns] - 1
    return sojourns, runs, TimeChange(total[:-1], origin, float(total[-1]), path.horizon)


def time_change(path: Path, F) -> TimeChange:
    """Right-continuous inverse of the additive functional t -> time in F."""
    return _f_runs(path, F)[2]


def trace_path(path: Path, F) -> Path:
    """The path watched only while in F, excursions excised.

    Its horizon equals occupation_time(path, F) bit for bit (same per-run
    arithmetic); jumps between F-states across an excursion are kept,
    returns to the same state are merged away.
    """
    sojourns, runs, change = _f_runs(path, F)
    if not len(sojourns):
        raise BadSubset("path never visits the trace set")
    times = change.inner[runs] + (path.times[sojourns] - change.origin[runs])
    return _merged(path.labels, path.states[sojourns], times, change.total)


def last_passage_path(coarse: Path) -> Path:
    """Rewrite every excursion into 0 with the last valley value."""
    if coarse.initial == DELTA_SYMBOL:
        raise StartsInDelta("coarse path starts in the separating set")
    # delta sojourns inherit the preceding valley, so a jump back to the same
    # valley disappears; the jump time into a new valley is the entry time
    kept = ~_per_label(coarse, lambda s: s == DELTA_SYMBOL)
    return _merged(coarse.labels, coarse.states[kept], coarse.times[kept], coarse.horizon)


def project(path: Path, partition: Partition, mode: str) -> Path:
    """Coarse-grain a path through the valley structure.

    mode "phi" sends separating states to 0; mode "psi" requires the path to
    stay inside the valleys (take the trace first).
    """
    label_map = partition.label_map()
    if mode not in ("phi", "psi"):
        raise BadPartition(f"unknown projection mode {mode!r}")
    valleys = _per_label(path, lambda s: label_map.get(s, -1))
    bad = (valleys < 0) | ((valleys == DELTA_SYMBOL) & (mode == "psi"))
    if bad.any():
        k = bad.argmax()
        s = path.labels[path.states[k]]
        if valleys[k] < 0:
            raise BadPartition(f"state {s!r} is not covered by the partition")
        raise TouchesDelta(f"state {s!r} lies in the separating set")
    return _merged(tuple(range(partition.n + 1)), valleys, path.times, path.horizon)


# ---------------------------------------------------------------------------
# Skorohod-type distance on coarse paths


def _segments_upto(path: Path, m: float):
    """Jump times and values on [0, m); the path extends by its last value."""
    k = int(np.searchsorted(path.times, m, side="left"))
    return path.times[1:k].tolist(), list(map(path.labels.__getitem__, path.states[:k].tolist()))


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


class _TrialRecord:
    """One path's valley (0 for Delta) at ``times`` and its time in Delta up to each.

    Fed the path block by block (``add``), it keeps only the valley, the time in
    Delta over the runs that ended, and the start of a run still open; a time is
    recorded once no later block can hold a jump at or before it.  Both records equal
    ``state_at`` and ``occupation_time`` of the path cut at each time bit for bit:
    maximal Delta-runs are summed left to right.
    """

    def __init__(self, owner, start, times):
        self.owner, self.times = owner, times
        self.at = np.empty(len(times), dtype=owner.dtype)
        self.occupation = np.empty(len(times))
        self.valley, self.done, self.recorded = owner[start], 0.0, 0
        self.entered = np.array([0.0] if self.valley == 0 else [])

    def add(self, jump_times, states, ended):
        valleys = np.concatenate(([self.valley], self.owner[states]))
        edges = np.diff((valleys == 0).astype(np.int8))
        run_starts = np.concatenate((self.entered, jump_times[edges == 1]))
        run_ends = jump_times[edges == -1]
        done = np.cumsum(np.concatenate(([self.done], run_ends - run_starts[:len(run_ends)])))
        last = (len(self.times) if ended
                else int(np.searchsorted(self.times, jump_times[-1], side="left")))
        times = self.times[self.recorded:last]
        at = valleys[np.searchsorted(jump_times, times, side="right")]
        begun = np.searchsorted(run_starts, times, side="right")  # runs begun by each time
        inside = at == 0
        occupation = done[begun - inside]                         # runs ended by each time
        occupation[inside] += times[inside] - run_starts[begun[inside] - 1]
        self.at[self.recorded:last], self.occupation[self.recorded:last] = at, occupation
        self.valley, self.done, self.recorded = valleys[-1], done[-1], last
        self.entered = run_starts[len(run_ends):]


def _record_group(shared, group):
    """The records of a group of trials, (valleys, occupations) per trial, in order.

    ``shared`` is what every group of a sample reads: (tables, guide, owner, times).
    ``group`` holds (start index, stream seed) per trial.
    """
    tables, guide, owner, times = shared
    starts = [start for start, _ in group]
    rngs = [np.random.default_rng(seed_pair) for _, seed_pair in group]
    records = [_TrialRecord(owner, start, times) for start in starts]
    for k, jump_times, states, ended in _trajectories(tables, guide, starts, float(times[-1]),
                                                     rngs):
        records[k].add(jump_times, states, ended)
    return [(r.at, r.occupation) for r in records]


_worker_shared = None  # a pool worker's ``shared``, set once by ``_share_with_worker``


def _share_with_worker(shared):
    """Pool initializer: the tables and grid every group of the sample reads."""
    global _worker_shared
    _worker_shared = shared


def _record_pooled_group(group):
    """``_record_group`` in a pool worker, on the tables its initializer received."""
    return _record_group(_worker_shared, group)


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
    draws from the stream (seed + 1000 i, k).  The paths run in order in lockstep
    groups of at most ``_GROUP``: all in this process at ``jobs <= 1``, else split
    evenly over one pool of at most ``jobs`` workers, trials or CPUs.  A pool sends
    the jump and guide tables once per worker, by its initializer; each group's
    payload holds only its starts and streams.
    """
    owner = _layout(chain, partition)[0]
    starts = tuple(partition.reference_states(chain, stationary(chain, partition))
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
    paths = [(start_idx, (seed + 1000 * i, k))
             for i, start_idx in enumerate(index, start=1) for k in range(trials)]
    workers = min(jobs, len(paths), _cpus())
    width = _GROUP if jobs <= 1 else min(_GROUP, -(-len(paths) // workers))
    shared = (_chain_tables(chain), _guide_table(chain), owner, np.array(times))
    payloads = [paths[first:first + width] for first in range(0, len(paths), width)]
    if jobs <= 1:
        groups = [_record_group(shared, group) for group in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_share_with_worker,
                                 initargs=(shared,)) as pool:
            groups = list(pool.map(_record_pooled_group, payloads))
    records = [r for group in groups for r in group]
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
    if len(set(times)) < len(times):
        raise BadSpec(f"repeated times in {tuple(times)!r}")
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
