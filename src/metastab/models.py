"""Builders for the worked example families.

Each builder returns a ModelSpec: the chain, a default valley partition, and
a suggested time scale.  The stationary laws claimed by the builders are
closed-form but never trusted: callers (and the test suite) re-verify them
through the generic stationary solver.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .chain import Chain, Partition, ProbVector, build_chain
from .errors import BadParams, BadSpec, TooLarge


@dataclass(frozen=True)
class ModelSpec:
    family: str
    params: dict
    chain: Chain
    partition: Partition            # may be None when no valley structure exists
    suggested_theta: float
    pi_formula: ProbVector          # closed-form stationary law (verify before use)
    implicit: object = None         # on-the-fly neighbor enumerator, when available
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# four glued cubes


def _cube_state(k, coords, N):
    """Canonical label; the two gluing corners are shared between cubes."""
    if all(c == N for c in coords):
        return f"c{k}{(k + 1) % 4}"
    if all(c == 1 for c in coords):
        return f"c{(k - 1) % 4}{k}"
    return f"{k}:" + ",".join(str(c) for c in coords)


def glued_cubes(d: int, N: int, ell: int) -> ModelSpec:
    """Four d-cubes of side N glued corner-to-corner in a ring.

    Cube k meets cube k+1 (mod 4) in exactly one point: the all-N corner of
    cube k, identified with the all-1 corner of cube k+1 (opposite corners
    within each cube).  The walk waits a mean-one exponential time and jumps
    to a uniformly chosen lattice neighbor, so the stationary law is
    proportional to the degree.  Default valleys are the deep cores
    {x : ell < x_i <= N - ell} of each cube.
    """
    if d < 2 or N < 3 or not 1 <= ell < N / 2:
        raise BadParams(f"need d >= 2, N >= 3, 1 <= ell < N/2; got d={d}, N={N}, ell={ell}")
    if 4 * (N ** d - 1) > config.DEFAULT.state_guard:
        raise TooLarge(f"glued cubes would have {4 * (N ** d - 1)} states")
    adjacency = {}
    for k in range(4):
        for coords in itertools.product(range(1, N + 1), repeat=d):
            s = _cube_state(k, coords, N)
            nbrs = adjacency.setdefault(s, set())
            for axis in range(d):
                for step in (-1, 1):
                    c = coords[axis] + step
                    if 1 <= c <= N:
                        nbrs.add(_cube_state(k, coords[:axis] + (c,) + coords[axis + 1:], N))
    states = sorted(adjacency)
    triples = []
    for s in states:
        deg = len(adjacency[s])
        for t in sorted(adjacency[s]):
            triples.append((s, t, 1.0 / deg))
    chain = build_chain(states, triples)
    degrees = np.array([len(adjacency[s]) for s in chain.states], dtype=float)
    pi_formula = ProbVector(degrees / degrees.sum())
    valleys = []
    for k in range(4):
        core = frozenset(
            _cube_state(k, coords, N)
            for coords in itertools.product(range(ell + 1, N - ell + 1), repeat=d))
        valleys.append(core)
    union = set().union(*valleys)
    partition = Partition(tuple(valleys), frozenset(states) - union)
    theta = N ** 2 * math.log(N) if d == 2 else float(N ** d)
    return ModelSpec(
        family="glued_cubes",
        params={"d": d, "N": N, "ell": ell},
        chain=chain,
        partition=partition,
        suggested_theta=float(theta),
        pi_formula=pi_formula,
        info={"degrees": {s: int(len(adjacency[s])) for s in states},
              "glue_states": [f"c{k}{(k + 1) % 4}" for k in range(4)]},
    )


def glued_cubes_rotation(spec: ModelSpec) -> dict:
    """The label automorphism rotating cube k onto cube k+1 (mod 4)."""
    if spec.family != "glued_cubes":
        raise BadParams("rotation map is defined for glued_cubes models")
    d, N = spec.params["d"], spec.params["N"]
    out = {}
    for k in range(4):
        for coords in itertools.product(range(1, N + 1), repeat=d):
            out[_cube_state(k, coords, N)] = _cube_state((k + 1) % 4, coords, N)
    return out


# ---------------------------------------------------------------------------
# condensing zero-range process


def _zr_label(cfg):
    return "|".join(str(c) for c in cfg)


def _zr_parse(label):
    return tuple(int(c) for c in label.split("|"))


def _zr_g(n, alpha):
    if n <= 0:
        return 0.0
    if n == 1:
        return 1.0
    return float(n ** alpha / (n - 1) ** alpha)


class ZeroRangeImplicit:
    """Neighbor enumerator for simulation without the dense state space."""

    def __init__(self, L, alpha, p):
        self.L = L
        self.alpha = alpha
        self.p = p

    def holding_rate(self, label):
        # right and left legs carry p and 1-p of each g, so the total is sum g
        cfg = _zr_parse(label)
        return sum(_zr_g(c, self.alpha) for c in cfg if c > 0)

    def jump_targets(self, label):
        cfg = _zr_parse(label)
        targets, rates = [], []
        for x in range(self.L):
            if cfg[x] == 0:
                continue
            g = _zr_g(cfg[x], self.alpha)
            for direction, prob in ((1, self.p), (-1, 1.0 - self.p)):
                if prob <= 0:
                    continue
                y = (x + direction) % self.L
                moved = list(cfg)
                moved[x] -= 1
                moved[y] += 1
                targets.append(_zr_label(moved))
                rates.append(g * prob)
        return targets, np.array(rates)


def zero_range(L: int, N: int, alpha: float, p: float, ell: int = None) -> ModelSpec:
    """Nearest-neighbor zero-range process on the L-torus with N particles.

    A particle leaves a site holding n of them at rate g(n) (g(1) = 1,
    g(n) = n^alpha / (n-1)^alpha), stepping right with probability p.  The
    product-form stationary law concentrates all but o(N) particles on one
    site; valley x collects the configurations with at least N - ell
    particles there.  ell defaults to floor(sqrt(N)), which keeps the
    valley-mass and separating-set trends monotone at desk-scale N.
    """
    if L < 3 or N < L or alpha <= 1 or not 0.5 <= p <= 1:
        raise BadParams(f"need L >= 3, N >= L, alpha > 1, p in [1/2, 1]; "
                        f"got L={L}, N={N}, alpha={alpha}, p={p}")
    if ell is None:
        ell = max(1, math.isqrt(N))
    if not 1 <= ell < N / 2:
        raise BadParams(f"need 1 <= ell < N/2, got ell={ell}")
    count = math.comb(N + L - 1, L - 1)
    if count > config.DEFAULT.state_guard:
        raise TooLarge(f"zero range would have {count} states")
    configs = []
    for cuts in itertools.combinations(range(N + L - 1), L - 1):
        prev = -1
        cfg = []
        for c in cuts:
            cfg.append(c - prev - 1)
            prev = c
        cfg.append(N + L - 2 - prev)
        configs.append(tuple(cfg))
    configs.sort()
    implicit = ZeroRangeImplicit(L, alpha, p)
    states = [_zr_label(c) for c in configs]
    triples = []
    for s in states:
        targets, rates = implicit.jump_targets(s)
        combined = {}
        for t, r in zip(targets, rates):
            combined[t] = combined.get(t, 0.0) + float(r)
        for t in sorted(combined):
            triples.append((s, t, combined[t]))
    chain = build_chain(states, triples)
    log_w = np.array([-alpha * sum(math.log(c) for c in _zr_parse(s) if c > 1)
                      for s in chain.states])
    w = np.exp(log_w - log_w.max())
    pi_formula = ProbVector(w / w.sum())
    valleys = tuple(
        frozenset(s for s in states if _zr_parse(s)[x] >= N - ell)
        for x in range(L))
    union = set().union(*valleys)
    partition = Partition(valleys, frozenset(states) - union)
    return ModelSpec(
        family="zero_range",
        params={"L": L, "N": N, "alpha": alpha, "p": p, "ell": ell},
        chain=chain,
        partition=partition,
        suggested_theta=float(N ** (1.0 + alpha)),
        pi_formula=pi_formula,
        implicit=implicit,
    )


# ---------------------------------------------------------------------------
# random walk in a potential field


def _grid_label(coords):
    return "(" + ",".join(f"{c:.8g}" for c in coords) + ")"


def potential_rw(axes, potential, N: float, eps: float = None) -> ModelSpec:
    """Lattice walk with rates exp(-(N/2) [F(y) - F(x)]) between neighbors.

    ``axes`` is one or two 1-D coordinate arrays; ``potential`` maps a point
    (scalar for 1-D, pair for 2-D) to a finite value.  The Gibbs law
    proportional to exp(-N F) is reversible.  Default valleys are the
    connected components of {F < H - eps} where H is the lowest level at
    which two basins merge; eps defaults to 5% of the depth below H.  When no
    such split exists (a flat potential, say) the partition is None.
    """
    axes = [np.asarray(a, dtype=float) for a in axes]
    if not 1 <= len(axes) <= 2 or any(len(a) < 2 for a in axes):
        raise BadParams("need one or two coordinate axes with at least 2 points each")
    if N <= 0:
        raise BadParams("inverse-temperature scale N must be positive")
    shape = tuple(len(a) for a in axes)
    points = list(itertools.product(*[range(s) for s in shape]))
    coords = {idx: tuple(axes[ax][i] for ax, i in enumerate(idx)) for idx in points}
    fvals = {}
    for idx in points:
        c = coords[idx]
        val = float(potential(c[0]) if len(c) == 1 else potential(c))
        if not math.isfinite(val):
            raise BadParams(f"potential is not finite at {c}")
        fvals[idx] = val

    def neighbors(idx):
        for ax in range(len(shape)):
            for step in (-1, 1):
                j = idx[ax] + step
                if 0 <= j < shape[ax]:
                    yield idx[:ax] + (j,) + idx[ax + 1:]

    labels = {idx: _grid_label(coords[idx]) for idx in points}
    max_step = max((abs(fvals[nb] - fvals[idx])
                    for idx in points for nb in neighbors(idx)), default=0.0)
    if 0.5 * N * max_step > 700.0:
        raise BadParams(
            f"inverse temperature N={N} makes rates overflow double precision "
            f"(largest potential step {max_step:g})")
    triples = []
    for idx in points:
        for nb in neighbors(idx):
            rate = math.exp(-0.5 * N * (fvals[nb] - fvals[idx]))
            triples.append((labels[idx], labels[nb], rate))
    states = [labels[idx] for idx in sorted(points)]
    chain = build_chain(states, triples)
    logw = np.array([-N * fvals[idx] for idx in sorted(points)])
    w = np.exp(logw - logw.max())
    pi_formula = ProbVector(w / w.sum())
    merge = partition_merge_level(fvals, sorted(points), neighbors)
    partition = None
    if merge is not None:
        partition = _sublevel_partition(sorted(points), fvals, neighbors,
                                        labels, eps, merge)
    fmin = min(fvals.values())
    # Arrhenius suggestion, clamped below the float overflow threshold
    theta = math.exp(min(N * (merge - fmin), 700.0)) if merge is not None else 1.0
    return ModelSpec(
        family="potential_rw",
        params={"shape": shape, "N": N, "eps": eps},
        chain=chain,
        partition=partition,
        suggested_theta=float(theta),
        pi_formula=pi_formula,
        info={"merge_level": merge},
    )


def partition_merge_level(fvals, points, neighbors):
    """Lowest level at which two basins of attraction join (watershed sweep)."""
    order = sorted(points, key=lambda idx: (fvals[idx], idx))
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    active = set()
    for idx in order:
        parent[idx] = idx
        roots = {find(nb) for nb in neighbors(idx) if nb in active}
        active.add(idx)
        if len(roots) >= 2:
            return fvals[idx]
        for r in roots:
            parent[r] = idx
    return None


def _sublevel_partition(points, fvals, neighbors, labels, eps, merge):
    fmin = min(fvals.values())
    if eps is None:
        eps = 0.05 * (merge - fmin)
    if not 0 < eps:
        return None
    threshold = merge - eps
    low = {idx for idx in points if fvals[idx] < threshold}
    comps = []
    unassigned = set(low)
    while unassigned:
        seed = unassigned.pop()
        comp = {seed}
        stack = [seed]
        while stack:
            cur = stack.pop()
            for nb in neighbors(cur):
                if nb in unassigned:
                    unassigned.discard(nb)
                    comp.add(nb)
                    stack.append(nb)
        comps.append(comp)
    if len(comps) < 2:
        return None
    comps.sort(key=lambda c: sorted(c)[0])
    valleys = tuple(frozenset(labels[idx] for idx in comp) for comp in comps)
    delta = frozenset(labels[idx] for idx in points) - set().union(*valleys)
    return Partition(valleys, delta)


# ---------------------------------------------------------------------------
# CLI model strings


_NAMED_POTENTIALS = {
    "double_well": lambda x: (x * x - 1.0) ** 2,
    "flat": lambda x: 0.0,
}


def build_from_string(text: str) -> ModelSpec:
    """Parse model strings like ``glued_cubes:d=2,N=8,ell=2``."""
    if ":" not in text:
        raise BadSpec(f"model string {text!r} needs the form family:key=value,...")
    family, _, args = text.partition(":")
    kv = {}
    for part in args.split(","):
        if not part:
            continue
        if "=" not in part:
            raise BadSpec(f"bad model parameter {part!r}")
        key, _, value = part.partition("=")
        kv[key.strip()] = value.strip()

    def grab(key, cast, default=None):
        if key in kv:
            raw = kv.pop(key)
            try:
                return cast(raw)
            except ValueError as exc:
                raise BadSpec(f"bad value for {key}: {raw!r}") from exc
        if default is None:
            raise BadSpec(f"model {family!r} needs parameter {key!r}")
        return default

    if family == "glued_cubes":
        spec = glued_cubes(grab("d", int), grab("N", int), grab("ell", int))
    elif family == "zero_range":
        ell = int(kv.pop("ell")) if "ell" in kv else None
        spec = zero_range(grab("L", int), grab("N", int), grab("alpha", float),
                          grab("p", float), ell)
    elif family == "potential_rw":
        name = grab("potential", str, "double_well")
        if name not in _NAMED_POTENTIALS:
            raise BadSpec(f"unknown potential {name!r}; choose from {sorted(_NAMED_POTENTIALS)}")
        points = grab("points", int, 21)
        lo = grab("lo", float, -2.0)
        hi = grab("hi", float, 2.0)
        n_scale = grab("N", float)
        eps = float(kv.pop("eps")) if "eps" in kv else None
        spec = potential_rw([np.linspace(lo, hi, points)],
                            _NAMED_POTENTIALS[name], n_scale, eps)
    else:
        raise BadSpec(f"unknown model family {family!r}")
    if kv:
        raise BadSpec(f"unknown model parameters {sorted(kv)} for {family!r}")
    return spec
