"""Builders for the worked example families.

Each builder returns a ModelSpec: the chain, a default valley partition, and
a suggested time scale.  The stationary laws claimed by the builders are
closed-form but never trusted: callers (and the test suite) re-verify them
through the generic stationary solver.  A builder enumerates its states and
edges as integer arrays, formats each label once, and hands the rates to the
chain constructor directly; ``build_chain`` is the validating entry for
chains from outside.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from . import config
from .chain import Chain, Partition, ProbVector, _chain_from_csr
from .errors import BadParams, BadSpec, TooLarge


@dataclass(frozen=True)
class ModelSpec:
    family: str
    params: dict
    chain: Chain
    partition: Partition            # may be None when no valley structure exists
    suggested_theta: float
    pi_formula: ProbVector          # closed-form stationary law (verify before use)
    info: dict = field(default_factory=dict)


def _csr_chain(states, src, dst, rates):
    """Chain on ``states`` with rate ``rates[e]`` on the edge src[e] -> dst[e]."""
    n = len(states)
    return _chain_from_csr(states, sp.csr_matrix((rates, (src, dst)), shape=(n, n)))


def _lattice_edges(shape):
    """Nearest-neighbor edges (src, dst), both directions, of a C-ordered grid."""
    flat = np.arange(math.prod(shape)).reshape(shape)
    lo = np.concatenate([flat.take(range(s - 1), axis=ax).ravel() for ax, s in enumerate(shape)])
    hi = np.concatenate([flat.take(range(1, s), axis=ax).ravel() for ax, s in enumerate(shape)])
    return np.concatenate([lo, hi]), np.concatenate([hi, lo])


# ---------------------------------------------------------------------------
# four glued cubes


def _cube_labels(d, N):
    """Labels by (cube k, C-ordered lattice index); the gluing corners are shared."""
    local = [",".join(map(str, c)) for c in itertools.product(range(1, N + 1), repeat=d)]
    labels = np.array([[f"{k}:{c}" for c in local] for k in range(4)], dtype=object)
    for k in range(4):
        labels[k, -1] = labels[(k + 1) % 4, 0] = f"c{k}{(k + 1) % 4}"
    return labels


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
    labels = _cube_labels(d, N)
    # states sorted by label; slot[k, i] is the state of lattice point i of cube k
    states, slot = np.unique(labels, return_inverse=True)
    states = states.tolist()
    slot = slot.reshape(labels.shape)
    lo, hi = _lattice_edges((N,) * d)
    src, dst = slot[:, lo].ravel(), slot[:, hi].ravel()
    degrees = np.bincount(src, minlength=len(states))
    chain = _csr_chain(states, src, dst, 1.0 / degrees[src])
    weights = degrees.astype(float)
    pi_formula = ProbVector(weights / weights.sum())
    coords = np.indices((N,) * d).reshape(d, -1)
    core = ((coords >= ell) & (coords < N - ell)).all(axis=0)
    valleys = tuple(frozenset(labels[k, core]) for k in range(4))
    partition = Partition(valleys, frozenset(states) - set().union(*valleys))
    theta = N ** 2 * math.log(N) if d == 2 else float(N ** d)
    return ModelSpec(
        family="glued_cubes",
        params={"d": d, "N": N, "ell": ell},
        chain=chain,
        partition=partition,
        suggested_theta=float(theta),
        pi_formula=pi_formula,
        info={"degrees": dict(zip(states, degrees.tolist())),
              "glue_states": [f"c{k}{(k + 1) % 4}" for k in range(4)]},
    )


# ---------------------------------------------------------------------------
# condensing zero-range process


def zero_range(L: int, N: int, alpha: float, p: float, ell: int = None) -> ModelSpec:
    """Nearest-neighbor zero-range process on the L-torus with N particles.

    A particle leaves a site holding n of them at rate g(n) (g(1) = 1,
    g(n) = n^alpha / (n-1)^alpha), stepping right with probability p.  The
    product-form stationary law concentrates all but o(N) particles on one
    site; valley x collects the configurations with at least N - ell
    particles there.  ell defaults to floor(sqrt(N)), which keeps the
    valley-mass and separating-set trends monotone at desk-scale N.
    """
    if L < 3 or N < L or not 1 < alpha < math.inf or not 0.5 <= p <= 1:
        raise BadParams(f"need L >= 3, N >= L, finite alpha > 1, p in [1/2, 1]; "
                        f"got L={L}, N={N}, alpha={alpha}, p={p}")
    if ell is None:
        ell = max(1, math.isqrt(N))
    if not 1 <= ell < N / 2:
        raise BadParams(f"need 1 <= ell < N/2, got ell={ell}")
    count = math.comb(N + L - 1, L - 1)
    if count > config.DEFAULT.state_guard:
        raise TooLarge(f"zero range would have {count} states")
    # the positions of L - 1 walls among N + L - 1 slots, in lexicographic
    # order, give the configurations in lexicographic order
    walls = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(N + L - 1), L - 1)), dtype=np.int64, count=count * (L - 1))
    configs = np.diff(walls.reshape(count, L - 1), prepend=-1, append=N + L - 1, axis=1) - 1
    # base-(N + 1) keys increase with the configurations, so a moved
    # configuration is found by binary search
    radix = (N + 1) ** np.arange(L - 1, -1, -1)
    keys = configs @ radix
    try:
        # bounds n^alpha for every n <= N as well
        theta = float(N ** (1.0 + alpha))
    except OverflowError as exc:
        raise BadParams(f"alpha={alpha} makes N^(1 + alpha) overflow double precision") from exc
    g = np.array([0.0, 1.0] + [n ** alpha / (n - 1) ** alpha for n in range(2, N + 1)])
    src, dst, rates = [], [], []
    for x in range(L):
        occupied = np.flatnonzero(configs[:, x])
        for y, prob in (((x + 1) % L, p), ((x - 1) % L, 1.0 - p)):
            if prob > 0:
                src.append(occupied)
                dst.append(np.searchsorted(keys, keys[occupied] - radix[x] + radix[y]))
                rates.append(g[configs[occupied, x]] * prob)
    states = ["|".join(map(str, c)) for c in configs.tolist()]
    chain = _csr_chain(states, np.concatenate(src), np.concatenate(dst), np.concatenate(rates))
    log_c = np.array([0.0, 0.0] + [math.log(c) for c in range(2, N + 1)])
    log_w = -alpha * sum(log_c[configs].T)
    w = np.exp(log_w - log_w.max())
    pi_formula = ProbVector(w / w.sum())
    labels = np.array(states, dtype=object)
    valleys = tuple(frozenset(labels[configs[:, x] >= N - ell]) for x in range(L))
    partition = Partition(valleys, frozenset(states) - set().union(*valleys))
    return ModelSpec(
        family="zero_range",
        params={"L": L, "N": N, "alpha": alpha, "p": p, "ell": ell},
        chain=chain,
        partition=partition,
        suggested_theta=theta,
        pi_formula=pi_formula,
    )


# ---------------------------------------------------------------------------
# random walk in a potential field


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
    if not 0 < N < math.inf:
        raise BadParams(f"inverse-temperature scale N must be finite and positive, got {N!r}")
    shape = tuple(len(a) for a in axes)
    coords = [tuple(axes[ax][i] for ax, i in enumerate(idx)) for idx in np.ndindex(shape)]
    fvals = np.array([float(potential(c[0]) if len(c) == 1 else potential(c)) for c in coords])
    bad = np.flatnonzero(~np.isfinite(fvals))
    if len(bad):
        raise BadParams(f"potential is not finite at {coords[bad[0]]}")
    labels = ["(" + ",".join(f"{x:.8g}" for x in c) + ")" for c in coords]
    if len(set(labels)) < len(labels):
        raise BadParams("grid points closer than 8 significant digits share a label")
    src, dst = _lattice_edges(shape)
    max_step = float(np.abs(fvals[dst] - fvals[src]).max())
    if 0.5 * N * max_step > 700.0:
        raise BadParams(
            f"inverse temperature N={N} makes rates overflow double precision "
            f"(largest potential step {max_step:g})")
    rates = [math.exp(v) for v in (-0.5 * N * (fvals[dst] - fvals[src])).tolist()]
    chain = _csr_chain(labels, src, dst, rates)
    logw = -N * fvals
    w = np.exp(logw - logw.max())
    pi_formula = ProbVector(w / w.sum())
    merge = _merge_level(fvals, chain.rates)
    partition = None
    if merge is not None:
        partition = _sublevel_partition(labels, fvals, chain.rates, eps, merge)
    fmin = float(fvals.min())
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


def _merge_level(fvals, adjacency):
    """Lowest level at which two basins of attraction join (watershed sweep)."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in np.argsort(fvals, kind="stable").tolist():
        parent[i] = i
        nbrs = adjacency.indices[adjacency.indptr[i]:adjacency.indptr[i + 1]].tolist()
        roots = {find(j) for j in nbrs if j in parent}
        if len(roots) >= 2:
            return float(fvals[i])
        for r in roots:
            parent[r] = i
    return None


def _sublevel_partition(labels, fvals, adjacency, eps, merge):
    if eps is None:
        eps = 0.05 * (merge - float(fvals.min()))
    if not 0 < eps:
        return None
    low = np.flatnonzero(fvals < merge - eps)
    count, comp = connected_components(adjacency[low][:, low], directed=False)
    if count < 2:
        return None
    members = sorted((low[comp == c] for c in range(count)), key=lambda m: m[0])
    labels = np.array(labels, dtype=object)
    valleys = tuple(frozenset(labels[m]) for m in members)
    return Partition(valleys, frozenset(labels) - set().union(*valleys))


# ---------------------------------------------------------------------------
# CLI model strings


_NAMED_POTENTIALS = {
    "double_well": lambda x: (x * x - 1.0) ** 2,
    "flat": lambda x: 0.0,
}
_REQUIRED = object()


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

    def grab(key, cast, default=_REQUIRED):
        if key in kv:
            raw = kv.pop(key)
            try:
                return cast(raw)
            except ValueError as exc:
                raise BadSpec(f"bad value for {key}: {raw!r}") from exc
        if default is _REQUIRED:
            raise BadSpec(f"model {family!r} needs parameter {key!r}")
        return default

    if family == "glued_cubes":
        spec = glued_cubes(grab("d", int), grab("N", int), grab("ell", int))
    elif family == "zero_range":
        spec = zero_range(grab("L", int), grab("N", int), grab("alpha", float),
                          grab("p", float), grab("ell", int, None))
    elif family == "potential_rw":
        name = grab("potential", str, "double_well")
        if name not in _NAMED_POTENTIALS:
            raise BadSpec(f"unknown potential {name!r}; choose from {sorted(_NAMED_POTENTIALS)}")
        points = grab("points", int, 21)
        if points < 2:
            raise BadParams(f"need points >= 2, got {points}")
        lo = grab("lo", float, -2.0)
        hi = grab("hi", float, 2.0)
        n_scale = grab("N", float)
        spec = potential_rw([np.linspace(lo, hi, points)],
                            _NAMED_POTENTIALS[name], n_scale, grab("eps", float, None))
    else:
        raise BadSpec(f"unknown model family {family!r}")
    if kv:
        raise BadSpec(f"unknown model parameters {sorted(kv)} for {family!r}")
    return spec
