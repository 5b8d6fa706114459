"""Recursive hypergraph-partitioning optimizer.

The network is bisected into two balanced tensor groups cutting as little
index weight as possible, each side is solved as its own sub-network (cut
indices become open indices), and the two results meet in a final join.
Small sides are handed to a leaf optimizer. Every index, output or not, is
a plain hyperedge over the tensors carrying it, so no side is favoured.
"""

import dataclasses
import heapq
import math
from dataclasses import dataclass
from itertools import compress
from random import Random
from typing import NamedTuple

from ._util import check_int, check_number, derive_seed
from .core import TensorNetwork, TensorSig, verify_path
from .errors import EinPathError
from .greedy import greedy_path
from .search import exhaustive_path

__all__ = [
    "Hypergraph", "PartitionConfig", "bisect", "build_hypergraph", "cut_weight",
    "partition_optimize",
]

_RESTARTS = 8
_COARSEST = 32  # bisect coarsens while a level has more vertices than this
_RATED_PINS = 16  # edges of more pins are left out of the matching rating

_LEAVES = ("exhaustive_dfs", "greedy")


@dataclass(frozen=True)
class PartitionConfig:
    """Knobs for bisection and the recursion around it. fm_passes caps the
    FM passes per restart on bisect's coarsest level, and per level on the
    way back up; blocks of at most cutoff tensors go to leaf_optimizer."""

    imbalance: float = 0.2
    cutoff: int = 8
    fm_passes: int = 10
    leaf_optimizer: str = "exhaustive_dfs"
    seed: int = 0

    def __post_init__(self):
        check_number("imbalance", self.imbalance, 0, below=0.5)
        check_int("cutoff", self.cutoff, 2)
        check_int("fm_passes", self.fm_passes, 1)
        if self.leaf_optimizer not in _LEAVES:
            raise EinPathError(f"unknown leaf optimizer '{self.leaf_optimizer}'")
        check_int("seed", self.seed)


@dataclass(frozen=True)
class Hypergraph:
    """One vertex per tensor; every index is a hyperedge weighted log2(extent)."""

    vertices: tuple
    edges: dict
    weights: dict


def build_hypergraph(network):
    """Hypergraph of a network for bisection: each index is an edge over the
    tensors carrying it. An output index carried by one tensor (an open leg)
    is a one-pin edge, which no bisection cuts.
    """
    incidence = {}
    for sig in network.tensors:
        for ix in sig.indices:
            incidence.setdefault(ix, set()).add(sig.id)
    return Hypergraph(
        vertices=tuple(range(len(network.tensors))),
        edges={ix: frozenset(vs) for ix, vs in sorted(incidence.items())},
        weights={ix: math.log2(network.extents[ix]) for ix in sorted(incidence)},
    )


def _balance_bounds(n, imbalance):
    half = -(-n // 2)
    lo = max(1, min(n // 2, math.floor(half * (1 - imbalance))))
    hi = min(n - 1, math.ceil(half * (1 + imbalance)))
    return lo, hi


def cut_weight(h, part_a):
    """Total weight of edges with members both in and outside part_a."""
    total = 0.0
    for ix in sorted(h.edges):
        members = h.edges[ix]
        if 0 < sum(v in part_a for v in members) < len(members):
            total += h.weights[ix]
    return total


class _Flat(NamedTuple):
    """One level of bisect's flat layout. On the finest, vertices are
    numbered by position in sorted order, and the edges of two or more pins
    in sorted index order; per edge: its member positions and weight; per
    vertex: its incident edge ids in increasing order and its weight."""

    members: list
    weights: list
    incident: list
    vweights: list


def _counts(flat, side):
    """Pins of every edge on side A and on side B."""
    c1 = [0] * len(flat.weights)
    for edges in compress(flat.incident, side):
        for e in edges:
            c1[e] += 1
    return [len(m) - b for m, b in zip(flat.members, c1)], c1


def _cut(flat, c0, c1):
    """Weight of the edges with pins on both sides, summed in edge order."""
    total = 0.0
    for w, a, b in zip(flat.weights, c0, c1):
        if a and b:
            total += w
    return total


def _fm_pass(flat, side, sizes, lo, hi):
    """One refinement pass: greedily move unlocked vertices (each at most
    once) by gain under the balance bounds, then keep the best prefix.

    side is a bytearray over vertex positions (0 = A, 1 = B); it and sizes
    (the vertex weight per side) are updated in place. A side offers its
    best vertex only if both sides then stay within [lo, hi]. A vertex's
    gain is summed over its incident edges in edge order, and is recomputed
    whenever a move changes whether an edge it reads has zero or one pins
    on a side, so every gain, and with it every tie, is the float a fresh
    computation gives. Heap entries (-gain, position, generation) are
    unique, so pop order does not depend on push order.

    An edge with locked pins on both sides stays cut for the rest of the
    pass. Once the initial cut minus the weight of such edges is more than
    1e-6 (a margin for float error) below the best reduction so far, no
    later prefix can beat the best one, and the pass stops early. Returns
    (the kept cut reduction >= 0, the moves made before the rollback).
    """
    members = flat.members
    weights = flat.weights
    incident = flat.incident
    vweights = flat.vweights
    n = len(side)
    c0, c1 = _counts(flat, side)
    cnt = (c0, c1)
    initial_cut = _cut(flat, c0, c1)
    heaps = ([], [])
    for u in range(n):
        s = side[u]
        cs = cnt[s]
        ct = cnt[1 - s]
        g = 0.0
        for e in incident[u]:
            if cs[e] == 1:
                if ct[e]:
                    g += weights[e]
            elif not ct[e]:
                g -= weights[e]
        heaps[s].append((-g, u, 0))
    heapq.heapify(heaps[0])
    heapq.heapify(heaps[1])
    heappop = heapq.heappop
    heappush = heapq.heappush
    gen = [0] * n
    locked = bytearray(n)
    held = bytearray(len(weights))  # per edge: 1 = a locked pin on A, 2 = on B
    mark = [-1] * n
    floor = max(lo, sizes[0] + sizes[1] - hi)  # least weight a side may keep
    moves = []
    cum = 0.0
    best_cum = 0.0
    best_len = 0
    dead = 0.0
    while True:
        tops = [None, None]
        for s in (0, 1):
            heap = heaps[s]
            while heap:
                top = heap[0]
                v = top[1]
                if locked[v] or top[2] != gen[v]:
                    heappop(heap)
                    continue
                if sizes[s] - vweights[v] >= floor:
                    tops[s] = top  # else moving v out of s would break balance
                break
        top0, top1 = tops
        if top1 is None:
            if top0 is None:
                break
            s = 0
        else:
            s = 0 if top0 is not None and top0 < top1 else 1
        negg, v, _ = heappop(heaps[s])
        t = 1 - s
        locked[v] = 1
        side[v] = t
        sizes[s] -= vweights[v]
        sizes[t] += vweights[v]
        cum += -negg
        step = len(moves)
        moves.append(v)
        if cum > best_cum + 1e-12:
            best_cum = cum
            best_len = step + 1
        cs = cnt[s]
        ct = cnt[t]
        bit = 1 << t
        touched = []
        for e in incident[v]:
            old_s = cs[e]
            old_t = ct[e]
            cs[e] = old_s - 1
            ct[e] = old_t + 1
            p = held[e]
            if not p & bit:
                held[e] = p | bit
                if p:
                    dead += weights[e]
            if old_t <= 1 or old_s <= 2:
                for u in members[e]:
                    if mark[u] != step and not locked[u]:
                        mark[u] = step
                        touched.append(u)
        if initial_cut - dead < best_cum - 1e-6:
            break  # no later prefix can beat the best one
        for u in touched:
            su = side[u]
            cs = cnt[su]
            ct = cnt[1 - su]
            g = 0.0
            for e in incident[u]:
                if cs[e] == 1:
                    if ct[e]:
                        g += weights[e]
                elif not ct[e]:
                    g -= weights[e]
            gen[u] += 1
            heappush(heaps[su], (-g, u, gen[u]))
    for v in moves[best_len:]:
        s = side[v]
        side[v] = 1 - s
        sizes[s] -= vweights[v]
        sizes[1 - s] += vweights[v]
    return best_cum, len(moves)


def _refine(flat, side, sizes, lo, hi, passes):
    """Run up to `passes` FM passes, stopping after one that cuts nothing."""
    for _ in range(passes):
        if _fm_pass(flat, side, sizes, lo, hi)[0] <= 0:
            break


def _coarsen(flat, cap, rng):
    """Heavy-edge matching: in random order, each unmatched vertex joins
    the unmatched neighbour of highest positive rating, the sum of
    w(e) / (|e| - 1) over shared edges of at most _RATED_PINS pins, if the
    pair weighs at most cap. Returns (each vertex's cluster, the coarse
    level), where parallel edges merge, summing weights, and one-pin ones go.
    """
    members, weights, incident, vweights = flat
    cluster = [-1] * len(incident)
    order = list(range(len(incident)))
    rng.shuffle(order)
    m = 0
    for u in order:
        if cluster[u] >= 0:
            continue
        cluster[u] = m
        rating = {}
        for e in incident[u]:
            if len(members[e]) <= _RATED_PINS:
                r = weights[e] / (len(members[e]) - 1)
                for v in members[e]:
                    if cluster[v] < 0 and vweights[u] + vweights[v] <= cap:
                        rating[v] = rating.get(v, 0.0) + r
        if rating and max(rating.values()) > 0:
            cluster[max(rating, key=rating.get)] = m
        m += 1
    edges = {}
    for mem, w in zip(members, weights):
        pins = tuple(sorted({cluster[v] for v in mem}))
        if len(pins) > 1:
            edges[pins] = edges.get(pins, 0.0) + w
    coarse = _Flat(list(edges), list(edges.values()), [[] for _ in range(m)], [0] * m)
    for u, c in enumerate(cluster):
        coarse.vweights[c] += vweights[u]
    for e, pins in enumerate(coarse.members):
        for c in pins:
            coarse.incident[c].append(e)
    return cluster, coarse


def bisect(h, config=None):
    """Split a hypergraph in two balanced halves with a small cut.

    Multilevel, as in hMETIS and KaHyPar: while a level has more than
    _COARSEST vertices, _coarsen merges vertices (in an order drawn from
    config.seed) into clusters weighing at most a quarter of the balance
    window, until a level keeps over 90% of its vertices. On the coarsest
    level, _RESTARTS random balanced starts get up to fm_passes FM passes
    each; the best is projected down one level at a time and refined by up
    to fm_passes passes on each. A pass never increases the cut. With at
    most _COARSEST vertices, or a window under 8 (e.g. imbalance 0), no
    level is built and this is the flat bisection, pass for pass. Returns
    (part_a, part_b, the cut weight on the finest level). An edge member
    that is not a vertex raises EinPathError. _Flat describes the arrays,
    and _fm_pass the gain rule, the balance rule and the early stop.
    """
    config = config or PartitionConfig()
    vertices = sorted(h.vertices)
    n = len(vertices)
    if n < 2:
        raise EinPathError("bisection needs at least two vertices")
    lo, hi = _balance_bounds(n, config.imbalance)
    pos = {v: i for i, v in enumerate(vertices)}
    members = []
    weights = []
    incident = [[] for _ in range(n)]
    for ix in sorted(h.edges):
        try:
            mem = [pos[v] for v in h.edges[ix]]
        except KeyError as err:
            raise EinPathError(f"edge {ix!r} has member {err.args[0]!r}, not a vertex") from None
        if len(mem) > 1:
            for p in mem:
                incident[p].append(len(members))
            members.append(mem)
            weights.append(h.weights[ix])
    flat = coarse = _Flat(members, weights, incident, [1] * n)
    least, most = max(lo, n - hi), min(hi, n - lo)  # the weights side A may hold
    levels = []
    rng = Random(derive_seed(config.seed, "coarsen"))
    while len(coarse.vweights) > _COARSEST and most - least >= 8:
        cluster, coarser = _coarsen(coarse, (most - least) // 4, rng)
        if len(coarser.vweights) > 0.9 * len(coarse.vweights):
            break
        levels.append((cluster, coarse))
        coarse = coarser
    vweights = coarse.vweights
    best = None
    for restart in range(_RESTARTS):
        rng = Random(derive_seed(config.seed, restart))
        perm = list(range(len(vweights)))
        rng.shuffle(perm)
        # A takes perm's vertices until it weighs >= target, so it stays <= most
        target = rng.randint(least, most - max(vweights) + 1)
        side = bytearray(b"\1") * len(vweights)
        size_a = 0
        for p in perm:
            if size_a >= target:
                break
            side[p] = 0
            size_a += vweights[p]
        _refine(coarse, side, [size_a, n - size_a], lo, hi, config.fm_passes)
        weight = _cut(coarse, *_counts(coarse, side))
        if best is None or weight < best[0] - 1e-12:
            best = (weight, bytes(side))
    side = best[1]
    for cluster, finer in reversed(levels):
        side = bytearray(side[c] for c in cluster)
        size_b = sum(compress(finer.vweights, side))
        _refine(finer, side, [n - size_b, size_b], lo, hi, config.fm_passes)
    weight = _cut(flat, *_counts(flat, side))
    part_a = frozenset(v for v, s in zip(vertices, side) if not s)
    part_b = frozenset(vertices) - part_a
    return part_a, part_b, weight


def _subnetwork(network, members, carriers, out_set):
    """Sub-network over `members`; indices reaching outside become output."""
    inside = set(members)
    seen = set()
    for pid in members:
        seen.update(network.tensors[pid].indices)
    sub_output = tuple(
        ix for ix in sorted(seen) if ix in out_set or carriers[ix] - inside
    )
    tensors = tuple(
        TensorSig(pos, network.tensors[pid].indices) for pos, pid in enumerate(members)
    )
    extents = {ix: network.extents[ix] for ix in seen}
    return TensorNetwork(tensors, extents, sub_output)


def _partition_pairs(network, seed, depth, config):
    n = len(network.tensors)
    if n <= config.cutoff:
        leaf = greedy_path if config.leaf_optimizer == "greedy" else exhaustive_path
        return leaf(network)[0]
    h = build_hypergraph(network)
    part_a, part_b, _ = bisect(h, dataclasses.replace(config, seed=seed))
    sides = sorted(
        [sorted(part_a), sorted(part_b)], key=lambda s: (len(s), s[0])
    )
    out_set = set(network.output)
    pairs = []
    roots = []
    for tag, members in enumerate(sides):
        sub = _subnetwork(network, members, h.edges, out_set)
        sub_pairs = _partition_pairs(sub, derive_seed(seed, depth, tag), depth + 1, config)
        trans = dict(enumerate(members))
        m = len(members)
        for j, (x, y) in enumerate(sub_pairs):
            pairs.append((trans[x], trans[y]))
            trans[m + j] = n + len(pairs) - 1
        roots.append(trans[2 * m - 2])
    pairs.append((roots[0], roots[1]))
    return pairs


def partition_optimize(network, config=None):
    """Contract by recursive balanced bisection of the index hypergraph.

    Cut indices become open indices of the two sub-problems, which recurse
    until at most `cutoff` tensors remain and the leaf optimizer takes over;
    the root join then sums exactly the cut indices not in the output.
    Child seeds derive from (seed, depth, side). Returns (tree, cost report).
    """
    config = config or PartitionConfig()
    pairs = _partition_pairs(network, config.seed, 0, config)
    return verify_path(pairs, network)
