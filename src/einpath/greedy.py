"""Greedy contraction-order optimization with optional thermal sampling."""

import bisect
import heapq
import itertools
import math
import warnings
from dataclasses import dataclass
from random import Random

from ._util import derive_seed
from .core import SsaPath, cost, index_appearances, ssa_to_tree, tensor_size
from .errors import EinPathError

__all__ = ["GreedyConfig", "greedy", "sampled_greedy"]

BOLTZMANN_POOL = 32  # candidates considered per thermal selection


@dataclass(frozen=True)
class GreedyConfig:
    """Knobs for the greedy optimizer.

    temperature > 0 switches pair selection to Boltzmann sampling over the
    current best candidates; samples > 1 repeats the whole run and keeps the
    cheapest tree.
    """

    temperature: float = 0.0
    samples: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.temperature < 0:
            raise EinPathError("temperature must be >= 0")
        if self.samples < 1:
            raise EinPathError("samples must be >= 1")


def _pop_best(heap, legs, extra):
    """Pop the best entry on two live terms, unless `extra` beats it.

    Stale heap tops are dropped on the way. Returns None when neither exists.
    """
    while heap and not (heap[0][1] in legs and heap[0][2] in legs):
        heapq.heappop(heap)
    if heap and (extra is None or heap[0] < extra):
        return heapq.heappop(heap)
    return extra


def _thermal_pop(heap, legs, temperature, rng, extra):
    """Boltzmann-sample one of the best live candidates, pushing back the rest.

    `extra`, a candidate that is not on the heap, joins the pool unless the
    pool already holds its pair; it is never pushed onto the heap.
    """
    pool = []
    while heap and len(pool) < BOLTZMANN_POOL:
        entry = heapq.heappop(heap)
        if entry[1] in legs and entry[2] in legs:
            pool.append(entry)
    if extra is not None and all(entry[1:] != extra[1:] for entry in pool):
        bisect.insort(pool, extra)
    if not pool:
        return None
    if len(pool) == 1:
        return pool[0]
    base = pool[0][0]
    weights = []
    for entry in pool:
        d = entry[0] - base
        weights.append(math.exp(-d / temperature) if d <= 700 * temperature else 0.0)
    r = rng.random() * sum(weights)
    chosen = 0
    acc = 0.0
    for k, w in enumerate(weights):
        acc += w
        if r < acc:
            chosen = k
            break
    entry = pool.pop(chosen)
    for other in pool:
        if other is not extra:
            heapq.heappush(heap, other)
    return entry


def _two_smallest(by_size, legs):
    """The two smallest live terms of a lazy-deletion (size, id) heap."""
    while by_size[0][1] not in legs:
        heapq.heappop(by_size)
    first = heapq.heappop(by_size)
    while by_size[0][1] not in legs:
        heapq.heappop(by_size)
    second = by_size[0]
    heapq.heappush(by_size, first)
    return first, second


def _greedy_path(network, temperature=0.0, rng=None):
    """Run one greedy pass; returns (ssa pairs, heap pushes).

    Terms carry per-index appearance counts so hyperedges survive until
    their last two carriers meet. Candidate pairs live in a heap keyed by
    (score, smaller id, larger id); stale entries are dropped lazily when
    popped. With no sharing pair left, the two smallest terms are contracted
    (outer products only happen between finished components).

    Output indices carried by every input tensor (einsum batch indices; call
    them F, with extent product P) are never summed, so every pair shares
    them. They give no candidates: only indices outside F do, which keeps
    the pushes near n times the mean number of neighbours instead of n^2.
    A pair sharing only F scores s_i*s_j/P - s_i - s_j, which never falls as
    either size grows (every size is a multiple of P), so the best such pair
    is the two smallest live terms by (size, id). When some term has size P,
    it scores -P with any partner, and the best pair is the lowest live id
    with the lowest id of size P, or the two lowest live ids when the lowest
    has size P. That one lazy pair, kept by a lazy-deletion (size, id) heap
    and two forward-moving pointers to the lowest live ids, competes
    with the heap top each step; if it shares an index outside F as well,
    the heap already holds it, so the choice is the same as scoring every
    pair. With temperature > 0 it joins the Boltzmann pool.
    """
    appear = index_appearances(network)
    extents = network.extents
    legs = {}
    sizes = {}
    carriers = {}
    for sig in network.tensors:
        legs[sig.id] = dict.fromkeys(sig.indices, 1)
        sizes[sig.id] = tensor_size(sig.indices, extents)
        for ix in sig.indices:
            carriers.setdefault(ix, set()).add(sig.id)
    n = len(network.tensors)
    carried = frozenset(ix for ix in network.output if len(carriers[ix]) == n)
    unit = tensor_size(carried, extents)
    by_size = sorted((s, t) for t, s in sizes.items())
    low = low2 = 0  # the two lowest live ids: new ids are higher, so neither falls

    def merge(i, j):
        counts = dict(legs[i])
        for ix, c in legs[j].items():
            counts[ix] = counts.get(ix, 0) + c
        kept = {}
        size = 1
        for ix, c in counts.items():
            if c < appear[ix]:
                kept[ix] = c
                size *= extents[ix]
        return kept, size

    def score(i, j):
        # the merged size, from the product of both sizes: a shared index
        # counted twice divides out once if kept, twice if summed here
        a, b = legs[i], legs[j]
        if len(a) > len(b):
            a, b = b, a
        size = sizes[i] * sizes[j]
        for ix, c in a.items():
            d = b.get(ix)
            if d is not None:
                e = extents[ix]
                size //= e * e if c + d == appear[ix] else e
        return size - sizes[i] - sizes[j]

    heap = []
    pushes = 0

    def push(i, j):
        nonlocal pushes
        heapq.heappush(heap, (score(i, j), i, j))
        pushes += 1

    def lazy_pair():
        nonlocal low, low2
        (size, a), (_, b) = _two_smallest(by_size, legs)
        if size == unit:
            while low not in legs:
                low += 1
            low2 = max(low2, low + 1)
            while low2 not in legs:
                low2 += 1
            a, b = (low, low2) if a == low else (low, a)
        i, j = min(a, b), max(a, b)
        return score(i, j), i, j

    seen = set()
    for ix in sorted(carriers.keys() - carried):
        for i, j in itertools.combinations(sorted(carriers[ix]), 2):
            if (i, j) not in seen:
                seen.add((i, j))
                push(i, j)

    pairs = []
    next_id = n
    while len(legs) > 1:
        lazy = lazy_pair() if carried else None
        if temperature > 0:
            entry = _thermal_pop(heap, legs, temperature, rng, lazy)
        else:
            entry = _pop_best(heap, legs, lazy)
        if entry is None:
            # disconnected remainder: fold the two smallest results together
            (_, i), (_, j) = _two_smallest(by_size, legs)
            if i > j:
                i, j = j, i
        else:
            _, i, j = entry
        kept, size = merge(i, j)
        k = next_id
        next_id += 1
        for t in (i, j):
            for ix in legs[t]:
                group = carriers[ix]
                group.discard(t)
                if not group:
                    del carriers[ix]
            del legs[t]
            del sizes[t]
        legs[k] = kept
        sizes[k] = size
        neighbours = set()
        for ix in kept:
            # an output index can outlive every other carrier
            carriers.setdefault(ix, set()).add(k)
            if ix not in carried:
                neighbours |= carriers[ix]
        neighbours.discard(k)
        for b in sorted(neighbours):
            push(b, k)
        heapq.heappush(by_size, (size, k))
        pairs.append((i, j))
    return pairs, pushes


def _single_run(network, config, sample):
    rng = None
    if config.temperature > 0:
        rng = Random(derive_seed(config.seed, sample))
    pairs, pushes = _greedy_path(network, temperature=config.temperature, rng=rng)
    tree = ssa_to_tree(SsaPath(pairs), network)
    return tree, cost(tree, network.extents), pushes


def greedy(network, config=None):
    """Greedily contract the best-scoring pair until one tensor remains.

    A pair scores the size of its result minus the sizes of both operands
    (lower is better). Returns the tree and its cost.
    """
    config = config or GreedyConfig()
    tree, report, _ = _single_run(network, config, 0)
    return tree, report


def _sample_runs(network, config):
    """Yield (sample, tree, report) for each sampled greedy pass."""
    for sample in range(config.samples):
        tree, report, _ = _single_run(network, config, sample)
        yield sample, tree, report


def sampled_greedy(network, config=None):
    """Repeat thermal greedy passes and keep the minimum-flops tree.

    Each sample runs with a sub-seed derived from (seed, sample), so results
    do not depend on evaluation order. With temperature 0 every sample is
    identical; that degenerate combination warns and collapses to one pass.
    """
    config = config or GreedyConfig()
    if config.temperature == 0 and config.samples > 1:
        warnings.warn("temperature=0 makes all greedy samples identical", stacklevel=2)
        config = GreedyConfig(temperature=0.0, samples=1, seed=config.seed)
    best = None
    for sample, tree, report in _sample_runs(network, config):
        if best is None or report.flops < best[2].flops:
            best = (sample, tree, report)
    return best[1], best[2]
