"""Greedy contraction-order optimization with optional thermal sampling by
per-push Gumbel noise (Gray & Kourtis, Quantum 2021)."""

import heapq
import itertools
import math
import warnings
from dataclasses import dataclass
from random import Random

from ._util import check_int, check_number, derive_seed
from .core import CostReport, SsaPath, contract_pair, index_appearances, tensor_size, verify_path

__all__ = ["GreedyConfig", "greedy", "greedy_path", "sampled_greedy"]


@dataclass(frozen=True)
class GreedyConfig:
    """Knobs for the greedy optimizer.

    temperature > 0 (a finite int or float) samples pair selection: each
    candidate's key is its score minus temperature times a Gumbel(0, 1)
    draw made when it is pushed, so the first pick is an exact Boltzmann
    draw over the scores and later picks reuse their candidates' draws.
    samples > 1 repeats the whole run and keeps the cheapest tree.
    """

    temperature: float = 0.0
    samples: int = 1
    seed: int = 0

    def __post_init__(self):
        check_number("temperature", self.temperature, 0)
        check_int("samples", self.samples, 1)
        check_int("seed", self.seed)


def _pop_best(heap, legs, extra):
    """Pop the best entry on two live terms, unless `extra` beats it.

    Stale heap tops are dropped on the way. Returns None when neither exists.
    """
    while heap and not (heap[0][1] in legs and heap[0][2] in legs):
        heapq.heappop(heap)
    if heap and (extra is None or heap[0] < extra):
        return heapq.heappop(heap)
    return extra


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


def _greedy_pass(network, temperature=0.0, rng=None):
    """Run one greedy pass; returns (ssa pairs, heap pushes, cost report).

    Terms carry per-index appearance counts so hyperedges survive until
    their last two carriers meet. Candidate pairs live in a heap of
    (key, smaller id, larger id); stale entries are dropped lazily when
    popped. With no sharing pair left, the two smallest terms are contracted
    (outer products only happen between finished components).

    At T = 0 the key is the score. At T > 0 it is score - T*G for a
    Gumbel(0, 1) draw G made at push time: the first pick is an exact
    Boltzmann draw (the Gumbel-max trick), later ones reuse their
    candidates' draws. Keys stay integers: with T = m*2^e (frexp),
    score*2^up + trunc(m*log(-log u)*2^53)*2^over, where up - over = 53 - e.

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
    pair. At T > 0 it draws once, when it becomes the lazy pair, and not
    at all when the heap holds it. It alone stands for the pairs sharing
    only F.

    A new term is scored against all its neighbours in one walk over the
    carriers of its kept indices, one divisor per neighbour, the walk that
    also swaps it into the carrier sets; score() serves only the initial
    pairs and the lazy pair.
    Each merge is core's pair rule, contract_pair, and the pass prices
    itself from the rule's sizes, as verify_path prices the rebuilt tree:
    flops sums the union sizes, write volume the result sizes, and the peak
    is the largest result size, a scalar root not counted.
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
        return min(a, b), max(a, b)

    noisy = temperature > 0
    if noisy:
        m, e = math.frexp(temperature)
        up, over = max(0, 53 - e), max(0, e - 53)

        def noise():
            # -T*G scaled by 2^up; u = 0.0 would make -log u infinite
            u = rng.random() or 2.0 ** -53
            return int(m * math.log(-math.log(u)) * 2.0 ** 53) << over

    seen = set()
    for ix in sorted(carriers.keys() - carried):
        for i, j in itertools.combinations(sorted(carriers[ix]), 2):
            if (i, j) not in seen:
                seen.add((i, j))
                s = score(i, j)
                if noisy:
                    s = (s << up) + noise()
                heapq.heappush(heap, (s, i, j))
    pushes = len(seen)

    pairs = []
    lazy = extra = None  # the lazy pair, and its entry while it stays that pair
    flops = peak = write = 0
    next_id = n
    while len(legs) > 1:
        if carried:
            pair = lazy_pair()
            if pair != lazy:
                lazy = i, j = pair
                s = score(i, j)
                extra = (s, i, j)
                if noisy:
                    shared = any(ix in legs[j] for ix in legs[i] if ix not in carried)
                    extra = None if shared else ((s << up) + noise(), i, j)
        entry = _pop_best(heap, legs, extra)
        if entry is None:
            # disconnected remainder: fold the two smallest results together
            (_, i), (_, j) = _two_smallest(by_size, legs)
            if i > j:
                i, j = j, i
        else:
            _, i, j = entry
        legs_i, legs_j = legs.pop(i), legs.pop(j)
        kept, union, size = contract_pair(legs_i, sizes.pop(i), legs_j, sizes.pop(j), appear, extents)
        for ix in legs_j if kept is legs_i else legs_i:
            if ix not in kept:
                del carriers[ix]  # summed: no carrier left
        flops += union
        write += size
        if kept or legs:
            peak = max(peak, size)  # a scalar root is no intermediate
        k = next_id
        next_id += 1
        legs[k] = kept
        sizes[k] = size
        # k replaces i and j among the carriers, and is scored against every
        # term sharing an index outside F: the merged size divides the
        # product of both sizes by each shared index's extent once if kept,
        # twice if summed; F divides it by P
        div = {}
        for ix, c in kept.items():
            group = carriers[ix]
            group.discard(i)
            group.discard(j)
            if ix not in carried:
                e = extents[ix]
                rest = appear[ix] - c
                for b in group:
                    div[b] = div.get(b, unit) * (e * e if legs[b][ix] == rest else e)
            group.add(k)
        for b in sorted(div):
            s = sizes[b] * size // div[b] - sizes[b] - size
            if noisy:
                s = (s << up) + noise()
            heapq.heappush(heap, (s, b, k))
        pushes += len(div)
        heapq.heappush(by_size, (size, k))
        pairs.append((i, j))
    return pairs, pushes, CostReport(flops=flops, peak_size=peak, write_volume=write)


def _sample_runs(network, config):
    """Yield (ssa pairs, heap pushes, cost report) for each of config.samples
    passes; a thermal pass draws from a generator seeded by (seed, sample)."""
    for sample in range(config.samples):
        rng = Random(derive_seed(config.seed, sample)) if config.temperature > 0 else None
        yield _greedy_pass(network, config.temperature, rng)


def greedy_path(network, config=None):
    """The cheapest of config.samples greedy passes as SSA pairs.

    Returns (SsaPath, cost report, heap pushes summed over the passes).
    The first of equal-flops passes wins, so results do not depend on
    evaluation order. With temperature 0 every pass is identical; that
    degenerate combination warns and collapses to one pass.
    """
    config = config or GreedyConfig()
    if config.temperature == 0 and config.samples > 1:
        warnings.warn("temperature=0 makes all greedy samples identical", stacklevel=2)
        config = GreedyConfig(temperature=0.0, samples=1, seed=config.seed)
    best = None
    pushes = 0
    for pairs, count, report in _sample_runs(network, config):
        pushes += count
        if best is None or report.flops < best[1].flops:
            best = (pairs, report)
    return SsaPath(best[0]), best[1], pushes


def greedy(network, config=None):
    """Greedily contract the best-scoring pair until one tensor remains.

    A pair scores the size of its result minus the sizes of both operands
    (lower is better). At temperature > 0 pair selection is sampled, and
    the cheapest of config.samples passes is kept (see greedy_path); only
    that pass is rebuilt as a tree. Returns the tree and its cost.
    """
    return verify_path(greedy_path(network, config)[0], network)


sampled_greedy = greedy  # the thermal optimizer's name, kept for its callers
