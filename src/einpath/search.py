"""Exhaustive contraction-order search.

One engine finds the optimum: a breadth-first dynamic program that builds
the best tree of every tensor subset by cardinality, admitting only subtrees
within a cost cap (Pfeifer, Haegeman & Verstraete, PRE 2014).
exhaustive_path returns its SSA pairs, and exhaustive_dfs and exhaustive_bfs
are two names for the tree rebuilt from them. It avoids outer products
unless the network is disconnected and nothing else is left to contract
(configurable).

The driver (exhaustive_path) seeds a bound, solves each connected component
of the network over its tensors, and, when there are several, joins the
component results by an outer-product search over them, the spine. With outer
products allowed the whole network is one part and there is no spine. More
than _SPINE_CAP components raise BudgetError up front, since the spine
tabulates subsets of them.

The cap schedule: a part's first pass runs at an admissible floor of its
optimum that does not depend on the seeding (_floor); each pass that does
not form the part multiplies the cap by the largest extent (at least 2),
clipped at the seeded bound. Only a bound below the optimum, which an
explicit init_bound or a naive chain taking an outer product the space
excludes can be, lets the cap rise past it. The spine makes its first pass
at the bound. Raising stops once a pass rejects no pair for cost, since a
higher cap could then admit nothing new. Among splits of equal value the
first scanned wins, and the scan order depends on the passes made, so
where optimal trees tie the tree returned can differ from one found under
another schedule, at identical cost.

The hot loop: each level is held as rows (leafmask, (value, head, head
size)) that persist across passes, a subset's head is computed once,
when it is first admitted, since it does not depend on the split, and
under flops a pair whose value provably passes the cap is rejected from
its operands' values and head sizes, before its union is sized.
"""

import operator
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from itertools import islice, repeat

from ._util import check_int
from .core import SsaPath, cost, naive, verify_path
from .errors import BudgetError, EinPathError
from .greedy import greedy_path

__all__ = ["SearchConfig", "SearchStats", "exhaustive_dfs", "exhaustive_bfs", "exhaustive_path"]

_METRICS = ("flops", "peak_size")

_SPINE_CAP = 13  # subset DP over disconnected component results
_CHUNK = 11  # most index bits per precomputed size table
_SUBSET_CHUNK = 8  # most tensor bits per precomputed union table
_CLOCK_EVERY = 4096  # scanned pairs between deadline checks
_NEVER = 1 << 62  # a node count no search reaches


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the exhaustive search.

    init_bound is "naive", "greedy" or an explicit positive metric value;
    it seeds the bound that clips the cost cap. outer_products widens the
    space to all pair sequences. max_nodes caps the nodes a call expands
    and deadline its wall-clock seconds (inf is no deadline, an int past the
    largest float is refused); a search that passes either raises
    BudgetError. The deadline is read as each subset DP starts and then
    every few thousand scanned pairs, so a call can overrun it slightly. By
    default neither is set, and the search is exponential in the tensors of
    a component where every subset connects (with one batch index on every
    tensor, 21 tensors took millions of nodes and seconds), so callers
    should set max_nodes or deadline on such networks.
    """

    metric: str = "flops"
    init_bound: object = "greedy"
    outer_products: bool = False
    max_nodes: int = None
    deadline: float = None

    def __post_init__(self):
        if self.metric not in _METRICS:
            raise EinPathError(f"unknown metric '{self.metric}'")
        if self.init_bound not in ("naive", "greedy"):
            check_int("init_bound", self.init_bound, 1)
        if self.max_nodes is not None:
            check_int("max_nodes", self.max_nodes, 0)
        dl = self.deadline  # inf means what None does; an int past the largest float
        # would overflow the clock
        if dl is not None and (isinstance(dl, bool) or not isinstance(dl, (int, float))
                               or not dl > 0 or isinstance(dl, int) and dl > sys.float_info.max):
            raise EinPathError("deadline must be a positive number of seconds or None")


@dataclass
class SearchStats:
    """Counters for one search call; prunes never exceeds nodes_expanded.

    nodes_expanded counts the pairs of subsets examined and prunes those
    rejected for cost. passes counts the passes of the subset DP and
    subsets the entries it recorded (units included), both summed over
    every component and the spine; subsets is the memo size.
    """

    nodes_expanded: int = 0
    prunes: int = 0
    passes: int = 0
    subsets: int = 0
    best_cost: int = None


class _Budget:
    """The node and wall-clock limits of one search call, from its start."""

    def __init__(self, config):
        self.max_nodes = _NEVER if config.max_nodes is None else config.max_nodes
        self.deadline = config.deadline
        self.stop = None if self.deadline is None else time.perf_counter() + self.deadline

    def check_clock(self):
        """Raise BudgetError when the clock is past the deadline."""
        if self.stop is not None and time.perf_counter() > self.stop:
            raise BudgetError(f"search ran past its {self.deadline} s deadline")

    def check(self, nodes):
        """Raise BudgetError when nodes (the call's total so far) is past the
        node limit or the clock past the deadline."""
        if nodes > self.max_nodes:
            raise BudgetError(f"search expanded more than {self.max_nodes} nodes")
        self.check_clock()


def _width(bits, most):
    """Width of the fewest equal chunks of at most `most` bits covering
    `bits` bits: as few table lookups as full chunks, with smaller tables."""
    chunks = max(1, -(-bits // most))
    return max(1, -(-bits // chunks))


def _tables(values, most, unit, fold):
    """Chunked subset tables over values: the chunk width, and per chunk of
    that many values a table whose entry m folds unit with the values at the
    bits of m (fold is commutative and associative). A lookup splits a mask
    into chunks and folds their entries."""
    width = _width(len(values), most)
    tables = []
    for lo in range(0, len(values), width):
        tbl = [unit]
        for v in values[lo:lo + width]:
            tbl += list(map(fold, tbl, repeat(v)))  # the subsets holding v
        tables.append(tbl)
    return width, tables or [[unit]]


class _Space:
    """Bitmask view of a network: index bits, extents, tensor index masks,
    and chunked tables of index-subset sizes and of tensor-subset index unions."""

    def __init__(self, network):
        names = sorted({ix for sig in network.tensors for ix in sig.indices})
        self.bit = {ix: i for i, ix in enumerate(names)}
        self.extents = [network.extents[ix] for ix in names]
        self.max_extent = max(self.extents, default=2)
        self.term_masks = []
        for sig in network.tensors:
            m = 0
            for ix in sig.indices:
                m |= 1 << self.bit[ix]
            self.term_masks.append(m)
        self.out_mask = 0
        for ix in network.output:
            self.out_mask |= 1 << self.bit[ix]
        self.chunk, self.size_tables = _tables(self.extents, _CHUNK, 1, operator.mul)
        self.cover_chunk, self.cover_tables = _tables(
            self.term_masks, _SUBSET_CHUNK, 0, operator.or_
        )
        self.all_terms = (1 << len(self.term_masks)) - 1

    def size(self, mask):
        """Entries of a tensor over an index mask, from the chunked tables."""
        s = 1
        m = mask
        i = 0
        width = self.chunk
        low = (1 << width) - 1
        while m:
            s *= self.size_tables[i][m & low]
            m >>= width
            i += 1
        return s

    def head(self, leafmask, union):
        """Result indices of a subtree: kept while carried outside or output."""
        rest = self.all_terms & ~leafmask
        outside = self.out_mask
        i = 0
        width = self.cover_chunk
        low = (1 << width) - 1
        while rest:
            outside |= self.cover_tables[i][rest & low]
            rest >>= width
            i += 1
        return union & outside


def _initial_bound(network, config):
    """The bound that clips the cost cap: the explicit value, the naive
    tree's, or the better of the greedy tree's and the naive tree's, so a
    greedy-seeded search never starts looser than a naive-seeded one. Both
    are exact integers: core prices the naive tree, the greedy pass its own
    pairs."""
    if not isinstance(config.init_bound, str):
        return config.init_bound
    value = getattr(cost(naive(network), network.extents), config.metric)
    if config.init_bound == "greedy":
        value = min(value, getattr(greedy_path(network)[1], config.metric))
    return value


def _adjacency(heads):
    """Neighbour masks of units over shared indices, keyed by unit bit, from
    each unit's index mask."""
    adjm = [0] * len(heads)
    for i, hi in enumerate(heads):
        for j in range(i + 1, len(heads)):
            if hi & heads[j]:
                adjm[i] |= 1 << j
                adjm[j] |= 1 << i
    return {1 << i: m for i, m in enumerate(adjm)}


def _split(mask, adj):
    """Connected components of a unit mask, lowest unit first."""
    parts = []
    while mask:
        seen = mask & -mask
        front = adj[seen] & mask & ~seen
        while front:
            seen |= front
            grow = 0
            while front:
                b = front & -front
                front ^= b
                grow |= adj[b]
            front = grow & mask & ~seen
        parts.append(seen)
        mask ^= seen
    return parts


def _floor(space, items, metric):
    """Admissible floor of the value of any tree over items, units of
    (leafmask, head mask, base value); no seeding enters it.

    flops: the units' values, plus merges that each cost at least the size
    of their result and of each head they consume, and consume at most two
    units. peak: the largest unit value and the root's size, which is 1 for
    a scalar root (above an optimum of 0, harmless as a first cap).
    """
    leafmask = union = 0
    sizes = []
    for lm, hm, _ in items:
        leafmask |= lm
        union |= hm
        sizes.append(space.size(hm))
    root = space.size(space.head(leafmask, union))
    if metric == "flops":
        return sum(it[2] for it in items) + max(root, (sum(sizes) + 1) // 2, max(sizes))
    return max(root, max(it[2] for it in items))


# Why a tighter bound can only shrink the search. A pass at cap C admits
# exactly the subsets whose optimum is at most C, whatever passes came
# before: the optimal tree of such a subset has no subtree above C, and a
# level is complete before a larger level pairs it. The pairs a pass
# examines are those of two disjoint admitted subsets (sharing an index
# unless outer products are on), so its node count N(C) never falls as C
# rises. Take a bound B at or above the optimum. A part's passes run at
# min(F * f**i, B) for i = 0, 1, ... up to the first i with F * f**i at or
# above the part's optimum; the floor F and the factor f do not depend on B,
# so neither does the number of passes, and each cap rises with B. The spine
# solves in one pass at B. A pass below the optimum rejects the lowest merge
# of an optimal tree above its cap, so the stop rule never fires. So
# nodes_expanded, the sum of N over the passes, never falls as B rises from
# the optimum. A greedy seed is the smaller of the greedy and naive values:
# either it equals the naive seed, or both are at or above the optimum,
# since greedy contracts sharing pairs while any exist and its tree lies in
# the search space. Either way a greedy-seeded search expands no more nodes
# than a naive-seeded one.
#
# Why a subset needs one head, whatever its split. Write U(S) for the union
# of the term masks of the tensors in S, and O(S) for the output mask joined
# with U of every tensor outside S. A unit's head holds U & O of its leaves
# and lies within U of them: a tensor's head is its term mask, a part's is
# the part's result. For disjoint a and b with k = a | b, head(k, ha | hb)
# is (ha | hb) & O(k). Since ha | hb lies within U(k), that lies within
# U(k) & O(k). Conversely take an index x in U(k) & O(k), say in U(a). O(k)
# lies within O(a), because every tensor outside k is outside a, so x is in
# U(a) & O(a), which lies within ha. So head(k, ha | hb) = U(k) & O(k) for
# every split: an index summed inside a or b is carried nowhere outside k.
# The flops pass therefore computes a head only when a subset is first
# admitted, and an improving split keeps it; the peak pass reuses an
# admitted subset's stored head. The flops early reject is exact too:
# ha | hb holds ha and hb and every extent is at least 1, so the size of
# ha | hb is at least max(sa, sb), and va + vb + max(sa, sb) above the cap
# proves the pair's value above it.


def _capped_dp(space, items, metric, allow_outer, start, bound, stats, budget):
    """Best tree per subset, admitting only subtrees within a cost cap.

    items are atomic units: (leafmask, head mask, base value). The first
    pass runs at min(start, bound); each pass that leaves the union of all
    units unformed multiplies the cap by the largest extent, clipped at the
    bound until a pass at the bound has failed. Any subset whose optimum
    fits under the final cap is recorded optimally along the way. Returns
    (best, target): best maps leafmask to (value, head mask, split or None)
    and lacks target when no tree over the units exists, which a pass that
    rejects no pair for cost proves. budget raises BudgetError once the
    call's limits are passed.

    Each level (leaf count) is a list of rows (leafmask, (value, head mask,
    head size)) in first-admission order, so pairing reads no table. A
    subset admitted in an earlier pass holds its optimum, so rows persist
    across passes; a level's new subsets join its rows once the level is
    complete, as a later pair of the same level can still improve them.
    Under flops a subset's head is computed once, at first admission (see
    the comment above), and a pair whose va + vb + max(sa, sb) passes the
    cap is rejected before its union is sized; under peak a pair is
    rejected on max(va, vb) before its head is computed, and an admitted
    subset's stored head is reused. Either reject counts as a prune, and
    the scan order, the splits kept, nodes_expanded and prunes are those
    of a loop that sizes and heads every pair.
    """
    best = {}
    rows = defaultdict(list)
    target = 0
    size = space.size
    for leafmask, headmask, value in items:
        best[leafmask] = (value, headmask, None)
        rows[leafmask.bit_count()].append((leafmask, (value, headmask, size(headmask))))
        target |= leafmask
    flops_metric = metric == "flops"
    head_of = space.head
    tables = space.size_tables
    width = space.chunk
    low = (1 << width) - 1
    cap = max(1, min(start, bound))
    factor = max(2, space.max_extent)
    top = target.bit_count()
    nodes = stats.nodes_expanded
    budget.check(nodes)
    max_nodes = budget.max_nodes
    scanned = 0
    clock_at = _CLOCK_EVERY
    while target not in best:
        stats.passes += 1
        rejected = 0
        for c in range(2, top + 1):
            fresh = []
            for d in range(1, c // 2 + 1):
                ra = rows.get(d, ())
                rb = rows.get(c - d, ())
                same = d == c - d
                for i, (a, (va, ha, sa)) in enumerate(ra):
                    lo = i + 1 if same else 0
                    scanned += len(rb) - lo
                    if scanned > clock_at:
                        budget.check_clock()
                        clock_at = scanned + _CLOCK_EVERY
                    for b, row in islice(rb, lo, None) if same else rb:
                        if a & b:
                            continue
                        vb, hb, sb = row
                        if not allow_outer and not ha & hb:
                            continue
                        nodes += 1
                        if nodes > max_nodes:
                            budget.check(nodes)  # raises
                        key = a | b
                        if flops_metric:
                            value = va + vb
                            if value + (sa if sa >= sb else sb) > cap:
                                rejected += 1
                                continue
                            u = ha | hb
                        else:
                            value = va if va >= vb else vb
                            if value > cap:
                                rejected += 1
                                continue
                            cur = best.get(key)
                            u = head = cur[1] if cur else head_of(key, ha | hb)
                        s = 1
                        k = 0
                        while u:
                            s *= tables[k][u & low]
                            u >>= width
                            k += 1
                        if flops_metric:
                            value += s
                        elif s > value:
                            value = s
                        if value > cap:
                            rejected += 1
                            continue
                        cur = best.get(key)
                        if cur is None:
                            if flops_metric:
                                head = head_of(key, ha | hb)
                            best[key] = (value, head, (a, b))
                            fresh.append(key)
                        elif value < cur[0]:
                            best[key] = (value, cur[1], (a, b))
            level = rows[c]
            for key in fresh:
                value, head, _ = best[key]
                level.append((key, (value, head, size(head))))
        stats.nodes_expanded = nodes
        stats.prunes += rejected
        if not rejected:
            break
        cap = min(cap * factor, bound) if cap < bound else cap * factor
    stats.subsets += len(best)
    return best, target


def _emit(best, key, base_ssa, pairs, counter):
    """Expand recorded splits into SSA pairs; returns the subtree's SSA id."""
    _, _, split = best[key]
    if split is None:
        return base_ssa[key]
    a, b = split
    if (a & -a) > (b & -b):
        a, b = b, a
    sa = _emit(best, a, base_ssa, pairs, counter)
    sb = _emit(best, b, base_ssa, pairs, counter)
    pairs.append((sa, sb))
    ssa = counter[0]
    counter[0] += 1
    return ssa


def _solve(network, config):
    """exhaustive_path's driver: (SsaPath, tree, cost report, search stats),
    the tree and its report from one verify_path walk over the pairs."""
    config = config or SearchConfig()
    budget = _Budget(config)
    space = _Space(network)
    n = len(space.term_masks)
    if config.outer_products:
        parts = [space.all_terms]
    else:
        parts = _split(space.all_terms, _adjacency(space.term_masks))
    if len(parts) > _SPINE_CAP:
        raise BudgetError(
            f"network splits into {len(parts)} components; the outer-product "
            f"combination search is capped at {_SPINE_CAP}"
        )
    stats = SearchStats()
    bound = _initial_bound(network, config)
    base = {1 << t: t for t in range(n)}
    pairs = []
    counter = [n]
    units = []
    roots = {}
    for part in parts:
        members = [(1 << t, space.term_masks[t], 0) for t in range(n) if part >> t & 1]
        best, _ = _capped_dp(
            space, members, config.metric, config.outer_products,
            _floor(space, members, config.metric), bound, stats, budget,
        )
        roots[part] = _emit(best, part, base, pairs, counter)
        value, headmask, _ = best[part]
        units.append((part, headmask, value))
    if len(units) > 1:
        spine, target = _capped_dp(space, units, config.metric, True, bound, bound, stats, budget)
        _emit(spine, target, roots, pairs, counter)
    path = SsaPath(pairs)
    tree, report = verify_path(path, network)
    stats.best_cost = getattr(report, config.metric)
    return path, tree, report, stats


def exhaustive_path(network, config=None):
    """Optimal contraction order as SSA pairs, by the capped DP: each part
    (the whole network when outer products are allowed, else its connected
    components, lowest tensor first) is solved over its tensors, then, when
    there are several, the spine joins the part results by an outer-product
    search over them.

    Every solve forms its target: the cap keeps rising while a pass rejects
    a pair for cost, and a pass that rejects none has admitted every subset
    the pair rule can form, which includes a connected part and any set of
    units joined with outer products allowed. Returns (SsaPath, cost
    report, search stats); core's verify_path prices the pairs.
    """
    path, _, report, stats = _solve(network, config)
    return path, report, stats


def exhaustive_bfs(network, config=None):
    """Optimal contraction order by breadth-first subset search.

    Builds best subtrees for tensor subsets of growing cardinality under a
    cost cap that starts at a floor of the optimum and rises by the largest
    extent, clipped at the seeded bound, until the network is solved.
    Disconnected networks are solved per component, then the component
    results are joined by an outer-product subset search. Raises
    BudgetError, with outer products off, on more than _SPINE_CAP
    components. Returns (tree, cost report, search stats), the tree rebuilt
    from exhaustive_path's pairs and priced in the same walk.
    """
    _, tree, report, stats = _solve(network, config)
    return tree, report, stats


exhaustive_dfs = exhaustive_bfs  # the depth-first name, kept for its callers
