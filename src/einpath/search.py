"""Exhaustive contraction-order search.

Two implementations of the same optimum: a depth-first branch-and-bound that
recursively splits tensor subsets under a cost bound, memoizing each subset's
optimum, and a breadth-first best-tree-per-subset dynamic program with an
iteratively raised cost cap. Both avoid outer products unless the network is
disconnected and nothing else is left to contract (configurable).

The depth-first search enumerates only splits whose two sides are both
connected (_sides): it grows a side from the subset's lowest unit and, when
the rest falls apart into components, jumps straight to the sides that leave
one component whole, in the manner of MinCutLazy / MinCutBranch (Fender &
Moerkotte, ICDE 2011 / 2012). The order is fixed by the subset and the
network, and among splits of equal value the first enumerated wins, so where
optimal trees tie the returned tree can differ from one found under another
enumeration order, at identical cost.
"""

import time
from collections import defaultdict
from dataclasses import dataclass

from .core import CostReport, EinExpr, SsaPath, cost, ssa_to_tree
from .errors import BudgetError, EinPathError
from .greedy import _greedy_path

__all__ = ["SearchConfig", "SearchStats", "exhaustive_dfs", "exhaustive_bfs"]

_METRICS = ("flops", "peak_size")

_MEMO_CAP = 1_000_000  # tabulated subsets kept per search
_SPINE_CAP = 13  # subset DP over disconnected component results
_CHUNK = 11  # most index bits per precomputed size table
_SUBSET_CHUNK = 8  # most tensor or search-unit bits per precomputed union table
_CLOCK_EVERY = 4096  # nodes or tabulated subsets between deadline checks
_NEVER = 1 << 62  # a node count no search reaches


@dataclass(frozen=True)
class SearchConfig:
    """Shared knobs for both exhaustive searches.

    init_bound is "naive", "greedy" or an explicit positive metric value;
    it seeds the pruning bound (depth-first) or the starting cost cap
    (breadth-first). outer_products widens the space to all pair sequences.
    max_nodes caps the nodes a call expands and deadline its wall-clock
    seconds; a search that passes either raises BudgetError. The deadline
    is read every few thousand nodes or tabulated subsets, so a call can
    overrun it slightly.
    """

    metric: str = "flops"
    init_bound: object = "greedy"
    outer_products: bool = False
    max_nodes: int = None
    deadline: float = None

    def __post_init__(self):
        if self.metric not in _METRICS:
            raise EinPathError(f"unknown metric '{self.metric}'")
        ib = self.init_bound
        if isinstance(ib, bool) or not (ib in ("naive", "greedy") or isinstance(ib, int)):
            raise EinPathError("init_bound must be 'naive', 'greedy' or an integer")
        if isinstance(ib, int) and ib < 1:
            raise EinPathError("an explicit bound must be >= 1")
        mn = self.max_nodes
        if mn is not None and (isinstance(mn, bool) or not isinstance(mn, int) or mn < 0):
            raise EinPathError("max_nodes must be a nonnegative integer or None")
        dl = self.deadline
        if dl is not None and (isinstance(dl, bool) or not isinstance(dl, (int, float))
                               or not dl > 0):
            raise EinPathError("deadline must be a positive number of seconds or None")


@dataclass
class SearchStats:
    """Counters for one search call; prunes never exceeds nodes_expanded."""

    nodes_expanded: int = 0
    prunes: int = 0
    best_cost: int = None


class _Budget:
    """The node and wall-clock limits of one search call, from its start."""

    def __init__(self, config):
        self.max_nodes = config.max_nodes
        self.deadline = config.deadline
        self.stop = None if self.deadline is None else time.perf_counter() + self.deadline

    def check_clock(self):
        """Raise BudgetError when the clock is past the deadline."""
        if self.stop is not None and time.perf_counter() > self.stop:
            raise BudgetError(f"search ran past its {self.deadline} s deadline")

    def check(self, nodes):
        """Raise BudgetError when nodes (the call's total so far) or the clock
        is past a limit; otherwise return the total at which to check again."""
        if self.max_nodes is not None and nodes > self.max_nodes:
            raise BudgetError(f"search expanded more than {self.max_nodes} nodes")
        if self.stop is None:
            return _NEVER if self.max_nodes is None else self.max_nodes
        self.check_clock()
        due = nodes + _CLOCK_EVERY
        return due if self.max_nodes is None else min(due, self.max_nodes)


def _width(bits, most):
    """Width of the fewest equal chunks of at most `most` bits covering
    `bits` bits: as few table lookups as full chunks, with smaller tables."""
    chunks = max(1, -(-bits // most))
    return max(1, -(-bits // chunks))


class _Space:
    """Bitmask view of a network: index bits, extents, carrier masks, and
    chunked tables of index-subset sizes and of tensor-subset index unions."""

    def __init__(self, network):
        names = sorted({ix for sig in network.tensors for ix in sig.indices})
        self.bit = {ix: i for i, ix in enumerate(names)}
        self.extents = [network.extents[ix] for ix in names]
        self.max_extent = max(self.extents, default=2)
        self.term_masks = []
        self.carriers = [0] * len(names)
        for pos, sig in enumerate(network.tensors):
            m = 0
            for ix in sig.indices:
                b = self.bit[ix]
                m |= 1 << b
                self.carriers[b] |= 1 << pos
            self.term_masks.append(m)
        self.out_mask = 0
        for ix in network.output:
            self.out_mask |= 1 << self.bit[ix]
        self._sizes = {0: 1}
        self.chunk = width = _width(len(names), _CHUNK)
        tables = []
        for lo in range(0, len(names), width):
            part = self.extents[lo:lo + width]
            tbl = [1] * (1 << len(part))
            for m in range(1, len(tbl)):
                b = m & -m
                tbl[m] = tbl[m ^ b] * part[b.bit_length() - 1]
            tables.append(tbl)
        self.size_tables = tables or [[1]]
        self.cover_chunk = width = _width(len(self.term_masks), _SUBSET_CHUNK)
        covers = []
        for lo in range(0, len(self.term_masks), width):
            part = self.term_masks[lo:lo + width]
            tbl = [0] * (1 << len(part))
            for m in range(1, len(tbl)):
                b = m & -m
                tbl[m] = tbl[m ^ b] | part[b.bit_length() - 1]
            covers.append(tbl)
        self.cover_tables = covers
        self.all_terms = (1 << len(self.term_masks)) - 1

    def size(self, mask):
        try:
            return self._sizes[mask]
        except KeyError:
            pass
        s = 1
        m = mask
        i = 0
        width = self.chunk
        low = (1 << width) - 1
        while m:
            s *= self.size_tables[i][m & low]
            m >>= width
            i += 1
        self._sizes[mask] = s
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


def _components(space, n):
    """Connected components (over shared indices) as tensor bitmasks."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for leafmask in space.carriers:
        first = None
        m = leafmask
        while m:
            b = m & -m
            pos = b.bit_length() - 1
            if first is None:
                first = pos
            else:
                parent[find(pos)] = find(first)
            m ^= b
    groups = defaultdict(int)
    for pos in range(n):
        groups[find(pos)] |= 1 << pos
    return sorted(groups.values(), key=lambda mask: mask & -mask)


def _chain_metric(space, n, metric):
    """Metric value of the naive left-fold chain, its pairs, and whether the
    chain stays inside the no-outer-product space (every step shares)."""
    pairs = []
    cur_ssa = 0
    cur_leaf = 1
    cur_mask = space.term_masks[0]
    value = 0
    shares = True
    for t in range(1, n):
        mb = space.term_masks[t]
        if not cur_mask & mb:
            shares = False
        union = cur_mask | mb
        cur_leaf |= 1 << t
        new_mask = space.head(cur_leaf, union)
        if metric == "flops":
            value += space.size(union)
        elif not (t == n - 1 and new_mask == 0):
            value = max(value, space.size(new_mask))
        pairs.append((cur_ssa, t))
        cur_ssa = n + t - 1
        cur_mask = new_mask
    return value, pairs, shares


def _metric_of(report, metric):
    return report.flops if metric == "flops" else report.peak_size


def _initial_bound(network, space, config):
    """Bound value plus an incumbent path achieving it, when one exists.

    greedy seeding takes the better of the greedy tree and the naive chain,
    so a greedy-seeded search never starts looser than a naive-seeded one.
    The chain can only serve as an incumbent when it avoids non-forced outer
    products; otherwise it would fall outside the search space.
    """
    n = len(network.tensors)
    naive_val, naive_pairs, chain_ok = _chain_metric(space, n, config.metric)
    if config.outer_products:
        chain_ok = True
    if config.init_bound == "naive":
        return naive_val, (naive_pairs if chain_ok else None)
    if config.init_bound == "greedy":
        pairs, _ = _greedy_path(network)
        report = cost(ssa_to_tree(SsaPath(pairs), network), network.extents)
        greedy_val = _metric_of(report, config.metric)
        if greedy_val <= naive_val:
            return greedy_val, pairs
        return naive_val, (naive_pairs if chain_ok else None)
    return config.init_bound, None


def _connected_masks(adjm, cap, budget):
    """Every nonempty connected subset of the unit graph, as a set of index
    masks, or None as soon as there are more than cap of them.

    Grows each subset from its lowest unit one frontier unit at a time; a
    frontier unit skipped at some step is banned below it, so every subset
    comes up exactly once. The budget's deadline is read as the set grows."""
    u = len(adjm)
    adjbit = {1 << i: adjm[i] for i in range(u)}
    out = set()
    add = out.add
    due = 0
    for v in range(u):
        start = 1 << v
        above = ~(start | (start - 1))
        add(start)
        stack = [(start, adjm[v] & above, 0)]
        while stack:
            cur, frontier, banned = stack.pop()
            while frontier:
                w = frontier & -frontier
                frontier ^= w
                newcur = cur | w
                newfront = (frontier | (adjbit[w] & above)) & ~newcur & ~banned
                banned |= w
                if newfront:
                    stack.append((newcur, newfront, banned))
                add(newcur)
            if len(out) > due:
                if len(out) > cap:
                    return None
                budget.check_clock()
                due = min(cap, len(out) + _CLOCK_EVERY)
    return out


def _split(mask, adj, conn):
    """Connected components of a unit mask, lowest unit first. conn, when
    given, is the set of connected masks; a remainder found in it is one
    component, so it needs no search."""
    parts = []
    while mask:
        if conn is not None and mask in conn:
            parts.append(mask)
            break
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


def _sides(s, adj, conn):
    """Split sides of a connected unit set s, in an order fixed by s and the
    graph alone: every side holding the lowest unit of s such that the side
    and its complement are both nonempty and connected, each exactly once.

    adj maps each unit bit to its neighbour mask; conn is the set of
    connected unit masks, or None to check each complement by splitting it.
    A side grows one frontier unit at a time, and a unit skipped at some step
    is banned below it. When a grown side's complement falls apart, every
    larger side with a connected complement has it inside exactly one
    component K, so the side jumps once per K straight to s minus K (unless
    that takes in a banned unit) instead of growing through invalid sides.
    A side's neighbour mask is only ever read inside its complement, which
    the other components never touch, so a jump keeps the side's mask.
    """
    out = []
    append = out.append
    stack = [(0, 0, s & -s, 0)]  # (side, its neighbours, frontier, banned)
    pop = stack.pop
    push = stack.append
    while stack:
        cur, nb, frontier, banned = pop()
        while frontier:
            w = frontier & -frontier
            frontier ^= w
            side = cur | w
            comp = s ^ side
            if comp:
                nbw = nb | adj[w]
                if conn is not None and comp in conn:
                    parts = (comp,)
                else:
                    parts = _split(comp, adj, conn)
                if len(parts) == 1:
                    append(side)
                    grow = nbw & comp & ~banned
                    if grow:
                        push((side, nbw, grow, banned))
                else:
                    for part in parts:
                        rest = comp ^ part
                        if rest & banned:
                            continue
                        append(side | rest)
                        grow = nbw & part & ~banned
                        if grow:
                            push((side | rest, nbw, grow, banned))
            banned |= w
    return out


# Why a tighter initial bound can only shrink the search: split candidates
# are enumerated in an order that does not depend on the bound, and a state's
# exact optimum is a property of the network alone. Every prune compares a
# bound-free quantity (admissible floor or exact child value) against
# min(bound, best value completed so far at this state), which by induction
# over the shared enumeration order is never smaller in the loosely seeded
# run, and a state that failed under the looser bound fails under the tighter
# one too. So the tightly seeded run visits a subset of the loose run's
# states and enumerates identical candidates at each, hence nodes_expanded
# with a greedy seed never exceeds nodes_expanded with a naive seed.


def _dfs_solve(space, items, metric, allow_outer, exclude_root_scalar, cap, stats, budget):
    """Best tree over atomic units by memoized depth-first splitting.

    items are units of (leafmask, head mask, base value). Solving a unit
    subset tries every split into a side holding the lowest unit and its
    complement, both connected over shared head indices (every nonempty
    complement when outer products are allowed), recursing depth first under
    one global cost cap; of equal-value splits the first in _sides' order
    wins. A split is abandoned when an admissible floor (for flops: each
    side's final merge costs at least its head size and each unit is
    consumed once by a merge at least as large as it) reaches the bound.
    Returns a mapping like _capped_dp's, keyed by leafmask; the target key
    is absent when every tree in the space costs at least cap. budget
    raises BudgetError once the call's limits are passed.
    """
    u = len(items)
    exts = [it[0] for it in items]
    heads = [it[1] for it in items]
    bases = [it[2] for it in items]
    if u == 1:
        return {exts[0]: (bases[0], heads[0], None)}, exts[0]
    target = (1 << u) - 1
    limit0 = float("inf") if cap is None else cap
    flops_metric = metric == "flops"
    size = space.size
    sp_head = space.head
    adjm = [0] * u
    for i in range(u):
        hi = heads[i]
        for j in range(i + 1, u):
            if hi & heads[j]:
                adjm[i] |= 1 << j
                adjm[j] |= 1 << i
    conn = None if allow_outer else _connected_masks(adjm, _MEMO_CAP, budget)

    hsizes = [size(h) for h in heads]
    adjbit = {1 << i: adjm[i] for i in range(u)}
    meta = {}  # unit mask -> (head mask, head size, admissible floor, leafmask)
    for j in range(u):
        meta[1 << j] = (heads[j], hsizes[j], bases[j], exts[j])

    # per chunk of units, (leafmask, head union, base sum, head size sum,
    # largest head size, largest base) of every unit subset inside it
    unit_width = _width(u, _SUBSET_CHUNK)
    unit_tables = []
    for lo in range(0, u, unit_width):
        tbl = [(0, 0, 0, 0, 0, 0)] * (1 << min(unit_width, u - lo))
        for m in range(1, len(tbl)):
            b = m & -m
            j = lo + b.bit_length() - 1
            e, hu, bsum, hsum, hmax, bmax = tbl[m ^ b]
            hj = hsizes[j]
            tbl[m] = (e | exts[j], hu | heads[j], bsum + bases[j], hsum + hj,
                      hj if hj > hmax else hmax, bases[j] if bases[j] > bmax else bmax)
        unit_tables.append(tbl)
    unit_low = (1 << unit_width) - 1

    def info(s):
        rec = meta.get(s)
        if rec is not None:
            return rec
        e, hu, bsum, hsum, hmax, bmax = unit_tables[0][s & unit_low]
        m = s >> unit_width
        i = 1
        while m:
            e2, hu2, bsum2, hsum2, hmax2, bmax2 = unit_tables[i][m & unit_low]
            e |= e2
            hu |= hu2
            bsum += bsum2
            hsum += hsum2
            if hmax2 > hmax:
                hmax = hmax2
            if bmax2 > bmax:
                bmax = bmax2
            m >>= unit_width
            i += 1
        h = sp_head(e, hu)
        hs = size(h)
        if flops_metric:
            half = (hsum + 1) >> 1
            lb = hs if hs > half else half
            if hmax > lb:
                lb = hmax
            lb += bsum
        else:
            lb = hs if hs > bmax else bmax
        rec = (h, hs, lb, e)
        meta[s] = rec
        return rec

    def sides_of(s):
        """Split sides of s holding its lowest unit, in a fixed order."""
        if not allow_outer:
            return _sides(s, adjbit, conn)
        v0 = s & -s
        rest = s ^ v0
        out = []
        sub = (rest - 1) & rest
        while True:
            out.append(v0 | sub)
            if sub == 0:
                return out
            sub = (sub - 1) & rest

    solved = {}
    choice = {}
    failed = set()
    for j in range(u):
        if bases[j] < limit0:
            solved[1 << j] = bases[j]
        else:
            failed.add(1 << j)
    nodes = prunes = 0
    spent = stats.nodes_expanded
    check_at = budget.check(spent) - spent

    tables = space.size_tables
    width = space.chunk
    low = (1 << width) - 1

    def solve(s):
        nonlocal nodes, prunes, check_at
        meta_get = meta.get
        solved_get = solved.get
        unsolvable = failed
        best_v = None
        best_split = None
        limit = limit0
        if flops_metric:
            join_term = None
        else:
            h, hs, _, _ = info(s)
            join_term = 0 if exclude_root_scalar and s == target and h == 0 else hs
        for a in sides_of(s):
            nodes += 1
            if nodes > check_at:
                check_at = budget.check(spent + nodes) - spent
            b = s ^ a
            ra = meta_get(a)
            if ra is None:
                ra = info(a)
            rb = meta_get(b)
            if rb is None:
                rb = info(b)
            lbb = rb[2]
            if flops_metric:
                m = ra[0] | rb[0]
                join = 1
                i = 0
                while m:
                    join *= tables[i][m & low]
                    m >>= width
                    i += 1
                floor = ra[2] + lbb + join
            else:
                lba = ra[2]
                floor = lba if lba > lbb else lbb
                if join_term > floor:
                    floor = join_term
            if floor >= limit:
                prunes += 1
                continue
            va = solved_get(a)
            if va is None:
                if a in unsolvable:
                    prunes += 1
                    continue
                va = solve(a)
                if va is None:
                    prunes += 1
                    continue
            if flops_metric:
                floor = va + lbb + join
            else:
                floor = va if va > lbb else lbb
                if join_term > floor:
                    floor = join_term
            if floor >= limit:
                prunes += 1
                continue
            vb = solved_get(b)
            if vb is None:
                if b in unsolvable:
                    prunes += 1
                    continue
                vb = solve(b)
                if vb is None:
                    prunes += 1
                    continue
            if flops_metric:
                v = va + vb + join
            else:
                v = va if va > vb else vb
                if join_term > v:
                    v = join_term
            if best_v is None or v < best_v:
                best_v = v
                best_split = (a, b)
                if v < limit:
                    limit = v
            else:
                prunes += 1
        if best_v is not None and best_v < limit0:
            solved[s] = best_v
            choice[s] = best_split
            return best_v
        failed.add(s)
        return None

    value = solve(target)
    stats.nodes_expanded += nodes
    stats.prunes += prunes
    tmask = info(target)[3]
    if value is None:
        return {}, tmask
    out = {}
    walk = [target]
    while walk:
        s = walk.pop()
        h, _, _, e = info(s)
        split = choice.get(s)
        if split is None:
            out[e] = (solved[s], h, None)
        else:
            a, b = split
            out[e] = (solved[s], h, (info(a)[3], info(b)[3]))
            walk.append(a)
            walk.append(b)
    return out, tmask


def _dfs_attempt(space, n, config, cap, stats, budget):
    """One bounded depth-first sweep; returns SSA pairs, or None when the cap
    excludes every tree in the space."""
    singles = [(1 << i, space.term_masks[i], 0) for i in range(n)]
    base = {1 << i: i for i in range(n)}
    pairs = []
    counter = [n]
    if config.outer_products:
        best, target = _dfs_solve(space, singles, config.metric, True, True, cap, stats, budget)
        if target not in best:
            return None
        _emit(best, target, base, pairs, counter)
        return pairs
    comps = _components(space, n)
    units = []
    for comp in comps:
        members = [s for s in singles if s[0] & comp]
        sub, _ = _dfs_solve(
            space, members, config.metric, False, len(comps) == 1, cap, stats, budget
        )
        if comp not in sub:
            return None
        root = _emit(sub, comp, base, pairs, counter)
        value, headmask, _ = sub[comp]
        units.append(((comp, root), (comp, headmask, value)))
    if len(units) > 1:
        spine, target = _dfs_solve(
            space, [un[1] for un in units], config.metric, True, True, cap, stats, budget
        )
        if target not in spine:
            return None
        roots = {comp: root for (comp, root), _ in units}
        _emit(spine, target, roots, pairs, counter)
    return pairs


def exhaustive_dfs(network, config=None):
    """Optimal contraction order by depth-first branch-and-bound.

    Recursively splits tensor subsets in two, memoizing each subset's
    optimum; splits whose admissible cost floor reaches the current bound
    are abandoned. A sweep that proves the initial bound unbeatable falls
    back to the tree that produced the bound, or searches again unbounded
    when an explicit bound excluded every tree.
    Returns (tree, cost report, search stats).
    """
    config = config or SearchConfig()
    n = len(network.tensors)
    stats = SearchStats()
    if n == 1:
        leaf = EinExpr.leaf(network.tensors[0])
        stats.best_cost = 0
        return leaf, CostReport(0, 0, 0), stats
    budget = _Budget(config)
    space = _Space(network)
    bound, incumbent = _initial_bound(network, space, config)
    pairs = _dfs_attempt(space, n, config, bound, stats, budget)
    if pairs is None:
        pairs = incumbent
    if pairs is None:
        # the bound excluded every tree in the space; search again without it
        pairs = _dfs_attempt(space, n, config, None, stats, budget)
    tree = ssa_to_tree(SsaPath(pairs), network)
    report = cost(tree, network.extents)
    stats.best_cost = _metric_of(report, config.metric)
    return tree, report, stats


def _capped_dp(space, items, metric, allow_outer, exclude_root_scalar, cap0, stats, budget):
    """Best tree per subset, admitting only subtrees within a cost cap.

    items are atomic units: (leafmask, head mask, base value). The cap rises
    geometrically until the union of all units is solved; any subset whose
    optimum fits under the final cap is recorded optimally along the way.
    budget raises BudgetError once the call's limits are passed.
    """
    best = {}
    levels = defaultdict(list)
    target = 0
    for leafmask, headmask, value in items:
        best[leafmask] = (value, headmask, None)
        levels[leafmask.bit_count()].append(leafmask)
        target |= leafmask
    if len(items) == 1:
        return best, target
    flops_metric = metric == "flops"
    cap = max(cap0, 1)
    factor = max(2, space.max_extent)
    top = target.bit_count()
    check_at = budget.check(stats.nodes_expanded)
    while target not in best:
        for c in range(2, top + 1):
            for d in range(1, c // 2 + 1):
                la = levels.get(d, ())
                lb = levels.get(c - d, ())
                for i, a in enumerate(la):
                    va, ha, _ = best[a]
                    partners = lb if d != c - d else la[i + 1:]
                    for b in partners:
                        if a & b:
                            continue
                        vb, hb, _ = best[b]
                        if not allow_outer and not ha & hb:
                            continue
                        stats.nodes_expanded += 1
                        if stats.nodes_expanded > check_at:
                            check_at = budget.check(stats.nodes_expanded)
                        key = a | b
                        head = space.head(key, ha | hb)
                        if flops_metric:
                            value = va + vb + space.size(ha | hb)
                        elif exclude_root_scalar and key == target and head == 0:
                            value = va if va >= vb else vb
                        else:
                            value = max(va, vb, space.size(head))
                        if value > cap:
                            stats.prunes += 1
                            continue
                        cur = best.get(key)
                        if cur is None:
                            best[key] = (value, head, (a, b))
                            levels[c].append(key)
                        elif value < cur[0]:
                            best[key] = (value, head, (a, b))
        if target not in best:
            cap *= factor
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


def exhaustive_bfs(network, config=None):
    """Optimal contraction order by breadth-first subset search.

    Builds best subtrees for tensor subsets of growing cardinality under a
    cost cap, raising the cap by the largest extent until the full network
    is solved. Disconnected networks are solved per component, then the
    component results are joined by an outer-product subset search.
    Returns (tree, cost report, search stats).
    """
    config = config or SearchConfig()
    n = len(network.tensors)
    stats = SearchStats()
    if n == 1:
        leaf = EinExpr.leaf(network.tensors[0])
        stats.best_cost = 0
        return leaf, CostReport(0, 0, 0), stats
    if n > 64:
        raise BudgetError("breadth-first search uses subset bitmasks capped at 64 tensors")
    budget = _Budget(config)
    space = _Space(network)
    bound, _ = _initial_bound(network, space, config)
    singletons = [(1 << i, space.term_masks[i], 0) for i in range(n)]
    pairs = []
    counter = [n]
    if config.outer_products:
        best, target = _capped_dp(
            space, singletons, config.metric, True, True, bound, stats, budget
        )
        base = {1 << i: i for i in range(n)}
        _emit(best, target, base, pairs, counter)
    else:
        comps = _components(space, n)
        if len(comps) > _SPINE_CAP:
            raise BudgetError(
                f"network splits into {len(comps)} components; the outer-product "
                f"combination search is capped at {_SPINE_CAP}"
            )
        units = []
        base = {1 << i: i for i in range(n)}
        for comp in comps:
            members = [s for s in singletons if s[0] & comp]
            sub, _ = _capped_dp(
                space, members, config.metric, False,
                len(comps) == 1, bound, stats, budget,
            )
            root = _emit(sub, comp, base, pairs, counter)
            value, headmask, _ = sub[comp]
            units.append(((comp, root), (comp, headmask, value)))
        if len(units) > 1:
            spine, target = _capped_dp(
                space, [u[1] for u in units], config.metric, True, True, bound, stats, budget
            )
            roots = {comp: root for (comp, root), _ in units}
            _emit(spine, target, roots, pairs, counter)
    tree = ssa_to_tree(SsaPath(pairs), network)
    report = cost(tree, network.extents)
    stats.best_cost = _metric_of(report, config.metric)
    return tree, report, stats
