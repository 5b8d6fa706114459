"""Independent reference computations for the tests.

Everything here is written the slow, obvious way on purpose and avoids the
package's own cost and search code, so agreement actually means something.
"""

import heapq
import math
from collections import Counter, defaultdict
from itertools import combinations
from random import Random

from einpath._util import derive_seed
from einpath.core import EinExpr
from einpath.errors import (
    InvalidContractionError,
    MalformedPathError,
    NetworkValidationError,
    TraceError,
)
from einpath.partition import _RESTARTS, _balance_bounds
from einpath.search import _CLOCK_EVERY


def _bits(network):
    """Index bit positions, tensor index masks, extents list, output mask."""
    names = sorted({ix for sig in network.tensors for ix in sig.indices})
    pos = {ix: b for b, ix in enumerate(names)}
    masks = []
    for sig in network.tensors:
        m = 0
        for ix in sig.indices:
            m |= 1 << pos[ix]
        masks.append(m)
    extents = [network.extents[ix] for ix in names]
    out = 0
    for ix in network.output:
        out |= 1 << pos[ix]
    return masks, extents, out


def best_tree_cost(network, metric="flops", outer_products=False):
    """Minimum metric value over the admissible contraction-tree space.

    Subset dynamic program over tensor bitmasks: every binary tree is some
    recursive split of the full set, so the minimum over all splits of all
    subsets is the minimum over all trees. With outer_products=False only
    connected subsets (or unions of whole components, the forced case) are
    admitted. Exponential in n; fine up to n = 10 or so.
    """
    n = len(network.tensors)
    masks, extents, out = _bits(network)
    nb = len(extents)
    appear = [0] * nb
    for m in masks:
        for b in range(nb):
            if m >> b & 1:
                appear[b] += 1

    def size(ixmask):
        s = 1
        for b in range(nb):
            if ixmask >> b & 1:
                s *= extents[b]
        return s

    def head(sub):
        h = 0
        for b in range(nb):
            cnt = sum(1 for i in range(n) if sub >> i & 1 and masks[i] >> b & 1)
            if cnt == 0:
                continue
            if cnt < appear[b] or out >> b & 1:
                h |= 1 << b
        return h

    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if masks[i] & masks[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i

    def closure(sub):
        first = (sub & -sub).bit_length() - 1
        seen = 1 << first
        stack = [first]
        while stack:
            v = stack.pop()
            for w in range(n):
                if adj[v] >> w & 1 and sub >> w & 1 and not seen >> w & 1:
                    seen |= 1 << w
                    stack.append(w)
        return seen

    comps = []
    left = (1 << n) - 1
    while left:
        c = closure(left)  # component of the lowest remaining vertex
        comps.append(c)
        left &= ~c

    def admissible(sub):
        if closure(sub) == sub:
            return True
        # disconnected subtree: only a union of whole components is forced
        return all(not sub & c or sub & c == c for c in comps)

    full = (1 << n) - 1
    heads = {}

    def H(sub):
        if sub not in heads:
            heads[sub] = head(sub)
        return heads[sub]

    best = {1 << i: 0 for i in range(n)}
    for sub in sorted(range(1, full + 1), key=lambda s: s.bit_count()):
        if sub.bit_count() < 2:
            continue
        if not outer_products and not admissible(sub):
            continue
        opt = None
        a = (sub - 1) & sub
        while a:
            b = sub ^ a
            if a in best and b in best:
                if metric == "flops":
                    v = best[a] + best[b] + size(H(a) | H(b))
                else:
                    hs = 0 if sub == full and H(sub) == 0 else size(H(sub))
                    v = max(best[a], best[b], hs)
                if opt is None or v < opt:
                    opt = v
            a = (a - 1) & sub
        if opt is not None:
            best[sub] = opt
    return best.get(full)


def min_cost_sequences(network, metric="flops", sharing_only=False):
    """Minimum metric value by enumerating every full pairwise sequence.

    Factorially slow; only usable below about seven tensors. sharing_only
    restricts each step to pairs with a common index, which on a connected
    network is exactly the outer-product-free space.
    """
    appear = Counter()
    for sig in network.tensors:
        appear.update(sig.indices)
    for ix in network.output:
        appear[ix] += 1
    extents = network.extents
    n = len(network.tensors)
    start = {i: Counter(network.tensors[i].indices) for i in range(n)}
    best = None

    def prod(indices):
        s = 1
        for ix in indices:
            s *= extents[ix]
        return s

    def rec(alive, flops, peak):
        nonlocal best
        ids = sorted(alive)
        if len(ids) == 1:
            v = flops if metric == "flops" else peak
            if best is None or v < best:
                best = v
            return
        for a, b in combinations(ids, 2):
            ca, cb = alive[a], alive[b]
            if sharing_only and not (ca.keys() & cb.keys()):
                continue
            counts = ca + cb
            union = counts.keys()
            step = flops + prod(union)
            head = {ix for ix in union if counts[ix] < appear[ix]}
            hs = prod(head)
            produced = hs if head or len(ids) > 2 else 0  # scalar root is free
            rest = {k: v for k, v in alive.items() if k not in (a, b)}
            rest[max(alive) + 1] = Counter({ix: counts[ix] for ix in head})
            rec(rest, step, max(peak, produced))

    rec(start, 0, 0)
    return best


def min_balanced_cut(network, imbalance=0.2):
    """Smallest balanced-bisection cut weight, by trying every subset.

    Mirrors the package's balance window and its convention that output
    indices always have one foot on side A.
    """
    n = len(network.tensors)
    half = math.ceil(n / 2)
    lo = max(1, math.floor(half * (1 - imbalance)))
    hi = min(n - 1, math.ceil(half * (1 + imbalance)))
    carriers = {}
    for sig in network.tensors:
        for ix in sig.indices:
            carriers.setdefault(ix, set()).add(sig.id)
    out = set(network.output)
    best = None
    for k in range(max(lo, n - hi), min(hi, n - lo) + 1):
        for comb in combinations(range(n), k):
            part = set(comb)
            w = 0.0
            for ix, vs in carriers.items():
                in_a = bool(vs & part) or ix in out
                in_b = bool(vs - part)
                if in_a and in_b:
                    w += math.log2(network.extents[ix])
            if best is None or w < best:
                best = w
    return best


def _appearances(network):
    """Tensors carrying each index, plus one for an output index."""
    appear = Counter()
    for sig in network.tensors:
        appear.update(sig.indices)
    for ix in network.output:
        appear[ix] += 1
    return appear


def greedy_reference(network):
    """From-scratch deterministic greedy, no priority structure.

    Each step recomputes every sharing pair's size-difference score and
    contracts the lexicographically smallest id pair among the minimizers;
    when nothing shares an index any more, the two smallest live terms (by
    size, then id) merge. Returns the chronological SSA pair list.
    """
    appear = _appearances(network)
    extents = network.extents

    def prod(indices):
        s = 1
        for ix in indices:
            s *= extents[ix]
        return s

    alive = {i: Counter(network.tensors[i].indices) for i in range(len(network.tensors))}
    next_id = len(network.tensors)
    pairs = []
    while len(alive) > 1:
        best = None
        for x, y in combinations(sorted(alive), 2):
            cx, cy = alive[x], alive[y]
            if not (cx.keys() & cy.keys()):
                continue
            counts = cx + cy
            head = {ix for ix in counts if counts[ix] < appear[ix]}
            entry = (prod(head) - prod(cx.keys()) - prod(cy.keys()), x, y)
            if best is None or entry < best:
                best = entry
        if best is None:
            a, b = sorted(sorted(alive, key=lambda t: (prod(alive[t].keys()), t))[:2])
        else:
            _, a, b = best
        counts = alive.pop(a) + alive.pop(b)
        alive[next_id] = Counter(
            {ix: counts[ix] for ix in counts if counts[ix] < appear[ix]}
        )
        pairs.append((a, b))
        next_id += 1
    return tuple(pairs)


def _keep_reference(counts, appear):
    head = frozenset(ix for ix, c in counts.items() if c < appear[ix])
    for ix in counts.keys() - head:
        del counts[ix]
    return head


def ssa_to_tree_reference(path, network):
    """SSA pairs to a tree with Counter sums at every node, the package's
    earlier rebuild: same checks, same errors, same messages."""
    n = len(network.tensors)
    appear = _appearances(network)
    alive = {}
    for sig in network.tensors:
        alive[sig.id] = (EinExpr.leaf(sig), Counter(sig.indices))
    next_id = n
    for step, pair in enumerate(path):
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise MalformedPathError(f"pair {step} is not a pair: {pair!r}") from None
        for x in (a, b):
            if not isinstance(x, int) or not 0 <= x < next_id:
                raise MalformedPathError(f"pair {step} references unknown id {x}")
        if a == b:
            raise MalformedPathError(f"pair {step} contracts id {a} with itself")
        if a not in alive:
            raise MalformedPathError(f"pair {step} reuses consumed id {a}")
        if b not in alive:
            raise MalformedPathError(f"pair {step} reuses consumed id {b}")
        expr_a, counts_a = alive.pop(a)
        expr_b, counts_b = alive.pop(b)
        counts = counts_a + counts_b
        head = _keep_reference(counts, appear)
        alive[next_id] = (EinExpr(head=head, args=(expr_a, expr_b)), counts)
        next_id += 1
    if len(alive) != 1:
        raise MalformedPathError(
            f"path has {len(path)} pairs but a full contraction of {n} tensors needs {n - 1}"
        )
    (expr, _), = alive.values()
    return expr


def validate_tree_reference(tree, network):
    """Tree check with Counter sums at every node, the package's earlier
    one: same checks, same errors, same messages. It checks each leaf as
    the post-order walk reaches it and tensor coverage last, while the
    package checks every leaf and the coverage before any branch, so on a
    tree with several flaws the two can raise different ones; on a tree
    with one flaw they agree."""
    appear = _appearances(network)
    n = len(network.tensors)
    vals = []
    stack = [(tree, False)]
    while stack:
        node, done = stack.pop()
        if node.is_leaf:
            if not 0 <= node.leaf_id < n:
                raise MalformedPathError(f"leaf id {node.leaf_id} outside 0..{n - 1}")
            sig = network.tensors[node.leaf_id]
            if node.head != frozenset(sig.indices):
                raise InvalidContractionError(
                    f"leaf {node.leaf_id} head {sorted(node.head)} does not match "
                    f"tensor indices {sorted(sig.indices)}"
                )
            vals.append(Counter(sig.indices))
            continue
        if not done:
            if len(node.args) < 2:
                raise InvalidContractionError("branch nodes need at least two arguments")
            stack.append((node, True))
            stack.extend((a, False) for a in reversed(node.args))
            continue
        counts = vals.pop()
        for _ in range(len(node.args) - 1):
            counts = counts + vals.pop()
        head = _keep_reference(counts, appear)
        if node.head != head:
            raise InvalidContractionError(
                f"branch head {sorted(node.head)} should be {sorted(head)}"
            )
        vals.append(counts)
    ids = sorted(node.leaf_id for node in tree.leaves())
    if ids != list(range(n)):
        raise MalformedPathError("tree must use every tensor exactly once")


def bisect_reference(h, imbalance=0.2, fm_passes=10, seed=0):
    """Dict-based Fiduccia-Mattheyses bisection, the package's earlier one.

    Same restarts, RNG stream, balance window, gain summation order and
    tie rules as `einpath.partition.bisect`, written over dicts and sets:
    every pass moves vertices until none may move, every touched vertex's
    gain is recomputed after each move, and the best prefix is kept.
    Returns (part_a, part_b, cut weight).
    """
    def cut(part_a):
        total = 0.0
        for ix in sorted(h.edges):
            in_a = in_b = False
            for v in h.edges[ix]:
                if v in part_a:
                    in_a = True
                else:
                    in_b = True
            if in_a and in_b:
                total += h.weights[ix]
        return total

    def gain(incident, counts, side, v):
        g = 0.0
        s = side[v]
        for ix in incident[v]:
            c = counts[ix]
            if c[s] == 1:
                if c[1 - s] >= 1:
                    g += h.weights[ix]
            elif c[1 - s] == 0:
                g -= h.weights[ix]
        return g

    def fm_pass(incident, side, sizes, lo, hi):
        counts = {}
        for ix, members in h.edges.items():
            c = [0, 0]
            for v in members:
                c[side[v]] += 1
            counts[ix] = c
        heaps = ([], [])
        gen = {}
        for v in sorted(side):
            gen[v] = 0
            heapq.heappush(heaps[side[v]], (-gain(incident, counts, side, v), v, 0))
        locked = set()
        moves = []
        cum = 0.0
        best_cum = 0.0
        best_len = 0
        n = len(side)
        while True:
            tops = [None, None]
            for s in (0, 1):
                heap = heaps[s]
                while heap:
                    negg, v, g = heap[0]
                    if v in locked or g != gen[v] or side[v] != s:
                        heapq.heappop(heap)
                        continue
                    tops[s] = (negg, v)
                    break
                if sizes[s] < max(lo + 1, n - hi + 1):
                    tops[s] = None
            if tops[0] is None and tops[1] is None:
                break
            if tops[1] is None or (tops[0] is not None and tops[0] < tops[1]):
                s = 0
            else:
                s = 1
            negg, v = tops[s]
            heapq.heappop(heaps[s])
            locked.add(v)
            t = 1 - s
            side[v] = t
            sizes[s] -= 1
            sizes[t] += 1
            touched = set()
            for ix in incident[v]:
                counts[ix][s] -= 1
                counts[ix][t] += 1
                touched.update(h.edges[ix])
            cum += -negg
            moves.append(v)
            if cum > best_cum + 1e-12:
                best_cum = cum
                best_len = len(moves)
            for u in sorted(touched):
                if u in locked or u == v:
                    continue
                gen[u] += 1
                heapq.heappush(heaps[side[u]], (-gain(incident, counts, side, u), u, gen[u]))
        for v in moves[best_len:]:
            s = side[v]
            side[v] = 1 - s
            sizes[s] -= 1
            sizes[1 - s] += 1
        return best_cum

    vertices = sorted(h.vertices)
    n = len(vertices)
    lo, hi = _balance_bounds(n, imbalance)
    incident = {v: [] for v in vertices}
    for ix in sorted(h.edges):
        for v in h.edges[ix]:
            incident[v].append(ix)
    best = None
    for restart in range(_RESTARTS):
        rng = Random(derive_seed(seed, restart))
        perm = vertices[:]
        rng.shuffle(perm)
        size_a = rng.randint(max(lo, n - hi), min(hi, n - lo))
        side = {v: 0 if pos < size_a else 1 for pos, v in enumerate(perm)}
        sizes = [size_a, n - size_a]
        for _ in range(fm_passes):
            if fm_pass(incident, side, sizes, lo, hi) <= 0:
                break
        part_a = frozenset(v for v in vertices if side[v] == 0)
        weight = cut(part_a)
        if best is None or weight < best[0] - 1e-12:
            best = (weight, part_a)
    weight, part_a = best
    return part_a, frozenset(vertices) - part_a, weight


def capped_dp_reference(space, items, metric, allow_outer, start, bound, stats, budget):
    """Best tree per subset, admitting only subtrees within a cost cap.

    The plain loop search._capped_dp must match exactly: it reads every
    partner from best, and heads and sizes every pair it counts.

    items are atomic units: (leafmask, head mask, base value). The first
    pass runs at min(start, bound); each pass that leaves the union of all
    units unformed multiplies the cap by the largest extent, clipped at the
    bound until a pass at the bound has failed. Any subset whose optimum
    fits under the final cap is recorded optimally along the way. Returns
    (best, target): best maps leafmask to (value, head mask, split or None)
    and lacks target when no tree over the units exists, which a pass that
    rejects no pair for cost proves. budget raises BudgetError once the
    call's limits are passed: it reads the node limit and the clock as the
    call starts, then the node limit at every counted pair and the clock
    every _CLOCK_EVERY scanned pairs. Under peak a pair is worth the
    largest of its operands' values and its head's size, a scalar root's
    size of 1 included: only a two-unit target of two units worth 0 can
    tell, and no caller reads that value.
    """
    best = {}
    levels = defaultdict(list)
    target = 0
    for leafmask, headmask, value in items:
        best[leafmask] = (value, headmask, None)
        levels[leafmask.bit_count()].append(leafmask)
        target |= leafmask
    flops_metric = metric == "flops"
    size = space.size
    head_of = space.head
    cap = max(1, min(start, bound))
    factor = max(2, space.max_extent)
    top = target.bit_count()
    nodes = stats.nodes_expanded
    budget.check(nodes)
    scanned = 0
    clock_at = _CLOCK_EVERY
    while target not in best:
        rejected = 0
        for c in range(2, top + 1):
            for d in range(1, c // 2 + 1):
                la = levels.get(d, ())
                lb = levels.get(c - d, ())
                for i, a in enumerate(la):
                    va, ha, _ = best[a]
                    partners = lb if d != c - d else la[i + 1:]
                    scanned += len(partners)
                    if scanned > clock_at:
                        budget.check_clock()
                        clock_at = scanned + _CLOCK_EVERY
                    for b in partners:
                        if a & b:
                            continue
                        vb, hb, _ = best[b]
                        if not allow_outer and not ha & hb:
                            continue
                        nodes += 1
                        if nodes > budget.max_nodes:
                            budget.check(nodes)
                        key = a | b
                        head = head_of(key, ha | hb)
                        if flops_metric:
                            value = va + vb + size(ha | hb)
                        else:
                            value = max(va, vb, size(head))
                        if value > cap:
                            rejected += 1
                            continue
                        cur = best.get(key)
                        if cur is None:
                            best[key] = (value, head, (a, b))
                            levels[c].append(key)
                        elif value < cur[0]:
                            best[key] = (value, head, (a, b))
        stats.nodes_expanded = nodes
        stats.prunes += rejected
        if not rejected:
            break
        cap = min(cap * factor, bound) if cap < bound else cap * factor
    return best, target


def validate_network_reference(tensors, extents, output):
    """The TensorSig and TensorNetwork checks as they were first written:
    one pass per check, sorted names, one extent record per index. `tensors`
    is a sequence of (id, indices) pairs; raises what constructing the
    network raises, in the same order."""
    for tid, indices in tensors:
        try:
            hash(tuple(indices))
        except TypeError:
            continue  # an unhashable name: the name check refuses it
        seen = set()
        for ix in indices:
            if ix in seen:
                raise TraceError(
                    f"tensor {tid} repeats index '{ix}'; internal traces are not supported"
                )
            seen.add(ix)
    if not tensors:
        raise NetworkValidationError("tensors", "network has no tensors")
    for pos, (tid, _) in enumerate(tensors):
        if type(tid) is not int or tid != pos:
            raise NetworkValidationError(
                f"tensors[{pos}].id", f"tensor ids must be 0..n-1 in order, got {tid}"
            )
    for pos, (_, indices) in enumerate(tensors):
        for k, ix in enumerate(indices):
            if type(ix) is not str or not ix:
                raise NetworkValidationError(
                    f"tensors[{pos}].indices[{k}]", "index names are non-empty strings"
                )
    named = set()
    for _, indices in tensors:
        named.update(indices)
    for ix in sorted(named):
        if ix not in extents:
            raise NetworkValidationError("extents", f"missing extent for index '{ix}'")
    for ix in extents:
        if ix not in named:
            raise NetworkValidationError(f"extents.{ix}", "extent for unknown index")
        extent = extents[ix]
        if not isinstance(extent, int) or isinstance(extent, bool):
            raise NetworkValidationError(f"extents.{ix}", "extent must be an integer")
        if extent < 1:
            raise NetworkValidationError(f"extents.{ix}", "extent must be >= 1")
    out_seen = set()
    for k, ix in enumerate(output):
        if type(ix) is not str or ix not in named:
            raise NetworkValidationError(f"output[{k}]", f"output index '{ix}' not on any tensor")
        if ix in out_seen:
            raise NetworkValidationError(f"output[{k}]", f"output index '{ix}' repeated")
        out_seen.add(ix)
    carriers = Counter()
    for _, indices in tensors:
        carriers.update(indices)
    for pos, (_, indices) in enumerate(tensors):
        for k, ix in enumerate(indices):
            if carriers[ix] == 1 and ix not in out_seen:
                raise NetworkValidationError(
                    f"tensors[{pos}].indices[{k}]",
                    f"index '{ix}' appears once and is not in the output (dangling)",
                )
