"""Tensor networks and contraction expression trees.

A tensor network is a hypergraph: vertices are tensors, edges are indices,
and an index shared by three or more tensors is a hyperedge. A contraction
order is a binary tree over the tensors. Every node records the index set of
its result (its "head"); an index is summed at the node where the last of
its carriers meet, unless it belongs to the network output, in which case it
is never summed.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import (
    InvalidContractionError,
    MalformedPathError,
    MissingExtentError,
    NetworkValidationError,
    TraceError,
    UnsupportedArityError,
)

__all__ = [
    "TensorSig",
    "TensorNetwork",
    "EinExpr",
    "CostReport",
    "SsaPath",
    "tensor_size",
    "cost",
    "export_dot",
    "summed_indices",
    "naive",
    "tree_to_ssa",
    "ssa_to_tree",
    "verify_path",
    "intermediates_equal",
    "validate_tree",
    "index_appearances",
]


@dataclass(frozen=True)
class TensorSig:
    """A tensor's id and ordered index names (no data, just the signature)."""

    id: int
    indices: tuple

    def __post_init__(self):
        indices = tuple(self.indices)
        object.__setattr__(self, "indices", indices)
        try:
            repeated = len(set(indices)) < len(indices)
        except TypeError:  # an unhashable name, which TensorNetwork refuses
            return
        if repeated:
            ix = next(ix for k, ix in enumerate(indices) if ix in indices[:k])
            raise TraceError(
                f"tensor {self.id} repeats index '{ix}'; internal traces are not supported"
            )


@dataclass(frozen=True)
class TensorNetwork:
    """A set of tensor signatures, an extents map and the output indices.

    Tensor ids must be exactly the ints 0..n-1 in list order, so that SSA
    input ids, list positions and tensor ids all coincide. Index names are
    non-empty strs and extents ints >= 1. Checks run over whole collections;
    only a failing one scans per tensor, to find the location.
    """

    tensors: tuple
    extents: dict
    output: tuple

    def __post_init__(self):
        object.__setattr__(self, "tensors", tuple(self.tensors))
        object.__setattr__(self, "output", tuple(self.output))
        if not self.tensors:
            raise NetworkValidationError("tensors", "network has no tensors")
        ids = [sig.id for sig in self.tensors]
        if ids != [*range(len(ids))] or {*map(type, ids)} != {int}:
            pos = next(p for p, tid in enumerate(ids) if type(tid) is not int or tid != p)
            raise NetworkValidationError(
                f"tensors[{pos}].id", f"tensor ids must be 0..n-1 in order, got {ids[pos]}"
            )
        try:
            carriers = Counter(itertools.chain.from_iterable([sig.indices for sig in self.tensors]))
            named = "" not in carriers and not {*map(type, carriers)} - {str}
        except TypeError:  # an unhashable name
            named = False
        if not named:
            pos, k = next((pos, k) for pos, sig in enumerate(self.tensors)
                          for k, ix in enumerate(sig.indices) if type(ix) is not str or not ix)
            raise NetworkValidationError(f"tensors[{pos}].indices[{k}]",
                                         "index names are non-empty strings")
        extents = self.extents
        missing = carriers.keys() - extents.keys()
        if missing:
            raise NetworkValidationError("extents", f"missing extent for index '{min(missing)}'")
        if (
            len(extents) != len(carriers)
            or {*map(type, extents.values())} - {int}
            or min(extents.values(), default=1) < 1
        ):
            for ix, extent in extents.items():
                if ix not in carriers:
                    raise NetworkValidationError(f"extents.{ix}", "extent for unknown index")
                if isinstance(extent, bool) or not isinstance(extent, int):
                    raise NetworkValidationError(f"extents.{ix}", "extent must be an integer")
                if extent < 1:
                    raise NetworkValidationError(f"extents.{ix}", "extent must be >= 1")
        out_seen = set()
        for k, ix in enumerate(self.output):
            if type(ix) is not str or ix not in carriers:  # a non-str may be unhashable
                raise NetworkValidationError(f"output[{k}]", f"output index '{ix}' not on any tensor")
            if ix in out_seen:
                raise NetworkValidationError(f"output[{k}]", f"output index '{ix}' repeated")
            out_seen.add(ix)
        dangling = {ix for ix, c in carriers.items() if c == 1} - out_seen
        if dangling:
            for pos, sig in enumerate(self.tensors):
                for k, ix in enumerate(sig.indices):
                    if ix in dangling:
                        raise NetworkValidationError(
                            f"tensors[{pos}].indices[{k}]",
                            f"index '{ix}' appears once and is not in the output (dangling)",
                        )


def index_appearances(network):
    """Count how many tensors carry each index, plus one if it is an output.

    An index is summed at a node exactly when the node's subtree accounts
    for all of these appearances.
    """
    appear = Counter()
    for sig in network.tensors:
        appear.update(sig.indices)
    for ix in network.output:
        appear[ix] += 1
    return dict(appear)


@dataclass(frozen=True, eq=False)
class EinExpr:
    """A node of a contraction tree.

    Either a leaf (``leaf_id`` set, no args) standing for an input tensor,
    or a branch whose args are contracted together. ``head`` is the index
    set of the node's result. Equality and hashing are structural and
    iterative, since greedy trees can be thousands of levels deep.
    """

    head: frozenset
    args: tuple = field(default=(), repr=False)
    leaf_id: int = None

    def __post_init__(self):
        object.__setattr__(self, "head", frozenset(self.head))
        object.__setattr__(self, "args", tuple(self.args))
        if (self.leaf_id is None) == (not self.args):
            raise InvalidContractionError(
                "a node is either a leaf (leaf_id, no args) or a branch (args, no leaf_id)"
            )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.leaf_id != b.leaf_id or a.head != b.head or len(a.args) != len(b.args):
                return False
            stack.extend(zip(a.args, b.args))
        return True

    def __hash__(self):
        hashes = {}
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if id(node) in hashes:
                continue
            if done or node.is_leaf:
                args = tuple(hashes[id(a)] for a in node.args)
                hashes[id(node)] = hash((node.head, args, node.leaf_id))
            else:
                stack.append((node, True))
                stack.extend((a, False) for a in node.args)
        return hashes[id(self)]

    @classmethod
    def leaf(cls, sig):
        return cls(head=frozenset(sig.indices), leaf_id=sig.id)

    @property
    def is_leaf(self):
        return self.leaf_id is not None

    def leaves(self):
        """Yield leaf nodes, left to right (iterative, trees can be deep)."""
        stack = [self]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.extend(reversed(node.args))

    def branches(self):
        """Yield branch nodes in post-order (children before parents)."""
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if node.is_leaf:
                continue
            if done:
                yield node
            else:
                stack.append((node, True))
                stack.extend((a, False) for a in reversed(node.args))


def summed_indices(node):
    """Indices removed at this node: the union of child heads minus the head."""
    if node.is_leaf:
        return frozenset()
    gathered = frozenset().union(*(a.head for a in node.args))
    return gathered - node.head


def tensor_size(head, extents):
    """Number of entries of a tensor with the given index set."""
    size = 1
    for ix in head:
        try:
            size *= extents[ix]
        except KeyError:
            raise MissingExtentError(f"no extent recorded for index '{ix}'") from None
    return size


def _fold_entries(node, extents):
    """Per-contraction (flops, head) entries for a branch node.

    Binary nodes give one entry. An n-ary node is costed as a left fold in
    arg order: fold intermediates keep an index while a later arg or the
    node's own head still needs it.
    """
    heads = [a.head for a in node.args]
    if len(heads) < 2:
        raise InvalidContractionError("branch nodes need at least two arguments")
    if len(heads) == 2:
        return [(tensor_size(heads[0] | heads[1], extents), node.head)]
    suffix = [frozenset()] * (len(heads) + 1)
    for i in range(len(heads) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | heads[i]
    entries = []
    cur = heads[0]
    for i in range(1, len(heads)):
        union = cur | heads[i]
        entries.append((tensor_size(union, extents), union & (suffix[i + 1] | node.head)))
        cur = entries[-1][1]
    return entries


def cost(tree, extents):
    """Cost a contraction tree: total flops, peak intermediate size, write volume.

    flops counts one fused multiply-add per produced-and-accumulated term,
    i.e. the product over the union of the child heads at each contraction.
    peak_size is the largest intermediate produced; the root counts only when
    it has nonzero rank. write_volume sums the sizes of everything written,
    root included. All three are exact integers.
    """
    entries = []
    for node in tree.branches():
        entries.extend(_fold_entries(node, extents))
    flops = 0
    peak = 0
    write = 0
    last = len(entries) - 1
    for i, (f, head) in enumerate(entries):
        flops += f
        size = tensor_size(head, extents)
        write += size
        if i == last and not head:
            continue  # scalar root is not an intermediate
        peak = max(peak, size)
    return CostReport(flops=flops, peak_size=peak, write_volume=write)


def export_dot(tree, network):
    """Graphviz text for a contraction tree.

    Every branch becomes a node labeled with its flop count; every tensor
    (leaf or intermediate) becomes an edge labeled with its size, pointing
    at the contraction that consumes it (the root feeds a terminal anchor).
    Leaves and the anchor render as points. `weight` attributes carry log10
    of the label so plotting tools can scale without reparsing.
    """
    extents = network.extents
    n = len(network.tensors)
    names = {}  # id(branch) -> node name, numbered in post-order like SSA ids

    def name(node):
        return f"t{node.leaf_id}" if node.is_leaf else names[id(node)]

    declared = []
    edges = []
    for node in tree.branches():
        here = names[id(node)] = f"n{n + len(declared)}"
        declared.append((here, sum(f for f, _ in _fold_entries(node, extents))))
        for arg in node.args:
            edges.append((name(arg), here, tensor_size(arg.head, extents)))
    root_name, root_size = name(tree), tensor_size(tree.head, extents)
    lines = ["digraph contraction {"]
    for i in range(n):
        lines.append(f'  t{i} [shape=point];')
    for node_name, flops in declared:
        lines.append(
            f'  {node_name} [label="{flops}", weight="{math.log10(flops):.6f}"];'
        )
    lines.append("  out [shape=point];")
    for tail, head, size in edges:
        lines.append(
            f'  {tail} -> {head} [label="{size}", weight="{math.log10(size):.6f}"];'
        )
    lines.append(
        f'  {root_name} -> out [label="{root_size}", weight="{math.log10(root_size):.6f}"];'
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CostReport:
    """Exact integer cost metrics for one contraction tree."""

    flops: int
    peak_size: int
    write_volume: int


def _as_pair(step, pair):
    try:
        a, b = pair
    except (TypeError, ValueError):
        raise MalformedPathError(f"pair {step} is not a pair: {pair!r}") from None
    return a, b


@dataclass(frozen=True)
class SsaPath:
    """A contraction order as a flat list of SSA id pairs.

    Ids 0..n-1 are the input tensors in network order; each contraction
    appends a fresh id. Pairs keep the branch argument order. Ids are kept
    as given, never converted: `ssa_to_tree` refuses one that is not an int.
    An entry that is not a pair raises MalformedPathError.
    """

    pairs: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(itertools.starmap(_as_pair, enumerate(self.pairs))))

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __getitem__(self, i):
        return self.pairs[i]


def naive(network):
    """The n-ary single-node tree contracting every tensor at once."""
    if len(network.tensors) == 1:
        return EinExpr.leaf(network.tensors[0])
    args = tuple(EinExpr.leaf(sig) for sig in network.tensors)
    return EinExpr(head=frozenset(network.output), args=args)


def tree_to_ssa(tree):
    """Serialize a binary tree to an SsaPath (post-order, left args first)."""
    leaf_ids = sorted(node.leaf_id for node in tree.leaves())
    n = len(leaf_ids)
    if leaf_ids != list(range(n)):
        raise MalformedPathError("tree leaf ids must be exactly 0..n-1")
    counter = itertools.count(n)
    pairs = []
    vals = []
    stack = [(tree, 0)]
    while stack:
        node, state = stack.pop()
        if node.is_leaf:
            vals.append(node.leaf_id)
            continue
        if len(node.args) != 2:
            raise UnsupportedArityError("only binary trees serialize to an SSA path")
        if state < 2:
            stack.append((node, state + 1))
            stack.append((node.args[state], 0))
        else:
            b = vals.pop()
            a = vals.pop()
            pairs.append((a, b))
            vals.append(next(counter))
    return SsaPath(tuple(pairs))


def contract_pair(counts_a, size_a, counts_b, size_b, appear, extents):
    """The binary pair rule: contract two operands given as per-index
    appearance counts and sizes. The smaller dict is added into the larger
    in place (the first on a tie), and an index is summed, so dropped, when
    its count reaches its appearances. The union's size is the product of
    the operand sizes divided once by each shared extent, the result's
    divided once more by each summed one. Returns (counts, union size,
    result size); the counts' keys are the result's head."""
    if len(counts_a) < len(counts_b):
        counts_a, counts_b = counts_b, counts_a
    union = size = size_a * size_b
    for ix, c in counts_b.items():
        d = counts_a.get(ix)
        if d is None:
            counts_a[ix] = c
            continue
        e = extents[ix]
        union //= e
        if c + d == appear[ix]:
            size //= e * e
            del counts_a[ix]
        else:
            size //= e
            counts_a[ix] = c + d
    return counts_a, union, size


def verify_path(path, network):
    """Rebuild the expression tree for an SSA path and price it in one walk.

    Heads are recomputed from the appearance counts by the pair rule, so
    the tree is valid by construction, and the rule's sizes give the cost
    report as cost() would give it for the tree. The path must be a full
    contraction: n-1 pairs, every id consumed exactly once; anything else
    raises MalformedPathError. Returns (tree, CostReport).
    """
    n = len(network.tensors)
    appear = index_appearances(network)
    extents = network.extents
    alive = {sig.id: (EinExpr.leaf(sig), dict.fromkeys(sig.indices, 1),
                      tensor_size(sig.indices, extents)) for sig in network.tensors}
    flops = peak = write = 0
    next_id = n
    for step, pair in enumerate(path):
        a, b = _as_pair(step, pair)
        for x in (a, b):
            if type(x) is not int or not 0 <= x < next_id:
                raise MalformedPathError(f"pair {step} references unknown id {x}")
        if a == b:
            raise MalformedPathError(f"pair {step} contracts id {a} with itself")
        for x in (a, b):
            if x not in alive:
                raise MalformedPathError(f"pair {step} reuses consumed id {x}")
        expr_a, counts_a, size_a = alive.pop(a)
        expr_b, counts_b, size_b = alive.pop(b)
        counts, union, size = contract_pair(counts_a, size_a, counts_b, size_b, appear, extents)
        flops += union
        write += size
        if counts or alive:
            peak = max(peak, size)  # a scalar root is no intermediate
        alive[next_id] = (EinExpr(head=frozenset(counts), args=(expr_a, expr_b)), counts, size)
        next_id += 1
    if len(alive) != 1:
        raise MalformedPathError(
            f"path has {len(path)} pairs but a full contraction of {n} tensors needs {n - 1}"
        )
    (expr, _, _), = alive.values()
    return expr, CostReport(flops=flops, peak_size=peak, write_volume=write)


def ssa_to_tree(path, network):
    """The expression tree of an SSA path over a network: verify_path's tree."""
    return verify_path(path, network)[0]


def intermediates_equal(a, b):
    """Whether two trees produce the same multiset of intermediate index sets."""
    return Counter(n.head for n in a.branches()) == Counter(n.head for n in b.branches())


def validate_tree(tree, network):
    """Check a tree against its network; raises on any violated invariant.

    Checks the leaves first: ids in range, heads equal to their tensors'
    indices, every tensor exactly once. Then every branch must have at least
    two args, and its stored head must equal the head its args give when
    folded left to right through the pair rule; with valid leaves no count
    passes its appearances, so the fold keeps what the n-ary node keeps.
    """
    n = len(network.tensors)
    ids = []
    for node in tree.leaves():
        if not 0 <= node.leaf_id < n:
            raise MalformedPathError(f"leaf id {node.leaf_id} outside 0..{n - 1}")
        sig = network.tensors[node.leaf_id]
        if node.head != frozenset(sig.indices):
            raise InvalidContractionError(
                f"leaf {node.leaf_id} head {sorted(node.head)} does not match "
                f"tensor indices {sorted(sig.indices)}"
            )
        ids.append(node.leaf_id)
    if sorted(ids) != list(range(n)):
        raise MalformedPathError("tree must use every tensor exactly once")
    appear = index_appearances(network)
    extents = network.extents
    vals = []
    stack = [(tree, False)]
    while stack:
        node, done = stack.pop()
        if node.is_leaf:
            vals.append(dict.fromkeys(network.tensors[node.leaf_id].indices, 1))
            continue
        if not done:
            if len(node.args) < 2:
                raise InvalidContractionError("branch nodes need at least two arguments")
            stack.append((node, True))
            stack.extend((a, False) for a in reversed(node.args))
            continue
        k = len(node.args)
        counts = vals[-k]
        for other in vals[1 - k:]:
            counts = contract_pair(counts, 0, other, 0, appear, extents)[0]  # sizes unused
        del vals[-k:]
        if node.head != frozenset(counts):
            raise InvalidContractionError(
                f"branch head {sorted(node.head)} should be {sorted(counts)}"
            )
        vals.append(counts)
