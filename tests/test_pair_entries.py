"""The pair-level entries, greedy_path and exhaustive_path, and the tree
optimizers built on them, over hyperedges, batch indices, extent 1,
disconnected components and extents past 2^63: every path they return
rebuilds and prices by verify_path as by ssa_to_tree and cost.

The exhaustive search is exponential in the tensors of a part it solves:
each connected component with outer products off, the whole network with
them on. A batched union of 24 tensors is one such part, so the search
runs only where that part has at most _SEARCHED tensors.
"""

import warnings
from collections import Counter

from hypothesis import example, given, settings, strategies as st

from conftest import hyper_networks
from einpath import (
    BudgetError,
    GreedyConfig,
    SearchConfig,
    TensorNetwork,
    TensorSig,
    cost,
    exhaustive_dfs,
    exhaustive_path,
    greedy_path,
    partition_optimize,
    ssa_to_tree,
    tree_to_ssa,
    validate_tree,
    verify_path,
)


@st.composite
def _wide_networks(draw):
    """hyper_networks, with one index's extent past 2^63 in some examples."""
    net = draw(hyper_networks())
    names = sorted(net.extents)
    if not names or not draw(st.booleans()):
        return net
    big = draw(st.sampled_from(names))
    extents = {**net.extents, big: draw(st.integers(2**63 + 1, 2**70))}
    return TensorNetwork(net.tensors, extents, net.output)


_SEARCHED = 10
# fourteen components of one tensor each: more than the spine searches
_LONE = TensorNetwork(tuple(TensorSig(t, (f"o{t}",)) for t in range(14)),
                      {f"o{t}": 2**64 for t in range(14)}, tuple(f"o{t}" for t in range(14)))


def _components(net):
    """Sizes of the connected components of the tensors over shared indices."""
    root = list(range(len(net.tensors)))

    def find(t):
        while root[t] != t:
            t = root[t]
        return t

    first = {}
    for sig in net.tensors:
        for ix in sig.indices:
            root[find(sig.id)] = find(first.setdefault(ix, sig.id))
    return list(Counter(find(t) for t in range(len(root))).values())


def _rebuilt(net, path, report):
    # verify_path rebuilds the tree ssa_to_tree does and prices it as cost()
    tree = ssa_to_tree(path, net)
    validate_tree(tree, net)
    assert report == cost(tree, net.extents)
    assert verify_path(path, net) == (tree, report)
    return tree


@settings(max_examples=60, deadline=None)
@given(net=_wide_networks(), seed=st.integers(0, 10**6))
@example(net=_LONE, seed=0)
def test_pair_entries_report_the_cost_of_their_pairs(net, seed):
    for temperature in (0, 0.5):
        for samples in (1, 2, 3):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # T = 0 with samples > 1 warns
                path, report, _ = greedy_path(net, GreedyConfig(temperature, samples, seed))
            _rebuilt(net, path, report)
    parts = _components(net)
    for metric in ("flops", "peak_size"):
        for outer in (False, True):
            if (len(net.tensors) if outer else max(parts)) > _SEARCHED:
                continue
            config = SearchConfig(metric=metric, outer_products=outer)
            try:
                path, report, stats = exhaustive_path(net, config)
            except BudgetError:
                assert not outer and len(parts) > 13
                continue
            tree = _rebuilt(net, path, report)
            assert stats.best_cost == getattr(report, metric)
            assert tree == exhaustive_dfs(net, config)[0]
    tree, report = partition_optimize(net)
    assert _rebuilt(net, tree_to_ssa(tree), report) == tree
