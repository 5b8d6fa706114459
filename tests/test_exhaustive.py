import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import WORKED_PAIRS
from einpath import (
    BudgetError,
    EinPathError,
    GenConfig,
    SearchConfig,
    SsaPath,
    TensorNetwork,
    TensorSig,
    cost,
    generate,
    greedy,
    parse_einsum,
    ssa_to_tree,
    tree_to_ssa,
    validate_tree,
)
from einpath import search
from einpath.search import _connected_masks, _sides, exhaustive_bfs, exhaustive_dfs
from oracles import best_tree_cost, min_cost_sequences


def _chain(n, extent=2):
    """t0(a0), t1(a0,a1), ..., t_{n-1}(a_{n-2}): a path graph."""
    sigs = [TensorSig(0, ("a0",))]
    for i in range(1, n - 1):
        sigs.append(TensorSig(i, (f"a{i - 1}", f"a{i}")))
    sigs.append(TensorSig(n - 1, (f"a{n - 2}",)))
    return TensorNetwork(tuple(sigs), {f"a{i}": extent for i in range(n - 1)}, ())


def _pairs(k):
    """k closed two-tensor components: (b0 b0), (b1 b1), ..."""
    sigs = []
    extents = {}
    for i in range(k):
        sigs.append(TensorSig(2 * i, (f"b{i}",)))
        sigs.append(TensorSig(2 * i + 1, (f"b{i}",)))
        extents[f"b{i}"] = 2 + i % 3
    return TensorNetwork(tuple(sigs), extents, ())


def _value(report, metric):
    return report.flops if metric == "flops" else report.peak_size


def test_golden_optimum(closed6):
    # the worked ordering costs 104; the actual optimum is slightly better
    tree, report, stats = exhaustive_dfs(closed6, SearchConfig())
    assert report.flops == 100
    assert stats.best_cost == 100
    validate_tree(tree, closed6)
    assert report.flops < cost(ssa_to_tree(SsaPath(WORKED_PAIRS), closed6), closed6.extents).flops
    _, report_bfs, _ = exhaustive_bfs(closed6, SearchConfig())
    assert report_bfs.flops == 100
    _, peak_report, _ = exhaustive_dfs(closed6, SearchConfig(metric="peak_size"))
    assert peak_report.peak_size == 16


def test_two_tensors():
    net = parse_einsum("ij,jk->ik", {"i": 2, "j": 3, "k": 4})
    tree, report, _ = exhaustive_dfs(net, SearchConfig())
    assert tree_to_ssa(tree).pairs == ((0, 1),)
    assert report.flops == 2 * 3 * 4
    _, report_bfs, _ = exhaustive_bfs(net, SearchConfig())
    assert report_bfs.flops == 24


def test_single_tensor():
    net = parse_einsum("ij->ij", {"i": 2, "j": 5})
    for search in (exhaustive_dfs, exhaustive_bfs):
        tree, report, stats = search(net, SearchConfig())
        assert tree.is_leaf
        assert report.flops == 0
        assert stats.nodes_expanded == 0


@pytest.mark.parametrize("metric", ["flops", "peak_size"])
@pytest.mark.parametrize("outer", [False, True])
def test_oracle_agreement(metric, outer):
    for n in range(4, 9):
        for seed in range(3):
            net = generate(GenConfig(n_tensors=n, extent_max=5, seed=seed))
            want = best_tree_cost(net, metric, outer)
            config = SearchConfig(metric=metric, outer_products=outer)
            for search in (exhaustive_dfs, exhaustive_bfs):
                tree, report, _ = search(net, config)
                validate_tree(tree, net)
                assert _value(report, metric) == want, (n, seed, search.__name__)


def _connected(net):
    reach = {0}
    frontier = [0]
    while frontier:
        cur = set(net.tensors[frontier.pop()].indices)
        for sig in net.tensors:
            if sig.id not in reach and cur & set(sig.indices):
                reach.add(sig.id)
                frontier.append(sig.id)
    return len(reach) == len(net.tensors)


@pytest.mark.parametrize("metric", ["flops", "peak_size"])
def test_oracle_against_sequence_enumeration(metric, closed6):
    # the subset DP must match a literal walk of every contraction sequence
    nets = [closed6]
    for seed in range(4):
        net = generate(GenConfig(n_tensors=5, extent_max=4, n_open=seed % 2, seed=seed))
        if _connected(net):  # sharing-only sequences deadlock otherwise
            nets.append(net)
    for net in nets:
        assert best_tree_cost(net, metric, True) == min_cost_sequences(net, metric, False)
        assert best_tree_cost(net, metric, False) == min_cost_sequences(net, metric, True)


@pytest.mark.parametrize("metric", ["flops", "peak_size"])
def test_bound_invariance(metric):
    for seed in range(5):
        net = generate(GenConfig(n_tensors=12, extent_max=5, seed=seed))
        _, naive_report, naive_stats = exhaustive_dfs(
            net, SearchConfig(metric=metric, init_bound="naive")
        )
        _, greedy_report, greedy_stats = exhaustive_dfs(
            net, SearchConfig(metric=metric, init_bound="greedy")
        )
        assert _value(greedy_report, metric) == _value(naive_report, metric)
        assert greedy_stats.nodes_expanded <= naive_stats.nodes_expanded
        assert greedy_stats.prunes <= greedy_stats.nodes_expanded
        assert naive_stats.prunes <= naive_stats.nodes_expanded


def test_outer_product_monotonicity():
    for seed in range(6):
        net = generate(GenConfig(n_tensors=9, extent_max=5, seed=seed))
        for metric in ("flops", "peak_size"):
            _, restricted, _ = exhaustive_dfs(net, SearchConfig(metric=metric))
            _, free, _ = exhaustive_dfs(
                net, SearchConfig(metric=metric, outer_products=True)
            )
            assert _value(free, metric) <= _value(restricted, metric)


def test_explicit_bound(closed6):
    # above the optimum: the bounded sweep finds it directly
    _, report, _ = exhaustive_dfs(closed6, SearchConfig(init_bound=101))
    assert report.flops == 100
    # at or below the optimum nothing survives the sweep and the search
    # reruns unbounded rather than failing
    for bound in (100, 1):
        _, report, _ = exhaustive_dfs(closed6, SearchConfig(init_bound=bound))
        assert report.flops == 100
    _, report, _ = exhaustive_bfs(closed6, SearchConfig(init_bound=1))
    assert report.flops == 100


def test_disconnected_fallback():
    net = _pairs(3)
    for metric in ("flops", "peak_size"):
        for outer in (False, True):
            want = best_tree_cost(net, metric, outer)
            config = SearchConfig(metric=metric, outer_products=outer)
            for search in (exhaustive_dfs, exhaustive_bfs):
                tree, report, _ = search(net, config)
                validate_tree(tree, net)
                assert _value(report, metric) == want


def test_forced_outer_products_along_spine():
    # with outer products off, cross-component joins appear exactly where
    # nothing shares an index any more: component results are scalars here
    tree, _, _ = exhaustive_dfs(_pairs(3), SearchConfig())
    outer_joins = sum(
        1
        for node in tree.branches()
        if not (node.args[0].head & node.args[1].head)
    )
    assert outer_joins == 2


def test_dfs_handles_long_chains():
    net = _chain(30)
    tree, report, _ = exhaustive_dfs(net, SearchConfig())
    validate_tree(tree, net)
    _, greedy_report = greedy(net)
    assert report.flops <= greedy_report.flops


def test_bfs_budget_limits():
    with pytest.raises(BudgetError):
        exhaustive_bfs(_chain(65), SearchConfig())
    with pytest.raises(BudgetError):  # too many components to spine together
        exhaustive_bfs(_pairs(14), SearchConfig())
    # dfs has no tensor-count gate
    tree, _, _ = exhaustive_dfs(_chain(65), SearchConfig())
    validate_tree(tree, _chain(65))


def test_search_config_validation():
    with pytest.raises(EinPathError):
        SearchConfig(metric="write_volume")
    with pytest.raises(EinPathError):
        SearchConfig(init_bound=True)
    with pytest.raises(EinPathError):
        SearchConfig(init_bound=0)
    with pytest.raises(EinPathError):
        SearchConfig(init_bound="best")
    SearchConfig(init_bound=7)  # explicit positive bounds are fine
    for bad in (-1, True, 2.5, "10"):
        with pytest.raises(EinPathError):
            SearchConfig(max_nodes=bad)
    for bad in (0, -1.0, True, "1", float("nan")):
        with pytest.raises(EinPathError):
            SearchConfig(deadline=bad)
    SearchConfig(max_nodes=0, deadline=0.5)


def test_determinism():
    net = generate(GenConfig(n_tensors=12, extent_max=5, seed=9))
    runs = [exhaustive_dfs(net, SearchConfig()) for _ in range(2)]
    assert tree_to_ssa(runs[0][0]) == tree_to_ssa(runs[1][0])
    assert runs[0][2] == runs[1][2]


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 8), seed=st.integers(0, 10**6))
def test_dfs_never_beaten_by_greedy(n, seed):
    net = generate(GenConfig(n_tensors=n, extent_max=5, seed=seed))
    _, report, _ = exhaustive_dfs(net, SearchConfig())
    _, greedy_report = greedy(net)
    assert report.flops <= greedy_report.flops


def _unit_graph(u, kind, extra):
    """Neighbour masks of u units: a path, star, cycle or complete graph
    (every unit sharing a batch index), plus the extra (i, j) edges."""
    edges = set(extra)
    if kind == "path":
        edges |= {(i, i + 1) for i in range(u - 1)}
    elif kind == "star":
        edges |= {(0, i) for i in range(1, u)}
    elif kind == "cycle":
        edges |= {(i, (i + 1) % u) for i in range(u)}
    elif kind == "complete":
        edges |= {(i, j) for i in range(u) for j in range(i + 1, u)}
    adjm = [0] * u
    for i, j in edges:
        if i != j:
            adjm[i] |= 1 << j
            adjm[j] |= 1 << i
    return adjm


def _component(mask, adjm):
    """The units of mask reachable inside it from its lowest unit."""
    seen = mask & -mask
    front = seen
    while front:
        grow = 0
        for i in range(len(adjm)):
            if front >> i & 1:
                grow |= adjm[i]
        front = grow & mask & ~seen
        seen |= front
    return seen


@settings(max_examples=300, deadline=None)
@given(data=st.data(), u=st.integers(1, 10),
       kind=st.sampled_from(["random", "path", "star", "cycle", "complete"]))
def test_sides_are_the_connected_splits(data, u, kind):
    pair = st.tuples(st.integers(0, u - 1), st.integers(0, u - 1))
    extra = data.draw(st.lists(pair, max_size=2 * u if kind == "random" else 2))
    adjm = _unit_graph(u, kind, extra)
    adj = {1 << i: adjm[i] for i in range(u)}
    # a connected unit set: all units but a drawn few, cut to one component
    dropped = data.draw(st.lists(st.integers(0, u - 1), max_size=2))
    s = (1 << u) - 1
    for i in dropped:
        s &= ~(1 << i)
    s = _component(s or 1, adjm)
    low = s & -s
    want = {
        c for c in range(1, 1 << u)
        if c & s == c and c & low and c != s
        and _component(c, adjm) == c and _component(s ^ c, adjm) == s ^ c
    }
    budget = search._Budget(SearchConfig())
    for conn in (_connected_masks(adjm, 1 << u, budget), None):
        got = _sides(s, adj, conn)
        assert len(got) == len(set(got))
        assert set(got) == want
        assert _sides(s, adj, conn) == got  # a fixed order


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 30), n_open=st.integers(0, 3), seed=st.integers(0, 10**6),
       data=st.data())
def test_space_head_is_the_carrier_rule(n, n_open, seed, data):
    # an index stays on a subtree's result while it is an output index or
    # some tensor outside the subtree still carries it
    net = generate(GenConfig(n_tensors=n, n_open=n_open, extent_max=3, seed=seed))
    space = search._Space(net)
    leafmask = data.draw(st.integers(1, (1 << n) - 1))
    inside = [sig for sig in net.tensors if leafmask >> sig.id & 1]
    outside = [sig for sig in net.tensors if not leafmask >> sig.id & 1]
    union = 0
    for sig in inside:
        union |= space.term_masks[sig.id]
    want = {
        ix for sig in inside for ix in sig.indices
        if ix in net.output or any(ix in other.indices for other in outside)
    }
    got = space.head(leafmask, union)
    assert got == sum(1 << space.bit[ix] for ix in want)


@pytest.mark.parametrize("metric", ["flops", "peak_size"])
def test_untabulated_connectivity(metric, monkeypatch):
    # past the memo cap, complements are checked by splitting them into
    # components instead of by table lookup; the optima must not change
    monkeypatch.setattr(search, "_MEMO_CAP", 0)
    for n in (10, 11, 12):
        for seed in range(2):
            net = generate(GenConfig(
                n_tensors=n, extent_max=5, n_open=seed, seed=100 * n + seed,
            ))
            config = SearchConfig(metric=metric)
            tree, report, _ = exhaustive_dfs(net, config)
            validate_tree(tree, net)
            _, want, _ = exhaustive_bfs(net, config)
            assert _value(report, metric) == _value(want, metric), (n, seed)


@pytest.mark.parametrize("engine", [exhaustive_dfs, exhaustive_bfs])
def test_node_budget(engine):
    net = generate(GenConfig(n_tensors=12, extent_max=5, seed=3))
    tree, report, stats = engine(net, SearchConfig())
    # a budget of exactly the nodes the search needs is enough
    exact = SearchConfig(max_nodes=stats.nodes_expanded)
    tree2, report2, stats2 = engine(net, exact)
    assert tree_to_ssa(tree2) == tree_to_ssa(tree)
    assert (report2, stats2) == (report, stats)
    # one node fewer, or naive seeding that needs more nodes, is not
    with pytest.raises(BudgetError, match="nodes"):
        engine(net, SearchConfig(max_nodes=stats.nodes_expanded - 1))
    if engine is exhaustive_dfs:
        _, _, naive = engine(net, SearchConfig(init_bound="naive"))
        assert naive.nodes_expanded > stats.nodes_expanded
        with pytest.raises(BudgetError):
            engine(net, SearchConfig(init_bound="naive", max_nodes=stats.nodes_expanded))


@pytest.mark.parametrize("engine", [exhaustive_dfs, exhaustive_bfs])
def test_deadline(engine):
    net = generate(GenConfig(n_tensors=12, extent_max=5, seed=3))
    with pytest.raises(BudgetError, match="deadline"):
        engine(net, SearchConfig(deadline=1e-9))
    if engine is exhaustive_dfs:
        # the deadline also holds while the connectivity table is built,
        # which at n = 28 takes seconds before the first split
        big = generate(GenConfig(n_tensors=28, extent_max=5, seed=1))
        begin = time.perf_counter()
        with pytest.raises(BudgetError, match="deadline"):
            engine(big, SearchConfig(deadline=0.05))
        assert time.perf_counter() - begin < 1.0
    tree, report, stats = engine(net, SearchConfig())
    tree2, report2, stats2 = engine(net, SearchConfig(deadline=3600))
    assert tree_to_ssa(tree2) == tree_to_ssa(tree)
    assert (report2, stats2) == (report, stats)
