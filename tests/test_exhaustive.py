import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import WORKED_PAIRS, disjoint_union
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
    greedy_path,
    naive,
    parse_einsum,
    ssa_to_tree,
    tree_to_ssa,
    validate_tree,
    verify_path,
)
from einpath import search
from einpath.search import exhaustive_bfs, exhaustive_dfs
from oracles import best_tree_cost, min_cost_sequences


def _chain(n, extent=2):
    """t0(a0), t1(a0,a1), ..., t_{n-1}(a_{n-2}): a path graph."""
    sigs = [TensorSig(0, ("a0",))]
    for i in range(1, n - 1):
        sigs.append(TensorSig(i, (f"a{i - 1}", f"a{i}")))
    sigs.append(TensorSig(n - 1, (f"a{n - 2}",)))
    return TensorNetwork(tuple(sigs), {f"a{i}": extent for i in range(n - 1)}, ())


def _pairs(k, open_legs=False):
    """k two-tensor components: (b0 b0), (b1 b1), ..., closed, or with an
    open leg oi of extent 2 on the first tensor of each."""
    sigs = []
    extents = {}
    for i in range(k):
        sigs.append(TensorSig(2 * i, (f"b{i}", f"o{i}") if open_legs else (f"b{i}",)))
        sigs.append(TensorSig(2 * i + 1, (f"b{i}",)))
        extents[f"b{i}"] = 2 + i % 3
        if open_legs:
            extents[f"o{i}"] = 2
    output = tuple(f"o{i}" for i in range(k)) if open_legs else ()
    return TensorNetwork(tuple(sigs), extents, output)


def _union_of(parts, seed):
    """Disjoint union of generated networks of the given sizes, with open
    legs and extent-1 indices; a one-tensor part carries only open legs,
    or none at all (a scalar)."""
    return disjoint_union([
        generate(GenConfig(
            n_tensors=n, regularity=2.5 if n > 1 else 0.0, n_open=(seed + k) % 3,
            extent_min=1, extent_max=4, seed=seed + k,
        ))
        for k, n in enumerate(parts)
    ])


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
        for metric in ("flops", "peak_size"):
            for outer in (False, True):
                for init in ("greedy", "naive", 5):
                    config = SearchConfig(metric=metric, init_bound=init, outer_products=outer)
                    tree, report, stats = search(net, config)
                    assert tree.is_leaf
                    assert (report.flops, report.peak_size, report.write_volume) == (0, 0, 0)
                    assert (stats.nodes_expanded, stats.best_cost) == (0, 0)


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
    # at or above the optimum: the cap never passes the bound
    for bound in (101, 100):
        _, report, _ = exhaustive_dfs(closed6, SearchConfig(init_bound=bound))
        assert report.flops == 100
    # below the optimum no pass at the bound forms the network, so the cap
    # rises past it rather than failing
    for bound in (99, 1):
        _, report, _ = exhaustive_dfs(closed6, SearchConfig(init_bound=bound))
        assert report.flops == 100
    _, report, _ = exhaustive_bfs(closed6, SearchConfig(init_bound=1))
    assert report.flops == 100


def _assert_optimal(net):
    """Both engines reach the oracle's optimum under both metrics, with
    outer products off and on."""
    for metric in ("flops", "peak_size"):
        for outer in (False, True):
            want = best_tree_cost(net, metric, outer)
            config = SearchConfig(metric=metric, outer_products=outer)
            for search in (exhaustive_dfs, exhaustive_bfs):
                tree, report, _ = search(net, config)
                validate_tree(tree, net)
                assert _value(report, metric) == want, (metric, outer, search.__name__)


def test_disconnected_fallback():
    _assert_optimal(_pairs(3))


@settings(max_examples=150, deadline=None)
@given(parts=st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda p: sum(p) <= 8),
       seed=st.integers(0, 10**6))
def test_components_and_spine_match_oracle(parts, seed):
    # each component is solved on its own and the spine joins the results;
    # with lone tensors, scalars, open legs and extent-1 indices in the mix,
    # both engines must still reach the optimum over the whole tree space
    _assert_optimal(_union_of(parts, seed))


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
    for engine in (exhaustive_dfs, exhaustive_bfs):
        with pytest.raises(BudgetError):  # too many components to spine together
            engine(_pairs(14), SearchConfig())
        # subset masks are Python ints: no tensor-count gate
        tree, _, _ = engine(_chain(65), SearchConfig())
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
    for bad in (0, -1.0, True, "1", float("nan"), 10**400):
        with pytest.raises(EinPathError):
            SearchConfig(deadline=bad)
    SearchConfig(max_nodes=0, deadline=0.5)
    # inf and the largest float-sized int mean no deadline in practice
    net = _chain(4)
    for far in (float("inf"), int(sys.float_info.max)):
        assert exhaustive_dfs(net, SearchConfig(deadline=far))[1] == exhaustive_dfs(net)[1]


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


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(st.integers(1, 7), min_size=1, max_size=3),
       seed=st.integers(0, 10**6), data=st.data())
def test_price_is_the_cost_report(parts, seed, data):
    # verify_path prices SSA pairs as it rebuilds them; its report must equal
    # cost() on the rebuilt tree, for greedy's pairs, the naive chain and
    # any other full contraction, with open legs and several components.
    # The naive chain's report is the naive tree's, the search's naive bound
    net = _union_of(parts, seed)
    n = len(net.tensors)
    greedy_pairs, _, _ = greedy_path(net)
    alive = list(range(n))
    drawn = []
    while len(alive) > 1:
        a = alive.pop(data.draw(st.integers(0, len(alive) - 1)))
        b = alive.pop(data.draw(st.integers(0, len(alive) - 1)))
        drawn.append((a, b))
        alive.append(n + len(drawn) - 1)
    chain = [(0 if t == 1 else n + t - 2, t) for t in range(1, n)]
    for pairs in (greedy_pairs, chain, drawn):
        tree = ssa_to_tree(SsaPath(pairs), net)
        assert verify_path(pairs, net) == (tree, cost(tree, net.extents))
    assert verify_path(chain, net)[1] == cost(naive(net), net.extents)


@pytest.mark.parametrize(
    "engine", [exhaustive_dfs, exhaustive_bfs], ids=["exhaustive_dfs", "exhaustive_bfs"]
)
def test_node_budget(engine):
    net = generate(GenConfig(n_tensors=12, extent_max=5, seed=3))
    tree, report, stats = engine(net, SearchConfig())
    # a budget of exactly the nodes the search needs is enough
    exact = SearchConfig(max_nodes=stats.nodes_expanded)
    tree2, report2, stats2 = engine(net, exact)
    assert tree_to_ssa(tree2) == tree_to_ssa(tree)
    assert (report2, stats2) == (report, stats)
    # one node fewer is not
    with pytest.raises(BudgetError, match="nodes"):
        engine(net, SearchConfig(max_nodes=stats.nodes_expanded - 1))
    # naive seeding needs at least as many nodes, and one fewer than it needs
    # is not enough for it either
    _, _, naive = engine(net, SearchConfig(init_bound="naive"))
    assert naive.nodes_expanded >= stats.nodes_expanded
    with pytest.raises(BudgetError, match="nodes"):
        engine(net, SearchConfig(init_bound="naive", max_nodes=naive.nodes_expanded - 1))


@pytest.mark.parametrize(
    "engine", [exhaustive_dfs, exhaustive_bfs], ids=["exhaustive_dfs", "exhaustive_bfs"]
)
def test_deadline(engine):
    net = generate(GenConfig(n_tensors=12, extent_max=5, seed=3))
    with pytest.raises(BudgetError, match="deadline"):
        engine(net, SearchConfig(deadline=1e-9))
    # the deadline also holds while a level scan skips pairs that overlap or
    # share no index, which at n = 28 is most of the scan
    big = generate(GenConfig(n_tensors=28, extent_max=5, seed=1))
    begin = time.perf_counter()
    with pytest.raises(BudgetError, match="deadline"):
        engine(big, SearchConfig(deadline=0.05))
    assert time.perf_counter() - begin < 1.0
    tree, report, stats = engine(net, SearchConfig())
    tree2, report2, stats2 = engine(net, SearchConfig(deadline=3600))
    assert tree_to_ssa(tree2) == tree_to_ssa(tree)
    assert (report2, stats2) == (report, stats)


def _solve_units(net, cap=1, deadline=5):
    """Run the subset DP directly on the tensors of net as units, with outer
    products off, from a cap of cap clipped at cap."""
    space = search._Space(net)
    items = [(1 << t, m, 0) for t, m in enumerate(space.term_masks)]
    stats = search.SearchStats()
    budget = search._Budget(SearchConfig(deadline=deadline))
    best, target = search._capped_dp(space, items, "flops", False, cap, cap, stats, budget)
    return best, target, stats


def test_unformable_target_stops_raising():
    # two units that share no index: no pair is ever examined, so a higher
    # cap can change nothing and the first pass is the last
    best, target, stats = _solve_units(parse_einsum("i,j->ij", {"i": 2, "j": 3}))
    assert target == 3 and target not in best
    assert (stats.nodes_expanded, stats.prunes) == (0, 0)
    assert (stats.passes, stats.subsets) == (1, 2)
    # a sharing pair rejected at cap 1 is admitted at cap 8; then the last
    # pass rejects nothing, so raising stops after exactly two passes
    best, target, stats = _solve_units(parse_einsum("i,i,j->j", {"i": 8, "j": 3}))
    assert target == 7 and target not in best and 3 in best
    assert (stats.nodes_expanded, stats.prunes) == (2, 1)
    assert (stats.passes, stats.subsets) == (2, 4)


def test_deadline_holds_in_uncounted_scans():
    # a star: any two subsets holding the centre overlap, so pairing them
    # counts no node; with every subset admitted in one pass, the scans of
    # the larger levels run for seconds without a node between them
    k = 14
    sigs = [TensorSig(0, tuple(f"i{j}" for j in range(k)))]
    sigs += [TensorSig(j + 1, (f"i{j}",)) for j in range(k)]
    star = TensorNetwork(tuple(sigs), {f"i{j}": 2 for j in range(k)}, ())
    begin = time.perf_counter()
    with pytest.raises(BudgetError, match="deadline"):
        _solve_units(star, cap=1 << 40, deadline=0.6)
    assert time.perf_counter() - begin < 1.6


def test_cap_schedule():
    # the last pass is clipped at the bound, so a loose bound costs nodes
    net = generate(GenConfig(n_tensors=12, extent_max=5, seed=3))
    for metric in ("flops", "peak_size"):
        def nodes(init):
            return exhaustive_dfs(net, SearchConfig(metric=metric, init_bound=init))[2]
        best = nodes("greedy").best_cost
        assert nodes(best).nodes_expanded < nodes(1000 * best).nodes_expanded
    # k open two-tensor components: each is formed by one node in one pass at
    # its floor, and the spine makes one pass at the bound, under which every
    # subset of the k results fits here, so it examines each of the
    # (3**k - 2**(k + 1) + 1) / 2 pairs of disjoint nonempty subsets once
    for k in (4, 8):
        for metric in ("flops", "peak_size"):
            _, _, stats = exhaustive_bfs(_pairs(k, open_legs=True), SearchConfig(metric=metric))
            assert stats.nodes_expanded == k + (3**k - 2**(k + 1) + 1) // 2


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 9), n_open=st.integers(0, 2), seed=st.integers(0, 10**6),
       metric=st.sampled_from(["flops", "peak_size"]))
def test_floor_is_admissible(n, n_open, seed, metric):
    # the first pass must not start above the optimum of any tree, with or
    # without outer products; a scalar root's size of 1 counts for peak
    net = generate(GenConfig(n_tensors=n, n_open=n_open, extent_max=5, seed=seed))
    space = search._Space(net)
    items = [(1 << t, m, 0) for t, m in enumerate(space.term_masks)]
    assert search._floor(space, items, metric) <= max(1, best_tree_cost(net, metric, True))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 10), n_open=st.integers(0, 2), seed=st.integers(0, 10**6),
       metric=st.sampled_from(["flops", "peak_size"]), outer=st.booleans(),
       data=st.data())
def test_tighter_bound_never_expands_more(n, n_open, seed, metric, outer, data):
    # the argument in search.py: greedy seeding expands no more nodes than
    # naive seeding, and of two explicit bounds at or above the optimum the
    # smaller expands no more nodes, always with the same optimum
    net = generate(GenConfig(n_tensors=n, n_open=n_open, extent_max=5, seed=seed))

    def run(init):
        _, report, stats = exhaustive_dfs(
            net, SearchConfig(metric=metric, init_bound=init, outer_products=outer)
        )
        return _value(report, metric), stats.nodes_expanded

    best, greedy_nodes = run("greedy")
    naive_value, naive_nodes = run("naive")
    assert naive_value == best
    assert greedy_nodes <= naive_nodes
    low = max(1, best + data.draw(st.integers(0, 3 * best)))
    high = low + data.draw(st.integers(0, 3 * low))
    low_value, low_nodes = run(low)
    high_value, high_nodes = run(high)
    assert low_value == high_value == best
    assert low_nodes <= high_nodes
