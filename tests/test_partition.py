import math
import statistics
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from einpath import (
    EinPathError,
    GenConfig,
    PartitionConfig,
    SearchConfig,
    bisect,
    build_hypergraph,
    cost,
    cut_weight,
    generate,
    greedy,
    naive,
    parse_einsum,
    partition_optimize,
    tree_to_ssa,
    validate_tree,
)
from einpath import partition
from einpath.partition import Hypergraph, _balance_bounds
from einpath.search import exhaustive_dfs
from conftest import batched, disjoint_union
from oracles import bisect_reference, min_balanced_cut


def test_worked_example_hypergraph(closed6):
    h = build_hypergraph(closed6)
    assert h.vertices == (0, 1, 2, 3, 4, 5)
    assert h.edges == {
        "i": frozenset({0, 1}),
        "j": frozenset({1, 2}),
        "k": frozenset({2, 3}),
        "l": frozenset({3, 5}),
        "m": frozenset({0, 4}),
        "n": frozenset({2, 4}),
        "o": frozenset({4, 5}),
        "p": frozenset({1, 3}),
    }
    assert all(w == 1.0 for w in h.weights.values())


def test_output_index_is_plain_edge():
    net = parse_einsum("ij,jk->ik", {"i": 2, "j": 3, "k": 4})
    h = build_hypergraph(net)
    assert h.edges == {"i": frozenset({0}), "j": frozenset({0, 1}), "k": frozenset({1})}
    # the open legs i and k are one-pin edges, so only j is cut
    assert cut_weight(h, frozenset({0})) == pytest.approx(math.log2(3))
    assert cut_weight(h, frozenset({1})) == pytest.approx(math.log2(3))


def test_cut_weight_manual(closed6):
    h = build_hypergraph(closed6)
    # {0,1,4} | {2,3,5} severs j, p, n, o
    assert cut_weight(h, frozenset({0, 1, 4})) == pytest.approx(4.0)
    assert cut_weight(h, frozenset({1, 2, 3})) == pytest.approx(3.0)
    assert cut_weight(h, frozenset(closed6.tensors[t].id for t in range(6))) == 0.0


def test_balance_bounds():
    assert _balance_bounds(6, 0.2) == (2, 4)
    assert _balance_bounds(2, 0.0) == (1, 1)
    assert _balance_bounds(7, 0.2) == (3, 5)
    assert _balance_bounds(64, 0.2) == (25, 39)


def test_worked_example_bisection(closed6):
    h = build_hypergraph(closed6)
    part_a, part_b, weight = bisect(h)
    # several balanced splits sever three unit-weight indices; none does better
    assert weight == pytest.approx(3.0)
    assert weight == pytest.approx(min_balanced_cut(closed6, imbalance=0.2))
    assert cut_weight(h, part_a) == pytest.approx(weight)
    lo, hi = _balance_bounds(6, 0.2)
    assert lo <= len(part_a) <= hi
    assert part_a | part_b == frozenset(range(6))


@pytest.mark.parametrize("seed", range(4))
def test_bisect_respects_balance(seed):
    net = generate(GenConfig(n_tensors=17, regularity=3.0, extent_min=2, extent_max=4, seed=seed))
    h = build_hypergraph(net)
    config = PartitionConfig(seed=seed)
    part_a, part_b, weight = bisect(h, config)
    lo, hi = _balance_bounds(17, config.imbalance)
    assert lo <= len(part_a) <= hi
    assert lo <= len(part_b) <= hi
    assert part_a | part_b == frozenset(range(17))
    assert not part_a & part_b
    assert weight == pytest.approx(cut_weight(h, part_a))


@st.composite
def _hypergraphs(draw):
    """Vertices with scattered ids; edges of one to five pins or of every
    vertex, weighted log2 of extents 1-5."""
    n = draw(st.integers(2, 24))
    vertices = sorted(draw(st.sets(st.integers(0, 999), min_size=n, max_size=n)))
    edges = {}
    weights = {}
    for e in range(draw(st.integers(0, 3 * n))):
        if draw(st.integers(0, 9)) == 0:
            members = set(vertices)
        else:
            members = set(draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=5)))
        edges[f"e{e:03d}"] = frozenset(members)
        weights[f"e{e:03d}"] = math.log2(draw(st.integers(1, 5)))
    return Hypergraph(tuple(vertices), edges, weights)


@settings(max_examples=80, deadline=None)
@given(h=_hypergraphs(), imbalance=st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3, 0.45]),
       fm_passes=st.integers(1, 10), seed=st.integers(0, 10**6))
def test_bisect_matches_reference(h, imbalance, fm_passes, seed):
    # the array FM, with its early stop and without one-pin edges, makes
    # the reference FM's moves: same halves, and the very same float cut
    # weight
    config = PartitionConfig(imbalance=imbalance, fm_passes=fm_passes, seed=seed)
    assert bisect(h, config) == bisect_reference(h, imbalance, fm_passes, seed)


def _regular(n):
    return build_hypergraph(generate(GenConfig(
        n_tensors=n, regularity=3.0, n_open=2, extent_min=2, extent_max=5, seed=3,
    )))


def test_bisect_matches_reference_without_slack():
    # imbalance 0 leaves no room for a cluster of two, so bisect stays flat
    # above the coarsening threshold too
    h = _regular(256)
    config = PartitionConfig(imbalance=0.0)
    assert bisect(h, config) == bisect_reference(h, imbalance=0.0)


def _count_passes(monkeypatch):
    """Record (moves, vertices) of every _fm_pass call."""
    passes = []
    fm_pass = partition._fm_pass

    def counted(flat, side, sizes, lo, hi):
        result = fm_pass(flat, side, sizes, lo, hi)
        passes.append((result[1], len(side)))
        return result

    monkeypatch.setattr(partition, "_fm_pass", counted)
    return passes


def test_fm_pass_stops_early(monkeypatch):
    # without the locked-edge stop every pass here moves all n vertices
    passes = _count_passes(monkeypatch)
    bisect(_regular(256))
    assert sum(moves for moves, _ in passes) < sum(n for _, n in passes)


def test_bisect_restarts_only_when_coarse(monkeypatch):
    # the restarts run on the coarsest level; the finest level is only
    # refined, by at most fm_passes passes (a flat bisection ran 51 here)
    passes = _count_passes(monkeypatch)
    bisect(_regular(1024))
    assert sum(n == 1024 for _, n in passes) <= PartitionConfig().fm_passes
    assert min(n for _, n in passes) < 2 * partition._COARSEST


@st.composite
def _coarsened_hypergraphs(draw):
    """33-300 vertices with scattered ids, split into 1-4 disjoint parts;
    edges of one to five pins inside a part, and 0-2 edges over every
    vertex (batch indices); weights log2 of extents 1-5, so some are 0."""
    n = draw(st.integers(33, 300))
    rng = Random(draw(st.integers(0, 2**32)))
    vertices = sorted(rng.sample(range(1000), n))
    ends = [0, *sorted(rng.sample(range(1, n), draw(st.integers(0, 3)))), n]
    edges = [frozenset(vertices)] * draw(st.integers(0, 2))
    for a, b in zip(ends, ends[1:]):
        for _ in range(3 * (b - a) // 2):
            edges.append(frozenset(rng.sample(vertices[a:b], min(b - a, rng.randint(1, 5)))))
    names = [f"e{e:04d}" for e in range(len(edges))]
    weights = {name: math.log2(rng.randint(1, 5)) for name in names}
    return Hypergraph(tuple(vertices), dict(zip(names, edges)), weights)


@settings(max_examples=60, deadline=None)
@given(h=_coarsened_hypergraphs(), imbalance=st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3, 0.45]),
       seed=st.integers(0, 10**6))
def test_bisect_coarsened_property(h, imbalance, seed):
    config = PartitionConfig(imbalance=imbalance, seed=seed)
    part_a, part_b, weight = bisect(h, config)
    lo, hi = _balance_bounds(len(h.vertices), imbalance)
    assert lo <= len(part_a) <= hi
    assert lo <= len(part_b) <= hi
    assert not part_a & part_b
    assert part_a | part_b == frozenset(h.vertices)
    assert weight == cut_weight(h, part_a)
    assert bisect(h, config) == (part_a, part_b, weight)


def test_odd_network_without_slack():
    # imbalance 0 on an odd vertex count allows halves of n // 2 and n // 2 + 1
    assert _balance_bounds(7, 0.0) == (3, 4)
    net = generate(GenConfig(n_tensors=9, regularity=3.0, extent_min=2, extent_max=4, seed=1))
    part_a, part_b, _ = bisect(build_hypergraph(net), PartitionConfig(imbalance=0.0))
    assert sorted([len(part_a), len(part_b)]) == [4, 5]


def test_bisect_rejects_unknown_member():
    h = Hypergraph((0, 1, 2), {"a": frozenset({0, 1}), "b": frozenset({-1})},
                   {"a": 1.0, "b": 1.0})
    with pytest.raises(EinPathError, match="'b'"):
        bisect(h)


def test_bisect_determinism(closed6):
    h = build_hypergraph(closed6)
    assert bisect(h, PartitionConfig(seed=5)) == bisect(h, PartitionConfig(seed=5))


def test_bisect_needs_two_vertices():
    net = parse_einsum("ij->ij", {"i": 2, "j": 2})
    with pytest.raises(EinPathError):
        bisect(build_hypergraph(net))


def test_worked_example_partition(closed6):
    # six tensors fit under the default cutoff, so this is pure leaf search
    tree, report = partition_optimize(closed6)
    validate_tree(tree, closed6)
    assert report.flops == 100
    # forcing recursion splits three against three and lands on the same
    # two-branch shape as the worked ordering
    tree, report = partition_optimize(closed6, PartitionConfig(cutoff=3))
    validate_tree(tree, closed6)
    assert report == cost(tree, closed6.extents)
    assert report.flops == 104


def test_partition_not_worse_than_greedy_at_256():
    # over networks with 0-3 open legs, partition's median tree is at least
    # 2.0 below greedy's in log10 flops (flat bisection was 1.03 below here,
    # multilevel 3.12)
    part = []
    base = []
    for seed in range(8):
        net = generate(GenConfig(
            n_tensors=256, regularity=3.0, n_open=seed % 4,
            extent_min=2, extent_max=5, seed=seed,
        ))
        part.append(math.log10(partition_optimize(net, PartitionConfig(seed=seed))[1].flops))
        base.append(math.log10(greedy(net)[1].flops))
    assert statistics.median(part) <= statistics.median(base) - 2.0


@pytest.mark.parametrize("leaf", ["exhaustive_dfs", "greedy"])
def test_cutoff_covers_whole_network(leaf):
    # with cutoff >= n the result is exactly the leaf optimizer's tree
    for seed in range(6):
        net = generate(GenConfig(
            n_tensors=10, regularity=3.0, n_open=seed % 3,
            extent_min=2, extent_max=5, seed=seed,
        ))
        tree, report = partition_optimize(net, PartitionConfig(cutoff=32, leaf_optimizer=leaf))
        if leaf == "greedy":
            base_tree, base_report = greedy(net)
        else:
            base_tree, base_report, _ = exhaustive_dfs(net, SearchConfig())
        assert tree_to_ssa(tree) == tree_to_ssa(base_tree)
        assert report == base_report


@pytest.mark.parametrize("seed", range(5))
def test_partition_random_networks(seed):
    net = generate(GenConfig(
        n_tensors=24, regularity=3.0, n_open=seed % 4,
        extent_min=2, extent_max=4, seed=seed,
    ))
    tree, report = partition_optimize(net, PartitionConfig(seed=seed))
    validate_tree(tree, net)
    assert report == cost(tree, net.extents)
    assert report.flops <= cost(naive(net), net.extents).flops


def test_partition_single_tensor():
    net = parse_einsum("ij->ij", {"i": 2, "j": 3})
    for config in (None, PartitionConfig(leaf_optimizer="greedy")):
        tree, report = partition_optimize(net, config)
        assert tree.is_leaf
        assert (report.flops, report.peak_size, report.write_volume) == (0, 0, 0)


def test_partition_three_tensors():
    net = parse_einsum("ij,jk,kl->il", {"i": 2, "j": 8, "k": 8, "l": 2})
    tree, report = partition_optimize(net, PartitionConfig(cutoff=2))
    validate_tree(tree, net)
    assert report.flops == cost(tree, net.extents).flops


def test_partition_config_validation():
    with pytest.raises(EinPathError):
        PartitionConfig(imbalance=-0.1)
    with pytest.raises(EinPathError):
        PartitionConfig(imbalance=0.5)
    with pytest.raises(EinPathError):
        PartitionConfig(cutoff=1)
    with pytest.raises(EinPathError):
        PartitionConfig(fm_passes=0)
    for value in (2.5, "2", True, None):
        for name in ("cutoff", "fm_passes", "imbalance", "seed"):
            with pytest.raises(EinPathError):
                PartitionConfig(**{name: value})
    with pytest.raises(EinPathError):
        PartitionConfig(leaf_optimizer="best")
    with pytest.raises(EinPathError):
        PartitionConfig(seed=1.0)
    PartitionConfig(imbalance=0.0, cutoff=2, fm_passes=1, leaf_optimizer="greedy", seed=-3)


def test_partition_determinism():
    net = generate(GenConfig(n_tensors=20, regularity=3.0, extent_min=2, extent_max=4, seed=2))
    config = PartitionConfig(cutoff=6, seed=7)
    first = partition_optimize(net, config)
    second = partition_optimize(net, config)
    assert tree_to_ssa(first[0]) == tree_to_ssa(second[0])
    assert first[1] == second[1]


@settings(max_examples=15, deadline=None)
@given(first=st.integers(40, 90), rest=st.lists(st.integers(2, 20), max_size=3),
       batch=st.lists(st.integers(1, 4), max_size=2), seed=st.integers(0, 10**6))
def test_partition_batched_unions(first, rest, batch, seed):
    # 40-150 tensors in 1-4 components, 0-2 batch indices, extent-1 indices
    net = batched(disjoint_union([
        generate(GenConfig(n_tensors=n, regularity=2.5, n_open=(seed + k) % 3,
                           extent_min=1, extent_max=5, seed=seed + k))
        for k, n in enumerate([first, *rest])
    ]), batch)
    tree, report = partition_optimize(net, PartitionConfig(seed=seed))
    validate_tree(tree, net)
    assert report == cost(tree, net.extents)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 14), seed=st.integers(0, 10**6))
def test_partition_validity_property(n, seed):
    net = generate(GenConfig(
        n_tensors=n, regularity=2.5, n_open=seed % 3,
        extent_min=2, extent_max=5, seed=seed,
    ))
    tree, report = partition_optimize(net, PartitionConfig(cutoff=4, seed=seed))
    validate_tree(tree, net)
    assert report == cost(tree, net.extents)
