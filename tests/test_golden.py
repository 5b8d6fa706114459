"""Golden path digests: every optimizer's path documents over a fixed corpus,
hashed into one sha256 per optimizer setting.

A change that is meant to keep every tree must leave these constants as they
are. A change that alters a tree on purpose updates the constant it moves and
says so in CHANGES.md. Print the current digests with

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.show()"
"""

import hashlib

import pytest

from conftest import disjoint_union
from einpath import (
    GenConfig,
    GreedyConfig,
    PartitionConfig,
    SearchConfig,
    dumps_path,
    exhaustive_bfs,
    exhaustive_dfs,
    generate,
    greedy,
    partition_optimize,
    sampled_greedy,
    tree_to_ssa,
)


def _net(n, seed, n_open=0, extent_min=1):
    return generate(GenConfig(
        n_tensors=n, regularity=2.5 if n > 1 else 0.0, n_open=n_open,
        extent_min=extent_min, extent_max=5, seed=seed,
    ))


def _corpus():
    """Generated networks of 6-12 tensors with open legs and extent-1
    indices, disjoint unions holding one-tensor components, and one lone
    tensor."""
    nets = [
        _net(n, 100 * seed + n, n_open=1 + (n + seed) % 3, extent_min=1 + (n + seed) % 2)
        for n in range(6, 13) for seed in (1, 2)
    ]
    nets.append(disjoint_union([_net(3, 1, 1), _net(1, 2, 2), _net(4, 3, 0)]))
    nets.append(disjoint_union([_net(1, 4, 1), _net(5, 5, 2), _net(1, 6, 0), _net(2, 7, 1)]))
    nets.append(disjoint_union([_net(1, 8, 2), _net(1, 9, 1), _net(1, 10, 0)]))
    nets.append(disjoint_union([_net(6, 11, 1), _net(2, 12, 0)]))
    nets.append(_net(1, 13, 2))
    return nets


def _search(engine, metric, outer):
    config = SearchConfig(metric=metric, outer_products=outer)
    return lambda net: engine(net, config)[:2]


def _plain(optimizer, config):
    return lambda net: optimizer(net, config)


_OPTIMIZERS = {
    f"{name}/{metric}/{'outer' if outer else 'sharing'}": _search(engine, metric, outer)
    # keyed by the name called: exhaustive_dfs is exhaustive_bfs under another name
    for name, engine in (("exhaustive_dfs", exhaustive_dfs), ("exhaustive_bfs", exhaustive_bfs))
    for metric in ("flops", "peak_size")
    for outer in (False, True)
}
_OPTIMIZERS.update({
    "greedy": _plain(greedy, GreedyConfig()),
    "sampled_greedy/thermal": _plain(
        sampled_greedy, GreedyConfig(temperature=0.5, samples=4, seed=3)
    ),
    "partition/exhaustive_dfs": _plain(
        partition_optimize, PartitionConfig(cutoff=3, leaf_optimizer="exhaustive_dfs", seed=2)
    ),
    "partition/greedy": _plain(
        partition_optimize, PartitionConfig(cutoff=3, leaf_optimizer="greedy", seed=2)
    ),
})

GOLDEN = {
    "exhaustive_dfs/flops/sharing": "a8dcf9088bfa7f5fa685445c51550309208ef96415c67c5473a8c0ef82b80c22",
    "exhaustive_dfs/flops/outer": "cb6e8313bae94312cf9f1bfd27d8cb0cea7cba7d96a8c802e4b5f83b4a369b93",
    "exhaustive_dfs/peak_size/sharing": "94ec07e60a9dfd63abfd00cff30956ae4e9a42d1464f1f7660f1afb3f9f76d5d",
    "exhaustive_dfs/peak_size/outer": "6fca7b82ce9aafd6c196d943f44179111ed5d67df7683912b2cd2e5e464722b5",
    "exhaustive_bfs/flops/sharing": "c8866ab160aa5841c65b9e77c43c184ae92cb0c5d90afbb20189552cddd86b70",
    "exhaustive_bfs/flops/outer": "070681ab37dff2b82367374a1a56d914c96cfcdc7b7e999a20123159625bea69",
    "exhaustive_bfs/peak_size/sharing": "0668f03a1fb1c325b8f61dbd7ac243dc9be6642d9fb03738db160f9145ed4395",
    "exhaustive_bfs/peak_size/outer": "d10714e6d08058ca4b711da81d446b61d1cb060cf10d7b8cf1d5f73b42761e09",
    "greedy": "9fc3cb3aa6129c92c35bdf78de25449deeba4cadb7723e3edc42d2a618f1ce33",
    "sampled_greedy/thermal": "d9a54ab27fa7972b56cee130bcc061b2058dc0bec7b911b99a8af37a22feddcb",
    "partition/exhaustive_dfs": "b14388a2c1b866fcdf108004918f0435dd237fa9b3851a7c46a21fc20827b16d",
    "partition/greedy": "628b17aa82d9e81a7964c42b46d958894f98850f488033a1efac05242b942e6c",
}


def _digest(name):
    run = _OPTIMIZERS[name]
    h = hashlib.sha256()
    for k, net in enumerate(_corpus()):
        tree, report = run(net)
        h.update(dumps_path(tree_to_ssa(tree), report, name, k).encode())
    return h.hexdigest()


def show():
    for name in _OPTIMIZERS:
        print(f'    "{name}": "{_digest(name)}",')


@pytest.mark.parametrize("name", sorted(_OPTIMIZERS))
def test_golden_path_digest(name):
    assert _digest(name) == GOLDEN[name]


@pytest.mark.parametrize("metric", ["flops", "peak_size"])
@pytest.mark.parametrize("outer", [False, True])
def test_both_search_names_agree(metric, outer):
    # exhaustive_dfs and exhaustive_bfs name one engine: same path, same cost
    dfs = _search(exhaustive_dfs, metric, outer)
    bfs = _search(exhaustive_bfs, metric, outer)
    for net in _corpus():
        (tree, report), (tree2, report2) = dfs(net), bfs(net)
        assert (tree_to_ssa(tree), report) == (tree_to_ssa(tree2), report2)
