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
    f"{engine.__name__}/{metric}/{'outer' if outer else 'sharing'}": _search(engine, metric, outer)
    for engine in (exhaustive_dfs, exhaustive_bfs)
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
    "exhaustive_dfs/flops/sharing": "a92dead62c9ac71b671eac9775592a9b0d02ef649e1d1854d2965204524fc0ae",
    "exhaustive_dfs/flops/outer": "12e364913e49baf31c22a6f10b63994d842050cd28228d9e54032b491acc4dd1",
    "exhaustive_dfs/peak_size/sharing": "2febc2142e7e6cee5880a40c8bab76db625e5c0fe7884ba0baf0faa8fc773da0",
    "exhaustive_dfs/peak_size/outer": "4ae40be9c4e924b4a404d799056784994a2d7bf58a894567024aadc4dc559d4b",
    "exhaustive_bfs/flops/sharing": "c8866ab160aa5841c65b9e77c43c184ae92cb0c5d90afbb20189552cddd86b70",
    "exhaustive_bfs/flops/outer": "070681ab37dff2b82367374a1a56d914c96cfcdc7b7e999a20123159625bea69",
    "exhaustive_bfs/peak_size/sharing": "5e467f2adf11d6a53ce733c34ee858106dababace7a2d5510ef3d24a8b18a03f",
    "exhaustive_bfs/peak_size/outer": "b76662d75260b30130733178196ef93e36837660d678720c2f14a160000584be",
    "greedy": "9fc3cb3aa6129c92c35bdf78de25449deeba4cadb7723e3edc42d2a618f1ce33",
    "sampled_greedy/thermal": "3f8264c9f750d091eb126953cd072999c4a5cc8ee233562c5964657f61fd6f3b",
    "partition/exhaustive_dfs": "bceac2a20a116ad8374bb2dbc80a92ad7b335ee9abdc5c7bdad70c52b19d0abf",
    "partition/greedy": "5d803df5e801541154075a2a43b97bca600c1676d3030c3a6c06b505fe7bd64b",
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
