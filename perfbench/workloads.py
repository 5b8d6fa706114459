"""The benchmark's workloads: which networks, which optimizers, and why.

Every network is generated from the workload seed, so one seed always
gives the same inputs. Extents are 2-5 and regularity is 3.0 throughout.
README.md records why each workload was chosen and what its networks cost
at the commit that introduced the benchmark.
"""

import hashlib
from dataclasses import dataclass

DFS = "exhaustive-dfs"
BFS = "exhaustive-bfs"


@dataclass(frozen=True)
class Group:
    """`count` networks of `n` tensors, each solved by every method."""

    n: int
    count: int
    methods: tuple
    open_legs: bool = False  # n_open = network seed % 4, as in criterion 3
    batch: bool = False  # one extra output index `batch` (extent 4) on every tensor


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    groups: tuple


@dataclass(frozen=True)
class Solve:
    """One optimizer call on one network; `seed` also goes into the path document."""

    method: str
    seed: int
    network: int  # position of its network in the workload's network list


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exhaustive",
            "search does over 95% of the work: DFS on 60 networks of 14 tensors, BFS on a quarter of them",
            (
                Group(14, 15, (DFS, BFS), open_legs=True),
                Group(14, 45, (DFS,), open_legs=True),
            ),
        ),
        Workload(
            "greedy-large",
            "search is never called; greedy about 70%, core and formats about 30%",
            (
                Group(1024, 2, ("greedy",)),
                Group(4096, 1, ("greedy",)),
                Group(1024, 1, ("sampled-greedy",)),
            ),
        ),
        Workload(
            "partition-mid",
            "the only workload that bisects; its leaf DFS calls are many and tiny",
            (
                Group(256, 3, ("partition",)),
                Group(1024, 1, ("partition",)),
            ),
        ),
        Workload(
            "batch-hyperedge",
            "a batch index on every tensor: greedy goes quadratic, every DFS subset connects",
            (
                Group(250, 4, ("greedy",), batch=True),
                Group(500, 1, ("greedy",), batch=True),
                Group(12, 2, (DFS,), batch=True),
                Group(14, 1, (DFS,), batch=True),
            ),
        ),
    )
}

# Same workloads at toy sizes, so the benchmark's own tests finish in seconds.
SMOKE = {
    "exhaustive": (Group(7, 2, (DFS, BFS), open_legs=True), Group(8, 1, (DFS, BFS), open_legs=True)),
    "greedy-large": (Group(48, 1, ("greedy",)), Group(32, 1, ("sampled-greedy",))),
    "partition-mid": (Group(24, 1, ("partition",)),),
    "batch-hyperedge": (Group(16, 1, ("greedy",), batch=True), Group(6, 1, (DFS,), batch=True)),
}


def base_seed(workload, seed):
    """First network seed of a run: stable across platforms and Python versions."""
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def plan(workload, seed, smoke=False):
    """(network specs, solves) of one run.

    A network spec is (n, network seed, n_open, batch). Network seeds are
    consecutive from base_seed, so n_open = seed % 4 cycles evenly through
    0..3 within a group.
    """
    groups = SMOKE[workload] if smoke else WORKLOADS[workload].groups
    net_seed = base_seed(workload, seed)
    specs = []
    solves = []
    for group in groups:
        for _ in range(group.count):
            n_open = net_seed % 4 if group.open_legs else 0
            specs.append((group.n, net_seed, n_open, group.batch))
            for method in group.methods:
                solves.append(Solve(method, net_seed, len(specs) - 1))
            net_seed += 1
    return specs, solves


def build_network(ep, n, net_seed, n_open, batch):
    """Generate one network with the einpath module `ep`."""
    net = ep.generate(
        ep.GenConfig(
            n_tensors=n, regularity=3.0, n_open=n_open,
            extent_min=2, extent_max=5, seed=net_seed,
        )
    )
    if not batch:
        return net
    tensors = tuple(ep.TensorSig(t.id, t.indices + ("batch",)) for t in net.tensors)
    return ep.TensorNetwork(tensors, {**net.extents, "batch": 4}, net.output + ("batch",))
