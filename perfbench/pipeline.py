"""A user's full path through einpath's public functions, and the checks on it.

solve() is what the benchmark times: load the network, optimize, serialize
the path, then verify it the way `einpath verify` does. The checks run
outside the timed region.
"""

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass

from coster import ssa_cost

# CLI method name: (span name, einpath function, config factory, CLI flags
# that make `einpath optimize` build the same config)
METHODS = {
    "greedy": ("greedy.greedy", "greedy", lambda ep, s: ep.GreedyConfig(seed=s), ()),
    "sampled-greedy": (
        "greedy.sampled_greedy", "sampled_greedy",
        lambda ep, s: ep.GreedyConfig(temperature=0.5, samples=8, seed=s),
        ("--temperature", "0.5", "--samples", "8"),
    ),
    "exhaustive-dfs": ("search.exhaustive_dfs", "exhaustive_dfs", lambda ep, s: ep.SearchConfig(), ()),
    "exhaustive-bfs": ("search.exhaustive_bfs", "exhaustive_bfs", lambda ep, s: ep.SearchConfig(), ()),
    "partition": (
        "partition.partition_optimize", "partition_optimize",
        lambda ep, s: ep.PartitionConfig(seed=s), (),
    ),
}


@dataclass
class Outcome:
    doc: str  # the path document, as `einpath optimize` would write it
    flops: int
    peak: int
    stats: object  # SearchStats for the exhaustive methods, else None
    verified: bool


def solve(ep, tracer, job, text):
    """loads_network -> optimizer -> tree_to_ssa -> dumps_path, then verify."""
    span, name, make_config, _ = METHODS[job.method]
    net = tracer.call("formats.loads_network", ep.loads_network, text)
    tree, report, *stats = tracer.call(span, getattr(ep, name), net, make_config(ep, job.seed))
    path = tracer.call("core.tree_to_ssa", ep.tree_to_ssa, tree)
    doc = tracer.call("formats.dumps_path", ep.dumps_path, path, report, job.method, job.seed)
    with tracer.span("verify"):
        loaded, claimed, _, _ = tracer.call("formats.loads_path", ep.loads_path, doc)
        rebuilt = tracer.call("core.ssa_to_tree", ep.ssa_to_tree, loaded, net)
        tracer.call("core.validate_tree", ep.validate_tree, rebuilt, net)
        actual = tracer.call("core.cost", ep.cost, rebuilt, net.extents)
    return Outcome(doc, report.flops, report.peak_size, stats[0] if stats else None, actual == claimed)


def cost_matches(doc, text):
    """Whether the path document's claimed costs equal the independent coster's."""
    path = json.loads(doc)
    claimed = tuple(int(path["cost"][k]) for k in ("flops", "peak_size", "write_volume"))
    return ssa_cost(path["ssa_path"], json.loads(text)) == claimed


def exhaustive_agree(ep, text, dfs, bfs):
    """DFS and BFS find the same optimum, no worse than greedy's tree.

    Returns (ok, log10 of greedy's flops over the optimum).
    """
    _, greedy_report = ep.greedy(ep.loads_network(text))
    ok = dfs.flops == bfs.flops <= greedy_report.flops
    return ok, math.log10(greedy_report.flops / dfs.flops)


def cli_matches(ep_cli, job, text, doc, workdir):
    """`einpath optimize` writes the same bytes as the library path, and
    `einpath verify` accepts them."""
    os.makedirs(workdir)
    try:
        net_file = os.path.join(workdir, "network.json")
        path_file = os.path.join(workdir, "path.json")
        with open(net_file, "w", encoding="utf-8") as fh:
            fh.write(text)
        flags = METHODS[job.method][3]
        with contextlib.redirect_stdout(io.StringIO()):
            optimized = ep_cli.cli_main([
                "optimize", "--input", net_file, "--method", job.method,
                "--seed", str(job.seed), *flags, "--output", path_file,
            ])
            with open(path_file, encoding="utf-8") as fh:
                same = fh.read() == doc
            verified = ep_cli.cli_main(["verify", "--network", net_file, "--path", path_file])
        return optimized == 0 and same and verified == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
