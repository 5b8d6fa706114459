"""Command-line front end: optimize, gen, verify."""

import argparse
import csv
import io
import sys
import time

from .core import cost, export_dot, ssa_to_tree, tree_to_ssa
from .errors import BudgetError, EinPathError, GenerationError
from .formats import dumps_network, dumps_path, loads_network, loads_path
from .generate import GenConfig, generate
from .greedy import GreedyConfig, greedy_path
from .partition import PartitionConfig, partition_optimize
from .search import SearchConfig, exhaustive_dfs

__all__ = ["cli_main", "main"]

_METHODS = (
    "greedy",
    "sampled-greedy",
    "exhaustive-dfs",
    "exhaustive-bfs",
    "partition",
)

_CSV_COLUMNS = (
    "method",
    "init",
    "n_tensors",
    "seed",
    "flops",
    "peak_size",
    "wall_ns",
    "nodes_expanded",
)


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    if path == "-" or path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _parse_init(text):
    if text in ("naive", "greedy"):
        return text
    try:
        return int(text)
    except ValueError:
        raise EinPathError(f"--init takes naive, greedy or an integer, got '{text}'")


def _run_method(network, args):
    """Returns (tree, report, nodes_expanded)."""
    method = args.method
    metric = {"flops": "flops", "size": "peak_size"}[args.metric]
    if method in ("greedy", "sampled-greedy"):  # both methods name one optimizer
        cfg = GreedyConfig(
            temperature=args.temperature, samples=args.samples, seed=args.seed
        )
        path, report, pushes = greedy_path(network, cfg)
        return ssa_to_tree(path, network), report, pushes
    if method in ("exhaustive-dfs", "exhaustive-bfs"):
        cfg = SearchConfig(
            metric=metric,
            init_bound=_parse_init(args.init),
            outer_products=args.outer_products,
            max_nodes=args.max_nodes,
            deadline=args.deadline,
        )
        tree, report, stats = exhaustive_dfs(network, cfg)  # both methods name one search
        return tree, report, stats.nodes_expanded
    cfg = PartitionConfig(
        imbalance=args.imbalance,
        cutoff=args.cutoff,
        fm_passes=args.fm_passes,
        leaf_optimizer=args.leaf_optimizer,
        seed=args.seed,
    )
    tree, report = partition_optimize(network, cfg)
    return tree, report, 0


def _cmd_optimize(args):
    network = loads_network(_read(args.input))
    begin = time.perf_counter_ns()
    tree, report, nodes = _run_method(network, args)
    wall = time.perf_counter_ns() - begin
    path = tree_to_ssa(tree)
    _write(args.output, dumps_path(path, report, args.method, args.seed))
    if args.dot:
        _write(args.dot, export_dot(tree, network))
    if args.stats:
        init = args.init if args.method in ("exhaustive-dfs", "exhaustive-bfs") else ""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        writer.writerow((args.method, init, len(network.tensors), args.seed,
                         report.flops, report.peak_size, wall, nodes))
        _write(args.stats, out.getvalue())
    return 0


def _cmd_gen(args):
    config = GenConfig(
        n_tensors=args.tensors,
        regularity=args.regularity,
        n_open=args.open,
        extent_min=args.extent_min,
        extent_max=args.extent_max,
        seed=args.seed,
        max_indices=args.max_indices,
    )
    _write(args.output, dumps_network(generate(config)))
    return 0


def _cmd_verify(args):
    network = loads_network(_read(args.network))
    path, claimed, _, _ = loads_path(_read(args.path))
    tree = ssa_to_tree(path, network)  # valid by construction
    actual = cost(tree, network.extents)
    if actual != claimed:
        sys.stderr.write(
            "cost mismatch: document says "
            f"flops={claimed.flops} peak_size={claimed.peak_size} "
            f"write_volume={claimed.write_volume}, path costs "
            f"flops={actual.flops} peak_size={actual.peak_size} "
            f"write_volume={actual.write_volume}\n"
        )
        return 1
    sys.stdout.write(
        f"ok: flops={actual.flops} peak_size={actual.peak_size} "
        f"write_volume={actual.write_volume}\n"
    )
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="einpath", description="Contraction-path tools for tensor networks."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    opt = sub.add_parser("optimize", help="find a contraction path for a network")
    opt.add_argument("--input", required=True, help="network JSON ('-' for stdin)")
    opt.add_argument("--method", choices=_METHODS, default="greedy")
    opt.add_argument("--metric", choices=("flops", "size"), default="flops")
    opt.add_argument("--init", default="greedy", help="naive, greedy or an integer bound")
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--samples", type=int, default=1)
    opt.add_argument("--temperature", type=float, default=0.0)
    opt.add_argument("--cutoff", type=int, default=8)
    opt.add_argument("--imbalance", type=float, default=0.2)
    opt.add_argument("--fm-passes", type=int, default=10)
    opt.add_argument(
        "--leaf-optimizer", choices=("exhaustive_dfs", "greedy"), default="exhaustive_dfs"
    )
    opt.add_argument("--outer-products", action="store_true")
    opt.add_argument("--max-nodes", type=int, help="exhaustive search node budget")
    opt.add_argument("--deadline", type=float, help="exhaustive search time budget in seconds")
    opt.add_argument("--output", default="-", help="path JSON destination")
    opt.add_argument("--stats", help="write a one-row stats CSV here")
    opt.add_argument("--dot", help="write a Graphviz rendering here")
    opt.set_defaults(run=_cmd_optimize)

    gen = sub.add_parser("gen", help="generate a random network")
    gen.add_argument("--tensors", type=int, required=True)
    gen.add_argument("--regularity", type=float, default=3.0)
    gen.add_argument("--open", type=int, default=0)
    gen.add_argument("--extent-min", type=int, default=2)
    gen.add_argument("--extent-max", type=int, default=2)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--max-indices", type=int)
    gen.add_argument("--output", default="-")
    gen.set_defaults(run=_cmd_gen)

    ver = sub.add_parser("verify", help="recompute and check a path document")
    ver.add_argument("--network", required=True)
    ver.add_argument("--path", required=True)
    ver.set_defaults(run=_cmd_verify)

    return parser


def cli_main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except BudgetError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 3
    except GenerationError as exc:
        sys.stderr.write(f"generation failed: {exc}\n")
        return 3
    except FileNotFoundError as exc:
        sys.stderr.write(f"{exc.filename}: no such file\n")
        return 2
    except EinPathError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
