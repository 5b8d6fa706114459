"""Command-line front end: optimize, gen, verify."""

import argparse
import csv
import dataclasses
import io
import sys
import time

from .core import export_dot, ssa_to_tree, tree_to_ssa, verify_path
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


def _config(cls, args, **fields):
    """A cls config from the given flags named as its fields, then `fields`.
    A flag left out is absent from args, so its field keeps the default."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if f.name in args}
    return cls(**{**given, **fields})


def _run_method(network, args):
    """Returns (tree, report, nodes_expanded, the --stats init column)."""
    method = args.method
    if method in ("greedy", "sampled-greedy"):  # both methods name one optimizer
        path, report, pushes = greedy_path(network, _config(GreedyConfig, args))
        return ssa_to_tree(path, network), report, pushes, ""
    if method in ("exhaustive-dfs", "exhaustive-bfs"):
        fields = {"metric": {"flops": "flops", "size": "peak_size"}[args.metric]}
        if "init_bound" in args:
            fields["init_bound"] = _parse_init(args.init_bound)
        cfg = _config(SearchConfig, args, **fields)
        tree, report, stats = exhaustive_dfs(network, cfg)  # both methods name one search
        return tree, report, stats.nodes_expanded, cfg.init_bound
    tree, report = partition_optimize(network, _config(PartitionConfig, args))
    return tree, report, 0, ""


def _cmd_optimize(args):
    network = loads_network(_read(args.input))
    begin = time.perf_counter_ns()
    tree, report, nodes, init = _run_method(network, args)
    wall = time.perf_counter_ns() - begin
    path = tree_to_ssa(tree)
    _write(args.output, dumps_path(path, report, args.method, args.seed))
    if args.dot:
        _write(args.dot, export_dot(tree, network))
    if args.stats:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        writer.writerow((args.method, init, len(network.tensors), args.seed,
                         report.flops, report.peak_size, wall, nodes))
        _write(args.stats, out.getvalue())
    return 0


def _cmd_gen(args):
    _write(args.output, dumps_network(generate(_config(GenConfig, args))))
    return 0


def _cmd_verify(args):
    network = loads_network(_read(args.network))
    path, claimed, _, _ = loads_path(_read(args.path))
    _, actual = verify_path(path, network)  # valid by construction, priced as rebuilt
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

    # a config flag left out is absent from args (argument_default), so its
    # field keeps the dataclass default; dests are the field names
    opt = sub.add_parser("optimize", help="find a contraction path for a network",
                         argument_default=argparse.SUPPRESS)
    opt.add_argument("--input", required=True, help="network JSON ('-' for stdin)")
    opt.add_argument("--method", choices=_METHODS, default="greedy")
    opt.add_argument("--metric", choices=("flops", "size"), default="flops")
    opt.add_argument("--init", dest="init_bound", help="naive, greedy or an integer bound")
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--samples", type=int)
    opt.add_argument("--temperature", type=float)
    opt.add_argument("--cutoff", type=int)
    opt.add_argument("--imbalance", type=float)
    opt.add_argument("--fm-passes", type=int)
    opt.add_argument("--leaf-optimizer")
    opt.add_argument("--outer-products", action="store_true")
    opt.add_argument("--max-nodes", type=int, help="exhaustive search node budget")
    opt.add_argument("--deadline", type=float, help="exhaustive search time budget in seconds")
    opt.add_argument("--output", default="-", help="path JSON destination")
    opt.add_argument("--stats", default=None, help="write a one-row stats CSV here")
    opt.add_argument("--dot", default=None, help="write a Graphviz rendering here")
    opt.set_defaults(run=_cmd_optimize)

    gen = sub.add_parser("gen", help="generate a random network",
                         argument_default=argparse.SUPPRESS)
    gen.add_argument("--tensors", dest="n_tensors", type=int, required=True)
    gen.add_argument("--regularity", type=float)
    gen.add_argument("--open", dest="n_open", type=int)
    gen.add_argument("--extent-min", type=int)
    gen.add_argument("--extent-max", type=int)
    gen.add_argument("--seed", type=int)
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
