"""einpath benchmark: end-to-end solve time and tree quality, per workload.

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

A run sets up (import einpath, generate the workload's networks from the
seed, write them as JSON) several times and reports the median, then takes
every network through the public pipeline in rounds until --seconds are
used, then checks every result outside the timed region. The last line of
output is one JSON object: correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones, from rounds that alternate tracing off and on.
--workload all runs each workload in its own process, untraced and traced,
and prints every metric of every workload. See README.md.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import pipeline
from spans import NoTrace, Tracer
from workloads import BFS, DFS, WORKLOADS, build_network, plan

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "log10_flops.sum": "log10_flops",
    "log10_peak.sum": "log10_entries",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# span name -> per-layer metric
LAYER_SPANS = {
    "formats.loads_network": "formats.loads_network_s",
    "formats.dumps_path": "formats.dumps_path_s",
    "formats.loads_path": "formats.loads_path_s",
    "core.tree_to_ssa": "core.tree_to_ssa_s",
    "core.ssa_to_tree": "core.ssa_to_tree_s",
    "core.validate_tree": "core.validate_tree_s",
    "core.cost": "core.cost_s",
    "greedy.greedy": "greedy.greedy_s",
    "greedy.sampled_greedy": "greedy.sampled_greedy_s",
    "search.exhaustive_dfs": "search.exhaustive_dfs_s",
    "search.exhaustive_bfs": "search.exhaustive_bfs_s",
    "partition.partition_optimize": "partition.partition_optimize_s",
}

PER_LAYER = {
    **{metric: "s" for metric in LAYER_SPANS.values()},
    "partition.top_bisect_s": "s",
    "greedy.log10_excess_vs_opt": "log10",
    "search.nodes_expanded": "count",
    "search.prunes": "count",
    "search.useful_frac": "ratio",
    "search.nodes_per_s": "1/s",
    "partition.top_cut_weight": "log2",
    "partition.log10_excess_vs_greedy": "log10",
    "generate.generate_s": "s",
    "trace.overhead_frac": "ratio",
}


def import_einpath():
    """Import einpath afresh from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "einpath" or m.startswith("einpath.")]:
        del sys.modules[name]
    ep = importlib.import_module("einpath")
    if not Path(ep.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"einpath came from {ep.__file__}, not from {SRC}")
    return ep


@dataclass
class Setup:
    seconds: float
    generate_seconds: float
    ep: object
    texts: list


def set_up(specs):
    """Import einpath, generate the networks and write them as JSON text."""
    begin = time.perf_counter()
    ep = import_einpath()
    generating = 0.0
    texts = []
    for spec in specs:
        start = time.perf_counter()
        net = build_network(ep, *spec)
        generating += time.perf_counter() - start
        texts.append(ep.dumps_network(net))
    return Setup(time.perf_counter() - begin, generating, ep, texts)


@dataclass
class Round:
    walls: list  # per solve
    cpus: list  # per solve
    outcomes: list  # pipeline.Outcome, or None where the solve raised
    layers: dict  # self seconds per span name; empty when not traced


def run_round(ep, texts, solves, tracer, number):
    gc.collect()
    first = len(tracer.spans)
    outcomes = []
    walls = []
    cpus = []
    for k, job in enumerate(solves):
        tracer.solve = number * len(solves) + k
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            with tracer.span("solve"):
                outcomes.append(pipeline.solve(ep, tracer, job, texts[job.network]))
        except Exception:
            traceback.print_exc()
            outcomes.append(None)
        walls.append(time.perf_counter() - start)
        cpus.append(time.process_time() - cpu)
    return Round(walls, cpus, outcomes, tracer.self_seconds(first))


def measure(ep, texts, solves, seconds, tracer):
    """Rounds until the next one would overrun `seconds`. With a tracer,
    rounds alternate untraced and traced, and there are at least two."""
    rounds = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        rounds.append(run_round(ep, texts, solves, tracer if traced else NoTrace(), len(rounds)))
        enough = len(rounds) >= (2 if tracer is not None else 1)
        typical = statistics.median(sum(r.walls) for r in rounds)
        if enough and time.perf_counter() - begin + typical > seconds:
            return rounds


def per_solve_medians(rounds, field):
    """Each solve's median over rounds; the machine's speed drifts in bursts
    of seconds, and a per-solve median drops the solves a burst hit."""
    return [statistics.median(times) for times in zip(*(getattr(r, field) for r in rounds))]


def checks(ep, texts, solves, rounds):
    """(failed (round, solve) pairs, greedy excess over the optimum per network).

    A solve fails when it raised, when verify disagreed with its claimed
    cost, when a later round wrote a different path document, when the
    independent coster disagrees, when DFS and BFS disagree or lose to
    greedy, or, for the first solve, when the CLI writes other bytes.
    """
    failed = set()
    first = rounds[0].outcomes
    for r, rnd in enumerate(rounds):
        for k, out in enumerate(rnd.outcomes):
            if out is None or not out.verified or first[k] is None or out.doc != first[k].doc:
                failed.add((r, k))

    def guard(k, check, *args):
        try:
            return check(*args)
        except Exception:
            traceback.print_exc()
            failed.add((0, k))
            return None

    for k, job in enumerate(solves):
        if first[k] is not None and not guard(k, pipeline.cost_matches, first[k].doc, texts[job.network]):
            failed.add((0, k))
    by_network = {}
    for k, job in enumerate(solves):
        by_network.setdefault(job.network, {})[job.method] = k
    excess = []
    for network, ks in by_network.items():
        if DFS in ks and BFS in ks and first[ks[DFS]] is not None and first[ks[BFS]] is not None:
            agreed = guard(ks[DFS], pipeline.exhaustive_agree, ep, texts[network], first[ks[DFS]], first[ks[BFS]])
            if agreed is None or not agreed[0]:
                failed.update({(0, ks[DFS]), (0, ks[BFS])})
            else:
                excess.append(agreed[1])
    if first[0] is not None:
        cli = importlib.import_module("einpath.cli")
        workdir = OUT / f"cli-{os.getpid()}"
        if not guard(0, pipeline.cli_matches, cli, solves[0], texts[solves[0].network], first[0].doc, workdir):
            failed.add((0, 0))
    return failed, excess


def partition_layers(ep, texts, solves, outcomes, tracer):
    """Top-level bisection time and cut weight, and partition vs greedy flops."""
    cut = 0.0
    excess = []
    tracer.solve = None
    for job, out in zip(solves, outcomes):
        if job.method != "partition" or out is None:
            continue
        net = ep.loads_network(texts[job.network])
        config = ep.PartitionConfig(seed=job.seed)
        _, _, weight = tracer.call(
            "partition.top_bisect", lambda: ep.bisect(ep.build_hypergraph(net), config)
        )
        cut += weight
        _, greedy_report = ep.greedy(net)
        excess.append(math.log10(out.flops / greedy_report.flops))
    return cut, excess


def run_workload(workload, seed, seconds, trace, smoke):
    specs, solves = plan(workload, seed, smoke)
    setups = [set_up(specs) for _ in range(SETUP_REPEATS)]
    ep, texts = setups[-1].ep, setups[-1].texts
    tracer = Tracer() if trace else None
    rounds = measure(ep, texts, solves, seconds, tracer)
    failed, excess = checks(ep, texts, solves, rounds)
    first = [o for o in rounds[0].outcomes if o is not None]
    attempted = len(rounds) * len(solves)
    digest = hashlib.sha256("".join(o.doc if o else "FAILED\n" for o in rounds[0].outcomes).encode())
    untraced = rounds[0::2] if trace else rounds
    walls = per_solve_medians(untraced, "walls")
    print("# " + json.dumps({
        "workload": workload, "seed": seed, "trace": int(trace), "rounds": len(rounds),
        "round_walls": [round(sum(r.walls), 4) for r in rounds],
        "solve_s.p50": statistics.median(walls), "solve_samples": len(untraced) * len(solves),
        "failed_frac": len(failed) / attempted, "failed_of": attempted,
        "paths_sha256": digest.hexdigest(),
    }))
    if trace:
        values = layer_metrics(ep, texts, solves, rounds, tracer, setups, excess)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}-{seed}.jsonl")
        units = PER_LAYER
    else:
        values = {
            "wall_s": math.fsum(walls),
            "cpu_s": math.fsum(per_solve_medians(rounds, "cpus")),
            "log10_flops.sum": math.fsum(math.log10(o.flops) for o in first),
            "log10_peak.sum": math.fsum(math.log10(o.peak) for o in first),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(s.seconds for s in setups),
        }
        units = END_TO_END
    for name, value in values.items():
        print(f"# {name:34s} {value:>16.6f} {units[name]}")
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def layer_metrics(ep, texts, solves, rounds, tracer, setups, excess):
    traced = rounds[1::2]
    untraced = rounds[0::2]
    cut, partition_excess = partition_layers(ep, texts, solves, rounds[0].outcomes, tracer)
    values = {
        metric: statistics.median(r.layers.get(span, 0.0) for r in traced)
        for span, metric in LAYER_SPANS.items()
    }
    top = [s for s in tracer.spans if s[0] == "partition.top_bisect"]
    values["partition.top_bisect_s"] = sum(end - start for _, start, end, _, _ in top) / 1e9
    stats = [o.stats for o in rounds[0].outcomes if o is not None and o.stats is not None]
    nodes = sum(s.nodes_expanded for s in stats)
    prunes = sum(s.prunes for s in stats)
    search_s = values["search.exhaustive_dfs_s"] + values["search.exhaustive_bfs_s"]
    values.update({
        "greedy.log10_excess_vs_opt": statistics.median(excess) if excess else 0.0,
        "search.nodes_expanded": nodes,
        "search.prunes": prunes,
        "search.useful_frac": (nodes - prunes) / nodes if nodes else 0.0,
        "search.nodes_per_s": nodes / search_s if search_s else 0.0,
        "partition.top_cut_weight": cut,
        "partition.log10_excess_vs_greedy": (
            statistics.median(partition_excess) if partition_excess else 0.0
        ),
        "generate.generate_s": statistics.median(s.generate_seconds for s in setups),
        "trace.overhead_frac": (
            math.fsum(per_solve_medians(traced, "walls"))
            / math.fsum(per_solve_medians(untraced, "walls")) - 1
        ),
    })
    return values


def run_all(seed, seconds, smoke):
    """Every workload in its own process, untraced then traced."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            if smoke:
                argv.append("--smoke")
            done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                raise SystemExit(f"{workload} (trace {trace}) exited with {done.returncode}")
            lines = done.stdout.splitlines()
            print(f"## {workload} trace {trace}")
            print("\n".join(lines[:-1]))
            results[workload, trace] = json.loads(lines[-1])
    metrics = {
        f"{workload}.{name}": value
        for (workload, _), result in results.items()
        for name, value in result["metrics"].items()
    }
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the benchmark's tests")
    args = parser.parse_args(argv)
    try:
        import_einpath()
    except ImportError as exc:
        sys.stderr.write(f"cannot import einpath from {SRC}: {exc}\n")
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.smoke)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
