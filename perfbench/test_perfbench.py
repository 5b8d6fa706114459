"""The benchmark's own tests: the independent coster, span self time, and
every workload end to end at toy sizes (--smoke), in a few seconds."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from coster import ssa_cost
from run import END_TO_END, PER_LAYER
from spans import Tracer
from workloads import SMOKE, WORKLOADS

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"

# "im,ijp,jkn,klp,mno,lo->", every extent 2, contracted in the order worked
# out by hand: (0,4) sums m, (6,5) sums o, (1,2) sums j, (8,3) sums p and k,
# (7,9) sums i, n and l.
WORKED_NETWORK = {
    "tensors": [
        {"id": k, "indices": list(ixs)}
        for k, ixs in enumerate(("im", "ijp", "jkn", "klp", "mno", "lo"))
    ],
    "extents": {ix: 2 for ix in "ijklmnop"},
    "output": [],
}
WORKED_PAIRS = [[0, 4], [6, 5], [1, 2], [8, 3], [7, 9]]


def test_coster_worked_example():
    assert ssa_cost(WORKED_PAIRS, WORKED_NETWORK) == (104, 16, 41)


def test_coster_keeps_output_indices_and_counts_open_root():
    net = {
        "tensors": [{"id": 0, "indices": ["a", "b"]}, {"id": 1, "indices": ["b", "c"]}],
        "extents": {"a": 2, "b": 3, "c": 5},
        "output": ["a", "c"],
    }
    # one contraction over a, b, c; the 2x5 result is the open root
    assert ssa_cost([[0, 1]], net) == (30, 10, 10)


def test_coster_rejects_a_reused_term():
    with pytest.raises(ValueError):
        ssa_cost([[0, 4], [0, 1]], WORKED_NETWORK)


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("solve"):
        tracer.call("core.cost", sum, range(1000))
    (_, s0, e0, p0, _), (_, s1, e1, p1, _) = tracer.spans
    assert (p0, p1) == (None, 0)
    own = tracer.self_seconds()
    assert own["core.cost"] == pytest.approx((e1 - s1) / 1e9)
    assert own["solve"] == pytest.approx((e0 - s0 - (e1 - s1)) / 1e9)


def test_smoke_covers_every_workload():
    assert set(SMOKE) == set(WORKLOADS)


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _run(*args, cwd=None):
    argv = [sys.executable, str(RUN), "--seconds", "0", "--smoke", *args]
    return subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=cwd)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct(workload, trace):
    done = _run("--workload", workload, "--seed", "5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = PER_LAYER if trace == "1" else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def _paths_digest(seed):
    done = _run("--workload", "greedy-large", "--seed", str(seed))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[0][2:])["paths_sha256"]


def test_seed_fixes_the_path_documents():
    assert _paths_digest(1) == _paths_digest(1)
    assert _paths_digest(1) != _paths_digest(2)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "exhaustive"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
