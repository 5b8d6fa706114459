import csv
import json

import pytest

from einpath import cost, loads_network, loads_path, ssa_to_tree
from einpath.cli import cli_main


@pytest.fixture
def net_file(tmp_path):
    target = tmp_path / "net.json"
    assert cli_main(["gen", "--tensors", "9", "--regularity", "3.0", "--open", "2",
                     "--extent-max", "4", "--seed", "5", "--output", str(target)]) == 0
    return target


@pytest.mark.parametrize("method", [
    "greedy", "sampled-greedy", "exhaustive-dfs", "exhaustive-bfs", "partition",
])
def test_optimize_then_verify(method, net_file, tmp_path, capsys):
    out = tmp_path / "path.json"
    argv = ["optimize", "--input", str(net_file), "--method", method,
            "--output", str(out)]
    if method == "sampled-greedy":
        argv += ["--samples", "4", "--temperature", "0.5"]
    assert cli_main(argv) == 0
    capsys.readouterr()
    assert cli_main(["verify", "--network", str(net_file), "--path", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("ok: flops=")
    assert "peak_size=" in captured.out and "write_volume=" in captured.out


def test_optimize_stdout_document(net_file, capsys):
    assert cli_main(["optimize", "--input", str(net_file), "--method", "greedy"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["optimizer"] == "greedy"
    assert doc["seed"] == 0
    net = loads_network(net_file.read_text())
    path, report, _, _ = loads_path(json.dumps(doc))
    assert cost(ssa_to_tree(path, net), net.extents) == report


def test_verify_rejects_tampered_cost(net_file, tmp_path, capsys):
    out = tmp_path / "path.json"
    assert cli_main(["optimize", "--input", str(net_file), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["cost"]["flops"] = str(int(doc["cost"]["flops"]) + 1)
    out.write_text(json.dumps(doc))
    assert cli_main(["verify", "--network", str(net_file), "--path", str(out)]) == 1
    assert "cost mismatch" in capsys.readouterr().err


def test_verify_rejects_tampered_path(net_file, tmp_path, capsys):
    out = tmp_path / "path.json"
    assert cli_main(["optimize", "--input", str(net_file), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["ssa_path"][0] = [0, 0]
    out.write_text(json.dumps(doc))
    assert cli_main(["verify", "--network", str(net_file), "--path", str(out)]) == 2
    assert capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert cli_main(["optimize", "--input", str(tmp_path / "nope.json")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_malformed_network_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"tensors": [')
    assert cli_main(["optimize", "--input", str(bad)]) == 2
    assert capsys.readouterr().err


def test_budget_exit_code(tmp_path, capsys):
    big = tmp_path / "big.json"
    assert cli_main(["gen", "--tensors", "65", "--regularity", "2.0",
                     "--seed", "1", "--output", str(big)]) == 0
    assert cli_main(["optimize", "--input", str(big), "--method", "exhaustive-bfs",
                     "--output", str(tmp_path / "p.json")]) == 3
    assert "budget exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["exhaustive-dfs", "exhaustive-bfs"])
@pytest.mark.parametrize("limit", [["--max-nodes", "1"], ["--deadline", "1e-9"]])
def test_search_limit_exit_code(method, limit, net_file, tmp_path, capsys):
    out = tmp_path / "p.json"
    argv = ["optimize", "--input", str(net_file), "--method", method, "--output", str(out)]
    assert cli_main(argv + limit) == 3
    assert "budget exceeded" in capsys.readouterr().err
    assert not out.exists()
    # limits the search stays within change nothing
    assert cli_main(argv + ["--max-nodes", "1000000", "--deadline", "3600"]) == 0
    with_limits = out.read_text()
    assert cli_main(argv) == 0
    assert out.read_text() == with_limits


def test_generation_error_exit_code(capsys):
    assert cli_main(["gen", "--tensors", "10", "--max-indices", "3"]) == 3
    assert "generation failed" in capsys.readouterr().err


def test_bad_init_exit_code(net_file, capsys):
    assert cli_main(["optimize", "--input", str(net_file), "--method", "exhaustive-dfs",
                     "--init", "best"]) == 2
    assert "--init takes" in capsys.readouterr().err


def test_integer_init(net_file, capsys):
    assert cli_main(["optimize", "--input", str(net_file), "--method", "exhaustive-dfs",
                     "--init", "100000000"]) == 0
    assert json.loads(capsys.readouterr().out)["optimizer"] == "exhaustive-dfs"


def test_metric_size(net_file, tmp_path, capsys):
    flops_out = tmp_path / "flops.json"
    size_out = tmp_path / "size.json"
    assert cli_main(["optimize", "--input", str(net_file), "--method", "exhaustive-dfs",
                     "--output", str(flops_out)]) == 0
    assert cli_main(["optimize", "--input", str(net_file), "--method", "exhaustive-dfs",
                     "--metric", "size", "--output", str(size_out)]) == 0
    _, by_flops, _, _ = loads_path(flops_out.read_text())
    _, by_size, _, _ = loads_path(size_out.read_text())
    assert by_size.peak_size <= by_flops.peak_size
    assert by_flops.flops <= by_size.flops


def test_stdin_input(net_file, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(net_file.read_text()))
    assert cli_main(["optimize", "--input", "-", "--method", "greedy"]) == 0
    assert json.loads(capsys.readouterr().out)["optimizer"] == "greedy"


def test_stats_csv(net_file, tmp_path):
    stats = tmp_path / "stats.csv"
    assert cli_main(["optimize", "--input", str(net_file), "--method", "exhaustive-dfs",
                     "--init", "naive", "--output", str(tmp_path / "p.json"),
                     "--stats", str(stats)]) == 0
    rows = list(csv.reader(stats.read_text().splitlines()))
    assert rows[0] == ["method", "init", "n_tensors", "seed", "flops",
                       "peak_size", "wall_ns", "nodes_expanded"]
    assert len(rows) == 2
    method, init, n_tensors, seed, flops, peak, wall, nodes = rows[1]
    assert (method, init, n_tensors, seed) == ("exhaustive-dfs", "naive", "9", "0")
    assert int(flops) > 0 and int(peak) > 0 and int(wall) > 0 and int(nodes) > 0


def test_stats_init_blank_for_greedy(net_file, tmp_path):
    stats = tmp_path / "stats.csv"
    assert cli_main(["optimize", "--input", str(net_file), "--method", "greedy",
                     "--output", str(tmp_path / "p.json"), "--stats", str(stats)]) == 0
    rows = list(csv.reader(stats.read_text().splitlines()))
    assert rows[1][0] == "greedy"
    assert rows[1][1] == ""


def test_dot_output(net_file, tmp_path):
    dot = tmp_path / "tree.dot"
    assert cli_main(["optimize", "--input", str(net_file), "--output",
                     str(tmp_path / "p.json"), "--dot", str(dot)]) == 0
    text = dot.read_text()
    assert text.startswith("digraph contraction {")
    assert text.rstrip().endswith("}")


def test_bench_greedy(tmp_path):
    out = tmp_path / "bench.csv"
    assert cli_main(["bench", "--suite", "greedy", "--sizes", "8,6",
                     "--seeds", "2", "--output", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert len(rows) == 5
    # sorted by size then seed, regardless of the order given in --sizes
    assert [(r[2], r[3]) for r in rows[1:]] == [
        ("6", "0"), ("6", "1"), ("8", "0"), ("8", "1"),
    ]
    assert all(r[0] == "greedy" and r[1] == "" for r in rows[1:])


def test_bench_exhaustive(tmp_path):
    out = tmp_path / "bench.csv"
    assert cli_main(["bench", "--suite", "exhaustive", "--sizes", "6",
                     "--seeds", "2", "--output", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert len(rows) == 5
    assert {r[1] for r in rows[1:]} == {"naive", "greedy"}
    # the bound only prunes; both inits land on the same optimum
    by_seed = {}
    for r in rows[1:]:
        by_seed.setdefault(r[3], set()).add(r[4])
    assert all(len(flops) == 1 for flops in by_seed.values())


def test_bench_bad_sizes(capsys):
    assert cli_main(["bench", "--suite", "greedy", "--sizes", "a,b"]) == 2
    assert "--sizes takes" in capsys.readouterr().err
    assert cli_main(["bench", "--suite", "greedy", "--sizes", ","]) == 2
    assert "--sizes is empty" in capsys.readouterr().err
