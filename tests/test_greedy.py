import importlib
import math
from collections import Counter
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from einpath import (
    EinPathError,
    GenConfig,
    GreedyConfig,
    SsaPath,
    TensorNetwork,
    TensorSig,
    cost,
    generate,
    greedy,
    greedy_path,
    index_appearances,
    parse_einsum,
    sampled_greedy,
    ssa_to_tree,
    tensor_size,
    tree_to_ssa,
    validate_tree,
)
from einpath.greedy import _greedy_pass, _sample_runs
from conftest import batched, disjoint_union, hyper_networks
from oracles import greedy_reference

greedy_module = importlib.import_module("einpath.greedy")  # the name einpath.greedy is the function

# the eight sharing pairs of the six-tensor example and their
# size-difference scores, by hand: result size minus both operand sizes
WORKED_SCORES = (
    (-4, 0, 1),
    (-4, 0, 4),
    (-4, 3, 5),
    (-4, 4, 5),
    (0, 1, 2),
    (0, 1, 3),
    (0, 2, 3),
    (0, 2, 4),
)


def _score(network, i, j):
    appear = index_appearances(network)
    a = network.tensors[i].indices
    b = network.tensors[j].indices
    counts = {}
    for ix in a + b:
        counts[ix] = counts.get(ix, 0) + 1
    head = [ix for ix, c in counts.items() if c < appear[ix]]
    return (
        tensor_size(head, network.extents)
        - tensor_size(a, network.extents)
        - tensor_size(b, network.extents)
    )


def test_worked_example_initial_scores(closed6):
    scored = []
    for i in range(6):
        for j in range(i + 1, 6):
            if set(closed6.tensors[i].indices) & set(closed6.tensors[j].indices):
                scored.append((_score(closed6, i, j), i, j))
    assert tuple(sorted(scored)) == WORKED_SCORES


def test_worked_example_selection_order(closed6):
    # four pairs tie at -4; lexicographic order breaks the tie toward (0, 1)
    pairs, _, _ = _greedy_pass(closed6)
    assert tuple(pairs) == ((0, 1), (3, 5), (2, 4), (6, 8), (7, 9))
    assert tuple(pairs) == greedy_reference(closed6)


def test_worked_example_cost(closed6):
    tree, report = greedy(closed6)
    validate_tree(tree, closed6)
    assert (report.flops, report.peak_size, report.write_volume) == (104, 16, 41)
    assert report == cost(tree, closed6.extents)


@pytest.mark.parametrize("seed", range(10))
def test_matches_reference_on_random_networks(seed):
    net = generate(GenConfig(
        n_tensors=12, regularity=3.0, n_open=seed % 3,
        extent_min=2, extent_max=4, seed=seed,
    ))
    pairs, _, _ = _greedy_pass(net)
    assert tuple(pairs) == greedy_reference(net)
    tree, report = greedy(net)
    validate_tree(tree, net)
    assert tree_to_ssa(tree) == tree_to_ssa(ssa_to_tree(SsaPath(tuple(pairs)), net))
    assert report == cost(tree, net.extents)


def test_single_tensor():
    net = parse_einsum("ij->ji", {"i": 2, "j": 7})
    thermal = GreedyConfig(temperature=0.5, samples=3, seed=1)
    for opt, config in ((greedy, None), (sampled_greedy, None), (sampled_greedy, thermal)):
        tree, report = opt(net, config)
        assert tree.is_leaf
        assert (report.flops, report.peak_size, report.write_volume) == (0, 0, 0)


def test_two_tensors():
    net = parse_einsum("ij,jk->ik", {"i": 2, "j": 3, "k": 4})
    tree, report = greedy(net)
    assert tree_to_ssa(tree).pairs == ((0, 1),)
    assert report.flops == 24


def test_disconnected_fallback():
    # three closed components; after each collapses, only outer folds remain
    sigs = []
    extents = {}
    for i in range(3):
        sigs.append(TensorSig(2 * i, (f"b{i}",)))
        sigs.append(TensorSig(2 * i + 1, (f"b{i}",)))
        extents[f"b{i}"] = 2 + i
    net = TensorNetwork(tuple(sigs), extents, ())
    pairs, _, _ = _greedy_pass(net)
    assert tuple(pairs) == greedy_reference(net)
    live = {i: set(net.tensors[i].indices) for i in range(6)}
    outer = 0
    for k, (a, b) in enumerate(pairs):
        if not (live[a] & live[b]):
            outer += 1
        live[6 + k] = live.pop(a) ^ live.pop(b)
    assert outer == 2
    tree, report = greedy(net)
    assert report.flops == 2 + 3 + 4 + 1 + 1


def test_sampled_keeps_best_sample(monkeypatch):
    # passes are priced as they run: only the kept one becomes a tree
    net = generate(GenConfig(n_tensors=14, regularity=3.0, extent_min=2, extent_max=5, seed=3))
    config = GreedyConfig(temperature=0.5, samples=8, seed=3)
    rebuild = greedy_module.verify_path
    calls = []

    def counted(path, network):
        calls.append(path)
        return rebuild(path, network)

    monkeypatch.setattr(greedy_module, "verify_path", counted)
    tree, report = sampled_greedy(net, config)
    assert len(calls) == 1
    validate_tree(tree, net)
    runs = list(_sample_runs(net, config))
    flops = [r.flops for _, _, r in runs]
    pairs, _, best = runs[flops.index(min(flops))]
    assert report == best == cost(tree, net.extents)
    assert tree_to_ssa(tree) == tree_to_ssa(rebuild(SsaPath(pairs), net)[0])
    # greedy_path returns the kept pass's pairs and the pushes of all eight
    path, path_report, pushes = greedy_path(net, config)
    assert (path.pairs, path_report) == (tuple(pairs), best)
    assert pushes == sum(count for _, count, _ in runs)


def test_sampled_collapse_warns(closed6):
    with pytest.warns(UserWarning):
        tree, report = sampled_greedy(closed6, GreedyConfig(samples=4))
    base_tree, base_report = greedy(closed6)
    assert tree_to_ssa(tree) == tree_to_ssa(base_tree)
    assert report == base_report


def test_determinism():
    net = generate(GenConfig(n_tensors=16, regularity=3.0, extent_min=2, extent_max=4, seed=9))
    config = GreedyConfig(temperature=0.8, samples=4, seed=11)
    first = sampled_greedy(net, config)
    second = sampled_greedy(net, config)
    assert tree_to_ssa(first[0]) == tree_to_ssa(second[0])
    assert first[1] == second[1]
    # the seeded draws differ between samples, so the samples are not all alike
    assert len({tuple(pairs) for pairs, _, _ in _sample_runs(net, config)}) >= 2


_THREE = parse_einsum("ab,bc,cd->ad", {"a": 2, "b": 2, "c": 3, "d": 2})
_CHAIN = parse_einsum("ab,bc,cd,de->ae", {"a": 2, "b": 3, "c": 4, "d": 2, "e": 3})


@pytest.mark.parametrize("net, temperature", [(_THREE, 2.0), (_THREE, 8.0), (_CHAIN, 8.0)])
def test_first_pick_is_a_boltzmann_draw(net, temperature):
    # by the Gumbel-max trick the first pick is a candidate with probability
    # proportional to e^(-score/T): _THREE scores -4 and -8, _CHAIN -10,
    # -14 and -2, and with three candidates a noise of the wrong sign shows
    runs = 4000
    firsts = Counter(_greedy_pass(net, temperature, Random(seed))[0][0] for seed in range(runs))
    weights = {(i, i + 1): math.exp(-_score(net, i, i + 1) / temperature)
               for i in range(len(net.tensors) - 1)}
    assert firsts.keys() <= weights.keys()
    for pair, w in weights.items():
        p = w / sum(weights.values())
        assert abs(firsts[pair] / runs - p) <= 3 * math.sqrt(p * (1 - p) / runs)


class _Draws(Random):
    """A generator whose every uniform draw is `value`."""

    def __init__(self, value):
        super().__init__(0)
        self.value = value

    def random(self):
        return self.value


@pytest.mark.parametrize("temperature", [5e-324, 1e-300, 0.5, 1e300, 2**1024 - 2**971, 10**300])
@pytest.mark.parametrize("u", [0.0, 0.5, 1 - 2**-53])
def test_noise_never_raises(temperature, u):
    # u = 0.0 and u just below 1 are the ends of the Gumbel draw; tiny and
    # huge temperatures shift the integer keys far either way
    net = batched(generate(GenConfig(n_tensors=12, regularity=3.0, extent_min=2,
                                     extent_max=4, seed=4)), (3,))
    pairs, _, report = _greedy_pass(net, temperature, _Draws(u))
    assert report == cost(ssa_to_tree(SsaPath(pairs), net), net.extents)


def test_config_validation():
    with pytest.raises(TypeError):
        GreedyConfig(score="flops")  # a single heuristic, so no knob for it
    bad = (
        {"temperature": -0.1},
        {"temperature": math.nan},
        {"temperature": math.inf},
        {"temperature": 2**1024},  # an int past the largest float
        {"temperature": "0.5"},
        {"temperature": True},
        {"temperature": None},
        {"samples": 0},
        {"samples": 2.5},
        {"samples": "2"},
        {"samples": True},
        {"seed": 1.5},
        {"seed": 1.0},
        {"seed": "x"},
        {"seed": True},
        {"seed": None},
    )
    for kwargs in bad:
        with pytest.raises(EinPathError):
            GreedyConfig(**kwargs)
    GreedyConfig(temperature=0.5, samples=3, seed=42)
    GreedyConfig(seed=-1)
    for temperature in (2, 5e-324, 1e300, 2**1024 - 2**971):
        GreedyConfig(temperature=temperature)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 9), seed=st.integers(0, 10**6))
def test_reference_agreement_property(n, seed):
    net = generate(GenConfig(
        n_tensors=n, regularity=2.5, n_open=seed % 3,
        extent_min=2, extent_max=5, seed=seed,
    ))
    pairs, _, _ = _greedy_pass(net)
    assert tuple(pairs) == greedy_reference(net)
    tree, report = greedy(net)
    validate_tree(tree, net)
    assert report == cost(tree, net.extents)


def _batch_network(parts, seed, batch_extents):
    """Components of the given sizes, then the batch indices on every tensor.

    A one-tensor component has no index of its own, so it starts at the
    size of the batch indices alone, like a finished component.
    """
    nets = []
    for k, n in enumerate(parts):
        nets.append(generate(GenConfig(
            n_tensors=n, regularity=2.5 if n > 1 else 0.0,
            n_open=seed % 3 if k == 0 else 0,
            extent_min=1 if seed % 4 == 0 else 2, extent_max=4, seed=seed + k,
        )))
    return batched(disjoint_union(nets), batch_extents)


_PARTS = st.lists(st.integers(1, 6), min_size=1, max_size=3).filter(lambda p: 2 <= sum(p) <= 12)
_BATCH = st.lists(st.integers(1, 4), min_size=1, max_size=2)


@settings(max_examples=200, deadline=None)
@given(parts=_PARTS, seed=st.integers(0, 10**6), batch_extents=st.lists(st.integers(1, 4), max_size=2))
def test_components_and_batch_indices_match_reference(parts, seed, batch_extents):
    # without batch indices, finished components fold by (size, id)
    net = _batch_network(parts, seed, batch_extents)
    pairs, _, _ = _greedy_pass(net)
    assert tuple(pairs) == greedy_reference(net)
    tree, report = greedy(net)
    validate_tree(tree, net)
    assert report == cost(tree, net.extents)


@settings(max_examples=40, deadline=None)
@given(parts=_PARTS, seed=st.integers(0, 10**6), batch_extents=_BATCH)
def test_all_carried_output_thermal_is_deterministic(parts, seed, batch_extents):
    net = _batch_network(parts, seed, batch_extents)
    config = GreedyConfig(temperature=0.7, samples=4, seed=seed)
    first = sampled_greedy(net, config)
    second = sampled_greedy(net, config)
    validate_tree(first[0], net)
    assert tree_to_ssa(first[0]) == tree_to_ssa(second[0])
    assert first[1] == second[1] == cost(first[0], net.extents)


def test_all_carried_output_push_count():
    # all pairs share the batch index; only the other indices give candidates
    n = 1000
    net = batched(generate(GenConfig(
        n_tensors=n, regularity=3.0, extent_min=2, extent_max=5, seed=1,
    )), (4,))
    pairs, pushes, _ = _greedy_pass(net)
    assert pushes <= 20 * n
    validate_tree(ssa_to_tree(SsaPath(tuple(pairs)), net), net)


_SCALAR_ROOT = parse_einsum("ij,ij->", {"i": 2, "j": 3})
# scores past 2^1024: a float key would raise OverflowError
_HUGE = parse_einsum("ab,bc,cd,da->", {k: 2**600 for k in "abcd"})


@settings(max_examples=300, deadline=None)
@given(net=hyper_networks(), temperature=st.sampled_from([0.0, 0.3, 2.0]),
       seed=st.integers(0, 10**6))
@example(net=_SCALAR_ROOT, temperature=0.0, seed=0)
@example(net=_HUGE, temperature=2.0, seed=0)
@example(net=_HUGE, temperature=2.0, seed=1)
def test_pass_report_is_the_cost_of_its_tree(net, temperature, seed):
    # the report priced during the pass is cost() of the tree its pairs build
    pairs, _, report = _greedy_pass(net, temperature, Random(seed))
    assert report == cost(ssa_to_tree(SsaPath(pairs), net), net.extents)
    if temperature == 0:
        assert tuple(pairs) == greedy_reference(net)


def test_lazy_pair_keeps_its_draw(monkeypatch):
    # the lazy pair draws once, when it becomes the lazy pair: a fresh draw
    # on every step it stays would give it a new chance each step; a lazy
    # pair sharing an index besides the batch index is left to its heap
    # entry, so no pair has two draws
    net = _batch_network([6, 5], 3, (2,))
    pop_best = greedy_module._pop_best
    steps = []

    def spy(heap, legs, extra):
        if extra is not None:
            assert set(legs[extra[1]]) & set(legs[extra[2]]) == {"batch0"}
        steps.append(extra)
        return pop_best(heap, legs, extra)

    monkeypatch.setattr(greedy_module, "_pop_best", spy)
    for seed in range(20):
        _greedy_pass(net, 0.5, Random(seed))
    kept = [(a, b) for a, b in zip(steps, steps[1:]) if a and b and a[1:] == b[1:]]
    assert kept and all(a == b for a, b in kept)
