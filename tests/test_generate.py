import math

import pytest
from hypothesis import given, settings, strategies as st

from einpath import (
    EinPathError,
    GenConfig,
    GenerationError,
    dumps_network,
    generate,
)


def test_determinism():
    config = GenConfig(n_tensors=30, regularity=3.5, n_open=4, extent_min=2, extent_max=6, seed=17)
    assert dumps_network(generate(config)) == dumps_network(generate(config))


def test_seeds_differ():
    docs = {
        dumps_network(generate(GenConfig(n_tensors=12, regularity=3.0, seed=s)))
        for s in range(8)
    }
    assert len(docs) == 8


def test_structure():
    config = GenConfig(n_tensors=10, regularity=3.0, n_open=3, extent_min=2, extent_max=5, seed=1)
    net = generate(config)
    assert len(net.tensors) == 10
    assert net.output == ("o0", "o1", "o2")
    carriers = {}
    for sig in net.tensors:
        assert sig.indices, "every tensor carries at least one index"
        for ix in sig.indices:
            carriers[ix] = carriers.get(ix, 0) + 1
    for ix, count in carriers.items():
        if ix.startswith("o"):
            assert count == 1
        else:
            assert count == 2
    # round(10 * 3.0 / 2) paired indices, plus legs for untouched tensors
    assert sum(1 for ix in carriers if ix.startswith("c")) >= 15
    assert all(2 <= e <= 5 for e in net.extents.values())


def test_extent_bounds_tight():
    net = generate(GenConfig(n_tensors=6, regularity=2.0, extent_min=7, extent_max=7, seed=0))
    assert set(net.extents.values()) == {7}


def test_single_scalar():
    net = generate(GenConfig(n_tensors=1, regularity=0.0, seed=0))
    assert len(net.tensors) == 1
    assert net.tensors[0].indices == ()
    assert net.output == ()


def test_single_tensor_with_open_legs():
    net = generate(GenConfig(n_tensors=1, regularity=0.0, n_open=2, seed=3))
    assert net.tensors[0].indices == ("o0", "o1")
    assert net.output == ("o0", "o1")


def test_contracting_indices_need_two_tensors():
    with pytest.raises(GenerationError):
        generate(GenConfig(n_tensors=1, regularity=2.0, seed=0))


def test_max_indices_cap():
    # regularity 3 on 10 tensors wants 15 paired indices; retries can only
    # add legs for untouched tensors, so a cap just above works eventually
    net = generate(GenConfig(n_tensors=10, regularity=3.0, seed=4, max_indices=15))
    assert sum(1 for ix in net.extents if ix.startswith("c")) <= 15
    with pytest.raises(GenerationError):
        generate(GenConfig(n_tensors=10, regularity=3.0, seed=4, max_indices=14))


def test_max_indices_gives_up():
    # touching three tensors takes two filler indices, so one never fits
    with pytest.raises(GenerationError, match="^no network with at most 1 contracting "
                                              "indices after 1000 attempts$"):
        generate(GenConfig(n_tensors=3, regularity=0.0, max_indices=1))


def test_size_bound():
    # a network too large to hold is refused before anything is built, and
    # an int past the largest float is compared before any float product
    GenConfig(n_tensors=1 << 23, regularity=2.0)
    for bad in (
        {"n_tensors": 1 << 23, "regularity": 2.0, "n_open": 1},
        {"n_tensors": 4, "regularity": 1e308},
        {"n_tensors": 2, "regularity": 1e12},
        {"n_tensors": 10**400},
        {"n_tensors": 2, "n_open": 10**400},
    ):
        with pytest.raises(EinPathError, match="^n_tensors \\+ n_open \\+ n_tensors \\* "
                                               "regularity / 2 must be at most 16777216$"):
            GenConfig(**bad)


def test_config_validation():
    with pytest.raises(EinPathError):
        GenConfig(n_tensors=0)
    with pytest.raises(EinPathError):
        GenConfig(n_tensors=4, regularity=-1.0)
    with pytest.raises(EinPathError):
        GenConfig(n_tensors=4, n_open=-1)
    with pytest.raises(EinPathError):
        GenConfig(n_tensors=4, extent_min=0)
    with pytest.raises(EinPathError):
        GenConfig(n_tensors=4, extent_min=3, extent_max=2)
    with pytest.raises(EinPathError):
        GenConfig(n_tensors=4, max_indices=-1)
    # wrong types and non-finite numbers are refused too, not leaked as other errors
    for bad in (
        {"n_tensors": 2.5},
        {"n_tensors": "5"},
        {"regularity": math.nan},
        {"regularity": math.inf},
        {"extent_min": 1.5},
        {"seed": True},  # the seed is hashed by repr: True would build another network than 1
    ):
        with pytest.raises(EinPathError):
            GenConfig(**{"n_tensors": 4, **bad})
    GenConfig(n_tensors=4, extent_min=1, extent_max=1, max_indices=0)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(2, 20),
    regularity=st.floats(0.5, 4.0),
    n_open=st.integers(0, 4),
    seed=st.integers(0, 10**6),
)
def test_generated_networks_are_valid(n, regularity, n_open, seed):
    # TensorNetwork validates ids, dangling indices and output on construction
    net = generate(GenConfig(
        n_tensors=n, regularity=regularity, n_open=n_open,
        extent_min=2, extent_max=9, seed=seed,
    ))
    assert len(net.tensors) == n
    assert len(net.output) == n_open
