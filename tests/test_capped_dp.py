"""The subset DP against a plain reference loop, and its one-head rule.

search._capped_dp reads partners from per-level rows, heads a subset once
and rejects some pairs before sizing them. None of that may change what it
records: every gate here compares it with oracles.capped_dp_reference,
which reads best and heads and sizes every pair, on the same inputs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import _hyper_part, batched, disjoint_union
from einpath import BudgetError, GenConfig, SearchConfig, generate
from einpath import search
from oracles import capped_dp_reference

_HUGE = 1 << 200  # a cap every tree fits under


def _units(space, groups, bases):
    """DP units over groups of tensor ids: a lone tensor is its term mask
    at value 0, a larger group its result head at a base value, as the
    spine passes component results."""
    units = []
    for group, base in zip(groups, bases):
        if len(group) == 1:
            units.append((1 << group[0], space.term_masks[group[0]], 0))
            continue
        mask = union = 0
        for t in group:
            mask |= 1 << t
            union |= space.term_masks[t]
        units.append((mask, space.head(mask, union), base))
    return units


@st.composite
def _cases(draw):
    """(space, units, metric, allow_outer) over at most
    nine tensors: generated regular networks or random hyperedge parts,
    extent-1 indices, sometimes a batch index on every tensor, and units of
    one tensor each or multi-bit runs of tensors."""
    if draw(st.booleans()):
        net = generate(GenConfig(
            n_tensors=draw(st.integers(2, 9)), regularity=draw(st.sampled_from([2.0, 2.5, 3.0])),
            n_open=draw(st.integers(0, 2)), extent_min=1, extent_max=draw(st.integers(2, 5)),
            seed=draw(st.integers(0, 10**6)),
        ))
    else:
        parts = draw(st.lists(_hyper_part(), min_size=1, max_size=3).filter(
            lambda ps: sum(len(p.tensors) for p in ps) <= 9))
        net = disjoint_union(parts)
    net = batched(net, draw(st.lists(st.integers(1, 4), max_size=1)))
    space = search._Space(net)
    n = len(net.tensors)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    if draw(st.booleans()):  # one tensor per unit
        cuts = list(range(1, n))
    ends = [0, *cuts, n]
    groups = [list(range(lo, hi)) for lo, hi in zip(ends, ends[1:])]
    bases = [draw(st.integers(0, 1000)) for _ in groups]
    return (space, _units(space, groups, bases), draw(st.sampled_from(["flops", "peak_size"])),
            draw(st.booleans()))


def _run(solve, case, start, bound, offset=0, max_nodes=None):
    """Everything one solve leaves behind, and its stats: the best map in
    admission order, the target and the counters, or the BudgetError and
    the counters."""
    space, units, metric, outer = case
    stats = search.SearchStats(nodes_expanded=offset)
    budget = search._Budget(SearchConfig(max_nodes=max_nodes))
    try:
        best, target = solve(space, units, metric, outer, start, bound, stats, budget)
    except BudgetError as err:
        return ("budget", str(err), stats.nodes_expanded, stats.prunes), stats
    return (list(best.items()), target, stats.nodes_expanded, stats.prunes), stats


def _optimum(case):
    """The target's value in one unclipped pass, or None when it cannot form."""
    (best, target, _, _), _ = _run(capped_dp_reference, case, _HUGE, _HUGE)
    return dict(best).get(target, (None,))[0]


@settings(max_examples=150, deadline=None)
@given(case=_cases(), data=st.data())
def test_matches_reference(case, data):
    # the same best map (value, head and split of every key, in admission
    # order), target, nodes_expanded and prunes, under caps that start up
    # to three factors below the optimum and bounds below, at and above it;
    # and the same BudgetError at the same node count when a budget cuts in
    space = case[0]
    factor = max(2, space.max_extent)
    opt = _optimum(case)
    if opt is None:
        start = data.draw(st.integers(1, 1 << 12))
        bound = data.draw(st.integers(1, 1 << 20))
    else:
        start = -(-opt // factor ** data.draw(st.integers(0, 3)))
        bound = data.draw(st.sampled_from([max(1, opt - 1), opt, 2 * opt, _HUGE]))
    offset = data.draw(st.integers(0, 3))  # nodes of earlier solves of the same search
    got, _ = _run(search._capped_dp, case, start, bound, offset)
    assert got == _run(capped_dp_reference, case, start, bound, offset)[0]
    nodes = got[2] - offset
    if nodes:
        limit = offset + data.draw(st.integers(0, nodes - 1))
        got, _ = _run(search._capped_dp, case, start, bound, offset, limit)
        assert got[0] == "budget"
        assert got == _run(capped_dp_reference, case, start, bound, offset, limit)[0]


@pytest.mark.parametrize("metric", ["flops", "peak_size"])
def test_pass_counts_one_to_four(metric):
    # a start k factors below the optimum, rounded up, forms the target in
    # pass k + 1 unless the cap stops short at 1; each schedule must match
    # the reference and report its passes and the size of the table it
    # recorded
    seen = set()
    for seed in range(4):
        net = generate(GenConfig(n_tensors=9, extent_max=5, n_open=seed % 3, seed=seed))
        space = search._Space(net)
        units = _units(space, [[t] for t in range(9)], [0] * 9)
        case = (space, units, metric, False)
        opt = _optimum(case)
        factor = max(2, space.max_extent)
        for k in range(4):
            start = -(-opt // factor**k)
            got, stats = _run(search._capped_dp, case, start, _HUGE)
            assert got == _run(capped_dp_reference, case, start, _HUGE)[0]
            assert stats.subsets == len(got[0])
            seen.add(stats.passes)
    assert {1, 2, 3, 4} <= seen


@settings(max_examples=80, deadline=None)
@given(case=_cases())
def test_one_head_per_subset(case):
    # the head a subset records, whichever split reached it first or best,
    # is the carrier rule applied to all of its tensors
    space, units, metric, outer = case
    stats = search.SearchStats()
    best, _ = search._capped_dp(space, units, metric, outer, 1, _HUGE, stats,
                                search._Budget(SearchConfig()))
    for key, (_, head, split) in best.items():
        if split is None:
            continue
        union = 0
        for t, mask in enumerate(space.term_masks):
            if key >> t & 1:
                union |= mask
        assert head == space.head(key, union), key
