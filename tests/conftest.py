import pytest
from hypothesis import strategies as st

from einpath import TensorNetwork, TensorSig, parse_einsum

# Closed six-tensor network used throughout: every index has extent 2 and
# joins exactly two tensors. Worked by hand below and in the docs.
EQUATION = "im,ijp,jkn,klp,mno,lo->"
EXTENTS = {ix: 2 for ix in "imjpknlo"}

# The five-step ordering worked out by hand: (0,4) sums m, (6,5) sums o,
# (1,2) sums j, (8,3) sums p and k, (7,9) sums i, n and l.
WORKED_PAIRS = ((0, 4), (6, 5), (1, 2), (8, 3), (7, 9))
WORKED_COST = (104, 16, 41)  # flops, peak_size, write_volume

# Other linearizations of the same tree: they schedule the same five
# contractions, so intermediates and costs must not change.
EQUIVALENT_PAIRS = (
    WORKED_PAIRS,
    ((0, 4), (1, 2), (6, 5), (7, 3), (8, 9)),
    ((0, 4), (1, 2), (7, 3), (6, 5), (9, 8)),
    ((1, 2), (6, 3), (0, 4), (8, 5), (9, 7)),
    ((1, 2), (0, 4), (6, 3), (7, 5), (9, 8)),
    ((1, 2), (0, 4), (7, 5), (6, 3), (8, 9)),
)

# Index sets of the four non-root intermediates of that tree.
WORKED_HEADS = (
    frozenset("ino"),
    frozenset("inl"),
    frozenset("ipkn"),
    frozenset("inl"),
)


@pytest.fixture
def closed6():
    return parse_einsum(EQUATION, EXTENTS)


def disjoint_union(nets):
    """Disjoint union of networks: indices renamed per part, ids offset."""
    tensors, extents, output = [], {}, []
    for part, net in enumerate(nets):
        rename = {ix: f"{ix}_{part}" for ix in net.extents}
        for sig in net.tensors:
            tensors.append(TensorSig(len(tensors), tuple(rename[ix] for ix in sig.indices)))
        extents.update((rename[ix], e) for ix, e in net.extents.items())
        output.extend(rename[ix] for ix in net.output)
    return TensorNetwork(tuple(tensors), extents, tuple(output))


def batched(net, batch_extents):
    """Add one output index per extent to every tensor (einsum batch indices)."""
    names = tuple(f"batch{b}" for b in range(len(batch_extents)))
    tensors = tuple(TensorSig(t.id, t.indices + names) for t in net.tensors)
    extents = {**net.extents, **dict(zip(names, batch_extents))}
    return TensorNetwork(tensors, extents, net.output + names)


@st.composite
def _hyper_part(draw):
    """One random part: indices on 1-4 of its tensors (hyperedges when
    more than two), extents 1-4, open legs; an index on one tensor is
    always an output. Parts can be disconnected, closed (contracting to a
    scalar) or a lone tensor."""
    n = draw(st.integers(1, 6))
    tensors = [[] for _ in range(n)]
    extents = {}
    output = []
    for k in range(draw(st.integers(0, 2 * n))):
        members = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 4)))
        name = f"x{k}"
        for t in members:
            tensors[t].append(name)
        extents[name] = draw(st.integers(1, 4))
        if len(members) == 1 or draw(st.booleans()):
            output.append(name)
    sigs = tuple(TensorSig(t, tuple(ixs)) for t, ixs in enumerate(tensors))
    return TensorNetwork(sigs, extents, tuple(output))


@st.composite
def hyper_networks(draw):
    """Disjoint unions of 1-4 random parts, then 0-2 batch indices."""
    parts = draw(st.lists(_hyper_part(), min_size=1, max_size=4))
    return batched(disjoint_union(parts), draw(st.lists(st.integers(1, 4), max_size=2)))
