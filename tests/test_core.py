from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import EQUIVALENT_PAIRS, WORKED_COST, WORKED_HEADS, WORKED_PAIRS, hyper_networks
from einpath import (
    CostReport,
    EinExpr,
    EinPathError,
    InvalidContractionError,
    MalformedPathError,
    MissingExtentError,
    NetworkValidationError,
    SsaPath,
    TensorNetwork,
    TensorSig,
    TraceError,
    UnsupportedArityError,
    cost,
    index_appearances,
    intermediates_equal,
    naive,
    parse_einsum,
    ssa_to_tree,
    summed_indices,
    tensor_size,
    tree_to_ssa,
    validate_tree,
    verify_path,
)
from oracles import ssa_to_tree_reference, validate_network_reference, validate_tree_reference


def test_worked_ordering_cost(closed6):
    tree = ssa_to_tree(SsaPath(WORKED_PAIRS), closed6)
    report = cost(tree, closed6.extents)
    assert (report.flops, report.peak_size, report.write_volume) == WORKED_COST


def test_worked_ordering_intermediates(closed6):
    tree = ssa_to_tree(SsaPath(WORKED_PAIRS), closed6)
    heads = Counter(node.head for node in tree.branches())
    # the four named intermediates plus the scalar root
    assert heads == Counter(WORKED_HEADS) + Counter([frozenset()])


@pytest.mark.parametrize("pairs", EQUIVALENT_PAIRS[1:], ids=range(1, 6))
def test_equivalent_orderings(closed6, pairs):
    worked = ssa_to_tree(SsaPath(WORKED_PAIRS), closed6)
    other = ssa_to_tree(SsaPath(pairs), closed6)
    assert intermediates_equal(worked, other)
    assert cost(other, closed6.extents) == cost(worked, closed6.extents)


def test_summed_indices(closed6):
    tree = ssa_to_tree(SsaPath(WORKED_PAIRS), closed6)
    summed = [summed_indices(node) for node in tree.branches()]
    assert Counter(summed) == Counter(
        [
            frozenset("m"),
            frozenset("o"),
            frozenset("j"),
            frozenset("pk"),
            frozenset("inl"),
        ]
    )
    assert summed_indices(tree.args[0]) in summed
    leaf = next(tree.leaves())
    assert summed_indices(leaf) == frozenset()


def test_index_appearances(closed6):
    appear = index_appearances(closed6)
    assert appear == {ix: 2 for ix in "imjpknlo"}
    open_net = parse_einsum("ij,jk->ik", {"i": 2, "j": 3, "k": 4})
    assert index_appearances(open_net) == {"i": 2, "j": 2, "k": 2}


def test_tensor_size():
    extents = {"i": 2, "j": 3, "k": 4}
    assert tensor_size(frozenset("ik"), extents) == 8
    assert tensor_size(frozenset(), extents) == 1
    with pytest.raises(MissingExtentError):
        tensor_size(frozenset("iz"), extents)


def test_tree_to_ssa_round_trip(closed6):
    tree = ssa_to_tree(SsaPath(WORKED_PAIRS), closed6)
    assert tree_to_ssa(tree).pairs == WORKED_PAIRS
    again = ssa_to_tree(tree_to_ssa(tree), closed6)
    assert intermediates_equal(tree, again)


def test_tree_to_ssa_refuses_leaf_ids_not_0_to_n():
    tree = EinExpr(head=frozenset(), args=(EinExpr(head={"a"}, leaf_id=0),
                                           EinExpr(head={"a"}, leaf_id=2)))
    with pytest.raises(MalformedPathError, match=r"^tree leaf ids must be exactly 0\.\.n-1$"):
        tree_to_ssa(tree)


def test_cost_refuses_a_one_argument_branch():
    tree = EinExpr(head={"a"}, args=(EinExpr(head={"a"}, leaf_id=0),))
    with pytest.raises(InvalidContractionError,
                       match="^branch nodes need at least two arguments$"):
        cost(tree, {"a": 2})


def test_ssa_path_indexes_its_pairs():
    path = SsaPath([[0, 1], (2, 3)])
    assert (path[0], path[-1], path[:1]) == ((0, 1), (2, 3), ((0, 1),))
    with pytest.raises(IndexError, match="^tuple index out of range$"):
        path[2]


def test_naive_single_node(closed6):
    chain = naive(closed6)
    assert len(chain.args) == len(closed6.tensors)
    assert chain.head == frozenset()
    # an n-ary node is costed as a left fold, so the equivalent binary
    # left-deep chain must cost exactly the same
    left_deep = ssa_to_tree(SsaPath(((0, 1), (6, 2), (7, 3), (8, 4), (9, 5))), closed6)
    assert cost(chain, closed6.extents).flops == cost(left_deep, closed6.extents).flops
    with pytest.raises(UnsupportedArityError):
        tree_to_ssa(chain)


def test_naive_single_tensor():
    net = parse_einsum("ij->ij", {"i": 2, "j": 2})
    leaf = naive(net)
    assert leaf.is_leaf
    assert cost(leaf, net.extents) == CostReport(0, 0, 0)


def test_einexpr_leaf_xor_branch():
    with pytest.raises(InvalidContractionError):
        EinExpr(head=frozenset("i"))
    with pytest.raises(InvalidContractionError):
        EinExpr(head=frozenset("i"), args=(EinExpr.leaf(TensorSig(0, "i")),), leaf_id=0)
    leaf = EinExpr.leaf(TensorSig(3, ("i", "j")))
    assert leaf.is_leaf and leaf.leaf_id == 3 and leaf.head == frozenset("ij")


def test_deep_tree_equality_and_hash():
    # a left-deep chain 5000 levels deep, past any recursion limit
    n = 5001
    sigs = [TensorSig(t, tuple(f"e{k}" for k in (t - 1, t) if 0 <= k < n - 1)) for t in range(n)]
    net = TensorNetwork(tuple(sigs), {f"e{k}": 2 for k in range(n - 1)}, ())
    chain = [(0, 1)] + [(n + k, k + 2) for k in range(n - 2)]
    tree = ssa_to_tree(SsaPath(chain), net)
    again = ssa_to_tree(SsaPath(chain), net)
    swapped = ssa_to_tree(SsaPath([(1, 0)] + chain[1:]), net)
    assert tree == again and hash(tree) == hash(again)
    assert tree != swapped
    assert len({tree, again, swapped}) == 2
    assert tree != tree.args[0] and tree != "tree"


def test_ssa_path_errors(closed6):
    with pytest.raises(MalformedPathError):
        ssa_to_tree(SsaPath(((0, 0),)), closed6)
    with pytest.raises(MalformedPathError):
        ssa_to_tree(SsaPath(((0, 99),)), closed6)
    with pytest.raises(MalformedPathError):  # id 0 already consumed
        ssa_to_tree(SsaPath(((0, 1), (0, 2), (6, 7), (8, 3), (9, 4))), closed6)
    with pytest.raises(MalformedPathError):  # too short for a full contraction
        ssa_to_tree(SsaPath(((0, 1), (6, 2))), closed6)


def test_validate_tree_catches_bad_head(closed6):
    tree = ssa_to_tree(SsaPath(WORKED_PAIRS), closed6)
    validate_tree(tree, closed6)
    bad = EinExpr(head=frozenset("i"), args=tree.args)
    with pytest.raises(InvalidContractionError):
        validate_tree(bad, closed6)


def test_validate_tree_reports_a_leaf_flaw_before_a_branch_flaw():
    # leaves are checked before any head: a wrong branch head on the left
    # and a wrong leaf head on the right report the leaf
    net = parse_einsum("ab,bc,cd->ad", {"a": 2, "b": 3, "c": 4, "d": 5})
    tree = ssa_to_tree(SsaPath(((0, 1), (3, 2))), net)
    left, right = tree.args
    wrong_left = EinExpr(head=left.head | {"b"}, args=left.args)
    wrong_leaf = EinExpr(head={"c"}, leaf_id=right.leaf_id)
    for one in ((wrong_left, right), (left, wrong_leaf)):
        with pytest.raises(InvalidContractionError):
            validate_tree(EinExpr(head=tree.head, args=one), net)
    both = EinExpr(head=tree.head, args=(wrong_left, wrong_leaf))
    with pytest.raises(InvalidContractionError, match="^leaf 2 head "):
        validate_tree(both, net)
    # the counter reference checks each leaf as its walk reaches it, so it
    # reports the branch on the left first
    with pytest.raises(InvalidContractionError, match="^branch head "):
        validate_tree_reference(both, net)


def test_network_validation():
    with pytest.raises(NetworkValidationError):
        TensorNetwork((), {}, ())
    with pytest.raises(NetworkValidationError):  # ids must be 0..n-1 in order
        TensorNetwork((TensorSig(1, ("i",)),), {"i": 2}, ("i",))
    with pytest.raises(NetworkValidationError):  # missing extent
        TensorNetwork((TensorSig(0, ("i",)),), {}, ("i",))
    with pytest.raises(NetworkValidationError):  # extent for unknown index
        TensorNetwork((TensorSig(0, ("i",)),), {"i": 2, "z": 2}, ("i",))
    with pytest.raises(NetworkValidationError):  # dangling index
        TensorNetwork((TensorSig(0, ("i",)),), {"i": 2}, ())
    with pytest.raises(NetworkValidationError):  # output repeats
        TensorNetwork((TensorSig(0, ("i",)),), {"i": 2}, ("i", "i"))
    with pytest.raises(NetworkValidationError):  # output not on any tensor
        TensorNetwork((TensorSig(0, ("i",)),), {"i": 2}, ("z",))
    with pytest.raises(NetworkValidationError):  # extents are positive ints
        TensorNetwork((TensorSig(0, ("i",)),), {"i": 0}, ("i",))
    with pytest.raises(NetworkValidationError):  # ids are ints, not bools or floats
        TensorNetwork((TensorSig(False, ("i",)),), {"i": 2}, ("i",))
    with pytest.raises(NetworkValidationError):  # names are non-empty strs
        TensorNetwork((TensorSig(0, ("",)),), {"": 2}, ("",))
    with pytest.raises(TraceError):
        TensorSig(0, ("i", "i"))


def _validation_outcome(check):
    """(type, location, message) of what `check` raises, or None."""
    try:
        check()
    except EinPathError as exc:
        return type(exc), getattr(exc, "location", None), str(exc)
    return None


def _assert_validates_like_reference(tensors, extents, output):
    got = _validation_outcome(
        lambda: TensorNetwork(tuple(TensorSig(t, ixs) for t, ixs in tensors), extents, output)
    )
    want = _validation_outcome(lambda: validate_network_reference(tensors, extents, output))
    assert got == want
    return got


_AB = ((0, ("a", "b")), (1, ("a", "b")))


@pytest.mark.parametrize("tensors, extents, output", [
    # one fault per check
    (((0, ("a", "b", "a")),), {"a": 2, "b": 2}, ("a", "b")),
    ((), {}, ()),
    (((0, ("a",)), (2, ("a",))), {"a": 2}, ()),
    (_AB, {"a": 2}, ()),
    (_AB, {"a": 2, "b": 2, "z": 3}, ()),
    (_AB, {"a": 2, "b": 2.0}, ()),
    (_AB, {"a": True, "b": 2}, ()),
    (_AB, {"a": 2, "b": "2"}, ()),
    (_AB, {"a": 2, "b": 0}, ()),
    (_AB, {"a": -3, "b": 2}, ()),
    (_AB, {"a": 2, "b": 2}, ("z",)),
    (_AB, {"a": 2, "b": 2}, ("a", "a")),
    (((0, ("a", "x")), (1, ("a",))), {"a": 2, "x": 2}, ()),
    # several faults at once: the first check in order wins
    (((1, ("a", "a")),), {}, ("z",)),
    (((0, ("a",)), (1, ("b", "c", "c", "b"))), {}, ()),
    (((0, ("a",)), (5, ("b",))), {}, ()),
    (((0, ("q", "b", "m")), (1, ("q", "b", "m"))), {"z": 1}, ()),
    (_AB, {"b": 0, "z": 2}, ("z",)),
    (_AB, {"z": 2, "a": 0, "b": 2}, ()),
    (_AB, {"a": 0, "z": 2, "b": 2}, ()),
    (_AB, {"a": 2, "b": 1.5}, ("q", "q")),
    (_AB, {"a": 2, "b": 2}, ("a", "z", "a")),
    (((0, ("a", "x")), (1, ("a", "y"))), {"a": 2, "x": 2, "y": 2}, ("x", "x")),
    (((0, ("a", "x")), (1, ("a", "y"))), {"a": 2, "x": 2, "y": 2}, ()),
    (((0, ("a", "o")), (1, ("a", "d"))), {"a": 2, "o": 2, "d": 2}, ("o",)),
    # ids that equal their position without being ints, and names no document carries
    (((False, ("a",)), (1, ("a",))), {"a": 2}, ()),
    (((0, ("a",)), (True, ("a",))), {"a": 2}, ()),
    (((0, ("a",)), (1.0, ("a",))), {"a": 2}, ()),
    (((0, ("a", 7)), (1, ("a", 7))), {"a": 2, 7: 2}, ()),
    (((0, ("a", "")), (1, ("a", ""))), {"a": 2, "": 2}, ()),
    (((0, ("a",)), (1, ("a", ["b"], "a"))), {"a": 2}, ()),
    (_AB, {"a": 2, "b": 2}, ("a", ["b"])),
    (_AB, {"a": 2, "b": 2}, (("a",),)),
    (((1.0, ("a", ["b"])),), {}, ()),
])
def test_network_validation_matches_reference(tensors, extents, output):
    assert _assert_validates_like_reference(tensors, extents, output) is not None


@st.composite
def _networks_with_faults(draw):
    """(tensors, extents, output) of small networks that are mostly valid:
    each check fails with small odds, so faults also come several at once."""
    def rare():
        return draw(st.integers(0, 11)) == 5

    tensors = []
    for pos in range(draw(st.integers(0 if rare() else 1, 4))):
        ixs = draw(st.lists(st.sampled_from("abcd"), max_size=3, unique=True))
        if ixs and rare():
            ixs.append(ixs[0])
        bad_ids = [pos + 1, float(pos)] + ([bool(pos)] if pos < 2 else [])
        tensors.append((draw(st.sampled_from(bad_ids)) if rare() else pos, tuple(ixs)))
    named = draw(st.permutations(sorted({ix for _, ixs in tensors for ix in ixs})))
    extents = {}
    for ix in list(named) + (["z"] if rare() else []):
        if not rare():
            extents[ix] = draw(st.one_of(st.booleans(), st.just(2.0), st.integers(-1, 0))) \
                if rare() else draw(st.integers(1, 3))
    once = [ix for ix in named if sum(ix in ixs for _, ixs in tensors) == 1]
    output = [ix for ix in named if (ix in once) != rare()]
    if rare():
        output.append(draw(st.sampled_from(["z", "", 7, ["a"], *named])))
    if tensors and rare():  # a name no document carries
        pos = draw(st.integers(0, len(tensors) - 1))
        tid, ixs = tensors[pos]
        tensors[pos] = (tid, ixs + (draw(st.sampled_from(["", 7, True, ["a"]])),))
    return tuple(tensors), extents, tuple(draw(st.permutations(output)))


@settings(max_examples=400, deadline=None)
@given(case=_networks_with_faults())
def test_network_validation_matches_reference_random(case):
    tensors, extents, output = case
    _assert_validates_like_reference(tensors, extents, output)


def test_intermediates_equal_negative(closed6):
    worked = ssa_to_tree(SsaPath(WORKED_PAIRS), closed6)
    chain = ssa_to_tree(SsaPath(((0, 1), (6, 2), (7, 3), (8, 4), (9, 5))), closed6)
    assert not intermediates_equal(worked, chain)


def _random_pairs(rng, n):
    alive = list(range(n))
    pairs = []
    nxt = n
    while len(alive) > 1:
        a = alive.pop(rng.randrange(len(alive)))
        b = alive.pop(rng.randrange(len(alive)))
        pairs.append((a, b))
        alive.append(nxt)
        nxt += 1
    return tuple(pairs)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 9))
def test_ssa_round_trip_property(seed, n):
    from einpath import GenConfig, generate

    rng = Random(seed)
    net = generate(GenConfig(n_tensors=n, n_open=rng.randrange(3), extent_max=4, seed=seed))
    tree = ssa_to_tree(SsaPath(_random_pairs(rng, n)), net)
    validate_tree(tree, net)
    again = ssa_to_tree(tree_to_ssa(tree), net)
    assert intermediates_equal(tree, again)
    assert cost(again, net.extents) == cost(tree, net.extents)


def _outcome(fn, *args):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return "returned", fn(*args)
    except EinPathError as err:
        return type(err), str(err)


@settings(max_examples=200, deadline=None)
@given(net=hyper_networks(), data=st.data(),
       flaw=st.sampled_from(["none", "self", "unknown", "reuse", "short", "not a pair"]))
def test_ssa_to_tree_matches_counter_reference(net, data, flaw):
    # same tree, or the same error with the same message, on full and on
    # broken paths
    n = len(net.tensors)
    pairs = list(_random_pairs(Random(data.draw(st.integers(0, 10**6))), n))
    if pairs and flaw != "none":
        step = data.draw(st.integers(0, len(pairs) - 1))
        a, b = pairs[step]
        if flaw == "self":
            pairs[step] = (a, a)
        elif flaw == "unknown":
            pairs[step] = (a, data.draw(st.sampled_from([-1, n + step, n + len(pairs)])))
        elif flaw == "reuse":
            used = [x for pair in pairs[:step] for x in pair]
            if used:
                pairs[step] = (a, data.draw(st.sampled_from(used)))
        elif flaw == "short":
            del pairs[step:]
        else:
            pairs[step] = data.draw(st.sampled_from([(a,), (a, b, a), a]))
    want = _outcome(ssa_to_tree_reference, pairs, net)
    assert _outcome(ssa_to_tree, pairs, net) == want
    # verify_path rebuilds the same tree, priced as cost() prices it, and
    # raises the same errors
    got = _outcome(verify_path, pairs, net)
    if want[0] == "returned":
        want = "returned", (want[1], cost(want[1], net.extents))
    assert got == want


def _random_nary_tree(net, draw, flaw):
    """A random tree of 2-4-ary nodes with heads by the keep rule, then one
    flaw: a repeated leaf, a leaf id out of range, a wrong leaf or branch
    head, or a one-argument branch."""
    appear = index_appearances(net)
    n = len(net.tensors)
    ids = list(range(n))
    if flaw == "repeated leaf" and n > 1:
        ids[draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    nodes = [(EinExpr.leaf(net.tensors[t]), Counter(net.tensors[t].indices)) for t in ids]
    if flaw == "bad leaf id":
        nodes[-1] = (EinExpr(head=nodes[-1][0].head, leaf_id=n), nodes[-1][1])
    if flaw == "wrong leaf head":
        nodes[0] = (EinExpr(head=nodes[0][0].head | {"zz"}, leaf_id=0), nodes[0][1])
    wrong = draw(st.integers(0, max(0, n - 2))) if flaw == "wrong head" else None
    made = 0
    while len(nodes) > 1:
        k = draw(st.integers(2, min(4, len(nodes))))
        picked = [nodes.pop(draw(st.integers(0, len(nodes) - 1))) for _ in range(k)]
        counts = sum((c for _, c in picked), Counter())
        counts = Counter({ix: c for ix, c in counts.items() if c < appear[ix]})
        head = frozenset(counts)
        if made == wrong:
            head = head ^ {draw(st.sampled_from(sorted(net.extents) + ["zz"]))}
        nodes.append((EinExpr(head=head, args=tuple(e for e, _ in picked)), counts))
        made += 1
    tree = nodes[0][0]
    if flaw == "unary branch":
        tree = EinExpr(head=tree.head, args=(tree,))
    return tree


@settings(max_examples=200, deadline=None)
@given(net=hyper_networks(), data=st.data(), flaw=st.sampled_from(
    ["none", "naive", "repeated leaf", "bad leaf id", "wrong leaf head", "wrong head",
     "unary branch"]))
def test_validate_tree_matches_counter_reference(net, data, flaw):
    # n-ary nodes, wrong heads and repeated leaves: the same verdict and,
    # on a flaw, the same error with the same message
    if flaw == "naive":
        tree = naive(net)
    else:
        tree = _random_nary_tree(net, data.draw, flaw)
    got = _outcome(validate_tree, tree, net)
    assert got == _outcome(validate_tree_reference, tree, net)
    if flaw == "none":
        assert got == ("returned", None)
