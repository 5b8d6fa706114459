import json
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import EQUATION, EXTENTS
from einpath import (
    CostReport,
    EinsumSyntaxError,
    NetworkValidationError,
    MalformedPathError,
    SearchConfig,
    SsaPath,
    TensorNetwork,
    TensorSig,
    TraceError,
    document_to_network,
    document_to_path,
    dumps_network,
    dumps_path,
    export_dot,
    loads_network,
    loads_path,
    naive,
    network_to_document,
    parse_einsum,
    path_to_document,
    ssa_to_tree,
)
from einpath.search import exhaustive_dfs


def _doc():
    return {
        "tensors": [
            {"id": 0, "indices": ["a", "b"]},
            {"id": 1, "indices": ["b"]},
        ],
        "extents": {"a": 2, "b": 3},
        "output": ["a"],
    }


def test_network_round_trip(closed6):
    assert document_to_network(network_to_document(closed6)) == closed6
    assert loads_network(dumps_network(closed6)) == closed6


def test_dumps_network_canonical():
    net = parse_einsum("ab,b->a", {"b": 3, "a": 2})
    expected = (
        '{\n'
        '  "tensors": [\n'
        '    {\n'
        '      "id": 0,\n'
        '      "indices": [\n'
        '        "a",\n'
        '        "b"\n'
        '      ]\n'
        '    },\n'
        '    {\n'
        '      "id": 1,\n'
        '      "indices": [\n'
        '        "b"\n'
        '      ]\n'
        '    }\n'
        '  ],\n'
        '  "extents": {\n'
        '    "a": 2,\n'
        '    "b": 3\n'
        '  },\n'
        '  "output": [\n'
        '    "a"\n'
        '  ]\n'
        '}\n'
    )
    assert dumps_network(net) == expected


# Names that json.dumps escapes: a quote, a backslash, control characters,
# non-ASCII (one outside the BMP, written as a surrogate pair), a lone surrogate.
_ODD_NAMES = ('q"', "b\\s", "\x00", "\n\t", "\x7f", "\u00e9", "\u2028", "\U0001f600", "\ud800")


def _network_oracle(net):
    return json.dumps(network_to_document(net), indent=2) + "\n"


def _path_oracle(*args):
    return json.dumps(path_to_document(*args), indent=2) + "\n"


@st.composite
def _named_networks(draw):
    """Valid networks over arbitrary non-empty names and extents up to 2^80;
    an index on one tensor is always an output."""
    names = draw(st.lists(st.one_of(st.sampled_from(_ODD_NAMES), st.text(min_size=1, max_size=4)),
                          unique=True, max_size=6))
    n = draw(st.integers(1, 4))
    tensors = [[] for _ in range(n)]
    extents = {}
    output = []
    for name in names:
        members = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
        for t in members:
            tensors[t].append(name)
        extents[name] = draw(st.integers(1, 2**80))
        if len(members) == 1 or draw(st.booleans()):
            output.append(name)
    sigs = tuple(TensorSig(t, tuple(draw(st.permutations(ixs)))) for t, ixs in enumerate(tensors))
    return TensorNetwork(sigs, extents, tuple(draw(st.permutations(output))))


@settings(max_examples=200, deadline=None)
@given(net=_named_networks())
def test_dumps_network_is_json_dumps(net):
    text = dumps_network(net)
    assert text == _network_oracle(net)
    assert loads_network(text) == net


@pytest.mark.parametrize("net", [
    TensorNetwork((TensorSig(0, ()),), {}, ()),
    TensorNetwork((TensorSig(0, _ODD_NAMES), TensorSig(1, _ODD_NAMES[::-1])),
                  dict.fromkeys(_ODD_NAMES, 2**70), ()),
    TensorNetwork((TensorSig(0, ("a", "\u00e9")), TensorSig(1, ("a",))), {"a": 2, "\u00e9": 3},
                  ("\u00e9",)),
], ids=["one-tensor-no-indices", "escaped-names-closed", "non-ascii-output"])
def test_dumps_network_edge_cases(net):
    assert dumps_network(net) == _network_oracle(net)
    assert loads_network(dumps_network(net)) == net


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=5),
    costs=st.tuples(*[st.integers(0, 10**60)] * 3),
    optimizer=st.one_of(st.sampled_from(_ODD_NAMES), st.text()),
    seed=st.integers(-(10**40), 10**40),
)
def test_dumps_path_is_json_dumps(pairs, costs, optimizer, seed):
    path, report = SsaPath(tuple(pairs)), CostReport(*costs)
    text = dumps_path(path, report, optimizer, seed)
    assert text == _path_oracle(path, report, optimizer, seed)
    assert loads_path(text) == (path, report, optimizer, seed)


@pytest.mark.parametrize("seed", [0, -1, -(2**63), 2**64, 10**100])
def test_dumps_path_empty_path_and_extreme_seeds(seed):
    path, report = SsaPath(()), CostReport(0, 0, 1)
    text = dumps_path(path, report, "", seed)
    assert text == _path_oracle(path, report, "", seed)
    assert '"ssa_path": [],' in text
    assert loads_path(text) == (path, report, "", seed)


@pytest.mark.parametrize("tensors, extents, output, location", [
    ((TensorSig(0, (1, 2)), TensorSig(1, (1, 2))), {1: 2, 2: 3}, (), "tensors[0].indices[0]"),
    ((TensorSig(0, ("a",)), TensorSig(1, ("a", ""))), {"a": 2, "": 3}, ("",),
     "tensors[1].indices[1]"),
    ((TensorSig(0, ("a", "b")), TensorSig(1, ("a", "b", 7))), {"a": 2, "b": 2, 7: 2}, (7,),
     "tensors[1].indices[2]"),
], ids=["int-names", "empty-name", "mixed-names"])
def test_network_refuses_unloadable_names(tensors, extents, output, location):
    """No network holds a name its document could not carry: the constructor
    refuses it where the loader refuses the document json.dumps writes."""
    with pytest.raises(NetworkValidationError) as info:
        TensorNetwork(tensors, extents, output)
    assert (info.value.location, info.value.reason) == (location, "index names are non-empty strings")
    if location != "tensors[1].indices[2]":  # json.dumps cannot sort mixed names at all
        unbuilt = SimpleNamespace(tensors=tensors, extents=extents, output=output)
        with pytest.raises(NetworkValidationError) as loaded:
            loads_network(_network_oracle(unbuilt))
        assert (loaded.value.location, loaded.value.reason) == (location, info.value.reason)


def test_dumps_network_refuses_extent_past_digit_limit():
    net = TensorNetwork((TensorSig(0, ("a",)), TensorSig(1, ("a",))), {"a": 10**4500}, ())
    with pytest.raises(NetworkValidationError, match="4300") as info:
        dumps_network(net)
    assert info.value.location == "$"  # where loads_network puts its digit-limit refusal


@pytest.mark.parametrize("report, optimizer, seed, message", [
    (CostReport(10**4500, 16, 41), "greedy", 0, "cost.flops: Exceeds"),
    (CostReport(104, 16, 10**4500), "greedy", 0, "cost.write_volume: Exceeds"),
    (CostReport(104, -16, 41), "greedy", 0, "cost.peak_size must be a decimal string"),
    (CostReport(104, 16, 41), None, 0, "optimizer must be a string"),
    (CostReport(104, 16, 41), "greedy", True, "seed must be an integer"),
    (CostReport(104, 16, 41), "greedy", 2.0, "seed must be an integer"),
    (CostReport(104, 16, 41), "greedy", 10**4500, "Exceeds the limit"),
], ids=["flops-digits", "write-digits", "negative", "optimizer", "seed-true", "seed-float",
        "seed-digits"])
def test_dumps_path_refuses_what_loads_path_refuses(report, optimizer, seed, message):
    with pytest.raises(MalformedPathError, match=message):
        dumps_path(SsaPath(((0, 1),)), report, optimizer, seed)


@pytest.mark.parametrize("mutate, location", [
    (lambda d: d.pop("tensors"), "$"),
    (lambda d: d.update(tensors={}), "$.tensors"),
    (lambda d: d.update(extra=1), "extra"),
    (lambda d: d["tensors"].__setitem__(0, 7), "tensors[0]"),
    (lambda d: d["tensors"][1].update(id="1"), "tensors[1].id"),
    (lambda d: d["tensors"][0]["indices"].__setitem__(1, ""), "tensors[0].indices[1]"),
    (lambda d: d["tensors"][1].update(shape=[3]), "tensors[1].shape"),
    (lambda d: d["tensors"][0].update(indices=["a", "a"]), "tensors[0].indices"),
    (lambda d: d["extents"].update(b=True), "extents.b"),
    (lambda d: d["output"].__setitem__(0, 9), "output[0]"),
    (lambda d: d["tensors"][1].update(indices=[["b"]]), "tensors[1].indices[0]"),
    (lambda d: d.update(output=["a", {"a": 1}]), "output[1]"),
])
def test_network_validation_locations(mutate, location):
    # unhashable names and output entries are refused there too, never a TypeError
    doc = _doc()
    mutate(doc)
    with pytest.raises(NetworkValidationError) as info:
        document_to_network(doc)
    assert info.value.location == location


def test_loads_network_bad_json():
    with pytest.raises(NetworkValidationError, match="line 2 column"):
        loads_network('{\n  "tensors": [}\n}')


def test_documents_must_be_objects():
    with pytest.raises(NetworkValidationError, match=r"^\$: document must be an object$"):
        loads_network("[]")
    with pytest.raises(MalformedPathError, match="^path document must be an object$"):
        loads_path("[]")


def test_loads_network_integer_past_digit_limit():
    # json.loads raises a plain ValueError past Python's 4,300-digit limit
    text = '{"tensors": [{"id": 0, "indices": ["a"]}], "extents": {"a": %s}, "output": ["a"]}'
    with pytest.raises(NetworkValidationError, match="4300"):
        loads_network(text % ("9" * 5000))


def test_path_round_trip():
    path = SsaPath(((0, 1), (2, 3)))
    report = CostReport(10**40, 3, 10**38 + 1)
    text = dumps_path(path, report, "greedy", 7)
    back_path, back_report, optimizer, seed = loads_path(text)
    assert back_path == path
    assert back_report == report
    assert (optimizer, seed) == ("greedy", 7)
    # huge counts ride along as decimal strings, never floats
    assert f'"{10 ** 40}"' in text


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.pop("ssa_path"), "ssa_path"),
    (lambda d: d["ssa_path"].append([4]), "ssa_path\\[2\\] is not a pair"),
    (lambda d: d["ssa_path"].__setitem__(0, [0, True]), "ssa_path\\[0\\] is not a pair"),
    (lambda d: d.pop("cost"), "cost must be an object"),
    (lambda d: d["cost"].update(flops=104), "cost.flops must be a decimal string"),
    (lambda d: d["cost"].update(peak_size="-3"), "cost.peak_size must be a decimal string"),
    (lambda d: d.pop("optimizer"), "optimizer must be a string"),
    (lambda d: d.update(seed=True), "seed must be an integer"),
])
def test_path_validation(mutate, message):
    doc = path_to_document(SsaPath(((0, 1), (2, 3))), CostReport(104, 16, 41), "greedy", 0)
    mutate(doc)
    with pytest.raises(MalformedPathError, match=message):
        document_to_path(doc)


@pytest.mark.parametrize("pairs", [
    ((0.9, 1.7), ("3", 2)),
    ((0.9, 4), (6, 5), (1, 2), (8, 3), (7, 9)),
    (("3", 4), (6, 5), (1, 2), (8, 3), (7, 9)),
    ((True, 4), (6, 5), (0, 2), (8, 3), (7, 9)),
], ids=["floats-and-str", "float", "str", "bool"])
def test_path_ids_are_checked_not_coerced(closed6, pairs):
    path = SsaPath(pairs)
    assert path.pairs[0][0] is pairs[0][0]  # kept as given, not converted
    with pytest.raises(MalformedPathError, match="pair 0 references unknown id"):
        ssa_to_tree(path, closed6)
    for write in (path_to_document, dumps_path):
        with pytest.raises(MalformedPathError, match="ssa_path\\[0\\] is not a pair of integers"):
            write(path, CostReport(104, 16, 41), "greedy", 0)


def test_ssa_path_refuses_three_element_pair():
    # and any other entry that is not a pair, with ssa_to_tree's wording
    for entry in ((0, 1, 2), (0,), 5):
        with pytest.raises(MalformedPathError, match=re.escape(f"pair 1 is not a pair: {entry!r}")):
            SsaPath(((0, 1), entry))


@pytest.mark.parametrize("text, message", [
    # isdigit() alone admits superscripts, which int() rejects, and other scripts' digits
    ("\u00b2", "cost.flops must be a decimal string"),
    ("\u0661\u0662", "cost.flops must be a decimal string"),
    ("9" * 5000, "cost.flops: Exceeds"),
], ids=["superscript", "arabic-indic", "past-digit-limit"])
def test_cost_string_not_ascii_decimal(text, message):
    doc = path_to_document(SsaPath(((0, 1), (2, 3))), CostReport(104, 16, 41), "greedy", 0)
    doc["cost"]["flops"] = text
    with pytest.raises(MalformedPathError, match=message):
        document_to_path(doc)


def test_loads_path_bad_json():
    with pytest.raises(MalformedPathError, match="line 1 column"):
        loads_path("[1,")
    with pytest.raises(MalformedPathError, match="4300"):
        loads_path('{"seed": %s}' % ("9" * 5000))


def test_parse_einsum_worked_example(closed6):
    assert parse_einsum(EQUATION, EXTENTS) == closed6
    spaced = " im , ijp,jkn, klp ,mno,lo -> "
    assert parse_einsum(spaced, EXTENTS) == closed6


def test_parse_einsum_extents_filtered():
    net = parse_einsum("ij,jk->ik", {"i": 2, "j": 3, "k": 4, "z": 9})
    assert "z" not in net.extents


def test_parse_einsum_errors():
    with pytest.raises(EinsumSyntaxError, match="explicit '->'"):
        parse_einsum("ij,jk", {"i": 2, "j": 2, "k": 2})
    with pytest.raises(EinsumSyntaxError, match="more than one"):
        parse_einsum("ij->j->j", {"i": 2, "j": 2})
    with pytest.raises(EinsumSyntaxError, match="no operands"):
        parse_einsum("->", {})
    with pytest.raises(EinsumSyntaxError, match="never appears"):
        parse_einsum("ij,jk->iz", {"i": 2, "j": 2, "k": 2, "z": 2})
    with pytest.raises(EinsumSyntaxError, match="repeats"):
        parse_einsum("ij,jk->ii", {"i": 2, "j": 2, "k": 2})
    with pytest.raises(EinsumSyntaxError, match="letters"):
        parse_einsum("i1,1k->ik", {"i": 2, "1": 2, "k": 2})
    with pytest.raises(TraceError):
        parse_einsum("ii->", {"i": 2})
    with pytest.raises(NetworkValidationError, match="missing extent for index 'k'"):
        parse_einsum("ij,jk->ik", {"i": 2, "j": 3})


def test_export_dot_frozen():
    net = parse_einsum("ij,jk->ik", {"i": 2, "j": 3, "k": 4})
    tree, _, _ = exhaustive_dfs(net, SearchConfig())
    expected = (
        "digraph contraction {\n"
        "  t0 [shape=point];\n"
        "  t1 [shape=point];\n"
        '  n2 [label="24", weight="1.380211"];\n'
        "  out [shape=point];\n"
        '  t0 -> n2 [label="6", weight="0.778151"];\n'
        '  t1 -> n2 [label="12", weight="1.079181"];\n'
        '  n2 -> out [label="8", weight="0.903090"];\n'
        "}\n"
    )
    assert export_dot(tree, net) == expected
    assert export_dot(tree, net) == export_dot(tree, net)


def test_export_dot_nary(closed6):
    # the single-node tree still renders: one contraction, six incoming edges
    text = export_dot(naive(closed6), closed6)
    assert text.count("-> n6") == 6
    assert "n6 -> out" in text


def test_export_dot_worked_tree(closed6):
    tree, _, _ = exhaustive_dfs(closed6, SearchConfig())
    text = export_dot(tree, closed6)
    assert text.startswith("digraph contraction {\n")
    assert text.count("shape=point") == 7  # six leaves and the out anchor
    assert text.count("label=") == 5 + 11  # five branches, eleven edges
