"""Reading and writing networks, paths and einsum strings."""

import json

from .core import CostReport, SsaPath, TensorNetwork, TensorSig
from .errors import EinsumSyntaxError, NetworkValidationError, MalformedPathError, TraceError

__all__ = [
    "network_to_document",
    "document_to_network",
    "dumps_network",
    "loads_network",
    "path_to_document",
    "document_to_path",
    "dumps_path",
    "loads_path",
    "parse_einsum",
]


def _need(doc, key, kind, location, kindname):
    if key not in doc:
        raise NetworkValidationError(location, f"missing key '{key}'")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise NetworkValidationError(f"{location}.{key}", f"expected {kindname}")
    return value


def network_to_document(network):
    return {
        "tensors": [
            {"id": sig.id, "indices": list(sig.indices)} for sig in network.tensors
        ],
        "extents": {ix: network.extents[ix] for ix in sorted(network.extents)},
        "output": list(network.output),
    }


def document_to_network(doc):
    """Build a network from its JSON document, pointing at whatever is wrong.

    Only the document's shape is checked here; TensorNetwork checks ids,
    names, extents and output."""
    if not isinstance(doc, dict):
        raise NetworkValidationError("$", "document must be an object")
    for key in doc:
        if key not in ("tensors", "extents", "output"):
            raise NetworkValidationError(key, "unexpected key")
    tensors_raw = _need(doc, "tensors", list, "$", "an array")
    extents_raw = _need(doc, "extents", dict, "$", "an object")
    output_raw = _need(doc, "output", list, "$", "an array")

    sigs = []
    for pos, entry in enumerate(tensors_raw):
        where = f"tensors[{pos}]"
        if not isinstance(entry, dict):
            raise NetworkValidationError(where, "expected an object")
        tid = _need(entry, "id", int, where, "an integer")
        indices = _need(entry, "indices", list, where, "an array")
        for key in entry:
            if key not in ("id", "indices"):
                raise NetworkValidationError(f"{where}.{key}", "unexpected key")
        try:
            sigs.append(TensorSig(tid, tuple(indices)))
        except TraceError as exc:
            raise NetworkValidationError(f"{where}.indices", str(exc)) from exc
    return TensorNetwork(tuple(sigs), dict(extents_raw), tuple(output_raw))


def _block(items, pad, brackets="[]"):
    """json.dumps(indent=2) layout of encoded items, in a value on a line indented by pad."""
    if not items:
        return brackets
    sep = ",\n  " + pad
    return f"{brackets[0]}\n  {pad}{sep.join(items)}\n{pad}{brackets[1]}"


def dumps_network(network):
    """Canonical text, byte-identical to json.dumps(network_to_document(network),
    indent=2) plus a newline; raises what loads_network would raise on that text."""
    quote = json.encoder.encode_basestring_ascii
    extents = network.extents
    # an id equals its position (TensorNetwork checks it), written as the int json.dumps writes
    tensors = [
        f'{{\n      "id": {pos},\n      "indices": {_block(list(map(quote, sig.indices)), "      ")}\n    }}'
        for pos, sig in enumerate(network.tensors)
    ]
    try:
        entries = [f"{quote(ix)}: {int.__repr__(extents[ix])}" for ix in sorted(extents)]
    except ValueError as exc:  # an extent past Python's integer digit limit
        raise NetworkValidationError("$", str(exc)) from exc
    return (
        f'{{\n  "tensors": {_block(tensors, "  ")},\n  "extents": {_block(entries, "  ", "{}")},\n'
        f'  "output": {_block(list(map(quote, network.output)), "  ")}\n}}\n'
    )


def loads_network(text):
    return document_to_network(_loads(text))


def _loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkValidationError(
            f"line {exc.lineno} column {exc.colno}", exc.msg
        ) from exc
    except ValueError as exc:  # e.g. an integer past Python's digit limit
        raise NetworkValidationError("$", str(exc)) from exc


def _check_path(doc):
    """The path document's rule, for its writer and its loader alike: pairs of
    ints, decimal cost strings, a string optimizer and an int seed."""
    if not isinstance(doc, dict):
        raise MalformedPathError("path document must be an object")
    pairs = doc.get("ssa_path")
    if not isinstance(pairs, list):
        raise MalformedPathError("ssa_path must be an array of pairs")
    for pos, item in enumerate(pairs):
        if type(item) is not list or len(item) != 2 or not type(item[0]) is type(item[1]) is int:
            raise MalformedPathError(f"ssa_path[{pos}] is not a pair of integers")
    costs = doc.get("cost")
    if not isinstance(costs, dict):
        raise MalformedPathError("cost must be an object")
    for key in ("flops", "peak_size", "write_volume"):
        text = costs.get(key)
        # decimal strings keep arbitrarily large counts exact in JSON
        if not isinstance(text, str) or not (text.isascii() and text.isdigit()):
            raise MalformedPathError(f"cost.{key} must be a decimal string")
    if not isinstance(doc.get("optimizer"), str):
        raise MalformedPathError("optimizer must be a string")
    if type(doc.get("seed")) is not int:
        raise MalformedPathError("seed must be an integer")


def path_to_document(path, report, optimizer, seed):
    """The path document; raises what document_to_path would raise on it."""
    costs = {}
    for key in ("flops", "peak_size", "write_volume"):
        try:
            costs[key] = str(getattr(report, key))
        except ValueError as exc:  # past Python's integer digit limit
            raise MalformedPathError(f"cost.{key}: {exc}") from exc
    pairs = [[a, b] for a, b in path]
    doc = {"ssa_path": pairs, "cost": costs, "optimizer": optimizer, "seed": seed}
    _check_path(doc)
    return doc


def document_to_path(doc):
    """Returns (SsaPath, CostReport, optimizer, seed); costs come back as ints."""
    _check_path(doc)
    values = {}
    for key in ("flops", "peak_size", "write_volume"):
        try:
            values[key] = int(doc["cost"][key])
        except ValueError as exc:  # past Python's integer digit limit
            raise MalformedPathError(f"cost.{key}: {exc}") from exc
    return SsaPath(doc["ssa_path"]), CostReport(**values), doc["optimizer"], doc["seed"]


def dumps_path(path, report, optimizer, seed):
    """Byte-identical to json.dumps(path_to_document(...), indent=2) plus a
    newline; raises what loads_path would raise on that text."""
    doc = path_to_document(path, report, optimizer, seed)
    try:
        seed_text = int.__repr__(seed)
    except ValueError as exc:  # past Python's integer digit limit
        raise MalformedPathError(str(exc)) from exc
    pairs = [f"[\n      {a},\n      {b}\n    ]" for a, b in doc["ssa_path"]]
    costs = [f'"{key}": "{text}"' for key, text in doc["cost"].items()]
    return (
        f'{{\n  "ssa_path": {_block(pairs, "  ")},\n  "cost": {_block(costs, "  ", "{}")},\n'
        f'  "optimizer": {json.encoder.encode_basestring_ascii(optimizer)},\n  "seed": {seed_text}\n}}\n'
    )


def loads_path(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedPathError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:
        raise MalformedPathError(str(exc)) from exc
    return document_to_path(doc)


def parse_einsum(equation, extents):
    """Network from an einsum equation with single-character index names.

    The '->' part is mandatory so the output never has to be inferred.
    Repeated names inside one operand (traces) are not representable and
    raise TraceError.
    """
    text = "".join(equation.split())
    if "->" not in text:
        raise EinsumSyntaxError("equation needs an explicit '->'")
    lhs, _, rhs = text.partition("->")
    if "->" in rhs:
        raise EinsumSyntaxError("more than one '->'")
    if not lhs:
        raise EinsumSyntaxError("no operands before '->'")
    names = set()
    for part in lhs.split(","):
        names.update(part)
    for ch in sorted(names | set(rhs)):
        if not ch.isalpha():
            raise EinsumSyntaxError(f"index names are letters, got {ch!r}")
    seen_out = set()
    for ch in rhs:
        if ch not in names:
            raise EinsumSyntaxError(f"output index '{ch}' never appears on the left")
        if ch in seen_out:
            raise EinsumSyntaxError(f"output index '{ch}' repeats")
        seen_out.add(ch)
    sigs = tuple(
        TensorSig(i, tuple(part)) for i, part in enumerate(lhs.split(","))
    )
    known = {ix: extents[ix] for ix in sorted(names) if ix in extents}
    return TensorNetwork(sigs, known, tuple(rhs))
