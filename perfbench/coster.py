"""Cost of an SSA path, recomputed without einpath, in Python ints.

It works from the network's JSON document and the path's pairs alone, so a
fault in einpath's own costing cannot hide behind itself.
"""

from collections import Counter
from math import prod


def ssa_cost(pairs, network_doc):
    """(flops, peak size, write volume) of contracting `pairs` in order.

    An index stays on an intermediate while some tensor outside it, or the
    output, still carries it. Each contraction costs the product of the
    extents over the union of its operands. The scalar root is written but
    is not an intermediate, so it does not count toward the peak.
    """
    extents = network_doc["extents"]
    appear = Counter(ix for t in network_doc["tensors"] for ix in t["indices"])
    appear.update(network_doc["output"])
    terms = [Counter(t["indices"]) for t in network_doc["tensors"]]
    flops = peak = write = 0
    for step, (a, b) in enumerate(pairs):
        if terms[a] is None or terms[b] is None or a == b:
            raise ValueError(f"pair {step} reuses a consumed term")
        counts = terms[a] + terms[b]
        terms[a] = terms[b] = None
        flops += prod(extents[ix] for ix in counts)
        head = Counter({ix: c for ix, c in counts.items() if c < appear[ix]})
        size = prod(extents[ix] for ix in head)
        write += size
        if head or step < len(pairs) - 1:
            peak = max(peak, size)
        terms.append(head)
    return flops, peak, write
