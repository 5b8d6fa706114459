"""Contraction-path tools for tensor networks.

Networks are hypergraphs of index-labeled tensors; a contraction path is a
binary expression tree over them. This package finds such trees (greedy,
exhaustive, recursive-bisection), prices them exactly in integer arithmetic,
and moves them in and out of JSON, einsum strings and DOT.
"""

from .core import (
    CostReport,
    EinExpr,
    SsaPath,
    TensorNetwork,
    TensorSig,
    cost,
    index_appearances,
    intermediates_equal,
    naive,
    ssa_to_tree,
    summed_indices,
    tensor_size,
    tree_to_ssa,
    validate_tree,
)
from .errors import (
    BudgetError,
    EinPathError,
    EinsumSyntaxError,
    GenerationError,
    InvalidContractionError,
    MalformedPathError,
    MissingExtentError,
    NetworkValidationError,
    TraceError,
    UnsupportedArityError,
)
from .formats import (
    document_to_network,
    document_to_path,
    dumps_network,
    dumps_path,
    export_dot,
    loads_network,
    loads_path,
    network_to_document,
    parse_einsum,
    path_to_document,
)
from .generate import GenConfig, generate
from .greedy import GreedyConfig, greedy, sampled_greedy
from .partition import (
    Hypergraph,
    PartitionConfig,
    bisect,
    build_hypergraph,
    cut_weight,
    partition_optimize,
)
from .search import SearchConfig, SearchStats, exhaustive_bfs, exhaustive_dfs

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CostReport",
    "EinExpr",
    "EinPathError",
    "EinsumSyntaxError",
    "GenConfig",
    "GenerationError",
    "GreedyConfig",
    "Hypergraph",
    "InvalidContractionError",
    "MalformedPathError",
    "MissingExtentError",
    "NetworkValidationError",
    "PartitionConfig",
    "SearchConfig",
    "SearchStats",
    "SsaPath",
    "TensorNetwork",
    "TensorSig",
    "TraceError",
    "UnsupportedArityError",
    "bisect",
    "build_hypergraph",
    "cost",
    "cut_weight",
    "document_to_network",
    "document_to_path",
    "dumps_network",
    "dumps_path",
    "exhaustive_bfs",
    "exhaustive_dfs",
    "export_dot",
    "generate",
    "greedy",
    "index_appearances",
    "intermediates_equal",
    "loads_network",
    "loads_path",
    "naive",
    "network_to_document",
    "parse_einsum",
    "partition_optimize",
    "path_to_document",
    "sampled_greedy",
    "ssa_to_tree",
    "summed_indices",
    "tensor_size",
    "tree_to_ssa",
    "validate_tree",
]
