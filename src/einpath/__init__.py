"""Contraction-path tools for tensor networks.

Networks are hypergraphs of index-labeled tensors; a contraction path is a
binary expression tree over them. This package finds such trees (greedy,
exhaustive, recursive-bisection), prices them exactly in integer arithmetic,
and moves them in and out of JSON, einsum strings and DOT.

The public API is the union of the modules' `__all__` lists, re-exported here.
"""

from . import core, errors, formats, generate, greedy, partition, search

__all__ = sorted(
    name
    for module in (core, errors, formats, generate, greedy, partition, search)
    for name in module.__all__
)

# `generate` and `greedy` name a module and a function each: the star imports
# come after __all__ is built, so the package attributes are the functions
from .core import *
from .errors import *
from .formats import *
from .generate import *
from .greedy import *
from .partition import *
from .search import *

__version__ = "0.1.0"
