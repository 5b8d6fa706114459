"""Seeded random tensor networks for tests and benchmarks."""

from dataclasses import dataclass
from random import Random

from ._util import check_int, check_number, derive_seed
from .core import TensorNetwork, TensorSig
from .errors import EinPathError, GenerationError

__all__ = ["GenConfig", "generate"]

_MAX_ATTEMPTS = 1000
_MAX_TOTAL = 1 << 24  # most tensors plus contracting and open indices a config may ask for


@dataclass(frozen=True)
class GenConfig:
    n_tensors: int
    regularity: float = 3.0
    n_open: int = 0
    extent_min: int = 2
    extent_max: int = 2
    seed: int = 0
    max_indices: int | None = None

    def __post_init__(self):
        check_int("n_tensors", self.n_tensors, 1)
        check_number("regularity", self.regularity, 0)
        check_int("n_open", self.n_open, 0)
        check_int("extent_min", self.extent_min, 1)
        check_int("extent_max", self.extent_max, self.extent_min)
        check_int("seed", self.seed)
        if self.max_indices is not None:
            check_int("max_indices", self.max_indices, 0)
        # the ints first: a float product with an int past the largest float overflows
        if (max(self.n_tensors, self.n_open) > _MAX_TOTAL
                or self.n_tensors + self.n_open + self.n_tensors * self.regularity / 2 > _MAX_TOTAL):
            raise EinPathError(
                f"n_tensors + n_open + n_tensors * regularity / 2 must be at most {_MAX_TOTAL}"
            )


def _distinct_pair(rng, n, first=None):
    a = rng.randrange(n) if first is None else first
    b = rng.randrange(n - 1)
    if b >= a:
        b += 1
    return a, b


def _build(config, attempt):
    rng = Random(derive_seed(config.seed, attempt))
    n = config.n_tensors
    base = round(n * config.regularity / 2)
    if base > 0 and n < 2:
        raise GenerationError("contracting indices need at least two tensors")
    indices = [[] for _ in range(n)]
    extents = {}
    k = 0
    for _ in range(base):
        a, b = _distinct_pair(rng, n)
        name = f"c{k}"
        k += 1
        indices[a].append(name)
        indices[b].append(name)
        extents[name] = rng.randint(config.extent_min, config.extent_max)
    output = []
    for j in range(config.n_open):
        t = rng.randrange(n)
        name = f"o{j}"
        indices[t].append(name)
        extents[name] = rng.randint(config.extent_min, config.extent_max)
        output.append(name)
    # a tensor the pairing never touched still needs a leg somewhere
    for t in range(n):
        if not indices[t] and n >= 2:
            _, other = _distinct_pair(rng, n, first=t)
            name = f"c{k}"
            k += 1
            indices[t].append(name)
            indices[other].append(name)
            extents[name] = rng.randint(config.extent_min, config.extent_max)
    tensors = tuple(TensorSig(i, tuple(ixs)) for i, ixs in enumerate(indices))
    return TensorNetwork(tensors, extents, tuple(output)), k


def generate(config):
    """Random network: round(n * regularity / 2) contracting indices, each
    shared by a uniform pair of distinct tensors, plus n_open output legs on
    random tensors. Extents are uniform in [extent_min, extent_max]. Fully
    deterministic in the seed; when max_indices is set, fresh attempts (with
    a seed derived from the attempt number) run until the contracting-index
    count fits, or GenerationError after 1000 tries."""
    base = round(config.n_tensors * config.regularity / 2)
    if config.max_indices is not None and base > config.max_indices:
        raise GenerationError(
            f"regularity {config.regularity} needs {base} contracting indices, "
            f"above the cap of {config.max_indices}"
        )
    for attempt in range(_MAX_ATTEMPTS):
        network, n_contracting = _build(config, attempt)
        if config.max_indices is None or n_contracting <= config.max_indices:
            return network
    raise GenerationError(
        f"no network with at most {config.max_indices} contracting indices "
        f"after {_MAX_ATTEMPTS} attempts"
    )
