"""Shapley values of arbitrary set functions, exact or by permutation sampling."""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericError, QueryError
from .seeds import derive_seed

_EXACT_LIMIT = 20


@dataclass(frozen=True)
class SetFunction:
    """A game: ``evaluator`` maps a boolean player mask of length ``arity`` to a value.

    The evaluator must be defined for every subset, including the empty one,
    and may be stochastic.
    """

    arity: int
    evaluator: object


@dataclass(frozen=True)
class ShapleyConfig:
    method: str = "exact"  # "exact" or "permutation"
    num_permutations: int = 1000
    seed: int = 0


def _mask_from_bits(bits, arity):
    return (bits >> np.arange(arity) & 1).astype(bool)


def _checked(value):
    value = float(value)
    if not math.isfinite(value):
        raise NumericError("set function returned a non-finite value")
    return value


def estimate_shapley(set_function: SetFunction, config: ShapleyConfig = ShapleyConfig()) -> np.ndarray:
    """Attribute ``evaluator(all) - evaluator(none)`` across players.

    The exact method enumerates all subsets once (memoised) and weights
    marginal contributions by |S|!(n-|S|-1)!/n!, so efficiency, symmetry, and
    the null-player property hold up to float rounding.  The permutation
    method averages marginal contributions along randomly ordered insertions;
    each permutation draws its own seeded ordering and re-evaluates its chain,
    so stochastic evaluators are sampled once per occurrence.
    """
    n = set_function.arity
    if n < 1:
        raise QueryError("set function needs at least one player")
    if config.method == "exact":
        if n > _EXACT_LIMIT:
            raise QueryError(
                f"exact Shapley enumeration is limited to {_EXACT_LIMIT} players, got {n}"
            )
        return _exact(set_function, n)
    if config.method == "permutation":
        if config.num_permutations < 1:
            raise QueryError("num_permutations must be positive")
        return _permutation(set_function, n, config.num_permutations, config.seed)
    raise QueryError(f"unknown Shapley method {config.method!r}")


def _exact(set_function, n):
    values = np.empty(1 << n)
    for bits in range(1 << n):
        values[bits] = _checked(set_function.evaluator(_mask_from_bits(bits, n)))

    # weight[s] = s!(n-s-1)!/n! for a subset of size s not containing the player
    weight = np.array([1.0 / (n * math.comb(n - 1, s)) for s in range(n)])
    subsets = np.arange(1 << n)
    size_of = sum(subsets >> i & 1 for i in range(n))

    phi = np.zeros(n)
    for player in range(n):
        bit = 1 << player
        without = subsets[(subsets & bit) == 0]
        gains = values[without | bit] - values[without]
        phi[player] = float(np.sum(weight[size_of[without]] * gains))
    return phi


def _permutation(set_function, n, num_permutations, seed):
    phi = np.zeros(n)
    for index in range(num_permutations):
        rng = np.random.default_rng(derive_seed(seed, f"perm:{index}"))
        order = rng.permutation(n)
        mask = np.zeros(n, dtype=bool)
        previous = _checked(set_function.evaluator(mask.copy()))
        for player in order:
            mask[player] = True
            current = _checked(set_function.evaluator(mask.copy()))
            phi[player] += current - previous
            previous = current
    return phi / num_permutations
