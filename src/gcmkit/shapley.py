"""Shapley values of arbitrary set functions, exact or by permutation sampling.

A set function is asked for its values in batches: each subset is a Python
``int`` bitmask (bit i set when player i is in it), so the permutation
method has no limit on the number of players.
"""

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericError, QueryError
from .seeds import rng_for

_EXACT_LIMIT = 20


@dataclass(frozen=True)
class SetFunction:
    """A game: ``evaluator`` maps a list of subsets to one value per subset.

    Each subset is an ``int`` bitmask over ``arity`` players.  The evaluator
    must be defined for every subset, including the empty one (bitmask 0).
    It may be stochastic: a subset listed twice is then sampled twice.
    """

    arity: int
    evaluator: object


@dataclass(frozen=True)
class ShapleyConfig:
    method: str = "exact"  # "exact" or "permutation"
    num_permutations: int = 1000
    seed: int = 0


def _evaluate(set_function, subsets):
    values = np.asarray(set_function.evaluator(subsets), dtype=np.float64)
    if values.shape != (len(subsets),):
        raise QueryError(f"set function returned {values.size} values for {len(subsets)} subsets")
    if not np.isfinite(values).all():
        raise NumericError("set function returned a non-finite value")
    return values


def estimate_shapley(set_function: SetFunction, config: ShapleyConfig = ShapleyConfig()) -> np.ndarray:
    """Attribute ``v(all) - v(none)`` across players, in one evaluator call.

    The exact method asks for all 2^n subsets and weights marginal
    contributions by |S|!(n-|S|-1)!/n!, so efficiency, symmetry, and the
    null-player property hold up to float rounding.  The permutation method
    averages marginal contributions along randomly ordered insertions: each
    permutation draws its own seeded ordering, and the n + 1 subsets of every
    ordering's chain are asked for together, so stochastic evaluators are
    sampled once per occurrence.
    """
    n = set_function.arity
    check_players(n, config)
    if config.method == "exact":
        return _exact(set_function, n)
    return _permutation(set_function, n, config.num_permutations, config.seed)


def check_players(n, config: ShapleyConfig = ShapleyConfig()):
    """Raise :class:`QueryError` unless ``config`` can attribute over ``n``
    players: at least one, at most ``_EXACT_LIMIT`` for the exact method, a
    known method and a positive number of permutations.  A query calls it
    as soon as it knows its players, before it fits or draws anything."""
    if n < 1:
        raise QueryError("set function needs at least one player")
    if config.method == "exact":
        if n > _EXACT_LIMIT:
            raise QueryError(
                f"exact Shapley enumeration is limited to {_EXACT_LIMIT} players, got {n}"
            )
    elif config.method == "permutation":
        if config.num_permutations < 1:
            raise QueryError("num_permutations must be positive")
    else:
        raise QueryError(f"unknown Shapley method {config.method!r}")


def _exact(set_function, n):
    values = _evaluate(set_function, range(1 << n))

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
    orders = [rng_for(seed, f"perm:{index}").permutation(n) for index in range(num_permutations)]
    chains = [
        itertools.accumulate((1 << int(player) for player in order), operator.or_, initial=0)
        for order in orders
    ]
    values = _evaluate(set_function, [bits for chain in chains for bits in chain])
    gains = np.diff(values.reshape(num_permutations, n + 1), axis=1)
    phi = np.zeros(n)
    for order, gain in zip(orders, gains):
        phi[order] += gain
    return phi / num_permutations
