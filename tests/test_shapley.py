import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcmkit import NumericError, QueryError, SetFunction, ShapleyConfig, estimate_shapley
from gcmkit.shapley import check_players
from gcmkit.seeds import derive_seed


def batched(game):
    """The set function asking ``game`` for each subset of a batch in turn."""
    return lambda subsets: [game(bits) for bits in subsets]


def members(bits, n):
    return np.array([bool(bits >> i & 1) for i in range(n)])


def shapley_by_permutation_enumeration(game, n):
    """Independent oracle: average marginal contributions over all n! orders."""
    totals = np.zeros(n)
    for order in itertools.permutations(range(n)):
        bits = 0
        previous = game(bits)
        for player in order:
            bits |= 1 << player
            current = game(bits)
            totals[player] += current - previous
            previous = current
    return totals / math.factorial(n)


def sequential_permutation_shapley(game_of_mask, n, num_permutations, seed):
    """The permutation method as one evaluation per boolean mask, in chain order."""
    phi = np.zeros(n)
    for index in range(num_permutations):
        rng = np.random.default_rng(derive_seed(seed, f"perm:{index}"))
        order = rng.permutation(n)
        mask = np.zeros(n, dtype=bool)
        previous = float(game_of_mask(mask.copy()))
        for player in order:
            mask[player] = True
            current = float(game_of_mask(mask.copy()))
            phi[player] += current - previous
            previous = current
    return phi / num_permutations


def glove_game(bits):
    left = (bits & 1) + (bits >> 1 & 1)
    right = bits >> 2 & 1
    return float(min(left, right))


def test_additive_game_returns_weights():
    weights = np.array([1.0, 2.0, 3.0])
    f = SetFunction(3, batched(lambda bits: float(weights[members(bits, 3)].sum())))
    values = estimate_shapley(f, ShapleyConfig(method="exact"))
    assert np.allclose(values, weights, rtol=0, atol=1e-12)


def test_symmetric_two_player_game():
    f = SetFunction(2, batched(lambda bits: float(bits.bit_count() if bits.bit_count() < 2 else 2.0)))
    values = estimate_shapley(f, ShapleyConfig(method="exact"))
    assert np.allclose(values, [1.0, 1.0], atol=1e-12)


def test_glove_game_matches_brute_force():
    exact = estimate_shapley(SetFunction(3, batched(glove_game)), ShapleyConfig(method="exact"))
    oracle = shapley_by_permutation_enumeration(glove_game, 3)
    assert np.allclose(exact, oracle, atol=1e-12)
    assert np.allclose(exact, [1 / 6, 1 / 6, 2 / 3], atol=1e-12)


def test_null_player_gets_exact_zero():
    def game(bits):
        return float(bits & 1) * 2.0  # player 1 never matters

    values = estimate_shapley(SetFunction(2, batched(game)), ShapleyConfig(method="exact"))
    assert values[1] == 0.0


def test_symmetry_is_bit_identical():
    def game(bits):
        # players 0 and 1 interchangeable
        first, second, third = (bits >> i & 1 for i in range(3))
        return float(first + second + 0.5 * (first & second) + 3.0 * third)

    values = estimate_shapley(SetFunction(3, batched(game)), ShapleyConfig(method="exact"))
    assert values[0] == values[1]


@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=5), st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_exact_efficiency_property(weights, interaction_seed):
    weights = np.asarray(weights)
    n = len(weights)
    rng = np.random.default_rng(interaction_seed)
    bonus = rng.uniform(-1, 1, size=1 << n)

    def game(bits):
        return float(weights[members(bits, n)].sum() + bonus[bits])

    values = estimate_shapley(SetFunction(n, batched(game)), ShapleyConfig(method="exact"))
    total = game((1 << n) - 1) - game(0)
    assert sum(values) == pytest.approx(total, rel=1e-12, abs=1e-12)


def test_permutation_estimate_converges_on_glove_game():
    config = ShapleyConfig(method="permutation", num_permutations=2000, seed=5)
    estimate = estimate_shapley(SetFunction(3, batched(glove_game)), config)
    assert np.max(np.abs(estimate - np.array([1 / 6, 1 / 6, 2 / 3]))) <= 0.05


def test_permutation_seed_determinism():
    config = ShapleyConfig(method="permutation", num_permutations=50, seed=9)
    a = estimate_shapley(SetFunction(3, batched(glove_game)), config)
    b = estimate_shapley(SetFunction(3, batched(glove_game)), config)
    assert np.array_equal(a, b)


def test_permutation_efficiency_with_stochastic_evaluator():
    # noisy additive game: each evaluation adds fresh N(0, sigma^2) noise, so
    # the total over one permutation chain telescopes to v(N)-v(0) plus the
    # noise of the two endpoint evaluations.
    sigma = 0.5
    weights = np.array([1.0, -2.0, 0.5, 3.0])
    rng = np.random.default_rng(123)

    def game(bits):
        return float(weights[members(bits, 4)].sum() + sigma * rng.standard_normal())

    permutations = 400
    config = ShapleyConfig(method="permutation", num_permutations=permutations, seed=3)
    estimate = estimate_shapley(SetFunction(4, batched(game)), config)
    exact_total = weights.sum()
    standard_error = sigma * math.sqrt(2.0 / permutations)
    assert abs(estimate.sum() - exact_total) <= 4 * standard_error


def test_exact_rejects_large_arity():
    with pytest.raises(QueryError, match="20 players"):
        estimate_shapley(SetFunction(21, batched(lambda bits: 0.0)), ShapleyConfig(method="exact"))


def test_player_check_limits_only_the_exact_method():
    check_players(20)
    check_players(21, ShapleyConfig(method="permutation", num_permutations=1))
    for players, config, message in [
        (21, ShapleyConfig(method="exact"), "limited to 20 players, got 21"),
        (0, ShapleyConfig(method="exact"), "at least one player"),
        (3, ShapleyConfig(method="permutation", num_permutations=0), "num_permutations"),
        (3, ShapleyConfig(method="sampled"), "unknown Shapley method"),
    ]:
        with pytest.raises(QueryError, match=message):
            check_players(players, config)


def test_non_finite_evaluator_rejected():
    def game(bits):
        return float("nan") if bits == 3 else 0.0

    for config in [ShapleyConfig("exact"), ShapleyConfig("permutation", 3)]:
        with pytest.raises(NumericError, match="non-finite"):
            estimate_shapley(SetFunction(2, batched(game)), config)


@pytest.mark.parametrize(
    "config", [ShapleyConfig("exact"), ShapleyConfig("permutation", 3)], ids=["exact", "permutation"]
)
@pytest.mark.parametrize("surplus", [-1, 1])
def test_evaluator_must_return_one_value_per_subset(config, surplus):
    # 4 subsets for the exact method, 3 chains of 3 for the permutation method
    asked = 4 if config.method == "exact" else 9

    def evaluator(subsets):
        return [0.0] * (len(subsets) + surplus)

    with pytest.raises(QueryError, match=f"returned {asked + surplus} values for {asked} subsets"):
        estimate_shapley(SetFunction(2, evaluator), config)


def test_evaluator_sees_every_subset_once_for_exact():
    requests = []

    def evaluator(subsets):
        requests.append(list(subsets))
        return [0.0] * len(subsets)

    estimate_shapley(SetFunction(3, evaluator), ShapleyConfig(method="exact"))
    assert requests == [list(range(8))]


def test_permutation_asks_for_every_chain_in_one_call():
    requests = []

    def evaluator(subsets):
        requests.append(list(subsets))
        return [glove_game(bits) for bits in subsets]

    estimate_shapley(SetFunction(3, evaluator), ShapleyConfig("permutation", 4, seed=2))
    (subsets,) = requests
    chains = [subsets[i : i + 4] for i in range(0, 16, 4)]
    for chain in chains:
        assert chain[0] == 0 and chain[-1] == 7
        assert all(bits & grown == bits and (grown ^ bits).bit_count() == 1
                   for bits, grown in zip(chain, chain[1:]))


def test_permutation_method_has_no_player_limit():
    # 70 players do not fit a 64-bit mask; Python ints hold them
    weights = np.arange(1.0, 71.0)

    def game(bits):
        return float(sum(weights[i] for i in range(70) if bits >> i & 1))

    estimate = estimate_shapley(SetFunction(70, batched(game)), ShapleyConfig("permutation", 2))
    assert np.allclose(estimate, weights, rtol=0, atol=1e-9)


@given(
    n=st.integers(1, 8),
    table_seed=st.integers(0, 2**16),
    num_permutations=st.integers(1, 30),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_permutation_estimates_match_the_sequential_mask_loop(n, table_seed, num_permutations, seed):
    table = np.random.default_rng(table_seed).standard_normal(1 << n)

    def game_of_mask(mask):
        return table[sum(1 << i for i in range(n) if mask[i])]

    oracle = sequential_permutation_shapley(game_of_mask, n, num_permutations, seed)
    config = ShapleyConfig("permutation", num_permutations, seed)
    estimate = estimate_shapley(SetFunction(n, batched(lambda bits: table[bits])), config)
    assert [float(v).hex() for v in estimate] == [float(v).hex() for v in oracle]
