import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcmkit as gk
from conftest import constant_columns_table
from gcmkit import CausalGraph, Cpdag, DataError, Dataset, QueryError, Skeleton, discover_cpdag, orient, pc_skeleton


def chain_data(seed, n=2000):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = x + rng.standard_normal(n)
    z = y + rng.standard_normal(n)
    return Dataset(["X", "Y", "Z"], [x, y, z])


def collider_data(seed, n=2000):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    z = x + y + rng.standard_normal(n)
    return Dataset(["X", "Y", "Z"], [x, y, z])


def independent_data(seed, n=2000):
    rng = np.random.default_rng(seed)
    return Dataset(["X", "Y", "Z"], [rng.standard_normal(n) for _ in range(3)])


def linear_gaussian_table(seed, size, n):
    """Columns V0..V{size-1} of a random linear-Gaussian DAG in that order,
    each with its own noise so none is exactly determined by the others."""
    rng = np.random.default_rng(seed)
    weights = np.triu(rng.uniform(-1.5, 1.5, (size, size)) * (rng.random((size, size)) < 0.4), 1)
    values = np.zeros((n, size))
    for j in range(size):
        values[:, j] = values @ weights[:, j] + rng.uniform(0.3, 1.5) * rng.standard_normal(n)
    return [f"V{j}" for j in range(size)], values


class TestSkeleton:
    def test_independent_columns_empty_skeleton(self):
        skeleton, _ = pc_skeleton(independent_data(seed=3), alpha=0.05)
        assert skeleton.edges == ()

    def test_chain_skeleton_and_sepset(self):
        skeleton, sepsets = pc_skeleton(chain_data(seed=4), alpha=0.05)
        assert set(skeleton.edges) == {("X", "Y"), ("Y", "Z")}
        assert sepsets[("X", "Z")] == ("Y",)

    def test_too_few_rows(self):
        rng = np.random.default_rng(0)
        data = Dataset(["X", "Y"], [rng.standard_normal(2), rng.standard_normal(2)])
        with pytest.raises(QueryError, match="rows"):
            pc_skeleton(data)

    def test_categorical_column_rejected(self):
        data = Dataset(
            ["X", "C"],
            [np.arange(30.0), np.array(["a", "b"] * 15, dtype=object)],
        )
        with pytest.raises(DataError, match="continuous"):
            pc_skeleton(data)

    @pytest.mark.parametrize("size", [2.5, "2", True, False, None, -1, np.float64(2.0)])
    def test_max_cond_set_size_must_be_a_non_negative_integer(self, size):
        with pytest.raises(QueryError, match="max_cond_set_size"):
            discover_cpdag(chain_data(seed=4, n=200), 0.05, size)

    def test_numpy_integer_max_cond_set_size_accepted(self):
        data = chain_data(seed=4, n=200)
        assert discover_cpdag(data, 0.05, np.int64(1)) == discover_cpdag(data, 0.05, 1)

    def test_alpha_monotone_edge_counts(self):
        for seed in range(20):
            data = chain_data(seed=500 + seed, n=400)
            strict, _ = pc_skeleton(data, alpha=0.01)
            loose, _ = pc_skeleton(data, alpha=0.1)
            assert len(strict.edges) <= len(loose.edges)

    def test_determinism(self):
        data = collider_data(seed=5)
        first = discover_cpdag(data, alpha=0.05)
        second = discover_cpdag(data, alpha=0.05)
        assert first == second

    def test_unbounded_max_cond_set_size_ends_with_the_bounded_answer(self):
        # The search stops once no node has more neighbours than the level.
        data = chain_data(seed=4, n=400)
        assert pc_skeleton(data, 0.05, 10**18) == pc_skeleton(data, 0.05, 3)

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(3, 10),
        n=st.integers(200, 600),
        order_seed=st.integers(0, 2**32 - 1),
    )
    def test_edge_set_survives_a_column_permutation(self, seed, size, n, order_seed):
        names, values = linear_gaussian_table(seed, size, n)
        order = np.random.default_rng(order_seed).permutation(size)
        original, _ = pc_skeleton(Dataset(names, list(values.T)), 0.05)
        permuted, _ = pc_skeleton(Dataset([names[j] for j in order], [values[:, j] for j in order]), 0.05)
        assert {frozenset(edge) for edge in permuted.edges} == {frozenset(edge) for edge in original.edges}

    @pytest.mark.parametrize(
        ("edges", "message"),
        [
            ((("X", "Y"),), "unknown node 'Y'"),
            ((("X", "X"),), "self-loop on node 'X'"),
            ((("X", "Z"), ("Z", "X")), "duplicate edge"),
        ],
        ids=["unknown-node", "self-loop", "duplicate"],
    )
    def test_malformed_skeleton_edges_rejected(self, edges, message):
        with pytest.raises(gk.GraphError, match=message):
            Skeleton(("X", "Z"), edges)

    def test_constant_columns_stay_apart(self):
        """Two constant columns used to read as perfectly dependent."""
        cpdag = discover_cpdag(constant_columns_table(), alpha=0.05)
        assert cpdag.to_json() == {"directed": [], "undirected": []}


class TestOrient:
    def test_collider_is_oriented(self):
        cpdag = discover_cpdag(collider_data(seed=6), alpha=0.05)
        assert ("X", "Z") in cpdag.directed
        assert ("Y", "Z") in cpdag.directed
        assert cpdag.undirected == ()

    def test_chain_stays_undirected(self):
        # hand-built skeleton with sepset(X, Z) = {Y}: no v-structure fires
        skeleton = Skeleton(("X", "Y", "Z"), (("X", "Y"), ("Y", "Z")))
        cpdag = orient(skeleton, {("X", "Z"): ("Y",)})
        assert cpdag.directed == ()
        assert set(cpdag.undirected) == {("X", "Y"), ("Y", "Z")}

    def test_empty_skeleton_gives_empty_cpdag(self):
        cpdag = orient(Skeleton(("X", "Y"), ()), {})
        assert cpdag.directed == () and cpdag.undirected == ()

    def test_meek_rule_one_propagates_orientation(self):
        # collider X -> Z <- Y plus an extra undirected Z - W edge must become Z -> W
        skeleton = Skeleton(
            ("X", "Y", "Z", "W"),
            (("X", "Z"), ("Y", "Z"), ("Z", "W")),
        )
        sepsets = {("X", "Y"): (), ("X", "W"): ("Z",), ("Y", "W"): ("Z",)}
        cpdag = orient(skeleton, sepsets)
        assert ("X", "Z") in cpdag.directed
        assert ("Y", "Z") in cpdag.directed
        assert ("Z", "W") in cpdag.directed

    def test_meek_rule_two_follows_rule_one(self):
        # v-structure A -> B <- D; rule 1 gives B -> C, then rule 2 A -> C
        skeleton = Skeleton(tuple("ABCD"), (("A", "B"), ("A", "C"), ("B", "C"), ("B", "D")))
        cpdag = orient(skeleton, {("A", "D"): (), ("C", "D"): ("B",)})
        assert cpdag.directed == (("A", "B"), ("A", "C"), ("B", "C"), ("D", "B"))
        assert cpdag.undirected == () and cpdag.conflicts == ()

    def test_meek_rule_three(self):
        # v-structure B -> D <- C with A adjacent to all three: A -> D by rule 3
        skeleton = Skeleton(
            tuple("ABCD"), (("A", "B"), ("A", "C"), ("A", "D"), ("B", "D"), ("C", "D"))
        )
        cpdag = orient(skeleton, {("B", "C"): ("A",)})
        assert cpdag.directed == (("A", "D"), ("B", "D"), ("C", "D"))
        assert cpdag.undirected == (("A", "B"), ("A", "C"))
        assert cpdag.conflicts == ()

    def test_meek_rule_four(self):
        # v-structure B -> C <- E; rule 1 gives C -> A, then rule 4 D -> A
        # (B -> C -> A with D - B, D adjacent to C, B not adjacent to A)
        skeleton = Skeleton(
            tuple("ABCDE"), (("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"), ("C", "D"), ("C", "E"))
        )
        sepsets = {("A", "B"): ("C", "D"), ("A", "E"): ("C",), ("B", "E"): ("D",), ("D", "E"): ("C",)}
        cpdag = orient(skeleton, sepsets)
        assert cpdag.directed == (
            ("B", "C"), ("B", "D"), ("C", "A"), ("C", "D"), ("D", "A"), ("E", "C"),
        )
        assert cpdag.undirected == () and cpdag.conflicts == ()

    def test_conflicting_v_structures_keep_the_first_writer(self):
        # A -> B <- C and B -> C <- D both fire; B -> C loses to C -> B
        skeleton = Skeleton(tuple("ABCD"), (("A", "B"), ("B", "C"), ("C", "D")))
        cpdag = orient(skeleton, {("A", "C"): (), ("B", "D"): (), ("A", "D"): ()})
        assert cpdag.directed == (("A", "B"), ("C", "B"), ("D", "C"))
        assert cpdag.undirected == ()
        assert cpdag.conflicts == (("B", "C"),)
        # The same graph relabelled D, C, B, A: the winner follows column
        # order, not name order.
        skeleton = Skeleton(("D", "C", "B", "A"), (("D", "C"), ("C", "B"), ("B", "A")))
        cpdag = orient(skeleton, {("D", "B"): (), ("C", "A"): (), ("D", "A"): ()})
        assert cpdag.directed == (("D", "C"), ("B", "C"), ("A", "B"))
        assert cpdag.undirected == ()
        assert cpdag.conflicts == (("C", "B"),)

    def test_separating_set_keys_may_come_in_either_order(self):
        skeleton = Skeleton(
            tuple("ABCDE"), (("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"), ("C", "D"), ("C", "E"))
        )
        sepsets = {("A", "B"): ("C", "D"), ("A", "E"): ("C",), ("B", "E"): ("D",), ("D", "E"): ("C",)}
        reversed_keys = {(b, a): subset for (a, b), subset in sepsets.items()}
        assert orient(skeleton, reversed_keys) == orient(skeleton, sepsets)

    def test_directed_part_is_acyclic_on_real_data(self):
        for seed in range(10):
            cpdag = discover_cpdag(collider_data(seed=100 + seed), alpha=0.05)
            CausalGraph(cpdag.nodes, cpdag.directed)  # raises on a cycle


class TestCpdagSerialization:
    def test_json_shape(self):
        cpdag = Cpdag(("A", "B", "C"), (("A", "B"),), (("B", "C"),))
        assert cpdag.to_json() == {"directed": [["A", "B"]], "undirected": [["B", "C"]]}

    def test_dot_renders_undirected_without_arrowheads(self):
        cpdag = Cpdag(("A", "B", "C"), (("A", "B"),), (("B", "C"),))
        dot = cpdag.to_dot()
        assert "A -> B;" in dot
        assert "B -> C [dir=none];" in dot

    def test_dot_rejects_a_name_the_reader_rejects(self):
        cpdag = Cpdag(("my col", "B-2"), (), (("my col", "B-2"),))
        with pytest.raises(gk.GraphError, match="'my col' is not a bare DOT identifier"):
            cpdag.to_dot()

    def test_invalid_cpdag_rejected(self):
        with pytest.raises(gk.GraphError, match="both"):
            Cpdag(("A", "B"), (("A", "B"),), (("A", "B"),))
        with pytest.raises(gk.GraphError, match="both ways"):
            Cpdag(("A", "B"), (("A", "B"), ("B", "A")), ())
        with pytest.raises(gk.GraphError, match="cycle"):
            Cpdag(("A", "B", "C"), (("A", "B"), ("B", "C"), ("C", "A")), ())
        with pytest.raises(gk.GraphError, match="unknown node 'Z'"):
            Cpdag(("A", "B"), (("A", "Z"),), ())
        with pytest.raises(gk.GraphError, match="self-loop"):
            Cpdag(("A", "B"), (("A", "A"),), ())
        with pytest.raises(gk.GraphError, match="unknown node 'Z'"):
            Cpdag(("A", "B"), (), (("A", "Z"),))
        with pytest.raises(gk.GraphError, match="self-loop on node 'B'"):
            Cpdag(("A", "B"), (), (("B", "B"),))
        for pairs in ((("A", "B"), ("A", "B")), (("A", "B"), ("B", "A"))):
            with pytest.raises(gk.GraphError, match="duplicate edge"):
                Cpdag(("A", "B"), (), pairs)

    def test_undirected_triangle_is_valid(self):
        cpdag = Cpdag(("A", "B", "C"), (), (("A", "B"), ("B", "C"), ("A", "C")))
        assert len(cpdag.undirected) == 3


def test_full_pipeline_recovers_collider_reliably():
    hits = 0
    for rep in range(20):
        cpdag = discover_cpdag(collider_data(seed=2000 + rep), alpha=0.05)
        if ("X", "Z") in cpdag.directed and ("Y", "Z") in cpdag.directed:
            hits += 1
    assert hits >= 18
