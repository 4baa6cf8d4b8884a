"""Constraint-based structure learning: the PC algorithm with Meek orientation.

The resulting :class:`Cpdag` validates its directed part by building a
:class:`~gcmkit.graph.CausalGraph` from it, checks its undirected pairs with
the same :func:`~gcmkit.graph.check_edges`, and writes DOT through
:func:`~gcmkit.graph.render_dot`.
"""

import itertools
from dataclasses import dataclass, field

from .data import Dataset
from .exceptions import GraphError, QueryError, require_alpha, require_count
from .graph import CausalGraph, check_edges, render_dot
from .stats import fisher_z_test

DEFAULT_MAX_COND_SET_SIZE = 3


@dataclass(frozen=True)
class Skeleton:
    """Undirected adjacency structure left after conditional-independence pruning."""

    nodes: tuple
    edges: tuple  # pairs ordered by node declaration

    def __post_init__(self):
        check_edges(self.nodes, self.edges, frozenset)


@dataclass(frozen=True)
class Cpdag:
    """A Markov equivalence class: directed edges plus undirected ones.

    ``conflicts`` records orientations that lost a first-writer-wins tie while
    forming v-structures.
    """

    nodes: tuple
    directed: tuple
    undirected: tuple
    conflicts: tuple = field(default=())

    def __post_init__(self):
        directed_set = set(self.directed)
        # CausalGraph below checks the directed edges; an undirected triangle
        # is a valid CPDAG, so the undirected ones are checked here instead.
        undirected_set = check_edges(self.nodes, self.undirected, frozenset)
        for a, b in self.directed:
            if frozenset((a, b)) in undirected_set:
                raise GraphError(f"edge {a!r}-{b!r} is both directed and undirected")
            # A self-loop is its own reverse; CausalGraph reports it below.
            if a != b and (b, a) in directed_set:
                raise GraphError(f"edge {a!r}-{b!r} directed both ways")
        # Self-loops, unknown nodes, duplicate edges and cycles.
        CausalGraph(self.nodes, self.directed)

    def to_json(self) -> dict:
        return {
            "directed": [list(edge) for edge in self.directed],
            "undirected": [list(edge) for edge in self.undirected],
        }

    def to_dot(self) -> str:
        return render_dot(self.nodes, self.directed, self.undirected)


def pc_skeleton(data: Dataset, alpha=0.05, max_cond_set_size=DEFAULT_MAX_COND_SET_SIZE):
    """Prune a complete graph by :func:`~gcmkit.stats.fisher_z_test` independence tests.

    Stable variant: each conditioning-set size reads only the neighbour lists
    frozen at the start of its level, so removing an edge mid-level changes
    no other test and results do not depend on visit order.  A pair tries the
    subsets of x's other neighbours, then the unseen ones of y's, and stops at
    the first that separates; the search ends once no node has more
    neighbours than the level.  ``max_cond_set_size`` is an integer of at
    least 0.  Returns the skeleton and the separating set recorded for each
    removed edge.
    """
    names = data.column_names
    if data.n_rows < 20:
        raise QueryError(f"PC needs at least 20 rows, got {data.n_rows}")
    max_cond_set_size = require_count(max_cond_set_size, "max_cond_set_size", 0)
    require_alpha(alpha)

    # Neighbours in column order; edges are only ever deleted, so it stays.
    adjacency = {name: dict.fromkeys(other for other in names if other != name) for name in names}
    separation_sets = {}
    for level in range(max_cond_set_size + 1):
        if all(len(neighbours) <= level for neighbours in adjacency.values()):
            break
        frozen = {name: tuple(neighbours) for name, neighbours in adjacency.items()}
        for x, y in itertools.combinations(names, 2):
            if y not in frozen[x]:
                continue
            candidates = dict.fromkeys(
                itertools.chain(
                    itertools.combinations([v for v in frozen[x] if v != y], level),
                    itertools.combinations([v for v in frozen[y] if v != x], level),
                )
            )
            subset = next((s for s in candidates if fisher_z_test(data, x, y, s).p_value > alpha), None)
            if subset is not None:
                separation_sets[(x, y)] = subset
                del adjacency[x][y], adjacency[y][x]

    edges = tuple((x, y) for x, y in itertools.combinations(names, 2) if y in adjacency[x])
    return Skeleton(names, edges), separation_sets


def _sepset_lookup(separation_sets, a, b):
    if (a, b) in separation_sets:
        return separation_sets[(a, b)]
    return separation_sets.get((b, a), ())


def orient(skeleton: Skeleton, separation_sets) -> Cpdag:
    """Orient v-structures, then apply Meek rules 1-4 to a fixpoint.

    Conflicting v-structure orientations are resolved first-writer-wins in
    column order of the (x, z, y) triples; losers are recorded in
    ``conflicts``.  The Meek rules then direct one edge at a time, always the
    first in column order that some rule orients.
    """
    nodes = skeleton.nodes
    index = {name: i for i, name in enumerate(nodes)}

    def in_order(edge):
        return index[edge[0]], index[edge[1]]

    def pair(a, b):
        return (a, b) if index[a] < index[b] else (b, a)

    undirected = {pair(a, b) for a, b in skeleton.edges}
    directed = set()
    conflicts = []
    # Orienting never adds or removes an adjacency, so this map is fixed.
    neighbours = {x: dict.fromkeys(y for y in nodes if pair(x, y) in undirected) for x in nodes}

    def adjacent(a, b):
        return b in neighbours[a]

    def direct(a, b):
        if (b, a) in directed:
            conflicts.append((a, b))
        else:
            undirected.discard(pair(a, b))
            directed.add((a, b))

    # v-structures x -> z <- y for unshielded triples with z outside sepset(x, y)
    for x in nodes:
        for z in neighbours[x]:
            for y in neighbours[z]:
                if index[y] <= index[x] or adjacent(x, y):
                    continue
                if z not in _sepset_lookup(separation_sets, x, y):
                    direct(x, z)
                    direct(y, z)

    def rule_applies(u, v):
        # Meek 1: w -> u - v with w, v nonadjacent.
        for w, mid in directed:
            if mid == u and w != v and not adjacent(w, v):
                return True
        # Meek 2: u -> w -> v with u - v.
        for u2, w in directed:
            if u2 == u and (w, v) in directed:
                return True
        # Meek 3: u - w1 -> v and u - w2 -> v with w1, w2 nonadjacent.
        into_v = [w for w, v2 in directed if v2 == v and pair(u, w) in undirected]
        for a, b in itertools.combinations(into_v, 2):
            if not adjacent(a, b):
                return True
        # Meek 4: w1 -> w2 -> v with u - w1 and u, w2 adjacent and w1, v nonadjacent.
        for w2, v2 in directed:
            if v2 != v or not adjacent(w2, u):
                continue
            for w1, w2b in directed:
                if w2b == w2 and pair(u, w1) in undirected and not adjacent(w1, v):
                    return True
        return False

    def next_orientation():
        for a, b in sorted(undirected, key=in_order):
            for u, v in ((a, b), (b, a)):
                if rule_applies(u, v):
                    return u, v
        return None

    while (edge := next_orientation()) is not None:
        direct(*edge)

    return Cpdag(
        nodes, tuple(sorted(directed, key=in_order)), tuple(sorted(undirected, key=in_order)), tuple(conflicts)
    )


def discover_cpdag(data: Dataset, alpha=0.05, max_cond_set_size=DEFAULT_MAX_COND_SET_SIZE) -> Cpdag:
    """Run the full PC pipeline: skeleton search, then orientation."""
    skeleton, separation_sets = pc_skeleton(data, alpha, max_cond_set_size)
    return orient(skeleton, separation_sets)
