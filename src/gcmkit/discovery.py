"""Constraint-based structure learning: the PC algorithm with Meek orientation.

The resulting :class:`Cpdag` validates its directed part by building a
:class:`~gcmkit.graph.CausalGraph` from it, checks each undirected pair for
unknown nodes, self-loops and duplicates, and writes DOT through
:func:`~gcmkit.graph.render_dot`.
"""

import itertools
from dataclasses import dataclass, field

from .data import Dataset
from .exceptions import GraphError, QueryError, require_count
from .graph import CausalGraph, render_dot
from .stats import fisher_z_test

DEFAULT_MAX_COND_SET_SIZE = 3


@dataclass(frozen=True)
class Skeleton:
    """Undirected adjacency structure left after conditional-independence pruning."""

    nodes: tuple
    edges: tuple  # pairs ordered by node declaration


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
        undirected_set = set()
        for a, b in self.undirected:
            for node in (a, b):
                if node not in self.nodes:
                    raise GraphError(f"edge {(a, b)!r} references unknown node {node!r}")
            if a == b:
                raise GraphError(f"self-loop on node {a!r}")
            if frozenset((a, b)) in undirected_set:
                raise GraphError(f"duplicate edge {(a, b)!r}")
            undirected_set.add(frozenset((a, b)))
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

    Stable variant: at each conditioning-set size, tests run against the
    adjacency sets frozen at the start of the level and removals apply only
    once the level completes, so results do not depend on visit order.
    ``max_cond_set_size`` is an integer of at least 0.  Returns the skeleton
    and the separating set recorded for each removed edge.
    """
    names = data.column_names
    if data.n_rows < 20:
        raise QueryError(f"PC needs at least 20 rows, got {data.n_rows}")
    max_cond_set_size = require_count(max_cond_set_size, "max_cond_set_size", 0)
    if not 0 < alpha < 1:
        raise QueryError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    index = {name: i for i, name in enumerate(names)}

    adjacency = {name: set(other for other in names if other != name) for name in names}
    separation_sets = {}

    for level in range(max_cond_set_size + 1):
        frozen = {name: sorted(adjacency[name], key=index.__getitem__) for name in names}
        any_candidates = False
        removals = []
        for i, x in enumerate(names):
            for y in names[i + 1 :]:
                if y not in adjacency[x]:
                    continue
                pools = (
                    [v for v in frozen[x] if v != y],
                    [v for v in frozen[y] if v != x],
                )
                tried = set()
                separated = False
                for pool in pools:
                    if len(pool) < level:
                        continue
                    any_candidates = True
                    for subset in itertools.combinations(pool, level):
                        if subset in tried:
                            continue
                        tried.add(subset)
                        result = fisher_z_test(data, x, y, subset)
                        if result.p_value > alpha:
                            removals.append((x, y))
                            separation_sets[(x, y)] = subset
                            separated = True
                            break
                    if separated:
                        break
        for x, y in removals:
            adjacency[x].discard(y)
            adjacency[y].discard(x)
        if not any_candidates:
            break

    edges = tuple(
        (x, y)
        for i, x in enumerate(names)
        for y in names[i + 1 :]
        if y in adjacency[x]
    )
    return Skeleton(names, edges), separation_sets


def _sepset_lookup(separation_sets, a, b):
    if (a, b) in separation_sets:
        return separation_sets[(a, b)]
    return separation_sets.get((b, a), ())


def orient(skeleton: Skeleton, separation_sets) -> Cpdag:
    """Orient v-structures, then apply Meek rules 1-4 to a fixpoint.

    Conflicting v-structure orientations are resolved first-writer-wins in
    lexicographic triple order; losers are recorded in ``conflicts``.
    """
    nodes = skeleton.nodes
    index = {name: i for i, name in enumerate(nodes)}
    undirected = {frozenset(edge) for edge in skeleton.edges}
    directed = set()
    conflicts = []

    def adjacent(a, b):
        return frozenset((a, b)) in undirected or (a, b) in directed or (b, a) in directed

    def direct(a, b):
        if (b, a) in directed:
            conflicts.append((a, b))
        else:
            undirected.discard(frozenset((a, b)))
            directed.add((a, b))

    # v-structures x -> z <- y for unshielded triples with z outside sepset(x, y)
    for x in nodes:
        for z in nodes:
            if z == x:
                continue
            for y in nodes:
                if index[y] <= index[x] or y == z:
                    continue
                if not adjacent(x, z) or not adjacent(y, z) or adjacent(x, y):
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
        into_v = [w for w, v2 in directed if v2 == v and frozenset((u, w)) in undirected]
        for a, b in itertools.combinations(into_v, 2):
            if not adjacent(a, b):
                return True
        # Meek 4: w1 -> w2 -> v with u - w1 and u, w2 adjacent and w1, v nonadjacent.
        for w2, v2 in directed:
            if v2 != v or not adjacent(w2, u):
                continue
            for w1, w2b in directed:
                if w2b == w2 and frozenset((u, w1)) in undirected and not adjacent(w1, v):
                    return True
        return False

    changed = True
    while changed:
        changed = False
        for pair in sorted(undirected, key=lambda e: tuple(sorted(index[n] for n in e))):
            a, b = sorted(pair, key=index.__getitem__)
            for u, v in ((a, b), (b, a)):
                if rule_applies(u, v):
                    direct(u, v)
                    changed = True
                    break
            if changed:
                break

    directed_sorted = tuple(sorted(directed, key=lambda e: (index[e[0]], index[e[1]])))
    undirected_sorted = tuple(
        sorted(
            (tuple(sorted(pair, key=index.__getitem__)) for pair in undirected),
            key=lambda e: (index[e[0]], index[e[1]]),
        )
    )
    return Cpdag(nodes, directed_sorted, undirected_sorted, tuple(conflicts))


def discover_cpdag(data: Dataset, alpha=0.05, max_cond_set_size=DEFAULT_MAX_COND_SET_SIZE) -> Cpdag:
    """Run the full PC pipeline: skeleton search, then orientation."""
    skeleton, separation_sets = pc_skeleton(data, alpha, max_cond_set_size)
    return orient(skeleton, separation_sets)
