"""Directed acyclic graphs over named variables, and every graph format.

Graph files and model files share one JSON graph object; graphs and CPDAGs
share one edge-list check and one DOT writer.
"""

import json
import re

from .exceptions import GraphError

_DOT_IDENT = re.compile(r"[A-Za-z0-9_]+")


def check_edges(nodes, edges, key=tuple):
    """The set of ``key((a, b))`` over ``edges``, after checking each edge for
    unknown nodes, self-loops and duplicates; ``key`` is ``tuple`` for
    directed edges and ``frozenset`` for undirected ones."""
    keys = set()
    for a, b in edges:
        for node in (a, b):
            if node not in nodes:
                raise GraphError(f"edge {(a, b)!r} references unknown node {node!r}")
        if a == b:
            raise GraphError(f"self-loop on node {a!r}")
        if key((a, b)) in keys:
            raise GraphError(f"duplicate edge {(a, b)!r}")
        keys.add(key((a, b)))
    return keys


class CausalGraph:
    """A DAG whose nodes are variable names and whose edges point cause -> effect.

    Node identity is the exact, case-sensitive string.  Declaration order is
    preserved and used as the tie-break for the topological order, so results
    that iterate over nodes are reproducible.  Instances are immutable after
    construction and safe to share across threads.
    """

    def __init__(self, nodes, edges=()):
        node_list = []
        seen = set()
        for name in nodes:
            if not isinstance(name, str) or not name:
                raise GraphError(f"node names must be non-empty strings, got {name!r}")
            if name in seen:
                raise GraphError(f"duplicate node {name!r}")
            seen.add(name)
            node_list.append(name)
        self.nodes = tuple(node_list)
        self._index = {name: i for i, name in enumerate(self.nodes)}

        self.edges = tuple((parent, child) for parent, child in edges)
        check_edges(self._index, self.edges)

        self._parents = {name: [] for name in self.nodes}
        self._children = {name: [] for name in self.nodes}
        for parent, child in self.edges:
            self._parents[child].append(parent)
            self._children[parent].append(child)
        for name in self.nodes:
            self._parents[name].sort(key=self._index.__getitem__)
            self._children[name].sort(key=self._index.__getitem__)

        self._topological = self._toposort()

    def _toposort(self):
        # Kahn's algorithm, always picking the ready node that was declared first.
        indegree = {name: len(self._parents[name]) for name in self.nodes}
        ready = [name for name in self.nodes if indegree[name] == 0]
        order = []
        while ready:
            node = min(ready, key=self._index.__getitem__)
            ready.remove(node)
            order.append(node)
            for child in self._children[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if len(order) != len(self.nodes):
            stuck = [name for name in self.nodes if indegree[name] > 0]
            raise GraphError(f"graph contains a cycle through {stuck}")
        return tuple(order)

    def _require(self, node):
        if node not in self._index:
            raise GraphError(f"unknown node {node!r}")

    def topological_order(self):
        """Node names with every parent before each of its children."""
        return self._topological

    def parents(self, node):
        """Direct causes of ``node``, in declaration order."""
        self._require(node)
        return tuple(self._parents[node])

    def children(self, node):
        """Direct effects of ``node``, in declaration order."""
        self._require(node)
        return tuple(self._children[node])

    def _reach(self, node, step):
        # Depth-first walk over ``step`` (parents or children), excluding ``node``.
        self._require(node)
        found = set()
        stack = list(step[node])
        while stack:
            current = stack.pop()
            if current not in found:
                found.add(current)
                stack.extend(step[current])
        return frozenset(found)

    def ancestors(self, node):
        """All nodes with a directed path into ``node`` (excluding itself)."""
        return self._reach(node, self._parents)

    def descendants(self, node):
        """All nodes reachable from ``node`` by a directed path (excluding itself)."""
        return self._reach(node, self._children)

    def ancestral(self, node):
        """The subgraph of ``node`` and its ancestors, in declaration order.

        Its edges are this graph's edges into kept nodes; the kept set is
        closed under parents, so they all start at kept nodes too.  Kahn's
        order restricted to such a set is the subgraph's own, so its
        topological order is this graph's with the other nodes left out.
        """
        kept = self.ancestors(node) | {node}
        return CausalGraph(
            [name for name in self.nodes if name in kept],
            [(parent, child) for parent, child in self.edges if child in kept],
        )

    def non_descendants(self, node):
        """All nodes that are neither ``node`` nor reachable from it."""
        reachable = self.descendants(node)
        return frozenset(name for name in self.nodes if name != node and name not in reachable)

    def is_root(self, node):
        self._require(node)
        return not self._parents[node]

    def has_edge(self, parent, child):
        self._require(parent)
        self._require(child)
        return child in self._children[parent]

    def __contains__(self, node):
        return node in self._index

    def __repr__(self):
        return f"CausalGraph(nodes={list(self.nodes)!r}, edges={list(self.edges)!r})"

    def __eq__(self, other):
        if not isinstance(other, CausalGraph):
            return NotImplemented
        return self.nodes == other.nodes and set(self.edges) == set(other.edges)

    def __hash__(self):
        return hash((self.nodes, frozenset(self.edges)))


def parse_graph(text: str, format: str = "json") -> CausalGraph:
    """Parse a graph from ``text`` in the named format (``json`` or ``dot``)."""
    if format == "json":
        return _parse_json(text)
    if format == "dot":
        return _parse_dot(text)
    raise GraphError(f"unknown graph format {format!r}")


def _parse_json(text):
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise GraphError(f"graph parse error: {exc}") from exc
    return graph_from_payload(payload)


def graph_payload(graph: CausalGraph) -> dict:
    """The JSON object for ``graph``: ``{"nodes": [...], "edges": [[parent, child], ...]}``."""
    return {"nodes": list(graph.nodes), "edges": [list(edge) for edge in graph.edges]}


def graph_from_payload(payload) -> CausalGraph:
    """Validate a decoded JSON graph object and build it; inverse of :func:`graph_payload`."""
    if not isinstance(payload, dict) or "nodes" not in payload:
        raise GraphError("graph parse error: expected an object with 'nodes' and 'edges'")
    nodes = payload["nodes"]
    edges = payload.get("edges", [])
    if not isinstance(nodes, list) or not isinstance(edges, list):
        raise GraphError("graph parse error: 'nodes' and 'edges' must be lists")
    for edge in edges:
        if not (isinstance(edge, list) and len(edge) == 2 and all(isinstance(n, str) for n in edge)):
            raise GraphError(f"graph parse error: edge {edge!r} is not a [parent, child] name pair")
    return CausalGraph(nodes, [tuple(edge) for edge in edges])


def _parse_dot(text):
    # Supported subset: `digraph { A -> B; C; }` with bare identifiers, no attributes.
    stripped = text.strip()
    match = re.match(r"^digraph(?:\s+[A-Za-z0-9_]+)?\s*\{(.*)\}\s*$", stripped, re.DOTALL)
    if match is None:
        raise GraphError("graph parse error: expected 'digraph { ... }'")
    body = match.group(1)
    nodes = []
    seen = set()
    edges = []

    def declare(name):
        if name not in seen:
            seen.add(name)
            nodes.append(name)

    for statement in body.split(";"):
        statement = statement.strip()
        if not statement:
            continue
        parts = [part.strip() for part in statement.split("->")]
        for part in parts:
            if not _DOT_IDENT.fullmatch(part):
                raise GraphError(f"graph parse error: bad identifier {part!r}")
        for part in parts:
            declare(part)
        for parent, child in zip(parts, parts[1:]):
            edges.append((parent, child))
    return CausalGraph(nodes, edges)


def serialize_graph(graph: CausalGraph, format: str = "json") -> str:
    """Render ``graph`` as text; inverse of :func:`parse_graph` on node/edge sets."""
    if format == "json":
        return json.dumps(graph_payload(graph), separators=(",", ":"))
    if format == "dot":
        return render_dot(graph.nodes, graph.edges)
    raise GraphError(f"unknown graph format {format!r}")


def render_dot(nodes, directed, undirected=()) -> str:
    """DOT text: unattached nodes, then directed edges, then undirected ones as ``[dir=none]``.

    A name that is not a bare identifier, which the reader rejects, raises :class:`GraphError`.
    """
    for node in nodes:
        if not _DOT_IDENT.fullmatch(node):
            raise GraphError(f"node {node!r} is not a bare DOT identifier ([A-Za-z0-9_]+)")
    attached = {node for edge in (*directed, *undirected) for node in edge}
    lines = ["digraph {"]
    lines += [f"  {node};" for node in nodes if node not in attached]
    lines += [f"  {a} -> {b};" for a, b in directed]
    lines += [f"  {a} -> {b} [dir=none];" for a, b in undirected]
    lines.append("}")
    return "\n".join(lines) + "\n"
