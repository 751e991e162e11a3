"""Graph ingestion, subdivision and vertex ordering.

A graph comes with a distinguished spanning tree, a root of degree 1 in the
tree, and a rotation system (clockwise neighbor order from a planar embedding
of the tree).  The depth-first order derived from these three choices fixes
everything downstream: edge orientations, the particle-sliding direction and
the cube-complex classification.

Multigraphs (parallel edges, loops) are accepted on input but must be
subdivided into a simple graph before ordering; rotations can only be given
for simple graphs.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .errors import GraphFormatError, SubdivisionError, json_int

Edge = tuple[int, int]


def _norm_edge(u, v) -> Edge:
    return (u, v) if u <= v else (v, u)


def _json_edge(e) -> Edge:
    """An edge [u, v] read from a graph file, as a normalised pair."""
    if not isinstance(e, (list, tuple)) or len(e) != 2:
        raise ValueError(f"{e!r} is not a pair of vertex ids")
    return _norm_edge(json_int(e[0]), json_int(e[1]))


@dataclass
class Graph:
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]               # sorted, multiplicity preserved
    tree_edges: frozenset[Edge]
    root: int
    rotation: dict[int, tuple[int, ...]] | None = None

    @cached_property
    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        return _adjacency(self.vertices, self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def is_simple(self) -> bool:
        return len(set(self.edges)) == len(self.edges) and all(a != b for a, b in self.edges)

    def neighbors(self, v: int) -> list[int]:
        # a loop's two entries share their edge index and count once
        return sorted(w for w, _ in dict.fromkeys(self.adjacency[v]))

    def essential_vertices(self) -> list[int]:
        return [v for v in self.vertices if self.degree(v) != 2]

    def to_json_dict(self) -> dict:
        d = {
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
            "tree_edges": sorted(list(e) for e in self.tree_edges),
            "root": self.root,
        }
        if self.rotation is not None:
            d["rotation"] = {str(v): list(nbrs) for v, nbrs in sorted(self.rotation.items())}
        return d


def _adjacency(vertices, edges) -> dict[int, list[tuple[int, int]]]:
    """Each vertex's (neighbour, edge index) pairs in edge order; a loop
    appears twice."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in vertices}
    for i, (a, b) in enumerate(edges):
        adj[a].append((b, i))
        adj[b].append((a, i))
    return adj


def _reachable(adj, start: int) -> set[int]:
    """Vertices reached from `start` in `adj`."""
    seen, stack = {start}, [start]
    while stack:
        for w, _ in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def parse_graph(data: dict) -> Graph:
    """Validate a graph-file dict and build a Graph.

    Required keys: vertices, edges, tree_edges.  Optional: root (defaults to
    the lowest-id vertex of tree-degree 1), rotation (simple graphs only).
    """
    if not isinstance(data, dict):
        raise GraphFormatError("malformed graph file: expected a JSON object with 'vertices', "
                               f"'edges' and 'tree_edges', got {type(data).__name__}")

    def read(key, convert):
        try:
            return [convert(x) for x in data[key]]
        except KeyError:
            hint = ('; this looks like a `subdivide --json` artifact, whose graph '
                    'sits under "graph"' if "graph" in data else "")
            raise GraphFormatError(f"malformed graph file: missing key {key!r}{hint}") from None
        except (TypeError, ValueError) as exc:
            raise GraphFormatError(f"malformed graph file: {key!r}: {exc}") from exc

    vertices = tuple(sorted(read("vertices", json_int)))
    edges = tuple(sorted(read("edges", _json_edge)))
    tree = frozenset(read("tree_edges", _json_edge))
    if len(set(vertices)) != len(vertices):
        raise GraphFormatError("duplicate vertex ids")
    vset, edge_set = set(vertices), set(edges)
    for e in edges:
        if e[0] not in vset or e[1] not in vset:
            raise GraphFormatError(f"edge {e} has unknown endpoints")
    for e in tree:
        if e not in edge_set:
            raise GraphFormatError(f"tree edge {e} is not a graph edge")
        if e[0] == e[1]:
            raise GraphFormatError(f"loop {e} cannot be a tree edge")

    g = Graph(vertices, edges, tree, root=None)     # the root is set below
    if vertices and _reachable(g.adjacency, vertices[0]) != vset:
        raise GraphFormatError("multiple components")
    # tree must span and be acyclic
    if len(tree) != len(vertices) - 1:
        raise GraphFormatError("non-spanning tree set (wrong edge count)")
    tree_adj = _adjacency(vertices, tree)
    if _reachable(tree_adj, vertices[0]) != vset:
        raise GraphFormatError("non-spanning tree set")

    root = data.get("root")
    if root is None:
        leaves = [v for v in vertices if len(tree_adj[v]) == 1]
        if not leaves:
            raise GraphFormatError("no tree vertex of degree 1 to use as root")
        root = leaves[0]
    else:
        try:
            root = json_int(root)
        except (TypeError, ValueError):
            raise GraphFormatError(f"root {root!r} is not a vertex id") from None
        if root not in vset:
            raise GraphFormatError(f"root {root} is not a vertex")
        if len(tree_adj[root]) != 1:
            raise GraphFormatError(f"root {root} does not have degree 1 in the tree")
    g.root = root

    if "rotation" in data and data["rotation"] is not None:
        if not g.is_simple():
            raise GraphFormatError("rotation given for a multigraph; omit it and subdivide first")
        if not isinstance(data["rotation"], dict):
            raise GraphFormatError("rotation is not an object of neighbor lists")
        rotation = {}
        for v_str, nbrs in data["rotation"].items():
            try:
                # JSON object keys are strings: a vertex id as str(v) writes it
                v = int(v_str)
                if str(v) != v_str:
                    raise ValueError(v_str)
                rotation[v] = tuple(json_int(x) for x in nbrs)
            except (TypeError, ValueError):
                raise GraphFormatError(
                    f"rotation entry {v_str!r}: {nbrs!r} is not a decimal vertex "
                    "id with a list of neighbor ids") from None
            if v not in vset:
                raise GraphFormatError(f"rotation for unknown vertex {v}")
        for v in vertices:
            expected = g.neighbors(v)
            got = sorted(rotation.get(v, ()))
            if got != expected:
                raise GraphFormatError(
                    f"rotation inconsistent with incidence at vertex {v}: "
                    f"expected neighbors {expected}, got {got}")
        g.rotation = rotation
    return g


# ---------------------------------------------------------------------------
# subdivision


@dataclass
class SubdivisionReport:
    target_n: int
    path_violations: list[tuple[int, int, int]] = field(default_factory=list)
    # (essential u, essential v, edge count) per violating segment
    cycle_violations: list[tuple[int, ...]] = field(default_factory=list)
    # violating simple cycles as vertex tuples
    short_root_arc: tuple[int, ...] | None = None
    # the root arc (see _root_arc) when it has fewer than n-1 edges

    def ok(self) -> bool:
        return (not self.path_violations and not self.cycle_violations
                and self.short_root_arc is None)

    def require(self) -> None:
        """Raise SubdivisionError naming the first violation of each kind."""
        if self.ok():
            return
        n, parts = self.target_n, []
        if self.path_violations:
            u, v, k = self.path_violations[0]
            parts.append(f"{len(self.path_violations)} short segment(s), first "
                         f"{u}-{v} with {k} edges (needs {n - 1})")
        if self.cycle_violations:
            cycle = self.cycle_violations[0]
            parts.append(f"{len(self.cycle_violations)} short cycle(s), first "
                         f"{cycle} with {len(cycle)} edges (needs {n + 1})")
        if self.short_root_arc:
            arc = self.short_root_arc
            parts.append(f"root arc {arc} with {len(arc) - 1} edges (needs {n - 1})")
        raise SubdivisionError(f"graph is not sufficiently subdivided for {n} "
                               "particles: " + "; ".join(parts))


def _segments(g: Graph):
    """Maximal chains through degree-2 vertices.  Yields (u, v, edge ids)
    with u, v essential and distinct; edge ids index g.edges.  Cycles made
    of degree-2 vertices fall under the cycle condition instead."""
    essential = set(g.essential_vertices())
    adj, used = g.adjacency, set()
    for start in sorted(essential):
        for (nxt, eid) in sorted(adj[start]):
            if eid in used:
                continue
            chain = [eid]
            used.add(eid)
            cur = nxt
            # a degree-2 vertex entered by one edge leaves by its other edge,
            # which no chain has used: a chain through it would have used both
            while cur not in essential:
                cur, j = next((w, j) for w, j in adj[cur] if j not in used)
                chain.append(j)
                used.add(j)
            if cur != start:
                yield (start, cur, chain)


def _short_cycles(g: Graph, max_len: int):
    """All simple cycles of length <= max_len, as canonical vertex tuples;
    loops and parallel pairs are included.  Canonical form, which the
    subdivision report and the shortest-first padding rely on: a loop is
    (v,); any other cycle starts at its lowest vertex and heads for the
    neighbour that the adjacency lists first.  Cycles are deduplicated by
    edge set, keeping the first found, and sorted by (length, tuple), ties
    in discovery order.  The depth-first search walks an explicit stack of
    adjacency iterators, so no cycle length reaches the recursion limit."""
    adj = g.adjacency
    found: dict[frozenset[int], tuple[int, ...]] = {}
    for start in sorted(g.vertices):
        # the path from start, its vertices, and its edge ids in path order
        path, on_path, path_edges = [start], {start}, {}
        stack = [iter(adj[start])] if max_len >= 1 else []
        while stack:
            for w, eid in stack[-1]:
                if eid in path_edges:
                    continue
                if w == start:          # a loop at start, or a closing edge
                    found.setdefault(frozenset([*path_edges, eid]), tuple(path))
                elif w > start and w not in on_path and len(path) < max_len:
                    path.append(w)
                    on_path.add(w)
                    path_edges[eid] = None
                    stack.append(iter(adj[w]))
                    break
            else:
                stack.pop()
                if path_edges:
                    on_path.remove(path.pop())
                    path_edges.popitem()
    return [verts for _, verts in sorted(found.items(),
                                         key=lambda kv: (len(kv[0]), kv[1]))]


def _root_arc(g: Graph) -> tuple[int, ...]:
    """The tree path from the root through vertices of tree degree 2, up to
    the first tree junction or leaf.  The ordering numbers it 1, 2, ..."""
    tadj = _adjacency(g.vertices, g.tree_edges)
    arc = [g.root]
    step = [w for w, _ in tadj[g.root]]
    while len(step) == 1:
        arc.append(step[0])
        step = [w for w, _ in tadj[step[0]] if w != arc[-2]]
    return tuple(arc)


def check_subdivision(g: Graph, n: int) -> SubdivisionReport:
    """Violations of the three conditions for n particles: every segment
    between distinct essential vertices needs >= n-1 edges, every simple
    cycle needs >= n+1 edges, and the root arc needs >= n-1 edges (otherwise
    n particles stacked at the root reach a junction or run out of room, and
    the critical 0-cell is not unique)."""
    arc = _root_arc(g)
    return SubdivisionReport(
        n, [(u, v, len(chain)) for u, v, chain in _segments(g) if len(chain) < n - 1],
        _short_cycles(g, max_len=n), arc if len(arc) < n else None)


def subdivide_for(g: Graph, n: int) -> Graph:
    """Insert degree-2 vertices until the graph is sufficiently subdivided
    for n particles, then relabel canonically via ordered.  Returns g
    unchanged when it is already sufficient.  A loop at the root raises
    SubdivisionError: opening it would give the root tree degree 2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if (g.root, g.root) in g.edges:
        raise SubdivisionError(
            f"loop ({g.root}, {g.root}) at the root {g.root}: no subdivision of "
            "it keeps the root a leaf of the tree; choose another root")
    if g.is_simple() and check_subdivision(g, n).ok():
        return g

    # one entry per normalised edge pair: (u, v, is_tree), u and v in the
    # order the new vertices run from
    table: dict[Edge, tuple[int, int, bool]] = {}
    next_id = max(g.vertices) + 1
    rotation = dict(g.rotation) if g.rotation is not None else None

    def insert(u: int, v: int, in_tree: bool, extra: int):
        """Write the edge u-v into the table as a chain through `extra` new
        vertices.  Off the tree, exactly one piece is deleted, anchored at
        the root when the piece touches it (the root keeps tree degree 1),
        else at its lower end (new ids are larger, so the original one)."""
        nonlocal next_id
        new_vs = list(range(next_id, next_id + extra))
        next_id += extra
        chain = [u] + new_vs + [v]
        anchor = g.root if g.root in (u, v) else min(u, v)
        cut = None if in_tree else (0 if anchor == u else extra)
        for i, (a, b) in enumerate(zip(chain, chain[1:])):
            table[_norm_edge(a, b)] = (a, b, i != cut)
        if rotation is not None:
            def patch(vertex, old, new):
                rotation[vertex] = tuple(new if x == old else x for x in rotation[vertex])
            patch(u, v, chain[1])
            patch(v, u, chain[-2])
            for i, w in enumerate(new_vs):
                rotation[w] = (chain[i], chain[i + 2])

    def pad(pairs: list[Edge], total: int):
        """Spread `total` new vertices over the edges of the pairs, earlier
        edges taking the remainder."""
        base, extra = divmod(total, len(pairs))
        for i, pair in enumerate(pairs):
            insert(*table.pop(pair), base + (i < extra))

    def current_graph() -> Graph:
        vs = set(g.vertices) | {x for u, v, _ in table.values() for x in (u, v)}
        tree = frozenset(pair for pair, (_, _, is_tree) in table.items() if is_tree)
        return Graph(tuple(sorted(vs)), tuple(sorted(table)), tree, g.root, None)

    # the complex needs a simple graph: a loop opens into a triangle and a
    # later parallel copy takes one new vertex, so edge pairs name edges.
    # Loops are never tree edges (parse_graph), and of parallel copies only
    # the first can be.
    for a, b in g.edges:
        pair = _norm_edge(a, b)
        if a == b:
            insert(a, b, False, 2)
        elif pair in table:
            insert(a, b, False, 1)
        else:
            insert(a, b, pair in g.tree_edges, 0)

    # condition 1: pad short segments between distinct essential vertices
    cur = current_graph()
    for _, _, chain_eids in _segments(cur):
        if len(chain_eids) < n - 1:
            pad([cur.edges[eid] for eid in chain_eids], n - 1 - len(chain_eids))

    # condition 2: pad short cycles, shortest first, until none remain
    while cycles := _short_cycles(current_graph(), max_len=n):
        cyc = cycles[0]
        pad([_norm_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1])], n + 1 - len(cyc))

    # condition 3: pad a short root arc
    arc = _root_arc(current_graph())
    if 1 < len(arc) < n:
        pad([_norm_edge(a, b) for a, b in zip(arc, arc[1:])], n - len(arc))

    out = current_graph()
    if rotation is not None:
        out.rotation = rotation
    return relabel_canonically(out)


# ---------------------------------------------------------------------------
# ordering


@dataclass
class OrderedGraph:
    """Canonical, relabeled view: vertices 1..n, root 1, edges as (tau, iota)."""
    n: int
    edges: tuple[Edge, ...]                 # sorted, tau < iota
    tree: frozenset[Edge]
    deleted: tuple[Edge, ...]
    parent: dict[int, int]                  # label -> parent label (root absent)
    children: dict[int, tuple[int, ...]]    # rotation-ordered tree children
    rotation: dict[int, tuple[int, ...]]
    original_id: dict[int, int]
    source: Graph

    @property
    def root(self) -> int:
        return 1

    def parent_edge(self, v: int) -> Edge:
        return (self.parent[v], v)

    def is_two_connected(self) -> bool:
        """At least three vertices, connected and without a cut vertex, found
        by one depth-first walk with low-links (Hopcroft & Tarjan, CACM 1973)
        on an explicit stack: the root cuts when it has two tree children,
        any other vertex u when the subtree of a child reaches no edge above
        u."""
        if self.n < 3:
            return False
        adj = _adjacency(range(1, self.n + 1), self.edges)
        depth, low = {1: 0}, {1: 0}
        stack = [(1, iter(adj[1]))]
        root_children = 0
        while stack:
            v, pending = stack[-1]
            for w, _ in pending:
                if w not in depth:
                    depth[w] = low[w] = len(stack)
                    stack.append((w, iter(adj[w])))
                    break
                low[v] = min(low[v], depth[w])
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if u == 1:
                        root_children += 1
                    elif low[v] >= depth[u]:
                        return False
                    low[u] = min(low[u], low[v])
        return root_children == 1 and len(depth) == self.n


def ordered(g: Graph) -> OrderedGraph:
    """Number vertices 1..|V| from the root along the tree, depth first.  At
    a junction the branch toward the root is branch 0 and the remaining
    branches are taken clockwise (rotation order) from it; lower branches are
    numbered first.  Edges become (tau, iota) in label space, tau < iota.
    The package reads these guarantees and does not re-derive them: a
    parent's label is smaller than its children's, each subtree takes
    consecutive labels, and the root, label 1, has one tree child.
    `parse_graph` and `subdivide_for` keep the root a leaf of the tree; a
    graph built otherwise whose root is not a leaf is refused."""
    if not g.is_simple():
        raise GraphFormatError("ordering requires a simple graph; subdivide first")
    tops = [w for w in g.neighbors(g.root) if _norm_edge(g.root, w) in g.tree_edges]
    if len(tops) != 1:
        raise GraphFormatError(f"root {g.root} has tree children {tops}; "
                               "the root must be a leaf of the tree")
    rotation = g.rotation
    if rotation is None:
        warnings.warn("no rotation given; defaulting to ascending neighbor ids "
                      "(results depend on the embedding)", stacklevel=2)
        rotation = {v: tuple(g.neighbors(v)) for v in g.vertices}

    label: dict[int, int] = {}
    parent: dict[int, int] = {}
    children: dict[int, tuple[int, ...]] = {}
    # explicit stack DFS, branches pushed in reverse so the lowest branch is
    # numbered first and every child reaches its parent in branch order
    stack: list[tuple[int, int | None]] = [(g.root, None)]
    while stack:
        v, par = stack.pop()
        label[v] = lv = len(label) + 1
        children[lv] = ()
        branches = [w for w in rotation[v] if _norm_edge(v, w) in g.tree_edges]
        if par is not None:
            parent[lv] = label[par]
            children[label[par]] += (lv,)
            i = branches.index(par)
            branches = branches[i + 1:] + branches[:i]
        stack.extend((w, v) for w in reversed(branches))

    def relabel(e: Edge) -> Edge:
        return _norm_edge(label[e[0]], label[e[1]])

    edges = tuple(sorted(map(relabel, g.edges)))
    tree = frozenset(map(relabel, g.tree_edges))
    return OrderedGraph(
        n=len(g.vertices), edges=edges, tree=tree,
        deleted=tuple(e for e in edges if e not in tree),
        parent=parent, children=children,
        rotation={label[v]: tuple(label[w] for w in nbrs) for v, nbrs in rotation.items()},
        original_id={lv: v for v, lv in label.items()}, source=g)


def relabel_canonically(g: Graph) -> Graph:
    """Rewrite a graph with vertex ids equal to their depth-first labels.
    The rotation actually used for the ordering is stored on the result, so
    reordering the output is the identity."""
    og = ordered(g)
    return Graph(tuple(range(1, og.n + 1)), og.edges, og.tree, og.root, og.rotation)


# ---------------------------------------------------------------------------
# tree conditions


@dataclass
class TreeConditionReport:
    t1: bool
    t1_witnesses: list[Edge]
    t2: bool
    t2_witnesses: list[tuple[Edge, int]]

    def as_dict(self) -> dict:
        return {
            "t1": self.t1,
            "t1_witnesses": [list(e) for e in self.t1_witnesses],
            "t2": self.t2,
            "t2_witnesses": [[list(e), v] for e, v in self.t2_witnesses],
            "t3": "unverified",
        }


def check_tree_conditions(og: OrderedGraph) -> TreeConditionReport:
    """T1: every deleted edge ends (iota) at a degree-2 vertex.  T2: no
    deleted edge is separated in the tree by a vertex below its tau."""
    degree = Counter(v for e in og.edges for v in e)
    t1_wit = [e for e in og.deleted if degree[e[1]] != 2]

    t2_wit = []
    for e in og.deleted:
        tau, iota = e
        # the tree path tau..iota turns at the common ancestor, met by climbing
        # the larger label.  The path's vertices below tau are the ancestors
        # of tau up to the turn; iota's side lies in a later subtree
        a, b, up = tau, iota, []
        while a != b:
            if a < b:
                b = og.parent[b]
            else:
                a = og.parent[a]
                up.append(a)
        t2_wit.extend((e, v) for v in reversed(up))
    return TreeConditionReport(not t1_wit, t1_wit, not t2_wit, t2_wit)
