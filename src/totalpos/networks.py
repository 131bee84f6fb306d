"""Weighted planar directed networks keyed by (column, level).

Every edge strictly increases column, so the graph is acyclic by
construction and the weight matrix is computed by one dynamic-programming
sweep per source, never by path enumeration.  Enumeration of disjoint
path collections (lgv_oracle_minor) is kept separately as the
small-instance oracle for the determinant = disjoint-collection-sum
identity, which this module guarantees only for the three-section
network (three_section.build_three_section).

All three path computations (the sweep, the enumeration and positive
routing) run on one integer lift of the network (_integer_lift), built
once per network and kept: each vertex v gets a positive integer
potential phi(v), and an edge u -> v of weight w weighs the integer
w * phi(v) / phi(u), so a path weighs its true weight times
phi(end) / phi(start) and a sum of path weights is divided once.

Positive path collections are routed greedily, pair by pair in boundary
order, each along the lowest positive path that avoids the earlier ones,
over the lift's positive edges, kept once per sink and pruned to the
heads that can still reach it.  A pair's route depends only on the pairs
before it, so each query resumes after the pairs it shares with the
previous query on the same network.  In the three-section network every
edge joins adjacent columns, no two edges of one slot cross and both
boundaries are ordered by level, so disjoint paths cannot cross and
greedy routing finds a collection whenever one exists; on any network,
a collection it returns is genuine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import EnumerationBudgetError
from .matrices import ExactMatrix, MinorQuery
from .scalars import format_rational

__all__ = [
    "PlanarNetwork",
    "PathCollection",
    "weight_matrix",
    "lgv_oracle_minor",
    "find_positive_collection",
    "export_dot",
    "export_json",
]

Vertex = tuple[int, int]  # (column, level)


def _as_vertex(v) -> Vertex:
    c, l = v
    if isinstance(c, bool) or isinstance(l, bool):
        raise ValueError("vertex coordinates must be integers")
    if not isinstance(c, int) or not isinstance(l, int):
        raise ValueError(f"vertex coordinates must be integers: {(c, l)!r}")
    return (c, l)


class PlanarNetwork:
    """Immutable weighted DAG with ordered source and sink boundaries."""

    __slots__ = ("vertices", "edges", "sources", "sinks", "_lift", "_routes", "_trail")

    def __init__(self, vertices, edges, sources, sinks):
        vset = {_as_vertex(v) for v in vertices}
        norm_edges = []
        seen = set()
        for tail, head, w in edges:
            tail, head = _as_vertex(tail), _as_vertex(head)
            if tail not in vset or head not in vset:
                raise ValueError(f"edge endpoint not a vertex: {tail} -> {head}")
            if head[0] <= tail[0]:
                raise ValueError(
                    f"edge must strictly increase column: {tail} -> {head}"
                )
            if (tail, head) in seen:
                raise ValueError(f"duplicate edge: {tail} -> {head}")
            seen.add((tail, head))
            if isinstance(w, (bool, float, complex)):
                raise ValueError(
                    f"edge weight must be an exact rational, got "
                    f"{type(w).__name__} {w!r}: {tail} -> {head}"
                )
            norm_edges.append((tail, head, Fraction(w)))
        src = tuple(_as_vertex(v) for v in sources)
        snk = tuple(_as_vertex(v) for v in sinks)
        for name, seq in (("sources", src), ("sinks", snk)):
            if not seq:
                raise ValueError(f"{name} must be nonempty")
            if any(v not in vset for v in seq):
                raise ValueError(f"{name} must be vertices of the network")
            if any(a[1] >= b[1] for a, b in zip(seq, seq[1:])):
                raise ValueError(f"{name} must strictly increase in level")
        object.__setattr__(self, "vertices", tuple(sorted(vset)))
        object.__setattr__(self, "edges", tuple(sorted(norm_edges)))
        object.__setattr__(self, "sources", src)
        object.__setattr__(self, "sinks", snk)
        object.__setattr__(self, "_lift", None)
        object.__setattr__(self, "_routes", {})
        object.__setattr__(self, "_trail", [])

    def __setattr__(self, name, value):
        raise AttributeError("PlanarNetwork is immutable")

    def __reduce__(self):
        """Pickled and copied by its data; the copy rebuilds its caches."""
        return PlanarNetwork, (self.vertices, self.edges, self.sources, self.sinks)

    def _routes_to(self, sink: Vertex) -> tuple[dict, list]:
        """(vertex index, routing table toward sink), built on first use.

        The index is the integer lift's.  Entry k of the table lists the
        lift's positive edges out of vertex k as (head, lifted weight)
        pairs in edge order, keeping only heads from which a positive path
        reaches the sink; it is None when no positive path leads from
        vertex k to the sink.  Potentials are positive, so a lifted weight
        is positive exactly when the true weight is.  Each table is built
        once per sink and kept.  Next to them, self._trail holds one _Routed
        state per pair routed by the last positive-collection query.
        """
        index, adj, _ = _integer_lift(self)
        table = self._routes.get(sink)
        if table is None:
            table = [None] * len(index)
            table[index[sink]] = ()
            # Vertices are sorted by column, so heads come after their tails.
            for k in range(index[sink] - 1, -1, -1):
                edges = tuple((h, w) for h, w in adj[k] if w > 0 and table[h] is not None)
                if edges:
                    table[k] = edges
            self._routes[sink] = table
        return index, table

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlanarNetwork):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.edges == other.edges
            and self.sources == other.sources
            and self.sinks == other.sinks
        )

    def __hash__(self):
        return hash((self.vertices, self.edges, self.sources, self.sinks))

    def __repr__(self):
        return (
            f"PlanarNetwork({len(self.vertices)} vertices, {len(self.edges)} edges, "
            f"{len(self.sources)} sources, {len(self.sinks)} sinks)"
        )


def _integer_lift(net: PlanarNetwork) -> tuple[dict, list, list]:
    """(index, adj, phi): the network with integer edge weights, built on
    first use and kept on the network.

    Each vertex v gets a potential phi(v): 1 when v has no nonzero
    in-edge, and otherwise the lcm, over its nonzero in-edges u -> v of
    weight n/d (lowest terms, d > 0), of phi(u)*d / gcd(phi(u)*d, n).  The
    edge then weighs the integer n * phi(v) / (phi(u) * d), an exact
    division, whether it skips columns or not and whatever its sign; a
    path from u to v weighs its true weight times phi(v) / phi(u).  Edges
    are sorted by tail and increase the column, so every in-edge of a
    vertex comes before its out-edges and one pass fixes phi.

    Vertices are numbered by their position in net.vertices (index maps
    a vertex to its number); adj[k] lists (head number, integer weight)
    for the nonzero edges out of vertex k in edge order, and phi[k] is
    the potential of vertex k.
    """
    if net._lift is not None:
        return net._lift
    index = {v: k for k, v in enumerate(net.vertices)}
    edges = [
        (index[t], index[h], w.numerator, w.denominator) for t, h, w in net.edges if w
    ]
    phi = [1] * len(index)
    for a, b, n, d in edges:
        q = phi[a] * d
        phi[b] = math.lcm(phi[b], q // math.gcd(q, n))
    adj: list[list[tuple[int, int]]] = [[] for _ in phi]
    for a, b, n, d in edges:
        adj[a].append((b, n * phi[b] // (phi[a] * d)))
    lift = index, adj, phi
    object.__setattr__(net, "_lift", lift)
    return lift


def weight_matrix(net: PlanarNetwork) -> ExactMatrix:
    """Entry (i, j) is the weight sum over source-i -> sink-j paths.

    One integer sweep per source over the lift, in vertex order (sorted by
    column, and edges only go forward); each entry is then divided once,
    times the source's potential over the sink's.
    """
    index, adj, phi = _integer_lift(net)
    sinks = [index[t] for t in net.sinks]
    stop = max(sinks) + 1
    zero = Fraction(0)
    rows = []
    for s in net.sources:
        a = index[s]
        dp = [0] * len(adj)
        dp[a] = 1
        for v in range(a, stop):
            val = dp[v]
            if val:
                for head, w in adj[v]:
                    dp[head] += val * w
        rows.append(
            tuple(Fraction(dp[t] * phi[a], phi[t]) if dp[t] else zero for t in sinks)
        )
    return ExactMatrix(tuple(rows))


def _boundary_pairs(
    net: PlanarNetwork, rows: Sequence[int], cols: Sequence[int]
) -> list[tuple[Vertex, Vertex]]:
    query = MinorQuery(tuple(rows), tuple(cols))
    if not query.rows:
        raise ValueError("query must select at least one source/sink pair")
    if query.rows[-1] > len(net.sources) or query.cols[-1] > len(net.sinks):
        raise ValueError("query indices exceed the boundary size")
    return [
        (net.sources[i - 1], net.sinks[j - 1]) for i, j in zip(query.rows, query.cols)
    ]


def lgv_oracle_minor(
    net: PlanarNetwork,
    rows: Sequence[int],
    cols: Sequence[int],
    *,
    budget: int = 10**7,
) -> Fraction:
    """Sum of weights over vertex-disjoint path collections, r-th selected
    source to r-th selected sink, by brute-force enumeration.

    The product of per-pair path counts must stay within the budget.
    Zero-weight edges contribute nothing to any collection and the lift
    leaves them out, so the counts cover only paths that can matter.  The
    enumeration multiplies lifted integer weights and divides the total
    once: times the sources' potentials, over the sinks'.
    """
    pairs = _boundary_pairs(net, rows, cols)
    index, adj, phi = _integer_lift(net)
    ends = [(index[s], index[t]) for s, t in pairs]
    counts = []  # per pair: number of paths from each vertex to its sink
    product = 1
    for a, b in ends:
        to_sink = [0] * len(adj)
        to_sink[b] = 1
        for v in range(b - 1, a - 1, -1):
            total = 0
            for head, _ in adj[v]:
                total += to_sink[head]
            to_sink[v] = total
        counts.append(to_sink)
        product *= to_sink[a]
        if product > budget:
            raise EnumerationBudgetError(
                f"path-count product exceeds enumeration budget {budget}"
            )
    if product == 0:
        return Fraction(0)

    def paths(a: int, b: int, to_sink: list[int]) -> list[tuple[int, int]]:
        """(vertex bitmask, lifted weight) of every path from a to b."""
        out = []

        def rec(v: int, mask: int, weight: int):
            if v == b:
                out.append((mask, weight))
                return
            for head, w in adj[v]:
                if to_sink[head]:
                    rec(head, mask | 1 << head, weight * w)

        rec(a, 1 << a, 1)
        return out

    path_lists = [paths(a, b, to_sink) for (a, b), to_sink in zip(ends, counts)]
    total = 0

    def rec(r: int, used: int, weight: int):
        nonlocal total
        if r == len(path_lists):
            total += weight
            return
        for mask, w in path_lists[r]:
            if not used & mask:
                rec(r + 1, used | mask, weight * w)

    rec(0, 0, 1)
    return Fraction(
        total * math.prod(phi[a] for a, _ in ends), math.prod(phi[b] for _, b in ends)
    )


@dataclass(frozen=True)
class PathCollection:
    """Vertex-disjoint paths, one per selected boundary pair."""

    paths: tuple[tuple[Vertex, ...], ...]
    weight: Fraction

    def to_json_dict(self) -> dict:
        return {
            "paths": [[[c, l] for (c, l) in p] for p in self.paths],
            "weight": format_rational(self.weight),
        }


class _Routed(NamedTuple):
    """Greedy routing state right after one pair of a query: the pair, the
    search steps so far, the pair's path as vertex indices and as vertices,
    and the collection weight so far as numerator (the lifted edge weights
    times the sources' potentials) and denominator (the sinks' potentials).
    The vertices used so far are the indices of the states up to this one."""

    pair: tuple[Vertex, Vertex]
    steps: int
    indices: tuple[int, ...]
    path: tuple[Vertex, ...]
    num: int
    den: int


def find_positive_collection(
    net: PlanarNetwork,
    rows: Sequence[int],
    cols: Sequence[int],
    *,
    budget: int = 10**6,
) -> Optional[PathCollection]:
    """Vertex-disjoint collection along positive-weight edges, routed
    greedily in boundary order, or None when routing fails.

    Each pair gets the lowest path from its source to its sink that
    avoids the earlier pairs' paths: a depth-first search trying heads
    in (column, level) order among those with a positive path to the
    sink, which marks a vertex dead for the pair once its subtree fails
    (every edge increases the column, so the failure does not depend on
    the path into it).  No pair is re-routed.  The weight is one product
    of lifted edge weights and source potentials over one of sink
    potentials.

    A pair's route depends only on the pairs before it, so the search
    resumes after the longest run of leading pairs this query shares
    with the previous query on the same network, from the state kept
    after that run (steps included, so the budget binds as on a fresh
    network).

    When every edge joins adjacent columns, no two edges of one slot
    cross and both boundaries are ordered by level (build_three_section),
    disjoint paths cannot cross and the pointwise-lowest
    choice leaves the most room above it, so routing fails only when no
    collection exists.  On other networks a returned collection is still
    genuine; only a missing one is inconclusive.  The budget caps search
    steps (a vertex pushed onto or popped off the path); it is checked
    after each pair, and a query that needs more steps raises.
    """
    pairs = _boundary_pairs(net, rows, cols)
    trail = net._trail
    shared = 0
    for state, pair in zip(trail, pairs):
        if state.pair != pair:
            break
        shared += 1
    # Kept as a new list, so that a query on another thread never sees this
    # one cut the trail it is reading; appending keeps every prefix valid.
    trail = trail[:shared]
    object.__setattr__(net, "_trail", trail)
    steps, num, den = 0, 1, 1
    used: set[int] = set()
    for state in trail:
        steps, num, den = state.steps, state.num, state.den
        used.update(state.indices)
    vertices, phi = net.vertices, _integer_lift(net)[2]
    for pair in pairs[shared:]:
        if steps > budget:
            break
        index, routes = net._routes_to(pair[1])
        src, dst = index[pair[0]], index[pair[1]]
        if src in used or dst in used or routes[src] is None:
            return None
        # Vertices whose subtree failed join used until the pair is routed.
        dead = []
        path = [src]
        hops = []
        stack = [iter(routes[src])]
        while path[-1] != dst:
            for hop in stack[-1]:
                if hop[0] not in used:
                    path.append(hop[0])
                    hops.append(hop)
                    stack.append(iter(routes[hop[0]]))
                    break
            else:
                stack.pop()
                dead.append(path.pop())
                if not stack:
                    break
                used.add(dead[-1])
                hops.pop()
        # Each search step pushed or popped one vertex.
        steps += len(path) - 1 + 2 * len(dead)
        if not path:
            if steps > budget:
                break
            return None
        used.difference_update(dead)
        used.update(path)
        num *= phi[src]
        den *= phi[dst]
        for _, w in hops:
            num *= w
        trail.append(
            _Routed(pair, steps, tuple(path), tuple([vertices[k] for k in path]), num, den)
        )
    if steps > budget:
        raise EnumerationBudgetError(
            f"positive-collection search exceeded budget {budget}"
        )
    return PathCollection(tuple(state.path for state in trail), Fraction(num, den))


def _vertex_name(v: Vertex) -> str:
    return f"c{v[0]}_l{v[1]}"


def export_dot(net: PlanarNetwork) -> str:
    """Deterministic DOT text; edge labels carry explicit numerator/denominator."""
    lines = ["digraph {"]
    for v in net.vertices:
        lines.append(f'  "{_vertex_name(v)}";')
    for tail, head, w in net.edges:
        label = f"{w.numerator}/{w.denominator}"
        lines.append(
            f'  "{_vertex_name(tail)}" -> "{_vertex_name(head)}" [label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(net: PlanarNetwork) -> str:
    data = {
        "vertices": [{"column": c, "level": l} for (c, l) in net.vertices],
        "edges": [
            {"from": [t[0], t[1]], "to": [h[0], h[1]], "weight": format_rational(w)}
            for (t, h, w) in net.edges
        ],
        "sources": [[c, l] for (c, l) in net.sources],
        "sinks": [[c, l] for (c, l) in net.sinks],
    }
    return json.dumps(data, indent=2)
