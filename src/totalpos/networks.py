"""Weighted planar directed networks keyed by (column, level).

Every edge strictly increases column, so the graph is acyclic by
construction and the weight matrix is computed by one dynamic-programming
sweep per source, never by path enumeration.  Path enumeration is kept
separately as the small-instance oracle for the determinant =
disjoint-collection-sum identity, which this module guarantees only for
the built-in constructions (the three-section network and the grid).

Both run on an integer lift of the network (_integer_lift): each edge
weight is scaled by the denominators of the columns it spans, so every
path between two columns is scaled by the same integer and a sum of path
weights is one integer sum divided once.

Positive path collections are routed greedily, pair by pair in boundary
order, each along the lowest positive path that avoids the earlier ones,
over a positive-edge adjacency built once per sink and pruned to the
heads that can still reach it.  A pair's route depends only on the pairs
before it, so each query resumes after the pairs it shares with the
previous query on the same network.  In the built-in constructions every
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
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .errors import EnumerationBudgetError, NetworkFormatError
from .matrices import ExactMatrix, MinorQuery
from .scalars import format_rational, parse_rational

__all__ = [
    "PlanarNetwork",
    "PathCollection",
    "weight_matrix",
    "iter_paths",
    "count_paths",
    "lgv_oracle_minor",
    "find_positive_collection",
    "build_grid",
    "export_dot",
    "export_json",
    "import_json",
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

    __slots__ = ("vertices", "edges", "sources", "sinks", "_adj", "_routes", "_trail")

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
        adj: dict[Vertex, list[tuple[Vertex, Fraction]]] = {}
        for tail, head, w in self.edges:
            adj.setdefault(tail, []).append((head, w))
        object.__setattr__(self, "_adj", {k: tuple(v) for k, v in adj.items()})
        object.__setattr__(self, "_routes", None)
        object.__setattr__(self, "_trail", [])

    def __setattr__(self, name, value):
        raise AttributeError("PlanarNetwork is immutable")

    @property
    def adjacency(self) -> dict:
        return self._adj

    def _routes_to(self, sink: Vertex) -> tuple[dict, list]:
        """(vertex index, routing table toward sink), built on first use.

        Vertices are numbered by their position in self.vertices.  Entry k
        of the table lists the positive-weight edges out of vertex k as
        (head, numerator, denominator) triples in adjacency order, keeping
        only heads from which a positive path reaches the sink; it is None
        when no positive path leads from vertex k to the sink.  The index
        is built once per network and each table once per sink; both are
        kept.  Next to them, self._trail holds one _Routed state per pair
        routed by the last positive-collection query.
        """
        if self._routes is None:
            index = {v: k for k, v in enumerate(self.vertices)}
            object.__setattr__(self, "_routes", (index, {}))
        index, tables = self._routes
        table = tables.get(sink)
        if table is None:
            table = [None] * len(index)
            table[index[sink]] = ()
            # Vertices are sorted by column, so heads come after their tails.
            for k in range(index[sink] - 1, -1, -1):
                edges = tuple(
                    (index[h], w.numerator, w.denominator)
                    for h, w in self._adj.get(self.vertices[k], ())
                    if w > 0 and table[index[h]] is not None
                )
                if edges:
                    table[k] = edges
            tables[sink] = table
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
    """(index, adj, scale): the network with integer edge weights.

    Column c gets the lcm of the denominators of the nonzero edges leaving
    it, and scale[c] is the product of those lcms over the columns before
    c.  An edge from column c1 to c2 of weight w then weighs the integer
    w * scale[c2] / scale[c1], which holds for edges that skip columns and
    for zero, negative or fractional weights alike; a path from u to v
    weighs its true weight times scale[v] / scale[u].

    Vertices are numbered by their position in net.vertices (index maps
    a vertex to its number); adj[k] lists (head number, integer weight)
    for the nonzero edges out of vertex k in adjacency order, and
    scale[k] is the scale of vertex k's column.
    """
    index = {v: k for k, v in enumerate(net.vertices)}
    nonzero = []
    dens: dict[int, set[int]] = {}  # denominators above 1, by tail column
    for tail, head, w in net.edges:
        num = w.numerator
        if num:
            den = w.denominator
            nonzero.append((tail, head, num, den))
            if den != 1:
                dens.setdefault(tail[0], set()).add(den)
    col_scale = {}
    acc = 1
    for c in sorted({c for c, _ in net.vertices}):
        col_scale[c] = acc
        if c in dens:
            acc *= math.lcm(*dens[c])
    ratio: dict[tuple[int, int], int] = {}
    adj: list[list[tuple[int, int]]] = [[] for _ in net.vertices]
    for tail, head, num, den in nonzero:
        span = (tail[0], head[0])
        r = ratio.get(span)
        if r is None:
            r = ratio[span] = col_scale[head[0]] // col_scale[tail[0]]
        adj[index[tail]].append((index[head], num * (r // den)))
    return index, adj, [col_scale[c] for c, _ in net.vertices]


def weight_matrix(net: PlanarNetwork) -> ExactMatrix:
    """Entry (i, j) is the weight sum over source-i -> sink-j paths.

    One integer sweep per source over the lift, in vertex order (sorted by
    column, and edges only go forward); each entry is divided once.
    """
    index, adj, scale = _integer_lift(net)
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
        base = scale[a]
        rows.append(
            tuple(Fraction(dp[t], scale[t] // base) if dp[t] else zero for t in sinks)
        )
    return ExactMatrix(tuple(rows))


def count_paths(net: PlanarNetwork, src: Vertex, dst: Vertex) -> int:
    """Number of directed paths, zero-weight edges included."""
    dp: dict[Vertex, int] = {src: 1}
    for v in net.vertices:
        val = dp.get(v)
        if not val:
            continue
        for head, _ in net.adjacency.get(v, ()):
            dp[head] = dp.get(head, 0) + val
    return dp.get(dst, 0)


def iter_paths(
    net: PlanarNetwork,
    src: Vertex,
    dst: Vertex,
    edge_ok: Optional[Callable[[Vertex, Vertex, Fraction], bool]] = None,
) -> Iterator[tuple[tuple[Vertex, ...], Fraction]]:
    """Yield (vertex tuple, weight product) for every src -> dst path."""
    if src not in net.adjacency and src != dst:
        return
    limit_col = dst[0]
    stack_path: list[Vertex] = [src]

    def rec(v: Vertex, weight: Fraction):
        if v == dst:
            yield tuple(stack_path), weight
            return
        if v[0] >= limit_col:
            return
        for head, w in net.adjacency.get(v, ()):
            if edge_ok is not None and not edge_ok(v, head, w):
                continue
            stack_path.append(head)
            yield from rec(head, weight * w)
            stack_path.pop()

    yield from rec(src, Fraction(1))


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
    once by the pairs' scales.
    """
    pairs = _boundary_pairs(net, rows, cols)
    index, adj, scale = _integer_lift(net)
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
    divisor = 1
    for a, b in ends:
        divisor *= scale[b] // scale[a]
    return Fraction(total, divisor)


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
    and the collection weight so far as numerator and denominator.  The
    vertices used so far are the indices of the states up to this one."""

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
    of numerators over one of denominators.

    A pair's route depends only on the pairs before it, so the search
    resumes after the longest run of leading pairs this query shares
    with the previous query on the same network, from the state kept
    after that run (steps included, so the budget binds as on a fresh
    network).

    When every edge joins adjacent columns, no two edges of one slot
    cross and both boundaries are ordered by level (build_three_section
    and build_grid), disjoint paths cannot cross and the pointwise-lowest
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
    vertices = net.vertices
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
        for _, a, b in hops:
            num *= a
            den *= b
        trail.append(
            _Routed(pair, steps, tuple(path), tuple([vertices[k] for k in path]), num, den)
        )
    if steps > budget:
        raise EnumerationBudgetError(
            f"positive-collection search exceeded budget {budget}"
        )
    return PathCollection(tuple(state.path for state in trail), Fraction(num, den))


def build_grid(grid_size: int, boundary_size: int) -> PlanarNetwork:
    """Unit-weight monotone grid with the staircase boundary.

    Grid points (x, y), 1 <= x, y <= grid_size+1, with unit steps in x
    and in y; source i is (1, i) and sink i is (grid_size - i + 2,
    grid_size + 1).  Embedded with column = x + y and level = y - x so
    that every edge strictly increases column.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    if not 1 <= boundary_size <= grid_size + 1:
        raise ValueError("boundary_size must be between 1 and grid_size + 1")
    side = grid_size + 1
    vertices = [(x + y, y - x) for x in range(1, side + 1) for y in range(1, side + 1)]
    edges = []
    for x in range(1, side + 1):
        for y in range(1, side + 1):
            v = (x + y, y - x)
            if x < side:
                edges.append((v, (x + 1 + y, y - x - 1), 1))
            if y < side:
                edges.append((v, (x + y + 1, y + 1 - x), 1))
    sources = [(1 + i, i - 1) for i in range(1, boundary_size + 1)]
    sinks = [(2 * grid_size + 3 - i, i - 1) for i in range(1, boundary_size + 1)]
    return PlanarNetwork(vertices, edges, sources, sinks)


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


def _take_vertex(value, where: str) -> Vertex:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(isinstance(x, bool) or not isinstance(x, int) for x in value)
    ):
        raise NetworkFormatError(f"{where}: expected [column, level] integers")
    return (value[0], value[1])


def import_json(text: str) -> tuple[PlanarNetwork, tuple[str, ...]]:
    """Parse a network; returns (network, warnings).

    Warnings flag legal but non-canonical weights (e.g. "2/4"), which are
    normalized.  Malformed input raises NetworkFormatError with the
    position (line/column for syntax, JSON path for schema).
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise NetworkFormatError(
            f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    if not isinstance(data, dict):
        raise NetworkFormatError("top level: expected an object")
    required = ("vertices", "edges", "sources", "sinks")
    for key in required:
        if key not in data:
            raise NetworkFormatError(f"top level: missing key {key!r}")
    for key in data:
        if key not in required:
            raise NetworkFormatError(f"top level: unexpected key {key!r}")
    if not isinstance(data["vertices"], list):
        raise NetworkFormatError("vertices: expected a list")
    vertices = []
    for idx, item in enumerate(data["vertices"]):
        where = f"vertices[{idx}]"
        if not isinstance(item, dict) or set(item) != {"column", "level"}:
            raise NetworkFormatError(f"{where}: expected {{column, level}}")
        c, l = item["column"], item["level"]
        if any(isinstance(x, bool) or not isinstance(x, int) for x in (c, l)):
            raise NetworkFormatError(f"{where}: column/level must be integers")
        vertices.append((c, l))
    if not isinstance(data["edges"], list):
        raise NetworkFormatError("edges: expected a list")
    warnings = []
    edges = []
    for idx, item in enumerate(data["edges"]):
        where = f"edges[{idx}]"
        if not isinstance(item, dict) or set(item) != {"from", "to", "weight"}:
            raise NetworkFormatError(f"{where}: expected {{from, to, weight}}")
        tail = _take_vertex(item["from"], f"{where}.from")
        head = _take_vertex(item["to"], f"{where}.to")
        if not isinstance(item["weight"], str):
            raise NetworkFormatError(f"{where}.weight: expected a string")
        try:
            value, canonical = parse_rational(item["weight"])
        except ValueError as e:
            raise NetworkFormatError(f"{where}.weight: {e}") from None
        if not canonical:
            warnings.append(
                f"{where}.weight: {item['weight']!r} normalized to "
                f"{format_rational(value)!r}"
            )
        edges.append((tail, head, value))
    for key in ("sources", "sinks"):
        if not isinstance(data[key], list):
            raise NetworkFormatError(f"{key}: expected a list")
    sources = [
        _take_vertex(v, f"sources[{i}]") for i, v in enumerate(data["sources"])
    ]
    sinks = [_take_vertex(v, f"sinks[{i}]") for i, v in enumerate(data["sinks"])]
    try:
        net = PlanarNetwork(vertices, edges, sources, sinks)
    except ValueError as e:
        raise NetworkFormatError(str(e)) from None
    return net, tuple(warnings)
