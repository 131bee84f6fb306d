"""Independently coded oracles and test-input builders.

None of these is reached by a command of the package: each serves only
to check what the package computes another way (path enumeration over
the network's own Fraction weights, read off its edges, next to the
sweep over its integer lift; the weight table read back off a network;
the standard weights' per-path denominators; the matrix product and the
three factors of the sign factorization, which the integer check is
compared with; the three-section network placed edge by edge from the
weight table, which the slot-word placement is compared with) or to
build test inputs (the unit grid, identity and
diagonal matrices, constants from extra pairs, a rational polynomial
lifted into Q(i, sigma), a network rebuilt from its JSON export).  The
tests import them as ``oracles``; pytest puts this directory on
``sys.path``.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from totalpos import (
    ExactMatrix,
    ExtPolynomial,
    FamilyConstants,
    PlanarNetwork,
    Polynomial,
    Rational,
    SectionWeights,
    closed_form_matrix,
    ext_rational,
    weight_key_set,
)
from totalpos.matrices import _int_lift

Vertex = tuple[int, int]  # (column, level)


def identity(n: int) -> ExactMatrix:
    one, zero = Fraction(1), Fraction(0)
    return ExactMatrix(
        tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
    )


def diagonal(values: Iterable) -> ExactMatrix:
    zero = Fraction(0)
    vals = [Fraction(v) for v in values]
    return ExactMatrix(
        tuple(tuple(v if i == j else zero for j in range(len(vals))) for i, v in enumerate(vals))
    )


def sign_factorization_matrices(m: int) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """(left diagonal, middle stack, right diagonal) whose product is the
    coefficient matrix of the family, each from its formula:

    Left: diag((-1)^i for i=1..t, (-1)^(t+i) for i=1..t, 1 for i=1..t).
    Middle: identity over (B1 B2) over (0 B3), 3t x m, the block being
    closed_form_matrix(m).
    Right: diag((-1)^i for i=1..t, (-1)^(t+i) for i=1..t).
    """
    t = m // 2
    right = [(-1) ** i for i in range(1, t + 1)] + [(-1) ** (t + i) for i in range(1, t + 1)]
    middle = ExactMatrix(identity(m).entries[:t] + closed_form_matrix(m).entries)
    return diagonal(right + [1] * t), middle, diagonal(right)


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The exact product, from integer dot products: a and the transpose of
    b are each lifted to integers over one common denominator, and each
    entry is one Fraction of an integer dot product over the two."""
    if a.cols != b.rows:
        raise ValueError("inner dimensions must agree")
    rows, sa = _int_lift(a.entries)
    cols, sb = _int_lift(list(zip(*b.entries)))
    return ExactMatrix(
        tuple(
            tuple(Fraction(sum(map(operator.mul, x, y)), sa * sb) for y in cols)
            for x in rows
        )
    )


def constants_from_extras(
    extras: Iterable[tuple[Rational, Rational]],
) -> FamilyConstants:
    """The fixed pair (0, 1) followed by the given extra pairs."""
    return FamilyConstants(((0, 1), *extras))


def ext_lift(poly: Polynomial, disc: int) -> ExtPolynomial:
    """The rational polynomial with each coefficient embedded in Q(i, sigma)."""
    return ExtPolynomial(disc, tuple(ext_rational(c, disc) for c in poly.coeffs))


def adjacency(net: PlanarNetwork) -> dict[Vertex, list[tuple[Vertex, Fraction]]]:
    """(head, weight) of each edge out of a vertex, zero weights included,
    read off net.edges in their order."""
    adj: dict[Vertex, list[tuple[Vertex, Fraction]]] = {}
    for tail, head, w in net.edges:
        adj.setdefault(tail, []).append((head, w))
    return adj


def count_paths(net: PlanarNetwork, src: Vertex, dst: Vertex) -> int:
    """Number of directed paths, zero-weight edges included."""
    adj = adjacency(net)
    dp: dict[Vertex, int] = {src: 1}
    for v in net.vertices:
        val = dp.get(v)
        if not val:
            continue
        for head, _ in adj.get(v, ()):
            dp[head] = dp.get(head, 0) + val
    return dp.get(dst, 0)


def iter_paths(
    net: PlanarNetwork,
    src: Vertex,
    dst: Vertex,
    edge_ok: Optional[Callable[[Vertex, Vertex, Fraction], bool]] = None,
) -> Iterator[tuple[tuple[Vertex, ...], Fraction]]:
    """Yield (vertex tuple, weight product) for every src -> dst path."""
    adj = adjacency(net)
    if src not in adj and src != dst:
        return
    limit_col = dst[0]
    stack_path: list[Vertex] = [src]

    def rec(v: Vertex, weight: Fraction):
        if v == dst:
            yield tuple(stack_path), weight
            return
        if v[0] >= limit_col:
            return
        for head, w in adj.get(v, ()):
            if edge_ok is not None and not edge_ok(v, head, w):
                continue
            stack_path.append(head)
            yield from rec(head, weight * w)
            stack_path.pop()

    yield from rec(src, Fraction(1))


def build_grid(grid_size: int, boundary_size: int) -> PlanarNetwork:
    """Unit-weight monotone grid with the staircase boundary.

    Grid points (x, y), 1 <= x, y <= grid_size+1, with unit steps in x
    and in y; source i is (1, i) and sink i is (grid_size - i + 2,
    grid_size + 1).  Embedded with column = x + y and level = y - x so
    that every edge strictly increases column.  Every edge joins adjacent
    columns and no two edges of one slot cross, so greedy positive-path
    routing is complete on it, as on the three-section network.
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


def three_section_oracle(weights: SectionWeights) -> PlanarNetwork:
    """The three-section network placed straight from the weight table:
    a weight-one horizontal at every level of every slot except the
    middle one (slot n-1), which carries the middle weights; the
    descending edge of left slot n-1-j dropping to level d+j-1 carries
    left[(d, j)], and the ascending edge of right slot n-1+j rising from
    level d+j-1 carries right[(d, j)]."""
    n = weights.n
    last = 2 * n - 1
    vertices = [(c, lvl) for c in range(last + 1) for lvl in range(1, n + 1)]
    edges = []
    for c in range(last):
        for lvl in range(1, n + 1):
            w = weights.middle[lvl - 1] if c == n - 1 else Fraction(1)
            edges.append(((c, lvl), (c + 1, lvl), w))
    for d, j in weight_key_set(n):
        lvl = d + j - 1
        edges.append(((n - 1 - j, lvl + 1), (n - j, lvl), weights.left[(d, j)]))
        edges.append(((n - 1 + j, lvl), (n + j, lvl + 1), weights.right[(d, j)]))
    sources = [(0, lvl) for lvl in range(1, n + 1)]
    sinks = [(last, lvl) for lvl in range(1, n + 1)]
    return PlanarNetwork(vertices, edges, sources, sinks)


def extract_weights(net: PlanarNetwork) -> SectionWeights:
    """Read the weight table back off a three-section network.

    Inverse of build_three_section on its image; anything else is
    rejected (unclassifiable edge, wrong plain-horizontal weight, or an
    incomplete label set).
    """
    n = len(net.sources)
    if len(net.sinks) != n:
        raise ValueError("not a three-section network: boundary sizes differ")
    keys = weight_key_set(n)
    left: dict[tuple[int, int], Fraction] = {}
    right: dict[tuple[int, int], Fraction] = {}
    middle: list[Optional[Fraction]] = [None] * n
    for (c1, l1), (c2, l2), w in net.edges:
        if c2 != c1 + 1 or not (1 <= l1 <= n and 1 <= l2 <= n):
            raise ValueError(f"not a three-section network: edge ({c1},{l1})->({c2},{l2})")
        if l2 == l1:
            if c1 == n - 1:
                middle[l1 - 1] = w
            elif w != 1:
                raise ValueError(
                    "not a three-section network: plain horizontal with weight != 1"
                )
        elif l2 == l1 - 1:
            j = n - 1 - c1
            d = l2 - j + 1
            if (d, j) not in keys:
                raise ValueError(
                    f"not a three-section network: stray descending edge at column {c1}"
                )
            left[(d, j)] = w
        elif l2 == l1 + 1:
            j = c1 - n + 1
            d = l1 - j + 1
            if (d, j) not in keys:
                raise ValueError(
                    f"not a three-section network: stray ascending edge at column {c1}"
                )
            right[(d, j)] = w
        else:
            raise ValueError(
                f"not a three-section network: edge ({c1},{l1})->({c2},{l2})"
            )
    if set(left) != keys or set(right) != keys or any(v is None for v in middle):
        raise ValueError("not a three-section network: incomplete label set")
    return SectionWeights(n=n, left=left, middle=tuple(middle), right=right)


def network_from_json(text: str) -> PlanarNetwork:
    """The network that export_json wrote, rebuilt from its text."""
    data = json.loads(text)
    return PlanarNetwork(
        [(v["column"], v["level"]) for v in data["vertices"]],
        [(tuple(e["from"]), tuple(e["to"]), Fraction(e["weight"])) for e in data["edges"]],
        [tuple(v) for v in data["sources"]],
        [tuple(v) for v in data["sinks"]],
    )


def ascent_level_product(path: Sequence[tuple[int, int]]) -> int:
    """Product of the lower-endpoint levels of the ascending steps; under
    the standard weights this is the per-path denominator (i)_{j-i}."""
    prod = 1
    for (_, a), (_, b) in zip(path, path[1:]):
        if b > a:
            prod *= a
    return prod
