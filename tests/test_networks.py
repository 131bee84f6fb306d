from __future__ import annotations

import copy
import json
import pickle
import random
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

import pytest

from totalpos import (
    EnumerationBudgetError,
    PlanarNetwork,
    binomial,
    build_three_section,
    export_dot,
    export_json,
    find_positive_collection,
    lgv_oracle_minor,
    standard_weights,
    weight_matrix,
)
from totalpos.matrices import ExactMatrix
from totalpos.networks import PathCollection, Vertex, _boundary_pairs, _integer_lift
from totalpos.three_section import SectionWeights, weight_key_set

from oracles import adjacency, build_grid, count_paths, iter_paths, network_from_json


def positive_collection_oracle(
    net: PlanarNetwork,
    rows: Sequence[int],
    cols: Sequence[int],
    *,
    budget: int = 10**6,
) -> Optional[PathCollection]:
    """Independent oracle: the first vertex-disjoint collection along
    positive-weight edges by full backtracking (a later pair's failure
    re-routes the earlier pairs), or None when none exists.  The budget
    caps visited search states.
    """
    pairs = _boundary_pairs(net, rows, cols)
    adj = adjacency(net)
    steps = 0
    used: set[Vertex] = set()
    out_paths: list[tuple[Vertex, ...]] = []

    def route(r: int) -> bool:
        nonlocal steps
        if r == len(pairs):
            return True
        src, dst = pairs[r]
        if src in used or dst in used:
            return False
        limit_col = dst[0]
        path: list[Vertex] = [src]

        def walk(v: Vertex) -> bool:
            nonlocal steps
            steps += 1
            if steps > budget:
                raise EnumerationBudgetError(
                    f"positive-collection search exceeded budget {budget}"
                )
            if v == dst:
                used.update(path)
                out_paths.append(tuple(path))
                if route(r + 1):
                    return True
                out_paths.pop()
                used.difference_update(path)
                return False
            if v[0] >= limit_col:
                return False
            for head, w in adj.get(v, ()):
                if w > 0 and head not in used:
                    path.append(head)
                    if walk(head):
                        return True
                    path.pop()
            return False

        return walk(src)

    if route(0):
        weight = Fraction(1)
        for p in out_paths:
            for a, b in zip(p, p[1:]):
                for head, w in adj[a]:
                    if head == b:
                        weight *= w
                        break
        return PathCollection(tuple(out_paths), weight)
    return None


def weight_matrix_oracle(net: PlanarNetwork) -> ExactMatrix:
    """Independent oracle: entry (i, j) is the weight sum over source-i ->
    sink-j paths, by one Fraction sweep per source over a vertex dict."""
    adj = adjacency(net)
    zero = Fraction(0)
    rows = []
    for s in net.sources:
        dp: dict[Vertex, Fraction] = {s: Fraction(1)}
        for v in net.vertices:  # sorted by column, and edges only go forward
            val = dp.get(v)
            if not val:
                continue
            for head, w in adj.get(v, ()):
                if w:
                    dp[head] = dp.get(head, zero) + val * w
        rows.append([dp.get(t, zero) for t in net.sinks])
    return ExactMatrix.from_rows(rows)


def lgv_minor_oracle(
    net: PlanarNetwork,
    rows: Sequence[int],
    cols: Sequence[int],
    *,
    budget: int = 10**7,
) -> Fraction:
    """Independent oracle: the sum of weights over vertex-disjoint path
    collections, by enumeration with iter_paths over the network with its
    zero-weight edges removed, in Fraction arithmetic.

    The product of per-pair path counts must stay within the budget.
    """
    pairs = _boundary_pairs(net, rows, cols)
    # Zero-weight edges contribute nothing to any collection; prune them so
    # the enumeration budget reflects paths that can actually matter.
    pruned = PlanarNetwork(
        net.vertices,
        [(t, h, w) for (t, h, w) in net.edges if w != 0],
        net.sources,
        net.sinks,
    )
    product = 1
    for s, t in pairs:
        product *= count_paths(pruned, s, t)
        if product > budget:
            raise EnumerationBudgetError(
                f"path-count product exceeds enumeration budget {budget}"
            )
    if product == 0:
        return Fraction(0)
    path_lists = [
        [(frozenset(p), w) for p, w in iter_paths(pruned, s, t)] for s, t in pairs
    ]
    total = Fraction(0)
    used: set[Vertex] = set()

    def rec(r: int, weight: Fraction):
        nonlocal total
        if r == len(path_lists):
            total += weight
            return
        for pset, w in path_lists[r]:
            if used.isdisjoint(pset):
                used.update(pset)
                rec(r + 1, weight * w)
                used.difference_update(pset)

    rec(0, Fraction(1))
    return total


def random_network(seed: int) -> PlanarNetwork:
    """Seeded network off the built-in shapes: columns with gaps, edges that
    skip columns, zero, negative and non-integer weights, and sources and
    sinks at different columns."""
    rng = random.Random(seed)
    columns = sorted(rng.sample(range(-3, 12), rng.randint(3, 6)))
    levels = range(rng.randint(2, 4))
    vertices = [(c, l) for c in columns for l in levels if rng.random() < 0.9]
    weights = (
        0, 1, 2, -1, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(7, 6)
    )
    edges = [
        (u, v, rng.choice(weights))
        for u in vertices
        for v in vertices
        if v[0] > u[0] and rng.random() < 0.3
    ]

    def boundary(pool):
        by_level = {}
        for v in rng.sample(pool, len(pool)):
            by_level.setdefault(v[1], v)
        chosen = sorted(rng.sample(sorted(by_level), rng.randint(1, len(by_level))))
        return [by_level[l] for l in chosen]

    half = max(1, len(vertices) // 2)
    sources = boundary(vertices[:half])
    sinks = boundary(vertices[len(vertices) // 3 :])
    return PlanarNetwork(vertices, edges, sources, sinks)


def path_count_product(net: PlanarNetwork, rows, cols) -> int:
    """Product over the query's pairs of their path counts along nonzero edges."""
    nonzero = PlanarNetwork(
        net.vertices, [e for e in net.edges if e[2]], net.sources, net.sinks
    )
    product = 1
    for s, t in _boundary_pairs(net, rows, cols):
        product *= count_paths(nonzero, s, t)
    return product


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of the EnumerationBudgetError it raised."""
    try:
        return fn(*args, **kwargs)
    except EnumerationBudgetError as exc:
        return (EnumerationBudgetError, str(exc))


def zeroed_three_section(m, seed):
    """Three-section network with seeded weights: about a third of the
    diagonal weights 0, the rest and the middle column small positive
    fractions."""
    rng = random.Random(seed)

    def positive():
        return Fraction(rng.randint(1, 5), rng.randint(1, 5))

    def draw():
        return Fraction(0) if rng.random() < 1 / 3 else positive()

    keys = sorted(weight_key_set(m))
    left = {k: draw() for k in keys}
    middle = tuple(positive() for _ in range(m))
    right = {k: draw() for k in keys}
    return build_three_section(SectionWeights(n=m, left=left, middle=middle, right=right))


AGREEMENT_NETWORKS = (
    [(f"standard-m{m}", lambda m=m: build_three_section(standard_weights(m))) for m in (2, 4, 6)]
    + [
        (f"zeroed-m{m}-seed{seed}", lambda m=m, seed=seed: zeroed_three_section(m, seed))
        for m in (4, 6)
        for seed in range(5)
    ]
    + [
        (f"grid-{g}x{b}", lambda g=g, b=b: build_grid(g, b))
        for g, b in ((3, 3), (4, 4), (5, 3))
    ]
)


def tiny_net():
    """Two sources, two sinks, one crossing-free diagonal pair."""
    return PlanarNetwork(
        vertices=[(0, 1), (0, 2), (1, 1), (1, 2)],
        edges=[
            ((0, 1), (1, 1), Fraction(1)),
            ((0, 2), (1, 2), Fraction(1)),
            ((0, 2), (1, 1), Fraction(3)),
        ],
        sources=[(0, 1), (0, 2)],
        sinks=[(1, 1), (1, 2)],
    )


class TestValidation:
    def test_edges_must_increase_in_column(self):
        with pytest.raises(ValueError, match="strictly increase column"):
            PlanarNetwork(
                vertices=[(0, 1), (1, 1)],
                edges=[((1, 1), (0, 1), Fraction(1))],
                sources=[(0, 1)],
                sinks=[(1, 1)],
            )

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            PlanarNetwork(
                vertices=[(0, 1), (1, 1)],
                edges=[((0, 1), (1, 1), Fraction(1)), ((0, 1), (1, 1), Fraction(2))],
                sources=[(0, 1)],
                sinks=[(1, 1)],
            )

    def test_edge_endpoints_must_be_vertices(self):
        with pytest.raises(ValueError, match="endpoint not a vertex"):
            PlanarNetwork(
                vertices=[(0, 1)],
                edges=[((0, 1), (1, 1), Fraction(1))],
                sources=[(0, 1)],
                sinks=[(0, 1)],
            )

    def test_boundary_levels_must_increase(self):
        with pytest.raises(ValueError, match="sources must strictly increase"):
            PlanarNetwork(
                vertices=[(0, 1), (0, 2), (1, 1)],
                edges=[],
                sources=[(0, 2), (0, 1)],
                sinks=[(1, 1)],
            )

    def test_boundary_must_be_nonempty(self):
        with pytest.raises(ValueError):
            PlanarNetwork(vertices=[(0, 1)], edges=[], sources=[], sinks=[(0, 1)])

    @pytest.mark.parametrize("weight", [0.1, 1.0, 1j, True, False])
    def test_inexact_weights_rejected(self, weight):
        with pytest.raises(ValueError, match=r"exact rational.*\(0, 0\) -> \(1, 0\)"):
            PlanarNetwork([(0, 0), (1, 0)], [((0, 0), (1, 0), weight)], [(0, 0)], [(1, 0)])

    def test_exact_weights_accepted(self):
        for weight in (3, Fraction(1, 10), "1/10"):
            net = PlanarNetwork([(0, 0), (1, 0)], [((0, 0), (1, 0), weight)], [(0, 0)], [(1, 0)])
            assert net.edges[0][2] == Fraction(weight)

    def test_equality_and_hash_by_content(self):
        assert tiny_net() == tiny_net()
        assert hash(tiny_net()) == hash(tiny_net())
        assert tiny_net() != build_grid(1, 1)

    @pytest.mark.parametrize(
        "duplicate",
        [lambda net: pickle.loads(pickle.dumps(net)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    @pytest.mark.parametrize(
        "build",
        [lambda: build_grid(2, 2), lambda: build_three_section(standard_weights(6))],
        ids=["grid", "three-section"],
    )
    def test_copies_rebuild_an_equal_network(self, duplicate, build):
        """A copy is built anew from the vertices, edges and boundaries, so
        its caches start empty even when the original's are filled."""
        net = build()
        expected = weight_matrix(net)
        found = find_positive_collection(net, (1, 2), (1, 2))
        twin = duplicate(net)
        assert twin == net and twin is not net
        assert (twin._lift, twin._routes, twin._trail) == (None, {}, [])
        assert weight_matrix(twin) == expected
        assert find_positive_collection(twin, (1, 2), (1, 2)) == found


class TestPathWeights:
    def test_weight_matrix_of_tiny_net(self):
        assert weight_matrix(tiny_net()).to_lists() == [[1, 0], [3, 1]]

    def test_dp_matches_explicit_enumeration(self):
        net = build_three_section(standard_weights(4))
        M = weight_matrix(net)
        for a, src in enumerate(net.sources):
            for b, dst in enumerate(net.sinks):
                total = sum(w for _, w in iter_paths(net, src, dst))
                assert M.entries[a][b] == total

    def test_count_paths_matches_iterator(self):
        net = build_three_section(standard_weights(4))
        for src in net.sources:
            for dst in net.sinks:
                assert count_paths(net, src, dst) == sum(1 for _ in iter_paths(net, src, dst))

    def test_edge_filter_restricts_enumeration(self):
        net = tiny_net()
        flat = list(iter_paths(net, (0, 2), (1, 1), edge_ok=lambda u, v, w: u[1] == v[1]))
        assert flat == []
        all_paths = list(iter_paths(net, (0, 2), (1, 1)))
        assert len(all_paths) == 1


class TestGrid:
    def test_single_boundary_examples(self):
        assert weight_matrix(build_grid(1, 1)).to_lists() == [[2]]
        assert weight_matrix(build_grid(2, 1)).to_lists() == [[6]]

    def test_two_boundary_example(self):
        assert weight_matrix(build_grid(1, 2)).to_lists() == [[2, 1], [1, 1]]

    def test_closed_form_for_all_small_grids(self):
        for grid_size in range(1, 7):
            for n in range(1, grid_size + 2):
                M = weight_matrix(build_grid(grid_size, n))
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        expected = binomial(2 * grid_size - i - j + 2, grid_size - i + 1)
                        assert M.entries[i - 1][j - 1] == expected

    def test_boundary_size_bounds(self):
        with pytest.raises(ValueError):
            build_grid(2, 0)
        with pytest.raises(ValueError):
            build_grid(2, 4)
        with pytest.raises(ValueError):
            build_grid(0, 1)


class TestLgvOracle:
    def test_single_pair_counts_paths(self):
        g = build_grid(1, 1)
        assert lgv_oracle_minor(g, (1,), (1,)) == 2

    def test_matches_minor_on_small_networks(self):
        from itertools import combinations

        from totalpos import MinorQuery, minor

        for m in (2, 4):
            net = build_three_section(standard_weights(m))
            M = weight_matrix(net)
            for size in (1, 2):
                for rows in combinations(range(1, m + 1), size):
                    for cols in combinations(range(1, m + 1), size):
                        assert lgv_oracle_minor(net, rows, cols) == minor(M, MinorQuery(rows, cols))

    def test_disconnected_pair_gives_zero(self):
        net = build_three_section(standard_weights(4))
        assert lgv_oracle_minor(net, (1,), (4,)) == 0
        assert lgv_oracle_minor(net, (1,), (3,)) == 1

    def test_budget_guard(self):
        net = build_three_section(standard_weights(6))
        with pytest.raises(EnumerationBudgetError):
            lgv_oracle_minor(net, (1, 2, 3), (1, 2, 3), budget=1)

    def test_index_validation(self):
        net = build_three_section(standard_weights(2))
        with pytest.raises(ValueError):
            lgv_oracle_minor(net, (1, 2), (1,))
        with pytest.raises(ValueError):
            lgv_oracle_minor(net, (0,), (1,))
        with pytest.raises(ValueError):
            lgv_oracle_minor(net, (1,), (3,))


BUILT_IN_NETWORKS = (
    [(f"standard-m{m}", lambda m=m: build_three_section(standard_weights(m))) for m in range(2, 13, 2)]
    + [
        (f"zeroed-m{m}-seed{seed}", lambda m=m, seed=seed: zeroed_three_section(m, seed))
        for m in range(4, 13, 2)
        for seed in range(2)
    ]
    + [
        (f"grid-{g}x{b}", lambda g=g, b=b: build_grid(g, b))
        for g, b in ((1, 2), (3, 3), (4, 5), (6, 7))
    ]
)


class TestIntegerLift:
    """weight_matrix, lgv_oracle_minor and witness routing run on the
    integer lift; the Fraction oracles above run on the network's own
    edges."""

    def test_lift_is_built_once_per_network(self):
        """Every consumer reads the one lift, and witness routing numbers
        vertices by its index."""
        net = build_three_section(standard_weights(8))
        lift = _integer_lift(net)
        weight_matrix(net)
        lgv_oracle_minor(net, (1, 2), (1, 2))
        find_positive_collection(net, (1, 2), (1, 2))
        assert _integer_lift(net) is lift
        assert net._routes_to(net.sinks[0])[0] is lift[0]
        assert _integer_lift(build_three_section(standard_weights(8))) is not lift

    def test_random_networks_cover_the_hard_cases(self):
        """Including sources with a fractional in-edge: their potential is
        not 1, so the sums of paths from them are multiplied back by it."""
        skips = zeros = negatives = fractions = mixed_columns = fed_sources = 0
        for seed in range(80):
            net = random_network(seed)
            columns = sorted({c for c, _ in net.vertices})
            for (c1, _), (c2, l2), w in net.edges:
                skips += columns.index(c2) > columns.index(c1) + 1
                zeros += w == 0
                negatives += w < 0
                fractions += w.denominator > 1
                fed_sources += w.denominator > 1 and (c2, l2) in net.sources
            mixed_columns += len({v[0] for v in net.sources + net.sinks}) > 2
        assert min(skips, zeros, negatives, fractions, mixed_columns, fed_sources) > 0

    @pytest.mark.parametrize(
        "build",
        [lambda seed=seed: random_network(seed) for seed in range(80)]
        + [b for _, b in BUILT_IN_NETWORKS],
        ids=[f"random-{seed}" for seed in range(80)] + [name for name, _ in BUILT_IN_NETWORKS],
    )
    def test_lifted_weights_are_the_potential_ratios(self, build):
        """Each nonzero edge u -> v of weight n/d lifts to exactly
        n * phi(v) / (phi(u) * d), in edge order; zero edges are left out,
        and a vertex with no nonzero in-edge has potential 1."""
        net = build()
        index, adj, phi = _integer_lift(net)
        assert all(isinstance(p, int) and p > 0 for p in phi)
        expected: list[list[tuple[int, Fraction]]] = [[] for _ in phi]
        fed = set()
        for tail, head, w in net.edges:
            if w:
                u, v = index[tail], index[head]
                expected[u].append((v, w * phi[v] / phi[u]))
                fed.add(v)
        assert adj == expected
        assert all(phi[k] == 1 for k in range(len(phi)) if k not in fed)

    @pytest.mark.parametrize("m, bits", [(40, 80), (100, 256)])
    def test_potentials_stay_small_on_the_standard_network(self, m, bits):
        """The sweep's integers carry the potentials, which grow with the
        levels; a scale per column, the product of the denominators of
        every earlier column, reaches 997 bits at m=40 and 6,694 at m=100."""
        phi = _integer_lift(build_three_section(standard_weights(m)))[2]
        assert max(p.bit_length() for p in phi) <= bits

    @pytest.mark.parametrize("seed", range(80))
    def test_weight_matrix_matches_oracle_on_random_networks(self, seed):
        net = random_network(seed)
        assert weight_matrix(net) == weight_matrix_oracle(net)

    @pytest.mark.parametrize(
        "build", [b for _, b in BUILT_IN_NETWORKS], ids=[name for name, _ in BUILT_IN_NETWORKS]
    )
    def test_weight_matrix_matches_oracle_on_built_in_networks(self, build):
        net = build()
        assert weight_matrix(net) == weight_matrix_oracle(net)

    @pytest.mark.parametrize("seed", range(80))
    def test_lgv_matches_oracle_on_random_networks(self, seed):
        net = random_network(seed)
        n = min(len(net.sources), len(net.sinks), 3)
        for size in range(1, n + 1):
            for rows in combinations(range(1, len(net.sources) + 1), size):
                for cols in combinations(range(1, len(net.sinks) + 1), size):
                    got = outcome(lgv_oracle_minor, net, rows, cols, budget=10**4)
                    want = outcome(lgv_minor_oracle, net, rows, cols, budget=10**4)
                    assert got == want, (rows, cols)

    @pytest.mark.parametrize(
        "build", [b for _, b in BUILT_IN_NETWORKS], ids=[name for name, _ in BUILT_IN_NETWORKS]
    )
    def test_lgv_matches_oracle_on_built_in_networks(self, build):
        net = build()
        n = len(net.sources)
        rng = random.Random(n)
        for _ in range(25):
            size = rng.randint(1, min(3, n))
            rows = tuple(sorted(rng.sample(range(1, n + 1), size)))
            cols = tuple(sorted(rng.sample(range(1, n + 1), size)))
            got = outcome(lgv_oracle_minor, net, rows, cols, budget=2 * 10**4)
            want = outcome(lgv_minor_oracle, net, rows, cols, budget=2 * 10**4)
            assert got == want, (rows, cols)

    @pytest.mark.parametrize(
        "build, rows, cols",
        [
            (lambda: build_three_section(standard_weights(6)), (1, 2, 3), (1, 2, 3)),
            (lambda: build_three_section(standard_weights(8)), (2, 5), (3, 6)),
            (lambda: zeroed_three_section(6, 1), (1, 3), (2, 4)),
            (lambda: build_grid(4, 3), (1, 2, 3), (1, 2, 3)),
            (lambda: random_network(11), (2, 3), (2, 3)),
        ],
    )
    def test_budget_is_the_path_count_product(self, build, rows, cols):
        net = build()
        product = path_count_product(net, rows, cols)
        assert product > 1
        with pytest.raises(EnumerationBudgetError):
            lgv_oracle_minor(net, rows, cols, budget=product - 1)
        assert lgv_oracle_minor(net, rows, cols, budget=product) == lgv_minor_oracle(
            net, rows, cols, budget=product
        )


class TestPositiveCollections:
    def test_full_boundary_collection_exists(self):
        net = build_three_section(standard_weights(4))
        pc = find_positive_collection(net, (1, 2), (1, 2))
        assert pc is not None
        assert pc.weight > 0
        assert len(pc.paths) == 2

    def test_paths_are_vertex_disjoint(self):
        net = build_three_section(standard_weights(4))
        pc = find_positive_collection(net, (1, 2, 3), (1, 2, 3))
        seen = set()
        for path in pc.paths:
            assert not (set(path) & seen)
            seen.update(path)

    def test_zero_weight_barrier_gives_none(self):
        # Sink 4 is reachable from source 1 only through weight-0 edges.
        net = build_three_section(standard_weights(4))
        assert find_positive_collection(net, (1,), (4,)) is None

    def test_collection_weight_is_product_of_path_weights(self):
        net = build_three_section(standard_weights(6))
        pc = find_positive_collection(net, (2, 3), (2, 4))
        assert pc is not None
        prod = Fraction(1)
        for path in pc.paths:
            for u, v in zip(path, path[1:]):
                prod *= dict(((e[0], e[1]), e[2]) for e in net.edges)[(u, v)]
        assert pc.weight == prod

    @pytest.mark.parametrize(
        "build", [b for _, b in AGREEMENT_NETWORKS], ids=[name for name, _ in AGREEMENT_NETWORKS]
    )
    def test_greedy_routing_matches_backtracking_oracle(self, build):
        """Every square query: the same collection (paths and weight) as
        the backtracking oracle, or None from both."""
        net = build()
        n = len(net.sources)
        found = 0
        for size in range(1, n + 1):
            for rows in combinations(range(1, n + 1), size):
                for cols in combinations(range(1, n + 1), size):
                    got = find_positive_collection(net, rows, cols)
                    want = positive_collection_oracle(net, rows, cols)
                    if want is None:
                        assert got is None, (rows, cols)
                    else:
                        assert got is not None, (rows, cols)
                        assert got.to_json_dict() == want.to_json_dict(), (rows, cols)
                        found += 1
        assert found > 0

    @pytest.mark.parametrize("seed", range(80))
    def test_routed_collections_are_genuine_on_random_networks(self, seed):
        """Off the planar shapes routing may miss a collection, but one it
        returns is the backtracking oracle's, weight included, also from
        sources whose potential is not 1."""
        net = random_network(seed)
        n = min(len(net.sources), len(net.sinks), 3)
        for size in range(1, n + 1):
            for rows in combinations(range(1, len(net.sources) + 1), size):
                for cols in combinations(range(1, len(net.sinks) + 1), size):
                    got = find_positive_collection(net, rows, cols)
                    if got is not None:
                        want = positive_collection_oracle(net, rows, cols)
                        assert want is not None, (rows, cols)
                        assert got.to_json_dict() == want.to_json_dict(), (rows, cols)

    def test_budget_guard(self):
        net = build_three_section(standard_weights(6))
        with pytest.raises(EnumerationBudgetError):
            find_positive_collection(net, (1, 2, 3), (1, 2, 3), budget=1)

    def test_dead_vertices_are_per_pair(self):
        """A vertex that fails one pair can serve a later one.  Pair 2 tries
        (1, 0) first, but its only way on to sink 2 runs into pair 1's path,
        so pair 2 goes through (1, 1); pair 3 then needs (1, 0).  The network
        is not planar, so this is outside the exactness conditions, but
        greedy routing still finds the collection the oracle finds."""
        edges = [
            ((0, 0), (1, 2), 1),
            ((0, 1), (1, 0), 1),
            ((0, 1), (1, 1), 1),
            ((0, 1), (1, 2), 1),
            ((0, 2), (1, 0), 2),
            ((1, 0), (2, 1), 1),
            ((1, 0), (2, 2), 1),
            ((1, 1), (2, 0), 1),
            ((1, 2), (2, 2), 1),
            ((2, 0), (3, 1), 1),
            ((2, 1), (3, 2), 3),
            ((2, 2), (3, 0), 1),
            ((2, 2), (3, 1), 1),
        ]
        net = PlanarNetwork(
            vertices=[(c, l) for c in range(4) for l in range(3)],
            edges=edges,
            sources=[(0, 0), (0, 1), (0, 2)],
            sinks=[(3, 0), (3, 1), (3, 2)],
        )
        pc = find_positive_collection(net, (1, 2, 3), (1, 2, 3))
        assert pc is not None
        assert pc.paths == (
            ((0, 0), (1, 2), (2, 2), (3, 0)),
            ((0, 1), (1, 1), (2, 0), (3, 1)),
            ((0, 2), (1, 0), (2, 1), (3, 2)),
        )
        assert pc.weight == 6
        assert pc == positive_collection_oracle(net, (1, 2, 3), (1, 2, 3))

    def test_json_round_trip_of_collection(self):
        net = build_three_section(standard_weights(2))
        pc = find_positive_collection(net, (1, 2), (1, 2))
        d = pc.to_json_dict()
        assert set(d) == {"paths", "weight"}
        assert d["weight"] == "1"


RESUME_NETWORKS = {
    "a": lambda: build_three_section(standard_weights(6)),
    "b": lambda: zeroed_three_section(6, 3),
}

# Queries run in this order on one network per name.  On "a": a shared
# prefix, a strict prefix and its extension, a query that fails at its
# third pair (whose sink the query before routed from another source),
# one that shares the two routed pairs before that failure, then "b"
# interleaved.
RESUME_SEQUENCE = (
    ("a", (1, 2, 3), (1, 2, 3)),
    ("a", (1, 2, 3), (1, 2, 4)),
    ("a", (1, 2), (1, 2)),
    ("a", (1, 2, 3), (1, 2, 3)),
    ("a", (1, 2, 4), (1, 2, 3)),
    ("a", (1, 2, 3, 4), (1, 2, 3, 4)),
    ("b", (1, 2, 3), (1, 2, 3)),
    ("a", (1, 2, 3, 4, 5), (1, 2, 3, 4, 5)),
    ("b", (1, 2, 4), (1, 3, 4)),
    ("b", (1, 2, 4), (1, 3, 5)),
    ("a", (1, 2, 3), (1, 2, 3)),
    ("a", (1, 2, 3), (1, 2, 3)),
)


def as_json(found: Optional[PathCollection]):
    return None if found is None else found.to_json_dict()


def fresh_steps(name: str, rows, cols) -> int:
    """Smallest budget at which a freshly built network answers the query."""
    low, high = 0, 10**4
    while low < high:
        mid = (low + high) // 2
        try:
            find_positive_collection(RESUME_NETWORKS[name](), rows, cols, budget=mid)
        except EnumerationBudgetError:
            low = mid + 1
        else:
            high = mid
    return low


class TestResumedRouting:
    def test_results_equal_fresh_networks(self):
        nets = {name: build() for name, build in RESUME_NETWORKS.items()}
        results = []
        for name, rows, cols in RESUME_SEQUENCE:
            got = find_positive_collection(nets[name], rows, cols)
            fresh = find_positive_collection(RESUME_NETWORKS[name](), rows, cols)
            assert as_json(got) == as_json(fresh), (name, rows, cols)
            results.append(got)
        assert results[4] is None  # fails at its third pair
        assert sum(r is not None for r in results) >= 9

    def test_budget_binds_as_on_fresh_networks(self):
        """Budgets below a query's fresh step count raise, from the resumed
        prefix as well as mid-route; the fresh step count itself answers."""
        nets = {name: build() for name, build in RESUME_NETWORKS.items()}
        for name, rows, cols in RESUME_SEQUENCE:
            steps = fresh_steps(name, rows, cols)
            assert steps > 0
            for budget in sorted({0, steps // 2, steps - 1}):
                with pytest.raises(EnumerationBudgetError, match=f"budget {budget}$"):
                    find_positive_collection(nets[name], rows, cols, budget=budget)
            got = find_positive_collection(nets[name], rows, cols, budget=steps)
            fresh = find_positive_collection(RESUME_NETWORKS[name](), rows, cols)
            assert as_json(got) == as_json(fresh), (name, rows, cols)

    def test_repeated_query_raises_below_its_prefix_steps(self):
        net = build_three_section(standard_weights(6))
        find_positive_collection(net, (1, 2, 3), (1, 2, 3))
        steps = fresh_steps("a", (1, 2), (1, 2))
        with pytest.raises(EnumerationBudgetError):
            find_positive_collection(net, (1, 2), (1, 2), budget=steps - 1)
        assert find_positive_collection(net, (1, 2), (1, 2), budget=steps) is not None


class TestDotExport:
    def test_structure_and_determinism(self):
        net = build_three_section(standard_weights(2))
        dot = export_dot(net)
        assert dot.startswith("digraph")
        assert dot == export_dot(build_three_section(standard_weights(2)))
        assert '"c0_l1"' in dot

    def test_weights_always_carry_denominator(self):
        dot = export_dot(build_three_section(standard_weights(4)))
        assert 'label="3/2"' in dot
        assert 'label="1/1"' in dot

    def test_zero_weight_edges_are_exported(self):
        dot = export_dot(build_three_section(standard_weights(2)))
        assert 'label="0/1"' in dot


class TestJsonRoundTrip:
    def test_round_trip_equality(self):
        for m in (2, 4, 6):
            net = build_three_section(standard_weights(m))
            assert network_from_json(export_json(net)) == net

    def test_grid_round_trip(self):
        net = build_grid(3, 2)
        assert network_from_json(export_json(net)) == net

    def test_weights_are_canonical_rationals(self):
        data = json.loads(export_json(build_three_section(standard_weights(4))))
        weights = [e["weight"] for e in data["edges"]]
        assert "3/2" in weights and "0" in weights
        assert all(w == str(Fraction(w)) for w in weights)
