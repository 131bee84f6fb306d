from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

import pytest

from totalpos import (
    EnumerationBudgetError,
    NetworkFormatError,
    PlanarNetwork,
    binomial,
    build_grid,
    build_three_section,
    count_paths,
    export_dot,
    export_json,
    find_positive_collection,
    import_json,
    iter_paths,
    lgv_oracle_minor,
    standard_weights,
    weight_matrix,
)
from totalpos.networks import PathCollection, Vertex, _boundary_pairs
from totalpos.three_section import SectionWeights, weight_key_set


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
            for head, w in net.adjacency.get(v, ()):
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
                for head, w in net.adjacency[a]:
                    if head == b:
                        weight *= w
                        break
        return PathCollection(tuple(out_paths), weight)
    return None


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

    def test_equality_and_hash_by_content(self):
        assert tiny_net() == tiny_net()
        assert hash(tiny_net()) == hash(tiny_net())
        assert tiny_net() != build_grid(1, 1)


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
            text = export_json(net)
            back, warnings = import_json(text)
            assert back == net
            assert warnings == ()

    def test_grid_round_trip(self):
        net = build_grid(3, 2)
        back, warnings = import_json(export_json(net))
        assert back == net
        assert warnings == ()

    def test_noncanonical_weight_warns_and_normalizes(self):
        net = build_three_section(standard_weights(2))
        text = export_json(net).replace('"1"', '"2/4"', 1)
        back, warnings = import_json(text)
        assert len(warnings) == 1
        assert "normalized to '1/2'" in warnings[0]
        assert any(e[2] == Fraction(1, 2) for e in back.edges)

    def test_truncated_input_reports_position(self):
        text = export_json(build_grid(1, 1))
        with pytest.raises(NetworkFormatError, match="invalid JSON at line"):
            import_json(text[: len(text) // 2])

    def test_malformed_vertex_reports_path(self):
        with pytest.raises(NetworkFormatError, match=r"vertices\[0\]"):
            import_json('{"vertices": [{"column": 0}], "edges": [], "sources": [], "sinks": []}')

    def test_missing_top_level_key(self):
        with pytest.raises(NetworkFormatError):
            import_json('{"vertices": [], "edges": []}')
