from __future__ import annotations

from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import totalpos.three_section
from totalpos import (
    EnumerationBudgetError,
    PlanarNetwork,
    SectionWeights,
    ascent_level_product,
    binomial,
    build_three_section,
    closed_form_entry,
    closed_form_matrix,
    count_paths,
    extract_weights,
    iter_paths,
    lemma_path_report,
    pochhammer,
    standard_weights,
    w_ab_formula,
    w_ab_oracle,
    weight_key_set,
    weight_matrix,
)
from totalpos.three_section import LemmaPathReport, PairCheck


def lemma_path_oracle(m: int, *, budget: int = 10**6) -> LemmaPathReport:
    """Independent oracle: enumerate every source-to-sink path of the
    standard network and compare three weight sums per boundary pair
    against their closed forms: all paths against closed_form_entry;
    paths without a descending step against binomial(t, j - i) for
    i <= t and against closed_form_entry for i > t (descents above level
    t all weigh zero); paths without an ascending step against
    binomial(i - 1, j - 1) for i <= t (no prediction above t).  It reads
    the weights through the three_section module, so patched weights
    reach it too.

    Zero-weight edges are pruned before enumeration: they change no sum
    and only inflate the path count against the budget.
    """
    weights = totalpos.three_section.standard_weights(m)  # validates m
    net = build_three_section(weights)
    t = m // 2
    pruned = PlanarNetwork(
        net.vertices,
        [(a, b, w) for (a, b, w) in net.edges if w != 0],
        net.sources,
        net.sinks,
    )
    total_paths = 0
    for src in pruned.sources:
        for snk in pruned.sinks:
            total_paths += count_paths(pruned, src, snk)
            if total_paths > budget:
                raise EnumerationBudgetError(
                    f"path count exceeds enumeration budget {budget}"
                )
    zero = Fraction(0)
    sums = {}  # (i, j) -> [all, ascent_only, descent_only]
    for i, src in enumerate(pruned.sources, start=1):
        for j, snk in enumerate(pruned.sinks, start=1):
            acc = [zero, zero, zero]
            for path, w in iter_paths(pruned, src, snk):
                levels = [lvl for (_, lvl) in path]
                has_desc = any(b < a for a, b in zip(levels, levels[1:]))
                has_asc = any(b > a for a, b in zip(levels, levels[1:]))
                acc[0] += w
                if not has_desc:
                    acc[1] += w
                if not has_asc:
                    acc[2] += w
            sums[(i, j)] = acc
    checks = []
    mismatches = []
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            all_w, up_w, down_w = sums[(i, j)]
            total_exp = Fraction(closed_form_entry(i, j, m))
            if i <= t:
                up_exp = Fraction(binomial(t, j - i))
                down_exp: Optional[Fraction] = Fraction(binomial(i - 1, j - 1))
            else:
                up_exp = total_exp
                down_exp = None
            check = PairCheck(i, j, all_w, total_exp, up_w, up_exp, down_w, down_exp)
            checks.append(check)
            if all_w != total_exp:
                mismatches.append((i, j, "total"))
            if up_w != up_exp:
                mismatches.append((i, j, "ascent_only"))
            if down_exp is not None and down_w != down_exp:
                mismatches.append((i, j, "descent_only"))
    return LemmaPathReport(
        m=m,
        checks=tuple(checks),
        mismatches=tuple(mismatches),
        enumerated_paths=total_paths,
    )


class TestWeightKeys:
    def test_key_count_is_triangular(self):
        for n in range(1, 8):
            assert len(weight_key_set(n)) == n * (n - 1) // 2

    def test_small_key_sets(self):
        assert sorted(weight_key_set(1)) == []
        assert sorted(weight_key_set(3)) == [(1, 1), (1, 2), (2, 1)]


class TestSectionWeights:
    def test_middle_length_enforced(self):
        with pytest.raises(ValueError, match="exactly 2"):
            SectionWeights(n=2, left={(1, 1): Fraction(1)}, middle=(Fraction(1),), right={(1, 1): Fraction(1)})

    def test_key_set_enforced(self):
        with pytest.raises(ValueError, match="left weights"):
            SectionWeights(n=2, left={}, middle=(Fraction(1), Fraction(1)), right={(1, 1): Fraction(1)})
        with pytest.raises(ValueError, match="right weights"):
            SectionWeights(n=2, left={(1, 1): Fraction(1)}, middle=(Fraction(1), Fraction(1)), right={(2, 2): Fraction(1)})

    @pytest.mark.parametrize("weight", [0.5, 1.0, 2j, True])
    def test_inexact_weights_rejected(self, weight):
        exact = Fraction(1)
        with pytest.raises(ValueError, match=r"left weight \(1, 1\) must be an exact rational"):
            SectionWeights(n=2, left={(1, 1): weight}, middle=(exact, exact), right={(1, 1): exact})
        with pytest.raises(ValueError, match=r"right weight \(1, 1\) must be an exact rational"):
            SectionWeights(n=2, left={(1, 1): exact}, middle=(exact, exact), right={(1, 1): weight})
        with pytest.raises(ValueError, match="middle weight at level 2 must be an exact rational"):
            SectionWeights(n=2, left={(1, 1): exact}, middle=(exact, weight), right={(1, 1): exact})

    def test_weights_normalize_to_fractions(self):
        w = SectionWeights(n=2, left={(1, 1): 1}, middle=(1, "1/2"), right={(1, 1): "2/4"})
        assert w.middle == (Fraction(1), Fraction(1, 2))
        assert w.right[(1, 1)] == Fraction(1, 2)


class TestStandardWeights:
    def test_requires_even_m(self):
        for bad in (0, 3, -2):
            with pytest.raises(ValueError, match="even integer"):
                standard_weights(bad)

    def test_m2_labels(self):
        w = standard_weights(2)
        assert w.left == {(1, 1): Fraction(0)}
        assert w.right == {(1, 1): Fraction(1)}
        assert w.middle == (Fraction(1), Fraction(1))

    def test_m4_labels(self):
        w = standard_weights(4)
        assert w.right[(1, 1)] == 2
        assert w.right[(1, 2)] == Fraction(1, 2)
        assert w.right[(2, 1)] == Fraction(3, 2)
        assert w.right[(2, 2)] == Fraction(2, 3)
        assert w.right[(3, 1)] == Fraction(1, 3)
        assert w.right[(1, 3)] == 0
        assert w.left[(1, 1)] == 1
        assert sum(w.left.values()) == 1
        assert w.middle == (1, 1, 1, 1)

    def test_m6_descending_labels_are_indicator_of_low_levels(self):
        w = standard_weights(6)
        ones = {k for k, v in w.left.items() if v == 1}
        assert ones == {(1, 1), (1, 2), (2, 1)}
        assert all(v == 0 for k, v in w.left.items() if k not in ones)

    def test_m6_ascending_labels(self):
        w = standard_weights(6)
        assert w.right[(1, 1)] == 3
        assert w.right[(3, 3)] == Fraction(3, 5)
        assert w.right[(5, 1)] == Fraction(1, 5)
        assert w.right[(1, 4)] == 0 and w.right[(2, 4)] == 0

    def test_ascending_labels_vanish_exactly_past_the_middle_band(self):
        for m in (2, 4, 6, 8):
            t = m // 2
            w = standard_weights(m)
            for (i, j), v in w.right.items():
                assert (v == 0) == (j > t)


class TestBuildAndExtract:
    def test_m2_weight_matrix(self):
        M = weight_matrix(build_three_section(standard_weights(2)))
        assert M.to_lists() == [[1, 1], [0, 1]]

    def test_degenerate_single_level(self):
        w = SectionWeights(n=1, left={}, middle=(Fraction(5),), right={})
        net = build_three_section(w)
        assert net.vertices == ((0, 1), (1, 1))
        assert weight_matrix(net).to_lists() == [[5]]
        assert extract_weights(net) == w

    def test_standard_round_trip(self):
        for m in (2, 4, 6):
            w = standard_weights(m)
            assert extract_weights(build_three_section(w)) == w

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_arbitrary_weights_round_trip(self, n, data):
        frac = st.fractions(min_value=0, max_value=5, max_denominator=4)
        keys = sorted(weight_key_set(n))
        w = SectionWeights(
            n=n,
            left={k: data.draw(frac) for k in keys},
            middle=tuple(data.draw(frac) for _ in range(n)),
            right={k: data.draw(frac) for k in keys},
        )
        assert extract_weights(build_three_section(w)) == w

    def test_extract_rejects_other_networks(self):
        from totalpos import build_grid

        with pytest.raises(ValueError, match="not a three-section network"):
            extract_weights(build_grid(1, 1))


class TestClosedForm:
    def test_entry_examples(self):
        assert closed_form_entry(1, 3, 4) == 1
        assert closed_form_entry(3, 4, 4) == 1
        assert closed_form_entry(4, 1, 4) == 0
        assert closed_form_entry(2, 2, 6) == 4

    def test_entry_bounds(self):
        with pytest.raises(ValueError):
            closed_form_entry(0, 1, 4)
        with pytest.raises(ValueError):
            closed_form_entry(1, 5, 4)

    def test_matrix_equals_network_for_small_m(self):
        for m in (2, 4, 6, 8, 10, 12):
            net = build_three_section(standard_weights(m))
            assert weight_matrix(net).to_lists() == closed_form_matrix(m).to_lists()

    def test_matrix_is_unit_upper_triangular_in_the_tail_block(self):
        M = closed_form_matrix(6)
        for i in range(4, 7):
            assert M.entries[i - 1][i - 1] == 1
            for j in range(1, i):
                assert M.entries[i - 1][j - 1] == 0


class TestWabWeights:
    def test_formula_examples(self):
        assert w_ab_formula(1, 1, 3) == 8
        assert w_ab_formula(2, 1, 1) == 18
        assert w_ab_formula(0, 0, 5) == 1
        assert w_ab_formula(0, 3, 2) == 1

    def test_oracle_matches_formula_on_a_grid(self):
        for a in range(0, 5):
            for b in range(0, 5 - a):
                for k in range(1, 5):
                    assert w_ab_oracle(a, b, k) == w_ab_formula(a, b, k)

    def test_oracle_budget_guard(self):
        with pytest.raises(EnumerationBudgetError):
            w_ab_oracle(4, 4, 6, budget=3)

    def test_negative_step_counts_rejected(self):
        with pytest.raises(ValueError):
            w_ab_formula(-1, 0, 1)
        with pytest.raises(ValueError):
            w_ab_oracle(0, -1, 1)


class TestLemmaPathReport:
    def test_zero_mismatches_for_small_m(self):
        for m, paths in ((2, 3), (4, 14), (6, 53)):
            rep = lemma_path_report(m)
            assert rep.ok
            assert rep.mismatches == ()
            assert rep.enumerated_paths == paths
            assert len(rep.checks) == m * m

    def test_m4_splits_by_step_direction(self):
        rep = lemma_path_report(4)
        by_pair = {(c.i, c.j): c for c in rep.checks}
        c = by_pair[(2, 2)]
        assert (c.total, c.ascent_only, c.descent_only) == (3, 1, 1)
        c = by_pair[(1, 3)]
        assert (c.total, c.ascent_only, c.descent_only) == (1, 1, 0)
        # Above the middle level the descent-only count has no closed form.
        assert by_pair[(3, 3)].descent_only_expected is None
        assert by_pair[(3, 3)].descent_only == 1

    @pytest.mark.parametrize("m", range(2, 11, 2))
    def test_sweep_matches_the_enumeration_oracle(self, m):
        assert lemma_path_report(m).to_json_dict() == lemma_path_oracle(m).to_json_dict()

    def test_planted_weights_match_the_oracle(self, monkeypatch):
        """The m=6 network with ascending weight (1, 1) raised from 3 to
        7/2 and descending weight (1, 2) from 1 to 3: the totals and both
        one-direction sums move, and the mismatches match the oracle's."""
        weights = standard_weights(6)
        planted = SectionWeights(
            n=6,
            left={**weights.left, (1, 2): Fraction(3)},
            middle=weights.middle,
            right={**weights.right, (1, 1): Fraction(7, 2)},
        )
        monkeypatch.setattr(totalpos.three_section, "standard_weights", lambda m: planted)
        rep = lemma_path_report(6)
        assert rep.to_json_dict() == lemma_path_oracle(6).to_json_dict()
        assert {field for _, _, field in rep.mismatches} == {
            "total",
            "ascent_only",
            "descent_only",
        }

    def test_report_serializes(self):
        d = lemma_path_report(2).to_json_dict()
        assert d["m"] == 2
        assert d["ok"] is True
        assert d["enumerated_paths"] == 3
        assert len(d["checks"]) == 4


class TestAscentLevelProduct:
    def test_matches_rising_factorial_on_every_monotone_path(self):
        for m in (4, 6):
            net = build_three_section(standard_weights(m))
            for i, src in enumerate(net.sources, start=1):
                for j, dst in enumerate(net.sinks, start=1):
                    for path, _ in iter_paths(net, src, dst):
                        if any(v[1] < u[1] for u, v in zip(path, path[1:])):
                            continue
                        assert ascent_level_product(path) == pochhammer(i, j - i)

    def test_flat_path_has_unit_product(self):
        net = build_three_section(standard_weights(4))
        path, _ = next(iter_paths(net, net.sources[0], net.sinks[0]))
        assert ascent_level_product(path) == 1
