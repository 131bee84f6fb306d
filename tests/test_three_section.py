from __future__ import annotations

import json
import math
import time
from fractions import Fraction
from itertools import chain
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import totalpos.families
import totalpos.three_section
from totalpos import (
    EnumerationBudgetError,
    ExactMatrix,
    PlanarNetwork,
    SectionWeights,
    binomial,
    build_three_section,
    closed_form_entry,
    closed_form_matrix,
    family_polys,
    lemma_path_report,
    pochhammer,
    standard_weights,
    w_ab_formula,
    w_ab_oracle,
    weierstrass_h,
    weight_key_set,
    verify_network_equals_block_matrix,
    weight_matrix,
)
from totalpos.cli import main
from totalpos.three_section import (
    LemmaPathReport,
    PairCheck,
    _binomial_block,
    _slot_word,
    _Sweep,
)

from oracles import (
    ascent_level_product,
    build_grid,
    count_paths,
    extract_weights,
    iter_paths,
    three_section_oracle,
)


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

    @pytest.mark.parametrize("bad", [0.5, 2.0, False, True])
    @pytest.mark.parametrize("table", ["left", "right", "middle"])
    def test_one_inexact_value_among_fractions_rejected(self, table, bad):
        """Values that are already Fraction skip the checks; one float or
        bool among them is still refused, by its key or level."""
        w = standard_weights(6)
        parts = {"left": w.left, "middle": w.middle, "right": w.right}
        if table == "middle":
            parts["middle"] = (*w.middle[:4], bad, w.middle[5])
            message = "middle weight at level 5 must be an exact rational"
        else:
            parts[table] = {**parts[table], (2, 3): bad}
            message = rf"{table} weight \(2, 3\) must be an exact rational"
        with pytest.raises(ValueError, match=message):
            SectionWeights(n=6, **parts)

    def test_weights_normalize_to_fractions(self):
        w = SectionWeights(n=2, left={(1, 1): 1}, middle=(1, "1/2"), right={(1, 1): "2/4"})
        assert w.middle == (Fraction(1), Fraction(1, 2))
        assert w.right[(1, 1)] == Fraction(1, 2)
        assert all(type(v) is Fraction for v in (*w.left.values(), *w.middle, *w.right.values()))

    def test_tables_are_sorted_by_key(self):
        w = standard_weights(6)
        shuffled = dict(reversed(list(w.right.items())))
        again = SectionWeights(n=6, left=w.left, middle=w.middle, right=shuffled)
        assert list(again.right) == sorted(w.right) == list(w.right)
        assert again == w


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

    @pytest.mark.parametrize("m", range(2, 42, 2))
    def test_block_builder_matches_the_entry_and_the_matrix(self, m):
        """The one integer builder of the block agrees with the entrywise
        closed form and with the matrix built from it."""
        rows = totalpos.three_section._binomial_block(m)
        span = range(1, m + 1)
        assert rows == [[closed_form_entry(i, j, m) for j in span] for i in span]
        assert all(type(x) is int for row in rows for x in row)
        assert ExactMatrix.from_rows(rows) == closed_form_matrix(m)


def sweep_of(weights: SectionWeights) -> _Sweep:
    """The one integer sweep over the weight table's slot word."""
    return _Sweep(weights.n).apply(chain.from_iterable(_slot_word(weights)))


def sweep_matrix(weights: SectionWeights) -> ExactMatrix:
    """The sweep's product as a matrix: column l over its potential."""
    sweep = sweep_of(weights)
    return ExactMatrix(tuple(
        tuple(Fraction(col[i], d) for col, d in zip(sweep.cols, sweep.den))
        for i in range(weights.n)
    ))


# Zero, one and minus one are drawn often; the rest are negative or
# fractional values alike.
weight_values = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@st.composite
def section_weights(draw, max_n: int = 6) -> SectionWeights:
    n = draw(st.integers(1, max_n))
    keys = sorted(weight_key_set(n))
    return SectionWeights(
        n=n,
        left={k: draw(weight_values) for k in keys},
        middle=tuple(draw(weight_values) for _ in range(n)),
        right={k: draw(weight_values) for k in keys},
    )


# Every kind of weight at once: zero, negative and fractional diagonals,
# and zero and non-unit middle weights.
MIXED = SectionWeights(
    n=3,
    left={(1, 1): Fraction(-2), (1, 2): Fraction(0), (2, 1): Fraction(3, 2)},
    middle=(Fraction(0), Fraction(5, 3), Fraction(-1, 4)),
    right={(1, 1): Fraction(-1, 2), (1, 2): Fraction(7), (2, 1): Fraction(0)},
)


class TestSlotWord:
    """The slot word, its placement as the network, and the integer sweep
    over it, against the vertex sweep (weight_matrix) as oracle."""

    @pytest.mark.parametrize("m", range(2, 66, 2))
    def test_sweep_equals_the_vertex_sweep_on_the_standard_word(self, m):
        w = standard_weights(m)
        assert sweep_matrix(w) == weight_matrix(build_three_section(w))

    @settings(max_examples=80, deadline=None)
    @given(section_weights())
    @example(MIXED)
    def test_sweep_equals_the_vertex_sweep_on_drawn_weights(self, w):
        """Each column and its potential stay in lowest terms."""
        sweep = sweep_of(w)
        assert all(d > 0 and math.gcd(d, *col) == 1 for col, d in zip(sweep.cols, sweep.den))
        assert sweep_matrix(w) == weight_matrix(build_three_section(w))

    @settings(max_examples=40, deadline=None)
    @given(section_weights())
    @example(MIXED)
    def test_network_is_the_word_placed(self, w):
        """The diagonal edges are exactly the word's diagonal letters, the
        middle slot's letters are its horizontals, and the network equals
        the one placed straight from the table."""
        net = build_three_section(w)
        word = _slot_word(w)
        letters = [((c, a), (c + 1, b), x) for c, slot in enumerate(word) for a, b, x in slot]
        assert sorted(x for x in letters if x[0][1] != x[1][1]) == [
            e for e in net.edges if e[0][1] != e[1][1]
        ]
        assert [x for x in letters if x[0][1] == x[1][1]] == [
            e for e in net.edges if e[0][0] == w.n - 1 and e[0][1] == e[1][1]
        ]
        assert net == three_section_oracle(w)

    @pytest.mark.parametrize("m", [2, 4, 6, 8, 16, 30])
    def test_standard_network_is_unchanged(self, m):
        assert build_three_section(standard_weights(m)) == three_section_oracle(standard_weights(m))

    @pytest.mark.parametrize("m", [2, 8, 16])
    def test_letter_order_within_each_slot(self, m):
        """2m-1 slots: descending letters by ascending target level, one
        scaling letter per level in the middle, ascending letters by
        descending target level, so no letter reads a column its slot
        has already written."""
        word = _slot_word(standard_weights(m))
        assert len(word) == 2 * m - 1
        assert [(a, b) for a, b, _ in word[m - 1]] == [(l, l) for l in range(1, m + 1)]
        for c, slot in enumerate(word):
            written = set()
            for a, b, _ in slot:
                assert a not in written or a == b
                written.add(b)
            targets = [b for _, b, _ in slot]
            if c < m - 1:
                assert all(a == b + 1 for a, b, _ in slot) and targets == sorted(targets)
            elif c > m - 1:
                assert all(b == a + 1 for a, b, _ in slot)
                assert targets == sorted(targets, reverse=True)

    @pytest.mark.parametrize("m", [16, 40, 100, 200])
    def test_potentials_stay_within_m_bits(self, m):
        """After every letter of the standard word no column potential
        has more than m bits (peaks of 13, 37, 96 and 195 bits at m = 16,
        40, 100 and 200), and every potential ends at 1."""
        sweep = _Sweep(m)
        peak = 0
        for letter in chain.from_iterable(_slot_word(standard_weights(m))):
            sweep.apply((letter,))
            peak = max(peak, sweep.den[letter[1] - 1].bit_length())
        assert peak <= m
        assert sweep.den == [1] * m

    def test_m200_identity_is_quick(self):
        """The standard sweep equals the m=200 block in under a second of
        this process's CPU time (about 0.5 s on a 2-vCPU machine)."""
        start = time.process_time()
        sweep = sweep_of(standard_weights(200))
        elapsed = time.process_time() - start
        assert sweep.den == [1] * 200
        assert sweep.cols == [list(col) for col in zip(*_binomial_block(200))]
        assert elapsed < 1.0

    @pytest.mark.parametrize("slot, index", [(0, 0), (2, 1), (7, 3), (8, 0), (12, 2)])
    def test_one_perturbed_letter_fails_the_identity(self, capsys, monkeypatch, slot, index):
        """Adding one to one letter of the m=8 word (a zero and a unit left
        letter, a middle scaling, two right letters) fails exactly
        network_matrix_identity, and verify exits 1."""
        real = _slot_word

        def perturbed(weights):
            word = real(weights)
            a, b, w = word[slot][index]
            word[slot][index] = (a, b, w + 1)
            return word

        monkeypatch.setattr(totalpos.families, "_slot_word", perturbed)
        assert not verify_network_equals_block_matrix(8)
        code = main(["verify", "--m", "8"])
        cert = json.loads(capsys.readouterr().out)
        assert code == 1 and cert["pass"] is False
        assert {c["name"]: c["pass"] for c in cert["checks"]} == {
            "sign_factorization": True,
            "block_determinants": True,
            "network_matrix_identity": False,
            "general_position": True,
        }


EVEN_M_SITES = {
    "family_polys": family_polys,
    "standard_weights": standard_weights,
    "closed_form_entry": lambda m: closed_form_entry(1, 1, m),
    "weierstrass_h": weierstrass_h,
    "block_builder": totalpos.three_section._binomial_block,
}


@pytest.mark.parametrize("site", EVEN_M_SITES)
@pytest.mark.parametrize("bad", [3, 0, -2, True, 2.0], ids=repr)
def test_every_site_refuses_a_bad_m_with_one_message(site, bad):
    """Each function that takes a family size refuses odd, small, bool and
    non-int values through the one even-m rule, with its one message."""
    with pytest.raises(ValueError) as info:
        EVEN_M_SITES[site](bad)
    assert str(info.value) == "m must be an even integer >= 2"


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
