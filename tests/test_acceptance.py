"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the slow
exhaustive scans (criteria 9 and 10) dominate the runtime.
"""
from __future__ import annotations

import itertools
import json
import random
import re
import time
from fractions import Fraction

from totalpos import (
    ExtPolynomial,
    MinorQuery,
    SectionWeights,
    binomial,
    block_determinants,
    build_grid,
    build_three_section,
    coefficient_matrix,
    extended_family,
    family_polys,
    find_positive_collection,
    general_position,
    hyperplane_coefficients,
    is_totally_nonnegative,
    is_totally_positive,
    lemma_path_report,
    lgv_oracle_minor,
    minor,
    positive_minor_scan,
    saalschuetz_check,
    search_constants,
    standard_weights,
    verify_extended_general_position,
    verify_network_equals_block_matrix,
    w_ab_formula,
    w_ab_oracle,
    weierstrass_h,
    weight_matrix,
)
from totalpos.cli import main as cli_main

PRINTED_MATRICES = {
    2: [[1, 0], [-1, 1], [0, 1]],
    4: [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [1, -2, 1, 0],
        [-1, 3, -3, 1],
        [0, 0, -1, 1],
        [0, 0, 0, 1],
    ],
    6: [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [-1, 3, -3, 1, 0, 0],
        [1, -4, 6, -4, 1, 0],
        [-1, 5, -10, 10, -5, 1],
        [0, 0, 0, 1, -2, 1],
        [0, 0, 0, 0, -1, 1],
        [0, 0, 0, 0, 0, 1],
    ],
}


def report(number: int, text: str) -> None:
    print(f"CRITERION {number:02d} PASS — {text}")


def test_criterion_01_printed_coefficient_matrices():
    start = time.perf_counter()
    for m, expected in PRINTED_MATRICES.items():
        assert coefficient_matrix(family_polys(m), m).to_lists() == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"coefficient matrices match for m=2,4,6 in {elapsed:.3f}s")


def test_criterion_02_network_weight_matrix_identity():
    start = time.perf_counter()
    for m in range(2, 25, 2):
        assert verify_network_equals_block_matrix(m)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"network weight matrix equals the block matrix for even m<=24 in {elapsed:.1f}s")


def test_criterion_03_factor_determinants_are_one():
    for m in range(2, 25, 2):
        assert block_determinants(m) == (1, 1, 1)
    report(3, "all three factor determinants equal 1 for even m<=24")


def test_criterion_04_lgv_oracle_equivalence():
    start = time.perf_counter()
    for m in (2, 4, 6):
        net = build_three_section(standard_weights(m))
        M = weight_matrix(net)
        for size in (1, 2, 3):
            for rows in itertools.combinations(range(1, m + 1), size):
                for cols in itertools.combinations(range(1, m + 1), size):
                    assert lgv_oracle_minor(net, rows, cols) == minor(M, MinorQuery(rows, cols))
    net = build_three_section(standard_weights(8))
    M = weight_matrix(net)
    rng = random.Random(20240816)
    for _ in range(50):
        size = rng.randint(1, 4)
        rows = tuple(sorted(rng.sample(range(1, 9), size)))
        cols = tuple(sorted(rng.sample(range(1, 9), size)))
        assert lgv_oracle_minor(net, rows, cols) == minor(M, MinorQuery(rows, cols))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(4, f"oracle matches all small minors (m<=6) and 50 seeded m=8 minors in {elapsed:.1f}s")


def test_criterion_05_grid_closed_form():
    for grid_size in range(1, 7):
        for n in range(1, grid_size + 2):
            M = weight_matrix(build_grid(grid_size, n))
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert M.entries[i - 1][j - 1] == binomial(
                        2 * grid_size - i - j + 2, grid_size - i + 1
                    )
    report(5, "grid weight matrices equal the binomial closed form for sizes <= 6")


def test_criterion_06_sublattice_weight_identity():
    for a in range(0, 9):
        for b in range(0, 9 - a):
            for k in range(1, 7):
                assert w_ab_formula(a, b, k) == w_ab_oracle(a, b, k)
    report(6, "closed form equals the path-sum oracle for a+b<=8, k<=6")


def test_criterion_07_saalschuetz_identity():
    for a in range(1, 13):
        for b in range(1, 13):
            for k in range(1, 13):
                assert saalschuetz_check(a, b, k).holds
    report(7, "hypergeometric identity holds on the full 12x12x12 grid")


def test_criterion_08_path_split_lemmas():
    for m in (2, 4, 6, 8):
        rep = lemma_path_report(m)
        assert rep.ok
        assert rep.mismatches == ()
    report(8, "per-pair path sums match all closed forms for even m<=8")


def test_criterion_09_exhaustive_scan_m16():
    start = time.perf_counter()
    rep = general_position(16)
    elapsed = time.perf_counter() - start
    assert rep.ok
    assert rep.total_subsets == 735471
    assert rep.checked_subsets == 735471
    assert rep.failures == ()
    assert rep.min_abs_nonzero_det == 1
    assert elapsed < 300.0
    report(9, f"all 735471 m=16 subsets are independent in {elapsed:.1f}s")


def test_criterion_10_scan_beyond_verified_range():
    start = time.perf_counter()
    rep = general_position(18)
    elapsed = time.perf_counter() - start
    assert rep.ok
    assert rep.total_subsets == 4686825
    assert rep.failures == ()
    assert elapsed < 1800.0
    sampled = general_position(20, mode="sampled", seed=20240816, sample_count=10**5)
    assert sampled.ok
    assert sampled.checked_subsets == 10**5
    report(10, f"m=18 exhaustive in {elapsed:.1f}s and m=20 sampled (1e5 seeded) both clean")


def test_criterion_11_positive_minors_with_witnesses():
    for m in (2, 4, 6, 8, 10, 12):
        rep = positive_minor_scan(m, with_witnesses=True)
        assert rep.ok
        assert rep.violations == ()
        assert rep.witnesses_attached
        assert rep.missing_witnesses == ()
    # Spot-check that a witness really is a positive vertex-disjoint collection.
    net = build_three_section(standard_weights(4))
    pc = find_positive_collection(net, (2, 3, 4), (2, 3, 4))
    assert pc is not None and pc.weight > 0
    report(11, "every qualifying minor is positive with a path-collection witness, m<=12")


def test_criterion_12_nonnegativity_and_perturbation():
    for m in (2, 4, 6, 8, 10):
        w = standard_weights(m)
        M = weight_matrix(build_three_section(w))
        assert is_totally_nonnegative(M).ok
        eps = Fraction(1, 1000)
        perturbed = SectionWeights(
            n=w.n,
            left={k: (v if v else eps) for k, v in w.left.items()},
            middle=w.middle,
            right={k: (v if v else eps) for k, v in w.right.items()},
        )
        P = weight_matrix(build_three_section(perturbed))
        assert is_totally_positive(P).ok
    report(12, "standard weights give a nonnegative matrix; 1/1000 perturbation gives a positive one, m<=10")


def test_criterion_13_extended_families_and_reconstruction():
    for m, total in ((4, 210), (6, 54264)):
        found = search_constants(m)
        rep = verify_extended_general_position(m, found.constants)
        assert rep.ok
        assert rep.total_subsets == total and rep.checked_subsets == total
        data = hyperplane_coefficients(m, found.constants)
        disc = data.h[0].disc
        fam = extended_family(m, found.constants)
        for i, f in enumerate(fam):
            acc = ExtPolynomial.zero(disc)
            for j in range(m):
                acc = acc + data.h[j].scale(data.c[i][j])
            assert (acc - ExtPolynomial.from_rational(f, disc)).is_zero
    for m in range(4, 25, 2):
        h = weierstrass_h(m)
        total = ExtPolynomial.zero(h[0].disc)
        for p in h:
            total = total + p * p
        assert total.is_zero
    report(13, "searched constants pass the 210/54264 scans, squares sum to zero for m<=24, reconstruction exact")


def test_criterion_14_cli_determinism(capsys):
    commands = [
        ["verify", "--m", "4"],
        ["verify", "--m", "8", "--mode", "sampled", "--seed", "5", "--sample-count", "50"],
        ["network", "--m", "4", "--format", "json"],
        ["lemmas", "--m", "4"],
        ["lgv-check", "--m", "4", "--trials", "10", "--seed", "1"],
        ["extend", "--m", "4"],
        ["bench", "--m-list", "2,4"],
    ]

    def strip(text: str) -> str:
        return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)

    for argv in commands:
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert strip(first) == strip(second)
        json.loads(first.strip()) if first.lstrip().startswith("{") else None
    report(14, "all CLI certificates are byte-identical across reruns up to the timing field")
