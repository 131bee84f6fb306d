from __future__ import annotations

import dataclasses
import json
import math
import re
from fractions import Fraction

import pytest

from totalpos import build_three_section, ext_rational, hyperplane_coefficients, standard_weights
from totalpos.cli import main

from oracles import network_from_json


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def strip_timings(text: str) -> str:
    return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)


class TestVerify:
    def test_small_family_passes(self, capsys):
        code, cert = run_json(capsys, ["verify", "--m", "4"])
        assert code == 0
        assert cert["pass"] is True
        assert (cert["tool"], cert["command"], cert["m"], cert["t"]) == ("totalpos", "verify", 4, 2)
        names = [c["name"] for c in cert["checks"]]
        assert names == [
            "sign_factorization",
            "block_determinants",
            "network_matrix_identity",
            "general_position",
        ]
        gp = cert["checks"][3]["report"]
        assert gp["total_subsets"] == 15
        assert gp["failures"] == []

    def test_odd_m_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--m", "3"])
        assert info.value.code == 2
        payload = json.loads(capsys.readouterr().out)
        assert "error" in payload

    def test_sampled_mode_requires_seed(self, capsys):
        code, payload = run_json(capsys, ["verify", "--m", "4", "--mode", "sampled"])
        assert code == 2
        assert "seed" in payload["error"]

    def test_exhaustive_mode_rejects_seed(self, capsys):
        code, payload = run_json(capsys, ["verify", "--m", "4", "--seed", "1"])
        assert code == 2
        assert "error" in payload

    def test_budget_bounds_only_the_fallback_walk(self, capsys):
        """C(30, 20) subsets are over the walk's budget of 10^7, but the
        certificate proves them all without the walk."""
        code, cert = run_json(capsys, ["verify", "--m", "20"])
        assert code == 0
        gp = cert["checks"][3]["report"]
        assert (gp["method"], gp["claim"], gp["mode"]) == (
            "positive-grassmannian", "proved", "exhaustive")
        assert gp["total_subsets"] == gp["checked_subsets"] == 30045015
        assert gp["failures"] == []

    def test_refused_certificate_past_the_budget_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("totalpos.families._row_order", lambda m: list(range(3 * m // 2)))
        code, payload = run_json(capsys, ["verify", "--m", "20"])
        assert code == 2
        assert "exceeds the budget 10000000" in payload["error"]

    @pytest.mark.parametrize("m", [64, 100])
    def test_large_m_is_proved(self, capsys, m):
        code, cert = run_json(capsys, ["verify", "--m", str(m)])
        assert code == 0 and cert["pass"] is True
        gp = cert["checks"][3]["report"]
        assert (gp["method"], gp["claim"], gp["failures"]) == ("positive-grassmannian", "proved", [])
        assert gp["total_subsets"] == gp["checked_subsets"] == math.comb(3 * m // 2, m)

    def test_sampled_mode_with_seed(self, capsys):
        code, cert = run_json(
            capsys,
            ["verify", "--m", "20", "--mode", "sampled", "--seed", "9", "--sample-count", "200"],
        )
        assert code == 0
        gp = cert["checks"][3]["report"]
        assert (gp["mode"], gp["method"], gp["claim"]) == ("sampled", "sampled", "sampled")
        assert gp["checked_subsets"] == 200

    def test_default_sample_count_is_clamped_to_the_subsets(self, capsys):
        code, cert = run_json(capsys, ["verify", "--m", "4", "--mode", "sampled", "--seed", "1"])
        assert code == 0
        gp = cert["checks"][3]["report"]
        assert (gp["checked_subsets"], gp["total_subsets"]) == (15, 15)

    def test_explicit_sample_count_above_the_subsets_is_a_usage_error(self, capsys):
        code, payload = run_json(
            capsys,
            ["verify", "--m", "4", "--mode", "sampled", "--seed", "1", "--sample-count", "16"],
        )
        assert code == 2
        assert "exceeds the 15 subsets" in payload["error"]

    def test_sampled_draw_past_sys_maxsize_is_a_usage_error(self, capsys):
        """C(75, 50) > sys.maxsize, the most subsets random.sample draws
        from; the limit is named in a JSON error, not a traceback."""
        code, payload = run_json(capsys, ["verify", "--m", "50", "--mode", "sampled", "--seed", "1"])
        assert code == 2
        assert "sys.maxsize" in payload["error"]
        assert "C(75, 50)" in payload["error"]

    def test_threads_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--m", "4", "--threads", "2"])
        assert info.value.code == 2
        payload = json.loads(capsys.readouterr().out)
        assert "unrecognized arguments" in payload["error"]

    def test_budget_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--m", "4", "--budget", "5"])
        assert info.value.code == 2
        payload = json.loads(capsys.readouterr().out)
        assert "unrecognized arguments" in payload["error"]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        code = main(["verify", "--m", "2", "-o", str(target)])
        assert code == 0
        cert = json.loads(target.read_text())
        assert cert["pass"] is True
        assert capsys.readouterr().out == ""


class TestNetwork:
    def test_json_export_round_trips(self, capsys):
        code, out = run(capsys, ["network", "--m", "6", "--format", "json"])
        assert code == 0
        assert network_from_json(out) == build_three_section(standard_weights(6))

    def test_dot_export(self, capsys):
        code, out = run(capsys, ["network", "--m", "2", "--format", "dot"])
        assert code == 0
        assert out.startswith("digraph")
        assert '"c0_l1"' in out

    def test_format_is_validated(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["network", "--m", "2", "--format", "svg"])
        assert info.value.code == 2


class TestLemmas:
    def test_certificate(self, capsys):
        code, cert = run_json(capsys, ["lemmas", "--m", "4"])
        assert code == 0
        assert cert["pass"] is True
        names = [c["name"] for c in cert["checks"]]
        assert names == ["lemma_paths", "w_ab_grid", "saalschuetz_grid"]
        assert cert["checks"][0]["report"]["enumerated_paths"] == 14

    def test_large_m_passes_without_a_budget(self, capsys):
        code, cert = run_json(capsys, ["lemmas", "--m", "22"])
        assert code == 0
        assert cert["pass"] is True
        assert "budget" not in cert
        assert cert["checks"][0]["report"]["enumerated_paths"] == 2461131

    def test_budget_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["lemmas", "--m", "8", "--budget", "2"])
        assert info.value.code == 2
        payload = json.loads(capsys.readouterr().out)
        assert "unrecognized arguments" in payload["error"]


class TestLgvCheck:
    def test_random_queries_match(self, capsys):
        code, cert = run_json(capsys, ["lgv-check", "--m", "4", "--trials", "8", "--seed", "3"])
        assert code == 0
        chk = cert["checks"][0]
        assert chk["trials"] == 8
        assert chk["mismatches"] == []

    def test_seed_is_required(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["lgv-check", "--m", "4", "--trials", "8"])
        assert info.value.code == 2

    def test_budget_error_names_the_trial(self, capsys):
        """The oracle's budget stops the run at one trial; the error gives
        that trial's number, its rows and columns, and the passes before it."""
        code, payload = run_json(
            capsys, ["lgv-check", "--m", "12", "--trials", "100", "--max-size", "5", "--seed", "5"]
        )
        assert code == 2 and set(payload) == {"error"}
        assert payload["error"] == (
            "trial 20 of 100 (rows [1, 4, 5, 6, 7], cols [1, 3, 7, 8, 11]), after 19 passed: "
            "path-count product exceeds enumeration budget 10000000"
        )


class TestExtend:
    def test_m4_certificate(self, capsys):
        code, cert = run_json(capsys, ["extend", "--m", "4"])
        assert code == 0
        names = [c["name"] for c in cert["checks"]]
        assert names == ["search", "general_position", "sum_h_squares_zero", "reconstruction_exact"]
        search = cert["checks"][0]
        assert search["attempts"] == search["rejected"] + 1
        constants = [v for pair in cert["weierstrass"]["constants"] for v in pair]
        assert cert["weierstrass"]["psi_roots"] == constants

    def test_m2_is_rejected(self, capsys):
        code, payload = run_json(capsys, ["extend", "--m", "2"])
        assert code == 2
        assert "m >= 4" in payload["error"]

    def test_tiny_retry_limit_is_a_usage_error(self, capsys):
        # bound 1 leaves one fresh value, so the search is exhausted at once.
        code, payload = run_json(capsys, ["extend", "--m", "4", "--bound", "1"])
        assert code == 2
        assert "fewer than two unused values" in payload["error"]

    def test_zero_retry_limit_is_a_usage_error(self, capsys):
        code, payload = run_json(capsys, ["extend", "--m", "4", "--retry-limit", "0"])
        assert code == 2
        assert "retry_limit must be a positive integer" in payload["error"]

    def test_perturbed_coefficient_fails_reconstruction(self, capsys, monkeypatch):
        def perturbed(m, constants):
            data = hyperplane_coefficients(m, constants)
            row = list(data.c[3])
            row[1] = row[1] + ext_rational(Fraction(1, 7), row[1].disc)
            c = data.c[:3] + (tuple(row),) + data.c[4:]
            return dataclasses.replace(data, c=c)

        monkeypatch.setattr("totalpos.cli.hyperplane_coefficients", perturbed)
        code, cert = run_json(capsys, ["extend", "--m", "4"])
        assert code == 1
        checks = {c["name"]: c["pass"] for c in cert["checks"]}
        assert checks["reconstruction_exact"] is False
        assert checks["sum_h_squares_zero"] is True

    def test_final_family_is_walked_once(self, capsys, monkeypatch):
        """The general-position report is the search's accepted last walk;
        extend scans the final family no second time."""

        def second_scan(*args, **kwargs):
            raise AssertionError("extend scanned the final family again")

        monkeypatch.setattr("totalpos.cli.verify_extended_general_position", second_scan)
        monkeypatch.setattr("totalpos.surface.maximal_minor_scan", second_scan)
        code, cert = run_json(capsys, ["extend", "--m", "6", "--seed", "1"])
        assert code == 0
        report = next(c for c in cert["checks"] if c["name"] == "general_position")["report"]
        assert report["checked_subsets"] == report["total_subsets"] == 54264
        assert (report["mode"], report["method"], report["claim"]) == (
            "exhaustive", "laplace-walk", "proved")
        assert report["failures"] == []

    def test_m8_is_over_the_exhaustive_budget(self, capsys):
        code, payload = run_json(capsys, ["extend", "--m", "8"])
        assert code == 2
        assert "30260340 subsets" in payload["error"]


class TestRemovedCommands:
    def test_bench_is_a_usage_error(self, capsys):
        """perfbench/ times the commands; totalpos has no bench command."""
        with pytest.raises(SystemExit) as info:
            main(["bench", "--m-list", "2"])
        assert info.value.code == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert "invalid choice" in error and "bench" in error


class TestWorkerCount:
    def test_certificate_records_no_worker_count(self, capsys):
        """The worker count depends on the machine, so a certificate that
        recorded it would differ between machines."""
        code, cert = run_json(capsys, ["verify", "--m", "20", "--mode", "sampled", "--seed", "1",
                                       "--sample-count", "5000"])
        assert code == 0
        assert "threads" not in cert


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--m", "4"],
            ["network", "--m", "4", "--format", "json"],
            ["network", "--m", "4", "--format", "dot"],
            ["lemmas", "--m", "2"],
            ["lgv-check", "--m", "4", "--trials", "5", "--seed", "7"],
            ["extend", "--m", "4"],
            ["verify", "--m", "20"],
        ],
    )
    def test_byte_identical_up_to_timings(self, capsys, argv):
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert strip_timings(first) == strip_timings(second)
