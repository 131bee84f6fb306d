"""The four certificate jobs the benchmark drives, with their inputs and invariants.

A workload turns the benchmark seed into inputs (``make_inputs``), runs one
job on them (``run``) and lists every invariant the job's outputs break
(``check``); ``render`` turns the outputs into one comparable text.  Jobs reach the
library only through module attributes looked up at call time
(``totalpos.cli.main``, ``totalpos.matrices.is_totally_nonnegative``, ...),
so the tracer can wrap them from outside without touching ``src/``.

The invariants are exact and hold for any correct engine or search order:
subset counts equal ``math.comb``, failure lists are empty, identities hold
exactly.  No accepted constant and no attempt count is pinned, and the
sampled scan is judged by its failure list and counts, not by the
certificate's top-level ``"pass"``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import totalpos.cli
import totalpos.families
import totalpos.matrices
import totalpos.networks
import totalpos.surface
import totalpos.three_section
from totalpos.scalars import format_rational

# ``min_abs_nonzero_det`` of the m=16 exhaustive scan, computed once by the
# direct per-subset path: maximal_minor_scan(coefficient_matrix(
# family_polys(16), 16), _force_direct=True) (735,471 subsets, 86 s on
# 2 CPUs).  Any correct engine must reproduce it.
VERIFY_M16_MIN_ABS_NONZERO_DET = "1"

SAMPLE_COUNT = 100_000

_ELAPSED = re.compile(r'"elapsed_ms": \d+')


def strip_elapsed(text: str) -> str:
    """The certificate text with every timing field zeroed."""
    return _ELAPSED.sub('"elapsed_ms": 0', text)


class CliResult(NamedTuple):
    status: int
    stdout: str


def run_cli(argv: list[str]) -> CliResult:
    """``totalpos <argv>`` in-process, with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = totalpos.cli.main(argv)
    return CliResult(status, buf.getvalue())


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], dict]
    run: Callable[[dict], dict]
    check: Callable[[dict, dict], list[str]]


def render(outputs: dict) -> str:
    """One text for a job's outputs; equal texts mean equal certificates."""
    parts = []
    for label, value in outputs.items():
        if isinstance(value, CliResult):
            text = f"exit {value.status}\n{value.stdout}"
        elif isinstance(value, totalpos.matrices.ScanVerdict):
            witness = None
            if value.witness is not None:
                q = value.witness.query
                witness = [list(q.rows), list(q.cols), format_rational(value.witness.value)]
            text = json.dumps({"ok": value.ok, "witness": witness})
        elif isinstance(value, totalpos.matrices.ExactMatrix):
            text = json.dumps([[format_rational(x) for x in row] for row in value.entries])
        else:
            text = json.dumps(value.to_json_dict())
        parts.append(f"## {label}\n{text}\n")
    return "".join(parts)


# ---------------------------------------------------------------------------
# shared certificate checks


def _cli_certificate(outputs: dict, label: str, problems: list[str]) -> dict:
    status, text = outputs[label]
    if status == 2:
        problems.append(f"{label}: exit status 2: {text.strip()}")
        return {}
    try:
        cert = json.loads(text)
    except json.JSONDecodeError as exc:
        problems.append(f"{label}: stdout is not JSON ({exc})")
        return {}
    return {c["name"]: c for c in cert.get("checks", [])}


def _expect(problems: list[str], label: str, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: {what} is {repr(got)[:200]}, expected {want!r}")


def _check_scan_report(problems, label, report: dict, total: int, checked: int) -> None:
    _expect(problems, label, "total_subsets", report.get("total_subsets"), total)
    _expect(problems, label, "checked_subsets", report.get("checked_subsets"), checked)
    _expect(problems, label, "failures", report.get("failures"), [])


def _check_verify(outputs: dict, m: int, checked: int | None) -> tuple[list[str], dict]:
    problems: list[str] = []
    checks = _cli_certificate(outputs, "verify", problems)
    if not checks:
        return problems, {}
    dets = checks.get("block_determinants", {})
    _expect(problems, "verify", "block determinants", dets.get("values"), ["1", "1", "1"])
    for name in ("sign_factorization", "network_matrix_identity"):
        _expect(problems, "verify", f"{name} pass", checks.get(name, {}).get("pass"), True)
    report = checks.get("general_position", {}).get("report", {})
    total = math.comb(3 * (m // 2), m)
    _check_scan_report(problems, "verify", report, total, total if checked is None else checked)
    return problems, report


# ---------------------------------------------------------------------------
# verify-m16


def _verify_m16_inputs(seed: int) -> dict:
    # Exhaustive: the seed selects nothing, the certificate is the same for all.
    return {"argv": ["verify", "--m", "16"]}


def _verify_run(inputs: dict) -> dict:
    return {"verify": run_cli(inputs["argv"])}


def _verify_m16_check(outputs: dict, inputs: dict) -> list[str]:
    problems, report = _check_verify(outputs, 16, None)
    if report:
        _expect(problems, "verify", "min_abs_nonzero_det",
                report.get("min_abs_nonzero_det"), VERIFY_M16_MIN_ABS_NONZERO_DET)
    return problems


# ---------------------------------------------------------------------------
# verify-m20-sampled


def _verify_m20_inputs(seed: int) -> dict:
    return {"argv": ["verify", "--m", "20", "--mode", "sampled", "--seed", str(seed),
                     "--sample-count", str(SAMPLE_COUNT)]}


def _verify_m20_check(outputs: dict, inputs: dict) -> list[str]:
    return _check_verify(outputs, 20, SAMPLE_COUNT)[0]


# ---------------------------------------------------------------------------
# extend-m6


def seeded_constants(m: int, seed: int) -> totalpos.surface.FamilyConstants:
    """(0, 1) followed by t-1 seeded pairs of distinct rationals."""
    rng = random.Random(seed)
    pairs = [(Fraction(0), Fraction(1))]
    used = {Fraction(0), Fraction(1)}
    while len(pairs) < m // 2:
        a, b = (Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(2))
        if a != b and a not in used and b not in used:
            pairs.append((a, b))
            used.update((a, b))
    return totalpos.surface.FamilyConstants(tuple(pairs))


def _extend_inputs(seed: int) -> dict:
    return {
        "argv": ["extend", "--m", "6", "--seed", str(seed)],
        "constants_m16": seeded_constants(16, seed),
    }


def _extend_run(inputs: dict) -> dict:
    return {
        "extend": run_cli(inputs["argv"]),
        "hyperplane_m16": totalpos.surface.hyperplane_coefficients(16, inputs["constants_m16"]),
    }


def _reconstruction_problems(data, label: str) -> list[str]:
    """Every family member equals sum_j c[i][j] h[j] exactly, and sum h^2 = 0.

    Each h has two nonzero coefficients, so the sums run over those only."""
    surface = totalpos.surface
    disc = data.h[0].disc
    family = surface.extended_family(data.m, data.constants)
    if len(data.c) != len(family):
        return [f"{label}: {len(data.c)} coefficient rows for {len(family)} members"]
    terms = [(j, k, coeff) for j, h in enumerate(data.h)
             for k, coeff in enumerate(h.coeffs) if not coeff.is_zero]
    problems = []
    for i, f in enumerate(family):
        acc = [surface.ext_rational(f.coefficient(k), disc) for k in range(data.m)]
        for j, k, coeff in terms:
            acc[k] = acc[k] - data.c[i][j] * coeff
        if not all(x.is_zero for x in acc):
            problems.append(f"{label}: member {i + 1} does not reconstruct")
    square_sum = surface.ExtPolynomial.zero(disc)
    for h in data.h:
        square_sum = square_sum + h * h
    if not square_sum.is_zero:
        problems.append(f"{label}: squares of h do not sum to zero")
    return problems


def _extend_check(outputs: dict, inputs: dict) -> list[str]:
    problems: list[str] = []
    checks = _cli_certificate(outputs, "extend", problems)
    if checks:
        total = math.comb(21, 6)
        report = checks.get("general_position", {}).get("report", {})
        _check_scan_report(problems, "extend", report, total, total)
        for name in ("search", "sum_h_squares_zero", "reconstruction_exact"):
            _expect(problems, "extend", f"{name} pass", checks.get(name, {}).get("pass"), True)
    problems += _reconstruction_problems(outputs["hyperplane_m16"], "hyperplane_m16")
    return problems


# ---------------------------------------------------------------------------
# positivity


def _standard_matrix(m: int, eps: Fraction | None = None) -> totalpos.matrices.ExactMatrix:
    """Weight matrix of the standard network; with eps, zero weights become eps."""
    ts = totalpos.three_section
    w = ts.standard_weights(m)
    if eps is not None:
        w = ts.SectionWeights(
            n=w.n,
            left={k: (v if v else eps) for k, v in w.left.items()},
            middle=w.middle,
            right={k: (v if v else eps) for k, v in w.right.items()},
        )
    return totalpos.networks.weight_matrix(ts.build_three_section(w))


def _positivity_inputs(seed: int) -> dict:
    ts = totalpos.three_section
    return {
        "tnn_m10": _standard_matrix(10),
        "tp_m8": _standard_matrix(8, Fraction(1, 1000)),
        "network_m40": ts.build_three_section(ts.standard_weights(40)),
        "lgv_argv": ["lgv-check", "--m", "8", "--trials", "200", "--max-size", "4",
                     "--seed", str(seed)],
        "lemmas_argv": ["lemmas", "--m", "10"],
    }


def _positivity_run(inputs: dict) -> dict:
    return {
        "tnn_m10": totalpos.matrices.is_totally_nonnegative(inputs["tnn_m10"]),
        "tp_m8": totalpos.matrices.is_totally_positive(inputs["tp_m8"]),
        "positive_minor_scan_m10": totalpos.families.positive_minor_scan(10, with_witnesses=True),
        "lgv-check": run_cli(inputs["lgv_argv"]),
        "lemmas": run_cli(inputs["lemmas_argv"]),
        "weight_matrix_m40": totalpos.networks.weight_matrix(inputs["network_m40"]),
    }


def _positivity_check(outputs: dict, inputs: dict) -> list[str]:
    problems: list[str] = []
    for label in ("tnn_m10", "tp_m8"):
        _expect(problems, label, "verdict", tuple(outputs[label]), (True, None))
    pms = outputs["positive_minor_scan_m10"]
    _expect(problems, "positive_minor_scan_m10", "total_minors", pms.total_minors, math.comb(15, 10))
    _expect(problems, "positive_minor_scan_m10", "violations", pms.violations, ())
    _expect(problems, "positive_minor_scan_m10", "missing_witnesses", pms.missing_witnesses, ())
    _expect(problems, "positive_minor_scan_m10", "witnesses_attached", pms.witnesses_attached, True)
    checks = _cli_certificate(outputs, "lgv-check", problems)
    if checks:
        oracle = checks.get("oracle_equivalence", {})
        _expect(problems, "lgv-check", "trials", oracle.get("trials"), 200)
        _expect(problems, "lgv-check", "mismatches", oracle.get("mismatches"), [])
    checks = _cli_certificate(outputs, "lemmas", problems)
    if checks:
        for name in ("lemma_paths", "w_ab_grid", "saalschuetz_grid"):
            _expect(problems, "lemmas", f"{name} pass", checks.get(name, {}).get("pass"), True)
    if outputs["weight_matrix_m40"] != totalpos.three_section.closed_form_matrix(40):
        problems.append("weight_matrix_m40: differs from the binomial closed form")
    return problems


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-m16", _verify_m16_inputs, _verify_run, _verify_m16_check),
        Workload("verify-m20-sampled", _verify_m20_inputs, _verify_run, _verify_m20_check),
        Workload("extend-m6", _extend_inputs, _extend_run, _extend_check),
        Workload("positivity", _positivity_inputs, _positivity_run, _positivity_check),
    )
}
