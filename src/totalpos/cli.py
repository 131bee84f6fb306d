"""Command-line interface emitting JSON certificates.

Exit status: 0 when every check in the emitted certificate passes, 1
when a mathematical check fails (the certificate is still emitted), 2
for usage and budget errors.  Errors are also reported as JSON
{"error": ...} on stdout.  Certificates are deterministic for fixed
flags and seed, apart from elapsed_ms timing fields.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from typing import Optional

from . import __version__
from .errors import (
    EnumerationBudgetError,
    ScanBudgetError,
    SearchExhaustedError,
)
from .families import (
    block_determinants,
    general_position,
    sign_factorization_check,
    verify_network_equals_block_matrix,
)
from .matrices import MinorQuery, minor
from .networks import export_dot, export_json, lgv_oracle_minor, weight_matrix
from .scalars import format_rational, saalschuetz_check
from .surface import (
    ExtPolynomial,
    ext_rational,
    extended_family,
    hyperplane_coefficients,
    search_constants,
    verify_extended_general_position,  # unused; perfbench/tracer.py wraps it here by name
)
from .three_section import (
    build_three_section,
    lemma_path_report,
    standard_weights,
    w_ab_formula,
    w_ab_oracle,
)


class _Parser(argparse.ArgumentParser):
    """Reports usage problems as JSON before exiting with status 2."""

    def error(self, message):
        print(json.dumps({"error": message}))
        self.exit(2)


def _even_m(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"m must be an integer, got {text!r}")
    if value < 2 or value % 2:
        raise argparse.ArgumentTypeError("m must be an even integer >= 2")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="totalpos",
        description="Exact certificates for the three-block polynomial family "
        "and its planar-network realization.",
    )
    parser.add_argument("--version", action="version", version=f"totalpos {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("-o", "--output", metavar="FILE", help="write to FILE instead of stdout")

    p = sub.add_parser("verify", help="full certificate: factorization, block "
                       "determinants, network identity, general position")
    p.add_argument("--m", type=_even_m, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--seed", type=int, default=None, help="required in sampled mode")
    p.add_argument("--sample-count", type=int, default=None,
                   help="sampled subsets (default: 100000, or all when fewer)")
    add_common(p)

    p = sub.add_parser("network", help="export the standard network")
    p.add_argument("--m", type=_even_m, required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    add_common(p)

    p = sub.add_parser("lemmas", help="path-sum closed forms, sublattice weight "
                       "sums, and the hypergeometric identity grid")
    p.add_argument("--m", type=_even_m, required=True)
    add_common(p)

    p = sub.add_parser("lgv-check", help="random minors versus disjoint-path "
                       "collection sums")
    p.add_argument("--m", type=_even_m, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-size", type=int, default=3, help="largest minor size drawn")
    p.add_argument("--budget", type=int, default=10**7, help="oracle enumeration budget")
    add_common(p)

    p = sub.add_parser("extend", help="search extension constants, scan the "
                       "extended family, emit the null-sum basis data")
    p.add_argument("--m", type=_even_m, required=True)
    p.add_argument("--bound", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--retry-limit", type=int, default=512)
    add_common(p)

    return parser


def _certificate(command: str, m: Optional[int], mode: Optional[str],
                 seed: Optional[int], checks: list[dict], **extra) -> dict:
    cert = {
        "tool": "totalpos",
        "version": __version__,
        "command": command,
        "m": m,
        "t": None if m is None else m // 2,
        "mode": mode,
        "seed": seed,
    }
    cert.update(extra)
    cert["checks"] = checks
    cert["pass"] = all(c.get("pass", False) for c in checks)
    return cert


def _cmd_verify(args) -> tuple[str, bool]:
    m = args.m
    if args.mode == "sampled":
        if args.seed is None:
            raise ValueError("sampled mode requires --seed")
        seed = args.seed
        sample_count = args.sample_count
        if sample_count is None:
            sample_count = min(10**5, math.comb(3 * (m // 2), m))
    else:
        if args.seed is not None or args.sample_count is not None:
            raise ValueError("--seed/--sample-count only apply to sampled mode")
        seed = None
        sample_count = None
    dets = block_determinants(m)
    det_ok = all(d == 1 for d in dets)
    sign_ok = sign_factorization_check(m)
    net_ok = verify_network_equals_block_matrix(m)
    report = general_position(m, args.mode, seed=seed, sample_count=sample_count)
    checks = [
        {"name": "sign_factorization", "pass": sign_ok},
        {
            "name": "block_determinants",
            "pass": det_ok,
            "values": [format_rational(d) for d in dets],
        },
        {"name": "network_matrix_identity", "pass": net_ok},
        {"name": "general_position", "pass": report.ok, "report": report.to_json_dict()},
    ]
    cert = _certificate("verify", m, args.mode, seed, checks)
    return json.dumps(cert, indent=2) + "\n", cert["pass"]


def _cmd_network(args) -> tuple[str, bool]:
    net = build_three_section(standard_weights(args.m))
    if args.format == "dot":
        return export_dot(net), True
    return export_json(net) + "\n", True


def _cmd_lemmas(args) -> tuple[str, bool]:
    m = args.m
    path_report = lemma_path_report(m)
    wab_mismatches = []
    wab_cases = 0
    for a in range(0, 9):
        for b in range(0, 9 - a):
            for k in range(1, 7):
                wab_cases += 1
                if w_ab_formula(a, b, k) != w_ab_oracle(a, b, k):
                    wab_mismatches.append({"a": a, "b": b, "k": k})
    saal_failures = []
    saal_cases = 0
    for a in range(1, 13):
        for b in range(1, 13):
            for k in range(1, 13):
                saal_cases += 1
                if not saalschuetz_check(a, b, k).holds:
                    saal_failures.append({"a": a, "b": b, "k": k})
    checks = [
        {
            "name": "lemma_paths",
            "pass": path_report.ok,
            "report": path_report.to_json_dict(),
        },
        {
            "name": "w_ab_grid",
            "pass": not wab_mismatches,
            "cases": wab_cases,
            "mismatches": wab_mismatches,
        },
        {
            "name": "saalschuetz_grid",
            "pass": not saal_failures,
            "cases": saal_cases,
            "failures": saal_failures,
        },
    ]
    cert = _certificate("lemmas", m, None, None, checks)
    return json.dumps(cert, indent=2) + "\n", cert["pass"]


def _cmd_lgv_check(args) -> tuple[str, bool]:
    m = args.m
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if not 1 <= args.max_size <= m:
        raise ValueError("--max-size must lie in 1..m")
    net = build_three_section(standard_weights(m))
    matrix = weight_matrix(net)
    rng = random.Random(args.seed)
    mismatches = []
    for trial in range(1, args.trials + 1):
        size = rng.randint(1, args.max_size)
        rows = tuple(sorted(rng.sample(range(1, m + 1), size)))
        cols = tuple(sorted(rng.sample(range(1, m + 1), size)))
        direct = minor(matrix, MinorQuery(rows, cols))
        try:
            oracle = lgv_oracle_minor(net, rows, cols, budget=args.budget)
        except EnumerationBudgetError as exc:
            raise EnumerationBudgetError(
                f"trial {trial} of {args.trials} (rows {list(rows)}, cols {list(cols)}), "
                f"after {trial - 1 - len(mismatches)} passed: {exc}"
            ) from exc
        if direct != oracle:
            mismatches.append(
                {
                    "rows": list(rows),
                    "cols": list(cols),
                    "minor": format_rational(direct),
                    "oracle": format_rational(oracle),
                }
            )
    checks = [
        {
            "name": "oracle_equivalence",
            "pass": not mismatches,
            "trials": args.trials,
            "max_size": args.max_size,
            "mismatches": mismatches,
        }
    ]
    cert = _certificate("lgv-check", m, None, args.seed, checks)
    return json.dumps(cert, indent=2) + "\n", cert["pass"]


def _cmd_extend(args) -> tuple[str, bool]:
    m = args.m
    if m < 4:
        raise ValueError("extend requires m >= 4 (the m = 2 construction degenerates)")
    result = search_constants(
        m,
        bound=args.bound,
        seed=args.seed,
        retry_limit=args.retry_limit,
    )
    report = result.report  # the accepted last-stage walk, over the whole family
    data = hyperplane_coefficients(m, result.constants)
    disc = data.h[0].disc
    square_sum = ExtPolynomial.zero(disc)
    for h in data.h:
        square_sum = square_sum + h * h
    # Each h has two nonzero coefficients, so the sums run over those only.
    terms = [(j, k, x) for j, h in enumerate(data.h)
             for k, x in enumerate(h.coeffs) if not x.is_zero]
    recon_ok = True
    for i, f in enumerate(extended_family(m, result.constants)):
        acc = [ext_rational(f.coefficient(k), disc) for k in range(m)]
        for j, k, x in terms:
            acc[k] = acc[k] - data.c[i][j] * x
        if not all(v.is_zero for v in acc):
            recon_ok = False
            break
    checks = [
        {
            "name": "search",
            "pass": True,
            "attempts": result.attempts,
            "rejected": len(result.rejected),
        },
        {"name": "general_position", "pass": report.ok, "report": report.to_json_dict()},
        {"name": "sum_h_squares_zero", "pass": square_sum.is_zero},
        {"name": "reconstruction_exact", "pass": recon_ok},
    ]
    cert = _certificate(
        "extend",
        m,
        report.mode,
        args.seed,
        checks,
        bound=args.bound,
        weierstrass=data.to_json_dict(),
    )
    return json.dumps(cert, indent=2) + "\n", cert["pass"]


_HANDLERS = {
    "verify": _cmd_verify,
    "network": _cmd_network,
    "lemmas": _cmd_lemmas,
    "lgv-check": _cmd_lgv_check,
    "extend": _cmd_extend,
}


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, ok = _HANDLERS[args.command](args)
    except (
        ScanBudgetError,
        EnumerationBudgetError,
        SearchExhaustedError,
        ValueError,
    ) as exc:
        _emit(json.dumps({"error": str(exc)}) + "\n", args.output)
        return 2
    _emit(text, args.output)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
