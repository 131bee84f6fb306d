"""Outside-in tracing: spans around the library's public functions.

``Tracer.install`` replaces module attributes at the places where callers
look them up (``totalpos.cli.search_constants``,
``totalpos.families.maximal_minor_scan``, ...) with wrappers that record a
span per call; ``uninstall`` puts the originals back.  Spans nest through a
stack, so every span knows the span that caused it, and a span's self time
is its duration minus the time of the spans it caused.  Spans are
aggregated in memory per name; names that need distributions or fits also
keep one record per call.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import math
import resource
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter


def cpu_seconds() -> float:
    """User + system CPU of this process and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _scan_attrs(args, kwargs, report) -> dict:
    return {"subsets": report.checked_subsets, "rejects": int(not report.ok)}


def _total_scan_attrs(args, kwargs, verdict) -> dict:
    # Minors the verdict certifies: all C(r+c, r) - 1 of them when it holds.
    matrix = args[0]
    covered = math.comb(matrix.rows + matrix.cols, matrix.rows) - 1
    return {"minors": covered if verdict.ok else 0}


def _search_attrs(args, kwargs, result) -> dict:
    reasons = Counter(reason for _, _, reason in result.rejected)
    return {
        "attempts": result.attempts,
        "stages": len(result.constants.pairs) - 1,
        "rejected_duplicate": reasons["duplicate-constant"],
        "rejected_singular": reasons["singular-subset"],
    }


def _hyperplane_attrs(args, kwargs, data) -> dict:
    return {"m": data.m}


def _positive_minor_attrs(args, kwargs, report) -> dict:
    return {"minors": report.total_minors}


def _found_attrs(args, kwargs, found) -> dict:
    return {"found": int(found is not None)}


_SCAN = {"keep": True, "cpu": True, "describe": _scan_attrs}

# (module, attribute, span name, options).  A span name may cover several
# attributes: every place a caller looks the same layer up.
TARGETS = [
    ("totalpos.cli", "main", "cli", {}),
    ("totalpos.families", "maximal_minor_scan", "matrices.scan", _SCAN),
    ("totalpos.surface", "maximal_minor_scan", "matrices.scan", _SCAN),
    ("totalpos.matrices", "is_totally_nonnegative", "matrices.total_scan", {"describe": _total_scan_attrs}),
    ("totalpos.matrices", "is_totally_positive", "matrices.total_scan", {"describe": _total_scan_attrs}),
    ("totalpos.matrices", "determinant", "matrices.det", {}),
    ("totalpos.families", "determinant", "matrices.det", {}),
    ("totalpos.surface", "determinant", "matrices.det", {}),
    ("totalpos.families", "family_polys", "families.build", {}),
    ("totalpos.families", "coefficient_matrix", "families.build", {}),
    ("totalpos.surface", "family_polys", "families.build", {}),
    ("totalpos.surface", "coefficient_matrix", "families.build", {}),
    ("totalpos.surface", "extended_family", "families.build", {}),
    ("totalpos.cli", "extended_family", "families.build", {}),
    ("totalpos.cli", "block_determinants", "families.identity_checks", {}),
    ("totalpos.cli", "sign_factorization_check", "families.identity_checks", {}),
    ("totalpos.cli", "verify_network_equals_block_matrix", "families.identity_checks", {}),
    ("totalpos.families", "positive_minor_scan", "families.positive_minor_scan", {"describe": _positive_minor_attrs}),
    ("totalpos.cli", "search_constants", "surface.search", {"describe": _search_attrs}),
    ("totalpos.cli", "verify_extended_general_position", "surface.verify_ext", {}),
    ("totalpos.cli", "hyperplane_coefficients", "surface.hyperplane", {"keep": True, "describe": _hyperplane_attrs}),
    ("totalpos.surface", "hyperplane_coefficients", "surface.hyperplane", {"keep": True, "describe": _hyperplane_attrs}),
    ("totalpos.cli", "weight_matrix", "networks.weight_matrix", {}),
    ("totalpos.families", "weight_matrix", "networks.weight_matrix", {}),
    ("totalpos.networks", "weight_matrix", "networks.weight_matrix", {}),
    ("totalpos.cli", "lgv_oracle_minor", "networks.lgv_oracle", {}),
    ("totalpos.families", "find_positive_collection", "networks.positive_collection", {"describe": _found_attrs}),
    ("totalpos.cli", "build_three_section", "three_section.build", {}),
    ("totalpos.families", "build_three_section", "three_section.build", {}),
    ("totalpos.three_section", "build_three_section", "three_section.build", {}),
    ("totalpos.cli", "lemma_path_report", "three_section.lemma_report", {}),
    ("totalpos.cli", "w_ab_oracle", "three_section.w_ab_oracle", {}),
    ("totalpos.cli", "saalschuetz_check", "scalars.saalschuetz", {}),
]


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    outer_s: float = 0.0  # time not nested inside another span of this name
    counts: Counter = field(default_factory=Counter)
    parents: Counter = field(default_factory=Counter)
    records: list = field(default_factory=list)


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self._stack: list[list] = []  # open spans: [name, seconds of child spans]
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name, options in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, **options))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, keep=False, cpu=False, describe=None):
        stats = self.stats[name]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            cpu0 = cpu_seconds() if cpu else 0.0
            t0 = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                seconds = perf_counter() - t0
                stack.pop()
                stats.calls += 1
                stats.self_s += seconds - frame[1]
                if all(open_name != name for open_name, _ in stack):
                    stats.outer_s += seconds
                parent_name = parent[0] if parent else None
                stats.parents[parent_name] += 1
                if parent is not None:
                    parent[1] += seconds
                attrs = describe(args, kwargs, result) if ok and describe else {}
                stats.counts.update(attrs)
                if keep:
                    record = {"s": seconds, "parent": parent_name, **attrs}
                    if cpu:
                        record["cpu_s"] = cpu_seconds() - cpu0
                    stats.records.append(record)

        return wrapper


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile with at
    least ten samples beyond it, or the maximum when there are fewer than 11."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def layer_metrics(tracer: Tracer, jobs: int, nproc: int) -> tuple[dict, dict]:
    """Per-layer metrics, per traced job, and notes on how they were derived."""
    st = tracer.stats
    notes: dict = {}
    out: dict = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def per_job(x):
        return x / jobs

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    scan = st["matrices.scan"]
    scan_cpu = sum(r["cpu_s"] for r in scan.records)
    put("matrices.scan.calls", per_job(scan.calls), "count")
    put("matrices.scan.s", per_job(scan.outer_s), "s")
    put("matrices.scan.subsets", per_job(scan.counts["subsets"]), "count")
    put("matrices.scan.subsets_per_s", rate(scan.counts["subsets"], scan.outer_s), "1/s")
    put("matrices.scan.cpu_s", per_job(scan_cpu), "s")
    put("matrices.scan.parallel_eff", rate(scan_cpu, scan.outer_s * nproc), "ratio")
    call_ms = [r["s"] * 1000 for r in scan.records]
    if call_ms:
        p50 = statistics.median(call_ms)
        tail_ms, pct, beyond = tail(call_ms)
        notes["matrices.scan.call_ms_tail"] = {"percentile": pct, "samples": len(call_ms), "beyond": beyond}
    else:
        p50 = tail_ms = 0.0
    put("matrices.scan.call_ms_p50", p50, "ms")
    put("matrices.scan.call_ms_tail", tail_ms, "ms")
    # Sequential fail-fast scans of the constant search, fitted as
    # time = fixed + subsets * per_subset.  Pool scans are left out: they
    # run at another rate per subset and would dominate the fit.
    points = [(r["subsets"], r["s"]) for r in scan.records
              if r.get("parent") == "surface.search" and "subsets" in r]
    fixed_ms = us_per_subset = 0.0
    if len(points) >= 3 and len({x for x, _ in points}) > 1:
        slope, intercept = statistics.linear_regression(*zip(*points))
        fixed_ms, us_per_subset = intercept * 1000, slope * 1e6
        notes["matrices.scan.fit"] = {"calls": len(points)}
    put("matrices.scan.fixed_ms", fixed_ms, "ms")
    put("matrices.scan.us_per_subset", us_per_subset, "us")
    rejects = [r["subsets"] for r in scan.records if r.get("rejects")]
    put("matrices.scan.rejects", per_job(len(rejects)), "count")
    put("matrices.scan.subsets_to_reject", statistics.fmean(rejects) if rejects else 0.0, "count")

    total_scan = st["matrices.total_scan"]
    put("matrices.total_scan.calls", per_job(total_scan.calls), "count")
    put("matrices.total_scan.s", per_job(total_scan.outer_s), "s")
    put("matrices.total_scan.minors", per_job(total_scan.counts["minors"]), "count")
    put("matrices.total_scan.minors_per_s", rate(total_scan.counts["minors"], total_scan.outer_s), "1/s")
    det = st["matrices.det"]
    put("matrices.det.calls", per_job(det.calls), "count")
    put("matrices.det.s", per_job(det.outer_s), "s")

    search = st["surface.search"]
    scans_in_search = scan.parents["surface.search"]
    put("surface.search.self_s", per_job(search.self_s), "s")
    put("surface.search.attempts", per_job(search.counts["attempts"]), "count")
    put("surface.search.rejected_duplicate", per_job(search.counts["rejected_duplicate"]), "count")
    put("surface.search.rejected_singular", per_job(search.counts["rejected_singular"]), "count")
    put("surface.search.useful_ratio", rate(search.counts["stages"], scans_in_search), "ratio")
    put("surface.verify_ext.s", per_job(st["surface.verify_ext"].outer_s), "s")
    hyper16 = sum(r["s"] for r in st["surface.hyperplane"].records if r.get("m") == 16)
    put("surface.hyperplane_m16.s", per_job(hyper16), "s")

    put("families.build_s", per_job(st["families.build"].outer_s), "s")
    put("families.identity_checks_s", per_job(st["families.identity_checks"].outer_s), "s")
    pms = st["families.positive_minor_scan"]
    put("families.positive_minor_scan.self_s", per_job(pms.self_s), "s")
    put("families.positive_minor_scan.minors", per_job(pms.counts["minors"]), "count")

    for name in ("networks.weight_matrix", "networks.lgv_oracle", "networks.positive_collection",
                 "three_section.build", "three_section.w_ab_oracle", "scalars.saalschuetz"):
        put(f"{name}.calls", per_job(st[name].calls), "count")
        put(f"{name}.s", per_job(st[name].outer_s), "s")
    collections = st["networks.positive_collection"]
    put("networks.positive_collection.found_ratio",
        rate(collections.counts["found"], collections.calls), "ratio")
    put("three_section.lemma_report.s", per_job(st["three_section.lemma_report"].outer_s), "s")
    put("cli.self_s", per_job(st["cli"].self_s), "s")
    return out, notes
