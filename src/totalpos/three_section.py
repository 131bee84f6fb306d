"""The three-section planar network and its closed-form weight data.

The network has n source levels on the left boundary and n sink levels on
the right, built from three column sections: a left section of descending
diagonals, a single middle column of horizontals, and a right section of
ascending diagonals.  Every non-middle horizontal edge has weight one;
the diagonals and the middle column carry the configurable weights.

The standard weight assignment makes the weight matrix equal to the
binomial block matrix of the polynomial family (see families), and the
per-edge denominators telescope along every monotone right-section path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import EnumerationBudgetError
from .matrices import ExactMatrix
from .networks import PlanarNetwork, weight_matrix
from .scalars import binomial, format_rational, pochhammer

__all__ = [
    "SectionWeights",
    "weight_key_set",
    "standard_weights",
    "build_three_section",
    "extract_weights",
    "closed_form_entry",
    "closed_form_matrix",
    "w_ab_formula",
    "w_ab_oracle",
    "PairCheck",
    "LemmaPathReport",
    "lemma_path_report",
    "ascent_level_product",
]


def weight_key_set(n: int) -> frozenset[tuple[int, int]]:
    """Index pairs (i, j) with i, j >= 1 and i + j <= n; there are
    n(n-1)/2 of them, one per diagonal edge of each section."""
    return frozenset(
        (i, j) for i in range(1, n) for j in range(1, n) if i + j <= n
    )


def _check_exact(value, where: str) -> None:
    if isinstance(value, (bool, float, complex)):
        raise ValueError(
            f"{where} must be an exact rational, got {type(value).__name__} {value!r}"
        )


@dataclass(frozen=True)
class SectionWeights:
    """Complete weight table for one three-section network.

    left and right map (i, j) over weight_key_set(n); middle lists one
    weight per level 1..n.  Values are normalized to Fraction; float,
    complex and bool values are rejected as inexact.
    """

    n: int
    left: Mapping[tuple[int, int], Fraction]
    middle: tuple[Fraction, ...]
    right: Mapping[tuple[int, int], Fraction]

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise ValueError("boundary size n must be a positive integer")
        keys = weight_key_set(self.n)
        for name in ("left", "right"):
            table = getattr(self, name)
            if set(table) != keys:
                raise ValueError(
                    f"{name} weights must be keyed by exactly the pairs "
                    f"(i, j) with i, j >= 1 and i + j <= {self.n}"
                )
            for k, v in sorted(table.items()):
                _check_exact(v, f"{name} weight {k}")
            object.__setattr__(
                self, name, {k: Fraction(v) for k, v in sorted(table.items())}
            )
        for level, v in enumerate(self.middle, 1):
            _check_exact(v, f"middle weight at level {level}")
        middle = tuple(Fraction(v) for v in self.middle)
        if len(middle) != self.n:
            raise ValueError(f"middle must list exactly {self.n} weights")
        object.__setattr__(self, "middle", middle)


def standard_weights(m: int) -> SectionWeights:
    """The weight table that realizes the binomial block matrix, n = m.

    With t = m/2: right weight (i, j) is (i + t - j)/(i + j - 1) for
    i <= t, (m - i - j + 1)/(i + j - 1) for i > t, and 0 for j > t;
    left weight (i, j) is 1 when i + j <= t and 0 otherwise; every
    middle weight is 1.
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 2 or m % 2:
        raise ValueError("m must be an even integer >= 2")
    t = m // 2
    left = {}
    right = {}
    for i, j in weight_key_set(m):
        left[(i, j)] = Fraction(1 if i + j <= t else 0)
        if j > t:
            right[(i, j)] = Fraction(0)
        elif i <= t:
            right[(i, j)] = Fraction(i + t - j, i + j - 1)
        else:
            right[(i, j)] = Fraction(m - i - j + 1, i + j - 1)
    return SectionWeights(n=m, left=left, middle=(Fraction(1),) * m, right=right)


def build_three_section(weights: SectionWeights) -> PlanarNetwork:
    """Realize the weight table as a planar network.

    Columns run 0..2n-1 and levels 1..n, with a full grid of weight-one
    horizontals (degree-two pass-through vertices do not affect path
    weights or vertex-disjointness).  Edge slot c joins vertex columns c
    and c+1: slots 0..n-2 form the left section, slot n-1 carries the
    middle weights, and slots n..2n-2 form the right section.  The
    descending edge in left slot n-1-j dropping to level d+j-1 carries
    left[(d, j)]; the ascending edge in right slot n-1+j rising from
    level d+j-1 carries right[(d, j)].  Sources sit at column 0, sinks
    at column 2n-1, both ordered by level.
    """
    n = weights.n
    last = 2 * n - 1
    vertices = [(c, lvl) for c in range(last + 1) for lvl in range(1, n + 1)]
    edges = []
    for c in range(last):
        for lvl in range(1, n + 1):
            w = weights.middle[lvl - 1] if c == n - 1 else Fraction(1)
            edges.append(((c, lvl), (c + 1, lvl), w))
    for d, j in weight_key_set(n):
        lvl = d + j - 1  # lower endpoint level
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


def closed_form_entry(i: int, j: int, m: int) -> int:
    """Weight-matrix entry (i, j) of the standard network in closed form:
    binomial(t + i - 1, j - 1) for i <= t, binomial(2t - i, j - i) above."""
    if m < 2 or m % 2:
        raise ValueError("m must be an even integer >= 2")
    if not (1 <= i <= m and 1 <= j <= m):
        raise ValueError("indices must lie in 1..m")
    t = m // 2
    if i <= t:
        return binomial(t + i - 1, j - 1)
    return binomial(2 * t - i, j - i)


def closed_form_matrix(m: int) -> ExactMatrix:
    return ExactMatrix.from_rows(
        [[closed_form_entry(i, j, m) for j in range(1, m + 1)] for i in range(1, m + 1)]
    )


def w_ab_formula(a: int, b: int, k: int) -> int:
    """Closed form binomial(a+b, a) * (k+b)_a for the sublattice weight sum."""
    if a < 0 or b < 0:
        raise ValueError("step counts a and b must be nonnegative")
    return binomial(a + b, a) * pochhammer(k + b, a)


def w_ab_oracle(a: int, b: int, k: int, *, budget: int = 10**6) -> int:
    """Sum over all binomial(a+b, a) step sequences of the product of
    diagonal-step weights: the diagonal taken as overall step c after q
    earlier diagonals weighs k + a + 2b + q - 2c + 1 (so a path of
    diagonals-first carries (k + a + 2b - s)_s after s steps, and the
    last possible diagonal weighs exactly k).
    """
    if a < 0 or b < 0:
        raise ValueError("step counts a and b must be nonnegative")
    if binomial(a + b, a) > budget:
        raise EnumerationBudgetError(
            f"binomial({a + b}, {a}) paths exceed enumeration budget {budget}"
        )
    base = k + a + 2 * b + 1
    total = 0
    for positions in combinations(range(1, a + b + 1), a):
        prod = 1
        for q, c in enumerate(positions):
            prod *= base + q - 2 * c
        total += prod
    return total


class PairCheck(NamedTuple):
    """Per boundary pair (i, j): enumerated path-weight sums split by step
    profile, next to the closed forms each lemma predicts (None where no
    prediction applies)."""

    i: int
    j: int
    total: Fraction
    total_expected: Fraction
    ascent_only: Fraction
    ascent_only_expected: Fraction
    descent_only: Fraction
    descent_only_expected: Optional[Fraction]


@dataclass(frozen=True)
class LemmaPathReport:
    m: int
    checks: tuple[PairCheck, ...]
    mismatches: tuple[tuple[int, int, str], ...]
    enumerated_paths: int

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json_dict(self) -> dict:
        def fmt(x):
            return None if x is None else format_rational(x)

        return {
            "m": self.m,
            "ok": self.ok,
            "enumerated_paths": self.enumerated_paths,
            "mismatches": [
                {"i": i, "j": j, "field": field} for (i, j, field) in self.mismatches
            ],
            "checks": [
                {
                    "i": c.i,
                    "j": c.j,
                    "total": fmt(c.total),
                    "total_expected": fmt(c.total_expected),
                    "ascent_only": fmt(c.ascent_only),
                    "ascent_only_expected": fmt(c.ascent_only_expected),
                    "descent_only": fmt(c.descent_only),
                    "descent_only_expected": fmt(c.descent_only_expected),
                }
                for c in self.checks
            ],
        }


def lemma_path_report(m: int) -> LemmaPathReport:
    """Compare three path-weight sums per boundary pair of the standard
    network against their closed forms: all paths against
    closed_form_entry; paths without a descending step against
    binomial(t, j - i) for i <= t and against closed_form_entry for
    i > t (descents above level t all weigh zero); paths without an
    ascending step against binomial(i - 1, j - 1) for i <= t (no
    prediction above t).

    Each table of sums is the weight matrix of the network restricted to
    the edges a path of that kind may take, and the path count is the
    weight matrix of its nonzero edges at unit weight.  Zero-weight edges
    are left out of the count: they change no sum.
    """
    net = build_three_section(standard_weights(m))  # validates m
    t = m // 2

    def sums(keep, unit=False) -> tuple[tuple[Fraction, ...], ...]:
        """Weight matrix over the nonzero edges whose tail and head levels
        pass keep, each at unit weight when unit is set."""
        edges = [
            (a, b, 1 if unit else w) for a, b, w in net.edges if w and keep(a[1], b[1])
        ]
        kept = PlanarNetwork(net.vertices, edges, net.sources, net.sinks)
        return weight_matrix(kept).entries

    totals = sums(lambda tail, head: True)
    ascent_only = sums(lambda tail, head: head >= tail)
    descent_only = sums(lambda tail, head: head <= tail)
    counts = sums(lambda tail, head: True, unit=True)
    checks = []
    mismatches = []
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            all_w = totals[i - 1][j - 1]
            up_w = ascent_only[i - 1][j - 1]
            down_w = descent_only[i - 1][j - 1]
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
        enumerated_paths=int(sum(map(sum, counts))),
    )


def ascent_level_product(path: Sequence[tuple[int, int]]) -> int:
    """Product of the lower-endpoint levels of the ascending steps; under
    the standard weights this is the per-path denominator (i)_{j-i}."""
    prod = 1
    for (_, a), (_, b) in zip(path, path[1:]):
        if b > a:
            prod *= a
    return prod
