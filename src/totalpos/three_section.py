"""The three-section planar network and its closed-form weight data.

The network has n source levels on the left boundary and n sink levels on
the right, built from three column sections: a left section of descending
diagonals, a single middle column of horizontals, and a right section of
ascending diagonals.  Every non-middle horizontal edge has weight one;
the diagonals and the middle column carry the configurable weights.

The standard weight assignment makes the weight matrix equal to the
binomial block matrix of the polynomial family (see families), and the
per-edge denominators telescope along every monotone right-section path.

Every edge joins adjacent columns and changes level by at most one, so
the weight matrix is the product of the 2n-1 slots' bidiagonal transfer
matrices, and each nonzero diagonal edge is one elementary factor
(Whitney's reduction).  A weight table is therefore first a word of
letters (_slot_word), each (from level, to level, weight) in slot order.
One integer sweep over the word (_Sweep) gives the weight matrix with no
vertex graph: the network identity and the lemma tables are sweeps over
the standard word and its filtered sub-words.  build_three_section
places the same letters as edges, so the network and the word cannot
disagree; it serves export, the disjoint-path oracle and witness
routing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Iterable, Mapping, NamedTuple, Optional

from .errors import EnumerationBudgetError
from .matrices import ExactMatrix
from .networks import PlanarNetwork
from .scalars import binomial, format_rational, pochhammer

__all__ = [
    "SectionWeights",
    "weight_key_set",
    "standard_weights",
    "build_three_section",
    "closed_form_entry",
    "closed_form_matrix",
    "w_ab_formula",
    "w_ab_oracle",
    "PairCheck",
    "LemmaPathReport",
    "lemma_path_report",
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


def _even_half(m: int) -> int:
    """t = m / 2 for a family size m, which must be an even integer >= 2;
    bool, non-int, odd and smaller values are refused alike."""
    if isinstance(m, bool) or not isinstance(m, int) or m < 2 or m % 2:
        raise ValueError("m must be an even integer >= 2")
    return m // 2


@dataclass(frozen=True)
class SectionWeights:
    """Complete weight table for one three-section network.

    left and right map (i, j) over weight_key_set(n); middle lists one
    weight per level 1..n.  Values are normalized to Fraction; float,
    complex and bool values are rejected as inexact.  Each table is sorted
    once, and only values that are not already Fraction are checked and
    converted.
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
            items = sorted(table.items())
            for k, v in items:
                if type(v) is not Fraction:
                    _check_exact(v, f"{name} weight {k}")
            object.__setattr__(self, name, {
                k: v if type(v) is Fraction else Fraction(v) for k, v in items
            })
        for level, v in enumerate(self.middle, 1):
            if type(v) is not Fraction:
                _check_exact(v, f"middle weight at level {level}")
        middle = tuple(
            v if type(v) is Fraction else Fraction(v) for v in self.middle
        )
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
    t = _even_half(m)
    zero, one = Fraction(0), Fraction(1)
    left = {}
    right = {}
    for i, j in weight_key_set(m):
        left[(i, j)] = one if i + j <= t else zero
        if j > t:
            right[(i, j)] = zero
        elif i <= t:
            right[(i, j)] = Fraction(i + t - j, i + j - 1)
        else:
            right[(i, j)] = Fraction(m - i - j + 1, i + j - 1)
    return SectionWeights(n=m, left=left, middle=(one,) * m, right=right)


def _slot_word(weights: SectionWeights) -> list[list[tuple[int, int, Fraction]]]:
    """The weight table as its slot word: entry c lists the letters of
    edge slot c, each (from level, to level, weight).

    Left slot n-1-j holds the descending letters (d+j -> d+j-1,
    left[(d, j)]) in ascending order of target level; the middle slot n-1
    holds one scaling letter (l -> l, middle weight) per level; right slot
    n-1+j holds the ascending letters (d+j-1 -> d+j, right[(d, j)]) in
    descending order of target level.  Zero-weight letters are kept (the
    network lists them as edges).

    Each diagonal letter is an elementary factor I + w E(from, to), and
    the product of a slot's letters in this order is the slot's
    bidiagonal transfer matrix: a letter's source column is read before
    any letter of the slot writes to it, so no cross term appears.  The
    weight matrix is the product of the slots, left to right (_Sweep).
    """
    n = weights.n
    left, right = weights.left, weights.right
    word = [
        [(d + j, d + j - 1, left[(d, j)]) for d in range(1, n - j + 1)]
        for j in range(n - 1, 0, -1)
    ]
    word.append([(lvl, lvl, w) for lvl, w in enumerate(weights.middle, 1)])
    word += [
        [(d + j - 1, d + j, right[(d, j)]) for d in range(n - j, 0, -1)]
        for j in range(1, n)
    ]
    return word


class _Sweep:
    """An n x n product of elementary factors, kept on integers: entry
    (i, l) of the product, 1-based, is cols[l - 1][i - 1] / den[l - 1].

    It starts as the identity, and apply multiplies it on the right by
    each letter's factor, one column update per letter.  Column l keeps
    a positive potential den[l - 1], and after each update the column
    and its potential are divided by their gcd, so the pair stays in
    lowest terms.  A letter a -> b of weight p/q (q > 0) adds p/q times
    column a to column b over the common potential L = lcm(den_b,
    q den_a); a scaling letter l -> l multiplies column l by p and its
    potential by q.  Zero diagonal letters and unit scalings change
    nothing and are skipped.  Each column also keeps the row range
    outside which it is zero, and an update touches only the union of
    the two ranges.
    """

    __slots__ = ("cols", "den", "_lo", "_hi")

    def __init__(self, n: int):
        self.cols = [[int(i == l) for i in range(n)] for l in range(n)]
        self.den = [1] * n
        self._lo = list(range(n))
        self._hi = list(range(1, n + 1))

    def apply(self, letters: Iterable[tuple[int, int, Fraction]]) -> "_Sweep":
        cols, den, lo, hi = self.cols, self.den, self._lo, self._hi
        for a, b, w in letters:
            a -= 1
            b -= 1
            col = cols[b]
            if a == b:
                if w == 1:
                    continue
                i, j = lo[b], hi[b]
                p = w.numerator
                col[i:j] = [x * p for x in col[i:j]]
                d = den[b] * w.denominator
            elif w:
                da, d = den[a] * w.denominator, den[b]
                lcm = math.lcm(d, da)
                r = w.numerator * (lcm // da)
                i, j = min(lo[a], lo[b]), max(hi[a], hi[b])
                src = cols[a][i:j]
                if lcm == d:
                    col[i:j] = [x + r * y for x, y in zip(col[i:j], src)]
                else:
                    s = lcm // d
                    col[i:j] = [x * s + r * y for x, y in zip(col[i:j], src)]
                    d = lcm
                lo[b], hi[b] = i, j
            else:
                continue
            if d > 1:
                g = math.gcd(d, *col[i:j])
                if g > 1:
                    col[i:j] = [x // g for x in col[i:j]]
                    d //= g
            den[b] = d
        return self


def build_three_section(weights: SectionWeights) -> PlanarNetwork:
    """Realize the weight table as a planar network: the slot word
    (_slot_word) placed as edges.

    Columns run 0..2n-1 and levels 1..n.  Edge slot c joins vertex columns
    c and c+1: slots 0..n-2 form the left section, slot n-1 is the middle
    and slots n..2n-2 the right section.  A letter a -> b of slot c is the
    edge (c, a) -> (c+1, b) with the letter's weight, so the middle
    slot's letters are its horizontals; every other slot also gets a
    weight-one horizontal at each level (degree-two pass-through vertices
    do not affect path weights or vertex-disjointness).  Zero-weight
    letters stay as edges.  Sources sit at column 0, sinks at column
    2n-1, both ordered by level.
    """
    n = weights.n
    last = 2 * n - 1
    one = Fraction(1)
    levels = range(1, n + 1)
    vertices = [(c, lvl) for c in range(last + 1) for lvl in levels]
    edges = []
    for c, letters in enumerate(_slot_word(weights)):
        if c != n - 1:
            edges += [((c, lvl), (c + 1, lvl), one) for lvl in levels]
        edges += [((c, a), (c + 1, b), w) for a, b, w in letters]
    sources = [(0, lvl) for lvl in levels]
    sinks = [(last, lvl) for lvl in levels]
    return PlanarNetwork(vertices, edges, sources, sinks)


def _entry(i: int, j: int, t: int) -> int:
    """closed_form_entry's formula for m = 2t, with no checks."""
    if i <= t:
        return binomial(t + i - 1, j - 1)
    return binomial(2 * t - i, j - i)


def _binomial_block(m: int) -> list[list[int]]:
    """The binomial block as integer rows, rows[i - 1][j - 1] =
    closed_form_entry(i, j, m), with m checked once: the one builder that
    closed_form_matrix, lemma_path_report and families read."""
    t = _even_half(m)
    span = range(1, m + 1)
    return [[_entry(i, j, t) for j in span] for i in span]


def closed_form_entry(i: int, j: int, m: int) -> int:
    """Weight-matrix entry (i, j) of the standard network in closed form:
    binomial(t + i - 1, j - 1) for i <= t, binomial(2t - i, j - i) above."""
    t = _even_half(m)
    if not (1 <= i <= m and 1 <= j <= m):
        raise ValueError("indices must lie in 1..m")
    return _entry(i, j, t)


def closed_form_matrix(m: int) -> ExactMatrix:
    """The m x m binomial block matrix [[B1, B2], [0, B3]], the weight
    matrix of the standard network and the middle factor of the family's
    sign factorization (see families).

    B1[i][j] = C(t+i-1, j-1), B2[i][j] = C(t+i-1, t+j-1) and
    B3[i][j] = C(t-i, j-i), each t x t: entry (i, j) of the whole is
    closed_form_entry(i, j, m).
    """
    return ExactMatrix.from_rows(_binomial_block(m))


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

    Each table of sums is one integer sweep (_Sweep) over the standard
    slot word filtered to the letters a path of that kind may take: all
    of them, no descending letters, or no ascending letters.  The path
    count is the sweep of the word with every nonzero weight set to one.
    Zero-weight letters are left out of the count: they change no sum.
    """
    word = list(chain.from_iterable(_slot_word(standard_weights(m))))  # validates m
    t = m // 2
    block = _binomial_block(m)
    one = Fraction(1)

    def sums(letters) -> list[list[Fraction]]:
        """The product of the letters' factors, entry [i - 1][j - 1]."""
        sweep = _Sweep(m).apply(letters)
        return [
            [Fraction(col[i], d) for col, d in zip(sweep.cols, sweep.den)]
            for i in range(m)
        ]

    totals = sums(word)
    ascent_only = sums(x for x in word if x[1] >= x[0])
    descent_only = sums(x for x in word if x[1] <= x[0])
    counts = _Sweep(m).apply((a, b, one if w else w) for a, b, w in word).cols
    checks = []
    mismatches = []
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            all_w = totals[i - 1][j - 1]
            up_w = ascent_only[i - 1][j - 1]
            down_w = descent_only[i - 1][j - 1]
            total_exp = Fraction(block[i - 1][j - 1])
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
        enumerated_paths=sum(map(sum, counts)),
    )
