"""Exact-rational combinatorics for clocked random walks.

Two families of distributions, each computed along independent routes so the
routes can be checked against each other exactly:

* balls into bins: the probability that t uniformly random ball placements
  into m bins leave prescribed occupancy parities.  Routes: an exhaustive
  layer-by-layer tally of all m^t placement sequences, a closed form via a
  signed binomial sum, and a two-step recursion on the all-even case.

* the short walk: the +/-1 walk on a line of n points whose barrier ends
  absorb blocked moves (the particle stands still).  Routes: an exact
  dynamic-programming table and a direct enumeration of all 2^t move strings.

All probabilities are fractions.Fraction; floating point never enters.  The
line-walk table keeps integer path counts with denominator 2^t so no gcd
normalization happens in the inner loop.  Pure functions throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

from .errors import BudgetExceeded

#: Hard cap on m^t / 2^t for the raw enumeration helpers, and on the 2^m
#: parity tally and the n^2 (t_max + 1) line-walk table.
DEFAULT_ENUM_LIMIT = 1 << 22


# ---------------------------------------------------------------------------
# balls into bins: occupancy parities
# ---------------------------------------------------------------------------


def _parity_counts(m: int, t: int, excluded_first_bin: int | None) -> tuple[list[int], int]:
    """Exact count of placement sequences per parity mask, and the number of
    sequences.

    Walks the full sequence space layer by layer: entry `mask` after s steps
    holds the number of length-s sequences whose occupancy parities equal the
    bits of `mask` (bit i = bin i).  Aggregation only; no combinatorial
    identities, so this stays an independent oracle for the closed forms.
    """
    if m < 1:
        raise ValueError("need at least one bin")
    if t < 0:
        raise ValueError("negative step count")
    if excluded_first_bin is not None:
        if not 0 <= excluded_first_bin < m:
            raise ValueError(f"excluded bin {excluded_first_bin} out of range")
        if m == 1:
            raise ValueError("cannot exclude the only bin")
        if t == 0:
            raise ValueError("conditional placement needs at least one ball")
    if m >= DEFAULT_ENUM_LIMIT.bit_length():  # 2^m > DEFAULT_ENUM_LIMIT
        raise BudgetExceeded(f"2^{m} parity masks exceed table limit {DEFAULT_ENUM_LIMIT}")
    counts = [0] * (1 << m)
    counts[0] = 1
    first_choices = range(m)
    for s in range(t):
        if s == 0 and excluded_first_bin is not None:
            choices = [i for i in first_choices if i != excluded_first_bin]
        else:
            choices = first_choices
        nxt = [0] * (1 << m)
        for mask, c in enumerate(counts):
            if c:
                for i in choices:
                    nxt[mask ^ (1 << i)] += c
        counts = nxt
    if excluded_first_bin is None:
        return counts, m**t
    return counts, (m - 1) * m ** (t - 1)


def parity_prob_bruteforce(
    m: int,
    t: int,
    bits: tuple[int, ...],
    excluded_first_bin: int | None = None,
) -> Fraction:
    """Probability that bin i ends with occupancy parity bits[i] for all i.

    With `excluded_first_bin` set, conditions on the first ball avoiding that
    bin (denominator (m-1)*m^(t-1) instead of m^t).
    """
    if len(bits) != m or any(b not in (0, 1) for b in bits):
        raise ValueError("parity vector must be m bits of 0/1")
    counts, denom = _parity_counts(m, t, excluded_first_bin)
    mask = sum(1 << i for i, b in enumerate(bits) if b)
    return Fraction(counts[mask], denom)


def parity_prob_table(
    m: int, t: int, excluded_first_bin: int | None = None
) -> dict[tuple[int, ...], Fraction]:
    """All 2^m parity probabilities at once, by the same exhaustive tally."""
    counts, denom = _parity_counts(m, t, excluded_first_bin)
    out = {}
    for mask, c in enumerate(counts):
        bits = tuple((mask >> i) & 1 for i in range(m))
        out[bits] = Fraction(c, denom)
    return out


def parity_prob_enumerated(m: int, t: int, bits: tuple[int, ...]) -> Fraction:
    """Rawest possible check: literally iterate the m^t placement sequences."""
    if m**t > DEFAULT_ENUM_LIMIT:
        raise BudgetExceeded(f"m^t = {m**t} exceeds enumeration limit {DEFAULT_ENUM_LIMIT}")
    hits = 0
    for seq in product(range(m), repeat=t):
        occ = [0] * m
        for i in seq:
            occ[i] ^= 1
        if tuple(occ) == bits:
            hits += 1
    return Fraction(hits, m**t)


def parity_prob_closed_form(m: int, t: int) -> Fraction:
    """All-even parity probability for even t, as the signed binomial sum

        (1/2^m) * sum_i C(m, i) * (1 - 2i/m)^t.
    """
    if t % 2 != 0:
        raise ValueError("closed form applies to even step counts only")
    if t < 0:
        raise ValueError("negative step count")
    total = sum(comb(m, i) * Fraction(m - 2 * i, m) ** t for i in range(m + 1))
    return total / (1 << m)


def parity_prob_recursion(m: int, t: int) -> Fraction:
    """All-even parity probability for even t >= 2, by the two-step recursion

        p_m(t) = p_m(t-2) - ((m-1)/m) * ((m-2)/m)^(t-2) * p_{m-2}(t-2)

    with base p_m(2) = 1/m.  At m = 2 the (m-2)/m factor is zero and
    annihilates the otherwise-undefined p_0 term, which is treated as 0.
    """
    if t % 2 != 0:
        raise ValueError("recursion applies to even step counts only")
    if t < 2:
        raise ValueError("recursion needs t >= 2")

    def p(mm: int, tt: int) -> Fraction:
        if mm == 0:
            return Fraction(0)  # only reached multiplied by a zero factor
        if mm == 1:
            return Fraction(1) if tt % 2 == 0 else Fraction(0)
        if tt == 0:
            return Fraction(1)
        if tt == 2:
            return Fraction(1, mm)
        return p(mm, tt - 2) - Fraction(mm - 1, mm) * Fraction(mm - 2, mm) ** (
            tt - 2
        ) * p(mm - 2, tt - 2)

    return p(m, t)


def odd_step_reduction_holds(m: int, t: int) -> bool:
    """Check the even-to-odd reduction at the odd step count t:

        p^(t+1)[all even] == p^(t)[exactly bin 1 odd]

    Both sides computed by the exhaustive tally; exact equality.
    """
    if t % 2 == 0:
        raise ValueError("reduction check takes the odd step count")
    lhs = parity_prob_bruteforce(m, t + 1, (0,) * m)
    rhs = parity_prob_bruteforce(m, t, (1,) + (0,) * (m - 1))
    return lhs == rhs


def conditional_parity_max(m: int, t: int, excluded_first_bin: int) -> Fraction:
    """max over parity vectors of the conditioned probability."""
    return max(parity_prob_table(m, t, excluded_first_bin).values())


# ---------------------------------------------------------------------------
# short walk: +/-1 line walk with standing-still barrier ends
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineWalkTable:
    """Exact distribution table for the short walk on points 1..n.

    counts[t][i-1][j-1] is the number of the 2^t move strings that take the
    particle from i to j in exactly t steps; the probability is that count
    over 2^t.  Row sums are exactly 2^t (each row is a distribution) and the
    transition structure is doubly stochastic, so the uniform distribution is
    stationary.
    """

    n: int
    t_max: int
    counts: tuple[tuple[tuple[int, ...], ...], ...]

    def count(self, t: int, i: int, j: int) -> int:
        return self.counts[t][i - 1][j - 1]

    def prob(self, t: int, i: int, j: int) -> Fraction:
        """p_ij(t): start at i, end at j after exactly t steps."""
        if not 0 <= t <= self.t_max:
            raise ValueError(f"t={t} outside table range 0..{self.t_max}")
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError("line point out of range")
        return Fraction(self.counts[t][i - 1][j - 1], 1 << t)


def _line_step(row: list[int]) -> list[int]:
    """One more step of the short walk, applied to one row of path counts.

    A blocked move at either end stands still, so the end points keep their
    own mass as well as their neighbour's."""
    return [row[0] + row[1], *map(int.__add__, row, row[2:]), row[-2] + row[-1]]


def line_walk_table(n: int, t_max: int) -> LineWalkTable:
    """Dynamic-programming table of short-walk distributions up to t_max."""
    if n < 2:
        raise ValueError("the short walk needs at least two points")
    if t_max < 0:
        raise ValueError("negative horizon")
    if n * n * (t_max + 1) > DEFAULT_ENUM_LIMIT:
        raise BudgetExceeded(
            f"n^2 (t_max + 1) = {n * n * (t_max + 1)} exceeds table limit {DEFAULT_ENUM_LIMIT}"
        )
    layer = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    layers = [tuple(map(tuple, layer))]
    for _ in range(t_max):
        layer = [_line_step(row) for row in layer]
        layers.append(tuple(map(tuple, layer)))
    return LineWalkTable(n=n, t_max=t_max, counts=tuple(layers))


def line_walk_max_counts(n: int, t_max: int) -> list[int]:
    """max_ij of the t-step path counts, for t = 0..t_max, from one vector.

    The short walk on 1..n is the +/-1 walk on the cycle Z_2n folded by
    x -> x for x in 1..n and x -> 2n+1-x for x in n+1..2n: a step down from
    1 reaches 0 = 2n, which folds back to 1, and a step up from n reaches
    n+1, which folds back to n, so the folded walk stands still at the ends
    exactly when the short walk does.  Reading a cycle move made from the
    folded half n+1..2n with its sign flipped maps the 2^t cycle move
    strings one to one onto the short walk's, with equal endpoints.  With
    g_t(d) the number of t-step cycle walks of displacement d mod 2n,

        C^t_ij = g_t(j - i) + g_t(2n + 1 - i - j).

    The two displacements differ by the odd 2n + 1 - 2j, and g_t(d) is zero
    unless d = t mod 2 (2n is even, so every step flips the parity of d mod
    2n); at most one term is nonzero.  As i, j range over 1..n, j - i takes
    every residue but n and 2n + 1 - i - j every residue but 0, so every d
    is the nonzero term of some pair and max_ij C^t_ij = max_d g_t(d).
    g_t(d) = g_t(-d), so the vector is kept for the d in 0..n of t's parity
    only, and a step is g_{t+1}(d) = g_t(d - 1) + g_t(d + 1), reflected at
    d = 0 and d = n: the pairwise sums of neighbouring entries, with
    2 g_t(1) in front when t is odd and 2 g_t(n - 1) behind when n - t is
    odd.  The probability envelope at time t is the returned count over 2^t.

    The maximum is the vector's first entry, g_t(0) for even t and g_t(1)
    for odd t.  For even t, g_t is symmetric and nonincreasing in circular
    distance on the even residues: true at t = 0, and kept by the two-step
    kernel (1, 2, 1), since g_{t+2}(d) - g_{t+2}(d + 2) is
    [g_t(d - 2) - g_t(d + 4)] + [g_t(d) - g_t(d + 2)], which is
    nonnegative for 0 <= d <= n - 2: the second term is, and so is the
    first, as d - 2 is no farther from 0 than d + 4 round the cycle, except
    at n = 2, where the two terms cancel.  For odd t, g_t(d) =
    g_{t-1}(d - 1) + g_{t-1}(d + 1) is at most g_{t-1}(0) + g_{t-1}(2) =
    g_t(1).
    """
    if n < 2:
        raise ValueError("the short walk needs at least two points")
    g = [1] + [0] * (n // 2)  # g_0(d) for d = 0, 2, 4, ... <= n
    maxima = [1]
    for t in range(t_max):
        head = [2 * g[0]] if t % 2 else []
        tail = [2 * g[-1]] if (n - t) % 2 else []
        g = [*head, *map(int.__add__, g, g[1:]), *tail]
        maxima.append(g[0])
    return maxima


def line_walk_bruteforce(n: int, t: int, i: int, j: int) -> Fraction:
    """Enumerate all 2^t move strings and count the ones taking i to j."""
    if not 1 <= j <= n:
        raise ValueError("line point out of range")
    return Fraction(line_walk_endpoint_counts(n, t, i)[j], 1 << t)


def line_walk_endpoint_counts(n: int, t: int, i: int) -> list[int]:
    """Endpoint tallies of all 2^t move strings from i (one enumeration pass).

    The strings are extended one move at a time: a byte string holds one
    endpoint per string, as an offset from max(1, i - t), and each move
    splits it into the strings ending with a step down and those ending with
    a step up (one ``bytes.translate`` each).  Every string is still walked,
    so this stays independent of the table's recurrence.  Endpoints stay
    within t of i, so the offsets span at most 2t + 1 <= 45 values at the
    enumeration limit and fit a byte for any n."""
    if n < 2:
        raise ValueError("the short walk needs at least two points")
    if not 1 <= i <= n:
        raise ValueError("line point out of range")
    if t < 0:
        raise ValueError("negative step count")
    if (1 << t) > DEFAULT_ENUM_LIMIT:
        raise BudgetExceeded(f"2^t = {1 << t} exceeds enumeration limit {DEFAULT_ENUM_LIMIT}")
    lo, hi = max(1, i - t), min(n, i + t)
    window = range(lo, hi + 1)
    # move tables over the window's offsets, clamped to the window: at 1 and
    # n that is the walk's own stay-put rule, and any other edge lies t from
    # i, where only the last move arrives; bytes past the window are never read
    down = bytes(max(p - 1, lo) - lo for p in window).ljust(256, b"\0")
    up = bytes(min(p + 1, hi) - lo for p in window).ljust(256, b"\0")
    ends = bytes([i - lo])
    for _ in range(t):
        ends = ends.translate(down) + ends.translate(up)
    counts = [0] * (n + 1)
    for p in window:
        counts[p] = ends.count(p - lo)
    return counts


def round_robin_step_counts(m: int, t: int, first_dim: int) -> list[int]:
    """Per-dimension step counts of a t-step round robin starting at first_dim.

    Step s (1-based) goes to dimension (first_dim + s - 1) mod m, so dimension
    j receives ceil((t - ((j - first_dim) mod m)) / m) steps.  Example: m=3,
    t=4, first_dim=1 gives dimensions 1,2,0,1 and counts [1, 2, 1].
    """
    if m < 1:
        raise ValueError("need at least one dimension")
    if not 0 <= first_dim < m:
        raise ValueError("first dimension out of range")
    if t < 0:
        raise ValueError("negative step count")
    return [max(0, -(-(t - ((j - first_dim) % m)) // m)) for j in range(m)]


def composite_walk_prob(
    m: int,
    n: int,
    t: int,
    first_dim: int,
    z1: tuple[int, ...],
    z2: tuple[int, ...],
) -> Fraction:
    """Probability that the round-robin product walk moves z1 to z2 in t steps.

    One short-walk step per time tick, cycling through the m dimensions
    starting at first_dim.  Coordinates evolve independently under the fixed
    schedule, so the probability is the product of per-dimension short-walk
    probabilities at that dimension's step count.
    """
    if len(z1) != m or len(z2) != m:
        raise ValueError("walk points must have m coordinates")
    for z in (z1, z2):
        if any(not 1 <= c <= n for c in z):
            raise ValueError("walk point out of range")
    steps = round_robin_step_counts(m, t, first_dim)
    table = line_walk_table(n, max(steps) if steps else 0)
    result = Fraction(1)
    for j in range(m):
        result *= table.prob(steps[j], z1[j], z2[j])
    return result
