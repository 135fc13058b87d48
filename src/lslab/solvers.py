"""Local-search solvers under query accounting.

Three algorithms: plain steepest descent, sample-then-descend (random
sampling for the starting point, optionally charged at the quantum
minimum-finding rate), and a divide-and-conquer search for two-dimensional
grids that shrinks a working region geometrically, testing candidate
boundary spheres with a Grover-rate existence check before committing.

Quantum subroutines run as classically exact stand-ins whose cost is charged
by formula: minimum finding over S values charges ceil(sqrt(S)) *
ceil(log2(1/eps)) and an existence test over W charges ceil(sqrt(|W|)) *
ceil(log2(1/eps)) (big-O constants pinned at 1 so cross-run comparisons are
bit-stable).  Handed an rng, a stand-in errs at its nominal rate; without
one it never errs and draws nothing.  grid2d's ``faithful`` mode hands them
its rng, and its ``exact`` mode leaves only the sampling randomness.

All logarithms are base 2 and ceilings sit exactly where the cost formulas
put them.  Ties anywhere break toward the lowest snake rank so replays are
deterministic.  A solver run is single-threaded and owns its oracle and
ledger; independent runs with distinct oracles may execute in parallel.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, islice, repeat
from operator import sub

from .errors import BudgetExceeded
from .grid import Vertex, _neighbors, _snake_rank, l1_distance, snake_unrank
from .instances import DEFAULT_TRAJECTORY_LIMIT
from .oracles import QueryLedger, ValueOracle


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solver run.

    ``is_local_min`` is established by an uncharged post-hoc scan of the
    found vertex's neighborhood, never assumed; a success outcome always
    carries a verified local minimum.  ``trace`` holds grid2d_quantum's
    RoundRecords, one per round run; the other solvers leave it None.
    """

    found: Vertex
    outcome: str  # "success" | "fail"
    is_local_min: bool
    rounds: int
    classical_queries: int
    charged_quantum_queries: int
    phase_breakdown: dict
    trace: tuple | None = None


def verify_local_min(oracle: ValueOracle, v: Vertex) -> bool:
    """Uncharged exhaustive neighbor check of local minimality."""
    fv = oracle.peek(v)  # validates v, so its neighbors need no check
    return all(oracle.peek(w) >= fv for w in _neighbors(oracle.shape.k, v))


def _result(
    oracle: ValueOracle, found: Vertex, rounds: int, outcome: str = "success", trace=None
) -> SolveResult:
    """The run's result: the ledger's totals and phases, and whether
    ``found`` is verified a local minimum."""
    ledger = oracle.ledger
    return SolveResult(
        found=found,
        outcome=outcome,
        is_local_min=verify_local_min(oracle, found),
        rounds=rounds,
        classical_queries=ledger.classical_queries,
        charged_quantum_queries=ledger.charged_quantum_queries,
        phase_breakdown=ledger.breakdown(),
        trace=trace,
    )


class _Memo:
    """Charged value reads with caching: each vertex costs one query ever."""

    def __init__(self, oracle: ValueOracle) -> None:
        self.oracle = oracle
        self.values: dict[Vertex, int] = {}

    def __call__(self, v: Vertex) -> int:
        hit = self.values.get(v)
        if hit is None:
            hit = self.values[v] = self.oracle.query(v)
        return hit


def _descend(val: _Memo, start: Vertex):
    """Follow the decreasing path: repeatedly move to the minimum-value
    neighbor while it improves strictly.  Returns (local minimum, moves)."""
    k = val.oracle.shape.k
    v = start
    fv = val(v)  # the charged query validates start
    moves = 0
    while True:
        nbrs = _neighbors(k, v)  # grids have side >= 2, so never empty
        vals = [val(w) for w in nbrs]
        best = min(vals)
        if best >= fv:
            return v, moves
        # snake ranks only break ties, so only the tied neighbors need one
        ties = [w for w, x in zip(nbrs, vals) if x == best]
        v = min(ties, key=lambda w: _snake_rank(k, w)) if len(ties) > 1 else ties[0]
        fv = best
        moves += 1


def steepest_descent(oracle: ValueOracle, start: Vertex) -> SolveResult:
    """Generic descent from ``start``; every probe is a classical query."""
    oracle.shape.require(start)
    with oracle.ledger.phase("descent"):
        found, moves = _descend(_Memo(oracle), start)
    return _result(oracle, found, moves)


def _check_eps(eps: float) -> None:
    # the charge's ceil(log2(1/eps)) is undefined at eps <= 0 and 0 at eps >= 1
    if not 0 < eps < 1:
        raise ValueError(f"error budget must lie strictly between 0 and 1, got eps={eps}")


def _charge(ledger: QueryLedger, size: int, eps: float) -> None:
    """Record the search charge ceil(sqrt(size)) * ceil(log2(1/eps))."""
    ledger.record_quantum(math.ceil(math.sqrt(size)) * math.ceil(math.log2(1 / eps)))


def durr_hoyer_min(
    values,
    eps: float,
    ledger: QueryLedger,
    rng: random.Random | None = None,
) -> int:
    """Index of the minimum of the sequence ``values`` at the quantum-search
    charge rate; the sequence is read in place, not copied.

    Classically exact (ties break to the lowest index); charges
    ceil(sqrt(S)) * ceil(log2(1/eps)) quantum queries for S values.  Handed
    an ``rng``, the call instead returns a uniformly random non-minimal
    index with probability eps (when a non-minimal index exists): the j-th
    one, j drawn as ``rng.choice`` draws from a list of them.
    """
    _check_eps(eps)
    if not values:
        raise ValueError("minimum of an empty sequence")
    _charge(ledger, len(values), eps)
    low = min(values)
    best = values.index(low)
    if rng is not None and rng.random() < eps:
        losers = len(values) - values.count(low)
        if losers:
            j = rng.choice(range(losers))
            return next(islice((i for i, x in enumerate(values) if x != low), j, None))
    return best


def grover_exists(
    items,
    predicate,
    eps: float,
    ledger: QueryLedger,
    rng: random.Random | None = None,
) -> bool:
    """Whether any item satisfies the predicate, at the Grover charge rate.

    Classically exact; charges ceil(sqrt(|W|)) * ceil(log2(1/eps)) quantum
    queries, nothing for an empty collection (the vacuous answer is False).
    Handed an ``rng``, the answer is flipped with probability eps.
    """
    _check_eps(eps)
    items = list(items)
    if not items:
        return False
    _charge(ledger, len(items), eps)
    answer = any(predicate(w) for w in items)
    return not answer if rng is not None and rng.random() < eps else answer


def sample_then_descend(
    oracle: ValueOracle,
    samples: int,
    seed: int,
    charging: str = "classical",
) -> SolveResult:
    """Sample vertices uniformly with replacement, descend from the best.

    Classical charging queries each sampled value; quantum charging reads
    the samples uncharged and applies the minimum-finding charge formula at
    the fixed error budget eps = 1/4.
    """
    shape = oracle.shape
    n_vertices = shape.vertex_count
    if not 1 <= samples <= n_vertices:
        raise ValueError(f"sample count must lie in 1..{n_vertices}")
    if samples > DEFAULT_TRAJECTORY_LIMIT:  # a run holds a rank and a value per sample
        raise BudgetExceeded(f"sample count exceeds the limit {DEFAULT_TRAJECTORY_LIMIT}")
    if charging not in ("classical", "quantum"):
        raise ValueError(f"unknown charging {charging!r}")
    rng = random.Random(seed)
    # one rank per draw; each vertex is built only to be read, and the
    # winner is built again from its rank
    ranks = [rng.randrange(n_vertices) + 1 for _ in range(samples)]
    memo = _Memo(oracle)
    read = memo if charging == "classical" else oracle.peek
    with oracle.ledger.phase("sample"):
        values = [read(snake_unrank(shape, rank)) for rank in ranks]
        if charging == "classical":
            best = values.index(min(values))
        else:
            best = durr_hoyer_min(values, 0.25, oracle.ledger)
    start = snake_unrank(shape, ranks[best])
    memo.values[start] = values[best]
    with oracle.ledger.phase("descent"):
        found, moves = _descend(memo, start)
    return _result(oracle, found, moves)


# ---------------------------------------------------------------------------
# planar divide-and-conquer search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionState:
    """A working region of [n]^2: the grid intersected with a conjunction of
    closed l1 balls, one added per completed round.

    In rotated coordinates (u, w) = (x+y, x-y) each ball is an axis-aligned
    square, so the conjunction is a rectangle and exact counting, uniform
    sampling, and sphere filtering are all O(n) or better.
    """

    n: int
    constraints: tuple[tuple[Vertex, int], ...] = ()

    def with_ball(self, center: Vertex, radius: int) -> "RegionState":
        return RegionState(self.n, self.constraints + ((center, radius),))

    def contains(self, v: Vertex) -> bool:
        if not (1 <= v[0] <= self.n and 1 <= v[1] <= self.n):
            return False
        return all(l1_distance(v, c) <= r for c, r in self.constraints)

    @cached_property
    def _uw_rect(self) -> tuple[int, int, int, int]:
        ulo, uhi = 2, 2 * self.n
        wlo, whi = 1 - self.n, self.n - 1
        for (cx, cy), r in self.constraints:
            cu, cw = cx + cy, cx - cy
            ulo, uhi = max(ulo, cu - r), min(uhi, cu + r)
            wlo, whi = max(wlo, cw - r), min(whi, cw + r)
        return ulo, uhi, wlo, whi

    def _diagonals(self) -> list[tuple[int, int, int]]:
        """(u, lo, end) for each nonempty diagonal x + y = u, by increasing u:
        its region vertices are (x, u - x) for x in range(lo, end)."""
        n = self.n
        ulo, uhi, wlo, whi = self._uw_rect
        out = []
        for u in range(ulo, uhi + 1):
            # x lies in 1..n, in u - n..u - 1 (so that y does) and, as
            # w = 2x - u, in ceil((u + wlo) / 2)..floor((u + whi) / 2)
            lo = (u + wlo + 1) >> 1
            if lo < 1:
                lo = 1
            if lo < u - n:
                lo = u - n
            end = ((u + whi) >> 1) + 1
            if end > n:
                end = n + 1
            if end > u:
                end = u
            if lo < end:
                out.append((u, lo, end))
        return out

    def sampler(self, rng: random.Random):
        """Exact uniform sampling via per-diagonal cumulative counts: returns
        (draw, total), where total is the region's vertex count; ValueError
        for an empty region.

        A batch ``draw(count, read)`` reads the ``randrange`` stream: each
        target t is ``rng.randrange(total)`` by its ``getrandbits`` rejection
        rule, and the vertex drawn is ``vertices()[t]``.  Targets are drawn
        in batches of exactly the number still missing, keeping those below
        total, so the targets and the rng state after them (which faithful
        mode draws on) are those of ``count`` randrange calls.  Each vertex
        goes to ``read`` and only t is kept, so a batch holds per sample its
        target and its value.  It returns (values, vertex), where
        ``vertex(i)`` rebuilds the i-th vertex drawn.
        """
        diagonals = self._diagonals()
        if not diagonals:
            raise ValueError("empty region")
        us, los, ends = zip(*diagonals)
        cums = list(accumulate(map(sub, ends, los)))
        total = cums[-1]
        # target t on diagonal i lies at (t + xs[i], ys[i] - t)
        xs = list(map(sub, los, [0] + cums[:-1]))
        ys = list(map(sub, us, xs))
        getrandbits, bits = rng.getrandbits, total.bit_length()
        # bucket j holds targets j << shift .. ((j + 1) << shift) - 1, the
        # first of them on diagonal guide[j]; a bucket is at most a diagonal's
        # mean size, so a target's diagonal is on average under one step on
        shift = max((total // len(cums)).bit_length() - 1, 0)
        guide = list(map(partial(bisect_right, cums), range(0, total, 1 << shift)))

        def draw(count: int, read):
            targets: list[int] = []
            while len(targets) < count:
                batch = map(getrandbits, repeat(bits, count - len(targets)))
                targets += [t for t in batch if t < total]
            values = []
            append = values.append
            for t in targets:
                d = guide[t >> shift]
                while cums[d] <= t:
                    d += 1
                append(read((t + xs[d], ys[d] - t)))

            def vertex(i: int) -> Vertex:
                t = targets[i]
                d = guide[t >> shift]
                while cums[d] <= t:
                    d += 1
                return t + xs[d], ys[d] - t

            return values, vertex

        return draw, total

    def sphere(self, center: Vertex, radius: int) -> list[Vertex]:
        """Region vertices at exact l1 distance ``radius`` from center, by
        increasing x, and for each x the larger y first."""
        if radius < 0:
            raise ValueError("negative radius")
        n = self.n
        ulo, uhi, wlo, whi = self._uw_rect
        cx, cy = center
        out = []
        for x in range(max(cx - radius, 1), min(cx + radius, n) + 1):
            rem = radius - abs(x - cx)
            for y in (cy + rem, cy - rem) if rem else (cy,):
                if 1 <= y <= n and ulo <= x + y <= uhi and wlo <= x - y <= whi:
                    out.append((x, y))
        return out

    def vertices(self) -> list[Vertex]:
        """Direct enumeration; for tests and small regions only."""
        return [(x, u - x) for u, lo, end in self._diagonals() for x in range(lo, end)]

    def boundary(self) -> set[Vertex]:
        """Region vertices adjacent to a grid vertex outside the region."""
        return {
            v for v in self.vertices()
            if not all(self.contains(w) for w in _neighbors(self.n, v))
        }


@dataclass(frozen=True)
class RoundRecord:
    index: int
    region_size: int
    sample_size: int
    anchor: Vertex
    anchor_value: int
    chosen_radius: int | None
    tries_used: int
    region: RegionState


def grid2d_quantum(oracle: ValueOracle, seed: int, mode: str = "exact") -> SolveResult:
    """Divide-and-conquer local search on [n]^2 with charged quantum phases.

    Rounds run while the working radius exceeds sqrt(n), and are capped at
    floor(log2 n) so the round bound holds deterministically (the nominal
    3/4 shrink alone does not force it); a capped exit only lengthens the
    final classical descent, never the answer's correctness.  Per round:
    sample ceil((4|U|/m) log2(1/eps1)) vertices from the region, keeping per
    sample only its target and its value (the winner's vertex is rebuilt
    from its target), take their minimum at the quantum-minimum charge
    (error eps2), keep the better of the old and new anchors, then try up
    to ceil(log2(1/eps3)) radii drawn from [floor(m/4), ceil(3m/4)],
    accepting the first whose region sphere contains nothing below the
    anchor (an existence test at the Grover charge, error eps4).  Exhausting
    the tries reports failure; otherwise the region shrinks to the accepted
    ball and, after the loop, a classical descent from the anchor finishes
    the job.

    The error budgets are fixed: eps = 1/(2 log2 n), eps1 = eps2 = eps3 =
    eps/4 and eps4 = eps/(4 log2(4/eps)).  A side whose first round would
    sample more than DEFAULT_TRAJECTORY_LIMIT vertices (n above about 74000)
    is refused with BudgetExceeded before any round.
    """
    shape = oracle.shape
    if shape.l != 2:
        raise ValueError("grid2d_quantum runs on two-dimensional grids")
    n = shape.k
    if mode not in ("exact", "faithful"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    errs = rng if mode == "faithful" else None  # the stand-ins' error draws
    ledger = oracle.ledger

    eps = 1 / (2 * math.log2(n))  # GridShape guarantees n >= 2
    eps1 = eps2 = eps3 = eps / 4
    eps4 = eps / (4 * math.log2(4 / eps))
    # the first round samples ceil(4n log2(1/eps1)) vertices of the whole
    # grid, counted in integers: a side may pass any float
    num, den = math.log2(1 / eps1).as_integer_ratio()
    if -(-4 * n * num // den) > DEFAULT_TRAJECTORY_LIMIT:
        raise BudgetExceeded(
            f"first-round sample count exceeds the limit {DEFAULT_TRAJECTORY_LIMIT}"
        )

    region = RegionState(n=n)
    radius = n
    anchor: Vertex | None = None
    anchor_value: int | None = None
    tries_budget = math.ceil(math.log2(1 / eps3))
    round_cap = math.floor(math.log2(n))
    rounds = 0
    records: list[RoundRecord] = []

    peek = oracle._peek  # region draws and sphere vertices lie in the grid
    while radius > math.sqrt(n) and rounds < round_cap:
        draw, region_size = region.sampler(rng)
        sample_size = math.ceil(4 * region_size / radius * math.log2(1 / eps1))
        with ledger.phase("sample-min"):
            values, vertex = draw(sample_size, peek)
            best = durr_hoyer_min(values, eps2, ledger, rng=errs)
        candidate, candidate_value = vertex(best), values[best]
        # the sample is spent: release it before the next round draws its own
        del values, vertex
        if anchor is None or not anchor_value < candidate_value:
            anchor, anchor_value = candidate, candidate_value
        chosen = None
        with ledger.phase("sphere-test"):
            for tries in range(1, tries_budget + 1):  # eps3 <= 1/8, so at least 3 tries
                m_new = rng.randint(radius // 4, math.ceil(3 * radius / 4))
                sphere = region.sphere(anchor, m_new)
                below = grover_exists(
                    sphere,
                    lambda w: peek(w) < anchor_value,
                    eps4,
                    ledger,
                    rng=errs,
                )
                if not below:
                    chosen = m_new
                    break
        records.append(
            RoundRecord(
                index=rounds,
                region_size=region_size,
                sample_size=sample_size,
                anchor=anchor,
                anchor_value=anchor_value,
                chosen_radius=chosen,
                tries_used=tries,
                region=region,
            )
        )
        if chosen is None:
            break
        region = region.with_ball(anchor, chosen)
        radius = chosen
        rounds += 1

    # grids have side >= 2, so n > sqrt(n) and the loop ran at least once;
    # it ends with chosen None exactly when a round ran out of tries
    assert anchor is not None and anchor_value is not None

    if chosen is None:
        return _result(oracle, anchor, rounds, "fail", tuple(records))
    with ledger.phase("descent"):
        found, _ = _descend(_Memo(oracle), anchor)
    return _result(oracle, found, rounds, trace=tuple(records))
