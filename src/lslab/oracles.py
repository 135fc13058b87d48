"""Query-counted oracle access and the membership-to-value reduction.

An oracle plus its ledger is a single-run object: distinct runs use distinct
oracles and may proceed in parallel, but one oracle must not be mutated
concurrently.  Oracles are deterministic: repeated queries on the same vertex
return equal answers.

``peek`` reads a value without touching the ledger.  It exists for two
legitimate purposes only: post-hoc verification of results, and subroutines
whose cost is charged through an explicit quantum-cost formula instead of
per-read counting.

A vertex is validated once, where it enters lslab: the public functions
(``snake_rank``, ``neighbors``, ``instance_value``, ``instance_membership``,
``simulate_value_via_membership``) and each oracle ``query``/``peek`` check it
against the grid and raise ``ValueError`` when it lies outside.  Past that
point lslab calls trusted helpers, which check nothing: ``_snake_rank``,
``_neighbors``, and the family's registered value and membership functions,
which the instance oracles bind once.
``ValueOracle._peek`` is the trusted form of ``peek`` (uncharged, unchecked)
for vertices lslab made itself: grid2d's region draws and sphere vertices,
which lie in the grid by construction.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Callable, Mapping

from .grid import GridShape, Vertex, _snake_rank, l1_distance, snake_unrank
from .instances import BLOCKS, FAMILIES, ClockMeta, WalkInstance, block_on_path_value


class QueryLedger:
    """Monotone per-phase counters of classical and charged quantum queries.

    Phase labels are pushed and popped by solvers so benchmark output can
    attribute cost to sampling, descent, or subroutine charges.  Totals are
    always the sums over phases.
    """

    def __init__(self) -> None:
        self._phases: dict[str, list[int]] = {}
        self._stack: list[str] = ["main"]

    def _bucket(self) -> list[int]:
        return self._phases.setdefault(self._stack[-1], [0, 0])

    def record_classical(self, count: int = 1) -> None:
        if count < 0:
            raise ValueError("ledger counts only grow")
        self._bucket()[0] += count

    def record_quantum(self, count: int) -> None:
        if count < 0:
            raise ValueError("ledger counts only grow")
        self._bucket()[1] += count

    @contextmanager
    def phase(self, label: str):
        self._stack.append(label)
        try:
            yield self
        finally:
            self._stack.pop()

    @property
    def classical_queries(self) -> int:
        return sum(c for c, _ in self._phases.values())

    @property
    def charged_quantum_queries(self) -> int:
        return sum(q for _, q in self._phases.values())

    def breakdown(self) -> dict[str, tuple[int, int]]:
        return {label: (c, q) for label, (c, q) in self._phases.items()}


class ValueOracle:
    """Query-counted access to a function on a grid domain."""

    def __init__(
        self,
        shape: GridShape,
        fn: Callable[[Vertex], int],
        ledger: QueryLedger | None = None,
    ) -> None:
        self.shape = shape
        self._peek = fn  # trusted: lslab-made vertices only, no check, no charge
        self.ledger = ledger if ledger is not None else QueryLedger()

    @classmethod
    def from_table(
        cls, shape: GridShape, table: Mapping[Vertex, int], ledger: QueryLedger | None = None
    ) -> "ValueOracle":
        def fn(v: Vertex) -> int:
            try:
                return table[v]
            except KeyError:
                raise ValueError(f"vertex {v!r} has no table entry") from None

        return cls(shape, fn, ledger)

    @classmethod
    def for_instance(
        cls, inst: WalkInstance, ledger: QueryLedger | None = None
    ) -> "ValueOracle":
        return cls(inst.shape, partial(FAMILIES[inst.family].value, inst), ledger)

    def query(self, v: Vertex) -> int:
        """Evaluate the function at v; one classical query."""
        self.shape.require(v)
        self.ledger.record_classical()
        return self._peek(v)

    def peek(self, v: Vertex) -> int:
        """Uncharged read; see the module docstring for when this is allowed."""
        self.shape.require(v)
        return self._peek(v)


class MembershipOracle:
    """Query-counted yes/no access to a trajectory's point set."""

    def __init__(self, inst: WalkInstance, ledger: QueryLedger | None = None) -> None:
        self.shape = inst.shape
        self._member = partial(FAMILIES[inst.family].membership, inst)
        self.ledger = ledger if ledger is not None else QueryLedger()

    def query(self, v: Vertex) -> bool:
        """Is v on the trajectory?  One classical query."""
        self.shape.require(v)
        self.ledger.record_classical()
        return self._member(v)

    def peek(self, v: Vertex) -> bool:
        self.shape.require(v)
        return self._member(v)


def simulate_value_via_membership(
    meta: ClockMeta, membership: MembershipOracle, v: Vertex
) -> int:
    """Recover the induced function's value at v from membership queries only.

    Uses at most two membership queries and nothing but the public clock
    metadata (start vertex, trajectory length, clock structure); the
    trajectory itself is never consulted.

    Off-trajectory vertices and the start cost one query.  Any other
    on-trajectory vertex of a walk-with-clock family costs exactly two: the
    clock coordinate pins the tick t, and a probe at the same walk part with
    the previous clock tick lands on the trajectory exactly when v is the
    pre-step point of its tick.  When the walk cancels two consecutive steps
    the probe also lands for the post-step point, so the answer alone cannot
    separate the pair; the parity of the walk part's distance to the start
    (which advances by one per step) settles it and the probe answer is
    cross-checked against it.
    """
    meta.shape.require(v)
    if not membership.query(v):
        return l1_distance(v, meta.start) + meta.off_path_base
    if meta.family == BLOCKS:
        return block_on_path_value(meta, v)
    mw = meta.walk_dims
    assert mw is not None
    clock_shape = meta.clock_shape
    t = _snake_rank(clock_shape.k, v[mw:]) - 1
    if t == 0:
        return 2 * meta.T if v == meta.start else 2 * meta.T - 1
    b = (l1_distance(v[:mw], meta.start[:mw]) - t) % 2
    probe = v[:mw] + snake_unrank(clock_shape, t)
    if not membership.query(probe) and b == 0:
        raise RuntimeError("membership oracle inconsistent with the clock structure")
    return 2 * (meta.T - t) - b
