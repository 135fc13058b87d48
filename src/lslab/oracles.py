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
against the grid and raise ``ValueError`` when it lies outside.  The check,
``GridShape.require``, is one length test and one C-level subset test
against the shape's coordinate set 1..k (an arithmetic test when k is over
``DEFAULT_SCAN_LIMIT``), so a coordinate that is not equal to an integer of
that range (1.5, say) is refused.  Past that
point lslab calls trusted helpers, which check nothing: ``_snake_rank``,
``_neighbors``, ``_l1`` (the l1 distance without its dimension check), and
the instance's trusted value and membership reads, which the instance
oracles bind once.  Both read the instance's value table (trajectory point
-> value), built while the trajectory is generated, for every family: a
value is a table hit or the distance to the start plus the off-path base,
summed from one per-axis map read per coordinate (``grid._distance_maps``),
and membership is a key lookup.  ``simulate_value_via_membership`` checks v
once and reads the oracle's trusted membership function for v and for the
probe it builds; its off-path value is read from the instance's own maps,
which ``ClockMeta`` carries.  On every grid, wide ones too, that is one read.
``ValueOracle._peek`` is the trusted form of ``peek`` (uncharged, unchecked)
for vertices lslab made itself: grid2d's region draws and sphere vertices,
which lie in the grid by construction.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from operator import getitem
from typing import Callable, Mapping

from .grid import GridShape, Vertex, _l1
from .instances import BLOCKS, ClockMeta, WalkInstance, _instance_value, block_on_path_value


class QueryLedger:
    """Monotone per-phase counters of classical and charged quantum queries.

    Phase labels are pushed and popped by solvers so benchmark output can
    attribute cost to sampling, descent, or subroutine charges.  The totals
    ``classical_queries`` and ``charged_quantum_queries`` are kept running
    next to the phase buckets and always equal the sums over phases.
    """

    def __init__(self) -> None:
        self._phases: dict[str, list[int]] = {}
        self._stack: list[str] = ["main"]
        self.classical_queries = 0
        self.charged_quantum_queries = 0

    def _bucket(self, count: int) -> list[int]:
        # a phase's [classical, quantum] pair is made on its first record, even of 0
        if count < 0:
            raise ValueError("ledger counts only grow")
        try:
            return self._phases[self._stack[-1]]
        except KeyError:
            return self._phases.setdefault(self._stack[-1], [0, 0])

    def record_classical(self, count: int = 1) -> None:
        self._bucket(count)[0] += count
        self.classical_queries += count

    def record_quantum(self, count: int) -> None:
        self._bucket(count)[1] += count
        self.charged_quantum_queries += count

    @contextmanager
    def phase(self, label: str):
        self._stack.append(label)
        try:
            yield self
        finally:
            self._stack.pop()

    def breakdown(self) -> dict[str, tuple[int, int]]:
        return {label: (c, q) for label, (c, q) in self._phases.items()}


class ValueOracle:
    """Query-counted access to a function on a grid domain."""

    def __init__(self, shape: GridShape, fn: Callable[[Vertex], int]) -> None:
        self.shape = shape
        self._peek = fn  # trusted: lslab-made vertices only, no check, no charge
        self.ledger = QueryLedger()

    @classmethod
    def from_table(cls, shape: GridShape, table: Mapping[Vertex, int]) -> "ValueOracle":
        def fn(v: Vertex) -> int:
            try:
                return table[v]
            except KeyError:
                raise ValueError(f"vertex {v!r} has no table entry") from None

        return cls(shape, fn)

    @classmethod
    def for_instance(cls, inst: WalkInstance) -> "ValueOracle":
        return cls(inst.shape, partial(_instance_value, inst))

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

    def __init__(self, inst: WalkInstance) -> None:
        self.shape = inst.shape
        self._member = inst.value_by_vertex.__contains__
        self.ledger = QueryLedger()

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

    v is checked once, against ``meta.shape``, and the oracle must be on the
    same grid (ValueError otherwise, before any charge).  Each read then
    charges ``membership.ledger`` and goes to the oracle's trusted membership
    function, since v has been checked and the probe is built from v and the
    clock tables.
    """
    meta.shape.require(v)
    # the two shapes are one object when both come from the same instance
    if membership.shape is not meta.shape and membership.shape != meta.shape:
        raise ValueError(
            f"membership oracle on {membership.shape} cannot serve metadata on {meta.shape}"
        )
    member, ledger = membership._member, membership.ledger
    ledger.record_classical()
    if not member(v):
        return sum(map(getitem, meta.off_path_maps, v))
    if meta.family == BLOCKS:
        return block_on_path_value(meta, v)
    mw = meta.walk_dims
    assert mw is not None
    t = meta.clock_ticks[v[mw:]]
    if t == 0:
        return 2 * meta.T if v == meta.start else 2 * meta.T - 1
    w = v[:mw]
    b = (_l1(w, meta.start[:mw]) - t) % 2
    ledger.record_classical()
    if not member(w + meta.clock_points[t - 1]) and b == 0:
        raise RuntimeError("membership oracle inconsistent with the clock structure")
    return 2 * (meta.T - t) - b
