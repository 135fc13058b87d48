"""Hard-instance generators: clocked self-avoiding walks and their functions.

Three families, all built on the walk space (x) clock space decomposition:

* ``hypercube-walk``: a uniform coordinate-flip walk on the first m bits of
  {0,1}^n while the remaining n-m bits advance one snake-path step per tick.
* ``grid-walk``: a +/-1 walk round-robining through the first m axes of [n]^d
  while the last d-m axes advance along their snake path.
* ``grid-blocks``: the block-threaded walk on [n']^d.  The grid is cut into
  [alpha]^(d-1) blocks indexed by [beta]^(d-1); the last axis sweeps back and
  forth inside a block as the in-block clock, and deterministic block-changing
  segments thread consecutive blocks along the snake path of the block grid,
  forming one long [alpha]^(d-1) x [L] walk-with-clock space.

Every generated trajectory is self-avoiding, every listed point is distinct,
and the induced function decreases strictly along the trajectory with its
unique local minimum at the endpoint.  A +/-1 step that a barrier would block
is re-aimed inward instead of standing still; a standing-still step would
duplicate a trajectory point and break both self-avoidance and the
membership-to-value reduction.

The ``FAMILIES`` registry holds each family's ordered, typed size parameters,
size check (which returns the grid an instance of those sizes lies on),
generator, replay and trusted value and membership functions; ``lslab gen``,
bench, the loader, the oracles and ``verify_instance`` dispatch through it,
and ``family_params`` is the one parameter check they share.

Seeding: one ``random.Random(seed)`` (Mersenne Twister) drives each
generation; the parameters plus the seed determine the instance byte for
byte.  Hypercube flips use ``randrange(m)`` (one call per tick) and sign
choices use ``randrange(2)`` mapped to -1/+1 (one call per step).

Instances are immutable after generation and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from operator import mul
from typing import Callable, Mapping, NamedTuple

from .errors import BudgetExceeded, ConfigError, InstanceFormatError
from .grid import GridShape, Vertex, _l1, _snake_path, snake_successor

#: Generators refuse trajectories longer than this.
DEFAULT_TRAJECTORY_LIMIT = 1 << 21

HYPERCUBE = "hypercube-walk"
GRID = "grid-walk"
BLOCKS = "grid-blocks"


@dataclass(frozen=True)
class BlockLayout:
    """Derived geometry of the block decomposition of [n']^d."""

    d: int
    alpha: int  # block side, floor(n^r)
    beta: int  # blocks per axis, floor(n^(1-r))
    nprime: int  # alpha * beta, the trimmed grid side
    sweep: int  # in-block clock length, n' - 2*alpha
    block_count: int  # beta^(d-1)
    iterations: int  # L = sweep * block_count
    stride: int  # value gap per tick, 4*alpha + 2

    @property
    def shape(self) -> GridShape:
        """The trimmed grid [n']^d an instance lies on."""
        return GridShape(self.nprime, self.d)

    @property
    def block_shape(self) -> GridShape:
        return GridShape(self.beta, self.d - 1)


def _floor_power(n: int, r: float) -> int:
    # floor(n^r) with a nudge so exact integer powers are not lost to
    # floating-point dust (e.g. 27^(2/3) evaluating to 8.999...).
    return int(math.floor(n**r + 1e-9))


def block_layout(n: int, d: int, r: float) -> BlockLayout:
    if d < 2:
        raise ValueError("block instances need d >= 2")
    if n < 2:
        raise ValueError("block instances need n >= 2")
    if not 0.0 < r < 1.0:
        raise ValueError("block exponent r must lie strictly between 0 and 1")
    alpha = _floor_power(n, r)
    beta = _floor_power(n, 1.0 - r)
    if alpha < 2:
        raise ValueError(f"degenerate blocks: alpha={alpha} < 2 for n={n}, r={r}")
    if beta < 2:
        raise ValueError(f"degenerate block grid: beta={beta} < 2 for n={n}, r={r}")
    nprime = alpha * beta
    sweep = nprime - 2 * alpha
    if sweep < 1:
        raise ValueError(f"no in-block clock room: n'={nprime}, alpha={alpha}")
    block_count = beta ** (d - 1)
    return BlockLayout(
        d=d,
        alpha=alpha,
        beta=beta,
        nprime=nprime,
        sweep=sweep,
        block_count=block_count,
        iterations=sweep * block_count,
        stride=4 * alpha + 2,
    )


@dataclass(frozen=True, eq=False)
class WalkInstance:
    """A generated hard instance and its precomputed lookups.

    ``trajectory`` lists every visited vertex in order; all entries are
    pairwise distinct.  For the walk-with-clock families it holds exactly
    2(T+1) points, ``walk_positions[s]`` is the walk part after s steps and
    ``clock_ticks`` maps each clock point to its tick (0-based), giving O(1)
    membership from the clock coordinate alone.  Block instances
    instead carry a full point -> value map (linear in trajectory length).
    An off-trajectory vertex is valued at its distance to the start plus
    ``off_path_base``: 2T for the walk families, 2 * stride * L for blocks.
    """

    family: str
    n: int
    d: int | None
    m: int | None
    r: float | None
    seed: int | None
    shape: GridShape
    T: int
    steps: tuple[int, ...]
    start: Vertex
    endpoint: Vertex
    trajectory: tuple[Vertex, ...]
    off_path_base: int
    walk_positions: tuple[Vertex, ...] | None = None
    clock_ticks: dict[Vertex, int] | None = None
    block: BlockLayout | None = None
    value_by_vertex: dict | None = None


# ---------------------------------------------------------------------------
# walk-with-clock families
# ---------------------------------------------------------------------------


def _build_walk_instance(
    family: str,
    shape: GridShape,
    m: int,
    start_walk: Vertex,
    steps: tuple[int, ...],
    apply_step,
    n: int,
    d: int | None,
    seed: int | None,
) -> WalkInstance:
    # GridShape refuses a clock with no axes (m >= l)
    clock_shape = GridShape(shape.k, shape.l - m)
    if len(steps) != clock_shape.vertex_count:
        raise InstanceFormatError(
            f"walk needs one step per clock tick ({clock_shape.vertex_count}), "
            f"got {len(steps)}"
        )
    T = len(steps) - 1
    positions = [start_walk]
    w = start_walk
    for t, s in enumerate(steps):
        w = apply_step(w, t, s)
        positions.append(w)
    # the clock's snake path, one point per tick; the step count checked above bounds it
    clocks = _snake_path(clock_shape.k, clock_shape.l)
    ticks = {clock: t for t, clock in enumerate(clocks)}
    trajectory = []
    for w, w_next, clock in zip(positions, positions[1:], clocks):
        trajectory += (w + clock, w_next + clock)
    return WalkInstance(
        family=family,
        n=n,
        d=d,
        m=m,
        r=None,
        seed=seed,
        shape=shape,
        T=T,
        steps=steps,
        start=trajectory[0],
        endpoint=trajectory[-1],
        trajectory=tuple(trajectory),
        off_path_base=2 * T,
        walk_positions=tuple(positions),
        clock_ticks=ticks,
    )


def _hypercube_step(w: Vertex, t: int, flip: int) -> Vertex:
    return w[:flip] + (3 - w[flip],) + w[flip + 1 :]


def _replay_hypercube(n: int, m: int, steps: tuple[int, ...], seed: int | None) -> WalkInstance:
    shape = GridShape(2, n)
    if any(not 0 <= s < m for s in steps):
        raise InstanceFormatError("flip index out of range for walk dimensions")
    return _build_walk_instance(
        HYPERCUBE, shape, m, (1,) * m, steps, _hypercube_step, n, None, seed
    )


def _check_trajectory(points: int, about: str = "") -> None:
    if points > DEFAULT_TRAJECTORY_LIMIT:
        raise BudgetExceeded(
            f"trajectory of {about}{points} points exceeds {DEFAULT_TRAJECTORY_LIMIT}"
        )


def _hypercube_shape(n: int, m: int) -> GridShape:
    """{0,1}^n, the grid of a hypercube-walk instance, whose 2^(n-m) ticks
    the trajectory budget bounds; ValueError for sizes no instance has."""
    if not 1 <= m < n:
        raise ValueError(f"walk dimensions must satisfy 1 <= m < n, got m={m}, n={n}")
    _check_trajectory(2 << (n - m))
    return GridShape(2, n)


def gen_hypercube_instance(n: int, m: int, seed: int) -> WalkInstance:
    """Flip-walk instance on {0,1}^n with an m-bit walk space.

    T = 2^(n-m) - 1 ticks; the walk starts at the all-zeros point and flips a
    uniformly random walk bit per tick while the clock advances one snake
    step.
    """
    _hypercube_shape(n, m)
    rng = random.Random(seed)
    steps = tuple(rng.randrange(m) for _ in range(1 << (n - m)))
    return _replay_hypercube(n, m, steps, seed)


def _grid_step(n: int, m: int, w: Vertex, t: int, sign: int) -> Vertex:
    dim = t % m
    c = w[dim] + sign
    if not 1 <= c <= n:
        c = w[dim] - sign  # barrier: re-aim inward, never stand still
    return w[:dim] + (c,) + w[dim + 1 :]


def _replay_grid(
    n: int, d: int, m: int, steps: tuple[int, ...], seed: int | None
) -> WalkInstance:
    if not 1 <= m < d:
        raise InstanceFormatError(f"walk dimensions need 1 <= m < d, got m={m}, d={d}")
    shape = GridShape(n, d)
    if any(s not in (-1, 1) for s in steps):
        raise InstanceFormatError("grid steps must be signs -1/+1")
    step = partial(_grid_step, n, m)
    return _build_walk_instance(GRID, shape, m, (n // 2,) * m, steps, step, n, d, seed)


def _grid_shape(n: int, d: int, m: int) -> GridShape:
    """[n]^d, the grid of a grid-walk instance, whose n^(d-m) ticks the
    trajectory budget bounds; ValueError for sizes no instance has."""
    if not 1 <= m < d:
        raise ValueError(f"walk dimensions must satisfy 1 <= m < d, got m={m}, d={d}")
    if n < 2:
        raise ValueError(f"side length must be >= 2, got n={n}")
    _check_trajectory(2 * n ** (d - m))
    return GridShape(n, d)


def gen_grid_instance(n: int, d: int, m: int, seed: int) -> WalkInstance:
    """Round-robin +/-1 walk instance on [n]^d with an m-axis walk space.

    T = n^(d-m) - 1 ticks; all walk coordinates start at floor(n/2); tick t
    moves axis t mod m by a uniformly random sign, re-aimed inward at the
    grid border.
    """
    _grid_shape(n, d, m)
    rng = random.Random(seed)
    steps = tuple(1 if rng.randrange(2) else -1 for _ in range(n ** (d - m)))
    return _replay_grid(n, d, m, steps, seed)


# ---------------------------------------------------------------------------
# block-threaded family
# ---------------------------------------------------------------------------


def _replay_blocks(
    n: int, d: int, r: float, steps: tuple[int, ...], seed: int | None
) -> WalkInstance:
    lay = block_layout(n, d, r)
    if len(steps) != lay.iterations:
        raise InstanceFormatError(
            f"block instance needs {lay.iterations} signs, got {len(steps)}"
        )
    if any(s not in (-1, 1) for s in steps):
        raise InstanceFormatError("block steps must be signs -1/+1")
    shape = lay.shape
    bshape = lay.block_shape
    stride = lay.stride
    L = lay.iterations

    x = [lay.alpha // 2] * (d - 1) + [lay.alpha + 1]
    blocks = [1] * (d - 1)
    trajectory: list[Vertex] = [tuple(x)]
    values: dict[Vertex, int] = {tuple(x): stride * L}

    def push(offset_value: int) -> None:
        p = tuple(x)
        trajectory.append(p)
        values[p] = offset_value

    for t in range(L):
        tick_base = stride * (L - t)
        sweep_dir = -1 if (t // lay.sweep) % 2 else 1
        axis = t % (d - 1)
        lo = (blocks[axis] - 1) * lay.alpha + 1
        hi = blocks[axis] * lay.alpha
        c = x[axis] + steps[t]
        if not lo <= c <= hi:
            c = x[axis] - steps[t]  # block border: re-aim inward
        x[axis] = c
        push(tick_base - 1)
        if (t + 1) % lay.sweep != 0:
            x[d - 1] += sweep_dir
            push(tick_base - 2)
        else:
            here = tuple(blocks)
            nxt = snake_successor(bshape, here)
            if nxt is None:
                break  # final tick of the last block; the walk ends here
            j = next(i for i in range(d - 1) if nxt[i] != here[i])
            b = nxt[j] - here[j]
            # segment lengths are frozen at entry; the coordinate is not
            # re-read between the three legs
            span = lay.alpha + 1 - (x[j] - (blocks[j] - 1) * lay.alpha)
            o = 1
            for _ in range(span):
                x[d - 1] += sweep_dir
                o += 1
                push(tick_base - o)
            for _ in range(2 * span - 1):
                x[j] += b
                o += 1
                push(tick_base - o)
            for _ in range(span):
                x[d - 1] -= sweep_dir
                o += 1
                push(tick_base - o)
            blocks[j] += b

    return WalkInstance(
        family=BLOCKS,
        n=n,
        d=d,
        m=None,
        r=r,
        seed=seed,
        shape=shape,
        T=L - 1,
        steps=steps,
        start=trajectory[0],
        endpoint=trajectory[-1],
        trajectory=tuple(trajectory),
        off_path_base=2 * stride * L,
        block=lay,
        value_by_vertex=values,
    )


def _block_sizes(n: int, d: int, r: float) -> BlockLayout:
    """The block layout of a grid-blocks instance; ValueError for sizes no
    instance has."""
    lay = block_layout(n, d, r)
    _check_trajectory(4 * lay.iterations, "about ")
    return lay


def gen_block_instance(n: int, d: int, r: float, seed: int) -> WalkInstance:
    """Block-threaded walk instance on [n']^d with block exponent r.

    One uniformly random sign per tick drives the in-block walk; the last
    axis sweeps alternately up and down as the in-block clock, and block
    changes follow the snake path of the block grid.
    """
    lay = _block_sizes(n, d, r)
    rng = random.Random(seed)
    steps = tuple(1 if rng.randrange(2) else -1 for _ in range(lay.iterations))
    return _replay_blocks(n, d, r, steps, seed)


# ---------------------------------------------------------------------------
# the induced function
# ---------------------------------------------------------------------------


# The trusted forms below take v to lie in inst.shape and check nothing.


def _walk_membership(inst: WalkInstance, v: Vertex) -> bool:
    t = inst.clock_ticks[v[inst.m :]]
    w = v[: inst.m]
    return w == inst.walk_positions[t] or w == inst.walk_positions[t + 1]


def _walk_value(inst: WalkInstance, v: Vertex) -> int:
    t = inst.clock_ticks[v[inst.m :]]
    w = v[: inst.m]
    if w == inst.walk_positions[t + 1]:
        return 2 * (inst.T - t) - 1
    if w == inst.walk_positions[t]:
        return 2 * (inst.T - t)
    return _l1(v, inst.start) + inst.off_path_base


def _block_membership(inst: WalkInstance, v: Vertex) -> bool:
    return v in inst.value_by_vertex


def _block_value(inst: WalkInstance, v: Vertex) -> int:
    hit = inst.value_by_vertex.get(v)
    if hit is not None:
        return hit
    return _l1(v, inst.start) + inst.off_path_base


# ---------------------------------------------------------------------------
# the family registry
# ---------------------------------------------------------------------------


class Family(NamedTuple):
    """A registry entry: the size parameters in the order ``check(*params)``,
    ``generate(*params, seed)`` and ``replay(*params, steps, seed)`` take
    them, and the trusted value and membership functions.  ``check`` returns
    the grid an instance of those sizes lies on, and raises ValueError for
    sizes no instance has, without building one."""

    params: tuple[str, ...]
    check: Callable[..., GridShape]
    generate: Callable[..., WalkInstance]
    replay: Callable[..., WalkInstance]
    value: Callable[[WalkInstance, Vertex], int]
    membership: Callable[[WalkInstance, Vertex], bool]


#: The types each size parameter accepts.
PARAM_TYPES = {"n": (int,), "d": (int,), "m": (int,), "r": (float, int)}

_WALK = (_walk_value, _walk_membership)
FAMILIES = {
    HYPERCUBE: Family(
        ("n", "m"), _hypercube_shape, gen_hypercube_instance, _replay_hypercube, *_WALK
    ),
    GRID: Family(("n", "d", "m"), _grid_shape, gen_grid_instance, _replay_grid, *_WALK),
    BLOCKS: Family(
        ("n", "d", "r"), lambda *sizes: _block_sizes(*sizes).shape,
        gen_block_instance, _replay_blocks,
        _block_value, _block_membership,
    ),
}


def typed_param(params: Mapping, key: str, kinds: tuple[type, ...], error: type[Exception]):
    """params[key] (None when missing) if its type is one of `kinds`, else
    `error`.  Types match exactly, so a JSON true is not taken for 1."""
    value = params.get(key)
    if type(value) not in kinds:
        names = " or ".join(kind.__name__ for kind in kinds)
        raise error(f"{key} must be {names}, got {value!r}")
    return value


def refuse_untaken(name: str, takes: tuple[str, ...], params: Mapping, error: type[Exception]):
    """`error` when `params` sets (not None) a size parameter that family
    `name`, which takes `takes`, does not take."""
    untaken = [k for k in PARAM_TYPES if k not in takes and params.get(k) is not None]
    if untaken:
        raise error(f"{name} takes no {' or '.join(untaken)}")


def family_params(name, params: Mapping, error: type[Exception]) -> tuple[Family, tuple]:
    """The registered family `name` and its size parameters from `params`, in
    order; the caller's `error` for an unknown family, a missing or
    mistyped parameter, or a size parameter the family does not take."""
    family = FAMILIES.get(name) if isinstance(name, str) else None
    if family is None:
        raise error(f"unknown family {name!r}")
    refuse_untaken(name, family.params, params, error)
    return family, tuple(typed_param(params, k, PARAM_TYPES[k], error) for k in family.params)


def instance_membership(inst: WalkInstance, v: Vertex) -> bool:
    """Whether v lies on the trajectory; O(1) from the clock coordinate."""
    inst.shape.require(v)
    return FAMILIES[inst.family].membership(inst, v)


def instance_value(inst: WalkInstance, v: Vertex) -> int:
    """The induced function: strictly decreasing along the trajectory, with
    every off-trajectory vertex valued by its distance to the start plus
    ``inst.off_path_base`` (2T for the walk families, one on-trajectory
    ceiling; twice the ceiling for blocks), so the descent funnels onto the
    path."""
    inst.shape.require(v)
    return FAMILIES[inst.family].value(inst, v)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    self_avoiding: bool
    unique_local_min: bool
    membership_consistent: bool
    local_min_count: int
    minimum: Vertex | None

    @property
    def ok(self) -> bool:
        return self.self_avoiding and self.unique_local_min and self.membership_consistent


def _strides(shape: GridShape) -> list[int]:
    # in iter_vertices order, where the last coordinate runs fastest, moving
    # coordinate i by +/-1 moves the index by k**(l-1-i)
    return [shape.k ** (shape.l - 1 - i) for i in range(shape.l)]


def _value_table(inst: WalkInstance) -> list[int]:
    """The registered value of every vertex, in ``iter_vertices`` order, built
    in one pass rather than one call per vertex.  Off-path values (distance to
    the start plus ``off_path_base``) are folded one axis at a time from
    per-axis distance tables; on-path entries are then overwritten, at the
    index sum(c * stride) - sum(stride) of each point: from the walk
    positions and the clock tick table for the walk families, from
    ``value_by_vertex`` for blocks."""
    shape = inst.shape
    values = [inst.off_path_base]
    for s in inst.start:
        dist = [abs(c - s) for c in range(1, shape.k + 1)]
        values = [x + d for x in values for d in dist]
    strides = _strides(shape)
    if inst.value_by_vertex is not None:
        offset = sum(strides)
        for p, value in inst.value_by_vertex.items():
            values[sum(map(mul, p, strides)) - offset] = value
        return values
    # the clock axes run fastest, so the j-th clock point of the clock grid's
    # own scan sits j past the index of its walk part
    m, top = inst.m, 2 * inst.T
    walk_strides = strides[:m]
    offset = sum(walk_strides)
    walk_index = [sum(map(mul, w, walk_strides)) - offset for w in inst.walk_positions]
    clocks = product(range(1, shape.k + 1), repeat=shape.l - m)
    for j, t in enumerate(map(inst.clock_ticks.__getitem__, clocks)):
        # tick t's pre-step point, then its post-step point, so the post-step
        # value wins where the two meet, as in _walk_value
        values[walk_index[t] + j] = top - 2 * t
        values[walk_index[t + 1] + j] = top - 2 * t - 1
    return values


def verify_instance(inst: WalkInstance) -> VerificationReport:
    """Exhaustively scan the domain: exactly one local minimum located at the
    endpoint, pairwise-distinct trajectory points, and membership answers that
    agree with the stored point set.  Refuses (rather than sampling) when the
    domain exceeds the scan limit (``GridShape.iter_vertices`` checks it).
    The values come from ``_value_table``, not from the family's registered
    value function, which stays the definition.  The two agree by
    construction; tests check them equal on every vertex of every
    criterion-5 instance and of the hand-edited instances of
    tests/test_boundary.py, and on no other instance."""
    shape = inst.shape
    points = inst.trajectory
    point_set = set(points)
    self_avoiding = len(point_set) == len(points)

    # the membership answer on every vertex against the stored points; no
    # vertex outlives its comparison, so the scan allocates no tuple list
    answers = map(partial(FAMILIES[inst.family].membership, inst), shape.iter_vertices())
    stored = map(point_set.__contains__, shape.iter_vertices())
    membership_consistent = list(answers) == list(stored)
    values = _value_table(inst)

    k, strides = shape.k, _strides(shape)
    minima = []
    for index, v in enumerate(shape.iter_vertices()):
        fv = values[index]
        for c, s in zip(v, strides):  # most vertices exit at their first lower neighbour
            if c > 1 and values[index - s] < fv or c < k and values[index + s] < fv:
                break
        else:
            minima.append(v)
            if len(minima) > 8:
                break

    unique = len(minima) == 1 and minima[0] == inst.endpoint
    return VerificationReport(
        self_avoiding=self_avoiding,
        unique_local_min=unique,
        membership_consistent=membership_consistent,
        local_min_count=len(minima),
        minimum=minima[0] if len(minima) == 1 else None,
    )


# ---------------------------------------------------------------------------
# parameter recommendations
# ---------------------------------------------------------------------------


def recommended_params(
    family: str, mode: str, n: int | None = None, d: int | None = None
) -> dict:
    """Walk-space sizes and block exponents used by the lower-bound setups.

    All logarithms are base 2.  Returns {"m": ...} for the walk-with-clock
    families and {"r": ...} for blocks; ValueError below the sizes named:
    - hypercube (n >= 2): m = floor((n + log n)/2) randomized, floor((2n -
      log n)/3) quantum, clamped to 1..n-1;
    - grid (d >= 2): randomized m = 1, 2 for d in {3, 4}, ceil(d/2) above;
      quantum m = 1, d - 2 for d in {3, 4, 5}, 4 for d = 6, round(2d/3) above;
    - blocks (d >= 2): randomized r = 2/3, 3/4 - log log n / (4 log n) for d = 3
      (n >= 4), d/(2d - 2) for d >= 4; quantum r = d/(d + 1), 2d/(3d - 3) for d >= 6.
    """
    if mode not in ("randomized", "quantum"):
        raise ValueError(f"unknown mode {mode!r}")
    if family == HYPERCUBE:
        if n is None or n < 2:
            raise ValueError("hypercube recommendation needs n >= 2")
        if mode == "randomized":
            m = math.floor((n + math.log2(n)) / 2)
        else:
            m = math.floor((2 * n - math.log2(n)) / 3)
        m = max(1, min(n - 1, m))
        return {"m": m}
    if family == GRID:
        if d is None or d < 2:
            raise ValueError("grid recommendation needs d >= 2")
        if mode == "randomized":
            if d > 4:
                m = -(-d // 2)
            elif d in (3, 4):
                m = 2
            else:
                m = 1
        else:
            if d > 6:
                m = round(2 * d / 3)
            elif d == 6:
                m = 4
            elif d in (3, 4, 5):
                m = d - 2
            else:
                m = 1
        return {"m": m}
    if family == BLOCKS:
        if d is None or d < 2:
            raise ValueError("block recommendation needs d >= 2")
        if mode == "randomized":
            if d >= 4:
                r = d / (2 * d - 2)
            elif d == 3:
                if n is None or n < 4:
                    raise ValueError("the d=3 randomized exponent needs n >= 4")
                r = 3 / 4 - math.log2(math.log2(n)) / (4 * math.log2(n))
            else:
                r = 2 / 3
        else:
            if d >= 6:
                r = 2 * d / (3 * d - 3)
            else:
                r = d / (d + 1)
        return {"r": r}
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# clock metadata and the on-path value decode (no trajectory access)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClockMeta:
    """What a value-query simulator may know: parameters, start, clock
    structure, trajectory length -- never the trajectory itself.

    For a walk family the clock structure is the snake order of the clock
    axes, as a table both ways: ``clock_ticks`` maps a clock point to its
    tick (0-based) and ``clock_points[t]`` is the clock point of tick t."""

    family: str
    shape: GridShape
    walk_dims: int | None
    start: Vertex
    T: int
    off_path_base: int
    clock_ticks: dict[Vertex, int] | None = field(default=None, compare=False, repr=False)
    clock_points: tuple[Vertex, ...] | None = field(default=None, compare=False, repr=False)
    block: BlockLayout | None = None


def clock_metadata(inst: WalkInstance) -> ClockMeta:
    ticks = inst.clock_ticks
    return ClockMeta(
        family=inst.family,
        shape=inst.shape,
        walk_dims=inst.m,
        start=inst.start,
        T=inst.T,
        off_path_base=inst.off_path_base,
        clock_ticks=ticks,
        # the table's keys, in insertion order, are the clock points by tick
        clock_points=None if ticks is None else tuple(ticks),
        block=inst.block,
    )


def _block_moves_parity(tick: int, block_index: int) -> int:
    # walk-coordinate moves after the point following tick `tick` inside
    # block `block_index`: one per tick plus one odd crossing leg per
    # completed segment
    return (tick + block_index) % 2


def block_on_path_value(meta: ClockMeta, v: Vertex) -> int:
    """Trajectory value of an on-path vertex of a d=2 block instance, decoded
    from coordinates alone.

    In-block rows pin the tick; the walk-move parity of the column separates
    the pre-sweep point from the post-sweep point of the row.  Margin rows
    belong to block-changing segments, whose three legs are mutually exclusive
    readings of (column, row), so the position within the segment is forced.
    """
    lay = meta.block
    assert lay is not None
    if lay.d != 2:
        raise ValueError("coordinate decode of block values is supported for d=2 only")
    A, NP, W, L = lay.alpha, lay.nprime, lay.sweep, lay.iterations
    stride = lay.stride
    c, rw = v
    if v == meta.start:
        return stride * L
    col_parity = abs(c - meta.start[0]) % 2

    if A < rw <= NP - A:
        k = (c + A - 1) // A
        base = (k - 1) * W
        lw = (rw - (A + 1)) if k % 2 == 1 else (NP - A - rw)
        candidates: list[tuple[int, int, int]] = []
        if 0 <= lw < W and base + lw < L:
            t = base + lw
            candidates.append((t, 1, _block_moves_parity(t, k)))
        if lw >= 1:
            t = base + lw - 1
            candidates.append((t, 2, _block_moves_parity(t, k)))
        if lw == 0 and k >= 2:
            span = c - (k - 1) * A
            t = base - 1
            candidates.append((t, 4 * span, (_block_moves_parity(t, k - 1) + span * 2 - 1) % 2))
        matches = [(t, o) for (t, o, par) in candidates if par == col_parity]
        if len(matches) != 1:
            raise RuntimeError("block geometry decode failed; oracle inconsistent")
        t, o = matches[0]
        return stride * (L - t) - o

    # margin row: the point sits on a block-changing segment
    top = rw > NP - A
    srow = rw - (NP - A) if top else (A + 1) - rw
    want = 1 if top else 0  # parity of the block a matching change leaves
    kc = (c + A - 1) // A
    readings: list[tuple[int, int]] = []
    for k in (kc, kc - 1):
        if k < 1 or k > lay.block_count - 1 or k % 2 != want:
            continue
        if k == kc:
            span = k * A + 1 - c  # outbound leg: column equals the entry column
            if 1 <= span <= A and srow <= span:
                readings.append((k, 1 + srow))
        else:
            span = c - k * A  # return leg: column equals the exit column
            if 1 <= span <= A and srow <= span - 1:
                readings.append((k, 4 * span - srow))
        span = srow  # crossing leg: row pins the segment depth
        x_start = k * A + 1 - span
        x_end = k * A + span
        if x_start + 1 <= c <= x_end:
            readings.append((k, 1 + span + (c - x_start)))
    if len(readings) != 1:
        raise RuntimeError("block segment decode failed; oracle inconsistent")
    k, o = readings[0]
    t = k * W - 1
    return stride * (L - t) - o


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

FORMAT_VERSION = 1
#: The fields of an instance file and of its params object.
_FILE_KEYS = {"format_version", "family", "params", "T", "start", "step_sequence", "endpoint"}
_PARAM_KEYS = {*PARAM_TYPES, "seed"}


def instance_to_dict(inst: WalkInstance) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "family": inst.family,
        "params": {
            "n": inst.n,
            "d": inst.d,
            "m": inst.m,
            "r": inst.r,
            "seed": inst.seed,
        },
        "T": inst.T,
        "start": list(inst.start),
        "step_sequence": list(inst.steps),
        "endpoint": list(inst.endpoint),
    }


def instance_from_dict(data: dict) -> WalkInstance:
    if not isinstance(data, dict):
        raise InstanceFormatError("an instance file holds one JSON object")
    version = data.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise InstanceFormatError(f"unknown format_version {version!r}")
    try:
        family = data["family"]
        params = data["params"]
        T = data["T"]
        steps = tuple(data["step_sequence"])
        start = tuple(data["start"])
        endpoint = tuple(data["endpoint"])
    except (KeyError, TypeError) as exc:
        raise InstanceFormatError(f"missing or malformed field: {exc}") from exc
    if not isinstance(params, dict):
        raise InstanceFormatError("params must be a JSON object")
    unknown = sorted(map(str, data.keys() - _FILE_KEYS))
    unknown += sorted(f"params.{key}" for key in params.keys() - _PARAM_KEYS)
    if unknown:
        raise InstanceFormatError(f"unknown fields: {', '.join(unknown)}")
    if any(type(s) is not int for s in steps):
        raise InstanceFormatError("step_sequence must hold integers")
    spec, args = family_params(family, params, InstanceFormatError)
    seed = typed_param(params, "seed", (int, type(None)), InstanceFormatError)
    try:
        inst = spec.replay(*args, steps, seed)
    except ValueError as exc:
        # parameters the family cannot hold: a bad grid side, block exponent, ...
        raise InstanceFormatError(str(exc)) from exc
    if inst.start != start or inst.endpoint != endpoint:
        raise InstanceFormatError("stored endpoints do not match the replayed walk")
    if type(T) is not int or T != inst.T:
        raise InstanceFormatError(f"stored T={T!r} does not match the replayed walk's T={inst.T}")
    return inst


def save_instance(inst: WalkInstance, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(instance_to_dict(inst), fh, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write instance: {exc}") from exc


def read_json(path: str, error: type[Exception], what: str):
    """The JSON document at `path`; `error` when it cannot be read or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc


def load_instance(path: str) -> WalkInstance:
    return instance_from_dict(read_json(path, InstanceFormatError, "instance"))
