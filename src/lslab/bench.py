"""Experiment runner: instance/algorithm sweeps with deterministic CSV output.

A configuration is a list of cells; each cell fixes a problem family, an
algorithm, a mode, size parameters, and a seed range.  Every (cell, seed)
pair becomes one result row.  Rows are emitted sorted by (cell index, seed)
so any execution order produces identical bytes; the runtime column is the
one nondeterministic field and comparison tools strip it.

Config files are JSON mirroring ExperimentConfig; unknown keys are rejected
rather than ignored.
"""

from __future__ import annotations

import io
import json
import math
import random
import time
from dataclasses import dataclass
from functools import partial

from .errors import ConfigError
from .grid import GridShape, Vertex, l1_distance, snake_unrank
from .instances import (
    BLOCKS,
    GRID,
    HYPERCUBE,
    gen_block_instance,
    gen_grid_instance,
    gen_hypercube_instance,
)
from .oracles import ValueOracle
from .solvers import SolveResult, grid2d_quantum, sample_then_descend, steepest_descent

SMOOTH = "smooth-l1"

FAMILIES = (HYPERCUBE, GRID, BLOCKS, SMOOTH)
ALGORITHMS = ("steepest", "sample-descend", "grid2d-quantum")
MODES = ("exact", "faithful")

CSV_COLUMNS = (
    "family",
    "n",
    "d",
    "m_or_r",
    "algo",
    "mode",
    "seed",
    "classical_queries",
    "charged_quantum_queries",
    "outcome",
    "is_local_min",
    "rounds",
    "runtime_ms",
)


@dataclass(frozen=True)
class ExperimentCell:
    family: str
    algo: str
    n: int
    mode: str = "exact"
    d: int | None = None
    m: int | None = None
    r: float | None = None
    samples: int | None = None
    seed_start: int = 0
    trials: int = 1

    _FIELDS = (
        "family",
        "algo",
        "n",
        "mode",
        "d",
        "m",
        "r",
        "samples",
        "seed_start",
        "trials",
    )

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentCell":
        unknown = set(data) - set(cls._FIELDS)
        if unknown:
            raise ConfigError(f"unknown cell keys: {sorted(unknown)}")
        try:
            cell = cls(**data)
        except TypeError as exc:
            raise ConfigError(f"bad cell: {exc}") from exc
        if cell.family not in FAMILIES:
            raise ConfigError(f"unknown family {cell.family!r}")
        if cell.algo not in ALGORITHMS:
            raise ConfigError(f"unknown algo {cell.algo!r}")
        if cell.mode not in MODES:
            raise ConfigError(f"unknown mode {cell.mode!r}")
        if cell.trials < 1:
            raise ConfigError("trials must be positive")
        return cell


@dataclass(frozen=True)
class ExperimentConfig:
    cells: tuple[ExperimentCell, ...]

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {"cells"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        raw = data.get("cells")
        if not isinstance(raw, list) or not raw:
            raise ConfigError("config needs a nonempty 'cells' list")
        return cls(cells=tuple(ExperimentCell.from_dict(c) for c in raw))

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


@dataclass(frozen=True)
class ResultRow:
    family: str
    n: int
    d: int | None
    m_or_r: int | float | None
    algo: str
    mode: str
    seed: int
    classical_queries: int
    charged_quantum_queries: int
    outcome: str
    is_local_min: bool
    rounds: int
    runtime_ms: int

    def csv_fields(self) -> list[str]:
        vals = []
        for name in CSV_COLUMNS:
            v = getattr(self, name)
            if v is None:
                vals.append("")
            elif isinstance(v, bool):
                vals.append("true" if v else "false")
            elif isinstance(v, float):
                vals.append(repr(v))
            else:
                vals.append(str(v))
        return vals


def _smooth_oracle(n: int, d: int, seed: int) -> tuple[ValueOracle, Vertex]:
    shape = GridShape(n, d)
    rng = random.Random(seed)
    center = snake_unrank(shape, rng.randrange(shape.vertex_count) + 1)
    start = snake_unrank(shape, rng.randrange(shape.vertex_count) + 1)
    return ValueOracle(shape, partial(l1_distance, center)), start


def run_trial(cell: ExperimentCell, seed: int) -> SolveResult:
    """One (cell, seed) run with a fresh oracle and ledger."""
    if cell.family == SMOOTH:
        d = cell.d if cell.d is not None else 2
        oracle, start = _smooth_oracle(cell.n, d, seed)
    else:
        if cell.family == HYPERCUBE:
            if cell.m is None:
                raise ConfigError("hypercube cells need m")
            inst = gen_hypercube_instance(cell.n, cell.m, seed)
        elif cell.family == GRID:
            if cell.d is None or cell.m is None:
                raise ConfigError("grid cells need d and m")
            inst = gen_grid_instance(cell.n, cell.d, cell.m, seed)
        else:
            if cell.d is None or cell.r is None:
                raise ConfigError("block cells need d and r")
            inst = gen_block_instance(cell.n, cell.d, cell.r, seed)
        oracle = ValueOracle.for_instance(inst)
        start = inst.start

    if cell.algo == "steepest":
        return steepest_descent(oracle, start)
    if cell.algo == "sample-descend":
        samples = cell.samples
        if samples is None:
            shape = oracle.shape
            samples = min(
                shape.vertex_count,
                math.ceil(math.sqrt(shape.vertex_count * 2 * shape.l)),
            )
        return sample_then_descend(oracle, samples, seed, charging="classical")
    return grid2d_quantum(oracle, seed, mode=cell.mode)


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """One row per (cell, seed); deterministic apart from runtimes."""
    rows = []
    for cell in config.cells:
        m_or_r = cell.m if cell.m is not None else cell.r
        for seed in range(cell.seed_start, cell.seed_start + cell.trials):
            t0 = time.perf_counter()
            result = run_trial(cell, seed)
            elapsed_ms = int((time.perf_counter() - t0) * 1000)
            rows.append(
                ResultRow(
                    family=cell.family,
                    n=cell.n,
                    d=cell.d,
                    m_or_r=m_or_r,
                    algo=cell.algo,
                    mode=cell.mode,
                    seed=seed,
                    classical_queries=result.classical_queries,
                    charged_quantum_queries=result.charged_quantum_queries,
                    outcome=result.outcome,
                    is_local_min=result.is_local_min,
                    rounds=result.rounds,
                    runtime_ms=elapsed_ms,
                )
            )
    return rows


def rows_to_csv(rows: list[ResultRow]) -> str:
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        out.write(",".join(row.csv_fields()) + "\n")
    return out.getvalue()


def strip_runtime_column(csv_text: str) -> str:
    """Drop the runtime column, the only field excluded from determinism."""
    lines = []
    idx = CSV_COLUMNS.index("runtime_ms")
    for line in csv_text.splitlines():
        parts = line.split(",")
        del parts[idx]
        lines.append(",".join(parts))
    return "\n".join(lines) + "\n"


def fit_loglog_slope(rows, x_field: str, y_field: str) -> tuple[float, float]:
    """Least-squares slope of log2(y) against log2(x) over per-x means.

    Accepts any iterable of mappings or objects carrying the two fields.
    Raises on fewer than two distinct x values; the standard error is 0 for
    an exact two-point fit.
    """

    def get(row, name):
        if isinstance(row, dict):
            return row[name]
        return getattr(row, name)

    groups: dict[float, list[float]] = {}
    for row in rows:
        x = float(get(row, x_field))
        y = float(get(row, y_field))
        if x <= 0 or y <= 0:
            raise ValueError("log-log fit needs positive values")
        groups.setdefault(x, []).append(y)
    if len(groups) < 2:
        raise ValueError("need at least two distinct x values")
    pts = [
        (math.log2(x), math.log2(sum(ys) / len(ys))) for x, ys in sorted(groups.items())
    ]
    count = len(pts)
    mean_x = sum(p[0] for p in pts) / count
    mean_y = sum(p[1] for p in pts) / count
    sxx = sum((p[0] - mean_x) ** 2 for p in pts)
    sxy = sum((p[0] - mean_x) * (p[1] - mean_y) for p in pts)
    slope = sxy / sxx
    if count <= 2:
        return slope, 0.0
    intercept = mean_y - slope * mean_x
    ss_res = sum((p[1] - (intercept + slope * p[0])) ** 2 for p in pts)
    stderr = math.sqrt(ss_res / (count - 2) / sxx)
    return slope, stderr
