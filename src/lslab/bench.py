"""Experiment runner: instance/algorithm sweeps with deterministic CSV output.

A configuration is a list of cells; each cell fixes a problem family, an
algorithm, a mode, size parameters, and a seed range.  Every (cell, seed)
pair becomes one result row.  Rows are emitted sorted by (cell index, seed)
so any execution order produces identical bytes; the runtime column is the
one nondeterministic field and comparison tools strip it.

Config files are JSON mirroring ExperimentConfig; unknown keys are rejected
rather than ignored, and so are settings that the cell's family or algorithm
does not take.
"""

from __future__ import annotations

import io
import math
import random
import time
from dataclasses import dataclass, fields
from functools import partial
from operator import getitem
from typing import Callable, Mapping

from .errors import ConfigError
from .grid import GridShape, Vertex, _distance_maps, snake_unrank
from .instances import DEFAULT_TRAJECTORY_LIMIT, PARAM_TYPES, WalkInstance, family_params
from .instances import read_json, refuse_untaken, typed_param
from .oracles import ValueOracle
from .solvers import SolveResult, grid2d_quantum, sample_then_descend, steepest_descent

SMOOTH = "smooth-l1"

#: Each algorithm and the settings it takes; grid2d-quantum also needs a
#: two-dimensional grid.  quantum-sample-descend is sample-descend with its
#: samples read uncharged and charged as one quantum minimum finding.
ALGORITHMS = {
    "steepest": (),
    "sample-descend": ("samples",),
    "quantum-sample-descend": ("samples",),
    "grid2d-quantum": ("mode",),
}
#: Each setting's unset value, the one value an algorithm that does not take it accepts.
UNSET = {"mode": "exact", "samples": None}
MODES = ("exact", "faithful")
OPTIONAL_INT = (int, type(None))


def check_settings(algo, settings: Mapping) -> None:
    """ConfigError for an unknown algorithm, or for a setting in `settings`
    that `algo` does not take and that differs from its unset value."""
    takes = ALGORITHMS.get(algo) if isinstance(algo, str) else None
    if takes is None:
        raise ConfigError(f"unknown algo {algo!r}")
    for name, unset in UNSET.items():
        if name not in takes and settings.get(name, unset) != unset:
            raise ConfigError(f"{algo} takes no {name}, got {settings[name]!r}")


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

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentCell":
        """A checked cell; every error, a missing size parameter included, is
        a ConfigError raised here, before any trial runs."""
        if not isinstance(data, dict):
            raise ConfigError(f"a cell is a JSON object, got {data!r}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown cell keys: {sorted(unknown)}")
        try:
            cell = cls(**data)
        except TypeError as exc:
            raise ConfigError(f"bad cell: {exc}") from exc
        params = vars(cell)
        check_settings(cell.algo, params)
        if cell.mode not in MODES:
            raise ConfigError(f"unknown mode {cell.mode!r}")
        shape, _ = make_oracle(cell.family, params)
        if cell.algo == "grid2d-quantum" and shape.l != 2:
            raise ConfigError(f"grid2d-quantum runs on two-dimensional grids, got {shape.l} axes")
        samples = typed_param(params, "samples", OPTIONAL_INT, ConfigError)
        limit = min(shape.vertex_count, DEFAULT_TRAJECTORY_LIMIT)  # as sample_then_descend
        if "samples" in ALGORITHMS[cell.algo] and not 1 <= sample_count(shape, samples) <= limit:
            raise ConfigError(f"samples must lie in 1..{limit}, got {samples}")
        # random.Random(-s) seeds as Random(s) does: a negative seed would repeat a trial
        if typed_param(params, "seed_start", (int,), ConfigError) < 0:
            raise ConfigError(f"seed_start must be nonnegative, got {cell.seed_start}")
        if typed_param(params, "trials", (int,), ConfigError) < 1:
            raise ConfigError("trials must be positive")
        return cell


@dataclass(frozen=True)
class ExperimentConfig:
    cells: tuple[ExperimentCell, ...]

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("a config is one JSON object")
        unknown = set(data) - {"cells"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        raw = data.get("cells")
        if not isinstance(raw, list) or not raw:
            raise ConfigError("config needs a nonempty 'cells' list")
        cells = []
        for index, cell in enumerate(raw):
            try:
                cells.append(ExperimentCell.from_dict(cell))
            except ConfigError as exc:
                raise ConfigError(f"cell {index}: {exc}") from exc
        return cls(cells=tuple(cells))

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        return cls.from_dict(read_json(path, ConfigError, "config"))


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


#: CSV columns, in order: the row's fields.
CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


def _smooth_oracle(n: int, d: int, seed: int) -> tuple[ValueOracle, Vertex]:
    shape = GridShape(n, d)
    rng = random.Random(seed)
    center = snake_unrank(shape, rng.randrange(shape.vertex_count) + 1)
    start = snake_unrank(shape, rng.randrange(shape.vertex_count) + 1)
    # query and peek check the vertex; the reads below trust it
    maps = _distance_maps(shape, center)
    return ValueOracle(shape, lambda v: sum(map(getitem, maps, v))), start


def instance_oracle(inst: WalkInstance) -> tuple[ValueOracle, Vertex]:
    return ValueOracle.for_instance(inst), inst.start


def make_oracle(
    family: str, params: Mapping
) -> tuple[GridShape, Callable[[int], tuple[ValueOracle, Vertex]]]:
    """Check a family's size parameters (smooth-l1: n and an optional d,
    default 2), types and values, and return the grid its instances lie on
    and seed -> (oracle, start); ConfigError otherwise, a size parameter the
    family does not take included."""
    if family == SMOOTH:
        refuse_untaken(SMOOTH, ("n", "d"), params, ConfigError)
        n = typed_param(params, "n", PARAM_TYPES["n"], ConfigError)
        d = typed_param(params, "d", OPTIONAL_INT, ConfigError)
        args = (n, 2 if d is None else d)
        check, make = GridShape, partial(_smooth_oracle, *args)
    else:
        spec, args = family_params(family, params, ConfigError)
        check, make = spec.check, lambda seed: instance_oracle(spec.generate(*args, seed))
    try:
        shape = check(*args)
    except ValueError as exc:
        raise ConfigError(f"{family}: {exc}") from exc
    return shape, make


def solve(
    oracle: ValueOracle, start: Vertex, algo: str, seed: int,
    mode: str = "exact", samples: int | None = None,
) -> SolveResult:
    """The one algorithm dispatch behind ``lslab solve`` and bench; both
    sample-descend algorithms draw sample_count(shape, samples).  A setting
    that `algo` does not take must keep its unset value (see UNSET)."""
    check_settings(algo, {"mode": mode, "samples": samples})
    if algo == "steepest":
        return steepest_descent(oracle, start)
    if algo == "grid2d-quantum":
        return grid2d_quantum(oracle, seed, mode=mode)
    reads = "quantum" if algo == "quantum-sample-descend" else "classical"
    return sample_then_descend(oracle, sample_count(oracle.shape, samples), seed, reads)


def sample_count(shape: GridShape, samples: int | None) -> int:
    """`samples`, or by default min(|V|, ceil(sqrt(2 l |V|))), computed in
    integers so that no grid size overflows a float."""
    if samples is not None:
        return samples
    count = shape.vertex_count
    return min(count, math.isqrt(2 * shape.l * count - 1) + 1)


def run_trial(cell: ExperimentCell, seed: int) -> SolveResult:
    """One (cell, seed) run with a fresh oracle and ledger."""
    _, make = make_oracle(cell.family, vars(cell))
    oracle, start = make(seed)
    return solve(oracle, start, cell.algo, seed, cell.mode, cell.samples)


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

    Takes an iterable of mappings holding the two fields.  Raises on a
    nonpositive value and on fewer than two distinct x values; the standard
    error is 0 for an exact two-point fit.
    """
    groups: dict[float, list[float]] = {}
    for row in rows:
        x = float(row[x_field])
        y = float(row[y_field])
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
