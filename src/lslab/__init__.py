"""Query-complexity laboratory for local search on hypercubes and grids.

Hard-instance generators built on clocked self-avoiding walks, query-counting
oracles with a membership-to-value reduction, exact-rational walk
combinatorics, adversary-bound calculators, classical and quantum-cost-charged
solvers, and a deterministic benchmark runner.
"""

from .grid import GridShape, Vertex, l1_distance, neighbors, snake_rank, snake_successor, snake_unrank
from .instances import (
    BlockLayout,
    WalkInstance,
    clock_metadata,
    gen_block_instance,
    gen_grid_instance,
    gen_hypercube_instance,
    instance_membership,
    instance_value,
    load_instance,
    recommended_params,
    save_instance,
    verify_instance,
)
from .oracles import MembershipOracle, QueryLedger, ValueOracle, simulate_value_via_membership
from .solvers import (
    RegionState,
    SolveResult,
    durr_hoyer_min,
    grid2d_quantum,
    grover_exists,
    sample_then_descend,
    steepest_descent,
)
from .walkstats import (
    LineWalkTable,
    composite_walk_prob,
    line_walk_bruteforce,
    line_walk_table,
    parity_prob_bruteforce,
    parity_prob_closed_form,
    parity_prob_recursion,
)

__version__ = "0.1.0"
