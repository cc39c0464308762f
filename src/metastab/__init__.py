"""Metastable model reduction of finite-state continuous-time Markov chains.

The package computes potential-theoretic quantities (stationary laws,
equilibrium potentials, capacities), builds derived chains (trace, reflected,
collapsed, enlarged, cycle-decomposed), produces the coarse-grained reduced
Markov model with its jump rates and time scale, checks the
separation-of-scales conditions numerically, and validates the reduction by
simulation against the reduced model.
"""

__version__ = "0.1.0"

from .chain import (
    Chain,
    Partition,
    ProbVector,
    adjoint,
    apply_generator,
    build_chain,
    dirichlet_form,
    is_reversible,
    spectral_gap,
    stationary,
    symmetric_part,
)
from .config import ToleranceConfig, default_tolerances
from .potential import (
    Flow,
    PotentialSolution,
    capacity,
    capacity_via_adjoint,
    dirichlet_II,
    dirichlet_optimal_pair,
    dirichlet_upper_bound,
    equilibrium_potential,
    poisson_solve,
    sector_ratio,
    symmetric_capacity,
    thomson_function_bound,
    thomson_lower_bound,
    thomson_optimal_pair,
)
from .transforms import (
    CycleDecomposition,
    EnlargedChain,
    collapse_chain,
    collapsed_quadratic_identity_check,
    cycle_decompose,
    enlarge_chain,
    reflected_chain,
    resolvent_solve,
    resolvent_vs_enlarged_gap,
    trace_chain,
)
from .reduction import (
    ConditionReport,
    ReducedModel,
    check_conditions,
    coarse_rates,
    jump_probabilities,
    reduced_generator,
    reduced_transition,
    timescales,
)
from .pathsim import (
    Path,
    estimate_91,
    estimate_T2,
    fdd_compare,
    last_passage_path,
    occupation_time,
    project,
    sample_valleys,
    simulate,
    skorohod_distance,
    time_change,
    trace_path,
)
from .models import ModelSpec, build_from_string, glued_cubes, potential_rw, zero_range
