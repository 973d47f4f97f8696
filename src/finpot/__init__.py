"""finpot: finite-node potential theory.

Pseudo-balayage of signed charge vectors onto index sets, weighted
minimum-energy problems over the probability simplex, capacitary measures,
and convergence experiments, all over symmetric strictly positive definite
kernel matrices on a finite node universe.
"""

from .balayage import (
    BalayageResult,
    CharacterizationViolated,
    MassBoundReport,
    mass_bound_check,
    pseudo_balayage,
)
from .core import (
    ARITHMETIC_TOL,
    SOLVER_TOL,
    KernelMatrix,
    Measure,
    NotNested,
    NotPositiveDefinite,
    SizeMismatchError,
    SupportSet,
    check_energy_principle,
    energy,
    energy_distance,
    gauss_functional,
    mutual_energy,
    potential,
)
from .gauss import (
    CapacityResult,
    GaussResult,
    SolvabilityOutcome,
    capacitary_measure,
    solvability_check,
    solve_gauss,
)
from .instances import (
    Annulus,
    Ball,
    ChargeAtom,
    ChargeOnNode,
    DuplicatePoints,
    FixedLength,
    Instance,
    InstanceSpec,
    LogKernel,
    NearestNeighborHalf,
    RieszKernel,
    Segment,
    ShellUnion,
    Sphere,
    ThinnessReport,
    assemble,
    thinness_series,
)
from .qp import (
    ConeQpProblem,
    KktReport,
    MaxIterExceeded,
    SimplexQpProblem,
    TooLarge,
    brute_force_cone,
    brute_force_simplex,
    solve_cone_qp,
    solve_simplex_qp,
)

__version__ = "0.1.0"
