"""Resource-theoretic thermodynamics for quasiclassical states.

Equilibrium ensembles for arbitrary commuting conserved quantities,
rescaled Lorenz curves deciding single-shot convertibility, hypothesis-
testing work yields and cost bounds, and their many-copy limits.
"""

from .asymptotics import (
    AepSweep,
    aep_sweep,
    compressed_d_h_epsilon,
    conversion_rate,
    finite_n_gap,
    free_energy_rate,
)
from .convert import (
    ConversionQuery,
    WitnessMatrix,
    can_convert,
    feasibility_oracle,
    smallest_epsilon,
)
from .lorenz import DominationResult, LorenzCurve, build_curve, compare, dominates
from .oneshot import (
    HypothesisTest,
    b_epsilon,
    battery_pair,
    d_h_epsilon,
    relative_entropy,
    resource_yield,
    shannon_entropy,
    w_cost_bounds,
    w_gain,
)
from .theory import (
    CompressedState,
    QuasiclassicalState,
    SystemSpec,
    TheoryContext,
    compose,
    compose_specs,
    gibbs_state,
    gravitational_chemical_potential,
    log_partition_function,
    make_context,
    partition_function,
    preset,
    tensor_power_compressed,
)

__version__ = "0.1.0"
