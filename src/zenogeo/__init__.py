"""zenogeo: survival probabilities, measurement-induced (Zeno) dynamics and
their geometric formulation on the space of rays, with a worked qubit.
"""

from .geometry import (
    QuadraticFunction,
    differential,
    from_chart,
    hamiltonian_vector_field,
    homogeneous_expectation,
    jordan_bracket,
    metric_G,
    poisson_bracket,
    projective_metric_length,
    symplectic_Omega,
    to_chart,
)
from .linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    evolve,
    expm_antihermitian,
    normalize,
    short_time_coefficient,
    survival_amplitude,
    survival_probability,
    zeno_time,
)
from .qubit import (
    BlochPoint,
    QubitHamiltonian,
    bloch_map,
    frozen_state_check,
    integrate_zeno_flow,
    qubit_zeno_time,
    zeno_flow_generator,
)
from .zeno import (
    ZenoSetup,
    ZenoTrajectory,
    convergence_scan,
    measured_trajectory,
    zeno_hamiltonian,
    zeno_limit_unitary,
    zeno_product,
)

__version__ = "0.1.0"
