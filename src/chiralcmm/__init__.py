"""Desk-scale simulator of a chiral cavity-magnomechanical system.

Computes classical steady states (in the physical detuning mode the lowest
root of the cubic dispersive self-consistency), linearized drift/diffusion
matrices, stationary Gaussian covariance matrices via the Lyapunov
equation, bipartite/tripartite entanglement measures, filtered-output
teleportation fidelity, and the nonlinear classical dynamics used to
locate the magnon-frequency-comb threshold.
"""

__version__ = "0.1.0"

from .params import (  # noqa: F401
    Detunings,
    DriveSpec,
    SystemParams,
    drive_amplitude,
    thermal_occupancy,
    validate,
)
from .steady_state import (  # noqa: F401
    SteadyField,
    amplitude_for_gm,
    imperfect_means,
    precompensated_detunings,
    resolve_drive,
    self_consistent_solve,
)
from .linear_model import (  # noqa: F401
    LinearModel,
    build_diffusion,
    build_drift,
    build_model,
    is_stable,
    max_stable_coupling,
)
from .lyapunov import extract_block, solve_lyapunov  # noqa: F401
from .measures import (  # noqa: F401
    log_negativity,
    residual_contangle_min,
    symplectic_eigenvalues,
    teleportation_fidelity,
)
