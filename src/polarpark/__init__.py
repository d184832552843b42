"""Parking controllers for unicycle robots in polar coordinates.

The package provides four smooth steering laws (two backstepping designs,
two passivity-style designs with angle barriers), their Lyapunov
certificates, a trajectory simulator, and numerical certification tools.
"""

from .controllers import (
    ControllerKind,
    ControllerSpec,
    Gains,
    delta_shaping,
    omega_tilde,
    psi,
)
from .geometry import (
    CartesianState,
    DomainError,
    PolarState,
    StateSpace,
    cart_to_polar,
    metric,
    polar_to_cart,
    wrap_angle,
)
from .lyapunov import (
    ArgumentOrder,
    CompositeLyapunovFn,
    Compositor,
    CompositorForm,
    LyapunovFn,
    bolsa_decay_bound,
    composite,
)
from .sim import (
    Frame,
    IntegratorKind,
    SimConfig,
    SimStatus,
    Trajectory,
    rhs_polar,
    simulate,
    simulate_unsteered,
)
from .verify import (
    CertReport,
    check_clf,
    check_gradient,
    check_kl_decay,
    check_lemma1,
    check_proposition1,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "ControllerKind",
    "ControllerSpec",
    "Gains",
    "delta_shaping",
    "omega_tilde",
    "psi",
    "CartesianState",
    "DomainError",
    "PolarState",
    "StateSpace",
    "cart_to_polar",
    "metric",
    "polar_to_cart",
    "wrap_angle",
    "ArgumentOrder",
    "CompositeLyapunovFn",
    "Compositor",
    "CompositorForm",
    "LyapunovFn",
    "bolsa_decay_bound",
    "composite",
    "Frame",
    "IntegratorKind",
    "SimConfig",
    "SimStatus",
    "Trajectory",
    "rhs_polar",
    "simulate",
    "simulate_unsteered",
    "CertReport",
    "check_clf",
    "check_gradient",
    "check_kl_decay",
    "check_lemma1",
    "check_proposition1",
    "run_suite",
    "__version__",
]
