"""Steering laws that park a unicycle at the origin of the polar chart.

All four controllers share the same forward-velocity feedback

    v = k1 * rho * cos(gamma),

which makes the distance satisfy rho' = -k1 * rho * cos(gamma)^2 and,
after the turn-rate split omega = (k1/2) * sin(2*gamma) + omega_tilde,
decouples the angular subsystem into

    delta' = (k1/2) * sin(2*gamma),      gamma' = -omega_tilde.

The controllers differ only in the steering correction omega_tilde:

    GLOBA   backstepping on the raw angle delta; defined on the whole
            angular plane.
    BARFLI  backstepping on the shaped angle 2*tan(delta/2); the shaping
            acts as a barrier that keeps |delta| < pi, so the vehicle
            never crosses the line directly in front of the target.
    BOLSA   passivity-style law with bounded steering; keeps |gamma| < pi
            (the vehicle never turns its back on the target).
    BAGAL   combines the delta barrier with the gamma barrier.

BOLSA and BAGAL need the gain coupling k1*k3 >= k2^2 for their decrease
certificates; construction rejects gains that violate it unless the
caller explicitly opts out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import ModuleType

import numpy as np

from .geometry import DomainError, PolarState, StateSpace

__all__ = [
    "ControllerKind",
    "Gains",
    "ControllerSpec",
    "ControlInput",
    "BacksteppingAux",
    "forward_velocity",
    "delta_shaping",
    "psi",
    "backstepping_aux",
    "omega_tilde",
    "control",
]


def _exp_or_inf(x: float) -> float:
    # Barrier storage values can exceed the exp overflow threshold (~709);
    # saturating to inf keeps downstream comparisons meaningful.
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _exp_saturating(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.exp(x)


def _namespace(name: str, **functions) -> ModuleType:
    # A module object rather than a SimpleNamespace: CPython specialises
    # attribute calls on modules, which keeps the float path as fast as
    # calling the math module directly.
    namespace = ModuleType(name)
    namespace.__dict__.update(functions)
    return namespace


# The steering laws here and the certificates in lyapunov.py are written once,
# against a numeric namespace `xp` holding the math-module names they use:
# FLOAT_MATH evaluates them on floats with the math module, ARRAY_MATH on
# numpy arrays, element-wise.  `any`/`all` reduce a domain test to one answer.
FLOAT_MATH = _namespace(
    "float_math", sin=math.sin, cos=math.cos, tan=math.tan, atan=math.atan, sqrt=math.sqrt,
    log1p=math.log1p, exp=_exp_or_inf, any=bool, all=bool,
)
ARRAY_MATH = _namespace(
    "array_math", sin=np.sin, cos=np.cos, tan=np.tan, atan=np.arctan, sqrt=np.sqrt,
    log1p=np.log1p, exp=_exp_saturating, any=np.any, all=np.all,
)


def math_for(a, b=None):
    """ARRAY_MATH if `a` or `b` is a numpy array, else FLOAT_MATH."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return ARRAY_MATH
    return FLOAT_MATH


class ControllerKind(Enum):
    """The four steering laws."""

    GLOBA = "globa"
    BARFLI = "barfli"
    BOLSA = "bolsa"
    BAGAL = "bagal"

    @property
    def space(self) -> StateSpace:
        """Open state space on which the controller is defined."""
        return _SPACES[self]

    @property
    def uses_backstepping(self) -> bool:
        """True for the two backstepping designs (GLOBA, BARFLI)."""
        return self in (ControllerKind.GLOBA, ControllerKind.BARFLI)

    @property
    def needs_gain_coupling(self) -> bool:
        """True when the decrease certificate assumes k1*k3 >= k2^2."""
        return self in (ControllerKind.BOLSA, ControllerKind.BAGAL)


# Members looked up once: attribute access on an Enum class, and the
# Python-level Enum hash, cost more than the arithmetic of a scalar call.
_GLOBA, _BARFLI, _BOLSA, _BAGAL = ControllerKind

_SPACES = {
    ControllerKind.GLOBA: StateSpace.S,
    ControllerKind.BARFLI: StateSpace.S1,
    ControllerKind.BOLSA: StateSpace.S2,
    ControllerKind.BAGAL: StateSpace.S3,
}


@dataclass(frozen=True)
class Gains:
    """Positive feedback gains.

    k1 scales the forward velocity, k2 and k3 the steering feedback, and
    k4 the backstepping damping (unused by BOLSA and BAGAL).
    """

    k1: float
    k2: float
    k3: float
    k4: float = 1.0

    def __post_init__(self) -> None:
        for name in ("k1", "k2", "k3", "k4"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"gain {name}={value} must be finite and positive")

    @property
    def coupling_margin(self) -> float:
        """k1*k3 - k2^2; nonnegative when the coupling condition holds."""
        return self.k1 * self.k3 - self.k2**2

    @property
    def q(self) -> float:
        """Gain ratio sqrt(k1/k3) used by the angular certificates."""
        return math.sqrt(self.k1 / self.k3)


@dataclass(frozen=True)
class ControllerSpec:
    """A controller kind with its gains.

    For BOLSA and BAGAL the coupling k1*k3 >= k2^2 is enforced at
    construction.  Pass allow_unproven_gains=True to run such a controller
    with gains outside the certified region (the reference experiments do
    this; convergence is then checked empirically, not guaranteed).
    """

    kind: ControllerKind
    gains: Gains
    allow_unproven_gains: bool = False

    def __post_init__(self) -> None:
        if (
            self.kind.needs_gain_coupling
            and not self.allow_unproven_gains
            and self.gains.coupling_margin < 0.0
        ):
            raise ValueError(
                f"{self.kind.value} requires k1*k3 >= k2^2 "
                f"(margin {self.gains.coupling_margin:.6g}); "
                "pass allow_unproven_gains=True to override"
            )

    @property
    def space(self) -> StateSpace:
        return self.kind.space


@dataclass(frozen=True)
class ControlInput:
    """Velocity commands produced by a controller."""

    v: float
    """Forward velocity [m/s]."""

    omega: float
    """Turn rate [rad/s], omega = (k1/2)*sin(2*gamma) + omega_tilde."""

    omega_tilde: float
    """Steering correction acting on the line-of-sight angle."""


@dataclass(frozen=True)
class BacksteppingAux:
    """Intermediate quantities of the backstepping designs.

    Floats, or arrays when backstepping_aux was given arrays.
    """

    Delta: float
    """Shaped angle: delta itself (GLOBA) or 2*tan(delta/2) (BARFLI)."""

    dDelta_ddelta: float
    """Derivative of the shaping with respect to delta."""

    z: float
    """Backstepping variable z = gamma + (1/2)*arctan(2*k2*Delta)."""

    psi: float
    """Interconnection factor psi(z, gamma); equals cos(2*gamma) at z=0."""


def forward_velocity(state: PolarState, gains: Gains) -> float:
    """Forward velocity feedback v = k1 * rho * cos(gamma).

    Well defined everywhere, including rho = 0.  Negative when the target
    lies behind the vehicle (|gamma| > pi/2), in which case it backs up.
    """
    return gains.k1 * state.rho * math.cos(state.gamma)


def _require_delta_inside(xp, delta) -> None:
    if xp.any(abs(delta) >= math.pi):
        raise DomainError("steering undefined at |delta| >= pi")


def _delta_shaping(xp, kind: ControllerKind, delta):
    if kind is _GLOBA:
        return delta, 1.0
    if kind is _BARFLI:
        _require_delta_inside(xp, delta)
        half_tan = xp.tan(delta / 2.0)
        return 2.0 * half_tan, 1.0 + half_tan * half_tan
    raise ValueError(f"no delta shaping for controller kind {kind.value}")


def delta_shaping(kind: ControllerKind, delta):
    """Shaped angle Delta(delta) and its derivative for backstepping.

    Args:
        kind: GLOBA (identity shaping) or BARFLI (tangent-barrier shaping).
        delta: Unwrapped angle, a float or an array; BARFLI requires
            |delta| < pi.

    Returns:
        (Delta, dDelta/ddelta).

    Raises:
        DomainError: For BARFLI at |delta| >= pi.
        ValueError: For kinds without a backstepping shaping.
    """
    return _delta_shaping(math_for(delta), kind, delta)


def _psi_series(z):
    # Both ratios of psi to second order; below |z| = 1e-8 the truncation
    # error is under double-precision resolution.
    return 1.0 - (2.0 / 3.0) * z * z, z * (1.0 - z * z / 3.0)


def _psi(xp, z, k2, Delta):
    small = abs(z) < 1e-8
    if xp is FLOAT_MATH and small:
        sin_ratio, versine_ratio = _psi_series(z)
    else:
        # Arrays take the series element-wise, after the direct ratios were
        # evaluated at a harmless stand-in for the small z.
        z_direct = z if xp is FLOAT_MATH else np.where(small, 1.0, z)
        sin_z = xp.sin(z_direct)
        sin_ratio = xp.sin(2.0 * z_direct) / (2.0 * z_direct)
        versine_ratio = sin_z * sin_z / z_direct
        if xp is ARRAY_MATH:
            series = _psi_series(z)
            sin_ratio = np.where(small, series[0], sin_ratio)
            versine_ratio = np.where(small, series[1], versine_ratio)
    return (sin_ratio + 2.0 * k2 * Delta * versine_ratio) / xp.sqrt(
        1.0 + 4.0 * k2 * k2 * Delta * Delta
    )


def psi(z, gamma, k2: float, Delta):
    """Interconnection factor of the backstepping laws.

    Defined as (sin(2z - 2*gamma) + sin(2*gamma)) / (2z), where gamma ties
    to z through 2z - 2*gamma = arctan(2*k2*Delta).  Evaluation uses the
    equivalent form

        [sin(2z)/(2z) + 2*k2*Delta * (1 - cos(2z))/(2z)] / sqrt(1 + 4*k2^2*Delta^2)

    which only needs z, k2, Delta.  The factor (1 - cos(2z))/(2z) is
    computed as sin(z)^2 / z, which is free of cancellation; a short series
    replaces both ratios for |z| below 1e-8, where the truncation error is
    under double-precision resolution.  At z = 0 the value is
    1/sqrt(1 + 4*k2^2*Delta^2) = cos(2*gamma) for consistent arguments, and
    psi(0, 0) = 1 is the global maximum.  z and Delta may be floats or
    arrays.
    """
    del gamma  # enters only through the identity above
    return _psi(math_for(z, Delta), z, k2, Delta)


def backstepping_terms(xp, kind: ControllerKind, k2: float, delta, gamma):
    """(Delta, dDelta/ddelta, z) in the namespace `xp`.

    The backstepping quantities without psi, which only the steering law
    needs; the storage functions in lyapunov.py use these three.
    """
    Delta, dDelta = _delta_shaping(xp, kind, delta)
    return Delta, dDelta, gamma + 0.5 * xp.atan(2.0 * k2 * Delta)


def backstepping_aux(kind: ControllerKind, gains: Gains, delta, gamma) -> BacksteppingAux:
    """Assemble the backstepping quantities at an angular state (floats or arrays)."""
    xp = math_for(delta, gamma)
    Delta, dDelta, z = backstepping_terms(xp, kind, gains.k2, delta, gamma)
    return BacksteppingAux(Delta, dDelta, z, _psi(xp, z, gains.k2, Delta))


def _bounded_gamma_factor(xp, gamma):
    # cos(gamma) / (1 + tan(gamma/2)^2)^2 written via the half-angle
    # identity 1/(1 + tan^2) = (1 + cos)/2, so it extends smoothly through
    # |gamma| = pi where it vanishes.
    cos_g = xp.cos(gamma)
    return cos_g * (1.0 + cos_g) ** 2 / 4.0


def steering_correction(xp, kind: ControllerKind, gains: Gains, delta, gamma):
    """omega_tilde of `kind` at `gains`, evaluated in the namespace `xp`.

    The shared body of omega_tilde and of the Lyapunov derivatives, which
    know a kind and gains but no ControllerSpec.
    """
    k1, k2, k3 = gains.k1, gains.k2, gains.k3
    if kind is _BOLSA:
        return k2 * xp.sin(gamma) + k3 * _bounded_gamma_factor(xp, gamma) * delta
    if kind is _BAGAL:
        _require_delta_inside(xp, delta)
        half_tan = xp.tan(delta / 2.0)
        steep_delta = (1.0 + half_tan * half_tan) * half_tan
        return k2 * xp.sin(gamma) + 2.0 * k3 * _bounded_gamma_factor(xp, gamma) * steep_delta
    Delta, dDelta, z = backstepping_terms(xp, kind, k2, delta, gamma)
    gain_sq = 1.0 + 4.0 * k2 * k2 * Delta * Delta
    return gains.k4 * z + dDelta * (
        k1 * k2 * xp.sin(2.0 * gamma) / (2.0 * gain_sq) + k3 * _psi(xp, z, k2, Delta) * Delta
    )


def omega_tilde(spec: ControllerSpec, delta, gamma):
    """Steering correction of a controller at an angular state.

    Args:
        spec: Controller kind and gains.
        delta: Unwrapped angle; must satisfy |delta| < pi for the kinds
            with a delta barrier (BARFLI, BAGAL).
        gamma: Unwrapped line-of-sight angle.  BOLSA and BAGAL extend
            smoothly through |gamma| = pi, where their steering reduces to
            k2*sin(gamma).

    delta and gamma are floats, evaluated with the math module, or
    equal-shape arrays, evaluated element-wise with numpy.

    Returns:
        omega_tilde such that gamma' = -omega_tilde in closed loop.

    Raises:
        DomainError: When the state (for arrays: any element) is outside
            the controller's space in a direction the formula cannot be
            extended through.
    """
    return steering_correction(math_for(delta, gamma), spec.kind, spec.gains, delta, gamma)


def control(spec: ControllerSpec, state: PolarState) -> ControlInput:
    """Full control input (v, omega) at a polar state.

    The turn rate combines the feedforward that cancels the line-of-sight
    drift with the steering correction:

        omega = (k1/2) * sin(2*gamma) + omega_tilde.
    """
    tilde = omega_tilde(spec, state.delta, state.gamma)
    omega = 0.5 * spec.gains.k1 * math.sin(2.0 * state.gamma) + tilde
    return ControlInput(forward_velocity(state, spec.gains), omega, tilde)
