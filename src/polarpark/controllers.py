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
certificates, BAGAL's also k3 <= max(k1/h*, 4*k2/h*^2), h* = 0.0567 being the
maximum of (x - 1)/(x*(1 + x)^2) over x > 0 (this package's bound, not the
paper's); construction rejects other gains unless the caller explicitly opts out.

steering_law(xp, kind, gains) binds one law for a numeric namespace: two
kernels, one per family.  The bounded kernel (BOLSA, BAGAL) serves every
namespace; the backstepping kernel (GLOBA, BARFLI) serves the scalar ones
(floats for the simulator's right-hand sides, complex scalars for its
complex-step Jacobian) and calls no helper.  Arrays compose
backstepping_terms and _psi instead (lyapunov.py uses the first alone): the
reference the kernel is tested to equal bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .geometry import ARRAY_MATH, FLOAT_MATH, DomainError, StateSpace, _require_members, math_for

__all__ = [
    "ControllerKind",
    "Gains",
    "ControllerSpec",
    "delta_shaping",
    "psi",
    "omega_tilde",
    "steering_law",
]


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
    def needs_gain_coupling(self) -> bool:
        """True when the decrease certificate assumes k1*k3 >= k2^2."""
        return self in (ControllerKind.BOLSA, ControllerKind.BAGAL)


# Members looked up once: attribute access on an Enum class, and the
# Python-level Enum hash, cost more than the arithmetic of a scalar call.
_GLOBA, _BARFLI, _BOLSA, _BAGAL = ControllerKind

_X_STAR = (3.0 + math.sqrt(17.0)) / 4.0  # where h* of BAGAL's k3 bound (above) is attained
_H_STAR = (_X_STAR - 1.0) / (_X_STAR * (1.0 + _X_STAR) ** 2)

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

    For BOLSA and BAGAL the gain bounds of the module docstring are enforced
    at construction.  Pass allow_unproven_gains=True to run such a controller
    with gains outside the certified region (the reference experiments do
    this; convergence is then checked empirically, not guaranteed).
    """

    kind: ControllerKind
    gains: Gains
    allow_unproven_gains: bool = False

    def __post_init__(self) -> None:
        _require_members(self, kind=ControllerKind)
        if not self.kind.needs_gain_coupling or self.allow_unproven_gains:
            return
        g, opt_out = self.gains, "pass allow_unproven_gains=True to override"
        if g.coupling_margin < 0.0:
            raise ValueError(f"{self.kind.value} requires k1*k3 >= k2^2 "
                             f"(margin {g.coupling_margin:.6g}); {opt_out}")
        if self.kind is _BAGAL and g.k3 > max(g.k1 / _H_STAR, 4.0 * g.k2 / _H_STAR**2):
            raise ValueError(f"bagal requires k3 <= max(k1/h*, 4*k2/h*^2) with h* = {_H_STAR:.6g} "
                             f"(k3 = {g.k3:.6g}); {opt_out}")

    @property
    def space(self) -> StateSpace:
        """Open state space of the controller's kind."""
        return self.kind.space

    @cached_property
    def _float_law(self):  # the float law of omega_tilde and rhs_polar, bound on first use
        return steering_law(FLOAT_MATH, self.kind, self.gains)

    def __getstate__(self) -> dict:  # the law is a closure, which pickle cannot hold
        return {name: v for name, v in self.__dict__.items() if name != "_float_law"}


_DELTA_BARRIER = "steering undefined at |delta| >= pi"


def _delta_shaping(xp, kind: ControllerKind, delta):
    if kind is _GLOBA:
        return delta, 1.0
    if kind is _BARFLI:
        if xp.any(abs(delta) >= math.pi):
            raise DomainError(_DELTA_BARRIER)
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
    # A scalar z, float or complex (the complex-step Jacobian), takes the
    # series or the direct form whole; the direct form divides by zero at 0.
    if xp is not ARRAY_MATH and small:
        sin_ratio, versine_ratio = _psi_series(z)
    else:
        # Arrays take the series element-wise, each form evaluated at a
        # harmless stand-in where the other applies (a huge z would
        # overflow z*z in the series).
        z_direct = np.where(small, 1.0, z) if xp is ARRAY_MATH else z
        sin_z = xp.sin(z_direct)
        sin_ratio = xp.sin(2.0 * z_direct) / (2.0 * z_direct)
        versine_ratio = sin_z * sin_z / z_direct
        if xp is ARRAY_MATH:
            series = _psi_series(np.where(small, z, 0.0))
            sin_ratio = np.where(small, series[0], sin_ratio)
            versine_ratio = np.where(small, series[1], versine_ratio)
    return (sin_ratio + 2.0 * k2 * Delta * versine_ratio) / xp.sqrt(
        1.0 + 4.0 * k2 * k2 * Delta * Delta
    )


def psi(z, k2: float, Delta):
    """Interconnection factor of the backstepping laws.

    Defined as (sin(2z - 2*gamma) + sin(2*gamma)) / (2z), where gamma ties
    to z through 2z - 2*gamma = arctan(2*k2*Delta), so gamma is not an
    argument.  Evaluation uses the equivalent form

        [sin(2z)/(2z) + 2*k2*Delta * (1 - cos(2z))/(2z)] / sqrt(1 + 4*k2^2*Delta^2)

    which only needs z, k2, Delta.  The factor (1 - cos(2z))/(2z) is
    computed as sin(z)^2 / z, which is free of cancellation; a short series
    replaces both ratios for |z| below 1e-8, where the truncation error is
    under double-precision resolution.  At z = 0 the value is
    1/sqrt(1 + 4*k2^2*Delta^2) = cos(2*gamma) for consistent arguments, and
    psi = 1 at z = Delta = 0 is the global maximum.  z and Delta may be
    floats or arrays.
    """
    return _psi(math_for(z, Delta), z, k2, Delta)


def backstepping_terms(xp, kind: ControllerKind, k2: float, delta, gamma):
    """(Delta, dDelta/ddelta, z) in the namespace `xp`.

    The backstepping quantities without psi, which only the steering law
    needs; the storage functions in lyapunov.py use these three.
    """
    Delta, dDelta = _delta_shaping(xp, kind, delta)
    return Delta, dDelta, gamma + 0.5 * xp.atan(2.0 * k2 * Delta)


def steering_law(xp, kind: ControllerKind, gains: Gains):
    """omega_tilde of `kind` at `gains` as law(delta, gamma), evaluated in the namespace `xp`.

    The one statement of each steering law, with the gains bound once, as
    two kernels, one per family, each branching only on a flag set here.
    The bounded kernel (BOLSA; BAGAL adds the delta barrier) serves every
    namespace.  For the scalar namespaces (FLOAT_MATH, COMPLEX_MATH) the
    backstepping kernel (GLOBA; BARFLI shapes the angle) is fused: a call
    runs no helper, and it repeats, operation for operation, the
    composition of backstepping_terms and _psi that arrays use, its
    tested reference: they agree bit for bit.
    """
    k1, k2, k3, k4 = gains.k1, gains.k2, gains.k3, gains.k4
    sin, cos, tan, atan, sqrt, any_ = xp.sin, xp.cos, xp.tan, xp.atan, xp.sqrt, xp.any
    pi = math.pi
    if kind is _BOLSA or kind is _BAGAL:
        barrier = kind is _BAGAL
        weight = 2.0 * k3 if barrier else k3

        def law(delta, gamma):
            if barrier:  # BAGAL steers on the steep angle tan(delta/2) / cos(delta/2)^2
                if any_(abs(delta) >= pi):
                    raise DomainError(_DELTA_BARRIER)
                half_tan = tan(delta / 2.0)
                delta = (1.0 + half_tan * half_tan) * half_tan
            # cos(gamma) / (1 + tan(gamma/2)^2)^2 written via the half-angle
            # identity 1/(1 + tan^2) = (1 + cos)/2, so it extends smoothly
            # through |gamma| = pi where it vanishes.
            cos_g = cos(gamma)
            return k2 * sin(gamma) + weight * (cos_g * (1.0 + cos_g) ** 2 / 4.0) * delta
        return law
    if xp is ARRAY_MATH:
        def law(delta, gamma):
            Delta, dDelta, z = backstepping_terms(xp, kind, k2, delta, gamma)
            gain_sq = 1.0 + 4.0 * k2 * k2 * Delta * Delta
            return k4 * z + dDelta * (
                k1 * k2 * sin(2.0 * gamma) / (2.0 * gain_sq) + k3 * _psi(xp, z, k2, Delta) * Delta)
        return law
    # Left-to-right association makes k1*k2*s equal k1k2*s and
    # 4.0*k2*k2*D*D equal four_k2_sq*D*D, so the products hoisted here keep
    # every rounding of the reference; psi's sqrt(1 + 4*k2^2*Delta^2) is
    # the sqrt of gain_sq, and its 2*k2*Delta the argument of atan.
    k1k2, two_k2, four_k2_sq = k1 * k2, 2.0 * k2, 4.0 * k2 * k2
    barrier = kind is _BARFLI

    def law(delta, gamma):
        if barrier:  # BARFLI: the shaped angle Delta = 2*tan(delta/2)
            if abs(delta) >= pi:
                raise DomainError(_DELTA_BARRIER)
            half_tan = tan(delta / 2.0)
            Delta, dDelta = 2.0 * half_tan, 1.0 + half_tan * half_tan
        else:  # GLOBA: a product by dDelta = 1.0 keeps the reference's complex-step zero signs
            Delta, dDelta = delta, 1.0
        two_k2_Delta = two_k2 * Delta
        z = gamma + 0.5 * atan(two_k2_Delta)
        gain_sq = 1.0 + four_k2_sq * Delta * Delta
        if abs(z) < 1e-8:
            sin_ratio, versine_ratio = 1.0 - (2.0 / 3.0) * z * z, z * (1.0 - z * z / 3.0)
        else:
            sin_z = sin(z)
            sin_ratio, versine_ratio = sin(2.0 * z) / (2.0 * z), sin_z * sin_z / z
        psi_z = (sin_ratio + two_k2_Delta * versine_ratio) / sqrt(gain_sq)
        return k4 * z + dDelta * (
            k1k2 * sin(2.0 * gamma) / (2.0 * gain_sq) + k3 * psi_z * Delta)
    return law


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
    xp = math_for(delta, gamma)
    law = spec._float_law if xp is FLOAT_MATH else steering_law(xp, spec.kind, spec.gains)
    return law(delta, gamma)
