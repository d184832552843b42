"""State representations for unicycle parking in polar coordinates.

A unicycle at position (x, y) with heading theta is described, relative to
a parking target at the origin, by three polar coordinates:

    rho   -- distance to the target,
    delta -- polar angle of the vehicle seen from the target, shifted by pi
             so that delta = 0 means the vehicle sits behind the target,
    gamma -- line-of-sight angle gamma = delta - theta between the heading
             and the direction toward the target.

The transformation is singular at rho = 0, so the polar chart is only used
away from the target.  Four angular state spaces appear throughout the
package: the full plane and the variants that exclude |delta| = pi,
|gamma| = pi, or both.  Each space carries a metric that blows up at the
excluded lines; controllers with a barrier keep trajectories strictly
inside their space.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from types import ModuleType

import numpy as np

TWO_PI = 2.0 * math.pi


class DomainError(ValueError):
    """State left the domain where the requested quantity is defined."""


def _require_members(obj, **kinds) -> None:
    """Raise ValueError unless, for each keyword name=Enum, obj.name is a member of Enum."""
    for name, kind in kinds.items():
        value = getattr(obj, name)
        if not isinstance(value, kind):
            raise ValueError(f"{name} must be a member of {kind.__name__}, got {value!r}")


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


# The angle wrap here, the steering laws in controllers.py and the
# certificates in lyapunov.py are written once, against a numeric namespace
# `xp` holding the math-module names they use: FLOAT_MATH evaluates them on
# floats with the math module, ARRAY_MATH on numpy arrays, element-wise, and
# COMPLEX_MATH the steering laws on Python complex scalars with cmath.  The
# complex-step Jacobian of sim.py uses COMPLEX_MATH: its two partials as two
# scalar calls cost a third to a ninth of one numpy call on two-element
# arrays, whose per-call overhead dwarfs the arithmetic.  `any` reduces a
# domain test to one answer.
FLOAT_MATH = _namespace(
    "float_math", sin=math.sin, cos=math.cos, tan=math.tan, atan=math.atan, sqrt=math.sqrt,
    log1p=math.log1p, exp=_exp_or_inf, atan2=math.atan2, hypot=math.hypot,
    any=bool,
)
ARRAY_MATH = _namespace(
    "array_math", sin=np.sin, cos=np.cos, tan=np.tan, atan=np.arctan, sqrt=np.sqrt,
    log1p=np.log1p, exp=_exp_saturating, atan2=np.arctan2, hypot=np.hypot,
    any=np.any,
)
COMPLEX_MATH = _namespace(
    "complex_math", sin=cmath.sin, cos=cmath.cos, tan=cmath.tan, atan=cmath.atan, sqrt=cmath.sqrt,
    any=bool,
)


def math_for(a, b=None):
    """ARRAY_MATH if `a` or `b` is a numpy array, else FLOAT_MATH."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return ARRAY_MATH
    return FLOAT_MATH


def wrap_float(angle: float) -> float:
    """wrap_angle for one float, with no type test (the Cartesian field's gamma wrap).
    An angle in (-pi, pi] comes back as is, the formula's result there bit for bit (a - 0.0
    is a, -0.0 included); NaN and +-inf fall through and raise in round()."""
    if -math.pi < angle <= math.pi:
        return angle
    wrapped = angle - TWO_PI * round(angle / TWO_PI)
    if wrapped <= -math.pi:
        return wrapped + TWO_PI
    if wrapped > math.pi:
        return wrapped - TWO_PI
    return wrapped


def wrap_angle(angle):
    """Wrap an angle into the interval (-pi, pi].

    Args:
        angle: Angle in radians, any finite value; a float or an array.

    Returns:
        The equivalent angle in (-pi, pi], element-wise for arrays.
    """
    if not isinstance(angle, np.ndarray):
        return wrap_float(angle)
    # np.rint rounds half to even, as round() does in wrap_float, so both
    # paths agree bit for bit; round() returns an int, whose zero has no
    # sign, and adding 0.0 turns the -0.0 of np.rint into that same 0.0.
    wrapped = angle - TWO_PI * (np.rint(angle / TWO_PI) + 0.0)
    low, high = wrapped <= -math.pi, wrapped > math.pi
    wrapped[low] += TWO_PI
    wrapped[high] -= TWO_PI
    return wrapped


@dataclass(frozen=True)
class CartesianState:
    """Unicycle pose in the plane."""

    x: float
    """Position along the world x axis [m]."""

    y: float
    """Position along the world y axis [m]."""

    theta: float
    """Heading angle [rad], unwrapped."""

    def __post_init__(self) -> None:
        for name in ("x", "y", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite {name} in CartesianState")


@dataclass(frozen=True)
class PolarState:
    """Pose relative to the parking target, in polar coordinates.

    Angles are stored unwrapped: simulation integrates delta and gamma as
    real numbers, and wrapping happens only inside the coordinate
    transformations.
    """

    rho: float
    """Distance to the target [m], nonnegative."""

    delta: float
    """Shifted polar angle [rad]."""

    gamma: float
    """Line-of-sight angle [rad], gamma = delta - theta."""

    def __post_init__(self) -> None:
        for name in ("rho", "delta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite {name} in PolarState")
        if self.rho < 0.0:
            raise ValueError(f"negative rho={self.rho} in PolarState")


class StateSpace(Enum):
    """Angular state spaces, paired with the distance coordinate rho > 0.

    S has no angular restriction.  S1 excludes the line |delta| = pi
    (vehicle exactly in front of the target), S2 excludes |gamma| = pi
    (vehicle facing exactly away from the target), and S3 excludes both.
    """

    S = "S"
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"

    @property
    def delta_bounded(self) -> bool:
        """True when the space excludes |delta| >= pi."""
        return self is _S1 or self is _S3

    @property
    def gamma_bounded(self) -> bool:
        """True when the space excludes |gamma| >= pi."""
        return self is _S2 or self is _S3

    def contains_angles(self, delta, gamma):
        """Check whether unwrapped angles lie in the open angular space.

        Takes floats or arrays.  With arrays the answer is element-wise: a
        boolean array, or plain True when the space bounds neither angle.
        Only an angle with |a| >= pi in a bounded coordinate is outside, so
        NaN counts as inside.
        """
        outside = False
        if self.delta_bounded:
            outside = abs(delta) >= math.pi
        if self.gamma_bounded:
            outside = outside | (abs(gamma) >= math.pi)
        return np.logical_not(outside) if isinstance(outside, np.ndarray) else not outside

    def contains(self, state: PolarState) -> bool:
        """Check whether a polar state lies in the open space (rho > 0)."""
        return state.rho > 0.0 and self.contains_angles(state.delta, state.gamma)


# Members looked up once: attribute access on an Enum class is slow, and
# the bounded-angle tests run on every Lyapunov evaluation.
_S1, _S2, _S3 = StateSpace.S1, StateSpace.S2, StateSpace.S3


def polar_image(x, y, theta):
    """(rho, delta, gamma) of a pose, with both angles wrapped into (-pi, pi].

    Takes floats or equal-shape arrays.  No check at rho = 0, where the
    angles are meaningless; cart_to_polar adds it.
    """
    xp, wrap = (ARRAY_MATH, wrap_angle) if isinstance(x, np.ndarray) else (FLOAT_MATH, wrap_float)
    delta = wrap(xp.atan2(y, x) + math.pi)
    return xp.hypot(x, y), delta, wrap(delta - theta)


def cart_to_polar(state: CartesianState) -> PolarState:
    """Transform a Cartesian pose to polar coordinates.

    Args:
        state: Pose with (x, y) != (0, 0).

    Returns:
        PolarState with delta and gamma wrapped into (-pi, pi].

    Raises:
        DomainError: At the target position, where the polar chart is
            undefined.
    """
    rho, delta, gamma = polar_image(state.x, state.y, state.theta)
    if rho == 0.0:
        raise DomainError("polar chart undefined at rho=0")
    return PolarState(rho, delta, gamma)


def polar_to_cart(state: PolarState) -> CartesianState:
    """Transform a polar state back to a Cartesian pose.

    The heading is reconstructed as theta = delta - gamma, which inverts
    cart_to_polar up to angle wrapping.

    Raises:
        DomainError: If rho = 0; the inverse needs a positive distance.
    """
    if state.rho == 0.0:
        raise DomainError("polar chart undefined at rho=0")
    x = -state.rho * math.cos(state.delta)
    y = -state.rho * math.sin(state.delta)
    theta = state.delta - state.gamma
    return CartesianState(x, y, theta)


def metric(space: StateSpace, state: PolarState) -> float:
    """Distance-to-origin measure of a state space.

    The metric is rho + |delta| + |gamma| with each barriered angle a
    replaced by 2*tan(|a|/2), which grows without bound as |a| -> pi.
    rho = 0 is accepted (closure of the space in the distance coordinate);
    angles must lie strictly inside the open angular space.

    Raises:
        DomainError: When a barriered angle sits on or outside |a| = pi,
            where the metric is infinite.
    """
    if not space.contains_angles(state.delta, state.gamma):
        raise DomainError(f"metric infinite on the boundary of {space.value}")
    total = state.rho
    if space.delta_bounded:
        total += 2.0 * math.tan(abs(state.delta) / 2.0)
    else:
        total += abs(state.delta)
    if space.gamma_bounded:
        total += 2.0 * math.tan(abs(state.gamma) / 2.0)
    else:
        total += abs(state.gamma)
    return total
