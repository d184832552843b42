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

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

TWO_PI = 2.0 * math.pi


class DomainError(ValueError):
    """State left the domain where the requested quantity is defined."""


def wrap_angle(angle: float) -> float:
    """Wrap an angle into the interval (-pi, pi].

    Args:
        angle: Angle in radians, any finite value.

    Returns:
        The equivalent angle in (-pi, pi].
    """
    wrapped = angle - TWO_PI * round(angle / TWO_PI)
    if wrapped <= -math.pi:
        wrapped += TWO_PI
    elif wrapped > math.pi:
        wrapped -= TWO_PI
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
    rho = math.hypot(state.x, state.y)
    if rho == 0.0:
        raise DomainError("polar chart undefined at rho=0")
    delta = wrap_angle(math.atan2(state.y, state.x) + math.pi)
    gamma = wrap_angle(delta - state.theta)
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
