"""Lyapunov certificates for the parking controllers.

Each controller has an angular storage function V(delta, gamma) that is
zero only at the angular origin and decreases along the closed-loop flow

    delta' = (k1/2) * sin(2*gamma),      gamma' = -omega_tilde.

Barriered controllers have storage functions that blow up at the excluded
lines, which is what makes their sublevel sets invariant.

A compositor then combines rho^2 with the angular value into a Lyapunov
function for the full state, V(rho, delta, gamma) = C(rho^2, V_dg) or
C(V_dg, rho^2).  Any C that vanishes only at (0, 0), grows unboundedly,
and has strictly positive partial derivatives off the origin works; the
built-in choices are the plain sum, a log-compressed sum, and an
exponential product.  Custom compositors are screened numerically before
use, with the conditions the certification battery reports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, Sequence

from .controllers import (
    ControllerKind,
    ControllerSpec,
    Gains,
    backstepping_terms,
    math_for,
    steering_law,
)
from .geometry import DomainError, StateSpace

_BOLSA, _BAGAL = ControllerKind.BOLSA, ControllerKind.BAGAL

__all__ = [
    "LyapunovFn",
    "CompositorForm",
    "ArgumentOrder",
    "Compositor",
    "CompositeLyapunovFn",
    "composite",
    "bolsa_decay_bound",
]


@dataclass(frozen=True)
class LyapunovFn:
    """Angular storage function matched to a controller kind.

    value, grad and vdot take floats, evaluated with the math module, or
    equal-shape arrays of angles, evaluated element-wise with numpy.
    Gain-only constants are computed once per instance.
    """

    kind: ControllerKind
    gains: Gains

    @classmethod
    def for_controller(cls, spec: ControllerSpec) -> "LyapunovFn":
        return cls(spec.kind, spec.gains)

    @cached_property
    def space(self) -> StateSpace:
        return self.kind.space

    @cached_property
    def _q(self) -> float:
        return self.gains.q

    @cached_property
    def _q_sq(self) -> float:
        # k1/k3 weights z^2 in the backstepping storage functions.
        return self.gains.k1 / self.gains.k3

    @cached_property
    def _bolsa_slopes(self) -> tuple[float, float]:
        g = self.gains
        return g.k3 * (1.0 + self._q / g.k2), g.k3 / (2.0 * self._q * g.k2)

    @cached_property
    def _bagal_amp(self) -> float:
        g, q = self.gains, self._q
        return max(g.k1 * q, 2.0 * math.sqrt(g.k1 * g.k2)) / (3.0 * g.k2 * q * q)

    def _require_inside(self, xp, delta, gamma) -> None:
        if not xp.all(self.space.contains_angles(delta, gamma)):
            raise DomainError(f"barrier blow-up outside the open space {self.space.value}")

    def _bolsa_terms(self, xp, delta, gamma):
        q = self._q
        t = xp.tan(gamma / 2.0)
        u = delta * delta + 4.0 * q * q * t * t
        return t, u, delta + 2.0 * q * t

    def _bagal_terms(self, xp, delta, gamma):
        q = self._q
        d = xp.tan(delta / 2.0)
        t = xp.tan(gamma / 2.0)
        return d, t, d * d + q * q * t * t, d + q * t

    def value(self, delta, gamma):
        """V(delta, gamma) >= 0, zero only at the angular origin.

        Raises:
            DomainError: On or outside a barriered line, where the
                storage function is infinite (for arrays: at any element).
        """
        xp = math_for(delta, gamma)
        self._require_inside(xp, delta, gamma)
        g = self.gains
        if self.kind is _BOLSA:
            q = self._q
            _, u, shifted = self._bolsa_terms(xp, delta, gamma)
            return g.k3 * (1.0 + (2.0 * q * q + u) / (2.0 * q * g.k2)) * u + shifted * shifted
        if self.kind is _BAGAL:
            _, _, u, shifted = self._bagal_terms(xp, delta, gamma)
            return self._bagal_amp * ((1.0 + u) ** 3 - 1.0) + shifted * shifted
        Delta, _, z = backstepping_terms(xp, self.kind, g.k2, delta, gamma)
        return Delta**2 + self._q_sq * z**2

    def grad(self, delta, gamma):
        """Analytic gradient (dV/ddelta, dV/dgamma)."""
        xp = math_for(delta, gamma)
        self._require_inside(xp, delta, gamma)
        g = self.gains
        if self.kind is _BOLSA:
            q = self._q
            t, u, shifted = self._bolsa_terms(xp, delta, gamma)
            sec_sq = 1.0 + t * t
            c1, c2 = self._bolsa_slopes
            outer = c1 + 2.0 * c2 * u
            d_delta = outer * 2.0 * delta + 2.0 * shifted
            d_gamma = outer * 4.0 * q * q * t * sec_sq + 2.0 * shifted * q * sec_sq
            return d_delta, d_gamma
        if self.kind is _BAGAL:
            q = self._q
            d, t, u, shifted = self._bagal_terms(xp, delta, gamma)
            outer = 3.0 * self._bagal_amp * (1.0 + u) ** 2
            d_delta = (outer * 2.0 * d + 2.0 * shifted) * (1.0 + d * d) / 2.0
            d_gamma = (outer * 2.0 * q * q * t + 2.0 * shifted * q) * (1.0 + t * t) / 2.0
            return d_delta, d_gamma
        Delta, dDelta, z = backstepping_terms(xp, self.kind, g.k2, delta, gamma)
        q_sq = self._q_sq
        dz_ddelta = g.k2 * dDelta / (1.0 + 4.0 * g.k2**2 * Delta**2)
        d_delta = 2.0 * Delta * dDelta + 2.0 * q_sq * z * dz_ddelta
        d_gamma = 2.0 * q_sq * z
        return d_delta, d_gamma

    def vdot(self, delta, gamma):
        """Exact derivative of V along the matched closed loop.

        For the backstepping kinds this is the closed-form expression

            -2*k1*k2*Delta^2/sqrt(1 + 4*k2^2*Delta^2) * dDelta/ddelta
            - 2*k4*(k1/k3)*z^2,

        which the cross-term cancellation of the design makes equal to the
        chain-rule derivative.  For BOLSA and BAGAL it is the chain rule
        with analytic partials; their published decrease statements are
        inequalities, and acceptance criterion 03 in tests/test_acceptance.py
        checks BOLSA's against bolsa_decay_bound.
        """
        xp = math_for(delta, gamma)
        g = self.gains
        if self.kind is _BOLSA or self.kind is _BAGAL:
            d_delta, d_gamma = self.grad(delta, gamma)
            delta_rate = 0.5 * g.k1 * xp.sin(2.0 * gamma)
            gamma_rate = -steering_law(xp, self.kind, g)(delta, gamma)
            return d_delta * delta_rate + d_gamma * gamma_rate
        self._require_inside(xp, delta, gamma)
        Delta, dDelta, z = backstepping_terms(xp, self.kind, g.k2, delta, gamma)
        root = xp.sqrt(1.0 + 4.0 * g.k2**2 * Delta**2)
        return -2.0 * g.k1 * g.k2 * Delta**2 / root * dDelta - 2.0 * g.k4 * self._q_sq * z**2


def bolsa_decay_bound(gains: Gains, delta, gamma, shift_weight: float = 1.0):
    """Certified upper bound on the BOLSA storage derivative.

    Returns -2*k1*k2*V0 - (3/2)*k2*(delta + w*q*tan(gamma/2))^2 - 2*k1*q*V0^2
    with V0 = 4*tan(gamma/2)^2 and w = shift_weight.  The default weight 1
    is the stated certificate; weight 2 matches the combined variable
    delta + 2*q*tan(gamma/2) that appears in the storage function itself.
    Acceptance criterion 03 (tests/test_acceptance.py) evaluates both, the
    only check that does.  delta and gamma may be floats or arrays.
    """
    q = gains.q
    t = math_for(gamma).tan(gamma / 2.0)
    v0 = 4.0 * t * t
    penalty = delta + shift_weight * q * t
    return (-2.0 * gains.k1 * gains.k2 * v0 - 1.5 * gains.k2 * penalty * penalty
            - 2.0 * gains.k1 * q * v0 * v0)


class CompositorForm(Enum):
    """Built-in ways to merge rho^2 with the angular storage value."""

    SUM = "sum"
    LOG_SUM = "log_sum"
    EXP_PRODUCT = "exp_product"
    CUSTOM = "custom"


class ArgumentOrder(Enum):
    """Which quantity feeds the first compositor argument."""

    RHO_FIRST = "rho_first"
    VDG_FIRST = "vdg_first"


@dataclass(frozen=True)
class Compositor:
    """Two-argument merging function C(r, s) with its partial derivatives.

    Built-in forms: SUM C = r + s, LOG_SUM C = ln(1 + r) + s, and
    EXP_PRODUCT C = (1 + r)*exp(s) - 1.  CUSTOM supplies callables for the
    value and both partials; composite() screens them numerically.

    value and partials take floats or equal-shape arrays.  CUSTOM callables
    are called with whatever the caller passes, so they must work
    element-wise on arrays (use numpy functions, not math) to serve the
    certification checks; a partial may return a constant.  fn must also
    accept complex arrays, which check_gradient's complex step passes.
    """

    form: CompositorForm
    order: ArgumentOrder = ArgumentOrder.RHO_FIRST
    fn: Callable[[float, float], float] | None = None
    dfn_dr: Callable[[float, float], float] | None = None
    dfn_ds: Callable[[float, float], float] | None = None

    def __post_init__(self) -> None:
        if self.form is CompositorForm.CUSTOM:
            if not (self.fn and self.dfn_dr and self.dfn_ds):
                raise ValueError("custom compositor needs fn, dfn_dr, dfn_ds")
        elif self.fn or self.dfn_dr or self.dfn_ds:
            raise ValueError("callables are only accepted with the CUSTOM form")

    @classmethod
    def sum_form(cls, order: ArgumentOrder = ArgumentOrder.RHO_FIRST) -> "Compositor":
        return cls(CompositorForm.SUM, order)

    @classmethod
    def log_sum(cls, order: ArgumentOrder = ArgumentOrder.RHO_FIRST) -> "Compositor":
        return cls(CompositorForm.LOG_SUM, order)

    @classmethod
    def exp_product(cls, order: ArgumentOrder = ArgumentOrder.RHO_FIRST) -> "Compositor":
        return cls(CompositorForm.EXP_PRODUCT, order)

    @classmethod
    def custom(
        cls,
        fn: Callable[[float, float], float],
        dfn_dr: Callable[[float, float], float],
        dfn_ds: Callable[[float, float], float],
        order: ArgumentOrder = ArgumentOrder.RHO_FIRST,
    ) -> "Compositor":
        return cls(CompositorForm.CUSTOM, order, fn, dfn_dr, dfn_ds)

    def value(self, r, s):
        """C(r, s); exp_product saturates to inf instead of overflowing."""
        if self.form is CompositorForm.SUM:
            return r + s
        if self.form is CompositorForm.LOG_SUM:
            return math_for(r).log1p(r) + s
        if self.form is CompositorForm.EXP_PRODUCT:
            return (1.0 + r) * math_for(s).exp(s) - 1.0
        return self.fn(r, s)

    def partials(self, r, s):
        """(dC/dr, dC/ds)."""
        if self.form is CompositorForm.SUM:
            return 1.0, 1.0
        if self.form is CompositorForm.LOG_SUM:
            return 1.0 / (1.0 + r), 1.0
        if self.form is CompositorForm.EXP_PRODUCT:
            exp_s = math_for(s).exp(s)
            return exp_s, (1.0 + r) * exp_s
        return self.dfn_dr(r, s), self.dfn_ds(r, s)

    def screen(self, grid: Sequence[float]) -> tuple[float, tuple[float, float], str]:
        """Worst (margin, point, condition) of the merge-function conditions.

        grid starts at 0 and increases.  Margins, negative where the
        condition holds, on grid x grid:

            zero-at-origin       |C(0, 0)| - 1e-12
            positive-off-origin  -C(r, s) off the origin
            positive-partials    -dC/dr and -dC/ds off the origin, each its own margin
            diagonal-increase    C(u, u) - C(t, t) for consecutive positive u < t, at (t, t)

        NaN counts as +inf, and the first point with the worst margin wins.
        The callables are called with floats.  A built-in form's screen is
        memoized per (form, order, grid); a custom one's callables may be
        anything, so it runs on every call.
        """
        if self.form is CompositorForm.CUSTOM:
            return _screen.__wrapped__(self, grid)
        return _screen(self, tuple(grid))


@lru_cache(maxsize=32)
def _screen(comp: Compositor, grid: Sequence[float]) -> tuple[float, tuple[float, float], str]:
    def margins():
        yield abs(comp.value(0.0, 0.0)) - 1e-12, (0.0, 0.0), "zero-at-origin"
        for r in grid:
            for s in grid:
                if r or s:
                    yield -comp.value(r, s), (r, s), "positive-off-origin"
                    for p in comp.partials(r, s):
                        yield -p, (r, s), "positive-partials"
        diag = [comp.value(t, t) for t in grid[1:]]
        for a, b, t in zip(diag, diag[1:], grid[2:]):
            yield a - b, (t, t), "diagonal-increase"

    return max(
        ((math.inf if math.isnan(m) else float(m), point, condition)
         for m, point, condition in margins()),
        key=lambda item: item[0],
    )


@dataclass(frozen=True)
class CompositeLyapunovFn:
    """Full-state Lyapunov function built from a compositor.

    value, gradient and vdot take floats or equal-shape arrays of
    (rho, delta, gamma), like LyapunovFn.
    """

    compositor: Compositor
    angular: LyapunovFn

    def _arguments(self, rho, delta, gamma):
        # (r, s) of the compositor: (rho^2, V_dg), or (V_dg, rho^2) with VDG_FIRST.
        angular, rho_sq = self.angular.value(delta, gamma), rho * rho
        if self.compositor.order is ArgumentOrder.RHO_FIRST:
            return rho_sq, angular
        return angular, rho_sq

    def _partials(self, rho, delta, gamma):
        # (dC/d(rho^2), dC/dV_dg) at the state, whichever argument order.
        partials = self.compositor.partials(*self._arguments(rho, delta, gamma))
        return partials if self.compositor.order is ArgumentOrder.RHO_FIRST else partials[::-1]

    def value(self, rho, delta, gamma):
        return self.compositor.value(*self._arguments(rho, delta, gamma))

    def log1p_value(self, rho, delta, gamma):
        """log(1 + V), ordered as V; for exp_product log1p(r) + s, finite where V overflows."""
        if self.compositor.form is not CompositorForm.EXP_PRODUCT:
            return math_for(rho, delta).log1p(self.value(rho, delta, gamma))
        r, s = self._arguments(rho, delta, gamma)
        return math_for(r).log1p(r) + s

    def gradient(self, rho, delta, gamma):
        """Analytic gradient (dV/drho, dV/ddelta, dV/dgamma)."""
        p_rho_sq, p_angular = self._partials(rho, delta, gamma)
        dv_ddelta, dv_dgamma = self.angular.grad(delta, gamma)
        return (
            p_rho_sq * 2.0 * rho,
            p_angular * dv_ddelta,
            p_angular * dv_dgamma,
        )

    def vdot(self, rho, delta, gamma):
        """Exact derivative along the matched closed loop.

        Chain rule on C(rho^2, V_dg): the distance argument contributes
        dC/d(rho^2) * (-2*k1*rho^2*cos(gamma)^2) and the angular argument
        contributes dC/dV_dg * V_dg'.
        """
        p_rho_sq, p_angular = self._partials(rho, delta, gamma)
        k1 = self.angular.gains.k1
        cos_g = math_for(gamma).cos(gamma)
        rho_sq_rate = -2.0 * k1 * rho * rho * cos_g * cos_g
        return p_rho_sq * rho_sq_rate + p_angular * self.angular.vdot(delta, gamma)


_SCREEN_GRID = [0.0] + [10.0 ** e for e in range(-6, 5)]


def composite(comp: Compositor, fn: LyapunovFn) -> CompositeLyapunovFn:
    """Build a full-state Lyapunov function, screening custom compositors.

    Custom compositors must meet Compositor.screen's conditions on the log
    grid r, s in [0, 1e4]: zero at the origin, positive elsewhere, strictly
    positive partials, increasing along the diagonal.  This is a screen,
    not a proof.  Built-in forms meet the conditions exactly and are not
    screened, and neither is a CompositeLyapunovFn built directly.

    Raises:
        ValueError: Naming the worst condition, its witness and margin.
    """
    if comp.form is CompositorForm.CUSTOM:
        margin, (r, s), condition = comp.screen(_SCREEN_GRID)
        if margin >= 0.0:
            raise ValueError(
                f"compositor fails {condition} at (r, s) = ({r:.3e}, {s:.3e}): margin {margin:.3e}"
            )
    return CompositeLyapunovFn(comp, fn)
