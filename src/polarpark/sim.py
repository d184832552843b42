"""Closed-loop simulation of the parking controllers.

Trajectories can be integrated in either frame:

    polar      integrates (rho, delta, gamma) with the cancellation
               delta' = (k1/2)*sin(2*gamma) already applied; angles evolve
               unwrapped on the real line.
    cartesian  integrates the raw kinematics (x, y, theta) and computes
               the feedback from the wrapped polar image of the pose, the
               way an implementation on a vehicle would.

Both frames describe the same flow while the trajectory stays inside the
principal angle range, which is how the frame-equivalence checks are run.
Each field is autonomous, f(y) on 3-tuples, with the float steering law
(controllers.steering_law) bound once per run; post-processing evaluates
omega_tilde once, on the sample arrays.

Integrators: a fixed-step classic Runge-Kutta scheme for bit-reproducible
baselines, and an adaptive Dormand-Prince 5(4) pair for accuracy.  Results
are sampled on the uniform grid k*dt in both cases.  The adaptive
integrator lets error control alone choose its steps (a step is cut short
only at the end of the horizon) and fills the grid points inside each
accepted step from the pair's quartic dense output (Shampine's
interpolant, the one scipy's RK45 uses; Hairer, Norsett & Wanner, Solving
ODEs I, section II.6), so the sampling interval does not bound the step
size.  Capture is tested on the grid samples.

In the polar frame the adaptive integrator also watches for stiffness.
Near the barrier lines the steering grows without bound, and the gamma
mode can decay 1e4 times faster than the state moves, which holds an
explicit method to steps at its stability limit.  DP5 runs the stiffness
test of Hairer & Wanner's DOPRI5 (Solving ODEs II, section IV.2) on every
10th accepted step, and on every step once an estimate was positive:
after 15 estimates of h*|lambda| above 3.25, unless 6 in a row below it
reset the count, the run continues with ode23s, the
linearly implicit Rosenbrock pair of Shampine & Reichelt (SIAM J. Sci.
Comput. 18, 1997), in the manner of LSODA.  ode23s uses the field's
Jacobian, with the partials of omega_tilde taken by complex step, and
hands back to DP5 once h times the Jacobian's spectral radius stays
below 1 for 6 steps.  It keeps DP5's error norm, output grid (from its own
continuous extension), capture test, h_min and domain retries.  Each
stiff stretch adds `stiff: ode23s on t in [a, b], N steps, M Jacobians`
to the trajectory's note; a run that never switches is DP5's alone.  The
Cartesian frame and simulate_unsteered stay DP5-only.  The fixed-step
integrator notes `rk4 unstable: ...` on the first step whose estimate
of h*|lambda| exceeds RK4's stability bound of about 2.8.

The adaptive integrator reports a boundary stop when step control pushes
the step size below h_min, which happens when the state runs into an
excluded set (for example a barrier line approached too closely to resolve
in double precision); the fixed-step one reports it when a stage leaves the
controller's space.  With either integrator, a run whose sampled state
(unwrapped, in both frames) leaves the space ends before its first sample
outside, as a boundary stop, and keeps no remark on a step that starts
after its last sample: the wrapped Cartesian feedback and the extended
bounded-gamma laws do not notice such a crossing themselves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .controllers import ControllerSpec, omega_tilde, steering_law
from .geometry import (
    COMPLEX_MATH,
    FLOAT_MATH,
    CartesianState,
    DomainError,
    PolarState,
    cart_to_polar,
    polar_image,
    polar_to_cart,
)
from .lyapunov import CompositeLyapunovFn

__all__ = [
    "Frame",
    "IntegratorKind",
    "SimStatus",
    "SimConfig",
    "Trajectory",
    "rhs_polar",
    "simulate",
    "simulate_unsteered",
    "write_csv",
]


def write_csv(path, header, rows) -> None:
    """Write a header and rows as CSV: None is an empty cell, any other value str().

    str() of a float is its shortest round-trip form, so a file is
    byte-stable for identical inputs.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(
            ",".join(["" if value is None else str(value) for value in row]) + "\n" for row in rows
        )


class Frame(Enum):
    POLAR = "polar"
    CARTESIAN = "cartesian"


class IntegratorKind(Enum):
    RK4_FIXED = "rk4"
    RK45_ADAPTIVE = "rk45"


class SimStatus(Enum):
    CAPTURED = "captured"
    HORIZON_REACHED = "horizon_reached"
    BOUNDARY_STOP = "boundary_stop"


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings.

    dt is the output sampling interval; with the fixed-step integrator it
    is also the step size, while the adaptive integrator's steps are set
    by rtol and atol alone.  capture_radius <= 0 disables capture
    detection.  Every numeric setting must be finite.
    """

    dt: float = 0.05
    t_final: float = 60.0
    capture_radius: float = 1e-3
    frame: Frame = Frame.POLAR
    integrator: IntegratorKind = IntegratorKind.RK45_ADAPTIVE
    rtol: float = 1e-10
    atol: float = 1e-11
    h_min: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("dt", "t_final", "capture_radius", "rtol", "atol", "h_min"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0.0 < self.dt <= self.t_final):
            raise ValueError(f"need 0 < dt <= t_final, got dt={self.dt}, t_final={self.t_final}")
        for name in ("rtol", "atol", "h_min"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass
class Trajectory:
    """Sampled closed-loop trajectory, stored column-wise.

    All arrays share the time grid t.  The Cartesian columns are always
    populated: integrated directly in the Cartesian frame, reconstructed
    from the polar state otherwise.  lyapunov holds the attached composite
    Lyapunov value and is NaN when none was attached.  note holds the
    integrator's remarks (stiff stretches, rk4 instability) and then the
    reason for a boundary stop, joined by "; "; it is empty for a plain run.
    """

    t: np.ndarray
    rho: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    v: np.ndarray
    omega: np.ndarray
    omega_tilde: np.ndarray
    lyapunov: np.ndarray
    status: SimStatus
    frame: Frame
    capture_time: float | None = None
    note: str = ""
    _columns = ("rho", "delta", "gamma", "x", "y", "theta", "v", "omega", "omega_tilde", "lyapunov")

    def __post_init__(self) -> None:
        n = len(self.t)
        for name in self._columns:
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} length mismatch")
        if n > 1 and not np.all(np.diff(self.t) > 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)

    def state(self, i: int) -> PolarState:
        return PolarState(float(self.rho[i]), float(self.delta[i]), float(self.gamma[i]))

    def final_state(self) -> PolarState:
        return self.state(len(self.t) - 1)

    def to_csv(self, path) -> None:
        """Write the trajectory with the fixed header t,x,y,theta,rho,delta,gamma,v,omega,V."""
        columns = (self.t, self.x, self.y, self.theta, self.rho, self.delta, self.gamma,
                   self.v, self.omega, self.lyapunov)
        write_csv(path, ("t", "x", "y", "theta", "rho", "delta", "gamma", "v", "omega", "V"),
                  zip(*(column.tolist() for column in columns)))


def _polar_field(spec: ControllerSpec):
    """The closed-loop polar field as f(y) on (rho, delta, gamma) tuples."""
    k1, half_k1 = spec.gains.k1, 0.5 * spec.gains.k1
    law, cos, sin = steering_law(FLOAT_MATH, spec.kind, spec.gains), math.cos, math.sin

    def f(y):
        rho, delta, gamma = y
        cos_g = cos(gamma)
        return (-k1 * rho * cos_g * cos_g, half_k1 * sin(2.0 * gamma), -law(delta, gamma))

    return f


def _polar_jacobian(spec: ControllerSpec):
    """The polar field's Jacobian as jac(y) -> its nonzero entries (J00, J02, J12, J21, J22).

    rho' depends on rho and gamma, delta' on gamma alone and gamma' on the
    two angles.  The partials of omega_tilde are complex-step derivatives,
    Im w(x + i*h*e_k)/h with h = 1e-30, from two calls of the steering law
    on Python complex scalars (cmath): free of cancellation, so exact to
    rounding.
    """
    k1, law = spec.gains.k1, steering_law(COMPLEX_MATH, spec.kind, spec.gains)

    def jac(y):
        rho, delta, gamma = y
        w_delta = law(delta + 1e-30j, gamma).imag * 1e30
        w_gamma = law(delta, gamma + 1e-30j).imag * 1e30
        cos_g = math.cos(gamma)
        return (-k1 * cos_g * cos_g, k1 * rho * math.sin(2.0 * gamma),
                k1 * math.cos(2.0 * gamma), -w_delta, -w_gamma)

    return jac


def rhs_polar(spec: ControllerSpec, state: PolarState) -> tuple[float, float, float]:
    """Closed-loop right-hand side in polar coordinates.

    Returns (rho', delta', gamma') = (-k1*rho*cos(gamma)^2,
    (k1/2)*sin(2*gamma), -omega_tilde).  Regular as rho -> 0: the angular
    rates do not involve rho.
    """
    return _polar_field(spec)((state.rho, state.delta, state.gamma))


def _cartesian_field(spec: ControllerSpec):
    """The closed-loop Cartesian field as f(y) on (x, y, theta) tuples."""
    k1, half_k1 = spec.gains.k1, 0.5 * spec.gains.k1
    law, cos, sin = steering_law(FLOAT_MATH, spec.kind, spec.gains), math.cos, math.sin

    def f(y):
        x, y_pos, theta = y
        rho, delta, gamma = polar_image(x, y_pos, theta)
        if rho == 0.0:
            raise DomainError("polar chart undefined at rho=0")
        omega = half_k1 * sin(2.0 * gamma) + law(delta, gamma)
        v = k1 * rho * cos(gamma)
        return (v * cos(theta), v * sin(theta), omega)

    return f


# Dormand-Prince 5(4) tableau; the fields are autonomous, so the nodes c_i are not needed.
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0,
)


# Dense output of the pair: the quartic interpolant of Shampine (1986), as
# in scipy's RK45.  Over an accepted step from (t, y) with stages f1..f7,
#     y(t + s*h) = y + h*s*(f1 + s*(q2 + s*(q3 + s*q4))),
# where q_p = sum_j _Dpj * fj over the stages j = 1, 3, 4, 5, 6, 7.
_D21, _D23, _D24, _D25, _D26, _D27 = (
    -8048581381.0 / 2820520608.0, 131558114200.0 / 32700410799.0,
    -1754552775.0 / 470086768.0, 127303824393.0 / 49829197408.0,
    -282668133.0 / 205662961.0, 40617522.0 / 29380423.0,
)
_D31, _D33, _D34, _D35, _D36, _D37 = (
    8663915743.0 / 2820520608.0, -68118460800.0 / 10900136933.0,
    14199869525.0 / 1410260304.0, -318862633887.0 / 49829197408.0,
    2019193451.0 / 616988883.0, -110615467.0 / 29380423.0,
)
_D41, _D43, _D44, _D45, _D46, _D47 = (
    -12715105075.0 / 11282082432.0, 87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0, 701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0,
)


class _BoundaryHit(Exception):
    """Internal: stepping could not continue."""


def _below_h_min(h: float, t: float) -> _BoundaryHit:
    return _BoundaryHit(f"step size {h:.3e} below h_min at t={t:.6g}")


def _error_norm(e1, e2, e3, y, z, rtol: float, atol: float) -> float:
    """RMS of the error estimate scaled by atol + rtol*max(|y|, |z|), per component."""
    s1 = atol + rtol * max(abs(y[0]), abs(z[0]))
    s2 = atol + rtol * max(abs(y[1]), abs(z[1]))
    s3 = atol + rtol * max(abs(y[2]), abs(z[2]))
    return math.sqrt(((e1 / s1) ** 2 + (e2 / s2) ** 2 + (e3 / s3) ** 2) / 3.0)


class _Samples:
    """The output grid t = i*dt, i = 1..n_samples, fed to record(t, y)."""

    def __init__(self, cfg: SimConfig, record, n_samples: int) -> None:
        self.dt = cfg.dt
        self.t_end = n_samples * cfg.dt
        self.record = record
        self.i = 1
        self.next = cfg.dt

    def fill(self, t: float, h: float, t_new: float, z, dense) -> bool:
        """Record the grid times in (t, t_new] of an accepted step of size h.

        The sample at t_new is the step's solution z; the others are
        dense(s), the state at t + s*h.  True when record stops the run.
        _dp5 has this loop written out.
        """
        i, t_sample, record = self.i, self.next, self.record
        while t_sample <= t_new:
            if record(t_sample, z if t_sample == t_new else dense((t_sample - t) / h)):
                return True
            i += 1
            t_sample = i * self.dt
        self.i, self.next = i, t_sample
        return False


# DOPRI5's stiffness test (Hairer & Wanner, Solving ODEs II, section IV.2,
# and their dopri5.f): on an accepted step, h*|lambda| is estimated as
# h*|f7 - f6| / |z - u6|, where u6 is the state of stage 6; both stages sit
# at t + h, so the ratio measures the dominant eigenvalue along the step.
# The problem counts as stiff after 15 estimates above 3.25 (the edge of the
# pair's stability region on the negative real axis), reset by 6 in a row
# below it.  As in dopri5.f, the test runs on every 10th accepted step and,
# once an estimate was above 3.25, on every step until the count resets:
# on every step it would cost a capture run about 3 %.
_STIFF_RATIO_SQ = 3.25**2
_STIFF_AFTER = 15
_STIFF_RESET = 6
_STIFF_EVERY = 10


def _dp5(f, t, y, k1, h, cfg: SimConfig, samples: _Samples, stiff_test: bool):
    """Dormand-Prince steps from (t, y), with k1 = f(y) and trial step h.

    Returns (outcome, t, y, f(y), h): outcome "done" or "stopped" (record
    returned True), or "stiff" with the state after the accepted step on
    which the stiffness test fired for the 15th time.  Stage N is unpacked
    once into fNa, fNb, fNc, and the error norm is _error_norm written out.
    """
    rtol, atol, h_min, sqrt = cfg.rtol, cfg.atol, cfg.h_min, math.sqrt
    t_end, dt, record = samples.t_end, samples.dt, samples.record
    i, t_sample = samples.i, samples.next
    n_accepted = n_stiff = n_nonstiff = 0
    while True:
        if h < h_min:
            raise _below_h_min(h, t)
        last = t + h >= t_end
        if last:
            h = t_end - t
        y1, y2, y3 = y
        f1a, f1b, f1c = k1
        try:
            f2a, f2b, f2c = f((y1 + h * _A21 * f1a, y2 + h * _A21 * f1b, y3 + h * _A21 * f1c))
            f3a, f3b, f3c = f((
                y1 + h * (_A31 * f1a + _A32 * f2a),
                y2 + h * (_A31 * f1b + _A32 * f2b),
                y3 + h * (_A31 * f1c + _A32 * f2c)))
            f4a, f4b, f4c = f((
                y1 + h * (_A41 * f1a + _A42 * f2a + _A43 * f3a),
                y2 + h * (_A41 * f1b + _A42 * f2b + _A43 * f3b),
                y3 + h * (_A41 * f1c + _A42 * f2c + _A43 * f3c)))
            f5a, f5b, f5c = f((
                y1 + h * (_A51 * f1a + _A52 * f2a + _A53 * f3a + _A54 * f4a),
                y2 + h * (_A51 * f1b + _A52 * f2b + _A53 * f3b + _A54 * f4b),
                y3 + h * (_A51 * f1c + _A52 * f2c + _A53 * f3c + _A54 * f4c)))
            u1 = y1 + h * (_A61 * f1a + _A62 * f2a + _A63 * f3a + _A64 * f4a + _A65 * f5a)
            u2 = y2 + h * (_A61 * f1b + _A62 * f2b + _A63 * f3b + _A64 * f4b + _A65 * f5b)
            u3 = y3 + h * (_A61 * f1c + _A62 * f2c + _A63 * f3c + _A64 * f4c + _A65 * f5c)
            f6a, f6b, f6c = f((u1, u2, u3))
            z1 = y1 + h * (_B1 * f1a + _B3 * f3a + _B4 * f4a + _B5 * f5a + _B6 * f6a)
            z2 = y2 + h * (_B1 * f1b + _B3 * f3b + _B4 * f4b + _B5 * f5b + _B6 * f6b)
            z3 = y3 + h * (_B1 * f1c + _B3 * f3c + _B4 * f4c + _B5 * f5c + _B6 * f6c)
            z = (z1, z2, z3)
            f7 = f(z)
        except DomainError:
            # A stage left the domain; retry with a smaller step until
            # h_min decides this is a genuine boundary approach.
            h *= 0.25
            continue
        f7a, f7b, f7c = f7
        e1 = h * (_E1 * f1a + _E3 * f3a + _E4 * f4a + _E5 * f5a + _E6 * f6a + _E7 * f7a)
        e2 = h * (_E1 * f1b + _E3 * f3b + _E4 * f4b + _E5 * f5b + _E6 * f6b + _E7 * f7b)
        e3 = h * (_E1 * f1c + _E3 * f3c + _E4 * f4c + _E5 * f5c + _E6 * f6c + _E7 * f7c)
        e1 /= atol + rtol * max(abs(y1), abs(z1))
        e2 /= atol + rtol * max(abs(y2), abs(z2))
        e3 /= atol + rtol * max(abs(y3), abs(z3))
        err = sqrt((e1**2 + e2**2 + e3**2) / 3.0)
        if not err <= 1.0:  # also rejects a NaN error
            h *= max(0.2, 0.9 * err**-0.2)
            continue
        t_new = t_end if last else t + h
        if t_sample <= t_new:
            q21 = _D21 * f1a + _D23 * f3a + _D24 * f4a + _D25 * f5a + _D26 * f6a + _D27 * f7a
            q22 = _D21 * f1b + _D23 * f3b + _D24 * f4b + _D25 * f5b + _D26 * f6b + _D27 * f7b
            q23 = _D21 * f1c + _D23 * f3c + _D24 * f4c + _D25 * f5c + _D26 * f6c + _D27 * f7c
            q31 = _D31 * f1a + _D33 * f3a + _D34 * f4a + _D35 * f5a + _D36 * f6a + _D37 * f7a
            q32 = _D31 * f1b + _D33 * f3b + _D34 * f4b + _D35 * f5b + _D36 * f6b + _D37 * f7b
            q33 = _D31 * f1c + _D33 * f3c + _D34 * f4c + _D35 * f5c + _D36 * f6c + _D37 * f7c
            q41 = _D41 * f1a + _D43 * f3a + _D44 * f4a + _D45 * f5a + _D46 * f6a + _D47 * f7a
            q42 = _D41 * f1b + _D43 * f3b + _D44 * f4b + _D45 * f5b + _D46 * f6b + _D47 * f7b
            q43 = _D41 * f1c + _D43 * f3c + _D44 * f4c + _D45 * f5c + _D46 * f6c + _D47 * f7c
            # samples.fill written out: a closure call per sample would cost
            # this loop about 5 % of a capture run
            while t_sample <= t_new:
                if t_sample == t_new:
                    sample = z
                else:
                    s = (t_sample - t) / h
                    hs = h * s
                    sample = (
                        y1 + hs * (f1a + s * (q21 + s * (q31 + s * q41))),
                        y2 + hs * (f1b + s * (q22 + s * (q32 + s * q42))),
                        y3 + hs * (f1c + s * (q23 + s * (q33 + s * q43))),
                    )
                if record(t_sample, sample):
                    return "stopped", t_new, z, f7, h
                i += 1
                t_sample = i * dt
        if last:
            return "done", t_new, z, f7, h
        h_new = h * (5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2)))
        n_accepted += 1
        if stiff_test and (n_stiff or n_accepted % _STIFF_EVERY == 0):
            d1, d2, d3 = f7a - f6a, f7b - f6b, f7c - f6c
            if h * h * (d1 * d1 + d2 * d2 + d3 * d3) > _STIFF_RATIO_SQ * (
                    (z1 - u1) ** 2 + (z2 - u2) ** 2 + (z3 - u3) ** 2):
                n_stiff += 1
                n_nonstiff = 0
                if n_stiff == _STIFF_AFTER:
                    samples.i, samples.next = i, t_sample
                    return "stiff", t_new, z, f7, h_new
            else:
                n_nonstiff += 1
                if n_nonstiff == _STIFF_RESET:
                    n_stiff = 0
        t, y, k1, h = t_new, z, f7, h_new


# ode23s, the Rosenbrock pair of Shampine & Reichelt (SIAM J. Sci.
# Comput. 18, 1997), for an autonomous field.  With W = I - h*d*J:
#     k1 = W^-1 f0,  f1 = f(y + h/2*k1),  k2 = W^-1 (f1 - k1) + k1,
#     z = y + h*k2,  f2 = f(z),  k3 = W^-1 (f2 - e32*(k2 - f1) - 2*(k1 - f0)),
# z is second order, and h/6*(k1 - 2*k2 + k3) estimates its error.
# The continuous extension is y + h*(s*(1 - s)*k1 + s*(s - 2d)*k2)/(1 - 2d).
_ROS_D = 1.0 / (2.0 + math.sqrt(2.0))
_ROS_E32 = 6.0 + math.sqrt(2.0)
# Back to DP5 once h*rho(J) < 1, inside its stability region with room to
# spare, on this many accepted steps in a row.
_NONSTIFF_AFTER = 6


def _ode23s(f, jac, t, y, fy, h, cfg: SimConfig, samples: _Samples, notes: list):
    """ode23s steps from (t, y), with fy = f(y) and trial step h.

    jac(y) gives the Jacobian's nonzero entries (J00, J02, J12, J21, J22),
    the sparsity of the polar field.  W = I - h*d*J is solved in closed
    form: the angular (delta, gamma) block first, then rho.  One Jacobian
    per accepted step; a rejected step keeps it.  Returns (outcome, t, y,
    f(y), h): outcome "done", "stopped", or "nonstiff" when h*rho(J) < 1
    held on the last 6 steps.  Appends a note on the stretch run here.
    In the formulas above, f0 is (f01, f02, f03), k1 is (a1, a2, a3), f1 is
    (g1, g2, g3), k2 is (b1, b2, b3) and k3 is (c1, c2, c3).
    """
    rtol, atol = cfg.rtol, cfg.atol
    t_end = samples.t_end
    t_start, n_steps, n_jac, n_small = t, 0, 0, 0
    try:
        while True:
            j00, j02, j12, j21, j22 = jac(y)
            n_jac += 1
            # spectral radius: J00, and the roots of l^2 - J22*l - J12*J21
            disc = j22 * j22 + 4.0 * j12 * j21
            radius = max(abs(j00), (abs(j22) + math.sqrt(disc)) / 2.0 if disc >= 0.0
                         else math.sqrt(abs(j12 * j21)))
            y1, y2, y3 = y
            f01, f02, f03 = fy
            while True:
                if h < cfg.h_min:
                    raise _below_h_min(h, t)
                last = t + h >= t_end
                if last:
                    h = t_end - t
                hd = h * _ROS_D
                a12, a21, a22 = hd * j12, hd * j21, 1.0 - hd * j22
                w00, w02 = 1.0 / (1.0 - hd * j00), hd * j02

                def solve(r1, r2, r3):
                    x2 = (a22 * r2 + a12 * r3) * inv_det
                    x3 = (r3 + a21 * r2) * inv_det
                    return (r1 + w02 * x3) * w00, x2, x3

                try:
                    inv_det = 1.0 / (a22 - a12 * a21)
                    a1, a2, a3 = solve(f01, f02, f03)
                    g1, g2, g3 = f((y1 + 0.5 * h * a1, y2 + 0.5 * h * a2, y3 + 0.5 * h * a3))
                    b1, b2, b3 = solve(g1 - a1, g2 - a2, g3 - a3)
                    b1, b2, b3 = b1 + a1, b2 + a2, b3 + a3
                    z = (y1 + h * b1, y2 + h * b2, y3 + h * b3)
                    f2 = f(z)
                except (DomainError, ZeroDivisionError):  # a stage outside, or W singular
                    h *= 0.25
                    continue
                c1, c2, c3 = solve(
                    f2[0] - _ROS_E32 * (b1 - g1) - 2.0 * (a1 - f01),
                    f2[1] - _ROS_E32 * (b2 - g2) - 2.0 * (a2 - f02),
                    f2[2] - _ROS_E32 * (b3 - g3) - 2.0 * (a3 - f03))
                err = _error_norm(h / 6.0 * (a1 - 2.0 * b1 + c1), h / 6.0 * (a2 - 2.0 * b2 + c2),
                                  h / 6.0 * (a3 - 2.0 * b3 + c3), y, z, rtol, atol)
                if err <= 1.0:
                    break
                h *= max(0.2, 0.9 * err ** (-1.0 / 3.0))  # also after a NaN error
            n_steps += 1
            t_step, t = t, (t_end if last else t + h)
            if samples.next <= t:
                scale = h / (1.0 - 2.0 * _ROS_D)

                def dense(s):
                    p, q = scale * s * (1.0 - s), scale * s * (s - 2.0 * _ROS_D)
                    return (y1 + p * a1 + q * b1, y2 + p * a2 + q * b2, y3 + p * a3 + q * b3)

                if samples.fill(t_step, h, t, z, dense):
                    return "stopped", t, z, f2, h
            y, fy = z, f2
            if last:
                return "done", t, y, fy, h
            n_small = n_small + 1 if h * radius < 1.0 else 0
            h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** (-1.0 / 3.0)))
            if n_small == _NONSTIFF_AFTER:
                return "nonstiff", t, y, fy, h
    finally:
        notes.append((t_start, f"stiff: ode23s on t in [{t_start:.6g}, {t:.6g}], "
                               f"{n_steps} steps, {n_jac} Jacobians"))


def _integrate_adaptive(f, y0, cfg: SimConfig, record, n_samples: int, notes: list,
                        jac=None) -> str:
    """Advance y' = f(y) and call record(t, y) at t = i*dt.

    Error control alone sets the step size; only the last step is cut
    short, to end on t = n_samples*dt.  The samples inside an accepted
    step come from the dense output.  Runs DP5 and, when a Jacobian is
    given and DP5's stiffness test fires, ode23s until the problem is no
    longer stiff (each stretch adds a note).  Returns "done" or "stopped"
    (record returned True), or raises _BoundaryHit when the step size
    collapses below cfg.h_min (stage evaluations that leave the domain
    count as failed steps and shrink the step first).
    """
    samples = _Samples(cfg, record, n_samples)
    t, y, fy, h = 0.0, y0, f(y0), min(cfg.dt, 1e-3)
    while True:
        outcome, t, y, fy, h = _dp5(f, t, y, fy, h, cfg, samples, jac is not None)
        if outcome != "stiff":
            return outcome
        outcome, t, y, fy, h = _ode23s(f, jac, t, y, fy, h, cfg, samples, notes)
        if outcome != "nonstiff":
            return outcome


# RK4's stability interval on the negative real axis ends near -2.785.
_RK4_STABLE = 2.8


def _integrate_fixed(f, y0, cfg: SimConfig, record, n_samples: int, notes: list) -> str:
    """Classic RK4 with step dt; record(t, y) after each step.

    The right-hand side at each new state is evaluated before the state is
    recorded, so a step that leaves the domain ends the run (_BoundaryHit)
    on the last valid sample instead of raising DomainError.  The first
    step whose estimate of h*|lambda| exceeds RK4's stability bound adds a
    note; stages 2 and 3 share t + h/2 and differ by h/2*(f2 - f1), so
    h*|f3 - f2| / |y3 - y2| = 2*|f3 - f2| / |f2 - f1|.
    """
    t = 0.0
    y = y0
    h = cfg.dt
    f1 = f(y)
    stable = True
    for i in range(1, n_samples + 1):
        y1, y2, y3 = y
        try:
            f2 = f((y1 + h / 2 * f1[0], y2 + h / 2 * f1[1], y3 + h / 2 * f1[2]))
            f3 = f((y1 + h / 2 * f2[0], y2 + h / 2 * f2[1], y3 + h / 2 * f2[2]))
            if stable:
                num = (f3[0] - f2[0]) ** 2 + (f3[1] - f2[1]) ** 2 + (f3[2] - f2[2]) ** 2
                den = (f2[0] - f1[0]) ** 2 + (f2[1] - f1[1]) ** 2 + (f2[2] - f1[2]) ** 2
                if 4.0 * num > _RK4_STABLE**2 * den:  # den > 0: f2 == f1 gives f3 == f2
                    stable = False
                    notes.append((t, "rk4 unstable: h*|lambda| ~ "
                                  f"{2.0 * math.sqrt(num / den):.3g} > {_RK4_STABLE} at t={t:.6g}"))
            f4 = f((y1 + h * f3[0], y2 + h * f3[1], y3 + h * f3[2]))
            y = (
                y1 + h / 6 * (f1[0] + 2 * f2[0] + 2 * f3[0] + f4[0]),
                y2 + h / 6 * (f1[1] + 2 * f2[1] + 2 * f3[1] + f4[1]),
                y3 + h / 6 * (f1[2] + 2 * f2[2] + 2 * f3[2] + f4[2]),
            )
            f1 = f(y)
        except DomainError as exc:
            raise _BoundaryHit(f"rk4 step from t={t:.6g} left the domain: {exc}") from None
        t = i * h
        if record(t, y):
            return "stopped"
    return "done"


def _run(f, y0, cfg: SimConfig, captured, jac=None):
    """Integrate and sample; returns (times, ys, status, capture_time, notes, stop).

    notes are the integrator's remarks on the run (stiff stretches, rk4
    instability), each as (start of the step it names, text); stop is the
    reason for a boundary stop, else "".
    """
    n_samples = int(round(cfg.t_final / cfg.dt))
    times, ys = [0.0], [y0]
    capture_time = [None]

    def record(t, y):
        times.append(t)
        ys.append(y)
        if captured is not None and captured(y):
            capture_time[0] = t
            return True
        return False

    notes: list[tuple[float, str]] = []
    stop = ""
    try:
        if cfg.integrator is IntegratorKind.RK45_ADAPTIVE:
            outcome = _integrate_adaptive(f, y0, cfg, record, n_samples, notes, jac)
        else:
            outcome = _integrate_fixed(f, y0, cfg, record, n_samples, notes)
    except _BoundaryHit as hit:
        outcome = "boundary"
        stop = str(hit)
    if outcome == "boundary":
        status = SimStatus.BOUNDARY_STOP
    elif capture_time[0] is not None:
        status = SimStatus.CAPTURED
    else:
        status = SimStatus.HORIZON_REACHED
    return np.array(times), np.array(ys, dtype=float), status, capture_time[0], notes, stop


def _join_note(notes: list, stop: str) -> str:
    return "; ".join([text for _, text in notes] + ([stop] if stop else []))


def _capture_test(cfg: SimConfig, to_polar):
    if cfg.capture_radius <= 0.0:
        return None
    radius = cfg.capture_radius

    def captured(y):
        rho, delta, gamma = to_polar(y)
        return rho < radius and abs(delta) < radius and abs(gamma) < radius

    return captured


def _reconstruct_cartesian(ys: np.ndarray, start: PolarState):
    """Unwrapped (rho, delta, gamma) of Cartesian samples, continuous from the start's angles."""
    x, y, theta = ys[:, 0], ys[:, 1], ys[:, 2]
    delta = np.unwrap(np.arctan2(y, x) + math.pi)
    delta += 2.0 * math.pi * round((start.delta - delta[0]) / (2.0 * math.pi))
    gamma = delta - theta
    turns = round((start.gamma - gamma[0]) / (2.0 * math.pi))
    if turns:  # a Cartesian start whose heading is not delta - gamma itself
        gamma += 2.0 * math.pi * turns
    return np.hypot(x, y), delta, gamma


def simulate(
    spec: ControllerSpec,
    x0: PolarState | CartesianState,
    cfg: SimConfig = SimConfig(),
    lyapunov: CompositeLyapunovFn | None = None,
) -> Trajectory:
    """Integrate the closed loop from an initial state.

    Args:
        spec: Controller to run.
        x0: Initial state; converted to the frame named by cfg.frame.
        cfg: Simulation settings.
        lyapunov: Optional composite Lyapunov function evaluated along the
            trajectory (gains should match the controller's).

    Returns:
        Trajectory sampled at multiples of cfg.dt; ends early with status
        CAPTURED or BOUNDARY_STOP when those events occur.  A run whose
        (unwrapped) state leaves the controller's space ends on the last
        sample inside it, as BOUNDARY_STOP.

    Raises:
        DomainError: If x0 lies outside the controller's open space.
    """
    polar0 = x0 if isinstance(x0, PolarState) else cart_to_polar(x0)
    if not spec.space.contains(polar0):
        raise DomainError(
            f"initial state outside the open space {spec.space.value} of {spec.kind.value}"
        )

    if cfg.frame is Frame.POLAR:
        y0 = (polar0.rho, polar0.delta, polar0.gamma)
        times, ys, status, capture_time, notes, stop = _run(
            _polar_field(spec), y0, cfg, _capture_test(cfg, lambda y: y), _polar_jacobian(spec))
        rho, delta, gamma = ys[:, 0], ys[:, 1], ys[:, 2]
    else:
        cart0 = x0 if isinstance(x0, CartesianState) else polar_to_cart(x0)
        y0 = (cart0.x, cart0.y, cart0.theta)
        times, ys, status, capture_time, notes, stop = _run(
            _cartesian_field(spec), y0, cfg, _capture_test(cfg, lambda y: polar_image(*y)))
        rho, delta, gamma = _reconstruct_cartesian(ys, polar0)

    inside = spec.space.contains_angles(delta, gamma)
    if not np.all(inside):
        n = int(np.argmin(inside))
        stop = f"state left the domain {spec.space.value} at t={times[n]:.6g}"
        # a remark on a step after the last kept sample names a cut-off part of the run
        notes = [note for note in notes if note[0] <= times[n - 1]]
        status, capture_time = SimStatus.BOUNDARY_STOP, None
        times, ys, rho, delta, gamma = times[:n], ys[:n], rho[:n], delta[:n], gamma[:n]

    if cfg.frame is Frame.POLAR:
        theta = delta - gamma
        x = -rho * np.cos(delta)
        y_pos = -rho * np.sin(delta)
        rho_fb, delta_fb, gamma_fb = np.maximum(rho, 0.0), delta, gamma
    else:
        x, y_pos, theta = ys[:, 0], ys[:, 1], ys[:, 2]
        # Feedback as computed during integration: from the wrapped image.
        rho_fb, delta_fb, gamma_fb = polar_image(x, y_pos, theta)
        if not rho_fb.all():
            raise DomainError("polar chart undefined at rho=0")

    k1 = spec.gains.k1
    tilde = omega_tilde(spec, delta_fb, gamma_fb)
    v = k1 * rho_fb * np.cos(gamma_fb)
    omega = 0.5 * k1 * np.sin(2.0 * gamma_fb) + tilde
    if lyapunov is None:
        values = np.full(len(times), np.nan)
    else:
        with np.errstate(over="ignore"):  # as with floats, V overflows quietly to inf
            values = lyapunov.value(rho, delta, gamma)

    return Trajectory(
        t=times, rho=rho, delta=delta, gamma=gamma, x=x, y=y_pos, theta=theta,
        v=v, omega=omega, omega_tilde=tilde, lyapunov=values,
        status=status, frame=cfg.frame, capture_time=capture_time, note=_join_note(notes, stop),
    )


def simulate_unsteered(k1: float, x0: PolarState, cfg: SimConfig = SimConfig()) -> Trajectory:
    """Integrate with the turn rate forced to zero (steering off).

    Only the forward-velocity feedback v = k1*rho*cos(gamma) acts, so
    theta is frozen and both angles drift at the same rate:
    delta' = gamma' = (k1/2)*sin(2*gamma).  Useful for studying the
    uncontrolled line-of-sight behavior.
    """
    if k1 <= 0.0:
        raise ValueError("k1 must be positive")

    def f(y):
        rho, delta, gamma = y
        cos_g = math.cos(gamma)
        rate = 0.5 * k1 * math.sin(2.0 * gamma)
        return (-k1 * rho * cos_g * cos_g, rate, rate)

    y0 = (x0.rho, x0.delta, x0.gamma)
    times, ys, status, capture_time, notes, stop = _run(f, y0, cfg, _capture_test(cfg, lambda y: y))
    rho, delta, gamma = ys[:, 0], ys[:, 1], ys[:, 2]
    theta = delta - gamma
    v = k1 * rho * np.cos(gamma)
    omega = np.zeros_like(v)
    # omega = feedforward + omega_tilde = 0 resolves the split as below.
    tilde = -0.5 * k1 * np.sin(2.0 * gamma)
    return Trajectory(
        t=times, rho=rho, delta=delta, gamma=gamma,
        x=-rho * np.cos(delta), y=-rho * np.sin(delta), theta=theta,
        v=v, omega=omega, omega_tilde=tilde, lyapunov=np.full(len(times), np.nan),
        status=status, frame=Frame.POLAR, capture_time=capture_time, note=_join_note(notes, stop),
    )
