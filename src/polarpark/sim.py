"""Closed-loop simulation of the parking controllers.

Trajectories can be integrated in either frame:

    polar      integrates (sigma, delta, gamma), sigma = ln(rho), with the
               cancellation delta' = (k1/2)*sin(2*gamma) already applied;
               sigma' = -k1*cos(gamma)^2 reads no rho, so rho = exp(sigma)
               stays positive, and angles evolve unwrapped on the real line.
    cartesian  integrates the raw kinematics (x, y, theta) and computes
               the feedback from the wrapped polar image of the pose, the
               way an implementation on a vehicle would.

Both frames describe the same flow while the trajectory stays inside the
principal angle range, which is how the frame-equivalence checks are run.
Each field is autonomous, f(y) on 3-tuples, steered by one law bound once
per run on floats; the polar Jacobian takes it on complex scalars, and
post-processing on the sample arrays.  simulate steers by steering_law,
and simulate_unsteered by omega_tilde = -(k1/2)*sin(2*gamma), which
cancels the turn rate: both run one pipeline, in either frame.

Integrators: a fixed-step classic Runge-Kutta scheme taking steps of dt,
and for accuracy an adaptive one: a single step loop with two
step rules, the Dormand-Prince 8(5,3) method DOP853 (Hairer, Norsett &
Wanner, Solving ODEs I, section II.10), whose order 8 suits the default
rtol of 1e-10, and for stiff stretches the linearly implicit Rosenbrock
pair ode23s of Shampine & Reichelt (SIAM J. Sci. Comput. 18, 1997).  Both
integrators sample the uniform grid k*dt, its time rebuilt from the index
k, and end a run on its first sample inside the capture box.  The adaptive
loop starts from dop853.f's HINIT estimate of the first step, lets error
control alone choose its steps (a step is cut short only at the end of the
horizon) and fills the grid points inside each accepted step from the
rule's dense output (DOP853's of degree 7), so the sampling interval does
not bound the step size.  It evaluates them at once on an ode23s step, on
a horizon too short to pay for an array pass, and where a bound on
DOP853's dense output cannot keep them out of the box, else in one array
pass after the run.  The step-floor stop, the cut of the last step, the
retry at h/4 of a step whose stage leaves the domain (HINIT's first step
too, when its probe leaves it), the reject test and the step-size update
are the loop's, whichever rule took the step.

The rule is chosen by stiffness tests, in the manner of LSODA.  Near the
barrier lines the steering grows without bound, and the gamma mode can
decay 1e4 times faster than the state moves, which holds an explicit
method to steps at its stability limit.  In the polar frame, DOP853 steps
run the cheap stiffness estimate of dop853.f (Hairer & Wanner, Solving
ODEs II, section IV.2) on every 10th accepted step, on the first accepted
step after a rejected one, and on every step while the last estimate was
positive.  An estimate of h*|lambda| above 6.1 takes the field's Jacobian
(the partials of omega_tilde taken by complex step) at the new state, and
if h times its spectral radius is above 6.1 too, ode23s takes the next
steps, starting from that Jacobian, until h times the spectral radius has
stayed below 1 for 6 steps.  Each ode23s stretch adds `stiff: ode23s on
t in [a, b], N steps, M Jacobians` to the trajectory's note; a run that
never switches is DOP853's alone.  The Cartesian frame takes DOP853
steps only.  The fixed-step integrator notes `rk4 unstable: ...` on the
first step whose estimate of h*|lambda| exceeds RK4's stability bound of
about 2.8.

The adaptive integrator reports a boundary stop when step control pushes
the step size below the step floor, 10 ulps of max(t, dt), derived as in
dop853.f rather than set, which happens when the state runs into an
excluded set (for example a barrier line approached too closely to
resolve in double precision); the fixed-step one reports it when a stage
leaves the controller's space or overflows.  With either integrator, a
run whose sampled state (unwrapped, in both frames) leaves the space ends
before its first sample outside, as a boundary stop, and keeps no remark
on a step that starts after its last sample: the wrapped Cartesian
feedback and the extended bounded-gamma laws do not notice such a
crossing themselves.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .controllers import ControllerSpec, omega_tilde, steering_law
from .geometry import (
    ARRAY_MATH,
    COMPLEX_MATH,
    FLOAT_MATH,
    TWO_PI,
    CartesianState,
    DomainError,
    PolarState,
    StateSpace,
    _require_members,
    cart_to_polar,
    polar_image,
    polar_to_cart,
    wrap_angle,
    wrap_float,
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
    byte-stable for identical inputs.  It writes the CLI's mixed rows (None, int, str).
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(
            ",".join(["" if value is None else str(value) for value in row]) + "\n" for row in rows
        )


class Frame(Enum):
    """Coordinates the simulator integrates in: (sigma, delta, gamma) or (x, y, theta)."""
    POLAR = "polar"
    CARTESIAN = "cartesian"


class IntegratorKind(Enum):
    """Fixed-step RK4 at dt, or the adaptive DOP853/ode23s loop sampled at dt."""
    RK4_FIXED = "rk4"
    RK45_ADAPTIVE = "rk45"


class SimStatus(Enum):
    """How a run ended: inside the capture box, at t_final, or cut short (with a note)."""
    CAPTURED = "captured"
    HORIZON_REACHED = "horizon_reached"
    BOUNDARY_STOP = "boundary_stop"


# The horizon is n*dt with n = floor((t_final/dt)*_HORIZON_SLACK) (see SimConfig); a run peaks
# at 176 (polar) to 193 (Cartesian) bytes per sample, so n is capped at 10**7 (about 2 GB).
_HORIZON_SLACK = 1.0 + 1e-12
_MAX_INTERVALS = 10**7

_CSV_BLOCK = 1024  # rows per format call in Trajectory.to_csv (128 to 4,096 are as fast)


def _interval_count(dt: float, t_final: float) -> int:
    """n, the number of sampling intervals in the horizon n*dt."""
    return math.floor(t_final / dt * _HORIZON_SLACK)


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings.

    dt is the output sampling interval; with the fixed-step integrator it
    is also the step size, while the adaptive integrator's steps are set
    by rtol and atol alone.  capture_radius <= 0 disables capture
    detection.  Every numeric setting must be finite, and so must
    t_final/dt.  The run samples t = i*dt for i = 0..n and ends at n*dt,
    where n is the largest integer with n <= (t_final/dt)*(1 + 1e-12): the
    last grid time not past t_final, the relative 1e-12 keeping a t_final
    that is a multiple of dt (60/0.05, 0.3/0.1) from losing its last
    sample to rounding in the quotient.  n may be at most 10**7.
    """

    dt: float = 0.05
    t_final: float = 60.0
    capture_radius: float = 1e-3
    frame: Frame = Frame.POLAR
    integrator: IntegratorKind = IntegratorKind.RK45_ADAPTIVE
    rtol: float = 1e-10
    atol: float = 1e-11

    def __post_init__(self) -> None:
        _require_members(self, frame=Frame, integrator=IntegratorKind)
        for name in ("dt", "t_final", "capture_radius", "rtol", "atol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0.0 < self.dt <= self.t_final):
            raise ValueError(f"need 0 < dt <= t_final, got dt={self.dt}, t_final={self.t_final}")
        if not math.isfinite(self.t_final / self.dt * _HORIZON_SLACK):
            raise ValueError(f"t_final/dt must be finite, got dt={self.dt}, t_final={self.t_final}")
        n = _interval_count(self.dt, self.t_final)
        if n > _MAX_INTERVALS:
            raise ValueError(f"the horizon holds n = {n} sampling intervals, above the cap of "
                             f"{_MAX_INTERVALS}")
        for name in ("rtol", "atol"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass
class Trajectory:
    """Sampled closed-loop trajectory, stored column-wise.

    All arrays share the time grid t.  The Cartesian columns are always
    populated: integrated directly in the Cartesian frame, reconstructed
    from the polar state otherwise.  omega_tilde and omega come from one call
    of the array steering law on the sample columns, so they can differ in
    the last ulp from the float law the integrator called (np.tan and
    math.tan round differently).  lyapunov holds the attached composite
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
        _require_members(self, status=SimStatus, frame=Frame)
        n = len(self.t)
        for name in self._columns:
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} length mismatch")
        if n > 1 and not np.all(np.diff(self.t) > 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)

    def state(self, i: int) -> PolarState:
        """Sample i as a PolarState; a negative rho raises."""
        return PolarState(float(self.rho[i]), float(self.delta[i]), float(self.gamma[i]))

    def final_state(self) -> PolarState:
        """The last sample's polar state."""
        return self.state(len(self.t) - 1)

    def to_csv(self, path) -> None:
        """Write the trajectory with the fixed header t,x,y,theta,rho,delta,gamma,v,omega,V,
        in write_csv's bytes (%r of a float is its str()), one % call per _CSV_BLOCK rows,
        so that the writer's memory does not grow with the row count."""
        columns = (self.t, self.x, self.y, self.theta, self.rho, self.delta, self.gamma,
                   self.v, self.omega, self.lyapunov)
        row = ",".join(["%r"] * len(columns)) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,x,y,theta,rho,delta,gamma,v,omega,V\n")
            for start in range(0, len(self.t), _CSV_BLOCK):
                block = np.column_stack([c[start:start + _CSV_BLOCK] for c in columns])
                fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _polar_field(k1: float, law):
    """The closed-loop polar field as f(y) on (sigma, delta, gamma) tuples, sigma = ln(rho),
    steered by the float law omega_tilde = law(delta, gamma)."""
    half_k1, cos, sin = 0.5 * k1, math.cos, math.sin

    def f(y):
        _, delta, gamma = y
        cos_g = cos(gamma)
        return (-k1 * cos_g * cos_g, half_k1 * sin(2.0 * gamma), -law(delta, gamma))

    return f


def _polar_jacobian(k1: float, law):
    """The Jacobian of _polar_field(k1, .) as jac(y) -> its nonzero entries (J02, J12, J21,
    J22), for omega_tilde = law(delta, gamma) on Python complex scalars (cmath).

    sigma' and delta' depend on gamma alone and gamma' on the two angles.
    The partials of omega_tilde are complex-step derivatives,
    Im w(x + i*h*e_k)/h with h = 1e-30, from two calls of the law: free of
    cancellation, so exact to rounding.
    """
    def jac(y):
        _, delta, gamma = y
        w_delta = law(delta + 1e-30j, gamma).imag * 1e30
        w_gamma = law(delta, gamma + 1e-30j).imag * 1e30
        return k1 * math.sin(2.0 * gamma), k1 * math.cos(2.0 * gamma), -w_delta, -w_gamma

    return jac


def rhs_polar(spec: ControllerSpec, state: PolarState) -> tuple[float, float, float]:
    """Closed-loop right-hand side in polar coordinates.

    Returns (rho', delta', gamma') = (-k1*rho*cos(gamma)^2,
    (k1/2)*sin(2*gamma), -omega_tilde).  Regular as rho -> 0: the angular
    rates do not involve rho.
    """
    f = _polar_field(spec.gains.k1, spec._float_law)
    sigma_rate, delta_rate, gamma_rate = f((None, state.delta, state.gamma))
    return state.rho * sigma_rate, delta_rate, gamma_rate


def _cartesian_field(k1: float, law):
    """The closed-loop Cartesian field as f(y) on (x, y, theta) tuples, steered by the
    float law from the pose's wrapped polar image (polar_image's float path, written out:
    atan2 + pi is in [0, 2*pi], where wrap_float only subtracts 2*pi above pi, exactly)."""
    half_k1, cos, sin = 0.5 * k1, math.cos, math.sin
    atan2, hypot, wrap, pi, two_pi = math.atan2, math.hypot, wrap_float, math.pi, TWO_PI

    def f(y):
        x, y_pos, theta = y
        delta = atan2(y_pos, x) + pi
        if delta > pi:
            delta -= two_pi
        rho, gamma = hypot(x, y_pos), wrap(delta - theta)
        if rho == 0.0:
            raise DomainError("polar chart undefined at rho=0")
        omega = half_k1 * sin(2.0 * gamma) + law(delta, gamma)
        v = k1 * rho * cos(gamma)
        return (v * cos(theta), v * sin(theta), omega)

    return f


# DOP853, Dormand-Prince 8(5,3), with the coefficients of scipy's
# integrate/_ivp/dop853_coefficients.py.  Stages are numbered 1..16 as in
# dop853.f: _Ai_j weighs stage j in the state of stage i, and stage 13 is f
# at the solution z = y + h*sum_j _Bj*fj.  The fields are autonomous, so
# the nodes c_i are not needed.
_A2_1 = 0.05260015195876773
_A3_1, _A3_2 = 0.0197250569845379, 0.0591751709536137
_A4_1, _A4_3 = 0.02958758547680685, 0.08876275643042054
_A5_1, _A5_3, _A5_4 = 0.2413651341592667, -0.8845494793282861, 0.924834003261792
_A6_1, _A6_4, _A6_5 = 0.037037037037037035, 0.17082860872947386, 0.12546768756682242
_A7_1, _A7_4, _A7_5, _A7_6 = 0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125
_A8_1, _A8_4, _A8_5, _A8_6, _A8_7 = (
    0.03709200011850479, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
    0.008273789163814023)
_A9_1, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8 = (
    0.6241109587160757, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996)
_A10_1, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9 = (
    0.47766253643826434, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627)
_A11_1, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10 = (
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
    -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196)
_A12_1, _A12_4, _A12_5, _A12_6, _A12_7, _A12_8, _A12_9, _A12_10, _A12_11 = (
    2.273310147516538, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
    0.6433927460157636)
_B1, _B6, _B7, _B8, _B9, _B10, _B11, _B12 = (
    0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
# The error estimate of dop853.f: err5 = sum_j _Ej*fj is the 5th-order
# error, err3 = sum_j _Bj*fj - _BHH1*f1 - _BHH2*f9 - _BHH3*f12 the 3rd-order
# one, and h*|err5|^2 / sqrt(|err5|^2 + 0.01*|err3|^2) is the error norm
# of the 8th-order solution.
_E1, _E6, _E7, _E8, _E9, _E10, _E11, _E12 = (
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294)
_BHH1, _BHH2, _BHH3 = 0.2440944881889764, 0.7338466882816118, 0.022058823529411766
# Dense output: over an accepted step from (t, y) to (t + h, z), with
# r = 1 - s and q0 = z - y, q1 = h*f1 - q0, q2 = q0 - h*f13 - q1,
#     y(t + s*h) = y + s*(q0 + r*(q1 + s*(q2 + r*(q3 + s*(q4 + r*(q5 + s*q6)))))),
# a polynomial of degree 7 whose q3..q6 = h*sum_j _Dk_j*fj (k = 4..7, the
# rows of dop853.f) also use three extra stages, 14..16.
_A14_1, _A14_7, _A14_8, _A14_9, _A14_10, _A14_11, _A14_12, _A14_13 = (
    0.056167502283047954, 0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
    0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298)
_A15_1, _A15_6, _A15_7, _A15_8, _A15_11, _A15_12, _A15_13, _A15_14 = (
    0.03183464816350214, 0.028300909672366776, 0.053541988307438566, -0.05492374857139099,
    -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325)
_A16_1, _A16_6, _A16_7, _A16_8, _A16_9, _A16_13, _A16_14, _A16_15 = (
    -0.42889630158379194, -4.697621415361164, 7.683421196062599, 4.06898981839711,
    0.3567271874552811, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987)
_D4_1, _D4_6, _D4_7, _D4_8, _D4_9, _D4_10, _D4_11, _D4_12, _D4_13, _D4_14, _D4_15, _D4_16 = (
    -8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
    2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
    -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894)
_D5_1, _D5_6, _D5_7, _D5_8, _D5_9, _D5_10, _D5_11, _D5_12, _D5_13, _D5_14, _D5_15, _D5_16 = (
    10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
    -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
    15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408)
_D6_1, _D6_6, _D6_7, _D6_8, _D6_9, _D6_10, _D6_11, _D6_12, _D6_13, _D6_14, _D6_15, _D6_16 = (
    19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
    -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
    -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279)
_D7_1, _D7_6, _D7_7, _D7_8, _D7_9, _D7_10, _D7_11, _D7_12, _D7_13, _D7_14, _D7_15, _D7_16 = (
    -25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
    93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605, -43.53345659001114,
    96.32455395918828, -39.17726167561544, -149.72683625798564)


class _BoundaryHit(Exception):
    """Internal: stepping could not continue."""


# sys.float_info.min: a Cartesian step to hypot(x, y) below it ends the run (atan2 has no bits left)
_MIN_NORMAL, _SUBNORMAL_NOTE = 2.0**-1022, "the position fell below the smallest normal float"
# The adaptive loop stops once h < _STEP_FLOOR*max(t, dt): 10 ulps of the
# current time, and of one sampling interval at t = 0, where a step below it
# no longer moves t reliably (dop853.f stops at 0.1*|h| <= uround*|t|).
_STEP_FLOOR = 10.0 * 2.0**-52


def _outside(y, z, lo, hi, t1, t2, t3, t4, t5, t6) -> bool:
    """Whether a coordinate that goes from y to z, its interpolant within w = (|t1| + ... +
    |t6|)/4 of that range, has no float sample in (lo, hi); the margin covers the samples'
    rounding (below 1e-14 of |y| + |z| + w) and underflow, and a NaN proves nothing."""
    w = 0.25 * (abs(t1) + abs(t2) + abs(t3) + abs(t4) + abs(t5) + abs(t6))
    w += 1e-12 * (abs(y) + abs(z) + w) + 1e-300
    return min(y, z) - w > hi or max(y, z) + w < lo


def _pose_captured(x: float, y: float, theta: float, radius: float) -> bool:
    """Whether the angles of a pose's wrapped polar image are inside the capture box."""
    _, delta, gamma = polar_image(x, y, theta)
    return abs(delta) < radius and abs(gamma) < radius


# The stiffness test of dop853.f (Hairer & Wanner, Solving ODEs II, section
# IV.2) as a cheap first stage: h*|lambda| ~ h*|f13 - f12| / |z - u12| on an
# accepted step, where u12 is the state of stage 12 and both stages sit at
# t + h.  It runs on every 10th accepted step, on the first accepted step
# after a rejected one, and on every step while the last estimate was above
# 6.1 (near the edge of the method's stability region on the negative real
# axis).  A positive estimate takes the Jacobian at the new state, and the
# problem is stiff, as in LSODA, once h*rho(J) is above the same 6.1.
_STIFF_RATIO_SQ = 6.1**2
_STIFF_EVERY = 10


# ode23s, the Rosenbrock pair of Shampine & Reichelt (SIAM J. Sci.
# Comput. 18, 1997), for an autonomous field.  With W = I - h*d*J:
#     k1 = W^-1 f0,  f1 = f(y + h/2*k1),  k2 = W^-1 (f1 - k1) + k1,
#     z = y + h*k2,  f2 = f(z),  k3 = W^-1 (f2 - e32*(k2 - f1) - 2*(k1 - f0)),
# z is second order, and h/6*(k1 - 2*k2 + k3) estimates its error.
# The continuous extension is y + h*(s*(1 - s)*k1 + s*(s - 2d)*k2)/(1 - 2d).
_ROS_D = 1.0 / (2.0 + math.sqrt(2.0))
_ROS_E32 = 6.0 + math.sqrt(2.0)
# Back to DOP853 once h*rho(J) < 1, inside its stability region with room to
# spare, on this many accepted steps in a row.
_NONSTIFF_AFTER = 6
# A horizon of fewer intervals samples every step in the loop: the array pass of _grid_samples
# costs about 0.1 ms a run, so it pays only past about 200 samples (unpinned in 200..300).
_ARRAY_PASS_MIN = 256


def _initial_step(f, y0, f0, cfg: SimConfig, h_max: float) -> float:
    """dop853.f's HINIT (Hairer, Norsett & Wanner, Solving ODEs I, section II.4).

    With the norm |v| = sqrt(sum (v_k/s_k)^2), s_k = atol + rtol*|y0_k|: an
    explicit Euler step of h = 0.01*|y0|/|f0| probes the second derivative
    as |f(y0 + h*f0) - f0|/h, and the first step makes h^8 times the larger
    of that and |f0| equal to 0.01, at most 100*h and h_max.  A DomainError
    in the probe returns the probe's h, which the step loop's retry at h/4
    then shrinks as for any stage.
    """
    y1, y2, y3 = y0
    f1, f2, f3 = f0
    s1, s2, s3 = (cfg.atol + cfg.rtol * abs(y1), cfg.atol + cfg.rtol * abs(y2),
                  cfg.atol + cfg.rtol * abs(y3))
    dnf = (f1 / s1) ** 2 + (f2 / s2) ** 2 + (f3 / s3) ** 2
    dny = (y1 / s1) ** 2 + (y2 / s2) ** 2 + (y3 / s3) ** 2
    h = min(h_max, 1e-6 if dnf <= 1e-10 or dny <= 1e-10 else 0.01 * math.sqrt(dny / dnf))
    try:
        g1, g2, g3 = f((y1 + h * f1, y2 + h * f2, y3 + h * f3))
    except DomainError:
        return h
    der2 = math.sqrt(((g1 - f1) / s1) ** 2 + ((g2 - f2) / s2) ** 2 + ((g3 - f3) / s3) ** 2) / h
    der12 = max(der2, math.sqrt(dnf))
    h1 = max(1e-6, h * 1e-3) if der12 <= 1e-15 else (0.01 / der12) ** 0.125
    return min(h_max, 100.0 * h, h1)  # h_max, not NaN, when f(y0) is not finite


def _stiff_note(t_start: float, t: float, n_steps: int, n_jac: int) -> tuple[float, str]:
    """The note on an ode23s stretch from t_start to t."""
    return t_start, (f"stiff: ode23s on t in [{t_start:.6g}, {t:.6g}], {n_steps} steps, "
                     f"{n_jac} Jacobians")


def _integrate_adaptive(f, y0, cfg: SimConfig, flat: list, dop: bytearray, notes: list,
                        jac=None) -> SimStatus:
    """Advance y' = f(y) and record its samples at t = i*dt, in one step loop with two step rules.

    DOP853 takes the steps.  When a Jacobian is given, a positive stiffness
    estimate on an accepted DOP853 step takes jac at the new state, and
    h*rho(J) above 6.1 hands the steps to ode23s until h*rho(J) < 1 has held
    for 6 steps; each ode23s stretch adds a note.  Step control is the same
    for both rules: the first step is HINIT's, error control alone sets the
    step size, only the last step is cut short (to end on t = n*dt), a step
    whose error norm err is above 1 (or NaN) is rejected, and the next trial
    step is h times 0.9*err^e clamped to [0.2, 5], with e = -1/8 for DOP853
    and -1/3 for ode23s.  A stage outside the domain, or a singular W,
    retries the step at h/4.  The grid times t_i < t of a step have computed
    s = (t_i - t_step)/h in (0, 1]: t_i < t_step + h when t = RN(t_step + h),
    and h = RN(t - t_step) on the last step.  So a coordinate's DOP853 sample,
    whose terms past s*q0 are s*r <= 1/4 times factors <= 1, stays within
    (|q1| + ... + |q6|)/4 of its range from y to z.  When the horizon has
    _ARRAY_PASS_MIN intervals or more, a DOP853 step with a coordinate
    _outside the capture box (any DOP853 step, at a radius <= 0) appends its
    record to dop for _grid_samples, and z at t to flat; any other step, each
    ode23s one among them, appends each sample to flat and tests it.
    Returns CAPTURED or HORIZON_REACHED, or raises _BoundaryHit when the step size falls
    below the step floor _STEP_FLOOR*max(t, dt) or a Cartesian step below _MIN_NORMAL.

    DOP853's stage N is unpacked once into fNa, fNb, fNc.  Stage 13, f(z),
    is evaluated once the step is accepted, and the extra stages 14..16
    only when the step holds a grid time.  ode23s takes one Jacobian per
    accepted state, a rejected step keeping it, and its first is the one
    that confirmed the switch.  jac(y) gives the nonzero entries (J02, J12,
    J21, J22), the sparsity of the polar field, and W = I - h*d*J is solved
    in closed form: the angular (delta, gamma) block first, then sigma.  In
    the formulas of ode23s, f0 is (f1a, f1b, f1c), k1 is (a1, a2,
    a3), f1 is (g1, g2, g3), k2 is (b1, b2, b3) and k3 is (c1, c2, c3).
    """
    rtol, atol, dt, radius, sqrt, hypot = (cfg.rtol, cfg.atol, cfg.dt, cfg.capture_radius,
                                           math.sqrt, math.hypot)
    ln_radius = math.log(radius) if radius > 0.0 else -math.inf
    n = _interval_count(dt, cfg.t_final)
    t_end, polar, screen = n * dt, cfg.frame is Frame.POLAR, n >= _ARRAY_PASS_MIN
    (lo1, hi1), (lo2, hi2), (lo3, hi3) = (  # coordinate N of a captured sample is in (loN, hiN)
        ((-math.inf, ln_radius), (-radius, radius), (-radius, radius)) if polar
        else ((-radius, radius), (-radius, radius), (-math.inf, math.inf)))
    can_switch = jac is not None
    t, y, fy = 0.0, y0, f(y0)
    try:
        h = _initial_step(f, y0, fy, cfg, t_end)
    except ArithmeticError as exc:  # (f/s)**2 overflows, or an infinite |f| makes h 0
        raise _BoundaryHit(f"initial-step estimate overflowed at t=0: {exc}") from None
    i, t_sample, stiff, expo, captured, probe, n_steps = 1, dt, False, -0.125, False, False, 0
    # a rejected or retried step comes back with its smaller h
    while h >= _STEP_FLOOR * max(t, dt):
        last = t + h >= t_end
        if last:
            h = t_end - t
        t_new = t_end if last else t + h
        y1, y2, y3 = y
        f1a, f1b, f1c = fy
        try:
            if stiff:
                hd = h * _ROS_D
                a12, a21, a22, w02 = hd * j12, hd * j21, 1.0 - hd * j22, hd * j02
                inv_det = 1.0 / (a22 - a12 * a21)
                # W^-1 r = (r1 + w02*x3, (a22*r2 + a12*r3)*inv_det, x3 = (r3 + a21*r2)*inv_det)
                a2, a3 = (a22 * f1b + a12 * f1c) * inv_det, (f1c + a21 * f1b) * inv_det
                a1 = f1a + w02 * a3
                g1, g2, g3 = f((y1 + 0.5 * h * a1, y2 + 0.5 * h * a2, y3 + 0.5 * h * a3))
                r1, r2, r3 = g1 - a1, g2 - a2, g3 - a3
                b2, b3 = (a22 * r2 + a12 * r3) * inv_det, (r3 + a21 * r2) * inv_det
                b1, b2, b3 = r1 + w02 * b3 + a1, b2 + a2, b3 + a3
                z1, z2, z3 = z = (y1 + h * b1, y2 + h * b2, y3 + h * b3)
                fz = f(z)
                r1 = fz[0] - _ROS_E32 * (b1 - g1) - 2.0 * (a1 - f1a)
                r2 = fz[1] - _ROS_E32 * (b2 - g2) - 2.0 * (a2 - f1b)
                r3 = fz[2] - _ROS_E32 * (b3 - g3) - 2.0 * (a3 - f1c)
                c2, c3 = (a22 * r2 + a12 * r3) * inv_det, (r3 + a21 * r2) * inv_det
                c1 = r1 + w02 * c3
                scale = h / (1.0 - 2.0 * _ROS_D)
            else:
                f2a, f2b, f2c = f((y1 + h * _A2_1 * f1a, y2 + h * _A2_1 * f1b,
                                   y3 + h * _A2_1 * f1c))
                f3a, f3b, f3c = f((
                    y1 + h * (_A3_1 * f1a + _A3_2 * f2a),
                    y2 + h * (_A3_1 * f1b + _A3_2 * f2b),
                    y3 + h * (_A3_1 * f1c + _A3_2 * f2c)))
                f4a, f4b, f4c = f((
                    y1 + h * (_A4_1 * f1a + _A4_3 * f3a),
                    y2 + h * (_A4_1 * f1b + _A4_3 * f3b),
                    y3 + h * (_A4_1 * f1c + _A4_3 * f3c)))
                f5a, f5b, f5c = f((
                    y1 + h * (_A5_1 * f1a + _A5_3 * f3a + _A5_4 * f4a),
                    y2 + h * (_A5_1 * f1b + _A5_3 * f3b + _A5_4 * f4b),
                    y3 + h * (_A5_1 * f1c + _A5_3 * f3c + _A5_4 * f4c)))
                f6a, f6b, f6c = f((
                    y1 + h * (_A6_1 * f1a + _A6_4 * f4a + _A6_5 * f5a),
                    y2 + h * (_A6_1 * f1b + _A6_4 * f4b + _A6_5 * f5b),
                    y3 + h * (_A6_1 * f1c + _A6_4 * f4c + _A6_5 * f5c)))
                f7a, f7b, f7c = f((
                    y1 + h * (_A7_1 * f1a + _A7_4 * f4a + _A7_5 * f5a + _A7_6 * f6a),
                    y2 + h * (_A7_1 * f1b + _A7_4 * f4b + _A7_5 * f5b + _A7_6 * f6b),
                    y3 + h * (_A7_1 * f1c + _A7_4 * f4c + _A7_5 * f5c + _A7_6 * f6c)))
                f8a, f8b, f8c = f((
                    y1 + h * (_A8_1 * f1a + _A8_4 * f4a + _A8_5 * f5a + _A8_6 * f6a + _A8_7 * f7a),
                    y2 + h * (_A8_1 * f1b + _A8_4 * f4b + _A8_5 * f5b + _A8_6 * f6b + _A8_7 * f7b),
                    y3 + h * (_A8_1 * f1c + _A8_4 * f4c + _A8_5 * f5c + _A8_6 * f6c + _A8_7 * f7c)))
                u1 = y1 + h * (_A9_1 * f1a + _A9_4 * f4a + _A9_5 * f5a + _A9_6 * f6a + _A9_7 * f7a +
                               _A9_8 * f8a)
                u2 = y2 + h * (_A9_1 * f1b + _A9_4 * f4b + _A9_5 * f5b + _A9_6 * f6b + _A9_7 * f7b +
                               _A9_8 * f8b)
                u3 = y3 + h * (_A9_1 * f1c + _A9_4 * f4c + _A9_5 * f5c + _A9_6 * f6c + _A9_7 * f7c +
                               _A9_8 * f8c)
                f9a, f9b, f9c = f((u1, u2, u3))
                u1 = y1 + h * (_A10_1 * f1a + _A10_4 * f4a + _A10_5 * f5a + _A10_6 * f6a +
                               _A10_7 * f7a + _A10_8 * f8a + _A10_9 * f9a)
                u2 = y2 + h * (_A10_1 * f1b + _A10_4 * f4b + _A10_5 * f5b + _A10_6 * f6b +
                               _A10_7 * f7b + _A10_8 * f8b + _A10_9 * f9b)
                u3 = y3 + h * (_A10_1 * f1c + _A10_4 * f4c + _A10_5 * f5c + _A10_6 * f6c +
                               _A10_7 * f7c + _A10_8 * f8c + _A10_9 * f9c)
                f10a, f10b, f10c = f((u1, u2, u3))
                u1 = y1 + h * (_A11_1 * f1a + _A11_4 * f4a + _A11_5 * f5a + _A11_6 * f6a +
                               _A11_7 * f7a + _A11_8 * f8a + _A11_9 * f9a + _A11_10 * f10a)
                u2 = y2 + h * (_A11_1 * f1b + _A11_4 * f4b + _A11_5 * f5b + _A11_6 * f6b +
                               _A11_7 * f7b + _A11_8 * f8b + _A11_9 * f9b + _A11_10 * f10b)
                u3 = y3 + h * (_A11_1 * f1c + _A11_4 * f4c + _A11_5 * f5c + _A11_6 * f6c +
                               _A11_7 * f7c + _A11_8 * f8c + _A11_9 * f9c + _A11_10 * f10c)
                f11a, f11b, f11c = f((u1, u2, u3))
                u1 = y1 + h * (_A12_1 * f1a + _A12_4 * f4a + _A12_5 * f5a + _A12_6 * f6a +
                               _A12_7 * f7a + _A12_8 * f8a + _A12_9 * f9a + _A12_10 * f10a +
                               _A12_11 * f11a)
                u2 = y2 + h * (_A12_1 * f1b + _A12_4 * f4b + _A12_5 * f5b + _A12_6 * f6b +
                               _A12_7 * f7b + _A12_8 * f8b + _A12_9 * f9b + _A12_10 * f10b +
                               _A12_11 * f11b)
                u3 = y3 + h * (_A12_1 * f1c + _A12_4 * f4c + _A12_5 * f5c + _A12_6 * f6c +
                               _A12_7 * f7c + _A12_8 * f8c + _A12_9 * f9c + _A12_10 * f10c +
                               _A12_11 * f11c)
                f12a, f12b, f12c = f((u1, u2, u3))
                g1 = (_B1 * f1a + _B6 * f6a + _B7 * f7a + _B8 * f8a + _B9 * f9a + _B10 * f10a +
                      _B11 * f11a + _B12 * f12a)
                g2 = (_B1 * f1b + _B6 * f6b + _B7 * f7b + _B8 * f8b + _B9 * f9b + _B10 * f10b +
                      _B11 * f11b + _B12 * f12b)
                g3 = (_B1 * f1c + _B6 * f6c + _B7 * f7c + _B8 * f8c + _B9 * f9c + _B10 * f10c +
                      _B11 * f11c + _B12 * f12c)
                z1, z2, z3 = y1 + h * g1, y2 + h * g2, y3 + h * g3
            s1 = atol + rtol * max(abs(y1), abs(z1))
            s2 = atol + rtol * max(abs(y2), abs(z2))
            s3 = atol + rtol * max(abs(y3), abs(z3))
            if stiff:  # the RMS of h/6*(k1 - 2*k2 + k3) over s
                err = sqrt(((h / 6.0 * (a1 - 2.0 * b1 + c1) / s1) ** 2 +
                            (h / 6.0 * (a2 - 2.0 * b2 + c2) / s2) ** 2 +
                            (h / 6.0 * (a3 - 2.0 * b3 + c3) / s3) ** 2) / 3.0)
            else:
                e51 = (_E1 * f1a + _E6 * f6a + _E7 * f7a + _E8 * f8a + _E9 * f9a + _E10 * f10a +
                       _E11 * f11a + _E12 * f12a) / s1
                e52 = (_E1 * f1b + _E6 * f6b + _E7 * f7b + _E8 * f8b + _E9 * f9b + _E10 * f10b +
                       _E11 * f11b + _E12 * f12b) / s2
                e53 = (_E1 * f1c + _E6 * f6c + _E7 * f7c + _E8 * f8c + _E9 * f9c + _E10 * f10c +
                       _E11 * f11c + _E12 * f12c) / s3
                e31 = (g1 - _BHH1 * f1a - _BHH2 * f9a - _BHH3 * f12a) / s1
                e32 = (g2 - _BHH1 * f1b - _BHH2 * f9b - _BHH3 * f12b) / s2
                e33 = (g3 - _BHH1 * f1c - _BHH2 * f9c - _BHH3 * f12c) / s3
                err5 = e51 * e51 + e52 * e52 + e53 * e53
                err3 = e31 * e31 + e32 * e32 + e33 * e33
                den = err5 + 0.01 * err3
                err = h * err5 / sqrt(3.0 * den) if den else 0.0
            if not err <= 1.0:  # also rejects a NaN error
                h *= max(0.2, 0.9 * err**expo)
                probe = can_switch  # a step held by stability: test the next accepted one
                continue
            if not polar and hypot(z1, z2) < _MIN_NORMAL:
                raise _BoundaryHit(f"step from t={t:.6g} left the domain: {_SUBNORMAL_NOTE}")
            if not stiff:
                z = (z1, z2, z3)
                f13a, f13b, f13c = fz = f(z)
            if t_sample <= t_new and not stiff:
                v1 = y1 + h * (_A14_1 * f1a + _A14_7 * f7a + _A14_8 * f8a + _A14_9 * f9a +
                               _A14_10 * f10a + _A14_11 * f11a + _A14_12 * f12a + _A14_13 * f13a)
                v2 = y2 + h * (_A14_1 * f1b + _A14_7 * f7b + _A14_8 * f8b + _A14_9 * f9b +
                               _A14_10 * f10b + _A14_11 * f11b + _A14_12 * f12b + _A14_13 * f13b)
                v3 = y3 + h * (_A14_1 * f1c + _A14_7 * f7c + _A14_8 * f8c + _A14_9 * f9c +
                               _A14_10 * f10c + _A14_11 * f11c + _A14_12 * f12c + _A14_13 * f13c)
                f14a, f14b, f14c = f((v1, v2, v3))
                v1 = y1 + h * (_A15_1 * f1a + _A15_6 * f6a + _A15_7 * f7a + _A15_8 * f8a +
                               _A15_11 * f11a + _A15_12 * f12a + _A15_13 * f13a + _A15_14 * f14a)
                v2 = y2 + h * (_A15_1 * f1b + _A15_6 * f6b + _A15_7 * f7b + _A15_8 * f8b +
                               _A15_11 * f11b + _A15_12 * f12b + _A15_13 * f13b + _A15_14 * f14b)
                v3 = y3 + h * (_A15_1 * f1c + _A15_6 * f6c + _A15_7 * f7c + _A15_8 * f8c +
                               _A15_11 * f11c + _A15_12 * f12c + _A15_13 * f13c + _A15_14 * f14c)
                f15a, f15b, f15c = f((v1, v2, v3))
                v1 = y1 + h * (_A16_1 * f1a + _A16_6 * f6a + _A16_7 * f7a + _A16_8 * f8a +
                               _A16_9 * f9a + _A16_13 * f13a + _A16_14 * f14a + _A16_15 * f15a)
                v2 = y2 + h * (_A16_1 * f1b + _A16_6 * f6b + _A16_7 * f7b + _A16_8 * f8b +
                               _A16_9 * f9b + _A16_13 * f13b + _A16_14 * f14b + _A16_15 * f15b)
                v3 = y3 + h * (_A16_1 * f1c + _A16_6 * f6c + _A16_7 * f7c + _A16_8 * f8c +
                               _A16_9 * f9c + _A16_13 * f13c + _A16_14 * f14c + _A16_15 * f15c)
                f16a, f16b, f16c = f((v1, v2, v3))
                # the dense output's q0..q6, as in the comment on the _Dk_j
                q01, q02, q03 = z1 - y1, z2 - y2, z3 - y3
                q11, q12, q13 = h * f1a - q01, h * f1b - q02, h * f1c - q03
                q21, q22, q23 = q01 - h * f13a - q11, q02 - h * f13b - q12, q03 - h * f13c - q13
                q31 = h * (_D4_1 * f1a + _D4_6 * f6a + _D4_7 * f7a + _D4_8 * f8a + _D4_9 * f9a +
                           _D4_10 * f10a + _D4_11 * f11a + _D4_12 * f12a + _D4_13 * f13a +
                           _D4_14 * f14a + _D4_15 * f15a + _D4_16 * f16a)
                q32 = h * (_D4_1 * f1b + _D4_6 * f6b + _D4_7 * f7b + _D4_8 * f8b + _D4_9 * f9b +
                           _D4_10 * f10b + _D4_11 * f11b + _D4_12 * f12b + _D4_13 * f13b +
                           _D4_14 * f14b + _D4_15 * f15b + _D4_16 * f16b)
                q33 = h * (_D4_1 * f1c + _D4_6 * f6c + _D4_7 * f7c + _D4_8 * f8c + _D4_9 * f9c +
                           _D4_10 * f10c + _D4_11 * f11c + _D4_12 * f12c + _D4_13 * f13c +
                           _D4_14 * f14c + _D4_15 * f15c + _D4_16 * f16c)
                q41 = h * (_D5_1 * f1a + _D5_6 * f6a + _D5_7 * f7a + _D5_8 * f8a + _D5_9 * f9a +
                           _D5_10 * f10a + _D5_11 * f11a + _D5_12 * f12a + _D5_13 * f13a +
                           _D5_14 * f14a + _D5_15 * f15a + _D5_16 * f16a)
                q42 = h * (_D5_1 * f1b + _D5_6 * f6b + _D5_7 * f7b + _D5_8 * f8b + _D5_9 * f9b +
                           _D5_10 * f10b + _D5_11 * f11b + _D5_12 * f12b + _D5_13 * f13b +
                           _D5_14 * f14b + _D5_15 * f15b + _D5_16 * f16b)
                q43 = h * (_D5_1 * f1c + _D5_6 * f6c + _D5_7 * f7c + _D5_8 * f8c + _D5_9 * f9c +
                           _D5_10 * f10c + _D5_11 * f11c + _D5_12 * f12c + _D5_13 * f13c +
                           _D5_14 * f14c + _D5_15 * f15c + _D5_16 * f16c)
                q51 = h * (_D6_1 * f1a + _D6_6 * f6a + _D6_7 * f7a + _D6_8 * f8a + _D6_9 * f9a +
                           _D6_10 * f10a + _D6_11 * f11a + _D6_12 * f12a + _D6_13 * f13a +
                           _D6_14 * f14a + _D6_15 * f15a + _D6_16 * f16a)
                q52 = h * (_D6_1 * f1b + _D6_6 * f6b + _D6_7 * f7b + _D6_8 * f8b + _D6_9 * f9b +
                           _D6_10 * f10b + _D6_11 * f11b + _D6_12 * f12b + _D6_13 * f13b +
                           _D6_14 * f14b + _D6_15 * f15b + _D6_16 * f16b)
                q53 = h * (_D6_1 * f1c + _D6_6 * f6c + _D6_7 * f7c + _D6_8 * f8c + _D6_9 * f9c +
                           _D6_10 * f10c + _D6_11 * f11c + _D6_12 * f12c + _D6_13 * f13c +
                           _D6_14 * f14c + _D6_15 * f15c + _D6_16 * f16c)
                q61 = h * (_D7_1 * f1a + _D7_6 * f6a + _D7_7 * f7a + _D7_8 * f8a + _D7_9 * f9a +
                           _D7_10 * f10a + _D7_11 * f11a + _D7_12 * f12a + _D7_13 * f13a +
                           _D7_14 * f14a + _D7_15 * f15a + _D7_16 * f16a)
                q62 = h * (_D7_1 * f1b + _D7_6 * f6b + _D7_7 * f7b + _D7_8 * f8b + _D7_9 * f9b +
                           _D7_10 * f10b + _D7_11 * f11b + _D7_12 * f12b + _D7_13 * f13b +
                           _D7_14 * f14b + _D7_15 * f15b + _D7_16 * f16b)
                q63 = h * (_D7_1 * f1c + _D7_6 * f6c + _D7_7 * f7c + _D7_8 * f8c + _D7_9 * f9c +
                           _D7_10 * f10c + _D7_11 * f11c + _D7_12 * f12c + _D7_13 * f13c +
                           _D7_14 * f14c + _D7_15 * f15c + _D7_16 * f16c)
        except (DomainError, ZeroDivisionError):  # a stage outside, or W singular
            # retry with a smaller step until the step floor decides this is a
            # genuine boundary approach
            h *= 0.25
            continue
        n_steps += 1
        t_step, t = t, t_new
        if screen and not stiff and t_sample <= t and (
                radius <= 0.0 or _outside(y1, z1, lo1, hi1, q11, q21, q31, q41, q51, q61)
                or _outside(y2, z2, lo2, hi2, q12, q22, q32, q42, q52, q62)
                or _outside(y3, z3, lo3, hi3, q13, q23, q33, q43, q53, q63)):
            # no grid time i..k in (t_step, t] can be in the box: z at t, the rest in a record
            k = int(t / dt)  # one off at most from the last index with k*dt <= t
            k += ((k + 1) * dt <= t) - (k * dt > t)
            end = k if k * dt == t else k + 1
            dop += struct.pack("28d", i, end, t_step, h, *y, q01, q02, q03, q11, q12, q13, q21, q22,
                               q23, q31, q32, q33, q41, q42, q43, q51, q52, q53, q61, q62, q63)
            flat += (z1, z2, z3) if end == k else ()
            i, t_sample = k + 1, (k + 1) * dt
        while t_sample <= t:  # a screened-in step: each sample as it comes, tested for capture
            if t_sample == t:
                s1, s2, s3 = z1, z2, z3
            else:
                s = (t_sample - t_step) / h
                if stiff:
                    p, q = scale * s * (1.0 - s), scale * s * (s - 2.0 * _ROS_D)
                    s1, s2, s3 = y1 + p * a1 + q * b1, y2 + p * a2 + q * b2, y3 + p * a3 + q * b3
                else:
                    r = 1.0 - s
                    c1 = q31 + s * (q41 + r * (q51 + s * q61))
                    c2 = q32 + s * (q42 + r * (q52 + s * q62))
                    c3 = q33 + s * (q43 + r * (q53 + s * q63))
                    s1 = y1 + s * (q01 + r * (q11 + s * (q21 + r * c1)))
                    s2 = y2 + s * (q02 + r * (q12 + s * (q22 + r * c2)))
                    s3 = y3 + s * (q03 + r * (q13 + s * (q23 + r * c3)))
            flat += (s1, s2, s3)
            if (s1 < ln_radius and abs(s2) < radius and abs(s3) < radius if polar
                    else hypot(s1, s2) < radius and _pose_captured(s1, s2, s3, radius)):
                captured = True
                break
            i += 1
            t_sample = i * dt
        if captured or last:
            break
        y, fy, h_step = z, fz, h
        h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**expo))
        # the stiffness tests, on the accepted step h_step
        if stiff:
            n_small = n_small + 1 if h_step * spectral < 1.0 else 0
            if n_small == _NONSTIFF_AFTER:
                notes.append(_stiff_note(t_start, t, n_steps, n_jac))
                stiff, expo, n_steps, probe = False, -0.125, 0, False
        elif can_switch and (probe or n_steps % _STIFF_EVERY == 0):
            d1, d2, d3 = f13a - f12a, f13b - f12b, f13c - f12c
            probe = h_step * h_step * (d1 * d1 + d2 * d2 + d3 * d3) > _STIFF_RATIO_SQ * (
                (z1 - u1) ** 2 + (z2 - u2) ** 2 + (z3 - u3) ** 2)
        if stiff or probe:
            j02, j12, j21, j22 = jac(y)
            # spectral radius: the roots of l^2 - J22*l - J12*J21 (the third eigenvalue is 0)
            disc = j22 * j22 + 4.0 * j12 * j21
            spectral = (abs(j22) + sqrt(disc)) / 2.0 if disc >= 0.0 else sqrt(abs(j12 * j21))
            if stiff:
                n_jac += 1
            elif h_step * h_step * (spectral * spectral) > _STIFF_RATIO_SQ:  # stiff: J is reused
                stiff, expo, t_start, n_steps, n_jac, n_small = True, -1.0 / 3.0, t, 0, 1, 0
    if stiff:
        notes.append(_stiff_note(t_start, t, n_steps, n_jac))
    if captured:
        return SimStatus.CAPTURED
    if t == t_end:
        return SimStatus.HORIZON_REACHED
    raise _BoundaryHit(f"step size {h:.3e} below the step floor {_STEP_FLOOR * max(t, dt):.3e} "
                       f"at t={t:.6g}")


# RK4's stability interval on the negative real axis ends near -2.785.
_RK4_STABLE = 2.8


def _integrate_fixed(f, y0, cfg: SimConfig, flat: list, notes: list) -> SimStatus:
    """Classic RK4 with step dt, recording the state after each step.

    The right-hand side at each new state is evaluated before the state is
    recorded, so a step that leaves the domain, or whose state or
    right-hand side overflows, ends the run (_BoundaryHit) on the last
    valid sample.  The first step whose estimate of h*|lambda| exceeds
    RK4's stability bound adds a note; stages 2 and 3 share t + h/2 and
    differ by h/2*(f2 - f1), so h*|f3 - f2| / |y3 - y2| = 2*|f3 - f2| /
    |f2 - f1|.  Appends each state to flat and returns CAPTURED or HORIZON_REACHED.
    """
    radius, polar, hypot = cfg.capture_radius, cfg.frame is Frame.POLAR, math.hypot
    ln_radius = math.log(radius) if radius > 0.0 else -math.inf
    isfinite, t = math.isfinite, 0.0
    y1, y2, y3 = y0
    h = cfg.dt
    f1 = f(y0)
    stable = True
    for i in range(1, _interval_count(cfg.dt, cfg.t_final) + 1):
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
            y1, y2, y3 = y = (
                y1 + h / 6 * (f1[0] + 2 * f2[0] + 2 * f3[0] + f4[0]),
                y2 + h / 6 * (f1[1] + 2 * f2[1] + 2 * f3[1] + f4[1]),
                y3 + h / 6 * (f1[2] + 2 * f2[2] + 2 * f3[2] + f4[2]),
            )
            if not polar and hypot(y1, y2) < _MIN_NORMAL:
                raise DomainError(_SUBNORMAL_NOTE)
            f1 = f(y)
            if not (isfinite(y1) and isfinite(y2) and isfinite(y3)):
                raise OverflowError("the state overflowed")
            if not (isfinite(f1[0]) and isfinite(f1[1]) and isfinite(f1[2])):
                raise OverflowError("the right-hand side overflowed")
        except (ValueError, OverflowError) as exc:  # DomainError, or overflow to inf or NaN
            raise _BoundaryHit(f"rk4 step from t={t:.6g} left the domain: {exc}") from None
        t = i * h
        flat += y
        if (y1 < ln_radius and abs(y2) < radius and abs(y3) < radius if polar
                else hypot(y1, y2) < radius and _pose_captured(y1, y2, y3, radius)):
            return SimStatus.CAPTURED
    return SimStatus.HORIZON_REACHED


def _grid_samples(dt: float, flat: list, dop: bytearray) -> np.ndarray:
    """A run's samples as an (n, 3) array: those the loop took, in order in flat, and samples
    i..end-1 of each DOP853 record (i, end, t_step, h, y, q0..q6), in one array pass with the
    loop's operations in its order.  Each field is repeated for its samples when the pass reads
    it, so that a run holds a few floats a sample, not a copy of its record."""
    taken = np.array(flat, dtype=float).reshape(-1, 3)
    if not dop:
        return taken
    record = np.frombuffer(dop).reshape(-1, 28).T  # a row per field
    count = (record[1] - record[0]).astype(np.intp)
    each = lambda a, b: record[a:b].repeat(count, axis=1)
    i = each(0, 1)[0] - (count.cumsum() - count).repeat(count)
    i += np.arange(len(i))
    s = (i * dt - each(2, 3)[0]) / each(3, 4)[0]
    r, sample = 1.0 - s, each(25, 28)  # from q6 out, y + s*(q0 + r*(... + s*q6)): y at k = -1
    for k in range(5, -2, -1):
        sample *= s if k % 2 else r
        sample += each(7 + 3 * k, 10 + 3 * k)
    ys = np.empty((3, len(taken) + len(i)))
    loop = np.ones(ys.shape[1], dtype=bool)
    i = i.astype(np.intp)
    ys[:, i], loop[i] = sample, False
    ys[:, loop] = taken.T  # the loop's samples fill the indices left over
    return ys.T


def _run(f, y0, cfg: SimConfig, jac=None):
    """Integrate and sample in cfg.frame; returns (times, ys, status, capture_time, notes, stop).

    ys is the sample buffer as an (n, 3) array and times[i] = i*dt, as the
    integrators computed it.  A run ends on its first sample inside the
    capture box: a polar one is captured when sigma is below
    ln(cfg.capture_radius) and both |angles| below the radius (never, for a
    radius <= 0), a Cartesian one when hypot(x, y) is and _pose_captured.
    notes are the integrator's remarks on the run (stiff stretches, rk4
    instability), each as (start of the step it names, text); stop is the
    reason for a boundary stop, else "".
    """
    flat = list(y0)  # the samples the integrator took, one state after another
    dop = bytearray()  # the adaptive loop's records of deferred samples
    notes: list[tuple[float, str]] = []
    stop = ""
    try:
        if cfg.integrator is IntegratorKind.RK45_ADAPTIVE:
            status = _integrate_adaptive(f, y0, cfg, flat, dop, notes, jac)
        else:
            status = _integrate_fixed(f, y0, cfg, flat, notes)
    except _BoundaryHit as hit:
        status, stop = SimStatus.BOUNDARY_STOP, str(hit)
    ys = _grid_samples(cfg.dt, flat, dop)
    times = np.arange(len(ys), dtype=float) * cfg.dt
    capture_time = float(times[-1]) if status is SimStatus.CAPTURED else None
    return times, ys, status, capture_time, notes, stop


def _reconstruct_cartesian(ys: np.ndarray, start: PolarState):
    """Cartesian samples' (rho, delta, gamma), unwrapped from the start's, and wrapped delta."""
    x, y, theta = ys[:, 0], ys[:, 1], ys[:, 2]
    delta = np.unwrap(angle := np.arctan2(y, x) + math.pi)
    delta += TWO_PI * round((start.delta - delta[0]) / TWO_PI)
    gamma = delta - theta
    turns = round((start.gamma - gamma[0]) / TWO_PI)
    if turns:  # a Cartesian start whose heading is not delta - gamma itself
        gamma += TWO_PI * turns
    return np.hypot(x, y), delta, gamma, wrap_angle(angle)


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
    def law(xp):  # arrays go through omega_tilde, the call perfbench counts
        if xp is ARRAY_MATH:
            return lambda delta, gamma: omega_tilde(spec, delta, gamma)
        return steering_law(xp, spec.kind, spec.gains)

    return _simulate(x0, cfg, spec.space, spec.kind.value, spec.gains.k1, law, lyapunov)


def simulate_unsteered(k1: float, x0: PolarState, cfg: SimConfig = SimConfig()) -> Trajectory:
    """Integrate with the turn rate forced to zero (steering off).

    Only the forward-velocity feedback v = k1*rho*cos(gamma) acts, so
    theta is frozen and both angles drift at the same rate:
    delta' = gamma' = (k1/2)*sin(2*gamma).  Useful for studying the
    uncontrolled line-of-sight behavior.  The run is simulate's on the
    space S, steered by omega_tilde = -(k1/2)*sin(2*gamma), in either frame
    (stiff fallback in the polar one); a start with rho = 0 raises DomainError.
    """
    if not (math.isfinite(k1) and k1 > 0.0):
        raise ValueError(f"gain k1={k1} must be finite and positive")
    return _simulate(x0, cfg, StateSpace.S, "the unsteered loop", k1,
                     lambda xp: lambda delta, gamma: -0.5 * k1 * xp.sin(2.0 * gamma))


def _simulate(x0, cfg: SimConfig, space: StateSpace, name: str, k1: float, law,
              lyapunov: CompositeLyapunovFn | None = None) -> Trajectory:
    """The run of simulate and simulate_unsteered, in space, steered by omega_tilde =
    law(xp)(delta, gamma): xp is FLOAT_MATH in the field, COMPLEX_MATH in the polar
    Jacobian of the stiff fallback and ARRAY_MATH on the sample columns."""
    polar0 = x0 if isinstance(x0, PolarState) else cart_to_polar(x0)
    if not space.contains(polar0):
        raise DomainError(f"initial state outside the open space {space.value} of {name}")

    if cfg.frame is Frame.POLAR:
        y0 = (math.log(polar0.rho), polar0.delta, polar0.gamma)
        f, jac = _polar_field(k1, law(FLOAT_MATH)), _polar_jacobian(k1, law(COMPLEX_MATH))
    else:
        cart0 = x0 if isinstance(x0, CartesianState) else polar_to_cart(x0)
        y0 = (cart0.x, cart0.y, cart0.theta)
        f, jac = _cartesian_field(k1, law(FLOAT_MATH)), None
    times, ys, status, capture_time, notes, stop = _run(f, y0, cfg, jac)
    rho, delta, gamma, delta_fb = (
        (np.exp(ys[:, 0]), ys[:, 1], ys[:, 2], ys[:, 1]) if cfg.frame is Frame.POLAR
        else _reconstruct_cartesian(ys, polar0))

    inside = space.contains_angles(delta, gamma)
    if not np.all(inside):
        n = int(np.argmin(inside))
        stop = f"state left the domain {space.value} at t={times[n]:.6g}"
        # a remark on a step after the last kept sample names a cut-off part of the run
        notes = [note for note in notes if note[0] <= times[n - 1]]
        status, capture_time = SimStatus.BOUNDARY_STOP, None
        times, ys, rho, delta, gamma, delta_fb = (
            a[:n] for a in (times, ys, rho, delta, gamma, delta_fb))

    if cfg.frame is Frame.POLAR:
        theta, x, y_pos, gamma_fb = delta - gamma, -rho * np.cos(delta), -rho * np.sin(delta), gamma
    else:
        x, y_pos, theta = ys[:, 0], ys[:, 1], ys[:, 2]
        # Feedback as computed during integration: from the wrapped image.
        gamma_fb = wrap_angle(delta_fb - theta)
        if not rho.all():
            raise DomainError("polar chart undefined at rho=0")

    tilde = law(ARRAY_MATH)(delta_fb, gamma_fb)
    v = k1 * rho * np.cos(gamma_fb)
    omega = 0.5 * k1 * np.sin(2.0 * gamma_fb) + tilde
    if lyapunov is None:
        values = np.full(len(times), np.nan)
    else:
        with np.errstate(over="ignore"):  # as with floats, V overflows quietly to inf
            values = lyapunov.value(rho, delta, gamma)

    note = "; ".join(filter(None, [text for _, text in notes] + [stop]))
    return Trajectory(t=times, rho=rho, delta=delta, gamma=gamma, x=x, y=y_pos, theta=theta, v=v,
                      omega=omega, omega_tilde=tilde, lyapunov=values, status=status,
                      frame=cfg.frame, capture_time=capture_time, note=note)
