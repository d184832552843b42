"""Grid certification suite for the parking controllers.

Every check samples a stated inequality or definition on a grid or on seeded
random points and reports the worst margin found, together with the point
that achieved it.  A passing report means "certified on grid": the evidence
is numerical and finite, never a proof.

Margins are oriented so that negative is good.  Each report records its own
tolerance and the criterion relating margin to the pass flag, so reports are
self-describing and reproduce exactly from their recorded seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .controllers import ControllerKind, ControllerSpec, omega_tilde
from .geometry import DomainError, PolarState, StateSpace, metric
from .lyapunov import (
    ArgumentOrder,
    Compositor,
    CompositeLyapunovFn,
    LyapunovFn,
)
from .sim import SimConfig, Trajectory, simulate

__all__ = [
    "CertReport",
    "check_lemma1",
    "check_clf",
    "check_proposition1",
    "check_kl_decay",
    "check_gradient",
    "run_suite",
    "SUITE_NAMES",
]


_NONFINITE_KEY = "worst_margin_nonfinite"


@dataclass(frozen=True)
class CertReport:
    """Outcome of one numerical certification check.

    Attributes:
        check_name: Identifier of the check, unique within a suite run.
        domain: Human-readable description of the grids, gain sets, and
            truncations the check sampled.
        worst_margin: Largest violation value found; negative means the
            property held with room to spare everywhere.
        witness: Point achieving the worst margin (layout given by the
            check; None when the check has no sampled points).
        passed: True iff worst_margin satisfies the recorded criterion.
        tolerance: Threshold the margin is compared against.
        criterion: How margin and tolerance combine, e.g. "worst_margin < 0".
        seed: RNG seed used for sampling; None for deterministic grids.
        details: Extra scalar diagnostics (JSON-safe).
    """

    check_name: str
    domain: str
    worst_margin: float
    witness: tuple | None
    passed: bool
    tolerance: float
    criterion: str
    seed: int | None = None
    details: dict = field(default_factory=dict)

    def summary(self) -> str:
        verdict = "certified on grid" if self.passed else "NOT certified"
        return f"{self.check_name}: {verdict} (worst margin {self.worst_margin:.3e})"

    def to_dict(self) -> dict:
        """JSON-ready fields.

        A non-finite worst margin (inf after an overflow or NaN, -inf when
        nothing was sampled) is written as None, with its value and the
        reason under details["worst_margin_nonfinite"], so the dict stays
        strict JSON; from_dict restores it.
        """
        worst, details = self.worst_margin, self.details
        if not math.isfinite(worst):
            reason = "no sampled point" if worst < 0.0 else "a margin overflowed or was NaN"
            details = {**details, _NONFINITE_KEY: {"value": repr(worst), "reason": reason}}
            worst = None
        return {
            "check_name": self.check_name,
            "domain": self.domain,
            "worst_margin": worst,
            "witness": list(self.witness) if self.witness is not None else None,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "criterion": self.criterion,
            "seed": self.seed,
            "details": details,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "CertReport":
        witness = d["witness"]
        worst, details = d["worst_margin"], d["details"]
        if worst is None:
            details = dict(details)
            worst = float(details.pop(_NONFINITE_KEY)["value"])
        return cls(
            check_name=d["check_name"],
            domain=d["domain"],
            worst_margin=worst,
            witness=tuple(witness) if witness is not None else None,
            passed=d["pass"],
            tolerance=d["tolerance"],
            criterion=d["criterion"],
            seed=d["seed"],
            details=details,
        )

    @classmethod
    def from_json(cls, text: str) -> "CertReport":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# sampling helpers

_ANGLE_CAP = 10.0  # truncation for coordinates the space leaves unbounded
_RHO_RANGE = (1e-6, 10.0)


def _angle_bound(bounded: bool, barrier_offset: float) -> float:
    return math.pi - barrier_offset if bounded else _ANGLE_CAP


def _sample_states(
    space: StateSpace,
    n: int,
    rng: np.random.Generator,
    *,
    barrier_offset: float,
    rho_range: tuple[float, float] = _RHO_RANGE,
    accept: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, str]:
    """Draw (rho, delta, gamma) rows inside the open space.

    Optionally rejects angle pairs failing `accept`, which maps arrays of
    delta and gamma to a boolean array; the returned domain string records
    all truncations so reports stay self-describing.
    """
    d_max = _angle_bound(space.delta_bounded, barrier_offset)
    g_max = _angle_bound(space.gamma_bounded, barrier_offset)
    rows = np.empty((n, 3))
    got = 0
    while got < n:
        m = max(n - got, 64)
        cand = np.column_stack(
            [
                rng.uniform(rho_range[0], rho_range[1], m),
                rng.uniform(-d_max, d_max, m),
                rng.uniform(-g_max, g_max, m),
            ]
        )
        if accept is not None:
            with np.errstate(all="ignore"):
                cand = cand[accept(cand[:, 1], cand[:, 2])]
        take = min(n - got, len(cand))
        rows[got : got + take] = cand[:take]
        got += take
    desc = (
        f"{n} samples on {space.value}: rho in [{rho_range[0]:g}, {rho_range[1]:g}], "
        f"|delta| <= {d_max:.4f}, |gamma| <= {g_max:.4f}"
    )
    if accept is not None:
        desc += " (value-capped)"
    return rows, desc


def _worst(margins: np.ndarray) -> tuple[float, int | None]:
    """Largest margin and the flat index of its first occurrence.

    NaN counts as an outright violation (+inf).  An empty array gives
    (-inf, None).
    """
    margins = np.ravel(margins)
    if margins.size == 0:
        return -math.inf, None
    margins = np.where(np.isnan(margins), math.inf, margins)
    i = int(np.argmax(margins))
    return float(margins[i]), i


def _row(points: np.ndarray, i: int | None) -> tuple | None:
    return None if i is None else tuple(float(v) for v in points[i])


# ---------------------------------------------------------------------------
# individual checks

_LEMMA1_K = (1.0, 1.5, 2.0, 5.0, 10.0, 100.0)


def check_lemma1(
    k_values: Sequence[float] = _LEMMA1_K,
    gamma_grid: np.ndarray | None = None,
    tolerance: float = 1e-12,
) -> CertReport:
    """Certify 1 - k*cos(g)*(1 + cos(g)) <= 2*(1 + k)*tan(g/2)^2 on a grid.

    The inequality is the key bound behind the bounded-turn controllers'
    decay estimates; it is asserted for k >= 1 only.

    Raises:
        ValueError: If any k < 1 (outside the stated hypothesis) or the
            gamma grid reaches |gamma| >= pi (tangent blows up).
    """
    k_arr = np.asarray(k_values, dtype=float)
    if np.any(k_arr < 1.0):
        raise ValueError("inequality is only claimed for k >= 1")
    if gamma_grid is None:
        gamma_grid = np.linspace(-math.pi + 1e-3, math.pi - 1e-3, 10_000)
    gamma = np.asarray(gamma_grid, dtype=float)
    if np.any(np.abs(gamma) >= math.pi):
        raise ValueError("gamma grid must stay strictly inside (-pi, pi)")

    cos_g = np.cos(gamma)
    tan_half_sq = np.tan(0.5 * gamma) ** 2
    worst = -math.inf
    witness = None
    for k in k_arr:  # one row at a time keeps the temporaries small
        margins = (1.0 - k * cos_g * (1.0 + cos_g)) - 2.0 * (1.0 + k) * tan_half_sq
        margin, i = _worst(margins)
        if margin > worst:
            worst, witness = margin, (float(k), float(gamma[i]))

    return CertReport(
        check_name="lemma1",
        domain=(
            f"k in {{{', '.join(f'{k:g}' for k in k_arr)}}}; "
            f"{gamma.size}-point gamma grid on [{gamma[0]:.4f}, {gamma[-1]:.4f}]"
        ),
        worst_margin=worst,
        witness=witness,
        passed=worst <= tolerance,
        tolerance=tolerance,
        criterion="worst_margin <= tolerance",
        seed=None,
        details={"n_points": int(gamma.size * k_arr.size)},
    )


def check_clf(
    fn: CompositeLyapunovFn,
    spec: ControllerSpec,
    samples: np.ndarray | None = None,
    *,
    n_samples: int = 10_000,
    seed: int = 0,
    barrier_offset: float = 1e-3,
    omega_fn: Callable[[float, float, float], float] | None = None,
    value_cap: float | None = None,
) -> CertReport:
    """Certify strict decrease of a full-state candidate under the feedback.

    At each off-origin sample the derivative of `fn` along the vector field
    is evaluated with the designed inputs: forward speed over distance equal
    to k1*cos(gamma), turn rate from the controller.  Passing requires the
    derivative to be strictly negative at every sample.

    Args:
        fn: Full-state candidate; its gradient supplies the analytic row.
        spec: Controller providing the inputs (gains should match fn's).
        samples: Optional explicit (n, 3) array of (rho, delta, gamma) rows;
            overrides random sampling.
        omega_fn: Override for the turn-rate input, signature
            (rho, delta, gamma) -> omega on floats, called once per row.
            Used to show the check rejects perturbed feedback; None uses
            the designed turn rate.
        value_cap: When set, rejects samples whose angular value exceeds
            the cap.  Needed for exponential merges, whose gradient entries
            overflow the double range near barriers; the term-by-term
            derivative here would then hit inf - inf.
    """
    rng = np.random.default_rng(seed)
    accept = None
    if value_cap is not None:
        accept = lambda d, g: fn.angular.value(d, g) <= value_cap  # noqa: E731
    if samples is None:
        samples, domain = _sample_states(
            spec.space, n_samples, rng, barrier_offset=barrier_offset, accept=accept
        )
        domain += f"; seed {seed}"
        if value_cap is not None:
            domain += f"; angular value cap {value_cap:g}"
    else:
        samples = np.asarray(samples, dtype=float)
        domain = f"{len(samples)} caller-supplied samples on {spec.space.value}"

    k1 = spec.gains.k1
    rho, delta, gamma = samples[:, 0], samples[:, 1], samples[:, 2]
    # As with floats, overflow saturates to inf and inf - inf gives NaN,
    # both quietly; _worst counts NaN as a violation.
    with np.errstate(all="ignore"):
        g_rho, g_delta, g_gamma = fn.gradient(rho, delta, gamma)
        cos_g = np.cos(gamma)
        rho_rate = -k1 * rho * cos_g * cos_g
        slip = 0.5 * k1 * np.sin(2.0 * gamma)
        if omega_fn is None:
            omega = slip + omega_tilde(spec, delta, gamma)
        else:
            omega = np.array([omega_fn(*row) for row in samples.tolist()], dtype=float)
        vdot = g_rho * rho_rate + g_delta * slip + g_gamma * (slip - omega)
    worst, i = _worst(np.broadcast_to(vdot, rho.shape))

    return CertReport(
        check_name=f"clf[{spec.kind.value}]",
        domain=domain,
        worst_margin=worst,
        witness=_row(samples, i),
        passed=worst < 0.0,
        tolerance=0.0,
        criterion="worst_margin < 0",
        seed=seed if samples is None else None,
        details={"n_samples": int(len(samples)), "turn_rate": "designed" if omega_fn is None else "override"},
    )


_COMP_GRID = [0.0] + [10.0 ** e for e in range(-6, 3)]


def check_proposition1(
    comp: Compositor,
    fn: LyapunovFn,
    *,
    n_samples: int = 2_000,
    seed: int = 0,
    barrier_offset: float = 1e-3,
) -> CertReport:
    """Certify the merge-function conditions and closed-loop decrease.

    Conditions checked on a log grid of nonnegative arguments (truncated at
    1e2, matching the rho <= 10 sampling cap):
      (1) zero at the origin, strictly positive elsewhere;
      (2) both partial derivatives strictly positive off the origin;
      (3) strictly increasing along the diagonal.
    Then the induced full-state function must have a strictly negative
    derivative along the matched closed loop at off-origin samples.

    Never raises on a bad merge function: a violated condition is returned
    as a failing report with its witness.
    """
    worst = -math.inf
    witness = None
    failing = None

    def note(margin, point, label):
        nonlocal worst, witness, failing
        if math.isnan(margin):
            margin = math.inf
        if margin > worst:
            worst, witness, failing = margin, point, label

    origin_err = abs(comp.value(0.0, 0.0)) - 1e-12
    note(origin_err, (0.0, 0.0), "zero-at-origin")
    for r in _COMP_GRID:
        for s in _COMP_GRID:
            if r == 0.0 and s == 0.0:
                continue
            note(-comp.value(r, s), (r, s), "positive-off-origin")
            p_r, p_s = comp.partials(r, s)
            note(-min(p_r, p_s), (r, s), "positive-partials")
    diag = [comp.value(t, t) for t in _COMP_GRID[1:]]
    for a, b, t in zip(diag, diag[1:], _COMP_GRID[2:]):
        note(a - b, (t, t), "diagonal-increase")

    rng = np.random.default_rng(seed)
    states, state_domain = _sample_states(
        fn.space, n_samples, rng, barrier_offset=barrier_offset
    )
    full = CompositeLyapunovFn(comp, fn)
    with np.errstate(all="ignore"):
        vdot = full.vdot(states[:, 0], states[:, 1], states[:, 2])
    margin, i = _worst(np.broadcast_to(vdot, (len(states),)))
    if i is not None:
        note(margin, _row(states, i), "closed-loop-decrease")

    return CertReport(
        check_name=f"prop1[{comp.form.value}/{comp.order.value}+{fn.kind.value}]",
        domain=(
            f"merge-function log grid [0, 1e2]^2 ({len(_COMP_GRID)}x{len(_COMP_GRID)}); "
            + state_domain
            + f"; seed {seed}"
        ),
        worst_margin=worst,
        witness=witness,
        passed=worst < 0.0,
        tolerance=0.0,
        criterion="worst_margin < 0",
        seed=seed,
        details={"failing_condition": failing if worst >= 0.0 else None},
    )


def check_kl_decay(
    traj: Trajectory,
    space: StateSpace,
    *,
    metric_tol: float = 1e-3,
    increase_tol: float = 1e-8,
) -> CertReport:
    """Certify decay to the target along a recorded trajectory.

    Requires the space metric to end below `metric_tol` and the attached
    full-state function samples to be non-increasing up to `increase_tol`
    per step (the constructive surrogate for a decaying envelope).

    Raises:
        ValueError: If the trajectory is empty or carries no function
            samples.
        DomainError: If any recorded state lies outside the open space
            (angular barriers crossed, or distance significantly negative).
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    values = np.asarray(traj.lyapunov, dtype=float)
    if np.isnan(values).any():
        raise ValueError("trajectory carries no Lyapunov samples")

    rho = np.asarray(traj.rho, dtype=float)
    inside = space.contains_angles(
        np.asarray(traj.delta, dtype=float), np.asarray(traj.gamma, dtype=float)
    )
    left = (rho < -1e-9) | np.logical_not(inside)
    if left.any():
        i = int(np.argmax(left))
        raise DomainError(
            f"trajectory left the open space {space.value} at t={float(traj.t[i]):.6g}"
        )

    final = PolarState(max(float(traj.rho[-1]), 0.0), float(traj.delta[-1]), float(traj.gamma[-1]))
    final_metric = metric(space, final)
    increases = np.diff(values)
    max_increase = float(increases.max()) if increases.size else 0.0
    i_inc = int(np.argmax(increases)) + 1 if increases.size else 0

    metric_excess = final_metric - metric_tol
    increase_excess = max_increase - increase_tol
    if metric_excess >= increase_excess:
        worst, wit_i = metric_excess, len(traj) - 1
    else:
        worst, wit_i = increase_excess, i_inc
    witness = (float(traj.rho[wit_i]), float(traj.delta[wit_i]), float(traj.gamma[wit_i]))

    return CertReport(
        check_name=f"kl[{space.value}]",
        domain=(
            f"{len(traj)} samples on t in [{float(traj.t[0]):g}, {float(traj.t[-1]):g}], "
            f"status {traj.status.value}"
        ),
        worst_margin=worst,
        witness=witness,
        passed=worst < 0.0,
        tolerance=0.0,
        criterion="worst_margin < 0 (excess over metric_tol/increase_tol)",
        seed=None,
        details={
            "final_metric": final_metric,
            "metric_tol": metric_tol,
            "max_value_increase": max_increase,
            "increase_tol": increase_tol,
            "capture_time": traj.capture_time,
        },
    )


def check_gradient(
    fn: LyapunovFn | CompositeLyapunovFn,
    samples: np.ndarray | None = None,
    *,
    n_samples: int = 1_000,
    seed: int = 0,
    rel_tol: float = 1e-5,
    step: float = 1e-6,
    barrier_margin: float = 0.01,
    value_cap: float | None = None,
) -> CertReport:
    """Validate analytic partial derivatives against central differences.

    Relative error is |analytic - fd| / max(1, |analytic|, |fd|) per
    coordinate; the worst over all samples and coordinates must stay below
    `rel_tol`.  Sampling stays `barrier_margin` away from angular barriers;
    `value_cap`, when set, additionally rejects samples whose angular value
    exceeds the cap (keeps exponential merges inside accurate float range).
    """
    composite = isinstance(fn, CompositeLyapunovFn)
    angular = fn.angular if composite else fn
    space = angular.space

    rng = np.random.default_rng(seed)
    accept = None
    if value_cap is not None:
        accept = lambda d, g: angular.value(d, g) <= value_cap  # noqa: E731
    if samples is None:
        rows, domain = _sample_states(
            space,
            n_samples,
            rng,
            barrier_offset=barrier_margin,
            rho_range=(0.01, 10.0),
            accept=accept,
        )
        domain += f"; seed {seed}; fd step {step:g}"
        if value_cap is not None:
            domain += f"; angular value cap {value_cap:g}"
        if not composite:
            rows = rows[:, 1:]
    else:
        rows = np.asarray(samples, dtype=float)
        domain = f"{len(rows)} caller-supplied samples on {space.value}; fd step {step:g}"

    # One column per coordinate; the central-difference stencil is two
    # array evaluations per coordinate.
    cols = [rows[:, j] for j in range(rows.shape[1])]
    errs = np.empty(rows.shape)
    with np.errstate(all="ignore"):
        analytic = fn.gradient(*cols) if composite else fn.grad(*cols)
        for j, col in enumerate(cols):
            hi, lo = list(cols), list(cols)
            hi[j], lo[j] = col + step, col - step
            fd = (fn.value(*hi) - fn.value(*lo)) / (2.0 * step)
            scale = np.maximum(np.maximum(1.0, np.abs(analytic[j])), np.abs(fd))
            errs[:, j] = np.abs(analytic[j] - fd) / scale
    worst, i = _worst(errs)

    return CertReport(
        check_name=f"gradient[{'composite ' if composite else ''}{angular.kind.value}]",
        domain=domain,
        worst_margin=worst,
        witness=_row(rows, None if i is None else i // rows.shape[1]),
        passed=worst < rel_tol,
        tolerance=rel_tol,
        criterion="worst_margin < tolerance",
        seed=seed if samples is None else None,
        details={"n_samples": int(len(rows)), "coords": 3 if composite else 2},
    )


# ---------------------------------------------------------------------------
# battery

SUITE_NAMES = ("all", "lemma1", "clf", "prop1", "kl", "gradient")

_FORM_FACTORIES = (
    ("sum", Compositor.sum_form),
    ("log_sum", Compositor.log_sum),
    ("exp_product", Compositor.exp_product),
)

# Default gains for the battery; the coupling k1*k3 >= k2^2 holds with
# equality, so every controller is admissible.
_SUITE_GAINS_ARGS = (1.0, 1.0, 1.0, 1.0)

# Value caps keep finite-difference validation inside the region where the
# stencil itself is trustworthy in double precision.  Near a barrier the
# angular value blows up, and three separate failure modes appear:
#   - plain angular functions: truncation error from barrier stiffness
#     (higher derivatives grow like powers of tan); cap 1e6 keeps it ~1e-9;
#   - additive/log merges: the rho-direction difference cancels against a
#     huge total value (difference ~ 1e-5 vs value ~ 1e10); cap 1e3 keeps
#     rounding noise ~1e-8;
#   - exponential merges: exp of the angular value overflows near ~7e2 and
#     the stencil needs slope*step << 1; cap 20.
# Decrease certification only needs every term finite, hence the looser cap.
_ANGULAR_VALUE_CAP = 1e6
_COMPOSITE_VALUE_CAP = 1e3
_EXP_VALUE_CAP = 20.0
_EXP_CLF_CAP = 600.0

_KL_START = PolarState(3.0, 2.0, -1.5)


def run_suite(which: str = "all", *, seed: int = 0) -> list[CertReport]:
    """Run the certification battery and return one report per check.

    Selectors: "all" or one family of {lemma1, clf, prop1, kl, gradient}.
    The battery covers every controller with every built-in merge form in
    both argument orders.  All sampling seeds derive from `seed`, so the
    full report list is reproducible.

    Raises:
        ValueError: Unknown selector.
    """
    if which not in SUITE_NAMES:
        raise ValueError(f"unknown suite '{which}'; choose one of {', '.join(SUITE_NAMES)}")

    from .controllers import Gains  # local import keeps module header lean

    gains = Gains(*_SUITE_GAINS_ARGS)
    kinds = list(ControllerKind)
    reports: list[CertReport] = []

    if which in ("all", "lemma1"):
        reports.append(check_lemma1())

    if which in ("all", "clf"):
        # Fixed per-family seed bases keep each report's seed independent of
        # which selector ran it.
        tick = seed + 100
        for kind in kinds:
            spec = ControllerSpec(kind, gains)
            angular = LyapunovFn(kind, gains)
            for form_name, factory in _FORM_FACTORIES:
                for order in ArgumentOrder:
                    tick += 1
                    full = CompositeLyapunovFn(factory(order), angular)
                    cap = _EXP_CLF_CAP if form_name == "exp_product" else None
                    rep = check_clf(full, spec, n_samples=2_000, seed=tick, value_cap=cap)
                    reports.append(replace(
                        rep, check_name=f"clf[{kind.value}+{form_name}/{order.value}]"))

    if which in ("all", "prop1"):
        tick = seed + 200
        for kind in kinds:
            angular = LyapunovFn(kind, gains)
            for form_name, factory in _FORM_FACTORIES:
                for order in ArgumentOrder:
                    tick += 1
                    reports.append(
                        check_proposition1(factory(order), angular, seed=tick)
                    )

    if which in ("all", "kl"):
        for kind in kinds:
            spec = ControllerSpec(kind, gains)
            full = CompositeLyapunovFn(Compositor.sum_form(), LyapunovFn(kind, gains))
            cfg = SimConfig(capture_radius=2e-4)
            traj = simulate(spec, _KL_START, cfg, lyapunov=full)
            rep = check_kl_decay(traj, spec.space)
            reports.append(replace(rep, check_name=f"kl[{kind.value}]"))

    if which in ("all", "gradient"):
        tick = seed + 300
        for kind in kinds:
            tick += 1
            angular = LyapunovFn(kind, gains)
            reports.append(check_gradient(angular, seed=tick, value_cap=_ANGULAR_VALUE_CAP))
            for form_name, factory in _FORM_FACTORIES:
                for order in ArgumentOrder:
                    tick += 1
                    full = CompositeLyapunovFn(factory(order), angular)
                    cap = _EXP_VALUE_CAP if form_name == "exp_product" else _COMPOSITE_VALUE_CAP
                    rep = check_gradient(full, seed=tick, value_cap=cap)
                    reports.append(replace(
                        rep, check_name=f"gradient[{kind.value}+{form_name}/{order.value}]"))

    return reports

