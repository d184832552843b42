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

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.exceptions import ComplexWarning

from .controllers import ControllerKind, ControllerSpec, Gains, omega_tilde
from .geometry import DomainError, PolarState, StateSpace, metric
from .lyapunov import ArgumentOrder, Compositor, CompositeLyapunovFn, CompositorForm, LyapunovFn
from .sim import SimConfig, Trajectory, simulate

__all__ = [
    "CertReport",
    "check_lemma1",
    "check_clf",
    "check_proposition1",
    "check_kl_decay",
    "value_increases",
    "check_gradient",
    "run_suite",
    "SUITE_NAMES",
]


def _null_nonfinite(entry: dict, reasons: dict | None = None) -> dict:
    """Write the non-finite float values of `entry` as None, so it stays strict JSON.

    Each such value is kept, with the reason it is not finite (from
    `reasons`, by key), under entry["nonfinite"].
    """
    bad = {k: v for k, v in entry.items() if isinstance(v, float) and not math.isfinite(v)}
    if bad:
        entry["nonfinite"] = {
            k: {"value": repr(v), "reason": (reasons or {}).get(k, "overflow or NaN in the run")}
            for k, v in bad.items()
        }
        entry.update(dict.fromkeys(bad))
    return entry


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
            check).  Every check samples at least one point.
        passed: True iff worst_margin satisfies the recorded criterion.
        tolerance: Threshold the margin is compared against.
        criterion: How margin and tolerance combine, e.g. "worst_margin < 0".
        seed: RNG seed used for sampling; None for deterministic grids.
        details: Extra scalar diagnostics (to_dict writes non-finite ones as None).
    """

    check_name: str
    domain: str
    worst_margin: float
    witness: tuple
    passed: bool
    tolerance: float
    criterion: str
    seed: int | None = None
    details: dict = field(default_factory=dict)

    def summary(self) -> str:
        """One line: the check's name, its verdict and its worst margin."""
        verdict = "certified on grid" if self.passed else "NOT certified"
        return f"{self.check_name}: {verdict} (worst margin {self.worst_margin:.3e})"

    def to_dict(self) -> dict:
        """The report as strict JSON, its one serialised form.

        A non-finite float of the report or of its details (an overflow, or
        NaN) is written as None by _null_nonfinite, its value and reason
        under that dict's "nonfinite" key; the report itself keeps the float.
        """
        return _null_nonfinite({
            "check_name": self.check_name,
            "domain": self.domain,
            "worst_margin": self.worst_margin,
            "witness": list(self.witness),
            "pass": self.passed,
            "tolerance": self.tolerance,
            "criterion": self.criterion,
            "seed": self.seed,
            "details": _null_nonfinite(dict(self.details)),
        }, {"worst_margin": "a margin overflowed or was NaN"})


# ---------------------------------------------------------------------------
# sampling helpers

_ANGLE_CAP = 10.0  # truncation for coordinates the space leaves unbounded
_RHO_RANGE = (1e-6, 10.0)
_BARRIER_OFFSET = 1e-3  # every sampled check's distance to the angular barriers
# A capped draw stops with ValueError past this many candidates per row; the
# battery's largest draw over run_suite("all", s), s = 0-9, is 3.07 per row.
_MAX_DRAWN_PER_ROW = 1_000


def _angle_bound(bounded: bool) -> float:
    return math.pi - _BARRIER_OFFSET if bounded else _ANGLE_CAP


def _sample_states(
    space: StateSpace,
    n: int,
    seed: int,
    *,
    rho_range: tuple[float, float] = _RHO_RANGE,
    angular: LyapunovFn | None = None,
    value_cap: float | None = None,
) -> tuple[np.ndarray, str, int]:
    """Draw n >= 1 (rho, delta, gamma) rows inside the open space from `seed`.

    Returns (rows, domain string, candidates drawn).  Bounded angles stay
    _BARRIER_OFFSET inside their barriers.  A round draws rho, delta, then gamma
    as lo + (hi - lo)*U, U from Generator.random in place: Generator.uniform's
    formula.  The first round draws max(n, 64).  With value_cap set, angle pairs
    whose angular.value exceeds it are rejected, and each later round draws the
    shortfall at 1.25 times the acceptance rate seen (64 to 16*n), rows kept in
    draw order.  An n < 1 raises ValueError, as a check on no point would
    certify nothing; so does a cap not > 0 (with one > 0, V = 0 at the origin
    gives the capped region positive measure), and a draw that passes 1,000*n
    candidates before it has n rows.  The domain string records every truncation
    and the seed, then the cap, so reports stay self-describing.
    """
    if n < 1:
        raise ValueError(f"n_samples must be >= 1, got {n!r}")
    if value_cap is not None and not value_cap > 0.0:
        raise ValueError(f"value_cap must be > 0, got {value_cap!r}")
    rng = np.random.default_rng(seed)
    d_max = _angle_bound(space.delta_bounded)
    g_max = _angle_bound(space.gamma_bounded)
    parts, got, drawn, m = [], 0, 0, max(n, 64)
    while got < n:
        if drawn > _MAX_DRAWN_PER_ROW * n:
            raise ValueError(
                f"value_cap {value_cap:g} admits too few samples: {got} of {n} rows after "
                f"{drawn} candidates, past the cap of {_MAX_DRAWN_PER_ROW} per row "
                f"(acceptance rate {got / drawn:.3g})")
        cand = np.empty((3, m))  # a coordinate per row, drawn in place in its turn
        for row, lo, hi in zip(cand, (rho_range[0], -d_max, -g_max), (rho_range[1], d_max, g_max)):
            rng.random(out=row)
            row *= hi - lo
            row += lo
        drawn += m
        if value_cap is not None:
            with np.errstate(all="ignore"):
                cand = cand[:, angular.value(cand[1], cand[2]) <= value_cap]
        parts.append(cand)
        got += cand.shape[1]
        m = 16 * n if got == 0 else min(max(math.ceil(1.25 * (n - got) * drawn / got), 64), 16 * n)
    rows = (parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1))[:, :n].T
    desc = (
        f"{n} samples on {space.value}: rho in [{rho_range[0]:g}, {rho_range[1]:g}], "
        f"|delta| <= {d_max:.4f}, |gamma| <= {g_max:.4f}"
    )
    if value_cap is not None:
        desc += " (value-capped)"
    desc += f"; seed {seed}"
    if value_cap is not None:
        desc += f"; angular value cap {value_cap:g}"
    return rows, desc, drawn


def _given_samples(samples, n_cols: int, space: StateSpace) -> tuple[np.ndarray, str]:
    """Caller-supplied rows as a float array, and their domain string.

    Raises:
        ValueError: Unless the rows form a non-empty (n, n_cols) array.
    """
    rows = np.asarray(samples, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] != n_cols:
        raise ValueError(f"samples must be a non-empty (n, {n_cols}) array, got shape {rows.shape}")
    return rows, f"{len(rows)} caller-supplied samples on {space.value}"


def _worst(margins: np.ndarray) -> tuple[float, int]:
    """Largest margin of a non-empty array and the flat index of its first occurrence.

    NaN counts as an outright violation (+inf).
    """
    margins = np.ravel(margins)
    margins = np.where(np.isnan(margins), math.inf, margins)
    i = int(np.argmax(margins))
    return float(margins[i]), i


def _row(points: np.ndarray, i: int) -> tuple:
    return tuple(float(v) for v in points[i])


# ---------------------------------------------------------------------------
# individual checks

_LEMMA1_K = (1.0, 1.5, 2.0, 5.0, 10.0, 100.0)
_LEMMA1_GAMMA = np.linspace(-math.pi + 1e-3, math.pi - 1e-3, 10_000)
_LEMMA1_TOLERANCE = 1e-12
_KL_METRIC_TOL, _V_RISE_TOL = 1e-3, 1e-8  # the V rise is also the CLI's V_monotone slack
_GRADIENT_REL_TOL = 1e-10


def check_lemma1() -> CertReport:
    """Certify 1 - k*cos(g)*(1 + cos(g)) <= 2*(1 + k)*tan(g/2)^2 on a grid.

    The inequality is the key bound behind the bounded-turn controllers'
    decay estimates, claimed for k >= 1.  It is sampled at the six k of
    _LEMMA1_K times 10,000 gamma evenly spaced on [-(pi - 1e-3), pi - 1e-3],
    inside (-pi, pi) where the tangent is finite, with 1e-12 of slack for
    rounding (the worst margin is -0.88).
    """
    gamma = _LEMMA1_GAMMA
    cos_g = np.cos(gamma)
    tan_half_sq = np.tan(0.5 * gamma) ** 2
    worst = -math.inf
    for k in _LEMMA1_K:  # one row at a time keeps the temporaries small
        margin, i = _worst((1.0 - k * cos_g * (1.0 + cos_g)) - 2.0 * (1.0 + k) * tan_half_sq)
        if margin > worst:  # the margins are finite, so the first k sets the witness
            worst, witness = margin, (k, float(gamma[i]))

    return CertReport(
        check_name="lemma1",
        domain=(
            f"k in {{{', '.join(f'{k:g}' for k in _LEMMA1_K)}}}; "
            f"{gamma.size}-point gamma grid on [{gamma[0]:.4f}, {gamma[-1]:.4f}]"
        ),
        worst_margin=worst,
        witness=witness,
        passed=worst <= _LEMMA1_TOLERANCE,
        tolerance=_LEMMA1_TOLERANCE,
        criterion="worst_margin <= tolerance",
        seed=None,
        details={"n_points": gamma.size * len(_LEMMA1_K)},
    )


def check_clf(
    fn: CompositeLyapunovFn,
    spec: ControllerSpec,
    samples: np.ndarray | None = None,
    *,
    n_samples: int = 10_000,
    seed: int = 0,
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
        samples: Optional explicit non-empty (n, 3) array of (rho, delta,
            gamma) rows; overrides random sampling.
        value_cap: When set, rejects samples whose angular value exceeds
            the cap.  Needed for exponential merges, whose gradient entries
            overflow the double range near barriers; the term-by-term
            derivative here would then hit inf - inf.  Must be > 0.

    Raises:
        ValueError: If n_samples < 1, or samples is empty or not (n, 3).
    """
    drawn = samples is None
    if drawn:
        samples, domain, n_drawn = _sample_states(
            spec.space, n_samples, seed, angular=fn.angular, value_cap=value_cap)
    else:
        samples, domain = _given_samples(samples, 3, spec.space)

    k1 = spec.gains.k1
    rho, delta, gamma = samples[:, 0], samples[:, 1], samples[:, 2]
    # As with floats, overflow saturates to inf and inf - inf gives NaN,
    # both quietly; _worst counts NaN as a violation.
    with np.errstate(all="ignore"):
        g_rho, g_delta, g_gamma = fn.gradient(rho, delta, gamma)
        cos_g = np.cos(gamma)
        rho_rate = -k1 * rho * cos_g * cos_g
        slip = 0.5 * k1 * np.sin(2.0 * gamma)
        omega = slip + omega_tilde(spec, delta, gamma)
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
        seed=seed if drawn else None,
        details={"n_samples": int(len(samples)), **({"n_drawn": n_drawn} if drawn else {})},
    )


_COMP_GRID = [0.0] + [10.0 ** e for e in range(-6, 3)]


def check_proposition1(
    comp: Compositor,
    fn: LyapunovFn,
    *,
    n_samples: int = 2_000,
    seed: int = 0,
) -> CertReport:
    """Certify the merge-function conditions and closed-loop decrease.

    The merge-function conditions are Compositor.screen's, the ones
    composite() enforces, on a log grid of nonnegative arguments truncated
    at 1e2 to match the rho <= 10 sampling cap.  Then the induced full-state
    function must have a strictly negative derivative along the matched
    closed loop at off-origin samples.  details["failing_condition"] names
    the worst condition of a failing report (closed-loop-decrease for the
    sampled derivative), details["n_drawn"] the candidates drawn, and
    details["decrease_margin"] and ["decrease_witness"] the worst sampled
    derivative and its sample (the screen's -1e-12 hides it).

    Never raises on a bad merge function: a violated condition is returned
    as a failing report with its witness.  n_samples < 1 raises ValueError.
    """
    states, state_domain, n_drawn = _sample_states(fn.space, n_samples, seed)
    worst, witness, failing = comp.screen(_COMP_GRID)
    full = CompositeLyapunovFn(comp, fn)
    with np.errstate(all="ignore"):
        vdot = full.vdot(states[:, 0], states[:, 1], states[:, 2])
    margin, i = _worst(np.broadcast_to(vdot, (len(states),)))
    if margin > worst:
        worst, witness, failing = margin, _row(states, i), "closed-loop-decrease"

    return CertReport(
        check_name=f"prop1[{comp.form.value}/{comp.order.value}+{fn.kind.value}]",
        domain=(
            f"merge-function log grid [0, 1e2]^2 ({len(_COMP_GRID)}x{len(_COMP_GRID)}); "
            + state_domain
        ),
        worst_margin=worst,
        witness=witness,
        passed=worst < 0.0,
        tolerance=0.0,
        criterion="worst_margin < 0",
        seed=seed,
        details={"failing_condition": failing if worst >= 0.0 else None, "n_drawn": n_drawn,
                 "decrease_margin": margin,
                 "decrease_witness": _row(states, i)},
    )


def value_increases(traj: Trajectory, lyapunov: CompositeLyapunovFn | None = None) -> np.ndarray:
    """Step increases of traj's V samples; on `lyapunov`.log1p_value, a finite monotone
    transform, where V overflowed to inf (else inf - inf is NaN, which counts as a rise)."""
    values = traj.lyapunov
    if lyapunov is not None and np.isinf(values).any():
        with np.errstate(over="ignore"):  # as for V itself, overflow goes quietly to inf
            values = lyapunov.log1p_value(traj.rho, traj.delta, traj.gamma)
    with np.errstate(invalid="ignore"):
        return np.diff(values)


def check_kl_decay(
    traj: Trajectory,
    space: StateSpace,
    *,
    lyapunov: CompositeLyapunovFn | None = None,
) -> CertReport:
    """Certify decay to the target along a recorded trajectory.

    Requires the space metric to end below 1e-3 (a run captured in the
    battery's 2e-4 box ends below 6e-4) and the attached full-state function
    samples to rise by less than 1e-8 per step, slack for rounding (the
    constructive surrogate for a decaying envelope), by value_increases.
    Both tests are strict, where the CLI's V_monotone allows a rise of 1e-8.
    The worst margin is the larger excess by _worst, the metric's on a tie, and a
    NaN rise counts as +inf in it.

    Raises:
        ValueError: If the trajectory is empty or carries no function
            samples.
        DomainError: If any recorded state lies outside the open space
            (angular barriers crossed, or distance negative).
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    if np.isnan(np.asarray(traj.lyapunov, dtype=float)).any():
        raise ValueError("trajectory carries no Lyapunov samples")

    rho = np.asarray(traj.rho, dtype=float)
    inside = space.contains_angles(
        np.asarray(traj.delta, dtype=float), np.asarray(traj.gamma, dtype=float)
    )
    left = (rho < 0.0) | np.logical_not(inside)
    if left.any():
        i = int(np.argmax(left))
        raise DomainError(
            f"trajectory left the open space {space.value} at t={float(traj.t[i]):.6g}"
        )

    final_metric = metric(space, traj.final_state())
    increases = value_increases(traj, lyapunov)
    rise, i = _worst(increases) if increases.size else (0.0, -1)  # one sample: witness 0
    worst, k = _worst(np.array([final_metric - _KL_METRIC_TOL, rise - _V_RISE_TOL]))
    wit_i = i + 1 if k else len(traj) - 1
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
            "metric_tol": _KL_METRIC_TOL,
            "max_value_increase": float(increases.max()) if increases.size else 0.0,
            "increase_tol": _V_RISE_TOL,
            "capture_time": traj.capture_time,
        },
    )


def check_gradient(
    fn: LyapunovFn | CompositeLyapunovFn,
    samples: np.ndarray | None = None,
    *,
    n_samples: int = 1_000,
    seed: int = 0,
    value_cap: float | None = None,
) -> CertReport:
    """Validate analytic partial derivatives against complex-step derivatives.

    The reference partial along coordinate k is Im V(x + i*h*e_k)/h with
    h = 1e-30, the step of the simulator's Jacobian: no two values are
    subtracted, so it is exact to rounding however large V is.  Relative
    error is |analytic - reference| / max(1, |analytic|, |reference|) per
    coordinate; the worst over all samples and coordinates must stay below
    1e-10 (the worst seen over seeds 0-399 of run_suite("gradient") is
    2.5e-11).  Sampling stays 1e-3 away from angular barriers, as in the
    other checks: the gradients grow fastest there, and the complex step's
    error does not grow with them.  `value_cap`, when set, additionally
    rejects samples whose angular value exceeds the cap (keeps exp of it
    finite under exponential merges); details["n_drawn"] counts candidates.
    Caller-supplied `samples` must be a non-empty array of (delta, gamma)
    rows for an angular function, of (rho, delta, gamma) rows for a
    composite one; n_samples < 1 or other samples raise ValueError.

    V must accept complex arrays.  When it raises on them or casts them to
    real (a custom merge written with math functions, say), the report fails
    with an infinite margin and details["complex_step_error"] names the error.
    """
    composite = isinstance(fn, CompositeLyapunovFn)
    angular = fn.angular if composite else fn
    space = angular.space

    if samples is None:
        rows, domain, n_drawn = _sample_states(
            space, n_samples, seed, rho_range=(0.01, 10.0), angular=angular, value_cap=value_cap)
        if not composite:
            rows = rows[:, 1:]
    else:
        rows, domain = _given_samples(samples, 3 if composite else 2, space)

    # One column per coordinate and one complex array evaluation each.
    cols = [rows[:, j] for j in range(rows.shape[1])]
    errs = np.empty(rows.shape)
    details = {"n_samples": int(len(rows)), "coords": 3 if composite else 2,
               **({"n_drawn": n_drawn} if samples is None else {})}
    with np.errstate(all="ignore"), warnings.catch_warnings():
        # casting the probe to real would silently drop the derivative
        warnings.simplefilter("error", ComplexWarning)
        analytic = fn.gradient(*cols) if composite else fn.grad(*cols)
        for j, col in enumerate(cols):
            probe = list(cols)
            probe[j] = col + 1e-30j
            try:
                reference = fn.value(*probe).imag * 1e30
            except (TypeError, ValueError, ComplexWarning) as exc:
                details["complex_step_error"] = (
                    f"value raised {type(exc).__name__} on complex input: {exc}")
                errs[:] = math.inf
                break
            scale = np.maximum(np.maximum(1.0, np.abs(analytic[j])), np.abs(reference))
            errs[:, j] = np.abs(analytic[j] - reference) / scale
    worst, i = _worst(errs)

    return CertReport(
        check_name=f"gradient[{'composite ' if composite else ''}{angular.kind.value}]",
        domain=domain,
        worst_margin=worst,
        witness=_row(rows, i // rows.shape[1]),
        passed=worst < _GRADIENT_REL_TOL,
        tolerance=_GRADIENT_REL_TOL,
        criterion="worst_margin < tolerance",
        seed=seed if samples is None else None,
        details=details,
    )


# ---------------------------------------------------------------------------
# battery

SUITE_NAMES = ("all", "lemma1", "clf", "prop1", "kl", "gradient")

# Default gains for the battery; the coupling k1*k3 >= k2^2 holds with
# equality, so every controller is admissible.
_SUITE_GAINS = Gains(1.0, 1.0, 1.0, 1.0)

_MERGE_FACTORIES = (Compositor.sum_form, Compositor.log_sum, Compositor.exp_product)
_MERGES_PER_KIND = len(_MERGE_FACTORIES) * len(ArgumentOrder)

# Exponential merges take exp of the angular value, so samples keep it at
# most 600, where (1 + r)*exp(s) stays finite (700 overflows).
_EXP_VALUE_CAP = 600.0

_KL_START = PolarState(3.0, 2.0, -1.5)
_KL_CONFIG = SimConfig(capture_radius=2e-4)


def _battery():
    """(spec, angular function, merge) for every kind x built-in merge.

    Kinds in ControllerKind order; each kind's merges in _MERGE_FACTORIES x
    ArgumentOrder order, so its first merge is the rho-first plain sum.
    """
    for kind in ControllerKind:
        spec, angular = ControllerSpec(kind, _SUITE_GAINS), LyapunovFn(kind, _SUITE_GAINS)
        for factory in _MERGE_FACTORIES:
            for order in ArgumentOrder:
                yield spec, angular, factory(order)


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

    # Reports come out family by family, in SUITE_NAMES order.  Each family
    # numbers its seeds from its own base (clf seed + 101, prop1 + 201,
    # gradient + 301), so a report's seed does not depend on the selector.
    families = {name: [] for name in SUITE_NAMES[1:] if which in ("all", name)}
    if "lemma1" in families:
        families["lemma1"].append(check_lemma1())
    gradient_seed = seed + 300
    for j, (spec, angular, comp) in enumerate(_battery()):
        kind = spec.kind.value
        label = f"{kind}+{comp.form.value}/{comp.order.value}"
        cap = _EXP_VALUE_CAP if comp.form is CompositorForm.EXP_PRODUCT else None
        full = CompositeLyapunovFn(comp, angular)
        first_of_kind = j % _MERGES_PER_KIND == 0  # full is the plain sum
        if "clf" in families:
            rep = check_clf(full, spec, n_samples=2_000, seed=seed + 101 + j, value_cap=cap)
            families["clf"].append(replace(rep, check_name=f"clf[{label}]"))
        if "prop1" in families:
            families["prop1"].append(check_proposition1(comp, angular, seed=seed + 201 + j))
        if "kl" in families and first_of_kind:
            traj = simulate(spec, _KL_START, _KL_CONFIG, lyapunov=full)
            rep = check_kl_decay(traj, spec.space, lyapunov=full)
            families["kl"].append(replace(rep, check_name=f"kl[{kind}]"))
        if "gradient" in families:
            if first_of_kind:
                gradient_seed += 1
                families["gradient"].append(check_gradient(angular, seed=gradient_seed))
            gradient_seed += 1
            rep = check_gradient(full, seed=gradient_seed, value_cap=cap)
            families["gradient"].append(replace(rep, check_name=f"gradient[{label}]"))
    return [rep for reports in families.values() for rep in reports]
