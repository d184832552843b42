"""The four benchmark workloads, built from the public polarpark API.

Each workload is a list of operations run one after another, in a closed
loop: one caller, the next operation starts when the previous returns.  An
operation is one `simulate` call, one certification check, or one CLI
invocation.  Every operation has a check of its output; an operation that
raises or fails its check counts as failed and the pass carries on.

Inputs are built once, in set-up: specs, Lyapunov functions and CLI config
files.  `certify_all` and `cli_batch` draw from the workload seed;
`capture_grid` and `stiff_barrier` are pinned grids whose correct outcome is
known, so they ignore it.

Operations look up `polarpark.simulate`, `verify.check_*` and `cli.main`
on their modules at call time, so the traced run sees them through its
wrappers.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import polarpark
from polarpark import cli, verify
from polarpark import (
    ArgumentOrder,
    CompositeLyapunovFn,
    Compositor,
    ControllerKind,
    ControllerSpec,
    Gains,
    LyapunovFn,
    PolarState,
    SimConfig,
    SimStatus,
)

@dataclass
class Op:
    """One operation: `run()` does the work, `check(output)` judges it.

    `check` returns None when the output is correct, else a reason.
    `family` groups operations for per-family timings (verify families,
    CLI commands).
    """

    label: str
    family: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    fingerprint: Callable[[Any], str]


@dataclass
class Workload:
    """Operations plus per-pass hooks.

    `layer` names the spans of the operations in the traced run.
    `before_pass` runs untimed before each pass; `after_op` runs untimed
    after each operation and returns exact counters for the traced run.
    """

    name: str
    ops: list[Op]
    layer: str = "op"
    before_pass: Callable[[], None] = lambda: None
    after_op: Callable[[Op, Any], dict] = lambda op, out: {}


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _trajectory_digest(traj) -> str:
    columns = ("t", "rho", "delta", "gamma", "x", "y", "theta", "v", "omega",
               "omega_tilde", "lyapunov")
    return _digest(
        *(np.ascontiguousarray(getattr(traj, c)).tobytes() for c in columns),
        repr((traj.status.value, traj.capture_time, traj.note)).encode(),
    )


def _report_digest(rep) -> str:
    return _digest(repr(rep.to_dict()).encode())


# ---------------------------------------------------------------------------
# capture_grid: the 64 starts of acceptance criterion 05

REFERENCE_GAINS = Gains(1.0, 1.0, 0.1, 1.0)
SIGN_PAIRED = [(-0.5, 1.0), (-0.5, 2.0), (-1.0, 1.0), (-1.0, 2.0),
               (0.5, -1.0), (0.5, -2.0), (1.0, -1.0), (1.0, -2.0)]
CONVERGENCE_GRIDS = {
    ControllerKind.GLOBA: [(d, g) for d in (-2.0, -0.5, 0.5, 2.0) for g in (-2.0, 2.0)],
    ControllerKind.BARFLI: [(d, g) for d in (-2.5, -1.0, 1.0, 2.5) for g in (-2.0, 2.0)],
    ControllerKind.BOLSA: SIGN_PAIRED,
    ControllerKind.BAGAL: SIGN_PAIRED,
}


def _capture_check(traj) -> str | None:
    if traj.status is not SimStatus.CAPTURED:
        return f"status {traj.status.value}, not captured"
    final = traj.final_state()
    worst = max(final.rho, abs(final.delta), abs(final.gamma))
    if not worst < 1e-3:
        return f"final coordinate {worst:.3e} >= 1e-3"
    rise = float(np.diff(traj.lyapunov).max())
    if not rise <= 1e-8:
        return f"V rises by {rise:.3e} > 1e-8"
    return None


def capture_grid(seed: int, workdir: Path) -> Workload:
    del seed, workdir  # pinned grid
    cfg = SimConfig(dt=0.05, t_final=60.0, capture_radius=1e-3)
    ops = []
    for kind, pairs in CONVERGENCE_GRIDS.items():
        spec = ControllerSpec(kind, REFERENCE_GAINS, allow_unproven_gains=True)
        fn = CompositeLyapunovFn(Compositor.sum_form(), LyapunovFn(kind, REFERENCE_GAINS))
        for rho0, (d0, g0) in itertools.product((1.0, 3.0), pairs):
            start = PolarState(rho0, d0, g0)
            ops.append(Op(
                label=f"{kind.value} rho={rho0:g} delta={d0:g} gamma={g0:g}",
                family="simulate",
                run=lambda spec=spec, start=start, fn=fn: polarpark.simulate(
                    spec, start, cfg, lyapunov=fn),
                check=_capture_check,
                fingerprint=_trajectory_digest,
            ))
    return Workload("capture_grid", ops)


# ---------------------------------------------------------------------------
# stiff_barrier: the 8 runs of criterion 06, horizon shortened to 5 s

UNIT_GAINS = Gains(1.0, 1.0, 1.0, 1.0)
BARRIER_START = math.pi - 0.05
BARRIER_RUNS = ((ControllerKind.BARFLI, "delta"), (ControllerKind.BAGAL, "delta"),
                (ControllerKind.BOLSA, "gamma"), (ControllerKind.BAGAL, "gamma"))


def _barrier_check(column: str):
    def check(traj) -> str | None:
        peak = float(np.abs(getattr(traj, column)).max())
        if not peak < math.pi - 1e-6:
            return f"peak |{column}| {peak:.9f} >= pi - 1e-6"
        return None
    return check


def stiff_barrier(seed: int, workdir: Path) -> Workload:
    del seed, workdir  # pinned grid
    cfg = SimConfig(dt=0.05, t_final=5.0)
    ops = []
    for kind, column in BARRIER_RUNS:
        spec = ControllerSpec(kind, UNIT_GAINS)
        for sign in (1.0, -1.0):
            angle = sign * BARRIER_START
            start = (PolarState(1.0, angle, 0.0) if column == "delta"
                     else PolarState(1.0, 0.0, angle))
            ops.append(Op(
                label=f"{kind.value} {column}0={angle:+.4f}",
                family="simulate",
                run=lambda spec=spec, start=start: polarpark.simulate(spec, start, cfg),
                check=_barrier_check(column),
                fingerprint=_trajectory_digest,
            ))
    return Workload("stiff_barrier", ops)


# ---------------------------------------------------------------------------
# certify_all: run_suite("all", seed) as its 81 individual checks
#
# The schedule below is run_suite's, written out so that each check is one
# timed operation.  perfbench/tests checks that it reproduces
# run_suite("all", seed) report for report.

SUITE_GAINS = Gains(1.0, 1.0, 1.0, 1.0)
FORM_FACTORIES = (("sum", Compositor.sum_form), ("log_sum", Compositor.log_sum),
                  ("exp_product", Compositor.exp_product))
EXP_CLF_CAP = 600.0
ANGULAR_VALUE_CAP = 1e6
COMPOSITE_VALUE_CAP = 1e3
EXP_VALUE_CAP = 20.0
KL_START = PolarState(3.0, 2.0, -1.5)

_SAMPLES_RE = re.compile(r"(\d+) samples")


def report_points(rep) -> int:
    """Number of points a report sampled, from its details or its domain."""
    for key in ("n_points", "n_samples"):
        if key in rep.details:
            return int(rep.details[key])
    return sum(int(n) for n in _SAMPLES_RE.findall(rep.domain))


def _report_check(rep) -> str | None:
    return None if rep.passed else f"not certified: {rep.summary()}"


def _forms():
    for form_name, factory in FORM_FACTORIES:
        for order in ArgumentOrder:
            yield form_name, order, factory(order)


def certify_all(seed: int, workdir: Path) -> Workload:
    del workdir
    kinds = list(ControllerKind)
    schedule: list[tuple[str, str, Callable]] = [("lemma1", "lemma1", lambda: verify.check_lemma1())]

    tick = seed + 100
    for kind in kinds:
        spec = ControllerSpec(kind, SUITE_GAINS)
        angular = LyapunovFn(kind, SUITE_GAINS)
        for form_name, order, comp in _forms():
            tick += 1
            full = CompositeLyapunovFn(comp, angular)
            cap = EXP_CLF_CAP if form_name == "exp_product" else None
            schedule.append((
                "clf", f"clf[{kind.value}+{form_name}/{order.value}]",
                lambda full=full, spec=spec, tick=tick, cap=cap: verify.check_clf(
                    full, spec, n_samples=2_000, seed=tick, value_cap=cap)))

    tick = seed + 200
    for kind in kinds:
        angular = LyapunovFn(kind, SUITE_GAINS)
        for form_name, order, comp in _forms():
            tick += 1
            schedule.append((
                "prop1", f"prop1[{comp.form.value}/{order.value}+{kind.value}]",
                lambda comp=comp, angular=angular, tick=tick: verify.check_proposition1(
                    comp, angular, seed=tick)))

    kl_cfg = SimConfig(capture_radius=2e-4)
    for kind in kinds:
        spec = ControllerSpec(kind, SUITE_GAINS)
        full = CompositeLyapunovFn(Compositor.sum_form(), LyapunovFn(kind, SUITE_GAINS))
        schedule.append((
            "kl", f"kl[{kind.value}]",
            lambda spec=spec, full=full: verify.check_kl_decay(
                polarpark.simulate(spec, KL_START, kl_cfg, lyapunov=full), spec.space)))

    tick = seed + 300
    for kind in kinds:
        tick += 1
        angular = LyapunovFn(kind, SUITE_GAINS)
        schedule.append((
            "gradient", f"gradient[{kind.value}]",
            lambda angular=angular, tick=tick: verify.check_gradient(
                angular, seed=tick, value_cap=ANGULAR_VALUE_CAP)))
        for form_name, order, comp in _forms():
            tick += 1
            full = CompositeLyapunovFn(comp, angular)
            cap = EXP_VALUE_CAP if form_name == "exp_product" else COMPOSITE_VALUE_CAP
            schedule.append((
                "gradient", f"gradient[{kind.value}+{form_name}/{order.value}]",
                lambda full=full, tick=tick, cap=cap: verify.check_gradient(
                    full, seed=tick, value_cap=cap)))

    if len(schedule) != 81:
        raise RuntimeError(f"certify_all schedule has {len(schedule)} checks, expected 81")
    ops = [Op(label, family, run, _report_check, _report_digest)
           for family, label, run in schedule]

    def after_op(op: Op, rep) -> dict:
        if rep is None:
            return {}
        return {"verify.reports": 1, "verify.passed": int(rep.passed),
                "verify.points": report_points(rep)}

    return Workload("certify_all", ops, after_op=after_op)


# ---------------------------------------------------------------------------
# cli_batch: `simulate` (16 starts, Cartesian frame) and `sweep` (8 x 4)

CLI_SIM_STARTS = 16
CLI_SIM_ROWS = 1201  # 60 s at dt 0.05 plus t = 0; capture is off
CLI_SWEEP_GAIN_SETS = 8
CLI_SWEEP_STARTS = 4
CLI_ANGLE_CAP = 2.2


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def _strict_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def _line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _random_starts(rng: np.random.Generator, n: int) -> list[dict]:
    # Inside S2 (|gamma| < pi) and S, with room from every barrier.
    return [
        {"rho": float(rng.uniform(0.5, 3.0)),
         "delta": float(rng.uniform(-CLI_ANGLE_CAP, CLI_ANGLE_CAP)),
         "gamma": float(rng.uniform(-CLI_ANGLE_CAP, CLI_ANGLE_CAP))}
        for _ in range(n)
    ]


def _dir_digest(out: Path) -> str:
    files = sorted(p for p in out.iterdir() if p.is_file())
    return _digest(*(p.name.encode() + b"\0" + p.read_bytes() for p in files))


def _run_cli(argv: list[str]) -> int:
    # The CLI prints a status line per command; keep the benchmark's own
    # stdout for its result line.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _check_simulate(out: Path):
    def check(code) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            summary = _strict_json(out / "summary.json")
        except (OSError, ValueError) as exc:
            return f"summary.json: {exc}"
        if len(summary.get("results", [])) != CLI_SIM_STARTS:
            return f"summary.json lists {len(summary.get('results', []))} runs"
        for i in range(CLI_SIM_STARTS):
            path = out / f"ic_{i:03d}.csv"
            if not path.is_file():
                return f"missing {path.name}"
            rows = _line_count(path) - 1
            if rows != CLI_SIM_ROWS:
                return f"{path.name} has {rows} rows, expected {CLI_SIM_ROWS}"
        return None
    return check


def _check_sweep(out: Path):
    def check(code) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            summary = _strict_json(out / "sweep_summary.json")
        except (OSError, ValueError) as exc:
            return f"sweep_summary.json: {exc}"
        expected = CLI_SWEEP_GAIN_SETS * CLI_SWEEP_STARTS
        if summary.get("n_completed") != expected:
            return f"sweep completed {summary.get('n_completed')} of {expected} runs"
        try:
            rows = _line_count(out / "sweep.csv") - 1
        except OSError as exc:
            return f"sweep.csv: {exc}"
        if rows != expected:
            return f"sweep.csv has {rows} rows, expected {expected}"
        return None
    return check


def bytes_written(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def cli_batch(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    sim_config = {
        "controller": "bolsa",
        "gains": [1.0, 1.0, 1.0, 1.0],
        "compositor": "sum",
        "initial_conditions": _random_starts(rng, CLI_SIM_STARTS),
        "sim": {"dt": 0.05, "t_final": 60.0, "capture_radius": 0.0},
    }
    sweep_config = {
        "controller": "globa",
        "gain_sets": [[float(k) for k in rng.uniform(0.5, 2.0, 4)]
                      for _ in range(CLI_SWEEP_GAIN_SETS)],
        "initial_conditions": _random_starts(rng, CLI_SWEEP_STARTS),
    }
    workdir.mkdir(parents=True, exist_ok=True)
    sim_path, sweep_path = workdir / "simulate.json", workdir / "sweep.json"
    sim_path.write_text(json.dumps(sim_config, indent=2), encoding="utf-8")
    sweep_path.write_text(json.dumps(sweep_config, indent=2), encoding="utf-8")
    sim_out, sweep_out = workdir / "simulate_out", workdir / "sweep_out"

    def before_pass() -> None:
        for out in (sim_out, sweep_out):
            shutil.rmtree(out, ignore_errors=True)

    ops = [
        Op("simulate", "simulate",
           lambda: _run_cli(["simulate", "--config", str(sim_path), "--out", str(sim_out),
                             "--frame", "cartesian"]),
           _check_simulate(sim_out), lambda code: _dir_digest(sim_out)),
        Op("sweep", "sweep",
           lambda: _run_cli(["sweep", "--config", str(sweep_path), "--out", str(sweep_out)]),
           _check_sweep(sweep_out), lambda code: _dir_digest(sweep_out)),
    ]
    outs = {"simulate": sim_out, "sweep": sweep_out}

    def after_op(op: Op, code) -> dict:
        out = outs[op.family]
        return {"cli.bytes_written": bytes_written(out) if out.is_dir() else 0}

    return Workload("cli_batch", ops, "cli", before_pass, after_op)


BUILDERS = {
    "capture_grid": capture_grid,
    "stiff_barrier": stiff_barrier,
    "certify_all": certify_all,
    "cli_batch": cli_batch,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    return BUILDERS[name](seed, workdir)
