"""Command-line front end: simulate, verify, compare, sweep.

Configs are plain JSON; every command writes machine-readable outputs (CSV
for trajectories and tables, JSON for summaries and certification reports)
into the chosen output directory.  Exit codes: 0 success, 1 usage or config
error, 2 certification failure, 3 runtime failure (every run stopped on a
barrier).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .controllers import ControllerKind, ControllerSpec, Gains
from .geometry import CartesianState, DomainError, PolarState, StateSpace, metric
from .lyapunov import ArgumentOrder, Compositor, CompositeLyapunovFn, LyapunovFn
from .sim import Frame, IntegratorKind, SimConfig, SimStatus, Trajectory, simulate, write_csv
from .verify import _V_RISE_TOL, SUITE_NAMES, run_suite, value_increases

__all__ = ["main"]


class UsageError(Exception):
    """Bad invocation or bad config; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from exiting with its own code
        raise UsageError(message)


# ---------------------------------------------------------------------------
# config parsing (hand-validated JSON; no schema dependency)

_GAIN_KEYS = ("k1", "k2", "k3", "k4")
# the top-level keys each command reads, and accepts
_CONFIG_KEYS = {
    "simulate": frozenset({"controller", "gains", "allow_unproven_gains", "compositor",
                           "compositor_order", "initial_conditions", "sim"}),
    "compare": frozenset({"controllers", "gains", "allow_unproven_gains", "initial_conditions",
                          "sim"}),
    "sweep": frozenset({"controller", "gain_sets", "allow_unproven_gains", "initial_conditions",
                        "sim"}),
}


def _fail(msg: str) -> None:
    raise UsageError(f"invalid config: {msg}")


def _load_config(args) -> dict:
    """The JSON object at args.config, holding only keys that args.command reads."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past int()'s 4300 digits
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        _fail("top level must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS[args.command]
    if unknown:
        _fail(f"unknown {args.command} config keys: {sorted(unknown)}")
    return cfg


def _number(value, key: str) -> float:
    """A JSON number as a float; true/false, strings and ints beyond the float range exit 1."""
    if type(value) not in (int, float) or type(value) is int and abs(value) > sys.float_info.max:
        _fail(f"bad {key}: {value!r} is not a JSON number in the float range")
    return float(value)


def _parse_gains(obj) -> Gains:
    if isinstance(obj, (list, tuple)):
        if len(obj) != 4:
            _fail("gains list must have exactly 4 entries")
        vals = obj
    elif isinstance(obj, dict):
        unknown = set(obj) - set(_GAIN_KEYS)
        if unknown:
            _fail(f"unknown gain keys: {sorted(unknown)}")
        vals = [obj.get(k, 1.0) for k in _GAIN_KEYS]
    else:
        _fail("gains must be a 4-list or an object with k1..k4")
    try:
        return Gains(*(_number(v, f"gain {k}") for k, v in zip(_GAIN_KEYS, vals)))
    except ValueError as exc:
        _fail(f"bad gains: {exc}")


def _parse_kind(obj) -> ControllerKind:
    try:
        return ControllerKind(str(obj).lower())
    except ValueError:
        names = ", ".join(k.value for k in ControllerKind)
        _fail(f"unknown controller '{obj}'; choose one of {names}")


def _parse_allow(cfg: dict) -> bool:
    allow = cfg.get("allow_unproven_gains", False)
    if not isinstance(allow, bool):
        _fail(f"allow_unproven_gains must be true or false, got {allow!r}")
    return allow


def _parse_spec(cfg: dict, kind_obj) -> ControllerSpec:
    kind = _parse_kind(kind_obj)
    gains = _parse_gains(cfg.get("gains", [1.0, 1.0, 1.0, 1.0]))
    allow = _parse_allow(cfg)
    try:
        return ControllerSpec(kind, gains, allow_unproven_gains=allow)
    except ValueError as exc:
        _fail(str(exc))


def _parse_ic(obj, index: int) -> PolarState | CartesianState:
    if not isinstance(obj, dict):
        _fail(f"initial condition #{index} must be an object")
    keys = set(obj)
    try:
        for state in (PolarState, CartesianState):
            names = [f.name for f in fields(state)]
            if keys == set(names):
                return state(*(_number(obj[k], f"initial condition #{index} {k}") for k in names))
    except ValueError as exc:
        _fail(f"initial condition #{index}: {exc}")
    _fail(
        f"initial condition #{index} must have keys rho/delta/gamma or x/y/theta, "
        f"got {sorted(keys)}"
    )


def _parse_ics(cfg: dict) -> list:
    ics = cfg.get("initial_conditions")
    if not isinstance(ics, list) or not ics:
        _fail("initial_conditions must be a non-empty list")
    return [_parse_ic(obj, i) for i, obj in enumerate(ics)]


def _parse_sim(cfg: dict, frame_flag: str | None) -> SimConfig:
    """SimConfig from the optional sim block; absent keys keep SimConfig's defaults."""
    sim = cfg.get("sim", {})
    if not isinstance(sim, dict):
        _fail("sim must be an object")
    unknown = set(sim) - {f.name for f in fields(SimConfig)}
    if unknown:
        _fail(f"unknown sim keys: {sorted(unknown)}")
    frame_name = frame_flag or sim.get("frame", SimConfig.frame.value)
    try:
        frame = Frame(str(frame_name).lower())
    except ValueError:
        _fail(f"unknown frame '{frame_name}'; choose polar or cartesian")
    integ_name = sim.get("integrator", SimConfig.integrator.value)
    try:
        integrator = IntegratorKind(str(integ_name).lower())
    except ValueError:
        _fail(f"unknown integrator '{integ_name}'; choose rk45 or rk4")
    try:
        numbers = {k: _number(v, f"sim.{k}") for k, v in sim.items()
                   if k not in ("frame", "integrator")}
        return SimConfig(frame=frame, integrator=integrator, **numbers)
    except ValueError as exc:
        _fail(f"bad sim settings: {exc}")


_FORMS = {
    "sum": Compositor.sum_form,
    "log_sum": Compositor.log_sum,
    "exp_product": Compositor.exp_product,
}


def _parse_compositor(cfg: dict) -> Compositor:
    name = str(cfg.get("compositor", "sum")).lower()
    order_name = str(cfg.get("compositor_order", "rho_first")).lower()
    if name not in _FORMS:
        _fail(f"unknown compositor '{name}'; choose one of {', '.join(_FORMS)}")
    try:
        order = ArgumentOrder(order_name)
    except ValueError:
        _fail("compositor_order must be rho_first or vdg_first")
    return _FORMS[name](order)


# ---------------------------------------------------------------------------
# shared helpers

def _out_dir(args) -> Path:
    out = Path(args.out if args.out is not None else "out")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise UsageError(f"cannot create output directory {out}: {exc}") from exc
    return out


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


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _path_length(traj: Trajectory) -> float:
    if len(traj) < 2:
        return 0.0
    return float(_trapezoid(np.abs(traj.v), traj.t))


def _barrier_distance(space: StateSpace, traj: Trajectory) -> float | None:
    """Smallest recorded distance to an excluded angular set; None if none."""
    dists = []
    if space.delta_bounded:
        dists.append(math.pi - float(np.abs(traj.delta).max()))
    if space.gamma_bounded:
        dists.append(math.pi - float(np.abs(traj.gamma).max()))
    return min(dists) if dists else None


def _final_state(traj: Trajectory) -> dict:
    return {
        "rho": float(traj.rho[-1]),
        "delta": float(traj.delta[-1]),
        "gamma": float(traj.gamma[-1]),
        "x": float(traj.x[-1]),
        "y": float(traj.y[-1]),
        "theta": float(traj.theta[-1]),
    }


def _run_one(spec: ControllerSpec, ic, sim_cfg: SimConfig, lyapunov=None):
    """(trajectory, None) for one start, or (None, the error) for a start outside the space."""
    try:
        return simulate(spec, ic, sim_cfg, lyapunov=lyapunov), None
    except DomainError as exc:
        return None, str(exc)


def _exit_code(statuses: list[SimStatus], no_run_message: str) -> int:
    """0, or 1 when no run completed, or 3 when every run stopped on a barrier."""
    if not statuses:
        print(f"error: {no_run_message}", file=sys.stderr)
        return 1
    if all(s is SimStatus.BOUNDARY_STOP for s in statuses):
        print("error: every run stopped on a barrier", file=sys.stderr)
        return 3
    return 0


def _v_monotone(traj: Trajectory, lyap: CompositeLyapunovFn) -> tuple[bool, float]:
    """(V never rises by more than _V_RISE_TOL, its largest rise), by verify.value_increases."""
    if np.isnan(traj.lyapunov).any() or len(traj) < 2:
        return True, 0.0
    max_rise = float(value_increases(traj, lyap).max())  # NaN is reported as non-finite
    return max_rise <= _V_RISE_TOL, max_rise


# ---------------------------------------------------------------------------
# simulate

def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    spec = _parse_spec(cfg, cfg.get("controller"))
    ics = _parse_ics(cfg)
    sim_cfg = _parse_sim(cfg, args.frame)
    lyap = CompositeLyapunovFn(_parse_compositor(cfg), LyapunovFn(spec.kind, spec.gains))
    out = _out_dir(args)

    entries = []
    statuses = []
    for i, ic in enumerate(ics):
        traj, err = _run_one(spec, ic, sim_cfg, lyap)
        if err is not None:
            entries.append({"ic_index": i, "error": err})
            continue
        csv_path = out / f"ic_{i:03d}.csv"
        traj.to_csv(csv_path)
        monotone, max_rise = _v_monotone(traj, lyap)
        statuses.append(traj.status)
        n_bad = int(np.count_nonzero(~np.isfinite(traj.lyapunov)))
        entries.append(_null_nonfinite(
            {
                "ic_index": i,
                "file": csv_path.name,
                "status": traj.status.value,
                "capture_time": traj.capture_time,
                "path_length": _path_length(traj),
                "final_state": _final_state(traj),
                "V_monotone": monotone,
                "max_V_increase": max_rise,
                "min_barrier_distance": _barrier_distance(spec.space, traj),
                "note": traj.note,
            },
            {"max_V_increase": f"V is not finite on {n_bad} of {len(traj)} rows"},
        ))

    summary = {
        "command": "simulate",
        "controller": spec.kind.value,
        "gains": [spec.gains.k1, spec.gains.k2, spec.gains.k3, spec.gains.k4],
        "frame": sim_cfg.frame.value,
        "integrator": sim_cfg.integrator.value,
        "results": entries,
    }
    _write_json(out / "summary.json", summary)
    print(f"simulate: {len(statuses)}/{len(ics)} runs completed, outputs in {out}")
    return _exit_code(statuses, "no initial condition could be run")


# ---------------------------------------------------------------------------
# verify

def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9_.-]+", "_", name.lower()).strip("_")


def _cmd_verify(args) -> int:
    try:
        reports = run_suite(args.suite, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = _out_dir(args)

    width = max(len(r.check_name) for r in reports)
    lines = []
    for rep in reports:
        _write_json(out / f"verify_{_slug(rep.check_name)}.json", rep.to_dict())
        verdict = "pass" if rep.passed else "FAIL"
        lines.append(f"{rep.check_name:<{width}}  {verdict}  worst margin {rep.worst_margin: .3e}")
    _write_json(
        out / "verify_summary.json",
        {
            "command": "verify",
            "suite": args.suite,
            "seed": args.seed,
            "n_checks": len(reports),
            "n_failed": sum(not r.passed for r in reports),
            "reports": [r.to_dict() for r in reports],
        },
    )
    print("\n".join(lines))
    n_fail = sum(not r.passed for r in reports)
    print(f"verify: {len(reports) - n_fail}/{len(reports)} checks passed, reports in {out}")
    return 2 if n_fail else 0


# ---------------------------------------------------------------------------
# compare

_SIMILARITY_TOL = 0.05  # largest state discrepancy of an "essentially identical" pair


def _compare_rows(traj_a: Trajectory, traj_b: Trajectory) -> float:
    """Largest pointwise state discrepancy over the common time prefix."""
    n = min(len(traj_a), len(traj_b))
    if n == 0:
        return math.inf
    d = (
        np.abs(traj_a.rho[:n] - traj_b.rho[:n])
        + np.abs(traj_a.delta[:n] - traj_b.delta[:n])
        + np.abs(traj_a.gamma[:n] - traj_b.gamma[:n])
    )
    return float(d.max())


def _cmd_compare(args) -> int:
    cfg = _load_config(args)
    kinds_obj = cfg.get("controllers")
    if not isinstance(kinds_obj, list) or len(kinds_obj) < 2:
        _fail("compare needs a controllers list with at least 2 entries")
    specs = [_parse_spec(cfg, obj) for obj in kinds_obj]
    ics = _parse_ics(cfg)
    sim_cfg = _parse_sim(cfg, args.frame)
    out = _out_dir(args)

    rows = []
    pairs = []
    statuses = []
    for i, ic in enumerate(ics):
        done = []
        for spec in specs:
            traj, err = _run_one(spec, ic, sim_cfg)
            if err is not None:
                rows.append(
                    {
                        "ic_index": i,
                        "controller": spec.kind.value,
                        "flag": "outside-space",
                        "error": err,
                    }
                )
                continue
            done.append((spec.kind.value, traj))
            statuses.append(traj.status)
            rows.append(_null_nonfinite(
                {
                    "ic_index": i,
                    "controller": spec.kind.value,
                    "status": traj.status.value,
                    "capture_time": traj.capture_time,
                    "path_length": _path_length(traj),
                    "max_abs_omega": float(np.abs(traj.omega).max()),
                    "min_barrier_distance": _barrier_distance(spec.space, traj),
                    "flag": "",
                }
            ))
        for (ka, ta), (kb, tb) in itertools.combinations(done, 2):
            sim_val = _compare_rows(ta, tb)
            pairs.append(_null_nonfinite(
                {
                    "ic_index": i,
                    "pair": [ka, kb],
                    "max_state_discrepancy": sim_val,
                    "essentially_identical": sim_val < _SIMILARITY_TOL,
                }
            ))

    cols = (
        "ic_index", "controller", "status", "capture_time", "path_length",
        "max_abs_omega", "min_barrier_distance", "flag",
    )
    write_csv(out / "compare.csv", cols, ([row.get(c) for c in cols] for row in rows))
    _write_json(
        out / "compare_summary.json",
        {
            "command": "compare",
            "controllers": [s.kind.value for s in specs],
            "similarity_tol": _SIMILARITY_TOL,
            "rows": rows,
            "pairs": pairs,
        },
    )
    flagged = sum(1 for r in rows if r.get("flag"))
    print(
        f"compare: {len(rows)} rows ({flagged} flagged), "
        f"{sum(p['essentially_identical'] for p in pairs)}/{len(pairs)} pairs "
        f"essentially identical, outputs in {out}"
    )
    return _exit_code(statuses, "no run completed")


# ---------------------------------------------------------------------------
# sweep

def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    kind = _parse_kind(cfg.get("controller"))
    allow = _parse_allow(cfg)
    grid_obj = cfg.get("gain_sets")
    if not isinstance(grid_obj, list) or not grid_obj:
        _fail("sweep needs a non-empty gain_sets list")
    specs = []
    for j, gobj in enumerate(grid_obj):
        try:
            specs.append(ControllerSpec(kind, _parse_gains(gobj), allow_unproven_gains=allow))
        except ValueError as exc:
            _fail(f"gain set #{j}: {exc}")
    ics = _parse_ics(cfg)
    sim_cfg = _parse_sim(cfg, args.frame)
    out = _out_dir(args)

    rows = []
    statuses = []
    for j, spec in enumerate(specs):
        g = spec.gains
        for i, ic in enumerate(ics):
            traj, err = _run_one(spec, ic, sim_cfg)
            if err is not None:
                rows.append((j, i, g.k1, g.k2, g.k3, g.k4, None, None, None, None, None, err))
                continue
            statuses.append(traj.status)
            rows.append((j, i, g.k1, g.k2, g.k3, g.k4, traj.status.value, traj.capture_time,
                         _path_length(traj), metric(spec.space, traj.final_state()),
                         _barrier_distance(spec.space, traj), None))
    write_csv(out / "sweep.csv", (
        "gain_set", "ic_index", "k1", "k2", "k3", "k4", "status", "capture_time", "path_length",
        "final_metric", "min_barrier_distance", "error"), rows)
    _write_json(
        out / "sweep_summary.json",
        {
            "command": "sweep",
            "controller": kind.value,
            "n_gain_sets": len(specs),
            "n_ics": len(ics),
            "n_runs": len(rows),
            "n_completed": len(statuses),
        },
    )
    print(f"sweep: {len(statuses)}/{len(rows)} runs completed, outputs in {out}")
    return _exit_code(statuses, "no run completed")


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> _Parser:
    parser = _Parser(
        prog="polarpark",
        description="Simulate and certify polar-coordinate parking controllers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (default: out)")
        p.add_argument(
            "--frame", choices=[f.value for f in Frame], default=None,
            help="integration frame override",
        )

    common(sub.add_parser("simulate", help="integrate one controller from listed starts"))
    p_ver = sub.add_parser("verify", help="run the certification battery")
    p_ver.add_argument("--suite", default="all", help=f"one of {', '.join(SUITE_NAMES)}")
    p_ver.add_argument("--out", default=None, help="output directory (default: out)")
    p_ver.add_argument("--seed", type=int, default=0, help="battery base seed")
    common(sub.add_parser("compare", help="run several controllers from shared starts"))
    common(sub.add_parser("sweep", help="cross gain sets with starts, summarize each run"))
    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
