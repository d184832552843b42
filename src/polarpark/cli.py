"""Command-line front end: simulate, verify, compare, sweep.

Configs are plain JSON; every command writes machine-readable outputs (CSV
for trajectories and tables, JSON for summaries and certification reports)
into the chosen output directory.  Exit codes: 0 success, 1 usage or config
error, 2 certification failure, 3 runtime failure (every run stopped on a
barrier).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .controllers import ControllerKind, ControllerSpec, Gains
from .geometry import CartesianState, DomainError, PolarState, metric
from .lyapunov import ArgumentOrder, Compositor, CompositeLyapunovFn, CompositorForm, LyapunovFn
from .sim import Frame, IntegratorKind, SimConfig, SimStatus, Trajectory, simulate
from .verify import _V_RISE_TOL, SUITE_NAMES, _null_nonfinite, run_suite, value_increases

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
_RUN_KEYS = frozenset({"allow_unproven_gains", "initial_conditions", "sim"})
_CONFIG_KEYS = {
    "simulate": _RUN_KEYS | {"controller", "gains", "compositor", "compositor_order"},
    "compare": _RUN_KEYS | {"controllers", "gains"},
    "sweep": _RUN_KEYS | {"controller", "gain_sets"},
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
    except (ValueError, RecursionError) as exc:  # also an int past 4300 digits, or deep nesting
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


def _choice(kind, value, key: str, members=None):
    """The member of the Enum `kind`, or of its subset `members`, whose value is
    str(value).lower(); any other value exits 1, listing the choices in enum order."""
    members = list(kind) if members is None else members
    for member in members:
        if member.value == str(value).lower():
            return member
    _fail(f"unknown {key} '{value}'; choose one of {', '.join(m.value for m in members)}")


def _parse_allow(cfg: dict) -> bool:
    allow = cfg.get("allow_unproven_gains", False)
    if not isinstance(allow, bool):
        _fail(f"allow_unproven_gains must be true or false, got {allow!r}")
    return allow


def _spec(kind: ControllerKind, gains: Gains, allow: bool, where: str = "") -> ControllerSpec:
    """ControllerSpec(kind, gains); a gain-check error exits 1, prefixed with `where`."""
    try:
        return ControllerSpec(kind, gains, allow_unproven_gains=allow)
    except ValueError as exc:
        _fail(f"{where}{exc}")


def _parse_spec(cfg: dict, kind_obj) -> ControllerSpec:
    return _spec(_choice(ControllerKind, kind_obj, "controller"),
                 _parse_gains(cfg.get("gains", [1.0, 1.0, 1.0, 1.0])), _parse_allow(cfg))


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
    frame = _choice(Frame, frame_flag or sim.get("frame", SimConfig.frame.value), "frame")
    integrator = _choice(IntegratorKind, sim.get("integrator", SimConfig.integrator.value),
                         "integrator")
    try:
        numbers = {k: _number(v, f"sim.{k}") for k, v in sim.items()
                   if k not in ("frame", "integrator")}
        return SimConfig(frame=frame, integrator=integrator, **numbers)
    except ValueError as exc:
        _fail(f"bad sim settings: {exc}")


def _parse_compositor(cfg: dict) -> Compositor:
    built_in = [form for form in CompositorForm if form is not CompositorForm.CUSTOM]
    return Compositor(
        _choice(CompositorForm, cfg.get("compositor", "sum"), "compositor", built_in),
        _choice(ArgumentOrder, cfg.get("compositor_order", "rho_first"), "compositor_order"))


# ---------------------------------------------------------------------------
# shared helpers

def _out_dir(args) -> Path:
    out = Path(args.out if args.out is not None else "out")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise UsageError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_table(path: Path, columns: tuple, rows: list[dict]) -> None:
    """Write the rows as CSV under columns by the csv module's rule: a float as its repr, a
    missing value or None as an empty cell, and a cell with a comma, quote or newline quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, columns, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _final_state(traj: Trajectory) -> dict:
    return {
        "rho": float(traj.rho[-1]),
        "delta": float(traj.delta[-1]),
        "gamma": float(traj.gamma[-1]),
        "x": float(traj.x[-1]),
        "y": float(traj.y[-1]),
        "theta": float(traj.theta[-1]),
    }


def _outcome(spec: ControllerSpec, traj: Trajectory) -> dict:
    """The row entries that simulate, compare and sweep all report for a completed run.

    min_barrier_distance is the smallest recorded distance to an excluded
    angular set of the spec's space, None if it has none.
    """
    dists = []
    if spec.space.delta_bounded:
        dists.append(math.pi - float(np.abs(traj.delta).max()))
    if spec.space.gamma_bounded:
        dists.append(math.pi - float(np.abs(traj.gamma).max()))
    return {
        "status": traj.status.value,
        "capture_time": traj.capture_time,
        "path_length": float(_trapezoid(np.abs(traj.v), traj.t)),  # 0.0 for one sample
        "min_barrier_distance": min(dists) if dists else None,
    }


def _runs(specs: list[ControllerSpec], ics: list, sim_cfg: SimConfig, lyapunov=None):
    """Run every spec from every start: start by start, and spec by spec within a start.

    Yields (spec index, start index, trajectory, None), or (spec index,
    start index, None, the error) for a start outside the spec's space.
    """
    for i, ic in enumerate(ics):
        for j, spec in enumerate(specs):
            try:
                yield j, i, simulate(spec, ic, sim_cfg, lyapunov=lyapunov), None
            except DomainError as exc:
                yield j, i, None, str(exc)


def _finish(args, out: Path, rows: list[dict], summary_name: str, summary: dict,
            line: str | None = None, no_run_message: str = "no run completed") -> int:
    """Write the summary, print the completion line and return the exit code.

    The rows of completed runs are those with a "status"; the line
    defaults to how many of the rows they are.  The exit code is 0, or 1
    when no run completed, or 3 when every run stopped on a barrier.
    """
    _write_json(out / summary_name, {"command": args.command, **summary})
    statuses = [row["status"] for row in rows if "status" in row]
    if line is None:
        line = f"{len(statuses)}/{len(rows)} runs completed"
    print(f"{args.command}: {line}, outputs in {out}")
    if not statuses:
        print(f"error: {no_run_message}", file=sys.stderr)
        return 1
    if all(s == SimStatus.BOUNDARY_STOP.value for s in statuses):
        print("error: every run stopped on a barrier", file=sys.stderr)
        return 3
    return 0


def _v_monotone(traj: Trajectory, lyap: CompositeLyapunovFn) -> tuple[bool, float]:
    """(V never rises by more than _V_RISE_TOL, its largest rise), by verify.value_increases."""
    if len(traj) < 2:
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
    for _, i, traj, err in _runs([spec], ics, sim_cfg, lyap):
        if err is not None:
            entries.append({"ic_index": i, "error": err})
            continue
        csv_path = out / f"ic_{i:03d}.csv"
        traj.to_csv(csv_path)
        monotone, max_rise = _v_monotone(traj, lyap)
        n_bad = int(np.count_nonzero(~np.isfinite(traj.lyapunov)))
        entries.append(_null_nonfinite(
            {
                "ic_index": i,
                "file": csv_path.name,
                **_outcome(spec, traj),
                "final_state": _final_state(traj),
                "V_monotone": monotone,
                "max_V_increase": max_rise,
                "note": traj.note,
            },
            {"max_V_increase": f"V is not finite on {n_bad} of {len(traj)} rows"},
        ))

    summary = {
        "controller": spec.kind.value,
        "gains": [spec.gains.k1, spec.gains.k2, spec.gains.k3, spec.gains.k4],
        "frame": sim_cfg.frame.value,
        "integrator": sim_cfg.integrator.value,
        "results": entries,
    }
    return _finish(args, out, entries, "summary.json", summary,
                   no_run_message="no initial condition could be run")


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

    n_fail = sum(not r.passed for r in reports)
    width = max(len(r.check_name) for r in reports)
    lines = []
    dicts = [rep.to_dict() for rep in reports]
    for rep, d in zip(reports, dicts):
        _write_json(out / f"verify_{_slug(rep.check_name)}.json", d)
        verdict = "pass" if rep.passed else "FAIL"
        lines.append(f"{rep.check_name:<{width}}  {verdict}  worst margin {rep.worst_margin: .3e}")
    _write_json(
        out / "verify_summary.json",
        {
            "command": "verify",
            "suite": args.suite,
            "seed": args.seed,
            "n_checks": len(reports),
            "n_failed": n_fail,
            "reports": dicts,
        },
    )
    print("\n".join(lines))
    print(f"verify: {len(reports) - n_fail}/{len(reports)} checks passed, reports in {out}")
    return 2 if n_fail else 0


# ---------------------------------------------------------------------------
# compare

_SIMILARITY_TOL = 0.05  # largest state discrepancy of an "essentially identical" pair


def _compare_rows(traj_a: Trajectory, traj_b: Trajectory) -> float:
    """Largest pointwise state discrepancy over the common time prefix (at least t = 0)."""
    n = min(len(traj_a), len(traj_b))
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
    for i, runs in itertools.groupby(_runs(specs, ics, sim_cfg), key=lambda run: run[1]):
        done = []  # this start's trajectories, by controller
        for j, _, traj, err in runs:
            row = {"ic_index": i, "controller": specs[j].kind.value}
            if err is not None:
                rows.append({**row, "flag": "outside-space", "error": err})
                continue
            done.append((row["controller"], traj))
            rows.append(_null_nonfinite(
                {
                    **row,
                    **_outcome(specs[j], traj),
                    "max_abs_omega": float(np.abs(traj.omega).max()),
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
    _write_table(out / "compare.csv", cols, rows)
    summary = {
        "controllers": [s.kind.value for s in specs],
        "similarity_tol": _SIMILARITY_TOL,
        "rows": rows,
        "pairs": pairs,
    }
    flagged = sum(1 for r in rows if r.get("flag"))
    return _finish(args, out, rows, "compare_summary.json", summary, (
        f"{len(rows)} rows ({flagged} flagged), "
        f"{sum(p['essentially_identical'] for p in pairs)}/{len(pairs)} pairs essentially identical"
    ))


# ---------------------------------------------------------------------------
# sweep

def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    kind = _choice(ControllerKind, cfg.get("controller"), "controller")
    allow = _parse_allow(cfg)
    grid_obj = cfg.get("gain_sets")
    if not isinstance(grid_obj, list) or not grid_obj:
        _fail("sweep needs a non-empty gain_sets list")
    specs = [_spec(kind, _parse_gains(gobj), allow, f"gain set #{j}: ")
             for j, gobj in enumerate(grid_obj)]
    ics = _parse_ics(cfg)
    sim_cfg = _parse_sim(cfg, args.frame)
    out = _out_dir(args)

    rows = []
    for j, i, traj, err in _runs(specs, ics, sim_cfg):
        g = specs[j].gains
        row = {"gain_set": j, "ic_index": i, "k1": g.k1, "k2": g.k2, "k3": g.k3, "k4": g.k4}
        if err is not None:
            rows.append({**row, "error": err})
            continue
        rows.append({**row, **_outcome(specs[j], traj),
                     "final_metric": metric(specs[j].space, traj.final_state())})
    rows.sort(key=lambda row: (row["gain_set"], row["ic_index"]))  # _runs goes start by start
    cols = ("gain_set", "ic_index", *_GAIN_KEYS, "status", "capture_time", "path_length",
            "final_metric", "min_barrier_distance", "error")
    _write_table(out / "sweep.csv", cols, rows)
    summary = {
        "controller": kind.value,
        "n_gain_sets": len(specs),
        "n_ics": len(ics),
        "n_runs": len(rows),
        "n_completed": sum("status" in row for row in rows),
    }
    return _finish(args, out, rows, "sweep_summary.json", summary)


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
