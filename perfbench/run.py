"""polarpark benchmark: one workload, timed end to end, or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload capture_grid --seed 0 --seconds 25 --trace 0

Workloads: capture_grid, stiff_barrier, certify_all, cli_batch (see
perfbench/README.md).  The program is imported from the checkout's `src/`.

--trace 0 runs the workload in passes for --seconds seconds and reports the
end-to-end metrics: wall_s, op_p50_ms, op_p90_ms, ok_frac, setup_s and
peak_rss_mb.  --trace 1 runs a third of the time untraced, then installs the
tracer (perfbench/tracer.py) and runs the rest traced; it reports the
per-layer metrics.  Each run prints one line per metric, writes a results
file under perfbench/out/results/, and ends its standard output with one
JSON line: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# The keys of workloads.BUILDERS, named here so that arguments parse before
# the program is imported.
WORKLOADS = ("capture_grid", "stiff_barrier", "certify_all", "cli_batch")
KINDS = ("globa", "barfli", "bolsa", "bagal")
VERIFY_FAMILIES = ("lemma1", "clf", "prop1", "kl", "gradient")
CLI_COMMANDS = ("simulate", "sweep")

# Set-up is timed in the run's own process and in this many fresh
# interpreters, spread over the run, and reported as the median.
SETUP_PROBES = 6
# Share of a traced run spent untraced, as the base of trace.overhead_frac.
UNTRACED_SHARE = 1.0 / 3.0

END_TO_END_UNITS = {
    "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "ok_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
}


class ProgramMissing(Exception):
    pass


# ---------------------------------------------------------------------------
# set-up

def pin_to_one_cpu() -> tuple[int, int]:
    """Keep the run, the CLI's worker threads included, on one CPU.

    Host interference then slows the program and the calibration kernel
    alike; spread over two CPUs, the CLI's thread pool is slowed in a way
    the single-threaded kernel does not see.  Returns (the CPU, how many
    CPUs the run could use before).
    """
    usable = os.sched_getaffinity(0)
    cpu = min(usable)
    os.sched_setaffinity(0, {cpu})
    return cpu, len(usable)


def load_program() -> None:
    """Import polarpark from the checkout's src/, and nowhere else."""
    package = SRC / "polarpark"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no polarpark package under {SRC}")
    sys.path.insert(0, str(SRC))
    import polarpark

    if Path(polarpark.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"polarpark imported from {polarpark.__file__}, not {package}")


def set_up(workload: str, seed: int, workdir: Path):
    """Import the program and build the workload's inputs; returns (workload, seconds)."""
    t0 = time.perf_counter()
    load_program()
    import workloads

    built = workloads.build(workload, seed, workdir)
    return built, time.perf_counter() - t0


def probe_setup(workload: str, seed: int) -> float:
    """Time set-up in a fresh interpreter; returns its uncalibrated seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def calibrated_set_up(args, workdir: Path, probe: bool):
    """Set up in this process (probe=False) or a fresh one (probe=True).

    Returns (calibrated seconds, raw seconds, workload or None).
    """
    before = calibrate.time_kernel()
    if probe:
        wl, raw = None, probe_setup(args.workload, args.seed)
    else:
        wl, raw = set_up(args.workload, args.seed, workdir)
    return calibrate.scale(raw, before, calibrate.time_kernel()), raw, wl


# ---------------------------------------------------------------------------
# passes

def run_pass(wl, tracer=None, fingerprints: bool = False, expected_s=None) -> dict:
    """Run every operation once and calibrate its time.

    The calibration kernel (calibrate.py) runs between operations, for a
    window in proportion to the longer of the two operations it separates;
    `expected_s` holds the operations' times in the previous pass.  Outputs
    are checked after that, untimed.
    """
    wl.before_pass()
    expected_s = expected_s or [0.0] * len(wl.ops)
    raw_s, op_s, failures, prints = [], [], [], []
    counts: dict[str, int] = {}
    kernel_before = calibrate.time_kernel(calibrate.WINDOW_SHARE * expected_s[0])
    for i, op in enumerate(wl.ops):
        token = tracer.begin_op(f"{wl.layer}.{op.family}") if tracer else None
        start = time.perf_counter()
        try:
            output, error = op.run(), None
        except Exception as exc:  # a raising operation is a failure, not the end of the run
            output, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end_op(token)
        following = expected_s[i + 1] if i + 1 < len(wl.ops) else 0.0
        kernel_after = calibrate.time_kernel(calibrate.WINDOW_SHARE * max(elapsed, following))
        raw_s.append(elapsed)
        op_s.append(calibrate.scale(elapsed, kernel_before, kernel_after))
        kernel_before = kernel_after
        if error is None:
            error = op.check(output)
        if error is not None:
            failures.append(f"{op.label}: {error}")
        for key, n in wl.after_op(op, output).items():
            counts[key] = counts.get(key, 0) + n
        if fingerprints:
            prints.append(None if output is None else op.fingerprint(output))
    return {"wall_s": sum(op_s), "op_s": op_s, "raw_wall_s": sum(raw_s), "raw_op_s": raw_s,
            "failures": failures, "counts": counts, "fingerprints": prints}


def run_passes(wl, budget_s: float, tracer=None, on_pass=None, between=None) -> list[dict]:
    """Run passes until the next one would overrun the budget; at least one.

    `between(elapsed_s)` runs after each pass, inside the budget.
    """
    passes, laps = [], []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        if tracer:
            tracer.reset()
        rec = run_pass(wl, tracer, expected_s=passes[-1]["raw_op_s"] if passes else None)
        if on_pass:
            on_pass(rec)
        passes.append(rec)
        if between:
            between(time.perf_counter() - start)
        laps.append(time.perf_counter() - lap)
        if time.perf_counter() - start + statistics.median(laps) > budget_s:
            return passes


def family_wall(wl, passes: list[dict], family: str) -> float:
    """Median over passes of the time of one family's operations."""
    return statistics.median(
        sum(t for op, t in zip(wl.ops, p["op_s"]) if op.family == family) for p in passes)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 1]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass

def layer_metrics(snap: dict, counts: dict) -> dict:
    stats, kinds, tracer_counts = snap["stats"], snap["kinds"], snap["counts"]

    def total(name: str, field: int, parent=None) -> float:
        return sum(v[field] for (n, p), v in stats.items()
                   if n == name and (parent is None or p == parent))

    def calls(name):
        return int(total(name, 0))

    def self_s(name):
        return total(name, 2)

    def us_per_call(name, kind):
        n, t = kinds.get((name, kind), (0, 0.0))
        return 1e6 * t / n if n else 0.0

    m = {}
    m["controllers.omega_tilde.calls"] = calls("controllers.omega_tilde")
    m["controllers.omega_tilde.self_s"] = self_s("controllers.omega_tilde")
    for kind in KINDS:
        m[f"controllers.omega_tilde.us_per_call.{kind}"] = us_per_call("controllers.omega_tilde", kind)
    m["controllers.control.calls"] = calls("controllers.control")
    m["controllers.control.self_s"] = self_s("controllers.control")
    for method in ("value", "grad", "vdot"):
        m[f"lyapunov.{method}.calls"] = calls(f"lyapunov.{method}")
        m[f"lyapunov.{method}.self_s"] = self_s(f"lyapunov.{method}")
    for method in ("value", "gradient", "vdot"):
        m[f"lyapunov.composite.{method}.calls"] = calls(f"lyapunov.composite.{method}")
        m[f"lyapunov.composite.{method}.self_s"] = self_s(f"lyapunov.composite.{method}")
    for method in ("value", "grad"):
        for kind in KINDS:
            m[f"lyapunov.{method}.us_per_call.{kind}"] = us_per_call(f"lyapunov.{method}", kind)
    m["geometry.cart_to_polar.calls"] = calls("geometry.cart_to_polar")
    m["geometry.cart_to_polar.self_s"] = self_s("geometry.cart_to_polar")
    m["sim.simulate.calls"] = calls("sim.simulate")
    # The Cartesian RHS is sim code on the integrator path, like the polar
    # RHS closure that runs inside simulate's own frame.
    m["sim.simulate.self_s"] = self_s("sim.simulate") + self_s("sim.rhs_cartesian")
    rhs = tracer_counts.get("sim.rhs_evals", 0)
    samples = tracer_counts.get("sim.samples", 0)
    m["sim.rhs_evals"] = rhs
    m["sim.rhs_evals_per_sample"] = rhs / samples if samples else 0.0
    m["sim.postproc_s"] = (total("controllers.control", 1, "sim.simulate")
                           + total("lyapunov.composite.value", 1, "sim.simulate"))
    m["sim.to_csv.rows"] = tracer_counts.get("sim.to_csv.rows", 0)
    m["sim.to_csv.self_s"] = self_s("sim.to_csv")
    m["verify.points"] = counts.get("verify.points", 0)
    m["verify.reports"] = counts.get("verify.reports", 0)
    m["verify.passed"] = counts.get("verify.passed", 0)
    m["cli.self_s"] = sum(self_s(f"cli.{c}") for c in CLI_COMMANDS)
    m["cli.bytes_written"] = counts.get("cli.bytes_written", 0)
    return m


EXACT_COUNTERS = ("sim.rhs_evals", "sim.to_csv.rows", "verify.points", "verify.reports",
                  "verify.passed", "cli.bytes_written")


def exact_counters(m: dict) -> dict:
    return {k: v for k, v in m.items() if k.endswith(".calls") or k in EXACT_COUNTERS}


def layer_self_table(snap: dict) -> dict:
    """Self time per layer (the span name's first component)."""
    table: dict[str, float] = {}
    for (name, _parent), (_calls, _incl, self_t) in snap["stats"].items():
        layer = name.split(".", 1)[0]
        table[layer] = table.get(layer, 0.0) + self_t
    return dict(sorted(table.items(), key=lambda kv: -kv[1]))


# ---------------------------------------------------------------------------
# runs

def untraced_run(wl, seconds: float, own_setup: tuple, args) -> tuple[dict, list[dict], dict]:
    setup = [own_setup]  # (calibrated, raw) seconds

    def probe_when_due(elapsed: float) -> None:
        # Probe i is due at i / (SETUP_PROBES + 1) of the run.
        while (len(setup) <= SETUP_PROBES
               and elapsed >= seconds * len(setup) / (SETUP_PROBES + 1)):
            setup.append(calibrated_set_up(args, None, probe=True)[:2])

    passes = run_passes(wl, seconds, between=probe_when_due)
    while len(setup) <= SETUP_PROBES:
        setup.append(calibrated_set_up(args, None, probe=True)[:2])

    op_s = [t for p in passes for t in p["op_s"]]
    raw_s = [t for p in passes for t in p["raw_op_s"]]
    attempted = len(op_s)
    failed = sum(len(p["failures"]) for p in passes)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_ms": 1e3 * statistics.median(
            statistics.median(times) for times in zip(*(p["op_s"] for p in passes))),
        "op_p90_ms": 1e3 * percentile(op_s, 0.9),
        "ok_frac": (attempted - failed) / attempted,
        "setup_s": statistics.median(cal for cal, _raw in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "passes": len(passes),
        "ops_per_pass": len(wl.ops),
        "op_samples": attempted,
        "op_samples_beyond_p90": sum(t > metrics["op_p90_ms"] / 1e3 for t in op_s),
        "pooled_op_p50_ms": 1e3 * percentile(op_s, 0.5),
        "fail_frac": failed / attempted,
        "setup_samples_s": [cal for cal, _raw in setup],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_op_s": [p["op_s"] for p in passes],
        # Wall-clock times as measured, before calibration.
        "raw": {
            "wall_s": statistics.median(p["raw_wall_s"] for p in passes),
            "pooled_op_p50_ms": 1e3 * percentile(raw_s, 0.5),
            "op_p90_ms": 1e3 * percentile(raw_s, 0.9),
            "setup_s": statistics.median(raw for _cal, raw in setup),
            "setup_samples_s": [raw for _cal, raw in setup],
            "pass_wall_s": [p["raw_wall_s"] for p in passes],
            "pass_op_s": [p["raw_op_s"] for p in passes],
        },
    }
    return metrics, passes, extra


def traced_run(wl, seconds: float) -> tuple[dict, list[dict], dict]:
    from tracer import Tracer

    plain = run_passes(wl, seconds * UNTRACED_SHARE)
    tracer = Tracer()
    snaps = []
    tracer.install()
    try:
        traced = run_passes(wl, seconds * (1.0 - UNTRACED_SHARE), tracer,
                            on_pass=lambda rec: snaps.append(tracer.snapshot()))
    finally:
        tracer.uninstall()

    per_pass = [layer_metrics(s, rec["counts"]) for s, rec in zip(snaps, traced)]
    counters = [exact_counters(m) for m in per_pass]
    metrics = {k: (statistics.median(m[k] for m in per_pass) if k.endswith("_s") or "us_per_call" in k
                   else per_pass[0][k])
               for k in per_pass[0]}
    for family in VERIFY_FAMILIES:
        metrics[f"verify.{family}.wall_s"] = (
            family_wall(wl, plain, family) if wl.name == "certify_all" else 0.0)
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}.wall_s"] = (
            family_wall(wl, plain, command) if wl.name == "cli_batch" else 0.0)
    metrics["trace.overhead_frac"] = (statistics.median(p["wall_s"] for p in traced)
                                      / statistics.median(p["wall_s"] for p in plain) - 1.0)

    passes = plain + traced
    extra = {
        "untraced_passes": len(plain),
        "traced_passes": len(traced),
        "untraced_pass_wall_s": [p["wall_s"] for p in plain],
        "traced_pass_wall_s": [p["wall_s"] for p in traced],
        "counters_repeat": all(c == counters[0] for c in counters),
        "layer_self_s": layer_self_table(snaps[0]),
        "spans": [{"pass": i, "name": s[0], "id": s[1], "parent": s[2], "start": s[3],
                   "end": s[4], "thread": s[5], "self_s": s[6], "rhs_evals": s[7]}
                  for i, snap in enumerate(snaps) for s in snap["spans"]],
    }
    return metrics, passes, extra


# ---------------------------------------------------------------------------
# environment and output

def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def write_results(args, payload: dict) -> Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(payload, indent=1, allow_nan=False) + "\n", encoding="utf-8")
    return path


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if "us_per_call" in name:
        return "us"
    if name == "sim.rhs_evals_per_sample":
        return "count/sample"
    if name == "trace.overhead_frac":
        return "ratio"
    if name == "cli.bytes_written":
        return "B"
    return "count"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cpu, cpus_usable = pin_to_one_cpu()
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            print(repr(set_up(args.workload, args.seed, workdir)[1]))
            return 0
        setup_cal, setup_raw, wl = calibrated_set_up(args, workdir, probe=False)
        if args.trace:
            metrics, passes, extra = traced_run(wl, args.seconds)
        else:
            metrics, passes, extra = untraced_run(wl, args.seconds, (setup_cal, setup_raw), args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["op_s"]) for p in passes)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    spans = extra.pop("spans", None)
    path = write_results(args, {
        "environment": {**environment(args), "cpus_usable": cpus_usable, "pinned_cpu": cpu},
        **result, **extra,
        "failures": sorted(set(failures)),
    })
    if spans is not None:
        spans_path = path.with_name(path.stem + "-spans.json")
        spans_path.write_text(json.dumps(spans) + "\n", encoding="utf-8")

    for name, value in metrics.items():
        print(f"{name:45s} {value:.6g} {unit_of(name)}")
    if not args.trace:
        print(f"{extra['passes']} passes of {extra['ops_per_pass']} operations: "
              f"{extra['op_samples']} samples, {extra['op_samples_beyond_p90']} beyond p90; "
              f"fail_frac {extra['fail_frac']:.6g}")
    for failure in sorted(set(failures))[:10]:
        print(f"FAILED {failure}")
    print(f"results: {path}")
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
