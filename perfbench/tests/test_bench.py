"""Self-tests of the benchmark: exact counters, wrapper transparency, schedule.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.load_program()

import tracer  # noqa: E402
import workloads  # noqa: E402
from polarpark import run_suite  # noqa: E402


def _namespaces() -> dict:
    """Every binding in the polarpark modules and the traced classes."""
    mods = {n: m for n, m in sys.modules.items() if n == "polarpark" or n.startswith("polarpark.")}
    bindings = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    for mod_name, cls_name, _attr, _span in tracer.METHODS:
        cls = getattr(mods[mod_name], cls_name)
        bindings.update({(cls_name, k): v for k, v in vars(cls).items()})
    return bindings


def _traced_pass(wl, fingerprints: bool):
    t = tracer.Tracer()
    t.install()
    try:
        rec = run.run_pass(wl, t, fingerprints=fingerprints)
        snap = t.snapshot()
    finally:
        t.uninstall()
    return rec, run.exact_counters(run.layer_metrics(snap, rec["counts"]))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tracing_changes_no_output_and_counters_repeat(name, tmp_path):
    before = _namespaces()
    wl = workloads.build(name, 0, tmp_path)

    plain = run.run_pass(wl, fingerprints=True)
    first, counters = _traced_pass(wl, fingerprints=True)
    second, counters_again = _traced_pass(workloads.build(name, 0, tmp_path), fingerprints=False)

    assert plain["failures"] == [] and first["failures"] == [] and second["failures"] == []
    # Bitwise-identical trajectories, reports and CLI output files.
    assert first["fingerprints"] == plain["fingerprints"]
    assert None not in plain["fingerprints"]
    # Exact counters repeat from run to run.
    assert counters == counters_again
    assert counters["sim.simulate.calls"] > 0 and counters["sim.rhs_evals"] > 0
    # Uninstalling leaves every binding as it was: untraced runs see no wrappers.
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_counters_match_the_workload_shape(tmp_path):
    _, counters = _traced_pass(workloads.build("cli_batch", 0, tmp_path), fingerprints=False)
    assert counters["sim.to_csv.rows"] == workloads.CLI_SIM_STARTS * workloads.CLI_SIM_ROWS
    assert counters["sim.simulate.calls"] == (
        workloads.CLI_SIM_STARTS + workloads.CLI_SWEEP_GAIN_SETS * workloads.CLI_SWEEP_STARTS)
    # Every Cartesian RHS evaluation converts the pose to polar coordinates.
    assert counters["geometry.cart_to_polar.calls"] > counters["sim.rhs_evals"] // 2


@pytest.mark.parametrize("seed", [0, 7])
def test_certify_schedule_reproduces_run_suite(seed, tmp_path):
    wl = workloads.build("certify_all", seed, tmp_path)
    ours = [dataclasses.replace(op.run(), check_name=op.label).to_dict() for op in wl.ops]
    theirs = [rep.to_dict() for rep in run_suite("all", seed=seed)]
    assert [r["check_name"] for r in ours] == [r["check_name"] for r in theirs]
    assert ours == theirs


def test_run_lists_every_workload():
    assert run.WORKLOADS == tuple(workloads.BUILDERS)


def test_percentile_interpolates():
    assert run.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert run.percentile([0.0, 10.0], 0.9) == pytest.approx(9.0)
    assert run.percentile([5.0], 0.9) == 5.0


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero, silently."""
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "capture_grid", "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
