"""Certification checks: reports, sensitivity to broken inputs, battery."""

import hashlib
import json
import math
import re
import time

import numpy as np
import pytest

from polarpark import (
    CertReport,
    CompositeLyapunovFn,
    Compositor,
    ControllerKind,
    ControllerSpec,
    DomainError,
    Frame,
    Gains,
    LyapunovFn,
    PolarState,
    SimConfig,
    SimStatus,
    StateSpace,
    Trajectory,
    check_clf,
    check_gradient,
    check_kl_decay,
    check_lemma1,
    check_proposition1,
    composite,
    omega_tilde,
    run_suite,
    simulate,
)
from polarpark.verify import SUITE_NAMES

UNIT = Gains(1.0, 1.0, 1.0, 1.0)


def make_report(passed=True):
    return CertReport(
        check_name="demo",
        domain="3 samples",
        worst_margin=-0.25,
        witness=(1.0, 2.0, 3.0),
        passed=passed,
        tolerance=0.0,
        criterion="worst_margin < 0",
        seed=7,
        details={"n_samples": 3, "note": None},
    )


def flat_trajectory(rho, delta, gamma, values):
    n = len(rho)
    zeros = np.zeros(n)
    return Trajectory(
        t=np.arange(n, dtype=float) * 0.1 if n > 1 else np.zeros(n),
        rho=np.asarray(rho, dtype=float),
        delta=np.asarray(delta, dtype=float),
        gamma=np.asarray(gamma, dtype=float),
        x=zeros.copy(), y=zeros.copy(), theta=zeros.copy(),
        v=zeros.copy(), omega=zeros.copy(), omega_tilde=zeros.copy(),
        lyapunov=np.asarray(values, dtype=float),
        status=SimStatus.HORIZON_REACHED,
        frame=Frame.POLAR,
    )


class TestCertReport:
    def test_summary_wording(self):
        assert "certified on grid" in make_report(True).summary()
        assert "NOT certified" in make_report(False).summary()

    def test_dict_uses_pass_key(self):
        d = make_report().to_dict()
        assert d["pass"] is True
        assert d["witness"] == [1.0, 2.0, 3.0]
        assert "passed" not in d


class TestLemma1:
    def test_default_grid_certifies(self):
        rep = check_lemma1()
        assert rep.passed
        assert rep.worst_margin < 0.0
        assert rep.seed is None
        assert rep.details["n_points"] == 60_000

    def test_takes_no_arguments(self):
        # the k set and the grid are fixed, so no call can sample nothing
        with pytest.raises(TypeError):
            check_lemma1(k_values=(1.0,))


class TestClfCheck:
    def test_designed_feedback_certifies(self):
        spec = ControllerSpec(ControllerKind.GLOBA, UNIT)
        fn = CompositeLyapunovFn(Compositor.sum_form(), LyapunovFn.for_controller(spec))
        rep = check_clf(fn, spec, n_samples=2_000, seed=3)
        assert rep.passed
        assert rep.worst_margin < 0.0
        assert rep.check_name == "clf[globa]"

    def test_bolsa_feedback_does_not_certify_globas_storage_function(self):
        # a storage function paired with another controller's feedback must
        # produce a positive-derivative witness
        globa = LyapunovFn.for_controller(ControllerSpec(ControllerKind.GLOBA, UNIT))
        fn = CompositeLyapunovFn(Compositor.sum_form(), globa)
        rep = check_clf(fn, ControllerSpec(ControllerKind.BOLSA, UNIT), n_samples=2_000, seed=3)
        assert not rep.passed
        assert rep.worst_margin == pytest.approx(6.54, abs=0.005)
        assert rep.witness is not None

    def test_caller_samples_and_cap_recorded(self):
        spec = ControllerSpec(ControllerKind.GLOBA, UNIT)
        fn = CompositeLyapunovFn(Compositor.sum_form(), LyapunovFn.for_controller(spec))
        rep = check_clf(fn, spec, samples=np.array([[1.0, 0.5, -0.5], [2.0, 0.0, 1.0]]))
        assert rep.passed
        assert rep.seed is None
        assert "caller-supplied" in rep.domain
        capped = check_clf(fn, spec, n_samples=200, value_cap=50.0)
        assert "value cap 50" in capped.domain and "(value-capped)" in capped.domain

    def test_exponential_merge_needs_cap_but_certifies_with_it(self):
        spec = ControllerSpec(ControllerKind.BAGAL, UNIT)
        fn = CompositeLyapunovFn(
            Compositor.exp_product(), LyapunovFn.for_controller(spec))
        rep = check_clf(fn, spec, n_samples=500, seed=5, value_cap=600.0)
        assert rep.passed


class TestProposition1Check:
    def test_builtin_merges_certify(self):
        fn = LyapunovFn(ControllerKind.GLOBA, UNIT)
        for factory in (Compositor.sum_form, Compositor.log_sum):
            rep = check_proposition1(factory(), fn, n_samples=500, seed=1)
            assert rep.passed, rep.summary()
            assert rep.details["failing_condition"] is None

    def test_product_merge_fails_with_condition_named(self):
        # r*s is zero on both axes, so it cannot be positive off origin;
        # the check must report that instead of raising
        comp = Compositor.custom(
            fn=lambda r, s: r * s,
            dfn_dr=lambda r, s: s,
            dfn_ds=lambda r, s: r,
        )
        fn = LyapunovFn(ControllerKind.GLOBA, UNIT)
        rep = check_proposition1(comp, fn, n_samples=100, seed=1)
        assert not rep.passed
        assert rep.details["failing_condition"] == "positive-off-origin"
        assert rep.witness is not None

    def test_offset_merge_fails_origin_condition(self):
        comp = Compositor.custom(
            fn=lambda r, s: r + s + 0.5,
            dfn_dr=lambda r, s: 1.0,
            dfn_ds=lambda r, s: 1.0,
        )
        fn = LyapunovFn(ControllerKind.GLOBA, UNIT)
        rep = check_proposition1(comp, fn, n_samples=100, seed=1)
        assert not rep.passed
        assert rep.details["failing_condition"] == "zero-at-origin"

    def test_uncoupled_gains_fail_the_closed_loop_decrease(self):
        # k1*k3 = 0.1 < k2^2 = 9 breaks the coupling BOLSA's certificate needs:
        # the merge conditions hold, but V rises along the closed loop
        fn = LyapunovFn(ControllerKind.BOLSA, Gains(1.0, 3.0, 0.1, 1.0))
        rep = check_proposition1(Compositor.sum_form(), fn, n_samples=100, seed=1)
        assert not rep.passed
        assert rep.details["failing_condition"] == "closed-loop-decrease"
        assert rep.worst_margin == pytest.approx(15.89, abs=5e-3)
        assert rep.witness == pytest.approx((2.62, -9.47, 0.915), abs=5e-3)

    def test_nan_partial_fails_like_composite(self):
        # a NaN partial on the r axis is a violation, whichever partial it
        # is; composite() screens with the same conditions and rejects it
        comp = Compositor.custom(
            fn=lambda r, s: r + s,
            dfn_dr=lambda r, s: 1.0,
            dfn_ds=lambda r, s: np.where(s == 0, np.nan, 1.0),
        )
        fn = LyapunovFn(ControllerKind.GLOBA, UNIT)
        rep = check_proposition1(comp, fn, seed=1)
        assert not rep.passed
        assert rep.details["failing_condition"] == "positive-partials"
        assert rep.worst_margin == math.inf and rep.witness == (1e-6, 0.0)
        with pytest.raises(ValueError, match="positive-partials"):
            composite(comp, fn)

    def test_infinite_decrease_margin_is_written_as_null(self):
        # a partial of -inf makes the sampled derivative +inf
        comp = Compositor.custom(
            fn=lambda r, s: r + s, dfn_dr=lambda r, s: 1.0, dfn_ds=lambda r, s: -math.inf)
        rep = check_proposition1(comp, LyapunovFn(ControllerKind.GLOBA, UNIT), n_samples=50)
        assert rep.worst_margin == math.inf and rep.details["decrease_margin"] == math.inf
        details = json.loads(json.dumps(rep.to_dict(), allow_nan=False))["details"]
        assert details["decrease_margin"] is None
        assert details["nonfinite"] == {
            "decrease_margin": {"value": "inf", "reason": "overflow or NaN in the run"}}
        assert "nonfinite" not in rep.details and rep.details["decrease_margin"] == math.inf


class TestKlDecayCheck:
    def run_captured(self):
        spec = ControllerSpec(ControllerKind.GLOBA, UNIT)
        fn = CompositeLyapunovFn(Compositor.sum_form(), LyapunovFn.for_controller(spec))
        cfg = SimConfig(dt=0.05, t_final=60.0, capture_radius=2e-4)
        return simulate(spec, PolarState(2.0, 1.0, -1.0), cfg, lyapunov=fn), spec.space

    def test_captured_run_certifies(self):
        traj, space = self.run_captured()
        rep = check_kl_decay(traj, space)
        assert rep.passed
        assert rep.details["final_metric"] < 1e-3
        assert rep.details["max_value_increase"] <= 1e-8
        assert rep.details["capture_time"] is not None

    def test_requires_lyapunov_samples(self):
        spec = ControllerSpec(ControllerKind.GLOBA, UNIT)
        traj = simulate(spec, PolarState(1.0, 0.0, 0.0), SimConfig(dt=0.1, t_final=1.0))
        with pytest.raises(ValueError, match="no Lyapunov samples"):
            check_kl_decay(traj, spec.space)

    def test_rejects_empty_trajectory(self):
        empty = np.empty(0)
        traj = Trajectory(
            t=empty, rho=empty, delta=empty, gamma=empty, x=empty, y=empty,
            theta=empty, v=empty, omega=empty, omega_tilde=empty,
            lyapunov=empty, status=SimStatus.HORIZON_REACHED, frame=Frame.POLAR)
        with pytest.raises(ValueError, match="empty"):
            check_kl_decay(traj, StateSpace.S)

    def test_rejects_states_outside_space(self):
        traj = flat_trajectory([1.0, 1.0], [0.0, math.pi], [0.0, 0.0], [1.0, 0.5])
        with pytest.raises(DomainError, match="left the open space"):
            check_kl_decay(traj, StateSpace.S1)
        # the first offending sample is named, here by a negative distance
        traj = flat_trajectory([1.0, -1e-6, 1.0], [0.0, 0.0, 4.0], [0.0] * 3, [1.0, 0.5, 0.2])
        with pytest.raises(DomainError, match="at t=0.1$"):
            check_kl_decay(traj, StateSpace.S1)

    def test_stationary_origin_certifies(self):
        traj = flat_trajectory([0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        for space in StateSpace:
            rep = check_kl_decay(traj, space)
            assert rep.passed
            assert rep.details["final_metric"] == 0.0

    def test_value_increase_is_flagged(self):
        traj = flat_trajectory([1.0, 0.5], [0.0, 0.0], [0.0, 0.0], [1.0, 2.0])
        rep = check_kl_decay(traj, StateSpace.S)
        assert not rep.passed
        assert rep.details["max_value_increase"] == 1.0


    def test_overflowing_values_are_judged_on_log1p(self):
        # BAGAL from delta = 3.0 with the exponential merge: V is inf on all
        # 21 rows, and log(1 + V) falls by 7.8e3 per row at least
        spec = ControllerSpec(ControllerKind.BAGAL, UNIT)
        fn = CompositeLyapunovFn(Compositor.exp_product(), LyapunovFn.for_controller(spec))
        traj = simulate(spec, PolarState(1.0, 3.0, 0.0), SimConfig(t_final=1.0), lyapunov=fn)
        assert np.all(np.isinf(traj.lyapunov))
        rep = check_kl_decay(traj, spec.space, lyapunov=fn)
        assert rep.details["max_value_increase"] == pytest.approx(-7.822e3, rel=1e-3)
        assert rep.worst_margin == rep.details["final_metric"] - 1e-3
        without = check_kl_decay(traj, spec.space)
        assert math.isnan(without.details["max_value_increase"])


class TestGradientCheck:
    def test_plain_and_composite_certify(self):
        fn = LyapunovFn(ControllerKind.GLOBA, UNIT)
        assert check_gradient(fn, n_samples=300, seed=2).passed
        full = CompositeLyapunovFn(Compositor.sum_form(), fn)
        rep = check_gradient(full, n_samples=300, seed=2)
        assert rep.passed
        assert rep.check_name == "gradient[composite globa]"
        assert rep.details["coords"] == 3

    def test_near_barrier_certifies_at_default_tolerance(self):
        # the complex step subtracts no values, so the barrier's huge V
        # (about 3e7 here) costs no accuracy
        fn = LyapunovFn(ControllerKind.BAGAL, UNIT)
        samples = np.array([[math.pi - 0.02, 0.3]])
        rep = check_gradient(fn, samples=samples)
        assert rep.passed and rep.tolerance == 1e-10
        assert rep.seed is None
        assert rep.domain == "1 caller-supplied samples on S3"

    class Wrong:
        """Plain candidate whose dV/ddelta is off by the relative error `err`."""
        def __init__(self, inner, err):
            self.inner, self.err = inner, err
            self.kind = inner.kind
            self.space = inner.space
        def value(self, d, g):
            return self.inner.value(d, g)
        def grad(self, d, g):
            dd, dg = self.inner.grad(d, g)
            return dd * (1.0 + self.err), dg

    def test_broken_gradient_is_caught(self):
        rep = check_gradient(self.Wrong(LyapunovFn(ControllerKind.GLOBA, UNIT), 0.01),
                             n_samples=200, seed=2)
        assert not rep.passed

    def test_gradient_off_by_1e_8_is_caught(self):
        # far below the old central difference's 1e-5 tolerance, far above
        # the complex step's rounding
        for kind in ControllerKind:
            rep = check_gradient(self.Wrong(LyapunovFn(kind, UNIT), 1e-8), n_samples=200, seed=2)
            assert not rep.passed and rep.worst_margin > 5e-9
            assert check_gradient(LyapunovFn(kind, UNIT), n_samples=200, seed=2).passed

    def test_merge_rejecting_complex_input_fails_with_reason(self):
        # math.log1p raises on arrays; applied element-wise it serves real
        # arrays but casts the complex step's probe to real
        angular = LyapunovFn(ControllerKind.GLOBA, UNIT)
        rows = interior_rows(np.random.default_rng(2), 5)
        for log1p, error in ((math.log1p, "TypeError"),
                             (np.vectorize(math.log1p), "ComplexWarning")):
            comp = Compositor.custom(fn=lambda r, s: log1p(r) + s,
                                     dfn_dr=lambda r, s: 1.0 / (1.0 + r),
                                     dfn_ds=lambda r, s: 1.0)
            full = CompositeLyapunovFn(comp, angular)
            if error == "ComplexWarning":
                assert np.all(np.isfinite(full.value(*rows.T)))
            rep = check_gradient(full, n_samples=50, seed=2)
            assert not rep.passed
            assert rep.worst_margin == math.inf
            assert rep.details["complex_step_error"].startswith(
                f"value raised {error} on complex input: ")
            json.dumps(rep.to_dict(), allow_nan=False)

    def test_seed_reproducibility(self):
        fn = LyapunovFn(ControllerKind.BOLSA, UNIT)
        a = check_gradient(fn, n_samples=100, seed=11)
        b = check_gradient(fn, n_samples=100, seed=11)
        assert a == b


class TestSampler:
    """verify._sample_states: a first round as before, then the shortfall in one batch."""

    class Counting:
        """Angular function that counts its value calls."""
        def __init__(self, inner):
            self.inner, self.calls = inner, 0
        def value(self, delta, gamma):
            self.calls += 1
            return self.inner.value(delta, gamma)

    def draw(self, kind, n, seed, cap):
        from polarpark.verify import _sample_states

        angular = self.Counting(LyapunovFn(kind, UNIT))
        rows, domain, drawn = _sample_states(kind.space, n, seed, angular=angular, value_cap=cap)
        return rows, domain, drawn, angular

    def test_capped_draw_takes_at_most_three_value_calls(self):
        # one value call per round: the first, the shortfall, rarely one more
        for seed in range(5):
            rows, _, drawn, angular = self.draw(ControllerKind.BOLSA, 1_000, seed, 20.0)
            assert angular.calls <= 3, seed
            assert len(rows) == 1_000 and drawn > 1_000

    def test_rows_lie_in_bounds_and_under_the_cap(self):
        for kind in ControllerKind:
            for cap in (1.0, 20.0, 600.0):
                rows, _, _, angular = self.draw(kind, 500, 7, cap)
                assert rows.shape == (500, 3)
                assert np.all((rows[:, 0] >= 1e-6) & (rows[:, 0] <= 10.0))
                for col, bounded in ((1, kind.space.delta_bounded),
                                     (2, kind.space.gamma_bounded)):
                    bound = math.pi - 1e-3 if bounded else 10.0
                    assert np.all(np.abs(rows[:, col]) <= bound)
                assert np.all(angular.inner.value(rows[:, 1], rows[:, 2]) <= cap)

    def test_first_round_is_three_uniform_calls(self):
        from polarpark.verify import _sample_states

        space = ControllerKind.BAGAL.space
        bound = math.pi - 1e-3

        def first_round(m):
            rng = np.random.default_rng(9)
            return np.column_stack([rng.uniform(1e-6, 10.0, m), rng.uniform(-bound, bound, m),
                                    rng.uniform(-bound, bound, m)])

        for n in (1_000, 10):
            rows, _, drawn = _sample_states(space, n, 9)
            assert drawn == max(n, 64)
            assert rows.tobytes() == first_round(max(n, 64))[:n].tobytes()
        # a capped draw that the first round satisfies keeps its accepted rows in order
        angular = LyapunovFn(ControllerKind.BAGAL, UNIT)
        rows, _, drawn = _sample_states(space, 10, 9, angular=angular, value_cap=1e6)
        expected = first_round(64)
        accepted = expected[angular.value(expected[:, 1], expected[:, 2]) <= 1e6]
        assert drawn == 64 and rows.tobytes() == accepted[:10].tobytes()

    def test_draw_is_bounded(self):
        # cap 1e-3 admits about 7.8e-6 of GLOBA's box, so 1,000 rows would take
        # about 1.3e8 candidates (3 s); the draw stops past 1,000 per row
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"value_cap 0\.001 admits too few samples: \d+ of "
                                             r"1000 rows after \d+ candidates, past the cap of "
                                             r"1000 per row \(acceptance rate [0-9.e-]+\)"):
            self.draw(ControllerKind.GLOBA, 1_000, 0, 1e-3)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("cap", [-1.0, 0.0, math.nan])
    def test_cap_admitting_no_sample_is_rejected(self, cap):
        # no V is <= these caps (V > 0 off the origin), so drawing would never end
        full = CompositeLyapunovFn(Compositor.sum_form(), LyapunovFn(ControllerKind.GLOBA, UNIT))
        with pytest.raises(ValueError, match="value_cap must be > 0"):
            check_gradient(full, seed=1, value_cap=cap)
        with pytest.raises(ValueError, match="value_cap must be > 0"):
            check_clf(full, ControllerSpec(ControllerKind.GLOBA, UNIT), seed=1, value_cap=cap)

    def test_reports_count_the_candidates_drawn(self):
        full = CompositeLyapunovFn(Compositor.exp_product(), LyapunovFn(ControllerKind.BOLSA, UNIT))
        rep = check_gradient(full, seed=5, value_cap=20.0)
        assert rep.passed and rep.details["n_drawn"] == 15_776
        assert check_gradient(full, seed=5, value_cap=20.0).to_dict() == rep.to_dict()
        assert check_proposition1(Compositor.sum_form(), full.angular).details["n_drawn"] == 2_000
        assert "n_drawn" not in check_gradient(full, samples=np.ones((2, 3))).details


class TestSuite:
    def test_full_battery_certifies(self):
        reports = run_suite("all", seed=0)
        assert len(reports) == 81
        names = [r.check_name for r in reports]
        assert len(set(names)) == len(names)
        failed = [r.summary() for r in reports if not r.passed]
        assert failed == []

    def test_family_runs_match_full_run(self):
        full = run_suite("all", seed=0)
        for family in SUITE_NAMES[1:]:
            alone = run_suite(family, seed=0)
            sliced = [r for r in full if r.check_name.startswith(family)]
            assert alone == sliced

    def test_sampled_reports_record_their_seed(self):
        # each sampled check draws from its own seed, numbered from its
        # family's base, and its report records that seed
        reports = run_suite("all", seed=3)
        for family, first, count in (("clf", 104, 24), ("prop1", 204, 24), ("gradient", 304, 28)):
            fam = [r for r in reports if r.check_name.startswith(family + "[")]
            assert [r.seed for r in fam] == list(range(first, first + count))
            assert all(f"; seed {r.seed}" in r.domain for r in fam)

    def test_gradient_family_passes_at_seed_143(self):
        # the central difference failed here: 1.43e-5 > 1e-5 on
        # gradient[globa+exp_product/vdg_first]
        reports = run_suite("gradient", seed=143)
        assert [r.summary() for r in reports if not r.passed] == []

    def test_gradient_family_passes_on_seeds_0_to_19(self):
        for seed in range(20):
            reports = run_suite("gradient", seed=seed)
            assert len(reports) == 28
            assert [r.summary() for r in reports if not r.passed] == [], seed

    def test_repeated_runs_give_equal_reports(self):
        # the memoized merge screens and the sampler keep no state between runs
        first = [r.to_dict() for r in run_suite("all", seed=3)]
        assert [r.to_dict() for r in run_suite("all", seed=3)] == first

    # sha256 of repr([r.to_dict() for r in run_suite("all", seed=s)]): a change to how the
    # battery samples or evaluates must leave every byte of every report as it is
    BATTERY_DIGESTS = {
        0: "af3db59916fe5c13a34ae8d83ad40eafa90255e1a9d3df19996f594d73116eaf",
        1: "291c37d62cbcddb0b4504a71fb805c6389051cd37407fa48d799d3fd45323e75",
    }

    @pytest.mark.parametrize("seed", sorted(BATTERY_DIGESTS))
    def test_battery_bytes_are_pinned(self, seed):
        reports = repr([r.to_dict() for r in run_suite("all", seed=seed)])
        assert hashlib.sha256(reports.encode()).hexdigest() == self.BATTERY_DIGESTS[seed]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("everything")

    def test_suite_names_exported(self):
        assert "all" in SUITE_NAMES and len(SUITE_NAMES) == 6


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def interior_rows(rng, n):
    # |angles| <= 1.5 and rho <= 3 keep every angular value below ~40, so
    # exponential merges stay finite and the references compare numbers
    return np.column_stack([
        rng.uniform(0.05, 3.0, n), rng.uniform(-1.5, 1.5, n), rng.uniform(-1.5, 1.5, n)])


def relative_gap(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


class TestStrictJson:
    def test_infinite_margin_is_written_as_null(self):
        # without a value cap the exponential merge overflows, so the worst
        # margin is inf; to_dict must still be strict JSON and keep the value
        for kind in (ControllerKind.BARFLI, ControllerKind.BOLSA, ControllerKind.BAGAL):
            spec = ControllerSpec(kind, UNIT)
            fn = CompositeLyapunovFn(Compositor.exp_product(), LyapunovFn.for_controller(spec))
            rep = check_clf(fn, spec, seed=1)
            assert rep.worst_margin == math.inf and not rep.passed
            d = rep.to_dict()
            parsed = json.loads(json.dumps(d, allow_nan=False), parse_constant=_reject_constant)
            assert parsed == d and parsed["worst_margin"] is None
            assert parsed["witness"] == list(rep.witness)
            assert parsed["nonfinite"] == {"worst_margin": {
                "value": "inf", "reason": "a margin overflowed or was NaN"}}
            assert "nonfinite" not in parsed["details"] and "nonfinite" not in rep.details

    def test_non_finite_details_are_written_as_null(self):
        # V overflows to inf under exp_product near BAGAL's delta barrier; with no
        # lyapunov to judge the rises on log(1 + V), inf - inf makes the largest NaN
        spec = ControllerSpec(ControllerKind.BAGAL, UNIT)
        full = CompositeLyapunovFn(Compositor.exp_product(), LyapunovFn.for_controller(spec))
        traj = simulate(spec, PolarState(1.0, math.pi - 0.05, 0.0), SimConfig(t_final=5.0),
                        lyapunov=full)
        rep = check_kl_decay(traj, spec.space)
        assert math.isnan(rep.details["max_value_increase"])
        before = dict(rep.details)
        d = rep.to_dict()
        parsed = json.loads(json.dumps(d, allow_nan=False), parse_constant=_reject_constant)
        assert parsed == d and parsed["details"]["max_value_increase"] is None
        assert parsed["details"]["nonfinite"] == {
            "max_value_increase": {"value": "nan", "reason": "overflow or NaN in the run"}}
        assert rep.details == before and "nonfinite" not in rep.details

    def test_a_nan_rise_is_an_infinite_margin(self):
        # the run of the test above: V is inf on all 101 samples, so without a
        # lyapunov every rise is inf - inf = NaN; that NaN counts as +inf, as in
        # every check, and does not hide the final metric's excess of 82.7
        spec = ControllerSpec(ControllerKind.BAGAL, UNIT)
        full = CompositeLyapunovFn(Compositor.exp_product(), LyapunovFn.for_controller(spec))
        traj = simulate(spec, PolarState(1.0, math.pi - 0.05, 0.0), SimConfig(t_final=5.0),
                        lyapunov=full)
        rep = check_kl_decay(traj, spec.space)
        assert rep.worst_margin == math.inf and not rep.passed
        assert rep.details["final_metric"] == pytest.approx(82.7077, rel=1e-5)
        state = traj.state(1)  # the first NaN rise ends there
        assert rep.witness == (state.rho, state.delta, state.gamma)
        parsed = json.loads(json.dumps(rep.to_dict(), allow_nan=False),
                            parse_constant=_reject_constant)
        assert parsed["worst_margin"] is None and parsed["nonfinite"] == {"worst_margin": {
            "value": "inf", "reason": "a margin overflowed or was NaN"}}
        assert parsed["details"]["max_value_increase"] is None
        assert parsed["details"]["nonfinite"]["max_value_increase"]["value"] == "nan"

    def test_empty_sample_set_is_rejected(self):
        # an empty set used to certify with worst margin -inf
        spec = ControllerSpec(ControllerKind.GLOBA, UNIT)
        fn = CompositeLyapunovFn(Compositor.sum_form(), LyapunovFn.for_controller(spec))
        with pytest.raises(ValueError, match=r"got shape \(0, 3\)"):
            check_clf(fn, spec, samples=np.empty((0, 3)))


class TestNoCertificateWithoutPoints:
    """Every check refuses an empty or mis-shaped point set instead of passing on it."""

    spec = ControllerSpec(ControllerKind.BARFLI, UNIT)
    angular = LyapunovFn.for_controller(spec)
    full = CompositeLyapunovFn(Compositor.sum_form(), angular)

    @pytest.mark.parametrize("n", [0, -5])
    def test_no_samples_to_draw(self, n):
        message = rf"n_samples must be >= 1, got {n}"
        with pytest.raises(ValueError, match=message):
            check_clf(self.full, self.spec, n_samples=n)
        with pytest.raises(ValueError, match=message):
            check_proposition1(Compositor.sum_form(), self.angular, n_samples=n)
        for fn in (self.angular, self.full):
            with pytest.raises(ValueError, match=message):
                check_gradient(fn, n_samples=n)

    @pytest.mark.parametrize("shape", [(0, 3), (0, 2), (4, 2), (4, 3), (4, 4), (3,), (1, 2, 3)])
    def test_given_samples_must_be_non_empty_rows(self, shape):
        # each shape is checked on every check it does not fit; a wrong one
        # used to pass when empty and raise TypeError or IndexError otherwise
        samples = np.ones(shape)
        checks = [(lambda: check_clf(self.full, self.spec, samples=samples), 3),
                  (lambda: check_gradient(self.full, samples=samples), 3),
                  (lambda: check_gradient(self.angular, samples=samples), 2)]
        for run, n_cols in checks:
            if shape == (4, n_cols):
                continue
            message = rf"non-empty \(n, {n_cols}\) array, got shape {re.escape(str(shape))}"
            with pytest.raises(ValueError, match=message):
                run()


class TestArrayChecksMatchRowReference:
    """The array checks against per-row references from the float API."""

    def test_clf(self):
        rng = np.random.default_rng(31)
        for kind in ControllerKind:
            spec = ControllerSpec(kind, UNIT)
            angular = LyapunovFn(kind, UNIT)
            rows = interior_rows(rng, 300)
            for factory in (Compositor.sum_form, Compositor.log_sum, Compositor.exp_product):
                fn = CompositeLyapunovFn(factory(), angular)
                rep = check_clf(fn, spec, samples=rows)
                ref = []
                for rho, d, g in rows.tolist():
                    g_rho, g_d, g_g = fn.gradient(rho, d, g)
                    slip = 0.5 * math.sin(2.0 * g)
                    rho_rate = -rho * math.cos(g) ** 2
                    ref.append(g_rho * rho_rate - g_g * omega_tilde(spec, d, g) + g_d * slip)
                assert np.all(np.isfinite(ref))
                i = int(np.argmax(ref))
                assert relative_gap(rep.worst_margin, ref[i]) < 1e-10
                assert rep.witness == tuple(rows[i])

    def test_custom_compositor_with_constant_partials(self):
        comp = Compositor.custom(
            fn=lambda r, s: r + s, dfn_dr=lambda r, s: 1.0, dfn_ds=lambda r, s: 1.0)
        spec = ControllerSpec(ControllerKind.GLOBA, UNIT)
        angular = LyapunovFn.for_controller(spec)
        rows = interior_rows(np.random.default_rng(33), 200)
        custom = check_clf(CompositeLyapunovFn(comp, angular), spec, samples=rows)
        builtin = check_clf(CompositeLyapunovFn(Compositor.sum_form(), angular), spec, samples=rows)
        assert custom.worst_margin == builtin.worst_margin
        assert custom.witness == builtin.witness

    def test_proposition1(self):
        from polarpark.verify import _COMP_GRID, _sample_states

        for kind in ControllerKind:
            fn = LyapunovFn(kind, UNIT)
            for factory in (Compositor.sum_form, Compositor.log_sum, Compositor.exp_product):
                comp = factory()
                rep = check_proposition1(comp, fn, n_samples=300, seed=4)
                ref = [abs(comp.value(0.0, 0.0)) - 1e-12]
                for r in _COMP_GRID:
                    for s in _COMP_GRID:
                        if r or s:
                            ref += [-comp.value(r, s), -min(comp.partials(r, s))]
                diag = [comp.value(t, t) for t in _COMP_GRID[1:]]
                ref += [a - b for a, b in zip(diag, diag[1:])]
                states = _sample_states(fn.space, 300, 4)[0]
                full = CompositeLyapunovFn(comp, fn)
                ref += [full.vdot(*row) for row in states.tolist()]
                assert not np.isnan(ref).any()  # -inf: exp merge saturated, fine
                assert relative_gap(rep.worst_margin, max(ref)) < 1e-10
                # the sampled decrease margin, which the -1e-12 origin slack hides
                with np.errstate(all="ignore"):
                    vdot = full.vdot(*states.T)
                i = int(np.argmax(vdot))
                assert rep.details["decrease_margin"] == vdot[i] < 0.0
                assert rep.details["decrease_witness"] == tuple(states[i])

    def test_gradient(self):
        # per-row complex-step reference: each partial from 1-element
        # arrays, the probed coordinate complex
        rng = np.random.default_rng(34)
        for kind in ControllerKind:
            angular = LyapunovFn(kind, UNIT)
            rows = interior_rows(rng, 200)
            cases = [(angular, rows[:, 1:], angular.grad)]
            for factory in (Compositor.sum_form, Compositor.log_sum, Compositor.exp_product):
                full = CompositeLyapunovFn(factory(), angular)
                cases.append((full, rows, full.gradient))
            for fn, points, analytic in cases:
                rep = check_gradient(fn, samples=points)
                ref = -math.inf
                for row in points.tolist():
                    exact = analytic(*row)
                    for j in range(len(row)):
                        probe = [np.array([x]) for x in row]
                        probe[j] = probe[j] + 1e-30j
                        cs = float(fn.value(*probe).imag[0]) * 1e30
                        err = abs(exact[j] - cs) / max(1.0, abs(exact[j]), abs(cs))
                        assert math.isfinite(err)
                        ref = max(ref, err)
                assert rep.passed
                assert abs(rep.worst_margin - ref) < 1e-13
