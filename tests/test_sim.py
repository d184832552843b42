"""Closed-loop integration: fields, integrators, capture, and CSV output."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import polarpark.sim as sim
from polarpark.controllers import steering_law
from polarpark.geometry import COMPLEX_MATH, FLOAT_MATH, polar_image
from polarpark.verify import check_kl_decay
from polarpark import (
    CartesianState,
    CompositeLyapunovFn,
    Compositor,
    ControllerKind,
    ControllerSpec,
    DomainError,
    Frame,
    Gains,
    IntegratorKind,
    LyapunovFn,
    PolarState,
    SimConfig,
    SimStatus,
    Trajectory,
    cart_to_polar,
    omega_tilde,
    polar_to_cart,
    rhs_polar,
    simulate,
    simulate_unsteered,
)

UNIT = Gains(1.0, 1.0, 1.0, 1.0)


@pytest.fixture
def rhs_calls(monkeypatch):
    """Counts float right-hand-side evaluations: calls of the float steering laws sim binds."""
    calls = []
    original = sim.steering_law

    def counting_law(xp, kind, gains):
        law = original(xp, kind, gains)
        if xp is not FLOAT_MATH:
            return law

        def counted(delta, gamma):
            calls.append(1)
            return law(delta, gamma)

        return counted

    monkeypatch.setattr(sim, "steering_law", counting_law)
    return calls


class TestConfig:
    def test_dt_must_fit_horizon(self):
        with pytest.raises(ValueError, match="dt"):
            SimConfig(dt=2.0, t_final=1.0)
        with pytest.raises(ValueError, match="dt"):
            SimConfig(dt=0.0)
        with pytest.raises(ValueError, match="rtol"):
            SimConfig(rtol=-1e-8)

    def test_settings_must_be_finite(self):
        # an infinite horizon used to overflow the sample count, and a NaN
        # capture radius silently turned capture off
        for name in ("dt", "t_final", "capture_radius", "rtol", "atol"):
            for bad in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    SimConfig(**{name: bad})

    def test_step_floor_is_not_a_setting(self):
        # the adaptive loop derives its floor from t and dt
        with pytest.raises(TypeError, match="h_min"):
            SimConfig(h_min=1e-9)

    def test_horizon_quotient_must_be_finite(self):
        # 1e308/0.05 overflows: the sample count used to raise OverflowError in
        # simulate; so does a finite quotient within 1e-12 of the float range
        for dt, t_final in ((0.05, 1e308), (1e-300, 1.7976931348623e8)):
            with pytest.raises(ValueError, match="t_final/dt must be finite"):
                SimConfig(dt=dt, t_final=t_final)

    def test_horizon_sample_count_is_capped(self):
        # 2e10 intervals: the run would grow its sample buffer until memory
        # ran out; the cap is 10**7 intervals (about 2 GB of samples)
        with pytest.raises(ValueError, match=r"n = 20000000000 .* cap of 10000000"):
            SimConfig(dt=0.05, t_final=1e9)
        cfg = SimConfig(dt=1e-6, t_final=10.0)  # constructed, never run
        assert sim._interval_count(cfg.dt, cfg.t_final) == 10**7

    def test_trajectory_validation(self):
        t = np.array([0.0, 0.1])
        col = np.zeros(2)
        bad = np.zeros(3)
        with pytest.raises(ValueError, match="length mismatch"):
            Trajectory(t=t, rho=bad, delta=col, gamma=col, x=col, y=col,
                       theta=col, v=col, omega=col, omega_tilde=col,
                       lyapunov=col, status=SimStatus.HORIZON_REACHED,
                       frame=Frame.POLAR)
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(t=np.array([0.0, 0.0]), rho=col, delta=col, gamma=col,
                       x=col, y=col, theta=col, v=col, omega=col,
                       omega_tilde=col, lyapunov=col,
                       status=SimStatus.HORIZON_REACHED, frame=Frame.POLAR)


class TestFields:
    def test_polar_field_formula(self):
        spec = ControllerSpec(ControllerKind.GLOBA, UNIT)
        rho_rate, delta_rate, gamma_rate = rhs_polar(spec, PolarState(2.0, 0.5, -0.3))
        assert rho_rate == pytest.approx(-2.0 * math.cos(-0.3) ** 2, rel=1e-15)
        assert delta_rate == pytest.approx(0.5 * math.sin(-0.6), rel=1e-15)
        assert gamma_rate == pytest.approx(-spec.gains.k1, abs=10.0)  # finite sanity

    def test_cartesian_field_matches_polar_through_jacobian(self):
        # push the Cartesian rates through d(rho,delta,gamma)/d(x,y,theta)
        # and compare with the closed-form polar rates; angles stay in the
        # principal band because the Cartesian field wraps its polar image
        rng = np.random.default_rng(31)
        for kind in ControllerKind:
            spec = ControllerSpec(kind, UNIT)
            d_max = math.pi - 0.05
            g_max = math.pi - 0.05
            for _ in range(2500):
                rho = float(rng.uniform(0.1, 5.0))
                delta = float(rng.uniform(-d_max, d_max))
                gamma = float(rng.uniform(-g_max, g_max))
                polar = PolarState(rho, delta, gamma)
                cart = polar_to_cart(polar)
                field = sim._cartesian_field(1.0, steering_law(FLOAT_MATH, kind, UNIT))
                x_rate, y_rate, th_rate = field((cart.x, cart.y, cart.theta))
                rho_c = (cart.x * x_rate + cart.y * y_rate) / rho
                delta_c = (cart.x * y_rate - cart.y * x_rate) / (rho * rho)
                gamma_c = delta_c - th_rate
                rho_p, delta_p, gamma_p = rhs_polar(spec, polar)
                for a, b in ((rho_c, rho_p), (delta_c, delta_p), (gamma_c, gamma_p)):
                    assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))

    @pytest.mark.parametrize("kind", list(ControllerKind))
    def test_cartesian_feedback_is_polar_image_then_steering_law(self, kind):
        # bit for bit, on random poses and on the edges of the angle wrap:
        # y = +-0.0 behind the target (atan2 = +-pi), headings at multiples
        # of 2*pi and headings wound up to |theta| = 1e3
        gains = Gains(1.3, 0.7, 1.1, 0.9)
        law = steering_law(FLOAT_MATH, kind, gains)
        field = sim._cartesian_field(gains.k1, law)
        k1 = gains.k1

        def expected(x, y, theta):
            rho, delta, gamma = polar_image(x, y, theta)
            omega = 0.5 * k1 * math.sin(2.0 * gamma) + law(delta, gamma)
            v = k1 * rho * math.cos(gamma)
            return (v * math.cos(theta), v * math.sin(theta), omega)

        rng = np.random.default_rng(23)
        poses = [(float(x), float(y), float(theta)) for x, y, theta in zip(
            rng.uniform(-5.0, 5.0, 10_000), rng.uniform(-5.0, 5.0, 10_000),
            rng.uniform(-1e3, 1e3, 10_000))]
        turns = [2.0 * math.pi * k for k in (-159, -3, -1, 0, 1, 2, 159)]
        for x, y, theta in itertools.product((-2.0, -1e-3), (0.0, -0.0), turns + [1e3, -1e3]):
            poses.append((x, y, theta))
        for theta in turns:
            poses.append((-1.0, 0.3, theta))
        for pose in poses:
            try:
                want = expected(*pose)
            except DomainError:
                with pytest.raises(DomainError):
                    field(pose)
                continue
            assert field(pose) == want, pose

    def test_field_regular_at_small_rho(self):
        spec = ControllerSpec(ControllerKind.GLOBA, UNIT)
        rates = rhs_polar(spec, PolarState(1e-300, 1.0, 1.0))
        assert all(math.isfinite(r) for r in rates)


class TestIntegrators:
    def test_exact_exponential_decay_on_the_axis(self):
        # (delta, gamma) = (0, 0) is an equilibrium of the angular
        # subsystem, so rho' = -k1*rho exactly along this ray
        spec = ControllerSpec(ControllerKind.GLOBA, Gains(1.5, 1.0, 1.0, 1.0))
        cfg = SimConfig(dt=0.05, t_final=5.0, capture_radius=0.0)
        traj = simulate(spec, PolarState(2.0, 0.0, 0.0), cfg)
        assert traj.status is SimStatus.HORIZON_REACHED
        expected = 2.0 * np.exp(-1.5 * traj.t)
        assert np.max(np.abs(traj.rho - expected) / expected) < 1e-8
        assert np.max(np.abs(traj.delta)) == 0.0
        assert np.max(np.abs(traj.gamma)) == 0.0

    def test_adaptive_matches_scipy(self):
        spec = ControllerSpec(ControllerKind.GLOBA, UNIT)
        cfg = SimConfig(dt=0.1, t_final=10.0, capture_radius=0.0)
        traj = simulate(spec, PolarState(3.0, 2.0, -1.0), cfg)

        def f(t, y):
            return rhs_polar(spec, PolarState(y[0], y[1], y[2]))

        ref = solve_ivp(f, (0.0, 10.0), [3.0, 2.0, -1.0], method="RK45",
                        rtol=1e-12, atol=1e-12, t_eval=traj.t, dense_output=False)
        assert ref.success
        err = np.max(np.abs(np.stack([traj.rho, traj.delta, traj.gamma]) - ref.y))
        assert err < 1e-7

    def test_fixed_step_matches_adaptive(self):
        spec = ControllerSpec(ControllerKind.BARFLI, UNIT)
        x0 = PolarState(1.5, 1.0, -0.5)
        fine = SimConfig(dt=0.01, t_final=4.0, capture_radius=0.0,
                         integrator=IntegratorKind.RK4_FIXED)
        ada = SimConfig(dt=0.01, t_final=4.0, capture_radius=0.0)
        a = simulate(spec, x0, fine)
        b = simulate(spec, x0, ada)
        err = np.max(np.abs(np.stack([a.rho - b.rho, a.delta - b.delta, a.gamma - b.gamma])))
        assert err < 1e-6

    def test_sampling_grid_is_exact(self):
        spec = ControllerSpec(ControllerKind.GLOBA, UNIT)
        cfg = SimConfig(dt=0.05, t_final=2.0, capture_radius=0.0)
        traj = simulate(spec, PolarState(1.0, 0.5, 0.5), cfg)
        assert len(traj) == 41
        expected = np.array([i * cfg.dt for i in range(41)])
        assert np.array_equal(traj.t, expected)

    def test_error_control_alone_sets_the_steps(self, rhs_calls):
        # 60 s at the reference gains: clamping every step to the dt = 0.05
        # grid cost 7,513 right-hand-side evaluations; steps chosen by error
        # control, with the grid filled from the dense output, need far fewer
        spec = ControllerSpec(ControllerKind.GLOBA, UNIT)
        traj = simulate(spec, PolarState(3.0, 0.5, -1.0), SimConfig(capture_radius=0.0))
        assert traj.status is SimStatus.HORIZON_REACHED and len(traj) == 1201
        assert 0 < len(rhs_calls) <= 2000

    # Float RHS evaluations on criterion 05's 64 starts and the final sample
    # (t, rho, delta, gamma) of each kind's first start at rho0 = 1, as the
    # DOP853 loop produced them from the HINIT first step.  Any change to the
    # steps DOP853 takes moves these; a faster loop must leave them exact.
    STEP_COUNTS = {ControllerKind.GLOBA: 9_862, ControllerKind.BARFLI: 12_184,
                   ControllerKind.BOLSA: 10_384, ControllerKind.BAGAL: 9_784}
    FINAL_SAMPLES = {
        ControllerKind.GLOBA: (10.65, 0.00014073558829541175, 0.00038596524701567863,
                               0.0008880169868055349),
        ControllerKind.BARFLI: (9.600000000000001, 0.0005744060731615228, 0.0006147144011851036,
                                0.0009330945846494884),
        ControllerKind.BOLSA: (55.5, 1.259925730186983e-24, 0.0009975434806920136,
                               -0.00011242480956194238),
        ControllerKind.BAGAL: (55.300000000000004, 1.5394468385601978e-24, 0.0009967148501066837,
                               -0.00011233148153056152),
    }

    @pytest.mark.parametrize("kind", list(ControllerKind))
    def test_step_selection_is_pinned(self, kind, rhs_calls):
        from test_acceptance import CONVERGENCE_GRIDS, REFERENCE_GAINS

        spec = ControllerSpec(kind, REFERENCE_GAINS, allow_unproven_gains=True)
        cfg = SimConfig(dt=0.05, t_final=60.0, capture_radius=1e-3)
        finals = [simulate(spec, PolarState(rho0, d0, g0), cfg) for rho0, (d0, g0)
                  in itertools.product((1.0, 3.0), CONVERGENCE_GRIDS[kind])]
        assert len(rhs_calls) == self.STEP_COUNTS[kind]
        final = finals[0]
        assert (final.t[-1], final.rho[-1], final.delta[-1], final.gamma[-1]) == (
            self.FINAL_SAMPLES[kind])

    # Float RHS evaluations of the Cartesian frame (DOP853 only) on 4
    # unit-gain starts per kind over 20 s with capture off, and the final
    # sample (x, y, theta) of each start.
    CARTESIAN_STARTS = (PolarState(1.0, 0.5, -0.5), PolarState(2.0, -1.0, 1.5),
                        PolarState(1.5, 2.5, -2.0), PolarState(3.0, -2.0, 0.3))
    CARTESIAN_RUNS = {
        ControllerKind.GLOBA: (6_652, (
            (-2.522105647007196e-09, -1.5189281080235804e-18, 2.2326101743205516e-09),
            (-1.281391659909492e-08, 5.725267084144229e-17, -9.526894177090574e-09),
            (-4.755978691353499e-08, 4.996759852608088e-15, -2.0552471767986617e-07),
            (-2.9786813024386354e-08, -2.1952005592587801e-16, 4.116766576239803e-08))),
        ControllerKind.BARFLI: (7_589, (
            (-2.5258522818238846e-09, -1.4975583490398981e-18, 2.222731888427815e-09),
            (-1.2574644501363866e-08, 5.5248453655281575e-17, -9.471407585208464e-09),
            (-3.47860195657634e-08, 2.3742984547138307e-15, -1.6297923989297545e-07),
            (-3.717969167667003e-08, -1.8012246390395647e-16, 3.572361135552408e-08))),
        ControllerKind.BOLSA: (7_286, (
            (-2.6091541519567767e-09, -2.0672485389555052e-14, -8.638110149392114e-06),
            (-1.4447511824810713e-08, -4.3751915546637224e-13, 8.79450578787982e-05),
            (-1.0507467858656849e-07, -2.6960202689451906e-11, 0.0005821304953000508),
            (-3.0405674287189674e-08, -2.961632216389796e-12, 7.650712909063704e-05))),
        ControllerKind.BAGAL: (7_985, (
            (-2.621106209012324e-09, -2.2429669990082606e-14, -7.777794911410039e-06),
            (-1.515255605696762e-08, -4.575888464515372e-13, 9.003196228331039e-05),
            (-1.1121148101768743e-05, 2.2479163501643558e-08, -0.004353257808197243),
            (-1.0145079450832735e-07, -9.76346438884673e-12, 2.1135704361299308e-05))),
    }

    @pytest.mark.parametrize("kind", list(ControllerKind))
    def test_cartesian_step_selection_is_pinned(self, kind, rhs_calls):
        spec = ControllerSpec(kind, UNIT)
        cfg = SimConfig(dt=0.05, t_final=20.0, capture_radius=0.0, frame=Frame.CARTESIAN)
        finals = []
        for start in self.CARTESIAN_STARTS:
            traj = simulate(spec, start, cfg)
            assert traj.status is SimStatus.HORIZON_REACHED and traj.t[-1] == 20.0
            finals.append((traj.x[-1], traj.y[-1], traj.theta[-1]))
        assert (len(rhs_calls), tuple(finals)) == self.CARTESIAN_RUNS[kind]

    def test_tableau_is_scipys(self):
        # every nonzero coefficient of scipy's DOP853 tableau, exactly, and
        # no other: _Ai_j, _Bj (row 13 of A), _Ej (E5) and _Dk_j (D row k - 4)
        from scipy.integrate._ivp import dop853_coefficients as ref

        expected = {}
        for i, j in zip(*np.nonzero(ref.A)):
            expected[f"_B{j + 1}" if i == 12 else f"_A{i + 1}_{j + 1}"] = ref.A[i, j]
        expected.update((f"_E{j + 1}", ref.E5[j]) for j in np.flatnonzero(ref.E5))
        expected.update((f"_D{r + 4}_{j + 1}", ref.D[r, j]) for r, j in zip(*np.nonzero(ref.D)))
        names = {name for name in vars(sim) if re.fullmatch(r"_(A\d+_\d+|B\d+|E\d+|D\d_\d+)", name)}
        assert names == set(expected)
        assert all(getattr(sim, name) == value for name, value in expected.items())
        # scipy's 3rd-order error weights are B minus dop853.f's bhh
        assert (ref.E3[0], ref.E3[8], ref.E3[11]) == (
            sim._B1 - sim._BHH1, sim._B9 - sim._BHH2, sim._B12 - sim._BHH3)

    def test_global_error_against_a_tight_reference(self):
        # criterion 05's starts at rho0 in {1, 3} with each kind's first 4
        # angle pairs, 20 s with capture off, against scipy's DOP853 at
        # rtol 1e-13: the worst state error is 7.3e-10 (the Dormand-Prince
        # 5(4) pair used before reached 2.52e-9 at the same tolerances)
        from test_acceptance import CONVERGENCE_GRIDS, REFERENCE_GAINS

        cfg = SimConfig(dt=0.05, t_final=20.0, capture_radius=0.0)
        k1 = REFERENCE_GAINS.k1
        worst = 0.0
        for kind, pairs in CONVERGENCE_GRIDS.items():
            spec = ControllerSpec(kind, REFERENCE_GAINS, allow_unproven_gains=True)

            def f(t, y):
                rho, delta, gamma = y
                return (-k1 * rho * math.cos(gamma) ** 2, 0.5 * k1 * math.sin(2.0 * gamma),
                        -omega_tilde(spec, delta, gamma))

            for rho0, (d0, g0) in itertools.product((1.0, 3.0), pairs[:4]):
                traj = simulate(spec, PolarState(rho0, d0, g0), cfg)
                assert traj.status is SimStatus.HORIZON_REACHED and traj.note == ""
                ref = solve_ivp(f, (0.0, 20.0), [rho0, d0, g0], method="DOP853",
                                rtol=1e-13, atol=1e-15, t_eval=traj.t)
                assert ref.success
                err = np.max(np.abs(np.stack([traj.rho, traj.delta, traj.gamma]) - ref.y))
                worst = max(worst, float(err))
        assert worst < 2.5e-9

    def test_runs_are_deterministic(self):
        spec = ControllerSpec(ControllerKind.BAGAL, UNIT)
        cfg = SimConfig(dt=0.05, t_final=5.0)
        a = simulate(spec, PolarState(2.0, 1.0, -0.8), cfg)
        b = simulate(spec, PolarState(2.0, 1.0, -0.8), cfg)
        for name in ("t", "rho", "delta", "gamma", "v", "omega"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


class TestTermination:
    def test_capture(self):
        spec = ControllerSpec(ControllerKind.GLOBA, UNIT)
        cfg = SimConfig(dt=0.05, t_final=60.0, capture_radius=1e-3)
        traj = simulate(spec, PolarState(1.0, 0.5, -0.5), cfg)
        assert traj.status is SimStatus.CAPTURED
        assert traj.capture_time is not None
        assert traj.t[-1] == traj.capture_time
        final = traj.final_state()
        assert final.rho < 1e-3
        assert abs(final.delta) < 1e-3 and abs(final.gamma) < 1e-3
        assert len(traj) < int(round(60.0 / 0.05)) + 1

    def test_horizon(self):
        spec = ControllerSpec(ControllerKind.GLOBA, UNIT)
        cfg = SimConfig(dt=0.1, t_final=1.0, capture_radius=0.0)
        traj = simulate(spec, PolarState(5.0, 2.5, 2.5), cfg)
        assert traj.status is SimStatus.HORIZON_REACHED
        assert traj.capture_time is None
        assert traj.t[-1] == 1.0

    @pytest.mark.parametrize("integrator", list(IntegratorKind))
    @pytest.mark.parametrize("t_final, t_last", [(1.1, 0.8), (1.0, 0.8), (0.8, 0.8), (1.6, 1.6)])
    def test_horizon_is_the_last_grid_time_not_past_t_final(self, integrator, t_final, t_last):
        # dt = 0.4: round(t_final/dt) ran t_final = 1.1 on to 1.2000000000000002
        spec = ControllerSpec(ControllerKind.GLOBA, UNIT)
        cfg = SimConfig(dt=0.4, t_final=t_final, capture_radius=0.0, integrator=integrator)
        traj = simulate(spec, PolarState(1.0, 0.5, -0.5), cfg)
        assert traj.status is SimStatus.HORIZON_REACHED
        assert traj.t[-1] == t_last and traj.t[-1] <= t_final

    @pytest.mark.parametrize("t_final, dt, n", [(60.0, 0.05, 1200), (0.3, 0.1, 3), (0.7, 0.1, 7)])
    def test_horizon_keeps_a_multiple_of_dt_whose_quotient_rounds_low(self, t_final, dt, n):
        # 0.3/0.1 = 2.9999999999999996 and 0.7/0.1 = 6.999999999999999
        assert sim._interval_count(dt, t_final) == n

    def test_boundary_stop_when_started_against_the_wall(self):
        # from delta = pi - 1e-13 any resolvable step crosses the barrier,
        # so the step controller collapses below the step floor and reports a stop
        spec = ControllerSpec(ControllerKind.BARFLI, UNIT)
        cfg = SimConfig(dt=0.05, t_final=1.0)
        traj = simulate(spec, PolarState(1.0, math.pi - 1e-13, 0.1), cfg)
        assert traj.status is SimStatus.BOUNDARY_STOP
        assert traj.note == "step size 2.016e-41 below the step floor 1.110e-16 at t=0"
        assert traj.capture_time is None

    def test_fixed_step_leaving_the_domain_is_boundary_stop(self):
        # RK4 cannot follow the stiff gamma mode from this start: a stage
        # crosses the delta barrier; the run ends on the last valid sample
        spec = ControllerSpec(ControllerKind.BAGAL, UNIT)
        cfg = SimConfig(dt=0.05, t_final=5.0, integrator=IntegratorKind.RK4_FIXED)
        traj = simulate(spec, PolarState(1.0, math.pi - 0.05, 0.0), cfg)
        assert traj.status is SimStatus.BOUNDARY_STOP
        assert "left the domain" in traj.note
        assert traj.capture_time is None
        assert traj.t[-1] < 5.0
        assert np.all(np.abs(traj.delta) < math.pi)

    def test_cartesian_run_crossing_a_barrier_stops_before_post_processing(self):
        # RK4 carries the unwrapped gamma across -pi, which the wrapped
        # Cartesian feedback does not see; V is undefined on the samples
        # past the barrier, so they must not reach the post-processing
        spec = ControllerSpec(ControllerKind.BAGAL, UNIT)
        fn = CompositeLyapunovFn(Compositor.exp_product(), LyapunovFn.for_controller(spec))
        cfg = SimConfig(t_final=2.0, frame=Frame.CARTESIAN, integrator=IntegratorKind.RK4_FIXED)
        start = PolarState(1.9410805215530313, 2.795282282263783, -2.1194620870770216)
        traj = simulate(spec, start, cfg, lyapunov=fn)
        assert traj.status is SimStatus.BOUNDARY_STOP
        assert traj.note == ("rk4 unstable: h*|lambda| ~ 3.68 > 2.8 at t=0.05; "
                             "state left the domain S3 at t=0.1")
        assert traj.t[-1] == 0.05

    def test_unstable_fixed_step_run_is_not_reported_captured(self):
        # at dt = 1 RK4 is far outside its stability region: uncut, gamma
        # reaches -6.7e6 and the wrapped image is captured at t = 36; the
        # stability note fires on the step from t = 17, after the cut at
        # t = 1, so it names no kept part of the run and is dropped
        spec = ControllerSpec(ControllerKind.BAGAL, UNIT)
        cfg = SimConfig(dt=1.0, t_final=60.0, frame=Frame.CARTESIAN,
                        integrator=IntegratorKind.RK4_FIXED)
        traj = simulate(spec, PolarState(1.0, 3.0, 0.0), cfg)
        assert traj.status is SimStatus.BOUNDARY_STOP
        assert traj.capture_time is None
        assert traj.note == "state left the domain S3 at t=1"
        assert len(traj) == 1

    def test_polar_fixed_step_run_ends_at_its_first_sample_outside(self):
        # gamma is -933 at t = 0.05, long before a stage crosses the delta
        # barrier (t = 2.95); the first step's stages are already far into
        # the saturated part of the steering law, where they differ too
        # little for the stability estimate, which fires on the third step,
        # from t = 0.1: after the last kept sample, so it is not noted
        spec = ControllerSpec(ControllerKind.BAGAL, UNIT)
        cfg = SimConfig(dt=0.05, t_final=5.0, integrator=IntegratorKind.RK4_FIXED)
        traj = simulate(spec, PolarState(1.0, math.pi - 0.05, 0.0), cfg)
        assert traj.status is SimStatus.BOUNDARY_STOP
        assert traj.note == "state left the domain S3 at t=0.05"
        assert list(traj.t) == [0.0]

    def test_initial_state_outside_space_rejected(self):
        spec = ControllerSpec(ControllerKind.BARFLI, UNIT)
        with pytest.raises(DomainError, match="outside the open space"):
            simulate(spec, PolarState(1.0, math.pi, 0.0))
        spec = ControllerSpec(ControllerKind.BOLSA, UNIT)
        with pytest.raises(DomainError, match="outside the open space"):
            simulate(spec, PolarState(1.0, 0.0, -math.pi))


class TestStateAccessor:
    # GLOBA at these gains from (3, 2, -1.5) decays to rho ~ 1e-100 by its
    # capture at t = 27.15.  Integrated as rho itself, the absolute error left
    # rho at -6.61e-9 there (and down to -1.0e-8 with capture off), below
    # any rounding slack the samples could be written with
    DEEP_DECAY = ControllerSpec(ControllerKind.GLOBA, Gains(
        9.131091197638991, 0.20999528827318054, 0.04023654929931615, 0.14293948552702837))

    def test_simulate_writes_no_negative_distance(self):
        # the unit-gain GLOBA run used to end a few 1e-13 below 0 on 230 samples
        unit = ControllerSpec(ControllerKind.GLOBA, UNIT)
        for spec, start, radius, status in [
                (unit, PolarState(1.0, 0.5, -0.5), 0.0, SimStatus.HORIZON_REACHED),
                (self.DEEP_DECAY, PolarState(3.0, 2.0, -1.5), 2e-4, SimStatus.CAPTURED),
                (self.DEEP_DECAY, PolarState(3.0, 2.0, -1.5), 0.0, SimStatus.HORIZON_REACHED)]:
            fn = CompositeLyapunovFn(Compositor.sum_form(), LyapunovFn.for_controller(spec))
            traj = simulate(spec, start, SimConfig(capture_radius=radius), lyapunov=fn)
            assert traj.status is status and traj.rho.min() > 0.0
            assert [traj.state(i).rho for i in range(len(traj))] == traj.rho.tolist()
            assert check_kl_decay(traj, spec.space, lyapunov=fn).passed

    def test_any_negative_rho_raises(self):
        col = np.zeros(3)
        traj = Trajectory(t=np.array([0.0, 0.1, 0.2]), rho=np.array([1.0, 0.0, -1e-300]),
                          delta=col, gamma=col, x=col, y=col, theta=col, v=col, omega=col,
                          omega_tilde=col, lyapunov=col, status=SimStatus.HORIZON_REACHED,
                          frame=Frame.POLAR)
        assert traj.state(0).rho == 1.0 and traj.state(1).rho == 0.0
        with pytest.raises(ValueError, match="negative rho"):
            traj.state(2)


class TestStiffFallback:
    # From delta = pi - 0.05 the gamma mode of the delta-barrier laws has
    # d(gamma')/d(gamma) ~ -3.2e4 while delta barely moves: DP5 alone spent
    # 3.37 M right-hand-side evaluations on the 60 s BAGAL run
    BARRIER_START = PolarState(1.0, math.pi - 0.05, 0.0)

    def test_barrier_run_is_cheap(self, rhs_calls):
        spec = ControllerSpec(ControllerKind.BAGAL, UNIT)
        traj = simulate(spec, self.BARRIER_START, SimConfig(dt=0.05, t_final=60.0))
        assert traj.status is SimStatus.HORIZON_REACHED and len(traj) == 1201
        assert 0 < len(rhs_calls) <= 5000
        assert re.fullmatch(r"stiff: ode23s on t in \[[0-9.e-]+, 60\], \d+ steps, \d+ Jacobians",
                            traj.note)

    # Float RHS evaluations per run and the note of criterion 06's starts
    # over 5 s, as DOP853 with the ode23s fallback produced them.  Any
    # change to the steps DOP853 or ode23s takes moves these; a faster
    # Jacobian must leave them exact.
    STIFF_RUNS = {
        (ControllerKind.BARFLI, "delta"): (
            2_647, "stiff: ode23s on t in [0.000358592, 0.441483], 285 steps, 285 Jacobians"),
        (ControllerKind.BAGAL, "delta"): (
            557, "stiff: ode23s on t in [0.00127167, 5], 9 steps, 9 Jacobians"),
        (ControllerKind.BOLSA, "gamma"): (373, ""),
        (ControllerKind.BAGAL, "gamma"): (373, ""),
    }

    @pytest.mark.parametrize("kind, which", list(STIFF_RUNS))
    def test_stiff_step_selection_is_pinned(self, kind, which, rhs_calls):
        spec = ControllerSpec(kind, UNIT)
        cfg = SimConfig(dt=0.05, t_final=5.0)
        for sign in (1.0, -1.0):
            angle = sign * (math.pi - 0.05)
            start = PolarState(1.0, angle, 0.0) if which == "delta" else PolarState(1.0, 0.0, angle)
            rhs_calls.clear()
            note = simulate(spec, start, cfg).note
            assert (len(rhs_calls), note) == self.STIFF_RUNS[kind, which]

    # BARFLI's initial layer from here has |d(gamma')/d(gamma)| ~ 1.9e9, so its
    # first steps are far below 1e-9
    LAYER_START = PolarState(0.5, -(math.pi - 0.002), 1.0)
    LAYER_RUN = SimConfig(t_final=5.0, capture_radius=0.0)

    @pytest.mark.parametrize("kind, start, cfg, status, tol", [
        pytest.param(ControllerKind.BAGAL, BARRIER_START, SimConfig(dt=0.05, t_final=60.0),
                     SimStatus.HORIZON_REACHED, 1e-8, id="ControllerKind.BAGAL"),
        pytest.param(ControllerKind.BARFLI, BARRIER_START, SimConfig(dt=0.05, t_final=60.0),
                     SimStatus.CAPTURED, 1e-8, id="ControllerKind.BARFLI"),
        pytest.param(ControllerKind.BARFLI, LAYER_START, LAYER_RUN, SimStatus.HORIZON_REACHED,
                     1e-8, id="BARFLI-initial-layer"),
        # at rtol 1e-7 the run is 6.7e-7 off the reference
        pytest.param(ControllerKind.BARFLI, LAYER_START, dataclasses.replace(LAYER_RUN, rtol=1e-7),
                     SimStatus.HORIZON_REACHED, 1e-6, id="BARFLI-initial-layer-rtol-1e-7"),
    ])
    def test_barrier_runs_match_radau(self, kind, start, cfg, status, tol):
        spec = ControllerSpec(kind, UNIT)
        traj = simulate(spec, start, cfg)
        assert traj.status is status
        assert re.fullmatch(r"stiff: ode23s on t in \[[^]]+\], \d+ steps, \d+ Jacobians", traj.note)

        def f(t, y):
            rho, delta, gamma = y
            return (-rho * math.cos(gamma) ** 2, 0.5 * math.sin(2.0 * gamma),
                    -omega_tilde(spec, delta, gamma))

        ref = solve_ivp(f, (0.0, traj.t[-1]), [start.rho, start.delta, start.gamma],
                        method="Radau", rtol=1e-12, atol=1e-13, t_eval=traj.t)
        assert ref.success
        assert np.max(np.abs(np.stack([traj.rho, traj.delta, traj.gamma]) - ref.y)) < tol

    def test_fallback_hands_back_to_dop853(self):
        # BARFLI leaves the stiff region within half a second and captures
        spec = ControllerSpec(ControllerKind.BARFLI, UNIT)
        traj = simulate(spec, self.BARRIER_START, SimConfig(dt=0.05, t_final=60.0))
        assert traj.status is SimStatus.CAPTURED
        (stretch,) = traj.note.split("; ")
        end = float(re.match(r"stiff: ode23s on t in \[[^,]+, ([^\]]+)\]", stretch).group(1))
        assert end < 1.0

    def test_reference_runs_never_switch(self):
        # criterion 05's 64 capture runs and criterion 07's polar runs are
        # not stiff: their trajectories must stay DOP853's
        from test_acceptance import CONVERGENCE_GRIDS, REFERENCE_GAINS

        cfg = SimConfig(dt=0.05, t_final=60.0, capture_radius=1e-3)
        for kind, pairs in CONVERGENCE_GRIDS.items():
            spec = ControllerSpec(kind, REFERENCE_GAINS, allow_unproven_gains=True)
            for rho0, (d0, g0) in itertools.product((1.0, 3.0), pairs):
                assert simulate(spec, PolarState(rho0, d0, g0), cfg).note == ""
        rng = np.random.default_rng(107)
        cfg = SimConfig(dt=0.1, t_final=10.0, capture_radius=0.0)
        for kind in ControllerKind:
            spec = ControllerSpec(kind, UNIT)
            count = 0
            while count < 50:
                ic = PolarState(float(rng.uniform(0.5, 3.0)), float(rng.uniform(-2.2, 2.2)),
                                float(rng.uniform(-2.2, 2.2)))
                if not spec.space.contains(ic):
                    continue
                count += 1
                assert simulate(spec, ic, cfg).note == ""

    @pytest.mark.parametrize("kind", list(ControllerKind))
    def test_jacobian_matches_central_differences(self, kind):
        spec = ControllerSpec(kind, Gains(1.3, 0.7, 1.1, 0.9))
        law = steering_law(FLOAT_MATH, kind, spec.gains)
        field = sim._polar_field(spec.gains.k1, law)
        jac = sim._polar_jacobian(spec.gains.k1, steering_law(COMPLEX_MATH, kind, spec.gains))
        rng = np.random.default_rng(5)
        step = 1e-6
        for _ in range(300):
            y = (float(rng.uniform(0.1, 5.0)), float(rng.uniform(-3.0, 3.0)),
                 float(rng.uniform(-3.0, 3.0)))
            full = np.zeros((3, 3))
            for k in range(3):
                up, down = list(y), list(y)
                up[k] += step
                down[k] -= step
                full[:, k] = (np.array(field(up)) - np.array(field(down))) / (2 * step)
            j02, j12, j21, j22 = jac(y)
            expected = np.array([[0.0, 0.0, j02], [0.0, 0.0, j12], [0.0, j21, j22]])
            assert np.all(np.abs(full - expected) <= 1e-6 * np.maximum(1.0, np.abs(expected)))

    @pytest.mark.parametrize("kind", list(ControllerKind))
    def test_jacobian_matches_the_array_complex_step(self, kind):
        # The scalar cmath partials against the same complex step on numpy
        # arrays: random points, points with |z| < 1e-8 (z = 0 exactly at
        # delta = gamma = 0) and points 1e-6 from each barrier of the kind
        gains = Gains(1.3, 0.7, 1.1, 0.9)
        spec = ControllerSpec(kind, gains, allow_unproven_gains=True)
        jac = sim._polar_jacobian(gains.k1, steering_law(COMPLEX_MATH, kind, gains))
        rng = np.random.default_rng(11)
        points = [(float(rng.uniform(0.1, 5.0)), float(rng.uniform(-3.0, 3.0)),
                   float(rng.uniform(-3.0, 3.0))) for _ in range(500)]
        shaped = kind in (ControllerKind.BARFLI, ControllerKind.BAGAL)
        for delta, offset in itertools.product((0.0, 0.4, -1.2, 2.9), (0.0, 1e-9, -5e-9, 1e-12)):
            Delta = 2.0 * math.tan(delta / 2.0) if shaped else delta
            points.append((1.0, delta, offset - 0.5 * math.atan(2.0 * gains.k2 * Delta)))
        near = math.pi - 1e-6
        for edge, other in itertools.product((near, -near), (0.0, 0.7, -2.0)):
            if shaped:
                points.append((1.0, edge, other))
            if kind in (ControllerKind.BOLSA, ControllerKind.BAGAL):
                points.append((1.0, other, edge))
        for y in points:
            _, delta, gamma = y
            entries = jac(y)
            assert all(type(v) is float and math.isfinite(v) for v in entries)
            ref = omega_tilde(spec, delta + np.array([1e-30j, 0.0]),
                              gamma + np.array([0.0, 1e-30j])).imag * 1e30
            got = -np.array(entries[2:])
            assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref))), y

    @staticmethod
    def toward_wall(y):
        """gamma' = -1e4*(gamma - delta) on a slow drift delta' = 1 toward a wall at delta = 0.5."""
        if y[1] >= 0.5:
            raise DomainError("wall")
        return (0.0, 1.0, -1e4 * (y[2] - y[1]))

    def test_stiff_stretch_keeps_retries_and_the_step_floor(self):
        # DOP853 goes stiff, ode23s follows the slow manifold exactly (the
        # problem is linear), and its stages at the wall shrink the step
        # below the step floor, 10 ulps of t
        def jac(y):
            return (0.0, 0.0, 1e4, -1e4)

        cfg = SimConfig(dt=0.01, t_final=1.0, capture_radius=0.0)
        times, ys, status, _, notes, stop = sim._run(self.toward_wall, (1.0, 0.0, 0.0), cfg,
                                                     jac=jac)
        assert status is SimStatus.BOUNDARY_STOP
        assert stop == "step size 1.054e-15 below the step floor 1.110e-15 at t=0.5"
        assert len(notes) == 1 and notes[0][1].startswith("stiff: ode23s on t in [")
        assert times[-1] == pytest.approx(0.49)
        exact = times - 1e-4 * (1.0 - np.exp(-1e4 * times))
        assert np.max(np.abs(ys[:, 2] - exact)) < 1e-9
        assert np.max(np.abs(ys[:, 1] - times)) < 1e-12
        assert np.all(ys[:, 0] == 1.0)

    @pytest.mark.parametrize("true_jacobian", [True, False])
    def test_jacobian_decides_the_switch(self, true_jacobian):
        # The cheap estimate of h*|lambda| is positive on the field toward the
        # wall; the Jacobian at the new state confirms it (h*rho(J) > 6.1) and
        # is the stretch's first, so no Jacobian is taken twice.  A Jacobian of
        # zeros never confirms: DOP853 keeps every step, probing each one.
        calls = []

        def jac(y):
            calls.append(y)
            return (0.0, 0.0, 1e4, -1e4) if true_jacobian else (0.0,) * 4

        cfg = SimConfig(dt=0.01, t_final=1.0, capture_radius=0.0)
        _, _, status, _, notes, stop = sim._run(self.toward_wall, (1.0, 0.0, 0.0), cfg, jac=jac)
        assert status is SimStatus.BOUNDARY_STOP
        assert stop.endswith("below the step floor 1.110e-15 at t=0.5")
        if true_jacobian:
            ((_, note),) = notes
            n_steps, n_jac = map(int, re.fullmatch(
                r"stiff: ode23s on t in \[[^]]+\], (\d+) steps, (\d+) Jacobians", note).groups())
            assert n_jac == n_steps == len(calls)
        else:
            assert notes == [] and len(calls) > 100

    def test_stiff_spectral_radius_of_complex_eigenvalues(self):
        # delta'' = -1e8*delta - 1e3*delta' as (delta, gamma = delta'): the
        # eigenvalues -500 +- 9987i make disc < 0 on every Jacobian, so ode23s
        # takes the spectral radius as sqrt(|J12*J21|); a radius too small
        # would hand the run back to DOP853 and add a second note
        def f(y):
            return (0.0, y[2], -1e8 * y[1] - 1e3 * y[2])

        def jac(y):
            return (0.0, 1.0, -1e8, -1e3)

        cfg = SimConfig(dt=0.01, t_final=1.0, capture_radius=0.0)
        times, ys, status, _, notes, _ = sim._run(f, (1.0, 1e-3, 0.0), cfg, jac=jac)
        assert status is SimStatus.HORIZON_REACHED and times[-1] == 1.0
        assert [note for _, note in notes] == [
            "stiff: ode23s on t in [0.079141, 1], 7 steps, 7 Jacobians"]
        a = np.array([[0.0, 1.0], [-1e8, -1e3]])
        exact = np.array([expm(a * t) @ (1e-3, 0.0) for t in times])
        assert np.max(np.abs(ys[:, 1] - exact[:, 0])) < 1e-14
        assert np.max(np.abs(ys[:, 2] - exact[:, 1])) < 1e-9
        assert np.all(ys[:, 0] == 1.0)

    # Step-control branches that criterion 06 and the workloads never run,
    # pinned on loose tolerances (rtol 1e-4, atol 1e-6) near the barriers
    LOOSE = SimConfig(dt=0.05, t_final=5.0, rtol=1e-4, atol=1e-6)

    def test_ode23s_rejects_steps(self, rhs_calls):
        # ode23s rejects 6 trial steps in a row, at t = 1.46, on this run
        spec = ControllerSpec(ControllerKind.BARFLI, UNIT)
        traj = simulate(spec, self.BARRIER_START, self.LOOSE)
        assert traj.status is SimStatus.HORIZON_REACHED and len(rhs_calls) == 243
        assert traj.note == "stiff: ode23s on t in [0.000185273, 4.28721], 23 steps, 23 Jacobians"
        assert (traj.rho[-1], traj.delta[-1], traj.gamma[-1]) == (
            0.09731064385899665, 0.6023207951968512, -0.7044554255466748)

    def test_dop853_retries_a_stage_outside_the_space(self, rhs_calls):
        # a DOP853 stage crosses the barrier three times and the step is retried
        # at h/4 each time; the run still reaches its horizon
        spec = ControllerSpec(ControllerKind.BAGAL, UNIT)
        start = PolarState(1.0, math.pi - 0.05, -(math.pi - 0.05))
        traj = simulate(spec, start, self.LOOSE)
        assert traj.status is SimStatus.HORIZON_REACHED and len(rhs_calls) == 398
        assert traj.note == "stiff: ode23s on t in [0.173046, 5], 9 steps, 9 Jacobians"
        assert (traj.rho[-1], traj.delta[-1], traj.gamma[-1]) == (
            0.8424425412055052, 3.1041559377439216, -1.570783210179188)

    @pytest.mark.parametrize("delta0, stop", [
        (0.5 - 1e-12, "step size 1.224e-17 below the step floor 2.220e-17 at t=9.99907e-13"),
        (0.5 - 1e-5, "step size 8.494e-18 below the step floor 2.220e-17 at t=1e-05"),
    ])
    def test_initial_step_probe_hands_its_retries_to_the_step_loop(self, delta0, stop):
        # delta' = 1 toward a wall at delta = 0.5: from 1e-12 below it HINIT's
        # probe crosses the wall and the step loop starts from the probe's h;
        # from 1e-5 below it the first steps are HINIT's.  Either way the
        # step loop's retries at h/4 carry the run up to the wall, where the
        # step floor (10 ulps of dt = 0.01 while t < dt) ends it
        def f(y):
            if y[1] >= 0.5:
                raise DomainError("wall")
            return (0.0, 1.0, 0.0)

        cfg = SimConfig(dt=0.01, t_final=1.0, capture_radius=0.0)
        times, ys, status, _, notes, got = sim._run(f, (1.0, delta0, 0.0), cfg)
        assert status is SimStatus.BOUNDARY_STOP and (got, notes) == (stop, [])
        assert times.tolist() == [0.0] and ys.tolist() == [[1.0, delta0, 0.0]]

    @pytest.mark.parametrize("frame", list(Frame))
    @pytest.mark.parametrize("k4, error", [
        (1e150, "(34, 'Numerical result out of range')"),
        (1e300, "float division by zero"),
    ])
    def test_initial_step_overflow_is_a_boundary_stop(self, frame, k4, error):
        # HINIT's (f/s)**2 overflows at k4 = 1e150 (OverflowError out of
        # simulate); at k4 = 1e300 f/s is inf, the probe step 0.01*|y|/|f|
        # is 0, and der2 divided by it (ZeroDivisionError)
        spec = ControllerSpec(ControllerKind.GLOBA, Gains(1.0, 1.0, 1.0, k4))
        traj = simulate(spec, PolarState(1.0, 0.5, -0.5), SimConfig(t_final=1.0, frame=frame))
        assert traj.status is SimStatus.BOUNDARY_STOP and traj.frame is frame
        assert traj.note == f"initial-step estimate overflowed at t=0: {error}"
        assert traj.t.tolist() == [0.0] and traj.final_state() == PolarState(1.0, 0.5, -0.5)


class TestRk4StabilityNote:
    def test_note_on_unstable_run(self):
        # the backstepping damping k4 = 100 puts a mode at -100: h*|lambda|
        # is 5 at dt = 0.05, where RK4 grows the error 14-fold per step,
        # while nothing leaves GLOBA's space
        spec = ControllerSpec(ControllerKind.GLOBA, Gains(1.0, 1.0, 1.0, 100.0))
        cfg = SimConfig(dt=0.05, t_final=0.25, integrator=IntegratorKind.RK4_FIXED)
        traj = simulate(spec, PolarState(1.0, 0.5, 0.5), cfg)
        assert traj.status is SimStatus.HORIZON_REACHED
        assert traj.note == "rk4 unstable: h*|lambda| ~ 5 > 2.8 at t=0"

    def test_diverged_run_post_processes_without_overflow(self):
        # the same run over 5 s: gamma reaches 4.5e113, and psi's small-z
        # series must not square the huge entries the array path discards
        spec = ControllerSpec(ControllerKind.GLOBA, Gains(1.0, 1.0, 1.0, 100.0))
        cfg = SimConfig(dt=0.05, t_final=5.0, integrator=IntegratorKind.RK4_FIXED)
        traj = simulate(spec, PolarState(1.0, 0.5, 0.5), cfg)
        assert traj.status is SimStatus.HORIZON_REACHED and len(traj) == 101
        assert traj.note == "rk4 unstable: h*|lambda| ~ 5 > 2.8 at t=0"
        assert abs(traj.gamma[-1]) > 1e113
        assert np.all(np.isfinite(traj.omega_tilde))

    @pytest.mark.parametrize("frame, t_final, t_last, stop", [
        (Frame.POLAR, 400.0, 269.0, "rk4 step from t=269 left the domain: math domain error"),
        (Frame.CARTESIAN, 2000.0, 723.0,
         "rk4 step from t=723 left the domain: the state overflowed"),
    ])
    def test_diverging_run_ends_as_boundary_stop(self, frame, t_final, t_last, stop):
        # gamma (polar) or the position (Cartesian) grows until it overflows:
        # math.cos(inf) or wrap_float(nan) raised ValueError out of the run,
        # and a Cartesian state of infinities was recorded before that
        spec = ControllerSpec(ControllerKind.GLOBA, Gains(5.0, 5.0, 5.0, 5.0))
        cfg = SimConfig(dt=1.0, t_final=t_final, frame=frame,
                        integrator=IntegratorKind.RK4_FIXED)
        traj = simulate(spec, PolarState(1.0, 2.0, 2.0), cfg)
        assert traj.status is SimStatus.BOUNDARY_STOP and traj.t[-1] == t_last
        assert traj.note.startswith("rk4 unstable: ") and traj.note.endswith("; " + stop)
        for name in Trajectory._columns[:-1]:  # all but the lyapunov column, NaN here
            assert np.all(np.isfinite(getattr(traj, name))), name

    def test_no_note_on_stable_run(self):
        spec = ControllerSpec(ControllerKind.GLOBA, Gains(1.0, 1.0, 1.0, 100.0))
        cfg = SimConfig(dt=0.02, t_final=5.0, integrator=IntegratorKind.RK4_FIXED)
        traj = simulate(spec, PolarState(1.0, 0.5, 0.5), cfg)
        assert traj.status is SimStatus.HORIZON_REACHED and traj.note == ""
        for kind in ControllerKind:
            spec = ControllerSpec(kind, UNIT)
            traj = simulate(spec, PolarState(2.0, 1.2, -0.7), SimConfig(
                dt=0.05, t_final=20.0, integrator=IntegratorKind.RK4_FIXED))
            assert traj.note == ""


class TestFrames:
    def test_frames_agree_while_away_from_origin(self):
        spec = ControllerSpec(ControllerKind.BOLSA, UNIT)
        x0 = PolarState(2.0, 1.0, -0.5)
        polar_cfg = SimConfig(dt=0.05, t_final=8.0, capture_radius=0.0)
        cart_cfg = SimConfig(dt=0.05, t_final=8.0, capture_radius=0.0,
                             frame=Frame.CARTESIAN)
        a = simulate(spec, x0, polar_cfg)
        b = simulate(spec, x0, cart_cfg)
        mask = a.rho > 1e-4
        err = max(
            np.max(np.abs(a.rho[mask] - b.rho[mask])),
            np.max(np.abs(a.delta[mask] - b.delta[mask])),
            np.max(np.abs(a.gamma[mask] - b.gamma[mask])),
        )
        assert err < 1e-6

    def test_cartesian_ic_accepted_by_polar_run(self):
        spec = ControllerSpec(ControllerKind.GLOBA, UNIT)
        cart = CartesianState(-2.0, 0.0, 0.0)
        traj = simulate(spec, cart, SimConfig(dt=0.05, t_final=1.0))
        assert traj.rho[0] == pytest.approx(2.0)
        assert traj.frame is Frame.POLAR

    def test_cartesian_columns_consistent(self):
        spec = ControllerSpec(ControllerKind.GLOBA, UNIT)
        traj = simulate(spec, PolarState(2.0, 1.0, 0.5),
                        SimConfig(dt=0.1, t_final=3.0, capture_radius=0.0))
        # x = -rho cos(delta), y = -rho sin(delta), theta = delta - gamma
        assert np.allclose(traj.x, -traj.rho * np.cos(traj.delta), atol=1e-12)
        assert np.allclose(traj.y, -traj.rho * np.sin(traj.delta), atol=1e-12)
        assert np.allclose(traj.theta, traj.delta - traj.gamma, atol=1e-12)
        for i, cart in enumerate(zip(traj.x, traj.y, traj.theta)):
            back = cart_to_polar(CartesianState(*map(float, cart)))
            assert back.rho == pytest.approx(traj.state(i).rho, abs=1e-12)


    def test_cartesian_start_with_a_wound_heading(self):
        # theta0 = 0.2 + 2*pi: the unwrapped gamma column starts at the
        # start's own (wrapped) gamma and follows the polar-frame run
        spec = ControllerSpec(ControllerKind.BOLSA, UNIT)
        fn = CompositeLyapunovFn(Compositor.sum_form(), LyapunovFn.for_controller(spec))
        start = CartesianState(-2.0, 0.5, 0.2 + 2.0 * math.pi)
        cart = simulate(spec, start, SimConfig(t_final=10.0, frame=Frame.CARTESIAN), lyapunov=fn)
        polar = simulate(spec, start, SimConfig(t_final=10.0), lyapunov=fn)
        assert cart.status is SimStatus.HORIZON_REACHED
        assert cart.gamma[0] == cart_to_polar(start).gamma
        assert np.max(np.abs(cart.gamma - polar.gamma)) < 1e-8


class TestSampling:
    """A capture run is the capture-off run cut right after its first sample in the box."""

    @staticmethod
    def check_cut(spec, start, cfg, lyapunov=None) -> bool:
        """Compare the run at cfg with its capture-off twin; True when it captured."""
        on = simulate(spec, start, cfg, lyapunov=lyapunov)
        off = simulate(spec, start, dataclasses.replace(cfg, capture_radius=0.0),
                       lyapunov=lyapunov)
        for traj in (on, off):
            assert np.array_equal(traj.t, np.arange(len(traj)) * cfg.dt)
        # the box test of the run's own frame: the integrated polar state,
        # or the wrapped polar image of the integrated pose
        if cfg.frame is Frame.POLAR:
            rho, delta, gamma = off.rho, off.delta, off.gamma
        else:
            rho, delta, gamma = polar_image(off.x, off.y, off.theta)
        r = cfg.capture_radius
        inside = (rho < r) & (np.abs(delta) < r) & (np.abs(gamma) < r)
        inside[0] = False  # the start is not tested
        n = int(np.argmax(inside)) + 1 if inside.any() else len(off)
        for name in ("t",) + Trajectory._columns:
            assert np.array_equal(getattr(on, name), getattr(off, name)[:n], equal_nan=True), name
        if n == len(off):
            assert (on.status, on.capture_time, on.note) == (off.status, None, off.note)
            return False
        assert on.status is SimStatus.CAPTURED and on.capture_time == off.t[n - 1]
        return True

    @pytest.mark.parametrize("kind", list(ControllerKind))
    @pytest.mark.parametrize("frame", list(Frame))
    @pytest.mark.parametrize("integrator", list(IntegratorKind))
    def test_capture_cuts_the_capture_off_run(self, kind, frame, integrator):
        spec = ControllerSpec(kind, UNIT)
        fn = CompositeLyapunovFn(Compositor.sum_form(), LyapunovFn.for_controller(spec))
        cfg = SimConfig(dt=0.05, t_final=30.0, capture_radius=1e-2, frame=frame,
                        integrator=integrator)
        for start in (PolarState(1.0, 0.5, -0.5), PolarState(2.0, -1.0, 1.5)):
            assert self.check_cut(spec, start, cfg, fn)

    @pytest.mark.parametrize("radius, captured", [(1e-3, False), (3.1, True)])
    def test_capture_in_a_stiff_stretch(self, radius, captured):
        # the BAGAL barrier run spends all but its first steps in ode23s; a
        # box of radius 3.1 holds its first sample, one of 1e-3 none
        spec = ControllerSpec(ControllerKind.BAGAL, UNIT)
        cfg = SimConfig(dt=0.05, t_final=60.0, capture_radius=radius)
        start = PolarState(1.0, math.pi - 0.05, 0.0)
        assert self.check_cut(spec, start, cfg) is captured
        traj = simulate(spec, start, cfg)
        assert traj.note.startswith("stiff: ode23s on t in [")
        assert len(traj) == (2 if captured else 1201)


def _angles(bounded):
    if bounded:
        return st.floats(-math.pi, math.pi, exclude_min=True, exclude_max=True)
    return st.floats(-2.0 * math.pi, 2.0 * math.pi)


@pytest.mark.parametrize("kind", list(ControllerKind))
@pytest.mark.parametrize("frame", list(Frame))
@pytest.mark.parametrize("integrator", list(IntegratorKind))
def test_runs_from_inside_the_space_stay_inside(kind, frame, integrator):
    # simulate returns, never raises mid-run, and every sample lies in the
    # controller's space (a run that leaves it ends as a boundary stop)
    spec = ControllerSpec(kind, UNIT)
    fn = CompositeLyapunovFn(Compositor.exp_product(), LyapunovFn.for_controller(spec))

    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(rho=st.floats(0.01, 10.0), delta=_angles(spec.space.delta_bounded),
           gamma=_angles(spec.space.gamma_bounded), t_final=st.floats(0.05, 2.0))
    def check(rho, delta, gamma, t_final):
        cfg = SimConfig(t_final=t_final, frame=frame, integrator=integrator)
        traj = simulate(spec, PolarState(rho, delta, gamma), cfg, lyapunov=fn)
        assert np.all(spec.space.contains_angles(traj.delta, traj.gamma))

    check()


def _log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


@pytest.mark.parametrize("kind", list(ControllerKind))
@pytest.mark.parametrize("integrator", list(IntegratorKind))
def test_polar_runs_end_with_a_status_whatever_the_inputs(kind, integrator):
    # gains over twelve decades, rho0 over nine and delta or gamma 1e-12 to
    # 1e-1 inside +-pi (a barrier wherever the space bounds that angle):
    # simulate returns, the state stays finite, rho never goes negative and
    # a boundary stop says why
    @settings(derandomize=True, deadline=None, max_examples=20, database=None)
    @given(gains=st.tuples(*[_log_uniform(1e-6, 1e6)] * 4), rho=_log_uniform(1e-6, 1e3),
           angle=st.floats(-3.0, 3.0), wall=st.sampled_from(("delta", "gamma")),
           gap=_log_uniform(1e-12, 1e-1), sign=st.sampled_from((1.0, -1.0)))
    def check(gains, rho, angle, wall, gap, sign):
        spec = ControllerSpec(kind, Gains(*gains), allow_unproven_gains=True)
        near = sign * (math.pi - gap)
        start = PolarState(rho, near, angle) if wall == "delta" else PolarState(rho, angle, near)
        traj = simulate(spec, start, SimConfig(t_final=5.0, integrator=integrator))
        for column in (traj.rho, traj.delta, traj.gamma, traj.x, traj.y, traj.theta):
            assert np.all(np.isfinite(column))
        assert np.all(traj.rho >= 0.0)
        assert traj.status is not SimStatus.BOUNDARY_STOP or traj.note

    check()


class TestLyapunovColumn:
    def test_values_match_manual_evaluation_and_decrease(self):
        spec = ControllerSpec(ControllerKind.GLOBA, UNIT)
        fn = CompositeLyapunovFn(Compositor.sum_form(), LyapunovFn.for_controller(spec))
        traj = simulate(spec, PolarState(2.0, 1.0, -1.0),
                        SimConfig(dt=0.05, t_final=10.0), lyapunov=fn)
        for i in (0, len(traj) // 2, len(traj) - 1):
            assert traj.lyapunov[i] == fn.value(
                float(traj.rho[i]), float(traj.delta[i]), float(traj.gamma[i]))
        increases = np.diff(traj.lyapunov)
        assert np.max(increases) <= 1e-8

    @pytest.mark.parametrize("frame", list(Frame))
    @pytest.mark.parametrize("integrator", list(IntegratorKind))
    def test_columns_match_per_sample_reference(self, frame, integrator):
        # whole-array post-processing against the per-sample float path:
        # numpy's sin/cos/tan/exp may differ from libm's by an ulp
        def close(a, b):
            return abs(a - b) <= 1e-13 * max(1.0, abs(b))

        def inputs(spec, state):
            # (v, omega, omega_tilde) of the feedback, one float state at a time
            k1 = spec.gains.k1
            tilde = omega_tilde(spec, state.delta, state.gamma)
            return (k1 * state.rho * math.cos(state.gamma),
                    0.5 * k1 * math.sin(2.0 * state.gamma) + tilde, tilde)

        cfg = SimConfig(dt=0.05, t_final=8.0, frame=frame, integrator=integrator)
        for kind, comp in ((ControllerKind.GLOBA, Compositor.sum_form()),
                           (ControllerKind.BARFLI, Compositor.log_sum()),
                           (ControllerKind.BAGAL, Compositor.exp_product())):
            spec = ControllerSpec(kind, UNIT)
            fn = CompositeLyapunovFn(comp, LyapunovFn.for_controller(spec))
            traj = simulate(spec, PolarState(2.0, 1.2, -0.7), cfg, lyapunov=fn)
            for i in range(len(traj)):
                if frame is Frame.POLAR:
                    state = PolarState(max(float(traj.rho[i]), 0.0), float(traj.delta[i]),
                                       float(traj.gamma[i]))
                else:
                    state = cart_to_polar(CartesianState(
                        float(traj.x[i]), float(traj.y[i]), float(traj.theta[i])))
                v, omega, tilde = inputs(spec, state)
                value = fn.value(float(traj.rho[i]), float(traj.delta[i]), float(traj.gamma[i]))
                assert close(traj.v[i], v)
                assert close(traj.omega[i], omega)
                assert close(traj.omega_tilde[i], tilde)
                assert close(traj.lyapunov[i], value)

    def test_overflowing_value_is_inf(self):
        # the exponential merge overflows on the first two samples, on the
        # second only in the final product; as with floats, the column holds
        # inf and no overflow warning is raised
        spec = ControllerSpec(ControllerKind.BOLSA, UNIT)
        fn = CompositeLyapunovFn(Compositor.exp_product(), LyapunovFn.for_controller(spec))
        x0 = PolarState(1.4012611272853541, -0.03190936426466173, -2.5174776835150827)
        traj = simulate(spec, x0, SimConfig(dt=0.05, t_final=1.0), lyapunov=fn)
        assert traj.lyapunov[0] == traj.lyapunov[1] == math.inf
        assert np.all(np.isfinite(traj.lyapunov[2:]))

    def test_without_attachment_column_is_nan(self):
        spec = ControllerSpec(ControllerKind.GLOBA, UNIT)
        traj = simulate(spec, PolarState(1.0, 0.0, 0.0), SimConfig(dt=0.1, t_final=1.0))
        assert np.all(np.isnan(traj.lyapunov))


class TestCsv:
    HEADER = "t,x,y,theta,rho,delta,gamma,v,omega,V"

    def run(self):
        spec = ControllerSpec(ControllerKind.GLOBA, UNIT)
        fn = CompositeLyapunovFn(Compositor.sum_form(), LyapunovFn.for_controller(spec))
        return simulate(spec, PolarState(1.5, 0.7, -0.2),
                        SimConfig(dt=0.1, t_final=2.0), lyapunov=fn)

    def test_header_and_roundtrip(self, tmp_path):
        traj = self.run()
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == len(traj) + 1
        row = lines[4].split(",")  # data row for sample index 3
        assert len(row) == 10
        # repr round-trips doubles exactly
        assert float(row[0]) == traj.t[3]
        assert float(row[4]) == traj.rho[3]
        assert float(row[9]) == traj.lyapunov[3]

    def test_byte_stability(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.run().to_csv(a)
        self.run().to_csv(b)
        assert a.read_bytes() == b.read_bytes()


    def test_writer_frozen_bytes(self, tmp_path):
        path = tmp_path / "row.csv"
        sim.write_csv(path, ("none", "int", "str", "float", "inf", "negzero"),
                      [(None, 7, "boundary_stop", 0.1, math.inf, -0.0)])
        assert path.read_bytes() == b"none,int,str,float,inf,negzero\n,7,boundary_stop,0.1,inf,-0.0\n"


class TestUnsteered:
    def test_gamma_drifts_to_quarter_turn(self):
        cfg = SimConfig(dt=0.05, t_final=30.0, capture_radius=0.0)
        traj = simulate_unsteered(1.0, PolarState(1.0, 0.0, 0.3), cfg)
        assert abs(traj.gamma[-1] - math.pi / 2) < 1e-4
        # steering off freezes heading, so both angles drift together
        drift = (traj.delta - traj.delta[0]) - (traj.gamma - traj.gamma[0])
        assert np.max(np.abs(drift)) < 1e-9

    def test_negative_start_drifts_to_negative_quarter_turn(self):
        cfg = SimConfig(dt=0.05, t_final=30.0, capture_radius=0.0)
        traj = simulate_unsteered(1.0, PolarState(1.0, 0.5, -1.2), cfg)
        assert abs(traj.gamma[-1] + math.pi / 2) < 1e-4

    def test_rho_monotone_with_positive_limit(self):
        cfg = SimConfig(dt=0.05, t_final=40.0, capture_radius=0.0)
        traj = simulate_unsteered(1.0, PolarState(1.0, 0.0, 0.3), cfg)
        assert np.all(np.diff(traj.rho) <= 0.0)
        assert traj.rho[-1] > 0.0
        # the decay rate dies with cos(gamma)^2, leaving a positive limit
        assert traj.rho[-1] - traj.rho[-2] > -1e-10

    def test_zero_angle_is_exact_exponential(self):
        cfg = SimConfig(dt=0.1, t_final=3.0, capture_radius=0.0)
        traj = simulate_unsteered(2.0, PolarState(1.0, 0.4, 0.0), cfg)
        expected = np.exp(-2.0 * traj.t)
        assert np.max(np.abs(traj.rho - expected)) < 1e-9
        assert np.all(traj.delta == 0.4)
        assert np.all(traj.omega == 0.0)

    def test_stiff_run_takes_the_ode23s_path(self, monkeypatch):
        # at k1 = 1e4 the gamma mode decays at rate k1 once gamma nears pi/2;
        # DOP853 alone spent 376,987 field evaluations at its stability limit
        calls = []
        polar_field = sim._polar_field

        def counting_field(k1, law):
            f = polar_field(k1, law)

            def counted(y):
                calls.append(1)
                return f(y)

            return counted

        monkeypatch.setattr(sim, "_polar_field", counting_field)
        k1, rho0, delta0, gamma0 = 1e4, 1.0, 0.3, 0.3
        cfg = SimConfig(dt=0.05, t_final=20.0, capture_radius=0.0)
        traj = simulate_unsteered(k1, PolarState(rho0, delta0, gamma0), cfg)
        assert traj.status is SimStatus.HORIZON_REACHED and len(traj) == 401
        assert re.fullmatch(r"stiff: ode23s on t in \[[^]]+\], \d+ steps, \d+ Jacobians",
                            traj.note)
        assert len(calls) <= 1_000
        # closed form of gamma' = (k1/2)*sin(2*gamma), with T = tan(gamma0): tan(gamma)
        # = T*exp(k1*t), delta - gamma is constant, and rho' = -k1*rho*cos(gamma)^2;
        # tolerances are 10x the worst errors measured (gamma 1.6e-15, rho 6.0e-12),
        # and a few ulps for delta - gamma, which came out exact
        T, decay = math.tan(gamma0), np.exp(-k1 * traj.t)
        assert np.max(np.abs(traj.gamma - np.arctan2(T, decay))) <= 1.6e-14
        assert np.max(np.abs((traj.delta - traj.gamma) - (delta0 - gamma0))) <= 1e-15
        rho = rho0 * np.sqrt((decay * decay + T * T) / (1.0 + T * T))
        assert np.max(np.abs(traj.rho - rho)) <= 6e-11

    def test_rejects_bad_gain(self):
        with pytest.raises(ValueError, match="k1"):
            simulate_unsteered(0.0, PolarState(1.0, 0.0, 0.0))

    def test_cartesian_frame_freezes_the_heading(self):
        # omega = (k1/2)*sin(2*gamma) + omega_tilde is exactly 0.0 in the
        # field, so theta keeps the start's heading bit for bit
        start = PolarState(1.0, 0.5, -1.2)
        cfg = SimConfig(dt=0.05, t_final=30.0, capture_radius=0.0, frame=Frame.CARTESIAN)
        cart = simulate_unsteered(1.0, start, cfg)
        assert cart.frame is Frame.CARTESIAN and cart.status is SimStatus.HORIZON_REACHED
        assert np.all(cart.theta == polar_to_cart(start).theta)
        assert np.all(cart.omega == 0.0)

    @pytest.mark.parametrize("start", [(1.0, 0.0, 0.3), (1.0, 0.5, -1.2), (2.0, -2.0, 2.5)])
    def test_frames_agree(self, start):
        cfg = SimConfig(dt=0.05, t_final=30.0, capture_radius=0.0)
        polar = simulate_unsteered(1.0, PolarState(*start), cfg)
        cart = simulate_unsteered(1.0, PolarState(*start),
                                  dataclasses.replace(cfg, frame=Frame.CARTESIAN))
        assert (polar.frame, cart.frame) == (Frame.POLAR, Frame.CARTESIAN)
        assert len(cart) == len(polar) == 601
        for name in ("rho", "delta", "gamma", "x", "y", "theta"):
            assert np.max(np.abs(getattr(cart, name) - getattr(polar, name))) < 1e-8, name

    @pytest.mark.parametrize("frame", list(Frame))
    def test_rejects_a_start_at_the_target(self, frame):
        with pytest.raises(DomainError):
            simulate_unsteered(1.0, PolarState(0.0, 0.5, 0.3), SimConfig(frame=frame))
