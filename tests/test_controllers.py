"""Steering laws: values against frozen references, structure, domains."""

import math

import numpy as np
import pytest

from polarpark import (
    ControlInput,
    ControllerKind,
    ControllerSpec,
    DomainError,
    Gains,
    PolarState,
    backstepping_aux,
    control,
    delta_shaping,
    forward_velocity,
    omega_tilde,
    psi,
)

UNIT = Gains(1.0, 1.0, 1.0, 1.0)


def spec_of(kind, gains=UNIT, **kw):
    return ControllerSpec(kind, gains, **kw)


class TestGains:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="k2"):
            Gains(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="k3"):
            Gains(1.0, 1.0, -2.0, 1.0)

    def test_coupling_margin(self):
        assert Gains(2.0, 1.0, 1.0).coupling_margin == pytest.approx(1.0)
        assert Gains(1.0, 1.0, 0.1).coupling_margin == pytest.approx(-0.9)

    def test_gain_ratio(self):
        assert Gains(4.0, 1.0, 1.0).q == pytest.approx(2.0)

    def test_k4_defaults_to_one(self):
        assert Gains(1.0, 2.0, 3.0).k4 == 1.0


class TestControllerSpec:
    def test_coupling_enforced_for_bounded_laws(self):
        for kind in (ControllerKind.BOLSA, ControllerKind.BAGAL):
            with pytest.raises(ValueError, match="k1\\*k3 >= k2\\^2"):
                ControllerSpec(kind, Gains(1.0, 1.0, 0.1, 1.0))
            # explicit opt-out for running uncertified gains
            ControllerSpec(kind, Gains(1.0, 1.0, 0.1, 1.0), allow_unproven_gains=True)

    def test_coupling_holds_with_equality(self):
        ControllerSpec(ControllerKind.BOLSA, Gains(1.0, 1.0, 1.0, 1.0))

    def test_backstepping_laws_ignore_coupling(self):
        ControllerSpec(ControllerKind.GLOBA, Gains(1.0, 1.0, 0.1, 1.0))
        ControllerSpec(ControllerKind.BARFLI, Gains(1.0, 1.0, 0.1, 1.0))

    def test_spaces(self):
        assert spec_of(ControllerKind.GLOBA).space.value == "S"
        assert spec_of(ControllerKind.BARFLI).space.value == "S1"
        assert spec_of(ControllerKind.BOLSA).space.value == "S2"
        assert spec_of(ControllerKind.BAGAL).space.value == "S3"


class TestForwardVelocity:
    def test_proportional_to_distance(self):
        assert forward_velocity(PolarState(2.0, 1.0, 0.0), UNIT) == pytest.approx(2.0)

    def test_reverses_when_target_behind(self):
        v = forward_velocity(PolarState(1.0, 0.0, 3.0), UNIT)
        assert v < 0.0

    def test_zero_at_target(self):
        assert forward_velocity(PolarState(0.0, 1.0, 1.0), Gains(5.0, 1.0, 1.0)) == 0.0


class TestDeltaShaping:
    def test_identity_shaping(self):
        assert delta_shaping(ControllerKind.GLOBA, 2.5) == (2.5, 1.0)

    def test_barrier_shaping_at_right_angle(self):
        Delta, dDelta = delta_shaping(ControllerKind.BARFLI, math.pi / 2.0)
        assert Delta == pytest.approx(2.0)
        assert dDelta == pytest.approx(2.0)

    def test_barrier_shaping_matches_small_angle(self):
        Delta, dDelta = delta_shaping(ControllerKind.BARFLI, 1e-6)
        assert Delta == pytest.approx(1e-6, rel=1e-9)
        assert dDelta == pytest.approx(1.0)

    def test_barrier_shaping_blows_up(self):
        Delta, _ = delta_shaping(ControllerKind.BARFLI, math.pi - 1e-6)
        assert Delta > 1e6
        with pytest.raises(DomainError, match="steering undefined"):
            delta_shaping(ControllerKind.BARFLI, math.pi)
        with pytest.raises(DomainError, match="steering undefined"):
            delta_shaping(ControllerKind.BARFLI, -3.5)

    def test_no_shaping_for_bounded_laws(self):
        with pytest.raises(ValueError, match="no delta shaping"):
            delta_shaping(ControllerKind.BOLSA, 0.5)


class TestPsi:
    def test_global_maximum_at_origin(self):
        assert psi(0.0, 0.0, 1.0, 0.0) == 1.0

    def test_small_z_series_matches_closed_form(self):
        # the series branch must agree with the exact form at the same z
        def closed_form(z, k2, Delta):
            num = math.sin(2.0 * z) / (2.0 * z) + 2.0 * k2 * Delta * math.sin(z) ** 2 / z
            return num / math.sqrt(1.0 + 4.0 * k2 * k2 * Delta * Delta)

        for Delta in (0.0, 0.5, -2.0):
            for z in (3e-9, 9.9e-9, -7e-9):
                assert psi(z, 0.0, 1.0, Delta) == pytest.approx(
                    closed_form(z, 1.0, Delta), rel=1e-12
                )

    def test_matches_direct_formula(self):
        # psi = (sin(2z - 2g) + sin(2g)) / (2z) with 2z - 2g = arctan(2*k2*Delta)
        rng = np.random.default_rng(3)
        for _ in range(500):
            k2 = float(rng.uniform(0.1, 5.0))
            Delta = float(rng.uniform(-5.0, 5.0))
            z = float(rng.uniform(-4.0, 4.0))
            if abs(z) < 1e-6:
                continue
            gamma = z - 0.5 * math.atan(2.0 * k2 * Delta)
            direct = (math.sin(2.0 * z - 2.0 * gamma) + math.sin(2.0 * gamma)) / (2.0 * z)
            assert psi(z, gamma, k2, Delta) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_frozen_value(self):
        # z for delta=1, gamma=0 at unit gains; frozen from a 40-digit
        # arbitrary-precision evaluation
        z = 0.5 * math.atan(2.0)
        assert psi(z, 0.0, 1.0, 1.0) == pytest.approx(0.80786544447433758928, rel=1e-15)

    def test_arrays_take_the_series_element_wise(self):
        z = np.array([0.0, 3e-9, -7e-9, 9.9e-9, 1e-8, -0.3, 2.0])
        Delta = np.linspace(-2.0, 2.0, z.size)
        want = [psi(float(a), 0.0, 0.7, float(b)) for a, b in zip(z, Delta)]
        np.testing.assert_allclose(psi(z, 0.0, 0.7, Delta), want, rtol=1e-15, atol=0)


class TestOmegaTilde:
    def test_globa_frozen_value(self):
        # delta=1, gamma=0, unit gains; frozen from a 40-digit evaluation
        got = omega_tilde(spec_of(ControllerKind.GLOBA), 1.0, 0.0)
        assert got == pytest.approx(1.3614398033713828408, rel=1e-15)

    def test_backstepping_variable_frozen(self):
        aux = backstepping_aux(ControllerKind.GLOBA, UNIT, 1.0, 0.0)
        assert aux.z == pytest.approx(0.55357435889704525151, rel=1e-15)
        assert aux.Delta == 1.0
        assert aux.dDelta_ddelta == 1.0

    def test_bolsa_frozen_value(self):
        spec = spec_of(ControllerKind.BOLSA, Gains(1.0, 1.0, 0.1, 1.0), allow_unproven_gains=True)
        # at gamma=0 the bounded factor is 1, so omega_tilde = k3 * delta
        assert omega_tilde(spec, 1.0, 0.0) == pytest.approx(0.1, rel=1e-15)

    def test_bagal_frozen_value(self):
        got = omega_tilde(spec_of(ControllerKind.BAGAL), 0.8, 0.5)
        assert got == pytest.approx(1.2503419780241815875, rel=1e-14)

    def test_bounded_laws_extend_through_gamma_pi(self):
        # at |gamma| = pi the gamma-barrier factor vanishes: pure sine steering
        for kind in (ControllerKind.BOLSA, ControllerKind.BAGAL):
            got = omega_tilde(spec_of(kind), 1.0, math.pi)
            assert got == pytest.approx(Gains(1, 1, 1, 1).k2 * math.sin(math.pi), abs=1e-12)

    def test_delta_barrier_raises(self):
        for kind in (ControllerKind.BARFLI, ControllerKind.BAGAL):
            with pytest.raises(DomainError, match="steering undefined"):
                omega_tilde(spec_of(kind), math.pi, 0.0)

    def test_steering_vanishes_at_angular_origin(self):
        for kind in ControllerKind:
            assert omega_tilde(spec_of(kind), 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_odd_symmetry(self):
        # all four laws are odd under (delta, gamma) -> (-delta, -gamma)
        rng = np.random.default_rng(5)
        for kind in ControllerKind:
            spec = spec_of(kind)
            for _ in range(200):
                d = float(rng.uniform(-3.0, 3.0))
                g = float(rng.uniform(-3.0, 3.0))
                plus = omega_tilde(spec, d, g)
                minus = omega_tilde(spec, -d, -g)
                assert plus == pytest.approx(-minus, rel=1e-12, abs=1e-12)


class TestControl:
    def test_turn_rate_split(self):
        spec = spec_of(ControllerKind.GLOBA)
        state = PolarState(2.0, 1.0, -0.7)
        inp = control(spec, state)
        assert isinstance(inp, ControlInput)
        feedforward = 0.5 * math.sin(-1.4)
        assert inp.omega == pytest.approx(feedforward + inp.omega_tilde, rel=1e-15)
        assert inp.v == pytest.approx(2.0 * math.cos(-0.7), rel=1e-15)

    def test_equilibrium_at_angular_origin(self):
        for kind in ControllerKind:
            inp = control(spec_of(kind), PolarState(0.0, 0.0, 0.0))
            assert inp.v == 0.0
            assert inp.omega == pytest.approx(0.0, abs=1e-15)
