"""Steering laws: values against frozen references, structure, domains."""

import copy
import math
import pickle

import numpy as np
import pytest

from polarpark import (
    ControllerKind,
    ControllerSpec,
    DomainError,
    Gains,
    delta_shaping,
    omega_tilde,
    psi,
)
from polarpark.controllers import _psi, backstepping_terms, steering_law
from polarpark.geometry import ARRAY_MATH, COMPLEX_MATH, FLOAT_MATH

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

    def test_bagal_k3_bound(self):
        # past k3 = max(17.64*k1, 1,244*k2), BAGAL's V' turns positive near |delta| = pi
        too_steep = Gains(1.0, 1.0, 1300.0, 1.0)
        with pytest.raises(ValueError, match=r"bagal requires k3 <= max\(k1/h\*, 4\*k2/h\*\^2\)"):
            ControllerSpec(ControllerKind.BAGAL, too_steep)
        ControllerSpec(ControllerKind.BAGAL, too_steep, allow_unproven_gains=True)
        ControllerSpec(ControllerKind.BOLSA, too_steep)
        ControllerSpec(ControllerKind.BAGAL, Gains(1.0, 1.0, 1200.0, 1.0))
        ControllerSpec(ControllerKind.BAGAL, Gains(100.0, 1.0, 1300.0, 1.0))

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
        assert psi(0.0, 1.0, 0.0) == 1.0

    def test_small_z_series_matches_closed_form(self):
        # the series branch must agree with the exact form at the same z
        def closed_form(z, k2, Delta):
            num = math.sin(2.0 * z) / (2.0 * z) + 2.0 * k2 * Delta * math.sin(z) ** 2 / z
            return num / math.sqrt(1.0 + 4.0 * k2 * k2 * Delta * Delta)

        for Delta in (0.0, 0.5, -2.0):
            for z in (3e-9, 9.9e-9, -7e-9):
                assert psi(z, 1.0, Delta) == pytest.approx(
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
            assert psi(z, k2, Delta) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_frozen_value(self):
        # z for delta=1, gamma=0 at unit gains; frozen from a 40-digit
        # arbitrary-precision evaluation
        z = 0.5 * math.atan(2.0)
        assert psi(z, 1.0, 1.0) == pytest.approx(0.80786544447433758928, rel=1e-15)

    def test_arrays_take_the_series_element_wise(self):
        z = np.array([0.0, 3e-9, -7e-9, 9.9e-9, 1e-8, -0.3, 2.0])
        Delta = np.linspace(-2.0, 2.0, z.size)
        want = [psi(float(a), 0.7, float(b)) for a, b in zip(z, Delta)]
        np.testing.assert_allclose(psi(z, 0.7, Delta), want, rtol=1e-15, atol=0)


class TestOmegaTilde:
    def test_globa_frozen_value(self):
        # delta=1, gamma=0, unit gains; frozen from a 40-digit evaluation
        got = omega_tilde(spec_of(ControllerKind.GLOBA), 1.0, 0.0)
        assert got == pytest.approx(1.3614398033713828408, rel=1e-15)

    def test_backstepping_variable_frozen(self):
        Delta, dDelta, z = backstepping_terms(FLOAT_MATH, ControllerKind.GLOBA, 1.0, 1.0, 0.0)
        assert z == pytest.approx(0.55357435889704525151, rel=1e-15)
        assert Delta == 1.0
        assert dDelta == 1.0

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

    @pytest.mark.parametrize("kind", list(ControllerKind))
    def test_a_used_spec_compares_hashes_and_pickles_by_its_fields(self, kind):
        # a float call binds the spec's law once and keeps it, outside the fields
        used, fresh = spec_of(kind), spec_of(kind)
        first = omega_tilde(used, 0.3, -0.4)
        assert first == steering_law(FLOAT_MATH, kind, UNIT)(0.3, -0.4)
        assert omega_tilde(used, 0.3, -0.4) == first
        assert used == fresh and hash(used) == hash(fresh)
        for clone in (pickle.loads(pickle.dumps(used)), copy.deepcopy(used)):
            assert clone == fresh and hash(clone) == hash(fresh)
            assert omega_tilde(clone, 0.3, -0.4) == first

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


def _reference_law(xp, kind, gains):
    """Each steering law written out: the backstepping kinds composed from
    backstepping_terms and _psi, the bounded kinds term by term."""
    k1, k2, k3, k4 = gains.k1, gains.k2, gains.k3, gains.k4

    def law(delta, gamma):
        if kind in (ControllerKind.BOLSA, ControllerKind.BAGAL):
            if kind is ControllerKind.BAGAL:
                if abs(delta) >= math.pi:
                    raise DomainError("steering undefined at |delta| >= pi")
                half_tan = xp.tan(delta / 2.0)
                steep_delta = (1.0 + half_tan * half_tan) * half_tan
                weight = 2.0 * k3
            else:
                steep_delta, weight = delta, k3
            cos_g = xp.cos(gamma)
            return k2 * xp.sin(gamma) + weight * (cos_g * (1.0 + cos_g) ** 2 / 4.0) * steep_delta
        Delta, dDelta, z = backstepping_terms(xp, kind, k2, delta, gamma)
        gain_sq = 1.0 + 4.0 * k2 * k2 * Delta * Delta
        return k4 * z + dDelta * (
            k1 * k2 * xp.sin(2.0 * gamma) / (2.0 * gain_sq) + k3 * _psi(xp, z, k2, Delta) * Delta)

    return law


def _bits(value):
    # float.hex tells -0.0 from 0.0, which == does not
    return (value.real.hex(), value.imag.hex())


class TestFusedKernels:
    """The scalar laws sim.py binds equal the reference composition bit for bit."""

    GAIN_SETS = (UNIT, Gains(1.5, 0.7, 2.0, 3.0), Gains(0.3, 2.5, 0.1, 0.4))

    @staticmethod
    def edge_points(kind, k2):
        near_pi = [math.pi - j * 1e-13 for j in (1, 3, 10)] + [math.nextafter(math.pi, 0.0)]
        deltas = [0.0, 1e-9, 0.4, -1.3] + near_pi + [-d for d in near_pi]
        if kind is ControllerKind.GLOBA:
            deltas += [3.5, -7.0]
        points = []
        for delta in deltas:
            # z = gamma + atan(2*k2*Delta)/2 at, and within 1e-8 of, zero
            if kind in (ControllerKind.GLOBA, ControllerKind.BARFLI):
                Delta, _ = delta_shaping(kind, delta)
                offset = -0.5 * math.atan(2.0 * k2 * Delta)
                points += [(delta, offset + eps) for eps in (0.0, 3e-9, -7e-9, 9.9e-9, 2e-8)]
            points += [(delta, gamma) for gamma in (0.0, 1.2, -3.0, math.pi, -4.0, 6.5)]
        return points

    @pytest.mark.parametrize("kind", list(ControllerKind))
    @pytest.mark.parametrize("gains", GAIN_SETS)
    def test_scalar_kernels_equal_the_reference(self, kind, gains):
        rng = np.random.default_rng(11)
        delta_max = 8.0 if kind is ControllerKind.GLOBA else math.pi
        points = [(float(d), float(g)) for d, g in zip(
            rng.uniform(-delta_max, delta_max, 10_000), rng.uniform(-7.0, 7.0, 10_000))]
        points += self.edge_points(kind, gains.k2)
        fused = steering_law(FLOAT_MATH, kind, gains)
        fused_c = steering_law(COMPLEX_MATH, kind, gains)
        reference = _reference_law(FLOAT_MATH, kind, gains)
        reference_c = _reference_law(COMPLEX_MATH, kind, gains)
        for delta, gamma in points:
            assert fused(delta, gamma).hex() == reference(delta, gamma).hex(), (delta, gamma)
            for args in ((delta + 1e-30j, gamma), (delta, gamma + 1e-30j)):
                assert _bits(fused_c(*args)) == _bits(reference_c(*args)), args

    def test_points_reach_the_series_branch(self):
        hits = 0
        for kind in (ControllerKind.GLOBA, ControllerKind.BARFLI):
            for delta, gamma in self.edge_points(kind, 0.7):
                _, _, z = backstepping_terms(FLOAT_MATH, kind, 0.7, delta, gamma)
                hits += abs(z) < 1e-8
        assert hits > 20

    @pytest.mark.parametrize("kind", [ControllerKind.BARFLI, ControllerKind.BAGAL])
    @pytest.mark.parametrize("xp, step", [(FLOAT_MATH, 0.0), (COMPLEX_MATH, 1e-30j)])
    def test_delta_barrier_in_both_scalar_namespaces(self, kind, xp, step):
        law = steering_law(xp, kind, UNIT)
        for delta in (math.pi, -math.pi, 3.5, math.nextafter(math.pi, 4.0)):
            with pytest.raises(DomainError, match="steering undefined"):
                law(delta + step, 0.3)

    @pytest.mark.parametrize("family, namespaces", [
        ((ControllerKind.GLOBA, ControllerKind.BARFLI), (FLOAT_MATH, COMPLEX_MATH)),
        ((ControllerKind.BOLSA, ControllerKind.BAGAL), (FLOAT_MATH, COMPLEX_MATH, ARRAY_MATH)),
    ])
    def test_one_kernel_per_design_family(self, family, namespaces):
        # the two kinds of a family differ only in a branch chosen at bind
        # time, so their laws are closures over one code object
        for xp in namespaces:
            first, second = (steering_law(xp, kind, UNIT) for kind in family)
            assert first.__code__ is second.__code__, xp.__name__
