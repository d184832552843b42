"""Coordinate transforms, state spaces, and the space metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polarpark import (
    CartesianState,
    DomainError,
    PolarState,
    StateSpace,
    cart_to_polar,
    metric,
    polar_to_cart,
    wrap_angle,
)


class TestWrapAngle:
    def test_identity_inside_interval(self):
        for a in (0.0, 1.0, -1.0, 3.0, -3.0):
            assert wrap_angle(a) == a

    def test_boundary_is_positive_pi(self):
        # convention: interval is (-pi, pi], so both boundaries map to +pi
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi

    def test_full_turns_cancel(self):
        assert wrap_angle(2.0 * math.pi) == pytest.approx(0.0, abs=1e-15)
        assert wrap_angle(-4.0 * math.pi) == pytest.approx(0.0, abs=1e-15)
        assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)

    def test_preserves_direction(self):
        rng = np.random.default_rng(7)
        for a in rng.uniform(-50.0, 50.0, 1000):
            w = wrap_angle(float(a))
            assert -math.pi < w <= math.pi
            assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-12)
            assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-12)

    @given(st.floats(-1e6, 1e6))
    def test_idempotent(self, a):
        assert wrap_angle(wrap_angle(a)) == wrap_angle(a)


class TestStates:
    def test_polar_rejects_negative_distance(self):
        with pytest.raises(ValueError, match="negative rho"):
            PolarState(-0.1, 0.0, 0.0)

    def test_polar_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            PolarState(1.0, math.nan, 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            PolarState(math.inf, 0.0, 0.0)

    def test_cartesian_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            CartesianState(0.0, math.inf, 0.0)

    def test_states_are_immutable(self):
        s = PolarState(1.0, 0.5, -0.5)
        with pytest.raises(AttributeError):
            s.rho = 2.0


class TestTransforms:
    def test_behind_target_is_angular_origin(self):
        # a vehicle on the negative x axis aimed at the target
        p = cart_to_polar(CartesianState(-2.0, 0.0, 0.0))
        assert p.rho == pytest.approx(2.0)
        assert p.delta == pytest.approx(0.0)
        assert p.gamma == pytest.approx(0.0)

    def test_in_front_of_target(self):
        p = cart_to_polar(CartesianState(2.0, 0.0, 0.0))
        assert p.delta == pytest.approx(math.pi)
        assert p.gamma == pytest.approx(math.pi)

    def test_polar_to_cart_quarter_turn(self):
        c = polar_to_cart(PolarState(1.0, math.pi / 2.0, 0.0))
        assert c.x == pytest.approx(0.0, abs=1e-15)
        assert c.y == pytest.approx(-1.0)
        assert c.theta == pytest.approx(math.pi / 2.0)

    def test_chart_undefined_at_target(self):
        with pytest.raises(DomainError, match="rho=0"):
            cart_to_polar(CartesianState(0.0, 0.0, 1.0))
        with pytest.raises(DomainError, match="rho=0"):
            polar_to_cart(PolarState(0.0, 1.0, 1.0))

    def test_roundtrip_polar_cart_polar(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            p = PolarState(
                float(rng.uniform(0.01, 10.0)),
                float(rng.uniform(-math.pi, math.pi)),
                float(rng.uniform(-math.pi, math.pi)),
            )
            # stay off the wrap seam where the roundtrip flips by 2*pi
            if math.pi - abs(p.delta) < 1e-9 or math.pi - abs(p.gamma) < 1e-9:
                continue
            q = cart_to_polar(polar_to_cart(p))
            assert q.rho == pytest.approx(p.rho, rel=1e-12)
            assert q.delta == pytest.approx(p.delta, abs=1e-12)
            assert q.gamma == pytest.approx(p.gamma, abs=1e-12)

    def test_roundtrip_cart_polar_cart(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            c = CartesianState(
                float(rng.uniform(-5.0, 5.0)),
                float(rng.uniform(-5.0, 5.0)),
                float(rng.uniform(-math.pi, math.pi)),
            )
            if math.hypot(c.x, c.y) < 1e-6:
                continue
            d = polar_to_cart(cart_to_polar(c))
            assert d.x == pytest.approx(c.x, abs=1e-12)
            assert d.y == pytest.approx(c.y, abs=1e-12)
            assert wrap_angle(d.theta - c.theta) == pytest.approx(0.0, abs=1e-12)


class TestStateSpaces:
    def test_bounded_flags(self):
        assert not StateSpace.S.delta_bounded and not StateSpace.S.gamma_bounded
        assert StateSpace.S1.delta_bounded and not StateSpace.S1.gamma_bounded
        assert not StateSpace.S2.delta_bounded and StateSpace.S2.gamma_bounded
        assert StateSpace.S3.delta_bounded and StateSpace.S3.gamma_bounded

    def test_containment_at_barrier(self):
        assert StateSpace.S.contains_angles(math.pi, -math.pi)
        assert not StateSpace.S1.contains_angles(math.pi, 0.0)
        assert StateSpace.S1.contains_angles(0.0, math.pi)
        assert not StateSpace.S2.contains_angles(0.0, -math.pi)
        assert not StateSpace.S3.contains_angles(0.0, math.pi)

    def test_containment_of_arrays_is_element_wise(self):
        delta = np.array([0.0, math.pi, -4.0, 1.0, np.nan])
        gamma = np.array([0.0, 0.0, 0.0, -math.pi, 0.0])
        for space in StateSpace:
            got = space.contains_angles(delta, gamma)
            want = [space.contains_angles(float(d), float(g)) for d, g in zip(delta, gamma)]
            assert np.array_equal(np.broadcast_to(got, delta.shape), want)
        # only an angle at or beyond a barrier is outside: NaN is not
        assert StateSpace.S3.contains_angles(math.nan, 0.0)

    def test_contains_needs_positive_distance(self):
        assert not StateSpace.S.contains(PolarState(0.0, 0.0, 0.0))
        assert StateSpace.S.contains(PolarState(0.5, 9.0, -9.0))


class TestMetric:
    def test_zero_at_origin_closure(self):
        for space in StateSpace:
            assert metric(space, PolarState(0.0, 0.0, 0.0)) == 0.0

    def test_plain_space_is_sum_of_coordinates(self):
        assert metric(StateSpace.S, PolarState(1.5, -2.0, 0.5)) == pytest.approx(4.0)

    def test_barrier_replaces_angle_by_half_tangent(self):
        # 2*tan(|a|/2) at a = pi/2 equals 2
        m = metric(StateSpace.S1, PolarState(1.0, math.pi / 2.0, 0.0))
        assert m == pytest.approx(3.0)
        m = metric(StateSpace.S3, PolarState(0.0, math.pi / 2.0, -math.pi / 2.0))
        assert m == pytest.approx(4.0)

    def test_dominates_plain_metric(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            s = PolarState(
                float(rng.uniform(0.0, 5.0)),
                float(rng.uniform(-3.1, 3.1)),
                float(rng.uniform(-3.1, 3.1)),
            )
            # 2*tan(|a|/2) >= |a| on (-pi, pi)
            assert metric(StateSpace.S3, s) >= metric(StateSpace.S, s) - 1e-12

    def test_infinite_on_barrier(self):
        with pytest.raises(DomainError, match="metric infinite"):
            metric(StateSpace.S1, PolarState(1.0, math.pi, 0.0))
        with pytest.raises(DomainError, match="metric infinite"):
            metric(StateSpace.S2, PolarState(1.0, 0.0, -4.0))
        # same state is fine on the unconstrained space
        assert math.isfinite(metric(StateSpace.S, PolarState(1.0, 0.0, -4.0)))

    def test_blows_up_near_barrier(self):
        near = metric(StateSpace.S1, PolarState(0.0, math.pi - 1e-8, 0.0))
        assert near > 1e7
