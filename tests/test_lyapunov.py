"""Storage functions, their derivatives, and the full-state compositors."""

import math

import numpy as np
import pytest

from polarpark import (
    ArgumentOrder,
    ControllerKind,
    ControllerSpec,
    CompositeLyapunovFn,
    Compositor,
    CompositorForm,
    DomainError,
    Gains,
    LyapunovFn,
    PolarState,
    bolsa_decay_bound,
    composite,
    omega_tilde,
)

UNIT = Gains(1.0, 1.0, 1.0, 1.0)


def all_fns(gains=UNIT):
    return [LyapunovFn(kind, gains) for kind in ControllerKind]


def interior_angles(kind, rng, n):
    # stay a little away from any barrier of the kind's space
    space = kind.space
    d_max = math.pi - 1e-2 if space.delta_bounded else 6.0
    g_max = math.pi - 1e-2 if space.gamma_bounded else 6.0
    return np.column_stack([rng.uniform(-d_max, d_max, n), rng.uniform(-g_max, g_max, n)])


class TestAngularValues:
    def test_zero_only_at_origin(self):
        rng = np.random.default_rng(21)
        for fn in all_fns():
            assert fn.value(0.0, 0.0) == 0.0
            for d, g in interior_angles(fn.kind, rng, 300):
                if abs(d) + abs(g) < 1e-12:
                    continue
                assert fn.value(float(d), float(g)) > 0.0

    def test_globa_frozen_value(self):
        fn = LyapunovFn(ControllerKind.GLOBA, UNIT)
        # frozen from a 40-digit arbitrary-precision evaluation
        assert fn.value(1.0, 0.0) == pytest.approx(1.3064445708282746632, rel=1e-15)

    def test_bolsa_frozen_values(self):
        fn = LyapunovFn(ControllerKind.BOLSA, Gains(1.0, 1.0, 0.1, 1.0))
        assert fn.value(1.0, 0.0) == pytest.approx(1.4320391543176798299, rel=1e-14)
        fn2 = LyapunovFn(ControllerKind.BOLSA, Gains(2.0, 1.0, 1.0, 1.0))
        assert fn2.value(0.7, -0.4) == pytest.approx(2.2296252368719582923, rel=1e-14)

    def test_bagal_frozen_value(self):
        fn = LyapunovFn(ControllerKind.BAGAL, UNIT)
        assert fn.value(0.8, 0.5) == pytest.approx(1.0764801926025798356, rel=1e-14)

    def test_barrier_blow_up(self):
        fn = LyapunovFn(ControllerKind.BARFLI, UNIT)
        assert fn.value(math.pi - 1e-7, 0.0) > 1e13
        with pytest.raises(DomainError, match="barrier blow-up"):
            fn.value(math.pi, 0.0)
        fn = LyapunovFn(ControllerKind.BOLSA, UNIT)
        with pytest.raises(DomainError, match="barrier blow-up"):
            fn.value(0.0, -math.pi)
        fn = LyapunovFn(ControllerKind.BAGAL, UNIT)
        with pytest.raises(DomainError, match="barrier blow-up"):
            fn.value(4.0, 0.0)

    def test_for_controller(self):
        spec = ControllerSpec(ControllerKind.GLOBA, UNIT)
        fn = LyapunovFn.for_controller(spec)
        assert fn.kind is ControllerKind.GLOBA
        assert fn.space.value == "S"


class TestAngularDerivatives:
    def test_globa_frozen_gradient_and_vdot(self):
        fn = LyapunovFn(ControllerKind.GLOBA, UNIT)
        d_delta, d_gamma = fn.grad(1.0, 0.0)
        assert d_delta == pytest.approx(2.2214297435588181006, rel=1e-15)
        assert d_gamma == pytest.approx(1.107148717794090503, rel=1e-15)
        assert fn.vdot(1.0, 0.0) == pytest.approx(-1.507316332656465205, rel=1e-14)

    def test_bolsa_frozen_vdot(self):
        fn = LyapunovFn(ControllerKind.BOLSA, Gains(2.0, 1.0, 1.0, 1.0))
        assert fn.vdot(0.7, -0.4) == pytest.approx(-2.226196958039584338, rel=1e-13)

    def test_bagal_frozen_vdot(self):
        fn = LyapunovFn(ControllerKind.BAGAL, UNIT)
        assert fn.vdot(0.8, 0.5) == pytest.approx(-0.97043086512790764664, rel=1e-13)

    @pytest.mark.parametrize("gains, point, exact", [
        ((1.0, 1.0, 1300.0, 1.0), (math.pi - 1e-4, -1.86), 2.5339432709885448e16),
        ((1.0, 1.0, 1e4, 1.0), (-2.24, -1.99), 279.16157621388198),
        ((1.0, 1.0, 1.0, 1.0), (-3.1339, 1.6871), -22606488977.344707),
    ])
    def test_bagal_vdot_near_the_delta_barrier(self, gains, point, exact):
        # 60-digit references near the barrier, where the chain-rule terms reach
        # 1e20 and cancel; the first is a true increase (k3 > 1,244*k2)
        fn = LyapunovFn(ControllerKind.BAGAL, Gains(*gains))
        assert fn.vdot(*point) == pytest.approx(exact, rel=1e-13)

    def test_vdot_is_chain_rule_along_closed_loop(self):
        # vdot must equal grad . (delta', gamma') with delta' = (k1/2)sin(2g),
        # gamma' = -omega_tilde; this ties the three formula families together
        rng = np.random.default_rng(22)
        for gains in (UNIT, Gains(2.0, 1.0, 1.5, 0.5), Gains(0.5, 0.4, 0.9, 2.0)):
            for kind in ControllerKind:
                fn = LyapunovFn(kind, gains)
                spec = ControllerSpec(kind, gains, allow_unproven_gains=True)
                for d, g in interior_angles(kind, rng, 300):
                    d, g = float(d), float(g)
                    dd, dg = fn.grad(d, g)
                    delta_rate = 0.5 * gains.k1 * math.sin(2.0 * g)
                    gamma_rate = -omega_tilde(spec, d, g)
                    expected = dd * delta_rate + dg * gamma_rate
                    scale = max(1.0, abs(expected))
                    assert fn.vdot(d, g) == pytest.approx(expected, abs=5e-9 * scale)

    def test_vdot_negative_off_origin(self):
        rng = np.random.default_rng(23)
        for fn in all_fns():
            for d, g in interior_angles(fn.kind, rng, 500):
                if abs(d) + abs(g) < 1e-6:
                    continue
                assert fn.vdot(float(d), float(g)) < 0.0


class TestBolsaDecayBound:
    def test_bound_holds_on_grid(self):
        rng = np.random.default_rng(24)
        for gains in (UNIT, Gains(2.0, 1.0, 1.0, 1.0), Gains(1.0, 0.5, 0.5, 1.0)):
            assert gains.coupling_margin >= 0.0
            fn = LyapunovFn(ControllerKind.BOLSA, gains)
            for d, g in interior_angles(ControllerKind.BOLSA, rng, 400):
                d, g = float(d), float(g)
                vd = fn.vdot(d, g)
                for weight in (1.0, 2.0):
                    bound = bolsa_decay_bound(gains, d, g, shift_weight=weight)
                    assert vd <= bound + 1e-9

    def test_bound_is_negative_off_origin(self):
        bound = bolsa_decay_bound(UNIT, 0.5, 0.5)
        assert bound < 0.0


class TestCompositors:
    def test_sum_form(self):
        c = Compositor.sum_form()
        assert c.value(2.0, 3.0) == 5.0
        assert c.partials(2.0, 3.0) == (1.0, 1.0)

    def test_log_sum_form(self):
        c = Compositor.log_sum()
        assert c.value(1.0, 0.0) == pytest.approx(math.log(2.0), rel=1e-15)
        p_r, p_s = c.partials(1.0, 2.0)
        assert p_r == pytest.approx(0.5)
        assert p_s == 1.0

    def test_exp_product_form(self):
        c = Compositor.exp_product()
        assert c.value(0.0, 0.0) == 0.0
        assert c.value(1.0, 1.0) == pytest.approx(2.0 * math.e - 1.0, rel=1e-15)
        p_r, p_s = c.partials(1.0, 1.0)
        assert p_r == pytest.approx(math.e, rel=1e-15)
        assert p_s == pytest.approx(2.0 * math.e, rel=1e-15)

    def test_exp_product_saturates_instead_of_raising(self):
        c = Compositor.exp_product()
        assert c.value(0.0, 1e4) == math.inf
        p_r, p_s = c.partials(0.0, 1e4)
        assert p_r == math.inf and p_s == math.inf

    def test_custom_requires_all_callables(self):
        with pytest.raises(ValueError, match="custom compositor"):
            Compositor(CompositorForm.CUSTOM, fn=lambda r, s: r + s)

    def test_form_and_order_must_be_their_enums(self):
        # a string order used to compose as VDG_FIRST, and a string form to
        # fail only when evaluated
        with pytest.raises(ValueError, match="order must be a member of ArgumentOrder"):
            Compositor(CompositorForm.LOG_SUM, order="rho_first")
        with pytest.raises(ValueError, match="form must be a member of CompositorForm"):
            Compositor("sum")

    def test_builtin_rejects_callables(self):
        with pytest.raises(ValueError, match="only accepted with the CUSTOM form"):
            Compositor(CompositorForm.SUM, fn=lambda r, s: r + s)


class TestCompositeScreening:
    def test_valid_custom_passes(self):
        c = Compositor.custom(
            fn=lambda r, s: r + s + r * s,
            dfn_dr=lambda r, s: 1.0 + s,
            dfn_ds=lambda r, s: 1.0 + r,
        )
        fn = LyapunovFn(ControllerKind.GLOBA, UNIT)
        full = composite(c, fn)
        assert full.value(1.0, 1.0, 0.0) == pytest.approx(
            1.0 + fn.value(1.0, 0.0) * 2.0, rel=1e-12
        )

    def test_product_rejected_with_witness(self):
        # r*s vanishes on the axes, so it cannot measure the full state
        c = Compositor.custom(
            fn=lambda r, s: r * s,
            dfn_dr=lambda r, s: s,
            dfn_ds=lambda r, s: r,
        )
        fn = LyapunovFn(ControllerKind.GLOBA, UNIT)
        with pytest.raises(ValueError, match="positive-off-origin"):
            composite(c, fn)

    def test_nonzero_origin_rejected(self):
        c = Compositor.custom(
            fn=lambda r, s: r + s + 1e-6,
            dfn_dr=lambda r, s: 1.0,
            dfn_ds=lambda r, s: 1.0,
        )
        with pytest.raises(ValueError, match="zero-at-origin"):
            composite(c, LyapunovFn(ControllerKind.GLOBA, UNIT))

    def test_decreasing_partial_rejected(self):
        c = Compositor.custom(
            fn=lambda r, s: math.atan(r) + s,
            dfn_dr=lambda r, s: -1.0 / (1.0 + r * r),  # wrong sign
            dfn_ds=lambda r, s: 1.0,
        )
        with pytest.raises(ValueError, match="positive-partials"):
            composite(c, LyapunovFn(ControllerKind.GLOBA, UNIT))

    def test_builtins_skip_screening(self):
        for factory in (Compositor.sum_form, Compositor.log_sum, Compositor.exp_product):
            composite(factory(), LyapunovFn(ControllerKind.BAGAL, UNIT))

    def test_memoized_builtin_screen_equals_an_uncached_screen(self):
        from polarpark.lyapunov import _SCREEN_GRID
        from polarpark.verify import _COMP_GRID

        for factory in (Compositor.sum_form, Compositor.log_sum, Compositor.exp_product):
            for order in ArgumentOrder:
                comp = factory(order)
                # the same merge as a custom compositor, which is never memoized
                uncached = Compositor.custom(
                    fn=comp.value,
                    dfn_dr=lambda r, s, c=comp: c.partials(r, s)[0],
                    dfn_ds=lambda r, s, c=comp: c.partials(r, s)[1],
                    order=order,
                )
                for grid in (_COMP_GRID, _SCREEN_GRID):
                    expected = uncached.screen(grid)
                    assert comp.screen(grid) == expected
                    assert comp.screen(list(grid)) == expected  # served by the memo

    def test_custom_callables_run_on_every_screen(self):
        calls = []

        def fn(r, s):
            calls.append((r, s))
            return r + s

        c = Compositor.custom(fn=fn, dfn_dr=lambda r, s: 1.0, dfn_ds=lambda r, s: 1.0)
        grid = [0.0, 1.0, 2.0]
        first = c.screen(grid)
        n = len(calls)
        assert n > 0
        assert c.screen(grid) == first and len(calls) == 2 * n


class TestCompositeFunction:
    def test_frozen_values(self):
        fn = LyapunovFn(ControllerKind.GLOBA, UNIT)
        log_sum = CompositeLyapunovFn(Compositor.log_sum(), fn)
        assert log_sum.value(1.0, 0.0, 0.0) == pytest.approx(math.log(2.0), rel=1e-15)
        exp_prod = CompositeLyapunovFn(Compositor.exp_product(), fn)
        # frozen from a 40-digit arbitrary-precision evaluation
        assert exp_prod.value(0.0, 1.0, 0.0) == pytest.approx(
            2.6930200713538779921, rel=1e-14
        )

    def test_argument_order_swaps_roles(self):
        fn = LyapunovFn(ControllerKind.GLOBA, UNIT)
        rho_first = CompositeLyapunovFn(Compositor.log_sum(ArgumentOrder.RHO_FIRST), fn)
        vdg_first = CompositeLyapunovFn(Compositor.log_sum(ArgumentOrder.VDG_FIRST), fn)
        v = fn.value(1.5, -0.5)
        assert rho_first.value(2.0, 1.5, -0.5) == pytest.approx(math.log(5.0) + v, rel=1e-14)
        assert vdg_first.value(2.0, 1.5, -0.5) == pytest.approx(math.log1p(v) + 4.0, rel=1e-14)

    def test_log1p_value_is_finite_where_exp_product_overflows(self):
        fn = LyapunovFn(ControllerKind.BAGAL, UNIT)
        for order in ArgumentOrder:
            for factory in (Compositor.sum_form, Compositor.log_sum, Compositor.exp_product):
                full = CompositeLyapunovFn(factory(order), fn)
                assert full.log1p_value(2.0, 1.5, -0.5) == pytest.approx(
                    math.log1p(full.value(2.0, 1.5, -0.5)), rel=1e-14)
        # exp(5.2e6) overflows from delta = 3.0, and so does exp(900) at rho = 30
        s = fn.value(3.0, 0.0)
        rho_first = CompositeLyapunovFn(Compositor.exp_product(ArgumentOrder.RHO_FIRST), fn)
        vdg_first = CompositeLyapunovFn(Compositor.exp_product(ArgumentOrder.VDG_FIRST), fn)
        assert rho_first.value(1.0, 3.0, 0.0) == math.inf
        assert rho_first.log1p_value(1.0, 3.0, 0.0) == math.log1p(1.0) + s
        assert vdg_first.value(30.0, 3.0, 0.0) == math.inf
        assert vdg_first.log1p_value(30.0, 3.0, 0.0) == math.log1p(s) + 900.0

    def test_order_irrelevant_for_sum(self):
        fn = LyapunovFn(ControllerKind.BOLSA, UNIT)
        a = CompositeLyapunovFn(Compositor.sum_form(ArgumentOrder.RHO_FIRST), fn)
        b = CompositeLyapunovFn(Compositor.sum_form(ArgumentOrder.VDG_FIRST), fn)
        assert a.value(1.0, 0.5, -0.5) == b.value(1.0, 0.5, -0.5)
        assert a.gradient(1.0, 0.5, -0.5) == b.gradient(1.0, 0.5, -0.5)

    def test_vdot_is_chain_rule_on_full_field(self):
        # composite vdot must equal gradient . (rho', delta', gamma')
        rng = np.random.default_rng(25)
        for kind in ControllerKind:
            fn = LyapunovFn(kind, UNIT)
            spec = ControllerSpec(kind, UNIT)
            for factory in (Compositor.sum_form, Compositor.log_sum, Compositor.exp_product):
                for order in ArgumentOrder:
                    full = CompositeLyapunovFn(factory(order), fn)
                    for d, g in interior_angles(kind, rng, 50):
                        d, g = float(d), float(g)
                        if fn.value(d, g) > 100.0:
                            continue  # keep exp merges in accurate range
                        rho = float(rng.uniform(0.1, 5.0))
                        g_rho, g_d, g_g = full.gradient(rho, d, g)
                        rho_rate = -UNIT.k1 * rho * math.cos(g) ** 2
                        d_rate = 0.5 * UNIT.k1 * math.sin(2.0 * g)
                        g_rate = -omega_tilde(spec, d, g)
                        expected = g_rho * rho_rate + g_d * d_rate + g_g * g_rate
                        scale = max(1.0, abs(expected))
                        assert full.vdot(rho, d, g) == pytest.approx(
                            expected, abs=1e-8 * scale
                        )

    def test_vdot_negative_off_origin(self):
        rng = np.random.default_rng(26)
        fn = LyapunovFn(ControllerKind.GLOBA, UNIT)
        full = CompositeLyapunovFn(Compositor.sum_form(), fn)
        for _ in range(500):
            rho = float(rng.uniform(1e-3, 10.0))
            d = float(rng.uniform(-6.0, 6.0))
            g = float(rng.uniform(-6.0, 6.0))
            assert full.vdot(rho, d, g) < 0.0

    def test_gradient_at_angular_origin_points_outward_in_rho(self):
        fn = LyapunovFn(ControllerKind.BAGAL, UNIT)
        full = CompositeLyapunovFn(Compositor.sum_form(), fn)
        g_rho, g_d, g_g = full.gradient(2.0, 0.0, 0.0)
        assert g_rho == pytest.approx(4.0)
        assert g_d == 0.0
        assert g_g == 0.0


def scalar_rows(f, *cols):
    """Reference: f on each row of the columns, through the float path."""
    return np.array([f(*(float(c[i]) for c in cols)) for i in range(len(cols[0]))], dtype=float)


def capped_states(fn, rng, n, cap=600.0):
    """n (rho, delta, gamma) columns inside the kind's space with V_dg <= cap,
    which keeps exponential merges inside the double range."""
    rows = []
    while len(rows) < n:
        d, g = interior_angles(fn.kind, rng, 1)[0]
        if fn.value(float(d), float(g)) <= cap:
            rows.append((float(rng.uniform(0.01, 5.0)), d, g))
    return np.array(rows).T


def merge_partials(full, rho, delta, gamma):
    """(dC/d(rho^2), dC/dV_dg) at one state, through the float path."""
    r, s = rho * rho, full.angular.value(delta, gamma)
    if full.compositor.order is ArgumentOrder.RHO_FIRST:
        return full.compositor.partials(r, s)
    p_s, p_r = full.compositor.partials(s, r)
    return p_r, p_s


ARRAY_COMPOSITORS = (
    Compositor.sum_form,
    Compositor.log_sum,
    Compositor.exp_product,
    lambda order: Compositor.custom(
        fn=lambda r, s: r + s + r * s,
        dfn_dr=lambda r, s: 1.0 + s,
        dfn_ds=lambda r, s: 1.0 + r,
        order=order,
    ),
    # partials that return constants broadcast against array arguments
    lambda order: Compositor.custom(
        fn=lambda r, s: r + s, dfn_dr=lambda r, s: 1.0, dfn_ds=lambda r, s: 1.0, order=order
    ),
)


class TestArrayInputs:
    """Array arguments evaluate element-wise, matching the float path."""

    def test_angular_functions_match_scalar_path(self):
        rng = np.random.default_rng(27)
        for gains in (UNIT, Gains(2.0, 0.7, 1.3, 0.5)):
            for kind in ControllerKind:
                fn = LyapunovFn(kind, gains)
                spec = ControllerSpec(kind, gains, allow_unproven_gains=True)
                d, g = interior_angles(kind, rng, 1_000).T
                tilde = scalar_rows(lambda a, b: omega_tilde(spec, a, b), d, g)
                np.testing.assert_allclose(omega_tilde(spec, d, g), tilde, rtol=1e-12, atol=0)
                np.testing.assert_allclose(fn.value(d, g), scalar_rows(fn.value, d, g), rtol=1e-12, atol=0)
                grads = scalar_rows(fn.grad, d, g)
                for got, want in zip(fn.grad(d, g), grads.T):
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
                terms = np.abs(grads[:, 0] * 0.5 * gains.k1 * np.sin(2.0 * g)) + np.abs(grads[:, 1] * tilde)
                gap = np.abs(fn.vdot(d, g) - scalar_rows(fn.vdot, d, g))
                assert np.all(gap <= 1e-12 * np.maximum(1.0, terms))

    def test_composites_match_scalar_path(self):
        rng = np.random.default_rng(28)
        for kind in ControllerKind:
            fn = LyapunovFn(kind, UNIT)
            rho, d, g = capped_states(fn, rng, 1_000)
            angular_rate = scalar_rows(fn.vdot, d, g)
            for factory in ARRAY_COMPOSITORS:
                for order in ArgumentOrder:
                    full = CompositeLyapunovFn(factory(order), fn)
                    np.testing.assert_allclose(
                        full.value(rho, d, g), scalar_rows(full.value, rho, d, g), rtol=1e-12, atol=0)
                    grads = scalar_rows(full.gradient, rho, d, g)
                    for got, want in zip(full.gradient(rho, d, g), grads.T):
                        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
                    partials = scalar_rows(lambda *x: merge_partials(full, *x), rho, d, g)
                    rho_sq_rate = -2.0 * UNIT.k1 * rho * rho * np.cos(g) ** 2
                    terms = np.abs(partials[:, 0] * rho_sq_rate) + np.abs(partials[:, 1] * angular_rate)
                    gap = np.abs(full.vdot(rho, d, g) - scalar_rows(full.vdot, rho, d, g))
                    assert np.all(gap <= 1e-12 * np.maximum(1.0, terms))

    def test_any_element_outside_raises(self):
        inside_then_out = np.array([0.5, math.pi])
        zeros = np.zeros(2)
        with pytest.raises(DomainError, match="barrier blow-up"):
            LyapunovFn(ControllerKind.BARFLI, UNIT).value(inside_then_out, zeros)
        with pytest.raises(DomainError, match="barrier blow-up"):
            LyapunovFn(ControllerKind.BOLSA, UNIT).grad(zeros, -inside_then_out)
        with pytest.raises(DomainError, match="steering undefined"):
            omega_tilde(ControllerSpec(ControllerKind.BAGAL, UNIT), inside_then_out, zeros)


class TestDomainTest:
    """Every evaluation raises DomainError exactly where contains_angles is False for some
    element, on real arrays and on complex-step ones."""

    NAN = math.nan
    CASES = [  # (delta, gamma)
        ([0.1, NAN], [0.2, 0.3]),  # NaN alone is inside
        ([0.1, 0.2], [NAN, -0.3]),
        ([NAN, 4.0], [0.1, 0.1]),  # an outside delta next to a NaN
        ([0.1, 0.2], [-4.0, NAN]),
        ([NAN, NAN], [NAN, NAN]),
        ([], []),  # an empty array passes
        ([0.5, -3.0], [3.0, 0.5]),
        ([-math.pi, 0.0], [0.0, 0.0]),
        ([0.0, 0.0], [0.0, math.pi]),
    ]

    @staticmethod
    def evaluations(kind):
        fn = LyapunovFn(kind, UNIT)
        full = CompositeLyapunovFn(Compositor.sum_form(), fn)
        return [fn.value, fn.grad, fn.vdot,
                lambda d, g: full.value(np.ones(len(g)), d, g),
                lambda d, g: full.gradient(np.ones(len(g)), d, g),
                lambda d, g: full.vdot(np.ones(len(g)), d, g)]

    @pytest.mark.parametrize("kind", list(ControllerKind))
    @pytest.mark.parametrize("probe", [0.0, 1e-30j], ids=["real", "complex-step"])
    @pytest.mark.parametrize("delta, gamma", CASES)
    def test_raises_exactly_outside(self, kind, probe, delta, gamma):
        delta, gamma = np.array(delta), np.array(gamma)
        outside = not np.all(kind.space.contains_angles(delta, gamma))
        for evaluate in self.evaluations(kind):
            # a complex NaN warns in division on its way through, as the checks' errstate allows
            with np.errstate(invalid="ignore"):
                if outside:
                    with pytest.raises(DomainError, match="barrier blow-up"):
                        evaluate(delta + probe, gamma)
                else:
                    evaluate(delta + probe, gamma)

    @pytest.mark.parametrize("kind", list(ControllerKind))
    def test_a_float_next_to_an_array(self, kind):
        fn, pair = LyapunovFn(kind, UNIT), np.array([0.1, -0.4])
        for evaluate in (fn.value, fn.grad, fn.vdot):
            for args in ((pair, 0.3), (0.3, pair)):
                full = [np.broadcast_to(a, pair.shape) for a in args]
                np.testing.assert_allclose(evaluate(*args), evaluate(*full), rtol=1e-14, atol=0)
            for args, barrier in (((4.0, pair), kind.space.delta_bounded),
                                  ((pair, -4.0), kind.space.gamma_bounded)):
                if barrier:
                    with pytest.raises(DomainError, match="barrier blow-up"):
                        evaluate(*args)

    @pytest.mark.parametrize("probe", [0.0, 1e-30j], ids=["real", "complex-step"])
    def test_nan_next_to_an_outside_delta_raises_for_the_delta_barriers(self, probe):
        delta, gamma = np.array([math.nan, 4.0]) + probe, np.array([0.1, 0.1])
        for kind in (ControllerKind.BARFLI, ControllerKind.BAGAL):
            for evaluate in self.evaluations(kind):
                with pytest.raises(DomainError, match="barrier blow-up"):
                    evaluate(delta, gamma)
