"""Fractional heat semigroup and the exponential Duhamel integrator."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from paracalc import SemigroupSpec, SpectralField, TorusGrid, duhamel, heat_apply
from paracalc.evolution import Predictor, _duhamel_weights, apply_L
from paracalc.grid import FieldPath

from conftest import rough_field


class TestSemigroupSpec:
    def test_sigma_range_is_enforced(self, grid1d):
        with pytest.raises(ValueError):
            SemigroupSpec(0.5, grid1d)
        with pytest.raises(ValueError):
            SemigroupSpec(1.2, grid1d)

    def test_symbol_on_a_single_mode(self, grid1d):
        spec = SemigroupSpec(0.75, grid1d)
        assert spec.symbol()[4] == pytest.approx(4.0 ** 1.5, rel=1e-14)
        assert spec.symbol()[0] == 0.0


class TestHeatApply:
    def test_single_mode_decay(self, grid1d):
        spec = SemigroupSpec(0.9, grid1d)
        f = SpectralField.from_function(grid1d, lambda x: np.cos(4 * x))
        g = heat_apply(f, 0.3, spec.sigma)
        w = math.exp(-0.3 * 4.0 ** 1.8)
        assert g.coeffs[0, 4] == pytest.approx(0.5 * w, rel=1e-13)

    def test_rejects_negative_time(self, grid1d):
        spec = SemigroupSpec(1.0, grid1d)
        f = rough_field(grid1d, 0.5, 0)
        with pytest.raises(ValueError):
            heat_apply(f, -0.1, spec.sigma)

    def test_semigroup_law(self, grid1d):
        spec = SemigroupSpec(0.8, grid1d)
        f = rough_field(grid1d, 0.2, 1)
        a = heat_apply(heat_apply(f, 0.1, spec.sigma), 0.25, spec.sigma)
        b = heat_apply(f, 0.35, spec.sigma)
        assert (a - b).sup_norm() < 1e-13

    def test_preserves_the_mean(self, grid2d):
        f = rough_field(grid2d, 0.4, 2) + 1.5
        spec = SemigroupSpec(1.0, grid2d)
        assert heat_apply(f, 2.0, spec.sigma).mean()[0] == pytest.approx(
            f.mean()[0], rel=1e-13)


class TestDuhamelWeights:
    def test_against_quadrature(self):
        dt = 0.05
        for mu in (0.0, 0.3, 4.0, 400.0):
            z = np.array([mu * dt])
            A, B = _duhamel_weights(z, dt)
            a_ref = quad(lambda s: math.exp(-mu * (dt - s)), 0, dt)[0]
            b_ref = quad(lambda s: math.exp(-mu * (dt - s)) * s / dt, 0, dt)[0]
            assert A[0] == pytest.approx(a_ref, rel=1e-9)
            assert B[0] == pytest.approx(b_ref, rel=1e-9)

    def test_series_and_closed_form_agree_at_the_switch(self):
        dt = 1.0
        z = np.array([0.99e-4, 1.01e-4])
        A, B = _duhamel_weights(z, dt)
        assert A[0] == pytest.approx(A[1], rel=1e-6)
        assert B[0] == pytest.approx(B[1], rel=1e-6)


class TestDuhamel:
    def test_constant_source_is_exact(self, grid1d):
        # for a source frozen in time the piecewise-linear quadrature is
        # exact: each mode gives (1 - e^(-t mu)) / mu, and t at the origin
        spec = SemigroupSpec(0.75, grid1d)
        f = rough_field(grid1d, 0.5, 3) + 0.7
        times = np.linspace(0.0, 0.5, 9)
        out = duhamel(FieldPath(times, [f] * 9), spec.sigma)
        mu = spec.symbol()
        t = times[-1]
        fac = np.where(mu > 0, -np.expm1(-t * np.where(mu > 0, mu, 1.0))
                       / np.where(mu > 0, mu, 1.0), t)
        assert np.max(np.abs(out[-1].coeffs - f.coeffs * fac)) < 1e-14

    def test_linear_source_is_exact(self, grid1d):
        spec = SemigroupSpec(1.0, grid1d)
        f = rough_field(grid1d, 0.5, 4)
        times = np.linspace(0.0, 0.4, 17)
        path = FieldPath(times, [f * t for t in times])
        out = duhamel(path, spec.sigma)
        mu = spec.symbol()
        t = times[-1]
        nz = mu > 0
        m = np.where(nz, mu, 1.0)
        fac = np.where(nz, (t - (-np.expm1(-t * m)) / m) / m, t * t / 2)
        assert np.max(np.abs(out[-1].coeffs - f.coeffs * fac)) < 1e-13

    def test_starts_at_zero(self, grid2d):
        spec = SemigroupSpec(1.0, grid2d)
        times = np.linspace(0.0, 0.1, 5)
        path = FieldPath(times, [rough_field(grid2d, 0.5, s) for s in range(5)])
        out = duhamel(path, spec.sigma)
        assert out[0].sup_norm() == 0.0

    def test_equals_the_per_mode_recurrence(self, grid2d):
        # duhamel is the march with a drift that ignores its field, so it is
        # V_(n+1) = e^(-z) V_n + (A - B) v_n + B v_(n+1) up to rounding
        spec = SemigroupSpec(0.8, grid2d)
        times = np.linspace(0.0, 0.3, 13)
        arr = np.stack([rough_field(grid2d, -0.5, s, channels=2).coeffs for s in range(13)])
        dt = times[1] - times[0]
        z = spec.symbol() * dt
        A, B = _duhamel_weights(z, dt)
        ref = np.zeros_like(arr)
        for n in range(12):
            ref[n + 1] = ref[n] * np.exp(-z) + arr[n] * (A - B) + arr[n + 1] * B
        out = duhamel(FieldPath.from_coeff_array(times, grid2d, arr), spec.sigma)
        assert np.array_equal(out.times, times)
        assert np.max(np.abs(out.coeff_array() - ref)) <= 1e-15 * np.max(np.abs(ref))


def predicted(history) -> np.ndarray:
    pred = Predictor()
    for x in history:
        pred.push(np.asarray(x, dtype=float))
    return pred.next()


class TestPredictor:
    @pytest.mark.parametrize("degree", range(6))
    @pytest.mark.parametrize("nodes", [7, 12])
    def test_exact_on_polynomials_up_to_the_fifth_difference(self, degree, nodes):
        # x_n = p(n h) entrywise, with positive coefficients, so every
        # difference up to the degree shrinks with the next; the backward
        # series through del^degree is exact, where the linear start misses
        # by about h^2 p''
        rng = np.random.default_rng(degree)
        coeffs = rng.uniform(1.0, 2.0, (degree + 1, 4))
        h = 0.01
        p = lambda t: np.polynomial.polynomial.polyval(t, coeffs)
        got = predicted([p(n * h) for n in range(nodes)])
        np.testing.assert_allclose(got, p(nodes * h), rtol=1e-12, atol=0.0)

    def test_a_rough_history_gets_the_linear_start(self):
        # alternating values: each difference doubles the one before, so
        # the series stops after the linear term
        rng = np.random.default_rng(1)
        x = rng.uniform(0.5, 1.0, 8)
        history = [(-1) ** n * x for n in range(7)]
        np.testing.assert_allclose(predicted(history), 2.0 * history[-1] - history[-2],
                                   rtol=1e-15, atol=0.0)

    def test_one_node_predicts_itself_and_two_the_linear_start(self):
        assert predicted([[1.0, 2.0]]).tolist() == [1.0, 2.0]
        assert predicted([[1.0, 2.0], [3.0, 1.0]]).tolist() == [5.0, 0.0]

    def test_a_constant_history_predicts_itself(self):
        x = np.array([0.3, -1.0, 2.5])
        assert predicted([x] * 9).tolist() == x.tolist()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_history_raises_nothing(self, bad):
        # a non-finite difference is never below the one before it, so a
        # bad node behind the last two leaves the linear start
        history = [np.full(3, v) for v in (1.0, 2.0, bad, 4.0, 5.0)]
        with np.errstate(invalid="ignore"):
            assert predicted(history).tolist() == [6.0] * 3
            assert not np.any(np.isfinite(predicted(history + [np.full(3, bad)])))


class TestApplyL:
    def test_needs_three_nodes(self, grid1d):
        spec = SemigroupSpec(1.0, grid1d)
        times = np.array([0.0, 0.1])
        path = FieldPath(times, [rough_field(grid1d, 0.5, 0)] * 2)
        with pytest.raises(ValueError):
            apply_L(path, spec.sigma)

    def test_heat_flow_is_annihilated(self, grid1d):
        # u(t) = P_t u0 solves L u = 0; only the finite-difference time
        # derivative contributes error, quadratic in the step
        spec = SemigroupSpec(1.0, grid1d)
        f = SpectralField.from_function(grid1d, lambda x: np.cos(3 * x))
        times = np.linspace(0.0, 0.2, 41)
        path = FieldPath(times, [heat_apply(f, t, spec.sigma) for t in times])
        out = apply_L(path, spec.sigma)
        # interior nodes use central differences, the endpoints one-sided
        assert max(h.sup_norm() for h in out.fields[1:-1]) < 5e-3
        assert max(h.sup_norm() for h in out.fields) < 2e-2

    def test_mild_solution_recovers_its_source(self, grid1d):
        # L(Duhamel v) = v up to the finite-difference error in d/dt
        spec = SemigroupSpec(1.0, grid1d)
        g = SpectralField.from_function(grid1d, lambda x: np.cos(2 * x))
        times = np.linspace(0.0, 0.3, 121)
        path = FieldPath(times, [g * math.sin(3.0 * t) for t in times])
        out = apply_L(duhamel(path, spec.sigma), spec.sigma)
        err = max((out[n] - path[n]).sup_norm() for n in range(5, len(times)))
        assert err < 2e-3
