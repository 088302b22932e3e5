"""Paracontrolled solvers checked against classical reference integrators."""

import math
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from paracalc import (BUMP_MOLLIFIER, Blocks, EnhancedNoise, NonlinearFunction,
                      SemigroupSpec, SolverConfig, SpectralField, TorusGrid,
                      dealiased_product, derivative, etd2_solve, heat_apply,
                      mollify, pam_theta, poly_function, rde_area, rde_driver,
                      remove_mean, resonant, sample_line_path, scaled_function,
                      solve_burgers, solve_pam, solve_pam_regularized,
                      solve_rde, spatial_white_noise,
                      trapezoid_exponential_path)
import paracalc.grid
import paracalc.solvers
from paracalc.grid import FieldPath
from paracalc.solvers import _MollifiedParaMachine, solve_rde_resonant_fp
from paracalc.spectral import antiderivative, block_sups, default_partition
from paracalc.partition import radial_cutoff

TWO_PI = 2 * math.pi


def tanh_fn(a=1.0):
    return NonlinearFunction(
        lambda x: a * np.tanh(x),
        lambda x: a / np.cosh(x) ** 2,
        lambda x: -2 * a * np.tanh(x) / np.cosh(x) ** 2,
        lambda x: a * (4 * np.tanh(x) ** 2 - 2 / np.cosh(x) ** 2) / np.cosh(x) ** 2)


class TestConfig:
    def test_rejects_bad_fixed_point_settings(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.5, fp_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.5, damping=0.0)

    def test_beta_defaults_to_alpha(self):
        cfg = SolverConfig(alpha=0.45)
        assert cfg.beta == 0.45

    def test_scaled_function(self):
        F = scaled_function(tanh_fn(), 2.0)
        x = np.array([0.3])
        assert F.f(x)[0] == pytest.approx(2.0 * math.tanh(0.3))
        assert F.d1(x)[0] == pytest.approx(2.0 / math.cosh(0.3) ** 2)


class TestRoughOde:
    def _enhanced(self, eps=None, seed=3):
        grid = TorusGrid(1, 512, 4 * TWO_PI)
        part = default_partition(grid)
        ts, xs = sample_line_path(grid, 0.75, seed)
        drv = rde_driver(ts, xs, grid)
        theta = drv.theta
        if eps:
            theta = mollify(theta, eps, BUMP_MOLLIFIER)
        xi = derivative(theta, 0)
        E = EnhancedNoise("rde", xi, theta, rde_area(theta, xi, part))
        return E, part

    def test_rejects_wrong_enhancement_kind(self):
        grid = TorusGrid(2, 32)
        xi = spatial_white_noise(grid, 0)
        E = EnhancedNoise("pam", xi, pam_theta(xi), xi)
        cfg = SolverConfig(alpha=0.45)
        with pytest.raises(ValueError):
            solve_rde(0.3, E, tanh_fn(), cfg)

    def test_matches_classical_ode_for_mollified_driver(self):
        # with the driver mollified the equation is a classical ODE; an
        # adaptive high-order integrator of the cutoff equation agrees
        # with the paracontrolled trajectory to spectral accuracy
        E, part = self._enhanced(eps=0.25)
        grid = E.xi.grid
        F = tanh_fn(0.4)
        cfg = SolverConfig(alpha=0.45, damping=0.7, fp_tol=1e-10)
        u, usharp, rep = solve_rde(0.3, E, F, cfg, part=part)
        assert rep.converged

        xi = E.xi

        def rhs(t, y):
            p = radial_cutoff(np.array([t]), 1.0, 2.0)[0]
            return p * 0.4 * math.tanh(y[0]) * xi.eval_at(np.array([t]))[0, 0]

        x = grid.points()[0]
        tc = np.where(x < grid.period / 2, x, x - grid.period)
        uv = u.values()[0]
        err = 0.0
        for sgn in (1.0, -1.0):
            sel = (np.abs(tc) <= 2.0) & (sgn * tc >= 0)
            t_eval = np.sort(tc[sel])[:: 1 if sgn > 0 else -1]
            sol = solve_ivp(rhs, (0.0, t_eval[-1]), [0.3], t_eval=t_eval,
                            rtol=1e-11, atol=1e-13, method="DOP853")
            for t1, y1 in zip(t_eval, sol.y[0]):
                err = max(err, abs(uv[np.argmin(np.abs(tc - t1))] - y1))
        assert err < 1e-6

    def test_remainder_is_smoother_than_the_solution(self):
        E, part = self._enhanced()
        cfg = SolverConfig(alpha=0.45, damping=0.7, fp_tol=1e-10)
        u, usharp, rep = solve_rde(0.3, E, tanh_fn(0.4), cfg, part=part)
        assert rep.converged
        js = np.arange(2, part.j_max + 1)
        su = np.polyfit(js, np.log2(block_sups(u, part)[3:]), 1)[0]
        ss = np.polyfit(js, np.log2(block_sups(usharp, part)[3:]), 1)[0]
        assert ss < su - 0.8

    def test_report_carries_advice_when_stalled(self):
        E, part = self._enhanced()
        cfg = SolverConfig(alpha=0.45, damping=0.9, fp_tol=1e-12, fp_max=2)
        _, _, rep = solve_rde(0.3, E, tanh_fn(2.5), cfg, part=part)
        assert not rep.converged
        assert "halve lambda" in rep.advice

    def test_resonant_fixed_point_on_a_manufactured_solution(self):
        # pick u first, back out the driver xi = u' / F(u); then u solves
        # the global equation and the implicit relation pins down u @ xi
        grid = TorusGrid(1, 512, 4 * TWO_PI)
        part = default_partition(grid)
        u = SpectralField.from_function(
            grid, lambda x: 0.4 * np.sin(0.5 * x) + 0.2 * np.cos(0.75 * x))
        F = poly_function([1.0, 0.3])
        xi_vals = derivative(u, 0).values()[0] / F(u).values()[0]
        xi, _ = remove_mean(SpectralField.from_values(grid, xi_vals))
        theta = antiderivative(xi)
        E = EnhancedNoise("rde", xi, theta, rde_area(theta, xi, part))
        cfg = SolverConfig(alpha=0.45, damping=0.7, fp_tol=1e-12)
        y = solve_rde_resonant_fp(u, E, F, cfg, part=part)
        assert (y - resonant(u, xi, part)).sup_norm() < 1e-11


class TestBurgers:
    def test_zero_driver_reduces_to_the_classical_scheme(self):
        # with theta = eta = 0 the paracontrolled drift collapses to
        # G(w) dw/dx and the stepping rule is the same, so the two paths
        # agree bit for bit
        grid = TorusGrid(1, 128)
        part = default_partition(grid)
        M, T, sigma = 32, 0.25, 0.9
        times = np.arange(M + 1) * (T / M)
        zp = FieldPath(times, [SpectralField.zero(grid)] * (M + 1))
        E = EnhancedNoise("burgers", zp, zp, zp)
        G = tanh_fn(0.5)
        w0 = SpectralField.from_function(
            grid, lambda x: 0.5 * np.sin(x) + 0.2 * np.cos(3 * x))
        cfg = SolverConfig(alpha=0.45, sigma=sigma, T=T, M=M, fp_tol=1e-12,
                           damping=1.0)
        w_path, u_path, rep = solve_burgers(w0, E, G, cfg, part=part)
        drift = lambda u: dealiased_product(G(u), derivative(u, 0))
        ref = trapezoid_exponential_path(grid, sigma, w0, drift, T, M,
                                         fp_tol=1e-12)
        assert max((w_path[n] - ref[n]).sup_norm() for n in range(M + 1)) < 1e-13
        assert max((u_path[n] - w_path[n]).sup_norm() for n in range(M + 1)) < 1e-14

    def test_rejects_subcritical_sigma(self):
        grid = TorusGrid(1, 64)
        times = np.linspace(0.0, 0.25, 5)
        zp = FieldPath(times, [SpectralField.zero(grid)] * 5)
        E = EnhancedNoise("burgers", zp, zp, zp)
        cfg = SolverConfig(alpha=0.45, sigma=0.8, T=0.25, M=4)
        with pytest.raises(ValueError):
            solve_burgers(SpectralField.zero(grid), E, tanh_fn(), cfg)

    def test_stall_raises_with_rescaling_advice(self):
        grid = TorusGrid(1, 128)
        M, T = 4, 0.25
        times = np.arange(M + 1) * (T / M)
        zp = FieldPath(times, [SpectralField.zero(grid)] * (M + 1))
        E = EnhancedNoise("burgers", zp, zp, zp)
        w0 = SpectralField.from_function(grid, lambda x: 10.0 * np.sin(x))
        cfg = SolverConfig(alpha=0.45, sigma=0.9, T=T, M=M, fp_tol=1e-14,
                           fp_max=2, damping=1.0)
        with pytest.raises(RuntimeError, match="halve lambda"):
            solve_burgers(w0, E, tanh_fn(5.0), cfg)


class TestPam:
    def _enhanced(self, grid, part, amp=2.0, band=4, seed=5):
        xi = spatial_white_noise(grid, seed)
        xi = SpectralField(grid, xi.coeffs * (grid.k_abs() <= band)) * amp
        theta = pam_theta(xi)
        return EnhancedNoise("pam", xi, theta, resonant(theta, xi, part))

    def test_matches_regularized_solve_for_band_limited_noise(self):
        # band-limited noise needs no renormalization on this lattice, so
        # the paracontrolled march and the classical implicit exponential
        # scheme solve the same equation
        grid = TorusGrid(2, 32)
        part = default_partition(grid)
        E = self._enhanced(grid, part)
        F = tanh_fn(0.4)
        u0 = SpectralField.constant(grid, 0.3)
        cfg = SolverConfig(alpha=0.45, sigma=1.0, T=0.1, M=32, fp_tol=1e-11,
                           damping=1.0)
        u_path, _, rep = solve_pam(u0, E, F, cfg, part=part)
        ref = solve_pam_regularized(u0, E.xi, 0.0, F, cfg)
        err = max((u_path[n] - ref[n]).sup_norm() for n in range(len(u_path)))
        assert rep.converged
        assert err < 5e-5

    def test_zero_nonlinearity_gives_pure_heat_flow(self):
        grid = TorusGrid(2, 32)
        part = default_partition(grid)
        E = self._enhanced(grid, part)
        rng = np.random.default_rng(1)
        u0 = SpectralField.from_values(grid, rng.standard_normal(grid.shape))
        cfg = SolverConfig(alpha=0.45, sigma=1.0, T=0.1, M=8)
        u_path, sharp_path, _ = solve_pam(u0, E, poly_function([0.0]), cfg,
                                          part=part)
        spec = SemigroupSpec(1.0, grid)
        for n, t in enumerate(u_path.times):
            assert (u_path[n] - heat_apply(u0, t, spec)).sup_norm() < 1e-13
            assert (u_path[n] - sharp_path[n]).sup_norm() < 1e-14

    def test_causal_average_is_frozen_share_plus_current_node(self):
        # the solver revises node n's value inside its fixed point; the
        # average must follow the final value and the frozen earlier nodes
        grid = TorusGrid(2, 32)
        part = default_partition(grid)
        E = self._enhanced(grid, part)
        times = np.arange(9) / 64.0
        machine = _MollifiedParaMachine(part, Blocks(E.theta, part),
                                        Blocks(E.xi, part), times)
        rng = np.random.default_rng(3)
        final = rng.standard_normal((9, 1) + grid.shape) + 0j
        for n in range(9):
            machine.set_f(n, SpectralField(grid, 2.0 * final[n]))
            machine._low_avg(n, 1)
            machine.set_f(n, SpectralField(grid, final[n]))
            for i in machine.blocks:
                ref = np.tensordot(machine.weights[i][n], final, axes=(0, 0)) \
                    * part.low_mask(i - 1)
                out = machine._low_avg(n, i)
                assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
            machine.freeze(n)

    @pytest.mark.parametrize("c_eps", [0.7, 0.0])
    def test_regularized_solve_matches_the_plain_product_drift(self, c_eps):
        # holding xi_eps, u and F(u) changes no arithmetic, so the solve
        # equals the same march with its drift written as plain products
        grid = TorusGrid(2, 32)
        xi = mollify(spatial_white_noise(grid, 3), 0.25, BUMP_MOLLIFIER)
        F = tanh_fn(0.4)
        u0 = SpectralField.constant(grid, 0.3)
        cfg = SolverConfig(alpha=0.45, T=0.05, M=8, fp_tol=1e-10, damping=1.0)

        def drift(u):
            out = dealiased_product(F(u), xi)
            if c_eps != 0.0:
                out = out - dealiased_product(F.deriv(u), F(u)) * c_eps
            return out

        ref = trapezoid_exponential_path(grid, 1.0, u0, drift, cfg.T, cfg.M,
                                         fp_tol=cfg.fp_tol, fp_max=cfg.fp_max,
                                         damping=cfg.damping, blowup=1e6)
        out = solve_pam_regularized(u0, xi, c_eps, F, cfg)
        assert np.array_equal(out.coeff_array(), ref.coeff_array())

    @pytest.mark.parametrize("c_eps, counts", [(0.7, (3, 4)), (0.0, (2, 2))])
    def test_regularized_drift_transform_counts(self, monkeypatch, c_eps, counts):
        # xi_eps is transformed on the first drift evaluation only; each
        # evaluation transforms u, F(u) and, for c_eps != 0, F'(u) once
        calls = {"oversampled_values": 0, "field_from_oversampled": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in calls:
            orig = getattr(paracalc.grid, name)
            wrapped = counted(name, orig)
            for modname, mod in list(sys.modules.items()):
                if modname.split(".")[0] == "paracalc" and getattr(mod, name, None) is orig:
                    monkeypatch.setattr(mod, name, wrapped)
        drifts = []
        monkeypatch.setattr(paracalc.solvers, "trapezoid_exponential_path",
                            lambda grid, sigma, u0, drift, *a, **k: drifts.append(drift))
        grid = TorusGrid(2, 32)
        xi = mollify(spatial_white_noise(grid, 3), 0.25, BUMP_MOLLIFIER)
        u = SpectralField.from_values(grid, np.random.default_rng(2).standard_normal(grid.shape))
        solve_pam_regularized(u, xi, c_eps, tanh_fn(0.4),
                              SolverConfig(alpha=0.45, T=0.05, M=8))
        (drift,) = drifts
        for first in (True, False):
            calls.update(dict.fromkeys(calls, 0))
            drift(u)
            assert (calls["oversampled_values"], calls["field_from_oversampled"]) \
                == (counts[0] + first, counts[1])

    def test_requires_the_laplacian(self):
        grid = TorusGrid(2, 32)
        part = default_partition(grid)
        E = self._enhanced(grid, part)
        cfg = SolverConfig(alpha=0.45, sigma=0.9, T=0.1, M=8)
        with pytest.raises(ValueError):
            solve_pam(SpectralField.zero(grid), E, tanh_fn(), cfg)

    def test_regularized_solver_reports_blowup(self):
        grid = TorusGrid(2, 32)
        xi = spatial_white_noise(grid, 7) * 200.0
        cfg = SolverConfig(alpha=0.45, sigma=1.0, T=2.0, M=16, fp_tol=1e-10)
        with pytest.raises(RuntimeError):
            solve_pam_regularized(SpectralField.constant(grid, 5.0), xi, 0.0,
                                  poly_function([0.0, 1.0]), cfg, blowup=1e3)


class TestReferenceIntegrators:
    def test_etd2_with_zero_source_is_exact_decay(self):
        grid = TorusGrid(1, 128)
        w0 = SpectralField.from_function(
            grid, lambda x: 0.5 * np.sin(x) + 0.2 * np.cos(3 * x))
        path = etd2_solve(grid, 1.0, w0, lambda u: SpectralField.zero(grid),
                          0.5, 8)
        spec = SemigroupSpec(1.0, grid)
        for n, t in enumerate(path.times):
            assert (path[n] - heat_apply(w0, t, spec)).sup_norm() < 1e-14

    def test_etd2_second_order_on_a_scalar_mode(self):
        # logistic-type source on the zero mode: halving the step shrinks
        # the endpoint error by about four
        grid = TorusGrid(1, 32)
        u0 = SpectralField.constant(grid, 0.1)
        source = lambda u: u * 1.0 - poly_function([0.0, 0.0, 1.0])(u)
        ref = solve_ivp(lambda t, y: y - y ** 2, (0.0, 1.0), [0.1],
                        rtol=1e-12, atol=1e-14).y[0, -1]
        errs = []
        for M in (8, 16, 32):
            path = etd2_solve(grid, 1.0, u0, source, 1.0, M)
            errs.append(abs(path[-1].mean()[0] - ref))
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0
